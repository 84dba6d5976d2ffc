"""Contact-tree validation, incidence matrices, dimensions, balancing."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from logcy.errors import InputError
from logcy.trees import (BalancingCertificate, LogPssTree, TreeEdge, balancing_feasible,
                         build_rho, kernel_dim, marked_leg_contact, obstruction_dim,
                         partition_count, tree_from_json, vdim_log, vdim_prelog)

from helpers import random_tree


def single_vertex(deg=0, k=1):
    return LogPssTree(k, {0: frozenset()}, [], root=0, legs=[(0, None)], deg_x0=deg)


def two_vertex(contact, deg=0, depth_v=frozenset({1}), k=1):
    depth_e = depth_v | frozenset()
    return LogPssTree(k, {0: frozenset(), 1: depth_v},
                      [TreeEdge(1, 0, depth_e, contact)],
                      root=0, legs=[(1, None)], deg_x0=deg)


def chain_tree(deg=2):
    # root(0) - v1 - v2 with depths {1} and {1,2}; contacts fixed explicitly
    return LogPssTree(
        2,
        {0: frozenset(), 1: frozenset({1}), 2: frozenset({1, 2})},
        [TreeEdge(1, 0, frozenset({1}), (1, 0)),
         TreeEdge(2, 1, frozenset({1, 2}), (1, 1))],
        root=0, legs=[(2, None)], deg_x0=deg)


def test_single_vertex_valid():
    assert single_vertex().validate() == []


def test_union_condition_violation():
    tree = LogPssTree(1, {0: frozenset(), 1: frozenset({1})},
                      [TreeEdge(1, 0, frozenset(), (0,))],
                      root=0, legs=[(1, None)], deg_x0=0)
    clauses = {v.clause for v in tree.validate()}
    assert "depth-union" in clauses


def test_root_depth_violation():
    tree = LogPssTree(1, {0: frozenset({1}), 1: frozenset({1})},
                      [TreeEdge(1, 0, frozenset({1}), (1,))],
                      root=0, legs=[(1, None)], deg_x0=0)
    clauses = {v.clause for v in tree.validate()}
    assert "root-depth" in clauses


def test_root_removal_disconnection():
    # two subtrees hanging off the root
    tree = LogPssTree(1,
                      {0: frozenset(), 1: frozenset({1}), 2: frozenset({1})},
                      [TreeEdge(1, 0, frozenset({1}), (1,)),
                       TreeEdge(2, 0, frozenset({1}), (1,))],
                      root=0, legs=[(1, None)], deg_x0=0)
    clauses = {v.clause for v in tree.validate()}
    assert "root-removal" in clauses


def test_contact_support_violation():
    tree = two_vertex((0,), k=1)
    tree = LogPssTree(2, {0: frozenset(), 1: frozenset({1})},
                      [TreeEdge(1, 0, frozenset({1}), (1, 1))],
                      root=0, legs=[(1, None)], deg_x0=0)
    clauses = {v.clause for v in tree.validate()}
    assert "contact-support" in clauses


def test_marked_stability():
    # one marked leg, non-root vertex of edge+leg valence 2: unstable
    tree = LogPssTree(1,
                      {0: frozenset(), 1: frozenset({1})},
                      [TreeEdge(1, 0, frozenset({1}), (1, 0))],
                      root=0, legs=[(0, None), (1, 1)], deg_x0=0, k_prime=1)
    clauses = {v.clause for v in tree.validate()}
    assert "stability" in clauses
    # two more legs on the vertex stabilize it
    stable = LogPssTree(1,
                        {0: frozenset(), 1: frozenset({1})},
                        [TreeEdge(1, 0, frozenset({1}), (1, 0))],
                        root=0, legs=[(0, None), (1, 1), (1, 1)], deg_x0=0, k_prime=1)
    assert stable.validate() == []


def test_marked_leg_contact_constant():
    assert marked_leg_contact(2, 3, 1) == (0, 0, 1, 0, 0)
    with pytest.raises(InputError):
        marked_leg_contact(2, 3, 4)


def test_rho_single_edge_example():
    tree = two_vertex((3,))
    rho = build_rho(tree)
    assert rho.matrix == ((3, 1),)
    assert rho.rank() == 1
    assert rho.kernel_dim() == 1
    assert obstruction_dim(tree) == 0
    assert vdim_prelog(tree) == -2  # deg 0 + 2((1-1) - 1)
    assert vdim_log(tree) == -2


def test_single_vertex_dimensions():
    tree = single_vertex(deg=4)
    assert vdim_prelog(tree) == 4
    assert vdim_log(tree) == 4
    assert obstruction_dim(tree) == 0
    assert kernel_dim(tree) == 0


def test_chain_rho_matrix_by_hand():
    # columns: e1, e2, (v1,1), (v2,1), (v2,2); rows: (e1,1), (e2,1), (e2,2)
    tree = chain_tree()
    rho = build_rho(tree)
    assert rho.ncols == 5
    assert rho.matrix == (
        (1, 0, 1, 0, 0),
        (0, 1, -1, 1, 0),
        (0, 1, 0, 0, 1),
    )
    assert rho.rank() == 3
    assert rho.kernel_dim() == 2
    assert obstruction_dim(tree) == 0
    assert vdim_prelog(tree) == 2 + 2 * ((0 + 1) - 3)
    assert vdim_log(tree) == 2 - 2 * 2


def test_operations_reject_invalid_tree():
    bad = LogPssTree(1, {0: frozenset({1})}, [], root=0, legs=[(0, None)], deg_x0=0)
    with pytest.raises(InputError):
        build_rho(bad)
    with pytest.raises(InputError):
        vdim_log(bad)


def test_orientation_independence():
    # flipping the stored orientation of every edge must not change any dimension
    rng = random.Random(3)
    for _ in range(40):
        tree = random_tree(rng)
        flipped_edges = [TreeEdge(e.b, e.a, e.depth, tuple(-x for x in e.contact))
                         for e in tree.edges]
        flipped = LogPssTree(tree.k, tree.vertices, flipped_edges, tree.root,
                             tree.legs, tree.deg_x0, tree.k_prime)
        assert flipped.validate() == []
        assert kernel_dim(tree) == kernel_dim(flipped)
        assert obstruction_dim(tree) == obstruction_dim(flipped)
        assert build_rho(tree).rank() == build_rho(flipped).rank()


def test_balancing_sign_obstruction():
    tree = two_vertex((-1,))
    assert balancing_feasible(tree) is None


def test_balancing_positive_contact():
    tree = two_vertex((1,))
    cert = balancing_feasible(tree)
    assert cert is not None
    assert cert.vertex_values[1] == (Fraction(1, 2),)
    assert cert.edge_scalars[(1, 0)] == Fraction(1, 2)
    assert cert.verify(tree)


def test_balancing_single_vertex_trivial():
    cert = balancing_feasible(single_vertex())
    assert cert is not None
    assert cert.verify(single_vertex())


def test_balancing_chain_feasible():
    tree = chain_tree()
    cert = balancing_feasible(tree)
    assert cert is not None
    assert cert.verify(tree)
    rho = build_rho(tree)
    image = rho.apply(cert.kernel_vector(tree, rho))
    assert all(x == 0 for x in image)


def _highs_margin(tree):
    """Max margin delta of the strict balancing system by scipy's HiGHS, None
    when it has no feasible point.

    Written from the balancing equations as BalancingCertificate.verify reads
    them, v_a[i] - v_b[i] = lambda_e * contact_e[i] for every index i, not from
    build_rho: one variable per edge scalar and per vertex depth index, each at
    least delta, summing to 1.
    """
    variables = [("edge", pos) for pos in range(len(tree.edges))]
    variables += [("vertex", v, i)
                  for v in sorted(tree.vertices) for i in sorted(tree.vertices[v])]
    if not variables:
        return math.inf  # nothing to bound: every delta is a margin
    index = {var: j for j, var in enumerate(variables)}
    n = len(variables) + 1  # the last column is delta
    a_eq = []
    for pos, e in enumerate(tree.edges):
        for i in range(1, tree.index_range + 1):
            row = [0.0] * n
            if ("vertex", e.a, i) in index:
                row[index[("vertex", e.a, i)]] += 1
            if ("vertex", e.b, i) in index:
                row[index[("vertex", e.b, i)]] -= 1
            row[pos] -= e.contact[i - 1]
            a_eq.append(row)
    a_eq.append([1.0] * (n - 1) + [0.0])
    b_eq = [0.0] * (len(a_eq) - 1) + [1.0]
    a_ub = [[-1.0 if j == var else 1.0 if j == n - 1 else 0.0 for j in range(n)]
            for var in range(n - 1)]
    res = linprog([0.0] * (n - 1) + [-1.0], A_ub=a_ub, b_ub=[0.0] * (n - 1),
                  A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_balancing_verdict_matches_highs(rng):
    tree = random_tree(rng, k_max=4, max_vertices=7)
    cert = balancing_feasible(tree)
    margin = _highs_margin(tree)
    if cert is None:
        assert margin is None or margin <= 1e-9
    else:
        assert cert.verify(tree)
        rho = build_rho(tree)
        assert all(x == 0 for x in rho.apply(cert.kernel_vector(tree, rho)))
        assert margin > 1e-9


def test_balancing_certificates_lie_in_kernel_random():
    rng = random.Random(29)
    feasible_seen = 0
    for _ in range(120):
        tree = random_tree(rng)
        cert = balancing_feasible(tree)
        if cert is None:
            continue
        feasible_seen += 1
        assert cert.verify(tree)
        rho = build_rho(tree)
        image = rho.apply(cert.kernel_vector(tree, rho))
        assert all(x == 0 for x in image)
        if tree.edges:
            assert vdim_log(tree) <= tree.deg_x0 - 2
    assert feasible_seen >= 10


def test_rank_nullity_cross_check_random():
    rng = random.Random(31)
    for _ in range(60):
        tree = random_tree(rng)
        obstruction_dim(tree)  # internally asserts both computations agree
        assert vdim_log(tree) - vdim_prelog(tree) == \
            -2 * kernel_dim(tree) - 2 * (sum(len(e.depth) - 1 for e in tree.edges)
                                         - sum(len(d) for d in tree.vertices.values()))


def test_vdim_log_at_most_prelog_random():
    rng = random.Random(47)
    for _ in range(60):
        tree = random_tree(rng)
        assert vdim_log(tree) <= vdim_prelog(tree)


def test_partition_counts():
    assert partition_count(0, 0, 0) == 1
    assert partition_count(4, 2, 2) == 6
    with pytest.raises(InputError):
        partition_count(4, 2, 1)
    with pytest.raises(InputError):
        partition_count(3, -1, 4)


def test_partition_count_brute_force():
    from itertools import combinations
    for r in range(9):
        for r0 in range(r + 1):
            r1 = r - r0
            brute = sum(1 for _ in combinations(range(r), r0))
            assert partition_count(r, r0, r1) == brute


def test_tree_json_roundtrip():
    tree = chain_tree()
    data = tree.to_json()
    back = tree_from_json(data)
    assert back.validate() == []
    assert back.vertices == tree.vertices
    assert [(e.a, e.b, e.depth, e.contact) for e in back.edges] == \
        [(e.a, e.b, e.depth, e.contact) for e in tree.edges]
    assert vdim_log(back) == vdim_log(tree)


def test_tree_json_antisymmetry_enforced():
    data = chain_tree().to_json()
    data["edges"][0]["contact"]["0->1"] = [1, 0]  # should be the negation
    with pytest.raises(InputError):
        tree_from_json(data)


def test_tree_json_missing_contact():
    data = chain_tree().to_json()
    data["edges"][0]["contact"] = {}
    with pytest.raises(InputError):
        tree_from_json(data)
