"""Exact homology, local homology, and the Gorenstein criterion."""

import gc
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logcy import homology
from logcy.complexes import SimplicialComplex
from logcy.errors import InputError
from logcy.exactlin import pivot_columns, rank_int_bareiss
from logcy.fields import PrimeField, QQ
from logcy.homology import (_sphere_failures, gorenstein_verdict, local_homology_at_face,
                            reduced_homology)

from helpers import (boundary_matrix, complex_shapes, cross_polytope_boundary, empty_face_only,
                     euler_characteristic, full_simplex, gorenstein_oracle, link_oracle,
                     random_downward_closed, reduced_homology_oracle, relabelled_shapes,
                     smith_diagonal, sphere_boundary)

# the 6-vertex real projective plane: b~_1 = b~_2 = 1 over F2, acyclic over Q
RP2 = SimplicialComplex.from_facets([[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 6, 2],
                                     [2, 3, 5], [3, 4, 6], [4, 5, 2], [5, 6, 3], [6, 2, 4]])


def _is_sphere(cx):
    """The reduced homology of a dim(cx)-sphere, with no witness against it."""
    return not _sphere_failures(reduced_homology(cx), cx.dim())


def test_three_cycle_homology():
    # boundary ranks by hand: rank d0 = 1, rank d1 = 2
    table = reduced_homology(sphere_boundary(1))
    assert table.offset == -1
    assert table.ranks == (0, 0, 1)


def test_full_simplex_contractible():
    table = reduced_homology(full_simplex(3))
    assert table.ranks == (0, 0, 0, 0)


def test_two_point_homology():
    # 2 vertices, 0 edges: a single reduced class in degree 0
    table = reduced_homology(sphere_boundary(0))
    assert table.rank(0) == 1
    assert table.rank(-1) == 0


def test_empty_face_only_is_minus_one_sphere():
    table = reduced_homology(empty_face_only())
    assert table.ranks == (1,)


def test_void_complex_rejected():
    with pytest.raises(InputError):
        reduced_homology(SimplicialComplex.from_facets([]))


def test_homology_over_prime_field():
    table = reduced_homology(sphere_boundary(2), PrimeField(5))
    assert table.ranks == (0, 0, 0, 1)


def test_local_homology_vertex_of_cycle():
    cycle = sphere_boundary(1)
    table = local_homology_at_face(cycle, [1])
    assert table.rank(1) == 1
    assert table.rank(0) == 0


def test_local_homology_facet_convention():
    cx = SimplicialComplex.from_facets([[1, 2, 3]])
    table = local_homology_at_face(cx, [1, 2, 3])
    assert table.rank(2) == 1
    assert all(table.rank(d) == 0 for d in table.degrees() if d != 2)


def test_local_homology_path_endpoint():
    path = SimplicialComplex.from_facets([[1, 2], [2, 3]])
    table = local_homology_at_face(path, [1])
    assert table.rank(1) == 0


def test_local_homology_requires_nonempty_face():
    cx = full_simplex(2)
    with pytest.raises(InputError):
        local_homology_at_face(cx, [])
    with pytest.raises(InputError):
        local_homology_at_face(cx, [5])


def test_gorenstein_sphere_boundaries():
    # all links of simplex boundaries are simplex boundaries; the quotient is
    # the hypersurface ring k[x_1..x_{d+2}]/(x_1...x_{d+2})
    for d in range(1, 5):
        report = gorenstein_verdict(sphere_boundary(d))
        assert report.verdict, (d, report.failures)


def test_gorenstein_s0():
    report = gorenstein_verdict(sphere_boundary(0))
    assert report.verdict


def test_gorenstein_full_simplex_fails_globally():
    report = gorenstein_verdict(full_simplex(3))
    assert not report.verdict
    assert any(exp == "b~_2 = 1" for _, exp, _ in report.failures)


def test_gorenstein_cone_core_shrinks():
    cone = SimplicialComplex.from_facets([[1, 2], [1, 3]])
    report = gorenstein_verdict(cone)
    assert not report.verdict
    assert not report.core_equals_whole


def test_gorenstein_path_fails():
    path = SimplicialComplex.from_facets([[1, 2], [2, 3]])
    report = gorenstein_verdict(path)
    assert not report.verdict


def test_octahedron_sphere_and_manifold():
    octa = cross_polytope_boundary(3)
    assert _is_sphere(octa)
    report = gorenstein_verdict(octa)
    assert not report.failures and report.verdict


def test_two_triangles_glued_along_edge():
    cx = SimplicialComplex.from_facets([[1, 2, 3], [1, 2, 4]])
    # links of the shared edge's endpoints are paths, not circles
    failing_faces = {face for face, _, _ in gorenstein_verdict(cx).failures}
    assert frozenset((1,)) in failing_faces
    assert frozenset((2,)) in failing_faces
    # the shared edge itself has a two-point link and passes
    assert frozenset((1, 2)) not in failing_faces


def test_single_edge_sphere_fails():
    edge = SimplicialComplex.from_facets([[1, 2]])
    assert not _is_sphere(edge)


def test_simplex_boundary_links_pass_sphere_test_exhaustive():
    for d in range(1, 5):
        cx = sphere_boundary(d)
        for face in cx.faces:
            if not face:
                continue
            link = cx.link(face)
            assert _is_sphere(link) or link.dim() == -1
            if link.dim() == -1:
                assert len(face) - 1 == d


def test_euler_characteristic_matches_betti():
    rng = random.Random(3)
    samples = [sphere_boundary(d) for d in range(0, 4)]
    samples += [cross_polytope_boundary(2), cross_polytope_boundary(3)]
    for _ in range(15):
        samples.append(SimplicialComplex.from_facets(random_downward_closed(rng, 5)))
    for cx in samples:
        if cx.dim() < 0:
            continue
        for coeff_field in (QQ, PrimeField(2), PrimeField(7)):
            table = reduced_homology(cx, coeff_field)
            euler_from_betti = sum((-1) ** d * table.rank(d)
                                   for d in table.degrees() if d >= 0)
            # reduced homology: chi = 1 + sum (-1)^d b~_d for nonempty complexes
            assert euler_characteristic(cx) == euler_from_betti + (1 - table.rank(-1))


def test_rational_ranks_match_smith_form():
    rng = random.Random(41)
    samples = [sphere_boundary(2), cross_polytope_boundary(3)]
    for _ in range(10):
        samples.append(SimplicialComplex.from_facets(random_downward_closed(rng, 6)))
    for cx in samples:
        if cx.dim() < 0:
            continue
        smith_rank = {}  # degree j -> nonzero Smith entries of the degree-j boundary
        for j in range(0, cx.dim() + 1):
            matrix = boundary_matrix(cx, j)
            if not matrix or not matrix[0]:
                continue
            diag = smith_diagonal(matrix)
            smith_rank[j] = len(diag)
            # rank over Q equals the number of nonzero Smith entries
            from logcy.exactlin import rank_int_bareiss
            assert rank_int_bareiss(matrix) == len(diag)
            # ranks over F_p agree for primes dividing no elementary divisor
            for p in (2, 3, 5, 7, 11):
                if all(d % p != 0 for d in diag):
                    from logcy.exactlin import rank_mod_p
                    assert rank_mod_p(matrix, p) == len(diag)
        q_table = reduced_homology(cx, QQ)
        assert list(q_table.degrees()) == list(range(-1, cx.dim() + 1))
        for j in q_table.degrees():
            n_j = len(cx.faces_of_dim(j))
            assert q_table.rank(j) == n_j - smith_rank.get(j, 0) - smith_rank.get(j + 1, 0)


def test_homology_field_independence_spot_check():
    rng = random.Random(59)
    for _ in range(8):
        cx = SimplicialComplex.from_facets(random_downward_closed(rng, 6))
        if cx.dim() < 0:
            continue
        divisors = set()
        for j in range(0, cx.dim() + 2):
            divisors.update(smith_diagonal(boundary_matrix(cx, j)))
        q_table = reduced_homology(cx, QQ)
        for p in (2, 3, 5, 7, 11, 13):
            if any(d % p == 0 for d in divisors):
                continue
            p_table = reduced_homology(cx, PrimeField(p))
            assert p_table.ranks == q_table.ranks


@settings(max_examples=300, deadline=None)
@given(complex_shapes(), st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
@example(empty_face_only(), QQ)
@example(full_simplex(4), PrimeField(2))
@example(RP2, QQ)
@example(RP2, PrimeField(2))
def test_clearing_matches_the_all_rows_oracle(cx, coeff_field):
    assert reduced_homology(cx, coeff_field) == reduced_homology_oracle(cx, coeff_field)


def test_clearing_hands_the_kernel_only_rows_it_cannot_skip(monkeypatch):
    handed = []

    def counting_pivot_columns(rows, field):
        rows = list(rows)
        handed.append(len(rows))
        return pivot_columns(rows, field)

    monkeypatch.setattr(homology, "pivot_columns", counting_pivot_columns)
    # S^3: 31 faces, ranks 1 + 4 + 6 + 4, so 16 rows (30 without clearing);
    # octahedron: 27 faces, ranks 1 + 5 + 7, so 14 rows (26 without)
    for cx, rows in ((sphere_boundary(3), 16), (cross_polytope_boundary(3), 14)):
        handed.clear()
        reduced_homology(cx)
        ranks = sum(rank_int_bareiss(boundary_matrix(cx, j)) for j in range(cx.dim() + 1))
        assert sum(handed) == len(cx.faces) - ranks == rows


def _shape(cx):
    """The faces of cx with its vertices renamed 0, 1, ... in their order."""
    index = {v: i for i, v in enumerate(sorted(frozenset().union(*cx.faces)))}
    return frozenset(frozenset(index[v] for v in face) for face in cx.faces)


def test_the_gorenstein_sweep_builds_its_links_from_masks(monkeypatch):
    # the verdict builds no complex from labels, and eliminates each shape of
    # link once, the whole complex (the link of the empty face) included: two
    # links are one shape when an order-preserving renaming of vertices maps
    # one onto the other.  A link with n faces and boundary ranks summing to r
    # hands n - r rows to the kernel (clearing), and a facet's link, the empty
    # face alone, hands none.  The link at each vertex of a shape is built once:
    # the shapes of the boundary of the 7-simplex are the boundaries of the
    # simplices on 8, 7, ..., 2 vertices, so 8 + 7 + ... + 2 = 35 links serve
    # its 254 nonempty faces; the cross-polytope's 242 take 30
    built, eliminated, handed, links = [], [], [], []
    from_facets = SimplicialComplex.from_facets.__func__
    build_link = SimplicialComplex.link

    def counting_from_facets(cls, facets):
        built.append(facets)
        return from_facets(cls, facets)

    def counting_link(self, face):
        links.append(face)
        return build_link(self, face)

    def counting_reduced_homology(cx, coeff_field):
        eliminated.append(_shape(cx))
        return reduced_homology(cx, coeff_field)

    def counting_pivot_columns(rows, field):
        rows = list(rows)
        handed.append(len(rows))
        return pivot_columns(rows, field)

    for cx, rows, built_links in ((sphere_boundary(6), 254, 35),
                                  (cross_polytope_boundary(5), 184, 30)):
        shapes = {}
        for face in cx.faces:
            link = link_oracle(cx, face)
            shapes.setdefault(_shape(link), link)
        needed = sum(len(link.faces) - sum(rank_int_bareiss(boundary_matrix(link, j))
                                           for j in range(link.dim() + 1))
                     for link in shapes.values() if link.dim() >= 0)
        for log in (built, eliminated, handed, links):
            log.clear()
        with monkeypatch.context() as patch:
            patch.setattr(SimplicialComplex, "from_facets", classmethod(counting_from_facets))
            patch.setattr(SimplicialComplex, "link", counting_link)
            patch.setattr(homology, "reduced_homology", counting_reduced_homology)
            patch.setattr(homology, "pivot_columns", counting_pivot_columns)
            assert gorenstein_verdict(cx).verdict
        assert built == []
        assert len(eliminated) == len(shapes) and set(eliminated) == shapes.keys()
        assert sum(handed) == needed == rows
        assert len(links) == built_links


def test_the_verdict_leaves_no_reference_cycle():
    # the shape memo holds the masks and table of every link shape; a cycle
    # would keep it alive after the verdict, until the next garbage collection
    cx = sphere_boundary(6)
    gc.collect()
    gc.disable()
    try:
        assert gorenstein_verdict(cx).verdict
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_verdict_frees_its_memos_when_it_returns():
    # besides the shape memo, a verdict keeps every link it built and every
    # sphere test it ran until it returns (near FACE_LIMIT, megabytes); on a
    # random complex whose links take many shapes and whose faces fail, the
    # memos must go by reference counting alone
    rng = random.Random(5)
    cx = SimplicialComplex.from_facets(rng.sample(range(12), 4) for _ in range(40))
    gc.collect()
    gc.disable()
    try:
        report = gorenstein_verdict(cx)
        assert not report.verdict and len(report.failures) > 100
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=100, deadline=None)
@given(relabelled_shapes(), st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
@example(SimplicialComplex.from_facets(combinations([-7, 0, 5, 2 ** 40], 3)), QQ)
@example(SimplicialComplex.from_facets([[-7, 0], [0, 2 ** 40]]), PrimeField(3))
@example(RP2, PrimeField(2))
@example(empty_face_only(), QQ)
def test_gorenstein_verdict_matches_the_oracle(cx, coeff_field):
    assert gorenstein_verdict(cx, coeff_field).to_json() == gorenstein_oracle(cx, coeff_field)


@settings(max_examples=100, deadline=None)
@given(relabelled_shapes(), st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
@example(SimplicialComplex.from_facets([[-2 ** 45, -7, 0], [-7, 0, 2 ** 45], [0, 2 ** 45, 5]]),
         PrimeField(2))
@example(RP2, PrimeField(2))
def test_the_sweep_and_its_links_match_the_oracles(cx, coeff_field):
    # a table is right whether the sweep eliminated its link or reused the table
    # of an earlier link of the same shape; a link is on its own vertices.  The
    # sweep starts at the empty face, whose link is the whole complex
    tables = homology._link_tables(cx, coeff_field)
    assert sorted(tables) == sorted(tuple(sorted(face)) for face in cx.faces)
    for face in cx.faces:
        expected = link_oracle(cx, face)
        assert tables[tuple(sorted(face))] == reduced_homology_oracle(expected, coeff_field)
        link = cx.link(face)
        assert link.vertices == tuple(sorted(frozenset().union(*expected.faces)))
        assert link.faces == expected.faces
