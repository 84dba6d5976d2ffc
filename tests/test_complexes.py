"""Simplicial complex structure: links, cores, minimal nonfaces."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logcy.complexes import SimplicialComplex, complex_from_json
from logcy.errors import InputError
from logcy.rees import WeightedPresentation
from logcy.sr_algebra import sr_presentation, stanley_reisner_complex

from helpers import (core_oracle, cross_polytope_boundary, empty_face_only, euler_characteristic,
                     facets_oracle, full_simplex, link_oracle, minimal_nonfaces_oracle,
                     random_downward_closed, relabelled_shapes, sphere_boundary, star)


def test_from_facets_downward_closure():
    cx = SimplicialComplex.from_facets([[1, 2, 3]])
    assert frozenset([1, 2]) in cx.faces
    assert frozenset([3]) in cx.faces
    assert frozenset() in cx.faces
    assert len(cx.faces) == 8


def test_void_versus_empty_face():
    void = SimplicialComplex.from_facets([])
    empty = empty_face_only()
    assert void.is_void
    assert not empty.is_void
    assert empty.dim() == -1
    with pytest.raises(InputError):
        void.dim()


def test_sphere_boundary_shapes():
    cycle = sphere_boundary(1)
    assert cycle.dim() == 1
    assert len(cycle.faces_of_dim(1)) == 3
    s0 = sphere_boundary(0)
    assert sorted(sorted(f) for f in s0.facets()) == [[1], [2]]


def test_link_of_vertex_in_cycle_is_two_points():
    cycle = sphere_boundary(1)
    link = cycle.link([1])
    assert sorted(sorted(f) for f in link.facets()) == [[2], [3]]


def test_link_of_empty_face_is_whole_complex():
    cx = SimplicialComplex.from_facets([[1, 2], [2, 3]])
    assert cx.link([]) == cx


def test_link_rejects_non_face():
    cx = SimplicialComplex.from_facets([[1, 2], [2, 3]])
    with pytest.raises(InputError):
        cx.link([1, 3])


def test_star_of_apex_is_whole_cone():
    cone = SimplicialComplex.from_facets([[1, 2], [1, 3]])
    assert star(cone, [1]) == cone
    assert star(cone, [2]).faces == SimplicialComplex.from_facets([[1, 2]]).faces


def test_core_of_cone_drops_apex():
    cone = SimplicialComplex.from_facets([[1, 2], [1, 3]])
    core = cone.core()
    assert 1 not in core.vertices
    assert sorted(sorted(f) for f in core.facets()) == [[2], [3]]


def test_core_idempotent_on_samples():
    rng = random.Random(7)
    samples = [sphere_boundary(1), sphere_boundary(2), full_simplex(3),
               SimplicialComplex.from_facets([[1, 2], [1, 3]]),
               cross_polytope_boundary(2)]
    for _ in range(20):
        faces = random_downward_closed(rng, 5)
        samples.append(SimplicialComplex.from_facets(faces))
    for cx in samples:
        core = cx.core()
        assert core.core() == core


def test_link_composition():
    # link_cx(F u G) = link_{link_cx(F)}(G) for disjoint faces
    rng = random.Random(11)
    samples = [sphere_boundary(2), sphere_boundary(3), cross_polytope_boundary(3)]
    for _ in range(15):
        samples.append(SimplicialComplex.from_facets(random_downward_closed(rng, 6)))
    for cx in samples:
        for face in sorted(cx.faces, key=lambda f: (len(f), sorted(f))):
            if len(face) < 2:
                continue
            face = sorted(face)
            first, rest = frozenset(face[:1]), frozenset(face[1:])
            assert cx.link(first | rest) == cx.link(first).link(rest)


def test_euler_characteristic():
    assert euler_characteristic(sphere_boundary(1)) == 0
    assert euler_characteristic(sphere_boundary(2)) == 2
    assert euler_characteristic(full_simplex(3)) == 1


def test_cross_polytope_is_octahedron():
    octa = cross_polytope_boundary(3)
    assert octa.dim() == 2
    assert len(octa.faces_of_dim(0)) == 6
    assert len(octa.faces_of_dim(1)) == 12
    assert len(octa.faces_of_dim(2)) == 8


def test_complex_from_json_errors():
    with pytest.raises(InputError):
        complex_from_json({"wrong": []})
    with pytest.raises(InputError):
        complex_from_json({"facets": [[1, "a"]]})
    cx = complex_from_json({"facets": [[1, 2]]})
    assert frozenset([1, 2]) in cx.faces


@st.composite
def complexes(draw):
    """Nonvoid complexes on at most 8 vertices drawn from 0..20."""
    pool = sorted(draw(st.sets(st.integers(0, 20), max_size=8)))
    facet = st.sets(st.sampled_from(pool)) if pool else st.just(set())
    return SimplicialComplex.from_facets(draw(st.lists(facet, min_size=1, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(complexes())
@example(empty_face_only())
@example(full_simplex(8))
@example(sphere_boundary(3))
@example(SimplicialComplex.from_facets([[1, 2], [1, 3]]))
def test_operations_match_the_subset_oracles(cx):
    assert cx.facets() == facets_oracle(cx)
    assert cx.core() == core_oracle(cx)
    assert cx.minimal_nonfaces() == minimal_nonfaces_oracle(cx)
    for face in cx.faces:
        assert cx.link(face) == link_oracle(cx, face)
    # vertex i of the rebuilt complex is the presentation's i-th variable
    rebuilt = stanley_reisner_complex(sr_presentation(cx))
    assert SimplicialComplex.from_facets(frozenset(cx.vertices[i - 1] for i in f)
                                         for f in rebuilt.faces) == cx


@settings(max_examples=60, deadline=None)
@given(relabelled_shapes())
@example(SimplicialComplex.from_facets([[-7, 0, 2 ** 40], [0, 5]]))
def test_links_of_links_and_their_equality_match_the_oracles(cx):
    # a link is on its own vertices, as a complex built from the same faces
    # is: the two have the same vertices and masks, so are equal and hash alike
    for face in cx.faces:
        link, expected = cx.link(face), link_oracle(cx, face)
        rebuilt = SimplicialComplex.from_facets(facets_oracle(expected))
        assert link == expected and link == rebuilt and hash(link) == hash(rebuilt)
        assert link.vertices == rebuilt.vertices
        for inner in link.faces:
            assert link.link(inner) == link_oracle(expected, inner)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(0, 7)), max_size=8).flatmap(
    lambda facets: st.tuples(st.just(facets), st.permutations(facets))))
@example(([set(), {1}, {2}, {1, 2}], [{1, 2}, {2}, {1}, set()]))
@example(([{1}, {1, 2}, {2, 3}, {1, 2, 3}], [{1, 2, 3}, {2, 3}, {1}, {1, 2}]))
def test_a_complex_does_not_depend_on_the_order_of_its_facets(facets_and_shuffled):
    facets, shuffled = facets_and_shuffled
    cx = SimplicialComplex.from_facets(facets)
    assert SimplicialComplex.from_facets(shuffled) == cx
    assert cx.faces == {frozenset(face) for facet in facets
                        for n in range(len(facet) + 1) for face in combinations(facet, n)}


def test_stanley_reisner_complex_needs_squarefree_monomials():
    names, weights = ("x1", "x2"), [1, 1]
    assert stanley_reisner_complex(WeightedPresentation(names, weights, ["x1^2"])) is None
    assert stanley_reisner_complex(WeightedPresentation(names, weights, ["x1*x2 - x1"])) is None
    assert stanley_reisner_complex(WeightedPresentation(names, weights, ["x1*x2"])) == \
        SimplicialComplex.from_facets([[1], [2]])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(1, 5)), max_size=5))
@example([set()])
@example([{1}, {1, 2}, {2, 3}])
def test_stanley_reisner_complex_of_squarefree_monomials_matches_the_subset_oracle(supports):
    # the faces are the subsets of the variables that no relation divides; a
    # variable that a relation divides is no vertex, and a constant relation
    # divides every subset and leaves the void complex, on no vertices
    names = tuple(f"x{i}" for i in range(1, 6))
    relations = ["*".join(f"x{i}" for i in sorted(s)) or "1" for s in supports]
    faces = [f for n in range(6) for f in combinations(range(1, 6), n)
             if not any(s <= set(f) for s in supports)]
    pres = WeightedPresentation(names, [1] * 5, relations)
    assert stanley_reisner_complex(pres) == SimplicialComplex.from_facets(faces)
