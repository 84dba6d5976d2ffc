"""Filtered presentations, associated graded rings, Rees families and fibers."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import substitute
from logcy.errors import InputError
from logcy.groebner import groebner_basis, reduce_modulo
from logcy.poly import Polynomial, WeightedOrder, parse_polynomial
from logcy.rees import (WeightedPresentation, associated_graded, fiber_at,
                        presentation_from_json, presentations_ideal_equal, rees_algebra)


def pres(variables, weights, relations):
    return WeightedPresentation(variables, weights, relations)


def test_weights_must_be_positive():
    with pytest.raises(InputError):
        pres(("x",), [0], ["x"])
    with pytest.raises(InputError):
        pres(("x",), [-1], ["x"])


def test_zero_relation_rejected():
    with pytest.raises(InputError):
        pres(("x",), [1], ["x - x"])


def test_associated_graded_single_relation():
    graded = associated_graded(pres(("x",), [1], ["x^2 - x"]))
    assert [r.to_string() for r in graded.relations] == ["x^2"]


def test_associated_graded_fixes_homogeneous():
    target = pres(("x", "y"), [1, 2], ["x^2 - y", "x^4 - y^2"])
    graded = associated_graded(target)
    # x^2 - y is already weight-homogeneous (weights 2 = 2); the redundant
    # generator drops out of the reduced basis
    assert [r.to_string(graded.order) for r in graded.relations] == ["x^2 - y"]
    again = associated_graded(graded)
    assert [r.terms for r in again.relations] == [r.terms for r in graded.relations]


def test_associated_graded_needs_basis_not_raw_generators():
    # top forms of the raw generators give (x^2, x^2 + y^3): y^3 appears only
    # after a reduction step, which the Groebner basis performs
    p = pres(("x", "y"), [1, 1], ["x^2 - y", "x^2 + y^3 - y"])
    graded = associated_graded(p)
    y_cubed = parse_polynomial("y^3", p.vars)
    assert reduce_modulo(y_cubed, graded.basis(), graded.order).is_zero()


def test_gr_idempotent_random():
    rng = random.Random(101)
    texts = ["x^2 - x", "x*y - y", "y^3 - x", "x^2*y - x - y", "x^3 - y^2"]
    for _ in range(15):
        chosen = rng.sample(texts, rng.randint(1, 2))
        weights = [rng.choice([1, 2, Fraction(1, 2)]) for _ in range(2)]
        p = pres(("x", "y"), weights, chosen)
        try:
            graded = associated_graded(p)
        except InputError:
            continue  # unit ideal draw
        again = associated_graded(graded)
        assert presentations_ideal_equal(graded, again)


def test_rees_single_relation():
    p = pres(("x",), [1], ["x^2 - x"])
    family = rees_algebra(p)
    assert family.vars == ("t", "x")
    expected = parse_polynomial("x^2 - t*x", ("t", "x"))
    assert [r.terms for r in family.relations] == [expected.terms]
    assert p.order.scale == 1


def test_rees_homogeneous_input_keeps_relations():
    family = rees_algebra(pres(("x", "y"), [1, 2], ["x^2 - y"]))
    rel = family.relations[0]
    # t does not occur
    assert all(exps[0] == 0 for exps in rel.terms)


def test_rees_relations_are_weight_homogeneous():
    family = rees_algebra(pres(("x", "y"), [1, 2], ["x^2 - y", "y^2 - x"]))
    order = family.order
    for rel in family.relations:
        degrees = {Fraction(order.int_degree(e), order.scale) for e in rel.terms}
        assert len(degrees) == 1


def test_rees_rational_weights_rescaled():
    p = pres(("x", "y"), [Fraction(1, 2), Fraction(1, 3)], ["x^2 - y"])
    family = rees_algebra(p)
    assert p.order.scale == 6
    assert family.weights == (Fraction(1), Fraction(3), Fraction(2))
    fiber = fiber_at(p, 1)
    assert fiber.weights == (Fraction(1, 2), Fraction(1, 3))


def test_rees_name_collision():
    with pytest.raises(InputError):
        rees_algebra(pres(("t", "x"), [1, 1], ["x^2 - t"]))


def test_fiber_examples():
    original = pres(("x",), [1], ["x^2 - x"])
    special = fiber_at(original, 0)
    assert [r.to_string() for r in special.relations] == ["x^2"]
    generic = fiber_at(original, 1)
    assert presentations_ideal_equal(generic, original)
    other = fiber_at(original, 2)
    assert other.hilbert_up_to(6) == generic.hilbert_up_to(6)


def test_special_fiber_equals_gr_random():
    rng = random.Random(7)
    texts = ["x^2 - x", "x*y - y", "y^3 - x", "x^2*y - x - y", "x^3 - y^2",
             "x*y^2 - x^2", "y - x"]
    checked = 0
    while checked < 12:
        chosen = rng.sample(texts, rng.randint(1, 2))
        weights = [rng.choice([1, 2, 3]) for _ in range(2)]
        p = pres(("x", "y"), weights, chosen)
        try:
            graded = associated_graded(p)
            special = fiber_at(p, 0)
        except InputError:
            continue
        assert presentations_ideal_equal(special, graded)
        assert special.hilbert_up_to(6) == fiber_at(p, 1).hilbert_up_to(6)
        checked += 1


WEIGHTS = st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(3, 2)])


@st.composite
def relation_lists(draw, nvars, size):
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    coeffs = st.integers(-3, 3).filter(bool)
    return draw(st.lists(st.dictionaries(exps, coeffs, min_size=1, max_size=3),
                         min_size=1, max_size=size))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fibers_are_the_substitution_the_ring_and_its_graded_ring(data):
    nvars = data.draw(st.integers(2, 3))
    names = ("x", "y", "z")[:nvars]
    weights = data.draw(st.lists(st.fractions(min_value=Fraction(1, 6), max_value=3,
                                              max_denominator=6),
                                 min_size=nvars, max_size=nvars))
    p = pres(names, weights, [Polynomial(names, t) for t in data.draw(relation_lists(nvars, 3))])
    try:
        family = rees_algebra(p)
    except InputError:  # the unit ideal
        assume(False)
    value = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    t_image = {"t": Polynomial.constant(names, value)}
    fiber = fiber_at(p, value)
    assert fiber.weights == p.weights
    assert fiber.relations == tuple(substitute(rel, t_image, names)
                                    for rel in family.relations)
    assert fiber_at(p, 1).relations == tuple(p.basis())
    assert fiber_at(p, 0).relations == associated_graded(p).relations


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_graded_presentation_keeps_the_reduced_basis_of_its_relations(data):
    nvars = data.draw(st.integers(2, 3))
    names = ("x", "y", "z")[:nvars]
    weights = data.draw(st.lists(st.fractions(min_value=Fraction(1, 6), max_value=3,
                                              max_denominator=6),
                                 min_size=nvars, max_size=nvars))
    p = pres(names, weights, [Polynomial(names, t) for t in data.draw(relation_lists(nvars, 3))])
    try:
        graded = associated_graded(p)
    except InputError:  # the unit ideal
        assume(False)
    assert groebner_basis(graded.relations, graded.order) == graded.basis()


def test_to_json_and_hilbert_reuse_the_presentation_order(monkeypatch):
    p = pres(("x", "y"), [1, Fraction(1, 2)], ["x^2 - y", "x*y - 1"])
    p.basis()
    built = []
    init = WeightedOrder.__init__

    def counting_init(order, weights):
        built.append(weights)
        init(order, weights)

    monkeypatch.setattr(WeightedOrder, "__init__", counting_init)
    p.to_json()
    p.hilbert_up_to(4)
    assert built == []


def _sympy_grlex(names, relations):
    import sympy
    symbols = sympy.symbols(names)
    exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                 * sympy.Mul(*(s**e for s, e in zip(symbols, exps)))
                 for exps, c in rel.terms.items())
             for rel in relations]
    return set(sympy.groebner(exprs, *symbols, order="grlex").exprs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_presentations_ideal_equal_matches_sympy_across_orders(data):
    nvars = data.draw(st.integers(2, 3))
    names = ("x", "y", "z")[:nvars]
    first = [Polynomial(names, t) for t in data.draw(relation_lists(nvars, 2))]
    if data.draw(st.booleans()):
        # the same ideal: the relations reversed, plus a combination of them
        shift = data.draw(st.tuples(*[st.integers(0, 1)] * nvars))
        scale = Polynomial.constant(names, data.draw(st.integers(-2, 2)))
        combination = first[0].mul_term(shift, Fraction(1)) + first[-1] * scale
        second = first[::-1] + ([] if combination.is_zero() else [combination])
    else:
        second = [Polynomial(names, t) for t in data.draw(relation_lists(nvars, 2))]
    one = pres(names, data.draw(st.lists(WEIGHTS, min_size=nvars, max_size=nvars)), first)
    other = pres(names, data.draw(st.lists(WEIGHTS, min_size=nvars, max_size=nvars)), second)
    expected = _sympy_grlex(names, first) == _sympy_grlex(names, second)
    assert presentations_ideal_equal(one, other) == expected
    assert presentations_ideal_equal(other, one) == expected


def test_unit_weight_zero_piece_is_one_dimensional():
    rng = random.Random(77)
    texts = ["x^2 - x", "x*y - y", "y^3 - x", "x^3 - y^2"]
    for _ in range(10):
        chosen = rng.sample(texts, rng.randint(1, 2))
        p = pres(("x", "y"), [1, 1], chosen)
        for value in (0, 1, 3):
            fiber = fiber_at(p, value)
            assert fiber.hilbert_up_to(0) == {Fraction(0): 1}


def test_unit_ideal_rejected():
    p = pres(("x",), [1], ["x", "x - 1"])
    with pytest.raises(InputError):
        associated_graded(p)
    with pytest.raises(InputError):
        rees_algebra(p)


def test_presentation_json_roundtrip():
    p = pres(("x", "y"), [1, Fraction(3, 2)], ["x^2 - y", "x*y - 1"])
    data = p.to_json()
    back = presentation_from_json(data)
    assert back.vars == p.vars
    assert back.weights == p.weights
    assert [r.terms for r in back.relations] == [r.terms for r in p.relations]
    with pytest.raises(InputError):
        presentation_from_json({"vars": ["x"]})
