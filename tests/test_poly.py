"""Polynomial arithmetic over Q, parsing, orders, and the homology field tags."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcy.errors import InputError
from logcy.fields import QQ, PrimeField, field_from_name
from logcy.poly import Polynomial, WeightedOrder, parse_polynomial, unit_order

XY = ("x", "y")


def test_parse_and_print_roundtrip():
    f = parse_polynomial("3*x^2*y - 1/2*y + 4", XY)
    assert f.terms == {(2, 1): Fraction(3), (0, 1): Fraction(-1, 2), (0, 0): Fraction(4)}
    assert f.to_string() == "3*x^2*y - 1/2*y + 4"


def test_parse_parentheses_and_unary_minus():
    f = parse_polynomial("-(x - y)^2", XY)
    g = parse_polynomial("-x^2 + 2*x*y - y^2", XY)
    assert f == g


def test_parse_errors():
    with pytest.raises(InputError):
        parse_polynomial("x + z", XY)
    with pytest.raises(InputError):
        parse_polynomial("x +", XY)
    with pytest.raises(InputError):
        parse_polynomial("x ^ y", XY)
    with pytest.raises(InputError):
        parse_polynomial("x $ y", XY)


def test_ring_axioms_spot():
    f = parse_polynomial("x^2 - y", XY)
    g = parse_polynomial("y^2 - x", XY)
    h = parse_polynomial("x*y + 1", XY)
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f - f).is_zero()


def test_power():
    f = parse_polynomial("x + y", XY)
    assert f ** 3 == parse_polynomial("x^3 + 3*x^2*y + 3*x*y^2 + y^3", XY)
    assert f ** 0 == Polynomial.constant(XY, 1)


def test_weighted_order_leading_terms():
    order = WeightedOrder([Fraction(1), Fraction(3)])
    f = parse_polynomial("x^2 + y", XY)
    exps, coeff = f.leading(order)
    assert exps == (0, 1)  # weight 3 beats weight 2
    grlex = unit_order(2)
    exps, _ = f.leading(grlex)
    assert exps == (2, 0)  # degree tie-break: higher total degree wins


def test_order_rejects_nonpositive_weights():
    with pytest.raises(InputError):
        WeightedOrder([1, 0])
    with pytest.raises(InputError):
        WeightedOrder([Fraction(-1), 1])


def test_top_weight_form():
    order = WeightedOrder([1, 1])
    f = parse_polynomial("x^2 - x", ("x",))
    assert f.top_weight_form(WeightedOrder([1])) == parse_polynomial("x^2", ("x",))
    g = parse_polynomial("x^2*y + x*y^2 - x", XY)
    assert g.top_weight_form(order) == parse_polynomial("x^2*y + x*y^2", XY)


def test_derivative():
    f = parse_polynomial("x^3*y + 2*x - 7", XY)
    assert f.derivative("x") == parse_polynomial("3*x^2*y + 2", XY)
    assert f.derivative("y") == parse_polynomial("x^3", XY)
    with pytest.raises(InputError):
        f.derivative("z")


def test_evaluate_sets_the_named_variables():
    assert parse_polynomial("u*v", ("u", "v")).evaluate({"u": 0}).is_zero()
    g = parse_polynomial("x1*x2*x3 - u - v", ("x1", "x2", "x3", "u", "v"))
    assert g.evaluate({"x1": 0, "x2": 0, "u": 0}) == parse_polynomial("-v", ("x3", "v"))
    f = parse_polynomial("x^2*y + y - 1/2", XY)
    assert f.evaluate({"x": Fraction(1, 2)}) == parse_polynomial("5/4*y - 1/2", ("y",))
    assert f.evaluate({"x": 1, "y": 2}) == Polynomial.constant((), Fraction(7, 2))
    assert f.evaluate({}) == f


def test_evaluate_keeps_the_order_of_the_remaining_variables():
    f = parse_polynomial("z*x^2 + y", ("z", "y", "x"))
    assert f.evaluate({"y": 3}) == parse_polynomial("z*x^2 + 3", ("z", "x"))


def test_evaluate_merges_and_cancels_terms():
    f = parse_polynomial("x*y - x + y^2", XY)
    assert f.evaluate({"y": 1}) == parse_polynomial("1", ("x",))
    assert parse_polynomial("x*y - x", XY).evaluate({"y": 1}).is_zero()


def test_evaluate_unknown_variable():
    with pytest.raises(InputError):
        parse_polynomial("x", XY).evaluate({"z": 1})


def _sympy_expr(f, symbols):
    import sympy
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(symbols[name]**e for name, e in zip(f.vars, exps)))
                for exps, c in f.terms.items()), sympy.Integer(0))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_evaluate_matches_sympy_subs(data):
    import sympy
    names = ("w", "x", "y", "z")[:data.draw(st.integers(2, 4))]
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(names)), coeffs,
                                      max_size=6))
    f = Polynomial(names, terms)
    values = {name: data.draw(st.just(Fraction(0))
                              | st.fractions(min_value=-4, max_value=4, max_denominator=5))
              for name in data.draw(st.lists(st.sampled_from(names), unique=True))}
    symbols = dict(zip(names, sympy.symbols(names)))
    expected = _sympy_expr(f, symbols).subs(
        {symbols[name]: sympy.Rational(v.numerator, v.denominator) for name, v in values.items()})
    image = f.evaluate(values)
    assert image.vars == tuple(name for name in names if name not in values)
    assert sympy.expand(_sympy_expr(image, symbols) - expected) == 0


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_arithmetic_results_hold_nonzero_fractions(data):
    # results skip the public constructor's checks, so they must already be
    # what it would make of them
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=5)
    f, g = (Polynomial(XY, data.draw(polys)) for _ in range(2))
    scalar = data.draw(st.integers(-3, 3) | coeffs)
    results = [f + g, f - g, -f, f * g, f ** 2, f.scale(scalar),
               f.mul_term((1, 2), scalar), f.derivative("x"), f.evaluate({"y": scalar})]
    if f:
        results.append(f.top_weight_form(WeightedOrder([1, 2])))
    for result in results:
        assert all(type(c) is Fraction and c for c in result.terms.values())
        assert result == Polynomial(result.vars, result.terms)


def test_mul_term_checks_its_term():
    f = parse_polynomial("x*y", XY)
    with pytest.raises(InputError):
        f.mul_term((-1, 0), 1)
    with pytest.raises(InputError):
        f.mul_term((1,), 1)


def test_prime_field_arithmetic():
    with pytest.raises(InputError):
        PrimeField(6)


def test_field_from_name():
    assert field_from_name("Q") is QQ
    assert field_from_name("F7").p == 7
    with pytest.raises(InputError):
        field_from_name("R")


def test_exponent_validation():
    with pytest.raises(InputError):
        Polynomial(XY, {(-1, 0): Fraction(1)})
    with pytest.raises(InputError):
        Polynomial(XY, {(1,): Fraction(1)})


def test_zero_polynomial_has_no_leading_term():
    zero = Polynomial.zero(XY)
    with pytest.raises(InputError):
        zero.leading(unit_order(2))
    assert zero.total_degree() == -1
