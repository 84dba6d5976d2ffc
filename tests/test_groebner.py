"""Groebner bases, normal forms, Hilbert counting, Jacobian certificates."""

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcy.errors import InputError, UnsupportedStructureError
from logcy.mirror import appendix_c_sr_presentation
from logcy.groebner import groebner_basis, hilbert_function_up_to, jacobian_smooth, reduce_modulo
from logcy.poly import Polynomial, WeightedOrder, parse_polynomial, unit_order
from logcy.rees import WeightedPresentation, presentations_ideal_equal

from helpers import buchberger_oracle, is_groebner, reduce_modulo_oracle

XY = ("x", "y")


def poly(text, names=XY):
    return parse_polynomial(text, names)


def test_principal_ideal():
    basis = groebner_basis([poly("x")], unit_order(2))
    assert [g.to_string() for g in basis] == ["x"]


def test_hand_buchberger_run():
    # S(x^2 - y, y^2 - x) = x^3 - y^3 -> (subtract x*f1) x*y - y^3
    # -> (subtract -y*f2) 0, so the generators are already a Groebner basis
    order = unit_order(2)
    basis = groebner_basis([poly("x^2 - y"), poly("y^2 - x")], order)
    assert sorted(g.to_string(order) for g in basis) == ["x^2 - y", "y^2 - x"]
    assert is_groebner(basis, order)


def test_unit_ideal():
    basis = groebner_basis([poly("x"), poly("x + 1")], unit_order(2))
    assert [g.to_string() for g in basis] == ["1"]


def test_groebner_cross_check_against_sympy():
    # independent oracle for a non-trivial basis; compare exact term dicts
    # after normalizing both sides to monic leading coefficients
    import sympy
    x, y, z = sympy.symbols("x y z")
    order = unit_order(3)
    ours = groebner_basis(
        [poly("x^2 + y*z - 2", ("x", "y", "z")),
         poly("y^2 + x*z - 3", ("x", "y", "z")),
         poly("x*y + z^2 - 1", ("x", "y", "z"))],
        order)
    theirs = sympy.groebner(
        [x**2 + y*z - 2, y**2 + x*z - 3, x*y + z**2 - 1], x, y, z, order="grlex")

    def monic_terms(term_dict):
        lead = max(term_dict, key=order.key)
        lc = term_dict[lead]
        return frozenset((exps, c / lc) for exps, c in term_dict.items())

    ours_set = {monic_terms(dict(g.terms)) for g in ours}
    theirs_set = set()
    for expr in theirs.exprs:
        raw = sympy.Poly(expr, x, y, z).as_dict()
        theirs_set.add(monic_terms(
            {tuple(int(e) for e in exps): Fraction(int(c.p), int(c.q))
             for exps, c in raw.items()}))
    assert ours_set == theirs_set


def test_groebner_traces_express_basis_in_generators():
    order = unit_order(2)
    gens = [poly("x^2 - y"), poly("x*y - 1")]
    basis, traces = groebner_basis(gens, order, with_trace=True)
    assert is_groebner(basis, order)
    for element, cof in zip(basis, traces):
        total = Polynomial.zero(XY)
        for c, g in zip(cof, gens):
            total = total + c * g
        assert total == element


def test_all_s_polynomials_reduce_for_cached_bases():
    rng = random.Random(13)
    names = ("x", "y", "z")
    monos = ["x", "y", "z", "x*y", "y*z", "x^2", "z^2", "1", "x*z"]
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = rng.sample(monos, rng.randint(1, 3))
            coeffs = [rng.choice(["1", "-1", "2", "-3", "1/2"]) for _ in terms]
            gens.append(poly(" + ".join(f"{c}*{m}" for c, m in zip(coeffs, terms)), names))
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        order = WeightedOrder([rng.choice([1, 2, Fraction(1, 2)]) for _ in names])
        basis = groebner_basis(gens, order)
        assert is_groebner(basis, order)
        # basis is auto-reduced: no term of g divisible by another leading term
        leads = [g.leading(order)[0] for g in basis]
        for i, g in enumerate(basis):
            for exps in g.terms:
                assert not any(all(l <= e for l, e in zip(lead, exps))
                               for j, lead in enumerate(leads) if j != i)


def normal_form(f, gens, order):
    return reduce_modulo(f, groebner_basis(gens, order), order)


def test_normal_form_examples():
    order = unit_order(2)
    g = poly("x^2 - y")
    assert normal_form(g, [g], order).is_zero()
    assert normal_form(poly("x^2"), [g], order) == poly("y")
    assert normal_form(poly("1"), [poly("x"), poly("x + 1")], order).is_zero()


def test_normal_form_idempotent():
    rng = random.Random(19)
    order = unit_order(2)
    gens = [poly("x^2 - y"), poly("y^3 - x*y")]
    monos = ["x", "y", "x*y", "x^2*y", "y^4", "1"]
    for _ in range(30):
        terms = rng.sample(monos, rng.randint(1, 4))
        f = poly(" + ".join(terms))
        once = normal_form(f, gens, order)
        assert normal_form(once, gens, order) == once


def test_normal_form_depends_on_the_order():
    gens = [poly("x^2 - y")]
    first = normal_form(poly("x^2"), gens, unit_order(2))
    second = normal_form(poly("x^2"), gens, WeightedOrder([1, 5]))
    assert first == poly("y")
    # under weights (1,5) the leading term of x^2 - y is y, so x^2 is reduced
    assert second == poly("x^2")


def test_hilbert_truncated_polynomial_ring():
    order = WeightedOrder([1])
    counts = hilbert_function_up_to(groebner_basis([poly("x^3", ("x",))], order), order, 4)
    assert counts == {Fraction(0): 1, Fraction(1): 1, Fraction(2): 1,
                      Fraction(3): 0, Fraction(4): 0}


def test_hilbert_coordinate_cross():
    order = unit_order(2)
    counts = hilbert_function_up_to(groebner_basis([poly("x*y")], order), order, 2)
    assert counts == {Fraction(0): 1, Fraction(1): 2, Fraction(2): 2}


def test_hilbert_invariant_under_generator_permutation_and_redundancy():
    order = unit_order(2)
    gens = [poly("x^2 - y"), poly("x*y - 1")]
    redundant_gens = gens + [gens[0] + gens[1], gens[0].mul_term((1, 1), Fraction(2))]
    base, permuted, redundant = (hilbert_function_up_to(groebner_basis(g, order), order, 5)
                                 for g in (gens, gens[::-1], redundant_gens))
    assert base == permuted == redundant


def test_hilbert_zero_ideal():
    counts = hilbert_function_up_to([], WeightedOrder([1]), 3)
    assert counts == {Fraction(n): 1 for n in range(4)}


def test_jacobian_smooth_circle():
    smooth, cert = jacobian_smooth([poly("x^2 + y^2 - 1")], 1)
    assert smooth
    assert cert.replay() == Polynomial.constant(XY, 1)


def test_jacobian_double_point_not_verified():
    smooth, cert = jacobian_smooth([poly("x^2", ("x",))], 1)
    assert not smooth
    assert cert is None


def test_jacobian_codim_mismatch_unsupported():
    with pytest.raises(UnsupportedStructureError):
        jacobian_smooth([poly("x^2 + y^2 - 1"), poly("x*y")], 1)


def test_jacobian_without_relations_is_an_input_error():
    with pytest.raises(InputError, match="at least one relation"):
        jacobian_smooth([], 0)


def test_ideals_equal():
    def ideal(*texts):
        return WeightedPresentation(XY, [1, 1], texts)

    first = ideal("x^2 - y", "y^2 - x")
    second = ideal("y^2 - x", "x^2 - y", "x^3 - x*y")
    assert presentations_ideal_equal(first, second)
    third = ideal("x - y")
    assert not presentations_ideal_equal(first, third)


def test_reduce_modulo_empty_basis():
    f = poly("x + y")
    assert reduce_modulo(f, [], unit_order(2)) == f


# -- standard systems against sympy's reduced bases ----------------------------------

CYCLIC4 = ("a", "b", "c", "d"), ["a + b + c + d", "a*b + b*c + c*d + d*a",
                                 "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"]
CYCLIC5 = ("a", "b", "c", "d", "e"), ["a + b + c + d + e",
                                      "a*b + b*c + c*d + d*e + e*a",
                                      "a*b*c + b*c*d + c*d*e + d*e*a + e*a*b",
                                      "a*b*c*d + b*c*d*e + c*d*e*a + d*e*a*b + e*a*b*c",
                                      "a*b*c*d*e - 1"]
KATSURA3 = ("u0", "u1", "u2", "u3"), ["u0 + 2*u1 + 2*u2 + 2*u3 - 1",
                                      "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
                                      "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
                                      "2*u0*u2 + u1^2 + 2*u1*u3 - u2"]


def _monic_set(term_dicts, order):
    """Basis elements as sets of (exponents, coefficient) with leading coefficient 1."""
    out = set()
    for terms in term_dicts:
        lc = terms[max(terms, key=order.key)]
        out.add(frozenset((e, c / lc) for e, c in terms.items()))
    return out


def _sympy_grlex_basis(names, texts):
    import sympy
    symbols = sympy.symbols(names)
    local = dict(zip(names, symbols))
    exprs = [sympy.sympify(text, locals=local) for text in texts]
    basis = sympy.groebner(exprs, *symbols, order="grlex")
    return [{tuple(int(e) for e in exps): Fraction(str(sympy.Rational(c)))
             for exps, c in g.as_dict().items()}
            for g in basis.polys]


@pytest.mark.parametrize("system", [CYCLIC4, KATSURA3, CYCLIC5],
                         ids=["cyclic4-Q", "katsura3-Q", "cyclic5-Q"])
def test_standard_systems_match_sympy_grlex(system):
    names, texts = system
    order = unit_order(len(names))
    ours = groebner_basis([poly(t, names) for t in texts], order)
    assert all(g.leading(order)[1] == 1 for g in ours)
    theirs = _sympy_grlex_basis(names, texts)
    assert len(ours) == len(theirs)
    assert _monic_set([g.terms for g in ours], order) == _monic_set(theirs, order)


def test_cyclic4_cofactors_replay():
    names, texts = CYCLIC4
    gens = [poly(t, names) for t in texts]
    order = unit_order(len(names))
    basis, traces = groebner_basis(gens, order, with_trace=True)
    assert basis == groebner_basis(gens, order)
    for element, cofactors in zip(basis, traces):
        assert len(cofactors) == len(gens)
        total = Polynomial.zero(names)
        for c, g in zip(cofactors, gens):
            total = total + c * g
        assert total == element


def _rational_key(weights, exps):
    """Order key with the weighted degree summed in Fractions."""
    return (sum((w * e for w, e in zip(weights, exps)), Fraction(0)), sum(exps), exps)


_weights = st.lists(st.fractions(min_value=Fraction(1, 12), max_value=50, max_denominator=12),
                    min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_order_key_sorts_like_rational_key(data):
    weights = data.draw(_weights)
    exps = st.tuples(*[st.integers(0, 6)] * len(weights))
    monomials = data.draw(st.lists(exps, min_size=2, max_size=12, unique=True))
    order = WeightedOrder(weights)
    assert (sorted(monomials, key=order.key)
            == sorted(monomials, key=lambda e: _rational_key(order.weights, e)))
    for e in monomials:
        assert Fraction(order.int_degree(e), order.scale) == _rational_key(order.weights, e)[0]


# -- the fraction-free kernel against the Fraction oracle ----------------------------

_COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


@st.composite
def rational_systems(draw):
    """(variables, order, generators, dividend): 2-4 variables, positive
    rational weights, and generators with rational coefficients."""
    nvars = draw(st.integers(2, 4))
    names = ("x", "y", "z", "w")[:nvars]
    order = WeightedOrder(draw(st.lists(
        st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6),
        min_size=nvars, max_size=nvars)))
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    terms = st.dictionaries(exps, _COEFFS, min_size=1, max_size=3)
    gens = [Polynomial(names, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]
    dividend = Polynomial(names, draw(st.dictionaries(exps, _COEFFS, max_size=5)))
    return names, order, gens, dividend


def _all_fractions(polys):
    return all(type(c) is Fraction for p in polys for c in p.terms.values())


@settings(max_examples=80, deadline=None)
@given(rational_systems())
def test_integer_kernel_matches_the_fraction_oracle(system):
    _, order, gens, dividend = system
    basis = groebner_basis(gens, order)
    assert basis == buchberger_oracle(gens, order)
    traced, cofactors = groebner_basis(gens, order, with_trace=True)
    oracle_traced, oracle_cofactors = buchberger_oracle(gens, order, with_trace=True)
    assert traced == oracle_traced == basis
    assert cofactors == oracle_cofactors
    assert _all_fractions(basis) and all(_all_fractions(c) for c in cofactors)
    # remainders are exact, not just proportional, modulo the basis and
    # modulo the raw generators, whose leading coefficients are not 1
    for divisors in (basis, gens):
        remainder = reduce_modulo(dividend, divisors, order)
        assert remainder == reduce_modulo_oracle(dividend, divisors, order)
        assert _all_fractions([remainder])


def test_hilbert_function_leaves_no_reference_cycle():
    # the monomial walk keeps its partial exponent vectors on an explicit
    # stack; a recursive closure would be a cycle, left to the next collection
    pres = appendix_c_sr_presentation()
    basis = pres.basis()
    expected = hilbert_function_up_to(basis, pres.order, 5)
    gc.collect()
    gc.disable()
    try:
        assert hilbert_function_up_to(basis, pres.order, 5) == expected
        assert gc.collect() == 0
    finally:
        gc.enable()
