"""Theta-basis ring: products, truncation, presentations, graded counts."""

import gc
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcy import sr_algebra
from logcy.complexes import SimplicialComplex
from logcy.errors import InputError
from logcy.groebner import reduce_modulo
from logcy.mirror import appendix_c_configuration
from logcy.poly import Polynomial
from logcy.rees import WeightedPresentation
from logcy.sr_algebra import (ThetaBasisElement, ThetaElement, graded_dimension,
                              multiply, multiply_basis, parse_theta_expression,
                              sr_presentation, stanley_reisner_complex, unit_element)
from logcy.stratum import DivisorConfiguration

from helpers import (basis_elements, full_simplex, graded_dimension_oracle, random_configuration,
                     sphere_boundary)


@pytest.fixture(scope="module")
def appc():
    return appendix_c_configuration()


def test_pairwise_product_connected(appc):
    x1 = ThetaBasisElement(appc, (1, 0, 0), 0)
    x2 = ThetaBasisElement(appc, (0, 1, 0), 0)
    result = multiply_basis(appc, x1, x2)
    assert result == ThetaElement.basis(ThetaBasisElement(appc, (1, 1, 0), 0))


def test_unit_element(appc):
    unit = unit_element(appc)
    for vec, comp in [((1, 0, 0), 0), ((1, 1, 1), 1), ((1, 1, 1), 2)]:
        elem = ThetaElement.basis(ThetaBasisElement(appc, vec, comp))
        assert multiply(appc, unit, elem) == elem
        assert multiply(appc, elem, unit) == elem


def test_triple_product_splits_into_two_components(appc):
    x12 = ThetaBasisElement(appc, (1, 1, 0), 0)
    x3 = ThetaBasisElement(appc, (0, 0, 1), 0)
    result = multiply_basis(appc, x12, x3)
    expected = (ThetaElement.basis(ThetaBasisElement(appc, (1, 1, 1), 1))
                + ThetaElement.basis(ThetaBasisElement(appc, (1, 1, 1), 2)))
    assert result == expected


def test_deep_components_multiply_to_zero(appc):
    u = ThetaBasisElement(appc, (1, 1, 1), 1)
    v = ThetaBasisElement(appc, (1, 1, 1), 2)
    assert multiply_basis(appc, u, v).is_zero()
    # squares survive on the diagonal component
    uu = multiply_basis(appc, u, u)
    assert uu == ThetaElement.basis(ThetaBasisElement(appc, (2, 2, 2), 1))


def test_product_outside_basis_truncates_to_zero():
    config = DivisorConfiguration(
        2, [1, 1], [Fraction(1), Fraction(1, 2)],
        {frozenset(): (0,), frozenset((1,)): (0,), frozenset((2,)): (0,),
         frozenset((1, 2)): (0,)})
    # (0,2) satisfies the pole condition: (1 - 1/2) * 2 = 1 != 0 -> no; use (0,0) and (1,0)
    assert config.in_basis((1, 0))
    assert not config.in_basis((1, 1))
    x = ThetaBasisElement(config, (1, 0), 0)
    y = ThetaBasisElement(config, (0, 2), 0) if config.in_basis((0, 2)) else None
    assert y is None  # (1 - 1/2) * 2 = 1 != 0
    # nonempty stratum but failed sum condition truncates multiplicatively
    with pytest.raises(InputError):
        ThetaBasisElement(config, (0, 1), 0)


def test_multiply_bilinear(appc):
    x1 = ThetaElement.basis(ThetaBasisElement(appc, (1, 0, 0), 0))
    x2 = ThetaElement.basis(ThetaBasisElement(appc, (0, 1, 0), 0))
    x3 = ThetaElement.basis(ThetaBasisElement(appc, (0, 0, 1), 0))
    zero = ThetaElement.zero()
    assert multiply(appc, x1, zero).is_zero()
    lhs = multiply(appc, x1 + x2, x3)
    rhs = multiply(appc, x1, x3) + multiply(appc, x2, x3)
    assert lhs == rhs


def test_associativity_witness(appc):
    x1 = ThetaElement.basis(ThetaBasisElement(appc, (1, 0, 0), 0))
    x2 = ThetaElement.basis(ThetaBasisElement(appc, (0, 1, 0), 0))
    x3 = ThetaElement.basis(ThetaBasisElement(appc, (0, 0, 1), 0))
    assert multiply(appc, multiply(appc, x1, x2), x3) == \
        multiply(appc, x1, multiply(appc, x2, x3))


def test_commutativity_and_associativity_random_configs():
    rng = random.Random(17)
    for _ in range(12):
        config = random_configuration(rng, k_max=3, basis_cap=18, mult_bound=2)
        basis = basis_elements(config, mult_bound=2)
        for x in basis:
            for y in basis:
                assert multiply_basis(config, x, y) == multiply_basis(config, y, x)
        for x in basis[:8]:
            for y in basis[:8]:
                xy = multiply_basis(config, x, y)
                for z in basis[:8]:
                    lhs = multiply(config, xy, ThetaElement.basis(z))
                    rhs = multiply(config, ThetaElement.basis(x), multiply_basis(config, y, z))
                    assert lhs == rhs


def test_weight_additivity_of_products():
    rng = random.Random(29)
    for _ in range(10):
        config = random_configuration(rng, k_max=3, basis_cap=16)
        basis = basis_elements(config, mult_bound=2)
        for x in basis:
            for y in basis:
                for term in multiply_basis(config, x, y).coeffs:
                    assert config.weight(term.v) == config.weight(x.v) + config.weight(y.v)


def test_structure_constants_match_monomials_mod_sr_ideal():
    # connected Calabi-Yau configurations: theta products agree with monomial
    # multiplication in the Stanley-Reisner quotient under v -> prod x_i^v_i
    from helpers import random_downward_closed
    rng = random.Random(37)
    for _ in range(15):
        k = rng.randint(1, 4)
        faces = random_downward_closed(rng, k)
        strata = {f: (0,) for f in faces}
        config = DivisorConfiguration(k, [1] * k, [1] * k, strata)
        dual = config.dual_complex()
        pres = sr_presentation(dual)
        order = pres.order
        basis_gb = pres.basis()
        vectors = [v for v in product(range(3), repeat=k) if config.in_basis(v)]
        for v1 in vectors:
            for v2 in vectors:
                theta_prod = multiply_basis(config,
                                            ThetaBasisElement(config, v1, 0),
                                            ThetaBasisElement(config, v2, 0))
                # exponents aligned with the complex's actual vertex list
                mono = Polynomial.monomial(pres.vars,
                                           tuple(v1[i - 1] + v2[i - 1] for i in dual.vertices),
                                           1)
                nf = reduce_modulo(mono, basis_gb, order)
                if theta_prod.is_zero():
                    assert nf.is_zero()
                else:
                    assert nf == mono


def test_sr_presentation_three_cycle():
    pres = sr_presentation(sphere_boundary(1))
    assert [rel.to_string() for rel in pres.relations] == ["x1*x2*x3"]


def test_sr_presentation_full_simplex():
    pres = sr_presentation(full_simplex(3))
    assert pres.relations == ()


def test_sr_presentation_two_points():
    pres = sr_presentation(SimplicialComplex.from_facets([[1], [2]]))
    assert [rel.to_string() for rel in pres.relations] == ["x1*x2"]


def test_sr_presentation_weight_override():
    pres = sr_presentation(sphere_boundary(1), weights=[Fraction(2), Fraction(1), Fraction(1)])
    assert pres.weights == (Fraction(2), Fraction(1), Fraction(1))
    with pytest.raises(InputError):
        sr_presentation(sphere_boundary(1), weights=[1, 1])


def test_stanley_reisner_budget_allows_exactly_the_limit(monkeypatch):
    # k[x1..x4]/(x1*x2): every subset of {1,2,3,4} not containing {1,2}, 12 faces
    pres = WeightedPresentation(("x1", "x2", "x3", "x4"), [1] * 4, ["x1*x2"])
    monkeypatch.setattr(sr_algebra, "FACE_LIMIT", 12)
    complex_ = stanley_reisner_complex(pres)
    assert len(complex_.faces) == 12
    assert frozenset({1, 2}) not in complex_.faces
    monkeypatch.setattr(sr_algebra, "FACE_LIMIT", 11)
    with pytest.raises(InputError, match="more than 11 faces are refused"):
        stanley_reisner_complex(pres)


def test_graded_dimension_small_bound():
    config = appendix_c_configuration()
    counts = graded_dimension(config, Fraction(1, 2))
    assert counts == {Fraction(0): 1}


def test_graded_dimension_single_divisor_line():
    config = DivisorConfiguration(1, [1], [1],
                                  {frozenset(): (0,), frozenset((1,)): (0,)})
    counts = graded_dimension(config, 3)
    assert counts == {Fraction(0): 1, Fraction(1): 1, Fraction(2): 1, Fraction(3): 1}


def test_graded_dimension_matches_appendix_c_quotient(appc):
    from logcy.mirror import appendix_c_sr_presentation
    counts = graded_dimension(appc, 3)
    assert appendix_c_sr_presentation().hilbert_up_to(3) == counts


def test_graded_dimension_rejects_negative_bound(appc):
    with pytest.raises(InputError):
        graded_dimension(appc, -1)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 10), st.integers(1, 4))
def test_counts_match_the_box_walk(rng, numerator, denominator):
    # kappa from {1/2, 1, 2, 3}; a from {0, 1/2, 1, 2} on non-CY draws, so pole
    # sums take both signs; up to two components per stratum; bounds like 7/3
    config = random_configuration(rng, cy_prob=0.3)
    bound = Fraction(numerator, denominator)
    assert graded_dimension(config, bound) == graded_dimension_oracle(config, bound)


def test_graded_dimension_closed_form_beyond_the_box_walk():
    # D_1, D_2 and D_1 n D_2 connected, all pole orders 1: every (m1, m2) is a
    # basis vector, so level w counts the w + 1 vectors with m1 + m2 = w
    config = DivisorConfiguration(2, [1, 1], [1, 1], {
        frozenset(): (0,), frozenset((1,)): (0,), frozenset((2,)): (0,),
        frozenset((1, 2)): (0,)})
    assert graded_dimension(config, 2000) == {Fraction(w): w + 1 for w in range(2001)}



def test_parse_theta_expression(appc):
    expr = parse_theta_expression("theta[1,0,0] + 2*theta[1,1,1;2]", appc)
    x1 = ThetaBasisElement(appc, (1, 0, 0), 0)
    v = ThetaBasisElement(appc, (1, 1, 1), 2)
    assert expr.coeffs == {x1: Fraction(1), v: Fraction(2)}
    with pytest.raises(InputError):
        parse_theta_expression("theta[1,1,1]", appc)  # ambiguous component
    with pytest.raises(InputError):
        parse_theta_expression("theta[1,0]", appc)  # wrong length
    with pytest.raises(InputError):
        parse_theta_expression("junk", appc)


def test_graded_dimension_leaves_no_reference_cycle(appc):
    # the counting walk keeps its tables on an explicit stack; a recursive
    # closure would be a cycle holding them until the next garbage collection
    expected = graded_dimension(appc, 5)
    gc.collect()
    gc.disable()
    try:
        assert graded_dimension(appc, 5) == expected
        assert gc.collect() == 0
    finally:
        gc.enable()
