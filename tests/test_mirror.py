"""The two built-in mirror fixtures and their verifications."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import numeric_hypersurface_family, substitute
from logcy import mirror
from logcy.complexes import SimplicialComplex
from logcy.errors import InputError
from logcy.groebner import jacobian_smooth
from logcy.poly import Polynomial, parse_polynomial
from logcy.rees import associated_graded, fiber_at, presentations_ideal_equal
from logcy.sr_algebra import graded_dimension

F = Fraction


def test_conic_presentation_default():
    pres = mirror.conic_bundle_presentation(mirror.ConicBundleFixture(2, 1, 1, F(3, 2), 1))
    assert pres.vars == ("u1", "u2", "w1", "w2")
    texts = {r.to_string(pres.order) for r in pres.relations}
    assert parse_polynomial("u1*u2 - 1 - w1", pres.vars) in pres.relations
    assert parse_polynomial("w1*w2 - 1", pres.vars) in pres.relations


def test_conic_torus_branch():
    pres = mirror.conic_bundle_presentation(mirror.ConicBundleFixture(2, 1, 0, F(3, 2), 1))
    assert parse_polynomial("u1*u2 - 1", pres.vars) in pres.relations


def test_conic_gr_relations():
    fixture = mirror.ConicBundleFixture(3, 1, 1, F(2), F(1))
    graded = associated_graded(mirror.conic_bundle_presentation(fixture))
    expected = {parse_polynomial("u1*u2*u3", graded.vars),
                parse_polynomial("w1*w2", graded.vars)}
    assert set(graded.relations) == expected


def test_conic_weight_window_enforced():
    with pytest.raises(InputError):
        mirror.ConicBundleFixture(2, 1, 1, F(2), 1)  # needs kappa_w1 < n
    with pytest.raises(InputError):
        mirror.ConicBundleFixture(1)


def test_conic_smooth_for_unit_counts():
    fixture = mirror.ConicBundleFixture(3, 1, 1, F(2), 1)
    results = mirror.conic_bundle_smooth_check(fixture)
    for n, (smooth, cert) in results.items():
        assert smooth, n
        assert cert.replay() == Polynomial.constant(cert.generators[0].vars, 1)


def test_conic_torus_is_smooth():
    fixture = mirror.ConicBundleFixture(2, 1, 0, F(3, 2), 1)
    results = mirror.conic_bundle_smooth_check(fixture)
    assert results[2][0]


def test_conic_smooth_requires_nonzero_count():
    fixture = mirror.ConicBundleFixture(2, 0, 0, F(3, 2), 1)
    with pytest.raises(InputError):
        mirror.conic_bundle_smooth_check(fixture)


def test_conic_gr_matches_sr_fixture_hilbert():
    for n, kappa1 in ((2, F(3, 2)), (3, F(2))):
        fixture = mirror.ConicBundleFixture(n, 1, 1, kappa1, 1)
        graded = associated_graded(mirror.conic_bundle_presentation(fixture))
        sr_pres = mirror.conic_bundle_sr_fixture(fixture)
        assert graded.hilbert_up_to(8) == sr_pres.hilbert_up_to(8)


def test_conic_facet_fixture_shape():
    facets = mirror.conic_bundle_dual_complex_facets(3)
    assert len(facets) == 6
    assert ["u1", "u2", "w1"] in facets
    for facet in facets:
        assert not {"w1", "w2"} <= set(facet)
        assert not {"u1", "u2", "u3"} <= set(facet)


@pytest.mark.parametrize("n", range(2, 7))
def test_conic_facet_fixture_has_the_two_written_nonfaces(n):
    # the Stanley-Reisner fixture is computed from these facets; its two
    # relations are all the u's and w1*w2
    cx = SimplicialComplex.from_facets(mirror.conic_bundle_dual_complex_facets(n))
    assert set(cx.minimal_nonfaces()) == {frozenset(f"u{i}" for i in range(1, n + 1)),
                                          frozenset({"w1", "w2"})}


def test_conic_sr_fixture_weights_follow_its_vertices():
    fixture = mirror.ConicBundleFixture(10, 1, 1, F(5, 2), F(3))
    sr_pres = mirror.conic_bundle_sr_fixture(fixture)
    assert sr_pres.vars[:3] == ("xu1", "xu10", "xu2")
    assert dict(zip(sr_pres.vars, sr_pres.weights)) == {
        **{f"xu{i}": 1 for i in range(1, 11)}, "xw1": F(5, 2), "xw2": F(3)}


def test_conic_w1_weight_defaults_to_2_capped_below_n():
    assert mirror.ConicBundleFixture(2).kappa_w1 == F(3, 2)
    assert mirror.ConicBundleFixture(3).kappa_w1 == 2
    assert mirror.ConicBundleFixture(3, kappa_w1=F(1, 2)).kappa_w1 == F(1, 2)


def test_conic_w2_weight_defaults_to_1():
    # cli passes None for an absent --kappa2, as for --kappa1
    assert mirror.ConicBundleFixture(3).kappa_w2 == 1
    assert mirror.ConicBundleFixture(3, kappa_w2=None).kappa_w2 == 1
    assert mirror.ConicBundleFixture(3, kappa_w2=F(1, 2)).kappa_w2 == F(1, 2)


def test_conic_rees_fiber_roundtrip():
    fixture = mirror.ConicBundleFixture(2, 1, 1, F(3, 2), 1)
    pres = mirror.conic_bundle_presentation(fixture)
    assert presentations_ideal_equal(fiber_at(pres, 0), associated_graded(pres))
    assert presentations_ideal_equal(fiber_at(pres, 1), pres)


def test_admissible_monomials_exact_set():
    found = mirror.admissible_deformation_monomials()
    assert found == set(mirror.ADMISSIBLE_MONOMIALS)
    assert len(found) == 7


def test_deformation_coefficient_i_multiplies_the_ith_admissible_monomial():
    f = mirror.hypersurface_family()
    g = parse_polynomial("u*(x1*x2*x3 - u)", f.vars) - f
    assert g.terms == {exps + tuple(int(j == i) for j in range(7)): 1
                       for i, exps in enumerate(mirror.ADMISSIBLE_MONOMIALS)}


def test_admissible_monomials_stable_under_bigger_box():
    # the constraints bound the search box: the 13^4 box finds nothing more
    wide = set()
    for e1, e2, e3, eu in product(range(13), repeat=4):
        if e3 + eu <= 1 and e1 + eu <= 2 and e2 + eu <= 2 and e1 + e2 - e3 + eu == 2:
            wide.add((e1, e2, e3, eu))
    assert mirror.admissible_deformation_monomials() == wide


def test_admissible_excludes_specific_monomials():
    found = mirror.admissible_deformation_monomials()
    assert (1, 1, 1, 0) not in found  # x1*x2*x3 has torus weight 1
    assert (0, 0, 0, 2) not in found  # u^2 exceeds the depth-one filtration


def test_singular_line_symbolic():
    assert mirror.singular_line_residuals(mirror.hypersurface_family()) == []


def test_singular_line_numeric_and_rescaling_invariance():
    base = [F(1), F(-2), F(3), F(1, 2), F(0), F(5), F(-1)]
    assert mirror.singular_line_residuals(mirror.hypersurface_family(base)) == []
    scaled = [F(7, 3) * c for c in base]
    assert mirror.singular_line_residuals(mirror.hypersurface_family(scaled)) == []


def test_singular_line_zero_coefficients():
    assert mirror.singular_line_residuals(mirror.hypersurface_family([0] * 7)) == []


def test_singular_line_perturbation_detected():
    family = mirror.hypersurface_family([1, 0, 0, 0, 0, 0, 0])
    broken = family - parse_polynomial("x3^2", mirror.APPENDIX_C_VARS)
    residuals = mirror.singular_line_residuals(broken)
    labels = {label for label, _ in residuals}
    assert labels == {"f", "df/dx3"}
    by_label = dict(residuals)
    assert by_label["f"] == parse_polynomial("-c^2", ("c",))
    assert by_label["df/dx3"] == parse_polynomial("-2*c", ("c",))


def test_family_polynomial_symbolic_shape():
    f = mirror.hypersurface_family()
    # u*x1*x2*x3 and -u^2 are present alongside the seven deformation terms
    assert (1, 1, 1, 1) + (0,) * 7 in f.terms
    assert (0, 0, 0, 2) + (0,) * 7 in f.terms
    assert len(f.terms) == 9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fractions(max_denominator=12), min_size=7, max_size=7))
def test_symbolic_family_specializes_to_the_numeric_family(coefficients):
    f = mirror.hypersurface_family()
    specialized = f.evaluate(dict(zip(mirror.APPENDIX_C_PARAMS, coefficients)))
    assert specialized == numeric_hypersurface_family(coefficients)
    assert mirror.hypersurface_family(coefficients) == specialized


def test_singular_line_residuals_carry_the_parameters():
    f = mirror.hypersurface_family()
    broken = f - parse_polynomial("a1*x3^2", f.vars)
    line_vars = ("c",) + mirror.APPENDIX_C_PARAMS
    assert mirror.singular_line_residuals(broken) == [
        ("f", parse_polynomial("-a1*c^2", line_vars)),
        ("df/dx3", parse_polynomial("-2*a1*c", line_vars)),
    ]


def test_numeric_mode_needs_seven_coefficients():
    with pytest.raises(InputError):
        mirror.hypersurface_family([1, 2, 3])


def test_appendix_c_presentation_matches_theta_counts():
    pres = mirror.appendix_c_sr_presentation()
    config = mirror.appendix_c_configuration()
    assert pres.hilbert_up_to(5) == graded_dimension(config, 5)


def test_appendix_c_eliminating_v_gives_hypersurface():
    ring = mirror.APPENDIX_C_VARS
    images = {"v": parse_polynomial("x1*x2*x3 - u", ring)}
    rel1, rel2 = mirror.appendix_c_sr_presentation().relations
    assert substitute(rel1, images, ring).is_zero()
    assert substitute(rel2, images, ring) == mirror.hypersurface_family([0] * 7)


def test_appendix_c_quotient_not_verified_smooth():
    smooth, cert = jacobian_smooth(mirror.appendix_c_sr_presentation().relations, 2)
    assert not smooth and cert is None


def test_appendix_c_configuration_shape():
    config = mirror.appendix_c_configuration()
    assert config.k == 3
    assert len(config.components(frozenset({1, 2, 3}))) == 2
    assert all(len(config.components(frozenset(s))) == 1
               for s in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)])
