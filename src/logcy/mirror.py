"""Built-in fixtures: the conic-bundle mirror ring and Appendix C's
three-divisor example.

Every polynomial here has rational coefficients.  The conic-bundle ring is
Q[u_1..u_n, w1, w2] / (u_1...u_n - Na - Nb*w1, w1*w2 - 1) with weights 1 on
the u's and ample weights on w1, w2; its degeneration and smoothness
behavior are exercised against the polynomial engine.  The ring its gr is
compared with is computed, not written: sr_algebra.sr_presentation of the
complex that the boundary divisors' facets generate.  Appendix C's filtered
presentation Q[x1,x2,x3,u,v] / (x1*x2*x3 - u - v, u*v) is compared with the
theta basis of appendix_c_configuration.  Its hypersurface family, one
polynomial in Q[x1, x2, x3, u, a1, ..., a7], deforms u(x1*x2*x3 - u) by the
seven admissible monomials and is singular along a line for every a; a
numeric member is its evaluation at seven rationals.
"""

from fractions import Fraction
from itertools import product

from . import complexes, groebner, poly, rees, sr_algebra, stratum
from .errors import COUNT_LIMIT, InputError

APPENDIX_C_PARAMS = ("a1", "a2", "a3", "a4", "a5", "a6", "a7")

# The largest n that conic_bundle_smooth_check takes: its time grows about as
# n^3, one Jacobian Groebner basis per dimension 2..n, to 1.5 s at n = 40.
SMOOTH_LIMIT = 40


# -- conic bundle ------------------------------------------------------------------


def _w1_weight(n: int, kappa) -> Fraction:
    """The w1 weight in dimension n: kappa, capped at (2n - 1)/2, below n."""
    return min(Fraction(kappa), Fraction(2 * n - 1, 2))


class ConicBundleFixture:
    """Mirror ring data: dimension n and the two curve-count coefficients.
    The w1 weight defaults to 2, capped in dimension n as _w1_weight caps it,
    and the w2 weight to 1.  n above logcy.errors.COUNT_LIMIT is refused."""

    __slots__ = ("n", "na", "nb", "kappa_w1", "kappa_w2")

    def __init__(self, n: int, na: int = 1, nb: int = 1, kappa_w1=None,
                 kappa_w2=None):
        if n < 2:
            raise InputError("the conic bundle fixture needs n >= 2")
        if n > COUNT_LIMIT:
            raise InputError(f"--n is too large for the conic bundle fixture: its ring has "
                             f"n + 2 variables, and n above {COUNT_LIMIT} is refused")
        self.n = n
        self.na = na
        self.nb = nb
        self.kappa_w1 = _w1_weight(n, 2) if kappa_w1 is None else Fraction(kappa_w1)
        self.kappa_w2 = Fraction(1) if kappa_w2 is None else Fraction(kappa_w2)
        if not 0 < self.kappa_w1 < n:
            raise InputError("the w1 weight must lie strictly between 0 and n")
        if self.kappa_w2 <= 0:
            raise InputError("the w2 weight must be positive")


def conic_bundle_presentation(fixture: ConicBundleFixture) -> "rees.WeightedPresentation":
    """Relations u_1...u_n = Na + Nb*w1 and w1*w2 = 1 with the fixture weights."""
    names = tuple(f"u{i}" for i in range(1, fixture.n + 1)) + ("w1", "w2")
    weights = [Fraction(1)] * fixture.n + [fixture.kappa_w1, fixture.kappa_w2]
    u_product = poly.Polynomial.monomial(names, (1,) * fixture.n + (0, 0), 1)
    w1 = poly.Polynomial.variable(names, "w1")
    w2 = poly.Polynomial.variable(names, "w2")
    one = poly.Polynomial.constant(names, 1)
    rel1 = u_product - one.scale(fixture.na) - w1.scale(fixture.nb)
    rel2 = w1 * w2 - one
    return rees.WeightedPresentation(names, weights, [rel1, rel2])


def conic_bundle_smooth_check(fixture: ConicBundleFixture) -> dict:
    """Jacobian-criterion verdict per dimension 2..fixture.n (certificates
    included), the w1 weight capped per dimension by _w1_weight; n above
    SMOOTH_LIMIT is refused before any Groebner work."""
    if fixture.na == 0 and fixture.nb == 0:
        raise InputError("at least one of Na, Nb must be nonzero")
    if fixture.n > SMOOTH_LIMIT:
        raise InputError(f"--n is too large for the smoothness check: it computes a Groebner "
                         f"basis per dimension 2..n, and n above {SMOOTH_LIMIT} is refused")
    results = {}
    for n in range(2, fixture.n + 1):
        sub = ConicBundleFixture(n, fixture.na, fixture.nb,
                                 _w1_weight(n, fixture.kappa_w1), fixture.kappa_w2)
        pres = conic_bundle_presentation(sub)
        smooth, cert = groebner.jacobian_smooth(pres.relations, expected_codim=2)
        results[n] = (smooth, cert)
    return results


def conic_bundle_dual_complex_facets(n: int) -> list:
    """Facet fixture for the compactified conic bundle's boundary divisors.

    Data enumerated by hand from the torus-orbit strata of the blowup of
    P^{n-1} x P^1 along a hyperplane section of the zero fiber.  Vertices
    u1..un are the horizontal boundary divisors, w1 and w2 the zero and
    infinity fibers; the only empty intersections are "all u's" (the n
    hyperplanes of P^{n-1} share no point) and {w1, w2} (disjoint fibers).
    """
    if n < 2:
        raise InputError("the facet fixture needs n >= 2")
    u_names = [f"u{i}" for i in range(1, n + 1)]
    facets = []
    for drop in range(n):
        kept = [u for i, u in enumerate(u_names) if i != drop]
        facets.append(kept + ["w1"])
        facets.append(kept + ["w2"])
    return facets


def conic_bundle_sr_fixture(fixture: ConicBundleFixture) -> "rees.WeightedPresentation":
    """Stanley-Reisner presentation of the facet fixture's complex, weighted 1
    on the u's and by the fixture's weights on w1 and w2.  Its variables are
    x<label> in sorted label order (xu1, xu10, xu2, ... once n >= 10), so only
    its Hilbert function is comparable with the mirror ring's.

    Building the complex from its 2n facets generates n * 2^(n+1) vertex
    subsets; when that is more than logcy.errors.COUNT_LIMIT, it raises
    InputError first.
    """
    if fixture.n * 2 ** (fixture.n + 1) > COUNT_LIMIT:
        raise InputError(f"--n is too large for the Stanley-Reisner fixture: checking it "
                         f"generates n * 2^(n+1) vertex subsets, more than {COUNT_LIMIT}")
    cx = complexes.SimplicialComplex.from_facets(conic_bundle_dual_complex_facets(fixture.n))
    special = {"w1": fixture.kappa_w1, "w2": fixture.kappa_w2}
    return sr_algebra.sr_presentation(cx, [special.get(v, 1) for v in cx.vertices])


# -- the three-divisor hypersurface family ------------------------------------------


APPENDIX_C_VARS = ("x1", "x2", "x3", "u")


def admissible_deformation_monomials() -> set:
    """Exponent vectors (e1, e2, e3, eu) allowed in the deformation term.

    Constraints: e3 + eu <= 1 and e1 + eu <= 2 and e2 + eu <= 2 (filtration
    degrees of the three divisors) and e1 + e2 - e3 + eu = 2 (torus weight).
    The first three bound e1 and e2 by 2 and e3 and eu by 1, so the 36
    vectors of that box hold every solution.
    """
    out = set()
    for exps in product(range(3), range(3), range(2), range(2)):
        e1, e2, e3, eu = exps
        if e3 + eu <= 1 and e1 + eu <= 2 and e2 + eu <= 2 and e1 + e2 - e3 + eu == 2:
            out.add(exps)
    return out


# the seven admissible monomials; a_i is the coefficient of the i-th
ADMISSIBLE_MONOMIALS = (
    (1, 1, 0, 0),  # x1*x2
    (2, 0, 0, 0),  # x1^2
    (0, 2, 0, 0),  # x2^2
    (2, 1, 1, 0),  # x1^2*x2*x3
    (1, 2, 1, 0),  # x1*x2^2*x3
    (1, 0, 0, 1),  # x1*u
    (0, 1, 0, 1),  # x2*u
)


def hypersurface_family(coefficients=None) -> "poly.Polynomial":
    """f_a = u(x1*x2*x3 - u) - g_a in Q[x1, x2, x3, u, a1, ..., a7], g_a being
    a1..a7 times the seven admissible monomials; given seven rationals, its
    evaluation at them, in Q[x1, x2, x3, u]."""
    if coefficients is not None and len(coefficients) != 7:
        raise InputError("numeric mode needs exactly 7 coefficients")
    names = APPENDIX_C_VARS + APPENDIX_C_PARAMS
    g = poly.Polynomial(names, {exps + tuple(int(j == i) for j in range(7)): 1
                                for i, exps in enumerate(ADMISSIBLE_MONOMIALS)})
    f = poly.parse_polynomial("u*(x1*x2*x3 - u)", names) - g
    if coefficients is None:
        return f
    return f.evaluate(dict(zip(APPENDIX_C_PARAMS, coefficients)))


def singular_line_residuals(f: "poly.Polynomial") -> list:
    """Restrictions of f and its four partials to {u = x1 = x2 = 0, x3 = c}.

    Returns the labeled nonzero restrictions, as polynomials in the line
    parameter c and the variables of f outside APPENDIX_C_VARS (the
    coefficients a1..a7 of the symbolic family); an empty list certifies the
    line lies in the singular locus.
    """
    residuals = []
    for label, g in [("f", f)] + [(f"df/d{v}", f.derivative(v)) for v in APPENDIX_C_VARS]:
        restricted = g.evaluate({"x1": 0, "x2": 0, "u": 0})
        if not restricted.is_zero():
            line_vars = tuple("c" if v == "x3" else v for v in restricted.vars)
            residuals.append((label, poly.Polynomial(line_vars, restricted.terms)))
    return residuals


def appendix_c_sr_presentation() -> "rees.WeightedPresentation":
    """Q[x1,x2,x3,u,v] / (x1*x2*x3 - u - v, u*v) with filtration weights.

    The x variables sit at weight 1 and the two deep-stratum generators at
    weight 3 = kappa_1 + kappa_2 + kappa_3, matching the graded dimensions of
    the theta basis.  Eliminating v gives the undeformed member of the
    family, hypersurface_family([0] * 7).
    """
    names = ("x1", "x2", "x3", "u", "v")
    weights = [Fraction(1)] * 3 + [Fraction(3), Fraction(3)]
    rel1 = poly.parse_polynomial("x1*x2*x3 - u - v", names)
    rel2 = poly.parse_polynomial("u*v", names)
    return rees.WeightedPresentation(names, weights, [rel1, rel2])


def appendix_c_configuration() -> "stratum.DivisorConfiguration":
    """Three boundary divisors on a (1,1) hypersurface in P^2 x P^2.

    All single and pairwise strata are connected; the triple stratum is two
    points.  All pole orders are 1 and the ample weights are 1.
    """
    strata = {
        frozenset(): (0,),
        frozenset({1}): (0,), frozenset({2}): (0,), frozenset({3}): (0,),
        frozenset({1, 2}): (0,), frozenset({1, 3}): (0,), frozenset({2, 3}): (0,),
        frozenset({1, 2, 3}): (1, 2),
    }
    return stratum.DivisorConfiguration(
        k=3,
        kappa=(Fraction(1), Fraction(1), Fraction(1)),
        a=(Fraction(1), Fraction(1), Fraction(1)),
        strata=strata,
    )


