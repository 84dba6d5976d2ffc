"""Built-in fixtures: the conic-bundle mirror ring and the three-divisor
hypersurface family with a persistent singular line.

The conic-bundle ring is k[u_1..u_n, w1, w2] / (u_1...u_n - Na - Nb*w1,
w1*w2 - 1) with weights 1 on the u's and ample weights on w1, w2; its
degeneration and smoothness behavior are exercised against the polynomial
engine.  The hypersurface family deforms u(x1*x2*x3 - u) by the seven
admissible monomials and is singular along a line for every parameter value.
Its symbolic coefficients are the polynomial variables a1..a7 over Q, so the
symbolic family lives in Q[x1, x2, x3, u, a1, ..., a7].
"""

from fractions import Fraction
from itertools import combinations, product

from .complexes import SimplicialComplex
from .errors import InputError
from .fields import QQ
from .groebner import Ideal, jacobian_smooth
from .poly import COUNT_LIMIT, Polynomial, parse_polynomial
from .rees import WeightedPresentation
from .stratum import DivisorConfiguration

APPENDIX_C_PARAMS = ("a1", "a2", "a3", "a4", "a5", "a6", "a7")


# -- conic bundle ------------------------------------------------------------------


class ConicBundleFixture:
    """Mirror ring data: dimension n and the two curve-count coefficients."""

    __slots__ = ("n", "na", "nb", "kappa_w1", "kappa_w2")

    def __init__(self, n: int, na: int = 1, nb: int = 1, kappa_w1=Fraction(2),
                 kappa_w2=Fraction(1)):
        if n < 2:
            raise InputError("the conic bundle fixture needs n >= 2")
        self.n = n
        self.na = na
        self.nb = nb
        self.kappa_w1 = Fraction(kappa_w1)
        self.kappa_w2 = Fraction(kappa_w2)
        if not 0 < self.kappa_w1 < n:
            raise InputError("the w1 weight must lie strictly between 0 and n")
        if self.kappa_w2 <= 0:
            raise InputError("the w2 weight must be positive")


def conic_bundle_presentation(fixture: ConicBundleFixture) -> WeightedPresentation:
    """Relations u_1...u_n = Na + Nb*w1 and w1*w2 = 1 with the fixture weights."""
    names = tuple(f"u{i}" for i in range(1, fixture.n + 1)) + ("w1", "w2")
    weights = [Fraction(1)] * fixture.n + [fixture.kappa_w1, fixture.kappa_w2]
    u_product = Polynomial.monomial(names, (1,) * fixture.n + (0, 0), QQ.one, QQ)
    w1 = Polynomial.variable(names, "w1", QQ)
    w2 = Polynomial.variable(names, "w2", QQ)
    one = Polynomial.constant(names, 1, QQ)
    rel1 = u_product - one.scale(Fraction(fixture.na)) - w1.scale(Fraction(fixture.nb))
    rel2 = w1 * w2 - one
    return WeightedPresentation(names, weights, [rel1, rel2], QQ)


def conic_bundle_smooth_check(fixture: ConicBundleFixture, n_max: int = 3) -> dict:
    """Jacobian-criterion verdict per dimension 2..n_max (certificates included)."""
    if fixture.na == 0 and fixture.nb == 0:
        raise InputError("at least one of Na, Nb must be nonzero")
    results = {}
    for n in range(2, n_max + 1):
        sub = ConicBundleFixture(n, fixture.na, fixture.nb,
                                 min(fixture.kappa_w1, Fraction(2 * n - 1, 2)),
                                 fixture.kappa_w2)
        pres = conic_bundle_presentation(sub)
        smooth, cert = jacobian_smooth(pres.ideal(), expected_codim=2)
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


def conic_bundle_sr_fixture(fixture: ConicBundleFixture) -> WeightedPresentation:
    """Stanley-Reisner presentation of the facet fixture, with matching weights
    and variables aligned to the mirror ring's generators.

    Checking the written relations against the facets generates about
    n * 2^(n+1) vertex subsets; when that is more than
    logcy.poly.COUNT_LIMIT, it raises InputError first.
    """
    if fixture.n * 2 ** (fixture.n + 1) > COUNT_LIMIT:
        raise InputError(f"--n is too large for the Stanley-Reisner fixture: checking it "
                         f"generates n * 2^(n+1) vertex subsets, more than {COUNT_LIMIT}")
    names = tuple(f"u{i}" for i in range(1, fixture.n + 1)) + ("w1", "w2")
    weights = [Fraction(1)] * fixture.n + [fixture.kappa_w1, fixture.kappa_w2]
    facets = conic_bundle_dual_complex_facets(fixture.n)
    # minimal non-faces of the fixture complex, written directly
    all_u = Polynomial.monomial(names, (1,) * fixture.n + (0, 0), QQ.one, QQ)
    w1w2 = Polynomial.monomial(names, (0,) * fixture.n + (1, 1), QQ.one, QQ)
    pres = WeightedPresentation(names, weights, [all_u, w1w2], QQ)
    # sanity: the written relations are exactly the fixture's minimal non-faces
    declared = {frozenset(names[:fixture.n]), frozenset(("w1", "w2"))}
    if set(SimplicialComplex.from_facets(facets).minimal_nonfaces()) != declared:
        raise InputError("internal error: fixture facets contain a declared non-face")
    return pres


# -- the three-divisor hypersurface family ------------------------------------------


APPENDIX_C_VARS = ("x1", "x2", "x3", "u")


def admissible_deformation_monomials(search_bound: int = 6) -> set:
    """Exponent vectors (e1, e2, e3, eu) allowed in the deformation term.

    Constraints: e3 + eu <= 1 and e1 + eu <= 2 and e2 + eu <= 2 (filtration
    degrees of the three divisors) and e1 + e2 - e3 + eu = 2 (torus weight).
    The search box is only a safety net; the constraints themselves bound
    the solutions.
    """
    out = set()
    for exps in product(range(search_bound + 1), repeat=4):
        e1, e2, e3, eu = exps
        if e3 + eu <= 1 and e1 + eu <= 2 and e2 + eu <= 2 and e1 + e2 - e3 + eu == 2:
            out.add(exps)
    return out


EXPECTED_ADMISSIBLE = {
    (1, 1, 0, 0),  # x1*x2
    (2, 0, 0, 0),  # x1^2
    (0, 2, 0, 0),  # x2^2
    (2, 1, 1, 0),  # x1^2*x2*x3
    (1, 2, 1, 0),  # x1*x2^2*x3
    (1, 0, 0, 1),  # x1*u
    (0, 1, 0, 1),  # x2*u
}


class HypersurfaceFamily:
    """The deformed hypersurface u(x1*x2*x3 - u) = g_a over Q.

    In symbolic mode the seven coefficients are the variables a1..a7 and the
    polynomials live in Q[x1, x2, x3, u, a1, ..., a7]; in numeric mode they
    are exact rationals and the polynomials live in Q[x1, x2, x3, u].
    """

    def __init__(self, coefficients=None):
        if coefficients is None:
            self.vars = APPENDIX_C_VARS + APPENDIX_C_PARAMS
            self.coefficients = [Polynomial.variable(self.vars, a) for a in APPENDIX_C_PARAMS]
        else:
            coeffs = [Fraction(c) for c in coefficients]
            if len(coeffs) != 7:
                raise InputError("numeric mode needs exactly 7 coefficients")
            self.vars = APPENDIX_C_VARS
            self.coefficients = [Polynomial.constant(self.vars, c) for c in coeffs]

    def deformation(self) -> Polynomial:
        """g_a: the combination of the seven admissible monomials."""
        ordered = [
            (1, 1, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0),
            (2, 1, 1, 0), (1, 2, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1),
        ]
        padding = (0,) * (len(self.vars) - len(APPENDIX_C_VARS))
        total = Polynomial.zero(self.vars)
        for exps, coeff in zip(ordered, self.coefficients):
            total = total + coeff * Polynomial.monomial(self.vars, exps + padding, QQ.one)
        return total

    def family_polynomial(self) -> Polynomial:
        """f_a = u(x1*x2*x3 - u) - g_a."""
        return parse_polynomial("u*(x1*x2*x3 - u)", self.vars) - self.deformation()


def singular_line_residuals(f: Polynomial) -> list:
    """Restrictions of f and its four partials to {u = x1 = x2 = 0, x3 = c}.

    Returns the labeled nonzero restrictions, as polynomials in the line
    parameter c and the variables of f outside APPENDIX_C_VARS (the
    coefficients a1..a7 in symbolic mode); an empty list certifies the line
    lies in the singular locus.
    """
    field = f.field
    line_vars = ("c",) + tuple(v for v in f.vars if v not in APPENDIX_C_VARS)
    zero = Polynomial.zero(line_vars, field)
    c_poly = Polynomial.variable(line_vars, "c", field)
    assignment = {"x1": zero, "x2": zero, "x3": c_poly, "u": zero}
    residuals = []
    for label, poly in [("f", f)] + [(f"df/d{v}", f.derivative(v)) for v in APPENDIX_C_VARS]:
        restricted = poly.substitute(assignment)
        if not restricted.is_zero():
            residuals.append((label, restricted))
    return residuals


def singular_line_check(family: HypersurfaceFamily):
    """True plus no residuals when the whole family is singular along the line."""
    residuals = singular_line_residuals(family.family_polynomial())
    return (not residuals), residuals


class ThetaQuotientFixture:
    """The five-generator presentation plus its hypersurface form."""

    __slots__ = ("presentation", "hypersurface")

    def __init__(self, presentation: WeightedPresentation, hypersurface: Polynomial):
        self.presentation = presentation
        self.hypersurface = hypersurface


def appendix_c_sr_presentation() -> ThetaQuotientFixture:
    """Q[x1,x2,x3,u,v] / (x1*x2*x3 - u - v, u*v) with filtration weights.

    The x variables sit at weight 1 and the two deep-stratum generators at
    weight 3 = kappa_1 + kappa_2 + kappa_3, matching the graded dimensions of
    the theta basis.  Eliminating v gives the hypersurface form
    u(x1*x2*x3 - u).
    """
    names = ("x1", "x2", "x3", "u", "v")
    weights = [Fraction(1)] * 3 + [Fraction(3), Fraction(3)]
    rel1 = parse_polynomial("x1*x2*x3 - u - v", names, QQ)
    rel2 = parse_polynomial("u*v", names, QQ)
    pres = WeightedPresentation(names, weights, [rel1, rel2], QQ)
    hyper = parse_polynomial("u*(x1*x2*x3 - u)", APPENDIX_C_VARS, QQ)
    return ThetaQuotientFixture(pres, hyper)


def appendix_c_configuration() -> DivisorConfiguration:
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
    return DivisorConfiguration(
        k=3,
        kappa=(Fraction(1), Fraction(1), Fraction(1)),
        a=(Fraction(1), Fraction(1), Fraction(1)),
        strata=strata,
    )


