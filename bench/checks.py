"""Independent checks of `logcy` reports.

Every check recomputes what it can without logcy: sympy for Groebner bases,
Jacobian minors and ranks, scipy for the infeasible balancing LPs, and
plain Fractions for theta
products, basis counts, Euler characteristics, certificates and energies.
Nothing is compared with a stored copy of earlier output.  A check raises
CheckFailed with a reason; CORRUPT holds, per check, one deliberate
corruption of a good report that the check must reject (see selftest.py).
"""

import json
import re
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import sympy

from workloads import APPC_CONFIG, conic_presentation


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def fmt(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- polynomials in sympy ------------------------------------------------------------


def _symbols(names):
    return sympy.symbols(list(names))


def _parse(text, syms):
    local = {str(s): s for s in syms}
    return sympy.expand(sympy.parse_expr(text.replace("^", "**"), local_dict=local))


def _weighted_key(weights):
    """logcy's monomial order: weighted degree, then total degree, then lex."""
    w = [Fraction(x) for x in weights]
    return lambda m: (sum(a * e for a, e in zip(w, m)), sum(m), m)


def _basis(polys, syms, order):
    polys = [p for p in polys if p != 0]
    if not polys:
        return set()
    return {sympy.expand(g) for g in sympy.groebner(polys, *syms, order=order, domain="QQ").exprs}


def _same_ideal(first, second, syms, order="grlex"):
    return _basis(first, syms, order) == _basis(second, syms, order)


def _top_forms(polys, syms, weights):
    w = [Fraction(x) for x in weights]
    tops = []
    for p in polys:
        terms = sympy.Poly(p, *syms).terms()
        degs = [sum(a * e for a, e in zip(w, m)) for m, _ in terms]
        top = max(degs)
        tops.append(sum(c * sympy.prod(s ** e for s, e in zip(syms, m))
                        for (m, c), d in zip(terms, degs) if d == top))
    return tops


def _monomial_levels(weights, bound, leads):
    """Standard monomials per weight level; every realized level is a key."""
    w = [Fraction(x) for x in weights]
    counts = {}

    def walk(idx, exps, weight):
        if idx == len(w):
            counts.setdefault(weight, 0)
            if not any(all(a <= b for a, b in zip(lead, exps)) for lead in leads):
                counts[weight] += 1
            return
        e = 0
        while weight + w[idx] * e <= bound:
            walk(idx + 1, exps + (e,), weight + w[idx] * e)
            e += 1

    walk(0, (), Fraction(0))
    return [{"weight": fmt(k), "count": counts[k]} for k in sorted(counts)]


def _gr_expected(pres):
    syms = _symbols(pres["vars"])
    order = _weighted_key(pres["weights"])
    rels = [_parse(r, syms) for r in pres["relations"]]
    basis = sympy.groebner(rels, *syms, order=order, domain="QQ").exprs
    return syms, order, _top_forms(basis, syms, pres["weights"])


def check_gr_presentation(got, pres):
    """got generates the initial ideal of pres for its weight filtration."""
    syms, order, tops = _gr_expected(pres)
    expect(got["vars"] == list(pres["vars"]), "gr variables differ")
    expect([Fraction(w) for w in got["weights"]] == [Fraction(w) for w in pres["weights"]],
           "gr weights differ")
    rels = [_parse(r, syms) for r in got["relations"]]
    expect(_same_ideal(rels, tops, syms, order), "gr relations do not generate the initial ideal")
    return syms, order, tops


# -- combinatorics of configurations and complexes ----------------------------------------


def _strata(config):
    return {frozenset(s["I"]): list(s["components"]) for s in config["strata"]}


def theta_levels(config, bound):
    """Theta basis symbols per weight level, counted from the configuration."""
    kappa = [Fraction(x) for x in config["kappa"]]
    a = [Fraction(x) for x in config["a"]]
    strata = _strata(config)
    bound = Fraction(bound)
    counts = {}

    def walk(idx, vec, weight):
        if idx == len(kappa):
            counts.setdefault(weight, 0)
            support = frozenset(i + 1 for i, x in enumerate(vec) if x)
            if strata.get(support) and sum((1 - a[i]) * vec[i] for i in range(len(a))) == 0:
                counts[weight] += len(strata[support])
            return
        m = 0
        while weight + kappa[idx] * m <= bound:
            walk(idx + 1, vec + (m,), weight + kappa[idx] * m)
            m += 1

    walk(0, (), Fraction(0))
    return [{"weight": fmt(k), "count": counts[k]} for k in sorted(counts)]


def component_map(config, src, dst):
    """Compose adjacent component maps from stratum src down to dst."""
    strata = _strata(config)
    given = {(frozenset(m["from"]), frozenset(m["to"])): {int(c): t for c, t in m["assign"].items()}
             for m in config.get("maps", [])}
    assign = {c: c for c in strata[src]}
    current = src
    for i in sorted(src - dst, reverse=True):
        nxt = current - {i}
        step = given.get((current, nxt))
        if step is None:
            (only,) = strata[nxt]
            step = {c: only for c in strata[current]}
        assign = {c: step[assign[c]] for c in assign}
        current = nxt
    return assign


_TERM = re.compile(r"^\s*(?:([+-]?\d+)\s*\*\s*)?theta\[([-\d,\s]*);(\d+)\]\s*$")


def _theta_terms(text):
    out = {}
    for raw in text.split("+"):
        coeff, vec, comp = _TERM.match(raw).groups()
        key = (tuple(int(x) for x in vec.split(",")), int(comp))
        out[key] = out.get(key, 0) + int(coeff or 1)
    return out


def theta_product(config, lhs, rhs):
    strata = _strata(config)
    a = [Fraction(x) for x in config["a"]]
    out = {}
    for (vx, cx), fx in _theta_terms(lhs).items():
        for (vy, cy), fy in _theta_terms(rhs).items():
            total = tuple(p + q for p, q in zip(vx, vy))
            support = frozenset(i + 1 for i, x in enumerate(total) if x)
            if not strata.get(support) or sum((1 - a[i]) * total[i] for i in range(len(a))):
                continue
            to_x = component_map(config, support, frozenset(i + 1 for i, x in enumerate(vx) if x))
            to_y = component_map(config, support, frozenset(i + 1 for i, x in enumerate(vy) if x))
            for comp in strata[support]:
                if to_x[comp] == cx and to_y[comp] == cy:
                    out[(total, comp)] = out.get((total, comp), 0) + fx * fy
    return {key: Fraction(c) for key, c in out.items() if c}


def closure(facets):
    faces = set()
    for facet in facets:
        for size in range(len(facet) + 1):
            faces.update(frozenset(c) for c in combinations(sorted(facet), size))
    return faces


def maximal(faces):
    top = [f for f in faces if not any(f < g for g in faces)]
    return sorted((sorted(f) for f in top), key=lambda f: (len(f), f))


def reduced_euler(facets):
    return sum((-1) ** (len(f) - 1) for f in closure(facets))


# -- contact trees ----------------------------------------------------------------------


def rho_matrix(tree):
    edges = [(e["a"], e["b"], e["depthE"], e["contact"][f"{e['a']}->{e['b']}"])
             for e in tree["edges"]]
    rows = [(pos, i) for pos, (_, _, depth, _) in enumerate(edges) for i in sorted(depth)]
    depths = {v["id"]: sorted(v["depth"]) for v in tree["vertices"]}
    cols = [("edge", pos) for pos in range(len(edges))] + \
           [("vertex", v, i) for v in sorted(depths) for i in depths[v]]
    matrix = []
    for pos, i in rows:
        a, b, _, contact = edges[pos]
        row = []
        for col in cols:
            if col[0] == "edge":
                row.append(contact[i - 1] if col[1] == pos else 0)
            else:
                _, v, j = col
                row.append((1 if v == a else -1 if v == b else 0) if j == i else 0)
        matrix.append(row)
    return matrix, len(cols)


def _rank(matrix):
    return sympy.Matrix(matrix).rank() if matrix else 0


def balancing_optimum(tree):
    """Max margin delta of the strict balancing system, by scipy's HiGHS
    solver (sympy's simplex drops contradictory equalities such as
    x + y = 1, x + y = 0, so it cannot certify infeasibility here)."""
    from scipy.optimize import linprog
    depths = {v["id"]: sorted(v["depth"]) for v in tree["vertices"]}
    index = {("l", pos): pos for pos in range(len(tree["edges"]))}
    for v in sorted(depths):
        for i in depths[v]:
            index[("v", v, i)] = len(index)
    if not index:
        return 1.0
    n = len(index) + 1  # the last variable is delta
    a_eq, b_eq = [], []
    for pos, e in enumerate(tree["edges"]):
        contact = e["contact"][f"{e['a']}->{e['b']}"]
        for i in e["depthE"]:
            row = [0.0] * n
            if ("v", e["a"], i) in index:
                row[index[("v", e["a"], i)]] += 1
            if ("v", e["b"], i) in index:
                row[index[("v", e["b"], i)]] -= 1
            row[pos] -= contact[i - 1]
            a_eq.append(row)
            b_eq.append(0.0)
    a_eq.append([1.0] * (n - 1) + [0.0])
    b_eq.append(1.0)
    a_ub = [[-1.0 if j == k else 1.0 if j == n - 1 else 0.0 for j in range(n)]
            for k in range(n - 1)]
    res = linprog([0.0] * (n - 1) + [-1.0], A_ub=a_ub, b_ub=[0.0] * (n - 1),
                  A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status == 2:
        return 0.0
    expect(res.status == 0, f"the reference LP solver failed: {res.message}")
    return -res.fun


# -- the checks ---------------------------------------------------------------------------


def _grob(code, report, data):
    syms = _symbols(data["vars"])
    order = _weighted_key(data["weights"]) if set(data["weights"]) != {"1"} else "grlex"
    expected = _basis([_parse(g, syms) for g in data["gens"]], syms, order)
    got = {_parse(g, syms) for g in report["result"]["basis"]}
    expect(len(got) == len(report["result"]["basis"]) and got == expected,
           "basis differs from sympy's reduced basis")


def _smooth(code, report, data):
    pres = data["pres"]
    syms = _symbols(pres["vars"])
    rels = [_parse(r, syms) for r in pres["relations"]]
    jac = sympy.Matrix(rels).jacobian(syms)
    minors = [sympy.expand(jac[:, list(cols)].det())
              for cols in combinations(range(len(syms)), len(rels))]
    result = report["result"]
    expect(result["smooth"] is True, "expected a smooth verdict")
    cert = result["certificate"]
    gens = [_parse(g, syms) for g in cert["generators"]]
    expect(gens == rels + [m for m in minors if m != 0],
           "certificate generators are not the relations and the nonzero minors")
    total = sum(_parse(c, syms) * g for c, g in zip(cert["cofactors"], gens))
    expect(len(cert["cofactors"]) == len(gens) and sympy.expand(total) == 1,
           "certificate does not replay to 1")


def _degenerate(code, report, data):
    result = report["result"]
    expect(result["specialFiberMatchesGr"] and result["grMatchesTheta"] and result["flatShadow"],
           "degeneration flags are not all true")
    theta = theta_levels(data["config"], data["bound"])
    expect(result["thetaLevels"] == theta, "theta levels differ from the recount")
    expect(result["grLevels"] == theta and result["genericFiberLevels"] == theta,
           "gr or generic fiber levels differ from the theta recount")


def _conic_gr(code, report, data):
    n = data["n"]
    pres = conic_presentation(n)
    result = report["result"]
    check_gr_presentation(result["gr"], pres)
    leads = [(1,) * n + (0, 0), (0,) * n + (1, 1)]
    levels = _monomial_levels(pres["weights"], Fraction(data["bound"]), leads)
    expect(result["srFixtureLevels"] == levels, "fixture levels differ from the recount")
    expect(result["grLevels"] == levels and result["grMatchesFixture"] is True,
           "gr levels differ from the fixture recount")


def _conic(code, report, data):
    pres = conic_presentation(data["n"])
    got = report["result"]["presentation"]
    syms = _symbols(pres["vars"])
    expect(got["vars"] == pres["vars"] and got["weights"] == pres["weights"],
           "conic variables or weights differ")
    expect([_parse(r, syms) for r in got["relations"]]
           == [_parse(r, syms) for r in pres["relations"]], "conic relations differ")


def _gr(code, report, data):
    result = report["result"]
    syms, order, tops = check_gr_presentation(result["presentation"], data["pres"])
    if data.get("bound") is not None:
        leads = [sympy.Poly(g, *syms).monoms(order=order)[0] for g in tops]
        levels = _monomial_levels(data["pres"]["weights"], Fraction(data["bound"]), leads)
        expect(result["levels"] == levels, "gr levels differ from the standard-monomial recount")


def _rees(code, report, data):
    pres = data["pres"]
    weights = [Fraction(w) for w in pres["weights"]]
    rescale = lcm(*(w.denominator for w in weights))
    result = report["result"]
    got = result["presentation"]
    expect(result["rescale"] == rescale, "rescale is not the weight denominators' lcm")
    expect(got["vars"] == ["t"] + list(pres["vars"]), "Rees variables differ")
    int_weights = [1] + [w * rescale for w in weights]
    expect([Fraction(w) for w in got["weights"]] == int_weights, "Rees weights differ")
    syms = _symbols(got["vars"])
    rels = [_parse(r, syms) for r in got["relations"]]
    for rel in rels:
        degs = {sum(w * e for w, e in zip(int_weights, m)) for m in sympy.Poly(rel, *syms).monoms()}
        expect(len(degs) == 1, "a Rees relation is not weight-homogeneous")
    t, base = syms[0], syms[1:]
    original = [_parse(r, base) for r in pres["relations"]]
    expect(_same_ideal([r.subs(t, 1) for r in rels], original, base),
           "the t = 1 fiber is not the original ideal")
    _, order, tops = _gr_expected(pres)
    expect(_same_ideal([sympy.expand(r.subs(t, 0)) for r in rels], tops, base, order),
           "the t = 0 fiber is not the initial ideal")


def _fiber(code, report, data):
    pres = data["pres"]
    c = Fraction(data["t"])
    weights = [Fraction(w) for w in pres["weights"]]
    rescale = lcm(*(w.denominator for w in weights))
    got = report["result"]["presentation"]
    expect(report["result"]["t"] == fmt(c), "fiber parameter differs")
    expect(got["vars"] == list(pres["vars"]) and
           [Fraction(w) for w in got["weights"]] == weights, "fiber variables or weights differ")
    syms = _symbols(pres["vars"])
    scale = {s: s * sympy.Rational(c) ** (-int(w * rescale)) for s, w in zip(syms, weights)}
    expected = [sympy.expand(_parse(r, syms).subs(scale, simultaneous=True))
                for r in pres["relations"]]
    expect(_same_ideal([_parse(r, syms) for r in got["relations"]], expected, syms),
           "fiber ideal is not the rescaled original ideal")


def _gorenstein(code, report, data):
    result = report["result"]
    expect(result["verdict"] is data["verdict"], f"Gorenstein verdict should be {data['verdict']}")
    expect(result["dimension"] == data["dim"], "dimension differs")
    if data["verdict"]:
        expect(not result["failures"] and result["coreEqualsWhole"], "a true verdict with failures")
    else:
        expect(result["failures"] or not result["coreEqualsWhole"], "a false verdict without witness")


def _homology(code, report, data):
    result = report["result"]
    expect(result["field"] == data["field"], "field name differs")
    expect(result["betti"] == data["betti"], f"Betti numbers differ from {data['betti']}")
    alternating = sum((-1) ** int(d) * b for d, b in result["betti"].items())
    expect(alternating == reduced_euler(data["facets"]), "Euler-Poincare fails")


def _link(code, report, data):
    face = frozenset(data["face"])
    faces = closure(data["facets"])
    link = {g for g in faces if not (g & face) and (g | face) in faces}
    result = report["result"]
    expect(result["facets"] == maximal(link), "link facets differ")
    expect(result["localHomology"] == data["local"], "local homology differs")


def _core(code, report, data):
    facets = [set(f) for f in data["facets"]]
    verts = sorted(set().union(*facets))
    kept = {v for v in verts if not all(v in f for f in facets)}
    core = {f for f in closure(data["facets"]) if f <= kept}
    expect(report["result"]["facets"] == maximal(core), "core facets differ")


def _sr_multiply(code, report, data):
    expected = theta_product(data["config"], data["lhs"], data["rhs"])
    got = {(tuple(t["v"]), t["component"]): Fraction(t["coeff"]) for t in report["result"]["product"]}
    expect(len(got) == len(report["result"]["product"]) and got == expected,
           "theta product differs from the recomputed product")


def _sr_hilbert(code, report, data):
    expect(report["result"]["levels"] == theta_levels(data["config"], data["bound"]),
           "theta levels differ from the recount")


def _sr_present(code, report, data):
    config = data["config"]
    faces = {frozenset(s["I"]) for s in config["strata"] if s["components"]}
    verts = sorted(set().union(*faces))
    nonfaces = {frozenset(f"x{v}" for v in c) for size in range(1, len(verts) + 1)
                for c in combinations(verts, size)
                if frozenset(c) not in faces and all(frozenset(c) - {v} in faces for v in c)}
    got = report["result"]["presentation"]
    weights = [config["kappa"][v - 1] if data["kappa"] else "1" for v in verts]
    expect(got["vars"] == [f"x{v}" for v in verts], "Stanley-Reisner variables differ")
    expect([Fraction(w) for w in got["weights"]] == [Fraction(w) for w in weights],
           "Stanley-Reisner weights differ")
    rels = [frozenset(r.split("*")) for r in got["relations"]]
    expect(len(rels) == len(nonfaces) and set(rels) == nonfaces,
           "relations are not the minimal non-faces")


def _tree_rho(code, report, data):
    matrix, ncols = rho_matrix(data["tree"])
    result = report["result"]
    rank = _rank(matrix)
    expect(result["rho"]["matrix"] == matrix, "incidence matrix differs")
    expect(result["rank"] == rank and result["kernelDim"] == ncols - rank,
           "rank or kernel dimension differs from sympy")


def _tree_vdim(code, report, data):
    tree = data["tree"]
    matrix, ncols = rho_matrix(tree)
    rank = _rank(matrix)
    edge_sum = sum(len(e["depthE"]) - 1 for e in tree["edges"])
    vertex_sum = sum(len(v["depth"]) for v in tree["vertices"])
    deg = tree["deg_x0"]
    expected = {"vdimPrelog": deg + 2 * (edge_sum - vertex_sum),
                "vdimLog": deg - 2 * (ncols - rank), "kernelDim": ncols - rank,
                "obstructionDim": 2 * (sum(len(e["depthE"]) for e in tree["edges"]) - rank)}
    expect(report["result"] == expected, f"dimensions differ from {expected}")


def _tree_feasible(code, report, data):
    tree = data["tree"]
    result = report["result"]
    if not result["feasible"]:
        expect(balancing_optimum(tree) <= 1e-9, "the reference LP finds a strictly balanced solution")
        return
    cert = result["certificate"]
    expect(cert is not None, "feasible without a certificate")
    values = {int(v): [Fraction(x) for x in vec] for v, vec in cert["vertexValues"].items()}
    for vertex in tree["vertices"]:
        vec = values[vertex["id"]]
        expect(len(vec) == tree["k"], "certificate vector length differs")
        for i, x in enumerate(vec, start=1):
            expect(x > 0 if i in vertex["depth"] else x == 0, "certificate sign pattern fails")
    for e in tree["edges"]:
        lam = Fraction(cert["edgeScalars"][f"{e['a']}->{e['b']}"])
        contact = e["contact"][f"{e['a']}->{e['b']}"]
        expect(lam > 0, "edge scalar is not positive")
        expect(all(values[e["a"]][i] - values[e["b"]][i] == lam * contact[i]
                   for i in range(tree["k"])), "certificate does not balance an edge")


def _tree_validate(code, report, data):
    expect(report["result"] == {"valid": True, "violations": []}, "a valid tree was rejected")


def _energy(code, report, data):
    params, payload, op = data["params"], data["input"], data["op"]
    kappa = [Fraction(x) for x in params["kappa"]]
    eps1 = Fraction(params["eps1"])
    pert = [Fraction(x) for x in params["epsPert"]]
    shell = 1 - eps1 ** 2 / 2

    def w(v):
        return sum(k * x for k, x in zip(kappa, v))

    if op == "winding":
        expected = {"weight": fmt(w(payload["v"]))}
    elif op == "orbit-action":
        expected = {"action": fmt(-w(payload["v"]) * shell)}
    elif op == "pss":
        energy = w(payload["v"]) - w(payload["x0"]["v"]) * shell
        expected = {"energy": fmt(energy), "energyApprox": fmt(energy)}
    elif op == "monotone":
        expected = {"monotone": Fraction(payload["toWeight"]) <= Fraction(payload["fromWeight"])}
    else:
        ch = payload["chord"]
        a0 = [Fraction(x) for x in ch["alpha0"]]
        a1 = [Fraction(x) for x in ch["alpha1"]]
        f0, f1 = Fraction(ch["f0"]), Fraction(ch["f1"])
        if op == "chord-weight":
            total = (f0 - f1) / shell
            for p, i in enumerate(ch["I"]):
                total += kappa[i - 1] * (a0[p] + ch["v"][i - 1] + (a1[p] > a0[p]) - a1[p])
            expected = {"weight": fmt(total)}
        else:
            total = f1 - f0
            for p, i in enumerate(ch["I"]):
                factor = 1 - (eps1 + pert[i - 1]) ** 2 / 2
                total += kappa[i - 1] * factor * (a1[p] - ch["v"][i - 1] - (a1[p] > a0[p]) - a0[p])
            expected = {"action": fmt(total)}
    expect(report["result"] == expected, f"energy result differs from {expected}")


def _appc_admissible(code, report, data):
    found = sorted(list(e) for e in product(range(3), repeat=4)
                   if e[2] + e[3] <= 1 and e[0] + e[3] <= 2 and e[1] + e[3] <= 2
                   and e[0] + e[1] - e[2] + e[3] == 2)
    result = report["result"]
    expect(result["monomials"] == found and result["count"] == len(found) == 7
           and result["matchesExpected"] is True, "admissible monomials differ")


def _appc_singular(code, report, data):
    x1, x2, x3, u = sympy.symbols("x1 x2 x3 u")
    coeffs = sympy.symbols("a1:8")
    monos = [x1 * x2, x1 ** 2, x2 ** 2, x1 ** 2 * x2 * x3, x1 * x2 ** 2 * x3, x1 * u, x2 * u]
    f = u * (x1 * x2 * x3 - u) - sum(a * m for a, m in zip(coeffs, monos))
    line = {x1: 0, x2: 0, u: 0}
    singular = all(sympy.expand(g.subs(line)) == 0
                   for g in [f] + [sympy.diff(f, s) for s in (x1, x2, x3, u)])
    result = report["result"]
    expect(singular and result["singularAlongLine"] is True and result["residuals"] == [],
           "the family is singular along the line, the report says otherwise")


def _appc_sr(code, report, data):
    theta = theta_levels(APPC_CONFIG, data["bound"])
    result = report["result"]
    expect(result["thetaLevels"] == theta and result["quotientLevels"] == theta
           and result["quotientMatchesTheta"] is True, "Appendix C levels differ from the recount")


def _schema(code, report, data):
    expect(isinstance(report.get("schema"), dict) and report["schema"], "schema missing")


def _input_error(code, report, data):
    error = report.get("error") or {}
    expect(error.get("type") in ("input", "usage") and "result" not in report,
           "bad input was not reported as an input error")


CHECKS = {
    "grob": _grob, "smooth": _smooth, "degenerate": _degenerate, "conic_gr": _conic_gr,
    "conic": _conic, "gr": _gr, "rees": _rees, "fiber": _fiber,
    "gorenstein": _gorenstein, "homology": _homology, "link": _link, "core": _core,
    "sr_multiply": _sr_multiply, "sr_hilbert": _sr_hilbert, "sr_present": _sr_present,
    "tree_rho": _tree_rho, "tree_vdim": _tree_vdim, "tree_feasible": _tree_feasible,
    "tree_validate": _tree_validate, "energy": _energy,
    "appc_admissible": _appc_admissible, "appc_singular": _appc_singular, "appc_sr": _appc_sr,
    "schema": _schema, "input_error": _input_error,
}


def check_job(job, code, report):
    """Raise CheckFailed unless the job's exit code and report are right."""
    expect(code == job["exit"], f"exit code {code}, expected {job['exit']}")
    if code == 0 and "schema" not in report:
        expect(isinstance(report.get("result"), dict), "report has no result")
    CHECKS[job["check"]](code, report, job["data"])


def check_batch(jobs, codes, texts, batch_stdout, batch_code):
    """The batch report carries, per job, the exit code and the very report
    the in-process call rendered."""
    expected_exit = max(job["exit"] for job in jobs)
    expect(batch_code == expected_exit, f"batch exit {batch_code}, expected {expected_exit}")
    entries = json.loads(batch_stdout)["result"]["jobs"]
    expect(len(entries) == len(jobs), "batch job count differs")
    for job, code, text, entry in zip(jobs, codes, texts, entries):
        expect(entry["args"] == job["args"] and entry["exit"] == code,
               f"batch entry for {job['args'][:2]} differs")
        rendered = json.dumps(entry["report"], sort_keys=True, indent=2) + "\n"
        expect(rendered == text, f"batch report for {job['args'][:2]} differs from the pass")


def _bump_last_level(key):
    def corrupt(result):
        result[key][-1]["count"] += 1
    return corrupt


def _append_one(key):
    def corrupt(result):
        target = result
        for part in key[:-1]:
            target = target[part]
        target[key[-1]][0] += " + 1"
    return corrupt


def _flip(key):
    def corrupt(result):
        result[key] = not result[key]
    return corrupt


def _energy_corrupt(result):
    key = sorted(result)[0]
    value = result[key]
    result[key] = (not value) if isinstance(value, bool) else fmt(Fraction(value) + 1)


def _first_betti(result):
    key = sorted(result["betti"])[0]
    result["betti"][key] += 1


# Each corruption edits report["result"] in place (or, for the report-level
# checks, the report itself) in a way the matching check must reject.
CORRUPT = {
    "grob": _append_one(("basis",)),
    "smooth": _append_one(("certificate", "cofactors")),
    "degenerate": _bump_last_level("thetaLevels"),
    "conic_gr": _bump_last_level("grLevels"),
    "conic": _append_one(("presentation", "relations")),
    "gr": _append_one(("presentation", "relations")),
    "rees": _append_one(("presentation", "relations")),
    "fiber": _append_one(("presentation", "relations")),
    "gorenstein": _flip("verdict"),
    "homology": _first_betti,
    "link": lambda r: r["facets"].append([99]),
    "core": lambda r: r["facets"].append([99]),
    "sr_multiply": lambda r: r["product"].append({"v": [9, 9], "component": 0, "coeff": "1"}),
    "sr_hilbert": _bump_last_level("levels"),
    "sr_present": lambda r: r["presentation"]["relations"].append("x1"),
    "tree_rho": lambda r: r.update(rank=r["rank"] + 1),
    "tree_vdim": lambda r: r.update(obstructionDim=r["obstructionDim"] + 2),
    "tree_feasible": _flip("feasible"),
    "tree_validate": _flip("valid"),
    "energy": _energy_corrupt,
    "appc_admissible": lambda r: r.update(count=r["count"] + 1),
    "appc_singular": _flip("singularAlongLine"),
    "appc_sr": _bump_last_level("thetaLevels"),
    "schema": None,
    "input_error": None,
}


def corrupt_report(job, report):
    """A deliberately wrong copy of a good report for this job."""
    bad = json.loads(json.dumps(report))
    action = CORRUPT[job["check"]]
    if action is None:
        bad.pop("schema", None)
        bad.pop("error", None)
        bad["result"] = {}
    else:
        action(bad["result"])
    return bad
