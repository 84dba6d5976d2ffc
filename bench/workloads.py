"""Seeded inputs and job lists for the benchmark workloads.

A job is a dict with
  "args":  the argv of one `logcy` subcommand, exactly as a user passes it;
  "exit":  the documented exit code for that input;
  "check": the name of the independent check in checks.py;
  "data":  what that check needs (the inputs in plain Python form).

build() writes every input file and the batch manifest under a directory
and returns the job list.  Everything here is standard library only and
does not import logcy, so the same inputs come out whichever version of
the program is being measured.  The same seed gives the same bytes.
"""

import argparse
import json
import os
import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import lcm

WORKLOADS = ("ideals", "complexes", "theta_trees", "cli_small")

CYCLIC4 = ("a,b,c,d", ["a + b + c + d", "a*b + b*c + c*d + d*a",
                       "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"])
KATSURA3 = ("u0,u1,u2,u3", ["u0 + 2*u1 + 2*u2 + 2*u3 - 1",
                            "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
                            "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
                            "2*u0*u2 + u1^2 + 2*u1*u3 - u2"])

# Appendix C: three boundary divisors, all pairwise strata connected, the
# triple stratum two points; and its five-generator filtered presentation.
APPC_CONFIG = {
    "k": 3, "kappa": ["1", "1", "1"], "a": ["1", "1", "1"],
    "strata": [{"I": [], "components": [0]},
               {"I": [1], "components": [0]}, {"I": [2], "components": [0]},
               {"I": [3], "components": [0]},
               {"I": [1, 2], "components": [0]}, {"I": [1, 3], "components": [0]},
               {"I": [2, 3], "components": [0]},
               {"I": [1, 2, 3], "components": [1, 2]}],
}
APPC_PRES = {"vars": ["x1", "x2", "x3", "u", "v"], "weights": ["1", "1", "1", "3", "3"],
             "relations": ["x1*x2*x3 - u - v", "u*v"]}

# Minimal triangulations with known reduced Betti numbers.
TORUS7 = [sorted(((i % 7) + 1, ((i + 1) % 7) + 1, ((i + 3) % 7) + 1)) for i in range(7)] + \
         [sorted(((i % 7) + 1, ((i + 2) % 7) + 1, ((i + 3) % 7) + 1)) for i in range(7)]
RP2_6 = [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
         [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6]]


def sphere_facets(d):
    """Boundary of the simplex on d+2 vertices."""
    return [list(c) for c in combinations(range(1, d + 3), d + 1)]


def cross_facets(n):
    """Boundary of the n-dimensional cross-polytope (antipodes 2i-1, 2i)."""
    return [list(c) for c in product(*[(2 * i - 1, 2 * i) for i in range(1, n + 1)])]


def sphere_betti(d):
    return {str(j): int(j == d) for j in range(-1, d + 1)}


def conic_presentation(n):
    kappa1 = min(Fraction(2), Fraction(2 * n - 1, 2))
    us = [f"u{i}" for i in range(1, n + 1)]
    return {"vars": us + ["w1", "w2"],
            "weights": ["1"] * n + [str(kappa1), "1"],
            "relations": ["*".join(us) + " - w1 - 1", "w1*w2 - 1"]}


def _relabel(facets, rng):
    verts = sorted({v for f in facets for v in f})
    image = verts[:]
    rng.shuffle(image)
    table = dict(zip(verts, image))
    return [sorted(table[v] for v in f) for f in facets]


# -- seeded random objects ----------------------------------------------------------


def random_presentation(rng):
    """Two relations in two variables without constant terms, so the ideal
    lies in the maximal ideal at the origin and is never the unit ideal."""
    names = ["x", "y"]
    weights = [rng.choice(("1", "2", "1/2", "3/2")) for _ in names]
    relations = []
    for _ in range(2):
        terms = set()
        size = rng.randint(2, 3)
        while len(terms) < size:
            exps = tuple(rng.randint(0, 2) for _ in names)
            if 1 <= sum(exps) <= 3:
                terms.add(exps)
        pieces = []
        for exps in sorted(terms, reverse=True):
            coeff = rng.choice((-3, -2, -1, 1, 2, 3))
            mono = "*".join(f"{n}^{e}" if e > 1 else n
                            for n, e in zip(names, exps) if e)
            pieces.append(f"{coeff}*{mono}")
        relations.append(" + ".join(pieces))
    return {"vars": names, "weights": weights, "relations": relations}


def _components(cell, edges):
    comps, left = [], set(cell)
    while left:
        seen = {min(left)}
        frontier = [min(left)]
        while frontier:
            t = frontier.pop()
            for a, b in edges:
                other = b if a == t else a if b == t else None
                if other is not None and other in cell and other not in seen:
                    seen.add(other)
                    frontier.append(other)
        comps.append(frozenset(seen))
        left -= seen
    return sorted(comps, key=min)


def random_configuration(rng, k, comp_max, want_disconnected):
    """Token model: divisors are token subsets of a connected graph and stratum
    components are connected components of induced subgraphs, so component
    maps are containment maps and compose consistently by construction."""
    while True:
        n_tokens = rng.randint(4, 8)
        edges = set()
        order = list(range(n_tokens))
        rng.shuffle(order)
        for i in range(1, n_tokens):
            edges.add(tuple(sorted((order[i], rng.choice(order[:i])))))
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(range(n_tokens), 2)
            edges.add(tuple(sorted((a, b))))
        divisors = {i: {t for t in range(n_tokens) if rng.random() < 0.6}
                    for i in range(1, k + 1)}
        comps = {}
        for size in range(k + 1):
            for index in combinations(range(1, k + 1), size):
                cell = set(range(n_tokens))
                for i in index:
                    cell &= divisors[i]
                comps[index] = _components(cell, edges)
        most = max(len(c) for c in comps.values())
        if most > comp_max or (want_disconnected and most < 2) or \
                any(not comps[(i,)] for i in range(1, k + 1)):
            continue
        strata, maps = [], []
        for index, cs in comps.items():
            if not cs:
                continue
            strata.append({"I": list(index), "components": list(range(len(cs)))})
            for i in index:
                sub = tuple(j for j in index if j != i)
                assign = {str(cid): next(tid for tid, t in enumerate(comps[sub]) if c <= t)
                          for cid, c in enumerate(cs)}
                maps.append({"from": list(index), "to": list(sub), "assign": assign})
        # a seeded order of a fixed multiset for each k: the Hilbert
        # enumeration box for a given bound then has the same size on every seed
        kappa = rng.sample(("1/2", "1", "3/2", "2", "1")[:k], k)
        return {"k": k, "kappa": kappa, "a": ["1"] * k, "strata": strata, "maps": maps}


def hilbert_bound(config, target):
    """Smallest half-integer bound whose enumeration box holds at least target
    vectors, so graded_dimension costs about the same on every seed."""
    kappa = [Fraction(x) for x in config["kappa"]]
    scale = 2 * lcm(*(k.denominator for k in kappa))
    steps = [int(k * scale) for k in kappa]
    halves = 2
    while _count_up_to(steps, halves * scale // 2) < target:
        halves += 1
    return Fraction(halves, 2)


def _count_up_to(steps, top):
    """Vectors m >= 0 with sum(steps[i] * m[i]) <= top."""
    table = [1] + [0] * top
    for step in steps:
        for w in range(step, top + 1):
            table[w] += table[w - step]
    return sum(table)


def basis_symbols(config):
    """Theta basis symbols (vector, component) with 0/1 entries (all pole
    orders are 1 here, so every vector on a nonempty stratum counts)."""
    strata = {frozenset(s["I"]): s["components"] for s in config["strata"]}
    out = []
    for vec in product(range(2), repeat=config["k"]):
        support = frozenset(i + 1 for i, x in enumerate(vec) if x)
        for comp in strata.get(support, []):
            out.append((vec, comp))
    return out


def theta_text(terms):
    return " + ".join(f"{c}*theta[{','.join(map(str, v))};{comp}]" for c, (v, comp) in terms)


def balanced_tree(rng, k, n):
    """Contact tree balanced by construction: each non-root vertex has a depth
    set of two indices carrying values 1 or 2, every edge scalar is 1, so each
    contact vector is the difference of its ends' values.  Its balancing LP
    is feasible, and its size and entry sizes are the same on every seed."""
    parent = {v: rng.randint(1, v - 1) if v > 1 else 0 for v in range(1, n)}
    depths, values = {0: []}, {0: [0] * k}
    for v in range(1, n):
        depths[v] = sorted(rng.sample(range(1, k + 1), 2))
        values[v] = [rng.randint(1, 2) if i + 1 in depths[v] else 0 for i in range(k)]
    edges = []
    for v in range(1, n):
        p = parent[v]
        contact = [values[v][i] - values[p][i] for i in range(k)]
        edges.append({"a": v, "b": p, "depthE": sorted(set(depths[v]) | set(depths[p])),
                      "contact": {f"{v}->{p}": contact}})
    return {"k": k, "root": 0, "deg_x0": rng.randint(0, 6),
            "vertices": [{"id": v, "depth": depths[v]} for v in range(n)],
            "edges": edges, "legs": [{"vertex": rng.randrange(n), "label": None}]}


def random_tree(rng, k, n, depth_size=None, rows=None, nonzero=False):
    """Valid contact tree on n vertices with root 0 (one child), each edge's
    depth the union of its ends' depths and contacts supported there.  With
    depth_size every non-root vertex gets that many indices, which fixes the
    incidence matrix's column count; with rows as well, the depth sets are
    drawn again until the edge depths add up to rows, its row count.  With
    nonzero, every contact in an edge's depth is nonzero."""
    depths = {0: []}
    parent = {1: 0} if n >= 2 else {}
    for v in range(2, n):
        parent[v] = rng.randint(1, v - 1)
    while True:
        for v in range(1, n):
            if depth_size is None:
                depths[v] = sorted(i for i in range(1, k + 1) if rng.random() < 0.6)
            else:
                depths[v] = sorted(rng.sample(range(1, k + 1), depth_size))
        if rows is None or rows == sum(len(set(depths[v]) | set(depths[parent[v]]))
                                       for v in range(1, n)):
            break
    edges = []
    for v in range(1, n):
        p = parent[v]
        depth_e = sorted(set(depths[v]) | set(depths[p]))
        contact = [0] * k
        for i in depth_e:
            contact[i - 1] = rng.choice((-2, -1, 1, 2)) if nonzero else rng.randint(-2, 2)
        edges.append({"a": v, "b": p, "depthE": depth_e, "contact": {f"{v}->{p}": contact}})
    return {"k": k, "root": 0, "deg_x0": rng.randint(-2, 6),
            "vertices": [{"id": v, "depth": depths[v]} for v in range(n)],
            "edges": edges, "legs": [{"vertex": rng.randrange(n), "label": None}]}


# -- workload definitions ---------------------------------------------------------------


class _Builder:
    def __init__(self, directory):
        self.dir = directory
        self.jobs = []

    def file(self, name, payload):
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload if isinstance(payload, str) else json.dumps(payload))
        return path

    def job(self, args, check, exit=0, **data):
        self.jobs.append({"args": [str(a) for a in args], "exit": exit,
                          "check": check, "data": data})


def _grob(b, spec, weights):
    names, gens = spec
    b.job(["ring", "grob", "--vars", names, "--weights", weights, "--gens", *gens], "grob",
          vars=names.split(","), weights=weights.split(","), gens=gens)


def _ideals(b, rng):
    _grob(b, CYCLIC4, "1,1,1,1")
    _grob(b, KATSURA3, "1,1,1,1")
    _grob(b, CYCLIC4, "1,2,3,4")
    for n in (2, 3):
        pres = conic_presentation(n)
        path = b.file(f"conic{n}.json", pres)
        b.job(["ring", "smooth", "--pres", path, "--codim", 2], "smooth", pres=pres)
    pres_path = b.file("appc_pres.json", APPC_PRES)
    config_path = b.file("appc_config.json", APPC_CONFIG)
    b.job(["ring", "degenerate", "--pres", pres_path, "--sr-config", config_path,
           "--bound", 4], "degenerate", config=APPC_CONFIG, bound="4")
    b.job(["example", "conic", "--n", 3, "--gr"], "conic_gr", n=3, bound="8")
    for idx in range(12):
        pres = random_presentation(rng)
        path = b.file(f"pres{idx}.json", pres)
        bound = rng.choice(("3", "4"))
        t = rng.choice(("2", "-1", "1/2", "3"))
        b.job(["ring", "gr", "--pres", path, "--bound", bound], "gr", pres=pres, bound=bound)
        b.job(["ring", "rees", "--pres", path], "rees", pres=pres)
        b.job(["ring", "fiber", "--pres", path, "--t", t], "fiber", pres=pres, t=t)


def _complexes(b, rng):
    def write(name, facets):
        return b.file(name, {"facets": facets})

    sphere = write("sphere6.json", sphere_facets(6))
    b.job(["complex", "gorenstein", "--faces", sphere], "gorenstein",
          facets=sphere_facets(6), verdict=True, dim=6)
    cross5 = write("cross5.json", cross_facets(5))
    b.job(["complex", "gorenstein", "--faces", cross5], "gorenstein",
          facets=cross_facets(5), verdict=True, dim=4)
    torus = _relabel(TORUS7, rng)
    rp2 = _relabel(RP2_6, rng)
    torus_path, rp2_path = write("torus7.json", torus), write("rp2.json", rp2)
    b.job(["complex", "gorenstein", "--faces", torus_path], "gorenstein",
          facets=torus, verdict=False, dim=2)
    b.job(["complex", "gorenstein", "--faces", rp2_path], "gorenstein",
          facets=rp2, verdict=False, dim=2)
    # non-pure: a seeded triangulated disc with a dangling edge
    nonpure = _relabel([[1, 2, 3], [1, 3, 4], [1, 4, 5], [5, 6]], rng)
    path = write("nonpure.json", nonpure)
    b.job(["complex", "gorenstein", "--faces", path], "gorenstein",
          facets=nonpure, verdict=False, dim=2)
    p = rng.choice((3, 5, 7, 11))
    for name, facets, betti in (("torus7.json", torus, {"-1": 0, "0": 0, "1": 2, "2": 1}),
                                ("rp2.json", rp2, {"-1": 0, "0": 0, "1": 0, "2": 0})):
        b.job(["complex", "homology", "--faces", os.path.join(b.dir, name), "--field", f"F{p}"],
              "homology", facets=facets, field=f"F{p}", betti=betti)
    b.job(["complex", "homology", "--faces", rp2_path, "--field", "F2"], "homology",
          facets=rp2, field="F2", betti={"-1": 0, "0": 0, "1": 1, "2": 1})
    cross6 = write("cross6.json", cross_facets(6))
    for field in ("Q", f"F{p}"):
        b.job(["complex", "homology", "--faces", cross6, "--field", field], "homology",
              facets=cross_facets(6), field=field, betti=sphere_betti(5))
    cross4 = cross_facets(4)
    cross4_path = write("cross4.json", cross4)
    for size in (1, 2, 3):
        face = sorted(rng.choice(cross4)[:size])
        b.job(["complex", "link", "--faces", cross4_path, "--face", ",".join(map(str, face)),
               "--local-homology"], "link", facets=cross4, face=face, field="Q",
              local={str(j): int(j == 3) for j in range(size - 1, 4)})


def _theta_trees(b, rng):
    appc = b.file("appc_config.json", APPC_CONFIG)
    symbols = basis_symbols(APPC_CONFIG)
    for _ in range(6):
        lhs = theta_text([(1, rng.choice(symbols)), (2, rng.choice(symbols))])
        rhs = theta_text([(1, rng.choice(symbols))])
        b.job(["sr", "multiply", "--config", appc, "--lhs", lhs, "--rhs", rhs],
              "sr_multiply", config=APPC_CONFIG, lhs=lhs, rhs=rhs)
    b.job(["sr", "hilbert", "--config", appc, "--bound", 6], "sr_hilbert",
          config=APPC_CONFIG, bound="6")
    for idx in range(4):
        config = random_configuration(rng, k=4, comp_max=2, want_disconnected=True)
        path = b.file(f"config{idx}.json", config)
        symbols = basis_symbols(config)
        for _ in range(3):
            lhs = theta_text([(1, rng.choice(symbols)), (3, rng.choice(symbols))])
            rhs = theta_text([(1, rng.choice(symbols)), (1, rng.choice(symbols))])
            b.job(["sr", "multiply", "--config", path, "--lhs", lhs, "--rhs", rhs],
                  "sr_multiply", config=config, lhs=lhs, rhs=rhs)
        bound = str(hilbert_bound(config, 1500))
        b.job(["sr", "hilbert", "--config", path, "--bound", bound], "sr_hilbert",
              config=config, bound=bound)
    for idx in range(3):
        config = random_configuration(rng, k=5, comp_max=1, want_disconnected=False)
        path = b.file(f"connected{idx}.json", config)
        b.job(["sr", "present", "--config", path], "sr_present", config=config, kappa=False)
        b.job(["sr", "present", "--config", path, "--use-kappa"], "sr_present",
              config=config, kappa=True)
    # rho and vdim on random 9-vertex trees with two-index depth sets, 20
    # incidence rows and nonzero contacts.  With contacts drawn from -2..2
    # instead, the zero pattern made a tree's rank work vary by 23% (standard
    # deviation over mean) across seeds; nonzero, by 13%.  The exact LP's cost swings
    # several-fold with the size of its entries, so feasibility runs on small
    # random trees (mostly infeasible) and on trees balanced by construction
    # with small entries, which keeps a pass's cost the same across seeds.
    for idx in range(8):
        tree = random_tree(rng, k=3, n=9, depth_size=2, rows=20, nonzero=True)
        path = b.file(f"tree{idx}.json", tree)
        for op in ("rho", "vdim"):
            b.job(["tree", op, "--tree", path], f"tree_{op}", tree=tree)
    for idx in range(12):
        tree = balanced_tree(rng, k=3, n=4)
        b.job(["tree", "feasible", "--tree", b.file(f"balanced{idx}.json", tree)],
              "tree_feasible", tree=tree)
    for idx in range(4):
        tree = random_tree(rng, k=2, n=rng.randint(2, 3))
        b.job(["tree", "feasible", "--tree", b.file(f"small{idx}.json", tree)],
              "tree_feasible", tree=tree)


def _cli_small(b, rng):
    """Many cheap jobs from every subcommand family, plus documented bad input."""
    for group in (["complex", "homology"], ["sr", "hilbert"], ["ring", "gr"],
                  ["tree", "rho"], ["energy", "winding"], ["example", "conic"]):
        b.job([*group, "--schema"], "schema")
    cycle = [[1, 2], [2, 3], [1, 3]]
    cone = [[1, 2], [1, 3]]
    octa = cross_facets(3)
    files = {name: b.file(f"{name}.json", {"facets": f})
             for name, f in (("cycle", cycle), ("cone", cone), ("octa", octa))}
    for name, facets, betti in (("cycle", cycle, sphere_betti(1)), ("octa", octa, sphere_betti(2)),
                                ("cone", cone, {"-1": 0, "0": 0, "1": 0})):
        for field in ("Q", "F2", "F3"):
            b.job(["complex", "homology", "--faces", files[name], "--field", field],
                  "homology", facets=facets, field=field, betti=betti)
    for name, facets, verdict, dim in (("cycle", cycle, True, 1), ("octa", octa, True, 2),
                                       ("cone", cone, False, 1)):
        b.job(["complex", "gorenstein", "--faces", files[name]], "gorenstein",
              facets=facets, verdict=verdict, dim=dim)
        b.job(["complex", "core", "--faces", files[name]], "core", facets=facets)
    vertex = rng.randint(1, 6)
    b.job(["complex", "link", "--faces", files["octa"], "--face", vertex, "--local-homology"],
          "link", facets=octa, face=[vertex], field="Q", local={"0": 0, "1": 0, "2": 1})

    appc = b.file("appc_config.json", APPC_CONFIG)
    p2 = {**APPC_CONFIG, "strata": APPC_CONFIG["strata"][:-1]}
    p2_path = b.file("p2_config.json", p2)
    symbols = basis_symbols(APPC_CONFIG)
    for _ in range(3):
        lhs, rhs = theta_text([(1, rng.choice(symbols))]), theta_text([(1, rng.choice(symbols))])
        b.job(["sr", "multiply", "--config", appc, "--lhs", lhs, "--rhs", rhs],
              "sr_multiply", config=APPC_CONFIG, lhs=lhs, rhs=rhs)
    for config, path in ((APPC_CONFIG, appc), (p2, p2_path)):
        b.job(["sr", "hilbert", "--config", path, "--bound", 3], "sr_hilbert",
              config=config, bound="3")
    b.job(["sr", "present", "--config", p2_path], "sr_present", config=p2, kappa=False)

    _grob(b, ("x,y", ["x^2 - y", "y^2 - x"]), "1,1")
    _grob(b, ("x,y,z", ["x*y - z", "y*z - x", "z*x - y"]), "1,1,1")
    tiny = random_presentation(rng)
    tiny_path = b.file("tiny_pres.json", tiny)
    b.job(["ring", "gr", "--pres", tiny_path, "--bound", 3], "gr", pres=tiny, bound="3")
    b.job(["ring", "rees", "--pres", tiny_path], "rees", pres=tiny)
    b.job(["ring", "fiber", "--pres", tiny_path, "--t", 2], "fiber", pres=tiny, t="2")
    circle = {"vars": ["x", "y"], "weights": ["1", "1"], "relations": ["x^2 + y^2 - 1"]}
    circle_path = b.file("circle.json", circle)
    b.job(["ring", "smooth", "--pres", circle_path, "--codim", 1], "smooth", pres=circle)
    sr_pres = {"vars": ["x1", "x2", "x3"], "weights": ["1", "1", "1"],
               "relations": ["x1*x2*x3"]}
    b.job(["ring", "degenerate", "--pres", b.file("sr_pres.json", sr_pres),
           "--sr-config", p2_path, "--bound", 3], "degenerate", config=p2, bound="3")

    for idx in range(2):
        tree = random_tree(rng, k=2, n=rng.randint(2, 4))
        path = b.file(f"tree{idx}.json", tree)
        for op in ("validate", "rho", "vdim", "feasible"):
            b.job(["tree", op, "--tree", path], f"tree_{op}", tree=tree)

    k = 3
    params = {"kappa": [rng.choice(("1", "2", "1/2")) for _ in range(k)], "eps1": "1/10",
              "epsPert": ["0", "1/100", "0"]}
    params_path = b.file("params.json", params)
    winding = {"v": [rng.randint(0, 3) for _ in range(k)]}
    pss = {"v": winding["v"], "x0": {"v": [rng.randint(0, 2) for _ in range(k)]}}
    chord = {"chord": {"y": 1, "I": [1, 3], "alpha0": ["1/5", "3/4"], "alpha1": ["7/10", "1/4"],
                       "v": [rng.randint(0, 2), 0, rng.randint(0, 2)], "f0": "1/3", "f1": "-1/2"}}
    monotone = {"fromWeight": "5/2", "toWeight": rng.choice(("1", "3", "5/2"))}
    for op, payload in (("winding", winding), ("orbit-action", winding), ("pss", pss),
                        ("chord-weight", chord), ("chord-action", chord),
                        ("monotone", monotone)):
        path = b.file(f"energy_{op}.json", payload)
        b.job(["energy", op, "--params", params_path, "--input", path], "energy",
              op=op, params=params, input=payload)

    b.job(["example", "conic", "--n", 2], "conic", n=2)
    b.job(["example", "appc", "--check", "admissible"], "appc_admissible")
    b.job(["example", "appc", "--check", "singular-line"], "appc_singular")
    b.job(["example", "appc", "--check", "sr", "--bound", 3], "appc_sr", bound="3")

    # documented bad input: each exits 2 with an input or usage error report
    bad_json = b.file("malformed.json", '{"facets": [[1, 2], [2, 3]')
    no_kappa = b.file("no_kappa.json", {"k": 1, "a": ["1"]})
    bad_jobs = [
        ["complex", "homology", "--faces", files["cycle"], "--field", "F4"],
        ["complex", "homology", "--faces", bad_json],
        ["complex", "link", "--faces", files["cycle"], "--face", "1,x"],
        ["sr", "hilbert", "--config", no_kappa, "--bound", "2"],
        ["sr", "multiply", "--config", appc, "--lhs", "theta[1,0]", "--rhs", "theta[0,1,0]"],
        ["ring", "grob", "--vars", "x,y", "--weights", "1,1", "--gens", "x^^2 - y"],
        ["ring", "grob", "--vars", "x,y", "--weights", "1,0", "--gens", "x - y"],
        ["tree", "rho", "--tree", os.path.join(b.dir, "missing.json")],
        ["energy", "winding", "--params", params_path, "--input", no_kappa],
        ["complex", "frobnicate"],
    ]
    for argv in bad_jobs:
        b.job(argv, "input_error", exit=2)


_DEFINITIONS = {"ideals": _ideals, "complexes": _complexes,
                "theta_trees": _theta_trees, "cli_small": _cli_small}


def build(workload, seed, directory):
    """Write the workload's seeded inputs and manifest; return its job list."""
    os.makedirs(directory, exist_ok=True)
    builder = _Builder(directory)
    _DEFINITIONS[workload](builder, random.Random(f"{workload}:{seed}"))
    builder.file("manifest.json", {"jobs": [{"args": job["args"]} for job in builder.jobs]})
    return builder.jobs


def main():
    """Set-up as a user pays it: load the program, then write the inputs.
    Prints the elapsed seconds; bench/run.py takes the median of several."""
    parser = argparse.ArgumentParser(description="write a workload's inputs and manifest")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    start = time.perf_counter()
    import logcy.cli  # noqa: F401
    build(args.workload, args.seed, args.dir)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
