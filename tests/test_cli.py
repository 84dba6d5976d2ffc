"""CLI behavior: exit codes, JSON reports, schemas, batch determinism."""

import hashlib
import json
import subprocess
import sys
import tracemalloc

import pytest

from logcy import cli, groebner, linprog, mirror, trees
from logcy.errors import COUNT_LIMIT, FACE_LIMIT
from logcy.poly import Polynomial
from logcy.cli import (EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_UNSUPPORTED, main,
                       render_report, run)


@pytest.fixture()
def fixtures(tmp_path):
    paths = {}

    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        paths[name] = str(path)

    write("cycle.json", {"facets": [[1, 2], [2, 3], [1, 3]]})
    write("cone.json", {"facets": [[1, 2], [1, 3]]})
    write("appc.json", {
        "k": 3,
        "kappa": ["1", "1", "1"],
        "a": ["1", "1", "1"],
        "strata": [
            {"I": [], "components": [0]},
            {"I": [1], "components": [0]}, {"I": [2], "components": [0]},
            {"I": [3], "components": [0]},
            {"I": [1, 2], "components": [0]}, {"I": [1, 3], "components": [0]},
            {"I": [2, 3], "components": [0]},
            {"I": [1, 2, 3], "components": [1, 2]},
        ],
    })
    write("p2.json", {
        "k": 3,
        "kappa": ["1", "1", "1"],
        "a": ["1", "1", "1"],
        "strata": [
            {"I": [], "components": [0]},
            {"I": [1], "components": [0]}, {"I": [2], "components": [0]},
            {"I": [3], "components": [0]},
            {"I": [1, 2], "components": [0]}, {"I": [1, 3], "components": [0]},
            {"I": [2, 3], "components": [0]},
        ],
    })
    write("pres.json", {"vars": ["x"], "weights": ["1"], "relations": ["x^2 - x"]})
    write("circle_pres.json", {"vars": ["x", "y"], "weights": ["1", "1"],
                               "relations": ["x^2 + y^2 - 1"]})
    write("tree.json", {
        "k": 1, "root": 0, "deg_x0": 0,
        "vertices": [{"id": 0, "depth": []}, {"id": 1, "depth": [1]}],
        "edges": [{"a": 1, "b": 0, "depthE": [1], "contact": {"1->0": [1]}}],
        "legs": [{"vertex": 1, "label": None}],
    })
    write("params.json", {"kappa": ["1", "1", "1"], "eps1": "1/10",
                          "epsPert": ["0", "0", "0"]})
    write("winding.json", {"v": [1, 1, 1]})
    write("chord.json", {"chord": {"y": 0, "I": [1], "alpha0": ["0"],
                                   "alpha1": ["1/2"], "v": [0, 0, 0],
                                   "f0": "0", "f1": "0"}})
    write("malformed.json", None)
    (tmp_path / "broken.json").write_text("{ not json")
    paths["broken.json"] = str(tmp_path / "broken.json")
    return paths


def test_gorenstein_verdict_exit_zero(fixtures):
    code, report = run(["complex", "gorenstein", "--faces", fixtures["cycle.json"]])
    assert code == EXIT_OK
    assert report["result"]["verdict"] is True
    assert report["inputs"]["faces"]["sha256"]


def test_false_verdict_still_exit_zero(fixtures):
    code, report = run(["complex", "gorenstein", "--faces", fixtures["cone.json"]])
    assert code == EXIT_OK
    assert report["result"]["verdict"] is False


def test_malformed_json_exit_two_with_position(fixtures):
    code, report = run(["complex", "homology", "--faces", fixtures["broken.json"]])
    assert code == EXIT_INPUT
    assert "line" in report["error"]["message"]
    assert "column" in report["error"]["message"]


@pytest.mark.parametrize("raw", [b"\xff\xfe{", b'{"facets": [["\xff"]]}'])
def test_undecodable_json_is_an_input_error_alone_and_in_a_batch(fixtures, tmp_path, raw):
    # json.loads reads a leading \xff\xfe as UTF-16 and then finds an odd byte
    # count; \xff inside UTF-8 text is no character at all
    path = tmp_path / "undecodable.json"
    path.write_bytes(raw)
    argv = ["complex", "homology", "--faces", str(path)]
    code, report = run(argv)
    assert code == EXIT_INPUT
    assert report["error"]["type"] == "input"
    assert f"malformed JSON in {path}" in report["error"]["message"]
    sibling = ["complex", "gorenstein", "--faces", fixtures["cycle.json"]]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"jobs": [{"args": argv}, {"args": sibling}]}))
    code, batch = run(["batch", "--manifest", str(manifest)])
    assert code == EXIT_INPUT
    assert [job["exit"] for job in batch["result"]["jobs"]] == [EXIT_INPUT, EXIT_OK]
    assert batch["result"]["jobs"][0]["report"] == report
    assert batch["result"]["jobs"][1]["report"] == run(sibling)[1]


@pytest.mark.parametrize("raw, named", [
    ('{"facets": [[' + "1" * 5000 + "]]}",
     f"an integer has more than {sys.get_int_max_str_digits()} digits"),
    ('{"facets": ' + "[" * 100_000 + "]" * 100_000 + "}", "nested too deeply to parse"),
], ids=["integer-of-5000-digits", "nested-100000-deep"])
def test_unreadable_json_is_an_input_error_alone_and_in_a_batch(fixtures, tmp_path, raw, named):
    # well-formed JSON that json.loads still cannot return: int()'s digit limit
    # and the interpreter's recursion limit
    path = tmp_path / "unreadable.json"
    path.write_text(raw)
    argv = ["complex", "homology", "--faces", str(path)]
    code, report = run(argv)
    assert code == EXIT_INPUT
    assert report["error"]["message"] == f"unreadable JSON in {path}: {named}"
    sibling = ["complex", "gorenstein", "--faces", fixtures["cycle.json"]]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"jobs": [{"args": argv}, {"args": sibling}]}))
    code, batch = run(["batch", "--manifest", str(manifest)])
    assert code == EXIT_INPUT
    assert [job["exit"] for job in batch["result"]["jobs"]] == [EXIT_INPUT, EXIT_OK]
    assert batch["result"]["jobs"][0]["report"] == report
    assert batch["result"]["jobs"][1]["report"] == run(sibling)[1]


def test_disconnected_config_present_exit_three(fixtures):
    code, report = run(["sr", "present", "--config", fixtures["appc.json"]])
    assert code == EXIT_UNSUPPORTED
    assert "[1, 2, 3]" in report["error"]["message"]


def test_sr_multiply(fixtures):
    code, report = run(["sr", "multiply", "--config", fixtures["appc.json"],
                        "--lhs", "theta[1,1,0]", "--rhs", "theta[0,0,1]"])
    assert code == EXIT_OK
    assert report["result"]["product"] == [
        {"v": [1, 1, 1], "component": 1, "coeff": "1"},
        {"v": [1, 1, 1], "component": 2, "coeff": "1"},
    ]


def test_sr_hilbert_and_present(fixtures):
    code, report = run(["sr", "hilbert", "--config", fixtures["appc.json"],
                        "--bound", "3"])
    assert code == EXIT_OK
    assert report["result"]["levels"] == [
        {"weight": "0", "count": 1}, {"weight": "1", "count": 3},
        {"weight": "2", "count": 6}, {"weight": "3", "count": 11}]
    code, report = run(["sr", "present", "--config", fixtures["p2.json"]])
    assert code == EXIT_OK
    assert report["result"]["presentation"]["relations"] == ["x1*x2*x3"]


def test_ring_pipeline(fixtures):
    code, report = run(["ring", "gr", "--pres", fixtures["pres.json"]])
    assert code == EXIT_OK
    assert report["result"]["presentation"]["relations"] == ["x^2"]
    code, report = run(["ring", "fiber", "--pres", fixtures["pres.json"], "--t", "0"])
    assert report["result"]["presentation"]["relations"] == ["x^2"]
    code, report = run(["ring", "smooth", "--pres", fixtures["circle_pres.json"],
                        "--codim", "1"])
    assert code == EXIT_OK
    assert report["result"]["smooth"] is True
    assert report["result"]["certificate"]["cofactors"]


@pytest.mark.parametrize("pres, t_flag, named", [
    ({"vars": ["t", "x"], "weights": ["1", "1"], "relations": ["x^2 - t"]}, [],
     "missing required argument --t"),
    ({"vars": ["x"], "weights": ["1"], "relations": ["x", "x - 1"]}, ["--t", "abc"],
     "malformed rational 'abc'"),
], ids=["variable-t-and-no-t", "unit-ideal-and-bad-t"])
def test_ring_fiber_reports_t_before_the_family(tmp_path, pres, t_flag, named):
    # the presentation's Rees family is refused too, but --t is read first
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(pres))
    code, report = run(["ring", "fiber", "--pres", str(path), *t_flag])
    assert code == EXIT_INPUT
    assert report["error"]["message"].startswith(named)


def test_ring_grob_inline():
    code, report = run(["ring", "grob", "--vars", "x,y", "--weights", "1,1",
                        "--gens", "x^2 - y", "y^2 - x"])
    assert code == EXIT_OK
    assert sorted(report["result"]["basis"]) == ["x^2 - y", "y^2 - x"]


def test_ring_degenerate_pipeline(fixtures, tmp_path):
    pres = {"vars": ["x1", "x2", "x3", "u", "v"],
            "weights": ["1", "1", "1", "3", "3"],
            "relations": ["x1*x2*x3 - u - v", "u*v"]}
    path = tmp_path / "appc_pres.json"
    path.write_text(json.dumps(pres))
    code, report = run(["ring", "degenerate", "--pres", str(path),
                        "--sr-config", fixtures["appc.json"], "--bound", "4"])
    assert code == EXIT_OK
    result = report["result"]
    assert result["specialFiberMatchesGr"] is True
    assert result["grMatchesTheta"] is True
    assert result["flatShadow"] is True


@pytest.mark.parametrize("op, extra, calls", [
    ("gr", ["--bound", "4"], 1),
    ("degenerate", ["--bound", "4"], 3),
], ids=["gr", "degenerate"])
def test_ring_groebner_basis_calls(fixtures, tmp_path, monkeypatch, op, extra, calls):
    # gr is handed the top-weight forms of the ring's basis; the special and
    # generic fibers compute their own, as the checks behind their verdicts
    pres = {"vars": ["x1", "x2", "x3", "u", "v"],
            "weights": ["1", "1", "1", "3", "3"],
            "relations": ["x1*x2*x3 - u - v", "u*v"]}
    path = tmp_path / "appc_pres.json"
    path.write_text(json.dumps(pres))
    made = []
    basis = groebner.groebner_basis

    def counting(gens, order, **kwargs):
        made.append(gens)
        return basis(gens, order, **kwargs)

    monkeypatch.setattr(groebner, "groebner_basis", counting)
    if op == "degenerate":
        extra = extra + ["--sr-config", fixtures["appc.json"]]
    code, _ = run(["ring", op, "--pres", str(path), *extra])
    assert code == EXIT_OK
    assert len(made) == calls


_TRANSFER = ("gr is Gorenstein by the homology criterion, "
             "so the filtered ring is Gorenstein as well")


@pytest.mark.parametrize("relations, expected", [
    (["x1*x2*x3"], {"grIsStanleyReisner": True, "grGorenstein": True, "transfer": _TRANSFER}),
    (["x1*x3"], {"grIsStanleyReisner": True, "grGorenstein": False}),
    (["x1^2"], {"grIsStanleyReisner": False}),
    ([], {"grIsStanleyReisner": False}),
], ids=["triangle-boundary", "cone", "not-squarefree", "no-relations"])
def test_ring_degenerate_stanley_reisner_branch(fixtures, tmp_path, relations, expected):
    pres = {"vars": ["x1", "x2", "x3"], "weights": ["1", "1", "1"], "relations": relations}
    path = tmp_path / "sr_pres.json"
    path.write_text(json.dumps(pres))
    code, report = run(["ring", "degenerate", "--pres", str(path),
                        "--sr-config", fixtures["p2.json"], "--bound", "2"])
    assert code == EXIT_OK
    result = report["result"]
    assert {key: result[key] for key in ("grIsStanleyReisner", "grGorenstein", "transfer")
            if key in result} == expected


def test_tree_subcommands(fixtures):
    code, report = run(["tree", "validate", "--tree", fixtures["tree.json"]])
    assert code == EXIT_OK and report["result"]["valid"] is True
    code, report = run(["tree", "vdim", "--tree", fixtures["tree.json"]])
    assert report["result"] == {"vdimPrelog": -2, "vdimLog": -2,
                                "kernelDim": 1, "obstructionDim": 0}
    code, report = run(["tree", "feasible", "--tree", fixtures["tree.json"]])
    assert report["result"]["feasible"] is True
    cert = report["result"]["certificate"]
    assert cert["vertexValues"]["1"] == ["1/2"]
    code, report = run(["tree", "rho", "--tree", fixtures["tree.json"]])
    assert report["result"]["rho"]["matrix"] == [[1, 1]]


def test_energy_subcommands(fixtures):
    code, report = run(["energy", "winding", "--params", fixtures["params.json"],
                        "--input", fixtures["winding.json"]])
    assert report["result"]["weight"] == "3"
    code, report = run(["energy", "orbit-action", "--params", fixtures["params.json"],
                        "--input", fixtures["winding.json"]])
    assert report["result"]["action"] == "-597/200"
    code, report = run(["energy", "chord-weight", "--params", fixtures["params.json"],
                        "--input", fixtures["chord.json"]])
    assert report["result"]["weight"] == "1/2"


def test_example_subcommands():
    code, report = run(["example", "appc", "--check", "admissible"])
    assert code == EXIT_OK
    assert report["result"]["count"] == 7
    assert report["result"]["matchesExpected"] is True
    code, report = run(["example", "appc", "--check", "singular-line"])
    assert report["result"]["singularAlongLine"] is True
    code, report = run(["example", "conic", "--n", "2", "--smooth"])
    assert report["result"]["smooth"] == {"2": True}


@pytest.mark.parametrize("name", ["F2", "F3", "F5", "F32003", "F2147483647"])
def test_prime_fields_below_the_limit_are_accepted(fixtures, name):
    code, report = run(["complex", "homology", "--faces", fixtures["cycle.json"],
                        "--field", name])
    assert code == EXIT_OK
    assert report["result"] == {"betti": {"-1": 0, "0": 0, "1": 1}, "field": name}


def test_conic_gr_at_the_largest_budgeted_n():
    # 13 * 2^14 subsets fit logcy.errors.COUNT_LIMIT; n = 14 is refused
    code, report = run(["example", "conic", "--n", "13", "--gr", "--bound", "2"])
    assert code == EXIT_OK
    assert report["result"]["grMatchesFixture"] is True


def test_conic_smooth_below_the_limit_runs():
    code, report = run(["example", "conic", "--n", "20", "--smooth"])
    assert code == EXIT_OK
    assert report["result"]["smooth"] == {str(n): True for n in range(2, 21)}


def test_conic_smooth_past_the_limit_is_refused_at_once():
    proc = subprocess.run(
        [sys.executable, "-m", "logcy.cli", "example", "conic",
         "--n", str(mirror.SMOOTH_LIMIT + 1), "--smooth"],
        capture_output=True, timeout=20)
    assert proc.returncode == EXIT_INPUT, proc.stderr
    message = json.loads(proc.stdout)["error"]["message"]
    assert f"n above {mirror.SMOOTH_LIMIT} is refused" in message


_SIMPLEX_REFUSED = f"more than {FACE_LIMIT} faces are refused"
# kind -> (argv, input files by name, text the error must name); each input has
# no work budget at the parent commit and runs for a minute or more there
_RUNAWAY_COMPLEX = {
    "complex-gorenstein-14-vertex-facet": (
        ["complex", "gorenstein", "--faces", "simplex.json"],
        {"simplex.json": {"facets": [list(range(1, 15))]}}, _SIMPLEX_REFUSED),
    "ring-degenerate-14-variables": (
        ["ring", "degenerate", "--pres", "pres.json", "--sr-config", "config.json",
         "--bound", "1"],
        {"pres.json": {"vars": [f"x{i}" for i in range(1, 15)], "weights": ["1"] * 14,
                       "relations": ["x1*x2"]},
         "config.json": {"k": 1, "kappa": ["1"], "a": ["1"]}}, _SIMPLEX_REFUSED),
    "complex-homology-20-vertex-facet": (
        ["complex", "homology", "--faces", "simplex.json"],
        {"simplex.json": {"facets": [list(range(1, 21))]}},
        f"more than {COUNT_LIMIT} in all are refused"),
    "ring-degenerate-20-variables": (
        ["ring", "degenerate", "--pres", "pres.json", "--sr-config", "config.json",
         "--bound", "1"],
        {"pres.json": {"vars": [f"x{i}" for i in range(1, 21)], "weights": ["1"] * 20,
                       "relations": ["x1*x2"]},
         "config.json": {"k": 1, "kappa": ["1"], "a": ["1"]}},
        f"Stanley-Reisner complex of the relations is too large: more than {FACE_LIMIT} "
        f"faces are refused"),
}


@pytest.mark.parametrize("kind", sorted(_RUNAWAY_COMPLEX))
def test_runaway_complex_is_refused_at_once(tmp_path, kind):
    argv, files, named = _RUNAWAY_COMPLEX[kind]
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "logcy.cli", *(str(tmp_path / a) if a in files else a
                                              for a in argv)],
        capture_output=True, timeout=20)
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert named in json.loads(proc.stdout)["error"]["message"]


def test_ring_degenerate_builds_no_more_faces_than_the_gorenstein_test_takes(tmp_path):
    # k[x1..xn]/(x1*x2) has 2^n - 2^(n-2) faces: 3 072 for n = 12, within
    # FACE_LIMIT, and 786 432 for n = 20, which is refused at face 4 097
    # instead of being built up to COUNT_LIMIT (over 100 MB) first
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 1, "kappa": ["1"], "a": ["1"]}))

    def degenerate(n):
        pres = tmp_path / f"pres{n}.json"
        pres.write_text(json.dumps({"vars": [f"x{i}" for i in range(1, n + 1)],
                                    "weights": ["1"] * n, "relations": ["x1*x2"]}))
        return run(["ring", "degenerate", "--pres", str(pres), "--sr-config", str(config),
                    "--bound", "1"])

    tracemalloc.start()
    try:
        code, report = degenerate(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_INPUT
    assert report["error"]["message"] == (
        f"the Stanley-Reisner complex of the relations is too large: "
        f"more than {FACE_LIMIT} faces are refused")
    assert peak < 16 * 2 ** 20
    code, report = degenerate(12)
    assert code == EXIT_OK
    assert report["result"]["grIsStanleyReisner"] and not report["result"]["grGorenstein"]


@pytest.mark.parametrize("gens, code", [("(x+y)^300", EXIT_OK), ("(x+y)^100000", EXIT_INPUT)],
                         ids=["300", "100000"])
def test_polynomial_powers_have_a_budget(gens, code):
    proc = subprocess.run(
        [sys.executable, "-m", "logcy.cli", "ring", "grob", "--vars", "x,y", "--weights", "1,1",
         "--gens", gens],
        capture_output=True, timeout=20)
    assert proc.returncode == code, proc.stderr
    if code == EXIT_INPUT:
        message = json.loads(proc.stdout)["error"]["message"]
        assert f"more than {COUNT_LIMIT} term pairs" in message


def test_a_result_past_the_digit_limit_is_unsupported():
    code, report = run(["ring", "grob", "--vars", "x", "--weights", "1",
                        "--gens", "x - 7^6000"])
    assert code == EXIT_UNSUPPORTED
    assert report["error"]["message"] == (
        f"a rational in the result has more than {sys.get_int_max_str_digits()} digits, "
        f"the most a report prints")


def _one_vertex_tree(tmp_path, k, k_prime):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"k": k, "kPrime": k_prime, "root": 0, "deg_x0": 1,
                                "vertices": [{"id": 0}], "edges": [], "legs": [{"vertex": 0}]}))
    return str(path)


@pytest.mark.parametrize("op", ["validate", "rho", "vdim", "feasible"])
def test_a_tree_past_the_count_limit_is_refused_at_once(tmp_path, op):
    code, report = run(["tree", op, "--tree", _one_vertex_tree(tmp_path, COUNT_LIMIT, 1)])
    assert code == EXIT_INPUT
    assert f"k + kPrime entries, and more than {COUNT_LIMIT} are refused" in (
        report["error"]["message"])


def test_a_tree_at_the_count_limit_is_read(tmp_path):
    code, report = run(["tree", "validate", "--tree",
                        _one_vertex_tree(tmp_path, COUNT_LIMIT - 1, 1)])
    assert code == EXIT_OK
    assert report["result"] == {"valid": True, "violations": []}


def _deep_edge_tree(m):
    """Root 0 and vertex 1 of depth {1..m}, one edge of contact 1: rho is m x (m + 1)."""
    depth = list(range(1, m + 1))
    return {"k": m, "root": 0, "deg_x0": 0, "legs": [{"vertex": 0}],
            "vertices": [{"id": 0}, {"id": 1, "depth": depth}],
            "edges": [{"a": 1, "b": 0, "depthE": depth, "contact": {"1->0": [1] * m}}]}


def _empty_star_tree(n):
    """n edges of empty depth, n - 1 of them at vertex 1: rho has no rows and
    n columns, the balancing LP (n + 1) x (2n + 1) cells."""
    parents = {v: 1 if v > 1 else 0 for v in range(1, n + 1)}
    return {"k": 1, "root": 0, "deg_x0": 0, "legs": [{"vertex": 0}],
            "vertices": [{"id": v} for v in range(n + 1)],
            "edges": [{"a": v, "b": b, "contact": {f"{v}->{b}": [0]}} for v, b in parents.items()]}


# kind -> (tree operation, tree JSON, text the error must name); 500 x 501 and
# 354 x 707 are the smallest of each shape past COUNT_LIMIT = 250 000
_TOO_MANY_CELLS = {
    f"{op}-rho-500x501": (op, _deep_edge_tree(500),
                          f"its incidence map has 500 x 501 cells, and more than {COUNT_LIMIT} "
                          f"are refused")
    for op in ("rho", "vdim", "feasible")}
_TOO_MANY_CELLS["feasible-lp-354x707"] = (
    "feasible", _empty_star_tree(353),
    f"its balancing LP has 354 x 707 cells, and more than {COUNT_LIMIT} are refused")


@pytest.mark.parametrize("kind", sorted(_TOO_MANY_CELLS))
def test_a_tree_past_the_cell_limit_is_refused_alone_and_in_a_batch(fixtures, tmp_path, kind):
    op, tree, named = _TOO_MANY_CELLS[kind]
    path = tmp_path / "big_tree.json"
    path.write_text(json.dumps(tree))
    argv = ["tree", op, "--tree", str(path)]
    code, report = run(argv)
    assert code == EXIT_INPUT
    assert report["error"] == {"type": "input", "message": f"the tree is too large: {named}"}
    sibling = ["complex", "gorenstein", "--faces", fixtures["cycle.json"]]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"jobs": [{"args": argv}, {"args": sibling}]}))
    code, batch = run(["batch", "--manifest", str(manifest)])
    assert code == EXIT_INPUT
    assert [job["exit"] for job in batch["result"]["jobs"]] == [EXIT_INPUT, EXIT_OK]
    assert batch["result"]["jobs"][0]["report"] == report
    assert batch["result"]["jobs"][1]["report"] == run(sibling)[1]


@pytest.mark.parametrize("op, tree", [("rho", _deep_edge_tree(499)),
                                      ("feasible", _empty_star_tree(352))],
                         ids=["rho-499x500", "feasible-lp-353x705"])
def test_a_tree_at_the_cell_limit_is_computed(tmp_path, op, tree):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    code, report = run(["tree", op, "--tree", str(path)])
    assert code == EXIT_OK
    if op == "rho":
        assert report["result"]["rank"] == 499
    else:
        assert report["result"]["feasible"] is True


_DIGITS = sys.get_int_max_str_digits()
_NINES = int("9" * _DIGITS)  # the largest integer that int() writes


def _nines_tree(deg_x0):
    """Root, a centre of depth {1, 2, 3} and three leaves of empty depth, zero
    contacts: vdimPrelog is deg_x0 + 10 and vdimLog is deg_x0 - 8."""
    parents = {1: 0, 2: 1, 3: 1, 4: 1}
    edges = [{"a": v, "b": b, "depthE": [1, 2, 3], "contact": {f"{v}->{b}": [0, 0, 0]}}
             for v, b in parents.items()]
    return {"k": 3, "root": 0, "deg_x0": deg_x0, "legs": [{"vertex": 0}],
            "vertices": [{"id": 0}, {"id": 1, "depth": [1, 2, 3]}, {"id": 2}, {"id": 3},
                         {"id": 4}], "edges": edges}


# kind -> (argv, with "tree.json" and fixture names standing for their paths;
# the tree JSON, if any); each result holds an integer of more digits than
# int() writes, from inputs within the digit limit
_REPORT_INTEGER_PAST_THE_DIGIT_LIMIT = {
    "tree-vdim-prelog": (["tree", "vdim", "--tree", "tree.json"], _nines_tree(_NINES)),
    "tree-vdim-log": (["tree", "vdim", "--tree", "tree.json"], _nines_tree(-_NINES)),
    "sr-multiply-theta-vector": (["sr", "multiply", "--config", "appc.json",
                                  "--lhs", f"theta[{_NINES},0,0]",
                                  "--rhs", f"theta[{_NINES},0,0]"], None),
    "ring-grob-exponent": (["ring", "grob", "--vars", "x", "--weights", "1",
                            "--gens", f"x^{10 ** (_DIGITS - 1)}^10"], None),
}


@pytest.mark.parametrize("kind", sorted(_REPORT_INTEGER_PAST_THE_DIGIT_LIMIT))
def test_a_report_integer_past_the_digit_limit_is_unsupported_alone_and_in_a_batch(
        fixtures, tmp_path, kind):
    template, tree = _REPORT_INTEGER_PAST_THE_DIGIT_LIMIT[kind]
    if tree is not None:
        fixtures = dict(fixtures, **{"tree.json": str(tmp_path / "tree.json")})
        (tmp_path / "tree.json").write_text(json.dumps(tree))
    argv = [fixtures.get(arg, arg) for arg in template]
    code, report = run(argv)
    assert code == EXIT_UNSUPPORTED
    assert report["error"] == {"type": "unsupported", "message": (
        f"an integer in the result has more than {_DIGITS} digits, the most a report prints")}
    render_report(report)  # the report itself prints
    sibling = ["complex", "gorenstein", "--faces", fixtures["cycle.json"]]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"jobs": [{"args": argv}, {"args": sibling}]}))
    code, batch = run(["batch", "--manifest", str(manifest)])
    assert code == EXIT_UNSUPPORTED
    assert [job["exit"] for job in batch["result"]["jobs"]] == [EXIT_UNSUPPORTED, EXIT_OK]
    assert batch["result"]["jobs"][0]["report"] == report
    assert batch["result"]["jobs"][1]["report"] == run(sibling)[1]
    render_report(batch)


def test_schema_flags(fixtures):
    for argv in (["complex", "homology", "--schema"],
                 ["sr", "multiply", "--schema"],
                 ["ring", "gr", "--schema"],
                 ["tree", "vdim", "--schema"],
                 ["energy", "pss", "--schema"],
                 ["example", "conic", "--schema"],
                 ["batch", "--schema"]):
        code, report = run(argv)
        assert code == EXIT_OK
        assert "schema" in report


def test_missing_argument_exit_two(fixtures):
    code, report = run(["complex", "homology"])
    assert code == EXIT_INPUT


def test_batch_empty(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"jobs": []}))
    code, report = run(["batch", "--manifest", str(manifest)])
    assert code == EXIT_OK
    assert report["result"]["jobs"] == []


def test_batch_ordering_and_aggregation(fixtures, tmp_path):
    jobs = [{"args": ["complex", "gorenstein", "--faces", fixtures["cycle.json"]]},
            {"args": ["complex", "homology", "--faces", fixtures["broken.json"]]},
            {"args": ["sr", "present", "--config", fixtures["appc.json"]]}]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"jobs": jobs}))
    code, report = run(["batch", "--manifest", str(manifest)])
    assert code == EXIT_UNSUPPORTED  # max of 0, 2, 3
    exits = [job["exit"] for job in report["result"]["jobs"]]
    assert exits == [0, 2, 3]
    assert [job["args"][0] for job in report["result"]["jobs"]] == ["complex", "complex", "sr"]


def test_batch_rejects_nested_batch(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"jobs": [{"args": ["batch", "--manifest", "x"]}]}))
    code, report = run(["batch", "--manifest", str(manifest)])
    assert code == EXIT_INPUT


def test_batch_deterministic_across_runs(fixtures, tmp_path):
    jobs = []
    for _ in range(6):
        jobs.append({"args": ["complex", "gorenstein", "--faces", fixtures["cycle.json"]]})
        jobs.append({"args": ["sr", "hilbert", "--config", fixtures["appc.json"],
                              "--bound", "2"]})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"jobs": jobs}))
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "logcy.cli", "batch", "--manifest", str(manifest)],
            capture_output=True)
        assert proc.returncode == EXIT_OK
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_cli_entrypoint_subprocess(fixtures):
    proc = subprocess.run(
        [sys.executable, "-m", "logcy.cli", "complex", "homology",
         "--faces", fixtures["cycle.json"]],
        capture_output=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"]["betti"] == {"-1": 0, "0": 0, "1": 1}


def test_many_empty_divisors_cost_nothing(tmp_path):
    # k = 60 with only D_1, D_2 and D_1 n D_2 nonempty: the 2^60 empty index
    # sets are never visited
    config = tmp_path / "k60.json"
    config.write_text(json.dumps(dict(_CONFIG3, k=60, kappa=["1"] * 60, a=["1"] * 60)))
    proc = subprocess.run(
        [sys.executable, "-m", "logcy.cli", "sr", "hilbert", "--config", str(config),
         "--bound", "2"],
        capture_output=True, timeout=20)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["result"]["levels"] == [
        {"weight": "0", "count": 1}, {"weight": "1", "count": 2}, {"weight": "2", "count": 3}]


def test_out_flag_writes_file(fixtures, tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "logcy.cli", "complex", "core",
         "--faces", fixtures["cone.json"], "--out", str(out)],
        capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout == b""
    payload = json.loads(out.read_text())
    assert payload["result"]["facets"] == [[2], [3]]


def test_schema_out_flag_writes_the_schema(tmp_path):
    out = tmp_path / "schema.json"
    proc = subprocess.run(
        [sys.executable, "-m", "logcy.cli", "tree", "vdim", "--schema", "--out", str(out)],
        capture_output=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == b""
    assert json.loads(out.read_text()) == run(["tree", "vdim", "--schema"])[1]


def test_render_report_trailing_newline():
    assert render_report({"a": 1}).endswith("\n")


_TREE = {"k": 1, "root": 0, "deg_x0": 0, "vertices": [{"id": 0, "depth": []}], "edges": []}
_EDGE_TREE = dict(_TREE, vertices=[{"id": 0, "depth": []}, {"id": 1, "depth": [1]}])
_PRES = {"vars": ["x", "y"], "weights": ["1", "1"], "relations": ["x*y"]}
_CONFIG = {"k": 1, "kappa": ["1"], "a": ["1"]}
# k = 3 with D_1, D_2 and D_1 n D_2 nonempty, each connected
_CONFIG3 = {"k": 3, "kappa": ["1"] * 3, "a": ["1"] * 3, "strata": [
    {"I": [1], "components": [0]}, {"I": [2], "components": [0]},
    {"I": [1, 2], "components": [0]}]}

# kind -> (group, op, input flag, input JSON, text the error message must name)
_BAD_INPUTS = {
    "energy-monotone": ("energy", "monotone", "--input", {"toWeight": "1"}, "fromWeight"),
    "energy-pss-x0-without-v": ("energy", "pss", "--input",
                                {"x0": {"component": 1}, "v": [1]}, "x0"),
    "tree-vdim": ("tree", "vdim", "--tree",
                  dict(_TREE, vertices=[{"depth": []}]), "id"),
    "tree-vertex-not-object": ("tree", "vdim", "--tree", dict(_TREE, vertices=[5]),
                               "vertices[0]"),
    "tree-edge-not-object": ("tree", "vdim", "--tree", dict(_TREE, edges=[5]), "edges[0]"),
    "tree-leg-not-object": ("tree", "vdim", "--tree", dict(_TREE, legs=[5]), "legs[0]"),
    "energy-pss-input-not-object": ("energy", "pss", "--input", [1], "input JSON"),
    "energy-chord-weight-input-not-object": ("energy", "chord-weight", "--input", [1],
                                             "input JSON"),
    "tree-vertex-depth-not-list": ("tree", "vdim", "--tree",
                                   dict(_TREE, vertices=[{"id": 0, "depth": 5}]),
                                   "vertices[0].depth"),
    "tree-edge-contact-not-object": ("tree", "vdim", "--tree", dict(_EDGE_TREE, edges=[
        {"a": 1, "b": 0, "depthE": [1], "contact": 7}]), "edges[0].contact"),
    "tree-edge-contact-vector-not-list": ("tree", "vdim", "--tree", dict(_EDGE_TREE, edges=[
        {"a": 0, "b": 1, "depthE": [1], "contact": {"0->1": 5}}]), "edges[0].contact['0->1']"),
    "energy-chord-not-object": ("energy", "chord-action", "--input", {"chord": 5}, "chord JSON"),
    "tree-edge-depthE-not-list": ("tree", "vdim", "--tree", dict(_EDGE_TREE, edges=[
        {"a": 1, "b": 0, "depthE": 1, "contact": {"1->0": [1]}}]), "edges[0].depthE"),
    "ring-relation-not-string": ("ring", "gr", "--pres", dict(_PRES, relations=[5]),
                                 "relations[0]"),
    "ring-relations-string": ("ring", "gr", "--pres", dict(_PRES, relations="xy"),
                              "JSON relations"),
    "ring-vars-string": ("ring", "gr", "--pres", dict(_PRES, vars="xy"), "JSON vars"),
    "ring-weights-string": ("ring", "gr", "--pres", dict(_PRES, weights="11"), "JSON weights"),
    "ring-var-name-empty": ("ring", "gr", "--pres", dict(_PRES, vars=["", "y"]),
                            "variable name ''"),
    "ring-var-name-leading-digit": ("ring", "gr", "--pres", dict(_PRES, vars=["1x", "y"]),
                                    "variable name '1x'"),
    "energy-winding-v-not-list": ("energy", "winding", "--input", {"v": 5}, "input JSON v"),
    "energy-winding-v-strings": ("energy", "winding", "--input", {"v": ["a", "b", "c"]},
                                 "input JSON v[0]"),
    "energy-winding-v-boolean": ("energy", "winding", "--input", {"v": [True, 1, 1]},
                                 "input JSON v[0]"),
    "energy-pss-x0-v-not-list": ("energy", "pss", "--input",
                                 {"v": [1, 1, 1], "x0": {"v": 5}}, "x0.v"),
    "energy-chord-I-not-list": ("energy", "chord-weight", "--input", {"chord": {
        "I": 5, "alpha0": ["0"], "alpha1": ["1/2"]}}, "chord JSON I"),
    "energy-params-kappa-string": ("energy", "winding", "--params", {"kappa": "11"},
                                   "parameter JSON kappa"),
    "tree-vertex-id-list": ("tree", "vdim", "--tree", dict(_TREE, vertices=[{"id": [0]}]),
                            "vertices[0].id"),
    "sr-stratum-I-not-list": ("sr", "hilbert", "--config", dict(_CONFIG, strata=[
        {"I": 5, "components": [0]}]), "strata[0].I"),
    "sr-strata-not-list": ("sr", "hilbert", "--config", dict(_CONFIG, strata=5),
                           "configuration JSON strata"),
    "sr-logNef-string": ("sr", "hilbert", "--config", dict(_CONFIG, logNef="yes"),
                         "configuration JSON logNef"),
    "sr-map-assign-key-not-int": ("sr", "hilbert", "--config", dict(_CONFIG, maps=[
        {"from": [1], "to": [], "assign": {"a": 0}}]), "maps[0].assign"),
    "energy-chord-v-too-short": ("energy", "chord-weight", "--input", {"chord": {
        "I": [3], "alpha0": ["0"], "alpha1": ["1/2"], "v": [0]}}, "chord winding vector"),
    "tree-vertex-id-repeated": ("tree", "validate", "--tree", dict(_TREE, vertices=[
        {"id": 0, "depth": []}, {"id": 1, "depth": [1]}, {"id": 1, "depth": []}], edges=[
        {"a": 1, "b": 0, "depthE": [1], "contact": {"1->0": [1]}}]),
        "tree JSON vertices[2] repeats the id of vertices[1]"),
    "sr-stratum-I-repeated": ("sr", "hilbert", "--config", dict(_CONFIG, strata=[
        {"I": [1], "components": [0]}, {"I": [1], "components": []}]),
        "configuration JSON strata[1] repeats the I of strata[0]"),
    "sr-map-repeated": ("sr", "hilbert", "--config", dict(_CONFIG, maps=[
        {"from": [1], "to": [], "assign": {"0": 0}}] * 2),
        "configuration JSON maps[1] repeats the from and to of maps[0]"),
    "sr-map-from-out-of-range": ("sr", "hilbert", "--config", dict(_CONFIG3, maps=[
        {"from": [1, 9], "to": [1], "assign": {"0": 0}}]), "supplied map [1, 9]->[1]"),
    "sr-map-from-out-of-range-not-adjacent": ("sr", "hilbert", "--config", dict(_CONFIG3, maps=[
        {"from": [1, 2, 9], "to": [1], "assign": {"0": 0}}]), "supplied map [1, 2, 9]->[1]"),
    "sr-map-from-empty-stratum": ("sr", "hilbert", "--config", dict(_CONFIG3, maps=[
        {"from": [2, 3], "to": [2], "assign": {"0": 0}}]), "supplied map [2, 3]->[2]"),
    "sr-map-to-itself-not-identity": ("sr", "hilbert", "--config", dict(_CONFIG3, maps=[
        {"from": [1], "to": [1], "assign": {"0": 5}}]), "supplied map [1]->[1]"),
    "sr-multiply-theta-on-empty-stratum": ("sr", "multiply", "--config", _CONFIG,
                                           "vector (1,) does not index a basis element"),
    "complex-facet-vertex-repeated": ("complex", "homology", "--faces",
                                      {"facets": [[1, 1, 2], [2, 3]]},
                                      "complex JSON facets[0][1] repeats the vertex of "
                                      "facets[0][0]"),
    "sr-stratum-index-repeated": ("sr", "hilbert", "--config", dict(_CONFIG, strata=[
        {"I": [1, 1], "components": [0]}]),
        "configuration JSON strata[0].I[1] repeats the index of strata[0].I[0]"),
    "sr-map-from-index-repeated": ("sr", "hilbert", "--config", dict(_CONFIG3, maps=[
        {"from": [1, 2, 2], "to": [1], "assign": {"0": 0}}]),
        "configuration JSON maps[0].from[2] repeats the index of maps[0].from[1]"),
    "sr-map-to-index-repeated": ("sr", "hilbert", "--config", dict(_CONFIG3, maps=[
        {"from": [1, 2], "to": [1, 1], "assign": {"0": 0}}]),
        "configuration JSON maps[0].to[1] repeats the index of maps[0].to[0]"),
    "tree-vertex-depth-index-repeated": ("tree", "vdim", "--tree", dict(_EDGE_TREE, vertices=[
        {"id": 0, "depth": []}, {"id": 1, "depth": [1, 1]}]),
        "tree JSON vertices[1].depth[1] repeats the index of vertices[1].depth[0]"),
    "tree-edge-depthE-index-repeated": ("tree", "vdim", "--tree", dict(_EDGE_TREE, edges=[
        {"a": 1, "b": 0, "depthE": [1, 1], "contact": {"1->0": [1]}}]),
        "tree JSON edges[0].depthE[1] repeats the index of edges[0].depthE[0]"),
}

# the other file of an energy job, by the flag its bad input goes to
_ENERGY_OTHER = {"--input": ("--params", "params.json"), "--params": ("--input", "winding.json")}


def _bad_input_job(tmp_path, fixtures, kind):
    """argv of a job whose input is malformed, and the text its error must name."""
    group, op, flag, payload, named = _BAD_INPUTS[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(payload))
    argv = [group, op, flag, str(path)]
    if (group, op) == ("sr", "multiply"):  # the job also needs its two theta symbols
        argv += ["--lhs", "theta[1]", "--rhs", "theta[0]"]
    if group == "energy":
        other, name = _ENERGY_OTHER[flag]
        argv += [other, fixtures[name]]
    return argv, named


@pytest.mark.parametrize("kind", sorted(_BAD_INPUTS))
def test_missing_key_is_an_input_error(fixtures, tmp_path, kind):
    argv, key = _bad_input_job(tmp_path, fixtures, kind)
    code, report = run(argv)
    assert code == EXIT_INPUT
    assert report["error"]["type"] == "input"
    assert key in report["error"]["message"]


@pytest.mark.parametrize("kind", sorted(_BAD_INPUTS))
def test_missing_key_job_does_not_sink_its_batch(fixtures, tmp_path, kind):
    argv, key = _bad_input_job(tmp_path, fixtures, kind)
    sibling = ["complex", "gorenstein", "--faces", fixtures["cycle.json"]]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"jobs": [{"args": argv}, {"args": sibling}]}))
    proc = subprocess.run(
        [sys.executable, "-m", "logcy.cli", "batch", "--manifest", str(manifest)],
        capture_output=True)
    assert proc.returncode == EXIT_INPUT, proc.stderr
    jobs = json.loads(proc.stdout)["result"]["jobs"]
    assert [job["exit"] for job in jobs] == [EXIT_INPUT, EXIT_OK]
    assert key in jobs[0]["report"]["error"]["message"]
    assert jobs[1]["report"] == run(sibling)[1]


def test_usage_error_reports_repeat_with_the_shared_parser(fixtures):
    bad = ["complex", "homology", "--faces", fixtures["cycle.json"], "--bogus"]
    first = run(bad)
    run(["complex", "homology", "--faces", fixtures["cycle.json"]])
    assert run(bad) == first == (EXIT_INPUT, {"error": {
        "type": "usage", "message": "unrecognized arguments: --bogus"}})


# kind -> (argv, with fixture names standing for their paths; text the error must name)
_BAD_ARGV = {
    "ring-smooth-codim-not-int": (["ring", "smooth", "--pres", "circle_pres.json",
                                   "--codim", "abc"], "--codim"),
    "example-conic-n-not-int": (["example", "conic", "--n", "abc"], "--n"),
    "example-conic-na-not-int": (["example", "conic", "--n", "2", "--na", "x"], "--na"),
    "example-conic-nb-not-int": (["example", "conic", "--n", "2", "--nb", "x"], "--nb"),
    "sr-multiply-empty-theta-entry": (["sr", "multiply", "--config", "appc.json",
                                       "--lhs", "theta[1,,0]", "--rhs", "theta[0,0,1]"],
                                      "theta[1,,0]"),
    "ring-grob-duplicate-vars": (["ring", "grob", "--vars", "x,x", "--weights", "1,1",
                                  "--gens", "x*x"], "duplicate variable names"),
    "ring-grob-too-few-weights": (["ring", "grob", "--vars", "x,y", "--weights", "1",
                                   "--gens", "x - y"], "one weight per variable"),
    "ring-grob-empty-var-name": (["ring", "grob", "--vars", " ,y", "--weights", "1,1",
                                  "--gens", "y^2"], "variable name ''"),
    "ring-smooth-codim-negative": (["ring", "smooth", "--pres", "circle_pres.json",
                                    "--codim", "-5"], "--codim"),
    "ring-smooth-codim-zero": (["ring", "smooth", "--pres", "circle_pres.json",
                                "--codim", "0"], "--codim"),
    "sr-hilbert-bound-runaway": (["sr", "hilbert", "--config", "appc.json",
                                  "--bound", "1e400"], "--bound is too large"),
    "ring-gr-bound-runaway": (["ring", "gr", "--pres", "pres.json", "--bound", "1e400"],
                              "--bound is too large"),
    "ring-degenerate-bound-runaway": (["ring", "degenerate", "--pres", "pres.json",
                                       "--sr-config", "appc.json", "--bound", "1e400"],
                                      "--bound is too large"),
    "example-appc-sr-bound-runaway": (["example", "appc", "--check", "sr", "--bound", "1e400"],
                                      "--bound is too large"),
    "sr-hilbert-bound-negative": (["sr", "hilbert", "--config", "appc.json", "--bound", "-1"],
                                  "the weight bound must be nonnegative"),
    "ring-gr-bound-negative": (["ring", "gr", "--pres", "pres.json", "--bound", "-1"],
                               "the weight bound must be nonnegative"),
    "ring-degenerate-bound-negative": (["ring", "degenerate", "--pres", "pres.json",
                                        "--sr-config", "appc.json", "--bound", "-1"],
                                       "the weight bound must be nonnegative"),
    "example-appc-sr-bound-negative": (["example", "appc", "--check", "sr", "--bound", "-1"],
                                       "the weight bound must be nonnegative"),
    "example-conic-gr-bound-negative": (["example", "conic", "--n", "3", "--gr",
                                         "--bound", "-1"],
                                        "the weight bound must be nonnegative"),
    "example-conic-gr-n-runaway": (["example", "conic", "--n", "40", "--gr"],
                                   "--n is too large"),
    "complex-homology-field-2^61-1": (["complex", "homology", "--faces", "cycle.json",
                                       "--field", f"F{2 ** 61 - 1}"],
                                      f"field F{2 ** 61 - 1} is too large"),
    "complex-homology-field-2^1279-1": (["complex", "homology", "--faces", "cycle.json",
                                         "--field", f"F{2 ** 1279 - 1}"],
                                        f"field F{2 ** 1279 - 1} is too large"),
    "example-appc-coeffs-without-mode": (["example", "appc", "--check", "singular-line",
                                          "--coeffs", "1,2,3"], "--coeffs"),
    "example-appc-coeffs-symbolic": (["example", "appc", "--check", "singular-line",
                                      "--mode", "symbolic", "--coeffs", "1,2,3,4,5,6,7"],
                                     "--coeffs"),
    "example-appc-admissible-mode": (["example", "appc", "--check", "admissible",
                                      "--mode", "numeric"], "--mode"),
    "example-appc-admissible-coeffs": (["example", "appc", "--check", "admissible",
                                        "--coeffs", "1,2,3,4,5,6,7"], "--coeffs"),
    "example-appc-sr-mode": (["example", "appc", "--check", "sr", "--mode", "symbolic"],
                             "--mode"),
    "example-appc-sr-coeffs": (["example", "appc", "--check", "sr", "--mode", "numeric",
                                "--coeffs", "1,2,3,4,5,6,7"], "--mode"),
    "example-appc-singular-line-bound": (["example", "appc", "--check", "singular-line",
                                          "--bound", "3"], "--bound"),
    "complex-core-field": (["complex", "core", "--faces", "cycle.json", "--field", "F3"],
                           "unrecognized arguments: --field F3"),
    "complex-homology-schema-with-other-flags": (
        ["complex", "homology", "--schema", "--field", "F4", "--faces", "nothere.json"],
        "--schema reads no flag but --out; got --faces, --field"),
    "complex-link-field-without-local-homology": (
        ["complex", "link", "--faces", "cycle.json", "--face", "1", "--field", "F3"],
        "--field is not used by complex link without --local-homology"),
    "example-conic-bound-without-gr": (["example", "conic", "--n", "3", "--bound", "4"],
                                       "--bound is not used by example conic without --gr"),
    "complex-link-face-vertex-repeated": (["complex", "link", "--faces", "cycle.json",
                                           "--face", "2,2"],
                                          "--face [1] repeats the vertex of [0]"),
    "complex-link-face-absent-vertex": (["complex", "link", "--faces", "cycle.json",
                                         "--face", "9", "--local-homology"],
                                        "link: [9] is not a face"),
    "complex-link-face-not-a-face": (["complex", "link", "--faces", "cycle.json",
                                      "--face", "1,2,3", "--local-homology"],
                                     "link: [1, 2, 3] is not a face"),
    "ring-grob-superscript-digit": (["ring", "grob", "--vars", "x", "--weights", "1",
                                     "--gens", "x^\u00b2"], "unexpected character '\u00b2'"),
    "ring-grob-literal-past-the-digit-limit": (
        ["ring", "grob", "--vars", "x", "--weights", "1", "--gens", "x - 1" + "0" * 5000],
        f"the number at position 4 in polynomial has more than "
        f"{sys.get_int_max_str_digits()} digits"),
    "sr-multiply-coefficient-past-the-digit-limit": (
        ["sr", "multiply", "--config", "appc.json", "--lhs", "1" * 5000 + "*theta[1,0,0]",
         "--rhs", "theta[0,0,1]"],
        f"theta term 1 has an integer of more than {sys.get_int_max_str_digits()} digits"),
    "ring-fiber-t-exponent-past-the-digit-limit": (
        ["ring", "fiber", "--pres", "pres.json", "--t", "1e5000"],
        "rational '1e5000' is too large: 10 to the power of its exponent"),
    "sr-hilbert-bound-exponent-past-the-digit-limit": (
        ["sr", "hilbert", "--config", "appc.json", "--bound", "1e3000000"],
        "rational '1e3000000' is too large: 10 to the power of its exponent"),
    "example-conic-n-past-the-count-limit": (["example", "conic", "--n", str(COUNT_LIMIT + 1)],
                                             f"n above {COUNT_LIMIT} is refused"),
}


@pytest.mark.parametrize("kind", sorted(_BAD_ARGV))
def test_bad_argv_is_an_input_error_alone_and_in_a_batch(fixtures, tmp_path, kind):
    template, named = _BAD_ARGV[kind]
    argv = [fixtures.get(arg, arg) for arg in template]
    code, report = run(argv)
    assert code == EXIT_INPUT
    assert named in report["error"]["message"]
    sibling = ["complex", "gorenstein", "--faces", fixtures["cycle.json"]]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"jobs": [{"args": argv}, {"args": sibling}]}))
    code, batch = run(["batch", "--manifest", str(manifest)])
    assert code == EXIT_INPUT
    assert [job["exit"] for job in batch["result"]["jobs"]] == [EXIT_INPUT, EXIT_OK]
    assert batch["result"]["jobs"][0]["report"] == report
    assert batch["result"]["jobs"][1]["report"] == run(sibling)[1]


# kind -> argv of a flag given an empty value (fixture names stand for their paths)
_EMPTY_VALUE = {
    "complex-homology-field": ["complex", "homology", "--faces", "cycle.json", "--field", ""],
    "example-conic-kappa1": ["example", "conic", "--n", "3", "--kappa1", ""],
    "example-conic-kappa2": ["example", "conic", "--n", "3", "--kappa2", ""],
    "example-conic-gr-bound": ["example", "conic", "--n", "3", "--gr", "--bound", ""],
    "example-appc-numeric-coeffs": ["example", "appc", "--check", "singular-line",
                                    "--mode", "numeric", "--coeffs", ""],
    "example-appc-sr-bound": ["example", "appc", "--check", "sr", "--bound", ""],
    "sr-hilbert-bound": ["sr", "hilbert", "--config", "appc.json", "--bound", ""],
}


@pytest.mark.parametrize("kind", sorted(_EMPTY_VALUE))
def test_an_empty_flag_value_is_an_input_error_not_the_default(fixtures, kind):
    code, report = run([fixtures.get(arg, arg) for arg in _EMPTY_VALUE[kind]])
    assert code == EXIT_INPUT
    assert report["error"]["type"] == "input"
    assert "''" in report["error"]["message"]


def test_appc_numeric_coefficients_are_read(tmp_path):
    code, report = run(["example", "appc", "--check", "singular-line", "--mode", "numeric",
                        "--coeffs", "1,2,3,4,5,6,7"])
    assert code == EXIT_OK
    assert report["result"]["singularAlongLine"] is True
    code, report = run(["example", "appc", "--check", "singular-line", "--mode", "numeric",
                        "--coeffs", "1,2,3"])
    assert code == EXIT_INPUT
    assert report["error"]["type"] == "input"


def test_an_unexpected_exception_is_an_internal_error_alone_and_in_a_batch(
        fixtures, tmp_path, capsys, monkeypatch):
    def broken(args, inputs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setitem(cli._HANDLERS, "example", broken)
    argv = ["example", "appc", "--check", "admissible"]
    internal = {"command": "example appc", "inputs": {},
                "error": {"type": "internal", "message": "ZeroDivisionError: division by zero"}}
    assert run(argv) == (EXIT_INTERNAL, internal)
    sibling = ["complex", "gorenstein", "--faces", fixtures["cycle.json"]]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"jobs": [{"args": argv}, {"args": sibling}]}))
    with pytest.raises(SystemExit) as exit_info:
        main(["batch", "--manifest", str(manifest)])
    assert exit_info.value.code == EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert "Traceback" not in out and "ZeroDivisionError: division by zero" in err
    jobs = json.loads(out)["result"]["jobs"]
    assert [job["exit"] for job in jobs] == [EXIT_INTERNAL, EXIT_OK]
    assert [job["report"] for job in jobs] == [internal, run(sibling)[1]]


# each self-check of logcy's own results, made to fail: (object, attribute,
# replacement, argv, message)
_FAILED_SELF_CHECKS = {
    "balancing-certificate": (
        trees.BalancingCertificate, "verify", lambda self, tree: False,
        ["tree", "feasible", "--tree", "tree.json"],
        "balancing certificate failed re-verification"),
    "rank-nullity": (
        trees.RhoMap, "rank", lambda self: -1, ["tree", "vdim", "--tree", "tree.json"],
        "rank-nullity cross-check failed for the obstruction dimension"),
    "smoothness-certificate": (
        groebner.SmoothnessCertificate, "replay",
        lambda self: Polynomial.zero(self.generators[0].vars),
        ["ring", "smooth", "--pres", "circle_pres.json", "--codim", "1"],
        "smoothness certificate failed to replay"),
    "phase-1": (
        linprog, "_simplex_iterate", lambda *args: False,
        ["tree", "feasible", "--tree", "tree.json"], "phase-1 LP unbounded (impossible)"),
}


@pytest.mark.parametrize("check", sorted(_FAILED_SELF_CHECKS))
def test_a_failed_self_check_is_an_internal_error_alone_and_in_a_batch(
        fixtures, tmp_path, monkeypatch, check):
    target, name, replacement, argv, message = _FAILED_SELF_CHECKS[check]
    argv = [fixtures.get(arg, arg) for arg in argv]
    sibling = ["complex", "gorenstein", "--faces", fixtures["cycle.json"]]
    expected_sibling = run(sibling)
    monkeypatch.setattr(target, name, replacement)
    code, report = run(argv)
    assert code == EXIT_INTERNAL
    assert report["error"] == {"type": "internal", "message": f"AssertionError: {message}"}
    assert list(report["inputs"]) == [argv[2][2:]]  # the input read before the check
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"jobs": [{"args": argv}, {"args": sibling}]}))
    code, batch = run(["batch", "--manifest", str(manifest)])
    assert code == EXIT_INTERNAL
    jobs = batch["result"]["jobs"]
    assert [job["exit"] for job in jobs] == [EXIT_INTERNAL, EXIT_OK]
    assert [job["report"] for job in jobs] == [report, expected_sibling[1]]


# sha256 of each report of the built-in fixtures, as rendered
PINNED_EXAMPLES = {
    "example conic --n 2 --gr":
        "59ceb9cc0f33098d8d7bed696fee8ce5d330f7ca77b0457c523f54fbdb3adbbe",
    "example conic --n 10 --gr --bound 3":
        "b539d9b5c883bf8dd3c4e4c41d68c4690af5fd6a497374ab99adf20cfdb58760",
    "example conic --n 13 --gr --bound 2":
        "f65b3c483d2f4fc64c495d8e37d5fcb8d9b7a44a9cef342005c0526c16cd7d7e",
    "example conic --n 4 --smooth":
        "d21edf0d50fb85f052d83f0248acd105afc57104b3f60c26ed80686c2c3df327",
    "example appc --check admissible":
        "c0045023fc9809614489c5f7656ebf47a887b125a92b22dfa7778643fe8b8d97",
    "example appc --check singular-line --mode numeric --coeffs 1,2,3,4,5,6,7":
        "7dbb04dd46efbe5dcd0ec9632265742f4fec2cacdb5c3a79471ff18f0484a063",
    "example appc --check sr":
        "47979d33367bfd5e74ce6d2e85071d6182dbd0720cfd7579f018289ac9b92949",
    "example appc --check sr --bound 7":
        "de2fe1440aa5bfb167c3b102ef13854911c0a6d8567cee4c927e0b641a182484",
}


@pytest.mark.parametrize("command", PINNED_EXAMPLES)
def test_example_reports_are_pinned(command):
    text = render_report(run(command.split())[1])
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_EXAMPLES[command]


@pytest.mark.parametrize("manifest, named", [
    ({"jobs": [{"args": 5}]}, "manifest JSON jobs[0].args"),
    ({"jobs": [{"args": ["complex", 5]}]}, "manifest JSON jobs[0].args[1]"),
    ({"job": []}, "manifest JSON missing key 'jobs'"),
    ([{"args": ["example", "appc", "--check", "admissible"]}], "manifest JSON must be an object"),
], ids=["args-not-list", "arg-not-string", "no-jobs", "bare-list"])
def test_bad_manifest_is_an_input_error(tmp_path, manifest, named):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, report = run(["batch", "--manifest", str(path)])
    assert code == EXIT_INPUT
    assert report["error"]["type"] == "input"
    assert named in report["error"]["message"]


@pytest.mark.parametrize("spelling", [["--out={}"], ["--ou", "{}"]], ids=["equals", "prefix"])
def test_out_flag_spellings_write_the_file(fixtures, tmp_path, capsys, spelling):
    out = tmp_path / "report.json"
    argv = ["complex", "core", "--faces", fixtures["cone.json"]]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [arg.format(out) for arg in spelling])
    assert exit_info.value.code == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_text() == render_report(run(argv)[1])


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_is_an_input_error(fixtures, tmp_path, capsys, target):
    path = tmp_path / "missing" / "report.json" if target == "missing-directory" else tmp_path
    argv = ["complex", "homology", "--faces", fixtures["cycle.json"]]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", str(path)])
    assert exit_info.value.code == EXIT_INPUT
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "complex homology"
    assert report["inputs"] == run(argv)[1]["inputs"]
    assert report["error"]["type"] == "input"
    assert report["error"]["message"].startswith(f"cannot write {path}: ")


@pytest.mark.parametrize("spelling", [["--out", "{}"], ["--out={}"], ["--ou", "{}"]],
                         ids=["separate", "equals", "prefix"])
def test_out_in_a_batch_job_is_refused(fixtures, tmp_path, spelling):
    out = tmp_path / "report.json"
    job = ["complex", "core", "--faces", fixtures["cone.json"]] + [
        arg.format(out) for arg in spelling]
    sibling = ["complex", "gorenstein", "--faces", fixtures["cycle.json"]]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"jobs": [{"args": job}, {"args": sibling}]}))
    code, report = run(["batch", "--manifest", str(manifest)])
    assert code == EXIT_INPUT
    jobs = report["result"]["jobs"]
    assert [entry["exit"] for entry in jobs] == [EXIT_INPUT, EXIT_OK]
    assert jobs[0]["report"]["error"]["type"] == "input"
    assert "--out" in jobs[0]["report"]["error"]["message"]
    assert jobs[1]["report"] == run(sibling)[1]
    assert not out.exists()


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_keeps_stdout_one_json_report(fixtures, tmp_path, capsys, flag):
    usage = {"error": {"type": "usage", "message": "help requested"}}
    sibling = ["complex", "gorenstein", "--faces", fixtures["cycle.json"]]
    for argv in ([flag], ["complex", "homology", flag]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_INPUT
        assert json.loads(capsys.readouterr().out) == usage
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"jobs": [{"args": argv}, {"args": sibling}]}))
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", "--manifest", str(manifest)])
        assert exit_info.value.code == EXIT_INPUT
        jobs = json.loads(capsys.readouterr().out)["result"]["jobs"]
        assert [job["report"] for job in jobs] == [usage, run(sibling)[1]]
