"""CLI behavior: exit codes, JSON reports, schemas, batch determinism."""

import json
import os
import subprocess
import sys

import pytest

from logcy import cli
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
    # 13 * 2^14 subsets fit logcy.poly.COUNT_LIMIT; n = 14 is refused
    code, report = run(["example", "conic", "--n", "13", "--gr", "--bound", "2"])
    assert code == EXIT_OK
    assert report["result"]["grMatchesFixture"] is True


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


def test_batch_deterministic_across_worker_counts(fixtures, tmp_path):
    jobs = []
    for _ in range(6):
        jobs.append({"args": ["complex", "gorenstein", "--faces", fixtures["cycle.json"]]})
        jobs.append({"args": ["sr", "hilbert", "--config", fixtures["appc.json"],
                              "--bound", "2"]})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"jobs": jobs}))
    outputs = []
    for workers in ("1", "8"):
        env = dict(os.environ, LOGCY_WORKERS=workers)
        proc = subprocess.run(
            [sys.executable, "-m", "logcy.cli", "batch", "--manifest", str(manifest)],
            capture_output=True, env=env)
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


def test_render_report_trailing_newline():
    assert render_report({"a": 1}).endswith("\n")


_TREE = {"k": 1, "root": 0, "deg_x0": 0, "vertices": [{"id": 0, "depth": []}], "edges": []}
_EDGE_TREE = dict(_TREE, vertices=[{"id": 0, "depth": []}, {"id": 1, "depth": [1]}])
_PRES = {"vars": ["x", "y"], "weights": ["1", "1"], "relations": ["x*y"]}
_CONFIG = {"k": 1, "kappa": ["1"], "a": ["1"]}

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
}

# the other file of an energy job, by the flag its bad input goes to
_ENERGY_OTHER = {"--input": ("--params", "params.json"), "--params": ("--input", "winding.json")}


def _bad_input_job(tmp_path, fixtures, kind):
    """argv of a job whose input is malformed, and the text its error must name."""
    group, op, flag, payload, named = _BAD_INPUTS[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(payload))
    argv = [group, op, flag, str(path)]
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
        "type": "usage", "message": "unrecognized arguments"}})


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
