"""Cold start: which logcy modules a command executes, and the public names.

The package registers its submodules behind importlib.util.LazyLoader, so
a module runs when one of its attributes is first read.  The probes run in
a fresh interpreter, because this test process executed every module long
ago.  A module counts as executed once its type is back to the plain
module type; a registered module not yet run is a LazyLoader subclass.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import logcy

from test_cli import fixtures  # noqa: F401  (the fixture the CLI tests write their files with)

# Prints one JSON list: the executed logcy modules and whether dataclasses
# is imported, first after `import logcy.cli`, then after each job of
# argv[1] (with its exit code).
_PROBE = """
import json, sys, types

def state():
    modules = sorted(name for name, module in sys.modules.items()
                     if name.startswith("logcy.") and type(module) is types.ModuleType)
    return {"modules": modules, "dataclasses": "dataclasses" in sys.modules}

import logcy.cli
steps = [state()]
for argv in json.loads(sys.argv[1]):
    code, _ = logcy.cli.run(argv)
    steps.append({"exit": code, **state()})
print(json.dumps(steps))
"""

PLUMBING = ["logcy.cli", "logcy.errors", "logcy.fields", "logcy.rationals", "logcy.schema"]

# every name logcy/__init__.py exported when it imported its modules eagerly
PUBLIC = {
    "complexes": ["SimplicialComplex", "cross_polytope_boundary", "full_simplex",
                  "sphere_boundary"],
    "errors": ["DegenerateChordError", "InputError", "LogcyError", "UnsupportedStructureError"],
    "fields": ["QQ", "PrimeField"],
    "groebner": ["Ideal", "groebner_basis", "hilbert_function_up_to", "ideal_membership",
                 "ideals_equal", "is_groebner", "jacobian_smooth", "normal_form"],
    "homology": ["BettiTable", "GorensteinReport", "gorenstein_verdict",
                 "is_rational_homology_manifold", "is_rational_homology_sphere",
                 "local_homology_at_face", "reduced_homology"],
    "poly": ["Polynomial", "WeightedOrder", "parse_polynomial", "unit_order"],
    "rees": ["ReesPresentation", "WeightedPresentation", "associated_graded", "fiber_at",
             "presentations_ideal_equal", "rees_algebra"],
    "sr_algebra": ["ThetaBasisElement", "ThetaElement", "graded_dimension", "multiply",
                   "multiply_basis", "parse_theta_expression", "sr_presentation",
                   "theta_basis_up_to", "unit_element"],
    "stratum": ["DivisorConfiguration", "configuration_from_json"],
    "trees": ["BalancingCertificate", "LogPssTree", "RhoMap", "TreeEdge", "balancing_feasible",
              "build_rho", "kernel_dim", "obstruction_dim", "partition_count", "tree_from_json",
              "vdim_log", "vdim_prelog"],
    "energy": ["ChordLabel", "EnergyParameters", "OrbitLabel", "chord_action_approx",
               "chord_weight", "filtration_monotone_check", "orbit_action_approx",
               "pss_energy", "pss_energy_approx", "short_chord_winding", "weighted_winding"],
}


def _probe(jobs):
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(jobs)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _every_leaf(fixtures, tmp_path):  # noqa: F811
    """One job per leaf subcommand that exits 0, and a few --schema jobs."""
    energy_input = tmp_path / "energy.json"
    energy_input.write_text(json.dumps({
        "v": [1, 1, 1], "x0": {"v": [1, 1, 1]}, "fromWeight": "1", "toWeight": "2",
        **json.loads(Path(fixtures["chord.json"]).read_text())}))
    sr_pres = tmp_path / "sr_pres.json"
    sr_pres.write_text(json.dumps({"vars": ["x1", "x2", "x3"], "weights": ["1", "1", "1"],
                                   "relations": ["x1*x2*x3"]}))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        {"jobs": [{"args": ["complex", "core", "--faces", fixtures["cone.json"]]}]}))
    cycle, appc, pres, tree = (fixtures[name] for name in
                               ("cycle.json", "appc.json", "pres.json", "tree.json"))
    jobs = [["complex", op, "--faces", cycle] for op in ("homology", "gorenstein", "core")]
    jobs.append(["complex", "link", "--faces", cycle, "--face", "1", "--local-homology"])
    jobs += [["sr", "multiply", "--config", appc, "--lhs", "theta[1,1,0]",
              "--rhs", "theta[0,0,1]"],
             ["sr", "hilbert", "--config", appc, "--bound", "2"],
             ["sr", "present", "--config", fixtures["p2.json"]],
             ["ring", "grob", "--vars", "x,y", "--weights", "1,1", "--gens", "x^2 - y", "y^2 - x"],
             ["ring", "gr", "--pres", pres, "--bound", "2"],
             ["ring", "rees", "--pres", pres],
             ["ring", "fiber", "--pres", pres, "--t", "0"],
             ["ring", "smooth", "--pres", fixtures["circle_pres.json"], "--codim", "1"],
             ["ring", "degenerate", "--pres", str(sr_pres), "--sr-config", fixtures["p2.json"],
              "--bound", "2"]]
    jobs += [["tree", op, "--tree", tree] for op in ("validate", "rho", "vdim", "feasible")]
    jobs += [["energy", op, "--params", fixtures["params.json"], "--input", str(energy_input)]
             for op in ("winding", "orbit-action", "pss", "chord-weight", "chord-action",
                        "monotone")]
    jobs += [["example", "conic", "--n", "3", "--smooth", "--gr"]]
    jobs += [["example", "appc", "--check", check]
             for check in ("admissible", "singular-line", "sr")]
    jobs += [["batch", "--manifest", str(manifest)]]
    jobs += [[*prefix, "--schema"] for prefix in (["ring", "degenerate"], ["tree", "vdim"],
                                                   ["energy", "pss"], ["batch"])]
    return jobs


def test_import_and_the_parser_execute_no_compute_module(fixtures):  # noqa: F811
    homology = ["complex", "homology", "--faces", fixtures["cycle.json"]]
    imported, usage_error, job = _probe([["complex", "homology", "--no-such-flag"], homology])
    assert imported["modules"] == PLUMBING
    assert usage_error == {"exit": 2, **imported}  # the parser is built by now
    assert job["exit"] == 0
    assert set(job["modules"]) - set(PLUMBING) == {
        "logcy.complexes", "logcy.homology", "logcy.exactlin"}


def test_no_subcommand_imports_dataclasses(fixtures, tmp_path):  # noqa: F811
    jobs = _every_leaf(fixtures, tmp_path)
    steps = _probe(jobs)
    assert [step["exit"] for step in steps[1:]] == [0] * len(jobs)
    assert not any(step["dataclasses"] for step in steps)


def test_module_entry_point_runs_with_warnings_as_errors(fixtures):  # noqa: F811
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "logcy.cli", "complex", "homology",
         "--faces", fixtures["cycle.json"]],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["result"]["betti"] == {"-1": 0, "0": 0, "1": 1}


def test_public_names_resolve_to_their_defining_module():
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(f"logcy.{module_name}")
        for name in names:
            assert getattr(logcy, name) is getattr(module, name), name
    assert sorted(logcy.__all__) == sorted(name for names in PUBLIC.values() for name in names)
    assert not hasattr(logcy, "no_such_name")
