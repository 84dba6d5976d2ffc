"""Single command-line entry point over JSON files.

Every leaf subcommand reads JSON inputs, computes exactly, and prints one
deterministic JSON report: rationals as "p/q" strings, keys sorted, no
timestamps.  Exit codes: 0 for any computed verdict (including false ones),
2 for input errors, 3 for unsupported structure, 4 for an internal error (a
fault of logcy itself, reported as an "internal" error that names the
exception; its traceback goes to stderr only).  The batch subcommand runs
a manifest of independent jobs one after another in the calling thread and
reports them in manifest order.  The argument parser is built once per
process and shared by every job.

Input is checked where it is declared: argv by argparse, against the flag
table in build_parser(); each JSON file by schema.validate, against the dict
that --schema prints, first thing in its *_from_json parser (here for the
energy input and the batch manifest).  Errors name the flag or JSON path.
"""

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import energy as energy_mod
from . import mirror, trees
from .complexes import COMPLEX_SCHEMA, complex_from_json
from .errors import InputError, UnsupportedStructureError
from .fields import QQ, field_from_name
from .groebner import Ideal, groebner_basis, hilbert_function_up_to, jacobian_smooth
from .homology import gorenstein_verdict, local_homology_at_face, reduced_homology
from .poly import parse_polynomial
from .rationals import RATIONAL, format_rational, parse_rational
from .rees import (PRESENTATION_SCHEMA, WeightedPresentation, associated_graded, fiber_at,
                   presentation_from_json, presentations_ideal_equal, rees_algebra)
from .schema import validate
from .sr_algebra import (graded_dimension, multiply, parse_theta_expression,
                         sr_presentation, stanley_reisner_complex)
from .stratum import CONFIGURATION_SCHEMA, configuration_from_json
from .trees import TREE_SCHEMA, tree_from_json

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4

ENERGY_INPUT_SCHEMA = {
    "title": "energy input JSON",
    "type": "object",
    "properties": {
        "v": {"type": "array", "items": {"type": "integer"}},
        "x0": {"type": "object", "required": ["v"], "properties": {
            "v": {"type": "array", "items": {"type": "integer"}},
            "component": {"type": "integer"}}},
        "orbitAction": RATIONAL,
        "chord": energy_mod.CHORD_SCHEMA,
        "fromWeight": RATIONAL,
        "toWeight": RATIONAL,
    },
}

# each energy operation's input: the keys it reads
ENERGY_INPUT_SCHEMAS = {op: dict(ENERGY_INPUT_SCHEMA, required=keys) for op, keys in (
    ("winding", ["v"]), ("orbit-action", ["v"]), ("pss", ["v", "x0"]),
    ("chord-weight", ["chord"]), ("chord-action", ["chord"]),
    ("monotone", ["fromWeight", "toWeight"]))}

MANIFEST_SCHEMA = {
    "title": "manifest JSON",
    "type": "object",
    "required": ["jobs"],
    "properties": {
        "jobs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["args"],
                "properties": {"args": {"type": "array", "items": {"type": "string"}}},
            },
        },
    },
}


def _read_json(path: str):
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def _require(args, name):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise InputError(f"missing required argument --{name}")
    return value


def _levels(counts: dict) -> list:
    return [{"weight": format_rational(w), "count": counts[w]}
            for w in sorted(counts)]


def _parse_face(text: str):
    text = text.strip()
    if not text:
        return []
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"malformed face {text!r}; expected comma-separated integers") from None


# -- handler implementations -------------------------------------------------------


def _cmd_complex(args, inputs):
    data, digest = _read_json(_require(args, "faces"))
    inputs["faces"] = {"path": args.faces, "sha256": digest}
    cx = complex_from_json(data)
    coeff_field = field_from_name(args.field or "Q")
    if args.complex_op == "homology":
        table = reduced_homology(cx, coeff_field)
        return {"field": coeff_field.name, "betti": table.to_json()}
    if args.complex_op == "gorenstein":
        report = gorenstein_verdict(cx, coeff_field)
        return {"field": coeff_field.name, **report.to_json()}
    if args.complex_op == "link":
        face = _parse_face(_require(args, "face"))
        payload = cx.link(face).to_json()
        if args.local_homology:
            table = local_homology_at_face(cx, face, coeff_field)
            payload["localHomology"] = table.to_json()
        return payload
    if args.complex_op == "core":
        return cx.core().to_json()


def _cmd_sr(args, inputs):
    data, digest = _read_json(_require(args, "config"))
    inputs["config"] = {"path": args.config, "sha256": digest}
    config = configuration_from_json(data)
    if args.sr_op == "multiply":
        lhs = parse_theta_expression(_require(args, "lhs"), config)
        rhs = parse_theta_expression(_require(args, "rhs"), config)
        product = multiply(config, lhs, rhs)
        return {"product": product.to_json(config)}
    if args.sr_op == "hilbert":
        bound = parse_rational(_require(args, "bound"))
        counts = graded_dimension(config, bound)
        return {"levels": _levels(counts)}
    if args.sr_op == "present":
        cx = config.dual_complex()
        weights = None
        if args.use_kappa:
            weights = [config.kappa[v - 1] for v in cx.vertices]
        pres = sr_presentation(cx, weights)
        return {"presentation": pres.to_json()}


def _cmd_ring(args, inputs):
    if args.ring_op == "grob":
        names = [x.strip() for x in _require(args, "vars").split(",")]
        weights = [parse_rational(x) for x in _require(args, "weights").split(",")]
        ring = WeightedPresentation(names, weights, [])  # checks the names and weights
        order = ring.order()
        gens = [parse_polynomial(text, ring.vars, QQ) for text in _require(args, "gens")]
        basis = groebner_basis(gens, order)
        return {"basis": [g.to_string(order) for g in basis]}

    data, digest = _read_json(_require(args, "pres"))
    inputs["pres"] = {"path": args.pres, "sha256": digest}
    pres = presentation_from_json(data)

    if args.ring_op == "gr":
        graded = associated_graded(pres)
        payload = {"presentation": graded.to_json()}
        if args.bound is not None:
            payload["levels"] = _levels(graded.hilbert_up_to(parse_rational(args.bound)))
        return payload
    if args.ring_op == "rees":
        family = rees_algebra(pres)
        return {"presentation": family.presentation.to_json(),
                "rescale": family.rescale}
    if args.ring_op == "fiber":
        family = rees_algebra(pres)
        value = parse_rational(_require(args, "t"))
        fiber = fiber_at(family, value)
        return {"t": format_rational(value),
                "presentation": fiber.to_json()}
    if args.ring_op == "smooth":
        codim = _require(args, "codim")
        if codim < 1:
            raise InputError(f"--codim must be at least 1, got {codim}")
        smooth, cert = jacobian_smooth(pres.ideal(), codim)
        payload = {"smooth": smooth}
        if cert is not None:
            payload["certificate"] = {
                "cofactors": [c.to_string() for c in cert.cofactors],
                "generators": [g.to_string() for g in cert.generators],
            }
        return payload
    if args.ring_op == "degenerate":
        return _cmd_ring_degenerate(args, inputs, pres)


def _cmd_ring_degenerate(args, inputs, pres):
    """Full pipeline: gr, Rees fiber checks, Hilbert comparison against a
    configuration's theta basis, and the Gorenstein transfer report."""
    config_data, digest = _read_json(_require(args, "sr-config"))
    inputs["sr-config"] = {"path": args.sr_config, "sha256": digest}
    config = configuration_from_json(config_data)
    bound = parse_rational(_require(args, "bound"))

    graded = associated_graded(pres)
    family = rees_algebra(pres)
    special = fiber_at(family, 0)
    generic = fiber_at(family, 1)

    special_ok = presentations_ideal_equal(special, graded)
    hilbert_gr = graded.hilbert_up_to(bound)
    hilbert_generic = generic.hilbert_up_to(bound)
    theta_counts = graded_dimension(config, bound)

    payload = {
        "gr": graded.to_json(),
        "specialFiberMatchesGr": special_ok,
        "grLevels": _levels(hilbert_gr),
        "genericFiberLevels": _levels(hilbert_generic),
        "thetaLevels": _levels(theta_counts),
        "grMatchesTheta": hilbert_gr == theta_counts,
        "flatShadow": hilbert_gr == hilbert_generic,
    }
    if args.require_degree_one:
        payload["generatedInDegreeOne"] = all(w == 1 for w in pres.weights)

    # Gorenstein transfer: only when gr is visibly a Stanley-Reisner ring
    cx = stanley_reisner_complex(graded) if graded.relations else None
    payload["grIsStanleyReisner"] = cx is not None
    if cx is not None:
        report = gorenstein_verdict(cx)
        payload["grGorenstein"] = report.verdict
        if report.verdict:
            payload["transfer"] = ("gr is Gorenstein by the homology criterion, "
                                   "so the filtered ring is Gorenstein as well")
    return payload


def _cmd_tree(args, inputs):
    data, digest = _read_json(_require(args, "tree"))
    inputs["tree"] = {"path": args.tree, "sha256": digest}
    tree = tree_from_json(data)
    if args.tree_op == "validate":
        violations = tree.validate()
        return {"valid": not violations,
                "violations": [v.to_json() for v in violations]}
    if args.tree_op == "rho":
        rho = trees.build_rho(tree)
        return {"rho": rho.to_json(), "rank": rho.rank(), "kernelDim": rho.kernel_dim()}
    if args.tree_op == "vdim":
        rho = trees.build_rho(tree)  # one incidence map and kernel for all four numbers
        kernel = rho.kernel_dim()
        return {
            "vdimPrelog": trees.vdim_prelog(tree),
            "vdimLog": tree.deg_x0 - 2 * kernel,  # as trees.vdim_log
            "kernelDim": kernel,
            "obstructionDim": trees.obstruction_dim(tree, rho, kernel),
        }
    if args.tree_op == "feasible":
        cert = trees.balancing_feasible(tree)
        return {"feasible": cert is not None,
                "certificate": None if cert is None else cert.to_json()}


def _cmd_energy(args, inputs):
    params_data, digest = _read_json(_require(args, "params"))
    inputs["params"] = {"path": args.params, "sha256": digest}
    params = energy_mod.parameters_from_json(params_data)
    data, digest = _read_json(_require(args, "input"))
    inputs["input"] = {"path": args.input, "sha256": digest}
    validate(data, ENERGY_INPUT_SCHEMAS[args.energy_op])

    if args.energy_op == "winding":
        return {"weight": format_rational(energy_mod.weighted_winding(params, data["v"]))}
    if args.energy_op == "orbit-action":
        return {"action": format_rational(energy_mod.orbit_action_approx(params, data["v"]))}
    if args.energy_op == "pss":
        orbit = energy_mod.OrbitLabel(tuple(data["x0"]["v"]), data["x0"].get("component", 0))
        approx = energy_mod.pss_energy_approx(params, data["v"], orbit)
        if "orbitAction" in data:
            action = parse_rational(data["orbitAction"])
        else:
            action = energy_mod.orbit_action_approx(params, orbit.v)
        exact = energy_mod.pss_energy(params, data["v"], action)
        return {"energy": format_rational(exact), "energyApprox": format_rational(approx)}
    if args.energy_op in ("chord-weight", "chord-action"):
        chord = energy_mod.chord_from_json(data["chord"], params.k)
        if args.energy_op == "chord-weight":
            return {"weight": format_rational(energy_mod.chord_weight(params, chord))}
        return {"action": format_rational(energy_mod.chord_action_approx(params, chord))}
    if args.energy_op == "monotone":
        ok = energy_mod.filtration_monotone_check(
            params, parse_rational(data["fromWeight"]), parse_rational(data["toWeight"]))
        return {"monotone": ok}


# the optional flags each `example appc --check` reads; any other is refused
_APPC_FLAGS = {"admissible": (), "singular-line": ("mode", "coeffs"), "sr": ("bound",)}


def _cmd_example(args, inputs):
    if args.example_op == "conic":
        n = _require(args, "n")
        fixture = mirror.ConicBundleFixture(
            n, args.na, args.nb,
            parse_rational(args.kappa1) if args.kappa1 else min(Fraction(2), Fraction(2 * n - 1, 2)),
            parse_rational(args.kappa2) if args.kappa2 else Fraction(1))
        pres = mirror.conic_bundle_presentation(fixture)
        payload = {"presentation": pres.to_json()}
        if args.smooth:
            verdicts = mirror.conic_bundle_smooth_check(fixture, n_max=n)
            payload["smooth"] = {str(dim): ok for dim, (ok, _) in sorted(verdicts.items())}
        if args.gr:
            sr_fixture = mirror.conic_bundle_sr_fixture(fixture)
            graded = associated_graded(pres)
            bound = parse_rational(args.bound) if args.bound else Fraction(8)
            gr_levels = graded.hilbert_up_to(bound)
            sr_levels = sr_fixture.hilbert_up_to(bound)
            payload["gr"] = graded.to_json()
            payload["grLevels"] = _levels(gr_levels)
            payload["srFixtureLevels"] = _levels(sr_levels)
            payload["grMatchesFixture"] = gr_levels == sr_levels
        return payload
    if args.example_op == "appc":
        check = _require(args, "check")
        for flag in ("mode", "coeffs", "bound"):
            if getattr(args, flag) is not None and flag not in _APPC_FLAGS[check]:
                raise InputError(f"--{flag} is not used by --check {check}")
        if args.coeffs is not None and args.mode != "numeric":
            raise InputError("--coeffs needs --mode numeric")
        if check == "admissible":
            found = mirror.admissible_deformation_monomials()
            return {
                "count": len(found),
                "monomials": [list(e) for e in sorted(found)],
                "matchesExpected": found == mirror.EXPECTED_ADMISSIBLE,
            }
        if check == "singular-line":
            if args.mode == "numeric":
                coeffs = [parse_rational(x) for x in (args.coeffs or "0,0,0,0,0,0,0").split(",")]
                family = mirror.HypersurfaceFamily(coeffs)
            else:
                family = mirror.HypersurfaceFamily()
            ok, residuals = mirror.singular_line_check(family)
            return {
                "singularAlongLine": ok,
                "residuals": [{"at": label, "value": poly.to_string()}
                              for label, poly in residuals],
            }
        if check == "sr":
            fixture = mirror.appendix_c_sr_presentation()
            bound = parse_rational(args.bound) if args.bound else Fraction(5)
            quotient_levels = fixture.presentation.hilbert_up_to(bound)
            theta_levels = graded_dimension(mirror.appendix_c_configuration(), bound)
            return {
                "presentation": fixture.presentation.to_json(),
                "hypersurface": fixture.hypersurface.to_string(),
                "quotientLevels": _levels(quotient_levels),
                "thetaLevels": _levels(theta_levels),
                "quotientMatchesTheta": quotient_levels == theta_levels,
            }


def _cmd_batch(args, inputs):
    data, digest = _read_json(_require(args, "manifest"))
    inputs["manifest"] = {"path": args.manifest, "sha256": digest}
    validate(data, MANIFEST_SCHEMA)
    job_args = [job["args"] for job in data["jobs"]]
    for idx, argv in enumerate(job_args):
        if argv[:1] == ["batch"]:
            raise InputError(f"job {idx}: nested batch jobs are not supported")
    results = [run(argv) for argv in job_args]
    reports = [{"args": argv, "exit": code, "report": report}
               for argv, (code, report) in zip(job_args, results)]
    worst = max((code for code, _ in results), default=EXIT_OK)
    return {"jobs": reports, "exit": worst}, worst


# -- argument plumbing ---------------------------------------------------------------

# what --schema prints, by input flag when there are several: the validators' schemas
_SCHEMAS = {
    "complex": COMPLEX_SCHEMA,
    "sr": CONFIGURATION_SCHEMA,
    "ring": PRESENTATION_SCHEMA,
    "ring grob": {"note": "the grob operation takes inline flags, no input file"},
    "ring degenerate": {"pres": PRESENTATION_SCHEMA, "sr-config": CONFIGURATION_SCHEMA},
    "tree": TREE_SCHEMA,
    **{f"energy {op}": {"params": energy_mod.PARAMETERS_SCHEMA, "input": schema}
       for op, schema in ENERGY_INPUT_SCHEMAS.items()},
    "batch": MANIFEST_SCHEMA,
    "example": {"note": "the example subcommand takes inline flags, no input file"},
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """Raise, so that run() reports the rejected command line as a usage error."""
        raise argparse.ArgumentError(None, message)

    def print_help(self, file=None):
        """Raise instead of printing, so that stdout stays one JSON report."""
        raise argparse.ArgumentError(None, "help requested")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="logcy",
        description="Exact divisor-stratification algebra: theta rings, homology, "
                    "degenerations, trees, and action filtrations over JSON files.")
    top = parser.add_subparsers(dest="group", required=True)

    def leaf(sub, name, flags):
        p = sub.add_parser(name)
        p.add_argument("--schema", action="store_true", help="print the input JSON schema")
        p.add_argument("--out", default=None, help="write the report to a file instead of stdout")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)

    cx = top.add_parser("complex").add_subparsers(dest="complex_op", required=True)
    for op in ("homology", "gorenstein", "link", "core"):
        flags = {"--faces": {}, "--field": {"default": "Q"}}
        if op == "link":
            flags["--face"] = {}
            flags["--local-homology"] = {"action": "store_true"}
        leaf(cx, op, flags)

    sr = top.add_parser("sr").add_subparsers(dest="sr_op", required=True)
    leaf(sr, "multiply", {"--config": {}, "--lhs": {}, "--rhs": {}})
    leaf(sr, "hilbert", {"--config": {}, "--bound": {}})
    leaf(sr, "present", {"--config": {}, "--use-kappa": {"action": "store_true"}})

    ring = top.add_parser("ring").add_subparsers(dest="ring_op", required=True)
    leaf(ring, "grob", {"--vars": {}, "--weights": {}, "--gens": {"nargs": "+"}})
    leaf(ring, "gr", {"--pres": {}, "--bound": {}})
    leaf(ring, "rees", {"--pres": {}})
    leaf(ring, "fiber", {"--pres": {}, "--t": {}})
    leaf(ring, "smooth", {"--pres": {}, "--codim": {"type": int}})
    leaf(ring, "degenerate", {"--pres": {}, "--sr-config": {}, "--bound": {},
                              "--require-degree-one": {"action": "store_true"}})

    tree = top.add_parser("tree").add_subparsers(dest="tree_op", required=True)
    for op in ("validate", "rho", "vdim", "feasible"):
        leaf(tree, op, {"--tree": {}})

    en = top.add_parser("energy").add_subparsers(dest="energy_op", required=True)
    for op in ENERGY_INPUT_SCHEMAS:
        leaf(en, op, {"--params": {}, "--input": {}})

    ex = top.add_parser("example").add_subparsers(dest="example_op", required=True)
    leaf(ex, "conic", {"--n": {"type": int}, "--na": {"type": int, "default": 1},
                       "--nb": {"type": int, "default": 1}, "--kappa1": {}, "--kappa2": {},
                       "--smooth": {"action": "store_true"}, "--gr": {"action": "store_true"},
                       "--bound": {}})
    leaf(ex, "appc", {"--mode": {"choices": ["symbolic", "numeric"]}, "--coeffs": {},
                      "--check": {"choices": ["admissible", "singular-line", "sr"]},
                      "--bound": {}})

    leaf(top, "batch", {"--manifest": {}})
    return parser


_PARSER = None


def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on first use and reused by every later job."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


_HANDLERS = {
    "complex": _cmd_complex,
    "sr": _cmd_sr,
    "ring": _cmd_ring,
    "tree": _cmd_tree,
    "energy": _cmd_energy,
    "example": _cmd_example,
}


def _command_name(args) -> str:
    parts = [args.group]
    for attr in ("complex_op", "sr_op", "ring_op", "tree_op", "energy_op", "example_op"):
        op = getattr(args, attr, None)
        if op:
            parts.append(op)
    return " ".join(parts)


def run(argv):
    """Execute one subcommand; returns (exit_code, report dict)."""
    code, report, _ = _run(argv)
    return code, report


def _run(argv):
    """run(), plus the parsed arguments (None on a usage error)."""
    try:
        args, unknown = _parser().parse_known_args(argv)
        if unknown:
            raise argparse.ArgumentError(None, "unrecognized arguments")
    except argparse.ArgumentError as exc:
        return EXIT_INPUT, {"error": {"type": "usage", "message": str(exc)}}, None
    command = _command_name(args)
    if getattr(args, "schema", False):
        schema = _SCHEMAS.get(command, _SCHEMAS.get(args.group))
        return EXIT_OK, {"command": command, "schema": schema}, args
    inputs = {}
    try:
        if args.group == "batch":
            payload, worst = _cmd_batch(args, inputs)
            return worst, {"command": command, "inputs": inputs, "result": payload}, args
        result = _HANDLERS[args.group](args, inputs)
        return EXIT_OK, {"command": command, "inputs": inputs, "result": result}, args
    except UnsupportedStructureError as exc:
        return EXIT_UNSUPPORTED, {"command": command, "inputs": inputs,
                                  "error": {"type": "unsupported", "message": str(exc)}}, args
    except InputError as exc:
        return EXIT_INPUT, {"command": command, "inputs": inputs,
                            "error": {"type": "input", "message": str(exc)}}, args
    except Exception as exc:  # a bug: reported, so that a batch keeps its other jobs
        import traceback
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL, {"command": command, "inputs": inputs,
                               "error": {"type": "internal",
                                         "message": f"{type(exc).__name__}: {exc}"}}, args


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    code, report, args = _run(sys.argv[1:] if argv is None else argv)
    text = render_report(report)
    if args is not None and args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
