"""Single command-line entry point over JSON files.

Every leaf subcommand reads JSON inputs, computes exactly, and prints one
deterministic JSON report: rationals as "p/q" strings, keys sorted, no
timestamps.  render_report, which writes it, lives beside the input check in
schema, the module of the JSON boundary, and is bound here by name.  Exit
codes: 0 for any computed verdict (including false ones), 2 for input
errors, 3 for unsupported structure, 4 for an internal error (a fault of
logcy itself, reported as an "internal" error that names the exception; its
traceback goes to stderr only).  The batch subcommand runs
a manifest of independent jobs one after another in the calling thread and
reports them in manifest order; a job may not give --out.  The argument
parser is built once per process and shared by every job.

Submodules run on first use: the package registers them behind
importlib.util.LazyLoader (see logcy/__init__.py).  So this module binds the
compute modules, not their names, and reads their attributes only inside
the handlers and the schema tables built on use: importing it and building
the parser execute no compute module, and one command executes only the
modules it uses.  A `from .homology import name` here would execute
homology at import.

Input is checked where it is declared.  Argv is checked in two steps:
argparse checks the flags, their types and choices against the flag table in
build_parser(), where each leaf parser also sets the command name its
reports carry, and the handlers check the values it leaves as strings, with
_require for a flag the command needs and parse_rational (or the field or
face parser) for the value's syntax.  An empty value is checked like any
other, never replaced by the default.  Every input file goes through
_input, which requires its flag, reads and parses the file and records its
path and sha256 in the report's inputs.  Each JSON file is checked by
schema.validate, against the dict that --schema prints, first thing in its
*_from_json parser (here for the energy input and the batch manifest).
--schema reads no flag but --out, and refuses any other.  Errors name the
flag or JSON path.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import (complexes, energy, groebner, homology, mirror, poly, rees, sr_algebra, stratum,
               trees)
from .errors import InputError, UnsupportedStructureError
from .fields import field_from_name
from .rationals import RATIONAL, checked_integer, format_rational, parse_rational
from .schema import render_report, require_distinct, validate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4

# each energy operation: the keys it reads from its input JSON
_ENERGY_INPUT_KEYS = {
    "winding": ["v"], "orbit-action": ["v"], "pss": ["v", "x0"],
    "chord-weight": ["chord"], "chord-action": ["chord"],
    "monotone": ["fromWeight", "toWeight"],
}


def _energy_input_schema(op: str) -> dict:
    """The input JSON of energy operation op.  Built on use: its chord
    property is the energy module's own CHORD_SCHEMA."""
    return {
        "title": "energy input JSON",
        "type": "object",
        "required": _ENERGY_INPUT_KEYS[op],
        "properties": {
            "v": {"type": "array", "items": {"type": "integer"}},
            "x0": {"type": "object", "required": ["v"], "properties": {
                "v": {"type": "array", "items": {"type": "integer"}},
                "component": {"type": "integer"}}},  # accepted, not read
            "orbitAction": RATIONAL,
            "chord": energy.CHORD_SCHEMA,
            "fromWeight": RATIONAL,
            "toWeight": RATIONAL,
        },
    }


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


def _require(args, name):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise InputError(f"missing required argument --{name}")
    return value


def _input(args, flag, inputs):
    """The parsed JSON of the file that --flag names, which the command
    requires; recorded in inputs, by path and sha256, once it parses."""
    path = _require(args, flag)
    import hashlib  # OpenSSL's start-up cost, paid only by a process that reads a file

    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: byte {exc.start} is not "
                         f"{exc.encoding} text ({exc.reason})") from None
    except ValueError:  # the only other one: int()'s digit limit, met by a long integer
        raise InputError(f"unreadable JSON in {path}: an integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise InputError(f"unreadable JSON in {path}: nested too deeply to parse") from None
    inputs[flag] = {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}
    return data


def _levels(counts: dict) -> list:
    return [{"weight": format_rational(w), "count": counts[w]}
            for w in sorted(counts)]


def _parse_face(text: str):
    text = text.strip()
    if not text:
        return []
    try:
        face = [int(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"malformed face {text!r}; expected comma-separated integers") from None
    require_distinct(face, "--face", "", "vertex")
    return face


# -- handler implementations -------------------------------------------------------


def _cmd_complex(args, inputs):
    if args.complex_op == "link" and args.field is not None and not args.local_homology:
        raise InputError("--field is not used by complex link without --local-homology")
    cx = complexes.complex_from_json(_input(args, "faces", inputs))
    if args.complex_op == "core":
        return cx.core().to_json()
    coeff_field = field_from_name("Q" if args.field is None else args.field)
    if args.complex_op == "homology":
        table = homology.reduced_homology(cx, coeff_field)
        return {"field": coeff_field.name, "betti": table.to_json()}
    if args.complex_op == "gorenstein":
        report = homology.gorenstein_verdict(cx, coeff_field)
        return {"field": coeff_field.name, **report.to_json()}
    if args.complex_op == "link":
        face = _parse_face(_require(args, "face"))
        payload = cx.link(face).to_json()
        if args.local_homology:
            table = homology.local_homology_at_face(cx, face, coeff_field)
            payload["localHomology"] = table.to_json()
        return payload


def _cmd_sr(args, inputs):
    config = stratum.configuration_from_json(_input(args, "config", inputs))
    if args.sr_op == "multiply":
        lhs = sr_algebra.parse_theta_expression(_require(args, "lhs"), config)
        rhs = sr_algebra.parse_theta_expression(_require(args, "rhs"), config)
        product = sr_algebra.multiply(config, lhs, rhs)
        return {"product": product.to_json(config)}
    if args.sr_op == "hilbert":
        bound = parse_rational(_require(args, "bound"))
        counts = sr_algebra.graded_dimension(config, bound)
        return {"levels": _levels(counts)}
    if args.sr_op == "present":
        cx = config.dual_complex()
        weights = None
        if args.use_kappa:
            weights = [config.kappa[v - 1] for v in cx.vertices]
        pres = sr_algebra.sr_presentation(cx, weights)
        return {"presentation": pres.to_json()}


def _cmd_ring(args, inputs):
    if args.ring_op == "grob":
        names = [x.strip() for x in _require(args, "vars").split(",")]
        weights = [parse_rational(x) for x in _require(args, "weights").split(",")]
        ring = rees.WeightedPresentation(names, weights, [])  # checks the names and weights
        order = ring.order
        gens = [poly.parse_polynomial(text, ring.vars) for text in _require(args, "gens")]
        basis = groebner.groebner_basis(gens, order)
        return {"basis": [g.to_string(order) for g in basis]}

    pres = rees.presentation_from_json(_input(args, "pres", inputs))

    if args.ring_op == "gr":
        graded = rees.associated_graded(pres)
        payload = {"presentation": graded.to_json()}
        if args.bound is not None:
            payload["levels"] = _levels(graded.hilbert_up_to(parse_rational(args.bound)))
        return payload
    if args.ring_op == "rees":
        return {"presentation": rees.rees_algebra(pres).to_json(),
                "rescale": pres.order.scale}
    if args.ring_op == "fiber":
        value = parse_rational(_require(args, "t"))
        return {"t": format_rational(value),
                "presentation": rees.fiber_at(pres, value).to_json()}
    if args.ring_op == "smooth":
        codim = _require(args, "codim")
        if codim < 1:
            raise InputError(f"--codim must be at least 1, got {codim}")
        smooth, cert = groebner.jacobian_smooth(pres.relations, codim)
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
    config = stratum.configuration_from_json(_input(args, "sr-config", inputs))
    bound = parse_rational(_require(args, "bound"))

    graded = rees.associated_graded(pres)
    special = rees.fiber_at(pres, 0)
    generic = rees.fiber_at(pres, 1)

    special_ok = rees.presentations_ideal_equal(special, graded)
    hilbert_gr = graded.hilbert_up_to(bound)
    hilbert_generic = generic.hilbert_up_to(bound)
    theta_counts = sr_algebra.graded_dimension(config, bound)

    payload = {
        "gr": graded.to_json(),
        "specialFiberMatchesGr": special_ok,
        "grLevels": _levels(hilbert_gr),
        "genericFiberLevels": _levels(hilbert_generic),
        "thetaLevels": _levels(theta_counts),
        "grMatchesTheta": hilbert_gr == theta_counts,
        "flatShadow": hilbert_gr == hilbert_generic,
    }

    # Gorenstein transfer: only when gr is visibly a Stanley-Reisner ring
    cx = sr_algebra.stanley_reisner_complex(graded) if graded.relations else None
    payload["grIsStanleyReisner"] = cx is not None
    if cx is not None:
        report = homology.gorenstein_verdict(cx)
        payload["grGorenstein"] = report.verdict
        if report.verdict:
            payload["transfer"] = ("gr is Gorenstein by the homology criterion, "
                                   "so the filtered ring is Gorenstein as well")
    return payload


def _cmd_tree(args, inputs):
    tree = trees.tree_from_json(_input(args, "tree", inputs))
    if args.tree_op == "validate":
        violations = tree.validate()
        return {"valid": not violations,
                "violations": [v.to_json() for v in violations]}
    if args.tree_op == "rho":
        rho = trees.build_rho(tree)
        kernel = rho.kernel_dim()  # one sparse elimination gives both numbers
        return {"rho": rho.to_json(), "rank": rho.ncols - kernel, "kernelDim": kernel}
    if args.tree_op == "vdim":
        rho = trees.build_rho(tree)  # one incidence map and kernel for all four numbers
        kernel = rho.kernel_dim()
        return {
            "vdimPrelog": checked_integer(trees.vdim_prelog(tree)),
            "vdimLog": checked_integer(tree.deg_x0 - 2 * kernel),  # as trees.vdim_log
            "kernelDim": kernel,
            "obstructionDim": trees.obstruction_dim(tree, rho, kernel),
        }
    if args.tree_op == "feasible":
        cert = trees.balancing_feasible(tree)
        return {"feasible": cert is not None,
                "certificate": None if cert is None else cert.to_json()}


def _cmd_energy(args, inputs):
    params = energy.parameters_from_json(_input(args, "params", inputs))
    data = _input(args, "input", inputs)
    validate(data, _energy_input_schema(args.energy_op))

    if args.energy_op == "winding":
        return {"weight": format_rational(energy.weighted_winding(params, data["v"]))}
    if args.energy_op == "orbit-action":
        return {"action": format_rational(energy.orbit_action_approx(params, data["v"]))}
    if args.energy_op == "pss":
        orbit = energy.OrbitLabel(tuple(data["x0"]["v"]))
        approx = energy.pss_energy_approx(params, data["v"], orbit)
        if "orbitAction" in data:
            action = parse_rational(data["orbitAction"])
        else:
            action = energy.orbit_action_approx(params, orbit.v)
        exact = energy.pss_energy(params, data["v"], action)
        return {"energy": format_rational(exact), "energyApprox": format_rational(approx)}
    if args.energy_op in ("chord-weight", "chord-action"):
        chord = energy.chord_from_json(data["chord"], params.k)
        if args.energy_op == "chord-weight":
            return {"weight": format_rational(energy.chord_weight(params, chord))}
        return {"action": format_rational(energy.chord_action_approx(params, chord))}
    if args.energy_op == "monotone":
        ok = energy.filtration_monotone_check(
            params, parse_rational(data["fromWeight"]), parse_rational(data["toWeight"]))
        return {"monotone": ok}


# the optional flags each `example appc --check` reads; any other is refused
_APPC_FLAGS = {"admissible": (), "singular-line": ("mode", "coeffs"), "sr": ("bound",)}


def _cmd_example(args, inputs):
    if args.example_op == "conic":
        if args.bound is not None and not args.gr:
            raise InputError("--bound is not used by example conic without --gr")
        n = _require(args, "n")
        fixture = mirror.ConicBundleFixture(
            n, args.na, args.nb,
            parse_rational(args.kappa1) if args.kappa1 is not None else None,
            parse_rational(args.kappa2) if args.kappa2 is not None else None)
        pres = mirror.conic_bundle_presentation(fixture)
        payload = {"presentation": pres.to_json()}
        if args.smooth:
            verdicts = mirror.conic_bundle_smooth_check(fixture)
            payload["smooth"] = {str(dim): ok for dim, (ok, _) in sorted(verdicts.items())}
        if args.gr:
            sr_fixture = mirror.conic_bundle_sr_fixture(fixture)
            graded = rees.associated_graded(pres)
            bound = parse_rational(args.bound) if args.bound is not None else Fraction(8)
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
                "matchesExpected": found == set(mirror.ADMISSIBLE_MONOMIALS),
            }
        if check == "singular-line":
            coeffs = None
            if args.mode == "numeric":
                text = "0,0,0,0,0,0,0" if args.coeffs is None else args.coeffs
                coeffs = [parse_rational(x) for x in text.split(",")]
            residuals = mirror.singular_line_residuals(mirror.hypersurface_family(coeffs))
            return {
                "singularAlongLine": not residuals,
                "residuals": [{"at": label, "value": residual.to_string()}
                              for label, residual in residuals],
            }
        if check == "sr":
            pres = mirror.appendix_c_sr_presentation()
            bound = parse_rational(args.bound) if args.bound is not None else Fraction(5)
            quotient_levels = pres.hilbert_up_to(bound)
            theta_levels = sr_algebra.graded_dimension(mirror.appendix_c_configuration(), bound)
            return {
                "presentation": pres.to_json(),
                "hypersurface": mirror.hypersurface_family([0] * 7).to_string(),
                "quotientLevels": _levels(quotient_levels),
                "thetaLevels": _levels(theta_levels),
                "quotientMatchesTheta": quotient_levels == theta_levels,
            }


def _cmd_batch(args, inputs):
    data = _input(args, "manifest", inputs)
    validate(data, MANIFEST_SCHEMA)
    job_args = [job["args"] for job in data["jobs"]]
    for idx, argv in enumerate(job_args):
        if argv[:1] == ["batch"]:
            raise InputError(f"job {idx}: nested batch jobs are not supported")
    results = [_run(argv, in_batch=True)[:2] for argv in job_args]
    reports = [{"args": argv, "exit": code, "report": report}
               for argv, (code, report) in zip(job_args, results)]
    worst = max((code for code, _ in results), default=EXIT_OK)
    return {"jobs": reports, "exit": worst}, worst


# -- argument plumbing ---------------------------------------------------------------

def _schema(command: str):
    """What --schema prints for command: the schema each input file is
    validated against, by input flag when there are several.  Built on use,
    so that a command executes only the modules that hold its schemas."""
    group, _, op = command.partition(" ")
    if group == "complex":
        return complexes.COMPLEX_SCHEMA
    if group == "sr":
        return stratum.CONFIGURATION_SCHEMA
    if group == "ring" and op == "grob":
        return {"note": "the grob operation takes inline flags, no input file"}
    if group == "ring" and op == "degenerate":
        return {"pres": rees.PRESENTATION_SCHEMA, "sr-config": stratum.CONFIGURATION_SCHEMA}
    if group == "ring":
        return rees.PRESENTATION_SCHEMA
    if group == "tree":
        return trees.TREE_SCHEMA
    if group == "energy":
        return {"params": energy.PARAMETERS_SCHEMA, "input": _energy_input_schema(op)}
    if group == "batch":
        return MANIFEST_SCHEMA
    return {"note": "the example subcommand takes inline flags, no input file"}


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

    def leaf(sub, command, flags):
        p = sub.add_parser(command.rpartition(" ")[2])
        p.set_defaults(command=command)
        p.add_argument("--schema", action="store_true", help="print the input JSON schema")
        p.add_argument("--out", default=None, help="write the report to a file instead of stdout")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)

    cx = top.add_parser("complex").add_subparsers(dest="complex_op", required=True)
    for op in ("homology", "gorenstein", "link", "core"):
        flags = {"--faces": {}} if op == "core" else {"--faces": {}, "--field": {}}
        if op == "link":
            flags["--face"] = {}
            flags["--local-homology"] = {"action": "store_true"}
        leaf(cx, f"complex {op}", flags)

    sr = top.add_parser("sr").add_subparsers(dest="sr_op", required=True)
    leaf(sr, "sr multiply", {"--config": {}, "--lhs": {}, "--rhs": {}})
    leaf(sr, "sr hilbert", {"--config": {}, "--bound": {}})
    leaf(sr, "sr present", {"--config": {}, "--use-kappa": {"action": "store_true"}})

    ring = top.add_parser("ring").add_subparsers(dest="ring_op", required=True)
    leaf(ring, "ring grob", {"--vars": {}, "--weights": {}, "--gens": {"nargs": "+"}})
    leaf(ring, "ring gr", {"--pres": {}, "--bound": {}})
    leaf(ring, "ring rees", {"--pres": {}})
    leaf(ring, "ring fiber", {"--pres": {}, "--t": {}})
    leaf(ring, "ring smooth", {"--pres": {}, "--codim": {"type": int}})
    leaf(ring, "ring degenerate", {"--pres": {}, "--sr-config": {}, "--bound": {}})

    tree = top.add_parser("tree").add_subparsers(dest="tree_op", required=True)
    for op in ("validate", "rho", "vdim", "feasible"):
        leaf(tree, f"tree {op}", {"--tree": {}})

    en = top.add_parser("energy").add_subparsers(dest="energy_op", required=True)
    for op in _ENERGY_INPUT_KEYS:
        leaf(en, f"energy {op}", {"--params": {}, "--input": {}})

    ex = top.add_parser("example").add_subparsers(dest="example_op", required=True)
    leaf(ex, "example conic", {"--n": {"type": int}, "--na": {"type": int, "default": 1},
                               "--nb": {"type": int, "default": 1}, "--kappa1": {},
                               "--kappa2": {}, "--smooth": {"action": "store_true"},
                               "--gr": {"action": "store_true"}, "--bound": {}})
    leaf(ex, "example appc", {"--mode": {"choices": ["symbolic", "numeric"]}, "--coeffs": {},
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


def run(argv):
    """Execute one subcommand; returns (exit_code, report dict)."""
    code, report, _ = _run(argv)
    return code, report


def _run(argv, in_batch=False):
    """run(), plus the parsed arguments (None on a usage error).  A batch job
    may not give --out, in any spelling argparse accepts: its report goes
    into the batch report."""
    try:
        args = _parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        return EXIT_INPUT, {"error": {"type": "usage", "message": str(exc)}}, None
    command = args.command
    if in_batch and args.out is not None:
        message = "--out is not supported in a batch job; its report is in the batch report"
        return EXIT_INPUT, {"command": command, "inputs": {},
                            "error": {"type": "input", "message": message}}, args
    if args.schema:
        alone = vars(_parser().parse_args(command.split() + ["--schema"]))
        given = ["--" + key.replace("_", "-") for key, value in vars(args).items()
                 if key != "out" and value != alone[key]]
        if given:
            message = f"--schema reads no flag but --out; got {', '.join(given)}"
            return EXIT_INPUT, {"command": command, "inputs": {},
                                "error": {"type": "input", "message": message}}, args
        return EXIT_OK, {"command": command, "schema": _schema(command)}, args
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


def main(argv=None) -> int:
    code, report, args = _run(sys.argv[1:] if argv is None else argv)
    text = render_report(report)
    if args is not None and args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            code = EXIT_INPUT
            report = {key: report[key] for key in ("command", "inputs") if key in report}
            report["error"] = {"type": "input", "message": f"cannot write {args.out}: {exc}"}
            text = render_report(report)
        else:
            text = ""
    sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
