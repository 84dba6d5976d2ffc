"""Per-layer spans and counters, installed from outside the program.

install() wraps public functions of the logcy modules: on the module (or
class) that defines them and on every logcy module that bound the same
object with `from ... import`.  A timed wrapper records a span (name, start,
end, parent) in memory; a counted wrapper, used on the hottest small
functions, only counts calls.  metrics() turns one pass worth of spans and
counts into the per-layer metrics.  uninstall() restores the originals.
"""

import functools
import sys
import time
from collections import Counter

# (module, qualified name) of functions timed with a span per call
TIMED = [
    ("cli", "run"), ("cli", "build_parser"), ("cli", "render_report"),
    ("poly", "parse_polynomial"),
    ("groebner", "groebner_basis"), ("groebner", "hilbert_function_up_to"),
    ("groebner", "jacobian_smooth"),
    ("rees", "associated_graded"), ("rees", "rees_algebra"), ("rees", "fiber_at"),
    ("rees", "presentations_ideal_equal"),
    ("complexes", "SimplicialComplex.link"), ("complexes", "SimplicialComplex.faces_of_dim"),
    ("complexes", "SimplicialComplex.from_facets"), ("complexes", "SimplicialComplex.core"),
    ("homology", "reduced_homology"), ("homology", "gorenstein_verdict"),
    ("exactlin", "rank_int_bareiss"), ("exactlin", "rank_mod_p"),
    ("exactlin", "nullspace_dimension"),
    ("stratum", "DivisorConfiguration.component_map"), ("stratum", "configuration_from_json"),
    ("sr_algebra", "multiply"), ("sr_algebra", "graded_dimension"),
    ("sr_algebra", "sr_presentation"),
    ("trees", "build_rho"), ("trees", "balancing_feasible"), ("trees", "obstruction_dim"),
    ("linprog", "solve_max"),
]
# called so often that a span each would swamp the run: counted only
COUNTED = [
    ("poly", "Polynomial.leading"), ("poly", "WeightedOrder.key"),
    ("poly", "Polynomial.mul_term"), ("groebner", "reduce_modulo"),
    ("stratum", "DivisorConfiguration.in_basis"), ("sr_algebra", "multiply_basis"),
    ("trees", "LogPssTree.validate"),
]
ENERGY = ["parameters_from_json", "chord_from_json", "weighted_winding", "orbit_action_approx",
          "pss_energy", "pss_energy_approx", "short_chord_winding", "chord_weight",
          "chord_action_approx", "filtration_monotone_check"]
EXACTLIN = ["rank_int_bareiss", "rank_mod_p", "nullspace_dimension"]

BUSY = [  # name -> metric suffixes, in report order
    ("cli.run", ["self_s"]), ("cli.build_parser", ["calls", "s"]), ("cli.render_report", ["s"]),
    ("poly.parse_polynomial", ["s"]),
    ("groebner.groebner_basis", ["calls", "self_s"]), ("groebner.hilbert_function_up_to", ["s"]),
    ("groebner.jacobian_smooth", ["s"]),
    ("rees.associated_graded", ["self_s"]), ("rees.rees_algebra", ["self_s"]),
    ("rees.fiber_at", ["s"]), ("rees.presentations_ideal_equal", ["self_s"]),
    ("complexes.SimplicialComplex.link", ["calls", "s"]),
    ("complexes.SimplicialComplex.faces_of_dim", ["calls", "s"]),
    ("complexes.SimplicialComplex.from_facets", ["s"]), ("complexes.SimplicialComplex.core", ["s"]),
    ("homology.reduced_homology", ["calls", "self_s"]), ("homology.gorenstein_verdict", ["self_s"]),
    *[(f"exactlin.{fn}", ["calls", "s"]) for fn in EXACTLIN],
    ("stratum.DivisorConfiguration.component_map", ["calls", "s"]),
    ("stratum.configuration_from_json", ["s"]),
    ("sr_algebra.multiply", ["self_s"]), ("sr_algebra.graded_dimension", ["self_s"]),
    ("sr_algebra.sr_presentation", ["s"]),
    ("trees.build_rho", ["calls", "s"]), ("trees.balancing_feasible", ["self_s"]),
    ("trees.obstruction_dim", ["self_s"]),
    ("linprog.solve_max", ["calls", "s"]),
]


def _matrix_size(matrix, ncols=None):
    rows = len(matrix)
    cols = ncols if ncols is not None else (len(matrix[0]) if rows else 0)
    return rows * cols, sum(1 for row in matrix for x in row if x)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.ideals = set()
        self._restore = []

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.ideals.clear()

    # -- wrappers ----------------------------------------------------------------------

    def _timed(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _hooks(self, name):
        counts = self.counts
        if name == "groebner.groebner_basis":
            def before(args, kwargs):
                gens, order = list(args[0]), args[1]
                self.ideals.add((order.weights, bool(kwargs.get("with_trace", False)),
                                 tuple(tuple(sorted(g.terms.items())) for g in gens)))

            def after(result):
                counts[name + ".out_size"] += len(result[0] if isinstance(result, tuple) else result)
            return before, after
        if name.startswith("exactlin."):
            def before(args, kwargs):
                ncols = args[1] if name.endswith("nullspace_dimension") else None
                cells, nonzeros = _matrix_size(args[0], ncols)
                counts[name + ".cells"] += cells
                counts["exactlin.cells"] += cells
                counts["exactlin.nonzeros"] += nonzeros
            return before, None
        if name == "linprog.solve_max":
            def before(args, kwargs):
                counts[name + ".cells"] += _matrix_size(args[1])[0]
            return before, None
        return None, None

    # -- installation --------------------------------------------------------------------

    def _replace(self, owner, attr, original, wrapped):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("logcy"):
                continue
            for key, value in list(vars(module).items()):
                if value is original and module is not owner:
                    self._restore.append((module, key, value))
                    setattr(module, key, wrapped)

    def _wrap(self, module_name, qualname, counted):
        module = sys.modules[f"logcy.{module_name}"]
        owner = module
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        raw = owner.__dict__[attr]
        name = f"{module_name}.{qualname}"
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if counted:
            wrapped = self._counted(name, fn)
        else:
            wrapped = self._timed(name, fn, *self._hooks(name))
        self._replace(owner, attr, raw, classmethod(wrapped) if is_classmethod else wrapped)

    def install(self):
        import logcy.cli  # noqa: F401  (loads every module that is wrapped)
        for module_name, qualname in TIMED:
            self._wrap(module_name, qualname, counted=False)
        for module_name, qualname in COUNTED:
            self._wrap(module_name, qualname, counted=True)
        for fn in ENERGY:
            self._wrap("energy", fn, counted=False)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- metrics ---------------------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the spans and counts recorded since reset()."""
        spans = self.spans
        calls = Counter(span[0] for span in spans)
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        busy, self_time = Counter(), Counter()
        energy_busy = 0.0
        for idx, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            self_time[name] += duration - child_time[idx]
            ancestors = set()
            while parent >= 0:
                ancestors.add(spans[parent][0])
                parent = spans[parent][3]
            if name not in ancestors:
                busy[name] += duration
            if name.startswith("energy.") and not any(a.startswith("energy.") for a in ancestors):
                energy_busy += duration
        counts = self.counts
        out = {}
        for name, suffixes in BUSY:
            for suffix in suffixes:
                value = {"calls": calls[name], "s": busy[name], "self_s": self_time[name]}[suffix]
                out[f"{name}.{suffix}"] = value
        gb_calls = calls["groebner.groebner_basis"]
        out["groebner.groebner_basis.out_size"] = counts["groebner.groebner_basis.out_size"]
        out["groebner.groebner_basis.distinct_ratio"] = (
            len(self.ideals) / gb_calls if gb_calls else 0.0)
        for module_name, qualname in COUNTED:
            out[f"{module_name}.{qualname}.calls"] = counts[f"{module_name}.{qualname}"]
        for fn in EXACTLIN:
            out[f"exactlin.{fn}.cells"] = counts[f"exactlin.{fn}.cells"]
        out["exactlin.cells"] = counts["exactlin.cells"]
        out["exactlin.nonzeros"] = counts["exactlin.nonzeros"]
        out["exactlin.fill_ratio"] = (counts["exactlin.nonzeros"] / counts["exactlin.cells"]
                                      if counts["exactlin.cells"] else 0.0)
        out["linprog.solve_max.cells"] = counts["linprog.solve_max.cells"]
        out["energy.s"] = energy_busy
        return out


def is_count(metric):
    """Counts and ratios must repeat exactly; times (".s", "_s") need not."""
    return not (metric.endswith(".s") or metric.endswith("_s"))
