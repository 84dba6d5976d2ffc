"""Exact combinatorial commutative algebra for normal-crossings divisor
geometry: stratum posets, theta rings, simplicial homology and Gorenstein
criteria, weighted Groebner bases, Rees degenerations, contact-tree
calculus, and action/energy filtration arithmetic.

Submodules run on first use.  Importing the package executes none of them:
every submodule but cli is put into sys.modules behind
importlib.util.LazyLoader, and is compiled and executed when one of its
attributes is first read, so a command pays only for the modules it uses.
A lazy entry, unlike an import inside a function, is in sys.modules from the
start, for code that looks a module up there before anything has used it
(the benchmark's tracer wraps functions that way).  cli is left out so that
`python -m logcy.cli` runs it as __main__ without runpy's warning about a
module that is already imported.  The public names below resolve through
the module __getattr__ (PEP 562) to the module that defines them.

LazyLoader takes no lock in Python 3.11 and 3.12.1 (3.13 has one), so a
first use racing in two threads can see a module half executed: a threaded
caller imports what it uses (`import logcy.poly` executes it) before it
starts its threads.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "complexes": ("SimplicialComplex", "cross_polytope_boundary", "full_simplex",
                  "sphere_boundary"),
    "errors": ("DegenerateChordError", "InputError", "LogcyError", "UnsupportedStructureError"),
    "fields": ("QQ", "PrimeField"),
    "groebner": ("groebner_basis", "hilbert_function_up_to", "is_groebner", "jacobian_smooth"),
    "homology": ("BettiTable", "GorensteinReport", "gorenstein_verdict",
                 "is_rational_homology_manifold", "is_rational_homology_sphere",
                 "local_homology_at_face", "reduced_homology"),
    "poly": ("Polynomial", "WeightedOrder", "parse_polynomial", "unit_order"),
    "rees": ("ReesPresentation", "WeightedPresentation", "associated_graded", "fiber_at",
             "presentations_ideal_equal", "rees_algebra"),
    "sr_algebra": ("ThetaBasisElement", "ThetaElement", "graded_dimension", "multiply",
                   "multiply_basis", "parse_theta_expression", "sr_presentation",
                   "unit_element"),
    "stratum": ("DivisorConfiguration", "configuration_from_json"),
    "trees": ("BalancingCertificate", "LogPssTree", "RhoMap", "TreeEdge", "balancing_feasible",
              "build_rho", "kernel_dim", "obstruction_dim", "partition_count", "tree_from_json",
              "vdim_log", "vdim_prelog"),
    "energy": ("ChordLabel", "EnergyParameters", "OrbitLabel", "chord_action_approx",
               "chord_weight", "filtration_monotone_check", "orbit_action_approx",
               "pss_energy", "pss_energy_approx", "short_chord_winding", "weighted_winding"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)

for _name in ("complexes", "energy", "errors", "exactlin", "fields", "groebner", "homology",
              "linprog", "mirror", "poly", "rationals", "rees", "schema", "sr_algebra",
              "stratum", "trees"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)  # defers the real execution to the first attribute read
    globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)
