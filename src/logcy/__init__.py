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
module that is already imported.

LazyLoader takes no lock in Python 3.11 and 3.12.1 (3.13 has one), so a
first use racing in two threads can see a module half executed: a threaded
caller imports what it uses (`import logcy.poly` executes it) before it
starts its threads.
"""

import importlib.util
import sys

__version__ = "0.1.0"

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

