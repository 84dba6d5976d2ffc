"""Every function the benchmark's tracer wraps still exists where it looks."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_logcy():
    tracing = _tracing_module()
    hooks = (tracing.TIMED + tracing.COUNTED
             + [("energy", fn) for fn in tracing.ENERGY]
             + [("exactlin", fn) for fn in tracing.EXACTLIN])
    missing = []
    for module_name, qualname in hooks:
        # resolved as Tracer._wrap does: attributes down the path, then owner.__dict__
        owner = importlib.import_module(f"logcy.{module_name}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{qualname}")
    assert not missing, missing
