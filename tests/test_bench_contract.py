"""The names the benchmark traces exist in the package, so that renaming or
deleting one fails here and not only in `bench/run.py --trace 1`.  Reads
bench/spans.py and BENCHMARK.json; changes neither."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# per-layer metrics computed by bench/run.py itself, not read from one span
DERIVED = ("periods.points_per_integral", "periods.quadrature_errors")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_exist():
    spans = load_spans()
    for module, cls, attr in spans.METHODS:
        owner = getattr(importlib.import_module(f"residuum.{module}"), cls)
        assert attr in vars(owner), f"{module}.{cls}.{attr} is traced but not defined"


def test_per_layer_names_name_public_functions():
    method_spans = set(load_spans().METHODS.values())
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    checked = 0
    for name in names:
        if name.startswith(("layer.", "trace.")) or name in DERIVED:
            continue
        span, _, field = name.rpartition(".")
        assert field in ("calls", "self_s", "points"), name
        if span in method_spans:
            continue
        module, function = span.split(".")
        mod = importlib.import_module(f"residuum.{module}")
        obj = getattr(mod, function, None)
        assert not function.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__, (
            f"{name} names no public module-level function of residuum.{module}"
        )
        checked += 1
    assert checked > 0
