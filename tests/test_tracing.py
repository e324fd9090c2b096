"""The benchmark's call tracer (perfbench/tracing.py) still fits src/.

The tracer wraps functions by name from outside the package, so deleting or
renaming a function a per-layer metric reads breaks only traced benchmark
runs.  This check installs it in a fresh interpreter and lists every name a
metric reads through the tracer's counters that no wrapper carries.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

PROBE = r"""
import importlib, inspect, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)
wrapper_code = tracer.wrap("probe", len).__code__


class Reads(dict):
    # a counter that records every key a metric looks up
    def __init__(self, seen):
        super().__init__()
        self.seen = seen

    def __missing__(self, key):
        self.seen.update(key if isinstance(key, tuple) else (key,))
        return 0


class Probe:
    def __init__(self, seen):
        self.calls, self.inclusive = Reads(seen), Reads(seen)
        self.sums, self.edges = Reads(seen), Reads(seen)
        self.self_time, self.spans = {}, []


seen = set()
for _unit, metric in tracing.PER_LAYER.values():
    metric(Probe(seen))

modules = {layer: mod for mod, layer in tracing.LAYERS.items()}
unwrapped = []
for name in sorted(seen):
    layer, path = name.split(".", 1)
    if name == "cli.main":
        obj = importlib.import_module("nearnormal.cli").main.main
    else:
        obj = importlib.import_module("nearnormal." + modules[layer])
        for part in path.split("."):
            obj = getattr(obj, part, None)
    if (getattr(obj, "__code__", None) is not wrapper_code
            or inspect.getclosurevars(obj).nonlocals["name"] != name):
        unwrapped.append(name)
print(json.dumps({"read": sorted(seen), "unwrapped": unwrapped}))
"""


def test_every_traced_metric_name_is_wrapped():
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert "modp.rref" in report["read"] and "ends._left_key" in report["read"]
    # completion.enumerate_completion no longer exists; its term reads 0
    assert set(report["unwrapped"]) <= {"completion.enumerate_completion"}
