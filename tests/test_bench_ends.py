"""The coset-graph ball harness runs, and checks its balls, on its smallest cases."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bench_ends_runs_on_its_smallest_cases():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_ends.py"),
         "--cases", "free2-a,z2-u", "--repeat", "1", "--json"],
        capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    rows = {r["case"]: r for r in json.loads(done.stdout)}
    # one key per element, and one per generator for each outer-sphere element
    assert {name: (r["vertices"], r["edges"], r["elements"], r["keyed"])
            for name, r in rows.items()} == {"free2-a": (81, 161, 161, 377),
                                             "z2-u": (41, 81, 841, 1001)}
