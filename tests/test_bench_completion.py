"""The completion harness runs, and checks its counts, on its smallest case."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bench_completion_runs_on_its_smallest_case():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_completion.py"),
         "--cases", "sym3-all", "--repeat", "1", "--json"],
        capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    (row,) = json.loads(done.stdout)
    assert (row["case"], row["call"], row["elements"], row["count"]) == ("sym3-all", "laws", 6, 7)
    assert row["seconds"] > 0
