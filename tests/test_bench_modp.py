"""The GF(p) benchmark harness runs, and checks its modules, at its smallest size."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bench_modp_runs_at_its_smallest_size():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_modp.py"),
         "--cases", "sym3:2,dense-sym3:3", "--repeat", "1"],
        capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["sym3:2", "dense-sym3:3"]
    # dim, h0 dim, dim h1 and inner-derivation rank of the regular module
    assert all((row[1], row[6], row[7], row[8]) == ("6", "6", "0", "5") for row in rows)
