"""The scan kernel benchmark runs, and checks the engine, at its smallest size."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bench_scan_runs_at_its_smallest_size():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_scan.py"),
         "--sizes", "3:2", "--repeat", "1"],
        capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    header, *rows = [line.split() for line in done.stdout.splitlines()]
    assert header == ["size", "words", "python", "s", "python", "words/s",
                      "compiled", "s", "compiled", "words/s"]
    # 1 + 6 + 6*5 + 6*5*5 freely reduced words over x_0..x_2
    assert [row[:2] for row in rows] == [["3:2", "187"]]
