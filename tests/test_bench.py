"""The benchmark harness runs and checks its smallest cases, and refuses bad input."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks" / "bench.py"


def run_bench(*cases):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(BENCH), *cases, "--repeat", "1", "--json"],
                          capture_output=True, text=True, timeout=120, env=env)


@pytest.mark.parametrize("want", [
    {"completion:sym3-all": {"call": "laws", "elements": 6, "count": 7}},
    {"family:cyclic120": {"nodes": 3, "conjugation_closed": True, "stable": True}},
    # one key per element, and one per outer-sphere product g*x that is not
    # a ball element
    {"ends:free2-a": {"vertices": 81, "edges": 161, "elements": 161, "keyed": 323},
     "ends:free2-ab": {"vertices": 55, "edges": 108, "elements": 161, "keyed": 323},
     "ends:z2-u": {"vertices": 41, "edges": 81, "elements": 841, "keyed": 923}},
    # dim, h0 dim, dim h1 and inner-derivation rank of the regular module;
    # s5 is the 120-dimensional case, about 0.3 s at --repeat 1
    {**{case: {"dim": 6, "h0_dim": 6, "dim_h1": 0, "rank": 5}
        for case in ("modp:sym3:2", "modp:dense-sym3:3")},
     "modp:s5:2": {"dim": 120, "h0_dim": 120, "dim_h1": 0, "rank": 119, "res_dim": 120}},
    # 1 + 6 + 6*5 + 6*5*5 freely reduced words over x_0..x_2
    {"scan:3:2": {"words": 187, "failures": 0}},
    # every check of the 8 suites; words is one suite, so one process
    {"suite:all": {"checks": 83, "failed": 0},
     "suite:words": {"checks": 4, "failed": 0, "workers": 1}},
    # the five command shapes of infinite-oracles, each call exiting 0
    {"cli:dispatch": {"commands": 5, "failed": 0}},
    # a fresh interpreter loads the CLI's modules and builds no dataclass
    {"import:cli": {"modules": 14, "dataclasses": 0}},
], ids=["completion", "family", "ends", "modp", "scan", "suite", "cli", "import"])
def test_bench_runs_its_smallest_cases(want):
    done = run_bench(*want)
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)
    assert [row["case"] for row in rows] == list(want)
    assert {row["case"]: {key: row[key] for key in want[row["case"]]} for row in rows} == want
    assert all(value > 0 for row in rows for key, value in row.items()
               if key.endswith("seconds"))


@pytest.mark.parametrize("case", ["nope:x", "completion:nope", "family:nope", "ends:", "modp:q4:2",
                                  "modp:a5:4", "scan:3", "scan:3:x", "suite:nope", "cli:nope",
                                  "import:nope", "import:cli.x"])
def test_bench_refuses_a_bad_case_in_one_line(case):
    done = run_bench("completion:sym3-all", case)
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr
    assert done.stderr.startswith(f"bench.py: {case}: ")


def test_bench_exits_1_and_lists_every_wrong_count(capsys):
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    group, nodes, call, elements, count = bench.COMPLETION["sym3-all"]
    bench.COMPLETION["sym3-all"] = (group, nodes, call, elements + 1, count + 1)
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["completion:sym3-all", "ends:free2-a", "--repeat", "1"])
    assert exit_info.value.code == 1
    assert capsys.readouterr().err.splitlines() == [
        "count check failed:",
        "  completion:sym3-all: elements 6, expected 7",
        "  completion:sym3-all: count 7, expected 8"]
