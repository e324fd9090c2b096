"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_time_minus_child_coverage():
    clock = FakeClock()
    t = tracing.Tracer(clock)
    t.task = "t1"
    steps = [  # (time, enter name | None for exit)
        (0, "task"), (1, "families.truncation"), (2, "groups.CosetTable.coset_of"),
        (3, None), (4, "groups.todd_coxeter"), (6, None), (7, None),
        (8, "families.check_stable"), (9, None), (10, None),
    ]
    for now, name in steps:
        clock.now = now
        t.enter(name) if name else t.exit()
    assert t.self_time["task"] == 10 - 6 - 1
    assert t.self_time["families.truncation"] == 6 - 1 - 2
    assert t.self_time["groups.CosetTable.coset_of"] == 1
    assert t.inclusive["families.truncation"] == 6
    assert t.edges["families.truncation", "groups.todd_coxeter"] == 1
    spans = {s[1]: s for s in t.spans}
    assert set(spans) == {"task", "families.truncation", "groups.todd_coxeter",
                          "families.check_stable"}  # coset_of is counted, not spanned
    assert spans["groups.todd_coxeter"][4] == spans["families.truncation"][0]
    assert spans["families.truncation"][4] == spans["task"][0]
    assert spans["families.truncation"][6] == 3
    assert all(s[5] == "t1" for s in t.spans)
    assert tracing.covered(t.spans, {"families.truncation", "groups.todd_coxeter"}) == 6
    assert tracing.covered(t.spans, {"groups.todd_coxeter", "families.check_stable"}) == 3


def test_recursion_counts_inclusive_time_once():
    clock = FakeClock()
    t = tracing.Tracer(clock)
    for now, name in [(0, "subgroups.contains"), (1, "subgroups.contains"), (2, None), (5, None)]:
        clock.now = now
        t.enter(name) if name else t.exit()
    assert t.calls["subgroups.contains"] == 2
    assert t.inclusive["subgroups.contains"] == 5
    assert t.self_time["subgroups.contains"] == 5


def _by_id(workload, seed=0):
    return {t.id: t for t in workloads.BUILDERS[workload](seed)}


def test_negative_control_wrong_answers_count_as_failed():
    scan = _by_id("completion-laws")["scan-s4-nondirected"]
    wrong = json.dumps({"element_count": 216, "invertible": 47, "non_invertible": 169,
                        "non_invertible_witnesses": []})
    right = json.dumps({"element_count": 216, "invertible": 48, "non_invertible": 168,
                        "non_invertible_witnesses": []})
    expected = {"completion-laws/scan-s4-nondirected": workloads.digest(right, "json")}
    assert workloads.check_output("completion-laws", scan, right, expected) == []
    assert workloads.check_output("completion-laws", scan, wrong, expected) == [
        "output differs from the recorded baseline (json)",
        "invertible is 47, expected 48"]
    laws = _by_id("completion-laws")["laws-s4-directed"]
    failing = json.dumps({"element_count": 24, "laws": {"identity": "pass",
                                                        "associativity": "fail"}})
    assert "law associativity is fail" in workloads.check_output(
        "completion-laws", laws, failing, {})
    assert workloads.check_output("completion-laws", laws, "not json", {})

    tasks = [workloads.Task("wrong", lambda: wrong, scan.check, None),
             workloads.Task("raises", lambda: 1 / 0),
             workloads.Task("right", lambda: right, scan.check, None)]
    results = worker.run_tasks("completion-laws", tasks, {})
    assert [bool(r["problems"]) for r in results] == [True, True, False]
    assert results[1]["problems"] == ["ZeroDivisionError: division by zero"]


def test_seeded_inputs_repeat():
    def args(seed):
        return [t.run.args for t in workloads.BUILDERS["infinite-oracles"](seed)]

    assert args(3) == args(3)
    assert args(3) != args(4)


def test_names_and_units_match_the_contract():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in bench["workloads"]] + [m["name"] for m in bench["end_to_end"]]
             + [m["name"] for m in bench["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    assert sorted(workloads.WHY) == sorted(workloads.BUILDERS)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == {**{n: u for n, (u, _) in tracing.PER_LAYER.items()},
                         "trace.overhead_ratio": "ratio"}
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload, task, metric", [
    ("suite-scan", "suite-all", "scan.words"),
    ("completion-laws", "laws-s4-directed", "completion.multiply_calls"),
])
def test_exact_counts_repeat_between_traced_runs(workload, task, metric):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "7",
           "--mode", "trace", "--only", task]
    env = dict(os.environ, PYTHONHASHSEED="0")  # as run.py spawns passes
    procs = [subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    reports = [json.loads(p.communicate(timeout=600)[0].splitlines()[-1]) for p in procs]
    counts = [r["layers"] for r in reports]
    assert counts[0][metric] == counts[1][metric] > 0
    exact = [n for n, (unit, _) in tracing.PER_LAYER.items() if unit == "count"]
    assert {n: counts[0][n] for n in exact} == {n: counts[1][n] for n in exact}
    assert all(not t["problems"] for r in reports for t in r["tasks"])
