"""The nearnormal benchmark: four CLI-level workloads, timed end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the task lists and their checks):
suite-scan, completion-laws, family-build, infinite-oracles.

Every pass of a workload runs in a fresh single-threaded process
(perfbench/worker.py), because every CLI call starts with cold caches.
Passes repeat, closed loop, until the next one would end after --seconds
(at least two).  With --trace 0 the run reports the end-to-end metrics:

    wall_s       median time of a pass's task list, after set-up
    setup_s      median time from process spawn until nearnormal is imported
                 and the inputs are generated (extra set-up-only spawns make
                 at least fifteen samples)
    peak_rss_mb  median peak resident memory of a pass process

Both times are scaled to the reference host speed (PROBE_REF_S) by the speed
probe each worker samples while it runs; the unscaled times and the probe are
printed beside them and kept in the run record.

With --trace 1 it runs one untraced pass and traced passes (at least two, so
exact counts can be compared) and reports the per-layer metrics of
tracing.py, with trace.overhead_ratio = traced wall_s / untraced wall_s.

Every task's output is checked; the last stdout line is
{"correct", "attempted", "failed", "metrics"}.  Per-run details (pass
times, per-task latencies, probe, spans) go to perfbench/out/.
The run exits 2 without a result when the nearnormal sources are missing,
and 1 when a pass process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
MIN_TRACED_PASSES = 2
SETUP_SAMPLES = 15
PASS_TIMEOUT_S = 150
# Reference time of the worker's speed-probe loop.  On the 2-core container
# the baseline was measured on (Python 3.11.7) the loop took 0.25-0.45 ms as
# the host's load changed.  Times are reported scaled to the reference:
# raw seconds x PROBE_REF_S / the mean loop time during the pass.
PROBE_REF_S = 0.00028


class PassFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, spans: pathlib.Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["elapsed_s"] = time.monotonic() - start
    report["raw_setup_s"] = report["ready"] - start
    report["setup_s"] = report["raw_setup_s"] * PROBE_REF_S / report["setup_probe"]
    if "tasks" in report:
        report["raw_wall_s"] = sum(t["seconds"] for t in report["tasks"])
        report["wall_s"] = report["raw_wall_s"] * PROBE_REF_S / report["task_probe"]
    return report


def summary(samples) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    samples = sorted(samples)
    n = len(samples)
    text = f"median {statistics.median(samples):.6g} (n={n}"
    for pct in (99.9, 99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(samples, n=1000, method="inclusive")
            text += f", p{pct:g} {q[round(pct * 10) - 1]:.6g}"
            break
    return text + ")"


def run_passes(workload, seed, seconds, mode, minimum, spans=None) -> list:
    passes = []
    deadline = time.monotonic() + seconds
    while (len(passes) < minimum or time.monotonic()
           + statistics.median(p["elapsed_s"] for p in passes) <= deadline):
        passes.append(spawn(workload, seed, mode, spans))
    return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nearnormal benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nearnormal" / "__init__.py").is_file():
        print(f"perfbench: no nearnormal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            untraced = [spawn(args.workload, args.seed, "run")]
            traced = run_passes(args.workload, args.seed, args.seconds - untraced[0]["elapsed_s"],
                                "trace", MIN_TRACED_PASSES, OUT / f"spans-{tag}.json")
            passes = untraced + traced
            setups = []
        else:
            passes = run_passes(args.workload, args.seed, args.seconds, "run", MIN_PASSES)
            setups = list(passes)
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(args.workload, args.seed, "setup"))
    except (PassFailed, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    results = [t for p in passes for t in p["tasks"]]
    failed = [t for t in results if t["problems"]]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {workloads.WHY[args.workload]}")
    probe = statistics.median(p["task_probe"] for p in passes)
    print(f"  machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"backend={passes[0]['backend']} probe_s={probe:.6f} (speed-probe loop, "
          f"reference {PROBE_REF_S}; times below are scaled by reference / probe)")
    for t in failed:
        print(f"  FAILED {t['id']}: {'; '.join(t['problems'])}")
    print(f"  failed_ratio {len(failed) / len(results):.6g} ({len(failed)}/{len(results)} tasks)")

    if args.trace:
        counts = [name for name, (unit, _) in tracing.PER_LAYER.items() if unit == "count"]
        repeat = all(p["layers"][c] == traced[0]["layers"][c] for p in traced for c in counts)
        metrics = {name: {"value": statistics.median(p["layers"][name] for p in traced),
                          "unit": unit} for name, (unit, _) in tracing.PER_LAYER.items()}
        for c in counts:
            metrics[c]["value"] = traced[0]["layers"][c]
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.overhead_ratio"] = {"value": traced_wall / untraced[0]["wall_s"],
                                           "unit": "ratio"}
        print(f"  traced passes {len(traced)}; exact counts repeat across them: {repeat}")
        for name, m in metrics.items():
            note = "" if m["value"] else "  (layer not exercised by this workload)"
            print(f"  {name:32s} {m['value']:.6g} {m['unit']}{note}")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
            "setup_s": {"value": statistics.median(p["setup_s"] for p in setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MiB"},
        }
        for name, samples in (("wall_s", passes), ("setup_s", setups)):
            print(f"  {name:11s} {metrics[name]['value']:.6g} s   "
                  f"{summary([p[name] for p in samples])}; unscaled "
                  f"{summary([p['raw_' + name] for p in samples])}")
        print(f"  peak_rss_mb {metrics['peak_rss_mb']['value']:.6g} MiB")
        scans = [(t["info"]["scan_words"], t["seconds"]) for t in results if t.get("info")]
        if scans:
            words_per_s = statistics.median(w / s for w, s in scans)
            print(f"  words_per_s {words_per_s:.6g} words/s (suite-all task; "
                  f"backend {passes[0]['backend']}; not gated)")
        by_task = {}  # numbered tasks of one kind pool their samples
        for t in results:
            by_task.setdefault(re.sub(r"-\d+$", "", t["id"]), []).append(t["seconds"])
        for task_id, samples in by_task.items():
            print(f"  task {task_id:28s} {summary(samples)} s unscaled")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(),
              "python": platform.python_version(), "backend": passes[0]["backend"],
              "probe_s": probe, "metrics": metrics,
              "setups": [{k: p[k] for k in ("setup_s", "raw_setup_s", "setup_probe")}
                         for p in setups],
              "passes": [{k: p[k] for k in ("wall_s", "raw_wall_s", "task_probe", "elapsed_s",
                                            "peak_rss_mb", "tasks", "layers") if k in p}
                         for p in passes]}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
