"""One pass of a workload in a fresh process; prints one JSON line.

Usage: python3 perfbench/worker.py --workload NAME --seed N
           [--mode run|trace|setup|record] [--spans PATH] [--only TASK]

``ready`` is the CLOCK_MONOTONIC time at which nearnormal is imported and
the inputs are generated; the parent subtracts its spawn time from it to get
the set-up time.  ``setup_probe`` and ``task_probe`` are the speed-probe
loop times during set-up and during the tasks.  ``setup`` mode stops at
set-up.  ``trace`` mode installs the tracer first and adds the per-layer
metrics (and writes the spans to PATH).
``record`` mode writes the digests of this pass's outputs into
``expected.json``: run it only on a commit whose outputs are the reference.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import signal
import statistics
import sys
import time


class SpeedProbe:
    """Host speed, sampled all through a pass on the pass's own core.

    A SIGALRM handler times a fixed pure-Python loop every 25 ms, about 1% of
    the pass; no thread is started.  The loop builds and hashes small tuples
    into a dict, the object work that dominates every workload, and it calls
    no nearnormal code, so a change to the program cannot move it.  Host
    speed drifts by tens of percent within minutes, so run.py scales a pass's
    times by the reference loop time over the loop time measured here."""

    ITERATIONS = 500
    INTERVAL_S = 0.025

    def __init__(self):
        self.samples = []
        self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def sample(self) -> None:
        start = time.perf_counter()
        table, key = {}, ()
        for i in range(self.ITERATIONS):
            key = key[-6:] + ((i & 7, 1 - 2 * (i & 1)),)
            table[key] = i
        self.samples.append(time.perf_counter() - start)

    def loop_time_since(self, first: int) -> float:
        """Mean loop time of the samples from ``first`` on, trimmed by a tenth
        at each end: a pass's time scales with the mean slowness, and the trim
        drops loops that were descheduled midway."""
        self.sample()
        times = sorted(self.samples[first:])
        k = len(times) // 10
        return statistics.fmean(times[k:len(times) - k])


ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def cold_cache_functions() -> list:
    """The package's lru_caches; each CLI call starts with them empty."""
    return [obj for name, mod in sorted(sys.modules.items()) if name.startswith("nearnormal.")
            for obj in vars(mod).values() if hasattr(obj, "cache_clear")]


def run_tasks(workload, tasks, expected, tracer=None, record=None, caches=()) -> list:
    results = []
    for task in tasks:
        for cache in caches:
            cache.cache_clear()
        if tracer is not None:
            tracer.task = task.id
            tracer.enter("task")
        start = time.perf_counter()
        try:
            out, error = task.run(), None
        except Exception as exc:  # a task that raises counts as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.exit()
        problems = [error] if error else workloads.check_output(workload, task, out,
                                                                expected, record)
        result = {"id": task.id, "seconds": seconds, "problems": problems}
        if task.info is not None and not error:
            result["info"] = task.info(out)
        results.append(result)
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "trace", "setup", "record"), default="run")
    ap.add_argument("--spans", type=pathlib.Path, default=None)
    ap.add_argument("--only", default=None, help="run only the task with this id")
    args = ap.parse_args(argv)
    probe = SpeedProbe()
    try:
        return run(args, probe)
    finally:
        probe.stop()


def run(args, probe: SpeedProbe) -> int:
    from nearnormal import cli, scan  # noqa: F401  (cli imports every module)

    tasks = workloads.BUILDERS[args.workload](args.seed)
    if args.only is not None:
        tasks = [t for t in tasks if t.id == args.only]
    expected = workloads.load_expected()
    caches = cold_cache_functions()
    ready = time.monotonic()
    report = {"ready": ready, "backend": scan.BACKEND, "setup_probe": probe.loop_time_since(0)}
    first_task_sample = len(probe.samples)
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    record = {} if args.mode == "record" else None
    report["tasks"] = run_tasks(args.workload, tasks, expected, tracer, record, caches)
    report["task_probe"] = probe.loop_time_since(first_task_sample)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps(tracing.span_records(tracer)))
    if record is not None:
        expected.update(record)
        workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
