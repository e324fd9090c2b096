"""Benchmark the scan kernel: the C extension vs pure Python.

Runs the normal-form agreement scan at increasing sizes with both backends
and reports, per backend, the best-of-N wall-clock seconds and the words
checked per second.  The run exits nonzero when either backend reports
failures or the two backends' reports (words and failure lists) differ, so
it still checks the engine when only the pure-Python backend is available.

The C kernel (`nearnormal._scan_c`) exists once setup.py has built it, for
example with `python setup.py build_ext --inplace`.  Both backends use
exact integer dyadics.  The pure-Python one takes about 0.06 s at size 5:2
(about 75,000 words/s on a 2-core x86-64 Xeon, Python 3.11), the C kernel
about 0.002 s; pass --sizes to push both harder.  The pure-Python kernel
gains with size, as more words share a (form, letter) edge: at 6:4 it
checks about 200,000 words/s.  The C kernel checks about 2,000,000 words/s
at 6:4 and about 1,600,000 at 7:4.

Usage: python benchmarks/bench_scan.py [--sizes 3:2,4:2,5:2] [--repeat 3]
"""

from __future__ import annotations

import argparse
import time

from nearnormal import _scan_py

try:
    from nearnormal import _scan_c
except ImportError:
    _scan_c = None


def run(fn, max_len: int, max_index: int, repeat: int):
    best = None
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(max_len, max_index)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def main():
    ap = argparse.ArgumentParser(
        description="Benchmark the normal-form agreement scan backends.")
    ap.add_argument("--sizes", default="3:2,4:2,5:2",
                    help="Comma-separated max_len:max_index pairs.")
    ap.add_argument("--repeat", type=int, default=3,
                    help="Repetitions per measurement (best is reported).")
    args = ap.parse_args()
    sizes = []
    for part in args.sizes.split(","):
        left, _, right = part.partition(":")
        sizes.append((int(left), int(right)))

    backends = {"python": _scan_py.thompson_agreement_scan}
    if _scan_c is not None:
        backends["compiled"] = _scan_c.thompson_agreement_scan
    header = f"{'size':>6} {'words':>11}"
    for name in ("python", "compiled"):
        header += f" {name + ' s':>12} {name + ' words/s':>18}"
    print(header)
    for max_len, max_index in sizes:
        cells, reports = "", {}
        for name in ("python", "compiled"):
            if name not in backends:
                cells += f" {'not built':>12} {'-':>18}"
                continue
            seconds, reports[name] = run(backends[name], max_len, max_index, args.repeat)
            cells += f" {seconds:>12.3f} {reports[name]['words'] / seconds:>18,.0f}"
        print(f"{f'{max_len}:{max_index}':>6} {reports['python']['words']:>11}{cells}",
              flush=True)
        outcomes = {name: (r["words"], r["failures"]) for name, r in reports.items()}
        first = next(iter(outcomes.values()))
        agree = all(outcome == first for outcome in outcomes.values())
        if not agree or first[1]:
            raise SystemExit(
                f"scan check failed at {max_len}:{max_index}: "
                + ", ".join(f"{name} {w} words / {len(f)} failures"
                            for name, (w, f) in outcomes.items())
                + ("" if agree else "; the backends' reports differ"))


if __name__ == "__main__":
    main()
