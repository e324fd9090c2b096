"""Benchmark the scan kernel: compiled extension vs pure Python.

Runs the normal-form agreement scan at increasing sizes with both backends
and reports best-of-N wall-clock times and the speedup.  The run exits
nonzero when either backend reports failures or the two backends disagree
on word or failure counts, so it still checks the engine when only the
pure-Python backend is available.

Both backends use exact integer dyadics.  The pure-Python one takes about
0.18 s at size 5:2 (2-core x86-64 Xeon, Python 3.11); pass --sizes to push
the compiled backend harder.

Usage: python benchmarks/bench_scan.py [--sizes 3:2,4:2,5:2] [--repeat 3]
"""

from __future__ import annotations

import argparse
import time

from nearnormal import _scan_py

try:
    from nearnormal import _scan_cy
except ImportError:
    _scan_cy = None


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

    print(f"{'size':>8} {'words':>12} {'python':>11} {'compiled':>11} {'speedup':>9}")
    for max_len, max_index in sizes:
        t_py, r_py = run(_scan_py.thompson_agreement_scan,
                         max_len, max_index, args.repeat)
        reports = {"python": r_py}
        row = f"{f'{max_len}:{max_index}':>8} {r_py['words']:>12} {t_py:>10.3f}s"
        if _scan_cy is None:
            row += f" {'not built':>11} {'-':>9}"
        else:
            t_cy, reports["compiled"] = run(_scan_cy.thompson_agreement_scan,
                                            max_len, max_index, args.repeat)
            row += f" {t_cy:>10.3f}s {t_py / t_cy:>8.1f}x"
        print(row)
        counts = {name: (r["words"], len(r["failures"])) for name, r in reports.items()}
        if len(set(counts.values())) > 1 or any(f for _, f in counts.values()):
            raise SystemExit(
                f"scan check failed at {max_len}:{max_index}: "
                + ", ".join(f"{name} {w} words / {f} failures"
                            for name, (w, f) in counts.items()))


if __name__ == "__main__":
    main()
