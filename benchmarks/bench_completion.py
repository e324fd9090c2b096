"""Benchmark the completion layer: enumeration, the invertibility scan, the laws.

Each case runs one completion call on a freshly built truncation, so the
integer tables the call reads (projections, conjugate nodes, coset products)
are built inside its timing:

    s4-directed      S4, family "b; a b a b, b a b a": truncation and
                     truncated_completion, 24,576 elements (five nodes and
                     no inclusions, so every assignment is compatible)
    s4-nondirected   S4, family "a b; a b, b a b a": invertibility_scan on
                     216 elements, 48 of them invertible
    sym3-all         sym3, every subgroup: law_records on 6 elements, all
                     seven laws passing

Per case the run reports the best-of-N wall-clock seconds of one call, the
completion's element count and the case's own count: the nodes of the
truncation (build), the invertible elements (scan) or the passing laws
(laws).  The run exits nonzero when either count is not the one listed in
CASES.

Usage: python benchmarks/bench_completion.py [--cases s4-directed,s4-nondirected,sym3-all] [--repeat 5] [--json]
"""

from __future__ import annotations

import argparse
import json
import time

from nearnormal import completion, families
from nearnormal.cli import _load_context

S4 = "gens: a b\nrels: a^2 b^3 (a b)^4"

# name -> (group, nodes, call, elements, count)
CASES = {
    "s4-directed": (S4, "b; a b a b, b a b a", "build", 24576, 5),
    "s4-nondirected": (S4, "a b; a b, b a b a", "scan", 216, 48),
    "sym3-all": ("sym3", "-; a; b; a b a; a b; a,b", "laws", 6, 7),
}


def _call(kind: str, ctx, nodes):
    """Build the truncation (timed only for build), run the call, and return
    (seconds, elements, count)."""
    t0 = time.perf_counter()
    fam = families.truncation(ctx, nodes)
    tc = completion.truncated_completion(fam)
    if kind == "build":
        return time.perf_counter() - t0, len(tc.elements), len(fam.nodes)
    t0 = time.perf_counter()
    if kind == "scan":
        count = completion.invertibility_scan(tc)["invertible"]
    else:
        count = sum(verdict == "pass" for _, verdict, _ in completion.law_records(tc))
    return time.perf_counter() - t0, len(tc.elements), count


def run_case(name: str, repeat: int) -> dict:
    group, nodes_text, kind, _, _ = CASES[name]
    ctx = _load_context(group)
    nodes = families.parse_nodes(ctx, nodes_text)
    seconds = None
    for _ in range(repeat):
        dt, elements, count = _call(kind, ctx, nodes)
        seconds = dt if seconds is None else min(seconds, dt)
    return {"case": name, "call": kind, "seconds": seconds, "elements": elements, "count": count}


def main():
    ap = argparse.ArgumentParser(description="Benchmark the completion layer.")
    ap.add_argument("--cases", default=",".join(CASES),
                    help="Comma-separated cases among " + ", ".join(CASES) + ".")
    ap.add_argument("--repeat", type=int, default=5,
                    help="Repetitions per case (best is reported).")
    ap.add_argument("--json", action="store_true", help="Print the results as JSON.")
    args = ap.parse_args()
    results = [run_case(name, args.repeat) for name in args.cases.split(",")]
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        print(f"{'case':>14} {'call':>5} {'seconds':>9} {'elements':>9} {'count':>6}")
        for r in results:
            print(f"{r['case']:>14} {r['call']:>5} {r['seconds']:>9.4f} {r['elements']:>9}"
                  f" {r['count']:>6}")
    for r in results:
        _, _, _, elements, count = CASES[r["case"]]
        if (r["elements"], r["count"]) != (elements, count):
            raise SystemExit(f"count check failed for {r['case']}: {r['elements']} elements "
                             f"and count {r['count']}, expected {elements} and {count}")


if __name__ == "__main__":
    main()
