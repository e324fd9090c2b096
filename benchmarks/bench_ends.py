"""Benchmark the coset-graph ball layer: ends.coset_graph_ball.

Each case is the ball of one subgroup L's left cosets over the group's own
generators, as ``ends graph`` builds it:

    bs23-x2    BS(2,3), L = <x^2>, radius 7
    bs23-cx2   BS(2,3), L = <y x^2 y^-1>, a conjugated x-power, radius 6
               (y^-1 x^2 y is x^3 there, so that conjugate is <x^3> itself)
    free2-a    free(2), L = <a>, radius 4
    z2-u       Z^2, L = <u>, radius 20

Per case the run reports the best-of-N wall-clock seconds of one ball, its
vertex and edge counts, and the keyed calls: the calls of ``ends._left_key``
that one ball makes, each the key of one left coset.  The run exits nonzero
when a case's vertex or edge count is not the one listed in CASES.

Usage: python benchmarks/bench_ends.py [--cases bs23-x2,bs23-cx2,free2-a,z2-u] [--repeat 5] [--json]
"""

from __future__ import annotations

import argparse
import json
import time

from nearnormal import ends, subgroups
from nearnormal.groups import parse_context_word, preset
from nearnormal.words import generator

# name -> (group, generator of L, radius, vertices, edges)
CASES = {
    "bs23-x2": ("bs(2,3)", "x^2", 7, 1030, 1743),
    "bs23-cx2": ("bs(2,3)", "y x^2 y^-1", 6, 515, 903),
    "free2-a": ("free(2)", "a", 4, 81, 161),
    "z2-u": ("zn(2)", "u", 20, 41, 81),
}


def run_case(name: str, repeat: int) -> dict:
    group, l_text, radius, _, _ = CASES[name]
    ctx = preset(group)
    sub = subgroups.subgroup_from_words(ctx, [parse_context_word(ctx, l_text)])
    gens = [generator(i) for i in range(ctx.generator_count)]
    real, calls = ends._left_key, [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    ends._left_key = counting
    try:
        seconds = None
        for _ in range(repeat):
            calls[0] = 0
            t0 = time.perf_counter()
            ball = ends.coset_graph_ball(ctx, sub, gens, radius)
            dt = time.perf_counter() - t0
            seconds = dt if seconds is None else min(seconds, dt)
    finally:
        ends._left_key = real
    return {"case": name, "seconds": seconds, "vertices": ball.vertex_count,
            "edges": len(ball.edges), "elements": len(ball.elements), "keyed": calls[0]}


def main():
    ap = argparse.ArgumentParser(description="Benchmark the coset-graph ball layer.")
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
        print(f"{'case':>8} {'seconds':>9} {'vertices':>9} {'edges':>6} {'elements':>9} {'keyed':>7}")
        for r in results:
            print(f"{r['case']:>8} {r['seconds']:>9.4f} {r['vertices']:>9} {r['edges']:>6}"
                  f" {r['elements']:>9} {r['keyed']:>7}")
    for r in results:
        _, _, _, vertices, edges = CASES[r["case"]]
        if (r["vertices"], r["edges"]) != (vertices, edges):
            raise SystemExit(f"ball check failed for {r['case']}: {r['vertices']} vertices "
                             f"and {r['edges']} edges, expected {vertices} and {edges}")


if __name__ == "__main__":
    main()
