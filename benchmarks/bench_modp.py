"""Benchmark the GF(p) module solves: h0_S, h1_derivations, one rref and
the restriction to h0_S.

Each case is GROUP:P, the regular module of a (2, 3, n) triangle group over
F_p, or dense-GROUP:P, the same module written in a seeded random basis
(every generator matrix M becomes Q M Q^-1), so its matrices are dense.  Per
case the run reports the best-of-N wall-clock seconds of

    h0      families.h0_S on the truncation "-; b; a,b"
    h1      families.h1_derivations
    rref    modp.rref of the inner-derivation rows [M_a - I | M_b - I]
    res     families.restrict_to_h0s on the same truncation: h0_S, then the
            coordinates of every image v.M in the h0_S basis

The regular module of a finite group has h0_S of full dimension on that
truncation (its bottom node is trivial) and no degree-1 classes (Shapiro's
lemma), in any basis; the run exits nonzero when a case says otherwise.
On a 2-core x86-64 Xeon with Python 3.11 h1 takes about 0.02 s on each
default case (a5:2, a5:5 and dense-s4:5, whose 24 x 24 matrices are about
80% nonzero), and the dense-module h0 and h1 about 0.015 and 0.025 s, down
from 0.021 and 0.030 s with dense matrices.  On the same machine res takes
about 0.025 s on a5:2, where solving for each of the 120 images v.M on its
own took 0.18 s.

Usage: python benchmarks/bench_modp.py [--cases a5:2,a5:5,dense-s4:5] [--repeat 3]
"""

from __future__ import annotations

import argparse
import random
import time

from nearnormal import families, modp
from nearnormal.groups import context_from_text

GROUPS = {"sym3": 2, "s4": 4, "a5": 5}  # name -> n in a^2 = b^3 = (a b)^n = 1


def dense_basis(ctx, module, seed: int = 1):
    """The module with every matrix M replaced by Q M Q^-1, Q seeded random."""
    rng = random.Random(seed)
    d, p = module.dimension, module.p
    while True:
        q = modp.sparse([[rng.randrange(p) for _ in range(d)] for _ in range(d)], p)
        q_inv = modp.mat_inverse(q, p)
        if q_inv is not None:
            break
    mats = [modp.mat_mul(modp.mat_mul(q, m, p), q_inv, p) for m in module.matrices]
    rows = [[[0] * d for _ in range(d)] for _ in mats]
    for m, out in zip(mats, rows):
        for i, row in enumerate(m):
            for j, a in row:
                out[i][j] = a
    return families.finite_module(ctx, rows, p)


def best(fn, repeat: int):
    seconds, result = None, None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        seconds = dt if seconds is None else min(seconds, dt)
    return seconds, result


def run_case(spec: str, repeat: int) -> dict:
    name, _, p = spec.partition(":")
    group = name.removeprefix("dense-")
    ctx = context_from_text(f"gens: a b\nrels: a^2 b^3 (a b)^{GROUPS[group]}")
    module = families.regular_module(ctx, p=int(p))
    if name != group:
        module = dense_basis(ctx, module)
    d = module.dimension
    fam = families.truncation(ctx, families.parse_nodes(ctx, "-; b; a,b"))
    ider_rows = []
    for j in range(d):
        flat = [0] * (2 * d)
        for i, m in enumerate(module.matrices):
            flat[i * d + j] -= 1
            for c, a in m[j]:
                flat[i * d + c] += a
        ider_rows.append(flat)
    h0_s, basis = best(lambda: families.h0_S(module, fam), repeat)
    h1_s, h1 = best(lambda: families.h1_derivations(ctx, module), repeat)
    rref_s, (red, _) = best(lambda: modp.rref(ider_rows, module.p), repeat)
    res_s, (sub, _) = best(lambda: families.restrict_to_h0s(module, fam), repeat)
    nonzero = sum(len(row) for m in module.matrices for row in m)
    return {"case": spec, "dim": d, "nonzero": nonzero, "h0": h0_s, "h1": h1_s,
            "rref": rref_s, "h0_dim": len(basis), "dim_h1": h1["dim_h1"], "rank": len(red),
            "res": res_s, "res_dim": sub.dimension}


def main():
    ap = argparse.ArgumentParser(description="Benchmark the GF(p) module solves.")
    ap.add_argument("--cases", default="a5:2,a5:5,dense-s4:5",
                    help="Comma-separated GROUP:P or dense-GROUP:P, GROUP in "
                         + ", ".join(GROUPS) + ".")
    ap.add_argument("--repeat", type=int, default=3,
                    help="Repetitions per measurement (best is reported).")
    args = ap.parse_args()
    print(f"{'case':>12} {'dim':>4} {'nonzero':>8} {'h0 s':>9} {'h1 s':>9} {'rref s':>9}"
          f" {'h0 dim':>7} {'dim h1':>7} {'rank':>5} {'res s':>9}")
    for spec in args.cases.split(","):
        r = run_case(spec, args.repeat)
        print(f"{r['case']:>12} {r['dim']:>4} {r['nonzero']:>8} {r['h0']:>9.4f} {r['h1']:>9.4f}"
              f" {r['rref']:>9.4f} {r['h0_dim']:>7} {r['dim_h1']:>7} {r['rank']:>5}"
              f" {r['res']:>9.4f}",
              flush=True)
        if (r["h0_dim"] != r["dim"] or r["dim_h1"] != 0 or r["rank"] != r["dim"] - 1
                or r["res_dim"] != r["dim"]):
            raise SystemExit(f"module check failed for {spec}: h0 dimension "
                             f"{r['h0_dim']} of {r['dim']}, dim_h1 {r['dim_h1']}, "
                             f"inner-derivation rank {r['rank']}, "
                             f"restricted dimension {r['res_dim']}")


if __name__ == "__main__":
    main()
