"""Summarize the run records in perfbench/out/ as one trajectory entry.

Usage: python3 perfbench/summarize.py --commit SHA --label TEXT [--append]

For every workload it takes the untraced records (one per seed) and gives
each end-to-end metric's median, quartiles and spread (interquartile range
over median, the figure the bounds in BENCHMARK.json apply to), the same for
the unscaled times and the speed probe, so host noise stays visible.  From
the traced records it takes the per-layer breakdown of the lowest seed.
--append adds the entry to perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"
TRAJECTORY = HERE / "trajectory.json"


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values)}


def entry(commit: str, label: str) -> dict:
    records = [json.loads(p.read_text()) for p in sorted(OUT.glob("*.json"))
               if not p.name.startswith("spans-")]
    first = records[0]
    out = {"commit": commit, "label": label,
           "machine": {k: first[k] for k in ("nproc", "python", "backend")},
           "run_seconds": first["seconds"], "workloads": {}, "traced": {}}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload and not r["trace"]]
        if len(runs) >= 2:
            out["workloads"][workload] = {
                "seeds": sorted(r["seed"] for r in runs),
                "metrics": {m: quartiles([r["metrics"][m]["value"] for r in runs])
                            for m in runs[0]["metrics"]},
                "unscaled": {
                    "wall_s": quartiles([statistics.median(p["raw_wall_s"] for p in r["passes"])
                                         for r in runs]),
                    "setup_s": quartiles([statistics.median(p["raw_setup_s"] for p in r["setups"])
                                          for r in runs])},
                "probe_s": quartiles([r["probe_s"] for r in runs]),
            }
        traced = sorted((r for r in records if r["workload"] == workload and r["trace"]),
                        key=lambda r: r["seed"])
        if traced:
            out["traced"][workload] = {"seed": traced[0]["seed"], "metrics": {
                m: v["value"] for m, v in traced[0]["metrics"].items()}}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commit", required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--append", action="store_true")
    args = ap.parse_args()
    e = entry(args.commit, args.label)
    for workload, data in e["workloads"].items():
        for metric, q in data["metrics"].items():
            print(f"{workload:17s} {metric:12s} median {q['median']:.6g}  "
                  f"q1 {q['q1']:.6g}  q3 {q['q3']:.6g}  spread {q['spread']:.3f}  n={q['n']}")
        for name, q in [*(("unscaled " + k, v) for k, v in data["unscaled"].items()),
                        ("probe_s", data["probe_s"])]:
            print(f"{workload:17s} {name:12s} median {q['median']:.6g}  spread {q['spread']:.3f}")
    if args.append:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.is_file() else []
        history.append(e)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")


if __name__ == "__main__":
    main()
