"""Benchmark the layers the exact checks run on, from one case table.

Each positional case is LAYER:ARG:

    completion:NAME       one completion call on a fresh truncation, NAME in
                          COMPLETION; the tables the call reads are built in
                          its timing, the truncation itself only for build
    cli:dispatch          cli.main.main in process on the five command shapes
                          of the perfbench infinite-oracles workload, output
                          captured and lru caches cleared before each call;
                          reports the median microseconds per call, the
                          callbacks' share of the calls' time, and the
                          median microseconds per call with each callback
                          replaced by one that returns at once (parsing and
                          dispatch alone); needs every call to exit 0
    import:MODULE         import nearnormal.MODULE and nearnormal.scan in a
                          fresh interpreter, from a copy of the package with
                          no bytecode and PYTHONDONTWRITEBYTECODE=1, as a
                          fresh checkout starts every command; reports the
                          nearnormal modules loaded and the classes built by
                          the dataclass decorator, which must be none
    family:NAME           families.truncation, check_admissible and
                          check_stable on the nodes of NAME in FAMILY, with
                          the lru caches cleared before each run as in one
                          CLI call; needs the family's node count and
                          stability verdict, and conjugation closure
    ends:NAME             ends.coset_graph_ball, NAME in ENDS; keyed counts
                          the ends._left_key calls, one per coset key: one
                          per element and one per outer-sphere product
                          that is not a ball element; words counts the
                          Word products the ball builds (none with a
                          coset key)
    modp:[dense-]GROUP:P  the regular module of GROUP in MODP_GROUPS over
                          F_p, with dense- in a seeded random basis
                          (M -> Q M Q^-1); times h0_S and restrict_to_h0s on
                          "-; b; a,b", h1_derivations and one rref of the
                          inner-derivation rows
    scan:LEN:INDEX        the F normal-form agreement scan over words of
                          length <= LEN in x_0..x_INDEX on the pure-Python
                          kernel, and on the C kernel once it is built
                          (python setup.py build_ext --inplace)
    suite:NAME            suites.run_suite(NAME) at seed 0, NAME a suite
                          or all, with the lru caches cleared before each
                          run as in one CLI call; reports the checks and
                          the processes the suites ran on, and needs no
                          failed check (and 83 checks for all)

Each case prints one row of best-of-N seconds and counts.  The run exits 1
and lists every count that is not the one the case must have, and exits 2
with one line on a case it does not know.

Usage: python benchmarks/bench.py [CASE ...] [--repeat 3] [--json]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import nearnormal
from nearnormal import _scan_py, cli, completion, ends, families, modp, subgroups, suites
from nearnormal.groups import load, parse_context_word, preset
from nearnormal.words import Word, generator

try:
    from nearnormal import _scan_c
except ImportError:
    _scan_c = None

# name -> (group spec, group order) of the modp cases' regular modules: S3 as
# the (2, 3, 2) triangle group, as its preset has other generators, and presets
MODP_GROUPS = {
    "sym3": ("gens: a b\nrels: a^2 b^3 (a b)^2", 6),
    "s4": ("sym4", 24),
    "a5": ("alt5", 60),
    "s5": ("sym5", 120),
}

# name -> (preset, nodes, call, elements, count): the count
# is of the truncation's nodes (build), of the invertible elements (scan) or
# of the laws that pass (laws)
COMPLETION = {
    "s4-directed": ("sym4", "b; a b a b, b a b a", "build", 24576, 5),
    "s4-nondirected": ("sym4", "a b; a b, b a b a", "scan", 216, 48),
    "sym3-all": ("sym3", "-; a; b; a b a; a b; a,b", "laws", 6, 7),
}
# name -> (preset, nodes, node count of the truncation, stable): the families
# the perfbench family-build workload checks; in S5 the node <b, a b a> is
# A5, and no node below the order-5 node <b> is normal in it
FAMILY = {
    "cyclic120": ("cyclic(120)", "-; a^2; a", 3, True),
    "s5": ("sym5", "b; b, a b a", 7, False),
    "a5": ("alt5", "-; b; a,b", 12, True),
}
# name -> (preset, generators of L, radius, vertices, edges, keyed, words); in
# BS(2,3) y^-1 x^2 y is x^3, so <y x^2 y^-1> is the conjugate <x^3> itself;
# <a b, b a> is free of rank 2 and of infinite index in free(2)
ENDS = {
    "bs23-x2": ("bs(2,3)", "x^2", 7, 1030, 1743, 4690, 0),
    "bs23-cx2": ("bs(2,3)", "y x^2 y^-1", 6, 515, 903, 1836, 0),
    "free2-a": ("free(2)", "a", 4, 81, 161, 323, 0),
    "free2-ab": ("free(2)", "a b, b a", 4, 55, 108, 323, 0),
    "z2-u": ("zn(2)", "u", 20, 41, 81, 923, 0),
}
# one command of each shape perfbench's infinite-oracles workload runs
CLI_DISPATCH = (
    ("bs", "verify", "--bound", "12", "--conj-len", "2"),
    ("ends", "estimate", "--group", "bs(2,3)", "--l", "x^2", "--radii", "3,5,7"),
    ("ends", "graph", "--group", "bs(2,3)", "--l", "x^2", "--radius", "6"),
    ("subgroup", "near-normal", "--group", "bs(2,3)", "--h", "y^2 x^7 y^-2"),
    ("subgroup", "commensurable", "--group", "zn(3)", "--h", "u^2, v^3, w^4",
     "--k", "u^3, v^2, w^6"),
)
# checks in the report of suite:all; a single suite must only not fail
ALL_CHECKS = 83
DEFAULT_CASES = ([f"completion:{name}" for name in COMPLETION]
                 + [f"family:{name}" for name in FAMILY] + [f"ends:{name}" for name in ENDS]
                 + ["modp:a5:2", "modp:a5:5", "modp:s5:2", "modp:dense-s4:5",
                    "scan:3:2", "scan:4:2", "scan:5:2", "suite:all", "cli:dispatch",
                    "import:cli"])
# run by import:MODULE in the fresh interpreter: seconds, modules, dataclasses
IMPORT_CHILD = """
import sys, time
t0 = time.perf_counter()
import nearnormal.{module}, nearnormal.scan
seconds = time.perf_counter() - t0
modules = [m for name, m in sys.modules.items() if name.startswith("nearnormal.")]
built = sum(isinstance(obj, type) and obj.__module__ == m.__name__
            and hasattr(obj, "__dataclass_fields__") for m in modules for obj in vars(m).values())
print(seconds, len(modules), built)
"""


def best(fn, repeat: int, setup=None):
    """The best of repeat wall-clock seconds of one call and its last result;
    with setup, each call is fn(setup()), and setup is not timed."""
    seconds = result = None
    for _ in range(repeat):
        args = () if setup is None else (setup(),)
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        seconds = dt if seconds is None else min(seconds, dt)
    return seconds, result


def cold():
    """Empty every lru cache of nearnormal, as at the start of a CLI call."""
    for name, module in list(sys.modules.items()):
        if name.startswith("nearnormal."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def pick(table: dict, name: str):
    if name not in table:
        raise ValueError(f"unknown case {name!r}, expected one of {', '.join(table)}")
    return table[name]


# Each layer parses its ARG (ValueError when it cannot) and returns the run:
# a function of repeat giving (row, the counts the row must have).

def completion_layer(arg: str):
    group, nodes_text, call, elements, count = pick(COMPLETION, arg)

    def run(repeat):
        ctx = preset(group)
        nodes = families.parse_nodes(ctx, nodes_text)

        def build():
            return completion.truncated_completion(families.truncation(ctx, nodes))

        if call == "build":
            seconds, tc = best(build, repeat)
            got = len(tc.fam.nodes)
        else:
            counted = {"scan": lambda tc: completion.invertibility_scan(tc)["invertible"],
                       "laws": lambda tc: sum(verdict == "pass" for _, verdict, _
                                              in completion.law_records(tc))}[call]
            seconds, (tc, got) = best(lambda tc: (tc, counted(tc)), repeat, setup=build)
        return ({"call": call, "seconds": seconds, "elements": len(tc.elements), "count": got},
                {"elements": elements, "count": count})
    return run


def family_layer(arg: str):
    group, nodes_text, count, stable = pick(FAMILY, arg)

    def run(repeat):
        ctx = preset(group)
        nodes = families.parse_nodes(ctx, nodes_text)

        def build_and_check(_):
            fam = families.truncation(ctx, nodes)
            return fam, families.check_admissible(fam), families.check_stable(fam)

        seconds, (fam, adm, stab) = best(build_and_check, repeat, setup=cold)
        return ({"seconds": seconds, "nodes": len(fam.nodes),
                 "conjugation_closed": adm["conjugation_closed"], "stable": stab["stable"]},
                {"nodes": count, "conjugation_closed": True, "stable": stable})
    return run


def ends_layer(arg: str):
    group, l_text, radius, vertices, edges, keyed_count, words_count = pick(ENDS, arg)

    def run(repeat):
        ctx = preset(group)
        sub = subgroups.subgroup_from_words(
            ctx, [parse_context_word(ctx, text) for text in l_text.split(",")])
        gens = [generator(i) for i in range(ctx.generator_count)]
        real_key, real_mul, keyed, built = ends._left_key, Word.__mul__, [], []

        def counting_key(*args):
            keyed.append(None)
            return real_key(*args)

        def counting_mul(*args):
            built.append(None)
            return real_mul(*args)

        def clear():
            keyed.clear()
            built.clear()

        ends._left_key, Word.__mul__ = counting_key, counting_mul
        try:
            seconds, ball = best(lambda _: ends.coset_graph_ball(ctx, sub, gens, radius),
                                 repeat, setup=clear)
        finally:
            ends._left_key, Word.__mul__ = real_key, real_mul
        return ({"seconds": seconds, "vertices": ball.vertex_count, "edges": len(ball.edges),
                 "elements": len(ball.vertex), "keyed": len(keyed), "words": len(built)},
                {"vertices": vertices, "edges": edges, "keyed": keyed_count,
                 "words": words_count})
    return run


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


def modp_layer(arg: str):
    name, _, p_text = arg.rpartition(":")
    group = name.removeprefix("dense-")
    if group not in MODP_GROUPS or not p_text.isdigit() or not modp.is_prime(int(p_text)):
        raise ValueError(f"expected [dense-]GROUP:P, GROUP in {', '.join(MODP_GROUPS)}, P prime")
    spec, order = MODP_GROUPS[group]

    def run(repeat):
        ctx = load(spec)
        module = families.regular_module(ctx, p=int(p_text))
        if name != group:
            module = dense_basis(ctx, module)
        d = module.dimension
        fam = families.truncation(ctx, families.parse_nodes(ctx, "-; b; a,b"))
        ider_rows = families.inner_derivation_rows(module)
        h0_s, basis = best(lambda: families.h0_S(module, fam), repeat)
        h1_s, h1 = best(lambda: families.h1_derivations(ctx, module), repeat)
        rref_s, (red, _) = best(lambda: modp.rref(ider_rows, module.p), repeat)
        res_s, (sub, _) = best(lambda: families.restrict_to_h0s(module, fam), repeat)
        nonzero = sum(len(row) for m in module.matrices for row in m)
        # a regular module has full h0_S here (the bottom node is trivial)
        # and no degree-1 classes (Shapiro's lemma), in any basis
        return ({"dim": d, "nonzero": nonzero, "h0_seconds": h0_s, "h1_seconds": h1_s,
                 "rref_seconds": rref_s, "res_seconds": res_s, "h0_dim": len(basis),
                 "dim_h1": h1["dim_h1"], "rank": len(red), "res_dim": sub.dimension},
                {"dim": order, "h0_dim": order, "dim_h1": 0, "rank": order - 1,
                 "res_dim": order})
    return run


def scan_layer(arg: str):
    len_text, _, index_text = arg.partition(":")
    if not (len_text.isdigit() and index_text.isdigit()):
        raise ValueError("expected MAX_LEN:MAX_INDEX, two non-negative integers")
    max_len, max_index = int(len_text), int(index_text)

    def run(repeat):
        row, reports = {}, {}
        for name, kernel in (("python", _scan_py), ("compiled", _scan_c)):
            if kernel is None:
                row[name] = "not built"
                continue
            seconds, reports[name] = best(
                lambda: kernel.thompson_agreement_scan(max_len, max_index), repeat)
            row[f"{name}_seconds"] = seconds
            row[f"{name}_words_per_s"] = round(reports[name]["words"] / seconds)
        python = reports["python"]
        # 1 + 2n + 2n(2n - 1) + ...: the freely reduced words over n generators
        letters = 2 * (max_index + 1)
        reduced = 1 + sum(letters * (letters - 1) ** k for k in range(max_len))
        agree = all((r["words"], r["failures"]) == (python["words"], python["failures"])
                    for r in reports.values())
        return ({"words": python["words"], **row, "failures": len(python["failures"]),
                 "kernels_agree": agree},
                {"words": reduced, "failures": 0, "kernels_agree": True})
    return run


def import_layer(arg: str):
    if not arg.isidentifier() or importlib.util.find_spec(f"nearnormal.{arg}") is None:
        raise ValueError(f"no module nearnormal.{arg}")

    def run(repeat):
        # a copy, not PYTHONPYCACHEPREFIX: a prefix would also hide the
        # bytecode of the standard library, which a fresh checkout has
        runs = []
        with tempfile.TemporaryDirectory() as root:
            shutil.copytree(pathlib.Path(nearnormal.__file__).parent,
                            pathlib.Path(root, "nearnormal"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
                filter(None, [root, os.environ.get("PYTHONPATH")])))
            env.pop("PYTHONPYCACHEPREFIX", None)
            for _ in range(repeat):
                out = subprocess.run([sys.executable, "-c", IMPORT_CHILD.format(module=arg)],
                                     env=env, capture_output=True, text=True, check=True)
                runs.append(out.stdout.split())
        seconds, modules, built = runs[-1]
        return ({"seconds": min(float(run[0]) for run in runs), "modules": int(modules),
                 "dataclasses": int(built)},
                {"dataclasses": 0})
    return run


def cli_layer(arg: str):
    if arg != "dispatch":
        raise ValueError(f"unknown case {arg!r}, expected dispatch")
    commands = {cli.main.commands[group].commands[name] for group, name, *_ in CLI_DISPATCH}

    def calls(count: int) -> tuple[list, int]:
        """The seconds of count calls of each command, and the failed calls."""
        seconds, failed = [], 0
        for _ in range(count):
            for args in CLI_DISPATCH:
                cold()
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = time.perf_counter()
                    try:
                        cli.main.main(list(args), standalone_mode=False)
                    except (Exception, SystemExit):
                        failed += 1
                    seconds.append(time.perf_counter() - t0)
        return seconds, failed

    def timed(callback, inside):
        def call(**kwargs):
            t0 = time.perf_counter()
            try:
                return callback(**kwargs)
            finally:
                inside.append(time.perf_counter() - t0)
        return call

    def run(repeat):
        real = {command: command.callback for command in commands}
        inside = []
        try:
            for command in commands:
                command.callback = timed(real[command], inside)
            seconds, failed = calls(repeat)
            for command in commands:  # the parse and dispatch alone
                command.callback = lambda **kwargs: 0
            bare, _ = calls(20 * repeat)
        finally:
            for command, callback in real.items():
                command.callback = callback
        return ({"commands": len(CLI_DISPATCH), "failed": failed,
                 "call_us": statistics.median(seconds) * 1e6,
                 "dispatch_us": statistics.median(bare) * 1e6,
                 "callback_share": sum(inside) / sum(seconds)},
                {"commands": len(CLI_DISPATCH), "failed": 0})
    return run


def suite_layer(arg: str):
    if arg != "all" and arg not in suites.SUITES:
        raise ValueError(f"unknown case {arg!r}, expected all or one of {', '.join(suites.SUITES)}")
    must = {"checks": ALL_CHECKS, "failed": 0} if arg == "all" else {"failed": 0}

    def run(repeat):
        seconds, report = best(lambda _: suites.run_suite(arg, timing=True), repeat, setup=cold)
        return ({"seconds": seconds, "checks": len(report["checks"]),
                 "failed": len(suites.report_failures(report)),
                 "workers": report["timing"]["workers"]},
                must)
    return run


LAYERS = {"completion": completion_layer, "family": family_layer, "ends": ends_layer,
          "modp": modp_layer, "scan": scan_layer, "suite": suite_layer, "cli": cli_layer,
          "import": import_layer}


def show(row: dict) -> str:
    return "  ".join(f"{key}={value:.4f}" if isinstance(value, float) else f"{key}={value}"
                     for key, value in row.items())


def main(argv=None):
    ap = argparse.ArgumentParser(description="Benchmark the completion, family, ends, GF(p) "
                                             "and scan layers, the check suites and the "
                                             "package's import.")
    ap.add_argument("cases", nargs="*", default=DEFAULT_CASES,
                    help="LAYER:ARG cases, LAYER among " + ", ".join(LAYERS)
                         + " (default: all " + str(len(DEFAULT_CASES)) + " listed above).")
    ap.add_argument("--repeat", type=int, default=3,
                    help="Repetitions per measurement (best is reported).")
    ap.add_argument("--json", action="store_true", help="Print the rows as JSON.")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    runs = []
    for case in args.cases:
        layer, _, arg = case.partition(":")
        try:
            if layer not in LAYERS:
                raise ValueError(f"unknown layer {layer!r}, expected one of {', '.join(LAYERS)}")
            runs.append((case, LAYERS[layer](arg)))
        except ValueError as err:
            print(f"bench.py: {case}: {err}", file=sys.stderr)
            raise SystemExit(2)
    rows, wrong = [], []
    for case, run in runs:
        row, want = run(args.repeat)
        row = {"case": case, **row}
        rows.append(row)
        wrong += [f"{case}: {key} {row[key]}, expected {value}"
                  for key, value in want.items() if row[key] != value]
        if not args.json:
            print(show(row), flush=True)
    if args.json:
        print(json.dumps(rows, indent=2))
    if wrong:
        print("count check failed:", *wrong, sep="\n  ", file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
