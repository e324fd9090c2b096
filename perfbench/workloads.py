"""The benchmark workloads: fixed task lists built from a seed.

Each task is one request a user would make: a ``nearnormal`` command run
in-process through ``cli.main``, or a public function where the CLI has no
command.  Each task carries its output check.  Where the mathematics fixes a
value the check asserts it; otherwise the output is compared with the digest
recorded in ``expected.json`` from the baseline commit.  The seed only picks
inputs: the ``suite all`` seed, the near-normal conjugates, the lattices and
the element samples.  Exhaustive tasks take no randomness.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import pathlib
import random
from dataclasses import dataclass
from typing import Callable

EXPECTED_PATH = pathlib.Path(__file__).with_name("expected.json")

WHY = {
    "suite-scan": "the project's own end-to-end command; about 95% of it is the "
                  "scan(5,2) normal-form agreement scan in _plmodel Fraction arithmetic",
    "completion-laws": "query-heavy: about 63k twisted products on the S4 law table "
                       "and an O(N^2) invertibility scan, all in completion.multiply",
    "family-build": "build-heavy: truncations, GF(2) solves and a 24,576-element "
                    "completion with few products, so work moved into tables shows",
    "infinite-oracles": "infinite groups with no coset tables: Britton reduction, "
                        "membership oracles, coset-graph balls and integer lattices",
}

S4 = "gens: a b\nrels: a^2 b^3 (a b)^4"
S5 = "gens: a b\nrels: a^2 b^5 (a b)^4 (a b^-1 a b)^3"
A5 = "gens: a b\nrels: a^2 b^3 (a b)^5"

SUITE_CHECKS = 83  # checks in one `suite all` report
SCAN_WORDS = 4687  # freely reduced words of length <= 5 over x0..x2


@dataclass
class Task:
    id: str
    run: Callable[[], str]  # the output text
    check: Callable[[str], list] = lambda out: []  # problems; empty when right
    digest: str | None = "json"  # compare with expected.json: "json", "bytes" or None
    info: Callable[[str], dict] | None = None  # figures the report prints


def invoke(args) -> str:
    """Run one CLI command in this process and return what it printed."""
    from nearnormal import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            cli.main.main(list(args), standalone_mode=False)
        except SystemExit as exc:
            if exc.code:
                raise RuntimeError(f"command exited with status {exc.code}") from None
    return buf.getvalue()


def digest(text: str, mode: str) -> str:
    data = text if mode == "bytes" else json.dumps(json.loads(text), sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


def check_output(workload: str, task: Task, out: str, expected: dict, record=None) -> list:
    """Problems with a task's output; ``record`` collects digests instead of comparing."""
    problems = []
    try:
        if task.digest:
            key, got = f"{workload}/{task.id}", digest(out, task.digest)
            if record is not None:
                record[key] = got
            elif expected.get(key) != got:
                problems.append(f"output differs from the recorded baseline ({task.digest})")
        problems.extend(task.check(out))
    except (KeyError, TypeError, ValueError, StopIteration) as exc:
        problems.append(f"output not understood: {type(exc).__name__}: {exc}")
    return problems


def _cli(task_id, args, check=lambda data: [], digest="json", info=None) -> Task:
    return Task(task_id, functools.partial(invoke, args), lambda out: check(json.loads(out)),
                digest, info)


def _want(label, got, expected) -> list:
    return [] if got == expected else [f"{label} is {got!r}, expected {expected!r}"]


def _laws_pass(data) -> list:
    return [f"law {name} is {value}" for name, value in data["laws"].items() if value != "pass"]


# ---------------------------------------------------------------------------


def _suite_scan(seed: int) -> list:
    def suite_check(data):
        problems = [f"check {c['id']} is {c['outcome']}"
                    for c in data["checks"] if c["outcome"] != "pass"]
        problems += _want("report seed", data["seed"], seed)
        problems += _want("check count", len(data["checks"]), SUITE_CHECKS)
        scan = next(c for c in data["checks"] if c["id"] == "thompson/normal-form-agreement")
        problems += _want("scan witness", scan["witness"], {"words": SCAN_WORDS, "failures": 0})
        return problems

    def scan_words(out):
        checks = json.loads(out)["checks"]
        scan = next(c for c in checks if c["id"] == "thompson/normal-form-agreement")
        return {"scan_words": scan["witness"]["words"]}

    return [
        # Byte-identical to the baseline at seed 7, the seed the README quotes.
        _cli("suite-all", ["suite", "all", "--seed", str(seed)], suite_check,
             "bytes" if seed == 7 else None, scan_words),
        _cli("thompson-verify", ["thompson", "verify", "--identity-bound", "20",
                                 "--pair-bound", "24", "--shift-bound", "40"],
             lambda d: _want("pass", d["pass"], True)),
    ]


def _completion_laws(seed: int) -> list:
    tasks = [_cli("laws-s4-directed", ["completion", "laws", "--group", S4, "--nodes",
                                       "-; b; a b a b, b a b a; b, a b a; a, b"],
                  lambda d: _laws_pass(d) + _want("element_count", d["element_count"], 24))]
    for group, family in (("sym3", "normal-order3"), ("sym3", "all-subgroups"),
                          ("cyclic(4)", "index2"), ("klein4", "all-subgroups")):
        tasks.append(_cli(f"laws-{group}-{family}".replace("(", "").replace(")", ""),
                          ["completion", "laws", "--group", group, "--family", family],
                          _laws_pass))
    tasks.append(_cli("scan-s4-nondirected", ["completion", "scan", "--group", S4,
                                              "--nodes", "a b; a b, b a b a"],
                      lambda d: _want("element_count", d["element_count"], 216)
                      + _want("invertible", d["invertible"], 48)))
    tasks.append(_cli("scan-sym3", ["completion", "scan", "--group", "sym3",
                                    "--nodes", "a; a,b"]))
    return tasks


def _family_build(seed: int) -> list:
    from nearnormal import completion, families, groups
    from nearnormal.words import parse_word

    rng = random.Random(seed)
    order, size = 24, 24576  # |S4| and the completion of its family below
    identity_sample = [rng.randrange(size) for _ in range(1000)]
    embed_sample = [(rng.randrange(order), rng.randrange(order)) for _ in range(300)]
    state = {}

    def build():
        ctx = groups.context_from_text(S4)
        nodes = [[parse_word(w, ctx.generator_names) for w in node]
                 for node in (["b"], ["a b a b", "b a b a"])]
        state["ctx"] = ctx
        state["tc"] = tc = completion.truncated_completion(families.truncation(ctx, nodes))
        return json.dumps({"elements": len(tc.elements), "nodes": len(tc.fam.nodes)})

    def products():
        tc, elements = state["tc"], groups.group_elements(state["ctx"])
        e = completion.identity_element(tc)
        bad_identity = sum(completion.multiply(tc, e, tc.elements[i]) != tc.elements[i]
                           or completion.multiply(tc, tc.elements[i], e) != tc.elements[i]
                           for i in identity_sample)
        bad_embed = sum(completion.multiply(tc, completion.embed(elements[i], tc),
                                            completion.embed(elements[j], tc))
                        != completion.embed(elements[i] * elements[j], tc)
                        for i, j in embed_sample)
        return json.dumps({"identity_failures": bad_identity, "embed_failures": bad_embed})

    return [
        _cli("check-cyclic120", ["family", "check", "--group", "cyclic(120)",
                                 "--nodes", "-; a^2; a"]),
        _cli("check-s5", ["family", "check", "--group", S5, "--nodes", "b; b, a b a"]),
        _cli("check-a5", ["family", "check", "--group", A5, "--nodes", "-; b; a,b"]),
        # Shapiro's lemma: H^1(G, F_2[G]) = 0.
        _cli("h1-a5-regular", ["family", "h1", "--group", A5, "--module", "regular"],
             lambda d: _want("dim_h1", d["dim_h1"], 0)),
        # The trivial bottom node fixes all 60 coordinates; G fixes only constants.
        _cli("h0-a5-regular", ["family", "h0", "--group", A5, "--nodes", "-; b; a,b",
                               "--module", "regular"],
             lambda d: _want("h0_dimension", d["h0_dimension"], 60)
             + _want("ambient_fixed_dimension", d["ambient_fixed_dimension"], 1)),
        Task("completion-s4-build", build,
             lambda out: _want("elements", json.loads(out)["elements"], size)),
        Task("completion-s4-products", products,
             lambda out: _want("products", json.loads(out),
                               {"identity_failures": 0, "embed_failures": 0}), None),
    ]


def _infinite_oracles(seed: int) -> list:
    rng = random.Random(seed)
    tasks = [
        _cli("bs-verify", ["bs", "verify", "--bound", "12", "--conj-len", "2"],
             lambda d: _want("all_pass", d["all_pass"], True)),
        # free(2)/<a> has infinitely many ends: this is the pairwise-membership
        # fallback, O(V^2) in the ball size.
        _cli("ends-free2", ["ends", "estimate", "--group", "free(2)", "--l", "a",
                            "--radii", "2,3,4"]),
        _cli("ends-bs23", ["ends", "estimate", "--group", "bs(2,3)", "--l", "x^2",
                           "--radii", "3,5,7"]),
        _cli("ends-z2", ["ends", "estimate", "--group", "zn(2)", "--l", "u",
                         "--radii", "5,10,15,20"],
             lambda d: _want("estimate", d["estimate"], 2)
             + _want("stabilized", d["stabilized"], True)),
        _cli("graph-bs23", ["ends", "graph", "--group", "bs(2,3)", "--l", "x^2", "--radius", "6"]),
    ]
    # <x> is commensurated in BS(2,3), so every conjugate of a power of x is
    # near-normal; |e| <= 3 keeps every verdict inside the default bound.
    for n in range(24):
        e, k = rng.choice((1, 2, 3)) * rng.choice((1, -1)), rng.randint(1, 30)
        tasks.append(_cli(f"near-normal-{n}", ["subgroup", "near-normal", "--group", "bs(2,3)",
                                               "--h", f"y^{e} x^{k} y^{-e}"],
                          lambda d: _want("near_normal", d["near_normal"], True), None))
    # Full-rank diagonal lattices of Z^3: always commensurable, with indices
    # [H : H n K] = prod lcm(a_i, b_i) / a_i and symmetrically for K.  Pairs
    # with an index above the default search bound (50) answer "unknown".
    for n in range(12):
        indices = [51]
        while max(indices) > 50:
            a = [rng.randint(1, 6) for _ in range(3)]
            b = [rng.randint(1, 6) for _ in range(3)]
            lcms = [math.lcm(x, y) for x, y in zip(a, b)]
            indices = [math.prod(m // x for m, x in zip(lcms, a)),
                       math.prod(m // y for m, y in zip(lcms, b))]
        tasks.append(_cli(f"commensurable-{n}", [
            "subgroup", "commensurable", "--group", "zn(3)",
            "--h", ", ".join(f"{g}^{x}" for g, x in zip("uvw", a)),
            "--k", ", ".join(f"{g}^{y}" for g, y in zip("uvw", b))],
            lambda d, indices=indices: _want("result", d["result"], True)
            + _want("indices", d["indices"], indices), None))
    return tasks


BUILDERS = {
    "suite-scan": _suite_scan,
    "completion-laws": _completion_laws,
    "family-build": _family_build,
    "infinite-oracles": _infinite_oracles,
}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.is_file() else {}
