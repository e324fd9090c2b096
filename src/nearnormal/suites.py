"""Named check suites with deterministic JSON-ready reports.

Each suite runs a module's law and fixture checks and returns plain records
{id, law, inputs, outcome, witness}.  Outcomes are pass, fail, or unknown;
failing records always carry a witness.  Reports are sorted by check id and
contain no wall-clock data unless timing is requested, so two runs with the
same seed serialize to identical bytes.  The completion and thompson
suites read the shared checkers ``completion.law_records`` and
``thompson.lemma_report``, the latter at smaller bounds than the CLI.

``run_suite`` runs its suites on two processes where it can: the caller
runs the first suite, ``thompson`` (its 5:2 agreement scan is most of
``all``), and one forked worker runs the others in order and sends their
records back through a pipe.  The caller reaps the worker before it returns
or raises and sorts the records by id, so the report does not depend on
which process ran which suite.  The caller runs every suite itself when
there is one suite or one CPU, when the platform has no ``os.fork``, when
other threads are running, or when the pipe or the fork fails.
"""

from __future__ import annotations

import gc
import marshal
import os
import random
import threading
import time

from . import baumslag_solitar as bs
from . import completion, ends, families, groups, scan, subgroups, thompson
from .words import Word, exponent_vector, format_word, generator, invert, parse_word


class UnknownSuiteError(ValueError):
    pass


def _check(out, check_id, law, inputs, ok, witness=None):
    """ok may be True/False or one of the outcome strings."""
    if ok is True:
        outcome = "pass"
    elif ok is False:
        outcome = "fail"
    else:
        outcome = str(ok)
    if outcome == "fail" and witness is None:
        witness = "expected condition does not hold"
    out.append({"id": check_id, "law": law, "inputs": inputs,
                "outcome": outcome, "witness": witness})


def _random_word(rng: random.Random, rank: int, max_len: int) -> Word:
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        letters.append((rng.randrange(rank), rng.choice((1, -1))))
    return Word(tuple(letters))


# ---------------------------------------------------------------------------


def suite_words(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    samples = 50
    names = ("a", "b", "c")
    inputs = {"samples": samples, "rank": 3, "max_len": 12}
    inv_ok, round_ok, exp_ok, cancel_ok = True, True, True, True
    witness = {}
    for _ in range(samples):
        w = _random_word(rng, 3, 12)
        v = _random_word(rng, 3, 12)
        if invert(invert(w)) != w:
            inv_ok, witness = False, {"word": format_word(w, names)}
        if w.letters and parse_word(format_word(w, names), names) != w:
            round_ok, witness = False, {"word": format_word(w, names)}
        ev = tuple(a + b for a, b in zip(exponent_vector(w, 3), exponent_vector(v, 3)))
        if exponent_vector(w * v, 3) != ev:
            exp_ok, witness = False, {"w": format_word(w, names), "v": format_word(v, names)}
        if (w * invert(w)).letters != ():
            cancel_ok, witness = False, {"word": format_word(w, names)}
    _check(out, "words/invert-involution", "invert(invert(w)) = w", inputs, inv_ok, witness or None)
    _check(out, "words/parse-format-roundtrip", "parse(format(w)) = w", inputs, round_ok, witness or None)
    _check(out, "words/exponent-additive", "exp(wv) = exp(w) + exp(v)", inputs, exp_ok, witness or None)
    _check(out, "words/free-cancellation", "w w^-1 reduces to the empty word", inputs, cancel_ok, witness or None)
    return out


def suite_groups(seed: int) -> list:
    out = []
    s3 = groups.preset("sym3")
    elements = groups.group_elements(s3)
    _check(out, "groups/sym3-order", "two involutions with product of order 3 give 6 elements",
           {"group": "sym3"}, len(elements) == 6, len(elements))
    table = groups.todd_coxeter(s3, (generator(0),), groups.TABLE_LIMIT)
    _check(out, "groups/sym3-subgroup-index", "order-2 subgroup has index 3",
           {"group": "sym3", "subgroup": "a"},
           not isinstance(table, groups.Incomplete) and table.coset_count == 3,
           getattr(table, "coset_count", None))
    text = "gens: a b\nrels: a^2 b^2 (a b)^3\n"
    ctx = groups.context_from_text(text)
    canonical = groups.serialize_presentation(ctx)
    _check(out, "groups/parse-roundtrip", "serialize(parse(text)) is a fixed point",
           {"text": text}, groups.context_from_text(canonical) == ctx, canonical)
    bs_ctx = groups.preset("bs(2,3)")
    result = groups.todd_coxeter(bs_ctx, (), 2000)
    _check(out, "groups/bs-enumeration-incomplete", "coset enumeration of an infinite group hits the bound",
           {"group": "bs(2,3)", "limit": 2000}, isinstance(result, groups.Incomplete),
           type(result).__name__)
    k4 = groups.preset("klein4")
    _check(out, "groups/klein4-order", "presentation of the four-group has 4 elements",
           {"group": "klein4"}, len(groups.group_elements(k4)) == 4,
           len(groups.group_elements(k4)))
    return out


def suite_subgroups(seed: int) -> list:
    out = []
    ctx = groups.preset("bs(2,3)")
    x, y = generator(0), generator(1)
    h = subgroups.power_subgroup(ctx, 1)
    hy = subgroups.conjugate(h, y)
    meet = subgroups.intersect(h, hy)
    ok = (subgroups.contains(meet, x ** 3) is True
          and subgroups.contains(meet, x) is False
          and subgroups.contains(meet, x ** 2) is False)
    _check(out, "subgroups/bs-intersect-conjugate", "<x> meet <x>^y = <x^3>",
           {"group": "bs(2,3)"}, ok)
    report = subgroups.commensurability_report(h, hy, 50)
    _check(out, "subgroups/bs-commensurable-indices", "intersection has index 3 and 2 in the operands",
           {"group": "bs(2,3)", "bound": 50},
           report["result"] is True and report["indices"] == [3, 2], report)
    h2 = subgroups.power_subgroup(ctx, 2)
    h2y = subgroups.conjugate(h2, y)
    ok = (subgroups.contains(h2y, x ** 3) is True
          and subgroups.contains(h2y, x ** 2) is False)
    _check(out, "subgroups/bs-conjugate-membership", "<x^2>^y contains x^3 but not x^2",
           {"group": "bs(2,3)"}, ok)
    idx = subgroups.index_bounded(subgroups.power_subgroup(ctx, 6), h2, 100)
    _check(out, "subgroups/bs-power-index", "[<x^2> : <x^6>] = 3",
           {"group": "bs(2,3)", "bound": 100}, idx == 3, idx)
    idx2 = subgroups.index_bounded(h2, subgroups.whole_group(ctx), 100)
    _check(out, "subgroups/bs-infinite-index-flag", "[G : <x^2>] exceeds any finite bound",
           {"group": "bs(2,3)", "bound": 100}, idx2 == subgroups.INFINITE_OR_EXCEEDS, idx2)
    nn = subgroups.near_normal_on(h, [x, y], 60)
    _check(out, "subgroups/bs-near-normal", "<x> is commensurated by both generators",
           {"group": "bs(2,3)", "bound": 60}, nn is True, nn)
    free2 = groups.preset("free(2)")
    a, b = generator(0), generator(1)
    fa = subgroups.free_subgroup(free2, [a])
    nn2 = subgroups.near_normal_on(fa, [a, b], 40)
    _check(out, "subgroups/free-not-near-normal", "<a> in a free group is not commensurated by b",
           {"group": "free(2)", "bound": 40}, nn2 is False, nn2)
    z2 = groups.preset("zn(2)")
    u, v = generator(0), generator(1)
    lu = subgroups.lattice_subgroup(z2, [(1, 0)])
    xset = subgroups.CosetSet(lu, (Word(()), v), "right")
    g = subgroups.neumann_translate(xset, 4)
    _check(out, "subgroups/neumann-translate-lattice", "two parallel lines admit a disjoint translate",
           {"group": "zn(2)", "cosets": 2, "radius": 4}, g is not None and g == v * v,
           format_word(g, ("u", "v")) if g else None)
    s3 = groups.preset("sym3")
    sa = subgroups.finite_subgroup(s3, (generator(0),))
    cover = subgroups.CosetSet(sa, tuple(
        groups.regular_table(s3).representatives[i] for i in (0, 2, 4)), "right")
    miss = subgroups.neumann_translate(cover, 4)
    _check(out, "subgroups/neumann-translate-cover", "a union covering the finite group has no disjoint translate",
           {"group": "sym3", "radius": 4}, miss is None, format_word(miss) if miss else None)
    return out


def suite_families(seed: int) -> list:
    out = []
    ctx = groups.preset("sym3")
    a, b = generator(0), generator(1)
    fam = families.truncation(ctx, families.parse_nodes(
        ctx, families.NAMED_FAMILIES["sym3", "all-subgroups"]))
    adm = families.check_admissible(fam)
    _check(out, "families/sym3-lattice-admissible", "full subgroup lattice is conjugation closed and directed",
           {"group": "sym3", "nodes": len(fam.nodes)},
           adm["conjugation_closed"] and adm["downward_directed"], adm["violations"] or None)
    stab = families.check_stable(fam)
    _check(out, "families/sym3-lattice-stable", "every inclusion admits a normal node below",
           {"group": "sym3"}, stab["stable"], stab["witness"])
    fam2 = families.truncation(ctx, [[a], [a, b]])
    adm2 = families.check_admissible(fam2)
    _check(out, "families/sym3-orbit-not-directed", "conjugation orbit of an order-2 subgroup is not directed",
           {"group": "sym3", "nodes": len(fam2.nodes)},
           adm2["conjugation_closed"] and not adm2["downward_directed"],
           adm2["violations"][:1] or None)
    fam3 = families.truncation(ctx, families.parse_nodes(
        ctx, families.NAMED_FAMILIES["sym3", "normal-order3"]))
    reg = families.regular_module(ctx)
    basis = families.h0_S(reg, fam3)
    _check(out, "families/h0s-regular-dim", "fixed space of the bottom node has dimension 2",
           {"group": "sym3", "family": "normal-order3", "module": "regular"},
           len(basis) == 2, len(basis))
    sub, _ = families.restrict_to_h0s(reg, fam3)
    fixed = families.h0_G_mod_S(sub, fam3)
    _check(out, "families/h0-quotient-dim", "ambient fixed space of the restriction has dimension 1",
           {"group": "sym3", "family": "normal-order3"}, len(fixed) == 1, len(fixed))
    expected = {"zn(1)": 1, "cyclic(2)": 1}
    for name, want in expected.items():
        c = groups.preset(name)
        h1 = families.h1_derivations(c, families.trivial_module(c))
        _check(out, f"families/h1-trivial-{name}", "derivations modulo inner derivations over the one-dimensional trivial module",
               {"group": name, "p": 2}, h1["dim_h1"] == want,
               {"dim_der": h1["dim_der"], "dim_ider": h1["dim_ider"], "dim_h1": h1["dim_h1"]})
    c2 = groups.preset("cyclic(2)")
    h1r = families.h1_derivations(c2, families.regular_module(c2))
    _check(out, "families/h1-regular-cyclic2", "regular module of the order-2 group has vanishing degree-1 group",
           {"group": "cyclic(2)", "p": 2}, h1r["dim_h1"] == 0,
           {"dim_der": h1r["dim_der"], "dim_ider": h1r["dim_ider"], "dim_h1": h1r["dim_h1"]})
    for name in ("sym3", "klein4"):
        c = groups.preset(name)
        h1 = families.h1_derivations(c, families.trivial_module(c))
        want = families.h1_trivial_expected(c)
        _check(out, f"families/h1-abelianization-{name}", "derivation count matches the abelianization rank",
               {"group": name, "p": 2}, h1["dim_h1"] == want,
               {"solver": h1["dim_h1"], "abelianization": want})
    return out


# completion.law_records name -> (check id stem, law text)
_COMPLETION_LAWS = {
    "identity": ("identity", "e is a two-sided identity"),
    "associativity": ("assoc", "the twisted product is associative"),
    "conjugation-cocycle": ("conj-cocycle", "H^(fg) = (H^f)^g"),
    "embed-homomorphism": ("embed-hom", "embedding is a monoid homomorphism"),
    "inverses": ("inverses", "stable inversion yields two-sided inverses"),
    "inverse-anti-homomorphism": ("inverse-anti-hom", "(fg)^-1 = g^-1 f^-1"),
    "inverse-necessary-condition": ("inverse-necessary",
                                    "f^-1(H^f) is the coset of a representative inverse"),
}


def suite_completion(seed: int) -> list:
    out = []
    for label, ctx, nodes in families.named_families():
        fam = families.truncation(ctx, nodes)
        tc = completion.truncated_completion(fam)
        inputs = {"fixture": label, "elements": len(tc.elements)}
        for name, verdict, witness in completion.law_records(tc):
            stem, law = _COMPLETION_LAWS[name]
            _check(out, f"completion/{stem}-{label}", law, inputs, verdict, witness)
        scan_report = completion.invertibility_scan(tc)
        _check(out, f"completion/scan-{label}", "every element of a stable completion is invertible",
               inputs, not scan_report["non_invertible_witnesses"], scan_report)
    s3 = groups.preset("sym3")
    a, b = generator(0), generator(1)
    fam_bad = families.truncation(s3, [[a], [a, b]])
    tc_bad = completion.truncated_completion(fam_bad)
    report = completion.invertibility_scan(tc_bad)
    _check(out, "completion/scan-non-directed", "the scan reports non-invertible elements without deciding the open question",
           {"fixture": "sym3/order2-orbit", "elements": report["total"]},
           True, {"total": report["total"],
                  "invertible": report["invertible"],
                  "non_invertible": len(report["non_invertible_witnesses"])})
    c4 = groups.preset("cyclic(4)")
    fam_c4 = families.truncation(c4, families.parse_nodes(
        c4, families.NAMED_FAMILIES["cyclic(4)", "index2"]))
    agree = completion.profinite_compare(completion.truncated_completion(fam_c4))
    _check(out, "completion/profinite-cyclic4", "normal truncation agrees with the inverse limit of quotients",
           {"fixture": "cyclic4/index2"}, agree)
    return out


def suite_ends(seed: int) -> list:
    out = []
    z = groups.preset("zn(1)")
    t = generator(0)
    triv = subgroups.trivial_subgroup(z)
    ball = ends.coset_graph_ball(z, triv, [t], 3)
    _check(out, "ends/line-ball", "ball of radius 3 in the line is a 7-vertex path",
           {"group": "zn(1)", "radius": 3},
           ball.vertex_count == 7 and len(ball.edges) == 6,
           {"vertices": ball.vertex_count, "edges": len(ball.edges)})
    rep = ends.ends_estimate(z, triv, [t], list(range(1, 13)))
    _check(out, "ends/line-two-ended", "the infinite cyclic group has two ends",
           {"group": "zn(1)", "radii": "1..12"},
           rep["estimate"] == 2 and rep["stabilized"] and all(c == 2 for c in rep["counts"][2:]),
           {"estimate": rep["estimate"], "counts": rep["counts"]})
    z2 = groups.preset("zn(2)")
    u, v = generator(0), generator(1)
    rep1 = ends.ends_estimate(z2, subgroups.trivial_subgroup(z2), [u, v], [2, 4, 6])
    _check(out, "ends/plane-one-ended", "the plane has one end",
           {"group": "zn(2)", "radii": [2, 4, 6]},
           rep1["estimate"] == 1 and rep1["stabilized"],
           {"estimate": rep1["estimate"], "counts": rep1["counts"]})
    lu = subgroups.lattice_subgroup(z2, [(1, 0)])
    rep2 = ends.ends_estimate(z2, lu, [u, v], [2, 4, 6])
    _check(out, "ends/plane-mod-line", "the pair (plane, line) has two ends",
           {"group": "zn(2)", "subgroup": "u", "radii": [2, 4, 6]},
           rep2["estimate"] == 2 and rep2["stabilized"],
           {"estimate": rep2["estimate"], "counts": rep2["counts"]})
    bs_ctx = groups.preset("bs(2,3)")
    x, y = generator(0), generator(1)
    lx2 = subgroups.power_subgroup(bs_ctx, 2)
    rep3 = ends.ends_estimate(bs_ctx, lx2, [x, y], [2, 3, 4])
    _check(out, "ends/bs-splitting-sides", "the HNN edge subgroup separates at least two ends",
           {"group": "bs(2,3)", "subgroup": "x^2", "radii": [2, 3, 4]},
           rep3["estimate"] >= 2, {"estimate": rep3["estimate"], "counts": rep3["counts"]})
    ball4 = ends.coset_graph_ball(z2, lu, [u, v], 4)
    pred = lambda w: exponent_vector(w, 2)[1] > 0
    c3 = ends.claim3_check(pred, ball4)
    _check(out, "ends/claim3-half-plane", "boundary edges stay inside the saturated symmetric difference",
           {"group": "zn(2)", "set": "positive v half", "radius": 4},
           c3["contained_in_Y"] and c3["y_vertex_count"] == 2
           and len(set(c3["boundary_count_per_radius"])) == 1,
           {"boundary": c3["boundary_count_per_radius"], "y": c3["y_vertex_count"]})
    side = ends.bs_side_predicate(bs_ctx)
    ball_bs = ends.coset_graph_ball(bs_ctx, lx2, [x, y], 4)
    c3bs = ends.claim3_check(side, ball_bs)
    _check(out, "ends/claim3-bs-side", "the stable-letter side set is almost invariant",
           {"group": "bs(2,3)", "subgroup": "x^2", "radius": 4},
           c3bs["contained_in_Y"]
           and c3bs["boundary_count_per_radius"][-1] == c3bs["boundary_count_per_radius"][-2],
           {"boundary": c3bs["boundary_count_per_radius"], "y": c3bs["y_vertex_count"]})
    s3 = groups.preset("sym3")
    a, b = generator(0), generator(1)
    h = subgroups.finite_subgroup(s3, (a,))
    one = ends.double_coset_membership(subgroups.CosetSet(h, (b,), "left"), h, 3)
    orbit = ends.double_coset_orbit(h, b, 3)
    full = ends.double_coset_membership(orbit, h, 3)
    _check(out, "ends/double-coset", "one coset of HbH escapes, the full orbit closes",
           {"group": "sym3"}, one is False and full is True and len(orbit.representatives) == 2,
           {"single": one, "orbit": full, "cosets": len(orbit.representatives)})
    return out


def suite_thompson(seed: int) -> list:
    out = []
    lemmas = thompson.lemma_report(6, 6, 12, 8, thompson.SHIFT_WORDS[:4])
    _check(out, "thompson/conjugation-grid", "even and odd conjugators shift the pair generators",
           {"m<n": "0..6"}, lemmas["conjugation_identities"]["pass"])
    _check(out, "thompson/pair-commutation", "pair generators commute pairwise",
           {"indices": "0..6"}, lemmas["pair_commutation"]["pass"])
    witness = {text: {"threshold": s["threshold"], "j": s["j"], "all_pass": s["pass"]}
               for text, s in lemmas["shift"].items() if not s["pass"]}
    _check(out, "thompson/shift-property", "conjugation by g shifts high-index generators by the exponent sum",
           {"elements": 4, "n": "2..12"}, not witness, witness or None)
    w = thompson.a_generator(2) * thompson.a_generator(4) ** -1
    exps = thompson.a_exponents(w, 30)
    _check(out, "thompson/a-membership", "greedy peeling recovers pair-generator exponents",
           {"word": "a2 a4^-1"}, exps == {2: 1, 4: -1}, exps)
    # A_m lies in both conjugates exactly when it lies in each of them.
    inter = [lemmas["conjugate_intersection"][text] for text in ("x0^2", "x0 x1")]
    failed = [e for e in inter if not e["pass"]]
    inter_witness = failed[0].get("reason") if failed else {"m": max(e["m"] for e in inter)}
    _check(out, "thompson/conjugate-intersection", "some tail subgroup lands in the conjugate intersection",
           {"conjugators": ["x0^2", "x0 x1"], "m_bound": 8}, not failed, inter_witness)
    report = scan.thompson_agreement_scan(5, 2)
    _check(out, "thompson/normal-form-agreement", "normal-form engine agrees with the homeomorphism model",
           {"max_len": 5, "max_index": 2}, len(report["failures"]) == 0,
           {"words": report["words"], "failures": len(report["failures"])})
    return out


def suite_bs(seed: int) -> list:
    out = []
    x, y = generator(0), generator(1)
    ctx = groups.preset("bs(2,3)")
    m, n = ctx.bs_params
    head, tail = bs.britton_reduce(invert(y) * x * x * y, m, n)
    _check(out, "bs/britton-defining-relation", "y^-1 x^2 y reduces to x^3",
           {"group": "bs(2,3)"}, not tail and head == 3,
           {"head": head, "tail": list(tail)})
    pc = bs.power_conjugate(y, 10, m, n)
    _check(out, "bs/power-conjugate-y", "conjugating by y carries x^2 to x^3",
           {"g": "y", "bound": 10}, pc == (2, 3), pc)
    pc2 = bs.power_conjugate(invert(y), 10, m, n)
    _check(out, "bs/power-conjugate-y-inv", "conjugating by y^-1 carries x^3 to x^2",
           {"g": "y^-1", "bound": 10}, pc2 == (3, 2), pc2)
    pc3 = bs.power_conjugate(y * y, 20, m, n)
    _check(out, "bs/power-conjugate-yy", "conjugating by y^2 carries x^4 to x^9",
           {"g": "y^2", "bound": 20}, pc3 == (4, 9), pc3)
    h = subgroups.power_subgroup(ctx, 1)
    nn = subgroups.near_normal_on(h, [x, y], 60)
    _check(out, "bs/near-normal", "<x> is near normal",
           {"bound": 60}, nn is True, nn)
    fam = bs.family_axiom_check([y], 4, 1, m, n)
    _check(out, "bs/family-axioms", "bounded truncation of the power family is closed and directed",
           {"conjugators": ["y"], "a_bound": 4},
           fam["all_pass"], {"nodes": fam["nodes"], "closure": fam["closure_pass"],
                             "directed": fam["directed_pass"]})
    result = groups.todd_coxeter(ctx, (), 2000)
    _check(out, "bs/enumeration-incomplete", "the infinite group defeats bounded coset enumeration",
           {"limit": 2000}, isinstance(result, groups.Incomplete), type(result).__name__)
    return out


# The calling process runs the first suite and a worker runs the rest, so
# thompson, longer than all the others together, comes first; the order of
# the rest does not matter.  Median milliseconds of each suite in 11 runs of
# ``suite all --seed 7 --timing`` pinned to one CPU (so one process) of a
# 2-core x86-64 Xeon, with the pure-Python scan kernel.
SUITES = {
    "thompson": suite_thompson,  # 40, 37.5 of them the 5:2 agreement scan
    "ends": suite_ends,  # 6
    "completion": suite_completion,  # 4
    "subgroups": suite_subgroups,  # 3
    "families": suite_families,  # 2
    "groups": suite_groups,  # 2
    "bs": suite_bs,  # 2
    "words": suite_words,  # 2
}


def run_suite(name: str, seed: int = 0, timing: bool = False) -> dict:
    """RunReport: {suite, seed, checks sorted by id, timing (null unless
    requested)}.  The timing object holds the total seconds, the number of
    processes that ran the suites and each suite's own seconds and cyclic
    garbage collections (all generations, in the process that ran it)."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise UnknownSuiteError(f"unknown suite {name!r}; choose from "
                                f"{', '.join(sorted(SUITES))} or all")
    start = time.monotonic()
    done, workers = _run_split(names, [SUITES[k] for k in names], seed)
    checks = [c for i in range(len(names)) for c in done[i][0]]
    checks.sort(key=lambda c: c["id"])
    elapsed = None
    if timing:
        elapsed = {"seconds": round(time.monotonic() - start, 3), "workers": workers,
                   "suites": {names[i]: {"seconds": round(seconds, 3), "collections": collections}
                              for i, (_, seconds, collections) in done.items()}}
    return {"suite": name, "seed": seed, "checks": checks, "timing": elapsed}


# ---------------------------------------------------------------------------
# Fork, not spawn: a spawned worker imports the package again, which costs
# more than all the suites.


def _forks_a_worker(jobs: int) -> bool:
    """Whether ``jobs`` suites run on two processes: more than one suite and
    more than one CPU this process may run on, where it can fork and where
    forking is safe because it runs no other threads."""
    if jobs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return cpus > 1


def _collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _run(share, runners: list, seed: int) -> dict:
    """{index: (checks, seconds, collections)} of each suite in ``share``."""
    done = {}
    for i in share:
        start, collected = time.monotonic(), _collections()
        checks = runners[i](seed)
        done[i] = (checks, time.monotonic() - start, _collections() - collected)
    return done


def _pickled(exc: Exception) -> bytes:
    import pickle  # only a failing worker pays for the import

    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
    except Exception:  # an exception that does not round-trip keeps its text
        blob = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
    return blob


def _run_split(names: list, runners: list, seed: int) -> tuple:
    """({index: (checks, seconds, collections)} of every runner, processes
    used).  With a worker, this process runs runner 0 and a forked worker
    runs the rest and writes (True, its results) or (False, its pickled
    exception) to a pipe, which is read to EOF before the worker is reaped
    on every path, so a worker blocked writing a large result cannot
    deadlock the wait."""
    everything = range(len(runners))
    if not _forks_a_worker(len(runners)):
        return _run(everything, runners, seed), 1
    try:
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_end)
            os.close(write_end)
            raise
    except OSError:  # out of processes or memory: run everything here
        return _run(everything, runners, seed), 1
    if not pid:
        status = 1
        try:
            os.close(read_end)
            try:
                message = marshal.dumps((True, _run(everything[1:], runners, seed)))
            except Exception as exc:
                message = marshal.dumps((False, _pickled(exc)))
            with open(write_end, "wb") as out:
                out.write(message)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            try:
                done = _run(everything[:1], runners, seed)
            finally:
                message = pipe.read()
    finally:
        os.waitpid(pid, 0)
    try:
        ok, payload = marshal.loads(message)
    except (EOFError, ValueError, TypeError):  # the worker died before it wrote
        raise RuntimeError("a suite worker ended without a result; suites not run: "
                           + ", ".join(names[1:])) from None
    if not ok:
        import pickle

        raise pickle.loads(payload)
    done.update(payload)
    return done, 2


def report_failures(report: dict) -> list:
    return [c for c in report["checks"] if c["outcome"] == "fail"]
