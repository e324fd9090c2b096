"""Acceptance gate: one numbered end-to-end check per test.

Every check prints a single ``ACCEPTANCE n <label>: PASS|FAIL`` verdict line
(visible with -s, or on failure) and the test outcome mirrors it.  Checks are
exhaustive at desk scale: completion laws over entire element sets, lemma
grids over full index ranges, tables compared entry by entry.
"""

import itertools
import json
from contextlib import contextmanager

import pytest

import dense_modp as ref
from nearnormal import baumslag_solitar as bs
from nearnormal import (
    completion, ends, families, groups, modp, subgroups, suites, thompson,
)
from nearnormal.words import Word, exponent_sum, generator, invert, parse_word
from rewriting import form_word, naive_equal


@contextmanager
def verdict(number, label):
    try:
        yield
    except pytest.skip.Exception:
        print(f"ACCEPTANCE {number} {label}: SKIP")
        raise
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS")


# -- shared fixtures ----------------------------------------------------------


_BUILT = None


def built_fixtures():
    """(label, ctx, fam, tc, all_normal) per built-in family, built once;
    sym3/all-subgroups is the one with a non-normal node."""
    global _BUILT
    if _BUILT is None:
        _BUILT = []
        for label, ctx, nodes in families.named_families():
            fam = families.truncation(ctx, nodes)
            tc = completion.truncated_completion(fam)
            _BUILT.append((label, ctx, fam, tc, label != "sym3/all-subgroups"))
    return _BUILT


def law_verdicts(tc):
    """completion.law_records as {law name: (verdict, witness)}."""
    return {name: (verdict, witness)
            for name, verdict, witness in completion.law_records(tc)}


PASS = ("pass", None)


def test_acceptance_01_completion_group_laws():
    with verdict(1, "completion group laws on four fixtures"):
        assert len(built_fixtures()) >= 4
        for label, ctx, fam, tc, _ in built_fixtures():
            laws = law_verdicts(tc)
            assert families.check_stable(fam)["stable"] is True, label
            for name in ("identity", "associativity", "inverses",
                         "inverse-anti-homomorphism"):
                assert laws[name] == PASS, (label, name)


def test_acceptance_02_embed_homomorphism():
    with verdict(2, "embedding is a homomorphism on all pairs"):
        for label, ctx, fam, tc, _ in built_fixtures():
            assert law_verdicts(tc)["embed-homomorphism"] == PASS, label
            assert completion.embed(Word(()), tc) == completion.identity_element(tc)


def test_acceptance_03_conjugation_cocycle():
    with verdict(3, "conjugation cocycle on all triples"):
        for label, ctx, fam, tc, _ in built_fixtures():
            assert law_verdicts(tc)["conjugation-cocycle"] == PASS, label


def test_acceptance_04_inverse_necessary_condition():
    with verdict(4, "inverse determined nodewise by representative inverses"):
        for label, ctx, fam, tc, _ in built_fixtures():
            assert law_verdicts(tc)["inverse-necessary-condition"] == PASS, label


def test_acceptance_05_profinite_comparison():
    with verdict(5, "completion of an all-normal family matches the quotient limit"):
        checked = 0
        for label, ctx, fam, tc, all_normal in built_fixtures():
            if all_normal:
                assert completion.profinite_compare(tc) is True, label
                checked += 1
            else:
                with pytest.raises(ValueError):
                    completion.profinite_compare(tc)
        assert checked == 3


def test_acceptance_06_thompson_lemma_grid(request):
    with verdict(6, "pair-generator lemma grid and normal-form agreement"):
        # identities for m < n <= 10, pairs a_i, a_j with i < j <= 12, shifts
        # for n <= 20 and A_m, m <= 8, in each conjugate by the five words,
        # certificate shifts included (the defaults of thompson verify)
        report = thompson.lemma_report(10, 12, 20, 8, thompson.SHIFT_WORDS)
        assert report["conjugation_identities"]["checked"] == 55
        assert report["conjugation_identities"]["failures"] == []
        assert report["pair_commutation"]["failures"] == []
        assert list(report["shift"]) == list(thompson.SHIFT_WORDS)
        for text, shift in report["shift"].items():
            assert shift["pass"], text
            assert shift["j"] == exponent_sum(parse_word(text)), text
        assert list(report["conjugate_intersection"]) == list(thompson.SHIFT_WORDS)
        for text, inter in report["conjugate_intersection"].items():
            assert inter["pass"] and inter["m"] >= 0, text
        assert report["pass"]
        # engine vs the breadth-first rewriting oracle at small scale
        words = [Word(())]
        frontier = [()]
        letters = [(i, s) for i in (0, 1) for s in (1, -1)]
        for _ in range(3):
            frontier = [w + (l,) for w in frontier for l in letters
                        if not (w and w[-1][0] == l[0] and w[-1][1] == -l[1])]
            words.extend(Word(w) for w in frontier)
        for w in words:
            assert naive_equal(w, form_word(thompson.f_normal_form(w))) is True
        # engine vs the exact homeomorphism model, every word of length <= 8
        # over indices <= 4 (unreduced words factor through free reduction);
        # the kernel is requested last so the checks above run without it
        report = request.getfixturevalue("scan_c").thompson_agreement_scan(8, 4)
        assert report["words"] == 53_808_401
        assert report["failures"] == []


def test_acceptance_07_bs_fixture():
    with verdict(7, "bs(2,3) reduction, power conjugation, and family axioms"):
        x, y = generator(0), generator(1)
        ctx = groups.preset("bs(2,3)")
        m, n = ctx.bs_params
        assert bs.britton_reduce(invert(y) * x * x * y, m, n) == (3, ())
        assert bs.power_conjugate(y, 10, m, n) == (2, 3)
        assert bs.power_conjugate(invert(y), 10, m, n) == (3, 2)
        assert bs.power_conjugate(y * y, 20, m, n) == (4, 9)
        h = subgroups.power_subgroup(ctx, 1)
        assert subgroups.near_normal_on(h, [x, y], 60) is True
        report = bs.family_axiom_check([y, invert(y)], 12, 1, m, n)
        assert report["all_pass"] is True
        result = groups.todd_coxeter(ctx, (x,), 10_000)
        assert isinstance(result, groups.Incomplete)


def test_acceptance_08_ends_estimation():
    with verdict(8, "end counts for line, plane, plane mod line, and bs(2,3)"):
        z = groups.preset("zn(1)")
        t = generator(0)
        rep = ends.ends_estimate(z, subgroups.trivial_subgroup(z), [t],
                                 list(range(1, 21)))
        assert rep["estimate"] == 2 and rep["stabilized"] is True
        assert all(c == 2 for c in rep["counts"][1:])
        z2 = groups.preset("zn(2)")
        u, v = generator(0), generator(1)
        rep1 = ends.ends_estimate(z2, subgroups.trivial_subgroup(z2), [u, v],
                                  [2, 4, 6])
        assert rep1["estimate"] == 1 and rep1["stabilized"] is True
        lu = subgroups.lattice_subgroup(z2, [(1, 0)])
        rep2 = ends.ends_estimate(z2, lu, [u, v], [2, 4, 6])
        assert rep2["estimate"] == 2 and rep2["stabilized"] is True
        bs_ctx = groups.preset("bs(2,3)")
        x, y = generator(0), generator(1)
        lx2 = subgroups.power_subgroup(bs_ctx, 2)
        rep3 = ends.ends_estimate(bs_ctx, lx2, [x, y], [2, 4, 6, 8])
        assert rep3["estimate"] >= 2
        ball = ends.coset_graph_ball(bs_ctx, lx2, [x, y], 4)
        c3 = ends.claim3_check(ends.bs_side_predicate(bs_ctx), ball)
        assert c3["contained_in_Y"] is True
        counts = c3["boundary_count_per_radius"]
        assert counts == sorted(counts)
        assert counts[-1] == counts[-2]


def test_acceptance_09_neumann_translate():
    with verdict(9, "disjoint translates found and re-verified, or ruled out"):
        z2 = groups.preset("zn(2)")
        u, v = generator(0), generator(1)
        lu = subgroups.lattice_subgroup(z2, [(1, 0)])
        xset = subgroups.CosetSet(lu, (Word(()), v), "right")
        g = subgroups.neumann_translate(xset, 4)
        assert g == v * v
        for r1 in xset.representatives:
            for r2 in xset.representatives:
                assert subgroups.same_coset(lu, r1 * g, r2, "right") is False
        bs_ctx = groups.preset("bs(2,3)")
        hx = subgroups.power_subgroup(bs_ctx, 1)
        single = subgroups.CosetSet(hx, (Word(()),), "right")
        gb = subgroups.neumann_translate(single, 3)
        assert gb == generator(1)
        for r1 in single.representatives:
            for r2 in single.representatives:
                assert subgroups.same_coset(hx, r1 * gb, r2, "right") is False
        s3 = groups.preset("sym3")
        sa = subgroups.finite_subgroup(s3, (generator(0),))
        reps = tuple(groups.regular_table(s3).representatives[i] for i in (0, 2, 4))
        cover = subgroups.CosetSet(sa, reps, "right")
        assert subgroups.neumann_translate(cover, 4) is None


def _brute_h1_dims(ctx, module):
    """Exhaustive cocycle enumeration: dimensions from raw counting."""
    p, d = module.p, module.dimension
    ngens = ctx.generator_count
    mats = [ref.dense(m, d) for m in module.matrices]
    inverses = [ref.dense(m, d) for m in module.inverses]
    vectors = list(itertools.product(range(p), repeat=d))

    def d_eval(assign, w):
        val = ref.zero_vector(d)
        for index, sign in w.letters:
            if sign > 0:
                val = ref.vec_add(
                    ref.vec_mat(val, mats[index], p),
                    assign[index], p)
            else:
                minv = inverses[index]
                val = ref.vec_sub(
                    ref.vec_mat(val, minv, p),
                    ref.vec_mat(assign[index], minv, p), p)
        return val

    zero = ref.zero_vector(d)
    der = 0
    for assign in itertools.product(vectors, repeat=ngens):
        if all(d_eval(assign, r) == zero for r in ctx.relators):
            der += 1
    inner = set()
    for m in vectors:
        inner.add(tuple(
            ref.vec_sub(ref.vec_mat(m, mats[i], p), m, p)
            for i in range(ngens)))
    der_dim = 0
    while p ** der_dim < der:
        der_dim += 1
    assert p ** der_dim == der
    inner_dim = 0
    while p ** inner_dim < len(inner):
        inner_dim += 1
    assert p ** inner_dim == len(inner)
    return der_dim, inner_dim, der_dim - inner_dim


def test_acceptance_10_degree_functors():
    with verdict(10, "fixed-space invariance and first-degree dimensions"):
        for label, ctx, fam, tc, _ in built_fixtures():
            for module in (families.trivial_module(ctx),
                           families.regular_module(ctx)):
                basis = families.h0_S(module, fam)
                for mat in module.matrices:
                    for row in basis:
                        image = modp.vec_mat(row, mat, module.p)
                        assert modp.span_contains(basis, [image], module.p), label
        cases = [
            ("zn(1)", "trivial", 1),
            ("cyclic(2)", "trivial", 1),
            ("cyclic(2)", "regular", 0),
        ]
        for name, module_kind, want in cases:
            ctx = groups.preset(name)
            module = (families.trivial_module(ctx) if module_kind == "trivial"
                      else families.regular_module(ctx))
            report = families.h1_derivations(ctx, module)
            assert report["dim_h1"] == want, (name, module_kind)
            brute = _brute_h1_dims(ctx, module)
            assert brute == (report["dim_der"], report["dim_ider"],
                             report["dim_h1"]), (name, module_kind)


def test_acceptance_11_determinism():
    with verdict(11, "suite reports are byte-identical across runs"):
        first = json.dumps(suites.run_suite("all", seed=7), sort_keys=True)
        second = json.dumps(suites.run_suite("all", seed=7), sort_keys=True)
        assert first == second
