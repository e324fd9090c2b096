"""Normal forms and the pair-generator machinery of Thompson's group."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearnormal import _scan_py, thompson
from nearnormal.thompson import (
    IDENTITY, SHIFT_WORDS, BoundExhausted, a_exponents, a_generator,
    am_in_conjugate_intersection, f_normal_form, f_times,
    verify_conjugation_identity, verify_shift,
)
from nearnormal.words import Word, exponent_sum, generator, invert, parse_word
from rewriting import a_exponents_by_words, a_membership_by_words, naive_equal


def f_equal(u: Word, v: Word) -> bool:
    return f_normal_form(u * invert(v)).is_identity()


def test_defining_relations():
    # x_i^-1 x_j x_i = x_{j+1} for i < j
    for i in range(4):
        for j in range(i + 1, 6):
            lhs = invert(generator(i)) * generator(j) * generator(i)
            assert f_equal(lhs, generator(j + 1))


def test_normal_form_is_sound_on_relator_consequences():
    x0, x1, x2 = generator(0), generator(1), generator(2)
    rel = invert(x0) * x1 * x0 * invert(x2)
    assert f_normal_form(rel).is_identity()
    assert not f_normal_form(x0 * x1).is_identity()
    assert f_equal(x0 * invert(x0), Word(()))


def random_word(rng, max_index, length):
    return Word([(rng.randrange(max_index + 1), rng.choice((1, -1)))
                 for _ in range(length)])


def test_normal_form_respects_multiplication():
    rng = random.Random(3)
    for _ in range(60):
        u = random_word(rng, 3, rng.randrange(7))
        v = random_word(rng, 3, rng.randrange(7))
        # (uv)(v^-1 u^-1) reduces to the identity in the group
        assert f_equal(u * v * invert(v) * invert(u), Word(()))
        assert f_equal(u, v) == f_equal(v, u)


def test_naive_oracle_agrees_exhaustively():
    # every word over x0, x1 up to length 4 against the normal form
    alphabet = [(0, 1), (0, -1), (1, 1), (1, -1)]
    words = [Word(ls) for k in range(5)
             for ls in itertools.product(alphabet, repeat=k)]
    identity = Word(())
    for u in words:
        assert naive_equal(u, identity) == f_normal_form(u).is_identity()


def test_naive_oracle_agrees_on_random_pairs():
    rng = random.Random(11)
    for _ in range(40):
        u = random_word(rng, 2, 4)
        v = random_word(rng, 2, 4)
        got = naive_equal(u, v)
        assert got == f_equal(u, v)


_letters = st.lists(st.tuples(st.integers(0, 6), st.sampled_from((1, -1))), max_size=8)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(u=_letters, v=_letters, cancel=st.integers(0, 8))
def test_f_times_extends_a_normal_form(u, v, cancel):
    # v starts by cancelling up to `cancel` letters of u's tail; f_times
    # takes v's letters as given, unreduced against u
    v = [(i, -s) for i, s in reversed(u[len(u) - cancel:])] + v
    assert f_times(f_normal_form(Word(u)), v) == f_normal_form(Word(u + v))
    assert f_times(IDENTITY, u) == f_normal_form(Word(u))


def _reference_mul_letter(pos, neg, index, sign):
    """The form (pos, neg), runs as [index, exp] lists, times x_index^sign,
    in place: the traveller walks the smaller indices of N, then joins N,
    cancels a letter of N^-1 or travels on left into P."""
    k, t, size = index, 0, len(neg)
    while t < size:
        q, b = neg[t]
        if q >= k:
            break
        k += b
        t += 1
    hit = t < size and neg[t][0] == k
    if sign == -1:
        if hit:
            neg[t][1] += 1
        else:
            neg.insert(t, [k, 1])
        return
    if hit:
        if neg[t][1] == 1:
            neg.pop(t)
        else:
            neg[t][1] -= 1
        return
    for run in neg[t:]:
        run[0] += 1
    s = len(pos)
    while s > 0 and pos[s - 1][0] > k:
        pos[s - 1][0] += 1
        s -= 1
    if s > 0 and pos[s - 1][0] == k:
        pos[s - 1][1] += 1
    else:
        pos.insert(s, [k, 1])


def _reference_cleanup(pos, neg):
    """The uniqueness condition enforced in place, by searching both index
    sets for an offender after any step."""
    while True:
        pos_idx = {p for p, _ in pos}
        neg_idx = {q for q, _ in neg}
        offender = None
        for i in pos_idx & neg_idx:
            if i + 1 not in pos_idx and i + 1 not in neg_idx:
                offender = i
                break
        if offender is None:
            return
        for runs in (pos, neg):
            for run in runs:
                if run[0] == offender:
                    run[1] -= 1
                elif run[0] > offender:
                    run[0] -= 1
        pos[:] = [r for r in pos if r[1] > 0]
        neg[:] = [r for r in neg if r[1] > 0]


def reference_f_times(form, letters):
    """(P, N) of form * w on lists, with a full cleanup after every letter:
    the reference for thompson.f_times, which cleans up only where the
    uniqueness condition can break."""
    pos = [list(run) for run in form.positive]
    neg = [list(run) for run in form.negative]
    for index, sign in letters:
        _reference_mul_letter(pos, neg, index, sign)
        _reference_cleanup(pos, neg)
    return tuple(map(tuple, pos)), tuple(map(tuple, neg))


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(u=st.lists(st.tuples(st.integers(0, 6), st.sampled_from((1, -1))), max_size=12),
       v=st.lists(st.tuples(st.integers(0, 9), st.sampled_from((1, -1))), max_size=14))
def test_f_times_cleans_up_only_where_it_must(u, v):
    # f_times calls _cleanup in two cases only; every step from a normal
    # form must still give the normal form and a canonical one
    form = f_normal_form(Word(u))
    for index, sign in v:
        want = reference_f_times(form, [(index, sign)])
        form = f_times(form, [(index, sign)])
        assert form == want
        assert _scan_py._is_normal_form(*form)


def two_walk_mul_letter(pos, neg, index, sign):
    """x_index^sign times the normal form (pos, neg), with the traveller's
    walk through the smaller indices of N written once per sign and a full
    cleanup after it: the reference for thompson._mul_letter."""
    pos, neg = list(map(list, pos)), list(map(list, neg))
    _two_walk(pos, neg, index, sign)
    _reference_cleanup(pos, neg)
    return tuple(map(tuple, pos)), tuple(map(tuple, neg))


def _two_walk(pos, neg, index, sign):
    k = index
    if sign == -1:
        t = 0
        while t < len(neg):
            q, b = neg[t]
            if q < k:
                k += b
                t += 1
            elif q == k:
                neg[t][1] += 1
                return
            else:
                neg.insert(t, [k, 1])
                return
        neg.append([k, 1])
        return
    t = 0
    while t < len(neg):
        q, b = neg[t]
        if q < k:
            k += b
            t += 1
        elif q == k:
            if b == 1:
                neg.pop(t)
            else:
                neg[t][1] -= 1
            return
        else:
            break
    for run in neg[t:]:
        run[0] += 1
    s = len(pos)
    while s > 0:
        p, a = pos[s - 1]
        if p > k:
            pos[s - 1][0] += 1
            s -= 1
        elif p == k:
            pos[s - 1][1] += 1
            return
        else:
            pos.insert(s, [k, 1])
            return
    pos.insert(0, [k, 1])


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(u=st.lists(st.tuples(st.integers(0, 6), st.sampled_from((1, -1))), max_size=16),
       index=st.integers(0, 12), sign=st.sampled_from((1, -1)))
def test_mul_letter_matches_the_two_walk_reference(u, index, sign):
    form = f_normal_form(Word(u))
    got = thompson._mul_letter(*form, index, sign)
    want = two_walk_mul_letter(*form, index, sign)
    assert got == want


def test_a_generator_letters():
    assert a_generator(0) == generator(1) * invert(generator(0))
    assert a_generator(3) == generator(7) * invert(generator(6))
    with pytest.raises(ValueError):
        a_generator(-1)


def test_conjugation_identity_grid():
    for m in range(6):
        for n in range(m + 1, 7):
            assert verify_conjugation_identity(m, n)
    with pytest.raises(ValueError):
        verify_conjugation_identity(3, 2)


def test_pair_generators_commute():
    for m in range(5):
        for n in range(m + 1, 6):
            am, an = a_generator(m), a_generator(n)
            assert f_equal(am * an, an * am)


def test_verify_shift_even_powers():
    report = verify_shift(generator(0, 2), range(0, 12))
    assert report["j"] == 2
    assert report["all_pass"] is True
    report = verify_shift(generator(0, -2), range(0, 12))
    assert report["j"] == -2
    assert report["all_pass"] is True
    assert report["threshold"] is not None
    report = verify_shift(generator(0) * generator(1), range(0, 12))
    assert report["j"] == 2 and report["all_pass"] is True


def test_verify_shift_threshold_is_minimal():
    report = verify_shift(generator(0, 2), range(0, 12))
    t = report["threshold"]
    g = generator(0, 2)
    if t > 0:
        assert not f_equal(invert(g) * generator(t - 1) * g, generator(t + 1))
    assert f_equal(invert(g) * generator(t) * g, generator(t + 2))


def test_a_membership_and_exponents():
    idx = 30
    assert a_exponents(a_generator(2), idx) == {2: 1}
    assert a_exponents(a_generator(0) * a_generator(3) ** 2, idx) == {0: 1, 3: 2}
    assert a_exponents(generator(0), idx) is False
    assert a_exponents(generator(1) * generator(0), idx) is False
    assert a_exponents(generator(1) * invert(generator(0)) * generator(2), idx) is False
    assert a_exponents(a_generator(1) * a_generator(4) ** -2, idx) == {1: 1, 4: -2}
    assert a_exponents(Word(()), idx) == {}
    assert a_exponents(a_generator(20), idx) == "unknown"
    # commuting pairs: order of the product does not matter
    u = a_generator(1) * a_generator(3)
    v = a_generator(3) * a_generator(1)
    assert f_equal(u, v)
    assert a_exponents(u, idx) == a_exponents(v, idx)


def test_conjugate_intersection_certificate():
    g = generator(0, 2)
    report = am_in_conjugate_intersection([g], m_bound=8)
    m = report["m"]
    assert m == 2
    certs = report["certificates"]
    # T(x0^2) = 3, so a_n lies in A^g for every n >= 2 by the shift lemma
    # and no n is left to peel
    assert certs["checked_n"] == []
    assert certs["shifts"]["g0"] == {"threshold": 3, "j": -2, "all_pass": True}
    # the certified m really does put its generators inside the conjugate,
    # and a_(m-1) is outside it
    for n in (m, m + 1, m + 2):
        conj = g * a_generator(n) * invert(g)
        assert isinstance(a_exponents(conj, 80), dict)
    assert a_exponents(g * a_generator(m - 1) * invert(g), 80) is False
    report = am_in_conjugate_intersection([parse_word("x0^2 x1^-2")], m_bound=8)
    assert report["m"] == 1 and report["certificates"]["checked_n"] == [1, 2]


def reference_m(gs, m_bound, top=19, bound=80):
    """The least m <= m_bound with every a_n, m <= n <= top, inside every
    A^g, each tested by one peel at a fixed bound; None when there is none."""
    passes = [all(isinstance(a_exponents(g * a_generator(n) * invert(g), bound), dict)
                  for g in gs) for n in range(top + 1)]
    return next((m for m in range(min(m_bound, top) + 1) if all(passes[m:])), None)


def test_conjugate_intersection_matches_a_bounded_scan():
    rng = random.Random(29)
    gs = [parse_word(text) for text in SHIFT_WORDS]
    while len(gs) < 30:
        g = random_word(rng, 4, rng.randrange(1, 7))
        if exponent_sum(g) % 2 == 0:
            gs.append(g)
    for g in gs:
        assert am_in_conjugate_intersection([g], 19)["m"] == reference_m([g], 19), g
    for g, h in zip(gs[::2], gs[1::2]):
        assert am_in_conjugate_intersection([g, h], 19)["m"] == reference_m([g, h], 19), (g, h)


def test_shift_holds_from_the_threshold_on():
    rng = random.Random(31)
    words = [parse_word("x3^-1")] + [random_word(rng, 4, rng.randrange(8)) for _ in range(40)]
    for g in words:
        t = thompson.shift_threshold(g)
        report = verify_shift(g, range(t, t + 200))
        assert report["all_pass"] and report["threshold"] == t, g
    # x3 x4 x3^-1 is not x3: the + 1 in T(x3^-1) = 3 + 1 + 1 is needed
    g = parse_word("x3^-1")
    assert thompson.shift_threshold(g) == 5
    assert verify_shift(g, range(4, 30))["threshold"] == 5


def test_conjugate_intersection_multiple_conjugators():
    gs = [generator(0, 2), generator(0) * generator(1)]
    report = am_in_conjugate_intersection(gs, m_bound=8)
    assert report["m"] <= 8
    assert set(report["certificates"]["shifts"]) == {"g0", "g1"}


def test_conjugate_intersection_rejects_odd_exponent_sum():
    with pytest.raises(ValueError):
        am_in_conjugate_intersection([generator(0)], m_bound=4)


def test_conjugate_intersection_bound_exhausted():
    # A_m lies in A^(x0^2) from m = 2 on, so m_bound 1 is too small
    with pytest.raises(BoundExhausted, match="^no m <= 1$"):
        am_in_conjugate_intersection([generator(0, 2)], m_bound=1)
    assert am_in_conjugate_intersection([generator(0, 2)], m_bound=2)["m"] == 2


def test_a_membership_matches_the_word_peel():
    # both references re-normalise whole words at each step: the membership
    # peel backtracks without a memo, the exponent peel is greedy.  The greedy
    # one may read exponents off a form whose indices pass the bound, where
    # the membership verdict, and so the one peel's, is "unknown".
    cases = [(parse_word(text), n) for text in SHIFT_WORDS for n in range(20)]
    conjugates = [g * a_generator(n) * invert(g) for g, n in cases]
    rng = random.Random(17)
    balanced = []
    while len(balanced) < 200:
        w = random_word(rng, 5, rng.randrange(1, 9))
        if rng.random() < 0.5:
            # likely members: a product of pair generators, conjugated
            g = random_word(rng, 3, rng.randrange(3))
            a = Word(())
            for _ in range(rng.randrange(1, 4)):
                a = a * a_generator(rng.randrange(4)) ** rng.choice((1, -1))
            w = g * a * invert(g)
        if exponent_sum(w) == 0:
            balanced.append(w)
    unbalanced = []
    while len(unbalanced) < 50:
        w = random_word(rng, 5, rng.randrange(1, 9))
        if exponent_sum(w):
            unbalanced.append(w)
    verdicts = []
    for w in conjugates + balanced + unbalanced:
        for bound in (1, 3, 6, 15, 80):
            got = a_exponents(w, bound)
            member = isinstance(got, dict)
            assert (True if member else got) == a_membership_by_words(w, bound), (w, bound)
            greedy = a_exponents_by_words(w, bound)
            if member:
                assert got == greedy, (w, bound)
            else:
                assert greedy is None or got == "unknown", (w, bound)
            verdicts.append("member" if member else got)
    assert {"member", False, "unknown"} <= set(verdicts)
    assert all(a_exponents(w, bound) is False for w in unbalanced for bound in (1, 80))
    # a2 a3 a4: its form reaches index 11, past bound 9 + 1, but the peel
    # needs only pairs with 2n+1 <= 9
    w = parse_word("x9 x8^-1 x7 x6^-1 x5 x4^-1")
    assert a_exponents_by_words(w, 9) == {2: 1, 3: 1, 4: 1}
    assert a_exponents(w, 9) == {2: 1, 3: 1, 4: 1}
    assert a_membership_by_words(w, 9) is True


def test_a_membership_extends_forms_in_place(monkeypatch):
    # the word-walking reference peel makes 19,422 _mul_letter calls here
    calls = []
    mul_letter = thompson._mul_letter

    def counted(*args):
        calls.append(args)
        return mul_letter(*args)

    monkeypatch.setattr(thompson, "_mul_letter", counted)
    g = parse_word("x0^2 x1^-2")
    a_exponents(g * a_generator(0) * invert(g), 80)
    assert len(calls) <= 200
