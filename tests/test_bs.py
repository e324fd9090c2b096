"""Britton reduction checked against rewriting reachability and an affine model."""

import random
from fractions import Fraction
from math import gcd

import pytest

from nearnormal import baumslag_solitar as bs
from nearnormal.words import Word, free_reduce, generator, invert
from rewriting import bs_naive_equal, bs_neighbors

X = generator(0)
Y = generator(1)
M, N = 2, 3  # the fixtures below are about BS(2,3)

LETTERS = ((0, 1), (0, -1), (1, 1), (1, -1))


def form_word(key):
    """The pushed-right word x^head y^e1 x^a1 ... of a Britton form key."""
    head, tail = key
    w = generator(0, head)
    for e, a in tail:
        w = w * generator(1, e) * generator(0, a)
    return w


def reduced_ball(cap):
    """All freely reduced letter tuples of length <= cap."""
    words = [()]
    frontier = [()]
    for _ in range(cap):
        nxt = []
        for w in frontier:
            for l in LETTERS:
                if w and w[-1][0] == l[0] and w[-1][1] == -l[1]:
                    continue
                nxt.append(w + (l,))
        words.extend(nxt)
        frontier = nxt
    return words


def free_reduce_tuple(w):
    out = []
    for l in w:
        if out and out[-1][0] == l[0] and out[-1][1] == -l[1]:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def test_britton_key_matches_rewriting_components():
    """Union-find over one-move rewriting edges inside a bounded ball.

    Soundness is exhaustive on the whole ball: words connected by relation
    moves must share a canonical key.  Completeness (equal keys imply
    connected) is exhaustive for short words; longer equal pairs can need
    intermediate words beyond the ball, so the bound keeps this honest.
    """
    cap = 10
    complete_len = 5
    words = reduced_ball(cap)
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for w, i in index.items():
        for nb in bs_neighbors(w, M, N, cap):
            j = index.get(free_reduce_tuple(nb))
            if j is not None:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    keys = [bs.britton_reduce(Word(w), M, N) for w in words]
    comp_key = {}
    for i, w in enumerate(words):
        root = find(i)
        assert comp_key.setdefault(root, keys[i]) == keys[i], w
    key_comp = {}
    for i, w in enumerate(words):
        if len(w) > complete_len:
            continue
        root = find(i)
        assert key_comp.setdefault(keys[i], root) == root, w


def affine(w):
    """The standard affine model: x acts as t+1, y scales by 2/3.

    A homomorphism of BS(2,3) into Aff(Q), so equal words must agree here.
    """
    table = {(0, 1): (Fraction(1), Fraction(1)),
             (0, -1): (Fraction(1), Fraction(-1)),
             (1, 1): (Fraction(2, 3), Fraction(0)),
             (1, -1): (Fraction(3, 2), Fraction(0))}
    p, q = Fraction(1), Fraction(0)
    for letter in w:
        lp, lq = table[letter]
        p, q = p * lp, p * lq + q
    return p, q


def test_affine_model_is_a_homomorphism():
    rel = invert(Y) * X ** 2 * Y * X ** -3
    assert affine(rel.letters) == (Fraction(1), Fraction(0))


def test_britton_form_preserves_the_affine_image():
    # the canonical word of each form must represent the same group element
    for w in reduced_ball(8):
        form = bs.britton_reduce(Word(w), M, N)
        assert affine(form_word(form).letters) == affine(w), w


def test_equal_keys_imply_equal_affine_images():
    by_key = {}
    for w in reduced_ball(8):
        key = bs.britton_reduce(Word(w), M, N)
        image = affine(w)
        assert by_key.setdefault(key, image) == image, w


def test_britton_fixtures():
    assert bs.britton_reduce(invert(Y) * X ** 2 * Y, M, N) == (3, ())
    assert bs.britton_reduce(invert(Y) * X * Y, M, N) == (0, ((-1, 1), (1, 0)))
    assert bs.britton_reduce(Word(()), M, N) == bs.IDENTITY


def test_britton_word_roundtrip():
    for w in reduced_ball(6):
        form = bs.britton_reduce(Word(w), M, N)
        assert bs.britton_reduce(form_word(form), M, N) == form


def test_bs_equal_and_powers():
    z = invert(Y) * X * Y
    assert bs.britton_reduce(z ** 2 * invert(X ** 3), M, N) == bs.IDENTITY
    assert bs.britton_reduce(z * invert(X), M, N) != bs.IDENTITY
    for k in range(1, 101):
        assert bs.britton_reduce(X ** k, M, N) != bs.IDENTITY
        assert bs.britton_reduce(Y ** k, M, N) != bs.IDENTITY


def test_power_of_x_in():
    assert bs.power_of_x_in(X ** 6, 2, M, N)
    assert not bs.power_of_x_in(X ** 6, 4, M, N)
    assert bs.power_of_x_in(invert(Y) * X ** 2 * Y, 3, M, N)
    assert not bs.power_of_x_in(invert(Y) * X * Y, 1, M, N)


def test_power_conjugate_fixtures():
    assert bs.power_conjugate(Y, 10, M, N) == (2, 3)
    assert bs.power_conjugate(invert(Y), 10, M, N) == (3, 2)
    assert bs.power_conjugate(Y ** 2, 10, M, N) == (4, 9)
    assert bs.power_conjugate(X, 10, M, N) == (1, 1)
    assert bs.power_conjugate(Y, 1, M, N) is None


def test_power_conjugate_is_verified_by_reduction():
    for g in (Y, invert(Y), Y ** 2, X * Y, Y * X ** 2):
        got = bs.power_conjugate(g, 30, M, N)
        assert got is not None
        a, b = got
        assert bs.britton_reduce(invert(g) * X ** a * g * invert(X ** b), M, N) == bs.IDENTITY


def test_family_axiom_check_single_x():
    report = bs.family_axiom_check([X], 4, 1, M, N)
    assert report["all_pass"] is True
    assert report["closure_pass"] is True and report["directed_pass"] is True


def test_family_axiom_check_y_pair():
    report = bs.family_axiom_check([Y, invert(Y)], 12, 1, M, N)
    assert report["all_pass"] is True
    assert report["nodes"] > 0
    for entry in report["closure"]:
        assert entry["witness"] is not None
    for entry in report["directed"]:
        assert entry["witness"] is not None
        a1, w1 = entry["pair"]
        assert 0 <= a1 <= w1 < report["nodes"]


def test_family_axiom_check_is_json_safe():
    import json
    json.dumps(bs.family_axiom_check([Y], 3, 1, M, N))


def test_naive_equal_spot_checks():
    assert bs_naive_equal(X ** 2 * Y, Y * X ** 3, len_slack=2) is True
    assert bs_naive_equal(invert(Y) * X ** 2 * Y, X ** 3, len_slack=2) is True
    assert bs_naive_equal(X, X) is True
    assert bs_naive_equal(X, Y) is False
    assert bs_naive_equal(X ** 2 * Y, Y * X ** 3, max_states=2) == "unknown"


def test_naive_equal_agrees_with_britton_on_short_words():
    for w in reduced_ball(3):
        u = Word(w)
        reduced = form_word(bs.britton_reduce(u, M, N))
        assert bs_naive_equal(u, reduced, len_slack=2) is True


def test_reducer_rejects_bad_input():
    with pytest.raises(ValueError):
        bs.britton_reduce(generator(2), M, N)
    with pytest.raises(ValueError):
        bs.britton_reduce(X, 0, N)


# -- the power-family check against the word-walking reference --------------


def reference_least_power(w, a, t_bound, m, n, step=1):
    """Least t in step, 2 step, ... <= t_bound with w x^t w^-1 in <x^a>, or
    None, reducing the product word each step."""
    wi = invert(w)
    for t in range(step, t_bound + 1, step):
        head, tail = bs.britton_reduce(w * generator(0, t) * wi, m, n)
        if not tail and head % a == 0:
            return t
    return None


def reference_verify(w, a, e, m, n):
    head, tail = bs.britton_reduce(w * generator(0, e) * invert(w), m, n)
    return not tail and head % a == 0


def reference_conjugator_words(conjugators, conj_len, m, n):
    """Every product of at most conj_len conjugators, then deduplicated."""
    words = [Word()]
    frontier = [Word()]
    for _ in range(conj_len):
        frontier = [w * c for w in frontier for c in conjugators]
        words.extend(frontier)
    seen = {}
    for w in words:
        seen.setdefault(bs.britton_reduce(w, m, n), w)
    return list(seen.values())


def reference_family_axiom_check(conjugators, a_bound, conj_len, m, n):
    """The family check scanning both nodes of every pair from scratch."""
    conj_words = reference_conjugator_words(conjugators, conj_len, m, n)
    nodes = [(a, w) for a in range(1, a_bound + 1) for w in conj_words]
    t_bound = max(m, n) ** (conj_len + 1) * a_bound * 2
    closure, closure_pass = [], True
    for a, w in nodes:
        for c in conjugators:
            wc = w * c
            j = reference_least_power(wc, a, t_bound, m, n)
            closure.append({"power": a, "conjugator_len": len(wc), "witness": j,
                            "in_truncation": j is not None and j <= a_bound})
            closure_pass = closure_pass and j is not None
    directed, directed_pass = [], True
    for idx1 in range(len(nodes)):
        for idx2 in range(idx1, len(nodes)):
            a1, w1 = nodes[idx1]
            a2, w2 = nodes[idx2]
            t1 = reference_least_power(w1, a1, t_bound, m, n)
            t2 = reference_least_power(w2, a2, t_bound, m, n)
            if t1 is None or t2 is None:
                directed_pass = False
                directed.append({"pair": (idx1, idx2), "witness": None})
                continue
            e = t1 * t2 // gcd(t1, t2)
            ok = reference_verify(w1, a1, e, m, n) and reference_verify(w2, a2, e, m, n)
            directed_pass = directed_pass and ok
            directed.append({"pair": (idx1, idx2), "witness": e if ok else None})
    return {"nodes": len(nodes), "closure": closure, "closure_pass": closure_pass,
            "directed": directed, "directed_pass": directed_pass,
            "all_pass": closure_pass and directed_pass}


def random_reduced_word(rng, length):
    letters = []
    while len(letters) < length:
        letter = rng.choice(LETTERS)
        if letters and letters[-1] == (letter[0], -letter[1]):
            continue
        letters.append(letter)
    return Word(letters)


LATTICE_PARAMS = ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (2, 4), (3, 3), (4, 6))


def test_x_power_lattice_matches_the_word_reference():
    # y^-1 x^2 y = x^3, so y^-1 x^t y = x^(3t/2) exactly when 2 | t
    assert bs.x_power_lattice(invert(Y), M, N) == (2, 3)
    assert bs.x_power_lattice(Y ** 2 * X * invert(Y), M, N) == (6, 4)
    assert bs.x_power_lattice(X ** 5, M, N) == (1, 1)
    rng = random.Random(13)
    for m, n in LATTICE_PARAMS:
        for _ in range(15):
            w = random_reduced_word(rng, rng.randint(0, 6))
            l, q = bs.x_power_lattice(w, m, n)
            for t in range(1, 25):
                head, tail = bs.britton_reduce(w * generator(0, t) * invert(w), m, n)
                assert (not tail) == (t % l == 0), (w, m, n, t)
                if t % l == 0:
                    assert head == q * t // l, (w, m, n, t)


def test_least_power_matches_the_word_reference():
    lattice = bs.x_power_lattice(invert(Y), M, N)
    assert bs.least_power(lattice, 1) == 2
    assert bs.least_power(lattice, 1, step=3) == 6
    assert bs.least_power(lattice, 9) == 6
    rng = random.Random(11)
    bound = 40
    found = beyond = 0
    for m, n in LATTICE_PARAMS:
        for _ in range(30):
            w = random_reduced_word(rng, rng.randint(0, 10))
            k = rng.randint(1, 6)
            step = rng.randint(1, 3)
            got = bs.least_power(bs.x_power_lattice(w, m, n), k, step=step)
            expected = reference_least_power(w, k, bound, m, n, step=step)
            # the scan answers up to its bound; past it, the least power is larger
            assert got == expected if expected is not None else got > bound, (w, k, m, n, step)
            found += expected is not None
            beyond += expected is None
    assert found and beyond


def test_least_power_past_the_old_scan_cap():
    # bs(2,3): a word whose least power is far past 10,000; it is least
    # because it works and t/p fails for each prime p dividing t
    w = Y ** 3 * X * invert(Y) * X * Y ** 4 * X ** -1 * invert(Y) ** 2 * X * Y ** 3
    k = 10
    t = bs.least_power(bs.x_power_lattice(w, M, N), k)
    assert t > 10_000

    def works(t):
        return bs._conjugates_into(bs._conjugation_state(w, M, N), t, k, M, N)

    primes = [p for p in range(2, 8) if t % p == 0]
    assert len(primes) >= 2
    rest = t
    for p in primes:
        while rest % p == 0:
            rest //= p
    assert rest == 1  # t has no prime factor past 7
    assert works(t)
    assert not any(works(t // p) for p in primes)


def test_swapped_lattice_fails_the_family_check(monkeypatch):
    real = bs.x_power_lattice

    def swapped(w, m, n):
        return real(Word([(i, -s) if i == 1 else (i, s) for i, s in w.letters]), m, n)

    monkeypatch.setattr(bs, "x_power_lattice", swapped)
    report = bs.family_axiom_check([Y, invert(Y)], 6, 1, M, N)
    assert report["all_pass"] is False


@pytest.mark.parametrize("conj_len, bounds", [(1, (4, 6, 8, 10, 12)), (2, (4, 8, 12))])
def test_family_axiom_check_matches_the_word_reference(conj_len, bounds):
    conjugators = [Y, invert(Y)]
    for a_bound in bounds:
        assert bs.family_axiom_check(conjugators, a_bound, conj_len, M, N) \
            == reference_family_axiom_check(conjugators, a_bound, conj_len, M, N), a_bound


def test_family_axiom_check_matches_the_word_reference_on_other_conjugators():
    for conjugators in ([X, Y], [Y, X * Y * invert(X)]):
        assert bs.family_axiom_check(conjugators, 4, 2, M, N) \
            == reference_family_axiom_check(conjugators, 4, 2, M, N)


def test_each_directed_recheck_runs_once_per_node_and_power(monkeypatch):
    # bs verify --bound 12 --conj-len 2: 120 closure re-checks, and 1,064
    # directed ones, one per (node, e) that some pair asks for, of 3,660 asks
    calls = []
    real = bs._conjugates_into
    monkeypatch.setattr(bs, "_conjugates_into", lambda *a: calls.append(a) or real(*a))
    report = bs.family_axiom_check([Y, invert(Y)], 12, 2, M, N)
    assert report["all_pass"] is True
    assert (len(report["closure"]), len(calls)) == (120, 1184)


def test_each_word_lattice_is_read_once(monkeypatch):
    # bs verify --bound 12 --conj-len 2: 5 conjugator words and 10 products
    # w c, 7 distinct words among them, where reading per power took 180
    words = []
    real = bs.x_power_lattice
    monkeypatch.setattr(bs, "x_power_lattice", lambda w, m, n: words.append(w) or real(w, m, n))
    assert bs.family_axiom_check([Y, invert(Y)], 12, 2, M, N)["all_pass"] is True
    assert len(words) == len(set(words)) == 7


def test_syllable_reduction_equals_britton_reduce():
    rng = random.Random(5)
    balls = reduced_ball(6)
    for m, n in ((2, 3), (2, 3), (1, 2), (3, 2), (2, 4)):
        for _ in range(100):
            w = Word(rng.choice(balls))
            t = rng.randint(-40, 40)
            key = bs.resume(bs.push_x(bs.resume(bs.IDENTITY, w.letters, m, n), t),
                            invert(w).letters, m, n)
            assert key == bs.britton_reduce(w * generator(0, t) * invert(w), m, n), (w, t)


def test_conjugates_into_from_a_kept_state_matches_the_whole_reduction():
    # one state per conjugator word, shared by every check of its nodes, as
    # the directed re-check keeps it; each check against britton_reduce of
    # the whole word w x^t w^-1
    rng = random.Random(18)
    balls = reduced_ball(6)
    verdicts = set()
    for m, n in ((2, 3), (1, 2), (3, 2), (2, 4)):
        for _ in range(40):
            w = Word(rng.choice(balls))
            state = bs._conjugation_state(w, m, n)
            for _ in range(5):
                t, k = rng.choice((1, 6, 12, 36)) * rng.randint(-6, 6), rng.randint(1, 4)
                head, tail = bs.britton_reduce(w * generator(0, t) * invert(w), m, n)
                expected = not tail and head % k == 0
                assert bs._conjugates_into(state, t, k, m, n) == expected, (w, t, k, m, n)
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_feed_accepts_unreduced_letters():
    rng = random.Random(3)
    for m, n in ((1, 2), (2, 3), (3, 2), (2, 4), (3, 3)):
        for w in reduced_ball(4):
            letters = list(w + tuple((i, -s) for i, s in reversed(w)) + w)
            # and one more cancelling pair at a random place
            i, s = rng.choice(LETTERS)
            at = rng.randint(0, len(letters))
            letters[at:at] = [(i, s), (i, -s)]
            key = bs.resume(bs.IDENTITY, letters, m, n)
            assert key == bs.britton_reduce(free_reduce(letters), m, n), (w, m, n)


def test_corrupted_push_x_fails_the_family_check(monkeypatch):
    assert bs.family_axiom_check([Y, invert(Y)], 6, 1, M, N)["all_pass"] is True
    push_x = bs.push_x
    # a syllable x^t with t >= 2 lands one letter too far
    monkeypatch.setattr(bs, "push_x", lambda key, e: push_x(key, e + 1 if e >= 2 else e))
    report = bs.family_axiom_check([Y, invert(Y)], 6, 1, M, N)
    assert report["all_pass"] is False


@pytest.mark.parametrize("conjugators", [[Y, invert(Y)], [X, Y], [Y, X * Y * invert(X)]])
def test_conjugator_words_match_the_full_enumeration(conjugators):
    for conj_len in range(5):
        assert bs.conjugator_words(conjugators, conj_len, M, N) \
            == reference_conjugator_words(conjugators, conj_len, M, N)


def test_conjugator_words_never_build_every_product(monkeypatch):
    # y^k for |k| <= 40: 81 elements out of 2^41 - 1 products
    products = []
    mul = Word.__mul__

    def counting(self, other):
        products.append(None)
        return mul(self, other)

    monkeypatch.setattr(Word, "__mul__", counting)
    words = bs.conjugator_words([Y, invert(Y)], 40, M, N)
    assert len(words) == 81
    assert set(words) == {generator(1, k) for k in range(-40, 41)}
    # keys step by resume, and a product is built only for a new element:
    # one per element besides the empty word
    assert len(products) == 80
