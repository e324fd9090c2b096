"""Free-reduction and word-syntax properties."""

import random

import pytest
from hypothesis import assume, given, strategies as st

from nearnormal.words import (
    Word, ball, free_reduce, free_step, invert, exponent_sum, exponent_vector,
    ball_tree, generator, parse_word, format_word,
)

letters = st.tuples(st.integers(min_value=0, max_value=5),
                    st.sampled_from((1, -1)))
raw_words = st.lists(letters, max_size=30)
words = raw_words.map(free_reduce)


def has_cancellation(w):
    return any(a[0] == b[0] and a[1] == -b[1]
               for a, b in zip(w.letters, w.letters[1:]))


@given(raw_words)
def test_reduction_is_idempotent_and_reduced(raw):
    w = free_reduce(raw)
    assert not has_cancellation(w)
    assert free_reduce(w.letters) == w


@given(words)
def test_inverse_cancels(w):
    assert w * invert(w) == Word(())
    assert invert(w) * w == Word(())
    assert invert(invert(w)) == w


@given(words, words, words)
def test_multiplication_is_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(words, words)
def test_inverse_antihomomorphism(u, v):
    assert invert(u * v) == invert(v) * invert(u)


@given(words, words, words)
def test_conjugation_composes(w, g, h):
    assert invert(h) * (invert(g) * w * g) * h == invert(g * h) * w * (g * h)


@given(words, words)
def test_exponent_sum_is_a_homomorphism(u, v):
    assert exponent_sum(u * v) == exponent_sum(u) + exponent_sum(v)
    assert exponent_sum(invert(u)) == -exponent_sum(u)


@given(words)
def test_exponent_vector_totals_match(w):
    vec = exponent_vector(w, 6)
    assert sum(vec) == exponent_sum(w)


def test_exponent_vector_range_check():
    with pytest.raises(ValueError):
        exponent_vector(generator(3), 2)


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=-5, max_value=5))
def test_generator_powers(i, e):
    w = generator(i, e)
    assert exponent_sum(w) == e
    assert len(w) == abs(e)


@given(words)
def test_parse_format_roundtrip(w):
    assume(w.letters)  # the empty word renders as "1", which is not an atom
    assert parse_word(format_word(w)) == w
    assert format_word(w) == format_word(parse_word(format_word(w)))


def test_parse_named_and_indexed():
    names = ("a", "b")
    assert parse_word("a b^-1", names) == generator(0) * generator(1, -1)
    assert parse_word("x1^2", names) == generator(1, 2)
    assert parse_word("") == Word(())
    assert format_word(Word(())) == "1"


def test_parse_rejects_bad_atoms():
    with pytest.raises(ValueError):
        parse_word("q", ("a",))
    with pytest.raises(ValueError):
        parse_word("a^", ("a",))
    with pytest.raises(ValueError):
        parse_word("a^0", ("a",))
    with pytest.raises(ValueError):
        parse_word("a^b", ("a",))


def test_letter_validation():
    with pytest.raises(ValueError):
        Word(((-1, 1),))
    with pytest.raises(ValueError):
        Word(((0, 2),))
    with pytest.raises(ValueError):
        generator(-1)
    with pytest.raises(ValueError):
        generator(-2, -3)


def test_products_and_powers_match_free_reduction():
    # products and powers cancel only at junctions; free reduction of the
    # concatenation is the reference
    rng = random.Random(14)

    def raw(size):
        return [(rng.randrange(3), rng.choice((1, -1))) for _ in range(size)]

    cancelled = set()
    for _ in range(400):
        u = free_reduce(raw(rng.randrange(10)))
        k = rng.randint(0, len(u))
        # v starts with the inverse of u's last k letters
        tail = u.letters[len(u) - k:]
        v = free_reduce([(i, -s) for i, s in reversed(tail)] + raw(rng.randrange(6)))
        product = u * v
        assert product == free_reduce(u.letters + v.letters), (u, v)
        lost = (len(u) + len(v) - len(product)) // 2
        cancelled.add("none" if lost == 0 else "all" if lost == len(u) else "some")
    assert cancelled == {"none", "some", "all"}

    conjugated = 0
    for _ in range(200):
        c = free_reduce(raw(rng.randrange(4)))
        core = free_reduce(raw(rng.randrange(1, 6)))
        w = free_reduce(c.letters + core.letters + invert(c).letters)
        conjugated += len(w) >= 2 and w.letters[0] == invert(w).letters[0]
        for n in range(-4, 5):
            base = w if n >= 0 else invert(w)
            assert w ** n == free_reduce(base.letters * abs(n)), (w, n)
    assert conjugated  # some w are not cyclically reduced


def test_ball_tree_reads_a_none_key_as_no_edge():
    # the path 0 - 1 - 2 as a partial table: +1 has no edge at 2, -1 none at 0
    steps = [lambda k: k + 1 if k < 2 else None, lambda k: k - 1 if k > 0 else None]
    table = []
    found = list(ball_tree(steps, 5, 0, table))
    assert [(r, parent, step, key) for r, parent, step, key in found] == [
        (0, None, None, 0), (1, 0, 0, 1), (2, 1, 0, 2)]
    assert table == [(1, None), (2, 0), (None, 1)]


def test_word_is_immutable_and_hashable():
    w = generator(0)
    with pytest.raises(AttributeError):
        w.letters = ()
    assert len({w, generator(0), generator(1)}) == 2


def test_ball_over_free_letters_is_the_nested_loop_order():
    steps = [generator(0), generator(0, -1), generator(1), generator(1, -1)]
    found = [(w, r) for w, r, _ in ball(steps, 3, (), [free_step(s) for s in steps])]
    # reference: level r extends each level r-1 word by every step that does
    # not cancel, in that nested-loop order
    levels = [[Word(())]]
    for _ in range(3):
        levels.append([Word(w.letters + s.letters) for w in levels[-1] for s in steps
                       if not w or w.letters[-1] != invert(s).letters[0]])
    assert [len(level) for level in levels] == [1, 4, 12, 36]
    assert found == [(w, r) for r, level in enumerate(levels) for w in level]
    # keyed by exponent sum, only the first word per sum is kept
    sums = [lambda e, d=exponent_sum(s): e + d for s in steps[:2]]
    assert list(ball(steps[:2], 2, 0, sums)) == [
        (Word(()), 0, 0), (generator(0), 1, 1), (generator(0, -1), 1, -1),
        (generator(0, 2), 2, 2), (generator(0, -2), 2, -2)]
