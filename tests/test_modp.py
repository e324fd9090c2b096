"""Prime-field linear algebra against brute-force span enumeration."""

import itertools
import random

import pytest

from nearnormal import modp


def all_vectors(n, p):
    return list(itertools.product(range(p), repeat=n))


def brute_span(rows, n, p):
    """Every F_p-combination of the rows, enumerated directly."""
    span = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        v = modp.zero_vector(n)
        for c, row in zip(coeffs, rows):
            v = modp.vec_add(v, modp.vec_scale(row, c, p), p)
        span.add(v)
    return span


def random_matrix(rng, rows, cols, p):
    return tuple(tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows))


CASES = [(2, 3, 3), (3, 2, 3), (3, 3, 2), (2, 4, 2), (4, 3, 5)]


@pytest.mark.parametrize("nrows,ncols,p", CASES)
def test_rank_counts_the_span(nrows, ncols, p):
    rng = random.Random(nrows * 100 + ncols * 10 + p)
    for _ in range(20):
        m = random_matrix(rng, nrows, ncols, p)
        assert p ** modp.rank(m, p) == len(brute_span(m, ncols, p))


@pytest.mark.parametrize("nrows,ncols,p", CASES)
def test_in_span_matches_enumeration(nrows, ncols, p):
    rng = random.Random(nrows + ncols + p)
    for _ in range(10):
        m = random_matrix(rng, nrows, ncols, p)
        span = brute_span(m, ncols, p)
        for v in all_vectors(ncols, p):
            assert modp.in_span(m, v, p) == (v in span)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_span_contains_matches_per_vector_checks(p):
    rng = random.Random(p)
    for _ in range(40):
        basis = random_matrix(rng, rng.randrange(4), 3, p)
        span = brute_span(basis, 3, p)
        vectors = random_matrix(rng, rng.randrange(4), 3, p)
        expected = all(v in span for v in vectors)
        assert modp.span_contains(basis, vectors, p) == expected
        assert all(modp.in_span(basis, v, p) for v in vectors) == expected


def test_is_prime():
    assert [n for n in range(-2, 30) if modp.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_rref_is_canonical_for_the_row_space():
    rng = random.Random(5)
    for _ in range(30):
        m = random_matrix(rng, 3, 4, 3)
        rows = list(m)
        rng.shuffle(rows)
        # adding a row already in the span must not change the rref
        extra = rows + [modp.vec_add(m[0], m[1], 3)]
        assert modp.rref(m, 3)[0] == modp.rref(extra, 3)[0]


def test_row_space_rows_are_in_the_span():
    rng = random.Random(6)
    m = random_matrix(rng, 3, 4, 5)
    span = brute_span(m, 4, 5)
    for row in modp.row_space(m, 5):
        assert row in span


@pytest.mark.parametrize("p", [2, 3])
def test_left_nullspace_annihilates(p):
    rng = random.Random(p)
    for _ in range(20):
        m = random_matrix(rng, 3, 3, p)
        basis = modp.left_nullspace(m, p)
        for v in basis:
            assert modp.vec_mat(v, m, p) == modp.zero_vector(3)
        # rank-nullity on the left
        assert len(basis) == 3 - modp.rank(m, p)


def test_right_nullspace_of_rows():
    rows = ((1, 0, 1), (0, 1, 1))
    basis = modp.right_nullspace_of_rows(rows, 2, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) % 2 == 0


def test_solve_linear_combination_roundtrip():
    rng = random.Random(9)
    p = 3
    basis = ((1, 0, 2), (0, 1, 1))
    for _ in range(20):
        coeffs = (rng.randrange(p), rng.randrange(p))
        v = modp.zero_vector(3)
        for c, row in zip(coeffs, basis):
            v = modp.vec_add(v, modp.vec_scale(row, c, p), p)
        got = modp.solve_linear_combination(basis, v, p)
        assert got is not None
        rebuilt = modp.zero_vector(3)
        for c, row in zip(got, basis):
            rebuilt = modp.vec_add(rebuilt, modp.vec_scale(row, c, p), p)
        assert rebuilt == v
    assert modp.solve_linear_combination(basis, (0, 0, 1), p) is None
    assert modp.solve_linear_combination((), (0, 0, 0), p) == ()
    assert modp.solve_linear_combination((), (1, 0, 0), p) is None


def test_mat_inverse():
    p = 5
    m = ((1, 2), (3, 4))
    inv = modp.mat_inverse(m, p)
    assert modp.mat_mul(m, inv, p) == modp.identity_matrix(2)
    assert modp.mat_mul(inv, m, p) == modp.identity_matrix(2)
    assert modp.mat_inverse(((1, 1), (1, 1)), p) is None
    assert modp.mat_inverse((), p) == ()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mat_inverse_on_seeded_matrices(p):
    rng = random.Random(31 + p)
    singular = 0
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, p)
        inv = modp.mat_inverse(m, p)
        if modp.rank(m, p) < n:
            singular += 1
            assert inv is None, m
        else:
            assert modp.mat_mul(m, inv, p) == modp.identity_matrix(n), m
            assert modp.mat_mul(inv, m, p) == modp.identity_matrix(n), m
    assert singular


def test_fixed_space():
    p = 2
    swap = ((0, 1), (1, 0))
    fixed = modp.fixed_space([swap], p)
    assert modp.rref(fixed, p)[0] == modp.rref(((1, 1),), p)[0]
    # identity fixes everything
    assert len(modp.fixed_space([modp.identity_matrix(3)], p)) == 3
    assert modp.fixed_space([], p, dim=2) == modp.identity_matrix(2)
    with pytest.raises(ValueError):
        modp.fixed_space([], p)


def test_fixed_space_members_are_fixed():
    rng = random.Random(13)
    p = 3
    mats = []
    while len(mats) < 2:
        m = random_matrix(rng, 3, 3, p)
        if modp.mat_inverse(m, p) is not None:
            mats.append(m)
    for v in modp.fixed_space(mats, p):
        for m in mats:
            assert modp.vec_mat(v, m, p) == v
