"""Prime-field linear algebra against brute-force span enumeration and
against the dense reference in ``dense_modp``.  Inputs are built dense, as
the reference reads them, and passed to ``modp`` through ``modp.sparse``;
its sparse results are compared through ``dense_modp.dense``."""

import itertools
import random
from math import isqrt

import pytest

import dense_modp as ref
from nearnormal import modp


def all_vectors(n, p):
    return list(itertools.product(range(p), repeat=n))


def brute_span(rows, n, p):
    """Every F_p-combination of the rows, enumerated directly."""
    span = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        v = ref.zero_vector(n)
        for c, row in zip(coeffs, rows):
            v = ref.vec_add(v, ref.vec_scale(row, c, p), p)
        span.add(v)
    return span


def random_matrix(rng, rows, cols, p):
    return tuple(tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows))


def sp(m, p):
    return modp.sparse(m, p)


def assert_canonical(rows, p):
    """Every row is a sparse row: columns strictly ascending, values in [1, p)."""
    for row in rows:
        assert all(0 <= j < k for (j, _), (k, _) in zip(row, row[1:])), row
        assert all(isinstance(j, int) and j >= 0 and 1 <= a < p for j, a in row), row


CASES = [(2, 3, 3), (3, 2, 3), (3, 3, 2), (2, 4, 2), (4, 3, 5)]


@pytest.mark.parametrize("nrows,ncols,p", CASES)
def test_rank_counts_the_span(nrows, ncols, p):
    rng = random.Random(nrows * 100 + ncols * 10 + p)
    for _ in range(20):
        m = random_matrix(rng, nrows, ncols, p)
        assert p ** len(modp.row_space(sp(m, p), p)) == len(brute_span(m, ncols, p))


@pytest.mark.parametrize("nrows,ncols,p", CASES)
def test_in_span_matches_enumeration(nrows, ncols, p):
    rng = random.Random(nrows + ncols + p)
    for _ in range(10):
        m = random_matrix(rng, nrows, ncols, p)
        span = brute_span(m, ncols, p)
        for v in all_vectors(ncols, p):
            assert modp.span_contains(sp(m, p), sp([v], p), p) == (v in span)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_span_contains_matches_per_vector_checks(p):
    rng = random.Random(p)
    for _ in range(40):
        basis = random_matrix(rng, rng.randrange(4), 3, p)
        span = brute_span(basis, 3, p)
        vectors = random_matrix(rng, rng.randrange(4), 3, p)
        expected = all(v in span for v in vectors)
        assert modp.span_contains(sp(basis, p), sp(vectors, p), p) == expected
        assert all(modp.span_contains(sp(basis, p), sp([v], p), p)
                   for v in vectors) == expected


def test_is_prime():
    assert [n for n in range(-2, 30) if modp.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_agrees_with_trial_division_below_1e5():
    def by_trial_division(p):
        return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))

    assert all(modp.is_prime(p) == by_trial_division(p) for p in range(10 ** 5))


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to base 2; to 2, 3, 5, 7; and to every prime up to
    # 31, which base 37 alone exposes
    for n in (2047, 3215031751, 3825123056546413051):
        assert modp.is_prime(n) is False, n
    assert modp.is_prime(2 ** 61 - 1) is True
    assert modp.is_prime(10 ** 14 + 31) is True


def test_is_prime_refuses_p_past_its_limit():
    # the limit passes all twelve witnesses, yet it is composite
    assert modp.PRIME_LIMIT == 399165290221 * 798330580441
    with pytest.raises(ValueError, match="primality is decided only below"):
        modp.is_prime(modp.PRIME_LIMIT)


def test_rref_is_canonical_for_the_row_space():
    rng = random.Random(5)
    for _ in range(30):
        m = random_matrix(rng, 3, 4, 3)
        rows = list(m)
        rng.shuffle(rows)
        # adding a row already in the span must not change the rref
        extra = rows + [ref.vec_add(m[0], m[1], 3)]
        assert modp.rref(sp(m, 3), 3)[0] == modp.rref(sp(extra, 3), 3)[0]


def test_row_space_rows_are_in_the_span():
    rng = random.Random(6)
    m = random_matrix(rng, 3, 4, 5)
    span = brute_span(m, 4, 5)
    for row in ref.dense(modp.row_space(sp(m, 5), 5), 4):
        assert row in span


@pytest.mark.parametrize("p", [2, 3])
def test_left_nullspace_annihilates(p):
    rng = random.Random(p)
    for _ in range(20):
        m = random_matrix(rng, 3, 3, p)
        basis = modp.left_nullspace(sp(m, p), p)
        for v in ref.dense(basis, 3):
            assert ref.vec_mat(v, m, p) == ref.zero_vector(3)
        for v in basis:
            assert modp.vec_mat(v, sp(m, p), p) == ()
        # rank-nullity on the left
        assert len(basis) == 3 - len(modp.row_space(sp(m, p), p))


def test_solve_linear_combination_roundtrip():
    rng = random.Random(9)
    p = 3
    basis = ((1, 0, 2), (0, 1, 1))
    for _ in range(20):
        coeffs = (rng.randrange(p), rng.randrange(p))
        v = ref.zero_vector(3)
        for c, row in zip(coeffs, basis):
            v = ref.vec_add(v, ref.vec_scale(row, c, p), p)
        [got] = modp.coordinates(sp(basis, p), sp([v], p), p)
        assert got is not None
        rebuilt = ref.zero_vector(3)
        for c, row in zip(ref.dense([got], 2)[0], basis):
            rebuilt = ref.vec_add(rebuilt, ref.vec_scale(row, c, p), p)
        assert rebuilt == v
    assert modp.coordinates(sp(basis, p), sp([(0, 0, 1)], p), p) == [None]
    assert modp.coordinates((), sp([(0, 0, 0), (1, 0, 0)], p), p) == [(), None]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coordinates_match_the_column_solve(p):
    rng = random.Random(p)
    for _ in range(30):
        n, k = rng.randint(1, 7), rng.randint(0, 5)
        basis = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(k))
        basis = tuple(v for v in basis if any(v))
        if len(modp.row_space(sp(basis, p), p)) < len(basis):
            continue  # the coefficients are unique only for an independent basis
        vectors = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(4)]
        vectors += [ref.vec_mod([sum(rng.randrange(p) * v[j] for v in basis)
                                 for j in range(n)], p) for _ in range(4)]
        got = modp.coordinates(sp(basis, p), sp(vectors, p), p)
        assert_canonical([c for c in got if c is not None], p)
        assert [c if c is None else ref.dense([c], len(basis))[0] for c in got] == [
            ref.solve_linear_combination(basis, v, p) for v in vectors]


def test_mat_inverse():
    p = 5
    m = modp.sparse(((1, 2), (3, 4)), p)
    inv = modp.mat_inverse(m, p)
    assert modp.mat_mul(m, inv, p) == modp.identity_matrix(2)
    assert modp.mat_mul(inv, m, p) == modp.identity_matrix(2)
    assert modp.mat_inverse(modp.sparse(((1, 1), (1, 1)), p), p) is None
    assert modp.mat_inverse((), p) == ()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mat_inverse_on_seeded_matrices(p):
    rng = random.Random(31 + p)
    singular = 0
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, p)
        inv = modp.mat_inverse(modp.sparse(m, p), p)
        if len(modp.row_space(sp(m, p), p)) < n:
            singular += 1
            assert inv is None, m
        else:
            m = modp.sparse(m, p)
            assert modp.mat_mul(m, inv, p) == modp.identity_matrix(n), m
            assert modp.mat_mul(inv, m, p) == modp.identity_matrix(n), m
    assert singular


def test_fixed_space():
    p = 2
    swap = modp.sparse(((0, 1), (1, 0)), p)
    fixed = modp.fixed_space([swap], p, 2)
    assert modp.rref(fixed, p)[0] == modp.rref(sp(((1, 1),), p), p)[0]
    # identity fixes everything, and so does an empty set of matrices
    assert len(modp.fixed_space([modp.identity_matrix(3)], p, 3)) == 3
    assert ref.dense(modp.fixed_space([], p, 2), 2) == ((1, 0), (0, 1))


def test_fixed_space_members_are_fixed():
    rng = random.Random(13)
    p = 3
    mats = []
    while len(mats) < 2:
        m = modp.sparse(random_matrix(rng, 3, 3, p), p)
        if modp.mat_inverse(m, p) is not None:
            mats.append(m)
    for v in modp.fixed_space(mats, p, 3):
        for m in mats:
            assert modp.vec_mat(v, m, p) == v


# --- the sparse-row algebra against the dense reference ----------------------

PRIMES = [2, 3, 5, 7]


def seeded_matrices(p):
    """Dense matrices of every kind an elimination meets: empty, rows with no
    columns, all zero, full rank, rank deficient, fully dense, sparse, and
    entries outside [0, p)."""
    rng = random.Random(1000 + p)
    out = [(), ((),) * 3, ((0,),), ((0, 0, 0),) * 4]
    for _ in range(30):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        out.append(random_matrix(rng, r, c, p))
        out.append(tuple(tuple(rng.randrange(1, p) if p > 2 else 1 for _ in range(c))
                         for _ in range(r)))
        out.append(tuple(tuple(rng.randrange(1, p) if rng.random() < 0.2 else 0
                               for _ in range(c)) for _ in range(r)))
        out.append(tuple(tuple(rng.randrange(-2 * p, 2 * p) for _ in range(c))
                         for _ in range(r)))
        k = rng.randint(1, min(r, c))
        out.append(ref.mat_mul(random_matrix(rng, r, k, p), random_matrix(rng, k, c, p), p))
        n = rng.randint(1, 6)
        while True:
            m = random_matrix(rng, n, n, p)
            if ref.rank(m, p) == n:
                out.append(m)
                break
    return out


def square(mats):
    return [m for m in mats if m and len(m) == len(m[0])]


def test_seeded_matrices_cover_every_rank_kind():
    kinds = set()
    for p in PRIMES:
        for m in square(seeded_matrices(p)):
            r = ref.rank(m, p)
            kinds.add("zero" if r == 0 else "full" if r == len(m) else "deficient")
            if all(a % p for row in m for a in row):
                kinds.add("dense")
    assert kinds == {"zero", "full", "deficient", "dense"}


@pytest.mark.parametrize("p", PRIMES)
def test_rref_matches_the_dense_reference(p):
    for m in seeded_matrices(p):
        rows, pivots = modp.rref(sp(m, p), p)
        assert (ref.dense(rows, len(m[0]) if m else 0), pivots) == ref.rref(m, p), m
        assert len(modp.row_space(sp(m, p), p)) == ref.rank(m, p)
        basis = modp.left_nullspace(sp(m, p), p)
        assert ref.dense(basis, len(m)) == ref.left_nullspace(m, p), m
        assert_canonical(rows + basis, p)


@pytest.mark.parametrize("p", PRIMES)
def test_products_match_the_dense_reference(p):
    rng = random.Random(p)
    mats = square(seeded_matrices(p))
    for a in mats:
        n = len(a)
        b = random_matrix(rng, n, n, p)
        sa, sb = modp.sparse(a, p), modp.sparse(b, p)
        assert ref.dense(sa, n) == tuple(ref.vec_mod(row, p) for row in a)
        product = modp.mat_mul(sa, sb, p)
        assert ref.dense(product, n) == ref.mat_mul(a, b, p)
        v = tuple(rng.randrange(p) for _ in range(n))
        image = modp.vec_mat(sp([v], p)[0], sa, p)
        assert ref.dense([image], n)[0] == ref.vec_mat(v, a, p)
        assert_canonical(sa + product + (image,), p)


@pytest.mark.parametrize("p", PRIMES)
def test_mat_inverse_matches_the_dense_reference(p):
    singular = invertible = 0
    for m in square(seeded_matrices(p)):
        got, want = modp.mat_inverse(modp.sparse(m, p), p), ref.mat_inverse(m, p)
        if want is None:
            singular += 1
            assert got is None, m
        else:
            invertible += 1
            assert ref.dense(got, len(m)) == want, m
            assert_canonical(got, p)
    assert singular and invertible


@pytest.mark.parametrize("p", PRIMES)
def test_fixed_space_matches_the_dense_reference(p):
    rng = random.Random(50 + p)
    by_size = {}
    for m in square(seeded_matrices(p)):
        by_size.setdefault(len(m), []).append(m)
    for n, mats in sorted(by_size.items()):
        for _ in range(10):
            chosen = [rng.choice(mats) for _ in range(rng.randint(1, 3))]
            got = modp.fixed_space([sp(m, p) for m in chosen], p, n)
            assert ref.dense(got, n) == ref.fixed_space(chosen, p), chosen
            assert_canonical(got, p)
        identity = ref.identity_matrix(n)
        assert ref.dense(modp.fixed_space([modp.identity_matrix(n)], p, n), n) == identity
        assert ref.dense(modp.fixed_space([], p, n), n) == ref.fixed_space([], p, dim=n)


@pytest.mark.parametrize("p", PRIMES)
def test_span_contains_matches_the_dense_reference(p):
    rng = random.Random(70 + p)
    verdicts = set()
    for basis in seeded_matrices(p):
        if not basis or not basis[0]:
            continue
        c = len(basis[0])
        inside = [ref.vec_mat(random_matrix(rng, 1, len(basis), p)[0], basis, p)
                  for _ in range(3)]
        for vectors in (inside, inside + [tuple(rng.randrange(p) for _ in range(c))], []):
            got = modp.span_contains(sp(basis, p), sp(vectors, p), p)
            assert got == ref.span_contains(basis, vectors, p), (basis, vectors)
            verdicts.add(got)
    assert verdicts == {True, False}


# --- entries that cancel to 0 mod p never become pivots ----------------------

def cancelling_matrices(p):
    """3 x 3 matrices whose columns cancel to 0 mod p: the identity, whose
    M - I is zero, and matrices with 1s on the diagonal and columns of M or
    of M - I that sum to p, so that M - I, the columns and the eliminations
    all meet entries that are 0 mod p."""
    return [
        ref.identity_matrix(3),
        ((1, 0, 0), (p - 1, 1, 0), (1, 0, 1)),
        ((1, 1, 0), (p - 1, p - 1, 1), (0, 0, 1)),
        ((2, 1, p - 1), (p - 2, 1, 1), (0, p - 2, 1)),
    ]


@pytest.mark.parametrize("p", [3, 5])
def test_cancelling_columns_match_the_dense_reference(p):
    for m in cancelling_matrices(p):
        m = tuple(ref.vec_mod(row, p) for row in m)
        fixed = modp.fixed_space([sp(m, p)], p, 3)
        assert ref.dense(fixed, 3) == ref.fixed_space([m], p), m
        null = modp.left_nullspace(sp(m, p), p)
        assert ref.dense(null, 3) == ref.left_nullspace(m, p), m
        # the rows of m, their sum (0 where a column sums to p) and e_0
        total = ref.vec_mod([sum(col) for col in zip(*m)], p)
        vectors = list(m) + [total, (1, 0, 0)]
        assert modp.span_contains(sp(m, p), sp(vectors, p), p) == ref.span_contains(
            m, vectors, p), m
        basis = ref.rref(m, p)[0]
        got = modp.coordinates(sp(basis, p), sp(vectors, p), p)
        assert [c if c is None else ref.dense([c], len(basis))[0] for c in got] == [
            ref.solve_linear_combination(basis, v, p) for v in vectors], m
        assert_canonical(fixed + null + tuple(c for c in got if c is not None), p)


# --- products and canonical rows ---------------------------------------------

def permutation(perm):
    return tuple(tuple(int(j == perm[i]) for j in range(len(perm))) for i in range(len(perm)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_products_of_one_entry_and_dense_rows(p):
    rng = random.Random(90 + p)
    n = 6
    perm = permutation([3, 0, 5, 1, 2, 4])
    scaled = tuple(tuple(a * rng.randrange(1, p) if p > 2 else a for a in row)
                   for row in permutation([1, 2, 0, 5, 4, 3]))
    dense = random_matrix(rng, n, n, p)
    mixed = tuple(perm[i] if i % 2 else dense[i] for i in range(n))
    factors = [perm, scaled, ref.identity_matrix(n), dense, mixed,
               tuple(ref.vec_scale(row, p - 1, p) for row in mixed)]
    for a in factors:
        for b in factors:
            product = modp.mat_mul(sp(a, p), sp(b, p), p)
            assert ref.dense(product, n) == ref.mat_mul(a, b, p), (a, b)
            assert_canonical(product, p)
    assert modp.mat_mul(modp.identity_matrix(n), sp(dense, p), p) == sp(dense, p)
    assert modp.mat_mul(sp(dense, p), modp.identity_matrix(n), p) == sp(dense, p)


@pytest.mark.parametrize("p", PRIMES)
def test_every_result_is_canonical(p):
    rng = random.Random(110 + p)
    for m in square(seeded_matrices(p)):
        n = len(m)
        s = sp(m, p)
        vectors = sp(random_matrix(rng, 3, n, p), p)
        basis = modp.row_space(s, p)
        results = [s, modp.identity_matrix(n), modp.rref(s, p)[0], basis,
                   modp.left_nullspace(s, p), modp.fixed_space([s], p, n),
                   modp.mat_mul(s, s, p), [modp.vec_mat(v, s, p) for v in vectors],
                   [c for c in modp.coordinates(basis, vectors, p) if c is not None],
                   [modp.canonical_row({j: a - p for j, a in v}, p) for v in vectors]]
        inverse = modp.mat_inverse(s, p)
        if inverse is not None:
            results.append(inverse)
        for rows in results:
            assert_canonical(rows, p)
