"""Integer lattice arithmetic against exact small-dimension oracles."""

import itertools
import random
from math import gcd

import pytest

from nearnormal import _intlinalg as intlin


def in_lattice_2d(rows, v):
    """Exact membership for a lattice spanned by two rows of Z^2 (Cramer)."""
    (a, b), (c, d) = rows
    det = a * d - b * c
    if det:
        n1 = v[0] * d - v[1] * c
        n2 = a * v[1] - b * v[0]
        return n1 % det == 0 and n2 % det == 0
    nz = [r for r in rows if any(r)]
    if not nz:
        return not any(v)
    r0 = nz[0]
    g0 = gcd(abs(r0[0]), abs(r0[1]))
    prim = (r0[0] // g0, r0[1] // g0)
    mult = 0
    for r in nz:
        t = r[0] // prim[0] if prim[0] else r[1] // prim[1]
        mult = gcd(mult, abs(t))
    tv = v[0] // prim[0] if prim[0] else v[1] // prim[1]
    return (tv * prim[0], tv * prim[1]) == tuple(v) and tv % mult == 0


def random_rows(rng, k, n, bound=3):
    return [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(k)]


def cofactor_det(m):
    """Determinant of a 3 x 3 integer matrix by cofactor expansion."""
    a, b, c = m
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def test_hnf_shape():
    h = intlin.hermite_normal_form([(2, 4), (0, 3)], 2)
    for row in h:
        p = intlin._pivot_col(row)
        assert row[p] > 0
    # staircase: pivot columns strictly increase
    pivots = [intlin._pivot_col(row) for row in h]
    assert pivots == sorted(set(pivots))


def test_hnf_is_a_lattice_invariant():
    rng = random.Random(3)
    for _ in range(25):
        rows = random_rows(rng, 3, 3)
        h1 = intlin.hermite_normal_form(rows, 3)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        # row operations preserve the lattice
        shuffled.append(tuple(a + b for a, b in zip(rows[0], rows[1])))
        h2 = intlin.hermite_normal_form(shuffled, 3)
        assert h1 == h2


def test_hnf_kernel_annihilates():
    rows = [(2, 0), (0, 2), (2, 2)]
    _, kernel = intlin.hnf_with_transform(rows, 2)
    assert kernel
    for coeffs in kernel:
        combo = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(2))
        assert combo == (0, 0)


def test_lattice_contains_matches_cramer():
    rng = random.Random(7)
    for _ in range(20):
        rows = random_rows(rng, 2, 2, bound=2)
        h = intlin.hermite_normal_form(rows, 2)
        for v in itertools.product(range(-5, 6), repeat=2):
            expected = in_lattice_2d(rows, v)
            got = intlin.lattice_contains(h, v) if h else v == (0, 0)
            assert got == expected, (rows, v)


def test_lattice_residue_is_canonical():
    h = intlin.hermite_normal_form([(2, 1), (0, 3)], 2)
    seen = set()
    for v in itertools.product(range(-6, 7), repeat=2):
        r = intlin.lattice_residue(h, v)
        diff = tuple(a - b for a, b in zip(v, r))
        assert intlin.lattice_contains(h, diff)
        seen.add(r)
    # six residue classes for a sublattice of index 6
    assert len(seen) == 6


def test_coords_in_roundtrip():
    h = intlin.hermite_normal_form([(2, 1, 0), (0, 3, 1)], 3)
    rng = random.Random(1)
    for _ in range(20):
        coeffs = [rng.randint(-4, 4) for _ in h]
        v = tuple(sum(c * row[j] for c, row in zip(coeffs, h)) for j in range(3))
        got = intlin.coords_in(h, v)
        assert got is not None
        rebuilt = tuple(sum(c * row[j] for c, row in zip(got, h)) for j in range(3))
        assert rebuilt == v
    assert intlin.coords_in(h, (1, 0, 0)) is None


def test_lattice_intersect_matches_cramer():
    rng = random.Random(17)
    for _ in range(20):
        a = random_rows(rng, 2, 2, bound=2)
        b = random_rows(rng, 2, 2, bound=2)
        got = intlin.lattice_intersect(a, b, 2)
        for v in itertools.product(range(-5, 6), repeat=2):
            expected = in_lattice_2d(a, v) and in_lattice_2d(b, v)
            in_got = intlin.lattice_contains(got, v) if got else v == (0, 0)
            assert in_got == expected, (a, b, v)


def test_lattice_index():
    z2 = [(1, 0), (0, 1)]
    assert intlin.lattice_index([(2, 0), (0, 2)], z2, 2) == 4
    assert intlin.lattice_index([(2, 0), (0, 3)], z2, 2) == 6
    assert intlin.lattice_index([(1, 0)], z2, 2) is None
    assert intlin.lattice_index([(4, 0), (0, 2)], [(2, 0), (0, 1)], 2) == 4
    with pytest.raises(ValueError):
        intlin.lattice_index([(1, 0), (0, 1)], [(2, 0), (0, 2)], 2)


def test_lattice_index_is_the_cofactor_determinant():
    z3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rng = random.Random(23)
    singular = 0
    for _ in range(60):
        m = random_rows(rng, 3, 3)
        det = cofactor_det(m)
        singular += det == 0
        assert intlin.lattice_index(m, z3, 3) == (abs(det) if det else None), m
    assert 0 < singular < 60


def test_smith_diagonal():
    assert intlin.smith_diagonal([(2, 0), (0, 3)], 2) == [1, 6]
    assert intlin.smith_diagonal([(2, 0), (0, 2)], 2) == [2, 2]
    assert intlin.smith_diagonal([], 2) == []
    rng = random.Random(29)
    for _ in range(20):
        m = random_rows(rng, 3, 3)
        diag = intlin.smith_diagonal(m, 3)
        # divisibility chain
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        det = cofactor_det(m)
        if det:
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(det)


def det(m):
    """Determinant of a square integer matrix by Laplace expansion."""
    if not m:
        return 1
    return sum((-1) ** j * a * det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, a in enumerate(m[0]) if a)


def determinantal_divisors(m, n):
    """d_k, the gcd of the k x k minors, for k = 1 .. min(rows, n)."""
    return [gcd(*(det([[m[i][j] for j in cols] for i in rows])
                  for rows in itertools.combinations(range(len(m)), k)
                  for cols in itertools.combinations(range(n), k)))
            for k in range(1, min(len(m), n) + 1)]


def test_smith_diagonal_is_the_quotients_of_determinantal_divisors():
    # invariant k is d_k / d_(k-1), one per unit of rank (d_k != 0)
    rng = random.Random(37)
    deficient = 0
    for _ in range(300):
        k, n = rng.randint(0, 5), rng.randint(1, 5)
        m = random_rows(rng, k, n, bound=6)
        if k > 2 and rng.random() < 0.4:
            # the last row a combination of two others: rank below min(k, n)
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            m[-1] = tuple(a * x + b * y for x, y in zip(m[0], m[1]))
        d = [1] + [dk for dk in determinantal_divisors(m, n) if dk]
        deficient += len(d) - 1 < min(k, n)
        assert intlin.smith_diagonal(m, n) == [d[i] // d[i - 1] for i in range(1, len(d))], m
    assert deficient > 20
