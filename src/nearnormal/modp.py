"""Exact linear algebra over a prime field F_p, on sparse rows.

A vector is a sparse row: the tuple of (column, value) pairs of its nonzero
entries, columns ascending and values in [1, p).  A matrix, and every basis
returned here, is a tuple of sparse rows, and products and eliminations read
only the nonzero entries.  Modules act on the right: v -> v . M.
"""

from __future__ import annotations

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_LIMIT = 318665857834031151167461  # the least composite passing them all


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the twelve primes up to 37: exact below
    PRIME_LIMIT (about 3.2e23), ValueError at or above it."""
    if p >= PRIME_LIMIT:
        raise ValueError(f"primality is decided only below {PRIME_LIMIT}")
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s, d odd
    d = (p - 1) >> s
    return all(pow(a, d, p) == 1 or p - 1 in (pow(a, d << i, p) for i in range(s))
               for a in _WITNESSES)


def sparse(rows, p: int):
    """The matrix whose rows are the dense rows given, reduced mod p."""
    return tuple(tuple((j, a % p) for j, a in enumerate(row) if a % p) for row in rows)


def canonical_row(sums: dict, p: int):
    """The sparse row of a dict column -> integer sum, reduced mod p."""
    return tuple((j, s % p) for j, s in sorted(sums.items()) if s % p)


def identity_matrix(n: int):
    return tuple(((i, 1),) for i in range(n))


def vec_mat(v, m, p: int):
    """v . M.  A row with one entry (k, x) gives row k of M scaled by x, which
    is already canonical; longer rows sum their scaled rows of M."""
    if len(v) == 1:
        (k, x), = v
        return m[k] if x == 1 else tuple((j, x * y % p) for j, y in m[k])
    sums = {}
    for k, x in v:
        for j, y in m[k]:
            sums[j] = sums.get(j, 0) + x * y
    return canonical_row(sums, p)


def mat_mul(a, b, p: int):
    return tuple(vec_mat(row, b, p) for row in a)


# Elimination keeps a dict pivot column -> row (a dict column -> value) with
# 1 at its pivot, nothing left of it and 0 at every other pivot column, so
# the rows in pivot order are the reduced row echelon form of the rows fed.
# Rows are dicts of nonzero entries, reduced in place.


def _reduce(row: dict, pivots: dict, p: int) -> dict:
    """row minus multiples of the pivot rows, leaving 0 at every pivot
    column; entries that become 0 are deleted."""
    for c in row.keys() & pivots.keys():
        f = row[c]
        for j, a in pivots[c].items():
            a = (row.get(j, 0) - f * a) % p
            if a:
                row[j] = a
            else:
                del row[j]
    return row


def _echelon(rows, p: int) -> dict:
    """The pivot rows of the row space of rows (dicts of nonzero entries)."""
    pivots = {}
    for row in rows:
        row = _reduce(row, pivots, p)
        if not row:
            continue
        c = min(row)
        if row[c] != 1:
            inv = pow(row[c], p - 2, p)
            row = {j: a * inv % p for j, a in row.items()}
        for other in pivots.values():
            if c in other:
                _reduce(other, {c: row}, p)
        pivots[c] = row
    return pivots


def _nullspace(pivots: dict, n: int, p: int):
    """Basis of {v in F_p^n : row . v^T = 0 for every pivot row}, one vector
    per free column f in column order: 1 at f, minus the pivot rows' entries
    at f."""
    basis = {f: [(f, 1)] for f in range(n) if f not in pivots}
    for c, row in pivots.items():
        for j, a in row.items():
            if j != c:
                basis[j].append((c, -a % p))
    return tuple(tuple(sorted(v)) for v in basis.values())


def rref(rows, p: int):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    pivots = _echelon(map(dict, rows), p)
    order = tuple(sorted(pivots))
    return tuple(tuple(sorted(pivots[c].items())) for c in order), order


def row_space(rows, p: int):
    return rref(rows, p)[0]


def span_contains(basis, vectors, p: int) -> bool:
    """True when every vector lies in the row span of basis: one elimination
    of basis, then each vector reduced against it."""
    pivots = _echelon(map(dict, basis), p)
    return not any(_reduce(dict(v), pivots, p) for v in vectors)


def left_nullspace(m, p: int):
    """Basis of {v : v . M = 0} for a matrix M, vectors of length len(M): the
    null space of the columns of M."""
    columns = {}
    for i, row in enumerate(m):
        for j, a in row:
            columns.setdefault(j, {})[i] = a
    return _nullspace(_echelon(columns.values(), p), len(m), p)


def coordinates(basis, vectors, p: int):
    """Per vector, the coefficients x with sum x_i basis_i = vector, as a
    sparse row, or None when it lies outside the span of basis.  The basis
    is eliminated once, each row carrying the combination of basis rows it
    stands for (columns past every vector's), and each vector is then
    reduced against it; for an independent basis the coefficients are the
    unique ones."""
    n = 1 + max((v[-1][0] for v in (*basis, *vectors) if v), default=-1)
    pivots = _echelon(({**dict(row), n + i: 1} for i, row in enumerate(basis)), p)
    out = []
    for v in vectors:
        row = _reduce(dict(v), pivots, p)
        # vector - y.basis = 0 leaves -y in the carried columns
        out.append(None if row and min(row) < n
                   else tuple(sorted((j - n, -a % p) for j, a in row.items())))
    return out


def mat_inverse(m, p: int):
    """Inverse over F_p, the right half of rref([M | I]); None when singular."""
    n = len(m)
    pivots = _echelon(({**dict(row), n + i: 1} for i, row in enumerate(m)), p)
    if any(c >= n for c in pivots):
        return None
    return tuple(tuple(sorted((j - n, a) for j, a in pivots[i].items() if j >= n))
                 for i in range(n))


def fixed_space(mats, p: int, dim: int):
    """Basis of the simultaneous fixed space {v in F_p^dim : v . M = v for
    every M}: the null space of the columns of every M - I."""
    constraints = []
    for m in mats:
        columns = [{j: -1} for j in range(dim)]
        for i, row in enumerate(m):
            for j, a in row:
                columns[j][i] = columns[j].get(i, 0) + a
        constraints.extend({i: a % p for i, a in col.items() if a % p} for col in columns)
    return _nullspace(_echelon(constraints, p), dim, p)
