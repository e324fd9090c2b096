"""Exact linear algebra over a prime field F_p, on sparse matrix rows.

Vectors, and the bases returned here, are dense tuples of ints in [0, p).  A
matrix is a tuple of sparse rows: row i is the tuple of (column, value) pairs
of its nonzero entries in column order, values in [1, p), and products and
eliminations read only those.  Modules act on the right: v -> v . M.
"""

from __future__ import annotations

from math import isqrt


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def vec_mod(v, p: int):
    return tuple(a % p for a in v)


def sparse(rows, p: int):
    """The matrix whose rows are the dense rows given, reduced mod p."""
    return tuple(tuple((j, a % p) for j, a in enumerate(row) if a % p) for row in rows)


def canonical_row(sums: dict, p: int):
    """The sparse row of a dict column -> integer sum, reduced mod p."""
    return tuple((j, s % p) for j, s in sorted(sums.items()) if s % p)


def identity_matrix(n: int):
    return tuple(((i, 1),) for i in range(n))


def vec_mat(v, m, p: int):
    """v . M for a square matrix M."""
    out = [0] * len(m)
    for a, row in zip(v, m):
        if a:
            for j, b in row:
                out[j] += a * b
    return tuple(s % p for s in out)


def mat_mul(a, b, p: int):
    out = []
    for row in a:
        sums = {}
        for k, x in row:
            for j, y in b[k]:
                sums[j] = sums.get(j, 0) + x * y
        out.append(canonical_row(sums, p))
    return tuple(out)


# Elimination keeps a dict pivot column -> row (a dict column -> value) with
# 1 at its pivot, nothing left of it and 0 at every other pivot column, so
# the rows in pivot order are the reduced row echelon form of the rows fed.


def _reduce(row: dict, pivots: dict, p: int) -> dict:
    """row minus multiples of the pivot rows, leaving 0 at every pivot column."""
    for c in [c for c in row if c in pivots]:
        f = row[c]
        for j, a in pivots[c].items():
            row[j] = (row.get(j, 0) - f * a) % p
    return {j: a for j, a in row.items() if a}


def _echelon(rows, p: int) -> dict:
    """The pivot rows of the row space of rows, each a dict of nonzero entries."""
    pivots = {}
    for row in rows:
        row = _reduce(row, pivots, p)
        if not row:
            continue
        c = min(row)
        inv = pow(row[c], p - 2, p)
        row = {j: a * inv % p for j, a in row.items()}
        for k, other in pivots.items():
            if c in other:
                pivots[k] = _reduce(other, {c: row}, p)
        pivots[c] = row
    return pivots


def _dicts(rows, p: int):
    return ({j: a % p for j, a in enumerate(row) if a % p} for row in rows)


def _nullspace(pivots: dict, n: int, p: int):
    """Basis of {v in F_p^n : row . v^T = 0 for every pivot row}, one vector
    per free column in column order."""
    basis = {f: [int(j == f) for j in range(n)] for f in range(n) if f not in pivots}
    for c, row in pivots.items():
        for j, a in row.items():
            if j != c:
                basis[j][c] = -a % p
    return tuple(tuple(v) for v in basis.values())


def rref(rows, p: int):
    """Reduced row echelon form of dense rows; returns (nonzero rows, pivot
    columns)."""
    n = len(rows[0]) if rows else 0
    pivots = _echelon(_dicts(rows, p), p)
    order = tuple(sorted(pivots))
    return tuple(tuple(pivots[c].get(j, 0) for j in range(n)) for c in order), order


def row_space(rows, p: int):
    return rref(rows, p)[0]


def span_contains(basis, vectors, p: int) -> bool:
    """True when every vector lies in the row span of basis: one elimination
    of basis, then each vector reduced against it."""
    pivots = _echelon(_dicts(basis, p), p)
    return not any(_reduce(row, pivots, p) for row in _dicts(vectors, p))


def left_nullspace(m, p: int):
    """Basis of {v : v . M = 0} for a matrix M, as dense rows of length len(M):
    the null space of the columns of M."""
    columns = {}
    for i, row in enumerate(m):
        for j, a in row:
            columns.setdefault(j, {})[i] = a
    return _nullspace(_echelon(columns.values(), p), len(m), p)


def coordinates(basis, vectors, p: int):
    """Per vector, the coefficients x with sum x_i basis_i = vector, or None
    when it lies outside the span of basis.  The basis is eliminated once,
    each row carrying the combination of basis rows it stands for (columns
    past the vector's), and each vector is then reduced against it; for an
    independent basis the coefficients are the unique ones."""
    if not basis:
        return [None if any(vec_mod(v, p)) else () for v in vectors]
    n, k = len(basis[0]), len(basis)
    pivots = _echelon(({**row, n + i: 1} for i, row in enumerate(_dicts(basis, p))), p)
    out = []
    for row in _dicts(vectors, p):
        row = _reduce(row, pivots, p)
        if any(j < n for j in row):
            out.append(None)
            continue
        # vector - y.basis = 0 leaves -y in the carried columns
        coeffs = [0] * k
        for j, a in row.items():
            coeffs[j - n] = -a % p
        out.append(tuple(coeffs))
    return out


def mat_inverse(m, p: int):
    """Inverse over F_p, the right half of rref([M | I]); None when singular."""
    n = len(m)
    pivots = _echelon(({**dict(row), n + i: 1} for i, row in enumerate(m)), p)
    if any(c >= n for c in pivots):
        return None
    return tuple(canonical_row({j - n: a for j, a in pivots[i].items() if j >= n}, p)
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
        constraints.extend({i: a % p for i, a in col.items()} for col in columns)
    return _nullspace(_echelon(constraints, p), dim, p)
