"""Dense exact linear algebra over a prime field F_p.

Vectors are tuples of ints in [0, p); matrices are tuples of row tuples.
The module convention everywhere is right action on row vectors: v -> v. M.
"""

from __future__ import annotations

from math import isqrt


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def vec_mod(v, p: int):
    return tuple(a % p for a in v)


def mat_mod(m, p: int):
    return tuple(vec_mod(row, p) for row in m)


def identity_matrix(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero_vector(n: int):
    return (0,) * n


def vec_add(u, v, p: int):
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_sub(u, v, p: int):
    return tuple((a - b) % p for a, b in zip(u, v))


def vec_scale(u, c: int, p: int):
    return tuple((a * c) % p for a in u)


def vec_mat(v, m, p: int):
    cols = len(m[0]) if m else 0
    out = [0] * cols
    for a, row in zip(v, m):
        if a:
            for j, b in enumerate(row):
                out[j] = (out[j] + a * b) % p
    return tuple(out)


def mat_mul(a, b, p: int):
    return tuple(vec_mat(row, b, p) for row in a)


def mat_sub(a, b, p: int):
    return tuple(vec_sub(u, v, p) for u, v in zip(a, b))


def rref(rows, p: int):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(vec_mod(r, p)) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], p - 2, p) if p > 2 else mat[r][col]
        mat[r] = [(a * inv) % p for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                c = mat[i][col]
                mat[i] = [(a - c * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def rank(rows, p: int) -> int:
    return len(rref(rows, p)[0])


def row_space(rows, p: int):
    return rref(rows, p)[0]


def span_contains(basis, vectors, p: int) -> bool:
    """True when every vector lies in the row span of basis: one elimination
    of basis and the nonzero vectors, compared with the rank of basis."""
    extra = [v for v in vectors if any(vec_mod(v, p))]
    if not extra:
        return True
    return rank(list(basis) + extra, p) == rank(basis, p)


def in_span(basis, vec, p: int) -> bool:
    return span_contains(basis, [vec], p)


def left_nullspace(m, p: int):
    """Basis of {v : v . M = 0} for an r x c matrix M, as rows of length r."""
    r = len(m)
    if r == 0:
        return ()
    transposed = tuple(tuple(m[i][j] for i in range(r)) for j in range(len(m[0])))
    return right_nullspace_of_rows(transposed, p, r)


def right_nullspace_of_rows(rows, p: int, n: int):
    """Basis of {v in F_p^n : rows . v^T = 0} (each row dotted with v is 0)."""
    red, pivots = rref(rows, p)
    free_cols = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free_cols:
        v = [0] * n
        v[f] = 1
        for row, pcol in zip(red, pivots):
            v[pcol] = (-row[f]) % p
        basis.append(tuple(v))
    return tuple(basis)


def solve_linear_combination(basis, vec, p: int):
    """Coefficients x with sum x_i basis_i = vec, or None when outside the span."""
    k = len(basis)
    if k == 0:
        return () if not any(vec_mod(vec, p)) else None
    n = len(basis[0])
    # columns are the basis vectors, one augmented column for vec
    aug = [[basis[i][j] % p for i in range(k)] + [vec[j] % p] for j in range(n)]
    red, pivots = rref(aug, p)
    coeffs = [0] * k
    for row, pcol in zip(red, pivots):
        if pcol == k:
            return None
        coeffs[pcol] = row[k]
    return tuple(coeffs)


def mat_inverse(m, p: int):
    """Inverse over F_p, the right half of rref([M | I]); None when singular."""
    n = len(m)
    red, pivots = rref([tuple(row) + e for row, e in zip(m, identity_matrix(n))], p)
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n:] for row in red)


def fixed_space(mats, p: int, dim: int | None = None):
    """Basis of the simultaneous fixed space {v : v.M = v for every M}."""
    if not mats:
        if dim is None:
            raise ValueError("fixed_space of no matrices needs an explicit dimension")
        return identity_matrix(dim)
    n = len(mats[0])
    blocks = []
    for m in mats:
        diff = mat_sub(m, identity_matrix(n), p)
        blocks.append(diff)
    # v . [M1 - I | M2 - I | ...] = 0
    joined = tuple(tuple(c for blk in blocks for c in blk[i]) for i in range(n))
    if not joined or not joined[0]:
        return identity_matrix(n)
    return left_nullspace(joined, p)
