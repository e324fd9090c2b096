"""Dense linear algebra over F_p: the reference for the sparse-row ``modp``.

A vector here is a dense tuple and a matrix a tuple of dense row tuples, and
every product and every elimination step touches each entry, as
``nearnormal.modp`` did before its vectors and matrices became sparse rows.
``dense`` turns sparse rows into this form, and ``modp.sparse`` turns it
back.  ``word_matrix`` and ``relator_blocks`` are the dense forms of the
``families`` functions of the same names.
"""

from nearnormal.words import Word


def vec_mod(v, p: int):
    return tuple(a % p for a in v)


def zero_vector(n: int):
    return (0,) * n


def vec_add(u, v, p: int):
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_sub(u, v, p: int):
    return tuple((a - b) % p for a, b in zip(u, v))


def dense(m, n: int):
    """The dense rows of length n of sparse rows."""
    out = []
    for row in m:
        v = [0] * n
        for j, a in row:
            v[j] = a
        out.append(tuple(v))
    return tuple(out)


def identity_matrix(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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


def span_contains(basis, vectors, p: int) -> bool:
    extra = [v for v in vectors if any(vec_mod(v, p))]
    if not extra:
        return True
    return rank(list(basis) + extra, p) == rank(basis, p)


def right_nullspace_of_rows(rows, p: int, n: int):
    red, pivots = rref(rows, p)
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [0] * n
        v[f] = 1
        for row, pcol in zip(red, pivots):
            v[pcol] = (-row[f]) % p
        basis.append(tuple(v))
    return tuple(basis)


def left_nullspace(m, p: int):
    r = len(m)
    if r == 0:
        return ()
    transposed = tuple(tuple(m[i][j] for i in range(r)) for j in range(len(m[0])))
    return right_nullspace_of_rows(transposed, p, r)


def solve_linear_combination(basis, vec, p: int):
    """Coefficients x with sum x_i basis_i = vec, or None when outside the
    span: the rref of the basis vectors as columns, augmented by vec."""
    k = len(basis)
    if k == 0:
        return () if not any(vec_mod(vec, p)) else None
    aug = [[basis[i][j] % p for i in range(k)] + [vec[j] % p] for j in range(len(basis[0]))]
    red, pivots = rref(aug, p)
    coeffs = [0] * k
    for row, pcol in zip(red, pivots):
        if pcol == k:
            return None
        coeffs[pcol] = row[k]
    return tuple(coeffs)


def mat_inverse(m, p: int):
    n = len(m)
    red, pivots = rref([tuple(row) + e for row, e in zip(m, identity_matrix(n))], p)
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n:] for row in red)


def fixed_space(mats, p: int, dim: int | None = None):
    if not mats:
        return identity_matrix(dim)
    n = len(mats[0])
    blocks = [mat_sub(m, identity_matrix(n), p) for m in mats]
    joined = tuple(tuple(c for blk in blocks for c in blk[i]) for i in range(n))
    if not joined or not joined[0]:
        return identity_matrix(n)
    return left_nullspace(joined, p)


def word_matrix(module, w):
    """The dense matrix of a word, one dense product per letter."""
    d, p = module.dimension, module.p
    acc = identity_matrix(d)
    for index, sign in w.letters:
        m = module.matrices[index] if sign > 0 else module.inverses[index]
        acc = mat_mul(acc, dense(m, d), p)
    return acc


def relator_blocks(module, r):
    """Dense Fox-derivative blocks of relator r, each suffix matrix rebuilt
    from its word."""
    d, p = module.dimension, module.p
    blocks = [[(0,) * d for _ in range(d)] for _ in module.matrices]
    letters = r.letters
    for t, (index, sign) in enumerate(letters):
        coeff = word_matrix(module, Word(letters[t + 1:]))
        if sign < 0:
            coeff = mat_mul(dense(module.inverses[index], d), coeff, p)
            coeff = tuple(vec_scale(row, p - 1, p) for row in coeff)
        blocks[index] = [vec_add(blocks[index][row], coeff[row], p) for row in range(d)]
    return [tuple(block) for block in blocks]
