"""Exact integer linear algebra: Hermite forms, lattice arithmetic, Smith form.

Row convention: a lattice in Z^n is the row span of an integer matrix.
All routines are exact and sized for small matrices (rank a handful).
"""

from __future__ import annotations

from math import gcd, prod


def hnf_with_transform(rows, n: int):
    """Row-style Hermite form.  Returns (H, kernel) with H canonical echelon
    rows (positive pivots, entries above a pivot reduced into [0, pivot)) and
    kernel an integer basis of {u : u . rows = 0}."""
    mat = [list(r) for r in rows]
    rcount = len(mat)
    trans = [[1 if i == j else 0 for j in range(rcount)] for i in range(rcount)]

    def addmul(dst, src, q):
        mat[dst] = [a - q * b for a, b in zip(mat[dst], mat[src])]
        trans[dst] = [a - q * b for a, b in zip(trans[dst], trans[src])]

    def swap(i, j):
        mat[i], mat[j] = mat[j], mat[i]
        trans[i], trans[j] = trans[j], trans[i]

    rank = 0
    for col in range(n):
        while True:
            pivots = [i for i in range(rank, rcount) if mat[i][col]]
            if not pivots:
                break
            best = min(pivots, key=lambda i: abs(mat[i][col]))
            swap(rank, best)
            done = True
            for i in range(rank + 1, rcount):
                if not mat[i][col]:
                    continue
                addmul(i, rank, mat[i][col] // mat[rank][col])
                if mat[i][col]:
                    done = False
            if done:
                break
        if rank < rcount and mat[rank][col]:
            if mat[rank][col] < 0:
                mat[rank] = [-a for a in mat[rank]]
                trans[rank] = [-a for a in trans[rank]]
            for i in range(rank):
                addmul(i, rank, mat[i][col] // mat[rank][col])
            rank += 1
    hnf = [tuple(r) for r in mat[:rank]]
    kernel = [tuple(trans[i]) for i in range(rank, rcount)]
    return hnf, kernel


def hermite_normal_form(rows, n: int):
    return hnf_with_transform(rows, n)[0]


def _pivot_col(row) -> int:
    for j, a in enumerate(row):
        if a:
            return j
    raise ValueError("zero row in echelon form")


def _floor_walk(hnf, vec):
    """Floor-reduce vec down the HNF pivots: (quotients, residue).  vec is in
    the lattice, with the quotients as coordinates, iff the residue is 0."""
    v = list(vec)
    quotients = []
    for row in hnf:
        p = _pivot_col(row)
        q = v[p] // row[p]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
        quotients.append(q)
    return quotients, tuple(v)


def lattice_residue(hnf, vec):
    """Canonical representative of vec modulo the lattice (floor reduction)."""
    return _floor_walk(hnf, vec)[1]


def lattice_contains(hnf, vec) -> bool:
    return not any(lattice_residue(hnf, vec))


def lattice_intersect(a_hnf, b_hnf, n: int):
    """HNF basis of (row span of A) intersect (row span of B), for A and B
    given as Hermite rows, which are not reduced again."""
    stacked = [list(r) for r in a_hnf] + [list(r) for r in b_hnf]
    _, kernel = hnf_with_transform(stacked, n)
    ra = len(a_hnf)
    members = []
    for coeffs in kernel:
        vec = [0] * n
        for c, row in zip(coeffs[:ra], a_hnf):
            vec = [x + c * y for x, y in zip(vec, row)]
        members.append(tuple(vec))
    return hermite_normal_form(members, n)


def coords_in(hnf, vec):
    """Coefficients expressing vec over the HNF basis, or None if outside."""
    coords, residue = _floor_walk(hnf, vec)
    return None if any(residue) else coords


def lattice_index(sub, amb, n: int):
    """Index of the sub-lattice in the ambient lattice; None when infinite.
    Both are given as Hermite rows, which are not reduced again.

    Requires sub subset-of ambient (coords_in certifies while computing).  The
    index is the product of the Hermite pivots of sub's square coordinate
    matrix over ambient's basis; a missing pivot means infinite index."""
    if len(sub) < len(amb):
        return None
    coeff_rows = []
    for row in sub:
        coords = coords_in(amb, row)
        if coords is None:
            raise ValueError("sub-lattice vector outside the ambient lattice")
        coeff_rows.append(coords)
    square = hermite_normal_form(coeff_rows, len(amb))
    if len(square) < len(amb):
        return None
    return prod(row[i] for i, row in enumerate(square))


def smith_diagonal(rows, n: int):
    """Diagonal of the Smith normal form: positive, a divisibility chain, one
    entry per unit of rank.  Row Hermite forms of the matrix and of its
    transpose, in turn, make it diagonal; (a, b) -> (gcd, lcm) along the
    diagonal then makes each entry divide the next.  Both keep the
    elementary divisors, which are unique, so this is the Smith form."""
    mat = hermite_normal_form(rows, n)
    while any(a for i, row in enumerate(mat) for j, a in enumerate(row) if i != j):
        mat = hermite_normal_form(list(zip(*mat)), len(mat))
    diag = [row[i] for i, row in enumerate(mat)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag
