"""Finite truncations of subgroup families, the admissibility and stability
axioms, and the degree-0 / degree-1 cohomological functors on finite modules.

Module convention: right action of the group on row vectors over F_p.
Derivations satisfy d(gh) = d(g).h + d(h), hence d(x^-1) = -d(x).x^-1.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter

from . import modp
from .groups import (
    Frozen, GroupContext, element_step, finished_table, parse_context_word, preset,
    signed_letters,
)
from .subgroups import SubgroupHandle, conjugate, contains, finite_subgroup
from .words import Letter, Word, exponent_vector, generator, invert


class FamilyTruncation(Frozen):
    """Explicit certified data over a finite coset-table group: nodes (subgroup
    handles with tables; a node that conjugation by l adds to H holds H's
    table re-rooted at the coset Hl), the inclusion order, the conjugation
    action by generator letters and the verified normal-inclusion pairs.
    Nothing is inferred at check time; checks re-verify what they rely on."""

    _key = attrgetter("ctx", "nodes", "members", "order", "conjugation_action", "normal_in")

    def __init__(self, ctx: GroupContext, nodes: tuple[SubgroupHandle, ...],
                 members: tuple[tuple[Word, ...], ...], order: frozenset,
                 conjugation_action: dict, normal_in: frozenset):
        # order: pairs (i, j), node i <= node j, reflexive; conjugation_action:
        # (node, letter) -> node, total; normal_in: pairs (i, j), node i normal in node j
        self.__dict__.update(ctx=ctx, nodes=nodes, members=members, order=order,
                             conjugation_action=conjugation_action, normal_in=normal_in)

    def __hash__(self):
        # conjugation_action, a dict, is compared but not hashed
        return hash((self.ctx, self.nodes, self.members, self.order, self.normal_in))

    def conj(self, node: int, letter: Letter) -> int:
        return self.conjugation_action[node, letter]

    def conj_by_word(self, node: int, w: Word) -> int:
        for letter in w.letters:
            node = self.conj(node, letter)
        return node

    def leq(self, i: int, j: int) -> bool:
        return (i, j) in self.order

    # Integer tables over the table representatives rep_H[c] of each node's
    # cosets, built once per truncation on first use.

    @cached_property
    def coset_conj(self) -> tuple:
        """coset_conj[node][c] is the node H^x, x = rep_H[c]."""
        return tuple(tuple(self.conj_by_word(node, rep)
                           for rep in h.coset_table.representatives)
                     for node, h in enumerate(self.nodes))

    @cached_property
    def coset_product(self) -> tuple:
        """coset_product[node][c][c2] is the H-coset of rep_H[c] rep_{H^x}[c2],
        x = rep_H[c]: the walk from coset c along rep_{H^x}[c2]."""
        out = []
        for node, h in enumerate(self.nodes):
            table = h.coset_table
            out.append(tuple(
                tuple(table.coset_of(rep2, start=c)
                      for rep2 in self.nodes[hx].coset_table.representatives)
                for c, hx in enumerate(self.coset_conj[node])))
        return tuple(out)

    @cached_property
    def projection(self) -> dict:
        """projection[(i, j)][ci], for every strict inclusion i < j, is the
        node-j coset of rep_i[ci]: the map K\\G -> H\\G of K <= H."""
        return {(i, j): tuple(self.nodes[j].coset_table.coset_of(rep)
                              for rep in self.nodes[i].coset_table.representatives)
                for i, j in sorted(self.order) if i != j}

    @cached_property
    def covering(self) -> dict:
        """projection restricted to the covering pairs i < j, those with no
        node strictly between.  Projections compose along chains, so these
        pairs alone decide compatibility."""
        n = len(self.nodes)
        return {(i, j): proj for (i, j), proj in self.projection.items()
                if not any(k not in (i, j) and self.leq(i, k) and self.leq(k, j)
                           for k in range(n))}

    @cached_property
    def stability(self) -> dict:
        """check_stable(self), run once per truncation."""
        return check_stable(self)

    def bottom(self) -> int:
        for i in range(len(self.nodes)):
            if all(self.leq(i, j) for j in range(len(self.nodes))):
                return i
        raise ValueError("truncation has no global lower-bound node")


def _conjugation_perms(table, letters) -> dict:
    """perms[l][x] is the regular-table index of l^-1 x l: the walk along the
    representative of x from the coset of l^-1, then one step along l."""
    perms = {}
    for index, sign in letters:
        start = table.step(0, (index, -sign))
        perms[index, sign] = tuple(table.step(table.coset_of(rep, start=start), (index, sign))
                                   for rep in table.representatives)
    return perms


def _conjugate_keys(keys: frozenset, w: Word, perms: dict) -> frozenset:
    """The index set of w^-1 K w, one letter permutation at a time."""
    out = list(keys)
    for letter in w.letters:
        perm = perms[letter]
        out = [perm[x] for x in out]
    return frozenset(out)


def truncation(ctx: GroupContext, node_generator_lists) -> FamilyTruncation:
    """Build a certified truncation over a finite coset-table group.

    Closes the given nodes under conjugation by generator letters and
    certifies order, conjugation action and normality pairs.  A node is the
    set of its members' indices in the regular table, and conjugation by a
    letter permutes them; a node that conjugation by l adds to H is
    ``subgroups.conjugate(H, l)``, H's table re-rooted at the coset Hl.
    Node i is certified normal in node j when g^-1 H_i g = H_i for every
    generator g of node j: for finite groups this is exact, because the
    normaliser of H_i is a subgroup."""
    if ctx.oracle != "coset-table":
        raise ValueError("truncations are built over finite coset-table groups")
    regular = finished_table(ctx)
    reps = regular.representatives
    handles = []
    index = {}  # key set -> node
    for gens in node_generator_lists:
        h = finite_subgroup(ctx, tuple(gens))
        ks = frozenset(c for c, rep in enumerate(reps) if h.coset_table.coset_of(rep) == 0)
        if ks not in index:
            index[ks] = len(handles)
            handles.append(h)
    key_sets = list(index)
    letters = signed_letters(ctx)
    perms = _conjugation_perms(regular, letters)
    conj = {}
    i = 0
    while i < len(handles):
        for letter in letters:
            l_word = generator(*letter)
            ks = _conjugate_keys(key_sets[i], l_word, perms)
            if ks not in index:
                index[ks] = len(handles)
                key_sets.append(ks)
                handles.append(conjugate(handles[i], l_word))
            conj[i, letter] = index[ks]
        i += 1
    members = tuple(tuple(reps[c] for c in sorted(ks)) for ks in key_sets)
    n = len(handles)
    order = frozenset((i, j) for i in range(n) for j in range(n)
                      if key_sets[i] <= key_sets[j])
    normal = frozenset((i, j) for i, j in order
                       if all(_conjugate_keys(key_sets[i], g, perms) == key_sets[i]
                              for g in handles[j].generators))
    return FamilyTruncation(ctx=ctx, nodes=tuple(handles), members=members,
                            order=order, conjugation_action=conj,
                            normal_in=normal)


def parse_nodes(ctx: GroupContext, text: str) -> list:
    """Node generator lists from node text: ';' separates the nodes, ','
    the generators of a node, and an empty node, '-' or '1' is the trivial
    subgroup.  ValueError for a word the context cannot parse."""
    nodes = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk in ("", "-", "1"):
            nodes.append([])
        else:
            nodes.append([parse_context_word(ctx, part)
                          for part in chunk.split(",") if part.strip()])
    return nodes


# The built-in completion families, (group preset, family name) -> node text.
# The CLI's --family, the families and completion suites and the acceptance
# tests read them.
NAMED_FAMILIES = {
    ("sym3", "normal-order3"): "a b; a,b",
    ("sym3", "all-subgroups"): "-; a; b; a b a; a b; a,b",
    ("cyclic(4)", "index2"): "a^2; a",
    ("klein4", "all-subgroups"): "-; a; b; a b; a,b",
}


def named_families() -> list:
    """(label, ctx, node lists) per built-in family, in table order; the
    label is group/name without the preset's parentheses (cyclic4/index2)."""
    out = []
    for (group, name), text in NAMED_FAMILIES.items():
        ctx = preset(group)
        label = group.replace("(", "").replace(")", "") + "/" + name
        out.append((label, ctx, parse_nodes(ctx, text)))
    return out


def check_admissible(fam: FamilyTruncation) -> dict:
    """Re-verifies conjugation closure and downward directedness.  Each key
    is stepped afresh through the regular table from the member words (l^-1
    m l along l^-1, m, l), never read off the build's permutations or key
    sets, so a wrong or missing conjugation target shows."""
    violations = []
    start, prepare = element_step(fam.ctx)
    member_maps = [[prepare(m) for m in ms] for ms in fam.members]
    key_sets = [frozenset(m_map(start) for m_map in maps) for maps in member_maps]
    for i in range(len(fam.nodes)):
        for letter in signed_letters(fam.ctx):
            target = fam.conjugation_action.get((i, letter))
            if target is None:
                violations.append(f"no conjugation target for node {i} by letter {letter}")
                continue
            l_word = generator(*letter)
            l_start, l_map = prepare(invert(l_word))(start), prepare(l_word)
            ks = frozenset(l_map(m_map(l_start)) for m_map in member_maps[i])
            if ks != key_sets[target]:
                violations.append(f"conjugate of node {i} by {letter} is not node {target}")
    n = len(fam.nodes)
    unbounded = [f"nodes ({i}, {j}) have no lower bound in the truncation"
                 for i in range(n) for j in range(i, n)
                 if not any(fam.leq(l, i) and fam.leq(l, j) for l in range(n))]
    return {"conjugation_closed": not violations, "downward_directed": not unbounded,
            "violations": violations + unbounded}


def check_stable(fam: FamilyTruncation) -> dict:
    """For every certified inclusion K <= H, finds a node L <= K normal in H
    (normality re-verified at generator level).  Returns the failing pair as
    the witness otherwise."""
    choices = {}
    for (k, h) in sorted(fam.order):
        found = None
        for l in range(len(fam.nodes)):
            if not (fam.leq(l, k) and (l, h) in fam.normal_in):
                continue
            if _reverify_normal(fam, l, h):
                found = l
                break
        if found is None:
            return {"stable": False, "witness": (k, h), "choices": None}
        choices[(k, h)] = found
    return {"stable": True, "witness": None, "choices": choices}


def _reverify_normal(fam: FamilyTruncation, l: int, h: int) -> bool:
    node_l = fam.nodes[l]
    for hg in fam.nodes[h].generators:
        for sign in (1, -1):
            conj = hg if sign == 1 else invert(hg)
            for lg in node_l.generators:
                if contains(node_l, invert(conj) * lg * conj) is not True:
                    return False
    return True


# ---------------------------------------------------------------------------
# finite modules


class FiniteModule(Frozen):
    _key = attrgetter("dimension", "p", "matrices", "inverses")

    def __init__(self, dimension: int, p: int, matrices: tuple, inverses: tuple):
        # matrices: modp sparse rows, one per ambient generator, right action
        self.__dict__.update(dimension=dimension, p=p, matrices=matrices, inverses=inverses)


def finite_module(ctx: GroupContext, matrices, p: int = 2) -> FiniteModule:
    """Validated module from dense integer matrices, stored as sparse rows: p
    prime, matrices invertible, relators act as the identity."""
    if not modp.is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    if len(matrices) != ctx.generator_count:
        raise ValueError("one matrix per ambient generator required")
    dim = len(matrices[0]) if matrices else 0
    if any(len(m) != dim or any(len(row) != dim for row in m) for m in matrices):
        raise ValueError("matrices must be square and of equal size")
    return _sparse_module(ctx, tuple(modp.sparse(m, p) for m in matrices), p)


def _sparse_module(ctx: GroupContext, mats: tuple, p: int) -> FiniteModule:
    """The module on square sparse-row matrices over F_p, one per generator
    of ctx, after the invertibility and relator checks."""
    dim = len(mats[0]) if mats else 0
    inverses = tuple(modp.mat_inverse(m, p) for m in mats)
    if None in inverses:
        raise ValueError("generator matrix is singular")
    module = FiniteModule(dimension=dim, p=p, matrices=mats, inverses=inverses)
    for r in ctx.relators:
        if word_matrix(module, r) != modp.identity_matrix(dim):
            raise ValueError("a relator does not act as the identity matrix")
    return module


def word_matrix(module: FiniteModule, w: Word):
    acc = modp.identity_matrix(module.dimension)
    for index, sign in w.letters:
        m = module.matrices[index] if sign > 0 else module.inverses[index]
        acc = modp.mat_mul(acc, m, module.p)
    return acc


def trivial_module(ctx: GroupContext, dim: int = 1, p: int = 2) -> FiniteModule:
    eye = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    return finite_module(ctx, tuple(eye for _ in range(ctx.generator_count)), p)


def permutation_module(ctx: GroupContext, table, p: int = 2) -> FiniteModule:
    """Module on the cosets of a table; generator g sends e_c to e_{c.g}."""
    if not modp.is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    return _sparse_module(ctx, tuple(tuple(((table.step(c, (i, 1)), 1),)
                                           for c in range(table.coset_count))
                                     for i in range(table.ngens)), p)


def regular_module(ctx: GroupContext, p: int = 2) -> FiniteModule:
    return permutation_module(ctx, finished_table(ctx), p)


def parse_module_matrices(text: str):
    """Row-major integer matrices, one block per generator.  A line that is
    blank after stripping ends a block, and `#` lines are comments."""
    blocks: list[list[tuple[int, ...]]] = [[]]
    for line in text.splitlines():
        line = line.strip()
        if not line:
            blocks.append([])
        elif not line.startswith("#"):
            blocks[-1].append(tuple(int(tok) for tok in line.split()))
    mats = tuple(tuple(rows) for rows in blocks if rows)
    if any(len(row) != len(m) for m in mats for row in m):
        raise ValueError("matrix blocks must be square")
    return mats


# ---------------------------------------------------------------------------
# degree-0 functors


def node_fixed_space(module: FiniteModule, fam: FamilyTruncation, node: int):
    gens = fam.nodes[node].generators
    mats = [word_matrix(module, g) for g in gens]
    return modp.fixed_space(mats, module.p, module.dimension)


def h0_S(module: FiniteModule, fam: FamilyTruncation):
    """Union of the node fixed subspaces = fixed space of the bottom node.

    Verifies the union claim (every node's fixed space sits inside the
    bottom one) and closure under every ambient generator matrix."""
    bottom = fam.bottom()
    basis = node_fixed_space(module, fam, bottom)
    p = module.p
    if not modp.span_contains(basis, [v for node in range(len(fam.nodes)) if node != bottom
                                      for v in node_fixed_space(module, fam, node)], p):
        raise RuntimeError("node fixed space escapes the bottom node: "
                           "truncation is not downward directed")
    if not modp.span_contains(basis, [modp.vec_mat(v, m, p)
                                      for m in module.matrices for v in basis], p):
        raise RuntimeError("computed subspace is not a submodule")
    return basis


def h0_G_mod_S(module: FiniteModule, fam: FamilyTruncation):
    """Simultaneous fixed space of the ambient generators; input must equal
    its own h0_S (an object of the subcategory).

    h0_S is the fixed space of the bottom node, so it is the whole module
    exactly when the bottom node's generators act as the identity; the
    union and submodule checks of h0_S then hold for the whole space."""
    eye = modp.identity_matrix(module.dimension)
    if any(word_matrix(module, g) != eye for g in fam.nodes[fam.bottom()].generators):
        raise ValueError("module is not an object of the subcategory: "
                         "h0_S is a proper subspace")
    return modp.fixed_space(module.matrices, module.p, module.dimension)


def restrict_to_h0s(module: FiniteModule, fam: FamilyTruncation):
    """The submodule on the h0_S basis; returns (module, basis rows)."""
    basis = h0_S(module, fam)
    p, d = module.p, len(basis)
    # one elimination of the basis, then each image v.M reduced against it
    images = modp.coordinates(basis, [modp.vec_mat(v, m, p)
                                      for m in module.matrices for v in basis], p)
    if None in images:
        raise RuntimeError("h0_S basis is not closed under the action")
    mats = tuple(tuple(images[i * d:(i + 1) * d]) for i in range(len(module.matrices)))
    return _sparse_module(fam.ctx, mats, p), basis


# ---------------------------------------------------------------------------
# derivations


def derivation_values(module: FiniteModule, values, w: Word):
    """The matrix whose row b is delta_b(w), for the derivations delta_b
    whose values on the generators are given at once: row b of values[i] is
    delta_b(x_i).  Each letter of w is one sparse product of the rows
    [d(u) | d(x)] with a 2d x d letter matrix, [M; I] for x and
    [M^-1; -M^-1] for x^-1, as d(u x) = d(u).x + d(x) and
    d(u x^-1) = (d(u) - d(x)).x^-1."""
    d, p = module.dimension, module.p
    eye = modp.identity_matrix(d)
    letter = {}
    for i, (m, inverse) in enumerate(zip(module.matrices, module.inverses)):
        letter[i, 1] = m + eye
        letter[i, -1] = inverse + tuple(tuple((j, -a % p) for j, a in row) for row in inverse)
    # row b of shifted[i] is delta_b(x_i) in the columns d..2d-1
    shifted = [tuple(tuple((j + d, a) for j, a in row) for row in v) for v in values]
    acc = ((),) * len(values[0])
    for index, sign in w.letters:
        rows = tuple(a + s for a, s in zip(acc, shifted[index]))
        acc = modp.mat_mul(rows, letter[index, sign], p)
    return acc


def relator_blocks(module: FiniteModule, r: Word) -> list:
    """Fox-derivative coefficients of relator r: block i is the d x d matrix
    with delta(r) = sum_i delta(x_i) * block_i for every derivation delta.

    The letter at position t contributes the matrix of the suffix after it
    (negated and premultiplied by the inverse for an inverse letter); the
    suffix matrices are accumulated right to left, one product per letter,
    and each block's entries are summed as integers and reduced once."""
    d, p = module.dimension, module.p
    sums = [[{} for _ in range(d)] for _ in module.matrices]
    smat = modp.identity_matrix(d)
    for index, sign in reversed(r.letters):
        if sign > 0:
            coeff = smat
            smat = modp.mat_mul(module.matrices[index], smat, p)
        else:
            smat = coeff = modp.mat_mul(module.inverses[index], smat, p)
        for acc, row in zip(sums[index], coeff):
            for j, a in row:
                acc[j] = acc.get(j, 0) + sign * a
    return [tuple(modp.canonical_row(acc, p) for acc in block) for block in sums]


def inner_derivation_rows(module: FiniteModule) -> list:
    """One sparse row per basis vector e_j: the inner derivation of e_j, which
    sends x_i to row j of M_i minus e_j, as d(x_0), ..., d(x_{n-1}) in turn."""
    d, p = module.dimension, module.p
    rows = []
    for j in range(d):
        row = []
        for i, m in enumerate(module.matrices):
            sums = dict(m[j])
            sums[j] = sums.get(j, 0) - 1
            row.extend((i * d + c, a) for c, a in modp.canonical_row(sums, p))
        rows.append(tuple(row))
    return rows


def h1_derivations(ctx: GroupContext, module: FiniteModule) -> dict:
    """Solve the relator-expansion linear system for derivations and quotient
    by inner derivations; returns dimensions and bases (sparse rows)."""
    n = ctx.generator_count
    d = module.dimension
    p = module.p
    relators = ctx.relators
    # Unknown row vector: concatenation of d(x_0), ..., d(x_{n-1}); its row
    # i*d + row of the system holds block i's row for each relator in turn.
    columns = [relator_blocks(module, r) for r in relators]
    big = [tuple((k * d + j, a) for k, blocks in enumerate(columns) for j, a in blocks[i][row])
           for i in range(n) for row in range(d)]
    der_basis = modp.left_nullspace(big, p)
    ider_basis = modp.row_space(inner_derivation_rows(module), p)
    if not modp.span_contains(der_basis, ider_basis, p):
        raise RuntimeError("inner derivation fails the relator system")
    # the independent re-check: every basis derivation on every relator,
    # evaluated letter by letter, without the Fox blocks
    values = [tuple(tuple((j - i * d, a) for j, a in v if i * d <= j < (i + 1) * d)
                    for v in der_basis) for i in range(n)]
    for r in relators:
        if any(derivation_values(module, values, r)):
            raise RuntimeError("solution fails the independent relator re-check")
    dim_der = len(der_basis)
    dim_ider = len(ider_basis)
    return {"dim_der": dim_der, "dim_ider": dim_ider, "dim_h1": dim_der - dim_ider,
            "der_basis": der_basis, "ider_basis": ider_basis}


def h1_trivial_expected(ctx: GroupContext, p: int = 2) -> int:
    """dim H^1(G, F_p trivial) from the abelianization: free rank plus the
    count of p-divisible elementary divisors of the relator exponent matrix."""
    from ._intlinalg import smith_diagonal

    n = ctx.generator_count
    rows = [exponent_vector(r, n) for r in ctx.relators]
    diag = smith_diagonal(rows, n)
    free_rank = n - len(diag)
    torsion = sum(1 for dd in diag if dd and dd % p == 0)
    return free_rank + torsion
