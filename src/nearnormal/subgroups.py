"""Subgroup handles: conjugates, intersections, indices, and the
relations built on them (commensurability, commensurator membership,
near-normality), plus the disjoint-coset-translate search.

A handle pairs a finite generator list with a membership oracle, declared
per fixture, never inferred.  Each oracle is one small class that owns
membership, conjugation, the left-coset key and, for XPower and Folded, the
index of a subgroup in its handle; its tag names it in certificates:

    All             "all"          whole-group handle
    Trivial         "trivial"      trivial subgroup (word-problem oracle)
    Table           "table"        membership via the attached coset table
    XPower(k, c)    "x-power"      <x^k>^c in BS(m,n); "conjugate" if c != 1
    Lattice(rows)   "lattice"      row-span sublattice of Z^n (free-abelian)
    Folded          "folded"       any finitely generated subgroup of a free
                                   group, by its attached Stallings graph
    AM(m)           "a-m"          the subgroup A_m of Thompson's F
    Conjugate(h, g) "conjugate"    h^g, i.e. t in h^g  iff  g t g^-1 in h

Only ``intersect`` reads two oracles at once, through its table of pairs.
``CosetIndex`` is the one way cosets are told apart, by an oracle's coset
key when it has one, else pairwise through ``same_coset``.  A coset key keys
the left cosets g(sub) and reads only g's ``groups.element_key``, so a caller
that steps element keys (a word ball) never builds the product words.

Indices are exact wherever an oracle reads them (coset tables, lattices,
x-power exponents, Stallings graphs): an int, or None when infinite.  A bound caps only
the coset search of a whole group with none of these, so the relations built
on indices are three-valued: True / False / "unknown", never a guess.
"""

from __future__ import annotations

from functools import partial
from math import gcd
from operator import attrgetter
from typing import ClassVar

from . import _intlinalg as intlin
from . import baumslag_solitar as bs
from . import groups, thompson, words
from .words import Word, cyclic_peel, exponent_vector, generator, invert

INFINITE_OR_EXCEEDS = "infinite-or-exceeds"


class UnsupportedOraclePair(ValueError):
    pass


class SubgroupHandle(groups.Frozen):
    _key = attrgetter("ctx", "generators", "coset_table", "membership")

    def __init__(self, ctx: groups.GroupContext, generators: tuple[Word, ...],
                 coset_table: groups.CosetTable | None, membership: Oracle):
        self.__dict__.update(ctx=ctx, generators=generators, coset_table=coset_table,
                             membership=membership)
        for w in generators:
            if contains(self, w) is False:
                raise ValueError("membership oracle rejects a listed generator")


class CosetSet(groups.Frozen):
    """Finite union of cosets of one subgroup; side 'right' holds cosets Hg,
    side 'left' holds cosets gH."""

    _key = attrgetter("base", "representatives", "side")

    def __init__(self, base: SubgroupHandle, representatives: tuple[Word, ...],
                 side: str = "right"):
        self.__dict__.update(base=base, representatives=representatives, side=side)
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        index = CosetIndex(base, side)
        for n, g in enumerate(representatives):
            if index.add(g) != n:
                raise ValueError("representatives are not in distinct cosets")


def same_coset(sub: SubgroupHandle, g1: Word, g2: Word, side: str):
    if side == "right":
        return contains(sub, g2 * invert(g1))
    return contains(sub, invert(g1) * g2)


class CosetIndex:
    """The cosets of sub on one side met so far, numbered in order of first
    sight, each held by its first representative: a word, or for a keyed
    index whatever the caller names it by, as a ball's element number.
    Cosets are told apart by ``key`` (an oracle's ``coset_key``: left
    cosets, read from the element key) when given, else pairwise through
    same_coset.  ``find`` and ``add`` take g's element key as well when the
    caller has it; a keyed index reads only that, and computes it from g
    otherwise."""

    def __init__(self, sub: SubgroupHandle, side: str, key=None):
        self.sub, self.side, self.key = sub, side, key
        self.representatives: list[Word] = []
        self._numbers: dict = {}  # coset key -> number, when keyed
        self.undecided = False  # a coset was taken as new under "unknown"

    def _lookup(self, g: Word, g_key):
        """(the number of g's coset, None or "unknown"; g's key or None)."""
        if self.key is not None:
            k = self.key(groups.element_key(self.sub.ctx, g) if g_key is None else g_key)
            return self._numbers.get(k), k
        verdict = None
        for i, rep in enumerate(self.representatives):
            hit = same_coset(self.sub, rep, g, self.side)
            if hit is True:
                return i, None
            if hit == "unknown":
                verdict = hit
        return verdict, None

    def find(self, g: Word, g_key=None):
        """The number of g's coset; None when it is new, "unknown" when no
        coset matched and some comparison was undecided."""
        return self._lookup(g, g_key)[0]

    def add(self, g: Word, g_key=None) -> int:
        """The number of g's coset, recording g when the coset is new."""
        i, k = self._lookup(g, g_key)
        if isinstance(i, int):
            return i
        self.undecided = self.undecided or i == "unknown"
        if self.key is not None:
            self._numbers[k] = len(self.representatives)
        self.representatives.append(g)
        return len(self.representatives) - 1


# ---------------------------------------------------------------------------
# oracles


class Oracle(groups.Frozen):
    """Membership oracle of the handle ``sub`` passed to each method.  Oracles
    compare and hash by value: by their fields, and one without fields is
    equal to every other of its class."""

    tag: ClassVar[str]
    _key = staticmethod(lambda oracle: ())

    def contains(self, sub: SubgroupHandle, w: Word):
        """w in sub: True / False / "unknown"."""
        raise NotImplementedError

    def conjugate(self, sub: SubgroupHandle, g: Word, gens: tuple[Word, ...]) -> SubgroupHandle:
        """The handle sub^g, generated by gens = the conjugated generators."""
        return SubgroupHandle(sub.ctx, gens, None, Conjugate(sub, g))

    def coset_key(self, sub: SubgroupHandle):
        """Canonical key function of the left cosets g(sub), called with g's
        ``groups.element_key`` alone, or None when only pairwise membership
        comparison is available."""
        return None

    def index_of(self, sub: SubgroupHandle, j: SubgroupHandle):
        """[sub : j] for a handle j whose generators sub holds: an int, or
        None when it is infinite.  XPower and Folded read it exactly."""
        raise UnsupportedOraclePair(f"no index strategy for {j.membership.tag} inside {self.tag}")


class All(Oracle):
    tag = "all"

    def contains(self, sub, w):
        return True

    def conjugate(self, sub, g, gens):
        return sub


class Trivial(Oracle):
    tag = "trivial"

    def contains(self, sub, w):
        return groups.is_trivial(sub.ctx, w)

    def conjugate(self, sub, g, gens):
        return sub

    def coset_key(self, sub):
        return lambda g_key: g_key


class Table(Oracle):
    tag = "table"

    def contains(self, sub, w):
        return sub.coset_table.coset_of(w) == 0

    def conjugate(self, sub, g, gens):
        # the right-coset table of sub^g is sub's table re-rooted at (sub)g
        h = sub.coset_table
        table = groups.reachable_table(h.ngens, h.coset_of(g), lambda c, code: h.action[c][code])
        groups._validate_table(table, gens, sub.ctx.relators)
        return SubgroupHandle(sub.ctx, gens, table, self)

    def coset_key(self, sub):
        # the element key of g is its coset c in the regular table, reached
        # by the word reps[c]; g(sub) = g'(sub) iff (sub)g^-1 = (sub)g'^-1
        reps = groups.group_elements(sub.ctx)
        return lambda c: sub.coset_table.coset_of(invert(reps[c]))


class XPower(Oracle):
    """<x^k>^c in BS(m,n): t is a member iff c t c^-1 is a power of x^k."""

    _key = attrgetter("k", "conjugator")

    def __init__(self, k: int, conjugator: Word = Word(())):
        self.__dict__.update(k=k, conjugator=conjugator)

    @property
    def tag(self) -> str:
        return "conjugate" if self.conjugator else "x-power"

    def contains(self, sub, w):
        c = self.conjugator
        return bs.power_of_x_in(c * w * invert(c) if c else w, self.k, *sub.ctx.bs_params)

    def conjugate(self, sub, g, gens):
        return SubgroupHandle(sub.ctx, gens, None, XPower(self.k, self.conjugator * g))

    def coset_key(self, sub):
        k, ci = self.k, invert(self.conjugator).letters
        m, n = sub.ctx.bs_params

        def key(g_key):
            # g(sub) = g c^-1 <x^k> c: the Britton form of g c^-1 with the
            # free trailing exponent reduced mod k is canonical for the coset;
            # it is g's form key stepped by c^-1.
            head, tail = bs.resume(g_key, ci, m, n) if ci else g_key
            if not tail:
                return (head % k,)
            sign, last = tail[-1]
            return (head, tail[:-1], sign, last % k)

        return key

    def index_of(self, sub, j):
        # each generator of j is c^-1 x^(k t) c, and [sub : j] is the gcd of the t
        c = self.conjugator
        m, n = sub.ctx.bs_params
        return gcd(*(bs.britton_reduce(c * w * invert(c), m, n)[0] // self.k
                     for w in j.generators)) or None


class Lattice(Oracle):
    """Row span of ``rows``, a Hermite normal form, in Z^n."""

    tag = "lattice"
    _key = attrgetter("rows")

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self.__dict__.update(rows=rows)

    def contains(self, sub, w):
        return intlin.lattice_contains(self.rows, exponent_vector(w, sub.ctx.generator_count))

    def conjugate(self, sub, g, gens):
        # abelian ambient: conjugation fixes every subgroup
        return SubgroupHandle(sub.ctx, gens, None, self)

    def coset_key(self, sub):
        # g's element key in Z^n is its exponent vector
        return partial(intlin.lattice_residue, self.rows)


class Folded(Oracle):
    """A subgroup of a free group by its Stallings graph, the partial table
    of ``groups.fold`` attached to the handle: a reduced word reads at most
    one path from the base, and it is a member when it reads to the end at
    the base."""

    tag = "folded"

    def contains(self, sub, w):
        action, c = sub.coset_table.action, 0
        for index, sign in w.letters:
            c = action[c][2 * index + (sign < 0)]
            if c is None:
                return False
        return c == 0

    def conjugate(self, sub, g, gens):
        return free_subgroup(sub.ctx, gens)

    def coset_key(self, sub):
        action = sub.coset_table.action

        def key(letters):
            # g(sub) = g'(sub) iff (sub)g^-1 = (sub)g'^-1.  Reading g^-1 stops
            # at a vertex c with g's first n letters unread; the coset graph
            # hangs a tree off each missing edge, so (c, those letters) names
            # the coset, as the graph is folded.
            c, n = 0, len(letters)
            while n:
                index, sign = letters[n - 1]
                t = action[c][2 * index + (sign > 0)]
                if t is None:
                    break
                c, n = t, n - 1
            return c, letters[:n]

        return key

    def index_of(self, sub, j):
        # sub is free on its Schreier basis (Schreier 1927): j's generators,
        # read along sub's graph, are words in that basis, and the graph they
        # fold to is complete exactly when [sub : j] is finite, one vertex per coset
        action = sub.coset_table.action
        basis = {edge: n for n, edge in enumerate(_schreier_basis(sub.coset_table))}
        rewritten = []
        for w in j.generators:
            c, letters = 0, []
            for index, sign in w.letters:
                t = action[c][2 * index + (sign < 0)]
                n = basis.get((c, 2 * index) if sign > 0 else (t, 2 * index))
                if n is not None:
                    letters.append((n, sign))
                c = t
            rewritten.append(Word(letters))
        graph = groups.fold(len(basis), rewritten)
        return None if any(None in row for row in graph.action) else graph.coset_count


class AM(Oracle):
    tag = "a-m"
    _key = attrgetter("m")

    def __init__(self, m: int):
        self.__dict__.update(m=m)

    def contains(self, sub, w):
        exps = thompson.a_exponents(w)
        if not isinstance(exps, dict):
            return exps
        return all(n >= self.m for n in exps)


class Conjugate(Oracle):
    """inner^g for a handle whose oracle has no conjugation of its own."""

    tag = "conjugate"
    _key = attrgetter("inner", "g")

    def __init__(self, inner: SubgroupHandle, g: Word):
        self.__dict__.update(inner=inner, g=g)

    def contains(self, sub, w):
        return contains(self.inner, self.g * w * invert(self.g))

    def conjugate(self, sub, g, gens):
        return SubgroupHandle(sub.ctx, gens, None, Conjugate(self.inner, self.g * g))


def contains(sub: SubgroupHandle, w: Word):
    """w in sub: True / False / "unknown"."""
    return sub.membership.contains(sub, w)


def conjugate(sub: SubgroupHandle, g: Word) -> SubgroupHandle:
    """The handle for sub^g with membership t in sub^g iff g t g^-1 in sub."""
    if not g:
        return sub
    return sub.membership.conjugate(sub, g, tuple(invert(g) * w * g for w in sub.generators))


# ---------------------------------------------------------------------------
# constructors


def whole_group(ctx) -> SubgroupHandle:
    gens = tuple(generator(i) for i, sign in groups.signed_letters(ctx) if sign > 0)
    return SubgroupHandle(ctx, gens, None, All())


def trivial_subgroup(ctx) -> SubgroupHandle:
    return SubgroupHandle(ctx, (), None, Trivial())


def power_subgroup(ctx, k: int) -> SubgroupHandle:
    if ctx.oracle != "britton" or k < 1:
        raise ValueError("power_subgroup is the <x^k> handle of a BS context")
    return SubgroupHandle(ctx, (generator(0, k),), None, XPower(k))


def lattice_subgroup(ctx, vectors) -> SubgroupHandle:
    if ctx.oracle != "free-abelian":
        raise ValueError("lattice_subgroup needs a free-abelian context")
    n = ctx.generator_count
    rows = tuple(intlin.hermite_normal_form([tuple(v) for v in vectors], n))
    gens = tuple(_vector_word(row) for row in rows)
    return SubgroupHandle(ctx, gens, None, Lattice(rows))


def _vector_word(vec) -> Word:
    w = Word(())
    for i, e in enumerate(vec):
        if e:
            w = w * generator(i, e)
    return w


def free_subgroup(ctx, gens) -> SubgroupHandle:
    """The subgroup of a free group generated by gens, by its Stallings graph."""
    if ctx.oracle != "free":
        raise ValueError("free_subgroup needs a free context")
    gens = tuple(gens)
    return SubgroupHandle(ctx, gens, groups.fold(ctx.generator_count, gens), Folded())


def am_subgroup(ctx, m: int) -> SubgroupHandle:
    if ctx.oracle != "thompson-normal-form" or m < 0:
        raise ValueError("am_subgroup is the A_m handle of a Thompson context")
    gens = (thompson.a_generator(m), thompson.a_generator(m + 1))
    return SubgroupHandle(ctx, gens, None, AM(m))


def finite_subgroup(ctx, gens) -> SubgroupHandle:
    """Handle with an attached coset table (finite index established or raise)."""
    gens = tuple(gens)
    table = (groups.todd_coxeter(ctx, list(gens), groups.TABLE_LIMIT) if gens
             else groups.regular_table(ctx))
    if isinstance(table, groups.Incomplete):
        raise ValueError(f"coset enumeration incomplete at {table.limit} live cosets")
    return SubgroupHandle(ctx, gens, table, Table())


def subgroup_from_words(ctx, ws) -> SubgroupHandle:
    """The handle with the richest membership oracle the context supports for
    the subgroup generated by ws; ValueError when it supports none."""
    if all(not w for w in ws):
        return trivial_subgroup(ctx)
    if ctx.oracle == "coset-table":
        return finite_subgroup(ctx, ws)
    if ctx.oracle == "free-abelian":
        return lattice_subgroup(ctx, [exponent_vector(w, ctx.generator_count) for w in ws])
    if ctx.oracle == "free":
        return free_subgroup(ctx, ws)
    if ctx.oracle == "britton" and len(ws) == 1:
        handle = _britton_subgroup(ctx, ws[0])
        if handle is not None:
            return handle
    raise ValueError(f"no membership oracle for this generating set under "
                     f"the {ctx.oracle!r} context")


def _britton_subgroup(ctx, w: Word):
    """Conjugates of powers of x are the decidable one-generator case."""
    m, n = ctx.bs_params
    head, tail = bs.britton_reduce(w, m, n)
    if not tail:
        return trivial_subgroup(ctx) if head == 0 else power_subgroup(ctx, abs(head))
    c, core = cyclic_peel(w)
    head, tail = bs.britton_reduce(core, m, n)
    if not c or tail or head == 0:
        return None
    return conjugate(power_subgroup(ctx, abs(head)), invert(c))


# ---------------------------------------------------------------------------
# index


def _ambient_letters(ctx) -> list[Word]:
    return [generator(*letter) for letter in groups.signed_letters(ctx)]


def _coset_bfs_count(sub: SubgroupHandle, bound: int):
    """Count left cosets of sub in its whole ambient group by BFS; exact
    count when the ball closes within bound, else INFINITE_OR_EXCEEDS.
    The index counts right cosets as well: g -> g^-1 maps the left cosets
    g(sub) with |g| <= r onto the right cosets (sub)g^-1 with |g^-1| <= r,
    so both sides have as many cosets within each distance.  Cosets are
    told apart by sub's coset key, else pairwise by membership, where a
    coset taken as new under "unknown" makes the count inexact.  Each level
    before the ball closes adds a coset, so bound levels decide."""
    index = CosetIndex(sub, "left", sub.membership.coset_key(sub))
    letters = _ambient_letters(sub.ctx)
    # s(g(sub)) is the coset of s g: step a coset from its first representative
    cosets = words.ball_tree([lambda c, s=s: index.add(s * index.representatives[c])
                              for s in letters], bound, index.add(Word(())))
    for count, _ in enumerate(cosets):
        if count == bound:
            return INFINITE_OR_EXCEEDS
    return INFINITE_OR_EXCEEDS if index.undecided else len(index.representatives)


def index_bounded(sub: SubgroupHandle, ambient: SubgroupHandle, bound: int):
    """Index of sub in ambient, which must hold sub's generators.  Coset
    tables, lattices and the ambient's ``index_of`` read it exactly: an int,
    or None when it is infinite.  A whole group with none of these counts
    cosets by search, and ``bound`` caps only that search
    (INFINITE_OR_EXCEEDS)."""
    for w in sub.generators:
        if contains(ambient, w) is False:
            raise ValueError("sub generator outside the ambient subgroup")
    if sub == ambient or not ambient.generators:  # no generators: trivial
        return 1
    ctx = ambient.ctx
    if ctx.oracle == "coset-table":
        isub, iamb = _table_index(sub), _table_index(ambient)
        if isub % iamb:
            raise ValueError("inconsistent tables: indices not multiplicative")
        return isub // iamb
    if ctx.oracle == "free-abelian":
        return intlin.lattice_index(_lattice_rows(sub), _lattice_rows(ambient), ctx.generator_count)
    if isinstance(ambient.membership, All):
        return _coset_bfs_count(sub, bound)
    return ambient.membership.index_of(ambient, sub)


def _table_index(sub: SubgroupHandle) -> int:
    """[G : sub] in a coset-table context: 1 for the whole group, else the
    coset count of sub's table (the regular table for the trivial group)."""
    return 1 if isinstance(sub.membership, All) else _ensure_table(sub).coset_table.coset_count


def _ensure_table(sub: SubgroupHandle) -> SubgroupHandle:
    """Attach a coset table in a finite coset-table context (idempotent)."""
    return sub if sub.coset_table is not None else finite_subgroup(sub.ctx, sub.generators)


def _lattice_rows(sub: SubgroupHandle):
    """Hermite rows of sub in a free-abelian context: a lattice handle's
    own, else the Hermite form of the generators' exponent vectors."""
    if isinstance(sub.membership, Lattice):
        return sub.membership.rows
    n = sub.ctx.generator_count
    return intlin.hermite_normal_form([exponent_vector(w, n) for w in sub.generators], n)


# ---------------------------------------------------------------------------
# intersection


def _x_power_meet(h: SubgroupHandle, k: SubgroupHandle) -> tuple[int, int]:
    """(a, b): h = <x^kh>^ch and k = <x^kk>^ck meet in <x^a>^ch, and
    ck ch^-1 x^a ch ck^-1 = x^b, so the meet has index a / kh in h and
    b / kk in k.  Both are infinite cyclic and BS(m,n) commensurates <x>,
    so a is the least common power, read from the lattice (l, q) of
    w = ck ch^-1, and b = q a / l; a grows exponentially in len(w)."""
    kh, ch = h.membership.k, h.membership.conjugator
    kk, ck = k.membership.k, k.membership.conjugator
    w = ck * invert(ch)
    l, q = lattice = bs.x_power_lattice(w, *h.ctx.bs_params)
    a = bs.least_power(lattice, kk, step=kh)
    return a, q * a // l


def _intersect_x_powers(h: SubgroupHandle, k: SubgroupHandle) -> SubgroupHandle:
    a, ch = _x_power_meet(h, k)[0], h.membership.conjugator
    return SubgroupHandle(h.ctx, (invert(ch) * generator(0, a) * ch,), None, XPower(a, ch))


def _fiber_product(h: SubgroupHandle, k: SubgroupHandle) -> SubgroupHandle:
    """Reachable fiber product of two coset tables, closed or partial: the
    table of h intersect k (of two Stallings graphs, Stallings' pullback),
    with h's oracle, Table or Folded.  Its generators are the Schreier
    words that the group does not make trivial, one per element."""
    ta, tb = h.coset_table.action, k.coset_table.action

    def step(ij, code):
        i, j = ta[ij[0]][code], tb[ij[1]][code]
        return None if i is None or j is None else (i, j)

    table = groups.reachable_table(h.coset_table.ngens, (0, 0), step)
    gens = {}
    for g in _schreier_basis(table).values():
        if groups.is_trivial(h.ctx, g) is not True:
            gens.setdefault(groups.element_key(h.ctx, g), g)
    return SubgroupHandle(h.ctx, tuple(gens.values()), table, h.membership)


def _schreier_basis(table: groups.CosetTable) -> dict:
    """{(c, code): w} per edge of the table off the representatives' tree,
    code a generator's column and w = reps[c] x reps[cx]^-1, not empty:
    the words generate the stabilizer of coset 0, and freely in a free
    group (Schreier).  The inverse columns read the same edges backwards."""
    reps, basis = table.representatives, {}
    for c, row in enumerate(table.action):
        for code in range(0, 2 * table.ngens, 2):
            t = row[code]
            if t is not None and (w := reps[c] * generator(code // 2) * invert(reps[t])):
                basis[c, code] = w
    return basis


# The strategies that read both oracles, by (type of h's, type of k's).
_PAIR_INTERSECTIONS = {
    (XPower, XPower): _intersect_x_powers,
    (Folded, Folded): _fiber_product,
    (AM, AM): lambda h, k: am_subgroup(h.ctx, max(h.membership.m, k.membership.m)),
}


def intersect(h: SubgroupHandle, k: SubgroupHandle) -> SubgroupHandle:
    """Handle whose membership is the conjunction of the two memberships."""
    if h.ctx != k.ctx:
        raise ValueError("handles live in different group contexts")
    if h == k:
        return h
    if isinstance(h.membership, All):
        return k
    if isinstance(k.membership, All):
        return h
    if isinstance(h.membership, Trivial) or isinstance(k.membership, Trivial):
        return trivial_subgroup(h.ctx)
    pair = _PAIR_INTERSECTIONS.get((type(h.membership), type(k.membership)))
    if pair is not None:
        return pair(h, k)
    if h.ctx.oracle == "free-abelian":
        n = h.ctx.generator_count
        rows = intlin.lattice_intersect(_lattice_rows(h), _lattice_rows(k), n)
        return lattice_subgroup(h.ctx, rows)
    if h.ctx.oracle == "coset-table":
        return _fiber_product(_ensure_table(h), _ensure_table(k))
    raise UnsupportedOraclePair(
        f"no intersection strategy for ({h.membership.tag}, {k.membership.tag})")


# ---------------------------------------------------------------------------
# commensurability


def commensurability_report(h: SubgroupHandle, k: SubgroupHandle, bound: int) -> dict:
    """{result, indices, certificate}: True with [H : H n K] and [K : H n K]
    when both are finite, False when one is infinite, "unknown" only for an
    oracle pair with no strategy or a coset search that the bound stopped."""
    try:
        if h.ctx == k.ctx and isinstance(h.membership, XPower) and isinstance(k.membership, XPower):
            # exact, in integers: the meet's generator can be too long to
            # write out, and no search runs for the bound to cap
            a, b = _x_power_meet(h, k)
            indices = [a // h.membership.k, b // k.membership.k]
        else:
            j = intersect(h, k)
            indices = [index_bounded(j, h, bound), index_bounded(j, k, bound)]
    except UnsupportedOraclePair as exc:
        return {"result": "unknown", "indices": None, "certificate": str(exc)}
    if None in indices:
        return {"result": False, "indices": None,
                "certificate": "the intersection has infinite index in an operand"}
    if INFINITE_OR_EXCEEDS in indices:
        return {"result": "unknown", "indices": None,
                "certificate": f"a coset search stopped at the bound {bound}"}
    return {"result": True, "indices": indices, "certificate": None}


def is_commensurable(h: SubgroupHandle, k: SubgroupHandle, bound: int):
    return commensurability_report(h, k, bound)["result"]


def in_commensurator(h: SubgroupHandle, g: Word, bound: int):
    return is_commensurable(h, conjugate(h, g), bound)


def near_normal_on(h: SubgroupHandle, gens, bound: int):
    """Checks commensurator membership for every listed generator and its
    inverse; sufficient when the list generates the ambient group, because
    the commensurator is a subgroup."""
    saw_unknown = False
    for g in gens:
        for cand in (g, invert(g)):
            verdict = in_commensurator(h, cand, bound)
            if verdict is False:
                return False
            if verdict == "unknown":
                saw_unknown = True
    return "unknown" if saw_unknown else True


# ---------------------------------------------------------------------------
# disjoint translate (finite unions of cosets can be pushed off themselves)


def neumann_translate(x_set: CosetSet, search_radius: int):
    """Least word g (shortlex over generator letters, smallest radius first)
    with (X)g disjoint from X, for X a finite union of right cosets; None
    when the search radius is exhausted."""
    if x_set.side != "right":
        raise ValueError("translation acts on the right: X must hold right cosets")
    sub = x_set.base
    # keyed by letters, a product is new exactly when it does not cancel
    letters = _ambient_letters(sub.ctx)
    for g, r, _ in words.ball(letters, search_radius, (), [words.free_step(s) for s in letters]):
        if r and _translate_disjoint(sub, x_set.representatives, g):
            return g
    return None


def _translate_disjoint(sub: SubgroupHandle, reps, g: Word) -> bool:
    for ti in reps:
        for tj in reps:
            if contains(sub, ti * g * invert(tj)) is not False:
                return False
    return True
