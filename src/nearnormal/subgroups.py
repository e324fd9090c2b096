"""Subgroup handles: conjugates, intersections, bounded indices, and the
relations built on them (commensurability, commensurator membership,
near-normality), plus the disjoint-coset-translate search.

A handle pairs a finite generator list with a membership oracle, declared
per fixture, never inferred.  Each oracle is one small class that owns
membership, conjugation, the right-coset key and the cyclic coordinate; its
tag names it in certificates:

    All             "all"          whole-group handle
    Trivial         "trivial"      trivial subgroup (word-problem oracle)
    Table           "table"        membership via the attached coset table
    Bare            "bare"         generators only: decides the empty word
    XPower(k, c)    "x-power"      <x^k>^c in BS(m,n); "conjugate" if c != 1
    Lattice(rows)   "lattice"      row-span sublattice of Z^n (free-abelian)
    FreeCyclic(u)   "free-cyclic"  <u> in a free group (root arithmetic)
    AM(m)           "a-m"          the subgroup A_m of Thompson's F
    Conjugate(h, g) "conjugate"    h^g, i.e. t in h^g  iff  g t g^-1 in h

Only ``intersect`` reads two oracles at once, through its table of pairs.

Everything bounded is three-valued: True / False / "unknown", never a guess.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from math import gcd, lcm
from typing import ClassVar

from . import _intlinalg as intlin
from . import baumslag_solitar as bs
from . import groups, thompson
from .words import Word, exponent_vector, generator, invert, word_key

INFINITE_OR_EXCEEDS = "infinite-or-exceeds"


class UnsupportedOraclePair(ValueError):
    pass


@dataclass(frozen=True)
class SubgroupHandle:
    ctx: groups.GroupContext
    generators: tuple[Word, ...]
    coset_table: groups.CosetTable | None
    membership: Oracle

    def __post_init__(self):
        if self.coset_table is not None:
            for w in self.generators:
                if self.coset_table.coset_of(w) != 0:
                    raise ValueError("generator moves the base coset of the attached table")
        for w in self.generators:
            if contains(self, w) is False:
                raise ValueError("membership oracle rejects a listed generator")


@dataclass(frozen=True)
class CosetSet:
    """Finite union of cosets of one subgroup; side 'right' holds cosets Hg,
    side 'left' holds cosets gH."""

    base: SubgroupHandle
    representatives: tuple[Word, ...]
    side: str = "right"

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        reps = self.representatives
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if same_coset(self.base, reps[i], reps[j], self.side) is True:
                    raise ValueError("representatives are not in distinct cosets")


def same_coset(sub: SubgroupHandle, g1: Word, g2: Word, side: str):
    if side == "right":
        return contains(sub, g2 * invert(g1))
    return contains(sub, invert(g1) * g2)


# ---------------------------------------------------------------------------
# oracles


class Oracle:
    """Membership oracle of the handle ``sub`` passed to each method; each
    subclass is a frozen dataclass, so oracles compare and hash by value."""

    tag: ClassVar[str]

    def contains(self, sub: SubgroupHandle, w: Word):
        """w in sub: True / False / "unknown"."""
        raise NotImplementedError

    def conjugate(self, sub: SubgroupHandle, g: Word, gens: tuple[Word, ...]) -> SubgroupHandle:
        """The handle sub^g, generated by gens = the conjugated generators."""
        return SubgroupHandle(sub.ctx, gens, None, Conjugate(sub, g))

    def coset_key(self, sub: SubgroupHandle):
        """Canonical key function of the right cosets (sub)g, or None when
        only pairwise membership comparison is available."""
        return None

    def cyclic_coordinate(self, sub: SubgroupHandle):
        """When sub is infinite cyclic: the function w -> t with w = c^t for
        its generator c, None when w is outside sub.  Else None."""
        return None


@dataclass(frozen=True)
class All(Oracle):
    tag = "all"

    def contains(self, sub, w):
        return True

    def conjugate(self, sub, g, gens):
        return sub


@dataclass(frozen=True)
class Trivial(Oracle):
    tag = "trivial"

    def contains(self, sub, w):
        return groups.is_trivial(sub.ctx, w)

    def conjugate(self, sub, g, gens):
        return sub

    def coset_key(self, sub):
        return partial(groups.element_key, sub.ctx)


@dataclass(frozen=True)
class Table(Oracle):
    tag = "table"

    def contains(self, sub, w):
        return sub.coset_table.coset_of(w) == 0

    def conjugate(self, sub, g, gens):
        return finite_subgroup(sub.ctx, gens)

    def coset_key(self, sub):
        return sub.coset_table.coset_of


@dataclass(frozen=True)
class Bare(Oracle):
    tag = "bare"

    def contains(self, sub, w):
        return True if not w else "unknown"


@dataclass(frozen=True)
class XPower(Oracle):
    """<x^k>^c in BS(m,n): t is a member iff c t c^-1 is a power of x^k."""

    k: int
    conjugator: Word = Word(())

    @property
    def tag(self) -> str:
        return "conjugate" if self.conjugator else "x-power"

    def contains(self, sub, w):
        c = self.conjugator
        return bs.power_of_x_in(c * w * invert(c) if c else w, self.k, *sub.ctx.bs_params)

    def conjugate(self, sub, g, gens):
        return SubgroupHandle(sub.ctx, gens, None, XPower(self.k, self.conjugator * g))

    def coset_key(self, sub):
        k, c = self.k, self.conjugator
        m, n = sub.ctx.bs_params

        def key(g):
            # (sub)g -> g^-1(sub): Britton form of g^-1 c^-1 with the free
            # trailing exponent reduced mod k is canonical for the coset.
            form = bs.britton_reduce(invert(c * g), m, n)
            if not form.tail:
                return (form.head % k,)
            sign, last = form.tail[-1]
            return (form.head, form.tail[:-1], sign, last % k)

        return key

    def cyclic_coordinate(self, sub):
        k, c = self.k, self.conjugator
        m, n = sub.ctx.bs_params

        def coordinate(w):
            if not w:
                return 0
            form = bs.britton_reduce(c * w * invert(c), m, n)
            if not form.is_power_of_x() or form.head % k:
                return None
            return form.head // k

        return coordinate


@dataclass(frozen=True)
class Lattice(Oracle):
    """Row span of ``rows``, a Hermite normal form, in Z^n."""

    rows: tuple[tuple[int, ...], ...]
    tag = "lattice"

    def contains(self, sub, w):
        return intlin.lattice_contains(self.rows, exponent_vector(w, sub.ctx.generator_count))

    def conjugate(self, sub, g, gens):
        # abelian ambient: conjugation fixes every subgroup
        return SubgroupHandle(sub.ctx, gens, None, self)

    def coset_key(self, sub):
        n = sub.ctx.generator_count
        return lambda g: intlin.lattice_residue(self.rows, exponent_vector(g, n))

    def cyclic_coordinate(self, sub):
        if len(self.rows) != 1:
            return None
        n = sub.ctx.generator_count

        def coordinate(w):
            coords = intlin.coords_in(self.rows, exponent_vector(w, n))
            return None if coords is None else coords[0]

        return coordinate


@dataclass(frozen=True)
class FreeCyclic(Oracle):
    u: Word
    tag = "free-cyclic"

    def contains(self, sub, w):
        return self._coordinate(w) is not None if self.u else not w

    def conjugate(self, sub, g, gens):
        return SubgroupHandle(sub.ctx, gens, None, FreeCyclic(invert(g) * self.u * g))

    def coset_key(self, sub):
        """Key of the right coset <u>g.

        With u = c r^k c^-1 and h = c^-1 g, left multiplication by c^-1 maps
        <u>g to the coset <r^k>h, whose elements are r^j h for k | j; the key
        is the letters of its shortlex-least element.  As r is cyclically
        reduced, |r^j h| >= |j||r| - |h|, which exceeds |h| = |r^0 h| once
        |j||r| > 2|h|, so the least element has |j||r| <= 2|h|."""
        if not self.u:
            return lambda g: g.letters
        c, r, k = _root_parts(self.u)
        ci = invert(c)
        period = len(r)
        forward, backward = r.letters * k, invert(r).letters * k

        def key(g):
            h = ci * g
            steps = 2 * len(h) // (period * k)
            best = h
            for i in range(1, steps + 1):
                for step in (forward, backward):
                    cand = Word(step * i + h.letters)
                    if word_key(cand) < word_key(best):
                        best = cand
            return best.letters

        return key

    def cyclic_coordinate(self, sub):
        return self._coordinate if self.u else None

    def _coordinate(self, w):
        if not w:
            return 0
        ru, ku = free_root(self.u)
        rw, kw = free_root(w)
        if rw == ru and kw % ku == 0:
            return kw // ku
        if rw == invert(ru) and kw % ku == 0:
            return -kw // ku
        return None


@dataclass(frozen=True)
class AM(Oracle):
    m: int
    tag = "a-m"

    def contains(self, sub, w):
        if not w:
            return True
        index_bound = max(i for i, _ in w.letters) + len(w.letters) + 4
        exps = thompson.a_exponents(w, index_bound=index_bound)
        if not isinstance(exps, dict):
            return exps
        return all(n >= self.m for n in exps)


@dataclass(frozen=True)
class Conjugate(Oracle):
    """inner^g for a handle whose oracle has no conjugation of its own."""

    inner: SubgroupHandle
    g: Word
    tag = "conjugate"

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


def subgroup(ctx, gens, membership: Oracle | None = None, coset_table=None) -> SubgroupHandle:
    if membership is None:
        membership = Bare() if coset_table is None else Table()
    return SubgroupHandle(ctx, tuple(gens), coset_table, membership)


def whole_group(ctx) -> SubgroupHandle:
    names = ctx.generator_count
    count = 2 if names is None else names
    return SubgroupHandle(ctx, tuple(generator(i) for i in range(count)), None, All())


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


def free_cyclic_subgroup(ctx, u: Word) -> SubgroupHandle:
    if ctx.oracle != "free":
        raise ValueError("free_cyclic_subgroup needs a free context")
    gens = (u,) if u else ()
    return SubgroupHandle(ctx, gens, None, FreeCyclic(u))


def am_subgroup(ctx, m: int) -> SubgroupHandle:
    if ctx.oracle != "thompson-normal-form" or m < 0:
        raise ValueError("am_subgroup is the A_m handle of a Thompson context")
    gens = (thompson.a_generator(m), thompson.a_generator(m + 1))
    return SubgroupHandle(ctx, gens, None, AM(m))


def finite_subgroup(ctx, gens) -> SubgroupHandle:
    """Handle with an attached coset table (finite index established or raise)."""
    gens = tuple(gens)
    table = groups.todd_coxeter(ctx, list(gens), ctx.table_limit)
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
    if ctx.oracle == "free" and len(ws) == 1:
        return free_cyclic_subgroup(ctx, ws[0])
    if ctx.oracle == "britton" and len(ws) == 1:
        handle = _britton_subgroup(ctx, ws[0])
        if handle is not None:
            return handle
    raise ValueError(f"no membership oracle for this generating set under "
                     f"the {ctx.oracle!r} context")


def _britton_subgroup(ctx, w: Word):
    """Conjugates of powers of x are the decidable one-generator case."""
    m, n = ctx.bs_params
    form = bs.britton_reduce(w, m, n)
    if form.is_power_of_x():
        return trivial_subgroup(ctx) if form.head == 0 else power_subgroup(ctx, abs(form.head))
    c, core = _peel(w)
    form = bs.britton_reduce(core, m, n)
    if not c or not form.is_power_of_x() or form.head == 0:
        return None
    return conjugate(power_subgroup(ctx, abs(form.head)), invert(c))


# ---------------------------------------------------------------------------
# free roots


def _peel(w: Word) -> tuple[Word, Word]:
    """(c, core) with w = c core c^-1 in the free group, core cyclically reduced."""
    letters = w.letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == (letters[j - 1][0], -letters[j - 1][1]):
        i, j = i + 1, j - 1
    return Word(_reduced=letters[:i]), Word(_reduced=letters[i:j])


def _root_parts(w: Word) -> tuple[Word, Word, int]:
    """(c, r, k) with w = c r^k c^-1 in the free group, r cyclically reduced
    and not a proper power; (1, 1, 0) for w = 1."""
    c, core = _peel(w)
    letters, size = core.letters, len(core)
    for p in range(1, size + 1):
        if size % p == 0 and letters == letters[:p] * (size // p):
            return c, Word(_reduced=letters[:p]), size // p
    return c, core, 0


def free_root(w: Word) -> tuple[Word, int]:
    """(r, k) with w = r^k in the free group, r not a proper power; k=0 for 1."""
    conj, r, k = _root_parts(w)
    return conj * r * invert(conj), k


# ---------------------------------------------------------------------------
# index


def _ambient_letters(ctx) -> list[Word]:
    return [generator(*letter) for letter in groups.signed_letters(ctx)]


def _coset_bfs_count(sub: SubgroupHandle, bound: int):
    """Count right cosets of sub in its whole ambient group by BFS; exact
    count when the ball closes within bound, else INFINITE_OR_EXCEEDS.
    Cosets are told apart by sub's coset key, else pairwise by membership,
    where any "unknown" makes the count inexact."""
    key_fn = sub.membership.coset_key(sub)
    letters = _ambient_letters(sub.ctx)
    reps: list[Word] = [Word(())]
    keys = None if key_fn is None else {key_fn(Word(()))}
    exact = True
    frontier = [Word(())]
    while frontier:
        nxt = []
        for rep in frontier:
            for letter in letters:
                cand = rep * letter
                if keys is not None:
                    key = key_fn(cand)
                    fresh = key not in keys
                    keys.add(key)
                else:
                    fresh = True
                    for known in reps:
                        verdict = same_coset(sub, known, cand, "right")
                        if verdict is True:
                            fresh = False
                            break
                        if verdict == "unknown":
                            exact = False
                if fresh:
                    if len(reps) >= bound:
                        return INFINITE_OR_EXCEEDS
                    reps.append(cand)
                    nxt.append(cand)
        frontier = nxt
    return len(reps) if exact else INFINITE_OR_EXCEEDS


def _capped(index, bound: int):
    return index if index is not None and index <= bound else INFINITE_OR_EXCEEDS


def index_bounded(sub: SubgroupHandle, ambient: SubgroupHandle, bound: int):
    """Exact index of sub in ambient when established and <= bound, else
    INFINITE_OR_EXCEEDS.  Requires sub's generators inside ambient."""
    for w in sub.generators:
        if contains(ambient, w) is False:
            raise ValueError("sub generator outside the ambient subgroup")
    if sub == ambient:
        return 1
    ctx = ambient.ctx
    whole = isinstance(ambient.membership, All)
    if whole and ctx.oracle == "coset-table":
        table = groups.todd_coxeter(ctx, list(sub.generators), max(4 * bound, 64))
        return _capped(None if isinstance(table, groups.Incomplete) else table.coset_count, bound)
    if whole and ctx.oracle != "free-abelian":  # Z^n takes the lattice index below
        return _coset_bfs_count(sub, bound)
    coordinate = ambient.membership.cyclic_coordinate(ambient)
    if coordinate is not None:
        coords = [coordinate(w) for w in sub.generators]
        if any(c is None for c in coords):
            raise ValueError("sub generator outside the ambient subgroup")
        return _capped(gcd(*coords) or None, bound)
    # both finite-index in a coset-table group: divide whole-group indices
    if ctx.oracle == "coset-table":
        isub = _ensure_table(sub).coset_table.coset_count
        iamb = _ensure_table(ambient).coset_table.coset_count
        if isub % iamb:
            raise ValueError("inconsistent tables: indices not multiplicative")
        return _capped(isub // iamb, bound)
    if ctx.oracle == "free-abelian":
        n = ctx.generator_count
        return _capped(intlin.lattice_index(_lattice_rows(sub), _lattice_rows(ambient), n), bound)
    raise UnsupportedOraclePair(
        f"no index strategy for {sub.membership.tag} inside {ambient.membership.tag}")


def _ensure_table(sub: SubgroupHandle) -> SubgroupHandle:
    """Attach a coset table in a finite coset-table context (idempotent)."""
    if sub.coset_table is not None:
        return sub
    if sub.ctx.oracle != "coset-table":
        raise UnsupportedOraclePair("no coset table available for this handle")
    return finite_subgroup(sub.ctx, sub.generators)


def _lattice_rows(sub: SubgroupHandle):
    """Hermite form of the generators' exponent vectors in a free-abelian
    context; a lattice handle's generators are its own Hermite rows."""
    n = sub.ctx.generator_count
    return intlin.hermite_normal_form([exponent_vector(w, n) for w in sub.generators], n)


# ---------------------------------------------------------------------------
# intersection


_CYCLIC_SCAN_BOUND = 10_000


def _intersect_x_powers(h: SubgroupHandle, k: SubgroupHandle) -> SubgroupHandle:
    """<x^lcm> when neither is conjugated; else the subgroup generated by
    the least common power, found by a bounded scan (each handle is infinite
    cyclic, so any member subgroup is determined by its least positive
    element)."""
    kh, ch = h.membership.k, h.membership.conjugator
    kk, ck = k.membership.k, k.membership.conjugator
    if not ch and not ck:
        return power_subgroup(h.ctx, lcm(kh, kk))
    # ch^-1 x^a ch (in h when kh | a) lies in k iff w x^a w^-1 is a power
    # of x^kk, w = ck ch^-1.
    a = bs.least_power(ck * invert(ch), kk, _CYCLIC_SCAN_BOUND, *h.ctx.bs_params, step=kh)
    if a is None:
        raise UnsupportedOraclePair(
            f"no common power found within the scan bound {_CYCLIC_SCAN_BOUND}")
    return SubgroupHandle(h.ctx, (invert(ch) * generator(0, a) * ch,), None, XPower(a, ch))


def _intersect_free_cyclic(h: SubgroupHandle, k: SubgroupHandle) -> SubgroupHandle:
    u, v = h.membership.u, k.membership.u
    if not u or not v:
        return trivial_subgroup(h.ctx)
    ru, ku = free_root(u)
    rv, kv = free_root(v)
    if rv not in (ru, invert(ru)):
        return trivial_subgroup(h.ctx)
    return free_cyclic_subgroup(h.ctx, ru ** lcm(ku, kv))


# The strategies that read both oracles, by (type of h's, type of k's).
_PAIR_INTERSECTIONS = {
    (XPower, XPower): _intersect_x_powers,
    (FreeCyclic, FreeCyclic): _intersect_free_cyclic,
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


def _fiber_product(h: SubgroupHandle, k: SubgroupHandle) -> SubgroupHandle:
    """Reachable fiber product of two coset tables: the table of h intersect k."""
    ta, tb = h.coset_table, k.coset_table
    ngens = ta.ngens
    codes = list(range(2 * ngens))
    order: dict[tuple[int, int], int] = {(0, 0): 0}
    reps = [Word(())]
    rows = []
    queue = deque([(0, 0)])
    while queue:
        i, j = queue.popleft()
        row = []
        for code in codes:
            target = (ta.action[i][code], tb.action[j][code])
            if target not in order:
                order[target] = len(order)
                reps.append(reps[order[(i, j)]] * generator(*groups._code_letter(code)))
                queue.append(target)
            row.append(order[target])
        rows.append(row)
    table = groups.CosetTable(ngens=ngens, action=tuple(tuple(r) for r in rows),
                              representatives=tuple(reps))
    # Schreier generators of the base-point stabilizer
    gens = []
    seen_keys = set()
    for state, idx in order.items():
        for code in codes:
            target = rows[idx][code]
            g = reps[idx] * generator(*groups._code_letter(code)) * invert(reps[target])
            if g and table.coset_of(g) == 0 and groups.is_trivial(h.ctx, g) is not True:
                key = groups.element_key(h.ctx, g)
                if key not in seen_keys:
                    seen_keys.add(key)
                    gens.append(g)
    return SubgroupHandle(h.ctx, tuple(gens), table, Table())


# ---------------------------------------------------------------------------
# commensurability


def commensurability_report(h: SubgroupHandle, k: SubgroupHandle, bound: int) -> dict:
    """{result: True|False|"unknown", indices, certificate}."""
    if h.ctx.oracle == "free-abelian":
        n = h.ctx.generator_count
        rh, rk = _lattice_rows(h), _lattice_rows(k)
        ri = intlin.lattice_intersect(rh, rk, n)
        if len(ri) < max(len(rh), len(rk)):
            return {"result": False, "indices": None,
                    "certificate": f"lattice ranks: intersection {len(ri)}, "
                                   f"operands {len(rh)} and {len(rk)}"}
    if isinstance(h.membership, FreeCyclic) and isinstance(k.membership, FreeCyclic):
        verdict = _free_commensurable(h.membership.u, k.membership.u)
        if verdict is not None:
            return verdict
    try:
        j = intersect(h, k)
        i1 = index_bounded(j, h, bound)
        i2 = index_bounded(j, k, bound)
    except UnsupportedOraclePair as exc:
        return {"result": "unknown", "indices": None, "certificate": str(exc)}
    if i1 == INFINITE_OR_EXCEEDS or i2 == INFINITE_OR_EXCEEDS:
        return {"result": "unknown", "indices": None,
                "certificate": f"an index exceeds the bound {bound}"}
    return {"result": True, "indices": [i1, i2], "certificate": None}


def _free_commensurable(u: Word, v: Word):
    if not u and not v:
        return {"result": True, "indices": [1, 1], "certificate": None}
    if not u or not v:
        return {"result": False, "indices": None,
                "certificate": "one side is trivial, the other infinite cyclic"}
    ru, _ = free_root(u)
    rv, _ = free_root(v)
    if ru != rv and ru != invert(rv):
        return {"result": False, "indices": None,
                "certificate": "distinct free roots: intersection is trivial "
                               "but both subgroups are infinite cyclic"}
    return None


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
    reps = x_set.representatives
    letters = _ambient_letters(sub.ctx)
    frontier = [Word(())]
    for _ in range(search_radius):
        nxt = []
        for stem in frontier:
            for letter in letters:
                cand = stem * letter
                if len(cand.letters) != len(stem.letters) + 1:
                    continue  # not freely reduced: already visited
                nxt.append(cand)
                if _translate_disjoint(sub, reps, cand):
                    return cand
        frontier = nxt
    return None


def _translate_disjoint(sub: SubgroupHandle, reps, g: Word) -> bool:
    for ti in reps:
        for tj in reps:
            if contains(sub, ti * g * invert(tj)) is not False:
                return False
    return True
