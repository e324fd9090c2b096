"""Subgroup handles: conjugates, intersections, bounded indices, and the
relations built on them (commensurability, commensurator membership,
near-normality), plus the disjoint-coset-translate search.

A handle pairs a finite generator list with an optional direct membership
oracle.  Oracles are declared per fixture, never inferred:

    ("all",)                whole-group handle
    ("trivial",)            trivial subgroup (membership = word-problem oracle)
    ("table",)              membership via the attached coset table
    ("x-power", k)          <x^k> in a BS(m,n) context
    ("lattice", rows)       row-span sublattice of Z^n (free-abelian context)
    ("free-cyclic", u)      <u> in a free group (syntactic root arithmetic)
    ("a-m", m)              the diagonal-generator subgroup A_m of Thompson's F
    ("conjugate", h, g)     h^g, i.e. t in h^g  iff  g t g^-1 in h

Everything bounded is three-valued: True / False / "unknown", never a guess.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

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
    coset_table: groups.CosetTable | None = None
    membership: tuple | None = None

    def __post_init__(self):
        if self.coset_table is not None:
            for w in self.generators:
                if self.coset_table.coset_of(w) != 0:
                    raise ValueError("generator moves the base coset of the attached table")
        if self.membership is not None:
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
# constructors


def subgroup(ctx, gens, membership=None, coset_table=None) -> SubgroupHandle:
    return SubgroupHandle(ctx, tuple(gens), coset_table, membership)


def whole_group(ctx) -> SubgroupHandle:
    names = ctx.generator_count
    count = 2 if names is None else names
    return SubgroupHandle(ctx, tuple(generator(i) for i in range(count)), None, ("all",))


def trivial_subgroup(ctx) -> SubgroupHandle:
    return SubgroupHandle(ctx, (), None, ("trivial",))


def power_subgroup(ctx, k: int) -> SubgroupHandle:
    if ctx.oracle != "britton" or k < 1:
        raise ValueError("power_subgroup is the <x^k> handle of a BS context")
    return SubgroupHandle(ctx, (generator(0, k),), None, ("x-power", k))


def lattice_subgroup(ctx, vectors) -> SubgroupHandle:
    if ctx.oracle != "free-abelian":
        raise ValueError("lattice_subgroup needs a free-abelian context")
    n = ctx.generator_count
    rows = intlin.hermite_normal_form([tuple(v) for v in vectors], n)
    gens = tuple(_vector_word(row) for row in rows)
    return SubgroupHandle(ctx, gens, None, ("lattice", rows))


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
    return SubgroupHandle(ctx, gens, None, ("free-cyclic", u))


def am_subgroup(ctx, m: int) -> SubgroupHandle:
    if ctx.oracle != "thompson-normal-form" or m < 0:
        raise ValueError("am_subgroup is the A_m handle of a Thompson context")
    gens = (thompson.a_generator(m), thompson.a_generator(m + 1))
    return SubgroupHandle(ctx, gens, None, ("a-m", m))


def finite_subgroup(ctx, gens, limit: int | None = None) -> SubgroupHandle:
    """Handle with an attached coset table (finite index established or raise)."""
    gens = tuple(gens)
    table = groups.todd_coxeter(ctx, list(gens), ctx.table_limit if limit is None else limit)
    if isinstance(table, groups.Incomplete):
        raise ValueError(f"coset enumeration incomplete at {table.limit} live cosets")
    return SubgroupHandle(ctx, gens, table, ("table",))


# ---------------------------------------------------------------------------
# membership


def contains(sub: SubgroupHandle, w: Word):
    """w in sub: True / False / "unknown"."""
    tag = sub.membership[0] if sub.membership else None
    if tag is None:
        if sub.coset_table is not None:
            return sub.coset_table.coset_of(w) == 0
        if not w:
            return True
        return "unknown"
    if tag == "all":
        return True
    if tag == "trivial":
        return groups.is_trivial(sub.ctx, w)
    if tag == "table":
        return sub.coset_table.coset_of(w) == 0
    if tag == "x-power":
        return bs.power_of_x_in(w, sub.membership[1], *sub.ctx.bs_params)
    if tag == "lattice":
        vec = exponent_vector(w, sub.ctx.generator_count)
        return intlin.lattice_contains(sub.membership[1], vec)
    if tag == "free-cyclic":
        return _cyclic_coordinate(sub, w) is not None
    if tag == "a-m":
        return _am_contains(sub.membership[1], w)
    if tag == "conjugate":
        inner, g = sub.membership[1], sub.membership[2]
        return contains(inner, g * w * invert(g))
    raise ValueError(f"unknown membership tag {tag!r}")


def _root_parts(w: Word) -> tuple[Word, Word, int]:
    """(c, r, k) with w = c r^k c^-1 in the free group, r cyclically reduced
    and not a proper power; (1, 1, 0) for w = 1."""
    if not w:
        return Word(()), Word(()), 0
    letters = list(w.letters)
    prefix = []
    while len(letters) >= 2 and letters[0] == (letters[-1][0], -letters[-1][1]):
        prefix.append(letters[0])
        letters = letters[1:-1]
    core = tuple(letters)
    size = len(core)
    for p in range(1, size + 1):
        if size % p == 0 and core == core[:p] * (size // p):
            return Word(tuple(prefix)), Word(core[:p]), size // p
    raise AssertionError("unreachable: p = size always matches")


def free_root(w: Word) -> tuple[Word, int]:
    """(r, k) with w = r^k in the free group, r not a proper power; k=0 for 1."""
    conj, r, k = _root_parts(w)
    return conj * r * invert(conj), k


def _am_contains(m: int, w: Word):
    if not w:
        return True
    verdict = thompson.a_membership(w, index_bound=max(i for i, _ in w.letters) + len(w.letters) + 4)
    if verdict is not True:
        return verdict
    exps = thompson.a_exponents(w, index_bound=max(i for i, _ in w.letters) + len(w.letters) + 4)
    if exps is None:
        return "unknown"
    return all(n >= m for n in exps)


# ---------------------------------------------------------------------------
# conjugation


def conjugate(sub: SubgroupHandle, g: Word) -> SubgroupHandle:
    """The handle for sub^g with membership t in sub^g iff g t g^-1 in sub."""
    if not g:
        return sub
    conj_gens = tuple(invert(g) * w * g for w in sub.generators)
    tag = sub.membership[0] if sub.membership else None
    if tag in ("all", "trivial"):
        return sub
    if tag == "lattice":
        # abelian ambient: conjugation fixes every subgroup
        return SubgroupHandle(sub.ctx, conj_gens, None, sub.membership)
    if tag == "free-cyclic":
        return SubgroupHandle(sub.ctx, conj_gens, None,
                              ("free-cyclic", invert(g) * sub.membership[1] * g))
    if tag == "conjugate":
        inner, first = sub.membership[1], sub.membership[2]
        return SubgroupHandle(sub.ctx, conj_gens, None, ("conjugate", inner, first * g))
    if tag == "table" or (tag is None and sub.coset_table is not None):
        return finite_subgroup(sub.ctx, conj_gens)
    return SubgroupHandle(sub.ctx, conj_gens, None, ("conjugate", sub, g))


def _unwrap_cyclic(sub: SubgroupHandle):
    """(k, c) when sub is <x^k>^c in a BS context, else None; c may be empty."""
    tag = sub.membership[0] if sub.membership else None
    if tag == "x-power":
        return sub.membership[1], Word(())
    if tag == "conjugate":
        inner = sub.membership[1]
        if inner.membership and inner.membership[0] == "x-power":
            return inner.membership[1], sub.membership[2]
    return None


def _cyclic_coordinate(sub: SubgroupHandle, w: Word):
    """Integer t with w = (conjugated x^k)^t, when sub is cyclic-like; None if
    w is not in sub; "unknown" when sub is not cyclic-like."""
    if not w:
        return 0
    unwrapped = _unwrap_cyclic(sub)
    if unwrapped is not None:
        k, c = unwrapped
        form = bs.britton_reduce(c * w * invert(c), *sub.ctx.bs_params)
        if not form.is_power_of_x() or form.head % k:
            return None
        return form.head // k
    tag = sub.membership[0] if sub.membership else None
    if tag == "free-cyclic":
        u = sub.membership[1]
        if not u:
            return None
        ru, ku = free_root(u)
        rw, kw = free_root(w)
        if rw == ru and kw % ku == 0:
            return kw // ku
        if rw == invert(ru) and kw % ku == 0:
            return -kw // ku
        return None
    if tag == "lattice" and len(sub.membership[1]) == 1:
        vec = exponent_vector(w, sub.ctx.generator_count)
        coords = intlin.coords_in(sub.membership[1], vec)
        return None if coords is None else coords[0]
    return "unknown"


# ---------------------------------------------------------------------------
# index


def _right_coset_key_fn(sub: SubgroupHandle):
    """Canonical key for right cosets (sub)g, or None when only pairwise
    membership comparison is available.

    Coset tables, the trivial subgroup, lattices, conjugated x-powers in
    BS(m,n) and cyclic subgroups of a free group have a key; other handles
    do not."""
    tag = sub.membership[0] if sub.membership else None
    if sub.coset_table is not None and tag in (None, "table"):
        table = sub.coset_table
        return lambda g: table.coset_of(g)
    if tag == "trivial":
        return lambda g: groups.element_key(sub.ctx, g)
    if tag == "lattice":
        hnf = sub.membership[1]
        n = sub.ctx.generator_count
        return lambda g: intlin.lattice_residue(hnf, exponent_vector(g, n))
    if tag == "free-cyclic":
        return _free_cyclic_key_fn(sub.membership[1])
    unwrapped = _unwrap_cyclic(sub)
    if unwrapped is not None:
        k, c = unwrapped
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
    return None


def _free_cyclic_key_fn(u: Word):
    """Key of the right coset <u>g in a free group.

    With u = c r^k c^-1 and h = c^-1 g, left multiplication by c^-1 maps
    <u>g to the coset <r^k>h, whose elements are r^j h for k | j; the key
    is the letters of its shortlex-least element.  As r is cyclically reduced,
    |r^j h| >= |j||r| - |h|, which exceeds |h| = |r^0 h| once
    |j||r| > 2|h|, so the least element has |j||r| <= 2|h|."""
    if not u:
        return lambda g: g.letters
    c, r, k = _root_parts(u)
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


def _ambient_letters(ctx) -> list[Word]:
    count = 2 if ctx.generator_count is None else ctx.generator_count
    out = []
    for i in range(count):
        out.append(generator(i))
        out.append(generator(i, -1))
    return out


def _coset_bfs_count(sub: SubgroupHandle, bound: int):
    """Count right cosets of sub in its whole ambient group by BFS; exact
    count when the ball closes, INFINITE_OR_EXCEEDS past bound."""
    key_fn = _right_coset_key_fn(sub)
    letters = _ambient_letters(sub.ctx)
    if key_fn is not None:
        seen = {key_fn(Word(())) : Word(())}
        frontier = [Word(())]
        while frontier:
            nxt = []
            for rep in frontier:
                for letter in letters:
                    cand = rep * letter
                    k = key_fn(cand)
                    if k not in seen:
                        if len(seen) >= bound:
                            return INFINITE_OR_EXCEEDS
                        seen[k] = cand
                        nxt.append(cand)
            frontier = nxt
        return len(seen)
    # pairwise-membership fallback; any "unknown" poisons exactness
    reps: list[Word] = [Word(())]
    frontier = [Word(())]
    exact = True
    while frontier:
        nxt = []
        for rep in frontier:
            for letter in letters:
                cand = rep * letter
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


def index_bounded(sub: SubgroupHandle, ambient: SubgroupHandle, bound: int):
    """Exact index of sub in ambient when established and <= bound, else
    INFINITE_OR_EXCEEDS.  Requires sub's generators inside ambient."""
    for w in sub.generators:
        if contains(ambient, w) is False:
            raise ValueError("sub generator outside the ambient subgroup")
    if sub == ambient:
        return 1
    amb_tag = ambient.membership[0] if ambient.membership else None
    if amb_tag == "all":
        ctx = ambient.ctx
        if ctx.oracle == "coset-table":
            table = groups.todd_coxeter(ctx, list(sub.generators), max(4 * bound, 64))
            if isinstance(table, groups.Incomplete) or table.coset_count > bound:
                return INFINITE_OR_EXCEEDS
            return table.coset_count
        if ctx.oracle == "free-abelian":
            n = ctx.generator_count
            rows = [exponent_vector(w, n) for w in sub.generators]
            amb_rows = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
            idx = intlin.lattice_index(rows, amb_rows, n)
            return idx if idx is not None and idx <= bound else INFINITE_OR_EXCEEDS
        count = _coset_bfs_count(sub, bound)
        return count if count != INFINITE_OR_EXCEEDS and count <= bound else INFINITE_OR_EXCEEDS
    if _is_cyclic_like(ambient):
        coords = [_cyclic_coordinate(ambient, w) for w in sub.generators]
        if any(c is None for c in coords):
            raise ValueError("sub generator outside the ambient subgroup")
        d = 0
        for c in coords:
            d = gcd(d, abs(c))
        if d == 0:
            return INFINITE_OR_EXCEEDS
        return d if d <= bound else INFINITE_OR_EXCEEDS
    # both finite-index in a coset-table group: divide whole-group indices
    if sub.ctx.oracle == "coset-table":
        isub = _ensure_table(sub).coset_table.coset_count
        iamb = _ensure_table(ambient).coset_table.coset_count
        if isub % iamb:
            raise ValueError("inconsistent tables: indices not multiplicative")
        idx = isub // iamb
        return idx if idx <= bound else INFINITE_OR_EXCEEDS
    amb_lat = _lattice_rows(ambient)
    sub_lat = _lattice_rows(sub)
    if amb_lat is not None and sub_lat is not None:
        n = sub.ctx.generator_count
        idx = intlin.lattice_index(sub_lat, amb_lat, n)
        return idx if idx is not None and idx <= bound else INFINITE_OR_EXCEEDS
    raise UnsupportedOraclePair(
        f"no index strategy for {_tag_of(sub)} inside {_tag_of(ambient)}")


def _is_cyclic_like(sub: SubgroupHandle) -> bool:
    if _unwrap_cyclic(sub) is not None:
        return True
    tag = _tag_of(sub)
    if tag == "free-cyclic":
        return bool(sub.membership[1])
    return tag == "lattice" and len(sub.membership[1]) == 1


def _ensure_table(sub: SubgroupHandle) -> SubgroupHandle:
    """Attach a coset table in a finite coset-table context (idempotent)."""
    if sub.coset_table is not None:
        return sub
    if sub.ctx.oracle != "coset-table":
        raise UnsupportedOraclePair("no coset table available for this handle")
    return finite_subgroup(sub.ctx, sub.generators)


def _lattice_rows(sub: SubgroupHandle):
    if sub.ctx.oracle != "free-abelian":
        return None
    if sub.membership and sub.membership[0] == "lattice":
        return sub.membership[1]
    n = sub.ctx.generator_count
    return intlin.hermite_normal_form([exponent_vector(w, n) for w in sub.generators], n)


def _tag_of(sub: SubgroupHandle) -> str:
    if sub.membership:
        return sub.membership[0]
    return "table" if sub.coset_table is not None else "bare"


# ---------------------------------------------------------------------------
# intersection


_CYCLIC_SCAN_BOUND = 10_000


def intersect(h: SubgroupHandle, k: SubgroupHandle) -> SubgroupHandle:
    """Handle whose membership is the conjunction of the two memberships."""
    if h.ctx != k.ctx:
        raise ValueError("handles live in different group contexts")
    if h == k:
        return h
    th, tk = _tag_of(h), _tag_of(k)
    if th == "all":
        return k
    if tk == "all":
        return h
    if "trivial" in (th, tk):
        return trivial_subgroup(h.ctx)
    if th == "x-power" and tk == "x-power":
        a, b = h.membership[1], k.membership[1]
        return power_subgroup(h.ctx, a * b // gcd(a, b))
    if {th, tk} == {"x-power", "conjugate"} or (th == tk == "conjugate"):
        cyc_h, cyc_k = _unwrap_cyclic(h), _unwrap_cyclic(k)
        if cyc_h is not None and cyc_k is not None:
            return _intersect_bs_cyclic(h, k)
    if h.ctx.oracle == "free-abelian":
        n = h.ctx.generator_count
        rows = intlin.lattice_intersect(_lattice_rows(h), _lattice_rows(k), n)
        return lattice_subgroup(h.ctx, rows)
    if th == "free-cyclic" and tk == "free-cyclic":
        return _intersect_free_cyclic(h, k)
    if th == "a-m" and tk == "a-m":
        return am_subgroup(h.ctx, max(h.membership[1], k.membership[1]))
    if h.ctx.oracle == "coset-table":
        return _fiber_product(_ensure_table(h), _ensure_table(k))
    raise UnsupportedOraclePair(f"no intersection strategy for ({th}, {tk})")


def _intersect_bs_cyclic(h: SubgroupHandle, k: SubgroupHandle) -> SubgroupHandle:
    """Both handles are conjugated x-power subgroups: the intersection is the
    x-power-like subgroup generated by the least common power, found by a
    bounded scan (each handle is infinite cyclic, so any member subgroup is
    determined by its least positive element)."""
    kh, ch = _unwrap_cyclic(h)
    for a in range(kh, _CYCLIC_SCAN_BOUND + 1, kh):
        cand = invert(ch) * generator(0, a) * ch
        if contains(h, cand) is True and contains(k, cand) is True:
            gens = (cand,)
            if not ch:
                return SubgroupHandle(h.ctx, gens, None, ("x-power", a))
            inner = power_subgroup(h.ctx, a)
            return SubgroupHandle(h.ctx, gens, None, ("conjugate", inner, ch))
    raise UnsupportedOraclePair(
        f"no common power found within the scan bound {_CYCLIC_SCAN_BOUND}")


def _intersect_free_cyclic(h: SubgroupHandle, k: SubgroupHandle) -> SubgroupHandle:
    u, v = h.membership[1], k.membership[1]
    if not u or not v:
        return trivial_subgroup(h.ctx)
    ru, ku = free_root(u)
    rv, kv = free_root(v)
    if rv == invert(ru):
        rv, kv = ru, -kv
    if rv != ru:
        return trivial_subgroup(h.ctx)
    power = abs(ku * kv) // gcd(abs(ku), abs(kv))
    return free_cyclic_subgroup(h.ctx, ru ** power)


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
                letter = (code // 2, 1 if code % 2 == 0 else -1)
                reps.append(reps[order[(i, j)]] * generator(*letter))
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
            letter = (code // 2, 1 if code % 2 == 0 else -1)
            g = reps[idx] * generator(*letter) * invert(reps[target])
            if g and table.coset_of(g) == 0 and groups.is_trivial(h.ctx, g) is not True:
                key = groups.element_key(h.ctx, g) if h.ctx.oracle == "coset-table" else g.letters
                if key not in seen_keys:
                    seen_keys.add(key)
                    gens.append(g)
    return SubgroupHandle(h.ctx, tuple(gens), table, ("table",))


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
    if h.ctx.oracle == "free":
        verdict = _free_commensurable(h, k)
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


def _free_commensurable(h: SubgroupHandle, k: SubgroupHandle):
    if _tag_of(h) != "free-cyclic" or _tag_of(k) != "free-cyclic":
        return None
    u, v = h.membership[1], k.membership[1]
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
