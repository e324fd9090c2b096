"""Group presentations, word-problem oracles, and Todd-Coxeter coset enumeration.

A GroupContext is one value for a group: its generator names, its relators,
the strategy that decides its word problem and a display name that equality
ignores.  Strategies are declared, never inferred: a preset or presentation
file names one of

    coset-table           enumerate cosets of the trivial subgroup (finite groups)
    britton               Britton normal forms for BS(m,n)
    thompson-normal-form  the normal-form engine for Thompson's group F
    free-abelian          exponent-vector comparison for Z^n
    free                  free reduction alone (no relators)

A britton context has two generators x y and the one relator
y^-1 x^m y x^-n, m, n >= 1; ``bs_params`` reads (m, n) off it, and any other
relator set is refused when the context is built.

``PRESETS`` holds each preset as the presentation text of its arguments,
read by ``context_from_text`` like a file; ``load`` turns every group spec
(inline text, a file path or a preset name) into a context.  The text that
``serialize_presentation`` (``group parse``) writes loads back to an equal
context for every preset.  Thompson's F is the two-relator presentation of
Cannon, Floyd and Parry on x0 = A and x1 = B; words in F may still name any
x_n, which its normal form reads.

Each strategy keys elements canonically through the map of a word w, built
once, from the key of g to that of g w (``element_step``): ``element_key``
is w's map on the identity's key, and a word ball prepares one per step.

Coset enumeration uses the HLT strategy with a hard live-coset bound.
Hitting the bound returns an Incomplete value rather than raising: infinite
index is an expected outcome, not an error.  ``fold`` runs only its subgroup
phase, which in a free group leaves the Stallings graph of the subgroup: a
partial table, None where an edge is missing.  ``reachable_table`` numbers
table states by ``words.ball``, the word view of the one breadth-first
search, run to closure: enumeration's compaction and ``fold``, and the fiber
product of two tables and the re-rooted table of a conjugate in
``subgroups``, read it.
"""

from __future__ import annotations

import pathlib
import re
import sys
from collections import deque
from functools import cached_property, lru_cache, partial
from operator import add, attrgetter

from . import baumslag_solitar as bs
from . import thompson
from .words import (
    NAME_RE, Letter, PresentationError, Word, ball, exponent_vector, format_word,
    free_step, generator, parse_relators, parse_word,
)

ORACLES = ("coset-table", "britton", "thompson-normal-form", "free-abelian", "free")
TABLE_LIMIT = 20_000  # live-coset bound of the regular table and finite subgroups


class Frozen:
    """Base of the package's immutable values.  A subclass's __init__ writes
    its fields into ``__dict__`` once; setting or deleting an attribute
    afterwards raises AttributeError.  Two instances are equal when their
    types match and ``_key``, an attrgetter over the compared fields, reads
    equal values from both, and an instance hashes by ``_key`` alone."""

    _key: attrgetter

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))


class GroupContext(Frozen):
    """A finite presentation with the oracle that decides its word problem.
    Under the britton oracle the one relator is y^-1 x^m y x^-n over two
    generators, and bs_params reads (m, n) off it.  Equality ignores name."""

    _key = attrgetter("generator_names", "relators", "oracle")

    def __init__(self, generator_names: tuple[str, ...], relators: tuple[Word, ...],
                 oracle: str, name: str = ""):
        self.__dict__.update(generator_names=generator_names, relators=relators,
                             oracle=oracle, name=name)
        if oracle not in ORACLES:
            raise ValueError(f"unknown oracle {oracle!r}")
        for r in relators:
            if not r:
                raise ValueError("relators must be nonempty after reduction")
            for index, _ in r.letters:
                if index >= len(generator_names):
                    raise ValueError(f"relator {format_word(r)} uses an undeclared generator")
        if oracle == "britton":
            self.bs_params  # computed here, so a context with a wrong relator is never built

    @property
    def generator_count(self) -> int:
        return len(self.generator_names)

    @cached_property
    def bs_params(self) -> tuple[int, int]:
        """(m, n) of the britton relator y^-1 x^m y x^-n, m, n >= 1."""
        if self.oracle != "britton":
            raise ValueError(f"BS(m,n) needs the britton oracle, not {self.oracle}")
        letters = self.relators[0].letters if len(self.relators) == 1 else ()
        m, n = letters.count((0, 1)), letters.count((0, -1))
        if (self.generator_count != 2 or not m or not n
                or letters != ((1, -1),) + ((0, 1),) * m + ((1, 1),) + ((0, -1),) * n):
            raise ValueError("britton oracle needs two generators x y and the one relator "
                             "y^-1 x^m y x^-n with m, n >= 1")
        return m, n


class Incomplete(Frozen):
    """A coset enumeration that hit its live-coset bound before closing."""

    _key = attrgetter("live_cosets", "limit")

    def __init__(self, live_cosets: int, limit: int):
        self.__dict__.update(live_cosets=live_cosets, limit=limit)


class CosetTable(Frozen):
    """Table of the right cosets of a subgroup: closed, or partial (a
    Stallings graph, None where an edge is missing).

    Column 2i is the action of generator i, column 2i+1 of its inverse.
    Coset 0 is the base coset (the subgroup itself); representatives[c] is
    the first word reaching coset c in breadth-first column order, so
    representatives are deterministic and representatives[0] is empty.
    """

    _key = attrgetter("ngens", "action", "representatives")

    def __init__(self, ngens: int, action: tuple[tuple[int, ...], ...],
                 representatives: tuple[Word, ...]):
        self.__dict__.update(ngens=ngens, action=action, representatives=representatives)

    @property
    def coset_count(self) -> int:
        return len(self.action)

    def step(self, coset: int, letter: Letter) -> int:
        index, sign = letter
        return self.action[coset][2 * index + (0 if sign > 0 else 1)]

    def coset_of(self, w: Word, start: int = 0) -> int:
        action, c = self.action, start
        for index, sign in w.letters:
            c = action[c][2 * index + (sign < 0)]
        return c


def _letter_code(letter: Letter) -> int:
    index, sign = letter
    return 2 * index + (0 if sign > 0 else 1)


def _code_letter(code: int) -> Letter:
    return (code // 2, 1 if code % 2 == 0 else -1)


def signed_letters(ctx: GroupContext) -> list[Letter]:
    """x_0, x_0^-1, x_1, x_1^-1, ... over the context's generators."""
    return [(i, sign) for i in range(ctx.generator_count) for sign in (1, -1)]


class _BoundHit(Exception):
    pass


class _Enumeration:
    """HLT coset enumeration with coincidence handling (union-find on cosets)."""

    def __init__(self, ngens: int, limit: int):
        self.nl = 2 * ngens
        self.rows: list[list[int | None]] = [[None] * self.nl]
        self.parent = [0]
        self.n_live = 1
        self.limit = limit

    def rep(self, k: int) -> int:
        r = k
        while self.parent[r] != r:
            r = self.parent[r]
        while self.parent[k] != r:
            self.parent[k], k = r, self.parent[k]
        return r

    def _define(self, alpha: int, code: int) -> None:
        if self.n_live >= self.limit:
            raise _BoundHit
        beta = len(self.rows)
        row: list[int | None] = [None] * self.nl
        row[code ^ 1] = alpha
        self.rows.append(row)
        self.parent.append(beta)
        self.n_live += 1
        self.rows[alpha][code] = beta

    def _merge(self, k: int, l: int, queue: deque) -> None:
        k, l = self.rep(k), self.rep(l)
        if k != l:
            keep, drop = (k, l) if k < l else (l, k)
            self.parent[drop] = keep
            self.n_live -= 1
            queue.append(drop)

    def _coincidence(self, a: int, b: int) -> None:
        queue: deque[int] = deque()
        self._merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            row = self.rows[gamma]
            for code in range(self.nl):
                delta = row[code]
                if delta is None:
                    continue
                self.rows[delta][code ^ 1] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                other = self.rows[mu][code]
                if other is not None:
                    self._merge(nu, other, queue)
                else:
                    back = self.rows[nu][code ^ 1]
                    if back is not None:
                        self._merge(mu, back, queue)
                    else:
                        self.rows[mu][code] = nu
                        self.rows[nu][code ^ 1] = mu

    def scan_and_fill(self, alpha: int, codes: tuple[int, ...]) -> None:
        while self.parent[alpha] == alpha:
            fwd, i = alpha, 0
            end = len(codes)
            while i < end:
                nxt = self.rows[fwd][codes[i]]
                if nxt is None:
                    break
                fwd, i = nxt, i + 1
            if i == end:
                if fwd != alpha:
                    self._coincidence(fwd, alpha)
                return
            back, j = alpha, end - 1
            while j >= i:
                nxt = self.rows[back][codes[j] ^ 1]
                if nxt is None:
                    break
                back, j = nxt, j - 1
            if j < i:
                self._coincidence(fwd, back)
                return
            if j == i:
                self.rows[fwd][codes[i]] = back
                self.rows[back][codes[i] ^ 1] = fwd
                return
            self._define(fwd, codes[i])


def todd_coxeter(ctx: GroupContext, subgroup_gens: list[Word], limit: int) -> CosetTable | Incomplete:
    """Enumerate cosets of <subgroup_gens>; Incomplete once live cosets exceed limit."""
    ngens = ctx.generator_count
    enum = _Enumeration(ngens, limit)
    rel_codes = [tuple(_letter_code(l) for l in r.letters) for r in ctx.relators]
    gen_codes = [tuple(_letter_code(l) for l in w.letters) for w in subgroup_gens]
    try:
        for codes in gen_codes:
            enum.scan_and_fill(0, codes)
        alpha = 0
        while alpha < len(enum.rows):
            if enum.parent[alpha] == alpha:
                for codes in rel_codes:
                    enum.scan_and_fill(alpha, codes)
                    if enum.parent[alpha] != alpha:
                        break
                if enum.parent[alpha] == alpha:
                    for code in range(enum.nl):
                        if enum.rows[alpha][code] is None:
                            enum._define(alpha, code)
            alpha += 1
    except _BoundHit:
        return Incomplete(live_cosets=enum.n_live, limit=limit)
    return _compact(enum, ngens, subgroup_gens, ctx.relators)


def fold(ngens: int, gens) -> CosetTable:
    """The Stallings graph of the subgroup of the free group of rank ngens
    generated by the reduced words gens (Stallings 1983): the partial table
    that scanning each word from coset 0 leaves, its coincidences the folds,
    so a reduced word reads at most one path from each coset."""
    enum = _Enumeration(ngens, sys.maxsize)
    for w in gens:
        enum.scan_and_fill(0, tuple(_letter_code(l) for l in w.letters))

    def step(c, code):
        t = enum.rows[c][code]
        return None if t is None else enum.rep(t)

    return reachable_table(ngens, 0, step)


def reachable_table(ngens: int, start, step) -> CosetTable:
    """The table of the states reachable from start, where step(state, code)
    is the state after the letter with that column code, or None for no
    edge: the word ball over the letters in column order, run until no new
    state appears, numbers the states from start = 0, its step table is the
    action and its words are the representatives."""
    letters = [generator(*_code_letter(code)) for code in range(2 * ngens)]
    maps = [lambda state, code=code: step(state, code) for code in range(2 * ngens)]
    rows: list[tuple[int, ...]] = []
    reps = [w for w, _, _ in ball(letters, sys.maxsize, start, maps, rows)]
    return CosetTable(ngens=ngens, action=tuple(rows), representatives=tuple(reps))


def _compact(enum: _Enumeration, ngens: int, subgroup_gens: list[Word],
             relators: tuple[Word, ...]) -> CosetTable:
    # Renumber live cosets in breadth-first column order from the base; the
    # BFS word discovering each coset becomes its representative.
    table = reachable_table(ngens, enum.rep(0), lambda c, code: enum.rep(enum.rows[c][code]))
    if table.coset_count != enum.n_live:
        raise RuntimeError("closed table has unreachable cosets")
    _validate_table(table, subgroup_gens, relators)
    return table


def _validate_table(table: CosetTable, subgroup_gens: list[Word], relators: tuple[Word, ...]) -> None:
    columns = [[row[code] for row in table.action] for code in range(2 * table.ngens)]
    identity = list(range(table.coset_count))
    for i in range(table.ngens):
        fwd, bwd = columns[2 * i], columns[2 * i + 1]
        if sorted(fwd) != identity or [bwd[c] for c in fwd] != identity:
            raise RuntimeError(f"generator {i} does not act as a permutation")
    # each relator's permutation of all cosets, composed one column at a time
    for r in relators:
        image = identity
        for index, sign in r.letters:
            column = columns[2 * index + (sign < 0)]
            image = [column[c] for c in image]
        if image != identity:
            raise RuntimeError("relator does not act trivially")
    for w in subgroup_gens:
        if table.coset_of(w) != 0:
            raise RuntimeError("subgroup generator moves the base coset")


@lru_cache(maxsize=None)
def regular_table(ctx: GroupContext) -> CosetTable | Incomplete:
    """Coset table of the trivial subgroup (the regular representation)."""
    return todd_coxeter(ctx, [], TABLE_LIMIT)


def finished_table(ctx: GroupContext) -> CosetTable:
    """The regular table; ValueError naming the limit when it is Incomplete."""
    table = regular_table(ctx)
    if isinstance(table, Incomplete):
        raise ValueError(f"regular enumeration incomplete at {table.limit} cosets")
    return table


def group_elements(ctx: GroupContext) -> tuple[Word, ...]:
    """All elements of a finite coset-table group, as table representatives."""
    return finished_table(ctx).representatives


def is_trivial(ctx: GroupContext, w: Word):
    """True / False / "unknown" (only coset-table enumeration can be inconclusive)."""
    if not w:
        return True
    if ctx.oracle == "coset-table" and isinstance(regular_table(ctx), Incomplete):
        return "unknown"
    return element_key(ctx, w) == element_key(ctx, Word(()))


def element_step(ctx: GroupContext):
    """(the key of the identity, prepare) for the context's oracle, where
    prepare(w) is the map, built once, from the key of an element g to that
    of g w: a column read of the regular table (coset_of for longer w), an
    x-push or y-push of the Britton form (else resume), F's normal form times
    w's letters, the exponent vector plus w's, or the free product's letters."""
    if ctx.oracle == "coset-table":
        table = finished_table(ctx)
        action, coset_of = table.action, table.coset_of
        return 0, lambda w: (partial(coset_of, w) if len(w) != 1 else
                             lambda c, code=_letter_code(w.letters[0]): action[c][code])
    if ctx.oracle == "britton":
        m, n = ctx.bs_params
        return bs.IDENTITY, lambda w: bs.form_step(w.letters, m, n)
    if ctx.oracle == "thompson-normal-form":
        return thompson.IDENTITY, lambda w: lambda form, ls=w.letters: thompson.f_times(form, ls)
    if ctx.oracle == "free-abelian":
        rank = ctx.generator_count

        def prepare(w):
            vec = exponent_vector(w, rank)
            return lambda key: tuple(map(add, key, vec))

        return (0,) * rank, prepare
    return (), free_step


def element_key(ctx: GroupContext, w: Word):
    """Canonical hashable key: equal group elements get equal keys.  It is
    the map of w applied to the identity's key."""
    start, prepare = element_step(ctx)
    return prepare(w)(start)


# ---------------------------------------------------------------------------
# presentation text format


def context_from_text(text: str, name: str = "") -> GroupContext:
    """Parse the line-based format into a context with that name.

    gens: a b
    rels: a^2 b^2 (a b)^3
    oracle: coset-table
    """
    names: tuple[str, ...] | None = None
    relators: list[Word] = []
    oracle: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = re.match(r"(\w+):", stripped)
        if not m:
            raise PresentationError("expected 'gens:', 'rels:' or 'oracle:'",
                                    lineno, raw.index(stripped[0]) + 1)
        key = m.group(1)
        body = stripped[m.end():].strip()
        body_col = raw.index(body, raw.index(stripped) + m.end()) + 1
        if key == "gens":
            if names is not None:
                raise PresentationError("duplicate gens line", lineno, 1)
            parts: list[str] = []
            for part in re.finditer(r"\S+", body):
                gen, col = part.group(), body_col + part.start()
                if not NAME_RE.fullmatch(gen):
                    raise PresentationError(f"bad generator name {gen!r}", lineno, col)
                if gen in parts:
                    raise PresentationError("repeated generator name", lineno, col)
                parts.append(gen)
            names = tuple(parts)
        elif key == "rels":
            if names is None:
                raise PresentationError("rels before gens", lineno, 1)
            relators.extend(parse_relators(body, names, lineno, body_col))
        elif key == "oracle":
            if body not in ORACLES:
                raise PresentationError(f"unknown oracle {body!r}", lineno, body_col)
            oracle = body
        else:
            raise PresentationError(f"unknown section {key!r}", lineno, 1)
    if names is None:
        raise PresentationError("missing gens line", max(1, text.count("\n") + 1), 1)
    if oracle is None:
        oracle = "coset-table" if relators else "free"
    return GroupContext(names, tuple(relators), oracle, name)


def serialize_presentation(ctx: GroupContext) -> str:
    """The text that context_from_text reads back to an equal context."""
    names = ctx.generator_names
    lines = ["gens: " + " ".join(names)]
    parts = []
    for r in ctx.relators:
        text = format_word(r, names)
        # a relator with embedded spaces must stay one token on the line
        parts.append(f"({text})" if " " in text else text)
    lines.append(("rels: " + " ".join(parts)).rstrip())
    lines.append(f"oracle: {ctx.oracle}")
    return "\n".join(lines) + "\n"


def parse_context_word(ctx: GroupContext, text: str) -> Word:
    """A word in the context's generator names; "", "1" and "-" are the
    empty word.  ValueError for an unknown name or an index beyond the rank,
    except in F, whose normal form reads every x_n."""
    if text.strip() in ("", "1", "-"):
        return Word(())
    w = parse_word(text, ctx.generator_names)
    rank = ctx.generator_count
    for index, _ in w.letters:
        if index >= rank and ctx.oracle != "thompson-normal-form":
            raise ValueError(f"word {text!r} uses generator index {index}, "
                             f"but the group has rank {rank}")
    return w


# ---------------------------------------------------------------------------
# presets and group specs


def _gens(letters: str, k: int) -> list[str]:
    """k generator names: the first k letters, or letters[0] indexed 0..k-1."""
    return list(letters[:k]) if k <= len(letters) else [f"{letters[0]}{i}" for i in range(k)]


def _zn(k: int) -> str:
    names = _gens("uvw", k)
    rels = " ".join(f"({a}^-1 {b}^-1 {a} {b})" for i, a in enumerate(names) for b in names[i + 1:])
    return f"gens: {' '.join(names)}\nrels: {rels}\noracle: free-abelian"


# name -> (argument count, the presentation text of the positive integer
# arguments); thompson-f's relators are [AB^-1, A^-1 B A] and
# [AB^-1, A^-2 B A^2] with A = x0, B = x1 (Cannon, Floyd and Parry 1996)
PRESETS = {
    "sym3": (0, lambda: "gens: a b\nrels: a^2 b^2 (a b)^3"),
    "klein4": (0, lambda: "gens: a b\nrels: a^2 b^2 (a b)^2"),
    "sym4": (0, lambda: "gens: a b\nrels: a^2 b^3 (a b)^4"),
    "alt5": (0, lambda: "gens: a b\nrels: a^2 b^3 (a b)^5"),
    "sym5": (0, lambda: "gens: a b\nrels: a^2 b^5 (a b)^4 (a b^-1 a b)^3"),
    "cyclic": (1, lambda k: f"gens: a\nrels: a^{k}"),
    "bs": (2, lambda m, n: f"gens: x y\nrels: (y^-1 x^{m} y x^-{n})\noracle: britton"),
    "zn": (1, _zn),
    "free": (1, lambda k: "gens: " + " ".join(_gens("abcd", k))),
    "thompson-f": (0, lambda: "gens: x0 x1\nrels: (x1 x0^-2 x1^-1 x0^2 x1^-1 x0^-1 x1 x0) "
                              "(x1 x0^-3 x1^-1 x0^3 x1^-1 x0^-2 x1 x0^2)\noracle: thompson-normal-form"),
}
_PRESET_RE = re.compile(r"([a-z-]+[a-z0-9-]*?)(?:\((\d+)(?:,(\d+))?\))?$")


@lru_cache
def preset(name: str) -> GroupContext:
    """The context of a PRESETS name with its arguments: sym3, klein4, sym4,
    alt5, sym5, cyclic(k), bs(m,n), zn(k), free(k), thompson-f."""
    m = _PRESET_RE.match(name.replace(" ", ""))
    base = m and m.group(1)
    args = tuple(int(a) for a in m.groups()[1:] if a is not None) if m else ()
    if base not in PRESETS or PRESETS[base][0] != len(args):
        raise ValueError(f"unknown preset {name!r}")
    if min(args, default=1) < 1:
        params = "m, n" if len(args) == 2 else "k"
        raise ValueError(f"{base}({params.replace(' ', '')}) needs {params} >= 1")
    label = f"{base}({','.join(map(str, args))})" if args else base
    return context_from_text(PRESETS[base][1](*args), label)


def load(spec: str) -> GroupContext:
    """The context of a group spec: presentation text when it holds a
    newline or a colon, else the presentation file at that path, else a
    preset name."""
    if "\n" in spec or ":" in spec:
        return context_from_text(spec)
    path = pathlib.Path(spec)
    if path.is_file():
        return context_from_text(path.read_text())
    return preset(spec)
