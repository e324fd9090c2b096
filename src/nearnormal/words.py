"""Freely reduced words over an indexed generator alphabet.

Letters are (generator_index, sign) pairs with sign +1 or -1.  Words are
immutable and always freely reduced, so equality of words is equality of
letter sequences.  Generators are indexed by integers rather than names;
an infinite alphabet (Thompson's group) needs no special casing because
any single word touches finitely many indices.  Name-to-index mapping is
a presentation/CLI concern, not a word concern.

Letters are checked once, when a word is built from raw letters
(``Word(letters)``, ``free_reduce``, ``generator``).  Products, powers and
inverses are built from letters already checked and check none again.  As
both factors of a product are reduced, letters cancel only where they meet:
``u * v`` scans the junction, so its cost beyond one copy is the
cancellation, not a reduction pass over both words.

``ball_tree(maps, radius, start)`` is the one breadth-first search, and it
builds no word: per element first met it yields the level, its parent's
number, its step's index and its key, reached from the parent's key by one
call of the step's key map, built once before the search; a map that returns
None has no edge there, as in a partial coset table.  It returns once
a level adds no element, so with ``radius=sys.maxsize`` it runs to closure,
and it can record each expanded element's step row of element numbers.
``ball`` is its word view, each word its parent's word times its step.
"""

from __future__ import annotations

import re
import sys
from functools import partial
from typing import Iterable, Iterator, Sequence

Letter = tuple[int, int]


def _check_letter(letter: Letter) -> Letter:
    index, sign = letter
    if index < 0:
        raise ValueError(f"generator index must be non-negative, got {index}")
    if sign not in (1, -1):
        raise ValueError(f"letter sign must be +1 or -1, got {sign}")
    return (index, sign)


def free_reduce(raw: Iterable[Letter]) -> "Word":
    """Freely reduce a raw letter sequence; idempotent."""
    stack: list[Letter] = []
    for letter in raw:
        index, sign = _check_letter(letter)
        if stack and stack[-1][0] == index and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((index, sign))
    return Word(_reduced=tuple(stack))


class Word:
    """A freely reduced word.  Construct via free_reduce or Word(letters)."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = (), *, _reduced: tuple[Letter, ...] | None = None):
        if _reduced is not None:
            object.__setattr__(self, "letters", _reduced)
        else:
            object.__setattr__(self, "letters", free_reduce(letters).letters)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        # pickle and copy would restore the slot through __setattr__
        return partial(Word, _reduced=self.letters), ()

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(_reduced=reduced_product(self.letters, other.letters))

    def __pow__(self, n: int) -> "Word":
        """w^n = c core^n c^-1 for w = c core c^-1 with core cyclically
        reduced: core^n is reduced, and so is its conjugate by c."""
        if n == 0:
            return Word(_reduced=())
        if n == 1:
            return self
        c, core = cyclic_peel(self if n > 0 else invert(self))
        return Word(_reduced=c.letters + core.letters * abs(n) + invert(c).letters)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def reduced_product(a: tuple[Letter, ...], b: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The letters of the reduced product of two reduced letter tuples: as
    both are reduced, letters cancel only at the junction."""
    size, k, limit = len(a), 0, min(len(a), len(b))
    while k < limit:
        index, sign = a[size - 1 - k]
        b_index, b_sign = b[k]
        if index != b_index or sign != -b_sign:
            break
        k += 1
    return a[:size - k] + b[k:]


def free_step(s: Word):
    """The key map of s in the free group, whose element keys are letters."""
    letters = s.letters
    return lambda key: reduced_product(key, letters)


def invert(w: Word) -> Word:
    """Reversed sequence with flipped signs; an involution."""
    return Word(_reduced=tuple([(i, -s) for i, s in reversed(w.letters)]))


def cyclic_peel(w: Word) -> tuple[Word, Word]:
    """(c, core) with w = c core c^-1 in the free group, core cyclically reduced."""
    letters = w.letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == (letters[j - 1][0], -letters[j - 1][1]):
        i, j = i + 1, j - 1
    return Word(_reduced=letters[:i]), Word(_reduced=letters[i:j])


def exponent_sum(w: Word) -> int:
    """Sum of letter signs; a homomorphism to the integers."""
    return sum(s for _, s in w.letters)


def exponent_vector(w: Word, rank: int) -> tuple[int, ...]:
    """Per-generator exponent sums, for abelian-oracle contexts."""
    vec = [0] * rank
    for i, s in w.letters:
        if i >= rank:
            raise ValueError(f"letter index {i} out of range for rank {rank}")
        vec[i] += s
    return tuple(vec)


def generator(index: int, power: int = 1) -> Word:
    """The word x_index^power."""
    letter = _check_letter((index, 1 if power > 0 else -1))
    return Word(_reduced=(letter,) * abs(power))


def ball_tree(maps: Sequence, radius: int, start, table: list | None = None) -> Iterator[tuple]:
    """(r, parent, step, key) per element first met within radius steps,
    numbered 0, 1, ... as yielded: element 0 is start at level 0, parent and
    step None; level r holds the new keys maps[step](k) of the level r-1
    elements k in order and the steps in order, where a key None is no
    element.  The search ends at the radius or at the first level that adds
    no element.  Each element expanded (every one below the radius) appends
    to a ``table`` list the tuple of the numbers of its products by the
    steps, None where the key was: row i is element i's."""
    numbers = {start: 0}
    yield 0, None, None, start
    stepping = list(enumerate(maps))
    frontier = [(0, start)]
    for r in range(1, radius + 1):
        if not frontier:
            return
        nxt = []
        for parent, parent_key in frontier:
            row = []
            for step, key_map in stepping:
                k = key_map(parent_key)
                n = numbers.get(k)
                if n is None and k is not None:
                    n = numbers[k] = len(numbers)
                    nxt.append((n, k))
                    yield r, parent, step, k
                row.append(n)
            if table is not None:
                table.append(tuple(row))
        frontier = nxt


def ball(steps: Sequence[Word], radius: int, start, maps: Sequence,
         table: list | None = None) -> Iterator[tuple[Word, int, object]]:
    """(w, r, key) per element of ``ball_tree``, maps[i] the key map of
    steps[i]: w is its parent's word times its step, the first word met per key."""
    found: list[Word] = []
    for r, parent, step, key in ball_tree(maps, radius, start, table):
        w = Word(_reduced=()) if parent is None else found[parent] * steps[step]
        found.append(w)
        yield w, r, key


# -- text syntax -------------------------------------------------------------
#
# A word is a product of juxtaposed factors: a generator name or `x<k>`, or a
# parenthesized word, each with an optional `^<e>` for a nonzero integer e
# (`y^-1 x y`, `(a b)^3 a(b a)^-2`).  Names resolve through the generator
# names of a presentation; in its `rels:` line each top-level factor is one
# relator.


class PresentationError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?\d+")
_INDEXED_RE = re.compile(r"x(\d+)")


class _Scanner:
    """Reads factors from one text.  With a line number, errors are
    PresentationErrors and `x<k>` must be a declared generator."""

    def __init__(self, text: str, names: Sequence[str] | None,
                 line: int | None = None, col_base: int = 1):
        self.text = text
        self.names = tuple(names or ())
        self.line = line
        self.col_base = col_base
        self.pos = 0

    def error(self, message: str, at: int | None = None):
        if self.line is None:
            raise ValueError(message)
        raise PresentationError(message, self.line, self.col_base + (self.pos if at is None else at))

    def at_end(self) -> bool:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.pos >= len(self.text)

    def _exponent(self) -> int:
        if not self.text.startswith("^", self.pos):
            return 1
        self.pos += 1
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            self.error("expected an integer exponent after '^'")
        self.pos = m.end()
        exponent = int(m.group())
        if exponent == 0:
            self.error("zero exponent", at=m.start())
        if abs(exponent) > sys.maxsize:  # a longer word has no index-sized length
            self.error("exponent too large", at=m.start())
        return exponent

    def _index(self, m: re.Match) -> int:
        name = m.group()
        if name in self.names:
            return self.names.index(name)
        indexed = _INDEXED_RE.fullmatch(name)
        if indexed and (self.line is None or int(indexed.group(1)) < len(self.names)):
            return int(indexed.group(1))
        self.error(f"undeclared generator {name!r}", at=m.start())

    def factor(self) -> Word:
        """One generator or parenthesized word with its exponent."""
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            inner = self.product(closing=True)
            return inner ** self._exponent()
        if ch == ")":
            self.error("unmatched ')'")
        m = NAME_RE.match(self.text, self.pos)
        if not m:
            self.error(f"unexpected character {ch!r}")
        self.pos = m.end()
        return generator(self._index(m), self._exponent())

    def product(self, closing: bool = False) -> Word:
        letters: list[Letter] = []
        while not self.at_end():
            if closing and self.text[self.pos] == ")":
                self.pos += 1
                return free_reduce(letters)
            letters.extend(self.factor().letters)
        if closing:
            self.error("unclosed '('")
        return free_reduce(letters)


def parse_word(text: str, names: Sequence[str] | None = None) -> Word:
    """Parse the word syntax above into a reduced word."""
    return _Scanner(text, names).product()


def parse_relators(text: str, names: Sequence[str], line: int, col_base: int) -> list[Word]:
    """The top-level factors of a presentation's `rels:` text, one relator
    each; errors, an empty relator among them, are PresentationErrors at
    their line and column."""
    scanner = _Scanner(text, names, line, col_base)
    relators = []
    while not scanner.at_end():
        start = scanner.pos
        relator = scanner.factor()
        if not relator:
            scanner.error("relator reduces to the empty word", at=start)
        relators.append(relator)
    return relators


def format_word(w: Word, names: Sequence[str] | None = None) -> str:
    """Inverse of parse_word, with powers collected; empty word prints as '1'."""
    if not w.letters:
        return "1"
    runs: list[tuple[int, int]] = []
    for i, s in w.letters:
        if runs and runs[-1][0] == i and (runs[-1][1] > 0) == (s > 0):
            runs[-1] = (i, runs[-1][1] + s)
        else:
            runs.append((i, s))
    atoms = []
    for i, e in runs:
        name = names[i] if names and i < len(names) else f"x{i}"
        atoms.append(name if e == 1 else f"{name}^{e}")
    return " ".join(atoms)
