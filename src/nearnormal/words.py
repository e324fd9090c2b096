"""Freely reduced words over an indexed generator alphabet.

Letters are (generator_index, sign) pairs with sign +1 or -1.  Words are
immutable and always freely reduced, so equality of words is equality of
letter sequences.  Generators are indexed by integers rather than names;
an infinite alphabet (Thompson's group) needs no special casing because
any single word touches finitely many indices.  Name-to-index mapping is
a presentation/CLI concern, not a word concern.
"""

from __future__ import annotations

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
        return free_reduce(self.letters + other.letters)

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word()
        base = self if n > 0 else invert(self)
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def invert(w: Word) -> Word:
    """Reversed sequence with flipped signs; an involution."""
    return Word(_reduced=tuple((i, -s) for i, s in reversed(w.letters)))


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
    if power == 0:
        return Word()
    sign = 1 if power > 0 else -1
    return Word(_reduced=tuple((index, sign) for _ in range(abs(power))))


def word_key(w: Word) -> tuple:
    """Sort key: shortlex over (index, sign) with x_i before x_i^-1."""
    return (len(w.letters), tuple((i, 0 if s == 1 else 1) for i, s in w.letters))


# -- text syntax -------------------------------------------------------------
#
# Atoms are whitespace separated: `x<k>`, `x<k>^-1`, `x<k>^<e>` with e a
# nonzero integer.  Named aliases (a, b, y, ...) resolve through a
# generator-name list supplied by the presentation.


def _parse_atom(atom: str, names: Sequence[str] | None) -> list[Letter]:
    base, caret, exp_text = atom.partition("^")
    if caret and not exp_text:
        raise ValueError(f"dangling '^' in atom {atom!r}")
    power = 1
    if caret:
        try:
            power = int(exp_text)
        except ValueError:
            raise ValueError(f"bad exponent {exp_text!r} in atom {atom!r}") from None
        if power == 0:
            raise ValueError(f"zero exponent in atom {atom!r}")
    index: int | None = None
    if names and base in names:
        index = names.index(base)
    elif base.startswith("x") and base[1:].isdigit():
        index = int(base[1:])
    if index is None:
        raise ValueError(f"unknown generator {base!r}")
    sign = 1 if power > 0 else -1
    return [(index, sign)] * abs(power)


def parse_word(text: str, names: Sequence[str] | None = None) -> Word:
    """Parse the whitespace-separated atom syntax into a reduced word."""
    letters: list[Letter] = []
    for atom in text.split():
        letters.extend(_parse_atom(atom, names))
    return free_reduce(letters)


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
