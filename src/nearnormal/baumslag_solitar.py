"""BS(m,n) Britton normal forms, for the (m, n) a caller passes (a context's
``bs_params``).

Generators x (index 0) and y (index 1) with the single relation
y^-1 x^m y = x^n.  Words reduce to a canonical pinch-free form

    x^{a0} y^{e1} x^{a1} ... y^{ek} x^{ak}

by pushing x-powers rightward through the stable letters: x^a y splits as
x^r y x^{(n/m)(a-r)} with r = a mod m, and x^a y^-1 as x^r y^-1 x^{(m/n)(a-r)}
with r = a mod n.  A pinch (zero remainder against an opposite stable pair)
cancels the pair and cascades.  Interior exponents are therefore reduced
residues, so equal elements have identical forms.

``resume(key, letters)`` is the one Britton loop: from the form key of an
element g (``IDENTITY`` for the empty word) it takes the letters of a word
w one by one, with the x-push and the y-push (split or pinch) inline on the
form it holds in locals, and returns the form key of g w.
``britton_reduce`` is resume from the identity.  ``form_step(letters)`` is
a word's key map, built once: ``push_x``, which adds a whole x-syllable to
a key, for a power of x, else resume with the letters bound, so a word ball
steps each key by one x-push or y-push.  The family check reads each
distinct word's lattice and form once and re-checks each witness
w x^t w^-1 from the form of w.

``x_power_lattice(w)`` is the (l, q) with w x^t w^-1 = x^(q t / l) exactly
when l | t, read in integers from the y-signs of w's Britton form (Britton's
lemma, Lyndon and Schupp IV.2).  ``least_power`` (one lcm), power
conjugation, the family check and subgroups' x-power meet read it.
"""

from __future__ import annotations

from functools import cache
from math import gcd, lcm

from .words import Word, ball, invert

X, Y = 0, 1

# A form key is (head, tail): head the leading x-exponent, tail the tuple of
# syllables (y-sign, following x-exponent).
IDENTITY = (0, ())  # the form key of the empty word


def resume(key: tuple, letters, m: int, n: int) -> tuple:
    """The form key of g w, for the element g of form key ``key`` and the
    letters of w.  They need not be freely reduced, because x-pushes add and
    a y-push pinches y y^-1 and y^-1 y itself."""
    if m < 1 or n < 1:
        raise ValueError("stable-letter exponents must be positive")
    head, tail = key[0], list(key[1])
    # the last syllable (ysign, trailing) is held apart; ysign 0: no syllable,
    # and trailing is the head exponent
    ysign, trailing = tail.pop() if tail else (0, head)
    for index, sign in letters:
        if index == X:
            trailing += sign
        elif index == Y:
            if sign == 1:
                modulus, scale = m, n
            else:
                modulus, scale = n, m
            r = trailing % modulus
            carried = (trailing - r) // modulus * scale
            if r == 0 and ysign == -sign:
                # pinch: y^-sign x^(q*modulus) y^sign collapses into x-power
                if tail:
                    ysign, trailing = tail.pop()
                    trailing += carried
                else:
                    ysign, trailing = 0, head + carried
            else:
                if ysign:
                    tail.append((ysign, r))
                else:
                    head = r
                ysign, trailing = sign, carried
        else:
            raise ValueError(f"BS words use generators x0 (x) and x1 (y); got index {index}")
    if not ysign:
        return trailing, ()
    tail.append((ysign, trailing))
    return head, tuple(tail)


def push_x(key: tuple, e: int) -> tuple:
    """The form key of g x^e for the element g of form key ``key``."""
    head, tail = key
    if not tail:
        return head + e, ()
    sign, trailing = tail[-1]
    return head, tail[:-1] + ((sign, trailing + e),)


def form_step(letters: tuple, m: int, n: int):
    """The map from the form key of g to that of g w, for w with these
    letters: one x-push when w is a power of x, else resume through them."""
    if letters and set(letters) == {(X, letters[0][1])}:
        e = len(letters) * letters[0][1]
        return lambda key: push_x(key, e)
    return lambda key: resume(key, letters, m, n)


def britton_reduce(w: Word, m: int, n: int) -> tuple:
    """The form key (head, tail) of w; sound and complete for the word
    problem."""
    return resume(IDENTITY, w.letters, m, n)


def power_of_x_in(w: Word, k: int, m: int, n: int) -> bool:
    """Membership of w in <x^k>: the form is x^a with k | a."""
    head, tail = britton_reduce(w, m, n)
    return not tail and head % k == 0


def x_power_lattice(w: Word, m: int, n: int) -> tuple[int, int]:
    """(l, q) with w x^t w^-1 in <x> exactly when l | t, and then equal to
    x^(q t / l).  The y-signs of w's Britton form are read innermost first:
    a y needs n | q t / l and scales it by m / n, a y^-1 needs m | it and
    scales it by n / m, so t is cut to the multiples of l s, s = modulus /
    gcd(modulus, q).  A failed divisibility leaves y^e x^c y^-e unpinched,
    so by Britton's lemma the product is reduced and not a power of x."""
    l = q = 1
    for sign, _ in reversed(britton_reduce(w, m, n)[1]):
        modulus, scale = (n, m) if sign == 1 else (m, n)
        s = modulus // gcd(modulus, q)
        l *= s
        q = q * s // modulus * scale
    return l, q


def least_power(lattice: tuple[int, int], k: int, step: int = 1) -> int:
    """Least t in step Z, t > 0, with w x^t w^-1 in <x^k>, for (l, q) the
    lattice of w: t = L u for L = lcm(step, l), and k | (q L / l) u."""
    l, q = lattice
    L = lcm(step, l)
    return L * k // gcd(k, q * L // l)


def power_conjugate(g: Word, a_bound: int, m: int, n: int):
    """Least positive a <= a_bound with g^-1 x^a g = x^b: the lattice (a, b)
    of g^-1, or None."""
    a, b = x_power_lattice(invert(g), m, n)
    return (a, b) if a <= a_bound else None


def conjugator_words(conjugators: list[Word], conj_len: int, m: int, n: int) -> list[Word]:
    """One word per distinct element among the products of at most conj_len
    conjugators: the first one met level by level, level L holding w * c for
    the words w of level L-1 in order and c in order.

    Only words whose element is new are extended.  The children of a repeat
    repeat the children of the earlier word, which come earlier, so pruning
    keeps every first occurrence and its order: the work is linear in the
    number of distinct elements found, not in len(conjugators)^conj_len.
    """
    maps = [form_step(c.letters, m, n) for c in conjugators]
    return [w for w, _, _ in ball(conjugators, conj_len, IDENTITY, maps)]


def _conjugation_state(w: Word, m: int, n: int) -> tuple:
    """The form key of w and the letters of w^-1: what every witness check
    w x^t w^-1 of one conjugator word w shares."""
    return resume(IDENTITY, w.letters, m, n), invert(w).letters


def _conjugates_into(state: tuple, t: int, k: int, m: int, n: int) -> bool:
    """w x^t w^-1 in <x^k> for state = _conjugation_state(w), by one
    syllable reduction: the reducer resumes from the form of w, takes x^t
    as one syllable, then the letters of w^-1, so no product word is built
    and w is reduced once, not once per check."""
    after_w, w_inverse = state
    head, tail = resume(push_x(after_w, t), w_inverse, m, n)
    return not tail and head % k == 0


def family_axiom_check(conjugators: list[Word], a_bound: int, conj_len: int,
                       m: int, n: int) -> dict:
    """Check the truncation {<x^a>^w : 1 <= a <= a_bound, w short} of the
    family of subgroups containing a positive power of x.

    The conjugates w are `conjugator_words` up to conj_len.  Conjugation
    closure: each node conjugated by each conjugator still contains a
    positive power of x, the least one read from the x-power lattice.
    Directedness: each pair of nodes has a common <x^e> below both, e the
    lcm of the two least contained powers.  Every witness is re-checked by
    one syllable reduction of w x^t w^-1, so the check does not rest on the
    lattice; a witness that fails it is reported as None.  A directed
    re-check runs once per (node, e), however many pairs ask for it.
    """
    conj_words = conjugator_words(conjugators, conj_len, m, n)
    nodes = [(a, w) for a in range(1, a_bound + 1) for w in conj_words]

    @cache
    def read(w):  # once per distinct conjugator word or product w c
        return x_power_lattice(w, m, n), _conjugation_state(w, m, n)

    closure = []
    for a, w in nodes:
        for c in conjugators:
            wc = w * c
            lattice, state = read(wc)
            j = least_power(lattice, a)
            j = j if _conjugates_into(state, j, a, m, n) else None
            closure.append({"power": a, "conjugator_len": len(wc), "witness": j,
                            "in_truncation": j is not None and j <= a_bound})

    least = [least_power(read(w)[0], a) for a, w in nodes]

    @cache
    def conjugates_into(idx, e):
        a, w = nodes[idx]
        return _conjugates_into(read(w)[1], e, a, m, n)

    directed = []
    for idx1 in range(len(nodes)):
        for idx2 in range(idx1, len(nodes)):
            e = lcm(least[idx1], least[idx2])
            ok = conjugates_into(idx1, e) and conjugates_into(idx2, e)
            directed.append({"pair": (idx1, idx2), "witness": e if ok else None})

    closure_pass = all(entry["witness"] is not None for entry in closure)
    directed_pass = all(entry["witness"] is not None for entry in directed)
    return {
        "nodes": len(nodes),
        "closure": closure,
        "closure_pass": closure_pass,
        "directed": directed,
        "directed_pass": directed_pass,
        "all_pass": closure_pass and directed_pass,
    }
