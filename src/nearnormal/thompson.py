"""Thompson's group F: normal forms and the abelian family of odd/even
generator pairs.

F is presented on x_0, x_1, x_2, ... with relations x_i^-1 x_j x_i = x_{j+1}
for i < j.  Elements have a unique normal form

    x_{i_1}^{a_1} ... x_{i_u}^{a_u}  x_{j_v}^{-b_v} ... x_{j_1}^{-b_1}

with i_1 < ... < i_u, j_1 < ... < j_v, all exponents positive, subject to
the uniqueness condition: whenever index i occurs in both parts, index i+1
occurs in at least one part.

``f_times(form, letters)`` multiplies a normal form by letters without
rebuilding a word, one ``_mul_letter`` per letter on immutable run tuples;
``f_normal_form(w)`` is ``f_times(IDENTITY, w)``, the one normal-form
algorithm.  Its input must be a normal form: then one kind of step alone
can break the uniqueness condition, and only it calls ``_cleanup``.

The subgroup A is generated by a_n = x_{2n+1} x_{2n}^-1 for n >= 0, and
A_m by those with n >= m.  ``a_exponents`` decides membership in A and
reads the exponents in one memoised peel: it takes one generator pair at a
time off the normal form, by two f_times letters, never rebuilding a word.
Past ``shift_threshold(g)`` conjugation by g shifts every x_n, so
``am_in_conjugate_intersection`` peels only the a_n below it: its m is exact.

``lemma_report`` checks the pair-generator lemmas at given bounds: the
conjugation identities, commutation of the a_n, the shift property and A_m
inside conjugate intersections.  It is the one lemma checker; the CLI, the
thompson suite and the acceptance check read its sections.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from .words import Letter, Word, exponent_sum, generator, invert, parse_word

Run = tuple[int, int]  # (index, exponent >= 1)


class BoundExhausted(Exception):
    """A bounded search ran out before certifying the requested property."""


class FNormalForm(NamedTuple):
    """Canonical form; equality of forms is equality of group elements, and
    a form is its own hashable key."""

    positive: tuple[Run, ...]
    negative: tuple[Run, ...]

    def is_identity(self) -> bool:
        return not self.positive and not self.negative

    def indices(self) -> set[int]:
        return {i for i, _ in self.positive} | {j for j, _ in self.negative}


def _mul_letter(pos: tuple, neg: tuple, index: int, sign: int) -> tuple[tuple, tuple]:
    """The normal form (pos, neg) times x_index^sign, as new run tuples.

    Letters travel by the shift relation x_j x_i -> x_i x_{j+1} (i < j):
    passing a smaller-index letter bumps the traveller, passing a
    larger-index letter bumps the letter passed.  Either sign first walks
    the traveller through the smaller indices of N, arriving as x_k; then
    x_k^-1 joins N, while x_k cancels a letter of N^-1 or travels on left
    and joins P.

    From a normal form only x_k^-1 starting a run k of N while k is in P
    can break the uniqueness condition, so only that step calls _cleanup.
    An exponent that changes and stays >= 1 keeps both index sets.  x_k
    joining P raises every index above k in both parts, so k + 1 is free,
    k is not in N, and an i < k that needed k finds it in P.  x_k
    cancelling run k of N cannot strand k - 1: k - 1 is not in N, as
    passing a run k - 1 leaves the traveller at k + 1 or more.
    """
    k, t, size = index, 0, len(neg)
    while t < size:
        q, b = neg[t]
        if q >= k:
            break
        k += b
        t += 1
    hit = t < size and neg[t][0] == k
    if sign == -1:
        if hit:
            return pos, neg[:t] + ((k, neg[t][1] + 1),) + neg[t + 1:]
        neg = neg[:t] + ((k, 1),) + neg[t:]
        if any(p == k for p, _ in pos):
            return _cleanup(pos, neg)
        return pos, neg
    if hit:
        b = neg[t][1]
        if b == 1:
            return pos, neg[:t] + neg[t + 1:]
        return pos, neg[:t] + ((k, b - 1),) + neg[t + 1:]
    neg = neg[:t] + tuple([(q + 1, b) for q, b in neg[t:]])
    s = len(pos)
    while s and pos[s - 1][0] > k:
        s -= 1
    tail = tuple([(p + 1, a) for p, a in pos[s:]])
    if s and pos[s - 1][0] == k:
        return pos[:s - 1] + ((k, pos[s - 1][1] + 1),) + tail, neg
    return pos[:s] + ((k, 1),) + tail, neg


def _cleanup(pos: tuple, neg: tuple) -> tuple[tuple, tuple]:
    """Enforce the uniqueness condition.

    If i sits in both parts and i+1 in neither, everything strictly between
    the two x_i letters has index >= i+2, so one conjugation by x_i shifts
    it all down and cancels the pair.  Each pass removes two letters, so
    this terminates.
    """
    while True:
        pos_idx = {p for p, _ in pos}
        neg_idx = {q for q, _ in neg}
        offender = min((i for i in pos_idx & neg_idx
                        if i + 1 not in pos_idx and i + 1 not in neg_idx), default=None)
        if offender is None:
            return pos, neg
        pos, neg = [tuple([(i - (i > offender), e - (i == offender)) for i, e in runs
                           if i != offender or e > 1]) for runs in (pos, neg)]


IDENTITY = FNormalForm((), ())


def f_times(form: FNormalForm, letters: Iterable[Letter]) -> FNormalForm:
    """Normal form of form * w, for the letters (index, sign) of a word w.

    form must be a normal form; each _mul_letter keeps it one.
    """
    pos, neg = form
    for index, sign in letters:
        pos, neg = _mul_letter(pos, neg, index, sign)
    return FNormalForm(pos, neg)


def f_normal_form(w: Word) -> FNormalForm:
    """Normal form of a word in the x_i; sound and complete for F."""
    return f_times(IDENTITY, w)


def a_generator(n: int) -> Word:
    """a_n = x_{2n+1} x_{2n}^-1."""
    if n < 0:
        raise ValueError("a_n is defined for n >= 0")
    return generator(2 * n + 1) * invert(generator(2 * n))


def verify_conjugation_identity(m: int, n: int) -> bool:
    """Both conjugation identities sending a_n into the odd-shifted pair:

        x_{2m}^-1   a_n x_{2m}   = x_{2n+2} x_{2n+1}^-1
        x_{2m+1}^-1 a_n x_{2m+1} = x_{2n+2} x_{2n+1}^-1   (0 <= m < n)
    """
    if not 0 <= m < n:
        raise ValueError("need 0 <= m < n")
    rhs = f_normal_form(generator(2 * n + 2) * invert(generator(2 * n + 1)))
    a = a_generator(n).letters
    for i in (2 * m, 2 * m + 1):
        if f_times(IDENTITY, ((i, -1),) + a + ((i, 1),)) != rhs:
            return False
    return True


def verify_shift(g: Word, n_range) -> dict:
    """Find the least threshold T in n_range with g^-1 x_n g = x_{n+j} for
    every n in n_range with n >= T, where j = exponent_sum(g)."""
    values = sorted(n_range)
    if not values:
        raise ValueError("empty n_range")
    j = exponent_sum(g)
    # g^-1 x_n g extends the form of g^-1; x_{n+j} is its own normal form
    base = f_normal_form(invert(g))
    ok = [n + j >= 0 and f_times(base, ((n, 1),) + g.letters) == FNormalForm(((n + j, 1),), ())
          for n in values]
    threshold = None
    for pos in range(len(values)):
        if all(ok[pos:]):
            threshold = values[pos]
            break
    return {"threshold": threshold, "j": j, "all_pass": threshold is not None}


def _peel_candidates(form: FNormalForm) -> list[tuple[int, int]]:
    """Possible (n, sign) of the smallest-index factor a_n^sign.

    In the normal form of a nontrivial A-element the smallest index is even:
    it lies in the negative part when that factor's exponent is positive and
    in the positive part when negative.
    """
    indices = form.indices()
    if not indices:
        return []
    m = min(indices)
    if m % 2 == 1:
        return []
    in_pos = any(i == m for i, _ in form.positive)
    in_neg = any(j == m for j, _ in form.negative)
    out = []
    if in_neg:
        out.append((m // 2, 1))
    if in_pos:
        out.append((m // 2, -1))
    return out


def _peel(form: FNormalForm, n: int, sign: int) -> FNormalForm:
    """form * a_n^-sign, which removes a factor a_n^sign; a_n = x_{2n+1} x_{2n}^-1."""
    i = 2 * n
    return f_times(form, ((i, 1), (i + 1, -1)) if sign == 1 else ((i + 1, 1), (i, -1)))


def a_exponents(w: Word, index_bound: int | None = None):
    """Exponents {n: c_n} with w = prod a_n^{c_n} and 2n+1 <= index_bound,
    by default w's largest index + its length + 4.

    Peels the smallest-index generator pair off the normal form until the
    identity is reached, trying both signs when that index lies in both
    parts.  Returns the dict (in peel order), False when w is not in A, or
    "unknown" when a peel would need a pair with 2n+1 past the bound.
    """
    if exponent_sum(w) != 0:
        return False
    if index_bound is None:
        index_bound = max((i for i, _ in w.letters), default=0) + len(w.letters) + 4
    form = f_normal_form(w)

    # peel's verdict depends only on (form, fuel) within this call, so its
    # cache lives as long as the call; a success is the tuple of (n, sign)
    # factors peeled on the way
    @lru_cache(maxsize=None)
    def peel(form: FNormalForm, fuel: int):
        if form.is_identity():
            return ()
        if fuel <= 0:
            return False
        for n, sign in _peel_candidates(form):
            if 2 * n + 1 > index_bound:
                return "unknown"
            rest = peel(_peel(form, n, sign), fuel - 1)
            if rest == "unknown":
                return rest
            if rest is not False:
                return ((n, sign),) + rest
        return False

    weight = sum(a for _, a in form.positive) + sum(b for _, b in form.negative)
    steps = peel(form, weight + 2)
    if not isinstance(steps, tuple):
        return steps
    exps: dict[int, int] = {}
    for n, sign in steps:
        exps[n] = exps.get(n, 0) + sign
    return {n: c for n, c in exps.items() if c}


def shift_threshold(g: Word) -> int:
    """T(g) = max index + len(g) + 1 (shift lemma: am_in_conjugate_intersection)."""
    return max((i for i, _ in g.letters), default=-1) + len(g.letters) + 1


def am_in_conjugate_intersection(gs: list[Word], m_bound: int) -> dict:
    """Least m <= m_bound with A_m inside every A^g = g^-1 A g, exactly.

    Shift lemma: g^-1 x_n g = x_{n+j} for n >= T(g), g = x_{i_1}^{e_1} ...
    x_{i_L}^{e_L}, j = sum e_k.  By induction on k, conjugating x_n by the
    first k letters gives x_{n+j_k}, j_k = e_1 + ... + e_k: before letter k
    the index is c = n + j_{k-1} >= n - k + 1 >= i_k + 2, so x_i^-1 x_c x_i
    = x_{c+1} (needs c > i) and x_i x_c x_i^-1 = x_{c-1} (needs c >= i + 2)
    apply.  The + 1 in T is needed: x3 x4 x3^-1 is not x3.

    a_n is in A^g iff g a_n g^-1 = h^-1 x_{2n+1} x_{2n}^-1 h is in A,
    h = g^-1, T(h) = T(g); for 2n >= T(g) it is a generator a_{n'}.  So m is
    one past the largest n < cutoff = max ceil(T(g)/2) whose a_n fails
    (``a_exponents`` at its default bound, taken downward).  The certificate
    lists the n below the cutoff that passed and runs verify_shift(g^-1,
    0..T(g)) for each g.
    """
    if any(exponent_sum(g) % 2 for g in gs):
        raise ValueError("conjugators must have even exponent sum")
    cutoff = max(((shift_threshold(g) + 1) // 2 for g in gs), default=0)
    m = 0
    for n in reversed(range(cutoff)):
        verdicts = [a_exponents(g * a_generator(n) * invert(g)) for g in gs]
        if False in verdicts:
            m = n + 1
            break
        if "unknown" in verdicts:
            raise BoundExhausted(f"a_{n} is undecided at its peel bound")
    if m > m_bound:
        raise BoundExhausted(f"no m <= {m_bound}")
    shifts = {f"g{i}": verify_shift(invert(g), range(0, shift_threshold(g) + 1))
              for i, g in enumerate(gs)}
    return {"m": m, "certificates": {"checked_n": list(range(m, cutoff)), "shifts": shifts}}


# Conjugators of the shift and conjugate-intersection checks, all of even
# exponent sum.
SHIFT_WORDS = ("x0^2", "x0^-2", "x0 x1", "x1 x0^-1", "x0^2 x1^-2")


def lemma_report(identity_bound: int, pair_bound: int, shift_bound: int, m_bound: int,
                 words=SHIFT_WORDS) -> dict:
    """The pair-generator lemma grid, one section per lemma, each with its
    failures and a pass flag:

    - conjugation_identities: verify_conjugation_identity(m, n) for
      0 <= m < n <= identity_bound, failures as [m, n];
    - pair_commutation: a_i a_j = a_j a_i for 0 <= i < j <= pair_bound;
    - shift: verify_shift(g, 2..shift_bound) for each word g;
    - conjugate_intersection: am_in_conjugate_intersection([g], m_bound)
      for each word g, passing when its certificate shifts pass too.
    """
    id_failures = [[m, n] for n in range(1, identity_bound + 1) for m in range(n)
                   if not verify_conjugation_identity(m, n)]
    a = [a_generator(i) for i in range(pair_bound + 1)]
    forms = [f_normal_form(ai) for ai in a]
    comm_failures = [[i, j] for i in range(pair_bound) for j in range(i + 1, pair_bound + 1)
                     if f_times(forms[i], a[j].letters) != f_times(forms[j], a[i].letters)]
    shift, inter = {}, {}
    for text in words:
        g = parse_word(text)
        report = verify_shift(g, range(2, shift_bound + 1))
        shift[text] = {"threshold": report["threshold"], "j": report["j"],
                       "pass": report["all_pass"]}
        try:
            result = am_in_conjugate_intersection([g], m_bound)
        except (ValueError, BoundExhausted) as exc:
            inter[text] = {"m": None, "pass": False, "reason": str(exc)}
        else:
            inter[text] = {"m": result["m"], "pass": all(
                s["all_pass"] for s in result["certificates"]["shifts"].values())}
    return {
        "conjugation_identities": {"bound": identity_bound,
                                   "checked": identity_bound * (identity_bound + 1) // 2,
                                   "failures": id_failures, "pass": not id_failures},
        "pair_commutation": {"bound": pair_bound, "failures": comm_failures,
                             "pass": not comm_failures},
        "shift": shift,
        "conjugate_intersection": inter,
        "pass": (not id_failures and not comm_failures
                 and all(v["pass"] for v in shift.values())
                 and all(v["pass"] for v in inter.values())),
    }
