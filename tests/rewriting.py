"""Breadth-first rewriting oracles: equality decided by raw relation moves.

These are the test references for the normal-form engines of Thompson's
group F (``thompson.f_normal_form``) and of BS(m,n)
(``baumslag_solitar.britton_reduce``).  Each search is exponential in the
word length, so they serve small inputs only.

Two word-walking A-membership peels are kept here too, as references for
``thompson.a_exponents``, the one peel that extends normal forms in place
and memoises: ``a_membership_by_words`` backtracks for the verdict and
``a_exponents_by_words`` peels greedily for the exponents.
"""

from nearnormal.thompson import _peel_candidates, a_generator, f_normal_form
from nearnormal.words import Word, exponent_sum

X, Y = 0, 1


def form_word(form) -> Word:
    """The word x_i^a ... x_j^-b that a normal form of F spells."""
    letters = [(i, 1) for i, a in form.positive for _ in range(a)]
    letters += [(j, -1) for j, b in reversed(form.negative) for _ in range(b)]
    return Word(letters)


# -- Thompson's group F -------------------------------------------------------


def _neighbors(word: tuple, index_cap: int):
    """Words one relation move away: free cancellation and both directions
    of x_j x_i <-> x_i x_{j+1} (i < j) applied at every position."""
    n = len(word)
    for t in range(n - 1):
        (i1, s1), (i2, s2) = word[t], word[t + 1]
        if i1 == i2 and s1 == -s2:
            yield word[:t] + word[t + 2:]
        for new_pair in _pair_moves(word[t], word[t + 1], index_cap):
            yield word[:t] + new_pair + word[t + 2:]


def _pair_moves(la, lb, index_cap):
    """All two-letter rewrites of the adjacent pair la lb valid in F."""
    (j, sj), (i, si) = la, lb
    out = []
    # x_j^e x_i^f with i < j  ->  x_i^f x_{j+f?}: derived case by case from
    # x_j x_i = x_i x_{j+1} (i < j)
    a, sa = la
    b, sb = lb
    # case: second letter has the smaller index: move it left
    if b < a:
        if sb == 1:
            # x_a^sa x_b = x_b x_{a+1}^sa   (b < a)
            if a + 1 <= index_cap:
                out.append(((b, 1), (a + 1, sa)))
        else:
            # x_a^sa x_b^-1 = x_b^-1 x_{a-1}^sa  (b < a-1); from the relation
            # with j = a-1 > i = b
            if a - 1 > b:
                out.append(((b, -1), (a - 1, sa)))
    # case: first letter has the smaller index: move the second one left
    if a < b:
        if sa == 1:
            # x_a x_b^sb = x_{b-1}^sb x_a   (a < b-1)
            if b - 1 > a:
                out.append(((b - 1, sb), (a, 1)))
        else:
            # x_a^-1 x_b^sb = x_{b+1}^sb x_a^-1  (a < b)
            if b + 1 <= index_cap:
                out.append(((b + 1, sb), (a, -1)))
    return out


def naive_equal(u: Word, v: Word, index_cap: int | None = None, max_states: int = 2_000_000):
    """Breadth-first equality search using only the defining-relation moves.

    Length never increases along a move, so the search is exhaustive over
    the ball of length len(u); returns True, False (ball exhausted), or
    "unknown" if the state cap is hit.
    """
    start = tuple(u.letters)
    goal = tuple(v.letters)
    if index_cap is None:
        top = max((i for i, _ in start + goal), default=0)
        index_cap = top + len(start) + len(goal) + 2
    if len(goal) > len(start):
        start, goal = goal, start
    return _search(start, goal, lambda word: _neighbors(word, index_cap), max_states)


def _search(start: tuple, goal: tuple, neighbors, max_states: int):
    """Breadth first from start over neighbors(word): True once goal is
    seen, False when the search space is exhausted, "unknown" at the cap."""
    seen = {start}
    frontier = [start]
    while frontier:
        if goal in seen:
            return True
        nxt = []
        for word in frontier:
            for nb in neighbors(word):
                if nb not in seen:
                    if len(seen) >= max_states:
                        return "unknown"
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return goal in seen


def a_membership_by_words(w: Word, index_bound: int):
    """The verdict of thompson.a_exponents (True for a dict), each peel step
    re-normalising the whole word form_word(form) * a_n^-sign, without a memo."""
    if exponent_sum(w) != 0:
        return False
    form = f_normal_form(w)
    if form.is_identity():
        return True

    def peel(form, fuel):
        if form.is_identity():
            return True
        if fuel <= 0:
            return False
        for n, sign in _peel_candidates(form):
            if 2 * n + 1 > index_bound:
                return "unknown"
            rest = f_normal_form(form_word(form) * a_generator(n) ** (-sign))
            got = peel(rest, fuel - 1)
            if got is True or got == "unknown":
                return got
        return False

    weight = sum(a for _, a in form.positive) + sum(b for _, b in form.negative)
    return peel(form, weight + 2)


def a_exponents_by_words(w: Word, index_bound: int):
    """The exponents of thompson.a_exponents by a greedy peel (None when it
    fails), each peel step re-normalising the whole word."""
    exps: dict[int, int] = {}
    form = f_normal_form(w)
    fuel = sum(a for _, a in form.positive) + sum(b for _, b in form.negative) + 2
    while not form.is_identity():
        fuel -= 1
        if fuel < 0:
            return None
        cands = _peel_candidates(form)
        if not cands:
            return None
        n, sign = cands[0]
        if 2 * n + 1 > index_bound:
            return None
        exps[n] = exps.get(n, 0) + sign
        form = f_normal_form(form_word(form) * a_generator(n) ** (-sign))
    return {n: c for n, c in exps.items() if c}


# -- BS(m,n) ------------------------------------------------------------------


def bs_neighbors(word: tuple, m: int, n: int, len_cap: int):
    """One free cancellation/insertion or one relation rewrite away.

    The relation moves replace x^m y <-> y x^n and x^n y^-1 <-> y^-1 x^m
    as subwords (both orientations of y^-1 x^m y = x^n read as equations).
    """
    L = len(word)
    for t in range(L - 1):
        (i1, s1), (i2, s2) = word[t], word[t + 1]
        if i1 == i2 and s1 == -s2:
            yield word[:t] + word[t + 2:]
    if L + 2 <= len_cap:
        for t in range(L + 1):
            for letter in ((X, 1), (X, -1), (Y, 1), (Y, -1)):
                ins = (letter, (letter[0], -letter[1]))
                yield word[:t] + ins + word[t:]
    pats = []
    xm = ((X, 1),) * m
    xn = ((X, 1),) * n
    xm_i = ((X, -1),) * m
    xn_i = ((X, -1),) * n
    yp, yn_ = ((Y, 1),), ((Y, -1),)
    pats.append((xm + yp, yp + xn))          # x^m y -> y x^n
    pats.append((xm_i + yp, yp + xn_i))      # x^-m y -> y x^-n
    pats.append((xn + yn_, yn_ + xm))        # x^n y^-1 -> y^-1 x^m
    pats.append((xn_i + yn_, yn_ + xm_i))
    all_pats = pats + [(b, a) for a, b in pats]
    for lhs, rhs in all_pats:
        if L - len(lhs) + len(rhs) > len_cap:
            continue
        for t in range(L - len(lhs) + 1):
            if word[t:t + len(lhs)] == lhs:
                yield word[:t] + rhs + word[t + len(lhs):]


def bs_naive_equal(u: Word, v: Word, m: int = 2, n: int = 3,
                   len_slack: int = 4, max_states: int = 500_000):
    """Breadth-first equality search by raw relation moves; True, False
    (search space exhausted), or "unknown" at the state cap."""
    start, goal = tuple(u.letters), tuple(v.letters)
    len_cap = max(len(start), len(goal)) + len_slack
    return _search(start, goal, lambda word: bs_neighbors(word, m, n, len_cap), max_states)
