"""Pure-Python scan kernel; same contract as the compiled one.

Used automatically when the compiled extension is not built.  Maps are the
dyadic PL homeomorphisms of [0,1] from the Cannon-Floyd-Parry model, held as
pairs of int tuples (xs, ys): breakpoints scaled by 2^E, canonical (no
collinear interior breakpoints), so equal tuples are equal maps.  A
composition is one merge of the two maps' breakpoints along the middle axis;
only the side that lacks a point interpolates, by a divmod that raises
ArithmeticError unless it is exact, and collinear points are dropped as the
merge passes them.  A generator whose breakpoints fall off the 2^-E grid
raises too, so a precision that is too small can never produce a result.

The DFS carries each word's normal form beside its map: a child's form is
its parent's extended by one letter (thompson.f_times), as _scan_c.c keeps
one form per depth.  Each form is checked twice: it must be canonical (F's
uniqueness conditions, tested here, not by the engine), and it must denote
the word's map.  Both sides of the map check are built independently from
generator maps: the word's map by one composition per DFS edge, the normal
form P N^-1 from the maps of its positive parts P and N, each cached by its
runs tuple and built one letter at a time from its longest cached prefix.
Many words share a form, so each form's check runs once and its map is
kept, keyed by the form, for the run.  Once w has passed, the check of w l
depends only on (form of w, l): its map is the form's map composed with
l's, its form f_times(form, l).  An edge table maps each such pair whose
child passed to the child's form, so a repeated edge costs no composition
and no engine step; a failing word or child never enters it, so the
failures are those of a per-word check.  At 5:2 the 4,687 words have 2,067
forms and 2,854 edges.
_plmodel, the Fraction model, is the reference the tests hold these maps to.
"""

from __future__ import annotations

from .thompson import IDENTITY, f_times

FAILURE_CAP = 10  # failures listed in the report


def _precision(max_len: int, max_index: int) -> int:
    """Bits E for the scan.  A correct engine needs max_index + max_len + 1.
    The headroom keeps a wrong normal form a reported failure: with at most
    max_len letters and indices below max_index + 2 * max_len its map still
    fits, as x_n needs n + 2 bits and each composed letter adds at most one."""
    return max_index + 3 * max_len + 3


def _generator(index: int, bits: int) -> tuple:
    """x_index: identity left of 1 - 2^-index, then the base map, which sends
    1/2 -> 1/4 and 3/4 -> 1/2, scaled onto the tail."""
    if index + 2 > bits:
        raise ArithmeticError(f"x_{index} needs {index + 2} bits, precision is {bits}")
    one = 1 << bits
    q = 1 << (bits - index - 2)
    a = one - 4 * q
    xs, ys = (a, a + 2 * q, a + 3 * q, one), (a, a + q, a + 2 * q, one)
    if index:
        return (0,) + xs, (0,) + ys
    return xs, ys


def _compose(f: tuple, g: tuple) -> tuple:
    """The map t -> f(g(t)); g is applied first, as in _plmodel.compose.
    One merge walks g's values gy and f's breakpoints fx up the middle axis:
    a point of both reads both coordinates, a point of one interpolates only
    the other (f at gy[i], or g^-1 at fx[j]).  Each point is pending until the
    next shows whether it is collinear with its neighbours; only the others
    are kept, so the result is canonical."""
    fx, fy = f
    gx, gy = g
    cx, cy = [0], [0]
    kx = ky = px = py = 0  # the last kept point; the pending point
    i, j, n = 1, 1, len(gy)
    while i < n:
        u, v = gy[i], fx[j]
        if u < v:
            y, r = divmod((u - fx[j - 1]) * (fy[j] - fy[j - 1]), v - fx[j - 1])
            x, y = gx[i], fy[j - 1] + y
            i += 1
        elif v < u:
            x, r = divmod((v - gy[i - 1]) * (gx[i] - gx[i - 1]), u - gy[i - 1])
            x, y = gx[i - 1] + x, fy[j]
            j += 1
        else:
            x, y, r = gx[i], fy[j], 0
            i += 1
            j += 1
        if r:
            raise ArithmeticError("breakpoint image falls off the dyadic grid")
        if (py - ky) * (x - px) != (y - py) * (px - kx):
            cx.append(px)
            cy.append(py)
            kx, ky = px, py
        px, py = x, y
    cx.append(px)
    cy.append(py)
    return tuple(cx), tuple(cy)


def _part_map(runs: tuple, cache: dict, bits: int) -> tuple:
    """Map of the positive word x_i^a ... for runs ((i, a), ...), extending
    the longest cached prefix one letter at a time."""
    found = cache.get(runs)
    if found is None:
        index, exp = runs[-1]
        prefix = runs[:-1] + ((index, exp - 1),) if exp > 1 else runs[:-1]
        found = _compose(_part_map(prefix, cache, bits), _generator(index, bits))
        cache[runs] = found
    return found


def _is_normal_form(pos: tuple, neg: tuple) -> bool:
    """F's uniqueness conditions on the runs P and N of P N^-1: indices
    strictly ascend in each part, exponents are >= 1, and an index in both
    parts needs index + 1 in one of them."""
    for runs in (pos, neg):
        for k, (index, exp) in enumerate(runs):
            if exp < 1 or (k and runs[k - 1][0] >= index):
                return False
    pi = {i for i, _ in pos}
    ni = {j for j, _ in neg}
    return all(i + 1 in pi or i + 1 in ni for i in pi & ni)


def thompson_agreement_scan(max_len: int, max_index: int) -> dict:
    """Check engine-vs-model agreement on every freely reduced word of
    length <= max_len over indices <= max_index."""
    if max_len < 0 or max_index < 0:
        raise ValueError("max_len and max_index must be non-negative")
    bits = _precision(max_len, max_index)
    one = 1 << bits
    letters = [(i, s) for i in range(max_index + 1) for s in (1, -1)]
    letter_maps = {}
    for i in range(max_index + 1):
        xs, ys = _generator(i, bits)
        letter_maps[i, 1], letter_maps[i, -1] = (xs, ys), (ys, xs)
    identity = ((0, one), (0, one))
    parts = {(): identity}
    # form -> map of P N^-1, or False when the form is not canonical
    forms = {}
    # (form, letter) -> the child's form, for edges whose parent and child
    # both passed
    edges = {}
    failures: list = []
    words = 0

    def passes(plw, nf) -> bool:
        form_map = forms.get(nf)
        if form_map is None:
            nx, ny = _part_map(nf.negative, parts, bits)
            form_map = forms[nf] = (_is_normal_form(*nf)
                                    and _compose(_part_map(nf.positive, parts, bits), (ny, nx)))
        return form_map == plw

    # each word is checked as it is pushed and reported as it pops, so the
    # failures come in DFS preorder
    stack = [((), identity, IDENTITY, passes(identity, IDENTITY))]
    while stack:
        word, plw, nf, ok = stack.pop()
        words += 1
        if not ok and len(failures) < FAILURE_CAP:
            failures.append((word, (nf.positive, nf.negative)))
        if len(word) < max_len:
            # push in reverse so letters pop in ascending code order
            for l in reversed(letters):
                if word and word[-1][0] == l[0] and word[-1][1] == -l[1]:
                    continue
                child = edges.get((nf, l)) if ok else None
                if child is not None:
                    stack.append((word + (l,), forms[child], child, True))
                    continue
                child_map, child = _compose(plw, letter_maps[l]), f_times(nf, (l,))
                child_ok = passes(child_map, child)
                if ok and child_ok:
                    edges[nf, l] = child
                stack.append((word + (l,), child_map, child, child_ok))

    return {"words": words, "failures": failures, "backend": "python"}
