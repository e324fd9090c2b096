"""Truncated completion of a group along a finite subgroup family.

An element assigns to every truncation node H a right coset of H, subject to
compatibility: the projection K\\G -> H\\G induced by an inclusion K <= H must
carry the K-value to the H-value.  The product twists the right factor by the
conjugate node, f.f'(H) = f(H) f'(H^f), which makes the set a monoid; over a
stable family the explicit inversion algorithm makes it a group.

An element is its assignment: a plain tuple of coset ids, one per node in
fam.nodes order, so elements hash, compare and sort as tuples.  They are
enumerated by one lazy generator per node, each extending the prefixes of the
one before, so they come out in tuple order.  Representative
words are always the stored table representatives, so every operation is
deterministic; well-definedness under different choices is a property checked
by the test suite, not assumed here.

The arithmetic runs on the truncation's integer tables (FamilyTruncation
coset_conj, coset_product and projection), built once per family from those
representatives: a product is one lookup per node, and compatibility is a
projection lookup per covering inclusion.  Inverses are solved per element, not
searched for: f.g = e fixes g(H^f) at every node H, and only the elements
with those values are tried.  The laws are checked on one N x N table of
element indices, filled with N^2 checked products (N^2 ints of memory), and
not by multiplying out every case: associativity alone would take about 4 N^3
products.
"""

from __future__ import annotations

import itertools
from operator import attrgetter

from .families import FamilyTruncation
from .groups import Frozen, finished_table, signed_letters
from .words import Word, format_word, invert

ENUM_CEILING = 10 ** 6


class TruncatedCompletion(Frozen):
    _key = attrgetter("fam", "elements")

    def __init__(self, fam: FamilyTruncation, elements: tuple):
        # elements: every compatible assignment tuple, sorted
        self.__dict__.update(fam=fam, elements=elements)


def is_compatible(fam: FamilyTruncation, assignment) -> bool:
    return all(proj[assignment[i]] == assignment[j]
               for (i, j), proj in fam.covering.items())


def _extend(prefixes, count: int, below: list, above: list):
    """Each prefix extended by every value its next node allows, in order.
    A value fixed from below meets every node above, as projections compose."""
    if below:
        (i, fixed), rest = below[0], below[1:]
        return (p + (c,) for p in prefixes for c in (fixed[p[i]],)
                if all(proj[p[k]] == c for k, proj in rest))
    if above:
        return (p + (c,) for p in prefixes for c in range(count)
                if all(proj[c] == p[j] for j, proj in above))
    return (p + (c,) for p in prefixes for c in range(count))


def _enumerate_assignments(fam: FamilyTruncation, ceiling: int) -> list:
    """The compatible assignments in tuple order, from one _extend per node.
    An inclusion from an earlier node fixes the value through its projection;
    one into an earlier node filters.  Stops after ceiling + 1."""
    chain = [()]
    for pos, h in enumerate(fam.nodes):
        below = [(i, fam.projection[i, pos]) for i in range(pos) if (i, pos) in fam.projection]
        above = [(j, fam.projection[pos, j]) for j in range(pos) if (pos, j) in fam.projection]
        chain = _extend(chain, h.coset_table.coset_count, below, above)
    out = list(itertools.islice(chain, ceiling + 1))
    if len(out) > ceiling:
        raise ValueError(f"completion enumeration exceeds ceiling {ceiling}")
    return out


def truncated_completion(fam: FamilyTruncation, ceiling: int = ENUM_CEILING) -> TruncatedCompletion:
    return TruncatedCompletion(fam=fam, elements=tuple(_enumerate_assignments(fam, ceiling)))


def identity_element(tc: TruncatedCompletion) -> tuple:
    return (0,) * len(tc.fam.nodes)


def embed(g: Word, tc: TruncatedCompletion) -> tuple:
    return tuple(h.coset_table.coset_of(g) for h in tc.fam.nodes)


def _representative(tc: TruncatedCompletion, node: int, f: tuple) -> Word:
    return tc.fam.nodes[node].coset_table.representatives[f[node]]


def conj_node(tc: TruncatedCompletion, node: int, f: tuple) -> int:
    """The node H^f = H^x for any representative x of f(H)."""
    return tc.fam.coset_conj[node][f[node]]


def multiply(tc: TruncatedCompletion, f: tuple, f2: tuple) -> tuple:
    """f.f'(H) = f(H) f'(H^f), one coset_product lookup per node."""
    fam = tc.fam
    if len(f) != len(f2) or len(f) != len(fam.nodes):
        raise ValueError("elements belong to different truncations")
    conj, product = fam.coset_conj, fam.coset_product
    out = tuple(product[node][c][f2[conj[node][c]]] for node, c in enumerate(f))
    if not is_compatible(fam, out):
        raise RuntimeError("product violates the compatibility invariant")
    return out


def invert_stable(tc: TruncatedCompletion, f: tuple) -> tuple:
    """Inversion over a stable family: per node H, with x a representative of
    f(H), pick a node K <= H meet H^f normal in H^f, take t representing the
    value at K^(x^-1), and set the H-value to the coset of t^-1.  K is the
    candidate with the fewest cosets, ties going to the lower node number."""
    fam = tc.fam
    stab = fam.stability
    if not stab["stable"]:
        raise ValueError(f"family is not stable, witness {stab['witness']}")
    n = len(fam.nodes)
    values = []
    for node in range(n):
        x = _representative(tc, node, f)
        hf = conj_node(tc, node, f)
        candidates = [k for k in range(n)
                      if fam.leq(k, node) and fam.leq(k, hf) and (k, hf) in fam.normal_in]
        if not candidates:
            raise ValueError(
                f"no truncation node below nodes {node} and {hf} is normal in {hf}")
        k = min(candidates, key=lambda c: (fam.nodes[c].coset_table.coset_count, c))
        kx = fam.conj_by_word(k, invert(x))
        t = _representative(tc, kx, f)
        values.append(fam.nodes[node].coset_table.coset_of(invert(t)))
    out = tuple(values)
    e = identity_element(tc)
    if multiply(tc, out, f) != e or multiply(tc, f, out) != e:
        raise RuntimeError("inversion output fails the two-sided inverse law")
    return out


def invertibility_scan(tc: TruncatedCompletion) -> dict:
    """Two-sided inverse search, solved per element; reports elements with none.

    f.g = e holds exactly when, at every node H, g(H^f) is the c2 with
    coset_product[H][f(H)][c2] == 0 (c2 -> coset_product[H][c][c2] is a
    bijection, so there is one).  The elements are indexed by their values on
    the image of H -> H^f; only those the index admits are tried, and both
    products are checked with multiply.  The report is the exhaustive one."""
    fam = tc.fam
    e = identity_element(tc)
    solve = []  # solve[H][c]: the c2 with coset_product[H][c][c2] == 0
    for rows in fam.coset_product:
        if any(sorted(row) != list(range(len(row))) for row in rows):
            raise RuntimeError("a coset product row is not a bijection")
        solve.append(tuple(row.index(0) for row in rows))
    index = {}  # image nodes -> {values there: elements in order}
    witnesses = []
    for f in tc.elements:
        need = {}
        for node, c in enumerate(f):
            if need.setdefault(fam.coset_conj[node][c], solve[node][c]) != solve[node][c]:
                candidates = ()  # two nodes H conjugate to one H^f disagree
                break
        else:
            nodes = tuple(sorted(need))
            if nodes not in index:
                buckets = index[nodes] = {}
                for g in tc.elements:
                    buckets.setdefault(tuple(g[m] for m in nodes), []).append(g)
            candidates = index[nodes].get(tuple(need[m] for m in nodes), ())
        if not any(multiply(tc, f, g) == e and multiply(tc, g, f) == e for g in candidates):
            witnesses.append(f)
    return {"total": len(tc.elements),
            "invertible": len(tc.elements) - len(witnesses),
            "non_invertible_witnesses": witnesses}


def profinite_compare(tc: TruncatedCompletion) -> bool:
    """When every node is normal in the ambient group, the completion must
    agree with the inverse limit of the quotient groups: same underlying
    tuples, and the twisted product equals the componentwise coset product.
    Compares the full multiplication tables."""
    fam = tc.fam
    letters = signed_letters(fam.ctx)
    for node in range(len(fam.nodes)):
        if any(fam.conj(node, letter) != node for letter in letters):
            raise ValueError(f"node {node} is not normal in the ambient group")
    quotient_product = []
    for h in fam.nodes:
        table = h.coset_table
        reps = table.representatives
        quotient_product.append(
            tuple(tuple(table.coset_of(reps[c1] * reps[c2])
                        for c2 in range(table.coset_count))
                  for c1 in range(table.coset_count)))
    element_set = set(tc.elements)
    if identity_element(tc) not in element_set:
        return False
    for f in tc.elements:
        for f2 in tc.elements:
            limit = tuple(quotient_product[node][c][c2]
                          for node, (c, c2) in enumerate(zip(f, f2)))
            if limit not in element_set:
                return False
            if multiply(tc, f, f2) != limit:
                return False
    return True


def completion_is_group(tc: TruncatedCompletion) -> bool:
    report = invertibility_scan(tc)
    return not report["non_invertible_witnesses"]


def law_records(tc: TruncatedCompletion):
    """Exhaustive law checks, yielded as (name, verdict, witness) in a fixed
    order.  The verdict is "pass", "fail" or "unknown"; a failing law carries
    its first failing case as the witness, a passing one None.  The inverse
    laws are "unknown" over an unstable family.

    Every law is read from one N x N table of element indices, filled with
    N^2 checked products, table[i][j] = index of elements[i].elements[j]; a
    product that is not an element raises RuntimeError.  The table holds N^2
    ints, and every product a law compares is one of its entries (the
    embedding law reads the coset of g1 g2 from the regular table), so each law
    checks the same facts as multiplying its cases out, and its witness is the
    first failing case in itertools.product order."""
    fam, elements = tc.fam, tc.elements
    index = {f: i for i, f in enumerate(elements)}

    def position(f):
        i = index.get(f)
        if i is None:
            raise RuntimeError(f"{list(f)} is not an element of the completion")
        return i

    def record(name, bad, witness):
        return (name, "pass", None) if bad is None else (name, "fail", witness)

    table = [[position(multiply(tc, f, g)) for g in elements] for f in elements]
    e = position(identity_element(tc))
    bad = next((f for i, f in enumerate(elements) if table[e][i] != i or table[i][e] != i),
               None)
    yield record("identity", bad, bad and list(bad))
    # (f g) h = f (g h) for every h at once: row fg against row f read through row g.
    bad = None
    for (i, row), j in itertools.product(enumerate(table), range(len(elements))):
        left, right = table[row[j]], list(map(row.__getitem__, table[j]))
        if left != right:
            k = next(k for k, (x, y) in enumerate(zip(left, right)) if x != y)
            bad = (elements[i], elements[j], elements[k])
            break
    yield record("associativity", bad, bad and [list(t) for t in bad])
    # H -> H^f per element, from the value at H
    conj = [[fam.coset_conj[node][c] for node, c in enumerate(f)]
            for f in elements]
    bad = next(((elements[i], elements[j], node)
                for i, j in itertools.product(range(len(elements)), repeat=2)
                for node, h in enumerate(conj[i]) if conj[table[i][j]][node] != conj[j][h]),
               None)
    yield record("conjugation-cocycle", bad,
                 bad and {"f": list(bad[0]), "g": list(bad[1]),
                          "node": bad[2]})
    regular = finished_table(fam.ctx)
    words = regular.representatives
    embeds = [position(embed(g, tc)) for g in words]
    # g1 g2 lies in the regular coset reached by walking g2 from g1's coset
    bad = next(((g1, g2) for (a, g1), (b, g2) in itertools.product(enumerate(words), repeat=2)
                if table[embeds[a]][embeds[b]] != embeds[regular.coset_of(g2, start=a)]), None)
    yield record("embed-homomorphism", bad,
                 bad and [format_word(w, fam.ctx.generator_names) for w in bad])
    stable = fam.stability
    if not stable["stable"]:
        yield ("inverses", "unknown",
               {"reason": "family is not stable", "witness": list(stable["witness"])})
        yield ("inverse-anti-homomorphism", "unknown", None)
        yield ("inverse-necessary-condition", "unknown", None)
        return
    try:
        inverses = {f: invert_stable(tc, f) for f in elements}
        inv = [position(inverses[f]) for f in elements]
    except (RuntimeError, ValueError) as exc:
        yield ("inverses", "fail", str(exc))
        yield ("inverse-anti-homomorphism", "unknown", None)
        yield ("inverse-necessary-condition", "unknown", None)
        return
    yield ("inverses", "pass", None)
    bad = next(((f, g) for (i, f), (j, g) in itertools.product(enumerate(elements), repeat=2)
                if inv[table[i][j]] != table[inv[j]][inv[i]]), None)
    yield record("inverse-anti-homomorphism", bad, bad and [list(t) for t in bad])
    # An inverse must assign at H^f the coset of x^-1, x representing f(H).
    bad = next(((f, node) for f, finv in inverses.items() for node in range(len(fam.nodes))
                for hf in (conj_node(tc, node, f),)
                if finv[hf] != fam.nodes[hf].coset_table.coset_of(
                    invert(_representative(tc, node, f)))), None)
    yield record("inverse-necessary-condition", bad,
                 bad and {"f": list(bad[0]), "node": bad[1]})
