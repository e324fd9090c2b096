"""The completion monoid along a truncated family: laws, inverses, limits."""

import itertools

import pytest

from nearnormal import cli, completion, families, modp
from nearnormal.completion import (
    completion_is_group, conj_node,
    embed, identity_element, invert_stable,
    invertibility_scan, law_records, multiply, profinite_compare,
    truncated_completion,
)
from nearnormal.families import h0_S, regular_module, truncation, word_matrix
from nearnormal.groups import group_elements, preset
from nearnormal.words import Word, format_word, invert, parse_word


def w(text):
    return parse_word(text, ("a", "b"))


def sym3_normal_family():
    ctx = preset("sym3")
    fam = truncation(ctx, [[w("a b")], [w("a"), w("b")]])
    return ctx, fam, truncated_completion(fam)


def sym3_all_subgroups():
    ctx = preset("sym3")
    fam = truncation(ctx, families.parse_nodes(ctx, "-; a; b; a b a; a b; a,b"))
    return ctx, fam, truncated_completion(fam)


def test_element_counts():
    _, _, tc = sym3_normal_family()
    assert len(tc.elements) == 2
    _, _, tc6 = sym3_all_subgroups()
    assert len(tc6.elements) == 6
    ctx = preset("cyclic(4)")
    fam = truncation(ctx, [[parse_word("a^2", ("a",))], [parse_word("a", ("a",))]])
    assert len(truncated_completion(fam).elements) == 2


def test_enumeration_ceiling():
    ctx, fam, _ = sym3_all_subgroups()
    with pytest.raises(ValueError):
        truncated_completion(fam, ceiling=3)


def test_enumerate_completion_recomputes():
    _, _, tc = sym3_all_subgroups()
    recomputed = completion._enumerate_assignments(tc.fam, completion.ENUM_CEILING)
    assert tuple(recomputed) == tc.elements


def test_identity_laws():
    _, _, tc = sym3_all_subgroups()
    e = identity_element(tc)
    assert e in tc.elements
    for f in tc.elements:
        assert multiply(tc, e, f) == f
        assert multiply(tc, f, e) == f


def test_associativity_exhaustive():
    _, _, tc = sym3_all_subgroups()
    for f1, f2, f3 in itertools.product(tc.elements, repeat=3):
        assert multiply(tc, multiply(tc, f1, f2), f3) == multiply(tc, f1, multiply(tc, f2, f3))


def test_embed_is_an_injective_homomorphism():
    ctx, _, tc = sym3_all_subgroups()
    elements = group_elements(ctx)
    images = {embed(g, tc) for g in elements}
    assert len(images) == 6
    for g1 in elements:
        for g2 in elements:
            assert embed(g1 * g2, tc) == multiply(tc, embed(g1, tc), embed(g2, tc))
    assert embed(Word(()), tc) == identity_element(tc)


def test_conjugation_cocycle():
    _, fam, tc = sym3_all_subgroups()
    for f1 in tc.elements:
        for f2 in tc.elements:
            prod = multiply(tc, f1, f2)
            for node in range(len(fam.nodes)):
                assert conj_node(tc, node, prod) == conj_node(
                    tc, conj_node(tc, node, f1), f2)


def test_inverses_exist_and_are_involutive():
    _, _, tc = sym3_all_subgroups()
    e = identity_element(tc)
    for f in tc.elements:
        g = invert_stable(tc, f)
        assert multiply(tc, f, g) == e
        assert multiply(tc, g, f) == e
        assert invert_stable(tc, g) == f


def test_invert_matches_group_inverse_on_embeds():
    ctx, _, tc = sym3_all_subgroups()
    for g in group_elements(ctx):
        assert invert_stable(tc, embed(g, tc)) == embed(invert(g), tc)


def test_inverse_antihomomorphism():
    _, _, tc = sym3_all_subgroups()
    for f1 in tc.elements:
        for f2 in tc.elements:
            lhs = invert_stable(tc, multiply(tc, f1, f2))
            rhs = multiply(tc, invert_stable(tc, f2), invert_stable(tc, f1))
            assert lhs == rhs


def test_inverse_necessary_condition():
    # an inverse must assign at H^f the coset of x^-1 for x representing f(H)
    _, fam, tc = sym3_all_subgroups()
    for f in tc.elements:
        g = invert_stable(tc, f)
        for node in range(len(fam.nodes)):
            table = fam.nodes[node].coset_table
            xrep = table.representatives[f[node]]
            hf = conj_node(tc, node, f)
            assert g[hf] == fam.nodes[hf].coset_table.coset_of(invert(xrep))


def test_invertibility_scan_group_case():
    _, _, tc = sym3_all_subgroups()
    report = invertibility_scan(tc)
    assert report == {"total": 6, "invertible": 6, "non_invertible_witnesses": []}
    assert completion_is_group(tc)


def test_multiplication_is_representative_independent():
    ctx, fam, tc = sym3_all_subgroups()
    # recompute every product through all alternative coset representatives
    elements = group_elements(ctx)
    for f1 in tc.elements:
        for f2 in tc.elements:
            expected = multiply(tc, f1, f2)
            for node in range(len(fam.nodes)):
                table = fam.nodes[node].coset_table
                for x in elements:
                    if table.coset_of(x) != f1[node]:
                        continue
                    hf = fam.conj_by_word(node, x)
                    t2 = fam.nodes[hf].coset_table
                    for x2 in elements:
                        if t2.coset_of(x2) != f2[hf]:
                            continue
                        assert table.coset_of(x * x2) == expected[node]


def test_non_stable_family_has_non_invertible_elements():
    ctx = preset("sym3")
    fam = truncation(ctx, [[w("a")], [w("a"), w("b")]])
    tc = truncated_completion(fam)
    assert len(tc.elements) == 27
    with pytest.raises(ValueError):
        invert_stable(tc, tc.elements[0])
    report = invertibility_scan(tc)
    assert report["total"] == 27
    assert report["non_invertible_witnesses"]
    assert not completion_is_group(tc)
    # the monoid laws still hold
    e = identity_element(tc)
    for f in tc.elements:
        assert multiply(tc, e, f) == f and multiply(tc, f, e) == f


def test_profinite_comparison_on_normal_families():
    ctx = preset("cyclic(4)")
    fam = truncation(ctx, [[parse_word("a^2", ("a",))], [parse_word("a", ("a",))]])
    assert profinite_compare(truncated_completion(fam)) is True

    ctx = preset("klein4")
    fam = truncation(ctx, [[], [w("a")], [w("b")], [w("a b")], [w("a"), w("b")]])
    tc = truncated_completion(fam)
    assert len(tc.elements) == 4
    assert profinite_compare(tc) is True

    ctx = preset("sym3")
    fam = truncation(ctx, [[w("a"), w("b")]])
    tc = truncated_completion(fam)
    assert len(tc.elements) == 1
    assert profinite_compare(tc) is True


def test_profinite_comparison_rejects_non_normal_nodes():
    _, _, tc = sym3_all_subgroups()
    with pytest.raises(ValueError):
        profinite_compare(tc)


def test_mismatched_elements_rejected():
    _, _, tc = sym3_all_subgroups()
    with pytest.raises(ValueError):
        multiply(tc, identity_element(tc), (0,))


# --- module action -----------------------------------------------------------

def act(tc, vec, f, module):
    """Module action vec.f = vec.x where x represents f(H) for any node H
    whose generators all fix the sparse row vec."""
    fam = tc.fam
    for node in range(len(fam.nodes)):
        if all(modp.vec_mat(vec, word_matrix(module, g), module.p) == vec
               for g in fam.nodes[node].generators):
            x = completion._representative(tc, node, f)
            return modp.vec_mat(vec, word_matrix(module, x), module.p)
    raise ValueError("no truncation node fixes the vector: it is outside h0_S")


def test_action_through_h0s():
    ctx, fam, tc = sym3_normal_family()
    module = regular_module(ctx)
    basis = h0_S(module, fam)
    e = identity_element(tc)
    for v in basis:
        assert act(tc, v, e, module) == v
    # embedded elements act as their word matrix
    for g in group_elements(ctx):
        f = embed(g, tc)
        for v in basis:
            assert act(tc, v, f, module) == modp.vec_mat(
                v, word_matrix(module, g), module.p)


def test_action_is_compatible_with_multiplication():
    ctx, fam, tc = sym3_normal_family()
    module = regular_module(ctx)
    basis = h0_S(module, fam)
    for f1 in tc.elements:
        for f2 in tc.elements:
            prod = multiply(tc, f1, f2)
            for v in basis:
                assert act(tc, act(tc, v, f1, module), f2, module) == act(
                    tc, v, prod, module)


def test_action_rejects_vectors_outside_h0s():
    ctx, fam, tc = sym3_normal_family()
    module = regular_module(ctx)
    outside = modp.sparse([(1, 0, 0, 0, 0, 0)], module.p)[0]
    with pytest.raises(ValueError):
        act(tc, outside, identity_element(tc), module)


# --- integer tables against the word-walking reference ----------------------

S4_DIRECTED = "-; b; a b a b, b a b a; b, a b a; a, b"
S4_NON_DIRECTED = "a b; a b, b a b a"  # 216 elements, 48 invertible


def build(group, nodes_text):
    return truncated_completion(cli._build_family(preset(group), nodes_text))


NAMED = sorted(families.NAMED_FAMILIES.items())
TABLE_CASES = [pytest.param(group, text, id=f"{group}:{name}")
               for (group, name), text in NAMED] + [
    pytest.param("sym4", S4_DIRECTED, id="s4-directed"),
    pytest.param("sym4", S4_NON_DIRECTED, id="s4-non-directed"),
]


def word_product(tc, f, f2):
    """The product walked through representative words: the reference the
    coset_product table must reproduce."""
    fam = tc.fam
    values = []
    for node, table in enumerate(h.coset_table for h in fam.nodes):
        x = table.representatives[f[node]]
        hf = fam.conj_by_word(node, x)
        x2 = fam.nodes[hf].coset_table.representatives[f2[hf]]
        values.append(table.coset_of(x * x2))
    return tuple(values)


def exhaustive_scan(tc):
    """The O(N^2) inverse search the solve in invertibility_scan replaces."""
    e = identity_element(tc)
    witnesses = [f for f in tc.elements
                 if not any(multiply(tc, f, g) == e and multiply(tc, g, f) == e
                            for g in tc.elements)]
    return {"total": len(tc.elements), "invertible": len(tc.elements) - len(witnesses),
            "non_invertible_witnesses": witnesses}


@pytest.mark.parametrize("group, nodes_text", TABLE_CASES)
def test_table_product_matches_word_reference(group, nodes_text):
    tc = build(group, nodes_text)
    fam = tc.fam
    for node, h in enumerate(fam.nodes):
        reps = h.coset_table.representatives
        for c, x in enumerate(reps):
            hx = fam.conj_by_word(node, x)
            assert fam.coset_conj[node][c] == hx
            reps2 = fam.nodes[hx].coset_table.representatives
            assert fam.coset_product[node][c] == tuple(
                h.coset_table.coset_of(x * x2) for x2 in reps2)
    for (i, j), proj in fam.projection.items():
        assert i != j and fam.leq(i, j)
        assert proj == tuple(fam.nodes[j].coset_table.coset_of(x)
                             for x in fam.nodes[i].coset_table.representatives)
    for f, f2 in itertools.product(tc.elements, repeat=2):
        assert multiply(tc, f, f2) == word_product(tc, f, f2)


def test_covering_inclusions_decide_compatibility():
    tc = build("sym4", S4_DIRECTED)
    fam = tc.fam
    assert (len(fam.covering), len(fam.projection)) == (11, 18)
    assert set(fam.covering) <= set(fam.projection)
    counts = [h.coset_table.coset_count for h in fam.nodes]
    conj, product = fam.coset_conj, fam.coset_product
    for f, f2 in itertools.product(tc.elements, repeat=2):
        out = [product[node][c][f2[conj[node][c]]]
               for node, c in enumerate(f)]
        # the product, and the product with one node's value moved
        node = (f[0] + f2[-1]) % len(out)
        moved = list(out)
        moved[node] = (moved[node] + 1) % counts[node]
        for assignment in (out, moved):
            assert completion.is_compatible(fam, assignment) == all(
                proj[assignment[i]] == assignment[j]
                for (i, j), proj in fam.projection.items())


def test_corrupted_product_table_breaks_compatibility(monkeypatch):
    tc = build("sym3", "-; a; b; a b a; a b; a,b")
    fam = tc.fam
    bottom = fam.bottom()
    assert fam.nodes[bottom].coset_table.coset_count == 6
    e = identity_element(tc)
    assert multiply(tc, e, e) == e
    rows = list(fam.coset_product)
    rows[bottom] = ((1,) + rows[bottom][0][1:],) + rows[bottom][1:]
    monkeypatch.setitem(vars(fam), "coset_product", tuple(rows))
    with pytest.raises(RuntimeError, match="compatibility invariant"):
        multiply(tc, e, e)


@pytest.mark.parametrize("group, nodes_text", [
    pytest.param(group, text, id=f"{group}:{name}") for (group, name), text in NAMED] + [
    pytest.param("sym3", "a; a,b", id="sym3:order2-orbit"),
    pytest.param("sym4", S4_NON_DIRECTED, id="s4-non-directed"),
])
def test_solved_scan_matches_exhaustive_search(group, nodes_text):
    tc = build(group, nodes_text)
    report = invertibility_scan(tc)
    assert report == exhaustive_scan(tc)
    if nodes_text == S4_NON_DIRECTED:
        assert (report["total"], report["invertible"]) == (216, 48)


def test_scan_of_the_4096_element_non_directed_family():
    # Four conjugate order-3 subgroups of S4 and S4 itself: no lower bounds,
    # so 8^4 compatible assignments.  The counts were cross-checked once
    # against the exhaustive O(N^2) scan on the tables (16.8M pairs).
    tc = build("sym4", "b; a,b")
    assert len(tc.fam.nodes) == 5
    assert not families.check_admissible(tc.fam)["downward_directed"]
    report = invertibility_scan(tc)
    assert (report["total"], report["invertible"]) == (4096, 384)
    assert len(report["non_invertible_witnesses"]) == 4096 - 384


def test_stability_is_checked_once_per_family(monkeypatch):
    calls = []
    real = families.check_stable
    monkeypatch.setattr(families, "check_stable", lambda fam: calls.append(1) or real(fam))
    _, _, tc = sym3_all_subgroups()
    for f in tc.elements:
        invert_stable(tc, f)
    list(law_records(tc))
    assert len(calls) == 1


# --- enumeration against the recursive reference ---------------------------

S4_CONJUGATES = "b; a b a b, b a b a"  # five nodes, no inclusions: 24,576 elements


def reference_assignments(fam, ceiling):
    """Depth-first over the nodes with one recursive call per partial
    assignment, sorted at the end: the reference for the lazy chain of
    completion._enumerate_assignments."""
    n = len(fam.nodes)
    counts = [h.coset_table.coset_count for h in fam.nodes]
    below = [[(i, fam.projection[i, pos]) for i in range(pos) if (i, pos) in fam.projection]
             for pos in range(n)]
    above = [[(j, fam.projection[pos, j]) for j in range(pos) if (pos, j) in fam.projection]
             for pos in range(n)]
    out = []
    assignment = [0] * n

    def fill(pos):
        if pos == n:
            out.append(tuple(assignment))
            if len(out) > ceiling:
                raise ValueError(f"completion enumeration exceeds ceiling {ceiling}")
            return
        if below[pos]:
            i, proj = below[pos][0]
            candidates = (proj[assignment[i]],)
        else:
            candidates = range(counts[pos])
        for c in candidates:
            if (all(proj[assignment[i]] == c for i, proj in below[pos])
                    and all(proj[c] == assignment[j] for j, proj in above[pos])):
                assignment[pos] = c
                fill(pos + 1)
        assignment[pos] = 0

    fill(0)
    return sorted(out)


ENUMERATION_CASES = [pytest.param(group, text, None, id=f"{group}:{name}")
                     for (group, name), text in NAMED] + [
    pytest.param("sym3", "a; a,b", 27, id="sym3:order2-orbit"),  # nodes below an earlier one
    # three order-2 nodes below the Klein four node, which has six cosets
    pytest.param("sym4", "a b a b, b a b a; a b a b", 48, id="s4-klein-above"),
    # nodes above two earlier nodes with no common node below them
    pytest.param("sym4", "a b a b; a, a b a b", 48, id="s4-two-below"),
    pytest.param("sym4", S4_CONJUGATES, 24576, id="s4-conjugates"),
    pytest.param("sym4", S4_NON_DIRECTED, 216, id="s4-non-directed"),
    pytest.param("sym4", "-; b; a b a b, b a b a", 24, id="s4-trivial-bottom"),
    pytest.param("cyclic(120)", "-; a^2; a", None, id="cyclic120"),
    pytest.param("alt5", "-; b; a,b", None, id="a5"),
]


@pytest.mark.parametrize("group, nodes_text, size", ENUMERATION_CASES)
def test_enumeration_matches_the_recursive_reference(group, nodes_text, size):
    tc = build(group, nodes_text)
    want = reference_assignments(tc.fam, completion.ENUM_CEILING)
    assert tc.elements == tuple(want)  # the same tuples in the same order
    if size is not None:
        assert len(tc.elements) == size


def test_enumeration_cases_reach_every_kind_of_node():
    # a node fixed by an inclusion from below, one filtered from above only,
    # and one with no inclusion to an earlier node
    kinds = set()
    for group, nodes_text, _ in (case.values for case in ENUMERATION_CASES):
        fam = build(group, nodes_text).fam
        for pos in range(len(fam.nodes)):
            earlier = [pair for pair in fam.projection if pos in pair and max(pair) == pos]
            kinds.add("below" if any(j == pos for _, j in earlier)
                      else "above" if earlier else "free")
    assert kinds == {"below", "above", "free"}


@pytest.mark.parametrize("group, nodes_text, size", ENUMERATION_CASES)
def test_projections_compose_along_chains(group, nodes_text, size):
    # why a value fixed by a node below needs no check against nodes above
    proj = build(group, nodes_text).fam.projection
    chains = [(i, k, j) for (i, k) in proj for (k2, j) in proj if k2 == k]
    for i, k, j in chains:
        assert tuple(proj[k, j][c] for c in proj[i, k]) == proj[i, j]


def test_enumeration_ceiling_is_exact():
    fam = build("sym4", S4_CONJUGATES).fam
    assert len(truncated_completion(fam, ceiling=24576).elements) == 24576
    with pytest.raises(ValueError, match="^completion enumeration exceeds ceiling 24575$"):
        truncated_completion(fam, ceiling=24575)


def test_enumeration_stops_after_ceiling_plus_one(monkeypatch):
    fam = build("sym4", S4_CONJUGATES).fam
    counts = []
    real = completion._extend

    def counted(*args):
        k = len(counts)
        counts.append(0)
        for assignment in real(*args):
            counts[k] += 1
            yield assignment

    monkeypatch.setattr(completion, "_extend", counted)
    with pytest.raises(ValueError, match="exceeds ceiling 10$"):
        truncated_completion(fam, ceiling=10)
    assert len(counts) == len(fam.nodes)
    assert counts[-1] <= 11


# --- law records -------------------------------------------------------------

LAW_NAMES = ["identity", "associativity", "conjugation-cocycle", "embed-homomorphism",
             "inverses", "inverse-anti-homomorphism", "inverse-necessary-condition"]


def test_law_records_pass_in_a_fixed_order():
    _, _, tc = sym3_all_subgroups()
    assert list(law_records(tc)) == [(name, "pass", None) for name in LAW_NAMES]


def test_law_records_leave_inverses_unknown_on_an_unstable_family():
    tc = build("sym3", "a; a,b")
    records = list(law_records(tc))
    assert [r[0] for r in records] == LAW_NAMES
    assert [r[1] for r in records[:4]] == ["pass"] * 4
    assert records[4] == ("inverses", "unknown",
                          {"reason": "family is not stable",
                           "witness": list(families.check_stable(tc.fam)["witness"])})
    assert records[5:] == [("inverse-anti-homomorphism", "unknown", None),
                           ("inverse-necessary-condition", "unknown", None)]


def test_law_records_report_the_first_failing_witness(monkeypatch):
    # A broken inversion (f^-1 := f) fails both inverse laws; each law must
    # name its first failing case in element and node order.
    _, fam, tc = sym3_all_subgroups()
    monkeypatch.setattr(completion, "invert_stable", lambda tc, f: f)
    records = {name: (verdict, witness) for name, verdict, witness in law_records(tc)}
    necessary = next((f, node) for f in tc.elements for node in range(len(fam.nodes))
                     if f[conj_node(tc, node, f)]
                     != fam.nodes[conj_node(tc, node, f)].coset_table.coset_of(
                         invert(fam.nodes[node].coset_table.representatives[f[node]])))
    assert records["inverse-necessary-condition"] == (
        "fail", {"f": list(necessary[0]), "node": necessary[1]})
    anti = next((f, g) for f, g in itertools.product(tc.elements, repeat=2)
                if multiply(tc, f, g) != multiply(tc, g, f))
    assert records["inverse-anti-homomorphism"] == (
        "fail", [list(anti[0]), list(anti[1])])


def reference_law_records(tc):
    """The product-walking law checker law_records replaces: every case
    multiplied out with multiply, in itertools.product order."""
    fam, elements = tc.fam, tc.elements

    def record(name, bad, witness):
        return (name, "pass", None) if bad is None else (name, "fail", witness)

    e = identity_element(tc)
    bad = next((f for f in elements
                if multiply(tc, e, f) != f or multiply(tc, f, e) != f), None)
    yield record("identity", bad, bad and list(bad))
    bad = next(((f, g, h) for f, g, h in itertools.product(elements, repeat=3)
                if multiply(tc, multiply(tc, f, g), h) != multiply(tc, f, multiply(tc, g, h))),
               None)
    yield record("associativity", bad, bad and [list(t) for t in bad])
    bad = next(((f, g, node) for f, g in itertools.product(elements, repeat=2)
                for fg in (multiply(tc, f, g),)
                for node in range(len(fam.nodes))
                if conj_node(tc, node, fg) != conj_node(tc, conj_node(tc, node, f), g)),
               None)
    yield record("conjugation-cocycle", bad,
                 bad and {"f": list(bad[0]), "g": list(bad[1]),
                          "node": bad[2]})
    words = group_elements(fam.ctx)
    embeds = [embed(g, tc) for g in words]
    bad = next(((g1, g2) for (g1, f1), (g2, f2) in itertools.product(zip(words, embeds), repeat=2)
                if multiply(tc, f1, f2) != embed(g1 * g2, tc)), None)
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
        inverses = {f: completion.invert_stable(tc, f) for f in elements}
    except (RuntimeError, ValueError) as exc:
        yield ("inverses", "fail", str(exc))
        yield ("inverse-anti-homomorphism", "unknown", None)
        yield ("inverse-necessary-condition", "unknown", None)
        return
    yield ("inverses", "pass", None)
    bad = next(((f, g) for f, g in itertools.product(elements, repeat=2)
                for fg in (multiply(tc, f, g),)
                if fg not in inverses
                or inverses[fg] != multiply(tc, inverses[g], inverses[f])), None)
    yield record("inverse-anti-homomorphism", bad, bad and [list(t) for t in bad])
    bad = next(((f, node) for f, finv in inverses.items() for node in range(len(fam.nodes))
                for hf in (conj_node(tc, node, f),)
                if finv[hf] != fam.nodes[hf].coset_table.coset_of(
                    invert(fam.nodes[node].coset_table.representatives[f[node]]))),
               None)
    yield record("inverse-necessary-condition", bad,
                 bad and {"f": list(bad[0]), "node": bad[1]})


def outcome(records, tc):
    """The record list, or the type and message of the error it raised."""
    try:
        return list(records(tc))
    except (RuntimeError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("group, nodes_text", [
    pytest.param(group, text, id=f"{group}:{name}") for (group, name), text in NAMED] + [
    pytest.param("sym4", S4_DIRECTED, id="s4-directed"),
    pytest.param("sym3", "a; a,b", id="sym3:order2-orbit"),
])
def test_law_table_matches_the_reference(group, nodes_text):
    tc = build(group, nodes_text)
    records = list(law_records(tc))
    assert records == list(reference_law_records(tc))
    assert [r[0] for r in records] == LAW_NAMES


def corrupt_product(monkeypatch, tc, node, c, c2, value):
    fam = tc.fam
    rows = list(fam.coset_product)
    table = [list(row) for row in rows[node]]
    assert table[c][c2] != value
    table[c][c2] = value
    rows[node] = tuple(tuple(row) for row in table)
    monkeypatch.setitem(vars(fam), "coset_product", tuple(rows))


@pytest.mark.parametrize("group, nodes_text, entry, expected", [
    # <a> has no node below it, so a wrong entry stays compatible: a law fails
    pytest.param("sym3", "a; a,b", (0, 1, 1, 0), "associativity", id="law-fails"),
    # every node lies over the trivial one, so a wrong entry is incompatible
    pytest.param("klein4", "-; a; b; a b; a,b", (0, 1, 1, 2), "RuntimeError", id="raises"),
])
def test_law_table_and_reference_agree_on_a_corrupted_product(
        monkeypatch, group, nodes_text, entry, expected):
    tc = build(group, nodes_text)
    corrupt_product(monkeypatch, tc, *entry)
    got = outcome(law_records, tc)
    assert got == outcome(reference_law_records, tc)
    if expected == "RuntimeError":
        assert got == ("RuntimeError", "product violates the compatibility invariant")
    else:
        first = next(r for r in got if r[1] == "fail")
        assert first[0] == expected and first[2] is not None


def test_law_table_rejects_a_product_outside_the_elements():
    _, fam, tc = sym3_all_subgroups()
    partial = completion.TruncatedCompletion(fam=fam, elements=tc.elements[:-1])
    with pytest.raises(RuntimeError, match="is not an element of the completion"):
        list(law_records(partial))


def test_law_table_makes_n_squared_products(monkeypatch):
    tc = build("sym4", S4_DIRECTED)
    calls = []
    real = completion.multiply
    monkeypatch.setattr(completion, "multiply",
                        lambda tc, f, g: calls.append(1) or real(tc, f, g))
    assert all(verdict == "pass" for _, verdict, _ in law_records(tc))
    n = len(tc.elements)
    assert n == 24
    # the table, then the two checking products of each invert_stable
    assert len(calls) == n * n + 2 * n


def test_law_records_on_the_216_element_family():
    tc = build("sym4", S4_NON_DIRECTED)
    assert len(tc.elements) == 216
    records = list(law_records(tc))
    assert [r[0] for r in records] == LAW_NAMES
    assert [r[1] for r in records] == ["pass"] * 4 + ["fail", "unknown", "unknown"]
