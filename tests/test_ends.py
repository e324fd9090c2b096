"""Coset graph balls, ends estimation, and almost-invariant boundaries."""

import pytest

from bare import bare_subgroup
from nearnormal import baumslag_solitar as bs, ends, groups
from nearnormal.ends import (
    CosetOracleError, boundary_edges, bs_side_predicate, claim3_check,
    coset_graph_ball, double_coset_membership, double_coset_orbit,
    VertexSet, element_ball, ends_estimate, to_dot,
)
from nearnormal.groups import element_key, parse_context_word, preset
from nearnormal.subgroups import (
    CosetIndex, CosetSet, XPower, am_subgroup, conjugate, finite_subgroup, free_subgroup,
    lattice_subgroup, power_subgroup, same_coset, subgroup_from_words, trivial_subgroup,
)
from nearnormal.words import Word, exponent_vector, generator, invert, parse_word


def vertex_index(ball, g):
    """The vertex of an arbitrary element's coset within the ball, or None."""
    i = ball.index.find(g)
    if i == "unknown":
        raise CosetOracleError("coset equality undecided during expansion")
    return i


def vertex_set(ball, predicate):
    """The vertex subset where the predicate holds on the canonical
    representative."""
    return VertexSet(ball, frozenset(
        i for i, rep in enumerate(ball.vertices) if predicate(rep)))


def complement(b):
    """The vertices of b's ball outside the vertex set b."""
    return VertexSet(b.ball, frozenset(range(b.ball.vertex_count)) - b.indices)


def bfs_components(ball, members):
    """Connected components of the induced subgraph, computed directly."""
    members = set(members)
    adj = {i: set() for i in members}
    for u, v, _ in ball.edges:
        if u in members and v in members:
            adj[u].add(v)
            adj[v].add(u)
    seen = set()
    comps = []
    for start in sorted(members):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            cur = queue.pop()
            for nb in adj[cur]:
                if nb not in comp:
                    comp.add(nb)
                    queue.append(nb)
        seen |= comp
        comps.append(comp)
    return comps


def plane_over_the_u_line(radius):
    """The coset-graph ball of Z^2 over <u> = <(1, 0)>, on both generators."""
    ctx = preset("zn(2)")
    sub = lattice_subgroup(ctx, [(1, 0)])
    return coset_graph_ball(ctx, sub, (generator(0), generator(1)), radius)


def test_line_ball_shape():
    ctx = preset("zn(1)")
    sub = trivial_subgroup(ctx)
    ball = coset_graph_ball(ctx, sub, (generator(0),), 3)
    assert ball.vertex_count == 7
    assert sorted(ball.depth) == [0, 1, 1, 2, 2, 3, 3]
    # an undirected line: six distinct edges
    assert len(ball.edges) == 6
    comps = bfs_components(ball, range(ball.vertex_count))
    assert len(comps) == 1


def test_line_has_two_ends():
    ctx = preset("zn(1)")
    sub = trivial_subgroup(ctx)
    report = ends_estimate(ctx, sub, (generator(0),), range(1, 21))
    assert report["estimate"] == 2
    assert report["stabilized"] is True
    assert all(c == 2 for c in report["counts"][1:])


def test_plane_has_one_end():
    ctx = preset("zn(2)")
    sub = trivial_subgroup(ctx)
    gens = (generator(0), generator(1))
    report = ends_estimate(ctx, sub, gens, [2, 4, 6, 8])
    assert report["estimate"] == 1
    assert report["stabilized"] is True


def test_line_quotient_of_plane_has_two_ends():
    ctx = preset("zn(2)")
    sub = lattice_subgroup(ctx, [(1, 0)])
    gens = (generator(0), generator(1))
    report = ends_estimate(ctx, sub, gens, [2, 4, 6, 8])
    assert report["estimate"] == 2
    assert report["stabilized"] is True


def test_quotient_ball_vertices_and_loops():
    ball = plane_over_the_u_line(2)
    # cosets are classified by the v-exponent alone
    assert ball.vertex_count == 5
    loops = [(u, v, l) for u, v, l in ball.edges if u == v]
    assert len(loops) == 5
    assert all(l == 0 for _, _, l in loops)


def test_ends_estimate_validates_radii():
    ctx = preset("zn(1)")
    sub = trivial_subgroup(ctx)
    with pytest.raises(ValueError):
        ends_estimate(ctx, sub, (generator(0),), [4, 2])
    with pytest.raises(ValueError):
        ends_estimate(ctx, sub, (generator(0),), [])


def test_ball_refuses_undecidable_cosets():
    # a bare handle with no membership oracle cannot decide coset equality
    ctx = preset("free(2)")
    sub = bare_subgroup(ctx, (generator(0),))
    with pytest.raises(CosetOracleError):
        coset_graph_ball(ctx, sub, (generator(0), generator(1)), 2)


# --- boundaries --------------------------------------------------------------

def half_line_predicate(w):
    return exponent_vector(w, 2)[1] > 0


def test_boundary_edges_of_a_half_line():
    ball = plane_over_the_u_line(4)
    half = vertex_set(ball, half_line_predicate)
    border = boundary_edges(half, ball)
    assert len(border) == 1
    assert boundary_edges(complement(half), ball) == border
    everything = vertex_set(ball, lambda w: True)
    assert boundary_edges(everything, ball) == []


def test_boundary_of_a_single_interior_vertex():
    ctx = preset("zn(1)")
    sub = trivial_subgroup(ctx)
    ball = coset_graph_ball(ctx, sub, (generator(0),), 3)
    one = vertex_set(ball, lambda w: w == generator(0))
    assert len(boundary_edges(one, ball)) == 2


def test_vertex_set_validation():
    ctx = preset("zn(1)")
    sub = trivial_subgroup(ctx)
    ball3 = coset_graph_ball(ctx, sub, (generator(0),), 3)
    ball2 = coset_graph_ball(ctx, sub, (generator(0),), 2)
    half = vertex_set(ball3, lambda w: True)
    with pytest.raises(ValueError):
        boundary_edges(half, ball2)


def test_claim3_half_line_boundary_is_bounded():
    ball = plane_over_the_u_line(4)
    report = claim3_check(half_line_predicate, ball)
    assert report["contained_in_Y"] is True
    assert report["y_vertex_count"] == 2
    assert report["boundary_count_per_radius"] == [1, 1, 1, 1]


def test_claim3_trivial_predicate():
    ball = plane_over_the_u_line(4)
    report = claim3_check(lambda w: False, ball)
    assert report["y_vertex_count"] == 0
    assert report["boundary_count_per_radius"] == [0, 0, 0, 0]
    assert report["contained_in_Y"] is True


def test_claim3_rejects_non_coset_predicates():
    ball = plane_over_the_u_line(3)
    with pytest.raises(ValueError):
        claim3_check(lambda w: exponent_vector(w, 2)[0] > 0, ball)


# --- the HNN fixture ---------------------------------------------------------

def test_bs_ball_matches_pairwise_classification():
    ctx = preset("bs(2,3)")
    sub = power_subgroup(ctx, 1)
    gens = (generator(0), generator(1))
    ball = coset_graph_ball(ctx, sub, gens, 2)
    for i in range(ball.vertex_count):
        for j in range(i + 1, ball.vertex_count):
            assert same_coset(sub, ball.vertices[i], ball.vertices[j], "left") is False
    elements = element_ball(ctx, gens, 2)
    expected = []
    for e in elements:
        if not any(same_coset(sub, r, e, "left") is True for r in expected):
            expected.append(e)
    assert ball.vertex_count == len(expected)


@pytest.mark.parametrize("u", ["a", "b a^2 b^-1", "a b a^-1 b^-1"])
def test_free_cyclic_ball_matches_pairwise_classification(u):
    ctx = preset("free(2)")
    sub = free_subgroup(ctx, [parse_word(u, ("a", "b"))])
    gens = (generator(0), generator(1))
    ball = coset_graph_ball(ctx, sub, gens, 3)
    expected = []
    for e in element_ball(ctx, gens, 3):
        hits = [i for i, r in enumerate(expected) if same_coset(sub, r, e, "left") is True]
        if not hits:
            expected.append(e)
        assert vertex_index(ball, e) == (hits[0] if hits else len(expected) - 1)
    assert list(ball.vertices) == expected


def test_ball_builds_its_coset_key_once(monkeypatch):
    built = []

    def counting(oracle, sub):
        built.append(sub)
        return key_fn(oracle, sub)

    key_fn = XPower.coset_key
    monkeypatch.setattr(XPower, "coset_key", counting)
    ctx = preset("bs(2,3)")
    gens = (generator(0), generator(1))
    ball = coset_graph_ball(ctx, power_subgroup(ctx, 2), gens, 3)
    for e in element_ball(ctx, gens, 3):
        assert vertex_index(ball, e) is not None
    assert len(built) == 1


def test_bs_edges_come_from_all_coset_members():
    # xyL != yL, yet the coset xL reaches xyL through its member x: the edge
    # (L, x)(x y)L exists only because x y L = (x)(y)L with x in L
    ctx = preset("bs(2,3)")
    sub = power_subgroup(ctx, 1)
    x, y = generator(0), generator(1)
    ball = coset_graph_ball(ctx, sub, (x, y), 2)
    base = vertex_index(ball, Word(()))
    xy = vertex_index(ball, x * y)
    yv = vertex_index(ball, y)
    assert xy is not None and yv is not None and xy != yv
    assert any((u, v) in ((base, xy), (xy, base))
               for u, v, label in ball.edges if label == 1)


def test_bs_subgroup_side_has_two_or_more_ends():
    ctx = preset("bs(2,3)")
    sub = power_subgroup(ctx, 2)
    gens = (generator(0), generator(1))
    report = ends_estimate(ctx, sub, gens, [2, 3, 4, 5])
    assert report["estimate"] >= 2


def test_bs_side_predicate_truth_table():
    ctx = preset("bs(2,3)")
    side = bs_side_predicate(ctx)
    x, y = generator(0), generator(1)
    assert side(y * x) is True
    assert side(Word(())) is False
    assert side(x) is False
    assert side(y) is True
    assert side(invert(y) * x ** 2 * y) is False  # reduces to x^3
    with pytest.raises(ValueError):
        bs_side_predicate(preset("sym3"))


def test_claim3_on_the_bs_side_predicate():
    ctx = preset("bs(2,3)")
    sub = power_subgroup(ctx, 1)
    gens = (generator(0), generator(1))
    ball = coset_graph_ball(ctx, sub, gens, 4)
    report = claim3_check(bs_side_predicate(ctx), ball)
    assert report["contained_in_Y"] is True
    counts = report["boundary_count_per_radius"]
    assert counts == sorted(counts)  # cumulative by construction


# The two suite fixtures, ends/claim3-half-plane and ends/claim3-bs-side, and
# their reports.
CLAIM3_FIXTURES = {
    "half-plane": ("zn(2)", lambda ctx: lattice_subgroup(ctx, [(1, 0)]),
                   lambda ctx: lambda w: exponent_vector(w, 2)[1] > 0,
                   {"boundary_count_per_radius": [1, 1, 1, 1], "contained_in_Y": True,
                    "y_vertex_count": 2, "y_vertices": frozenset({0, 1})}),
    "bs-side": ("bs(2,3)", lambda ctx: power_subgroup(ctx, 2), bs_side_predicate,
                {"boundary_count_per_radius": [1, 4, 4, 4], "contained_in_Y": True,
                 "y_vertex_count": 6, "y_vertices": frozenset({0, 1, 2, 4, 6, 8})}),
}


@pytest.mark.parametrize("label", sorted(CLAIM3_FIXTURES))
def test_claim3_reads_the_classified_ball(monkeypatch, label):
    group, make_sub, make_predicate, expected = CLAIM3_FIXTURES[label]
    ctx = preset(group)
    gens = (generator(0), generator(1))
    ball = coset_graph_ball(ctx, make_sub(ctx), gens, 4)
    assert [e for e, _ in ball.elements] == element_ball(ctx, gens, 4)
    assert all(vertex_index(ball, e) == vi for e, vi in ball.elements)
    calls = []
    real = groups.element_key
    monkeypatch.setattr(groups, "element_key", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(CosetIndex, "find", lambda *a: pytest.fail("coset looked up again"))
    assert claim3_check(make_predicate(ctx), ball) == expected
    assert calls == []


def test_claim3_calls_the_predicate_once_per_element_and_per_product_leaving_the_ball():
    group, make_sub, make_predicate, expected = CLAIM3_FIXTURES["bs-side"]
    ctx = preset(group)
    ball = coset_graph_ball(ctx, make_sub(ctx), (generator(0), generator(1)), 4)
    side, seen = make_predicate(ctx), []
    assert claim3_check(lambda w: seen.append(w) or side(w), ball) == expected
    elements = [e for e, _ in ball.elements]
    assert len(elements) == 147 and seen[:147] == elements
    # the rest are products of outer-sphere elements that leave the ball
    keys = {element_key(ctx, e) for e in elements}
    assert all(element_key(ctx, w) not in keys for w in seen[147:])
    assert len(seen) == 401  # 1,524 when every element and product was asked again


def claim3_by_words(predicate, ball):
    """claim3_check's vertex sets asked of the predicate on every word again."""
    for e, vi in ball.elements:
        if predicate(e) != predicate(ball.vertices[vi]):
            raise ValueError("predicate is not constant on cosets: B != BL")
    y = {vi for e, vi in ball.elements
         if any(predicate(e) != predicate(e * s) for s in ball.steps)}
    return vertex_set(ball, predicate).indices, y


@pytest.mark.parametrize("group, sub_word, radius, predicate", [
    ("zn(2)", "u", 0, half_line_predicate),
    ("zn(2)", "u", 5, half_line_predicate),
    ("bs(2,3)", "x", 5, bs_side_predicate(preset("bs(2,3)"))),
    ("sym3", "a b", 3, lambda w: len(w) % 2 == 1),  # the sign, constant on <ab>
    ("free(2)", "", 3, lambda w: bool(w.letters) and w.letters[0] == (1, 1)),
])
def test_claim3_matches_asking_every_word(group, sub_word, radius, predicate):
    ctx = preset(group)
    sub = subgroup_from_words(ctx, [parse_context_word(ctx, sub_word)] if sub_word else [])
    ball = coset_graph_ball(ctx, sub, (generator(0), generator(1)), radius)
    b, y = claim3_by_words(predicate, ball)
    report = claim3_check(predicate, ball)
    assert report["y_vertices"] == y and report["y_vertex_count"] == len(y)
    border = boundary_edges(VertexSet(ball, b), ball)
    assert report["contained_in_Y"] == all(u in y and v in y for u, v, _ in border)


# --- double cosets -----------------------------------------------------------

def test_double_coset_membership_fixtures():
    ctx = preset("sym3")
    h = finite_subgroup(ctx, [parse_word("a", ("a", "b"))])
    only_h = CosetSet(h, (Word(()),), "left")
    assert double_coset_membership(only_h, h, 3) is True
    just_b = CosetSet(h, (parse_word("b", ("a", "b")),), "left")
    assert double_coset_membership(just_b, h, 3) is False
    orbit = double_coset_orbit(h, parse_word("b", ("a", "b")), 3)
    assert len(orbit.representatives) == 2
    assert double_coset_membership(orbit, h, 3) is True
    with pytest.raises(ValueError):
        double_coset_membership(CosetSet(h, (Word(()),), "right"), h, 3)


def test_to_dot_output():
    ctx = preset("zn(1)")
    sub = trivial_subgroup(ctx)
    ball = coset_graph_ball(ctx, sub, (generator(0),), 2)
    text = to_dot(ball)
    assert text.startswith("graph ball {")
    assert text.rstrip().endswith("}")
    assert text.count(" -- ") == len(ball.edges)
    assert 'label="1"' in text


def reference_ball(ctx, sub, gens, radius):
    """The reference coset_graph_ball must match: each element is
    classified by pairwise same_coset against every vertex found so far,
    again as an edge source, with every product g*x classified the same way.
    Returns (vertices, depth, edges, element count, the number of products
    g*x of the outer sphere's elements g that are not ball elements)."""
    vertices, depth = [], []

    def classify(g):
        return next((i for i, rep in enumerate(vertices)
                     if same_coset(sub, rep, g, "left") is True), None)

    def add_vertex(g, r):
        if classify(g) is None:
            vertices.append(g)
            depth.append(r)

    elements, frontier = [Word(())], [Word(())]
    add_vertex(Word(()), 0)
    seen = {element_key(ctx, Word(()))}
    for r in range(1, radius + 1):
        nxt = []
        for e in frontier:
            for x in gens:
                for step in (x, invert(x)):
                    cand = e * step
                    key = element_key(ctx, cand)
                    if key not in seen:
                        seen.add(key)
                        elements.append(cand)
                        nxt.append(cand)
                        add_vertex(cand, r)
        frontier = nxt
    edges = []
    for g in elements:
        source = classify(g)
        for label, x in enumerate(gens):
            target = classify(g * x)
            if target is not None and (source, target, label) not in edges:
                edges.append((source, target, label))
    outside = sum(element_key(ctx, g * x) not in seen for g in frontier for x in gens)
    return vertices, depth, edges, len(elements), outside


def x_power(k, conjugator=None):
    def make(ctx):
        sub = power_subgroup(ctx, k)
        return sub if conjugator is None else conjugate(sub, parse_word(conjugator, ("x", "y")))
    return make


@pytest.mark.parametrize("group, make_sub, radius, gens", [
    pytest.param("bs(2,3)", x_power(2), 5, None, id="bs23-x2"),
    pytest.param("zn(2)", lambda ctx: lattice_subgroup(ctx, [(1, 0)]), 4, None, id="z2-lattice"),
    pytest.param("free(2)", lambda ctx: free_subgroup(ctx, [parse_word("a b", ("a", "b"))]),
                 3, None, id="free2-cyclic"),
    pytest.param("free(2)", lambda ctx: free_subgroup(ctx, [parse_word(t, ("a", "b"))
                                                          for t in ("a b", "b a")]),
                 4, None, id="free2-rank-2"),
    pytest.param("sym3", lambda ctx: finite_subgroup(ctx, (generator(0),)), 3, None,
                 id="sym3-table"),
    # no coset key: classified by pairwise membership tests
    pytest.param("thompson-f", lambda ctx: am_subgroup(ctx, 1), 2, None, id="f-a1-unkeyed"),
    # steps that are not the group's generators, the smallest radii, conjugated x-powers
    pytest.param("bs(2,3)", x_power(2), 4, ("x", "x y"), id="bs23-non-generator-gens"),
    pytest.param("free(2)", lambda ctx: free_subgroup(ctx, [parse_word("a", ("a", "b"))]),
                 3, ("a", "a b", "b^2"), id="free2-non-generator-gens"),
    pytest.param("zn(2)", lambda ctx: lattice_subgroup(ctx, [(2, 1)]), 4, ("u v", "v^-1"),
                 id="z2-non-generator-gens"),
    pytest.param("sym3", lambda ctx: finite_subgroup(ctx, (generator(1),)), 3, ("a b", "b"),
                 id="sym3-table-non-generator-gens"),
    pytest.param("bs(2,3)", x_power(2), 0, None, id="radius-0"),
    pytest.param("bs(2,3)", x_power(2), 1, None, id="radius-1"),
    pytest.param("bs(2,3)", x_power(2, "y x"), 4, None, id="bs23-conjugated-x-power"),
    pytest.param("bs(1,2)", x_power(3, "x y^-1"), 3, ("x y", "y"),
                 id="bs12-conjugated-non-generator-gens"),
])
def test_ball_keys_each_element_once(monkeypatch, group, make_sub, radius, gens):
    ctx = preset(group)
    sub = make_sub(ctx)
    gens = ((generator(0), generator(1)) if gens is None
            else tuple(parse_word(g, ctx.generator_names) for g in gens))
    vertices, depth, edges, element_count, outside = reference_ball(ctx, sub, gens, radius)
    calls = []
    real = ends._left_key
    monkeypatch.setattr(ends, "_left_key", lambda *args: calls.append(1) or real(*args))
    ball = coset_graph_ball(ctx, sub, gens, radius)
    assert (list(ball.vertices), list(ball.depth), list(ball.edges)) == (vertices, depth, edges)
    # one key per element at discovery; inner edges come from the step table,
    # and an outer-sphere product that is a ball element takes its vertex, so
    # only the outer sphere's products outside the ball are keyed
    keyed = sub.membership.coset_key(sub) is not None
    assert len(calls) == (element_count + outside if keyed else 0)


def test_inner_edges_do_not_ask_the_oracle_again(monkeypatch):
    # every element below the radius was classified once, when it was met;
    # its edges come from the step table, not from an index lookup of g*x.
    # The outer sphere looks g*x up in the ball first; only products outside
    # it reach the index, with the stepped element key and no word.
    ctx = preset("bs(2,3)")
    gens = (generator(0), generator(1))
    looked_up = []
    real = CosetIndex.find
    monkeypatch.setattr(CosetIndex, "find",
                        lambda self, g, *key: looked_up.append((g, *key)) or real(self, g, *key))
    coset_graph_ball(ctx, power_subgroup(ctx, 2), gens, 4)
    elements = element_ball(ctx, gens, 4)
    in_ball = {element_key(ctx, g) for g in elements}
    sphere = elements[len(element_ball(ctx, gens, 3)):]
    outside = [element_key(ctx, g * x) for g in sphere for x in gens]
    outside = [(None, k) for k in outside if k not in in_ball]
    assert sphere and outside and len(outside) < len(sphere) * len(gens)
    assert looked_up == outside


@pytest.mark.parametrize("group, make_sub", [
    ("bs(2,3)", x_power(2)),
    ("free(2)", lambda ctx: free_subgroup(ctx, [parse_word("a", ("a", "b"))])),
    ("zn(2)", lambda ctx: lattice_subgroup(ctx, [(1, 0)])),
])
def test_a_ball_with_one_column_swapped_differs_from_the_reference(monkeypatch, group, make_sub):
    # negative control of the prepared steps: with the map of the first
    # generator in the column of the second, the ball is no longer the reference
    ctx = preset(group)
    sub = make_sub(ctx)
    gens = (generator(0), generator(1))
    expected = reference_ball(ctx, sub, gens, 3)[:3]
    real = groups.element_step

    def swapped(ctx):
        start, prepare = real(ctx)
        return start, lambda w: prepare(gens[0] if w == gens[1] else w)

    monkeypatch.setattr(groups, "element_step", swapped)
    ball = coset_graph_ball(ctx, sub, gens, 3)
    assert (list(ball.vertices), list(ball.depth), list(ball.edges)) != expected


@pytest.mark.parametrize("group, make_sub, radius", [
    ("bs(2,3)", x_power(2), 5),
    ("bs(2,3)", x_power(2, "y^-1"), 5),
    ("bs(1,2)", x_power(3, "x y^-1"), 4),
])
def test_britton_ball_reduces_no_whole_word(monkeypatch, group, make_sub, radius):
    # element keys step by one generator, an x-push or a one-letter y-push,
    # the left keys read them, and the outer sphere's products step from
    # their element's key
    ctx = preset(group)
    sub = make_sub(ctx)
    gens = (generator(0), generator(1))
    expected = reference_ball(ctx, sub, gens, radius)[:3]
    calls, fed, pushed = [], [], []
    reduce, resume, push_x, key = bs.britton_reduce, bs.resume, bs.push_x, groups.element_key
    monkeypatch.setattr(bs, "britton_reduce", lambda *a: calls.append(a) or reduce(*a))
    monkeypatch.setattr(groups, "element_key", lambda *a: calls.append(a) or key(*a))
    monkeypatch.setattr(bs, "resume", lambda k, letters, *a: fed.append(letters)
                        or resume(k, letters, *a))
    monkeypatch.setattr(bs, "push_x", lambda k, e: pushed.append(e) or push_x(k, e))
    ball = coset_graph_ball(ctx, sub, gens, radius)
    assert calls == []
    # each x step is one x-push; each resume takes one y or the conjugator's
    # inverse, never a word
    assert set(pushed) == {1, -1}
    conjugator_inverse = invert(sub.membership.conjugator).letters
    assert fed and set(fed) <= {((1, 1),), ((1, -1),), conjugator_inverse}
    assert (list(ball.vertices), list(ball.depth), list(ball.edges)) == expected


@pytest.mark.parametrize("group, l_text, radius", [
    ("bs(2,3)", "x^2", 7), ("zn(2)", "u", 20), ("free(2)", "a", 4)])
def test_a_keyed_ball_builds_words_only_when_read(monkeypatch, group, l_text, radius):
    # with a coset key the ball is integers; its vertices and elements are
    # words built on first read, each element's from its parent's, once
    ctx = preset(group)
    sub = subgroup_from_words(ctx, [parse_context_word(ctx, l_text)])
    gens = (generator(0), generator(1))
    expected = element_ball(ctx, gens, radius)
    products = []
    real = Word.__mul__
    monkeypatch.setattr(Word, "__mul__", lambda *a: products.append(a) or real(*a))
    ends_estimate(ctx, sub, gens, [radius - 1, radius])
    ball = coset_graph_ball(ctx, sub, gens, radius)
    assert products == []
    vertices = ball.vertices
    assert len(products) < len(expected) and ball.vertices is vertices
    elements = ball.elements
    assert len(products) == len(expected) - 1 and ball.elements is elements
    assert [e for e, _ in elements] == expected
    assert vertices == tuple(elements[e][0] for e in ball.first)
