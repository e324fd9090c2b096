"""Coset graphs, ends-of-pair estimation, and almost-invariant set checks.

The graph on left cosets gL has an edge (gL, gxL) for every generator x of
the chosen set X.  Balls are built breadth-first with deterministic discovery
order, so vertex representatives are canonical: the elements come from
``words.ball``, which steps each element's ``groups.element_step`` key by
one generator, so no element is reduced from the empty word; one
``subgroups.CosetIndex`` numbers their cosets, by the subgroup's coset key
read through ``_left_key`` when it has one, else pairwise.  The coset key
reads only the element's ball key, so a key read from the normal form
(x-powers in BS(m,n), lattices in Z^n) reduces nothing again.  Each element
is keyed once.  An element g below the radius takes its edges from the
ball's step table: g*x is then a numbered ball element whose vertex is
known.  On the outer sphere, g*x steps from the key of g and is looked up
in the ball's own numbering first: only products outside the ball are
keyed, or compared pairwise through the word g*x.  The ball
keeps every element with its vertex, and ``claim3_check`` reads those pairs.
Ends of the pair (G, L) are estimated by counting annulus components that
reach the outer sphere over an increasing radius schedule; the result is a
report with a stabilization flag, never a certificate.

Almost-invariant subsets B live at two levels: as a vertex subset of the ball
(B = BL, a union of cosets) and as an element predicate on the group (needed
for right translates Bx, which do not descend to cosets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from . import baumslag_solitar as bs
from . import groups, words
from .subgroups import CosetIndex, CosetSet, SubgroupHandle
from .words import Word, format_word, invert

Edge = tuple[int, int, int]  # vertex index, vertex index, X index


class CosetOracleError(ValueError):
    """Coset equality could not be decided by the subgroup's oracle."""


@dataclass(frozen=True, eq=False)
class CosetGraphBall:
    ctx: groups.GroupContext
    sub: SubgroupHandle
    gens: tuple  # the generating set X
    radius: int
    vertices: tuple  # canonical representatives, BFS discovery order
    depth: tuple
    edges: tuple  # (u, v, label) with label an index into gens
    index: CosetIndex = field(repr=False)  # the left cosets of sub, one per vertex
    elements: tuple = field(repr=False)  # (element, its vertex) per ball element, BFS order

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True, eq=False)
class VertexSet:
    ball: CosetGraphBall
    indices: frozenset

    def __post_init__(self):
        if any(i < 0 or i >= self.ball.vertex_count for i in self.indices):
            raise ValueError("vertex set escapes the ball")


def vertex_set(ball: CosetGraphBall, predicate) -> VertexSet:
    """The vertex subset where the predicate holds on the canonical
    representative."""
    return VertexSet(ball, frozenset(
        i for i, rep in enumerate(ball.vertices) if predicate(rep)))


def _left_key(key_fn, g_key):
    """The key of the left coset gL under the subgroup's coset key, from g's
    element key: the one named call per key the ball computes, which the
    per-layer trace counts."""
    return key_fn(g_key)


def coset_graph_ball(ctx, sub: SubgroupHandle, gens, radius: int) -> CosetGraphBall:
    """Cosets of all elements of length at most radius, with every edge
    (gL, gxL) witnessed by a ball element g.

    Edges must be collected from every element, not only from the canonical
    vertex representatives: when the subgroup is not normal, a coset can gain
    extra neighbors through its non-canonical members (the coset graph of a
    commensurated subgroup has finite but nontrivial local degree).

    An element below the radius has a row in the step table of the element
    ball, so the vertex of each g*x is that of a numbered element; so is
    that of an outer-sphere product whose element key, one map from the key
    of g, is a ball element's.  Only a product outside the ball asks the
    index, keyed from that element key or compared pairwise by the word."""
    gens = tuple(gens)
    x_maps = [groups.element_step(ctx)[1](x) for x in gens]
    key_fn = sub.membership.coset_key(sub)
    index = CosetIndex(sub, "left", None if key_fn is None else partial(_left_key, key_fn))
    depth: list = []
    # (element, its vertex), each vertex added when its first element is met
    elements = []
    table: list = []  # per element below the radius: the numbers of g*x, g*x^-1, ...
    numbers: dict = {}  # the ball's element key -> element number
    for g, r, g_key in _element_layers(ctx, gens, radius, table, numbers):
        i = index.add(g, g_key)
        if index.undecided:
            raise CosetOracleError("coset equality undecided during expansion")
        if i == len(depth):
            depth.append(r)
        elements.append((g, i))
    keys = list(numbers)  # the element key of each element, numbered in order
    edges = []
    seen_edges = set()
    for e, (g, source) in enumerate(elements):
        if e < len(table):
            targets = [elements[n][1] for n in table[e][::2]]
        else:
            targets = []
            for x, x_map in zip(gens, x_maps):
                k = x_map(keys[e])
                n = numbers.get(k)  # g*x is a ball element: take its vertex
                targets.append(elements[n][1] if n is not None else index.find(None, k)
                               if key_fn is not None else index.find(g * x))
            if "unknown" in targets:
                raise CosetOracleError("coset equality undecided during expansion")
        for label, target in enumerate(targets):
            if target is None:
                continue
            edge = (source, target, label)
            if edge not in seen_edges:
                seen_edges.add(edge)
                edges.append(edge)
    return CosetGraphBall(ctx=ctx, sub=sub, gens=gens, radius=radius,
                          vertices=tuple(index.representatives), depth=tuple(depth),
                          edges=tuple(edges), index=index, elements=tuple(elements))


# ---------------------------------------------------------------------------
# ends estimation


class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[ri] = rj


def _annulus_components(ball: CosetGraphBall, inner: int, outer: int) -> int:
    """Components of the subgraph on depths in (inner, outer] that contain a
    vertex on the outer sphere."""
    members = [i for i in range(ball.vertex_count) if inner < ball.depth[i] <= outer]
    if not members:
        return 0
    uf = _UnionFind(members)
    member_set = set(members)
    for u, v, _ in ball.edges:
        if u in member_set and v in member_set:
            uf.union(u, v)
    touching = {uf.find(i) for i in members if ball.depth[i] == outer}
    return len(touching)


def ends_estimate(ctx, sub: SubgroupHandle, gens, radii) -> dict:
    """Annulus component counts over the radius schedule; the estimate is the
    final count and stabilized means the trailing counts agree."""
    radii = list(radii)
    if any(b <= a for a, b in zip(radii, radii[1:])) or not radii:
        raise ValueError("radii must be strictly increasing and nonempty")
    ball = coset_graph_ball(ctx, sub, gens, radii[-1])
    counts = [_annulus_components(ball, r1, r2) for r1, r2 in zip(radii, radii[1:])]
    if not counts:
        counts = [_annulus_components(ball, 0, radii[0])]
    stabilized = len(counts) >= 2 and counts[-1] == counts[-2]
    return {"radii": radii, "counts": counts, "estimate": counts[-1],
            "stabilized": stabilized}


# ---------------------------------------------------------------------------
# almost-invariant sets


def boundary_edges(b: VertexSet, ball: CosetGraphBall):
    """Edges with exactly one endpoint in the vertex set."""
    if b.ball is not ball:
        raise ValueError("vertex set belongs to a different ball")
    return [(u, v, label) for u, v, label in ball.edges
            if (u in b.indices) != (v in b.indices)]


def _element_layers(ctx, gens, radius: int, table: list | None = None, numbers=None):
    """Distinct group elements of length at most radius over the given set,
    each with its length and element key, breadth first; the steps are x,
    x^-1 per x in gens, in that order, for the ball's step table."""
    steps = [s for x in gens for s in (x, invert(x))]
    start, prepare = groups.element_step(ctx)
    return words.ball(steps, radius, start, [prepare(s) for s in steps], table, numbers)


def element_ball(ctx, gens, radius: int):
    """Distinct group elements of length at most radius over the given set."""
    return [e for e, _, _ in _element_layers(ctx, gens, radius)]


def claim3_check(predicate, ball: CosetGraphBall) -> dict:
    """For an element-level predicate B with B = BL: computes the vertex set
    Y = (union over the ball's generators x of (B + Bx^-1) and (B + Bx)) L
    inside the ball, checks every boundary edge of B has both endpoints in Y,
    and reports the boundary-edge count per radius."""
    for e, vi in ball.elements:
        if predicate(e) != predicate(ball.vertices[vi]):
            raise ValueError("predicate is not constant on cosets: B != BL")
    b_vertices = vertex_set(ball, predicate)
    y_indices = set()
    for e, vi in ball.elements:
        if any(predicate(e) != predicate(e * x) or predicate(e) != predicate(e * invert(x))
               for x in ball.gens):
            y_indices.add(vi)
    border = boundary_edges(b_vertices, ball)
    per_radius = []
    for r in range(1, ball.radius + 1):
        per_radius.append(sum(1 for u, v, _ in border
                              if ball.depth[u] <= r and ball.depth[v] <= r))
    contained = all(u in y_indices and v in y_indices for u, v, _ in border)
    return {"boundary_count_per_radius": per_radius,
            "contained_in_Y": contained,
            "y_vertex_count": len(y_indices),
            "y_vertices": frozenset(y_indices)}


def double_coset_membership(b: CosetSet, sub: SubgroupHandle, ball_radius: int):
    """Within the ball of subgroup elements of the given radius: True when B
    is closed under left multiplication of its representatives by subgroup
    elements, False on a certified escape, otherwise unknown."""
    if b.side != "left":
        raise ValueError("double-coset test expects a union of left cosets")
    index = CosetIndex(sub, "left")  # pairwise, so find compares with each of B's cosets
    index.representatives.extend(b.representatives)
    sub_elements = element_ball(sub.ctx, sub.generators, ball_radius)
    undecided = False
    for g in b.representatives:
        for h in sub_elements:
            hit = index.find(h * g)
            if hit is None:
                return False
            undecided = undecided or hit == "unknown"
    return "unknown" if undecided else True


def double_coset_orbit(sub: SubgroupHandle, g: Word, ball_radius: int) -> CosetSet:
    """The left cosets inside HgH reachable with subgroup elements of the
    given radius: representatives h*g de-duplicated by coset equality."""
    index = CosetIndex(sub, "left")
    for h in element_ball(sub.ctx, sub.generators, ball_radius):
        index.add(h * g)
    return CosetSet(sub, tuple(index.representatives), "left")


# ---------------------------------------------------------------------------
# fixture side predicates and DOT output


def bs_side_predicate(ctx):
    """Classifies an element of an HNN fixture by the sign of the first
    stable letter of its normal form; pure base elements land on False.
    Constant on left cosets of any base-group subgroup."""
    m, n = ctx.bs_params

    def side(w: Word) -> bool:
        tail = bs.britton_reduce(w, m, n)[1]
        return bool(tail) and tail[0][0] == 1

    return side


def to_dot(ball: CosetGraphBall, names=None) -> str:
    """The ball as an undirected DOT graph."""
    lines = ["graph ball {", "  node [shape=circle];"]
    for i, rep in enumerate(ball.vertices):
        lines.append(f'  v{i} [label="{format_word(rep, names)}"];')
    for u, v, label in ball.edges:
        x = format_word(ball.gens[label], names)
        lines.append(f'  v{u} -- v{v} [label="{x}"];')
    lines.append("}")
    return "\n".join(lines)
