"""Coset graphs, ends-of-pair estimation, and almost-invariant set checks.

The graph on left cosets gL has an edge (gL, gxL) for every generator x of
the chosen set X.  Balls are built breadth-first with deterministic discovery
order, so vertex representatives are canonical.  The elements come from
``words.ball_tree``, which steps each element's ``groups.element_step`` key
by one generator, so no element is reduced from the empty word, and one
``subgroups.CosetIndex`` numbers their cosets: by the subgroup's coset key,
read through ``_left_key`` from the element key alone, when it has one, else
pairwise.  Each element is keyed once.  An element below the radius takes
its edges from the tree's step table; on the outer sphere g*x steps from the
key of g and is looked up among the ball's keys first, so only products
outside the ball are keyed, or compared pairwise through the word g*x.  The
ball keeps per element its parent, step, element key and vertex, per vertex
its depth and first element, and the step table.  With a coset key it builds
no word; ``vertices`` and ``elements`` are words built on first read, one
product per element.
Ends of the pair (G, L) are estimated by counting annulus components that
reach the outer sphere over an increasing radius schedule; the result is a
report with a stabilization flag, never a certificate.

Almost-invariant subsets B live at two levels: as a vertex subset of the ball
(B = BL, a union of cosets) and as an element predicate on the group (needed
for right translates Bx, which do not descend to cosets).
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import chain

from . import baumslag_solitar as bs
from . import groups, words
from .subgroups import CosetIndex, CosetSet, SubgroupHandle
from .words import Word, format_word, invert


class CosetOracleError(ValueError):
    """Coset equality could not be decided by the subgroup's oracle."""


class CosetGraphBall(groups.Frozen):
    __eq__, __hash__ = object.__eq__, object.__hash__  # one ball is equal to itself alone

    def __init__(self, ctx: groups.GroupContext, sub: SubgroupHandle, gens: tuple, radius: int,
                 index: CosetIndex, steps: tuple, parent: tuple, step: tuple, keys: tuple,
                 table: list, vertex: list | None = None, first: list | None = None,
                 depth: list | None = None, edges: list | None = None):
        # gens is the generating set X; index holds the left cosets of sub,
        # one per vertex; steps is x, x^-1 per x in gens.  Per ball element,
        # BFS order: the element it steps from, its step, its element key,
        # its vertex; per element below the radius (table), the numbers of
        # its products by the steps.  Per vertex: its first element and its
        # depth; edges are (u, v, label), label an index into gens.
        self.__dict__.update(
            ctx=ctx, sub=sub, gens=gens, radius=radius, index=index, steps=steps,
            parent=parent, step=step, keys=keys, table=table,
            vertex=[] if vertex is None else vertex, first=[] if first is None else first,
            depth=[] if depth is None else depth, edges=[] if edges is None else edges,
            _words={0: Word(())})

    @property
    def vertex_count(self) -> int:
        return len(self.first)

    def word(self, e: int) -> Word:
        """Element e's word: its parent's word times its step, built once."""
        path = []
        while e not in self._words:
            path.append(e)
            e = self.parent[e]
        w = self._words[e]
        for e in reversed(path):
            w = self._words[e] = w * self.steps[self.step[e]]
        return w

    @cached_property
    def vertices(self) -> tuple:
        """The canonical representatives, BFS discovery order."""
        return tuple(map(self.word, self.first))

    @cached_property
    def elements(self) -> tuple:
        """(element, its vertex) per ball element, BFS order."""
        return tuple(zip(map(self.word, range(len(self.vertex))), self.vertex))


class VertexSet(groups.Frozen):
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, ball: CosetGraphBall, indices: frozenset):
        self.__dict__.update(ball=ball, indices=indices)
        if any(i < 0 or i >= ball.vertex_count for i in indices):
            raise ValueError("vertex set escapes the ball")


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
    tree, so the vertex of each g*x is that of a numbered element; so is
    that of an outer-sphere product whose element key, one map from the key
    of g, is a ball element's.  Only a product outside the ball asks the
    index, keyed from that element key or compared pairwise by the word."""
    gens = tuple(gens)
    steps, start, maps = _element_steps(ctx, gens)
    key_fn = sub.membership.coset_key(sub)
    index = CosetIndex(sub, "left", None if key_fn is None else partial(_left_key, key_fn))
    table: list = []  # per element below the radius: the numbers of g*x, g*x^-1, ...
    levels, parent, step, keys = zip(*words.ball_tree(maps, radius, start, table))
    ball = CosetGraphBall(ctx=ctx, sub=sub, gens=gens, radius=radius, index=index,
                          steps=steps, parent=parent, step=step, keys=keys, table=table)
    # a keyed index names a coset by its first element's number, not a word
    elements = range(len(keys))
    ball.vertex.extend(map(index.add, elements if key_fn is not None
                           else map(ball.word, elements), keys))
    if index.undecided:
        raise CosetOracleError("coset equality undecided during expansion")
    for e, i in enumerate(ball.vertex):
        if i == len(ball.first):
            ball.first.append(e)
            ball.depth.append(levels[e])
    vertex, inner = ball.vertex, len(table)
    vertex_at = dict(zip(keys, vertex))  # element key -> vertex
    rows = [[vertex[n] for n in row[::2]] for row in table]
    # the outer sphere, element by element: the element keys of g*x per x
    for e, products in enumerate(zip(*(map(x_map, keys[inner:]) for x_map in maps[::2])), inner):
        targets = [v if (v := vertex_at.get(k)) is not None  # g*x is a ball element
                   else index.find(None, k) if key_fn is not None
                   else index.find(ball.word(e) * x) for k, x in zip(products, gens)]
        if "unknown" in targets:
            raise CosetOracleError("coset equality undecided during expansion")
        rows.append(targets)
    ball.edges.extend(dict.fromkeys(
        (source, target, label) for source, targets in zip(vertex, rows)
        for label, target in enumerate(targets) if target is not None))
    return ball


# ---------------------------------------------------------------------------
# ends estimation


def _annulus_components(ball: CosetGraphBall, inner: int, outer: int) -> int:
    """Components of the subgraph on depths in (inner, outer] that contain a
    vertex on the outer sphere, by union-find over the members."""
    root = {i: i for i, d in enumerate(ball.depth) if inner < d <= outer}

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for u, v, _ in ball.edges:
        if u in root and v in root:
            root[find(u)] = find(v)
    return len({find(i) for i in root if ball.depth[i] == outer})


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


def _element_steps(ctx, gens):
    """The steps x, x^-1 per x in gens, in that order, the identity's
    element key and the key map of each step."""
    steps = tuple(s for x in gens for s in (x, invert(x)))
    start, prepare = groups.element_step(ctx)
    return steps, start, [prepare(s) for s in steps]


def element_ball(ctx, gens, radius: int):
    """Distinct group elements of length at most radius over the given set."""
    steps, start, maps = _element_steps(ctx, gens)
    return [e for e, _, _ in words.ball(steps, radius, start, maps)]


def claim3_check(predicate, ball: CosetGraphBall) -> dict:
    """For an element-level predicate B with B = BL: computes the vertex set
    Y = (union over the ball's generators x of (B + Bx^-1) and (B + Bx)) L
    inside the ball, checks every boundary edge of B has both endpoints in Y,
    and reports the boundary-edge count per radius.

    The predicate runs once per ball element; a product g*x^(+-1) that is a
    ball element, read from the step table below the radius and by element
    key on the outer sphere, reuses that element's value, so the predicate
    runs again only on products that leave the ball."""
    value = [predicate(ball.word(e)) for e in range(len(ball.vertex))]
    if any(v != value[ball.first[vi]] for v, vi in zip(value, ball.vertex)):
        raise ValueError("predicate is not constant on cosets: B != BL")
    b_vertices = VertexSet(ball, frozenset(i for i, e in enumerate(ball.first) if value[e]))
    _, _, maps = _element_steps(ball.ctx, ball.gens)
    number = {k: e for e, k in enumerate(ball.keys)}
    outer = ([number.get(x_map(k)) for x_map in maps] for k in ball.keys[len(ball.table):])
    y_indices = set()
    for e, (row, vi) in enumerate(zip(chain(ball.table, outer), ball.vertex)):
        if any(value[e] != (predicate(ball.word(e) * x) if n is None else value[n])
               for n, x in zip(row, ball.steps)):
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
    labels = [format_word(x, names) for x in ball.gens]
    lines.extend(f'  v{u} -- v{v} [label="{labels[label]}"];' for u, v, label in ball.edges)
    lines.append("}")
    return "\n".join(lines)
