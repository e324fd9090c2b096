"""The package's immutable values (``groups.Frozen`` subclasses): equality,
hashing, immutability and the checks their constructors run."""

import pytest

from nearnormal import completion, ends, families, groups, subgroups
from nearnormal.groups import CosetTable, GroupContext, Incomplete, preset
from nearnormal.subgroups import (
    AM, All, Conjugate, CosetSet, Folded, Lattice, Table, Trivial, XPower, trivial_subgroup,
    whole_group,
)
from nearnormal.words import Word, generator, parse_word


def _sym3_family():
    ctx = preset("sym3")
    return families.truncation(ctx, families.parse_nodes(ctx, "-; a b; a,b"))


def _ball():
    ctx = preset("free(2)")
    sub = subgroups.free_subgroup(ctx, [generator(0)])
    return ends.coset_graph_ball(ctx, sub, [generator(0), generator(1)], 2)


def _sym3_with_action(action):
    fam = _sym3_family()
    return families.FamilyTruncation(fam.ctx, fam.nodes, fam.members, fam.order, action,
                                     fam.normal_in)


# class -> (a function of 0 or 1 building an instance, whether instances
# built from equal fields are equal, and whether 0 and 1 hash alike).  The
# instances of 0 and 1 differ in a compared field, except where noted.
CASES = {
    # the name is not compared
    GroupContext: (lambda i: GroupContext(("a",), (), ("free", "free-abelian")[i], "g"),
                   True, False),
    Incomplete: (lambda i: Incomplete(3 + i, 5), True, False),
    CosetTable: (lambda i: CosetTable(1, ((0, 0),), (Word(((0, 1),) * i),)), True, False),
    subgroups.SubgroupHandle: (
        lambda i: (trivial_subgroup, whole_group)[i](preset("sym3")), True, False),
    CosetSet: (lambda i: CosetSet(trivial_subgroup(preset("sym3")), (Word(()),),
                                  ("right", "left")[i]), True, False),
    # a field-less oracle is equal to its class's others alone
    All: (lambda i: (All, Trivial)[i](), True, True),
    Trivial: (lambda i: (Trivial, All)[i](), True, True),
    Table: (lambda i: (Table, Folded)[i](), True, True),
    Folded: (lambda i: (Folded, Table)[i](), True, True),
    XPower: (lambda i: XPower(2, generator(1, i)), True, False),
    Lattice: (lambda i: Lattice(((1 + i, 0),)), True, False),
    AM: (lambda i: AM(i), True, False),
    Conjugate: (lambda i: Conjugate(trivial_subgroup(preset("thompson-f")),
                                    parse_word(("x0", "x1")[i], ("x0", "x1"))), True, False),
    # conjugation_action, a dict, is compared but not hashed
    families.FamilyTruncation: (
        lambda i: _sym3_with_action({**_sym3_family().conjugation_action,
                                     (0, (0, 1)): i}), True, True),
    families.FiniteModule: (lambda i: families.regular_module(preset("sym3"), p=(2, 3)[i]),
                            True, False),
    completion.TruncatedCompletion: (
        lambda i: completion.TruncatedCompletion(_sym3_family(), ((0, 0, 0),)[:1 - i]),
        True, False),
    # balls and vertex sets compare by identity
    ends.CosetGraphBall: (lambda i: _ball(), False, False),
    ends.VertexSet: (lambda i: ends.VertexSet(_ball(), frozenset({i})), False, False),
}


def test_every_frozen_class_has_a_case():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    ours = {cls for cls in subclasses(groups.Frozen) if cls.__module__.startswith("nearnormal.")}
    assert ours - {subgroups.Oracle} == set(CASES)
    assert len(CASES) == 18


@pytest.mark.parametrize("cls", CASES, ids=[cls.__name__ for cls in CASES])
def test_equality_and_hash(cls):
    make, by_value, hashed_alike = CASES[cls]
    a, b, other = make(0), make(0), make(1)
    assert type(a) is cls and a == a and hash(a) == hash(a)
    assert (a == b) is by_value and (a != b) is not by_value
    assert a != other and not (a == other)
    assert a != object() and a != None  # noqa: E711
    if by_value:
        assert hash(a) == hash(b) and len({a, b, other}) == 2
    if hashed_alike:
        assert hash(a) == hash(other)


@pytest.mark.parametrize("cls", CASES, ids=[cls.__name__ for cls in CASES])
def test_fields_cannot_be_set_or_deleted(cls):
    value = CASES[cls][0](0)
    fields = dict(vars(value))
    name = next(iter(fields), "tag")  # a field-less oracle has its class's tag
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.new_field = 1
    assert vars(value) == fields


def test_group_context_name_is_kept_and_not_compared():
    one, two = (GroupContext(("a",), (), "free", name) for name in ("one", "two"))
    assert (one.name, two.name) == ("one", "two") and one == two
    assert GroupContext(("a",), (), "free").name == ""


@pytest.mark.parametrize("build, message", [
    (lambda: GroupContext(("a",), (), "guess"), "unknown oracle 'guess'"),
    (lambda: GroupContext(("a",), (generator(1),), "free"), "uses an undeclared generator"),
    (lambda: GroupContext(("x", "y"), (generator(0),), "britton"), "britton oracle needs"),
    (lambda: subgroups.SubgroupHandle(preset("sym3"), (generator(0),), None, Trivial()),
     "membership oracle rejects a listed generator"),
    (lambda: CosetSet(trivial_subgroup(preset("sym3")), (Word(()),), "sideways"),
     "side must be 'left' or 'right'"),
    (lambda: CosetSet(whole_group(preset("sym3")), (Word(()), generator(0)), "right"),
     "representatives are not in distinct cosets"),
    (lambda: ends.VertexSet(_ball(), frozenset({-1})), "vertex set escapes the ball"),
], ids=["oracle", "relator", "britton", "handle", "side", "cosets", "vertex-set"])
def test_constructors_reject_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_defaults_are_kept():
    assert XPower(2).conjugator == Word(())
    assert CosetSet(trivial_subgroup(preset("sym3")), (Word(()),)).side == "right"
    ball = _ball()
    assert ball.vertex_count == len(ball.first) == len(ball.depth) > 0
    fresh = ends.CosetGraphBall(ball.ctx, ball.sub, ball.gens, ball.radius, ball.index,
                                ball.steps, ball.parent, ball.step, ball.keys, ball.table)
    assert (fresh.vertex, fresh.first, fresh.depth, fresh.edges) == ([], [], [], [])
    assert fresh.word(0) == Word(())
