"""Presentations, coset enumeration, and the element-key oracles."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearnormal import groups
from nearnormal.groups import (
    Incomplete, PresentationError, context_from_text, element_key,
    group_elements, is_trivial, parse_context_word, preset,
    regular_table, serialize_presentation, todd_coxeter,
)
from nearnormal.words import Word, ball, generator, invert, parse_word

# --- a permutation model of sym3 as the independent oracle ------------------

A_PERM = (1, 0, 2)
B_PERM = (0, 2, 1)
IDENT = (0, 1, 2)


def compose(p, q):
    """Apply p, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def perm_of(w):
    table = {(0, 1): A_PERM, (1, 1): B_PERM,
             (0, -1): A_PERM, (1, -1): B_PERM}  # both are involutions
    out = IDENT
    for letter in w:
        out = compose(out, table[letter])
    return out


def random_word(rng, rank, max_len):
    letters = [(rng.randrange(rank), rng.choice((1, -1)))
               for _ in range(rng.randrange(max_len + 1))]
    return Word(letters)


def test_sym3_matches_the_permutation_model():
    ctx = preset("sym3")
    rng = random.Random(0)
    for _ in range(200):
        u = random_word(rng, 2, 8)
        v = random_word(rng, 2, 8)
        assert is_trivial(ctx, u * invert(v)) == (perm_of(u) == perm_of(v))
        assert (element_key(ctx, u) == element_key(ctx, v)) == (perm_of(u) == perm_of(v))


def test_sym3_element_count_and_keys():
    ctx = preset("sym3")
    elements = group_elements(ctx)
    assert len(elements) == 6
    assert len({element_key(ctx, g) for g in elements}) == 6
    assert len({perm_of(g) for g in elements}) == 6


@pytest.mark.parametrize("name,order", [
    ("sym3", 6), ("klein4", 4), ("cyclic(1)", 1), ("cyclic(5)", 5), ("cyclic(12)", 12),
])
def test_preset_orders(name, order):
    assert len(group_elements(preset(name))) == order


def test_regular_table_representatives_index_themselves():
    ctx = preset("sym3")
    table = regular_table(ctx)
    assert table.coset_count == 6
    for i, rep in enumerate(table.representatives):
        assert table.coset_of(rep) == i
    assert table.representatives[0] == Word(())


def test_coset_table_step_is_an_action():
    ctx = preset("klein4")
    table = regular_table(ctx)
    rng = random.Random(1)
    for _ in range(50):
        w = random_word(rng, 2, 6)
        c = 0
        for letter in w:
            c = table.step(c, letter)
        assert c == table.coset_of(w)


def context_and_table(group, subgroup):
    """The context of a group spec, and the coset table of the subgroup
    generated by one word, or the regular table."""
    ctx = groups.load(group)
    table = (todd_coxeter(ctx, [parse_context_word(ctx, subgroup)], 1000) if subgroup
             else regular_table(ctx))
    return ctx, table


@pytest.mark.parametrize("group, subgroup", [
    ("sym3", ""), ("sym4", ""), ("alt5", ""), ("cyclic(120)", ""),
    ("sym4", "b"),  # the eight cosets of <b>, not a regular table
], ids=["sym3", "s4", "a5", "cyclic120", "s4-mod-b"])
def test_coset_of_walks_the_table_like_step(group, subgroup):
    ctx, table = context_and_table(group, subgroup)
    assert table.coset_count == (8 if subgroup else len(group_elements(ctx)))
    rng = random.Random(23)
    for _ in range(40):
        w = random_word(rng, ctx.generator_count, 12)
        for start in range(table.coset_count):
            c = start
            for letter in w:
                c = table.step(c, letter)
            assert table.coset_of(w, start=start) == c


@pytest.mark.parametrize("group, subgroup", [("sym3", ""), ("sym4", "b")], ids=["sym3", "s4-mod-b"])
def test_validate_table_rejects_a_relator_exactly_when_one_coset_moves(group, subgroup):
    ctx, table = context_and_table(group, subgroup)
    groups._validate_table(table, [], ctx.relators)
    rng = random.Random(5)
    outcomes = set()
    for _ in range(60):
        r = random_word(rng, 2, 8)
        moved = any(table.coset_of(r, start=c) != c for c in range(table.coset_count))
        outcomes.add(moved)
        if moved:
            with pytest.raises(RuntimeError, match="relator does not act trivially"):
                groups._validate_table(table, [], (r,))
        else:
            groups._validate_table(table, [], (r,))
    assert outcomes == {True, False}
    # two rows of generator 0's column swapped: no longer an action
    rows = [list(row) for row in table.action]
    rows[0][0], rows[1][0] = rows[1][0], rows[0][0]
    broken = groups.CosetTable(table.ngens, tuple(map(tuple, rows)), table.representatives)
    with pytest.raises(RuntimeError, match="generator 0 does not act as a permutation"):
        groups._validate_table(broken, [], ())


def test_subgroup_enumeration_indices():
    ctx = preset("cyclic(6)")
    a = generator(0)
    assert todd_coxeter(ctx, [a ** 2], 100).coset_count == 2
    assert todd_coxeter(ctx, [a ** 3], 100).coset_count == 3
    assert todd_coxeter(ctx, [], 100).coset_count == 6


def test_enumeration_gives_up_at_the_limit():
    ctx = preset("bs(2,3)")
    result = todd_coxeter(ctx, [generator(0)], 200)
    assert isinstance(result, Incomplete)
    assert result.limit == 200
    assert result.live_cosets > 0


def test_thompson_f_is_its_two_relator_presentation():
    from nearnormal.thompson import IDENTITY, f_normal_form
    ctx = preset("thompson-f")
    assert ctx.generator_names == ("x0", "x1") and len(ctx.relators) == 2
    for r in ctx.relators:
        assert f_normal_form(r) == IDENTITY
    # the normal form reads every x_n; a rank-2 presentation still refuses x5
    assert parse_context_word(ctx, "x5") == generator(5)
    with pytest.raises(ValueError, match="uses generator index 5, but the group has rank 2"):
        parse_context_word(preset("zn(2)"), "x5")
    # F is infinite: its coset enumeration stops at the limit
    assert isinstance(todd_coxeter(ctx, [], 200), Incomplete)


def test_is_trivial_across_oracles():
    x, y = generator(0), generator(1)
    bs = preset("bs(2,3)")
    assert is_trivial(bs, invert(y) * x ** 2 * y * x ** -3) is True
    assert is_trivial(bs, x) is False
    z2 = preset("zn(2)")
    comm = invert(x) * invert(y) * x * y
    assert is_trivial(z2, comm) is True
    assert is_trivial(z2, x * y) is False
    fr = preset("free(2)")
    assert is_trivial(fr, comm) is False
    th = preset("thompson-f")
    rel = invert(x) * invert(generator(2)) * x * generator(3)
    assert is_trivial(th, rel) is True
    infinite = groups.context_from_text("gens: a b\nrels: a^2\noracle: coset-table")
    assert is_trivial(infinite, x) == "unknown"


def test_element_key_separates_free_abelian():
    ctx = preset("zn(3)")
    u, v = generator(0), generator(1)
    assert element_key(ctx, u * v) == element_key(ctx, v * u)
    assert element_key(ctx, u) != element_key(ctx, v)


# --- text format -------------------------------------------------------------

SYM3_TEXT = """\
gens: a b
rels: a^2 b^2 (a b)^3
oracle: coset-table
"""


def test_parse_serialize_roundtrip():
    ctx = context_from_text(SYM3_TEXT)
    assert ctx.generator_names == ("a", "b")
    assert ctx.oracle == "coset-table"
    assert len(ctx.relators) == 3
    text = serialize_presentation(ctx)
    assert context_from_text(text) == ctx
    # multi-atom relators stay parenthesized as single tokens
    assert "(a b a b a b)" in text or "((a b)^3)" in text


def test_parse_comments_blanks_and_default_oracle():
    assert context_from_text("# title\n\ngens: a\nrels: a^4\n").oracle == "coset-table"
    ctx = context_from_text("gens: a b\n")
    assert ctx.oracle == "free"
    assert ctx.relators == ()


def test_context_from_text_runs():
    ctx = context_from_text(SYM3_TEXT)
    assert len(group_elements(ctx)) == 6


# (text, message fragment, line, column of the offending token)
PARSE_ERRORS = [
    ("rels: a\ngens: a", "rels before gens", 1, 1),
    ("gens: a\ngens: b", "duplicate gens", 2, 1),
    ("gens: a a", "repeated generator", 1, 9),
    ("gens: a 9q", "bad generator name", 1, 9),
    ("  gens:   a  9q", "bad generator name", 1, 14),
    ("gens: a\nrels: b", "undeclared generator", 2, 7),
    ("gens: a\nrels: a^0", "zero exponent", 2, 9),
    ("gens: a\nrels:    a^0", "zero exponent", 2, 12),
    ("gens: a\noracle: magic", "unknown oracle", 2, 9),
    ("gens: a\nwhat: ever", "unknown section", 2, 1),
    ("rels-only nonsense", "expected", 1, 1),
    ("", "missing gens", 1, 1),
    ("gens: a\nrels: (a a^-1)", "empty word", 2, 7),
    ("gens: a b\nrels: b^2 (a a^-1)\nrels: b^3", "empty word", 2, 11),
]


@pytest.mark.parametrize("text,fragment,line,column", PARSE_ERRORS, ids=[
    f"{text}-{fragment}-{line}" for text, fragment, line, _ in PARSE_ERRORS])
def test_parse_errors_carry_position(text, fragment, line, column):
    with pytest.raises(PresentationError) as exc:
        context_from_text(text)
    assert fragment in str(exc.value)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert f"line {line}, column {column}:" in str(exc.value)


def test_parse_word_with_presentation_names():
    w = parse_word("a b^-1", context_from_text(SYM3_TEXT).generator_names)
    assert w == generator(0) * generator(1, -1)


def test_preset_rejects_unknown():
    with pytest.raises(ValueError):
        preset("sporadic")
    with pytest.raises(ValueError):
        preset("cyclic(0)")


@pytest.mark.parametrize("name", ["bs(0,3)", "bs(2,0)", "bs(0,0)"])
def test_preset_rejects_degenerate_bs(name):
    with pytest.raises(ValueError, match="needs m, n >= 1"):
        preset(name)


# sample arguments per argument count, the message that rejects 0 per parametric
# preset, and the relators (tables number cosets in their order) and order per finite group
PRESET_ARGS = {0: [()], 1: [(1,), (3,), (5,)], 2: [(1, 1), (2, 3), (3, 2)]}
ZERO_MESSAGES = {"bs": "bs(m,n) needs m, n >= 1", "cyclic": "cyclic(k) needs k >= 1",
                 "zn": "zn(k) needs k >= 1", "free": "free(k) needs k >= 1"}
FINITE = {"sym4": ("a^2 b^3 (a b)^4", 24), "alt5": ("a^2 b^3 (a b)^5", 60),
          "sym5": ("a^2 b^5 (a b)^4 (a b^-1 a b)^3", 120)}


@pytest.mark.parametrize("name", sorted(groups.PRESETS))
def test_every_preset_reads_back_from_its_text(name):
    count = groups.PRESETS[name][0]
    for args in PRESET_ARGS[count]:
        ctx = preset(f"{name}({','.join(map(str, args))})" if args else name)
        again = groups.load(serialize_presentation(ctx))
        assert again == ctx
        if ctx.oracle == "britton":
            assert again.bs_params == ctx.bs_params == args
    assert (name in ZERO_MESSAGES) == (count > 0)
    if count:
        with pytest.raises(ValueError) as exc:
            preset(f"{name}({','.join('0' * count)})")
        assert str(exc.value) == ZERO_MESSAGES[name]
    if name in FINITE:
        relators, order = FINITE[name]
        assert ctx == context_from_text(f"gens: a b\nrels: {relators}")
        assert len(group_elements(ctx)) == order


def test_load_reads_text_then_a_file_then_a_memoised_preset(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sym4").write_text("gens: a\nrels: a^7\n")
    assert groups.load("sym4") == groups.load("gens: a\nrels: a^7") != preset("sym4")
    assert groups.load("alt5") is preset("alt5")


STEP_CONTEXTS = ["sym4", "bs(2,3)", "bs(1,2)", "thompson-f", "zn(3)", "free(2)"]


@pytest.mark.parametrize("name", STEP_CONTEXTS)
def test_stepped_keys_equal_the_key_of_the_whole_word(name):
    """For every oracle: the key of u s stepped from the key of u equals the
    key of the reduced word u s, and so does the key folded letter by letter
    from the identity's."""
    ctx = preset(name)
    start, prepare = groups.element_step(ctx)

    def step(key, w):
        return prepare(w)(key)

    # F's normal form reads every x_n, so its words draw x2 as well
    rank = 3 if ctx.oracle == "thompson-normal-form" else ctx.generator_count
    rng = random.Random(18)

    def word(length):
        return Word([(rng.randrange(rank), rng.choice((1, -1))) for _ in range(length)])

    assert element_key(ctx, Word(())) == start
    for _ in range(60):
        u, s = word(rng.randrange(10)), word(rng.randrange(1, 4))
        assert step(element_key(ctx, u), s) == element_key(ctx, u * s), (u, s)
        key = start
        for letter in (u * s).letters:
            key = step(key, Word([letter]))
        assert key == element_key(ctx, u * s)
        assert step(step(element_key(ctx, u), s), invert(s)) == element_key(ctx, u)


@pytest.mark.parametrize("name", STEP_CONTEXTS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_the_prepared_map_of_a_word_steps_to_the_key_of_the_product(name, data):
    """For every oracle and random g and s, the empty word, one letter or
    several: s's prepared map applied to the key of g is the key of g s."""
    ctx = preset(name)
    prepare = groups.element_step(ctx)[1]
    rank = 3 if ctx.oracle == "thompson-normal-form" else ctx.generator_count
    letters = st.lists(st.tuples(st.integers(0, rank - 1), st.sampled_from((1, -1))), max_size=6)
    g, s = Word(data.draw(letters)), Word(data.draw(letters))
    assert prepare(s)(element_key(ctx, g)) == element_key(ctx, g * s)


# --- the breadth-first numbering of table states -----------------------------

def queue_reachable_table(ngens, start, step):
    """(action rows, representatives) by a breadth-first queue of states,
    independent of ``words.ball``: the reference for reachable_table."""
    order, states, reps, rows = {start: 0}, [start], [Word(())], []
    for i, state in enumerate(states):  # states grows as the walk finds more
        row = []
        for code in range(2 * ngens):
            target = step(state, code)
            if target not in order:
                order[target] = len(states)
                states.append(target)
                reps.append(reps[i] * generator(code // 2, 1 if code % 2 == 0 else -1))
            row.append(order[target])
        rows.append(tuple(row))
    return tuple(rows), tuple(reps)


TABLE_GROUPS = ["sym3", "klein4", "cyclic(12)", "sym4", "alt5",
                "gens: a b c\nrels: a^2 b^2 c^2 (a b)^3 (b c)^3 (a c)^2"]


@pytest.mark.parametrize("text", TABLE_GROUPS)
def test_reachable_table_matches_a_queue_numbering(text):
    ctx = groups.load(text)
    table = regular_table(ctx)
    ngens = ctx.generator_count
    rng = random.Random(5)
    elements = table.representatives
    tables = [table] + [todd_coxeter(ctx, [rng.choice(elements) for _ in range(k)], 1000)
                        for k in (1, 1, 2)]
    for ta in tables:
        # restart from another state under a relabelling of the states
        label = list(range(ta.coset_count))
        rng.shuffle(label)
        back = {b: a for a, b in enumerate(label)}
        start = label[rng.randrange(ta.coset_count)]
        step = lambda c, code: label[ta.action[back[c]][code]]
        got = groups.reachable_table(ngens, start, step)
        assert (got.action, got.representatives) == queue_reachable_table(ngens, start, step)
        for tb in tables:  # the fiber product of subgroups.intersect
            pair = lambda ij, code: (ta.action[ij[0]][code], tb.action[ij[1]][code])
            got = groups.reachable_table(ngens, (0, 0), pair)
            assert (got.action, got.representatives) == queue_reachable_table(ngens, (0, 0), pair)


@pytest.mark.parametrize("text", TABLE_GROUPS)
def test_an_unbounded_ball_closes_on_a_finite_group(text):
    ctx = groups.load(text)
    order = len(group_elements(ctx))
    letters = [Word([letter]) for letter in groups.signed_letters(ctx)]
    rows = []
    start, prepare = groups.element_step(ctx)
    found = list(ball(letters, sys.maxsize, start, [prepare(s) for s in letters], rows))
    assert len(found) == len(rows) == order
    assert sorted(key for _, _, key in found) == list(range(order))
