"""Subgroup-family truncations, finite modules, and the degree-0/1 functors."""

import itertools
import random

import pytest

import dense_modp as ref
from nearnormal import cli, families, groups, modp
from nearnormal.families import (
    check_admissible, check_stable, derivation_values, finite_module, h0_G_mod_S,
    h0_S, h1_derivations, h1_trivial_expected, node_fixed_space,
    parse_module_matrices, permutation_module, regular_module, relator_blocks,
    restrict_to_h0s, trivial_module, truncation, word_matrix,
)
from nearnormal.groups import element_key, group_elements, preset, signed_letters, todd_coxeter
from nearnormal.subgroups import finite_subgroup
from nearnormal.words import Word, generator, invert, parse_word


def w(text):
    return parse_word(text, ("a", "b"))


def sym3_full_lattice():
    ctx = preset("sym3")
    return ctx, truncation(ctx, families.parse_nodes(ctx, "-; a; b; a b a; a b; a,b"))


# --- truncations -------------------------------------------------------------

def test_full_lattice_is_admissible_and_stable():
    ctx, fam = sym3_full_lattice()
    assert len(fam.nodes) == 6
    report = check_admissible(fam)
    assert report["conjugation_closed"] is True
    assert report["downward_directed"] is True
    assert report["violations"] == []
    stab = check_stable(fam)
    assert stab["stable"] is True and stab["witness"] is None
    assert all(v is not None for v in stab["choices"].values())


def test_conjugation_closure_adds_missing_nodes():
    ctx = preset("sym3")
    fam = truncation(ctx, [[w("a")], [w("a"), w("b")]])
    # the two other order-2 subgroups arrive by closure
    assert len(fam.nodes) == 4
    report = check_admissible(fam)
    assert report["conjugation_closed"] is True
    assert report["downward_directed"] is False
    assert report["violations"]
    stab = check_stable(fam)
    assert stab["stable"] is False
    assert stab["witness"] is not None
    assert stab["choices"] is None


def test_normal_node_needs_no_closure():
    ctx = preset("sym3")
    fam = truncation(ctx, [[w("a b")], [w("a"), w("b")]])
    assert len(fam.nodes) == 2
    assert check_admissible(fam)["conjugation_closed"] is True
    assert check_stable(fam)["stable"] is True


def test_truncation_requires_a_coset_table_group():
    with pytest.raises(ValueError):
        truncation(preset("zn(2)"), [[]])


def test_conjugation_action_is_an_action():
    ctx, fam = sym3_full_lattice()
    rng = random.Random(0)
    for _ in range(40):
        node = rng.randrange(len(fam.nodes))
        u = Word([(rng.randrange(2), rng.choice((1, -1))) for _ in range(4)])
        v = Word([(rng.randrange(2), rng.choice((1, -1))) for _ in range(4)])
        assert fam.conj_by_word(node, u * v) == fam.conj_by_word(fam.conj_by_word(node, u), v)
        assert fam.conj_by_word(fam.conj_by_word(node, u), invert(u)) == node


CONJ_FIXTURES = {
    "sym3/full-lattice": ("sym3", ["-", "a", "b", "a b a", "a b", "a,b"]),
    "sym3/order2-orbit": ("sym3", ["a", "a,b"]),
    "sym3/normal-order3": ("sym3", ["a b", "a,b"]),
    "cyclic4/index2": ("cyclic(4)", ["a^2", "a"]),
    "klein4/all-subgroups": ("klein4", ["-", "a", "b", "a b", "a,b"]),
    "s4/directed": ("sym4", ["-", "b", "a b a b, b a b a", "b, a b a", "a, b"]),
    "s4/non-directed": ("sym4", ["a b", "a b, b a b a"]),
}


@pytest.mark.parametrize("label", sorted(CONJ_FIXTURES))
def test_conj_agrees_with_the_conjugation_action(label):
    group, nodes = CONJ_FIXTURES[label]
    ctx = preset(group)
    parsed = [[parse_word(t, ctx.generator_names) for t in node.split(",")]
              if node != "-" else [] for node in nodes]
    fam = truncation(ctx, parsed)
    assert set(fam.conjugation_action) == {
        (node, letter) for node in range(len(fam.nodes)) for letter in signed_letters(ctx)}
    for (node, letter), target in fam.conjugation_action.items():
        assert fam.conj(node, letter) == target
    assert hash(fam) == hash(truncation(ctx, parsed))  # the dict leaves it hashable


def test_bottom_is_the_global_lower_bound():
    ctx, fam = sym3_full_lattice()
    bottom = fam.bottom()
    assert all(fam.leq(bottom, j) for j in range(len(fam.nodes)))
    assert fam.members[bottom] == (Word(()),)


def test_order_matches_membership():
    ctx, fam = sym3_full_lattice()
    key_sets = [frozenset(element_key(ctx, m) for m in ms) for ms in fam.members]
    for i in range(len(fam.nodes)):
        for j in range(len(fam.nodes)):
            assert fam.leq(i, j) == (key_sets[i] <= key_sets[j])


def word_truncation(ctx, node_generator_lists):
    """The truncation built by multiplying words and comparing element-key
    sets, with normality tested on every member pair: the reference the
    index-permutation build must reproduce."""
    def node_members(h):
        return tuple(g for g in group_elements(ctx) if h.coset_table.coset_of(g) == 0)

    def key_set(elements):
        return frozenset(element_key(ctx, e) for e in elements)

    letters = [(i, s) for i in range(ctx.generator_count) for s in (1, -1)]
    handles, key_sets = [], []
    for gens in node_generator_lists:
        h = finite_subgroup(ctx, tuple(gens))
        ks = key_set(node_members(h))
        if ks not in key_sets:
            key_sets.append(ks)
            handles.append(h)
    i = 0
    while i < len(handles):
        for letter in letters:
            l_word = generator(*letter)
            ks = key_set(invert(l_word) * m * l_word for m in node_members(handles[i]))
            if ks not in key_sets:
                key_sets.append(ks)
                handles.append(finite_subgroup(
                    ctx, tuple(invert(l_word) * g * l_word for g in handles[i].generators)))
        i += 1
    members = tuple(node_members(h) for h in handles)
    n = len(handles)
    order = frozenset((i, j) for i in range(n) for j in range(n) if key_sets[i] <= key_sets[j])
    conj_pairs = []
    for i in range(n):
        for letter in letters:
            l_word = generator(*letter)
            ks = key_set(invert(l_word) * m * l_word for m in members[i])
            conj_pairs.append(((i, letter), key_sets.index(ks)))
    normal = frozenset((i, j) for i, j in order
                       if all(element_key(ctx, invert(h) * m * h) in key_sets[i]
                              for h in members[j] for m in members[i]))
    return handles, members, order, dict(conj_pairs), normal


REFERENCE_FAMILIES = [
    pytest.param(group, text, id=f"{group}:{name}")
    for (group, name), text in sorted(families.NAMED_FAMILIES.items())] + [
    pytest.param("sym4", "-; b; a b a b, b a b a; b, a b a; a, b", id="s4-directed"),
    pytest.param("cyclic(120)", "-; a^2; a", id="cyclic120"),
    pytest.param("alt5", "-; b; a,b", id="a5"),
]


@pytest.mark.parametrize("group, nodes_text", REFERENCE_FAMILIES)
def test_truncation_matches_the_word_reference(group, nodes_text):
    ctx = preset(group)
    fam = cli._build_family(ctx, nodes_text)
    handles, members, order, conj, normal = word_truncation(ctx, families.parse_nodes(ctx, nodes_text))
    assert [h.generators for h in fam.nodes] == [h.generators for h in handles]
    assert fam.members == members
    assert fam.order == order
    assert fam.conjugation_action == conj
    assert fam.normal_in == normal


@pytest.mark.parametrize("group, nodes_text", [("sym3", "-; a; b; a b a; a b; a,b"),
                                               ("alt5", "-; b; a,b")])
def test_the_conjugation_recheck_catches_a_wrong_or_missing_target(group, nodes_text):
    ctx = preset(group)
    fam = truncation(ctx, families.parse_nodes(ctx, nodes_text))
    assert check_admissible(fam)["violations"] == []
    n = len(fam.nodes)

    def with_action(action):
        return families.FamilyTruncation(fam.ctx, fam.nodes, fam.members, fam.order, action,
                                         fam.normal_in)

    for (node, letter), target in fam.conjugation_action.items():
        wrong = (target + 1) % n
        report = check_admissible(with_action({**fam.conjugation_action, (node, letter): wrong}))
        assert report["conjugation_closed"] is False
        assert report["violations"] == [f"conjugate of node {node} by {letter} is not node {wrong}"]
        dropped = {key: t for key, t in fam.conjugation_action.items() if key != (node, letter)}
        report = check_admissible(with_action(dropped))
        assert report["conjugation_closed"] is False
        assert report["violations"] == [f"no conjugation target for node {node} by letter {letter}"]


def test_the_conjugation_recheck_keys_the_member_words_alone(monkeypatch):
    ctx, fam = sym3_full_lattice()
    for name in ("_conjugation_perms", "_conjugate_keys"):
        monkeypatch.setattr(families, name, lambda *a: pytest.fail("read the build's tables"))
    monkeypatch.setattr(Word, "__mul__", lambda *a: pytest.fail("built a product word"))
    monkeypatch.setattr(groups, "element_key", lambda *a: pytest.fail("keyed one element"))
    assert check_admissible(fam) == {"conjugation_closed": True, "downward_directed": True,
                                     "violations": []}


@pytest.mark.parametrize("group, nodes_text, added", [("sym4", "b; a b a b, b a b a", 3),
                                                      ("alt5", "-; b; a,b", 9),
                                                      ("sym5", "b; b, a b a", 5)])
def test_a_conjugate_node_has_its_parent_table_rerooted(group, nodes_text, added):
    ctx = preset(group)
    given = families.parse_nodes(ctx, nodes_text)
    fam = truncation(ctx, given)
    assert len(fam.nodes) == len(given) + added
    letters = signed_letters(ctx)
    for node in range(len(given), len(fam.nodes)):
        # the first (parent, letter) of the closure that reached this node
        parent, letter = next((i, l) for i in range(node) for l in letters
                              if fam.conj(i, l) == node)
        l_word = generator(*letter)
        gens = fam.nodes[node].generators
        assert gens == tuple(invert(l_word) * g * l_word for g in fam.nodes[parent].generators)
        enumerated = finite_subgroup(ctx, gens).coset_table
        assert fam.nodes[node].coset_table.action == enumerated.action
        assert fam.nodes[node].coset_table.representatives == enumerated.representatives
        # re-rooted at a coset Hx with H^x another node, the table fails its
        # check; at every Hx with H^x this node, it is the enumerated table
        table = fam.nodes[parent].coset_table
        valid, equal = set(), set()
        for c in range(table.coset_count):
            rerooted = groups.reachable_table(table.ngens, c, lambda d, code: table.action[d][code])
            try:
                groups._validate_table(rerooted, gens, ctx.relators)
                valid.add(c)
            except RuntimeError:
                pass
            if rerooted == enumerated:
                equal.add(c)
        onto = {c for c, rep in enumerate(table.representatives)
                if fam.conj_by_word(parent, rep) == node}
        assert table.coset_of(l_word) in onto and 0 not in onto
        assert valid == equal == onto


def test_a_non_normal_subgroup_has_no_normal_pair():
    ctx, fam = sym3_full_lattice()
    order2 = fam.members.index((Word(()), w("a")))
    whole = len(fam.nodes) - 1
    assert len(fam.members[whole]) == 6
    assert fam.leq(order2, whole)
    assert (order2, whole) not in fam.normal_in
    assert (order2, order2) in fam.normal_in
    assert (fam.members.index((Word(()), w("a b"), w("b a"))), whole) in fam.normal_in


# --- modules -----------------------------------------------------------------

def test_finite_module_validation():
    ctx = preset("cyclic(2)")
    with pytest.raises(ValueError):
        finite_module(ctx, [((1, 1), (1, 1))])  # singular
    with pytest.raises(ValueError):
        finite_module(ctx, [((0, 1), (1, 1))])  # a^2 does not act as identity
    with pytest.raises(ValueError):
        finite_module(ctx, [((1, 0),)])  # not square
    with pytest.raises(ValueError):
        finite_module(preset("sym3"), [modp.identity_matrix(2)])  # wrong count
    with pytest.raises(ValueError):
        finite_module(preset("thompson-f"), [])
    swap = ((0, 1), (1, 0))
    module = finite_module(ctx, [swap])
    assert module.dimension == 2
    assert module.inverses[0] == modp.sparse(swap, 2)
    for p in (-3, 0, 1, 4, 9):
        with pytest.raises(ValueError, match="prime"):
            finite_module(ctx, [swap], p=p)


def test_word_matrix_is_a_homomorphism():
    ctx = preset("sym3")
    module = regular_module(ctx)
    assert module.dimension == 6
    rng = random.Random(5)
    for _ in range(30):
        u = Word([(rng.randrange(2), rng.choice((1, -1))) for _ in range(5)])
        v = Word([(rng.randrange(2), rng.choice((1, -1))) for _ in range(5)])
        assert word_matrix(module, u * v) == modp.mat_mul(
            word_matrix(module, u), word_matrix(module, v), module.p)
    assert word_matrix(module, Word(())) == modp.identity_matrix(6)


def test_permutation_module_on_coset_table():
    ctx = preset("sym3")
    table = todd_coxeter(ctx, [w("a")], 100)
    module = permutation_module(ctx, table)
    assert module.dimension == 3
    # row c has a single 1 at the image coset
    for mat in module.matrices:
        for row in mat:
            assert [a for _, a in row] == [1]


def test_parse_module_matrices():
    text = "1 0\n0 1\n\n0 1\n1 0\n"
    assert parse_module_matrices(text) == (((1, 0), (0, 1)), ((0, 1), (1, 0)))
    with_comments = "# swap\n0 1\n1 0\n"
    assert parse_module_matrices(with_comments) == (((0, 1), (1, 0)),)
    with pytest.raises(ValueError):
        parse_module_matrices("1 0\n")


# --- degree 0 ----------------------------------------------------------------

def test_h0_s_is_the_bottom_fixed_space():
    ctx, fam = sym3_full_lattice()
    module = regular_module(ctx)
    basis = h0_S(module, fam)
    assert len(basis) == 6  # bottom node is trivial, so everything is fixed
    assert ref.dense(h0_S(trivial_module(ctx), fam), 1) == ((1,),)


def test_h0_s_on_a_normal_family():
    ctx = preset("sym3")
    fam = truncation(ctx, [[w("a b")], [w("a"), w("b")]])
    module = regular_module(ctx)
    basis = h0_S(module, fam)
    assert len(basis) == 2
    # members of the C3 node really fix the basis vectors
    bottom = fam.bottom()
    for g in fam.members[bottom]:
        mat = word_matrix(module, g)
        for v in basis:
            assert modp.vec_mat(v, mat, module.p) == v


def test_node_fixed_space_sizes():
    ctx, fam = sym3_full_lattice()
    module = regular_module(ctx)
    sizes = sorted(len(node_fixed_space(module, fam, i)) for i in range(6))
    # trivial, three order-2 nodes, C3, G
    assert sizes == [1, 2, 3, 3, 3, 6]


def test_h0_g_mod_s_needs_a_subcategory_object():
    ctx = preset("sym3")
    fam = truncation(ctx, [[w("a b")], [w("a"), w("b")]])
    module = regular_module(ctx)
    with pytest.raises(ValueError):
        h0_G_mod_S(module, fam)
    sub, basis = restrict_to_h0s(module, fam)
    assert sub.dimension == 2
    fixed = h0_G_mod_S(sub, fam)
    assert len(fixed) == 1


def test_restricted_module_action_matches():
    ctx = preset("sym3")
    fam = truncation(ctx, [[w("a b")], [w("a"), w("b")]])
    module = regular_module(ctx)
    sub, basis = restrict_to_h0s(module, fam)
    p = module.p
    dense_basis = ref.dense(basis, module.dimension)
    rng = random.Random(7)
    for _ in range(20):
        g = Word([(rng.randrange(2), rng.choice((1, -1))) for _ in range(4)])
        big = word_matrix(module, g)
        small = word_matrix(sub, g)
        for coeffs, v in zip(ref.dense(small, len(basis)), dense_basis):
            moved = ref.vec_mat(v, ref.dense(big, module.dimension), p)
            rebuilt = ref.zero_vector(module.dimension)
            for c, row in zip(coeffs, dense_basis):
                rebuilt = ref.vec_add(rebuilt, ref.vec_scale(row, c, p), p)
            assert rebuilt == moved


# (2, 3, n) triangle groups a^2 = b^3 = (a b)^n with a truncation each:
# sym3 over <b> = A3, S4 over its normal Klein four-group, A5 over the
# trivial node (h0_S is the whole module) and over the whole group.
RESTRICTIONS = {
    "sym3": ("gens: a b\nrels: a^2 b^3 (a b)^2", "b; a,b"),
    "s4": ("sym4", "(a b)^2, b (a b)^2 b^-1; a,b"),
    "a5": ("alt5", "-; b; a,b"),
    "a5-fixed": ("alt5", "a,b"),
}


@pytest.mark.parametrize("case", sorted(RESTRICTIONS))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_restrict_to_h0s_matches_per_vector_solves(case, p):
    """One elimination of the h0_S basis gives the coordinates that solving
    for each image v.M on its own gives."""
    group, nodes = RESTRICTIONS[case]
    ctx = groups.load(group)
    module = regular_module(ctx, p=p)
    fam = truncation(ctx, families.parse_nodes(ctx, nodes))
    sub, basis = restrict_to_h0s(module, fam)
    assert sub.dimension == len(basis) > 0
    basis = ref.dense(basis, module.dimension)
    for m, small in zip(module.matrices, sub.matrices):
        m = ref.dense(m, module.dimension)
        expected = tuple(ref.solve_linear_combination(basis, ref.vec_mat(v, m, p), p)
                         for v in basis)
        assert ref.dense(small, len(basis)) == expected


def test_restrict_to_h0s_of_a_zero_h0s():
    # the sign module over F_3 has no vector fixed by all of sym3
    ctx = preset("sym3")
    module = finite_module(ctx, [[[2]], [[2]]], p=3)
    sub, basis = restrict_to_h0s(module, truncation(ctx, [[w("a"), w("b")]]))
    assert basis == () and sub.dimension == 0 and sub.matrices == ((), ())


def test_restrict_to_h0s_refuses_a_basis_that_is_not_closed(monkeypatch):
    ctx = preset("sym3")
    fam = truncation(ctx, [[w("a b")], [w("a"), w("b")]])
    module = regular_module(ctx)
    basis = h0_S(module, fam)
    monkeypatch.setattr(families, "h0_S", lambda module, fam: basis[:1])
    with pytest.raises(RuntimeError, match="not closed"):
        restrict_to_h0s(module, fam)


# --- degree 1 ----------------------------------------------------------------

def derivation_eval(module, delta, w):
    """The reference evaluation of one derivation with generator values
    delta on a word, one dense vector letter by letter, via
    d(u x) = d(u).x + d(x) and d(u x^-1) = (d(u) - d(x)).x^-1."""
    p, d = module.p, module.dimension
    acc = ref.zero_vector(d)
    for index, sign in w.letters:
        if sign > 0:
            acc = ref.vec_add(ref.vec_mat(acc, ref.dense(module.matrices[index], d), p),
                              delta[index], p)
        else:
            acc = ref.vec_mat(ref.vec_sub(acc, delta[index], p),
                              ref.dense(module.inverses[index], d), p)
    return acc


S4_INVERSE_LETTERS = "gens: a b\nrels: a^2 b^-3 (a b^-1)^4"


@pytest.mark.parametrize("group, p", [("alt5", 2), (S4_INVERSE_LETTERS, 3)])
def test_derivation_values_match_the_letter_by_letter_reference(group, p):
    ctx = groups.load(group)
    module = regular_module(ctx, p)
    d, n = module.dimension, ctx.generator_count
    rng = random.Random(18)
    basis = [tuple(rng.randrange(p) for _ in range(n * d)) for _ in range(7)]
    values = [modp.sparse([v[i * d:(i + 1) * d] for v in basis], p) for i in range(n)]
    for _ in range(6):
        w = Word([(rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randrange(12))])
        rows = derivation_values(module, values, w)
        for v, row in zip(basis, rows):
            delta = tuple(v[i * d:(i + 1) * d] for i in range(n))
            assert modp.sparse([derivation_eval(module, delta, w)], p)[0] == row


def test_h1_relator_recheck_catches_a_wrong_basis(monkeypatch):
    ctx = preset("sym3")
    module = regular_module(ctx)
    assert h1_derivations(ctx, module)["dim_der"]
    solve = modp.left_nullspace
    # one more basis vector that is no derivation: e_0 as the value of a
    monkeypatch.setattr(modp, "left_nullspace", lambda m, p: solve(m, p) + (((0, 1),),))
    with pytest.raises(RuntimeError, match="independent relator re-check"):
        h1_derivations(ctx, module)


def test_derivation_cocycle_law():
    ctx = preset("sym3")
    module = regular_module(ctx)
    rng = random.Random(9)
    for _ in range(20):
        delta = tuple(tuple(rng.randrange(2) for _ in range(6)) for _ in range(2))
        u = Word([(rng.randrange(2), rng.choice((1, -1))) for _ in range(4)])
        v = Word([(rng.randrange(2), rng.choice((1, -1))) for _ in range(4)])
        left = derivation_eval(module, delta, u * v)
        right = ref.vec_add(
            ref.vec_mat(derivation_eval(module, delta, u), ref.word_matrix(module, v), 2),
            derivation_eval(module, delta, v), 2)
        assert left == right


def brute_force_derivation_count(ctx, module):
    """Count generator assignments satisfying every relator, directly."""
    n = ctx.generator_count
    d = module.dimension
    p = module.p
    count = 0
    for flat in itertools.product(range(p), repeat=n * d):
        delta = tuple(tuple(flat[i * d:(i + 1) * d]) for i in range(n))
        if all(not any(derivation_eval(module, delta, r))
               for r in ctx.relators):
            count += 1
    return count


def brute_force_inner_count(ctx, module):
    p = module.p
    mats = [ref.dense(mat, module.dimension) for mat in module.matrices]
    seen = set()
    for m in itertools.product(range(p), repeat=module.dimension):
        delta = tuple(ref.vec_sub(ref.vec_mat(m, mat, p), m, p) for mat in mats)
        seen.add(delta)
    return len(seen)


H1_CASES = [
    ("cyclic(2)", "trivial", (1, 0, 1)),
    ("cyclic(2)", "regular", (1, 1, 0)),
    ("sym3", "trivial", (1, 0, 1)),
    ("klein4", "trivial", (2, 0, 2)),
    ("sym3", "regular", None),
]


@pytest.mark.parametrize("name,kind,dims", H1_CASES)
def test_h1_dimensions_match_brute_force(name, kind, dims):
    ctx = preset(name)
    module = trivial_module(ctx) if kind == "trivial" else regular_module(ctx)
    got = h1_derivations(ctx, module)
    assert got["dim_der"] - got["dim_ider"] == got["dim_h1"]
    assert 2 ** got["dim_der"] == brute_force_derivation_count(ctx, module)
    assert 2 ** got["dim_ider"] == brute_force_inner_count(ctx, module)
    if dims is not None:
        assert (got["dim_der"], got["dim_ider"], got["dim_h1"]) == dims


@pytest.mark.parametrize("name,expected", [
    ("cyclic(2)", 1), ("cyclic(3)", 0), ("cyclic(4)", 1),
    ("sym3", 1), ("klein4", 2), ("zn(1)", 1), ("zn(2)", 2), ("free(2)", 2),
    ("thompson-f", 2),
])
def test_h1_trivial_expected_from_abelianization(name, expected):
    ctx = preset(name)
    assert h1_trivial_expected(ctx) == expected
    got = h1_derivations(ctx, trivial_module(ctx))
    assert got["dim_h1"] == expected


def _invertible(rng, d, p):
    while True:
        a = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        if modp.mat_inverse(modp.sparse(a, p), p) is not None:
            return a


def _dense_power(a, k, p):
    d = len(a)
    acc = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(k):
        acc = [[sum(acc[i][t] * a[t][j] for t in range(d)) % p for j in range(d)]
               for i in range(d)]
    return acc


def test_h1_of_thompson_f_is_h1_of_its_abelianization():
    """F' acts trivially on every finite module of F and is perfect, so
    H^1(F, M) = H^1(Z^2, M): on commuting pairs (A, A^k) the two-relator
    presentation of F and zn(2) give the same derivations."""
    f, z2 = preset("thompson-f"), preset("zn(2)")
    rng = random.Random(32)
    cases = 0
    for p in (2, 3, 5):
        assert h1_derivations(f, trivial_module(f, p=p))["dim_h1"] == 2
        for d in (1, 2, 3):
            for _ in range(2):
                a = _invertible(rng, d, p)
                for k in (0, 1, 2):
                    mats = [a, _dense_power(a, k, p)]
                    got = h1_derivations(f, finite_module(f, mats, p))
                    want = h1_derivations(z2, finite_module(z2, mats, p))
                    assert (got["dim_der"], got["dim_h1"]) == (want["dim_der"], want["dim_h1"])
                    cases += 1
    assert cases == 54


def test_thompson_f_relators_refuse_non_commuting_matrices():
    # every proper quotient of F is abelian, so matrices that F's relators
    # accept commute; S3's transposition and 3-cycle do not
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    cycle = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    for p in (2, 3, 5):
        with pytest.raises(ValueError, match="a relator does not act as the identity matrix"):
            finite_module(preset("thompson-f"), [swap, cycle], p)


def suffix_loop_blocks(module, r):
    """Relator coefficients with each suffix matrix rebuilt from its word."""
    return [modp.sparse(block, module.p) for block in ref.relator_blocks(module, r)]


@pytest.mark.parametrize("spec, kind", [
    ("alt5", "regular"), (S4_INVERSE_LETTERS, "permutation"),
    (S4_INVERSE_LETTERS, "trivial"), ("alt5", "trivial"),
], ids=["a5-regular", "s4-permutation", "s4-trivial", "a5-trivial"])
def test_relator_blocks_match_the_suffix_loop(monkeypatch, spec, kind):
    ctx = groups.load(spec)
    if kind == "regular":
        module = regular_module(ctx)
    elif kind == "permutation":
        module = permutation_module(ctx, todd_coxeter(ctx, [w("b")], 100), p=3)
    else:
        module = trivial_module(ctx, dim=2, p=3)
    for r in ctx.relators:
        assert relator_blocks(module, r) == suffix_loop_blocks(module, r)
    got = h1_derivations(ctx, module)
    monkeypatch.setattr(families, "relator_blocks", suffix_loop_blocks)
    assert h1_derivations(ctx, module) == got


def dense_conjugate(ctx, module, seed):
    """The module in a seeded random basis: every M becomes P M P^-1, so the
    matrices are dense while the relators still act as the identity."""
    rng = random.Random(seed)
    d, p = module.dimension, module.p
    while True:
        pm = tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in range(d))
        pinv = ref.mat_inverse(pm, p)
        if pinv is not None:
            break
    return finite_module(ctx, [ref.mat_mul(ref.mat_mul(pm, ref.dense(m, d), p), pinv, p)
                               for m in module.matrices], p)


def reference_modules():
    a5, s4, s4_inv = preset("alt5"), preset("sym4"), groups.load(S4_INVERSE_LETTERS)
    yield "a5-regular-p2", a5, regular_module(a5)
    yield "s4-permutation-p3", s4_inv, permutation_module(
        s4_inv, todd_coxeter(s4_inv, [w("b")], 100), p=3)
    yield "s4-dense-p5", s4, dense_conjugate(s4, regular_module(s4, p=5), 3)
    yield "sym3-trivial-p7", preset("sym3"), trivial_module(preset("sym3"), dim=2, p=7)


def test_word_matrix_and_relator_blocks_match_the_dense_reference():
    rng = random.Random(11)
    for label, ctx, module in reference_modules():
        d = module.dimension
        for _ in range(8):
            u = Word([(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(0, 7))])
            assert ref.dense(word_matrix(module, u), d) == ref.word_matrix(module, u), label
        for r in ctx.relators:
            got = [ref.dense(block, d) for block in relator_blocks(module, r)]
            assert got == ref.relator_blocks(module, r), label


def test_the_dense_conjugate_is_dense_and_keeps_its_invariants():
    s4 = preset("sym4")
    module = dense_conjugate(s4, regular_module(s4, p=5), 3)
    nonzero = sum(len(row) for m in module.matrices for row in m)
    assert nonzero > 0.7 * 2 * 24 * 24
    assert h1_derivations(s4, module)["dim_h1"] == 0
    fam = truncation(s4, families.parse_nodes(s4, "-; b; a,b"))
    assert len(h0_S(module, fam)) == 24


@pytest.mark.parametrize("p", [3, 5])
def test_shapiro_the_a5_regular_module_has_no_degree_one_classes(p):
    ctx = preset("alt5")
    got = h1_derivations(ctx, regular_module(ctx, p=p))
    assert (got["dim_der"], got["dim_ider"], got["dim_h1"]) == (59, 59, 0)


def test_h0_of_the_a5_regular_module_at_p3():
    ctx = preset("alt5")
    fam = truncation(ctx, families.parse_nodes(ctx, "-; b; a,b"))
    module = regular_module(ctx, p=3)
    assert len(h0_S(module, fam)) == 60
    assert len(h0_G_mod_S(module, fam)) == 1


def test_a_corrupted_sparse_entry_fails_the_relator_check():
    ctx = preset("alt5")
    module = regular_module(ctx, p=3)
    d = module.dimension
    clean = [ref.dense(m, d) for m in module.matrices]
    assert finite_module(ctx, clean, p=3).matrices == module.matrices
    (col, value), = module.matrices[0][0]
    corrupted = ((((col, 2 * value % 3),),) + module.matrices[0][1:])
    assert modp.mat_inverse(corrupted, 3) is not None
    with pytest.raises(ValueError, match="relator"):
        finite_module(ctx, [ref.dense(corrupted, d), clean[1]], p=3)
