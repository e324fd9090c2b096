"""Subgroup handles: membership, conjugation, index, commensurability."""

import random
from math import gcd, lcm, prod

import pytest

from bare import bare_subgroup
from nearnormal import _intlinalg as intlin, ends, groups
from nearnormal.groups import element_key, group_elements, preset
from nearnormal.subgroups import (
    INFINITE_OR_EXCEEDS, Conjugate, CosetIndex, CosetSet, UnsupportedOraclePair,
    am_subgroup, commensurability_report, conjugate, contains, finite_subgroup,
    free_subgroup, in_commensurator, index_bounded, intersect, is_commensurable,
    lattice_subgroup, near_normal_on, neumann_translate, power_subgroup,
    Folded, SubgroupHandle, XPower, same_coset, subgroup_from_words, trivial_subgroup,
    whole_group,
)
from nearnormal.words import Word, cyclic_peel, generator, invert, parse_word


def w(text, names=("a", "b")):
    return parse_word(text, names)


# --- membership and cosets ---------------------------------------------------

def test_finite_subgroup_membership():
    ctx = preset("sym3")
    h = finite_subgroup(ctx, [w("a")])
    assert contains(h, w("a")) is True
    assert contains(h, w("b")) is False
    assert contains(h, Word(())) is True


def test_table_handle_rejects_a_generator_outside_its_table():
    ctx = preset("sym3")
    h = finite_subgroup(ctx, [w("a")])
    with pytest.raises(ValueError, match="membership oracle rejects a listed generator"):
        SubgroupHandle(ctx, (w("a"), w("b")), h.coset_table, h.membership)


def test_the_trivial_subgroup_reads_the_regular_table(monkeypatch):
    ctx = preset("alt5")
    regular = groups.regular_table(ctx)
    monkeypatch.setattr(groups, "todd_coxeter", lambda *a: pytest.fail("enumerated again"))
    h = finite_subgroup(ctx, ())
    assert h.coset_table is regular and h.generators == ()
    monkeypatch.setattr(groups, "regular_table", lambda ctx: groups.Incomplete(7, 7))
    with pytest.raises(ValueError, match="coset enumeration incomplete at 7 live cosets"):
        finite_subgroup(ctx, ())


def test_whole_group_is_generated_by_the_signed_letters():
    assert whole_group(preset("zn(3)")).generators == tuple(generator(i) for i in range(3))
    # x_0 and x_1 generate F
    assert whole_group(preset("thompson-f")).generators == (generator(0), generator(1))


def test_whole_and_trivial():
    ctx = preset("sym3")
    assert contains(whole_group(ctx), w("a b")) is True
    t = trivial_subgroup(ctx)
    assert contains(t, Word(())) is True
    assert contains(t, w("a")) is False
    assert contains(t, w("a^2")) is True


def test_same_coset_conventions():
    ctx = preset("sym3")
    h = finite_subgroup(ctx, [w("a")])
    # right cosets Hg: b and ab lie together, b and ba do not
    assert same_coset(h, w("b"), w("a b"), "right") is True
    assert same_coset(h, w("b"), w("b a"), "right") is False
    # left cosets gH: b and ba lie together
    assert same_coset(h, w("b"), w("b a"), "left") is True
    assert same_coset(h, w("b"), w("a b"), "left") is False


def test_coset_set_rejects_duplicates():
    ctx = preset("sym3")
    h = finite_subgroup(ctx, [w("a")])
    with pytest.raises(ValueError):
        CosetSet(h, (w("b"), w("a b")), "right")
    with pytest.raises(ValueError):
        CosetSet(h, (Word(()),), "sideways")
    ok = CosetSet(h, (Word(()), w("b")), "right")
    assert ok.side == "right"


def test_conjugate_membership_relation():
    ctx = preset("sym3")
    h = finite_subgroup(ctx, [w("a")])
    g = w("b")
    hg = conjugate(h, g)
    for t in group_elements(ctx):
        assert contains(hg, t) == contains(h, g * t * invert(g))


def test_a_conjugate_table_is_the_enumerated_table():
    ctx = preset("sym4")
    h = finite_subgroup(ctx, [w("b")])  # index 8, with 4 conjugates
    for g in group_elements(ctx)[1:]:
        hg = conjugate(h, g)
        assert hg.generators == tuple(invert(g) * x * g for x in h.generators)
        assert hg.coset_table == finite_subgroup(ctx, hg.generators).coset_table


def test_conjugate_by_identity_is_same_handle():
    ctx = preset("sym3")
    h = finite_subgroup(ctx, [w("a")])
    assert conjugate(h, Word(())) is h


def test_bs_power_subgroup_and_conjugates():
    ctx = preset("bs(2,3)")
    x, y = generator(0), generator(1)
    h = power_subgroup(ctx, 1)
    assert contains(h, x ** 5) is True
    assert contains(h, y) is False
    # y^-1 x^2 y = x^3 lands back in <x>
    assert contains(h, invert(y) * x ** 2 * y) is True
    hy = conjugate(h, y)
    # t in h^y iff y t y^-1 in h; x^3 = (y^-1 x y)^2 qualifies, x^2 does not
    assert contains(hy, invert(y) * x * y) is True
    assert contains(hy, x ** 3) is True
    assert contains(hy, x ** 2) is False


def test_lattice_subgroup_membership():
    ctx = preset("zn(2)")
    u, v = generator(0), generator(1)
    h = lattice_subgroup(ctx, [(2, 0), (0, 2)])
    assert contains(h, u ** 2) is True
    assert contains(h, u * v) is False
    assert contains(h, (u * v) ** 2) is True
    # conjugation is a no-op in an abelian ambient
    assert contains(conjugate(h, v), u ** 2) is True


def test_free_cyclic_membership_and_root():
    ctx = preset("free(2)")
    a, b = generator(0), generator(1)
    h = free_subgroup(ctx, [(a * b) ** 2])
    assert contains(h, (a * b) ** 4) is True
    assert contains(h, (a * b) ** 3) is False
    assert contains(h, invert((a * b) ** 2)) is True
    assert free_root((a * b) ** 3) == (a * b, 3)
    assert free_root(a) == (a, 1)
    assert free_root(Word(())) == (Word(()), 0)
    # conjugated powers keep their root up to the conjugator
    root, k = free_root(b * a ** 4 * invert(b))
    assert k == 4 and root == b * a * invert(b)


def test_am_subgroup_membership():
    ctx = preset("thompson-f")
    from nearnormal.thompson import a_generator
    h = am_subgroup(ctx, 2)
    assert contains(h, a_generator(2)) is True
    assert contains(h, a_generator(5)) is True
    assert contains(h, a_generator(1)) is False
    assert contains(h, generator(0)) is False


# --- index -------------------------------------------------------------------

def test_index_bounded_finite_cases():
    ctx = preset("sym3")
    h = finite_subgroup(ctx, [w("a")])
    assert index_bounded(h, whole_group(ctx), 10) == 3
    assert index_bounded(trivial_subgroup(ctx), whole_group(ctx), 10) == 6
    assert index_bounded(whole_group(ctx), whole_group(ctx), 10) == 1


def test_index_bounded_lattices():
    ctx = preset("zn(2)")
    whole = whole_group(ctx)
    assert index_bounded(lattice_subgroup(ctx, [(2, 0), (0, 2)]), whole, 10) == 4
    assert index_bounded(lattice_subgroup(ctx, [(2, 0), (0, 3)]), whole, 10) == 6
    assert index_bounded(lattice_subgroup(ctx, [(1, 0)]), whole, 10) is None
    # read from the Hermite pivots, never capped by the bound
    assert index_bounded(lattice_subgroup(ctx, [(7, 0), (0, 5)]), whole, 10) == 35


def test_diagonal_z3_indices_past_the_bound_are_exact():
    # diagonal lattices a, b of Z^3 meet in the diagonal lcm(a_i, b_i), so
    # [H : H n K] = prod lcm(a_i, b_i) / a_i and symmetrically for K
    ctx = preset("zn(3)")
    rng = random.Random(3)
    checked = 0
    while checked < 20:
        a = [rng.randint(1, 12) for _ in range(3)]
        b = [rng.randint(1, 12) for _ in range(3)]
        lcms = [lcm(x, y) for x, y in zip(a, b)]
        indices = [prod(m // x for m, x in zip(lcms, a)), prod(m // y for m, y in zip(lcms, b))]
        if max(indices) <= 5:
            continue
        h = lattice_subgroup(ctx, [tuple(x if i == j else 0 for j in range(3))
                                   for i, x in enumerate(a)])
        k = lattice_subgroup(ctx, [tuple(y if i == j else 0 for j in range(3))
                                   for i, y in enumerate(b)])
        report = commensurability_report(h, k, 5)
        assert (report["result"], report["indices"]) == (True, indices), (a, b)
        checked += 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_index_in_a_rank_one_lattice_is_the_gcd_of_coordinates(n):
    # in <v> the index of <c_1 v, ..., c_k v> is gcd(c_i) at any bound; rank
    # 0 (gcd 0) is infinite
    ctx = preset(f"zn({n})")
    rng = random.Random(n)
    for _ in range(60):
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        if not any(v):
            continue
        coords = [rng.randint(-12, 12) for _ in range(rng.randint(0, 3))]
        sub = lattice_subgroup(ctx, [tuple(c * a for a in v) for c in coords])
        bound = rng.randint(1, 15)
        g = gcd(*coords)
        assert index_bounded(sub, lattice_subgroup(ctx, [v]), bound) == (g or None)


def test_index_bounded_bs():
    ctx = preset("bs(2,3)")
    assert index_bounded(power_subgroup(ctx, 1), whole_group(ctx), 20) == INFINITE_OR_EXCEEDS
    assert index_bounded(power_subgroup(ctx, 2), power_subgroup(ctx, 1), 20) == 2
    # the coset search of a whole group with no table stays capped
    assert index_bounded(power_subgroup(ctx, 2), whole_group(ctx), 100) == INFINITE_OR_EXCEEDS


# --- intersection ------------------------------------------------------------

def test_intersect_finite():
    ctx = preset("sym3")
    a_sub = finite_subgroup(ctx, [w("a")])
    b_sub = finite_subgroup(ctx, [w("b")])
    meet = intersect(a_sub, b_sub)
    for t in group_elements(ctx):
        expected = contains(a_sub, t) and contains(b_sub, t)
        assert contains(meet, t) == expected
    assert index_bounded(meet, whole_group(ctx), 10) == 6
    # pairs of S4 subgroups: the meet's members and index, counted by brute force
    s4 = preset("sym4")
    elements = group_elements(s4)
    assert len(elements) == 24
    subs = [finite_subgroup(s4, [w(text) for text in gens.split(",")])
            for gens in ("a", "b", "a b", "a b a b", "a, b a b^-1", "b, a b a", "a b, b a")]
    for h in subs:
        for k in subs:
            meet = intersect(h, k)
            both = [contains(h, t) is True and contains(k, t) is True for t in elements]
            assert [contains(meet, t) is True for t in elements] == both
            assert index_bounded(meet, whole_group(s4), 24) == 24 // sum(both)


def test_s4_subgroup_pairs_are_commensurable_at_any_bound():
    # every pair of subgroups of a finite group is commensurable; the
    # indices |H| / |H n K| and |K| / |H n K| are read from tables, so the
    # smallest bound does not stop them
    s4 = preset("sym4")
    elements = group_elements(s4)
    subs = [finite_subgroup(s4, [w(text) for text in gens.split(",")])
            for gens in ("a", "b", "a b", "a b a b", "a, b a b^-1", "b, a b a", "a b, b a")]
    for h in subs:
        for k in subs:
            in_h = [contains(h, t) is True for t in elements]
            in_k = [contains(k, t) is True for t in elements]
            meet = sum(x and y for x, y in zip(in_h, in_k))
            report = commensurability_report(h, k, 1)
            assert (report["result"], report["indices"]) == (True, [sum(in_h) // meet,
                                                                    sum(in_k) // meet])


def test_intersect_lattices():
    ctx = preset("zn(2)")
    h = lattice_subgroup(ctx, [(2, 0), (0, 1)])
    k = lattice_subgroup(ctx, [(1, 0), (0, 3)])
    meet = intersect(h, k)
    assert index_bounded(meet, whole_group(ctx), 10) == 6
    u, v = generator(0), generator(1)
    assert contains(meet, u ** 2 * v ** 3) is True
    assert contains(meet, u ** 2) is True
    assert contains(meet, v) is False


def test_zn3_commensurability_takes_one_hermite_form_per_lattice(monkeypatch):
    # H and K are reduced once, when built; the intersection's kernel and
    # basis, the meet's handle and each index's coordinate matrix add five
    ctx = preset("zn(3)")
    u, v, w = (generator(i) for i in range(3))
    h = subgroup_from_words(ctx, [u ** 2, v ** 3, w ** 4])
    k = subgroup_from_words(ctx, [u ** 3, v ** 2, w ** 6])
    calls = []
    real = intlin.hnf_with_transform
    monkeypatch.setattr(intlin, "hnf_with_transform", lambda *a: calls.append(a) or real(*a))
    report = commensurability_report(h, k, 50)
    assert (report["result"], report["indices"]) == (True, [18, 12])
    assert len(calls) == 5


def test_intersect_free_cyclic():
    ctx = preset("free(1)")
    a = generator(0)
    h = free_subgroup(ctx, [a ** 2])
    k = free_subgroup(ctx, [a ** 3])
    meet = intersect(h, k)
    assert contains(meet, a ** 6) is True
    assert contains(meet, a ** 2) is False
    assert contains(meet, a ** 3) is False


def test_intersect_bs_conjugates():
    ctx = preset("bs(2,3)")
    x, y = generator(0), generator(1)
    h = power_subgroup(ctx, 1)
    k = conjugate(h, y)
    meet = intersect(h, k)
    # <x> cap <x>^y = <x^3>, which is index 3 in <x> and index 2 in the
    # conjugate (generated by z = y^-1 x y with z^2 = x^3)
    assert index_bounded(meet, h, 20) == 3
    assert index_bounded(meet, k, 20) == 2
    assert contains(meet, x ** 3) is True
    assert contains(meet, x) is False


def _common_power_by_contains(h, k, bound):
    """The reference x-power scan: the least a in kh, 2 kh, ... <= bound
    with ch^-1 x^a ch in k, each candidate built as a word and tested by
    ``contains``; None when the bound is reached."""
    kh, ch = h.membership.k, h.membership.conjugator
    for a in range(kh, bound + 1, kh):
        if contains(k, invert(ch) * generator(0, a) * ch) is True:
            return a
    return None


def test_intersect_x_powers_matches_contains_scan():
    ctx = preset("bs(2,3)")
    x, y = generator(0), generator(1)
    # powers of y commute, so two mixed conjugators tell ck ch^-1 from ch^-1 ck
    conjugators = [y ** e for e in range(-3, 4)] + [y * x * y, invert(y) * x * y ** 2]
    handles = [conjugate(power_subgroup(ctx, kx), c) for c in conjugators for kx in (1, 2)]
    for h in handles:
        for k in handles:
            if h == k or not (h.membership.conjugator or k.membership.conjugator):
                continue
            a = _common_power_by_contains(h, k, 2000)
            assert a is not None, (h.membership, k.membership)
            ch = h.membership.conjugator
            assert intersect(h, k) == SubgroupHandle(
                ctx, (invert(ch) * generator(0, a) * ch,), None, XPower(a, ch))


# --- commensurability --------------------------------------------------------

def test_bs_commensurability_certificate():
    ctx = preset("bs(2,3)")
    x, y = generator(0), generator(1)
    h = power_subgroup(ctx, 1)
    k = conjugate(h, y)
    report = commensurability_report(h, k, 50)
    assert report["result"] is True
    assert report["indices"] == [3, 2]
    assert is_commensurable(h, k, 50) is True
    assert in_commensurator(h, y, 50) is True
    assert in_commensurator(h, x, 50) is True


def test_free_commensurability():
    ctx = preset("free(2)")
    a, b = generator(0), generator(1)
    h = free_subgroup(ctx, [a ** 2])
    k = free_subgroup(ctx, [a ** 3])
    assert is_commensurable(h, k, 10) is True
    other = free_subgroup(ctx, [b])
    assert is_commensurable(h, other, 10) is False
    assert is_commensurable(free_subgroup(ctx, [Word(())]), trivial_subgroup(ctx), 10) is True


@pytest.mark.parametrize("group, text", [
    ("bs(2,3)", "x"), ("bs(2,3)", "y x y^-1"), ("bs(1,2)", "x"), ("free(2)", "a b")])
def test_the_trivial_subgroup_is_not_commensurable_with_an_infinite_cyclic_one(group, text):
    ctx = preset(group)
    h = subgroup_from_words(ctx, [parse_word(text, ctx.generator_names)])
    one = trivial_subgroup(ctx)
    for report in (commensurability_report(one, h, 50), commensurability_report(h, one, 50)):
        assert (report["result"], report["indices"]) == (False, None), report


def test_near_normal_verdicts():
    bs_ctx = preset("bs(2,3)")
    x, y = generator(0), generator(1)
    h = power_subgroup(bs_ctx, 1)
    assert near_normal_on(h, [x, y], 50) is True
    free_ctx = preset("free(2)")
    a, b = generator(0), generator(1)
    ha = free_subgroup(free_ctx, [a])
    assert near_normal_on(ha, [a], 10) is True
    assert near_normal_on(ha, [a, b], 10) is False


def test_report_is_json_safe():
    import json
    ctx = preset("bs(2,3)")
    h = power_subgroup(ctx, 1)
    k = conjugate(h, generator(1))
    json.dumps(commensurability_report(h, k, 50))


# --- translate disjointness --------------------------------------------------

def test_neumann_translate_two_cosets():
    ctx = preset("zn(2)")
    u, v = generator(0), generator(1)
    lu = lattice_subgroup(ctx, [(1, 0)])
    x_set = CosetSet(lu, (Word(()), v), "right")
    g = neumann_translate(x_set, 3)
    assert g == v * v
    # verify the certificate: every translate coset misses every original
    for rep in x_set.representatives:
        for other in x_set.representatives:
            assert same_coset(lu, rep * g, other, "right") is False


def test_neumann_translate_exhausts_on_a_cover():
    ctx = preset("sym3")
    h = finite_subgroup(ctx, [parse_word("a", ("a", "b"))])
    table = h.coset_table
    reps = tuple(table.representatives)
    x_set = CosetSet(h, reps, "right")
    assert neumann_translate(x_set, 4) is None


# --- coset keys ----------------------------------------------------------------


def free_ball(radius):
    """All freely reduced words over a, b of length <= radius."""
    words, frontier = [Word(())], [Word(())]
    letters = [generator(0), generator(0, -1), generator(1), generator(1, -1)]
    for _ in range(radius):
        frontier = [g * x for g in frontier for x in letters
                    if len(g * x) == len(g) + 1]
        words.extend(frontier)
    return words


def coset_key(sub):
    return sub.membership.coset_key(sub)


KEYED = [pytest.param("free(2)", lambda ctx, u=u: free_subgroup(ctx, map(w, u.split(","))), id=u)
         for u in ("a", "a^2", "b a^2 b^-1", "a b a b", "a b a^-1 b^-1", "a b", "a^2, b a b^-1")] + [
    pytest.param("bs(2,3)", trivial_subgroup, id="trivial"),
    pytest.param("sym3", lambda ctx: finite_subgroup(ctx, [w("a")]), id="table"),
    pytest.param("bs(2,3)", lambda ctx: power_subgroup(ctx, 2), id="x-power"),
    pytest.param("bs(2,3)", lambda ctx: conjugate(power_subgroup(ctx, 3), w("y x", ("x", "y"))),
                 id="conjugated-x-power"),
    pytest.param("zn(2)", lambda ctx: lattice_subgroup(ctx, [(2, 1), (0, 3)]), id="lattice"),
]


def random_word(rng, length, gens=2):
    return Word([(rng.randrange(gens), rng.choice((1, -1))) for _ in range(length)])


@pytest.mark.parametrize("group, make", KEYED)
def test_free_cyclic_key_agrees_with_same_coset(group, make):
    """Every oracle with a coset key (the name is historical): the key of
    g's element key agrees with pairwise membership on left cosets, and an
    index numbering cosets by key matches one comparing pairwise."""
    ctx = preset(group)
    sub = make(ctx)
    key = coset_key(sub)
    ball = free_ball(4)
    keys = [key(element_key(ctx, g)) for g in ball]
    for i in range(len(ball)):
        for j in range(i + 1, len(ball)):
            assert (keys[i] == keys[j]) == same_coset(sub, ball[i], ball[j], "left"), \
                (ball[i], ball[j])
    rng = random.Random(16)
    elements = ends.element_ball(ctx, (generator(0), generator(1)), 3)
    elements += [random_word(rng, rng.randrange(9)) for _ in range(100)]
    # words in one left coset of each other, so the partition is not discrete
    elements += [g * h for g in elements[-30:] for h in sub.generators]
    keyed, pairwise = CosetIndex(sub, "left", key), CosetIndex(sub, "left")
    numbers = [keyed.add(g) for g in elements]
    assert numbers == [pairwise.add(g) for g in elements]
    assert keyed.representatives == pairwise.representatives
    assert not keyed.undecided and not pairwise.undecided
    assert max(numbers) + 1 < len(elements)


@pytest.mark.parametrize("group, make", KEYED)
def test_left_key_partitions_like_the_right_key_of_the_inverse(group, make):
    """Each oracle's left key numbers the left cosets g(sub) as pairwise
    comparison numbers the right cosets (sub)g^-1 of the inverses:
    g(sub) = h(sub) iff (sub)g^-1 = (sub)h^-1."""
    ctx = preset(group)
    sub = make(ctx)
    key = coset_key(sub)
    rng = random.Random(16)
    elements = [random_word(rng, rng.randrange(9)) for _ in range(100)]
    # words in one left coset of each other, so the partition is not discrete
    elements += [g * h for g in elements[:30] for h in sub.generators]
    left, right = CosetIndex(sub, "left", key), CosetIndex(sub, "right")
    numbers = [left.add(g) for g in elements]
    assert numbers == [right.add(invert(g)) for g in elements]
    assert not left.undecided and not right.undecided
    assert max(numbers) + 1 < len(elements)


def free_root(u):
    """(r, k) with u = r^k in the free group, r not a proper power; k = 0
    for u = 1: the root arithmetic that decides cyclic subgroups."""
    c, core = cyclic_peel(u)
    letters, size = core.letters, len(core)
    for p in range(1, size + 1):
        if size % p == 0 and letters == letters[:p] * (size // p):
            return c * Word(letters[:p]) * invert(c), size // p
    return Word(()), 0


def root_coordinate(u, g):
    """t with g = u^t, None when g is outside <u>, for u != 1."""
    (ru, ku), (rg, kg) = free_root(u), free_root(g)
    if not g:
        return 0
    if kg % ku or rg not in (ru, invert(ru)):
        return None
    return kg // ku if rg == ru else -kg // ku


def root_report(u, v):
    """The commensurability verdict and indices of <u> and <v>, u, v != 1:
    they meet in <r^lcm(ku, kv)> when their roots agree up to inversion."""
    (ru, ku), (rv, kv) = free_root(u), free_root(v)
    if rv not in (ru, invert(ru)):
        return False, None
    return True, [lcm(ku, kv) // ku, lcm(ku, kv) // kv]


def test_cyclic_handles_match_root_arithmetic():
    ctx = preset("free(3)")
    rng = random.Random(16)
    checked = 0
    for _ in range(120):
        root = random_word(rng, rng.randint(1, 4), 3)
        c = random_word(rng, rng.randrange(3), 3)
        u = c * root ** rng.randint(1, 3) * invert(c)
        if not u:
            continue
        h = free_subgroup(ctx, [u])
        partners = [c * root ** e * invert(c) for e in (1, -2, 3, 4)]
        for _ in range(25):
            g = random_word(rng, rng.randrange(12), 3)
            if rng.random() < 0.5:  # end with a power of u
                g = g * u ** rng.choice((-3, -2, -1, 1, 2, 3))
            assert contains(h, g) is (root_coordinate(u, g) is not None), (u, g)
            checked += 1
            if g:
                partners.append(g)
        for v in partners:
            report = commensurability_report(h, free_subgroup(ctx, [v]), 50)
            assert (report["result"], report["indices"]) == root_report(u, v), (u, v)
            checked += 1
    assert checked > 2000


def test_coset_index_without_a_decision():
    # a bare handle decides only the empty word: a new coset is taken under
    # "unknown", and find reports "unknown" when no coset matched
    ctx = preset("free(2)")
    index = CosetIndex(bare_subgroup(ctx, (generator(0),)), "right")
    assert index.add(Word(())) == 0 and not index.undecided
    assert index.find(generator(0)) == "unknown"
    assert index.add(generator(0)) == 1 and index.undecided
    assert index.find(generator(0)) == 1  # the same word decides after an "unknown"


def test_folded_key_is_the_vertex_and_the_unread_letters():
    ctx = preset("free(2)")
    # <a b> is the loop 0 -a-> 1 -b-> 0: b^-1 and a both read to vertex 1
    key = coset_key(free_subgroup(ctx, [w("a b")]))
    assert key(w("b").letters) == key(w("a^-1").letters) == (1, ())
    # (a^5 b)^-1 = b^-1 a^-5 reads along the stem b^-1 into the 2-loop of a
    key = coset_key(free_subgroup(ctx, [w("b^-1 a^2 b")]))
    assert key(w("a^5 b").letters) == key(w("a b").letters) == (2, ())
    # <a> has no b edge: a^3 b stays unread, and b a^2 leaves b unread
    key = coset_key(free_subgroup(ctx, [w("a")]))
    assert key(w("a^3 b").letters) == (0, w("a^3 b").letters)
    assert key(w("b a^2").letters) == key(w("b").letters) == (0, w("b").letters)
    assert coset_key(free_subgroup(ctx, [Word(())]))(w("a b").letters) == (0, w("a b").letters)


def test_whole_group_coset_count_at_its_bound():
    ctx = preset("free(1)")
    for k in range(1, 8):
        ak = free_subgroup(ctx, [generator(0, k)])
        # the same subgroup without a coset key: cosets compared pairwise
        pairwise = SubgroupHandle(ctx, ak.generators, None, Conjugate(ak, Word(())))
        for sub in (ak, pairwise):
            for bound in range(1, 10):
                expected = k if k <= bound else INFINITE_OR_EXCEEDS
                assert index_bounded(sub, whole_group(ctx), bound) == expected, (k, bound)


def test_free_cyclic_index_in_a_free_group_is_infinite():
    ctx = preset("free(2)")
    assert index_bounded(free_subgroup(ctx, [w("a")]), whole_group(ctx), 30) \
        == INFINITE_OR_EXCEEDS


# --- free subgroups by their Stallings graphs --------------------------------


def graph_rank(sub):
    """The rank of a folded handle: edges less vertices plus one."""
    action = sub.coset_table.action
    return sum(t is not None for row in action for t in row[::2]) - len(action) + 1


def transitive_action(rng, n):
    """Images of a and b, two random permutations of range(n) with one orbit."""
    while True:
        perms = [rng.sample(range(n), n) for _ in range(2)]
        orbit, frontier = {0}, [0]
        while frontier:
            frontier = [p[i] for i in frontier for p in perms if p[i] not in orbit]
            orbit.update(frontier)
        if len(orbit) == n:
            return perms


def stabilizer(ctx, perms):
    """The free subgroup fixing point 0, by the Schreier generators
    reps[c] x reps[c x]^-1 of a breadth-first tree of the action."""
    reps, order = {0: Word(())}, [0]
    for c in order:  # grows while it runs: breadth-first
        for i, p in enumerate(perms):
            for d, x in ((p[c], generator(i)), (p.index(c), generator(i, -1))):
                if d not in reps:
                    reps[d] = reps[c] * x
                    order.append(d)
    return free_subgroup(ctx, [reps[c] * generator(i) * invert(reps[p[c]])
                               for c in reps for i, p in enumerate(perms)])


def test_transitive_actions_give_schreier_ranks_and_multiplicative_indices():
    ctx = preset("free(2)")
    whole = free_subgroup(ctx, [generator(0), generator(1)])
    rng = random.Random(38)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        first, second = transitive_action(rng, n), transitive_action(rng, m)
        h, k = stabilizer(ctx, first), stabilizer(ctx, second)
        # a stabilizer of index n in free(2) is free of rank n(2 - 1) + 1
        assert (index_bounded(h, whole, 1), graph_rank(h)) == (n, n + 1)
        assert h.coset_table.coset_count == n and None not in sum(h.coset_table.action, ())
        j = intersect(h, k)
        # j fixes (0, 0) in the product action: its orbit is [F : j]
        orbit, frontier = {(0, 0)}, [(0, 0)]
        while frontier:
            frontier = [(p[c], q[d]) for c, d in frontier for p, q in zip(first, second)
                        if (p[c], q[d]) not in orbit]
            orbit.update(frontier)
        assert index_bounded(j, whole, 1) == len(orbit)
        assert index_bounded(j, h, 1) * n == len(orbit)
        assert index_bounded(j, k, 1) * m == len(orbit)


def test_intersections_keep_the_hanna_neumann_bound():
    ctx = preset("free(2)")
    rng = random.Random(38)
    probes = [random_word(rng, rng.randrange(8)) for _ in range(60)]
    for _ in range(150):
        h, k = (free_subgroup(ctx, [random_word(rng, rng.randint(1, 5))
                                    for _ in range(rng.randint(1, 3))]) for _ in range(2))
        j = intersect(h, k)
        reduced = [max(graph_rank(sub) - 1, 0) for sub in (h, k, j)]
        assert reduced[2] <= reduced[0] * reduced[1], (h.generators, k.generators)
        # the pullback's generators are a basis
        assert len(j.generators) == graph_rank(j)
        for g in probes + list(h.generators) + list(k.generators):
            assert contains(j, g) is (contains(h, g) and contains(k, g))


def test_free_subgroups_with_several_generators():
    ctx = preset("free(2)")
    whole = free_subgroup(ctx, [w("a"), w("b")])
    even = subgroup_from_words(ctx, [w("a^2"), w("b"), w("a b a^-1")])
    assert isinstance(even.membership, Folded)
    assert index_bounded(even, whole, 6) == index_bounded(even, whole_group(ctx), 6) == 2
    # <a b, b a> is free of rank 2 and of infinite index: its graph is not complete
    ab = subgroup_from_words(ctx, [w("a b"), w("b a")])
    assert index_bounded(ab, whole, 6) is None
    assert index_bounded(ab, whole_group(ctx), 6) == INFINITE_OR_EXCEEDS
    assert commensurability_report(even, ab, 50)["result"] is False
    assert commensurability_report(even, conjugate(even, w("b a")), 50) == {
        "result": True, "indices": [1, 1], "certificate": None}


# --- the oracle pair matrix --------------------------------------------------


def _native(ctx):
    """The handle with the oracle that only this context supports."""
    if ctx.oracle == "coset-table":
        return finite_subgroup(ctx, [generator(0)])
    if ctx.oracle == "britton":
        return power_subgroup(ctx, 2)
    if ctx.oracle == "free-abelian":
        return lattice_subgroup(ctx, [(2, 0)])
    if ctx.oracle == "free":
        return free_subgroup(ctx, [generator(0) * generator(1)])
    return am_subgroup(ctx, 1)


def _pair_matrix_handles(ctx):
    base = [whole_group(ctx), trivial_subgroup(ctx), bare_subgroup(ctx, (generator(0),)), _native(ctx)]
    return base + [conjugate(h, generator(1)) for h in base]


def _documented_outcome(call):
    try:
        call()
    except UnsupportedOraclePair:
        return "unsupported"
    except ValueError as exc:
        message = str(exc)
        assert "outside the ambient" in message or "inconsistent tables" in message, message
        return "refused"
    return "returned"


@pytest.mark.parametrize("group", ["sym3", "bs(2,3)", "zn(2)", "free(2)", "thompson-f"])
def test_every_oracle_pair_returns_or_raises_a_documented_error(group):
    ctx = preset(group)
    handles = _pair_matrix_handles(ctx)
    outcomes = set()
    for h in handles:
        for k in handles:
            outcomes.add(_documented_outcome(lambda: intersect(h, k)))
            outcomes.add(_documented_outcome(lambda: index_bounded(h, k, 20)))
            report = commensurability_report(h, k, 20)
            if report["result"] == "unknown":
                assert report["certificate"].startswith(("no index strategy",
                                                         "no intersection strategy",
                                                         "a coset search stopped at the bound 20"))
            else:
                assert report["result"] in (True, False), report
    assert "returned" in outcomes
