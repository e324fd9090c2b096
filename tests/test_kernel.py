"""Scan kernel backends and the dyadic PL model they are checked against."""

import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from nearnormal import _scan_py, scan, thompson
from nearnormal._plmodel import (
    PLMap, compose, generator_pl, identity_pl, invert_pl, letter_pl,
    pl_equal, word_pl,
)
from nearnormal._scan_py import thompson_agreement_scan as scan_py
from nearnormal.thompson import f_normal_form
from nearnormal.words import Word, generator, invert
from rewriting import form_word


def reduced_word_count(max_len, max_index):
    """Freely reduced words of length <= max_len over x_0..x_max_index."""
    letters = 2 * (max_index + 1)
    total, layer = 1, 1
    for _ in range(max_len):
        layer *= letters if layer == 1 else letters - 1
        total += layer
    return total


def test_backend_tag():
    assert scan.BACKEND in ("compiled", "python")


def test_python_backend_counts_and_passes():
    assert reduced_word_count(5, 2) == 4687
    for max_len, max_index in ((2, 1), (3, 2), (5, 2)):
        report = scan_py(max_len, max_index)
        assert report["words"] == reduced_word_count(max_len, max_index)
        assert report["failures"] == []
        assert report["backend"] == "python"


def test_python_backend_reports_a_broken_engine(monkeypatch):
    # negative control: x_1 read as x_2 must show up as failures
    mul_letter = thompson._mul_letter

    def broken(pos, neg, index, sign):
        return mul_letter(pos, neg, index + (index == 1), sign)

    monkeypatch.setattr(thompson, "_mul_letter", broken)
    report = scan_py(4, 2)
    assert report["words"] == reduced_word_count(4, 2)
    assert len(report["failures"]) == 10
    assert all(any(i == 1 for i, _ in word) for word, _ in report["failures"])


def test_python_backend_reports_non_canonical_forms(monkeypatch):
    # negative control: without _cleanup every form still denotes the word's
    # map, so only the canonicity check can report the broken engine
    monkeypatch.setattr(thompson, "_cleanup", lambda pos, neg: (pos, neg))
    report = scan_py(4, 2)
    assert report["words"] == reduced_word_count(4, 2)
    assert len(report["failures"]) == 10
    for _, (pos, neg) in report["failures"]:
        both = {i for i, _ in pos} & {j for j, _ in neg}
        indices = {i for i, _ in pos + neg}
        assert any(i + 1 not in indices for i in both)


def reference_scan(max_len, max_index):
    """The scan's report, by a per-word loop with no form cache: each word's
    form P N^-1 is composed from generator maps letter by letter."""
    bits = _scan_py._precision(max_len, max_index)
    one = 1 << bits

    def letter_map(index, sign):
        xs, ys = _scan_py._generator(index, bits)
        return (xs, ys) if sign == 1 else (ys, xs)

    letters = [(i, s) for i in range(max_index + 1) for s in (1, -1)]
    failures, words = [], 0

    def visit(word, plw, nf):
        nonlocal words
        words += 1
        form = [(i, 1) for i, a in nf.positive for _ in range(a)]
        form += [(j, -1) for j, b in reversed(nf.negative) for _ in range(b)]
        form_map = ((0, one), (0, one))
        for letter in form:
            form_map = _scan_py._compose(form_map, letter_map(*letter))
        if not _scan_py._is_normal_form(nf.positive, nf.negative) or form_map != plw:
            failures.append((word, (nf.positive, nf.negative)))
        if len(word) < max_len:
            for l in letters:
                if not word or word[-1] != (l[0], -l[1]):
                    visit(word + (l,), _scan_py._compose(plw, letter_map(*l)),
                          thompson.f_times(nf, (l,)))

    visit((), ((0, one), (0, one)), thompson.IDENTITY)
    return {"words": words, "failures": failures[:_scan_py.FAILURE_CAP], "backend": "python"}


@pytest.mark.parametrize("mutation, size", [
    ("none", (5, 2)), ("none", (6, 2)), ("none", (4, 4)), ("non-canonical", (5, 2)),
    ("x1-read-as-x2", (5, 2)), ("x1-read-as-x2", (4, 4))],
    ids=["5:2", "6:2", "4:4", "5:2-non-canonical", "5:2-x1-read-as-x2", "4:4-x1-read-as-x2"])
def test_python_backend_matches_the_per_word_reference(monkeypatch, mutation, size):
    # the scan checks each distinct form and each (form, letter) edge once;
    # the reference checks every word
    _break_engine(monkeypatch, mutation)
    report = scan_py(*size)
    assert report == reference_scan(*size)
    assert bool(report["failures"]) == (mutation != "none")


@pytest.mark.parametrize("mutation", ["non-canonical", "x1-read-as-x2"])
def test_python_backend_lists_every_failure_of_the_per_word_reference(monkeypatch, mutation):
    # with the cap lifted, every failing word is listed, also one whose
    # (form, letter) edge failed before: the edge table must not keep it
    monkeypatch.setattr(_scan_py, "FAILURE_CAP", 10 ** 6)
    _break_engine(monkeypatch, mutation)
    report = scan_py(4, 4)
    assert report == reference_scan(4, 4)
    assert len(report["failures"]) > 10


def _break_engine(monkeypatch, mutation):
    if mutation == "non-canonical":
        monkeypatch.setattr(thompson, "_cleanup", lambda pos, neg: (pos, neg))
    elif mutation == "x1-read-as-x2":
        mul_letter = thompson._mul_letter
        monkeypatch.setattr(thompson, "_mul_letter", lambda pos, neg, index, sign:
                            mul_letter(pos, neg, index + (index == 1), sign))


def _values(xs: tuple, ys: tuple, points: list) -> list:
    """Images of the ascending points under the map (xs, ys)."""
    out = []
    k = 0
    for u in points:
        while xs[k + 1] < u:
            k += 1
        x0, y0 = xs[k], ys[k]
        q, r = divmod((u - x0) * (ys[k + 1] - y0), xs[k + 1] - x0)
        if r:
            raise ArithmeticError("breakpoint image falls off the dyadic grid")
        out.append(y0 + q)
    return out


def _canonical(xs: list, ys: list) -> tuple:
    """Drop interior breakpoints whose two slopes agree."""
    cx, cy = [xs[0]], [ys[0]]
    for k in range(1, len(xs) - 1):
        x, y = xs[k], ys[k]
        if (y - cy[-1]) * (xs[k + 1] - x) != (ys[k + 1] - y) * (x - cx[-1]):
            cx.append(x)
            cy.append(y)
    cx.append(xs[-1])
    cy.append(ys[-1])
    return tuple(cx), tuple(cy)


def reference_compose(f: tuple, g: tuple) -> tuple:
    """f after g in three passes: every middle-axis point, both coordinates
    of each by interpolation, then the collinear points dropped."""
    fx, fy = f
    gx, gy = g
    mid = sorted(set(gy).union(fx))
    return _canonical(_values(gy, gx, mid), _values(fx, fy, mid))


def test_merged_compose_matches_the_three_pass_reference():
    bits = _scan_py._precision(8, 4)
    one = 1 << bits

    def letter_map(index, sign):
        xs, ys = _scan_py._generator(index, bits)
        return (xs, ys) if sign == 1 else (ys, xs)

    def word_map(word):
        acc = ((0, one), (0, one))
        for letter in word:
            acc = reference_compose(acc, letter_map(*letter))
        return acc

    rng = random.Random(19)
    pairs = 0
    for _ in range(1000):
        f = word_map(random_word(rng, 8, 4))
        g = word_map(random_word(rng, 8, 4))
        letter = letter_map(rng.randrange(5), rng.choice((1, -1)))
        # word . letter, letter . word and P . N^-1, the form's shape
        for left, right in ((f, letter), (letter, f), (f, (g[1], g[0]))):
            assert _scan_py._compose(left, right) == reference_compose(left, right)
            pairs += 1
        assert _scan_py._compose(f, (f[1], f[0])) == ((0, one), (0, one))
    assert pairs == 3000


def test_merged_compose_raises_off_the_grid():
    # at 2 bits x_0 sends 1/4 to 1/8: x_0 x_0 needs an eighth
    x0 = _scan_py._generator(0, 2)
    assert x0 == ((0, 2, 3, 4), (0, 1, 2, 4))
    for compose_fn in (_scan_py._compose, reference_compose):
        with pytest.raises(ArithmeticError):
            compose_fn(x0, x0)


def test_normal_form_conditions():
    assert _scan_py._is_normal_form(((0, 2), (3, 1)), ((1, 1),))
    assert _scan_py._is_normal_form(((0, 1), (1, 1)), ((0, 1),))
    assert not _scan_py._is_normal_form(((0, 1),), ((0, 1),))
    assert not _scan_py._is_normal_form(((3, 1), (1, 1)), ())
    assert not _scan_py._is_normal_form(((1, 1), (1, 1)), ())
    assert not _scan_py._is_normal_form((), ((2, 0),))


def test_python_backend_rejects_negative_sizes():
    for max_len, max_index in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            scan_py(max_len, max_index)


@pytest.mark.parametrize("bits", [3, 5])
def test_python_backend_precision_is_checked(monkeypatch, bits):
    # x_2 needs 4 bits; the length-3 maps over x_0..x_2 need 6
    monkeypatch.setattr(_scan_py, "_precision", lambda max_len, max_index: bits)
    with pytest.raises(ArithmeticError):
        scan_py(3, 2)


def test_python_backend_maps_match_the_fraction_model():
    bits = 24
    one = 1 << bits
    rng = random.Random(14)
    for _ in range(300):
        w = random_word(rng, 8, 3)
        acc = ((0, one), (0, one))
        for index, sign in w:
            xs, ys = _scan_py._generator(index, bits)
            acc = _scan_py._compose(acc, (xs, ys) if sign == 1 else (ys, xs))
        ref = word_pl(w)
        assert tuple(Fraction(x, one) for x in acc[0]) == ref.xs
        assert tuple(Fraction(y, one) for y in acc[1]) == ref.ys


def test_backend_parity(scan_c):
    for max_len, max_index in ((3, 2), (4, 2), (5, 2), (6, 3)):
        a = scan_c.thompson_agreement_scan(max_len, max_index)
        b = scan_py(max_len, max_index)
        assert a["backend"] == "compiled"
        assert a["words"] == b["words"] == reduced_word_count(max_len, max_index)
        assert a["failures"] == b["failures"] == []
    report = scan_c.thompson_agreement_scan(max_len=7, max_index=3)
    assert report["words"] == reduced_word_count(7, 3)
    assert report["failures"] == []


# text edits that break a copy of _scan_c.c, each at one place: the first two
# are the engine mutations of _break_engine, the last leaves maps uncanonical
C_MUTATIONS = {
    "x1-read-as-x2": ("nf_mul_letter(&s->nf[depth + 1], c >> 1,",
                      "nf_mul_letter(&s->nf[depth + 1], (c >> 1) + (c >> 1 == 1),"),
    "non-canonical": ("        if (has_index(f->pos, f->np, k))\n            nf_cleanup(f);\n", ""),
    "collinear-kept": ("        if (n > 1 && sg + sf == last)\n            n--;\n", ""),
}


@pytest.mark.parametrize("mutation", list(C_MUTATIONS))
def test_compiled_backend_reports_a_broken_kernel(build_scan_c, monkeypatch, mutation):
    # negative controls: a mutated kernel must report failures, and a broken
    # engine the same ones as the Python kernel under the same mutation
    old, new = C_MUTATIONS[mutation]
    source = pathlib.Path(_scan_py.__file__).with_name("_scan_c.c").read_text()
    assert source.count(old) == 1
    report = build_scan_c(source.replace(old, new)).thompson_agreement_scan(4, 2)
    assert report["words"] == reduced_word_count(4, 2)
    assert len(report["failures"]) == _scan_py.FAILURE_CAP
    if mutation != "collinear-kept":
        _break_engine(monkeypatch, mutation)
        python = scan_py(4, 2)
        assert (report["words"], report["failures"]) == (python["words"], python["failures"])


def test_compiled_depth_guard(scan_c):
    # only rejected sizes: an admitted large size would start a long scan
    for max_len, max_index in ((13, 2), (12, 25), (-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            scan_c.thompson_agreement_scan(max_len, max_index)


@pytest.mark.parametrize("max_len, max_index, message", [
    (2, 2 ** 31 - 1, "bits"), (1, 2 ** 31 - 5, "bits"), (1, 2 ** 31, "bits"),
    (1, 2 ** 64, "bits"), (2 ** 64, 1, "max_len too large"), (-2 ** 64, 1, "non-negative")])
def test_compiled_size_guard_cannot_overflow(scan_c, max_len, max_index, message):
    # sizes near or past the C int range must fail the size checks, not wrap
    # round them into a scan or a crash; a fresh interpreter confines a crash
    code = (
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('nearnormal._scan_c', {scan_c.__file__!r})\n"
        "kernel = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(kernel)\n"
        "try:\n"
        f"    print(kernel.thompson_agreement_scan({max_len}, {max_index}))\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ValueError:") and message in done.stdout, done.stdout


def test_compiled_scan_at_the_bit_budget_edge(scan_c):
    # max_index + 2 * max_len + 4 = 48 bits is the most the kernel admits:
    # at the edge it agrees with the Python kernel; one bit past, it refuses
    for max_len, max_index in ((1, 42), (2, 40)):
        report = scan_c.thompson_agreement_scan(max_len, max_index)
        assert report["words"] == reduced_word_count(max_len, max_index)
        assert report["failures"] == []
        python = scan_py(max_len, max_index)
        assert (python["words"], python["failures"]) == (report["words"], report["failures"])
    report = scan_c.thompson_agreement_scan(3, 38)
    assert report["words"] == reduced_word_count(3, 38) == 468_547
    assert report["failures"] == []
    for max_len, max_index in ((0, 45), (1, 43), (2, 41)):
        with pytest.raises(ValueError, match="bits"):
            scan_c.thompson_agreement_scan(max_len, max_index)


@pytest.mark.parametrize("max_len, max_index", [
    (13, 0), (12, 21), (2, 41), (1, 43), (0, 45), (-1, 2), (2, -1), (2 ** 64, 1), (1, 2 ** 64)])
def test_facade_refuses_what_the_compiled_kernel_refuses(scan_c, monkeypatch, max_len, max_index):
    # the facade's size checks run before either kernel, with the same messages
    with pytest.raises(ValueError) as compiled:
        scan_c.thompson_agreement_scan(max_len, max_index)

    def no_scan(max_len, max_index):
        raise AssertionError("a kernel was called")

    monkeypatch.setattr(scan, "_kernel", no_scan)
    with pytest.raises(ValueError) as facade:
        scan.thompson_agreement_scan(max_len, max_index)
    assert str(facade.value) == str(compiled.value)


def test_facade_admits_the_sizes_at_the_limits(monkeypatch):
    calls = []
    monkeypatch.setattr(scan, "_kernel", lambda *args: calls.append(args))
    for size in ((12, 20), (2, 40), (0, 44)):
        scan.thompson_agreement_scan(*size)
    assert calls == [(12, 20), (2, 40), (0, 44)]


def test_facade_exports_active_backend():
    report = scan.thompson_agreement_scan(2, 1)
    assert report["backend"] == scan.BACKEND
    assert report["words"] == reduced_word_count(2, 1)
    assert report["failures"] == []


# -- PL model ---------------------------------------------------------------


def random_word(rng, max_len, max_index):
    n = rng.randrange(max_len + 1)
    return Word(tuple((rng.randrange(max_index + 1), rng.choice((1, -1)))
                      for _ in range(n)))


def test_identity_and_generator_shapes():
    assert identity_pl().is_identity()
    g0 = generator_pl(0)
    assert g0.xs == (0, Fraction(1, 2), Fraction(3, 4), 1)
    assert g0.ys == (0, Fraction(1, 4), Fraction(1, 2), 1)
    g1 = generator_pl(1)
    assert g1.xs[0] == 0 and g1.xs[-1] == 1
    # x_1 is the identity left of 1/2
    assert g1(Fraction(1, 3)) == Fraction(1, 3)
    assert g1(Fraction(1, 2)) == Fraction(1, 2)
    assert g1(Fraction(3, 4)) == Fraction(5, 8)


def test_canonical_form_drops_collinear_points():
    f = PLMap([0, Fraction(1, 2), 1], [0, Fraction(1, 2), 1])
    assert f.is_identity()
    assert len(f.xs) == 2


def test_plmap_validation():
    with pytest.raises(ValueError):
        PLMap([0, 1], [0])
    with pytest.raises(ValueError):
        PLMap([0, Fraction(1, 2)], [0, Fraction(1, 2)])
    with pytest.raises(ValueError):
        PLMap([0, Fraction(1, 2), Fraction(1, 2), 1], [0, Fraction(1, 4), Fraction(1, 2), 1])
    with pytest.raises(ValueError):
        identity_pl()(Fraction(3, 2))


def test_inverse_and_composition():
    rng = random.Random(11)
    for _ in range(30):
        w = random_word(rng, 6, 2)
        f = word_pl(w)
        assert compose(f, invert_pl(f)).is_identity()
        assert compose(invert_pl(f), f).is_identity()
    # compose(f, g) applies g first
    f = generator_pl(0)
    g = generator_pl(1)
    h = compose(f, g)
    t = Fraction(7, 8)
    assert h(t) == f(g(t))


def test_word_pl_is_a_homomorphism():
    rng = random.Random(12)
    for _ in range(40):
        u = random_word(rng, 5, 2)
        v = random_word(rng, 5, 2)
        assert word_pl(u * v) == compose(word_pl(u), word_pl(v))
    assert word_pl(Word(())) == identity_pl()


def test_defining_relations_hold_in_model():
    # x_i^-1 x_j x_i = x_{j+1} for i < j
    for i in range(4):
        for j in range(i + 1, 5):
            lhs = invert(generator(i)) * generator(j) * generator(i)
            assert word_pl(lhs) == generator_pl(j + 1)


def test_letter_pl_signs():
    assert letter_pl((0, 1)) == generator_pl(0)
    assert letter_pl((2, -1)) == invert_pl(generator_pl(2))


def test_pl_equal_matches_normal_form_engine():
    """Exhaustive cross-check on all short words: the PL model and the
    normal-form engine induce the same equality relation."""
    words = [Word(())]
    frontier = [()]
    letters = [(i, s) for i in (0, 1) for s in (1, -1)]
    for _ in range(3):
        nxt = []
        for w in frontier:
            for l in letters:
                if w and w[-1][0] == l[0] and w[-1][1] == -l[1]:
                    continue
                nxt.append(w + (l,))
        frontier = nxt
        words.extend(Word(w) for w in frontier)
    maps = [word_pl(w) for w in words]
    keys = [(f_normal_form(w).positive, f_normal_form(w).negative) for w in words]
    for a in range(len(words)):
        for b in range(a + 1, len(words)):
            assert (maps[a] == maps[b]) == (keys[a] == keys[b])
            assert pl_equal(words[a], words[b]) == (maps[a] == maps[b])


def test_normal_form_word_has_same_map():
    rng = random.Random(13)
    for _ in range(60):
        w = random_word(rng, 7, 3)
        nf = f_normal_form(w)
        assert word_pl(form_word(nf)) == word_pl(w)
