"""Command-line interface: output contracts, exit codes, determinism."""

import gc
import hashlib
import json
import math
import pathlib
import shlex

import jsonschema
import pytest
from clirun import Runner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nearnormal import baumslag_solitar as bs
from nearnormal import groups, scan, suites, thompson
from nearnormal.cli import GC_THRESHOLD, _json, main
from nearnormal.words import Word, generator, invert


@pytest.fixture
def runner():
    return Runner()


def invoke(runner, args, expect=0):
    result = runner.invoke(main, args)
    if result.exit_code != expect:  # pragma: no cover - debugging aid
        raise AssertionError(f"exit {result.exit_code} for {args}:\n{result.output}")
    return result


# every preset with a text form, parametric ones at the arguments (2, 3)
TEXT_PRESETS = [f"{name}({','.join('23'[:count])})" if count else name
                for name, (count, _) in groups.PRESETS.items()]


@pytest.mark.parametrize("name", TEXT_PRESETS)
def test_group_parse_preset(runner, name):
    result = invoke(runner, ["group", "parse", name])
    assert result.output == groups.serialize_presentation(groups.preset(name))
    # canonical output is a fixed point of parsing and loads again
    again = invoke(runner, ["group", "parse", result.output])
    assert again.output == result.output
    invoke(runner, ["group", "show", result.output])


@pytest.mark.parametrize("text", [
    "gens: x y\nrels: (x^2 y x^-3 y^-1)\noracle: britton",
    "gens: x y\nrels: (y^-1 x^2 y x^-3) x^6\noracle: britton",
    "gens: x y z\nrels: (y^-1 x^2 y x^-3)\noracle: britton",
], ids=["permuted-relator", "two-relators", "three-generators"])
def test_britton_text_needs_the_one_bs_relator(runner, text):
    result = runner.invoke(main, ["group", "show", text])
    assert result.exit_code == 1
    assert result.output.strip() == (
        "Error: britton oracle needs two generators x y and the one relator "
        "y^-1 x^m y x^-n with m, n >= 1")


def test_group_parse_error_has_position(runner):
    result = runner.invoke(main, ["group", "parse", "gens: a\nrels: b"])
    assert result.exit_code == 1
    assert "parse error" in result.output
    assert "line 2" in result.output and "column" in result.output


def test_group_show_reports_order(runner):
    result = invoke(runner, ["group", "show", "sym3"])
    data = json.loads(result.output)
    assert data["order"] == 6
    assert data["generators"] == ["a", "b"]
    assert data["oracle"] == "coset-table"


def test_subgroup_commensurable_bs(runner):
    result = invoke(runner, [
        "subgroup", "commensurable", "--group", "bs(2,3)",
        "--h", "x", "--k", "y^-1 x y"])
    data = json.loads(result.output)
    assert data["result"] is True
    assert data["indices"] == [3, 2]
    assert data["certificate"] is None


def test_subgroup_commensurable_bs_exact_common_power(runner):
    # <x> meets <x>^(y^p) in <x^(2^p)>, of index 3^p in <x>^(y^p); the x-power
    # lattice finds it with no scan and no word of 2^p letters, so the exact
    # indices stand with no search bound to name
    for p in (5, 14, 40):
        data = json.loads(invoke(runner, [
            "subgroup", "commensurable", "--group", "bs(2,3)",
            "--h", "x", "--k", f"y^{p} x y^-{p}"]).output)
        assert (data["result"], data["certificate"]) == (True, None) and "bound" not in data
        assert data["indices"] == [2 ** p, 3 ** p]


def test_subgroup_commensurable_zn_generators_not_in_hermite_form(runner):
    # u^2 v, u^4 v^3 are the rows (2, 1), (4, 3), not a Hermite form; the
    # indices [H : H n K] and [K : H n K] are counted by brute force in
    # (Z/12)^2, as both lattices contain 12 Z^2
    data = json.loads(invoke(runner, [
        "subgroup", "commensurable", "--group", "zn(2)",
        "--h", "u^2 v, u^4 v^3", "--k", "u^3, v^2"]).output)

    def image(r, s):  # the lattice spanned by r and s, modulo 12 Z^2
        return {((a * r[0] + b * s[0]) % 12, (a * r[1] + b * s[1]) % 12)
                for a in range(12) for b in range(12)}

    h, k = image((2, 1), (4, 3)), image((3, 0), (0, 2))
    assert (data["result"], data["certificate"]) == (True, None)
    assert data["indices"] == [len(h) // len(h & k), len(k) // len(h & k)]


def test_subgroup_near_normal(runner):
    result = invoke(runner, [
        "subgroup", "near-normal", "--group", "bs(2,3)", "--h", "x"])
    data = json.loads(result.output)
    assert data["near_normal"] is True
    assert data["conjugators"] == ["x", "y"]
    result2 = invoke(runner, [
        "subgroup", "near-normal", "--group", "free(2)", "--h", "a"])
    assert json.loads(result2.output)["near_normal"] is False


def test_family_check(runner):
    result = invoke(runner, [
        "family", "check", "--group", "sym3", "--nodes", "a b; a,b"])
    data = json.loads(result.output)
    assert data["admissible"]["conjugation_closed"] is True
    assert data["admissible"]["downward_directed"] is True
    assert data["stable"]["stable"] is True
    orders = sorted(n["order"] for n in data["nodes"])
    assert orders == [3, 6]


def test_family_h0_and_h1(runner):
    result = invoke(runner, [
        "family", "h0", "--group", "sym3", "--nodes", "a b; a,b",
        "--module", "regular"])
    data = json.loads(result.output)
    assert data["h0_dimension"] == 2
    assert data["ambient_fixed_dimension"] is None  # full module is not h0-trivial
    triv = invoke(runner, [
        "family", "h0", "--group", "sym3", "--nodes", "a b; a,b"])
    tdata = json.loads(triv.output)
    assert tdata["h0_dimension"] == 1
    assert tdata["ambient_fixed_dimension"] == 1
    h1 = invoke(runner, ["family", "h1", "--group", "cyclic(2)"])
    assert json.loads(h1.output)["dim_h1"] == 1


@pytest.mark.parametrize("text", [
    "1 0\n0 1\n\n0 1\n1 0\n",
    "1 0\n0 1\n   \n0 1\n1 0\n",  # the separator line holds spaces
    "1 0\r\n0 1\r\n\r\n0 1\r\n1 0\r\n",
    "# swap the basis under b\n\n1 0\n0 1\n\n0 1\n1 0\n",  # a comment block first
], ids=["clean", "spaces", "crlf", "comment"])
def test_family_h1_reads_module_files(runner, tmp_path, text):
    matrices = tmp_path / "module.txt"
    matrices.write_bytes(text.encode())
    h1 = invoke(runner, ["family", "h1", "--group", "klein4", "--module", str(matrices)])
    assert json.loads(h1.output)["dim_h1"] == 1


def test_completion_build_and_laws(runner):
    result = invoke(runner, [
        "completion", "build", "--group", "sym3", "--family", "normal-order3"])
    data = json.loads(result.output)
    assert data["element_count"] == 2
    assert data["group_order"] == 6
    assert data["is_group"] is True
    laws = invoke(runner, [
        "completion", "laws", "--group", "cyclic(4)", "--family", "index2"])
    ldata = json.loads(laws.output)
    assert set(ldata["laws"].values()) == {"pass"}


def test_completion_scan_non_directed(runner):
    result = invoke(runner, [
        "completion", "scan", "--group", "sym3", "--nodes", "a; a,b"])
    data = json.loads(result.output)
    assert data["element_count"] == 27
    assert data["invertible"] + data["non_invertible"] == 27
    assert data["non_invertible_witnesses"]


def test_completion_unknown_family(runner):
    result = runner.invoke(main, [
        "completion", "build", "--group", "sym3", "--family", "nope"])
    assert result.exit_code == 2
    assert "built-ins" in result.output


def test_ends_estimate_line(runner):
    result = invoke(runner, [
        "ends", "estimate", "--group", "zn(1)", "--l", "-",
        "--radii", "2,4,6,8"])
    data = json.loads(result.output)
    assert data["estimate"] == 2
    assert data["stabilized"] is True


def test_ends_graph_dot(runner):
    result = invoke(runner, [
        "ends", "graph", "--group", "sym3", "--l", "a", "--radius", "2",
        "--format", "dot"])
    assert result.output.startswith("graph ball {")
    assert " -- " in result.output
    plain = invoke(runner, [
        "ends", "graph", "--group", "sym3", "--l", "a", "--radius", "2"])
    data = json.loads(plain.output)
    assert data["vertex_count"] == 3
    assert all(len(e) == 3 for e in data["edges"])


# sha256 of ends graph reports: the ball builds its words only when a report
# reads them, and in what order it builds them must not change a byte
@pytest.mark.parametrize("args, digest", [
    (["--group", "bs(2,3)", "--l", "x^2", "--radius", "4", "--format", "dot"],
     "cee46c04b21c27fd6b0d12ec0b0b50ea55ec6d709875c1d758065fbdc2334f96"),
    (["--group", "bs(2,3)", "--l", "x^2", "--radius", "4", "--format", "text"],
     "cf00fdf4382163f2169b3266914202aac7409df2823543b4f9c73eaef9a7f5f2"),
    (["--group", "free(2)", "--l", "a", "--gens", "a, a b", "--format", "dot"],
     "3689064fc874ae346cc817856982ab6714f498c6380577de6b1fd29e363e888e"),
    (["--group", "free(2)", "--l", "a", "--gens", "a, a b", "--format", "text"],
     "da9967702e469abde4e47fcaab12b14397ad89c5b9904683d0c8b55e6e533ceb"),
], ids=["bs23-dot", "bs23-text", "free2-gens-dot", "free2-gens-text"])
def test_ends_graph_reports_keep_their_bytes(runner, args, digest):
    output = invoke(runner, ["ends", "graph", *args]).output
    assert hashlib.sha256(output.encode()).hexdigest() == digest


def test_thompson_verify_lemma(runner):
    result = invoke(runner, [
        "thompson", "verify", "--identity-bound", "5", "--pair-bound", "6",
        "--shift-bound", "8"])
    data = json.loads(result.output)
    assert data["pass"] is True
    assert data["conjugation_identities"]["failures"] == []
    assert data["pair_commutation"]["failures"] == []
    assert all(v["pass"] for v in data["shift"].values())
    assert all(v["pass"] for v in data["conjugate_intersection"].values())


def test_thompson_verify_reports_a_failing_identity(runner, monkeypatch):
    real = thompson.verify_conjugation_identity
    monkeypatch.setattr(thompson, "verify_conjugation_identity",
                        lambda m, n: (m, n) != (0, 3) and real(m, n))
    data = json.loads(invoke(runner, ["thompson", "verify"]).output)
    assert data["conjugation_identities"]["failures"] == [[0, 3]]
    assert data["conjugation_identities"]["pass"] is False
    assert data["pass"] is False
    assert data["pair_commutation"]["pass"] is True


def test_thompson_verify_reports_an_exhausted_intersection(runner, monkeypatch):
    def exhausted(gs, m_bound):
        raise thompson.BoundExhausted(f"no m <= {m_bound} certified within index bound 40")

    monkeypatch.setattr(thompson, "am_in_conjugate_intersection", exhausted)
    data = json.loads(invoke(runner, ["thompson", "verify", "--m-bound", "5"]).output)
    assert data["conjugate_intersection"]["x0^2"] == {
        "m": None, "pass": False, "reason": "no m <= 5 certified within index bound 40"}
    assert data["pass"] is False


def test_thompson_verify_scan(runner):
    result = invoke(runner, [
        "thompson", "scan", "--max-len", "3", "--max-index", "1"])
    data = json.loads(result.output)
    assert data["words"] == 53
    assert data["pass"] is True


@pytest.mark.parametrize("option, value", [("--max-len", "-1"), ("--max-index", "-3")])
def test_thompson_verify_scan_rejects_negative_bounds(runner, option, value):
    result = runner.invoke(main, [
        "thompson", "scan", option, value])
    assert result.exit_code == 2
    assert option in result.output


def test_thompson_verify_scan_kernel_limit_is_a_usage_error(runner, monkeypatch):
    def limited(max_len, max_index):
        raise ValueError("max_len too large for compiled kernel (<= 12)")

    monkeypatch.setattr(scan, "thompson_agreement_scan", limited)
    result = runner.invoke(main, [
        "thompson", "scan", "--max-len", "13"])
    assert result.exit_code == 2
    assert "Error: max_len too large for compiled kernel (<= 12)" in result.output


@pytest.mark.parametrize("args, message", [
    (["--max-len", "13"], "max_len too large for compiled kernel (<= 12)"),
    (["--max-len", "2", "--max-index", "41"],
     "index range too large for compiled kernel: max_index + 2 * max_len + 4 must be "
     "<= 48 bits, so max_index <= 40 at max_len 2"),
])
def test_thompson_scan_refuses_the_sizes_on_either_kernel(runner, monkeypatch, args, message):
    # the facade checks the compiled kernel's limits before it dispatches, so
    # the pure-Python kernel never starts a scan it would run for minutes
    def no_scan(max_len, max_index):
        raise AssertionError("a kernel was called")

    monkeypatch.setattr(scan, "_kernel", no_scan)
    result = runner.invoke(main, ["thompson", "scan", *args])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: {message}"]


@pytest.mark.parametrize("max_index", ["2147483648", str(2 ** 64)])
def test_thompson_verify_scan_beyond_c_int_is_a_usage_error(runner, monkeypatch, scan_c,
                                                            max_index):
    # the compiled kernel raises ValueError, not OverflowError, for a size no
    # C int holds, so the CLI ends in one Error: line instead of a traceback
    monkeypatch.setattr(scan, "thompson_agreement_scan", scan_c.thompson_agreement_scan)
    result = runner.invoke(main, [
        "thompson", "scan", "--max-len", "1", "--max-index", max_index])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == ["Error: index range too large for compiled kernel: max_index + 2 * "
                      "max_len + 4 must be <= 48 bits, so max_index <= 42 at max_len 1"]


def test_bs_preset_rejects_zero_exponent(runner):
    result = runner.invoke(main, [
        "ends", "estimate", "--group", "bs(0,3)", "--l", "-", "--radii", "2"])
    assert result.exit_code == 1
    assert result.output.strip() == "Error: bs(m,n) needs m, n >= 1"


def test_bs_verify_and_reduce(runner):
    result = invoke(runner, [
        "bs", "verify", "--bound", "6", "--conjugators", "y,y^-1"])
    data = json.loads(result.output)
    assert data["all_pass"] is True
    assert data["closure_failures"] == []
    assert data["directed_failures"] == []
    reduce_result = invoke(runner, ["bs", "reduce", "--word", "y^-1 x^2 y"])
    rdata = json.loads(reduce_result.output)
    assert rdata["head"] == 3
    assert rdata["tail"] == []
    assert rdata["is_power_of_x"] is True


def test_bs_verify_reads_m_and_n_from_the_group(runner):
    data = json.loads(invoke(runner, ["bs", "verify", "--group", "bs(3,5)", "--bound", "4"]).output)
    y = generator(1)
    report = bs.family_axiom_check([y, invert(y)], 4, 1, 3, 5)
    assert (data["m"], data["n"], data["a_bound"]) == (3, 5, 4)
    assert (data["nodes"], data["closure_checked"], data["directed_checked"]) \
        == (report["nodes"], len(report["closure"]), len(report["directed"]))
    assert data["all_pass"] is report["all_pass"] is True
    # in BS(3,5), not the default BS(2,3), y^-1 x^3 y reduces to x^5
    reduced = json.loads(invoke(runner, ["bs", "reduce", "--group", "bs(3,5)",
                                         "--word", "y^-1 x^3 y"]).output)
    assert (reduced["m"], reduced["n"], reduced["head"], reduced["tail"]) == (3, 5, 5, [])


def test_bs_reduce_takes_a_group_as_text(runner):
    text = invoke(runner, ["group", "parse", "bs(1,2)"]).output
    args = ["bs", "reduce", "--word", "y^-1 x y x^2"]
    assert invoke(runner, args + ["--group", text]).output \
        == invoke(runner, args + ["--group", "bs(1,2)"]).output


@pytest.mark.parametrize("command", [["bs", "verify"], ["bs", "reduce", "--word", "x"]],
                         ids=["verify", "reduce"])
@pytest.mark.parametrize("group, message", [
    ("sym3", "Error: BS(m,n) needs the britton oracle, not coset-table"),
    ("bs(0,3)", "Error: bs(m,n) needs m, n >= 1"),
])
def test_bs_commands_need_a_britton_group(runner, command, group, message):
    result = runner.invoke(main, command + ["--group", group])
    assert result.exit_code == 1
    assert result.output.strip() == message


@pytest.mark.parametrize("args, option", [
    (["thompson", "verify", "--max-len", "3"], "--max-len"),
    (["thompson", "scan", "--identity-bound", "3"], "--identity-bound"),
    (["ends", "graph", "--group", "sym3", "--l", "a", "--dot"], "--dot"),
    (["bs", "verify", "--m", "3"], "--m"),
    # every index of a handle built from words is exact: no search to bound
    (["subgroup", "commensurable", "--group", "free(2)", "--h", "a", "--k", "a^2",
      "--bound", "-1"], "--bound"),
    (["subgroup", "near-normal", "--group", "free(2)", "--h", "a", "--bound", "50"], "--bound"),
])
def test_each_command_lists_only_its_own_options(runner, args, option):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"No such option '{option}'" in result.output


@pytest.mark.parametrize("args, option", [
    (["bs", "verify", "--bound", "0"], "--bound"),
    (["bs", "verify", "--bound", "-1"], "--bound"),
    (["bs", "verify", "--conj-len", "-1"], "--conj-len"),
    (["ends", "graph", "--group", "free(2)", "--l", "a", "--radius", "-1"], "--radius"),
    (["bs", "verify", "--group", "bs(3,5)", "--bound", "0"], "--bound"),
    (["bs", "verify", "--group", "bs(1,2)", "--conj-len", "-1"], "--conj-len"),
    (["ends", "graph", "--group", "sym3", "--l", "a", "--radius", "-1", "--format", "dot"],
     "--radius"),
    (["bs", "verify", "--format", "dot"], "--format"),  # dot is for ends graph only
    (["thompson", "verify", "--shift-bound", "1"], "--shift-bound"),
    (["thompson", "verify", "--identity-bound", "-3"], "--identity-bound"),
    (["thompson", "verify", "--pair-bound", "-1"], "--pair-bound"),
    (["thompson", "verify", "--m-bound", "-1"], "--m-bound"),
])
def test_negative_or_vacuous_bounds_are_usage_errors(runner, args, option):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.output
    assert "Traceback" not in result.output


def _table(node, path=()):
    """(path, node) for the CLI's top-level group and every group and command below it."""
    yield path, node
    for name, sub in node.commands.items():
        yield from _table(sub, (*path, name))


TABLE = list(_table(main))


def _accepted(param) -> str:
    """A value the parser takes for param; the command may still refuse it."""
    if param.choices:
        return param.choices[0]
    return "x" if param.type is str else str(param.default)


@pytest.mark.parametrize("path, node", TABLE, ids=[" ".join(path) or "main" for path, _ in TABLE])
def test_every_table_entry_keeps_the_cli_contract(runner, path, node):
    path = list(path)
    shown = invoke(runner, path + ["--help"]).output.split("\n\n")
    assert shown[0].startswith(f"Usage: nearnormal {' '.join(path)}".rstrip())
    sections = {part.split(":\n")[0]: part.splitlines()[1:] for part in shown if ":\n  " in part}
    if node.callback is None:
        assert [line.split()[0] for line in sections["Commands"]] == sorted(node.commands)
    options = [p for p in node.params if not p.positional]
    assert [line.split()[0] for line in sections["Options"] if line.startswith("  -")] \
        == [p.name for p in options] + ["--help"]
    assert all(f" {p.name.upper()}" in shown[0] for p in node.params if p.positional)

    unknown = runner.invoke(main, path + ["--no-such-option"])
    assert unknown.exit_code == 2
    assert "No such option '--no-such-option'." in unknown.output

    arguments = [_accepted(p) for p in node.params if p.positional]
    required = [p for p in options if p.required]
    for left_out in required:
        given = [text for p in required if p is not left_out for text in (p.name, _accepted(p))]
        result = runner.invoke(main, path + arguments + given)
        assert result.exit_code == 2, left_out.name
        assert f"Missing option '{left_out.name}'." in result.output
    given = [text for p in required for text in (p.name, _accepted(p))]
    for bounded in (p for p in options if p.minimum is not None):
        result = runner.invoke(main, path + [bounded.name, str(bounded.minimum - 1)]
                               + arguments + given)
        assert result.exit_code == 2, bounded.name
        assert f"Invalid value for '{bounded.name}': {bounded.minimum - 1} is not in the range" \
            in result.output


@pytest.mark.parametrize("radii", ["-1,2", "1,-2", "-3"])
def test_ends_estimate_rejects_negative_radii(runner, radii):
    result = runner.invoke(main, [
        "ends", "estimate", "--group", "free(2)", "--l", "a", "--radii", radii])
    assert result.exit_code == 2
    assert "radii must be non-negative" in result.output


def test_smallest_thompson_bounds_are_accepted(runner):
    data = json.loads(invoke(runner, [
        "thompson", "verify", "--identity-bound", "0", "--pair-bound", "0",
        "--shift-bound", "2", "--m-bound", "0"]).output)
    assert data["conjugation_identities"]["checked"] == 0
    assert data["pair_commutation"]["pass"] is True


def test_word_options_take_parentheses(runner):
    data = json.loads(invoke(runner, [
        "subgroup", "commensurable", "--group", "bs(2,3)",
        "--h", "x^2", "--k", "(y^-1 x y)^2"]).output)
    assert (data["result"], data["indices"]) == (True, [3, 2])  # <x^2> and <x^3>
    data = json.loads(invoke(runner, ["bs", "reduce", "--word", "y^-1(x^2)y"]).output)
    assert data["head"] == 3


@pytest.mark.parametrize("args, message", [
    (["subgroup", "near-normal", "--group", "thompson-f", "--h", "x0"],
     "Error: no membership oracle for this generating set under the "
     "'thompson-normal-form' context"),
    (["ends", "estimate", "--group", "gens: a b\nrels: a^2\noracle: coset-table",
      "--l", "a"], "Error: coset enumeration incomplete at 20000 live cosets"),
    (["bs", "reduce", "--word", "(x y"], "Error: unclosed '('"),
    (["subgroup", "commensurable", "--group", "zn(2)", "--h", "x5", "--k", "u"],
     "Error: word 'x5' uses generator index 5, but the group has rank 2"),
    (["group", "show", "gens: a\nrels: a^0"],
     "Error: parse error: line 2, column 9: zero exponent"),
    (["family", "check", "--group", "bs(2,3)", "--nodes", "x"],
     "Error: truncations are built over finite coset-table groups"),
    (["family", "h0", "--group", "sym3", "--nodes", "a; b"],
     "Error: truncation has no global lower-bound node"),
    (["completion", "build", "--group", "sym3", "--family", "normal-order3", "--ceiling", "1"],
     "Error: completion enumeration exceeds ceiling 1"),
    (["ends", "estimate", "--group", "sym3", "--l", "a", "--radii", "3,2"],
     "Error: radii must be strictly increasing and nonempty"),
    (["family", "h1", "--group", "sym3", "--module", "MATRIX_FILE"],
     "Error: matrix blocks must be square"),
    # a finite-index subgroup of an infinite group: the ball has no element keys
    (["ends", "estimate", "--group", "gens: a b\nrels: b\noracle: coset-table",
      "--l", "a^2"], "Error: regular enumeration incomplete at 20000 cosets"),
    # an exponent above sys.maxsize has no index-sized word; one between
    # 10^8 and sys.maxsize would build that many letters, so none is tried
    (["bs", "reduce", "--word", "x^99999999999999999999"], "Error: exponent too large"),
    (["bs", "reduce", "--word", "(x y)^99999999999999999999"], "Error: exponent too large"),
    (["subgroup", "commensurable", "--group", "zn(2)", "--h", "u^99999999999999999999",
      "--k", "u"], "Error: exponent too large"),
    (["group", "show", "gens: a\nrels: a^99999999999999999999"],
     "Error: parse error: line 2, column 9: exponent too large"),
])
def test_subgroup_and_word_errors_are_one_line(runner, tmp_path, args, message):
    if "MATRIX_FILE" in args:
        matrices = tmp_path / "module.txt"
        matrices.write_text("1 2\n3\n")
        args = [str(matrices) if a == "MATRIX_FILE" else a for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output.strip() == message


def test_zero_conj_len_and_radius_are_accepted(runner):
    data = json.loads(invoke(runner, ["bs", "verify", "--bound", "1", "--conj-len", "0"]).output)
    assert data["nodes"] == 1 and data["all_pass"] is True
    data = json.loads(invoke(runner, [
        "ends", "graph", "--group", "free(2)", "--l", "a", "--radius", "0"]).output)
    assert data["vertex_count"] == 1


def test_suite_json_is_schema_valid(runner, report_schema):
    result = invoke(runner, ["suite", "words"])
    report = json.loads(result.output)
    jsonschema.validate(report, report_schema)
    assert report["timing"] is None
    timed = invoke(runner, ["suite", "words", "--timing"])
    treport = json.loads(timed.output)
    jsonschema.validate(treport, report_schema)
    assert treport["timing"]["seconds"] >= 0


def test_suite_timing_text_names_the_processes_and_each_suite(runner):
    lines = invoke(runner, ["suite", "all", "--timing", "--format", "text"]).output.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("elapsed: "))
    assert lines[at].endswith(" processes")
    per_suite = [line.split(": ") for line in lines[at + 1:]]
    assert sorted(name.strip() for name, _ in per_suite) == sorted(suites.SUITES)
    spent = [figures.split("s, ") for _, figures in per_suite]
    seconds = [float(s) for s, _ in spent]
    assert seconds == sorted(seconds, reverse=True)
    assert all(c.endswith(" collections") and int(c.split()[0]) >= 0 for _, c in spent)


def test_suite_byte_determinism(runner):
    first = invoke(runner, ["suite", "words", "--seed", "7"])
    second = invoke(runner, ["suite", "words", "--seed", "7"])
    assert first.output == second.output


def test_suite_unknown_name_exits_2(runner):
    result = runner.invoke(main, ["suite", "nope"])
    assert result.exit_code == 2
    assert "unknown suite" in result.output


@pytest.fixture
def caller_thresholds():
    """A distinctive caller setting of the collector; the interpreter's own
    thresholds come back afterwards."""
    own = gc.get_threshold()
    gc.set_threshold(123, 4, 5)
    yield (123, 4, 5)
    gc.set_threshold(*own)
    assert gc.get_threshold() == own


def test_commands_raise_the_first_gc_threshold_and_give_the_callers_back(
        runner, monkeypatch, caller_thresholds):
    seen = []
    monkeypatch.setitem(suites.SUITES, "toy", lambda seed: seen.append(gc.get_threshold()) or [])
    invoke(runner, ["suite", "toy"])
    assert seen == [(GC_THRESHOLD, 4, 5)] and GC_THRESHOLD > 700
    assert gc.get_threshold() == caller_thresholds
    for args, code in ((["group", "show", "gens: a\nrels: a^"], 1),
                       (["suite", "nope"], 2),
                       (["suite", "toy", "--seed", "x"], 2)):
        assert runner.invoke(main, args).exit_code == code, args
        assert gc.get_threshold() == caller_thresholds, args
    assert len(seen) == 1


def test_suite_failure_exits_1(runner, monkeypatch):
    def failing(seed):
        return [{"id": "toy/broken", "law": "l", "inputs": {},
                 "outcome": "fail", "witness": "w"}]

    monkeypatch.setitem(suites.SUITES, "toy", failing)
    result = runner.invoke(main, ["suite", "toy", "--format", "text"])
    assert result.exit_code == 1
    assert "FAIL toy/broken" in result.output
    assert "0/1 checks passed" in result.output


def test_text_format_renders_scalars(runner):
    result = invoke(runner, [
        "group", "show", "sym3", "--format", "text"])
    assert "order: 6" in result.output
    assert "oracle: coset-table" in result.output


@pytest.mark.parametrize("command", [
    ["family", "h0", "--group", "sym3", "--nodes", "-; a,b"],
    ["family", "h1", "--group", "sym3", "--module", "regular"],
])
@pytest.mark.parametrize("option, value", [
    ("--p", "4"), ("--p", "0"), ("--p", "1"), ("--p", "-5"), ("--dim", "0"), ("--dim", "-1")])
def test_family_functors_reject_a_bad_field_or_dimension(runner, command, option, value):
    result = runner.invoke(main, command + [option, value])
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.output
    assert "Traceback" not in result.output


def test_family_functors_accept_an_odd_prime(runner):
    h0 = json.loads(invoke(runner, ["family", "h0", "--group", "sym3", "--nodes", "-; a,b",
                                    "--p", "3", "--dim", "2"]).output)
    assert (h0["p"], h0["h0_dimension"], h0["ambient_fixed_dimension"]) == (3, 2, 2)
    h1 = json.loads(invoke(runner, ["family", "h1", "--group", "sym3", "--p", "3"]).output)
    assert h1["dim_h1"] == 0


def test_family_h1_checks_a_19_digit_prime(runner):
    h1 = json.loads(invoke(runner, ["family", "h1", "--group", "sym3",
                                    "--p", str(2 ** 61 - 1)]).output)
    assert (h1["p"], h1["dim_h1"]) == (2 ** 61 - 1, 0)
    result = runner.invoke(main, ["family", "h1", "--group", "sym3", "--p", str(10 ** 24)])
    assert result.exit_code == 1
    assert result.output == "Error: primality is decided only below 318665857834031151167461\n"


def test_family_h0_without_a_bottom_node(runner):
    result = runner.invoke(main, ["family", "h0", "--group", "sym3", "--nodes", "a"])
    assert result.exit_code == 1
    assert result.output.strip() == "Error: truncation has no global lower-bound node"


@pytest.mark.parametrize("command", ["build", "laws", "scan"])
@pytest.mark.parametrize("value", ["-5", "0"])
def test_completion_rejects_a_ceiling_below_one(runner, command, value):
    result = runner.invoke(main, ["completion", command, "--group", "sym3",
                                  "--family", "normal-order3", "--ceiling", value])
    assert result.exit_code == 2
    assert "Invalid value for '--ceiling'" in result.output
    assert "Traceback" not in result.output


def test_completion_ceiling_of_one_is_a_runtime_error(runner):
    result = runner.invoke(main, ["completion", "build", "--group", "sym3",
                                  "--family", "normal-order3", "--ceiling", "1"])
    assert result.exit_code == 1
    assert result.output.strip() == "Error: completion enumeration exceeds ceiling 1"


# --- fuzzed input ------------------------------------------------------------

_exponent = st.one_of(st.just(""), st.integers(-6, 6).map("^{}".format))
_name = st.sampled_from(["a", "b", "u", "v", "x", "y", "x0", "x1", "x9", "q", "ab"])
_factor = st.builds(str.__add__, _name, _exponent)
_group = st.builds(lambda fs, e: f"({' '.join(fs)}){e}", st.lists(_factor, max_size=3), _exponent)
_junk = st.sampled_from(["(", ")", "^", "^-", "^+2", ",", ";", "1", "-", "%", "x^1_0", ""])
_word_text = st.lists(st.one_of(_factor, _group, _junk), max_size=5).flatmap(
    lambda parts: st.sampled_from([" ", ""]).map(lambda sep: sep.join(parts)))
_presentation = st.builds(
    lambda gens, lines: "\n".join([gens, *lines]) + "\n",
    st.sampled_from(["gens: a b", "gens: x y", "gens: a", "gens: a a", "gens:", "# no gens"]),
    st.lists(st.one_of(_word_text.map("rels: {}".format),
                       st.sampled_from(["oracle: coset-table", "oracle: free", "oracle: magic",
                                        "oracle: britton", "rels: (y^-1 x^2 y x^-3)",
                                        "what: ever", "nonsense", ""])), max_size=3))


def _word_commands(text, other):
    return [
        ["subgroup", "commensurable", "--group", "free(2)", "--h", text, "--k", other],
        ["subgroup", "commensurable", "--group", "zn(2)", "--h", text, "--k", other],
        ["subgroup", "near-normal", "--group", "bs(2,3)", "--h", text],
        ["subgroup", "near-normal", "--group", "sym3", "--h", text],
        ["ends", "estimate", "--group", "free(2)", "--l", text, "--radii", "1,2"],
        ["ends", "estimate", "--group", "thompson-f", "--l", text, "--gens", other,
         "--radii", "1"],
        ["ends", "graph", "--group", "free(2)", "--l", text, "--radius", "2"],
        ["bs", "reduce", "--word", text],
        ["family", "check", "--group", "sym3", "--nodes", text],
        ["family", "h0", "--group", "sym3", "--nodes", text],
        ["completion", "laws", "--group", "sym3", "--nodes", text],
    ]


def _assert_clean_exit(result, args):
    assert result.exit_code in (0, 1, 2), args
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        (args, repr(result.exception))
    assert "Traceback" not in result.output, args
    assert result.output.count("Error:") <= 1, args


@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=_word_text, other=_word_text, presentation=_presentation)
def test_fuzzed_cli_input_exits_cleanly(text, other, presentation):
    runner = Runner()
    for args in _word_commands(text, other) + [["group", "parse", presentation],
                                               ["group", "show", presentation]]:
        _assert_clean_exit(runner.invoke(main, args), args)


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True, default=str)


class _Named:
    def __str__(self):
        return "named ü"


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": [[], {}, ()]}, [[[]], [{}]],
    [None, True, False, 0, -7, 2 ** 70, 1.5, -0.0, 1e300, math.nan, math.inf, -math.inf],
    {"é": "ünïcode \u2603 \ud800", "tab\t": "quote\" \\ \x00"},
    {1: "int", 2.5: "float", True: "bool", -3: (4, 5)}, {None: 1}, {False: [1, "a"]},
    {math.inf: 1, -math.inf: 2, 0.1: 3}, (1, "a", (2, "b")), ["a", "b"], [1, 2, 3],
    [_Named(), Word(()), generator(0, 2), {1, 2}], _Named(), "top", 3, None, [True, 1],
])
def test_json_writer_matches_json_dumps(value):
    assert _json(value) == _dumps(value)


_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text() | st.builds(_Named))
_json_keys = st.one_of(st.text(), st.integers(), st.floats(allow_nan=False))
_json_values = st.recursive(_json_scalars, lambda inner: (
    st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_json_keys, inner, max_size=5)), max_leaves=30)


@settings(max_examples=300, derandomize=True, database=None)
@given(value=_json_values)
def test_json_writer_matches_json_dumps_on_drawn_values(value):
    try:
        want = _dumps(value)
    except TypeError:  # keys that do not sort, such as str beside int
        with pytest.raises(TypeError):
            _json(value)
    else:
        assert _json(value) == want


def test_json_writer_refuses_the_keys_json_refuses():
    for key in [(1, 2), frozenset(), Word(())]:
        with pytest.raises(TypeError) as err:
            _dumps({key: 1})
        with pytest.raises(TypeError, match=str(err.value)):
            _json({key: 1})


README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
README_COMMANDS = README.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0].splitlines()


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_commands_run(runner, line):
    nearnormal, *args = shlex.split(line)
    assert nearnormal == "nearnormal"
    result = runner.invoke(main, args)
    assert result.exit_code == 0 and "Error:" not in result.output, result.output
