"""Command-line front end: group loading, subgroup checks, suite reports.

Subcommands cover presentations and presets (group), commensurability
oracles (subgroup), directed subgroup families with the degree-0/1 functors
(family), the completion monoid along a truncated family (completion),
coset graphs and end counting (ends), the Thompson and Baumslag-Solitar
fixtures (thompson, bs), and the named check suites (suite).

Law and lemma commands print the reports of the shared checkers
(``completion.law_records``, ``thompson.lemma_report``) that the suites
and the acceptance tests also read.

Output is JSON on stdout; --format text renders the same data as indented
key/value lines (``ends graph --format dot`` prints DOT).  Word syntax
everywhere: juxtaposed generators and parenthesized words with optional
^exponents (``y^-1 x y``, ``(a b)^3 a``); commas separate the words of a
list; semicolons separate family nodes.

Exit codes: 0 on success, 1 with one ``Error:`` line (or a failing
``suite`` check), 2 for usage errors.  Commands let the library's
ValueError and OSError propagate; the ``main`` group is the one boundary
that turns them into the ``Error:`` line (``parse error: ...`` for a
malformed presentation).
"""

from __future__ import annotations

import json
import pathlib
import sys

import click

from . import baumslag_solitar as bs
from . import completion, ends, families, groups, modp, scan, subgroups, suites, thompson
from .words import format_word, generator


def _format_choice(*formats):
    return click.option("--format", "fmt", type=click.Choice(formats), default="json",
                        show_default=True, help="Report format.")


_format_option = _format_choice("json", "text")


def _emit(data, fmt):
    if fmt == "json":
        click.echo(json.dumps(data, indent=2, sort_keys=True, default=str))
    else:
        for line in _text_lines(data, 0):
            click.echo(line)


def _text_lines(data, depth):
    pad = "  " * depth
    if isinstance(data, dict):
        for key, value in data.items():
            if isinstance(value, (dict, list, tuple)) and value:
                yield f"{pad}{key}:"
                yield from _text_lines(value, depth + 1)
            else:
                yield f"{pad}{key}: {_scalar(value)}"
    elif isinstance(data, (list, tuple)):
        for item in data:
            if isinstance(item, (dict, list, tuple)) and item:
                yield f"{pad}-"
                yield from _text_lines(item, depth + 1)
            else:
                yield f"{pad}- {_scalar(item)}"
    else:
        yield pad + _scalar(data)


def _scalar(value):
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, dict):
        return "{}"
    if isinstance(value, (list, tuple)):
        return "[]"
    return str(value)


# ---------------------------------------------------------------------------
# input helpers


def _word_list(ctx_obj, text: str) -> list:
    return [groups.parse_context_word(ctx_obj, part)
            for part in text.split(",") if part.strip()]


def _default_gens(ctx_obj, text, what: str) -> list:
    if text:
        return _word_list(ctx_obj, text)
    rank = ctx_obj.generator_count
    if rank is None:
        raise click.ClickException(f"pass {what} explicitly for this group")
    return [generator(i) for i in range(rank)]


def _subgroup(ctx_obj, text: str) -> subgroups.SubgroupHandle:
    return subgroups.subgroup_from_words(ctx_obj, _word_list(ctx_obj, text))


# ---------------------------------------------------------------------------


class _Main(click.Group):
    """The one error boundary: bad input that the library rejects ends as
    one ``Error:`` line with exit code 1, never as a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except groups.PresentationError as exc:
            raise click.ClickException(f"parse error: {exc}") from exc
        except (OSError, ValueError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
def main():
    """Commensurability, subgroup families, completions, and ends."""


# ---------------------------------------------------------------------------
# group


@main.group(name="group")
def group_cmd():
    """Load, canonicalize, and summarize group presentations."""


@group_cmd.command(name="parse")
@click.argument("spec")
def group_parse(spec):
    """Print the canonical text form of SPEC.

    SPEC is a preset name, a presentation file path, or inline text in the
    ``gens:``/``rels:``/``oracle:`` format.  Malformed input is rejected
    with a line/column diagnostic.
    """
    ctx_obj = groups.load(spec)
    click.echo(groups.serialize_presentation(ctx_obj), nl=False)


@group_cmd.command(name="show")
@click.argument("spec")
@_format_option
def group_show(spec, fmt):
    """Summarize generators, relators, oracle, and order when finite."""
    ctx_obj = groups.load(spec)
    names = ctx_obj.generator_names
    data = {
        "name": ctx_obj.name or None,
        "oracle": ctx_obj.oracle,
        "schema": "thompson" if names is None else None,
        "generators": list(names) if names is not None else None,
        "relators": [format_word(r, names) for r in ctx_obj.relators],
        "order": None,
    }
    if ctx_obj.oracle == "coset-table":
        table = groups.regular_table(ctx_obj)
        if isinstance(table, groups.Incomplete):
            data["order"] = f"unknown (enumeration incomplete at {table.limit} cosets)"
        else:
            data["order"] = table.coset_count
    _emit(data, fmt)


# ---------------------------------------------------------------------------
# subgroup


@main.group(name="subgroup")
def subgroup_cmd():
    """Commensurability and near-normality of subgroup pairs."""


@subgroup_cmd.command(name="commensurable")
@click.option("--group", "group_spec", required=True,
              help="Ambient group (preset, file, or inline text).")
@click.option("--h", "h_text", required=True,
              help="Generators of H, comma-separated words.")
@click.option("--k", "k_text", required=True,
              help="Generators of K, comma-separated words.")
@click.option("--bound", type=click.IntRange(min=1), default=50, show_default=True,
              help="Index search bound.")
@_format_option
def subgroup_commensurable(group_spec, h_text, k_text, bound, fmt):
    """Decide whether H and K share a finite-index common subgroup."""
    ctx_obj = groups.load(group_spec)
    h = _subgroup(ctx_obj, h_text)
    k = _subgroup(ctx_obj, k_text)
    report = subgroups.commensurability_report(h, k, bound)
    _emit({"group": group_spec, "h": h_text, "k": k_text, "bound": bound,
           "result": report["result"], "indices": report["indices"],
           "certificate": report["certificate"]}, fmt)


@subgroup_cmd.command(name="near-normal")
@click.option("--group", "group_spec", required=True)
@click.option("--h", "h_text", required=True,
              help="Generators of H, comma-separated words.")
@click.option("--gens", "gens_text", default=None,
              help="Conjugating elements; defaults to the group generators.")
@click.option("--bound", type=click.IntRange(min=1), default=50, show_default=True)
@_format_option
def subgroup_near_normal(group_spec, h_text, gens_text, bound, fmt):
    """Check that each conjugator keeps H commensurable with itself."""
    ctx_obj = groups.load(group_spec)
    h = _subgroup(ctx_obj, h_text)
    gens = _default_gens(ctx_obj, gens_text, "--gens")
    verdict = subgroups.near_normal_on(h, gens, bound)
    _emit({"group": group_spec, "h": h_text, "bound": bound,
           "conjugators": [format_word(g, ctx_obj.generator_names) for g in gens],
           "near_normal": verdict}, fmt)


# ---------------------------------------------------------------------------
# family


@main.group(name="family")
def family_cmd():
    """Directed subgroup families: axioms and low-degree functors."""


def _build_family(ctx_obj, nodes_text: str) -> families.FamilyTruncation:
    return families.truncation(ctx_obj, families.parse_nodes(ctx_obj, nodes_text))


def _node_summaries(fam: families.FamilyTruncation) -> list:
    names = fam.ctx.generator_names
    out = []
    for i, node in enumerate(fam.nodes):
        out.append({
            "node": i,
            "generators": [format_word(g, names) for g in node.generators] or ["1"],
            "order": len(fam.members[i]),
            "index": node.coset_table.coset_count,
        })
    return out


def _prime(ctx, param, value):
    if not modp.is_prime(value):
        raise click.BadParameter(f"{value} is not a prime")
    return value


_p_option = click.option("--p", default=2, show_default=True, callback=_prime,
                         help="Field size (prime).")
_dim_option = click.option("--dim", type=click.IntRange(min=1), default=1,
                           show_default=True, help="Dimension of the trivial module.")


def _dense(rows, n: int) -> list:
    """Sparse rows as dense lists of length n, for the report."""
    out = []
    for row in rows:
        v = [0] * n
        for j, a in row:
            v[j] = a
        out.append(v)
    return out


def _load_module(ctx_obj, spec: str, p: int, dim: int) -> families.FiniteModule:
    if ctx_obj.generator_count is None:
        raise click.ClickException("modules need a finitely presented context")
    if spec == "trivial":
        return families.trivial_module(ctx_obj, dim=dim, p=p)
    if spec == "regular":
        return families.regular_module(ctx_obj, p=p)
    path = pathlib.Path(spec)
    if path.is_file():
        mats = families.parse_module_matrices(path.read_text())
        return families.finite_module(ctx_obj, mats, p=p)
    raise click.ClickException(
        f"module {spec!r} is neither 'trivial', 'regular', nor a matrix file")


@family_cmd.command(name="check")
@click.option("--group", "group_spec", required=True)
@click.option("--nodes", "nodes_text", required=True,
              help="Semicolon-separated nodes, each a comma-separated "
                   "generator list; '-' is the trivial subgroup.")
@_format_option
def family_check(group_spec, nodes_text, fmt):
    """Certify a truncation: conjugation closure, directedness, stability."""
    ctx_obj = groups.load(group_spec)
    fam = _build_family(ctx_obj, nodes_text)
    adm = families.check_admissible(fam)
    stab = families.check_stable(fam)
    data = {
        "group": group_spec,
        "nodes": _node_summaries(fam),
        "admissible": adm,
        "stable": {
            "stable": stab["stable"],
            "witness": list(stab["witness"]) if stab["witness"] else None,
            "choices": ([{"pair": list(pair), "node": node}
                         for pair, node in sorted(stab["choices"].items())]
                        if stab["choices"] else None),
        },
    }
    _emit(data, fmt)


@family_cmd.command(name="h0")
@click.option("--group", "group_spec", required=True)
@click.option("--nodes", "nodes_text", required=True)
@click.option("--module", "module_spec", default="trivial", show_default=True,
              help="trivial, regular, or a matrix file (row-major integer "
                   "blocks, one per generator, blank-line separated).")
@_p_option
@_dim_option
@_format_option
def family_h0(group_spec, nodes_text, module_spec, p, dim, fmt):
    """Vectors fixed by the family, and by the ambient group when legal."""
    ctx_obj = groups.load(group_spec)
    fam = _build_family(ctx_obj, nodes_text)
    module = _load_module(ctx_obj, module_spec, p, dim)
    basis = families.h0_S(module, fam)
    data = {
        "group": group_spec, "module": module_spec, "p": module.p,
        "module_dimension": module.dimension,
        "h0_dimension": len(basis),
        "h0_basis": _dense(basis, module.dimension),
    }
    try:
        quotient = families.h0_G_mod_S(module, fam)
        data["ambient_fixed_dimension"] = len(quotient)
        data["ambient_fixed_basis"] = _dense(quotient, module.dimension)
    except ValueError:
        data["ambient_fixed_dimension"] = None
        data["ambient_fixed_basis"] = None
    _emit(data, fmt)


@family_cmd.command(name="h1")
@click.option("--group", "group_spec", required=True)
@click.option("--module", "module_spec", default="trivial", show_default=True)
@_p_option
@_dim_option
@_format_option
def family_h1(group_spec, module_spec, p, dim, fmt):
    """Derivations modulo inner derivations."""
    ctx_obj = groups.load(group_spec)
    module = _load_module(ctx_obj, module_spec, p, dim)
    report = families.h1_derivations(ctx_obj, module)
    _emit({"group": group_spec, "module": module_spec, "p": module.p,
           "module_dimension": module.dimension,
           "dim_derivations": report["dim_der"],
           "dim_inner": report["dim_ider"],
           "dim_h1": report["dim_h1"]}, fmt)


# ---------------------------------------------------------------------------
# completion


@main.group(name="completion")
def completion_cmd():
    """The completion monoid along a truncated subgroup family."""


def _family_for(ctx_obj, family_name, nodes_text) -> families.FamilyTruncation:
    if nodes_text:
        return _build_family(ctx_obj, nodes_text)
    if not family_name:
        raise click.UsageError("pass --family NAME or --nodes LIST")
    key = (ctx_obj.name, family_name)
    if key not in families.NAMED_FAMILIES:
        known = sorted(f"{g}:{f}" for g, f in families.NAMED_FAMILIES)
        raise click.UsageError(
            f"no built-in family {family_name!r} for group "
            f"{ctx_obj.name or 'custom'}; built-ins: {', '.join(known)}; "
            f"or pass --nodes")
    return _build_family(ctx_obj, families.NAMED_FAMILIES[key])


def _completion_options(fn):
    for opt in reversed((
            click.option("--group", "group_spec", required=True),
            click.option("--family", "family_name", default=None,
                         help="Built-in family name (normal-order3, "
                              "all-subgroups, index2)."),
            click.option("--nodes", "nodes_text", default=None,
                         help="Custom nodes, as in 'family check'."),
            click.option("--ceiling", type=click.IntRange(min=1),
                         default=completion.ENUM_CEILING, show_default=True,
                         help="Element enumeration ceiling."))):
        fn = opt(fn)
    return fn


@completion_cmd.command(name="build")
@_completion_options
@_format_option
def completion_build(group_spec, family_name, nodes_text, ceiling, fmt):
    """Enumerate the compatible coset tuples along the family."""
    ctx_obj = groups.load(group_spec)
    fam = _family_for(ctx_obj, family_name, nodes_text)
    tc = completion.truncated_completion(fam, ceiling)
    _emit({"group": group_spec, "family": family_name or "custom",
           "nodes": _node_summaries(fam),
           "element_count": len(tc.elements),
           "group_order": groups.regular_table(ctx_obj).coset_count,
           "is_group": completion.completion_is_group(tc)}, fmt)


@completion_cmd.command(name="laws")
@_completion_options
@_format_option
def completion_laws(group_spec, family_name, nodes_text, ceiling, fmt):
    """Exhaustively verify the monoid and inversion laws."""
    ctx_obj = groups.load(group_spec)
    fam = _family_for(ctx_obj, family_name, nodes_text)
    tc = completion.truncated_completion(fam, ceiling)
    laws, witnesses = {}, {}
    for name, verdict, witness in completion.law_records(tc):
        laws[name] = verdict
        if witness is not None:
            witnesses[name] = witness
    _emit({"group": group_spec, "family": family_name or "custom",
           "element_count": len(tc.elements),
           "laws": laws, "witnesses": witnesses}, fmt)


@completion_cmd.command(name="scan")
@_completion_options
@_format_option
def completion_scan(group_spec, family_name, nodes_text, ceiling, fmt):
    """Search every element for a two-sided inverse."""
    ctx_obj = groups.load(group_spec)
    fam = _family_for(ctx_obj, family_name, nodes_text)
    tc = completion.truncated_completion(fam, ceiling)
    report = completion.invertibility_scan(tc)
    _emit({"group": group_spec, "family": family_name or "custom",
           "element_count": report["total"],
           "invertible": report["invertible"],
           "non_invertible": report["total"] - report["invertible"],
           "non_invertible_witnesses":
               [list(a) for a in report["non_invertible_witnesses"]]}, fmt)


# ---------------------------------------------------------------------------
# ends


@main.group(name="ends")
def ends_cmd():
    """Coset graphs and end counting."""


@ends_cmd.command(name="estimate")
@click.option("--group", "group_spec", required=True)
@click.option("--l", "l_text", required=True,
              help="Generators of the subgroup L, comma-separated.")
@click.option("--gens", "gens_text", default=None,
              help="Edge generating set; defaults to the group generators.")
@click.option("--radii", default="2,4,6,8", show_default=True,
              help="Strictly increasing comma-separated radii.")
@_format_option
def ends_estimate(group_spec, l_text, gens_text, radii, fmt):
    """Count unbounded annulus components of the coset graph."""
    ctx_obj = groups.load(group_spec)
    sub = _subgroup(ctx_obj, l_text)
    gens = _default_gens(ctx_obj, gens_text, "--gens")
    try:
        schedule = tuple(int(r) for r in radii.split(","))
    except ValueError:
        raise click.UsageError(f"bad radii {radii!r}")
    if any(r < 0 for r in schedule):
        raise click.UsageError(f"radii must be non-negative, got {radii!r}")
    report = ends.ends_estimate(ctx_obj, sub, gens, schedule)
    _emit({"group": group_spec, "l": l_text,
           "gens": [format_word(g, ctx_obj.generator_names) for g in gens],
           "radii": list(report["radii"]), "counts": list(report["counts"]),
           "estimate": report["estimate"],
           "stabilized": report["stabilized"]}, fmt)


@ends_cmd.command(name="graph")
@click.option("--group", "group_spec", required=True)
@click.option("--l", "l_text", required=True,
              help="Generators of the subgroup L, comma-separated.")
@click.option("--gens", "gens_text", default=None)
@click.option("--radius", type=click.IntRange(min=0), default=3, show_default=True)
@_format_choice("json", "text", "dot")
def ends_graph(group_spec, l_text, gens_text, radius, fmt):
    """Materialize a ball of the coset graph."""
    ctx_obj = groups.load(group_spec)
    sub = _subgroup(ctx_obj, l_text)
    gens = _default_gens(ctx_obj, gens_text, "--gens")
    ball = ends.coset_graph_ball(ctx_obj, sub, gens, radius)
    names = ctx_obj.generator_names
    if fmt == "dot":
        click.echo(ends.to_dot(ball, names))
        return
    _emit({"group": group_spec, "l": l_text, "radius": radius,
           "vertex_count": ball.vertex_count,
           "vertices": [{"index": i,
                         "representative": format_word(rep, names),
                         "depth": ball.depth[i]}
                        for i, rep in enumerate(ball.vertices)],
           "edges": [[u, v, format_word(gens[label], names)]
                     for u, v, label in ball.edges]}, fmt)


# ---------------------------------------------------------------------------
# thompson


@main.group(name="thompson")
def thompson_cmd():
    """Normal forms in Thompson's group F and the tail-subgroup lemma."""


@thompson_cmd.command(name="verify")
@click.option("--identity-bound", type=click.IntRange(min=0), default=10, show_default=True,
              help="Conjugation identities for 0 <= m < n <= this.")
@click.option("--pair-bound", type=click.IntRange(min=0), default=12, show_default=True,
              help="Commutation of pair generators with indices up to this.")
@click.option("--shift-bound", type=click.IntRange(min=2), default=20, show_default=True,
              help="Shift property checked for n up to this.")
@click.option("--m-bound", type=click.IntRange(min=0), default=8, show_default=True,
              help="Largest m accepted for the tail subgroup A_m.")
@_format_option
def thompson_verify(identity_bound, pair_bound, shift_bound, m_bound, fmt):
    """Run the pair-generator lemma grids."""
    _emit({"suite": "lemma", **thompson.lemma_report(identity_bound, pair_bound,
                                                     shift_bound, m_bound)}, fmt)


@thompson_cmd.command(name="scan")
@click.option("--max-len", type=click.IntRange(min=0), default=5, show_default=True,
              help="Word length bound.")
@click.option("--max-index", type=click.IntRange(min=0), default=2, show_default=True,
              help="Generator index bound.")
@_format_option
def thompson_scan(max_len, max_index, fmt):
    """Check the normal-form engine against the homeomorphism model on every word."""
    try:
        report = scan.thompson_agreement_scan(max_len, max_index)
    except ValueError as exc:  # the kernels' size limits
        raise click.UsageError(str(exc))
    _emit({"suite": "scan", "max_len": max_len, "max_index": max_index,
           "backend": report["backend"], "words": report["words"],
           "failures": [list(f) for f in report["failures"]],
           "pass": not report["failures"]}, fmt)


# ---------------------------------------------------------------------------
# bs


@main.group(name="bs")
def bs_cmd():
    """Britton reduction and the power-conjugation family in BS(m,n)."""


@bs_cmd.command(name="verify")
@click.option("--bound", type=click.IntRange(min=1), default=12, show_default=True,
              help="Largest power of x in the truncation.")
@click.option("--conjugators", default="y,y^-1", show_default=True,
              help="Comma-separated conjugator words.")
@click.option("--conj-len", type=click.IntRange(min=0), default=1, show_default=True,
              help="Conjugator word-length bound.")
@click.option("--group", "group_spec", default="bs(2,3)", show_default=True,
              help="A group under the britton oracle (preset, file, or inline text).")
@_format_option
def bs_verify(bound, conjugators, conj_len, group_spec, fmt):
    """Check conjugation closure and directedness of the power family."""
    ctx_obj = groups.load(group_spec)
    m, n = ctx_obj.bs_params
    words = _word_list(ctx_obj, conjugators)
    report = bs.family_axiom_check(words, bound, conj_len, m, n)
    _emit({"suite": "family", "m": m, "n": n, "a_bound": bound,
           "conjugators": [format_word(w, ctx_obj.generator_names) for w in words],
           "nodes": report["nodes"],
           "closure_checked": len(report["closure"]),
           "closure_failures": [e for e in report["closure"]
                                if e["witness"] is None],
           "closure_pass": report["closure_pass"],
           "directed_checked": len(report["directed"]),
           "directed_failures": [{"pair": list(d["pair"])} for d in report["directed"]
                                 if d["witness"] is None],
           "directed_pass": report["directed_pass"],
           "all_pass": report["all_pass"]}, fmt)


@bs_cmd.command(name="reduce")
@click.option("--word", "word_text", required=True)
@click.option("--group", "group_spec", default="bs(2,3)", show_default=True,
              help="A group under the britton oracle (preset, file, or inline text).")
@_format_option
def bs_reduce(word_text, group_spec, fmt):
    """Britton-reduce a word to its pushed-right form."""
    ctx_obj = groups.load(group_spec)
    m, n = ctx_obj.bs_params
    w = groups.parse_context_word(ctx_obj, word_text)
    head, tail = bs.britton_reduce(w, m, n)
    _emit({"word": word_text, "m": m, "n": n,
           "head": head, "tail": [list(t) for t in tail],
           "is_power_of_x": not tail}, fmt)


# ---------------------------------------------------------------------------
# suite


@main.command(name="suite")
@click.argument("name")
@click.option("--seed", default=0, show_default=True)
@click.option("--timing", is_flag=True,
              help="Include wall-clock seconds, in all and per suite, and the number "
                   "of processes (breaks byte determinism).")
@_format_option
def suite_cmd(name, seed, timing, fmt):
    """Run a named check suite or 'all'; exit 1 if any check fails."""
    try:
        report = suites.run_suite(name, seed=seed, timing=timing)
    except suites.UnknownSuiteError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        click.echo(json.dumps(report, indent=2, sort_keys=True))
    else:
        for rec in report["checks"]:
            mark = {"pass": "PASS", "fail": "FAIL"}.get(rec["outcome"], "????")
            click.echo(f"{mark} {rec['id']}")
            if rec["outcome"] == "fail":
                click.echo(f"     law: {rec['law']}")
                click.echo(f"     witness: {rec['witness']}")
        failed = len(suites.report_failures(report))
        total = len(report["checks"])
        click.echo(f"{total - failed}/{total} checks passed")
        timing = report["timing"]
        if timing:
            click.echo(f"elapsed: {timing['seconds']}s on {timing['workers']} processes")
            for suite, spent in sorted(timing["suites"].items(), key=lambda kv: -kv[1]["seconds"]):
                click.echo(f"  {suite}: {spent['seconds']}s")
    if suites.report_failures(report):
        sys.exit(1)


if __name__ == "__main__":
    main()
