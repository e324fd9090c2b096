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

Every group and command is declared once, with its options, in one table:
``main`` holds the groups, each group its commands, and each command the
``_Param`` list that ``_scan`` and ``_values`` parse its arguments against.
``--help`` works at every level.  Help pages, usage lines and error texts
keep click's layout and wording (``No such option '--x'.``, ``Missing
option '--x'.``, ``Invalid value for '--x': ...``), which scripts and the
tests match on.

Exit codes: 0 on success, 1 with one ``Error:`` line (or a failing
``suite`` check), 2 for usage errors.  Commands let the library's
ValueError and OSError propagate; ``_Main.invoke`` is the one boundary
that turns them into the ``Error:`` line (``parse error: ...`` for a
malformed presentation).

While a command runs, the cyclic garbage collector's first-generation
threshold is ``GC_THRESHOLD`` instead of CPython's 700: the enumerations
allocate tens of thousands of small tuples that live until the command ends,
and each collection would traverse them again.  The second- and
third-generation thresholds stay the caller's, and all three are the
caller's again when the command returns, fails or stops on a usage error,
so code that calls ``main`` in process (tests, benchmarks) keeps its own
settings.  The ``suite all`` worker is forked inside the command and
inherits the threshold.  Library functions never touch the collector.
"""

from __future__ import annotations

import gc
import os
import pathlib
import sys
from json.encoder import encode_basestring_ascii as _json_str
from math import inf

from . import baumslag_solitar as bs
from . import completion, ends, families, groups, modp, scan, subgroups, suites, thompson
from .words import format_word, generator


def _emit(data, fmt):
    if fmt == "json":
        print(_json(data))
    else:
        for line in _text_lines(data, 0):
            print(line)


def _json(value, nl: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True, default=str), byte for byte,
    without the generator-based encoder that indent selects: strings through
    the C ASCII escaper, and a list of plain ints or strs joined in one go.
    nl is the newline and indent of value's closing bracket."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (inf, -inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    inner = nl + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        items = (map(_json_str, value) if kinds == {str} else
                 map(int.__repr__, value) if kinds == {int} else
                 [_json(item, inner) for item in value])
        return f"[{inner}{(',' + inner).join(items)}{nl}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_json_str(_json_key(key))}: {_json(item, inner)}"
                 for key, item in sorted(value.items())]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    return _json_str(str(value))


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _json(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


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
# the command table and its parser


class _UsageError(Exception):
    """Bad command-line input: exit 2.  The usage line of the command being
    parsed or run comes first unless usage is False."""

    def __init__(self, message: str, usage: bool = True):
        super().__init__(message)
        self.usage = usage


class _Param:
    """One parameter of a command: an option ``--NAME VALUE``, a flag
    (type bool) or, for a name without dashes, a required positional
    argument.  type is str, int or bool; minimum bounds an int from below;
    choices lists the accepted strs; check(value) returns an error message
    or None.  dest is the callback's keyword."""

    def __init__(self, name, dest=None, *, type=str, default=None, required=False,
                 minimum=None, choices=None, check=None, show_default=False, help=""):
        self.name, self.type, self.minimum, self.choices = name, type, minimum, choices
        self.positional = not name.startswith("-")
        self.dest = dest or name.lstrip("-").replace("-", "_")
        self.default = False if type is bool else default
        self.required = required or self.positional
        self.check, self.show_default, self.help = check, show_default, help

    def value(self, raw):
        """The callback's value for the raw text, or the default when raw is
        None; _UsageError when it is missing or invalid."""
        hint = repr(self.name.upper() if self.positional else self.name)
        if raw is None:
            if self.required:
                kind = "argument" if self.positional else "option"
                raise _UsageError(f"Missing {kind} {hint}.")
            return self.default
        value = raw
        if self.type is int:
            try:
                value = int(raw)
            except ValueError:
                kind = "integer" if self.minimum is None else "integer range"
                raise _UsageError(f"Invalid value for {hint}: {raw!r} is not a valid {kind}.")
            if self.minimum is not None and value < self.minimum:
                raise _UsageError(f"Invalid value for {hint}: {value} is not in the range "
                                  f"x>={self.minimum}.")
        elif self.choices and raw not in self.choices:
            raise _UsageError(f"Invalid value for {hint}: {raw!r} is not one of "
                              f"{', '.join(map(repr, self.choices))}.")
        problem = self.check and self.check(value)
        if problem:
            raise _UsageError(f"Invalid value for {hint}: {problem}")
        return value

    def help_row(self) -> tuple[str, str]:
        term = self.name
        if self.choices:
            term += f" [{'|'.join(self.choices)}]"
        elif self.type is str:
            term += " TEXT"
        elif self.type is int:
            term += " INTEGER" if self.minimum is None else " INTEGER RANGE"
        extra = []
        if self.show_default and self.default is not None:
            extra.append(f"default: {self.default}")
        if self.minimum is not None:
            extra.append(f"x>={self.minimum}")
        if self.required:
            extra.append("required")
        text = self.help
        if extra:
            text = f"{text}  [{'; '.join(extra)}]" if text else f"[{'; '.join(extra)}]"
        return term, text


_HELP = _Param("--help", type=bool, help="Show this message and exit.")


class _Command:
    """A command (callback set) or a group of commands (callback None) of the
    table.  help is the text --help prints; a command's is its callback's
    docstring."""

    def __init__(self, help: str, params=(), callback=None):
        self.help, self.params, self.callback = help, params, callback
        self.options = {p.name: p for p in (*params, _HELP) if not p.positional}
        self.commands = {}

    def group(self, name: str, help: str) -> _Command:
        self.commands[name] = sub = _Command(help)
        return sub

    def command(self, name: str, *params):
        """Register the decorated function as the command name, with params."""
        def register(fn):
            self.commands[name] = _Command(fn.__doc__ or "", params, fn)
            return fn
        return register


def _scan(node, args: list) -> tuple[dict, list]:
    """The options of node in args, {param: raw text or True} in the order
    they first appear (the last value wins), and the other arguments.  A
    group stops at its first other argument, the name of its command."""
    given, rest = {}, []
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if arg == "--":
            break
        if arg[:1] != "-" or len(arg) == 1:
            if node.callback is None:
                i -= 1
                break
            rest.append(arg)
            continue
        name, eq, raw = arg.partition("=")
        param = node.options.get(name)
        if param is None:
            if name.startswith("--"):
                raise _UsageError(f"No such option {name!r}." + _suggest(name, node.options))
            raise _UsageError(f"No such option {arg[:2]!r}.")
        if param.type is bool:
            if eq:
                raise _UsageError(f"Option {name!r} does not take a value.", usage=False)
            raw = True
        elif not eq:
            if i == len(args):
                raise _UsageError(f"Option {name!r} requires an argument.", usage=False)
            raw = args[i]
            i += 1
        given[param] = raw
    return given, rest + args[i:]


def _values(node, given: dict, rest: list) -> dict:
    """The callback's keywords, each value checked in the order click used:
    the given options as they first appear, the positional arguments, then
    the options left out; extra arguments are refused last."""
    positional = [p for p in node.params if p.positional]
    raws = {**given, **dict(zip(positional, rest))}
    order = [*given, *positional,
             *(p for p in node.params if p not in given and not p.positional)]
    kwargs = {p.dest: p.value(raws.get(p)) for p in order}
    extra = rest[len(positional):]
    if extra:
        raise _UsageError(f"Got unexpected extra argument{'s' if len(extra) > 1 else ''} "
                          f"({' '.join(extra)})")
    return kwargs


def _suggest(name: str, known) -> str:
    from difflib import get_close_matches

    close = sorted(get_close_matches(name, known))
    if len(close) > 1:
        return f" (Did you mean one of: {', '.join(map(repr, close))}?)"
    return f" Did you mean {close[0]!r}?" if close else ""


def _width() -> int:
    import shutil

    return max(min(shutil.get_terminal_size().columns, 80) - 2, 50)


def _wrap(text: str, width: int, indent: str = "", first: str | None = None) -> str:
    """The blank-line separated paragraphs of text, each joined into one line
    and filled to width; first, if given, indents the first line."""
    import textwrap

    wrapper = textwrap.TextWrapper(width, initial_indent=indent if first is None else first,
                                   subsequent_indent=indent, replace_whitespace=False)
    paragraphs, lines = [], []
    for line in [*text.expandtabs().splitlines(), ""]:
        if line:
            lines.append(line if lines else line.lstrip())
        elif lines:
            paragraphs.append(" ".join(lines))
            lines = []
    return "\n\n".join(map(wrapper.fill, paragraphs))


def _usage(node, path: str, width: int) -> str:
    pieces = "[OPTIONS]" + "".join(f" {p.name.upper()}" for p in node.params if p.positional)
    if node.callback is None:
        pieces += " COMMAND [ARGS]..."
    prefix = f"Usage: {path} "
    if width >= len(prefix) + 20:
        return _wrap(pieces, width, " " * len(prefix), prefix)
    return f"{prefix}\n{_wrap(pieces, width, ' ' * 11)}"


def _definitions(rows: list, width: int) -> str:
    """Two columns: terms, and their texts wrapped beside them."""
    first = min(max(len(term) for term, _ in rows), 30) + 2
    lines = []
    for term, text in rows:
        if not text:
            lines.append(f"  {term}")
            continue
        wrapped = _wrap(text, max(width - first - 2, 10)).splitlines()
        if len(term) <= first - 2:
            lines.append(f"  {term:<{first}}{wrapped[0]}")
        else:
            lines += [f"  {term}", " " * (first + 2) + wrapped[0]]
        lines += [" " * (first + 2) + line for line in wrapped[1:]]
    return "\n".join(lines)


def _short_help(text: str, limit: int) -> str:
    """The first sentence of text's first paragraph if it fits in limit
    characters, else as many of its words as fit with '...'."""
    words = text.split("\n\n")[0].split()
    for i, word in enumerate(words):
        length = len(" ".join(words[:i + 1]))
        if length > limit or length == limit and i < len(words) - 1 and word[-1] != ".":
            while i and len(" ".join(words[:i])) + 3 > limit:
                i -= 1
            return " ".join(words[:i]) + "..."
        if word[-1] == ".":
            return " ".join(words[:i + 1])
    return " ".join(words)


def _help(node, path: str) -> str:
    import inspect

    width = _width()
    parts = [_usage(node, path, width)]
    text = inspect.cleandoc(node.help)
    if text:
        parts.append(_wrap(text, width, "  "))
    parts.append("Options:\n" + _definitions([p.help_row() for p in node.options.values()],
                                              width))
    if node.commands:
        names = sorted(node.commands)
        limit = width - 6 - max(map(len, names))
        parts.append("Commands:\n" + _definitions(
            [(name, _short_help(node.commands[name].help, limit)) for name in names], width))
    return "\n\n".join(parts)


def _prog_name() -> str:
    """The name a usage line gives the program: the script's file name, or
    ``python -m`` and the module run as a script."""
    package = getattr(sys.modules["__main__"], "__package__", None)
    script = os.path.basename(sys.argv[0])
    if not package:
        return script
    module = os.path.splitext(script)[0]
    return f"python -m {package}" + ("" if module == "__main__" else f".{module}")


GC_THRESHOLD = 50_000  # the least of 2k, 10k, 50k, 100k within noise of the best suite-scan time


class _Main(_Command):
    """The top-level group.  Calling it runs the command sys.argv names and
    exits with its code."""

    def __call__(self):
        return self.main()

    def main(self, args=None, prog_name=None, standalone_mode=True) -> int:
        """Run the command args names (default sys.argv[1:]) and exit with its
        code.  standalone_mode=False returns 0 instead of exiting after a
        command that succeeds; it stays only for perfbench/workloads.py, the
        frozen benchmark harness that calls main so."""
        code = self.invoke(sys.argv[1:] if args is None else list(args),
                           prog_name or _prog_name())
        if standalone_mode or code:
            sys.exit(code)
        return code

    def invoke(self, args: list, path: str) -> int:
        """The one error boundary: bad input that the library rejects ends as
        one ``Error:`` line with exit code 1, a usage error with exit code 2,
        never a traceback.  It also holds the collector's first threshold at
        ``GC_THRESHOLD`` for the command and gives the caller's thresholds
        back on every exit."""
        caller = gc.get_threshold()
        gc.set_threshold(GC_THRESHOLD, *caller[1:])
        node = self
        try:
            while True:
                if not args and node.callback is None:
                    sys.stderr.write(_help(node, path) + "\n")
                    return 2
                given, rest = _scan(node, args)
                if _HELP in given:
                    print(_help(node, path))
                    return 0
                if node.callback is not None:
                    break
                if not rest:
                    raise _UsageError("Missing command.")
                name, args = rest[0], rest[1:]
                if name not in node.commands:
                    # a name after "--" that looks like an option is read as
                    # the group's options again: --help helps, --x is refused
                    if name[:1] and not name[:1].isalnum() and _HELP in _scan(node, rest)[0]:
                        print(_help(node, path))
                        return 0
                    raise _UsageError(f"No such command {name!r}." + _suggest(name, node.commands))
                node, path = node.commands[name], f"{path} {name}"
            return node.callback(**_values(node, given, rest)) or 0
        except _UsageError as exc:
            if exc.usage:
                sys.stderr.write(f"{_usage(node, path, _width())}\n"
                                 f"Try '{path} --help' for help.\n\n")
            sys.stderr.write(f"Error: {exc}\n")
            return 2
        except groups.PresentationError as exc:
            sys.stderr.write(f"Error: parse error: {exc}\n")
            return 1
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"Error: {exc}\n")
            return 1
        except (EOFError, KeyboardInterrupt):
            sys.stderr.write("\nAborted!\n")
            return 1
        finally:
            gc.set_threshold(*caller)


main = _Main("Commensurability, subgroup families, completions, and ends.")


def _format(*formats) -> _Param:
    return _Param("--format", "fmt", choices=formats, default="json", show_default=True,
                  help="Report format.")


_FORMAT = _format("json", "text")
_GROUP = _Param("--group", "group_spec", required=True)


# ---------------------------------------------------------------------------
# input helpers


def _word_list(ctx_obj, text: str) -> list:
    return [groups.parse_context_word(ctx_obj, part)
            for part in text.split(",") if part.strip()]


def _default_gens(ctx_obj, text) -> list:
    if text:
        return _word_list(ctx_obj, text)
    return [generator(i) for i in range(ctx_obj.generator_count)]


def _subgroup(ctx_obj, text: str) -> subgroups.SubgroupHandle:
    return subgroups.subgroup_from_words(ctx_obj, _word_list(ctx_obj, text))


# ---------------------------------------------------------------------------
# group


group_cmd = main.group("group", "Load, canonicalize, and summarize group presentations.")


@group_cmd.command("parse", _Param("spec"))
def group_parse(spec):
    """Print the canonical text form of SPEC.

    SPEC is a preset name, a presentation file path, or inline text in the
    ``gens:``/``rels:``/``oracle:`` format.  Malformed input is rejected
    with a line/column diagnostic.
    """
    ctx_obj = groups.load(spec)
    sys.stdout.write(groups.serialize_presentation(ctx_obj))


@group_cmd.command("show", _Param("spec"), _FORMAT)
def group_show(spec, fmt):
    """Summarize generators, relators, oracle, and order when finite."""
    ctx_obj = groups.load(spec)
    names = ctx_obj.generator_names
    data = {
        "name": ctx_obj.name or None,
        "oracle": ctx_obj.oracle,
        "generators": list(names),
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


subgroup_cmd = main.group("subgroup", "Commensurability and near-normality of subgroup pairs.")


@subgroup_cmd.command(
    "commensurable",
    _Param("--group", "group_spec", required=True,
           help="Ambient group (preset, file, or inline text)."),
    _Param("--h", "h_text", required=True, help="Generators of H, comma-separated words."),
    _Param("--k", "k_text", required=True, help="Generators of K, comma-separated words."),
    _FORMAT)
def subgroup_commensurable(group_spec, h_text, k_text, fmt):
    """Decide whether H and K share a finite-index common subgroup."""
    ctx_obj = groups.load(group_spec)
    h = _subgroup(ctx_obj, h_text)
    k = _subgroup(ctx_obj, k_text)
    # a handle built from words reads every index exactly: 50 caps no search here
    report = subgroups.commensurability_report(h, k, 50)
    _emit({"group": group_spec, "h": h_text, "k": k_text,
           "result": report["result"], "indices": report["indices"],
           "certificate": report["certificate"]}, fmt)


@subgroup_cmd.command(
    "near-normal", _GROUP,
    _Param("--h", "h_text", required=True, help="Generators of H, comma-separated words."),
    _Param("--gens", "gens_text",
           help="Conjugating elements; defaults to the group generators."),
    _FORMAT)
def subgroup_near_normal(group_spec, h_text, gens_text, fmt):
    """Check that each conjugator keeps H commensurable with itself."""
    ctx_obj = groups.load(group_spec)
    h = _subgroup(ctx_obj, h_text)
    gens = _default_gens(ctx_obj, gens_text)
    verdict = subgroups.near_normal_on(h, gens, 50)  # caps no search, as above
    _emit({"group": group_spec, "h": h_text,
           "conjugators": [format_word(g, ctx_obj.generator_names) for g in gens],
           "near_normal": verdict}, fmt)


# ---------------------------------------------------------------------------
# family


family_cmd = main.group("family", "Directed subgroup families: axioms and low-degree functors.")


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


def _not_prime(value):
    return None if modp.is_prime(value) else f"{value} is not a prime"


_P = _Param("--p", type=int, default=2, check=_not_prime, show_default=True,
            help="Field size (prime).")
_DIM = _Param("--dim", type=int, minimum=1, default=1, show_default=True,
              help="Dimension of the trivial module.")


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
    if spec == "trivial":
        return families.trivial_module(ctx_obj, dim=dim, p=p)
    if spec == "regular":
        return families.regular_module(ctx_obj, p=p)
    path = pathlib.Path(spec)
    if path.is_file():
        mats = families.parse_module_matrices(path.read_text())
        return families.finite_module(ctx_obj, mats, p=p)
    raise ValueError(f"module {spec!r} is neither 'trivial', 'regular', nor a matrix file")


_NODES = _Param("--nodes", "nodes_text", required=True)


@family_cmd.command(
    "check", _GROUP,
    _Param("--nodes", "nodes_text", required=True,
           help="Semicolon-separated nodes, each a comma-separated generator list; '-' is the "
                "trivial subgroup."),
    _FORMAT)
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


@family_cmd.command(
    "h0", _GROUP, _NODES,
    _Param("--module", "module_spec", default="trivial", show_default=True,
           help="trivial, regular, or a matrix file (row-major integer blocks, one per "
                "generator, blank-line separated)."),
    _P, _DIM, _FORMAT)
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


@family_cmd.command(
    "h1", _GROUP, _Param("--module", "module_spec", default="trivial", show_default=True),
    _P, _DIM, _FORMAT)
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


completion_cmd = main.group("completion",
                            "The completion monoid along a truncated subgroup family.")


def _family_for(ctx_obj, family_name, nodes_text) -> families.FamilyTruncation:
    if nodes_text:
        return _build_family(ctx_obj, nodes_text)
    if not family_name:
        raise _UsageError("pass --family NAME or --nodes LIST")
    key = (ctx_obj.name, family_name)
    if key not in families.NAMED_FAMILIES:
        known = sorted(f"{g}:{f}" for g, f in families.NAMED_FAMILIES)
        raise _UsageError(
            f"no built-in family {family_name!r} for group "
            f"{ctx_obj.name or 'custom'}; built-ins: {', '.join(known)}; "
            f"or pass --nodes")
    return _build_family(ctx_obj, families.NAMED_FAMILIES[key])


_COMPLETION = (
    _GROUP,
    _Param("--family", "family_name",
           help="Built-in family name (normal-order3, all-subgroups, index2)."),
    _Param("--nodes", "nodes_text", help="Custom nodes, as in 'family check'."),
    _Param("--ceiling", type=int, minimum=1, default=completion.ENUM_CEILING, show_default=True,
           help="Element enumeration ceiling."),
    _FORMAT)


@completion_cmd.command("build", *_COMPLETION)
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


@completion_cmd.command("laws", *_COMPLETION)
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


@completion_cmd.command("scan", *_COMPLETION)
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


ends_cmd = main.group("ends", "Coset graphs and end counting.")
_L = _Param("--l", "l_text", required=True, help="Generators of the subgroup L, comma-separated.")


@ends_cmd.command(
    "estimate", _GROUP, _L,
    _Param("--gens", "gens_text", help="Edge generating set; defaults to the group generators."),
    _Param("--radii", default="2,4,6,8", show_default=True,
           help="Strictly increasing comma-separated radii."),
    _FORMAT)
def ends_estimate(group_spec, l_text, gens_text, radii, fmt):
    """Count unbounded annulus components of the coset graph."""
    ctx_obj = groups.load(group_spec)
    sub = _subgroup(ctx_obj, l_text)
    gens = _default_gens(ctx_obj, gens_text)
    try:
        schedule = tuple(int(r) for r in radii.split(","))
    except ValueError:
        raise _UsageError(f"bad radii {radii!r}")
    if any(r < 0 for r in schedule):
        raise _UsageError(f"radii must be non-negative, got {radii!r}")
    report = ends.ends_estimate(ctx_obj, sub, gens, schedule)
    _emit({"group": group_spec, "l": l_text,
           "gens": [format_word(g, ctx_obj.generator_names) for g in gens],
           "radii": list(report["radii"]), "counts": list(report["counts"]),
           "estimate": report["estimate"],
           "stabilized": report["stabilized"]}, fmt)


@ends_cmd.command(
    "graph", _GROUP, _L, _Param("--gens", "gens_text"),
    _Param("--radius", type=int, minimum=0, default=3, show_default=True),
    _format("json", "text", "dot"))
def ends_graph(group_spec, l_text, gens_text, radius, fmt):
    """Materialize a ball of the coset graph."""
    ctx_obj = groups.load(group_spec)
    sub = _subgroup(ctx_obj, l_text)
    gens = _default_gens(ctx_obj, gens_text)
    ball = ends.coset_graph_ball(ctx_obj, sub, gens, radius)
    names = ctx_obj.generator_names
    if fmt == "dot":
        print(ends.to_dot(ball, names))
        return
    labels = [format_word(x, names) for x in gens]
    _emit({"group": group_spec, "l": l_text, "radius": radius,
           "vertex_count": ball.vertex_count,
           "vertices": [{"index": i,
                         "representative": format_word(rep, names),
                         "depth": ball.depth[i]}
                        for i, rep in enumerate(ball.vertices)],
           "edges": [[u, v, labels[label]] for u, v, label in ball.edges]}, fmt)


# ---------------------------------------------------------------------------
# thompson


thompson_cmd = main.group("thompson",
                          "Normal forms in Thompson's group F and the tail-subgroup lemma.")


@thompson_cmd.command(
    "verify",
    _Param("--identity-bound", type=int, minimum=0, default=10, show_default=True,
           help="Conjugation identities for 0 <= m < n <= this."),
    _Param("--pair-bound", type=int, minimum=0, default=12, show_default=True,
           help="Commutation of pair generators with indices up to this."),
    _Param("--shift-bound", type=int, minimum=2, default=20, show_default=True,
           help="Shift property checked for n up to this."),
    _Param("--m-bound", type=int, minimum=0, default=8, show_default=True,
           help="Largest m accepted for the tail subgroup A_m."),
    _FORMAT)
def thompson_verify(identity_bound, pair_bound, shift_bound, m_bound, fmt):
    """Run the pair-generator lemma grids."""
    _emit({"suite": "lemma", **thompson.lemma_report(identity_bound, pair_bound,
                                                     shift_bound, m_bound)}, fmt)


@thompson_cmd.command(
    "scan",
    _Param("--max-len", type=int, minimum=0, default=5, show_default=True,
           help="Word length bound."),
    _Param("--max-index", type=int, minimum=0, default=2, show_default=True,
           help="Generator index bound."),
    _FORMAT)
def thompson_scan(max_len, max_index, fmt):
    """Check the normal-form engine against the homeomorphism model on every word."""
    try:
        report = scan.thompson_agreement_scan(max_len, max_index)
    except ValueError as exc:  # the kernels' size limits
        raise _UsageError(str(exc))
    _emit({"suite": "scan", "max_len": max_len, "max_index": max_index,
           "backend": report["backend"], "words": report["words"],
           "failures": [list(f) for f in report["failures"]],
           "pass": not report["failures"]}, fmt)


# ---------------------------------------------------------------------------
# bs


bs_cmd = main.group("bs", "Britton reduction and the power-conjugation family in BS(m,n).")
_BS_GROUP = _Param("--group", "group_spec", default="bs(2,3)", show_default=True,
                   help="A group under the britton oracle (preset, file, or inline text).")


@bs_cmd.command(
    "verify",
    _Param("--bound", type=int, minimum=1, default=12, show_default=True,
           help="Largest power of x in the truncation."),
    _Param("--conjugators", default="y,y^-1", show_default=True,
           help="Comma-separated conjugator words."),
    _Param("--conj-len", type=int, minimum=0, default=1, show_default=True,
           help="Conjugator word-length bound."),
    _BS_GROUP, _FORMAT)
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


@bs_cmd.command("reduce", _Param("--word", "word_text", required=True), _BS_GROUP, _FORMAT)
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


@main.command(
    "suite", _Param("name"),
    _Param("--seed", type=int, default=0, show_default=True),
    _Param("--timing", type=bool,
           help="Include wall-clock seconds, in all and per suite, the number of processes and "
                "each suite's garbage collections (breaks byte determinism)."),
    _FORMAT)
def suite_cmd(name, seed, timing, fmt):
    """Run a named check suite or 'all'; exit 1 if any check fails."""
    try:
        report = suites.run_suite(name, seed=seed, timing=timing)
    except suites.UnknownSuiteError as exc:
        raise _UsageError(str(exc))
    if fmt == "json":
        _emit(report, "json")
    else:
        for rec in report["checks"]:
            mark = {"pass": "PASS", "fail": "FAIL"}.get(rec["outcome"], "????")
            print(f"{mark} {rec['id']}")
            if rec["outcome"] == "fail":
                print(f"     law: {rec['law']}")
                print(f"     witness: {rec['witness']}")
        failed = len(suites.report_failures(report))
        total = len(report["checks"])
        print(f"{total - failed}/{total} checks passed")
        timing = report["timing"]
        if timing:
            print(f"elapsed: {timing['seconds']}s on {timing['workers']} processes")
            for suite, spent in sorted(timing["suites"].items(), key=lambda kv: -kv[1]["seconds"]):
                print(f"  {suite}: {spent['seconds']}s, {spent['collections']} collections")
    return 1 if suites.report_failures(report) else 0


if __name__ == "__main__":
    main()
