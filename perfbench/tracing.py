"""Call tracing for the per-layer breakdown, installed from outside the package.

`install` wraps every public function of each nearnormal module, plus the few
hot methods and private helpers a per-layer metric needs, and rebinds every
name other modules imported (``completion.check_stable``,
``_scan_py.compose``, ``ends.same_coset``, the ``suites.SUITES`` table), so
calls are seen whichever name they go through.  Nothing under ``src/`` is
edited.

Every wrapped call updates counters: calls, time while the name is outermost
on the stack, and self time (duration minus the time its wrapped children
took).  Only the layer entry points in ``SPANNED`` also leave a span record
(id, name, start, end, parent span, task, self time), which keeps memory
bounded while ``CosetTable.coset_of`` runs millions of times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# nearnormal module -> layer prefix of its metrics.  cli is traced through
# the single "cli.main" entry instead: its public names are click commands.
LAYERS = {
    "words": "words", "groups": "groups", "subgroups": "subgroups",
    "families": "families", "completion": "completion", "ends": "ends",
    "thompson": "thompson", "baumslag_solitar": "bs", "_plmodel": "plmodel",
    "_intlinalg": "intlinalg", "modp": "modp", "_scan_py": "scan",
    "suites": "suites",
}

# Methods and private helpers that a metric below counts.
EXTRA = (
    ("groups", "CosetTable.coset_of"), ("groups", "_Enumeration._define"),
    ("words", "Word.__mul__"), ("families", "FamilyTruncation.conj"),
    ("_plmodel", "PLMap.__eq__"), ("ends", "_left_key"),
)

SPANNED = frozenset({
    "task", "cli.main", "suites.run_suite", "scan.thompson_agreement_scan",
    "completion.truncated_completion", "completion.invertibility_scan",
    "families.truncation", "families.check_admissible", "families.check_stable",
    "families.h0_S", "families.h0_G_mod_S", "families.h1_derivations",
    "groups.todd_coxeter", "ends.coset_graph_ball", "ends.ends_estimate",
    "bs.family_axiom_check", "subgroups.near_normal_on",
    "subgroups.commensurability_report",
})

# Summed over the return values of a wrapped name.
MEASURES = {
    "scan.thompson_agreement_scan": lambda r: r["words"],
    "completion.truncated_completion": lambda r: len(r.elements),
    "completion.invertibility_scan": lambda r: r["invertible"],
    "groups.todd_coxeter": lambda r: type(r).__name__ == "Incomplete",
    "ends.coset_graph_ball": lambda r: r.vertex_count,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open frames: [name, start, child seconds, span id]
        self.calls = Counter()
        self.inclusive = defaultdict(float)  # only outermost activations
        self.self_time = defaultdict(float)
        self.edges = Counter()  # (nearest wrapped caller, callee) -> calls
        self.sums = Counter()
        self.spans = []
        self.task = None
        self._depth = Counter()

    def enter(self, name: str) -> None:
        span_id = None
        if name in SPANNED:
            span_id = len(self.spans)
            self.spans.append(None)
        self._depth[name] += 1
        self.stack.append([name, self.clock(), 0.0, span_id])

    def exit(self) -> None:
        name, start, child, span_id = self.stack.pop()
        end = self.clock()
        duration = end - start
        self.calls[name] += 1
        self.self_time[name] += duration - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.inclusive[name] += duration
        if self.stack:
            self.stack[-1][2] += duration
            self.edges[self.stack[-1][0], name] += 1
        if span_id is not None:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            self.spans[span_id] = (span_id, name, start, end, parent, self.task,
                                   duration - child)

    def wrap(self, name: str, fn):
        enter, leave = self.enter, self.exit
        measure, sums = MEASURES.get(name), self.sums

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if measure is not None:
                sums[name] += measure(result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Route every traced nearnormal function through ``tracer``."""
    wrapped = {}  # id(original) -> (original, wrapper)
    for modname, layer in LAYERS.items():
        mod = importlib.import_module(f"nearnormal.{modname}")
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    for modname, path in EXTRA:
        mod = importlib.import_module(f"nearnormal.{modname}")
        name = f"{LAYERS[modname]}.{path}"
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(name, vars(cls)[meth]))
        else:
            obj = getattr(mod, path)
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj))
    for modname in [m for m in sys.modules if m.startswith("nearnormal.")]:
        namespace = vars(sys.modules[modname])
        for attr, obj in list(namespace.items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                namespace[attr] = hit[1]
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    hit = wrapped.get(id(value))
                    if hit is not None and hit[0] is value:
                        obj[key] = hit[1]
    cli = importlib.import_module("nearnormal.cli")
    cli.main.main = tracer.wrap("cli.main", cli.main.main)


def covered(spans, names) -> float:
    """Length of the union of the intervals of the spans with these names."""
    intervals = sorted((s[2], s[3]) for s in spans if s[1] in names)
    total, reach = 0.0, None
    for start, end in intervals:
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_self(layer):
    return lambda t: sum(v for k, v in t.self_time.items() if k.split(".", 1)[0] == layer)


# Per-layer metrics: name -> (unit, value from a finished tracer).  A layer
# the workload never calls reports 0.  Times are unscaled seconds.
PER_LAYER = {
    "scan.words": ("count", lambda t: t.sums["scan.thompson_agreement_scan"]),
    "scan.busy_s": ("s", lambda t: t.inclusive["scan.thompson_agreement_scan"]),
    "plmodel.compose_calls": ("count", lambda t: t.calls["plmodel.compose"]),
    "plmodel.word_pl_calls": ("count", lambda t: t.calls["plmodel.word_pl"]),
    "plmodel.self_s": ("s", _layer_self("plmodel")),
    "thompson.normal_form_calls": ("count", lambda t: t.calls["thompson.f_normal_form"]),
    "thompson.self_s": ("s", _layer_self("thompson")),
    "completion.multiply_calls": ("count", lambda t: t.calls["completion.multiply"]),
    "completion.multiply_s": ("s", lambda t: t.inclusive["completion.multiply"]),
    "completion.multiply_us": ("us", lambda t: 1e6 * _ratio(
        t.inclusive["completion.multiply"], t.calls["completion.multiply"])),
    "completion.compatible_checks": ("count", lambda t: t.calls["completion.is_compatible"]),
    "completion.invert_stable_calls": ("count", lambda t: t.calls["completion.invert_stable"]),
    "completion.scan_useful_ratio": ("ratio", lambda t: _ratio(
        t.sums["completion.invertibility_scan"],
        t.edges["completion.invertibility_scan", "completion.multiply"])),
    "completion.enumerate_s": ("s", lambda t: t.inclusive["completion.truncated_completion"]
                               + t.inclusive["completion.enumerate_completion"]),
    "completion.elements": ("count", lambda t: t.sums["completion.truncated_completion"]),
    "families.conj_calls": ("count", lambda t: t.calls["families.FamilyTruncation.conj"]),
    "families.conj_s": ("s", lambda t: t.inclusive["families.FamilyTruncation.conj"]),
    "families.check_stable_calls": ("count", lambda t: t.calls["families.check_stable"]),
    "families.check_stable_s": ("s", lambda t: t.inclusive["families.check_stable"]),
    "families.truncation_calls": ("count", lambda t: t.calls["families.truncation"]),
    "families.truncation_s": ("s", lambda t: t.inclusive["families.truncation"]),
    "families.h0_s": ("s", lambda t: covered(t.spans, {"families.h0_S", "families.h0_G_mod_S"})),
    "families.h1_s": ("s", lambda t: t.inclusive["families.h1_derivations"]),
    "groups.todd_coxeter_calls": ("count", lambda t: t.calls["groups.todd_coxeter"]),
    "groups.todd_coxeter_s": ("s", lambda t: t.inclusive["groups.todd_coxeter"]),
    "groups.cosets_per_s": ("1/s", lambda t: _ratio(
        t.calls["groups._Enumeration._define"], t.inclusive["groups.todd_coxeter"])),
    "groups.incomplete_calls": ("count", lambda t: t.sums["groups.todd_coxeter"]),
    "groups.element_key_calls": ("count", lambda t: t.calls["groups.element_key"]),
    "groups.coset_of_calls": ("count", lambda t: t.calls["groups.CosetTable.coset_of"]),
    "groups.coset_of_s": ("s", lambda t: t.inclusive["groups.CosetTable.coset_of"]),
    "modp.rref_calls": ("count", lambda t: t.calls["modp.rref"]),
    "modp.rref_s": ("s", lambda t: t.inclusive["modp.rref"]),
    "bs.britton_calls": ("count", lambda t: t.calls["bs.britton_reduce"]),
    "bs.self_s": ("s", _layer_self("bs")),
    "subgroups.contains_calls": ("count", lambda t: t.calls["subgroups.contains"]),
    "subgroups.same_coset_calls": ("count", lambda t: t.calls["subgroups.same_coset"]),
    "subgroups.self_s": ("s", _layer_self("subgroups")),
    "ends.ball_s": ("s", lambda t: t.inclusive["ends.coset_graph_ball"]),
    "ends.ball_vertices": ("count", lambda t: t.sums["ends.coset_graph_ball"]),
    "ends.useful_ratio": ("ratio", lambda t: _ratio(
        t.sums["ends.coset_graph_ball"],
        t.edges["ends.coset_graph_ball", "subgroups.same_coset"]
        + t.edges["ends.coset_graph_ball", "ends._left_key"])),
    "intlinalg.self_s": ("s", _layer_self("intlinalg")),
    "words.mul_calls": ("count", lambda t: t.calls["words.Word.__mul__"]),
    "words.self_s": ("s", _layer_self("words")),
    "cli.self_s": ("s", _layer_self("cli")),
    "suites.self_s": ("s", _layer_self("suites")),
}


def layer_metrics(tracer: Tracer) -> dict:
    return {name: fn(tracer) for name, (_unit, fn) in PER_LAYER.items()}


def span_records(tracer: Tracer) -> list:
    """Spans as dicts, times in seconds from the first span's start."""
    origin = tracer.spans[0][2] if tracer.spans else 0.0
    return [{"id": i, "name": name, "start": start - origin, "end": end - origin,
             "parent": parent, "task": task, "self": self_s}
            for i, name, start, end, parent, task, self_s in tracer.spans]
