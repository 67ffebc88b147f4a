"""Span recorder for the traced run, installed from outside the package.

``install`` wraps each layer's public functions where their callers look
them up: the module attribute, every ``from ... import`` binding in the
other baumslag modules, and the operator and construction methods listed
in METHODS.  ``Installation.undo`` puts the originals back, so the untraced run
executes the package exactly as shipped.

A span is (id, name, start, end, parent id, op id).  Spans are kept in
memory, up to SPAN_CAP of them, and written out by ``Recorder.dump``;
calls, self time and work counts are accumulated for every span,
including those past the cap.  Self time is a span's duration minus the
time covered by its child spans; the recorder's own bookkeeping after a
child starts (including work-count hooks) is charged to the child's
duration, never to the parent's self time.  The run is single-threaded:
the traced run does not replay verify calls at --jobs 2.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli", "harness", "britton", "words", "metabelian", "rationals",
    "graph_of_groups", "abelianization",
)

# Methods that callers reach through an operator, a constructor or an
# attribute of an object, not through a module-level name.
METHODS = {
    "words": {"Word": ("__pow__",)},
    "britton": {"BsWord": ("from_text", "from_word", "format", "__pow__")},
    "metabelian": {
        "MetabelianElement": (
            "__post_init__", "__mul__", "__pow__", "inverse", "conjugate",
            "commutator", "commutes",
        ),
        "BezoutCertificate": ("verify",),
    },
    "harness": {"SuiteReport": ("to_text", "to_json")},
}

SPAN_CAP = 100_000
# Smaller calls are dominated by fixed per-call cost, not by growth.
GROWTH_MIN_SIZE = 256
OP_SPAN = "bench.op"


def _span_name(layer: str, qualname: str) -> str:
    return f"{layer}." + ".".join(part.strip("_") for part in qualname.split("."))


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.stack: list[list] = []  # [span id, start, child time]
        self.spans: list[tuple] = []
        self.span_count = 0
        self.op_id = -1
        self.op_kind = ""
        self.op_self: dict[int, float] = defaultdict(float)
        self.ops: list[tuple[float, str, dict[int, float]]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.ids[name]

    def wrap(self, fn, name: str, hook=None):
        nid = self.name_id(name)
        perf = time.perf_counter
        stack = self.stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec.span_count += 1
            sid = rec.span_count
            frame = [sid, perf(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                own = end - frame[1] - frame[2]
                calls[nid] += 1
                self_s[nid] += own
                rec.op_self[nid] += own
                if len(spans) < SPAN_CAP:
                    parent = stack[-1][0] if stack else 0
                    spans.append((sid, nid, frame[1], end, parent, rec.op_id))
            if hook is not None:
                hook(rec, args, result, own, end - frame[1])
            if stack:
                stack[-1][2] += perf() - frame[1]
            return result

        return traced

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op_id = op_id
        self.op_kind = kind
        self.op_self = defaultdict(float)
        self.stack.append([0, time.perf_counter(), 0.0])

    def end_op(self) -> None:
        end = time.perf_counter()
        frame = self.stack.pop()
        total = end - frame[1]
        own = total - frame[2]
        nid = self.name_id(OP_SPAN)
        self.calls[nid] += 1
        self.self_s[nid] += own
        self.op_self[nid] += own
        self.ops.append((total, self.op_kind, dict(self.op_self)))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["id", "name", "start", "end", "parent", "op"],
                    "spans_recorded": self.span_count,
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )


# ---------------------------------------------------------------------------
# Hooks: work counts and size samples, computed after the span has ended.


def _bits(w) -> int:
    return max([abs(w.lead).bit_length()] + [abs(e).bit_length() for _, e in w.tail])


def _hook_reduce(rec, args, result, own, dur):
    rec.counts["britton.pinches"] += (args[0].t_length - result.t_length) // 2
    peak = max(_bits(args[0]), _bits(result))
    rec.counts["britton.peak_exp_bits"] = max(rec.counts["britton.peak_exp_bits"], peak)


def _hook_parse(rec, args, result, own, dur):
    rec.counts["words.parse_word.chars"] += len(args[0])
    letters = result.length
    rec.counts["words.parse_word.letters"] += letters
    # Only texts like a^N, whose cost is the expansion of the exponent.
    if letters >= GROWTH_MIN_SIZE and letters >= 8 * len(args[0]):
        rec.samples["words.parse_word.growth"].append((letters, own))


def _hook_pow(rec, args, result, own, dur):
    rec.counts["words.Word.pow.exp_sum"] += abs(args[1])


def _hook_centralizer(rec, args, result, own, dur):
    rec.counts["metabelian.centralizer_sample.hits"] += result is not None


def _hook_bezout(rec, args, result, own, dur):
    # Whole duration: the growth sits in the Word.__pow__ child span.
    group = (args[0].m, args[0].n, args[2])
    rec.samples["metabelian.bezout_certificate.growth"].append((args[1], dur, group))


def _hook_suite(rec, args, result, own, dur):
    rec.counts["harness.trials"] += result.trials


def _hook_presentation(rec, args, result, own, dur):
    rec.counts["graph_of_groups.relators_raw"] += len(result.raw.relators)
    rec.counts["graph_of_groups.relators_simplified"] += len(result.simplified.relators)
    if rec.op_kind == "graph:amalgam":
        # Whole duration: substitute and Word.__pow__ are child spans.
        longest = max((r.length for r in result.raw.relators), default=0)
        if longest:
            rec.samples["graph_of_groups.fundamental_presentation.growth"].append(
                (longest, dur)
            )


def _hook_snf(rec, args, result, own, dur):
    rows = len(args[0])
    cells = rows * (len(args[0][0]) if rows else 0)
    rec.counts["abelianization.snf_cells"] += cells
    if cells >= GROWTH_MIN_SIZE:
        rec.samples["abelianization.smith_normal_form.growth"].append((cells, own))


HOOKS = {
    "britton.britton_reduce": _hook_reduce,
    "words.parse_word": _hook_parse,
    "words.Word.pow": _hook_pow,
    "metabelian.centralizer_sample": _hook_centralizer,
    "metabelian.bezout_certificate": _hook_bezout,
    "graph_of_groups.fundamental_presentation": _hook_presentation,
    "abelianization.smith_normal_form": _hook_snf,
}


# ---------------------------------------------------------------------------
# Installation.


class Installation:
    """Every (owner, attribute, original) that ``install`` replaced."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []

    def set(self, owner, attr, value):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(rec: Recorder) -> Installation:
    inst = Installation()
    modules = [
        m for name, m in sys.modules.items()
        if name == "baumslag" or name.startswith("baumslag.")
    ]
    replacement: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"baumslag.{layer}"]
        for attr, obj in list(vars(mod).items()):
            public = not attr.startswith("_") and inspect.isfunction(obj)
            if not public or obj.__module__ != mod.__name__:
                continue
            name = _span_name(layer, obj.__qualname__)
            hook = HOOKS.get(name)
            if name.startswith("harness.suite_"):
                hook = _hook_suite
            replacement[id(obj)] = rec.wrap(obj, name, hook)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                name = _span_name(layer, f"{cls_name}.{meth}")
                if isinstance(raw, classmethod):
                    wrapped = classmethod(rec.wrap(raw.__func__, name, HOOKS.get(name)))
                else:
                    wrapped = rec.wrap(raw, name, HOOKS.get(name))
                inst.set(cls, meth, wrapped)
    # Rebind module attributes and from-import bindings everywhere.
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replacement and inspect.isfunction(obj):
                inst.set(mod, attr, replacement[id(obj)])
    return inst


# ---------------------------------------------------------------------------
# Derived per-layer metrics.


def _slope(samples, x_log: bool) -> tuple[float, int]:
    """Least-squares slope of log(time) against log(size) (x_log) or size.

    Samples are (size, seconds) or (size, seconds, group).  Within each
    group the samples are bucketed by size and the median time of each
    bucket is used; groups share the slope but not the intercept.  The
    slope is None when no group has two buckets.
    """
    groups: dict[object, dict[float, list[float]]] = defaultdict(lambda: defaultdict(list))
    for sample in samples:
        size, seconds = sample[0], sample[1]
        if seconds > 0:
            key = round(math.log2(size) * 2) / 2 if x_log else size
            groups[sample[2] if len(sample) > 2 else None][key].append(seconds)
    sxy = sxx = 0.0
    for buckets in groups.values():
        if len(buckets) < 2:
            continue
        xs = [k * math.log(2) if x_log else k for k in buckets]
        ys = [math.log(statistics.median(v)) for v in buckets.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        sxx += sum((x - mx) ** 2 for x in xs)
        sxy += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return (sxy / sxx if sxx else None), len(samples)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer_metrics(rec: Recorder, tail_fraction: float) -> tuple[dict, list[str]]:
    """Return ({metric: (value, unit)}, notes) from a finished traced run."""
    out: dict[str, tuple[float, str]] = {}
    notes: list[str] = []

    def calls(name):
        return rec.calls[rec.ids[name]] if name in rec.ids else 0

    def self_s(name):
        return rec.self_s[rec.ids[name]] if name in rec.ids else 0.0

    for name in (
        "cli.main", "britton.britton_reduce", "britton.eval_metabelian",
        "words.parse_word", "words.Word.pow", "metabelian.MetabelianElement.mul",
        "metabelian.MetabelianElement.pow", "metabelian.centralizer_sample",
        "metabelian.bezout_certificate", "rationals.mn_member",
        "graph_of_groups.fundamental_presentation", "abelianization.smith_normal_form",
    ):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in (
        "britton.BsWord.from_text", "britton.z2_witness", "words.substitute",
        "metabelian.two_gen_classify", "metabelian.eval_word", "graph_of_groups.loads",
        "graph_of_groups.spanning_tree", "graph_of_groups.collapse_all_but_one",
    ):
        out[f"{name}.self_s"] = (self_s(name), "s")

    c = rec.counts
    out["cli.output_bytes"] = (c["cli.output_bytes"], "bytes")
    out["harness.trials"] = (c["harness.trials"], "count")
    sampled = calls("metabelian.centralizer_sample")
    out["harness.centralizer_hit_ratio"] = (
        c["metabelian.centralizer_sample.hits"] / sampled if sampled else 0.0, "ratio"
    )
    out["britton.pinches"] = (c["britton.pinches"], "count")
    out["britton.peak_exp_bits"] = (c["britton.peak_exp_bits"], "bits")
    out["words.parse_word.chars"] = (c["words.parse_word.chars"], "chars")
    chars = c["words.parse_word.chars"]
    out["words.parse_word.letters_per_char"] = (
        c["words.parse_word.letters"] / chars if chars else 0.0, "ratio"
    )
    out["words.Word.pow.exp_sum"] = (c["words.Word.pow.exp_sum"], "count")
    element_ops = sum(
        calls(f"metabelian.MetabelianElement.{op}") for op in ("mul", "pow")
    )
    out["rationals.mn_member_per_op"] = (
        calls("rationals.mn_member") / element_ops if element_ops else 0.0, "ratio"
    )
    out["graph_of_groups.relators_raw"] = (c["graph_of_groups.relators_raw"], "count")
    out["graph_of_groups.relators_simplified"] = (
        c["graph_of_groups.relators_simplified"], "count"
    )
    out["abelianization.snf_cells"] = (c["abelianization.snf_cells"], "count")

    # Layer totals and shares of self time, over all ops and over the
    # slowest ops (the tail fraction of the traced ops, at least ten).
    total = sum(rec.self_s)
    per_layer = defaultdict(float)
    for nid, name in enumerate(rec.names):
        per_layer[layer_of(name)] += rec.self_s[nid]
    ranked = sorted(rec.ops, key=lambda o: o[0], reverse=True)
    slow = ranked[: max(10, math.ceil(tail_fraction * len(ranked)))]
    slow_layer = defaultdict(float)
    slow_name = defaultdict(float)
    for _, _, shares in slow:
        for nid, own in shares.items():
            slow_layer[layer_of(rec.names[nid])] += own
            slow_name[rec.names[nid]] += own
    slow_total = sum(slow_layer.values())
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_layer[layer], "s")
        out[f"{layer}.self_share"] = (per_layer[layer] / total if total else 0.0, "ratio")
        out[f"{layer}.tail_share"] = (
            slow_layer[layer] / slow_total if slow_total else 0.0, "ratio"
        )
    # Time inside an op but outside every layer span: the benchmark's own
    # glue (capturing CLI output, packing results) and unwrapped helpers.
    out["bench.self_s"] = (per_layer["bench"], "s")
    for name in ("words.Word.pow", "abelianization.smith_normal_form"):
        out[f"{name}.tail_share"] = (
            slow_name[name] / slow_total if slow_total else 0.0, "ratio"
        )
    kinds = defaultdict(int)
    for _, kind, _ in slow:
        kinds[kind] += 1
    notes.append(
        f"slowest {len(slow)} of {len(ranked)} traced ops: "
        + ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items(), key=lambda kv: -kv[1]))
    )

    for metric, x_log, unit in (
        ("words.parse_word.growth", True, "loglog"),
        ("metabelian.bezout_certificate.growth", False, "x/k"),
        ("abelianization.smith_normal_form.growth", True, "loglog"),
        ("graph_of_groups.fundamental_presentation.growth", True, "loglog"),
    ):
        slope, count = _slope(rec.samples[metric], x_log)
        if slope is None:
            value = 0.0  # no sizes to compare on this workload
        else:
            value = slope if x_log else math.exp(slope)
        out[metric] = (value, unit)
        notes.append(f"{metric}: {count} samples")
    out["trace.spans"] = (rec.span_count, "count")
    return out, notes
