"""Spans around the engine's public entry points, and the per-layer metrics.

A `Tracer` replaces each traced function by a wrapper that records a span:
name, start, end and parent.  Spans stay in memory; `aggregate` turns them
into per-name counts, total time and self time (a span's duration minus the
time its child spans cover).

Functions are patched wherever their name is looked up: `monoid.py` binds
`enumerate_monoid` by name and `cli.py` binds `generate_*` and `verify_*`
by name, so patching only the defining module would record nothing.

`PartialInjection.__mul__` is not wrapped, since a span per product would
distort every other span; `count_products` counts products in a separate
pass instead.

Run as a script, this module is the traced child of the cold workloads:
    PYTHONPATH=src python perfbench/tracing.py trace|count <renner argv...>
It calls `rennermonoids.cli.main(argv)` in this fresh interpreter and
prints one JSON object: exit code, CLI output, and span aggregates (trace)
or the product count (count).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
import weakref

import common  # also puts src/ on sys.path

_MODULES = ("model", "coxeter", "lattice", "monoid", "presentation", "cli")

# (module, class, methods) whose methods are patched on the class.
_METHODS = (
    ("coxeter", "WeylGroup", ("__init__", "min_coset_rep", "reduced_word", "parabolic")),
    ("lattice", "CrossSectionLattice", ("__init__",)),
    (
        "monoid",
        "RennerMonoid",
        (
            "__init__",
            "normal_decompose",
            "multiply",
            "canonical_word",
            "left_mult_generator",
            "evaluate",
        ),
    ),
)
# (module, function) patched in every rennermonoids module that binds it.
_FUNCTIONS = (
    ("model", "enumerate_monoid"),
    ("presentation", "generate_full"),
    ("presentation", "generate_reduced"),
    ("presentation", "generate_explicit"),
    ("presentation", "verify_relations"),
    ("presentation", "verify_completeness"),
    ("cli", "main"),
)

WEYL = "coxeter.WeylGroup.__init__"
MIN_COSET = "coxeter.WeylGroup.min_coset_rep"
REDUCED_WORD = "coxeter.WeylGroup.reduced_word"
PARABOLIC = "coxeter.WeylGroup.parabolic"
LATTICE = "lattice.CrossSectionLattice.__init__"
ENGINE = "monoid.RennerMonoid.__init__"
ND_HIT = "monoid.RennerMonoid.normal_decompose.hit"
ND_MISS = "monoid.RennerMonoid.normal_decompose.miss"
MULTIPLY = "monoid.RennerMonoid.multiply"
CANONICAL = "monoid.RennerMonoid.canonical_word"
LEFT_MULT = "monoid.RennerMonoid.left_mult_generator"
EVALUATE = "monoid.RennerMonoid.evaluate"
ENUMERATE = "model.enumerate_monoid"
GENERATE = tuple(f"presentation.generate_{f}" for f in ("full", "reduced", "explicit"))
VERIFY_RELATIONS = "presentation.verify_relations"
VERIFY_COMPLETENESS = "presentation.verify_completeness"
CLI_MAIN = "cli.main"

# Spans whose individual durations are kept for per-call medians.
_PER_CALL = {ND_HIT, ND_MISS, MULTIPLY, CANONICAL, LEFT_MULT, EVALUATE}

_BUILD = (WEYL, MIN_COSET, PARABOLIC, LATTICE, ENGINE)
# Spans each workload must record with a non-empty self time.
EXPECTED = {
    "session": _BUILD
    + (ND_HIT, ND_MISS, REDUCED_WORD, CANONICAL, MULTIPLY, LEFT_MULT, EVALUATE),
    "sweep": _BUILD + (ENUMERATE, ND_MISS, REDUCED_WORD, CANONICAL, CLI_MAIN),
    "certify": _BUILD
    + (ENUMERATE, REDUCED_WORD, EVALUATE, *GENERATE, VERIFY_RELATIONS)
    + (VERIFY_COMPLETENESS, CLI_MAIN),
}

# Per-layer metrics: name, unit, which direction is better, and the
# (end-to-end metric, workload) pairs it should move, written down before
# any change is measured.  BENCHMARK.json lists the first three fields.
_BUILD_MOVES = (
    ("setup_s", "session"),
    ("setup_s", "sweep"),
    ("setup_s", "certify"),
    ("wall_s", "certify"),
)
_ENUM_MOVES = (
    ("wall_s", "certify"),
    ("elements_per_s", "certify"),
    ("wall_s", "sweep"),
    ("elements_per_s", "sweep"),
)
_MISS_MOVES = (("elements_per_s", "sweep"), ("query_p99_us", "session"))
_HIT_MOVES = (("query_p50_us", "session"), ("queries_per_s", "session"))
PER_LAYER = (
    ("coxeter.weyl_build_s", "s", "lower", _BUILD_MOVES),
    ("coxeter.min_coset_rep_calls", "count", "lower", _BUILD_MOVES),
    ("coxeter.min_coset_rep_s", "s", "lower", _BUILD_MOVES),
    ("coxeter.parabolic_s", "s", "lower", _BUILD_MOVES),
    ("coxeter.reduced_word_s", "s", "lower", _MISS_MOVES),
    ("lattice.build_self_s", "s", "lower", _BUILD_MOVES),
    ("monoid.tables_self_s", "s", "lower", _BUILD_MOVES),
    ("model.enumerate_monoid_s", "s", "lower", _ENUM_MOVES),
    ("model.enumerate_monoid_elements", "count", "lower", _ENUM_MOVES),
    ("model.products", "count", "lower", _ENUM_MOVES),
    ("monoid.normal_decompose_calls", "count", "lower", _MISS_MOVES),
    ("monoid.normal_decompose_repeat_share", "share", "higher", _MISS_MOVES),
    ("monoid.normal_decompose_miss_us", "us", "lower", _MISS_MOVES),
    ("monoid.normal_decompose_hit_us", "us", "lower", _HIT_MOVES),
    ("monoid.canonical_word_us", "us", "lower", _MISS_MOVES),
    ("monoid.multiply_us", "us", "lower", _HIT_MOVES),
    ("monoid.left_mult_generator_us", "us", "lower", _HIT_MOVES),
    ("monoid.evaluate_us", "us", "lower", _HIT_MOVES),
    ("presentation.generate_s", "s", "lower", (("wall_s", "certify"),)),
    ("presentation.verify_relations_s", "s", "lower", (("wall_s", "certify"),)),
    ("presentation.verify_completeness_self_s", "s", "lower", (("wall_s", "certify"),)),
    ("cli.main_self_s", "s", "lower", (("wall_s", "sweep"),)),
    ("cli.output_bytes", "bytes", "lower", (("wall_s", "sweep"),)),
    ("trace.overhead_s", "s", "lower", ()),  # the cost of tracing; moves nothing
)


class Tracer:
    """Records spans while installed; `uninstall` restores every original."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, tag]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # Engine -> images of elements already passed to normal_decompose.
        self.seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = before(args) if before else None
            rec = [name, 0, 0, stack[-1] if stack else -1, tag]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                rec[4] = after(result)
            return result

        return wrapper

    def _judge(self, args) -> str:
        engine, x = args[0], args[1]
        seen = self.seen.setdefault(engine, set())
        if x.image in seen:
            return "hit"
        seen.add(x.image)
        return "miss"

    def install(self) -> None:
        """Patch every traced entry point wherever it is bound."""
        package = importlib.import_module("rennermonoids")
        mods = {m: importlib.import_module(f"rennermonoids.{m}") for m in _MODULES}
        for mod, cls_name, methods in _METHODS:
            cls = getattr(mods[mod], cls_name)
            for meth in methods:
                name = f"{mod}.{cls_name}.{meth}"
                orig = cls.__dict__[meth]
                before = self._judge if meth == "normal_decompose" else None
                setattr(cls, meth, self._wrap(name, orig, before=before))
                self._undo.append((cls, meth, orig))
        for mod, fn_name in _FUNCTIONS:
            orig = getattr(mods[mod], fn_name)
            after = len if fn_name == "enumerate_monoid" else None
            wrapper = self._wrap(f"{mod}.{fn_name}", orig, after=after)
            for module in (package, *mods.values()):
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def take(self) -> dict:
        """Aggregate the spans recorded so far and start a fresh list."""
        out = aggregate(self.spans)
        self.spans.clear()
        return out


def _empty() -> dict:
    return {"count": 0, "total_ns": 0, "self_ns": 0, "items": 0, "durations": []}


def aggregate(spans: list[list]) -> dict:
    """Per span name: count, total and self nanoseconds, items (elements
    returned by enumerate_monoid) and, for per-call spans, each duration."""
    child = [0] * len(spans)
    for name, start, end, parent, tag in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for k, (name, start, end, parent, tag) in enumerate(spans):
        key = f"{name}.{tag}" if isinstance(tag, str) else name
        a = out.setdefault(key, _empty())
        d = end - start
        a["count"] += 1
        a["total_ns"] += d
        a["self_ns"] += d - child[k]
        if isinstance(tag, int):
            a["items"] += tag
        if key in _PER_CALL:
            a["durations"].append(d)
    return out


def merge(parts) -> dict:
    """Sum (aggregate, weight) pairs; durations are pooled unweighted."""
    out: dict[str, dict] = {}
    for agg, weight in parts:
        for key, a in agg.items():
            b = out.setdefault(key, _empty())
            for field in ("count", "total_ns", "self_ns", "items"):
                b[field] += a[field] * weight
            b["durations"].extend(a["durations"])
    return out


def missing_spans(workload: str, agg: dict) -> list[str]:
    """Expected spans that recorded no self time on this workload."""
    return [name for name in EXPECTED[workload] if agg.get(name, {}).get("self_ns", 0) <= 0]


def layer_metrics(agg: dict, products: float, output_bytes: float, overhead_s: float) -> dict:
    def field(name, f):
        return agg.get(name, _empty())[f]

    def seconds(*names, f="total_ns"):
        return sum(field(n, f) for n in names) / 1e9

    def per_call_us(name):
        return common.median(field(name, "durations")) / 1e3

    hits, misses = field(ND_HIT, "count"), field(ND_MISS, "count")
    values = {
        "coxeter.weyl_build_s": seconds(WEYL),
        "coxeter.min_coset_rep_calls": field(MIN_COSET, "count"),
        "coxeter.min_coset_rep_s": seconds(MIN_COSET),
        "coxeter.parabolic_s": seconds(PARABOLIC),
        "coxeter.reduced_word_s": seconds(REDUCED_WORD),
        "lattice.build_self_s": seconds(LATTICE, f="self_ns"),
        "monoid.tables_self_s": seconds(ENGINE, f="self_ns"),
        "model.enumerate_monoid_s": seconds(ENUMERATE),
        "model.enumerate_monoid_elements": field(ENUMERATE, "items"),
        "model.products": products,
        "monoid.normal_decompose_calls": hits + misses,
        "monoid.normal_decompose_repeat_share": hits / (hits + misses) if hits + misses else 0.0,
        "monoid.normal_decompose_miss_us": per_call_us(ND_MISS),
        "monoid.normal_decompose_hit_us": per_call_us(ND_HIT),
        "monoid.canonical_word_us": per_call_us(CANONICAL),
        "monoid.multiply_us": per_call_us(MULTIPLY),
        "monoid.left_mult_generator_us": per_call_us(LEFT_MULT),
        "monoid.evaluate_us": per_call_us(EVALUATE),
        "presentation.generate_s": seconds(*GENERATE),
        "presentation.verify_relations_s": seconds(VERIFY_RELATIONS),
        "presentation.verify_completeness_self_s": seconds(VERIFY_COMPLETENESS, f="self_ns"),
        "cli.main_self_s": seconds(CLI_MAIN, f="self_ns"),
        "cli.output_bytes": output_bytes,
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, *_ in PER_LAYER}


def span_table(agg: dict) -> dict:
    """Compact per-span summary for the details line."""
    return {
        key: {"count": a["count"], "total_s": a["total_ns"] / 1e9, "self_s": a["self_ns"] / 1e9}
        for key, a in sorted(agg.items())
    }


def count_products():
    """Count PartialInjection products until the returned undo is called."""
    from rennermonoids.model import PartialInjection

    orig = PartialInjection.__mul__
    counter = [0]

    def counted(self, other):
        counter[0] += 1
        return orig(self, other)

    PartialInjection.__mul__ = counted
    return counter, lambda: setattr(PartialInjection, "__mul__", orig)


def _child(mode: str, argv: list[str]) -> None:
    import rennermonoids.cli as cli

    if mode == "trace":
        tracer = Tracer()
        tracer.install()
        undo = tracer.uninstall
    else:
        counter, undo = count_products()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)  # looked up after patching: the traced main
    undo()
    report = {"code": code, "output": buf.getvalue()}
    if mode == "trace":
        report["spans"] = tracer.take()
    else:
        report["products"] = counter[0]
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in ("trace", "count"):
        sys.exit("usage: tracing.py trace|count <renner arguments...>")
    _child(sys.argv[1], sys.argv[2:])
