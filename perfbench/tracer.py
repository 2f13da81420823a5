"""Span tracer that wraps xcross's public functions from outside the program.

`Tracer.install` replaces every public function of the traced modules with
a wrapper, under every name an xcross module binds it to: callers import
functions by name (``from .ibt import ibt_stage``), so patching only the
defining module would miss most calls.  Each wrapper records a span
``(id, parent, name, start, end, op)`` in memory and bumps the work counters
listed in `_COUNTERS`; `dump` writes the spans out at the end.

`layer_metrics` turns spans and counters into the per-layer metrics: a span's
self time is its duration minus the time its child spans cover, charged to
the metric of its name or, for helpers, to the metric of the nearest
same-layer caller.  All clocks are ``time.monotonic`` (CLOCK_MONOTONIC),
which is system-wide on Linux, so spans from CLI child processes line up
with the benchmark's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: The xcross modules whose public functions are traced, one layer each.
LAYERS = (
    "chaotic_maps", "key_schedule", "pipeline", "permutation", "ibt",
    "substitution", "analysis", "image_io", "cli",
)

#: One-step recurrences, called once per map step (millions of times per
#: derivation); a wrapper on them would cost more than the work it measures.
#: Their time is inside the iterate_lshm / iterate_clt spans.
_UNTRACED = {"chaotic_maps.lshm_step", "chaotic_maps.clt_step"}

#: Span name -> metric its self time is charged to.  Names not listed are
#: helpers and inherit the metric of their nearest same-layer caller.
_METRIC = {
    "chaotic_maps.iterate_lshm": "chaotic_maps.lshm_s",
    "chaotic_maps.iterate_clt": "chaotic_maps.clt_s",
    "key_schedule.build_extraction_arrays": "key_schedule.extraction_arrays_self_s",
    "key_schedule.build_extraction_keys": "key_schedule.extraction_keys_s",
    "key_schedule.build_operation_matrix": "key_schedule.opmatrix_self_s",
    "key_schedule.build_sboxes": "key_schedule.sboxes_self_s",
    "key_schedule.parse_key": "key_schedule.parse_key_s",
    "key_schedule.random_key_material": "key_schedule.keygen_s",
    "key_schedule.serialize_key": "key_schedule.keygen_s",
    "permutation.split_quadrants": "permutation.split_s",
    "permutation.permute_image": "permutation.permute_s",
    "permutation.unpermute_image": "permutation.unpermute_s",
    "permutation.merge_quadrants": "permutation.merge_s",
    "ibt.ibt_stage": "ibt.stage_s",
    "ibt.ibt_unstage": "ibt.unstage_s",
    "substitution.SubstitutionSuite": "substitution.suite_s",
    "substitution.substitution_stage": "substitution.stage_s",
    "substitution.unsubstitute_stage": "substitution.unstage_s",
    "analysis.adjacent_correlation": "analysis.correlation_s",
    "analysis.glcm": "analysis.glcm_s",
    "analysis.entropy": "analysis.entropy_s",
    "analysis.histogram_chi_square": "analysis.chi_square_s",
    "analysis.analyze": "analysis.analyze_self_s",
    "analysis.report_csv": "analysis.report_s",
    "analysis.report_text": "analysis.report_s",
    "image_io.parse_pgm": "image_io.parse_s",
    "image_io.read_pgm": "image_io.parse_s",
    "image_io.original_size_note": "image_io.parse_s",
    "image_io.write_pgm": "image_io.write_s",
    "launcher.startup": "cli.startup_s",
}
_LAYER_WIDE = {"pipeline": "pipeline.self_s", "cli": "cli.self_s"}

#: Layers whose self time is key derivation, and layers that transform or
#: measure pixels; the benchmark reports each group's share of the op time.
DERIVATION = ("chaotic_maps", "key_schedule")
TRANSFORM = ("permutation", "ibt", "substitution", "analysis")

_INDEX_BYTES = 8  # np.intp, the dtype of the X-Cross emission order


def _steps(tracer, args, kwargs, result, counter):
    from xcross.chaotic_maps import TRANSIENT
    tracer.counts[counter] += args[1] + TRANSIENT


def _quad_bytes(q):
    return sum(int(b.size) for b in q)


# Work counters, computed from the arguments and results of a call.  Bytes
# moved count each byte read or written once, index arrays at their width.
_COUNTERS = {
    "chaotic_maps.iterate_lshm": functools.partial(_steps, counter="chaotic_maps.lshm_steps"),
    "chaotic_maps.iterate_clt": functools.partial(_steps, counter="chaotic_maps.clt_steps"),
    "permutation.split_quadrants":
        lambda t, a, k, r: t.add("permutation.bytes_moved", 2 * a[0].size),
    "permutation.merge_quadrants":
        lambda t, a, k, r: t.add("permutation.bytes_moved", 4 * _quad_bytes(a[0])),
    "permutation.permute_image":
        lambda t, a, k, r: t.add("permutation.bytes_moved", 3 * _quad_bytes(a[0])),
    "permutation.unpermute_image":
        lambda t, a, k, r: t.add("permutation.bytes_moved", 3 * _quad_bytes(a[0])),
    "permutation.xcross_permute":
        lambda t, a, k, r: t.add("permutation.bytes_moved", (2 + _INDEX_BYTES) * a[0].size),
    "permutation.xcross_unpermute":
        lambda t, a, k, r: t.add("permutation.bytes_moved", (2 + _INDEX_BYTES) * a[0].size),
    "ibt.ibt_apply": lambda t, a, k, r: t.add("ibt.bits_permuted", 8 * a[0].size),
    "ibt.ibt_invert": lambda t, a, k, r: t.add("ibt.bits_permuted", 8 * a[0].size),
    "image_io.parse_pgm": lambda t, a, k, r: t.add("image_io.bytes", len(a[0])),
    "image_io.write_pgm": lambda t, a, k, r: t.add("image_io.bytes", len(r)),
    "pipeline.derive_context": lambda t, a, k, r: t.note_derived(r),
    "pipeline.encrypt": lambda t, a, k, r: t.note_key((a[1], a[0].shape)),
    "pipeline.decrypt": lambda t, a, k, r: t.note_key((a[1], a[0].shape)),
    "pipeline.encrypt_with_context": lambda t, a, k, r: t.note_context(a[1]),
    "pipeline.decrypt_with_context": lambda t, a, k, r: t.note_context(a[1]),
}


class Tracer:
    """Records spans and counters for calls into xcross while installed."""

    def __init__(self, root: str | None = None, op: str | None = None,
                 seen: set | None = None) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = op
        self._root = root
        self._stack: list[tuple[str, str]] = []  # open (span id, name)
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []
        # (key, shape) pairs and derived contexts already used in this process
        self.seen: set = set() if seen is None else seen

    # -- recording ---------------------------------------------------------

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] += int(amount)

    def note_key(self, key_and_shape) -> None:
        """Count an encrypt/decrypt call and whether its (key, shape) repeats."""
        self.counts["pipeline.key_calls"] += 1
        if key_and_shape in self.seen:
            self.counts["pipeline.key_repeats"] += 1
        self.seen.add(key_and_shape)

    def note_derived(self, ctx) -> None:
        self.counts["pipeline.derive_calls"] += 1
        self.seen.add(("context", id(ctx)))

    def note_context(self, ctx) -> None:
        # a *_with_context call made by encrypt/decrypt was counted there
        if self._stack and self._stack[-1][1] in ("pipeline.encrypt", "pipeline.decrypt"):
            return
        self.note_key(("context", id(ctx)))

    def _new_id(self) -> str:
        return f"{self._pid}.{next(self._ids)}"

    def current(self) -> str | None:
        """Id of the innermost open span (the parent of the next one)."""
        return self._stack[-1][0] if self._stack else self._root

    def record(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (child of the open span)."""
        self.spans.append((self._new_id(), self.current(), name, start, end, self.op))

    @contextmanager
    def region(self, name: str):
        """Record one span around a block of code."""
        sid = self._new_id()
        self._stack.append((sid, name))
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            self._stack.pop()
            self.spans.append((sid, self.current(), name, start, end, self.op))

    def _wrap(self, name: str, fn):
        tracer = self
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.region(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public xcross function under every name bound to it."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"xcross.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in _UNTRACED):
                    wrappers[obj] = self._wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "xcross" and not modname.startswith("xcross."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        # the suite's table building runs in its dataclass __post_init__
        suite = sys.modules["xcross.substitution"].SubstitutionSuite
        self._saved.append((suite, "__post_init__", suite.__post_init__))
        suite.__post_init__ = self._wrap("substitution.SubstitutionSuite", suite.__post_init__)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Append the spans and counters as JSON lines."""
        with open(path, "a", encoding="ascii") as fh:
            for sid, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": op}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def load(path: str) -> tuple[list[tuple], Counter]:
    """Read spans and summed counters back from `Tracer.dump` output."""
    spans, counts = [], Counter()
    with open(path, encoding="ascii") as fh:
        for line in fh:
            rec = json.loads(line)
            if "counts" in rec:
                counts.update(rec["counts"])
            else:
                spans.append((rec["id"], rec["parent"], rec["name"],
                              rec["start"], rec["end"], rec["op"]))
    return spans, counts


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Span id -> duration minus the time covered by its child spans."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for sid, parent, _, start, end, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[tuple], counts: Counter) -> dict[str, float]:
    """Per-layer totals for one set of spans: self times by metric and layer, counts."""
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    metric_of: dict[str, str | None] = {}

    def metric(sid: str) -> str | None:
        if sid not in metric_of:
            _, parent, name, *_ = by_id[sid]
            found = _METRIC.get(name) or _LAYER_WIDE.get(_layer(name))
            if found is None and parent in by_id and _layer(by_id[parent][2]) == _layer(name):
                found = metric(parent)
            metric_of[sid] = found
        return metric_of[sid]

    out: dict[str, float] = defaultdict(float)
    for sid, _, name, start, end, _ in spans:
        m = metric(sid)
        if m is not None:
            out[m] += own[sid]
        layer = _layer(name)
        if layer in LAYERS and layer not in _LAYER_WIDE:
            out[f"{layer}.self_s"] += own[sid]
        if name == "pipeline.derive_context":
            out["pipeline.derive_context_s"] += end - start
    for name, value in counts.items():
        out[name] += value
    return out
