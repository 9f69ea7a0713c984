"""In-memory span recorder and the per-layer split it yields.

The traced run wraps the public entry points of each layer (see
``PATCHES``) so every call records one span: name, start, end, parent,
thread and request id.  Spans stay in memory until the run ends and are
written out then.  Nothing under ``src/`` changes: class methods are
patched on their class, module functions at the module that consumes
them (``repro.core.single_view`` binds ``build_corpus`` and
``stream_walk_corpus`` by name, ``repro.serving.service`` binds
``make_index``), and :func:`install` returns the function that undoes
every patch.

A span's *self time* is its duration minus the part of its interval
that its child spans cover (:func:`self_times`); a layer's busy time is
the sum of the self times of its spans (:func:`layer_metrics`).
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

_now = time.perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    request: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; parents come from per-thread stacks.

    A span opened on a thread whose stack is empty (a pool thread running
    one cross-view pair) takes the innermost open *anchor* span as its
    parent, so the pair epochs of a wave hang under the wave's
    ``parallel.train_pairs`` span.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._anchors: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, anchor: bool = False) -> tuple[int, int | None, float]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._anchors[-1] if self._anchors else None
        span_id = next(self._ids)
        stack.append(span_id)
        if anchor:
            self._anchors.append(span_id)
        return span_id, parent, _now()

    def end(
        self,
        name: str,
        token: tuple[int, int | None, float],
        anchor: bool = False,
    ) -> None:
        end = _now()
        span_id, parent, start = token
        self._stack().pop()
        if anchor:
            self._anchors.remove(span_id)
        span = Span(
            span_id,
            name,
            start,
            end,
            parent,
            threading.get_ident(),
            self.request,
        )
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, anchor: bool = False) -> Iterator[None]:
        token = self.begin(anchor)
        try:
            yield
        finally:
            self.end(name, token, anchor)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def write(self, path: Path) -> None:
        """Dump every span (sorted by id) and counter as JSON."""
        spans = sorted(self.spans, key=lambda s: s.id)
        payload = {
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "thread": s.thread,
                    "request": s.request,
                }
                for s in spans
            ],
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _wrap_call(
    rec: SpanRecorder,
    name: str,
    fn: Callable,
    after: Callable | None = None,
    anchor: bool = False,
) -> Callable:
    """A span around each call; ``after(rec, args, result)`` runs once the
    span has closed, so its bookkeeping is not charged to the layer."""

    def wrapper(*args, **kwargs):
        token = rec.begin(anchor)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(name, token, anchor)
        if after is not None:
            after(rec, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _traced_iter(
    rec: SpanRecorder,
    name: str,
    iterator: Iterable,
    after: Callable | None,
) -> Iterator:
    """Re-yield ``iterator`` with one span per ``next()``: a generator's
    work happens when it is advanced, not when it is created.  Closing
    the wrapper closes the wrapped generator, as closing it would."""
    iterator = iter(iterator)
    try:
        while True:
            token = rec.begin()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                rec.end(name, token)
            if after is not None:
                after(rec, None, item)
            yield item
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()


def _wrap_gen(
    rec: SpanRecorder, name: str, fn: Callable, after: Callable | None = None
) -> Callable:
    def wrapper(*args, **kwargs):
        return _traced_iter(rec, name, fn(*args, **kwargs), after)

    wrapper.__wrapped__ = fn
    return wrapper


# counters recorded next to the spans -----------------------------------
def _count_walks(rec: SpanRecorder, _args, corpus) -> None:
    rec.count("walks.walks", len(corpus.lengths))
    rec.count("walks.steps", float(np.sum(corpus.lengths)))


def _count_batch(rec: SpanRecorder, _args, batch) -> None:
    rec.count("pipeline.batches")
    rec.count("pipeline.pairs", batch.centers.size)


def _count_pairs(rec: SpanRecorder, args, _result) -> None:
    rec.count("skipgram.pairs", np.size(args[1]))


# np.unique on every row update would cost the traced fit several
# percent; one update in UNIQUE_SAMPLE is enough for the ratio
UNIQUE_SAMPLE = 16


def _count_rows(rec: SpanRecorder, args, _result) -> None:
    rows = np.asarray(args[1])
    rec.count("optim.row_sgd.rows", rows.size)
    rec.count("optim.row_sgd.updates")
    if rec.counts["optim.row_sgd.updates"] % UNIQUE_SAMPLE == 1:
        rec.count("optim.row_sgd.sampled_rows", rows.size)
        rec.count("optim.row_sgd.sampled_unique", np.unique(rows).size)


def _count_chunks(rec: SpanRecorder, _args, losses) -> None:
    rec.count("cross_view.chunks", losses.num_paths)


def _count_queries(rec: SpanRecorder, args, _result) -> None:
    rec.count("index.search_queries", np.atleast_2d(args[1]).shape[0])


# (module, attribute path, span name, kind, after, anchor)
#   kind "call": span per call; "gen": span per next() of the result
PATCHES = (
    ("repro.core.single_view", "build_corpus", "walks.build_corpus",
     "call", _count_walks, False),
    ("repro.core.single_view", "stream_walk_corpus", "walks.stream_corpus",
     "gen", _count_walks, False),
    ("repro.engine.parallel", "ParallelRuntime.build_corpus",
     "walks.wait_build", "call", _count_walks, False),
    ("repro.engine.parallel", "ParallelRuntime.stream_corpus",
     "walks.wait_stream", "gen", _count_walks, False),
    ("repro.engine.pipeline", "CorpusPipeline.epoch", "pipeline.epoch",
     "gen", _count_batch, False),
    ("repro.engine.pipeline", "StreamingCorpusPipeline.epoch",
     "pipeline.epoch", "gen", _count_batch, False),
    ("repro.skipgram.trainer", "SkipGramTrainer.train_batch",
     "skipgram.train_batch", "call", _count_pairs, False),
    ("repro.nn.optim", "RowSGD.update", "optim.row_sgd", "call",
     _count_rows, False),
    ("repro.nn.optim", "RowAdam.update", "optim.row_adam", "call",
     None, False),
    ("repro.nn.optim", "Adam.step", "optim.adam", "call", None, False),
    ("repro.core.cross_view", "CrossViewTrainer.train_epoch",
     "cross_view.train_epoch", "call", _count_chunks, False),
    ("repro.core.translator", "Translator.forward", "cross_view.forward",
     "call", None, False),
    ("repro.autograd.tensor", "Tensor.backward", "cross_view.backward",
     "call", None, False),
    ("repro.engine.parallel", "ParallelRuntime.train_pairs",
     "parallel.train_pairs", "call", None, True),
    ("repro.serving.store", "EmbeddingStore.vectors", "store.vectors",
     "call", None, False),
    ("repro.serving.service", "make_index", "index.build", "call",
     None, False),
    ("repro.serving.index", "IVFIndex.search", "index.search", "call",
     _count_queries, False),
    ("repro.serving.service", "EmbeddingService.top_k", "service.top_k",
     "call", None, False),
    ("repro.serving.service", "EmbeddingService.score_links",
     "service.score_links", "call", None, False),
)


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Patch every entry in :data:`PATCHES`; returns the undo function."""
    undo: list[tuple[object, str, object]] = []
    for module_name, path, name, kind, after, anchor in PATCHES:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        if kind == "gen":
            wrapped = _wrap_gen(rec, name, original, after)
        else:
            wrapped = _wrap_call(rec, name, original, after, anchor)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    clipped to the span (children on pool threads may overlap)."""
    kids: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        kids[span.parent].append(span)
    out = {}
    for span in spans:
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in kids.get(span.id, ())
            if c.end > span.start and c.start < span.end
        )
        out[span.id] = span.duration - covered
    return out


def layer_of(name: str) -> str:
    """Span name -> layer (``optim.row_sgd`` keeps its second part)."""
    head, _, rest = name.partition(".")
    if head == "optim":
        return f"optim.{rest}"
    return head


def coverage(
    spans: list[Span], marker: Span, layers: set[str], phase_s: float
) -> float:
    """Share of ``phase_s`` covered by the union of the ``marker``'s
    direct child spans that belong to ``layers``."""
    covered = union_length(
        (s.start, s.end)
        for s in spans
        if s.parent == marker.id and layer_of(s.name) in layers
    )
    return covered / phase_s if phase_s > 0 else 0.0


def _safe_div(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """The span-derived per-layer metrics (the workload adds the
    ``loop``, ``eval``, ``store.write/open`` and ``loadgen`` figures)."""
    spans = list(rec.spans)
    selfs = self_times(spans)
    own: dict[str, float] = defaultdict(float)  # self time per span name
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        own[span.name] += selfs[span.id]
        total[span.name] += span.duration
        calls[span.name] += 1
    busy: dict[str, float] = defaultdict(float)
    for name, seconds in own.items():
        busy[layer_of(name)] += seconds
    c = rec.counts

    by_id = {s.id: s for s in spans}
    pair_time = sum(
        s.duration
        for s in spans
        if s.name == "cross_view.train_epoch"
        and s.parent in by_id
        and by_id[s.parent].name == "parallel.train_pairs"
    )
    wave_time = total["parallel.train_pairs"]
    walk_busy = own["walks.build_corpus"] + own["walks.stream_corpus"]
    walk_wait = own["walks.wait_build"] + own["walks.wait_stream"]
    search_queries = c["index.search_queries"]
    return {
        "walks.busy_s": walk_busy,
        "walks.wait_s": walk_wait,
        "walks.walks": c["walks.walks"],
        "walks.steps": c["walks.steps"],
        "walks.steps_per_s": _safe_div(
            c["walks.steps"], walk_busy + walk_wait
        ),
        "pipeline.busy_s": busy["pipeline"],
        "pipeline.batches": c["pipeline.batches"],
        "pipeline.pairs": c["pipeline.pairs"],
        "skipgram.busy_s": busy["skipgram"],
        "skipgram.calls": calls["skipgram.train_batch"],
        "skipgram.pairs_per_s": _safe_div(
            c["skipgram.pairs"], total["skipgram.train_batch"]
        ),
        "optim.row_sgd.busy_s": busy["optim.row_sgd"],
        "optim.row_sgd.calls": calls["optim.row_sgd"],
        "optim.row_sgd.rows": c["optim.row_sgd.rows"],
        "optim.row_sgd.unique_frac": _safe_div(
            c["optim.row_sgd.sampled_unique"],
            c["optim.row_sgd.sampled_rows"],
        ),
        "optim.row_adam.busy_s": busy["optim.row_adam"],
        "optim.row_adam.calls": calls["optim.row_adam"],
        "optim.adam.busy_s": busy["optim.adam"],
        "cross_view.busy_s": busy["cross_view"],
        "cross_view.chunks": c["cross_view.chunks"],
        "cross_view.forward_s": total["cross_view.forward"],
        "cross_view.backward_s": total["cross_view.backward"],
        "parallel.pair_waves_s": wave_time,
        "parallel.pair_overlap": _safe_div(pair_time, wave_time),
        "store.vectors_calls": calls["store.vectors"],
        "store.vectors_s": total["store.vectors"],
        "index.build_s": total["index.build"],
        "index.search_calls": calls["index.search"],
        "index.search_queries": search_queries,
        "index.search_ms_per_query": _safe_div(
            total["index.search"] * 1e3, search_queries
        ),
        "service.topk_busy_s": own["service.top_k"],
        "service.link_busy_s": own["service.score_links"],
    }
