"""The three workloads and the train -> evaluate -> serve journey they run.

Every workload walks the same user journey through the public API, so
every end-to-end metric is measured on every workload; the workloads
differ in where the weight sits:

1. set-up: generate the graph, construct ``TransN``;
2. fit: ``TransN.fit`` on a fresh model;
3. evaluate: ``run_node_classification`` (Table III protocol) after
   each fit;
4. serve set-up: the first fit's embeddings (plus, for ``serve-mixed``,
   a synthetic catalog table) are written to a TNEMB1 store, opened,
   and indexed with IVF;
5. serving, in rounds (:func:`_serve`): an online part, where one
   open-loop client at a fixed rate sends half single-node ``top_k`` and
   half ``score_links`` batches, each request timed from when it was
   due; then an offline burst, where one closed-loop client sends
   ``top_k`` batches.  A workload with serial fits runs its other fits
   (steps 1-3 again) between rounds, spread evenly over the serving
   phase;
6. recall@10 of the IVF index against brute force.

The host's other tenants slow the machine for seconds to minutes at a
time, so a run spreads its samples of each timing over its whole
length rather than taking them back to back, and reports medians.  A
serial fit runs on one CPU, taking the CPUs the process may use in
turn, so every run times each vCPU alike (a neighbour loading one
vCPU's hyperthread sibling could otherwise move a run by which vCPU it
happened to land on).

The graphs, the catalog table and the IVF quantizer are fixed
datasets, built at fixed seeds, as the paper's datasets are fixed; fit
*i* of every run trains with ``TransNConfig.seed = i``.  The workload
seed drives the classification splits and the request schedules;
nothing else is random.  (Drawing a new graph per seed moved ``fit_s``
by 20% and ``macro_f1`` by 55% between seeds; new training seeds still
moved ``macro_f1`` on ``fit-crossview-par`` by up to 23% between
quartiles; a new table moved the IVF cell sizes and with them the top-k
tail.  No bound can hold those.)
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro import TransN, TransNConfig
from repro.datasets.aminer import AMinerConfig, make_aminer
from repro.datasets.appstore import AppStoreConfig, make_appstore
from repro.engine.observability import MetricsRegistry
from repro.eval.node_classification import run_node_classification
from repro.serving import EmbeddingService, EmbeddingStore, write_store

import tracing

_now = time.perf_counter

SLO_MS = 50.0  # online latency limit, from due time
# the catalog table and the IVF index over a store are built at fixed
# seeds: like the graphs, they are the served dataset, not the traffic
DATASET_SEED = 0
# the load generator sleeps until SPIN_S before a request is due, then
# spins: an idle vCPU halts, and waking it adds milliseconds of jitter
# that a timing from due time would charge to the service
SPIN_S = 0.002
# the serving phases run in rounds (see _serve); at full size a round's
# online part holds 120-160 requests of each kind
ROUNDS = 5

# layers whose top-level spans make up each phase of a fit
PHASE_LAYERS = {
    "single_view": {"walks", "pipeline", "skipgram", "optim.row_sgd"},
    "cross_view": {"cross_view", "parallel", "optim.row_adam", "optim.adam"},
}


@dataclass(frozen=True)
class FitSpec:
    graph: str  # "appstore" or "aminer"
    graph_options: dict
    config: dict  # TransNConfig fields; the seed is the fit's index
    fits: int  # behind the fit_s median; even, so serial fits cover 2 CPUs alike
    setups: int  # set-up repetitions behind the setup_s median
    clf_repeats: int = 50  # 90/10 splits per classification


@dataclass(frozen=True)
class ServeSpec:
    catalog_rows: int  # synthetic rows stored next to the fitted ones
    catalog_clusters: int
    nlist: int
    nprobe: int
    rate: float  # online requests per second
    online_share: float
    offline_share: float
    setups: int
    dim: int = 32  # of the catalog rows
    k: int = 10
    link_batch: int = 256
    offline_batch: int = 256
    recall_queries: int = 200
    spot_every: int = 10  # one link request in N is spot-checked
    warmup: int = 20


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in ``BENCHMARK.json``."""

    name: str
    fit: FitSpec
    serve: ServeSpec

    def describe(self) -> dict:
        return {"fit": self.fit.__dict__, "serve": self.serve.__dict__}


_APPSTORE_X3 = {
    "num_applets": 3 * AppStoreConfig.num_applets,
    "num_users": 3 * AppStoreConfig.num_users,
    "num_keywords": 3 * AppStoreConfig.num_keywords,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-sgns",
            fit=FitSpec(
                graph="appstore",
                graph_options=_APPSTORE_X3,
                config={"num_iterations": 2, "workers": 0},
                fits=2,
                setups=6,
            ),
            serve=ServeSpec(
                catalog_rows=0,
                catalog_clusters=0,
                nlist=16,
                nprobe=16,
                rate=400.0,
                online_share=0.2,
                offline_share=0.08,
                setups=5,
            ),
        ),
        Workload(
            name="fit-crossview-par",
            fit=FitSpec(
                graph="aminer",
                graph_options={},
                config={
                    "dim": 128,
                    "num_encoders": 6,
                    "cross_paths_per_pair": 800,
                    "num_iterations": 1,
                    "workers": 2,
                    "stream_corpus": True,
                    "dtype": "float32",
                },
                fits=2,
                setups=6,
            ),
            serve=ServeSpec(
                catalog_rows=0,
                catalog_clusters=0,
                nlist=16,
                nprobe=16,
                rate=400.0,
                online_share=0.2,
                offline_share=0.08,
                setups=5,
            ),
        ),
        Workload(
            name="serve-mixed",
            fit=FitSpec(
                graph="aminer",
                graph_options={},
                config={"num_iterations": 2, "dtype": "float32"},
                fits=6,
                setups=3,
            ),
            serve=ServeSpec(
                catalog_rows=100_000,
                catalog_clusters=256,
                nlist=128,
                nprobe=16,
                rate=100.0,
                online_share=0.5,
                offline_share=0.15,
                setups=1,
            ),
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same journey at toy sizes: for the self-tests, not timing."""
    if workload.fit.graph == "appstore":
        graph_options = {"num_applets": 120, "num_users": 40, "num_keywords": 30}
    else:
        graph_options = {"num_authors": 60, "num_papers": 80, "num_venues": 8}
    config = dict(workload.fit.config)
    config.update(walk_length=8, num_iterations=1)
    if "dim" in config:
        config.update(dim=16, num_encoders=2, cross_paths_per_pair=20)
    serve = replace(
        workload.serve,
        catalog_rows=min(workload.serve.catalog_rows, 3000),
        catalog_clusters=min(workload.serve.catalog_clusters, 16),
        nlist=16,
        rate=200.0,
        link_batch=16,
        offline_batch=16,
        recall_queries=20,
        warmup=2,
    )
    fit = replace(
        workload.fit,
        graph_options=graph_options,
        config=config,
        setups=2,
        clf_repeats=3,
    )
    return replace(workload, fit=fit, serve=serve)


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def make_graph(spec: FitSpec):
    """``(graph, labels)``: the spec's dataset (generator default seed)."""
    if spec.graph == "appstore":
        return make_appstore(AppStoreConfig(**spec.graph_options))
    return make_aminer(AMinerConfig(**spec.graph_options))


def make_config(spec: FitSpec, seed: int) -> TransNConfig:
    return TransNConfig(**spec.config, seed=seed)


def catalog_table(rows: int, dim: int, clusters: int, seed: int) -> np.ndarray:
    """Mixture-of-Gaussians float32 rows (the law of
    ``benchmarks/bench_serving.py``), built cluster-block-wise."""
    rng = np.random.default_rng(seed)
    centers = (rng.standard_normal((clusters, dim)) * 2.0).astype(np.float32)
    matrix = np.empty((rows, dim), dtype=np.float32)
    assignment = rng.integers(0, clusters, size=rows)
    for c in range(clusters):
        members = np.flatnonzero(assignment == c)
        matrix[members] = centers[c] + 0.3 * rng.standard_normal(
            (len(members), dim)
        ).astype(np.float32)
    return matrix


@dataclass(frozen=True)
class Schedule:
    """An open-loop request schedule: request ``i`` is due ``due[i]``
    seconds after the phase starts."""

    due: np.ndarray
    is_link: np.ndarray  # False: single-node top_k
    topk_rows: np.ndarray  # query row per request
    link_rows: np.ndarray  # (requests, link_batch, 2) row pairs
    spot: np.ndarray  # link requests whose scores are re-checked


def request_schedule(
    seed: int, rate: float, duration_s: float, num_rows: int, serve: ServeSpec
) -> Schedule:
    count = max(2, int(round(rate * duration_s)))
    count -= count % 2
    rng = np.random.default_rng([seed, 1])
    is_link = rng.permutation(np.repeat([False, True], count // 2))
    return Schedule(
        due=np.arange(count) / rate,
        is_link=is_link,
        topk_rows=rng.integers(num_rows, size=count),
        link_rows=rng.integers(num_rows, size=(count, serve.link_batch, 2)),
        spot=is_link & (rng.random(count) < 1.0 / serve.spot_every),
    )


# ----------------------------------------------------------------------
# the journey
# ----------------------------------------------------------------------
class FatalError(RuntimeError):
    """A step the rest of the journey depends on failed."""


@dataclass
class Ledger:
    """Operations attempted and failed (raised or failed a check)."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> bool:
        self.attempt()
        if not ok:
            self.fail(what)
        return ok


@dataclass
class Outcome:
    metrics: dict[str, float]
    layers: dict[str, float]
    ledger: Ledger
    notes: dict[str, float]
    recorder: tracing.SpanRecorder | None


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _release() -> None:
    """Collect dropped models so a worker pool is shut down and its
    processes reaped (``TransN`` stops its runtime in a finalizer), then
    hand freed heap back to the OS: a pool forked for the next fit would
    otherwise inherit the last fit's dead heap and count it in its RSS."""
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def _load_libc():
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.malloc_trim.argtypes = [ctypes.c_size_t]
        libc.malloc_trim.restype = ctypes.c_int
    except (OSError, AttributeError):  # not glibc
        return None
    return libc


_LIBC = _load_libc()


@contextlib.contextmanager
def _on_cpu(index: int, serial: bool) -> Iterator[None]:
    """Pin a serial fit to the ``index``-th allowed CPU (in turn), then
    restore the affinity; a fit with workers or threads runs unpinned."""
    allowed = sorted(os.sched_getaffinity(0))
    if not serial or len(allowed) < 2:
        yield
        return
    os.sched_setaffinity(0, {allowed[index % len(allowed)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _span(rec: tracing.SpanRecorder | None, name: str):
    return rec.span(name) if rec is not None else contextlib.nullcontext()


def _check_embeddings(model: TransN, graph, dim: int, ledger: Ledger) -> None:
    matrix = model.embedding_matrix()
    ledger.check(
        matrix.shape == (graph.num_nodes, dim),
        f"embedding shape {matrix.shape} != {(graph.num_nodes, dim)}",
    )
    ledger.check(bool(np.isfinite(matrix).all()), "non-finite embeddings")


def _check_topk(result, query: str, k: int) -> bool:
    ids = [node for node, _ in result]
    return len(ids) == k and query not in ids and len(set(ids)) == k


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path
) -> Outcome:
    fit, serve = workload.fit, workload.serve
    ledger = Ledger()
    notes: dict[str, float] = {}
    rec: tracing.SpanRecorder | None = None
    uninstall = None
    layers: dict[str, float] = {}

    # -- set-up, fit, evaluate ----------------------------------------
    # fit i trains with TransNConfig.seed = i; macro_f1 is the mean over
    # the run's fits
    setup_times: list[float] = []
    fit_times: list[float] = []
    f1s: list[float] = []
    clf_times: list[float] = []

    def set_up(fit_index: int):
        ledger.attempt()
        start = _now()
        try:
            graph, labels = make_graph(fit)
            config = make_config(fit, fit_index)
            model = TransN(graph, config)
        except Exception as exc:
            raise FatalError(f"set-up failed: {exc!r}") from exc
        setup_times.append(_now() - start)
        return graph, labels, model

    def fit_once(model: TransN, graph, **kwargs) -> float:
        ledger.attempt()
        start = _now()
        try:
            model.fit(**kwargs)
        except Exception as exc:
            raise FatalError(f"fit failed: {exc!r}") from exc
        elapsed = _now() - start
        _check_embeddings(model, graph, model.config.dim, ledger)
        return elapsed

    def evaluate(model: TransN, labels, split_seed: int) -> None:
        ledger.attempt()
        start = _now()
        with _span(rec, "eval.node_clf"):
            try:
                result = run_node_classification(
                    model.embeddings(),
                    labels,
                    repeats=fit.clf_repeats,
                    seed=split_seed,
                )
            except Exception as exc:
                raise FatalError(f"node classification failed: {exc!r}") from exc
        clf_times.append(_now() - start)
        f1s.append(result.macro_f1)
        ledger.check(
            np.isfinite(result.macro_f1) and 0.0 <= result.macro_f1 <= 1.0,
            f"macro_f1 not recorded ({result.macro_f1!r})",
        )

    def next_fit() -> tuple:
        """Set up, fit and evaluate the run's next fit on a fresh model."""
        _release()
        graph, labels, model = set_up(len(fit_times))
        with _on_cpu(len(fit_times), serial=model.config.workers == 0):
            fit_times.append(fit_once(model, graph))
        evaluate(model, labels, 1000 * seed + len(fit_times))
        return graph, labels, model

    # extra set-ups first, while the process is small: a worker pool
    # forked next to a fitted model would inherit its heap in its RSS
    for _ in range(fit.setups - fit.fits):
        set_up(0)
        _release()
    graph, labels, model = next_fit()
    fitted_ids = [str(node) for node in graph.nodes]
    fitted = model.embedding_matrix().astype(np.float32)
    # the other fits of a serial workload run between serving rounds,
    # the k-th before round k * ROUNDS // fits.  A fit with worker
    # processes leaves them exiting and a large heap behind, which would
    # disturb the round after it, and a traced run traces one fit only:
    # those take their other fits here, before serving.
    serial = model.config.workers == 0
    model = None
    fits_before_round = [k * ROUNDS // fit.fits for k in range(1, fit.fits)]
    if trace or not serial:
        for _ in fits_before_round:
            next_fit()
        fits_before_round = []

    def fits_before(r: int) -> None:
        for _ in range(fits_before_round.count(r)):
            next_fit()
        _release()  # stops the dropped model's worker pool

    if trace:
        # one more fit, traced, on a fresh model; its time against the
        # untraced median is the tracing overhead
        _release()
        graph, labels, model = set_up(len(fit_times))
        rec = tracing.SpanRecorder()
        uninstall = tracing.install(rec)
        registry = MetricsRegistry() if model.config.workers > 0 else None
        with rec.span("loop.fit"):
            traced_s = fit_once(model, graph, metrics=registry)
        marker = next(s for s in rec.spans if s.name == "loop.fit")
        timings = model.timings
        layers["loop.single_view_s"] = timings.get("single_view", 0.0)
        layers["loop.cross_view_s"] = timings.get("cross_view", 0.0)
        layers["trace.overhead_frac"] = (
            traced_s - _median(fit_times)
        ) / _median(fit_times)
        layers["parallel.incidents"] = _incidents(registry)
        for phase, phase_layers in PHASE_LAYERS.items():
            share = tracing.coverage(
                list(rec.spans), marker, phase_layers, timings.get(phase, 0.0)
            )
            layers[f"trace.{phase}_coverage"] = share
            ledger.check(
                share >= 0.9, f"trace covers {share:.1%} of {phase} (< 90%)"
            )
        evaluate(model, labels, seed)
        layers["eval.node_clf_s"] = clf_times[-1]
    model = None
    _release()

    # -- serve set-up ----------------------------------------------------
    path = work_dir / f"{workload.name}.tnemb"
    serve_setups: list[float] = []
    store = service = None
    for _ in range(serve.setups):
        if service is not None:
            service.close()
            store.close()
        ledger.attempt()
        start = _now()
        try:
            ids, matrix = list(fitted_ids), fitted
            if serve.catalog_rows:
                table = catalog_table(
                    serve.catalog_rows,
                    serve.dim,
                    serve.catalog_clusters,
                    DATASET_SEED,
                )
                ids += [f"c{i:07d}" for i in range(serve.catalog_rows)]
                matrix = np.vstack([fitted, table])
            with _span(rec, "store.write"):
                write_s = _now()
                write_store(path, ids, matrix)
                write_s = _now() - write_s
            with _span(rec, "store.open"):
                open_s = _now()
                store = EmbeddingStore(path)
                open_s = _now() - open_s
            service = EmbeddingService(
                store,
                metric="cosine",
                index="ivf",
                nlist=serve.nlist,
                nprobe=serve.nprobe,
                seed=DATASET_SEED,
                batch_size=serve.offline_batch,
            )
            service.index  # noqa: B018 - builds the IVF index
        except Exception as exc:
            raise FatalError(f"serve set-up failed: {exc!r}") from exc
        serve_setups.append(_now() - start)
    layers["store.write_s"] = write_s
    layers["store.open_ms"] = open_s * 1e3
    setup_s = _median(setup_times) + _median(serve_setups)
    ids = store.ids
    num_rows = len(ids)

    try:
        _warm_up(service, ids, serve)
        online = _serve(
            service, store, ids, serve, seed, seconds, ledger, rec,
            before_round=fits_before,
        )
        ledger.attempt()
        recall = service.measure_recall(
            k=serve.k, sample=min(serve.recall_queries, num_rows), seed=seed
        )
        ledger.check(recall >= 0.9, f"recall@10 {recall:.3f} < 0.9")
    finally:
        service.close()
        store.close()
        path.unlink(missing_ok=True)

    if rec is not None:
        uninstall()
        layers.update(tracing.layer_metrics(rec))
        layers["loadgen.lag_p99_ms"] = online["lag_p99_ms"]

    ok_frac = 1.0 - ledger.failed / max(ledger.attempted, 1)
    macro_f1 = float(np.mean(f1s[: fit.fits]))
    metrics = {
        "setup_s": setup_s,
        "fit_s": _median(fit_times),
        "macro_f1": macro_f1,
        "peak_rss_mb": _peak_rss_mb(),
        "ok_frac": ok_frac,
        "topk_p50_ms": online["topk_p50_ms"],
        "link_p50_ms": online["link_p50_ms"],
        "online_slo_frac": online["slo_frac"],
        "recall_at_10": recall,
    }
    notes.update(
        fits=len(fit_times),
        setups=len(setup_times),
        serve_setups=len(serve_setups),
        store_rows=num_rows,
        topk_samples=online["topk_samples"],
        link_samples=online["link_samples"],
        topk_p95_ms=online["topk_p95_ms"],
        link_p95_ms=online["link_p95_ms"],
        batches=online["batches"],
        batch_topk_qps=online["batch_qps"],
        failed_frac=ledger.failed / max(ledger.attempted, 1),
    )
    return Outcome(metrics, layers, ledger, notes, rec)


def _incidents(registry: MetricsRegistry | None) -> float:
    """``parallel/*`` and ``spill/*`` incident counters of a fit."""
    if registry is None:
        return 0.0
    snap = registry.snapshot()
    kinds = {
        event["kind"]
        for event in snap["events"]
        if str(event.get("kind", "")).startswith(("parallel/", "spill/"))
    }
    return float(sum(snap["counters"].get(kind, 0.0) for kind in kinds))


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (the
    worker-pool processes), in MiB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _warm_up(service: EmbeddingService, ids: list[str], serve: ServeSpec) -> None:
    """Fill lazy state (id table, row index, first-call paths); discarded."""
    for i in range(serve.warmup):
        service.top_k([ids[i % len(ids)]], k=serve.k)
        pairs = [(ids[i % len(ids)], ids[(i + j) % len(ids)]) for j in range(serve.link_batch)]
        service.score_links(pairs)
    service.top_k(ids[: serve.offline_batch], k=serve.k)


def _serve(
    service: EmbeddingService,
    store: EmbeddingStore,
    ids: list[str],
    serve: ServeSpec,
    seed: int,
    seconds: float,
    ledger: Ledger,
    rec: tracing.SpanRecorder | None,
    before_round: Callable[[int], object],
) -> dict[str, float]:
    """The online and offline phases, in ROUNDS alternating rounds.

    Round r runs the r-th fifth of the open-loop schedule (re-based to
    the round's start, so no backlog crosses into a burst), then an
    offline burst of closed-loop ``top_k`` batches.  The phases never
    overlap, and spreading both over the whole run lets a burst of noise
    from other tenants of the machine move one round of each, not the
    run.  Timings are medians over rounds (online) and batches (offline).
    ``before_round(r)`` runs before round ``r`` starts its clock.
    """
    schedule = request_schedule(
        seed, serve.rate, serve.online_share * seconds, len(ids), serve
    )
    count = schedule.due.size
    latency = np.full(count, np.inf)
    lag = np.zeros(count)
    spot: list[tuple[np.ndarray, np.ndarray]] = []
    batch_rng = np.random.default_rng([seed, 2])
    batch_s: list[float] = []
    burst_s = serve.offline_share * seconds / ROUNDS
    rounds = np.array_split(np.arange(count), ROUNDS)
    ledger.attempt(count)
    for r, requests in enumerate(rounds):
        before_round(r)
        origin = _now() + 0.01 - schedule.due[requests[0]]
        for i in requests:
            latency[i], lag[i] = _request(
                service, ids, serve, schedule, i, origin + schedule.due[i],
                spot, ledger, rec,
            )
        batch_s += _offline_burst(service, ids, serve, batch_rng, burst_s, ledger)

    matrix = store.matrix
    for rows, scores in spot:
        left = matrix[rows[:, 0]].astype(np.float64)
        right = matrix[rows[:, 1]].astype(np.float64)
        expected = (left * right).sum(axis=1)
        scale = np.linalg.norm(left, axis=1) * np.linalg.norm(right, axis=1)
        ledger.check(
            bool(np.all(np.abs(scores - expected) <= 1e-12 * scale + 1e-300)),
            "score_links differs from the float64 inner product",
        )

    latency_ms = latency * 1e3
    ok = np.isfinite(latency_ms)

    def percentile(link: bool, q: float) -> float:
        """Median over rounds of the round's q-th percentile."""
        per_round = []
        for r in rounds:
            kept = latency_ms[r][ok[r] & (schedule.is_link[r] == link)]
            if kept.size:
                per_round.append(_percentile(kept, q))
        return _median(per_round) if per_round else float("nan")

    return {
        "topk_p50_ms": percentile(False, 50),
        "topk_p95_ms": percentile(False, 95),
        "link_p50_ms": percentile(True, 50),
        "link_p95_ms": percentile(True, 95),
        "slo_frac": float(np.mean(latency_ms <= SLO_MS)),
        "batch_qps": (
            serve.offline_batch / _median(batch_s) if batch_s else float("nan")
        ),
        "lag_p99_ms": _percentile(lag * 1e3, 99),
        "topk_samples": int(np.sum(ok & ~schedule.is_link)),
        "link_samples": int(np.sum(ok & schedule.is_link)),
        "batches": len(batch_s),
    }


def _request(
    service: EmbeddingService,
    ids: list[str],
    serve: ServeSpec,
    schedule: Schedule,
    i: int,
    due: float,
    spot: list,
    ledger: Ledger,
    rec: tracing.SpanRecorder | None,
) -> tuple[float, float]:
    """Send request ``i`` at ``due``; returns (latency from due, or inf
    if it failed, and how late it was sent)."""
    wait = due - _now()
    if wait > SPIN_S:
        time.sleep(wait - SPIN_S)
    while _now() < due:
        pass
    lag = _now() - due
    if rec is not None:
        rec.request = int(i)
    try:
        if schedule.is_link[i]:
            rows = schedule.link_rows[i]
            scores = service.score_links([(ids[u], ids[v]) for u, v in rows])
            ok = scores.shape == (rows.shape[0],)
            if schedule.spot[i]:
                spot.append((rows, scores))
        else:
            query = ids[schedule.topk_rows[i]]
            result = service.top_k([query], k=serve.k)[0]
            ok = _check_topk(result, query, serve.k)
    except Exception as exc:  # a failed request is a miss, not a crash
        ledger.fail(f"online request {i}: {exc!r}")
        return float("inf"), lag
    finally:
        if rec is not None:
            rec.request = None
    if not ok:
        ledger.fail(f"online request {i}: bad result")
        return float("inf"), lag
    return _now() - due, lag


def _offline_burst(
    service: EmbeddingService,
    ids: list[str],
    serve: ServeSpec,
    rng: np.random.Generator,
    duration_s: float,
    ledger: Ledger,
) -> list[float]:
    """Closed loop: one client sending ``top_k`` batches back to back for
    ``duration_s`` (at least one batch); returns the batch times."""
    batch_s: list[float] = []
    deadline = _now() + duration_s
    sent = 0
    while sent == 0 or _now() < deadline:
        queries = [ids[r] for r in rng.integers(len(ids), size=serve.offline_batch)]
        ledger.attempt()
        sent += 1
        start = _now()
        try:
            results = service.top_k(queries, k=serve.k)
        except Exception as exc:
            ledger.fail(f"offline batch: {exc!r}")
            continue
        batch_s.append(_now() - start)
        ok = len(results) == len(queries) and all(
            _check_topk(res, q, serve.k) for res, q in zip(results, queries)
        )
        if not ok:
            ledger.fail("offline batch: bad result")
    return batch_s
