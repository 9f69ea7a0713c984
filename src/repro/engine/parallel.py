"""Parallel training runtime: shared-memory corpus workers and concurrent
cross-view waves.

Algorithm 1's two phases are embarrassingly parallel along different
axes, and this module exploits both without touching the training math:

1. **Corpus generation** (the single-view phase's dominant cost) fans
   out across a :class:`~concurrent.futures.ProcessPoolExecutor`.  The
   flat CSR arrays of a view are published once into named
   :mod:`multiprocessing.shared_memory` segments (:class:`SharedCSR`);
   workers attach by name in O(ms) and mount a *detached*
   :class:`~repro.graph.csr.CSRAdjacency` directly over the shared
   buffers — no graph object ever crosses a process boundary, and walk
   policies travel as few-hundred-byte rebuild-from-spec pickles
   (:meth:`~repro.walks.policies.WalkPolicy.__reduce__`).

2. **Cross-view dual learning** trains view-pairs concurrently in
   threads.  Pairs sharing a view would race on the shared embedding
   matrix, so :func:`conflict_waves` greedily colors the pair list into
   waves of view-disjoint pairs; within a wave every trainer touches
   disjoint translators, embeddings and optimizer rows, and NumPy
   releases the GIL on the heavy ops.

Determinism contract
--------------------
``workers=0`` never constructs a runtime — the serial path is untouched
and stays bit-identical to the determinism goldens.  For ``workers=N``
every random draw derives from a :class:`numpy.random.SeedSequence`
keyed on ``(seed, phase tag, view/pair id, draw index)`` — never on
worker identity, thread schedule, or wall clock — so a fixed ``N``
reproduces exactly across runs, machines, and pool-vs-fallback
execution.

Fault tolerance
---------------
Shard execution is hardened per failure mode, always preserving the
determinism contract by replaying the failed shard's recorded seed:

* an ordinary exception inside one worker shard (``MemoryError``, an
  injected ``worker.exception``) retries *that shard only* in-process
  (``parallel/shard_retry``) — the pool keeps serving the other shards;
* a shard outliving ``shard_timeout`` trips a watchdog
  (``parallel/shard_timeout``): finished shards are harvested, the hung
  pool is killed, and the rest of the build runs in-process;
* a vanished worker (segfault, OOM kill) surfaces as
  :class:`BrokenProcessPool` and unfinished shards run in-process.

A lost pool is relaunched at the next build under exponential backoff
(``parallel/pool_relaunch``); once losses exceed ``max_pool_relaunches``
the runtime demotes itself to in-process builds for the rest of the run
(``parallel/fallback``, sticky).  Either way every corpus stays
bit-identical to the same-config fault-free run.  The
:mod:`repro.engine.faults` injector provides the controlled failures
that exercise these paths.
"""

from __future__ import annotations

import multiprocessing
import time
import uuid
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Sequence

import numpy as np

from repro.engine.faults import (
    execute_worker_fault,
    worker_fault_for_submission,
)
from repro.engine.observability import MetricsRegistry, NullRegistry
from repro.graph.csr import CSRAdjacency, csr_adjacency
from repro.graph.heterograph import HeteroGraph
from repro.graph.views import View
from repro.walks.batched import LockstepWalker
from repro.walks.corpus import WalkCorpus, walk_start_nodes
from repro.walks.policies import WalkPolicy, _resolve_graph

#: SeedSequence phase tags — keep single-view and cross-view streams
#: disjoint even when a view code and a pair index collide numerically.
SINGLE_VIEW_TAG = 1
CROSS_VIEW_TAG = 2

#: every optional CSR column a policy may declare in ``required_columns``
KNOWN_COLUMNS = frozenset(
    {"alias", "node_types", "slot_types", "edge_keys", "slot_edge_types"}
)


def single_view_seed(
    seed: int, view_code: int, draw: int
) -> np.random.SeedSequence:
    """The root seed of one view's ``draw``-th corpus build."""
    return np.random.SeedSequence((seed, SINGLE_VIEW_TAG, view_code, draw))


def pair_rng(seed: int, pair_index: int, step: int) -> np.random.Generator:
    """The generator driving one view-pair's ``step``-th cross-view epoch."""
    return np.random.default_rng(
        np.random.SeedSequence((seed, CROSS_VIEW_TAG, pair_index, step))
    )


# ----------------------------------------------------------------------
# shared-memory CSR publication / attachment
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedCSRSpec:
    """Picklable recipe for attaching a published CSR in a worker.

    ``fields`` maps :meth:`CSRAdjacency.from_arrays` array kwargs (plus
    the ``alias_prob``/``alias_local`` pair) to
    ``(segment name, dtype str, shape)``; ``meta`` carries the non-array
    kwargs (type-name tuples).  ``token`` keys the worker-side attach
    cache so each worker process attaches a given publication once.
    """

    token: str
    fields: dict[str, tuple[str, str, tuple[int, ...]]]
    meta: dict[str, tuple[str, ...]]
    is_heter: bool = False


class SharedCSR:
    """Owner-side publication of one CSR into shared-memory segments.

    Publishes the six core arrays plus exactly the optional columns in
    ``columns`` (a :attr:`WalkPolicy.required_columns` set), so workers
    never rebuild alias tables or type columns.  The owner keeps its
    resource-tracker registration and must :meth:`close` (unlink) the
    segments when done; :class:`ParallelRuntime` does this on shutdown.
    """

    def __init__(
        self,
        csr: CSRAdjacency,
        columns: frozenset[str] = frozenset(),
        is_heter: bool = False,
    ) -> None:
        unknown = frozenset(columns) - KNOWN_COLUMNS
        if unknown:
            raise ValueError(
                f"unknown CSR columns {sorted(unknown)}; "
                f"known: {sorted(KNOWN_COLUMNS)}"
            )
        self.columns = frozenset(columns)
        self._segments: list[shared_memory.SharedMemory] = []
        fields: dict[str, tuple[str, str, tuple[int, ...]]] = {}
        meta: dict[str, tuple[str, ...]] = {}

        def publish(kwarg: str, array: np.ndarray) -> None:
            array = np.ascontiguousarray(array)
            # zero-length arrays still need a 1-byte segment to exist
            shm = shared_memory.SharedMemory(
                create=True, size=max(array.nbytes, 1)
            )
            self._segments.append(shm)
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
            view[...] = array
            fields[kwarg] = (shm.name, array.dtype.str, array.shape)

        try:
            for name in CSRAdjacency.CORE_FIELDS:
                publish(name, getattr(csr, name))
            if "alias" in self.columns:
                prob, local = csr.alias_tables()
                publish("alias_prob", prob)
                publish("alias_local", local)
            if self.columns & {"node_types", "slot_types"}:
                publish("node_type_codes", csr.node_type_codes)
                meta["type_names"] = tuple(csr.type_names)
            if "slot_types" in self.columns:
                publish("slot_type_codes", csr.slot_type_codes)
            if "edge_keys" in self.columns:
                publish("edge_keys", csr.edge_keys)
            if "slot_edge_types" in self.columns:
                publish("slot_edge_type_codes", csr.slot_edge_type_codes)
                meta["edge_type_names"] = tuple(csr.edge_type_names)
        except BaseException:
            self.close()
            raise
        self.spec = SharedCSRSpec(
            token=uuid.uuid4().hex,
            fields=fields,
            meta=meta,
            is_heter=is_heter,
        )

    @property
    def nbytes(self) -> int:
        """Total shared bytes published (for gauges and tests)."""
        return sum(shm.size for shm in self._segments)

    def close(self) -> None:
        """Close and unlink every segment (idempotent)."""
        segments, self._segments = self._segments, []
        for shm in segments:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


#: worker-process cache: publication token -> attached detached CSR
_ATTACHED: dict[str, CSRAdjacency] = {}


def attach_shared_csr(
    spec: SharedCSRSpec, unregister: bool = True
) -> CSRAdjacency:
    """Mount a detached :class:`CSRAdjacency` over a publication's segments.

    Each process attaches a given ``spec.token`` once and caches the
    result; subsequent tasks over the same publication reuse it.

    ``unregister`` handles bpo-38119 — attaching registers the segment
    with a resource tracker, which on worker exit would unlink segments
    the owner still needs.  It must be ``True`` exactly when this
    process runs its *own* tracker (spawn-started workers) and ``False``
    when the tracker is inherited from the owner (fork/forkserver):
    there the cache is shared, and unregistering here would strip the
    owner's registration and make its later ``unlink()`` double-
    unregister.  :class:`ParallelRuntime` passes the right value for its
    start method; the owner's :meth:`SharedCSR.close` remains the single
    point of unlink either way.
    """
    csr = _ATTACHED.get(spec.token)
    if csr is not None:
        return csr
    segments: list[shared_memory.SharedMemory] = []
    arrays: dict[str, np.ndarray] = {}
    for kwarg, (name, dtype, shape) in spec.fields.items():
        shm = shared_memory.SharedMemory(name=name)
        if unregister:
            resource_tracker.unregister(shm._name, "shared_memory")
        segments.append(shm)
        array = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        array.flags.writeable = False  # workers must never mutate the graph
        arrays[kwarg] = array
    alias = None
    if "alias_prob" in arrays:
        alias = (arrays.pop("alias_prob"), arrays.pop("alias_local"))
    csr = CSRAdjacency.from_arrays(**arrays, alias=alias, **spec.meta)
    # keep the segment objects alive as long as the adjacency: their
    # buffers back every array above
    csr._shm_segments = segments
    _ATTACHED[spec.token] = csr
    return csr


# ----------------------------------------------------------------------
# worker task (top-level so it pickles under any start method)
# ----------------------------------------------------------------------
def _walk_shard(
    spec: SharedCSRSpec,
    policy: WalkPolicy,
    shard: np.ndarray,
    length: int,
    seed: np.random.SeedSequence,
    unregister: bool,
    fault: tuple[str, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Walk one contiguous shard of start nodes; runs inside a worker.

    ``policy`` arrives unbound (rebuild-from-spec pickle) and binds to
    the attached shared-memory adjacency.  Returns the dense walk
    matrix, the per-walk lengths, and the elapsed wall seconds (folded
    into per-worker timers by the parent).

    ``fault`` is a parent-ordered chaos action (crash/hang/raise) decided
    by the active :class:`~repro.engine.faults.FaultInjector` at
    submission time; ``None`` in production.
    """
    execute_worker_fault(fault)
    begin = time.perf_counter()
    csr = attach_shared_csr(spec, unregister=unregister)
    walker = LockstepWalker(
        csr, policy, rng=np.random.default_rng(seed), is_heter=spec.is_heter
    )
    matrix, lengths = walker.walk_batch(shard, length)
    return matrix, lengths, time.perf_counter() - begin


def _walk_shard_local(
    csr: CSRAdjacency,
    policy: WalkPolicy,
    shard: np.ndarray,
    length: int,
    seed: np.random.SeedSequence,
    is_heter: bool,
) -> tuple[np.ndarray, np.ndarray, float]:
    """The in-process twin of :func:`_walk_shard` (fallback path).

    Uses the *original* bound policy and the owner's real adjacency —
    never a spec attach, which in the owning process would wrongly
    unregister the legitimate resource-tracker registration.  Seeds and
    shard are identical, so the output is bit-identical to the pool's.
    """
    begin = time.perf_counter()
    walker = LockstepWalker(
        csr, policy, rng=np.random.default_rng(seed), is_heter=is_heter
    )
    matrix, lengths = walker.walk_batch(shard, length)
    return matrix, lengths, time.perf_counter() - begin


def _ping() -> bool:
    """Warm-up task: forces the pool to launch its workers eagerly."""
    return True


# ----------------------------------------------------------------------
# cross-view wave scheduling
# ----------------------------------------------------------------------
def conflict_waves(keys: Sequence[tuple[Any, Any]]) -> list[list[int]]:
    """Greedily color pair keys into waves of view-disjoint pairs.

    ``keys[i]`` is the ``(edge_type_i, edge_type_j)`` key of pair ``i``;
    two pairs sharing either view must not train concurrently (they
    would race on the shared per-view embedding matrix).  Returns index
    waves in first-fit order — deterministic for a fixed key list, and
    every wave's pairs touch pairwise-disjoint views.
    """
    waves: list[tuple[list[int], set]] = []
    for index, (a, b) in enumerate(keys):
        for members, used in waves:
            if a not in used and b not in used:
                members.append(index)
                used.update((a, b))
                break
        else:
            waves.append(([index], {a, b}))
    return [members for members, _ in waves]


# ----------------------------------------------------------------------
# the runtime
# ----------------------------------------------------------------------
class ParallelRuntime:
    """Owns the worker pool, shared-memory publications, and thread pools.

    One runtime serves a whole model fit.  The process pool is launched
    *eagerly* in ``__init__`` — on fork platforms the workers must be
    forked from the main thread before any wave thread exists
    (forking a multithreaded process can inherit held locks).  A pool
    *relaunch* after a mid-run loss (:meth:`_pool_ready`) cannot honor
    that guarantee; workers only run NumPy walk kernels, which keeps the
    inherited-lock risk confined to code that never takes locks.

    Args:
        workers: pool width; also sizes the wave thread pool.
        shard_timeout: per-shard watchdog deadline in seconds for
            :meth:`_walk_sharded` (``None`` disables — a hung worker
            then hangs the build, the pre-hardening behavior).
        max_pool_relaunches: pool losses tolerated before the runtime
            demotes itself to in-process builds for the rest of the run.
        relaunch_backoff: base of the exponential relaunch delay,
            ``relaunch_backoff * 2**(losses - 1)`` seconds.
    """

    def __init__(
        self,
        workers: int,
        metrics: MetricsRegistry | None = None,
        *,
        shard_timeout: float | None = None,
        max_pool_relaunches: int = 2,
        relaunch_backoff: float = 0.1,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be positive, got {shard_timeout}"
            )
        if max_pool_relaunches < 0:
            raise ValueError(
                f"max_pool_relaunches must be >= 0, got {max_pool_relaunches}"
            )
        if relaunch_backoff < 0:
            raise ValueError(
                f"relaunch_backoff must be >= 0, got {relaunch_backoff}"
            )
        self.workers = int(workers)
        self.shard_timeout = (
            None if shard_timeout is None else float(shard_timeout)
        )
        self.max_pool_relaunches = int(max_pool_relaunches)
        self.relaunch_backoff = float(relaunch_backoff)
        self._metrics = metrics if metrics is not None else NullRegistry()
        # prefer fork: workers inherit the warm interpreter and attach
        # shared memory without re-importing the world
        context = (
            multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods()
            else multiprocessing.get_context()
        )
        # spawn workers run their own resource tracker and must drop the
        # attach-side registration (bpo-38119); fork workers share the
        # owner's tracker, where dropping it would be a double-unregister
        self._attach_unregister = context.get_start_method() == "spawn"
        # start the resource tracker BEFORE forking: children must
        # inherit the live tracker fd, or each would lazily spawn its
        # own tracker on first attach and warn about "leaked" segments
        # (actually the owner's) when it exits
        resource_tracker.ensure_running()
        self._context = context
        self._pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=context
        )
        self._pool.submit(_ping).result()  # fork/spawn workers now
        self._wave_pool: ThreadPoolExecutor | None = None
        #: id(csr) -> (csr, SharedCSR); the csr reference keeps the id valid
        self._shared: dict[int, tuple[CSRAdjacency, SharedCSR]] = {}
        self._pool_broken = False
        self._pool_failures = 0
        self._closed = False
        self._metrics.gauge("parallel/workers", self.workers)

    # -- plumbing ------------------------------------------------------
    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Point the runtime's instrumentation at a live registry."""
        self._metrics = metrics
        self._metrics.gauge("parallel/workers", self.workers)

    @property
    def pool_broken(self) -> bool:
        """Whether corpus builds are stickily demoted to in-process mode."""
        return self._pool_broken

    @property
    def pool_failures(self) -> int:
        """How many times the worker pool has been lost so far."""
        return self._pool_failures

    def _demote(self) -> None:
        """Give up on pooled execution for the rest of the run (sticky)."""
        if self._pool_broken:
            return
        self._pool_broken = True
        self._metrics.incident(
            "parallel/fallback",
            "pool relaunch budget spent; corpus builds stay in-process",
            failures=self._pool_failures,
        )

    def _lose_pool(self, label: str) -> None:
        """Discard a broken or hung pool and charge the relaunch budget.

        Remaining workers are killed outright — a hung worker would
        otherwise block a waiting ``shutdown()`` forever.  Overspending
        ``max_pool_relaunches`` demotes the runtime on the spot.
        """
        pool, self._pool = self._pool, None
        self._pool_failures += 1
        if pool is not None:
            for proc in list((pool._processes or {}).values()):
                proc.kill()
            pool.shutdown(wait=False, cancel_futures=True)
        self._metrics.event(
            "parallel/pool_lost",
            "worker pool lost; unfinished shards replay in-process",
            label=label,
            failures=self._pool_failures,
        )
        if self._pool_failures > self.max_pool_relaunches:
            self._demote()

    def _pool_ready(self) -> bool:
        """Whether pooled execution is available, relaunching if needed.

        A lost pool is relaunched lazily at the next build under
        exponential backoff (``relaunch_backoff * 2**(losses - 1)``
        seconds); a failed relaunch counts as another loss.  Returns
        ``False`` when the runtime is (or just became) demoted, or when
        this build should run in-process while the budget recovers.
        """
        if self._pool_broken:
            return False
        if self._pool is not None:
            return True
        delay = self.relaunch_backoff * (2 ** max(self._pool_failures - 1, 0))
        if delay > 0:
            time.sleep(delay)
        pool = None
        try:
            resource_tracker.ensure_running()
            pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._context
            )
            pool.submit(_ping).result(timeout=60.0)
        except Exception:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            self._pool_failures += 1
            if self._pool_failures > self.max_pool_relaunches:
                self._demote()
            return False
        self._pool = pool
        self._metrics.incident(
            "parallel/pool_relaunch",
            "worker pool relaunched after loss",
            backoff_seconds=delay,
            failures=self._pool_failures,
        )
        return True

    def _shared_for(
        self, csr: CSRAdjacency, columns: frozenset[str], is_heter: bool
    ) -> SharedCSR:
        """Get-or-create the publication of ``csr`` covering ``columns``."""
        key = id(csr)
        entry = self._shared.get(key)
        if entry is not None and entry[0] is csr:
            if entry[1].columns >= columns:
                return entry[1]
            columns = columns | entry[1].columns  # widen, then republish
        if entry is not None:
            entry[1].close()
        shared = SharedCSR(csr, columns=columns, is_heter=is_heter)
        self._shared[key] = (csr, shared)
        self._metrics.gauge(
            "parallel/shared_bytes",
            sum(pub.nbytes for _, pub in self._shared.values()),
        )
        return shared

    def _wave_executor(self) -> ThreadPoolExecutor:
        if self._wave_pool is None:
            self._wave_pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="transn-wave"
            )
        return self._wave_pool

    # -- corpus generation ---------------------------------------------
    def _walk_sharded(
        self,
        csr: CSRAdjacency,
        policy: WalkPolicy,
        shards: Sequence[np.ndarray],
        length: int,
        children: Sequence[np.random.SeedSequence],
        is_heter: bool,
        label: str,
    ) -> list[tuple[np.ndarray, np.ndarray] | None]:
        """Walk ``shards[k]`` under seed ``children[k]``, pool or fallback.

        The shard→seed pairing is positional and unconditional (empty
        shards still consume their child), so the output depends only on
        the shard split and the seeds.  Failure handling, per shard:

        * an ordinary in-worker exception (``MemoryError``, an injected
          ``worker.exception``) retries *that shard only* in-process
          with the same seed (``parallel/shard_retry``) — the pool keeps
          serving the remaining shards;
        * a shard outliving ``shard_timeout`` trips the watchdog
          (``parallel/shard_timeout``): already-finished shards are
          harvested, the hung pool is killed, the rest runs in-process;
        * :class:`BrokenProcessPool` (worker segfaulted / OOM- or
          SIGKILLed) keeps whatever completed and finishes the rest
          in-process.

        Every replay uses the recorded child seed, so the corpus is
        bit-identical however many shards failed.  Pool losses are
        charged to the relaunch budget via :meth:`_lose_pool`.
        """
        results: list[tuple[np.ndarray, np.ndarray] | None]
        results = [None] * len(shards)
        if self._pool_ready():
            shared = self._shared_for(
                csr, policy.required_columns, is_heter
            )
            futures: dict[int, Any] = {}
            pool_lost = False
            try:
                for k, shard in enumerate(shards):
                    if shard.size == 0:
                        continue  # child seed k stays reserved regardless
                    futures[k] = self._pool.submit(
                        _walk_shard,
                        shared.spec,
                        policy,
                        shard,
                        length,
                        children[k],
                        self._attach_unregister,
                        worker_fault_for_submission(),
                    )
            except BrokenProcessPool:
                pool_lost = True
            pending = list(futures.items())
            for n, (k, future) in enumerate(pending):
                if pool_lost:
                    break
                try:
                    matrix, lengths, elapsed = future.result(
                        timeout=self.shard_timeout
                    )
                except FuturesTimeout:
                    self._metrics.incident(
                        "parallel/shard_timeout",
                        "shard outlived the watchdog; killing the pool",
                        label=label,
                        shard=k,
                        timeout_seconds=self.shard_timeout,
                    )
                    # harvest the shards that did finish before the axe
                    for k2, later in pending[n + 1 :]:
                        if not later.done():
                            continue
                        try:
                            m2, l2, e2 = later.result()
                        except Exception:
                            continue  # replayed in-process below
                        results[k2] = (m2, l2)
                        self._metrics.record_seconds(
                            f"parallel/worker/{k2}/seconds", e2
                        )
                    pool_lost = True
                    break
                except BrokenProcessPool:
                    pool_lost = True
                    break
                except Exception as exc:
                    # one bad shard must not abort the run: replay it
                    # alone, same seed, while the pool keeps serving
                    self._metrics.incident(
                        "parallel/shard_retry",
                        "worker shard failed; retrying in-process",
                        label=label,
                        shard=k,
                        error=repr(exc),
                    )
                    matrix, lengths, elapsed = _walk_shard_local(
                        csr, policy, shards[k], length, children[k], is_heter
                    )
                results[k] = (matrix, lengths)
                self._metrics.record_seconds(
                    f"parallel/worker/{k}/seconds", elapsed
                )
            if pool_lost:
                self._lose_pool(label)
        for k, shard in enumerate(shards):
            if shard.size == 0 or results[k] is not None:
                continue
            matrix, lengths, elapsed = _walk_shard_local(
                csr, policy, shard, length, children[k], is_heter
            )
            results[k] = (matrix, lengths)
            self._metrics.record_seconds(
                f"parallel/worker/{k}/seconds", elapsed
            )
        return results

    def build_corpus(
        self,
        view_or_graph: View | HeteroGraph,
        policy: WalkPolicy,
        *,
        length: int,
        floor: int = 10,
        cap: int = 32,
        walks_per_node_override: int | None = None,
        count_scale: float = 1.0,
        seed_seq: np.random.SeedSequence,
        label: str = "corpus",
    ) -> WalkCorpus:
        """Sample one corpus with the start law of ``walks.build_corpus``.

        The dense corpus is the single block of :meth:`_blocks`, seeded
        by the children ``spawn_key + (k,)`` of ``seed_seq``.  An empty
        start law gives an empty ``(0, length)`` corpus.
        """
        for block in self._blocks(
            view_or_graph, policy, length, None, seed_seq, None, label,
            floor=floor,
            cap=cap,
            walks_per_node_override=walks_per_node_override,
            count_scale=count_scale,
        ):
            return block
        graph, _ = _resolve_graph(view_or_graph)
        return WalkCorpus.from_paths([], length, graph)

    def stream_corpus(
        self,
        view_or_graph: View | HeteroGraph,
        policy: WalkPolicy,
        *,
        length: int,
        block_walks: int,
        floor: int = 10,
        cap: int = 32,
        walks_per_node_override: int | None = None,
        count_scale: float = 1.0,
        seed_seq: np.random.SeedSequence,
        index_dtype: np.dtype | None = None,
        label: str = "corpus",
    ):
        """Lazily yield the corpus as blocks of at most ``block_walks``.

        Same start law as :meth:`build_corpus`, but block ``b`` is
        seeded by the children ``spawn_key + (b, k)`` — disjoint from
        the dense corpus's and independent of every other block — so
        the stream is deterministic for a fixed ``(seed_seq,
        block_walks, workers)`` but is *not* the dense build's
        permutation (same walks, different interleave).  Only one
        block's walks are ever resident, and an empty start law yields
        no block.  ``index_dtype`` casts each block's matrix (int32
        compact mode) before it is yielded.
        """
        return self._blocks(
            view_or_graph, policy, length, block_walks, seed_seq,
            index_dtype, label,
            floor=floor,
            cap=cap,
            walks_per_node_override=walks_per_node_override,
            count_scale=count_scale,
        )

    def _blocks(
        self,
        view_or_graph: View | HeteroGraph,
        policy: WalkPolicy,
        length: int,
        block_walks: int | None,
        seed_seq: np.random.SeedSequence,
        index_dtype: np.dtype | None,
        label: str,
        **start_law: Any,
    ):
        """The walk-and-shuffle loop behind both corpus entry points.

        Starts are computed once in the parent (identical to the serial
        law of :func:`~repro.walks.corpus.walk_start_nodes`) and cut
        into consecutive blocks of at most ``block_walks`` (``None``:
        one block).  Each block is split into ``workers`` contiguous
        shards walked concurrently: shard ``k`` always consumes child
        seed ``k`` (even when its shard is empty and never submitted)
        and child ``workers`` shuffles the assembled block, so the
        result depends only on ``seed_seq``, the block size and the
        worker count, not on scheduling.  The children of block ``b``
        are keyed ``spawn_key + (b, k)``, or ``spawn_key + (k,)`` for
        the one dense block.
        """
        if length < 2:
            raise ValueError(f"walk length must be >= 2, got {length}")
        if block_walks is not None and block_walks < 1:
            raise ValueError(f"block_walks must be >= 1, got {block_walks}")
        graph, is_heter = _resolve_graph(view_or_graph)
        csr = csr_adjacency(graph)
        policy = policy.bind(view_or_graph)
        starts = walk_start_nodes(csr.degrees, policy=policy, **start_law)
        self._metrics.counter("parallel/corpus_builds")
        self._metrics.observe(f"parallel/{label}/walks", starts.size)
        step = block_walks or max(starts.size, 1)
        for b, begin in enumerate(range(0, starts.size, step)):
            key = seed_seq.spawn_key + (() if block_walks is None else (b,))
            # stateless spawn: SeedSequence.spawn() advances an internal
            # child counter, so reusing a seed_seq would silently change
            # the draw — derive children by spawn_key instead
            # (bit-identical to .spawn() on a fresh sequence)
            children = [
                np.random.SeedSequence(
                    entropy=seed_seq.entropy, spawn_key=key + (k,)
                )
                for k in range(self.workers + 1)
            ]
            shards = np.array_split(
                starts[begin : begin + step], self.workers
            )
            results = self._walk_sharded(
                csr, policy, shards, length, children, is_heter, label
            )
            parts = [part for part in results if part is not None]
            matrix = np.concatenate([m for m, _ in parts])
            lengths = np.concatenate([ln for _, ln in parts])
            order = np.random.default_rng(children[-1]).permutation(
                matrix.shape[0]
            )
            matrix = matrix[order]
            if index_dtype is not None:
                matrix = matrix.astype(index_dtype, copy=False)
            yield WalkCorpus(matrix, lengths[order], length, graph)

    # -- cross-view waves ----------------------------------------------
    def train_pairs(
        self,
        trainers: Sequence[Any],
        rngs: Sequence[np.random.Generator],
    ) -> list[Any]:
        """Run every pair trainer's epoch, view-disjoint pairs concurrently.

        ``rngs[i]`` drives trainer ``i`` (one spawned stream per pair per
        step — see :func:`pair_rng`), which makes the outcome independent
        of the thread schedule.  Returns each ``train_epoch`` result in
        trainer order.
        """
        if len(trainers) != len(rngs):
            raise ValueError(
                f"{len(trainers)} trainers but {len(rngs)} rngs"
            )
        results: list[Any] = [None] * len(trainers)
        waves = conflict_waves([t.pair.key for t in trainers])
        for wave in waves:
            if len(wave) == 1:
                i = wave[0]
                results[i] = trainers[i].train_epoch(rng=rngs[i])
                continue
            pool = self._wave_executor()
            with self._metrics.timer("parallel/cross_view/wave_seconds"):
                futures = [
                    (i, pool.submit(trainers[i].train_epoch, rng=rngs[i]))
                    for i in wave
                ]
                for i, future in futures:
                    results[i] = future.result()
            self._metrics.observe(
                "parallel/cross_view/wave_width", len(wave)
            )
        self._metrics.gauge("parallel/cross_view/waves", len(waves))
        return results

    # -- lifecycle -----------------------------------------------------
    def shutdown(self) -> None:
        """Stop the pools and unlink every shared segment (idempotent).

        Segments unlink last, once nothing can attach.  Each resource
        is released independently — a pool that broke or hung mid-epoch
        must not leak the thread pool or the shared segments, so no
        step's failure skips the rest.
        """
        if self._closed:
            return
        self._closed = True
        wave, self._wave_pool = self._wave_pool, None
        pool, self._pool = self._pool, None
        shared, self._shared = list(self._shared.values()), {}
        try:
            if wave is not None:
                wave.shutdown(wait=True)
        except Exception:  # pragma: no cover - defensive
            pass
        try:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        for _, publication in shared:
            try:
                publication.close()
            except Exception:  # pragma: no cover - defensive
                pass

    #: alias: ``close()`` and ``shutdown()`` release the same resources
    close = shutdown

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.shutdown()
        except Exception:
            pass

    def __enter__(self) -> "ParallelRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
