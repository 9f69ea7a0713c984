"""The unified training engine.

Every trainer in this repository — TransN's Algorithm 1 and all
skip-gram-with-negative-sampling baselines — builds its training loop from
the same three pieces:

- a batch **pipeline** (:class:`StreamingCorpusPipeline` for walk
  corpora, :class:`CorpusPipeline` its one-block-per-draw adapter,
  :class:`EdgeSamplingPipeline` for LINE-style edge draws) streaming
  (center, context, negatives) minibatches with a reusable noise table;
- **phases** (:class:`SkipGramPhase`, :class:`CallablePhase`) — named
  per-epoch units of work;
- a :class:`TrainingLoop` running the phases under a callback system
  (:class:`LossHistory`, :class:`PhaseTimer`, :class:`EarlyStopping`,
  :class:`LinearLRDecay`, :class:`ProgressReporter`);
- a **fault-tolerance layer** (see ``docs/fault_tolerance.md``): the
  :class:`CheckpointManager` writes atomic, checksummed, rotated
  snapshots of any :class:`TrainingState`; the :class:`Checkpointer`
  callback persists them on an epoch cadence; ``TrainingLoop.resume``
  continues an interrupted run bit-exactly; and the
  :class:`NumericalHealthGuard` catches NaN/Inf losses and loss
  explosions with a raise/rollback/skip policy;
- an **observability layer** (see ``docs/observability.md``): the
  :class:`MetricsRegistry` collects counters/gauges/timers/bounded
  series, the :class:`Tracer` records run → epoch → phase spans with
  optional memory peaks, and a :class:`RunReport` serializes both to a
  versioned JSON file — all zero-cost via the :data:`NULL_REGISTRY` /
  :data:`NULL_TRACER` no-op singletons when nothing asks for a report.

- a **fault-injection harness** (:mod:`repro.engine.faults`): the
  :class:`FaultInjector` deterministically arms named fault points
  (worker crashes/hangs/exceptions, checkpoint write errors) so
  chaos tests and ``--chaos`` runs can prove the hardening below
  actually preserves bit-identical results;

- a **parallel layer** (see ``docs/parallelism.md``): the
  :class:`ParallelRuntime` fans corpus generation across a process pool
  over shared-memory CSR arrays (:class:`SharedCSR`), trains
  view-disjoint cross-view pairs concurrently (:func:`conflict_waves`)
  — all behind the same :class:`BatchSource` protocol, with
  ``workers=0`` bit-identical to the serial path.

This is the seam where instrumentation, scheduling, and parallelism
plug in once and apply to every method.
"""

from repro.engine.callbacks import (
    Callback,
    Checkpointer,
    EarlyStopping,
    LinearLRDecay,
    LossHistory,
    NumericalHealthError,
    NumericalHealthGuard,
    PhaseTimer,
    ProgressReporter,
    RelationBalancer,
)
from repro.engine.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointManager,
    TrainingState,
    dump_state,
    load_state,
    non_finite_entries,
)
from repro.engine.faults import (
    FAULT_POINTS,
    FaultInjected,
    FaultInjector,
    activate,
    get_active,
    scoped,
)
from repro.engine.loop import (
    CallablePhase,
    LoopResult,
    Phase,
    SkipGramPhase,
    TrainingLoop,
)
from repro.engine.observability import (
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    RunReport,
    Span,
    Tracer,
    load_report,
)
from repro.engine.parallel import (
    CROSS_VIEW_TAG,
    SINGLE_VIEW_TAG,
    ParallelRuntime,
    SharedCSR,
    SharedCSRSpec,
    attach_shared_csr,
    conflict_waves,
    pair_rng,
    single_view_seed,
)
from repro.engine.pipeline import (
    BatchSource,
    CorpusPipeline,
    EdgeSamplingPipeline,
    SkipGramBatch,
    StreamingCorpusPipeline,
    block_walks_for_budget,
)

__all__ = [
    "BatchSource",
    "CROSS_VIEW_TAG",
    "Callback",
    "CallablePhase",
    "Checkpoint",
    "CheckpointError",
    "CheckpointManager",
    "Checkpointer",
    "CorpusPipeline",
    "EarlyStopping",
    "EdgeSamplingPipeline",
    "FAULT_POINTS",
    "FaultInjected",
    "FaultInjector",
    "LinearLRDecay",
    "LoopResult",
    "LossHistory",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "NumericalHealthError",
    "NumericalHealthGuard",
    "ParallelRuntime",
    "Phase",
    "PhaseTimer",
    "ProgressReporter",
    "RelationBalancer",
    "RunReport",
    "SINGLE_VIEW_TAG",
    "SharedCSR",
    "SharedCSRSpec",
    "SkipGramBatch",
    "StreamingCorpusPipeline",
    "block_walks_for_budget",
    "SkipGramPhase",
    "Span",
    "Tracer",
    "TrainingLoop",
    "TrainingState",
    "activate",
    "attach_shared_csr",
    "conflict_waves",
    "dump_state",
    "get_active",
    "load_report",
    "load_state",
    "non_finite_entries",
    "pair_rng",
    "scoped",
    "single_view_seed",
]
