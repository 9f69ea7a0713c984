"""Streaming (center, context, negatives) batch sources.

Every skip-gram-style trainer in this repository — TransN's single-view
algorithm and the five SGNS baselines — consumes the same kind of data:
minibatches of positive (center, context) index pairs with ``m`` negative
indices per pair.  The pipelines here own the full walk→pairs→negatives
(or edge-sample→negatives) chain so trainers only ever see
:class:`SkipGramBatch` objects:

- :class:`StreamingCorpusPipeline` — the one corpus pipeline.  Each
  epoch consumes one corpus draw as a stream of walk *blocks*
  (index-space :class:`repro.walks.WalkCorpus` matrices), extracts the
  Definition-6 context pairs of every block and draws negatives from a
  unigram^0.75 noise table.  The table's counts accumulate block by
  block during the first epoch and freeze afterwards; an optional byte
  budget bounds the per-block data path.  Nothing between walk sampling
  and the yielded batches leaves NumPy.
- :class:`CorpusPipeline` — its single-block adapter: each epoch draws
  one whole corpus from a ``sample_corpus`` callable and streams it as
  one block, so the noise table is the first corpus's.
- :class:`EdgeSamplingPipeline` — LINE-style edge sampling: positives are
  weight-proportional edge draws, negatives come from the degree^0.75
  distribution.

All expose ``epoch() -> Iterator[SkipGramBatch]`` (the
:class:`BatchSource` protocol), which is what
:class:`repro.engine.loop.SkipGramPhase` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol

import numpy as np

from repro.engine.observability import NULL_REGISTRY, MetricsRegistry
from repro.graph.alias import AliasSampler
from repro.graph.csr import csr_adjacency
from repro.graph.heterograph import HeteroGraph
from repro.skipgram import NoiseDistribution
from repro.walks.corpus import WalkCorpus, extract_index_pairs


@dataclass
class SkipGramBatch:
    """One SGNS minibatch in dense-index space.

    Attributes:
        centers: int array (B,) of center indices.
        contexts: int array (B,) of positive context indices.
        negatives: int array (B, m) of negative indices.
    """

    centers: np.ndarray
    contexts: np.ndarray
    negatives: np.ndarray

    def __len__(self) -> int:
        return int(self.centers.shape[0])


class BatchSource(Protocol):
    """Anything that can stream one epoch of SGNS batches."""

    def epoch(self) -> Iterator[SkipGramBatch]: ...


def pairs_per_walk(length: int, window: int) -> int:
    """Upper bound on Definition-6 pairs one walk of ``length`` yields.

    A full-length walk produces ``length - d`` positions per offset
    ``d <= window``, each emitting both ``(i, i+d)`` directions.  Early
    terminations only shrink this, so the bound is safe for budgeting.
    """
    span = min(window, length - 1)
    return 2 * sum(length - d for d in range(1, span + 1))


def block_walks_for_budget(
    budget_bytes: int,
    length: int,
    window: int,
    num_negatives: int,
    batch_size: int,
    itemsize: int = 8,
) -> int:
    """Largest walk-block size whose data path fits ``budget_bytes``.

    Accounts for every array the streaming chain materializes per block,
    at its worst case (full-length walks, including transient copies):

    - the ``(walks, length)`` index matrix **twice** (walker output plus
      the shuffled copy :func:`repro.walks.corpus.stream_corpus` takes),
    - the int64 ``lengths`` vector twice (same shuffle) and the int64
      permutation order,
    - center/context pair arrays **twice** (the per-offset slices and
      their concatenation) plus one byte per pair for the validity
      masks,
    - one ``batch_size × num_negatives`` int64 negatives array (the only
      per-batch allocation).

    Raises:
        ValueError: if not even a single walk fits the budget.
    """
    if budget_bytes <= 0:
        raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    pairs = pairs_per_walk(length, window)
    per_walk = (
        2 * length * itemsize  # matrix + shuffled copy
        + 2 * 8  # lengths + shuffled copy
        + 8  # permutation order
        + 4 * pairs * itemsize  # pair slices + concatenated copies
        + pairs  # boolean validity masks
    )
    fixed = batch_size * num_negatives * 8
    walks = (budget_bytes - fixed) // per_walk
    if walks < 1:
        raise ValueError(
            f"corpus budget of {budget_bytes} bytes cannot hold one walk "
            f"(needs {per_walk + fixed} bytes at length={length}, "
            f"window={window}, batch_size={batch_size})"
        )
    return int(walks)


class StreamingCorpusPipeline:
    """Walk blocks → context pairs → negative-sampled minibatches.

    Each epoch consumes one corpus draw as a stream of walk blocks (each
    a :class:`WalkCorpus`) and turns every block into batches
    immediately, so peak memory is proportional to the block size — not
    the graph.  Size blocks with :func:`block_walks_for_budget` to honour
    a byte budget; the pipeline then *enforces* it, raising if any
    block's measured data-path bytes exceed ``budget_bytes`` (tracked in
    :attr:`peak_block_bytes`).  A draw of one block is the dense corpus
    (:class:`CorpusPipeline`).

    Noise table: during the first epoch the unigram counts accumulate
    block by block (the table is rebuilt from the running counts as
    needed), and after the first epoch that saw a walk the table
    freezes — from then on it is exactly the table built from that
    epoch's full corpus.  Corpus frequencies are stable enough across
    epochs that rebuilding the table later would only add cost.

    Args:
        sample_blocks: zero-argument callable returning a fresh iterable
            of :class:`WalkCorpus` blocks (one draw of the corpus; walker
            RNG consumption happens lazily as the iterable advances).
            Block matrices must be in the index space of the trained
            matrix.
        num_nodes: number of rows of the trained matrix.
        window: Definition-6 context window for pair extraction.
        num_negatives: negatives drawn per positive pair.
        batch_size: pairs per yielded batch.
        rng: generator used for the negative draws.
        noise_power: exponent of the noise distribution (word2vec: 0.75).
        budget_bytes: optional hard peak-memory budget for the per-block
            data path.
        noise_dtype: storage dtype for the retained noise counts
            (float32 mode halves them; sampling is unaffected).
    """

    def __init__(
        self,
        sample_blocks: Callable[[], Iterable[WalkCorpus]],
        num_nodes: int,
        window: int,
        num_negatives: int = 5,
        batch_size: int = 128,
        rng: np.random.Generator | None = None,
        noise_power: float = 0.75,
        budget_bytes: int | None = None,
        noise_dtype=np.float64,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if num_negatives < 1:
            raise ValueError(
                f"num_negatives must be >= 1, got {num_negatives}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError(
                f"budget_bytes must be positive, got {budget_bytes}"
            )
        self.sample_blocks = sample_blocks
        self.num_nodes = num_nodes
        self.window = window
        self.num_negatives = num_negatives
        self.batch_size = batch_size
        self.rng = rng or np.random.default_rng()
        self.noise_power = noise_power
        self.budget_bytes = budget_bytes
        self.noise_dtype = np.dtype(noise_dtype)
        # float64 accumulator: exact integer counts up to 2**53, and the
        # alias table is always built in float64 anyway
        self._counts = np.zeros(num_nodes, dtype=np.float64)
        self._frozen = False
        self._noise: NoiseDistribution | None = None
        self.peak_block_bytes = 0
        self.metrics: MetricsRegistry = NULL_REGISTRY
        self.metric_prefix = "pipeline/"

    # ------------------------------------------------------------------
    def pairs(self, corpus: WalkCorpus) -> tuple[np.ndarray, np.ndarray]:
        """Flatten one block into (centers, contexts) index arrays."""
        return extract_index_pairs(corpus, self.window)

    def _table(self) -> NoiseDistribution:
        if self._noise is None:
            self._noise = NoiseDistribution(
                self._counts,
                self.num_nodes,
                power=self.noise_power,
                dtype=self.noise_dtype,
            )
        return self._noise

    def noise(self, corpus: WalkCorpus) -> NoiseDistribution:
        """The current noise table (for loss evaluation outside epochs).

        Before any training block has been seen, falls back to a
        transient table over ``corpus`` itself — uncached, so it cannot
        perturb the accumulate-then-freeze schedule.
        """
        if self._noise is not None or self._counts.sum() > 0:
            return self._table()
        return NoiseDistribution(
            corpus.frequency_counts(self.num_nodes),
            self.num_nodes,
            power=self.noise_power,
            dtype=self.noise_dtype,
        )

    def _block_bytes(
        self, block: WalkCorpus, centers: np.ndarray, contexts: np.ndarray
    ) -> int:
        """Measured data-path bytes for one block (mirrors the budget)."""
        return (
            2 * block.matrix.nbytes
            + 2 * block.lengths.nbytes
            + 8 * block.lengths.size
            + 2 * (centers.nbytes + contexts.nbytes)
            + centers.size
            + self.batch_size * self.num_negatives * 8
        )

    # -- checkpoint protocol -------------------------------------------
    def state_dict(self) -> dict:
        """Accumulated noise counts plus the freeze flag.

        A resumed run must reproduce the exact table the uninterrupted
        run would use rather than rebuild it from its own first
        (mid-training) corpus; the counts are sufficient because
        alias-table construction is deterministic.
        """
        seen = self._counts.sum() > 0
        return {
            "noise_counts": self._counts.copy() if seen else None,
            "noise_frozen": self._frozen,
        }

    def load_state_dict(self, state: dict) -> None:
        counts = state["noise_counts"]
        if counts is None:
            self._counts = np.zeros(self.num_nodes, dtype=np.float64)
        else:
            self._counts = np.asarray(counts, dtype=np.float64).copy()
        # checkpoints written before the freeze flag existed hold a
        # table from a completed first corpus, i.e. frozen
        self._frozen = bool(
            state.get("noise_frozen", counts is not None)
        )
        self._noise = None

    # ------------------------------------------------------------------
    # perfbench/tracing.py patches this name; the loop is in _batches
    def epoch(self) -> Iterator[SkipGramBatch]:
        """Stream one corpus draw block by block as minibatches."""
        return self._batches()

    def _batches(self) -> Iterator[SkipGramBatch]:
        """The batching loop behind every corpus pipeline's ``epoch``.

        The sampling timer accumulates the per-block walker waits, so
        the epoch's total sampling cost lands in one metric however the
        draw is blocked.
        """
        iterator = iter(self.sample_blocks())
        while True:
            with self.metrics.timer(f"{self.metric_prefix}sampling_seconds"):
                block = next(iterator, None)
            if block is None:
                break
            if not self._frozen:
                self._counts += block.frequency_counts(self.num_nodes)
                self._noise = None
            centers, contexts = self.pairs(block)
            measured = self._block_bytes(block, centers, contexts)
            if measured > self.peak_block_bytes:
                self.peak_block_bytes = measured
                self.metrics.gauge(
                    f"{self.metric_prefix}peak_block_bytes", measured
                )
            if self.budget_bytes is not None and measured > self.budget_bytes:
                raise MemoryError(
                    f"corpus block needs {measured} bytes, exceeding the "
                    f"{self.budget_bytes}-byte budget; shrink the block "
                    f"size (see block_walks_for_budget)"
                )
            if centers.size == 0:
                continue
            noise = self._table()
            for start in range(0, centers.size, self.batch_size):
                end = min(start + self.batch_size, centers.size)
                negatives = noise.sample(
                    self.rng, size=(end - start) * self.num_negatives
                ).reshape(end - start, self.num_negatives)
                yield SkipGramBatch(
                    centers=centers[start:end],
                    contexts=contexts[start:end],
                    negatives=negatives,
                )
        if not self._frozen and self._counts.any():
            self._frozen = True


class CorpusPipeline(StreamingCorpusPipeline):
    """The single-block adapter: one whole corpus per epoch.

    Args:
        sample_corpus: zero-argument callable producing a fresh
            :class:`WalkCorpus` (walker draws happen inside it, so the
            caller controls the walk policy and RNG).

    Everything else is :class:`StreamingCorpusPipeline`'s; the noise
    table is built from the first corpus that holds a walk.
    """

    def __init__(
        self,
        sample_corpus: Callable[[], WalkCorpus],
        num_nodes: int,
        window: int,
        num_negatives: int = 5,
        batch_size: int = 128,
        rng: np.random.Generator | None = None,
        noise_power: float = 0.75,
    ) -> None:
        super().__init__(
            self._one_block,
            num_nodes,
            window,
            num_negatives=num_negatives,
            batch_size=batch_size,
            rng=rng,
            noise_power=noise_power,
        )
        self.sample_corpus = sample_corpus

    def _one_block(self) -> Iterator[WalkCorpus]:
        yield self.sample_corpus()  # drawn inside the sampling timer

    @classmethod
    def for_policy(
        cls,
        view_or_graph,
        policy,
        *,
        length: int,
        window: int,
        floor: int = 10,
        cap: int = 32,
        walks_per_node: int | None = None,
        num_negatives: int = 5,
        batch_size: int = 128,
        rng: np.random.Generator | None = None,
        noise_power: float = 0.75,
    ) -> "CorpusPipeline":
        """A pipeline walking ``view_or_graph`` with a :class:`WalkPolicy`.

        The one-stop construction path for policy-driven SGNS training:
        the policy is mounted on a lockstep engine sharing ``rng`` with
        the negative draws, and each epoch samples a fresh corpus under
        the degree-based count policy (or a fixed ``walks_per_node``).
        Policies with restricted starts (metapath) only walk from their
        admissible nodes.
        """
        from repro.walks.batched import LockstepWalker
        from repro.walks.corpus import build_corpus

        rng = rng or np.random.default_rng()
        graph = getattr(view_or_graph, "graph", view_or_graph)
        engine = LockstepWalker(view_or_graph, policy, rng=rng)
        return cls(
            sample_corpus=lambda: build_corpus(
                view_or_graph,
                engine,
                length=length,
                floor=floor,
                cap=cap,
                walks_per_node_override=walks_per_node,
                rng=rng,
            ),
            num_nodes=graph.num_nodes,
            window=window,
            num_negatives=num_negatives,
            batch_size=batch_size,
            rng=rng,
            noise_power=noise_power,
        )

    # not inherited: perfbench/tracing.py patches each class's own epoch
    def epoch(self) -> Iterator[SkipGramBatch]:
        """Sample one corpus and stream it as minibatches."""
        return self._batches()


class EdgeSamplingPipeline:
    """LINE-style batches: weight-proportional edge draws as positives.

    Each yielded pair is one drawn edge with a random orientation;
    negatives come from the degree^0.75 noise distribution.  One ``epoch``
    streams exactly ``num_samples`` positive draws.
    """

    def __init__(
        self,
        graph: HeteroGraph,
        num_samples: int,
        num_negatives: int = 5,
        batch_size: int = 256,
        rng: np.random.Generator | None = None,
    ) -> None:
        edges = graph.edges
        if not edges:
            raise ValueError("edge sampling needs at least one edge")
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        self.num_samples = num_samples
        self.num_negatives = num_negatives
        self.batch_size = batch_size
        self.rng = rng or np.random.default_rng()
        self._edge_sampler = AliasSampler([e.weight for e in edges])
        self._sources = np.array(
            [graph.index_of(e.u) for e in edges], dtype=np.int64
        )
        self._targets = np.array(
            [graph.index_of(e.v) for e in edges], dtype=np.int64
        )
        # weighted degrees come precomputed (reduceat over the CSR weight
        # segments) from the adjacency cache shared with the walkers
        degrees = csr_adjacency(graph).weight_sums
        self._noise = NoiseDistribution(degrees, graph.num_nodes)

    def epoch(self) -> Iterator[SkipGramBatch]:
        drawn = 0
        while drawn < self.num_samples:
            batch = min(self.batch_size, self.num_samples - drawn)
            picks = np.asarray(self._edge_sampler.sample(self.rng, size=batch))
            # each undirected edge yields both directions
            flip = self.rng.random(batch) < 0.5
            centers = np.where(flip, self._sources[picks], self._targets[picks])
            contexts = np.where(flip, self._targets[picks], self._sources[picks])
            negatives = self._noise.sample(
                self.rng, size=batch * self.num_negatives
            ).reshape(batch, self.num_negatives)
            yield SkipGramBatch(
                centers=centers, contexts=contexts, negatives=negatives
            )
            drawn += batch
