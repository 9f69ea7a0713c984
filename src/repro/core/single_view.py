"""The single-view algorithm (Section III-A).

Per view: sample biased correlated random walks, extract context pairs
under the Definition-6 window (1 on homo-views, 2 on heter-views), and
run skip-gram-with-negative-sampling SGD steps on the view-specific
embedding matrix.  Batching and negative sampling go through one
:class:`repro.engine.StreamingCorpusPipeline`; each corpus draw reaches
it as a stream of walk blocks.  The dense corpus (the default) is the
single-block case: one block from :meth:`SingleViewTrainer.sample_corpus`.
``stream_corpus=True`` cuts the draw into blocks of
:data:`DEFAULT_BLOCK_WALKS` walks, or of the size a byte budget allows.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine import StreamingCorpusPipeline
from repro.engine.observability import NULL_REGISTRY, MetricsRegistry
from repro.engine.parallel import ParallelRuntime, single_view_seed
from repro.engine.pipeline import block_walks_for_budget
from repro.graph.views import View
from repro.skipgram import SkipGramTrainer, window_for_view
from repro.walks import (
    BiasedCorrelatedPolicy,
    LockstepWalker,
    UniformPolicy,
    WalkPolicy,
    build_corpus,
)
from repro.walks.corpus import (
    WalkCorpus,
    corpus_index_dtype,
    stream_corpus as stream_walk_corpus,
)

import numpy as np

#: streaming block size when no byte budget derives one — small enough to
#: bound memory on big views, large enough that the goldens' toy corpora
#: fit in a single block (where streaming is bit-identical to dense)
DEFAULT_BLOCK_WALKS = 8192


class SingleViewTrainer:
    """Owns one view's walks, batch pipeline, and SGNS updates.

    Args:
        view: the view to train on.
        embeddings: the view-specific embedding matrix, shape
            (view.num_nodes, dim), indexed by ``view.graph.index_of``;
            shared with the cross-view trainer and updated in place.
        simple_walk: use uniform weight-blind walks (Table V ablation);
            ignored when ``policy`` is given.
        policy: an explicit :class:`repro.walks.WalkPolicy` instance for
            this view (the pluggable strategy layer); ``None`` selects
            the paper's biased-correlated walk (or uniform under
            ``simple_walk``).
        walk_length / walk_floor / walk_cap: corpus parameters.
        num_negatives: negatives per positive pair.
        batch_size: SGD minibatch size.
        rng: the model's random source.
        optimizer: row optimizer of the SGNS matrices (``"sgd"`` is the
            paper-faithful word2vec update; ``"adam"`` is the engine
            extension).
        parallel: a :class:`repro.engine.ParallelRuntime` to build
            corpora on (``None`` keeps the serial path bit-identical to
            the pre-parallel implementation).
        seed / view_code: key the deterministic per-draw seed stream of
            the parallel path (``single_view_seed(seed, view_code, t)``);
            unused when ``parallel`` is ``None``.
        stream_corpus: cut each corpus draw into fixed-size walk
            blocks instead of one dense block (``docs/performance.md``).
        corpus_budget_bytes: hard peak-memory budget for the streaming
            data path; sizes blocks via
            :func:`repro.engine.block_walks_for_budget`.  Without it,
            blocks hold :data:`DEFAULT_BLOCK_WALKS` walks.
    """

    def __init__(
        self,
        view: View,
        embeddings: np.ndarray,
        rng: np.random.Generator,
        walk_length: int = 20,
        walk_floor: int = 3,
        walk_cap: int = 8,
        num_negatives: int = 5,
        batch_size: int = 256,
        simple_walk: bool = False,
        optimizer: str = "sgd",
        policy: WalkPolicy | None = None,
        parallel: ParallelRuntime | None = None,
        seed: int = 0,
        view_code: int = 0,
        stream_corpus: bool = False,
        corpus_budget_bytes: int | None = None,
    ) -> None:
        if embeddings.shape[0] != view.num_nodes:
            raise ValueError(
                f"embedding rows ({embeddings.shape[0]}) != view nodes "
                f"({view.num_nodes})"
            )
        self.view = view
        self.rng = rng
        self.walk_length = walk_length
        self.walk_floor = walk_floor
        self.walk_cap = walk_cap
        self.num_negatives = num_negatives
        self.batch_size = batch_size
        self.window = window_for_view(view)
        if policy is None:
            policy = UniformPolicy() if simple_walk else BiasedCorrelatedPolicy()
        self.policy = policy
        self.walker = LockstepWalker(view, policy, rng=rng)
        self.walk_scale = 1.0  # RelationBalancer's per-view share knob
        self.trainer = SkipGramTrainer(embeddings, rng=rng, optimizer=optimizer)
        self.metrics: MetricsRegistry = NULL_REGISTRY
        self._last_corpus: WalkCorpus | None = None
        self.parallel = parallel
        self.seed = seed
        self.view_code = view_code
        self._draws = 0  # monotonic corpus-draw clock, checkpointed
        self.stream_corpus = bool(stream_corpus)
        if self.stream_corpus:
            self._index_dtype = corpus_index_dtype(view.num_nodes)
            if corpus_budget_bytes is not None:
                self._block_walks = block_walks_for_budget(
                    corpus_budget_bytes,
                    walk_length,
                    self.window,
                    num_negatives,
                    batch_size,
                    itemsize=self._index_dtype.itemsize,
                )
            else:
                self._block_walks = DEFAULT_BLOCK_WALKS
        self.pipeline = StreamingCorpusPipeline(
            sample_blocks=self.sample_blocks,
            num_nodes=view.num_nodes,
            window=self.window,
            num_negatives=num_negatives,
            batch_size=batch_size,
            rng=rng,
            budget_bytes=corpus_budget_bytes,
            noise_dtype=embeddings.dtype,
        )

    # ------------------------------------------------------------------
    def _draw(self, serial, method: str, **kw):
        """One corpus draw under the view's walk parameters.

        Serial without a runtime (the determinism-golden path): ``serial``
        walks on the shared trainer RNG.  With one, the runtime's
        ``method`` fans the walks out over the worker pool under the
        per-draw seed stream (``docs/parallelism.md``).
        """
        kw.update(
            length=self.walk_length,
            floor=self.walk_floor,
            cap=self.walk_cap,
            count_scale=self.walk_scale,
        )
        if self.parallel is None:
            return serial(self.view, self.walker, rng=self.rng, **kw)
        seed_seq = single_view_seed(self.seed, self.view_code, self._draws)
        self._draws += 1
        return getattr(self.parallel, method)(
            self.view,
            self.policy,
            seed_seq=seed_seq,
            label=f"single_view/{self.view.edge_type}",
            **kw,
        )

    def sample_corpus(self) -> WalkCorpus:
        """One round of walks under the degree-based count policy."""
        return self._draw(build_corpus, "build_corpus")

    def sample_blocks(self) -> Iterator[WalkCorpus]:
        """One corpus draw as a lazy stream of walk blocks.

        Without ``stream_corpus`` the draw is one block, the dense
        corpus of :meth:`sample_corpus`.  Otherwise serial blocks come
        off the shared trainer RNG in the dense path's exact
        consumption order, so a draw that fits one block is
        bit-identical to the dense corpus; with a runtime, blocks derive
        from the per-draw seed stream — a deterministic stream of its
        own.
        """
        if not self.stream_corpus:
            blocks = (self.sample_corpus(),)
        else:
            blocks = self._draw(
                stream_walk_corpus,
                "stream_corpus",
                block_walks=self._block_walks,
                index_dtype=self._index_dtype,
            )
        for block in blocks:
            # kept so evaluate_loss can score monitoring pairs without
            # resampling the whole view
            self._last_corpus = block
            yield block

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Route this view's metrics (and the inner SGNS trainer's
        per-batch gradient/negative-sampling stats) into ``metrics``,
        namespaced by the view's edge type."""
        self.metrics = metrics
        self.trainer.metrics = metrics
        self.trainer.metric_prefix = f"single_view/{self.view.edge_type}/"
        self.pipeline.metrics = metrics
        self.pipeline.metric_prefix = f"single_view/{self.view.edge_type}/"

    def train_epoch(self, lr: float) -> float:
        """One pass (lines 4-7 of Algorithm 1): returns the mean SGNS loss."""
        total, batches, pairs = 0.0, 0, 0
        for batch in self.pipeline.epoch():
            total += self.trainer.train_batch(
                batch.centers, batch.contexts, batch.negatives, lr=lr
            )
            batches += 1
            pairs += batch.centers.size
        mean = total / batches if batches else 0.0
        if self.metrics.enabled:
            label = self.view.edge_type
            self.metrics.observe(f"single_view/{label}/loss", mean)
            self.metrics.counter(f"single_view/{label}/batches", batches)
            self.metrics.counter(f"single_view/{label}/pairs", pairs)
        return mean

    # ------------------------------------------------------------------
    # checkpoint protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything this trainer mutates during training: the SGNS
        context matrix + optimizer moments, and the pipeline's cached
        noise table.  The view-specific embedding matrix is excluded —
        the model owns it (it is shared with the cross-view trainer) and
        snapshots it once.  The cached monitoring corpus is transient and
        deliberately not saved."""
        return {
            "skipgram": self.trainer.state_dict(),
            "pipeline": self.pipeline.state_dict(),
            "walk_scale": self.walk_scale,
            "corpus_draws": self._draws,
        }

    def load_state_dict(self, state: dict) -> None:
        self.trainer.load_state_dict(state["skipgram"])
        self.pipeline.load_state_dict(state["pipeline"])
        # pre-balancer checkpoints lack the key; the neutral scale is 1
        self.walk_scale = float(state.get("walk_scale", 1.0))
        # pre-parallel checkpoints lack the draw clock; 0 matches their
        # serial path, which never reads it
        self._draws = int(state.get("corpus_draws", 0))
        self._last_corpus = None

    def _monitoring_corpus(self, num_pairs: int) -> WalkCorpus:
        """A corpus to draw monitoring pairs from — the last training
        block when one exists, otherwise a bounded fresh draw.

        The bounded draw samples just enough walks from random start nodes
        to cover ``num_pairs`` context pairs, instead of resampling the
        entire view under the degree-based count policy (which on large
        views costs as much as a training epoch's sampling).
        """
        if self._last_corpus is not None:
            return self._last_corpus
        num_walks = max(4, -(-num_pairs // self.walk_length))
        starts = self.rng.integers(
            self.view.num_nodes, size=num_walks
        ).astype(np.int64)
        matrix, lengths = self.walker.walk_batch(starts, self.walk_length)
        return WalkCorpus(matrix, lengths, self.walk_length, self.view.graph)

    def evaluate_loss(self, num_pairs: int = 512) -> float:
        """Monitoring loss on a sample of pairs (no updates)."""
        corpus = self._monitoring_corpus(num_pairs)
        centers, contexts = self.pipeline.pairs(corpus)
        if centers.size == 0:
            return 0.0
        take = min(num_pairs, centers.size)
        pick = self.rng.choice(centers.size, size=take, replace=False)
        noise = self.pipeline.noise(corpus)
        negatives = noise.sample(self.rng, size=take * self.num_negatives)
        return self.trainer.loss_batch(
            centers[pick],
            contexts[pick],
            negatives.reshape(take, self.num_negatives),
        )
