"""StreamingCorpusPipeline: dense equivalence, budget law, noise freeze."""

import numpy as np
import pytest

from repro.datasets.fixtures import two_view_toy
from repro.engine.pipeline import (
    CorpusPipeline,
    StreamingCorpusPipeline,
    block_walks_for_budget,
    pairs_per_walk,
)
from repro.graph.views import separate_views
from repro.walks import LockstepWalker, build_corpus, stream_corpus
from repro.walks.policies import make_policy


def _view():
    graph, _ = two_view_toy()
    return separate_views(graph)[0]


def _dense(view, seed, **kw):
    rng = np.random.default_rng(seed)
    walker = LockstepWalker(view, make_policy("biased"), rng=rng)
    return CorpusPipeline(
        sample_corpus=lambda: build_corpus(
            view, walker, length=8, floor=2, cap=3, rng=rng
        ),
        num_nodes=view.num_nodes,
        window=1,
        num_negatives=3,
        batch_size=16,
        rng=rng,
        **kw,
    )


def _streaming(view, seed, block_walks=None, **kw):
    rng = np.random.default_rng(seed)
    walker = LockstepWalker(view, make_policy("biased"), rng=rng)
    return StreamingCorpusPipeline(
        sample_blocks=lambda: stream_corpus(
            view, walker, length=8, floor=2, cap=3, rng=rng,
            block_walks=block_walks,
        ),
        num_nodes=view.num_nodes,
        window=1,
        num_negatives=3,
        batch_size=16,
        rng=rng,
        **kw,
    )


def _batches(pipeline):
    return [
        (b.centers.copy(), b.contexts.copy(), b.negatives.copy())
        for b in pipeline.epoch()
    ]


class TestDenseEquivalence:
    def test_single_block_batches_bit_identical_across_epochs(self):
        view = _view()
        dense = _dense(view, 7)
        streaming = _streaming(view, 7)
        for _ in range(3):
            for (c1, x1, n1), (c2, x2, n2) in zip(
                _batches(dense), _batches(streaming), strict=True
            ):
                assert np.array_equal(c1, c2)
                assert np.array_equal(x1, x2)
                assert np.array_equal(n1, n2)

    def test_multi_block_stream_deterministic(self):
        view = _view()
        first = _batches(_streaming(view, 11, block_walks=4))
        second = _batches(_streaming(view, 11, block_walks=4))
        for (c1, x1, n1), (c2, x2, n2) in zip(first, second, strict=True):
            assert np.array_equal(c1, c2)
            assert np.array_equal(x1, x2)
            assert np.array_equal(n1, n2)


class TestBudget:
    def test_peak_block_bytes_within_budget(self):
        view = _view()
        budget = 64 * 1024
        walks = block_walks_for_budget(
            budget, length=8, window=1, num_negatives=3, batch_size=16
        )
        pipeline = _streaming(
            view, 3, block_walks=walks, budget_bytes=budget
        )
        assert sum(1 for _ in pipeline.epoch()) > 0
        assert 0 < pipeline.peak_block_bytes <= budget

    def test_over_budget_block_raises(self):
        view = _view()
        # blocks deliberately oversized for a tiny budget
        pipeline = _streaming(view, 3, budget_bytes=1024)
        with pytest.raises(MemoryError, match="budget"):
            list(pipeline.epoch())

    def test_budget_too_small_for_one_walk(self):
        with pytest.raises(ValueError, match="cannot hold one walk"):
            block_walks_for_budget(
                64, length=20, window=2, num_negatives=5, batch_size=1
            )

    def test_budget_scales_with_itemsize(self):
        wide = block_walks_for_budget(
            1 << 20, length=20, window=2, num_negatives=5, batch_size=128,
            itemsize=8,
        )
        narrow = block_walks_for_budget(
            1 << 20, length=20, window=2, num_negatives=5, batch_size=128,
            itemsize=4,
        )
        assert narrow > wide

    def test_pairs_per_walk_matches_extraction_bound(self):
        # window truncated by walk length
        assert pairs_per_walk(8, 1) == 2 * 7
        assert pairs_per_walk(8, 2) == 2 * (7 + 6)
        assert pairs_per_walk(2, 5) == 2 * 1


class TestNoiseSchedule:
    def test_noise_frozen_after_first_epoch(self):
        view = _view()
        pipeline = _streaming(view, 5, block_walks=4)
        list(pipeline.epoch())
        frozen_counts = pipeline._counts.copy()
        assert frozen_counts.sum() > 0
        list(pipeline.epoch())
        assert np.array_equal(pipeline._counts, frozen_counts)

    def test_state_roundtrip_restores_table(self):
        view = _view()
        pipeline = _streaming(view, 5, block_walks=4)
        list(pipeline.epoch())
        state = pipeline.state_dict()
        restored = _streaming(view, 5, block_walks=4)
        restored.load_state_dict(state)
        assert restored._frozen
        rng = np.random.default_rng(0)
        a = pipeline._table().sample(rng, size=64)
        rng = np.random.default_rng(0)
        b = restored._table().sample(rng, size=64)
        assert np.array_equal(a, b)

    def test_accepts_dense_pipeline_state(self):
        # resuming a dense checkpoint into streaming mode must work
        view = _view()
        dense = _dense(view, 7)
        list(dense.epoch())
        streaming = _streaming(view, 7)
        streaming.load_state_dict(dense.state_dict())
        assert streaming._frozen


class TestEmptyStartLaw:
    """``walks_per_node_override=0`` leaves no start node: every corpus
    entry point gives an empty corpus or no block at all."""

    def test_serial_build_is_empty_and_stream_has_no_block(self):
        view = _view()
        walker = LockstepWalker(
            view, make_policy("biased"), rng=np.random.default_rng(0)
        )
        kw = dict(length=8, walks_per_node_override=0)
        corpus = build_corpus(
            view, walker, rng=np.random.default_rng(1), **kw
        )
        assert corpus.matrix.shape == (0, 8)
        assert corpus.matrix.dtype == np.int64
        assert corpus.lengths.shape == (0,)
        blocks = stream_corpus(
            view, walker, rng=np.random.default_rng(1), block_walks=4, **kw
        )
        assert list(blocks) == []
        dense_stream = stream_corpus(
            view, walker, rng=np.random.default_rng(1), **kw
        )
        assert list(dense_stream) == []

    def test_parallel_build_is_empty_and_stream_has_no_block(self):
        from repro.engine.parallel import ParallelRuntime, single_view_seed

        view = _view()
        kw = dict(
            length=8,
            walks_per_node_override=0,
            seed_seq=single_view_seed(7, 0, 0),
        )
        with ParallelRuntime(2) as runtime:
            corpus = runtime.build_corpus(view, make_policy("biased"), **kw)
            assert corpus.matrix.shape == (0, 8)
            assert corpus.lengths.shape == (0,)
            blocks = runtime.stream_corpus(
                view, make_policy("biased"), block_walks=4, **kw
            )
            assert list(blocks) == []

    def test_pipelines_yield_nothing_and_stay_unfrozen(self):
        view = _view()
        rng = np.random.default_rng(0)
        walker = LockstepWalker(view, make_policy("biased"), rng=rng)
        kw = dict(length=8, walks_per_node_override=0, rng=rng)
        streaming = StreamingCorpusPipeline(
            sample_blocks=lambda: stream_corpus(
                view, walker, block_walks=4, **kw
            ),
            num_nodes=view.num_nodes,
            window=1,
            rng=rng,
        )
        dense = CorpusPipeline(
            sample_corpus=lambda: build_corpus(view, walker, **kw),
            num_nodes=view.num_nodes,
            window=1,
            rng=rng,
        )
        for pipeline in (streaming, dense):
            for _ in range(2):
                assert list(pipeline.epoch()) == []
            assert pipeline.state_dict()["noise_counts"] is None
            assert not pipeline._frozen
