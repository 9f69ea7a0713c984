"""Tests for the engine's streaming batch pipelines."""

import numpy as np
import pytest

from repro.engine import CorpusPipeline, EdgeSamplingPipeline, SkipGramBatch
from repro.walks.corpus import WalkCorpus


def _fixed_corpus_pipeline(rng, *, batch_size=8, num_negatives=3, window=2):
    walks = [[(i + j) % 5 for j in range(6)] for i in range(4)]
    return CorpusPipeline(
        sample_corpus=lambda: WalkCorpus.from_paths(
            [list(w) for w in walks], 6
        ),
        num_nodes=5,
        window=window,
        num_negatives=num_negatives,
        batch_size=batch_size,
        rng=rng,
    )


class TestCorpusPipeline:
    def test_batch_shapes(self, rng):
        pipeline = _fixed_corpus_pipeline(rng)
        batches = list(pipeline.epoch())
        assert batches
        for batch in batches:
            assert isinstance(batch, SkipGramBatch)
            assert batch.centers.shape == batch.contexts.shape
            assert batch.negatives.shape == (len(batch), 3)
            assert batch.centers.dtype == np.int64

    def test_all_pairs_covered_once(self, rng):
        pipeline = _fixed_corpus_pipeline(rng, batch_size=7)
        corpus = pipeline.sample_corpus()
        centers, contexts = pipeline.pairs(corpus)
        batches = list(pipeline.epoch())
        streamed_centers = np.concatenate([b.centers for b in batches])
        streamed_contexts = np.concatenate([b.contexts for b in batches])
        np.testing.assert_array_equal(streamed_centers, centers)
        np.testing.assert_array_equal(streamed_contexts, contexts)
        # last batch carries the remainder, every other one is full
        assert all(len(b) == 7 for b in batches[:-1])
        assert 1 <= len(batches[-1]) <= 7

    def test_pair_multiset_matches_window_scan(self, rng):
        """The vectorized extraction equals the per-walk window scan."""
        from repro.skipgram import extract_pairs

        pipeline = _fixed_corpus_pipeline(rng, window=2)
        corpus = pipeline.sample_corpus()
        centers, contexts = pipeline.pairs(corpus)
        expected = []
        for walk in corpus.paths() if corpus.graph else corpus:
            expected.extend(extract_pairs(list(walk), 2))
        got = sorted(zip(centers.tolist(), contexts.tolist()))
        assert got == sorted((int(a), int(b)) for a, b in expected)

    def test_indices_in_range(self, rng):
        pipeline = _fixed_corpus_pipeline(rng)
        for batch in pipeline.epoch():
            for arr in (batch.centers, batch.contexts, batch.negatives):
                assert arr.min() >= 0
                assert arr.max() < 5

    def test_noise_table_cached_across_epochs(self, rng):
        pipeline = _fixed_corpus_pipeline(rng)
        # before any epoch the table is transient: nothing is cached
        pipeline.noise(pipeline.sample_corpus())
        assert pipeline._noise is None
        list(pipeline.epoch())
        first = pipeline._noise
        assert first is not None
        assert pipeline.noise(pipeline.sample_corpus()) is first
        # epoch 2 samples from the table epoch 1 built
        list(pipeline.epoch())
        assert pipeline._noise is first

    def test_noise_counts_are_corpus_frequencies(self, rng):
        pipeline = _fixed_corpus_pipeline(rng)
        corpus = pipeline.sample_corpus()
        counts = corpus.frequency_counts(5)
        expected = np.zeros(5)
        for walk in corpus:
            for node in walk:
                expected[int(node)] += 1
        np.testing.assert_array_equal(counts, expected)

    def test_same_seed_streams_identical_batches(self):
        runs = []
        for _ in range(2):
            pipeline = _fixed_corpus_pipeline(np.random.default_rng(99))
            runs.append(list(pipeline.epoch()))
        assert len(runs[0]) == len(runs[1])
        for a, b in zip(runs[0], runs[1]):
            np.testing.assert_array_equal(a.negatives, b.negatives)

    def test_empty_corpus_yields_nothing(self, rng):
        pipeline = CorpusPipeline(
            sample_corpus=lambda: WalkCorpus.from_paths([], 0),
            num_nodes=3,
            window=2,
            rng=rng,
        )
        assert list(pipeline.epoch()) == []

    def test_validation(self, rng):
        kwargs = dict(
            sample_corpus=lambda: WalkCorpus.from_paths([], 0),
            num_nodes=3,
        )
        with pytest.raises(ValueError):
            CorpusPipeline(window=0, **kwargs)
        with pytest.raises(ValueError):
            CorpusPipeline(window=2, num_negatives=0, **kwargs)
        with pytest.raises(ValueError):
            CorpusPipeline(window=2, batch_size=0, **kwargs)


class TestEdgeSamplingPipeline:
    def test_total_samples_and_shapes(self, triangle, rng):
        pipeline = EdgeSamplingPipeline(
            triangle, num_samples=100, num_negatives=2, batch_size=32, rng=rng
        )
        batches = list(pipeline.epoch())
        assert sum(len(b) for b in batches) == 100
        assert all(b.negatives.shape == (len(b), 2) for b in batches)
        # 100 = 32 + 32 + 32 + 4
        assert [len(b) for b in batches] == [32, 32, 32, 4]

    def test_pairs_are_graph_edges(self, triangle, rng):
        pipeline = EdgeSamplingPipeline(triangle, num_samples=64, rng=rng)
        edge_set = {
            frozenset((triangle.index_of(e.u), triangle.index_of(e.v)))
            for e in triangle.edges
        }
        for batch in pipeline.epoch():
            for c, x in zip(batch.centers, batch.contexts):
                assert frozenset((int(c), int(x))) in edge_set

    def test_rejects_empty_graph(self, rng):
        from repro.graph import HeteroGraph

        empty = HeteroGraph()
        empty.add_node("a", "t")
        with pytest.raises(ValueError, match="at least one edge"):
            EdgeSamplingPipeline(empty, num_samples=10, rng=rng)
