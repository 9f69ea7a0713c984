"""Model-level streaming: dense equivalence, float32 mode."""

import numpy as np
import pytest

from repro.core import TransN, TransNConfig
from repro.datasets import make_appstore, two_view_toy
from repro.datasets.appstore import AppStoreConfig

_CONFIG = dict(
    dim=8,
    walk_length=8,
    walk_floor=2,
    walk_cap=3,
    num_iterations=2,
    cross_path_len=3,
    cross_paths_per_pair=8,
    num_encoders=1,
    batch_size=64,
    seed=7,
)


def _fit(**overrides):
    graph, _ = two_view_toy()
    model = TransN(graph, TransNConfig(**{**_CONFIG, **overrides}))
    model.fit()
    return model


class TestStreamingEquivalence:
    def test_streaming_bit_identical_to_dense(self):
        # toy corpora fit in one block, so the streamed RNG stream is the
        # dense one and every embedding must match bit for bit
        dense = _fit()
        streaming = _fit(stream_corpus=True)
        for edge_type in dense.view_embeddings:
            np.testing.assert_array_equal(
                dense.view_embeddings[edge_type],
                streaming.view_embeddings[edge_type],
            )

    def test_streaming_with_budget_is_deterministic(self):
        first = _fit(stream_corpus=True, corpus_budget_mb=1.0)
        second = _fit(stream_corpus=True, corpus_budget_mb=1.0)
        for edge_type in first.view_embeddings:
            np.testing.assert_array_equal(
                first.view_embeddings[edge_type],
                second.view_embeddings[edge_type],
            )


class TestFloat32:
    def test_embeddings_carry_requested_dtype(self):
        model = _fit(dtype="float32", num_iterations=1)
        for matrix in model.view_embeddings.values():
            assert matrix.dtype == np.float32
        for node, vector in model.embeddings().items():
            assert vector.dtype == np.float32

    def test_float32_converges_on_appstore(self):
        # float32 must track the float64 loss trajectory on a real
        # fixture; 2% relative tolerance on the final single-view loss
        # is far tighter than run-to-run seed variance
        cfg = AppStoreConfig(
            num_applets=60, num_users=25, num_keywords=20, seed=8
        )
        graph, _ = make_appstore(cfg)
        losses = {}
        for dtype in ("float64", "float32"):
            model = TransN(
                graph,
                TransNConfig(
                    **{
                        **_CONFIG,
                        "num_iterations": 3,
                        "dtype": dtype,
                        "stream_corpus": dtype == "float32",
                    }
                ),
            )
            model.fit()
            series = model.history.single_view
            assert all(np.isfinite(series))
            assert series[-1] < series[0]  # training makes progress
            losses[dtype] = series[-1]
        rel = abs(losses["float32"] - losses["float64"]) / losses["float64"]
        assert rel < 0.02


class TestConfigValidation:
    def test_budget_requires_streaming(self):
        with pytest.raises(ValueError, match="stream_corpus"):
            TransNConfig(**{**_CONFIG, "corpus_budget_mb": 64.0})

    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            TransNConfig(**{**_CONFIG, "dtype": "float16"})

    def test_budget_bytes_property(self):
        cfg = TransNConfig(
            **{**_CONFIG, "stream_corpus": True, "corpus_budget_mb": 2.0}
        )
        assert cfg.corpus_budget_bytes == 2 * 1024 * 1024
        assert TransNConfig(**_CONFIG).corpus_budget_bytes is None

    def test_resolved_dtype(self):
        assert TransNConfig(**_CONFIG).resolved_dtype == np.float64
        cfg = TransNConfig(**{**_CONFIG, "dtype": "float32"})
        assert cfg.resolved_dtype == np.float32
