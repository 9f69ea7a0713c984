"""Tests for the SGNS trainer."""

import numpy as np
import pytest

from repro.nn.optim import RowSGD
from repro.skipgram import SkipGramTrainer
from repro.skipgram.trainer import _sigmoid
from tests.nn.test_optim import ROW_OPTIMIZERS


class TestSigmoid:
    def test_midpoint(self):
        assert _sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_extremes_stable(self):
        out = _sigmoid(np.array([-1000.0, 1000.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0)

    def test_matches_naive_in_safe_range(self, rng):
        x = rng.normal(size=100)
        assert np.allclose(_sigmoid(x), 1.0 / (1.0 + np.exp(-x)))


class TestMeanUpdate:
    def test_unique_rows_plain_sgd(self):
        m = np.zeros((3, 2))
        RowSGD(m, lr=1.0).update(np.array([0, 2]), np.ones((2, 2)), lr=0.5)
        assert np.allclose(m[0], -0.5)
        assert np.allclose(m[1], 0.0)
        assert np.allclose(m[2], -0.5)

    def test_duplicates_averaged_not_summed(self):
        m = np.zeros((2, 2))
        grads = np.array([[1.0, 1.0], [3.0, 3.0]])
        RowSGD(m, lr=1.0).update(np.array([0, 0]), grads)
        assert np.allclose(m[0], -2.0)  # mean of 1 and 3


class TestTrainer:
    def test_rejects_1d_embeddings(self):
        with pytest.raises(ValueError):
            SkipGramTrainer(np.zeros(5))

    def test_context_initialized_to_zeros(self, rng):
        trainer = SkipGramTrainer(rng.normal(size=(4, 3)))
        assert (trainer.context == 0).all()

    def test_shape_validation(self, rng):
        trainer = SkipGramTrainer(rng.normal(size=(5, 3)))
        with pytest.raises(ValueError):
            trainer.train_batch(
                np.array([0]), np.array([1, 2]), np.zeros((1, 2), int), 0.1
            )
        with pytest.raises(ValueError):
            trainer.train_batch(
                np.array([0]), np.array([1]), np.zeros(3, int), 0.1
            )

    def test_loss_decreases(self, rng):
        emb = rng.normal(0, 0.1, size=(10, 8))
        trainer = SkipGramTrainer(emb, rng=rng)
        centers = np.array([0, 1, 2, 3])
        contexts = np.array([1, 2, 3, 4])
        negatives = rng.integers(5, 10, size=(4, 5))
        before = trainer.loss_batch(centers, contexts, negatives)
        for _ in range(100):
            trainer.train_batch(centers, contexts, negatives, lr=0.1)
        after = trainer.loss_batch(centers, contexts, negatives)
        assert after < before

    def test_stable_with_duplicates(self, rng):
        """The failure mode the mean-update fixes: heavy duplication."""
        emb = rng.normal(0, 0.1, size=(6, 4))
        trainer = SkipGramTrainer(emb, rng=rng)
        centers = np.repeat([0, 1], 100)
        contexts = np.repeat([1, 0], 100)
        negatives = rng.integers(2, 6, size=(200, 5))
        for _ in range(50):
            trainer.train_batch(centers, contexts, negatives, lr=0.1)
        assert np.linalg.norm(emb) < 100.0
        assert np.isfinite(emb).all()

    def test_positive_pairs_become_similar(self, rng):
        emb = rng.normal(0, 0.1, size=(12, 8))
        trainer = SkipGramTrainer(emb, rng=rng)
        centers = np.array([0, 0, 0])
        contexts = np.array([1, 1, 1])
        negatives = rng.integers(2, 12, size=(3, 4))
        for _ in range(200):
            trainer.train_batch(centers, contexts, negatives, lr=0.1)
        pos = emb[0] @ trainer.context[1]
        negs = emb[0] @ trainer.context[negatives[0]].T
        assert pos > negs.max()

    def test_untouched_rows_unchanged(self, rng):
        emb = rng.normal(0, 0.1, size=(10, 4))
        snapshot = emb[9].copy()
        trainer = SkipGramTrainer(emb, rng=rng)
        trainer.train_batch(
            np.array([0]), np.array([1]), np.array([[2, 3]]), lr=0.5
        )
        assert np.array_equal(emb[9], snapshot)

    def test_updates_in_place(self, rng):
        emb = rng.normal(0, 0.1, size=(5, 4))
        view = emb  # same object
        trainer = SkipGramTrainer(emb, rng=rng)
        trainer.train_batch(
            np.array([0]), np.array([1]), np.array([[2, 3]]), lr=0.5
        )
        assert trainer.embeddings is view


def _materialized_step(input_opt, context_opt, centers, contexts, negatives, lr):
    """The SGNS step with every context-side gradient row built out,
    (B, m, d) negatives included, and one concatenated update."""
    emb, ctx = input_opt.matrix, context_opt.matrix
    w_c, w_o, w_n = emb[centers], ctx[contexts], ctx[negatives]
    g_pos = _sigmoid(np.einsum("bd,bd->b", w_c, w_o)) - 1.0
    g_neg = _sigmoid(np.einsum("bd,bmd->bm", w_c, w_n))
    grad_center = g_pos[:, None] * w_o + np.einsum("bm,bmd->bd", g_neg, w_n)
    grad_context = g_pos[:, None] * w_c
    grad_negatives = g_neg[..., None] * w_c[:, None, :]
    input_opt.update(centers, grad_center, lr=lr)
    context_opt.update(
        np.concatenate([contexts, negatives.reshape(-1)]),
        np.concatenate([grad_context, grad_negatives.reshape(-1, emb.shape[1])]),
        lr=lr,
    )


class TestFusedUpdateMatchesMaterialized:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_steps_bit_identical(self, optimizer, dtype):
        rng = np.random.default_rng(7)
        num_nodes, dim, batch, m = 9, 6, 40, 5
        start = rng.normal(0, 0.3, size=(num_nodes, dim)).astype(dtype)
        trainer = SkipGramTrainer(start.copy(), optimizer=optimizer)
        _, oracle_cls = ROW_OPTIMIZERS[optimizer]
        input_opt = oracle_cls(start.copy(), lr=0.025)
        context_opt = oracle_cls(np.zeros_like(start), lr=0.025)
        for _ in range(6):
            # few nodes: rows repeat within and across the two roles
            centers = rng.integers(num_nodes, size=batch)
            contexts = rng.integers(num_nodes, size=batch)
            negatives = rng.integers(num_nodes, size=(batch, m))
            trainer.train_batch(centers, contexts, negatives, lr=0.05)
            _materialized_step(
                input_opt, context_opt, centers, contexts, negatives, lr=0.05
            )
            assert np.array_equal(trainer.embeddings, input_opt.matrix)
            assert np.array_equal(trainer.context, context_opt.matrix)
