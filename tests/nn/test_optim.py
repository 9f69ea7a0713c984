"""Tests for the SGD and Adam optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.nn import SGD, Adam, RowAdam, RowSGD


def quadratic_param(start):
    return Tensor(np.asarray(start, dtype=float), requires_grad=True)


def step_quadratic(optimizer, param, steps):
    """Minimize ||x||^2; returns final norm."""
    for _ in range(steps):
        optimizer.zero_grad()
        (param * param).sum().backward()
        optimizer.step()
    return float(np.linalg.norm(param.data))


class TestValidation:
    def test_no_parameters_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_nonpositive_lr_rejected(self):
        p = quadratic_param([1.0])
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)

    def test_bad_momentum_rejected(self):
        p = quadratic_param([1.0])
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)

    def test_bad_betas_rejected(self):
        p = quadratic_param([1.0])
        with pytest.raises(ValueError):
            Adam([p], lr=0.1, betas=(1.0, 0.9))


class TestSGD:
    def test_single_step_value(self):
        p = quadratic_param([2.0])
        SGD([p], lr=0.1).zero_grad()
        opt = SGD([p], lr=0.1)
        (p * p).sum().backward()
        opt.step()
        # x <- x - lr * 2x = 2 - 0.1*4 = 1.6
        assert p.data[0] == pytest.approx(1.6)

    def test_converges_on_quadratic(self):
        p = quadratic_param([3.0, -4.0])
        assert step_quadratic(SGD([p], lr=0.1), p, 100) < 1e-6

    def test_momentum_accelerates(self):
        p1 = quadratic_param([3.0])
        p2 = quadratic_param([3.0])
        plain = step_quadratic(SGD([p1], lr=0.01), p1, 50)
        momentum = step_quadratic(SGD([p2], lr=0.01, momentum=0.9), p2, 50)
        assert momentum < plain

    def test_skips_parameters_without_grad(self):
        p = quadratic_param([1.0])
        opt = SGD([p], lr=0.1)
        opt.step()  # no backward happened
        assert p.data[0] == 1.0


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_param([3.0, -4.0])
        assert step_quadratic(Adam([p], lr=0.1), p, 300) < 1e-4

    def test_first_step_is_lr_sized(self):
        """Adam's bias-corrected first step has magnitude ~lr."""
        p = quadratic_param([5.0])
        opt = Adam([p], lr=0.1)
        (p * p).sum().backward()
        opt.step()
        assert p.data[0] == pytest.approx(5.0 - 0.1, abs=1e-6)

    def test_handles_ill_conditioned(self):
        """Adam equalizes very different curvatures."""
        p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        scale = Tensor(np.array([100.0, 0.01]))
        opt = Adam([p], lr=0.05)
        for _ in range(500):
            opt.zero_grad()
            (p * p * scale).sum().backward()
            opt.step()
        assert np.abs(p.data).max() < 0.05

    def test_zero_grad_clears_all(self):
        p = quadratic_param([1.0])
        opt = Adam([p], lr=0.1)
        (p * p).sum().backward()
        opt.zero_grad()
        assert p.grad is None


class TestGradientNorm:
    def test_matches_manual_norm(self):
        from repro.nn.optim import gradient_norm

        grads = [np.array([3.0, 4.0]), None, np.array([[0.0]])]
        assert gradient_norm(grads) == pytest.approx(5.0)

    def test_empty_and_all_none(self):
        from repro.nn.optim import gradient_norm

        assert gradient_norm([]) == 0.0
        assert gradient_norm([None, None]) == 0.0

    def test_reduces_in_parameter_dtype(self):
        """A float32 gradient is measured in float32 — no silent float64
        copy of a potentially huge array just to take its norm."""
        from repro.nn.optim import gradient_norm

        grad = np.array([0.1, 0.2, 0.3], dtype=np.float32)
        in_dtype = float(np.sqrt(float(np.dot(grad, grad))))
        upcast = float(np.sqrt(np.dot(grad.astype(np.float64), grad.astype(np.float64))))
        assert gradient_norm([grad]) == in_dtype
        assert gradient_norm([grad]) != upcast


# ----------------------------------------------------------------------
# sparse row optimizers against the np.unique + np.add.at formula
# ----------------------------------------------------------------------
def _add_at_sum(matrix, rows, grads):
    """The reference aggregation: per-row sums in occurrence order."""
    unique, inverse, counts = np.unique(
        rows, return_inverse=True, return_counts=True
    )
    aggregated = np.zeros((unique.size, matrix.shape[1]), dtype=matrix.dtype)
    np.add.at(aggregated, inverse, grads)
    return unique, counts, aggregated


class OracleRowSGD:
    """``RowSGD.update`` written with ``np.unique`` + ``np.add.at``."""

    def __init__(self, matrix, lr):
        self.matrix, self.lr = matrix, lr

    def update(self, rows, grads, lr=None):
        step = self.lr if lr is None else lr
        unique, counts, aggregated = _add_at_sum(self.matrix, rows, grads)
        aggregated /= counts[:, None]
        self.matrix[unique] -= step * aggregated


class OracleRowAdam:
    """``RowAdam.update`` written with ``np.unique`` + ``np.add.at``."""

    def __init__(self, matrix, lr, betas=(0.9, 0.999), eps=1e-8):
        self.matrix, self.lr = matrix, lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = np.zeros_like(matrix)
        self._v = np.zeros_like(matrix)
        self._t = 0

    def update(self, rows, grads, lr=None):
        step = self.lr if lr is None else lr
        unique, _, aggregated = _add_at_sum(self.matrix, rows, grads)
        self._t += 1
        m = self.beta1 * self._m[unique] + (1.0 - self.beta1) * aggregated
        v = self.beta2 * self._v[unique] + (1.0 - self.beta2) * aggregated**2
        self._m[unique] = m
        self._v[unique] = v
        m_hat = m / (1.0 - self.beta1**self._t)
        v_hat = v / (1.0 - self.beta2**self._t)
        self.matrix[unique] -= step * m_hat / (np.sqrt(v_hat) + self.eps)


ROW_OPTIMIZERS = {"sgd": (RowSGD, OracleRowSGD), "adam": (RowAdam, OracleRowAdam)}


def _spread(rng, shape, dtype):
    """Values over several decades, so the summation order shows in the
    last bits of a row that repeats."""
    scale = 10.0 ** rng.integers(-3, 4, size=shape)
    return (rng.standard_normal(shape) * scale).astype(dtype)


class TestRowOptimizersMatchAddAt:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(sorted(ROW_OPTIMIZERS)),
        dtype=st.sampled_from([np.float32, np.float64]),
        row_dtype=st.sampled_from([np.int32, np.int64]),
        num_rows=st.integers(1, 6),
        num_occurrences=st.integers(0, 80),
        num_sources=st.integers(1, 4),
        dim=st.integers(1, 5),
        factored=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical(
        self, kind, dtype, row_dtype, num_rows, num_occurrences,
        num_sources, dim, factored, seed,
    ):
        """Plain and factored updates equal the add.at formula bit for
        bit, over a few steps (Adam's moments carry across them).  Few
        rows and sources make rows, and (row, source) pairs, repeat."""
        rng = np.random.default_rng(seed)
        start = _spread(rng, (num_rows, dim), dtype)
        actual, expected = start.copy(), start.copy()
        cls, oracle_cls = ROW_OPTIMIZERS[kind]
        optimizer, oracle = cls(actual, lr=0.05), oracle_cls(expected, lr=0.05)
        for _ in range(3):
            rows = rng.integers(num_rows, size=num_occurrences).astype(row_dtype)
            if factored:
                sources = _spread(rng, (num_sources, dim), dtype)
                weights = _spread(rng, num_occurrences, dtype)
                index = rng.integers(num_sources, size=num_occurrences)
                optimizer.update(rows, sources, weights=weights, index=index)
                oracle.update(rows, weights[:, None] * sources[index])
            else:
                grads = _spread(rng, (num_occurrences, dim), dtype)
                optimizer.update(rows, grads)
                oracle.update(rows, grads)
            assert actual.dtype == dtype
            assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("kind", sorted(ROW_OPTIMIZERS))
    def test_empty_batch_leaves_matrix(self, kind):
        matrix = np.arange(6.0).reshape(3, 2)
        cls, _ = ROW_OPTIMIZERS[kind]
        cls(matrix, lr=0.1).update(np.array([], dtype=np.int64), np.zeros((0, 2)))
        assert np.array_equal(matrix, np.arange(6.0).reshape(3, 2))

    @pytest.mark.parametrize("kind", sorted(ROW_OPTIMIZERS))
    def test_factored_form_needs_weights_and_index(self, kind):
        cls, _ = ROW_OPTIMIZERS[kind]
        optimizer = cls(np.zeros((3, 2)), lr=0.1)
        with pytest.raises(ValueError):
            optimizer.update(np.array([0, 1]), np.ones((1, 2)), weights=np.ones(2))
        with pytest.raises(ValueError):
            optimizer.update(np.array([0, 1]), np.ones((1, 2)), index=np.zeros(2, int))
