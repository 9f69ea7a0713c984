"""Chaos tests: the fault-injection harness and the hardening it proves.

Two layers under test.  The :class:`FaultInjector` itself must be
deterministic bookkeeping — exact invocation counts, scoped
activation.  And the runtime it attacks must *survive* every
armed fault with bit-identical output: a SIGKILLed pool worker, a hung
shard tripping the watchdog, an in-worker exception, a full disk under
the checkpointer, and (end-to-end) a chaos model fit that must match the
fault-free fit array-for-array.
"""

import errno
import os

import numpy as np
import pytest

from repro.core import TransN, TransNConfig
from repro.datasets import two_view_toy
from repro.engine import (
    CallablePhase,
    Checkpointer,
    CheckpointManager,
    TrainingLoop,
)
from repro.engine import faults
from repro.engine.faults import FaultInjected, FaultInjector, scoped
from repro.engine.observability import MetricsRegistry
from repro.engine.parallel import ParallelRuntime, single_view_seed
from repro.graph import separate_views
from repro.walks import BiasedCorrelatedPolicy

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


@pytest.fixture(scope="module")
def toy_view():
    graph, _ = two_view_toy()
    return separate_views(graph)[0]


@pytest.fixture(scope="module")
def expected_corpus(toy_view):
    """The fault-free corpus every chaos build must reproduce exactly."""
    seed = single_view_seed(7, 0, 3)
    with ParallelRuntime(2) as healthy:
        return healthy.build_corpus(
            toy_view, BiasedCorrelatedPolicy(), length=8, seed_seq=seed
        )


def _chaos_build(toy_view, runtime):
    seed = single_view_seed(7, 0, 3)
    return runtime.build_corpus(
        toy_view, BiasedCorrelatedPolicy(), length=8, seed_seq=seed
    )


# ----------------------------------------------------------------------
# the injector itself
# ----------------------------------------------------------------------
class TestInjector:
    def test_fires_exact_count(self):
        injector = FaultInjector().arm("worker.exception", times=2)
        assert injector.should_fire("worker.exception")
        assert injector.should_fire("worker.exception")
        assert not injector.should_fire("worker.exception")
        assert injector.fired["worker.exception"] == 2
        assert injector.armed_points() == []

    def test_skip_lets_early_invocations_through(self):
        injector = FaultInjector().arm("checkpoint.write_error", skip=2)
        assert [
            injector.should_fire("checkpoint.write_error") for _ in range(4)
        ] == [False, False, True, False]

    def test_unarmed_point_never_fires(self):
        injector = FaultInjector()
        assert not injector.should_fire("worker.crash")
        assert injector.fired == {}

    def test_unknown_point_rejected(self):
        injector = FaultInjector()
        with pytest.raises(ValueError, match="unknown fault point"):
            injector.arm("worker.bogus")
        with pytest.raises(ValueError, match="unknown fault point"):
            injector.should_fire("worker.bogus")

    def test_arm_validates_counts(self):
        with pytest.raises(ValueError, match="times"):
            FaultInjector().arm("worker.crash", times=0)
        with pytest.raises(ValueError, match="skip"):
            FaultInjector().arm("worker.crash", skip=-1)

    def test_from_spec(self):
        injector = FaultInjector.from_spec(
            "worker.crash, checkpoint.write_error:2"
        )
        assert injector.armed_points() == [
            "checkpoint.write_error",
            "worker.crash",
        ]
        assert injector.should_fire("checkpoint.write_error")
        assert injector.should_fire("checkpoint.write_error")
        assert not injector.should_fire("checkpoint.write_error")

    def test_from_spec_bad_entry(self):
        with pytest.raises(ValueError, match="point\\[:times\\]"):
            FaultInjector.from_spec("worker.crash:lots")
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultInjector.from_spec("worker.sulk")

    def test_from_spec_empty(self):
        with pytest.raises(ValueError, match="arms no fault points"):
            FaultInjector.from_spec(" , ")

    def test_fire_os_error(self):
        injector = FaultInjector().arm("checkpoint.write_error")
        with pytest.raises(OSError) as excinfo:
            injector.fire_os_error("checkpoint.write_error")
        assert excinfo.value.errno == errno.ENOSPC
        injector.fire_os_error("checkpoint.write_error")  # exhausted: no-op

    def test_scoped_restores_previous(self):
        assert faults.get_active() is None
        outer = FaultInjector()
        with scoped(outer):
            assert faults.get_active() is outer
            with scoped(FaultInjector()):
                assert faults.get_active() is not outer
            assert faults.get_active() is outer
        assert faults.get_active() is None

    def test_metrics_binding(self):
        metrics = MetricsRegistry()
        injector = FaultInjector().arm("worker.exception")
        injector.bind_metrics(metrics)
        assert injector.should_fire("worker.exception")
        assert metrics.counters["faults/injected/worker.exception"] == 1.0
        kinds = [event["kind"] for event in metrics.events]
        assert "faults/armed" in kinds
        assert "faults/injected" in kinds


# ----------------------------------------------------------------------
# pool chaos: every worker fault must leave the corpus bit-identical
# ----------------------------------------------------------------------
class TestWorkerFaults:
    def test_sigkilled_worker_bit_identical(self, toy_view, expected_corpus):
        metrics = MetricsRegistry()
        injector = FaultInjector().arm("worker.crash")
        injector.bind_metrics(metrics)
        with scoped(injector):
            with ParallelRuntime(
                2, metrics=metrics, relaunch_backoff=0.0
            ) as rt:
                corpus = _chaos_build(toy_view, rt)
                assert injector.fired["worker.crash"] == 1
                assert rt.pool_failures == 1  # SIGKILL broke the pool
                assert not rt.pool_broken  # budget left: not demoted
        np.testing.assert_array_equal(corpus.matrix, expected_corpus.matrix)
        np.testing.assert_array_equal(corpus.lengths, expected_corpus.lengths)
        assert metrics.counters["faults/injected/worker.crash"] == 1.0
        kinds = [event["kind"] for event in metrics.events]
        assert "parallel/pool_lost" in kinds

    def test_worker_exception_retries_that_shard(
        self, toy_view, expected_corpus
    ):
        metrics = MetricsRegistry()
        injector = FaultInjector().arm("worker.exception")
        with scoped(injector):
            with ParallelRuntime(2, metrics=metrics) as rt:
                corpus = _chaos_build(toy_view, rt)
                # the pool survives: only the poisoned shard replays
                assert rt.pool_failures == 0
                assert rt._pool is not None
        np.testing.assert_array_equal(corpus.matrix, expected_corpus.matrix)
        np.testing.assert_array_equal(corpus.lengths, expected_corpus.lengths)
        assert metrics.counters["parallel/shard_retry"] == 1.0

    def test_hung_worker_trips_watchdog(self, toy_view, expected_corpus):
        metrics = MetricsRegistry()
        injector = FaultInjector(hang_seconds=120.0).arm("worker.hang")
        with scoped(injector):
            with ParallelRuntime(
                2,
                metrics=metrics,
                shard_timeout=0.5,
                relaunch_backoff=0.0,
            ) as rt:
                corpus = _chaos_build(toy_view, rt)
                assert rt.pool_failures == 1  # hung pool was killed
        np.testing.assert_array_equal(corpus.matrix, expected_corpus.matrix)
        np.testing.assert_array_equal(corpus.lengths, expected_corpus.lengths)
        assert metrics.counters["parallel/shard_timeout"] == 1.0

    def test_exhausted_relaunch_budget_demotes(self, toy_view, expected_corpus):
        metrics = MetricsRegistry()
        injector = FaultInjector().arm("worker.crash")
        with scoped(injector):
            with ParallelRuntime(
                2,
                metrics=metrics,
                max_pool_relaunches=1,
                relaunch_backoff=0.0,
            ) as rt:
                first = _chaos_build(toy_view, rt)  # loss 1: budget left
                assert not rt.pool_broken
                injector.arm("worker.crash")  # crash the relaunched pool too
                second = _chaos_build(toy_view, rt)  # loss 2: demoted
                assert rt.pool_broken
                third = _chaos_build(toy_view, rt)  # in-process, quiet
        for corpus in (first, second, third):
            np.testing.assert_array_equal(
                corpus.matrix, expected_corpus.matrix
            )
        assert metrics.counters["parallel/fallback"] == 1.0


# ----------------------------------------------------------------------
# checkpoint write errors degrade, never kill the run
# ----------------------------------------------------------------------
class _Provider:
    def state_dict(self):
        return {"value": 1.0}

    def load_state_dict(self, state):
        pass


class TestCheckpointWriteError:
    def test_failed_save_warns_and_training_continues(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        metrics = MetricsRegistry()
        saver = Checkpointer(manager, _Provider(), every=1)
        phase = CallablePhase("train", lambda loop, epoch: {"loss": 1.0})
        loop = TrainingLoop([phase], callbacks=[saver], metrics=metrics)
        injector = FaultInjector().arm("checkpoint.write_error")
        with scoped(injector):
            with pytest.warns(RuntimeWarning, match="checkpoint save"):
                loop.run(2)
        # epoch 1's snapshot was lost; epoch 2's landed on the retry
        assert manager.steps() == [2]
        assert saver.write_errors == 1
        assert metrics.counters["checkpoint/write_errors"] == 1.0
        kinds = [event["kind"] for event in metrics.events]
        assert "checkpoint/write_errors" in kinds

    def test_real_oserror_also_degrades(self, tmp_path, monkeypatch):
        manager = CheckpointManager(tmp_path)
        saver = Checkpointer(manager, _Provider(), every=1)
        phase = CallablePhase("train", lambda loop, epoch: {"loss": 1.0})
        loop = TrainingLoop([phase], callbacks=[saver])

        def broken_save(state, step):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(manager, "save", broken_save)
        with pytest.warns(RuntimeWarning, match="training continues"):
            loop.run(2)
        assert loop.epochs_completed == 2
        assert saver.write_errors == 3  # epochs 1, 2 and the end-of-run save


# ----------------------------------------------------------------------
# end to end: a chaos fit must equal the fault-free fit bit for bit
# ----------------------------------------------------------------------
def _fit(checkpoint=None, **overrides):
    graph, _ = two_view_toy()
    model = TransN(graph, TransNConfig(**_CONFIG, workers=1, **overrides))
    model.fit(checkpoint=checkpoint)
    emb = model.embeddings()
    if model._parallel is not None:
        model._parallel.shutdown()
    return emb


class TestModelChaos:
    def test_chaos_fit_matches_clean_fit(self, tmp_path):
        clean = _fit(stream_corpus=True)
        injector = (
            FaultInjector()
            .arm("worker.crash")
            .arm("checkpoint.write_error")
        )
        with scoped(injector):
            with pytest.warns(RuntimeWarning, match="checkpoint save"):
                chaotic = _fit(checkpoint=tmp_path / "ck", stream_corpus=True)
        assert injector.fired["worker.crash"] == 1
        assert injector.fired["checkpoint.write_error"] == 1
        assert set(clean) == set(chaotic)
        for node in clean:
            np.testing.assert_array_equal(clean[node], chaotic[node])

    def test_worker_exception_fit_matches_clean_fit(self):
        clean = _fit()
        injector = FaultInjector().arm("worker.exception")
        with scoped(injector):
            chaotic = _fit()
        assert injector.fired["worker.exception"] == 1
        for node in clean:
            np.testing.assert_array_equal(clean[node], chaotic[node])
