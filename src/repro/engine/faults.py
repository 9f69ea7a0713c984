"""Deterministic fault injection for chaos-testing the training runtime.

A production run at millions-of-edges scale must survive hung workers,
crashed shards, and full disks without losing the epoch.  The hardening
that makes that true lives in :mod:`repro.engine.parallel` (shard
watchdog, in-process retry, pool relaunch) and
:class:`repro.engine.callbacks.Checkpointer` (a failed save is logged,
not fatal) — this module provides the *controlled* failures that prove
it works: a :class:`FaultInjector` with named fault points that
tests and the CLI's ``--chaos`` mode can arm.

Fault points
------------

==========================  ==================================================
``worker.crash``            the next pool shard's worker SIGKILLs itself
                            (a true ``kill -9`` mid-shard)
``worker.hang``             the next pool shard's worker sleeps past any
                            reasonable deadline (exercises the shard watchdog)
``worker.exception``        the next pool shard raises
                            :class:`FaultInjected` inside the worker
``checkpoint.write_error``  the next checkpoint save raises
                            ``OSError(ENOSPC)``
==========================  ==================================================

Determinism contract
--------------------

An injector never consults wall clock, thread identity, or probability:
a fault point fires on exact invocation counts (``skip`` invocations let
through, then ``times`` firings) — so an armed chaos run is exactly as
reproducible as a clean one.  The hardened code paths are themselves
deterministic (failed shards replay their seeds, a failed checkpoint
save leaves training untouched), which is what lets tests assert
*bit-identical* output under faults.

Usage
-----

Tests arm a scoped injector::

    injector = FaultInjector().arm("worker.crash")
    with scoped(injector):
        model.fit(...)
    assert injector.fired["worker.crash"] == 1

The CLI arms a process-global one from ``--chaos``::

    repro train g.tsv --out e.txt --workers 1 --checkpoint-dir ck \\
        --chaos worker.crash,checkpoint.write_error

Production code consults the module-level accessors (:func:`get_active`,
:func:`fire_os_error`, :func:`worker_fault_for_submission`), which are a
``None`` check when nothing is armed — the whole layer is zero-cost
outside chaos runs.
"""

from __future__ import annotations

import errno
import os
import signal
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

#: every fault point an injector may arm
FAULT_POINTS = (
    "worker.crash",
    "worker.hang",
    "worker.exception",
    "checkpoint.write_error",
)

#: the worker-executed points and the action verb shipped to the worker
_WORKER_ACTIONS = {
    "worker.crash": "crash",
    "worker.hang": "hang",
    "worker.exception": "exception",
}


class FaultInjected(RuntimeError):
    """An armed fault point fired (simulated failure, not a real bug)."""


class _Arming:
    """Invocation bookkeeping of one armed point (under the injector lock)."""

    __slots__ = ("skip", "remaining", "seen")

    def __init__(self, times: int, skip: int) -> None:
        self.skip = skip
        self.remaining = times
        self.seen = 0


class FaultInjector:
    """Countable fault arming for the named :data:`FAULT_POINTS`.

    Two injectors with the same armings produce identical chaos.

    Args:
        hang_seconds: how long a ``worker.hang`` fault sleeps.  Must
            exceed the runtime's ``shard_timeout`` for the watchdog to
            trip; the default is far past any sane deadline.

    Thread safety: :meth:`should_fire` mutates counters under a lock,
    so any thread may probe points.
    """

    def __init__(self, hang_seconds: float = 3600.0) -> None:
        self.hang_seconds = float(hang_seconds)
        self._armings: dict[str, _Arming] = {}
        self._lock = threading.Lock()
        #: point -> number of times it actually fired
        self.fired: dict[str, int] = {}
        self._metrics: Any = None

    # ------------------------------------------------------------------
    def arm(self, point: str, times: int = 1, skip: int = 0) -> "FaultInjector":
        """Arm ``point`` to fire ``times`` times after ``skip`` passes.

        Returns ``self`` so armings chain:
        ``FaultInjector().arm("worker.crash").arm("worker.hang")``.
        """
        if point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; known: {list(FAULT_POINTS)}"
            )
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        if skip < 0:
            raise ValueError(f"skip must be >= 0, got {skip}")
        with self._lock:
            self._armings[point] = _Arming(times, skip)
        return self

    @classmethod
    def from_spec(
        cls, spec: str, hang_seconds: float = 3600.0
    ) -> "FaultInjector":
        """Build an injector from a ``--chaos`` spec string.

        The spec is a comma-separated list of ``point`` or ``point:times``
        entries, e.g. ``"worker.crash,checkpoint.write_error:2"``.
        """
        injector = cls(hang_seconds=hang_seconds)
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            point, _, count = entry.partition(":")
            try:
                times = int(count) if count else 1
            except ValueError:
                raise ValueError(
                    f"bad chaos entry {entry!r}: expected point[:times]"
                ) from None
            injector.arm(point, times=times)
        if not injector.armed_points():
            raise ValueError(f"chaos spec {spec!r} arms no fault points")
        return injector

    def armed_points(self) -> list[str]:
        """Points still armed (not yet exhausted), sorted."""
        with self._lock:
            return sorted(
                point
                for point, arming in self._armings.items()
                if arming.remaining > 0
            )

    def bind_metrics(self, metrics: Any) -> None:
        """Emit ``faults/*`` counters and events into ``metrics``
        (a :class:`repro.engine.observability.MetricsRegistry`)."""
        self._metrics = metrics
        if metrics is not None:
            metrics.event(
                "faults/armed",
                "fault injection active",
                points=self.armed_points(),
            )

    # ------------------------------------------------------------------
    def should_fire(self, point: str) -> bool:
        """Count one invocation of ``point``; ``True`` when it fires.

        Unarmed points always return ``False`` without bookkeeping.
        """
        if point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; known: {list(FAULT_POINTS)}"
            )
        with self._lock:
            arming = self._armings.get(point)
            if arming is None or arming.remaining <= 0:
                return False
            arming.seen += 1
            if arming.seen <= arming.skip:
                return False
            arming.remaining -= 1
            self.fired[point] = self.fired.get(point, 0) + 1
            metrics = self._metrics
        if metrics is not None:
            metrics.counter(f"faults/injected/{point}")
            metrics.event("faults/injected", "armed fault fired", point=point)
        return True

    def fire_os_error(self, point: str, err: int = errno.ENOSPC) -> None:
        """Raise ``OSError(err)`` if ``point`` fires this invocation."""
        if self.should_fire(point):
            raise OSError(err, f"{os.strerror(err)} (injected: {point})")


# ----------------------------------------------------------------------
# process-global activation (what the instrumented hot paths consult)
# ----------------------------------------------------------------------
_ACTIVE: FaultInjector | None = None


def activate(injector: FaultInjector | None) -> FaultInjector | None:
    """Install ``injector`` as the process-global one; returns the old."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, injector
    return previous


def get_active() -> FaultInjector | None:
    """The currently armed injector, or ``None`` (the production state)."""
    return _ACTIVE


@contextmanager
def scoped(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Activate ``injector`` for a ``with`` block, restoring the old one."""
    previous = activate(injector)
    try:
        yield injector
    finally:
        activate(previous)


def fire_os_error(point: str, err: int = errno.ENOSPC) -> None:
    """Module-level :meth:`FaultInjector.fire_os_error` on the active
    injector; a no-op when nothing is armed."""
    injector = _ACTIVE
    if injector is not None:
        injector.fire_os_error(point, err)


def worker_fault_for_submission() -> tuple[str, float] | None:
    """Decide, in the parent, whether the next pool shard misbehaves.

    Called once per shard submission by the parallel runtime.  Returns a
    picklable ``(action, arg)`` order for :func:`execute_worker_fault`,
    or ``None``.  The decision is consumed here — in-process fallback and
    retry paths never re-fire it, which is what keeps faulted output
    bit-identical to a clean run.
    """
    injector = _ACTIVE
    if injector is None:
        return None
    for point, action in _WORKER_ACTIONS.items():
        if injector.should_fire(point):
            arg = injector.hang_seconds if action == "hang" else 0.0
            return (action, arg)
    return None


def execute_worker_fault(fault: tuple[str, float] | None) -> None:
    """Carry out a parent-ordered fault; runs inside a pool worker."""
    if fault is None:
        return
    action, arg = fault
    if action == "crash":
        # a true kill -9: no cleanup, no exception machinery — the pool
        # sees the worker vanish exactly as under the OOM killer
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "hang":
        time.sleep(arg)
    elif action == "exception":
        raise FaultInjected(
            "injected worker exception (fault point worker.exception)"
        )
    else:  # pragma: no cover - parent only emits the three actions
        raise ValueError(f"unknown worker fault action {action!r}")
