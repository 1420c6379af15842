"""Kernel-to-user trace plumbing (paper Figure 9b).

A kernel module cannot host the checking engine, so PMTest routes its
traces through a bounded kernel FIFO (``/proc/PMTest``) to the
user-space workers.  :class:`KernelBridge` is that channel: it exposes
the same sink protocol as :class:`~repro.core.workers.WorkerPool`
(``submit``/``drain``/``close``/``dispatched``), so a
:class:`~repro.core.api.PMTestSession` can be pointed at it via its
``sink`` parameter.  A consumer thread plays the user-space daemon,
popping traces from the FIFO and dispatching them to the pool.

Backpressure is end to end: if checking falls behind, the FIFO fills
and the "kernel" thread parks on the interruptible wait queue until the
consumer drains the FIFO below half capacity.

Fault tolerance mirrors the user-space pipeline: the worker pool under
the bridge supervises its workers and can degrade backends, ``submit``
honours an optional ``put_timeout`` so a parked kernel producer cannot
block forever when the consumer dies, ``drain`` watchdogs the consumer
daemon itself, and ``close`` is idempotent and always releases parked
producers (even when the drain fails).
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Tuple

from repro.core.backends import CheckingFailed
from repro.core.events import Trace
from repro.core.faults import FaultPlan
from repro.core.kfifo import DEFAULT_CAPACITY, FifoClosed, KernelFifo
from repro.core.metrics import MetricsRegistry, make_registry
from repro.core.reports import TestResult
from repro.core.rules import PersistencyRules
from repro.core.tracing import Tracer
from repro.core.workers import WorkerPool, _METRICS_FROM_ENV


class KernelBridge:
    """A trace sink that crosses a simulated kernel/user boundary."""

    def __init__(
        self,
        rules: Optional[PersistencyRules] = None,
        num_workers: int = 1,
        fifo_capacity: int = DEFAULT_CAPACITY,
        backend: Optional[str] = None,
        batch_size: Optional[int] = None,
        check_timeout: Optional[float] = None,
        max_retries: int = 2,
        fallback: bool = True,
        faults: Optional[FaultPlan] = None,
        put_timeout: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = _METRICS_FROM_ENV,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if metrics is _METRICS_FROM_ENV:
            metrics = make_registry()
        # The FIFO gets its own registry: its producer is the "kernel"
        # thread, and FIFO recording happens under the FIFO lock — kept
        # apart from the pool's submit-side registry and merged in
        # :meth:`metrics_snapshot`.
        self._fifo_metrics: Optional[MetricsRegistry] = (
            MetricsRegistry(metrics.level) if metrics is not None else None
        )
        self.fifo: KernelFifo[Trace] = KernelFifo(
            fifo_capacity, faults=faults, metrics=self._fifo_metrics
        )
        self.pool = WorkerPool(
            rules,
            num_workers=max(num_workers, 0),
            backend=backend,
            batch_size=batch_size,
            check_timeout=check_timeout,
            max_retries=max_retries,
            fallback=fallback,
            faults=faults,
            metrics=metrics,
            tracer=tracer,
        )
        self._check_timeout = check_timeout
        self._put_timeout = put_timeout
        self._submitted = 0
        self._lock = threading.Lock()
        self._closed = False
        self._final: Optional[Tuple[str, object]] = None
        self._consumer = threading.Thread(
            target=self._consume, name="pmtest-kernel-consumer", daemon=True
        )
        self._consumer.start()

    # ------------------------------------------------------------------
    # The sink protocol used by PMTestSession
    # ------------------------------------------------------------------
    @property
    def dispatched(self) -> int:
        with self._lock:
            return self._submitted

    @property
    def diagnostics(self) -> List[str]:
        """Recovery events observed by the pool below the bridge."""
        return self.pool.diagnostics

    def metrics_snapshot(self) -> Optional[MetricsRegistry]:
        """Pool registries plus the kernel-FIFO registry, merged."""
        snapshot = self.pool.metrics_snapshot()
        if snapshot is not None and self._fifo_metrics is not None:
            snapshot.merge(self._fifo_metrics)
        return snapshot

    def submit(self, trace: Trace) -> None:
        """Kernel side: push a trace, blocking on FIFO backpressure.

        With ``put_timeout`` configured, a producer parked on a dead
        consumer raises :class:`TimeoutError` instead of blocking
        forever; a closed bridge raises :class:`FifoClosed` promptly.
        """
        self.fifo.put(trace, timeout=self._put_timeout)
        with self._lock:
            self._submitted += 1

    def drain(self) -> TestResult:
        """Block until every submitted trace crossed the FIFO and was
        checked; return the aggregate result.

        The FIFO crossing itself is watchdogged: if the user-space
        consumer daemon dies with traces still in the FIFO (or
        ``check_timeout`` elapses with no crossing progress), this
        raises :class:`~repro.core.backends.CheckingFailed` instead of
        polling forever.
        """
        last_crossed = -1
        last_progress = time.monotonic()
        while True:
            with self._lock:
                submitted = self._submitted
            crossed = self.pool.dispatched
            if crossed >= submitted:
                break
            if crossed != last_crossed:
                last_crossed = crossed
                last_progress = time.monotonic()
            if not self._consumer.is_alive():
                raise CheckingFailed(
                    f"kernel consumer daemon died with "
                    f"{submitted - crossed} trace(s) still in the FIFO"
                )
            if (
                self._check_timeout is not None
                and time.monotonic() - last_progress > self._check_timeout
            ):
                raise CheckingFailed(
                    f"watchdog timeout: no trace crossed the kernel FIFO "
                    f"for {self._check_timeout:g}s "
                    f"({submitted - crossed} outstanding)"
                )
            time.sleep(0.0005)
        return self.pool.drain()

    def close(self) -> TestResult:
        """Drain, tear down the FIFO and the pool.  Idempotent, and the
        FIFO is closed (releasing any parked producer) even when the
        drain itself fails."""
        if self._final is not None:
            kind, value = self._final
            if kind == "err":
                raise value  # type: ignore[misc]
            return value  # type: ignore[return-value]
        self._closed = True
        try:
            self.drain()
            result = self.pool.close()
        except BaseException as exc:
            self._final = ("err", exc)
            raise
        else:
            self._final = ("ok", result)
            return result
        finally:
            self.fifo.close()
            self._consumer.join(timeout=5)

    # ------------------------------------------------------------------
    def _consume(self) -> None:
        """The user-space daemon: FIFO -> worker pool."""
        while True:
            try:
                trace = self.fifo.get()
            except FifoClosed:
                return
            self.pool.submit(trace)
