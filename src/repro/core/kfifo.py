"""Bounded kernel-FIFO channel for kernel-module integration.

PMFS-style kernel modules cannot run the checking engine in kernel space,
so PMTest passes traces to the user-space engine through a kernel FIFO
(``/proc/PMTest``) of 1024 entries, and parks the kernel module on an
interruptible wait queue when the FIFO fills, waking it once the FIFO is
less than half full (paper Section 4.5).

This module simulates that channel: a bounded deque with hysteresis-based
backpressure.  The producer (the simulated kernel module) blocks in
:meth:`KernelFifo.put` when full and is only released once the consumer
has drained the FIFO below half capacity — exactly the paper's wake-up
condition, which avoids thrashing at the full mark.

Hardening: both :meth:`KernelFifo.put` and :meth:`KernelFifo.get` accept
deadlines (a parked producer is a classic livelock source if the
consumer dies), :meth:`KernelFifo.close` promptly wakes parked producers
and consumers with :class:`FifoClosed`, and the producer path consults
the session's chaos plan at the ``kfifo.put`` fault point so producer
starvation is testable deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from time import perf_counter_ns
from typing import Deque, Generic, Optional, TypeVar

from repro.core.faults import FaultPlan, FaultPoint
from repro.core.metrics import MetricsRegistry

T = TypeVar("T")

#: The paper's FIFO depth for /proc/PMTest.
DEFAULT_CAPACITY = 1024


class FifoClosed(Exception):
    """The channel was closed while an operation was blocked on it."""


class KernelFifo(Generic[T]):
    """Bounded FIFO with half-full wake-up hysteresis."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        faults: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        self.capacity = capacity
        self._faults = faults
        # All recording happens under self._lock, so a registry shared
        # with other FIFO users is safe; the off path is one branch.
        self._metrics = metrics
        self._items: Deque[T] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._below_half = threading.Condition(self._lock)
        self._closed = False
        #: number of times a producer had to park (observability for tests
        #: and for the kernel-integration benchmark)
        self.producer_waits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def put(self, item: T, timeout: Optional[float] = None) -> None:
        """Enqueue; block on the wait queue while the FIFO is full.

        A parked producer resumes only once the FIFO has drained below
        half capacity (the paper's interruptible wait queue behaviour).
        Raises :class:`FifoClosed` promptly if the channel is closed —
        including while parked — and :class:`TimeoutError` when a
        ``timeout`` deadline expires before space frees up.
        """
        if self._faults is not None:
            # Producer starvation / stall injection happens before the
            # lock: a starved kernel producer is slow, not deadlocked.
            self._faults.sleep_if_told(FaultPoint.KFIFO_PUT)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            metrics = self._metrics
            if len(self._items) >= self.capacity:
                self.producer_waits += 1
                wait_start = 0
                if metrics is not None:
                    metrics.counter("kfifo.producer_waits").inc(1)
                    if metrics.full:
                        wait_start = perf_counter_ns()
                while (
                    not self._closed
                    and len(self._items) >= self.capacity // 2
                ):
                    if deadline is None:
                        self._below_half.wait()
                    else:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0 or not self._below_half.wait(
                            timeout=remaining
                        ):
                            raise TimeoutError(
                                "kernel FIFO put timed out while parked"
                            )
                if wait_start:
                    metrics.histogram("kfifo.put_wait_ns").record(
                        perf_counter_ns() - wait_start
                    )
            if self._closed:
                raise FifoClosed("put on closed kernel FIFO")
            self._items.append(item)
            if metrics is not None:
                metrics.counter("kfifo.puts").inc(1)
                if metrics.full:
                    metrics.histogram("kfifo.occupancy").record(
                        len(self._items)
                    )
            self._not_empty.notify()

    def get(self, timeout: Optional[float] = None) -> T:
        """Dequeue; block while empty.  Raises :class:`FifoClosed` when the
        channel is closed and drained."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while not self._items:
                if self._closed:
                    raise FifoClosed("kernel FIFO closed and empty")
                if deadline is None:
                    self._not_empty.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._not_empty.wait(
                        timeout=remaining
                    ):
                        raise TimeoutError("kernel FIFO get timed out")
            item = self._items.popleft()
            if self._metrics is not None:
                self._metrics.counter("kfifo.gets").inc(1)
            if len(self._items) < self.capacity // 2:
                self._below_half.notify_all()
            return item

    def close(self) -> None:
        """Close the channel, waking all blocked producers and consumers.

        Parked producers raise :class:`FifoClosed` from ``put`` rather
        than staying blocked; consumers drain remaining items first and
        then raise from ``get``.
        """
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._below_half.notify_all()

