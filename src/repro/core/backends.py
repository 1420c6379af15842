"""Checking backends: where submitted traces actually get validated.

The paper's runtime (Section 4.4, Figure 8) decouples the program under
test from the checkers so validation proceeds in parallel with
execution.  How much parallelism that buys depends on *where* the
checking runs, so the pool's execution strategy is a pluggable backend:

``inline``
    Traces are checked synchronously inside ``submit`` on the calling
    thread.  Fully deterministic; what unit tests use (``workers=0``).
``thread``
    The paper's master/worker architecture with Python worker threads:
    round-robin dispatch to per-worker queues.  Checking overlaps
    program I/O and keeps ``submit`` cheap, but the GIL serializes the
    CPU-bound engine, so throughput does not scale with workers.
``process``
    Worker *processes*: traces are flattened to the compact wire
    encoding (:mod:`repro.core.traceio`), shipped in batches over a
    ``multiprocessing`` queue, checked in true parallel, and the
    results merged back.  This is the backend that reproduces the
    paper's Fig. 12 worker-scaling claim on multi-core hosts.

Every backend aggregates results in **submission order**: each trace's
result is tagged with its submit sequence number, and ``drain`` merges
them sorted by that tag.  Scheduling never leaks into the aggregate, so
all three backends produce bit-identical :class:`TestResult`\\ s for the
same trace stream (the cross-backend equivalence test asserts this over
the whole bug corpus).

Fault tolerance
---------------
``PMTest_GET_RESULT`` must never hang forever and a dead worker must
never silently drop traces, so the thread and process backends are
*supervised* (policy in :class:`~repro.core.faults.Resilience`):

* every submitted trace is retained (thread: the trace, process: its
  wire encoding) until its result arrives, so outstanding work is
  always requeueable;
* worker liveness is monitored during ``drain``; a dead worker is
  respawned (bounded by ``max_retries``, with exponential backoff) and
  its undrained traces are requeued — sequence-number merge plus
  de-duplication by sequence number make replay order- and
  duplicate-safe, so recovery cannot change a verdict;
* a ``check_timeout`` watchdog bounds drains: after that long with no
  completed trace, everything outstanding is requeued once, and if that
  brings no progress either the backend raises
  :class:`BackendUnhealthy` carrying its partial results and unchecked
  traces so the :class:`~repro.core.workers.WorkerPool` can degrade to
  the next backend in the chain (process -> thread -> inline);
* ``close``/``stop`` are idempotent and safe after a failed drain.

Chaos injection (:mod:`repro.core.faults`) drives these paths
deterministically: workers consult the session's fault plan at
``worker.batch``, the submitter at ``wire.encode``/``queue.put``, and
``make_backend`` at ``backend.spawn``.  Respawned workers are never
re-injected.  The inline backend is the deterministic reference and has
no fault points.

Channel
-------
Batches cross the process boundary on one ``multiprocessing.Queue``
each way: a feeder thread pickles each message (a list of
``(seq, tuple wire)`` pairs) into a pipe.  The backend retains the
tuple wire of every outstanding trace, so requeue/replay and the
corrupted-in-transit diagnosis work from the same bytes the workers
saw, and batch size adapts to backpressure (:class:`AdaptiveBatch`)
unless pinned with an explicit ``batch_size``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
import queue
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Protocol, Set, Tuple, runtime_checkable

from repro.core.engine import CheckingEngine
from repro.core.engine_columnar import make_engine, resolve_engine_name
from repro.core.interval_array import resolve_shadow_name
from repro.core.events import Trace
from repro.core.faults import (
    DEFAULT_RESILIENCE,
    FaultError,
    FaultKind,
    FaultPlan,
    FaultPoint,
    HANG_SECONDS,
    Resilience,
)
from repro.core.column_arena import ensure_tracker, release_attached
from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.core.recovery import RecoveryEvent, render_events
from repro.core.reports import TestResult
from repro.core.rules import PersistencyRules
from repro.core.tracing import SpanContext, Tracer, TracingError
from repro.core.verdict_cache import VerdictCache, resolve_cache_size
from repro.core.traceio import (
    TraceDecodeError,
    corrupt_wire,
    decode_registry,
    decode_result,
    decode_trace,
    encode_registry,
    encode_result,
    encode_trace,
)

#: Names accepted by :func:`make_backend` (and every ``backend=`` knob).
BACKEND_NAMES = ("inline", "thread", "process")

#: The degradation ladder: who picks up the work when a backend cannot
#: be spawned or is declared unhealthy mid-run.
FALLBACK_CHAIN = {"process": "thread", "thread": "inline", "inline": None}

#: Initial traces per IPC message for the process backend.  Batching
#: amortizes the per-message transport overhead; by default the size
#: then adapts between 1 and :data:`MAX_BATCH_SIZE` (an explicit
#: ``batch_size=`` pins it).
DEFAULT_BATCH_SIZE = 8

#: Upper bound for adaptive batch growth.
MAX_BATCH_SIZE = 64

#: Supervision poll interval while a drain is waiting (seconds).
_POLL = 0.02

#: ``(submit_seq, result)`` — the unit every backend aggregates.
_SeqResult = Tuple[int, TestResult]


class CheckingFailed(RuntimeError):
    """A worker raised while checking a trace.

    Raised from ``drain``/``close`` on the submitting side, carrying the
    original error's description.  (Inline checking raises the original
    exception directly from ``submit``.)
    """


class BackendUnhealthy(RuntimeError):
    """The backend cannot finish its work and should be replaced.

    Raised from ``drain`` when recovery is exhausted (respawn budget
    spent, or the watchdog fired twice without progress).  Carries
    everything the pool needs to degrade honestly: the per-trace results
    already salvaged (``pairs``), the traces that were never checked
    (``unchecked``), and the typed recovery events accumulated so far
    (``events``; ``diagnostics`` is their legacy string rendering).
    """

    def __init__(
        self,
        message: str,
        pairs: Tuple[_SeqResult, ...] = (),
        unchecked: Tuple[Tuple[int, Trace], ...] = (),
        events: Tuple[RecoveryEvent, ...] = (),
    ) -> None:
        super().__init__(message)
        self.pairs: List[_SeqResult] = list(pairs)
        self.unchecked: List[Tuple[int, Trace]] = list(unchecked)
        self.events: List[RecoveryEvent] = list(events)

    @property
    def diagnostics(self) -> List[str]:
        return render_events(self.events)


@runtime_checkable
class CheckingBackend(Protocol):
    """What the :class:`~repro.core.workers.WorkerPool` facade drives."""

    #: backend name, one of :data:`BACKEND_NAMES`
    name: str

    #: typed infrastructure events (respawns, requeues, watchdog sweeps)
    events: List[RecoveryEvent]

    @property
    def diagnostics(self) -> List[str]: ...

    @property
    def num_workers(self) -> int: ...

    @property
    def dispatched(self) -> int: ...

    def worker_trace_counts(self) -> List[int]: ...

    def metrics_registries(self) -> List[MetricsRegistry]: ...

    def backlog(self) -> int: ...

    def submit(self, trace: Trace) -> None: ...

    def drain_pairs(self) -> List[_SeqResult]: ...

    def drain(self) -> TestResult: ...

    def close(self) -> TestResult: ...

    def stop(self) -> None: ...


class AdaptiveBatch:
    """Batch-size controller for the process backend.

    Constructed with an explicit size it is *pinned* (the historical
    fixed ``batch_size`` behaviour); constructed with ``None`` it
    adapts multiplicatively between 1 and :data:`MAX_BATCH_SIZE`:

    * **backpressure** (more unconsumed batches in the task queue
      than ``2 x workers``): submissions outrun the workers, so double
      the batch to amortize per-message transport cost;
    * **starvation** (the queue is empty the moment we flush):
      workers are waiting on us, so halve the batch to cut the latency
      between a trace being submitted and a worker seeing it.

    ``observe`` is called after each flush with a racy queue-depth
    estimate — precision is irrelevant, the signal only has to point
    in the right direction often enough for the size to settle.
    """

    __slots__ = ("size", "fixed")

    def __init__(self, size: Optional[int] = None) -> None:
        if size is not None and size < 1:
            raise ValueError("batch_size must be >= 1")
        self.fixed = size is not None
        self.size = size if size is not None else DEFAULT_BATCH_SIZE

    def observe(self, backlog: int, workers: int) -> None:
        if self.fixed:
            return
        if backlog > 2 * max(workers, 1):
            self.size = min(self.size * 2, MAX_BATCH_SIZE)
        elif backlog == 0:
            self.size = max(self.size // 2, 1)


def make_backend(
    name: Optional[str],
    rules: Optional[PersistencyRules] = None,
    num_workers: int = 1,
    batch_size: Optional[int] = None,
    thread_name: str = "pmtest",
    resilience: Optional[Resilience] = None,
    faults: Optional[FaultPlan] = None,
    metrics: Optional[MetricsRegistry] = None,
    cache_size: Optional[int] = None,
    engine: Optional[str] = None,
    shadow: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    span_context: Optional[SpanContext] = None,
) -> "CheckingBackend":
    """Build a backend by name.

    ``name=None`` keeps the historical behaviour of the ``workers=``
    knob: ``0`` means inline, anything else the thread pool.  A
    ``backend.spawn`` FAIL fault (or a real spawn error) propagates to
    the caller; :func:`make_backend_with_fallback` turns it into
    degradation along :data:`FALLBACK_CHAIN`.

    ``metrics`` is the caller-owned submit-side registry; workers get
    registries of their own (see ``metrics_registries``).

    ``cache_size`` is the per-worker verdict-cache capacity (0
    disables it; ``None``: resolve the ``PMTEST_VERDICT_CACHE``
    environment knob, default on).

    ``engine`` selects the replay engine every worker builds —
    ``"object"`` (per-event dispatch, the default) or ``"columnar"``
    (struct-of-arrays batch replay); ``None`` resolves the
    ``PMTEST_ENGINE`` environment knob.  Resolved here, once, so all
    workers of one backend run the same engine even if the environment
    changes later.

    ``shadow`` selects the shadow-memory interval store every worker's
    engine builds — ``"object"`` (the default ``IntervalMap``) or
    ``"array"`` (struct-of-arrays ``ArrayIntervalMap``); ``None``
    resolves the ``PMTEST_SHADOW`` environment knob.  Verdict-neutral,
    like ``engine``.

    ``tracer``/``span_context`` opt the backend's workers into span
    recording: worker batch spans parent under ``span_context`` and
    land in ``tracer`` (the process backend ships its workers' events
    back piggybacked on result messages).  The inline backend ignores
    both — its work already happens inside the caller's spans.
    """
    name = resolve_backend_name(name, num_workers)
    engine = resolve_engine_name(engine)
    shadow = resolve_shadow_name(shadow)
    if cache_size is None:
        cache_size = resolve_cache_size()
    if name == "inline":
        return InlineBackend(
            rules, metrics=metrics, cache_size=cache_size, engine=engine,
            shadow=shadow,
        )
    if faults is not None:
        rule = faults.fire(FaultPoint.SPAWN)
        if rule is not None and rule.kind is FaultKind.FAIL:
            raise FaultError(f"injected spawn failure for {name!r} backend")
    if name == "thread":
        return ThreadBackend(
            rules,
            max(num_workers, 1),
            name=thread_name,
            resilience=resilience,
            faults=faults,
            metrics=metrics,
            cache_size=cache_size,
            engine=engine,
            shadow=shadow,
            tracer=tracer,
            span_context=span_context,
        )
    if name == "process":
        return ProcessBackend(
            rules,
            max(num_workers, 1),
            batch_size=batch_size,
            resilience=resilience,
            faults=faults,
            metrics=metrics,
            cache_size=cache_size,
            engine=engine,
            shadow=shadow,
            tracer=tracer,
            span_context=span_context,
        )
    raise ValueError(
        f"unknown checking backend {name!r}; expected one of {BACKEND_NAMES}"
    )


def resolve_backend_name(name: Optional[str], num_workers: int) -> str:
    """Resolve the historical ``workers=`` knob to a backend name."""
    if name is None:
        return "inline" if num_workers == 0 else "thread"
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown checking backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    return name


def make_backend_with_fallback(
    name: Optional[str],
    rules: Optional[PersistencyRules] = None,
    num_workers: int = 1,
    batch_size: Optional[int] = None,
    thread_name: str = "pmtest",
    resilience: Optional[Resilience] = None,
    faults: Optional[FaultPlan] = None,
    metrics: Optional[MetricsRegistry] = None,
    cache_size: Optional[int] = None,
    engine: Optional[str] = None,
    shadow: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    span_context: Optional[SpanContext] = None,
) -> Tuple["CheckingBackend", List[RecoveryEvent]]:
    """Build a backend, degrading along the chain when spawning fails.

    Returns ``(backend, events)`` where the typed
    :class:`~repro.core.recovery.RecoveryEvent` list records every
    degradation step taken.  With ``resilience.fallback`` off, spawn
    errors propagate unchanged.
    """
    resilience = resilience or DEFAULT_RESILIENCE
    current = resolve_backend_name(name, num_workers)
    events: List[RecoveryEvent] = []
    while True:
        try:
            backend = make_backend(
                current,
                rules,
                num_workers=num_workers,
                batch_size=batch_size,
                thread_name=thread_name,
                resilience=resilience,
                faults=faults,
                metrics=metrics,
                cache_size=cache_size,
                engine=engine,
                shadow=shadow,
                tracer=tracer,
                span_context=span_context,
            )
            return backend, events
        except ValueError:
            raise
        except Exception as exc:
            nxt = FALLBACK_CHAIN.get(current)
            if not resilience.fallback or nxt is None:
                raise
            events.append(RecoveryEvent.spawn_fallback(current, exc, nxt))
            current = nxt


def _merge_ordered(pairs: List[_SeqResult]) -> TestResult:
    """Aggregate per-trace results in submission order."""
    snapshot = TestResult()
    for _, result in sorted(pairs, key=lambda pair: pair[0]):
        snapshot.merge(result)
    return snapshot


# ----------------------------------------------------------------------
# Inline
# ----------------------------------------------------------------------
class InlineBackend:
    """Synchronous checking on the submitting thread (``workers=0``).

    The deterministic reference backend: no workers, no fault points,
    and the last rung of the degradation ladder (it must never fail to
    spawn).
    """

    name = "inline"

    def __init__(
        self,
        rules: Optional[PersistencyRules] = None,
        metrics: Optional[MetricsRegistry] = None,
        cache_size: int = 0,
        engine: Optional[str] = None,
        shadow: Optional[str] = None,
    ) -> None:
        cache = VerdictCache(cache_size) if cache_size > 0 else None
        self.engine_name = resolve_engine_name(engine)
        self.shadow_name = resolve_shadow_name(shadow)
        self._engine = make_engine(
            self.engine_name, rules, metrics, cache=cache,
            shadow=self.shadow_name,
        )
        self._metrics = metrics
        self._lock = threading.Lock()
        self._results: List[_SeqResult] = []
        self._dispatched = 0
        self.events: List[RecoveryEvent] = []

    @property
    def diagnostics(self) -> List[str]:
        return render_events(self.events)

    @property
    def num_workers(self) -> int:
        return 0

    @property
    def dispatched(self) -> int:
        return self._dispatched

    def worker_trace_counts(self) -> List[int]:
        return []

    def metrics_registries(self) -> List[MetricsRegistry]:
        # The inline engine records straight into the caller's registry;
        # there is nothing worker-owned to merge.
        return []

    def backlog(self) -> int:
        """Traces submitted but not yet checked (always 0: inline
        checking completes inside ``submit``)."""
        return 0

    def submit(self, trace: Trace) -> None:
        metrics = self._metrics
        if metrics is not None:
            # Inline has no ingest cost by construction (no encoding, no
            # queue); only the handoff count is meaningful.
            metrics.counter("stage.trace_ingest.count").inc(1)
        with self._lock:
            seq = self._dispatched
            self._dispatched += 1
            self._results.append((seq, self._engine.check_trace(trace)))

    def drain_pairs(self) -> List[_SeqResult]:
        with self._lock:
            return list(self._results)

    def drain(self) -> TestResult:
        result = _merge_ordered(self.drain_pairs())
        result.diagnostics.extend(self.diagnostics)
        return result

    def close(self) -> TestResult:
        return self.drain()

    def stop(self) -> None:
        pass


# ----------------------------------------------------------------------
# Threads
# ----------------------------------------------------------------------
class ThreadBackend:
    """The paper's worker pool: round-robin dispatch to worker threads.

    ``submit`` takes the lock only for round-robin index bookkeeping;
    each worker appends results to a list it alone writes, and ``drain``
    aggregates those per-worker lists once every submitted sequence
    number is accounted for.  The checked results themselves never cross
    the lock.

    Supervision: each submitted trace is retained in ``_incomplete``
    until checked, workers publish a per-slot heartbeat and in-flight
    sequence number, and ``drain`` polls worker liveness.  A dead worker
    thread is replaced on the same queue (its queued work survives; only
    the in-flight trace needs requeueing); a hung worker's queue is
    redistributed by the watchdog sweep.  Duplicate results from replays
    are dropped by sequence number before merging.
    """

    name = "thread"

    #: Sentinel pushed to a worker's queue to ask it to exit.
    _STOP = None

    def __init__(
        self,
        rules: Optional[PersistencyRules] = None,
        num_workers: int = 1,
        name: str = "pmtest",
        resilience: Optional[Resilience] = None,
        faults: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        cache_size: int = 0,
        engine: Optional[str] = None,
        shadow: Optional[str] = None,
        tracer: Optional[Tracer] = None,
        span_context: Optional[SpanContext] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("thread backend needs at least one worker")
        self._rules = rules
        self._metrics = metrics
        #: shared tracer for worker batch spans (threads record straight
        #: into it; all spans parent under ``span_context``)
        self._tracer = tracer
        self._span_ctx = span_context
        self.engine_name = resolve_engine_name(engine)
        self.shadow_name = resolve_shadow_name(shadow)
        #: per-worker verdict-cache capacity (0: no cache); each worker
        #: builds its own cache so no synchronisation is needed
        self._cache_size = cache_size
        self._metrics_level: Optional[MetricsLevel] = (
            metrics.level if metrics is not None else None
        )
        #: per-spawned-worker registries (each written only by its
        #: worker thread; appended on worker startup)
        self._worker_registries: List[MetricsRegistry] = []
        self._resilience = resilience or DEFAULT_RESILIENCE
        self._num_workers = num_workers
        self._thread_name = name
        self._lock = threading.Lock()
        self._next_worker = 0
        self._dispatched = 0
        self._per_worker_counts = [0] * num_workers
        #: per-worker result/error lists, written only by their worker
        self._worker_results: List[List[_SeqResult]] = [
            [] for _ in range(num_workers)
        ]
        self._worker_errors: List[List[Tuple[int, BaseException]]] = [
            [] for _ in range(num_workers)
        ]
        #: seq -> trace for everything not yet checked (requeue source)
        self._incomplete: Dict[int, Trace] = {}
        #: per-slot in-flight seq (written by the worker, read by drain)
        self._current: List[Optional[int]] = [None] * num_workers
        self._heartbeat: List[float] = [time.monotonic()] * num_workers
        self._progress = threading.Event()
        self._stopping = threading.Event()
        self._respawns = 0
        self._stopped = False
        self._final: Optional[Tuple[str, Any]] = None
        self.events: List[RecoveryEvent] = []
        self._queues: List["queue.Queue[Any]"] = []
        self._threads: List[threading.Thread] = []
        for i in range(num_workers):
            q: "queue.Queue[Any]" = queue.Queue()
            self._queues.append(q)
            self._threads.append(self._spawn(i, q, faults))

    @property
    def diagnostics(self) -> List[str]:
        return render_events(self.events)

    def metrics_registries(self) -> List[MetricsRegistry]:
        return list(self._worker_registries)

    def _spawn(
        self, index: int, q: "queue.Queue[Any]", faults: Optional[FaultPlan]
    ) -> threading.Thread:
        thread = threading.Thread(
            target=self._worker_loop,
            args=(index, q, faults),
            name=f"{self._thread_name}-worker-{index}",
            daemon=True,
        )
        thread.start()
        return thread

    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def dispatched(self) -> int:
        return self._dispatched

    def worker_trace_counts(self) -> List[int]:
        return list(self._per_worker_counts)

    def heartbeats(self) -> List[float]:
        """Monotonic timestamp of each worker's last completed trace."""
        return list(self._heartbeat)

    def backlog(self) -> int:
        """Estimated traces submitted but not yet checked.

        Computed as dispatched minus results appended so far; requeue
        replays can briefly overstate completion, so the value is a
        backpressure signal, not an exact count.
        """
        done = sum(len(results) for results in self._worker_results)
        return max(0, self._dispatched - done)

    def submit(self, trace: Trace) -> None:
        metrics = self._metrics
        if metrics is not None and metrics.full:
            start = perf_counter_ns()
            index, seq = self._submit_bookkeeping(trace)
            q = self._queues[index]
            # Depth seen by the enqueued trace: how many items wait
            # ahead of it on its worker's queue.
            metrics.histogram("thread.queue_depth").record(q.qsize())
            # The third element timestamps the enqueue so the worker can
            # attribute queue wait (requeue paths stay 2-tuples).
            q.put((seq, trace, perf_counter_ns()))
            counter = metrics.counter
            counter("stage.trace_ingest.ns").inc(perf_counter_ns() - start)
            counter("stage.trace_ingest.count").inc(1)
            return
        if metrics is not None:
            metrics.counter("stage.trace_ingest.count").inc(1)
        index, seq = self._submit_bookkeeping(trace)
        self._queues[index].put((seq, trace))

    def _submit_bookkeeping(self, trace: Trace) -> Tuple[int, int]:
        with self._lock:
            index = self._next_worker
            self._next_worker = (index + 1) % self._num_workers
            seq = self._dispatched
            self._dispatched += 1
            self._per_worker_counts[index] += 1
            self._incomplete[seq] = trace
        return index, seq

    # ------------------------------------------------------------------
    def _collected(
        self,
    ) -> Tuple[Dict[int, TestResult], List[Tuple[int, BaseException]]]:
        """Snapshot worker output, de-duplicated by sequence number."""
        pairs: Dict[int, TestResult] = {}
        errors: List[Tuple[int, BaseException]] = []
        for worker in self._worker_results:
            for seq, result in list(worker):
                if seq not in pairs:
                    pairs[seq] = result
        for worker in self._worker_errors:
            errors.extend(list(worker))
        return pairs, errors

    def drain_pairs(self) -> List[_SeqResult]:
        res = self._resilience
        last_progress = time.monotonic()
        last_done = -1
        swept = False
        while True:
            pairs, errors = self._collected()
            done: Set[int] = set(pairs)
            done.update(seq for seq, _ in errors)
            for seq in done:
                self._incomplete.pop(seq, None)
            if errors:
                seq, error = min(errors, key=lambda pair: pair[0])
                raise CheckingFailed(
                    f"checking trace (submit #{seq}) failed: {error!r}"
                ) from error
            if len(done) >= self._dispatched:
                return sorted(pairs.items())
            now = time.monotonic()
            if len(done) != last_done:
                last_done = len(done)
                last_progress = now
                swept = False
            self._supervise(done, pairs)
            if (
                res.check_timeout is not None
                and now - last_progress > res.check_timeout
            ):
                if not swept:
                    n = self._redistribute(done)
                    self.events.append(
                        RecoveryEvent.watchdog_redistribute(
                            res.check_timeout, n
                        )
                    )
                    swept = True
                    last_progress = now
                else:
                    self._unhealthy(
                        pairs,
                        done,
                        f"watchdog timeout: no checking progress for "
                        f"{res.check_timeout:g}s after redistributing "
                        f"outstanding traces",
                    )
            self._progress.wait(_POLL)
            self._progress.clear()

    def _supervise(self, done: Set[int], pairs: Dict[int, TestResult]) -> None:
        """Respawn dead worker threads and requeue their in-flight trace."""
        if self._stopping.is_set():
            return
        res = self._resilience
        for index in range(self._num_workers):
            if self._threads[index].is_alive():
                continue
            inflight = self._current[index]
            if self._respawns >= res.max_retries:
                self._unhealthy(
                    pairs,
                    done,
                    f"checking worker thread {index} died and the retry "
                    f"budget ({res.max_retries}) is exhausted",
                )
            self._respawns += 1
            time.sleep(res.backoff_base * (2 ** (self._respawns - 1)))
            # Respawned workers are never re-injected (faults=None); the
            # same queue is reused, so queued work survives the death.
            self._threads[index] = self._spawn(index, self._queues[index], None)
            requeued = 0
            if inflight is not None and inflight not in done:
                trace = self._incomplete.get(inflight)
                if trace is not None:
                    self._current[index] = None
                    self._queues[index].put((inflight, trace))
                    requeued = 1
            self.events.append(
                RecoveryEvent.respawn_thread(
                    index, requeued, self._respawns, res.max_retries
                )
            )

    def _redistribute(self, done: Set[int]) -> int:
        """Watchdog sweep: resend every outstanding trace to live workers."""
        alive = [
            i for i in range(self._num_workers) if self._threads[i].is_alive()
        ]
        if not alive:
            return 0
        # Prefer idle workers; a hung worker has its in-flight seq set.
        targets = [i for i in alive if self._current[i] is None] or alive
        n = 0
        for seq, trace in sorted(self._incomplete.items()):
            if seq in done:
                continue
            self._queues[targets[n % len(targets)]].put((seq, trace))
            n += 1
        return n

    def _unhealthy(
        self, pairs: Dict[int, TestResult], done: Set[int], message: str
    ) -> None:
        unchecked = [
            (seq, trace)
            for seq, trace in sorted(self._incomplete.items())
            if seq not in done
        ]
        raise BackendUnhealthy(
            message,
            pairs=tuple(sorted(pairs.items())),
            unchecked=tuple(unchecked),
            events=tuple(self.events),
        )

    # ------------------------------------------------------------------
    def drain(self) -> TestResult:
        result = _merge_ordered(self.drain_pairs())
        result.diagnostics.extend(self.diagnostics)
        return result

    def close(self) -> TestResult:
        if self._final is not None:
            kind, value = self._final
            if kind == "err":
                raise value
            return value
        try:
            result = self.drain()
        except BaseException as exc:
            self._final = ("err", exc)
            raise
        else:
            self._final = ("ok", result)
            return result
        finally:
            # Stop workers even when drain() surfaces a checking error.
            self.stop()

    def stop(self) -> None:
        """Stop all workers without draining.  Idempotent, never raises."""
        if self._stopped:
            return
        self._stopped = True
        self._stopping.set()
        for q in self._queues:
            q.put(self._STOP)
        for thread in self._threads:
            thread.join(timeout=2.0)

    def _worker_loop(
        self, index: int, q: "queue.Queue[Any]", faults: Optional[FaultPlan]
    ) -> None:
        # Each spawned worker owns its engine and (when metrics are on)
        # its registry — recording never crosses threads; aggregation is
        # a commutative registry merge at snapshot time.
        registry = None
        wait_hist = None
        if self._metrics_level is not None:
            registry = MetricsRegistry(self._metrics_level)
            self._worker_registries.append(registry)
            if registry.full:
                wait_hist = registry.histogram("thread.queue_wait_ns")
        cache = (
            VerdictCache(self._cache_size) if self._cache_size > 0 else None
        )
        engine = make_engine(
            self.engine_name, self._rules, registry, cache=cache,
            shadow=self.shadow_name,
        )
        results = self._worker_results[index]
        errors = self._worker_errors[index]
        while True:
            item = q.get()
            if item is self._STOP:
                return
            seq, trace = item[0], item[1]
            if wait_hist is not None and len(item) > 2:
                wait_hist.record(perf_counter_ns() - item[2])
            self._current[index] = seq
            if faults is not None:
                rule = faults.fire(FaultPoint.WORKER_BATCH, worker=index)
                if rule is not None:
                    if rule.kind is FaultKind.CRASH:
                        return  # die with the trace in flight
                    if rule.kind is FaultKind.HANG:
                        deadline = time.monotonic() + (
                            rule.delay or HANG_SECONDS
                        )
                        while (
                            not self._stopping.is_set()
                            and time.monotonic() < deadline
                        ):
                            time.sleep(0.01)
                    elif rule.kind is FaultKind.SLOW:
                        time.sleep(rule.delay)
                    elif rule.kind is FaultKind.FAIL:
                        errors.append((seq, FaultError("injected worker failure")))
                        self._current[index] = None
                        self._heartbeat[index] = time.monotonic()
                        self._progress.set()
                        continue
            span = None
            if self._tracer is not None:
                try:
                    span = self._tracer.start_span(
                        "worker.check", parent=self._span_ctx,
                        worker=index, seq=seq,
                    )
                except TracingError:  # tracer flushed mid-shutdown
                    span = None
            try:
                results.append((seq, engine.check_trace(trace)))
            except BaseException as exc:  # surfaced from drain()
                errors.append((seq, exc))
            if span is not None:
                span.finish()
            self._current[index] = None
            self._heartbeat[index] = time.monotonic()
            self._progress.set()


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def _process_worker(*args, **kwargs) -> None:
    """Worker-process entry: run the loop, then detach shard arenas.

    The arena detach must happen while the interpreter is healthy: at
    shutdown, GC may finalize a ``SharedMemory`` before the column
    views pinning its buffer and spew ``BufferError`` noise from
    ``__del__``.  Crash exits (``os._exit``) skip this by design — the
    creator's unlink still reclaims the segment.
    """
    try:
        _process_worker_loop(*args, **kwargs)
    finally:
        release_attached()


def _process_worker_loop(
    index: int, task_q, result_q, rules, faults, metrics_level=None,
    cache_size: int = 0,
    engine_name: str = "object",
    trace_ctx: Optional[Tuple[int, int]] = None,
    shadow_name: str = "object",
) -> None:
    """Worker-process main: ack, decode, check, encode, repeat.

    The ack message doubles as a heartbeat and tells the supervisor
    which sequence numbers this worker holds, so a crash mid-batch can
    be recovered by requeueing exactly the acked-but-unfinished traces.

    With ``metrics_level`` set (a :class:`MetricsLevel` value string)
    the worker records into a local registry and ships it as a *delta*
    piggybacked on each result message, clearing afterwards — the
    submitting side merges deltas, so worker metrics survive everything
    short of a crash between checking and sending.

    ``trace_ctx`` (a ``(trace_id, span_id)`` pair) opts the worker into
    span recording: batch spans parent under the pool-side span the
    pair names and their rendered Chrome events ship piggybacked on
    result messages (drained after each send, so events travel exactly
    once and carry this process's own pid).

    ``task_q`` carries batches of ``(seq, tuple wire)`` pairs (``None``
    asks the worker to exit); ``result_q`` carries ``("ack", ...)`` and
    ``("res", ...)`` tuples back to the collector.
    """
    registry = None
    if metrics_level is not None:
        registry = MetricsRegistry(MetricsLevel(metrics_level))
    tracer = None
    if trace_ctx is not None:
        tracer = Tracer(
            process_name=f"pmtest-worker-{index}",
            root=SpanContext(trace_ctx[0], trace_ctx[1]),
        )
    cache = VerdictCache(cache_size) if cache_size > 0 else None
    engine = make_engine(
        engine_name, rules, registry, cache=cache, shadow=shadow_name
    )
    while True:
        pairs = task_q.get()  # [(seq, tuple wire), ...]
        if pairs is None:
            return
        seqs = [seq for seq, _ in pairs]
        result_q.put(("ack", index, seqs))
        if registry is not None:
            registry.counter("process.worker_batches").inc(1)
            if registry.full:
                registry.histogram("process.batch_traces").record(len(pairs))
        if faults is not None:
            rule = faults.fire(FaultPoint.WORKER_BATCH, worker=index)
            if rule is not None:
                if rule.kind is FaultKind.CRASH:
                    os._exit(17)
                if rule.kind is FaultKind.HANG:
                    time.sleep(rule.delay or HANG_SECONDS)
                elif rule.kind is FaultKind.SLOW:
                    time.sleep(rule.delay)
                elif rule.kind is FaultKind.FAIL:
                    result_q.put(("res", index, [
                        (seq, None, "FaultError('injected worker failure')")
                        for seq in seqs
                    ]))
                    continue
        batch_span = (
            tracer.start_span("worker.batch", worker=index,
                              traces=len(pairs))
            if tracer is not None else None
        )
        out = []
        for seq, wire in pairs:
            try:
                result = engine.check_trace(decode_trace(wire))
            except BaseException as exc:
                out.append((seq, None, repr(exc)))
            else:
                out.append((seq, encode_result(result), None))
        if batch_span is not None:
            batch_span.finish(checked=len(out))
        spans = tracer.drain_events() if tracer is not None else None
        delta = registry if registry is not None and registry else None
        if delta is not None or spans:
            result_q.put(("res", index, out,
                          encode_registry(delta) if delta is not None else None,
                          spans))
            if delta is not None:
                registry.clear()
        else:
            result_q.put(("res", index, out))


class ProcessBackend:
    """True multi-core checking over a ``multiprocessing`` worker pool.

    Traces are flattened with the compact wire encoding and grouped
    into batches per IPC message (adaptive size unless pinned; see
    :class:`AdaptiveBatch`); workers pull batches from one shared task
    queue (self-scheduling, no round-robin imbalance) and push results
    back on a result queue.  A collector thread on the submitting side
    decodes results as they arrive, so ``drain`` only has to wait for
    the outstanding count to hit zero and merge.

    Supervision: wires are retained in ``_incomplete`` until their
    results arrive, workers announce the sequence numbers of every batch
    they pick up (the ack doubles as a heartbeat), and ``drain``
    monitors process liveness.  A dead worker is respawned (bounded by
    ``max_retries``, exponential backoff) and its acked-but-unfinished
    traces requeued; the ``check_timeout`` watchdog requeues *all*
    outstanding traces once (covering a crash in the unobservable window
    between dequeue and ack, and hung workers) before declaring the
    backend unhealthy.  The collector drops duplicate results by
    sequence number, so replays cannot change the aggregate.
    """

    name = "process"

    def __init__(
        self,
        rules: Optional[PersistencyRules] = None,
        num_workers: int = 1,
        batch_size: Optional[int] = None,
        resilience: Optional[Resilience] = None,
        faults: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        cache_size: int = 0,
        engine: Optional[str] = None,
        shadow: Optional[str] = None,
        tracer: Optional[Tracer] = None,
        span_context: Optional[SpanContext] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("process backend needs at least one worker")
        self._cache_size = cache_size
        #: pool-side tracer worker span events are absorbed into (the
        #: collector folds shipped events in as they arrive); workers
        #: get the ``(trace_id, span_id)`` wire pair to parent under
        self._tracer = tracer
        parent = span_context if span_context is not None else (
            tracer.root if tracer is not None else None
        )
        self._trace_ctx: Optional[Tuple[int, int]] = (
            parent.to_pair()
            if tracer is not None and parent is not None else None
        )
        self.engine_name = resolve_engine_name(engine)
        self.shadow_name = resolve_shadow_name(shadow)
        self._batch = AdaptiveBatch(batch_size)
        self._rules = rules
        self._metrics = metrics
        #: accumulated worker-registry deltas plus collector-side
        #: counters; written only by the collector thread (under the
        #: lock), read via :meth:`metrics_registries`
        self._remote_metrics: Optional[MetricsRegistry] = (
            MetricsRegistry(metrics.level) if metrics is not None else None
        )
        self._num_workers = num_workers
        self._resilience = resilience or DEFAULT_RESILIENCE
        self._faults = faults
        # fork (where available) shares the already-imported modules;
        # spawn works too since the worker fn, rules, and queues are
        # picklable.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        # Pre-start the resource tracker so every worker shares it;
        # arena attach registrations then dedup against the creator's
        # instead of accumulating in per-worker private trackers that
        # would unlink live segments on a worker crash.
        ensure_tracker()
        self._processes = [
            self._spawn_worker(i, faults) for i in range(num_workers)
        ]
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._dispatched = 0
        self._completed: Set[int] = set()
        self._pending: List[Tuple[int, tuple]] = []  # unflushed batch
        self._results: List[_SeqResult] = []
        self._errors: List[Tuple[int, str]] = []
        #: seq -> wire for everything not yet checked (requeue source)
        self._incomplete: Dict[int, tuple] = {}
        #: worker index -> seqs acked but not yet completed
        self._outstanding: Dict[int, Set[int]] = {}
        self._last_seen: Dict[int, float] = {}
        self._per_worker_counts: Dict[int, int] = {
            i: 0 for i in range(num_workers)
        }
        self._dead_handled: Set[int] = set()
        self._respawns = 0
        self._stopped = False
        self._final: Optional[Tuple[str, Any]] = None
        self.events: List[RecoveryEvent] = []
        self._collector = threading.Thread(
            target=self._collect, name="pmtest-collector", daemon=True
        )
        self._collector.start()

    @property
    def diagnostics(self) -> List[str]:
        return render_events(self.events)

    def metrics_registries(self) -> List[MetricsRegistry]:
        if self._remote_metrics is None:
            return []
        with self._lock:
            return [self._remote_metrics.snapshot()]

    def _spawn_worker(self, index: int, faults: Optional[FaultPlan]):
        level = self._metrics.level.value if self._metrics is not None else None
        process = self._ctx.Process(
            target=_process_worker,
            args=(index, self._task_q, self._result_q,
                  self._rules, faults, level,
                  self._cache_size, self.engine_name, self._trace_ctx,
                  self.shadow_name),
            name=f"pmtest-checker-{index}",
            daemon=True,
        )
        process.start()
        return process

    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def batch_size(self) -> int:
        """Current traces-per-message (moves when adaptive)."""
        return self._batch.size

    @property
    def dispatched(self) -> int:
        return self._dispatched

    def worker_trace_counts(self) -> List[int]:
        """Traces checked per worker (self-scheduled, so load-dependent)."""
        with self._lock:
            return [
                self._per_worker_counts.get(i, 0)
                for i in range(len(self._processes))
            ]

    def heartbeats(self) -> Dict[int, float]:
        """Monotonic timestamp of each worker's last message."""
        with self._lock:
            return dict(self._last_seen)

    def backlog(self) -> int:
        """Traces submitted but not yet completed by any worker."""
        with self._lock:
            return max(0, self._dispatched - len(self._completed))

    def submit(self, trace: Trace) -> None:
        metrics = self._metrics
        if metrics is None:
            self._submit_impl(trace)
        elif metrics.full:
            # Ingest for the process backend is the real cost the paper's
            # Fig. 10b calls tracking: wire-encode plus queue handoff.
            start = perf_counter_ns()
            self._submit_impl(trace)
            counter = metrics.counter
            counter("stage.trace_ingest.ns").inc(perf_counter_ns() - start)
            counter("stage.trace_ingest.count").inc(1)
        else:
            self._submit_impl(trace)
            metrics.counter("stage.trace_ingest.count").inc(1)

    def _submit_impl(self, trace: Trace) -> None:
        wire = encode_trace(trace)
        if self._faults is not None:
            rule = self._faults.fire(FaultPoint.WIRE_ENCODE)
            if rule is not None and rule.kind is FaultKind.CORRUPT:
                wire = corrupt_wire(wire)
        with self._done:
            seq = self._dispatched
            self._dispatched += 1
            self._incomplete[seq] = wire
            self._pending.append((seq, wire))
            if len(self._pending) >= self._batch.size:
                batch, self._pending = self._pending, []
            else:
                return
        if self._faults is not None:
            rule = self._faults.fire(FaultPoint.QUEUE_PUT)
            if rule is not None:
                if rule.kind in (FaultKind.STALL, FaultKind.SLOW):
                    time.sleep(rule.delay)
                elif rule.kind is FaultKind.FAIL:
                    raise FaultError("injected task-queue failure")
        self._send_batch(batch)

    def _send_batch(self, batch: List[Tuple[int, tuple]]) -> None:
        """Ship one batch on the task queue."""
        metrics = self._metrics
        if metrics is not None:
            counter = metrics.counter
            counter("process.batches").inc(1)
            if metrics.full:
                # The pickle wire's size is only observable by paying
                # for a pickle, so it is metered at full level only.
                counter("codec.task_bytes").inc(
                    len(pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
                )
                counter("codec.task_traces").inc(len(batch))
        self._task_q.put(batch)
        self._observe_backpressure(metrics)

    def _observe_backpressure(self, metrics) -> None:
        """Feed the adaptive batcher a task-queue depth estimate."""
        batcher = self._batch
        if batcher.fixed:
            return
        try:
            backlog = self._task_q.qsize()
        except NotImplementedError:  # pragma: no cover - macOS
            return
        batcher.observe(backlog, self._num_workers)
        if metrics is not None:
            metrics.gauge("process.batch_size").observe(batcher.size)

    # ------------------------------------------------------------------
    def drain_pairs(self) -> List[_SeqResult]:
        res = self._resilience
        with self._done:
            batch, self._pending = self._pending, []
        if batch:
            self._send_batch(batch)
        with self._done:
            last_progress = time.monotonic()
            last_done = len(self._completed)
            swept = False
            while True:
                if self._errors:
                    seq, error = min(self._errors, key=lambda pair: pair[0])
                    raise CheckingFailed(
                        f"checking trace (submit #{seq}) failed in worker "
                        f"process: {error}"
                    )
                if len(self._completed) >= self._dispatched:
                    return sorted(self._results, key=lambda pair: pair[0])
                self._done.wait(timeout=_POLL)
                now = time.monotonic()
                if len(self._completed) != last_done:
                    last_done = len(self._completed)
                    last_progress = now
                    swept = False
                self._supervise_locked()
                if (
                    res.check_timeout is not None
                    and now - last_progress > res.check_timeout
                ):
                    if not swept:
                        n = self._requeue_locked(
                            set(self._incomplete) - self._completed
                        )
                        self.events.append(
                            RecoveryEvent.watchdog_requeue(
                                res.check_timeout, n
                            )
                        )
                        swept = True
                        last_progress = now
                    else:
                        self._raise_unhealthy_locked(
                            f"watchdog timeout: no checking progress for "
                            f"{res.check_timeout:g}s after requeueing "
                            f"outstanding traces"
                        )

    def _supervise_locked(self) -> None:
        """Respawn dead worker processes and requeue outstanding work.

        A worker that dies right after dequeueing a batch may die before
        its ack reaches us (the queue feeder flushes asynchronously), so
        the acked set understates what the corpse held.  The only safe
        recovery is to requeue *every* trace not yet completed —
        duplicate results from traces that were merely queued or in
        flight elsewhere are dropped by sequence number, so
        over-requeueing cannot change the aggregate.
        """
        if self._stopped:
            return
        res = self._resilience
        for index, process in enumerate(self._processes):
            if index in self._dead_handled or process.is_alive():
                continue
            self._dead_handled.add(index)
            exitcode = process.exitcode
            self._outstanding.pop(index, None)
            if self._respawns >= res.max_retries:
                self._raise_unhealthy_locked(
                    f"checking worker process {index} died "
                    f"(exit code {exitcode}) and the retry budget "
                    f"({res.max_retries}) is exhausted"
                )
            self._respawns += 1
            # Backoff on the condition so the collector keeps running.
            self._done.wait(
                timeout=res.backoff_base * (2 ** (self._respawns - 1))
            )
            new_index = len(self._processes)
            # Respawned workers are never re-injected (faults=None).
            self._processes.append(self._spawn_worker(new_index, None))
            self._per_worker_counts.setdefault(new_index, 0)
            requeued = self._requeue_locked(
                set(self._incomplete) - self._completed
            )
            self.events.append(
                RecoveryEvent.respawn_process(
                    index,
                    new_index,
                    exitcode,
                    requeued,
                    self._respawns,
                    res.max_retries,
                )
            )

    def _requeue_locked(self, seqs: Set[int]) -> int:
        batch: List[Tuple[int, tuple]] = []
        n = 0
        for seq in sorted(seqs):
            wire = self._incomplete.get(seq)
            if wire is None:
                continue
            batch.append((seq, wire))
            if len(batch) >= self._batch.size:
                self._send_batch(batch)
                n += len(batch)
                batch = []
        if batch:
            self._send_batch(batch)
            n += len(batch)
        return n

    def _raise_unhealthy_locked(self, message: str) -> None:
        unchecked: List[Tuple[int, Trace]] = []
        for seq in sorted(set(self._incomplete) - self._completed):
            try:
                unchecked.append((seq, decode_trace(self._incomplete[seq])))
            except TraceDecodeError as exc:
                raise CheckingFailed(
                    f"trace (submit #{seq}) corrupted in transit: {exc}"
                ) from exc
        raise BackendUnhealthy(
            message,
            pairs=tuple(sorted(self._results, key=lambda pair: pair[0])),
            unchecked=tuple(unchecked),
            events=tuple(self.events),
        )

    # ------------------------------------------------------------------
    def drain(self) -> TestResult:
        result = _merge_ordered(self.drain_pairs())
        result.diagnostics.extend(self.diagnostics)
        return result

    def close(self) -> TestResult:
        if self._final is not None:
            kind, value = self._final
            if kind == "err":
                raise value
            return value
        try:
            result = self.drain()
        except BaseException as exc:
            self._final = ("err", exc)
            raise
        else:
            self._final = ("ok", result)
            return result
        finally:
            # Stop workers even when drain() surfaces a checking error.
            self.stop()

    def stop(self) -> None:
        """Stop all workers without draining.  Idempotent, never raises,
        and safe when workers are already dead or hung (they are
        terminated rather than joined forever)."""
        if self._stopped:
            return
        self._stopped = True
        alive = [p for p in self._processes if p.is_alive()]
        for _ in alive:
            try:
                self._task_q.put(None)
            except (OSError, ValueError):
                break
        for process in alive:
            process.join(timeout=1.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=1.0)
        try:
            self._result_q.put(None)  # stop the collector
        except (OSError, ValueError):
            pass
        self._collector.join(timeout=2.0)
        for q in (self._task_q, self._result_q):
            try:
                q.close()
                q.cancel_join_thread()
            except (OSError, ValueError):
                pass

    def _collect(self) -> None:
        while True:
            message = self._result_q.get()
            if message is None:
                return
            # Result messages optionally carry a worker-registry delta
            # (4th element) and shipped span events (5th); acks stay
            # 3-tuples.
            kind, index, payload = message[0], message[1], message[2]
            if (
                self._tracer is not None
                and len(message) > 4
                and message[4]
            ):
                try:
                    self._tracer.absorb_events(message[4])
                except TracingError:  # tracer flushed mid-shutdown
                    pass
            with self._done:
                self._last_seen[index] = time.monotonic()
                remote = self._remote_metrics
                if kind == "ack":
                    if remote is not None:
                        remote.counter("process.acks").inc(1)
                    self._outstanding.setdefault(index, set()).update(payload)
                    self._done.notify_all()
                    continue
                if remote is not None and len(message) > 3:
                    delta = message[3]
                    if delta is not None:
                        try:
                            remote.merge(decode_registry(delta))
                        except TraceDecodeError:
                            remote.counter(
                                "process.registry_decode_errors"
                            ).inc(1)
                outstanding = self._outstanding.get(index)
                fresh = 0
                for seq, wire, error in payload:
                    if outstanding is not None:
                        outstanding.discard(seq)
                    if seq in self._completed:
                        continue  # duplicate from a requeue replay
                    self._completed.add(seq)
                    self._incomplete.pop(seq, None)
                    if error is not None:
                        self._errors.append((seq, error))
                    else:
                        try:
                            self._results.append((seq, decode_result(wire)))
                        except TraceDecodeError as exc:
                            self._errors.append(
                                (seq, f"result decode failed: {exc}")
                            )
                    fresh += 1
                self._per_worker_counts[index] = (
                    self._per_worker_counts.get(index, 0) + fresh
                )
                self._done.notify_all()
