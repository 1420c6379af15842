"""Master/worker checking runtime (paper Section 4.4, Figure 8).

PMTest decouples program execution from checker validation: the program
pushes completed traces (``PMTest_SEND_TRACE``) to a master, the master
dispatches them to a pool of checking workers, and
``PMTest_GET_RESULT`` blocks until every trace submitted so far has
been tested.  Traces are independent, so this parallelism is
embarrassingly safe.

*Where* the checking runs is a pluggable strategy
(:mod:`repro.core.backends`): inline on the submitting thread
(``workers=0``, deterministic unit-test mode), on Python worker threads
(the paper's architecture; concurrency but no parallel speedup under
the GIL), or on worker *processes* (true multi-core checking — the
backend that reproduces Fig. 12's worker-scaling on a multi-core
host).  :class:`WorkerPool` is the facade the rest of the system
drives; it owns backend selection, the closed-pool guard, and the
**degradation ladder**: when a backend cannot be spawned or declares
itself unhealthy mid-run (worker crashed beyond the retry budget,
watchdog fired with no progress), the pool salvages the partial
results, replaces the backend with the next one in the chain
(process -> thread -> inline), resubmits every unchecked trace, and
records the event in the result's diagnostics — verdicts stay
bit-identical to a fault-free run, and stay honest about how they were
produced.

Environment overrides (for chaos CI runs):

``PMTEST_BACKEND``
    Overrides the *derived* backend for pools created with
    ``backend=None`` and ``num_workers > 0`` (i.e. the pools that would
    historically get the thread backend).  Explicit ``backend=`` and
    synchronous ``workers=0`` pools are untouched.
``PMTEST_CHAOS_SEED``
    Installs :func:`repro.core.faults.plan_from_seed` (recoverable
    faults only) on every pool that was not given an explicit plan.
"""

from __future__ import annotations

import os
from time import perf_counter_ns
from typing import Any, List, Optional, Tuple

from repro.core.backends import (
    BACKEND_NAMES,
    DEFAULT_BATCH_SIZE,
    FALLBACK_CHAIN,
    BackendUnhealthy,
    CheckingBackend,
    CheckingFailed,
    make_backend,
    make_backend_with_fallback,
    resolve_backend_name,
    _merge_ordered,
)
from repro.core.column_arena import (
    ArenaOverflow,
    ArenaShardRef,
    ColumnArena,
    build_arena,
)
from repro.core.columns import ColumnarTrace
from repro.core.engine_columnar import merge_shard_results, resolve_engine_name
from repro.core.interval_array import resolve_shadow_name
from repro.core.events import Trace
from repro.core.faults import FaultPlan, Resilience, plan_from_seed
from repro.core.metrics import MetricsRegistry, make_registry
from repro.core.recovery import RecoveryEvent, render_events
from repro.core.reports import TestResult
from repro.core.rules import PersistencyRules
from repro.core.shard_plan import ShardPlanner, resolve_plan_mode
from repro.core.tracing import SpanContext, SpanHandle, Tracer
from repro.core.verdict_cache import resolve_cache_size

__all__ = ["WorkerPool", "BACKEND_NAMES", "DEFAULT_BATCH_SIZE",
           "SHARD_ENV_VAR"]

#: Environment override for the epoch-shard threshold (events); unset
#: or empty means sharding stays off unless ``shard_min_events`` is
#: passed explicitly.
SHARD_ENV_VAR = "PMTEST_SHARD_MIN_EVENTS"

#: Sentinel for "no explicit registry passed": the pool then builds one
#: from ``PMTEST_METRICS`` (``None`` stays "metrics off" for callers
#: that explicitly opt out).
_METRICS_FROM_ENV: Any = object()

#: ``(global submit seq, per-trace result)`` salvaged from a degraded
#: backend, merged back in at drain time.
_CarryPair = Tuple[int, TestResult]


class WorkerPool:
    """Dispatch of traces to checking workers, behind a backend strategy.

    Parameters
    ----------
    rules:
        Persistency-model checking rules (default x86).
    num_workers:
        Checking workers.  With ``backend=None``, ``0`` selects the
        ``inline`` backend and anything else the ``thread`` backend
        (the historical knob).
    backend:
        ``"inline"``, ``"thread"`` or ``"process"`` to pick the
        checking backend explicitly; ``None`` derives it from
        ``num_workers`` as above.
    batch_size:
        Traces per IPC message (process backend only).  ``None``
        (default) lets the batch size adapt to backpressure between 1
        and ``MAX_BATCH_SIZE``; an explicit integer pins it.
    check_timeout:
        Per-drain watchdog (seconds).  After this long with no trace
        completing, outstanding work is requeued once; if that brings
        no progress either, the backend is declared unhealthy and the
        pool degrades (or raises ``CheckingFailed`` with ``fallback``
        off).  ``None`` (default) waits forever.
    max_retries:
        Dead-worker respawns tolerated per backend before it is
        declared unhealthy.
    fallback:
        Degrade along ``process -> thread -> inline`` on spawn failure
        or mid-run unhealthiness instead of raising.  Every
        degradation is recorded in the result's ``diagnostics``.
    faults:
        A :class:`~repro.core.faults.FaultPlan` for deterministic chaos
        injection (``None``: no injected faults, unless
        ``PMTEST_CHAOS_SEED`` is set).
    metrics:
        A :class:`~repro.core.metrics.MetricsRegistry` to record
        pipeline telemetry into, or ``None`` to disable recording.
        When omitted entirely, the registry is built from the
        ``PMTEST_METRICS`` environment switch (off by default).
    tracer:
        An optional :class:`~repro.core.tracing.Tracer`; submit/drain
        get spans, degradations get instant markers, and the backends'
        workers record batch spans (the process backend ships theirs
        back piggybacked on result messages).
    span_context:
        Optional :class:`~repro.core.tracing.SpanContext` the pool's
        lifetime span parents under — set it to a context received
        over the wire (the daemon threads the client's session span
        here) and the whole checking timeline hangs off the remote
        caller's span.  Only meaningful with ``tracer``.
    verdict_cache:
        Explicit on/off switch for the per-worker verdict cache
        (:mod:`repro.core.verdict_cache`).  ``None`` (default)
        consults ``PMTEST_VERDICT_CACHE``; unset means **on**.
    verdict_cache_size:
        Per-worker cache capacity in entries (default 1024 when the
        cache is on).
    engine:
        Replay engine the checking workers build: ``"object"``
        (per-event dispatch, the default) or ``"columnar"``
        (struct-of-arrays batch replay, :mod:`repro.core
        .engine_columnar`).  ``None`` consults ``PMTEST_ENGINE``.
        Verdict-neutral: both engines produce identical results.
    shadow:
        Shadow-memory interval store the workers' engines build:
        ``"object"`` (the default :class:`~repro.core.interval_map
        .IntervalMap`) or ``"array"`` (struct-of-arrays
        :class:`~repro.core.interval_array.ArrayIntervalMap` with
        batched epoch updates).  ``None`` consults ``PMTEST_SHADOW``.
        Verdict-neutral, like ``engine``.
    shard_min_events:
        Epoch-shard threshold.  A submitted trace with at least this
        many events is split at fence-delimited epoch boundaries into
        one shard per worker, checked in parallel, and the per-shard
        results folded back into a single per-trace
        :class:`~repro.core.reports.TestResult` at drain — verdicts
        stay byte-identical to unsharded replay.  Requires the
        columnar engine.  ``None`` consults ``PMTEST_SHARD_MIN_EVENTS``
        (unset: sharding off).
    shard_plan:
        How shard counts are decided (:mod:`repro.core.shard_plan`):
        ``"off"`` (never shard), ``"fixed"`` (the historical
        ``shard_min_events`` threshold, one shard per worker) or
        ``"auto"`` (size shards from a measured per-event replay-cost
        estimate, updated every drain).  ``None`` consults
        ``PMTEST_SHARD_PLAN``, else derives ``fixed`` from a set
        ``shard_min_events`` and ``off`` otherwise.  Any mode but
        ``off`` requires the columnar engine.

    For the process backend, shard dispatch is **zero-copy**: the
    split trace's columns are laid out once in a shared-memory
    :class:`~repro.core.column_arena.ColumnArena` and each shard
    travels as an O(1) descriptor (arena name + epoch-range offsets)
    that workers resolve into ``memoryview`` slices — the payload
    bytes are never re-shipped per worker.  Arenas live until the
    pool closes (requeues and degradation resubmissions resolve
    against them) and are unlinked in :meth:`close`.
    """

    def __init__(
        self,
        rules: Optional[PersistencyRules] = None,
        num_workers: int = 1,
        name: str = "pmtest",
        backend: Optional[str] = None,
        batch_size: Optional[int] = None,
        check_timeout: Optional[float] = None,
        max_retries: int = 2,
        fallback: bool = True,
        faults: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = _METRICS_FROM_ENV,
        tracer: Optional[Tracer] = None,
        span_context: Optional[SpanContext] = None,
        verdict_cache: Optional[bool] = None,
        verdict_cache_size: Optional[int] = None,
        engine: Optional[str] = None,
        shadow: Optional[str] = None,
        shard_min_events: Optional[int] = None,
        shard_plan: Optional[str] = None,
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        self._engine_name = resolve_engine_name(engine)
        self._shadow_name = resolve_shadow_name(shadow)
        if shard_min_events is None:
            env = os.environ.get(SHARD_ENV_VAR)
            if env:
                shard_min_events = int(env)
        if shard_min_events is not None:
            if shard_min_events < 1:
                raise ValueError("shard_min_events must be >= 1")
            if self._engine_name != "columnar":
                raise ValueError(
                    "epoch sharding (shard_min_events) requires "
                    "engine='columnar'"
                )
        self._shard_min_events = shard_min_events
        plan_mode = resolve_plan_mode(shard_plan, shard_min_events)
        if plan_mode != "off" and self._engine_name != "columnar":
            raise ValueError(
                f"epoch sharding (shard_plan={plan_mode!r}) requires "
                "engine='columnar'"
            )
        if plan_mode == "fixed" and shard_min_events is None:
            raise ValueError(
                "shard_plan='fixed' requires shard_min_events"
            )
        self._planner: Optional[ShardPlanner] = (
            ShardPlanner(plan_mode, min_events=shard_min_events)
            if plan_mode != "off" else None
        )
        #: shared-memory column arenas owned by this pool; shard
        #: descriptors resolve against them until :meth:`close` unlinks
        self._arenas: List[ColumnArena] = []
        #: events submitted since the last drain, the denominator for
        #: the auto planner's coarse wall-time feed
        self._events_since_drain = 0
        #: ``(start global seq, shard count)`` per split trace, folded
        #: back into one result at drain time
        self._shard_spans: List[Tuple[int, int]] = []
        if backend is None and num_workers > 0:
            override = os.environ.get("PMTEST_BACKEND")
            if override:
                backend = resolve_backend_name(override, num_workers)
        if faults is None:
            chaos_seed = os.environ.get("PMTEST_CHAOS_SEED")
            if chaos_seed:
                faults = plan_from_seed(int(chaos_seed))
        self._rules = rules
        self._num_workers = num_workers
        self._name = name
        self._batch_size = batch_size
        #: resolved once so degradation rebuilds use the same capacity
        self._cache_size = resolve_cache_size(
            verdict_cache, verdict_cache_size
        )
        self._resilience = Resilience(
            check_timeout=check_timeout,
            max_retries=max_retries,
            fallback=fallback,
        )
        if metrics is _METRICS_FROM_ENV:
            metrics = make_registry()
        self._metrics: Optional[MetricsRegistry] = metrics
        self._tracer = tracer
        #: pool-lifetime span; worker batch spans parent under its
        #: context, so a caller-supplied ``span_context`` (the daemon
        #: session) links straight through to worker processes
        self._pool_span: Optional[SpanHandle] = (
            tracer.start_span("pool", parent=span_context, pool=name)
            if tracer is not None else None
        )
        self._span_ctx: Optional[SpanContext] = (
            self._pool_span.context if self._pool_span is not None else None
        )
        self._events: List[RecoveryEvent] = []
        backend_obj, spawn_events = make_backend_with_fallback(
            backend,
            rules,
            num_workers=num_workers,
            batch_size=batch_size,
            thread_name=name,
            resilience=self._resilience,
            faults=faults,
            metrics=metrics,
            cache_size=self._cache_size,
            engine=self._engine_name,
            shadow=self._shadow_name,
            tracer=tracer,
            span_context=self._span_ctx,
        )
        self._backend: CheckingBackend = backend_obj
        self._events.extend(spawn_events)
        #: global submit sequence number per current-backend sequence
        self._seq_map: List[int] = []
        self._global_seq = 0
        #: per-trace results salvaged from backends that were replaced
        self._carry: List[_CarryPair] = []
        self._closed = False
        self._final: Optional[Tuple[str, object]] = None
        #: ``(submitted count, result)`` of the last completed drain
        self._drained: Optional[Tuple[int, TestResult]] = None

    # ------------------------------------------------------------------
    @property
    def backend_name(self) -> str:
        """Which checking backend is active (inline/thread/process)."""
        return self._backend.name

    @property
    def num_workers(self) -> int:
        return self._backend.num_workers

    @property
    def engine_name(self) -> str:
        """Which replay engine the workers run (object/columnar)."""
        return self._engine_name

    @property
    def shadow_name(self) -> str:
        """Which shadow interval store the workers run (object/array)."""
        return self._shadow_name

    @property
    def synchronous(self) -> bool:
        """Whether traces are checked inline on the submitting thread."""
        return self._backend.name == "inline"

    @property
    def dispatched(self) -> int:
        return self._global_seq

    @property
    def degraded(self) -> bool:
        """Whether the pool has fallen back from its requested backend."""
        return bool(self._events)

    @property
    def diagnostics(self) -> List[str]:
        """Pool-level recovery events (spawn fallbacks, degradations)."""
        return render_events(self._events)

    @property
    def recovery_events(self) -> List[RecoveryEvent]:
        """Typed recovery records: pool-level plus active-backend ones."""
        return list(self._events) + list(self._backend.events)

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The pool's submit-side registry (``None`` when metrics are off)."""
        return self._metrics

    def metrics_snapshot(self) -> Optional[MetricsRegistry]:
        """A merged copy of every registry the pipeline recorded into.

        Combines the pool/submit-side registry with the per-worker
        registries of the active backend (registries of degraded,
        replaced backends were already absorbed at degradation time).
        Safe to call repeatedly; each call starts from a fresh copy.
        """
        if self._metrics is None:
            return None
        snapshot = self._metrics.snapshot()
        for registry in self._backend.metrics_registries():
            snapshot.merge(registry)
        return snapshot

    def worker_trace_counts(self) -> List[int]:
        """How many traces each worker has been handed."""
        return self._backend.worker_trace_counts()

    def backlog(self) -> int:
        """Traces submitted but not yet checked (0 for inline).

        A cheap backpressure signal: the daemon polls it to decide when
        to stop reading a session's socket instead of letting unchecked
        traces pile up in the task queues.
        """
        return self._backend.backlog()

    # ------------------------------------------------------------------
    def submit(self, trace: Trace) -> None:
        """Dispatch one trace for checking (non-blocking with workers).

        With epoch sharding on (``shard_min_events``), a large trace is
        split at fence boundaries into one
        :class:`~repro.core.columns.ColumnarTrace` shard per worker,
        each dispatched under its own consecutive sequence number;
        :meth:`drain` folds the span back into one per-trace result.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        tracer = self._tracer
        self._events_since_drain += len(trace)
        shards = self._maybe_split(trace)
        if shards is not None:
            start = self._global_seq
            if tracer is not None:
                tracer.instant(
                    "submit.sharded",
                    trace_id=trace.trace_id,
                    events=len(trace),
                    shards=len(shards),
                )
            for shard in shards:
                self._backend.submit(shard)
                self._seq_map.append(self._global_seq)
                self._global_seq += 1
            self._shard_spans.append((start, len(shards)))
            if self._metrics is not None:
                counter = self._metrics.counter
                counter("shard.traces").inc(1)
                counter("shard.shards").inc(len(shards))
            return
        if tracer is None:
            self._backend.submit(trace)
        else:
            with tracer.span(
                "submit", parent=self._span_ctx,
                trace_id=trace.trace_id, events=len(trace),
            ):
                self._backend.submit(trace)
        self._seq_map.append(self._global_seq)
        self._global_seq += 1

    def _maybe_split(self, trace) -> Optional[List[Any]]:
        """Epoch-split a large trace, or ``None`` for the plain path.

        The shard planner decides the target shard count; for the
        process backend the shards come back as zero-copy
        :class:`~repro.core.column_arena.ArenaShardRef` descriptors
        over a freshly built arena, otherwise as plain
        :class:`~repro.core.columns.ColumnarTrace` slices (in-process
        backends share memory for free, and shipping descriptors would
        break their zero-wire-bytes invariant for nothing).
        """
        planner = self._planner
        if planner is None:
            return None
        target = planner.plan(len(trace), self._backend.num_workers)
        if target < 2:
            return None
        cols = (
            trace if isinstance(trace, ColumnarTrace)
            else ColumnarTrace.from_trace(trace)
        )
        shards = cols.split(target)
        if len(shards) < 2:
            return None  # no usable epoch boundary: check whole
        if self._backend.name != "process":
            return shards
        try:
            arena = build_arena(cols)
        except (ArenaOverflow, OSError):
            # Column values beyond i64 or shm exhaustion: fall back to
            # shipping the shard payloads themselves.
            if self._metrics is not None:
                self._metrics.counter("shard.arena_fallbacks").inc(1)
            return shards
        self._arenas.append(arena)
        if self._metrics is not None:
            self._metrics.counter("shard.arenas").inc(1)
            self._metrics.counter("shard.arena_bytes").inc(arena.size)
        return [
            ArenaShardRef(arena, len(shard), shard.check_from)
            for shard in shards
        ]

    def drain(self) -> TestResult:
        """Block until all submitted traces are checked; return a snapshot.

        This is ``PMTest_GET_RESULT``: the snapshot aggregates every trace
        checked since the pool was created, merged in submission order
        regardless of which worker (or, after a degradation, which
        *backend*) checked what.  With ``check_timeout`` configured this
        call is bounded: an unrecoverable hang surfaces as degradation
        or ``CheckingFailed`` instead of blocking forever.
        """
        metrics = self._metrics
        tracer = self._tracer
        planner = self._planner
        adaptive = planner is not None and planner.mode == "auto"
        timed = metrics is not None and metrics.full
        start = perf_counter_ns() if timed or adaptive else 0
        if tracer is not None:
            tracer.begin(
                "drain", parent=self._span_ctx, dispatched=self._global_seq
            )
        try:
            pairs = self._drain_pairs_degrading()
        finally:
            if tracer is not None:
                tracer.end("drain")
        elapsed = perf_counter_ns() - start if timed or adaptive else 0
        if adaptive:
            # Feed the planner: the precise per-event replay cost from
            # worker stage counters when full metrics are on, else the
            # coarse drain wall-time over events submitted since the
            # last drain.
            if timed:
                planner.absorb(self.metrics_snapshot())
            else:
                planner.observe(self._events_since_drain, elapsed)
        self._events_since_drain = 0
        if metrics is not None:
            counter = metrics.counter
            if timed:
                counter("stage.drain.ns").inc(elapsed)
            counter("stage.drain.count").inc(1)
        result = _merge_ordered(self._fold_shards(self._carry + pairs))
        result.diagnostics.extend(self.diagnostics)
        result.diagnostics.extend(self._backend.diagnostics)
        result.metadata["backend"] = self._backend.name
        result.metadata["degraded"] = self.degraded
        if self._shard_spans:
            result.metadata["epoch_shards"] = sum(
                count for _, count in self._shard_spans
            )
        self._drained = (self._global_seq, result)
        return result

    def _fold_shards(self, pairs: List[_CarryPair]) -> List[_CarryPair]:
        """Collapse each shard span into one per-trace result.

        Per-shard results are merged in sequence order (shard order ==
        epoch order), so the folded reports are byte-identical to the
        single-worker replay of the whole trace regardless of which
        worker — or which backend, after a degradation — checked each
        shard.  Requeue replays were already de-duplicated upstream.
        """
        if not self._shard_spans:
            return pairs
        by_seq = dict(pairs)
        folded: List[_CarryPair] = []
        consumed: set = set()
        for start, count in self._shard_spans:
            span = [by_seq[seq] for seq in range(start, start + count)
                    if seq in by_seq]
            consumed.update(range(start, start + count))
            if span:
                folded.append((start, merge_shard_results(span)))
        for seq, result in pairs:
            if seq not in consumed:
                folded.append((seq, result))
        return folded

    def _drain_pairs_degrading(self) -> List[_CarryPair]:
        """Drain the active backend, walking the fallback chain on failure."""
        while True:
            try:
                pairs = self._backend.drain_pairs()
                return [(self._seq_map[seq], result) for seq, result in pairs]
            except BackendUnhealthy as exc:
                nxt = FALLBACK_CHAIN.get(self._backend.name)
                if not self._resilience.fallback or nxt is None:
                    raise CheckingFailed(
                        f"checking backend {self._backend.name!r} is "
                        f"unhealthy and fallback is disabled: {exc}"
                    ) from exc
                self._degrade_to(nxt, exc)

    def _degrade_to(self, name: str, exc: BackendUnhealthy) -> None:
        """Replace the unhealthy backend, salvaging its finished work."""
        old = self._backend
        # Salvage partial results and remember every recovery event.
        self._carry.extend(
            (self._seq_map[seq], result) for seq, result in exc.pairs
        )
        self._events.extend(exc.events)
        self._events.append(
            RecoveryEvent.degraded(
                old.name, name, exc, len(exc.pairs), len(exc.unchecked)
            )
        )
        if self._tracer is not None:
            self._tracer.instant(
                "backend.degraded", old=old.name, new=name
            )
        unchecked = [
            (self._seq_map[seq], trace) for seq, trace in exc.unchecked
        ]
        old.stop()
        # Absorb the dying backend's worker registries now; after the
        # swap only the new backend is consulted at snapshot time.
        if self._metrics is not None:
            for registry in old.metrics_registries():
                self._metrics.merge(registry)
        # Respawned fallbacks are not re-injected with faults: the chaos
        # plan applies to the first-choice backend only.
        self._backend, spawn_events = make_backend_with_fallback(
            name,
            self._rules,
            num_workers=max(self._num_workers, 1),
            batch_size=self._batch_size,
            thread_name=self._name,
            resilience=self._resilience,
            metrics=self._metrics,
            cache_size=self._cache_size,
            engine=self._engine_name,
            shadow=self._shadow_name,
            tracer=self._tracer,
            span_context=self._span_ctx,
        )
        self._events.extend(spawn_events)
        self._seq_map = []
        for global_seq, trace in sorted(unchecked, key=lambda pair: pair[0]):
            self._backend.submit(trace)
            self._seq_map.append(global_seq)

    def close(self) -> TestResult:
        """Drain, stop all workers, and return the final result.

        Idempotent: a second ``close`` (or a close after a failed
        drain) replays the first outcome without touching the stopped
        workers or their dead queues.
        """
        if self._final is not None:
            kind, value = self._final
            if kind == "err":
                raise value  # type: ignore[misc]
            return value  # type: ignore[return-value]
        self._closed = True
        try:
            drained = self._drained
            if drained is not None and drained[0] == self._global_seq:
                # Nothing was submitted since the last drain, so its
                # verdict is final; draining again would do no work but
                # still count a drain that no caller's verdict reflects.
                result = TestResult()
                result.merge(drained[1])
            else:
                result = self.drain()
        except BaseException as exc:
            self._final = ("err", exc)
            raise
        else:
            self._final = ("ok", result)
            return result
        finally:
            self._backend.stop()
            # Unlink the shard arenas only after the backend stopped:
            # requeues and degradation resubmissions resolve
            # descriptors against them right up to the final drain.
            arenas, self._arenas = self._arenas, []
            for arena in arenas:
                arena.release()
            if self._pool_span is not None:
                self._pool_span.finish(
                    dispatched=self._global_seq, backend=self._backend.name
                )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
