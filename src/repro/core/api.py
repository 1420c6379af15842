"""The PMTest session facade: the paper's full interface (Table 2).

A :class:`PMTestSession` owns the worker pool and per-thread trace
construction.  The method names translate the paper's C interface to
Python:

=======================  =============================================
Paper (Table 2)          This module
=======================  =============================================
``PMTest_INIT``          ``PMTestSession(...)``
``PMTest_EXIT``          :meth:`PMTestSession.exit`
``PMTest_THREAD_INIT``   :meth:`PMTestSession.thread_init`
``PMTest_START``         :meth:`PMTestSession.start`
``PMTest_END``           :meth:`PMTestSession.end`
``PMTest_EXCLUDE``       :meth:`PMTestSession.exclude`
``PMTest_INCLUDE``       :meth:`PMTestSession.include`
``PMTest_REG_VAR``       :meth:`PMTestSession.reg_var`
``PMTest_UNREG_VAR``     :meth:`PMTestSession.unreg_var`
``PMTest_GET_VAR``       :meth:`PMTestSession.get_var`
``PMTest_SEND_TRACE``    :meth:`PMTestSession.send_trace`
``PMTest_GET_RESULT``    :meth:`PMTestSession.get_result`
``isPersist``            :meth:`PMTestSession.is_persist`
``isOrderedBefore``      :meth:`PMTestSession.is_ordered_before`
``TX_CHECKER_START``     :meth:`PMTestSession.tx_check_start`
``TX_CHECKER_END``       :meth:`PMTestSession.tx_check_end`
=======================  =============================================

(The C-style spelling itself is available in :mod:`repro.core.capi` for
examples that want to read like the paper.)

PM *operations* (``write``/``clwb``/``sfence``/...) are normally recorded
by the instrumentation runtime (:mod:`repro.instr.runtime`), which plays
the role of the paper's WHISPER-macro / LLVM-pass tracking hooks; they are
public here so custom instrumentation can drive a session directly.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.events import Event, Op, SourceSite, Trace
from repro.core.metrics import MetricsRegistry
from repro.core.reports import TestResult
from repro.core.rules import PersistencyRules
from repro.core.tracing import Tracer
from repro.core.workers import WorkerPool, _METRICS_FROM_ENV


class _ThreadState:
    """Per-program-thread tracking state."""

    __slots__ = ("name", "enabled", "trace")

    def __init__(self, name: str, trace: Trace) -> None:
        self.name = name
        self.enabled = False
        self.trace = trace


class PMTestSession:
    """One testing session: trace capture plus the checking runtime.

    Parameters
    ----------
    rules:
        The persistency model's checking rules (default x86).
    workers:
        Checking worker threads.  ``0`` selects synchronous mode: traces
        are checked inline during :meth:`send_trace`, which is fully
        deterministic and what most unit tests use.
    capture_sites:
        Capture the source file/line of every recorded operation.  This
        is the paper's per-op metadata; it makes reports actionable but
        is the most expensive part of tracking (measured by the
        site-capture ablation benchmark).
    backend:
        Checking backend: ``"inline"``, ``"thread"`` or ``"process"``
        (see :mod:`repro.core.backends`).  ``None`` derives it from
        ``workers``: ``0`` means inline, otherwise the thread pool.
        The process backend checks traces on true parallel worker
        processes.
    batch_size:
        Traces per IPC message (process backend only).  ``None``
        (default) adapts to backpressure; an integer pins it.
    check_timeout:
        Per-drain watchdog (seconds) for ``get_result``: an
        unrecoverable checking-pipeline hang surfaces within this bound
        instead of blocking forever (``None``: wait forever).
    max_retries:
        Dead checking workers respawned per backend before it is
        declared unhealthy.
    fallback:
        Degrade the checking backend along process -> thread -> inline
        when spawning fails or the backend turns unhealthy mid-run; the
        degradation is recorded in the result's ``diagnostics``.
    faults:
        Deterministic chaos plan (:mod:`repro.core.faults`) consulted
        by the checking pipeline's fault points.
    sink:
        Where completed traces go.  Defaults to an in-process
        :class:`~repro.core.workers.WorkerPool`; kernel-module testing
        substitutes a :class:`~repro.pmfs.kernel.KernelBridge`, which
        routes traces through the bounded kernel FIFO first (paper
        Section 4.5).  Any object with ``submit``/``drain``/``close``
        and a ``dispatched`` count works.
    metrics:
        A :class:`~repro.core.metrics.MetricsRegistry` for pipeline
        telemetry, ``None`` to disable, or omitted to follow the
        ``PMTEST_METRICS`` environment switch.  Ignored when an
        explicit ``sink`` is supplied (configure the sink directly).
    tracer:
        An optional :class:`~repro.core.tracing.Tracer` threaded down
        to the worker pool.
    verdict_cache:
        On/off switch for the per-worker verdict cache
        (:mod:`repro.core.verdict_cache`): structurally identical
        traces are answered from a fingerprint-keyed cache instead of
        replayed, with byte-identical verdicts.  ``None`` (default)
        consults ``PMTEST_VERDICT_CACHE``; unset means on.
    verdict_cache_size:
        Per-worker verdict-cache capacity in entries (default 1024).
    engine:
        Replay engine: ``"object"`` (per-event dispatch, the default)
        or ``"columnar"`` (struct-of-arrays batch replay,
        :mod:`repro.core.engine_columnar`).  Verdict-neutral — both
        engines produce identical results; columnar is faster on large
        traces.  ``None`` consults ``PMTEST_ENGINE``.
    shadow:
        Shadow-memory interval store: ``"object"`` (the default
        :class:`~repro.core.interval_map.IntervalMap`) or ``"array"``
        (struct-of-arrays :class:`~repro.core.interval_array
        .ArrayIntervalMap` with batched epoch updates).
        Verdict-neutral, like ``engine``.  ``None`` consults
        ``PMTEST_SHADOW``.
    shard_min_events:
        Epoch-shard threshold in events (columnar engine only): traces
        at least this large are split at fence boundaries across the
        workers and the per-shard results folded back into one
        per-trace result.  ``None`` consults
        ``PMTEST_SHARD_MIN_EVENTS`` (unset: sharding off).
    shard_plan:
        Shard-count policy (:mod:`repro.core.shard_plan`): ``"off"``,
        ``"fixed"`` (the ``shard_min_events`` threshold) or ``"auto"``
        (adaptive, from a measured per-event replay cost).  ``None``
        consults ``PMTEST_SHARD_PLAN``, defaulting to ``fixed`` when
        ``shard_min_events`` is set and ``off`` otherwise.
    """

    def __init__(
        self,
        rules: Optional[PersistencyRules] = None,
        workers: int = 1,
        capture_sites: bool = False,
        backend: Optional[str] = None,
        batch_size: Optional[int] = None,
        check_timeout: Optional[float] = None,
        max_retries: int = 2,
        fallback: bool = True,
        faults=None,
        sink=None,
        metrics: Optional[MetricsRegistry] = _METRICS_FROM_ENV,
        tracer: Optional[Tracer] = None,
        verdict_cache: Optional[bool] = None,
        verdict_cache_size: Optional[int] = None,
        engine: Optional[str] = None,
        shadow: Optional[str] = None,
        shard_min_events: Optional[int] = None,
        shard_plan: Optional[str] = None,
    ) -> None:
        self.capture_sites = capture_sites
        self._pool = sink if sink is not None else WorkerPool(
            rules,
            num_workers=workers,
            backend=backend,
            batch_size=batch_size,
            check_timeout=check_timeout,
            max_retries=max_retries,
            fallback=fallback,
            faults=faults,
            metrics=metrics,
            tracer=tracer,
            verdict_cache=verdict_cache,
            verdict_cache_size=verdict_cache_size,
            engine=engine,
            shadow=shadow,
            shard_min_events=shard_min_events,
            shard_plan=shard_plan,
        )
        self._trace_ids = itertools.count()
        self._local = threading.local()
        self._vars: Dict[str, Tuple[int, int]] = {}
        self._vars_lock = threading.Lock()
        self._sticky_exclusions: List[Tuple[int, int]] = []
        self._exited = False
        #: total events recorded across all threads (tracking overhead metric)
        self.ops_recorded = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def thread_init(self, name: Optional[str] = None) -> None:
        """Initialize tracking for the calling thread (PMTest_THREAD_INIT)."""
        thread_name = name or threading.current_thread().name
        self._local.state = _ThreadState(thread_name, self._new_trace(thread_name))

    def start(self) -> None:
        """Enable tracking and testing for the calling thread."""
        self._state().enabled = True

    def end(self) -> None:
        """Disable tracking for the calling thread."""
        self._state().enabled = False

    @contextmanager
    def region(self) -> Iterator["PMTestSession"]:
        """``with session.region():`` — a PMTest_START/PMTest_END pair."""
        self.start()
        try:
            yield self
        finally:
            self.end()

    def send_trace(self) -> None:
        """Ship the thread's current trace to the checking engine and
        start a new one (PMTest_SEND_TRACE)."""
        state = self._state()
        if state.trace.events:
            self._pool.submit(state.trace)
            state.trace = self._new_trace(state.name)

    def get_result(self) -> TestResult:
        """Block until all sent traces are tested (PMTest_GET_RESULT)."""
        return self._pool.drain()

    def result(self) -> TestResult:
        """Convenience: send the pending trace, then get the result."""
        self.send_trace()
        return self.get_result()

    def exit(self) -> TestResult:
        """Flush, stop the workers, and return the final result
        (PMTest_EXIT)."""
        if self._exited:
            return self._pool.drain()
        self.send_trace()
        self._exited = True
        return self._pool.close()

    def __enter__(self) -> "PMTestSession":
        self.thread_init()
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.exit()

    # ------------------------------------------------------------------
    # Persistent-object scope management
    # ------------------------------------------------------------------
    def exclude(self, addr: int, size: int) -> None:
        """Remove ``[addr, addr+size)`` from the testing scope."""
        self._record(Op.EXCLUDE, addr, size)

    def exclude_always(self, addr: int, size: int) -> None:
        """Exclude a range from *every* trace of this session.

        Because each trace is checked against a fresh shadow memory, a
        plain :meth:`exclude` only affects the trace it lands in.  PM
        libraries use this sticky variant to carve their internal
        metadata (e.g. the undo-log region) out of the application-level
        testing scope once, at pool creation.  Register sticky exclusions
        before spawning tracked threads: only traces created afterwards
        see them.
        """
        self._sticky_exclusions.append((addr, size))
        # Also apply to the calling thread's current trace.
        self._state().trace.append(Event(Op.EXCLUDE, addr, size))

    def include(self, addr: int, size: int) -> None:
        """Restore ``[addr, addr+size)`` to the testing scope."""
        self._record(Op.INCLUDE, addr, size)

    def reg_var(self, name: str, addr: int, size: int) -> None:
        """Register a named persistent variable (PMTest_REG_VAR)."""
        with self._vars_lock:
            self._vars[name] = (addr, size)

    def unreg_var(self, name: str) -> None:
        with self._vars_lock:
            del self._vars[name]

    def get_var(self, name: str) -> Tuple[int, int]:
        """Return ``(addr, size)`` of a registered variable."""
        with self._vars_lock:
            return self._vars[name]

    # ------------------------------------------------------------------
    # PM operations (called by the instrumentation runtime)
    # ------------------------------------------------------------------
    def write(self, addr: int, size: int, site: Optional[SourceSite] = None) -> None:
        self._record(Op.WRITE, addr, size, site=site)

    def write_nt(self, addr: int, size: int, site: Optional[SourceSite] = None) -> None:
        self._record(Op.WRITE_NT, addr, size, site=site)

    def clwb(self, addr: int, size: int, site: Optional[SourceSite] = None) -> None:
        self._record(Op.CLWB, addr, size, site=site)

    def clflushopt(
        self, addr: int, size: int, site: Optional[SourceSite] = None
    ) -> None:
        self._record(Op.CLFLUSHOPT, addr, size, site=site)

    def clflush(self, addr: int, size: int, site: Optional[SourceSite] = None) -> None:
        self._record(Op.CLFLUSH, addr, size, site=site)

    def sfence(self, site: Optional[SourceSite] = None) -> None:
        self._record(Op.SFENCE, site=site)

    def ofence(self, site: Optional[SourceSite] = None) -> None:
        self._record(Op.OFENCE, site=site)

    def dfence(self, site: Optional[SourceSite] = None) -> None:
        self._record(Op.DFENCE, site=site)

    def tx_begin(self, site: Optional[SourceSite] = None) -> None:
        self._record(Op.TX_BEGIN, site=site)

    def tx_end(self, site: Optional[SourceSite] = None) -> None:
        self._record(Op.TX_END, site=site)

    def tx_add(self, addr: int, size: int, site: Optional[SourceSite] = None) -> None:
        self._record(Op.TX_ADD, addr, size, site=site)

    # ------------------------------------------------------------------
    # Checkers
    # ------------------------------------------------------------------
    def is_persist(self, addr: int, size: int, site: Optional[SourceSite] = None) -> None:
        """Assert ``[addr, addr+size)`` has persisted since its last update."""
        self._record(Op.CHECK_PERSIST, addr, size, site=site)

    def is_persist_var(self, name: str, site: Optional[SourceSite] = None) -> None:
        """``isPersist`` over a variable registered with :meth:`reg_var`."""
        addr, size = self.get_var(name)
        self.is_persist(addr, size, site=site)

    def is_ordered_before(
        self,
        addr_a: int,
        size_a: int,
        addr_b: int,
        size_b: int,
        site: Optional[SourceSite] = None,
    ) -> None:
        """Assert writes to A are guaranteed to persist before writes to B."""
        self._record(Op.CHECK_ORDER, addr_a, size_a, addr_b, size_b, site=site)

    def tx_check_start(self, site: Optional[SourceSite] = None) -> None:
        """Begin the high-level transaction checker scope."""
        self._record(Op.TX_CHECK_START, site=site)

    def tx_check_end(self, site: Optional[SourceSite] = None) -> None:
        """End the scope; isPersist is injected for every modified object."""
        self._record(Op.TX_CHECK_END, site=site)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Events captured on the calling thread but not yet sent."""
        return len(self._state().trace)

    @property
    def traces_sent(self) -> int:
        return self._pool.dispatched

    @property
    def pool(self) -> WorkerPool:
        return self._pool

    def metrics_snapshot(self) -> Optional[MetricsRegistry]:
        """Merged registry copy from the sink, or ``None`` (metrics off
        or a sink that records none)."""
        snapshot_fn = getattr(self._pool, "metrics_snapshot", None)
        return snapshot_fn() if snapshot_fn is not None else None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            self.thread_init()
            state = self._local.state
        return state

    def _new_trace(self, thread_name: str) -> Trace:
        trace = Trace(trace_id=next(self._trace_ids), thread_name=thread_name)
        for addr, size in self._sticky_exclusions:
            trace.append(Event(Op.EXCLUDE, addr, size))
        return trace

    def _record(
        self,
        op: Op,
        addr: int = 0,
        size: int = 0,
        addr2: int = 0,
        size2: int = 0,
        site: Optional[SourceSite] = None,
    ) -> None:
        state = self._state()
        if not state.enabled:
            return
        if site is None and self.capture_sites:
            site = SourceSite.capture(3)
        state.trace.append(Event(op, addr, size, addr2, size2, site))
        self.ops_recorded += 1
