"""The asyncio checking server (``repro serve``).

One :class:`CheckingServer` listens on TCP and/or a Unix domain socket
and runs one coroutine per client session.  A session is a handshake
(``hello``/``welcome``), a stream of length-prefixed PMTB trace frames,
and any number of ``drain`` requests answered with ``verdict`` frames;
``bye`` (or EOF) ends it.

Correctness invariant: every session owns a private
:class:`~repro.core.workers.WorkerPool` configured exactly like a
library-mode pool, so a session's verdict is byte-identical to checking
the same traces in-process — the daemon adds transport, admission and
scheduling, never checking semantics.  Session isolation also bounds
memory: a pool's cumulative results die with its session instead of
accreting for the life of the daemon.

Backpressure path (the overload story, end to end):

1. Each trace frame passes the :class:`~repro.daemon.admission
   .AdmissionController` ladder *before* being decoded.  While a frame
   waits on rung 0, or after it is shed on rung 1, the session
   coroutine is not reading its socket — the kernel's TCP window fills
   and the client's ``sendall`` blocks.
2. Admitted bytes are released only after the traces they carried have
   been *checked*: sessions run an intermediate (cumulative, verdict
   -neutral) drain whenever ``checkpoint_bytes`` accumulate or the
   pool's backlog exceeds ``max_backlog`` traces.  Slow checking
   therefore throttles admission globally.
3. Blocking pool calls (submit batches, drains, close) run in the
   default executor so one stalled session never blocks the loop.

Graceful drain: ``shutdown()`` (also wired to SIGTERM/SIGINT by
``install_signal_handlers``) stops accepting, lets live sessions finish
and be answered, then flushes metrics.  Chaos fault points
``daemon.accept``, ``daemon.session_decode`` and ``daemon.shed`` let
the test suite kill sessions mid-stream and force sheds
deterministically.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import threading
from itertools import count
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.faults import (
    DEFAULT_RESILIENCE,
    FaultKind,
    FaultPlan,
    FaultPoint,
    Resilience,
)
from repro.core.metrics import MetricsRegistry, make_registry
from repro.core.recovery import RecoveryEvent
from repro.core.rules import PersistencyRules, X86Rules
from repro.core.traceio import (
    TraceDecodeError,
    _KIND_TRACES,
    decode_message,
    encode_error_message,
    encode_flight_message,
    encode_session_ack_message,
    encode_shed_message,
    encode_stats_message,
    encode_verdict_message,
    encode_welcome_message,
)
from repro.core.tracing import SpanContext, SpanHandle, Tracer
from repro.core.workers import WorkerPool
from repro.daemon.admission import AdmissionController, AdmissionPolicy
from repro.daemon.protocol import (
    DEFAULT_MAX_FRAME,
    ProtocolError,
    aread_frame,
    frame_bytes,
)
from repro.daemon.telemetry import (
    DEFAULT_FLIGHT_EVENTS,
    FlightRecorder,
    build_stats_payload,
    serve_http,
)

__all__ = ["CheckingServer", "ServerHandle", "start_in_thread"]


class _SessionAborted(Exception):
    """Internal: tear the session down without answering further."""


class _Session:
    """Per-session state the server tracks on the loop thread."""

    __slots__ = (
        "session_id", "tenant", "pool", "writer", "task",
        "accepted", "unreleased", "answered_drains", "span",
    )

    def __init__(
        self,
        session_id: int,
        tenant: str,
        pool: WorkerPool,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.session_id = session_id
        self.tenant = tenant
        self.pool = pool
        self.writer = writer
        self.task: Optional[asyncio.Task] = None
        self.accepted = 0       # traces admitted this session
        self.unreleased = 0     # admitted frame bytes not yet checked
        self.answered_drains = 0
        #: the server-side session span (a stackless handle: sessions
        #: interleave on the loop thread), parented under the client's
        #: hello span context when one rode in
        self.span: Optional[SpanHandle] = None


class CheckingServer:
    """The checking daemon.  Construct, ``await start()``, serve.

    ``rules_factory`` builds one fresh rules object per session (rules
    may carry per-run state, so sessions must not share one); all the
    checking knobs (``workers``/``backend``/``engine``/``shadow``/
    ``shard_min_events``/``shard_plan``/``batch_size``/
    ``verdict_cache``) mirror
    :class:`~repro.core.workers.WorkerPool` and are applied to every
    session pool identically — that is what makes daemon verdicts
    library-identical.
    """

    def __init__(
        self,
        rules_factory: Optional[Callable[[], PersistencyRules]] = None,
        *,
        host: Optional[str] = None,
        port: int = 0,
        uds: Optional[str] = None,
        workers: int = 1,
        backend: Optional[str] = None,
        engine: Optional[str] = None,
        shadow: Optional[str] = None,
        shard_min_events: Optional[int] = None,
        shard_plan: Optional[str] = None,
        batch_size: Optional[int] = None,
        verdict_cache: Optional[bool] = None,
        policy: Optional[AdmissionPolicy] = None,
        resilience: Resilience = DEFAULT_RESILIENCE,
        faults: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        handshake_timeout: float = 5.0,
        idle_timeout: float = 60.0,
        drain_timeout: float = 30.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        max_backlog: int = 1024,
        tracer: Optional[Tracer] = None,
        http_host: Optional[str] = None,
        http_port: int = 0,
        flight_size: int = DEFAULT_FLIGHT_EVENTS,
        slow_frame_ms: float = 100.0,
        telemetry_interval_ms: int = 1000,
    ) -> None:
        if host is None and uds is None:
            raise ValueError("need a TCP host and/or a UDS path to listen on")
        self._rules_factory = rules_factory or X86Rules
        self._host = host
        self._port = port
        self._uds = uds
        self._workers = workers
        self._backend = backend
        self._engine = engine
        self._shadow = shadow
        self._shard_min_events = shard_min_events
        self._shard_plan = shard_plan
        self._batch_size = batch_size
        self._verdict_cache = verdict_cache
        self._resilience = resilience
        self._faults = faults
        self.metrics = metrics if metrics is not None else make_registry()
        self._handshake_timeout = handshake_timeout
        self._idle_timeout = idle_timeout
        self._drain_timeout = drain_timeout
        self._max_frame = max_frame
        self._max_backlog = max_backlog
        self.admission = AdmissionController(
            policy, resilience, faults=faults, metrics=self.metrics
        )
        self._tracer = tracer
        self._http_host = http_host
        self._http_port = http_port
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._slow_frame_ns = int(slow_frame_ms * 1e6)
        #: floor for client-requested stats stream intervals
        self._telemetry_interval_ms = telemetry_interval_ms
        #: the flight recorder follows the metrics discipline — built
        #: only when a registry exists, so metrics-off keeps the frame
        #: path's telemetry at a single ``is None`` branch
        self.flight: Optional[FlightRecorder] = (
            FlightRecorder(flight_size) if self.metrics is not None else None
        )
        self.events: List[RecoveryEvent] = []
        self._sessions: Dict[int, _Session] = {}
        self._session_ids = count(1)
        self._listeners: List[asyncio.AbstractServer] = []
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._shutdown_task: Optional[asyncio.Task] = None
        # Lifetime counters independent of the metrics level.
        self.sessions_served = 0
        self.traces_accepted = 0
        self.sessions_aborted = 0
        #: cumulative traces accepted per tenant (plain counters; the
        #: stats payload's per-tenant ``traces`` column)
        self.tenant_traces: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the configured listeners; returns once accepting."""
        self._stopped = asyncio.Event()
        if self._host is not None:
            self._listeners.append(
                await asyncio.start_server(
                    self._handle, host=self._host, port=self._port
                )
            )
        if self._uds is not None:
            self._listeners.append(
                await asyncio.start_unix_server(self._handle, path=self._uds)
            )
        if self._http_host is not None:
            self._http_server = await serve_http(
                self, self._http_host, self._http_port
            )

    @property
    def http_address(self) -> Optional[Tuple[str, int]]:
        """The bound telemetry HTTP ``(host, port)``, if serving one."""
        if self._http_server is None:
            return None
        for sock in self._http_server.sockets or ():
            name = sock.getsockname()
            if isinstance(name, tuple):
                return (name[0], name[1])
        return None

    @property
    def tcp_address(self) -> Optional[Tuple[str, int]]:
        """The bound ``(host, port)``, once :meth:`start` has run."""
        for listener in self._listeners:
            for sock in listener.sockets or ():
                name = sock.getsockname()
                if isinstance(name, tuple):
                    return (name[0], name[1])
        return None

    @property
    def uds_path(self) -> Optional[str]:
        return self._uds

    @property
    def active_sessions(self) -> int:
        return len(self._sessions)

    @property
    def draining(self) -> bool:
        return self._draining

    def install_signal_handlers(
        self, loop: Optional[asyncio.AbstractEventLoop] = None
    ) -> None:
        """SIGTERM/SIGINT -> graceful ``shutdown()``."""
        loop = loop or asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self._request_shutdown)

    def _request_shutdown(self) -> None:
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self.shutdown())

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes."""
        assert self._stopped is not None, "call start() first"
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Graceful drain: stop accepting, answer live sessions, flush.

        With ``drain`` (the default, and what SIGTERM triggers), live
        sessions keep being served until they finish or
        ``drain_timeout`` passes; without it they are cancelled
        immediately.  Idempotent.
        """
        if self._draining:
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._draining = True
        if self._http_server is not None:
            self._http_server.close()
            with contextlib.suppress(Exception):
                await self._http_server.wait_closed()
        for listener in self._listeners:
            listener.close()
        for listener in self._listeners:
            with contextlib.suppress(Exception):
                await listener.wait_closed()
        tasks = [
            session.task
            for session in list(self._sessions.values())
            if session.task is not None
        ]
        if tasks:
            if drain:
                done, pending = await asyncio.wait(
                    tasks, timeout=self._drain_timeout
                )
            else:
                pending = set(tasks)
            for task in pending:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        if self._uds is not None:
            with contextlib.suppress(OSError):
                os.unlink(self._uds)
        if self._stopped is not None:
            self._stopped.set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def recovery_events(self) -> List[RecoveryEvent]:
        """Server-level plus admission-ladder recovery records."""
        return list(self.events) + list(self.admission.events)

    def metrics_snapshot(self) -> Optional[MetricsRegistry]:
        """A merged copy of the server registry (``None`` if metrics off)."""
        return self.metrics.snapshot() if self.metrics is not None else None

    # ------------------------------------------------------------------
    # Session plumbing
    # ------------------------------------------------------------------
    def _make_pool(
        self, span_context: Optional[SpanContext] = None
    ) -> WorkerPool:
        level = self.metrics.level if self.metrics is not None else None
        pool_metrics = MetricsRegistry(level) if level is not None else None
        return WorkerPool(
            self._rules_factory(),
            num_workers=self._workers,
            backend=self._backend,
            batch_size=self._batch_size,
            engine=self._engine,
            shadow=self._shadow,
            shard_min_events=self._shard_min_events,
            shard_plan=self._shard_plan,
            verdict_cache=self._verdict_cache,
            check_timeout=self._resilience.check_timeout,
            max_retries=self._resilience.max_retries,
            fallback=self._resilience.fallback,
            metrics=pool_metrics,
            tracer=self._tracer,
            span_context=span_context,
        )

    async def _send(
        self, writer: asyncio.StreamWriter, payload: bytes
    ) -> None:
        writer.write(frame_bytes(payload))
        await writer.drain()

    async def _send_error(
        self, writer: asyncio.StreamWriter, message: str
    ) -> None:
        with contextlib.suppress(Exception):
            await self._send(writer, encode_error_message(message))

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session: Optional[_Session] = None
        try:
            if self._faults is not None:
                rule = self._faults.fire(FaultPoint.DAEMON_ACCEPT)
                if rule is not None:
                    if self.flight is not None:
                        self.flight.record(
                            "chaos", point="daemon.accept",
                            fault=rule.kind.name,
                        )
                    if rule.kind in (FaultKind.SLOW, FaultKind.STALL):
                        await asyncio.sleep(rule.delay)
                    elif rule.kind is FaultKind.FAIL:
                        await self._send_error(
                            writer, "chaos: accept failure injected"
                        )
                        return
                    elif rule.kind is FaultKind.CRASH:
                        return  # connection dropped without a word
            if self._draining:
                await self._send_error(
                    writer, "server is draining; not accepting sessions"
                )
                return
            try:
                frame = await asyncio.wait_for(
                    aread_frame(reader, self._max_frame),
                    self._handshake_timeout,
                )
            except (asyncio.TimeoutError, ProtocolError):
                await self._send_error(writer, "handshake timeout")
                return
            if frame is None:
                return
            try:
                message = decode_message(frame)
            except TraceDecodeError as exc:
                await self._send_error(writer, f"bad handshake frame: {exc}")
                return
            if message[0] != "hello":
                await self._send_error(
                    writer, f"expected hello, got {message[0]!r}"
                )
                return
            tenant = message[1]
            client_span = message[3] if len(message) > 3 else None
            reason = self.admission.admit_session(tenant)
            if reason is not None:
                if self.flight is not None:
                    self.flight.record(
                        "session_rejected", tenant=tenant, reason=reason
                    )
                await self._send_error(writer, f"session rejected: {reason}")
                return
            session_id = next(self._session_ids)
            session_span: Optional[SpanHandle] = None
            if self._tracer is not None:
                # Parent under the client's hello span when it shipped
                # one — this is the cross-process link that makes the
                # merged chrome://tracing export one tree.
                session_span = self._tracer.start_span(
                    "daemon.session", parent=client_span,
                    session=session_id, tenant=tenant,
                )
            session = _Session(
                session_id,
                tenant,
                self._make_pool(
                    session_span.context if session_span is not None else None
                ),
                writer,
            )
            session.span = session_span
            session.task = asyncio.current_task()
            self._sessions[session.session_id] = session
            self.admission.session_opened(session.session_id)
            self.sessions_served += 1
            if self.flight is not None:
                self.flight.record(
                    "session_opened", session=session.session_id,
                    tenant=tenant,
                )
            if self.metrics is not None:
                self.metrics.counter("daemon.sessions").inc(1)
            await self._send(
                writer,
                encode_welcome_message(session.session_id, self._max_frame),
            )
            await self._session_loop(session, reader, writer)
        except _SessionAborted as exc:
            self.sessions_aborted += 1
            if session is not None:
                self.events.append(
                    RecoveryEvent.session_aborted(
                        session.session_id,
                        session.tenant,
                        str(exc),
                        session.unreleased,
                    )
                )
                if self.flight is not None:
                    self.flight.record(
                        "session_aborted", session=session.session_id,
                        tenant=session.tenant, reason=str(exc),
                    )
            if self.metrics is not None:
                self.metrics.counter("daemon.sessions_aborted").inc(1)
            with contextlib.suppress(Exception):
                writer.transport.abort()
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # never let one session kill the server
            self.sessions_aborted += 1
            if session is not None:
                self.events.append(
                    RecoveryEvent.session_aborted(
                        session.session_id,
                        session.tenant,
                        repr(exc),
                        session.unreleased,
                    )
                )
        finally:
            if session is not None:
                await self._close_session(session)
            with contextlib.suppress(Exception):
                writer.close()

    async def _close_session(self, session: _Session) -> None:
        """Release budget, fold metrics, stop the session's pool."""
        self.admission.release(session.unreleased)
        session.unreleased = 0
        self.admission.session_closed(session.session_id)
        self._sessions.pop(session.session_id, None)
        loop = asyncio.get_running_loop()
        snapshot = None
        try:
            await loop.run_in_executor(None, session.pool.close)
            snapshot = session.pool.metrics_snapshot()
        except Exception:
            pass  # a dying pool must not take the session cleanup down
        if self.metrics is not None and snapshot is not None:
            self.metrics.merge(snapshot)
        if session.span is not None:
            session.span.finish(
                traces=session.accepted, drains=session.answered_drains
            )
        if self.flight is not None:
            self.flight.record(
                "session_closed", session=session.session_id,
                tenant=session.tenant, traces=session.accepted,
            )

    async def _session_loop(
        self,
        session: _Session,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        loop = asyncio.get_running_loop()
        timed = self.metrics is not None and self.metrics.full
        watched = timed or self.flight is not None
        while True:
            try:
                frame = await asyncio.wait_for(
                    aread_frame(reader, self._max_frame), self._idle_timeout
                )
            except asyncio.TimeoutError:
                await self._send_error(
                    writer,
                    f"idle timeout after {self._idle_timeout:g}s",
                )
                raise _SessionAborted("idle timeout") from None
            except ProtocolError as exc:
                raise _SessionAborted(f"protocol error: {exc}") from None
            if frame is None:
                return  # clean EOF
            started = perf_counter_ns() if watched else 0
            if self._faults is not None:
                rule = self._faults.fire(FaultPoint.DAEMON_SESSION_DECODE)
                if rule is not None:
                    if self.flight is not None:
                        self.flight.record(
                            "chaos", point="daemon.session_decode",
                            fault=rule.kind.name,
                            session=session.session_id,
                        )
                    if rule.kind in (FaultKind.SLOW, FaultKind.STALL):
                        await asyncio.sleep(rule.delay)
                    elif rule.kind is FaultKind.CRASH:
                        raise _SessionAborted(
                            "chaos: session killed mid-stream"
                        )
                    elif rule.kind in (FaultKind.CORRUPT, FaultKind.FAIL):
                        await self._send_error(
                            writer, "chaos: session frame corrupted"
                        )
                        raise _SessionAborted("chaos: frame corrupted")
            if len(frame) >= 6 and frame[5] == _KIND_TRACES:
                await self._handle_traces(session, writer, frame, loop)
            else:
                try:
                    message = decode_message(frame)
                except TraceDecodeError as exc:
                    await self._send_error(writer, f"bad frame: {exc}")
                    raise _SessionAborted(f"bad frame: {exc}") from None
                kind = message[0]
                if kind == "drain":
                    await self._handle_drain(
                        session, writer, loop,
                        message[1] if len(message) > 1 else None,
                    )
                elif kind == "stats_sub":
                    await self._handle_stats(session, writer, message[1])
                elif kind == "flight_req":
                    await self._send(
                        writer,
                        encode_flight_message(
                            self.flight.events()
                            if self.flight is not None else []
                        ),
                    )
                elif kind == "bye":
                    return
                else:
                    await self._send_error(
                        writer, f"unexpected {kind!r} frame from client"
                    )
                    raise _SessionAborted(f"unexpected {kind!r} frame")
            if watched:
                elapsed = perf_counter_ns() - started
                if timed:
                    self.metrics.histogram("daemon.frame_ns").record(elapsed)
                    self.metrics.histogram(
                        f"daemon.tenant.{session.tenant}.frame_ns"
                    ).record(elapsed)
                if (
                    self.flight is not None
                    and elapsed > self._slow_frame_ns
                ):
                    self.flight.record(
                        "slow_frame", session=session.session_id,
                        tenant=session.tenant, bytes=len(frame),
                        elapsed_ms=elapsed // 1_000_000,
                    )

    async def _handle_traces(
        self,
        session: _Session,
        writer: asyncio.StreamWriter,
        frame: bytes,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        nbytes = len(frame)
        budget = self.admission.budget
        if session.unreleased and budget.used + nbytes > budget.limit:
            # Rung 0 from the server's side: this session holds bytes it
            # can free itself, so catch the pool up (not reading the
            # socket meanwhile — that is the backpressure) instead of
            # shedding a frame the client would only have to resend.
            await asyncio.get_running_loop().run_in_executor(
                None, session.pool.drain
            )
            self.admission.release(session.unreleased)
            session.unreleased = 0
        decision = await self.admission.admit_frame(
            session.session_id, session.tenant, nbytes
        )
        if decision.action == "shed":
            if self.flight is not None:
                self.flight.record(
                    "shed", session=session.session_id,
                    tenant=session.tenant, bytes=nbytes,
                    retry_after_ms=decision.retry_after_ms,
                    reason=decision.reason,
                )
            await self._send(
                writer,
                encode_shed_message(decision.retry_after_ms, decision.reason),
            )
            return
        if decision.action == "reject":
            if self.flight is not None:
                self.flight.record(
                    "session_rejected", session=session.session_id,
                    tenant=session.tenant, reason=decision.reason,
                )
            await self._send_error(
                writer, f"session rejected: {decision.reason}"
            )
            raise _SessionAborted(decision.reason)
        try:
            traces = decode_message(frame)[1]
        except TraceDecodeError as exc:
            self.admission.release(nbytes)
            await self._send_error(
                writer,
                f"bad trace frame in session {session.session_id}: {exc}",
            )
            raise _SessionAborted(f"bad trace frame: {exc}") from None
        pool = session.pool

        def _submit_all() -> None:
            for trace in traces:
                pool.submit(trace)

        await loop.run_in_executor(None, _submit_all)
        session.accepted += len(traces)
        session.unreleased += nbytes
        self.traces_accepted += len(traces)
        self.tenant_traces[session.tenant] = (
            self.tenant_traces.get(session.tenant, 0) + len(traces)
        )
        if self.metrics is not None:
            self.metrics.counter("daemon.traces").inc(len(traces))
        policy = self.admission.policy
        if (
            session.unreleased >= policy.checkpoint_bytes
            or pool.backlog() > self._max_backlog
        ):
            # Checkpoint: wait for the pool to catch up, then hand the
            # session's inflight bytes back.  drain() is cumulative, so
            # any number of checkpoints leaves the final verdict
            # byte-identical.
            await loop.run_in_executor(None, pool.drain)
            self.admission.release(session.unreleased)
            session.unreleased = 0
        await self._send(
            writer, encode_session_ack_message(session.accepted)
        )

    async def _handle_drain(
        self,
        session: _Session,
        writer: asyncio.StreamWriter,
        loop: asyncio.AbstractEventLoop,
        client_span: Optional[SpanContext] = None,
    ) -> None:
        drain_span: Optional[SpanHandle] = None
        if self._tracer is not None:
            parent = client_span if client_span is not None else (
                session.span.context if session.span is not None else None
            )
            drain_span = self._tracer.start_span(
                "daemon.drain", parent=parent, session=session.session_id
            )
        result = await loop.run_in_executor(None, session.pool.drain)
        if drain_span is not None:
            drain_span.finish(traces=result.traces_checked)
        self.admission.release(session.unreleased)
        session.unreleased = 0
        session.answered_drains += 1
        if self.metrics is not None:
            self.metrics.counter("daemon.drains").inc(1)
        # The verdict trailer carries the server drain span's context
        # (so the client's trace links to the server timeline) and a
        # *cumulative* snapshot of the session pool's registry — the
        # client replaces, not merges, so checkpointed drains never
        # double-count.
        registry = (
            session.pool.metrics_snapshot()
            if self.metrics is not None else None
        )
        await self._send(
            writer,
            encode_verdict_message(
                result,
                result.diagnostics,
                span=(
                    drain_span.context if drain_span is not None else None
                ),
                registry=registry,
            ),
        )

    async def _handle_stats(
        self,
        session: _Session,
        writer: asyncio.StreamWriter,
        interval_ms: int,
    ) -> None:
        """Answer a ``stats_sub``: one snapshot, or a stream.

        ``interval_ms <= 0`` means a single snapshot and back to the
        frame loop.  A positive interval (floored by the server's
        ``telemetry_interval_ms``) turns this session into a stats
        stream until the client disconnects or the server drains — a
        subscriber going away is a normal ending, not an abort.
        """
        try:
            await self._send(
                writer, encode_stats_message(build_stats_payload(self))
            )
            if interval_ms <= 0:
                return
            interval = max(interval_ms, self._telemetry_interval_ms) / 1000.0
            while not self._draining:
                # Chunked sleep: stay responsive to shutdown without
                # waking subscribers early.
                remaining = interval
                while remaining > 0 and not self._draining:
                    await asyncio.sleep(min(remaining, 0.2))
                    remaining -= 0.2
                if self._draining:
                    return
                await self._send(
                    writer, encode_stats_message(build_stats_payload(self))
                )
        except (ConnectionError, OSError):
            return  # subscriber went away: EOF will end the session


# ----------------------------------------------------------------------
# Thread-hosted server (tests, benchmarks, embedding)
# ----------------------------------------------------------------------
class ServerHandle:
    """A :class:`CheckingServer` running on its own event-loop thread."""

    def __init__(
        self,
        server: CheckingServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def tcp_address(self) -> Optional[Tuple[str, int]]:
        return self.server.tcp_address

    @property
    def uds_path(self) -> Optional[str]:
        return self.server.uds_path

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Gracefully shut down and join the loop thread.  Idempotent."""
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain=drain), self._loop
        )
        try:
            future.result(timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_in_thread(**kwargs) -> ServerHandle:
    """Start a :class:`CheckingServer` on a dedicated daemon thread.

    Accepts the :class:`CheckingServer` constructor arguments; returns
    once the listeners are bound, so ``handle.tcp_address`` /
    ``handle.uds_path`` are immediately connectable.
    """
    started = threading.Event()
    holder: Dict[str, object] = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            server = CheckingServer(**kwargs)
            loop.run_until_complete(server.start())
        except BaseException as exc:  # surface to the caller
            holder["error"] = exc
            started.set()
            loop.close()
            return
        holder["server"] = server
        holder["loop"] = loop
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(
        target=run, name="pmtest-daemon", daemon=True
    )
    thread.start()
    if not started.wait(30.0):
        raise RuntimeError("daemon thread failed to start in 30s")
    error = holder.get("error")
    if error is not None:
        raise error  # type: ignore[misc]
    return ServerHandle(
        holder["server"], holder["loop"], thread  # type: ignore[arg-type]
    )
