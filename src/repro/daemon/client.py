"""The synchronous daemon client (``repro.client`` / ``repro submit``).

:class:`CheckingClient` mirrors the library's
:class:`~repro.core.workers.WorkerPool` surface — ``submit(trace)``,
``drain() -> TestResult``, ``close()`` — so instrumented programs can
swap in-process checking for the daemon without touching their
submission code.  Under the hood it buffers traces, ships them as PMTB
``traces`` frames, and obeys the server's overload signals:

* a ``sack`` acknowledges the frame — carry on;
* a ``shed`` frame means the daemon dropped the (undecoded) frame;
  the client sleeps the advertised retry-after and resends the
  *identical* bytes, so sheds are invisible to verdicts;
* an ``error`` frame means the session is over —
  :class:`DaemonOverloaded` when the ladder rejected it,
  :class:`DaemonError` otherwise.

A ``deadline`` (seconds, per client) caps the total time spent in
connect retries, shed backoff and blocking reads; when it passes,
:class:`DeadlineExceeded` is raised rather than blocking forever on an
unresponsive or overloaded daemon.
"""

from __future__ import annotations

import socket
import time
from typing import List, Optional, Tuple, Union

from repro.core.metrics import MetricsRegistry
from repro.core.reports import TestResult
from repro.core.events import Trace
from repro.core.traceio import (
    TraceDecodeError,
    decode_message,
    encode_bye_message,
    encode_drain_message,
    encode_flight_request_message,
    encode_hello_message,
    encode_stats_subscribe_message,
    encode_traces_binary,
)
from repro.core.tracing import SpanHandle, Tracer
from repro.daemon.protocol import (
    DEFAULT_MAX_FRAME,
    ProtocolError,
    read_frame,
    write_frame,
)

__all__ = [
    "CheckingClient",
    "DaemonError",
    "DaemonOverloaded",
    "DeadlineExceeded",
    "parse_address",
]


class DaemonError(Exception):
    """The daemon refused or failed the session."""


class DaemonOverloaded(DaemonError):
    """The admission ladder rejected this session (rung 2)."""


class DeadlineExceeded(DaemonError):
    """The client's deadline passed before the daemon answered."""


Address = Union[str, Tuple[str, int]]


def parse_address(address: Address) -> Tuple[int, Union[str, Tuple[str, int]]]:
    """Normalise an address into ``(socket family, connect target)``.

    Accepted spellings: a ``(host, port)`` tuple, ``tcp://host:port``,
    ``host:port``, ``unix:///path/to.sock``, or a bare filesystem path
    (anything containing ``/``).
    """
    if isinstance(address, tuple):
        host, port = address
        return (socket.AF_INET, (host, int(port)))
    if address.startswith("unix://"):
        return (socket.AF_UNIX, address[len("unix://"):])
    if address.startswith("tcp://"):
        address = address[len("tcp://"):]
    elif "/" in address:
        return (socket.AF_UNIX, address)
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"cannot parse daemon address {address!r}; expected "
            "host:port, tcp://host:port, unix:///path or /path"
        )
    return (socket.AF_INET, (host or "127.0.0.1", int(port)))


class CheckingClient:
    """One checking session against a running daemon.

    Parameters mirror operational reality rather than the checker:
    ``batch_size`` is how many traces ride in one frame,
    ``connect_retries``/``backoff_base`` govern initial connection
    (exponential: ``backoff_base * 2**attempt`` seconds between tries),
    and ``deadline`` bounds every blocking step of the whole session.
    """

    def __init__(
        self,
        address: Address,
        tenant: str = "default",
        *,
        deadline: Optional[float] = None,
        batch_size: int = 16,
        connect_retries: int = 5,
        backoff_base: float = 0.05,
        max_frame: int = DEFAULT_MAX_FRAME,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.tenant = tenant
        self.batch_size = batch_size
        self._max_frame = max_frame
        self._deadline = (
            time.monotonic() + deadline if deadline is not None else None
        )
        self._buffer: List[Trace] = []
        self._dispatched = 0
        self._sheds_seen = 0
        self._closed = False
        self._final: Optional[TestResult] = None
        self.session_id: Optional[int] = None
        self._tracer = tracer
        self._metrics = metrics
        #: the server's cumulative session-pool registry, replaced (not
        #: merged) on every verdict so checkpointed drains cannot
        #: double-count
        self._server_registry: Optional[MetricsRegistry] = None
        #: the whole-session client span; its context rides in the
        #: hello frame so the server's session span parents under it
        self._session_span: Optional[SpanHandle] = (
            tracer.start_span("client.session", tenant=tenant)
            if tracer is not None else None
        )
        self._sock = self._connect(address, connect_retries, backoff_base)
        try:
            self._handshake()
        except BaseException:
            self._sock.close()
            raise

    # ------------------------------------------------------------------
    # Connection
    # ------------------------------------------------------------------
    def _remaining(self) -> Optional[float]:
        if self._deadline is None:
            return None
        return self._deadline - time.monotonic()

    def _check_deadline(self, doing: str) -> None:
        remaining = self._remaining()
        if remaining is not None and remaining <= 0:
            raise DeadlineExceeded(f"deadline passed while {doing}")

    def _sleep(self, seconds: float, doing: str) -> None:
        """Sleep, but never past the deadline."""
        remaining = self._remaining()
        if remaining is not None:
            if remaining <= 0:
                raise DeadlineExceeded(f"deadline passed while {doing}")
            seconds = min(seconds, remaining)
        if seconds > 0:
            time.sleep(seconds)

    def _connect(
        self, address: Address, retries: int, backoff_base: float
    ) -> socket.socket:
        family, target = parse_address(address)
        last_error: Optional[OSError] = None
        for attempt in range(retries + 1):
            if attempt:
                self._sleep(
                    backoff_base * (2 ** (attempt - 1)),
                    f"reconnecting to {target!r}",
                )
            self._check_deadline(f"connecting to {target!r}")
            sock = socket.socket(family, socket.SOCK_STREAM)
            try:
                remaining = self._remaining()
                sock.settimeout(remaining)
                sock.connect(target)
                sock.settimeout(self._remaining())
                return sock
            except OSError as exc:
                last_error = exc
                sock.close()
        raise DaemonError(
            f"could not connect to daemon at {target!r} "
            f"after {retries + 1} attempt(s): {last_error}"
        )

    def _handshake(self) -> None:
        span = (
            self._session_span.context
            if self._session_span is not None else None
        )
        self._send(encode_hello_message(self.tenant, span=span))
        message = self._recv("handshake")
        if message[0] == "error":
            raise self._session_error(message[1])
        if message[0] != "welcome":
            raise DaemonError(
                f"expected welcome from daemon, got {message[0]!r}"
            )
        self.session_id = message[1]
        self._max_frame = min(self._max_frame, message[2])

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    def _send(self, payload: bytes) -> None:
        if len(payload) > self._max_frame:
            raise DaemonError(
                f"frame of {len(payload)} bytes exceeds the negotiated "
                f"{self._max_frame}-byte ceiling; lower batch_size"
            )
        self._sock.settimeout(self._remaining())
        try:
            write_frame(self._sock, payload)
        except socket.timeout:
            raise DeadlineExceeded("deadline passed while sending") from None
        except OSError as exc:
            raise DaemonError(f"connection to daemon lost: {exc}") from exc

    def _recv(self, doing: str) -> tuple:
        self._check_deadline(doing)
        self._sock.settimeout(self._remaining())
        try:
            frame = read_frame(self._sock, self._max_frame)
        except socket.timeout:
            raise DeadlineExceeded(
                f"deadline passed while {doing}"
            ) from None
        except (ProtocolError, OSError) as exc:
            raise DaemonError(
                f"connection to daemon lost while {doing}: {exc}"
            ) from exc
        if frame is None:
            raise DaemonError(
                f"daemon closed the connection while {doing}"
            )
        try:
            return decode_message(frame)
        except TraceDecodeError as exc:
            raise DaemonError(f"undecodable frame from daemon: {exc}") from exc

    def _session_error(self, message: str) -> DaemonError:
        if "rejected" in message or "draining" in message:
            return DaemonOverloaded(message)
        return DaemonError(message)

    # ------------------------------------------------------------------
    # Checking surface (WorkerPool-compatible)
    # ------------------------------------------------------------------
    @property
    def dispatched(self) -> int:
        """Traces acknowledged by the daemon so far (plus buffered)."""
        return self._dispatched + len(self._buffer)

    @property
    def sheds_seen(self) -> int:
        """Overload sheds this client absorbed (all retried)."""
        return self._sheds_seen

    def submit(self, trace: Trace) -> None:
        """Buffer one trace; ships when ``batch_size`` accumulate."""
        if self._closed:
            raise DaemonError("client is closed")
        self._buffer.append(trace)
        if len(self._buffer) >= self.batch_size:
            self.flush()

    def flush(self) -> None:
        """Ship buffered traces now, riding out sheds with backoff."""
        if not self._buffer:
            return
        payload = encode_traces_binary(self._buffer)
        count = len(self._buffer)
        metrics = self._metrics
        timed = metrics is not None and metrics.full
        while True:
            started = time.perf_counter_ns() if timed else 0
            self._send(payload)
            if metrics is not None:
                metrics.counter("client.frames_sent").inc(1)
                metrics.counter("client.bytes_sent").inc(len(payload))
            message = self._recv("waiting for frame ack")
            kind = message[0]
            if kind == "sack":
                if timed:
                    # Round trip from send to ack: queueing at the
                    # daemon (rung 0 waits included) plus the wire.
                    metrics.histogram("client.frame_ns").record(
                        time.perf_counter_ns() - started
                    )
                self._dispatched += count
                self._buffer.clear()
                return
            if kind == "shed":
                # The daemon dropped the frame undecoded; resending the
                # identical bytes keeps sheds verdict-neutral.
                self._sheds_seen += 1
                if metrics is not None:
                    metrics.counter("client.sheds").inc(1)
                retry_after_ms, reason = message[1], message[2]
                self._sleep(
                    retry_after_ms / 1000.0,
                    f"backing off after shed ({reason})",
                )
                continue
            if kind == "error":
                raise self._session_error(message[1])
            raise DaemonError(f"unexpected {kind!r} frame during submit")

    def drain(self) -> TestResult:
        """Flush, then ask the daemon for the cumulative verdict."""
        if self._closed:
            if self._final is not None:
                return self._final
            raise DaemonError("client is closed")
        self.flush()
        drain_span: Optional[SpanHandle] = None
        if self._tracer is not None:
            drain_span = self._tracer.start_span(
                "client.drain",
                parent=(
                    self._session_span.context
                    if self._session_span is not None else None
                ),
                dispatched=self._dispatched,
            )
        span = drain_span.context if drain_span is not None else None
        try:
            self._send(encode_drain_message(span=span))
            while True:
                message = self._recv("waiting for verdict")
                kind = message[0]
                if kind == "verdict":
                    result, diagnostics = message[1], message[2]
                    result.diagnostics.extend(diagnostics)
                    if len(message) > 4 and message[4] is not None:
                        # The server ships its cumulative session-pool
                        # registry with every verdict; replace, never
                        # merge, or checkpointed drains double-count.
                        self._server_registry = message[4]
                    if drain_span is not None:
                        drain_span.finish(traces=result.traces_checked)
                        drain_span = None
                    return result
                if kind == "error":
                    raise self._session_error(message[1])
                raise DaemonError(
                    f"unexpected {kind!r} frame during drain"
                )
        finally:
            if drain_span is not None:
                drain_span.finish(error=True)

    def close(self) -> TestResult:
        """Drain, say goodbye, release the socket.  Idempotent."""
        if self._closed:
            if self._final is not None:
                return self._final
            raise DaemonError("client was closed without a final verdict")
        try:
            result = self.drain()
            try:
                self._send(encode_bye_message())
                self._await_hangup()
            except DaemonError:
                pass  # verdict already in hand; a lost bye is harmless
            self._final = result
            return result
        finally:
            self._closed = True
            self._sock.close()
            self._finish_session_span()

    def _await_hangup(self) -> None:
        """Read until the daemon closes the connection after ``bye``.

        The server hangs up only after it has closed the session's pool
        and merged its registry, so once this returns the daemon's
        ``/metrics`` and stats already count this session.  Bounded by
        the session deadline; a timeout or a broken connection just
        ends the wait (the verdict is already in hand).
        """
        remaining = self._remaining()
        if remaining is not None and remaining <= 0:
            return
        self._sock.settimeout(remaining)
        try:
            while read_frame(self._sock, self._max_frame) is not None:
                pass  # late stats frames: the session is over
        except (ProtocolError, OSError):
            pass

    def abort(self) -> None:
        """Drop the connection without draining (tests, error paths)."""
        self._closed = True
        self._sock.close()
        self._finish_session_span()

    def _finish_session_span(self) -> None:
        if self._session_span is not None:
            self._session_span.finish(
                dispatched=self._dispatched, sheds=self._sheds_seen
            )

    # ------------------------------------------------------------------
    # Telemetry surface
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Optional[MetricsRegistry]:
        """Client-side counters merged with the server-shipped registry.

        The server attaches its cumulative session-pool registry to
        every verdict (when it records metrics at all); this folds that
        into the client's own registry without mutating either.
        Returns ``None`` when neither side recorded anything.
        """
        if self._metrics is None and self._server_registry is None:
            return None
        merged = MetricsRegistry(
            level=(
                self._metrics.level
                if self._metrics is not None
                else self._server_registry.level
            )
        )
        merged.merge(self._metrics)
        merged.merge(self._server_registry)
        return merged

    def stats_once(self) -> dict:
        """Fetch one live-stats snapshot from the daemon."""
        if self._closed:
            raise DaemonError("client is closed")
        self._send(encode_stats_subscribe_message(0))
        message = self._recv("waiting for stats")
        if message[0] == "stats":
            return message[1]
        if message[0] == "error":
            raise self._session_error(message[1])
        raise DaemonError(f"unexpected {message[0]!r} frame during stats")

    def stats_stream(self, interval_ms: int = 1000):
        """Subscribe to the daemon's stats stream; yields payload dicts.

        The daemon keeps sending snapshots at (at least) its configured
        interval until the connection drops — break out and call
        :meth:`abort` to stop; the session cannot return to checking
        afterwards.
        """
        if self._closed:
            raise DaemonError("client is closed")
        self._send(encode_stats_subscribe_message(max(1, interval_ms)))
        while True:
            message = self._recv("waiting for stats")
            if message[0] == "stats":
                yield message[1]
                continue
            if message[0] == "error":
                raise self._session_error(message[1])
            raise DaemonError(
                f"unexpected {message[0]!r} frame during stats stream"
            )

    def fetch_flight(self) -> list:
        """Fetch the daemon's flight-recorder ring (oldest first)."""
        if self._closed:
            raise DaemonError("client is closed")
        self._send(encode_flight_request_message())
        message = self._recv("waiting for flight events")
        if message[0] == "flight":
            return message[1]
        if message[0] == "error":
            raise self._session_error(message[1])
        raise DaemonError(
            f"unexpected {message[0]!r} frame during flight fetch"
        )

    def __enter__(self) -> "CheckingClient":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()
