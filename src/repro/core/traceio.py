"""Trace serialization: record once, check offline, anywhere.

The paper's PMTest checks traces online, in the same process.  This
module adds the natural deployment mode for a trace-based tool: dump
captured traces to a file (JSON lines — one event per line, one blank
line between traces) and re-check them later, with different rules, or
on another machine.  It also enables corpus-style regression testing:
keep the trace that exposed a bug and assert the checker verdict
forever after.

Format (stable, versioned)::

    {"format": "pmtest-trace", "version": 1}          # header line
    {"trace": 0, "thread": "main"}                    # trace header
    {"op": "WRITE", "addr": 16, "size": 64, ...}      # events
    ...
    {"trace": 1, "thread": "main"}                    # next trace
    ...

Sites are preserved when present.
"""

from __future__ import annotations

import json
import mmap
import struct
from pathlib import Path
from typing import Dict, Iterable, List, Optional, TextIO, Tuple, Union

from repro.core.column_arena import (
    ArenaError,
    ArenaShardRef,
    is_descriptor as _is_arena_descriptor,
    resolve_descriptor as _resolve_arena_descriptor,
)
from repro.core.columns import OPS_BY_VALUE, ColumnarTrace
from repro.core.events import Event, Op, SourceSite, Trace
from repro.core.reports import Level, Report, ReportCode, TestResult

FORMAT_NAME = "pmtest-trace"
FORMAT_VERSION = 1


class TraceFormatError(Exception):
    """The file is not a valid PMTest trace dump."""


class TraceDecodeError(Exception):
    """A wire-encoded trace/result tuple is truncated or garbage.

    The process backend ships traces and results between processes as
    flattened tuples; a corrupted message must fail *here*, with a typed
    error naming what was malformed, rather than as an arbitrary
    exception from deep inside the checking engine.
    """


def dump_traces(traces: Iterable[Trace], destination: Union[str, Path, TextIO]) -> int:
    """Write traces to a file or file-like object; returns trace count."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            return dump_traces(traces, handle)
    destination.write(
        json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION}) + "\n"
    )
    count = 0
    for trace in traces:
        destination.write(
            json.dumps({"trace": trace.trace_id, "thread": trace.thread_name})
            + "\n"
        )
        for event in trace.events:
            destination.write(json.dumps(_event_to_dict(event)) + "\n")
        count += 1
    return count


def load_traces(source: Union[str, Path, TextIO]) -> List[Trace]:
    """Read every trace from a dump produced by :func:`dump_traces`."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_traces(handle)
    lines = iter(source)
    header = _parse_line(next(lines, ""))
    if header.get("format") != FORMAT_NAME:
        raise TraceFormatError("missing pmtest-trace header line")
    if header.get("version") != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace format version {header.get('version')!r}"
        )
    traces: List[Trace] = []
    current: Optional[Trace] = None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = _parse_line(line)
        if "trace" in record:
            current = Trace(record["trace"],
                            thread_name=record.get("thread", "main"))
            traces.append(current)
        elif "op" in record:
            if current is None:
                raise TraceFormatError("event before any trace header")
            current.append(_event_from_dict(record))
        else:
            raise TraceFormatError(f"unrecognized record: {record!r}")
    return traces


# ----------------------------------------------------------------------
def _event_to_dict(event: Event) -> dict:
    record = {"op": event.op.name}
    if event.size:
        record["addr"] = event.addr
        record["size"] = event.size
    if event.size2:
        record["addr2"] = event.addr2
        record["size2"] = event.size2
    if event.site is not None:
        record["site"] = [event.site.file, event.site.line,
                          event.site.function]
    return record


def _event_from_dict(record: dict) -> Event:
    try:
        op = Op[record["op"]]
    except KeyError as exc:
        raise TraceFormatError(f"unknown op {record.get('op')!r}") from exc
    site = None
    if "site" in record:
        file, line, function = record["site"]
        site = SourceSite(file, line, function)
    return Event(
        op,
        record.get("addr", 0),
        record.get("size", 0),
        record.get("addr2", 0),
        record.get("size2", 0),
        site,
    )


def _parse_line(line: str) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"bad JSON line: {line[:60]!r}") from exc
    if not isinstance(record, dict):
        raise TraceFormatError("trace lines must be JSON objects")
    return record


# ----------------------------------------------------------------------
# Compact wire encoding (cross-process IPC)
# ----------------------------------------------------------------------
# The process checking backend ships traces to worker processes and
# results back.  Pickling the dataclass object graph (one ``Event``
# instance per record, each holding an ``Op`` enum and an optional
# ``SourceSite``) costs far more than checking small traces does, so
# the wire format flattens everything to tuples of ints and strings:
#
#     event   = (op_value, addr, size, addr2, size2, site, seq)
#     trace   = (trace_id, thread_name, (event, ...))
#     report  = (level_value, code_value, message, site, rel_site,
#                trace_id, seq)
#     result  = ((report, ...), traces, events, checkers)
#
# where ``site`` is ``(file, line, function)`` or ``None``.  Tuples of
# primitives hit pickle's fast paths and decode without any per-field
# dispatch.  ``decode_*(encode_*(x)) == x`` is property-tested.

_WireSite = Optional[Tuple[str, int, str]]


def _encode_site(site: Optional[SourceSite]) -> _WireSite:
    if site is None:
        return None
    return (site.file, site.line, site.function)


def _decode_site(wire: _WireSite) -> Optional[SourceSite]:
    if wire is None:
        return None
    if (
        not isinstance(wire, (tuple, list))
        or len(wire) != 3
        or not isinstance(wire[0], str)
        or not isinstance(wire[1], int)
        or not isinstance(wire[2], str)
    ):
        raise TraceDecodeError(f"malformed source site: {wire!r}")
    return SourceSite(wire[0], wire[1], wire[2])


def _expect_tuple(wire, arity: int, what: str) -> tuple:
    if not isinstance(wire, (tuple, list)) or len(wire) != arity:
        raise TraceDecodeError(
            f"malformed wire {what}: expected a {arity}-tuple, "
            f"got {wire!r:.80}"
        )
    return tuple(wire)


def encode_event(event: Event) -> tuple:
    """Flatten one :class:`Event` to a picklable tuple."""
    return (
        event.op.value,
        event.addr,
        event.size,
        event.addr2,
        event.size2,
        _encode_site(event.site),
        event.seq,
    )


def decode_event(wire: tuple) -> Event:
    op, addr, size, addr2, size2, site, seq = _expect_tuple(wire, 7, "event")
    try:
        op = Op(op)
    except ValueError as exc:
        raise TraceDecodeError(f"unknown op value {op!r}") from exc
    for name, value in (("addr", addr), ("size", size), ("addr2", addr2),
                        ("size2", size2), ("seq", seq)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TraceDecodeError(f"event {name} must be an int, got {value!r}")
    return Event(op, addr, size, addr2, size2, _decode_site(site), seq)


def encode_trace(trace: Union[Trace, ColumnarTrace]) -> tuple:
    """Flatten one :class:`Trace` (with event ``seq`` preserved).

    A :class:`~repro.core.columns.ColumnarTrace` flattens to the same
    3-tuple; an epoch *shard* gains a fourth ``check_from`` element so
    the shard boundary survives the wire (plain traces stay 3-tuples —
    existing consumers and golden encodings are unaffected).  An
    :class:`~repro.core.column_arena.ArenaShardRef` flattens to its O(1)
    5-tuple descriptor — segment name plus offsets, never the payload.
    """
    if isinstance(trace, ArenaShardRef):
        return trace.descriptor()
    if isinstance(trace, ColumnarTrace):
        base = (
            trace.trace_id,
            trace.thread_name,
            tuple(trace.event_tuples()),
        )
        if trace.is_shard or trace.check_from:
            return base + (trace.check_from,)
        return base
    return (
        trace.trace_id,
        trace.thread_name,
        tuple(encode_event(event) for event in trace.events),
    )


def decode_trace(wire: tuple) -> Union[Trace, ColumnarTrace]:
    """Decode a tuple-wire trace.

    3-tuples decode to object-form :class:`Trace`; 4-tuples (epoch
    shards) decode to a :class:`~repro.core.columns.ColumnarTrace`
    carrying its ``check_from`` mark, since only the columnar engine
    can replay a shard.  Arena shard descriptors (5-tuples tagged
    ``"PMCA"``) resolve into zero-copy column views over the named
    shared-memory segment; anything unresolvable fails typed.
    """
    if _is_arena_descriptor(wire):
        try:
            return _resolve_arena_descriptor(wire)
        except ArenaError as exc:
            raise TraceDecodeError(
                f"arena shard descriptor failed: {exc}"
            ) from exc
    if isinstance(wire, (tuple, list)) and len(wire) == 4:
        trace_id, thread_name, events, check_from = wire
        if (not isinstance(check_from, int) or isinstance(check_from, bool)
                or check_from < 0):
            raise TraceDecodeError(
                f"shard check_from must be a non-negative int, "
                f"got {check_from!r}"
            )
        trace = decode_trace((trace_id, thread_name, events))
        cols = ColumnarTrace.from_trace(trace)
        cols.check_from = check_from
        cols.is_shard = True
        return cols
    trace_id, thread_name, events = _expect_tuple(wire, 3, "trace")
    if not isinstance(trace_id, int) or isinstance(trace_id, bool):
        raise TraceDecodeError(f"trace id must be an int, got {trace_id!r}")
    if not isinstance(thread_name, str):
        raise TraceDecodeError(
            f"trace thread name must be a str, got {thread_name!r}"
        )
    if not isinstance(events, (tuple, list)):
        raise TraceDecodeError(f"trace events must be a sequence, got {events!r:.80}")
    trace = Trace(trace_id, thread_name=thread_name)
    # Bypass Trace.append: it would renumber seq, which the wire format
    # preserves verbatim.
    trace.events = [decode_event(event) for event in events]
    return trace


def encode_report(report: Report) -> tuple:
    return (
        report.level.value,
        report.code.value,
        report.message,
        _encode_site(report.site),
        _encode_site(report.related_site),
        report.trace_id,
        report.seq,
    )


def decode_report(wire: tuple) -> Report:
    level, code, message, site, related_site, trace_id, seq = _expect_tuple(
        wire, 7, "report"
    )
    try:
        level = Level(level)
        code = ReportCode(code)
    except ValueError as exc:
        raise TraceDecodeError(f"unknown report level/code: {exc}") from exc
    if not isinstance(message, str):
        raise TraceDecodeError(f"report message must be a str, got {message!r}")
    return Report(
        level=level,
        code=code,
        message=message,
        site=_decode_site(site),
        related_site=_decode_site(related_site),
        trace_id=trace_id,
        seq=seq,
    )


def encode_result(result: TestResult) -> tuple:
    """Flatten one :class:`TestResult` to a picklable tuple."""
    return (
        tuple(encode_report(report) for report in result.reports),
        result.traces_checked,
        result.events_checked,
        result.checkers_evaluated,
    )


def decode_result(wire: tuple) -> TestResult:
    reports, traces_checked, events_checked, checkers_evaluated = _expect_tuple(
        wire, 4, "result"
    )
    if not isinstance(reports, (tuple, list)):
        raise TraceDecodeError(
            f"result reports must be a sequence, got {reports!r:.80}"
        )
    for name, value in (
        ("traces_checked", traces_checked),
        ("events_checked", events_checked),
        ("checkers_evaluated", checkers_evaluated),
    ):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TraceDecodeError(f"result {name} must be an int, got {value!r}")
    return TestResult(
        reports=[decode_report(report) for report in reports],
        traces_checked=traces_checked,
        events_checked=events_checked,
        checkers_evaluated=checkers_evaluated,
    )


def encode_registry(registry: "MetricsRegistry") -> tuple:
    """Flatten a :class:`~repro.core.metrics.MetricsRegistry` delta.

    Worker processes ship their registries back piggybacked on result
    messages; the same flat-tuple discipline as the rest of the wire
    format applies (primitives only, pickle fast path)::

        registry  = (level, counters, gauges, histograms)
        counters  = ((name, value), ...)
        gauges    = ((name, value), ...)
        histogram = (name, count, total, vmin, vmax, ((bucket, n), ...))
    """
    return (
        registry.level.value,
        tuple(sorted((n, c.value) for n, c in registry._counters.items())),
        tuple(sorted((n, g.value) for n, g in registry._gauges.items())),
        tuple(
            (
                name,
                h.count,
                h.total,
                h.vmin,
                h.vmax,
                tuple((i, n) for i, n in enumerate(h.counts) if n),
            )
            for name, h in sorted(registry._histograms.items())
        ),
    )


def decode_registry(wire: tuple) -> "MetricsRegistry":
    from repro.core.metrics import (
        NUM_BUCKETS,
        MetricsLevel,
        MetricsRegistry,
    )

    level, counters, gauges, histograms = _expect_tuple(wire, 4, "registry")
    try:
        level = MetricsLevel(level)
    except ValueError as exc:
        raise TraceDecodeError(f"unknown metrics level {level!r}") from exc
    if level is MetricsLevel.OFF:
        raise TraceDecodeError("an OFF-level registry cannot travel the wire")
    for name, seq in (("counters", counters), ("gauges", gauges),
                      ("histograms", histograms)):
        if not isinstance(seq, (tuple, list)):
            raise TraceDecodeError(
                f"registry {name} must be a sequence, got {seq!r:.80}"
            )
    registry = MetricsRegistry(level)
    for entry in counters:
        name, value = _expect_tuple(entry, 2, "registry counter")
        _check_metric_name(name)
        _check_metric_int("counter value", value)
        registry.counter(name).inc(value)
    for entry in gauges:
        name, value = _expect_tuple(entry, 2, "registry gauge")
        _check_metric_name(name)
        _check_metric_int("gauge value", value)
        registry.gauge(name).observe(value)
    for entry in histograms:
        name, count, total, vmin, vmax, buckets = _expect_tuple(
            entry, 6, "registry histogram"
        )
        _check_metric_name(name)
        _check_metric_int("histogram count", count)
        _check_metric_int("histogram total", total)
        for bound_name, bound in (("min", vmin), ("max", vmax)):
            if bound is not None:
                _check_metric_int(f"histogram {bound_name}", bound)
        if not isinstance(buckets, (tuple, list)):
            raise TraceDecodeError(
                f"histogram buckets must be a sequence, got {buckets!r:.80}"
            )
        h = registry.histogram(name)
        h.count = count
        h.total = total
        h.vmin = vmin
        h.vmax = vmax
        for bucket in buckets:
            index, n = _expect_tuple(bucket, 2, "histogram bucket")
            _check_metric_int("bucket index", index)
            _check_metric_int("bucket count", n)
            if not 0 <= index < NUM_BUCKETS:
                raise TraceDecodeError(f"bucket index {index} out of range")
            h.counts[index] = n
    return registry


def _check_metric_name(name) -> None:
    if not isinstance(name, str) or not name:
        raise TraceDecodeError(f"metric name must be a non-empty str, got {name!r}")


def _check_metric_int(what: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TraceDecodeError(f"{what} must be an int, got {value!r}")


def corrupt_wire(wire: tuple) -> tuple:
    """Deterministically mangle a wire-encoded trace (chaos CORRUPT fault).

    Truncates the first event tuple so decoding fails with
    :class:`TraceDecodeError` — the typed, recognizable failure the
    decode-validation layer guarantees for garbage in transit.

    An arena shard descriptor has no event payload to truncate, so it
    is pointed at a segment name that cannot exist: the attach fails
    and decode raises the same typed error.
    """
    if _is_arena_descriptor(wire):
        return (wire[0], "pmca-corrupted", wire[2], wire[3], wire[4])
    trace_id, thread_name, events = wire[0], wire[1], wire[2]
    if events:
        events = (events[0][:3],) + tuple(events[1:])
    else:
        events = (("garbage",),)
    # A shard's trailing check_from rides along untouched.
    return (trace_id, thread_name, events) + tuple(wire[3:])


# ----------------------------------------------------------------------
# Binary wire codec (struct-packed, versioned)
# ----------------------------------------------------------------------
# The tuple wire above still rides pickle, which spends 25-30 bytes per
# event on framing and memo bookkeeping.  The binary codec below packs
# the same information into a self-describing byte string:
#
#     message := magic "PMTB" | version u8 | kind u8
#                | string-table | body
#     string-table := uvarint count | (uvarint len | utf-8 bytes)*
#
# All integers are LEB128 varints (``uvarint``); signed fields use the
# zigzag mapping (``svarint``).  Strings (site files/functions, thread
# names, report messages) are interned once per message in the string
# table and referenced by index, so a batch of traces from one call
# site pays for its strings once.  Event records are flag-packed::
#
#     event := op u8 | flags u8
#              | [addr svarint | size svarint]      (flags & RANGE1)
#              | [addr2 svarint | size2 svarint]    (flags & RANGE2)
#              | [file ref | line svarint | fn ref] (flags & SITE)
#              | [seq svarint]                      (flags & SEQ, i.e.
#                 seq differs from the event's position in the trace)
#
# Versioning: the version byte is bumped on any layout change; decoders
# reject versions they do not understand with TraceDecodeError (never a
# silent misparse).  Message kinds share the framing so the on-disk
# trace format and the daemon's session frames are the same codec.

BINARY_MAGIC = b"PMTB"
BINARY_VERSION = 1

_KIND_TRACES = 1
# Kinds 2-5 are retired (they framed an old process-backend task/ack/
# result/stop channel); they stay unassigned so such frames fail typed.
# Daemon session frames (repro.daemon): the checking service speaks the
# same codec over stream sockets, one length-prefixed message per frame.
_KIND_HELLO = 6
_KIND_WELCOME = 7
_KIND_DRAIN = 8
_KIND_VERDICT = 9
_KIND_SHED = 10
_KIND_ERROR = 11
_KIND_BYE = 12
_KIND_SESSION_ACK = 13
# Telemetry plane (streamed stats + flight recorder, repro.daemon).
_KIND_STATS_SUB = 14
_KIND_STATS = 15
_KIND_FLIGHT_REQ = 16
_KIND_FLIGHT = 17

_EV_RANGE1 = 0x01
_EV_RANGE2 = 0x02
_EV_SITE = 0x04
_EV_SEQ = 0x08
_EV_KNOWN = _EV_RANGE1 | _EV_RANGE2 | _EV_SITE | _EV_SEQ

_LEVEL_TAGS = {Level.FAIL: 0, Level.WARN: 1}
_TAG_LEVELS = {tag: level for level, tag in _LEVEL_TAGS.items()}

#: Precompiled message-head codec (magic | version u8 | kind u8): one
#: pack/unpack per message instead of per-byte assembly on every frame.
_HEAD = struct.Struct("<4sBB")


def _uv(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


class _BinWriter:
    """Accumulates a message body plus its per-message string table."""

    __slots__ = ("body", "_strings", "_refs")

    def __init__(self) -> None:
        self.body = bytearray()
        self._strings: List[str] = []
        self._refs: dict = {}

    def u8(self, value: int) -> None:
        self.body.append(value)

    def uvarint(self, value: int) -> None:
        _uv(self.body, value)

    def svarint(self, value: int) -> None:
        _uv(self.body, value * 2 if value >= 0 else -value * 2 - 1)

    def string(self, value: str) -> None:
        ref = self._refs.get(value)
        if ref is None:
            ref = self._refs[value] = len(self._strings)
            self._strings.append(value)
        _uv(self.body, ref)

    def finish(self, kind: int) -> bytes:
        head = bytearray(_HEAD.pack(BINARY_MAGIC, BINARY_VERSION, kind))
        _uv(head, len(self._strings))
        for value in self._strings:
            raw = value.encode("utf-8")
            _uv(head, len(raw))
            head += raw
        return bytes(head + self.body)


class _BinReader:
    """Cursor over one binary message; every misstep raises
    :class:`TraceDecodeError` naming the field being read."""

    __slots__ = ("buf", "pos", "kind", "strings")

    def __init__(self, data) -> None:
        # bytes and mmap objects are consumed in place (indexing yields
        # ints, slices decode); anything else buffer-like is wrapped in
        # a memoryview, so mmap-backed trace files never get copied into
        # a second heap-resident byte string.
        if isinstance(data, (bytes, mmap.mmap)):
            self.buf = data
        else:
            try:
                self.buf = memoryview(data)
            except TypeError:
                raise TraceDecodeError(
                    f"binary message must be bytes, got {type(data).__name__}"
                ) from None
        if len(self.buf) < 6 or bytes(self.buf[:4]) != BINARY_MAGIC:
            raise TraceDecodeError("missing PMTB magic: not a binary message")
        _magic, version, kind = _HEAD.unpack_from(self.buf, 0)
        if version != BINARY_VERSION:
            raise TraceDecodeError(
                f"unsupported binary format version {version}"
            )
        self.kind = kind
        self.pos = 6
        count = self.uvarint("string count")
        if count > len(self.buf):
            raise TraceDecodeError(f"string count {count} exceeds buffer")
        strings: List[str] = []
        for _ in range(count):
            length = self.uvarint("string length")
            raw = self.take(length, "string")
            try:
                strings.append(raw.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise TraceDecodeError(f"invalid utf-8 string: {exc}") from exc
        self.strings = strings

    def remaining(self) -> int:
        return len(self.buf) - self.pos

    def take(self, n: int, what: str) -> bytes:
        end = self.pos + n
        if end > len(self.buf):
            raise TraceDecodeError(f"truncated {what}: wanted {n} bytes")
        raw = self.buf[self.pos:end]
        self.pos = end
        return raw if isinstance(raw, bytes) else bytes(raw)

    def u8(self, what: str) -> int:
        if self.pos >= len(self.buf):
            raise TraceDecodeError(f"truncated {what}")
        value = self.buf[self.pos]
        self.pos += 1
        return value

    def uvarint(self, what: str) -> int:
        value = 0
        shift = 0
        while True:
            byte = self.u8(what)
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 128:
                raise TraceDecodeError(f"varint too long for {what}")

    def svarint(self, what: str) -> int:
        raw = self.uvarint(what)
        return raw >> 1 if not raw & 1 else -((raw + 1) >> 1)

    def string(self, what: str) -> str:
        ref = self.uvarint(what)
        if ref >= len(self.strings):
            raise TraceDecodeError(
                f"string ref {ref} out of table range for {what}"
            )
        return self.strings[ref]

    def count(self, what: str) -> int:
        """A list length, sanity-bounded by the bytes left (every
        element costs at least one byte, so anything larger is garbage
        and would otherwise drive a huge allocation)."""
        n = self.uvarint(what)
        if n > self.remaining():
            raise TraceDecodeError(f"{what} {n} exceeds buffer")
        return n


# --- events/traces ----------------------------------------------------
def _write_site(w: _BinWriter, site: SourceSite) -> None:
    w.string(site.file)
    w.svarint(site.line)
    w.string(site.function)


def _write_event_fields(
    w: _BinWriter,
    op_value: int,
    addr: int,
    size: int,
    addr2: int,
    size2: int,
    site: Optional[SourceSite],
    seq: int,
    implied_seq: int,
) -> None:
    flags = 0
    if addr or size:
        flags |= _EV_RANGE1
    if addr2 or size2:
        flags |= _EV_RANGE2
    if site is not None:
        flags |= _EV_SITE
    if seq != implied_seq:
        flags |= _EV_SEQ
    w.u8(op_value)
    w.u8(flags)
    if flags & _EV_RANGE1:
        w.svarint(addr)
        w.svarint(size)
    if flags & _EV_RANGE2:
        w.svarint(addr2)
        w.svarint(size2)
    if flags & _EV_SITE:
        _write_site(w, site)
    if flags & _EV_SEQ:
        w.svarint(seq)


def _write_trace_obj(w: _BinWriter, trace: Trace) -> None:
    w.svarint(trace.trace_id)
    w.string(trace.thread_name)
    w.uvarint(len(trace.events))
    for index, event in enumerate(trace.events):
        _write_event_fields(
            w, event.op.value, event.addr, event.size, event.addr2,
            event.size2, event.site, event.seq, index,
        )


def _read_event(
    r: _BinReader, implied_seq: int, site_cache: Optional[dict] = None
) -> Event:
    op_value = r.u8("event op")
    flags = r.u8("event flags")
    if flags & ~_EV_KNOWN:
        raise TraceDecodeError(f"unknown event flag bits {flags:#04x}")
    addr = size = addr2 = size2 = 0
    if flags & _EV_RANGE1:
        addr = r.svarint("event addr")
        size = r.svarint("event size")
    if flags & _EV_RANGE2:
        addr2 = r.svarint("event addr2")
        size2 = r.svarint("event size2")
    site = None
    if flags & _EV_SITE:
        # Sites are interned per (file ref, line, fn ref) triple: the
        # string-table lookups (and SourceSite construction) run once
        # per distinct call site, not once per event.
        file_ref = r.uvarint("site file")
        line = r.svarint("site line")
        fn_ref = r.uvarint("site function")
        key = (file_ref, line, fn_ref)
        site = site_cache.get(key) if site_cache is not None else None
        if site is None:
            strings = r.strings
            if file_ref >= len(strings):
                raise TraceDecodeError(
                    f"string ref {file_ref} out of table range for site file"
                )
            if fn_ref >= len(strings):
                raise TraceDecodeError(
                    f"string ref {fn_ref} out of table range for "
                    "site function"
                )
            site = SourceSite(strings[file_ref], line, strings[fn_ref])
            if site_cache is not None:
                site_cache[key] = site
    seq = r.svarint("event seq") if flags & _EV_SEQ else implied_seq
    try:
        op = Op(op_value)
    except ValueError:
        raise TraceDecodeError(f"unknown op value {op_value}") from None
    return Event(op, addr, size, addr2, size2, site, seq)


def _read_trace(r: _BinReader) -> Trace:
    trace_id = r.svarint("trace id")
    thread_name = r.string("trace thread name")
    n = r.count("event count")
    site_cache: dict = {}
    events = [_read_event(r, index, site_cache) for index in range(n)]
    trace = Trace(trace_id, thread_name=thread_name)
    trace.events = events  # wire discipline: seq preserved verbatim
    return trace


def _read_trace_columnar(r: _BinReader) -> ColumnarTrace:
    """Decode one trace record straight into struct-of-arrays columns.

    This is the columnar engine's ingest hot path, so it is hand-inlined
    the way :func:`repro.core.canon.canonicalize` is: the varint loops
    run on local ``buf``/``pos`` with no per-field method calls, no
    per-event :class:`Event`/:class:`SourceSite` allocation (sites are
    interned per ``(file, line, function)`` ref triple), and column
    preallocation from the leading event count.  Field layout and error
    semantics mirror :func:`_read_event`; an unknown opcode is noted in
    the loop and raised once the record is read.
    """
    buf = r.buf
    pos = r.pos
    limit = len(buf)
    strings = r.strings
    n_strings = len(strings)
    try:
        # trace id: svarint
        raw = 0
        shift = 0
        while True:
            byte = buf[pos]
            pos += 1
            raw |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 128:
                raise TraceDecodeError("varint too long for trace id")
        trace_id = raw >> 1 if not raw & 1 else -((raw + 1) >> 1)
        # thread name: string ref
        ref = 0
        shift = 0
        while True:
            byte = buf[pos]
            pos += 1
            ref |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 128:
                raise TraceDecodeError("varint too long for trace thread name")
        if ref >= n_strings:
            raise TraceDecodeError(
                f"string ref {ref} out of table range for trace thread name"
            )
        thread_name = strings[ref]
        # event count
        n = 0
        shift = 0
        while True:
            byte = buf[pos]
            pos += 1
            n |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 128:
                raise TraceDecodeError("varint too long for event count")
        if n > limit - pos:
            raise TraceDecodeError(f"event count {n} exceeds buffer")
        ops = bytearray(n)
        flag_col = bytearray(n)
        addrs = [0] * n
        sizes = [0] * n
        addr2s = [0] * n
        size2s = [0] * n
        site_idx = [-1] * n
        site_table: List[SourceSite] = []
        site_refs: dict = {}
        seqs: Optional[List[int]] = None
        bad_op = -1
        n_ops = len(OPS_BY_VALUE)
        for index in range(n):
            op_value = buf[pos]
            flags = buf[pos + 1]
            pos += 2
            if flags & ~_EV_KNOWN:
                raise TraceDecodeError(f"unknown event flag bits {flags:#04x}")
            ops[index] = op_value
            flag_col[index] = flags
            if flags & _EV_RANGE1:
                raw = 0
                shift = 0
                while True:
                    byte = buf[pos]
                    pos += 1
                    raw |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if shift > 128:
                        raise TraceDecodeError("varint too long for event addr")
                addrs[index] = raw >> 1 if not raw & 1 else -((raw + 1) >> 1)
                raw = 0
                shift = 0
                while True:
                    byte = buf[pos]
                    pos += 1
                    raw |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if shift > 128:
                        raise TraceDecodeError("varint too long for event size")
                sizes[index] = raw >> 1 if not raw & 1 else -((raw + 1) >> 1)
            if flags & _EV_RANGE2:
                raw = 0
                shift = 0
                while True:
                    byte = buf[pos]
                    pos += 1
                    raw |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if shift > 128:
                        raise TraceDecodeError("varint too long for event addr2")
                addr2s[index] = raw >> 1 if not raw & 1 else -((raw + 1) >> 1)
                raw = 0
                shift = 0
                while True:
                    byte = buf[pos]
                    pos += 1
                    raw |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if shift > 128:
                        raise TraceDecodeError("varint too long for event size2")
                size2s[index] = raw >> 1 if not raw & 1 else -((raw + 1) >> 1)
            if flags & _EV_SITE:
                file_ref = 0
                shift = 0
                while True:
                    byte = buf[pos]
                    pos += 1
                    file_ref |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if shift > 128:
                        raise TraceDecodeError("varint too long for site file")
                raw = 0
                shift = 0
                while True:
                    byte = buf[pos]
                    pos += 1
                    raw |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if shift > 128:
                        raise TraceDecodeError("varint too long for site line")
                line = raw >> 1 if not raw & 1 else -((raw + 1) >> 1)
                fn_ref = 0
                shift = 0
                while True:
                    byte = buf[pos]
                    pos += 1
                    fn_ref |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if shift > 128:
                        raise TraceDecodeError(
                            "varint too long for site function"
                        )
                key = (file_ref, line, fn_ref)
                ref = site_refs.get(key)
                if ref is None:
                    if file_ref >= n_strings or fn_ref >= n_strings:
                        raise TraceDecodeError(
                            f"string ref {max(file_ref, fn_ref)} out of "
                            "table range for site"
                        )
                    ref = site_refs[key] = len(site_table)
                    site_table.append(
                        SourceSite(strings[file_ref], line, strings[fn_ref])
                    )
                site_idx[index] = ref
            if flags & _EV_SEQ:
                raw = 0
                shift = 0
                while True:
                    byte = buf[pos]
                    pos += 1
                    raw |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if shift > 128:
                        raise TraceDecodeError("varint too long for event seq")
                seq = raw >> 1 if not raw & 1 else -((raw + 1) >> 1)
                if seqs is None:
                    seqs = list(range(index))
                seqs.append(seq)
            elif seqs is not None:
                seqs.append(index)
            if (op_value >= n_ops or OPS_BY_VALUE[op_value] is None) \
                    and bad_op < 0:
                bad_op = op_value
    except IndexError:
        r.pos = limit
        raise TraceDecodeError("truncated event") from None
    r.pos = pos
    if bad_op >= 0:
        raise TraceDecodeError(f"unknown op value {bad_op}")
    return ColumnarTrace(
        trace_id,
        thread_name,
        ops,
        flag_col,
        addrs,
        sizes,
        addr2s,
        size2s,
        site_idx,
        site_table,
        seqs,
    )


# --- reports/results --------------------------------------------------
def _write_report(w: _BinWriter, report: Report) -> None:
    w.u8(_LEVEL_TAGS[report.level])
    w.string(report.code.value)
    w.string(report.message)
    flags = (1 if report.site is not None else 0) | (
        2 if report.related_site is not None else 0
    )
    w.u8(flags)
    if report.site is not None:
        _write_site(w, report.site)
    if report.related_site is not None:
        _write_site(w, report.related_site)
    w.svarint(report.trace_id)
    w.svarint(report.seq)


def _read_site(r: _BinReader) -> SourceSite:
    return SourceSite(
        r.string("site file"), r.svarint("site line"),
        r.string("site function"),
    )


def _read_report(r: _BinReader) -> Report:
    tag = r.u8("report level")
    level = _TAG_LEVELS.get(tag)
    if level is None:
        raise TraceDecodeError(f"unknown report level tag {tag}")
    code_value = r.string("report code")
    try:
        code = ReportCode(code_value)
    except ValueError as exc:
        raise TraceDecodeError(f"unknown report code {code_value!r}") from exc
    message = r.string("report message")
    flags = r.u8("report site flags")
    if flags & ~3:
        raise TraceDecodeError(f"unknown report flag bits {flags:#04x}")
    site = _read_site(r) if flags & 1 else None
    related = _read_site(r) if flags & 2 else None
    return Report(
        level=level, code=code, message=message, site=site,
        related_site=related, trace_id=r.svarint("report trace id"),
        seq=r.svarint("report seq"),
    )


def _write_result(w: _BinWriter, result: TestResult) -> None:
    w.uvarint(len(result.reports))
    for report in result.reports:
        _write_report(w, report)
    w.svarint(result.traces_checked)
    w.svarint(result.events_checked)
    w.svarint(result.checkers_evaluated)


def _read_result(r: _BinReader) -> TestResult:
    n = r.count("report count")
    reports = [_read_report(r) for _ in range(n)]
    return TestResult(
        reports=reports,
        traces_checked=r.svarint("traces checked"),
        events_checked=r.svarint("events checked"),
        checkers_evaluated=r.svarint("checkers evaluated"),
    )


# --- metrics registries -----------------------------------------------
def _write_registry(w: _BinWriter, registry: "MetricsRegistry") -> None:
    from repro.core.metrics import MetricsLevel

    w.u8(2 if registry.level is MetricsLevel.FULL else 1)
    counters = sorted((n, c.value) for n, c in registry._counters.items())
    w.uvarint(len(counters))
    for name, value in counters:
        w.string(name)
        w.svarint(value)
    gauges = sorted((n, g.value) for n, g in registry._gauges.items())
    w.uvarint(len(gauges))
    for name, value in gauges:
        w.string(name)
        w.svarint(value)
    histograms = sorted(registry._histograms.items())
    w.uvarint(len(histograms))
    for name, h in histograms:
        w.string(name)
        w.svarint(h.count)
        w.svarint(h.total)
        flags = (1 if h.vmin is not None else 0) | (
            2 if h.vmax is not None else 0
        )
        w.u8(flags)
        if h.vmin is not None:
            w.svarint(h.vmin)
        if h.vmax is not None:
            w.svarint(h.vmax)
        buckets = [(i, n) for i, n in enumerate(h.counts) if n]
        w.uvarint(len(buckets))
        for index, count in buckets:
            w.uvarint(index)
            w.svarint(count)


def _read_registry(r: _BinReader) -> "MetricsRegistry":
    from repro.core.metrics import (
        NUM_BUCKETS,
        MetricsLevel,
        MetricsRegistry,
    )

    tag = r.u8("registry level")
    level = {1: MetricsLevel.BASIC, 2: MetricsLevel.FULL}.get(tag)
    if level is None:
        raise TraceDecodeError(f"unknown metrics level tag {tag}")
    registry = MetricsRegistry(level)
    for _ in range(r.count("counter count")):
        name = r.string("counter name")
        registry.counter(name).inc(r.svarint("counter value"))
    for _ in range(r.count("gauge count")):
        name = r.string("gauge name")
        registry.gauge(name).observe(r.svarint("gauge value"))
    for _ in range(r.count("histogram count")):
        h = registry.histogram(r.string("histogram name"))
        h.count = r.svarint("histogram count")
        h.total = r.svarint("histogram total")
        flags = r.u8("histogram bound flags")
        if flags & ~3:
            raise TraceDecodeError(
                f"unknown histogram flag bits {flags:#04x}"
            )
        h.vmin = r.svarint("histogram min") if flags & 1 else None
        h.vmax = r.svarint("histogram max") if flags & 2 else None
        for _ in range(r.count("bucket count")):
            index = r.uvarint("bucket index")
            if index >= NUM_BUCKETS:
                raise TraceDecodeError(f"bucket index {index} out of range")
            h.counts[index] = r.svarint("bucket value")
    return registry


# --- public binary API ------------------------------------------------
def encode_traces_binary(traces: Iterable[Trace]) -> bytes:
    """Encode :class:`Trace` objects to one binary ``traces`` message."""
    traces = list(traces)
    w = _BinWriter()
    w.uvarint(len(traces))
    for trace in traces:
        _write_trace_obj(w, trace)
    return w.finish(_KIND_TRACES)


def decode_traces_binary(data) -> List[Trace]:
    r = _BinReader(data)
    if r.kind != _KIND_TRACES:
        raise TraceDecodeError(f"expected a traces message, got kind {r.kind}")
    return [_read_trace(r) for _ in range(r.count("trace count"))]


def decode_traces_binary_columnar(data) -> List[ColumnarTrace]:
    """Decode a binary ``traces`` message straight into columns.

    Same wire format as :func:`decode_traces_binary`, but each trace
    lands as a :class:`ColumnarTrace` with no per-event allocation —
    the columnar engine's bulk ingest entry point.
    """
    r = _BinReader(data)
    if r.kind != _KIND_TRACES:
        raise TraceDecodeError(f"expected a traces message, got kind {r.kind}")
    return [_read_trace_columnar(r) for _ in range(r.count("trace count"))]


def encode_trace_binary(trace: Trace) -> bytes:
    """Encode a single trace as a one-trace ``traces`` message."""
    return encode_traces_binary([trace])


def decode_trace_binary(data) -> Trace:
    traces = decode_traces_binary(data)
    if len(traces) != 1:
        raise TraceDecodeError(
            f"expected exactly one trace, got {len(traces)}"
        )
    return traces[0]


def dump_traces_binary(traces: Iterable[Trace],
                       destination: Union[str, Path]) -> int:
    """Write traces in the compact binary format; returns trace count.

    The binary dump is a single ``traces`` message — the same codec the
    daemon speaks on its sockets — so it is typically 5-10x smaller
    than the JSON-lines dump for site-free traces.
    """
    traces = list(traces)
    data = encode_traces_binary(traces)
    Path(destination).write_bytes(data)
    return len(traces)


def _file_decode_error(
    exc: TraceDecodeError,
    source: Optional[str],
    offset: int,
) -> TraceFormatError:
    """Wrap a decode failure from an on-disk PMTB file with context.

    The underlying :class:`TraceDecodeError` gains ``source``/``offset``
    attributes (path and byte position of the failing read), and the
    raised :class:`TraceFormatError` carries the same attributes plus a
    message naming both — so daemon logs and CLI errors say *which*
    file broke and *where*, not just that one did.
    """
    exc.source = source
    exc.offset = offset
    if source is not None:
        wrapped = TraceFormatError(
            f"bad binary trace file {source} at byte offset {offset}: {exc}"
        )
    else:
        wrapped = TraceFormatError(f"bad binary trace file: {exc}")
    wrapped.source = source
    wrapped.offset = offset
    return wrapped


def load_traces_binary(source: Union[str, Path]) -> List[Trace]:
    data = Path(source).read_bytes()
    r: Optional[_BinReader] = None
    try:
        r = _BinReader(data)
        if r.kind != _KIND_TRACES:
            raise TraceDecodeError(
                f"expected a traces message, got kind {r.kind}"
            )
        return [_read_trace(r) for _ in range(r.count("trace count"))]
    except TraceDecodeError as exc:
        raise _file_decode_error(
            exc, str(source), r.pos if r is not None else 0
        ) from exc


class LazyBinaryTraces:
    """A PMTB trace file decoded on demand, one trace at a time.

    Holds the raw message bytes and decodes lazily on each iteration,
    so checking a million-event dump never materializes the whole
    ``List[Trace]`` alongside the file bytes (the old 2x peak).  The
    header (magic, version, kind, string table, trace count) is
    validated eagerly in the constructor so a damaged file still fails
    at load time, like the eager loader; per-trace damage surfaces as
    :class:`TraceFormatError` during iteration.

    Re-iterable: every ``__iter__`` starts a fresh decode, so callers
    may make multiple passes (``repro stats`` does).  ``columnar=True``
    yields :class:`ColumnarTrace` columns instead of :class:`Trace`
    objects — the columnar engine's zero-object ingest path.
    """

    __slots__ = ("_data", "_count", "_columnar", "_source")

    def __init__(
        self,
        data: bytes,
        columnar: bool = False,
        source: Optional[Union[str, Path]] = None,
    ) -> None:
        self._source = str(source) if source is not None else None
        r: Optional[_BinReader] = None
        try:
            r = _BinReader(data)
            if r.kind != _KIND_TRACES:
                raise TraceDecodeError(
                    f"expected a traces message, got kind {r.kind}"
                )
            count = r.count("trace count")
        except TraceDecodeError as exc:
            raise _file_decode_error(
                exc, self._source, r.pos if r is not None else 0
            ) from exc
        self._data = data
        self._count = count
        self._columnar = columnar

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        r = _BinReader(self._data)
        read = _read_trace_columnar if self._columnar else _read_trace
        r.count("trace count")
        for _ in range(self._count):
            try:
                yield read(r)
            except TraceDecodeError as exc:
                raise _file_decode_error(exc, self._source, r.pos) from exc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyBinaryTraces):
            return list(self) == list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LazyBinaryTraces count={self._count} "
            f"bytes={len(self._data)}>"
        )


def load_traces_auto(source: Union[str, Path], columnar: bool = False):
    """Load a trace dump in either format, sniffing the magic bytes.

    JSON-lines dumps decode eagerly to ``List[Trace]``; binary (PMTB)
    dumps return a re-iterable :class:`LazyBinaryTraces` view that
    decodes per trace during iteration, keeping peak memory at one
    decoded trace instead of the whole list.  Binary files are mapped
    read-only (``mmap``) rather than read into a heap byte string, so
    the page cache backs the undecoded bytes and repeated passes touch
    only the pages they decode; the map falls back to ``read_bytes``
    on filesystems that cannot mmap.  ``columnar=True`` makes the lazy
    view yield :class:`ColumnarTrace` columns (binary dumps only; JSON
    dumps always yield :class:`Trace`).
    """
    path = Path(source)
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic == BINARY_MAGIC:
            try:
                data = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except (ValueError, OSError):  # pragma: no cover - odd fs
                data = path.read_bytes()
            return LazyBinaryTraces(data, columnar=columnar, source=path)
    return load_traces(path)


# --- daemon session messages (repro.daemon) ---------------------------
def _write_span_context(w: _BinWriter, span: "object") -> None:
    """Two uvarints: ``(trace_id, span_id)`` of a tracing SpanContext."""
    trace_id, span_id = span.to_pair()
    w.uvarint(trace_id)
    w.uvarint(span_id)


def _read_span_context(r: _BinReader, what: str) -> "object":
    from repro.core.tracing import SpanContext

    return SpanContext(
        r.uvarint(f"{what} trace id"), r.uvarint(f"{what} span id")
    )


def _read_optional_span(r: _BinReader, what: str) -> "Optional[object]":
    """Decode the optional trailing span context of a session frame.

    Frames encoded before span propagation simply end here — decoders
    consume exact fields, so ``remaining() == 0`` means "old frame, no
    context" and keeps the wire backward compatible without a version
    bump.
    """
    if not r.remaining():
        return None
    flag = r.u8(f"{what} span flag")
    if flag == 0:
        return None
    if flag != 1:
        raise TraceDecodeError(f"bad {what} span flag {flag}")
    return _read_span_context(r, what)


def encode_hello_message(
    tenant: str,
    options: Optional[Dict[str, str]] = None,
    span: "Optional[object]" = None,
) -> bytes:
    """Session opener: tenant identity plus free-form string options.

    ``span`` (a :class:`~repro.core.tracing.SpanContext`) is the
    client-side session span; the server parents its own session span
    under it so the cross-process timeline links up.  Omitted, the
    frame is byte-identical to the pre-telemetry encoding.
    """
    w = _BinWriter()
    w.string(tenant)
    options = dict(options or {})
    w.uvarint(len(options))
    for key in sorted(options):
        w.string(key)
        w.string(options[key])
    if span is not None:
        w.u8(1)
        _write_span_context(w, span)
    return w.finish(_KIND_HELLO)


def encode_welcome_message(session_id: int, max_frame: int) -> bytes:
    """Server's handshake reply: session id and frame size ceiling."""
    w = _BinWriter()
    w.uvarint(session_id)
    w.uvarint(max_frame)
    return w.finish(_KIND_WELCOME)


def encode_drain_message(span: "Optional[object]" = None) -> bytes:
    """Client request: check everything submitted, send the verdict.

    ``span`` is the client's drain span context; the server parents its
    server-side drain span under it."""
    w = _BinWriter()
    if span is not None:
        w.u8(1)
        _write_span_context(w, span)
    return w.finish(_KIND_DRAIN)


def encode_verdict_message(
    result: TestResult,
    diagnostics: Iterable[str] = (),
    span: "Optional[object]" = None,
    registry: "Optional[MetricsRegistry]" = None,
) -> bytes:
    """A drain's answer.  ``TestResult`` wire form excludes diagnostics
    by design, so recovery lines travel alongside, explicitly.

    Optional trailers (flag-gated, absent on pre-telemetry frames):
    the server-side drain span context and the session pool's merged
    metrics snapshot, which the client folds into its own registry so
    ``repro submit --metrics-json`` sees server-side stage timings."""
    w = _BinWriter()
    _write_result(w, result)
    diagnostics = list(diagnostics)
    w.uvarint(len(diagnostics))
    for line in diagnostics:
        w.string(line)
    if span is not None or registry is not None:
        w.u8((1 if span is not None else 0)
             | (2 if registry is not None else 0))
        if span is not None:
            _write_span_context(w, span)
        if registry is not None:
            _write_registry(w, registry)
    return w.finish(_KIND_VERDICT)


def encode_shed_message(retry_after_ms: int, reason: str) -> bytes:
    """Overload rung 1: the frame was dropped; resend after the hint."""
    w = _BinWriter()
    w.uvarint(retry_after_ms)
    w.string(reason)
    return w.finish(_KIND_SHED)


def encode_error_message(message: str) -> bytes:
    """Fatal session error; the server closes after sending it."""
    w = _BinWriter()
    w.string(message)
    return w.finish(_KIND_ERROR)


def encode_bye_message() -> bytes:
    """Orderly session close (either direction)."""
    return _BinWriter().finish(_KIND_BYE)


def encode_session_ack_message(accepted: int) -> bytes:
    """Per-frame flow control: cumulative traces accepted this session."""
    w = _BinWriter()
    w.uvarint(accepted)
    return w.finish(_KIND_SESSION_ACK)


def encode_stats_subscribe_message(interval_ms: int = 0) -> bytes:
    """Client request: stream stats snapshots every ``interval_ms``.

    ``0`` asks for exactly one snapshot (the poll form ``repro stats
    --connect`` and deterministic tests use); any positive interval
    turns the session into a stats stream until the client hangs up.
    """
    w = _BinWriter()
    w.uvarint(interval_ms)
    return w.finish(_KIND_STATS_SUB)


def encode_stats_message(payload: dict) -> bytes:
    """One stats snapshot (server -> client), as canonical JSON.

    Stats are an observability payload, not a checking artifact: the
    schema evolves freely, nothing byte-sensitive consumes it, so JSON
    through the codec's string table beats hand-packing every field.
    """
    w = _BinWriter()
    w.string(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return w.finish(_KIND_STATS)


def encode_flight_request_message() -> bytes:
    """Client request: dump the daemon's flight recorder."""
    return _BinWriter().finish(_KIND_FLIGHT_REQ)


def encode_flight_message(events: List[dict]) -> bytes:
    """The flight recorder's recent structured events, as JSON."""
    w = _BinWriter()
    w.string(json.dumps(events, sort_keys=True, separators=(",", ":")))
    return w.finish(_KIND_FLIGHT)


def _read_json(r: _BinReader, what: str, expect: type) -> object:
    raw = r.string(what)
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise TraceDecodeError(f"bad {what} JSON: {exc}") from exc
    if not isinstance(payload, expect):
        raise TraceDecodeError(
            f"{what} must decode to {expect.__name__}, "
            f"got {type(payload).__name__}"
        )
    return payload


def decode_message(data) -> tuple:
    """Decode any binary message; the first element names its kind.

    Returns one of::

        ("traces", [Trace, ...])
        ("hello", tenant, {option: value, ...}, span | None)
        ("welcome", session_id, max_frame)
        ("drain", span | None)
        ("verdict", TestResult, [diagnostic, ...], span | None,
         registry | None)
        ("shed", retry_after_ms, reason)
        ("error", message)
        ("bye",)
        ("sack", accepted)
        ("stats_sub", interval_ms)
        ("stats", {payload})
        ("flight_req",)
        ("flight", [event, ...])

    Any damage, and any kind not listed, fails the whole message with
    :class:`TraceDecodeError`.
    """
    r = _BinReader(data)
    if r.kind == _KIND_TRACES:
        return ("traces", [_read_trace(r) for _ in range(r.count("trace count"))])
    if r.kind == _KIND_HELLO:
        tenant = r.string("hello tenant")
        options: Dict[str, str] = {}
        for _ in range(r.count("hello option count")):
            key = r.string("hello option key")
            options[key] = r.string("hello option value")
        return ("hello", tenant, options, _read_optional_span(r, "hello"))
    if r.kind == _KIND_WELCOME:
        return (
            "welcome",
            r.uvarint("welcome session id"),
            r.uvarint("welcome max frame"),
        )
    if r.kind == _KIND_DRAIN:
        return ("drain", _read_optional_span(r, "drain"))
    if r.kind == _KIND_VERDICT:
        result = _read_result(r)
        diagnostics = [
            r.string("verdict diagnostic")
            for _ in range(r.count("verdict diagnostic count"))
        ]
        span = None
        registry = None
        if r.remaining():
            flags = r.u8("verdict trailer flags")
            if flags > 3:
                raise TraceDecodeError(f"bad verdict trailer flags {flags}")
            if flags & 1:
                span = _read_span_context(r, "verdict")
            if flags & 2:
                registry = _read_registry(r)
        return ("verdict", result, diagnostics, span, registry)
    if r.kind == _KIND_SHED:
        return (
            "shed",
            r.uvarint("shed retry-after"),
            r.string("shed reason"),
        )
    if r.kind == _KIND_ERROR:
        return ("error", r.string("error message"))
    if r.kind == _KIND_BYE:
        return ("bye",)
    if r.kind == _KIND_SESSION_ACK:
        return ("sack", r.uvarint("session ack count"))
    if r.kind == _KIND_STATS_SUB:
        return ("stats_sub", r.uvarint("stats interval"))
    if r.kind == _KIND_STATS:
        return ("stats", _read_json(r, "stats payload", dict))
    if r.kind == _KIND_FLIGHT_REQ:
        return ("flight_req",)
    if r.kind == _KIND_FLIGHT:
        return ("flight", _read_json(r, "flight events", list))
    raise TraceDecodeError(f"unknown binary message kind {r.kind}")


class TraceRecorder:
    """A trace sink that archives instead of checking.

    Point a :class:`~repro.core.api.PMTestSession` at it (the ``sink``
    parameter) to capture traces for later offline checking::

        recorder = TraceRecorder()
        session = PMTestSession(workers=0, sink=recorder)
        ... run the program ...
        dump_traces(recorder.traces, "run.pmtrace")

    ``drain``/``close`` return an empty result — recording performs no
    checking by design.
    """

    def __init__(self) -> None:
        self.traces: List[Trace] = []

    @property
    def dispatched(self) -> int:
        return len(self.traces)

    def submit(self, trace: Trace) -> None:
        self.traces.append(trace)

    def drain(self):
        from repro.core.reports import TestResult

        return TestResult()

    def close(self):
        return self.drain()
