"""Tests for trace serialization and offline re-checking."""

import io
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.api import PMTestSession
from repro.core.engine import CheckingEngine
from repro.core.events import Event, Op, SourceSite, Trace
from repro.core.reports import Level, Report, ReportCode, TestResult
from repro.core.rules import HOPSRules
from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.core.traceio import (
    BINARY_MAGIC,
    BINARY_VERSION,
    TraceDecodeError,
    TraceFormatError,
    TraceRecorder,
    corrupt_wire,
    decode_event,
    decode_message,
    decode_registry,
    decode_result,
    decode_trace,
    decode_trace_binary,
    decode_traces_binary,
    dump_traces,
    dump_traces_binary,
    encode_event,
    encode_registry,
    encode_result,
    encode_trace,
    encode_trace_binary,
    encode_traces_binary,
    encode_verdict_message,
    load_traces,
    load_traces_auto,
    load_traces_binary,
)


def sample_traces():
    t0 = Trace(0, thread_name="main")
    t0.append(Event(Op.WRITE, 0x10, 64, site=SourceSite("app.c", 12, "f")))
    t0.append(Event(Op.CLWB, 0x10, 64))
    t0.append(Event(Op.SFENCE))
    t0.append(Event(Op.CHECK_ORDER, 0x10, 64, 0x50, 64))
    t1 = Trace(1, thread_name="worker")
    t1.append(Event(Op.CHECK_PERSIST, 0x10, 64))
    return [t0, t1]


class TestRoundTrip:
    def test_dump_and_load(self, tmp_path):
        path = tmp_path / "run.pmtrace"
        assert dump_traces(sample_traces(), path) == 2
        loaded = load_traces(path)
        assert len(loaded) == 2
        assert loaded[0].trace_id == 0
        assert loaded[0].thread_name == "main"
        assert loaded[1].thread_name == "worker"

    def test_events_preserved(self):
        buffer = io.StringIO()
        dump_traces(sample_traces(), buffer)
        buffer.seek(0)
        [t0, t1] = load_traces(buffer)
        assert [e.op for e in t0.events] == [
            Op.WRITE, Op.CLWB, Op.SFENCE, Op.CHECK_ORDER
        ]
        assert t0.events[0].addr == 0x10
        assert t0.events[0].site == SourceSite("app.c", 12, "f")
        assert t0.events[3].addr2 == 0x50
        assert t0.events[1].site is None

    def test_seq_reassigned_on_load(self):
        buffer = io.StringIO()
        dump_traces(sample_traces(), buffer)
        buffer.seek(0)
        [t0, _] = load_traces(buffer)
        assert [e.seq for e in t0.events] == [0, 1, 2, 3]

    def test_checking_verdict_identical_after_roundtrip(self):
        traces = sample_traces()
        engine = CheckingEngine()
        direct = engine.check_traces(traces)
        buffer = io.StringIO()
        dump_traces(sample_traces(), buffer)
        buffer.seek(0)
        replayed = engine.check_traces(load_traces(buffer))
        assert [r.code for r in direct.reports] == [
            r.code for r in replayed.reports
        ]

    def test_empty_dump(self, tmp_path):
        path = tmp_path / "empty.pmtrace"
        dump_traces([], path)
        assert load_traces(path) == []


class TestFormatErrors:
    def test_missing_header(self):
        with pytest.raises(TraceFormatError):
            load_traces(io.StringIO('{"trace": 0}\n'))

    def test_wrong_version(self):
        with pytest.raises(TraceFormatError):
            load_traces(
                io.StringIO('{"format": "pmtest-trace", "version": 99}\n')
            )

    def test_event_before_trace(self):
        data = (
            '{"format": "pmtest-trace", "version": 1}\n'
            '{"op": "WRITE", "addr": 0, "size": 8}\n'
        )
        with pytest.raises(TraceFormatError):
            load_traces(io.StringIO(data))

    def test_unknown_op(self):
        data = (
            '{"format": "pmtest-trace", "version": 1}\n'
            '{"trace": 0}\n'
            '{"op": "TELEPORT", "addr": 0, "size": 8}\n'
        )
        with pytest.raises(TraceFormatError):
            load_traces(io.StringIO(data))

    def test_bad_json(self):
        with pytest.raises(TraceFormatError):
            load_traces(io.StringIO("not json\n"))


class TestRecorderWorkflow:
    def test_record_then_check_offline(self, tmp_path):
        """The offline-analysis workflow: capture now, check later —
        under a different persistency model if desired."""
        recorder = TraceRecorder()
        session = PMTestSession(workers=0, sink=recorder)
        session.thread_init()
        session.start()
        session.write(0x10, 8)
        session.sfence()  # no flush: a durability bug under x86
        session.is_persist(0x10, 8)
        session.exit()

        path = tmp_path / "captured.pmtrace"
        dump_traces(recorder.traces, path)

        offline = CheckingEngine().check_traces(load_traces(path))
        assert offline.count(ReportCode.NOT_PERSISTED) == 1

    def test_recorder_checks_nothing(self):
        recorder = TraceRecorder()
        session = PMTestSession(workers=0, sink=recorder)
        session.thread_init()
        session.start()
        session.write(0, 8)
        result = session.exit()
        assert result.clean  # nothing checked, only recorded
        assert recorder.dispatched == 1

    def test_recheck_under_different_model_rejects_foreign_ops(self):
        """A trace recorded on x86 replayed under HOPS rules raises: the
        models speak different op vocabularies."""
        from repro.core.rules.base import UnsupportedOperation

        recorder = TraceRecorder()
        session = PMTestSession(workers=0, sink=recorder)
        session.thread_init()
        session.start()
        session.write(0, 8)
        session.clwb(0, 8)
        session.exit()
        with pytest.raises(UnsupportedOperation):
            CheckingEngine(HOPSRules()).check_traces(recorder.traces)


# ----------------------------------------------------------------------
# Compact wire encoding (the process backend's IPC format)
# ----------------------------------------------------------------------
_sites = st.one_of(
    st.none(),
    st.builds(
        SourceSite,
        file=st.text(min_size=1, max_size=20),
        line=st.integers(min_value=0, max_value=10**6),
        function=st.text(max_size=12),
    ),
)

_events = st.builds(
    Event,
    op=st.sampled_from(list(Op)),
    addr=st.integers(min_value=0, max_value=2**40),
    size=st.integers(min_value=0, max_value=2**20),
    addr2=st.integers(min_value=0, max_value=2**40),
    size2=st.integers(min_value=0, max_value=2**20),
    site=_sites,
    seq=st.integers(min_value=-1, max_value=10**6),
)

_traces = st.builds(
    lambda trace_id, thread_name, events: Trace(
        trace_id, events=events, thread_name=thread_name
    ),
    trace_id=st.integers(min_value=0, max_value=2**31),
    thread_name=st.text(min_size=1, max_size=16),
    events=st.lists(_events, max_size=12),
)

_reports = st.builds(
    Report,
    level=st.sampled_from(list(Level)),
    code=st.sampled_from(list(ReportCode)),
    message=st.text(max_size=40),
    site=_sites,
    related_site=_sites,
    trace_id=st.integers(min_value=-1, max_value=2**31),
    seq=st.integers(min_value=-1, max_value=10**6),
)

_results = st.builds(
    TestResult,
    reports=st.lists(_reports, max_size=8),
    traces_checked=st.integers(min_value=0, max_value=10**6),
    events_checked=st.integers(min_value=0, max_value=10**9),
    checkers_evaluated=st.integers(min_value=0, max_value=10**6),
)


class TestWireEncoding:
    """decode(encode(x)) == x, and the wire form survives pickling."""

    @settings(max_examples=150, deadline=None)
    @given(_events)
    def test_event_roundtrip(self, event):
        wire = encode_event(event)
        assert decode_event(pickle.loads(pickle.dumps(wire))) == event

    @settings(max_examples=100, deadline=None)
    @given(_traces)
    def test_trace_roundtrip(self, trace):
        wire = encode_trace(trace)
        decoded = decode_trace(pickle.loads(pickle.dumps(wire)))
        assert decoded == trace
        # Event seq is preserved verbatim, not renumbered.
        assert [e.seq for e in decoded.events] == [
            e.seq for e in trace.events
        ]

    @settings(max_examples=100, deadline=None)
    @given(_results)
    def test_result_roundtrip(self, result):
        wire = encode_result(result)
        assert decode_result(pickle.loads(pickle.dumps(wire))) == result

    def test_wire_form_is_flat(self):
        """The encoding must stay primitive tuples (cheap to pickle)."""
        trace = Trace(3)
        trace.append(Event(Op.WRITE, 0x10, 64, site=SourceSite("a.c", 1)))
        wire = encode_trace(trace)

        def flat(obj):
            if obj is None or isinstance(obj, (int, str)):
                return True
            return isinstance(obj, tuple) and all(flat(x) for x in obj)

        assert flat(wire)


# ----------------------------------------------------------------------
# Decode-side validation: garbage on the wire fails with a *typed* error
# ----------------------------------------------------------------------
_junk = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=8),
    ),
    lambda children: st.lists(children, max_size=7).map(tuple),
    max_leaves=15,
)


class TestDecodeValidation:
    """A corrupted wire message must raise TraceDecodeError — never an
    arbitrary exception from deep inside the decoder or the engine."""

    def test_truncated_event_tuple(self):
        wire = encode_event(Event(Op.WRITE, 0x10, 64))
        with pytest.raises(TraceDecodeError, match="7-tuple"):
            decode_event(wire[:4])

    def test_unknown_op_value(self):
        wire = list(encode_event(Event(Op.WRITE, 0x10, 64)))
        wire[0] = 10**9
        with pytest.raises(TraceDecodeError, match="unknown op"):
            decode_event(tuple(wire))

    def test_bool_is_not_an_int_field(self):
        wire = list(encode_event(Event(Op.WRITE, 0x10, 64)))
        wire[1] = True
        with pytest.raises(TraceDecodeError, match="addr"):
            decode_event(tuple(wire))

    def test_malformed_site(self):
        wire = list(encode_event(Event(Op.WRITE, 0x10, 64)))
        wire[5] = ("file.c",)  # site must be (file, line, function)
        with pytest.raises(TraceDecodeError, match="site"):
            decode_event(tuple(wire))

    def test_non_string_thread_name(self):
        with pytest.raises(TraceDecodeError, match="thread name"):
            decode_trace((0, 42, ()))

    def test_result_counter_type_checked(self):
        with pytest.raises(TraceDecodeError, match="traces_checked"):
            decode_result(((), "3", 0, 0))

    def test_corrupt_wire_is_deterministic_and_typed(self):
        trace = sample_traces()[0]
        wire = encode_trace(trace)
        corrupted = corrupt_wire(wire)
        assert corrupted == corrupt_wire(wire)  # deterministic mangling
        with pytest.raises(TraceDecodeError):
            decode_trace(corrupted)

    def test_corrupt_wire_on_empty_trace(self):
        corrupted = corrupt_wire(encode_trace(Trace(0)))
        with pytest.raises(TraceDecodeError):
            decode_trace(corrupted)

    @settings(max_examples=200, deadline=None)
    @given(_junk)
    def test_event_decoder_never_raises_untyped(self, junk):
        try:
            decode_event(junk)
        except TraceDecodeError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(_junk)
    def test_trace_decoder_never_raises_untyped(self, junk):
        try:
            decode_trace(junk)
        except TraceDecodeError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(_junk)
    def test_result_decoder_never_raises_untyped(self, junk):
        try:
            decode_result(junk)
        except TraceDecodeError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(_traces, st.integers(min_value=0, max_value=6))
    def test_truncating_any_event_is_detected(self, trace, arity):
        assume(trace.events)
        wire = encode_trace(trace)
        events = (wire[2][0][:arity],) + tuple(wire[2][1:])
        with pytest.raises(TraceDecodeError):
            decode_trace((wire[0], wire[1], events))


# ----------------------------------------------------------------------
# Binary codec (the zero-copy transport's wire and disk format)
# ----------------------------------------------------------------------
def _append_built(trace_id, thread_name, events):
    """A trace built through append(), i.e. with canonical seq numbers —
    the only kind the JSON-lines format can represent losslessly."""
    trace = Trace(trace_id, thread_name=thread_name)
    for event in events:
        trace.append(event)
    return trace


#: Events as the instrumentation API produces them: an address is only
#: meaningful with a size (the JSON-lines dump elides zero-size ranges).
_ranges = st.one_of(
    st.just((0, 0)),
    st.tuples(
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=1, max_value=2**20),
    ),
)

_canonical_events = st.builds(
    lambda op, r1, r2, site: Event(op, r1[0], r1[1], r2[0], r2[1], site),
    op=st.sampled_from(list(Op)),
    r1=_ranges,
    r2=_ranges,
    site=_sites,
)

_canonical_traces = st.builds(
    _append_built,
    trace_id=st.integers(min_value=0, max_value=2**31),
    thread_name=st.text(min_size=1, max_size=16),
    events=st.lists(_canonical_events, max_size=12),
)


class TestBinaryRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(_traces)
    def test_single_trace(self, trace):
        decoded = decode_trace_binary(encode_trace_binary(trace))
        assert decoded == trace
        # seq survives verbatim, exactly like the tuple wire.
        assert [e.seq for e in decoded.events] == [
            e.seq for e in trace.events
        ]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_traces, max_size=5))
    def test_trace_batch(self, traces):
        assert decode_traces_binary(encode_traces_binary(traces)) == traces

    def test_disk_roundtrip_and_sniffing(self, tmp_path):
        traces = sample_traces()
        bin_path = tmp_path / "run.pmtb"
        json_path = tmp_path / "run.pmtrace"
        dump_traces_binary(traces, bin_path)
        dump_traces(traces, json_path)
        assert bin_path.read_bytes()[:4] == BINARY_MAGIC
        assert load_traces_binary(bin_path) == traces
        # load_traces_auto dispatches on the magic, not the extension.
        assert load_traces_auto(bin_path) == load_traces_auto(json_path)

    def test_binary_dump_is_smaller_than_json(self, tmp_path):
        traces = sample_traces()
        bin_path = tmp_path / "run.pmtb"
        json_path = tmp_path / "run.pmtrace"
        dump_traces_binary(traces, bin_path)
        dump_traces(traces, json_path)
        assert bin_path.stat().st_size < json_path.stat().st_size

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_canonical_traces, max_size=4))
    def test_differential_binary_vs_json_vs_memory(self, traces):
        """Satellite: both serializations agree with the in-memory form
        for any append-built trace (ops, sites, TX markers)."""
        binary = decode_traces_binary(encode_traces_binary(traces))
        buffer = io.StringIO()
        dump_traces(traces, buffer)
        buffer.seek(0)
        json_side = load_traces(buffer)
        assert binary == traces
        assert json_side == traces
        assert binary == json_side

    def test_golden_v1_file_decodes(self):
        """Cross-version safety net: a committed v1 binary dump must
        decode identically forever (version bumps add formats, they do
        not reinterpret old bytes)."""
        from pathlib import Path

        golden = Path(__file__).parent / "data" / "golden_v1.pmtb"
        assert load_traces_binary(golden) == sample_traces()


def retired_kind_frame(kind: int) -> bytes:
    """A well-framed message of a retired kind: empty string table and
    a zero count, which kind 2 (the old task batch) used to accept."""
    return BINARY_MAGIC + bytes([BINARY_VERSION, kind, 0, 0])


class TestRetiredMessageKinds:
    """Kinds 2-5 framed a process-backend channel that no longer
    exists; they are unassigned and must fail typed."""

    @pytest.mark.parametrize("kind", [2, 3, 4, 5])
    def test_retired_kind_is_unknown(self, kind):
        with pytest.raises(TraceDecodeError,
                           match="unknown binary message kind"):
            decode_message(retired_kind_frame(kind))


class TestBinaryCorruption:
    """Damaged binary wire fails with TraceDecodeError — never an
    IndexError/struct.error/UnicodeDecodeError from inside the reader."""

    def _payloads(self):
        traces = sample_traces()
        registry = MetricsRegistry(MetricsLevel.FULL)
        registry.counter("c").inc(2)
        registry.gauge("g").observe(5)
        registry.histogram("h").record(9)
        return [
            encode_traces_binary(traces),
            encode_verdict_message(
                TestResult(traces_checked=1), ["respawned"],
                registry=registry,
            ),
        ]

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_truncation_is_typed(self, data):
        payload = data.draw(st.sampled_from(self._payloads()))
        cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        try:
            decode_message(payload[:cut])
        except TraceDecodeError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_byte_flips_are_typed(self, data):
        payload = bytearray(data.draw(st.sampled_from(self._payloads())))
        pos = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        payload[pos] ^= flip
        try:
            decode_message(bytes(payload))
        except TraceDecodeError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=60))
    def test_arbitrary_bytes_are_typed(self, blob):
        try:
            decode_message(blob)
        except TraceDecodeError:
            pass

    def test_bad_magic(self):
        with pytest.raises(TraceDecodeError, match="magic"):
            decode_message(b"NOPE" + b"\x01\x01\x00")

    def test_future_version_rejected(self):
        data = bytearray(encode_traces_binary([]))
        data[4] = 99
        with pytest.raises(TraceDecodeError, match="version"):
            decode_message(bytes(data))


class TestFileErrorContext:
    """Satellite: errors from on-disk PMTB files carry the source path
    and the byte offset where decoding stopped."""

    def _write(self, tmp_path, data: bytes):
        path = tmp_path / "run.pmtrace"
        path.write_bytes(data)
        return path

    def test_truncated_file_reports_path_and_offset(self, tmp_path):
        payload = dump_and_read(sample_traces())
        path = self._write(tmp_path, payload[: len(payload) - 5])
        with pytest.raises(TraceFormatError) as excinfo:
            load_traces_binary(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "byte offset" in message
        assert excinfo.value.source == str(path)
        assert isinstance(excinfo.value.offset, int)
        assert 0 < excinfo.value.offset <= len(payload)

    def test_corrupt_header_reports_offset_zero_area(self, tmp_path):
        path = self._write(tmp_path, b"PMTB\x63junkjunk")
        with pytest.raises(TraceFormatError) as excinfo:
            load_traces_binary(path)
        assert str(path) in str(excinfo.value)
        assert excinfo.value.offset <= 6  # failed inside the header

    def test_lazy_auto_load_reports_path_on_iteration(self, tmp_path):
        payload = dump_and_read(sample_traces())
        path = self._write(tmp_path, payload[: len(payload) - 3])
        lazy = load_traces_auto(path)
        with pytest.raises(TraceFormatError) as excinfo:
            list(lazy)
        assert str(path) in str(excinfo.value)
        assert excinfo.value.source == str(path)
        assert excinfo.value.offset > 0

    def test_underlying_decode_error_carries_context_too(self, tmp_path):
        payload = dump_and_read(sample_traces())
        path = self._write(tmp_path, payload[:-4])
        with pytest.raises(TraceFormatError) as excinfo:
            load_traces_binary(path)
        cause = excinfo.value.__cause__
        assert isinstance(cause, TraceDecodeError)
        assert cause.source == str(path)
        assert cause.offset == excinfo.value.offset

    def test_in_memory_decode_keeps_legacy_message(self):
        # No file involved: the message must not grow a path/offset
        # prefix (wire-level callers match on the legacy text).
        payload = dump_and_read(sample_traces())
        with pytest.raises(TraceDecodeError):
            decode_message(payload[:10])


def dump_and_read(traces) -> bytes:
    return encode_traces_binary(traces)


class TestRegistryWireValidation:
    """Satellite: registry- and result-wire junk raises TraceDecodeError
    (not KeyError/IndexError), same as trace-wire."""

    @settings(max_examples=200, deadline=None)
    @given(_junk)
    def test_registry_decoder_never_raises_untyped(self, junk):
        try:
            decode_registry(junk)
        except TraceDecodeError:
            pass

    def test_unknown_metrics_level(self):
        wire = list(encode_registry(MetricsRegistry(MetricsLevel.BASIC)))
        wire[0] = "turbo"
        with pytest.raises(TraceDecodeError):
            decode_registry(tuple(wire))

    def test_short_registry_tuple(self):
        with pytest.raises(TraceDecodeError):
            decode_registry(("full",))

    @settings(max_examples=120, deadline=None)
    @given(_junk)
    def test_report_junk_inside_result_is_typed(self, junk):
        try:
            decode_result(((junk,), 0, 0, 0))
        except TraceDecodeError:
            pass
