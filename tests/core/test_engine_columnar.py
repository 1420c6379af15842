"""Differential suite: the columnar engine never changes a verdict.

The contract under test (DESIGN.md §10): ``--engine columnar`` is a
pure performance knob.  For any trace — well-formed or structurally
invalid — the columnar engine produces the same wire-encoded
:class:`TestResult` (reports in the same order with the same messages),
the same counter fields, the same merged metrics, and the same
exceptions as the object engine, across every backend and
verdict-cache configuration.  The replay fast paths this pins down:

* inline write / write+writeback fusion / flush / sfence dispatch,
* the inline ``isPersist`` pass path (fall-through on failure),
* epoch-batched sort-and-sweep write runs,
* columnar dead-write coalescing and canonical fingerprints.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import ColumnarTrace
from repro.core.engine import CheckingEngine
from repro.core.engine_columnar import (
    ENGINE_ENV_VAR,
    ENGINE_NAMES,
    ColumnarCheckingEngine,
    make_engine,
    resolve_engine_name,
)
from repro.core.events import Event, Op, SourceSite, Trace
from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.core.rules import X86Rules
from repro.core.traceio import encode_result
from repro.core.workers import WorkerPool

# ----------------------------------------------------------------------
# Trace generation
# ----------------------------------------------------------------------

_SITES = [
    None,
    SourceSite("alloc.c", 41, "alloc"),
    SourceSite("log.c", 7, "append"),
]

_WRITES = [Op.WRITE, Op.WRITE_NT]
_FLUSHES = [Op.CLWB, Op.CLFLUSHOPT, Op.CLFLUSH]


@st.composite
def _events(draw, allow_invalid: bool = True):
    """Random event list over a small address window.

    Sizes may be zero (structurally invalid — both engines must raise
    the same ``ValueError``), transactions and checker scopes are kept
    balanced, and addresses collide aggressively so that dead writes,
    duplicate flushes, unnecessary writebacks and failing persists all
    actually occur.
    """
    n = draw(st.integers(min_value=1, max_value=28))
    min_size = 0 if allow_invalid else 1
    events = []
    tx_depth = 0
    tx_check = False
    for seq in range(n):
        kind = draw(st.integers(min_value=0, max_value=9))
        site = draw(st.sampled_from(_SITES))
        addr = 0x1000 + draw(st.integers(min_value=0, max_value=96))
        size = draw(st.integers(min_value=min_size, max_value=24))
        if kind <= 2:
            op = draw(st.sampled_from(_WRITES))
            events.append(Event(op, addr, size, site=site, seq=seq))
        elif kind == 3:
            op = draw(st.sampled_from(_FLUSHES))
            events.append(Event(op, addr, size, site=site, seq=seq))
        elif kind == 4:
            events.append(Event(Op.SFENCE, site=site, seq=seq))
        elif kind == 5:
            events.append(Event(Op.CHECK_PERSIST, addr, size, site=site,
                                seq=seq))
        elif kind == 6:
            addr2 = 0x1000 + draw(st.integers(min_value=0, max_value=96))
            size2 = draw(st.integers(min_value=min_size, max_value=24))
            events.append(Event(Op.CHECK_ORDER, addr, size, addr2, size2,
                                site=site, seq=seq))
        elif kind == 7:
            if tx_depth and draw(st.booleans()):
                events.append(Event(Op.TX_END, site=site, seq=seq))
                tx_depth -= 1
            else:
                events.append(Event(Op.TX_BEGIN, site=site, seq=seq))
                tx_depth += 1
        elif kind == 8:
            op = draw(st.sampled_from([Op.TX_ADD, Op.EXCLUDE, Op.INCLUDE]))
            events.append(Event(op, addr, max(size, 1), site=site, seq=seq))
        else:
            if tx_check:
                events.append(Event(Op.TX_CHECK_END, site=site, seq=seq))
                tx_check = False
            else:
                events.append(Event(Op.TX_CHECK_START, site=site, seq=seq))
                tx_check = True
    seq = n
    if tx_check:
        events.append(Event(Op.TX_CHECK_END, seq=seq))
        seq += 1
    while tx_depth:
        events.append(Event(Op.TX_END, seq=seq))
        seq += 1
        tx_depth -= 1
    return events


def _trace(events, trace_id=7):
    trace = Trace(trace_id)
    for event in events:
        trace.append(event)
    return trace


def _outcome(engine, trace):
    """Wire-encoded result, or the exception the replay raised."""
    try:
        result = engine.check_trace(trace)
    except Exception as exc:  # noqa: BLE001 - compared across engines
        return type(exc).__name__, str(exc)
    return (
        encode_result(result),
        result.traces_checked,
        result.events_checked,
        result.checkers_evaluated,
    )


# ----------------------------------------------------------------------
# Properties: engine-level equivalence
# ----------------------------------------------------------------------


class TestEngineDifferential:
    @given(_events())
    @settings(max_examples=200, deadline=None)
    def test_verdicts_and_counters_identical(self, events):
        obj = _outcome(CheckingEngine(X86Rules()), _trace(events))
        col = _outcome(ColumnarCheckingEngine(X86Rules()), _trace(events))
        assert obj == col

    @given(_events())
    @settings(max_examples=100, deadline=None)
    def test_columnar_input_form_is_irrelevant(self, events):
        """Checking a pre-built ColumnarTrace equals checking the Trace."""
        via_trace = _outcome(ColumnarCheckingEngine(X86Rules()),
                             _trace(events))
        via_cols = _outcome(ColumnarCheckingEngine(X86Rules()),
                            ColumnarTrace.from_trace(_trace(events)))
        assert via_trace == via_cols

    @given(_events(allow_invalid=False))
    @settings(max_examples=100, deadline=None)
    def test_basic_metrics_counters_identical(self, events):
        snaps = []
        for engine_name in ENGINE_NAMES:
            registry = MetricsRegistry(MetricsLevel.BASIC)
            engine = make_engine(engine_name, X86Rules(), registry)
            engine.check_trace(_trace(events))
            snaps.append(registry.counters())
        assert snaps[0] == snaps[1]

    @given(_events(allow_invalid=False))
    @settings(max_examples=60, deadline=None)
    def test_full_metrics_counters_identical(self, events):
        """Full level replays through the shared per-event loop: every
        non-clock counter (op counts, stage counts, interval-query
        stats) must agree; only nanosecond totals may differ."""
        snaps = []
        for engine_name in ENGINE_NAMES:
            registry = MetricsRegistry(MetricsLevel.FULL)
            engine = make_engine(engine_name, X86Rules(), registry)
            engine.check_trace(_trace(events))
            snaps.append({
                name: value
                for name, value in registry.counters().items()
                if not name.endswith(".ns")
            })
        assert snaps[0] == snaps[1]


# ----------------------------------------------------------------------
# Deterministic fast-path regressions
# ----------------------------------------------------------------------


def _pair_outcomes(events):
    obj = _outcome(CheckingEngine(X86Rules()), _trace(events))
    col = _outcome(ColumnarCheckingEngine(X86Rules()), _trace(events))
    return obj, col


class TestFastPathRegressions:
    """Hand-picked shapes for each inlined columnar path."""

    def test_fused_write_clwb_persists(self):
        events = [
            Event(Op.WRITE, 0x100, 8, seq=0),
            Event(Op.CLWB, 0x100, 8, seq=1),
            Event(Op.SFENCE, seq=2),
            Event(Op.CHECK_PERSIST, 0x100, 8, seq=3),
        ]
        obj, col = _pair_outcomes(events)
        assert obj == col
        assert col[0] == encode_result(
            CheckingEngine(X86Rules()).check_trace(_trace(events))
        )

    def test_second_flush_after_fused_pair_is_duplicate(self):
        events = [
            Event(Op.WRITE, 0x100, 8, seq=0),
            Event(Op.CLWB, 0x100, 8, seq=1),
            Event(Op.CLWB, 0x100, 8, seq=2),
        ]
        obj, col = _pair_outcomes(events)
        assert obj == col

    def test_nt_write_then_flush_not_fused(self):
        # WRITE_NT opens its own flush interval; a following writeback
        # is a duplicate, which the fused pair must not swallow.
        events = [
            Event(Op.WRITE_NT, 0x100, 8, seq=0),
            Event(Op.CLWB, 0x100, 8, seq=1),
        ]
        obj, col = _pair_outcomes(events)
        assert obj == col

    def test_mismatched_ranges_not_fused(self):
        # The writeback covers more than the write: the excess bytes
        # are an unnecessary-flush warning in both engines.
        events = [
            Event(Op.WRITE, 0x100, 8, seq=0),
            Event(Op.CLWB, 0x100, 16, seq=1),
        ]
        obj, col = _pair_outcomes(events)
        assert obj == col

    def test_persist_failure_falls_through(self):
        # No fence: the persist interval is open, the inline pass path
        # must defer to the full checker for the FAIL report.
        events = [
            Event(Op.WRITE, 0x100, 8, seq=0),
            Event(Op.CLWB, 0x100, 8, seq=1),
            Event(Op.CHECK_PERSIST, 0x100, 8, seq=2),
        ]
        obj, col = _pair_outcomes(events)
        assert obj == col

    def test_partially_persistent_check_falls_through(self):
        events = [
            Event(Op.WRITE, 0x100, 16, seq=0),
            Event(Op.CLWB, 0x100, 8, seq=1),
            Event(Op.SFENCE, seq=2),
            Event(Op.CHECK_PERSIST, 0x100, 16, seq=3),
        ]
        obj, col = _pair_outcomes(events)
        assert obj == col

    def test_zero_size_events_raise_identically(self):
        for op in (Op.WRITE, Op.CLWB, Op.CHECK_PERSIST):
            obj, col = _pair_outcomes([Event(op, 0x100, 0, seq=0)])
            assert obj == col
            assert obj[0] == "ValueError"


# ----------------------------------------------------------------------
# Pool-level matrix: backends x verdict cache
# ----------------------------------------------------------------------


def _corpus():
    """A small mixed corpus: passes, failures, warnings, transactions."""
    traces = []
    for i in range(8):
        trace = Trace(i)
        base = (i % 4) * 0x40 + 0x1000
        trace.append(Event(Op.TX_CHECK_START, seq=0))
        trace.append(Event(Op.TX_BEGIN, seq=1))
        trace.append(Event(Op.TX_ADD, base, 0x20, seq=2))
        trace.append(Event(Op.WRITE, base, 8,
                           site=SourceSite("kv.c", i, "put"), seq=3))
        trace.append(Event(Op.WRITE, base, 8, seq=4))  # dead write
        trace.append(Event(Op.CLWB, base, 8, seq=5))
        if i % 2 == 0:
            trace.append(Event(Op.SFENCE, seq=6))
        trace.append(Event(Op.CHECK_PERSIST, base, 8, seq=7))
        trace.append(Event(Op.TX_END, seq=8))
        trace.append(Event(Op.TX_CHECK_END, seq=9))
        traces.append(trace)
    return traces


_POOL_CONFIGS = [
    pytest.param({"num_workers": 0}, id="inline"),
    pytest.param({"num_workers": 2, "backend": "thread"}, id="thread"),
    pytest.param({"num_workers": 2, "backend": "process"}, id="process"),
]


class TestPoolMatrixDifferential:
    @pytest.mark.parametrize("config", _POOL_CONFIGS)
    @pytest.mark.parametrize("cache", [False, True],
                             ids=["cache-off", "cache-on"])
    def test_verdicts_and_merged_counters_identical(self, config, cache):
        traces = _corpus()
        wires = []
        counters = []
        for engine_name in ENGINE_NAMES:
            registry = MetricsRegistry(MetricsLevel.BASIC)
            with WorkerPool(metrics=registry, verdict_cache=cache,
                            engine=engine_name, **config) as pool:
                for trace in traces:
                    pool.submit(trace)
                result = pool.drain()
                snap = pool.metrics_snapshot()
            wires.append(encode_result(result))
            counters.append({
                name: value
                for name, value in snap.counters().items()
                if name.startswith("engine.")
            })
        assert wires[0] == wires[1]
        assert counters[0] == counters[1]
        assert counters[0].get("engine.traces") == len(traces)


# ----------------------------------------------------------------------
# Engine selection plumbing
# ----------------------------------------------------------------------


class TestEngineSelection:
    def test_default_is_object(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert resolve_engine_name(None) == "object"
        assert isinstance(make_engine(None, X86Rules()), CheckingEngine)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "columnar")
        assert resolve_engine_name(None) == "columnar"
        engine = make_engine(None, X86Rules())
        assert isinstance(engine, ColumnarCheckingEngine)

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "columnar")
        assert resolve_engine_name("object") == "object"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine_name("simd")

    def test_pool_reports_resolved_engine(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "columnar")
        with WorkerPool(num_workers=0) as pool:
            assert pool.engine_name == "columnar"
