"""Differential suite: the array shadow never changes a verdict.

The contract under test (DESIGN.md §14): ``--shadow array`` is a pure
performance knob.  For any trace — well-formed or structurally invalid
— an engine running the array-backed interval store produces the same
wire-encoded :class:`TestResult`, the same counter fields (including
``engine.interval_queries``/``engine.interval_scanned``), and the same
exceptions as the object store, across both engines, every backend,
verdict-cache configuration, epoch sharding, and chaos fault plans.  The replay fast paths this pins down:

* batched sort-and-sweep write runs through ``assign_codes_many``,
* the code-level silent/fused flush (``update_codes`` + flush memo),
* the batched ``isPersist`` pre-test (fall-through on failure),
* shard prefix replay and deterministic shard merge.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine_columnar import ENGINE_NAMES, make_engine
from repro.core.events import Event, Op, SourceSite, Trace
from repro.core.faults import FaultKind, FaultPlan, FaultPoint, FaultRule
from repro.core.interval_array import SHADOW_ENV_VAR, SHADOW_NAMES
from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.core.rules import X86Rules
from repro.core.traceio import encode_result
from repro.core.workers import WorkerPool

# ----------------------------------------------------------------------
# Trace generation (same shape space as the engine differential)
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
    """Random events over a small, colliding address window, so write
    runs, duplicate flushes, wide flushes over many segments and
    failing persists all actually occur."""
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
    try:
        result = engine.check_trace(trace)
    except Exception as exc:  # noqa: BLE001 - compared across shadows
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


class TestShadowDifferential:
    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    @given(_events())
    @settings(max_examples=150, deadline=None)
    def test_verdicts_and_counters_identical(self, engine_name, events):
        outs = [
            _outcome(
                make_engine(engine_name, X86Rules(), shadow=shadow),
                _trace(events),
            )
            for shadow in SHADOW_NAMES
        ]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    @given(_events(allow_invalid=False))
    @settings(max_examples=60, deadline=None)
    def test_full_metrics_counters_identical(self, engine_name, events):
        """Interval-query depth accounting survives the swap: every
        non-clock counter — op counts, stage counts,
        ``engine.interval_queries``/``engine.interval_scanned`` — must
        agree; only nanosecond totals may differ."""
        snaps = []
        for shadow in SHADOW_NAMES:
            registry = MetricsRegistry(MetricsLevel.FULL)
            engine = make_engine(engine_name, X86Rules(), registry,
                                 shadow=shadow)
            engine.check_trace(_trace(events))
            snaps.append({
                name: value
                for name, value in registry.counters().items()
                if not name.endswith(".ns")
            })
        assert snaps[0] == snaps[1]
        assert "engine.interval_queries" in snaps[0]


# ----------------------------------------------------------------------
# Pool-level matrix: engine x backend x cache (+ chaos)
# ----------------------------------------------------------------------


def _corpus():
    """Mixed corpus with interval-heavy epochs: batched write runs,
    wide flushes spanning several segments, passing and failing
    persists, transactions and checker scopes."""
    traces = []
    for i in range(6):
        trace = Trace(i)
        seq = 0
        base = (i % 3) * 0x40 + 0x1000

        def emit(op, *args, site=None):
            nonlocal seq
            trace.append(Event(op, *args, site=site, seq=seq))
            seq += 1

        emit(Op.TX_CHECK_START)
        emit(Op.TX_BEGIN)
        emit(Op.TX_ADD, base, 0x40)
        for k in range(12):  # an epoch-sized write run
            emit(Op.WRITE, base + k * 4, 4,
                 site=SourceSite("kv.c", k, "put"))
        emit(Op.CLWB, base, 0x30)  # wide flush over many segments
        if i % 2 == 0:
            emit(Op.SFENCE)
        for k in range(0, 12, 3):
            emit(Op.CHECK_PERSIST, base + k * 4, 4)
        emit(Op.TX_END)
        emit(Op.TX_CHECK_END)
        traces.append(trace)
    return traces


_POOL_CONFIGS = [
    pytest.param({"num_workers": 0}, id="inline"),
    pytest.param({"num_workers": 2, "backend": "thread"}, id="thread"),
    pytest.param({"num_workers": 2, "backend": "process"}, id="process"),
]


class TestPoolMatrixDifferential:
    @pytest.mark.parametrize("config", _POOL_CONFIGS)
    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    @pytest.mark.parametrize("cache", [False, True],
                             ids=["cache-off", "cache-on"])
    def test_verdicts_and_merged_counters_identical(
        self, config, engine_name, cache
    ):
        traces = _corpus()
        wires = []
        counters = []
        for shadow in SHADOW_NAMES:
            registry = MetricsRegistry(MetricsLevel.BASIC)
            with WorkerPool(metrics=registry, verdict_cache=cache,
                            engine=engine_name, shadow=shadow,
                            **config) as pool:
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

    def test_chaos_row_identical(self):
        """Worker crashes and requeues must stay invisible: the array
        shadow run under a crash plan equals the clean object run."""
        plan = FaultPlan([
            FaultRule(FaultPoint.WORKER_BATCH, FaultKind.CRASH,
                      worker=0, at=1),
        ])
        traces = _corpus()
        with WorkerPool(num_workers=0, engine="columnar",
                        shadow="object") as ref:
            for trace in traces:
                ref.submit(trace)
            want = encode_result(ref.drain())
        with WorkerPool(num_workers=2, backend="thread", engine="columnar",
                        shadow="array", faults=plan) as pool:
            for trace in _corpus():
                pool.submit(trace)
            got = encode_result(pool.drain())
        assert got == want

    @pytest.mark.parametrize("workers", [2, 4])
    def test_epoch_sharded_merge_identical(self, workers):
        """Shard prefix replay + deterministic merge under the array
        shadow == unsharded object-shadow replay, byte for byte."""
        big = Trace(1)
        seq = 0
        for e in range(40):
            base = 0x1000 + (e % 8) * 0x40
            for k in range(8):
                big.append(Event(Op.WRITE, base + k * 4, 4, seq=seq))
                seq += 1
            big.append(Event(Op.CLWB, base, 0x20, seq=seq)); seq += 1
            if e % 4 != 0:
                big.append(Event(Op.SFENCE, seq=seq)); seq += 1
            big.append(Event(Op.CHECK_PERSIST, base, 0x20, seq=seq)); seq += 1

        def run(shadow, **kw):
            pool = WorkerPool(engine="columnar", shadow=shadow, **kw)
            try:
                pool.submit(Trace(1, events=list(big.events)))
                return encode_result(pool.drain())
            finally:
                pool._backend.stop()

        want = run("object", num_workers=0)
        got = run("array", num_workers=workers, backend="thread",
                  shard_min_events=1)
        assert got == want


# ----------------------------------------------------------------------
# Knob plumbing
# ----------------------------------------------------------------------


class TestShadowPlumbing:
    def test_pool_reports_resolved_shadow(self, monkeypatch):
        monkeypatch.setenv(SHADOW_ENV_VAR, "array")
        with WorkerPool(num_workers=0) as pool:
            assert pool.shadow_name == "array"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(SHADOW_ENV_VAR, "array")
        with WorkerPool(num_workers=0, shadow="object") as pool:
            assert pool.shadow_name == "object"

    def test_unknown_shadow_rejected(self):
        with pytest.raises(ValueError, match="unknown shadow"):
            WorkerPool(num_workers=0, shadow="simd")

    def test_cli_exposes_shadow_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["check", "--help"])
        assert "--shadow" in capsys.readouterr().out
