"""End-to-end observability: every backend's registry merges to the
same engine totals, results carry deterministic metadata, and the
kernel FIFO reports its occupancy."""

import pytest

from repro.core.api import PMTestSession
from repro.core.kfifo import KernelFifo
from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.core.reports import TestResult, _merge_metadata_value
from repro.core.traceio import TraceRecorder
from repro.core.tracing import Tracer
from repro.core.workers import WorkerPool
from repro.pmfs.kernel import KernelBridge


def record_traces(n=6):
    """n identical single-thread traces with one real checker each."""
    traces = []
    for _ in range(n):
        recorder = TraceRecorder()
        session = PMTestSession(workers=0, sink=recorder)
        session.thread_init()
        session.start()
        session.write(0x10, 8)
        session.clwb(0x10, 8)
        session.sfence()
        session.is_persist(0x10, 8)
        session.exit()
        traces.extend(recorder.traces)
    return traces


def run_backend(backend, traces, workers=2):
    registry = MetricsRegistry(MetricsLevel.FULL)
    with WorkerPool(
        num_workers=workers if backend != "inline" else 0,
        backend=backend,
        metrics=registry,
    ) as pool:
        for trace in traces:
            pool.submit(trace)
        result = pool.drain()
        snapshot = pool.metrics_snapshot()
    return result, snapshot


ENGINE_COUNTERS = (
    "engine.traces",
    "engine.events",
    "engine.checkers",
    "engine.reports",
    "engine.interval_queries",
    "engine.interval_scanned",
)


class TestBackendRegistryEquivalence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_totals_match_inline_exactly(self, backend):
        traces = record_traces()
        _, inline_snap = run_backend("inline", traces)
        _, other_snap = run_backend(backend, traces)
        for name in ENGINE_COUNTERS:
            assert other_snap.counter_value(name) == inline_snap.counter_value(
                name
            ), name
        # Every submitted trace was ingested and the drain ran once.
        assert other_snap.counter_value("stage.trace_ingest.count") == len(
            traces
        )
        assert other_snap.counter_value("stage.drain.count") == 1

    def test_full_level_records_stage_nanoseconds(self):
        traces = record_traces()
        _, snap = run_backend("inline", traces)
        assert snap.counter_value("stage.shadow_update.ns") > 0
        assert snap.counter_value("stage.checker_validate.ns") > 0
        assert snap.counter_value("stage.shadow_update.count") > 0

    def test_per_opcode_histograms_exist_at_full(self):
        traces = record_traces()
        _, snap = run_backend("inline", traces)
        histograms = snap.histograms()
        assert "engine.op_ns.WRITE" in histograms
        assert histograms["engine.op_ns.WRITE"].count == len(traces)

    def test_basic_level_counts_without_clocks(self):
        traces = record_traces()
        registry = MetricsRegistry(MetricsLevel.BASIC)
        with WorkerPool(num_workers=0, metrics=registry) as pool:
            for trace in traces:
                pool.submit(trace)
            pool.drain()
            snap = pool.metrics_snapshot()
        assert snap.counter_value("engine.traces") == len(traces)
        assert snap.counter_value("engine.op.WRITE") == len(traces)
        assert snap.counter_value("stage.shadow_update.ns") == 0

    def test_snapshot_is_stable_across_calls(self):
        traces = record_traces(3)
        registry = MetricsRegistry(MetricsLevel.FULL)
        with WorkerPool(num_workers=2, backend="thread",
                        metrics=registry) as pool:
            for trace in traces:
                pool.submit(trace)
            pool.drain()
            first = pool.metrics_snapshot()
            second = pool.metrics_snapshot()
        assert first.to_dict() == second.to_dict()  # no double merging

    def test_metrics_off_means_no_snapshot(self, monkeypatch):
        monkeypatch.delenv("PMTEST_METRICS", raising=False)
        with WorkerPool(num_workers=0, metrics=None) as pool:
            for trace in record_traces(1):
                pool.submit(trace)
            pool.drain()
            assert pool.metrics_snapshot() is None


class TestResultMetadata:
    def test_result_names_its_backend(self):
        traces = record_traces(2)
        for backend in ("inline", "thread"):
            result, _ = run_backend(backend, traces)
            assert result.metadata["backend"] == backend
            assert result.metadata["degraded"] is False

    def test_merge_is_order_independent(self):
        def results():
            a = TestResult(traces_checked=1, metadata={"backend": "thread"})
            b = TestResult(
                traces_checked=2, metadata={"backend": "thread", "n": 3}
            )
            return a, b

        a1, b1 = results()
        a1.merge(b1)
        a2, b2 = results()
        b2.merge(a2)
        assert a1.metadata == b2.metadata
        assert a1.metadata == {"backend": "thread", "n": 3}

    def test_value_rules(self):
        assert _merge_metadata_value(True, False) is True
        assert _merge_metadata_value(False, False) is False
        assert _merge_metadata_value(2, 3) == 5
        assert _merge_metadata_value([2], [1]) == [1, 2]
        assert _merge_metadata_value({"a": 1}, {"a": 2, "b": True}) == {
            "a": 3,
            "b": True,
        }
        assert _merge_metadata_value("x", "x") == "x"
        # conflicting scalars resolve by value ordering, not arrival order
        assert _merge_metadata_value("b", "a") == "a"
        assert _merge_metadata_value("a", "b") == "a"


class TestKernelFifoMetrics:
    def test_put_get_counters_and_occupancy(self):
        registry = MetricsRegistry(MetricsLevel.FULL)
        fifo = KernelFifo(capacity=4, metrics=registry)
        fifo.put("a")
        fifo.put("b")
        assert fifo.get() == "a"
        assert registry.counter_value("kfifo.puts") == 2
        assert registry.counter_value("kfifo.gets") == 1
        occupancy = registry.histograms()["kfifo.occupancy"]
        assert occupancy.count == 2
        assert occupancy.vmax == 2

    def test_kernel_bridge_snapshot_includes_fifo(self):
        registry = MetricsRegistry(MetricsLevel.FULL)
        bridge = KernelBridge(num_workers=0, metrics=registry)
        try:
            for trace in record_traces(2):
                bridge.submit(trace)
            result = bridge.drain()
        finally:
            bridge.close()
        snap = bridge.metrics_snapshot()
        assert result.traces_checked == 2
        assert snap.counter_value("kfifo.puts") == 2
        assert snap.counter_value("kfifo.gets") == 2
        assert snap.counter_value("engine.traces") == 2


class TestSessionPlumbing:
    def test_session_exposes_merged_snapshot(self):
        registry = MetricsRegistry(MetricsLevel.FULL)
        session = PMTestSession(workers=0, metrics=registry)
        session.thread_init()
        session.start()
        session.write(0x10, 8)
        session.clwb(0x10, 8)
        session.sfence()
        session.is_persist(0x10, 8)
        result = session.exit()
        assert result.traces_checked == 1
        snap = session.metrics_snapshot()
        assert snap is not None
        assert snap.counter_value("engine.traces") == 1

    def test_tracer_sees_submit_and_drain(self):
        tracer = Tracer(strict=True)
        registry = MetricsRegistry(MetricsLevel.BASIC)
        with WorkerPool(num_workers=0, metrics=registry,
                        tracer=tracer) as pool:
            for trace in record_traces(2):
                pool.submit(trace)
            pool.drain()
        tracer.finish()
        names = [e["name"] for e in tracer.events()]
        assert names.count("submit") == 2
        assert "drain" in names
