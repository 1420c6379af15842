"""The process backend's queue channel and the adaptive batcher.

The channel (a ``multiprocessing.Queue`` carrying pickled tuple wires)
is pure plumbing: verdicts, engine counter totals, and recovery
diagnostics must match the inline reference on the same input, with
chaos faults recovered.  The adaptive batcher must never change
results either — only how many traces share an IPC message.
"""

import pytest

from repro.core.api import PMTestSession
from repro.core.backends import (
    AdaptiveBatch,
    DEFAULT_BATCH_SIZE,
    MAX_BATCH_SIZE,
    ProcessBackend,
    make_backend,
)
from repro.core.capi import PMTest_INIT
from repro.core.events import Event, Op, Trace
from repro.core.faults import FaultKind, FaultPlan, FaultPoint, FaultRule
from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.core.traceio import encode_result
from repro.core.workers import WorkerPool
from repro.daemon import CheckingServer
from repro.pmfs.kernel import KernelBridge


def bad_trace(trace_id: int) -> Trace:
    trace = Trace(trace_id)
    trace.append(Event(Op.WRITE, trace_id * 64, 8))
    trace.append(Event(Op.CHECK_PERSIST, trace_id * 64, 8))
    return trace


def good_trace(trace_id: int) -> Trace:
    trace = Trace(trace_id)
    trace.append(Event(Op.WRITE, trace_id * 64, 8))
    trace.append(Event(Op.CLWB, trace_id * 64, 8))
    trace.append(Event(Op.SFENCE))
    trace.append(Event(Op.CHECK_PERSIST, trace_id * 64, 8))
    return trace


def mixed_traces(n: int):
    return [bad_trace(i) if i % 2 else good_trace(i) for i in range(n)]


def inline_reference(traces) -> tuple:
    with WorkerPool(num_workers=0) as pool:
        for trace in traces:
            pool.submit(trace)
        return encode_result(pool.drain())


def run_process(traces, **kwargs):
    backend = ProcessBackend(num_workers=1, **kwargs)
    try:
        for trace in traces:
            backend.submit(trace)
        return backend.drain()
    finally:
        backend.stop()


class TestTransportConfig:
    """The process backend has one channel, so there is nothing to
    configure: codec and transport knobs are refused."""

    def test_unknown_codec_rejected(self):
        """There is no codec knob to pass: the queue pickles."""
        with pytest.raises(TypeError, match="codec"):
            ProcessBackend(num_workers=1, codec="binary")
        with pytest.raises(TypeError, match="codec"):
            WorkerPool(num_workers=1, backend="process", codec="binary")

    @pytest.mark.parametrize("build", [
        lambda: ProcessBackend(num_workers=1, transport="queue"),
        lambda: make_backend("process", transport="queue"),
        lambda: WorkerPool(num_workers=1, backend="process",
                           transport="queue"),
        lambda: PMTestSession(workers=0, transport="queue"),
        lambda: PMTest_INIT(workers=0, transport="queue"),
        lambda: KernelBridge(num_workers=0, transport="queue"),
        lambda: CheckingServer(uds="/nonexistent.sock", transport="queue"),
    ], ids=["backend", "make_backend", "pool", "session", "capi",
            "bridge", "server"])
    def test_transport_knob_refused(self, build):
        """The process backend has one channel; no layer takes a
        ``transport=`` argument any more."""
        with pytest.raises(TypeError, match="transport"):
            build()


class TestAdaptiveBatch:
    def test_explicit_size_is_pinned(self):
        batch = AdaptiveBatch(3)
        assert batch.fixed
        batch.observe(backlog=1000, workers=1)
        batch.observe(backlog=0, workers=1)
        assert batch.size == 3

    def test_explicit_size_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            AdaptiveBatch(0)

    def test_adaptive_starts_at_default(self):
        batch = AdaptiveBatch()
        assert not batch.fixed
        assert batch.size == DEFAULT_BATCH_SIZE

    def test_grows_under_backpressure_to_cap(self):
        batch = AdaptiveBatch()
        for _ in range(10):
            batch.observe(backlog=100, workers=2)
        assert batch.size == MAX_BATCH_SIZE

    def test_shrinks_on_starvation_to_one(self):
        batch = AdaptiveBatch()
        for _ in range(10):
            batch.observe(backlog=0, workers=2)
        assert batch.size == 1

    def test_steady_backlog_holds(self):
        batch = AdaptiveBatch()
        batch.observe(backlog=2, workers=2)  # not > 2*workers, not 0
        assert batch.size == DEFAULT_BATCH_SIZE

    def test_recovers_after_shrink(self):
        batch = AdaptiveBatch()
        batch.observe(backlog=0, workers=1)
        assert batch.size == DEFAULT_BATCH_SIZE // 2
        batch.observe(backlog=50, workers=1)
        assert batch.size == DEFAULT_BATCH_SIZE


class TestProcessChannelEquality:
    def test_verdicts_bit_identical(self):
        traces = mixed_traces(12)
        result = run_process(traces, batch_size=3)
        assert encode_result(result) == inline_reference(traces)

    def test_adaptive_batching_matches_pinned(self):
        traces = mixed_traces(12)
        adaptive = run_process(traces)  # batch_size=None
        assert encode_result(adaptive) == inline_reference(traces)

    def test_engine_counters_identical(self):
        traces = mixed_traces(8)
        reference = MetricsRegistry(MetricsLevel.FULL)
        with WorkerPool(num_workers=0, metrics=reference) as pool:
            for trace in traces:
                pool.submit(trace)
            pool.drain()
            ref_snap = pool.metrics_snapshot()

        registry = MetricsRegistry(MetricsLevel.FULL)
        backend = ProcessBackend(num_workers=1, metrics=registry)
        try:
            for trace in traces:
                backend.submit(trace)
            backend.drain()
            merged = MetricsRegistry(MetricsLevel.FULL)
            merged.merge(registry)
            for remote in backend.metrics_registries():
                merged.merge(remote)
        finally:
            backend.stop()
        for name in ("engine.traces", "engine.events", "engine.checkers",
                     "engine.reports"):
            assert merged.counter_value(name) == ref_snap.counter_value(
                name
            ), name

    def test_worker_crash_recovery(self):
        """A crashed worker is respawned and its traces requeued."""
        traces = mixed_traces(10)
        plan = FaultPlan(
            rules=[FaultRule(FaultPoint.WORKER_BATCH, FaultKind.CRASH, at=0)]
        )
        backend = ProcessBackend(num_workers=1, batch_size=2, faults=plan)
        try:
            for trace in traces:
                backend.submit(trace)
            result = backend.drain()
        finally:
            backend.stop()
        assert encode_result(result) == inline_reference(traces)
        assert any("respawned" in d for d in result.diagnostics)


class TestZeroWireBytes:
    """Satellite: in-process backends share an address space, so their
    pipelines must move zero codec bytes."""

    @pytest.mark.parametrize("backend,workers", [("inline", 0), ("thread", 2)])
    def test_no_codec_counters(self, backend, workers):
        registry = MetricsRegistry(MetricsLevel.FULL)
        with WorkerPool(
            num_workers=workers, backend=backend, metrics=registry
        ) as pool:
            for trace in mixed_traces(6):
                pool.submit(trace)
            pool.drain()
            snapshot = pool.metrics_snapshot()
        for name, value in snapshot.counters().items():
            if name.startswith("codec."):
                assert value == 0, f"{backend} moved wire bytes: {name}"

    def test_process_backend_counts_wire_bytes(self):
        """At full metrics the process backend meters the pickled task
        batches it ships."""
        registry = MetricsRegistry(MetricsLevel.FULL)
        traces = mixed_traces(6)
        backend = ProcessBackend(num_workers=1, metrics=registry)
        try:
            for trace in traces:
                backend.submit(trace)
            backend.drain()
        finally:
            backend.stop()
        assert registry.counter_value("codec.task_bytes") > 0
        assert registry.counter_value("codec.task_traces") == len(traces)


class TestKernelBridge:
    def test_bridge_matches_inline_reference(self):
        """Traces that cross the bounded kernel FIFO (small enough to
        park the producer) check byte-identically to inline."""
        traces = mixed_traces(8)
        bridge = KernelBridge(num_workers=1, fifo_capacity=4)
        for trace in traces:
            bridge.submit(trace)
        assert encode_result(bridge.close()) == inline_reference(traces)
