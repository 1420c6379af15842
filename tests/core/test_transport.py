"""Cross-transport equivalence and the adaptive batcher.

The transport (queue vs shm) and the wire codec it implies (pickle vs
binary) are pure plumbing: verdicts, engine counter totals, and
recovery diagnostics must be identical across both on the same input,
with chaos faults recovered the same way.  The adaptive batcher
must never change results either — only how many traces share an IPC
message.
"""

import multiprocessing
import time

import pytest

from repro.core.backends import (
    AdaptiveBatch,
    CheckingFailed,
    DEFAULT_BATCH_SIZE,
    MAX_BATCH_SIZE,
    ProcessBackend,
    resolve_transport_name,
)
from repro.core.events import Event, Op, Trace
from repro.core.faults import FaultKind, FaultPlan, FaultPoint, FaultRule
from repro.core.kfifo import FifoClosed, ShmKernelFifo
from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.core.traceio import encode_result
from repro.core.workers import WorkerPool
from repro.pmfs.kernel import KernelBridge

#: Every transport with the wire codec it implies.
COMBOS = [("queue", "pickle"), ("shm", "binary")]


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


def run_combo(traces, transport, codec, *, metrics=None, **kwargs):
    backend = ProcessBackend(
        num_workers=kwargs.pop("num_workers", 1),
        transport=transport,
        metrics=metrics,
        **kwargs,
    )
    assert backend.codec == codec
    try:
        for trace in traces:
            backend.submit(trace)
        return backend.drain()
    finally:
        backend.stop()


class TestTransportConfig:
    def test_default_is_queue(self, monkeypatch):
        monkeypatch.delenv("PMTEST_TRANSPORT", raising=False)
        assert resolve_transport_name(None) == "queue"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("PMTEST_TRANSPORT", "shm")
        assert resolve_transport_name(None) == "shm"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("PMTEST_TRANSPORT", "shm")
        assert resolve_transport_name("queue") == "queue"

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            resolve_transport_name("carrier-pigeon")

    def test_shm_requires_binary_codec(self):
        """The codec is derived from the transport and read-only."""
        backend = ProcessBackend(num_workers=1, transport="shm")
        try:
            assert backend.codec == "binary"
            with pytest.raises(AttributeError):
                backend.codec = "pickle"
        finally:
            backend.stop()

    def test_unknown_codec_rejected(self):
        """There is no codec knob to pass: the transport picks it."""
        with pytest.raises(TypeError, match="codec"):
            ProcessBackend(num_workers=1, codec="binary")
        with pytest.raises(TypeError, match="codec"):
            WorkerPool(num_workers=1, backend="process", codec="binary")

    def test_native_codec_defaults(self, monkeypatch):
        monkeypatch.delenv("PMTEST_TRANSPORT", raising=False)
        queue_backend = ProcessBackend(num_workers=1)
        try:
            assert queue_backend.transport == "queue"
            assert queue_backend.codec == "pickle"
        finally:
            queue_backend.stop()
        shm_backend = ProcessBackend(num_workers=1, transport="shm")
        try:
            assert shm_backend.codec == "binary"
        finally:
            shm_backend.stop()

    def test_pool_transport_property(self):
        with WorkerPool(num_workers=0) as pool:
            pool.drain()
            assert pool.transport == "queue"  # inline never ships bytes


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


class TestCrossTransportEquality:
    @pytest.mark.parametrize("transport,codec", COMBOS)
    def test_verdicts_bit_identical(self, transport, codec):
        traces = mixed_traces(12)
        result = run_combo(traces, transport, codec, batch_size=3)
        assert encode_result(result) == inline_reference(traces)

    @pytest.mark.parametrize("transport,codec", COMBOS)
    def test_adaptive_batching_matches_pinned(self, transport, codec):
        traces = mixed_traces(12)
        adaptive = run_combo(traces, transport, codec)  # batch_size=None
        assert encode_result(adaptive) == inline_reference(traces)

    @pytest.mark.parametrize("transport,codec", COMBOS)
    def test_engine_counters_identical(self, transport, codec):
        traces = mixed_traces(8)
        reference = MetricsRegistry(MetricsLevel.FULL)
        with WorkerPool(num_workers=0, metrics=reference) as pool:
            for trace in traces:
                pool.submit(trace)
            pool.drain()
            ref_snap = pool.metrics_snapshot()

        registry = MetricsRegistry(MetricsLevel.FULL)
        backend = ProcessBackend(
            num_workers=1, transport=transport, metrics=registry
        )
        assert backend.codec == codec
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

    @pytest.mark.parametrize("transport,codec", COMBOS)
    def test_worker_crash_recovery(self, transport, codec):
        """A crashed worker is respawned and its traces requeued the
        same way on every transport."""
        traces = mixed_traces(10)
        plan = FaultPlan(
            rules=[FaultRule(FaultPoint.WORKER_BATCH, FaultKind.CRASH, at=0)]
        )
        backend = ProcessBackend(
            num_workers=1,
            batch_size=2,
            transport=transport,
            faults=plan,
        )
        assert backend.codec == codec
        try:
            for trace in traces:
                backend.submit(trace)
            result = backend.drain()
        finally:
            backend.stop()
        assert encode_result(result) == inline_reference(traces)
        assert any("respawned" in d for d in result.diagnostics)

    def test_corrupt_wire_fails_typed_under_shm(self):
        """The CORRUPT chaos fault has a binary-codec spelling (a poison
        opcode) that must surface exactly like the tuple truncation."""
        plan = FaultPlan(
            rules=[FaultRule(FaultPoint.WIRE_ENCODE, FaultKind.CORRUPT, at=0)]
        )
        pool = WorkerPool(
            num_workers=1,
            backend="process",
            transport="shm",
            batch_size=1,
            faults=plan,
        )
        try:
            for trace in mixed_traces(3):
                pool.submit(trace)
            with pytest.raises(CheckingFailed, match="TraceDecodeError"):
                pool.drain()
        finally:
            pool._backend.stop()


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

    def test_binary_codec_counts_wire_bytes(self):
        registry = MetricsRegistry(MetricsLevel.FULL)
        traces = mixed_traces(6)
        backend = ProcessBackend(
            num_workers=1, transport="shm", metrics=registry
        )
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
        assert merged.counter_value("codec.task_bytes") > 0
        assert merged.counter_value("codec.task_traces") == len(traces)
        assert merged.counter_value("codec.result_bytes") > 0
        # Workers saw exactly what the submitter shipped.
        assert merged.counter_value("codec.worker_task_bytes") == (
            merged.counter_value("codec.task_bytes")
        )


class TestShmKernelFifo:
    def test_traces_roundtrip(self):
        fifo = ShmKernelFifo(capacity=16)
        try:
            traces = mixed_traces(5)
            for trace in traces:
                fifo.put(trace)
            assert len(fifo) == 5
            assert [fifo.get() for _ in range(5)] == traces
        finally:
            fifo.release()

    def test_byte_space_parks_producer(self):
        """A ring too small for the outstanding records parks the
        producer even though the entry budget has room."""
        fifo = ShmKernelFifo(capacity=1024, ring_bytes=64)
        try:
            fifo.put(good_trace(0))
            with pytest.raises(TimeoutError):
                fifo.put(good_trace(1), timeout=0.05)
            fifo.get()
            fifo.put(good_trace(1), timeout=1.0)  # freed bytes admit it
        finally:
            fifo.release()

    def test_close_wakes_parked_producer(self):
        import threading

        fifo = ShmKernelFifo(capacity=1024, ring_bytes=64)
        fifo.put(good_trace(0))

        def close_soon():
            time.sleep(0.05)
            fifo.close()

        t = threading.Thread(target=close_soon)
        t.start()
        with pytest.raises(FifoClosed):
            fifo.put(good_trace(1), timeout=5.0)
        t.join()
        fifo.release()

    def test_oversized_trace_fails_fast(self):
        fifo = ShmKernelFifo(capacity=4, ring_bytes=32)
        try:
            big = Trace(0)
            for i in range(16):
                big.append(Event(Op.WRITE, i * 64, 8))
            with pytest.raises(ValueError, match="cannot fit"):
                fifo.put(big)
        finally:
            fifo.release()

    def test_bridge_end_to_end_matches_queue_bridge(self):
        traces = mixed_traces(8)
        results = []
        for transport in ("queue", "shm"):
            bridge = KernelBridge(
                num_workers=1, transport=transport, fifo_capacity=4
            )
            for trace in traces:
                bridge.submit(trace)
            results.append(encode_result(bridge.close()))
        assert results[0] == results[1]
        assert results[0] == inline_reference(traces)
