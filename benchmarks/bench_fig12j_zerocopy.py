"""Figure 12j: zero-copy shard dispatch ablation.

The zero-copy shard plane (DESIGN.md §13) changes *how* epoch shards
reach process workers: instead of re-encoding each shard's columns into
the tuple wire and copying the payload through the task queue, the
submitter lays the trace out once in a shared-memory column arena and
ships an O(1) descriptor per shard.  This module measures exactly that
delta on the fig12h-shaped workload (a few large multi-epoch traces,
process backend):

* ``payload`` row — arena building disabled (the pre-arena behaviour:
  every shard re-encoded and copied through the queue);
* ``arena`` row — the default zero-copy dispatch;
* a deterministic wire-byte check: descriptor bytes per shard must not
  grow with trace size (the O(1) claim, asserted via the codec byte
  counters, so it holds on any host);
* the scaling gate: 4-worker sharded process throughput vs the
  1-worker serial drain, compared against the committed fig12h
  baseline ratio (``benchmarks/results/fig12_backends.json``).
"""

import json
import os
from pathlib import Path

import pytest

from _harness import (
    RESULTS,
    ZEROCOPY,
    env_int,
    make_checking_traces,
    pedantic,
    record,
)
from repro.core.column_arena import ArenaOverflow
from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.core.workers import WorkerPool
import repro.core.workers as workers_mod

#: the fig12h sharded shape: few large traces, so sharding dominates
N_TRACES = 8
TX_PER_TRACE = 400
DISPATCH_MODES = ("payload", "arena")

#: committed baseline for the scaling gate
BASELINE_JSON = Path(__file__).parent / "results" / "fig12_backends.json"


def _fail_build(cols):
    raise ArenaOverflow("fig12j payload-dispatch ablation")


def prepare_shard_drain(n_workers: int, dispatch: str = "arena"):
    """Timed body: drain the sharded workload through the process
    backend.

    ``dispatch='payload'`` disables arena building (shards take the
    overflow fallback: re-encode + copy), isolating the zero-copy
    delta with everything else — engine, channel, shard boundaries —
    held fixed.
    """
    n_traces = env_int("PMTEST_BENCH_TRACES", N_TRACES)
    traces = make_checking_traces(n_traces, tx_per_trace=TX_PER_TRACE)
    pool = WorkerPool(
        num_workers=n_workers,
        backend="process",
        engine="columnar",
        shard_min_events=1,
    )
    original = workers_mod.build_arena

    def execute() -> None:
        if dispatch == "payload":
            workers_mod.build_arena = _fail_build
        try:
            for trace in traces:
                pool.submit(trace)
            result = pool.drain()
            assert result.traces_checked == len(traces)
        finally:
            workers_mod.build_arena = original
            pool.close()

    return execute


@pytest.mark.parametrize("dispatch", DISPATCH_MODES)
def test_fig12j_dispatch_ablation(benchmark, bench_rounds, dispatch):
    """Payload-shipping vs arena-descriptor shard dispatch, 4 workers."""
    pedantic(
        benchmark,
        bench_rounds,
        lambda: prepare_shard_drain(4, dispatch=dispatch),
    )
    record("fig12j", (dispatch,), benchmark)


@pytest.mark.parametrize("workers", [1, 4])
def test_fig12j_sharded_scaling(benchmark, bench_rounds, workers):
    """Zero-copy sharded drain at 1 and 4 workers (the scaling gate)."""
    pedantic(
        benchmark,
        bench_rounds,
        lambda: prepare_shard_drain(workers),
    )
    record("fig12j-shard", ("process", workers), benchmark)


def _dispatch_bytes(tx_per_trace: int) -> dict:
    """Shard-dispatch task bytes for one trace of ``tx_per_trace``
    transactions (4 events each), measured from the codec counters of
    a process pool."""
    registry = MetricsRegistry(MetricsLevel.FULL)
    [trace] = make_checking_traces(1, tx_per_trace=tx_per_trace)
    n_events = len(trace.events)
    with WorkerPool(num_workers=2, backend="process",
                    engine="columnar", shard_min_events=1,
                    metrics=registry) as pool:
        pool.submit(trace)
        result = pool.drain()
        assert result.traces_checked == 1
        snap = pool.metrics_snapshot()
    assert snap.counter_value("shard.arenas") == 1
    return {
        "events": n_events,
        "task_bytes": snap.counter_value("codec.task_bytes"),
        "shards": 2,
    }


def test_fig12j_wire_bytes_are_constant(benchmark):
    """The O(1) claim: quadrupling the trace does not grow the shard
    dispatch wire.  Deterministic byte counts — holds on any host."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    small = _dispatch_bytes(200)
    large = _dispatch_bytes(800)
    assert large["events"] == pytest.approx(4 * small["events"], rel=0.01)
    # A descriptor is a segment name plus three small ints; the only
    # size-dependent part is the pickled width of the event offsets, so
    # allow single bytes of growth — never payload-proportional growth.
    assert large["task_bytes"] <= small["task_bytes"] + 8
    assert small["task_bytes"] < 120
    per_shard = large["task_bytes"] / large["shards"]
    ZEROCOPY.update(
        dispatch_bytes_small_trace=small["task_bytes"],
        dispatch_bytes_large_trace=large["task_bytes"],
        dispatch_bytes_per_shard=per_shard,
        events_large_trace=large["events"],
    )
    # and the whole dispatch is orders of magnitude below the payload:
    # one event encodes to >= 4 bytes, a shard descriptor to a few dozen
    assert per_shard * large["shards"] < large["events"]


def _committed_scaling_baseline():
    """The committed fig12h process/4-worker scaling ratio, if any."""
    try:
        payload = json.loads(BASELINE_JSON.read_text())
    except (OSError, ValueError):
        return None
    scaling = payload.get("sharded_checking_scaling_vs_1_worker", {})
    return scaling.get("process/4-workers")


def test_fig12j_scaling_gate(benchmark):
    """The perf gate: zero-copy sharded dispatch must improve the
    4-vs-1-worker drain ratio over the committed payload-era baseline,
    and on a real multi-core host parallel must beat serial outright.
    On fewer than 4 cores the parallel-beats-serial half is skipped
    (with the measured ratio) — worker processes time-share one core,
    so only the baseline comparison is meaningful there."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    serial = RESULTS.get(("fig12j-shard", ("process", 1)))
    parallel = RESULTS.get(("fig12j-shard", ("process", 4)))
    if not serial or not parallel:
        pytest.skip("fig12j scaling benchmarks did not run")
    ratio = serial / parallel
    baseline = _committed_scaling_baseline()
    if baseline is not None:
        assert ratio > baseline, (
            f"zero-copy sharded scaling {ratio:.4f}x regressed below the "
            f"committed payload-dispatch baseline {baseline:.4f}x"
        )
    if (os.cpu_count() or 1) >= 4:
        assert ratio > 1.0, (
            f"4-worker sharded drain must beat serial on a multi-core "
            f"host; measured {ratio:.4f}x"
        )
    else:
        pytest.skip(
            f"only {os.cpu_count()} core(s): zero-copy sharded scaling "
            f"measured {ratio:.4f}x (committed baseline "
            f"{baseline if baseline is not None else 'n/a'}); the "
            ">1x parallel-beats-serial assertion needs a multi-core host"
        )
