"""Figure 12: Memcached scalability vs program threads and PMTest workers.

Paper result: (a) with a single PMTest worker, slowdown grows with the
number of Memcached threads (more traces per unit time); (b) with four
Memcached threads, adding workers reduces the slowdown; (c) growing both
together keeps slowdown roughly flat, rising slightly from inter-thread
communication.

The worker axis depends on the checking backend (DESIGN.md Section 6):
the ``thread`` backend reproduces the paper's dispatch architecture but
the GIL keeps CPU-bound checking serialized, so its throughput stays
flat as workers grow; the ``process`` backend checks on worker
processes and is the one that scales with cores.  The ``fig12d`` sweep
below measures exactly that: pure checking throughput per backend per
worker count, the before/after comparison for the process backend.
"""

import os

import pytest

from _harness import (
    measure_decode_replay_split,
    measure_engine_speedup,
    measure_wire_bytes,
    pedantic,
    prepare_backend_throughput,
    prepare_engine_replay,
    prepare_memcached_threads,
    record,
    slowdown,
    RESULTS,
)
from repro.core.engine_columnar import ENGINE_NAMES

THREADS = [1, 2, 4]
WORKERS = [1, 2, 4]
BACKENDS = ("thread", "process")
#: the epoch-sharding sweep ships a few large traces instead of many
#: small ones: sharding only engages above the per-trace threshold
SHARD_TRACES = 8
SHARD_TX_PER_TRACE = 400


@pytest.mark.parametrize("threads", THREADS)
def test_fig12_baseline(benchmark, bench_rounds, threads):
    """Uninstrumented Memcached at each thread count (denominators)."""
    pedantic(
        benchmark,
        bench_rounds,
        lambda: prepare_memcached_threads(threads, 0, with_pmtest=False),
    )
    record("fig12", (threads, 0, "none"), benchmark)


@pytest.mark.parametrize("threads", THREADS)
def test_fig12a_thread_sweep(benchmark, bench_rounds, threads):
    """(a) single PMTest worker, 1-4 Memcached threads."""
    pedantic(
        benchmark,
        bench_rounds,
        lambda: prepare_memcached_threads(threads, 1),
    )
    record("fig12", (threads, 1, "pmtest"), benchmark)


@pytest.mark.parametrize("workers", [2, 4])
def test_fig12b_worker_sweep(benchmark, bench_rounds, workers):
    """(b) four Memcached threads, 2-4 PMTest workers (1 is in (a))."""
    pedantic(
        benchmark,
        bench_rounds,
        lambda: prepare_memcached_threads(4, workers),
    )
    record("fig12", (4, workers, "pmtest"), benchmark)


@pytest.mark.parametrize("both", [2])
def test_fig12c_joint_sweep(benchmark, bench_rounds, both):
    """(c) threads and workers grown together (1,1 / 2,2 / 4,4; the
    endpoints already exist in (a) and (b))."""
    pedantic(
        benchmark,
        bench_rounds,
        lambda: prepare_memcached_threads(both, both),
    )
    record("fig12", (both, both, "pmtest"), benchmark)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_fig12d_backend_throughput(benchmark, bench_rounds, backend, workers):
    """(d) pure checking throughput: backend x worker-count sweep."""
    pedantic(
        benchmark,
        bench_rounds,
        lambda: prepare_backend_throughput(backend, workers),
    )
    record("fig12-backend", (backend, workers), benchmark)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fig12e_backend_end_to_end(benchmark, bench_rounds, backend):
    """Backends under the full Memcached workload (4 threads, 4 workers)."""
    pedantic(
        benchmark,
        bench_rounds,
        lambda: prepare_memcached_threads(4, 4, backend=backend),
    )
    record("fig12", (4, 4, f"pmtest-{backend}"), benchmark)


def test_fig12d_backend_shape(benchmark):
    """The tentpole claim: process-backend checking scales with workers
    where the thread backend stays flat (GIL)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    times = {
        (backend, workers): RESULTS.get(("fig12-backend", (backend, workers)))
        for backend in BACKENDS
        for workers in WORKERS
    }
    if any(value is None for value in times.values()):
        pytest.skip("fig12d benchmarks did not run")
    thread_scaling = times[("thread", 1)] / times[("thread", 4)]
    process_scaling = times[("process", 1)] / times[("process", 4)]
    # The thread backend must not magically beat the GIL.
    assert thread_scaling < 1.5, thread_scaling
    if (os.cpu_count() or 1) >= 4:
        # On a multi-core host the process backend must actually scale.
        assert process_scaling > 1.5, process_scaling
        assert process_scaling > thread_scaling, (
            process_scaling,
            thread_scaling,
        )
    else:
        pytest.skip(
            f"only {os.cpu_count()} core(s): process-backend scaling "
            f"measured {process_scaling:.2f}x but the >1.5x assertion "
            "needs a multi-core host"
        )


def test_fig12f_wire_bytes(benchmark):
    """The codec claim: the struct-packed binary PMTB format stores a
    trace in >= 3x fewer bytes than the pickled-tuple wire the process
    backend ships, on the fig12 checking workload.  This is a
    deterministic byte count, so it holds on any host."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    per_trace = measure_wire_bytes()
    ratio = per_trace["pickle"] / per_trace["binary"]
    assert ratio >= 3.0, per_trace


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_fig12g_engine_ablation(benchmark, bench_rounds, engine):
    """(g) replay-engine ablation: decode one binary trace batch and
    check every trace, single worker, varying only ``--engine``.  The
    fig10a-shaped micro workload (write/clwb/sfence/isPersist over
    rotating cachelines) is where per-event object overhead is purest."""
    pedantic(
        benchmark,
        bench_rounds,
        lambda: prepare_engine_replay(engine),
    )
    record("fig12-engine", (engine,), benchmark)


def test_fig12g_engine_shape(benchmark):
    """The tentpole claim: columnar decode+replay is >= 2x the object
    engine on the fig10a micro workload.  Measured with interleaved
    min-of-rounds (robust to CI-host noise) on a fixed workload size,
    independent of the smoke-scaling env knobs."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    best = measure_engine_speedup()
    speedup = best["object"] / best["columnar"]
    assert speedup >= 2.0, (
        f"columnar engine {speedup:.2f}x object on the fig10a micro "
        f"workload; the columnar decode+replay claim needs >= 2x ({best})"
    )


def test_fig12g_decode_replay_split(benchmark):
    """Populate the per-batch decode-vs-replay split for the dumped
    JSON: per engine, how much of each batch went to binary decoding
    vs shadow replay."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    split = measure_decode_replay_split()
    for engine, row in split.items():
        assert row["batches"] > 0, engine
        assert len(row["per_batch"]) == row["batches"], engine


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_fig12h_sharded_throughput(benchmark, bench_rounds, backend, workers):
    """(h) epoch-sharded checking: a few large multi-epoch traces are
    split at fence boundaries across the worker pool (columnar engine,
    ``shard_min_events=1``)."""
    pedantic(
        benchmark,
        bench_rounds,
        lambda: prepare_backend_throughput(
            backend,
            workers,
            n_traces=SHARD_TRACES,
            engine="columnar",
            shard_min_events=1,
            tx_per_trace=SHARD_TX_PER_TRACE,
        ),
    )
    record("fig12-shard", (backend, workers), benchmark)


def test_fig12h_process_vs_thread_shape(benchmark):
    """The sharding claim: with real parallelism, epoch-sharded
    checking on the process backend beats the thread backend on the same
    large traces (the GIL serializes thread-backend shards)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    times = {
        (backend, workers): RESULTS.get(("fig12-shard", (backend, workers)))
        for backend in BACKENDS
        for workers in (1, 4)
    }
    if any(value is None for value in times.values()):
        pytest.skip("fig12h benchmarks did not run")
    process_scaling = times[("process", 1)] / times[("process", 4)]
    if (os.cpu_count() or 1) >= 4:
        assert times[("process", 4)] < times[("thread", 4)], times
        assert process_scaling > 1.0, process_scaling
    else:
        ratio = times[("thread", 4)] / times[("process", 4)]
        pytest.skip(
            f"only {os.cpu_count()} core(s): sharded process measured "
            f"{ratio:.2f}x the thread backend (scaling "
            f"{process_scaling:.2f}x) but the faster-drain assertion "
            "needs a multi-core host"
        )


def test_fig12_shape(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    one_thread = slowdown("fig12", (1, 1, "pmtest"), (1, 0, "none"))
    four_threads = slowdown("fig12", (4, 1, "pmtest"), (4, 0, "none"))
    if one_thread is None or four_threads is None:
        pytest.skip("fig12 benchmarks did not run")
    # (a) more tracked program threads -> at least as much slowdown.
    assert four_threads > one_thread * 0.8, (one_thread, four_threads)
    # Everything stays a bounded overhead, not a blow-up.
    for threads in THREADS:
        ratio = slowdown("fig12", (threads, 1, "pmtest"),
                         (threads, 0, "none"))
        if ratio is not None:
            assert ratio < 30, ratio
