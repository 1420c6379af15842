"""Shared builders for the benchmark suite.

Every figure/table benchmark runs a workload in one of several *tool
configurations* over identical inputs:

``none``
    Uninstrumented baseline (the denominator of every slowdown).
``pmtest``
    PMTest attached: operations tracked, traces checked (synchronously,
    so timings are deterministic), transaction checkers where the paper
    uses them.
``pmtest-framework``
    PMTest tracking and engine, but no checkers placed — the
    "PMTest Framework" bar of Figure 10b.
``pmemcheck``
    The per-store baseline tool attached to the same runtime.

Workload construction (machine allocation, pool formatting) happens in
untimed ``prepare_*`` functions; only the ``execute`` closure they
return is measured.  Benchmarks are sized well below the paper's op
counts (the substrate is a Python simulator, not a C binary on
NVDIMMs); EXPERIMENTS.md records the scaling argument.  The quantities
compared — slowdown ratios — are dimensionless.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.pmemcheck import PmemcheckTool
from repro.core.api import PMTestSession
from repro.core.columns import ColumnarTrace
from repro.core.engine import CheckingEngine
from repro.core.engine_columnar import ColumnarCheckingEngine, make_engine
from repro.core.events import Event, Op, SourceSite, Trace
from repro.core.rules import X86Rules
from repro.core.traceio import (
    decode_traces_binary,
    decode_traces_binary_columnar,
    encode_trace,
    encode_traces_binary,
)
from repro.core.verdict_cache import VerdictCache
from repro.core.workers import DEFAULT_BATCH_SIZE, WorkerPool
from repro.instr.runtime import PMRuntime
from repro.pmem.machine import PMMachine
from repro.pmdk.pool import PMPool
from repro.pmfs.fs import PMFS
from repro.structures import ALL_STRUCTURES
from repro.workloads import (
    MemcachedServer,
    RedisServer,
    drive_fs,
    drive_kv,
    filebench_ops,
    memslap_ops,
    oltp_ops,
    redis_lru_ops,
    run_client_threads,
    ycsb_ops,
)

TOOLS = ("none", "pmtest", "pmemcheck")


def env_int(name: str, default: int) -> int:
    """Benchmark sizing knob: ``PMTEST_BENCH_SMOKE=1`` shrinks every
    workload to CI-smoke size; a specific ``name`` overrides further."""
    if name in os.environ:
        return int(os.environ[name])
    if os.environ.get("PMTEST_BENCH_SMOKE"):
        return max(default // 10, 2)
    return default

#: module-level result store: (figure, config) -> mean seconds
RESULTS: Dict[Tuple[str, Tuple], float] = {}

#: metrics registries captured per benchmark config (JSON form); only
#: populated when the run records metrics (PMTEST_METRICS=basic|full)
METRICS: Dict[Tuple[str, Tuple], dict] = {}

#: wire-codec measurement: codec name -> bytes per trace on the fig12
#: checking workload (populated by the fig12f wire-bytes test)
WIRE_BYTES: Dict[str, float] = {}

#: verdict-cache measurement: hit rate and coalesced-write count on the
#: repeated-trace workload (populated by the fig10c ablation)
VERDICT_CACHE: Dict[str, float] = {}

#: per-engine decode-vs-replay time split over the fig12 checking
#: workload's task batches (populated by the engine ablation); keyed by
#: engine name, each value carries totals plus per-batch timings
DECODE_REPLAY: Dict[str, dict] = {}

#: interleaved min-of-rounds engine comparison on the fig10a-shaped
#: micro workload: engine name -> best decode+check seconds
ENGINE_BEST: Dict[str, float] = {}

#: interleaved min-of-rounds shadow-plane comparison on the
#: interval-heavy micro workload: shadow name -> best check seconds
SHADOW_BEST: Dict[str, float] = {}

#: daemon load-generator measurement (fig12i): sustained traces/sec,
#: per-frame latency quantiles, and shed counts under 2x overload
DAEMON_LOAD: Dict[str, float] = {}

#: zero-copy ablation measurements (fig12j): shard-dispatch wire bytes
#: per configuration, proving arena descriptors are O(1) per shard
ZEROCOPY: Dict[str, float] = {}

Execute = Callable[[], None]


def record(figure: str, config: Tuple, benchmark) -> None:
    """Stash a benchmark's mean runtime for the figure report."""
    RESULTS[(figure, config)] = benchmark.stats.stats.mean


def record_metrics(figure: str, config: Tuple, source) -> None:
    """Stash ``source``'s metrics snapshot (a session/pool exposing
    ``metrics_snapshot``) for the JSON dump; no-op when metrics are off."""
    snapshot_fn = getattr(source, "metrics_snapshot", None)
    snapshot = snapshot_fn() if snapshot_fn is not None else None
    if snapshot is not None:
        METRICS[(figure, config)] = snapshot.to_dict()


def slowdown(figure: str, config: Tuple,
             baseline_config: Tuple) -> Optional[float]:
    """Tool-config runtime divided by the matching baseline runtime."""
    tool_time = RESULTS.get((figure, config))
    base_time = RESULTS.get((figure, baseline_config))
    if tool_time is None or base_time is None or base_time == 0:
        return None
    return tool_time / base_time


def pedantic(benchmark, rounds: int, make_execute: Callable[[], Execute]):
    """Run ``make_execute()`` (untimed setup) before each timed round."""

    def setup():
        return (make_execute(),), {}

    benchmark.pedantic(
        lambda execute: execute(), setup=setup, rounds=rounds, iterations=1
    )


# ----------------------------------------------------------------------
# Tool plumbing
# ----------------------------------------------------------------------
def make_runtime(tool: str, mem_size: int):
    """Returns ``(runtime, session, finisher)`` for a tool config."""
    machine = PMMachine(mem_size)
    if tool == "none":
        return PMRuntime(machine=machine), None, lambda: None
    if tool in ("pmtest", "pmtest-framework"):
        session = PMTestSession(workers=0)
        session.thread_init()
        session.start()
        runtime = PMRuntime(machine=machine, session=session)
        return runtime, session, session.exit
    if tool == "pmemcheck":
        checker = PmemcheckTool(track_findings=False)
        runtime = PMRuntime(machine=machine, observers=[checker])
        return runtime, None, checker.finish
    raise ValueError(f"unknown tool {tool!r}")


# ----------------------------------------------------------------------
# Figure 10: microbenchmarks
# ----------------------------------------------------------------------
def prepare_micro(
    structure: str,
    value_size: int,
    tool: str,
    n_ops: int = 100,
    mem_size: int = 16 << 20,
    capture_sites: bool = False,
    figure: Optional[str] = None,
    config: Optional[Tuple] = None,
) -> Execute:
    """Build one microbenchmark configuration; returns the timed body
    (``n_ops`` insertions, one transaction each, plus result drain).

    With ``figure``/``config`` given, the session's metrics registry is
    captured into :data:`METRICS` after the (untimed) drain, so a run
    under ``PMTEST_METRICS=full`` ships per-stage breakdowns alongside
    the timings in the benchmark JSON."""
    runtime, session, finish = make_runtime(tool, mem_size)
    runtime.capture_sites = capture_sites
    pool = PMPool(runtime, log_capacity=256 * 1024)
    instance = ALL_STRUCTURES[structure](pool, value_size=value_size)
    transactional = structure != "hashmap_atomic"
    wrap = tool == "pmtest" and transactional
    if session is not None:
        session.send_trace()

    def execute() -> None:
        for i in range(n_ops):
            if wrap:
                session.tx_check_start()
            instance.insert(i)
            if wrap:
                session.tx_check_end()
            if session is not None:
                session.send_trace()
        finish()
        if figure is not None and session is not None:
            record_metrics(figure, config, session)

    return execute


# ----------------------------------------------------------------------
# Figure 11: real workloads
# ----------------------------------------------------------------------
REAL_WORKLOADS = (
    "memcached+memslap",
    "memcached+ycsb",
    "redis+lru",
    "pmfs+oltp",
    "pmfs+filebench",
)


def prepare_real(workload: str, tool: str, scale: int = 300,
                 mem_size: int = 16 << 20) -> Execute:
    """Build one real-workload configuration (paper Table 4, scaled)."""
    runtime, session, finish = make_runtime(tool, mem_size)
    if workload.startswith("memcached"):
        pool = PMPool(runtime, log_capacity=256 * 1024)
        server = MemcachedServer(pool)
        ops = list(
            memslap_ops(scale, key_space=scale // 4)
            if workload.endswith("memslap")
            else ycsb_ops(scale, key_space=scale // 4)
        )

        def execute() -> None:
            drive_kv(server, ops, session=session, trace_every=10)
            finish()

    elif workload == "redis+lru":
        pool = PMPool(runtime, log_capacity=256 * 1024)
        server = RedisServer(pool, maxkeys=scale // 3)
        ops = list(redis_lru_ops(scale // 2))

        def execute() -> None:
            drive_kv(server, ops, session=session,
                     tx_check=tool == "pmtest", trace_every=10)
            finish()

    elif workload == "pmfs+oltp":
        fs = PMFS(runtime, size=4 << 20, journal_capacity=64 * 1024)
        ops = list(oltp_ops(scale // 3))

        def execute() -> None:
            drive_fs(fs, ops, session=session, trace_every=10)
            finish()

    elif workload == "pmfs+filebench":
        fs = PMFS(runtime, size=4 << 20, journal_capacity=64 * 1024)
        ops = list(filebench_ops(scale))

        def execute() -> None:
            drive_fs(fs, ops, session=session, trace_every=10)
            finish()

    else:
        raise ValueError(f"unknown workload {workload!r}")
    return execute


# ----------------------------------------------------------------------
# Figure 12: scalability
# ----------------------------------------------------------------------
def prepare_memcached_threads(
    n_threads: int,
    n_workers: int,
    ops_per_client: int = 120,
    with_pmtest: bool = True,
    mem_size: int = 16 << 20,
    backend: Optional[str] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Execute:
    """Memcached with N server threads and M PMTest workers."""
    ops_per_client = env_int("PMTEST_BENCH_OPS", ops_per_client)
    machine = PMMachine(mem_size)
    session = None
    if with_pmtest:
        session = PMTestSession(
            workers=n_workers, backend=backend, batch_size=batch_size
        )
        session.thread_init()
        session.start()
    runtime = PMRuntime(machine=machine, session=session)
    pool = PMPool(runtime, log_capacity=256 * 1024)
    server = MemcachedServer(pool)
    if session is not None:
        session.send_trace()
    op_lists = [
        list(memslap_ops(ops_per_client, key_space=64, seed=i))
        for i in range(n_threads)
    ]

    def execute() -> None:
        def worker(index: int) -> int:
            return drive_kv(server, op_lists[index], session=session,
                            trace_every=5)

        run_client_threads(worker, n_threads, session=session)
        if session is not None:
            session.exit()

    return execute


# ----------------------------------------------------------------------
# Backend scaling: pure checking throughput
# ----------------------------------------------------------------------
def make_checking_traces(
    n_traces: int = 150, tx_per_trace: int = 20, span: int = 256
) -> List[Trace]:
    """Synthetic traces shaped like instrumented transactions.

    Each trace is an independent checking unit (write/flush/fence/
    checker over rotating cachelines), so total checking work scales
    linearly with ``n_traces`` and the engine — not trace construction —
    dominates.
    """
    traces = []
    for t in range(n_traces):
        trace = Trace(t)
        for i in range(tx_per_trace):
            base = ((t + i) % 16) * span
            trace.append(Event(Op.WRITE, base, span))
            trace.append(Event(Op.CLWB, base, span))
            trace.append(Event(Op.SFENCE))
            trace.append(Event(Op.CHECK_PERSIST, base, span))
        traces.append(trace)
    return traces


def prepare_backend_throughput(
    backend: str,
    n_workers: int,
    n_traces: int = 150,
    batch_size: int = DEFAULT_BATCH_SIZE,
    engine: Optional[str] = None,
    shard_min_events: Optional[int] = None,
    tx_per_trace: int = 20,
) -> Execute:
    """Timed body: push pre-built traces through a fresh pool and drain.

    This isolates the checking runtime (dispatch + engine + result
    merge) from workload execution, which is what actually distinguishes
    the thread and process backends: end-to-end workload timings blend
    in tracked execution that is identical across backends.  ``engine``/
    ``shard_min_events`` select the replay engine and the epoch-shard
    threshold for the columnar/sharding sweeps (``tx_per_trace`` sizes
    individual traces — sharding only pays on large ones).
    """
    n_traces = env_int("PMTEST_BENCH_TRACES", n_traces)
    traces = make_checking_traces(n_traces, tx_per_trace=tx_per_trace)
    pool = WorkerPool(
        num_workers=n_workers,
        backend=backend,
        batch_size=batch_size,
        engine=engine,
        shard_min_events=shard_min_events,
    )

    def execute() -> None:
        for trace in traces:
            pool.submit(trace)
        result = pool.drain()
        assert result.traces_checked == len(traces)
        pool.close()

    return execute


# ----------------------------------------------------------------------
# Engine ablation: columnar vs object decode + replay
# ----------------------------------------------------------------------
def prepare_engine_replay(
    engine: str, n_traces: int = 150, tx_per_trace: int = 20
) -> Execute:
    """Timed body: decode one binary traces message and check every
    trace with the selected engine — the single-worker replay path with
    dispatch and pool machinery stripped away, which is what the
    ``--engine`` knob actually changes."""
    n_traces = env_int("PMTEST_BENCH_TRACES", n_traces)
    data = encode_traces_binary(
        make_checking_traces(n_traces, tx_per_trace=tx_per_trace)
    )
    columnar = engine == "columnar"

    def execute() -> None:
        checker = make_engine(engine, X86Rules())
        check = checker.check_trace
        traces = (
            decode_traces_binary_columnar(data)
            if columnar
            else decode_traces_binary(data)
        )
        for trace in traces:
            check(trace)

    return execute


def measure_decode_replay_split(
    n_traces: int = 150, batch_size: int = DEFAULT_BATCH_SIZE
) -> Dict[str, dict]:
    """Per-batch decode-vs-replay time split for both engines.

    The workload is cut into binary ``traces`` messages of
    ``batch_size`` traces each, then each batch is decoded and replayed
    separately per engine, timing the two phases independently: the
    object engine decodes to per-event :class:`Event` objects, the
    columnar engine decodes straight into struct-of-arrays columns.  Results land in :data:`DECODE_REPLAY`
    (totals plus the per-batch nanosecond rows) for the terminal
    summary and the benchmark JSON.
    """
    from time import perf_counter_ns

    n_traces = env_int("PMTEST_BENCH_TRACES", n_traces)
    traces = make_checking_traces(n_traces)
    messages = [
        encode_traces_binary(traces[start:start + batch_size])
        for start in range(0, len(traces), batch_size)
    ]
    for engine_name in ("object", "columnar"):
        decode = (
            decode_traces_binary_columnar if engine_name == "columnar"
            else decode_traces_binary
        )
        engine = make_engine(engine_name, X86Rules())
        check = engine.check_trace
        per_batch = []
        for message in messages:
            t0 = perf_counter_ns()
            batch = decode(message)
            t1 = perf_counter_ns()
            for trace in batch:
                check(trace)
            t2 = perf_counter_ns()
            per_batch.append(
                {"decode_ns": t1 - t0, "replay_ns": t2 - t1,
                 "traces": len(batch)}
            )
        DECODE_REPLAY[engine_name] = {
            "batches": len(per_batch),
            "decode_seconds": sum(b["decode_ns"] for b in per_batch) / 1e9,
            "replay_seconds": sum(b["replay_ns"] for b in per_batch) / 1e9,
            "per_batch": per_batch,
        }
    return DECODE_REPLAY


def measure_engine_speedup(
    n_traces: int = 60, tx_per_trace: int = 40, rounds: int = 5
) -> Dict[str, float]:
    """Interleaved min-of-rounds decode+check comparison of the engines.

    The fig10a-shaped micro workload (write/clwb/sfence/isPersist over
    rotating cachelines) is encoded to one binary traces message, then
    each engine alternately decodes and checks the whole corpus; the
    best round per engine lands in :data:`ENGINE_BEST`.  Interleaving
    plus min-of-rounds makes the ratio robust to CI-host noise.  No
    verdict cache: this measures honest replay.
    """
    from time import perf_counter

    traces = make_checking_traces(n_traces, tx_per_trace=tx_per_trace)
    data = encode_traces_binary(traces)

    def run_object() -> None:
        engine = CheckingEngine(X86Rules())
        check = engine.check_trace
        for trace in decode_traces_binary(data):
            check(trace)

    def run_columnar() -> None:
        engine = make_engine("columnar", X86Rules())
        check = engine.check_trace
        for cols in decode_traces_binary_columnar(data):
            check(cols)

    best = {"object": float("inf"), "columnar": float("inf")}
    for _ in range(rounds):
        start = perf_counter()
        run_object()
        best["object"] = min(best["object"], perf_counter() - start)
        start = perf_counter()
        run_columnar()
        best["columnar"] = min(best["columnar"], perf_counter() - start)
    ENGINE_BEST.update(best)
    return best


# ----------------------------------------------------------------------
# Shadow-plane ablation: array interval store vs object interval map
# ----------------------------------------------------------------------
_EPOCH_SITE = SourceSite("heap.c", 17, "bulk_store")


def make_interval_heavy_cols(
    n_traces: int = 6,
    epochs: int = 16,
    writes: int = 128,
    checks: int = 32,
    bases: int = 16,
) -> List[ColumnarTrace]:
    """Pre-decoded columnar traces with epochs the array shadow targets.

    Each epoch is a long same-site write run (``writes`` stores at 8-byte
    stride), one wide CLWB spanning every segment the run created, an
    SFENCE, then ``checks`` strided isPersist checkers over the epoch —
    the shape where batched ``assign_codes_many``, the code-level flush
    remap and the batched persist pre-test all fire on every epoch.
    Bases rotate so earlier epochs stay live in the shadow and interval
    queries scan real segment populations.
    """
    out = []
    for t in range(n_traces):
        trace = Trace(t)
        seq = 0
        for e in range(epochs):
            base = 0x10000 + ((t + e) % bases) * 0x8000
            for k in range(writes):
                trace.append(
                    Event(Op.WRITE, base + k * 8, 8, site=_EPOCH_SITE,
                          seq=seq))
                seq += 1
            trace.append(Event(Op.CLWB, base, writes * 8, seq=seq))
            seq += 1
            trace.append(Event(Op.SFENCE, seq=seq))
            seq += 1
            span = writes * 8 // checks
            for k in range(checks):
                trace.append(
                    Event(Op.CHECK_PERSIST, base + k * span, span, seq=seq))
                seq += 1
        out.append(ColumnarTrace.from_trace(trace))
    return out


def prepare_shadow_validate(shadow: str, n_traces: int = 6) -> Execute:
    """Timed body: replay the interval-heavy corpus on one columnar
    engine, varying only ``--shadow``.  The columns are pre-decoded and
    epoch coalescing is off so the timed region is exactly the
    shadow-update + checker-validate plane the knob changes — decode and
    coalescing are shadow-independent fixed costs."""
    n_traces = env_int("PMTEST_BENCH_TRACES", n_traces)
    cols = make_interval_heavy_cols(n_traces=n_traces)

    def execute() -> None:
        engine = ColumnarCheckingEngine(
            X86Rules(), coalesce=False, shadow=shadow
        )
        check = engine.check_trace
        for trace in cols:
            check(trace)

    return execute


def measure_shadow_speedup(rounds: int = 6) -> Dict[str, float]:
    """Interleaved min-of-rounds comparison of the two shadow planes.

    Both shadows replay the identical pre-decoded interval-heavy corpus
    (fixed size, independent of the smoke-scaling env knobs); the best
    round per shadow lands in :data:`SHADOW_BEST`.  Interleaving plus
    min-of-rounds makes the ratio robust to CI-host noise."""
    from time import perf_counter

    cols = make_interval_heavy_cols()
    best = {"object": float("inf"), "array": float("inf")}
    for _ in range(rounds):
        for shadow in best:
            engine = ColumnarCheckingEngine(
                X86Rules(), coalesce=False, shadow=shadow
            )
            check = engine.check_trace
            start = perf_counter()
            for trace in cols:
                check(trace)
            best[shadow] = min(best[shadow], perf_counter() - start)
    SHADOW_BEST.update(best)
    return best


# ----------------------------------------------------------------------
# Verdict-cache ablation: repeated-trace checking throughput
# ----------------------------------------------------------------------
_INSERT_SITE = SourceSite("bench_workload.c", 42, "tx_insert")


def make_repeated_tx_traces(
    n_traces: int = 400, tx_per_trace: int = 20
) -> List[Trace]:
    """Structurally identical transactional traces at distinct bases.

    The repeated-trace workload the verdict cache targets: every trace
    is the same PMDK-style insert skeleton (tx-checked undo-logged
    writes, then a non-transactional header epilogue) relocated to a
    fresh allocation, so all traces share one canonical fingerprint and
    every trace after the first is a cache hit.  The epilogue writes
    the header small-then-whole, giving epoch coalescing one dead write
    per trace to eliminate.
    """
    traces = []
    for t in range(n_traces):
        base = 0x100000 * (t + 1)
        trace = Trace(t)
        trace.append(Event(Op.TX_CHECK_START, site=_INSERT_SITE))
        trace.append(Event(Op.TX_BEGIN, site=_INSERT_SITE))
        for i in range(tx_per_trace):
            node = base + i * 0x100
            trace.append(Event(Op.TX_ADD, node, 64, site=_INSERT_SITE))
            trace.append(Event(Op.WRITE, node, 8, site=_INSERT_SITE))
            trace.append(Event(Op.WRITE, node + 8, 56, site=_INSERT_SITE))
            trace.append(Event(Op.CLWB, node, 64, site=_INSERT_SITE))
            trace.append(Event(Op.SFENCE, site=_INSERT_SITE))
        trace.append(Event(Op.TX_END, site=_INSERT_SITE))
        trace.append(Event(Op.TX_CHECK_END, site=_INSERT_SITE))
        header = base + tx_per_trace * 0x100
        trace.append(Event(Op.WRITE, header, 8, site=_INSERT_SITE))
        trace.append(Event(Op.WRITE, header, 64, site=_INSERT_SITE))
        trace.append(Event(Op.CLWB, header, 64, site=_INSERT_SITE))
        trace.append(Event(Op.SFENCE, site=_INSERT_SITE))
        trace.append(Event(Op.CHECK_PERSIST, header, 64, site=_INSERT_SITE))
        traces.append(trace)
    return traces


def prepare_verdict_cache(cache_size: int) -> Execute:
    """Timed body: check the repeated-trace workload on one engine.

    A single inline engine (no worker pool) so exactly one cache serves
    every trace and the hit rate is deterministic: the first occurrence
    misses, every repeat hits.  The cache's own counters land in
    :data:`VERDICT_CACHE` for the terminal summary and benchmark JSON.
    """
    n_traces = env_int("PMTEST_BENCH_TRACES", 400)
    traces = make_repeated_tx_traces(n_traces)
    cache = VerdictCache(cache_size) if cache_size else None
    engine = CheckingEngine(X86Rules(), cache=cache)

    def execute() -> None:
        check = engine.check_trace
        for trace in traces:
            check(trace)
        if cache is not None:
            VERDICT_CACHE["hit_rate"] = cache.hit_rate()
            VERDICT_CACHE["writes_merged"] = float(engine.writes_merged)

    return execute


def measure_wire_bytes(
    n_traces: int = 150, batch_size: int = DEFAULT_BATCH_SIZE
) -> Dict[str, float]:
    """Bytes per trace of each encoding for the fig12 checking workload.

    The workload is cut into ``batch_size``-trace batches and encoded
    both ways: the pickled ``(seq, tuple-wire)`` batch the process
    backend puts on its ``multiprocessing.Queue``, and one binary PMTB
    ``traces`` message per batch.  Results land in :data:`WIRE_BYTES`
    for the terminal summary and the benchmark JSON.
    """
    n_traces = env_int("PMTEST_BENCH_TRACES", n_traces)
    traces = make_checking_traces(n_traces)
    wires = [(seq, encode_trace(trace)) for seq, trace in enumerate(traces)]
    totals = {"pickle": 0, "binary": 0}
    for start in range(0, len(wires), batch_size):
        batch = wires[start:start + batch_size]
        totals["pickle"] += len(pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
        totals["binary"] += len(
            encode_traces_binary(traces[start:start + batch_size])
        )
    per_trace = {name: total / len(wires) for name, total in totals.items()}
    WIRE_BYTES.update(per_trace)
    return per_trace
