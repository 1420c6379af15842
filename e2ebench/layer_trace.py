"""The traced run: the same verdict requests in-process, split by layer.

The run makes an untraced warm-up pass over the prepared inputs, then
alternates untraced twins (no spans, metrics off) with traced passes.
A traced pass records spans (:mod:`spans`) around the public calls into
each layer, with a full-level ``MetricsRegistry`` on the checking path;
the last traced pass's spans are written out when the run ends.

After the passes come the layer probes, each reported on its own:
``coalesce_events``, ``canonicalize``, replay with the verdict cache
off, the uninstrumented program, and the ``repro.cli`` import cost.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from repro.core.canon import canonicalize
from repro.core.engine import CheckingEngine, coalesce_events
from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.core.rules import X86Rules
from repro.core.traceio import load_traces_auto
from repro.core.workers import WorkerPool

import entry_points
from spans import NO_SPANS, SpanLog
from workload_gen import Verdict, run_uninstrumented

#: fresh-interpreter samples taken for ``cli.import_s``
IMPORT_SAMPLES = 5
#: (untraced twin, traced pass) pairs, and uninstrumented program runs
OVERHEAD_PAIRS = 3
#: the request id of the layer probes' spans
PROBE = "probe"


def verdict_pass(prep, log, full_metrics: bool, judge) -> Dict[str, float]:
    """One in-process pass: online, check and daemon per input.

    Online and daemon requests go through :mod:`entry_points`; the
    check is the in-process sequence of ``repro check``.  ``judge(index,
    outcomes)`` scores the three verdicts of an input.  Returns totals
    over the pass: the checking path's cache counters (zero when
    ``full_metrics`` is off), its reports, and daemon sheds.
    """
    totals = {"cache.hits": 0, "cache.misses": 0, "reports": 0, "sheds": 0}
    for index, inp in enumerate(prep.inputs):
        outcomes: Dict[str, object] = {}

        try:
            _, outcomes["online"] = entry_points.online(inp, log)
        except Exception as exc:  # scored as a failed request
            outcomes["online"] = f"{type(exc).__name__}: {exc}"

        request = f"check:{inp.name}"
        registry = MetricsRegistry(MetricsLevel.FULL) if full_metrics else None
        try:
            with log.span("cli.check", request):
                with log.span("core.traceio.decode", request):
                    traces = list(load_traces_auto(prep.dumps[index]))
                with log.span("core.workers.pool_init", request):
                    pool = WorkerPool(X86Rules(), num_workers=0, metrics=registry)
                with log.span("core.workers.submit", request):
                    for trace in traces:
                        pool.submit(trace)
                with log.span("core.workers.drain", request):
                    result = pool.drain()
                    pool.close()
            outcomes["check"] = Verdict.of(result)
            totals["reports"] += len(result.reports)
            if registry is not None:
                snapshot = pool.metrics_snapshot()
                for name in ("cache.hits", "cache.misses"):
                    totals[name] += snapshot.counter_value(name)
        except Exception as exc:
            outcomes["check"] = f"{type(exc).__name__}: {exc}"

        try:
            _, outcomes["submit"], sheds = entry_points.submit(
                prep.daemon.address, prep.traces[index], log,
                f"submit:{inp.name}",
            )
            totals["sheds"] += sheds
        except Exception as exc:
            outcomes["submit"] = f"{type(exc).__name__}: {exc}"

        judge(index, outcomes)
    return totals


def _tail(samples: List[float]) -> tuple:
    """The p90, or with fewer than 100 samples the highest whole
    percentile that still has ten samples beyond it (p50 at least)."""
    n = len(samples)
    if n < 2:
        return 50, samples[0] if samples else 0.0
    pct = max(50, min(90, math.floor(100 * (1 - 10 / n))))
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _interpreter_seconds(code: str, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        stdout=subprocess.DEVNULL, timeout=60,
    )
    return time.perf_counter() - start


def probes(prep, log: SpanLog, env: dict) -> Dict[str, float]:
    """The per-layer probes, outside the traced requests."""
    out: Dict[str, float] = {}
    all_traces = [t for traces in prep.traces for t in traces]

    coalesced = []
    merged = 0
    with log.span("core.engine.coalesce", PROBE):
        for trace in all_traces:
            events, dropped = coalesce_events(trace.events)
            coalesced.append(events)
            merged += dropped
    out["engine.writes_merged"] = merged

    with log.span("core.canon.canonicalize", PROBE):
        for events in coalesced:
            canonicalize(events)

    engine = CheckingEngine(X86Rules(), metrics=None, cache=None)
    with log.span("core.engine.replay", PROBE):
        for trace in all_traces:
            engine.check_trace(trace)
    # Interval-query counts need a full registry, which times every
    # event; a second pass keeps that cost out of engine.replay_s.
    registry = MetricsRegistry(MetricsLevel.FULL)
    counted = CheckingEngine(X86Rules(), metrics=registry, cache=None)
    for trace in all_traces:
        counted.check_trace(trace)
    out["engine.events"] = registry.counter_value("engine.events")
    out["engine.interval_queries"] = registry.counter_value(
        "engine.interval_queries"
    )
    out["engine.interval_scanned"] = registry.counter_value(
        "engine.interval_scanned"
    )

    for _ in range(OVERHEAD_PAIRS):
        with log.span("instr.runtime.uninstrumented", PROBE):
            for inp in prep.inputs:
                run_uninstrumented(inp)

    bare, loaded = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(_interpreter_seconds("pass", env))
        loaded.append(_interpreter_seconds("import repro.cli", env))
    out["cli.import_s"] = statistics.median(loaded) - statistics.median(bare)
    return out


def traced_run(
    prep, env: dict, judge, spans_path: str
) -> Tuple[Dict[str, tuple], Dict[str, object]]:
    """Run the twin, the traced pass and the probes; return the
    per-layer metrics as ``name -> (value, unit)``, and notes for the
    table."""
    def untraced_seconds() -> float:
        start = time.perf_counter()
        verdict_pass(prep, NO_SPANS, False, judge)
        return time.perf_counter() - start

    # A warm-up pass first, so no timed pass pays for first sessions,
    # first arena allocations or lazy imports; then twins and traced
    # passes alternate, and the overhead is the ratio of their medians.
    # A layer's time is its median over the traced passes; the counters,
    # frame latencies and coverage are the last pass's, whose log also
    # takes the probes' spans and is written out.
    untraced_seconds()
    twins, traced, logs = [], [], []
    for _ in range(OVERHEAD_PAIRS):
        twins.append(untraced_seconds())
        logs.append(SpanLog())
        start = time.perf_counter()
        totals = verdict_pass(prep, logs[-1], True, judge)
        traced.append(time.perf_counter() - start)
    log = logs[-1]
    traced_wall = traced[-1]
    probe = probes(prep, log, env)
    log.write(spans_path)

    def pass_seconds(name: str) -> float:
        return statistics.median(each.seconds(name) for each in logs)

    decode_s = pass_seconds("core.traceio.decode")
    replay_s = log.seconds("core.engine.replay")
    lookups = totals["cache.hits"] + totals["cache.misses"]
    session_s = pass_seconds("core.api.session")
    send_trace_s = pass_seconds("core.api.send_trace")
    uninstrumented_s = statistics.median(
        log.durations_ms("instr.runtime.uninstrumented")
    ) / 1e3
    frames = log.durations_ms("daemon.frame")
    p50 = statistics.median(frames) if frames else 0.0
    tail_pct, tail = _tail(frames)
    queries = probe["engine.interval_queries"]
    metrics = {
        "cli.import_s": (probe["cli.import_s"], "s"),
        "traceio.decode_s": (decode_s, "s"),
        "traceio.decode_events_per_s": (
            sum(c.events for c in prep.counts) / decode_s, "1/s"
        ),
        "traceio.dump_bytes": (sum(prep.dump_bytes), "bytes"),
        "engine.coalesce_s": (log.seconds("core.engine.coalesce"), "s"),
        "engine.writes_merged": (probe["engine.writes_merged"], "count"),
        "canon.canonicalize_s": (log.seconds("core.canon.canonicalize"), "s"),
        "verdict_cache.lookups": (lookups, "count"),
        "verdict_cache.hit_ratio": (
            totals["cache.hits"] / lookups if lookups else 0.0, "ratio"
        ),
        "engine.replay_s": (replay_s, "s"),
        "engine.replay_events_per_s": (
            probe["engine.events"] / replay_s, "1/s"
        ),
        "engine.events": (probe["engine.events"], "count"),
        "engine.interval_queries": (queries, "count"),
        "engine.interval_scanned_per_query": (
            probe["engine.interval_scanned"] / queries if queries else 0.0,
            "ratio",
        ),
        "workers.pool_init_s": (pass_seconds("core.workers.pool_init"), "s"),
        "workers.submit_s": (pass_seconds("core.workers.submit"), "s"),
        "workers.drain_s": (pass_seconds("core.workers.drain"), "s"),
        "reports.count": (totals["reports"], "count"),
        "session.uninstrumented_s": (uninstrumented_s, "s"),
        "session.send_trace_s": (send_trace_s, "s"),
        "session.tracking_s": (
            session_s - send_trace_s - uninstrumented_s, "s"
        ),
        "session.slowdown": (session_s / uninstrumented_s, "ratio"),
        "daemon.connect_s": (pass_seconds("daemon.connect"), "s"),
        "daemon.frames": (len(frames), "count"),
        "daemon.frame_ack_p50_ms": (p50, "ms"),
        "daemon.frame_ack_p90_ms": (tail, "ms"),
        "daemon.verdict_wait_s": (pass_seconds("daemon.verdict_wait"), "s"),
        "daemon.sheds": (totals["sheds"], "count"),
        "trace.coverage": (
            log.top_level_seconds(skip_request=PROBE) / traced_wall, "ratio"
        ),
        "trace.overhead_ratio": (
            statistics.median(traced) / statistics.median(twins), "ratio"
        ),
    }
    notes = {
        "frame_tail": f"p{tail_pct} of {len(frames)} frames",
        "traced_walls_s": traced,
        "untraced_walls_s": twins,
    }
    return metrics, notes
