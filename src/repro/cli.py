"""Command-line interface: check recorded traces offline.

Usage::

    python -m repro check run.pmtrace [--model x86|hops|eadr|x86-naive]
                                      [--workers N]
                                      [--backend inline|thread|process]
                                      [--batch-size K]
                                      [--check-timeout SECONDS]
                                      [--max-retries N]
                                      [--fallback | --no-fallback]
                                      [--verdict-cache | --no-verdict-cache]
                                      [--verdict-cache-size N]
                                      [--chaos-seed SEED]
                                      [--metrics-json PATH]
                                      [--trace-out PATH]
                                      [--max-reports K] [--quiet]
    python -m repro stats run.pmtrace
    python -m repro stats metrics.json
    python -m repro stats --connect unix:///tmp/pmtestd.sock [--flight]
    python -m repro serve --uds /tmp/pmtestd.sock [--model ...]
                          [--workers N] [--backend ...]
                          [--max-sessions N] [--inflight-bytes N]
                          [--rate-limit-bytes N] [--queue-timeout S]
                          [--retry-after-ms MS] [--max-sheds N]
                          [--http HOST:PORT] [--trace-out PATH]
                          [--flight-json PATH]
    python -m repro submit run.pmtrace --connect unix:///tmp/pmtestd.sock
                                       [--tenant NAME] [--deadline S]
                                       [--batch-size K]
                                       [--metrics-json PATH]
                                       [--trace-out PATH]
    python -m repro top --connect unix:///tmp/pmtestd.sock
                        [--interval S] [--iterations N] [--once]

``check`` replays every trace in the dump through the checking engine and
prints the reports (exit status 1 if any FAIL was found, 2 for usage or
format errors); ``stats`` summarizes a dump without checking it.  When
``stats`` is pointed at a metrics dump written by ``check
--metrics-json`` it prints the per-stage latency breakdown instead
(paper Figure 10b's stage decomposition); pointed at a running daemon
with ``--connect`` it fetches one live stats snapshot (or the flight
recorder with ``--flight``) as JSON.  ``serve`` runs the checking
daemon (:mod:`repro.daemon`) until SIGTERM/SIGINT, and ``submit``
streams a dump through a running daemon — same verdicts, same exit
codes as ``check``.  ``top`` subscribes to a daemon's stats stream and
renders a refreshing per-tenant table (traces/s, queue depth, sheds,
frame p99).

Traces are produced with :class:`repro.core.traceio.TraceRecorder` (or any
tool emitting the documented JSON-lines format), which makes the classic
record-in-production / analyze-later workflow possible.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from collections import Counter
from typing import List, Optional

from repro.core.backends import CheckingFailed
from repro.core.faults import FaultPoint, Resilience, plan_from_seed
from repro.core.metrics import (
    JSON_FORMAT,
    MetricsLevel,
    MetricsRegistry,
    make_registry,
    stage_breakdown,
)
from repro.core.rules import HOPSRules, PersistencyRules, X86Rules
from repro.core.rules.eadr import EADRRules
from repro.core.rules.naive import NaiveX86Rules
from repro.core.engine_columnar import ENGINE_NAMES
from repro.core.interval_array import SHADOW_NAMES
from repro.core.shard_plan import PLAN_MODES
from repro.core.traceio import TraceFormatError, load_traces_auto
from repro.core.tracing import Tracer
from repro.core.workers import BACKEND_NAMES, WorkerPool

MODELS = {
    "x86": X86Rules,
    "hops": HOPSRules,
    "eadr": EADRRules,
    "x86-naive": NaiveX86Rules,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PMTest offline trace tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="check a recorded trace dump")
    check.add_argument("trace_file", help="path to a .pmtrace dump")
    check.add_argument(
        "--model",
        choices=sorted(MODELS),
        default="x86",
        help="persistency model to check under (default: x86)",
    )
    check.add_argument(
        "--workers",
        type=int,
        default=0,
        help="checking workers (default 0: synchronous)",
    )
    check.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help=(
            "checking backend: inline (synchronous), thread (GIL-bound "
            "worker threads), or process (true parallel worker "
            "processes); default derives from --workers"
        ),
    )
    check.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help=(
            "pin traces per IPC message for --backend process "
            "(default: adapts to backpressure)"
        ),
    )
    check.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default=None,
        help=(
            "replay engine: object (per-event dispatch) or columnar "
            "(struct-of-arrays batch replay; faster on large traces, "
            "identical verdicts); default: PMTEST_ENGINE or object"
        ),
    )
    check.add_argument(
        "--shadow",
        choices=SHADOW_NAMES,
        default=None,
        help=(
            "shadow-memory interval store: object (IntervalMap) or "
            "array (struct-of-arrays with batched epoch updates; "
            "faster on interval-heavy traces, identical verdicts); "
            "default: PMTEST_SHADOW or object"
        ),
    )
    check.add_argument(
        "--shard-min-events",
        type=int,
        default=None,
        metavar="N",
        help=(
            "epoch-shard traces with at least N events across the "
            "workers (columnar engine only; default: "
            "PMTEST_SHARD_MIN_EVENTS or off)"
        ),
    )
    check.add_argument(
        "--shard-plan",
        choices=PLAN_MODES,
        default=None,
        help=(
            "how epoch-shard counts are decided: off (never), fixed "
            "(the --shard-min-events threshold, one shard per "
            "worker) or auto (size shards from a measured per-event "
            "replay cost); default: PMTEST_SHARD_PLAN, else fixed "
            "when --shard-min-events is set and off otherwise"
        ),
    )
    check.add_argument(
        "--check-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "watchdog timeout for the checking drain: after this long "
            "with no progress, outstanding traces are requeued once, "
            "then the backend degrades or the check fails (default: "
            "wait forever)"
        ),
    )
    check.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help=(
            "dead checking workers respawned per backend before it is "
            "declared unhealthy (default 2)"
        ),
    )
    fb = check.add_mutually_exclusive_group()
    fb.add_argument(
        "--fallback",
        dest="fallback",
        action="store_true",
        default=True,
        help=(
            "degrade process -> thread -> inline when a backend cannot "
            "spawn or turns unhealthy (default)"
        ),
    )
    fb.add_argument(
        "--no-fallback",
        dest="fallback",
        action="store_false",
        help="fail the check instead of degrading the backend",
    )
    vc = check.add_mutually_exclusive_group()
    vc.add_argument(
        "--verdict-cache",
        dest="verdict_cache",
        action="store_true",
        default=None,
        help=(
            "answer structurally identical traces from the per-worker "
            "verdict cache instead of replaying them (default: "
            "PMTEST_VERDICT_CACHE, on when unset)"
        ),
    )
    vc.add_argument(
        "--no-verdict-cache",
        dest="verdict_cache",
        action="store_false",
        help="replay every trace in full",
    )
    check.add_argument(
        "--verdict-cache-size",
        type=int,
        default=None,
        metavar="N",
        help="per-worker verdict-cache capacity in entries (default 1024)",
    )
    check.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help=(
            "inject a deterministic, recoverable fault plan derived "
            "from SEED into the checking pipeline (for testing the "
            "recovery machinery; verdicts are unaffected)"
        ),
    )
    check.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help=(
            "write the merged metrics registry to PATH as JSON after the "
            "check (forces full metrics for this run; inspect with "
            "'repro stats PATH')"
        ),
    )
    check.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "write a chrome://tracing / Perfetto-compatible span trace "
            "of the checking pipeline to PATH"
        ),
    )
    check.add_argument(
        "--max-reports",
        type=int,
        default=20,
        help="print at most this many reports (default 20)",
    )
    check.add_argument(
        "--quiet",
        action="store_true",
        help="print only the summary line",
    )

    stats = sub.add_parser(
        "stats",
        help=(
            "summarize a trace dump, a metrics JSON dump, or a "
            "running daemon"
        ),
    )
    stats.add_argument(
        "trace_file",
        nargs="?",
        default=None,
        help="path to a .pmtrace dump or a 'check --metrics-json' output",
    )
    stats.add_argument(
        "--connect",
        default=None,
        metavar="ADDR",
        help=(
            "fetch live stats from a running daemon instead of reading "
            "a file (unix:///path, tcp://host:port, host:port)"
        ),
    )
    stats.add_argument(
        "--flight",
        action="store_true",
        help=(
            "with --connect: dump the daemon's flight recorder (recent "
            "sheds, rejections, aborts, chaos firings, slow frames)"
        ),
    )
    stats.add_argument(
        "--tenant", default="cli-stats",
        help="tenant name for the stats session (default: cli-stats)",
    )
    stats.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="overall budget for the daemon round trip",
    )

    serve = sub.add_parser(
        "serve", help="run the checking daemon (checking-as-a-service)"
    )
    serve.add_argument(
        "--uds",
        default=None,
        metavar="PATH",
        help="listen on a Unix domain socket at PATH",
    )
    serve.add_argument(
        "--host",
        default=None,
        help="listen on TCP at this host (with --port)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port for --host (default 0: ephemeral, printed on start)",
    )
    serve.add_argument(
        "--model",
        choices=sorted(MODELS),
        default="x86",
        help="persistency model every session checks under (default: x86)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="checking workers per session pool (default 1)",
    )
    serve.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="checking backend for session pools (default from --workers)",
    )
    serve.add_argument(
        "--batch-size", type=int, default=None,
        help="traces per IPC message for --backend process",
    )
    serve.add_argument(
        "--engine", choices=ENGINE_NAMES, default=None,
        help="replay engine (object or columnar)",
    )
    serve.add_argument(
        "--shadow", choices=SHADOW_NAMES, default=None,
        help="shadow interval store (object or array)",
    )
    serve.add_argument(
        "--shard-min-events", type=int, default=None, metavar="N",
        help="epoch-shard threshold for session pools "
             "(see 'check --shard-min-events')",
    )
    serve.add_argument(
        "--shard-plan", choices=PLAN_MODES, default=None,
        help="shard-count policy for session pools "
             "(see 'check --shard-plan')",
    )
    vc2 = serve.add_mutually_exclusive_group()
    vc2.add_argument(
        "--verdict-cache", dest="verdict_cache", action="store_true",
        default=None, help="enable the per-worker verdict cache",
    )
    vc2.add_argument(
        "--no-verdict-cache", dest="verdict_cache", action="store_false",
        help="replay every trace in full",
    )
    serve.add_argument(
        "--check-timeout", type=float, default=None, metavar="SECONDS",
        help="per-session checking watchdog (see 'check --check-timeout')",
    )
    serve.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="worker respawns per session backend (default 2)",
    )
    fb2 = serve.add_mutually_exclusive_group()
    fb2.add_argument(
        "--fallback", dest="fallback", action="store_true", default=True,
        help=(
            "degrade overloaded/unhealthy stages instead of failing: "
            "session pools fall back process -> thread -> inline, and "
            "admission sheds with retry-after before rejecting (default)"
        ),
    )
    fb2.add_argument(
        "--no-fallback", dest="fallback", action="store_false",
        help=(
            "fail fast: no backend degradation and no shed rung "
            "(admission rejects as soon as the budget is exhausted)"
        ),
    )
    serve.add_argument(
        "--max-sessions", type=int, default=64, metavar="N",
        help="concurrent session ceiling (default 64)",
    )
    serve.add_argument(
        "--inflight-bytes", type=int, default=32 * 1024 * 1024, metavar="N",
        help=(
            "global budget of admitted-but-unchecked frame bytes — the "
            "daemon's RSS guardrail (default 32 MiB)"
        ),
    )
    serve.add_argument(
        "--rate-limit-bytes", type=int, default=None, metavar="N",
        help="per-tenant sustained frame bytes per second (default: off)",
    )
    serve.add_argument(
        "--burst-bytes", type=int, default=None, metavar="N",
        help="per-tenant token-bucket capacity (default: 2x rate)",
    )
    serve.add_argument(
        "--queue-timeout", type=float, default=0.5, metavar="SECONDS",
        help=(
            "how long an over-budget frame may wait (rung 0) before "
            "being shed (default 0.5)"
        ),
    )
    serve.add_argument(
        "--retry-after-ms", type=int, default=50, metavar="MS",
        help=(
            "base retry-after hint on a shed; doubles per consecutive "
            "shed (default 50)"
        ),
    )
    serve.add_argument(
        "--max-sheds", type=int, default=8, metavar="N",
        help=(
            "consecutive sheds before a session is rejected outright "
            "(default 8)"
        ),
    )
    serve.add_argument(
        "--checkpoint-bytes", type=int, default=1024 * 1024, metavar="N",
        help=(
            "admitted bytes a session may accumulate before an "
            "intermediate drain releases them (default 1 MiB)"
        ),
    )
    serve.add_argument(
        "--handshake-timeout", type=float, default=5.0, metavar="SECONDS",
        help="seconds a new connection gets to say hello (default 5)",
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=60.0, metavar="SECONDS",
        help="seconds of session silence before disconnect (default 60)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help=(
            "seconds SIGTERM waits for live sessions to finish before "
            "cancelling them (default 30)"
        ),
    )
    serve.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help=(
            "write the server's merged metrics registry to PATH on "
            "shutdown (forces full metrics)"
        ),
    )
    serve.add_argument(
        "--http", default=None, metavar="HOST:PORT",
        help=(
            "serve live telemetry over HTTP at this address: /metrics "
            "(Prometheus text exposition) and /healthz"
        ),
    )
    serve.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help=(
            "write the daemon's chrome://tracing span timeline "
            "(sessions, drains, worker batches) to PATH on shutdown"
        ),
    )
    serve.add_argument(
        "--flight-json", default=None, metavar="PATH",
        help=(
            "dump the flight recorder (recent sheds, rejections, "
            "aborts, chaos firings, slow frames) to PATH on shutdown"
        ),
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=None, metavar="SEED",
        help="inject a deterministic fault plan (testing only)",
    )
    serve.add_argument(
        "--chaos-points", default=None, metavar="P1,P2,...",
        help=(
            "restrict the chaos plan to these fault points "
            f"(valid: {', '.join(FaultPoint.ALL)})"
        ),
    )

    submit = sub.add_parser(
        "submit", help="stream a trace dump through a running daemon"
    )
    submit.add_argument("trace_file", help="path to a .pmtrace dump")
    submit.add_argument(
        "--connect",
        required=True,
        metavar="ADDR",
        help=(
            "daemon address: unix:///path, tcp://host:port, host:port "
            "or a bare socket path"
        ),
    )
    submit.add_argument(
        "--tenant", default="cli",
        help="tenant name for admission accounting (default: cli)",
    )
    submit.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help=(
            "overall budget for connect, backoff and verdict waits; "
            "exceeded -> exit 2 (default: wait forever)"
        ),
    )
    submit.add_argument(
        "--batch-size", type=int, default=16,
        help="traces per frame (default 16)",
    )
    submit.add_argument(
        "--max-reports", type=int, default=20,
        help="print at most this many reports (default 20)",
    )
    submit.add_argument(
        "--quiet", action="store_true", help="print only the summary line"
    )
    submit.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help=(
            "write the client registry merged with the server-shipped "
            "session registry to PATH as JSON (forces full metrics "
            "client-side; inspect with 'repro stats PATH')"
        ),
    )
    submit.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help=(
            "write a chrome://tracing span trace of the client session "
            "to PATH (merge with the daemon's --trace-out file via "
            "repro.core.tracing.merge_trace_files for one timeline)"
        ),
    )

    top = sub.add_parser(
        "top", help="live per-tenant view of a running daemon"
    )
    top.add_argument(
        "--connect",
        required=True,
        metavar="ADDR",
        help=(
            "daemon address: unix:///path, tcp://host:port, host:port "
            "or a bare socket path"
        ),
    )
    top.add_argument(
        "--tenant", default="cli-top",
        help="tenant name for the stats session (default: cli-top)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help=(
            "refresh interval; the daemon floors this at its own "
            "telemetry interval (default 1.0)"
        ),
    )
    top.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop after N refreshes (default 0: run until interrupted)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print a single snapshot and exit (no ANSI refresh)",
    )
    top.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="overall budget for connect and stats waits",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "stats":
        return _stats(args)
    if args.command == "top":
        return _top(args)
    if args.command == "serve":
        return _serve(args)
    try:
        traces = load_traces_auto(args.trace_file)
    except FileNotFoundError:
        print(f"error: no such file: {args.trace_file}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "submit":
        return _submit(args, traces)
    return _check(args, traces)


def _check(args: argparse.Namespace, traces) -> int:
    if args.batch_size is not None and args.batch_size < 1:
        print("error: --batch-size must be >= 1", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print("error: --max-retries must be >= 0", file=sys.stderr)
        return 2
    if args.max_reports < 0:
        print("error: --max-reports must be >= 0", file=sys.stderr)
        return 2
    if args.verdict_cache_size is not None and args.verdict_cache_size < 0:
        print("error: --verdict-cache-size must be >= 0", file=sys.stderr)
        return 2
    if args.shard_min_events is not None and args.shard_min_events < 1:
        print("error: --shard-min-events must be >= 1", file=sys.stderr)
        return 2
    rules: PersistencyRules = MODELS[args.model]()
    faults = (
        plan_from_seed(args.chaos_seed) if args.chaos_seed is not None else None
    )
    # --metrics-json forces a full-level registry so the dump always has
    # the per-stage timings; otherwise the PMTEST_METRICS env decides.
    metrics = make_registry()
    if args.metrics_json is not None and (metrics is None or not metrics.full):
        metrics = MetricsRegistry(MetricsLevel.FULL)
    tracer = Tracer() if args.trace_out is not None else None
    snapshot: Optional[MetricsRegistry] = None
    try:
        with WorkerPool(
            rules,
            num_workers=args.workers,
            backend=args.backend,
            batch_size=args.batch_size,
            check_timeout=args.check_timeout,
            max_retries=args.max_retries,
            fallback=args.fallback,
            faults=faults,
            metrics=metrics,
            tracer=tracer,
            verdict_cache=args.verdict_cache,
            verdict_cache_size=args.verdict_cache_size,
            engine=args.engine,
            shadow=args.shadow,
            shard_min_events=args.shard_min_events,
            shard_plan=args.shard_plan,
        ) as pool:
            for trace in traces:
                pool.submit(trace)
            result = pool.drain()
            snapshot = pool.metrics_snapshot()
    except ValueError as exc:
        # e.g. --shard-min-events without --engine columnar
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckingFailed as exc:
        print(f"error: checking failed: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.finish()
            try:
                tracer.write(args.trace_out)
            except OSError as exc:
                print(
                    f"error: cannot write {args.trace_out}: {exc}",
                    file=sys.stderr,
                )
                return 2
    if args.metrics_json is not None:
        payload = snapshot.to_dict() if snapshot is not None else {}
        try:
            with open(args.metrics_json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(
                f"error: cannot write {args.metrics_json}: {exc}",
                file=sys.stderr,
            )
            return 2
    return _print_result(result, args.model, args.max_reports, args.quiet)


def _print_result(result, label: str, max_reports: int, quiet: bool) -> int:
    print(f"{label}: {result.summary()}")
    if not quiet:
        for report in result.reports[:max_reports]:
            print(f"  {report}")
        hidden = len(result.reports) - max_reports
        if hidden > 0:
            print(f"  ... and {hidden} more")
        for line in result.diagnostics:
            print(f"  [recovery] {line}")
    return 0 if result.passed else 1


def _serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the checking daemon until SIGTERM/SIGINT."""
    from repro.daemon import AdmissionPolicy, CheckingServer

    if args.uds is None and args.host is None:
        print("error: serve needs --uds and/or --host", file=sys.stderr)
        return 2
    points = None
    if args.chaos_points is not None:
        if args.chaos_seed is None:
            print(
                "error: --chaos-points requires --chaos-seed",
                file=sys.stderr,
            )
            return 2
        points = [p.strip() for p in args.chaos_points.split(",") if p.strip()]
    try:
        faults = (
            plan_from_seed(args.chaos_seed, points)
            if args.chaos_seed is not None
            else None
        )
        policy = AdmissionPolicy(
            max_sessions=args.max_sessions,
            max_inflight_bytes=args.inflight_bytes,
            tenant_rate_bytes=args.rate_limit_bytes,
            tenant_burst_bytes=args.burst_bytes,
            queue_timeout=args.queue_timeout,
            retry_after_ms=args.retry_after_ms,
            max_sheds=args.max_sheds,
            checkpoint_bytes=args.checkpoint_bytes,
        )
        http_host: Optional[str] = None
        http_port = 0
        if args.http is not None:
            host, sep, port = args.http.rpartition(":")
            if not sep or not port.isdigit():
                print(
                    f"error: cannot parse --http {args.http!r}; "
                    "expected HOST:PORT",
                    file=sys.stderr,
                )
                return 2
            http_host = host or "127.0.0.1"
            http_port = int(port)
        metrics = make_registry()
        if args.metrics_json is not None and (
            metrics is None or not metrics.full
        ):
            metrics = MetricsRegistry(MetricsLevel.FULL)
        tracer = (
            Tracer(process_name="repro-serve")
            if args.trace_out is not None else None
        )
        server = CheckingServer(
            MODELS[args.model],
            host=args.host,
            port=args.port,
            uds=args.uds,
            workers=args.workers,
            backend=args.backend,
            engine=args.engine,
            shadow=args.shadow,
            shard_min_events=args.shard_min_events,
            shard_plan=args.shard_plan,
            batch_size=args.batch_size,
            verdict_cache=args.verdict_cache,
            policy=policy,
            resilience=Resilience(
                check_timeout=args.check_timeout,
                max_retries=args.max_retries,
                fallback=args.fallback,
            ),
            faults=faults,
            metrics=metrics,
            tracer=tracer,
            http_host=http_host,
            http_port=http_port,
            handshake_timeout=args.handshake_timeout,
            idle_timeout=args.idle_timeout,
            drain_timeout=args.drain_timeout,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return asyncio.run(_serve_async(server, args, tracer))
    except OSError as exc:  # bind failure, stale socket, ...
        print(f"error: cannot listen: {exc}", file=sys.stderr)
        return 2


def _write_text(path: str, data: str) -> bool:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(data)
            if not data.endswith("\n"):
                handle.write("\n")
        return True
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False


async def _serve_async(server, args, tracer: Optional[Tracer]) -> int:
    await server.start()
    server.install_signal_handlers()
    if server.uds_path is not None:
        print(f"listening on unix://{server.uds_path}", flush=True)
    address = server.tcp_address
    if address is not None:
        print(f"listening on tcp://{address[0]}:{address[1]}", flush=True)
    http = server.http_address
    if http is not None:
        print(
            f"telemetry on http://{http[0]}:{http[1]}/metrics", flush=True
        )
    await server.serve_forever()
    admission = server.admission
    print(
        f"drained: {server.sessions_served} session(s), "
        f"{server.traces_accepted} trace(s), "
        f"{admission.frames_shed} shed frame(s), "
        f"{admission.sessions_rejected} rejection(s)",
        flush=True,
    )
    status = 0
    if args.metrics_json is not None:
        snapshot = server.metrics_snapshot()
        payload = snapshot.to_dict() if snapshot is not None else {}
        if not _write_text(
            args.metrics_json,
            json.dumps(payload, indent=2, sort_keys=True),
        ):
            status = 2
    if args.flight_json is not None:
        if server.flight is not None:
            data = server.flight.to_json()
        else:  # metrics off: no recorder existed, dump an empty ring
            data = json.dumps(
                {"capacity": 0, "recorded": 0, "dropped": 0, "events": []},
                indent=2, sort_keys=True,
            )
        if not _write_text(args.flight_json, data):
            status = 2
    if tracer is not None:
        tracer.finish()
        try:
            tracer.write(args.trace_out)
        except OSError as exc:
            print(
                f"error: cannot write {args.trace_out}: {exc}",
                file=sys.stderr,
            )
            status = 2
    return status


def _submit(args: argparse.Namespace, traces) -> int:
    """``repro submit``: stream a dump through a running daemon."""
    from repro.client import (
        CheckingClient,
        DaemonError,
        DeadlineExceeded,
    )

    if args.batch_size < 1:
        print("error: --batch-size must be >= 1", file=sys.stderr)
        return 2
    if args.max_reports < 0:
        print("error: --max-reports must be >= 0", file=sys.stderr)
        return 2
    # Same telemetry semantics as 'repro check': --metrics-json forces a
    # full client-side registry (merged with the server-shipped session
    # registry at the end), --trace-out records the client's spans.
    metrics = make_registry()
    if args.metrics_json is not None and (metrics is None or not metrics.full):
        metrics = MetricsRegistry(MetricsLevel.FULL)
    tracer = (
        Tracer(process_name="repro-submit")
        if args.trace_out is not None else None
    )
    try:
        client = CheckingClient(
            args.connect,
            tenant=args.tenant,
            deadline=args.deadline,
            batch_size=args.batch_size,
            tracer=tracer,
            metrics=metrics,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DaemonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        try:
            for trace in traces:
                client.submit(trace)
            result = client.close()
        except DeadlineExceeded as exc:
            client.abort()
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except DaemonError as exc:
            client.abort()
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        if tracer is not None:
            tracer.finish()
            try:
                tracer.write(args.trace_out)
            except OSError as exc:
                print(
                    f"error: cannot write {args.trace_out}: {exc}",
                    file=sys.stderr,
                )
                return 2
    if args.metrics_json is not None:
        snapshot = client.metrics_snapshot()
        payload = snapshot.to_dict() if snapshot is not None else {}
        if not _write_text(
            args.metrics_json, json.dumps(payload, indent=2, sort_keys=True)
        ):
            return 2
    return _print_result(result, "daemon", args.max_reports, args.quiet)


def _stats(args: argparse.Namespace) -> int:
    """Summarize a trace dump, a metrics JSON dump, or a live daemon.

    With ``--connect`` the stats (or, with ``--flight``, the flight
    recorder) come from a running daemon as JSON.  Otherwise the file
    is sniffed, not switched on extension: a JSON object whose
    ``format`` field is the metrics marker gets the stage-breakdown
    rendering, anything else goes through the trace loader.
    """
    if args.connect is not None:
        return _remote_stats(args)
    if args.flight:
        print("error: --flight requires --connect", file=sys.stderr)
        return 2
    if args.trace_file is None:
        print("error: stats needs a file or --connect", file=sys.stderr)
        return 2
    path = args.trace_file
    try:
        with open(path, "r", encoding="utf-8") as handle:
            head = handle.read()
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        return 2
    except UnicodeDecodeError:
        head = None  # not UTF-8 text, so certainly not a metrics dump
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    payload = None
    if head is not None:
        try:
            payload = json.loads(head)
        except ValueError:
            pass
    if isinstance(payload, dict) and payload.get("format") == JSON_FORMAT:
        try:
            registry = MetricsRegistry.from_dict(payload)
        except (ValueError, KeyError, TypeError) as exc:
            print(f"error: bad metrics dump: {exc}", file=sys.stderr)
            return 2
        return _metrics_stats(registry)
    try:
        traces = load_traces_auto(path)
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _trace_stats(traces)


def _metrics_stats(registry: MetricsRegistry) -> int:
    """Print the Figure-10b-style per-stage latency breakdown."""
    print(f"metrics level: {registry.level.value}")
    for name in ("engine.traces", "engine.events", "engine.checkers",
                 "engine.reports"):
        value = registry.counter_value(name)
        if value:
            print(f"{name.split('.', 1)[1] + ':':10s}{value}")
    # Verdict-cache and write-coalescing effectiveness (only shown when
    # the run actually consulted the cache / merged writes, so dumps
    # from cache-off runs render exactly as before).
    cache_rows = [
        (name, registry.counter_value(name))
        for name in ("cache.hits", "cache.misses", "cache.evictions",
                     "coalesce.writes_merged")
    ]
    if any(value for _, value in cache_rows):
        for name, value in cache_rows:
            print(f"{name + ':':24s}{value}")
        hits = registry.counter_value("cache.hits")
        lookups = hits + registry.counter_value("cache.misses")
        if lookups:
            print(f"{'cache.hit_rate:':24s}{hits / lookups:.1%}")
    rows = stage_breakdown(registry)
    grand_total = sum(total for _, total, _ in rows)
    print()
    print(
        f"{'stage':18s} {'total(ms)':>10s} {'count':>8s} "
        f"{'mean(us)':>10s} {'share':>7s}"
    )
    for label, total_ns, count in rows:
        mean_us = (total_ns / count) / 1e3 if count else 0.0
        share = (total_ns / grand_total) * 100.0 if grand_total else 0.0
        print(
            f"{label:18s} {total_ns / 1e6:>10.3f} {count:>8d} "
            f"{mean_us:>10.2f} {share:>6.1f}%"
        )
    if grand_total == 0:
        print(
            "(no stage timings recorded -- rerun the check with "
            "PMTEST_METRICS=full or --metrics-json)"
        )
    return 0


def _remote_stats(args: argparse.Namespace) -> int:
    """``repro stats --connect``: one live snapshot (or flight dump)."""
    from repro.client import CheckingClient, DaemonError

    try:
        client = CheckingClient(
            args.connect, tenant=args.tenant, deadline=args.deadline
        )
    except (ValueError, DaemonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.flight:
            payload = client.fetch_flight()
        else:
            payload = client.stats_once()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    except DaemonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.abort()  # clean EOF at a frame boundary, not a drain


def _format_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    return f"{n}B"  # pragma: no cover - unreachable


def _render_top(payload: dict, prev: Optional[dict]) -> List[str]:
    """Render one stats payload as the ``repro top`` table."""
    sessions = payload.get("sessions", {})
    admission = payload.get("admission", {})
    lines = [
        (
            f"pmtest daemon  sessions: {sessions.get('active', 0)} active"
            f" / {sessions.get('served', 0)} served"
            f" / {sessions.get('aborted', 0)} aborted"
            f" / {sessions.get('rejected', 0)} rejected"
        ),
        (
            f"traces: {payload.get('traces_accepted', 0)}"
            f"   inflight: {_format_bytes(admission.get('inflight_bytes', 0))}"
            f"/{_format_bytes(admission.get('inflight_limit', 0))}"
            f"   sheds: {admission.get('frames_shed', 0)}"
        ),
        "",
        (
            f"{'TENANT':<16} {'SESS':>5} {'TRACES':>9} {'TR/S':>8} "
            f"{'QUEUED':>7} {'SHEDS':>6} {'P99MS':>8}"
        ),
    ]
    tenants = payload.get("tenants", {})
    prev_tenants = prev.get("tenants", {}) if prev else {}
    dt = payload.get("ts", 0) - prev.get("ts", 0) if prev else 0.0
    for tenant, stats in sorted(tenants.items()):
        rate = "-"
        if prev and dt > 0:
            before = prev_tenants.get(tenant, {}).get("traces", 0)
            rate = f"{(stats.get('traces', 0) - before) / dt:.1f}"
        frame = stats.get("frame_ns")
        p99 = f"{frame['p99'] / 1e6:.2f}" if frame else "-"
        lines.append(
            f"{tenant[:16]:<16} {stats.get('sessions', 0):>5} "
            f"{stats.get('traces', 0):>9} {rate:>8} "
            f"{stats.get('queued_traces', 0):>7} "
            f"{stats.get('frames_shed', 0):>6} {p99:>8}"
        )
    if not tenants:
        lines.append("(no tenants yet)")
    return lines


def _top(args: argparse.Namespace) -> int:
    """``repro top``: refreshing per-tenant view of a running daemon."""
    from repro.client import CheckingClient, DaemonError

    if args.interval <= 0:
        print("error: --interval must be > 0", file=sys.stderr)
        return 2
    try:
        client = CheckingClient(
            args.connect, tenant=args.tenant, deadline=args.deadline
        )
    except (ValueError, DaemonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.once:
            print("\n".join(_render_top(client.stats_once(), None)))
            return 0
        prev: Optional[dict] = None
        height = 0
        shown = 0
        for payload in client.stats_stream(int(args.interval * 1000)):
            lines = _render_top(payload, prev)
            if height:
                # Repaint in place: cursor up over the previous frame,
                # clear to end of screen, redraw.
                sys.stdout.write(f"\x1b[{height}F\x1b[0J")
            sys.stdout.write("\n".join(lines) + "\n")
            sys.stdout.flush()
            prev = payload
            height = len(lines)
            shown += 1
            if args.iterations and shown >= args.iterations:
                return 0
        return 0
    except KeyboardInterrupt:
        return 0
    except DaemonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.abort()


def _trace_stats(traces) -> int:
    events = sum(len(trace) for trace in traces)
    ops = Counter(
        event.op.name for trace in traces for event in trace.events
    )
    threads = sorted({trace.thread_name for trace in traces})
    print(f"traces:  {len(traces)}")
    print(f"events:  {events}")
    print(f"threads: {', '.join(threads) if threads else '-'}")
    for name, count in ops.most_common():
        print(f"  {name:14s} {count}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
