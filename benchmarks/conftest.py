"""Benchmark-suite configuration and figure reporting.

Each bench module stashes its mean runtimes in ``_harness.RESULTS``;
the terminal-summary hook below turns them into the paper-style derived
tables (slowdown ratios) so a benchmark run ends with the reproduced
figure/table rows, not just raw timings.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

# Make the bench helpers importable when pytest is run from the repo root.
sys.path.insert(0, str(Path(__file__).parent))

import pytest

from _harness import (  # noqa: E402
    DAEMON_LOAD,
    DECODE_REPLAY,
    ENGINE_BEST,
    METRICS,
    RESULTS,
    SHADOW_BEST,
    VERDICT_CACHE,
    WIRE_BYTES,
    ZEROCOPY,
    slowdown,
)


@pytest.fixture(scope="session")
def bench_rounds() -> int:
    """Rounds per benchmark: small, the suite covers many configs."""
    return 2


def _fmt(value) -> str:
    return f"{value:6.2f}x" if value is not None else "   n/a "


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    tr = terminalreporter
    figures = sorted({figure for figure, _ in RESULTS})

    if "fig10a" in figures:
        tr.section("Figure 10a reproduction: microbench slowdown")
        tr.write_line(f"{'structure':16s} {'txsize':>7s} {'PMTest':>8s} "
                      f"{'Pmemcheck':>10s}")
        rows = sorted(
            {(cfg[0], cfg[1]) for fig, cfg in RESULTS if fig == "fig10a"}
        )
        for structure, size in rows:
            pmtest = slowdown("fig10a", (structure, size, "pmtest"),
                              (structure, size, "none"))
            pmc = slowdown("fig10a", (structure, size, "pmemcheck"),
                           (structure, size, "none"))
            tr.write_line(
                f"{structure:16s} {size:7d} {_fmt(pmtest)} {_fmt(pmc):>10s}"
            )

    if "fig10b" in figures:
        tr.section("Figure 10b reproduction: PMTest overhead breakdown")
        tr.write_line(f"{'structure':16s} {'txsize':>7s} {'framework':>10s} "
                      f"{'+checkers':>10s}")
        rows = sorted(
            {(cfg[0], cfg[1]) for fig, cfg in RESULTS if fig == "fig10b"}
        )
        for structure, size in rows:
            framework = slowdown(
                "fig10b", (structure, size, "pmtest-framework"),
                (structure, size, "none"))
            full = slowdown("fig10b", (structure, size, "pmtest"),
                            (structure, size, "none"))
            tr.write_line(
                f"{structure:16s} {size:7d} {_fmt(framework):>10s} "
                f"{_fmt(full):>10s}"
            )

    if "fig10c" in figures:
        tr.section("Ablation: cross-trace verdict cache (repeated traces)")
        off = RESULTS.get(("fig10c", ("cache-off",)))
        on = RESULTS.get(("fig10c", ("cache-on",)))
        if off and on:
            tr.write_line(
                f"cache-off: {off * 1000:8.2f} ms   "
                f"cache-on: {on * 1000:8.2f} ms   "
                f"speedup {off / on:5.2f}x"
            )
        if VERDICT_CACHE:
            tr.write_line(
                f"hit rate {VERDICT_CACHE.get('hit_rate', 0.0):.1%}   "
                f"dead writes coalesced "
                f"{int(VERDICT_CACHE.get('writes_merged', 0))}"
            )

    if "fig11" in figures:
        tr.section("Figure 11 reproduction: real-workload slowdown")
        rows = sorted({cfg[0] for fig, cfg in RESULTS if fig == "fig11"})
        ratios = []
        for workload in rows:
            ratio = slowdown("fig11", (workload, "pmtest"),
                             (workload, "none"))
            if ratio is not None:
                ratios.append(ratio)
            tr.write_line(f"{workload:22s} PMTest {_fmt(ratio)}")
        pmc = slowdown("fig11", ("redis+lru", "pmemcheck"),
                       ("redis+lru", "none"))
        if pmc is not None:
            tr.write_line(f"{'redis+lru':22s} Pmemcheck {_fmt(pmc)}")
        if ratios:
            tr.write_line(f"{'average':22s} PMTest "
                          f"{_fmt(sum(ratios) / len(ratios))}")

    if "fig12" in figures:
        tr.section("Figure 12 reproduction: Memcached scalability")
        tr.write_line(f"{'threads':>7s} {'workers':>8s} {'slowdown':>9s}")
        rows = sorted(
            {(cfg[0], cfg[1]) for fig, cfg in RESULTS
             if fig == "fig12" and cfg[2] == "pmtest"}
        )
        for threads, workers in rows:
            ratio = slowdown("fig12", (threads, workers, "pmtest"),
                             (threads, 0, "none"))
            tr.write_line(f"{threads:7d} {workers:8d} {_fmt(ratio):>9s}")

    if "ablation-batching" in figures:
        tr.section("Ablation: trace batching (SEND_TRACE granularity)")
        rows = sorted(
            {cfg[0] for fig, cfg in RESULTS if fig == "ablation-batching"}
        )
        for every in rows:
            ratio = slowdown("ablation-batching", (every, "pmtest"),
                             (every, "none"))
            tr.write_line(f"trace_every={every:<5d} PMTest {_fmt(ratio)}")

    if "ablation-sites" in figures:
        tr.section("Ablation: source-site capture")
        for mode in ("off", "on"):
            ratio = slowdown("ablation-sites", (mode, "pmtest"),
                             ("off", "none"))
            tr.write_line(f"capture_sites={mode:3s} PMTest {_fmt(ratio)}")

    if "fig12-backend" in figures:
        tr.section("Backend scaling: checking throughput (thread vs process)")
        tr.write_line(f"{'backend':>8s} {'workers':>8s} {'seconds':>9s} "
                      f"{'vs 1 worker':>12s}")
        rows = sorted(
            {cfg for fig, cfg in RESULTS if fig == "fig12-backend"}
        )
        for backend, workers in rows:
            seconds = RESULTS.get(("fig12-backend", (backend, workers)))
            base = RESULTS.get(("fig12-backend", (backend, 1)))
            scaling = (
                f"{base / seconds:10.2f}x" if seconds and base else "       n/a"
            )
            tr.write_line(
                f"{backend:>8s} {workers:8d} {seconds:9.4f} {scaling:>12s}"
            )

    if WIRE_BYTES:
        tr.section("Wire bytes per trace (fig12f)")
        for codec in sorted(WIRE_BYTES):
            tr.write_line(
                f"{codec:>7s} wire: {WIRE_BYTES[codec]:8.1f} bytes/trace"
            )
        ratio = WIRE_BYTES.get("pickle", 0) / WIRE_BYTES["binary"]
        tr.write_line(f"binary is {ratio:.2f}x fewer bytes per trace")

    if "fig12-engine" in figures or ENGINE_BEST:
        tr.section("Ablation: replay engine (object vs columnar)")
        for engine in sorted(
            {cfg[0] for fig, cfg in RESULTS if fig == "fig12-engine"}
        ):
            seconds = RESULTS.get(("fig12-engine", (engine,)))
            tr.write_line(f"{engine:>9s} decode+check: {seconds:9.4f} s")
        if ENGINE_BEST.get("columnar"):
            speedup = ENGINE_BEST["object"] / ENGINE_BEST["columnar"]
            tr.write_line(
                f"columnar best-of-rounds speedup {speedup:5.2f}x "
                "(fig10a micro workload)"
            )
        for engine in sorted(DECODE_REPLAY):
            row = DECODE_REPLAY[engine]
            tr.write_line(
                f"{engine:>9s} split: decode {row['decode_seconds']*1000:8.2f} ms"
                f"   replay {row['replay_seconds']*1000:8.2f} ms"
                f"   ({row['batches']} batches)"
            )

    if "fig12-shard" in figures:
        tr.section("Epoch-sharded checking: large traces split across workers")
        tr.write_line(f"{'backend':>8s} {'workers':>8s} {'seconds':>9s} "
                      f"{'vs 1 worker':>12s}")
        rows = sorted({cfg for fig, cfg in RESULTS if fig == "fig12-shard"})
        for backend, workers in rows:
            seconds = RESULTS.get(("fig12-shard", (backend, workers)))
            base = RESULTS.get(("fig12-shard", (backend, 1)))
            scaling = (
                f"{base / seconds:10.2f}x" if seconds and base else "       n/a"
            )
            tr.write_line(
                f"{backend:>8s} {workers:8d} {seconds:9.4f} {scaling:>12s}"
            )

    if "ablation-shadow" in figures:
        tr.section("Ablation: interval-map vs per-byte shadow memory")
        interval = RESULTS.get(("ablation-shadow", ("interval",)))
        naive = RESULTS.get(("ablation-shadow", ("naive",)))
        if interval and naive:
            tr.write_line(
                f"interval map: {interval * 1000:8.2f} ms   "
                f"per-byte dict: {naive * 1000:8.2f} ms   "
                f"speedup {naive / interval:5.1f}x"
            )

    if "ablation-intervalquery" in figures:
        tr.section("Ablation: bounded interval-map queries vs per-byte")
        interval = RESULTS.get(("ablation-intervalquery", ("interval",)))
        naive = RESULTS.get(("ablation-intervalquery", ("naive",)))
        if interval and naive:
            tr.write_line(
                f"interval map: {interval * 1000:8.2f} ms   "
                f"per-byte dict: {naive * 1000:8.2f} ms   "
                f"speedup {naive / interval:5.1f}x"
            )

    if "fig12k" in figures or SHADOW_BEST:
        tr.section("Fig 12k: shadow-plane ablation (object vs array)")
        for shadow in sorted(
            {cfg[0] for fig, cfg in RESULTS if fig == "fig12k"}
        ):
            seconds = RESULTS.get(("fig12k", (shadow,)))
            tr.write_line(f"{shadow:>7s} validate: {seconds * 1000:9.2f} ms")
        if SHADOW_BEST.get("array"):
            speedup = SHADOW_BEST["object"] / SHADOW_BEST["array"]
            tr.write_line(
                f"array best-of-rounds speedup {speedup:5.2f}x "
                "(interval-heavy micro workload)"
            )

    if "fig12i" in figures or DAEMON_LOAD:
        tr.section("Fig 12i: checking-as-a-service daemon load")
        for cfg in ("library", "daemon-uds", "daemon-overload"):
            seconds = RESULTS.get(("fig12i", (cfg,)))
            if seconds:
                tr.write_line(f"{cfg:>16s}: {seconds * 1000:8.2f} ms")
        if DAEMON_LOAD:
            rate = DAEMON_LOAD.get("sustained_traces_per_sec")
            p99 = DAEMON_LOAD.get("frame_p99_ms")
            if rate is not None and p99 is not None:
                tr.write_line(
                    f"sustained {rate:8.0f} traces/s   "
                    f"frame p50 {DAEMON_LOAD.get('frame_p50_ms', 0):.2f} ms   "
                    f"p99 {p99:.2f} ms"
                )
            sheds = DAEMON_LOAD.get("overload_sheds_per_round")
            if sheds is not None:
                tr.write_line(
                    f"2x overload: {sheds:6.1f} sheds/round, still "
                    f"{DAEMON_LOAD.get('overload_traces_per_sec', 0):8.0f}"
                    " traces/s to verdict"
                )

    if "fig12j" in figures or ZEROCOPY:
        tr.section("Fig 12j: zero-copy shard dispatch ablation")
        payload_t = RESULTS.get(("fig12j", ("payload",)))
        arena_t = RESULTS.get(("fig12j", ("arena",)))
        if payload_t and arena_t:
            tr.write_line(
                f"payload dispatch: {payload_t * 1000:8.2f} ms   "
                f"arena dispatch: {arena_t * 1000:8.2f} ms   "
                f"speedup {payload_t / arena_t:5.2f}x"
            )
        serial = RESULTS.get(("fig12j-shard", ("process", 1)))
        parallel = RESULTS.get(("fig12j-shard", ("process", 4)))
        if serial and parallel:
            tr.write_line(
                f"sharded scaling 4-vs-1 workers: {serial / parallel:5.2f}x"
            )
        if ZEROCOPY:
            tr.write_line(
                f"dispatch wire: "
                f"{ZEROCOPY.get('dispatch_bytes_per_shard', 0):.1f} B/shard "
                f"({int(ZEROCOPY.get('events_large_trace', 0))}-event trace "
                f"ships {int(ZEROCOPY.get('dispatch_bytes_large_trace', 0))}"
                " B total)"
            )

    _dump_json(tr)


def _dump_json(tr) -> None:
    """Write every recorded mean (plus derived scaling numbers) to the
    path in ``PMTEST_BENCH_JSON`` so runs can be committed/compared."""
    path = os.environ.get("PMTEST_BENCH_JSON")
    if not path:
        return
    payload = {
        "cpu_count": os.cpu_count(),
        "mean_seconds": {
            f"{figure}/{'/'.join(str(part) for part in config)}": seconds
            for (figure, config), seconds in sorted(RESULTS.items())
        },
    }
    backends = sorted(
        {cfg[0] for fig, cfg in RESULTS if fig == "fig12-backend"}
    )
    if backends:
        scaling = {}
        for backend in backends:
            base = RESULTS.get(("fig12-backend", (backend, 1)))
            for fig, cfg in sorted(RESULTS):
                if fig != "fig12-backend" or cfg[0] != backend or not base:
                    continue
                seconds = RESULTS[(fig, cfg)]
                scaling[f"{backend}/{cfg[1]}-workers"] = (
                    base / seconds if seconds else None
                )
        payload["backend_throughput_scaling_vs_1_worker"] = scaling
    engine_base = RESULTS.get(("fig12-engine", ("object",)))
    engine_col = RESULTS.get(("fig12-engine", ("columnar",)))
    if engine_base and engine_col:
        payload["engine_replay_speedup_columnar_vs_object"] = (
            engine_base / engine_col
        )
    if ENGINE_BEST.get("columnar"):
        payload["engine_best_of_rounds"] = dict(sorted(ENGINE_BEST.items()))
        payload["engine_best_speedup_columnar_vs_object"] = (
            ENGINE_BEST["object"] / ENGINE_BEST["columnar"]
        )
    shadow_obj = RESULTS.get(("fig12k", ("object",)))
    shadow_arr = RESULTS.get(("fig12k", ("array",)))
    if shadow_obj and shadow_arr:
        payload["shadow_validate_speedup_array_vs_object"] = (
            shadow_obj / shadow_arr
        )
    if SHADOW_BEST.get("array"):
        payload["shadow_best_of_rounds"] = dict(sorted(SHADOW_BEST.items()))
        payload["shadow_best_speedup_array_vs_object"] = (
            SHADOW_BEST["object"] / SHADOW_BEST["array"]
        )
    if DECODE_REPLAY:
        payload["decode_replay_split"] = {
            engine: DECODE_REPLAY[engine] for engine in sorted(DECODE_REPLAY)
        }
    shard_backends = sorted(
        {cfg[0] for fig, cfg in RESULTS if fig == "fig12-shard"}
    )
    if shard_backends:
        scaling = {}
        for backend in shard_backends:
            base = RESULTS.get(("fig12-shard", (backend, 1)))
            for fig, cfg in sorted(RESULTS):
                if fig != "fig12-shard" or cfg[0] != backend or not base:
                    continue
                seconds = RESULTS[(fig, cfg)]
                scaling[f"{backend}/{cfg[1]}-workers"] = (
                    base / seconds if seconds else None
                )
        payload["sharded_checking_scaling_vs_1_worker"] = scaling
    if WIRE_BYTES:
        payload["wire_bytes_per_trace"] = dict(sorted(WIRE_BYTES.items()))
        payload["wire_bytes_ratio_pickle_over_binary"] = (
            WIRE_BYTES["pickle"] / WIRE_BYTES["binary"]
        )
    cache_off = RESULTS.get(("fig10c", ("cache-off",)))
    cache_on = RESULTS.get(("fig10c", ("cache-on",)))
    if cache_off and cache_on:
        payload["verdict_cache_speedup"] = cache_off / cache_on
        payload["verdict_cache"] = dict(sorted(VERDICT_CACHE.items()))
    zc_payload = RESULTS.get(("fig12j", ("payload",)))
    zc_arena = RESULTS.get(("fig12j", ("arena",)))
    if zc_payload and zc_arena:
        payload["zerocopy_dispatch_speedup_arena_vs_payload"] = (
            zc_payload / zc_arena
        )
    zc_serial = RESULTS.get(("fig12j-shard", ("process", 1)))
    if zc_serial:
        payload["zerocopy_sharded_scaling_vs_1_worker"] = {
            f"process/{cfg[1]}-workers": (
                zc_serial / seconds if seconds else None
            )
            for (fig, cfg), seconds in sorted(RESULTS.items())
            if fig == "fig12j-shard"
        }
    if ZEROCOPY:
        payload["zerocopy_dispatch_bytes"] = dict(sorted(ZEROCOPY.items()))
    if DAEMON_LOAD:
        payload["daemon_load"] = dict(sorted(DAEMON_LOAD.items()))
        library = RESULTS.get(("fig12i", ("library",)))
        daemon = RESULTS.get(("fig12i", ("daemon-uds",)))
        if library and daemon:
            payload["daemon_overhead_vs_library"] = daemon / library
    if METRICS:
        payload["metrics"] = {
            f"{figure}/{'/'.join(str(part) for part in config)}": data
            for (figure, config), data in sorted(METRICS.items())
        }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    tr.write_line(f"benchmark JSON written to {path}")
