#!/usr/bin/env python
"""Perf-regression gate: compare a fresh benchmark JSON to the
committed baselines.

The bench suite dumps derived performance *ratios* (engine speedup,
sharded scaling, zero-copy dispatch speedup, wire-byte ratios) next to
the raw mean runtimes.  Ratios divide out host speed, so a smoke-scale
CI run is comparable against the committed full-scale baselines in
``benchmarks/results/`` — what cannot be divided out is jitter, hence
the tolerance band.

Usage::

    PMTEST_BENCH_JSON=/tmp/fresh.json pytest benchmarks/... (smoke)
    python benchmarks/check_regression.py /tmp/fresh.json

Exits 1 when any tracked ratio regresses more than ``--tolerance``
(default 25%) below its committed value.  Tracked keys missing on
either side are reported and skipped — a partial bench run checks only
what it measured.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Higher-is-better ratios the gate tracks.  Dotted paths descend into
#: nested dicts.
TRACKED_RATIOS = [
    "engine_replay_speedup_columnar_vs_object",
    "engine_best_speedup_columnar_vs_object",
    "shadow_validate_speedup_array_vs_object",
    "shadow_best_speedup_array_vs_object",
    "sharded_checking_scaling_vs_1_worker.process/4-workers",
    "wire_bytes_ratio_pickle_over_binary",
    "verdict_cache_speedup",
    "zerocopy_dispatch_speedup_arena_vs_payload",
    "zerocopy_sharded_scaling_vs_1_worker.process/4-workers",
]


def _lookup(payload: dict, dotted: str):
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None


def load_committed(baseline_dir: Path) -> dict:
    """Tracked values from every committed baseline file, merged.

    Each derived ratio is produced by exactly one bench module, so the
    committed files never disagree on a key; if they ever did, the
    newest file wins and the gate still checks a committed number.
    """
    committed: dict = {}
    for path in sorted(baseline_dir.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"warning: unreadable baseline {path}: {exc}")
            continue
        for key in TRACKED_RATIOS:
            value = _lookup(payload, key)
            if value is not None:
                committed[key] = (value, path.name)
    return committed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", type=Path,
                        help="benchmark JSON from the fresh (smoke) run")
    parser.add_argument("--baseline-dir", type=Path, default=RESULTS_DIR,
                        help="directory of committed baseline JSONs")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    args = parser.parse_args(argv)

    try:
        fresh = json.loads(args.fresh.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read fresh results {args.fresh}: {exc}")
        return 2
    committed = load_committed(args.baseline_dir)
    if not committed:
        print(f"error: no tracked ratios in {args.baseline_dir}")
        return 2

    failures = []
    checked = 0
    width = max(len(key) for key in TRACKED_RATIOS)
    print(f"{'tracked ratio':{width}s} {'committed':>10s} {'fresh':>10s} "
          f"{'floor':>10s}  verdict")
    for key in TRACKED_RATIOS:
        if key not in committed:
            print(f"{key:{width}s} {'-':>10s} {'-':>10s} {'-':>10s}  "
                  "no committed baseline, skipped")
            continue
        base, origin = committed[key]
        value = _lookup(fresh, key)
        if value is None:
            print(f"{key:{width}s} {base:10.4f} {'-':>10s} {'-':>10s}  "
                  "not measured in this run, skipped")
            continue
        floor = base * (1.0 - args.tolerance)
        checked += 1
        ok = value >= floor
        print(f"{key:{width}s} {base:10.4f} {value:10.4f} {floor:10.4f}  "
              f"{'ok' if ok else f'REGRESSION (baseline {origin})'}")
        if not ok:
            failures.append(key)

    if not checked:
        print("error: fresh run measured none of the tracked ratios")
        return 2
    if failures:
        print(f"\n{len(failures)} tracked ratio(s) regressed more than "
              f"{args.tolerance:.0%}: {', '.join(failures)}")
        return 1
    print(f"\nall {checked} measured ratio(s) within {args.tolerance:.0%} "
          "of committed baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
