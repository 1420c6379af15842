"""Set-up, measured rounds, verdict scoring and the result line."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.events import Trace
from repro.core.traceio import dump_traces_binary

import entry_points
import layer_trace
from entry_points import Daemon, RequestFailed, Spawner
from host_speed import SpeedSamples
from workload_gen import (
    DumpCounts,
    ProgramInput,
    ground_truth_error,
    make_inputs,
    record,
)

#: set-ups per untraced run; ``setup_s`` is the median of their
#: host-scaled times
SETUP_REPEATS = 4
#: host-speed samples taken just before and just after each set-up
SETUP_SAMPLES = 3
ENTRY_POINTS = ("online", "check", "submit")


@dataclass
class Prepared:
    """Everything set-up makes: inputs, recorded dumps and the daemon."""

    inputs: List[ProgramInput]
    traces: List[List[Trace]]
    counts: List[DumpCounts]
    dumps: List[str]
    dump_bytes: List[int]
    digest: str
    daemon: Daemon


def set_up(workload: str, seed: int, workdir: str, env: dict) -> Prepared:
    """Generate the op streams, record the PMTB dumps, start the daemon."""
    inputs = make_inputs(workload, seed)
    os.makedirs(workdir)
    traces, counts, dumps, sizes = [], [], [], []
    digest = hashlib.sha256()
    for index, inp in enumerate(inputs):
        recorded = record(inp)
        path = os.path.relpath(os.path.join(workdir, f"{index:02d}.pmtb"))
        dump_traces_binary(recorded, path)
        with open(path, "rb") as handle:
            data = handle.read()
        digest.update(data)
        traces.append(recorded)
        counts.append(DumpCounts.of(recorded))
        dumps.append(path)
        sizes.append(len(data))
    daemon = Daemon(
        tempfile.mkdtemp(prefix="sock-", dir=workdir),
        env,
        os.path.join(workdir, "daemon.log"),
    )
    daemon.start()
    return Prepared(
        inputs, traces, counts, dumps, sizes, digest.hexdigest(), daemon
    )


@dataclass
class Tally:
    """Verdict requests attempted and failed, with the reasons."""

    prep: Optional[Prepared] = None
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def judge(self, index: int, outcomes: Dict[str, object]) -> None:
        """Score one input's three verdicts: each must be a verdict, be
        right by the ground truth, and agree with the other two."""
        inp = self.prep.inputs[index]
        bad = {}
        verdicts = {}
        for entry in ENTRY_POINTS:
            outcome = outcomes.get(entry, "no verdict")
            if isinstance(outcome, str):
                bad[entry] = outcome
                continue
            verdicts[entry] = outcome
            error = ground_truth_error(inp, self.prep.counts[index], outcome)
            if error is not None:
                bad[entry] = error
        if len(verdicts) > 1:
            common, votes = Counter(verdicts.values()).most_common(1)[0]
            for entry, verdict in verdicts.items():
                if votes < 2 or verdict != common:
                    bad.setdefault(entry, f"disagrees: {verdict}")
        self.attempted += len(ENTRY_POINTS)
        self.failed += len(bad)
        for entry, why in sorted(bad.items()):
            self.problems.append(f"{inp.name} {entry}: {why}")


def measured_round(
    prep: Prepared, spawner: Spawner, tally: Tally
) -> Dict[str, float]:
    """Every input once through each entry point, closed loop.

    Returns the round's sums in ``ref_s``, the raw sums (``raw.*``,
    seconds), the host-speed ``scale`` between them, and the peak check
    RSS.
    """
    raw = {"session_s": 0.0, "check_s": 0.0, "submit_s": 0.0}
    speed = SpeedSamples()
    peak_rss = 0.0
    for index, inp in enumerate(prep.inputs):
        outcomes: Dict[str, object] = {}
        speed.sample()
        try:
            seconds, outcomes["online"] = entry_points.online(inp)
            raw["session_s"] += seconds
        except Exception as exc:  # scored as a failed request
            outcomes["online"] = f"{type(exc).__name__}: {exc}"
        speed.sample()
        try:
            seconds, rss, outcomes["check"] = entry_points.check(
                prep.dumps[index], spawner
            )
            raw["check_s"] += seconds
            peak_rss = max(peak_rss, rss)
        except RequestFailed as exc:
            outcomes["check"] = f"{type(exc).__name__}: {exc}"
        speed.sample()
        try:
            seconds, outcomes["submit"], _ = entry_points.submit(
                prep.daemon.address, prep.traces[index]
            )
            raw["submit_s"] += seconds
        except RequestFailed as exc:
            outcomes["submit"] = f"{type(exc).__name__}: {exc}"
        tally.judge(index, outcomes)
    speed.sample()
    scale = speed.scale()
    sums = {name: value * scale for name, value in raw.items()}
    sums.update({f"raw.{name}": value for name, value in raw.items()})
    sums["check_rss_mb"] = peak_rss
    sums["scale"] = scale
    return sums


def _stop(prep: Prepared, tally: Tally) -> None:
    if not prep.daemon.stop():
        tally.problems.append("daemon did not drain and exit 0 on SIGTERM")
        tally.failed += 1


def _measure(args, env: dict, workdir: str, tally: Tally) -> Dict[str, tuple]:
    """The untraced run: set-ups, then measured rounds."""
    setups, raw_setups, digests = [], [], set()
    for repeat in range(SETUP_REPEATS):
        # Each set-up starts from the same heap: the previous one's
        # traces are dropped and collected first, outside the timing.
        if tally.prep is not None:
            _stop(tally.prep, tally)
            tally.prep = None
        gc.collect()
        speed = SpeedSamples()
        speed.take(SETUP_SAMPLES)
        start = time.perf_counter()
        tally.prep = set_up(
            args.workload, args.seed, os.path.join(workdir, f"s{repeat}"), env
        )
        raw_setups.append(time.perf_counter() - start)
        speed.take(SETUP_SAMPLES)
        setups.append(raw_setups[-1] * speed.scale())
        digests.add(tally.prep.digest)
    if len(digests) != 1:
        tally.problems.append("set-ups recorded different dumps")
        tally.failed += 1
    # The recorded traces live for the whole run; keep the collector
    # from walking them inside the timed requests.
    gc.freeze()
    spawner = Spawner(env)
    rounds = []
    try:
        # Another round runs while one of average length still ends
        # within --seconds; the first always runs.
        start = time.perf_counter()
        deadline = start + args.seconds
        while True:
            rounds.append(measured_round(tally.prep, spawner, tally))
            now = time.perf_counter()
            if now + (now - start) / len(rounds) > deadline:
                break
    finally:
        spawner.stop()
    print("# set-ups: " + " ".join(
        f"raw={r:.3f} scaled={s:.3f}" for r, s in zip(raw_setups, setups)
    ))
    for index, sums in enumerate(rounds, 1):
        print(f"# round {index}: " + " ".join(
            f"{name}={value:.3f}" for name, value in sums.items()
        ))
    # Each set-up is scaled for host speed like a round; setup_s keeps
    # the unit s.
    metrics = {"setup_s": (statistics.median(setups), "s")}
    print(f"# setup_s raw median {statistics.median(raw_setups):.6f} s")
    for name in ("session_s", "check_s", "submit_s"):
        metrics[name] = (statistics.median(r[name] for r in rounds), "ref_s")
        print(f"# {name} raw median "
              f"{statistics.median(r['raw.' + name] for r in rounds):.6f} s")
    metrics["check_rss_mb"] = (
        statistics.median(r["check_rss_mb"] for r in rounds), "MB"
    )
    return metrics


def _trace(args, env: dict, workdir: str, tally: Tally) -> Dict[str, tuple]:
    """The traced run: one set-up, then the passes and probes."""
    tally.prep = set_up(
        args.workload, args.seed, os.path.join(workdir, "s0"), env
    )
    gc.freeze()
    spans = os.path.join(
        os.path.dirname(workdir),
        f"spans-{args.workload}-seed{args.seed}.json",
    )
    metrics, notes = layer_trace.traced_run(tally.prep, env, tally.judge, spans)
    print(f"# spans: {os.path.relpath(spans)}; {notes['frame_tail']}; "
          "traced passes " + " ".join(
              f"{t:.3f}" for t in notes["traced_walls_s"]) +
          " s, untraced twins " + " ".join(
              f"{t:.3f}" for t in notes["untraced_walls_s"]) + " s")
    return metrics


def run(args, env: dict, environment: str, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    tally = Tally()
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# {environment}")
    try:
        metrics = (_trace if args.trace else _measure)(
            args, env, workdir, tally
        )
    finally:
        if tally.prep is not None:
            _stop(tally.prep, tally)
        shutil.rmtree(workdir, ignore_errors=True)

    prep = tally.prep
    print(f"# inputs: {len(prep.inputs)}; traces "
          f"{sum(c.traces for c in prep.counts)}, events "
          f"{sum(c.events for c in prep.counts)}, dump bytes "
          f"{sum(prep.dump_bytes)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'fail_ratio':36s} {fail_ratio:14.6f} ratio "
          f"({tally.failed}/{tally.attempted} requests)")
    for problem in tally.problems[:20]:
        print(f"# FAILED {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0
