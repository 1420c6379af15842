"""The benchmark's own checks: deterministic inputs, the property each
workload exists to exercise, verdict scoring, and failing cleanly when
the program is missing."""

import os
import shutil
import subprocess
import sys

import pytest

from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.core.rules import X86Rules
from repro.core.traceio import encode_traces_binary
from repro.core.workers import WorkerPool

from entry_points import RequestFailed, parse_check_output
from host_speed import REFERENCE_S, SAMPLE_EVERY_S, SpeedSamples
from orchestrate import Tally
from workload_gen import (
    DumpCounts,
    Verdict,
    make_inputs,
    record,
    run_online,
)

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 1
OTHER_SEED = 7


def _dumps(workload, seed):
    return [
        encode_traces_binary(record(inp))
        for inp in make_inputs(workload, seed)
    ]


def _hit_ratio(workload, seed):
    registry = MetricsRegistry(MetricsLevel.BASIC)
    with WorkerPool(X86Rules(), num_workers=0, metrics=registry) as pool:
        for inp in make_inputs(workload, seed):
            for trace in record(inp):
                pool.submit(trace)
        pool.drain()
        snapshot = pool.metrics_snapshot()
    hits = snapshot.counter_value("cache.hits")
    return hits / (hits + snapshot.counter_value("cache.misses"))


@pytest.mark.parametrize("workload", ["btree-tx", "redis-lru", "bug-corpus"])
def test_same_seed_gives_identical_dumps(workload):
    assert _dumps(workload, DEFAULT_SEED) == _dumps(workload, DEFAULT_SEED)


@pytest.mark.parametrize("workload", ["btree-tx", "redis-lru"])
def test_seed_changes_the_op_stream(workload):
    assert _dumps(workload, DEFAULT_SEED) != _dumps(workload, OTHER_SEED)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, OTHER_SEED])
def test_btree_traces_share_one_shape(seed):
    assert _hit_ratio("btree-tx", seed) >= 0.9


@pytest.mark.parametrize("seed", [DEFAULT_SEED, OTHER_SEED])
def test_redis_traces_are_distinct(seed):
    assert _hit_ratio("redis-lru", seed) <= 0.05


@pytest.mark.parametrize("seed", [DEFAULT_SEED, OTHER_SEED])
def test_every_bug_case_fires_an_expected_report(seed):
    inputs = make_inputs("bug-corpus", seed)
    assert len(inputs) == 48
    for inp in inputs:
        codes = Verdict.of(run_online(inp)).codes
        assert inp.expected.intersection(codes), (inp.name, codes)


def test_dump_counts_match_the_checker():
    inp = make_inputs("btree-tx", DEFAULT_SEED)[0]
    counts = DumpCounts.of(record(inp))
    verdict = Verdict.of(run_online(inp))
    assert (verdict.traces, verdict.events, verdict.checkers) == (
        counts.traces, counts.events, counts.checkers
    )


def test_check_output_is_parsed_with_every_report_code():
    text = (
        "x86: 3 trace(s), 40 event(s), 2 checker(s): 1 FAIL, 1 WARN\n"
        "  [WARN] duplicate-flush: flushed twice @a.c:3\n"
        "  [FAIL] not-persisted: [0x0, 0x8) not persisted @a.c:9\n"
    )
    assert parse_check_output(text, 1) == Verdict(
        3, 40, 2, 1, 1, ("duplicate-flush", "not-persisted")
    )
    with pytest.raises(RequestFailed):
        parse_check_output(text, 0)  # FAIL reported with a clean exit
    with pytest.raises(RequestFailed):
        parse_check_output("error: no such file: x\n", 2)


class _Prep:
    def __init__(self, inputs, counts):
        self.inputs = inputs
        self.counts = counts


def test_a_verdict_that_disagrees_fails_only_its_request():
    inp = make_inputs("btree-tx", DEFAULT_SEED)[0]
    right = Verdict(5, 50, 4, 0, 0, ())
    tally = Tally(prep=_Prep([inp], [DumpCounts(5, 50, 4)]))
    tally.judge(0, {"online": right, "check": right, "submit": right})
    assert (tally.attempted, tally.failed) == (3, 0)
    # Right counts, but a warning on a clean input, on one entry point.
    wrong = Verdict(5, 50, 4, 0, 1, ("duplicate-flush",))
    tally.judge(0, {"online": right, "check": wrong, "submit": right})
    tally.judge(0, {"online": right, "check": right, "submit": "timeout"})
    assert (tally.attempted, tally.failed) == (9, 2)


def test_bug_case_verdict_must_carry_an_expected_code():
    inp = next(i for i in make_inputs("bug-corpus", DEFAULT_SEED)
               if i.name == "O1")
    counts = DumpCounts(2, 20, 3)
    fired = Verdict(2, 20, 3, 1, 0, ("not-ordered",))
    missed = Verdict(2, 20, 3, 1, 0, ("not-persisted",))
    tally = Tally(prep=_Prep([inp], [counts]))
    tally.judge(0, {"online": fired, "check": fired, "submit": fired})
    tally.judge(0, {"online": missed, "check": missed, "submit": missed})
    assert (tally.attempted, tally.failed) == (6, 3)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    copy = tmp_path / "e2ebench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns(
        "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "btree-tx",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_samples_once_per_interval_and_scales_by_the_median():
    speed = SpeedSamples()
    speed.sample()  # the first call always samples
    speed.sample()  # less than SAMPLE_EVERY_S later: nothing due
    assert len(speed.samples) == 1
    speed._last -= 2.5 * SAMPLE_EVERY_S
    speed.sample()
    assert len(speed.samples) == 3
    speed.samples = [0.1, 0.2, 0.9]
    assert speed.scale() == pytest.approx(REFERENCE_S / 0.2)
