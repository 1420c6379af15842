"""Verdict cache and write-coalescing: equivalence is the contract.

Three layers of guarantees under test:

* knob resolution and LRU mechanics of :class:`VerdictCache`;
* the engine-level guarantee that cache-on and coalesce-on runs return
  results byte-identical to plain replays — including report messages,
  source sites, counts and metadata — over constructed traces, random
  traces, and the full injected-bug corpus;
* the pipeline-level guarantee that per-worker caches in every backend
  change nothing observable except the ``cache.*`` counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bugs import HISTORICAL_BUGS, SYNTHETIC_BUGS, run_bug_case
from repro.core.canon import canonicalize
from repro.core.engine import CheckingEngine, coalesce_events
from repro.core.events import Event, Op, SourceSite, Trace
from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.core.reports import TestResult
from repro.core.traceio import TraceRecorder, encode_result
from repro.core.verdict_cache import (
    DEFAULT_CACHE_SIZE,
    VerdictCache,
    build_template,
    rehydrate,
    resolve_cache_size,
)
from repro.core.workers import WorkerPool

SITE = SourceSite("store.c", 17)


def _unflushed_trace(base, trace_id):
    """WRITE + CHECK_PERSIST with no flush: always produces a report."""
    return Trace(
        trace_id=trace_id,
        events=[
            Event(Op.WRITE, base, 64, site=SITE, seq=0),
            Event(Op.CHECK_PERSIST, base, 64, site=SITE, seq=1),
        ],
    )


def _clean_trace(base, trace_id):
    """Properly persisted skeleton: no reports."""
    return Trace(
        trace_id=trace_id,
        events=[
            Event(Op.WRITE, base, 8, site=SITE, seq=0),
            Event(Op.CLWB, base, 8, site=SITE, seq=1),
            Event(Op.SFENCE, seq=2),
            Event(Op.CHECK_PERSIST, base, 8, site=SITE, seq=3),
        ],
    )


def _results_identical(a: TestResult, b: TestResult) -> None:
    assert a.reports == b.reports
    assert [r.site for r in a.reports] == [r.site for r in b.reports]
    assert [r.trace_id for r in a.reports] == [r.trace_id for r in b.reports]
    assert a.traces_checked == b.traces_checked
    assert a.events_checked == b.events_checked
    assert a.checkers_evaluated == b.checkers_evaluated
    assert a.metadata == b.metadata


# ----------------------------------------------------------------------
# Knob resolution
# ----------------------------------------------------------------------
class TestResolveCacheSize:
    def test_defaults_on(self, monkeypatch):
        monkeypatch.delenv("PMTEST_VERDICT_CACHE", raising=False)
        assert resolve_cache_size() == DEFAULT_CACHE_SIZE

    def test_explicit_off_wins(self, monkeypatch):
        monkeypatch.setenv("PMTEST_VERDICT_CACHE", "64")
        assert resolve_cache_size(enabled=False) == 0

    def test_explicit_size(self, monkeypatch):
        monkeypatch.delenv("PMTEST_VERDICT_CACHE", raising=False)
        assert resolve_cache_size(size=7) == 7
        assert resolve_cache_size(size=0) == 0

    @pytest.mark.parametrize("value", ["off", "0", "false", "no", "OFF"])
    def test_env_off_values(self, monkeypatch, value):
        monkeypatch.setenv("PMTEST_VERDICT_CACHE", value)
        assert resolve_cache_size() == 0

    @pytest.mark.parametrize("value", ["on", "true", "yes", ""])
    def test_env_on_values(self, monkeypatch, value):
        monkeypatch.setenv("PMTEST_VERDICT_CACHE", value)
        assert resolve_cache_size() == DEFAULT_CACHE_SIZE

    def test_env_integer_capacity(self, monkeypatch):
        monkeypatch.setenv("PMTEST_VERDICT_CACHE", "32")
        assert resolve_cache_size() == 32

    def test_size_param_beats_env_size(self, monkeypatch):
        monkeypatch.setenv("PMTEST_VERDICT_CACHE", "32")
        assert resolve_cache_size(size=8) == 8

    def test_env_bad_value_rejected(self, monkeypatch):
        monkeypatch.setenv("PMTEST_VERDICT_CACHE", "maybe")
        with pytest.raises(ValueError):
            resolve_cache_size()

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            resolve_cache_size(size=-1)

    def test_enabled_true_ignores_env_off(self, monkeypatch):
        monkeypatch.setenv("PMTEST_VERDICT_CACHE", "off")
        assert resolve_cache_size(enabled=True) == DEFAULT_CACHE_SIZE


# ----------------------------------------------------------------------
# LRU mechanics
# ----------------------------------------------------------------------
class TestVerdictCacheLRU:
    @staticmethod
    def _template(base):
        trace = _clean_trace(base, 0)
        form = canonicalize(trace.events)
        result = CheckingEngine().check_trace(trace)
        return build_template(result, form.relocation, 0)

    def test_capacity_enforced(self):
        with pytest.raises(ValueError):
            VerdictCache(0)

    def test_eviction_order_is_lru(self):
        cache = VerdictCache(2)
        t = self._template(0x1000)
        cache.store(b"a", t)
        cache.store(b"b", t)
        assert cache.lookup(b"a") is not None  # refresh "a"
        evicted = cache.store(b"c", t)  # "b" is now the LRU entry
        assert evicted == 1
        assert cache.lookup(b"b") is None
        assert cache.lookup(b"a") is not None
        assert cache.lookup(b"c") is not None

    def test_counters(self):
        cache = VerdictCache(1)
        t = self._template(0x1000)
        assert cache.lookup(b"x") is None
        cache.store(b"x", t)
        assert cache.lookup(b"x") is not None
        cache.store(b"y", t)  # evicts "x"
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.evictions == 1
        assert len(cache) == 1
        assert cache.hit_rate() == 0.5


# ----------------------------------------------------------------------
# Template round trips
# ----------------------------------------------------------------------
class TestTemplates:
    def test_build_and_rehydrate_identical(self):
        trace = _unflushed_trace(0x1000, 3)
        result = CheckingEngine().check_trace(trace)
        assert result.reports  # the workload actually reports
        form = canonicalize(trace.events)
        template = build_template(result, form.relocation, 3)
        assert template is not None
        back = rehydrate(template, form.relocation, 3, len(trace.events))
        _results_identical(back, result)

    def test_template_reports_are_canonical(self):
        trace = _unflushed_trace(0x1000, 3)
        result = CheckingEngine().check_trace(trace)
        form = canonicalize(trace.events)
        template = build_template(result, form.relocation, 3)
        for report in template.reports:
            assert report.trace_id == -1
            assert "0x1000" not in report.message  # rewritten

    def test_rehydrate_for_relocated_trace(self):
        first = _unflushed_trace(0x1000, 0)
        result = CheckingEngine().check_trace(first)
        template = build_template(
            result, canonicalize(first.events).relocation, 0
        )
        other = _unflushed_trace(0xBEEF00, 9)
        other_form = canonicalize(other.events)
        assert other_form.fingerprint == canonicalize(first.events).fingerprint
        back = rehydrate(template, other_form.relocation, 9, len(other.events))
        fresh = CheckingEngine().check_trace(other)
        _results_identical(back, fresh)
        assert any("0xbeef00" in r.message for r in back.reports)


# ----------------------------------------------------------------------
# Engine-level equivalence
# ----------------------------------------------------------------------
class TestEngineCache:
    def test_repeated_traces_hit_and_match(self):
        eng_off = CheckingEngine(coalesce=False)
        eng_on = CheckingEngine(cache=VerdictCache(16))
        bases = [0x1000, 0x2000, 0x30000, 0x1000]
        for i, base in enumerate(bases):
            fresh = eng_off.check_trace(_unflushed_trace(base, i))
            cached = eng_on.check_trace(_unflushed_trace(base, i))
            _results_identical(fresh, cached)
        assert eng_on.cache.hits == 3
        assert eng_on.cache.misses == 1

    def test_hits_survive_clean_traces(self):
        eng = CheckingEngine(cache=VerdictCache(16))
        for i in range(5):
            result = eng.check_trace(_clean_trace(0x4000 + i * 0x100, i))
            assert result.reports == []
            assert result.events_checked == 4
        assert eng.cache.hits == 4

    def test_cache_metrics_mirrored(self):
        metrics = MetricsRegistry(MetricsLevel.BASIC)
        eng = CheckingEngine(metrics=metrics, cache=VerdictCache(16))
        for i in range(4):
            eng.check_trace(_clean_trace(0x4000, i))
        assert metrics.counter_value("cache.hits") == 3
        assert metrics.counter_value("cache.misses") == 1

    def test_engine_counters_match_fresh_replay(self):
        """A hit must book exactly the counters a replay would have."""
        for level in (MetricsLevel.BASIC, MetricsLevel.FULL):
            fresh_m = MetricsRegistry(level)
            cached_m = MetricsRegistry(level)
            fresh = CheckingEngine(metrics=fresh_m)
            cached = CheckingEngine(metrics=cached_m, cache=VerdictCache(16))
            for i, base in enumerate((0x1000, 0x5000, 0x1000, 0x1000)):
                fresh.check_trace(_unflushed_trace(base, i))
                cached.check_trace(_unflushed_trace(base, i))
            for name in (
                "engine.traces", "engine.events", "engine.checkers",
                "engine.reports", "engine.op.WRITE",
                "engine.op.CHECK_PERSIST", "engine.interval_queries",
                "engine.interval_scanned",
            ):
                assert fresh_m.counter_value(name) == cached_m.counter_value(
                    name
                ), (level, name)
            if level is MetricsLevel.FULL:
                a = fresh_m.to_dict()["histograms"]
                b = cached_m.to_dict()["histograms"]
                for name in ("engine.op_ns.WRITE", "engine.op_ns.CHECK_PERSIST"):
                    assert a[name]["count"] == b[name]["count"]

    def test_eviction_never_changes_verdicts(self):
        eng_off = CheckingEngine(coalesce=False)
        eng_on = CheckingEngine(cache=VerdictCache(2))  # constant churn

        def structurally_distinct(i, tid):
            # i+1 unflushed writes: different skeletons, never the same
            # fingerprint (base addresses alone would be relocated away).
            events = [
                Event(Op.WRITE, 0x1000 + 0x40 * k, 8, site=SITE, seq=k)
                for k in range(0, 2 * (i + 1), 2)
            ]
            n = len(events)
            events.append(
                Event(Op.CHECK_PERSIST, 0x1000, 8, site=SITE, seq=n)
            )
            return Trace(trace_id=tid, events=events)

        for i in range(20):
            variant = i % 5
            _results_identical(
                eng_off.check_trace(structurally_distinct(variant, i)),
                eng_on.check_trace(structurally_distinct(variant, i)),
            )
        assert eng_on.cache.evictions > 0


# ----------------------------------------------------------------------
# Write-coalescing
# ----------------------------------------------------------------------
class TestCoalesceEvents:
    def test_dead_write_dropped(self):
        events = [
            Event(Op.WRITE, 0x100, 8, seq=0),
            Event(Op.WRITE, 0x100, 8, seq=1),
            Event(Op.SFENCE, seq=2),
        ]
        out, dropped = coalesce_events(events)
        assert dropped == 1
        assert out[0].seq == 1  # the later write survives

    def test_union_of_later_writes_kills_earlier(self):
        events = [
            Event(Op.WRITE, 0x100, 16, seq=0),
            Event(Op.WRITE, 0x100, 8, seq=1),
            Event(Op.WRITE, 0x108, 8, seq=2),
        ]
        out, dropped = coalesce_events(events)
        assert dropped == 1
        assert [e.seq for e in out] == [1, 2]

    def test_partial_overlap_kept(self):
        events = [
            Event(Op.WRITE, 0x100, 16, seq=0),
            Event(Op.WRITE, 0x100, 8, seq=1),
        ]
        out, dropped = coalesce_events(events)
        assert dropped == 0
        assert out is events

    def test_any_barrier_splits_runs(self):
        for barrier in (
            Event(Op.CLWB, 0x100, 8, seq=1),
            Event(Op.SFENCE, seq=1),
            Event(Op.TX_ADD, 0x100, 8, seq=1),
            Event(Op.CHECK_PERSIST, 0x100, 8, seq=1),
        ):
            events = [
                Event(Op.WRITE, 0x100, 8, seq=0),
                barrier,
                Event(Op.WRITE, 0x100, 8, seq=2),
            ]
            out, dropped = coalesce_events(events)
            assert dropped == 0, barrier
            assert out is events

    def test_tx_checker_scope_is_exempt(self):
        # Inside TX_CHECKER every write emits its own missing-log check,
        # so elimination there would change report multiplicity.
        events = [
            Event(Op.TX_CHECK_START, seq=0),
            Event(Op.WRITE, 0x100, 8, seq=1),
            Event(Op.WRITE, 0x100, 8, seq=2),
            Event(Op.TX_CHECK_END, seq=3),
        ]
        out, dropped = coalesce_events(events)
        assert dropped == 0
        assert out is events
        # ... and elimination resumes after the scope closes.
        events = events + [
            Event(Op.WRITE, 0x200, 8, seq=4),
            Event(Op.WRITE, 0x200, 8, seq=5),
        ]
        out, dropped = coalesce_events(events)
        assert dropped == 1

    def test_mixed_write_flavours_coalesce(self):
        events = [
            Event(Op.WRITE_NT, 0x100, 8, seq=0),
            Event(Op.WRITE, 0x100, 8, seq=1),
        ]
        out, dropped = coalesce_events(events)
        assert dropped == 1

    def test_engine_counts_merged_writes(self):
        metrics = MetricsRegistry(MetricsLevel.BASIC)
        eng = CheckingEngine(metrics=metrics)
        trace = Trace(
            trace_id=0,
            events=[
                Event(Op.WRITE, 0x100, 8, seq=0),
                Event(Op.WRITE, 0x100, 8, seq=1),
                Event(Op.SFENCE, seq=2),
            ],
        )
        result = eng.check_trace(trace)
        assert eng.writes_merged == 1
        assert metrics.counter_value("coalesce.writes_merged") == 1
        # events_checked still reports the original trace length.
        assert result.events_checked == 3
        assert metrics.counter_value("engine.events") == 3

    def test_coalescing_preserves_verdicts_on_dup_flush(self):
        # Duplicate-flush diagnostics must be untouched by coalescing.
        events = [
            Event(Op.WRITE, 0x100, 8, site=SITE, seq=0),
            Event(Op.WRITE, 0x100, 8, site=SITE, seq=1),
            Event(Op.CLWB, 0x100, 8, site=SITE, seq=2),
            Event(Op.CLWB, 0x100, 8, site=SITE, seq=3),
            Event(Op.SFENCE, seq=4),
        ]
        plain = CheckingEngine(coalesce=False).check_trace(Trace(0, list(events)))
        merged = CheckingEngine().check_trace(Trace(0, list(events)))
        _results_identical(plain, merged)


# ----------------------------------------------------------------------
# Differential: bug corpus, all models of use
# ----------------------------------------------------------------------
def _corpus_traces():
    traces = []
    for case in SYNTHETIC_BUGS + HISTORICAL_BUGS:
        recorder = TraceRecorder()
        run_bug_case(case, scale=8, sink=recorder)
        traces.extend(recorder.traces)
    return traces


def test_coalescing_differential_over_bug_corpus():
    """coalesce-on == coalesce-off, report for report, on every injected
    bug workload."""
    traces = _corpus_traces()
    assert len(traces) > 50
    plain = CheckingEngine(coalesce=False)
    merged = CheckingEngine(coalesce=True)
    for trace in traces:
        _results_identical(plain.check_trace(trace), merged.check_trace(trace))


def test_cache_differential_over_bug_corpus():
    """cache-on == cache-off over the corpus, with a tiny cache for
    constant eviction churn."""
    traces = _corpus_traces()
    plain = CheckingEngine(coalesce=False)
    cached = CheckingEngine(cache=VerdictCache(8))
    for trace in traces:
        _results_identical(
            plain.check_trace(trace), cached.check_trace(trace)
        )
    assert cached.cache.hits > 0  # the corpus repeats structures


# ----------------------------------------------------------------------
# Pipeline-level equivalence across backends
# ----------------------------------------------------------------------
def _pipeline_traces():
    traces = []
    tid = 0
    for round_ in range(3):  # duplicates force cross-trace hits
        for base in (0x1000, 0x8000, 0x40000):
            traces.append(_unflushed_trace(base, tid))
            tid += 1
            traces.append(_clean_trace(base, tid))
            tid += 1
    return traces


@pytest.mark.parametrize(
    "backend,workers",
    [("inline", 0), ("thread", 2), ("process", 2)],
)
def test_cache_on_off_identical_across_backends(backend, workers):
    traces = _pipeline_traces()
    encoded = {}
    for cache_on in (False, True):
        with WorkerPool(
            num_workers=workers,
            backend=backend,
            verdict_cache=cache_on,
            verdict_cache_size=4,
        ) as pool:
            for trace in traces:
                pool.submit(trace)
            encoded[cache_on] = encode_result(pool.drain())
    assert encoded[True] == encoded[False]


def test_worker_cache_counters_merge_through_metrics():
    traces = _pipeline_traces()
    metrics = MetricsRegistry(MetricsLevel.BASIC)
    with WorkerPool(
        num_workers=2,
        backend="thread",
        metrics=metrics,
        verdict_cache=True,
    ) as pool:
        for trace in traces:
            pool.submit(trace)
        pool.drain()
        snapshot = pool.metrics_snapshot()
    hits = snapshot.counter_value("cache.hits")
    misses = snapshot.counter_value("cache.misses")
    assert hits + misses == len(traces)
    assert hits > 0


def test_process_worker_cache_counters_ship_on_wire():
    traces = _pipeline_traces()
    metrics = MetricsRegistry(MetricsLevel.BASIC)
    with WorkerPool(
        num_workers=2,
        backend="process",
        metrics=metrics,
        verdict_cache=True,
    ) as pool:
        for trace in traces:
            pool.submit(trace)
        pool.drain()
        snapshot = pool.metrics_snapshot()
    assert (
        snapshot.counter_value("cache.hits")
        + snapshot.counter_value("cache.misses")
        == len(traces)
    )


# ----------------------------------------------------------------------
# Property: random traces, cache-on == cache-off == coalesce-off
# ----------------------------------------------------------------------
_RANGE_OPS = [Op.WRITE, Op.WRITE_NT, Op.CLWB, Op.CLFLUSHOPT, Op.CLFLUSH,
              Op.CHECK_PERSIST, Op.TX_ADD, Op.EXCLUDE, Op.INCLUDE]


@st.composite
def _random_trace(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    events = []
    tx_open = 0
    for seq in range(n):
        kind = draw(st.integers(0, 9))
        if kind <= 5:
            op = draw(st.sampled_from(_RANGE_OPS))
            addr = 0x1000 + draw(st.integers(0, 96))
            size = draw(st.integers(1, 32))
            events.append(Event(op, addr, size, site=SITE, seq=seq))
        elif kind == 6:
            events.append(Event(Op.SFENCE, seq=seq))
        elif kind == 7:
            events.append(Event(Op.TX_BEGIN, seq=seq))
            tx_open += 1
        elif kind == 8 and tx_open:
            events.append(Event(Op.TX_END, seq=seq))
            tx_open -= 1
        else:
            a = 0x1000 + draw(st.integers(0, 96))
            b = 0x1000 + draw(st.integers(0, 96))
            events.append(
                Event(Op.CHECK_ORDER, a, 8, b, 8, site=SITE, seq=seq)
            )
    if draw(st.booleans()):  # sometimes wrap in a checker scope
        events = (
            [Event(Op.TX_CHECK_START, site=SITE, seq=0)]
            + [
                Event(e.op, e.addr, e.size, e.addr2, e.size2, e.site, e.seq + 1)
                for e in events
            ]
            + [Event(Op.TX_CHECK_END, site=SITE, seq=n + 1)]
        )
    return events


class TestRandomTraceEquivalence:
    @given(_random_trace(), st.integers(min_value=0, max_value=1 << 24))
    @settings(max_examples=120, deadline=None)
    def test_cache_and_coalesce_preserve_results(self, events, shift):
        baseline = CheckingEngine(coalesce=False)
        cached = CheckingEngine(cache=VerdictCache(4))
        # Check the trace, a duplicate (guaranteed hit), and a shifted
        # relocation of it (hit through the relocation table).
        shifted = [
            Event(e.op,
                  e.addr + shift if (e.addr or e.size) else e.addr,
                  e.size,
                  e.addr2 + shift if (e.addr2 or e.size2) else e.addr2,
                  e.size2, e.site, e.seq)
            for e in events
        ]
        for tid, evs in ((0, events), (1, events), (2, shifted)):
            trace = Trace(trace_id=tid, events=list(evs))
            _results_identical(
                baseline.check_trace(trace), cached.check_trace(trace)
            )
