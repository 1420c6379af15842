"""Epoch-sharded replay: split one big trace, merge back bit-identically.

The contract under test (DESIGN.md §10): when ``shard_min_events`` is
set on a columnar pool, a large trace is cut at fence-delimited epoch
boundaries into per-worker shards.  Each shard silently replays its
prefix to reconstruct shadow state and checks only its own range; the
pool folds shard results in shard order before the ordinary
deterministic merge.  The outcome — the wire-encoded
:class:`TestResult` — must be byte-identical to unsharded replay on a
single worker, for any worker count, backend, and under chaos-injected
worker crashes; only the (non-verdict) ``epoch_shards`` metadata key
betrays that sharding happened.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.column_arena import ArenaOverflow
from repro.core.columns import ColumnarTrace
from repro.core.events import Event, Op, SourceSite, Trace
from repro.core.faults import FaultKind, FaultPlan, FaultPoint, FaultRule
from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.core.traceio import encode_result
from repro.core.workers import SHARD_ENV_VAR, WorkerPool


def big_trace(trace_id: int = 1, epochs: int = 60) -> Trace:
    """One multi-epoch trace mixing passes, failures and transactions.

    Every fourth epoch omits its fence so the following ``isPersist``
    fails, and every fifth epoch wraps its writes in a logged
    transaction with a checker scope — the shard cutter must keep
    those blocks intact.
    """
    trace = Trace(trace_id)
    seq = 0

    def emit(op, *args, site=None):
        nonlocal seq
        trace.append(Event(op, *args, site=site, seq=seq))
        seq += 1

    for e in range(epochs):
        base = 0x1000 + (e % 16) * 0x40
        site = SourceSite("store.c", e, "commit")
        if e % 5 == 0:
            emit(Op.TX_CHECK_START)
            emit(Op.TX_BEGIN)
            emit(Op.TX_ADD, base, 0x20)
            emit(Op.WRITE, base, 16, site=site)
            emit(Op.WRITE, base + 4, 4)  # dead sub-write
            emit(Op.CLWB, base, 16)
            emit(Op.SFENCE)
            emit(Op.TX_END)
            emit(Op.TX_CHECK_END)
            emit(Op.CHECK_PERSIST, base, 16)
        else:
            emit(Op.WRITE, base, 8, site=site)
            emit(Op.CLWB, base, 8)
            if e % 4 != 0:
                emit(Op.SFENCE)
            emit(Op.CHECK_PERSIST, base, 8)
    return trace


def reference_wire(trace) -> bytes:
    with WorkerPool(num_workers=0, engine="columnar") as pool:
        pool.submit(trace)
        return encode_result(pool.drain())


def object_reference_wire(trace) -> bytes:
    with WorkerPool(num_workers=0, engine="object") as pool:
        pool.submit(trace)
        return encode_result(pool.drain())


def run_sharded(trace, **pool_kwargs) -> tuple:
    pool = WorkerPool(engine="columnar", shard_min_events=1, **pool_kwargs)
    try:
        pool.submit(trace)
        result = pool.drain()
        return encode_result(result), result.metadata
    finally:
        pool._backend.stop()


class TestShardEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_thread_pool_bit_identical(self, workers):
        trace = big_trace()
        wire, metadata = run_sharded(trace, num_workers=workers,
                                     backend="thread")
        assert wire == reference_wire(big_trace())
        if workers >= 2:
            assert metadata["epoch_shards"] == workers

    @pytest.mark.parametrize("workers", [2, 4])
    def test_process_pool_bit_identical(self, workers):
        trace = big_trace()
        wire, metadata = run_sharded(
            trace, num_workers=workers, backend="process",
        )
        assert wire == reference_wire(big_trace())
        assert metadata["epoch_shards"] == workers

    def test_sharded_equals_object_engine(self):
        """The full chain: epoch-sharded columnar == plain object."""
        wire, _ = run_sharded(big_trace(), num_workers=4, backend="thread")
        assert wire == object_reference_wire(big_trace())

    def test_single_worker_pool_does_not_shard(self):
        trace = big_trace()
        wire, metadata = run_sharded(trace, num_workers=1, backend="thread")
        assert "epoch_shards" not in metadata
        assert wire == reference_wire(big_trace())

    def test_mixed_sizes_only_large_traces_shard(self):
        small = Trace(9)
        small.append(Event(Op.WRITE, 0x40, 8, seq=0))
        small.append(Event(Op.CLWB, 0x40, 8, seq=1))
        small.append(Event(Op.SFENCE, seq=2))
        small.append(Event(Op.CHECK_PERSIST, 0x40, 8, seq=3))
        big = big_trace(2)
        pool = WorkerPool(num_workers=2, backend="thread", engine="columnar",
                          shard_min_events=50)
        try:
            pool.submit(small)
            pool.submit(big)
            result = pool.drain()
        finally:
            pool._backend.stop()
        assert result.metadata["epoch_shards"] == 2
        with WorkerPool(num_workers=0, engine="columnar") as ref:
            ref.submit(small)
            ref.submit(big_trace(2))
            assert encode_result(result) == encode_result(ref.drain())


class TestShardMergeMetadata:
    def test_metadata_merge_is_deterministic(self):
        """Repeated sharded runs produce identical metadata (modulo
        nothing: the keyed merge cannot depend on completion order)."""
        runs = [
            run_sharded(big_trace(), num_workers=4, backend="thread")[1]
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_shard_counters(self):
        registry = MetricsRegistry(MetricsLevel.BASIC)
        pool = WorkerPool(num_workers=4, backend="thread", engine="columnar",
                          shard_min_events=1, metrics=registry)
        try:
            pool.submit(big_trace())
            pool.drain()
        finally:
            pool._backend.stop()
        assert registry.counter_value("shard.traces") == 1
        assert registry.counter_value("shard.shards") == 4


class TestShardQueryStats:
    """Per-shard interval-query accounting is explicitly owned.

    Each shard's checker builds its own ``QueryStats`` (created in the
    checker's ``__init__``, never shared); cached verdict templates
    copy the final integers.  Shared mutable stats would show up here
    as double counting: the merged ``engine.interval_queries`` /
    ``engine.interval_scanned`` counters must equal the unsharded
    totals exactly, and repeated cache hits must re-bill the *frozen*
    template numbers, not a still-live accumulator."""

    @staticmethod
    def _interval_counters(**pool_kwargs):
        registry = MetricsRegistry(MetricsLevel.FULL)
        pool = WorkerPool(engine="columnar", metrics=registry, **pool_kwargs)
        try:
            pool.submit(big_trace())
            pool.drain()
            snap = pool.metrics_snapshot()
        finally:
            pool._backend.stop()
        return (
            snap.counter_value("engine.interval_queries"),
            snap.counter_value("engine.interval_scanned"),
        )

    def test_sharded_totals_match_unsharded(self):
        want = self._interval_counters(num_workers=0)
        assert want[0] > 0
        for workers in (2, 4):
            got = self._interval_counters(
                num_workers=workers, backend="thread", shard_min_events=1
            )
            assert got == want, f"{workers} workers: {got} != {want}"

    def test_cache_hits_rebill_frozen_template_stats(self):
        """N identical traces through a cached single worker bill
        exactly N times the single-trace stats — a template sharing a
        live stats object would drift upward per hit."""
        single = self._interval_counters(num_workers=0, verdict_cache=False)
        registry = MetricsRegistry(MetricsLevel.FULL)
        with WorkerPool(num_workers=0, engine="columnar", metrics=registry,
                        verdict_cache=True) as pool:
            for i in range(3):
                pool.submit(big_trace(trace_id=i))
            pool.drain()
            snap = pool.metrics_snapshot()
        assert snap.counter_value("engine.interval_queries") == 3 * single[0]
        assert snap.counter_value("engine.interval_scanned") == 3 * single[1]

    def test_checkers_never_share_stats_objects(self):
        from repro.core.engine_columnar import _ColumnarChecker
        from repro.core.rules import X86Rules

        registry = MetricsRegistry(MetricsLevel.FULL)
        rules = X86Rules()
        cols = ColumnarTrace.from_trace(big_trace())
        a = _ColumnarChecker(rules, cols, registry)
        b = _ColumnarChecker(rules, cols, registry)
        assert a.qstats is not None
        assert a.qstats is not b.qstats


class TestShardChaos:
    def test_worker_crash_mid_shard_is_bit_identical(self):
        """A chaos-killed process worker loses its shard; supervision
        requeues and respawns, and the folded result is unchanged."""
        plan = FaultPlan(
            rules=[FaultRule(FaultPoint.WORKER_BATCH, FaultKind.CRASH, at=0)]
        )
        wire, metadata = run_sharded(
            big_trace(), num_workers=2, backend="process",
            batch_size=1, check_timeout=10.0, faults=plan,
        )
        assert wire == reference_wire(big_trace())
        assert metadata["epoch_shards"] == 2

    def test_chaos_seed_env_matches_reference(self, monkeypatch):
        """The CI chaos matrix path: a seeded random fault plan from
        ``PMTEST_CHAOS_SEED`` leaves sharded verdicts bit-identical."""
        monkeypatch.setenv("PMTEST_CHAOS_SEED", "3")
        wire, _ = run_sharded(
            big_trace(), num_workers=2, backend="process",
            batch_size=1, check_timeout=10.0,
        )
        assert wire == reference_wire(big_trace())


class TestShardGuards:
    def test_shard_without_columnar_engine_rejected(self):
        with pytest.raises(ValueError, match="requires engine='columnar'"):
            WorkerPool(num_workers=2, backend="thread", engine="object",
                       shard_min_events=1)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            WorkerPool(num_workers=2, backend="thread", engine="columnar",
                       shard_min_events=0)

    def test_env_threshold(self, monkeypatch):
        monkeypatch.setenv(SHARD_ENV_VAR, "1")
        trace = big_trace()
        pool = WorkerPool(num_workers=2, backend="thread", engine="columnar")
        try:
            pool.submit(trace)
            result = pool.drain()
        finally:
            pool._backend.stop()
        assert result.metadata["epoch_shards"] == 2
        assert encode_result(result) == reference_wire(big_trace())

    def test_split_respects_epoch_boundaries(self):
        cols = ColumnarTrace.from_trace(big_trace())
        shards = cols.split(4)
        assert len(shards) == 4
        assert shards[0].check_from == 0
        total = 0
        for shard in shards:
            assert shard.is_shard
            checked = len(shard) - shard.check_from
            assert checked > 0
            total += checked
            if shard.check_from:
                # every cut lands just after an epoch-closing fence
                assert shard.ops[shard.check_from - 1] == Op.SFENCE.value
        assert total == len(cols)


class TestArenaDispatch:
    """The zero-copy plane: process-backend shards travel as O(1)
    arena descriptors, everything else keeps the in-process zero-wire
    path, and overflow falls back to payload shipping."""

    def test_process_shards_dispatch_as_descriptors(self):
        registry = MetricsRegistry(MetricsLevel.FULL)
        trace = big_trace()
        n_events = len(trace.events)
        with WorkerPool(num_workers=2, backend="process",
                        engine="columnar", shard_min_events=1,
                        metrics=registry) as pool:
            pool.submit(trace)
            result = pool.drain()
            assert encode_result(result) == reference_wire(big_trace())
            snap = pool.metrics_snapshot()
        assert snap.counter_value("shard.arenas") == 1
        assert snap.counter_value("shard.arena_bytes") > 0
        assert snap.counter_value("shard.arena_fallbacks", 0) == 0
        # Dispatch is O(1) per shard: every shipped descriptor (a name
        # and three ints, not n_events of columns) pickles to well under
        # 60 bytes, counted per shipped trace so chaos requeues that
        # resend a batch do not skew it.
        task_bytes = snap.counter_value("codec.task_bytes")
        shipped = snap.counter_value("codec.task_traces")
        assert shipped >= 2
        assert 0 < task_bytes < 60 * shipped
        assert task_bytes < n_events  # not even one byte per event

    def test_thread_pool_never_builds_arenas(self):
        registry = MetricsRegistry(MetricsLevel.FULL)
        with WorkerPool(num_workers=2, backend="thread", engine="columnar",
                        shard_min_events=1, metrics=registry) as pool:
            pool.submit(big_trace())
            pool.drain()
            snap = pool.metrics_snapshot()
        assert snap.counter_value("shard.arenas", 0) == 0
        assert snap.counter_value("codec.task_bytes", 0) == 0

    def test_overflow_falls_back_to_payload_dispatch(self, monkeypatch):
        """When a trace cannot be laid out in an arena the shards ship
        as ordinary payload — slower, never wrong."""
        import repro.core.workers as workers_mod

        def refuse(cols):
            raise ArenaOverflow("injected")

        monkeypatch.setattr(workers_mod, "build_arena", refuse)
        registry = MetricsRegistry(MetricsLevel.BASIC)
        trace = big_trace()
        with WorkerPool(num_workers=2, backend="process",
                        engine="columnar", shard_min_events=1,
                        metrics=registry) as pool:
            pool.submit(trace)
            result = pool.drain()
            assert result.metadata["epoch_shards"] == 2
            assert encode_result(result) == reference_wire(big_trace())
            snap = pool.metrics_snapshot()
        assert snap.counter_value("shard.arena_fallbacks") == 1
        assert snap.counter_value("shard.arenas", 0) == 0

    def test_auto_plan_end_to_end(self):
        """``shard_plan='auto'`` shards a large trace without any
        fixed threshold configured, bit-identically."""
        trace = big_trace(epochs=600)  # ~3.6k events, > 2 shard floors
        with WorkerPool(num_workers=2, backend="thread", engine="columnar",
                        shard_plan="auto") as pool:
            pool.submit(trace)
            result = pool.drain()
        assert result.metadata["epoch_shards"] == 2
        assert encode_result(result) == reference_wire(big_trace(epochs=600))

    def test_auto_plan_leaves_small_traces_alone(self):
        with WorkerPool(num_workers=4, backend="thread", engine="columnar",
                        shard_plan="auto") as pool:
            pool.submit(big_trace(epochs=10))
            result = pool.drain()
        assert "epoch_shards" not in result.metadata

    def test_plan_env_var(self, monkeypatch):
        from repro.core.shard_plan import PLAN_ENV_VAR

        monkeypatch.setenv(PLAN_ENV_VAR, "auto")
        trace = big_trace(epochs=600)
        with WorkerPool(num_workers=2, backend="thread",
                        engine="columnar") as pool:
            pool.submit(trace)
            result = pool.drain()
        assert result.metadata["epoch_shards"] == 2

    def test_plan_without_columnar_engine_rejected(self):
        with pytest.raises(ValueError, match="requires engine='columnar'"):
            WorkerPool(num_workers=2, backend="thread", engine="object",
                       shard_plan="auto")


# ----------------------------------------------------------------------
# Property-based differential: the whole zero-copy plane vs. the
# object engine
# ----------------------------------------------------------------------

@st.composite
def _epoch_events(draw):
    """Multi-epoch event lists that actually shard: several fenced
    epochs over a colliding address window, with occasional missing
    fences, checker scopes and transactions."""
    epochs = draw(st.integers(min_value=2, max_value=7))
    events = []
    seq = 0

    def emit(op, *args, site=None):
        nonlocal seq
        events.append(Event(op, *args, site=site, seq=seq))
        seq += 1

    for e in range(epochs):
        in_tx = draw(st.booleans()) and e % 2 == 0
        if in_tx:
            emit(Op.TX_CHECK_START)
            emit(Op.TX_BEGIN)
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            kind = draw(st.integers(min_value=0, max_value=5))
            addr = 0x1000 + draw(st.integers(min_value=0, max_value=20)) * 8
            size = draw(st.integers(min_value=1, max_value=32))
            site = draw(st.sampled_from(
                [None, SourceSite("prop.c", e, "emit")]
            ))
            if kind <= 2:
                emit(Op.WRITE if kind < 2 else Op.WRITE_NT, addr, size,
                     site=site)
            elif kind == 3:
                emit(Op.CLWB, addr, size, site=site)
            elif kind == 4:
                emit(Op.CHECK_PERSIST, addr, size, site=site)
            else:
                addr2 = 0x1000 + draw(
                    st.integers(min_value=0, max_value=20)) * 8
                emit(Op.CHECK_ORDER, addr, size, addr2, size, site=site)
        if in_tx:
            emit(Op.TX_END)
            emit(Op.TX_CHECK_END)
        if draw(st.integers(min_value=0, max_value=4)):  # 4/5 fenced
            emit(Op.SFENCE)
    emit(Op.SFENCE)
    return events


def _object_reference(events):
    trace = Trace(21)
    for event in events:
        trace.append(event)
    with WorkerPool(num_workers=0, engine="object") as pool:
        pool.submit(trace)
        result = pool.drain()
    return (
        encode_result(result),
        result.traces_checked,
        result.events_checked,
        result.checkers_evaluated,
    )


#: backend, verdict_cache, chaos
_MATRIX = [
    pytest.param("thread", False, False, id="thread"),
    pytest.param("process", False, False, id="process"),
    pytest.param("process", True, False, id="process-cache"),
    pytest.param("process", False, True, id="process-chaos-kill"),
]


class TestZeroCopyDifferential:
    @pytest.mark.parametrize(
        "backend,cache,chaos", _MATRIX
    )
    def test_arena_shards_match_object_engine(
        self, backend, cache, chaos
    ):
        """For random multi-epoch traces, arena-dispatched shard replay
        through the batched kernels returns byte-identical verdicts
        and counters to the inline object engine — on every backend
        and cache row, and with a worker killed mid-shard."""
        kwargs = dict(num_workers=2, backend=backend, engine="columnar",
                      shard_min_events=1, verdict_cache=cache)
        if backend == "process":
            kwargs.update(batch_size=1, check_timeout=30.0)
        examples = 5 if backend == "process" else 40

        @given(_epoch_events())
        @settings(max_examples=examples, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def run(events):
            # Fresh pool per example: drain() snapshots are cumulative
            # over a pool's lifetime, and the chaos plan re-arms so
            # every example kills a worker mid-shard.
            # The other rows pin an empty plan so a chaos seed in the
            # environment cannot inject faults into them.
            kwargs["faults"] = FaultPlan(rules=[
                FaultRule(FaultPoint.WORKER_BATCH, FaultKind.CRASH, at=0)
            ] if chaos else [])
            with WorkerPool(**kwargs) as pool:
                trace = Trace(21)
                for event in events:
                    trace.append(event)
                pool.submit(trace)
                result = pool.drain()
            outcome = (
                encode_result(result),
                result.traces_checked,
                result.events_checked,
                result.checkers_evaluated,
            )
            assert outcome == _object_reference(events)
            if not chaos:
                assert result.diagnostics == []

        run()
