"""Columnar replay engine: bulk checking over struct-of-arrays traces.

A drop-in alternative to :class:`~repro.core.engine.CheckingEngine`
(selected with ``--engine columnar`` / ``PMTEST_ENGINE``) that replays
:class:`~repro.core.columns.ColumnarTrace` columns instead of per-event
objects.  Three things make it fast; none of them may change verdicts:

1. **No per-event objects.**  The replay loop reads opcode bytes and
   64-bit address/size columns directly.  A single reusable scratch
   :class:`~repro.core.events.Event` is filled only for the operations
   that need site/seq metadata in reports (handlers never retain the
   event — only its site and seq, which are immortal/immutable).
2. **Epoch-batched shadow updates.**  A maximal run of consecutive
   writes (fences and every other op delimit runs) is applied with one
   reverse sort-and-sweep: each write contributes only the subranges no
   *later* write in the run covers, and each surviving piece becomes a
   single ``IntervalMap.assign``.  This reproduces the exact final
   segmentation of sequential per-write assigns (writes never emit
   reports, nothing observes the map mid-run, and the epoch timestamp
   cannot advance inside a run), while dead writes cost nothing — the
   same argument behind :func:`repro.core.engine.coalesce_events`.
3. **Table-indexed dispatch over opcode runs.**  Dispatch compares the
   opcode byte against contiguous value ranges (writes / flushes /
   fences) and falls back to a list indexed by opcode — no enum
   hashing on the hot path.

Every kernel is plain Python over ``array('q')``/``bytes`` columns
(``bytes.translate``/``find`` for run boundaries, integer scans for the
run preconditions); the engine needs no third-party library.

Metrics-level contract (what the differential suite pins down):

* ``metrics=None`` and ``basic`` use the bulk paths; ``basic`` counts
  per-opcode totals from run lengths, which equal the object engine's
  per-event counts.
* ``metrics=full`` routes through the *inherited* per-event timed loop
  over scratch events, so query-depth stats, per-op histograms and
  stage timings are produced by literally the same code as the object
  engine.

Epoch shards (``ColumnarTrace.check_from > 0``) silently replay their
prefix — state effects only, via ``PersistencyRules.apply_op_silent``
— then check their own range normally.  Shards skip coalescing and the
verdict cache; the pool merges per-shard results deterministically.
"""

from __future__ import annotations

import os
from time import perf_counter_ns
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.canon import canonicalize_columns
from repro.core.columns import (
    FENCE_MAX,
    FENCE_MIN,
    FLUSH_MAX,
    OP_CHECK_PERSIST,
    OP_EXCLUDE,
    OP_INCLUDE,
    OP_SFENCE,
    OP_TX_ADD,
    OP_TX_BEGIN,
    OP_TX_CHECK_END,
    OP_TX_CHECK_START,
    OP_TX_END,
    OP_WRITE,
    OPS_BY_VALUE,
    WRITE_MAX,
    ColumnarTrace,
)
from repro.core.engine import (
    CheckingEngine,
    MalformedTrace,
    _TraceChecker,
    _with_trace_id,
)
from repro.core.events import Event, Op, SourceSite, Trace
from repro.core.interval_array import ArrayIntervalMap, resolve_shadow_name
from repro.core.interval_map import IntervalMap, QueryStats
from repro.core.logtree import LogTree
from repro.core.metrics import MetricsRegistry
from repro.core.reports import TestResult
from repro.core.rules import PersistencyRules, X86Rules
from repro.core.shadow import SegmentState, make_shadow_for
from repro.core.verdict_cache import VerdictCache, build_template, rehydrate

__all__ = [
    "ENGINE_NAMES",
    "ColumnarCheckingEngine",
    "coalesce_columns",
    "make_engine",
    "resolve_engine_name",
]

ENGINE_NAMES = ("object", "columnar")

ENGINE_ENV_VAR = "PMTEST_ENGINE"

#: ``bytes.translate`` table mapping write opcodes to ``\x00`` and
#: everything else to ``\x01``: one translate turns "find the end of
#: this write run" into a C-speed ``bytes.find`` instead of a
#: per-element Python comparison loop.
_RUN_END_TABLE = bytes(
    0 if 1 <= b <= WRITE_MAX else 1 for b in range(256)
)


def _sizes_positive(sizes, start: int, end: int) -> bool:
    """Whether every size in ``[start, end)`` is positive — the
    precondition for the bulk write-run kernel (a non-positive size
    must instead replay sequentially so the structural-invalid error
    fires at the same event with the same partial shadow state as the
    object engine)."""
    for k in range(start, end):
        if sizes[k] <= 0:
            return False
    return True

#: Dispatch table indexed by opcode byte, mirroring
#: ``_TraceChecker._HANDLERS`` (index 0 and unknown bytes are ``None``).
_HANDLER_LIST = [None] * len(OPS_BY_VALUE)
for _op, _fn in _TraceChecker._HANDLERS.items():
    _HANDLER_LIST[_op.value] = _fn
del _op, _fn


def resolve_engine_name(name: Optional[str]) -> str:
    """Resolve the engine knob: explicit name, else ``PMTEST_ENGINE``,
    else ``object`` (the default until the equivalence suite owns CI)."""
    if name is None:
        name = os.environ.get(ENGINE_ENV_VAR) or "object"
    name = name.strip().lower()
    if name not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {name!r}: expected one of {ENGINE_NAMES}"
        )
    return name


def make_engine(
    name: Optional[str],
    rules: Optional[PersistencyRules] = None,
    metrics: Optional[MetricsRegistry] = None,
    cache: Optional[VerdictCache] = None,
    coalesce: bool = True,
    shadow: Optional[str] = None,
):
    """Build the selected checking engine (``object`` or ``columnar``).

    ``shadow`` picks the interval store behind the shadow memory
    (``object`` / ``array``, defaulting through ``PMTEST_SHADOW``); it
    composes freely with either engine.
    """
    if resolve_engine_name(name) == "columnar":
        return ColumnarCheckingEngine(rules, metrics, cache=cache,
                                      coalesce=coalesce, shadow=shadow)
    return CheckingEngine(rules, metrics, cache=cache, coalesce=coalesce,
                          shadow=shadow)


# ----------------------------------------------------------------------
# Columnar dead-write coalescing (exact port of ``coalesce_events``)
# ----------------------------------------------------------------------
def coalesce_columns(
    cols: ColumnarTrace,
) -> Tuple[ColumnarTrace, int]:
    """Drop dead writes between barriers; column port of
    :func:`repro.core.engine.coalesce_events` (identical keep/drop
    decisions, hence identical fingerprints and drop counts)."""
    ops = cols.ops
    n = len(ops)
    previous_write = False
    for b in ops:
        is_write = b <= WRITE_MAX
        if is_write and previous_write:
            break
        previous_write = is_write
    else:
        return cols, 0
    addrs = cols.addrs
    sizes = cols.sizes
    keep: List[int] = []
    extend = keep.extend
    append = keep.append
    dropped = 0
    tx_check = False
    i = 0
    while i < n:
        b = ops[i]
        if b > WRITE_MAX:
            if b == OP_TX_CHECK_START:
                tx_check = True
            elif b == OP_TX_CHECK_END:
                tx_check = False
            append(i)
            i += 1
            continue
        j = i + 1
        while j < n and ops[j] <= WRITE_MAX:
            j += 1
        if j == i + 1 or tx_check:
            extend(range(i, j))
        elif j == i + 2:
            first_size = sizes[i]
            if (
                first_size > 0
                and addrs[i + 1] <= addrs[i]
                and addrs[i] + first_size <= addrs[i + 1] + sizes[i + 1]
            ):
                dropped += 1
            else:
                append(i)
            append(i + 1)
        else:
            coverage: IntervalMap[bool] = IntervalMap()
            run_keep = [True] * (j - i)
            for k in range(j - 1, i - 1, -1):
                size = sizes[k]
                if size <= 0:
                    continue  # structurally invalid; the replay rejects it
                lo = addrs[k]
                hi = lo + size
                if coverage.covers(lo, hi):
                    run_keep[k - i] = False
                    dropped += 1
                else:
                    coverage.assign(lo, hi, True)
            extend(k for k in range(i, j) if run_keep[k - i])
        i = j
    if not dropped:
        return cols, 0
    return cols.take(keep), dropped


# ----------------------------------------------------------------------
# Shard-result merging
# ----------------------------------------------------------------------
def merge_shard_results(results: List[TestResult]) -> TestResult:
    """Fold per-shard results (in shard order) into the one result a
    sequential replay of the whole trace would have produced: reports
    concatenate (each shard reports only its own range, in program
    order), event/checker counts sum, and the shard group counts as a
    single trace."""
    merged = TestResult(traces_checked=1)
    for result in results:
        merged.reports.extend(result.reports)
        merged.events_checked += result.events_checked
        merged.checkers_evaluated += result.checkers_evaluated
        merged.diagnostics.extend(result.diagnostics)
    return merged


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ColumnarCheckingEngine:
    """Column-replay engine; accepts ``Trace`` or ``ColumnarTrace``.

    Mirrors :class:`~repro.core.engine.CheckingEngine`'s contract
    exactly — coalescing, verdict-cache flow, counters — so the two are
    interchangeable behind any backend.  Object-form traces are
    columnarized on entry; the win is largest when a PMTB file decodes
    straight into columns (:func:`~repro.core.traceio.load_traces_auto`
    with ``columnar=True``) and no object form ever exists.
    """

    def __init__(
        self,
        rules: Optional[PersistencyRules] = None,
        metrics: Optional[MetricsRegistry] = None,
        cache: Optional[VerdictCache] = None,
        coalesce: bool = True,
        shadow: Optional[str] = None,
    ) -> None:
        self.rules = rules if rules is not None else X86Rules()
        self.metrics = metrics
        self.cache = cache
        self.coalesce = coalesce
        self.shadow_name = resolve_shadow_name(shadow)
        self.writes_merged = 0

    # ------------------------------------------------------------------
    def check_trace(
        self, trace: Union[Trace, ColumnarTrace]
    ) -> TestResult:
        """Replay one trace (or one epoch shard); return its reports."""
        metrics = self.metrics
        if type(trace) is ColumnarTrace:
            cols = trace
        else:
            cols = ColumnarTrace.from_trace(trace)
        if cols.is_shard or cols.check_from:
            # Shards skip coalescing and the cache: their prefix is
            # replayed silently and their fingerprint would alias the
            # enclosing trace's prefix, not the shard's verdict.
            return _ColumnarChecker(
                self.rules, cols, metrics,
                events_checked=len(cols) - cols.check_from,
                finish_seq=len(cols),
                shadow=self.shadow_name,
            ).run()
        original_len = len(cols)
        if self.coalesce:
            cols, dropped = coalesce_columns(cols)
            if dropped:
                self.writes_merged += dropped
                if metrics is not None:
                    metrics.counter("coalesce.writes_merged").inc(dropped)
        cache = self.cache
        if cache is None:
            return _ColumnarChecker(
                self.rules, cols, metrics,
                events_checked=original_len, finish_seq=original_len,
                shadow=self.shadow_name,
            ).run()
        form = canonicalize_columns(cols)
        template = cache.lookup(form.fingerprint)
        if template is not None:
            result = rehydrate(
                template, form.relocation, cols.trace_id, original_len
            )
            if result is not None:
                if metrics is not None:
                    metrics.counter("cache.hits").inc(1)
                    self._record_hit(metrics, cols, template, result)
                return result
            cache.hits -= 1
            cache.misses += 1
            cache.uncacheable += 1
        if metrics is not None:
            metrics.counter("cache.misses").inc(1)
        checker = _ColumnarChecker(
            self.rules, cols, metrics,
            events_checked=original_len, finish_seq=original_len,
            shadow=self.shadow_name,
        )
        result = checker.run()
        qstats = checker.qstats
        new_template = build_template(
            result,
            form.relocation,
            cols.trace_id,
            queries=qstats.queries if qstats is not None else None,
            scanned=qstats.scanned if qstats is not None else None,
            shadow_segments=(
                len(checker.shadow.pm) if qstats is not None else None
            ),
        )
        if new_template is not None:
            evicted = cache.store(form.fingerprint, new_template)
            if evicted and metrics is not None:
                metrics.counter("cache.evictions").inc(evicted)
        else:
            cache.uncacheable += 1
            if metrics is not None:
                metrics.counter("cache.uncacheable").inc(1)
        return result

    @staticmethod
    def _record_hit(
        metrics: MetricsRegistry,
        cols: ColumnarTrace,
        template,
        result: TestResult,
    ) -> None:
        """Book a cache hit as the replay it stands for (column form of
        ``CheckingEngine._record_hit`` — identical counter totals)."""
        counter = metrics.counter
        counter("engine.traces").inc(1)
        counter("engine.events").inc(result.events_checked)
        counter("engine.checkers").inc(result.checkers_evaluated)
        counter("engine.reports").inc(len(result.reports))
        op_counts: dict = {}
        for b in cols.ops:
            op = OPS_BY_VALUE[b]
            op_counts[op] = op_counts.get(op, 0) + 1
        for op, count in op_counts.items():
            counter(f"engine.op.{op.name}").inc(count)
        if metrics.full:
            if template.queries is not None:
                counter("engine.interval_queries").inc(template.queries)
                counter("engine.interval_scanned").inc(template.scanned)
            if template.shadow_segments is not None:
                metrics.gauge("engine.shadow_segments").observe(
                    template.shadow_segments
                )
            for op, count in op_counts.items():
                histogram = metrics.histogram(f"engine.op_ns.{op.name}")
                for _ in range(count):
                    histogram.record(0)

    def check_traces(
        self, traces: Iterable[Union[Trace, ColumnarTrace]]
    ) -> TestResult:
        """Replay several independent traces and merge their results."""
        total = TestResult()
        for trace in traces:
            total.merge(self.check_trace(trace))
        return total


class _ColumnarChecker(_TraceChecker):
    """Per-trace checker state driving the columnar replay loops.

    Subclasses :class:`~repro.core.engine._TraceChecker` for its handler
    implementations (the slow-path ops dispatch to the very same
    methods through scratch events) while replacing the iteration
    machinery.
    """

    def __init__(
        self,
        rules: PersistencyRules,
        cols: ColumnarTrace,
        metrics: Optional[MetricsRegistry] = None,
        events_checked: Optional[int] = None,
        finish_seq: Optional[int] = None,
        shadow: str = "object",
    ) -> None:
        self.rules = rules
        self.cols = cols
        self.trace = cols  # only trace_id is ever read off this
        self.trace_id = cols.trace_id
        self.shadow = make_shadow_for(rules, shadow)
        self.metrics = metrics
        self.events = None
        self.events_checked = (
            events_checked if events_checked is not None else len(cols)
        )
        #: seq stamped on the implicit end-of-trace checker close; the
        #: engine passes the original (pre-coalescing) trace length
        self.finish_seq = finish_seq if finish_seq is not None else len(cols)
        #: per-checker query accounting (full metrics only), owned by
        #: this checker alone — shards each build their own, templates
        #: copy the final integers, nothing is shared or double counted
        self.qstats: Optional[QueryStats] = (
            QueryStats() if metrics is not None and metrics.full else None
        )
        self.result = TestResult(traces_checked=1)
        self.tx_depth = 0
        self.log_tree = LogTree()
        self.tx_check_active = False
        self.tx_check_site: Optional[SourceSite] = None
        self.modified: IntervalMap[Optional[SourceSite]] = IntervalMap()
        self.excluded: IntervalMap[bool] = IntervalMap()
        self._scratch = Event(Op.WRITE)

    # ------------------------------------------------------------------
    def run(self) -> TestResult:
        cols = self.cols
        start = cols.check_from
        if start:
            self._fast_forward(start)
        metrics = self.metrics
        result = self.result
        if metrics is None:
            self._replay(start, len(cols), None)
            self._finish()
        elif metrics.full:
            # Full level runs the inherited per-event timed loop over
            # scratch events: query stats, per-op histograms and stage
            # timings come from the identical code path as the object
            # engine, so full-metrics counters agree exactly.
            qstats = self.qstats
            self.shadow.pm.stats = qstats
            shadow_ns, shadow_n, checker_ns, checker_n = self._run_timed(
                self._iter_scratch(start), metrics
            )
            t0 = perf_counter_ns()
            self._finish()
            checker_ns += perf_counter_ns() - t0
            counter = metrics.counter
            counter("stage.shadow_update.ns").inc(shadow_ns)
            counter("stage.shadow_update.count").inc(shadow_n)
            counter("stage.checker_validate.ns").inc(checker_ns)
            counter("stage.checker_validate.count").inc(checker_n)
            counter("engine.interval_queries").inc(qstats.queries)
            counter("engine.interval_scanned").inc(qstats.scanned)
            metrics.gauge("engine.shadow_segments").observe(
                len(self.shadow.pm)
            )
        else:
            self._replay(start, len(cols), metrics)
            self._finish()
        result.events_checked += self.events_checked
        if metrics is not None:
            counter = metrics.counter
            counter("engine.traces").inc(1)
            counter("engine.events").inc(self.events_checked)
            counter("engine.checkers").inc(result.checkers_evaluated)
            counter("engine.reports").inc(len(result.reports))
        trace_id = self.trace_id
        reports = result.reports
        for i, report in enumerate(reports):
            if report.trace_id == -1:
                reports[i] = _with_trace_id(report, trace_id)
        return result

    def _finish(self) -> None:
        if self.tx_check_active:
            self._on_tx_check_end(self.tx_check_site, self.finish_seq)

    def _iter_scratch(self, start: int) -> Iterator[Event]:
        """Scratch-event view of the columns (full-metrics replay)."""
        cols = self.cols
        scratch = self._scratch
        fill = cols.fill
        for i in range(start, len(cols)):
            yield fill(i, scratch)

    # ------------------------------------------------------------------
    # The bulk replay loop (metrics off / basic)
    # ------------------------------------------------------------------
    def _replay(
        self, i: int, end: int, metrics: Optional[MetricsRegistry]
    ) -> None:
        cols = self.cols
        ops = cols.ops
        addrs = cols.addrs
        sizes = cols.sizes
        site_idx = cols.site_idx
        site_table = cols.site_table
        seqs = cols.seqs
        rules = self.rules
        shadow = self.shadow
        reports = self.result.reports
        reports_extend = reports.extend
        scratch = self._scratch
        fill = cols.fill
        handlers = _HANDLER_LIST
        n_handlers = len(handlers)
        counts = [0] * n_handlers if metrics is not None else None
        # The inlined paths below encode X86Rules semantics; any other
        # model replays through its own apply_op via scratch dispatch.
        fast = type(rules) is X86Rules
        apply_flush = rules.apply_flush_fused if fast else None
        pm_assign = shadow.pm.assign
        pm_overlaps = shadow.pm.overlaps
        result = self.result
        segment_state = SegmentState
        write_max = WRITE_MAX
        flush_max = FLUSH_MAX
        sfence = OP_SFENCE
        check_persist = OP_CHECK_PERSIST
        site_at = cols.site_at
        # Array shadow: per-epoch ops and checks are collected into
        # vectors and answered through the batched store API.  The run
        # finder reuses the silent path's C-speed translate table.
        array = fast and type(shadow.pm) is ArrayIntervalMap
        run_ends = bytes(ops).translate(_RUN_END_TABLE) if array else b""
        check_pass_many = rules.check_persist_pass_many if array else None
        apply_write_run = rules.apply_write_run if array else None
        slow = self.tx_check_active or bool(self.excluded)
        while i < end:
            b = ops[i]
            if fast and not slow and b <= flush_max:
                if b <= write_max:
                    if array:
                        # Whole fence-delimited write run in one sorted
                        # sweep + single splice; a run holding a
                        # non-positive size replays sequentially so the
                        # structural error fires at the same event with
                        # the same partial shadow state.
                        j = run_ends.find(b"\x01", i + 1, end)
                        if j == -1:
                            j = end
                        if j - i >= 2 and _sizes_positive(sizes, i, j):
                            apply_write_run(
                                shadow, ops, addrs, sizes, site_at, i, j
                            )
                            if counts is not None:
                                for v in range(1, write_max + 1):
                                    counts[v] += ops.count(v, i, j)
                            i = j
                            continue
                    # Inline write: the object engine reaches the same
                    # assign through three calls (handler, apply_op,
                    # two enum identity checks); here it is direct.
                    addr = addrs[i]
                    size = sizes[i]
                    ref = site_idx[i]
                    site = site_table[ref] if ref >= 0 else None
                    ts = shadow.timestamp
                    if (
                        b == 1
                        and i + 1 < end
                        and write_max < ops[i + 1] <= flush_max
                        and addrs[i + 1] == addr
                        and sizes[i + 1] == size
                        and size > 0
                    ):
                        # Fused write+writeback over the exact same
                        # range (the canonical write/clwb idiom): after
                        # the write's assign the flush range has no
                        # gaps and its only overlap is the fresh
                        # unflushed segment, so the flush can emit no
                        # diagnostics, and assigning the post-flush
                        # state directly equals assign + with_flush.
                        ref = site_idx[i + 1]
                        pm_assign(
                            addr,
                            addr + size,
                            segment_state(
                                ts,
                                ts,
                                site,
                                site_table[ref] if ref >= 0 else None,
                            ),
                        )
                        if counts is not None:
                            counts[b] += 1
                            counts[ops[i + 1]] += 1
                        i += 2
                        continue
                    pm_assign(
                        addr,
                        addr + size,
                        segment_state(ts, None, site)
                        if b == 1
                        else segment_state(ts, ts, site, site),
                    )
                    if counts is not None:
                        counts[b] += 1
                    i += 1
                    continue
                # Inline flush: _apply_flush only reads addr/end/site/
                # seq off the event, so fill exactly those fields.
                scratch.addr = addrs[i]
                scratch.size = sizes[i]
                ref = site_idx[i]
                scratch.site = site_table[ref] if ref >= 0 else None
                scratch.seq = seqs[i] if seqs is not None else i
                flush_reports = apply_flush(shadow, scratch)
                if flush_reports:
                    reports_extend(flush_reports)
                if counts is not None:
                    counts[b] += 1
                i += 1
                continue
            if fast and not slow and b == sfence:
                shadow.advance()
                if counts is not None:
                    counts[b] += 1
                i += 1
                continue
            if array and not slow and b == check_persist and sizes[i] > 0:
                # Batched isPersist: one searchsorted pass over the
                # columns answers every query in a run of consecutive
                # checks (checks never mutate the shadow, so batching
                # the lookups cannot reorder anything observable).
                # Maybe-failing queries fall through, in order, to the
                # full handler for byte-identical reports.
                j = i + 1
                while j < end and ops[j] == check_persist and sizes[j] > 0:
                    j += 1
                passes = check_pass_many(
                    shadow,
                    [(addrs[k], addrs[k] + sizes[k]) for k in range(i, j)],
                )
                handler = handlers[b]
                for off in range(j - i):
                    if passes[off]:
                        result.checkers_evaluated += 1
                    else:
                        handler(self, fill(i + off, scratch))
                if counts is not None:
                    counts[b] += j - i
                i = j
                continue
            if fast and not slow and b == check_persist and sizes[i] > 0:
                # Inline isPersist *pass* path: under x86 a subrange
                # passes iff it was flushed in an epoch the timestamp
                # has since passed, so a raw scan of segment states
                # decides the common all-persistent case without the
                # Interval/Report machinery.  Any segment that would
                # fail (or a zero-size range) falls through to the
                # full handler for identical reports.
                addr = addrs[i]
                now = shadow.timestamp
                for _lo, _hi, state in pm_overlaps(
                    addr, addr + sizes[i], False
                ):
                    fe = state.flush_epoch
                    if fe is None or fe >= now:
                        break
                else:
                    result.checkers_evaluated += 1
                    if counts is not None:
                        counts[b] += 1
                    i += 1
                    continue
            handler = handlers[b] if b < n_handlers else None
            if handler is None:
                raise MalformedTrace(
                    f"unknown trace op {OPS_BY_VALUE[b] if b < n_handlers else b!r}"
                )
            handler(self, fill(i, scratch))
            if counts is not None:
                counts[b] += 1
            slow = self.tx_check_active or bool(self.excluded)
            i += 1
        if counts is not None:
            counter = metrics.counter
            for value, count in enumerate(counts):
                if count:
                    counter(f"engine.op.{OPS_BY_VALUE[value].name}").inc(count)

    #: Minimum write-run length for the sort-and-sweep bulk path.  The
    #: sweep only pays when runs carry dead writes (it replaces N map
    #: assigns with gap queries + surviving-piece assigns); below this
    #: it costs more than assigning directly, and post-coalescing runs
    #: carry no dead writes at all — so the sweep is reserved for the
    #: silent prefix replay, where coalescing has not run.
    SWEEP_MIN_RUN = 8

    def _bulk_writes(self, i: int, j: int) -> None:
        """Apply the write run ``[i, j)``, long runs via the rules-level
        epoch kernel.

        Short runs assign sequentially.  Long runs with all-positive
        sizes go through :meth:`~repro.core.rules.x86.X86Rules
        .apply_write_run`, which produces the exact shadow segmentation
        of sequential per-write ``assign`` calls (disjoint runs assign
        directly; overlapping runs use one reverse coverage sweep so
        dead writes never touch the shadow map).
        """
        cols = self.cols
        ops = cols.ops
        addrs = cols.addrs
        sizes = cols.sizes
        shadow = self.shadow
        site_at = cols.site_at
        # The array store splices whole runs profitably from length 2
        # (disjoint runs merge in one pass); the object map only wins
        # once runs are long enough to carry dead writes.
        min_run = (
            2 if type(shadow.pm) is ArrayIntervalMap else self.SWEEP_MIN_RUN
        )
        if j - i >= min_run and _sizes_positive(sizes, i, j):
            self.rules.apply_write_run(
                shadow, ops, addrs, sizes, site_at, i, j
            )
            return
        # Sequential path: short runs, and runs holding a non-positive
        # size (the structural-invalid ValueError must fire at the same
        # event with the same partial shadow state as the object
        # engine).
        pm_assign = shadow.pm.assign
        ts = shadow.timestamp
        write = OP_WRITE
        for k in range(i, j):
            addr = addrs[k]
            site = site_at(k)
            state = (
                SegmentState(ts, None, site)
                if ops[k] == write
                else SegmentState(ts, ts, site, site)
            )
            pm_assign(addr, addr + sizes[k], state)

    # ------------------------------------------------------------------
    # Silent prefix replay (epoch shards)
    # ------------------------------------------------------------------
    def _fast_forward(self, end: int) -> None:
        """Reconstruct shadow/transaction/scope state over ``[0, end)``
        without evaluating checkers or emitting reports.

        State effects are identical to a full replay of the prefix:
        writes, flushes and fences go through
        ``PersistencyRules.apply_op_silent`` (same shadow mutations,
        report scans skipped), transaction and scope bookkeeping runs
        normally, and checker records are skipped outright — every
        ``TX_CHECKER`` scope opened in the prefix also closes there
        (shard cuts are only taken outside open scopes), so the
        ``modified`` set it would have tracked is dead state.
        """
        cols = self.cols
        ops = cols.ops
        addrs = cols.addrs
        sizes = cols.sizes
        rules = self.rules
        shadow = self.shadow
        scratch = self._scratch
        fill = cols.fill
        silent = rules.apply_op_silent
        excluded = self.excluded
        site_at = cols.site_at
        fast = type(rules) is X86Rules
        # One C-speed translate marks run-ending (non-write) opcodes so
        # the write-run finder below is a bytes.find hop instead of a
        # per-element Python comparison loop.
        run_ends = bytes(ops).translate(_RUN_END_TABLE) if fast else b""
        i = 0
        while i < end:
            b = ops[i]
            if b <= WRITE_MAX:
                if not excluded:
                    if fast:
                        j = run_ends.find(b"\x01", i + 1, end)
                        if j == -1:
                            j = end
                        size = sizes[i]
                        if (
                            j == i + 1
                            and b == OP_WRITE
                            and j < end
                            and WRITE_MAX < ops[j] <= FLUSH_MAX
                            and addrs[j] == addrs[i]
                            and sizes[j] == size
                            and size > 0
                        ):
                            # Same fused write+writeback as the checked
                            # loop (silent replay emits nothing, so
                            # only the final state must match — and it
                            # does, by the same argument).
                            addr = addrs[i]
                            ts = shadow.timestamp
                            shadow.pm.assign(
                                addr,
                                addr + size,
                                SegmentState(
                                    ts, ts, site_at(i), site_at(j)
                                ),
                            )
                            i = j + 1
                            continue
                        self._bulk_writes(i, j)
                        i = j
                        continue
                    silent(shadow, fill(i, scratch))
                else:
                    for lo, hi in excluded.gaps(addrs[i], addrs[i] + sizes[i]):
                        silent(shadow, self._sub_scratch(i, lo, hi))
                i += 1
            elif b <= FLUSH_MAX:
                if not excluded:
                    if fast:
                        # Inline the silent writeback: first flush
                        # wins, no scratch fill or enum dispatch.  The
                        # array store maps codes directly (no state
                        # decode/rebuild).
                        now = shadow.timestamp
                        site = site_at(i)
                        pm = shadow.pm
                        if type(pm) is ArrayIntervalMap:
                            pm.update_codes(
                                addrs[i],
                                addrs[i] + sizes[i],
                                pm.codec.flush_map(now, site),
                            )
                        else:
                            pm.update(
                                addrs[i],
                                addrs[i] + sizes[i],
                                lambda lo, hi, state: state
                                if state.flush_epoch is not None
                                else state.with_flush(now, site),
                            )
                    else:
                        silent(shadow, fill(i, scratch))
                else:
                    for lo, hi in excluded.gaps(addrs[i], addrs[i] + sizes[i]):
                        silent(shadow, self._sub_scratch(i, lo, hi))
                i += 1
            elif b <= FENCE_MAX:
                if fast and b == OP_SFENCE:
                    shadow.advance()
                else:
                    silent(shadow, fill(i, scratch))
                i += 1
            elif b == OP_TX_BEGIN:
                self.tx_depth += 1
                if self.tx_depth == 1:
                    self.log_tree.reset()
                i += 1
            elif b == OP_TX_END:
                if self.tx_depth == 0:
                    raise MalformedTrace(
                        f"TX_END without TX_BEGIN at {site_at(i)}"
                    )
                self.tx_depth -= 1
                i += 1
            elif b == OP_TX_ADD:
                self.log_tree.add(addrs[i], addrs[i] + sizes[i], site_at(i))
                i += 1
            elif b == OP_EXCLUDE:
                excluded.assign(addrs[i], addrs[i] + sizes[i], True)
                i += 1
            elif b == OP_INCLUDE:
                excluded.erase(addrs[i], addrs[i] + sizes[i])
                i += 1
            else:
                # Checker records (CHECK_PERSIST/CHECK_ORDER and the
                # TX_CHECKER scope markers): pure validation, no state
                # a later epoch can observe.
                i += 1

    def _sub_scratch(self, i: int, lo: int, hi: int) -> Event:
        scratch = self.cols.fill(i, self._scratch)
        scratch.addr = lo
        scratch.size = hi - lo
        return scratch


