"""Checking rules for the x86 strict persistency model (paper Section 4.4).

Operation semantics:

``write(addr, size)``
    Clears any existing persist/flush state over the range and opens a
    persist interval at the current epoch: the store may persist at any
    time from now on (cache eviction), but is not guaranteed to.
``write_nt(addr, size)``
    A non-temporal store bypasses the cache: it behaves like a write whose
    writeback has already been issued, so the next ``sfence`` persists it
    without a ``clwb``.
``clwb/clflushopt/clflush(addr, size)``
    Opens a flush interval.  Two performance diagnostics fire here:
    flushing a range with a writeback already in flight is a duplicate
    flush, and flushing a range that holds no un-persisted write (never
    written, or already persisted) is an unnecessary writeback
    (Section 5.1.2).  The ISA guarantees a flush is ordered after a prior
    write to the same cache line, which is why ``(write, clwb, sfence)``
    suffices to persist — no fence is needed *between* write and clwb.
``sfence``
    Increments the global timestamp.  Interval closure is derived lazily
    (see :mod:`repro.core.shadow`): a flush issued in epoch ``t`` is
    complete — and its write persistent — once the timestamp has passed
    ``t``, with interval end ``t + 1``.

Over an array shadow (:mod:`repro.core.interval_array`) the batched
checks and the write-run kernel are integer scans over the
``array('q')`` columns and the state-code table; no third-party
library is involved.
"""

from __future__ import annotations

from array import array
from typing import Callable, List, Optional, Tuple

from repro.core.events import Event, FLUSH_OPS, Op, SourceSite
from repro.core.interval_array import ArrayIntervalMap, ValueCodec
from repro.core.interval_map import IntervalMap
from repro.core.intervals import Interval
from repro.core.reports import Level, Report, ReportCode
from repro.core.rules.base import PersistencyRules, RangeInterval
from repro.core.shadow import SegmentState, ShadowMemory

_OP_WRITE = Op.WRITE.value

#: sentinel in the codec's flush-epoch column for "never flushed"
_NO_FLUSH = -1


class SegmentStateCodec(ValueCodec):
    """State-code table for :class:`SegmentState` (paper Section 4.4).

    Interns each distinct segment state as a dense code and keeps one
    parallel metadata column the hot checks need:

    ``flush_epochs``
        ``state.flush_epoch`` per code, ``-1`` for unflushed.  With the
        shadow's codes column this answers ``isPersist`` and the
        redundant-writeback pre-tests with pure integer compares — no
        state object is ever decoded on the pass path.

    The per-epoch helper codes (``write_code`` / ``write_nt_code`` /
    ``flush_map``) memoize on the write-run inputs so a whole epoch's
    writes intern through one dict hit per distinct ``(epoch, site)``.
    """

    __slots__ = ("flush_epochs", "_write_memo")

    def __init__(self) -> None:
        super().__init__()
        self.flush_epochs = array("q")
        self._write_memo: dict = {}

    def _on_new(self, value) -> None:
        fe = value.flush_epoch
        self.flush_epochs.append(_NO_FLUSH if fe is None else fe)

    def write_code(self, ts: int, site: Optional[SourceSite]) -> int:
        """Code for a plain store's state at epoch ``ts``."""
        key = (False, ts, site)
        code = self._write_memo.get(key)
        if code is None:
            code = self.encode(SegmentState(ts, None, site))
            self._write_memo[key] = code
        return code

    def write_nt_code(self, ts: int, site: Optional[SourceSite]) -> int:
        """Code for a non-temporal store's state at epoch ``ts``."""
        key = (True, ts, site)
        code = self._write_memo.get(key)
        if code is None:
            code = self.encode(SegmentState(ts, ts, site, site))
            self._write_memo[key] = code
        return code

    def flush_map(
        self, now: int, site: Optional[SourceSite]
    ) -> Callable[[int], int]:
        """First-flush-wins code mapping for one writeback.

        Returns a memoized ``old code -> new code`` function: already
        flushed states keep their code, unflushed states map to their
        ``with_flush(now, site)`` code — the code-level twin of the
        ``record`` closure in :meth:`X86Rules._apply_flush`.
        """
        memo: dict = {}
        values = self.values
        flush_epochs = self.flush_epochs
        encode = self.encode

        def fn(code: int) -> int:
            new = memo.get(code)
            if new is None:
                if flush_epochs[code] != _NO_FLUSH:
                    new = code
                else:
                    new = encode(values[code].with_flush(now, site))
                memo[code] = new
            return new

        return fn


def _run_is_disjoint(addrs, sizes, start: int, end: int) -> bool:
    """Whether the write run ``[start, end)`` covers strictly ascending,
    non-overlapping ranges — the common struct-field/append pattern,
    where every write survives whole and the coverage sweep is pure
    overhead.  A plain forward scan (columns may be ``array``,
    ``memoryview`` or — for out-of-``int64``-range property-test
    inputs — lists)."""
    prev_hi = None
    for k in range(start, end):
        lo = addrs[k]
        if prev_hi is not None and lo < prev_hi:
            return False
        prev_hi = lo + sizes[k]
    return True


class X86Rules(PersistencyRules):
    """x86 (clwb + sfence) checking rules."""

    name = "x86"

    supported_ops = frozenset(
        {Op.WRITE, Op.WRITE_NT, Op.CLWB, Op.CLFLUSHOPT, Op.CLFLUSH, Op.SFENCE}
    )

    def state_codec(self) -> SegmentStateCodec:
        return SegmentStateCodec()

    def apply_op(self, shadow: ShadowMemory, event: Event) -> List[Report]:
        op = event.op
        if op is Op.WRITE:
            shadow.pm.assign(
                event.addr,
                event.end,
                SegmentState(shadow.timestamp, None, event.site),
            )
            return []
        if op is Op.WRITE_NT:
            shadow.pm.assign(
                event.addr,
                event.end,
                SegmentState(shadow.timestamp, shadow.timestamp, event.site, event.site),
            )
            return []
        if op in FLUSH_OPS:
            return self._apply_flush(shadow, event)
        if op is Op.SFENCE:
            shadow.advance()
            return []
        self.reject(event)
        return []  # pragma: no cover - reject always raises

    def apply_op_silent(self, shadow: ShadowMemory, event: Event) -> None:
        """State-only :meth:`apply_op` for epoch-shard prefix replay.

        Identical shadow mutations with the diagnostic passes skipped:
        the gap/overlap scans in :meth:`_apply_flush` only *read* the
        map to build warnings, so dropping them cannot change state.
        """
        op = event.op
        if op is Op.WRITE:
            shadow.pm.assign(
                event.addr,
                event.end,
                SegmentState(shadow.timestamp, None, event.site),
            )
            return
        if op is Op.WRITE_NT:
            shadow.pm.assign(
                event.addr,
                event.end,
                SegmentState(shadow.timestamp, shadow.timestamp, event.site, event.site),
            )
            return
        if op in FLUSH_OPS:
            now = shadow.timestamp
            site = event.site
            pm = shadow.pm
            if type(pm) is ArrayIntervalMap:
                # code-level first-flush-wins: no state decode/rebuild
                pm.update_codes(
                    event.addr, event.end, pm.codec.flush_map(now, site)
                )
                return

            def record(lo: int, hi: int, state: SegmentState) -> SegmentState:
                if state.flush_epoch is not None:
                    return state
                return state.with_flush(now, site)

            pm.update(event.addr, event.end, record)
            return
        if op is Op.SFENCE:
            shadow.advance()
            return
        self.reject(event)

    def _apply_flush(self, shadow: ShadowMemory, event: Event) -> List[Report]:
        """Record a writeback and diagnose redundant ones."""
        reports: List[Report] = []
        now = shadow.timestamp
        for lo, hi in shadow.pm.gaps(event.addr, event.end):
            reports.append(
                _warn(
                    ReportCode.UNNECESSARY_FLUSH,
                    f"writeback of [{lo:#x}, {hi:#x}) which was never "
                    "modified in this trace",
                    event,
                )
            )
        for lo, hi, state in shadow.pm.overlaps(event.addr, event.end):
            flush_iv = shadow.x86_flush_interval(state)
            if flush_iv is not None and not flush_iv.closed:
                reports.append(
                    _warn(
                        ReportCode.DUP_FLUSH,
                        f"[{lo:#x}, {hi:#x}) already has a writeback in "
                        f"flight (issued at {state.flush_site})",
                        event,
                    )
                )
            elif flush_iv is not None:
                # Flushed and fenced already, and not re-written since:
                # this writeback moves no new data.
                reports.append(
                    _warn(
                        ReportCode.UNNECESSARY_FLUSH,
                        f"[{lo:#x}, {hi:#x}) is already persistent; "
                        "this writeback is redundant",
                        event,
                    )
                )
        # Only the first writeback after a write matters: a duplicate
        # keeps the original epoch (persistence is guaranteed by the
        # first fence after the *first* writeback), and re-flushing an
        # already-persistent segment must not reopen its closed persist
        # interval.
        def record(lo: int, hi: int, state: SegmentState) -> SegmentState:
            if state.flush_epoch is not None:
                return state
            return state.with_flush(now, event.site)

        shadow.pm.update(event.addr, event.end, record)
        return reports

    def apply_flush_fused(
        self, shadow: ShadowMemory, event: Event
    ) -> List[Report]:
        """:meth:`_apply_flush` with the gap scan derived from the
        overlap scan — one map walk instead of two, identical reports
        in identical order (gap warnings first, ascending; then overlap
        diagnostics, ascending).  Used by the columnar engine's bulk
        replay loop; the differential suite pins the equivalence.
        """
        reports: List[Report] = []
        now = shadow.timestamp
        lo = event.addr
        hi = event.end
        pm = shadow.pm
        if type(pm) is ArrayIntervalMap and pm.stats is None:
            # Pre-test on the raw columns: a writeback is diagnostic-free
            # iff the range is fully covered by segments that have never
            # been flushed.  In that (overwhelmingly common) case the
            # whole op is one code-level carve with zero state decodes;
            # anything else falls through to the generic report-building
            # walk below, which works on either store.
            if self._flush_is_clean(pm, lo, hi):
                pm.update_codes(lo, hi, pm.codec.flush_map(now, event.site))
                return reports
        segments = pm.overlaps(lo, hi)
        prev = lo
        for seg_lo, seg_hi, _ in segments:
            if seg_lo > prev:
                reports.append(
                    _warn(
                        ReportCode.UNNECESSARY_FLUSH,
                        f"writeback of [{prev:#x}, {seg_lo:#x}) which was "
                        "never modified in this trace",
                        event,
                    )
                )
            prev = seg_hi
        if prev < hi:
            reports.append(
                _warn(
                    ReportCode.UNNECESSARY_FLUSH,
                    f"writeback of [{prev:#x}, {hi:#x}) which was never "
                    "modified in this trace",
                    event,
                )
            )
        for seg_lo, seg_hi, state in segments:
            flush_iv = shadow.x86_flush_interval(state)
            if flush_iv is not None and not flush_iv.closed:
                reports.append(
                    _warn(
                        ReportCode.DUP_FLUSH,
                        f"[{seg_lo:#x}, {seg_hi:#x}) already has a "
                        f"writeback in flight (issued at {state.flush_site})",
                        event,
                    )
                )
            elif flush_iv is not None:
                reports.append(
                    _warn(
                        ReportCode.UNNECESSARY_FLUSH,
                        f"[{seg_lo:#x}, {seg_hi:#x}) is already persistent; "
                        "this writeback is redundant",
                        event,
                    )
                )
        site = event.site

        def record(s_lo: int, s_hi: int, state: SegmentState) -> SegmentState:
            if state.flush_epoch is not None:
                return state
            return state.with_flush(now, site)

        shadow.pm.update(lo, hi, record)
        return reports

    @staticmethod
    def _flush_is_clean(pm: ArrayIntervalMap, lo: int, hi: int) -> bool:
        """Whether a writeback of ``[lo, hi)`` emits no diagnostics.

        True iff the range is fully covered and no overlapped segment
        carries flush state (any gap is an unnecessary-writeback
        warning; any flushed segment is a duplicate or redundant one).
        Pure integer compares over the columns.
        """
        i0, i1 = pm._window(lo, hi)
        if i0 == i1:
            return False
        starts, ends, codes = pm._starts, pm._ends, pm._codes
        flush_epochs = pm.codec.flush_epochs
        cursor = lo
        for i in range(i0, i1):
            if starts[i] > cursor or flush_epochs[codes[i]] != _NO_FLUSH:
                return False
            cursor = ends[i]
        return cursor >= hi

    def check_persist_pass_many(
        self, shadow: ShadowMemory, ranges
    ) -> List[bool]:
        """Batched ``isPersist`` pass pre-test over an array shadow.

        One bisect pass resolves every query's segment window;
        each window passes iff all of its codes map to a closed persist
        interval (flushed, and fenced since: ``flush_epoch < timestamp``).
        ``False`` entries are *maybe-failures*: the caller replays those
        through the full report-building checker.  Only called with
        ``stats`` detached — the pre-test performs no ``overlaps`` call
        to account for.
        """
        pm = shadow.pm
        now = shadow.timestamp
        i0s, i1s = pm.bounds_many(ranges)
        codes = pm._codes
        flush_epochs = pm.codec.flush_epochs
        out: List[bool] = []
        for i0, i1 in zip(i0s, i1s):
            ok = True
            for i in range(i0, i1):
                fe = flush_epochs[codes[i]]
                if fe == _NO_FLUSH or fe >= now:
                    ok = False
                    break
            out.append(ok)
        return out

    def apply_write_run(
        self,
        shadow: ShadowMemory,
        ops,
        addrs,
        sizes,
        site_at: Callable[[int], Optional[SourceSite]],
        start: int,
        end: int,
    ) -> None:
        """Epoch kernel: apply a pure write/write_nt run ``[start, end)``
        (all sizes positive) as one whole-run operation.

        The final shadow segmentation is byte-identical to sequential
        :meth:`apply_op_silent` calls, by one of two arguments:

        * **Disjoint runs** (ascending, non-overlapping — detected
          by :func:`_run_is_disjoint`): every write is the
          sole writer of its range, so forward per-range ``assign``
          calls are literally the sequential replay minus the dead
          scratch-event fills.
        * **Overlapping runs**: one reverse coverage sweep finds, for
          each write, the subranges no *later* write in the run covers
          (gap queries against an accumulating coverage map); only
          those surviving pieces are assigned, in forward write order.
          Each surviving piece has exactly the last-writer state the
          sequential replay would leave it with, and dead writes never
          touch the shadow map at all.

        Writes never emit reports and the epoch timestamp cannot
        advance inside a run, so nothing can observe the intermediate
        states the sequential replay would have created.
        """
        ts = shadow.timestamp
        pm = shadow.pm
        write = _OP_WRITE
        if type(pm) is ArrayIntervalMap:
            # Batched path: intern each write's state as a code (one
            # dict hit per distinct site within the epoch) and let the
            # store apply the whole run as one sorted sweep + splice.
            codec = pm.codec
            write_code = codec.write_code
            write_nt_code = codec.write_nt_code
            # Memoize per run on (op, site identity): sites are interned
            # by the column store, so id() is stable for the run and
            # skips re-hashing the SourceSite dataclass per write.
            local: dict = {}
            items = []
            for k in range(start, end):
                lo = addrs[k]
                op = ops[k]
                site = site_at(k)
                key = (op, id(site))
                code = local.get(key)
                if code is None:
                    code = (
                        write_code(ts, site)
                        if op == write
                        else write_nt_code(ts, site)
                    )
                    local[key] = code
                items.append((lo, lo + sizes[k], code))
            pm.assign_codes_many(items)
            return
        pm_assign = pm.assign
        if _run_is_disjoint(addrs, sizes, start, end):
            for k in range(start, end):
                site = site_at(k)
                lo = addrs[k]
                pm_assign(
                    lo,
                    lo + sizes[k],
                    SegmentState(ts, None, site)
                    if ops[k] == write
                    else SegmentState(ts, ts, site, site),
                )
            return
        coverage: IntervalMap[bool] = IntervalMap()
        coverage_gaps = coverage.gaps
        coverage_assign = coverage.assign
        pieces: List[Tuple[int, List[Tuple[int, int]]]] = []
        for k in range(end - 1, start - 1, -1):
            lo = addrs[k]
            hi = lo + sizes[k]
            gaps = coverage_gaps(lo, hi)
            if gaps:
                pieces.append((k, gaps))
                coverage_assign(lo, hi, True)
        for k, gaps in reversed(pieces):
            site = site_at(k)
            state = (
                SegmentState(ts, None, site)
                if ops[k] == write
                else SegmentState(ts, ts, site, site)
            )
            for lo, hi in gaps:
                pm_assign(lo, hi, state)

    def persist_intervals(
        self, shadow: ShadowMemory, lo: int, hi: int
    ) -> List[RangeInterval]:
        return [
            (s, e, shadow.x86_interval(state), state)
            for s, e, state in shadow.pm.overlaps(lo, hi)
        ]

    def ordered(self, a: Interval, b: Interval) -> bool:
        return a.ordered_before(b)


def _warn(code: ReportCode, message: str, event: Event) -> Report:
    return Report(
        level=Level.WARN,
        code=code,
        message=message,
        site=event.site,
        seq=event.seq,
    )
