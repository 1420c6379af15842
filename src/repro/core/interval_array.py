"""Array-backed interval store: the struct-of-arrays shadow plane.

:class:`~repro.core.interval_map.IntervalMap` keeps one Python tuple and
one Python value object per segment, so every shadow update and checker
query pays per-object allocation and attribute chasing.  This module
stores the same map as **struct-of-arrays**: flat ``starts`` / ``ends``
int64 columns (``array('q')``) plus a parallel ``codes`` column of
small integers that index into a *state-code table*
(:class:`ValueCodec`) interning the distinct value objects.  A shadow
memory has few distinct persistency states per trace (one per
``(write epoch, site)`` pair at most), so the code table stays tiny
while the segment columns stay primitive.

On top of the columns sit **batched epoch operations** — the whole point
of the layout:

``assign_many``
    apply a fence-delimited epoch's writes in one sorted sweep and a
    single splice (sequential-``assign`` equivalent, later writes win);
``update_many``
    rewrite all mapped pieces of a sorted run of disjoint ranges in one
    carve pass;
``overlaps_many`` / ``covers_many``
    answer an epoch's checker range queries with one bisect pass over
    the columns instead of per-query list building.

Semantics are byte-identical to ``IntervalMap`` — including
:class:`~repro.core.metrics.QueryStats` accounting (``overlaps`` counts
``i1 - i0`` scanned, ``covers`` counts the early-exit walk, mutations
count nothing) and the ``ValueError`` raised on empty ranges — so the
store is differential-tested against the object map as oracle and
selected per checker via ``--shadow {object,array}`` / ``PMTEST_SHADOW``.

Addresses wider than int64 (hypothesis likes them; real traces do not)
transparently box the bound columns back to Python lists; the code
column and all semantics are unaffected.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.interval_map import QueryStats, Segment, _check_range

#: selectable shadow store implementations, default first
SHADOW_NAMES = ("object", "array")

#: environment variable consulted when no explicit shadow is configured
SHADOW_ENV_VAR = "PMTEST_SHADOW"


def resolve_shadow_name(name: Optional[str] = None) -> str:
    """Resolve a shadow-store name from an explicit value or the environment.

    Mirrors ``resolve_engine_name``: explicit argument wins, then
    ``PMTEST_SHADOW``, then the ``object`` default.  Unknown names raise
    ``ValueError`` so typos fail loudly rather than silently checking
    with the wrong store.
    """
    if name is None:
        name = os.environ.get(SHADOW_ENV_VAR) or SHADOW_NAMES[0]
    name = str(name).strip().lower()
    if name not in SHADOW_NAMES:
        raise ValueError(
            f"unknown shadow store {name!r}; expected one of {SHADOW_NAMES}"
        )
    return name


class ValueCodec:
    """State-code table: interns values as dense small-int codes.

    Equal values (by ``==``/``hash``) always receive the same code, so
    code equality is value equality — ``coalesce`` and the batched
    kernels compare codes without decoding.  Subclasses may override
    :meth:`_on_new` to maintain parallel per-code metadata columns (the
    x86 rules keep a flush-epoch column for batched persist checks).
    """

    __slots__ = ("values", "_by_value")

    def __init__(self) -> None:
        #: code -> value (the decode table)
        self.values: List[object] = []
        self._by_value: dict = {}

    def encode(self, value) -> int:
        code = self._by_value.get(value)
        if code is None:
            code = len(self.values)
            self.values.append(value)
            self._by_value[value] = code
            self._on_new(value)
        return code

    def decode(self, code: int):
        return self.values[code]

    def __len__(self) -> int:
        return len(self.values)

    def _on_new(self, value) -> None:
        """Hook: a value was just assigned the next code."""


class ArrayIntervalMap:
    """Drop-in ``IntervalMap`` replacement over flat int64 columns.

    The public surface (queries, mutation, ``stats``, iteration) matches
    ``IntervalMap`` exactly; values are materialized through the codec
    on the way out.  Values must be hashable (the shadow's
    ``SegmentState`` is a frozen dataclass).
    """

    __slots__ = ("_starts", "_ends", "_codes", "codec", "stats", "_boxed")

    def __init__(
        self,
        segments: Optional[Iterable[Segment]] = None,
        codec: Optional[ValueCodec] = None,
    ) -> None:
        self._starts = array("q")
        self._ends = array("q")
        self._codes = array("q")
        self.codec = codec if codec is not None else ValueCodec()
        #: optional :class:`QueryStats`, same contract as ``IntervalMap``
        self.stats: Optional[QueryStats] = None
        #: True once address bounds overflowed int64 and the bound
        #: columns were boxed back to Python lists
        self._boxed = False
        if segments is not None:
            for start, end, value in segments:
                self.assign(start, end, value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._codes)

    def __bool__(self) -> bool:
        return bool(self._codes)

    def __iter__(self) -> Iterator[Segment]:
        decode = self.codec.values.__getitem__
        return (
            (s, e, decode(c))
            for s, e, c in zip(self._starts, self._ends, self._codes)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"[{s}, {e}): {v!r}" for s, e, v in self)
        return f"ArrayIntervalMap({inner})"

    def get(self, point: int):
        """Return the value covering ``point``, or ``None``."""
        i = bisect_right(self._starts, point) - 1
        if i >= 0 and self._starts[i] <= point < self._ends[i]:
            return self.codec.values[self._codes[i]]
        return None

    def overlaps(self, lo: int, hi: int, clip: bool = True) -> List[Segment]:
        """Segments intersecting ``[lo, hi)``; bounds clipped by default."""
        _check_range(lo, hi)
        i0 = self._first_overlap(lo)
        i1 = bisect_left(self._starts, hi, i0)
        stats = self.stats
        if stats is not None:
            stats.queries += 1
            stats.scanned += i1 - i0
        starts, ends, codes = self._starts, self._ends, self._codes
        decode = self.codec.values.__getitem__
        out: List[Segment] = []
        for i in range(i0, i1):
            start, end = starts[i], ends[i]
            if clip:
                if start < lo:
                    start = lo
                if end > hi:
                    end = hi
            out.append((start, end, decode(codes[i])))
        return out

    def gaps(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """Maximal subranges of ``[lo, hi)`` not covered."""
        _check_range(lo, hi)
        out: List[Tuple[int, int]] = []
        cursor = lo
        for start, end, _ in self.overlaps(lo, hi):
            if start > cursor:
                out.append((cursor, start))
            cursor = end
        if cursor < hi:
            out.append((cursor, hi))
        return out

    def covers(self, lo: int, hi: int) -> bool:
        """Whether every address in ``[lo, hi)`` is mapped.

        Same early-exit walk — and the same ``stats.scanned``
        accounting — as the object map.
        """
        _check_range(lo, hi)
        starts, ends = self._starts, self._ends
        n = len(starts)
        i = i0 = self._first_overlap(lo)
        cursor = lo
        while i < n and cursor < hi:
            if starts[i] > cursor:
                break  # hole before this segment
            cursor = ends[i]
            i += 1
        stats = self.stats
        if stats is not None:
            stats.queries += 1
            stats.scanned += i - i0
        return cursor >= hi

    def total_span(self) -> int:
        """Total number of addresses mapped."""
        return sum(e - s for s, e in zip(self._starts, self._ends))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def assign(self, lo: int, hi: int, value) -> None:
        """Set ``[lo, hi)`` to ``value``, overwriting any previous mapping."""
        self.assign_code(lo, hi, self.codec.encode(value))

    def assign_code(self, lo: int, hi: int, code: int) -> None:
        """``assign`` with a pre-encoded state code (hot-path variant)."""
        _check_range(lo, hi)
        i0, i1, rs, re_, rc = self._carve(lo, hi)
        # slot the new piece between the carve's prefix and suffix remainders
        ins = 1 if rs and rs[0] < lo else 0
        rs.insert(ins, lo)
        re_.insert(ins, hi)
        rc.insert(ins, code)
        self._splice(i0, i1, rs, re_, rc)

    def erase(self, lo: int, hi: int) -> None:
        """Remove any mapping over ``[lo, hi)``."""
        _check_range(lo, hi)
        i0, i1, rs, re_, rc = self._carve(lo, hi)
        self._splice(i0, i1, rs, re_, rc)

    def update(self, lo: int, hi: int, fn: Callable[[int, int, object], object]) -> None:
        """Replace each mapped subrange of ``[lo, hi)`` with ``fn``'s result.

        Same contract as ``IntervalMap.update``: ``fn`` sees the clipped
        ``(start, end, value)`` of every overlapping piece, gaps stay
        gaps, and nothing counts into ``stats``.
        """
        _check_range(lo, hi)
        i0 = self._first_overlap(lo)
        i1 = bisect_left(self._starts, hi, i0)
        starts, ends, codes = self._starts, self._ends, self._codes
        decode = self.codec.values.__getitem__
        encode = self.codec.encode
        rs: List[int] = []
        re_: List[int] = []
        rc: List[int] = []
        for i in range(i0, i1):
            start, end, code = starts[i], ends[i], codes[i]
            if start < lo:
                rs.append(start)
                re_.append(lo)
                rc.append(code)
                start = lo
            tail = None
            if end > hi:
                tail = end
                end = hi
            rs.append(start)
            re_.append(end)
            rc.append(encode(fn(start, end, decode(code))))
            if tail is not None:
                rs.append(hi)
                re_.append(tail)
                rc.append(code)
        self._splice(i0, i1, rs, re_, rc)

    def update_codes(self, lo: int, hi: int, code_fn: Callable[[int], int]) -> None:
        """Code-level ``update``: map each overlapped piece's code.

        For value functions that ignore the clipped bounds (the flush
        rules' first-flush-wins closure), this skips decode/encode
        entirely; callers typically memoize ``code_fn`` per call.
        """
        _check_range(lo, hi)
        i0 = self._first_overlap(lo)
        i1 = bisect_left(self._starts, hi, i0)
        if i0 == i1:
            return
        starts, ends, codes = self._starts, self._ends, self._codes
        rs: List[int] = []
        re_: List[int] = []
        rc: List[int] = []
        # Epochs repeat a handful of distinct codes across many
        # segments: resolve each through code_fn once, then hit the
        # local dict (cheaper than the callback's own memo lookup).
        memo: dict = {}
        memo_get = memo.get
        for i in range(i0, i1):
            start, end, code = starts[i], ends[i], codes[i]
            if start < lo:
                rs.append(start)
                re_.append(lo)
                rc.append(code)
                start = lo
            tail = None
            if end > hi:
                tail = end
                end = hi
            mapped = memo_get(code)
            if mapped is None:
                mapped = code_fn(code)
                memo[code] = mapped
            rs.append(start)
            re_.append(end)
            rc.append(mapped)
            if tail is not None:
                rs.append(hi)
                re_.append(tail)
                rc.append(code)
        self._splice(i0, i1, rs, re_, rc)

    def update_all(self, fn: Callable[[int, int, object], object]) -> None:
        """Replace every segment value with ``fn``'s result."""
        decode = self.codec.values.__getitem__
        encode = self.codec.encode
        self._codes = array(
            "q",
            (
                encode(fn(s, e, decode(c)))
                for s, e, c in zip(self._starts, self._ends, self._codes)
            ),
        )

    def clear(self) -> None:
        """Remove all mappings (the code table is retained)."""
        if self._boxed:
            self._starts = array("q")
            self._ends = array("q")
            self._boxed = False
        else:
            del self._starts[:]
            del self._ends[:]
        del self._codes[:]

    def coalesce(self) -> None:
        """Merge adjacent segments whose values compare equal.

        Codes intern by value equality, so code equality is value
        equality and no decode is needed.
        """
        starts, ends, codes = self._starts, self._ends, self._codes
        n = len(codes)
        if not n:
            return
        rs: List[int] = [starts[0]]
        re_: List[int] = [ends[0]]
        rc: List[int] = [codes[0]]
        for i in range(1, n):
            start = starts[i]
            if re_[-1] == start and rc[-1] == codes[i]:
                re_[-1] = ends[i]
            else:
                rs.append(start)
                re_.append(ends[i])
                rc.append(codes[i])
        if len(rs) != n:
            self._splice(0, n, rs, re_, rc)

    # ------------------------------------------------------------------
    # Batched epoch operations
    # ------------------------------------------------------------------
    def assign_many(self, items: Sequence[Tuple[int, int, object]]) -> None:
        """Apply a run of assigns in one sweep; later items win overlaps.

        Equivalent to ``for lo, hi, v in items: self.assign(lo, hi, v)``
        — including the final segmentation: each item contributes one
        segment per maximal subrange not overwritten by a later item.
        """
        encode = self.codec.encode
        self.assign_codes_many([(lo, hi, encode(v)) for lo, hi, v in items])

    def assign_codes_many(self, items: Sequence[Tuple[int, int, int]]) -> None:
        """``assign_many`` over pre-encoded ``(lo, hi, code)`` triples."""
        n = len(items)
        if n == 0:
            return
        if n == 1:
            lo, hi, code = items[0]
            self.assign_code(lo, hi, code)
            return
        for lo, hi, _ in items:
            _check_range(lo, hi)
        pieces = _surviving_pieces(items)
        self._merge_pieces(pieces)

    def update_many(
        self,
        ranges: Sequence[Tuple[int, int]],
        fn: Callable[[int, int, object], object],
    ) -> None:
        """``update`` over a sorted run of disjoint ranges, one carve pass.

        ``ranges`` must be ascending and non-overlapping (a fence-
        delimited epoch's flush set after sorting); ``fn`` sees clipped
        pieces in the same order sequential ``update`` calls would.
        """
        prev_hi = None
        for lo, hi in ranges:
            _check_range(lo, hi)
            if prev_hi is not None and lo < prev_hi:
                raise ValueError("update_many ranges must be sorted and disjoint")
            prev_hi = hi
        if not ranges:
            return
        starts, ends, codes = self._starts, self._ends, self._codes
        decode = self.codec.values.__getitem__
        encode = self.codec.encode
        i0 = self._first_overlap(ranges[0][0])
        i1 = bisect_left(self._starts, ranges[-1][1], i0)
        rs: List[int] = []
        re_: List[int] = []
        rc: List[int] = []
        k = i0
        for lo, hi in ranges:
            while k < i1 and ends[k] <= lo:
                rs.append(starts[k])
                re_.append(ends[k])
                rc.append(codes[k])
                k += 1
            while k < i1 and starts[k] < hi:
                start, end, code = starts[k], ends[k], codes[k]
                if start < lo:
                    rs.append(start)
                    re_.append(lo)
                    rc.append(code)
                    start = lo
                if end <= hi:
                    rs.append(start)
                    re_.append(end)
                    rc.append(encode(fn(start, end, decode(code))))
                    k += 1
                else:
                    rs.append(start)
                    re_.append(hi)
                    rc.append(encode(fn(start, hi, decode(code))))
                    # keep the remainder in place for the next range
                    self._set_bound(k, hi)
                    starts, ends, codes = self._starts, self._ends, self._codes
                    break
        while k < i1:
            rs.append(starts[k])
            re_.append(ends[k])
            rc.append(codes[k])
            k += 1
        self._splice(i0, i1, rs, re_, rc)

    def bounds_many(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> Tuple[List[int], List[int]]:
        """Per-range ``(i0, i1)`` segment windows, one bisect pass.

        The raw primitive under ``overlaps_many``/``covers_many`` and
        the rules' batched persist checks; performs no stats
        accounting (callers decide what counts as a query).
        """
        starts = self._starts
        i0s: List[int] = []
        i1s: List[int] = []
        for lo, hi in ranges:
            i0 = self._first_overlap(lo)
            i0s.append(i0)
            i1s.append(bisect_left(starts, hi, i0))
        return i0s, i1s

    def overlaps_many(
        self, ranges: Sequence[Tuple[int, int]], clip: bool = True
    ) -> List[List[Segment]]:
        """``overlaps`` for every range in one pass over the columns.

        Stats accounting matches per-call ``overlaps``: one query and
        ``i1 - i0`` scanned per range.
        """
        for lo, hi in ranges:
            _check_range(lo, hi)
        i0s, i1s = self.bounds_many(ranges)
        stats = self.stats
        if stats is not None:
            stats.queries += len(ranges)
            stats.scanned += sum(i1 - i0 for i0, i1 in zip(i0s, i1s))
        starts, ends, codes = self._starts, self._ends, self._codes
        decode = self.codec.values.__getitem__
        out: List[List[Segment]] = []
        for (lo, hi), i0, i1 in zip(ranges, i0s, i1s):
            row: List[Segment] = []
            for i in range(i0, i1):
                start, end = starts[i], ends[i]
                if clip:
                    if start < lo:
                        start = lo
                    if end > hi:
                        end = hi
                row.append((start, end, decode(codes[i])))
            out.append(row)
        return out

    def covers_many(self, ranges: Sequence[Tuple[int, int]]) -> List[bool]:
        """``covers`` for every range in one pass.

        With stats attached this delegates to per-range :meth:`covers`
        so the early-exit ``scanned`` accounting stays byte-identical to
        the object map; the batched path serves the metrics-off hot
        path.
        """
        if self.stats is not None:
            return [self.covers(lo, hi) for lo, hi in ranges]
        for lo, hi in ranges:
            _check_range(lo, hi)
        i0s, i1s = self.bounds_many(ranges)
        starts, ends = self._starts, self._ends
        out: List[bool] = []
        for (lo, hi), i0, i1 in zip(ranges, i0s, i1s):
            if i0 >= i1 or starts[i0] > lo:
                out.append(False)
                continue
            cursor = lo
            ok = True
            for i in range(i0, i1):
                if starts[i] > cursor:
                    ok = False
                    break
                cursor = ends[i]
            out.append(ok and cursor >= hi)
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _window(self, lo: int, hi: int) -> Tuple[int, int]:
        """Segment index window ``[i0, i1)`` overlapping ``[lo, hi)``.

        The raw bisection under the rules' column-level fast paths; no
        stats accounting (it answers no query by itself).
        """
        i0 = self._first_overlap(lo)
        return i0, bisect_left(self._starts, hi, i0)

    def _first_overlap(self, lo: int) -> int:
        """Index of the first segment whose end is greater than ``lo``."""
        i = bisect_right(self._starts, lo) - 1
        if i >= 0 and self._ends[i] > lo:
            return i
        return i + 1

    def _carve(self, lo: int, hi: int):
        """Like ``IntervalMap._carve`` but over columns.

        Returns ``(i0, i1, rs, re_, rc)`` where the r-lists hold the
        prefix and suffix remainders ready to receive the new middle.
        """
        i0 = self._first_overlap(lo)
        i1 = bisect_left(self._starts, hi, i0)
        rs: List[int] = []
        re_: List[int] = []
        rc: List[int] = []
        if i0 < i1:
            starts, ends, codes = self._starts, self._ends, self._codes
            if starts[i0] < lo:
                rs.append(starts[i0])
                re_.append(lo)
                rc.append(codes[i0])
            if ends[i1 - 1] > hi:
                rs.append(hi)
                re_.append(ends[i1 - 1])
                rc.append(codes[i1 - 1])
        return i0, i1, rs, re_, rc

    def _merge_pieces(self, pieces: List[Tuple[int, int, int]]) -> None:
        """Single-splice merge of sorted disjoint ``(lo, hi, code)`` pieces."""
        if not pieces:
            return
        starts, ends, codes = self._starts, self._ends, self._codes
        i0 = self._first_overlap(pieces[0][0])
        i1 = bisect_left(starts, pieces[-1][1], i0)
        rs: List[int] = []
        re_: List[int] = []
        rc: List[int] = []
        k = i0
        cur = None  # pending (start, end, code) remainder of an existing segment
        for plo, phi, pcode in pieces:
            # emit existing material strictly before this piece
            while True:
                if cur is None:
                    if k < i1:
                        cur = (starts[k], ends[k], codes[k])
                        k += 1
                    else:
                        break
                cs, ce, cc = cur
                if ce <= plo:
                    rs.append(cs)
                    re_.append(ce)
                    rc.append(cc)
                    cur = None
                elif cs < plo:
                    rs.append(cs)
                    re_.append(plo)
                    rc.append(cc)
                    cur = (plo, ce, cc)
                    break
                else:
                    break
            # drop existing material the piece overwrites
            while True:
                if cur is None:
                    if k < i1 and starts[k] < phi:
                        cur = (starts[k], ends[k], codes[k])
                        k += 1
                    else:
                        break
                cs, ce, cc = cur
                if cs >= phi:
                    break
                if ce <= phi:
                    cur = None
                else:
                    cur = (phi, ce, cc)
                    break
            rs.append(plo)
            re_.append(phi)
            rc.append(pcode)
        if cur is not None:
            rs.append(cur[0])
            re_.append(cur[1])
            rc.append(cur[2])
        while k < i1:
            rs.append(starts[k])
            re_.append(ends[k])
            rc.append(codes[k])
            k += 1
        self._splice(i0, i1, rs, re_, rc)

    def _set_bound(self, i: int, new_start: int) -> None:
        """Clip segment ``i``'s start to ``new_start`` in place."""
        try:
            self._starts[i] = new_start
        except OverflowError:
            self._box()
            self._starts[i] = new_start

    def _splice(
        self, i0: int, i1: int, rs: Sequence[int], re_: Sequence[int], rc: Sequence[int]
    ) -> None:
        """Replace segments ``[i0, i1)`` with the given column run."""
        carr = array("q", rc)
        if not self._boxed:
            try:
                sarr = array("q", rs)
                earr = array("q", re_)
            except OverflowError:
                self._box()
            else:
                self._starts[i0:i1] = sarr
                self._ends[i0:i1] = earr
                self._codes[i0:i1] = carr
                return
        self._starts[i0:i1] = list(rs)
        self._ends[i0:i1] = list(re_)
        self._codes[i0:i1] = carr

    def _box(self) -> None:
        """Fall back to list-backed bound columns (int64 overflow)."""
        if not self._boxed:
            self._starts = list(self._starts)
            self._ends = list(self._ends)
            self._boxed = True


def _surviving_pieces(
    items: Sequence[Tuple[int, int, int]]
) -> List[Tuple[int, int, int]]:
    """Sorted disjoint pieces equivalent to sequential assigns of ``items``.

    A reverse sweep over the run: later items win, so walking backwards
    each item keeps exactly the subranges not yet covered by (later)
    items already swept.  Mirrors the coverage sweep of
    ``X86Rules.apply_write_run`` but emits codes rather than mutating
    the shadow.
    """
    # fast path: ascending, non-overlapping runs survive whole
    disjoint = True
    prev_hi = None
    for lo, hi, _ in items:
        if prev_hi is not None and lo < prev_hi:
            disjoint = False
            break
        prev_hi = hi
    if disjoint:
        return list(items)
    from repro.core.interval_map import IntervalMap

    coverage: IntervalMap = IntervalMap()
    pieces: List[Tuple[int, int, int]] = []
    for lo, hi, code in reversed(items):
        for glo, ghi in coverage.gaps(lo, hi):
            pieces.append((glo, ghi, code))
        coverage.assign(lo, hi, True)
    pieces.sort(key=lambda p: p[0])
    return pieces
