"""Struct-of-arrays trace storage for the columnar replay engine.

The object engine materializes one :class:`~repro.core.events.Event`
per trace record — convenient, but on million-event traces the replay
hot path pays for one dataclass allocation, one enum attribute read and
one dict dispatch per record.  :class:`ColumnarTrace` stores the same
records as parallel columns:

``ops``
    one opcode byte per event (``Op.value``, always 1..255);
``flags``
    the wire-format presence bits (:data:`repro.core.traceio._EV_RANGE1`
    and friends) — free to keep from decode, recomputable otherwise;
``addrs``/``sizes``/``addr2s``/``size2s``
    64-bit signed columns (``array('q')``, falling back to a plain list
    when a value does not fit — property-based tests feed arbitrary
    ints);
``site_idx``
    per-event index into the interned ``site_table`` (``-1``: no site);
``seqs``
    explicit per-event sequence numbers, or ``None`` when every event's
    ``seq`` equals its index (the overwhelmingly common case — freshly
    recorded traces are always in identity order).

No per-event Python object exists anywhere in this layout; the columnar
decoder in :mod:`repro.core.traceio` fills these columns straight from
PMTB bytes.  The column scans (shard cuts, run boundaries) are
``bytes.translate``/``bytes.find`` hops, so the layout needs nothing
beyond the standard library.

Epoch sharding rides on the same type: a *shard* is the prefix of a
trace up to a fence-delimited epoch boundary, with ``check_from``
marking where real checking starts.  The checker silently replays
``[0, check_from)`` to reconstruct shadow state and fully evaluates
``[check_from, len)``, so concatenating per-shard reports in shard
order is byte-identical to one sequential replay (see
``DESIGN.md`` §10).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import List, Optional, Sequence, Union

from repro.core.events import (
    Event,
    FENCE_OPS,
    FLUSH_OPS,
    Op,
    SourceSite,
    Trace,
)

__all__ = ["ColumnarTrace", "OPS_BY_VALUE"]

#: ``op byte -> Op`` dispatch table (index 0 unused; enum values are 1-based).
OPS_BY_VALUE: List[Optional[Op]] = [None] * (max(op.value for op in Op) + 1)
for _op in Op:
    OPS_BY_VALUE[_op.value] = _op
del _op

OP_WRITE = Op.WRITE.value
OP_WRITE_NT = Op.WRITE_NT.value
OP_SFENCE = Op.SFENCE.value
OP_CHECK_PERSIST = Op.CHECK_PERSIST.value
OP_TX_BEGIN = Op.TX_BEGIN.value
OP_TX_END = Op.TX_END.value
OP_TX_ADD = Op.TX_ADD.value
OP_EXCLUDE = Op.EXCLUDE.value
OP_INCLUDE = Op.INCLUDE.value
OP_TX_CHECK_START = Op.TX_CHECK_START.value
OP_TX_CHECK_END = Op.TX_CHECK_END.value

#: Closed byte ranges the run-finding loops compare against.  The
#: assertions pin the enum layout those comparisons assume; they fire at
#: import time if :class:`Op` is ever reordered.
WRITE_MAX = max(OP_WRITE, OP_WRITE_NT)
FLUSH_MIN = min(op.value for op in FLUSH_OPS)
FLUSH_MAX = max(op.value for op in FLUSH_OPS)
FENCE_MIN = min(op.value for op in FENCE_OPS)
FENCE_MAX = max(op.value for op in FENCE_OPS)
assert {OP_WRITE, OP_WRITE_NT} == set(range(1, WRITE_MAX + 1))
assert {op.value for op in FLUSH_OPS} == set(range(FLUSH_MIN, FLUSH_MAX + 1))
assert {op.value for op in FENCE_OPS} == set(range(FENCE_MIN, FENCE_MAX + 1))
assert WRITE_MAX + 1 == FLUSH_MIN and FLUSH_MAX + 1 == FENCE_MIN

_EV_RANGE1 = 0x01
_EV_RANGE2 = 0x02
_EV_SITE = 0x04
_EV_SEQ = 0x08

#: 256-entry ``bytes.translate`` table marking the opcodes that can
#: change the :meth:`ColumnarTrace.shard_cuts` state machine: fences
#: (cut candidates) and the transaction/checker-scope brackets.  Every
#: other opcode maps to ``\x00`` so one C-speed translate + nonzero
#: scan finds the handful of positions the Python loop must visit.
_CUT_OPS = bytes(
    1
    if (
        FENCE_MIN <= b <= FENCE_MAX
        or b in (OP_TX_BEGIN, OP_TX_END, OP_TX_CHECK_START, OP_TX_CHECK_END)
    )
    else 0
    for b in range(256)
)

IntColumn = Union["array", List[int]]


def _pack(values: Sequence[int]) -> IntColumn:
    """64-bit column, falling back to a list for out-of-range ints."""
    try:
        return array("q", values)
    except OverflowError:
        return list(values)


class ColumnarTrace:
    """One trace (or one epoch shard of a trace) in columnar form."""

    __slots__ = (
        "trace_id",
        "thread_name",
        "ops",
        "flags",
        "addrs",
        "sizes",
        "addr2s",
        "size2s",
        "site_idx",
        "site_table",
        "seqs",
        "check_from",
        "is_shard",
    )

    def __init__(
        self,
        trace_id: int,
        thread_name: str,
        ops: bytearray,
        flags: bytearray,
        addrs: Sequence[int],
        sizes: Sequence[int],
        addr2s: Sequence[int],
        size2s: Sequence[int],
        site_idx: List[int],
        site_table: List[SourceSite],
        seqs: Optional[Sequence[int]] = None,
        check_from: int = 0,
        is_shard: bool = False,
    ) -> None:
        self.trace_id = trace_id
        self.thread_name = thread_name
        self.ops = ops
        self.flags = flags
        self.addrs = _pack(addrs) if isinstance(addrs, list) else addrs
        self.sizes = _pack(sizes) if isinstance(sizes, list) else sizes
        self.addr2s = _pack(addr2s) if isinstance(addr2s, list) else addr2s
        self.size2s = _pack(size2s) if isinstance(size2s, list) else size2s
        self.site_idx = site_idx
        self.site_table = site_table
        self.seqs = seqs
        self.check_from = check_from
        self.is_shard = is_shard

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shard = (
            f", check_from={self.check_from}" if self.is_shard else ""
        )
        return (
            f"ColumnarTrace(id={self.trace_id}, events={len(self.ops)}"
            f"{shard})"
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Columnarize an object-form trace (sites interned by identity,
        then by content — tracers reuse one site object per call site)."""
        events = trace.events
        n = len(events)
        ops = bytearray(n)
        flags = bytearray(n)
        addrs = [0] * n
        sizes = [0] * n
        addr2s = [0] * n
        size2s = [0] * n
        site_idx = [-1] * n
        site_table: List[SourceSite] = []
        by_id: dict = {}
        by_content: dict = {}
        seqs: Optional[List[int]] = None
        for i, event in enumerate(events):
            ops[i] = event.op.value
            f = 0
            addr = event.addr
            size = event.size
            if addr or size:
                f |= _EV_RANGE1
                addrs[i] = addr
                sizes[i] = size
            addr = event.addr2
            size = event.size2
            if addr or size:
                f |= _EV_RANGE2
                addr2s[i] = addr
                size2s[i] = size
            site = event.site
            if site is not None:
                f |= _EV_SITE
                ref = by_id.get(id(site))
                if ref is None:
                    ref = by_content.get(site)
                    if ref is None:
                        ref = by_content[site] = len(site_table)
                        site_table.append(site)
                    by_id[id(site)] = ref
                site_idx[i] = ref
            seq = event.seq
            if seq != i:
                f |= _EV_SEQ
                if seqs is None:
                    seqs = list(range(i))
                seqs.append(seq)
            elif seqs is not None:
                seqs.append(seq)
            flags[i] = f
        return cls(
            trace.trace_id,
            trace.thread_name,
            ops,
            flags,
            addrs,
            sizes,
            addr2s,
            size2s,
            site_idx,
            site_table,
            _pack(seqs) if seqs is not None else None,
        )

    def to_trace(self) -> Trace:
        """Materialize back into object form (fallback interop path)."""
        trace = Trace(self.trace_id, thread_name=self.thread_name)
        events = trace.events
        table = self.site_table
        for i in range(len(self.ops)):
            events.append(
                Event(
                    OPS_BY_VALUE[self.ops[i]],
                    self.addrs[i],
                    self.sizes[i],
                    self.addr2s[i],
                    self.size2s[i],
                    table[self.site_idx[i]] if self.site_idx[i] >= 0 else None,
                    self.seqs[i] if self.seqs is not None else i,
                )
            )
        return trace

    # ------------------------------------------------------------------
    # Per-event access (scratch-based: no allocation)
    # ------------------------------------------------------------------
    def site_at(self, i: int) -> Optional[SourceSite]:
        ref = self.site_idx[i]
        return self.site_table[ref] if ref >= 0 else None

    def seq_at(self, i: int) -> int:
        return self.seqs[i] if self.seqs is not None else i

    def fill(self, i: int, scratch: Event) -> Event:
        """Fill a reusable scratch :class:`Event` with record ``i``."""
        scratch.op = OPS_BY_VALUE[self.ops[i]]
        scratch.addr = self.addrs[i]
        scratch.size = self.sizes[i]
        scratch.addr2 = self.addr2s[i]
        scratch.size2 = self.size2s[i]
        ref = self.site_idx[i]
        scratch.site = self.site_table[ref] if ref >= 0 else None
        scratch.seq = self.seqs[i] if self.seqs is not None else i
        return scratch

    def event_tuples(self) -> List[tuple]:
        """Events as the 7-tuple wire form of ``traceio.encode_event``."""
        out = []
        table = self.site_table
        seqs = self.seqs
        for i in range(len(self.ops)):
            ref = self.site_idx[i]
            site = table[ref] if ref >= 0 else None
            out.append(
                (
                    self.ops[i],
                    self.addrs[i],
                    self.sizes[i],
                    self.addr2s[i],
                    self.size2s[i],
                    (site.file, site.line, site.function)
                    if site is not None
                    else None,
                    seqs[i] if seqs is not None else i,
                )
            )
        return out

    # ------------------------------------------------------------------
    # Row selection (coalescing, sharding)
    # ------------------------------------------------------------------
    def take(self, indices: List[int]) -> "ColumnarTrace":
        """A new trace holding rows ``indices`` with their original seqs
        (the coalescer drops dead writes but must preserve numbering)."""
        seqs = self.seqs
        return ColumnarTrace(
            self.trace_id,
            self.thread_name,
            bytearray(self.ops[i] for i in indices),
            bytearray(self.flags[i] for i in indices),
            [self.addrs[i] for i in indices],
            [self.sizes[i] for i in indices],
            [self.addr2s[i] for i in indices],
            [self.size2s[i] for i in indices],
            [self.site_idx[i] for i in indices],
            self.site_table,
            _pack([seqs[i] if seqs is not None else i for i in indices]),
            self.check_from,
            self.is_shard,
        )

    def prefix(self, end: int, check_from: int) -> "ColumnarTrace":
        """The shard ``[check_from, end)``: prefix columns plus the mark
        where silent state reconstruction stops and checking starts."""
        seqs = self.seqs
        return ColumnarTrace(
            self.trace_id,
            self.thread_name,
            bytearray(self.ops[:end]),
            bytearray(self.flags[:end]),
            self.addrs[:end],
            self.sizes[:end],
            self.addr2s[:end],
            self.size2s[:end],
            self.site_idx[:end],
            self.site_table,
            seqs[:end] if seqs is not None else None,
            check_from,
            True,
        )

    # ------------------------------------------------------------------
    # Epoch sharding
    # ------------------------------------------------------------------
    def shard_cuts(self) -> List[int]:
        """Indices where the trace may be split across workers.

        A cut point sits immediately after an ordering fence, outside
        any transaction and outside any open ``TX_CHECKER`` scope —
        exactly the positions where per-shard report streams concatenate
        into the sequential stream (no report can span the cut, and the
        end-of-shard implicit checker close can never fire early).

        One ``bytes.translate`` marks the fence/bracket opcodes
        (:data:`_CUT_OPS`) and the ordering sweep's state machine then
        visits only those positions, found with C-speed ``bytes.find``
        hops.  Output is byte-identical to walking every event (the
        state only changes on marked bytes).
        """
        ops = self.ops
        n = len(ops)
        if n == 0:
            return []
        marked = bytes(ops).translate(_CUT_OPS)
        cuts: List[int] = []
        depth = 0
        check = False
        fence_min = FENCE_MIN
        fence_max = FENCE_MAX
        append = cuts.append
        positions = []
        pos = marked.find(b"\x01")
        while pos != -1:
            positions.append(pos)
            pos = marked.find(b"\x01", pos + 1)
        for i in positions:
            b = ops[i]
            if fence_min <= b <= fence_max:
                if depth == 0 and not check and i + 1 < n:
                    append(i + 1)
            elif b == OP_TX_BEGIN:
                depth += 1
            elif b == OP_TX_END:
                if depth:
                    depth -= 1
            elif b == OP_TX_CHECK_START:
                check = True
            else:  # OP_TX_CHECK_END: the only other marked opcode
                check = False
        return cuts

    def split(self, num_shards: int) -> List["ColumnarTrace"]:
        """Split into up to ``num_shards`` epoch shards (possibly fewer
        when the trace has too few eligible cut points; ``[self]`` when
        no split is possible or worthwhile)."""
        n = len(self.ops)
        if num_shards <= 1 or n == 0 or self.is_shard or self.check_from:
            return [self]
        cuts = self.shard_cuts()
        if not cuts:
            return [self]
        chosen: List[int] = []
        prev = 0
        for k in range(1, num_shards):
            ideal = k * n // num_shards
            pos = bisect_left(cuts, ideal)
            best = None
            for cand in cuts[max(0, pos - 1):pos + 1]:
                if cand <= prev:
                    continue
                if best is None or abs(cand - ideal) < abs(best - ideal):
                    best = cand
            if best is not None:
                chosen.append(best)
                prev = best
        if not chosen:
            return [self]
        bounds = [0] + chosen + [n]
        return [
            self.prefix(bounds[k + 1], bounds[k])
            for k in range(len(bounds) - 1)
        ]
