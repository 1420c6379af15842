"""Decode-once shared-memory column arenas for zero-copy shard dispatch.

Epoch sharding (DESIGN.md §10) made large traces parallelizable, but the
dispatch still shipped payload: every shard was re-encoded from its
columns into the tuple wire, pickled, copied through the task queue,
and re-decoded in the worker — the same bytes moving four times per
shard.  A :class:`ColumnArena` removes all of it.  The submitting
process lays a trace's columns out **once** in a named
``multiprocessing.shared_memory`` segment, and a shard becomes an O(1)
descriptor — segment name plus epoch-range offsets — that workers
resolve into :class:`~repro.core.columns.ColumnarTrace` views backed by
``memoryview`` slices of the very same pages.  No per-shard encode, no
copy, no decode.

Segment layout (little-endian)::

    [header 104 bytes]
    [ops: n bytes][flags: n bytes][pad to 8]
    [addrs: n i64][sizes: n i64][addr2s: n i64][size2s: n i64]
    [site_idx: n i64][seqs: n i64, only when present]
    [meta blob: pickled (thread_name, site_table)]

    header = magic "PMCA" | version u16 | flags u16 | trace_id i64
           | n_events u64 | 8 column offsets u64 | meta off/len u64

The integer columns are 8-byte aligned so attaching is a
``memoryview.cast("q")`` — indexing them is as fast as ``array('q')``
and slicing them is free.  The meta blob (thread name plus the interned
site table) is decoded once per attach, never per event.

Lifecycle: the arena is immutable after build, travels by segment
*name* inside a tuple-wire descriptor, every process re-attaches at
most once through the module-level cache (:func:`attach`), and only
the building process — guarded by pid, since forked workers inherit
the builder object — unlinks the segment on
:meth:`ColumnArena.release`.  ``release`` is idempotent and safe while
readers still hold views: the name is unlinked immediately (POSIX keeps
the pages alive for existing mappings) and our own mapping is closed
best-effort once no column view pins it.
"""

from __future__ import annotations

import atexit
import os
import pickle
import struct
from array import array
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Tuple

from repro.core.columns import ColumnarTrace

__all__ = [
    "ArenaError",
    "ArenaOverflow",
    "ColumnArena",
    "ArenaShardRef",
    "DESCRIPTOR_TAG",
    "attach",
    "ensure_tracker",
    "is_descriptor",
    "resolve_descriptor",
]

#: First element of a shard-descriptor wire tuple (and the segment
#: magic): ``("PMCA", segment_name, trace_id, end, check_from)``.
DESCRIPTOR_TAG = "PMCA"

_MAGIC = b"PMCA"
_VERSION = 1
_FLAG_SEQS = 0x01

#: magic | version | flags | trace_id | n_events | ops/flags/addrs/
#: sizes/addr2s/size2s/site_idx/seqs offsets | meta offset | meta length
_HEADER = struct.Struct("<4sHHq11Q")


class ArenaError(Exception):
    """A descriptor that cannot be resolved (gone, truncated, bogus)."""


class ArenaOverflow(ArenaError):
    """Trace columns that do not fit the fixed-width arena layout.

    Raised at build time when a column fell back to a plain Python list
    (a value outside the signed 64-bit range); callers fall back to
    ordinary payload shipping.
    """


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _i64_column(col, what: str) -> array:
    """``col`` as an ``array('q')``, refusing the list fallback."""
    if isinstance(col, array):
        return col
    if isinstance(col, list):
        try:
            return array("q", col)
        except OverflowError:
            raise ArenaOverflow(
                f"{what} column holds values outside 64-bit range"
            ) from None
    # memoryview from another arena: already the right shape.
    return col


class ColumnArena:
    """One trace's columns in a named shared-memory segment."""

    def __init__(
        self,
        cols: Optional[ColumnarTrace] = None,
        *,
        name: Optional[str] = None,
    ) -> None:
        self._released = False
        self._views: Tuple = ()
        if name is None:
            if cols is None:
                raise ValueError("ColumnArena needs columns or a name")
            self._build(cols)
            self._owner_pid = os.getpid()
        else:  # re-attach (descriptor path: workers resolving shards)
            # Attaching re-registers the name with the resource
            # tracker.  Workers must *share* the creator's tracker for
            # this to be a harmless set-add that the creator's unlink
            # balances — which is why :func:`ensure_tracker` runs
            # before any worker is forked (a worker forked before the
            # tracker exists would lazily spawn its own, and that
            # private tracker would "clean up" a crashed worker by
            # unlinking arenas its siblings still resolve).
            self._shm = shared_memory.SharedMemory(name=name)
            self._owner_pid = -1
            self._parse()
        self._name = self._shm.name

    # ------------------------------------------------------------------
    # Build (submitter side)
    # ------------------------------------------------------------------
    def _build(self, cols: ColumnarTrace) -> None:
        n = len(cols)
        addrs = _i64_column(cols.addrs, "addrs")
        sizes = _i64_column(cols.sizes, "sizes")
        addr2s = _i64_column(cols.addr2s, "addr2s")
        size2s = _i64_column(cols.size2s, "size2s")
        site_idx = _i64_column(cols.site_idx, "site_idx")
        seqs = (
            _i64_column(cols.seqs, "seqs") if cols.seqs is not None else None
        )
        meta = pickle.dumps(
            (cols.thread_name, list(cols.site_table)),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

        ops_off = _align8(_HEADER.size)
        flags_off = ops_off + n
        addrs_off = _align8(flags_off + n)
        sizes_off = addrs_off + 8 * n
        addr2s_off = sizes_off + 8 * n
        size2s_off = addr2s_off + 8 * n
        site_off = size2s_off + 8 * n
        seqs_off = site_off + 8 * n if seqs is not None else 0
        meta_off = (seqs_off + 8 * n) if seqs is not None else site_off + 8 * n
        total = meta_off + len(meta)

        self._shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        buf = self._shm.buf
        _HEADER.pack_into(
            buf,
            0,
            _MAGIC,
            _VERSION,
            _FLAG_SEQS if seqs is not None else 0,
            cols.trace_id,
            n,
            ops_off,
            flags_off,
            addrs_off,
            sizes_off,
            addr2s_off,
            size2s_off,
            site_off,
            seqs_off,
            meta_off,
            len(meta),
        )
        buf[ops_off:ops_off + n] = bytes(cols.ops)
        buf[flags_off:flags_off + n] = bytes(cols.flags)
        for off, col in (
            (addrs_off, addrs),
            (sizes_off, sizes),
            (addr2s_off, addr2s),
            (size2s_off, size2s),
            (site_off, site_idx),
        ):
            buf[off:off + 8 * n] = memoryview(col).cast("B")
        if seqs is not None:
            buf[seqs_off:seqs_off + 8 * n] = memoryview(seqs).cast("B")
        buf[meta_off:meta_off + len(meta)] = meta
        self._parse()

    # ------------------------------------------------------------------
    # Attach (both sides share the parse)
    # ------------------------------------------------------------------
    def _parse(self) -> None:
        buf = self._shm.buf
        try:
            (
                magic,
                version,
                flags,
                trace_id,
                n,
                ops_off,
                flags_off,
                addrs_off,
                sizes_off,
                addr2s_off,
                size2s_off,
                site_off,
                seqs_off,
                meta_off,
                meta_len,
            ) = _HEADER.unpack_from(buf, 0)
        except struct.error as exc:
            raise ArenaError(f"arena segment too small: {exc}") from None
        if magic != _MAGIC:
            raise ArenaError(f"bad arena magic {bytes(magic)!r}")
        if version != _VERSION:
            raise ArenaError(f"unsupported arena version {version}")
        if meta_off + meta_len > len(buf):
            raise ArenaError("arena header offsets exceed segment size")
        self.trace_id = trace_id
        self.n_events = n
        self._ops = buf[ops_off:ops_off + n]
        self._flags = buf[flags_off:flags_off + n]
        self._addrs = buf[addrs_off:addrs_off + 8 * n].cast("q")
        self._sizes = buf[sizes_off:sizes_off + 8 * n].cast("q")
        self._addr2s = buf[addr2s_off:addr2s_off + 8 * n].cast("q")
        self._size2s = buf[size2s_off:size2s_off + 8 * n].cast("q")
        self._site_idx = buf[site_off:site_off + 8 * n].cast("q")
        self._seqs = (
            buf[seqs_off:seqs_off + 8 * n].cast("q")
            if flags & _FLAG_SEQS
            else None
        )
        try:
            self.thread_name, self.site_table = pickle.loads(
                bytes(buf[meta_off:meta_off + meta_len])
            )
        except Exception as exc:
            raise ArenaError(f"arena meta blob corrupt: {exc!r}") from None
        self._views = (
            self._ops,
            self._flags,
            self._addrs,
            self._sizes,
            self._addr2s,
            self._size2s,
            self._site_idx,
            self._seqs,
        )

    # ------------------------------------------------------------------
    # Zero-copy trace views
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def size(self) -> int:
        """Size of the shared segment in bytes (page-rounded by the OS)."""
        return self._shm.size

    def __len__(self) -> int:
        return self.n_events

    def trace(
        self,
        end: Optional[int] = None,
        check_from: int = 0,
        is_shard: bool = False,
    ) -> ColumnarTrace:
        """A :class:`ColumnarTrace` over ``[0, end)`` whose columns are
        memoryview slices of the shared pages — no bytes are copied and
        no decode runs; ``check_from`` marks where checking starts."""
        if self._released:
            raise ArenaError(f"column arena {self._name} is released")
        n = self.n_events
        if end is None:
            end = n
        if not 0 <= check_from <= end <= n:
            raise ArenaError(
                f"arena range [{check_from}, {end}) outside 0..{n}"
            )
        return ColumnarTrace(
            self.trace_id,
            self.thread_name,
            self._ops[:end],
            self._flags[:end],
            self._addrs[:end],
            self._sizes[:end],
            self._addr2s[:end],
            self._size2s[:end],
            self._site_idx[:end],
            self.site_table,
            self._seqs[:end] if self._seqs is not None else None,
            check_from,
            is_shard,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop our column views and detach the local mapping.

        Best-effort: outstanding :meth:`trace` views exported to callers
        keep the mapping pinned (``BufferError``); the pages go away
        when those views die with their process.
        """
        self._views = ()
        for attr in ("_ops", "_flags", "_addrs", "_sizes", "_addr2s",
                     "_size2s", "_site_idx", "_seqs"):
            if getattr(self, attr, None) is not None:
                setattr(self, attr, None)
        try:
            self._shm.close()
        except BufferError:
            pass

    def release(self) -> None:
        """Idempotent close; the building process also unlinks the name.

        Forked workers inherit the builder object but must never unlink
        a segment their siblings still resolve, hence the pid guard.
        """
        if self._released:
            return
        self._released = True
        _ATTACHED.pop(self._name, None)
        if self._owner_pid == os.getpid():
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self.close()

    def __del__(self):  # pragma: no cover - GC-timing dependent
        try:
            self.release()
        except Exception:
            pass


#: Per-process attach cache: each worker maps a given arena exactly once
#: no matter how many shard descriptors reference it.  Builders register
#: themselves so the degradation path resolves descriptors in-process.
_ATTACHED: Dict[str, ColumnArena] = {}


def attach(name: str) -> ColumnArena:
    """The process-wide :class:`ColumnArena` for ``name`` (cached)."""
    arena = _ATTACHED.get(name)
    if arena is None or arena._released:
        try:
            arena = ColumnArena(name=name)
        except FileNotFoundError as exc:
            raise ArenaError(f"column arena {name!r} is gone") from exc
        except OSError as exc:
            raise ArenaError(
                f"column arena {name!r} unavailable: {exc!r}"
            ) from exc
        _ATTACHED[name] = arena
    return arena


def _register(arena: ColumnArena) -> None:
    _ATTACHED[arena.name] = arena


class ArenaShardRef:
    """One epoch shard as an O(1) descriptor into a built arena.

    Submit-side only: :func:`repro.core.traceio.encode_trace` turns it
    into the 5-tuple descriptor wire and workers resolve that back into
    a zero-copy trace view via :func:`resolve_descriptor`.
    """

    __slots__ = ("arena", "end", "check_from")

    def __init__(self, arena: ColumnArena, end: int, check_from: int) -> None:
        self.arena = arena
        self.end = end
        self.check_from = check_from

    @property
    def trace_id(self) -> int:
        return self.arena.trace_id

    def __len__(self) -> int:
        return self.end

    def descriptor(self) -> tuple:
        return (
            DESCRIPTOR_TAG,
            self.arena.name,
            self.arena.trace_id,
            self.end,
            self.check_from,
        )

    def resolve(self) -> ColumnarTrace:
        return self.arena.trace(self.end, self.check_from, is_shard=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArenaShardRef({self.arena.name}, id={self.trace_id}, "
            f"end={self.end}, check_from={self.check_from})"
        )


def is_descriptor(wire) -> bool:
    """True when a tuple wire is an arena shard descriptor."""
    return (
        type(wire) is tuple
        and len(wire) == 5
        and wire[0] == DESCRIPTOR_TAG
    )


def resolve_descriptor(wire) -> ColumnarTrace:
    """Resolve a descriptor wire into a zero-copy trace view.

    Raises :class:`ArenaError` (never a bare ``KeyError``/``OSError``)
    on anything unresolvable so the codec can fail typed.
    """
    try:
        _tag, name, trace_id, end, check_from = wire
    except ValueError as exc:
        raise ArenaError(f"malformed arena descriptor: {exc}") from None
    if not isinstance(name, str):
        raise ArenaError("arena descriptor name must be a string")
    arena = attach(name)
    if arena.trace_id != trace_id:
        raise ArenaError(
            f"arena {name} holds trace {arena.trace_id}, "
            f"descriptor wants {trace_id}"
        )
    if not isinstance(end, int) or not isinstance(check_from, int):
        raise ArenaError("arena descriptor offsets must be integers")
    return arena.trace(end, check_from, is_shard=True)


def build_arena(cols: ColumnarTrace) -> ColumnArena:
    """Build and register an arena for ``cols`` (submitter side)."""
    arena = ColumnArena(cols)
    _register(arena)
    return arena


def ensure_tracker() -> None:
    """Start the multiprocessing resource tracker in this process.

    Must run before any worker is forked.  The tracker starts lazily on
    first shared-memory use, so a worker forked earlier would spawn its
    *own* private tracker on attach — and that tracker would "clean up"
    a crashed worker by unlinking arenas its siblings still resolve.
    With the tracker pre-started, every worker inherits its pipe:
    attach-side registrations are harmless set-adds that the creator's
    unlink balances exactly once.
    """
    try:
        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - platform tracker internals
        pass


def release_attached() -> None:
    """Release every arena in this process's attach cache.

    Workers call this on clean exit so the shared mappings close while
    the interpreter is still healthy — at shutdown, GC may finalize a
    ``SharedMemory`` before the column views that pin its buffer,
    which spews ``BufferError`` noise from ``__del__``.  Creator-owned
    arenas in the cache belong to their pool's ``close()`` and are
    skipped.
    """
    for arena in list(_ATTACHED.values()):
        if arena._owner_pid != os.getpid():
            arena.release()


@atexit.register
def _release_all() -> None:  # pragma: no cover - interpreter teardown
    """Release every cached arena before interpreter teardown.

    At shutdown, GC may finalize a ``SharedMemory`` before the column
    memoryviews pinning its buffer, which makes its ``__del__`` print
    ``BufferError`` noise.  Releasing here — while reference counting
    still runs promptly — drops the views first, so the segment closes
    cleanly.
    """
    for arena in list(_ATTACHED.values()):
        try:
            arena.release()
        except Exception:
            pass
