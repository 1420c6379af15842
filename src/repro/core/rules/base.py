"""The persistency-model strategy interface.

A rules object owns three responsibilities:

1. applying each PM *operation* to the shadow memory (possibly emitting
   performance warnings along the way, e.g. duplicate writebacks);
2. deriving the *persist interval* of every modified subrange of an
   address range;
3. deciding what "A is ordered before B" means for two persist intervals
   (x86: A's interval must end before B's starts; HOPS: A's must start
   strictly earlier).

The two low-level checkers are implemented here once, in terms of those
responsibilities, so every persistency model gets them for free.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Tuple

from repro.core.events import Event, Op
from repro.core.intervals import Interval
from repro.core.reports import Level, Report, ReportCode
from repro.core.shadow import SegmentState, ShadowMemory

#: ``(lo, hi, interval, state)`` for one modified subrange.
RangeInterval = Tuple[int, int, Interval, SegmentState]


class UnsupportedOperation(Exception):
    """A trace contains an op the active persistency model does not define.

    For example, a ``clwb`` makes no sense under HOPS (which has no
    software-visible writebacks) and an ``ofence`` makes none under x86.
    Reaching this exception means the program under test was built for a
    different PM system than the one the engine is configured with — a
    configuration error, not a crash-consistency bug, hence an exception
    rather than a report.
    """


class PersistencyRules(ABC):
    """Strategy object defining one persistency model's checking rules."""

    #: short model name used in reports and benchmarks
    name: str = "abstract"

    #: ops this model accepts in traces (fences, flush flavours, ...)
    supported_ops: frozenset = frozenset()

    def make_shadow(self) -> ShadowMemory:
        """Create a fresh shadow memory for one trace."""
        return ShadowMemory()

    def state_codec(self):
        """A fresh state-code table for the array shadow store, or ``None``.

        Models that support the ``--shadow array`` store return a
        :class:`repro.core.interval_array.ValueCodec` (x86 returns its
        :class:`repro.core.rules.x86.SegmentStateCodec`, which keeps a
        parallel flush-epoch column for batched persist checks).
        ``None`` — the default — means the model's states have no code
        table and :func:`repro.core.shadow.make_shadow_for` quietly
        keeps the object map for it.
        """
        return None

    # ------------------------------------------------------------------
    # Operation semantics
    # ------------------------------------------------------------------
    @abstractmethod
    def apply_op(self, shadow: ShadowMemory, event: Event) -> List[Report]:
        """Update the shadow for one PM operation; return any warnings."""

    def apply_op_silent(self, shadow: ShadowMemory, event: Event) -> None:
        """Apply an op for its *state effects only*, discarding reports.

        Used by epoch-shard replay to reconstruct shadow state over a
        prefix that an earlier shard has already checked.  Shadow
        mutations must be identical to :meth:`apply_op`'s; the default
        simply delegates and drops the reports (reports are apply_op's
        only output besides the mutation, so this is always correct).
        Models may override to skip diagnostic-only scans.
        """
        self.apply_op(shadow, event)

    # ------------------------------------------------------------------
    # Interval derivation
    # ------------------------------------------------------------------
    @abstractmethod
    def persist_intervals(
        self, shadow: ShadowMemory, lo: int, hi: int
    ) -> List[RangeInterval]:
        """Persist intervals for every modified subrange of ``[lo, hi)``."""

    @abstractmethod
    def ordered(self, a: Interval, b: Interval) -> bool:
        """Whether interval ``a`` is guaranteed to persist before ``b``."""

    # ------------------------------------------------------------------
    # The two low-level checkers (paper Section 3.1)
    # ------------------------------------------------------------------
    def check_persist(self, shadow: ShadowMemory, event: Event) -> List[Report]:
        """``isPersist(addr, size)``.

        Fails for every subrange whose persist interval has not closed by
        the current timestamp.  Never-written subranges trivially pass
        ("persisted since their last update" — there was no update).
        """
        reports: List[Report] = []
        for lo, hi, interval, state in self.persist_intervals(
            shadow, event.addr, event.end
        ):
            if not interval.ends_by(shadow.timestamp):
                reports.append(
                    Report(
                        level=Level.FAIL,
                        code=ReportCode.NOT_PERSISTED,
                        message=(
                            f"[{lo:#x}, {hi:#x}) may not be persistent: "
                            f"persist interval {interval} is open at "
                            f"epoch {shadow.timestamp}"
                        ),
                        site=event.site,
                        related_site=state.write_site,
                        seq=event.seq,
                    )
                )
        return reports

    def check_order(self, shadow: ShadowMemory, event: Event) -> List[Report]:
        """``isOrderedBefore(addrA, sizeA, addrB, sizeB)``.

        Fails for every pair of persist intervals (one over A, one over B)
        that the model cannot guarantee are ordered.  If either range was
        never written there is nothing to order; that usually indicates a
        misplaced checker, so it is surfaced as a warning.
        """
        a_side = self.persist_intervals(shadow, event.addr, event.end)
        b_side = self.persist_intervals(shadow, event.addr2, event.end2)
        if not a_side or not b_side:
            empty = "first" if not a_side else "second"
            return [
                Report(
                    level=Level.WARN,
                    code=ReportCode.ORDER_UNKNOWN,
                    message=(
                        f"isOrderedBefore: the {empty} range was never "
                        "written in this trace; nothing to order"
                    ),
                    site=event.site,
                    seq=event.seq,
                )
            ]
        reports: List[Report] = []
        for a_lo, a_hi, a_iv, a_state in a_side:
            for b_lo, b_hi, b_iv, _ in b_side:
                if not self.ordered(a_iv, b_iv):
                    reports.append(
                        Report(
                            level=Level.FAIL,
                            code=ReportCode.NOT_ORDERED,
                            message=(
                                f"[{a_lo:#x}, {a_hi:#x}) {a_iv} may not "
                                f"persist before [{b_lo:#x}, {b_hi:#x}) "
                                f"{b_iv}: persist intervals are not ordered"
                            ),
                            site=event.site,
                            related_site=a_state.write_site,
                            seq=event.seq,
                        )
                    )
        return reports

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def reject(self, event: Event) -> None:
        raise UnsupportedOperation(
            f"{self.name} persistency model does not define "
            f"{event.op.name} (at {event.site})"
        )

    def is_supported(self, op: Op) -> bool:
        return op in self.supported_ops
