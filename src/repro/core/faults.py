"""Deterministic chaos injection for the checking pipeline.

The decoupled runtime (paper Section 4.3-4.5) is only trustworthy if the
checking *infrastructure* survives its own faults: a crashed worker must
not silently drop traces, a stalled queue must not park ``drain``
forever, and none of that recovery may change a verdict.  This module
provides the fault model those guarantees are tested against.

A :class:`FaultPlan` is a deterministic, seed-derivable schedule of
faults.  Components that can fail consult the plan at **named fault
points** (:class:`FaultPoint`) on their hot paths; the plan answers with
a :class:`FaultRule` when that particular hit should misbehave.  Because
the plan is plain data (picklable, no clocks, no global state), the same
seed reproduces the same fault schedule in every backend, in worker
processes, and across reruns — chaos runs are replayable bug reports.

Fault kinds and where they strike:

======================  ================================================
``CRASH``               a worker dies abruptly (``os._exit`` for process
                        workers, silent thread exit for thread workers)
``HANG``                a worker stops making progress (sleeps until the
                        watchdog or ``close`` intervenes)
``SLOW``                a worker sleeps ``delay`` seconds, then proceeds
``STALL``               the submitting side sleeps before a queue put
``CORRUPT``             the wire encoding of a trace is mangled in
                        transit (exercises typed decode validation)
``FAIL``                the operation raises :class:`FaultError`
                        (e.g. backend spawn failure)
======================  ================================================

Recovery policy (how the pipeline responds) lives with the backends in
:mod:`repro.core.backends`; this module only decides *what goes wrong
when*.  Respawned workers are never re-injected: a plan applies to the
first generation of workers only, so a single ``CRASH`` rule cannot
crash-loop its own recovery.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple


class FaultError(RuntimeError):
    """An injected infrastructure failure (not a checking verdict)."""


class FaultKind(Enum):
    CRASH = "crash"
    HANG = "hang"
    SLOW = "slow"
    STALL = "stall"
    CORRUPT = "corrupt"
    FAIL = "fail"

    def __str__(self) -> str:
        return self.value


class FaultPoint:
    """Named places where the pipeline consults the fault plan."""

    #: a checking worker about to validate a batch (thread and process)
    WORKER_BATCH = "worker.batch"
    #: backend construction / worker-pool spawn
    SPAWN = "backend.spawn"
    #: the submitting side pushing a batch onto the task queue
    QUEUE_PUT = "queue.put"
    #: a trace being flattened to the wire encoding
    WIRE_ENCODE = "wire.encode"
    #: the kernel-FIFO producer (simulated kernel module) enqueueing
    KFIFO_PUT = "kfifo.put"
    #: the checking daemon accepting a new client connection
    DAEMON_ACCEPT = "daemon.accept"
    #: the daemon decoding one framed message from a session socket
    DAEMON_SESSION_DECODE = "daemon.session_decode"
    #: the daemon's admission ladder deciding whether to shed a frame
    DAEMON_SHED = "daemon.shed"

    ALL = (WORKER_BATCH, SPAWN, QUEUE_PUT, WIRE_ENCODE, KFIFO_PUT,
           DAEMON_ACCEPT, DAEMON_SESSION_DECODE, DAEMON_SHED)


#: Kinds the pipeline is expected to recover from without changing the
#: aggregate verdict.  Seed-derived plans draw only from these, so a
#: chaos CI run still demands a green suite.
RECOVERABLE_KINDS = frozenset({FaultKind.CRASH, FaultKind.SLOW, FaultKind.STALL})

#: How long a HANG sleeps when no explicit delay is given — effectively
#: forever relative to any watchdog.
HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class FaultRule:
    """Fire ``kind`` on hits ``[at, at + count)`` of ``point``.

    ``worker`` restricts the rule to one worker index (``None`` matches
    any); hit counters are kept per ``(point, worker)`` pair, so "crash
    worker 0 on its second batch" is expressible and deterministic.
    """

    point: str
    kind: FaultKind
    at: int = 0
    count: int = 1
    delay: float = 0.0
    worker: Optional[int] = None

    def matches(self, point: str, hit: int, worker: Optional[int]) -> bool:
        if point != self.point:
            return False
        if self.worker is not None and worker != self.worker:
            return False
        return self.at <= hit < self.at + self.count


@dataclass
class FaultPlan:
    """A deterministic schedule of faults, consulted at fault points.

    The plan is plain picklable data; each process that holds a copy
    advances its own hit counters, so worker-side points count per
    worker process (deterministic regardless of scheduling).
    """

    rules: List[FaultRule] = field(default_factory=list)
    seed: Optional[int] = None
    _hits: Dict[Tuple[str, Optional[int]], int] = field(
        default_factory=dict, repr=False
    )

    def fire(self, point: str, worker: Optional[int] = None) -> Optional[FaultRule]:
        """Record one hit of ``point`` and return the rule to apply, if any."""
        key = (point, worker)
        hit = self._hits.get(key, 0)
        self._hits[key] = hit + 1
        for rule in self.rules:
            if rule.matches(point, hit, worker):
                return rule
        return None

    def sleep_if_told(self, point: str, worker: Optional[int] = None) -> None:
        """Convenience for points that only honour SLOW/STALL delays."""
        rule = self.fire(point, worker)
        if rule is not None and rule.kind in (FaultKind.SLOW, FaultKind.STALL):
            time.sleep(rule.delay)

    def reset(self) -> None:
        """Forget hit counters (a fresh run of the same schedule)."""
        self._hits.clear()


def _seeded_point_rules(point: str, seed: int) -> List[FaultRule]:
    """The canonical seeded rule(s) for one fault point.

    Each point draws from its own ``Random(f"{seed}:{point}")`` stream,
    so the schedule a point gets is independent of which *other* points
    were requested — ``points=["daemon.shed"]`` fires the same shed as
    ``points=FaultPoint.ALL`` with the same seed.
    """
    rng = random.Random(f"{seed}:{point}")
    if point == FaultPoint.WORKER_BATCH:
        return [
            FaultRule(point, FaultKind.CRASH, at=rng.randint(0, 2), worker=0),
            FaultRule(
                point,
                FaultKind.SLOW,
                at=rng.randint(0, 4),
                count=2,
                delay=rng.uniform(0.001, 0.01),
                worker=rng.randint(0, 3),
            ),
        ]
    if point == FaultPoint.SPAWN:
        return [FaultRule(point, FaultKind.FAIL, at=0)]
    if point == FaultPoint.QUEUE_PUT:
        return [
            FaultRule(
                point,
                FaultKind.STALL,
                at=rng.randint(0, 3),
                delay=rng.uniform(0.001, 0.005),
            )
        ]
    if point == FaultPoint.WIRE_ENCODE:
        return [FaultRule(point, FaultKind.CORRUPT, at=rng.randint(0, 3))]
    if point == FaultPoint.KFIFO_PUT:
        return [
            FaultRule(
                point,
                FaultKind.STALL,
                at=rng.randint(0, 3),
                count=2,
                delay=rng.uniform(0.0005, 0.002),
            )
        ]
    if point == FaultPoint.DAEMON_ACCEPT:
        return [
            FaultRule(
                point,
                FaultKind.SLOW,
                at=rng.randint(0, 1),
                delay=rng.uniform(0.001, 0.01),
            )
        ]
    if point == FaultPoint.DAEMON_SESSION_DECODE:
        return [FaultRule(point, FaultKind.CRASH, at=rng.randint(1, 3))]
    if point == FaultPoint.DAEMON_SHED:
        return [FaultRule(point, FaultKind.FAIL, at=rng.randint(0, 2))]
    raise AssertionError(f"no seeded rule for fault point {point!r}")


def plan_from_seed(
    seed: Optional[int], points: Optional[List[str]] = None
) -> Optional[FaultPlan]:
    """Derive a *recoverable-only* chaos plan from a seed.

    This is what ``--chaos-seed`` and ``PMTEST_CHAOS_SEED`` install: one
    early worker crash (recovered by respawn + requeue), a couple of
    slow-worker and queue-stall hiccups, and kernel-FIFO producer
    starvation.  Every fault is in :data:`RECOVERABLE_KINDS`, so a run
    under this plan must produce results bit-identical to a fault-free
    run — which is exactly what the chaos CI job asserts by running the
    ordinary test suite under it.

    ``points`` restricts the plan to an explicit allowlist of fault
    point names drawn from :data:`FaultPoint.ALL` — including the
    daemon points ``daemon.accept`` (slow accept), ``daemon.session_decode``
    (a session killed mid-stream) and ``daemon.shed`` (a forced shed;
    the client's retry machinery recovers).  Point names outside the
    allowlist raise :class:`ValueError` rather than silently never
    firing; rules are generated in :data:`FaultPoint.ALL` order from
    per-point rng streams, so each point's schedule is the same whether
    it is requested alone or with others.  Note that with an explicit
    allowlist, ``backend.spawn`` draws a spawn failure (recovered by
    the fallback chain) and ``wire.encode`` draws an in-transit
    corruption (surfaced as a typed decode error) — faults the default
    plan deliberately omits.
    """
    if points is not None:
        points = list(points)
        unknown = sorted(set(points) - set(FaultPoint.ALL))
        if unknown:
            raise ValueError(
                f"unknown fault point name(s): {', '.join(unknown)}; "
                f"valid points: {', '.join(FaultPoint.ALL)}"
            )
    if seed is None:
        return None
    if points is not None:
        wanted = set(points)
        rules: List[FaultRule] = []
        for point in FaultPoint.ALL:
            if point in wanted:
                rules.extend(_seeded_point_rules(point, seed))
        return FaultPlan(rules=rules, seed=seed)
    rng = random.Random(seed)
    rules = [
        FaultRule(
            FaultPoint.WORKER_BATCH,
            FaultKind.CRASH,
            at=rng.randint(0, 2),
            worker=0,
        ),
        FaultRule(
            FaultPoint.WORKER_BATCH,
            FaultKind.SLOW,
            at=rng.randint(0, 4),
            count=2,
            delay=rng.uniform(0.001, 0.01),
            worker=rng.randint(0, 3),
        ),
        FaultRule(
            FaultPoint.QUEUE_PUT,
            FaultKind.STALL,
            at=rng.randint(0, 3),
            delay=rng.uniform(0.001, 0.005),
        ),
        FaultRule(
            FaultPoint.KFIFO_PUT,
            FaultKind.STALL,
            at=rng.randint(0, 3),
            count=2,
            delay=rng.uniform(0.0005, 0.002),
        ),
    ]
    return FaultPlan(rules=rules, seed=seed)


@dataclass(frozen=True)
class Resilience:
    """Recovery policy for the checking pipeline.

    ``check_timeout``
        Per-drain watchdog: if no trace completes for this many seconds,
        the backend first requeues everything outstanding once, and if
        that brings no progress either, declares itself unhealthy
        (``None`` waits forever, the historical behaviour).
    ``max_retries``
        Worker respawns (process) / thread restarts tolerated per
        backend before it is declared unhealthy.
    ``backoff_base``
        Base of the exponential backoff between respawns
        (``backoff_base * 2**retry`` seconds).
    ``fallback``
        Degrade along the backend chain (process -> thread -> inline)
        when spawn fails or the backend is declared unhealthy mid-run,
        instead of surfacing ``CheckingFailed``.
    """

    check_timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.05
    fallback: bool = True

    def __post_init__(self) -> None:
        # A non-positive timeout would arm a watchdog that fires on the
        # first poll of every drain.
        if self.check_timeout is not None and not self.check_timeout > 0:
            raise ValueError(
                "check_timeout must be > 0 seconds, got "
                f"{self.check_timeout!r}"
            )

    @property
    def supervised(self) -> bool:
        """Whether any recovery bookkeeping is needed at all."""
        return (
            self.check_timeout is not None
            or self.max_retries > 0
            or self.fallback
        )


#: The default policy: bounded respawns and degradation on, no watchdog
#: (a watchdog default would put a clock on legitimate long checks).
DEFAULT_RESILIENCE = Resilience()
