"""Seeded inputs, program runs and ground truth for the workloads.

Each workload is a list of :class:`ProgramInput` — one per verdict
request.  ``btree-tx`` and ``redis-lru`` have a single input each;
``bug-corpus`` has one per registry case.  The seed only shapes the
program's input (the key shuffle, the LRU op stream, the case order);
the program itself receives nothing but those generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.bugs import injector
from repro.bugs.injector import run_bug_case
from repro.bugs.registry import HISTORICAL_BUGS, SYNTHETIC_BUGS, BugCase
from repro.core.api import PMTestSession
from repro.core.events import Op, Trace
from repro.core.reports import Level, TestResult
from repro.core.traceio import TraceRecorder
from repro.instr.runtime import PMRuntime
from repro.pmdk.pool import PMPool
from repro.pmem.machine import PMMachine
from repro.structures import ALL_STRUCTURES
from repro.workloads import RedisServer, redis_lru_ops

#: Fig. 10a shape: one B-tree insert per TX_CHECKER scope and trace.
BTREE_KEYS = 1500
BTREE_VALUE_SIZE = 64
#: Fig. 11 shape: ``prepare_real``'s redis+lru sizing at this scale
#: (scale // 2 keys written, LRU cap scale // 3), a trace every 10 ops.
REDIS_SCALE = 4000
REDIS_TRACE_EVERY = 10
#: Injector workload scale for every registry case.
BUG_SCALE = 40

MACHINE_BYTES = 32 << 20
LOG_CAPACITY = 256 * 1024

#: Trace ops that the engine counts as one evaluated checker each.
CHECKER_OPS = frozenset({Op.CHECK_PERSIST, Op.CHECK_ORDER, Op.TX_CHECK_END})


@dataclass(frozen=True)
class ProgramInput:
    """One verdict request's program input and its known answer."""

    name: str
    workload: str
    #: shuffled keys (btree-tx), an op list (redis-lru) or a BugCase
    payload: object
    #: report codes of which at least one must fire; empty means the
    #: verdict must be clean (0 FAIL, 0 WARN)
    expected: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class Verdict:
    """The comparable part of a checking result."""

    traces: int
    events: int
    checkers: int
    fails: int
    warns: int
    codes: Tuple[str, ...]

    @classmethod
    def of(cls, result: TestResult) -> "Verdict":
        return cls(
            traces=result.traces_checked,
            events=result.events_checked,
            checkers=result.checkers_evaluated,
            fails=sum(1 for r in result.reports if r.level is Level.FAIL),
            warns=sum(1 for r in result.reports if r.level is Level.WARN),
            codes=tuple(sorted(r.code.value for r in result.reports)),
        )


@dataclass(frozen=True)
class DumpCounts:
    """Trace, event and checker counts taken from recorded traces."""

    traces: int
    events: int
    checkers: int

    @classmethod
    def of(cls, traces: Sequence[Trace]) -> "DumpCounts":
        events = checkers = 0
        for trace in traces:
            events += len(trace.events)
            checkers += sum(1 for e in trace.events if e.op in CHECKER_OPS)
        return cls(len(traces), events, checkers)


def make_inputs(workload: str, seed: int) -> List[ProgramInput]:
    """Generate the seeded op streams of ``workload``."""
    rng = random.Random(seed)
    if workload == "btree-tx":
        keys = list(range(BTREE_KEYS))
        rng.shuffle(keys)
        return [ProgramInput("btree-tx", workload, keys)]
    if workload == "redis-lru":
        ops = list(redis_lru_ops(REDIS_SCALE // 2, seed=seed))
        return [ProgramInput("redis-lru", workload, ops)]
    if workload == "bug-corpus":
        cases = list(SYNTHETIC_BUGS + HISTORICAL_BUGS)
        rng.shuffle(cases)
        return [
            ProgramInput(
                case.bug_id,
                workload,
                case,
                frozenset(code.value for code in case.expected),
            )
            for case in cases
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Running the program
# ----------------------------------------------------------------------
def _drive_btree(keys: List[int], session: Optional[PMTestSession]) -> None:
    runtime = PMRuntime(machine=PMMachine(MACHINE_BYTES), session=session)
    pool = PMPool(runtime, log_capacity=LOG_CAPACITY)
    tree = ALL_STRUCTURES["btree"](pool, value_size=BTREE_VALUE_SIZE)
    if session is None:
        for key in keys:
            tree.insert(key)
        return
    session.send_trace()  # pool and tree creation are their own trace
    for key in keys:
        session.tx_check_start()
        tree.insert(key)
        session.tx_check_end()
        session.send_trace()


def _drive_redis(ops: list, session: Optional[PMTestSession]) -> None:
    runtime = PMRuntime(machine=PMMachine(MACHINE_BYTES), session=session)
    pool = PMPool(runtime, log_capacity=LOG_CAPACITY)
    server = RedisServer(pool, maxkeys=REDIS_SCALE // 3)
    if session is not None:
        session.send_trace()
    server.serve(
        ops, session=session, tx_check=True, trace_every=REDIS_TRACE_EVERY
    )


def run_online(inp: ProgramInput, sink=None) -> TestResult:
    """Run the program under ``PMTestSession(workers=0)`` to ``exit()``.

    ``sink`` replaces the session's own worker pool (a recorder, or an
    instrumented pool in the traced run); ``None`` is the default path.
    """
    if inp.workload == "bug-corpus":
        return run_bug_case(inp.payload, scale=BUG_SCALE, sink=sink).result
    session = PMTestSession(workers=0, sink=sink)
    session.thread_init()
    session.start()
    if inp.workload == "btree-tx":
        _drive_btree(inp.payload, session)
    else:
        _drive_redis(inp.payload, session)
    return session.exit()


class _NoSession:
    """Stands in where the bug injector calls a session unconditionally.

    Every method is a no-op, and the runtime gets no observer for it, so
    the program runs with no PMTest tracking at all.
    """

    def __getattr__(self, name: str):
        return _ignore


def _ignore(*args, **kwargs) -> None:
    return None


def run_uninstrumented(inp: ProgramInput) -> None:
    """Run the same op stream with no session attached."""
    if inp.workload == "btree-tx":
        _drive_btree(inp.payload, None)
        return
    if inp.workload == "redis-lru":
        _drive_redis(inp.payload, None)
        return
    case: BugCase = inp.payload
    runtime = PMRuntime(machine=PMMachine(MACHINE_BYTES))
    runtime.session = _NoSession()
    if case.target == "pmfs":
        injector._drive_pmfs(runtime, case, BUG_SCALE)
    elif case.target == "mnemosyne":
        injector._drive_mnemosyne(runtime, case, BUG_SCALE)
    else:
        injector._drive_structure(runtime, runtime.session, case, BUG_SCALE)


def record(inp: ProgramInput) -> List[Trace]:
    """Run the program once with a recorder as the sink."""
    recorder = TraceRecorder()
    run_online(inp, sink=recorder)
    return recorder.traces


# ----------------------------------------------------------------------
# Ground truth
# ----------------------------------------------------------------------
def ground_truth_error(
    inp: ProgramInput, counts: DumpCounts, verdict: Verdict
) -> Optional[str]:
    """Why ``verdict`` is wrong for ``inp``, or ``None`` when it is right."""
    got = (verdict.traces, verdict.events, verdict.checkers)
    want = (counts.traces, counts.events, counts.checkers)
    if got != want:
        return f"traces/events/checkers {got} != dump {want}"
    if not inp.expected:
        if verdict.fails or verdict.warns:
            return (
                f"{verdict.fails} FAIL, {verdict.warns} WARN on an input "
                "that must be clean"
            )
        return None
    if not inp.expected.intersection(verdict.codes):
        fired = sorted(set(verdict.codes)) or ["nothing"]
        return (
            f"none of {sorted(inp.expected)} fired (got {', '.join(fired)})"
        )
    return None
