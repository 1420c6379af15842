"""C-style spelling of the PMTest interface (paper Table 2, verbatim).

These module-level functions operate on a process-global default session,
mirroring how the C library is used.  They exist so the examples and the
synthetic-bug corpus can read like the paper's listings::

    PMTest_INIT()
    PMTest_START()
    ...
    isOrderedBefore(addrA, sizeA, addrB, sizeB)
    isPersist(addrB, sizeB)
    PMTest_SEND_TRACE()
    result = PMTest_GET_RESULT()
    PMTest_EXIT()

New code should prefer :class:`repro.core.api.PMTestSession` directly —
a global singleton is faithful to the C API but is not the Pythonic seam
for composing with the rest of this library.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.api import PMTestSession
from repro.core.reports import TestResult
from repro.core.rules import PersistencyRules

_session: Optional[PMTestSession] = None


def PMTest_INIT(
    rules: Optional[PersistencyRules] = None,
    workers: int = 1,
    capture_sites: bool = False,
    backend: Optional[str] = None,
    batch_size: Optional[int] = None,
    check_timeout: Optional[float] = None,
    max_retries: int = 2,
    fallback: bool = True,
    faults=None,
) -> PMTestSession:
    """Create (and install) the global session.

    ``backend`` selects the checking backend (``inline``/``thread``/
    ``process``; ``None`` derives it from ``workers``),
    ``batch_size`` pins traces-per-IPC-message for the process backend
    (``None``: adaptive).  ``check_timeout``/``max_retries``/
    ``fallback`` configure the checking pipeline's watchdog,
    worker-respawn budget, and backend degradation ladder; ``faults``
    installs a deterministic chaos plan (:mod:`repro.core.faults`).
    """
    global _session
    if _session is not None:
        raise RuntimeError("PMTest already initialized; call PMTest_EXIT first")
    _session = PMTestSession(
        rules,
        workers=workers,
        capture_sites=capture_sites,
        backend=backend,
        batch_size=batch_size,
        check_timeout=check_timeout,
        max_retries=max_retries,
        fallback=fallback,
        faults=faults,
    )
    _session.thread_init()
    return _session


def current_session() -> PMTestSession:
    """The installed global session (raises if PMTest_INIT was not called)."""
    if _session is None:
        raise RuntimeError("PMTest_INIT has not been called")
    return _session


def PMTest_EXIT() -> TestResult:
    global _session
    result = current_session().exit()
    _session = None
    return result


def PMTest_THREAD_INIT(name: Optional[str] = None) -> None:
    current_session().thread_init(name)


def PMTest_START() -> None:
    current_session().start()


def PMTest_END() -> None:
    current_session().end()


def PMTest_EXCLUDE(addr: int, size: int) -> None:
    current_session().exclude(addr, size)


def PMTest_INCLUDE(addr: int, size: int) -> None:
    current_session().include(addr, size)


def PMTest_REG_VAR(name: str, addr: int, size: int) -> None:
    current_session().reg_var(name, addr, size)


def PMTest_UNREG_VAR(name: str) -> None:
    current_session().unreg_var(name)


def PMTest_GET_VAR(name: str) -> Tuple[int, int]:
    return current_session().get_var(name)


def PMTest_SEND_TRACE() -> None:
    current_session().send_trace()


def PMTest_GET_RESULT() -> TestResult:
    return current_session().get_result()


def isPersist(addr: int, size: int) -> None:
    current_session().is_persist(addr, size)


def isOrderedBefore(addr_a: int, size_a: int, addr_b: int, size_b: int) -> None:
    current_session().is_ordered_before(addr_a, size_a, addr_b, size_b)


def TX_CHECKER_START() -> None:
    current_session().tx_check_start()


def TX_CHECKER_END() -> None:
    current_session().tx_check_end()
