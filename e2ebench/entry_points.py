"""The three entry points, each timed from request to verdict.

* :func:`online` — ``PMTestSession`` through the program to ``exit()``;
* :func:`check` — a ``python -m repro check`` process on a PMTB dump,
  forked by the small :class:`Spawner` helper;
* :func:`submit` — one ``CheckingClient`` session against the
  :class:`Daemon` (a ``python -m repro serve --uds`` process).

:func:`online` and :func:`submit` take a span log; the traced run
passes a :class:`spans.SpanLog`, the measured rounds the default
:data:`spans.NO_SPANS`, so both run the same request code.

A request that errors, times out or exits abnormally raises
:class:`RequestFailed`; the caller counts it as a failed request.
"""

from __future__ import annotations

import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional, Tuple

from repro.core.events import Trace
from repro.core.workers import WorkerPool
from repro.daemon.client import CheckingClient, DaemonError

from spans import NO_SPANS
from workload_gen import ProgramInput, Verdict, run_online

#: ``repro submit``'s default frame size, in traces.
BATCH_SIZE = 16
CHECK_TIMEOUT_S = 120.0
SUBMIT_DEADLINE_S = 120.0
DAEMON_START_S = 30.0
DAEMON_STOP_S = 15.0
#: Enough for every report of any input to be printed, so the verdict's
#: report codes can be compared across entry points.
MAX_REPORTS = 1_000_000

_SUMMARY = re.compile(
    r"^\S+: (\d+) trace\(s\), (\d+) event\(s\), (\d+) checker\(s\): "
    r"(\d+) FAIL, (\d+) WARN$"
)
_REPORT = re.compile(r"^  \[(FAIL|WARN)\] ([a-z-]+): ")


class RequestFailed(Exception):
    """A verdict request did not produce a verdict."""


def online(inp: ProgramInput, log=NO_SPANS) -> Tuple[float, Verdict]:
    """Run ``inp`` under ``PMTestSession(workers=0)`` to ``exit()``.

    With a span log, the session's pool is built here, as the session
    itself would build it (``WorkerPool(num_workers=0)``), so that its
    ``submit`` (``send_trace``) and ``close`` (``exit``) can be spanned.
    """
    request = f"online:{inp.name}"
    start = time.perf_counter()
    with log.span("core.api.session", request):
        pool = None
        if log is not NO_SPANS:
            with log.span("core.api.init", request):
                pool = WorkerPool(num_workers=0)
            log.wrap(pool, "submit", "core.api.send_trace", request)
            log.wrap(pool, "close", "core.api.exit", request)
        result = run_online(inp, sink=pool)
    elapsed = time.perf_counter() - start
    return elapsed, Verdict.of(result)


def parse_check_output(text: str, status: int) -> Verdict:
    """The verdict ``repro check`` printed (exit 0 clean, 1 on FAIL)."""
    lines = text.splitlines()
    match = _SUMMARY.match(lines[0]) if lines else None
    if match is None:
        raise RequestFailed(f"check exited {status}: {text[-400:]!r}")
    traces, events, checkers, fails, warns = map(int, match.groups())
    codes = []
    for line in lines[1:]:
        report = _REPORT.match(line)
        if report is not None:
            codes.append(report.group(2))
    if status != (1 if fails else 0):
        raise RequestFailed(f"check exited {status} with {fails} FAIL")
    if len(codes) != fails + warns:
        raise RequestFailed(
            f"check printed {len(codes)} reports for {fails + warns}"
        )
    return Verdict(traces, events, checkers, fails, warns, tuple(sorted(codes)))


def check(dump: str, spawner: "Spawner") -> Tuple[float, float, Verdict]:
    """Run ``repro check`` on ``dump``; return (seconds, peak RSS MB,
    verdict).  The peak RSS comes from the process's own rusage."""
    reply = spawner.run(
        [sys.executable, "-m", "repro", "check", dump,
         "--max-reports", str(MAX_REPORTS)],
        CHECK_TIMEOUT_S,
    )
    if reply["status"] < 0:
        raise RequestFailed(f"check killed by signal {-reply['status']}")
    verdict = parse_check_output(reply["output"], reply["status"])
    return reply["seconds"], reply["maxrss_kb"] / 1024.0, verdict


class Spawner:
    """The ``spawner.py`` helper that forks the check processes."""

    def __init__(self, env: dict) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__),
                                          "spawner.py")],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: List[str], timeout: float) -> dict:
        try:
            self._proc.stdin.write(
                json.dumps({"argv": argv, "timeout": timeout}) + "\n"
            )
            self._proc.stdin.flush()
        except OSError as exc:
            raise RequestFailed(f"spawner: {exc}") from exc
        line = self._proc.stdout.readline()
        if not line:
            raise RequestFailed("spawner exited")
        return json.loads(line)

    def stop(self) -> None:
        """End the helper's input and wait for it to exit."""
        proc = self._proc
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=CHECK_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def submit(
    address: str, traces: List[Trace], log=NO_SPANS, request: str = ""
) -> Tuple[float, Verdict, int]:
    """One closed-loop daemon session: each frame is sent only after the
    previous one was acknowledged.  Returns (seconds, verdict, sheds)."""
    start = time.perf_counter()
    with log.span("daemon.session", request):
        try:
            with log.span("daemon.connect", request):
                client = CheckingClient(
                    address, batch_size=BATCH_SIZE, deadline=SUBMIT_DEADLINE_S
                )
        except DaemonError as exc:
            raise RequestFailed(f"connect: {exc}") from exc
        try:
            for i, trace in enumerate(traces, 1):
                if i % BATCH_SIZE:
                    client.submit(trace)  # buffered, no I/O
                    continue
                with log.span("daemon.frame", request):
                    client.submit(trace)  # sends the frame, waits for its ack
            if len(traces) % BATCH_SIZE:
                with log.span("daemon.frame", request):
                    client.flush()
            with log.span("daemon.verdict_wait", request):
                result = client.close()
        except DaemonError as exc:
            client.abort()
            raise RequestFailed(f"submit: {exc}") from exc
    elapsed = time.perf_counter() - start
    return elapsed, Verdict.of(result), client.sheds_seen


class Daemon:
    """A ``repro serve --uds`` child with a private socket directory.

    :meth:`start` waits for the ``listening on`` line with a deadline;
    :meth:`stop` sends SIGTERM and waits, killing the child only if it
    does not drain in time.  ``stop`` is safe to call on every path.
    """

    def __init__(self, socket_dir: str, env: dict, log_path: str) -> None:
        # Relative to the working directory: AF_UNIX paths are limited
        # to ~100 bytes and the checkout may live deep in the tree.
        self.address = os.path.relpath(
            os.path.join(socket_dir, "pmtestd.sock")
        )
        self._env = env
        self._log_path = log_path
        self._proc: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def start(self) -> None:
        with open(self._log_path, "ab") as log:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--uds", self.address],
                env=self._env,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + DAEMON_START_S
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RequestFailed("daemon did not start listening")
                try:
                    line = self._lines.get(timeout=remaining)
                except queue.Empty:
                    continue
                if line is None:
                    raise RequestFailed("daemon exited before listening")
                if line.startswith("listening on"):
                    return
        except BaseException:
            self.stop()
            raise

    def _read(self) -> None:
        for line in self._proc.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def stop(self) -> bool:
        """Stop the daemon; ``True`` when it drained and exited 0 on
        SIGTERM, ``False`` when it failed or had to be killed."""
        proc = self._proc
        if proc is None:
            return True
        self._proc = None
        clean = True
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=DAEMON_STOP_S)
        except subprocess.TimeoutExpired:
            clean = False
            proc.kill()
            proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=DAEMON_STOP_S)
        proc.stdout.close()
        return clean and proc.returncode == 0
