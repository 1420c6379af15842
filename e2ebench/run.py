"""End-to-end time-to-verdict benchmark for the PMTest reproduction.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload btree-tx --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the traced
per-layer split; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``e2ebench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import platform
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("btree-tx", "redis-lru", "bug-corpus")
#: where run directories (removed on exit) and span files go
OUT_DIR = ".e2ebench_runs"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment() -> list:
    """Drop every ``PMTEST_*`` knob so "default flags" means the
    program's defaults, and point children at this checkout's sources.
    Both apply to this process and to every child it starts; returns
    the names removed."""
    removed = sorted(k for k in os.environ if k.startswith("PMTEST_"))
    for key in removed:
        del os.environ[key]
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    return removed


def describe_environment(removed) -> str:
    numpy = importlib.util.find_spec("numpy") is not None
    nproc = len(os.sched_getaffinity(0))
    return (
        f"python={platform.python_version()} numpy={'yes' if numpy else 'no'} "
        f"nproc={nproc} removed={','.join(removed) or '-'}"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    removed = pin_environment()
    # Turn SIGTERM into an exit, so the cleanup that stops the daemon
    # and removes the run directory still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    import orchestrate

    return orchestrate.run(
        args, dict(os.environ), describe_environment(removed), OUT_DIR
    )


if __name__ == "__main__":
    sys.exit(main())
