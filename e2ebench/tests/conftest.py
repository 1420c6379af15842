"""Make the program sources and the benchmark modules importable, and
run every test with the program's default flags."""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)


@pytest.fixture(autouse=True)
def default_flags(monkeypatch):
    for key in list(os.environ):
        if key.startswith("PMTEST_"):
            monkeypatch.delenv(key)
