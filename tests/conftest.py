"""Shared pytest plumbing: replay acceptance verdict lines after capture, and
measure the peak memory of a call."""

import tracemalloc

import pytest


@pytest.fixture
def peak_traced_bytes():
    """A function run(fn, *args, **kwargs) -> (fn's result, the peak of memory
    traced by tracemalloc during the call, in bytes)."""

    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import VERDICT_LINES
    except ImportError:
        return
    if VERDICT_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)
