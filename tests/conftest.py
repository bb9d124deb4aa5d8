"""Shared pytest plumbing: replay acceptance verdict lines after capture,
measure the peak memory of a call, and count the steps each march advances."""

import tracemalloc

import pytest

from logns import experiments, integrator


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


@pytest.fixture
def marched_steps(monkeypatch):
    """The list of (B, steps) of every `march` call made during the test, in
    call order: its batch size and the steps it has advanced so far.

    Counts the calls `experiments` makes directly and those through
    `integrator` entry points such as `final_state` and `samples`.
    """
    calls = []
    march = integrator.march

    def counting_march(data, config, steps, eps=None):
        steps = list(steps)
        calls.append((len(data), 0))
        k = len(calls) - 1
        for i, sample in zip(steps, march(data, config, steps, eps)):
            calls[k] = (len(data), i)
            yield sample

    monkeypatch.setattr(integrator, "march", counting_march)
    monkeypatch.setattr(experiments, "march", counting_march)
    return calls


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import VERDICT_LINES
    except ImportError:
        return
    if VERDICT_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)
