"""Shared configuration for the benchmark harness.

Every benchmark regenerates the data behind one of the paper's tables or
figures and prints the corresponding rows/series.  Because pytest
captures per-test stdout for passing tests, the tables are additionally
collected and re-emitted in the terminal summary, so a plain
``pytest benchmarks/ --benchmark-only`` run shows every figure's data.

Monte-Carlo budgets default to values that keep the whole harness
runnable on a laptop; scale them up towards paper-quality statistics
with the environment variables below:

* ``REPRO_BENCH_SHOTS``  — shots per logical-error-rate point (default 150)
* ``REPRO_BENCH_ROUNDS`` — syndrome-extraction rounds per shot (default 3)

docs/performance.md ("Paper-quality shot budgets") records the budgets
for a paper-quality run.
"""

from __future__ import annotations

import os

import pytest

_COLLECTED_TABLES: list[str] = []


def _int_env(name: str, default: int) -> int:
    try:
        return max(int(os.environ.get(name, default)), 1)
    except ValueError:
        return default


@pytest.fixture(scope="session")
def bench_shots() -> int:
    """Shots per LER data point."""
    return _int_env("REPRO_BENCH_SHOTS", 150)


@pytest.fixture(scope="session")
def bench_rounds() -> int:
    """Syndrome extraction rounds per shot."""
    return _int_env("REPRO_BENCH_ROUNDS", 3)


@pytest.fixture(scope="session")
def report():
    """Record a result table for the end-of-run summary (and print it)."""

    def _record(table) -> None:
        rendered = table.to_text()
        _COLLECTED_TABLES.append(rendered)
        print()
        print("=" * 72)
        print(rendered)
        print("=" * 72)

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Re-emit every recorded table so it appears in the run's output."""
    del exitstatus, config
    if not _COLLECTED_TABLES:
        return
    terminalreporter.write_sep("=", "reproduced paper tables and figures")
    for rendered in _COLLECTED_TABLES:
        terminalreporter.write_line("")
        terminalreporter.write_line(rendered)
    terminalreporter.write_line("")
