"""Shared fixtures for the figure/table benchmarks.

A single memoized Runner (the experiment service) backs all figure
benches so the expensive platform x workload x mode matrix is simulated
once per session — the specs submit whole job batches, and the
ablations/sweeps ride the same warm matrix instead of private runners.
Environment knobs map straight onto the service:

* ``REPRO_BENCH_JOBS=N``  — evaluate the matrix over N worker processes;
* ``REPRO_BENCH_CACHE=d`` — persist results in ``d`` across sessions.

Benchmarks run one round each: the measured quantity is the time to
regenerate the figure, and the printed tables are the reproduction.
"""

import os
import sys

import pytest

from repro import ResultCache, Runner
from repro.harness.executor import SIZING_PRESETS, make_executor

# Bench sizing (the ``bench`` preset): large enough for stable shapes (in
# particular, enough footprint coverage that Origin's working set
# exceeds its DRAM), small enough that the whole suite finishes in a few
# minutes.
BENCH_RUN_CONFIG = SIZING_PRESETS["bench"]

# The figure/table text IS the benchmark output.  pytest captures test
# stdout, and this conftest is imported both as a plugin and as a plain
# module (tests do ``from conftest import report``), so the buffer lives
# on the shared ``sys`` module and is flushed in pytest_terminal_summary,
# where output is never captured.
if not hasattr(sys, "_repro_bench_reports"):
    sys._repro_bench_reports = []


def report(*parts) -> None:
    """Queue text for the end-of-run report (and echo it for -s runs)."""
    text = " ".join(str(p) for p in parts)
    sys._repro_bench_reports.append(text)
    print(text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    reports = getattr(sys, "_repro_bench_reports", None)
    if reports:
        terminalreporter.section("figure/table reproductions")
        for text in reports:
            for line in text.split("\n"):
                terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def runner():
    cache_dir = os.environ.get("REPRO_BENCH_CACHE")
    return Runner(
        BENCH_RUN_CONFIG,
        executor=make_executor(int(os.environ.get("REPRO_BENCH_JOBS", "1"))),
        cache=ResultCache(cache_dir) if cache_dir else None,
    )


def bench_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
