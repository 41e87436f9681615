"""Mode-blind twins: Origin's two-level jobs are relabeled planar runs.

``Platform.mode_blind`` claims the planar/two-level mode cannot change
a run on that platform, and ``Runner.run_jobs`` relies on it to
simulate each distinct system once.  These tests pin the claim on the
whole workload registry, check that it holds for no other platform,
and count what the runner actually executes.
"""

from dataclasses import replace

import pytest

from repro import MemoryMode, Runner, SimulationJob
from repro.core.platforms import PLATFORMS
from repro.config import GB
from repro.harness.cache import ResultCache
from repro.harness.executor import SIZING_PRESETS, SerialExecutor, execute_job
from repro.harness.experiments import make_headline_spec
from repro.workloads.registry import REGISTRY, register_workload
from repro.workloads.spec import WorkloadSpec, make_def

QUICK = SIZING_PRESETS["quick"]


def _relabel(result, mode: MemoryMode):
    return replace(result, mode=mode.value, counters=dict(result.counters))


class _CountingExecutor(SerialExecutor):
    """Serial executor that records every job it simulates."""

    def __init__(self):
        self.executed = []

    def run_jobs(self, jobs):
        self.executed.extend(jobs)
        return super().run_jobs(jobs)


def test_only_origin_is_mode_blind():
    assert [n for n, p in PLATFORMS.items() if p.mode_blind] == ["Origin"]


@pytest.mark.parametrize("platform", list(PLATFORMS))
def test_simulated_as(platform):
    two_level = SimulationJob(platform, "backp", MemoryMode.TWO_LEVEL, QUICK)
    planar = replace(two_level, mode=MemoryMode.PLANAR)
    assert planar.simulated_as() is planar
    expected = planar if PLATFORMS[platform].mode_blind else two_level
    assert two_level.simulated_as() == expected
    # A config override may set any knob, so it always simulates as itself.
    override = replace(two_level, cfg=two_level.resolved_config())
    assert override.simulated_as() is override


@pytest.mark.parametrize("workload", list(REGISTRY))
def test_origin_twin_is_exact(workload):
    run_cfg = replace(QUICK, validate=True) if workload == "backp" else QUICK
    job = SimulationJob("Origin", workload, MemoryMode.TWO_LEVEL, run_cfg)
    twin = job.simulated_as()
    assert twin.mode is MemoryMode.PLANAR
    direct = execute_job(job)
    relabeled = _relabel(execute_job(twin), MemoryMode.TWO_LEVEL)
    assert relabeled.to_dict() == direct.to_dict()
    assert relabeled.fingerprint() == direct.fingerprint()


@pytest.fixture(scope="module")
def oversized():
    """A footprint beyond Oracle's planar DRAM (9x Origin's), where its
    mode-sized DRAM shows.  Every registered footprint fits that DRAM,
    and the hetero platforms' planar capacity is the same 9x, so they
    cannot run this one."""
    name = "mode_probe_64g"
    spec = WorkloadSpec(name, 160, 0.7, "probe", footprint_bytes=64 * GB)
    register_workload(make_def(name, "synthetic", spec), replace=True)
    yield name
    REGISTRY.pop(name)


@pytest.mark.parametrize("platform", list(PLATFORMS))
def test_modes_differ_exactly_when_not_blind(platform, oversized):
    workload = "pagerank" if PLATFORMS[platform].uses_xpoint else oversized
    planar, two_level = (
        execute_job(SimulationJob(platform, workload, mode, QUICK))
        for mode in (MemoryMode.PLANAR, MemoryMode.TWO_LEVEL)
    )
    same = _relabel(planar, MemoryMode.TWO_LEVEL).to_dict() == two_level.to_dict()
    assert same == PLATFORMS[platform].mode_blind


def test_runner_simulates_each_distinct_system_once(tmp_path):
    jobs = list(make_headline_spec().jobs(QUICK))
    assert len(set(jobs)) == 60
    counting = _CountingExecutor()
    runner = Runner(QUICK, executor=counting, cache=ResultCache(tmp_path))
    results = runner.run_jobs(jobs)
    assert len(results) == 60
    assert len(counting.executed) == len(set(counting.executed)) == 50
    assert all(j.simulated_as() is j for j in counting.executed)
    relabeled = [j for j in results if j.simulated_as() != j]
    assert len(relabeled) == 10
    for job in relabeled:
        result, twin_result = results[job], results[job.simulated_as()]
        assert result.mode == job.mode.value
        assert result == _relabel(twin_result, job.mode)
        assert result.counters is not twin_result.counters

    warm = _CountingExecutor()
    again = Runner(QUICK, executor=warm, cache=ResultCache(tmp_path)).run_jobs(jobs)
    assert warm.executed == []
    assert again == results


def test_twin_memoized_by_an_earlier_batch_is_not_rerun():
    planar = SimulationJob("Origin", "backp", MemoryMode.PLANAR, QUICK)
    two_level = replace(planar, mode=MemoryMode.TWO_LEVEL)
    counting = _CountingExecutor()
    runner = Runner(QUICK, executor=counting)
    runner.run_job(planar)
    result = runner.run_job(two_level)
    assert counting.executed == [planar]
    assert result.mode == "two_level"
