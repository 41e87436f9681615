"""Design-space sweep utilities.

Thin, reusable wrappers for the sensitivity studies of Section VI-B and
the extra ablations: vary one configuration knob, re-simulate, collect a
metric.  Used by ``benchmarks/test_ablations.py`` and the examples.

Sweeps are expressed as :class:`SimulationJob` batches with explicit
``SystemConfig`` overrides and evaluated through a shared
:class:`Runner`, so they ride the same executor (``--jobs``) and
persistent cache as the figure experiments instead of owning a private
simulation path.  Passing ``batch_dir`` journals the sweep through the
sharded batch scheduler (see ``harness/batch.py``): a killed sweep
resumes from its last completed shard instead of restarting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from repro.config import MemoryMode, SystemConfig, default_config
from repro.gpu.gpu import RunResult
from repro.harness.executor import RunConfig, SimulationJob
from repro.harness.runner import Runner


@dataclass(frozen=True)
class SweepPoint:
    """One (knob value, result) pair of a sweep."""

    value: float
    result: RunResult


def sweep_jobs(
    platform: str,
    workload: str,
    mode: MemoryMode,
    values: Sequence[float],
    mutate: Callable[[SystemConfig, float], SystemConfig],
    sizing: RunConfig,
) -> List[SimulationJob]:
    """The job batch a sweep needs: one config override per knob value."""
    return [
        SimulationJob(
            platform, workload, mode, sizing, cfg=mutate(default_config(mode), v)
        )
        for v in values
    ]


def sweep_config(
    platform: str,
    workload: str,
    mode: MemoryMode,
    values: Sequence[float],
    mutate: Callable[[SystemConfig, float], SystemConfig],
    sizing: Optional[RunConfig] = None,
    runner: Optional[Runner] = None,
    batch_dir: Optional[Union[str, Path]] = None,
) -> List[SweepPoint]:
    """Run ``platform`` on ``workload`` once per knob value.

    ``mutate(cfg, value)`` returns the modified configuration; traces
    are regenerated per point because page size or footprint may change.
    Pass a ``runner`` to share its executor, memo and persistent cache
    with the rest of the harness, or ``batch_dir`` to journal the sweep
    through the sharded batch scheduler (resumable after a kill).
    """
    if runner is not None and batch_dir is not None:
        raise ValueError("pass either runner or batch_dir, not both")
    sizing = sizing or RunConfig(num_warps=48, accesses_per_warp=48)
    runner = runner or Runner(sizing, batch_dir=batch_dir)
    jobs = sweep_jobs(platform, workload, mode, values, mutate, sizing)
    results = runner.run_jobs(jobs)
    return [SweepPoint(v, results[job]) for v, job in zip(values, jobs)]


def sweep_hot_threshold(
    platform: str = "Ohm-base",
    workload: str = "backp",
    thresholds: Sequence[int] = (6, 14, 28, 56),
    sizing: Optional[RunConfig] = None,
    runner: Optional[Runner] = None,
    batch_dir: Optional[Union[str, Path]] = None,
) -> List[SweepPoint]:
    """Planar migration aggressiveness sweep."""
    return sweep_config(
        platform,
        workload,
        MemoryMode.PLANAR,
        thresholds,
        lambda cfg, v: replace(cfg, hetero=replace(cfg.hetero, hot_threshold=int(v))),
        sizing,
        runner,
        batch_dir,
    )


def sweep_xpoint_read_latency(
    platform: str = "Ohm-BW",
    workload: str = "pagerank",
    latencies_ns: Sequence[float] = (95.0, 190.0, 380.0, 760.0),
    sizing: Optional[RunConfig] = None,
    runner: Optional[Runner] = None,
    batch_dir: Optional[Union[str, Path]] = None,
) -> List[SweepPoint]:
    """How sensitive is Ohm-GPU to the NVM technology's read latency?

    (A next-generation XPoint would halve it; a pessimistic one doubles
    it — the kind of what-if the paper's conclusions should survive.)
    """
    return sweep_config(
        platform,
        workload,
        MemoryMode.PLANAR,
        latencies_ns,
        lambda cfg, v: replace(cfg, xpoint=replace(cfg.xpoint, read_ns=float(v))),
        sizing,
        runner,
        batch_dir,
    )
