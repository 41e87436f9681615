"""Ohm-GPU reproduction: an optical-network heterogeneous GPU memory
simulator (Zhang & Jung, MICRO 2021).

Quickstart::

    from repro import Runner, RunConfig, MemoryMode

    runner = Runner(RunConfig(num_warps=96, accesses_per_warp=40))
    result = runner.run("Ohm-BW", "pagerank", MemoryMode.PLANAR)
    print(result.ipc, result.mean_mem_latency_ps)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure and table.
"""

from repro.config import (
    GB,
    KB,
    MB,
    MemoryMode,
    SystemConfig,
    default_config,
)
from repro.core.platforms import PLATFORMS, Platform, build_memory_system
from repro.gpu.gpu import GpuModel, RunResult
from repro.harness.batch import BatchRun
from repro.harness.cache import ResultCache
from repro.harness.executor import (
    ParallelExecutor,
    RunConfig,
    SerialExecutor,
    SimulationJob,
    execute_job,
)
from repro.harness.audit import AuditOutcome, audit_jobs, run_audit
from repro.harness.runner import Runner
from repro.harness.store import ResultStore
from repro.sim.audit import Auditor, InvariantError, InvariantViolation
from repro.workloads.registry import (
    REGISTRY,
    WORKLOADS,
    build_traces,
    get_workload_def,
    register_workload,
    workload_names,
)
from repro.workloads.spec import WorkloadDef, WorkloadSpec, make_def

__version__ = "1.4.0"

__all__ = [
    "MemoryMode",
    "SystemConfig",
    "default_config",
    "PLATFORMS",
    "Platform",
    "build_memory_system",
    "GpuModel",
    "RunResult",
    "Runner",
    "RunConfig",
    "SimulationJob",
    "SerialExecutor",
    "ParallelExecutor",
    "execute_job",
    "Auditor",
    "InvariantError",
    "InvariantViolation",
    "AuditOutcome",
    "audit_jobs",
    "run_audit",
    "ResultCache",
    "BatchRun",
    "ResultStore",
    "WORKLOADS",
    "REGISTRY",
    "WorkloadSpec",
    "WorkloadDef",
    "make_def",
    "get_workload_def",
    "register_workload",
    "workload_names",
    "build_traces",
    "KB",
    "MB",
    "GB",
]
