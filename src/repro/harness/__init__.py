"""Experiment harness: a five-layer service (executors -> persistent
cache -> declarative registry -> sharded batch scheduler -> simulation
service daemon) that runs platform x workload x mode matrices,
regenerates every table and figure of the paper's evaluation, survives
being killed mid-batch, and serves live job traffic over a socket with
leased multi-process workers.  See DESIGN.md."""

from repro.harness.batch import (
    BatchError,
    BatchRun,
    BatchStatus,
    batch_id,
    plan_shards,
)
from repro.harness.cache import ResultCache, job_fingerprint
from repro.harness.executor import (
    ParallelExecutor,
    RunConfig,
    SerialExecutor,
    SimulationJob,
    execute_job,
    make_executor,
)
from repro.harness.registry import (
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
    run_spec,
)
from repro.harness.report import emit_csv, emit_json, format_table
from repro.harness.runner import Runner
from repro.harness.store import ResultStore, StoreEntry

__all__ = [
    "Runner",
    "BatchRun",
    "BatchError",
    "BatchStatus",
    "batch_id",
    "plan_shards",
    "ResultStore",
    "StoreEntry",
    "RunConfig",
    "SimulationJob",
    "SerialExecutor",
    "ParallelExecutor",
    "execute_job",
    "make_executor",
    "ResultCache",
    "job_fingerprint",
    "ExperimentSpec",
    "ExperimentResult",
    "run_experiment",
    "run_spec",
    "format_table",
    "emit_json",
    "emit_csv",
]
