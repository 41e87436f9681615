"""Frozen result-cache keys: ``job_fingerprint`` never drifts.

Every persisted artifact — cache entries, batch manifests, store
indexes, service journals — is addressed by
:func:`repro.harness.cache.job_fingerprint`.  This module pins the key
of every registry job at ``--quick`` and at default sizing, plus one
explicit ``cfg=`` override and one ``validate=True`` job, against
checked-in values, so any change to how the key is *derived* (memos,
payload assembly) is proven to leave existing caches valid.

If you change the fingerprint payload *on purpose* (and bump
``SCHEMA_VERSION``), regenerate with::

    PYTHONPATH=src python tests/test_cache_keys.py --regen
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import replace

from repro.config import MemoryMode, default_config
from repro.harness.cache import job_fingerprint
from repro.harness.executor import RunConfig, SimulationJob
from repro.harness.experiments import batch_jobs_for
from repro.harness.registry import experiment_names
from repro.workloads.registry import register_workload
from repro.workloads.spec import WorkloadSpec, make_def

DATA = pathlib.Path(__file__).parent / "data" / "cache_key_fingerprints.json"

#: The CLI's ``--quick`` and default sizings.
QUICK = RunConfig(num_warps=48, accesses_per_warp=32)
DEFAULT = RunConfig(num_warps=96, accesses_per_warp=64)


def _override_job() -> SimulationJob:
    cfg = default_config(MemoryMode.PLANAR)
    hot = replace(cfg, hetero=replace(cfg.hetero, hot_threshold=99))
    return SimulationJob("Ohm-BW", "pagerank", MemoryMode.PLANAR, QUICK, hot)


def _label(job: SimulationJob) -> str:
    rc = job.run_cfg
    label = (
        f"{job.platform}/{job.workload}/{job.mode.value}/"
        f"{rc.num_warps}x{rc.accesses_per_warp}/s{rc.seed}/wg{rc.waveguides}"
    )
    if rc.validate:
        label += "/validate"
    if job.cfg is not None:
        label += "/cfg-override"
    return label


def pinned_jobs() -> dict:
    """Label -> job for every pinned key (labels are unique)."""
    names = tuple(experiment_names())
    jobs = list(batch_jobs_for(names, QUICK)) + list(batch_jobs_for(names, DEFAULT))
    jobs.append(_override_job())
    jobs.append(
        SimulationJob(
            "Ohm-base", "backp", MemoryMode.TWO_LEVEL, replace(QUICK, validate=True)
        )
    )
    out = {_label(job): job for job in jobs}
    assert len(out) == len(jobs), "pinned job labels must be unique"
    return out


def test_every_pinned_key_is_unchanged():
    golden = json.loads(DATA.read_text())
    got = {label: job_fingerprint(job) for label, job in pinned_jobs().items()}
    assert set(got) == set(golden), "pinned job set changed; see module docstring"
    changed = sorted(label for label in got if got[label] != golden[label])
    assert not changed, f"{len(changed)} cache keys changed, e.g. {changed[:3]}"


def test_reregistered_workload_gets_a_new_key():
    job = SimulationJob("Ohm-base", "key_probe", MemoryMode.PLANAR, QUICK)
    spec = WorkloadSpec("key_probe", 160, 0.5, "stream")
    register_workload(
        make_def("key_probe", "stream", spec, params={"read_fraction": 1.0}),
        replace=True,
    )
    reads = job_fingerprint(job)
    register_workload(
        make_def("key_probe", "stream", spec, params={"read_fraction": 0.0}),
        replace=True,
    )
    # Same name, different resolved def: a name-keyed memo would alias.
    assert job_fingerprint(job) != reads


def test_equal_config_values_share_a_key():
    # A freshly built config equal to the mode default is the same job.
    job = SimulationJob("Ohm-BW", "backp", MemoryMode.TWO_LEVEL, QUICK)
    explicit = replace(job, cfg=default_config(MemoryMode.TWO_LEVEL).with_waveguides(1))
    assert job_fingerprint(explicit) == job_fingerprint(job)


def _regen() -> None:
    out = {label: job_fingerprint(job) for label, job in pinned_jobs().items()}
    DATA.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(out)} keys to {DATA}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
