"""Experiment specs + reducers, one per evaluation figure/table (see
DESIGN.md section 5 for the figure -> spec mapping).

Each figure is declared as an :class:`ExperimentSpec`: the job matrix it
needs, a *reducer* that folds the evaluated results into the figure
payload, and a *tabulator* that flattens the payload into schema'd rows
for the json/csv exporters.  Callers evaluate a spec through a
:class:`Runner` (``run_spec(make_fig16_spec(), runner).payload``, or
``run_experiment(name)`` for the registered defaults), so serial,
parallel and cached execution all produce identical data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.config import MemoryMode, default_config
from repro.core.platforms import PLATFORMS
from repro.cost.model import CostModel
from repro.energy.accounting import EnergyBreakdown, EnergyModel
from repro.harness.registry import (
    ExperimentSpec,
    JobResults,
    get_experiment,
    register,
)
from repro.harness.runner import ALL_WORKLOADS, RunConfig, SimulationJob
from repro.hoststorage.gpudirect import GpuSsdSystem
from repro.optical.ber import LinkBudget, figure20b_budgets
from repro.optical.layout import (
    BASELINE_LAYOUT,
    GENERAL_LAYOUT,
    layout_for_mode,
    mode_reduction,
)
from repro.workloads.registry import get_workload_def

FIG16_PLATFORMS = ("Origin", "Hetero", "Ohm-base", "Auto-rw", "Ohm-WOM", "Ohm-BW", "Oracle")
LATENCY_PLATFORMS = ("Ohm-base", "Auto-rw", "Ohm-WOM", "Ohm-BW", "Oracle")
BANDWIDTH_PLATFORMS = ("Ohm-base", "Auto-rw", "Ohm-WOM", "Ohm-BW")
ENERGY_PLATFORMS = ("Hetero", "Ohm-base", "Auto-rw", "Ohm-WOM", "Ohm-BW")
FIG20A_WORKLOADS = ("backp", "GRAMS", "betw", "pagerank")
FIG20A_WAVEGUIDES = (1, 2, 4, 8)

MODES = (MemoryMode.PLANAR, MemoryMode.TWO_LEVEL)



# -- picklable spec plumbing ------------------------------------------------
#
# Spec callables must be named module-level functions, never lambdas or
# closures: registry entries are re-resolved by name inside executor
# worker processes, and reprolint R5 enforces the rule mechanically.

def _no_jobs(run_cfg: RunConfig) -> Tuple[SimulationJob, ...]:
    """Analytic figures (layout, cost, link budget) need no simulations."""
    return ()


def _rows_as_is(rows: List[dict]) -> List[dict]:
    """Identity tabulate: the reducer already emits flat rows."""
    return rows


def _payload_as_row(payload: dict) -> List[dict]:
    """Tabulate a single-dict payload as its one row."""
    return [payload]


def _fig20b_reduce(_results) -> List[LinkBudget]:
    return figure20b_budgets(default_config().optical)


def _fig20b_tabulate(budgets: List[LinkBudget]) -> List[dict]:
    return [
        {
            "label": b.label,
            "ber": b.ber,
            "received_power_mw": b.received_power_mw,
            "laser_scale": b.laser_scale,
            "reliable": b.reliable,
        }
        for b in budgets
    ]


def batch_jobs_for(
    names: Tuple[str, ...], run_cfg: RunConfig
) -> Tuple[SimulationJob, ...]:
    """The deduplicated job union of several registered experiments.

    This is the payload ``repro batch run`` shards and journals: submit
    the whole evaluation's matrix as one resumable batch, then render
    each figure instantly from the warm cache.  Order is deterministic
    (experiment order, then each spec's own job order), so the shard
    plan — and therefore the resume journal — is stable across
    invocations.
    """
    jobs: List[SimulationJob] = []
    for name in names:
        jobs.extend(get_experiment(name).jobs(run_cfg))
    return tuple(dict.fromkeys(jobs))


@dataclass
class FigureData:
    """Generic figure payload: rows keyed by (workload, platform)."""

    name: str
    mode: str
    values: Dict[Tuple[str, str], float]

    def mean_over_workloads(self, platform: str) -> float:
        vals = [v for (w, p), v in self.values.items() if p == platform]
        return sum(vals) / len(vals) if vals else 0.0


def _mode_matrix_jobs(
    platforms: Tuple[str, ...], workloads: Tuple[str, ...]
) -> "callable":
    """Standard job set: every (platform, workload) cell in both modes."""

    def jobs(run_cfg: RunConfig) -> Tuple[SimulationJob, ...]:
        return tuple(
            SimulationJob(p, w, mode, run_cfg)
            for mode in MODES
            for w in workloads
            for p in platforms
        )

    return jobs


def _figure_rows(series: str = "platform"):
    """Tabulator for the two-mode FigureData payloads."""

    def tabulate(payload: Dict[str, FigureData]) -> List[dict]:
        return [
            {"mode": mode, "workload": w, series: s, "value": v}
            for mode, fig in payload.items()
            for (w, s), v in fig.values.items()
        ]

    return tabulate


# --------------------------------------------------------------------
# Fig. 3 — GPU+SSD motivation breakdowns (analytic, no simulations)
# --------------------------------------------------------------------

def _fig3_reduce(workloads: Tuple[str, ...]):
    def reduce(_results: JobResults) -> List[dict]:
        cfg = default_config()
        system = GpuSsdSystem(cfg)
        rows = []
        for name in workloads:
            spec = get_workload_def(name).spec
            phase = system.phase_breakdown(spec)
            mem = system.memory_breakdown(spec)
            rows.append(
                {
                    "workload": name,
                    "data_move_frac": phase.data_move_frac,
                    "storage_frac": phase.storage_frac,
                    "gpu_frac": phase.gpu_frac,
                    "dma_time_frac": mem.dma_time_frac,
                    "dma_energy_frac": mem.dma_energy_frac,
                }
            )
        return rows

    return reduce


def make_fig3_spec(workloads: Tuple[str, ...] = ALL_WORKLOADS) -> ExperimentSpec:
    return ExperimentSpec(
        name="fig3",
        title="Fig. 3 — GPU+SSD execution and memory-subsystem breakdowns",
        columns=(
            "workload", "data_move_frac", "storage_frac", "gpu_frac",
            "dma_time_frac", "dma_energy_frac",
        ),
        jobs=_no_jobs,
        reduce=_fig3_reduce(workloads),
        tabulate=_rows_as_is,
    )


# --------------------------------------------------------------------
# Fig. 8 — baseline migration overhead
# --------------------------------------------------------------------

def _fig8_reduce(workloads: Tuple[str, ...]):
    def reduce(results: JobResults) -> Dict[str, FigureData]:
        out = {}
        for mode in MODES:
            values: Dict[Tuple[str, str], float] = {}
            for w in workloads:
                base = results.get("Ohm-base", w, mode)
                oracle = results.get("Oracle", w, mode)
                values[(w, "migration_bw_frac")] = base.migration_bandwidth_fraction
                values[(w, "latency_vs_oracle")] = (
                    base.mean_mem_latency_ps / oracle.mean_mem_latency_ps
                    if oracle.mean_mem_latency_ps
                    else 0.0
                )
            out[mode.value] = FigureData("fig8", mode.value, values)
        return out

    return reduce


def make_fig8_spec(workloads: Tuple[str, ...] = ALL_WORKLOADS) -> ExperimentSpec:
    return ExperimentSpec(
        name="fig8",
        title="Fig. 8 — baseline migration bandwidth share and latency",
        columns=("mode", "workload", "metric", "value"),
        jobs=_mode_matrix_jobs(("Ohm-base", "Oracle"), workloads),
        reduce=_fig8_reduce(workloads),
        tabulate=_figure_rows(series="metric"),
    )


# --------------------------------------------------------------------
# Fig. 16 — IPC normalized to Ohm-base
# --------------------------------------------------------------------

def _fig16_reduce(workloads: Tuple[str, ...], platforms: Tuple[str, ...]):
    def reduce(results: JobResults) -> Dict[str, FigureData]:
        out = {}
        for mode in MODES:
            values: Dict[Tuple[str, str], float] = {}
            for w in workloads:
                base = results.get("Ohm-base", w, mode)
                for p in platforms:
                    res = results.get(p, w, mode)
                    values[(w, p)] = res.performance / base.performance
            out[mode.value] = FigureData("fig16", mode.value, values)
        return out

    return reduce


def make_fig16_spec(
    workloads: Tuple[str, ...] = ALL_WORKLOADS,
    platforms: Tuple[str, ...] = FIG16_PLATFORMS,
) -> ExperimentSpec:
    needed = platforms if "Ohm-base" in platforms else platforms + ("Ohm-base",)
    return ExperimentSpec(
        name="fig16",
        title="Fig. 16 — IPC normalized to Ohm-base",
        columns=("mode", "workload", "platform", "value"),
        jobs=_mode_matrix_jobs(needed, workloads),
        reduce=_fig16_reduce(workloads, platforms),
        tabulate=_figure_rows(),
    )


# --------------------------------------------------------------------
# Fig. 17 — mean memory latency normalized to Ohm-base
# --------------------------------------------------------------------

def _fig17_reduce(workloads: Tuple[str, ...]):
    def reduce(results: JobResults) -> Dict[str, FigureData]:
        out = {}
        for mode in MODES:
            values: Dict[Tuple[str, str], float] = {}
            for w in workloads:
                base = results.get("Ohm-base", w, mode)
                for p in LATENCY_PLATFORMS:
                    res = results.get(p, w, mode)
                    values[(w, p)] = (
                        res.mean_mem_latency_ps / base.mean_mem_latency_ps
                        if base.mean_mem_latency_ps
                        else 0.0
                    )
            out[mode.value] = FigureData("fig17", mode.value, values)
        return out

    return reduce


def make_fig17_spec(workloads: Tuple[str, ...] = ALL_WORKLOADS) -> ExperimentSpec:
    return ExperimentSpec(
        name="fig17",
        title="Fig. 17 — mean memory latency normalized to Ohm-base",
        columns=("mode", "workload", "platform", "value"),
        jobs=_mode_matrix_jobs(LATENCY_PLATFORMS, workloads),
        reduce=_fig17_reduce(workloads),
        tabulate=_figure_rows(),
    )


# --------------------------------------------------------------------
# Fig. 18 — migration share of channel bandwidth
# --------------------------------------------------------------------

def _fig18_reduce(workloads: Tuple[str, ...]):
    def reduce(results: JobResults) -> Dict[str, FigureData]:
        out = {}
        for mode in MODES:
            values: Dict[Tuple[str, str], float] = {}
            for w in workloads:
                for p in BANDWIDTH_PLATFORMS:
                    res = results.get(p, w, mode)
                    values[(w, p)] = res.migration_bandwidth_fraction
            out[mode.value] = FigureData("fig18", mode.value, values)
        return out

    return reduce


def make_fig18_spec(workloads: Tuple[str, ...] = ALL_WORKLOADS) -> ExperimentSpec:
    return ExperimentSpec(
        name="fig18",
        title="Fig. 18 — migration share of channel bandwidth",
        columns=("mode", "workload", "platform", "value"),
        jobs=_mode_matrix_jobs(BANDWIDTH_PLATFORMS, workloads),
        reduce=_fig18_reduce(workloads),
        tabulate=_figure_rows(),
    )


# --------------------------------------------------------------------
# Fig. 19 — energy breakdown
# --------------------------------------------------------------------

def _fig19_reduce(workloads: Tuple[str, ...]):
    def reduce(results: JobResults) -> Dict[str, Dict[Tuple[str, str], EnergyBreakdown]]:
        out: Dict[str, Dict[Tuple[str, str], EnergyBreakdown]] = {}
        for mode in MODES:
            model = EnergyModel(default_config(mode))
            rows: Dict[Tuple[str, str], EnergyBreakdown] = {}
            for w in workloads:
                for p in ENERGY_PLATFORMS:
                    res = results.get(p, w, mode)
                    rows[(w, p)] = model.breakdown(PLATFORMS[p], res)
            out[mode.value] = rows
        return out

    return reduce


def _fig19_tabulate(payload) -> List[dict]:
    return [
        {
            "mode": mode,
            "workload": w,
            "platform": p,
            "xpoint_j": b.xpoint_j,
            "dram_dynamic_j": b.dram_dynamic_j,
            "dram_static_j": b.dram_static_j,
            "optical_j": b.optical_j,
            "electrical_j": b.electrical_j,
            "total_j": b.total_j,
        }
        for mode, rows in payload.items()
        for (w, p), b in rows.items()
    ]


def make_fig19_spec(workloads: Tuple[str, ...] = ALL_WORKLOADS) -> ExperimentSpec:
    return ExperimentSpec(
        name="fig19",
        title="Fig. 19 — energy breakdown per platform and workload",
        columns=(
            "mode", "workload", "platform", "xpoint_j", "dram_dynamic_j",
            "dram_static_j", "optical_j", "electrical_j", "total_j",
        ),
        jobs=_mode_matrix_jobs(ENERGY_PLATFORMS, workloads),
        reduce=_fig19_reduce(workloads),
        tabulate=_fig19_tabulate,
    )


# --------------------------------------------------------------------
# Fig. 20a — performance vs optical waveguide count
# --------------------------------------------------------------------

def _fig20a_jobs(workloads: Tuple[str, ...], counts: Tuple[int, ...]):
    def jobs(run_cfg: RunConfig) -> Tuple[SimulationJob, ...]:
        out = [
            SimulationJob("Hetero", w, MemoryMode.PLANAR, run_cfg)
            for w in workloads
        ]
        for n in counts:
            cfg_n = replace(run_cfg, waveguides=n)
            out.extend(
                SimulationJob(p, w, MemoryMode.PLANAR, cfg_n)
                for p in ("Ohm-base", "Ohm-BW")
                for w in workloads
            )
        return tuple(out)

    return jobs


def _fig20a_reduce(workloads: Tuple[str, ...], counts: Tuple[int, ...]):
    def reduce(results: JobResults) -> List[dict]:
        base_cfg = results.run_cfg
        hetero_perf = {
            w: results.get("Hetero", w, MemoryMode.PLANAR).performance
            for w in workloads
        }
        rows = []
        for n in counts:
            cfg_n = replace(base_cfg, waveguides=n)
            for p in ("Ohm-base", "Ohm-BW"):
                rel = [
                    results.get(p, w, MemoryMode.PLANAR, cfg_n).performance
                    / hetero_perf[w]
                    for w in workloads
                ]
                rows.append(
                    {
                        "waveguides": n,
                        "platform": p,
                        "norm_performance": sum(rel) / len(rel),
                    }
                )
        return rows

    return reduce


def make_fig20a_spec(
    workloads: Tuple[str, ...] = FIG20A_WORKLOADS,
    waveguide_counts: Tuple[int, ...] = FIG20A_WAVEGUIDES,
) -> ExperimentSpec:
    return ExperimentSpec(
        name="fig20a",
        title="Fig. 20a — performance vs number of optical waveguides",
        columns=("waveguides", "platform", "norm_performance"),
        jobs=_fig20a_jobs(workloads, waveguide_counts),
        reduce=_fig20a_reduce(workloads, waveguide_counts),
        tabulate=_rows_as_is,
    )


# --------------------------------------------------------------------
# Fig. 20b — BER link budgets (analytic)
# --------------------------------------------------------------------

def make_fig20b_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="fig20b",
        title="Fig. 20b — BER of each platform/function",
        columns=("label", "ber", "received_power_mw", "laser_scale", "reliable"),
        jobs=_no_jobs,
        reduce=_fig20b_reduce,
        tabulate=_fig20b_tabulate,
    )


# --------------------------------------------------------------------
# Fig. 15 — MRR layout counts (analytic)
# --------------------------------------------------------------------

def _fig15_reduce(_results: JobResults) -> List[dict]:
    rows = []
    for layout in (GENERAL_LAYOUT, BASELINE_LAYOUT):
        rows.append(
            {
                "layout": layout.label,
                "transmitters": layout.transmitters,
                "receivers": layout.receivers,
                "total": layout.total,
                "reduction_vs_general": layout.reduction_vs(GENERAL_LAYOUT),
            }
        )
    for mode in MODES:
        layout = layout_for_mode(mode)
        rows.append(
            {
                "layout": layout.label,
                "transmitters": layout.transmitters,
                "receivers": layout.receivers,
                "total": layout.total,
                "reduction_vs_general": mode_reduction(mode),
            }
        )
    return rows


def make_fig15_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="fig15",
        title="Fig. 15 — MRR counts per layout",
        columns=(
            "layout", "transmitters", "receivers", "total", "reduction_vs_general",
        ),
        jobs=_no_jobs,
        reduce=_fig15_reduce,
        tabulate=_rows_as_is,
    )


# --------------------------------------------------------------------
# Table III — bill of materials + cost deltas (analytic)
# --------------------------------------------------------------------

def _table3_reduce(_results: JobResults) -> List[dict]:
    rows = []
    for mode in MODES:
        cost = CostModel(mode)
        bom = cost.bom
        for platform in ("Ohm-base", "Ohm-BW"):
            mrr = bom.mrr_bw if platform == "Ohm-BW" else bom.mrr_base
            rows.append(
                {
                    "mode": mode.value,
                    "platform": platform,
                    "dram_gb": bom.dram_gb,
                    "dram_price": bom.dram_price,
                    "xpoint_gb": bom.xpoint_gb,
                    "xpoint_price": bom.xpoint_price,
                    "modulators": mrr.modulators,
                    "detectors": mrr.detectors,
                    "mrr_price": mrr.price,
                    "total_cost": cost.platform_cost(platform),
                    "cost_increase": cost.cost_increase_fraction(platform),
                }
            )
    return rows


def make_table3_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="table3",
        title="Table III — bill of materials and cost deltas",
        columns=(
            "mode", "platform", "dram_gb", "dram_price", "xpoint_gb",
            "xpoint_price", "modulators", "detectors", "mrr_price",
            "total_cost", "cost_increase",
        ),
        jobs=_no_jobs,
        reduce=_table3_reduce,
        tabulate=_rows_as_is,
    )


# --------------------------------------------------------------------
# Fig. 21 — cost-performance
# --------------------------------------------------------------------

def _fig21_reduce(workloads: Tuple[str, ...]):
    def reduce(results: JobResults) -> Dict[str, FigureData]:
        out = {}
        for mode in MODES:
            cost = CostModel(mode)
            values: Dict[Tuple[str, str], float] = {}
            for w in workloads:
                origin = results.get("Origin", w, mode)
                for p in ("Origin", "Ohm-BW", "Oracle"):
                    res = results.get(p, w, mode)
                    perf = res.performance / origin.performance
                    values[(w, p)] = cost.cost_performance(p, perf)
            out[mode.value] = FigureData("fig21", mode.value, values)
        return out

    return reduce


def make_fig21_spec(workloads: Tuple[str, ...] = ALL_WORKLOADS) -> ExperimentSpec:
    return ExperimentSpec(
        name="fig21",
        title="Fig. 21 — cost-performance ratio",
        columns=("mode", "workload", "platform", "value"),
        jobs=_mode_matrix_jobs(("Origin", "Ohm-BW", "Oracle"), workloads),
        reduce=_fig21_reduce(workloads),
        tabulate=_figure_rows(),
    )


# --------------------------------------------------------------------
# Families — beyond-Table-II workload sensitivity (workload subsystem v2)
# --------------------------------------------------------------------

FAMILY_WORKLOADS = ("gemm_reuse", "pointer_chase", "stream_scan", "mix_gemm_chase")
FAMILY_PLATFORMS = ("Origin", "Hetero", "Ohm-base", "Ohm-BW", "Oracle")
STREAM_MIX_WORKLOADS = (
    "stream_scan_r25", "stream_scan_r50", "stream_scan_r75", "stream_scan_r100",
)


def _families_jobs(run_cfg: RunConfig) -> Tuple[SimulationJob, ...]:
    jobs = [
        SimulationJob(p, w, MemoryMode.PLANAR, run_cfg)
        for w in FAMILY_WORKLOADS
        for p in FAMILY_PLATFORMS
    ]
    jobs.extend(
        SimulationJob(p, w, MemoryMode.PLANAR, run_cfg)
        for w in STREAM_MIX_WORKLOADS
        for p in ("Ohm-base", "Ohm-BW")
    )
    return tuple(jobs)


def _families_reduce(results: JobResults) -> List[dict]:
    rows = []
    for w in FAMILY_WORKLOADS + STREAM_MIX_WORKLOADS:
        platforms = (
            FAMILY_PLATFORMS if w in FAMILY_WORKLOADS else ("Ohm-base", "Ohm-BW")
        )
        base = results.get("Ohm-base", w, MemoryMode.PLANAR)
        for p in platforms:
            res = results.get(p, w, MemoryMode.PLANAR)
            rows.append(
                {
                    "workload": w,
                    "platform": p,
                    "perf_vs_base": (
                        res.performance / base.performance
                        if base.performance
                        else 0.0
                    ),
                    "mem_latency_ns": res.mean_mem_latency_ps / 1e3,
                    "migration_bw_frac": res.migration_bandwidth_fraction,
                }
            )
    return rows


def make_families_spec() -> ExperimentSpec:
    """Sensitivity sweep over the PR-3 workload families.

    Planar mode, every platform on the three parametric families plus
    the co-located multi-tenant mix, and Ohm-base/Ohm-BW across the
    streaming read:write-mix variants — does the dual-route win survive
    access regimes Table II never exercises?
    """
    return ExperimentSpec(
        name="families",
        title="Families — platform sensitivity on the parametric workload families",
        columns=(
            "workload", "platform", "perf_vs_base", "mem_latency_ns",
            "migration_bw_frac",
        ),
        jobs=_families_jobs,
        reduce=_families_reduce,
        tabulate=_rows_as_is,
    )


# --------------------------------------------------------------------
# Headline — abstract claims
# --------------------------------------------------------------------

def _headline_reduce(workloads: Tuple[str, ...]):
    def reduce(results: JobResults) -> dict:
        import math

        vs_origin: List[float] = []
        vs_base: List[float] = []
        for mode in MODES:
            for w in workloads:
                bw = results.get("Ohm-BW", w, mode).performance
                vs_origin.append(bw / results.get("Origin", w, mode).performance)
                vs_base.append(bw / results.get("Ohm-base", w, mode).performance)

        def geomean(xs: List[float]) -> float:
            return math.exp(sum(math.log(x) for x in xs) / len(xs))

        return {
            "speedup_vs_origin": geomean(vs_origin),
            "speedup_vs_ohm_base": geomean(vs_base),
        }

    return reduce


def make_headline_spec(workloads: Tuple[str, ...] = ALL_WORKLOADS) -> ExperimentSpec:
    return ExperimentSpec(
        name="headline",
        title="Headline — Ohm-BW vs Origin and vs Ohm-base (geomean)",
        columns=("speedup_vs_origin", "speedup_vs_ohm_base"),
        jobs=_mode_matrix_jobs(("Ohm-BW", "Origin", "Ohm-base"), workloads),
        reduce=_headline_reduce(workloads),
        tabulate=_payload_as_row,
    )


# Register the default-parameter spec of every figure/table.  The CLI
# and the exporters discover experiments exclusively through this
# registry; a new figure is one more ``register(make_*_spec())`` line.
for _spec_factory in (
    make_fig3_spec,
    make_fig8_spec,
    make_families_spec,
    make_fig15_spec,
    make_fig16_spec,
    make_fig17_spec,
    make_fig18_spec,
    make_fig19_spec,
    make_fig20a_spec,
    make_fig20b_spec,
    make_fig21_spec,
    make_table3_spec,
    make_headline_spec,
):
    register(_spec_factory())
