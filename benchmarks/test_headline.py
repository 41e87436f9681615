"""Headline claim (abstract): Ohm-GPU improves performance by 181 % over
a DRAM-based GPU memory system and 27 % over the baseline optical
heterogeneous memory system."""

from conftest import bench_once, report

from repro.harness.experiments import make_headline_spec
from repro.harness.registry import run_spec


def test_headline_speedups(benchmark, runner):
    result = bench_once(benchmark, run_spec, make_headline_spec(), runner).payload
    report()
    report(
        f"Ohm-BW vs Origin  : {result['speedup_vs_origin']:.2f}x (paper 2.81x)\n"
        f"Ohm-BW vs Ohm-base: {result['speedup_vs_ohm_base']:.2f}x (paper 1.27x)"
    )
    # Shape: Ohm-BW clearly beats both references.
    assert result["speedup_vs_origin"] > 1.3
    assert result["speedup_vs_ohm_base"] > 1.05
