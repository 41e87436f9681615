"""Optical substrate tests: MRR, waveguide, wavelengths, power, BER,
layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MemoryMode, default_config
from repro.optical.ber import (
    ANCHOR_BER,
    RELIABILITY_REQUIREMENT,
    BerModel,
    ber_to_q,
    figure20b_budgets,
    q_to_ber,
)
from repro.optical.layout import (
    BASELINE_LAYOUT,
    GENERAL_LAYOUT,
    PLANAR_LAYOUT,
    TWO_LEVEL_LAYOUT,
    layout_for_mode,
    mode_reduction,
)
from repro.optical.mrr import FINE_TUNE_PS, FULL_TUNE_PS, CouplingState, MicroRingResonator
from repro.optical.power import OpticalPowerModel
from repro.optical.waveguide import Waveguide, db_to_fraction
from repro.optical.wavelength import WavelengthAllocator


class TestMrr:
    def test_full_tune_latency(self):
        mrr = MicroRingResonator()
        assert mrr.tune(CouplingState.FULLY_COUPLED) == FULL_TUNE_PS

    def test_fine_tune_into_half_coupled(self):
        mrr = MicroRingResonator()
        assert mrr.tune(CouplingState.HALF_COUPLED) == FINE_TUNE_PS

    def test_tune_to_same_state_is_free(self):
        mrr = MicroRingResonator()
        mrr.tune(CouplingState.FULLY_COUPLED)
        assert mrr.tune(CouplingState.FULLY_COUPLED) == 0

    def test_pass_power_by_state(self):
        mrr = MicroRingResonator()
        assert mrr.pass_power(1.0) == 1.0
        mrr.tune(CouplingState.HALF_COUPLED)
        assert mrr.pass_power(1.0) == 0.5
        mrr.tune(CouplingState.FULLY_COUPLED)
        assert mrr.pass_power(1.0) == 0.0

    def test_absorbed_plus_passed_conserves_power(self):
        mrr = MicroRingResonator()
        mrr.tune(CouplingState.HALF_COUPLED)
        assert mrr.pass_power(0.8) + mrr.absorbed_power(0.8) == pytest.approx(0.8)

    def test_half_coupled_tx_keeps_half_power_on_zero(self):
        mrr = MicroRingResonator()
        assert mrr.modulate_bit(0, 1.0, half_coupled_tx=True) == 0.5
        assert mrr.modulate_bit(0, 1.0, half_coupled_tx=False) == 0.0
        assert mrr.modulate_bit(1, 1.0, half_coupled_tx=True) == 1.0

    def test_invalid_bit_rejected(self):
        with pytest.raises(ValueError):
            MicroRingResonator().modulate_bit(2, 1.0, False)


class TestWaveguide:
    def test_db_to_fraction(self):
        assert db_to_fraction(10.0) == pytest.approx(0.1)
        assert db_to_fraction(0.0) == 1.0

    def test_propagation_loss(self):
        wg = Waveguide(length_cm=10.0, loss_db_per_cm=0.3)
        assert wg.loss_db == pytest.approx(3.0)
        assert wg.propagate(1.0) == pytest.approx(db_to_fraction(3.0))

    def test_partial_propagation(self):
        wg = Waveguide(4.0)
        assert wg.propagate_partial(1.0, 2.0) > wg.propagate(1.0)

    def test_partial_bounds_checked(self):
        with pytest.raises(ValueError):
            Waveguide(4.0).propagate_partial(1.0, 5.0)


class TestWavelengthAllocation:
    def test_six_by_sixteen(self):
        groups = WavelengthAllocator(96, 6).allocate()
        assert len(groups) == 6
        assert all(g.width_bits == 16 for g in groups)
        assert WavelengthAllocator.verify_disjoint(groups)

    @given(
        total=st.integers(min_value=1, max_value=256),
        vcs=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=50)
    def test_allocation_covers_all_wavelengths_disjointly(self, total, vcs):
        if total < vcs:
            return
        groups = WavelengthAllocator(total, vcs).allocate()
        assert WavelengthAllocator.verify_disjoint(groups)
        assert sum(g.width_bits for g in groups) == total

    def test_too_few_wavelengths_rejected(self):
        with pytest.raises(ValueError):
            WavelengthAllocator(4, 6)


class TestPowerAndBer:
    def test_anchor_calibration(self):
        cfg = default_config().optical
        model = BerModel.calibrated(cfg)
        path = OpticalPowerModel(cfg).demand_path()
        assert model.ber_for_path(path) == pytest.approx(ANCHOR_BER, rel=1e-3)

    def test_q_ber_inverse(self):
        for ber in (1e-9, 1e-12, 1e-15):
            assert q_to_ber(ber_to_q(ber)) == pytest.approx(ber, rel=1e-3)

    def test_more_power_means_lower_ber(self):
        model = BerModel(sensitivity_q_per_sqrt_mw=14.0)
        assert model.ber(0.6) < model.ber(0.3)

    def test_no_light_is_coin_flip(self):
        assert BerModel(14.0).ber(0.0) == 0.5

    def test_figure20b_matches_paper(self):
        """Pin the four BER values the paper reports in Section VI-B."""
        budgets = {b.label: b.ber for b in figure20b_budgets(default_config().optical)}
        assert budgets["Ohm-base rd/wr"] == pytest.approx(7.2e-16, rel=0.02)
        assert budgets["Ohm-WOM auto"] == pytest.approx(6.1e-16, rel=0.02)
        assert budgets["Ohm-WOM swap"] == pytest.approx(9.9e-16, rel=0.02)
        assert budgets["Ohm-BW swap"] == pytest.approx(9.3e-16, rel=0.02)

    def test_all_platforms_meet_reliability(self):
        for b in figure20b_budgets(default_config().optical):
            assert b.ber <= RELIABILITY_REQUIREMENT, b.label

    def test_laser_scales(self):
        budgets = {b.label: b.laser_scale for b in figure20b_budgets(default_config().optical)}
        assert budgets["Ohm-base rd/wr"] == 1.0
        assert budgets["Ohm-WOM swap"] == 2.0
        assert budgets["Ohm-BW swap"] == 4.0


class TestLayout:
    def test_planar_reduction_near_58_percent(self):
        assert mode_reduction(MemoryMode.PLANAR) == pytest.approx(0.58, abs=0.02)

    def test_two_level_reduction_near_42_percent(self):
        assert mode_reduction(MemoryMode.TWO_LEVEL) == pytest.approx(0.42, abs=0.02)

    def test_customized_layouts_smaller_than_general(self):
        assert PLANAR_LAYOUT.total < GENERAL_LAYOUT.total
        assert TWO_LEVEL_LAYOUT.total < GENERAL_LAYOUT.total

    def test_baseline_is_smallest(self):
        assert BASELINE_LAYOUT.total < PLANAR_LAYOUT.total

    def test_layout_for_mode(self):
        assert layout_for_mode(MemoryMode.PLANAR) is PLANAR_LAYOUT
        assert layout_for_mode(MemoryMode.TWO_LEVEL) is TWO_LEVEL_LAYOUT
