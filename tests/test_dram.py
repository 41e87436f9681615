"""DRAM substrate tests: timing, bank state machine, device decode."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DramTimingConfig
from repro.dram.bank import Bank, BankState
from repro.dram.device import DramDevice
from repro.dram.timing import AccessOutcome, DramTiming
from repro.sim.engine import ns
from repro.sim.stats import Stats


@pytest.fixture
def timing():
    return DramTiming.from_config(DramTimingConfig())


class TestTiming:
    def test_row_hit_latency(self, timing):
        assert timing.access_latency_ps(AccessOutcome.ROW_HIT) == ns(11)

    def test_row_closed_latency(self, timing):
        assert timing.access_latency_ps(AccessOutcome.ROW_CLOSED) == ns(36)

    def test_row_conflict_latency(self, timing):
        assert timing.access_latency_ps(AccessOutcome.ROW_CONFLICT) == ns(46)

    def test_hit_occupancy_is_burst_rate(self, timing):
        assert timing.access_occupancy_ps(AccessOutcome.ROW_HIT) == ns(2)

    def test_occupancy_below_latency_for_hits(self, timing):
        assert timing.access_occupancy_ps(
            AccessOutcome.ROW_HIT
        ) < timing.access_latency_ps(AccessOutcome.ROW_HIT)


class TestBank:
    def test_first_access_is_row_closed(self, timing):
        bank = Bank(timing)
        finish, outcome = bank.access(row=3, now_ps=0)
        assert outcome is AccessOutcome.ROW_CLOSED
        assert finish == timing.t_rcd_ps + timing.t_cl_ps

    def test_same_row_hits(self, timing):
        bank = Bank(timing)
        bank.access(3, 0)
        _, outcome = bank.access(3, ns(100))
        assert outcome is AccessOutcome.ROW_HIT

    def test_different_row_conflicts(self, timing):
        bank = Bank(timing)
        bank.access(3, 0)
        _, outcome = bank.access(4, ns(100))
        assert outcome is AccessOutcome.ROW_CONFLICT

    def test_back_to_back_hits_stream_at_burst_rate(self, timing):
        bank = Bank(timing)
        bank.access(1, 0)
        f1, _ = bank.access(1, 0)
        f2, _ = bank.access(1, 0)
        # Both are hits; data availability is tCL after their start, and
        # starts are spaced by the burst occupancy.
        assert f2 - f1 == timing.t_burst_ps

    def test_precharge_closes_row(self, timing):
        bank = Bank(timing)
        bank.access(3, 0)
        bank.precharge(ns(200))
        assert bank.state is BankState.IDLE
        assert bank.open_row is None

    def test_activate_for_swap_latches_row(self, timing):
        bank = Bank(timing)
        t = bank.activate(row=9, now_ps=0)
        assert bank.state is BankState.ACTIVE
        assert bank.open_row == 9
        assert t == timing.t_rcd_ps

    def test_activate_same_row_is_free(self, timing):
        bank = Bank(timing)
        bank.activate(9, 0)
        busy = bank.busy_until_ps
        t = bank.activate(9, busy)
        assert t == busy

    def test_occupy_reserves_window(self, timing):
        bank = Bank(timing)
        start, end = bank.occupy(now_ps=100, duration_ps=500)
        assert (start, end) == (100, 600)
        assert bank.busy_until_ps == 600

    def test_counters(self, timing):
        bank = Bank(timing)
        bank.access(1, 0)
        bank.access(1, 0)
        bank.access(2, 0)
        assert bank.accesses == 3
        assert bank.row_hits == 1
        assert bank.activations == 2


class TestDevice:
    def make(self, capacity=1 << 20, refresh=False):
        return DramDevice(
            DramTimingConfig(), capacity, Stats(), name="d", enable_refresh=refresh
        )

    def test_decode_spreads_rows_over_banks(self):
        dev = self.make()
        cfg = DramTimingConfig()
        a = dev.decode(0)
        b = dev.decode(cfg.row_bytes)  # next row
        assert a.bank != b.bank

    def test_decode_same_row_same_bank(self):
        dev = self.make()
        a = dev.decode(0)
        b = dev.decode(64)
        assert (a.bank, a.row) == (b.bank, b.row)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            self.make().decode(-1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            DramDevice(DramTimingConfig(), 0)

    def test_access_counts_stats(self):
        dev = self.make()
        dev.access(0, False, 0)
        dev.access(0, True, ns(100))
        assert dev.stats.get("d.accesses") == 2
        assert dev.stats.get("d.reads") == 1
        assert dev.stats.get("d.writes") == 1

    def test_refresh_stalls_accesses_in_window(self):
        dev = self.make(refresh=True)
        # Time 0 is inside the refresh window (offset 0 < tRFC).
        finish = dev.access(0, False, 0)
        t = DramTiming.from_config(DramTimingConfig())
        assert finish >= t.refresh_latency_ps

    def test_occupy_bank_blocks_later_access(self):
        dev = self.make()
        dev.occupy_bank(0, 0, ns(1000))
        finish = dev.access(0, False, 0)
        assert finish > ns(1000)

    def test_total_counters_aggregate_banks(self):
        dev = self.make()
        for i in range(8):
            dev.access(i * 4096, False, 0)
        assert dev.total_accesses == 8
        assert dev.total_activations >= 1

    def test_swap_preset_accounting(self):
        """Regression for the audit-flushed bug: swap presets are row
        activations too, but the demand-path stats counter must exclude
        them — the bank ledger keeps both reconciled."""
        dev = self.make()
        dev.access(0, False, 0)  # demand: counter + bank agree
        dev.activate_for_swap(4096, 0)  # preset: bank-only
        dev.occupy_bank(4096, 0, 500)
        assert dev.total_preset_activations == 1
        assert sum(b.occupancies for b in dev.banks) == 1
        counted = dev.stats.get(f"{dev.name}.activations")
        assert counted == dev.total_activations - dev.total_preset_activations
        for bank in dev.banks:
            assert bank.activations <= bank.accesses + bank.occupancies

    def test_occupy_counts_no_demand_access(self):
        dev = self.make()
        dev.occupy_bank(0, 0, 1000)
        assert dev.total_accesses == 0
        assert dev.stats.get(f"{dev.name}.accesses") == 0
        assert sum(b.occupancies for b in dev.banks) == 1


class TestAccessOracle:
    """``DramDevice.access`` equals ``decode`` + ``_refresh_delay`` +
    ``Bank.access`` (with ``DramTiming.access_latency_ps``) on a twin
    device: the same completion times, bank states and counters."""

    @given(
        capacity=st.sampled_from([1 << 10, 1 << 14, 3 << 15, 1 << 20]),
        refresh=st.booleans(),
        ops=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(min_value=0, max_value=1 << 13),
                    st.integers(min_value=0, max_value=1 << 22),
                ),
                st.booleans(),
                st.integers(min_value=0, max_value=ns(400)),
            ),
            max_size=400,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_access_matches_bank_oracle(self, capacity, refresh, ops):
        dev, twin = (
            DramDevice(
                DramTimingConfig(), capacity, Stats(), name="d",
                enable_refresh=refresh,
            )
            for _ in range(2)
        )
        want = dict.fromkeys(
            ("accesses", "reads", "writes", "row_hits", "activations"), 0
        )
        now = 0
        for addr, is_write, gap in ops:
            now += gap
            loc = twin.decode(addr)
            bank_now = now + twin._refresh_delay(now)
            expected, outcome = twin.banks[loc.bank].access(loc.row, bank_now)
            assert dev.access(addr, is_write, now) == expected
            want["accesses"] += 1
            want["writes" if is_write else "reads"] += 1
            hit = outcome is AccessOutcome.ROW_HIT
            want["row_hits" if hit else "activations"] += 1
        assert dev.banks == twin.banks
        # Zero counts stay absent from the counters, as in the twin.
        expected_counters = {f"d.{k}": float(v) for k, v in want.items() if v}
        expected_counters.update(twin.stats.snapshot())  # refresh stalls
        assert dev.stats.snapshot() == expected_counters
        assert dev.stats.snapshot() == expected_counters  # flush is idempotent
