"""Tests for counters, latency stats, histograms and bound handles."""

import pytest

from repro.sim.stats import Counter, Histogram, LatencyStat, Stats


class TestLatencyStat:
    def test_empty_mean_is_zero(self):
        assert LatencyStat().mean == 0.0

    def test_single_sample(self):
        s = LatencyStat()
        s.record(7)
        assert (s.count, s.total, s.min_value, s.max_value) == (1, 7, 7, 7)

    def test_min_max_tracking(self):
        s = LatencyStat()
        for v in (5, 2, 9, 3):
            s.record(v)
        assert s.min_value == 2
        assert s.max_value == 9
        assert s.mean == pytest.approx(4.75)

    def test_merge(self):
        a, b = LatencyStat(), LatencyStat()
        a.record(1)
        a.record(3)
        b.record(10)
        a.merge(b)
        assert a.count == 3
        assert a.max_value == 10

    def test_merge_empty_into_nonempty(self):
        a, b = LatencyStat(), LatencyStat()
        a.record(4)
        a.merge(b)
        assert a.count == 1

    def test_merge_into_empty(self):
        a, b = LatencyStat(), LatencyStat()
        b.record(4)
        a.merge(b)
        assert (a.min_value, a.max_value) == (4, 4)


class TestHistogram:
    def test_binning(self):
        h = Histogram(10)
        for v in (0, 5, 9, 10, 25):
            h.record(v)
        assert dict(h.items()) == {0: 3, 10: 1, 20: 1}

    def test_count(self):
        h = Histogram(5)
        for v in range(12):
            h.record(v)
        assert h.count == 12

    def test_count_is_running_total(self):
        # The running total must agree with summing the bins at every
        # step (it used to be recomputed from the bins on each call).
        h = Histogram(3)
        assert h.count == 0
        for i, v in enumerate((0, 1, 100, 2, 50), start=1):
            h.record(v)
            assert h.count == i == sum(h.bins.values())

    def test_invalid_bin_width(self):
        with pytest.raises(ValueError):
            Histogram(0)

    def test_negative_bin_width_rejected(self):
        with pytest.raises(ValueError):
            Histogram(-5)

    def test_float_bin_width_rejected(self):
        # A float width would leak float bin keys and fuzzy boundaries.
        with pytest.raises(TypeError):
            Histogram(2.5)

    def test_bool_bin_width_rejected(self):
        # bool is an int subclass; Histogram(True) is a bug, not width 1.
        with pytest.raises(TypeError):
            Histogram(True)

    def test_negative_values_bin_with_floor_semantics(self):
        # Bin k covers [k*w, (k+1)*w) for negatives too: -1 belongs to
        # the bin starting at -10, not to the zero bin.
        h = Histogram(10)
        for v in (-1, -10, -11, 0, 9):
            h.record(v)
        assert dict(h.items()) == {-20: 1, -10: 2, 0: 2}

    def test_bin_of_matches_record(self):
        # record() files each value under the one bin whose interval
        # [start, start + w) covers it.
        for v in (-15, -7, -1, 0, 6, 7, 20):
            h = Histogram(7)
            h.record(v)
            [(start, count)] = h.items()
            assert start <= v < start + h.bin_width
            assert count == 1

    def test_items_sorted_with_negatives_first(self):
        h = Histogram(5)
        for v in (12, -3, 4):
            h.record(v)
        assert [start for start, _ in h.items()] == [-5, 0, 10]


class TestStats:
    def test_add_and_get(self):
        s = Stats()
        s.add("x")
        s.add("x", 2.5)
        assert s.get("x") == pytest.approx(3.5)

    def test_get_default(self):
        assert Stats().get("missing", -1.0) == -1.0

    def test_record_latency_creates_stat(self):
        s = Stats()
        s.record_latency("lat", 100)
        s.record_latency("lat", 200)
        assert s.latency("lat").mean == pytest.approx(150.0)

    def test_latency_missing_returns_empty(self):
        assert Stats().latency("nope").count == 0

    def test_snapshot_includes_latency_means(self):
        s = Stats()
        s.add("c", 2)
        s.record_latency("lat", 10)
        snap = s.snapshot()
        assert snap["c"] == 2
        assert snap["lat.mean"] == 10
        assert snap["lat.count"] == 1

    def test_snapshot_includes_latency_extremes(self):
        s = Stats()
        for v in (40, 10, 90):
            s.record_latency("lat", v)
        snap = s.snapshot()
        assert snap["lat.min"] == 10
        assert snap["lat.max"] == 90
        assert snap["lat.mean"] == pytest.approx(140 / 3)

    def test_snapshot_single_sample_extremes(self):
        s = Stats()
        s.record_latency("lat", 7)
        snap = s.snapshot()
        assert snap["lat.min"] == 7
        assert snap["lat.max"] == 7

    def test_snapshot_skips_empty_latency_stats(self):
        s = Stats()
        s.latency_handle("bound.but.unused")
        assert "bound.but.unused.mean" not in s.snapshot()
        assert "bound.but.unused.count" not in s.snapshot()


class TestCounterHandles:
    def test_counter_adds_into_shared_dict(self):
        s = Stats()
        h = s.counter("x")
        h.add()
        h.add(2.5)
        assert s.get("x") == pytest.approx(3.5)
        assert h.value == pytest.approx(3.5)

    def test_counter_handle_is_cached(self):
        s = Stats()
        assert s.counter("x") is s.counter("x")

    def test_handle_and_add_share_the_same_counter(self):
        s = Stats()
        h = s.counter("x")
        s.add("x", 1.0)
        h.add(1.0)
        assert s.get("x") == pytest.approx(2.0)

    def test_binding_does_not_create_an_entry(self):
        s = Stats()
        s.counter("never.touched")
        assert "never.touched" not in s.snapshot()

    def test_counter_is_slotted(self):
        with pytest.raises(AttributeError):
            Counter({}, "x").surprise = 1

    def test_latency_handle_records(self):
        s = Stats()
        h = s.latency_handle("lat")
        h.record(5)
        h.record(15)
        assert s.latency("lat").mean == pytest.approx(10.0)
        assert s.latency_handle("lat") is h
