"""WOM coding tests (Fig. 14)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.optical.wom import (
    EFFECTIVE_BANDWIDTH_FRACTION,
    WomCodec,
    two_writers_roundtrip,
)

codec = WomCodec()
symbols = st.integers(min_value=0, max_value=3)


class TestCodeProperties:
    @given(symbols)
    def test_first_generation_decodes(self, d):
        assert codec.decode(codec.encode_first(d)) == d

    @given(symbols, symbols)
    def test_second_write_only_sets_bits(self, d1, d2):
        """The WOM constraint: the second writer can only add light."""
        first = codec.encode_first(d1)
        second = codec.encode_second(d2, first)
        assert second & first == first  # no bit cleared

    @given(symbols, symbols)
    def test_second_generation_decodes(self, d1, d2):
        first = codec.encode_first(d1)
        second = codec.encode_second(d2, first)
        assert codec.decode(second) == d2

    @given(symbols, symbols)
    def test_roundtrip_both_receivers(self, d1, d2):
        assert two_writers_roundtrip(d1, d2) == (d1, d2)

    def test_first_codes_have_weight_le_1(self):
        for d in range(4):
            assert bin(codec.encode_first(d)).count("1") <= 1

    def test_rewrite_same_data_is_identity(self):
        first = codec.encode_first(2)
        assert codec.encode_second(2, first) == first


class TestBandwidth:
    def test_effective_fraction_is_two_thirds(self):
        assert EFFECTIVE_BANDWIDTH_FRACTION == pytest.approx(2 / 3)

    def test_effective_fraction_matches_codec_overhead(self):
        assert EFFECTIVE_BANDWIDTH_FRACTION == 1024 / WomCodec().overhead_bits(1024)

    def test_overhead_bits(self):
        assert codec.overhead_bits(1024) == 1536
        assert codec.overhead_bits(3) == 6  # rounds up to whole symbols

    def test_stream_encoding_length(self):
        out = codec.encode_stream_first([1, 0, 1, 1, 0])
        assert len(out) == 9  # 3 symbols x 3 light bits


class TestValidation:
    def test_data_range_checked(self):
        with pytest.raises(ValueError):
            codec.encode_first(4)

    def test_code_range_checked(self):
        with pytest.raises(ValueError):
            codec.decode(8)
