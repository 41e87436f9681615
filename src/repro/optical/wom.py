"""Write-once-memory (WOM) coding for dual routes (Section V-B, Fig. 14).

Ohm-GPU uses the classic Rivest–Shamir ⟨2,3⟩ WOM code: two generations
of 2-bit data share one 3-bit light signal.  The first writer (the
memory controller) modulates a weight-≤1 code; the second writer (the
XPoint controller) can only *add* light — exactly the WOM constraint —
and reaches the complement codes.  Receivers decode by codeword weight.

Cost: 3 light bits carry 2 data bits per writer, so the effective
channel bandwidth for memory requests drops to 2/3 (the 33 % loss the
paper quotes for Ohm-WOM).
"""

from __future__ import annotations

from typing import List, Tuple

# First-generation codes: weight <= 1.
_GEN1 = {0b00: 0b000, 0b01: 0b001, 0b10: 0b010, 0b11: 0b100}
# Second generation = bitwise complement of the first.
_GEN2 = {d: c ^ 0b111 for d, c in _GEN1.items()}
_GEN1_INV = {c: d for d, c in _GEN1.items()}
_GEN2_INV = {c: d for d, c in _GEN2.items()}


def _weight(code: int) -> int:
    return bin(code).count("1")


class WomCodec:
    """Encode/decode 2-bit symbols through the ⟨2,3⟩ WOM code."""

    data_bits = 2
    code_bits = 3

    def encode_first(self, data: int) -> int:
        """First-generation (memory-controller) write code."""
        self._check_data(data)
        return _GEN1[data]

    def encode_second(self, data: int, current: int) -> int:
        """Second-generation (XPoint-controller) write code.

        ``current`` is the code already on the light.  If the light
        already decodes to ``data`` nothing changes; otherwise the
        complement code is used, which only ever *sets* bits.
        """
        self._check_data(data)
        self._check_code(current)
        if self.decode(current) == data:
            return current
        target = _GEN2[data]
        if target & current != current:
            raise ValueError(
                f"WOM violation: {current:03b} -> {target:03b} clears a bit"
            )
        return target

    def decode(self, code: int) -> int:
        """Decode either generation by codeword weight."""
        self._check_code(code)
        if _weight(code) <= 1:
            return _GEN1_INV[code]
        return _GEN2_INV[code]

    def encode_stream_first(self, bits: List[int]) -> List[int]:
        """Encode a bit stream 2 bits at a time (zero-padded)."""
        out: List[int] = []
        for i in range(0, len(bits), 2):
            pair = bits[i : i + 2] + [0] * (2 - len(bits[i : i + 2]))
            code = self.encode_first(pair[0] << 1 | pair[1])
            out.extend((code >> 2 & 1, code >> 1 & 1, code & 1))
        return out

    def overhead_bits(self, data_bits: int) -> int:
        """Light bits needed to carry ``data_bits`` of payload.

        >>> WomCodec().overhead_bits(1024)
        1536
        """
        symbols = (data_bits + 1) // 2
        return symbols * 3

    @staticmethod
    def _check_data(data: int) -> None:
        if not 0 <= data <= 0b11:
            raise ValueError(f"data symbol must be 2 bits, got {data}")

    @staticmethod
    def _check_code(code: int) -> None:
        if not 0 <= code <= 0b111:
            raise ValueError(f"codeword must be 3 bits, got {code}")


#: Payload share of the light bits: what a memory request's bandwidth
#: drops to on a WOM-coded channel.
EFFECTIVE_BANDWIDTH_FRACTION = WomCodec.data_bits / WomCodec.code_bits


def two_writers_roundtrip(d1: int, d2: int) -> Tuple[int, int]:
    """Model Fig. 14: writer 1 sends ``d1``, writer 2 overlays ``d2``.

    Returns what each receiver decodes: ``(first_hop, second_hop)``.
    """
    codec = WomCodec()
    light = codec.encode_first(d1)
    first_decoded = codec.decode(light)
    light = codec.encode_second(d2, light)
    second_decoded = codec.decode(light)
    return first_decoded, second_decoded
