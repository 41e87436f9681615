"""Silicon nano-photonic substrate (Sections II-D, IV-C, V-B/C).

Models micro-ring resonators (including the half-coupled state that
enables dual routes), DWDM wavelength allocation, virtual channels with
photonic-demux arbitration, WOM coding, the optical link power budget,
bit-error-rate estimation and the Figure-15 MRR layout calculator.
"""

from repro.optical.ber import BerModel, LinkBudget
from repro.optical.channel import OpticalChannel, RouteKind, VirtualChannel
from repro.optical.dynamic import DynamicWavelengthAllocator
from repro.optical.layout import MrrLayout, layout_for_mode
from repro.optical.mrr import CouplingState, MicroRingResonator
from repro.optical.power import OpticalPowerModel
from repro.optical.waveguide import Waveguide
from repro.optical.wavelength import WavelengthAllocator
from repro.optical.wom import WomCodec

__all__ = [
    "MicroRingResonator",
    "CouplingState",
    "Waveguide",
    "WavelengthAllocator",
    "OpticalChannel",
    "VirtualChannel",
    "RouteKind",
    "WomCodec",
    "OpticalPowerModel",
    "LinkBudget",
    "BerModel",
    "MrrLayout",
    "layout_for_mode",
    "DynamicWavelengthAllocator",
]
