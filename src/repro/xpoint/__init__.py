"""3D XPoint substrate: device timing, controller logic layer, Start-Gap
wear levelling and SECDED ECC (Section II-C / III-A)."""

from repro.xpoint.controller import XPointController
from repro.xpoint.device import XPointDevice
from repro.xpoint.ecc import SecDedCodec
from repro.xpoint.translation import RegionTranslator
from repro.xpoint.wear_leveling import StartGap

__all__ = [
    "XPointDevice",
    "XPointController",
    "StartGap",
    "SecDedCodec",
    "RegionTranslator",
]
