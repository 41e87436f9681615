"""Request kinds that tag every channel transfer."""

from __future__ import annotations

import enum


class RequestKind(enum.Enum):
    """Why a transfer is on the channel.

    The paper's whole point is the distinction between *demand* traffic
    (GPU loads/stores) and *migration* traffic (DRAM↔XPoint copies), so
    every channel occupancy is tagged with one of these.
    """

    DEMAND = "demand"
    MIGRATION = "migration"
    HOST_DMA = "host_dma"
