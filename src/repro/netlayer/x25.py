"""X.25-like public data network used as an *attached network*.

The paper observes the internet had to run over networks that were, if
anything, too helpful: X.25 nets deliver reliably and in order by doing
hop-internal retransmission.  IP neither needs nor exploits this; the
interesting consequence (measured in E3/E5) is delay variance — when the
subnet retransmits internally, the datagram is delayed rather than lost,
which interacts with the end-to-end retransmission timer.

The model: a point-to-point "subnet pipe" that never loses packets, but with
probability ``internal_retx_prob`` charges one or more internal
retransmission delays.  Delivery order is preserved (arrivals are forced
monotonic), as the X.25 virtual circuit guarantees.
"""

from __future__ import annotations

import random
from typing import Optional

from ..ip.address import Address
from ..ip.packet import Datagram
from ..sim.engine import Simulator
from .link import Interface, PointToPointLink, _obs_of
from .loss import NoLoss

__all__ = ["X25Subnet"]


class X25Subnet(PointToPointLink):
    """A reliable, sequenced subnet between two attachment points."""

    FRAME_OVERHEAD = 11  # LAPB + X.25 layer-3 header

    def __init__(
        self,
        sim: Simulator,
        a: Interface,
        b: Interface,
        *,
        bandwidth_bps: float = 48_000.0,
        delay: float = 0.040,
        mtu: int = 576,              # the classic X.25 internet MTU
        queue_limit: int = 64,
        internal_retx_prob: float = 0.02,
        internal_retx_delay: float = 0.150,
        rng=None,
        name: str = "",
    ):
        self.internal_retx_prob = internal_retx_prob
        self.internal_retx_delay = internal_retx_delay
        super().__init__(
            sim,
            a,
            b,
            bandwidth_bps=bandwidth_bps,
            delay=delay,
            mtu=mtu,
            queue_limit=queue_limit,
            loss=NoLoss(),
            rng=rng,
            name=name or f"x25:{a.name}<->{b.name}",
        )
        # Last scheduled arrival per direction, to force in-order delivery.
        self._last_arrival = {a: 0.0, b: 0.0}

    def transmit(self, iface: Interface, datagram: Datagram,
                 next_hop: Optional[Address]) -> None:
        if not self._up:
            iface.stats.packets_dropped_down += 1
            obs = _obs_of(iface)
            if obs is not None and iface.node is not None:
                obs.drop(self.sim.now, iface.node.name, "drop-link-down",
                         datagram, self.name)
            return
        if self._queued[iface] >= self.queue_limit:
            iface.notify_queue_drop(datagram)
            return
        size = datagram.total_length + self.FRAME_OVERHEAD
        tx_time = size * 8.0 / self.bandwidth_bps
        start = max(self.sim.now, self._busy_until[iface])
        self._busy_until[iface] = start + tx_time
        self._queued[iface] += 1
        iface.stats.packets_sent += 1
        iface.stats.bytes_sent += datagram.total_length
        iface.stats.link_header_bytes += self.FRAME_OVERHEAD

        extra = 0.0
        # Geometric number of internal retransmissions: the subnet recovers
        # its own losses, converting loss into delay.
        while self.rng.random() < self.internal_retx_prob:
            extra += self.internal_retx_delay
        arrival = start + tx_time + self.delay + extra
        # Sequenced delivery: never overtake the previous packet.
        arrival = max(arrival, self._last_arrival[iface] + 1e-9)
        self._last_arrival[iface] = arrival
        obs = _obs_of(iface)
        if obs is not None and iface.node is not None:
            # Internal retransmission delay shows up as "propagation": the
            # subnet converted loss into extra in-flight time.
            obs.link_hop(self.sim.now, iface.node.name, datagram,
                         queue_wait=start - self.sim.now,
                         serialization=tx_time,
                         propagation=arrival - start - tx_time,
                         detail=self.name)
        remote = self.other_end(iface)
        epoch = self._epoch
        self.sim.post_at(
            arrival,
            lambda: self._arrive(iface, remote, datagram, epoch),
            label=f"x25:{self.name}",
        )
