"""Ethernet-like local area network: a multi-access broadcast bus.

Goal 3's "variety of networks" explicitly includes LANs.  The bus model
serializes each transmission at the shared bandwidth, supports broadcast, and
delivers to the attached interface holding the next-hop address — address
resolution is by direct lookup, standing in for ARP (see
:mod:`repro.ip.arp` for the explicit-protocol variant used by the tests).
"""

from __future__ import annotations

import random
from functools import partial
from typing import Optional

from ..ip.address import Address, Prefix
from ..ip.packet import Datagram
from ..sim.engine import Simulator
from .link import Interface, _obs_of
from .loss import LossModel, NoLoss

__all__ = ["LanBus"]


class LanBus:
    """A shared-medium LAN segment with any number of attached interfaces.

    Ethernet-era parameters by default: 10 Mb/s, 1500-byte MTU, microsecond
    propagation.  Each transmission occupies the single shared channel
    (half-duplex bus), so concurrent senders queue behind one another.
    """

    FRAME_OVERHEAD = 18  # Ethernet II header + FCS

    def __init__(
        self,
        sim: Simulator,
        prefix: Prefix,
        *,
        bandwidth_bps: float = 10_000_000.0,
        delay: float = 50e-6,
        mtu: int = 1500,
        queue_limit: int = 128,
        loss: Optional[LossModel] = None,
        rng=None,
        name: str = "lan",
    ):
        self.sim = sim
        self.prefix = prefix
        # Computed once: _arrive consults it for every frame on the segment.
        self._broadcast_value = int(prefix.broadcast)
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.mtu = mtu
        self.queue_limit = queue_limit
        self.loss = loss or NoLoss()
        self.rng = rng if rng is not None else random.Random(0)
        self.name = name
        #: Event label of every frame on this segment, built once.
        self._label = f"lan:{name}"
        self._up = True
        self._interfaces: dict[int, Interface] = {}
        self._channel_busy_until = 0.0
        self._queued = 0
        #: Bumped on every administrative down; in-flight frames carry the
        #: epoch they were sent under so a down→up flap cannot resurrect
        #: frames that were flushed (same contract as PointToPointLink).
        self._epoch = 0

    # ------------------------------------------------------------------
    def attach(self, iface: Interface) -> None:
        """Attach an interface; its address must lie inside the LAN prefix."""
        if not self.prefix.contains(iface.address):
            raise ValueError(f"{iface.address} not in LAN prefix {self.prefix}")
        key = int(iface.address)
        if key in self._interfaces:
            raise ValueError(f"duplicate LAN address {iface.address}")
        self._interfaces[key] = iface
        iface.medium = self

    def detach(self, iface: Interface) -> None:
        self._interfaces.pop(int(iface.address), None)
        iface.medium = None

    def is_up(self) -> bool:
        return self._up

    def set_up(self, up: bool) -> None:
        if not up and self._up:
            self._epoch += 1
            self._channel_busy_until = self.sim.now
            self._queued = 0
        self._up = up

    def resolve(self, address: Address) -> Optional[Interface]:
        """On-link address resolution (the ARP stand-in)."""
        return self._interfaces.get(int(address))

    # ------------------------------------------------------------------
    def transmit(self, iface: Interface, datagram: Datagram,
                 next_hop: Optional[Address]) -> None:
        if not self._up:
            iface.stats.packets_dropped_down += 1
            return
        if self._queued >= self.queue_limit:
            iface.notify_queue_drop(datagram)
            return
        target = next_hop if next_hop is not None else datagram.dst
        length = datagram.total_length
        now = self.sim.now
        tx_time = (length + self.FRAME_OVERHEAD) * 8.0 / self.bandwidth_bps
        busy = self._channel_busy_until
        start = now if now > busy else busy
        self._channel_busy_until = start + tx_time
        self._queued += 1
        stats = iface.stats
        stats.packets_sent += 1
        stats.bytes_sent += length
        stats.link_header_bytes += self.FRAME_OVERHEAD
        arrival = start + tx_time + self.delay
        node = iface.node
        if node is not None:
            obs = node.obs
            if obs is not None and obs.enabled:
                obs.link_hop(now, node.name, datagram,
                             queue_wait=start - now,
                             serialization=tx_time,
                             propagation=self.delay,
                             detail=self.name)
        self.sim.post_at(
            arrival,
            partial(self._arrive, iface, target, datagram, self._epoch),
            label=self._label,
        )

    def _arrive(self, sender: Interface, target: Address,
                datagram: Datagram, epoch: Optional[int] = None) -> None:
        if epoch is not None and epoch != self._epoch:
            # Flushed by an administrative down while in flight; account
            # the loss to the sender rather than silently vanishing it.
            sender.stats.packets_dropped_down += 1
            return
        if self._queued > 0:
            self._queued -= 1
        if not self._up:
            sender.stats.packets_lost += 1
            return
        loss = self.loss
        if type(loss) is not NoLoss and loss.lose(self.rng,
                                                   datagram.total_length):
            sender.stats.packets_lost += 1
            obs = _obs_of(sender)
            if obs is not None and sender.node is not None:
                obs.drop(self.sim.now, sender.node.name, "drop-link-loss",
                         datagram, self.name)
            return
        value = target._value
        if value == 0xFFFFFFFF or value == self._broadcast_value:
            for iface in list(self._interfaces.values()):
                if iface is not sender:
                    iface.deliver(datagram)
            return
        receiver = self._interfaces.get(value)
        if receiver is None or receiver is sender:
            # Nobody holds that address — silently discarded, as on a real
            # LAN where ARP would have failed.
            sender.stats.packets_lost += 1
            return
        # Interface.deliver, inlined: this is every unicast frame's arrival.
        receiver.stats.packets_delivered += 1
        node = receiver.node
        if node is not None:
            node.datagram_arrived(datagram, receiver)

    def __repr__(self) -> str:
        return (
            f"<LanBus {self.name} {self.prefix} {self.bandwidth_bps/1e6:.0f}Mb/s "
            f"hosts={len(self._interfaces)}>"
        )
