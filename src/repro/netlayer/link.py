"""Interfaces and point-to-point links.

This is the lowest concrete layer: an :class:`Interface` belongs to a node
and attaches to a medium; a :class:`PointToPointLink` is the simplest medium.
Richer media (LAN bus, satellite broadcast, packet radio, X.25 subnet) build
on the same contract:

* the node hands the interface a datagram plus the next-hop address
  (:meth:`Interface.output`);
* the medium charges serialization time against the interface's transmit
  queue, applies propagation delay / jitter / loss, and delivers to the
  remote interface;
* the remote interface hands the datagram up to its node
  (``node.datagram_arrived(datagram, iface)``).

Failure injection (experiment E1) flips :attr:`Link.up`; packets queued or
in flight on a down link are lost — exactly the event the architecture's
fate-sharing is designed to survive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Protocol

from ..ip.address import Address, Prefix
from ..ip.packet import Datagram, TOS_CE, TOS_ECT
from ..sim.engine import Simulator
from .loss import LossModel, NoLoss

if TYPE_CHECKING:  # pragma: no cover
    from ..ip.node import Node

__all__ = ["Interface", "Medium", "PointToPointLink", "LinkStats"]


def _obs_of(iface: "Interface"):
    """Resolve the enabled Observability layer for an interface's node.

    Returns None when no layer is installed *or* it is disabled, so media
    hot paths pay two attribute loads and at most one boolean check.
    """
    node = iface.node
    if node is None:
        return None
    obs = node.obs
    if obs is not None and not obs.enabled:
        return None
    return obs


@dataclass
class LinkStats:
    """Per-direction transmission counters (feeds goal-5 cost accounting)."""

    packets_sent: int = 0
    bytes_sent: int = 0
    packets_delivered: int = 0
    packets_lost: int = 0
    packets_dropped_queue: int = 0
    packets_dropped_down: int = 0
    link_header_bytes: int = 0


class Medium(Protocol):
    """What an interface needs from whatever it is attached to."""

    mtu: int

    def transmit(self, iface: "Interface", datagram: Datagram,
                 next_hop: Optional[Address]) -> None: ...

    def is_up(self) -> bool: ...


class Interface:
    """A node's attachment point to one network.

    Carries the node's address *on that network* and the network prefix —
    the paper's "addresses reflect connectivity".
    """

    def __init__(self, name: str, address: Address, prefix: Prefix):
        if not prefix.contains(address):
            raise ValueError(f"{address} not inside {prefix}")
        self.name = name
        self.address = address
        self.prefix = prefix
        #: The integer value of the prefix's directed-broadcast address,
        #: computed once: the node's per-arrival "is this for me?" check
        #: compares integer address values.
        self.broadcast_value = int(prefix.broadcast)
        self.node: Optional["Node"] = None
        self.medium: Optional[Medium] = None
        self.stats = LinkStats()
        #: Optional packet scheduler (the flows/soft-state extension).  When
        #: set, outbound datagrams pass through it instead of going straight
        #: to the medium; the scheduler calls :meth:`transmit_now` to
        #: release them.
        self.scheduler = None
        #: Called with the dropped datagram when the medium's transmit
        #: queue overflows — the hook the 1988 Source Quench congestion
        #: signal hangs off (see repro.ip.quench).
        self.on_queue_drop: Optional[Callable[[Datagram], None]] = None

    def notify_queue_drop(self, datagram: Datagram) -> None:
        """Media call this when they tail-drop a packet from this side."""
        self.stats.packets_dropped_queue += 1
        obs = _obs_of(self)
        if obs is not None and self.node is not None:
            obs.drop(self.node.sim.now, self.node.name, "drop-queue-full",
                     datagram, self.name)
        if self.on_queue_drop is not None:
            self.on_queue_drop(datagram)

    @property
    def mtu(self) -> int:
        """MTU of the attached medium (the per-network packet size limit
        that forces fragmentation, paper §6)."""
        if self.medium is None:
            raise RuntimeError(f"interface {self.name} not attached")
        return self.medium.mtu

    @property
    def up(self) -> bool:
        return self.medium is not None and self.medium.is_up()

    def output(self, datagram: Datagram, next_hop: Optional[Address] = None) -> None:
        """Send a datagram toward ``next_hop`` (None = on-link destination)."""
        if self.medium is None:
            raise RuntimeError(f"interface {self.name} not attached")
        if self.scheduler is not None:
            self.scheduler.enqueue(datagram, next_hop)
            return
        self.medium.transmit(self, datagram, next_hop)

    def transmit_now(self, datagram: Datagram, next_hop: Optional[Address] = None) -> None:
        """Bypass the scheduler and hand a datagram straight to the medium
        (called by the scheduler itself when it releases a packet)."""
        if self.medium is None:
            raise RuntimeError(f"interface {self.name} not attached")
        self.medium.transmit(self, datagram, next_hop)

    def deliver(self, datagram: Datagram) -> None:
        """Called by the medium when a datagram arrives for this interface."""
        self.stats.packets_delivered += 1
        if self.node is not None:
            self.node.datagram_arrived(datagram, self)

    def __repr__(self) -> str:
        return f"<Interface {self.name} {self.address} on {self.prefix}>"


class PointToPointLink:
    """A serial line between exactly two interfaces.

    Models bandwidth (store-and-forward serialization), fixed propagation
    delay with optional jitter, a finite drop-tail output queue per
    direction, a loss model, and administrative up/down for failure
    injection.  This is the workhorse "ARPANET trunk" substitute.
    """

    #: Link-layer framing overhead charged per packet (HDLC-ish).
    FRAME_OVERHEAD = 8

    def __init__(
        self,
        sim: Simulator,
        a: Interface,
        b: Interface,
        *,
        bandwidth_bps: float = 56_000.0,   # the classic ARPANET trunk rate
        delay: float = 0.005,
        mtu: int = 1006,                   # ARPANET-era maximum
        queue_limit: int = 64,
        loss: Optional[LossModel] = None,
        jitter_fn: Optional[Callable[[], float]] = None,
        rng=None,
        name: str = "",
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if mtu < 68:
            # RFC 791 minimum: every net must carry 68 bytes unfragmented.
            raise ValueError(f"mtu {mtu} below the architectural minimum of 68")
        self.sim = sim
        self.ends = (a, b)
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.mtu = mtu
        self.queue_limit = queue_limit
        self.loss = loss or NoLoss()
        self.jitter_fn = jitter_fn
        # A deterministic default stream; experiments pass their own stream
        # from RandomStreams so runs are reproducible and paired.
        self.rng = rng if rng is not None else random.Random(0)
        self.name = name or f"{a.name}<->{b.name}"
        self._up = True
        # Per-direction transmitter state: time the transmitter frees up.
        self._busy_until = {a: 0.0, b: 0.0}
        self._queued = {a: 0, b: 0}
        #: Bumped on every administrative *down*.  Packets in flight carry
        #: the epoch they were transmitted under; a stale epoch at arrival
        #: time means the link went down while they were on the wire, so
        #: they were flushed and must not be resurrected even if the link
        #: is back up by their scheduled arrival.
        self._epoch = 0
        #: Optional per-direction RED early-drop/ECN-mark state, keyed by
        #: sending interface (see :meth:`enable_red`).  None = drop-tail.
        self._red: dict[Interface, object] = {}
        #: Event label of every arrival on this link, built once.
        self._label = f"link:{self.name}"
        a.medium = self
        b.medium = self

    # ------------------------------------------------------------------
    def is_up(self) -> bool:
        return self._up

    def set_up(self, up: bool) -> None:
        """Administratively raise/lower the link.  Lowering it flushes both
        transmit queues and everything in flight (those packets are gone —
        datagrams are not a guaranteed service); the epoch bump makes sure
        a down→up flap cannot resurrect them."""
        if not up and self._up:
            self._epoch += 1
            for iface in self.ends:
                self._busy_until[iface] = self.sim.now
                # Flushed packets are accounted, not silently vanished:
                # they died because the link was administratively down.
                iface.stats.packets_dropped_down += self._queued[iface]
                self._queued[iface] = 0
        self._up = up

    def enable_red(self, iface: Interface, red) -> None:
        """Put a :class:`~repro.netlayer.red.RedState` in front of one
        direction's transmit queue.  Arrivals consult RED *before* the
        drop-tail check: an early drop fires the same
        ``notify_queue_drop`` hook as a tail drop (so Source Quench and
        drop accounting see it), while an ECT arrival is CE-marked and
        admitted instead."""
        if iface not in self.ends:
            raise ValueError(f"{iface} is not attached to {self.name}")
        self._red[iface] = red

    def other_end(self, iface: Interface) -> Interface:
        a, b = self.ends
        if iface is a:
            return b
        if iface is b:
            return a
        raise ValueError(f"{iface} is not attached to {self.name}")

    # ------------------------------------------------------------------
    def transmit(self, iface: Interface, datagram: Datagram,
                 next_hop: Optional[Address]) -> None:
        """Queue a datagram for serialization toward the other end."""
        if not self._up:
            iface.stats.packets_dropped_down += 1
            obs = _obs_of(iface)
            if obs is not None and iface.node is not None:
                obs.drop(self.sim.now, iface.node.name, "drop-link-down",
                         datagram, self.name)
            return
        if self._red:
            red = self._red.get(iface)
            if red is not None:
                verdict = red.on_enqueue(self._queued[iface], self.sim.now,
                                         ect=bool(datagram.tos & TOS_ECT))
                if verdict == "drop":
                    iface.notify_queue_drop(datagram)
                    return
                if verdict == "mark":
                    datagram.tos |= TOS_CE
        queued = self._queued
        if queued[iface] >= self.queue_limit:
            iface.notify_queue_drop(datagram)
            return
        a, b = self.ends
        if iface is a:
            remote = b
        elif iface is b:
            remote = a
        else:
            raise ValueError(f"{iface} is not attached to {self.name}")
        length = datagram.total_length
        now = self.sim.now
        tx_time = (length + self.FRAME_OVERHEAD) * 8.0 / self.bandwidth_bps
        busy = self._busy_until[iface]
        start = now if now > busy else busy
        self._busy_until[iface] = start + tx_time
        queued[iface] += 1
        stats = iface.stats
        stats.packets_sent += 1
        stats.bytes_sent += length
        stats.link_header_bytes += self.FRAME_OVERHEAD

        arrival = start + tx_time + self.delay
        if self.jitter_fn is not None:
            jitter = self.jitter_fn()
            if jitter > 0.0:
                arrival += jitter
        node = iface.node
        if node is not None:
            obs = node.obs
            if obs is not None and obs.enabled:
                # Dwell breakdown: time waiting behind earlier frames, time
                # on the serializer, time in flight (propagation + jitter).
                obs.link_hop(now, node.name, datagram,
                             queue_wait=start - now,
                             serialization=tx_time,
                             propagation=arrival - start - tx_time,
                             detail=self.name)
        # Fire-and-forget: packet arrivals are never cancelled, so they
        # need no handle and no Event record.
        self.sim.post_at(
            arrival,
            partial(self._arrive, iface, remote, datagram, self._epoch),
            label=self._label,
        )

    def _arrive(self, sender: Interface, remote: Interface,
                datagram: Datagram, epoch: Optional[int] = None) -> None:
        if epoch is not None and epoch != self._epoch:
            # The link went down (and possibly came back) after this packet
            # was transmitted: it was flushed, and already counted in
            # packets_dropped_down when the flap flushed the queue.
            return
        queued = self._queued
        if queued[sender] > 0:
            queued[sender] -= 1
        if not self._up:
            sender.stats.packets_lost += 1
            obs = _obs_of(sender)
            if obs is not None and sender.node is not None:
                obs.drop(self.sim.now, sender.node.name, "drop-link-down",
                         datagram, f"{self.name} (in flight)")
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
        # Interface.deliver, inlined: this is every hop's arrival.
        remote.stats.packets_delivered += 1
        node = remote.node
        if node is not None:
            node.datagram_arrived(datagram, remote)

    def __repr__(self) -> str:
        return (
            f"<PointToPointLink {self.name} {self.bandwidth_bps/1000:.0f}kb/s "
            f"{self.delay*1000:.1f}ms mtu={self.mtu} up={self._up}>"
        )
