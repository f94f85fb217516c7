"""Soft-state flow management at a gateway, and the endpoint refresh agent.

The paper's closing bet: "a better building block than the datagram" might
be the *flow*, whose gateway-resident state is **soft** — created and
refreshed by the endpoints, expiring on its own, so that losing it is "not
a critical state" event: "the state ... can be lost in a crash without
permanent disruption of the service features being used."

Mechanics (experiment E10):

* an endpoint's :class:`ReservationSender` periodically emits a refresh
  datagram (IP protocol 46) addressed to the flow's destination;
* every :class:`FlowGateway` on the path observes it in transit (via the
  node's forwarding inspector hook), installs/refreshes the flow spec in
  its scheduler, and lets the datagram continue;
* each gateway sweeps expired specs — stop refreshing and the state
  evaporates;
* a crashing gateway loses everything, but the very next refresh
  re-installs it: brief degradation, no permanent disruption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ip.node import Node
from ..ip.packet import Datagram
from ..netlayer.link import Interface
from ..sim.process import PeriodicProcess
from ..sockets.api import Host
from .flowspec import PROTO_RSVP, FlowSpec
from .scheduler import DrrScheduler

__all__ = ["FlowGateway", "ReservationSender", "accept_reservations"]


class FlowGateway:
    """Attaches soft-state flow scheduling to one gateway interface.

    The scheduler handles the data plane; this class handles the control
    plane: refresh interception and expiry sweeping.
    """

    def __init__(self, node: Node, iface: Interface, service_rate_bps: float,
                 *, mode: str = "drr", sweep_interval: float = 1.0,
                 per_flow_limit: int = 32):
        self.node = node
        self.sim = node.sim
        self.scheduler = DrrScheduler(node.sim, iface, service_rate_bps,
                                      mode=mode, per_flow_limit=per_flow_limit)
        self._expiry: dict[tuple, float] = {}
        self.refreshes_seen = 0
        self.specs_expired = 0
        self.state_losses = 0
        self.packets_flushed_on_crash = 0
        node.forward_inspectors.append(self._inspect)
        node.on_crash.append(self._on_crash)
        node.on_restore.append(self._on_restore)
        node.flow_gateways.append(self)
        self._sweeper = PeriodicProcess(node.sim, sweep_interval, self._sweep,
                                        label="flows:sweep")
        self._sweeper.start()

    # ------------------------------------------------------------------
    def _inspect(self, datagram: Datagram) -> None:
        """Observe transit traffic; refresh messages install soft state."""
        if datagram.protocol != PROTO_RSVP:
            return
        spec = FlowSpec.unpack(datagram.payload)
        if spec is None:
            return
        self.refreshes_seen += 1
        self.scheduler.install_spec(spec)
        self._expiry[spec.key] = self.sim.now + spec.lifetime

    def _sweep(self) -> None:
        now = self.sim.now
        for key, deadline in list(self._expiry.items()):
            if now >= deadline:
                del self._expiry[key]
                self.scheduler.remove_spec(key)
                self.specs_expired += 1

    def _on_crash(self) -> None:
        """Soft state is volatile by design: a crash simply clears it.

        The data plane dies with the node too: every queued packet is
        flushed and the pending serve callback is invalidated — a crashed
        gateway must be *silent*, not drain its scheduler onto the wire.
        """
        self.state_losses += 1
        self.packets_flushed_on_crash += self.scheduler.flush()
        for key in list(self._expiry):
            self.scheduler.remove_spec(key)
        self._expiry.clear()
        self._sweeper.stop()

    def _on_restore(self) -> None:
        """The reborn gateway starts empty; refreshes will repopulate it."""
        self._sweeper.start()

    @property
    def installed_flows(self) -> int:
        return len(self._expiry)

    def counters(self) -> dict:
        """Scalar control+data-plane counters for the metrics registry and
        the management MIB (sim-deterministic)."""
        s = self.scheduler.stats
        return {
            "installed": len(self._expiry),
            "reserved": len(self.scheduler.installed_specs),
            "refreshes_seen": self.refreshes_seen,
            "specs_expired": self.specs_expired,
            "state_losses": self.state_losses,
            "packets_flushed_on_crash": self.packets_flushed_on_crash,
            "enqueued": s.enqueued,
            "dequeued": s.dequeued,
            "dropped": s.dropped,
            "flushed": s.flushed,
            "migrated": s.migrated,
            "bytes_sent": s.bytes_sent,
            "queued": self.scheduler.queued_packets,
        }


class ReservationSender:
    """Endpoint half of soft state: periodic refresh of one flow spec."""

    def __init__(self, host: Host, spec: FlowSpec, *,
                 refresh_interval: Optional[float] = None):
        self.host = host
        self.spec = spec
        # Refresh at a third of the lifetime so two losses are survivable.
        interval = refresh_interval if refresh_interval is not None else spec.lifetime / 3
        self.refreshes_sent = 0
        self._proc = PeriodicProcess(host.sim, interval, self._refresh,
                                     label="flows:refresh")
        self._proc.start(initial_delay=0.0)

    def _refresh(self) -> None:
        self.refreshes_sent += 1
        self.host.node.send(self.spec.dst, PROTO_RSVP, self.spec.pack())

    def stop(self) -> None:
        """Stop refreshing; downstream state will quietly expire."""
        self._proc.stop()


def accept_reservations(host: Host) -> None:
    """Register a sink for refresh datagrams reaching the destination
    (they have done their job on the way; the endpoint just discards
    them instead of answering with ICMP protocol-unreachable)."""
    host.node.register_protocol(PROTO_RSVP, lambda node, dgram, iface: None)
