"""The fault-campaign engine: scheduled chaos with live invariants.

A :class:`FaultCampaign` takes a built :class:`~repro.harness.topology.Internet`,
a list of :mod:`~repro.chaos.faults`, and an invariant-monitor suite, then
drives the whole thing on the simulation clock:

* each fault's ``apply``/``clear`` is scheduled as ordinary events;
* monitors are sampled periodically and notified around every fault;
* after each fault clears, a control-plane probe loop walks the gateways'
  routing tables until full reachability is restored — the moment of
  *reconvergence*, the recovery-time-under-failure metric;
* drop counters are snapshotted around each fault so the packets lost in
  its blackout window are attributed to it.

Everything is deterministic: same topology seed + same fault list (e.g.
from :class:`~repro.chaos.random_chaos.RandomChaos`) ⇒ byte-identical
:class:`~repro.chaos.report.CampaignReport`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..ip.address import Address
from ..ip.forwarding import NoRouteError
from ..ip.node import Node
from .faults import Fault
from .monitors import InvariantMonitor, default_monitors
from .report import CampaignReport

__all__ = ["FaultCampaign", "control_plane_path", "total_drops"]


def control_plane_path(owners: dict[int, Node], src: Node, dst: Address,
                       max_hops: int = 64) -> Optional[int]:
    """Walk routing tables from ``src`` toward ``dst`` without sending a
    packet; returns the hop count on success, None if unreachable (no
    route, down node/interface, or a control-plane loop longer than
    ``max_hops``)."""
    node = src
    for hops in range(max_hops + 1):
        if not node.up:
            return None
        if node.owns_address(dst):
            return hops
        try:
            route = node.routes.lookup(dst)
        except NoRouteError:
            return None
        if not route.interface.up:
            return None
        next_hop = route.next_hop if route.next_hop is not None else dst
        nxt = owners.get(int(next_hop))
        if nxt is None or nxt is node:
            return None
        node = nxt
    return None  # exceeded max_hops: a control-plane loop


def total_drops(net) -> int:
    """Fleet-wide count of packets that died anywhere in the stack —
    the blackout-window loss metric."""
    total = 0
    for node in net.nodes().values():
        s = node.stats
        total += (s.dropped_no_route + s.dropped_ttl + s.dropped_down
                  + s.dropped_df + s.dropped_bad_header)
        for iface in node.interfaces:
            ls = iface.stats
            total += (ls.packets_lost + ls.packets_dropped_queue
                      + ls.packets_dropped_down)
    return total


class FaultCampaign:
    """Schedule declarative faults against a running internet and measure
    recovery, under continuous invariant checking.

    Parameters
    ----------
    net:
        A built (and ideally converged) :class:`~repro.harness.topology.Internet`.
    faults:
        Fault events; more can be added with :meth:`add` before :meth:`run`.
    monitors:
        Invariant suite.  ``None`` selects :func:`~repro.chaos.monitors.default_monitors`;
        pass ``[]`` explicitly to measure monitor overhead (benchmarks).
    probe_interval:
        Cadence of the post-fault reachability probe loop.
    sample_interval:
        Cadence of periodic monitor sampling.
    targets:
        Addresses that define "full reachability" (every host must reach
        each of them).  Defaults to every host's primary address, falling
        back to gateway addresses on host-less topologies.
    """

    def __init__(
        self,
        net,
        faults: Iterable[Fault] = (),
        monitors: Optional[Sequence[InvariantMonitor]] = None,
        *,
        probe_interval: float = 0.25,
        sample_interval: float = 0.5,
        targets: Optional[list[Address]] = None,
        name: str = "campaign",
    ):
        self.net = net
        self.sim = net.sim
        self.name = name
        self.faults: list[Fault] = sorted(faults, key=lambda f: (f.at, f.duration))
        self.monitors: list[InvariantMonitor] = (
            default_monitors() if monitors is None else list(monitors))
        self.probe_interval = probe_interval
        self.sample_interval = sample_interval
        self._targets = targets
        self._active_faults = 0
        self._pending_reconverge: list[Fault] = []
        self._probe_scheduled = False
        self._finished = False
        self.probes = 0
        self.monitor_samples = 0
        self._events_at_start = 0

    # ------------------------------------------------------------------
    def add(self, fault: Fault) -> Fault:
        """Add one fault (before :meth:`run`)."""
        self.faults.append(fault)
        self.faults.sort(key=lambda f: (f.at, f.duration))
        return fault

    def watch_connection(self, conn, label: str = "") -> None:
        """Register a TCP connection with the survival monitor (if any)."""
        for monitor in self.monitors:
            if hasattr(monitor, "watch"):
                monitor.watch(conn, label)

    # ------------------------------------------------------------------
    # Reachability probing (control plane — no packets injected)
    # ------------------------------------------------------------------
    def probe_targets(self) -> list[tuple[Node, Address]]:
        """(source node, destination address) pairs that must all connect
        for the network to count as reconverged."""
        if self._targets is not None:
            sources = [h.node for h in self.net.hosts.values()] or \
                      [g.node for g in self.net.gateways.values()]
            return [(s, t) for s in sources for t in self._targets
                    if not s.owns_address(t)]
        hosts = [h.node for h in self.net.hosts.values()]
        if len(hosts) >= 2:
            return [(a, b.address) for a in hosts for b in hosts if a is not b]
        gws = [g.node for g in self.net.gateways.values()]
        return [(a, b.address) for a in gws for b in gws if a is not b]

    def fully_reachable(self) -> bool:
        """Control-plane check: every probe pair currently connects."""
        owners = self.net.address_owners()
        for src, dst in self.probe_targets():
            if control_plane_path(owners, src, dst) is None:
                return False
        return True

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _apply(self, fault: Fault) -> None:
        fault.applied_at = self.sim.now
        fault._drops_at_apply = total_drops(self.net)
        # A fault landing while others are recovering muddies *their*
        # reconvergence attribution.
        for pending in self._pending_reconverge:
            pending.overlapped = True
        self._active_faults += 1
        fault.apply(self.net)
        self.net.tracer.log(self.sim.now, "chaos", "", "fault-apply",
                            fault.describe())
        for monitor in self.monitors:
            monitor.on_fault_applied(fault)

    def _clear(self, fault: Fault) -> None:
        fault.clear(self.net)
        fault.cleared_at = self.sim.now
        fault.packets_lost_blackout = (
            total_drops(self.net) - fault._drops_at_apply)
        self._active_faults = max(0, self._active_faults - 1)
        if self._active_faults > 0:
            fault.overlapped = True
        self.net.tracer.log(self.sim.now, "chaos", "", "fault-clear",
                            fault.describe())
        for monitor in self.monitors:
            monitor.on_fault_cleared(fault)
        self._pending_reconverge.append(fault)
        self._ensure_probing()

    def _ensure_probing(self) -> None:
        if not self._probe_scheduled:
            self._probe_scheduled = True
            self.sim.schedule(0.0, self._probe_tick, label="chaos:probe")

    def _probe_tick(self) -> None:
        self._probe_scheduled = False
        if self._finished or not self._pending_reconverge:
            return
        self.probes += 1
        if self.fully_reachable():
            now = self.sim.now
            for fault in self._pending_reconverge:
                fault.reconverged_at = now
                self.net.tracer.log(now, "chaos", "", "reconverged",
                                    fault.describe())
                for monitor in self.monitors:
                    monitor.on_reconverged(fault)
            self._pending_reconverge.clear()
            return
        self._probe_scheduled = True
        self.sim.schedule(self.probe_interval, self._probe_tick,
                          label="chaos:probe")

    def _sample_tick(self, until: float) -> None:
        if self._finished:
            return
        self.monitor_samples += 1
        for monitor in self.monitors:
            monitor.sample()
        if self.sim.now + self.sample_interval <= until:
            self.sim.schedule(self.sample_interval,
                              lambda: self._sample_tick(until),
                              label="chaos:sample")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> CampaignReport:
        """Schedule every fault, run the clock, and return the report.

        ``until`` defaults to comfortably after the last fault clears
        (its scheduled end plus 30 s of recovery headroom).
        """
        if self._finished:
            raise RuntimeError("a FaultCampaign can only run once")
        if until is None:
            last = max((f.clear_time for f in self.faults), default=self.sim.now)
            until = last + 30.0
        self._events_at_start = self.sim.events_processed
        for monitor in self.monitors:
            monitor.attach(self.net, self)
        now = self.sim.now
        for fault in self.faults:
            self.sim.call_at(max(now, fault.at), lambda f=fault: self._apply(f),
                             label="chaos:apply")
            self.sim.call_at(max(now, fault.clear_time),
                             lambda f=fault: self._clear(f),
                             label="chaos:clear")
        if self.monitors and self.sample_interval > 0:
            self.sim.schedule(self.sample_interval,
                              lambda: self._sample_tick(until),
                              label="chaos:sample")
        self.sim.run(until=until)
        self._finished = True
        for monitor in self.monitors:
            monitor.finish()
        for monitor in self.monitors:
            monitor.detach()
        counters = {
            "sim_time_end": self.sim.now,
            "events_processed": self.sim.events_processed - self._events_at_start,
            "probes": self.probes,
            "monitor_samples": self.monitor_samples,
            "monitor_count": len(self.monitors),
            "probe_pairs": len(self.probe_targets()),
        }
        obs = getattr(self.net, "obs", None)
        if obs is not None:
            # Sim-deterministic only (no wall times): same seed, same bytes.
            counters["obs"] = obs.snapshot()
        return CampaignReport(self.name, self.faults, self.monitors, counters)
