"""The collapse ecology: a 512-node internet populated by archetypes.

Reuses the scale harness's multi-AS ring (:mod:`repro.harness.scaletopo`)
verbatim for topology and routing, replacing its synthetic CBR traffic
with the host *populations* of :mod:`.archetypes`: each AS is assigned a
TCP archetype, its spoke LANs source greedy bulk transfers two ASes east,
and one spoke per AS carries an open-loop UDP voice call.  Every flow
therefore crosses two inter-AS bottleneck links, and every bottleneck
carries the mix of exactly two ASes' populations — so one misbehaving AS
is enough to hurt a conforming neighbour, which is the experiment.

The inter-AS links are provisioned as the scarce resource: narrower than
the interior (512 kb/s against T1 spokes) with a deep 1986-style FIFO
(enough buffering that queueing delay crosses the broken archetype's
fixed RTO — RFC 896's precondition).  Gateway defenses are attached per
``defense`` cell:

* ``fifo``    — drop-tail, the 1988 baseline;
* ``red``     — RED early drop / ECN marking on the link queue;
* ``red_drr`` — per-flow DRR fairness (:mod:`repro.flows.scheduler`)
  with per-flow RED, the full modern bottleneck.

:class:`EcologyNet` adapts the sharded build to the duck-type the chaos
campaign engine, the netmgmt plane, and the invariant monitors expect
(``nodes()``, ``hosts``, ``gateways``, ``links``, ``address_owners()``…),
and owns the campaign-facing verbs: ``start_traffic`` at build time,
``start_misbehaving``/``stop_misbehaving`` for the fault window, and
``finalize_accounting`` before anyone reads a ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..accounting import FlowAccountant, HarmAccountant
from ..apps.voice import UdpVoiceCall, UdpVoiceReceiver
from ..flows.scheduler import DrrScheduler
from ..harness.scaletopo import MultiAsBuilder, ScaleConfig
from ..ip.quench import SourceQuencher
from ..netlayer.red import RedParams, RedState
from ..sim.rand import RandomStreams
from .archetypes import (AGGRESSIVE, BROKEN, CONFORMING, GreedySender,
                         TcpByteSink, archetype_config, sink_config)

__all__ = ["EcologyConfig", "EcologyNet", "build_ecology", "DEFENSES"]

DEFENSES = ("fifo", "red", "red_drr")


@dataclass(frozen=True)
class EcologyConfig:
    """One collapse-ecology scenario (frozen: shared across legs)."""

    n_as: int = 8
    gateways_per_as: int = 8
    hosts_per_lan: int = 7
    seed: int = 0
    #: Bottleneck discipline: one of :data:`DEFENSES`.
    defense: str = "fifo"
    #: AS indices running each misbehaving archetype (disjoint; the rest
    #: conform).  Empty tuples give the all-conforming control.
    broken_ases: tuple = ()
    aggressive_ases: tuple = ()
    #: Greedy TCP flows per AS, sourced from spoke LANs 1..flows_per_as.
    flows_per_as: int = 6
    #: One open-loop voice call per AS from spoke ``flows_per_as + 1``.
    voice: bool = True
    #: Destination AS offset (eastward) — 2 keeps every flow on exactly
    #: two inter-AS hops, so each bottleneck mixes two ASes' traffic.
    cross_reach: int = 2
    #: The scarce resource: inter-AS bandwidth and its 1986-deep FIFO.
    #: 170 packets of ~536-byte segments at 512 kb/s is ~1.4 s of
    #: queueing — past the broken archetype's 1.0 s fixed RTO.
    bottleneck_bandwidth: float = 512_000.0
    bottleneck_queue: int = 170
    traffic_start: float = 12.0
    voice_duration: float = 120.0
    tcp_port: int = 21
    voice_port: int = 5004
    #: Source Quench from the bottleneck gateways (all defense cells:
    #: it was deployed reality, and conforming stacks honor it).
    quench: bool = True
    #: RED tuned for the link queue (aggregate) in the ``red`` cell.
    red_link: RedParams = field(
        default_factory=lambda: RedParams(min_th=20.0, max_th=60.0,
                                          max_p=0.1, weight=0.05))
    #: RED tuned per flow in the ``red_drr`` cell (small thresholds:
    #: each flow's own standing queue should be short).
    red_flow: RedParams = field(default_factory=RedParams)
    drr_per_flow_limit: int = 32

    def __post_init__(self):
        if self.defense not in DEFENSES:
            raise ValueError(f"unknown defense {self.defense!r}")
        if self.hosts_per_lan < 2:
            raise ValueError("need >= 2 hosts per LAN (sink + sender)")
        spokes_needed = self.flows_per_as + (1 if self.voice else 0)
        if spokes_needed > self.gateways_per_as - 1:
            raise ValueError("not enough spoke LANs for the flow plan")
        if not 1 <= self.cross_reach < self.n_as:
            raise ValueError("cross_reach must be in [1, n_as)")
        overlap = set(self.broken_ases) & set(self.aggressive_ases)
        if overlap:
            raise ValueError(f"ASes in two archetypes: {sorted(overlap)}")
        for i in (*self.broken_ases, *self.aggressive_ases):
            if not 0 <= i < self.n_as:
                raise ValueError(f"AS index {i} out of range")

    @property
    def misbehaving_ases(self) -> tuple:
        return tuple(sorted((*self.broken_ases, *self.aggressive_ases)))

    def archetype_of(self, as_index: int) -> str:
        if as_index in self.broken_ases:
            return BROKEN
        if as_index in self.aggressive_ases:
            return AGGRESSIVE
        return CONFORMING

    @property
    def ecn(self) -> bool:
        """Marking only exists where something can set CE."""
        return self.defense in ("red", "red_drr")

    def scale_config(self) -> ScaleConfig:
        return ScaleConfig(
            n_as=self.n_as, gateways_per_as=self.gateways_per_as,
            hosts_per_lan=self.hosts_per_lan, seed=self.seed,
            inter_bandwidth=self.bottleneck_bandwidth,
            traffic_start=self.traffic_start)


class _EcologyBuilder(MultiAsBuilder):
    """The scale builder minus its CBR traffic: populations come from
    the ecology, not the harness."""

    def _start_traffic(self, shard_net, block) -> None:
        return


class EcologyNet:
    """Campaign-facing adapter over the single-shard multi-AS build.

    Presents the merged internet with the surface
    :class:`~repro.chaos.campaign.FaultCampaign`,
    :class:`~repro.netmgmt.campaign.ManagementPlane` and the invariant
    monitors all expect from :class:`~repro.harness.topology.Internet`,
    while keeping the per-AS Internets reachable for addressing.
    """

    #: Always None: the benchmark under ``perfbench/`` still reads this
    #: name.  It goes when a benchmark change drops the ``ip.pool`` layer.
    packet_pool = None

    def __init__(self, config: EcologyConfig):
        self.config = config
        self.scale = config.scale_config()
        build = _EcologyBuilder(self.scale)(0, 1)
        shard_net = build.net
        self.sim = shard_net.sim
        self.internets = shard_net.internets
        #: Campaign RNG domain, disjoint from the per-AS Internets'
        #: (they use seed*1000 + as_index; 997 >= n_as is reserved).
        self.streams = RandomStreams(config.seed * 1000 + 997)
        self.tracer = self.internets[0].tracer
        self.obs = None

        # -- merged views ------------------------------------------------
        self.hosts: dict = {}
        self.gateways: dict = {}
        self.lans: dict = {}
        self.links: list = []
        for i, net in sorted(self.internets.items()):
            self.hosts.update(net.hosts)
            self.gateways.update(net.gateways)
            for name, bus in net.lans.items():
                self.lans[f"as{i}.{name}"] = bus
            self.links.extend(net.links)

        # -- the bottlenecks: every eastward inter-AS link ---------------
        #: as_index -> (east interface of AS i's hub, the link itself).
        self.bottlenecks: dict[int, tuple] = {}
        for i, net in sorted(self.internets.items()):
            hub = net.gateways[f"A{i}G0"].node
            iface = hub.interface_by_name(f"{hub.name}.east")
            link = iface.medium
            link.queue_limit = config.bottleneck_queue
            self.bottlenecks[i] = (iface, link)
            self.links.append(link)

        # -- populations and instruments ---------------------------------
        self.sinks: dict[tuple, TcpByteSink] = {}
        self.senders: dict[tuple, GreedySender] = {}
        self.voice_receivers: dict[int, UdpVoiceReceiver] = {}
        self.voice_calls: dict[int, UdpVoiceCall] = {}
        self.schedulers: dict[int, DrrScheduler] = {}
        self.red_states: dict[int, RedState] = {}
        self.quenchers: dict[int, SourceQuencher] = {}
        self.harm: dict[int, HarmAccountant] = {}
        self.flow_accountants: dict[int, FlowAccountant] = {}
        self.misbehaving_started = 0
        self.misbehaving_stopped = 0

        self._attach_defenses()
        self._attach_accounting()
        self._wire_traffic()

    # -- Internet duck-type -------------------------------------------
    def nodes(self) -> dict:
        out = {n: h.node for n, h in self.hosts.items()}
        out.update({n: g.node for n, g in self.gateways.items()})
        return out

    def node_by_name(self, name: str):
        if name in self.hosts:
            return self.hosts[name].node
        if name in self.gateways:
            return self.gateways[name].node
        raise KeyError(f"no node named {name!r}")

    def address_owners(self) -> dict:
        owners: dict = {}
        for i in sorted(self.internets):
            owners.update(self.internets[i].address_owners())
        return owners

    def link_endpoints(self, link) -> tuple:
        a, b = link.ends
        return a.node.name, b.node.name

    # -- build helpers -------------------------------------------------
    def _attach_defenses(self) -> None:
        cfg = self.config
        for i, (iface, link) in sorted(self.bottlenecks.items()):
            if cfg.defense == "red":
                red = RedState(cfg.red_link,
                               self.streams.stream(f"red.as{i}"))
                link.enable_red(iface, red)
                self.red_states[i] = red
            elif cfg.defense == "red_drr":
                sched = DrrScheduler(self.sim, iface, link.bandwidth_bps,
                                     mode="drr",
                                     per_flow_limit=cfg.drr_per_flow_limit)
                rng = self.streams.stream(f"red.as{i}")
                sched.enable_red(
                    lambda key, rng=rng, p=cfg.red_flow: RedState(p, rng))
                self.schedulers[i] = sched
            if cfg.quench:
                hub = self.internets[i].gateways[f"A{i}G0"].node
                self.quenchers[i] = SourceQuencher(
                    hub, min_interval=0.25, interfaces=[iface])

    def _attach_accounting(self) -> None:
        cfg = self.config
        for i in sorted(self.internets):
            hub = self.internets[i].gateways[f"A{i}G0"].node
            self.harm[i] = HarmAccountant(
                hub, self.scale.as_prefix(i), granularity=16)
            self.flow_accountants[i] = FlowAccountant(
                hub, granularity=16, idle_timeout=10.0)

    # -- traffic -------------------------------------------------------
    def _dst_as(self, as_index: int) -> int:
        return (as_index + self.config.cross_reach) % self.config.n_as

    def _host(self, as_index: int, lan: int, h: int):
        return self.internets[as_index].hosts[f"A{as_index}G{lan}H{h}"]

    def _wire_traffic(self) -> None:
        cfg = self.config
        ecn = cfg.ecn
        # Listeners first: every AS hosts the sinks its western peers
        # will target, regardless of either side's archetype.
        for i in range(cfg.n_as):
            for g in range(1, cfg.flows_per_as + 1):
                self.sinks[(i, g)] = TcpByteSink(
                    self._host(i, g, 0), cfg.tcp_port,
                    tcp_config=sink_config(ecn=ecn))
            if cfg.voice:
                self.voice_receivers[i] = UdpVoiceReceiver(
                    self._host(i, cfg.flows_per_as + 1, 0), cfg.voice_port)
        # Conforming senders and the open-loop voice start together once
        # routing has converged; misbehaving populations are driven by
        # the fault window (start_misbehaving / stop_misbehaving).
        self.sim.call_at(cfg.traffic_start, self._start_conforming,
                         label="ecology:traffic")

    def _start_sender(self, as_index: int, g: int) -> None:
        cfg = self.config
        archetype = cfg.archetype_of(as_index)
        dst_as = self._dst_as(as_index)
        self.senders[(as_index, g)] = GreedySender(
            self._host(as_index, g, 1),
            self._host(dst_as, g, 0).node.address, cfg.tcp_port,
            tcp_config=archetype_config(
                archetype, ecn=cfg.ecn and archetype == CONFORMING))

    def _start_conforming(self) -> None:
        cfg = self.config
        for i in range(cfg.n_as):
            if cfg.archetype_of(i) == CONFORMING:
                for g in range(1, cfg.flows_per_as + 1):
                    self._start_sender(i, g)
            if cfg.voice:
                dst_as = self._dst_as(i)
                self.voice_calls[i] = UdpVoiceCall(
                    self._host(i, cfg.flows_per_as + 1, 1),
                    self._host(dst_as, cfg.flows_per_as + 1, 0).node.address,
                    cfg.voice_port, duration=cfg.voice_duration,
                    meter=self.voice_receivers[dst_as].meter)

    # -- fault verbs ----------------------------------------------------
    def start_misbehaving(self) -> None:
        """Bring the broken and aggressive populations online."""
        for i in self.config.misbehaving_ases:
            for g in range(1, self.config.flows_per_as + 1):
                self._start_sender(i, g)
                self.misbehaving_started += 1

    def stop_misbehaving(self) -> None:
        """End the storm: abort every misbehaving conversation."""
        for i in self.config.misbehaving_ases:
            for g in range(1, self.config.flows_per_as + 1):
                sender = self.senders.get((i, g))
                if sender is not None:
                    sender.stop()
                    self.misbehaving_stopped += 1

    # -- settlement ------------------------------------------------------
    def finalize_accounting(self) -> None:
        """Flush open flow records before any ledger is read."""
        for acct in self.flow_accountants.values():
            acct.finalize()

    def conforming_flow_keys(self) -> list:
        return [(i, g) for i in range(self.config.n_as)
                if self.config.archetype_of(i) == CONFORMING
                for g in range(1, self.config.flows_per_as + 1)]

    def misbehaving_flow_keys(self) -> list:
        return [(i, g) for i in self.config.misbehaving_ases
                for g in range(1, self.config.flows_per_as + 1)]


def build_ecology(config: EcologyConfig) -> EcologyNet:
    """Build the populated internet (single simulator, ready to run)."""
    return EcologyNet(config)
