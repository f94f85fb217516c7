"""The fused gateway transit path changes no outcome, only its cost.

Each scenario runs twice from the same seed: once as built, where most
transit hops take the fused path, and once with a pass-through transit
interposer (``node.output_transit``) on every gateway, which forces every
hop down the reference path.  Every counter the simulator keeps must be
identical between the two runs: node and link statistics, the route
cache's hit/miss counts, sink deliveries and the number of events fired.

The small ring carries the cases the fused path must decline or survive:
a link flap and a gateway crash mid-run (route-table generation bumps), a
small-MTU hop crossed by datagrams with DF clear (fragmented) and DF set
(dropped with ICMP), a hop that earns an ICMP redirect, a DRR scheduler
on a transit interface, and a forward inspector that mutates the route
table while it runs.  The sharded run covers a cross-shard
conduit as the outgoing medium.
"""

import dataclasses

import pytest

from repro.chaos.faults import GatewayCrash, LinkFlap
from repro.flows.scheduler import DrrScheduler
from repro.harness.scaletopo import MultiAsBuilder, RingNet, ScaleConfig
from repro.ip.address import Address, Prefix
from repro.ip.forwarding import Route, RouteTable
from repro.ip.packet import PROTO_UDP
from repro.netlayer.lan import LanBus
from repro.netlayer.link import PointToPointLink
from repro.routing.static import add_static_route
from repro.sim.shard import ShardedSimulation

SHAPE = ScaleConfig(n_as=3, gateways_per_as=3, hosts_per_lan=2, seed=5)
HORIZON = 26.0


def force_reference(nodes) -> None:
    for node in nodes:
        if node.is_gateway:
            node.transit_interposer = node.output_transit


def snapshot(nodes, sinks, sim) -> dict:
    """Every counter the identity contract covers, keyed by name."""
    out = {"events": sim.events_processed,
           "sinks": {str(k): (s.packets, s.bytes)
                     for k, s in sorted(sinks.items())}}
    for node in sorted(nodes, key=lambda n: n.name):
        out[node.name] = {
            "stats": dataclasses.asdict(node.stats),
            "cache": (node.routes.cache_hits, node.routes.cache_misses),
            "icmp_suppressed": node.icmp_suppressed,
            "links": {iface.name: dataclasses.asdict(iface.stats)
                      for iface in node.interfaces},
        }
    return out


def totals(snap, field) -> int:
    return sum(v["stats"][field] for k, v in snap.items()
               if isinstance(v, dict) and "stats" in v)


def run_ring(reference: bool) -> tuple:
    net = RingNet(SHAPE)
    sim = net.sim
    nodes = list(net.nodes().values())
    if reference:
        force_reference(nodes)

    # Small-MTU hop: the AS-2 hub <-> spoke-2 link carries CBR flows both
    # ways (DF clear: fragmented), plus a DF-set probe stream (dropped).
    spoke = net.node_by_name("A2G2")
    small = next(i.medium for i in spoke.interfaces
                 if isinstance(i.medium, PointToPointLink))
    small.mtu = 200
    # Redirect-eligible hop: H1 reaches its LAN neighbour H0 through the
    # LAN's gateway, which forwards back out the interface it came in on.
    # H1 ignores the advice so the dog-leg (and the advice) recur.
    h1 = net.node_by_name("A0G1H1")
    h1.accept_redirects = False
    add_static_route(h1, "10.0.1.2/32", "10.0.1.1")
    # DRR on a transit interface (the AS-1 hub's eastward trunk).
    hub = net.node_by_name("A1G0")
    east = hub.interface_by_name("A1G0.east")
    drr = DrrScheduler(sim, east, east.medium.bandwidth_bps, mode="drr")

    # A forward inspector on the AS-0 hub that, for one packet, diverts
    # the packet in hand onto the hub's LAN (where nobody holds its
    # address): the table's generation moves while the inspectors run,
    # so that hop must leave the fused path and take the new route.
    hub0 = net.node_by_name("A0G0")
    hub0_lan = next(i for i in hub0.interfaces if isinstance(i.medium, LanBus))
    inspected = []

    def inspector(datagram):
        inspected.append(datagram.ttl)
        if len(inspected) == 500:
            hub0.routes.install(Route(prefix=Prefix.of(datagram.dst, 32),
                                      interface=hub0_lan, source="divert"))
        elif len(inspected) == 501:
            hub0.routes.withdraw_by_source("divert")

    hub0.forward_inspectors.append(inspector)

    def probes():
        h1.send(Address("10.0.1.2"), PROTO_UDP, b"r" * 40)
        h1.send(Address("10.2.2.2"), PROTO_UDP, b"d" * 240,
                dont_fragment=True)
        if sim.now < HORIZON - 1:
            sim.schedule(0.25, probes, label="test:probe")

    sim.call_at(11.0, probes, label="test:probe")
    flap = LinkFlap(net.inter_links[0], at=13.0, dwell=2.0)
    crash = GatewayCrash("A1G2", at=16.0, dwell=3.0)
    for fault in (flap, crash):
        sim.call_at(fault.at, lambda f=fault: f.apply(net), label="test:fault")
        sim.call_at(fault.clear_time, lambda f=fault: f.clear(net),
                    label="test:fault")
    sim.run(until=HORIZON)
    snap = snapshot(nodes, net.sinks, sim)
    snap["drr"] = dataclasses.asdict(drr.stats)
    snap["inspected"] = inspected
    redirects = len(net.node_by_name("A0G1")._redirects_sent_to)
    return snap, redirects


@pytest.fixture
def lookups(monkeypatch):
    """Counts RouteTable.lookup calls (the probes the fused path saves)."""
    calls = [0]
    original = RouteTable.lookup

    def counted(self, destination):
        calls[0] += 1
        return original(self, destination)

    monkeypatch.setattr(RouteTable, "lookup", counted)
    return calls


def test_ring_counters_identical_to_the_reference_path(lookups):
    fused, redirects = run_ring(reference=False)
    fused_lookups, lookups[0] = lookups[0], 0
    reference, reference_redirects = run_ring(reference=True)
    assert fused == reference
    assert redirects == reference_redirects

    # The scenario reached every case it is meant to cover...
    assert totals(fused, "forwarded") > 1000
    assert totals(fused, "fragments_created") > 0
    assert totals(fused, "dropped_df") > 0
    assert totals(fused, "dropped_down") > 0
    assert redirects > 0
    assert fused["drr"]["enqueued"] > 0
    assert len(fused["inspected"]) > 500
    # ...and the fused path really ran: it answers most transit hops
    # without a RouteTable.lookup call, while counting the same hits.
    assert fused_lookups < lookups[0] - totals(fused, "forwarded") // 2


class SnapshotBuilder:
    """A ring shard builder whose collect() returns the full snapshot."""

    def __init__(self, config, reference):
        self.builder = MultiAsBuilder(config)
        self.reference = reference

    def __call__(self, shard_id, n_shards):
        build = self.builder(shard_id, n_shards)
        shard_net = build.net
        nodes = [n for _, net in sorted(shard_net.internets.items())
                 for n in net.nodes().values()]
        if self.reference:
            force_reference(nodes)
        build.collect = lambda: snapshot(nodes, shard_net.sinks,
                                         shard_net.sim)
        return build


def run_sharded(reference: bool) -> tuple:
    cfg = ScaleConfig(n_as=4, gateways_per_as=3, hosts_per_lan=2, seed=13)
    builder = SnapshotBuilder(cfg, reference)
    with ShardedSimulation(builder, 2, lookahead=builder.builder.lookahead(),
                           workers=1) as ss:
        ss.run(until=HORIZON)
        summaries = ss.collect()
    for summary in summaries:
        summary.pop("cpu_seconds")  # execution-dependent, not a counter
    return summaries, ss.messages_crossed


def test_sharded_conduit_counters_identical_to_the_reference_path():
    fused, crossed = run_sharded(reference=False)
    reference, reference_crossed = run_sharded(reference=True)
    assert crossed > 0
    assert crossed == reference_crossed
    assert fused == reference
    assert sum(s["sinks"][k][0] for s in fused for k in s["sinks"]) > 0
