"""Sharded scheduler: determinism across runs and partitions.

The contract under test (DESIGN.md §12): ``n_shards`` is part of the
scenario, and one process runs every shard.  Same seed + same shard count
must produce byte-identical results; cross-shard messages reach their
destination in ``(arrival, src_shard, emission_index)`` order; and because
cross-shard conduits mirror PointToPointLink timing exactly, even the
*partition* must not change any packet outcome.
"""

import json
from types import SimpleNamespace

import pytest

from repro.harness.scaletopo import MultiAsBuilder, ScaleConfig
from repro.sim.engine import SimulationError, Simulator
from repro.sim.shard import (ConduitPort, ShardBuild, ShardedSimulation,
                             ShardHarness)
from repro.netlayer.link import Interface
from repro.ip.address import Address, Prefix

# 3 gateways/AS: spoke 1 sends intra-AS, spoke 2 cross-AS — both flow
# kinds exist, so the seam actually carries traffic.
CFG = ScaleConfig(n_as=4, gateways_per_as=3, hosts_per_lan=2, seed=13)
HORIZON = 25.0


def run_scenario(n_shards: int, cfg: ScaleConfig = CFG):
    builder = MultiAsBuilder(cfg)
    ss = ShardedSimulation(builder, n_shards, lookahead=builder.lookahead())
    ss.run(until=HORIZON)
    meta = (ss.windows, ss.messages_crossed)
    return sorted(ss.collect(), key=lambda s: s["shard"]), meta


def digest(summaries, meta):
    return json.dumps({"shards": summaries, "meta": meta}, sort_keys=True)


def totals(summaries):
    keys = ("delivered", "forwarded", "originated", "drops",
            "sink_packets", "sink_bytes", "flows")
    return {k: sum(s[k] for s in summaries) for k in keys}


# ----------------------------------------------------------------------
# Partition independence (the seam does not change the packets)
# ----------------------------------------------------------------------
def test_partition_does_not_change_outcomes():
    one, _ = run_scenario(n_shards=1)
    two, meta = run_scenario(n_shards=2)
    four, _ = run_scenario(n_shards=4)
    assert totals(one)["sink_packets"] > 0  # traffic actually flowed
    assert meta[1] > 0  # and actually crossed the seam
    assert totals(one) == totals(two) == totals(four)
    # Per-AS delivery/forward counts survive re-partitioning too.
    def per_as(summaries):
        merged = {}
        for s in summaries:
            merged.update(s["per_as"])
        return merged
    assert per_as(one) == per_as(two) == per_as(four)


def test_same_seed_same_run_repeatable():
    a = digest(*run_scenario(n_shards=2))
    b = digest(*run_scenario(n_shards=2))
    assert a == b


# ----------------------------------------------------------------------
# Windows, lookahead and failure modes
# ----------------------------------------------------------------------
def test_window_count_matches_lookahead():
    builder = MultiAsBuilder(CFG)
    ss = ShardedSimulation(builder, 2, lookahead=builder.lookahead())
    ss.run(until=1.0)
    # W = inter_delay = 0.01 → 100 barrier rounds to reach t=1.
    assert ss.windows == 100
    assert ss.now == pytest.approx(1.0)


def test_resumable_run():
    builder = MultiAsBuilder(CFG)
    ss = ShardedSimulation(builder, 2, lookahead=builder.lookahead())
    ss.run(until=12.0)
    ss.run(until=HORIZON)
    straight, _ = run_scenario(n_shards=2)
    assert sorted(ss.collect(), key=lambda s: s["shard"]) == straight


def test_lookahead_wider_than_conduit_delay_is_detected():
    builder = MultiAsBuilder(CFG)
    ss = ShardedSimulation(builder, 2, lookahead=0.5)
    with pytest.raises(SimulationError, match="lookahead"):
        ss.run(until=HORIZON)


def test_constructor_validation():
    builder = MultiAsBuilder(CFG)
    with pytest.raises(ValueError):
        ShardedSimulation(builder, 0, lookahead=0.01)
    with pytest.raises(ValueError):
        ShardedSimulation(builder, 2, lookahead=0.0)


def test_single_host_lans_still_carry_traffic():
    """hosts_per_lan=1 used to KeyError in _start_traffic (no H1 host).

    Single-host LANs now source flows from the sink host itself; the
    scenario must build, run, and actually deliver packets.
    """
    cfg = ScaleConfig(n_as=2, gateways_per_as=3, hosts_per_lan=1, seed=13)
    summaries, meta = run_scenario(n_shards=2, cfg=cfg)
    assert totals(summaries)["sink_packets"] > 0
    assert meta[1] > 0  # cross-AS flows still cross the seam


def test_conduit_requires_positive_delay():
    sim = Simulator()
    prefix = Prefix(Address("10.254.0.0"), 30)
    iface = Interface("x.east", Address("10.254.0.1"), prefix)
    with pytest.raises(ValueError, match="positive delay"):
        ConduitPort(sim, iface, dst_shard=1, dst_port="p", outbox=[],
                    delay=0.0)


class _Recorder:
    """A node stand-in that keeps every datagram delivered to it."""

    def __init__(self):
        self.arrived = []

    def datagram_arrived(self, datagram, iface):
        self.arrived.append((datagram, iface))


def test_conduit_serializes_by_value():
    """A datagram crossing the seam travels as wire bytes with p2p timing,
    and the far shard's ingress rebuilds it header-for-header."""
    from repro.ip.packet import Datagram

    sim = Simulator()
    prefix = Prefix(Address("10.254.0.0"), 30)
    iface = Interface("x.east", Address("10.254.0.1"), prefix)
    outbox = []
    port = ConduitPort(sim, iface, dst_shard=1, dst_port="as1.west",
                       outbox=outbox, bandwidth_bps=56_000.0, delay=0.01)
    d = Datagram(src=Address("10.0.0.1"), dst=Address("10.1.0.1"),
                 protocol=17, payload=b"x" * 100, trace_id=9)
    port.transmit(iface, d, None)
    assert len(outbox) == 1
    arrival, dst_shard, dst_port, wire, tid = outbox[0]
    assert dst_shard == 1 and dst_port == "as1.west" and tid == 9
    tx = (d.total_length + ConduitPort.FRAME_OVERHEAD) * 8.0 / 56_000.0
    assert arrival == pytest.approx(tx + 0.01)

    # The far side: the record goes through a shard harness's ingress.
    west = Interface("y.west", Address("10.254.0.2"), prefix)
    west.node = recorder = _Recorder()
    far = Simulator()
    harness = ShardHarness(
        1, 2, lambda shard_id, n_shards: ShardBuild(
            net=SimpleNamespace(sim=far), ports={dst_port: west}))
    harness.deliver([(arrival, dst_port, wire, tid)])
    harness.run_window(arrival + 1.0)
    assert len(recorder.arrived) == 1
    delivered, iface = recorder.arrived[0]
    assert iface is west and west.stats.packets_delivered == 1
    assert delivered == d        # every header field, and trace_id
    assert delivered.trace_id == 9
    assert delivered is not d


def test_cross_shard_delivery_follows_merge_order():
    """Same-arrival messages reach the destination shard in
    ``(arrival, src_shard, emission_index)`` order — the tie-break its
    heap then preserves — not in the order the barriers drained them."""
    from repro.ip.packet import Datagram

    arrival = 2.5
    prefix = Prefix(Address("10.254.0.0"), 30)
    port = Interface("as2.west", Address("10.254.0.2"), prefix)
    port.node = recorder = _Recorder()

    def emit(outbox, trace_ids):
        # Trace ids (and the one-byte payloads carrying them) descend
        # within a shard, so sorting by either reverses emission order.
        for tid in trace_ids:
            d = Datagram(src=Address("10.0.0.1"), dst=Address("10.2.0.1"),
                         protocol=17, payload=bytes([tid]), trace_id=tid)
            outbox.append((arrival, 2, "as2.west", d.to_bytes(), tid))

    # Shard 1 emits in the first window and shard 0 in the second, so
    # shard 1's records are drained (and pending) first.
    emit_at = {0: (1.5, (14, 13)), 1: (0.5, (24, 23))}

    def builder(shard_id, n_shards):
        sim = Simulator()
        build = ShardBuild(net=SimpleNamespace(sim=sim))
        if shard_id in emit_at:
            when, tids = emit_at[shard_id]
            sim.post_at(when, lambda: emit(build.outbox, tids))
        else:
            build.ports["as2.west"] = port
        return build

    ss = ShardedSimulation(builder, 3, lookahead=1.0)
    ss.run(until=4.0)
    assert ss.messages_crossed == 4
    assert [d.trace_id for d, _ in recorder.arrived] == [14, 13, 24, 23]
    assert [d.payload for d, _ in recorder.arrived] == [
        bytes([14]), bytes([13]), bytes([24]), bytes([23])]
