"""Sharded scheduler: determinism across worker counts and partitions.

The contract under test (DESIGN.md §12): ``n_shards`` is part of the
scenario, ``workers`` is not.  Same seed + same shard count must produce
byte-identical results whether the shards run in one process or one
process each; and because cross-shard conduits mirror PointToPointLink
timing exactly, even the *partition* must not change any packet outcome.
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


def run_scenario(n_shards: int, workers: int, cfg: ScaleConfig = CFG):
    builder = MultiAsBuilder(cfg)
    with ShardedSimulation(builder, n_shards,
                           lookahead=builder.lookahead(),
                           workers=workers) as ss:
        ss.run(until=HORIZON)
        summaries = ss.collect()
        meta = (ss.windows, ss.messages_crossed)
    for s in summaries:
        # Execution-dependent field excluded from the determinism digest.
        s.pop("cpu_seconds", None)
    return sorted(summaries, key=lambda s: s["shard"]), meta


def digest(summaries, meta):
    return json.dumps({"shards": summaries, "meta": meta}, sort_keys=True)


def totals(summaries):
    keys = ("delivered", "forwarded", "originated", "drops",
            "sink_packets", "sink_bytes", "flows")
    return {k: sum(s[k] for s in summaries) for k in keys}


# ----------------------------------------------------------------------
# Worker-count independence (1 vs N processes, same shards)
# ----------------------------------------------------------------------
def test_forked_workers_byte_identical_to_inline():
    inline, meta_i = run_scenario(n_shards=2, workers=1)
    forked, meta_f = run_scenario(n_shards=2, workers=2)
    assert digest(inline, meta_i) == digest(forked, meta_f)
    assert totals(inline)["sink_packets"] > 0  # traffic actually flowed
    assert meta_i[1] > 0  # and actually crossed the seam


def test_excess_workers_clamp_to_shard_count():
    builder = MultiAsBuilder(CFG)
    with ShardedSimulation(builder, 2, lookahead=builder.lookahead(),
                           workers=8) as ss:
        assert ss.workers == 2


# ----------------------------------------------------------------------
# Partition independence (the seam does not change the packets)
# ----------------------------------------------------------------------
def test_partition_does_not_change_outcomes():
    one, _ = run_scenario(n_shards=1, workers=1)
    two, _ = run_scenario(n_shards=2, workers=1)
    four, _ = run_scenario(n_shards=4, workers=1)
    assert totals(one) == totals(two) == totals(four)
    # Per-AS delivery/forward counts survive re-partitioning too.
    def per_as(summaries):
        merged = {}
        for s in summaries:
            merged.update(s["per_as"])
        return merged
    assert per_as(one) == per_as(two) == per_as(four)


def test_same_seed_same_run_repeatable():
    a = digest(*run_scenario(n_shards=2, workers=1))
    b = digest(*run_scenario(n_shards=2, workers=1))
    assert a == b


# ----------------------------------------------------------------------
# Windows, lookahead and failure modes
# ----------------------------------------------------------------------
def test_window_count_matches_lookahead():
    builder = MultiAsBuilder(CFG)
    with ShardedSimulation(builder, 2, lookahead=builder.lookahead(),
                           workers=1) as ss:
        ss.run(until=1.0)
        # W = inter_delay = 0.01 → 100 barrier rounds to reach t=1.
        assert ss.windows == 100
        assert ss.now == pytest.approx(1.0)


def test_resumable_run():
    builder = MultiAsBuilder(CFG)
    with ShardedSimulation(builder, 2, lookahead=builder.lookahead()) as ss:
        ss.run(until=12.0)
        ss.run(until=HORIZON)
        resumed = ss.collect()
    for s in resumed:
        s.pop("cpu_seconds", None)
    straight, _ = run_scenario(n_shards=2, workers=1)
    assert sorted(resumed, key=lambda s: s["shard"]) == straight


def test_lookahead_wider_than_conduit_delay_is_detected():
    builder = MultiAsBuilder(CFG)
    with ShardedSimulation(builder, 2, lookahead=0.5, workers=1) as ss:
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
    summaries, meta = run_scenario(n_shards=2, workers=1, cfg=cfg)
    assert totals(summaries)["sink_packets"] > 0
    assert meta[1] > 0  # cross-AS flows still cross the seam


def test_use_after_close_raises_cleanly():
    builder = MultiAsBuilder(CFG)
    ss = ShardedSimulation(builder, 2, lookahead=builder.lookahead(),
                           workers=2)
    ss.run(until=1.0)
    ss.close()
    with pytest.raises(SimulationError, match="closed"):
        ss.collect()
    with pytest.raises(SimulationError, match="closed"):
        ss.run(until=2.0)


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
