"""The benchmark's three workloads, each a closed, seeded batch job.

A workload is built from public pieces of ``repro`` only: a generated
topology, its traffic schedule and (for ``collapse`` and ``control``) the
fault timeline, then run once to a fixed simulated horizon.  Nothing is
shared between two builds, so a process can build and run the same
workload several times and must get the same counts every time.

``build(name, seed)`` returns a :class:`Workload`: ``sim`` and ``horizon``
to run, ``counts()`` for the deterministic digest, ``gate_failures(counts)`` for
the workload's own correctness gates, and the object views the per-layer
counters are read from.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

from repro.chaos.campaign import FaultCampaign
from repro.chaos.faults import GatewayCrash, LinkFlap, Partition
from repro.ecology import EcologyConfig, build_ecology
from repro.harness.scaletopo import MultiAsBuilder, RingNet, ScaleConfig
from repro.ip.node import NodeStats
from repro.netmgmt.alarms import AgentUnreachableRule, RateRule
from repro.netmgmt.campaign import ManagementPlane
from repro.obs import Observability
from repro.obs.routing import (ConvergenceTracer, PathProbeResponder,
                               ProbeMesh, attach_route_ledger)
from repro.tcp.connection import ConnStats

NAMES = ("ring", "collapse", "control")

_NODE_FIELDS = [f.name for f in dataclasses.fields(NodeStats)]
_CONN_FIELDS = [f.name for f in dataclasses.fields(ConnStats)
                if f.type in ("int", int)]

# -- ring: the ROADMAP's canonical 512-node 8-AS ring --------------------
RING_HORIZON = 40.0

# -- collapse: the ecology's RED+DRR cell under a misbehaving storm ------
COLLAPSE_HORIZON = 30.0
#: The storm starts where the collapse campaign's does (16 s) but lasts
#: 10 s rather than 30 s, so start and stop both fall inside a horizon
#: short enough for several repetitions per measured run.
STORM = (16.0, 26.0)

# -- control: the routeobs ring leg's composition ------------------------
#: 8 ASes keep the 4-AS partition and the antipode-hub crash of the
#: 512-node leg; 4 gateways x 2 hosts per AS keep one repetition near the
#: other workloads' cost (the 512-node leg takes ~19 s per run).
CONTROL_SHAPE = dict(n_as=8, gateways_per_as=4, hosts_per_lan=2)
CONTROL_HORIZON = 50.0
CONTROL_WARMUP = 8.0
MESH_INTERVAL = 2.5
FLAP_AT, PARTITION_AT, CRASH_AT = 16.0, 30.0, 40.0
CHURN_RATE_BOUND = 0.25


def _sum_fields(stats_objects, fields) -> dict:
    totals = dict.fromkeys(fields, 0)
    for stats in stats_objects:
        for name in fields:
            totals[name] += getattr(stats, name)
    return totals


class Workload:
    """One built, ready-to-run instance of a named workload."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.sim = None
        self.horizon = 0.0
        self.internets: dict = {}
        self.obs = None
        self.pool = None
        self.schedulers: list = []

    def config(self) -> dict:
        """Everything that defines the inputs (hashed into the envelope)."""
        raise NotImplementedError

    def run(self) -> None:
        self.sim.run(until=self.horizon)

    def finish(self) -> None:
        """Post-run settlement before any counter is read (untimed)."""

    # -- views ---------------------------------------------------------
    def nodes(self) -> list:
        return [node for _, net in sorted(self.internets.items())
                for _, node in sorted(net.nodes().items())]

    def interfaces(self) -> list:
        return [iface for node in self.nodes() for iface in node.interfaces]

    def routing_processes(self) -> list:
        return [proc for _, net in sorted(self.internets.items())
                for _, proc in sorted(net.routing.items())]

    def tcp_senders(self) -> list:
        return []

    def tcp_connections(self) -> list:
        """Every TCP connection the run opened that is still reachable:
        the senders' own, plus whatever the stacks still hold open."""
        seen, conns = set(), []
        candidates = [s.sock.conn for s in self.tcp_senders()]
        for _, net in sorted(self.internets.items()):
            for _, host in sorted(net.hosts.items()):
                candidates.extend(host.tcp.connections)
        for conn in candidates:
            if conn is not None and id(conn) not in seen:
                seen.add(id(conn))
                conns.append(conn)
        return conns

    # -- correctness ---------------------------------------------------
    def counts(self) -> dict:
        """Counts-only, simulation-deterministic summary of the run."""
        out = {"node": _sum_fields((n.stats for n in self.nodes()),
                                   _NODE_FIELDS),
               "events": self.sim.events_processed}
        if self.tcp_senders():
            out["tcp"] = _sum_fields(
                (c.stats for c in self.tcp_connections()), _CONN_FIELDS)
        return out

    def gate_failures(self, counts: dict) -> list:
        """What is wrong with a run whose :meth:`counts` are ``counts``."""
        return []


class RingWorkload(Workload):
    """56 UDP CBR flows over the 512-node ring: nearly all gateway transit."""

    name = "ring"
    #: ScaleConfig overrides and horizon (smaller in the self-tests).
    shape: dict = {}
    horizon_s = RING_HORIZON

    def __init__(self, seed: int):
        super().__init__(seed)
        self.scale = replace(ScaleConfig(seed=seed), **self.shape)
        build = MultiAsBuilder(self.scale)(0, 1)
        net = build.net
        self.sim = net.sim
        self.horizon = self.horizon_s
        self.internets = net.internets
        self.pool = net.packet_pool
        self.sinks = net.sinks

    def config(self) -> dict:
        cfg = dataclasses.asdict(self.scale)
        return {"workload": self.name, "horizon": self.horizon,
                "scale": cfg}

    def counts(self) -> dict:
        out = super().counts()
        out["sink_packets"] = sum(s.packets for s in self.sinks.values())
        out["sink_bytes"] = sum(s.bytes for s in self.sinks.values())
        return out

    def gate_failures(self, counts: dict) -> list:
        return [] if counts["sink_packets"] else ["no CBR delivery"]


class CollapseWorkload(Workload):
    """Greedy TCP populations through RED+DRR bottlenecks, with a storm."""

    name = "collapse"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ecology = EcologyConfig(seed=seed, defense="red_drr",
                                     broken_ases=(1, 5),
                                     aggressive_ases=(3, 7))
        net = build_ecology(self.ecology)
        net.sim.call_at(STORM[0], net.start_misbehaving,
                        label="ecology:storm")
        net.sim.call_at(STORM[1], net.stop_misbehaving,
                        label="ecology:storm")
        self.net = net
        self.sim = net.sim
        self.horizon = COLLAPSE_HORIZON
        self.internets = net.internets
        self.pool = net.packet_pool
        self.schedulers = [s for _, s in sorted(net.schedulers.items())]

    def tcp_senders(self) -> list:
        return [s for _, s in sorted(self.net.senders.items())]

    def config(self) -> dict:
        cfg = dataclasses.asdict(self.ecology)
        return {"workload": self.name, "horizon": self.horizon,
                "storm": list(STORM), "ecology": cfg}

    def finish(self) -> None:
        self.net.finalize_accounting()

    def counts(self) -> dict:
        net = self.net
        out = super().counts()
        out["sink_bytes"] = sum(s.bytes_received for s in net.sinks.values())
        out["voice_frames"] = sum(r.meter.received_count
                                  for r in net.voice_receivers.values())
        out["misbehaving"] = [net.misbehaving_started,
                              net.misbehaving_stopped]
        out["quench_sent"] = sum(q.quenches_sent
                                 for q in net.quenchers.values())
        out["scheduler_drops"] = sum(s.stats.dropped for s in self.schedulers)
        out["flow_records"] = sum(a.records_exported
                                  for a in net.flow_accountants.values())
        return out

    def gate_failures(self, counts: dict) -> list:
        flows = len(self.ecology.misbehaving_ases) * self.ecology.flows_per_as
        failures = []
        if counts["misbehaving"] != [flows, flows]:
            failures.append(f"storm drove {counts['misbehaving']} flows, "
                            f"expected {flows} started and stopped")
        if not counts["sink_bytes"]:
            failures.append("no TCP goodput")
        return failures


class ControlWorkload(Workload):
    """Route ledgers, a scraping station, a probe mesh and three faults on
    an 8-AS ring with packet-journey observability on."""

    name = "control"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.scale = replace(ScaleConfig(seed=seed), **CONTROL_SHAPE)
        cfg = self.scale
        net = RingNet(cfg)
        n = cfg.n_as
        ledgers = [attach_route_ledger(net.gateways[name].node)
                   for name in sorted(net.gateways)]
        ConvergenceTracer().wire(
            ledgers, [net.routing[name] for name in sorted(net.routing)])
        for j in range(n):
            PathProbeResponder(net.hosts[f"A{j}G0H0"])
        targets = {}
        for i in range(n):
            for g in (0, 1):
                gw = net.gateways[f"A{i}G{g}"].node
                targets[f"A{i}G{g}"] = gw.interface_by_name(
                    f"A{i}G{g}.lan{g}").address
        self.plane = ManagementPlane(
            net, station=f"A0G0H{cfg.hosts_per_lan - 1}", targets=targets,
            rules=[AgentUnreachableRule(threshold=2, hold_down=3.0),
                   RateRule("route-churn", "routing.churn_events", ">",
                            CHURN_RATE_BOUND, window=8.0, hold_down=4.0)])
        reach = min(3, n - 1)
        pairs = [(net.hosts[f"A{i}G1H1"],
                  cfg.lan_host_address((i + reach) % n, 0, 0),
                  f"A{i}G1H1->A{(i + reach) % n}G0H0") for i in range(n)]
        self.mesh = ProbeMesh(net, pairs,
                              rng=net.streams.stream("obs.probemesh"),
                              bus=self.plane.bus, interval=MESH_INTERVAL,
                              start_at=CONTROL_WARMUP)
        faults = [
            LinkFlap(net.inter_links[0], FLAP_AT, 6.0),
            Partition([name for i in range(n // 2)
                       for name in net.as_members(i)], PARTITION_AT, 6.0),
            GatewayCrash(f"A{n // 2}G0", CRASH_AT, 5.0),
        ]
        self.campaign = FaultCampaign(
            net, faults, monitors=[],
            targets=[cfg.lan_host_address(j, 0, 0) for j in range(n)],
            name=f"control[seed={seed}]")
        self.obs = Observability()
        self.obs.install(net)
        # The station and the mesh enrol a converged network, as in the
        # routeobs campaign; the steady snapshot is taken before the
        # first fault.
        self.steady: dict = {}
        net.sim.call_at(CONTROL_WARMUP, self._start_watching,
                        label="mgmt.start")
        net.sim.call_at(FLAP_AT - 0.5, self._snapshot_steady,
                        label="probemesh:steady")
        self.net = net
        self.sim = net.sim
        self.horizon = CONTROL_HORIZON
        self.internets = net.internets
        self.pool = net.packet_pool
        self.sinks = net.sinks

    def _start_watching(self) -> None:
        self.plane.start()
        self.mesh.start()

    def _snapshot_steady(self) -> None:
        pairs = self.mesh.pairs
        self.steady = {
            "completed": sum(p.completed for p in pairs),
            "disagreements": sum(p.disagreements for p in pairs),
        }

    def config(self) -> dict:
        return {"workload": self.name, "horizon": self.horizon,
                "scale": dataclasses.asdict(self.scale),
                "faults": [FLAP_AT, PARTITION_AT, CRASH_AT],
                "warmup": CONTROL_WARMUP, "mesh_interval": MESH_INTERVAL}

    def run(self) -> None:
        self.campaign.run(until=self.horizon)

    def finish(self) -> None:
        self.plane.stop()

    def counts(self) -> dict:
        out = super().counts()
        out["sink_packets"] = sum(s.packets for s in self.sinks.values())
        out["sink_bytes"] = sum(s.bytes for s in self.sinks.values())
        mgmt = self.plane.counters(self.campaign.faults)
        mesh = self.mesh.counters()
        out["campaign"] = {
            "faults": len(self.campaign.faults),
            "detected": mgmt["detected_faults"],
            "false_alarms": mgmt["false_alarms"],
            "steady_completed": self.steady.get("completed", 0),
            "steady_disagreements": self.steady.get("disagreements", 0),
            "mesh_rounds": mesh["rounds"],
            "disagreements": mesh["disagreements"],
        }
        return out

    def gate_failures(self, counts: dict) -> list:
        c = counts["campaign"]
        failures = []
        if c["detected"] != c["faults"]:
            failures.append(f"detected {c['detected']}/{c['faults']} faults")
        if c["false_alarms"]:
            failures.append(f"{c['false_alarms']} false alarms")
        if not c["steady_completed"]:
            failures.append("no traceroute completed before the faults")
        if c["steady_disagreements"]:
            failures.append(f"{c['steady_disagreements']} steady-state "
                            "traceroute disagreements")
        return failures


_CLASSES = {cls.name: cls
            for cls in (RingWorkload, CollapseWorkload, ControlWorkload)}


def build(name: str, seed: int) -> Workload:
    """Build workload ``name`` for ``seed``, ready to run."""
    return _CLASSES[name](seed)
