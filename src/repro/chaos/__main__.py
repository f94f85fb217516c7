"""Chaos campaigns: the CI gates for survivability and management.

Eight campaigns, selected with ``--campaign``:

* ``random`` (default) — seeded random faults on the converged AS chain.
* ``restart`` — a host streaming a resumable session is power-cycled.
* ``flows`` — datagram-FIFO vs hard-state VC vs soft-state DRR race.
* ``adversary`` — stateful fuzzing, byzantine gateways, canary rollout.
* ``collapse`` — congestion-collapse ecology under FIFO, RED and RED+DRR.
* ``routeobs`` — probe mesh and churn alarms watching routing faults.
* ``obs`` — the ``random`` campaign with packet-journey observability on:
  violations carry the offending packet's journey, the report embeds the
  metrics snapshot, the console adds the simulator profile, the top
  metric counters and a sample journey, and every retained hop span is
  written to ``--spans`` as JSONL.
* ``netmgmt`` — the AS chain with a management agent on every node, a
  monitoring station on ``H1`` and background traffic, under long-dwell
  faults; the console adds the operator's view (node health, link
  utilization, top talkers, alert log, per-fault MTTD) and the artifact
  is the station snapshot with the campaign report embedded.

For example::

    PYTHONPATH=src python -m repro.chaos --seed 7 --budget 6 --out chaos-report.json
    PYTHONPATH=src python -m repro.chaos --campaign routeobs --size small --seed 7
    PYTHONPATH=src python -m repro.chaos --campaign obs --seed 7 --budget 6 --spans obs-spans.jsonl
    PYTHONPATH=src python -m repro.chaos --campaign netmgmt --seed 7 --budget 4

Each campaign is one :class:`Campaign` row of :data:`CAMPAIGNS`, and one
:func:`main` serves them all: it runs the campaign, prints and writes its
report, and exits 1 with one ``FAIL:`` line per failure when the report
has an invariant violation, a cleared fault that never reconverged, or a
failure of the row's own gate; otherwise it prints the row's OK line and
exits 0.  The seed fully determines the campaign, so a red CI run is
replayable locally with the same flags.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable

from .random_chaos import RandomChaos
from .restart import build_restart_scenario

#: Poisson fault arrival rate of the ``random`` and ``obs`` campaigns.
RATE = 0.25
#: Host power-cycles in the ``restart`` campaign.
RESTARTS = 3
#: Metric counters the ``obs`` console prints.
TOP_COUNTERS = 20
#: Where the ``netmgmt`` station runs and how often it scrapes (seconds).
STATION = "H1"
SCRAPE_INTERVAL = 1.0
#: The well-known sink port ``netmgmt`` background traffic lands on
#: (arbitrary, unreserved; the point is just realistic competing load).
TRAFFIC_PORT = 4000
#: Fault kinds the ``netmgmt`` detection gate insists on: long-dwell
#: crashes and partitions are unambiguously detectable, so missing one is
#: a bug.
GATED_KINDS = frozenset({"gateway-crash", "host-restart", "partition"})


@dataclass(frozen=True)
class Campaign:
    """One registry row.

    ``run(args)`` returns the report; ``gate(report)`` lists the
    campaign's own failures beyond the common gates (zero violations,
    every cleared fault reconverged); ``summary(report)`` is the OK line;
    ``out`` is the default report path.
    """

    name: str
    run: Callable[[argparse.Namespace], Any]
    gate: Callable[[Any], list]
    summary: Callable[[Any], str]
    out: str


class _Console:
    """A chaos report plus the operator console printed after its fault
    table, and the writer of the campaign's artifacts (the ``obs`` and
    ``netmgmt`` rows); everything else reads through to the report."""

    def __init__(self, report, console: str, write: Callable):
        self.report = report
        self.console = console
        self.write = write

    def __getattr__(self, name):
        return getattr(self.report, name)

    def print(self) -> None:
        self.report.print()
        print()
        print(self.console)


# ----------------------------------------------------------------------
# random / obs / netmgmt: seeded random faults on the AS chain
# ----------------------------------------------------------------------
def build_default_net(seed: int):
    """The two-tier AS-chain preset (3 ASes), converged and traced."""
    from ..harness.presets import build_as_chain
    from ..sim.trace import Tracer

    topo = build_as_chain(3, seed=seed)
    # Swap in a real tracer so violations carry post-failure excerpts.
    if len(topo.net.tracer) == 0 and not topo.net.tracer.enabled:
        topo.net.tracer = Tracer(capacity=50_000)
    return topo.net


def _random_faults(net, args, label: str, *, budget: int = 6,
                   lead: float = 2.0, **chaos):
    """Run ``--budget`` (default ``budget``) seeded random faults on
    ``net``, starting ``lead`` seconds from now."""
    if args.budget is not None:
        budget = args.budget
    chaos = RandomChaos(net, budget=budget, start=net.sim.now + lead, **chaos)
    return chaos.campaign(name=f"{label}[seed={args.seed}]").run()


def run_random(args):
    return _random_faults(build_default_net(args.seed), args, "smoke",
                          rate=RATE)


def run_obs(args):
    net = build_default_net(args.seed)
    obs = net.observe()
    report = _random_faults(net, args, "obs", rate=RATE)
    parts = []
    if obs.profiler is not None:
        parts.append(obs.profiler.table().render())
    parts.append(obs.registry.table(limit=TOP_COUNTERS).render())
    # Control-plane attribution: origination counts by trace label.
    # Routing updates and path probes used to ride unattributed among
    # the data packets; node.send() now counts every labeled origin.
    control = {key: counter.value
               for key, counter in obs.registry._counters.items()
               if key.startswith("control_plane_origins{")}
    if control:
        lines = ["== control-plane traffic (labeled originations) =="]
        for key in sorted(control):
            kind = key.split("kind=", 1)[1].rstrip("}")
            lines.append(f"  {kind:<14} {control[key]}")
        parts.append("\n".join(lines))
    ids = obs.spans.trace_ids()
    if ids:
        longest = max(ids, key=lambda tid: len(obs.journey(tid)))
        lines = obs.journey_lines(longest)
        parts.append("\n".join(
            [f"== sample journey: trace {longest} ({len(lines)} spans) =="]
            + [f"  {line}" for line in lines]))
    health = obs.spans.counters()
    parts.append(f"{health['spans_recorded']} spans over "
                 f"{obs.trace_ids_allocated} traces "
                 f"({health['traces_held']} retained, "
                 f"{health['traces_evicted']} evicted) -> {args.spans}")

    def write(path):
        obs.spans.export_jsonl(args.spans)
        return report.write(path)

    return _Console(report, "\n\n".join(parts), write)


def _start_traffic(net, interval: float = 0.2) -> None:
    """Each host streams 256-byte datagrams to the next host around the
    ring — the data traffic management competes with (and measures)."""
    names = sorted(net.hosts)
    for name in names:
        net.hosts[name].udp.bind(TRAFFIC_PORT, lambda *_args: None)
    payload = bytes(256)
    for index, name in enumerate(names):
        peer = names[(index + 1) % len(names)]
        sock = net.hosts[name].udp.bind(0)
        dst = net.hosts[peer].node.address

        def tick(sock=sock, dst=dst, name=name):
            if not sock.closed and sock._stack.node.up:
                sock.sendto(payload, dst, TRAFFIC_PORT)
            net.sim.schedule(interval, tick, label=f"traffic.{name}")

        net.sim.schedule(interval, tick, label=f"traffic.{name}")


def run_netmgmt(args):
    from ..harness.presets import build_as_chain
    from ..metrics.export import write_json
    from ..netmgmt.campaign import ManagementPlane

    net = build_as_chain(3, seed=args.seed).net
    net.observe()
    plane = ManagementPlane(net, station=STATION, interval=SCRAPE_INTERVAL,
                            timeout=0.5, unreachable_after=2)
    _start_traffic(net)
    plane.start()
    # Long-dwell faults: every crash/partition outlives the detection
    # threshold (2 scrapes), so an undetected one is an alarm-path bug.
    report = _random_faults(net, args, "netmgmt", budget=4, lead=3.0,
                            rate=0.15, dwell=(4.0, 8.0))
    mgmt = report.counters["netmgmt"] = plane.counters(report.faults)
    lines = [plane.render(), ""]
    for record in mgmt.get("per_fault", []):
        shown = ("not detected" if not record["detected"]
                 else f"MTTD {record['mttd']:.3f}s")
        lines.append(f"  {record['kind']:14s} {record['detail']:42s} {shown}")
    lines.append(f"  false alarms: {mgmt.get('false_alarms', 0)}")
    snapshot = plane.snapshot()
    snapshot["campaign"] = report.to_dict()
    return _Console(report, "\n".join(lines),
                    lambda path: write_json(path, snapshot))


def gate_netmgmt(report) -> list:
    return [f"{r['kind']} ({r['detail']}) never raised a correct alarm"
            for r in report.counters["netmgmt"].get("per_fault", [])
            if r["kind"] in GATED_KINDS and not r["detected"]]


def summary_netmgmt(report) -> str:
    mgmt = report.counters["netmgmt"]
    return (f"{mgmt.get('detected_faults', 0)}/{len(report.faults)} fault(s) "
            f"detected, mean MTTD {mgmt.get('mttd_mean', 0.0):.3f}s, "
            f"{mgmt.get('false_alarms', 0)} false alarm(s)")


# ----------------------------------------------------------------------
# restart
# ----------------------------------------------------------------------
def run_restart(args):
    return build_restart_scenario(args.seed, restarts=RESTARTS,
                                  trace=True).run()


def gate_restart(report) -> list:
    if report.counters.get("payload_intact", False):
        return []
    return [f"payload corrupted — "
            f"{report.counters['payload_lost_bytes']} byte(s) lost, "
            f"{report.counters['payload_duplicated_bytes']} duplicated"]


def summary_restart(report) -> str:
    sess = report.counters["session_client"]
    return (f"{len(report.faults)} restart(s) survived — "
            f"{sess['reconnects']} reconnect(s), "
            f"{sess['bytes_replayed']} byte(s) replayed, payload intact, "
            f"zero invariant violations")


# ----------------------------------------------------------------------
# flows
# ----------------------------------------------------------------------
def run_flows(args):
    from .flows import run_flows_campaign

    return run_flows_campaign(args.seed)


def gate_flows(report) -> list:
    race = report.race
    failures = []
    if race["vc"].get("conversations_died", 0) < 1:
        failures.append("VC conversation survived the gateway crash "
                        "(hard state should have died with the switch)")
    soft = race["drr"].get("soft_state", {})
    if not soft.get("reinstalled_within_interval", False):
        failures.append("soft-state reservation not re-installed within "
                        "one refresh interval of gateway restore")
    drr_sat = race["drr"].get("usable_saturation_pct")
    fifo_sat = race["fifo"].get("usable_saturation_pct")
    if drr_sat is None or fifo_sat is None or drr_sat <= fifo_sat:
        failures.append(f"DRR voice did not beat FIFO at saturation "
                        f"(drr={drr_sat} fifo={fifo_sat})")
    netmgmt = report.legs["drr"].counters.get("netmgmt", {})
    crash_detected = any(f.get("kind") == "gateway-crash" and f.get("detected")
                         for f in netmgmt.get("per_fault", []))
    if not crash_detected:
        failures.append("management plane never detected the gateway crash")
    if not netmgmt.get("reservation_loss", {}).get("detected", False):
        failures.append("flow-state-lost alarm never raised for the crash")
    return failures


def summary_flows(report) -> str:
    race = report.race
    soft = race["drr"]["soft_state"]
    netmgmt = report.legs["drr"].counters["netmgmt"]
    mttd = netmgmt["reservation_loss"]["per_crash"][0]["mttd"]
    return (f"VC died {race['vc']['conversations_died']}x, soft state "
            f"re-installed in {soft['reinstalls'][0]['delay']:.3f}s "
            f"(interval {soft['refresh_interval_s']:g}s), voice at "
            f"saturation drr={race['drr']['usable_saturation_pct']:.1f}% vs "
            f"fifo={race['fifo']['usable_saturation_pct']:.1f}%, "
            f"reservation-loss MTTD {mttd:.3f}s")


# ----------------------------------------------------------------------
# adversary
# ----------------------------------------------------------------------
def run_adversary(args):
    from ..adversary.campaign import run_adversary_campaign

    return run_adversary_campaign(args.seed)


def gate_adversary(report) -> list:
    failures = []
    for name, leg in sorted(report.legs.items()):
        for violation in leg["violations"]:
            failures.append(f"fuzz[{name}]: {violation}")
    for record in report.behavior_detection:
        if not record["detected"]:
            failures.append(
                f"byzantine '{record['behavior']}' never detected by the "
                f"management plane (signatures {record['signatures']})")
    good = report.rollouts["tcp_good"]
    if (good["state"] != "settled" or good["promoted_at"] is None
            or good["rolled_back_at"] is not None):
        failures.append(f"benign canary config did not promote cleanly "
                        f"(state {good['state']})")
    for name in ("tcp_broken", "egp_broken"):
        r = report.rollouts[name]
        if r["promoted_at"] is not None:
            failures.append(f"rollout[{name}]: broken config reached the "
                            f"fleet (promoted before rollback)")
        if r["rolled_back_at"] is None:
            failures.append(f"rollout[{name}]: broken config never rolled "
                            f"back (state {r['state']})")
        elif r["mttr"] is None or r["state"] != "healthy":
            failures.append(f"rollout[{name}]: rolled back but never "
                            f"verified healthy (state {r['state']})")
    return failures


def summary_adversary(report) -> str:
    mttds = {r["behavior"]: r["mttd"] for r in report.behavior_detection}
    injected = sum(leg["injected"] for leg in report.legs.values())
    return (f"{injected} adversarial exchanges absorbed, byzantine MTTD "
            + " ".join(f"{b}={mttds[b]:.1f}s"
                       for b in ("corrupt", "replay", "misroute", "delay"))
            + f", canary MTTR tcp={report.rollouts['tcp_broken']['mttr']:.1f}s "
            f"egp={report.rollouts['egp_broken']['mttr']:.1f}s, "
            f"fleet never saw a broken config")


# ----------------------------------------------------------------------
# collapse
# ----------------------------------------------------------------------
def run_collapse(args):
    from .collapse import run_collapse_campaign

    return run_collapse_campaign(args.seed, size=args.size)


def _collapse_scores(report) -> dict:
    """The ratios the collapse gates bound, from the race scorecard."""
    race = report.race
    baseline = race["baseline"]["goodput_bps"]["aggregate"]
    fifo = race["fifo"]
    base_flow = race["baseline"]["goodput_bps"]["conforming_per_flow_mean"]
    drr_flow = race["red_drr"]["goodput_bps"]["conforming_per_flow_mean"]
    netmgmt = report.legs["fifo"].counters.get("netmgmt", {})
    return {
        "goodput_ratio": (fifo["goodput_bps"]["aggregate"] / baseline
                          if baseline else 1.0),
        "busy": fifo["bottleneck_busy"]["mean"],
        "fair": drr_flow / base_flow if base_flow else 0.0,
        "dup_frac": fifo["harm"]["misbehaving_duplicate_fraction"],
        "detected": [f for f in netmgmt.get("per_fault", [])
                     if f.get("kind") == "misbehaving-hosts"
                     and f.get("detected")],
    }


def gate_collapse(report) -> list:
    """The collapse-specific gates.

    1. The mixed ecology on FIFO *collapses*: aggregate goodput under
       40% of the all-conforming baseline while the bottlenecks stay
       ≥95% busy (RFC 896's signature — a busy wire doing no work).
    2. RED+DRR restores conforming hosts to ≥90% of their baseline
       per-flow goodput.
    3. The harm ledger attributes the majority of duplicate transit
       bytes to the misbehaving ASes.
    4. The management plane detects the storm from the `collapse` MIB
       subtree (finite MTTD on the FIFO leg).
    """
    s = _collapse_scores(report)
    failures = []
    if s["goodput_ratio"] >= 0.40:
        failures.append(f"no collapse: mixed-FIFO goodput is "
                        f"{100 * s['goodput_ratio']:.1f}% of baseline "
                        f"(need < 40%)")
    if s["busy"] < 0.95:
        failures.append(f"bottlenecks only {100 * s['busy']:.1f}% busy on "
                        f"the FIFO leg (need >= 95% for the collapse claim)")
    if s["fair"] < 0.90:
        failures.append(f"RED+DRR restored conforming flows to only "
                        f"{100 * s['fair']:.1f}% of baseline (need >= 90%)")
    if s["dup_frac"] <= 0.5:
        failures.append(f"harm ledger attributes only "
                        f"{100 * s['dup_frac']:.1f}% of duplicate bytes to "
                        f"the misbehaving ASes (need a majority)")
    if not s["detected"]:
        failures.append("management plane never detected the collapse "
                        "(no misbehaving-hosts alarm matched)")
    return failures


def summary_collapse(report) -> str:
    s = _collapse_scores(report)
    mttd = s["detected"][0].get("mttd")
    if mttd is None:
        return "collapse gates passed (detection without MTTD)"
    return (f"collapse reproduced (goodput "
            f"{100 * s['goodput_ratio']:.1f}% of baseline at "
            f"{100 * s['busy']:.1f}% busy), RED+DRR fair share "
            f"{100 * s['fair']:.1f}%, misbehaving ASes own "
            f"{100 * s['dup_frac']:.0f}% of duplicate bytes, "
            f"MTTD {mttd:.1f}s")


# ----------------------------------------------------------------------
# routeobs
# ----------------------------------------------------------------------
def run_routeobs(args):
    from .routeobs import run_routeobs_campaign

    return run_routeobs_campaign(args.seed, size=args.size)


def gate_routeobs(report) -> list:
    """The route-observability gates.

    1. Steady state: every probe pair baselined before the first fault
       and every completed traceroute agreed with the graph-computed
       forwarding path (zero differential disagreements).
    2. Every fault on both legs detected with finite MTTD, zero false
       alarms at this seed.
    3. The ring leg observed the blackhole signature (static exterior:
       inter-AS faults cannot reroute) and the diamond leg observed a
       genuine ``path-change`` reroute.
    4. Mesh overhead on the ring leg stayed under 5% of goodput.
    """
    failures = []
    for leg in report.LEGS:
        s = report.summary[leg]
        steady = s["steady"]
        if steady.get("pairs_with_baseline") != steady.get("pairs"):
            failures.append(f"{leg}: only {steady.get('pairs_with_baseline')}"
                            f"/{steady.get('pairs')} probe pairs baselined "
                            f"before the first fault")
        if steady.get("disagreements", 1) != 0:
            failures.append(f"{leg}: {steady.get('disagreements')} steady-"
                            f"state traceroute-vs-graph disagreements "
                            f"(need 0)")
        if not steady.get("agreements"):
            failures.append(f"{leg}: no steady-state differential checks "
                            f"completed")
        if s["detected_faults"] != s["faults"]:
            failures.append(f"{leg}: only {s['detected_faults']}/"
                            f"{s['faults']} faults detected")
        if s["mttd_max"] is None:
            failures.append(f"{leg}: no finite MTTD")
        if s["false_alarms"]:
            failures.append(f"{leg}: {s['false_alarms']} false alarm(s)")
    if report.summary["ring"]["blackholes"] < 1:
        failures.append("ring: no path-blackhole observed (the static-"
                        "exterior signature)")
    if report.summary["diamond"]["path_changes"] < 1:
        failures.append("diamond: no path-change observed (the reroute "
                        "never happened)")
    overhead = report.summary["ring"]["mesh_overhead"]
    if overhead is None or overhead > 0.05:
        failures.append(f"ring: probe-mesh overhead {overhead} of goodput "
                        f"(need <= 5%)")
    return failures


def summary_routeobs(report) -> str:
    ring, diamond = report.summary["ring"], report.summary["diamond"]
    return (f"{ring['faults'] + diamond['faults']} faults all "
            f"detected (MTTD ring {ring['mttd_mean']:.2f}s / diamond "
            f"{diamond['mttd_mean']:.2f}s, zero false alarms), "
            f"{ring['steady']['agreements']}+"
            f"{diamond['steady']['agreements']} steady path checks "
            f"agreed, {ring['blackholes']} blackhole walks + "
            f"{diamond['path_changes']} reroute walks observed, mesh "
            f"overhead {100 * ring['mesh_overhead']:.1f}% of goodput")


# ----------------------------------------------------------------------
# The registry and its one main()
# ----------------------------------------------------------------------
def _no_gate(report) -> list:
    return []


CAMPAIGNS: dict[str, Campaign] = {c.name: c for c in (
    Campaign("random", run_random, _no_gate,
             lambda r: (f"{len(r.faults)} faults, zero invariant violations, "
                        f"worst recovery "
                        f"{r.reconvergence_summary().maximum:.3f}s"),
             "chaos-report.json"),
    Campaign("restart", run_restart, gate_restart, summary_restart,
             "restart-report.json"),
    Campaign("flows", run_flows, gate_flows, summary_flows,
             "flows-report.json"),
    Campaign("adversary", run_adversary, gate_adversary, summary_adversary,
             "adversary-report.json"),
    Campaign("collapse", run_collapse, gate_collapse, summary_collapse,
             "collapse-report.json"),
    Campaign("routeobs", run_routeobs, gate_routeobs, summary_routeobs,
             "routeobs-report.json"),
    Campaign("obs", run_obs, _no_gate,
             lambda r: (f"{len(r.faults)} faults explained, "
                        f"zero invariant violations"),
             "obs-report.json"),
    Campaign("netmgmt", run_netmgmt, gate_netmgmt, summary_netmgmt,
             "netmgmt-snapshot.json"),
)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Run one seeded chaos campaign and gate its report.")
    parser.add_argument("--campaign", choices=tuple(CAMPAIGNS),
                        default="random",
                        help="which campaign to run (see the module "
                             "docstring; default random)")
    parser.add_argument("--seed", type=int, default=7,
                        help="topology + chaos seed (default 7)")
    parser.add_argument("--budget", type=int, default=None,
                        help="[random/obs/netmgmt] number of random faults "
                             "(default 6; netmgmt 4)")
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="[collapse/routeobs] full 512-node scale or "
                             "the small determinism-test scale")
    parser.add_argument("--out", default=None,
                        help="report path (default: the campaign's, e.g. "
                             "chaos-report.json)")
    parser.add_argument("--spans", default="obs-spans.jsonl",
                        help="[obs] hop-span JSONL path "
                             "(default obs-spans.jsonl)")
    args = parser.parse_args(argv)

    campaign = CAMPAIGNS[args.campaign]
    report = campaign.run(args)
    report.print()
    path = report.write(args.out or campaign.out)
    print(f"\nreport written to {path}")

    failures = []
    if not report.ok:
        failures.append(f"{report.violation_count} invariant violation(s)")
    if not report.all_reconverged:
        failures.append("at least one fault never reconverged")
    failures += campaign.gate(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"OK: {campaign.summary(report)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
