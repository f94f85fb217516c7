"""Chaos smoke campaigns: the CI gates for survivability.

Six presets, selected with ``--campaign``:

* ``random`` (default) — seeded random faults on the converged AS chain.
* ``restart`` — a host streaming a resumable session is power-cycled.
* ``flows`` — datagram-FIFO vs hard-state VC vs soft-state DRR race.
* ``adversary`` — stateful fuzzing, byzantine gateways, canary rollout.
* ``collapse`` — congestion-collapse ecology under FIFO, RED and RED+DRR.
* ``routeobs`` — probe mesh and churn alarms watching routing faults.

For example::

    PYTHONPATH=src python -m repro.chaos --seed 7 --budget 6 --out chaos-report.json
    PYTHONPATH=src python -m repro.chaos --campaign routeobs --size small --seed 7

Every preset writes its canonical report and exits non-zero on any
invariant violation or unreconverged fault, or when a campaign-specific
gate fails.  The seed fully determines the campaign, so a red CI run is
replayable locally with the same flags.
"""

from __future__ import annotations

import argparse
import sys

from .random_chaos import RandomChaos
from .restart import build_restart_scenario


def build_default_net(seed: int):
    """The two-tier AS-chain preset (3 ASes), converged and traced."""
    from ..harness.presets import build_as_chain
    from ..sim.trace import Tracer

    topo = build_as_chain(3, seed=seed)
    # Swap in a real tracer so violations carry post-failure excerpts.
    if len(topo.net.tracer) == 0 and not topo.net.tracer.enabled:
        topo.net.tracer = Tracer(capacity=50_000)
    return topo.net


def run_random(args) -> "CampaignReport":
    net = build_default_net(args.seed)
    chaos = RandomChaos(net, budget=args.budget, rate=args.rate,
                        start=net.sim.now + 2.0)
    campaign = chaos.campaign(name=f"smoke[seed={args.seed}]")
    return campaign.run()


def run_restart(args) -> "CampaignReport":
    scenario = build_restart_scenario(args.seed, restarts=args.restarts,
                                      trace=True)
    return scenario.run()


def run_flows(args):
    from .flows import run_flows_campaign

    return run_flows_campaign(args.seed)


def gate_flows(report) -> int:
    """The flows-specific CI gates beyond ok/reconverged."""
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
    netmgmt = report.drr.counters.get("netmgmt", {})
    crash_detected = any(f.get("kind") == "gateway-crash" and f.get("detected")
                         for f in netmgmt.get("per_fault", []))
    if not crash_detected:
        failures.append("management plane never detected the gateway crash")
    if not netmgmt.get("reservation_loss", {}).get("detected", False):
        failures.append("flow-state-lost alarm never raised for the crash")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        mttd = netmgmt["reservation_loss"]["per_crash"][0]["mttd"]
        print(f"OK: VC died {race['vc']['conversations_died']}x, soft state "
              f"re-installed in {soft['reinstalls'][0]['delay']:.3f}s "
              f"(interval {soft['refresh_interval_s']:g}s), voice at "
              f"saturation drr={drr_sat:.1f}% vs fifo={fifo_sat:.1f}%, "
              f"reservation-loss MTTD {mttd:.3f}s")
    return 1 if failures else 0


def run_adversary(args):
    from ..adversary.campaign import run_adversary_campaign

    return run_adversary_campaign(args.seed)


def run_collapse(args):
    from .collapse import run_collapse_campaign

    return run_collapse_campaign(args.seed, size=args.size)


def gate_collapse(report) -> int:
    """The collapse-specific CI gates beyond ok/reconverged.

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
    race = report.race
    failures = []
    baseline = race["baseline"]["goodput_bps"]["aggregate"]
    fifo = race["fifo"]
    goodput_ratio = (fifo["goodput_bps"]["aggregate"] / baseline
                     if baseline else 1.0)
    busy = fifo["bottleneck_busy"]["mean"]
    if goodput_ratio >= 0.40:
        failures.append(f"no collapse: mixed-FIFO goodput is "
                        f"{100 * goodput_ratio:.1f}% of baseline "
                        f"(need < 40%)")
    if busy < 0.95:
        failures.append(f"bottlenecks only {100 * busy:.1f}% busy on the "
                        f"FIFO leg (need >= 95% for the collapse claim)")
    base_flow = race["baseline"]["goodput_bps"]["conforming_per_flow_mean"]
    drr_flow = race["red_drr"]["goodput_bps"]["conforming_per_flow_mean"]
    fair = drr_flow / base_flow if base_flow else 0.0
    if fair < 0.90:
        failures.append(f"RED+DRR restored conforming flows to only "
                        f"{100 * fair:.1f}% of baseline (need >= 90%)")
    dup_frac = fifo["harm"]["misbehaving_duplicate_fraction"]
    if dup_frac <= 0.5:
        failures.append(f"harm ledger attributes only "
                        f"{100 * dup_frac:.1f}% of duplicate bytes to the "
                        f"misbehaving ASes (need a majority)")
    netmgmt = report.legs["fifo"].counters.get("netmgmt", {})
    detected = [f for f in netmgmt.get("per_fault", [])
                if f.get("kind") == "misbehaving-hosts" and f.get("detected")]
    if not detected:
        failures.append("management plane never detected the collapse "
                        "(no misbehaving-hosts alarm matched)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        mttd = detected[0].get("mttd")
        print(f"OK: collapse reproduced (goodput "
              f"{100 * goodput_ratio:.1f}% of baseline at "
              f"{100 * busy:.1f}% busy), RED+DRR fair share "
              f"{100 * fair:.1f}%, misbehaving ASes own "
              f"{100 * dup_frac:.0f}% of duplicate bytes, "
              f"MTTD {mttd:.1f}s"
              if mttd is not None else
              f"OK: collapse gates passed (detection without MTTD)")
    return 1 if failures else 0


def run_routeobs(args):
    from .routeobs import run_routeobs_campaign

    return run_routeobs_campaign(args.seed, size=args.size)


def gate_routeobs(report) -> int:
    """The route-observability CI gates beyond ok/reconverged.

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
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        ring, diamond = report.summary["ring"], report.summary["diamond"]
        print(f"OK: {ring['faults'] + diamond['faults']} faults all "
              f"detected (MTTD ring {ring['mttd_mean']:.2f}s / diamond "
              f"{diamond['mttd_mean']:.2f}s, zero false alarms), "
              f"{ring['steady']['agreements']}+"
              f"{diamond['steady']['agreements']} steady path checks "
              f"agreed, {ring['blackholes']} blackhole walks + "
              f"{diamond['path_changes']} reroute walks observed, mesh "
              f"overhead {100 * overhead:.1f}% of goodput")
    return 1 if failures else 0


def gate_adversary(report) -> int:
    """The adversary-specific CI gates beyond ok/reconverged."""
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
    if good["state"] != "settled" or good["rolled_back_at"] is not None:
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
        elif r["mttr"] is None:
            failures.append(f"rollout[{name}]: rolled back but never "
                            f"verified healthy (state {r['state']})")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        mttds = {r["behavior"]: r["mttd"] for r in report.behavior_detection}
        injected = sum(leg["injected"] for leg in report.legs.values())
        print(f"OK: {injected} adversarial exchanges absorbed, byzantine "
              f"MTTD " + " ".join(f"{b}={mttds[b]:.1f}s" for b in
                                  ("corrupt", "replay", "misroute", "delay"))
              + f", canary MTTR tcp={report.rollouts['tcp_broken']['mttr']:.1f}s "
              f"egp={report.rollouts['egp_broken']['mttr']:.1f}s, "
              f"fleet never saw a broken config")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Run a chaos smoke campaign.")
    parser.add_argument("--campaign",
                        choices=("random", "restart", "flows", "adversary",
                                 "collapse", "routeobs"),
                        default="random",
                        help="preset: randomized faults on the AS chain, "
                             "the host-restart fate-sharing loop, the "
                             "FIFO-vs-VC-vs-soft-state flows race, the "
                             "adversarial fuzz/byzantine/rollout campaign, "
                             "the congestion-collapse ecology race, or the "
                             "control-plane observability (probe mesh + "
                             "churn alarm) campaign")
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="[collapse/routeobs] full 512-node scale or "
                             "the small determinism-test scale")
    parser.add_argument("--seed", type=int, default=7,
                        help="topology + chaos seed (default 7)")
    parser.add_argument("--budget", type=int, default=6,
                        help="[random] number of random faults (default 6)")
    parser.add_argument("--rate", type=float, default=0.25,
                        help="[random] Poisson arrival rate (default 0.25/s)")
    parser.add_argument("--restarts", type=int, default=3,
                        help="[restart] host power-cycles (default 3)")
    parser.add_argument("--out", default=None,
                        help="campaign report path (default "
                             "chaos-report.json / restart-report.json)")
    args = parser.parse_args(argv)

    if args.out is None:
        args.out = {"restart": "restart-report.json",
                    "flows": "flows-report.json",
                    "adversary": "adversary-report.json",
                    "collapse": "collapse-report.json",
                    "routeobs": "routeobs-report.json"}.get(args.campaign,
                                                      "chaos-report.json")
    runner = {"restart": run_restart, "flows": run_flows,
              "adversary": run_adversary,
              "collapse": run_collapse,
              "routeobs": run_routeobs}.get(args.campaign, run_random)
    report = runner(args)
    report.print()
    path = report.write(args.out)
    print(f"\nreport written to {path}")

    if not report.ok:
        print(f"FAIL: {report.violation_count} invariant violation(s)",
              file=sys.stderr)
        return 1
    if not report.all_reconverged:
        print("FAIL: at least one fault never reconverged", file=sys.stderr)
        return 1
    if args.campaign == "flows":
        return gate_flows(report)
    if args.campaign == "adversary":
        return gate_adversary(report)
    if args.campaign == "collapse":
        return gate_collapse(report)
    if args.campaign == "routeobs":
        return gate_routeobs(report)
    if args.campaign == "restart":
        if not report.counters.get("payload_intact", False):
            print(f"FAIL: payload corrupted — "
                  f"{report.counters['payload_lost_bytes']} byte(s) lost, "
                  f"{report.counters['payload_duplicated_bytes']} duplicated",
                  file=sys.stderr)
            return 1
        sess = report.counters["session_client"]
        print(f"OK: {len(report.faults)} restart(s) survived — "
              f"{sess['reconnects']} reconnect(s), "
              f"{sess['bytes_replayed']} byte(s) replayed, payload intact, "
              f"zero invariant violations")
        return 0
    print(f"OK: {len(report.faults)} faults, zero invariant violations, "
          f"worst recovery {report.reconvergence_summary().maximum:.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
