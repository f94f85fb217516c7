"""The campaign registry behind ``python -m repro.chaos``: every row's
gates, driven through the one ``main()`` with stand-in reports.

No simulation runs here.  Each stand-in is a real report class filled
with hand-written numbers that sit on or just inside every bound; each
mutation pushes one bound one step past its limit and must exit 1 with
exactly that bound's ``FAIL:`` line.
"""

import dataclasses

import pytest

from repro.adversary.campaign import AdversaryReport
from repro.chaos import __main__ as cli
from repro.chaos.collapse import CollapseReport
from repro.chaos.faults import LinkFlap
from repro.chaos.flows import FlowsRaceReport
from repro.chaos.monitors import InvariantMonitor, Violation
from repro.chaos.report import CampaignReport
from repro.chaos.routeobs import RouteObsReport


def _leg(counters=None, *, reconverged=True, violation=False):
    """One CampaignReport holding one link flap that applied and cleared."""
    fault = LinkFlap(0, at=1.0, dwell=1.0)
    fault.applied_at, fault.cleared_at = 1.0, 2.0
    fault.reconverged_at = 2.5 if reconverged else None
    monitor = InvariantMonitor()
    if violation:
        monitor.violations.append(Violation(1.5, "loop", "a loop"))
    return CampaignReport("leg", [fault], [monitor], counters or {})


def standin_random(**kw):
    return _leg(**kw)


def standin_restart(**kw):
    return _leg({"payload_intact": True, "payload_lost_bytes": 0,
                 "payload_duplicated_bytes": 0,
                 "session_client": {"reconnects": 1, "bytes_replayed": 64}},
                **kw)


def standin_netmgmt(**kw):
    # The undetected link flap is outside the detection gate's kinds.
    return _leg({"netmgmt": {
        "per_fault": [
            {"kind": "gateway-crash", "detail": "gateway B1",
             "detected": True, "mttd": 2.0},
            {"kind": "link-flap", "detail": "link #0",
             "detected": False, "mttd": None}],
        "detected_faults": 1, "mttd_mean": 2.0, "false_alarms": 0}}, **kw)


def standin_flows(**kw):
    drr = _leg({"netmgmt": {
        "per_fault": [{"kind": "gateway-crash", "detected": True}],
        "reservation_loss": {"detected": True,
                             "per_crash": [{"mttd": 5.5}]}}}, **kw)
    race = {
        "vc": {"conversations_died": 1},
        "drr": {"usable_saturation_pct": 60.1,
                "soft_state": {"reinstalled_within_interval": True,
                               "reinstalls": [{"delay": 1.5}],
                               "refresh_interval_s": 2.0}},
        "fifo": {"usable_saturation_pct": 60.0},
    }
    return FlowsRaceReport("flows", _leg(**kw), drr, {}, race)


def standin_adversary(**kw):
    legs = {"tcp": {"ok": True, "injected": 10, "violations": [],
                    "counters": {}}}
    detection = [{"behavior": b, "detected": True, "mttd": 1.0,
                  "perturbed": 3, "signatures": ["dup"]}
                 for b in ("corrupt", "replay", "misroute", "delay")]
    rollouts = {
        "tcp_good": {"state": "settled", "promoted_at": 24.0,
                     "rolled_back_at": None, "mttr": None},
        "tcp_broken": {"state": "healthy", "promoted_at": None,
                       "rolled_back_at": 17.0, "mttr": 15.0},
        "egp_broken": {"state": "healthy", "promoted_at": None,
                       "rolled_back_at": 27.0, "mttr": 20.5},
    }
    return AdversaryReport(
        "adversary", 7, legs,
        {"report": _leg(**kw), "behavior_detection": detection}, rollouts)


def _collapse_entry(aggregate, per_flow, *, busy=1.0, dup=0.0):
    return {"goodput_bps": {"aggregate": aggregate,
                            "conforming_per_flow_mean": per_flow},
            "bottleneck_busy": {"mean": busy},
            "voice": {"on_time_pct": 100.0},
            "harm": {"duplicate_bytes_total": 0,
                     "misbehaving_duplicate_fraction": dup}}


def standin_collapse(**kw):
    legs = {name: _leg(**kw) for name in CollapseReport.LEGS}
    legs["fifo"].counters["netmgmt"] = {"per_fault": [
        {"kind": "misbehaving-hosts", "detected": True, "mttd": 6.1}]}
    race = {"baseline": _collapse_entry(1000.0, 100.0),
            # 39.9% of baseline goodput at exactly 95% busy.
            "fifo": _collapse_entry(399.0, 10.0, busy=0.95, dup=0.501),
            "red": _collapse_entry(800.0, 80.0),
            # Exactly 90% of the baseline per-flow goodput.
            "red_drr": _collapse_entry(900.0, 90.0)}
    return CollapseReport("collapse", legs, race)


def _routeobs_summary():
    return {"pairs": 4, "rounds": 3, "faults": 2, "detected_faults": 2,
            "mttd_mean": 1.0, "mttd_max": 1.5, "false_alarms": 0,
            "blackholes": 1, "path_changes": 1, "mesh_overhead": 0.05,
            "steady": {"pairs": 4, "pairs_with_baseline": 4,
                       "agreements": 4, "disagreements": 0}}


def standin_routeobs(**kw):
    legs = {name: _leg(**kw) for name in RouteObsReport.LEGS}
    summary = {name: _routeobs_summary() for name in RouteObsReport.LEGS}
    return RouteObsReport("routeobs", legs, summary)


STANDINS = {
    "random": standin_random,
    "restart": standin_restart,
    "flows": standin_flows,
    "adversary": standin_adversary,
    "collapse": standin_collapse,
    "routeobs": standin_routeobs,
    "obs": standin_random,
    "netmgmt": standin_netmgmt,
}


def run_main(monkeypatch, tmp_path, capsys, name, report):
    row = dataclasses.replace(cli.CAMPAIGNS[name], run=lambda args: report)
    monkeypatch.setitem(cli.CAMPAIGNS, name, row)
    code = cli.main(["--campaign", name, "--out", str(tmp_path / "r.json")])
    out, err = capsys.readouterr()
    return code, out, err.splitlines()


def test_every_registry_row_has_a_standin():
    assert set(STANDINS) == set(cli.CAMPAIGNS)


@pytest.mark.parametrize("name", sorted(STANDINS))
def test_passing_standin_exits_zero(monkeypatch, tmp_path, capsys, name):
    code, out, err = run_main(monkeypatch, tmp_path, capsys, name,
                              STANDINS[name]())
    assert code == 0
    assert err == []
    assert out.splitlines()[-1].startswith("OK: ")
    assert (tmp_path / "r.json").read_text().startswith("{")


@pytest.mark.parametrize("name", sorted(STANDINS))
def test_unreconverged_fault_fails_every_row(monkeypatch, tmp_path, capsys,
                                             name):
    # Includes obs, whose old standalone CLI exited 0 here.
    code, _, err = run_main(monkeypatch, tmp_path, capsys, name,
                            STANDINS[name](reconverged=False))
    assert code == 1
    assert err == ["FAIL: at least one fault never reconverged"]


@pytest.mark.parametrize("name", sorted(STANDINS))
def test_invariant_violation_fails_every_row(monkeypatch, tmp_path, capsys,
                                             name):
    report = STANDINS[name](violation=True)
    code, _, err = run_main(monkeypatch, tmp_path, capsys, name, report)
    assert code == 1
    assert report.violation_count >= 1
    assert err == [f"FAIL: {report.violation_count} invariant violation(s)"]


def _at(obj, key):
    if isinstance(obj, dict):
        return obj[key]
    if isinstance(obj, list):
        return obj[int(key)]
    return getattr(obj, key)


def _set(report, path, value):
    *head, last = path.split(".")
    obj = report
    for key in head:
        obj = _at(obj, key)
    if isinstance(obj, dict):
        obj[last] = value
    else:
        obj[int(last)] = value


#: (row, dotted path into the stand-in, value one step past the bound,
#: the one failure it must produce).
BOUNDS = [
    ("restart", "counters.payload_intact", False,
     "payload corrupted — 0 byte(s) lost, 0 duplicated"),
    ("netmgmt", "counters.netmgmt.per_fault.0.detected", False,
     "gateway-crash (gateway B1) never raised a correct alarm"),
    ("flows", "race.vc.conversations_died", 0,
     "VC conversation survived the gateway crash (hard state should have "
     "died with the switch)"),
    ("flows", "race.drr.soft_state.reinstalled_within_interval", False,
     "soft-state reservation not re-installed within one refresh interval "
     "of gateway restore"),
    ("flows", "race.drr.usable_saturation_pct", 60.0,
     "DRR voice did not beat FIFO at saturation (drr=60.0 fifo=60.0)"),
    ("flows", "legs.drr.counters.netmgmt.per_fault.0.detected", False,
     "management plane never detected the gateway crash"),
    ("flows", "legs.drr.counters.netmgmt.reservation_loss.detected", False,
     "flow-state-lost alarm never raised for the crash"),
    ("adversary", "legs.tcp.violations", ["checksum bypass"],
     "fuzz[tcp]: checksum bypass"),
    ("adversary", "behavior_detection.1.detected", False,
     "byzantine 'replay' never detected by the management plane "
     "(signatures ['dup'])"),
    ("adversary", "rollouts.tcp_good.state", "promoted-then-alarmed",
     "benign canary config did not promote cleanly "
     "(state promoted-then-alarmed)"),
    ("adversary", "rollouts.tcp_good.rolled_back_at", 30.0,
     "benign canary config did not promote cleanly (state settled)"),
    ("adversary", "rollouts.tcp_good.promoted_at", None,
     "benign canary config did not promote cleanly (state settled)"),
    ("adversary", "rollouts.tcp_broken.promoted_at", 20.0,
     "rollout[tcp_broken]: broken config reached the fleet "
     "(promoted before rollback)"),
    ("adversary", "rollouts.egp_broken.rolled_back_at", None,
     "rollout[egp_broken]: broken config never rolled back (state healthy)"),
    ("adversary", "rollouts.tcp_broken.mttr", None,
     "rollout[tcp_broken]: rolled back but never verified healthy "
     "(state healthy)"),
    ("adversary", "rollouts.egp_broken.state", "rolled-back",
     "rollout[egp_broken]: rolled back but never verified healthy "
     "(state rolled-back)"),
    ("collapse", "race.fifo.goodput_bps.aggregate", 400.0,
     "no collapse: mixed-FIFO goodput is 40.0% of baseline (need < 40%)"),
    ("collapse", "race.fifo.bottleneck_busy.mean", 0.949,
     "bottlenecks only 94.9% busy on the FIFO leg (need >= 95% for the "
     "collapse claim)"),
    ("collapse", "race.red_drr.goodput_bps.conforming_per_flow_mean", 89.0,
     "RED+DRR restored conforming flows to only 89.0% of baseline "
     "(need >= 90%)"),
    ("collapse", "race.fifo.harm.misbehaving_duplicate_fraction", 0.5,
     "harm ledger attributes only 50.0% of duplicate bytes to the "
     "misbehaving ASes (need a majority)"),
    ("collapse", "legs.fifo.counters.netmgmt.per_fault.0.detected", False,
     "management plane never detected the collapse (no misbehaving-hosts "
     "alarm matched)"),
    ("routeobs", "summary.ring.blackholes", 0,
     "ring: no path-blackhole observed (the static-exterior signature)"),
    ("routeobs", "summary.diamond.path_changes", 0,
     "diamond: no path-change observed (the reroute never happened)"),
    ("routeobs", "summary.ring.mesh_overhead", 0.0501,
     "ring: probe-mesh overhead 0.0501 of goodput (need <= 5%)"),
    ("routeobs", "summary.ring.mesh_overhead", None,
     "ring: probe-mesh overhead None of goodput (need <= 5%)"),
] + [
    bound
    for leg in RouteObsReport.LEGS
    for bound in (
        ("routeobs", f"summary.{leg}.steady.pairs_with_baseline", 3,
         f"{leg}: only 3/4 probe pairs baselined before the first fault"),
        ("routeobs", f"summary.{leg}.steady.disagreements", 1,
         f"{leg}: 1 steady-state traceroute-vs-graph disagreements (need 0)"),
        ("routeobs", f"summary.{leg}.steady.agreements", 0,
         f"{leg}: no steady-state differential checks completed"),
        ("routeobs", f"summary.{leg}.detected_faults", 1,
         f"{leg}: only 1/2 faults detected"),
        ("routeobs", f"summary.{leg}.mttd_max", None,
         f"{leg}: no finite MTTD"),
        ("routeobs", f"summary.{leg}.false_alarms", 1,
         f"{leg}: 1 false alarm(s)"),
    )
]


@pytest.mark.parametrize("name,path,value,failure", BOUNDS,
                         ids=[f"{b[0]}:{b[1]}={b[2]}" for b in BOUNDS])
def test_bound_one_step_past_fails_with_its_line(monkeypatch, tmp_path,
                                                 capsys, name, path, value,
                                                 failure):
    report = STANDINS[name]()
    _set(report, path, value)
    code, _, err = run_main(monkeypatch, tmp_path, capsys, name, report)
    assert code == 1
    assert err == [f"FAIL: {failure}"]
