"""Internet-scale benchmark: the sharded AS-parallel engine.

Three measurements, written to ``BENCH_scale.json`` at the repo root:

* **engine** — raw scheduler throughput of the rebuilt hot loop: the
  handle-free ``post()`` path (what every packet hop now uses) and the
  cancellable ``schedule()`` path, compared against the PR-1 committed
  baseline of 156,859 events/s (``BENCH_fastpath.json``).
* **single_shard** — the same multi-AS scenario built as one shard and
  run on its plain simulator (no windows, no barriers), in simulation
  events/s and delivered packets/s: the unsharded baseline.
* **scale** — the ≥500-node multi-AS ring partitioned into 4 shards and
  run in this process through the conservative-lookahead window loop,
  with wall-clock events/s plus the determinism digest CI checks against
  the committed report.

Run directly::

    PYTHONPATH=src python benchmarks/bench_scale.py [--quick] [--out PATH]

``--quick`` shrinks the topology and horizon for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

from repro.harness.scaletopo import MultiAsBuilder, ScaleConfig
from repro.sim.engine import Simulator
from repro.sim.shard import ShardedSimulation

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_scale.json"

#: Committed by PR 1 in BENCH_fastpath.json (events_fired_s); the issue's
#: single-worker improvement target is measured against this.
PR1_BASELINE_EVENTS_S = 156_859


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# 1. Engine hot-loop throughput
# ----------------------------------------------------------------------
def bench_engine(quick: bool) -> dict:
    n = 50_000 if quick else 400_000

    sim = Simulator()
    noop = lambda: None
    start = time.perf_counter()
    post = sim.post
    for i in range(n):
        post(i * 1e-6, noop)
    sim.run()
    post_rate = n / (time.perf_counter() - start)

    sim2 = Simulator()
    start = time.perf_counter()
    for i in range(n):
        sim2.schedule(i * 1e-6, lambda: None)
    sim2.run()
    schedule_rate = n / (time.perf_counter() - start)

    return {
        "events": n,
        "post_events_s": round(post_rate),
        "schedule_events_s": round(schedule_rate),
        "pr1_baseline_events_s": PR1_BASELINE_EVENTS_S,
        "post_speedup_vs_pr1": round(post_rate / PR1_BASELINE_EVENTS_S, 2),
        "schedule_speedup_vs_pr1": round(
            schedule_rate / PR1_BASELINE_EVENTS_S, 2),
    }


# ----------------------------------------------------------------------
# 2. Single-shard baseline
# ----------------------------------------------------------------------
def _run_single(cfg: ScaleConfig, horizon: float) -> dict:
    start_wall = time.perf_counter()
    start_cpu = time.process_time()
    build = MultiAsBuilder(cfg)(0, 1)
    build.net.sim.run(until=horizon)
    summary = build.collect()
    wall = time.perf_counter() - start_wall
    cpu = time.process_time() - start_cpu
    events = build.net.sim.events_processed
    packets = summary["delivered"] + summary["forwarded"]
    return {
        "wall_s": round(wall, 3),
        "cpu_s": round(cpu, 3),
        "events": events,
        "events_s": round(events / wall),
        "packets": packets,
        "packets_s": round(packets / wall),
        "delivered": summary["delivered"],
        "sink_packets": summary["sink_packets"],
    }


# ----------------------------------------------------------------------
# 3. Sharded run
# ----------------------------------------------------------------------
def bench_scale(cfg: ScaleConfig, horizon: float, n_shards: int) -> dict:
    builder = MultiAsBuilder(cfg)
    start_wall = time.perf_counter()
    ss = ShardedSimulation(builder, n_shards, lookahead=builder.lookahead())
    ss.run(until=horizon)
    summaries = sorted(ss.collect(), key=lambda s: s["shard"])
    wall = time.perf_counter() - start_wall
    events = sum(s["events_processed"] for s in summaries)
    sink_packets = sum(s["sink_packets"] for s in summaries)
    return {
        "n_shards": n_shards,
        "nodes": cfg.total_nodes,
        "horizon_s": horizon,
        "wall_s": round(wall, 3),
        "events": events,
        "events_s_wall": round(events / wall),
        "delivered": sum(s["delivered"] for s in summaries),
        "sink_packets": sink_packets,
        "flows": sum(s["flows"] for s in summaries),
        "flows_s_wall": round(sink_packets / wall),
        "deterministic": {
            "collect": summaries,
            "messages_crossed": ss.messages_crossed,
            "windows": ss.windows,
        },
    }


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    out_path = OUT_PATH
    if "--out" in argv:
        out_path = pathlib.Path(argv[argv.index("--out") + 1])
    if quick:
        cfg = ScaleConfig(n_as=4, gateways_per_as=4, hosts_per_lan=3, seed=7)
        horizon = 30.0
    else:
        cfg = ScaleConfig(n_as=8, gateways_per_as=8, hosts_per_lan=7, seed=7)
        horizon = 40.0
    results = {
        "benchmark": "internet-scale sharded engine",
        "mode": "quick" if quick else "full",
        "cpus": _cpus(),
        "engine": bench_engine(quick),
        "single_shard": _run_single(cfg, horizon),
        "scale": bench_scale(cfg, horizon, n_shards=4),
    }
    text = json.dumps(results, indent=2)
    print(text)
    if not quick or "--out" in argv:
        out_path.write_text(text + "\n")
        print(f"\nwrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
