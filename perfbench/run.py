"""The repository benchmark: one seeded workload per process, wall clock.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ring --seed 7 --seconds 18 --trace 0
    python3 perfbench/run.py --workload ring --seed 7 --seconds 18 --trace 1
    python3 perfbench/run.py --workload ring --rebaseline

``--trace 0`` builds and runs the workload a fixed number of times, each
time from scratch, as many as fill ``--seconds`` on the reference
machine, and reports the end-to-end metrics (see :func:`measure`).
``--trace 1`` runs it once untraced and once traced (see ``layers.py``),
whatever ``--seconds`` says, and reports the per-layer metrics.  Every
run checks the workload's deterministic count digest: against
``expected.json`` for the recorded seed, and otherwise between the
repetitions of this process (and between the untraced and the traced
run).  ``--rebaseline``
rewrites the recorded counts of one workload; a change that does so says
why in CHANGES.md.

Human-readable lines come first; the last line of standard output is
the JSON result.  A record of the run (its envelope, every repetition's
samples and digest, and the traced run's span sample) is written under
``perfbench/out/``.  METRICS.md describes every metric and workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import math
import os
import platform
import random
import resource
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
EXPECTED = HERE / "expected.json"
#: The seed whose counts are recorded in ``expected.json``.
RECORDED_SEED = 7
#: Nominal wall seconds of one repetition of any workload on the
#: reference machine (a 2-CPU x86-64 container, CPython 3.11): each
#: workload is sized to about this.  A measured run makes ``--seconds``
#: over this many repetitions, a count that does not depend on how fast
#: the code under test runs, so every commit gets as many samples.
REPETITION_S = 6.0
#: Simulated seconds between two reference units in a repetition.
REF_EVERY = 2.0
#: Wall seconds of one reference unit at the reference machine's nominal
#: speed (about the fastest it ran there).
REF_NOMINAL_S = 0.013
#: Build-only samples taken after each measured repetition, so set-up
#: time is drawn from many builds spread over the whole run.
SETUP_PER_RUN = 7

#: Names and units of the reported metrics, per ``--trace`` value.
SPEC = ROOT / "BENCHMARK.json"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:16]


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def git_state() -> tuple:
    """(sha, dirty) of the checkout, or (None, None) outside a git tree.
    Discovery stops at the checkout root: a parent repository is never
    consulted."""
    if not (ROOT / ".git").exists():
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
            check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def envelope(workload: str, seed: int, traced: bool, config: dict,
             repetitions: int) -> dict:
    sha, dirty = git_state()
    return {
        "workload": workload,
        "seed": seed,
        "trace": traced,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": sha,
        "git_dirty": dirty,
        "config_digest": digest(config),
        "repetitions": repetitions,
    }


class Checker:
    """Holds the reference counts and judges each run against them."""

    def __init__(self, workload: str, seed: int):
        self.reference = None
        self.source = "first run of this process"
        if seed == RECORDED_SEED and EXPECTED.exists():
            recorded = json.loads(EXPECTED.read_text()).get(workload)
            if recorded is not None:
                self.reference = recorded
                self.source = f"expected.json (seed {RECORDED_SEED})"

    def problems(self, counts: dict, gate_failures: list) -> list:
        if self.reference is None:
            self.reference = counts
        problems = list(gate_failures)
        if counts != self.reference:
            keys = sorted(k for k in set(counts) | set(self.reference)
                          if counts.get(k) != self.reference.get(k))
            problems.append(f"counts differ from {self.source} in {keys}")
        return problems


def build_timed(workloads, name: str, seed: int):
    gc.collect()
    start = time.perf_counter()
    w = workloads.build(name, seed)
    return w, time.perf_counter() - start


def attempt(checker: Checker, build, after_run=None) -> dict:
    """One build-and-run.  Returns its samples and its problems: gate
    failures, count drift, or the exception it raised.  ``after_run(w,
    wall)`` is called as soon as the run ends, before any settlement or
    counting; what it returns is kept under ``"after_run"``."""
    try:
        w, setup = build()
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        w.run()
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        extra = after_run(w, wall) if after_run is not None else None
        w.finish()
        counts = w.counts()
        problems = checker.problems(counts, w.gate_failures(counts))
    except Exception as exc:  # counted as a failed run; the next one goes on
        return {"problems": [f"{type(exc).__name__}: {exc}"]}
    node = counts["node"]
    result = {"setup_s": setup, "wall_s": wall, "cpu_s": cpu,
              "hops": node["delivered"] + node["forwarded"],
              "digest": digest(counts), "problems": problems}
    if after_run is not None:
        result["after_run"] = extra
    return result


_HEADER = struct.Struct("!BBHII")


class _RefEvent:
    __slots__ = ("time", "handler", "data")

    def __init__(self, time: float, handler, data: bytes):
        self.time = time
        self.handler = handler
        self.data = data

    def __lt__(self, other) -> bool:
        return self.time < other.time


class _RefRouter:
    def __init__(self):
        self.routes = {prefix << 8: prefix for prefix in range(50)}
        self.queue = []

    def arrive(self, data: bytes) -> None:
        version, ttl, proto, src, dst = _HEADER.unpack_from(data)
        if ttl > 1 and self.routes.get(dst & 0xFFFFFF00) is not None:
            self.queue.append(_HEADER.pack(version, ttl - 1, proto, src, dst)
                              + data[_HEADER.size:])
            if len(self.queue) > 64:
                self.queue.clear()


def reference_unit() -> None:
    """A fixed piece of pure-Python work that uses none of the code under
    test but does what the simulator's inner loop does: a heap of event
    objects whose handlers unpack a header, look up a route and pack a
    forwarded datagram.  Its time tells how fast the machine runs that
    kind of code at that moment."""
    rng = random.Random(2)
    routers = [_RefRouter() for _ in range(64)]
    payload = bytes(100)
    heap = []
    for i in range(4000):
        data = _HEADER.pack(4, 9, 6, i, (i % 60) << 8) + payload
        heapq.heappush(heap, _RefEvent(rng.random() + i,
                                       routers[i % 64].arrive, data))
        if len(heap) > 200:
            event = heapq.heappop(heap)
            event.handler(event.data)


def time_with_reference(sim, every: float) -> list:
    """Make ``sim.run(until)`` stop at each multiple of ``every``
    simulated seconds and time one :func:`reference_unit` there, and
    return the list that collects, per slice of the run, its (wall, CPU)
    seconds and the wall seconds of the unit after it.  The events fired,
    and their order, are those of one uninterrupted run."""
    run = sim.run
    samples = []

    def run_with_reference(until, **kwargs):
        if not math.isfinite(until):
            raise ValueError("a run timed with a reference needs a finite "
                             "horizon")
        t = sim.now
        while t < until:
            t = min(until, (math.floor(t / every) + 1) * every)
            cpu0 = cpu_seconds()
            start = time.perf_counter()
            end = run(until=t, **kwargs)
            wall = time.perf_counter() - start
            cpu = cpu_seconds() - cpu0
            start = time.perf_counter()
            reference_unit()
            samples.append((wall, cpu, time.perf_counter() - start))
            if end < t:       # stopped early: so does the caller's run
                break
        return sim.now

    sim.run = run_with_reference
    return samples


def measure(workloads, name: str, seed: int, seconds: float) -> dict:
    """A fixed number of untraced repetitions, each built from scratch.

    The number is ``seconds`` over :data:`REPETITION_S`.  Every
    repetition fires the same events in the same order, so what differs
    between them is how fast the machine ran, and on a shared machine
    that drifts by a third over minutes.  So each repetition runs a
    :func:`reference_unit` every :data:`REF_EVERY` simulated seconds, and
    its wall and CPU times (the units left out) are scaled by
    :data:`REF_NOMINAL_S` over the units' mean time: the repetition's
    times at the speed at which a unit takes :data:`REF_NOMINAL_S`.
    ``wall_s`` and ``cpu_s`` are the medians of those over the
    repetitions.  A build is short enough that the fastest of many meets
    a quiet moment, as the fastest reference unit does: ``setup_s`` is
    the fastest build, over every build including :data:`SETUP_PER_RUN`
    build-only samples after each repetition (each starting from the
    same heap state: one network just freed), scaled by
    :data:`REF_NOMINAL_S` over the fastest unit.
    """
    checker = Checker(name, seed)
    runs, setups = [], []

    def build():
        w, setup = build_timed(workloads, name, seed)
        w.samples = time_with_reference(w.sim, REF_EVERY)
        return w, setup

    for _ in range(max(1, round(seconds / REPETITION_S))):
        result = attempt(checker, build, lambda w, wall: w.samples)
        samples = result.pop("after_run", None)
        if samples:
            wall, cpu, refs = (list(column) for column in zip(*samples))
            scale = REF_NOMINAL_S / statistics.mean(refs)
            result.update(raw_wall_s=sum(wall), raw_cpu_s=sum(cpu),
                          ref_s=refs, wall_s=sum(wall) * scale,
                          cpu_s=sum(cpu) * scale)
        runs.append(result)
        if not result["problems"]:
            setups.append(result["setup_s"])
            setups += [build_timed(workloads, name, seed)[1]
                       for _ in range(SETUP_PER_RUN)]
    good = [r for r in runs if not r["problems"]]
    metrics = None
    if good:
        wall = statistics.median(r["wall_s"] for r in good)
        fastest_ref = min(min(r["ref_s"]) for r in good)
        metrics = {
            "wall_s": wall,
            "setup_s": min(setups) * REF_NOMINAL_S / fastest_ref,
            "hops_per_s": good[0]["hops"] / wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in good),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {"runs": runs, "setups": setups, "metrics": metrics,
            "reference": checker.source, "counts": checker.reference}


def measure_traced(workloads, layers, name: str, seed: int) -> dict:
    """One untraced run, then one traced run of the same inputs; the two
    must produce the same counts.  The tracer comes off the moment the
    traced run ends, so settlement and counting are not attributed."""
    checker = Checker(name, seed)
    plain = attempt(checker, lambda: build_timed(workloads, name, seed))
    tracer = layers.LayerTracer()

    def build():
        w, setup = build_timed(workloads, name, seed)
        tracer.attach(w.sim, w.nodes())
        return w, setup

    def after_run(w, wall):
        tracer.uninstall()
        if "wall_s" not in plain:
            return None
        return layer_metrics(layers, tracer, w, wall, plain["wall_s"])

    tracer.install()
    try:
        traced = attempt(checker, build, after_run)
    finally:
        tracer.uninstall()
    metrics = traced.pop("after_run", None)
    if plain["problems"] or traced["problems"]:
        metrics = None
    return {"runs": [plain, traced], "metrics": metrics, "tracer": tracer,
            "reference": checker.source, "counts": checker.reference}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(layers, tracer, w, traced_wall: float,
                  plain_wall: float) -> dict:
    """Every per-layer metric of one traced run (see METRICS.md)."""
    stats = tracer.stats
    m = {}
    for name in layers.TIMED:
        m[f"{name}.calls"] = stats[name][0]
        m[f"{name}.self_s"] = stats[name][1]
    sim_self = traced_wall - tracer.handler_s
    nodes = w.nodes()
    node_totals = {key: sum(getattr(n.stats, key) for n in nodes)
                   for key in ("delivered", "forwarded", "icmp_sent",
                               "dropped_no_route", "dropped_ttl",
                               "dropped_down", "dropped_df",
                               "dropped_bad_header", "dropped_not_mine")}
    hops = node_totals["delivered"] + node_totals["forwarded"]
    hits = misses = 0
    for node in nodes:
        counters = node.routes.counters()
        hits += counters["cache_hits"]
        misses += counters["cache_misses"]
    pool = w.pool.counters() if w.pool is not None else {}
    transmits = (stats["netlayer.p2p.transmit"][0]
                 + stats["netlayer.lan.transmit"][0])
    queue_drops = sum(i.stats.packets_dropped_queue for i in w.interfaces())
    conns = w.tcp_connections()
    tcp_sent = sum(c.stats.bytes_sent for c in conns)
    tcp_delivered = sum(c.stats.bytes_delivered for c in conns)
    procs = w.routing_processes()
    m.update({
        "sim.events": w.sim.events_processed,
        "sim.self_s": sim_self,
        "sim.compactions": w.sim.compactions,
        "netlayer.queue_drops": queue_drops,
        "netlayer.drop_ratio": _ratio(queue_drops, transmits),
        "flows.drops": sum(s.stats.dropped for s in w.schedulers),
        "ip.lpm.hit_ratio": _ratio(hits, hits + misses),
        "ip.lpm.calls_per_hop": _ratio(stats["ip.lpm"][0], hops),
        "ip.pool.reuse_ratio": _ratio(
            pool.get("reused", 0),
            pool.get("reused", 0) + pool.get("allocated", 0)),
        "ip.hops": hops,
        "ip.dropped": sum(v for k, v in node_totals.items()
                          if k.startswith("dropped_")),
        "ip.icmp_sent": node_totals["icmp_sent"],
        "ip.icmp_suppressed": sum(n.icmp_suppressed for n in nodes),
        "tcp.goodput_ratio": _ratio(tcp_delivered, tcp_sent),
        "tcp.bytes_retransmitted": sum(c.stats.bytes_retransmitted
                                       for c in conns),
        "routing.updates_received": sum(p.stats.updates_received
                                        for p in procs),
        "routing.triggered_updates": sum(p.stats.triggered_updates
                                         for p in procs),
        "obs.spans": (w.obs.spans.spans_recorded
                      if w.obs is not None else 0),
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": _ratio(traced_wall, plain_wall),
    })
    # Traced wall minus every self time above: exactly the self time of
    # the events no layer claims, accumulated as such (no cancellation).
    m["trace.unattributed_s"] = stats[layers.UNATTRIBUTED][1]
    return m


def write_record(name: str, seed: int, traced: bool, record: dict,
                 tracer=None) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        fields = ("request", "span", "parent", "name", "start", "end")
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(dict(zip(fields, span))) + "\n")
    return path


def rebaseline(workloads, name: str) -> int:
    """Record the counts of one run at :data:`RECORDED_SEED`."""
    w = workloads.build(name, RECORDED_SEED)
    w.run()
    w.finish()
    counts = w.counts()
    failures = w.gate_failures(counts)
    if failures:
        print(f"{name}: gates fail, not recorded: {failures}",
              file=sys.stderr)
        return 1
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    recorded[name] = counts
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                        + "\n")
    print(f"{name}: recorded counts {digest(recorded[name])} "
          f"for seed {RECORDED_SEED}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rebaseline", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {workloads.NAMES}")
    if args.rebaseline:
        return rebaseline(workloads, args.workload)

    # Warm-up build: lazy imports and first-use caches are not set-up.
    config = workloads.build(args.workload, args.seed).config()
    traced = bool(args.trace)
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if traced else "end_to_end"]}
    if traced:
        result = measure_traced(workloads, layers, args.workload, args.seed)
    else:
        result = measure(workloads, args.workload, args.seed, args.seconds)
    tracer = result.pop("tracer", None)
    runs = result["runs"]
    failed = sum(1 for r in runs if r["problems"])
    record = dict(result, envelope=envelope(args.workload, args.seed,
                                            traced, config, len(runs)),
                  config=config)
    if tracer is not None:
        record["spans"] = {"kept": len(tracer.spans),
                           "dropped": tracer.spans_dropped}
    path = write_record(args.workload, args.seed, traced, record, tracer)

    env = record["envelope"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"cpus={env['cpus']} python={env['python']} "
          f"git={env['git_sha']}{'+dirty' if env['git_dirty'] else ''} "
          f"config={env['config_digest']} "
          f"repetitions={env['repetitions']}")
    digests = sorted({r["digest"] for r in runs if "digest" in r})
    print(f"# digest {','.join(digests)} checked against "
          f"{result['reference']}; record in {path.relative_to(ROOT)}")
    for r in runs:
        for problem in r["problems"]:
            print(f"# FAILED: {problem}")
    print(f"{'error_rate':24s} {failed / len(runs):.4f} "
          f"(failed/attempted = {failed}/{len(runs)})")
    metrics = result["metrics"]
    if metrics is None:
        print("no run succeeded; nothing to report", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} differ from "
              f"{SPEC.name}", file=sys.stderr)
        return 1
    raw = [r["raw_wall_s"] for r in runs if "raw_wall_s" in r]
    if raw:
        refs = [t for r in runs for t in r.get("ref_s", ())]
        print(f"# unscaled run wall {min(raw):.4g}-{max(raw):.4g} s; "
              f"reference unit {1000 * min(refs):.4g}-"
              f"{1000 * max(refs):.4g} ms, nominal "
              f"{1000 * REF_NOMINAL_S:.4g} ms")
    for key, value in metrics.items():
        print(f"{key:24s} {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
