"""Self-tests of the benchmark: its arithmetic, its clean-up, its digest."""

import importlib

import pytest

import layers
import run
import workloads


class FakeClock:
    """A clock the toy call chain advances by known amounts."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeSim:
    def __init__(self):
        self.events_processed = 0
        self.profiler = None


def test_self_time_of_a_nested_call_chain():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock, sample_every=1)

    def inner():
        clock.advance(4.0)

    def middle():
        clock.advance(3.0)
        traced_inner()

    def outer():
        clock.advance(1.0)
        traced_middle()
        clock.advance(2.0)

    traced_inner = tracer.wrap(inner, "ip.lpm")
    traced_middle = tracer.wrap(middle, "ip.arrive")
    traced_outer = tracer.wrap(outer, "netlayer.deliver")
    sim = FakeSim()
    tracer.attach(sim, [])
    assert sim.profiler is tracer

    sim.events_processed = 1          # the engine counts before firing
    traced_outer()
    traced_outer()
    # The engine reports the handler's whole duration: 20 s of wrapped
    # calls plus 5 s of the handler's own code.
    tracer.record("link:A<->B", 25.0)

    stats = tracer.stats
    assert stats["netlayer.deliver"] == [2, 6.0]
    assert stats["ip.arrive"] == [2, 6.0]
    assert stats["ip.lpm"] == [2, 8.0]
    assert stats["netlayer.arrive"] == [1, 5.0]
    assert tracer.handler_s == 25.0
    assert tracer._stack == [0.0]
    assert sum(s[1] for s in stats.values()) == 25.0

    # Every span of the sampled event shares its request id, and each
    # call's parent is the span that called it.
    spans = {s[1]: s for s in tracer.spans}
    assert {s[0] for s in spans.values()} == {1}
    root = next(s for s in spans.values() if s[3] == "event:link:A<->B")
    assert root[2] == 0
    for span in spans.values():
        if span[3] == "netlayer.deliver":
            assert span[2] == root[1]
        if span[3] == "ip.lpm":
            assert spans[span[2]][3] == "ip.arrive"
    tracer.uninstall()
    assert sim.profiler is None


def test_a_raising_call_keeps_the_stack_balanced():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)

    def fails():
        clock.advance(2.0)
        raise KeyError("no route")

    traced = tracer.wrap(fails, "ip.lpm")
    with pytest.raises(KeyError):
        traced()
    assert tracer.stats["ip.lpm"] == [1, 2.0]
    assert tracer._stack == [2.0]


def test_every_wrapped_function_is_restored():
    originals = {}
    for module_name, cls_name, attr, _metric in layers.BOUNDARIES:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        originals[(module_name, cls_name, attr)] = (owner, vars(owner)[attr])

    class Node:
        def __init__(self):
            self.forward_inspectors = [print, len]

    node = Node()
    inspectors = list(node.forward_inspectors)
    sim = FakeSim()
    inner = sim.profiler = object()

    tracer = layers.LayerTracer()
    tracer.install()
    try:
        tracer.attach(sim, [node])
        for (_, _, attr), (owner, original) in originals.items():
            assert vars(owner)[attr] is not original, attr
        assert node.forward_inspectors[0] is not print
        assert tracer.inner is inner and sim.profiler is tracer
    finally:
        tracer.uninstall()

    for (_, _, attr), (owner, original) in originals.items():
        assert vars(owner)[attr] is original, attr
    assert node.forward_inspectors == inspectors
    assert all(a is b for a, b in zip(node.forward_inspectors, inspectors))
    assert sim.profiler is inner


class SmallRing(workloads.RingWorkload):
    shape = dict(n_as=3, gateways_per_as=3, hosts_per_lan=2)
    horizon_s = 16.0


def _run(w):
    w.run()
    w.finish()
    return w.counts()


def test_digest_is_identical_across_runs_reference_units_and_tracing():
    first = _run(SmallRing(seed=11))
    second = _run(SmallRing(seed=11))
    assert first["node"]["delivered"] > 0
    assert run.digest(first) == run.digest(second)

    tracer = layers.LayerTracer()
    tracer.install()
    try:
        w = SmallRing(seed=11)
        tracer.attach(w.sim, w.nodes())
        traced = _run(w)
    finally:
        tracer.uninstall()
    assert run.digest(traced) == run.digest(first)
    hops = traced["node"]["delivered"] + traced["node"]["forwarded"]
    assert tracer.stats["ip.arrive"][0] == hops
    assert tracer.stats["sim.enqueue"][0] > 0
    assert tracer.stats["netlayer.arrive"][0] > 0

    w = SmallRing(seed=11)
    samples = run.time_with_reference(w.sim, 1.0)
    assert run.digest(_run(w)) == run.digest(first)
    assert len(samples) == SmallRing.horizon_s

    other = _run(SmallRing(seed=12))
    assert run.digest(other) != run.digest(first)


def test_checker_flags_drift_and_gate_failures():
    checker = run.Checker("ring", seed=3)
    assert checker.problems({"a": 1}, []) == []
    assert checker.problems({"a": 1}, ["no CBR delivery"]) == \
        ["no CBR delivery"]
    (problem,) = checker.problems({"a": 2}, [])
    assert "['a']" in problem
