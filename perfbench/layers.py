"""Per-layer attribution for a traced run, from outside the program.

:class:`LayerTracer` wraps the public entry point of each layer (a class
method, a module function, or a callable in a public hook list) with a
timer that keeps an exclusive-time stack: every wrapped call adds its
duration to its caller's "time in children", so a layer's ``self_s`` is
the time spent in its own code, not in the layers it called.  Event
handlers are the roots.  The tracer installs itself as the simulator's
public ``profiler`` hook; for each fired event the engine reports the
handler's label and duration, and the part of that duration not covered
by wrapped calls is the event's own self time, attributed by label
(``link:``/``lan:`` arrivals to the netlayer, ``tcp:`` timers to TCP,
and so on).  The engine's own time is the run's wall time minus the
time inside fired handlers.

Spans are sampled by request: every ``sample_every``-th fired event is
recorded whole, as its root span plus one span per wrapped call inside
it, each ``(request id, span id, parent span id, name, start, end)``
where the request id is the fired event's ordinal.  At most
``max_spans`` are kept in memory.

Nothing under ``src/`` changes: :meth:`LayerTracer.install` patches the
attributes and :meth:`LayerTracer.uninstall` puts back the very objects
it found.
"""

from __future__ import annotations

import importlib
import itertools
from time import perf_counter

#: (module, class name or None for a module function, attribute, metric).
BOUNDARIES = (
    ("repro.sim.engine", "Simulator", "post", "sim.enqueue"),
    ("repro.sim.engine", "Simulator", "post_at", "sim.enqueue"),
    # ``schedule`` delegates to ``call_at``, so it is counted there once.
    ("repro.sim.engine", "Simulator", "call_at", "sim.enqueue"),
    ("repro.sim.engine", "EventHandle", "cancel", "sim.cancel"),
    ("repro.netlayer.link", "PointToPointLink", "transmit",
     "netlayer.p2p.transmit"),
    ("repro.netlayer.lan", "LanBus", "transmit", "netlayer.lan.transmit"),
    ("repro.netlayer.link", "Interface", "deliver", "netlayer.deliver"),
    ("repro.netlayer.red", "RedState", "on_enqueue", "netlayer.red"),
    ("repro.flows.scheduler", "DrrScheduler", "enqueue", "flows.enqueue"),
    ("repro.ip.node", "Node", "datagram_arrived", "ip.arrive"),
    ("repro.ip.node", "Node", "send", "ip.send"),
    ("repro.ip.node", "Node", "send_datagram", "ip.send"),
    ("repro.ip.forwarding", "RouteTable", "lookup", "ip.lpm"),
    ("repro.ip.flyweight", "PacketPool", "acquire", "ip.pool"),
    ("repro.ip.flyweight", "PacketPool", "clone_forward", "ip.pool"),
    ("repro.ip.flyweight", "PacketPool", "release", "ip.pool"),
    ("repro.ip.fragmentation", "Reassembler", "accept", "ip.reasm"),
    ("repro.udp.udp", "UdpSocket", "sendto", "udp.sendto"),
    ("repro.udp.udp", None, "encode", "udp.encode"),
    ("repro.udp.udp", None, "decode", "udp.decode"),
    ("repro.tcp.stack", "TcpStack", "transmit", "tcp.transmit"),
    ("repro.tcp.connection", "TcpConnection", "segment_arrived",
     "tcp.arrive"),
    ("repro.tcp.segment", "TcpSegment", "to_bytes", "tcp.encode"),
    ("repro.tcp.segment", "TcpSegment", "from_bytes", "tcp.decode"),
    ("repro.obs.core", "Observability", "hop", "obs.record"),
    ("repro.obs.core", "Observability", "drop", "obs.record"),
    ("repro.obs.core", "Observability", "link_hop", "obs.record"),
)

#: Callables in ``Node.forward_inspectors`` are wrapped per node.
INSPECT_METRIC = "accounting.inspect"

#: Event-label prefix -> the layer an event's own self time belongs to.
#: Events matching none are reported as unattributed.
EVENT_LAYERS = (
    ("link:", "netlayer.arrive"),
    ("lan:", "netlayer.arrive"),
    ("drr:", "flows.dequeue"),
    ("tcp:", "tcp.timer"),
    ("cbr", "apps"),
    ("voice", "apps"),
    ("ecology", "apps"),
    ("traffic", "apps"),
    ("dv", "routing.tick"),
    ("mgmt.", "netmgmt"),
    ("chaos:", "chaos"),
    ("probemesh:", "probe"),
    ("pathprobe:", "probe"),
)
UNATTRIBUTED = "unattributed"

#: Every metric that carries ``calls`` and ``self_s``.
TIMED = tuple(dict.fromkeys(
    [b[3] for b in BOUNDARIES] + [INSPECT_METRIC]
    + [layer for _, layer in EVENT_LAYERS]))


def event_layer(label: str) -> str:
    for prefix, layer in EVENT_LAYERS:
        if label.startswith(prefix):
            return layer
    return UNATTRIBUTED


class LayerTracer:
    """Exclusive time and call counts per layer boundary, plus spans."""

    def __init__(self, *, sample_every: int = 97, max_spans: int = 20_000,
                 clock=perf_counter):
        self.clock = clock
        self.sample_every = sample_every
        self.max_spans = max_spans
        #: metric -> [calls, self seconds]
        self.stats: dict[str, list] = {m: [0, 0.0]
                                       for m in TIMED + (UNATTRIBUTED,)}
        #: Time in wrapped children of each open frame; index 0 is the
        #: current event (the root).
        self._stack: list[float] = [0.0]
        self._patches: list[tuple] = []
        self._label_layer: dict[str, list] = {}
        self.handler_s = 0.0
        self.sim = None
        self.inner = None
        # Span sampling state (valid between two fired events).
        self.sampled = False
        self.request = 0
        self._ids = itertools.count(1)
        self._open: list[tuple] = []
        self._root = None
        self.spans: list[tuple] = []
        self.spans_dropped = 0

    # -- wrapping --------------------------------------------------------
    def wrap(self, fn, metric: str):
        """Return ``fn`` timed as one call of ``metric``."""
        stat = self.stats.setdefault(metric, [0, 0.0])
        stack = self._stack
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            sampled = tracer.sampled
            if sampled:
                span = tracer._open_span()
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed
                if sampled:
                    tracer._close_span(span, metric, t0, t1)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, name: str, metric: str) -> None:
        """Replace ``owner.name`` by its traced version (undone by
        :meth:`uninstall`).  Class- and static-methods stay what they were."""
        own = vars(owner)
        had_own = name in own
        original = own[name] if had_own else getattr(owner, name)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(self.wrap(original.__func__, metric))
        else:
            replacement = self.wrap(original, metric)
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original, had_own))

    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES`.  Do this before the
        network is built, so callables bound at build time are traced."""
        for module_name, cls_name, attr, metric in BOUNDARIES:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            self.patch(owner, attr, metric)

    def attach(self, sim, nodes) -> None:
        """Become ``sim``'s profiler (chaining any profiler already there)
        and wrap the nodes' forward inspectors.  Resets every counter:
        only what happens from here on is attributed."""
        for node in nodes:
            inspectors = node.forward_inspectors
            if inspectors:
                self._patches.append((inspectors, None, list(inspectors),
                                      None))
                inspectors[:] = [self.wrap(f, INSPECT_METRIC)
                                 for f in inspectors]
        for stat in self.stats.values():
            stat[0], stat[1] = 0, 0.0
        self._stack[:] = [0.0]
        self.handler_s = 0.0
        self.sim = sim
        self.inner = sim.profiler
        sim.profiler = self
        self._next_request()

    def uninstall(self) -> None:
        """Restore every patched attribute, list entry and profiler."""
        while self._patches:
            owner, name, original, had_own = self._patches.pop()
            if name is None:
                owner[:] = original
            elif had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        if self.sim is not None:
            self.sim.profiler = self.inner
            self.sim = None

    # -- the engine's profiler hook --------------------------------------
    def record(self, label: str, wall: float) -> None:
        """Called by the engine after every fired event."""
        if self.inner is not None:
            self.inner.record(label, wall)
        stack = self._stack
        children = stack[0]
        stack[0] = 0.0
        stat = self._label_layer.get(label)
        if stat is None:
            stat = self._label_layer[label] = self.stats[event_layer(label)]
        stat[0] += 1
        stat[1] += wall - children
        self.handler_s += wall
        if self.sampled:
            end = self.clock()
            self._keep((self.request, self._root_id(), 0, f"event:{label}",
                        end - wall, end))
        self._next_request()

    # -- spans -----------------------------------------------------------
    def _next_request(self) -> None:
        self.request = self.sim.events_processed + 1
        self.sampled = self.request % self.sample_every == 0
        self._root = None

    def _root_id(self) -> int:
        if self._root is None:
            self._root = next(self._ids)
        return self._root

    def _open_span(self) -> tuple:
        parent = self._open[-1][0] if self._open else self._root_id()
        span = (next(self._ids), parent)
        self._open.append(span)
        return span

    def _close_span(self, span: tuple, name: str, start: float,
                    end: float) -> None:
        self._open.pop()
        self._keep((self.request, span[0], span[1], name, start, end))

    def _keep(self, span: tuple) -> None:
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.spans_dropped += 1
