"""Per-flow packet scheduling at a gateway's outbound interface.

The 1988 gateway was a pure FIFO; the paper's "flows" outlook implies
gateways that give identified flows differentiated treatment.  The
scheduler here implements deficit round robin (a practical weighted fair
queueing) over per-flow queues, plus a plain FIFO mode so experiment E10
can compare the two on the *same* code path.

The scheduler sits in front of the link (via ``Interface.scheduler``) and
meters packets into it at the configured service rate, keeping the link's
own queue empty so the scheduling discipline — not the link FIFO — decides
ordering.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..ip.address import Address
from ..ip.packet import TOS_CE, TOS_ECT, Datagram
from ..netlayer.link import Interface, _obs_of
from ..netlayer.red import DROP, MARK
from ..sim.engine import Simulator
from .flowspec import FlowSpec, flow_key_of

__all__ = ["DrrScheduler", "SchedulerStats"]


@dataclass
class SchedulerStats:
    """Queueing outcomes per scheduler."""

    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
    flushed: int = 0
    migrated: int = 0
    bytes_sent: int = 0


@dataclass
class _FlowQueue:
    """One flow's queue and DRR accounting."""

    key: tuple
    weight: int = 1
    reserved: bool = False
    queue: deque = field(default_factory=deque)  # (datagram, next_hop)
    deficit: int = 0
    packets: int = 0
    drops: int = 0
    red: object = None  # per-flow RedState when the scheduler runs RED


class DrrScheduler:
    """Deficit-round-robin scheduler bound to one interface.

    Parameters
    ----------
    mode:
        ``"drr"`` for per-flow fair queueing, ``"fifo"`` for the classic
        1988 single queue (the baseline).
    quantum:
        Bytes of credit per weight unit per round.
    per_flow_limit:
        Maximum queued packets per flow (or for the single FIFO).
    """

    def __init__(
        self,
        sim: Simulator,
        iface: Interface,
        service_rate_bps: float,
        *,
        mode: str = "drr",
        quantum: int = 600,
        per_flow_limit: int = 32,
        default_weight: int = 1,
        frame_overhead: Optional[int] = None,
    ):
        if mode not in ("drr", "fifo"):
            raise ValueError(f"unknown scheduler mode {mode!r}")
        self.sim = sim
        self.iface = iface
        self.rate = service_rate_bps
        # The link charges framing bytes per packet; the scheduler must
        # meter at the same effective rate or it overruns the link queue.
        if frame_overhead is None:
            frame_overhead = getattr(iface.medium, "FRAME_OVERHEAD", 0) or 0
        self.frame_overhead = frame_overhead
        self.mode = mode
        self.quantum = quantum
        self.per_flow_limit = per_flow_limit
        self.default_weight = default_weight
        self.stats = SchedulerStats()
        self._flows: dict[tuple, _FlowQueue] = {}
        self._round: deque = deque()      # active flow keys
        self._specs: list[FlowSpec] = []
        self._busy = False
        #: Bumped by flush(): a scheduled drr:serve callback from before
        #: the flush must not transmit on behalf of the new epoch (the
        #: same pattern as the link's epoch-stamped arrivals).
        self._epoch = 0
        #: Key of the flow whose once-per-visit quantum has been granted
        #: for its current tenure at the head of the round.
        self._head_topped: Optional[tuple] = None
        #: Optional per-flow RED factory consulted before admission
        #: (see :meth:`enable_red`).
        self._red_factory = None
        iface.scheduler = self

    def enable_red(self, red_factory) -> None:
        """Run RED over each flow's *own* backlog (FRED-style).

        ``red_factory(flow_key)`` must return a fresh
        :class:`~repro.netlayer.red.RedState` the first time a flow is
        seen; every later arrival of that flow is offered to its own
        state with its own queue length.  Early signals mark ECN-capable
        datagrams CE and drop the rest, before the per-flow limit is
        consulted.

        Per-flow state is deliberate: with one aggregate average, an
        unresponsive flow parked at its queue limit would keep the
        average high and the *responsive* flows would absorb the marks —
        the classic RED unfairness.  Here DRR isolates service rates and
        RED keeps each flow's standing queue short on its own merits.
        In ``fifo`` mode everything classifies to the single queue, so
        the same hook degenerates to classic RED on a FIFO.
        """
        self._red_factory = red_factory

    # ------------------------------------------------------------------
    # Classification state (installed by the soft-state agent)
    # ------------------------------------------------------------------
    def install_spec(self, spec: FlowSpec) -> None:
        """Recognize a reserved flow (idempotent refresh).

        Packets of this flow that arrived *before* the reservation sit in
        the implicit ``flow_key_of()`` queue; they are migrated into the
        spec's queue so one flow never straddles two queues — left split,
        DRR would interleave the two queues and reorder the flow.
        """
        self._specs = [s for s in self._specs if s.key != spec.key]
        self._specs.append(spec)
        flow = self._flows.get(spec.key)
        if flow is not None:
            flow.weight = spec.weight
            flow.reserved = True
        if self.mode == "fifo":
            return
        implicit = self._flows.get((int(spec.src), int(spec.dst),
                                    spec.protocol))
        if implicit is None or not implicit.queue or implicit is flow:
            return
        if flow is None:
            flow = _FlowQueue(key=spec.key, weight=spec.weight,
                              reserved=True)
            self._flows[spec.key] = flow
        kept: deque = deque()
        moved = 0
        for datagram, next_hop in implicit.queue:
            if spec.matches(datagram):
                flow.queue.append((datagram, next_hop))
                moved += 1
            else:
                kept.append((datagram, next_hop))
        implicit.queue = kept
        if moved:
            implicit.packets -= moved
            flow.packets += moved
            self.stats.migrated += moved
            if flow.key not in self._round:
                self._round.append(flow.key)

    def remove_spec(self, spec_key: tuple) -> None:
        """Soft-state expiry: the flow falls back to best-effort weight.

        The inverse migration of :meth:`install_spec`: whatever is still
        queued under the spec's key moves back to the implicit key that
        future packets of this flow will classify to.
        """
        self._specs = [s for s in self._specs if s.key != spec_key]
        flow = self._flows.get(spec_key)
        if flow is None:
            return
        flow.weight = self.default_weight
        flow.reserved = False
        if self.mode == "fifo" or not flow.queue or len(spec_key) < 4:
            return
        implicit_key = spec_key[:3]
        implicit = self._flows.get(implicit_key)
        if implicit is None:
            implicit = _FlowQueue(key=implicit_key,
                                  weight=self.default_weight)
            self._flows[implicit_key] = implicit
        moved = len(flow.queue)
        implicit.queue.extend(flow.queue)
        flow.queue.clear()
        flow.deficit = 0
        implicit.packets += moved
        flow.packets -= moved
        self.stats.migrated += moved
        if implicit_key not in self._round:
            self._round.append(implicit_key)

    @property
    def installed_specs(self) -> list[FlowSpec]:
        return list(self._specs)

    def _classify(self, datagram: Datagram) -> _FlowQueue:
        if self.mode == "fifo":
            key = ("fifo",)
            weight, reserved = 1, False
        else:
            key, weight, reserved = None, self.default_weight, False
            for spec in self._specs:
                if spec.matches(datagram):
                    key, weight, reserved = spec.key, spec.weight, True
                    break
            if key is None:
                key = flow_key_of(datagram)
        flow = self._flows.get(key)
        if flow is None:
            flow = _FlowQueue(key=key, weight=weight, reserved=reserved)
            self._flows[key] = flow
        return flow

    # ------------------------------------------------------------------
    # Enqueue / service loop
    # ------------------------------------------------------------------
    def enqueue(self, datagram: Datagram, next_hop: Optional[Address]) -> None:
        flow = self._classify(datagram)
        if self._red_factory is not None:
            if flow.red is None:
                flow.red = self._red_factory(flow.key)
            verdict = flow.red.on_enqueue(
                len(flow.queue), self.sim.now,
                ect=bool(datagram.tos & TOS_ECT))
            if verdict == DROP:
                flow.drops += 1
                self.stats.dropped += 1
                self._drop(datagram, "drop-red-early", flow.key, notify=True)
                return
            if verdict == MARK:
                datagram.tos |= TOS_CE
        if len(flow.queue) >= self.per_flow_limit:
            flow.drops += 1
            self.stats.dropped += 1
            self._drop(datagram, "drop-flow-queue-full", flow.key, notify=True)
            return
        flow.queue.append((datagram, next_hop))
        flow.packets += 1
        self.stats.enqueued += 1
        if len(flow.queue) == 1 and flow.key not in self._round:
            self._round.append(flow.key)
        if not self._busy:
            self._serve_next()

    def _drop(self, datagram: Datagram, reason: str, flow_key: tuple,
              *, notify: bool = False) -> None:
        """Account one scheduler drop (per-flow reason).

        With ``notify``, congestion drops also feed the interface's
        queue-drop machinery (drop counter + ``on_queue_drop`` hook) so
        a :class:`~repro.ip.quench.SourceQuencher` watching this
        interface still fires when a scheduler fronts the link — without
        it, scheduler-fronted bottlenecks were quench-blind.  Flush and
        migration drops stay silent: a crashing node must not advise
        anyone.
        """
        obs = _obs_of(self.iface)
        node = self.iface.node
        if obs is not None and node is not None:
            obs.drop(self.sim.now, node.name, reason, datagram,
                     f"{self.iface.name} flow={flow_key}")
        if notify:
            self.iface.stats.packets_dropped_queue += 1
            if self.iface.on_queue_drop is not None:
                self.iface.on_queue_drop(datagram)

    def _serve_next(self, epoch: Optional[int] = None) -> None:
        if epoch is not None and epoch != self._epoch:
            return  # scheduled before a flush(): this service chain is dead
        selected = self._select()
        if selected is None:
            self._busy = False
            return
        datagram, next_hop = selected
        self._busy = True
        self.stats.dequeued += 1
        # Read before the hand-off (DESIGN.md §13, bug 2).
        length = datagram.total_length
        self.stats.bytes_sent += length
        self.iface.transmit_now(datagram, next_hop)
        tx_time = (length + self.frame_overhead) * 8.0 / self.rate
        self.sim.schedule(
            tx_time,
            lambda epoch=self._epoch: self._serve_next(epoch),
            label="drr:serve")

    def flush(self) -> int:
        """Drop everything queued and invalidate the pending serve
        callback.  Called when the owning node crashes: its queues die
        with it (fate-sharing), and nothing it queued may reach the wire
        afterwards.  Returns the number of packets flushed."""
        flushed = 0
        for flow in self._flows.values():
            while flow.queue:
                datagram, _next_hop = flow.queue.popleft()
                flow.drops += 1
                flushed += 1
                self._drop(datagram, "drop-flow-flush", flow.key)
            flow.deficit = 0
        self._round.clear()
        self._head_topped = None
        self._busy = False
        self._epoch += 1
        self.stats.flushed += flushed
        return flushed

    def _select(self) -> Optional[tuple]:
        """DRR selection: rotate flows, spending deficit credit."""
        # Each iteration pops an empty flow, returns a packet, or rotates
        # after granting one per-visit quantum — so every flow is reached;
        # the guard is a backstop against a zero-quantum misconfiguration.
        guard = 0
        while self._round and guard < 10_000:
            guard += 1
            key = self._round[0]
            flow = self._flows.get(key)
            if flow is None or not flow.queue:
                self._round.popleft()
                if flow is not None:
                    flow.deficit = 0
                if self._head_topped == key:
                    self._head_topped = None
                continue
            head_size = flow.queue[0][0].total_length
            if self.mode == "fifo":
                return flow.queue.popleft()
            # Grant the quantum exactly once per tenure at the head.
            if self._head_topped != key:
                flow.deficit += self.quantum * flow.weight
                self._head_topped = key
            if flow.deficit >= head_size:
                flow.deficit -= head_size
                item = flow.queue.popleft()
                if not flow.queue:
                    flow.deficit = 0
                    self._round.popleft()
                    self._head_topped = None
                return item
            # This visit's credit is spent: move to the back of the round.
            self._round.rotate(-1)
            self._head_topped = None
        return None

    # ------------------------------------------------------------------
    @property
    def queued_packets(self) -> int:
        return sum(len(f.queue) for f in self._flows.values())

    def red_counters(self) -> dict:
        """Summed RED outcomes across every flow's state (empty when RED
        is not enabled)."""
        totals: dict = {}
        for flow in self._flows.values():
            if flow.red is None:
                continue
            for key, value in flow.red.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def flow_stats(self) -> dict[tuple, tuple[int, int]]:
        """Per-flow (packets served, drops) for experiment tables."""
        return {k: (f.packets, f.drops) for k, f in self._flows.items()}
