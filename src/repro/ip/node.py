"""Hosts and gateways: the nodes of the internetwork.

The architectural split the paper centres on lives here:

* **Gateways** forward datagrams statelessly.  Their only state is the
  routing table — derivable, rebuildable information.  A gateway can crash,
  reboot with empty tables, relearn routes, and no conversation is harmed:
  that is *fate-sharing* (goal 1, experiment E1/E8).
* **Hosts** hold all conversation state (TCP connections, reassembly
  buffers) and implement the transport machinery themselves (goal 6).

A :class:`Node` serves both roles; ``is_gateway`` enables forwarding.  Both
use the same datagram path: route lookup by longest-prefix match, TTL
decrement in transit, fragmentation to the outgoing MTU, ICMP error
generation on failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ..netlayer.link import Interface
from ..sim.engine import Simulator
from ..sim.trace import NullTracer, Tracer
from .address import Address, Prefix
from .forwarding import NoRouteError, Route, RouteTable
from .fragmentation import FragmentationError, Reassembler, fragment
from . import icmp
from .packet import Datagram, IP_HEADER_LEN, PROTO_ICMP

__all__ = ["Node", "NodeStats", "ProtocolHandler"]

#: Signature for transport-layer input: (node, datagram, incoming interface).
ProtocolHandler = Callable[["Node", Datagram, Optional[Interface]], None]


@dataclass
class NodeStats:
    """Datagram-path counters; the raw material for goals 5 and 7."""

    originated: int = 0
    delivered: int = 0
    forwarded: int = 0
    dropped_no_route: int = 0
    dropped_ttl: int = 0
    dropped_down: int = 0
    dropped_df: int = 0
    dropped_bad_header: int = 0
    dropped_not_mine: int = 0
    fragments_created: int = 0
    icmp_sent: int = 0
    icmp_received: int = 0
    bytes_originated: int = 0
    bytes_delivered: int = 0
    bytes_forwarded: int = 0
    #: Abstract per-packet processing cost (header handling work units),
    #: the proxy for 1988 gateway CPU cost in E5/E7.
    work_units: int = 0


class Node:
    """One host or gateway in the internetwork.

    Parameters
    ----------
    name:
        Unique human-readable identifier.
    sim:
        The discrete-event scheduler everything runs on.
    is_gateway:
        Enables datagram forwarding between interfaces.
    tracer:
        Optional :class:`~repro.sim.trace.Tracer` for protocol-event logs.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        *,
        is_gateway: bool = False,
        tracer: Optional[Tracer] = None,
        reassembly_timeout: float = 15.0,
    ):
        self.name = name
        self.sim = sim
        self.is_gateway = is_gateway
        self.tracer = tracer if tracer is not None else NullTracer()
        #: Optional :class:`~repro.obs.core.Observability` layer.  None by
        #: default; :meth:`Observability.attach_node` sets it.  Every use
        #: below is guarded by ``obs is not None and obs.enabled`` so the
        #: un-observed fast path pays one attribute load per packet.
        self.obs = None
        self.interfaces: list[Interface] = []
        #: Integer values of every owned interface address — the
        #: per-arrival ``owns_address`` check as one set probe instead of
        #: a generator sweep over the interface list.
        self._owned_values: set[int] = set()
        # The table's clock feeds route provenance: install stamps carry
        # the sim time the entry appeared, not wall time.
        self.routes = RouteTable(clock=lambda: self.sim.now)
        self.stats = NodeStats()
        self.up = True
        #: Simulation time of the last (re)boot — the management agent's
        #: ``sys.uptime`` anchor.  A restore() resets it: a rebooted box
        #: reports a young uptime, which is exactly how an operator
        #: notices the reboot from the outside.
        self.boot_time = sim.now
        #: Gateways advise hosts of better first hops (ICMP Redirect) when
        #: a datagram leaves by the interface it arrived on.
        self.send_redirects = True
        #: Hosts install host routes from received redirects.
        self.accept_redirects = not is_gateway
        self._redirects_sent_to: dict[tuple, float] = {}
        #: ICMP error rate limit: at most one error per (icmp type, peer)
        #: per ``icmp_error_interval`` seconds.  A garbage flood from one
        #: source then costs us at most a trickle of replies — without the
        #: limit every unroutable/expired datagram buys a full-size ICMP
        #: error, and the error stream amplifies the attack (cf. the
        #: redirect limiter above, which this generalizes).
        self.icmp_error_interval = 1.0
        self._icmp_errors_sent_to: dict[tuple, float] = {}
        self.icmp_suppressed = 0
        #: Source Quench is budgeted separately from other ICMP errors:
        #: it is the congestion signal itself, and folding it into the
        #: one-per-interval limiter above would silence it precisely
        #: during a collapse, when many drops per source need advising.
        #: Each source gets up to ``quench_budget`` quenches per
        #: ``icmp_error_interval`` window instead.
        self.quench_budget = 8
        self._quench_windows: dict[int, tuple[float, int]] = {}
        self.quench_suppressed = 0
        self.reassembler = Reassembler(sim, timeout=reassembly_timeout,
                                       owner=self)
        self._protocols: dict[int, ProtocolHandler] = {}
        self._icmp_error_listeners: list[Callable[["Node", icmp.IcmpMessage, Datagram], None]] = []
        self._echo_waiters: dict[tuple[int, int], Callable[[float], None]] = {}
        self._ident = itertools.count(1)
        #: Hooks run by crash()/restore(); routing protocols register here.
        self.on_crash: list[Callable[[], None]] = []
        self.on_restore: list[Callable[[], None]] = []
        #: Called with every datagram in transit (gateway only) — used by
        #: the flow/soft-state extension and the accounting module to
        #: observe traffic without joining the forwarding decision.
        self.forward_inspectors: list[Callable[[Datagram], None]] = []
        #: Optional transit interposer: called in place of the output step
        #: with each forwarded clone, returns whether it was sent, and
        #: passes datagrams on through :meth:`output_transit`.  The
        #: declared hook for in-path behaviour such as a byzantine
        #: gateway; while it is set, every hop takes the reference path.
        self.transit_interposer: Optional[Callable[[Datagram], bool]] = None
        #: FlowGateways attached to this node; the observability registry,
        #: the management MIB and the chaos FlowStateMonitor discover the
        #: soft-state plane through this list.
        self.flow_gateways: list = []

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_interface(self, iface: Interface, *, install_direct_route: bool = True) -> Interface:
        """Attach an interface; by default installs the connected route."""
        iface.node = self
        self.interfaces.append(iface)
        self._owned_values.add(int(iface.address))
        if install_direct_route:
            self.routes.install(
                Route(prefix=iface.prefix, interface=iface, next_hop=None,
                      metric=0, source="connected")
            )
        return iface

    def register_protocol(self, number: int, handler: ProtocolHandler) -> None:
        """Register the upcall for a transport protocol number."""
        self._protocols[number] = handler

    def add_icmp_error_listener(
        self, listener: Callable[["Node", icmp.IcmpMessage, Datagram], None]
    ) -> None:
        """Subscribe to ICMP errors delivered to this node (transports use
        this to learn of unreachable destinations / quench signals)."""
        self._icmp_error_listeners.append(listener)

    @property
    def addresses(self) -> list[Address]:
        return [iface.address for iface in self.interfaces]

    @property
    def address(self) -> Address:
        """Primary (first-interface) address; convenient for hosts."""
        if not self.interfaces:
            raise RuntimeError(f"node {self.name} has no interfaces")
        return self.interfaces[0].address

    def owns_address(self, address: Address) -> bool:
        return int(address) in self._owned_values

    def interface_by_name(self, name: str) -> Interface:
        for iface in self.interfaces:
            if iface.name == name:
                return iface
        raise KeyError(f"{self.name} has no interface {name!r}")

    # ------------------------------------------------------------------
    # Failure injection (the subject of goal 1)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Take the node down, losing all volatile state.

        Routing entries learned from protocols vanish (they are derivable);
        reassembly buffers vanish.  Host transport state above us is the
        *host's own* — exactly the point of fate-sharing: if the host
        itself dies, its conversations were doomed anyway.
        """
        self.up = False
        self.routes.withdraw_by_source("dv")
        self.routes.withdraw_by_source("egp")
        self.routes.withdraw_by_source("ls")
        self.reassembler = Reassembler(self.sim, timeout=self.reassembler.timeout,
                                       owner=self)
        # Volatile per-conversation scraps die with the node too: redirect
        # rate-limit memory and outstanding echo waiters would otherwise
        # survive the reboot — state the crashed machine could not have kept.
        self._redirects_sent_to.clear()
        self._icmp_errors_sent_to.clear()
        self._quench_windows.clear()
        self._echo_waiters.clear()
        for hook in self.on_crash:
            hook()
        self.tracer.log(self.sim.now, "node", self.name, "crash")

    def restore(self) -> None:
        """Bring the node back up with only configured (connected/static)
        routes; dynamic routes must be re-learned."""
        self.up = True
        self.boot_time = self.sim.now
        for hook in self.on_restore:
            hook()
        self.tracer.log(self.sim.now, "node", self.name, "restore")

    # ------------------------------------------------------------------
    # Origination
    # ------------------------------------------------------------------
    def next_ident(self) -> int:
        return next(self._ident) & 0xFFFF

    def send(
        self,
        dst: Union[str, Address],
        protocol: int,
        payload: bytes,
        *,
        ttl: int = 32,
        tos: int = 0,
        dont_fragment: bool = False,
        src: Optional[Address] = None,
        trace_label: Optional[str] = None,
    ) -> bool:
        """Originate a datagram.  Returns False if it could not be sent
        (no route / node down) — the datagram service makes no promises.

        ``trace_label`` names control-plane traffic (routing updates, path
        probes) so its hop-span journeys are attributed in the obs layer
        rather than showing up as anonymous UDP.
        """
        if not self.up:
            self.stats.dropped_down += 1
            return False
        dst_addr = dst if isinstance(dst, Address) else Address(dst)
        src_addr = src if src is not None else self.source_for(dst_addr)
        datagram = Datagram(
            src=src_addr,
            dst=dst_addr,
            protocol=protocol,
            payload=payload,
            ttl=ttl,
            tos=tos,
            ident=self.next_ident(),
            dont_fragment=dont_fragment,
        )
        self.stats.originated += 1
        self.stats.bytes_originated += datagram.total_length
        obs = self.obs
        if obs is not None and obs.enabled:
            datagram.trace_id = obs.next_trace_id()
            detail = (f"{datagram.src}->{datagram.dst} proto={datagram.protocol} "
                      f"len={datagram.total_length}")
            if trace_label is not None:
                detail = f"[{trace_label}] {detail}"
                obs.registry.counter(
                    "control_plane_origins", kind=trace_label).inc()
            obs.hop(self.sim.now, self.name, "origin", "originated", datagram,
                    detail)
        return self._output(datagram, originating=True)

    def send_datagram(self, datagram: Datagram) -> bool:
        """Originate a pre-built datagram (used by transports that manage
        their own header fields)."""
        if not self.up:
            self.stats.dropped_down += 1
            return False
        if datagram.ident == 0:
            # Builders that don't manage idents (ICMP echo, traceroute
            # probes) would otherwise all share ident 0 between the same
            # endpoint pair — aliasing their fragments on reassembly.
            datagram.ident = self.next_ident()
        self.stats.originated += 1
        self.stats.bytes_originated += datagram.total_length
        obs = self.obs
        if obs is not None and obs.enabled and datagram.trace_id == 0:
            datagram.trace_id = obs.next_trace_id()
            obs.hop(self.sim.now, self.name, "origin", "originated", datagram,
                    f"{datagram.src}->{datagram.dst} proto={datagram.protocol} "
                    f"len={datagram.total_length}")
        return self._output(datagram, originating=True)

    def source_for(self, dst: Address) -> Address:
        """Pick the source address for a destination: the address of the
        outgoing interface (addresses reflect connectivity).  Transports
        use this so every conversation is named by its attachment."""
        try:
            route = self.routes.lookup(dst)
            return route.interface.address
        except NoRouteError:
            return self.address

    # ------------------------------------------------------------------
    # The forwarding path
    # ------------------------------------------------------------------
    def _output(self, datagram: Datagram, *, originating: bool) -> bool:
        """Route, fragment and transmit one datagram."""
        self.stats.work_units += 1
        obs = self.obs
        if obs is not None and not obs.enabled:
            obs = None
        try:
            route = self.routes.lookup(datagram.dst)
        except NoRouteError:
            self.stats.dropped_no_route += 1
            self.tracer.log(self.sim.now, "ip", self.name, "no-route",
                            str(datagram.dst))
            if obs is not None:
                obs.drop(self.sim.now, self.name, "drop-no-route", datagram,
                         str(datagram.dst))
            if not originating:
                self._send_icmp(icmp.destination_unreachable(
                    self.address, datagram, icmp.UNREACH_NET))
            return False
        iface = route.interface
        if not iface.up:
            self.stats.dropped_down += 1
            if obs is not None:
                obs.drop(self.sim.now, self.name, "drop-link-down", datagram,
                         iface.name)
            return False
        next_hop = route.next_hop
        try:
            pieces = fragment(datagram, iface.mtu)
        except FragmentationError:
            self.stats.dropped_df += 1
            if obs is not None:
                obs.drop(self.sim.now, self.name, "drop-df", datagram,
                         f"mtu={iface.mtu}")
            if not originating:
                self._send_icmp(icmp.destination_unreachable(
                    self.address, datagram, icmp.UNREACH_NEEDFRAG))
            return False
        if len(pieces) > 1:
            self.stats.fragments_created += len(pieces)
            self.tracer.log(self.sim.now, "ip", self.name, "frag",
                            f"{datagram.ident}->{len(pieces)}")
            if obs is not None:
                # Fragments inherit the parent's trace id via copy(), so
                # the journey records the split and stays whole across it.
                obs.hop(self.sim.now, self.name, "forward", "fragmented",
                        datagram, f"{len(pieces)} pieces, mtu={iface.mtu}")
            for piece in pieces:
                iface.output(piece, next_hop)
            return True
        iface.output(datagram, next_hop)
        return True

    def output_transit(self, datagram: Datagram) -> bool:
        """Route and transmit a transit datagram by the reference output
        step; what a :attr:`transit_interposer` calls to pass one on."""
        return self._output(datagram, originating=False)

    def datagram_arrived(self, datagram: Datagram, iface: Optional[Interface]) -> None:
        """Entry point from the link layer."""
        if not self.up:
            self.stats.dropped_down += 1
            obs = self.obs
            if obs is not None and obs.enabled:
                obs.drop(self.sim.now, self.name, "drop-node-down", datagram)
            return
        self.stats.work_units += 1
        # "For me, broadcast or transit" on integer address values.
        dst = datagram.dst._value
        if dst in self._owned_values or dst == 0xFFFFFFFF or (
            iface is not None and dst == iface.broadcast_value
        ):
            self._deliver_local(datagram, iface)
            return
        if not self.is_gateway:
            self.stats.dropped_not_mine += 1
            obs = self.obs
            if obs is not None and obs.enabled:
                obs.drop(self.sim.now, self.name, "drop-not-mine", datagram,
                         str(datagram.dst))
            return
        self._forward(datagram, iface)

    def _forward(self, datagram: Datagram,
                 iface_in: Optional[Interface] = None) -> None:
        """Gateway transit path: TTL, redirect advice, then output.

        The common hop is fused: with obs off, no interposer, a current
        destination-cache entry whose interface is not ``iface_in`` (so no
        redirect), an up medium and a datagram that fits its MTU, the
        clone goes straight to the scheduler or medium after one cache
        probe.  Counters move exactly as on the reference path below,
        which every other hop takes (DESIGN.md §7, "fused transit path").
        """
        obs = self.obs
        if obs is not None and not obs.enabled:
            obs = None
        if datagram.ttl <= 1:
            self.stats.dropped_ttl += 1
            self.tracer.log(self.sim.now, "ip", self.name, "ttl-expired",
                            f"{datagram.src}->{datagram.dst}")
            if obs is not None:
                obs.drop(self.sim.now, self.name, "drop-ttl", datagram,
                         f"{datagram.src}->{datagram.dst}")
            self._send_icmp(icmp.time_exceeded(self.address, datagram))
            return
        routes = self.routes
        entry = None
        if obs is None and self.transit_interposer is None:
            entry = routes._cache.get(datagram.dst._value)
            if (entry is not None and entry[0] == routes._generation
                    and entry[1].interface is not iface_in):
                # The redirect check's lookup, which cannot advise here.
                if iface_in is not None and self.send_redirects:
                    routes.cache_hits += 1
            else:
                entry = None
        if entry is None and iface_in is not None and self.send_redirects:
            self._maybe_redirect(datagram, iface_in)
        forwarded = datagram.forward_copy()
        inspectors = self.forward_inspectors
        if inspectors:
            generation = routes._generation
            for inspector in inspectors:
                inspector(forwarded)
            if (routes._generation != generation
                    or forwarded.dst is not datagram.dst):
                entry = None
        forwarded_length = IP_HEADER_LEN + len(forwarded.payload)
        if entry is not None:
            route = entry[1]
            iface = route.interface
            medium = iface.medium
            if (medium is not None and medium.is_up()
                    and forwarded_length <= medium.mtu):
                stats = self.stats
                stats.work_units += 1
                routes.cache_hits += 1
                scheduler = iface.scheduler
                if scheduler is not None:
                    scheduler.enqueue(forwarded, route.next_hop)
                else:
                    medium.transmit(iface, forwarded, route.next_hop)
                stats.forwarded += 1
                stats.bytes_forwarded += forwarded_length
                return
        interposer = self.transit_interposer
        if interposer is not None:
            sent = interposer(forwarded)
        else:
            sent = self._output(forwarded, originating=False)
        if sent:
            self.stats.forwarded += 1
            self.stats.bytes_forwarded += forwarded_length
            if obs is not None:
                obs.hop(self.sim.now, self.name, "forward", "forwarded",
                        forwarded, f"ttl={forwarded.ttl}")

    def _maybe_redirect(self, datagram: Datagram, iface_in: Interface) -> None:
        """ICMP Redirect: the datagram will leave by the interface it came
        in on, and its source lives on that network — tell it the better
        first hop directly (rate-limited per source/destination pair)."""
        try:
            route = self.routes.lookup(datagram.dst)
        except NoRouteError:
            return
        if route.interface is not iface_in:
            return
        if not iface_in.prefix.contains(datagram.src):
            return
        better = route.next_hop if route.next_hop is not None else datagram.dst
        if better == iface_in.address:
            return
        key = (int(datagram.src), int(datagram.dst))
        if self.sim.now - self._redirects_sent_to.get(key, -1e9) < 5.0:
            return
        self._redirects_sent_to[key] = self.sim.now
        self.tracer.log(self.sim.now, "icmp", self.name, "redirect",
                        f"{datagram.src}: {datagram.dst} via {better}")
        obs = self.obs
        if obs is not None and obs.enabled:
            obs.hop(self.sim.now, self.name, "forward", "redirect-advised",
                    datagram, f"{datagram.src}: better hop {better}")
        self._send_icmp(icmp.redirect(iface_in.address, datagram, better))

    # ------------------------------------------------------------------
    # Local delivery
    # ------------------------------------------------------------------
    def _deliver_local(self, datagram: Datagram, iface: Optional[Interface]) -> None:
        completed = self.reassembler.accept(datagram)
        if completed is None:
            return  # a fragment, buffered by the reassembler
        self.stats.delivered += 1
        self.stats.bytes_delivered += completed.total_length
        obs = self.obs
        if obs is not None and obs.enabled:
            detail = (f"reassembled from fragments ({completed.total_length} B)"
                      if completed is not datagram else "")
            obs.hop(self.sim.now, self.name, "deliver", "delivered",
                    completed, detail)
        if completed.protocol == PROTO_ICMP:
            self._handle_icmp(completed)
            return
        handler = self._protocols.get(completed.protocol)
        if handler is None:
            self.stats.dropped_bad_header += 1
            self._send_icmp(icmp.destination_unreachable(
                self.address, completed, icmp.UNREACH_PROTOCOL))
            return
        handler(self, completed, iface)

    def _handle_icmp(self, datagram: Datagram) -> None:
        try:
            message = icmp.IcmpMessage.from_bytes(datagram.payload)
        except icmp.IcmpError:
            self.stats.dropped_bad_header += 1
            return
        self.stats.icmp_received += 1
        if message.type == icmp.ECHO_REQUEST:
            self.send_datagram(icmp.echo_reply(datagram.dst if self.owns_address(datagram.dst) else self.address,
                                               datagram.src, message))
            return
        if message.type == icmp.ECHO_REPLY:
            waiter = self._echo_waiters.pop((message.ident, message.sequence), None)
            if waiter is not None:
                waiter(self.sim.now)
            return
        if message.type == icmp.REDIRECT and self.accept_redirects:
            self._apply_redirect(message)
        if message.is_error:
            for listener in self._icmp_error_listeners:
                listener(self, message, datagram)

    def _apply_redirect(self, message: icmp.IcmpMessage) -> None:
        """Install a host route toward the advised gateway."""
        quoted = message.quoted_datagram_header()
        gateway = message.gateway_address
        if quoted is None or gateway is None:
            return
        for iface in self.interfaces:
            if iface.prefix.contains(gateway):
                self.routes.install(Route(
                    prefix=Prefix.of(quoted.dst, 32), interface=iface,
                    next_hop=gateway, metric=1, source="redirect",
                    learned_from=gateway))
                self.tracer.log(self.sim.now, "icmp", self.name,
                                "redirect-accepted",
                                f"{quoted.dst} via {gateway}")
                return

    def _send_icmp(self, datagram: Datagram) -> None:
        if self.icmp_error_interval > 0 and datagram.payload:
            # One error per (type, offended source) per interval.  The
            # error's destination *is* the offending datagram's source, and
            # byte 0 of the ICMP payload is the message type.  Redirects
            # and Source Quench keep their own per-flow limiters
            # (_maybe_redirect, SourceQuencher) — their correct key is the
            # (host, destination) *pair*, and folding them under the
            # coarser (type, host) key starves a host of advice about all
            # but one destination per interval.
            icmp_type = datagram.payload[0]
            if icmp_type == icmp.SOURCE_QUENCH:
                # Dedicated quench budget (see __init__): N per source
                # per interval window, never starved by other error
                # types sharing the limiter — but still bounded, so an
                # overloaded gateway cannot amplify its own congestion.
                qkey = int(datagram.dst)
                start, used = self._quench_windows.get(qkey, (-1e9, 0))
                if self.sim.now - start >= self.icmp_error_interval:
                    start, used = self.sim.now, 0
                if used >= self.quench_budget:
                    self.quench_suppressed += 1
                    return
                self._quench_windows[qkey] = (start, used + 1)
            elif icmp_type != icmp.REDIRECT:
                key = (icmp_type, int(datagram.dst))
                if (self.sim.now - self._icmp_errors_sent_to.get(key, -1e9)
                        < self.icmp_error_interval):
                    self.icmp_suppressed += 1
                    return
                self._icmp_errors_sent_to[key] = self.sim.now
        if datagram.ident == 0:
            datagram.ident = self.next_ident()  # see send_datagram
        self.stats.icmp_sent += 1
        self._output(datagram, originating=True)

    # ------------------------------------------------------------------
    # Diagnostics: ping
    # ------------------------------------------------------------------
    def ping(self, dst: Union[str, Address],
             callback: Callable[[float], None],
             *, ident: int = 0, sequence: int = 0, data: bytes = b"") -> None:
        """Send an echo request; ``callback(rtt_end_time)`` fires on reply."""
        self._echo_waiters[(ident, sequence)] = callback
        self.send_datagram(icmp.echo_request(self.address, Address(dst),
                                             ident, sequence, data))

    def __repr__(self) -> str:
        kind = "gateway" if self.is_gateway else "host"
        return f"<Node {self.name} ({kind}) ifaces={len(self.interfaces)} up={self.up}>"
