"""The simulated message network connecting VDCE daemons.

Endpoints register a mailbox under a hierarchical address
``site/host[/service]``.  :meth:`Network.send` computes the transfer time
from the :class:`~repro.net.topology.Topology` (WAN path between sites,
LAN inside a site, loopback inside a host) and delivers the message into
the destination mailbox after that delay.  Messages to hosts that are
down are silently dropped — exactly the failure model the Group Manager's
echo packets are designed to detect (paper section 2.3.1).

The network also keeps per-kind traffic counters, which back the
monitoring-traffic experiment (F6) and the setup-cost experiment (F7).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

from repro.analysis import hooks
from repro.net.message import Message
from repro.net.topology import Topology
from repro.obs import OBS_OFF, Observability
from repro.simcore.engine import Environment
from repro.simcore.store import Store
from repro.simcore.trace import Tracer
from repro.util.errors import ChannelError, ConfigurationError


@lru_cache(maxsize=4096)
def split_address(addr: str) -> tuple[str, str]:
    """Split ``site/host[/service]`` into ``(site, host)``.

    Addresses with no ``/`` are site-level actors (e.g. a site manager):
    site == host == addr.  The function is pure, and every ``send``
    splits both endpoints, so results are memoized.
    """
    parts = addr.split("/")
    if not parts[0]:
        raise ConfigurationError(f"malformed address {addr!r}")
    if len(parts) == 1:
        return parts[0], parts[0]
    return parts[0], f"{parts[0]}/{parts[1]}"


@dataclass(frozen=True)
class FaultAction:
    """Verdict a fault hook returns for one message.

    ``drop`` discards the message outright; otherwise the modelled delay
    is scaled by ``delay_multiplier`` plus ``extra_delay_s``, and
    ``duplicates`` extra copies are delivered alongside the original.
    """

    drop: bool = False
    extra_delay_s: float = 0.0
    delay_multiplier: float = 1.0
    duplicates: int = 0


@dataclass
class TrafficStats:
    """Message/byte counters, overall and per message kind."""

    messages: int = 0
    bytes: float = 0.0
    dropped: int = 0
    injected_drops: int = 0
    partition_drops: int = 0
    injected_duplicates: int = 0
    by_kind: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes_by_kind: dict[str, float] = field(
        default_factory=lambda: defaultdict(float))


class Network:
    """Latency/bandwidth-modelled message delivery between endpoints."""

    __slots__ = ("env", "topology", "tracer", "per_message_overhead_s",
                 "stats", "_mailboxes", "is_up", "fault_hook", "obs",
                 "_m_messages", "_m_bytes", "_m_dropped", "_m_delay")

    def __init__(self, env: Environment, topology: Topology,
                 tracer: Tracer | None = None,
                 per_message_overhead_s: float = 1e-4) -> None:
        self.env = env
        self.topology = topology
        self.tracer = tracer or Tracer(enabled=False)
        self.per_message_overhead_s = per_message_overhead_s
        self.stats = TrafficStats()
        self._mailboxes: dict[str, Store] = {}
        #: predicate deciding whether the *host* owning an address is up;
        #: installed by the failure-injection layer.
        self.is_up: Callable[[str], bool] = lambda host: True
        #: optional per-message fault hook returning a
        #: :class:`FaultAction` (or None for no fault); installed by
        #: :class:`repro.faults.FaultInjector`.
        self.fault_hook: Callable[[Message], FaultAction | None] | None = None
        self.set_observability(OBS_OFF)

    def set_observability(self, obs: Observability) -> None:
        """Attach an :class:`~repro.obs.Observability` handle.

        Registers this layer's instruments up front so ``send`` only
        records (no registry lookups on the hot path).  The facade calls
        this during construction; standalone Networks keep the inert
        :data:`~repro.obs.OBS_OFF` default.
        """
        self.obs = obs
        metrics = obs.metrics
        self._m_messages = metrics.counter(
            "net_messages_total", help="messages sent, by kind")
        self._m_bytes = metrics.counter(
            "net_bytes_total", help="payload bytes sent, by kind")
        self._m_dropped = metrics.counter(
            "net_dropped_total", help="messages dropped, by reason")
        self._m_delay = metrics.histogram(
            "net_delivery_delay_seconds",
            help="modelled delivery delay, by kind")

    # -- endpoints --------------------------------------------------------
    def register(self, addr: str) -> Store:
        """Create (or fetch) the mailbox for *addr*."""
        split_address(addr)  # validate
        box = self._mailboxes.get(addr)
        if box is None:
            box = Store(self.env)
            self._mailboxes[addr] = box
        return box

    def mailbox(self, addr: str) -> Store:
        """Fetch a registered endpoint's mailbox."""
        try:
            return self._mailboxes[addr]
        except KeyError:
            raise ChannelError(f"no endpoint registered at {addr!r}") from None

    @property
    def addresses(self) -> list[str]:
        return list(self._mailboxes)

    # -- delivery ---------------------------------------------------------
    def delay_for(self, src: str, dst: str, nbytes: float) -> float:
        """Modelled delivery delay for a message of *nbytes*."""
        src_site, src_host = split_address(src)
        dst_site, dst_host = split_address(dst)
        if src_host == dst_host:
            wire = 1e-5 + nbytes / 1e9  # loopback
        else:
            wire = self.topology.transfer_time(src_site, dst_site, nbytes)
        return wire + self.per_message_overhead_s

    def send(self, src: str, dst: str, kind: str, payload=None,
             size_bytes: float = 256.0) -> Message:
        """Send a message; it arrives after the modelled delay.

        The message (with any duplicates a fault hook adds) rides one
        :meth:`~repro.simcore.engine.Environment.call_later` entry whose
        callback puts it into the destination mailbox: no delivery
        process.  Arrivals therefore run in send order with everything
        else due at the same instant; a timer armed after the send, for
        the same instant, fires after the message.

        Returns the sent :class:`Message`.  Raises :class:`ChannelError`
        when the destination endpoint was never registered (a programming
        error, unlike a *down* host which is a simulated fault and drops
        silently).
        """
        msg, delay, entries = self._route(src, dst, kind, payload,
                                          size_bytes)
        if entries is not None:
            self.env.call_later(delay, self._deliver_entries, entries)
        return msg

    def _route(self, src: str, dst: str, kind: str, payload,
               size_bytes: float) -> tuple[Message, float, list | None]:
        """Account and route one message: the work every send shares.

        Builds the :class:`Message`; records it in the stats, tracer,
        obs metrics and the race sanitizer's send hook; drops it when
        either host is down, a partition separates the sites or the
        fault hook says so; and prices its loopback/LAN/WAN delay, scaled
        by the fault action, which may also add duplicates.  Returns
        ``(msg, delay, entries)`` where *entries* holds one ``(mailbox,
        message, dst_host)`` tuple per copy to deliver after *delay*, or
        is ``None`` when the message was dropped.
        """
        now = self.env._now
        stats = self.stats
        tracer = self.tracer
        obs = self.obs
        msg = Message(src=src, dst=dst, kind=kind, payload=payload,
                      size_bytes=size_bytes, send_time=now)
        box = self.mailbox(dst)
        dst_site, dst_host = split_address(dst)
        src_site, src_host = split_address(src)
        hb = hooks.HB
        if hb is not None:
            hb.on_send(dst_site)
        stats.messages += 1
        stats.bytes += size_bytes
        stats.by_kind[kind] += 1
        stats.bytes_by_kind[kind] += size_bytes
        if tracer.enabled:
            tracer.record(now, f"net:{kind}", src, dst=dst, bytes=size_bytes)
        if obs.enabled:
            self._m_messages.inc(kind=kind)
            self._m_bytes.inc(size_bytes, kind=kind)
        if not (self.is_up(dst_host) and self.is_up(src_host)):
            stats.dropped += 1
            if tracer.enabled:
                tracer.record(now, "net:dropped", src, dst=dst, kind=kind)
            if obs.enabled:
                self._m_dropped.inc(reason="host-down")
            return msg, 0.0, None
        if (src_host != dst_host
                and not self.topology.reachable(src_site, dst_site)):
            # No surviving WAN route: the partition eats the message
            # before any injected per-message fault gets a say (no RNG
            # draws for undeliverable traffic keeps drops deterministic).
            stats.dropped += 1
            stats.partition_drops += 1
            if tracer.enabled:
                tracer.record(now, "net:partition-drop", src, dst=dst,
                              kind=kind)
            if obs.enabled:
                self._m_dropped.inc(reason="partitioned")
            return msg, 0.0, None
        action = self.fault_hook(msg) if self.fault_hook is not None else None
        if action is not None and action.drop:
            stats.dropped += 1
            stats.injected_drops += 1
            if tracer.enabled:
                tracer.record(now, "net:injected-drop", src, dst=dst,
                              kind=kind)
            if obs.enabled:
                self._m_dropped.inc(reason="injected")
            return msg, 0.0, None
        if src_host == dst_host:
            wire = 1e-5 + size_bytes / 1e9  # loopback
        else:
            wire = self.topology.transfer_time(src_site, dst_site, size_bytes)
        delay = wire + self.per_message_overhead_s
        entries = [(box, msg, dst_host)]
        if action is not None:
            delay = delay * action.delay_multiplier + action.extra_delay_s
            entries *= 1 + action.duplicates
            stats.injected_duplicates += action.duplicates
        if obs.enabled:
            self._m_delay.observe(delay, kind=kind)
            # Message-delivery spans only for sends on behalf of a task
            # (the Data Manager brackets those with current_parent):
            # control-plane chatter is counted above but not spanned, so
            # the causal tree stays one application's tree.
            if obs.current_parent is not None:
                obs.spans.complete(
                    kind, "message-delivery", src, now, now + delay,
                    parent_id=obs.current_parent, dst=dst,
                    bytes=size_bytes)
        return msg, delay, entries

    def _deliver_entries(self, entries) -> None:
        """Arrival callback of one ``call_later`` delivery entry.

        *entries* is the ``(mailbox, message, dst_host)`` list the entry
        carries, in send order.  A host that went down mid-flight loses
        its message, which counts as dropped.
        """
        is_up = self.is_up
        for box, msg, dst_host in entries:
            if is_up(dst_host):
                box.put_nowait(msg)
            else:
                self.stats.dropped += 1
                if self.obs.enabled:
                    self._m_dropped.inc(reason="mid-flight")

    def send_batch(self, src: str, dsts: Sequence[str], kind: str,
                   payload=None, size_bytes: float = 256.0,
                   payloads: Sequence | None = None,
                   sizes: Sequence[float] | None = None) -> list[Message]:
        """Send to several destinations in one coalesced operation.

        Each message is routed exactly as :meth:`send` routes it (same
        stats, tracer records, obs metrics/spans and fault-hook
        consultations, in *dsts* order, so injector RNG draws are
        unchanged), but consecutive messages sharing a modelled delay
        ride **one** ``call_later`` entry instead of one each.  Fan-outs
        inside a site (echo rounds, start signals to co-located
        controllers, WAL shipping to LAN standbys) therefore cost
        O(runs) heap entries rather than O(messages).

        *payloads* / *sizes*, when given, are per-destination overrides
        aligned with *dsts* (the allocation push sends a different
        portion to every host).  ``tests/network_oracle.py`` keeps the
        process-per-message ``send`` and the plain loop of it this
        replaces; the byte-identity tests run whole chaos scenarios
        both ways.
        """
        if payloads is not None and len(payloads) != len(dsts):
            raise ConfigurationError("payloads must align with dsts")
        if sizes is not None and len(sizes) != len(dsts):
            raise ConfigurationError("sizes must align with dsts")
        call_later = self.env.call_later
        route = self._route
        messages: list[Message] = []
        # the open run: consecutive messages with the same delay share it
        run_entries: list | None = None
        run_delay = -1.0
        for i in range(len(dsts)):
            msg, delay, entries = route(
                src, dsts[i], kind,
                payload if payloads is None else payloads[i],
                size_bytes if sizes is None else sizes[i])
            messages.append(msg)
            if entries is None:
                continue
            if run_entries is None or delay != run_delay:
                # new run: one heap entry; the list keeps growing until
                # the entry fires (strictly later in simulated time)
                run_entries = entries
                run_delay = delay
                call_later(delay, self._deliver_entries, entries)
            else:
                run_entries += entries
        return messages

    def multicast(self, src: str, dsts: Iterable[str], kind: str,
                  payload=None, size_bytes: float = 256.0) -> list[Message]:
        """Send the same payload to several destinations.

        The paper's Site Scheduler multicasts the AFG to the selected
        remote sites (Figure 4 step 3); we model multicast as unicast
        fan-out, which is what a mid-90s IP WAN would do — now coalesced
        through :meth:`send_batch`.
        """
        dsts = dsts if isinstance(dsts, (list, tuple)) else list(dsts)
        return self.send_batch(src, dsts, kind, payload, size_bytes)
