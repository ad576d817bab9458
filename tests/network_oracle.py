"""Process-per-message delivery, kept as a differential oracle.

:func:`send_process_per_message` is the :meth:`repro.net.Network.send`
that the ``call_later`` delivery path replaced: the same routing, but
every message (and every injected duplicate) is carried by its own
delivery process that sleeps for the modelled delay and then puts the
message into the mailbox.  :func:`send_batch_unbatched` is what
:meth:`Network.send_batch` replaced: a plain loop of ``send`` calls.

:func:`unbatched` patches **both** onto :class:`Network` for the
duration of a block, so a whole simulated run (echo rounds, allocation
pushes, WAL shipping, heartbeats, multicasts and every single send)
delivers through processes; byte-identity tests compare that run's
fault log, Chrome trace and outcome against the production one, which
delivers through ``call_later`` entries everywhere.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager

from repro.analysis import hooks
from repro.net import Network
from repro.net.network import Message, split_address
from repro.util.errors import ConfigurationError


def send_process_per_message(self: Network, src: str, dst: str, kind: str,
                             payload=None, size_bytes: float = 256.0
                             ) -> Message:
    """``send`` with one delivery process per message copy."""
    env = self.env
    now = env.now
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
        return msg
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
        return msg
    action = self.fault_hook(msg) if self.fault_hook is not None else None
    if action is not None and action.drop:
        stats.dropped += 1
        stats.injected_drops += 1
        if tracer.enabled:
            tracer.record(now, "net:injected-drop", src, dst=dst,
                          kind=kind)
        if obs.enabled:
            self._m_dropped.inc(reason="injected")
        return msg
    if src_host == dst_host:
        wire = 1e-5 + size_bytes / 1e9  # loopback
    else:
        wire = self.topology.transfer_time(src_site, dst_site, size_bytes)
    delay = wire + self.per_message_overhead_s
    copies = 1
    if action is not None:
        delay = delay * action.delay_multiplier + action.extra_delay_s
        copies += action.duplicates
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

    def deliver(env, box=box, msg=msg, delay=delay):
        yield env.timeout(delay)
        # A host that went down mid-flight loses the message too.
        if self.is_up(dst_host):
            box.put(msg)
        else:
            self.stats.dropped += 1
            if self.obs.enabled:
                self._m_dropped.inc(reason="mid-flight")

    for _ in range(copies):
        env.process(deliver(env), name=f"deliver:{kind}")
    return msg


def send_batch_unbatched(self: Network, src: str, dsts: Sequence[str],
                         kind: str, payload=None, size_bytes: float = 256.0,
                         payloads: Sequence | None = None,
                         sizes: Sequence[float] | None = None
                         ) -> list[Message]:
    """``send_batch`` as the loop of ``send`` calls it stands for."""
    if payloads is not None and len(payloads) != len(dsts):
        raise ConfigurationError("payloads must align with dsts")
    if sizes is not None and len(sizes) != len(dsts):
        raise ConfigurationError("sizes must align with dsts")
    return [
        self.send(src, dsts[i], kind,
                  payload if payloads is None else payloads[i],
                  size_bytes if sizes is None else sizes[i])
        for i in range(len(dsts))
    ]


@contextmanager
def unbatched() -> Iterator[None]:
    """Deliver every message of a block through its own process."""
    send, send_batch = Network.send, Network.send_batch
    Network.send = send_process_per_message  # type: ignore[method-assign]
    Network.send_batch = send_batch_unbatched  # type: ignore[method-assign]
    try:
        yield
    finally:
        Network.send = send  # type: ignore[method-assign]
        Network.send_batch = send_batch  # type: ignore[method-assign]
