"""Unbatched fan-out, kept as a differential oracle.

:func:`send_batch_unbatched` is what :meth:`repro.net.Network.send_batch`
replaces: a plain loop of :meth:`Network.send`, one delivery process per
message.  :func:`unbatched` patches it onto :class:`Network` for the
duration of a block, so every fan-out in a whole simulated run (echo
rounds, allocation pushes, WAL shipping, heartbeats, multicasts) takes
the loop; byte-identity tests compare that run's fault log, Chrome
trace and outcome against the batched one.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager

from repro.net import Network
from repro.net.network import Message
from repro.util.errors import ConfigurationError


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
    """Route every :meth:`Network.send_batch` through the plain loop."""
    original = Network.send_batch
    Network.send_batch = send_batch_unbatched  # type: ignore[method-assign]
    try:
        yield
    finally:
        Network.send_batch = original  # type: ignore[method-assign]
