"""Callback event delivery: the kernel primitive and the network paths.

:meth:`Environment.call_later` puts one ``_Callback`` heap entry behind
a whole delivery run, and :meth:`Store.put_nowait` skips the
pending-put event on unbounded mailboxes.  :meth:`Network.send` delivers
each message (with its duplicates) through one such entry, and
:meth:`Network.send_batch` coalesces consecutive same-delay messages
onto one.  The contract is *semantic equivalence* with one delivery
process per message (kept as ``tests/network_oracle.py``, which the
chaos byte-identity tests also run whole scenarios through): message
contents, arrival order, stats, fault-hook consultations and the
simulated clock must match.  The one intended difference is the
same-instant tie order against a timer armed after the send, pinned
below.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.net import ATM_OC3, Network, Topology
from repro.net.network import FaultAction
from repro.obs import Observability
from repro.simcore import Environment
from repro.simcore.engine import _Callback
from repro.simcore.store import Store
from repro.util.errors import (
    ChannelError,
    ConfigurationError,
    SimulationError,
)

from .network_oracle import send_batch_unbatched, send_process_per_message


# ---------------------------------------------------------------------------
# the kernel primitive
# ---------------------------------------------------------------------------

class TestCallLater:
    def test_fires_at_the_scheduled_time_in_seq_order(self):
        env = Environment()
        order = []
        env.call_later(2.0, order.append, "late")
        env.call_later(1.0, order.append, "early-first")
        env.call_later(1.0, order.append, "early-second")
        env.run()
        assert order == ["early-first", "early-second", "late"]
        assert env.now == 2.0

    def test_interleaves_with_processes_at_the_same_instant(self):
        env = Environment()
        order = []

        def proc(env):
            yield env.timeout(1.0)
            order.append("process")

        env.process(proc(env))
        env.call_later(1.0, order.append, "callback")
        env.run()
        # seq order decides ties: the callback entry was pushed at setup,
        # the process's timeout only when its bootstrap ran at t=0
        assert order == ["callback", "process"]

    def test_shared_list_keeps_growing_until_the_entry_fires(self):
        env = Environment()
        seen = []
        run: list[str] = []
        env.call_later(1.0, lambda entries: seen.extend(entries), run)
        run.append("a")
        run.append("b")
        env.run()
        assert seen == ["a", "b"]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.call_later(-0.1, print, None)


class TestPutNowait:
    def test_unbounded_appends_like_put(self):
        env = Environment()
        store = Store(env)
        store.put_nowait("x")
        store.put_nowait("y")
        assert store.try_get() == "x"
        assert store.try_get() == "y"

    def test_hands_item_straight_to_waiting_getter(self):
        env = Environment()
        store = Store(env)
        got = []

        def getter(env):
            item = yield store.get()
            got.append(item)

        env.process(getter(env))
        env.run()
        store.put_nowait("direct")
        env.run()
        assert got == ["direct"]
        assert len(store) == 0

    def test_bounded_store_falls_back_to_blocking_put(self):
        env = Environment()
        store = Store(env, capacity=1)
        store.put_nowait("first")
        store.put_nowait("second")  # must queue, not overflow
        assert len(store.items) == 1
        assert store.try_get() == "first"
        env.run()
        assert store.try_get() == "second"


# ---------------------------------------------------------------------------
# the network fan-out
# ---------------------------------------------------------------------------

def make_net() -> tuple[Environment, Network]:
    env = Environment()
    topo = Topology()
    topo.add_site("s1")
    topo.add_site("s2")
    topo.connect("s1", "s2", ATM_OC3)
    return env, Network(env, topo)


def drain(box) -> list:
    out = []
    while True:
        msg = box.try_get()
        if msg is None:
            return out
        out.append((msg.src, msg.dst, msg.kind, msg.payload,
                    msg.size_bytes))


def run_fanout(batching: bool, hook=None):
    """One mixed intra-/cross-site fan-out; returns observables."""
    env, net = make_net()
    net.register("s1/h0/src")
    dsts = [f"s1/h{i}/svc" for i in range(1, 4)] \
        + [f"s2/h{i}/svc" for i in range(1, 3)]
    boxes = {dst: net.register(dst) for dst in dsts}
    if hook is not None:
        net.fault_hook = hook
    payloads = [f"portion-{i}" for i in range(len(dsts))]
    sizes = [128.0 * (i + 1) for i in range(len(dsts))]
    send_batch = (net.send_batch if batching
                  else partial(send_batch_unbatched, net))
    msgs = send_batch("s1/h0/src", dsts, "alloc",
                      payloads=payloads, sizes=sizes)
    env.run()
    return {
        "sent": [(m.src, m.dst, m.kind, m.payload, m.size_bytes)
                 for m in msgs],
        "delivered": {dst: drain(box) for dst, box in boxes.items()},
        "clock": env.now,
        "stats": (net.stats.messages, net.stats.bytes, net.stats.dropped,
                  net.stats.injected_drops, net.stats.injected_duplicates,
                  dict(net.stats.by_kind), dict(net.stats.bytes_by_kind)),
    }


class TestBatchEquivalence:
    def test_batch_matches_unbatched_loop_exactly(self):
        assert run_fanout(batching=True) == run_fanout(batching=False)

    def test_fault_hook_order_drops_and_duplicates_match(self):
        def make_hook(calls):
            def hook(msg):
                calls.append(msg.dst)
                if msg.dst.startswith("s1/h2"):
                    return FaultAction(drop=True)
                if msg.dst.startswith("s2/h1"):
                    return FaultAction(duplicates=1, extra_delay_s=0.5)
                return None
            return hook

        batched_calls: list[str] = []
        unbatched_calls: list[str] = []
        batched = run_fanout(batching=True, hook=make_hook(batched_calls))
        unbatched = run_fanout(batching=False,
                               hook=make_hook(unbatched_calls))
        assert batched_calls == unbatched_calls  # injector RNG order
        assert batched == unbatched
        assert batched["delivered"]["s1/h2/svc"] == []      # dropped
        assert len(batched["delivered"]["s2/h1/svc"]) == 2  # duplicated

    def test_multicast_rides_send_batch(self):
        env, net = make_net()
        net.register("s1/h0/src")
        boxes = [net.register(f"s1/h{i}/svc") for i in range(1, 4)]
        net.multicast("s1/h0/src", (f"s1/h{i}/svc" for i in range(1, 4)),
                      "afg", payload={"graph": "g"}, size_bytes=64)
        env.run()
        for box in boxes:
            [(_, _, kind, payload, size)] = drain(box)
            assert (kind, payload, size) == ("afg", {"graph": "g"}, 64)


class TestBatchSemantics:
    def test_same_delay_run_shares_one_heap_entry(self):
        env, net = make_net()
        net.register("s1/h0/src")
        dsts = [f"s1/h{i}/svc" for i in range(1, 101)]
        for dst in dsts:
            net.register(dst)
        net.send_batch("s1/h0/src", dsts, "echo", payload=1, size_bytes=32)
        # 100 same-site, same-size messages share one modelled delay:
        # exactly one queue entry carries the whole run
        assert len(env._queue) == 1
        env.run()
        assert net.stats.messages == 100
        assert net.stats.dropped == 0

    def test_same_delay_run_arrives_in_dsts_order(self):
        env, net = make_net()
        net.register("s1/h0/src")
        dsts = [f"s1/h{i}/svc" for i in (3, 1, 4, 2)]
        arrivals = []

        def consumer(env, dst):
            box = net.register(dst)
            while True:
                msg = yield box.get()
                arrivals.append(msg.dst)

        for dst in dsts:
            env.process(consumer(env, dst))
        env.run()
        net.send_batch("s1/h0/src", dsts, "start", size_bytes=32)
        assert len(env._queue) == 1
        env.run()
        assert arrivals == dsts

    def test_down_destination_dropped_at_send(self):
        env, net = make_net()
        net.register("s1/h0/src")
        boxes = {f"s1/h{i}/svc": net.register(f"s1/h{i}/svc")
                 for i in (1, 2)}
        net.is_up = lambda host: host != "s1/h1"
        net.send_batch("s1/h0/src", list(boxes), "ping")
        env.run()
        assert net.stats.dropped == 1
        assert drain(boxes["s1/h1/svc"]) == []
        assert len(drain(boxes["s1/h2/svc"])) == 1

    def test_mid_flight_down_drops_on_arrival(self):
        env, net = make_net()
        net.register("s1/h0/src")
        box = net.register("s1/h1/svc")
        net.send_batch("s1/h0/src", ["s1/h1/svc"], "ping")
        net.is_up = lambda host: host != "s1/h1"  # dies mid-flight
        env.run()
        assert net.stats.dropped == 1
        assert drain(box) == []

    def test_misaligned_overrides_rejected(self):
        env, net = make_net()
        net.register("s1/h0/src")
        net.register("s1/h1/svc")
        with pytest.raises(ConfigurationError):
            net.send_batch("s1/h0/src", ["s1/h1/svc"], "x",
                           payloads=["a", "b"])
        with pytest.raises(ConfigurationError):
            net.send_batch("s1/h0/src", ["s1/h1/svc"], "x",
                           sizes=[1.0, 2.0])

    def test_unregistered_destination_raises(self):
        env, net = make_net()
        net.register("s1/h0/src")
        with pytest.raises(ChannelError):
            net.send_batch("s1/h0/src", ["s1/ghost/svc"], "x")


# ---------------------------------------------------------------------------
# single sends: one call_later entry against the process-per-message oracle
# ---------------------------------------------------------------------------

class TestSendDelivery:
    def test_send_pushes_one_callback_entry_and_spawns_no_process(self):
        env, net = make_net()
        net.register("s1/h0/src")
        box = net.register("s2/h1/svc")
        net.fault_hook = lambda msg: FaultAction(duplicates=2)
        net.send("s1/h0/src", "s2/h1/svc", "data", payload=7)
        # no process bootstrap: the message and both duplicates ride a
        # single callback entry
        [(_when, _prio, _seq, item)] = env._queue
        assert type(item) is _Callback
        assert len(item.arg) == 3
        env.run()
        assert [p for *_, p, _ in drain(box)] == [7, 7, 7]

    def test_dropped_send_schedules_nothing(self):
        env, net = make_net()
        net.register("s1/h0/src")
        net.register("s2/h1/svc")
        net.is_up = lambda host: host != "s2/h1"
        net.send("s1/h0/src", "s2/h1/svc", "data")
        assert env._queue == []
        assert net.stats.dropped == 1

    @pytest.mark.parametrize("oracle, timer_sees", [(False, 1), (True, 0)])
    def test_message_beats_a_timer_armed_after_it(self, oracle, timer_sees):
        """Same-instant tie: the message now arrives first, in send order.

        The process-per-message oracle armed the delivery timeout only
        when its bootstrap ran, after the sender's own timer, so the
        timer used to fire first.
        """
        env, net = make_net()
        net.register("s1/h0/src")
        box = net.register("s1/h1/svc")
        send = (partial(send_process_per_message, net) if oracle
                else net.send)
        delay = net.delay_for("s1/h0/src", "s1/h1/svc", 64.0)
        seen = []

        def sender(env):
            send("s1/h0/src", "s1/h1/svc", "ping", size_bytes=64.0)
            yield env.timeout(delay)
            seen.append((env.now, len(box)))

        env.process(sender(env))
        env.run()
        assert seen == [(delay, timer_sees)]


#: endpoints of the differential mix; ``s2/h2`` is down for the middle
#: third of every simulated second, and ``s2/h3/slow`` is a capacity-1
#: mailbox drained by a slow consumer
MIX_SRCS = ("s1/h0/src", "s1/h1/src", "s2/h1/src")
MIX_DSTS = ("s1/h1/svc", "s1/h2/svc", "s2/h1/svc", "s2/h2/svc", "s2/h3/slow")


def run_message_mix(seed: int, oracle: bool) -> dict:
    """A seeded stream of sends; returns every mailbox's arrivals."""
    env, net = make_net()
    net.set_observability(Observability())
    for src in MIX_SRCS:
        net.register(src)
    boxes = {dst: net.register(dst) for dst in MIX_DSTS}
    slow = Store(env, capacity=1)
    net._mailboxes["s2/h3/slow"] = boxes["s2/h3/slow"] = slow
    net.is_up = lambda host: not (host == "s2/h2"
                                  and 1 / 3 <= env.now % 1.0 < 2 / 3)
    fault_rng = random.Random(seed * 7919)

    def hook(msg):
        draw = fault_rng.random()
        if draw < 0.1:
            return FaultAction(drop=True)
        if draw < 0.3:
            return FaultAction(
                delay_multiplier=fault_rng.uniform(0.5, 40.0),
                extra_delay_s=fault_rng.uniform(0.0, 0.05),
                duplicates=fault_rng.randrange(3))
        return None

    net.fault_hook = hook
    send = partial(send_process_per_message, net) if oracle else net.send
    arrivals: dict[str, list] = {dst: [] for dst in MIX_DSTS}

    def consumer(env, dst, pause):
        box = boxes[dst]
        while True:
            msg = yield box.get()
            arrivals[dst].append((env.now, msg.send_time, msg.payload))
            if pause:
                yield env.timeout(pause)

    def sender(env):
        rng = random.Random(seed)
        for i in range(300):
            yield env.timeout(rng.expovariate(40.0))
            send(rng.choice(MIX_SRCS), rng.choice(MIX_DSTS), "mix",
                 payload=i, size_bytes=rng.choice((0.0, 64.0, 4096.0,
                                                   2.5e5)))

    for dst in MIX_DSTS:
        env.process(consumer(env, dst, 0.21 if dst == "s2/h3/slow"
                             else 0.0))
    env.process(sender(env))
    env.run(until=60.0)
    return {"arrivals": arrivals, "stats": net.stats,
            "left": {dst: len(box) for dst, box in boxes.items()},
            "drops": dict(net._m_dropped.samples())}


class TestSendDifferential:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_send_matches_process_per_message_oracle(self, seed):
        production = run_message_mix(seed, oracle=False)
        oracle = run_message_mix(seed, oracle=True)
        assert production == oracle
        # the mix really exercises every drop and copy path
        drops = {dict(key)["reason"]: n
                 for key, n in production["drops"].items()}
        assert drops["injected"] > 0
        assert drops["host-down"] > 0
        assert drops["mid-flight"] > 0
        assert production["stats"].injected_duplicates > 0
        assert len(production["arrivals"]["s2/h3/slow"]) > 20
