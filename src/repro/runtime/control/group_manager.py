"""The Group Manager: one per group leader machine.

Paper section 2.3.1, Figure 6.  Responsibilities:

* receive the Monitor daemons' periodic load reports and forward to the
  Site Manager only those that changed *significantly* (confidence-
  interval filter — see :mod:`.change_filter`);
* "periodically check ... if all hosts in the group are alive by sending
  echo packets to hosts and waiting for their responses", measuring the
  intra-group network RTT along the way and reporting failures (and
  recoveries) to the Site Manager;
* receive the application's resource allocation table portion from the
  Site Manager and send "an execution request message and related parts
  of the resource allocation table" to each assigned machine's
  Application Controller;
* relay task rescheduling requests from Application Controllers up to
  the Site Manager.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net import (
    ECHO_REPLY,
    ECHO_REQUEST,
    EXECUTION_REQUEST,
    HOST_DOWN,
    LOAD_REPORT,
    RESCHEDULE_REQUEST,
    WORKLOAD_UPDATE,
)
from repro.net.network import Network
from repro.obs import OBS_OFF, Observability
from repro.runtime.control.change_filter import ChangeFilter
from repro.simcore.engine import Environment
from repro.simcore.trace import Tracer
from repro.util.errors import ConfigurationError

HOST_UP = "host-up"


@dataclass
class GroupManagerStats:
    reports_received: int = 0
    updates_forwarded: int = 0
    echo_rounds: int = 0
    failures_detected: int = 0
    recoveries_detected: int = 0
    rtt_samples: dict[str, list[float]] = field(default_factory=dict)


class GroupManager:
    """Monitoring relay + failure detector for one host group."""

    SERVICE = "groupmgr"
    #: how long an echo round waits for replies before counting misses
    ECHO_TIMEOUT_S = 1.0

    def __init__(self, env: Environment, network: Network,
                 site: str, group: str, leader_host: str,
                 member_hosts: list[str],
                 site_manager_addr: str,
                 echo_period_s: float = 5.0,
                 miss_limit: int = 2,
                 change_filter: ChangeFilter | None = None,
                 tracer: Tracer | None = None,
                 obs: Observability | None = None) -> None:
        if echo_period_s <= 0:
            raise ConfigurationError("echo period must be positive")
        if miss_limit < 1:
            raise ConfigurationError("miss_limit must be >= 1")
        self.env = env
        self.network = network
        self.site = site
        self.group = group
        self.leader_host = leader_host
        self.member_hosts = list(member_hosts)
        self.site_manager_addr = site_manager_addr
        self.echo_period_s = echo_period_s
        self.miss_limit = miss_limit
        self.filter = change_filter or ChangeFilter()
        self.tracer = tracer or Tracer(enabled=False)
        self.obs = obs if obs is not None else OBS_OFF
        self.stats = GroupManagerStats()
        self.address = f"{site}/{leader_host}/{self.SERVICE}"
        self.mailbox = network.register(self.address)
        self._echo_seq = 0
        self._round_sent_at = 0.0
        self._replied: set[str] = set()
        self._misses: dict[str, int] = {h: 0 for h in self.member_hosts}
        self._marked_down: set[str] = set()
        self._inbox_proc = env.process(self._inbox_loop(),
                                       name=f"gm:{self.address}")
        self._echo_proc = env.process(self._echo_loop(),
                                      name=f"gm-echo:{self.address}")

    # -- inbox -----------------------------------------------------------
    def _inbox_loop(self):
        while True:
            msg = yield self.mailbox.get()
            if msg.kind == LOAD_REPORT:
                self._on_load_report(msg)
            elif msg.kind == ECHO_REPLY:
                self._on_echo_reply(msg)
            elif msg.kind == "allocation-push":
                self._on_allocation(msg)
            elif msg.kind == RESCHEDULE_REQUEST:
                # relay to the Site Manager unchanged
                self.network.send(self.address, self.site_manager_addr,
                                  RESCHEDULE_REQUEST, payload=msg.payload,
                                  size_bytes=msg.size_bytes)

    def _on_load_report(self, msg) -> None:
        self.stats.reports_received += 1
        sample = msg.payload
        host = sample["host"]
        forwarded = self.filter.observe(host, sample["cpu_load"])
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter(
                "gm_reports_total",
                help="load reports handled, by filter outcome").inc(
                    group=self.group,
                    outcome="forwarded" if forwarded else "suppressed")
        if forwarded:
            self.stats.updates_forwarded += 1
            self.tracer.record(self.env.now, "gm:forward", self.address,
                               host=host, load=sample["cpu_load"])
            self.network.send(self.address, self.site_manager_addr,
                              WORKLOAD_UPDATE, payload=sample,
                              size_bytes=64.0)
        else:
            self.tracer.record(self.env.now, "gm:suppress", self.address,
                               host=host, load=sample["cpu_load"])

    # -- echo / failure detection -----------------------------------------
    def _echo_loop(self):
        while True:
            yield self.env.timeout(self.echo_period_s)
            self.stats.echo_rounds += 1
            if self.obs.enabled:
                self.obs.metrics.counter(
                    "gm_echo_rounds_total",
                    help="echo rounds started, by group").inc(
                        group=self.group)
            self._echo_seq += 1
            self._replied = set()
            sent_at = self.env.now
            self._round_sent_at = sent_at
            # the per-round heartbeat fan-out is the hottest periodic
            # send in the system: batch it (one heap entry per delay run)
            self.network.send_batch(
                self.address,
                [f"{host}/monitor" for host in self.member_hosts],
                ECHO_REQUEST, payload=self._echo_seq, size_bytes=32)
            yield self.env.timeout(self.ECHO_TIMEOUT_S)
            self._evaluate_round(sent_at)

    def _on_echo_reply(self, msg) -> None:
        if msg.payload.get("echo_seq") == self._echo_seq:
            host = msg.payload["host"]
            self._replied.add(host)
            # round-trip: echo-request send time to reply arrival; this is
            # the "network parameters ... within a group" measurement.
            rtt = self.env.now - self._round_sent_at
            self.stats.rtt_samples.setdefault(host, []).append(rtt)
            obs = self.obs
            if obs.enabled:
                obs.metrics.histogram(
                    "gm_echo_rtt_seconds",
                    help="intra-group echo round-trip times").observe(
                        rtt, host=host)

    def _evaluate_round(self, _sent_at: float) -> None:
        obs = self.obs
        for host in self.member_hosts:
            if host in self._replied:
                self._misses[host] = 0
                if host in self._marked_down:
                    # the machine answered again: recovery
                    self._marked_down.discard(host)
                    self.stats.recoveries_detected += 1
                    if obs.enabled:
                        obs.metrics.counter(
                            "gm_liveness_events_total",
                            help="echo-inferred host state changes").inc(
                                host=host, kind="recovery")
                    self.network.send(self.address, self.site_manager_addr,
                                      HOST_UP, payload={"host": host,
                                                        "time": self.env.now},
                                      size_bytes=48)
                    self.tracer.record(self.env.now, "gm:host-up",
                                       self.address, host=host)
            else:
                self._misses[host] += 1
                if self._misses[host] >= self.miss_limit and \
                        host not in self._marked_down:
                    self._marked_down.add(host)
                    self.stats.failures_detected += 1
                    if obs.enabled:
                        obs.metrics.counter(
                            "gm_liveness_events_total",
                            help="echo-inferred host state changes").inc(
                                host=host, kind="failure")
                    self.network.send(self.address, self.site_manager_addr,
                                      HOST_DOWN, payload={"host": host,
                                                          "time": self.env.now},
                                      size_bytes=48)
                    self.tracer.record(self.env.now, "gm:host-down",
                                       self.address, host=host)

    # -- allocation distribution -------------------------------------------
    def _on_allocation(self, msg) -> None:
        """Forward the related RAT portion to each assigned machine."""
        payload = msg.payload
        portions: dict[str, list] = payload["portions"]
        dsts: list[str] = []
        payloads: list[dict] = []
        sizes: list[float] = []
        for host, entries in portions.items():
            dsts.append(f"{host}/appctl")
            payloads.append({"application": payload["application"],
                             "execution_id": payload["execution_id"],
                             "entries": entries,
                             "coordinator": payload["coordinator"]})
            sizes.append(256 + 128 * len(entries))
        if dsts:
            self.network.send_batch(self.address, dsts, EXECUTION_REQUEST,
                                    payloads=payloads, sizes=sizes)

    def stop(self) -> None:
        """Terminate the daemon's processes (simulation teardown)."""
        for proc in (self._inbox_proc, self._echo_proc):
            if proc.is_alive:
                proc.interrupt("stop")
