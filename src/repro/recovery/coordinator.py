"""Failover orchestration: enable replication, execute promotions.

One :class:`RecoveryCoordinator` per federation (owned by the VDCE
facade).  :meth:`enable_site` turns a site's control plane
self-healing: it snapshots the server's repository onto standby hosts,
attaches the WAL shipper to the live Site Manager, starts the server
heartbeat, and registers rank-staggered
:class:`~repro.recovery.failover.HeartbeatTracker` detectors with the
standby hosts' monitors.

:meth:`promote` is the failover itself, run synchronously at the
simulated instant the winning detector fires:

1. **fence** — stop the old Site Manager's inbox and heartbeat (the old
   machine never reclaims the role, even if it recovers);
2. **move the role** — ``site.server_role_host`` points at the standby,
   so the stable ``site/server/...`` addresses now route liveness to it
   (clients and daemons keep their addressing);
3. **rebuild** — a fresh Site Manager over the replica repository,
   with execution state reconstructed from the shipped WAL
   (:func:`~repro.recovery.wal.replay_executions`): pending acks,
   start signals and completions are restored, acks of dead hosts
   waived, allocation portions re-pushed (the Application Controllers
   deduplicate, so re-pushes are idempotent and tasks run exactly
   once), and the client's completion future re-attached;
4. **re-arm** — surviving standbys absorb any records they missed
   (snapshot state transfer), get a new shipper/heartbeat from the
   promoted server, and re-rank so a second failover works the same
   way.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.net import ALLOCATION_PUSH, SERVER_PROMOTED
from repro.net.network import Network
from repro.net.topology import Topology
from repro.obs import OBS_OFF, Observability
from repro.recovery.failover import HeartbeatTracker, ServerHeartbeatDaemon
from repro.recovery.replication import ReplicationShipper, StandbyReplica
from repro.recovery.wal import replay_executions
from repro.resources.site import Site
from repro.runtime.control.site_manager import ExecutionState, SiteManager
from repro.simcore.engine import Environment
from repro.simcore.trace import Tracer
from repro.util.errors import ConfigurationError


@dataclass
class SiteFailoverState:
    """Everything the coordinator tracks for one protected site."""

    site: Site
    sm: SiteManager
    shipper: ReplicationShipper
    heartbeat: ServerHeartbeatDaemon
    replicas: list[StandbyReplica]
    monitors: dict[str, Any]
    heartbeat_period_s: float
    miss_limit: int
    promote_grace_s: float
    promotions: int = 0
    history: list[str] = field(default_factory=list)


class RecoveryCoordinator:
    """Per-federation failover brain (wired by ``VDCE.enable_failover``)."""

    def __init__(self, env: Environment, network: Network,
                 topology: Topology, tracer: Tracer | None = None,
                 obs: Observability | None = None) -> None:
        self.env = env
        self.network = network
        self.topology = topology
        self.tracer = tracer or Tracer(enabled=False)
        self.obs = obs if obs is not None else OBS_OFF
        self.sites: dict[str, SiteFailoverState] = {}
        self.failovers = 0
        #: facade hook: called as (site_name, old_sm, new_sm) after a
        #: promotion so the facade can swap its site-manager map and
        #: reconcile in-flight runs
        self.on_promoted: Callable[[str, SiteManager, SiteManager],
                                   None] | None = None

    # -- enabling ----------------------------------------------------------
    def enable_site(self, site: Site, sm: SiteManager,
                    standby_hosts: list[str],
                    monitors: dict[str, Any],
                    heartbeat_period_s: float = 2.0,
                    miss_limit: int = 3,
                    promote_grace_s: float = 2.0) -> list[StandbyReplica]:
        """Protect one site with the given standby hosts.

        *standby_hosts* are bare host names at *site*; *monitors* maps
        host addresses to their MonitorDaemon (the facade's registry) so
        each standby's crash-watch loop can tick its failure detector.
        """
        if site.name in self.sites:
            raise ConfigurationError(
                f"failover already enabled for site {site.name!r}")
        if not standby_hosts:
            raise ConfigurationError(
                f"no standby hosts given for site {site.name!r}")
        if miss_limit < 1:
            raise ConfigurationError("miss_limit must be >= 1")
        replicas = []
        for host_name in sorted(standby_hosts):
            host = site.host(host_name)  # raises on unknown host
            replicas.append(StandbyReplica(
                self.env, self.network, host, site,
                repository=copy.deepcopy(sm.repository),
                tracer=self.tracer, obs=self.obs))
        standby_addrs = [r.address for r in replicas]
        shipper = ReplicationShipper(self.env, self.network, sm.address,
                                     standby_addrs, tracer=self.tracer)
        sm.replication = shipper
        heartbeat = ServerHeartbeatDaemon(
            self.env, self.network, site, standby_addrs,
            period_s=heartbeat_period_s, tracer=self.tracer)
        state = SiteFailoverState(
            site=site, sm=sm, shipper=shipper, heartbeat=heartbeat,
            replicas=replicas, monitors=monitors,
            heartbeat_period_s=heartbeat_period_s, miss_limit=miss_limit,
            promote_grace_s=promote_grace_s)
        self._attach_trackers(state)
        self.sites[site.name] = state
        self.tracer.record(self.env.now, "rec:enabled", sm.address,
                           site=site.name, standbys=sorted(standby_addrs))
        return replicas

    def _attach_trackers(self, state: SiteFailoverState) -> None:
        """(Re-)rank the live standbys: lowest address gets rank 0."""
        suspect_after = state.miss_limit * state.heartbeat_period_s
        for rank, replica in enumerate(
                sorted(state.replicas, key=lambda r: r.address)):
            tracker = HeartbeatTracker(
                replica, rank=rank, suspect_after_s=suspect_after,
                promote_grace_s=state.promote_grace_s,
                on_promote=lambda rep, suspected, s=state.site.name:
                    self.promote(s, rep, suspected))
            replica.tracker = tracker
            monitor = state.monitors.get(replica.host.address)
            if monitor is not None:
                monitor.watch_server(tracker)

    # -- the failover -------------------------------------------------------
    def promote(self, site_name: str, replica: StandbyReplica,
                suspected_at: float) -> SiteManager | None:
        """Promote *replica* to site server; returns the new manager.

        Returns None when the promotion is refused: the replica is
        stale (a peer already won) or the current role-holder is in
        fact alive (fencing — a detector firing on lost heartbeats
        must not create a second server).
        """
        state = self.sites.get(site_name)
        if state is None or replica not in state.replicas \
                or not replica.active:
            return None
        site = state.site
        if site.server_is_up():
            return None  # fencing: role-holder alive, detector misfired
        old_sm = state.sm
        # 1. fence the failed role-holder
        state.heartbeat.stop()
        old_sm.stop()
        monitor = state.monitors.get(replica.host.address)
        if monitor is not None:
            monitor.watch_server(None)
        replica.stop()  # this standby daemon becomes the server
        # 2. move the server role onto the standby host
        site.server_role_host = replica.host.name
        # 3. rebuild the Site Manager over the replica repository; the
        # stable role address means nothing else re-learns an address
        new_sm = SiteManager(
            self.env, self.network, site, replica.repository,
            self.topology, tracer=self.tracer, obs=self.obs)
        for gm in old_sm.group_managers.values():
            new_sm.register_group_manager(gm)
        new_sm.on_reschedule_request = old_sm.on_reschedule_request
        new_sm.on_host_down = old_sm.on_host_down
        # 4. re-arm the survivors: state transfer, new shipper + beat
        survivors = [r for r in state.replicas
                     if r is not replica and r.active]
        records = replica.ordered_records()
        for peer in survivors:
            peer.absorb(records)
            self.network.send(new_sm.address, peer.address,
                              SERVER_PROMOTED,
                              payload={"site": site_name,
                                       "host": replica.host.address},
                              size_bytes=48)
        new_sm.replication = ReplicationShipper(
            self.env, self.network, new_sm.address,
            [r.address for r in survivors],
            start_lsn=replica.last_lsn(), tracer=self.tracer)
        heartbeat = ServerHeartbeatDaemon(
            self.env, self.network, site, [r.address for r in survivors],
            period_s=state.heartbeat_period_s, tracer=self.tracer)
        # 5. reconstruct execution state from the shipped log
        rebuilt = self._reconstruct(new_sm, old_sm, replica, site)
        state.sm = new_sm
        state.shipper = new_sm.replication
        state.heartbeat = heartbeat
        state.replicas = survivors
        self._attach_trackers(state)
        state.promotions += 1
        state.history.append(replica.host.address)
        self.failovers += 1
        self.tracer.record(self.env.now, "rec:promoted", new_sm.address,
                           site=site_name, host=replica.host.address,
                           executions=len(rebuilt),
                           wal_records=len(records))
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter(
                "failovers_total",
                help="server failovers (standby promotions)").inc(
                    site=site_name)
            span = obs.spans.begin(
                f"failover:{site_name}", "failover", new_sm.address,
                suspected_at, host=replica.host.address)
            obs.spans.end(span, self.env.now, executions=len(rebuilt))
        if self.on_promoted is not None:
            self.on_promoted(site_name, old_sm, new_sm)
        return new_sm

    def _reconstruct(self, new_sm: SiteManager, old_sm: SiteManager,
                     replica: StandbyReplica,
                     site: Site) -> list[ExecutionState]:
        """Rebuild unfinished executions from the replica's WAL copy."""
        recovered = replay_executions(replica.ordered_records())
        resource_perf = new_sm.repository.resource_performance
        rebuilt: list[ExecutionState] = []
        for execution_id in sorted(recovered):
            info = recovered[execution_id]
            if info["finished"]:
                continue
            begin = info["begin"]
            state = ExecutionState(
                execution_id=execution_id,
                application=begin["application"],
                expected_acks=set(begin["expected_acks"]),
                received_acks=set(info["acks"]),
                controllers=set(begin["controllers"]),
                started=info["started"],
                start_signal_time=info["start_time"],
                completed_tasks=dict(info["completed"]),
                finished=self.env.event(),
                total_tasks=begin["total_tasks"])
            old_state = old_sm._executions.get(execution_id)
            if old_state is not None and old_state.finished is not None \
                    and not old_state.finished.triggered:
                # the submitting client re-attaches its completion future
                state.finished = old_state.finished
            new_sm._executions[execution_id] = state
            self._relog(new_sm, begin, state)
            # waive acks of hosts the replica already knows are down
            # (their Group Manager will not re-report an old failure)
            if not state.started:
                for host in sorted(state.expected_acks
                                   - state.received_acks):
                    if host in resource_perf and \
                            resource_perf.get(host).status == "down":
                        state.expected_acks.discard(host)
                        state.controllers.discard(f"{host}/appctl")
            # re-push every portion; the Application Controllers dedup
            # by (execution, node), so completed or running tasks are
            # not re-executed and lost pushes are healed
            for push_site in sorted(begin["by_site"]):
                portions = begin["by_site"][push_site]
                if push_site == site.name:
                    new_sm._push_to_groups(portions, state.application,
                                           execution_id)
                else:
                    self.network.send(
                        new_sm.address,
                        f"{push_site}/server/{SiteManager.SERVICE}",
                        ALLOCATION_PUSH,
                        payload={"application": state.application,
                                 "execution_id": execution_id,
                                 "portions": portions,
                                 "coordinator": new_sm.address},
                        size_bytes=256 + 128 * sum(
                            map(len, portions.values())))
            if state.started:
                new_sm.resend_start(state)
            else:
                new_sm._maybe_start(state)
            if len(state.completed_tasks) >= state.total_tasks and \
                    state.finished is not None and \
                    not state.finished.triggered:
                # every completion was already in the log; only the
                # client notification was lost with the old server
                state.finished.succeed(dict(state.completed_tasks))
            rebuilt.append(state)
        return rebuilt

    @staticmethod
    def _relog(new_sm: SiteManager, begin: dict[str, Any],
               state: ExecutionState) -> None:
        """Write the rebuilt execution onto the new server's WAL.

        The survivors follow the new shipper, so a *second* failover
        replays this execution exactly like the first one did.
        """
        shipper = new_sm.replication
        if shipper is None:
            return
        shipper.log("exec-begin", begin)
        for host in sorted(state.received_acks):
            shipper.log("ack", {"execution_id": state.execution_id,
                                "host": host})
        if state.started:
            shipper.log("start", {"execution_id": state.execution_id})
        for node_id in sorted(state.completed_tasks):
            shipper.log("task-completed", state.completed_tasks[node_id])

    # -- teardown -----------------------------------------------------------
    def stop(self) -> None:
        """Terminate heartbeats and standby daemons (simulation teardown)."""
        for state in self.sites.values():
            state.heartbeat.stop()
            for replica in state.replicas:
                replica.stop()
