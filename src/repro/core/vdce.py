"""The VDCE facade: build an environment, submit applications, run them.

This ties the three paper modules together exactly as Figure 2 draws
them: the Application Editor produces an AFG; the Application Scheduler
(per-site, message-coordinated) maps it; the Runtime System (Site
Manager -> Group Managers -> Application Controllers + Data Managers)
executes it and feeds measurements back into the site repositories.

Typical use::

    vdce = VDCE(seed=1)
    vdce.add_site("syracuse")
    vdce.add_site("rome")
    vdce.connect_sites("syracuse", "rome", ATM_OC3)
    vdce.add_host("syracuse", HostSpec(name="h0", ...))
    ...
    vdce.start()
    editor = vdce.open_editor("alice", "pw", "my-app")
    ... build the graph ...
    run = vdce.run_application(editor.submit(), local_site="syracuse")
    print(run.makespan, run.results())
"""

from __future__ import annotations

from typing import Any

from repro.afg.editor import ApplicationEditor, EditorSession
from repro.afg.graph import ApplicationFlowGraph
from repro.faults import FaultInjector, FaultPlan
from repro.federation import (
    DirectorySync,
    Federation,
    MembershipConfig,
    MembershipDaemon,
)
from repro.net import EXECUTION_REQUEST
from repro.net.topology import LinkSpec
from repro.obs import OBS_OFF, Observability
from repro.prediction.calibration import calibrate_weights
from repro.recovery import RecoveryCoordinator
from repro.repository.site_repository import SiteRepository
from repro.resources.failures import FailureInjector
from repro.resources.groundtruth import ExecutionModel
from repro.resources.host import Host, HostSpec
from repro.resources.loads import OnOffLoad, RandomWalkLoad
from repro.resources.site import VDCEnvironment
from repro.runtime.control.app_controller import ApplicationController
from repro.runtime.control.change_filter import ChangeFilter
from repro.runtime.control.group_manager import GroupManager
from repro.runtime.control.monitor import MonitorDaemon
from repro.runtime.control.site_manager import SiteManager
from repro.runtime.data.data_manager import DataManager
from repro.scheduling.qos import QoSRequirement, require_admission
from repro.scheduling.rescheduling import ReschedulePolicy, Rescheduler
from repro.tasklib.registry import LibraryRegistry
from repro.tasklib import standard_registry
from repro.core.run import ApplicationRun
from repro.util.errors import ConfigurationError, VDCEError


class VDCE:
    """A complete simulated Virtual Distributed Computing Environment."""

    def __init__(self, seed: int = 0,
                 registry: LibraryRegistry | None = None,
                 trace: bool = True,
                 monitor_period_s: float = 2.0,
                 echo_period_s: float = 5.0,
                 filter_policy: str = "ci",
                 reschedule_policy: ReschedulePolicy | None = None,
                 obs: Observability | None = None) -> None:
        self.world = VDCEnvironment(seed=seed, trace=trace)
        #: observability handle threaded through every daemon; inert
        #: (the shared OBS_OFF singleton) unless one is supplied.
        self.obs = obs if obs is not None else OBS_OFF
        if obs is not None:
            obs.attach_tracer(self.world.tracer)
        self.world.network.set_observability(self.obs)
        self.registry = registry or standard_registry()
        self.model = ExecutionModel(seed=seed)
        self.monitor_period_s = monitor_period_s
        self.echo_period_s = echo_period_s
        self.filter_policy = filter_policy
        self.reschedule_policy = reschedule_policy or ReschedulePolicy()
        self.failures = FailureInjector(self.world.env, self.world.tracer)
        self.fault_injector: FaultInjector | None = None
        #: failover brain, created lazily by :meth:`enable_failover`
        self.recovery: RecoveryCoordinator | None = None
        #: federation membership view, created by :meth:`enable_membership`
        self.federation: Federation | None = None
        self.repositories: dict[str, SiteRepository] = {}
        self.rescheduler = Rescheduler(self.repositories,
                                       policy=self.reschedule_policy)
        self.site_managers: dict[str, SiteManager] = {}
        self.group_managers: dict[tuple[str, str], GroupManager] = {}
        self.monitors: dict[str, MonitorDaemon] = {}
        self.data_managers: dict[str, DataManager] = {}
        self.app_controllers: dict[str, ApplicationController] = {}
        self.load_models: list[Any] = []
        self._byte_orders: dict[str, str] = {}
        self._active_runs: dict[str, ApplicationRun] = {}
        self._execution_seq = 0
        self._started = False

    # -- shared plumbing shortcuts ----------------------------------------
    @property
    def env(self):
        return self.world.env

    @property
    def network(self):
        return self.world.network

    @property
    def topology(self):
        return self.world.topology

    @property
    def tracer(self):
        return self.world.tracer

    @property
    def now(self) -> float:
        return self.env.now

    # -- construction (before start) -----------------------------------------
    def _require_not_started(self, what: str) -> None:
        if self._started:
            raise ConfigurationError(f"{what} must happen before start()")

    def add_site(self, name: str, lan: LinkSpec | None = None):
        """Declare a VDCE site (before start())."""
        self._require_not_started("add_site")
        return self.world.add_site(name, lan=lan)

    def connect_sites(self, a: str, b: str, link: LinkSpec) -> None:
        """Add a WAN link between two declared sites (before start())."""
        self._require_not_started("connect_sites")
        self.world.connect_sites(a, b, link)

    def add_host(self, site: str, spec: HostSpec) -> Host:
        """Register a machine at a site (before start())."""
        self._require_not_started("add_host")
        return self.world.add_host(site, spec)

    def attach_background_load(self, host_address: str,
                               kind: str = "random-walk",
                               **kwargs) -> None:
        """Give one host a synthetic time-sharing load process."""
        host = self.world.host(host_address)
        rng = self.world.rng.stream(f"load:{host_address}")
        if kind == "random-walk":
            model = RandomWalkLoad(self.env, host, rng, **kwargs)
        elif kind == "on-off":
            model = OnOffLoad(self.env, host, rng, **kwargs)
        else:
            raise ConfigurationError(f"unknown load kind {kind!r}")
        self.load_models.append(model)

    # -- start: bring up every daemon ------------------------------------------
    def start(self, calibration_coverage: float = 1.0,
              constrain: dict[str, set[str]] | None = None,
              add_default_user: bool = True) -> None:
        """Populate repositories and launch the runtime daemons.

        *constrain* optionally maps task name -> host addresses holding
        its executable (default: every task installed everywhere).
        """
        if self._started:
            raise ConfigurationError("VDCE already started")
        if not self.world.sites:
            raise ConfigurationError("no sites configured")
        definitions = self.registry.all_tasks()
        for host in self.world.all_hosts():
            self._byte_orders[host.address] = host.spec.byte_order
        for site_name, site in self.world.sites.items():
            repo = self._build_site_repository(
                site_name, site, definitions,
                calibration_coverage=calibration_coverage,
                constrain=constrain, add_default_user=add_default_user)
            self.repositories[site_name] = repo
            sm = self._bring_up_site(site_name, site, repo)
            self._start_site_daemons(site_name, site, sm)
        self._started = True

    def _build_site_repository(self, site_name: str, site,
                               definitions,
                               calibration_coverage: float = 1.0,
                               constrain: dict[str, set[str]] | None = None,
                               add_default_user: bool = True
                               ) -> SiteRepository:
        """Populate one site's repository (start() and site_join share it)."""
        repo = SiteRepository(site_name)
        hosts = list(site.hosts.values())
        for host in hosts:
            repo.resource_performance.register_host(site_name, host.spec)
        calibrate_weights(
            repo.task_performance, definitions, hosts, self.model,
            coverage=calibration_coverage,
            rng=self.world.rng.stream(f"calibration:{site_name}"))
        for d in definitions:
            for host in hosts:
                allowed = constrain.get(d.name) if constrain else None
                if allowed is not None and host.address not in allowed:
                    continue
                repo.task_constraints.register_executable(
                    d.name, host.address, f"/usr/vdce/bin/{d.name}")
        if add_default_user:
            repo.user_accounts.add_user("vdce", "vdce",
                                        access_domain="multi-site")
        return repo

    def _bring_up_site(self, site_name: str, site,
                       repo: SiteRepository) -> SiteManager:
        """Create and wire one Site Manager (facade hooks included)."""
        sm = SiteManager(self.env, self.network, site, repo,
                         self.topology, tracer=self.tracer,
                         obs=self.obs)
        sm.on_reschedule_request = self._handle_reschedule_request
        sm.on_host_down = self._handle_host_down
        self.site_managers[site_name] = sm
        return sm

    def _start_site_daemons(self, site_name: str, site, sm: SiteManager
                            ) -> None:
        for group, members in site.groups.items():
            leader = site.group_leader(group)
            gm = GroupManager(
                self.env, self.network, site_name, group, leader,
                member_hosts=[f"{site_name}/{m}" for m in members],
                site_manager_addr=sm.address,
                echo_period_s=self.echo_period_s,
                change_filter=ChangeFilter(policy=self.filter_policy),
                tracer=self.tracer, obs=self.obs)
            sm.register_group_manager(gm)
            self.group_managers[(site_name, group)] = gm
            for member in members:
                host = site.host(member)
                self.monitors[host.address] = MonitorDaemon(
                    self.env, self.network, host, gm.address,
                    period_s=self.monitor_period_s, tracer=self.tracer,
                    obs=self.obs)
                dm = DataManager(self.env, self.network, host,
                                 byte_orders=self._byte_orders,
                                 retry_rng=self.world.rng.stream(
                                     "retry-jitter"),
                                 tracer=self.tracer, obs=self.obs)
                self.data_managers[host.address] = dm
                self.app_controllers[host.address] = ApplicationController(
                    self.env, self.network, host, self.registry, self.model,
                    dm, gm.address, policy=self.reschedule_policy,
                    tracer=self.tracer, obs=self.obs)

    # -- editor access -----------------------------------------------------
    def open_editor(self, user: str, password: str,
                    application_name: str = "application",
                    site: str | None = None) -> ApplicationEditor:
        """Authenticate against a site's user-accounts DB, open the editor."""
        if not self._started:
            raise ConfigurationError("start() the VDCE before opening editors")
        site = site or sorted(self.repositories)[0]
        session = EditorSession(self.repositories[site].user_accounts,
                                self.registry)
        session.login(user, password)
        return session.open_editor(application_name)

    # -- submission ------------------------------------------------------------
    def submit(self, graph: ApplicationFlowGraph, local_site: str,
               k_remote_sites: int = 1,
               qos: QoSRequirement | None = None,
               queue_aware: bool = False):
        """Submit an application; returns ``(process, run)``.

        The process performs scheduling, QoS admission, distribution, and
        completion tracking; drive the simulation with
        :meth:`run_application` (or run the env yourself and inspect the
        returned :class:`ApplicationRun` as it fills in).
        """
        if not self._started:
            raise ConfigurationError("start() the VDCE before submitting")
        if local_site not in self.site_managers:
            raise ConfigurationError(f"unknown site {local_site!r}")
        graph.validate()
        self._execution_seq += 1
        execution_id = f"exec-{self._execution_seq}"
        run = ApplicationRun(execution_id=execution_id, graph=graph,
                             table=None, report=None,  # type: ignore[arg-type]
                             submitted_at=self.now, status="running")
        self._active_runs[execution_id] = run
        obs = self.obs
        app_span = None
        if obs.enabled:
            app_span = obs.spans.begin(
                graph.name, "application", local_site, self.now,
                execution_id=execution_id)
            obs.spans.bind(("app", execution_id), app_span)
            obs.metrics.counter(
                "vdce_apps_submitted_total",
                help="applications submitted").inc(site=local_site)

        def proc(env):
            try:
                sm = self.site_managers[local_site]
                round_span = None
                if obs.enabled:
                    round_span = obs.spans.begin(
                        f"schedule:{graph.name}", "schedule-round", sm.address,
                        env.now, parent_id=app_span)
                table, report = yield from sm.schedule_application(
                    graph, k_remote_sites=k_remote_sites,
                    queue_aware=queue_aware)
                if obs.enabled and round_span is not None:
                    obs.spans.end(round_span, env.now,
                                  sites=len(report.consulted_sites),
                                  tasks=len(table))
                run.table, run.report = table, report
                run.scheduled_at = env.now
                if qos is not None:
                    require_admission(graph, table, self.topology, qos)
                state = sm.distribute_allocation(
                    table, execution_id, graph,
                    max_host_load=(qos.max_host_load if qos is not None
                                   else None))
                completions = yield state.finished
                run.started_at = (state.start_signal_time
                                  if state.start_signal_time is not None
                                  else run.scheduled_at)
                run.completions = dict(completions)
                run.finished_at = env.now
                run.status = "completed"
                if obs.enabled and app_span is not None:
                    obs.spans.end(app_span, env.now,
                                  tasks=len(run.completions))
                    obs.metrics.counter(
                        "vdce_apps_completed_total",
                        help="applications run to completion").inc(
                            site=local_site)
                return run
            except Exception:
                run.status = "rejected"
                raise
            finally:
                del self._active_runs[execution_id]

        process = self.env.process(proc(self.env),
                                   name=f"submit:{graph.name}")
        return process, run

    def run_application(self, graph: ApplicationFlowGraph, local_site: str,
                        k_remote_sites: int = 1,
                        qos: QoSRequirement | None = None,
                        max_sim_time_s: float = 3600.0,
                        queue_aware: bool = False) -> ApplicationRun:
        """Submit and drive the simulation until completion (or timeout).

        The environment's periodic daemons never let the event queue
        drain, so completion is awaited in bounded steps rather than with
        ``run(until=event)``.
        """
        process, run = self.submit(graph, local_site,
                                   k_remote_sites=k_remote_sites, qos=qos,
                                   queue_aware=queue_aware)
        deadline = self.now + max_sim_time_s
        while not process.triggered and self.now < deadline:
            self.env.run(until=min(self.now + 5.0, deadline))
        if process.triggered:
            if not process.ok:
                raise process.exception  # type: ignore[misc]
        else:
            run.status = "timeout"
        return run

    # -- dynamic rescheduling (facade-level coordination) ------------------------
    def _handle_reschedule_request(self, payload: dict) -> None:
        execution_id = payload["execution_id"]
        run = self._active_runs.get(execution_id)
        if run is None or run.table is None:
            return
        entry_payload = dict(payload["entry"])
        node_id = entry_payload["node_id"]
        if node_id in run.completions:
            return  # completed elsewhere in the meantime
        attempt = entry_payload.get("attempt", 0) + 1
        node = run.graph.node(node_id)
        current = run.table.get(node_id)
        exclude = {payload["host"]}
        # degraded mode: never re-queue into a partition — the request's
        # own excluded sites plus whatever the coordinating site's
        # membership view currently quarantines
        exclude_sites = set(payload.get("exclude_sites") or ())
        if self.federation is not None:
            exclude_sites.update(
                self.federation.quarantined(run.report.local_site))
        forced = attempt > self.reschedule_policy.max_attempts
        try:
            new_entry = self.rescheduler.reschedule(
                node, current, exclude_hosts=exclude,
                exclude_sites=exclude_sites)
        except VDCEError:
            # nowhere to go: force re-execution where it was
            new_entry = current
            forced = True
        if new_entry is not current:
            run.table.reassign(new_entry)
        run.reschedules += 1
        coordinator = self._push(run, new_entry,
                                 forward_inputs=payload.get("inputs") or {},
                                 attempt=attempt, forced=forced)
        self.tracer.record(self.now, "vdce:rescheduled", coordinator,
                           node=node_id, to=new_entry.host,
                           attempt=attempt)
        if self.obs.enabled:
            self.obs.metrics.counter(
                "vdce_reschedules_total",
                help="facade-coordinated task reschedules").inc(
                    site=run.report.local_site)

    def _push(self, run: ApplicationRun, entry, **extra) -> str:
        """Send one task straight to its host's Application Controller.

        The immediate execution request of every re-homing path, sent
        from (and naming as coordinator) the run's local Site Manager,
        whose address is returned.  *extra* is added to the entry.
        """
        coordinator = self.site_managers[run.report.local_site].address
        fresh = SiteManager._entry_payload(entry, run.graph, run.table)
        fresh.update(extra)
        self.network.send(
            coordinator, f"{entry.host}/appctl", EXECUTION_REQUEST,
            payload={"application": run.graph.name,
                     "execution_id": run.execution_id,
                     "entries": [fresh], "coordinator": coordinator,
                     "immediate": True},
            size_bytes=256)
        return coordinator

    def _unfinished(self, coordinator: str | None = None):
        """Yield ``(run, entry)`` for every unfinished task of a running
        application, by execution id then node id.

        With *coordinator* set, only runs whose local site it is.  Each
        entry is read from the table when reached, so a reassignment
        made for an earlier pair is seen by later ones.
        """
        for execution_id in sorted(self._active_runs):
            run = self._active_runs[execution_id]
            if run.status != "running" or run.table is None:
                continue
            if coordinator is not None and \
                    run.report.local_site != coordinator:
                continue
            for node_id in sorted(run.table.entries):
                if node_id not in run.completions:
                    yield run, run.table.get(node_id)

    def _reschedule_lost(self, run: ApplicationRun, entry, host: str,
                         reason: str, **extra) -> None:
        """Reschedule a task whose inputs were lost with *host*.

        The task re-runs in simulation mode: its inputs arrive as None
        (values regenerate only for entry tasks, whose inputs are
        parameters).
        """
        node = run.graph.node(entry.node_id)
        self._handle_reschedule_request({
            "execution_id": run.execution_id,
            "entry": {"node_id": entry.node_id,
                      "task_name": entry.task_name},
            "host": host,
            "inputs": {port: None for port in node.input_ports},
            "reason": reason, **extra})

    def _handle_host_down(self, host: str) -> None:
        """Reroute unfinished tasks assigned to a failed host.

        Runs go in submission order and each run's tasks in table
        order; the walk order decides which reroute claims a host
        first, so it is part of every seeded artefact.
        """
        for run in self._active_runs.values():
            if run.table is None or run.status != "running":
                continue
            for entry in run.table.portion_for_host(host):
                if entry.node_id not in run.completions:
                    self._reschedule_lost(run, entry, host, "host-down")

    # -- self-healing control plane (server failover) -----------------------------
    def enable_failover(self, site: str, standby_hosts: list[str],
                        heartbeat_period_s: float = 2.0,
                        miss_limit: int = 3,
                        promote_grace_s: float = 2.0) -> RecoveryCoordinator:
        """Replicate *site*'s server state onto *standby_hosts*.

        Every mutating Site Manager operation is write-ahead-logged and
        shipped to the standbys; if the server machine goes silent for
        ``miss_limit`` heartbeat periods, the lowest-address live standby
        promotes itself (after its rank-staggered grace), rebuilds the
        execution state from the log, and in-flight applications finish
        exactly once.  May be enabled per site; returns the shared
        :class:`~repro.recovery.RecoveryCoordinator`.
        """
        if not self._started:
            raise ConfigurationError(
                "start() the VDCE before enable_failover")
        if site not in self.site_managers:
            raise ConfigurationError(f"unknown site {site!r}")
        if self.recovery is None:
            self.recovery = RecoveryCoordinator(
                self.env, self.network, self.topology,
                tracer=self.tracer, obs=self.obs)
            self.recovery.on_promoted = self._on_server_promoted
        self.recovery.enable_site(
            self.world.site(site), self.site_managers[site],
            standby_hosts, self.monitors,
            heartbeat_period_s=heartbeat_period_s,
            miss_limit=miss_limit, promote_grace_s=promote_grace_s)
        return self.recovery

    def _on_server_promoted(self, site_name: str, old_sm: SiteManager,
                            new_sm: SiteManager) -> None:
        """Swap the facade's manager map and heal in-flight work.

        The coordinator already re-pushed the WAL's original
        allocations; here every incomplete task of this site's active
        runs is additionally re-issued at its *current* table
        assignment, which covers reschedules the log never saw (their
        immediate pushes were sent from the dead server's role address
        and dropped).  Application Controllers dedup by (execution,
        node), so the overlap is harmless.
        """
        self.site_managers[site_name] = new_sm
        for run, entry in self._unfinished(site_name):
            self._push(run, entry)
        self.tracer.record(self.now, "vdce:failover", new_sm.address,
                           site=site_name)

    # -- elastic federation membership --------------------------------------------
    def enable_membership(self, config: MembershipConfig | None = None
                          ) -> Federation:
        """Start the membership protocol on every site.

        One :class:`~repro.federation.MembershipDaemon` per site server
        heartbeats its peers, quarantines sites it stops hearing from
        (WAN partitions, down servers), and feeds each Site Manager's
        ``site_filter`` so degraded-mode scheduling excludes unreachable
        capacity.  Quarantine triggers the facade's exactly-once
        re-queue of in-flight tasks stranded behind the partition;
        rejoin triggers the WAL/Delta-cursor directory catch-up.
        Idempotent; returns the shared :class:`Federation` view.
        """
        if not self._started:
            raise ConfigurationError(
                "start() the VDCE before enable_membership")
        if self.federation is not None:
            return self.federation
        self.federation = Federation(config=config)
        for site_name in sorted(self.site_managers):
            self._make_membership_daemon(site_name)
        for site_name in sorted(self.federation.daemons):
            daemon = self.federation.daemons[site_name]
            for peer in sorted(self.federation.daemons):
                if peer != site_name:
                    daemon.seed_peer(peer)
        return self.federation

    def _make_membership_daemon(self, site_name: str) -> MembershipDaemon:
        """Build, register, and wire one site's membership daemon."""
        assert self.federation is not None

        def wal_log(kind: str, payload: dict, _site=site_name) -> None:
            # late-bound so the shipper follows a failover promotion
            self.site_managers[_site]._log(kind, payload)

        daemon = MembershipDaemon(
            self.env, self.network, self.world.site(site_name),
            DirectorySync(self.repositories[site_name]),
            config=self.federation.config, tracer=self.tracer,
            obs=self.obs, wal_log=wal_log,
            on_quarantine=self._on_site_quarantined,
            on_rejoin=self._on_site_rejoined)
        self.federation.add(daemon)
        self.site_managers[site_name].site_filter = \
            self.federation.usable_filter(site_name)
        return daemon

    def _on_site_quarantined(self, observer: str, peer: str) -> None:
        """Degraded mode: shed the unreachable site's in-flight work.

        Only runs coordinated by *observer* are touched, so of the many
        sites that may quarantine the same peer exactly one — the
        coordinator — re-queues each task.
        """
        sm = self.site_managers.get(observer)
        if sm is not None:
            sm.waive_site_acks(peer)
        self._requeue_site_tasks(peer, coordinator=observer)
        self.tracer.record(self.now, "vdce:site-quarantined",
                           f"{observer}/server", peer=peer)

    def _on_site_rejoined(self, observer: str, peer: str) -> None:
        """Reconcile after a partition heals.

        Incomplete tasks of *observer*-coordinated runs still assigned
        at *peer* (the forced-fallback leftovers nowhere else could
        take) are re-pushed; Application Controllers dedup by
        ``(execution, node)`` and re-send cached completion reports, so
        work finished behind the partition is recovered rather than
        re-run and nothing executes twice.
        """
        for run, entry in self._unfinished(observer):
            if entry.site == peer:
                node = run.graph.node(entry.node_id)
                self._push(run, entry, forward_inputs={
                    port: None for port in node.input_ports})
        self.tracer.record(self.now, "vdce:site-rejoined",
                           f"{observer}/server", peer=peer)

    def _requeue_site_tasks(self, peer: str,
                            coordinator: str | None = None) -> None:
        """Re-queue incomplete tasks placed at *peer* onto reachable sites.

        With *coordinator* set, only that site's runs are considered —
        the exactly-once guard.  Runs coordinated *by* the unreachable
        site itself are skipped: their server keeps driving them inside
        its own partition, and the idempotency keys absorb the overlap
        at rejoin.
        """
        for run, entry in self._unfinished(coordinator):
            if entry.site == peer and run.report.local_site != peer:
                # inputs behind the partition are unreachable
                self._reschedule_lost(run, entry, entry.host,
                                      "site-unreachable",
                                      exclude_sites=[peer])
        if self.obs.enabled:
            self.obs.metrics.counter(
                "vdce_degraded_requeues_total",
                help="site-unreachable re-queue sweeps").inc(peer=peer)

    def reachable_capacity(self, observer: str) -> int:
        """Host count across the sites *observer* may currently use.

        The admission-control denominator in degraded mode: load is
        shed against reachable capacity, not nameplate capacity.
        Without membership enabled every site counts.
        """
        total = 0
        for name in sorted(self.world.sites):
            if self.federation is not None and \
                    not self.federation.is_usable(observer, name):
                continue
            total += len(self.world.sites[name].hosts)
        return total

    def site_join(self, name: str, hosts: list[HostSpec],
                  links: dict[str, LinkSpec],
                  sponsor: str | None = None,
                  lan: LinkSpec | None = None,
                  calibration_coverage: float = 1.0):
        """Elastically add a running site to a started federation.

        Provisions the site (hosts, WAN *links* to existing sites, LAN),
        builds and calibrates its repository, launches its full daemon
        stack, announces the join to every member, and bootstraps the
        user-accounts directory with a snapshot transfer from *sponsor*
        (default: the first member, sorted).  Requires
        :meth:`enable_membership`.  Returns the new :class:`Site`.
        """
        if not self._started:
            raise ConfigurationError("start() the VDCE before site_join")
        if self.federation is None:
            raise ConfigurationError(
                "enable_membership() before site_join")
        if not links:
            raise ConfigurationError(
                f"joining site {name!r} needs at least one WAN link")
        members = sorted(self.federation.daemons)
        site = self.world.add_site(name, lan=lan)
        for spec in hosts:
            host = self.world.add_host(name, spec)
            self._byte_orders[host.address] = host.spec.byte_order
        for peer in sorted(links):
            self.world.connect_sites(name, peer, links[peer])
        repo = self._build_site_repository(
            name, site, self.registry.all_tasks(),
            calibration_coverage=calibration_coverage,
            add_default_user=False)  # the directory arrives via snapshot
        self.repositories[name] = repo
        sm = self._bring_up_site(name, site, repo)
        self._start_site_daemons(name, site, sm)
        daemon = self._make_membership_daemon(name)
        for peer in members:
            daemon.seed_peer(peer)
        daemon.announce_join()
        sponsor = sponsor or (members[0] if members else None)
        if sponsor is not None:
            daemon.request_snapshot(sponsor)
        self.tracer.record(self.now, "vdce:site-join", f"{name}/server",
                           hosts=len(hosts), sponsor=sponsor)
        if self.obs.enabled:
            self.obs.metrics.counter(
                "vdce_membership_elastic_total",
                help="elastic site joins/leaves executed").inc(
                    site=name, op="join")
        return site

    def site_leave(self, name: str, drain_timeout_s: float = 300.0):
        """Cleanly drain and detach a site; returns the drain process.

        The departure is announced first, so members stop scheduling
        onto the leaver, then the process polls once a simulated second
        until no active run involves the site (as coordinator or
        executor).  On drain
        timeout its remaining tasks are force-re-queued elsewhere.
        Finally every daemon is stopped and the site removed from the
        world and topology.  Drive the returned process with
        :meth:`run` (or wait on it from another process).
        """
        if self.federation is None:
            raise ConfigurationError(
                "enable_membership() before site_leave")
        daemon = self.federation.daemon(name)

        def proc():
            daemon.announce_leave()
            deadline = self.now + drain_timeout_s
            while self._site_involved(name) and self.now < deadline:
                yield self.env.timeout(1.0)
            if self._site_involved(name):
                # drain timed out: force the stragglers off the leaver
                for other in sorted(self.site_managers):
                    if other != name:
                        self.site_managers[other].waive_site_acks(name)
                self._requeue_site_tasks(name)
                yield self.env.timeout(1.0)
            daemon.stop()
            self.federation.remove(name)
            self._stop_site_daemons(name)
            del self.site_managers[name]
            del self.repositories[name]
            self.topology.remove_site(name)
            del self.world.sites[name]
            self.tracer.record(self.now, "vdce:site-leave",
                               f"{name}/server")
            if self.obs.enabled:
                self.obs.metrics.counter(
                    "vdce_membership_elastic_total",
                    help="elastic site joins/leaves executed").inc(
                        site=name, op="leave")

        return self.env.process(proc(), name=f"site-leave:{name}")

    def _site_involved(self, name: str) -> bool:
        """Does any active run still coordinate at or execute on *name*?"""
        if any(run.status == "running" and run.report is not None
               and run.report.local_site == name
               for run in self._active_runs.values()):
            return True
        return any(entry.site == name for _, entry in self._unfinished())

    def _stop_site_daemons(self, site_name: str) -> None:
        """Stop and drop every daemon of one site (site_leave teardown)."""
        prefix = f"{site_name}/"
        for mapping in (self.monitors, self.data_managers,
                        self.app_controllers):
            for addr in sorted(a for a in mapping if a.startswith(prefix)):
                mapping.pop(addr).stop()
        for key in sorted(k for k in self.group_managers
                          if k[0] == site_name):
            self.group_managers.pop(key).stop()
        sm = self.site_managers.get(site_name)
        if sm is not None:
            sm.stop()

    # -- fault injection ---------------------------------------------------------
    def apply_fault_plan(self, plan: FaultPlan) -> FaultInjector:
        """Install a :class:`~repro.faults.FaultPlan` on this federation.

        May be called before or during a run; host/site fault times must
        lie in the simulated future.  Repeated calls reuse one injector
        (and its RNG stream), so a session's fault log stays a single
        deterministic sequence.
        """
        if self.fault_injector is None:
            self.fault_injector = FaultInjector(
                self.env, self.network, tracer=self.tracer,
                rng=self.world.rng.stream("faults"),
                host_resolver=self.world.host,
                site_resolver=self.world.site,
                site_hosts=lambda s: list(self.world.site(s).hosts.values()))
        self.fault_injector.install(plan)
        return self.fault_injector

    # -- simulation control ------------------------------------------------------
    def run(self, until: float | None = None):
        """Advance the simulated clock (delegates to the engine)."""
        return self.env.run(until=until)

    def warm_up(self, duration_s: float = 30.0) -> None:
        """Run monitors/loads for a while so repositories hold real data."""
        self.env.run(until=self.now + duration_s)

    def stop(self) -> None:
        """Terminate every daemon and load model.

        After stop() the event queue drains naturally; useful when a
        VDCE instance is embedded in a longer-lived simulation and must
        release its periodic processes.
        """
        for collection in (self.monitors, self.data_managers,
                           self.app_controllers):
            for daemon in collection.values():
                daemon.stop()
        for gm in self.group_managers.values():
            gm.stop()
        for sm in self.site_managers.values():
            sm.stop()
        if self.recovery is not None:
            self.recovery.stop()
        if self.federation is not None:
            for daemon in self.federation.daemons.values():
                daemon.stop()
        for model in self.load_models:
            model.stop()
