"""The three benchmark workloads, driven through the public ``repro`` API.

Each workload is a fixed set of *sub-workloads*.  Sub-workload ``i`` of
workload seed ``s`` is generated from the seed ``s * 1000 + i`` and runs
on a federation of its own, so a run averages over several independent
inputs.  A sub-workload has three phases:

* :meth:`setup` builds the testbed, starts the daemons, warms up,
  installs the fault plan and registers the tenants (host time here is
  the ``setup_s`` metric, never the throughput);
* :meth:`run` is the timed region: only the simulation itself;
* :meth:`finish` checks the outputs, takes the simulated metrics and the
  digest, and reads the per-layer counts from the public ``*Stats``
  objects, ``injector.counts()`` and the message counters.

Simulated metrics (makespans, waits, fairness) repeat exactly for a
seed; host time does not.  The program only ever sees the inputs
generated here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.faults import FaultPlan, LinkFlap
from repro.net import SITE_HEARTBEAT, SYNC_REPLY
from repro.repository.user_accounts import TenantRecord
from repro.simcore.engine import Environment
from repro.traffic import (
    TEMPLATE_NAMES,
    CapacityBackend,
    DRFAllocator,
    ReplayConfig,
    ReplayEngine,
    ReplayReport,
    build_arrivals,
    check_report,
    fairness_stats,
    load_trace,
    make_tenants,
    provision_tenants,
)
from repro.traffic.trace import JobRequest
from repro.traffic.vdce_replay import VdceReplayBackend
from repro.util.rng import RngRegistry
from repro.workloads import (
    WorkloadPlayer,
    linear_solver_graph,
    random_layered_graph,
    wide_area_testbed,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLE_TRACE = REPO_ROOT / "data" / "traces" / "alibaba_sample.trace"

#: residual bound every Linear Equation Solver run must meet
RESIDUAL_LIMIT = 1e-8


@dataclass
class SubResult:
    """What one sub-workload produced, after its checks."""

    attempted: int
    failed: int
    problems: list[str]
    makespans: list[float]
    waits: list[float]
    fairness: float
    sim_s: float
    digest: str
    counts: dict[str, float] = field(default_factory=dict)


class RecordingBackend:
    """Delegates the ``ReplayBackend`` protocol and records, from outside
    the engine, each job's simulated wait (arrival to dispatch) and
    makespan (dispatch to completion).

    ``wrap_complete`` lets the traced run put a span around the
    completion callback (release plus the DRF pump it re-enters).
    """

    def __init__(self, inner: Any, env: Environment) -> None:
        self.inner = inner
        self.env = env
        self.waits: list[float] = []
        self.makespans: list[float] = []
        self.wrap_complete: Callable[[Callable[[], None]],
                                     Callable[[], None]] | None = None

    def fits(self, req: JobRequest) -> bool:
        return self.inner.fits(req)

    def ever_fits(self, req: JobRequest) -> bool:
        return self.inner.ever_fits(req)

    def start(self, req: JobRequest,
              on_complete: Callable[[], None]) -> None:
        env = self.env
        started = env.now
        self.waits.append(started - req.submit_time_s)
        makespans = self.makespans
        if self.wrap_complete is not None:
            on_complete = self.wrap_complete(on_complete)

        def done() -> None:
            makespans.append(env.now - started)
            on_complete()

        self.inner.start(req, done)


def _sha(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _floats_json(values: list[float]) -> str:
    return json.dumps([repr(v) for v in values])


def _admission_rows(engine: ReplayEngine) -> dict[str, dict[str, object]]:
    """The admission section of the canonical replay report."""
    return {
        name: {
            "arrivals": stats.arrivals,
            "admitted": stats.admitted,
            "throttled": stats.throttled,
            "rejected_total": sum(stats.rejected.values()),
            "rejected": {reason: count
                         for reason, count in sorted(stats.rejected.items())
                         if count},
            "max_queue_depth": stats.max_queue_depth,
        }
        for name, stats in sorted(engine.admission.stats.items())
    }


def _vdce_counts(vdce: Any) -> dict[str, float]:
    """Per-layer counts a started VDCE exposes through public state."""
    net = vdce.network.stats
    gms = list(vdce.group_managers.values())
    acs = list(vdce.app_controllers.values())
    dms = list(vdce.data_managers.values())
    counts: dict[str, float] = {
        "net.messages": net.messages,
        "net.bytes": net.bytes,
        "net.dropped": net.dropped,
        "net.partition_drops": net.partition_drops,
        "control.reports_received": sum(g.stats.reports_received
                                        for g in gms),
        "control.updates_forwarded": sum(g.stats.updates_forwarded
                                         for g in gms),
        "control.tasks_executed": sum(a.stats.tasks_executed for a in acs),
        "control.overload_terminations": sum(
            a.stats.overload_terminations for a in acs),
        "data.channels_opened": sum(d.stats.channels_opened for d in dms),
        "data.setup_retries": sum(d.stats.retries for d in dms),
        "data.bytes_sent": sum(d.stats.data_bytes_sent for d in dms),
        "federation.heartbeats": net.by_kind.get(SITE_HEARTBEAT, 0),
        "federation.sync_replies": net.by_kind.get(SYNC_REPLY, 0),
        "federation.sync_bytes": net.bytes_by_kind.get(SYNC_REPLY, 0.0),
        "federation.quarantines": 0,
        "federation.rejoins": 0,
        "faults.events": 0,
    }
    if vdce.federation is not None:
        for daemon in vdce.federation.daemons.values():
            for event in daemon.events:
                if event["event"] == "quarantine":
                    counts["federation.quarantines"] += 1
                elif event["event"] == "rejoin":
                    counts["federation.rejoins"] += 1
    if vdce.fault_injector is not None:
        counts["faults.events"] = sum(vdce.fault_injector.counts().values())
    return counts


def _replay_counts(engine: ReplayEngine) -> dict[str, float]:
    return {
        "traffic.dispatches": sum(t.dispatched
                                  for t in engine.outcome.tenants.values()),
        "traffic.max_queue_depth": max(
            (s.max_queue_depth for s in engine.admission.stats.values()),
            default=0),
    }


class Workload:
    """A named workload made of ``subworkloads`` seeded sub-workloads."""

    name = ""
    subworkloads = 1
    #: layers this workload must leave idle (checked by the traced run)
    bypassed: tuple[str, ...] = ()

    def sub_seeds(self, seed: int) -> list[int]:
        return [seed * 1000 + i for i in range(self.subworkloads)]

    def setup(self, sub_seed: int) -> Any:
        """Build everything the timed region needs; returns its state."""
        raise NotImplementedError

    def run(self, state: Any) -> None:
        """The timed region: the simulation only."""
        raise NotImplementedError

    def finish(self, state: Any) -> SubResult:
        """Check the outputs and collect the metrics and counts."""
        raise NotImplementedError


class PaperApps(Workload):
    """Open-loop stream of the paper's applications on a live VDCE.

    Even arrivals are the Figure 3 Linear Equation Solver (with its
    residual check), odd ones 8x8 random layered spectral DAGs; the
    player submits them with exponential gaps from four local sites,
    each consulting two remote sites.
    """

    name = "paper_apps"
    bypassed = ("traffic", "federation")
    MEAN_INTERARRIVAL_S = 2.0

    def __init__(self, apps: int = 25, subworkloads: int = 12,
                 solver_n: int = 120, layers: int = 8, width: int = 8
                 ) -> None:
        self.apps = apps
        self.subworkloads = subworkloads
        self.solver_n = solver_n
        self.layers = layers
        self.width = width

    def setup(self, sub_seed: int) -> dict[str, Any]:
        vdce = wide_area_testbed(n_sites=4, hosts_per_site=8, seed=sub_seed,
                                 trace=False)
        vdce.start()
        vdce.warm_up(30.0)
        rng = np.random.default_rng(sub_seed)
        graph_seeds = [int(x) for x in rng.integers(0, 2**31, self.apps)]
        registry = vdce.registry

        def factory(i: int):
            if i % 2 == 0:
                return linear_solver_graph(registry, n=self.solver_n,
                                           seed=graph_seeds[i], verify=True)
            return random_layered_graph(registry, layers=self.layers,
                                        width=self.width,
                                        seed=graph_seeds[i])

        player = WorkloadPlayer(vdce, factory,
                                mean_interarrival_s=self.MEAN_INTERARRIVAL_S,
                                k_remote_sites=2, rng=rng)
        return {"vdce": vdce, "player": player, "t0": vdce.now}

    def run(self, state: dict[str, Any]) -> None:
        state["report"] = state["player"].play(self.apps)

    def finish(self, state: dict[str, Any]) -> SubResult:
        vdce, report = state["vdce"], state["report"]
        problems: list[str] = []
        failed = 0
        makespans: list[float] = []
        waits: list[float] = []
        residuals: list[float] = []
        service: dict[str, float] = {}
        for run in report.runs:
            ok = run.status == "completed" \
                and set(run.completions) == set(run.graph.nodes)
            if ok and "verify" in run.graph.nodes:
                norm = run.results().get("verify", {}).get("norm")
                ok = norm is not None and norm < RESIDUAL_LIMIT
                residuals.append(float("nan") if norm is None else norm)
            if not ok:
                failed += 1
                problems.append(f"{run.execution_id} ({run.graph.name}) "
                                f"status {run.status}, "
                                f"{len(run.completions)}/{len(run.graph)} "
                                "completions or residual over limit")
                continue
            makespans.append(run.makespan)
            waits.append(run.started_at - run.submitted_at)
            site = run.report.local_site
            service[site] = service.get(site, 0.0) + sum(
                p["elapsed_s"] for p in run.completions.values())
        if vdce.env.failed_processes:
            problems.append(f"{len(vdce.env.failed_processes)} processes "
                            "died on unhandled exceptions")
            failed = len(report.runs)
        tasks = sum(len(run.graph) for run in report.runs)
        counts = _vdce_counts(vdce)
        counts["scheduling.reschedules"] = sum(r.reschedules
                                               for r in report.runs)
        counts["tasks"] = tasks
        return SubResult(
            attempted=len(report.runs), failed=failed, problems=problems,
            makespans=makespans, waits=waits,
            fairness=fairness_stats(service)["jain_index"],
            sim_s=vdce.now - state["t0"],
            digest=_sha(_floats_json(makespans), _floats_json(waits),
                        _floats_json(residuals)),
            counts=counts)


class ReplayDrf(Workload):
    """Capacity-model replay of the synthetic Alibaba generator.

    100 tenants at 10 arrivals/s into 4 x 400 processors: the diurnal
    peak offers more load than the pools hold, so tenant queues build
    and drain through admission and the DRF pump.
    """

    name = "replay_drf"
    bypassed = ("net", "scheduling", "control", "federation")

    def __init__(self, arrivals: int = 20_000, subworkloads: int = 6,
                 tenants: int = 100) -> None:
        self.arrivals = arrivals
        self.subworkloads = subworkloads
        self.tenants = tenants

    def setup(self, sub_seed: int) -> dict[str, Any]:
        config = ReplayConfig(
            generator="synthetic-alibaba", seed=sub_seed,
            arrivals=self.arrivals, users=1000, tenants=self.tenants,
            rate_per_s=10.0, sites=("site0", "site1", "site2", "site3"),
            procs_per_site=400)
        config.validate()
        env = Environment()
        tenants = make_tenants(config.tenants)
        total = len(config.sites) * config.procs_per_site
        allocator = DRFAllocator(
            capacity_procs=total,
            capacity_memory_mb=total * config.memory_per_proc_mb,
            tenants=tenants)
        backend = RecordingBackend(
            CapacityBackend(env, config.sites, config.procs_per_site), env)
        arrivals = build_arrivals(config,
                                  RngRegistry(config.seed).spawn("traffic"))
        engine = ReplayEngine(env, arrivals, tenants, allocator, backend)
        return {"config": config, "engine": engine, "backend": backend}

    def run(self, state: dict[str, Any]) -> None:
        state["outcome"] = state["engine"].run()

    def finish(self, state: dict[str, Any]) -> SubResult:
        engine, backend = state["engine"], state["backend"]
        report = ReplayReport(config=state["config"],
                              outcome=state["outcome"],
                              admission=_admission_rows(engine))
        problems = check_report(report)
        totals = report.totals()
        attempted = int(totals["arrivals"])  # type: ignore[call-overload]
        completed = int(totals["completed"])  # type: ignore[call-overload]
        failed = attempted if problems else attempted - completed
        counts = _replay_counts(engine)
        counts["tasks"] = attempted
        return SubResult(
            attempted=attempted, failed=failed, problems=problems,
            makespans=list(backend.makespans), waits=list(backend.waits),
            fairness=report.fairness()["jain_index"],
            sim_s=report.outcome.horizon_s,
            digest=_sha(report.to_json(), _floats_json(backend.makespans),
                        _floats_json(backend.waits)),
            counts=counts)


class ReplayVdceChurn(Workload):
    """The checked-in 1000-job trace replayed through a live VDCE whose
    WAN chain is partitioned mid-replay, with membership enabled.

    Many small template AFGs run as real applications; two
    :class:`~repro.faults.LinkFlap` schedules cut site1-site2 and
    site2-site3, so messages are dropped at the partition, heartbeats
    quarantine sites and every rejoin triggers a directory catch-up.
    """

    name = "replay_vdce_churn"
    bypassed = ()

    #: relative to replay start: each link is down 12 s, up 10 s, twice
    FLAPS = (("site1", "site2", 10.0), ("site2", "site3", 20.0))
    FLAP_DOWN_S = 12.0
    FLAP_UP_S = 10.0
    FLAP_CYCLES = 2
    #: run at least this long after the last heal so every quarantine
    #: observes its rejoin and catch-up
    SETTLE_S = 15.0
    #: a replay still running this long after its start is stranded
    MAX_SIM_S = 5000.0
    MAX_IN_FLIGHT = 8
    #: applications are scheduled at their submitting site: with remote
    #: sites consulted, a Site Scheduler walk that straddles a link cut
    #: raises ``no WAN path`` from ``Topology.transfer_time`` and strands
    #: the job (a program defect; set 1 here to reproduce it)
    K_REMOTE_SITES = 0

    def __init__(self, jobs: int = 1000, subworkloads: int = 4) -> None:
        self.jobs = jobs
        self.subworkloads = subworkloads

    def setup(self, sub_seed: int) -> dict[str, Any]:
        requests = list(load_trace(SAMPLE_TRACE,
                                   templates=TEMPLATE_NAMES))[:self.jobs]
        vdce = wide_area_testbed(n_sites=4, seed=sub_seed, trace=False)
        vdce.start()
        vdce.enable_membership()
        vdce.warm_up(10.0)
        t0 = vdce.now
        plan = FaultPlan([
            LinkFlap(a, b, at=t0 + at, down_s=self.FLAP_DOWN_S,
                     up_s=self.FLAP_UP_S, cycles=self.FLAP_CYCLES)
            for a, b, at in self.FLAPS])
        injector = vdce.apply_fault_plan(plan)
        # register exactly the tenants the trace names
        tenants = {name: TenantRecord(name=name)
                   for name in sorted({req.tenant for req in requests})}
        provision_tenants(vdce.repositories, tenants)
        procs = 128
        sites = tuple(sorted(vdce.world.sites))
        allocator = DRFAllocator(procs, procs * 512.0, tenants)
        backend = RecordingBackend(
            VdceReplayBackend(vdce, sites=sites,
                              k_remote_sites=self.K_REMOTE_SITES,
                              max_in_flight=self.MAX_IN_FLIGHT), vdce.env)
        arrivals = [dataclasses.replace(req,
                                        submit_time_s=req.submit_time_s + t0)
                    for req in requests]
        engine = ReplayEngine(vdce.env, arrivals, tenants, allocator,
                              backend)
        last_heal = max(at for _, _, at in self.FLAPS) + self.FLAP_CYCLES * (
            self.FLAP_DOWN_S + self.FLAP_UP_S)
        config = ReplayConfig(generator="trace", trace_path="alibaba_sample",
                              seed=sub_seed, arrivals=len(requests),
                              tenants=len(tenants), sites=sites,
                              procs_per_site=procs // len(sites))
        return {"vdce": vdce, "engine": engine, "backend": backend,
                "injector": injector, "config": config, "t0": t0,
                "jobs": len(requests),
                "settle_until": t0 + last_heal + self.SETTLE_S}

    def run(self, state: dict[str, Any]) -> None:
        vdce, engine = state["vdce"], state["engine"]
        engine.prime()
        tenants = engine.outcome.tenants.values()
        jobs = state["jobs"]
        deadline = state["t0"] + self.MAX_SIM_S
        while vdce.now < deadline:
            if vdce.now >= state["settle_until"] and \
                    sum(t.completed for t in tenants) >= jobs:
                break
            vdce.env.run(until=vdce.now + 5.0)
        state["outcome"] = engine.finalize()

    def finish(self, state: dict[str, Any]) -> SubResult:
        vdce, engine = state["vdce"], state["engine"]
        backend, outcome = state["backend"], state["outcome"]
        inner: VdceReplayBackend = backend.inner
        report = ReplayReport(config=state["config"], outcome=outcome,
                              admission=_admission_rows(engine))
        problems = check_report(report)
        if inner.completions_by_tenant() != inner.expected_tasks_by_tenant():
            problems.append("task completions per tenant differ from the "
                            "graph sizes (lost or duplicated execution)")
        if vdce.env.failed_processes:
            problems.append(f"{len(vdce.env.failed_processes)} processes "
                            "died on unhandled exceptions")
        if outcome.drf_violations:
            problems.append(f"{outcome.drf_violations} DRF violations")
        completed = [item.run for item in inner.runs
                     if item.run.status == "completed"]
        attempted = state["jobs"]
        failed = attempted if problems else attempted - len(completed)
        makespans = [run.makespan for run in completed]
        service: dict[str, float] = {}
        for item in inner.runs:
            service[item.req.tenant] = service.get(item.req.tenant, 0.0) \
                + sum(p["elapsed_s"] for p in item.run.completions.values())
        injector = state["injector"]
        ledger = vdce.federation.ledger_json()
        counts = _vdce_counts(vdce)
        counts.update(_replay_counts(engine))
        counts["scheduling.reschedules"] = sum(run.reschedules
                                               for run in completed)
        counts["tasks"] = sum(len(item.run.graph) for item in inner.runs)
        return SubResult(
            attempted=attempted, failed=failed, problems=problems,
            makespans=makespans, waits=list(backend.waits),
            fairness=fairness_stats(service)["jain_index"],
            sim_s=vdce.now - state["t0"],
            digest=_sha(report.to_json(), _floats_json(makespans),
                        _floats_json(backend.waits), injector.log_json(),
                        ledger),
            counts=counts)


WORKLOADS: dict[str, Callable[[], Workload]] = {
    PaperApps.name: PaperApps,
    ReplayDrf.name: ReplayDrf,
    ReplayVdceChurn.name: ReplayVdceChurn,
}
