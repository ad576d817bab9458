"""Differential tests: view-backed rescheduling equals the full walk.

:class:`~repro.scheduling.Rescheduler` answers from long-lived per-site
host-selection views that consume each repository's delta journal;
:class:`tests.rescheduling_oracle.FullWalkRescheduler` is the previous
implementation, which re-predicts every host on every request.  These
tests drive both through seeded repository mutation sequences (every
delta-event kind), through live applications, and through federation
membership changes, and demand the same :class:`AllocationEntry`
(``predicted_time_s`` compared with ``==``) or the same refusal.
"""

from __future__ import annotations

import pytest

from repro.afg import GraphBuilder
from repro.faults import FaultPlan, HostCrash
from repro.net.topology import T1_WAN
from repro.repository.site_repository import SiteRepository
from repro.resources.host import HostSpec
from repro.scheduling import HostSelector, Rescheduler
from repro.scheduling.allocation import AllocationEntry
from repro.util.errors import NoFeasibleHostError
from repro.util.rng import RngRegistry
from repro.workloads import (
    linear_solver_graph,
    quiet_testbed,
    random_layered_graph,
    wide_area_testbed,
)

from .conftest import build_federation
from .rescheduling_oracle import FullWalkRescheduler

SITES = ("syracuse", "rome", "buffalo")


def node_pool(registry, seed):
    """Task nodes covering every view-key axis: several task names and
    input sizes, a machine-type pin and a parallel node (rescheduled
    onto one host)."""
    graph = random_layered_graph(registry, layers=3, width=3, seed=seed)
    nodes = [graph.node(n) for n in sorted(graph.nodes)]
    parallel = next(n for n in nodes if n.definition.parallel_capable)
    parallel.properties.computation_mode = "parallel"
    parallel.properties.processors = 2
    next(n for n in nodes if n is not parallel).properties.machine_type = \
        "sparc"
    b = GraphBuilder(registry, name="solver-nodes")
    b.task("lu-decomposition", "lu", input_size=50)
    b.task("lu-decomposition", "lu-big", input_size=120)
    return nodes + [b.graph.node("lu"), b.graph.node("lu-big")]


def spec_of(rec) -> HostSpec:
    return HostSpec(name=rec.host_name, group=rec.group, arch=rec.arch,
                    os=rec.os, cpu_factor=rec.cpu_factor,
                    memory_mb=rec.total_memory_mb)


def mutate(fed, rng, removed, task_names, t):
    """One random repository mutation at a random site."""
    site = SITES[int(rng.integers(len(SITES)))]
    repo = fed.repositories[site]
    rp = repo.resource_performance
    hosts = sorted(r.address for r in rp.all_records())
    op = int(rng.integers(8))
    addr = hosts[int(rng.integers(len(hosts)))] if hosts else None
    task = task_names[int(rng.integers(len(task_names)))]
    if op <= 1 and addr:  # monitoring updates dominate, as in a live run
        rp.update_dynamic(addr, cpu_load=float(rng.random()) * 8.0,
                          available_memory_mb=16.0 + float(rng.random()) * 200,
                          time=t)
    elif op == 2 and addr:
        if rp.get(addr).status == "up":
            rp.mark_down(addr, time=t)
        else:
            rp.mark_up(addr, time=t)
    elif op == 3 and addr:
        repo.task_performance.set_weight(task, addr, 0.5 + float(rng.random()))
    elif op == 4 and addr:
        repo.task_performance.record_execution(
            task, addr, input_size=10.0, elapsed_s=1.0 + float(rng.random()),
            time=t, dedicated_elapsed_s=0.5 + float(rng.random()))
    elif op == 5 and addr:
        constraints = repo.task_constraints
        if constraints.is_runnable_on(task, addr):
            constraints.unregister_executable(task, addr)
        else:
            constraints.register_executable(task, addr, f"/usr/bin/{task}")
    elif op == 6 and len(hosts) > 2:
        removed.append((site, spec_of(rp.get(addr))))
        rp.unregister_host(addr)
    elif op == 7 and removed:
        back_site, spec = removed.pop()
        fed.repositories[back_site].resource_performance.register_host(
            back_site, spec)


def outcome(rescheduler, node, current, exclude_hosts, exclude_sites):
    try:
        return rescheduler.reschedule(node, current,
                                      exclude_hosts=exclude_hosts,
                                      exclude_sites=exclude_sites)
    except NoFeasibleHostError:
        return "infeasible"


def assert_matches_oracle(rescheduler, repositories, node, current,
                          exclude_hosts=None, exclude_sites=None):
    got = outcome(rescheduler, node, current, exclude_hosts, exclude_sites)
    want = outcome(FullWalkRescheduler(repositories), node, current,
                   exclude_hosts, exclude_sites)
    assert got == want
    if want != "infeasible":
        assert got.predicted_time_s == want.predicted_time_s
    return got


def entry_on(node, host):
    return AllocationEntry(node_id=node.node_id, task_name=node.task_name,
                           site=host.split("/")[0], hosts=(host,),
                           predicted_time_s=1.0)


def differential_mismatches(registry, seed, rounds=60):
    """Interleave mutations and reschedules; list every disagreement."""
    fed = build_federation(site_names=SITES, hosts_per_site=4, seed=seed,
                           registry=registry)
    nodes = node_pool(registry, seed)
    task_names = sorted({n.task_name for n in nodes})
    all_hosts = sorted(fed.hosts)
    rng = RngRegistry(seed).stream("reschedule-oracle")
    rescheduler = Rescheduler(fed.repositories)
    removed: list = []
    mismatches = []
    for round_no in range(rounds):
        for _ in range(int(rng.integers(0, 4))):
            mutate(fed, rng, removed, task_names, float(round_no + 1))
        for _ in range(3):
            node = nodes[int(rng.integers(len(nodes)))]
            current = entry_on(node,
                               all_hosts[int(rng.integers(len(all_hosts)))])
            exclude_hosts = {h for h in all_hosts if rng.random() < 0.2}
            exclude_sites = {s for s in SITES if rng.random() < 0.15}
            try:
                assert_matches_oracle(rescheduler, fed.repositories, node,
                                      current, exclude_hosts, exclude_sites)
            except AssertionError as exc:
                mismatches.append((round_no, node.node_id, str(exc)))
    return mismatches


class TestDifferentialOracle:
    @pytest.mark.parametrize("seed", (3, 17, 29, 41))
    def test_randomized_mutation_sequences_match(self, registry, seed):
        assert differential_mismatches(registry, seed) == []

    def test_planted_stale_view_is_caught(self, registry, monkeypatch):
        """A view that skips ``"host"`` deltas keeps stale loads and
        up/down states; the differential must notice."""
        real = HostSelector._apply_events

        def skip_host_events(self, view, node, processors, events):
            real(self, view, node, processors,
                 [e for e in events if e[0] != "host"])

        monkeypatch.setattr(HostSelector, "_apply_events", skip_host_events)
        assert differential_mismatches(registry, 3) != []

    def test_exact_ties_break_by_address_then_site(self, registry):
        fed = build_federation(site_names=SITES, hosts_per_site=4,
                               registry=registry)
        node = node_pool(registry, 1)[-1]
        for repo in fed.repositories.values():
            rp = repo.resource_performance
            for rec in rp.all_records():
                repo.task_performance.set_weight(node.task_name,
                                                 rec.address, 1.0)
                rp.update_dynamic(rec.address, cpu_load=0.0,
                                  available_memory_mb=4096.0, time=1.0)
        rescheduler = Rescheduler(fed.repositories)
        current = entry_on(node, "rome/h3")
        assert assert_matches_oracle(rescheduler, fed.repositories, node,
                                     current).hosts == ("buffalo/h0",)
        assert assert_matches_oracle(
            rescheduler, fed.repositories, node, current,
            exclude_hosts={"buffalo/h0", "buffalo/h1"}).hosts \
            == ("buffalo/h2",)
        assert assert_matches_oracle(
            rescheduler, fed.repositories, node, current,
            exclude_sites={"buffalo"}).hosts == ("rome/h0",)

    def test_journal_compaction_rebuilds_and_matches(self, registry):
        fed = build_federation(site_names=SITES, hosts_per_site=4,
                               registry=registry)
        node = node_pool(registry, 1)[-1]
        rescheduler = Rescheduler(fed.repositories)
        current = entry_on(node, "syracuse/h0")
        assert_matches_oracle(rescheduler, fed.repositories, node, current)
        repo = fed.repositories["rome"]
        repo.delta.max_journal = 4
        hosts = sorted(r.address
                       for r in repo.resource_performance.all_records())
        for i in range(30):
            repo.resource_performance.update_dynamic(
                hosts[i % len(hosts)], cpu_load=0.4 * (i % 7),
                available_memory_mb=64.0, time=float(i + 1))
        assert repo.delta.events_since(0) is None
        for site in SITES:  # exclude everything but rome
            assert_matches_oracle(rescheduler, fed.repositories, node,
                                  current, exclude_sites=set(SITES) - {site})


def run_applications(seed, swap_oracle):
    """A solver plus a layered application on a loaded four-site VDCE."""
    vdce = wide_area_testbed(n_sites=4, hosts_per_site=8, seed=seed)
    if swap_oracle:
        vdce.rescheduler = FullWalkRescheduler(
            vdce.repositories, policy=vdce.reschedule_policy)
    vdce.start()
    vdce.warm_up(30.0)
    sites = sorted(vdce.world.sites)
    solver = linear_solver_graph(vdce.registry, n=120, seed=seed)
    layered = random_layered_graph(vdce.registry, layers=8, width=8,
                                   seed=seed)
    submitted = [vdce.submit(solver, sites[0], k_remote_sites=2),
                 vdce.submit(layered, sites[1], k_remote_sites=2)]
    deadline = vdce.now + 2000.0
    while not all(p.triggered for p, _ in submitted) \
            and vdce.now < deadline:
        vdce.env.run(until=vdce.now + 5.0)
    runs = [run for _, run in submitted]
    assert all(run.status == "completed" for run in runs)
    return (list(vdce.tracer.query(category="vdce:rescheduled")),
            [run.makespan for run in runs])


class TestEndToEnd:
    @pytest.mark.parametrize("seed", (1, 2))
    def test_live_run_matches_oracle_facade(self, seed):
        records, makespans = run_applications(seed, swap_oracle=False)
        assert records, "test premise broken: nothing was rescheduled"
        assert (records, makespans) == run_applications(seed,
                                                        swap_oracle=True)

    def test_host_crash_reroutes_like_oracle(self):
        def crashed(swap_oracle):
            vdce = quiet_testbed(seed=7)
            if swap_oracle:
                vdce.rescheduler = FullWalkRescheduler(vdce.repositories)
            vdce.start()
            graph = linear_solver_graph(vdce.registry, n=150)
            for i, nid in enumerate(graph.nodes):
                graph.node(nid).properties.preferred_site = \
                    ("syracuse", "rome")[i % 2]
            process, run = vdce.submit(graph, "syracuse", k_remote_sites=1)
            while run.table is None:
                vdce.env.run(until=vdce.now + 0.5)
            victim = sorted(e.host for e in run.table.entries.values()
                            if e.site == "rome")[0]
            vdce.apply_fault_plan(FaultPlan(events=(
                HostCrash(host=victim, at=vdce.now + 5.0),)))
            while not process.triggered and vdce.now < 2000.0:
                vdce.env.run(until=vdce.now + 5.0)
            assert run.status == "completed"
            return (list(vdce.tracer.query(category="vdce:rescheduled")),
                    run.makespan)

        records, makespan = crashed(False)
        assert records
        assert (records, makespan) == crashed(True)


JOINER = [HostSpec(name="h0", arch="x86", os="linux", cpu_factor=0.2,
                   memory_mb=512, group="g0"),
          HostSpec(name="h1", arch="sparc", os="solaris", cpu_factor=0.3,
                   memory_mb=512, group="g0")]


class TestMembershipChanges:
    def test_reschedule_lands_on_a_joined_site(self):
        vdce = quiet_testbed(seed=1)
        vdce.start()
        vdce.enable_membership()
        vdce.run(until=5.0)
        node = linear_solver_graph(vdce.registry, n=40).node("lu")
        current = entry_on(node, "syracuse/h0")
        before = assert_matches_oracle(vdce.rescheduler, vdce.repositories,
                                       node, current)
        assert before.site != "geneva"
        vdce.site_join("geneva", hosts=JOINER,
                       links={"syracuse": T1_WAN, "rome": T1_WAN})
        vdce.run(until=15.0)
        elsewhere = {h.address for h in vdce.world.all_hosts()
                     if h.site != "geneva"}
        moved = assert_matches_oracle(vdce.rescheduler, vdce.repositories,
                                      node, current,
                                      exclude_hosts=elsewhere)
        assert moved.site == "geneva"
        # the fast joiner also wins an unrestricted request
        assert assert_matches_oracle(vdce.rescheduler, vdce.repositories,
                                     node, current).site == "geneva"

    def test_departed_site_is_never_chosen(self):
        vdce = quiet_testbed(seed=2)
        vdce.start()
        vdce.enable_membership()
        vdce.run(until=5.0)
        node = linear_solver_graph(vdce.registry, n=40).node("lu")
        syracuse = sorted(h.address for h in vdce.world.all_hosts()
                          if h.site == "syracuse")
        current = entry_on(node, syracuse[0])
        assert assert_matches_oracle(
            vdce.rescheduler, vdce.repositories, node, current,
            exclude_hosts=set(syracuse)).site == "rome"
        proc = vdce.site_leave("rome")
        while not proc.triggered and vdce.now < 120.0:
            vdce.run(until=vdce.now + 5.0)
        assert proc.triggered and "rome" not in vdce.repositories
        for host in syracuse:
            entry = assert_matches_oracle(vdce.rescheduler,
                                          vdce.repositories, node,
                                          entry_on(node, host))
            assert entry.site == "syracuse"
        assert set(vdce.rescheduler._selectors) == {"syracuse"}
        with pytest.raises(NoFeasibleHostError):
            vdce.rescheduler.reschedule(node, current,
                                        exclude_hosts=set(syracuse))

    def test_loaded_repository_rebuilds_the_view(self, registry, tmp_path):
        fed = build_federation(site_names=SITES, hosts_per_site=4,
                               registry=registry)
        node = node_pool(registry, 1)[-2]
        rescheduler = Rescheduler(fed.repositories)
        current = entry_on(node, "buffalo/h0")
        only_rome = set(SITES) - {"rome"}
        first = assert_matches_oracle(rescheduler, fed.repositories, node,
                                      current, exclude_sites=only_rome)
        fed.repositories["rome"].save(tmp_path)
        # after the snapshot, the live repository loses its best host
        fed.repositories["rome"].resource_performance.mark_down(
            first.host, time=1.0)
        assert assert_matches_oracle(
            rescheduler, fed.repositories, node, current,
            exclude_sites=only_rome).host != first.host
        # restoring the snapshot swaps in a new journal where it is up
        loaded = SiteRepository.load("rome", tmp_path)
        fed.repositories["rome"] = loaded
        assert assert_matches_oracle(
            rescheduler, fed.repositories, node, current,
            exclude_sites=only_rome).host == first.host
        assert rescheduler._selectors["rome"].repository is loaded
        hosts = sorted(r.address
                       for r in loaded.resource_performance.all_records())
        for i, addr in enumerate(hosts):
            loaded.resource_performance.update_dynamic(
                addr, cpu_load=float(len(hosts) - i),
                available_memory_mb=128.0, time=2.0)
            assert_matches_oracle(rescheduler, fed.repositories, node,
                                  current, exclude_sites=only_rome)
