"""The full-walk rescheduler, kept as a differential oracle.

:class:`FullWalkRescheduler` is :class:`repro.scheduling.Rescheduler` as
it was before rescheduling read the delta-maintained host-selection
views: every request builds a fresh :class:`PerformancePredictor` per
site (so its memo cache is always empty), filters that site's up hosts
by exclusion, constraints and machine type, and evaluates ``Predict``
on every survivor with :meth:`PerformancePredictor.best_host`.  It is
O(hosts in the federation) per request and lives only here; the
production rescheduler must return the same :class:`AllocationEntry`,
``predicted_time_s`` bit for bit.
"""

from __future__ import annotations

from typing import Callable

from repro.afg.graph import TaskNode
from repro.prediction.predict import PerformancePredictor
from repro.repository.site_repository import SiteRepository
from repro.scheduling.allocation import AllocationEntry
from repro.scheduling.rescheduling import ReschedulePolicy
from repro.util.errors import NoFeasibleHostError


class FullWalkRescheduler:
    """Pick a replacement host for one task, excluding bad hosts."""

    def __init__(self, repositories: dict[str, SiteRepository],
                 predictor_factory: Callable[
                     [SiteRepository], PerformancePredictor] | None = None,
                 policy: ReschedulePolicy | None = None) -> None:
        self.repositories = repositories
        self.policy = policy or ReschedulePolicy()
        self._predictor_factory = predictor_factory or (
            lambda repo: PerformancePredictor(repo.task_performance))

    def reschedule(self, node: TaskNode, current: AllocationEntry,
                   exclude_hosts: set[str] | None = None,
                   exclude_sites: set[str] | None = None,
                   ) -> AllocationEntry:
        """New allocation for *node*, avoiding *exclude_hosts*."""
        exclude = set(exclude_hosts or ()) | set(current.hosts)
        skip_sites = exclude_sites or set()
        best: AllocationEntry | None = None
        for site, repo in sorted(self.repositories.items()):
            if site in skip_sites:
                continue
            predictor = self._predictor_factory(repo)
            records = [
                rec for rec in repo.resource_performance.hosts_at(site)
                if rec.address not in exclude
                and repo.task_constraints.is_runnable_on(node.task_name,
                                                         rec.address)
                and (node.properties.machine_type is None
                     or rec.arch == node.properties.machine_type)
            ]
            if not records:
                continue
            try:
                pred = predictor.best_host(node.definition,
                                           node.properties.input_size,
                                           records)
            except NoFeasibleHostError:
                continue
            if best is None or pred.estimate_s < best.predicted_time_s:
                best = AllocationEntry(
                    node_id=node.node_id, task_name=node.task_name,
                    site=site, hosts=(pred.host,),
                    predicted_time_s=pred.estimate_s)
        if best is None:
            raise NoFeasibleHostError(
                f"no replacement host for task {node.node_id!r} "
                f"(excluded: {sorted(exclude)})")
        return best
