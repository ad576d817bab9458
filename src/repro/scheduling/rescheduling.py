"""Dynamic rescheduling.

Paper section 2.3.1 (Application Controller): "If the current load on any
of these machines is more than a predefined threshold value, the
Application Controller terminates the task execution on the machine and
sends a task rescheduling request to the Group Manager."  Failures are
handled the same way: a task on a host that stops answering keep-alives
is rescheduled and the host excluded.

The :class:`Rescheduler` re-runs host selection for a single task against
per-site score views the repositories' delta journals keep current,
excluding the hosts that triggered the request.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.afg.graph import TaskNode
from repro.repository.site_repository import SiteRepository
from repro.scheduling.allocation import AllocationEntry
from repro.scheduling.host_selection import HostSelector
from repro.util.errors import NoFeasibleHostError


@dataclass(frozen=True)
class ReschedulePolicy:
    """When the Application Controller pulls the trigger."""

    #: terminate + reschedule when observed load exceeds this
    load_threshold: float = 2.0
    #: maximum times one task may be rescheduled
    max_attempts: int = 3

    def should_reschedule(self, observed_load: float) -> bool:
        return observed_load > self.load_threshold


class Rescheduler:
    """Pick a replacement host for one task, excluding bad hosts.

    Holds one long-lived :class:`HostSelector` per site (its own, not
    the site managers'), rebuilt when a site's repository is replaced.
    """

    def __init__(self, repositories: dict[str, SiteRepository],
                 policy: ReschedulePolicy | None = None) -> None:
        self.repositories = repositories
        self.policy = policy or ReschedulePolicy()
        self._selectors: dict[str, HostSelector] = {}

    def reschedule(self, node: TaskNode, current: AllocationEntry,
                   exclude_hosts: set[str] | None = None,
                   exclude_sites: set[str] | None = None,
                   ) -> AllocationEntry:
        """New allocation for *node*, avoiding *exclude_hosts*.

        Considers every site's current view; raises
        :class:`NoFeasibleHostError` when no feasible host remains.
        *exclude_sites* removes whole sites from consideration — the
        degraded-mode path passes the observer's quarantined set so a
        task lost to a partition is never re-queued back into it.  A
        parallel task is rescheduled onto a single replacement host
        (degrading to sequential execution) — re-gathering a full
        multi-host gang mid-flight is out of the prototype's scope, as
        it is in the paper's.
        """
        exclude = set(exclude_hosts or ()) | set(current.hosts)
        skip_sites = exclude_sites or set()
        selectors = self._selectors
        for gone in [s for s in selectors if s not in self.repositories]:
            del selectors[gone]
        best: tuple[float, str, str] | None = None
        for site, repo in sorted(self.repositories.items()):
            if site in skip_sites:
                continue
            selector = selectors.get(site)
            if selector is None or selector.repository is not repo:
                selector = selectors[site] = HostSelector(repo)
            found = selector.best_single_host(node, exclude)
            if found is not None and (best is None or found[0] < best[0]):
                best = (*found, site)
        if best is None:
            raise NoFeasibleHostError(
                f"no replacement host for task {node.node_id!r} "
                f"(excluded: {sorted(exclude)})")
        return AllocationEntry(node_id=node.node_id, task_name=node.task_name,
                               site=best[2], hosts=(best[1],),
                               predicted_time_s=best[0])
