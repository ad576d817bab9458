"""Weighted dominant-resource fairness over the federation.

The Mesos-style DRF discipline (the SNIPPETS reference): each tenant's
*dominant share* is the maximum, over resources, of its allocated
fraction of federation capacity, divided by its weight; progressive
filling always grants the next job to the eligible tenant with the
lowest weighted dominant share.  Two resources are tracked —
processors and memory — matching the demand vector a
:class:`~repro.traffic.templates.JobTemplate` charges per job
(``nproc`` processors, ``nproc * mem_per_proc_mb`` MB).

:class:`DRFAllocator` is the bookkeeping core;
:class:`TenantShareFilter` adapts it to the
:class:`~repro.scheduling.registry.TenantGate` protocol so a
:class:`~repro.scheduling.registry.SchedulerContext` can carry the DRF
pre-filter, and :class:`DRFGatedScheduler` wraps any registered
scheduler with that gate — schedulers stay tenant-blind, fairness is
enforced around them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.afg.graph import ApplicationFlowGraph
from repro.repository.user_accounts import TenantRecord
from repro.scheduling.allocation import ResourceAllocationTable
from repro.scheduling.registry import Scheduler
from repro.util.errors import SchedulingError

#: The DRF resource axes, in vector order.
RESOURCES = ("procs", "memory_mb")


class TenantOverShareError(SchedulingError):
    """A gated schedule was refused: the tenant is outside its share."""


class DRFAllocator:
    """Weighted DRF bookkeeping over (processors, memory).

    Capacity is federation-wide; allocations are charged per tenant and
    released on job completion.  ``pick`` implements progressive
    filling: among the offered tenants, the one with the lowest
    ``(dominant_share / weight, name)`` key — the name tie-break keeps
    every decision deterministic.
    """

    def __init__(self, capacity_procs: float, capacity_memory_mb: float,
                 tenants: Mapping[str, TenantRecord]) -> None:
        if capacity_procs <= 0 or capacity_memory_mb <= 0:
            raise ValueError("DRF capacity must be positive")
        self.capacity = (float(capacity_procs), float(capacity_memory_mb))
        self.tenants = dict(tenants)
        self._alloc: dict[str, list[float]] = {
            name: [0.0, 0.0] for name in self.tenants}
        self._used = [0.0, 0.0]
        # cached and recomputed by every allocate/release, so predicates
        # and the dispatch pump read fields instead of building tuples
        self.free_procs = self.capacity[0]
        self.free_memory_mb = self.capacity[1]
        self._share: dict[str, float] = {name: 0.0 for name in self.tenants}

    # -- bookkeeping ------------------------------------------------------
    def demand_of(self, nproc: int, mem_per_proc_mb: float
                  ) -> tuple[float, float]:
        """The (procs, memory_mb) vector one job charges."""
        return (float(nproc), float(nproc) * mem_per_proc_mb)

    def allocated(self, tenant: str) -> tuple[float, float]:
        vec = self._alloc[tenant]
        return (vec[0], vec[1])

    def free(self) -> tuple[float, float]:
        return (self.free_procs, self.free_memory_mb)

    def dominant_share(self, tenant: str) -> float:
        """Weighted dominant share: max_r alloc_r / cap_r, over weight."""
        return self._share[tenant]

    def _refresh(self, tenant: str, vec: list[float]) -> None:
        """Refresh the cached free vector and *tenant*'s share."""
        capacity = self.capacity
        self.free_procs = capacity[0] - self._used[0]
        self.free_memory_mb = capacity[1] - self._used[1]
        share = max(vec[0] / capacity[0], vec[1] / capacity[1])
        self._share[tenant] = share / self.tenants[tenant].weight

    def shares(self) -> dict[str, float]:
        """Every tenant's weighted dominant share, by name."""
        return {name: self.dominant_share(name)
                for name in sorted(self.tenants)}

    # -- admission predicates ---------------------------------------------
    def within_quota(self, tenant: str, demand: tuple[float, float]) -> bool:
        """Would granting *demand* keep *tenant* inside its quota?"""
        record = self.tenants[tenant]
        vec = self._alloc[tenant]
        if record.quota_procs and vec[0] + demand[0] > record.quota_procs:
            return False
        if record.quota_memory_mb and \
                vec[1] + demand[1] > record.quota_memory_mb:
            return False
        return True

    def fits_procs(self, procs: float) -> bool:
        """Are *procs* processors free?  (The processor half of
        :meth:`fits_capacity`; the dispatch pump parks on it.)"""
        return procs <= self.free_procs + 1e-9

    def fits_capacity(self, demand: tuple[float, float]) -> bool:
        return self.fits_procs(demand[0]) \
            and demand[1] <= self.free_memory_mb + 1e-9

    def can_allocate(self, tenant: str, demand: tuple[float, float]) -> bool:
        return self.fits_capacity(demand) and self.within_quota(tenant,
                                                                demand)

    def feasible(self, tenant: str, demand: tuple[float, float]) -> bool:
        """Could *demand* ever be granted (empty federation, full quota)?"""
        record = self.tenants[tenant]
        if demand[0] > self.capacity[0] or demand[1] > self.capacity[1]:
            return False
        if record.quota_procs and demand[0] > record.quota_procs:
            return False
        if record.quota_memory_mb and demand[1] > record.quota_memory_mb:
            return False
        return True

    # -- progressive filling ----------------------------------------------
    def pick(self, eligible: Iterable[str]) -> str | None:
        """The eligible tenant next in DRF order (lowest weighted share)."""
        best: str | None = None
        best_key: tuple[float, str] | None = None
        for name in eligible:
            key = (self.dominant_share(name), name)
            if best_key is None or key < best_key:
                best, best_key = name, key
        return best

    def allocate(self, tenant: str, demand: tuple[float, float]) -> None:
        vec = self._alloc[tenant]
        vec[0] += demand[0]
        vec[1] += demand[1]
        self._used[0] += demand[0]
        self._used[1] += demand[1]
        self._refresh(tenant, vec)

    def release(self, tenant: str, demand: tuple[float, float]) -> None:
        """Return *demand*; a release larger than the tenant's allocation
        raises and leaves every counter untouched."""
        vec = self._alloc[tenant]
        if vec[0] - demand[0] < -1e-9 or vec[1] - demand[1] < -1e-9:
            raise ValueError(f"tenant {tenant!r} released more than "
                             "it allocated")
        vec[0] -= demand[0]
        vec[1] -= demand[1]
        self._used[0] -= demand[0]
        self._used[1] -= demand[1]
        self._refresh(tenant, vec)


class TenantShareFilter:
    """The :class:`~repro.scheduling.registry.TenantGate` for a replay.

    ``admits`` answers the quota + capacity question for one demand;
    ``precedence`` exposes the progressive-filling sort key.  Attach it
    to ``SchedulerContext.tenancy`` and dispatch layers (the replay
    engine, :class:`DRFGatedScheduler`) enforce DRF around whatever
    scheduler the context builds.
    """

    def __init__(self, allocator: DRFAllocator,
                 mem_per_proc_mb: float = 0.0) -> None:
        self.allocator = allocator
        self.mem_per_proc_mb = mem_per_proc_mb

    def admits(self, tenant: str, procs: int, memory_mb: float) -> bool:
        demand = (float(procs), float(memory_mb) if memory_mb
                  else float(procs) * self.mem_per_proc_mb)
        return self.allocator.can_allocate(tenant, demand)

    def precedence(self, tenant: str) -> tuple[float, str]:
        return (self.allocator.dominant_share(tenant), tenant)


class DRFGatedScheduler:
    """Wrap any registered scheduler with a tenant share gate.

    ``schedule`` consults the gate for the graph's processor/memory
    demand before delegating; a refusal raises
    :class:`TenantOverShareError`, which dispatch layers treat as "keep
    the job queued" — never a drop.
    """

    def __init__(self, inner: Scheduler, gate: TenantShareFilter,
                 tenant: str, nproc: int, memory_mb: float = 0.0) -> None:
        self.inner = inner
        self.gate = gate
        self.tenant = tenant
        self.nproc = nproc
        self.memory_mb = memory_mb
        self.name = f"drf({inner.name})"

    def schedule(self, graph: ApplicationFlowGraph
                 ) -> ResourceAllocationTable:
        if not self.gate.admits(self.tenant, self.nproc, self.memory_mb):
            raise TenantOverShareError(
                f"tenant {self.tenant!r} is outside its DRF share for "
                f"{self.nproc} procs")
        return self.inner.schedule(graph)


def fairness_stats(shares: Mapping[str, float]) -> dict[str, float]:
    """Jain index + spread of a share vector (1.0 == perfectly fair)."""
    values = [shares[name] for name in sorted(shares)]
    n = len(values)
    total = sum(values)
    if n == 0 or total <= 0:
        return {"jain_index": 1.0, "max_share": 0.0, "min_share": 0.0}
    square_sum = sum(v * v for v in values)
    return {
        "jain_index": (total * total) / (n * square_sum),
        "max_share": max(values),
        "min_share": min(values),
    }
