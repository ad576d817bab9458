"""The linear-scan DRF dispatch pump, kept as a differential oracle.

:class:`LinearScanReplayEngine` is the replay engine's pump as it was
before the share-ordered ready heap: every pass rescans every tenant
(``_eligible``), picks the lowest ``(dominant share, name)`` among the
eligible with :meth:`DRFAllocator.pick`, and audits the pick against
that same eligible list.  It is O(tenants) per pass and lives only
here; the production engine must reproduce its dispatch sequence and
report bytes exactly.
"""

from __future__ import annotations

from repro.traffic.admission import QueuedJob
from repro.traffic.replay import ReplayEngine


class LinearScanReplayEngine(ReplayEngine):
    """:class:`ReplayEngine` with the reference linear-scan pump."""

    def _on_admitted(self, _tenant: str) -> None:
        self._pump()

    def _eligible(self) -> list[str]:
        out = []
        for name in self._tenant_names:
            queue = self.admission.queues[name]
            if not queue:
                continue
            head = queue[0]
            if self.allocator.can_allocate(name, head.demand) \
                    and self.backend.fits(head.req):
                out.append(name)
        return out

    def _pump(self) -> None:
        if self._in_pump:  # completions re-enter via on_complete
            return
        self._in_pump = True
        try:
            while True:
                eligible = self._eligible()
                pick = self.allocator.pick(eligible)
                if pick is None:
                    return
                self.outcome.drf_decisions += 1
                if len(eligible) > 1:
                    min_share = min(self.allocator.dominant_share(name)
                                    for name in eligible)
                    if self.allocator.dominant_share(pick) \
                            > min_share + 1e-12:
                        self.outcome.drf_violations += 1
                self._dispatch(pick, self.admission.queues[pick].popleft())
        finally:
            self._in_pump = False

    def _complete(self, tenant: str, job: QueuedJob) -> None:
        self.allocator.release(tenant, job.demand)
        stats = self.outcome.tenants[tenant]
        stats.completed += 1
        stats.busy_proc_s += job.req.nproc * job.req.duration_s
        if self.obs.enabled:
            self.obs.metrics.counter(
                "traffic_completed_total",
                help="jobs completed per tenant").inc(tenant=tenant)
        self._pump()


def recording(engine_cls: type[ReplayEngine],
              log: list[tuple[str, str]]) -> type[ReplayEngine]:
    """*engine_cls* with every grant appended to *log* as
    ``(tenant, job)``, in dispatch order."""

    class Recording(engine_cls):  # type: ignore[valid-type,misc]
        def _dispatch(self, tenant: str, job: QueuedJob) -> None:
            log.append((tenant, job.req.job))
            super()._dispatch(tenant, job)

    return Recording
