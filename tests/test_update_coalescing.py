"""Monitor updates reach the repository one sample at a time.

The Group Manager forwards every sample its change filter passes as its
own ``WORKLOAD_UPDATE`` message, with the sample as the payload; the
Site Manager applies and write-ahead-logs each one on arrival.
"""

from __future__ import annotations

from repro.workloads import nynet_testbed


def run_monitored(*, failover: bool = False, until: float = 30.0):
    vdce = nynet_testbed(seed=5, trace=False)
    vdce.start()
    if failover:
        vdce.enable_failover("syracuse", ["h2", "h3"])
    vdce.run(until=until)
    return vdce


class TestWorkloadUpdates:
    def test_samples_applied_with_per_sample_history(self):
        vdce = run_monitored()
        applied = sum(sm.updates_applied
                      for sm in vdce.site_managers.values())
        assert applied > 0
        # the load windows carry per-sample history
        assert any(len(rec.load_window) > 1
                   for repo in vdce.repositories.values()
                   for rec in repo.resource_performance.all_records())

    def test_replication_wal_ships_updates(self):
        vdce = run_monitored(failover=True)
        wal = vdce.site_managers["syracuse"].replication.wal
        assert any(rec.kind == "workload-update" for rec in wal), \
            "WAL never shipped an update"

    def test_one_update_and_one_wal_record_per_forwarded_sample(self):
        vdce = run_monitored(failover=True)
        for monitor in vdce.monitors.values():
            monitor.stop()
        vdce.run(until=vdce.now + 1.0)  # land the updates still in flight
        sm = vdce.site_managers["syracuse"]
        forwarded = sum(gm.stats.updates_forwarded
                        for (site, _), gm in vdce.group_managers.items()
                        if site == "syracuse")
        logged = [rec for rec in sm.replication.wal
                  if rec.kind == "workload-update"]
        assert forwarded > 0
        assert sm.updates_applied == forwarded
        assert len(logged) == forwarded
