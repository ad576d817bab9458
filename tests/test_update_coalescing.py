"""Monitor-update coalescing: a transport optimisation, never a change.

The Group Manager batches the monitor samples arriving in one tick
into a single ``{"samples": [...]}`` repository-update message.  The
contract mirrors the network-batching one: the Site Manager applies
coalesced samples per-sample in arrival order, so every observable
repository and WAL byte is identical to the per-sample reference below
(one message per forwarded sample, sent as it arrives) — only the
message count changes.
"""

from __future__ import annotations

from unittest import mock

from repro.net import WORKLOAD_UPDATE
from repro.obs import Observability
from repro.runtime.control.group_manager import GroupManager
from repro.workloads import nynet_testbed


class PerSampleGroupManager(GroupManager):
    """Reference Group Manager: every forwarded sample ships at once as
    its own one-sample update (64 bytes), with no same-tick flush."""

    def _on_load_report(self, msg) -> None:
        self.stats.reports_received += 1
        sample = msg.payload
        if self.filter.observe(sample["host"], sample["cpu_load"]):
            self.stats.updates_forwarded += 1
            self.network.send(self.address, self.site_manager_addr,
                              WORKLOAD_UPDATE, payload={"samples": [sample]},
                              size_bytes=64)


def dynamic_probe(vdce) -> dict:
    """Every dynamic repository byte the coalescing path may touch."""
    probe: dict = {}
    for site_name in sorted(vdce.repositories):
        db = vdce.repositories[site_name].resource_performance
        probe[site_name] = {
            "records": [
                (rec.address, rec.cpu_load, rec.available_memory_mb,
                 rec.status, rec.last_update, tuple(rec.load_window),
                 tuple(rec.load_window_times))
                for rec in db.all_records()],
            "updates_applied":
                vdce.site_managers[site_name].updates_applied,
        }
    return probe


def wal_probe(vdce) -> dict:
    """Replication WAL contents (kind, payload) per shipping site."""
    probe = {}
    for site_name, sm in sorted(vdce.site_managers.items()):
        if sm.replication is not None:
            probe[site_name] = [(rec.kind, rec.payload)
                                for rec in sm.replication.wal]
    return probe


def run_monitored(coalesce: bool, *, failover: bool = False,
                  obs: Observability | None = None,
                  until: float = 30.0):
    vdce = nynet_testbed(seed=5, trace=False, obs=obs)
    with mock.patch("repro.core.vdce.GroupManager",
                    GroupManager if coalesce else PerSampleGroupManager):
        vdce.start()
    if failover:
        vdce.enable_failover("syracuse", ["h2", "h3"])
    vdce.run(until=until)
    return vdce


class TestCoalescingIdentity:
    def test_repository_bytes_identical_on_and_off(self):
        on = run_monitored(True)
        off = run_monitored(False)
        probe = dynamic_probe(on)
        assert probe == dynamic_probe(off)
        # the run actually exercised the path: samples were applied and
        # the load windows carry per-sample history in arrival order
        applied = sum(site["updates_applied"] for site in probe.values())
        assert applied > 0
        assert any(len(rec[5]) > 1 for site in probe.values()
                   for rec in site["records"])

    def test_replication_wal_identical_on_and_off(self):
        on = run_monitored(True, failover=True)
        off = run_monitored(False, failover=True)
        on_wal, off_wal = wal_probe(on), wal_probe(off)
        assert on_wal == off_wal
        assert on_wal["syracuse"], "WAL never shipped an update"

    def test_coalescing_actually_batches(self):
        obs = Observability()
        run_monitored(True, obs=obs)
        counter = obs.metrics.counter("gm_update_batches_total")
        assert counter.total() > 0
