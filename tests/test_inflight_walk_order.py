"""The order in which the facade re-homes in-flight tasks.

Every re-homing path ends in one immediate execution request per
unfinished task, and each seeded artefact (fault logs, traces, ledgers)
depends on the order those requests go out.  Host-down reroutes walk
runs in submission order and each run's tasks in allocation-table
order; quarantine re-queue, rejoin re-push and failover re-push walk
sorted execution ids, then sorted node ids.  Eleven concurrent runs on
one host make the two orders differ: ``exec-10`` sorts before
``exec-2``.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.net import EXECUTION_REQUEST
from repro.net.network import Network
from repro.workloads import linear_solver_graph, quiet_testbed

HOST = "rome/h1"


@pytest.fixture
def in_flight():
    """Eleven solver runs coordinated at syracuse, every task on HOST."""
    vdce = quiet_testbed(seed=4)
    vdce.start()
    runs = []
    for _ in range(11):
        graph = linear_solver_graph(vdce.registry, n=60)
        for nid in graph.nodes:
            graph.node(nid).properties.preferred_site = "rome"
        runs.append(vdce.submit(graph, "syracuse", k_remote_sites=1)[1])
    while any(run.table is None for run in runs):
        vdce.run(until=vdce.now + 0.05)
    assert all(run.status == "running" and set(run.table.hosts()) == {HOST}
               for run in runs)
    return vdce, runs


def pushes(action):
    """(execution id, node id) of each immediate execution request
    sent while *action* runs, in send order."""
    sent = []
    original = Network.send

    def recording(self, src, dst, kind, payload=None, **kwargs):
        if kind == EXECUTION_REQUEST and payload.get("immediate"):
            sent.append((payload["execution_id"],
                         payload["entries"][0]["node_id"]))
        return original(self, src, dst, kind, payload, **kwargs)

    with mock.patch.object(Network, "send", recording):
        action()
    return sent


def submission_then_table_order(runs):
    return [(run.execution_id, nid) for run in runs
            for nid in run.table.entries]


def sorted_order(runs):
    return [(run.execution_id, nid)
            for run in sorted(runs, key=lambda r: r.execution_id)
            for nid in sorted(run.table.entries)]


def test_the_two_orders_differ(in_flight):
    _, runs = in_flight
    assert runs[9].execution_id == "exec-10"
    assert submission_then_table_order(runs) != sorted_order(runs)
    assert list(runs[0].table.entries) != sorted(runs[0].table.entries)


def test_host_down_reroutes_in_submission_then_table_order(in_flight):
    vdce, runs = in_flight
    expected = submission_then_table_order(runs)
    sm = vdce.site_managers["syracuse"]
    assert pushes(lambda: sm.on_host_down(HOST)) == expected


def test_quarantine_requeue_goes_in_sorted_order(in_flight):
    vdce, runs = in_flight
    expected = sorted_order(runs)
    assert pushes(lambda: vdce._on_site_quarantined("syracuse", "rome")) \
        == expected


def test_rejoin_repush_goes_in_sorted_order(in_flight):
    vdce, runs = in_flight
    expected = sorted_order(runs)
    assert pushes(lambda: vdce._on_site_rejoined("syracuse", "rome")) \
        == expected


def test_promotion_repush_goes_in_sorted_order(in_flight):
    vdce, runs = in_flight
    expected = sorted_order(runs)
    sm = vdce.site_managers["syracuse"]
    assert pushes(lambda: vdce._on_server_promoted("syracuse", sm, sm)) \
        == expected
