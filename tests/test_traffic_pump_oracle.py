"""Differential test: the share-ordered DRF pump against the linear scan.

The production :class:`~repro.traffic.replay.ReplayEngine` keeps tenants
in a share-ordered ready heap and parks blocked heads until something
that could unblock them changes.  The reference
:class:`~tests.traffic_oracle.LinearScanReplayEngine` rescans every
tenant on every pass.  Both must grant the same ``(tenant, job)``
sequence and produce byte-identical reports, on every backend the pump
drives: the capacity pools, a backend whose ``fits`` turns on state the
pump cannot see, the bake-off's scheduled backend (whose ``start``
releases and re-charges the allocator around the DRF gate) and a live
VDCE under server failover.  A planted parking bug must make the
per-decision DRF audit fire.
"""

from __future__ import annotations

import pytest

import repro.bakeoff.replay as bakeoff_replay
import repro.traffic.replay as traffic_replay
from repro.bakeoff import ReplayBakeoffConfig, run_replay_bakeoff
from repro.simcore import Environment
from repro.traffic import (
    CapacityBackend,
    DRFAllocator,
    JobRequest,
    ReplayConfig,
    ReplayEngine,
    check_report,
    make_tenants,
    run_replay,
)
from repro.traffic.templates import TEMPLATE_NAMES
from repro.traffic.trace import synthetic_alibaba_trace
from repro.util.rng import RngRegistry
from tests.chaos import test_traffic_admission as chaos_replay
from tests.traffic_oracle import LinearScanReplayEngine, recording

#: admission settings, each a function of the tenant count: each
#: exercises a different park reason or queue-shaping path (quota
#: parks, memory-bound parks, throttled retries, skewed weights,
#: bounded queues); "plain" leaves processor and backend parks only
SETTINGS = {
    "plain": lambda tenants: {},
    "memory": lambda tenants: {"memory_per_proc_mb": 256.0},
    "quota": lambda tenants: {"quota_procs": 6, "quota_memory_mb": 1800.0},
    # a bucket refilling at each tenant's mean arrival rate
    "throttle": lambda tenants: {"rate_limit_per_s": 1.0 / tenants,
                                 "burst": 1},
    "weight_skew": lambda tenants: {"weight_skew": 1.5},
    "max_pending": lambda tenants: {"max_pending": 3},
}

#: tenants -> (arrivals, seeds): the linear scan is O(tenants) per
#: pass, so the widest federation runs one seed
SIZES = {2: (1200, (3, 4)), 10: (1500, (3, 4)), 100: (2000, (3, 4)),
         1000: (2500, (3,))}

MATRIX = [(tenants, seed, setting)
          for tenants, (_, seeds) in SIZES.items()
          for seed in seeds
          for setting in SETTINGS]


def replay(engine_cls: type[ReplayEngine], config: ReplayConfig,
           monkeypatch: pytest.MonkeyPatch
           ) -> tuple[list[tuple[str, str]], str, int]:
    log: list[tuple[str, str]] = []
    with monkeypatch.context() as patch:
        patch.setattr(traffic_replay, "ReplayEngine",
                      recording(engine_cls, log))
        report = run_replay(config)
    assert check_report(report) == []
    return log, report.to_json(), report.outcome.drf_decisions


@pytest.mark.parametrize(
    "tenants,seed,setting", MATRIX,
    ids=[f"t{t}-s{s}-{name}" for t, s, name in MATRIX])
def test_capacity_replay_matches_linear_scan(tenants, seed, setting,
                                             monkeypatch):
    arrivals = SIZES[tenants][0]
    config = ReplayConfig(
        generator="synthetic-alibaba", seed=seed, arrivals=arrivals,
        users=max(100, tenants), tenants=tenants, rate_per_s=1.0,
        sites=("s0", "s1", "s2", "s3"), procs_per_site=16,
        **SETTINGS[setting](tenants))
    heap_log, heap_json, decisions = replay(ReplayEngine, config,
                                            monkeypatch)
    scan_log, scan_json, _ = replay(LinearScanReplayEngine, config,
                                    monkeypatch)
    assert heap_log == scan_log
    assert heap_json == scan_json
    assert decisions == len(heap_log) > 0


class OpaqueBackend(CapacityBackend):
    """Capacity pools whose ``fits`` also turns on state the pump never
    sees: every site closes for a recurring maintenance window, jobs
    wider than one processor start only after an even number of
    completions, and the shortest jobs finish inside ``start`` itself,
    re-entering the pump mid-pass."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.completions = 0

    def fits(self, req):
        if self.env.now % 40.0 < 6.0:
            return False
        if req.nproc > 1 and self.completions % 2:
            return False
        return super().fits(req)

    def start(self, req, on_complete):
        def done():
            self.completions += 1
            on_complete()

        if req.duration_s < 5.0:
            done()
        else:
            super().start(req, done)


@pytest.mark.parametrize("tenants,seed", [(10, 3), (100, 4)])
def test_opaque_backend_matches_linear_scan(tenants, seed):
    runs = []
    for engine_cls in (ReplayEngine, LinearScanReplayEngine):
        log: list[tuple[str, str]] = []
        env = Environment()
        records = make_tenants(tenants)
        allocator = DRFAllocator(64, 64 * 512.0, records)
        arrivals = synthetic_alibaba_trace(
            RngRegistry(seed).stream("pump-oracle"), count=1500,
            users=100, tenants=tenants, templates=TEMPLATE_NAMES,
            mean_rate_per_s=1.0)
        backend = OpaqueBackend(env, ("s0", "s1", "s2", "s3"), 16)
        outcome = recording(engine_cls, log)(
            env, arrivals, records, allocator, backend).run()
        runs.append((log, outcome))
    (heap_log, heap), (scan_log, scan) = runs
    assert heap_log == scan_log
    assert heap == scan
    assert heap.drf_violations == 0


def test_long_park_sheds_stale_entries():
    """A wide head parked while its tenant's earlier narrow jobs finish
    one by one: every completion re-queues the tenant and strands one
    entry in its width heap.  The heap sheds them instead of growing
    with the completions, and the grants still match the linear scan."""
    t00_jobs = [JobRequest(f"n{i:03d}", 1, 0.0, 100.0 + i, "u0", "t00")
                  for i in range(100)]
    t00_jobs.append(JobRequest("wide", 32, 1.0, 10.0, "u0", "t00"))
    # t01 keeps a deep backlog of long narrow jobs, so fewer than 32
    # processors are ever free while t00's narrow jobs drain
    filler = [JobRequest(f"f{i:03d}", 1, 0.5 + i * 0.001, 5000.0, "u1",
                         "t01") for i in range(200)]
    runs = []
    for engine_cls in (ReplayEngine, LinearScanReplayEngine):
        log: list[tuple[str, str]] = []
        env = Environment()
        records = make_tenants(2)
        allocator = DRFAllocator(128, 128 * 512.0, records)
        backend = CapacityBackend(env, ("s0", "s1", "s2", "s3"), 32)
        engine = recording(engine_cls, log)(
            env, sorted(t00_jobs + filler,
                        key=lambda req: req.submit_time_s),
            records, allocator, backend)
        engine.prime()
        env.run(until=195.0)  # 95 of the narrow jobs have finished
        parked = max(map(len, engine._width_parked.values()), default=0)
        env.run()
        if engine_cls is ReplayEngine:  # drained width heaps are dropped
            assert engine._width_parked == {} and engine._widths == []
        runs.append((log, engine.finalize(), parked))
    (heap_log, heap, parked), (scan_log, scan, _) = runs
    assert heap_log == scan_log
    assert heap == scan
    assert 0 < parked <= 2 * 2 + 64


def test_scheduled_backend_matches_linear_scan(monkeypatch):
    config = ReplayBakeoffConfig(
        schedulers=("site", "round-robin"), arrivals=80, users=30,
        tenants=4, rate_per_s=4.0)
    results = {}
    for engine_cls in (ReplayEngine, LinearScanReplayEngine):
        log: list[tuple[str, str]] = []
        with monkeypatch.context() as patch:
            patch.setattr(bakeoff_replay, "ReplayEngine",
                          recording(engine_cls, log))
            results[engine_cls] = (log, run_replay_bakeoff(config).to_json())
    heap, scan = results[ReplayEngine], results[LinearScanReplayEngine]
    assert heap == scan
    assert len(heap[0]) == 2 * config.arrivals


def test_vdce_replay_under_failover_matches_linear_scan(monkeypatch):
    outcomes = {}
    for engine_cls in (ReplayEngine, LinearScanReplayEngine):
        log: list[tuple[str, str]] = []
        with monkeypatch.context() as patch:
            patch.setattr(chaos_replay, "ReplayEngine",
                          recording(engine_cls, log))
            _, injector, backend, outcome = chaos_replay.run_replay_chaos(
                101, plan=chaos_replay.SERVER_CRASH_PLAN,
                standbys=chaos_replay.STANDBYS)
        outcomes[engine_cls] = (
            log, injector.log_json(), backend.completions_by_tenant(),
            outcome.horizon_s, outcome.drf_decisions,
            outcome.drf_violations,
            {name: (s.dispatched, s.completed, s.wait_sum_s, s.wait_max_s)
             for name, s in outcome.tenants.items()})
    heap = outcomes[ReplayEngine]
    assert heap == outcomes[LinearScanReplayEngine]
    assert len(heap[0]) == chaos_replay.ARRIVALS


def test_audit_catches_a_broken_park_invariant(monkeypatch):
    """The per-decision audit does not trust the heap: with processor
    parks never lifted (no parked width ever counts as covered by the
    free processors), lower-share tenants that could run are passed
    over, and the audit (and ``check_report``) says so."""
    monkeypatch.setattr(ReplayEngine, "_unparked_widths",
                        lambda self: 0)
    report = run_replay(ReplayConfig(
        generator="synthetic-alibaba", seed=3, arrivals=1500, users=100,
        tenants=10, rate_per_s=1.0, sites=("s0", "s1", "s2", "s3"),
        procs_per_site=16))
    assert report.outcome.drf_violations > 0
    assert any("DRF violations" in problem
               for problem in check_report(report))
