"""DRF allocator, tenant gate, and the fairness property.

The headline property (the ISSUE's acceptance bound): **no tenant sits
below its fair share while another tenant exceeds its fair share and
the first has pending demand**.  Progressive filling guarantees it
decision-by-decision; the replay engine audits every dispatch and
counts violations — these tests pin both the unit mechanics and the
end-to-end audit at zero.
"""

import pytest

from repro.repository import TenantRecord
from repro.scheduling.registry import TenantGate
from repro.traffic import (
    DRFAllocator,
    DRFGatedScheduler,
    TenantOverShareError,
    TenantShareFilter,
    fairness_stats,
    make_tenants,
)
from repro.util.rng import RngRegistry


def allocator(tenants=None, procs=100, mem=100_000.0):
    return DRFAllocator(capacity_procs=procs, capacity_memory_mb=mem,
                        tenants=tenants or make_tenants(3))


class TestAllocator:
    def test_demand_and_bookkeeping(self):
        alloc = allocator()
        demand = alloc.demand_of(4, 256.0)
        assert demand == (4.0, 1024.0)
        alloc.allocate("t00", demand)
        assert alloc.allocated("t00") == demand
        assert alloc.free() == (96.0, 98_976.0)
        alloc.release("t00", demand)
        assert alloc.allocated("t00") == (0.0, 0.0)

    def test_release_more_than_allocated_raises(self):
        alloc = allocator()
        with pytest.raises(ValueError, match="released more"):
            alloc.release("t00", (1.0, 0.0))
        alloc.allocate("t00", (4.0, 1024.0))
        with pytest.raises(ValueError, match="released more"):
            alloc.release("t00", (2.0, 2048.0))
        # the refused release left every counter as it was
        assert alloc.allocated("t00") == (4.0, 1024.0)
        assert alloc.free() == (96.0, 98_976.0)
        assert alloc.dominant_share("t00") == 0.04

    def test_fits_procs_is_the_processor_half_of_fits_capacity(self):
        alloc = allocator(procs=10, mem=10_000.0)
        alloc.allocate("t00", (7.0, 100.0))
        assert alloc.fits_procs(3.0) and alloc.fits_procs(3.0 + 1e-10)
        assert not alloc.fits_procs(3.5)
        for procs in (1.0, 3.0, 3.5, 4.0):
            assert alloc.fits_procs(procs) \
                == alloc.fits_capacity((procs, 0.0))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cached_share_and_free_match_recomputation(self, seed):
        """The cached free vector and shares equal, bit for bit, the
        expressions recomputed from the raw counters after every step."""
        rng = RngRegistry(seed).stream("drf-cache")
        tenants = {f"t{i}": TenantRecord(name=f"t{i}",
                                         weight=float(rng.uniform(0.3, 3.0)))
                   for i in range(5)}
        capacity = (96.0, 96 * 512.0)
        alloc = DRFAllocator(capacity[0], capacity[1], tenants)
        vec = {name: [0.0, 0.0] for name in tenants}
        used = [0.0, 0.0]
        held: list[tuple[str, tuple[float, float]]] = []
        for _ in range(400):
            if held and rng.random() < 0.45:
                name, demand = held.pop(int(rng.integers(len(held))))
                alloc.release(name, demand)
                sign = -1.0
            else:
                name = sorted(tenants)[int(rng.integers(len(tenants)))]
                demand = alloc.demand_of(int(rng.integers(1, 9)),
                                         float(rng.choice([192.0, 224.0,
                                                           320.0, 384.0])))
                if not alloc.fits_capacity(demand):
                    continue
                alloc.allocate(name, demand)
                held.append((name, demand))
                sign = 1.0
            for axis in (0, 1):
                if sign > 0:
                    vec[name][axis] += demand[axis]
                    used[axis] += demand[axis]
                else:
                    vec[name][axis] -= demand[axis]
                    used[axis] -= demand[axis]
            assert alloc.free() == (capacity[0] - used[0],
                                    capacity[1] - used[1])
            for other, record in tenants.items():
                share = max(vec[other][0] / capacity[0],
                            vec[other][1] / capacity[1]) / record.weight
                assert alloc.dominant_share(other) == share

    def test_dominant_share_is_max_axis_over_weight(self):
        tenants = {"a": TenantRecord(name="a", weight=2.0),
                   "b": TenantRecord(name="b")}
        alloc = allocator(tenants)
        alloc.allocate("a", (10.0, 50_000.0))  # memory-dominant: 0.5
        assert alloc.dominant_share("a") == pytest.approx(0.5 / 2.0)
        alloc.allocate("b", (20.0, 1000.0))    # cpu-dominant: 0.2
        assert alloc.dominant_share("b") == pytest.approx(0.2)

    def test_pick_progressive_filling(self):
        alloc = allocator()
        alloc.allocate("t00", (50.0, 100.0))
        alloc.allocate("t01", (10.0, 100.0))
        assert alloc.pick(["t00", "t01", "t02"]) == "t02"
        alloc.allocate("t02", (20.0, 100.0))
        assert alloc.pick(["t00", "t01", "t02"]) == "t01"
        assert alloc.pick([]) is None

    def test_pick_name_tie_break(self):
        alloc = allocator()
        assert alloc.pick(["t02", "t01", "t00"]) == "t00"

    def test_quota_and_capacity_predicates(self):
        tenants = {"q": TenantRecord(name="q", quota_procs=8,
                                     quota_memory_mb=4096.0)}
        alloc = DRFAllocator(100, 100_000.0, tenants)
        assert alloc.can_allocate("q", (8.0, 4096.0))
        assert not alloc.can_allocate("q", (9.0, 100.0))
        assert not alloc.can_allocate("q", (1.0, 5000.0))
        alloc.allocate("q", (8.0, 1.0))
        assert not alloc.can_allocate("q", (1.0, 1.0))  # quota exhausted
        # feasible() ignores current allocation: could-ever-run
        assert alloc.feasible("q", (8.0, 4096.0))
        assert not alloc.feasible("q", (9.0, 1.0))
        assert not alloc.feasible("q", (200.0, 1.0))  # beyond capacity

    def test_weighted_pick_prefers_heavier_tenant(self):
        tenants = {"heavy": TenantRecord(name="heavy", weight=3.0),
                   "light": TenantRecord(name="light", weight=1.0)}
        alloc = DRFAllocator(90, 90_000.0, tenants)
        # equal raw allocation: the heavier tenant's weighted share is
        # lower, so it goes next
        alloc.allocate("heavy", (30.0, 100.0))
        alloc.allocate("light", (30.0, 100.0))
        assert alloc.pick(["heavy", "light"]) == "heavy"


class TestFairnessProperty:
    def test_no_starvation_below_fair_share(self):
        """The acceptance property, adversarially: one greedy tenant
        floods, two modest tenants trickle; whenever capacity frees,
        the lowest-share tenant with pending demand is served first, so
        the greedy tenant can never hold above-fair-share allocation
        while a below-share tenant waits."""
        tenants = make_tenants(3)
        alloc = DRFAllocator(12, 12_000.0, tenants)
        pending = {"t00": 30, "t01": 6, "t02": 6}  # t00 floods
        running = []
        violations = 0
        for _step in range(200):
            # complete the oldest job to free capacity
            if running and (_step % 2 or not any(pending.values())):
                tenant, demand = running.pop(0)
                alloc.release(tenant, demand)
            demand = (2.0, 512.0)
            eligible = [t for t in sorted(pending)
                        if pending[t] and alloc.can_allocate(t, demand)]
            pick = alloc.pick(eligible)
            if pick is None:
                continue
            min_share = min(alloc.dominant_share(t) for t in eligible)
            if alloc.dominant_share(pick) > min_share + 1e-12:
                violations += 1
            pending[pick] -= 1
            alloc.allocate(pick, demand)
            running.append((pick, demand))
        assert violations == 0
        assert pending["t01"] == 0 and pending["t02"] == 0, \
            "modest tenants starved behind the flooding tenant"

    def test_fairness_stats(self):
        stats = fairness_stats({"a": 1.0, "b": 1.0, "c": 1.0})
        assert stats["jain_index"] == pytest.approx(1.0)
        skewed = fairness_stats({"a": 3.0, "b": 0.0, "c": 0.0})
        assert skewed["jain_index"] == pytest.approx(1 / 3)
        assert skewed["max_share"] == 3.0
        empty = fairness_stats({})
        assert empty["jain_index"] == 1.0


class TestTenantGate:
    def test_share_filter_satisfies_protocol(self):
        gate = TenantShareFilter(allocator(), mem_per_proc_mb=256.0)
        assert isinstance(gate, TenantGate)

    def test_admits_prices_memory_from_default(self):
        alloc = DRFAllocator(
            10, 2560.0,
            {"t": TenantRecord(name="t")})
        gate = TenantShareFilter(alloc, mem_per_proc_mb=256.0)
        assert gate.admits("t", 10, 0.0)       # exactly capacity
        assert not gate.admits("t", 11, 0.0)   # procs over
        assert not gate.admits("t", 5, 3000.0)  # explicit memory over

    def test_precedence_orders_by_share(self):
        alloc = allocator()
        gate = TenantShareFilter(alloc)
        alloc.allocate("t00", (10.0, 0.0))
        assert gate.precedence("t01") < gate.precedence("t00")

    def test_gated_scheduler_refuses_over_share(self):
        class FakeScheduler:
            name = "fake"

            def schedule(self, graph):
                return "table"

        alloc = DRFAllocator(4, 4096.0,
                             {"t": TenantRecord(name="t")})
        gate = TenantShareFilter(alloc, mem_per_proc_mb=256.0)
        gated = DRFGatedScheduler(FakeScheduler(), gate, "t", nproc=2)
        assert gated.name == "drf(fake)"
        assert gated.schedule(None) == "table"
        alloc.allocate("t", (4.0, 1024.0))  # now full
        with pytest.raises(TenantOverShareError):
            gated.schedule(None)


class TestMakeTenants:
    def test_weight_skew_spread(self):
        tenants = make_tenants(4, weight_skew=1.0)
        weights = [tenants[f"t{i:02d}"].weight for i in range(4)]
        assert weights[0] == pytest.approx(1.0)
        assert weights[-1] == pytest.approx(2.0)
        assert weights == sorted(weights)

    def test_quota_fields_forwarded(self):
        tenants = make_tenants(2, quota_procs=8, rate_per_s=3.0,
                               burst=5, max_pending=10)
        rec = tenants["t01"]
        assert rec.quota_procs == 8 and rec.rate_per_s == 3.0
        assert rec.burst == 5 and rec.max_pending == 10
