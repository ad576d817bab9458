"""Tests for the `tools/perf_report.py --check` regression logic.

The perf CI job gates merges on this comparison, so the comparison
itself needs tests: synthetic baseline vs. current JSON, pass and fail
paths, missing benchmarks, and tolerance arithmetic — all without
running the actual benchmarks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.perf_report import check_regressions  # noqa: E402


def write_baseline(tmp_path: Path, benchmarks: dict) -> Path:
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"schema": 1, "benchmarks": benchmarks}))
    return path


def entry(ops_per_s: float) -> dict:
    return {"ops": 1000, "wall_s": 1000 / ops_per_s,
            "ops_per_s": ops_per_s, "repeats": 3}


def test_no_regression_passes(tmp_path: Path) -> None:
    baseline = write_baseline(tmp_path, {"kernel": entry(1000.0)})
    fresh = {"kernel": entry(995.0)}
    assert check_regressions(fresh, baseline, tolerance=0.30) == []


def test_improvement_never_fails(tmp_path: Path) -> None:
    baseline = write_baseline(tmp_path, {"kernel": entry(1000.0)})
    fresh = {"kernel": entry(5000.0)}
    assert check_regressions(fresh, baseline, tolerance=0.30) == []


def test_drop_within_tolerance_passes(tmp_path: Path) -> None:
    baseline = write_baseline(tmp_path, {"kernel": entry(1000.0)})
    fresh = {"kernel": entry(701.0)}  # floor at 30% is 700.0
    assert check_regressions(fresh, baseline, tolerance=0.30) == []


def test_drop_beyond_tolerance_fails(tmp_path: Path) -> None:
    baseline = write_baseline(tmp_path, {"kernel": entry(1000.0),
                                         "sched": entry(500.0)})
    fresh = {"kernel": entry(699.0), "sched": entry(500.0)}
    failures = check_regressions(fresh, baseline, tolerance=0.30)
    assert len(failures) == 1
    assert failures[0].startswith("kernel:")
    assert "699" in failures[0]


def test_missing_benchmark_fails(tmp_path: Path) -> None:
    baseline = write_baseline(tmp_path, {"kernel": entry(1000.0),
                                         "gone": entry(50.0)})
    fresh = {"kernel": entry(1000.0)}
    failures = check_regressions(fresh, baseline, tolerance=0.30)
    assert failures == ["gone: present in baseline but not run"]


def test_extra_fresh_benchmark_ignored(tmp_path: Path) -> None:
    baseline = write_baseline(tmp_path, {"kernel": entry(1000.0)})
    fresh = {"kernel": entry(1000.0), "brand_new": entry(1.0)}
    assert check_regressions(fresh, baseline, tolerance=0.30) == []


def test_tolerance_is_fractional_not_percent(tmp_path: Path) -> None:
    baseline = write_baseline(tmp_path, {"kernel": entry(1000.0)})
    fresh = {"kernel": entry(899.0)}
    assert check_regressions(fresh, baseline, tolerance=0.10) != []
    assert check_regressions(fresh, baseline, tolerance=0.11) == []


def test_committed_baseline_is_well_formed() -> None:
    """BENCH_perf.json (the CI gate's baseline) must parse and carry
    ops_per_s for every benchmark the checker would compare."""
    doc = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
    assert doc.get("benchmarks"), "baseline has no benchmarks"
    for name, bench in doc["benchmarks"].items():
        assert bench["ops_per_s"] > 0, name


def test_fast_path_bench_pairs_run_at_scale_one() -> None:
    """The pairs ``check_fast_path_speedups`` gates, run once each: the
    full-walk oracle and the loop of sends are imported from outside
    ``src/``, so a broken import or fixture shows here, not only in the
    perf job."""
    from tools import perf_report
    try:
        # 25 rounds at scale 1, each placing every task of the DAG
        tasks = len(perf_report._resched_fixture("full")[1])
        assert perf_report.bench_scheduler_full_resched(1) == 25 * tasks
        assert perf_report.bench_scheduler_incremental(1) == 25 * tasks
    finally:
        perf_report._RESCHED_CACHE.clear()
    assert perf_report.bench_event_fanout_unbatched(1) == 2 * 1000
    assert perf_report.bench_event_batch_fanout(1) == 2 * 1000
