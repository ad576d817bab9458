"""Open-loop workload player: sustained multi-application load.

The paper's prototype ran one application at a time; a real VDCE
deployment would face a *stream* of submissions ("a site can be a local
site for some of the applications and a remote site for some of the
others").  The player submits applications with exponential inter-arrival
times from a generator of AFGs, tracks every run to completion, and
summarises throughput, latency, and rescheduling behaviour — the inputs
to the saturation experiment (A6).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.afg.graph import ApplicationFlowGraph
from repro.core.run import ApplicationRun
from repro.core.vdce import VDCE
from repro.util.errors import ConfigurationError
from repro.util.stats import mean, percentile


@dataclass
class PlayerReport:
    """Aggregate outcome of one workload-player session."""

    submitted: int = 0
    completed: int = 0
    timed_out: int = 0
    horizon_s: float = 0.0
    makespans: list[float] = field(default_factory=list)
    runs: list[ApplicationRun] = field(default_factory=list)

    @property
    def throughput_per_min(self) -> float:
        if self.horizon_s <= 0:
            return 0.0
        return 60.0 * self.completed / self.horizon_s

    @property
    def mean_makespan_s(self) -> float:
        return mean(self.makespans) if self.makespans else 0.0

    @property
    def p95_makespan_s(self) -> float:
        return percentile(self.makespans, 95) if self.makespans else 0.0

    def summary(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "timed_out": self.timed_out,
            "throughput_per_min": self.throughput_per_min,
            "mean_makespan_s": self.mean_makespan_s,
            "p95_makespan_s": self.p95_makespan_s,
            "reschedules": sum(r.reschedules for r in self.runs),
        }


class WorkloadPlayer:
    """Submit a stream of applications against a started VDCE."""

    def __init__(self, vdce: VDCE,
                 graph_factory: Callable[[int], ApplicationFlowGraph],
                 mean_interarrival_s: float,
                 local_sites: list[str] | None = None,
                 k_remote_sites: int = 1,
                 queue_aware: bool = False,
                 rng: np.random.Generator | None = None) -> None:
        if mean_interarrival_s <= 0:
            raise ConfigurationError(
                "mean inter-arrival time must be positive")
        self.vdce = vdce
        self.graph_factory = graph_factory
        self.mean_interarrival_s = mean_interarrival_s
        self.local_sites = local_sites or sorted(vdce.site_managers)
        if not self.local_sites:
            raise ConfigurationError("no submission sites available")
        self.k_remote_sites = k_remote_sites
        self.queue_aware = queue_aware
        self.rng = rng or np.random.default_rng(0)

    def _arrivals(self, count: int) -> Iterator[float]:
        for _ in range(count):
            yield float(self.rng.exponential(self.mean_interarrival_s))

    def play(self, count: int, drain_s: float = 3600.0) -> PlayerReport:
        """Submit *count* applications; run until all finish (or drain).

        Arrivals are open-loop: the next submission does not wait for the
        previous application.  Sites round-robin across ``local_sites``.
        """
        report = PlayerReport()
        processes = []
        start = self.vdce.now
        for i, gap in enumerate(self._arrivals(count)):
            self.vdce.run(until=self.vdce.now + gap)
            graph = self.graph_factory(i)
            site = self.local_sites[i % len(self.local_sites)]
            process, run = self.vdce.submit(
                graph, site, k_remote_sites=self.k_remote_sites,
                queue_aware=self.queue_aware)
            processes.append((process, run))
            report.submitted += 1
        deadline = self.vdce.now + drain_s
        while self.vdce.now < deadline and \
                not all(p.triggered for p, _ in processes):
            self.vdce.run(until=min(self.vdce.now + 5.0, deadline))
        obs = self.vdce.obs
        for process, run in processes:
            report.runs.append(run)
            if process.triggered and run.status == "completed":
                report.completed += 1
                report.makespans.append(run.makespan)
                if obs.enabled:
                    obs.metrics.counter(
                        "player_completed_total",
                        help="player applications completed").inc()
                    obs.metrics.histogram(
                        "player_makespan_seconds",
                        help="completed-application makespans").observe(
                            run.makespan)
            else:
                report.timed_out += 1
                if obs.enabled:
                    obs.metrics.counter(
                        "player_timed_out_total",
                        help="player applications not finished by the "
                             "drain deadline").inc()
        report.horizon_s = self.vdce.now - start
        if obs.enabled:
            obs.metrics.counter(
                "player_submitted_total",
                help="player applications submitted").inc(
                    float(report.submitted))
        return report
