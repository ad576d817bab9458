"""Per-layer metrics: spans around calls into each layer, plus counts.

The traced run installs wrappers around public functions of the
``repro`` layers (:data:`SPANS`), only for its traced passes, and
restores the originals afterwards.  Every wrapped call records a span
(name, start, end, parent).  A layer's *self time* is the host time
inside its spans minus the time covered by child spans and by garbage
collection, so a GC sweep is charged to the ``gc`` bucket and not to
whatever function happened to allocate.  The outermost span is
``Environment.run``: ``simcore.self_s`` is therefore kernel dispatch
plus every line no wrapped layer call covers (generator daemon bodies,
the facade).  Generator-based daemons are covered by counts, not spans.

Counts come from the wrappers (calls) and from the public ``*Stats``
objects each sub-workload reports (:mod:`perfbench.workloads`).
"""

from __future__ import annotations

import gc
import inspect
import json
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.net.network import Network
from repro.prediction.predict import PerformancePredictor
from repro.repository.delta import DeltaTracker
from repro.repository.resource_perf import ResourcePerformanceDB
from repro.repository.task_perf import TaskPerformanceDB
from repro.scheduling.host_selection import HostSelector
from repro.scheduling.rescheduling import Rescheduler
from repro.scheduling.site_scheduler import SiteScheduler
from repro.simcore.engine import Environment
from repro.tasklib.base import TaskDefinition
from repro.traffic.admission import AdmissionController
from repro.traffic.drf import DRFAllocator

#: (owner, attribute, layer) of every function the traced run wraps in
#: a span.  ``Environment.run`` is the root.
SPANS: tuple[tuple[type, str, str], ...] = (
    (Environment, "run", "simcore"),
    (Network, "send", "net"),
    (Network, "send_batch", "net"),
    (SiteScheduler, "schedule", "scheduling"),
    (HostSelector, "select", "scheduling"),
    (Rescheduler, "reschedule", "scheduling"),
    (PerformancePredictor, "predict", "prediction"),
    (PerformancePredictor, "estimate", "prediction"),
    (PerformancePredictor, "best_host", "prediction"),
    (ResourcePerformanceDB, "update_dynamic", "repository"),
    (TaskPerformanceDB, "record_execution", "repository"),
    (DeltaTracker, "record", "repository"),
    (TaskDefinition, "execute", "tasklib"),
    (AdmissionController, "submit", "traffic"),
    (DRFAllocator, "can_allocate", "traffic"),
    (DRFAllocator, "pick", "traffic"),
)

#: kernel factories the traced run counts (no span: one per event)
EVENT_FACTORIES = ("timeout", "call_later", "process", "event")

#: the layers that report a self time
SPAN_LAYERS = ("simcore", "net", "scheduling", "prediction", "repository",
               "tasklib", "traffic")

#: span label of the completion callbacks the recording backend wraps
COMPLETE_SPAN = "traffic.on_complete"

#: per-layer metric -> (end-to-end metric it should move, workloads)
MOVES: dict[str, tuple[str, str]] = {
    "simcore.self_s": ("jobs_per_s", "all three"),
    "simcore.events_scheduled": ("jobs_per_s", "all three"),
    "simcore.host_us_per_event": ("jobs_per_s", "all three"),
    "simcore.sim_s": ("jobs_per_s", "all three"),
    "net.self_s": ("jobs_per_s", "replay_vdce_churn, paper_apps"),
    "net.send_calls": ("jobs_per_s", "replay_vdce_churn, paper_apps"),
    "net.messages": ("jobs_per_s", "replay_vdce_churn, paper_apps"),
    "net.bytes": ("jobs_per_s", "replay_vdce_churn, paper_apps"),
    "net.dropped": ("jobs_per_s", "replay_vdce_churn, paper_apps"),
    "net.partition_drops": ("jobs_per_s", "replay_vdce_churn"),
    "scheduling.self_s": ("jobs_per_s, sim_makespan_*", "paper_apps"),
    "scheduling.rounds": ("jobs_per_s, sim_makespan_*", "paper_apps"),
    "scheduling.host_select_calls": ("jobs_per_s, sim_makespan_*",
                                     "paper_apps"),
    "scheduling.reschedules": ("jobs_per_s, sim_makespan_*", "paper_apps"),
    "scheduling.reschedules_per_task": ("jobs_per_s, sim_makespan_*",
                                        "paper_apps"),
    "prediction.self_s": ("jobs_per_s", "paper_apps"),
    "prediction.predict_calls": ("jobs_per_s", "paper_apps"),
    "prediction.best_host_calls": ("jobs_per_s", "paper_apps"),
    "repository.self_s": ("jobs_per_s", "paper_apps"),
    "repository.dynamic_updates": ("jobs_per_s", "paper_apps"),
    "repository.delta_events": ("jobs_per_s", "paper_apps"),
    "control.reports_received": ("jobs_per_s, sim_makespan_*",
                                 "paper_apps"),
    "control.updates_forwarded": ("jobs_per_s, sim_makespan_*",
                                  "paper_apps"),
    "control.forward_ratio": ("jobs_per_s, sim_makespan_*", "paper_apps"),
    "control.tasks_executed": ("jobs_per_s, sim_makespan_*", "paper_apps"),
    "control.overload_terminations": ("jobs_per_s, sim_makespan_*",
                                      "paper_apps"),
    "data.channels_opened": ("sim_makespan_*",
                             "paper_apps, replay_vdce_churn"),
    "data.setup_retries": ("sim_makespan_*",
                           "paper_apps, replay_vdce_churn"),
    "data.bytes_sent": ("sim_makespan_*", "paper_apps, replay_vdce_churn"),
    "tasklib.self_s": ("jobs_per_s", "paper_apps"),
    "tasklib.execute_calls": ("jobs_per_s", "paper_apps"),
    "traffic.self_s": ("jobs_per_s", "replay_drf"),
    "traffic.submits": ("jobs_per_s", "replay_drf"),
    "traffic.can_allocate_calls": ("jobs_per_s", "replay_drf"),
    "traffic.dispatches": ("jobs_per_s", "replay_drf"),
    "traffic.dispatch_per_check": ("jobs_per_s", "replay_drf"),
    "traffic.max_queue_depth": ("jobs_per_s", "replay_drf"),
    "federation.heartbeats": ("jobs_per_s, sim_wait_p99_s",
                              "replay_vdce_churn"),
    "federation.quarantines": ("jobs_per_s, sim_wait_p99_s",
                               "replay_vdce_churn"),
    "federation.rejoins": ("jobs_per_s, sim_wait_p99_s",
                           "replay_vdce_churn"),
    "federation.sync_replies": ("jobs_per_s, sim_wait_p99_s",
                                "replay_vdce_churn"),
    "federation.sync_bytes": ("jobs_per_s, sim_wait_p99_s",
                              "replay_vdce_churn"),
    "faults.events": ("jobs_per_s, sim_wait_p99_s", "replay_vdce_churn"),
    "gc.collections": ("jobs_per_s, peak_rss_mb", "all three"),
    "gc.pause_s": ("jobs_per_s, peak_rss_mb", "all three"),
    "trace.overhead_pct": ("none: the cost of tracing itself", "all three"),
}


class SpanRecorder:
    """Keeps spans in memory and folds them into per-layer self time."""

    def __init__(self, keep: int = 200_000) -> None:
        self.keep = keep
        #: (name, start, end, id, parent id); the first ``keep`` spans
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.span_count = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        #: host time inside outermost spans (``Environment.run``)
        self.root_s = 0.0
        #: wrappers record only while set: the traced run clears it
        #: around set-up, so warm-up work is not charged to the layers
        self.recording = False
        # open spans: [id, start, time covered by children and GC]
        self._stack: list[list[float]] = []
        self._gc_start = 0.0

    def wrap(self, fn: Callable[..., Any], name: str,
             layer: str) -> Callable[..., Any]:
        """*fn* with a span named *name* charged to *layer*."""
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name} is a generator function; "
                            "cover it with counts, not spans")
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.recording:
                return fn(*args, **kwargs)
            recorder.span_count += 1
            sid = recorder.span_count
            parent = int(stack[-1][0]) if stack else 0
            frame = [sid, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    recorder.root_s += duration
                calls[name] += 1
                if len(spans) < recorder.keep:
                    spans.append((name, frame[1], end, sid, parent))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def count(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """*fn* with a call counter and no span."""
        calls = self.calls
        recorder = self

        def counted(*args: Any, **kwargs: Any) -> Any:
            if recorder.recording:
                calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted

    def on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if not self.recording:
            return
        if phase == "start":
            self._gc_start = perf_counter()
            return
        pause = perf_counter() - self._gc_start
        self.gc_collections += 1
        self.gc_pause_s += pause
        if self._stack:
            self._stack[-1][2] += pause

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, sid, parent in self.spans:
                out.write(json.dumps({"name": name, "start": start,
                                      "end": end, "id": sid,
                                      "parent": parent}) + "\n")


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[None]:
    """Install the span wrappers and the GC callback; restore on exit."""
    saved: list[tuple[type, str, Any]] = []
    try:
        for owner, attr, layer in SPANS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(
                original, f"{layer}.{owner.__name__}.{attr}", layer))
        for attr in EVENT_FACTORIES:
            original = Environment.__dict__[attr]
            saved.append((Environment, attr, original))
            setattr(Environment, attr,
                    recorder.count(original, f"simcore.{attr}"))
        gc.callbacks.append(recorder.on_gc)
        yield
    finally:
        if recorder.on_gc in gc.callbacks:
            gc.callbacks.remove(recorder.on_gc)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def complete_wrapper(recorder: SpanRecorder
                     ) -> Callable[[Callable[[], None]], Callable[[], None]]:
    """Wrap replay completion callbacks (release + DRF pump) in spans."""
    def wrap(on_complete: Callable[[], None]) -> Callable[[], None]:
        return recorder.wrap(on_complete, COMPLETE_SPAN, "traffic")
    return wrap


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: SpanRecorder, counts: dict[str, float],
                  overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    calls = recorder.calls

    def called(*names: str) -> int:
        return sum(calls[n] for n in names)

    def count(name: str) -> float:
        return counts.get(name, 0)

    events = called(*(f"simcore.{a}" for a in EVENT_FACTORIES))
    out: dict[str, float] = {f"{layer}.self_s": recorder.self_s[layer]
                             for layer in SPAN_LAYERS}
    tasks = count("tasks")
    can_allocate = called("traffic.DRFAllocator.can_allocate")
    out.update({
        "simcore.events_scheduled": events,
        "simcore.host_us_per_event": 1e6 * _ratio(recorder.root_s, events),
        "simcore.sim_s": count("sim_s"),
        "net.send_calls": called("net.Network.send", "net.Network.send_batch"),
        "net.messages": count("net.messages"),
        "net.bytes": count("net.bytes"),
        "net.dropped": count("net.dropped"),
        "net.partition_drops": count("net.partition_drops"),
        "scheduling.rounds": called("scheduling.SiteScheduler.schedule"),
        "scheduling.host_select_calls": called(
            "scheduling.HostSelector.select"),
        "scheduling.reschedules": count("scheduling.reschedules"),
        "scheduling.reschedules_per_task": _ratio(
            count("scheduling.reschedules"), tasks),
        "prediction.predict_calls": called(
            "prediction.PerformancePredictor.predict",
            "prediction.PerformancePredictor.estimate"),
        "prediction.best_host_calls": called(
            "prediction.PerformancePredictor.best_host"),
        "repository.dynamic_updates": called(
            "repository.ResourcePerformanceDB.update_dynamic"),
        "repository.delta_events": called("repository.DeltaTracker.record"),
        "control.reports_received": count("control.reports_received"),
        "control.updates_forwarded": count("control.updates_forwarded"),
        "control.forward_ratio": _ratio(count("control.updates_forwarded"),
                                        count("control.reports_received")),
        "control.tasks_executed": count("control.tasks_executed"),
        "control.overload_terminations": count(
            "control.overload_terminations"),
        "data.channels_opened": count("data.channels_opened"),
        "data.setup_retries": count("data.setup_retries"),
        "data.bytes_sent": count("data.bytes_sent"),
        "tasklib.execute_calls": called("tasklib.TaskDefinition.execute"),
        "traffic.submits": called("traffic.AdmissionController.submit"),
        "traffic.can_allocate_calls": can_allocate,
        "traffic.dispatches": count("traffic.dispatches"),
        "traffic.dispatch_per_check": _ratio(count("traffic.dispatches"),
                                             can_allocate),
        "traffic.max_queue_depth": count("traffic.max_queue_depth"),
        "federation.heartbeats": count("federation.heartbeats"),
        "federation.quarantines": count("federation.quarantines"),
        "federation.rejoins": count("federation.rejoins"),
        "federation.sync_replies": count("federation.sync_replies"),
        "federation.sync_bytes": count("federation.sync_bytes"),
        "faults.events": count("faults.events"),
        "gc.collections": recorder.gc_collections,
        "gc.pause_s": recorder.gc_pause_s,
        "trace.overhead_pct": overhead_pct,
    })
    return out


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s") and name != "simcore.sim_s":
        return "s"
    if name == "simcore.sim_s":
        return "sim_s"
    if name.endswith("_us_per_event"):
        return "us"
    if name.endswith("bytes") or name.endswith("bytes_sent"):
        return "bytes"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "_per_task", "_per_check")):
        return "ratio"
    return "count"
