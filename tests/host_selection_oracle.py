"""The full-walk host selector, kept as a differential oracle.

:class:`FullWalkHostSelector` is :class:`repro.scheduling.HostSelector`
as it was before selection read delta-maintained candidate views: every
call re-filters the site's resource records with
:meth:`~repro.scheduling.HostSelector.feasible_records` and evaluates
``Predict`` on every survivor from scratch (serial tasks through
:meth:`PerformancePredictor.best_host`, ranked alternatives and parallel
tasks through a sorted sweep of :meth:`PerformancePredictor.predict`).
It is O(feasible hosts) per task and lives only here; the production
selector must return the same :class:`HostChoice` tuples, tie-breaks and
infeasibility verdicts, with bit-equal predicted floats.

``select`` is inherited: the figure's task-queue loop is shared, only
the per-task evaluation differs.
"""

from __future__ import annotations

from repro.afg.graph import TaskNode
from repro.analysis import hooks
from repro.repository.resource_perf import ResourceRecord
from repro.scheduling.host_selection import HostChoice, HostSelector
from repro.util.errors import NoFeasibleHostError


class FullWalkHostSelector(HostSelector):
    """Figure 5 by exhaustive re-walk: no views, no journal cursor."""

    def _hb_note(self, node: TaskNode) -> None:
        """Reads of the site's repository DBs only: the walk keeps no
        per-selector state, so it writes no ``selector-view`` cell."""
        hb = hooks.HB
        site = self.repository.site
        hb.read(site, "resource_performance", node.task_name)
        hb.read(site, "task_constraints", node.task_name)

    def select_ranked(self, node: TaskNode,
                      max_alternatives: int = 3) -> tuple[HostChoice, ...]:
        if hooks.HB is not None:
            self._hb_note(node)
        records = self.feasible_records(node)
        if not records:
            raise NoFeasibleHostError(
                f"site {self.repository.site!r}: no feasible host for "
                f"task {node.node_id!r} ({node.task_name})")
        props = node.properties
        processors: int = (props.processors
                           if props.computation_mode == "parallel" else 1)
        if processors > 1:
            return (self._select_parallel(node, records, processors),)
        preds = sorted(
            (self.predictor.predict(node.definition, props.input_size, rec)
             for rec in records if rec.status == "up"),
            key=lambda p: (p.estimate_s, p.host))
        if not preds:
            raise NoFeasibleHostError(
                f"site {self.repository.site!r}: every feasible host for "
                f"{node.node_id!r} is down")
        return tuple(
            HostChoice(node_id=node.node_id, site=self.repository.site,
                       hosts=(p.host,), predicted_time_s=p.estimate_s)
            for p in preds[:max_alternatives])

    def select_for_task(self, node: TaskNode) -> HostChoice:
        if hooks.HB is not None:
            self._hb_note(node)
        records = self.feasible_records(node)
        if not records:
            raise NoFeasibleHostError(
                f"site {self.repository.site!r}: no feasible host for "
                f"task {node.node_id!r} ({node.task_name})")
        props = node.properties
        processors = (props.processors
                      if props.computation_mode == "parallel" else 1)
        if processors == 1:
            best = self.predictor.best_host(node.definition,
                                            props.input_size, records)
            return HostChoice(node_id=node.node_id,
                              site=self.repository.site,
                              hosts=(best.host,),
                              predicted_time_s=best.estimate_s)
        return self._select_parallel(node, records, processors)

    def _select_parallel(self, node: TaskNode,
                         records: list[ResourceRecord],
                         processors: int) -> HostChoice:
        # Parallel extension: pick the p best hosts within the site; the
        # parallel execution time is bounded by the slowest participant.
        records = [rec for rec in records if rec.status == "up"]
        if len(records) < processors:
            raise NoFeasibleHostError(
                f"site {self.repository.site!r}: task {node.node_id!r} "
                f"needs {processors} hosts, only {len(records)} feasible")
        preds = sorted(
            (self.predictor.predict(node.definition,
                                    node.properties.input_size, rec,
                                    processors=processors)
             for rec in records),
            key=lambda p: (p.estimate_s, p.host))
        chosen = preds[:processors]
        return HostChoice(node_id=node.node_id, site=self.repository.site,
                          hosts=tuple(p.host for p in chosen),
                          predicted_time_s=max(p.estimate_s for p in chosen),
                          processors=processors)
