"""Tests for graph rendering and editor undo/redo."""

import pytest

from repro.afg import (
    ApplicationEditor,
    TaskProperties,
    node_depths,
    render_graph,
    render_summary,
)
from repro.tasklib import standard_registry
from repro.util.errors import EditorModeError
from repro.workloads import linear_solver_graph


@pytest.fixture(scope="module")
def registry():
    return standard_registry()


class TestNodeDepths:
    def test_entry_is_zero(self, registry):
        g = linear_solver_graph(registry, n=40)
        depths = node_depths(g)
        assert depths["gen-A"] == 0
        assert depths["gen-b"] == 0

    def test_depth_increases_along_links(self, registry):
        g = linear_solver_graph(registry, n=40)
        depths = node_depths(g)
        for link in g.links:
            assert depths[link.dst] > depths[link.src]

    def test_longest_path_depth(self, registry):
        g = linear_solver_graph(registry, n=40, verify=False)
        depths = node_depths(g)
        # gen-A -> lu -> inv -> combine -> solve = depths 0..4
        assert depths["solve"] == 4


class TestRenderGraph:
    def test_contains_all_nodes_and_layers(self, registry):
        g = linear_solver_graph(registry, n=40)
        text = render_graph(g)
        for nid in g.nodes:
            assert f"[{nid}]" in text
        assert "layer 0:" in text

    def test_shows_properties(self, registry):
        g = linear_solver_graph(registry, n=40, parallel_lu=True)
        g.node("lu").properties.preferred_site = "rome"
        text = render_graph(g)
        assert "parallel x2" in text
        assert "@rome" in text

    def test_empty_graph(self, registry):
        from repro.afg import ApplicationFlowGraph
        assert "(empty)" in render_graph(ApplicationFlowGraph("empty"))

    def test_ports_toggle(self, registry):
        g = linear_solver_graph(registry, n=40)
        with_ports = render_graph(g, show_ports=True)
        without = render_graph(g, show_ports=False)
        assert "lower -->" in with_ports
        assert "lower -->" not in without

    def test_summary_metrics(self, registry):
        g = linear_solver_graph(registry, n=40)
        text = render_summary(g)
        assert "tasks / links  : 8 /" in text
        assert "critical path" in text


class TestUndoRedo:
    def make(self, registry) -> ApplicationEditor:
        return ApplicationEditor(registry, "undo-demo")

    def test_undo_add_task(self, registry):
        ed = self.make(registry)
        ed.add_task("fft-1d", "f")
        assert "f" in ed.graph.nodes
        ed.undo()
        assert len(ed.graph) == 0

    def test_redo_restores(self, registry):
        ed = self.make(registry)
        ed.add_task("fft-1d", "f")
        ed.undo()
        assert ed.can_redo
        ed.redo()
        assert "f" in ed.graph.nodes

    def test_new_action_clears_redo(self, registry):
        ed = self.make(registry)
        ed.add_task("fft-1d", "f")
        ed.undo()
        ed.add_task("signal-generate", "s")
        assert not ed.can_redo
        with pytest.raises(EditorModeError):
            ed.redo()

    def test_undo_connect(self, registry):
        ed = self.make(registry)
        ed.add_task("signal-generate", "s")
        ed.add_task("fft-1d", "f")
        ed.set_mode("link")
        ed.connect("s", "signal", "f", "signal")
        assert len(ed.graph.links) == 1
        ed.undo()
        assert len(ed.graph.links) == 0
        assert set(ed.graph.nodes) == {"s", "f"}  # nodes survive

    def test_undo_set_properties(self, registry):
        ed = self.make(registry)
        ed.add_task("lu-decomposition", "lu")
        ed.set_properties("lu", TaskProperties(input_size=999.0))
        ed.undo()
        assert ed.get_properties("lu").input_size == 100.0

    def test_undo_remove_task_restores_links(self, registry):
        ed = self.make(registry)
        ed.add_task("signal-generate", "s")
        ed.add_task("fft-1d", "f")
        ed.set_mode("link")
        ed.connect("s", "signal", "f", "signal")
        ed.set_mode("task")
        ed.remove_task("f")
        ed.undo()
        assert "f" in ed.graph.nodes
        assert len(ed.graph.links) == 1

    def test_undo_empty_raises(self, registry):
        with pytest.raises(EditorModeError):
            self.make(registry).undo()

    def test_history_depth_bounded(self, registry):
        ed = self.make(registry)
        ed.HISTORY_DEPTH = 5
        for i in range(10):
            ed.add_task("fft-1d", f"f{i}")
        assert len(ed._undo_stack) == 5
        for _ in range(5):
            ed.undo()
        assert not ed.can_undo
        assert len(ed.graph) == 5  # the oldest five adds are permanent

    def test_undo_chain_full_workflow(self, registry):
        ed = self.make(registry)
        ed.add_task("signal-generate", "s")
        ed.add_task("fft-1d", "f")
        ed.set_mode("link")
        link = ed.connect("s", "signal", "f", "signal")
        ed.disconnect(link)
        ed.undo()  # undo disconnect -> link back
        assert len(ed.graph.links) == 1
        ed.undo()  # undo connect -> no links
        assert len(ed.graph.links) == 0
        ed.undo()  # undo add f
        assert set(ed.graph.nodes) == {"s"}

    def test_load_clears_history(self, registry, tmp_path):
        ed = self.make(registry)
        ed.add_task("fft-1d", "f")
        ed.save(tmp_path / "a.json")
        ed.load(tmp_path / "a.json")
        assert not ed.can_undo and not ed.can_redo
