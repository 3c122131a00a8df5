"""Unit tests for the pipeline DAG container."""

import pytest

from repro.errors import GraphError
from repro.ir.dag import Edge, PipelineDAG, Stage, merge_parallel_edges
from repro.ir.stencil import StencilWindow

from tests.conftest import build_virtual_reader


def make_simple() -> PipelineDAG:
    dag = PipelineDAG("simple")
    dag.add_stage(Stage("K0", is_input=True))
    dag.add_stage(Stage("K1"))
    dag.add_stage(Stage("K2", is_output=True))
    dag.add_edge("K0", "K1", StencilWindow.from_extent(3, 3))
    dag.add_edge("K1", "K2", StencilWindow.from_extent(1, 1))
    return dag


class TestConstruction:
    def test_duplicate_stage_rejected(self):
        dag = PipelineDAG()
        dag.add_stage(Stage("K0"))
        with pytest.raises(GraphError):
            dag.add_stage(Stage("K0"))

    def test_edge_requires_existing_stages(self):
        dag = PipelineDAG()
        dag.add_stage(Stage("K0", is_input=True))
        with pytest.raises(GraphError):
            dag.add_edge("K0", "missing", StencilWindow.point())
        with pytest.raises(GraphError):
            dag.add_edge("missing", "K0", StencilWindow.point())

    def test_self_edge_rejected(self):
        dag = PipelineDAG()
        dag.add_stage(Stage("K0"))
        with pytest.raises(GraphError):
            dag.add_edge("K0", "K0", StencilWindow.point())

    def test_duplicate_edge_rejected(self):
        dag = make_simple()
        with pytest.raises(GraphError):
            dag.add_edge("K0", "K1", StencilWindow.point())

    def test_len_and_contains(self):
        dag = make_simple()
        assert len(dag) == 3
        assert "K1" in dag
        assert "missing" not in dag


class TestQueries:
    def test_consumers_and_producers(self):
        dag = make_simple()
        assert dag.consumers_of("K0") == ["K1"]
        assert dag.producers_of("K2") == ["K1"]
        assert dag.producers_of("K0") == []

    def test_edge_lookup(self):
        dag = make_simple()
        edge = dag.edge("K0", "K1")
        assert edge.stencil_height == 3
        with pytest.raises(GraphError):
            dag.edge("K0", "K2")

    def test_unknown_stage_raises(self):
        dag = make_simple()
        with pytest.raises(GraphError):
            dag.stage("nope")
        with pytest.raises(GraphError):
            dag.consumers_of("nope")

    def test_input_output_stages(self):
        dag = make_simple()
        assert [s.name for s in dag.input_stages()] == ["K0"]
        assert [s.name for s in dag.output_stages()] == ["K2"]

    def test_multi_consumer_detection(self):
        dag = make_simple()
        assert dag.multi_consumer_stages() == []
        assert dag.is_single_consumer()
        dag.add_stage(Stage("K3", is_output=True))
        dag.add_edge("K0", "K3", StencilWindow.point())
        assert dag.multi_consumer_stages() == ["K0"]
        assert not dag.is_single_consumer()

    def test_accessor_stages(self):
        dag = make_simple()
        assert dag.accessor_stages("K0") == ["K0", "K1"]

    def test_summary_mentions_all_stages(self):
        text = make_simple().summary()
        for name in ("K0", "K1", "K2"):
            assert name in text


class TestCopy:
    def test_copy_is_deep_for_structure(self):
        dag = make_simple()
        clone = dag.copy("clone")
        clone.add_stage(Stage("K3"))
        assert "K3" not in dag
        assert clone.name == "clone"
        assert len(clone.edges()) == len(dag.edges())

    def test_copy_preserves_flags_and_metadata(self):
        dag = make_simple()
        dag.stage("K1").metadata["tag"] = 1
        clone = dag.copy()
        assert clone.stage("K0").is_input
        assert clone.stage("K2").is_output
        assert clone.stage("K1").metadata == {"tag": 1}


class TestVirtualOf:
    """``Stage.virtual_of`` survives copies and enters the canonical form."""

    def test_copy_keeps_virtual_of(self):
        clone = build_virtual_reader().copy()
        assert clone.stage("K1_v1").virtual_of == "K1"
        assert clone.stage("K1").virtual_of is None

    def test_canonical_form_distinguishes_virtual_of(self):
        marked, plain = build_virtual_reader(), build_virtual_reader(None)
        assert marked.canonical_form() != plain.canonical_form()
        assert marked.canonical_form() == build_virtual_reader().canonical_form()


class TestMergeParallelEdges:
    def test_merges_windows_of_same_pair(self):
        edges = [
            Edge("A", "B", StencilWindow(0, 0, 0, 0)),
            Edge("A", "B", StencilWindow(1, 2, -1, 0)),
            Edge("A", "C", StencilWindow(0, 0, 0, 0)),
        ]
        merged = merge_parallel_edges(edges)
        assert merged[("A", "B")].max_dx == 2
        assert merged[("A", "B")].min_dy == -1
        assert merged[("A", "C")].size == 1
