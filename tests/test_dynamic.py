"""Tests for incremental edge insertion (DynamicPLL)."""

import math
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dijkstra import dijkstra_sssp
from repro.core.dynamic import DynamicPLL
from repro.core.index import PLLIndex
from repro.errors import GraphError
from repro.generators.random_graphs import gnm_random_graph

from .conftest import build_graph


def same_distance(got, want):
    """Equal up to the rounding of summing float weights in another order."""
    return got == want or math.isclose(got, want, rel_tol=1e-12)


def assert_close(dyn, sources=None):
    graph = dyn.current_graph()
    srcs = sources if sources is not None else range(graph.num_vertices)
    for s in srcs:
        truth = dijkstra_sssp(graph, s)
        for t in range(graph.num_vertices):
            assert same_distance(dyn.distance(s, t), truth[t]), (s, t)


def edge_weight(graph, a, b):
    """Weight of edge {a, b} in *graph* (None when absent)."""
    for v, w in graph.adjacency_lists()[a]:
        if v == b:
            return w
    return None


def assert_exact(dyn, sources=None):
    graph = dyn.current_graph()
    srcs = sources if sources is not None else range(graph.num_vertices)
    for s in srcs:
        truth = dijkstra_sssp(graph, s)
        for t in range(graph.num_vertices):
            assert dyn.distance(s, t) == truth[t], (s, t)


class TestBasics:
    def test_requires_graph(self, random_graph, tmp_path):
        index = PLLIndex.build(random_graph)
        f = tmp_path / "i.npz"
        index.save(f)
        with pytest.raises(GraphError):
            DynamicPLL(PLLIndex.load(f))

    def test_distance_before_any_insert(self, random_graph):
        dyn = DynamicPLL(PLLIndex.build(random_graph))
        truth = dijkstra_sssp(random_graph, 0)
        for t in range(random_graph.num_vertices):
            assert dyn.distance(0, t) == truth[t]

    def test_current_graph_matches_original(self, random_graph):
        dyn = DynamicPLL(PLLIndex.build(random_graph))
        assert dyn.current_graph() == random_graph


class TestInsertion:
    def test_shortcut_on_path(self, path_graph):
        # Path 0-1-2-3 (weights 1,2,3): add shortcut 0-3 of weight 1.
        dyn = DynamicPLL(PLLIndex.build(path_graph))
        added = dyn.insert_edge(0, 3, 1.0)
        assert added > 0
        assert dyn.distance(0, 3) == 1.0
        assert dyn.distance(1, 3) == 2.0  # via 0 now
        assert_exact(dyn)

    def test_connecting_components(self, two_components):
        dyn = DynamicPLL(PLLIndex.build(two_components))
        assert dyn.distance(0, 2) == float("inf")
        dyn.insert_edge(1, 2, 5.0)
        assert dyn.distance(0, 2) == 6.0
        assert_exact(dyn)

    def test_non_improving_edge(self, triangle):
        # 0-2 already costs 2 via vertex 1; a weight-50 edge 1-... add a
        # parallel-ish heavy edge that changes nothing.
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0)])
        dyn = DynamicPLL(PLLIndex.build(g))
        dyn.insert_edge(0, 2, 50.0)
        assert dyn.distance(0, 2) == 2.0
        assert_exact(dyn)

    def test_sequence_of_random_insertions(self):
        g = gnm_random_graph(35, 60, seed=9)
        dyn = DynamicPLL(PLLIndex.build(g))
        rng = random.Random(4)
        inserted = 0
        while inserted < 12:
            a = rng.randrange(g.num_vertices)
            b = rng.randrange(g.num_vertices)
            try:
                dyn.insert_edge(a, b, float(rng.randint(1, 10)))
            except GraphError:
                continue  # duplicate or self loop; try again
            inserted += 1
            assert_exact(dyn, sources=[a, b, 0])
        assert len(dyn.inserted_edges) == 12
        assert_exact(dyn)

    def test_insert_returns_added_count(self, random_graph):
        dyn = DynamicPLL(PLLIndex.build(random_graph))
        # Find a pair that is not yet an edge.
        a, b = next(
            (a, b)
            for a in range(random_graph.num_vertices)
            for b in range(a + 1, random_graph.num_vertices)
            if not random_graph.has_edge(a, b)
        )
        before = dyn.store.total_entries
        added = dyn.insert_edge(a, b, 0.5)
        assert dyn.store.total_entries == before + added


class TestValidation:
    def test_self_loop(self, path_graph):
        dyn = DynamicPLL(PLLIndex.build(path_graph))
        with pytest.raises(GraphError):
            dyn.insert_edge(1, 1, 1.0)

    def test_duplicate_edge(self, path_graph):
        dyn = DynamicPLL(PLLIndex.build(path_graph))
        with pytest.raises(GraphError, match="exists"):
            dyn.insert_edge(0, 1, 3.0)

    def test_bad_weight(self, path_graph):
        dyn = DynamicPLL(PLLIndex.build(path_graph))
        with pytest.raises(GraphError):
            dyn.insert_edge(0, 2, 0.0)
        with pytest.raises(GraphError):
            dyn.insert_edge(0, 2, float("nan"))

    def test_out_of_range(self, path_graph):
        dyn = DynamicPLL(PLLIndex.build(path_graph))
        with pytest.raises(GraphError):
            dyn.insert_edge(0, 99, 1.0)


class TestRebuild:
    def test_rebuild_restores_canonical(self):
        from repro.validate import check_canonical

        g = gnm_random_graph(30, 50, seed=2)
        dyn = DynamicPLL(PLLIndex.build(g))
        rng = random.Random(1)
        done = 0
        while done < 6:
            a, b = rng.randrange(30), rng.randrange(30)
            try:
                dyn.insert_edge(a, b, float(rng.randint(1, 5)))
                done += 1
            except GraphError:
                pass
        entries_before = dyn.store.total_entries
        dyn.rebuild()
        # Rebuilt index is canonical and no larger than the patched one.
        report = check_canonical(dyn.current_graph(), dyn.store, dyn.order)
        assert report.redundant_entries == 0
        assert dyn.store.total_entries <= entries_before
        assert_exact(dyn)


class TestWeightDecrease:
    def test_lower_weight_repairs_index(self, triangle):
        # 0-2 costs 2 via vertex 1; lowering the direct edge 5 -> 0.5
        # makes it the shortest route.
        dyn = DynamicPLL(PLLIndex.build(triangle))
        assert dyn.distance(0, 2) == 2.0
        dyn.insert_edge(0, 2, 0.5)
        assert dyn.distance(0, 2) == 0.5
        assert dyn.distance(1, 2) == 1.0
        assert_exact(dyn)

    def test_current_graph_holds_one_edge_with_new_weight(self, triangle):
        dyn = DynamicPLL(PLLIndex.build(triangle))
        dyn.insert_edge(2, 0, 3.0)
        graph = dyn.current_graph()
        assert graph.num_edges == triangle.num_edges
        assert edge_weight(graph, 0, 2) == 3.0
        assert edge_weight(graph, 2, 0) == 3.0
        assert dyn.inserted_edges == [(2, 0, 3.0)]

    @pytest.mark.parametrize("weight", [1.0, 7.0])
    def test_equal_or_higher_weight_rejected(self, path_graph, weight):
        dyn = DynamicPLL(PLLIndex.build(path_graph))
        with pytest.raises(GraphError, match="exists"):
            dyn.insert_edge(0, 1, weight)
        assert dyn.current_graph() == path_graph
        assert dyn.inserted_edges == []

    def test_random_decreases_on_built_index(self):
        g = gnm_random_graph(40, 90, seed=5)
        dyn = DynamicPLL(PLLIndex.build(g))
        rng = random.Random(8)
        edges = [
            (u, v, w)
            for u, nbrs in enumerate(g.adjacency_lists())
            for v, w in nbrs
            if u < v
        ]
        for u, v, w in rng.sample(edges, 10):
            dyn.insert_edge(u, v, w * rng.uniform(0.01, 0.9))
            assert_close(dyn, sources=[u, v, 0])
        assert dyn.current_graph().num_edges == g.num_edges
        assert_close(dyn)


WEIGHTS = st.sampled_from([1e-9, 1e-3, 1.0, 3.5, 1e3, 1e9])


class TestAdversarialWeightsOnMmapIndex:
    """Inserts and weight decreases on an mmap-loaded index, with every
    distance checked against Dijkstra after every step."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_step_matches_dijkstra(self, data):
        n = data.draw(st.integers(2, 9))
        # Two blocks with no edge between them: disconnected components
        # until an insert joins them.
        half = data.draw(st.integers(1, n - 1))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if (a < half) == (b < half)]
        edges = data.draw(st.lists(
            st.tuples(st.sampled_from(pairs), WEIGHTS),
            unique_by=lambda e: e[0],
            max_size=len(pairs),
        )) if pairs else []
        graph = build_graph([(a, b, w) for (a, b), w in edges], n=n)
        with tempfile.TemporaryDirectory() as tmpdir:
            PLLIndex.build(graph).save(tmpdir, format="dir")
            index = PLLIndex.load(tmpdir, graph=graph, mmap=True)
            dyn = DynamicPLL(index)
            steps = data.draw(st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1), WEIGHTS
                ),
                min_size=1,
                max_size=6,
            ))
            for a, b, w in steps:
                current = dyn.current_graph()
                old = edge_weight(current, a, b) if a != b else None
                if a == b or (old is not None and old <= w):
                    with pytest.raises(GraphError):
                        dyn.insert_edge(a, b, w)
                    continue
                dyn.insert_edge(a, b, w)
                assert edge_weight(dyn.current_graph(), a, b) == w
                assert_close(dyn)
