"""Classic Dijkstra reference SSSP, and the C row kernel ``sssp_rows``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dijkstra_sssp, modified_dijkstra_sssp, new_state
from repro.core.dijkstra import sssp_rows
from repro.core.runner import solve_apsp_rows, solve_apsp_shards
from repro.exceptions import AlgorithmError, NegativeWeightError
from repro.graphs import CSRGraph
from repro.obs.metrics import MetricsRegistry, use_registry


class TestDijkstra:
    def test_toy_distances(self, toy_graph):
        dist, _ = dijkstra_sssp(toy_graph, 0)
        assert dist.tolist() == [0.0, 1.0, 3.0, 4.0, 6.0]

    def test_matches_networkx(self, small_weighted):
        import networkx as nx

        from repro.graphs import to_networkx

        ref = nx.single_source_dijkstra_path_length(
            to_networkx(small_weighted), 0
        )
        dist, _ = dijkstra_sssp(small_weighted, 0)
        for v, d in ref.items():
            assert dist[v] == pytest.approx(d)

    def test_unreachable_inf(self, directed_weighted):
        dist, _ = dijkstra_sssp(directed_weighted, 0)
        # directed sparse ER graph: some pairs unreachable
        assert np.isinf(dist).any() or np.isfinite(dist).all()

    def test_out_buffer(self, toy_graph):
        buf = np.empty(5)
        dist, _ = dijkstra_sssp(toy_graph, 0, out=buf)
        assert dist is buf

    def test_bad_out_buffer(self, toy_graph):
        with pytest.raises(AlgorithmError):
            dijkstra_sssp(toy_graph, 0, out=np.empty(3))

    def test_bad_source(self, toy_graph):
        with pytest.raises(AlgorithmError):
            dijkstra_sssp(toy_graph, -1)

    def test_counts(self, toy_graph):
        _, counts = dijkstra_sssp(toy_graph, 0)
        assert counts.pops >= 5
        assert counts.edge_relaxations >= 5


def _flagless_rows(graph, sources, queue):
    """Rows of ``sources`` from the interpreted flags-off sweep."""
    state = new_state(graph.num_vertices)
    for s in sources:
        modified_dijkstra_sssp(
            graph, int(s), state, queue=queue, use_flags=False
        )
    return state.dist[list(sources)]


def _assert_bitwise_parity(graph, sources=None):
    if sources is None:
        sources = range(graph.num_vertices)
    sources = list(sources)
    got = sssp_rows(graph, sources)
    assert got.shape == (len(sources), graph.num_vertices)
    assert got.dtype == np.float64
    for queue in ("fifo", "heap"):
        want = _flagless_rows(graph, sources, queue)
        assert got.tobytes() == want.tobytes(), queue
    return got


class TestSsspRowsParityTraps:
    """``sssp_rows`` must equal the flags-off sweep bit for bit on the
    inputs where a sparse-matrix hand-off could silently differ."""

    def test_duplicate_arcs_and_unsorted_indices(self):
        # row 0 lists 2 before 1 and holds arc 0->1 twice (5.0, then
        # 2.0): summing duplicates would make it 7.0, min makes it 2.0.
        # The interpreted sweep scatters one vertex's arcs at once and
        # keeps the last write, so the lighter copy comes last here
        graph = CSRGraph(
            np.array([0, 4, 6, 7, 7]),
            np.array([2, 1, 3, 1, 2, 2, 3]),
            np.array([10.0, 5.0, 9.0, 2.0, 1.0, 0.5, 0.25]),
            directed=True,
        )
        got = _assert_bitwise_parity(graph)
        assert got[0].tolist() == [0.0, 2.0, 2.5, 2.75]

    def test_duplicate_arcs_take_the_lighter_copy_in_any_order(self):
        # lighter copy first: the row kernel still takes the minimum,
        # as the arc-by-arc heap Dijkstra does
        graph = CSRGraph(
            np.array([0, 2, 2]),
            np.array([1, 1]),
            np.array([0.5, 1.0]),
            directed=True,
        )
        got = sssp_rows(graph, [0, 1])
        for s in (0, 1):
            assert got[s].tobytes() == dijkstra_sssp(graph, s)[0].tobytes()
        assert got[0, 1] == 0.5

    def test_explicit_zero_weights(self):
        # a zero-weight 2-cycle (1 <-> 2) and a zero arc into a leaf
        graph = CSRGraph(
            np.array([0, 1, 3, 4, 4]),
            np.array([1, 2, 3, 1]),
            np.array([0.0, 0.0, 0.0, 0.0]),
            directed=True,
            allow_negative=True,
        )
        got = _assert_bitwise_parity(graph)
        assert got[0].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_self_loops(self):
        graph = CSRGraph(
            np.array([0, 2, 4, 5]),
            np.array([0, 1, 1, 2, 2]),
            np.array([3.0, 1.5, 0.5, 2.0, 7.0]),
            directed=True,
        )
        got = _assert_bitwise_parity(graph)
        assert got[0].tolist() == [0.0, 1.5, 3.5]

    def test_isolated_vertices_give_all_inf_rows(self, small_weighted):
        n = small_weighted.num_vertices
        # append three vertices with no arcs at all
        graph = CSRGraph(
            np.concatenate([small_weighted.indptr, [small_weighted.indptr[-1]] * 3]),
            small_weighted.indices,
            small_weighted.weights,
        )
        got = _assert_bitwise_parity(graph, [0, n, n + 2])
        assert np.isinf(got[0, n:]).all()
        for i, v in ((1, n), (2, n + 2)):
            expect = np.full(n + 3, np.inf)
            expect[v] = 0.0
            assert got[i].tobytes() == expect.tobytes()

    def test_empty_sources(self, small_weighted):
        registry = MetricsRegistry()
        with use_registry(registry):
            got = sssp_rows(small_weighted, [])
        assert got.shape == (0, small_weighted.num_vertices)
        assert "sssp.rows" not in registry.counters()

    def test_counts_rows(self, small_weighted):
        registry = MetricsRegistry()
        with use_registry(registry):
            sssp_rows(small_weighted, [3, 1, 4])
        assert registry.counters()["sssp.rows"] == 3

    def test_bad_sources(self, toy_graph):
        with pytest.raises(AlgorithmError):
            sssp_rows(toy_graph, [0, 5])
        with pytest.raises(AlgorithmError):
            sssp_rows(toy_graph, [-1])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 12),
        data=st.data(),
    )
    def test_random_weighted_graphs(self, n, data):
        arcs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.floats(
                        1e-3, 1e3, allow_nan=False, allow_infinity=False
                    ),
                ),
                max_size=4 * n,
            )
        )
        # build the CSR by hand: duplicates, self-loops and unsorted
        # rows all survive.  Rows run heaviest arc first, so the last
        # copy of a duplicate (the one the sweep keeps) is the lightest
        arcs.sort(key=lambda arc: (arc[0], -arc[2]))
        src = np.array([a[0] for a in arcs], dtype=np.int64)
        graph = CSRGraph(
            np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))]),
            np.array([a[1] for a in arcs], dtype=np.int64),
            np.array([a[2] for a in arcs], dtype=np.float64),
            directed=True,
        )
        _assert_bitwise_parity(graph)


class TestNegativeWeightsRefused:
    @pytest.fixture()
    def negative_graph(self):
        return CSRGraph(
            np.array([0, 1, 2, 2]),
            np.array([1, 2]),
            np.array([2.0, -1.0]),
            directed=True,
            allow_negative=True,
        )

    def test_sssp_rows_refuses(self, negative_graph):
        with pytest.raises(NegativeWeightError):
            sssp_rows(negative_graph, [0])

    def test_refused_before_the_row_kernel(self, negative_graph, monkeypatch):
        import repro.core.dijkstra as dijkstra_mod

        def unreachable(*_):
            raise AssertionError("sssp_rows reached on a negative graph")

        monkeypatch.setattr(dijkstra_mod, "sssp_rows", unreachable)
        with pytest.raises(NegativeWeightError):
            next(solve_apsp_shards(negative_graph, shard_rows=2,
                                   use_flags=False))
        with pytest.raises(NegativeWeightError):
            solve_apsp_rows(negative_graph, [0])


class TestSolveApspRows:
    @pytest.mark.parametrize("algorithm", ["parapsp", "delta-stepping",
                                           "johnson"])
    def test_rows_equal_their_shard_rows(self, small_weighted, algorithm):
        sources = [57, 3, 99, 3]
        shards = np.vstack([
            rows.copy()
            for _, rows in solve_apsp_shards(
                small_weighted, shard_rows=16, algorithm=algorithm,
                use_flags=False,
            )
        ])
        got = solve_apsp_rows(small_weighted, sources, algorithm=algorithm)
        assert got.tobytes() == shards[sources].tobytes()
