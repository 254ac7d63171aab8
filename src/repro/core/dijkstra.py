"""Classic (unmodified) Dijkstra SSSP — the reuse-free reference.

:func:`dijkstra_sssp` is used by the repeated-Dijkstra baseline and by
ablations that measure how much the flag shortcut saves.  Binary heap
with lazy deletion; O((n + m) log n).

:func:`sssp_rows` is the row kernel of every flags-off store path: a
batch of independent Dijkstras run by scipy's C implementation.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..exceptions import AlgorithmError, NegativeWeightError
from ..graphs.csr import CSRGraph
from ..obs import metrics as _obs
from ..types import INF, OpCounts

__all__ = ["dijkstra_sssp", "sssp_rows"]


def dijkstra_sssp(
    graph: CSRGraph, source: int, *, out: np.ndarray | None = None
) -> tuple[np.ndarray, OpCounts]:
    """Single-source shortest distances from ``source``.

    Returns ``(dist, counts)`` where ``dist[v]`` is the shortest
    distance (``inf`` if unreachable).
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise AlgorithmError(f"source {source} outside [0, {n})")
    if out is None:
        dist = np.full(n, INF)
    else:
        if out.shape != (n,):
            raise AlgorithmError(f"out buffer must have shape ({n},)")
        dist = out
        dist.fill(INF)
    counts = OpCounts()
    dist[source] = 0.0
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    heap = [(0.0, source)]
    settled = np.zeros(n, dtype=bool)
    while heap:
        d, t = heapq.heappop(heap)
        counts.pops += 1
        if settled[t]:
            continue
        settled[t] = True
        for k in range(indptr[t], indptr[t + 1]):
            v = indices[k]
            counts.edge_relaxations += 1
            nd = d + weights[k]
            if nd < dist[v]:
                dist[v] = nd
                counts.edge_improvements += 1
                heapq.heappush(heap, (nd, int(v)))
    return dist, counts


def sssp_rows(graph: CSRGraph, sources) -> np.ndarray:
    """Shortest distances from each of ``sources``, one row per source.

    Returns a fresh ``(len(sources), n)`` float64 array (``inf`` where
    unreachable), computed by ``scipy.sparse.csgraph.dijkstra`` over the
    graph's own CSR arrays.  Each row is bitwise equal to a flags-off
    :func:`~repro.core.modified_dijkstra.modified_dijkstra_sssp` row
    under either queue: every exact SSSP algorithm that adds arc
    weights left to right settles on the same float fixpoint, the
    minimum over paths of the running sum.  The arrays are handed over
    as they are, so duplicate arcs stay parallel arcs (the lighter one
    wins) instead of being summed, and explicit zero weights stay arcs.
    The row parity assumes duplicate-free rows, the precondition of
    :func:`~repro.core.kernels.relax_edges`: on a duplicate arc the
    interpreted sweep keeps the *last* copy, so the two agree only
    where the last copy is lightest.  ``CSRGraph`` does not enforce it.

    Counts ``sssp.rows`` (one per source) when metrics are on.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = graph.num_vertices
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise AlgorithmError(f"sources outside [0, {n})")
    if graph.has_negative_weights:
        raise NegativeWeightError(
            f"graph {graph.name or 'anonymous'!r} has negative arc "
            "weights; Dijkstra rows need non-negative weights"
        )
    if not sources.size:
        return np.empty((0, n), dtype=np.float64)
    _obs.counter_add("sssp.rows", int(sources.size))
    matrix = csr_matrix(
        (graph.weights, graph.indices, graph.indptr), shape=(n, n)
    )
    return dijkstra(matrix, directed=True, indices=sources)
