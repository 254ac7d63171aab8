"""Edge-list IO in the SNAP text format the paper's datasets ship in.

Format: one ``u v`` (or ``u v w``) pair per line, ``#``-prefixed comment
lines, arbitrary whitespace separators.  Vertex ids in SNAP files are
sparse; :func:`read_edgelist` compacts them to ``0..n-1`` by default and
returns the id mapping so results can be translated back.
"""

from __future__ import annotations

import io
import os
from typing import Dict, Optional, TextIO, Tuple, Union

import numpy as np

from ..exceptions import GraphFormatError
from ..types import VERTEX_DTYPE, WEIGHT_DTYPE
from .build import from_arc_arrays
from .csr import CSRGraph

__all__ = [
    "read_edgelist",
    "write_edgelist",
    "parse_edgelist_text",
    "save_graph_npz",
    "load_graph_npz",
]

PathOrFile = Union[str, os.PathLike, TextIO]


def _open_for_read(source: PathOrFile) -> Tuple[TextIO, bool]:
    if hasattr(source, "read"):
        return source, False  # type: ignore[return-value]
    return open(os.fspath(source), "r", encoding="utf-8"), True


def parse_edgelist_text(
    text: str,
    *,
    directed: bool = False,
    compact_ids: bool = True,
    name: str = "",
) -> Tuple[CSRGraph, Dict[int, int]]:
    """Parse edge-list text; see :func:`read_edgelist`."""
    return read_edgelist(
        io.StringIO(text),
        directed=directed,
        compact_ids=compact_ids,
        name=name,
    )


def read_edgelist(
    source: PathOrFile,
    *,
    directed: bool = False,
    compact_ids: bool = True,
    name: str = "",
) -> Tuple[CSRGraph, Dict[int, int]]:
    """Read a SNAP-style edge list.

    Returns
    -------
    (graph, id_map):
        ``id_map`` maps original file ids to compact graph ids.  When
        ``compact_ids=False`` it is the identity over the ids seen, and
        vertex count is ``max id + 1``.
    """
    stream, close = _open_for_read(source)
    us, vs, ws = [], [], []
    has_weights: Optional[bool] = None
    try:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("%"):
                continue  # SNAP uses '#', KONECT uses '%'
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"line {lineno}: expected 'u v' or 'u v w', got {line!r}"
                )
            if has_weights is None:
                has_weights = len(parts) == 3
            elif has_weights != (len(parts) == 3):
                raise GraphFormatError(
                    f"line {lineno}: mixed weighted/unweighted rows"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if has_weights else 1.0
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: {exc}") from exc
            if u == v:
                continue  # SNAP datasets treat self loops as noise
            us.append(u)
            vs.append(v)
            ws.append(w)
    finally:
        if close:
            stream.close()

    src = np.asarray(us, dtype=VERTEX_DTYPE)
    dst = np.asarray(vs, dtype=VERTEX_DTYPE)
    wts = np.asarray(ws, dtype=WEIGHT_DTYPE)
    if compact_ids:
        uniq = np.unique(np.concatenate([src, dst])) if src.size else np.empty(
            0, dtype=VERTEX_DTYPE
        )
        id_map = {int(orig): i for i, orig in enumerate(uniq)}
        if src.size:
            src = np.searchsorted(uniq, src).astype(VERTEX_DTYPE)
            dst = np.searchsorted(uniq, dst).astype(VERTEX_DTYPE)
        n = uniq.size
    else:
        n = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
        seen = set(map(int, src)) | set(map(int, dst))
        id_map = {v: v for v in seen}
    graph = from_arc_arrays(
        src, dst, wts, num_vertices=n, directed=directed, name=name
    )
    return graph, id_map


def write_edgelist(
    graph: CSRGraph,
    target: PathOrFile,
    *,
    write_weights: bool = False,
    header: bool = True,
) -> None:
    """Write a graph back out in SNAP text format.

    Undirected graphs are written with one line per edge (``u < v``) so
    a read/write round trip reproduces the same CSR graph.
    """
    if hasattr(target, "write"):
        stream, close = target, False  # type: ignore[assignment]
    else:
        stream, close = open(os.fspath(target), "w", encoding="utf-8"), True
    try:
        if header:
            kind = "directed" if graph.directed else "undirected"
            stream.write(
                f"# {graph.name or 'graph'} ({kind}): "
                f"{graph.num_vertices} vertices, {graph.num_edges} edges\n"
            )
        for u, v, w in graph.iter_arcs():
            if not graph.directed and u > v:
                continue
            if write_weights:
                # .17g round-trips any float64 exactly
                stream.write(f"{u}\t{v}\t{w:.17g}\n")
            else:
                stream.write(f"{u}\t{v}\n")
    finally:
        if close:
            stream.close()


def save_graph_npz(graph: CSRGraph, target: Union[str, os.PathLike]) -> None:
    """Save a graph as a compressed ``.npz`` (binary, loads in O(m)).

    The text edge-list format is for interchange with SNAP tooling;
    this is the fast path for checkpointing generated stand-ins.
    """
    np.savez_compressed(
        os.fspath(target),
        indptr=graph.indptr,
        indices=graph.indices,
        weights=graph.weights,
        directed=np.asarray([graph.directed]),
        name=np.asarray([graph.name]),
    )


def load_graph_npz(source: Union[str, os.PathLike]) -> CSRGraph:
    """Load a graph saved by :func:`save_graph_npz`.

    Raises :class:`GraphFormatError` on a row that holds the same arc
    twice: the sweep kernels require duplicate-free rows, and the
    builders in :mod:`repro.graphs.build` are the only place that dedups.
    """
    with np.load(os.fspath(source), allow_pickle=False) as data:
        try:
            graph = CSRGraph(
                data["indptr"],
                data["indices"],
                data["weights"],
                directed=bool(data["directed"][0]),
                name=str(data["name"][0]),
            )
        except KeyError as exc:
            raise GraphFormatError(
                f"{source}: not a repro graph archive (missing {exc})"
            ) from exc
    rows = np.repeat(
        np.arange(graph.num_vertices, dtype=VERTEX_DTYPE),
        np.diff(graph.indptr),
    )
    order = np.lexsort((graph.indices, rows))
    rows, cols = rows[order], graph.indices[order]
    dup = np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1]))
    if dup.size:
        raise GraphFormatError(
            f"{source}: duplicate arc {rows[dup[0]]}->{cols[dup[0]]} "
            f"({dup.size} duplicate(s)); rows must be duplicate-free"
        )
    return graph
