"""Workload ``store-update``: the write path, with reads beside it.

Weighted R-MAT scale 9 (n=512); ``solve_to_store(shard_rows=32)``
gives 16 raw shards, built during set-up.  The timed loop applies
single-edge batches that cycle through reweight x1.5, reweight x0.67,
delete, and insert with weight U(0.5, 10).  After each batch it
refreshes a ``QueryEngine`` and serves a short burst of reads.  This
runs ``core``'s flags-off shard path, encoding, store writes, the
update prescreen, copy-on-write and the swap, and never the flagged
sweep.

A batch either changes no distance (about 0.03 s: the landmark
prescreen and endpoint check certify it) or re-solves shards (about
2 s when it touches all 16).  A run of a few dozen batches drawn at
random would mix the two in a proportion that swings from seed to
seed.  So the seed draws the edges, but each slot of the cycle asks
for one class: alternately a batch that changes no row and a batch
that changes a row in every shard.  Every run has the same mix, and
``op_over_ref`` measures the cost of each path, not the luck of the
draw.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from harness import Tracer, median, scipy_apsp, scipy_csr, sweep_ref, timed
from reads import Chunk, Trace
from stores import StoreSetup, check_store, store_layers

SCALE = 9
EDGE_FACTOR = 8
SHARD_ROWS = 32
CACHE_SHARDS = 16
#: reads after each refresh
BURST = 256
#: exact counts are read after this many batches (two of each class)
PREFIX_SLOTS = 4
#: trace length in bursts; the stream wraps after
TRACE_BURSTS = 400
#: candidate edges tried per slot before giving up on the seed
MAX_TRIES = 2000
INSERT_WEIGHTS = (0.5, 10.0)
#: the reference sweeps one source in REF_STRIDE around a dirty batch
REF_STRIDE = 8
#: seconds between set-up samples; one set-up takes about 1.5 s
SETUP_INTERVAL = 4.0


def _wants_dirty(slot: int) -> bool:
    """Clean and dirty alternate; over 8 slots each kind gets both."""
    return (slot + slot // 4) % 2 == 1


def _with_edge(matrix, u: int, v: int, weight):
    """A copy of the symmetric matrix with edge (u, v) set or removed."""
    lil = matrix.tolil(copy=True)
    lil[u, v] = lil[v, u] = 0.0 if weight is None else weight
    out = lil.tocsr()
    out.eliminate_zeros()
    return out


class UpdateStream:
    """Seeded single-edge batches, each of the class its slot asks for.

    Keeps its own copy of the graph as a scipy matrix and the oracle of
    the current generation; :meth:`next` yields the batch together with
    the post-batch matrix and oracle.
    """

    def __init__(self, matrix, oracle, seed: int, shard_rows: int) -> None:
        self.rng = np.random.default_rng([seed, 2])
        self.matrix = matrix
        self.oracle = oracle
        self.shard_rows = shard_rows
        self.num_shards = -(-matrix.shape[0] // shard_rows)
        self.slot = 0

    def _candidate(self, kind: int, upper):
        rng = self.rng
        if kind < 3:
            j = int(rng.integers(len(upper.data)))
            u, v, w = int(upper.row[j]), int(upper.col[j]), upper.data[j]
            return u, v, (float(w * 1.5), float(w * 0.67), None)[kind]
        n = self.matrix.shape[0]
        while True:
            u, v = (int(x) for x in rng.integers(n, size=2))
            if u != v and self.matrix[u, v] == 0:
                return u, v, float(rng.uniform(*INSERT_WEIGHTS))

    def next(self):
        """``(u, v, weight, matrix, oracle, rows_changed, scipy_s)``;
        ``weight`` None deletes the edge, ``scipy_s`` is how long scipy
        took to solve the post-batch graph."""
        import scipy.sparse as sp
        from scipy.sparse.csgraph import dijkstra

        kind, dirty = self.slot % 4, _wants_dirty(self.slot)
        upper = sp.triu(self.matrix, k=1).tocoo()
        for _ in range(MAX_TRIES):
            u, v, weight = self._candidate(kind, upper)
            matrix = _with_edge(self.matrix, u, v, weight)
            # row s changes iff d(s, u) or d(s, v) does (undirected),
            # which is also the rule the update path uses for dirty rows
            ends = dijkstra(matrix, directed=True, indices=[u, v])
            rows = (self.oracle[u] != ends[0]) | (self.oracle[v] != ends[1])
            shards = len(np.unique(np.flatnonzero(rows) // self.shard_rows))
            if shards == (self.num_shards if dirty else 0):
                break
        else:
            raise RuntimeError(
                f"no {'dirty' if dirty else 'clean'} edge of kind {kind} "
                f"in {MAX_TRIES} tries"
            )
        oracle, t_scipy = timed(scipy_apsp, matrix)
        changed = int(np.any(oracle != self.oracle, axis=1).sum())
        self.matrix, self.oracle = matrix, oracle
        self.slot += 1
        return u, v, weight, matrix, oracle, changed, t_scipy


def run(seed: int, seconds: float, traced: bool, report, work) -> None:
    from repro.graphs import attach_random_weights, rmat
    from repro.serve import (
        EdgeUpdate,
        QueryEngine,
        apply_edge_updates,
        apply_updates_to_graph,
    )

    def make_graph():
        return attach_random_weights(rmat(SCALE, EDGE_FACTOR, seed=seed),
                                     seed=seed)

    graph = make_graph()
    matrix = scipy_csr(graph)
    oracle = scipy_apsp(matrix)
    trace = Trace(graph.num_vertices, BURST * TRACE_BURSTS, seed,
                  segment=BURST * TRACE_BURSTS)
    stream = UpdateStream(matrix, oracle, seed, SHARD_ROWS)
    # vertices in degree order; a sample of every REF_STRIDE-th keeps
    # the graph's share of isolated and hub vertices, so its cost
    # follows the whole graph's
    by_degree = np.argsort(np.diff(matrix.indptr), kind="stable")

    store_setup = StoreSetup(
        make_graph, matrix, SHARD_ROWS, work, report,
        check=lambda store, _: check_store(store, oracle, report),
    )
    graph, store, _, first = store_setup.build()
    setups = store_setup.samples(first, SETUP_INTERVAL)
    engine = QueryEngine(store, cache_shards=CACHE_SHARDS)
    burst = Chunk(BURST)
    state = {"graph": graph, "store": store, "oracle": oracle}
    exact = {}
    gc.collect()

    def one_batch(slot: int) -> dict:
        u, v, weight, new_matrix, new_oracle, changed, t_scipy = stream.next()
        report.refs.append(t_scipy)
        batch = [EdgeUpdate(u, v, weight)]
        dirty = _wants_dirty(slot)
        # the two samples around a batch differ, and four pairs in a
        # row cover every vertex once
        offset = slot // 2 % (REF_STRIDE // 2)
        if dirty:
            _, ref_before = timed(sweep_ref, new_matrix,
                                  by_degree[offset::REF_STRIDE])
        result, t_apply = timed(report.guard, apply_edge_updates,
                                state["store"], state["graph"], batch)
        if dirty:
            _, ref_after = timed(sweep_ref, new_matrix,
                                 by_degree[offset + REF_STRIDE // 2::REF_STRIDE])
        report.check(result is not None, "edge batch raised")
        if result is None:
            raise RuntimeError("the store no longer follows the stream")
        state["store"] = result.store
        state["graph"] = apply_updates_to_graph(state["graph"], batch)
        state["oracle"] = new_oracle
        check_store(result.store, new_oracle, report)

        before = dict(engine.stats)
        _, t_refresh = timed(engine.refresh)
        requests = trace.take(BURST)
        lat = burst.serve(requests, engine.dist, engine.dist_from,
                          engine.top_k)
        ref_ns = burst.reference(requests, new_oracle)
        burst.verify(requests, report)
        return {
            "apply": t_apply, "scipy": t_scipy, "refresh": t_refresh,
            # the reference APSP time, estimated from the sampled rows
            "ref": ((ref_before + ref_after) / 2 * REF_STRIDE
                    if dirty else None),
            "lat": lat, "ref_ns": ref_ns, "changed": changed,
            "rows": result.rows_resolved,
            "dirty": len(result.dirty_shards),
            "certified": result.certified_clean_shards,
            "hits": engine.stats["hits"] - before["hits"],
            "misses": engine.stats["misses"] - before["misses"],
            "loads": engine.stats["shard_loads"] - before["shard_loads"],
            "bytes": engine.stats["bytes_loaded"] - before["bytes_loaded"],
        }

    slots = []

    def measure(budget: float):
        done = []
        end = time.perf_counter() + budget
        # stop only after a clean/dirty pair, so the mix stays fixed
        while (time.perf_counter() < end or len(slots) < PREFIX_SLOTS
               or len(done) % 2):
            done.append(one_batch(len(slots)))
            slots.append(done[-1])
            if not exact and len(slots) == PREFIX_SLOTS:
                exact.update(_exact_counts(slots, store.num_shards))
            if len(done) % 2 == 0:
                end += setups.due()
        return done

    def op_over_ref(done) -> float:
        """Median over clean/dirty pairs of the pair's batch time over
        two reference APSPs: a ratio of sums on a fixed mix."""
        return median(
            (a["apply"] + b["apply"]) / (2 * (a["ref"] or b["ref"]))
            for a, b in zip(done[0::2], done[1::2])
        )

    plain = measure(seconds / 2 if traced else seconds)
    report.e2e["op_over_ref"] = op_over_ref(plain)
    report.e2e["setup_s"] = setups.median()
    store_setup.report_bases()
    report.bases["update.batch_s"] = float(np.mean([b["apply"] for b in plain]))
    # the same batches against scipy's C Dijkstra
    report.bases["update.over_scipy"] = (
        sum(b["apply"] for b in plain) / sum(b["scipy"] for b in plain))
    report.bases["update.sweep_ref_s"] = median(
        b["ref"] for b in plain if b["ref"] is not None)
    if not traced:
        return

    tracer = Tracer()
    for name in ("dist", "dist_from", "top_k"):
        tracer.wrap(engine, name, f"engine.{name}")
    spans = measure(seconds / 2)
    report.overhead(op_over_ref(spans))

    layers = report.layers
    layers.update(exact)
    layers["update.refresh_us"] = median(b["refresh"] for b in spans) * 1e6
    # latencies from the untraced pass: the spans add their own cost
    lat = np.concatenate([b["lat"] for b in plain])
    ref_ns = float(np.mean([b["ref_ns"] for b in plain]))
    for key, value in (("mean", lat.mean()),
                       ("p50", np.percentile(lat, 50)),
                       ("p99", np.percentile(lat, 99))):
        layers[f"serve.read_{key}_over_ref"] = value / ref_ns
        layers[f"serve.read_{key}_us"] = value / 1e3
    layers["serve.ref_mean_us"] = ref_ns / 1e3
    layers["engine.dist_us"] = tracer.mean_us("engine.dist")
    layers["engine.top_k_us"] = tracer.mean_us("engine.top_k")
    layers["engine.dist_from_us"] = tracer.mean_us("engine.dist_from")
    store_layers(state["store"], state["graph"], state["oracle"], work,
                 report)


def _exact_counts(slots, num_shards: int) -> dict:
    """Counts over the first slots; they repeat exactly for a seed."""
    total = {key: sum(b[key] for b in slots)
             for key in ("rows", "dirty", "certified", "changed", "hits",
                         "misses", "loads", "bytes")}
    shards = len(slots) * num_shards
    fetched = total["hits"] + total["misses"]
    return {
        "update.rows_resolved": total["rows"],
        "update.dirty_shard_frac": total["dirty"] / shards,
        "update.clean_certified_frac": total["certified"] / shards,
        "update.rows_changed": total["changed"],
        "update.useful_row_frac": (total["changed"] / total["rows"]
                                   if total["rows"] else 0.0),
        "update.post_swap_hit_ratio": total["hits"] / fetched,
        "engine.hit_ratio": total["hits"] / fetched,
        "engine.shard_loads": total["loads"],
        "engine.bytes_loaded": total["bytes"],
    }
