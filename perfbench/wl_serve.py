"""Workload ``serve``: reads only, through the routed, admitted front end.

Weighted R-MAT scale 10 (n=1024); the store has ``shard_rows=16``, so
64 raw shards of 128 KiB, built during set-up.  Requests go through
``ServeFrontend`` -> ``RoutedEngine(ShardRouter(2), cache_shards=24)``
in a closed loop with one client: 48 of 64 shards fit the caches, the
hit ratio sits near 0.9, so p50 reads the cache-hit path and p99 the
shard-load path.  One client never saturates an admission budget, so a
shed or degraded answer is a failure.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from harness import Tracer, median, scipy_apsp, scipy_csr
from reads import Chunk, Trace
from stores import StoreSetup, check_store, store_layers

SCALE = 10
EDGE_FACTOR = 8
SHARD_ROWS = 16
NODES = 2
CACHE_SHARDS = 24
#: requests per chunk: 20 samples lie beyond each chunk's p99
CHUNK = 2000
WARMUP = 4000
#: exact counts are read after this many timed chunks
PREFIX_CHUNKS = 10
#: trace length, in chunks per second of run (the stream wraps after)
CHUNKS_PER_SECOND = 25
#: requests between reshuffles of the popularity onto ids.  Whether
#: the hottest ids fall in the giant component sets the cost of the
#: reference's top-k and row answers; one draw per 20000 requests left
#: that share at 0.74-0.81 over ten seeds and op_over_ref followed it,
#: one per 5000 holds it at 0.78-0.80 at the same hit ratio (0.894)
HOT_SET_REQUESTS = 5000
#: seconds between set-up samples; one set-up takes about 7 s
SETUP_INTERVAL = 5.0


def _ratios(lat: np.ndarray, ref_ns: float):
    mean, p50, p99 = lat.mean(), *np.percentile(lat, [50, 99])
    return {"mean": mean / ref_ns, "p50": p50 / ref_ns, "p99": p99 / ref_ns,
            "mean_us": mean / 1e3, "p50_us": p50 / 1e3, "p99_us": p99 / 1e3,
            "ref_us": ref_ns / 1e3}


def run(seed: int, seconds: float, traced: bool, report, work) -> None:
    from repro.graphs import attach_random_weights, rmat
    from repro.serve import RoutedEngine, ServeFrontend, ShardRouter

    def make_graph():
        return attach_random_weights(rmat(SCALE, EDGE_FACTOR, seed=seed),
                                     seed=seed)

    graph = make_graph()
    n = graph.num_vertices
    matrix = scipy_csr(graph)
    oracle = scipy_apsp(matrix)
    count = WARMUP + CHUNK * max(PREFIX_CHUNKS, int(seconds * CHUNKS_PER_SECOND))
    trace = Trace(n, count, seed, segment=HOT_SET_REQUESTS, skip=WARMUP)
    warm_requests = trace.take(WARMUP)
    warm = Chunk(WARMUP)

    def open_frontend(store):
        engine = RoutedEngine(store, ShardRouter(NODES),
                              cache_shards=CACHE_SHARDS)
        frontend = ServeFrontend(engine)
        warm.serve(warm_requests, frontend.point, frontend.row, frontend.topk)
        return frontend

    def check(store, frontend):
        check_store(store, oracle, report)
        warm.reference(warm_requests, oracle)
        warm.verify(warm_requests, report)

    store_setup = StoreSetup(
        make_graph, matrix, SHARD_ROWS, work, report,
        after=open_frontend, check=check,
    )
    graph, store, frontend, first = store_setup.build()
    setups = store_setup.samples(first, SETUP_INTERVAL)
    engine = frontend.engine
    chunk = Chunk(CHUNK)
    exact = {}
    gc.collect()

    def measure(budget: float):
        rows = []
        end = time.perf_counter() + budget
        while time.perf_counter() < end or len(rows) < PREFIX_CHUNKS:
            requests = trace.take(CHUNK)
            lat = chunk.serve(requests, frontend.point, frontend.row,
                              frontend.topk)
            ref_ns = chunk.reference(requests, oracle)
            chunk.verify(requests, report)
            rows.append(_ratios(lat, ref_ns))
            if not exact and len(rows) == PREFIX_CHUNKS:
                stats = engine.stats
                exact.update({
                    "engine.hit_ratio": engine.hit_rate(),
                    "engine.shard_loads": stats["shard_loads"],
                    "engine.bytes_loaded": stats["bytes_loaded"],
                    "router.failovers": stats["failovers"],
                    "router.budget_waits": stats["budget_waits"],
                    "admission.shed": frontend.counts["shed"],
                    "admission.degraded": frontend.counts["degraded"],
                })
            end += setups.due()
        return {key: median(r[key] for r in rows) for key in rows[0]}

    plain = measure(seconds / 2 if traced else seconds)
    report.e2e["op_over_ref"] = plain["mean"]
    report.e2e["setup_s"] = setups.median()
    store_setup.report_bases()
    report.bases["serve.ref_mean_us"] = plain["ref_us"]
    report.bases["serve.read_mean_us"] = plain["mean_us"]
    if not traced:
        return

    tracer = Tracer()
    for name in ("point", "row", "topk"):
        tracer.wrap(frontend, name, f"admission.{name}")
    for name in ("dist", "dist_from", "top_k"):
        tracer.wrap(engine, name, f"router.{name}")
        for node in engine.engines:
            tracer.wrap(node, name, f"engine.{name}")
    spans = measure(seconds / 2)
    report.overhead(spans["mean"])

    layers = report.layers
    layers.update(exact)
    # latencies from the untraced pass: the spans add their own cost
    for key in ("mean", "p50", "p99"):
        layers[f"serve.read_{key}_over_ref"] = plain[key]
        layers[f"serve.read_{key}_us"] = plain[f"{key}_us"]
    layers["engine.dist_us"] = tracer.mean_us("engine.dist")
    layers["engine.top_k_us"] = tracer.mean_us("engine.top_k")
    layers["engine.dist_from_us"] = tracer.mean_us("engine.dist_from")
    layers["router.dist_us"] = tracer.mean_us("router.dist")
    layers["router.self_us"] = tracer.self_us(
        "router.dist", "router.dist_from", "router.top_k")
    layers["admission.point_us"] = tracer.mean_us("admission.point")
    layers["admission.self_us"] = tracer.self_us(
        "admission.point", "admission.row", "admission.topk")
    store_layers(store, graph, oracle, work, report)
