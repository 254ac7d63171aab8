"""Deterministic query-serving bench → ``BENCH_serve*.json``.

CI's ``serve-smoke`` matrix runs this module once per codec, then
gates with :mod:`repro.obs.regress` against the committed per-codec
baseline (``benchmarks/baselines/BENCH_serve.json`` for ``raw``,
``BENCH_serve_<codec>.json`` otherwise).  One run:

1. builds a :class:`~repro.serve.store.DistStore` from the same seeded
   R-MAT graph the perf smoke uses, streaming shard-by-shard (the n×n
   matrix never materialises), fingerprints the store bytes — the
   build is flags-off and serial and codecs encode deterministically,
   so the crc is machine-independent and gates exactly — and measures
   the **observed** decode error of every shard against a fresh exact
   solve, requiring it within the manifest's certified bound;
2. replays the **pinned Zipfian trace** through the virtual-time model
   with the store's *real* per-shard byte sizes — optimised (LRU cache
   + coalescing + micro-batching), naive (every query loads its
   shard), a raw-f8-cost reference (what the same optimised replay
   would cost without compression), and an **ALT replay** where point
   queries whose certified landmark gap is within ε short-circuit with
   no shard load — and *requires* optimised to beat naive on shard
   loads and bytes moved (and on latency for ``raw``, where loads are
   expensive enough to dominate), compressed codecs to beat the
   raw-cost reference on latency, and the ALT replay to load strictly
   fewer shards;
3. replays a saturating burst (same trace at many times the rate under
   a tight admission budget) and requires graceful degradation:
   error-barred approximate answers, zero unbounded queueing;
4. injects one :class:`~repro.faults.StoreCorruptionSpec` into the
   encoded shard bytes, requires detection
   (:class:`~repro.exceptions.StoreCorruptionError`) and byte-exact
   repair through the codec;
5. pushes the trace through the *real* threaded front end once as a
   smoke of the locking paths (wall numbers recorded, never gated),
   cross-checking every exact answer against ground truth within the
   certified error bound.

The optimised replay runs with request-scoped telemetry attached
(:mod:`repro.serve.telemetry`): its virtual-time event stream feeds the
``serve_latency_hist`` section (a
:class:`~repro.obs.hist.LatencyHistogram` whose quantiles the bench
*asserts* are within the certified relative error of the exact
percentiles) and the ``serve_slo`` section (error-budget burn rates for
:data:`SMOKE_SLO`, gated upward-only).  ``--events`` writes the sampled
JSONL event log — byte-identical across runs of the seeded trace, which
CI checks with a second run and ``cmp`` — and ``--request-trace``
exports the slowest recorded request (the histogram's top exemplar) as
a Perfetto-loadable trace.  The threaded replay is scored against the
same SLO through the identical code path; its numbers land under
``wall.*`` and are never gated.

``--update`` runs the **update-smoke** instead
(:func:`run_update_smoke`): it builds the store from the *weighted*
variant of the same graph, applies the pinned edge-update batch
(:data:`SMOKE_UPDATE_BATCH`: one insert, one reweight, one delete)
through :func:`~repro.serve.update.apply_edge_updates`, and asserts
the headline invariants of incremental serving — the updated store is
**byte-identical** to a from-scratch build of the mutated graph, the
deterministic row-unit cost is below :data:`UPDATE_COST_GATE` of a
full rebuild, the landmark prescreen certifies shards clean, a
:class:`~repro.serve.engine.QueryEngine` holding the old generation
keeps answering from it until :meth:`refresh` adopts the new one, and
a corruption drill across an *in-flight* update aborts with the live
generation intact.  The ``update`` artifact section is gated in CI
against ``benchmarks/baselines/BENCH_update.json`` (every field exact).

Regenerate a baseline after an intentional serving change::

    PYTHONPATH=src python -m repro.serve.bench \
        --codec u16q --out benchmarks/baselines/BENCH_serve_u16q.json
    PYTHONPATH=src python -m repro.serve.bench \
        --update --out benchmarks/baselines/BENCH_update.json

``--dist`` runs the **dist-smoke** instead (:func:`run_dist_smoke`):
the multi-node leg of the bench on a 4-node virtual cluster.  Build
side, :func:`~repro.dist.solve_apsp_cluster` must produce distances
bitwise-identical to the single-machine solve both fault-free and
under the pinned node-granularity :class:`~repro.faults.FaultPlan`
(one rank killed mid-build, one straggling); serve side, a
:class:`~repro.serve.router.RoutedEngine` over a consistent-hash
:class:`~repro.serve.router.ShardRouter` must answer byte-identically
to a single-node :class:`~repro.serve.engine.QueryEngine` — including
with a failed node, replication ≥ 2 — and the hot-shard-skewed trace
(:data:`DIST_TRAFFIC`) replayed through the router must see its p99
*improve* after :meth:`~repro.serve.router.ShardRouter.rebalance`
moves the hot shards off the overloaded node.  The ``dist`` artifact
section is gated in CI against
``benchmarks/baselines/BENCH_dist.json`` by the rules in
:data:`repro.obs.regress.SECTIONS`.

``--curve accuracy_latency.json`` instead sweeps every codec and
writes the accuracy-vs-latency curve artifact
(``repro.serve.curve/1``) that CI uploads.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dist import CLUSTER_FAST, solve_apsp_cluster
from ..exceptions import BenchmarkError, StoreCorruptionError
from ..faults import FaultPlan, FaultSpec, StoreCorruptionSpec
from ..graphs import attach_random_weights
from ..graphs.rmat import rmat
from ..obs.artifact import build_artifact, write_artifact
from ..obs.metrics import MetricsRegistry, use_registry
from ..trace import to_chrome, validate_chrome, write_chrome
from .admission import AdmissionPolicy, ServeFrontend
from .codecs import codec_names
from .engine import QueryEngine
from .replay import ServeCostModel, replay_threaded, replay_virtual
from .slo import SLOSpec, evaluate_slo
from .router import RoutedEngine, ShardRouter
from .store import DistStore, solve_to_store
from .telemetry import JsonlSink, TelemetryCollector, export_request_trace
from .traffic import TrafficSpec, generate_trace
from .update import (
    apply_edge_updates,
    apply_updates_to_graph,
    parse_edge_updates,
)

__all__ = [
    "run_serve_smoke",
    "run_update_smoke",
    "run_dist_smoke",
    "run_codec_curve",
    "main",
]

#: workload identity — bump when any knob below changes so a stale
#: baseline fails on params instead of on mysterious counters
#: (rev 2: codec-aware replay costs, ALT ε short-circuiting;
#:  rev 3: opt percentiles read from the certified latency histogram,
#:  serve_latency_hist + serve_slo sections)
WORKLOAD_REV = 3
DEFAULT_SCALE = 7
DEFAULT_EDGE_FACTOR = 8
DEFAULT_SEED = 5
DEFAULT_SHARD_ROWS = 16
DEFAULT_CACHE_SHARDS = 3
DEFAULT_LANDMARKS = 8
DEFAULT_SERVERS = 2
#: short-circuit gap: 0.0 = answer from ALT bounds only when they
#: coincide, i.e. the short-circuit is *exact*
DEFAULT_EPSILON = 0.0

#: the pinned trace CI replays (seeded ⇒ identical on every host)
SMOKE_TRAFFIC = TrafficSpec(
    num_requests=512, rate=2000.0, zipf_s=1.1, seed=13,
    row_frac=0.02, topk_frac=0.05, topk_k=10,
)

#: the saturating burst: same popularity law, 20× the rate, replayed
#: under a tight point budget — must degrade gracefully, not queue
SATURATION_RATE = 40000.0
SATURATION_POLICY = AdmissionPolicy(max_point=8, max_row=2, max_topk=2)

#: the corruption drill: damage shard 1, expect detection + exact repair
SMOKE_CORRUPTION = StoreCorruptionSpec(shard=1, nbytes=8, seed=3)

#: the latency objective the smoke scores (gated upward-only on burn):
#: 90% of point queries inside 5 ms of virtual time, 50 ms windows —
#: pinned where the raw-codec replay genuinely burns budget (≈2×), so
#: both regressions (more burn) and codec improvements (less) register
SMOKE_SLO = SLOSpec(name="point", threshold=0.005, objective=0.9,
                    window=0.05)

#: event-ring capacity for the smoke's collectors — far above the
#: ~6 events/request the 512-request trace emits, so the ring never
#: evicts and ``--request-trace`` can export any exemplar
TELEMETRY_CAPACITY = 32768

#: the update-smoke runs on the *weighted* variant of the bench graph
#: (continuous weights keep the ALT certificates' strict inequalities
#: generic — no unit-weight ties), seeded so every host sees the same
#: weights
UPDATE_WEIGHT_SEED = 7

#: the pinned edge-update batch: one insert ((32, 35) is a non-edge
#: whose new weight undercuts the old d(32, 35), dirtying two rows in
#: shard 2 only), one upward reweight of the heavy (16, 27) edge and
#: one delete of the heaviest hub edge (64, 119) — both provably on no
#: shortest path, so the landmark prescreen certifies every other
#: shard clean without touching the solver
SMOKE_UPDATE_BATCH = "set=32,35,4.681;set=16,27,9.9;del=64,119"

#: the in-flight drill batch (applied on top of the first batch, then
#: aborted): decreasing (23, 55) well below its old weight guarantees
#: dirty shards, i.e. pending copy-on-write files to damage
DRILL_UPDATE_BATCH = "set=23,55,2.5"

#: hard ceiling on the update's deterministic row-unit cost relative
#: to a full rebuild — the point of incremental updates
UPDATE_COST_GATE = 0.5

#: the dist-smoke's virtual serving cluster / hash-ring geometry:
#: 4 nodes, every shard on 2 of them, so one node can die with exact
#: answers still served
DIST_NODES = 4
DIST_REPLICATION = 2
DIST_VNODES = 64
DIST_HASH_SEED = 0
DIST_NODE_BUDGET = 32
DIST_SERVERS_PER_NODE = 2
DIST_MAX_MOVES = 4
#: per-node replay cache, sized *below* the shards-per-node of the
#: skewed placement so the overloaded node visibly thrashes — the
#: latency signature the rebalance gate measures
DIST_CACHE_SHARDS = 2
#: pinned probe pairs for the routed-vs-single exactness cross-check
DIST_PROBE_SEED = 29
DIST_PROBE_PAIRS = 128

#: the skewed trace: same Zipf law as :data:`SMOKE_TRAFFIC` with a
#: hot band one shard wide taking most of the point traffic, at 3× the
#: rate so cache misses on the overloaded node queue behind each other
#: — the workload the rebalancer exists for
DIST_TRAFFIC = TrafficSpec(
    num_requests=512, rate=6000.0, zipf_s=1.1, seed=13,
    row_frac=0.02, topk_frac=0.05, topk_k=10,
    hot_frac=0.6, hot_width=16,
)

#: the node-granularity build fault plan: rank 1 dies after its second
#: shard claim (its remaining shards re-solve on the survivors), rank 2
#: straggles — recovery must stay bitwise-exact
DIST_FAULT_PLAN = FaultPlan(
    (
        FaultSpec(kind="kill", worker=1, after_claims=2),
        FaultSpec(kind="stall", worker=2, seconds=2.5e4),
    )
)


def _store_fingerprint(store) -> int:
    """crc32 over the manifest's per-shard checksums — one number that
    changes if any stored byte changes, gated exactly in CI (stores are
    byte-deterministic by construction)."""
    joined = ",".join(
        f"{entry['crc32']:08x}" for entry in store.manifest["shards"]
    )
    joined += f",{store.manifest['landmarks']['crc32']:08x}"
    return zlib.crc32(joined.encode()) & 0xFFFFFFFF


def _observed_error(store, ref: np.ndarray) -> float:
    """Max abs decode error over every shard vs the exact solve.

    Also requires the reachability structure to survive any codec
    exactly: an ``inf`` that decodes finite (or vice versa) is a
    correctness bug no ε excuses.
    """
    observed = 0.0
    for index in range(store.num_shards):
        start, rows = store.shard_span(index)
        block = store.load_shard(index)
        truth = ref[start:start + rows]
        finite = np.isfinite(truth)
        if (np.isfinite(block) != finite).any():
            raise BenchmarkError(
                f"serve smoke: codec {store.codec_name!r} does not "
                f"preserve reachability in shard {index}"
            )
        if finite.any():
            observed = max(
                observed,
                float(np.max(np.abs(block[finite] - truth[finite]))),
            )
    return observed


def run_serve_smoke(
    *,
    scale: int = DEFAULT_SCALE,
    edge_factor: int = DEFAULT_EDGE_FACTOR,
    seed: int = DEFAULT_SEED,
    shard_rows: int = DEFAULT_SHARD_ROWS,
    cache_shards: int = DEFAULT_CACHE_SHARDS,
    codec: str = "raw",
    epsilon: float = DEFAULT_EPSILON,
    store_dir: Optional[str] = None,
    events_out: Optional[str] = None,
    events_sample: float = 1.0,
    request_trace_out: Optional[str] = None,
) -> Tuple[Dict[str, object], MetricsRegistry]:
    """Run the serving smoke for one codec; returns ``(artifact, registry)``.

    Raises :class:`~repro.exceptions.BenchmarkError` if any of the
    bench's own invariants fail (optimised not beating naive, observed
    error above the certified bound, compressed codec not beating the
    raw-cost reference, ALT short-circuits not reducing shard loads, no
    degradation under saturation, corruption not detected or not
    exactly repaired, a histogram quantile outside its certified error
    of the exact percentile) — CI then fails before regress even runs.

    ``events_out`` writes the optimised replay's telemetry as a JSONL
    event log (sampled per trace id at ``events_sample``, deterministic
    — two runs of the same workload produce byte-identical files);
    ``request_trace_out`` writes the Chrome/Perfetto trace of the
    slowest recorded request, named by the histogram's top exemplar.
    """
    graph = rmat(
        scale,
        edge_factor=edge_factor,
        seed=seed,
        name=f"rmat-s{scale}-ef{edge_factor}",
    )
    n = graph.num_vertices
    tmp = None
    if store_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-serve-smoke-")
        store_dir = tmp.name + "/store"
    sink: Optional[JsonlSink] = None
    try:
        registry = MetricsRegistry()
        t0 = time.perf_counter()
        with use_registry(registry):
            store = solve_to_store(
                graph,
                store_dir,
                shard_rows=shard_rows,
                num_landmarks=DEFAULT_LANDMARKS,
                codec=codec,
                epsilon=epsilon,
            )
        build_wall = time.perf_counter() - t0

        # ground truth for the error audit and the threaded cross-check
        from ..core import solve_apsp

        ref = solve_apsp(graph, use_flags=False).dist
        certified = store.max_abs_error
        observed = _observed_error(store, ref)
        if observed > certified:
            raise BenchmarkError(
                f"serve smoke: codec {codec!r} observed decode error "
                f"{observed:g} exceeds its certified bound {certified:g}"
            )
        if codec in ("raw", "f4") and scale <= 10 and observed != 0.0:
            # unit-weight R-MAT distances are small integers — exact in
            # f4 too, so any error here means the codec is broken
            raise BenchmarkError(
                f"serve smoke: codec {codec!r} should be exact on the "
                f"hop-count smoke graph, observed error {observed:g}"
            )
        store_bytes = store.store_bytes()
        raw_store_bytes = n * n * 8
        if codec in ("u16q", "u16qd") and store_bytes * 2 > raw_store_bytes:
            raise BenchmarkError(
                f"serve smoke: codec {codec!r} store is {store_bytes} "
                f"bytes, not ≥2× below raw f8 {raw_store_bytes}"
            )

        sizes = [store.shard_nbytes(i) for i in range(store.num_shards)]
        trace = generate_trace(SMOKE_TRAFFIC, n)
        policy = AdmissionPolicy()
        cost = ServeCostModel()
        if events_out is not None:
            sink = JsonlSink(
                events_out,
                params={
                    "workload_rev": WORKLOAD_REV,
                    "codec": codec,
                    "epsilon": float(epsilon),
                    "rmat_scale": scale,
                    "rmat_seed": seed,
                    "shard_rows": shard_rows,
                    "cache_shards": cache_shards,
                    "traffic_requests": SMOKE_TRAFFIC.num_requests,
                    "traffic_seed": SMOKE_TRAFFIC.seed,
                    "sample": float(events_sample),
                },
            )
        collector = TelemetryCollector(
            capacity=TELEMETRY_CAPACITY, sink=sink, sample=events_sample,
        )
        opt = replay_virtual(
            trace, n=n, shard_rows=shard_rows, policy=policy, cost=cost,
            cache_shards=cache_shards, num_servers=DEFAULT_SERVERS,
            optimized=True, shard_nbytes=sizes,
            telemetry=collector, codec=codec,
        )
        naive = replay_virtual(
            trace, n=n, shard_rows=shard_rows, policy=policy, cost=cost,
            cache_shards=cache_shards, num_servers=DEFAULT_SERVERS,
            optimized=False, shard_nbytes=sizes,
        )
        # same optimised replay at raw-f8 shard sizes: the latency the
        # codec is claiming credit against
        raw_ref = replay_virtual(
            trace, n=n, shard_rows=shard_rows, policy=policy, cost=cost,
            cache_shards=cache_shards, num_servers=DEFAULT_SERVERS,
            optimized=True,
        )
        if opt.counters["shard_loads"] >= naive.counters["shard_loads"]:
            raise BenchmarkError(
                "serve smoke: coalescing+batching did not reduce shard "
                f"loads ({opt.counters['shard_loads']} vs naive "
                f"{naive.counters['shard_loads']})"
            )
        if opt.counters["bytes_loaded"] >= naive.counters["bytes_loaded"]:
            raise BenchmarkError(
                "serve smoke: optimised replay moved "
                f"{opt.counters['bytes_loaded']} bytes, not below naive "
                f"{naive.counters['bytes_loaded']}"
            )
        # the latency leg of opt-vs-naive only binds for raw: once a
        # codec makes loads cheap, the window-free naive path is
        # latency-competitive by construction and the optimised stack's
        # win is resource cost (the load/byte gates above) — while the
        # codec's own latency win is gated against raw_ref below
        if codec == "raw" and opt.mean_latency() >= naive.mean_latency():
            raise BenchmarkError(
                "serve smoke: optimised mean virtual latency "
                f"{opt.mean_latency():g}s is not below naive "
                f"{naive.mean_latency():g}s"
            )
        if codec != "raw" and opt.mean_latency() >= raw_ref.mean_latency():
            raise BenchmarkError(
                f"serve smoke: codec {codec!r} mean virtual latency "
                f"{opt.mean_latency():g}s does not beat the raw-f8 cost "
                f"reference {raw_ref.mean_latency():g}s"
            )

        # ALT replay: which point requests would short-circuit on the
        # certified landmark gap alone?  The probe touches no shards.
        probe = QueryEngine(store, cache_shards=1, epsilon=epsilon)
        sc_indices: List[int] = []
        for i, req in enumerate(trace):
            if req.kind != "point":
                continue
            lo, hi = probe.dist_bounds(req.u, req.v)
            if lo == hi or hi - lo <= epsilon:
                sc_indices.append(i)
        if probe.stats["shard_loads"] != 0:
            raise BenchmarkError(
                "serve smoke: ALT bound probe loaded shards"
            )
        if not sc_indices:
            raise BenchmarkError(
                "serve smoke: no point query short-circuits on the ALT "
                "gap — landmark bounds are not engaging"
            )
        alt = replay_virtual(
            trace, n=n, shard_rows=shard_rows, policy=policy, cost=cost,
            cache_shards=cache_shards, num_servers=DEFAULT_SERVERS,
            optimized=True, shard_nbytes=sizes, short_circuits=sc_indices,
        )
        if alt.counters["short_circuits"] == 0:
            raise BenchmarkError(
                "serve smoke: ALT replay recorded no short-circuits"
            )
        if alt.counters["shard_loads"] >= opt.counters["shard_loads"]:
            raise BenchmarkError(
                "serve smoke: ALT short-circuiting did not reduce shard "
                f"loads ({alt.counters['shard_loads']} vs "
                f"{opt.counters['shard_loads']})"
            )

        burst = generate_trace(
            TrafficSpec(
                num_requests=SMOKE_TRAFFIC.num_requests,
                rate=SATURATION_RATE,
                zipf_s=SMOKE_TRAFFIC.zipf_s,
                seed=SMOKE_TRAFFIC.seed,
                row_frac=SMOKE_TRAFFIC.row_frac,
                topk_frac=SMOKE_TRAFFIC.topk_frac,
                topk_k=SMOKE_TRAFFIC.topk_k,
            ),
            n,
        )
        sat = replay_virtual(
            burst, n=n, shard_rows=shard_rows, policy=SATURATION_POLICY,
            cost=cost, cache_shards=cache_shards,
            num_servers=DEFAULT_SERVERS, optimized=True, shard_nbytes=sizes,
        )
        if sat.counters["degraded"] == 0:
            raise BenchmarkError(
                "serve smoke: saturating burst produced no degraded "
                "(approximate) answers — admission control is not "
                "engaging"
            )
        answered = (
            sat.counters["admitted"] + sat.counters["degraded"]
            + sat.counters["shed"]
        )
        if answered != len(burst):
            raise BenchmarkError(
                f"serve smoke: {len(burst)} requests in, {answered} "
                "outcomes out — requests are queueing unboundedly"
            )

        # corruption drill: detection must fire, repair must be exact
        # over the *encoded* bytes, whatever the codec
        shard_file = SMOKE_CORRUPTION.resolve(store)
        before = shard_file.read_bytes()
        SMOKE_CORRUPTION.apply_to_store(store)
        try:
            store.verify()
        except StoreCorruptionError as exc:
            if SMOKE_CORRUPTION.shard not in exc.shards:
                raise BenchmarkError(
                    f"serve smoke: corruption reported {exc.shards}, "
                    f"expected shard {SMOKE_CORRUPTION.shard}"
                )
        else:
            raise BenchmarkError(
                "serve smoke: store corruption went undetected"
            )
        with use_registry(registry):
            repaired = store.repair(graph)
        if repaired != [SMOKE_CORRUPTION.shard]:
            raise BenchmarkError(
                f"serve smoke: repair touched {repaired}, expected "
                f"[{SMOKE_CORRUPTION.shard}]"
            )
        if shard_file.read_bytes() != before:
            raise BenchmarkError(
                "serve smoke: repaired shard is not byte-identical to "
                "the original"
            )

        # real-thread smoke of the locking paths; wall-only, not gated
        # (its telemetry collector exercises the real scope threading —
        # wall timestamps, so it never feeds the deterministic sink)
        engine = QueryEngine(store, cache_shards=cache_shards)
        thr_telemetry = TelemetryCollector(capacity=TELEMETRY_CAPACITY)
        frontend = ServeFrontend(engine, policy=policy,
                                 telemetry=thr_telemetry)
        t0 = time.perf_counter()
        threaded, responses = replay_threaded(trace, frontend,
                                              num_threads=4)
        threaded_wall = time.perf_counter() - t0
        # answers must be deterministic (repeatable through the engine)
        # and within the certified error contract vs ground truth
        err_budget = certified + (epsilon or 0.0) / 2.0
        for req, resp in zip(trace, responses):
            if req.kind != "point" or resp.status != "ok":
                continue
            if resp.value != float(engine.dist(req.u, req.v)):
                raise BenchmarkError(
                    "serve smoke: threaded front end is not "
                    "deterministic vs a repeated engine query"
                )
            true = float(ref[req.u, req.v])
            if np.isinf(true) != np.isinf(resp.value):
                raise BenchmarkError(
                    "serve smoke: threaded answer disagrees with ground "
                    f"truth on reachability of ({req.u}, {req.v})"
                )
            if np.isfinite(true) and abs(resp.value - true) > err_budget:
                raise BenchmarkError(
                    f"serve smoke: threaded answer for ({req.u}, "
                    f"{req.v}) is {resp.value:g}, ground truth {true:g} "
                    f"— outside the certified budget {err_budget:g}"
                )
        if engine.stats["short_circuits"] == 0:
            raise BenchmarkError(
                "serve smoke: the real engine never short-circuited on "
                "the ALT gap despite epsilon being set"
            )
        answers = [e for e in thr_telemetry.events() if e.kind == "answer"]
        if len(answers) != len(trace):
            raise BenchmarkError(
                "serve smoke: threaded telemetry recorded "
                f"{len(answers)} answer events for {len(trace)} requests"
            )

        # the certified latency histogram over the optimised replay:
        # every quantile the artifact reports must sit within the
        # histogram's own rel_error certificate of the exact percentile
        hist = opt.latency_histogram()
        if hist.count != sum(len(v) for v in opt.latencies.values()):
            raise BenchmarkError(
                "serve smoke: latency histogram lost samples "
                f"({hist.count} vs recorded latencies)"
            )
        for q in (50.0, 90.0, 99.0):
            exact = opt.percentile_latency(q)
            approx = hist.quantile(q)
            if abs(approx - exact) > hist.rel_error * exact + 1e-12:
                raise BenchmarkError(
                    f"serve smoke: histogram p{q:g} = {approx:g}s is "
                    f"outside the certified relative error "
                    f"{hist.rel_error:g} of the exact percentile "
                    f"{exact:g}s"
                )
        serve_hist = hist.flat("serve.opt.hist")
        serve_hist["serve.opt.hist.rel_error"] = hist.rel_error
        serve_hist["serve.opt.hist.p50_ms"] = hist.quantile(50) * 1e3
        serve_hist["serve.opt.hist.p90_ms"] = hist.quantile(90) * 1e3
        serve_hist["serve.opt.hist.p99_ms"] = hist.quantile(99) * 1e3

        # SLO burn over the virtual replay (deterministic, gated
        # upward-only) and over the threaded replay through the same
        # code path (wall-clock latencies, reported but never gated)
        slo_report = evaluate_slo(SMOKE_SLO, opt.slo_samples("point"))
        thr_slo = evaluate_slo(SMOKE_SLO, threaded.slo_samples("point"))

        if request_trace_out is not None:
            # the slowest recorded request, named by the histogram's
            # top exemplar, exported as a Perfetto-loadable trace
            top_bucket = max(hist.exemplars)
            exemplar_tid = hist.exemplars[top_bucket][1]
            req_trace = export_request_trace(
                collector.events(), exemplar_tid
            )
            problems = validate_chrome(to_chrome(req_trace))
            if problems:
                raise BenchmarkError(
                    "serve smoke: exported request trace is not valid "
                    "Chrome JSON: " + "; ".join(problems)
                )
            write_chrome(request_trace_out, req_trace)

        serve: Dict[str, float] = {
            "serve.store.fingerprint": float(_store_fingerprint(store)),
            "serve.store.num_shards": float(store.num_shards),
            "serve.store.store_bytes": float(store_bytes),
            "serve.store.raw_store_bytes": float(raw_store_bytes),
            "serve.store.compression_ratio": raw_store_bytes / store_bytes,
            "serve.error.certified_max_abs_error": certified,
            "serve.error.observed_max_abs_error": observed,
            "serve.naive.shard_loads": float(naive.counters["shard_loads"]),
            "serve.naive.bytes_loaded": float(naive.counters["bytes_loaded"]),
            "serve.naive.mean_ms": naive.mean_latency() * 1e3,
            "serve.naive.p99_ms": naive.percentile_latency(99) * 1e3,
            "serve.opt.shard_loads": float(opt.counters["shard_loads"]),
            "serve.opt.bytes_loaded": float(opt.counters["bytes_loaded"]),
            "serve.opt.cache_hits": float(opt.counters["cache_hits"]),
            "serve.opt.coalesced": float(opt.counters["coalesced"]),
            "serve.opt.batches": float(opt.counters["batches"]),
            "serve.opt.gathers": float(opt.counters["gathers"]),
            "serve.opt.degraded": float(opt.counters["degraded"]),
            "serve.opt.shed": float(opt.counters["shed"]),
            "serve.opt.hit_rate": opt.hit_rate(),
            "serve.opt.mean_ms": opt.mean_latency() * 1e3,
            # opt percentiles come from the certified histogram (the
            # bound vs the exact percentiles is asserted above); the
            # reference replays keep the exact sorted-array percentiles
            "serve.opt.p50_ms": hist.quantile(50) * 1e3,
            "serve.opt.p99_ms": hist.quantile(99) * 1e3,
            "serve.opt.mean_speedup":
                naive.mean_latency() / opt.mean_latency(),
            "serve.opt.raw_speedup":
                raw_ref.mean_latency() / opt.mean_latency(),
            "serve.raw_ref.mean_ms": raw_ref.mean_latency() * 1e3,
            "serve.raw_ref.p99_ms": raw_ref.percentile_latency(99) * 1e3,
            "serve.alt.short_circuits":
                float(alt.counters["short_circuits"]),
            "serve.alt.shard_loads": float(alt.counters["shard_loads"]),
            "serve.alt.bytes_loaded": float(alt.counters["bytes_loaded"]),
            "serve.alt.mean_ms": alt.mean_latency() * 1e3,
            "serve.alt.p99_ms": alt.percentile_latency(99) * 1e3,
            "serve.sat.degraded": float(sat.counters["degraded"]),
            "serve.sat.shed": float(sat.counters["shed"]),
            "serve.sat.admitted": float(sat.counters["admitted"]),
        }
        artifact = build_artifact(
            "serve-smoke",
            params={
                "workload_rev": WORKLOAD_REV,
                "graph": graph.name,
                "n": int(n),
                "m": int(graph.num_edges),
                "rmat_scale": scale,
                "rmat_edge_factor": edge_factor,
                "rmat_seed": seed,
                "shard_rows": shard_rows,
                "cache_shards": cache_shards,
                "codec": codec,
                "epsilon": float(epsilon),
                "num_landmarks": DEFAULT_LANDMARKS,
                "num_servers": DEFAULT_SERVERS,
                "traffic_requests": SMOKE_TRAFFIC.num_requests,
                "traffic_rate": SMOKE_TRAFFIC.rate,
                "traffic_zipf_s": SMOKE_TRAFFIC.zipf_s,
                "traffic_seed": SMOKE_TRAFFIC.seed,
                "saturation_rate": SATURATION_RATE,
            },
            timings={
                "wall.store_build": build_wall,
                "wall.threaded_replay": threaded_wall,
                # threaded SLO through the identical scoring path —
                # wall-clock latencies, so wall.* (reported, not gated)
                "wall.slo_burn_rate": thr_slo.burn_rate,
                "wall.slo_compliance": thr_slo.compliance,
            },
            registry=registry,
            serve=serve,
            serve_latency_hist=serve_hist,
            serve_slo=slo_report.to_flat("serve.slo.point"),
        )
        return artifact, registry
    finally:
        if sink is not None:
            sink.close()
        if tmp is not None:
            tmp.cleanup()


def run_update_smoke(
    *,
    scale: int = DEFAULT_SCALE,
    edge_factor: int = DEFAULT_EDGE_FACTOR,
    seed: int = DEFAULT_SEED,
    shard_rows: int = DEFAULT_SHARD_ROWS,
    cache_shards: int = DEFAULT_CACHE_SHARDS,
    codec: str = "raw",
    store_dir: Optional[str] = None,
) -> Tuple[Dict[str, object], MetricsRegistry]:
    """Run the incremental-update smoke; returns ``(artifact, registry)``.

    Builds a store from the weighted bench graph, applies the pinned
    :data:`SMOKE_UPDATE_BATCH` through
    :func:`~repro.serve.update.apply_edge_updates` and asserts, with
    :class:`~repro.exceptions.BenchmarkError` on any failure:

    * **byte-identity** — the updated store's fingerprint (and byte
      size) equals a from-scratch :func:`solve_to_store` of the
      mutated graph;
    * **incrementality** — the deterministic row-unit cost is below
      :data:`UPDATE_COST_GATE` of a full rebuild, and the landmark
      prescreen certified at least one shard clean;
    * **correctness** — the updated store decodes within its certified
      error of an exact solve of the mutated graph;
    * **generation safety** — an engine opened before the update keeps
      answering from the old generation until
      :meth:`~repro.serve.engine.QueryEngine.refresh`, which adopts
      the new one and serves the post-update distances;
    * **in-flight durability** — a corruption drill that damages a
      pending copy-on-write file mid-update aborts the swap, leaving
      the live generation intact on disk and no orphaned files.

    The pinned batch's vertex ids are tuned to the default graph knobs;
    non-default ``scale``/``seed`` are for exploration only.
    """
    base = rmat(
        scale,
        edge_factor=edge_factor,
        seed=seed,
        name=f"rmat-s{scale}-ef{edge_factor}",
    )
    graph = attach_random_weights(base, seed=UPDATE_WEIGHT_SEED)
    n = graph.num_vertices
    tmp = None
    if store_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-update-smoke-")
        store_dir = tmp.name + "/store"
    try:
        registry = MetricsRegistry()
        with use_registry(registry):
            t0 = time.perf_counter()
            store = solve_to_store(
                graph,
                store_dir,
                shard_rows=shard_rows,
                num_landmarks=DEFAULT_LANDMARKS,
                codec=codec,
            )
            build_wall = time.perf_counter() - t0
            if store.generation != 0:
                raise BenchmarkError(
                    "update smoke: fresh build did not start at "
                    f"generation 0 (got {store.generation})"
                )
            old_fingerprint = _store_fingerprint(store)

            # an engine holding the pre-update generation: it must keep
            # serving it, unmixed, until it explicitly refreshes
            engine = QueryEngine(store, cache_shards=cache_shards)
            updates = parse_edge_updates(SMOKE_UPDATE_BATCH)
            probe_pairs = sorted(
                {upd.key for upd in updates}
                | {(u, u + 1) for u in range(0, n - 1, max(1, n // 8))}
            )
            old_answers = {
                (u, v): float(engine.dist(u, v)) for u, v in probe_pairs
            }

            t0 = time.perf_counter()
            result = apply_edge_updates(store, graph, updates)
            update_wall = time.perf_counter() - t0
            updated = result.store

        if result.generation != 1 or updated.generation != 1:
            raise BenchmarkError(
                "update smoke: expected generation 1 after one update, "
                f"got result {result.generation} / store "
                f"{updated.generation}"
            )
        if not result.dirty_shards:
            raise BenchmarkError(
                "update smoke: the pinned batch dirtied no shards — "
                "the copy-on-write path was never exercised"
            )
        if result.certified_clean_shards <= 0:
            raise BenchmarkError(
                "update smoke: the landmark prescreen certified no "
                "shard clean — the ALT certificates are not engaging"
            )
        if result.cost_ratio >= UPDATE_COST_GATE:
            raise BenchmarkError(
                f"update smoke: update cost {result.cost_rows} rows is "
                f"{result.cost_ratio:.3f}x a full rebuild "
                f"({result.rebuild_rows} rows), not below "
                f"{UPDATE_COST_GATE}"
            )

        # byte-identity: the updated store vs a from-scratch build of
        # the mutated graph — same fingerprint, same size
        new_graph = apply_updates_to_graph(graph, updates)
        with use_registry(registry):
            t0 = time.perf_counter()
            fresh = solve_to_store(
                new_graph,
                store_dir + "-rebuild",
                shard_rows=shard_rows,
                num_landmarks=DEFAULT_LANDMARKS,
                codec=codec,
            )
            rebuild_wall = time.perf_counter() - t0
        updated_fp = _store_fingerprint(updated)
        rebuild_fp = _store_fingerprint(fresh)
        if updated_fp != rebuild_fp:
            raise BenchmarkError(
                "update smoke: updated store fingerprint "
                f"{updated_fp:#010x} differs from a from-scratch build "
                f"of the mutated graph ({rebuild_fp:#010x}) — "
                "incremental updates must be byte-identical"
            )
        if updated.store_bytes() != fresh.store_bytes():
            raise BenchmarkError(
                "update smoke: updated store is "
                f"{updated.store_bytes()} bytes vs rebuild "
                f"{fresh.store_bytes()}"
            )

        # correctness of the published bytes vs an exact solve
        from ..core import solve_apsp

        new_ref = solve_apsp(new_graph, use_flags=False).dist
        observed = _observed_error(updated, new_ref)
        if observed > updated.max_abs_error:
            raise BenchmarkError(
                f"update smoke: updated store decodes with error "
                f"{observed:g}, above its certified bound "
                f"{updated.max_abs_error:g}"
            )

        # generation safety: the old engine still serves generation 0
        # answers, then refresh() adopts generation 1 atomically
        for (u, v), before in old_answers.items():
            if float(engine.dist(u, v)) != before:
                raise BenchmarkError(
                    f"update smoke: engine answer for ({u}, {v}) "
                    "changed without a refresh — generations are mixing"
                )
        with use_registry(registry):
            adopted = engine.refresh()
        if adopted != 1:
            raise BenchmarkError(
                f"update smoke: refresh adopted generation {adopted}, "
                "expected 1"
            )
        err_budget = updated.max_abs_error
        swapped = 0
        for u, v in probe_pairs:
            got = float(engine.dist(u, v))
            true = float(new_ref[u, v])
            if np.isinf(true) != np.isinf(got) or (
                np.isfinite(true) and abs(got - true) > err_budget
            ):
                raise BenchmarkError(
                    f"update smoke: refreshed engine answers {got:g} "
                    f"for ({u}, {v}), exact {true:g} — outside the "
                    f"certified bound {err_budget:g}"
                )
            if got != old_answers[(u, v)]:
                swapped += 1
        if swapped == 0:
            raise BenchmarkError(
                "update smoke: no probed answer changed across the "
                "update — the batch was a no-op for the probe set"
            )

        # in-flight corruption drill: damage a pending file after it is
        # written but before the manifest swap; the update must abort
        # with the live generation intact and no orphans left behind
        drill = parse_edge_updates(DRILL_UPDATE_BATCH)
        drill_gen = updated.generation + 1

        def damage_pending(old_store, new_manifest):
            suffix = f".g{drill_gen:04d}.bin"
            for entry in new_manifest["shards"]:
                if entry["file"].endswith(suffix):
                    path = old_store.path / entry["file"]
                    raw = bytearray(path.read_bytes())
                    raw[0] ^= 0xFF
                    path.write_bytes(bytes(raw))
                    return
            raise BenchmarkError(
                "update smoke: drill batch produced no pending shard "
                "files to damage"
            )

        try:
            apply_edge_updates(
                updated, new_graph, drill, pre_swap_hook=damage_pending
            )
        except StoreCorruptionError:
            pass
        else:
            raise BenchmarkError(
                "update smoke: in-flight corruption went undetected — "
                "the damaged pending file was published"
            )
        survivor = DistStore.open(updated.path)
        if survivor.generation != 1:
            raise BenchmarkError(
                "update smoke: aborted update left generation "
                f"{survivor.generation} on disk, expected 1"
            )
        survivor.verify()
        if _store_fingerprint(survivor) != updated_fp:
            raise BenchmarkError(
                "update smoke: aborted update changed the live "
                "store's bytes"
            )
        drill_suffix = f".g{drill_gen:04d}.bin"
        orphans = [
            p.name
            for p in survivor.path.iterdir()
            if p.name.endswith(drill_suffix)
        ]
        if orphans:
            raise BenchmarkError(
                f"update smoke: aborted update left orphans {orphans}"
            )

        update: Dict[str, float] = {
            "update.generation": float(result.generation),
            "update.num_updates": float(result.num_updates),
            "update.endpoints": float(len(result.endpoints)),
            "update.candidate_shards": float(len(result.candidate_shards)),
            "update.dirty_shards": float(len(result.dirty_shards)),
            "update.certified_clean_shards": float(
                result.certified_clean_shards
            ),
            "update.landmarks_rebuilt": float(result.landmarks_rebuilt),
            "update.rows_resolved": float(result.rows_resolved),
            "update.landmark_rows_resolved": float(
                result.landmark_rows_resolved
            ),
            "update.cost_rows": float(result.cost_rows),
            "update.rebuild_rows": float(result.rebuild_rows),
            "update.cost_ratio": result.cost_ratio,
            "update.fingerprint": float(updated_fp),
            "update.rebuild_fingerprint": float(rebuild_fp),
            "update.pre_update_fingerprint": float(old_fingerprint),
            "update.store_bytes": float(updated.store_bytes()),
            "update.observed_max_abs_error": observed,
            "update.probe_answers_changed": float(swapped),
            "update.drill_aborted": 1.0,
        }
        artifact = build_artifact(
            "update-smoke",
            params={
                "workload_rev": WORKLOAD_REV,
                "graph": graph.name,
                "n": int(n),
                "m": int(graph.num_edges),
                "rmat_scale": scale,
                "rmat_edge_factor": edge_factor,
                "rmat_seed": seed,
                "weight_seed": UPDATE_WEIGHT_SEED,
                "shard_rows": shard_rows,
                "cache_shards": cache_shards,
                "codec": codec,
                "num_landmarks": DEFAULT_LANDMARKS,
                "update_batch": SMOKE_UPDATE_BATCH,
                "drill_batch": DRILL_UPDATE_BATCH,
                "cost_gate": UPDATE_COST_GATE,
            },
            timings={
                "wall.store_build": build_wall,
                "wall.update": update_wall,
                "wall.rebuild": rebuild_wall,
            },
            registry=registry,
            update=update,
        )
        return artifact, registry
    finally:
        if tmp is not None:
            tmp.cleanup()


def _answer_fingerprint(values: Sequence[float]) -> int:
    """crc32 over the answers' f8 bytes — one number that changes if
    any routed answer diverges from the single-node store."""
    arr = np.asarray(list(values), dtype=np.float64)
    return zlib.crc32(arr.tobytes()) & 0xFFFFFFFF


def run_dist_smoke(
    *,
    scale: int = DEFAULT_SCALE,
    edge_factor: int = DEFAULT_EDGE_FACTOR,
    seed: int = DEFAULT_SEED,
    shard_rows: int = DEFAULT_SHARD_ROWS,
    cache_shards: int = DEFAULT_CACHE_SHARDS,
    codec: str = "raw",
    store_dir: Optional[str] = None,
) -> Tuple[Dict[str, object], MetricsRegistry]:
    """Run the multi-node smoke; returns ``(artifact, registry)``.

    Asserts, with :class:`~repro.exceptions.BenchmarkError` on any
    failure:

    * **build exactness** — :func:`~repro.dist.solve_apsp_cluster` on
      :data:`~repro.dist.CLUSTER_FAST` is bitwise-identical to the
      single-machine solve, fault-free *and* under
      :data:`DIST_FAULT_PLAN` (a killed rank whose shards re-solve on
      the survivors, plus a straggler), with the faulted makespan
      strictly above the fault-free one;
    * **routing exactness** — a :class:`~repro.serve.router.RoutedEngine`
      answers the pinned probe set byte-identically to a single-node
      :class:`~repro.serve.engine.QueryEngine`, and keeps doing so
      after the hot shard's primary node is failed (replication covers
      it; the failover counter must move);
    * **rebalancing pays** — the hot-shard-skewed :data:`DIST_TRAFFIC`
      replayed through the router sees a strictly lower p99 after
      :meth:`~repro.serve.router.ShardRouter.rebalance` moves hot
      shards to cold nodes (at least one move must happen);
    * **loss is survivable** — the same trace with the hot node dying
      mid-replay records exactly one node loss, a nonzero failover
      count, and still answers every request.
    """
    graph = rmat(
        scale,
        edge_factor=edge_factor,
        seed=seed,
        name=f"rmat-s{scale}-ef{edge_factor}",
    )
    n = graph.num_vertices
    tmp = None
    if store_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-dist-smoke-")
        store_dir = tmp.name + "/store"
    try:
        registry = MetricsRegistry()
        from ..core import solve_apsp

        ref = solve_apsp(graph, use_flags=False).dist

        # 1. simulated cluster build: exact fault-free and faulted
        t0 = time.perf_counter()
        with use_registry(registry):
            build = solve_apsp_cluster(
                graph, CLUSTER_FAST, shard_rows=shard_rows
            )
        cluster_wall = time.perf_counter() - t0
        if not np.array_equal(build.dist, ref):
            raise BenchmarkError(
                "dist smoke: cluster build is not bitwise-identical to "
                "the single-machine solve"
            )
        with use_registry(registry):
            faulted = solve_apsp_cluster(
                graph,
                CLUSTER_FAST,
                shard_rows=shard_rows,
                fault_plan=DIST_FAULT_PLAN,
            )
        if not np.array_equal(faulted.dist, ref):
            raise BenchmarkError(
                "dist smoke: faulted cluster build diverged from the "
                "fault-free distances — recovery is not exact"
            )
        if not faulted.lost_ranks or not faulted.recovered_by:
            raise BenchmarkError(
                "dist smoke: the pinned fault plan killed no rank "
                f"(lost={faulted.lost_ranks}, "
                f"recovered={len(faulted.recovered_by)})"
            )
        if faulted.makespan <= build.makespan:
            raise BenchmarkError(
                "dist smoke: the faulted build was not slower than the "
                f"fault-free one ({faulted.makespan:g} vs "
                f"{build.makespan:g}) — recovery cost vanished"
            )

        # 2. the serving store + routed-vs-single exactness
        t0 = time.perf_counter()
        with use_registry(registry):
            store = solve_to_store(
                graph,
                store_dir,
                shard_rows=shard_rows,
                num_landmarks=DEFAULT_LANDMARKS,
                codec=codec,
            )
        store_wall = time.perf_counter() - t0
        router = ShardRouter(
            DIST_NODES,
            replication=DIST_REPLICATION,
            vnodes=DIST_VNODES,
            hash_seed=DIST_HASH_SEED,
        )
        routed = RoutedEngine(
            store,
            router,
            cache_shards=cache_shards,
            node_budget=DIST_NODE_BUDGET,
        )
        single = QueryEngine(store, cache_shards=cache_shards)
        rng = np.random.default_rng(DIST_PROBE_SEED)
        pairs = [
            (int(u), int(v))
            for u, v in rng.integers(0, n, size=(DIST_PROBE_PAIRS, 2))
        ]
        answers = []
        for u, v in pairs:
            got = float(routed.dist(u, v))
            want = float(single.dist(u, v))
            if got != want:
                raise BenchmarkError(
                    f"dist smoke: routed answer for ({u}, {v}) is "
                    f"{got!r}, single-node store says {want!r}"
                )
            answers.append(got)
        if not np.array_equal(
            routed.dist_batch(pairs), single.dist_batch(pairs)
        ):
            raise BenchmarkError(
                "dist smoke: routed dist_batch diverged from the "
                "single-node engine"
            )
        fingerprint = _answer_fingerprint(answers)

        # per-shard request loads of the pinned trace (what a serving
        # tier's per-shard counters would show) drive both the loss
        # drill's target and the rebalance
        trace = generate_trace(DIST_TRAFFIC, n)
        loads: Dict[int, float] = {s: 0.0 for s in range(store.num_shards)}
        for req in trace:
            loads[store.shard_of(req.u)] += 1.0
        hot_shard = max(loads, key=lambda s: (loads[s], -s))
        hot_node, _ = router.route(hot_shard)

        # kill the hot shard's primary; replication must keep every
        # answer byte-identical, via failovers
        routed.fail_node(hot_node)
        failover_answers = []
        for u, v in pairs:
            got = float(routed.dist(u, v))
            want = float(single.dist(u, v))
            if got != want:
                raise BenchmarkError(
                    f"dist smoke: answer for ({u}, {v}) changed after "
                    f"node {hot_node} failed ({got!r} vs {want!r})"
                )
            failover_answers.append(got)
        drill_failovers = int(routed.stats["failovers"])
        if drill_failovers == 0:
            raise BenchmarkError(
                "dist smoke: failing the hot node produced no "
                "failovers — the probe never touched it?"
            )
        if _answer_fingerprint(failover_answers) != fingerprint:
            raise BenchmarkError(
                "dist smoke: the answer fingerprint changed across a "
                "node failure"
            )
        routed.restore_node(hot_node)

        # 3. skewed replay vs rebalanced replay: the p99 gate
        sizes = [store.shard_nbytes(i) for i in range(store.num_shards)]
        policy = AdmissionPolicy()
        cost = ServeCostModel()

        def routed_replay(rtr, node_down=()):
            return replay_virtual(
                trace, n=n, shard_rows=shard_rows, policy=policy,
                cost=cost, cache_shards=DIST_CACHE_SHARDS, optimized=True,
                shard_nbytes=sizes, router=rtr,
                node_budget=DIST_NODE_BUDGET,
                servers_per_node=DIST_SERVERS_PER_NODE,
                node_down=node_down,
            )

        skew_router = ShardRouter(
            DIST_NODES,
            replication=DIST_REPLICATION,
            vnodes=DIST_VNODES,
            hash_seed=DIST_HASH_SEED,
        )
        skewed = routed_replay(skew_router)
        if skewed.counters["failovers"] != 0:
            raise BenchmarkError(
                "dist smoke: the healthy skewed replay recorded "
                f"{skewed.counters['failovers']} failovers"
            )
        re_router = ShardRouter.from_dict(skew_router.to_dict())
        moves = re_router.rebalance(loads, max_moves=DIST_MAX_MOVES)
        if not moves:
            raise BenchmarkError(
                "dist smoke: rebalance made no moves on the skewed "
                "load profile"
            )
        rebalanced = routed_replay(re_router)
        p99_skew = skewed.percentile_latency(99)
        p99_re = rebalanced.percentile_latency(99)
        if p99_re >= p99_skew:
            raise BenchmarkError(
                f"dist smoke: rebalancing did not improve the hot-shard "
                f"p99 ({p99_re:g}s vs skewed {p99_skew:g}s)"
            )

        # 4. node-loss drill: hot node dies mid-trace, traffic fails
        # over to replicas, every request still gets an outcome
        loss_router = ShardRouter(
            DIST_NODES,
            replication=DIST_REPLICATION,
            vnodes=DIST_VNODES,
            hash_seed=DIST_HASH_SEED,
        )
        mid = trace[len(trace) // 2].arrival
        loss = routed_replay(loss_router, node_down=((mid, hot_node),))
        if loss.counters["node_losses"] != 1:
            raise BenchmarkError(
                "dist smoke: the loss drill recorded "
                f"{loss.counters['node_losses']} node losses, expected 1"
            )
        if loss.counters["failovers"] == 0:
            raise BenchmarkError(
                "dist smoke: no request failed over after the hot node "
                "died mid-replay"
            )
        outcomes = (
            loss.counters["admitted"] + loss.counters["degraded"]
            + loss.counters["shed"]
        )
        if outcomes != len(trace):
            raise BenchmarkError(
                f"dist smoke: {len(trace)} requests in, {outcomes} "
                "outcomes out of the loss drill"
            )

        dist: Dict[str, float] = {
            "dist.build.makespan": build.makespan,
            "dist.build.network_bytes": float(build.network_bytes),
            "dist.build.total_work": build.total_work,
            "dist.build.num_shards": float(build.num_shards),
            "dist.fault.makespan": faulted.makespan,
            "dist.fault.network_bytes": float(faulted.network_bytes),
            "dist.fault.lost_ranks": float(len(faulted.lost_ranks)),
            "dist.fault.recovered_shards": float(len(faulted.recovered_by)),
            "dist.route.answer_fingerprint": float(fingerprint),
            "dist.route.drill_failovers": float(drill_failovers),
            "dist.store.fingerprint": float(_store_fingerprint(store)),
            "dist.skew.p99_ms": p99_skew * 1e3,
            "dist.skew.mean_ms": skewed.mean_latency() * 1e3,
            "dist.skew.shard_loads": float(skewed.counters["shard_loads"]),
            "dist.skew.node_saturated": float(
                skewed.counters["node_saturated"]
            ),
            "dist.rebalanced.moves": float(len(moves)),
            "dist.rebalanced.p99_ms": p99_re * 1e3,
            "dist.rebalanced.mean_ms": rebalanced.mean_latency() * 1e3,
            "dist.rebalanced.shard_loads": float(
                rebalanced.counters["shard_loads"]
            ),
            "dist.loss.p99_ms": loss.percentile_latency(99) * 1e3,
            "dist.loss.failovers": float(loss.counters["failovers"]),
            "dist.loss.node_losses": float(loss.counters["node_losses"]),
            "dist.loss.shard_loads": float(loss.counters["shard_loads"]),
        }
        artifact = build_artifact(
            "dist-smoke",
            params={
                "workload_rev": WORKLOAD_REV,
                "graph": graph.name,
                "n": int(n),
                "m": int(graph.num_edges),
                "rmat_scale": scale,
                "rmat_edge_factor": edge_factor,
                "rmat_seed": seed,
                "shard_rows": shard_rows,
                "cache_shards": cache_shards,
                "codec": codec,
                "num_landmarks": DEFAULT_LANDMARKS,
                "cluster": CLUSTER_FAST.name,
                "cluster_nodes": CLUSTER_FAST.num_nodes,
                "threads_per_node": CLUSTER_FAST.threads_per_node,
                "num_nodes": DIST_NODES,
                "replication": DIST_REPLICATION,
                "vnodes": DIST_VNODES,
                "hash_seed": DIST_HASH_SEED,
                "node_budget": DIST_NODE_BUDGET,
                "servers_per_node": DIST_SERVERS_PER_NODE,
                "max_moves": DIST_MAX_MOVES,
                "replay_cache_shards": DIST_CACHE_SHARDS,
                "traffic_requests": DIST_TRAFFIC.num_requests,
                "traffic_rate": DIST_TRAFFIC.rate,
                "traffic_zipf_s": DIST_TRAFFIC.zipf_s,
                "traffic_seed": DIST_TRAFFIC.seed,
                "traffic_hot_frac": DIST_TRAFFIC.hot_frac,
                "traffic_hot_width": DIST_TRAFFIC.hot_width,
            },
            timings={
                "wall.cluster_build": cluster_wall,
                "wall.store_build": store_wall,
            },
            registry=registry,
            dist=dist,
        )
        return artifact, registry
    finally:
        if tmp is not None:
            tmp.cleanup()


#: curve artifact schema (uploaded by CI, never gated)
CURVE_SCHEMA_VERSION = "repro.serve.curve/1"


def run_codec_curve(**kwargs) -> Dict[str, object]:
    """Sweep every codec through the smoke; the accuracy-vs-latency curve.

    Each point is one full :func:`run_serve_smoke` (so every per-codec
    invariant is asserted), reduced to the fields that make the
    tradeoff legible: store bytes, bytes loaded per replay, p50/p99,
    certified vs observed error.
    """
    points = []
    for codec in codec_names():
        artifact, _ = run_serve_smoke(codec=codec, **kwargs)
        serve = artifact["serve"]
        points.append(
            {
                "codec": codec,
                "store_bytes": serve["serve.store.store_bytes"],
                "compression_ratio": serve["serve.store.compression_ratio"],
                "bytes_loaded": serve["serve.opt.bytes_loaded"],
                "certified_max_abs_error":
                    serve["serve.error.certified_max_abs_error"],
                "observed_max_abs_error":
                    serve["serve.error.observed_max_abs_error"],
                "mean_ms": serve["serve.opt.mean_ms"],
                "p50_ms": serve["serve.opt.p50_ms"],
                "p99_ms": serve["serve.opt.p99_ms"],
                "raw_speedup": serve["serve.opt.raw_speedup"],
                "alt_mean_ms": serve["serve.alt.mean_ms"],
                "alt_shard_loads": serve["serve.alt.shard_loads"],
            }
        )
    return {
        "schema": CURVE_SCHEMA_VERSION,
        "name": "serve-codec-curve",
        "points": points,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve.bench",
        description="run the deterministic query-serving bench and "
        "write its BENCH artifact",
    )
    parser.add_argument(
        "--out", default="BENCH_serve.json", help="artifact path to write"
    )
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    parser.add_argument(
        "--edge-factor", type=int, default=DEFAULT_EDGE_FACTOR
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--shard-rows", type=int, default=None,
        help=f"rows per shard (default {DEFAULT_SHARD_ROWS})",
    )
    parser.add_argument(
        "--cache-shards", type=int, default=None,
        help=f"LRU capacity in shards (default {DEFAULT_CACHE_SHARDS})",
    )
    parser.add_argument(
        "--codec", choices=codec_names(), default=None,
        help="shard codec to build and replay with (default raw)",
    )
    parser.add_argument(
        "--epsilon", type=float, default=None,
        help="ALT short-circuit gap (0 = exact-gap only; "
        f"default {DEFAULT_EPSILON})",
    )
    parser.add_argument(
        "--config", metavar="PATH", default=None,
        help="serialized repro.config.ServeConfig; its store/engine "
        "fields become the bench defaults (explicit flags still win)",
    )
    parser.add_argument(
        "--save-config", metavar="PATH", default=None,
        help="write the effective ServeConfig of this bench as JSON",
    )
    parser.add_argument(
        "--curve", metavar="PATH", default=None,
        help="sweep every codec and write the accuracy-vs-latency "
        "curve JSON here instead of a single artifact",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="run the incremental-update smoke (pinned edge-update "
        "batch, byte-identity and cost gates) instead of the serving "
        "replay; write its artifact to --out",
    )
    parser.add_argument(
        "--dist", action="store_true",
        help="run the multi-node smoke (cluster build exactness, "
        "routed serving vs single store, hot-shard rebalance and "
        "node-loss drills) instead of the serving replay; write its "
        "artifact to --out",
    )
    parser.add_argument(
        "--events", metavar="PATH", default=None,
        help="write the optimised replay's telemetry event log "
        "(deterministic JSONL, repro.serve.telemetry/1) here",
    )
    parser.add_argument(
        "--events-sample", type=float, default=1.0, metavar="FRAC",
        help="per-trace sampling fraction for --events (default 1.0; "
        "deterministic — the same traces are kept on every run)",
    )
    parser.add_argument(
        "--request-trace", metavar="PATH", default=None,
        help="export the slowest request (the latency histogram's top "
        "exemplar) as a Chrome/Perfetto trace JSON here",
    )
    args = parser.parse_args(argv)
    cfg = None
    if args.config is not None:
        from ..config import load_serve_config

        cfg = load_serve_config(args.config)
    # explicit flags win over a --config file, which wins over the
    # bench's pinned defaults (same contract as repro-apsp solve)
    shard_rows = args.shard_rows if args.shard_rows is not None else (
        cfg.store.shard_rows if cfg is not None else DEFAULT_SHARD_ROWS
    )
    cache_shards = (
        args.cache_shards if args.cache_shards is not None
        else cfg.engine.cache_shards if cfg is not None
        else DEFAULT_CACHE_SHARDS
    )
    codec = args.codec if args.codec is not None else (
        cfg.store.codec if cfg is not None else "raw"
    )
    epsilon = args.epsilon if args.epsilon is not None else (
        cfg.store.epsilon
        if cfg is not None and cfg.store.epsilon is not None
        else DEFAULT_EPSILON
    )
    if args.save_config is not None:
        from ..config import ServeConfig

        base = cfg if cfg is not None else ServeConfig()
        effective = base.with_overrides(
            shard_rows=shard_rows, cache_shards=cache_shards,
            codec=codec, epsilon=epsilon,
        )
        with open(args.save_config, "w", encoding="utf-8") as fh:
            fh.write(effective.to_json(indent=2) + "\n")
        print(f"config saved: {args.save_config}")
    common = dict(
        scale=args.scale,
        edge_factor=args.edge_factor,
        seed=args.seed,
        shard_rows=shard_rows,
        cache_shards=cache_shards,
        epsilon=epsilon,
    )
    if args.update:
        artifact, _ = run_update_smoke(
            scale=args.scale,
            edge_factor=args.edge_factor,
            seed=args.seed,
            shard_rows=shard_rows,
            cache_shards=cache_shards,
            codec=codec,
        )
        path = write_artifact(args.out, artifact)
        upd = artifact["update"]
        print(f"wrote {path}")
        print(
            "  batch={!r}: dirty={:d}/{:d} shards (certified clean "
            "{:d}), rows={:d}+{:d}lm, gen={:d}".format(
                artifact["params"]["update_batch"],
                int(upd["update.dirty_shards"]),
                int(upd["update.candidate_shards"])
                + int(upd["update.certified_clean_shards"]),
                int(upd["update.certified_clean_shards"]),
                int(upd["update.rows_resolved"]),
                int(upd["update.landmark_rows_resolved"]),
                int(upd["update.generation"]),
            )
        )
        print(
            "  cost: {:d} row-units vs rebuild {:d} "
            "(ratio {:.3f} < gate {:g})  bytes identical to rebuild "
            "(fingerprint {:#010x})".format(
                int(upd["update.cost_rows"]),
                int(upd["update.rebuild_rows"]),
                upd["update.cost_ratio"],
                artifact["params"]["cost_gate"],
                int(upd["update.fingerprint"]),
            )
        )
        print("  in-flight corruption drill: aborted cleanly, old "
              "generation intact")
        return 0
    if args.dist:
        artifact, _ = run_dist_smoke(
            scale=args.scale,
            edge_factor=args.edge_factor,
            seed=args.seed,
            shard_rows=shard_rows,
            cache_shards=cache_shards,
            codec=codec,
        )
        path = write_artifact(args.out, artifact)
        dist = artifact["dist"]
        print(f"wrote {path}")
        print(
            "  build[{}]: makespan={:.0f} (faulted {:.0f}, "
            "{:d} rank(s) lost, {:d} shard(s) recovered)  "
            "network={:d}B".format(
                artifact["params"]["cluster"],
                dist["dist.build.makespan"],
                dist["dist.fault.makespan"],
                int(dist["dist.fault.lost_ranks"]),
                int(dist["dist.fault.recovered_shards"]),
                int(dist["dist.build.network_bytes"]),
            )
        )
        print(
            "  routing[{:d} nodes, rf={:d}]: answers exact "
            "(fingerprint {:#010x}), {:d} failovers with the hot "
            "node down".format(
                artifact["params"]["num_nodes"],
                artifact["params"]["replication"],
                int(dist["dist.route.answer_fingerprint"]),
                int(dist["dist.route.drill_failovers"]),
            )
        )
        print(
            "  hot-shard p99: skewed={:.3f}ms -> rebalanced={:.3f}ms "
            "({:d} move(s))  loss drill: {:d} failovers, "
            "p99={:.3f}ms".format(
                dist["dist.skew.p99_ms"],
                dist["dist.rebalanced.p99_ms"],
                int(dist["dist.rebalanced.moves"]),
                int(dist["dist.loss.failovers"]),
                dist["dist.loss.p99_ms"],
            )
        )
        return 0
    if args.curve is not None:
        curve = run_codec_curve(**common)
        with open(args.curve, "w", encoding="utf-8") as fh:
            json.dump(curve, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.curve}")
        print(
            "  {:<6} {:>12} {:>8} {:>14} {:>10} {:>10}".format(
                "codec", "store_bytes", "ratio", "certified_err",
                "mean_ms", "p99_ms",
            )
        )
        for pt in curve["points"]:
            print(
                "  {:<6} {:>12.0f} {:>7.1f}x {:>14.3g} {:>10.4f} "
                "{:>10.4f}".format(
                    pt["codec"], pt["store_bytes"],
                    pt["compression_ratio"],
                    pt["certified_max_abs_error"], pt["mean_ms"],
                    pt["p99_ms"],
                )
            )
        return 0
    artifact, _ = run_serve_smoke(
        codec=codec,
        events_out=args.events,
        events_sample=args.events_sample,
        request_trace_out=args.request_trace,
        **common,
    )
    path = write_artifact(args.out, artifact)
    serve = artifact["serve"]
    print(f"wrote {path}")
    print(
        "  loads: naive={:d} opt={:d} alt={:d}  hit_rate={:.2f}  "
        "mean: naive={:.3f}ms opt={:.3f}ms ({:.1f}x)".format(
            int(serve["serve.naive.shard_loads"]),
            int(serve["serve.opt.shard_loads"]),
            int(serve["serve.alt.shard_loads"]),
            serve["serve.opt.hit_rate"],
            serve["serve.naive.mean_ms"],
            serve["serve.opt.mean_ms"],
            serve["serve.opt.mean_speedup"],
        )
    )
    print(
        "  codec={}: store={:d}B ({:.1f}x vs raw)  err<={:g}  "
        "raw_speedup={:.2f}x  short_circuits={:d}".format(
            artifact["params"]["codec"],
            int(serve["serve.store.store_bytes"]),
            serve["serve.store.compression_ratio"],
            serve["serve.error.certified_max_abs_error"],
            serve["serve.opt.raw_speedup"],
            int(serve["serve.alt.short_circuits"]),
        )
    )
    print(
        "  saturation: degraded={:d} shed={:d} admitted={:d}  "
        "p99={:.3f}ms".format(
            int(serve["serve.sat.degraded"]),
            int(serve["serve.sat.shed"]),
            int(serve["serve.sat.admitted"]),
            serve["serve.opt.p99_ms"],
        )
    )
    slo = artifact["serve_slo"]
    print(
        "  slo[point<= {:g}ms @ {:.0%}]: burn={:.2f} worst-window={:.2f} "
        "({:d}/{:d} violations)".format(
            slo["serve.slo.point.threshold_ms"],
            slo["serve.slo.point.objective"],
            slo["serve.slo.point.burn_rate"],
            slo["serve.slo.point.worst_window_burn_rate"],
            int(slo["serve.slo.point.violations"]),
            int(slo["serve.slo.point.total"]),
        )
    )
    if args.events:
        print(f"  events: {args.events}")
    if args.request_trace:
        print(f"  request trace: {args.request_trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
