"""Workload ``solve``: in-memory ParAPSP against scipy's C Dijkstra.

Sixteen R-MAT graphs drawn from the seed, each scale 11 (n=2048) with
edge factor 8 and unit weights; ParAPSP with the blocked kernel at
block 128 on the serial backend: the headline configuration, at the
size where ParAPSP meets scipy.  It runs
``graphs``, ``order`` and ``core``'s flagged sweep and nothing of
``serve``.  Unit weights make every distance a small integer, so each
ParAPSP matrix must equal scipy's bit for bit.
"""

from __future__ import annotations

import gc
import time

from harness import SetupSamples, median, scipy_apsp, scipy_csr, timed

SCALE = 11
EDGE_FACTOR = 8
BLOCK = 128
#: graphs per run, drawn from the seed.  ParAPSP's time depends on the
#: graph (pops vary by a quarter between R-MAT seeds) while scipy's
#: hardly does, so one graph per run would make the ratio swing with
#: the seed; each run visits every graph equally often instead.
GRAPHS = 16
#: seconds between set-up samples: one generation of the graphs takes
#: about 0.13 s, so sampling after about every pair is cheap
SETUP_INTERVAL = 1.0
#: repeats of the serial-vs-process probe in traced mode
PROCESS_REPEATS = 2


def run(seed: int, seconds: float, traced: bool, report, work) -> None:
    from repro.core import solve_apsp
    from repro.graphs import rmat

    def make_graphs():
        return [rmat(SCALE, EDGE_FACTOR, seed=seed * GRAPHS + j)
                for j in range(GRAPHS)]

    graphs, first = timed(make_graphs)
    setups = SetupSamples(first, lambda: timed(make_graphs)[1],
                          SETUP_INTERVAL)
    matrices = [scipy_csr(g) for g in graphs]

    def solve(graph, **kwargs):
        return solve_apsp(
            graph, algorithm="parapsp", block_size=BLOCK, kernel="blocked",
            **kwargs,
        )

    def check(result, expect) -> None:
        # unit weights: every distance is a small integer, so ParAPSP
        # must match scipy bit for bit
        report.check(
            result is not None
            and result.dist.tobytes() == expect.tobytes(),
            "ParAPSP matrix differs from scipy",
        )

    first = report.guard(solve, graphs[0])  # warm-up: lazy imports, allocator
    check(first, scipy_apsp(matrices[0]))
    del first
    gc.collect()
    #: per graph: OpCounts of its first solve
    ops = [None] * GRAPHS

    def measure(budget: float):
        """Rounds over all graphs.  Which of a pair runs first
        alternates from pair to pair and flips for each graph from round
        to round.  Returns per-graph ``(t_parapsp, t_scipy,
        phase_times)`` lists."""
        pairs = [[] for _ in range(GRAPHS)]
        end = time.perf_counter() + budget
        done = 0
        while time.perf_counter() < end or done % GRAPHS or not done:
            j = done % GRAPHS
            graph, matrix = graphs[j], matrices[j]
            if (done + done // GRAPHS) % 2 == 0:
                expect, t_ref = timed(scipy_apsp, matrix)
                result, t_sys = timed(report.guard, solve, graph)
            else:
                result, t_sys = timed(report.guard, solve, graph)
                expect, t_ref = timed(scipy_apsp, matrix)
            check(result, expect)
            done += 1
            if result is None:
                continue
            if ops[j] is None:
                ops[j] = result.ops
            report.check(result.ops == ops[j],
                         "OpCounts differ between identical serial solves")
            pairs[j].append((t_sys, t_ref, result.phase_times))
            del result, expect
            end += setups.due()
        return pairs

    def op_over_ref(pairs) -> float:
        flat = [p for per_graph in pairs for p in per_graph]
        return sum(p[0] for p in flat) / sum(p[1] for p in flat)

    pairs = measure(seconds / 2 if traced else seconds)
    report.e2e["op_over_ref"] = op_over_ref(pairs)
    report.e2e["setup_s"] = setups.median()
    report.refs.extend(p[1] for per_graph in pairs for p in per_graph)
    report.bases["core.parapsp_s"] = median(
        p[0] for per_graph in pairs for p in per_graph)
    # the paper's headline against C: each graph's median pair ratio
    report.bases["core.solve_over_scipy"] = sum(
        median(s / r for s, r, _ in per_graph) for per_graph in pairs
    ) / GRAPHS
    if not traced:
        return

    pairs_t = measure(seconds / 2)
    report.overhead(op_over_ref(pairs_t))
    flat = [p for per_graph in pairs + pairs_t for p in per_graph]
    report.refs.extend(p[1] for per_graph in pairs_t for p in per_graph)
    layers = report.layers
    layers["order.ordering_s"] = median(p[2].ordering for p in flat)
    layers["core.sweep_s"] = median(p[2].dijkstra for p in flat)
    for name in ("pops", "edge_relaxations", "edge_improvements",
                 "row_merges", "merge_comparisons", "flag_hits"):
        layers[f"core.{name}"] = sum(getattr(o, name) for o in ops)
    layers["core.improve_frac"] = (layers["core.edge_improvements"]
                                   / layers["core.edge_relaxations"])
    # a merge compares one element of two f8 rows and may store one
    layers["core.merge_bytes_computed"] = layers["core.merge_comparisons"] * 24

    serial = median(p[0] for p in pairs[0] + pairs_t[0])
    expect = scipy_apsp(matrices[0])
    process = []
    for _ in range(PROCESS_REPEATS):
        result, dt = timed(report.guard, solve, graphs[0], backend="process",
                           num_threads=2)
        check(result, expect)
        process.append(dt)
    layers["parallel.process2_speedup"] = serial / median(process)
