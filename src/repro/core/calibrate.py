"""Calibrating the cost model against this host's wall clock.

Work units are abstract, but a user who wants "roughly how long would
ParAPSP take on a 16-core box like mine?" needs a unit→seconds factor
and, ideally, host-fitted per-operation weights.  This module provides
both:

* :func:`measure_sweeps` — time real modified-Dijkstra sweeps on a
  calibration graph and collect (op-count, seconds) samples;
* :func:`fit_cost_model` — non-negative least squares over the samples,
  producing a :class:`~repro.core.costs.DijkstraCostModel` whose units
  are *seconds on this host* (and therefore a seconds-per-work-unit
  interpretation of simulated makespans).

The shipped default constants (see ``docs/simulation_model.md``) stay
deliberately architectural; calibration is opt-in for users who want
host-specific absolute numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .costs import DijkstraCostModel
from .modified_dijkstra import modified_dijkstra_sssp
from .state import new_state
from ..exceptions import ValidationError
from ..graphs.csr import CSRGraph
from ..types import OpCounts

__all__ = ["CalibrationSample", "measure_sweeps", "fit_cost_model"]


@dataclass(frozen=True)
class CalibrationSample:
    """One timed batch: summed operation counts, calls, wall duration."""

    counts: OpCounts
    seconds: float
    calls: int = 1


def measure_sweeps(
    graph: CSRGraph,
    *,
    max_sources: Optional[int] = None,
    batch: int = 16,
    queue: str = "fifo",
) -> List[CalibrationSample]:
    """Run timed modified-Dijkstra sweeps over (a prefix of) the
    sources, with flag reuse active so merge-heavy and relax-heavy
    sweeps both appear in the sample.

    Individual sweeps finish in microseconds and drown in timer noise,
    so sweeps are timed in batches of ``batch``: each sample carries
    the summed counts and the batch wall time (the regression is
    linear, so batch aggregation keeps the fit unbiased while averaging
    the noise away).
    """
    n = graph.num_vertices
    if n == 0:
        raise ValidationError("cannot calibrate on an empty graph")
    if batch < 1:
        raise ValidationError("batch must be >= 1")
    state = new_state(n)
    limit = n if max_sources is None else min(n, max_sources)
    samples: List[CalibrationSample] = []
    s = 0
    while s < limit:
        hi = min(s + batch, limit)
        total = OpCounts()
        t0 = time.perf_counter()
        for src in range(s, hi):
            total += modified_dijkstra_sssp(graph, src, state, queue=queue)
        samples.append(
            CalibrationSample(total, time.perf_counter() - t0, calls=hi - s)
        )
        s = hi
    return samples


def fit_cost_model(
    samples: List[CalibrationSample],
) -> Tuple[DijkstraCostModel, float]:
    """Least-squares fit of per-operation seconds from timed sweeps.

    Returns ``(model, r_squared)``.  The model's unit is seconds; a
    simulated makespan computed with it reads directly as an estimated
    wall time for the simulated machine.  Negative fitted coefficients
    (possible when features are collinear on a small sample) are
    clipped to zero before the fixed-cost refit.
    """
    if len(samples) < 5:
        raise ValidationError(
            f"need at least 5 calibration samples, got {len(samples)}"
        )
    features = np.array(
        [
            [
                float(s.calls),  # per-call fixed cost
                s.counts.pops,
                s.counts.edge_relaxations,
                s.counts.merge_comparisons,
                s.counts.row_merges,
            ]
            for s in samples
        ]
    )
    y = np.array([s.seconds for s in samples])
    # true non-negative least squares — plain lstsq + clipping degrades
    # badly on collinear samples
    from scipy.optimize import nnls

    coef, _residual = nnls(features, y)
    pred = features @ coef
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    model = DijkstraCostModel(
        call=float(coef[0]),
        pop=float(coef[1]),
        edge_relaxation=float(coef[2]),
        merge_comparison=float(coef[3]),
        row_merge=float(coef[4]),
    )
    return model, r2
