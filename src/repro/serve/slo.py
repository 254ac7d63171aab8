"""Latency SLOs and error-budget burn rates over histogram windows.

An :class:`SLOSpec` states the objective ("99% of point queries answer
within 2 ms, measured over 50 ms windows"); :func:`evaluate_slo` folds
a stream of ``(arrival, latency, trace_id)`` samples into per-window
:class:`~repro.obs.hist.LatencyHistogram` snapshots and reports the
**burn rate** — violations as a multiple of the window's error budget
(burn 1.0 = exactly spending the budget, > 1.0 = on course to miss the
objective).

The evaluation is deliberately clock-agnostic: windows are keyed by the
sample's *arrival time*, which both
:func:`~repro.serve.replay.replay_virtual` (virtual clock) and
:func:`~repro.serve.replay.replay_threaded` (wall clock) report from
the same seeded traffic trace — so the identical code path scores both
replays, and under the virtual clock the whole report is
byte-deterministic and CI gates its burn rate upward-only.

Violations are counted through :meth:`LatencyHistogram.count_le`, i.e.
the threshold is measured to the histogram's certified relative error —
consistent with how the quantiles in the same bench section are
reported, and deterministic whatever order samples arrived in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from ..exceptions import ServeError
from ..obs.hist import LatencyHistogram

__all__ = ["SLOSpec", "SLOReport", "evaluate_slo"]


@dataclass(frozen=True)
class SLOSpec:
    """One latency objective: P(latency <= threshold) >= objective."""

    name: str = "point"
    threshold: float = 0.002   # seconds
    objective: float = 0.99    # fraction of requests inside threshold
    window: float = 0.05       # error-budget window, seconds of arrival

    def __post_init__(self) -> None:
        if not self.name:
            raise ServeError("SLO name must be non-empty")
        if not (isinstance(self.threshold, (int, float))
                and math.isfinite(self.threshold) and self.threshold > 0):
            raise ServeError(
                f"SLO threshold must be a finite number > 0, "
                f"got {self.threshold!r}"
            )
        if not (isinstance(self.objective, (int, float))
                and 0.0 < float(self.objective) < 1.0):
            raise ServeError(
                f"SLO objective must be strictly inside (0, 1), "
                f"got {self.objective!r}"
            )
        if not (isinstance(self.window, (int, float))
                and math.isfinite(self.window) and self.window > 0):
            raise ServeError(
                f"SLO window must be a finite number > 0, "
                f"got {self.window!r}"
            )

    @property
    def budget(self) -> float:
        """Allowed violation fraction per window (the error budget)."""
        return 1.0 - float(self.objective)


@dataclass(frozen=True)
class SLOReport:
    """Outcome of evaluating one :class:`SLOSpec` over a replay."""

    spec: SLOSpec
    total: int
    violations: int
    compliance: float             # fraction of samples inside threshold
    burn_rate: float              # overall violations / budget
    worst_window_burn_rate: float
    num_windows: int

    @property
    def healthy(self) -> bool:
        """Inside budget overall (burn <= 1)."""
        return self.burn_rate <= 1.0

    def to_flat(self, prefix: str) -> Dict[str, float]:
        """Flat numeric dict for a BENCH artifact section, gated by
        ``repro.obs.regress`` (``burn_rate`` keys upward-only)."""
        return {
            f"{prefix}.threshold_ms": self.spec.threshold * 1e3,
            f"{prefix}.objective": float(self.spec.objective),
            f"{prefix}.window_ms": self.spec.window * 1e3,
            f"{prefix}.total": float(self.total),
            f"{prefix}.violations": float(self.violations),
            f"{prefix}.compliance": self.compliance,
            f"{prefix}.num_windows": float(self.num_windows),
            f"{prefix}.burn_rate": self.burn_rate,
            f"{prefix}.worst_window_burn_rate": self.worst_window_burn_rate,
        }

    def format(self) -> str:
        state = "OK" if self.healthy else "BURNING"
        return (
            f"slo[{self.spec.name}] <= {self.spec.threshold * 1e3:g} ms "
            f"for {self.spec.objective:.0%}: {state} "
            f"compliance={self.compliance:.4f} burn={self.burn_rate:.2f} "
            f"worst-window={self.worst_window_burn_rate:.2f} "
            f"({self.violations}/{self.total} violations, "
            f"{self.num_windows} windows)"
        )


def windowed_histograms(
    spec: SLOSpec,
    samples: Iterable[Tuple[float, float, Optional[str]]],
    **hist_kwargs: Any,
) -> Dict[int, LatencyHistogram]:
    """Per-window histograms, keyed by ``floor(arrival / window)``."""
    windows: Dict[int, LatencyHistogram] = {}
    for arrival, latency, trace_id in samples:
        key = int(math.floor(float(arrival) / spec.window))
        hist = windows.get(key)
        if hist is None:
            hist = windows[key] = LatencyHistogram(**hist_kwargs)
        hist.record(latency, trace_id)
    return windows


def evaluate_slo(
    spec: SLOSpec,
    samples: Iterable[Tuple[float, float, Optional[str]]],
    **hist_kwargs: Any,
) -> SLOReport:
    """Score ``samples`` (``(arrival, latency, trace_id)``) against ``spec``.

    An empty sample stream is vacuously compliant (no traffic burns no
    budget).  Burn rates divide by the budget, so an objective of 0.99
    with 2% violations reports burn 2.0.
    """
    windows = windowed_histograms(spec, samples, **hist_kwargs)
    total = 0
    violations = 0
    worst = 0.0
    for hist in windows.values():
        window_total = hist.count
        window_ok = hist.count_le(spec.threshold)
        window_bad = window_total - window_ok
        total += window_total
        violations += window_bad
        if window_total:
            burn = (window_bad / window_total) / spec.budget
            worst = max(worst, burn)
    compliance = 1.0 if total == 0 else (total - violations) / total
    burn_rate = 0.0 if total == 0 else \
        ((violations / total) / spec.budget)
    return SLOReport(
        spec=spec,
        total=total,
        violations=violations,
        compliance=compliance,
        burn_rate=burn_rate,
        worst_window_burn_rate=worst,
        num_windows=len(windows),
    )


def merged_histogram(
    windows: Dict[int, LatencyHistogram]
) -> LatencyHistogram:
    """Fold per-window histograms into one (exercises mergeability)."""
    if not windows:
        return LatencyHistogram()
    keys = sorted(windows)
    first = windows[keys[0]]
    merged = LatencyHistogram(
        v_min=first.v_min, gamma=first.gamma,
        num_buckets=first.num_buckets,
    )
    for key in keys:
        merged = merged.merge(windows[key])
    return merged
