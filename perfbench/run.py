"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload serve --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` measures the per-layer metrics instead, timing calls into
each layer's public functions from outside, and reports how much the
tracing itself moved ``op_over_ref``.  The metric names and units come
from ``BENCHMARK.json``; ``perfbench/README.md`` defines each one.

Earlier lines of output are for people: the host record at the start
and end of the run, each ratio's base, and any failed checks.  The last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every answer the program gives is checked against scipy;
a mismatch, a shed or degraded answer, or an exception counts as a
failed operation.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import harness

WORKLOADS = ("solve", "store-update", "serve")
#: failure messages printed before the rest are only counted
MAX_LOGGED = 5


class Report:
    """What one run measured and checked."""

    def __init__(self) -> None:
        self.e2e: dict = {}
        self.layers: dict = {}
        #: bases of the ratios, printed for people, never gated
        self.bases: dict = {}
        #: every scipy reference time of the run (seconds)
        self.refs: list = []
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, message) -> None:
        """Count one checked operation; ``message`` may be a callable."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= MAX_LOGGED:
                text = message() if callable(message) else message
                print(f"FAILED: {text}", file=sys.stderr)

    def guard(self, fn, *args, **kwargs):
        """Call into the program; an exception is logged and gives None,
        which the caller's check then counts as a failure."""
        try:
            return fn(*args, **kwargs)
        except Exception:
            if self.failed < MAX_LOGGED:
                traceback.print_exc()
            return None

    def overhead(self, traced_op_over_ref: float) -> None:
        self.layers["trace.overhead.op_over_ref"] = (
            traced_op_over_ref - self.e2e["op_over_ref"]
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    harness.load_repro()
    import wl_serve
    import wl_solve
    import wl_store

    workload = {"solve": wl_solve, "store-update": wl_store,
                "serve": wl_serve}[args.workload]
    print("host start:", json.dumps(harness.host_record()))
    report = Report()
    try:
        with harness.workdir() as work:
            workload.run(args.seed, args.seconds, bool(args.trace), report,
                         work)
    finally:
        harness.stop_helpers()
    report.e2e["peak_rss_mb"] = harness.peak_rss_mb()
    report.bases["core.scipy_ref_s"] = harness.median(report.refs)
    for name, value in report.bases.items():
        report.layers.setdefault(name, value)
    print("host end:", json.dumps(harness.host_record()))
    for name, value in sorted(report.bases.items()):
        print(f"base {name} = {value:.6g}")

    if args.trace:
        wanted, measured = spec["per_layer"], report.layers
        # a layer the workload never calls did no work: report 0
        idle = sorted(m["name"] for m in wanted if m["name"] not in measured)
        print(f"layers not exercised by {args.workload}: {', '.join(idle)}")
    else:
        wanted, measured = spec["end_to_end"], report.e2e
        missing = [m["name"] for m in wanted if m["name"] not in measured]
        if missing:
            raise SystemExit(f"perfbench: {args.workload} did not measure "
                             f"{missing}")
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in wanted
    }
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
