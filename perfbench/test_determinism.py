"""Exact counts repeat for a seed: two traced runs must agree on them.

If the traffic, the update stream or the solve drifts by accident, the
counts below stop matching and the test fails.  Run from the root of
the repository with ``python3 -m pytest perfbench -q`` (a few minutes:
each run builds its stores three times).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")

EXACT = {
    "solve": [
        "core.pops", "core.edge_relaxations", "core.edge_improvements",
        "core.row_merges", "core.merge_comparisons", "core.flag_hits",
    ],
    "store-update": [
        "update.rows_resolved", "update.dirty_shard_frac",
        "update.clean_certified_frac", "update.rows_changed",
        "update.post_swap_hit_ratio", "engine.hit_ratio",
        "engine.shard_loads", "engine.bytes_loaded", "store.bytes",
    ],
    "serve": [
        "engine.hit_ratio", "engine.shard_loads", "engine.bytes_loaded",
        "router.failovers", "router.budget_waits", "admission.shed",
        "admission.degraded", "store.bytes",
    ],
}


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=RUN.parents[1],
        timeout=600,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_exact_counts_repeat(workload):
    first, second = traced_run(workload, 7), traced_run(workload, 7)
    for run in (first, second):
        assert run["correct"] and run["failed"] == 0
    counts = {name: first["metrics"][name]["value"] for name in EXACT[workload]}
    assert counts == {
        name: second["metrics"][name]["value"] for name in EXACT[workload]
    }
    # the workload really ran its layers: not every count is zero
    assert any(counts.values())
