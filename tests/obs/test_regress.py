"""The regression comparator: exact counters, tolerant timings, exits."""

import copy
from pathlib import Path

import pytest

from repro.obs import build_artifact, load_artifact, write_artifact
from repro.obs.regress import (
    check_kernel_consistency,
    compare_artifacts,
    main,
)


def make_artifact(**overrides):
    art = build_artifact(
        "gate",
        params={"graph": "rmat-s7", "threads": 8, "backend": "sim"},
        counters={"ops.row_merges": 522, "ops.edge_relaxations": 15525},
        timings={"virtual.total": 1000.0, "wall.elapsed": 0.25},
        gauges={"sim.utilization": 0.9},
    )
    for section, values in overrides.items():
        art[section] = {**art[section], **values}
    return art


class TestCompare:
    def test_identical_artifacts_pass(self):
        base = make_artifact()
        regressions, _ = compare_artifacts(base, copy.deepcopy(base))
        assert regressions == []

    def test_counter_increase_fails(self):
        cur = make_artifact(counters={"ops.row_merges": 523})
        regressions, _ = compare_artifacts(make_artifact(), cur)
        assert any("ops.row_merges" in r and "up" in r for r in regressions)

    def test_counter_decrease_also_fails_stale_baseline(self):
        cur = make_artifact(counters={"ops.row_merges": 500})
        regressions, _ = compare_artifacts(make_artifact(), cur)
        assert any("down" in r for r in regressions)

    def test_missing_counter_fails(self):
        cur = make_artifact()
        del cur["counters"]["ops.edge_relaxations"]
        regressions, _ = compare_artifacts(make_artifact(), cur)
        assert any("missing" in r for r in regressions)

    def test_new_counter_is_a_note_not_a_regression(self):
        cur = make_artifact(counters={"ops.flag_hits": 42})
        regressions, notes = compare_artifacts(make_artifact(), cur)
        assert regressions == []
        assert any("ops.flag_hits" in n for n in notes)

    def test_virtual_timing_within_tolerance_passes(self):
        cur = make_artifact(timings={"virtual.total": 1099.0})
        regressions, _ = compare_artifacts(make_artifact(), cur, rtol=0.10)
        assert regressions == []

    def test_virtual_timing_beyond_tolerance_fails(self):
        cur = make_artifact(timings={"virtual.total": 1101.0})
        regressions, _ = compare_artifacts(make_artifact(), cur, rtol=0.10)
        assert any("virtual.total" in r for r in regressions)

    def test_faster_is_never_a_regression(self):
        cur = make_artifact(timings={"virtual.total": 1.0})
        regressions, _ = compare_artifacts(make_artifact(), cur)
        assert regressions == []

    def test_wall_time_ignored_by_default(self):
        cur = make_artifact(timings={"wall.elapsed": 9999.0})
        regressions, notes = compare_artifacts(make_artifact(), cur)
        assert regressions == []
        assert any("wall.elapsed" in n for n in notes)

    def test_wall_time_gated_with_include_wall(self):
        cur = make_artifact(timings={"wall.elapsed": 9999.0})
        regressions, _ = compare_artifacts(
            make_artifact(), cur, include_wall=True
        )
        assert any("wall.elapsed" in r for r in regressions)

    def test_changed_param_fails_loudly(self):
        cur = make_artifact(params={"threads": 16})
        regressions, notes = compare_artifacts(make_artifact(), cur)
        # exactly ONE regression: the artifacts are incomparable — the
        # per-counter diffs that could never match must not pile on
        assert len(regressions) == 1
        assert "different solver configurations" in regressions[0]
        assert "threads" in regressions[0]
        assert "regenerate the baseline" in regressions[0]
        # per-key detail is demoted to the notes
        assert any("param threads" in n for n in notes)

    def test_incomparable_artifacts_skip_counter_diffs(self):
        cur = make_artifact(
            params={"algorithm": "johnson"},
            counters={"ops.row_merges": 1, "ops.edge_relaxations": 2},
        )
        base = make_artifact(params={"algorithm": "parapsp"})
        regressions, notes = compare_artifacts(base, cur)
        assert len(regressions) == 1
        assert not any(r.startswith("counter ") for r in regressions)
        assert any("comparison skipped" in n for n in notes)

    def test_ignore_excludes_key_from_gating(self):
        cur = make_artifact(counters={"ops.row_merges": 9999})
        regressions, notes = compare_artifacts(
            make_artifact(), cur, ignore=["ops.row_merges"]
        )
        assert regressions == []
        assert any("ignored" in n for n in notes)

    def test_gauge_drift_is_a_note(self):
        cur = make_artifact(gauges={"sim.utilization": 0.5})
        regressions, notes = compare_artifacts(make_artifact(), cur)
        assert regressions == []
        assert any("sim.utilization" in n for n in notes)

    def test_schema_mismatch_raises(self):
        cur = make_artifact()
        cur["schema"] = "repro.obs.bench/999"
        with pytest.raises(ValueError):
            compare_artifacts(make_artifact(), cur)

    def test_invalid_artifact_raises(self):
        cur = make_artifact()
        del cur["counters"]
        with pytest.raises(ValueError):
            compare_artifacts(make_artifact(), cur)


def traced_artifact(**fractions):
    summary = {
        "trace.makespan": 1000.0,
        "trace.lock_wait_fraction": 0.05,
        "trace.idle_fraction": 0.10,
        "trace.overhead_fraction": 0.08,
        "trace.compute_fraction": 0.77,
        "trace.phase.sweep.idle_fraction": 0.02,
        "trace.critical_path.length": 980.0,
    }
    summary.update(fractions)
    art = make_artifact()
    art["trace_summary"] = summary
    return art


class TestTraceSummaryGate:
    def test_identical_passes(self):
        regressions, _ = compare_artifacts(
            traced_artifact(), traced_artifact()
        )
        assert regressions == []

    def test_fraction_growth_past_atol_fails(self):
        cur = traced_artifact(**{"trace.idle_fraction": 0.14})
        regressions, _ = compare_artifacts(traced_artifact(), cur)
        assert any("trace.idle_fraction" in r for r in regressions)

    def test_growth_within_atol_passes(self):
        cur = traced_artifact(**{"trace.idle_fraction": 0.11})
        regressions, _ = compare_artifacts(traced_artifact(), cur)
        assert regressions == []

    def test_fraction_drop_is_an_improvement(self):
        cur = traced_artifact(**{"trace.lock_wait_fraction": 0.0})
        regressions, notes = compare_artifacts(traced_artifact(), cur)
        assert regressions == []
        assert any("trace.lock_wait_fraction" in n for n in notes)

    def test_phase_scoped_fractions_also_gate(self):
        cur = traced_artifact(**{"trace.phase.sweep.idle_fraction": 0.30})
        regressions, _ = compare_artifacts(traced_artifact(), cur)
        assert any(
            "trace.phase.sweep.idle_fraction" in r for r in regressions
        )

    def test_makespan_and_critical_path_are_notes(self):
        cur = traced_artifact(**{
            "trace.makespan": 2000.0,
            "trace.critical_path.length": 1900.0,
        })
        regressions, notes = compare_artifacts(traced_artifact(), cur)
        assert regressions == []
        assert any("trace.makespan" in n for n in notes)

    def test_summary_dropped_from_current_fails(self):
        regressions, _ = compare_artifacts(traced_artifact(), make_artifact())
        assert any("trace_summary" in r for r in regressions)

    def test_baseline_without_summary_is_a_note(self):
        regressions, notes = compare_artifacts(
            make_artifact(), traced_artifact()
        )
        assert regressions == []
        assert any("trace_summary" in n for n in notes)

    def test_gated_key_missing_from_current_fails(self):
        cur = traced_artifact()
        del cur["trace_summary"]["trace.idle_fraction"]
        regressions, _ = compare_artifacts(traced_artifact(), cur)
        assert any(
            "trace.idle_fraction" in r and "missing" in r
            for r in regressions
        )

    def test_ignore_excludes_trace_key(self):
        cur = traced_artifact(**{"trace.idle_fraction": 0.5})
        regressions, notes = compare_artifacts(
            traced_artifact(), cur, ignore=["trace.idle_fraction"]
        )
        assert regressions == []
        assert any("ignored" in n for n in notes)


def consistent_kernel_counters(**overrides):
    """A counter set satisfying every cross-layer invariant.

    12 pops: 4 merges (3 row calls + 1 batched row) and 8 relax events
    (5 row calls + 3 batched segments), 40 attempted arcs, 9 improved.
    """
    counters = {
        "ops.pops": 12,
        "ops.row_merges": 4,
        "ops.edge_relaxations": 40,
        "ops.edge_improvements": 9,
        "kernel.merge_row.calls": 3,
        "kernel.batch.merge.rows": 1,
        "kernel.relax.calls": 5,
        "kernel.batch.relax.segments": 3,
        "kernel.relax.attempted": 25,
        "kernel.batch.relax.attempted": 15,
        "kernel.relax.improved": 6,
        "kernel.batch.relax.improved": 3,
    }
    counters.update(overrides)
    return counters


class TestKernelConsistency:
    def test_consistent_counters_pass(self):
        assert check_kernel_consistency(consistent_kernel_counters()) == []

    def test_no_kernel_counters_skips(self):
        assert check_kernel_consistency({"ops.row_merges": 99}) == []

    def test_merge_count_mismatch_detected(self):
        problems = check_kernel_consistency(
            consistent_kernel_counters(**{"kernel.merge_row.calls": 2})
        )
        assert any("ops.row_merges" in p for p in problems)

    def test_attempted_mismatch_detected(self):
        problems = check_kernel_consistency(
            consistent_kernel_counters(**{"kernel.relax.attempted": 24})
        )
        assert any("ops.edge_relaxations" in p for p in problems)

    def test_improved_mismatch_detected(self):
        problems = check_kernel_consistency(
            consistent_kernel_counters(**{"kernel.batch.relax.improved": 4})
        )
        assert any("ops.edge_improvements" in p for p in problems)

    def test_relax_events_over_pop_budget_detected(self):
        problems = check_kernel_consistency(
            consistent_kernel_counters(**{"kernel.relax.calls": 9})
        )
        assert any("exceeds" in p for p in problems)

    def test_heap_stale_pops_leave_slack(self):
        # lazy heap deletion: pops exceed kernel events — allowed
        counters = consistent_kernel_counters(**{"ops.pops": 20})
        assert check_kernel_consistency(counters) == []

    def test_compare_artifacts_gates_on_inconsistency(self):
        base = make_artifact()
        cur = make_artifact(
            counters=consistent_kernel_counters(
                **{"kernel.merge_row.calls": 2}
            )
        )
        cur_base = make_artifact(
            counters=consistent_kernel_counters(
                **{"kernel.merge_row.calls": 2}
            )
        )
        regressions, _ = compare_artifacts(cur_base, cur)
        assert any("kernel consistency" in r for r in regressions)
        regressions, _ = compare_artifacts(base, copy.deepcopy(base))
        assert regressions == []

    def test_real_sweep_counters_are_consistent(self, small_weighted):
        """End to end: a real batched run satisfies the invariants."""
        import numpy as np

        from repro.core.sweep import run_sweep
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        n = small_weighted.num_vertices
        with use_registry(registry):
            outcome = run_sweep(
                small_weighted, np.arange(n), block_size=16
            )
        counters = registry.counters()
        total = outcome.total_ops()
        counters.update(
            {f"ops.{k}": v for k, v in total.as_dict().items()}
        )
        assert check_kernel_consistency(counters) == []


class TestMainExitCodes:
    def write(self, tmp_path, name, art):
        path = str(tmp_path / name)
        write_artifact(path, art)
        return path

    def test_exit_zero_on_match(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", make_artifact())
        cur = self.write(tmp_path, "cur.json", make_artifact())
        assert main([base, cur]) == 0
        assert "no regression" in capsys.readouterr().out

    def test_exit_one_on_injected_count_regression(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", make_artifact())
        cur = self.write(
            tmp_path,
            "cur.json",
            make_artifact(counters={"ops.row_merges": 532}),
        )
        assert main([base, cur]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_exit_two_on_missing_file(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", make_artifact())
        assert main([base, str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_exit_two_on_schema_mismatch(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", make_artifact())
        other = make_artifact()
        other["schema"] = "repro.obs.bench/9"
        cur = self.write(tmp_path, "cur.json", other)
        assert main([base, cur]) == 2
        assert "schema mismatch" in capsys.readouterr().err

    def test_rtol_flag_controls_timing_gate(self, tmp_path):
        base = self.write(tmp_path, "base.json", make_artifact())
        cur = self.write(
            tmp_path,
            "cur.json",
            make_artifact(timings={"virtual.total": 1200.0}),
        )
        assert main([base, cur]) == 1
        assert main([base, cur, "--rtol", "0.25"]) == 0


BASELINE_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"

COMMITTED_BASELINES = [
    "BENCH_dist.json",
    "BENCH_serve.json",
    "BENCH_serve_f4.json",
    "BENCH_serve_u16q.json",
    "BENCH_smoke.json",
    "BENCH_smoke_batched.json",
    "BENCH_smoke_delta.json",
    "BENCH_smoke_johnson.json",
    "BENCH_update.json",
]


@pytest.mark.parametrize("name", COMMITTED_BASELINES)
def test_committed_baseline_matches_itself(name):
    art = load_artifact(str(BASELINE_DIR / name))
    regressions, _ = compare_artifacts(art, copy.deepcopy(art))
    assert regressions == []


#: one small section per optional gate, shaped like the committed baselines
SECTION_PAYLOADS = {
    "faults": {
        "faults.sim.deaths": 1,
        "faults.sim.requeued_iterations": 1,
        "faults.sim.stalls": 0,
        "faults.virtual.total": 1000.0,
    },
    "update": {
        "update.cost_ratio": 0.25,
        "update.dirty_shards": 1.0,
        "update.fingerprint": 2677263346.0,
        "update.observed_max_abs_error": 0.0,
        "update.rows_resolved": 16.0,
        "update.store_bytes": 131072.0,
    },
    "dist": {
        "dist.build.makespan": 40000.0,
        "dist.build.network_bytes": 98304.0,
        "dist.loss.failovers": 99.0,
        "dist.loss.node_losses": 1.0,
        "dist.loss.p99_ms": 2.0,
        "dist.route.answer_fingerprint": 2416227700.0,
        "dist.route.drill_us": 50.0,
        "dist.skew.shard_loads": 55.0,
        "dist.store.fingerprint": 1317785840.0,
    },
}

#: (section, key, value in current, regression expected) at rtol 0.10
SECTION_CASES = [
    # faults: virtual recovery timings gate upward by rtol
    ("faults", "faults.virtual.total", 1101.0, True),
    ("faults", "faults.virtual.total", 1099.0, False),
    ("faults", "faults.virtual.total", 10.0, False),
    # faults: every other key is an exact event count
    ("faults", "faults.sim.deaths", 2, True),
    ("faults", "faults.sim.deaths", 0, True),
    ("faults", "faults.sim.requeued_iterations", 2, True),
    ("faults", "faults.sim.stalls", 1, True),
    # update: every key exact, in either direction
    ("update", "update.cost_ratio", 0.5, True),
    ("update", "update.cost_ratio", 0.125, True),
    ("update", "update.dirty_shards", 2.0, True),
    ("update", "update.dirty_shards", 0.0, True),
    ("update", "update.fingerprint", 1.0, True),
    ("update", "update.observed_max_abs_error", 1e-9, True),
    ("update", "update.rows_resolved", 15.0, True),
    ("update", "update.store_bytes", 131073.0, True),
    # dist: fingerprints exact
    ("dist", "dist.route.answer_fingerprint", 2416227701.0, True),
    ("dist", "dist.route.answer_fingerprint", 2416227699.0, True),
    ("dist", "dist.store.fingerprint", 1.0, True),
    # dist: latencies, network volume and makespans gate upward by rtol
    ("dist", "dist.loss.p99_ms", 2.3, True),
    ("dist", "dist.loss.p99_ms", 2.1, False),
    ("dist", "dist.loss.p99_ms", 0.5, False),
    ("dist", "dist.build.network_bytes", 120000.0, True),
    ("dist", "dist.build.network_bytes", 1.0, False),
    ("dist", "dist.build.makespan", 45000.0, True),
    ("dist", "dist.build.makespan", 40000.0 * 1.05, False),
    ("dist", "dist.build.makespan", 100.0, False),
    ("dist", "dist.route.drill_us", 60.0, True),
    ("dist", "dist.route.drill_us", 40.0, False),
    # dist: event counts exact
    ("dist", "dist.loss.failovers", 100.0, True),
    ("dist", "dist.loss.failovers", 98.0, True),
    ("dist", "dist.loss.node_losses", 0.0, True),
    ("dist", "dist.skew.shard_loads", 56.0, True),
]


def with_section(section, **changes):
    art = make_artifact()
    art[section] = {**SECTION_PAYLOADS[section], **changes}
    return art


class TestSectionGates:
    @pytest.mark.parametrize("section", sorted(SECTION_PAYLOADS))
    def test_identical_section_passes(self, section):
        regressions, _ = compare_artifacts(
            with_section(section), with_section(section)
        )
        assert regressions == []

    @pytest.mark.parametrize(
        "section,key,value,fails",
        SECTION_CASES,
        ids=[f"{key}={value!r}" for _, key, value, _ in SECTION_CASES],
    )
    def test_single_key_mutation(self, section, key, value, fails):
        cur = with_section(section, **{key: value})
        regressions, _ = compare_artifacts(with_section(section), cur)
        if fails:
            assert any(key in r for r in regressions), regressions
        else:
            assert regressions == []

    @pytest.mark.parametrize("section", sorted(SECTION_PAYLOADS))
    def test_missing_key_fails(self, section):
        cur = with_section(section)
        key = sorted(cur[section])[0]
        del cur[section][key]
        regressions, _ = compare_artifacts(with_section(section), cur)
        assert any(key in r and "missing" in r for r in regressions)

    @pytest.mark.parametrize("section", sorted(SECTION_PAYLOADS))
    def test_missing_section_fails(self, section):
        regressions, _ = compare_artifacts(
            with_section(section), make_artifact()
        )
        assert any(section in r and "missing" in r for r in regressions)

    @pytest.mark.parametrize("section", sorted(SECTION_PAYLOADS))
    def test_section_new_in_current_is_a_note(self, section):
        regressions, notes = compare_artifacts(
            make_artifact(), with_section(section)
        )
        assert regressions == []
        assert any(section in n for n in notes)

    def test_update_cost_ratio_rise_is_named(self):
        cur = with_section("update", **{"update.cost_ratio": 0.5})
        regressions, _ = compare_artifacts(with_section("update"), cur)
        assert any(
            r.startswith("update update.cost_ratio: 0.25 -> 0.5")
            and "rebuild-shaped" in r
            for r in regressions
        )
