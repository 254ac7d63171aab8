"""Artifact comparator: the CI perf gate.

``python -m repro.obs.regress baseline.json current.json`` diffs two
``BENCH_*.json`` artifacts and exits non-zero on a regression.

Workload identity (``params``) must match exactly: artifacts from
different solvers or configs are *incomparable*, so any mismatch fails
with one message and skips every other section.  The other sections
are gated key by key by :data:`SECTIONS`, where the first rule whose
glob matches a key picks its gate:

* ``exact`` — any change fails, in either direction (op counts, seeded
  replay event counts, fingerprints, certified error bounds: fewer
  means a stale baseline, more a regression);
* ``up`` — may exceed the baseline by ``--rtol`` (virtual time, bytes);
* ``up0`` — any rise fails, a drop is an improvement (burn rates);
* ``up_abs`` / ``down_abs`` — may move the wrong way by :data:`ATOL`
  (fractions in [0, 1], where a relative tolerance is meaningless);
* ``wall`` — host wall-clock, gated like ``up`` with ``--include-wall``;
* ``note`` — reported, never gated.

A key missing from the current artifact fails unless its gate is
``note``; a key new in it is a note unless its section says new keys
fail.  A section in the baseline but not in the current artifact
fails.  ``--ignore KEY`` demotes a key to a note.  Artifacts with
``kernel.*`` counters must also pass :func:`check_kernel_consistency`.
``env``, ``gauges`` and ``spans`` are reported, never gated.

Exit codes: 0 = no regression, 1 = regression, 2 = bad input.
"""

from __future__ import annotations

import argparse
import sys
from fnmatch import fnmatchcase
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .artifact import load_artifact, validate_artifact

__all__ = ["check_kernel_consistency", "compare_artifacts", "main"]

#: tolerance of the ``up_abs`` / ``down_abs`` gates on [0, 1] fractions
ATOL = 0.02

#: ``(key globs, gate, why)``; ``why`` ends the message of a failure
Rule = Tuple[Tuple[str, ...], str, str]

#: section -> (label, message when it is missing from the current
#: artifact, new keys fail, rules); the first rule matching a key wins.
#: ``counters`` and ``timings`` are required, so never missing
SECTIONS: Dict[str, Tuple[str, str, bool, Tuple[Rule, ...]]] = {
    "counters": ("counter", "", False, (
        (("*",), "exact", "op counts must match the baseline exactly"),
    )),
    "timings": ("timing", "", False, (
        (("wall.*",), "wall", ""),
        (("*",), "up", ""),
    )),
    "trace_summary": ("trace", "trace_summary present in baseline but missing "
                      "from current artifact (tracing disabled?)", False, (
        (("*lock_wait_fraction", "*idle_fraction", "*overhead_fraction"),
         "up_abs", ""),
        (("*",), "note", ""),
    )),
    "faults": ("fault", "faults section present in baseline but missing from "
               "current artifact (fault-injection run skipped?)", False, (
        (("faults.virtual.*",), "up", ""),
        (("*",), "exact", "injected-fault event counts must match exactly"),
    )),
    "serve": ("serve", "serve section present in baseline but missing from "
              "current artifact (serve bench skipped?)", False, (
        (("*max_abs_error",), "exact", "error bounds are an answer contract"),
        (("*store_bytes", "*bytes_loaded"), "up", "byte totals gate upward"),
        (("*hit_rate", "*speedup"), "down_abs", ""),
        (("*_ms",), "up", ""),
        (("*",), "exact", "replay event counts must match exactly"),
    )),
    "serve_latency_hist": ("hist", "serve_latency_hist present in baseline but "
                           "missing from current artifact (telemetry "
                           "disabled in the bench?)", True, (
        (("*",), "exact", "the virtual-replay latency distribution changed"),
    )),
    "serve_slo": ("slo", "serve_slo present in baseline but missing from "
                  "current artifact (SLO evaluation skipped in the bench?)",
                  False, (
        (("*burn_rate",), "up0", "the same traffic burns its budget faster"),
        (("*",), "exact", "SLO parameters and violation counts gate exactly"),
    )),
    "update": ("update", "update section present in baseline but missing from "
               "current artifact (update bench skipped?)", False, (
        (("update.cost_ratio",), "exact",
         "a rise means more rebuild-shaped work per batch"),
        (("*",), "exact", "the update bench is deterministic"),
    )),
    "dist": ("dist", "dist section present in baseline but missing from "
             "current artifact (dist bench skipped?)", False, (
        (("*fingerprint",), "exact",
         "routed answers must match the single-node store bitwise"),
        (("*_ms", "*network_bytes", "*makespan", "*_us"), "up",
         "network volume and routed latencies gate upward"),
        (("*",), "exact", "failover/loss/rebalance event counts gate exactly"),
    )),
}


def check_kernel_consistency(
    counters: Mapping[str, float],
) -> List[str]:
    """Cross-check ``kernel.*`` call accounting against ``ops.*`` totals.

    The row kernels and the blocked kernels instrument the *same
    logical operations* that the per-source ``OpCounts`` record, so on
    any artifact that carries both families the following must hold:

    * every row merge went through exactly one kernel call::

        kernel.merge_row.calls + kernel.batch.merge.rows
            == ops.row_merges

    * every attempted arc relaxation was issued by exactly one kernel::

        kernel.relax.attempted + kernel.batch.relax.attempted
            == ops.edge_relaxations

      and likewise for the improved counts vs
      ``ops.edge_improvements``;

    * every relax event corresponds to one non-merge pop::

        kernel.relax.calls + kernel.batch.relax.segments
            <= ops.pops - ops.row_merges

      (equality for the FIFO discipline; the heap's lazy deletion pops
      stale entries that trigger no kernel call, hence ``<=``).

    Artifacts without ``kernel.*`` counters (instrumentation disabled,
    or pre-dating the kernel layer) are skipped.  Returns a list of
    human-readable violations (empty = consistent).
    """
    if not any(key.startswith("kernel.") for key in counters):
        return []

    def got(key: str) -> float:
        return counters.get(key, 0)

    problems: List[str] = []

    def require(label: str, actual: float, op_key: str) -> None:
        if op_key not in counters:
            return
        expected = counters[op_key]
        if actual != expected:
            problems.append(
                f"kernel consistency: {label} = {actual:g} but "
                f"{op_key} = {expected:g} (must be equal)"
            )

    require(
        "kernel.merge_row.calls + kernel.batch.merge.rows",
        got("kernel.merge_row.calls") + got("kernel.batch.merge.rows"),
        "ops.row_merges",
    )
    require(
        "kernel.relax.attempted + kernel.batch.relax.attempted",
        got("kernel.relax.attempted") + got("kernel.batch.relax.attempted"),
        "ops.edge_relaxations",
    )
    require(
        "kernel.relax.improved + kernel.batch.relax.improved",
        got("kernel.relax.improved") + got("kernel.batch.relax.improved"),
        "ops.edge_improvements",
    )
    if "ops.pops" in counters and "ops.row_merges" in counters:
        relax_events = got("kernel.relax.calls") + got(
            "kernel.batch.relax.segments"
        )
        budget = counters["ops.pops"] - counters["ops.row_merges"]
        if relax_events > budget:
            problems.append(
                "kernel consistency: kernel.relax.calls + "
                f"kernel.batch.relax.segments = {relax_events:g} exceeds "
                f"ops.pops - ops.row_merges = {budget:g}"
            )
    return problems


def compare_artifacts(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    *,
    rtol: float = 0.10,
    include_wall: bool = False,
    ignore: Sequence[str] = (),
) -> Tuple[List[str], List[str]]:
    """Compare two artifacts; returns ``(regressions, notes)``.

    ``ignore`` lists keys excluded from gating in any section (still
    mentioned in the notes so nothing silently disappears).
    """
    regressions: List[str] = []
    notes: List[str] = []
    ignored = set(ignore)

    for art, label in ((baseline, "baseline"), (current, "current")):
        problems = validate_artifact(art)
        if problems:
            raise ValueError(f"{label} artifact invalid: "
                             + "; ".join(problems))

    if baseline["schema"] != current["schema"]:
        raise ValueError(
            f"schema mismatch: baseline {baseline['schema']!r} "
            f"vs current {current['schema']!r}"
        )

    mismatched = _compare_params(
        baseline["params"], current["params"], ignored, notes
    )
    if mismatched:
        # Different solver / workload identity: every downstream section
        # (counters, virtual timings, fault and serve replays) is a
        # function of those params, so key-by-key diffs would drown the
        # real problem in mismatches that can never agree.  Fail with
        # one actionable message instead.
        regressions.append(
            "artifacts come from different solver configurations "
            f"(params differ: {', '.join(mismatched)}); counters from "
            "different configs can never match — regenerate the baseline "
            "with the same algorithm/backend/workload as the current run"
        )
        notes.append(
            "counters/timings/trace/faults/serve comparison skipped: "
            "artifacts are not comparable"
        )
        return regressions, notes
    for section in SECTIONS:
        for failed, message in _compare_section(
            section, baseline.get(section), current.get(section),
            rtol, include_wall, ignored,
        ):
            (regressions if failed else notes).append(message)
    for art, label in ((baseline, "baseline"), (current, "current")):
        regressions.extend(
            f"{label}: {problem}"
            for problem in check_kernel_consistency(art["counters"])
        )

    for name, value in sorted(current.get("gauges", {}).items()):
        base = baseline.get("gauges", {}).get(name)
        if base is not None and base != value:
            notes.append(f"gauge {name}: {base:g} -> {value:g}")
    return regressions, notes


def _compare_params(
    base: Mapping[str, Any],
    cur: Mapping[str, Any],
    ignored: set,
    notes: List[str],
) -> List[str]:
    """Check workload identity; returns the mismatched param keys.

    Per-key detail goes to the notes — the caller folds any mismatch
    into one summary regression, because two artifacts from different
    configs are *incomparable*, not "wrong on every counter".
    """
    mismatched: List[str] = []
    for key in sorted(set(base) | set(cur)):
        if key in ignored:
            notes.append(f"param {key}: ignored")
            continue
        if key not in cur:
            mismatched.append(key)
            notes.append(f"param {key} missing from current artifact")
        elif key not in base:
            notes.append(f"param {key} new in current: {cur[key]!r}")
        elif base[key] != cur[key]:
            mismatched.append(key)
            notes.append(
                f"param {key}: baseline {base[key]!r} vs "
                f"current {cur[key]!r}"
            )
    return mismatched


def _rule(rules: Sequence[Rule], key: str) -> Tuple[str, str]:
    """``(gate, why)`` of the first rule with a glob matching ``key``."""
    return next(
        (gate, why)
        for globs, gate, why in rules
        if any(fnmatchcase(key, glob) for glob in globs)
    )


def _failure(gate: str, base: float, cur: float, rtol: float) -> Optional[str]:
    """Why ``base -> cur`` fails ``gate`` ("" needs no detail), or None."""
    if gate == "exact" and cur != base:
        return ""
    if gate == "up0" and cur > base:
        return "upward-only, no tolerance"
    if gate == "up" and cur > base * (1.0 + rtol):
        pct = (cur - base) / base * 100.0 if base else float("inf")
        return f"+{pct:.1f}%, tolerance {rtol:.0%}"
    if gate == "up_abs" and cur > base + ATOL:
        return f"+{cur - base:.4f}, tolerance {ATOL:g} absolute"
    if gate == "down_abs" and cur < base - ATOL:
        return f"-{base - cur:.4f}, tolerance {ATOL:g} absolute"
    return None


def _compare_section(
    section: str,
    base: Optional[Mapping[str, float]],
    cur: Optional[Mapping[str, float]],
    rtol: float,
    include_wall: bool,
    ignored: set,
) -> Iterator[Tuple[bool, str]]:
    """Gate one section by its :data:`SECTIONS` rules.

    Yields ``(failed, message)``: a regression when ``failed``, else a
    note.
    """
    label, missing, new_keys_fail, rules = SECTIONS[section]
    if base is None:
        if cur:
            yield False, f"{section} new in current (no baseline to gate against)"
        return
    if cur is None:
        yield True, missing
        return
    for key in sorted(base):
        if key in ignored:
            yield False, f"{label} {key}: ignored"
            continue
        gate, why = _rule(rules, key)
        if gate == "wall":
            gate = "up" if include_wall else "note"
        if key not in cur:
            if gate != "note":
                yield True, f"{label} {key} missing from current artifact"
            continue
        change = f"{label} {key}: {base[key]:g} -> {cur[key]:g}"
        detail = _failure(gate, base[key], cur[key], rtol)
        if detail is not None:
            direction = "up" if cur[key] > base[key] else "down"
            reason = "; ".join(p for p in (direction, detail, why) if p)
            yield True, f"{change} ({reason})"
        elif gate == "note":
            yield False, f"{change} (not gated)"
        elif gate != "exact":
            yield False, f"{change} (ok)"
    for key in sorted(set(cur) - set(base)):
        new = f"{label} {key} new in current: {cur[key]:g}"
        if new_keys_fail and key not in ignored:
            yield True, f"{new} ({_rule(rules, key)[1]})"
        else:
            yield False, new


def _report(regressions: List[str], notes: List[str], verbose: bool) -> None:
    if verbose and notes:
        for note in notes:
            print(f"  note: {note}")
    if regressions:
        print(f"REGRESSION ({len(regressions)} finding(s)):")
        for item in regressions:
            print(f"  !! {item}")
    else:
        print("no regression: counters exact, timings within tolerance")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.regress",
        description="diff two BENCH_*.json artifacts; non-zero on "
        "regression (op counts exact, timings with tolerance)",
    )
    parser.add_argument("baseline", help="baseline artifact (committed)")
    parser.add_argument("current", help="freshly produced artifact")
    parser.add_argument(
        "--rtol",
        type=float,
        default=0.10,
        help="relative tolerance of the upward gates (default 0.10)",
    )
    parser.add_argument(
        "--include-wall",
        action="store_true",
        help="also gate host wall-clock (wall.*) timings",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="KEY",
        help="exclude a key of any section from gating (repeatable)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-key notes"
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_artifact(args.baseline)
        current = load_artifact(args.current)
        regressions, notes = compare_artifacts(
            baseline,
            current,
            rtol=args.rtol,
            include_wall=args.include_wall,
            ignore=args.ignore,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"baseline: {args.baseline} ({baseline['name']})")
    print(f"current : {args.current} ({current['name']})")
    _report(regressions, notes, verbose=not args.quiet)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
