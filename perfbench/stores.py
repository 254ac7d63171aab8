"""Store set-up and store-layer probes shared by ``store-update`` and ``serve``.

Both workloads build their store during set-up, and build throwaway
copies of it inside the timed loop to sample ``setup_s`` (see
``harness.SetupSamples``).  Each build is paired with scipy APSP runs
on the same graph right before and after it, which gives
``store.build_over_scipy``; the scipy runs are the harness's and stay
out of ``setup_s``.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from harness import SetupSamples, median, scipy_apsp, timed

#: codecs whose encode/decode cost the traced mode reports
PROBE_CODECS = ("raw", "u16q")
PROBE_REPEATS = 5


def shard_rows_of(store, oracle, index):
    start, rows = store.shard_span(index)
    return oracle[start:start + rows]


def check_store(store, oracle, report) -> None:
    """Every shard and the landmark rows, bit for bit against the oracle."""
    for index in range(store.num_shards):
        got = report.guard(store.load_shard, index)
        report.check(
            got is not None
            and got.tobytes() == shard_rows_of(store, oracle, index).tobytes(),
            f"store shard {index} differs from scipy",
        )
    rows = report.guard(store.landmark_rows)
    report.check(
        rows is not None
        and rows.tobytes() == oracle[store.landmark_ids].tobytes(),
        "store landmark rows differ from scipy",
    )


class StoreSetup:
    """Builds the workload's store from the seed's graph, and records
    each build.

    ``after(store)`` runs inside the timed set-up (the serve workload
    opens its engine and warms it there); ``check(store, ready)`` runs
    after it, untimed, with ``ready`` the value ``after`` returned.
    """

    def __init__(self, make_graph, matrix, shard_rows, work, report, *,
                 after=None, check) -> None:
        self.make_graph, self.matrix = make_graph, matrix
        self.shard_rows, self.work, self.report = shard_rows, work, report
        self.after, self.check = after, check
        self.builds, self.ratios = [], []

    def build(self):
        """One set-up into a fresh directory: ``(graph, store, ready,
        seconds)``."""
        from repro.serve import DistStore, solve_to_store

        path = self.work / f"store{len(self.builds)}"
        _, ref_before = timed(scipy_apsp, self.matrix)
        t0 = time.perf_counter()
        graph = self.make_graph()
        _, build_s = timed(solve_to_store, graph, path,
                           shard_rows=self.shard_rows)
        store = DistStore.open(path)
        ready = self.after(store) if self.after is not None else None
        seconds = time.perf_counter() - t0
        _, ref_after = timed(scipy_apsp, self.matrix)
        self.check(store, ready)
        self.builds.append(build_s)
        self.ratios.append(build_s / ((ref_before + ref_after) / 2))
        self.report.refs.extend((ref_before, ref_after))
        return graph, store, ready, seconds

    def samples(self, first: float, interval: float) -> SetupSamples:
        """Set-up samples that rebuild the store into a throwaway
        directory."""

        def throwaway() -> float:
            _, store, _, seconds = self.build()
            shutil.rmtree(store.path)
            return seconds

        return SetupSamples(first, throwaway, interval)

    def report_bases(self) -> None:
        self.report.bases["store.build_over_scipy"] = median(self.ratios)
        self.report.bases["store.build_s"] = median(self.builds)


def store_layers(store, graph, oracle, work, report) -> None:
    """Traced-mode probes of ``serve.codecs``, ``serve.store`` and the
    flags-off shard sweep of ``core``, each timed from outside.  The
    shares divide by a build of the same graph run right after the
    sweep, since builds minutes apart differ by more than the shares."""
    from repro.core import solve_apsp_shards
    from repro.serve import DistStore, get_codec, solve_to_store

    layers = report.layers
    block = shard_rows_of(store, oracle, 0)
    for name in PROBE_CODECS:
        codec = get_codec(name)
        enc, dec = [], []
        for _ in range(PROBE_REPEATS):
            (payload, params, _), dt = timed(codec.encode, block)
            enc.append(dt)
            decoded, dt = timed(codec.decode, payload, block.shape[0],
                                block.shape[1], params)
            dec.append(dt)
        if name == "raw":
            report.check(decoded.tobytes() == block.tobytes(),
                         "raw codec round trip is not exact")
        layers[f"codecs.{name}.encode_us"] = median(enc) * 1e6
        layers[f"codecs.{name}.decode_us"] = median(dec) * 1e6

    layers["store.bytes"] = store.store_bytes()
    layers["store.open_us"] = median(
        timed(DistStore.open, store.path)[1] for _ in range(21)
    ) * 1e6
    for key, verify in (("store.load_us", True),
                        ("store.load_noverify_us", False)):
        layers[key] = np.mean([
            timed(store.load_shard, i, verify=verify)[1]
            for i in range(store.num_shards)
        ]) * 1e6
    layers["store.verify_s"] = median(
        timed(store.verify)[1] for _ in range(3)
    )
    # the build writes each encoded shard once; time the same writes
    probe = work / "write-probe"
    probe.mkdir()
    write_s = 0.0
    for entry in store.manifest["shards"]:
        payload = (store.path / entry["file"]).read_bytes()
        write_s += timed((probe / entry["file"]).write_bytes, payload)[1]
    shutil.rmtree(probe)

    def sweep() -> float:
        """Drain the flags-off shard sweep, checking each shard; returns
        the time spent in the generator's own steps."""
        shards = solve_apsp_shards(
            graph, shard_rows=store.shard_rows, use_flags=False
        )
        spent = 0.0
        while True:
            item, dt = timed(next, shards, None)
            spent += dt
            if item is None:
                return spent
            start, block = item
            report.check(
                block.tobytes() == oracle[start:start + len(block)].tobytes(),
                f"flags-off shard at row {start} differs from scipy",
            )

    # one build between two sweeps: single runs here swing by a fifth
    first = sweep()
    _, build_s = timed(solve_to_store, graph, work / "build-probe",
                       shard_rows=store.shard_rows)
    sweep_s = (first + sweep()) / 2
    layers["core.shard_sweep_s"] = sweep_s
    layers["core.shard_sweep_share"] = sweep_s / build_s
    layers["store.write_share"] = write_s / build_s
