"""Incremental edge updates: COW generations, byte identity, drills."""

from __future__ import annotations

import shutil
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.config import UpdateConfig
from repro.core.runner import solve_apsp
from repro.exceptions import StoreCorruptionError, StoreError
from repro.graphs import attach_random_weights, barabasi_albert
from repro.serve import (
    DistStore,
    QueryEngine,
    apply_edge_updates,
    apply_updates_to_graph,
    parse_edge_updates,
    solve_to_store,
)
from repro.serve.update import EdgeUpdate, _edge_weights


def _crcs(store):
    """Byte-identity fingerprint: per-shard + landmark checksums + ids.

    Checksums cover the encoded bytes and shard sizes are fixed by the
    manifest, so equal crcs means the served payloads are byte-equal
    regardless of the (generation-suffixed) file names underneath.
    """
    return (
        tuple(entry["crc32"] for entry in store.manifest["shards"]),
        store.manifest["landmarks"]["crc32"],
        tuple(store.manifest["landmarks"]["ids"]),
    )


@pytest.fixture()
def built(small_weighted, tmp_path):
    store = solve_to_store(
        small_weighted, tmp_path / "store", shard_rows=16, num_landmarks=4
    )
    return store, small_weighted


class TestBatchParsing:
    def test_dsl_round_trip(self):
        got = parse_edge_updates("set=1,2,5.0; del=3,4 ;set=9,7,0.25")
        assert got == [
            EdgeUpdate(1, 2, 5.0),
            EdgeUpdate(3, 4, None),
            EdgeUpdate(9, 7, 0.25),
        ]
        assert got[2].key == (7, 9)

    @pytest.mark.parametrize(
        "text",
        [
            "frob=1,2",          # unknown op
            "set=1,2",           # set needs a weight
            "del=1,2,3",         # del takes exactly two vertices
            "set=a,b,1.0",       # non-integer vertices
            "del=1",             # too few fields
            "set",               # no '=' at all
        ],
    )
    def test_dsl_rejects_malformed(self, text):
        with pytest.raises(StoreError, match="edge update"):
            parse_edge_updates(text)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EdgeUpdate(3, 3, 1.0),           # self loop
            lambda: EdgeUpdate(-1, 2, 1.0),          # negative vertex
            lambda: EdgeUpdate(1, 2, 0.0),           # non-positive weight
            lambda: EdgeUpdate(1, 2, -4.0),
            lambda: EdgeUpdate(1, 2, float("inf")),
            lambda: EdgeUpdate(1, 2, float("nan")),
            lambda: EdgeUpdate(True, 2, 1.0),        # bool is not an int
        ],
    )
    def test_update_field_validation(self, build):
        with pytest.raises(StoreError):
            build()


class TestGraphMutation:
    def test_insert_delete_reweight(self, small_weighted):
        edges = _edge_weights(small_weighted)
        (e_del, _), (e_rw, _) = sorted(edges.items())[:2]
        non_edge = next(
            (u, v)
            for u in range(small_weighted.num_vertices)
            for v in range(u + 1, small_weighted.num_vertices)
            if (u, v) not in edges
        )
        batch = [
            EdgeUpdate(*e_del),
            EdgeUpdate(*e_rw, weight=3.25),
            EdgeUpdate(*non_edge, weight=1.5),
        ]
        mutated = apply_updates_to_graph(small_weighted, batch)
        new_edges = _edge_weights(mutated)
        assert e_del not in new_edges
        assert new_edges[e_rw] == 3.25
        assert new_edges[non_edge] == 1.5
        assert len(new_edges) == len(edges)  # -1 +1
        # the input graph is untouched
        assert _edge_weights(small_weighted) == edges

    def test_rejects_deleting_absent_edge(self, small_weighted):
        edges = _edge_weights(small_weighted)
        non_edge = next(
            (u, v)
            for u in range(small_weighted.num_vertices)
            for v in range(u + 1, small_weighted.num_vertices)
            if (u, v) not in edges
        )
        with pytest.raises(StoreError, match="absent"):
            apply_updates_to_graph(small_weighted, [EdgeUpdate(*non_edge)])

    def test_rejects_duplicate_keys_and_out_of_range(self, small_weighted):
        with pytest.raises(StoreError, match="twice"):
            apply_updates_to_graph(
                small_weighted,
                [EdgeUpdate(1, 2, 1.0), EdgeUpdate(2, 1, 2.0)],
            )
        with pytest.raises(StoreError, match="out of range"):
            apply_updates_to_graph(
                small_weighted, [EdgeUpdate(1, 10_000, 1.0)]
            )

    def test_rejects_directed_graph(self):
        from repro.graphs import from_edges

        directed = from_edges(
            [(0, 1, 1.0), (1, 2, 1.0)], num_vertices=3, directed=True
        )
        with pytest.raises(StoreError, match="undirected"):
            apply_updates_to_graph(directed, [EdgeUpdate(0, 2, 1.0)])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_dict_based_construction(self, data):
        """The numpy mutation builds the very CSR arrays the per-edge
        dict did, on hand-built graphs with duplicate arcs too."""
        from repro.graphs import CSRGraph

        n = data.draw(st.integers(min_value=2, max_value=10))
        weight = st.floats(min_value=0.05, max_value=40.0)
        arcs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1), weight
                ),
                max_size=3 * n,
            )
        )
        arcs.sort(key=lambda arc: arc[0])  # rows in order, arcs unsorted
        graph = CSRGraph(
            np.concatenate(
                [[0], np.cumsum(np.bincount(
                    np.array([a[0] for a in arcs], dtype=np.int64),
                    minlength=n,
                ))]
            ),
            np.array([a[1] for a in arcs], dtype=np.int64),
            np.array([a[2] for a in arcs], dtype=np.float64),
            name="hand-built",
        )
        batch = []
        for u, v in data.draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda e: e[0] != e[1])
                .map(lambda e: (min(e), max(e))),
                max_size=4,
            )
        ):
            batch.append(EdgeUpdate(
                u, v, data.draw(st.one_of(st.none(), weight))
            ))
        try:
            want = _dict_apply(graph, batch)
        except StoreError as exc:
            with pytest.raises(StoreError, match="absent") as got:
                apply_updates_to_graph(graph, batch)
            assert str(got.value) == str(exc)
            return
        got = apply_updates_to_graph(graph, batch)
        for name in ("indptr", "indices", "weights"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes(), name
        assert got.name == want.name and not got.directed


def _dict_apply(graph, updates):
    """Reference mutation: the per-edge dict construction."""
    from repro.graphs import from_edges

    arcs = graph.arc_array()
    mask = arcs[:, 0] < arcs[:, 1]
    edges = {
        (int(u), int(v)): float(w)
        for (u, v), w in zip(arcs[mask], graph.weights[mask])
    }
    for upd in updates:
        if upd.weight is None:
            if upd.key not in edges:
                raise StoreError(
                    f"cannot delete absent edge ({upd.key[0]}, "
                    f"{upd.key[1]})"
                )
            del edges[upd.key]
        else:
            edges[upd.key] = upd.weight
    return from_edges(
        ((u, v, w) for (u, v), w in sorted(edges.items())),
        num_vertices=graph.num_vertices,
        directed=False,
        name=graph.name,
    )


class TestGenerations:
    @pytest.mark.parametrize(
        "algorithm", ["parapsp", "delta-stepping", "johnson"]
    )
    def test_new_landmark_in_clean_shard_resolves_one_row(
        self, small_weighted, tmp_path, algorithm
    ):
        graph = small_weighted
        store = solve_to_store(
            graph, tmp_path / "store", shard_rows=16, num_landmarks=4,
            algorithm=algorithm,
        )
        edges = _edge_weights(graph)
        # heavy spokes make vertex 97 a top-degree landmark without
        # shortening any path, so no shard is dirty
        hub = 97
        batch = [
            EdgeUpdate(hub, u, 40.0)
            for u in range(60)
            if (min(u, hub), max(u, hub)) not in edges
        ][:30]
        result = apply_edge_updates(store, graph, batch)
        assert result.store.landmark_ids[0] == hub
        assert hub not in store.landmark_ids
        assert result.dirty_shards == ()
        assert result.landmarks_rebuilt
        assert result.landmark_rows_resolved == 1
        fresh = solve_to_store(
            apply_updates_to_graph(graph, batch), tmp_path / "fresh",
            shard_rows=16, num_landmarks=4, algorithm=algorithm,
        )
        assert _crcs(result.store) == _crcs(fresh)

    def test_update_is_byte_identical_to_fresh_build(self, built, tmp_path):
        store, graph = built
        edges = _edge_weights(graph)
        (u, v), w = sorted(edges.items())[0]
        batch = [EdgeUpdate(u, v, w / 2.0)]  # decrease: provably dirty
        result = apply_edge_updates(store, graph, batch)

        assert result.generation == 1
        assert result.store.generation == 1
        assert result.dirty_shards  # a halved edge weight must dirty rows
        mutated = apply_updates_to_graph(graph, batch)
        fresh = solve_to_store(
            mutated, tmp_path / "fresh", shard_rows=16, num_landmarks=4
        )
        assert _crcs(result.store) == _crcs(fresh)
        result.store.verify()
        ref = solve_apsp(mutated, use_flags=False).dist
        assert np.array_equal(result.store.load_shard(0), ref[:16])

    def test_cow_files_coexist_and_generation_increments(self, built):
        store, graph = built
        edges = _edge_weights(graph)
        (u, v), w = sorted(edges.items())[0]

        r1 = apply_edge_updates(store, graph, [EdgeUpdate(u, v, w / 2.0)])
        g1_files = sorted(p.name for p in r1.store.path.glob("*.g0001.bin"))
        assert g1_files  # dirty shards written beside the old generation
        # old generation files survive (no prune by default) so live
        # readers holding the old manifest keep working
        assert (r1.store.path / "shard_00000.bin").exists()
        old = DistStore.open(store.path)
        assert old.generation == 1  # the manifest swap is the publish

        graph1 = apply_updates_to_graph(graph, [EdgeUpdate(u, v, w / 2.0)])
        r2 = apply_edge_updates(r1.store, graph1, [EdgeUpdate(u, v)])
        assert r2.generation == 2
        assert sorted(p.name for p in r2.store.path.glob("*.g0002.bin"))

    def test_noop_reweight_is_free(self, built):
        store, graph = built
        (u, v), w = sorted(_edge_weights(graph).items())[0]
        before = _crcs(store)
        result = apply_edge_updates(store, graph, [EdgeUpdate(u, v, w)])
        assert result.generation == 1
        assert result.dirty_shards == ()
        assert result.endpoints == ()
        assert result.cost_rows == 0
        assert _crcs(result.store) == before

    def test_prune_removes_superseded_files(self, built):
        store, graph = built
        (u, v), w = sorted(_edge_weights(graph).items())[0]
        result = apply_edge_updates(
            store,
            graph,
            [EdgeUpdate(u, v, w / 2.0)],
            config=UpdateConfig(prune=True),
        )
        assert result.pruned_files
        for name in result.pruned_files:
            assert not (result.store.path / name).exists()
        result.store.verify()

    def test_prescreen_off_is_byte_equivalent(self, built, tmp_path):
        store, graph = built
        (u, v), w = sorted(_edge_weights(graph).items())[0]
        batch = [EdgeUpdate(u, v, w / 2.0)]
        with_screen = apply_edge_updates(store, graph, batch)

        other = solve_to_store(
            graph, tmp_path / "other", shard_rows=16, num_landmarks=4
        )
        without = apply_edge_updates(
            other, graph, batch, config=UpdateConfig(prescreen=False)
        )
        assert without.dirty_shards == with_screen.dirty_shards
        assert without.certified_clean_shards == 0
        assert _crcs(without.store) == _crcs(with_screen.store)

    def test_result_to_dict_is_json_plain(self, built):
        import json

        store, graph = built
        (u, v), w = sorted(_edge_weights(graph).items())[0]
        result = apply_edge_updates(store, graph, [EdgeUpdate(u, v, w / 2)])
        payload = result.to_dict()
        json.dumps(payload)
        assert payload["generation"] == 1
        assert payload["cost_rows"] == result.cost_rows
        assert 0.0 <= payload["cost_ratio"] <= 2.0


class TestGuards:
    def test_wrong_graph_rejected_before_any_write(self, built):
        store, graph = built
        imposter = attach_random_weights(
            barabasi_albert(graph.num_vertices, 3, seed=9), seed=99
        )
        before = _crcs(store)
        (u, v), w = sorted(_edge_weights(imposter).items())[0]
        with pytest.raises(StoreError, match="graph"):
            apply_edge_updates(store, imposter, [EdgeUpdate(u, v, w / 2)])
        survivor = DistStore.open(store.path)
        assert survivor.generation == 0
        assert _crcs(survivor) == before

    def test_wrong_vertex_count_rejected(self, built):
        store, _ = built
        small = attach_random_weights(barabasi_albert(10, 2, seed=1), seed=2)
        with pytest.raises(StoreError, match="vertices"):
            apply_edge_updates(store, small, [EdgeUpdate(0, 5, 1.0)])

    def test_config_must_be_update_config(self, built):
        store, graph = built
        with pytest.raises(StoreError, match="UpdateConfig"):
            apply_edge_updates(
                store, graph, [EdgeUpdate(0, 1, 1.0)], config={"prune": True}
            )

    def test_verify_before_catches_rotten_store(self, built):
        store, graph = built
        (u, v), w = sorted(_edge_weights(graph).items())[0]
        shard_file = store.path / store.manifest["shards"][1]["file"]
        raw = bytearray(shard_file.read_bytes())
        raw[0] ^= 0xFF
        shard_file.write_bytes(bytes(raw))
        with pytest.raises(StoreCorruptionError):
            apply_edge_updates(store, graph, [EdgeUpdate(u, v, w / 2)])


class TestInFlightCorruptionDrill:
    def test_damaged_pending_file_aborts_with_old_generation(self, built):
        store, graph = built
        (u, v), w = sorted(_edge_weights(graph).items())[0]
        before = _crcs(store)

        def damage_pending(old_store, new_manifest):
            pending = sorted(old_store.path.glob("*.g0001.bin"))
            assert pending  # the hook runs after the new files land
            raw = bytearray(pending[0].read_bytes())
            raw[0] ^= 0xFF
            pending[0].write_bytes(bytes(raw))

        with pytest.raises(StoreCorruptionError):
            apply_edge_updates(
                store,
                graph,
                [EdgeUpdate(u, v, w / 2.0)],
                pre_swap_hook=damage_pending,
            )
        survivor = DistStore.open(store.path)
        assert survivor.generation == 0
        assert _crcs(survivor) == before
        survivor.verify()
        # the aborted generation leaves no orphans behind
        assert not list(survivor.path.glob("*.g0001.bin"))


class TestEngineGenerations:
    def test_refresh_swaps_answers_atomically(self, built):
        store, graph = built
        engine = QueryEngine(store, cache_shards=2)
        (u, v), w = sorted(_edge_weights(graph).items())[0]
        old_answer = engine.dist(u, v)

        batch = [EdgeUpdate(u, v, 0.01)]
        apply_edge_updates(store, graph, batch)
        # pre-refresh the engine still serves its old snapshot — a
        # half-adopted store would be a torn read
        assert engine.dist(u, v) == old_answer
        assert engine.refresh() == 1
        # weights are >= 0.5, so the direct 0.01 edge IS the shortest path
        assert engine.dist(u, v) == 0.01
        mutated = apply_updates_to_graph(graph, batch)
        ref = solve_apsp(mutated, use_flags=False).dist
        assert np.array_equal(engine.dist_from(u), ref[u])

    def test_threaded_readers_never_mix_generations(self, built):
        store, graph = built
        engine = QueryEngine(store, cache_shards=2)
        (u, v), _ = sorted(_edge_weights(graph).items())[0]
        old_answer = engine.dist(u, v)
        new_answer = 0.01

        stop = threading.Event()
        observed = [[] for _ in range(4)]

        def reader(bucket):
            while not stop.is_set():
                bucket.append(engine.dist(u, v))

        threads = [
            threading.Thread(target=reader, args=(b,)) for b in observed
        ]
        for t in threads:
            t.start()
        try:
            apply_edge_updates(store, graph, [EdgeUpdate(u, v, new_answer)])
            engine.refresh()
        finally:
            stop.set()
            for t in threads:
                t.join()

        seen = {val for bucket in observed for val in bucket}
        # every answer comes wholly from one generation — a value from
        # neither reference would mean a reader straddled the swap
        assert seen <= {old_answer, new_answer}
        assert engine.dist(u, v) == new_answer


@pytest.fixture(scope="module")
def base_stores(small_weighted, tmp_path_factory):
    """One pre-built gen-0 store per codec, copied fresh per example."""
    root = tmp_path_factory.mktemp("update-bases")
    paths = {}
    for codec in ("raw", "f4", "u16q"):
        paths[codec] = root / codec
        solve_to_store(
            small_weighted,
            paths[codec],
            shard_rows=16,
            num_landmarks=4,
            codec=codec,
        )
    return paths


@st.composite
def update_batches(draw, edges, n):
    """1-3 distinct-key mutations: delete, reweight, or insert."""
    keys = sorted(edges)
    batch = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["delete", "reweight", "insert"]))
        if kind == "insert":
            u = draw(st.integers(min_value=0, max_value=n - 1))
            v = draw(st.integers(min_value=0, max_value=n - 1))
            key = (min(u, v), max(u, v))
            assume(u != v and key not in edges)
        else:
            key = keys[draw(st.integers(min_value=0, max_value=len(keys) - 1))]
        assume(key not in batch)
        if kind == "delete":
            batch[key] = EdgeUpdate(*key)
        else:
            w = draw(
                st.floats(
                    min_value=0.05,
                    max_value=40.0,
                    allow_nan=False,
                    allow_infinity=False,
                )
            )
            batch[key] = EdgeUpdate(*key, weight=w)
    return list(batch.values())


class TestByteIdentityProperty:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data(), codec=st.sampled_from(["raw", "f4", "u16q"]))
    def test_update_equals_fresh_build(
        self, data, codec, base_stores, small_weighted
    ):
        batch = data.draw(
            update_batches(
                _edge_weights(small_weighted), small_weighted.num_vertices
            )
        )
        with tempfile.TemporaryDirectory() as tmp:
            live = f"{tmp}/live"
            shutil.copytree(base_stores[codec], live)
            store = DistStore.open(live)
            result = apply_edge_updates(store, small_weighted, batch)
            assert result.generation == 1
            result.store.verify()

            mutated = apply_updates_to_graph(small_weighted, batch)
            fresh = solve_to_store(
                mutated,
                f"{tmp}/fresh",
                shard_rows=16,
                num_landmarks=4,
                codec=codec,
            )
            assert _crcs(result.store) == _crcs(fresh)
