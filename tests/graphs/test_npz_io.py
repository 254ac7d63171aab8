"""Binary (.npz) graph persistence."""

import numpy as np
import pytest

from repro.exceptions import GraphFormatError
from repro.graphs import load_graph_npz, save_graph_npz


class TestNpzRoundtrip:
    def test_undirected(self, small_weighted, tmp_path):
        target = tmp_path / "g.npz"
        save_graph_npz(small_weighted, target)
        loaded = load_graph_npz(target)
        assert loaded == small_weighted
        assert loaded.name == small_weighted.name

    def test_directed(self, directed_weighted, tmp_path):
        target = tmp_path / "g.npz"
        save_graph_npz(directed_weighted, target)
        loaded = load_graph_npz(target)
        assert loaded.directed
        assert loaded == directed_weighted

    def test_weights_exact(self, small_weighted, tmp_path):
        target = tmp_path / "g.npz"
        save_graph_npz(small_weighted, target)
        loaded = load_graph_npz(target)
        assert np.array_equal(loaded.weights, small_weighted.weights)

    def test_not_an_archive(self, tmp_path):
        bogus = tmp_path / "bogus.npz"
        np.savez(bogus, something=np.arange(3))
        with pytest.raises(GraphFormatError, match="not a repro graph"):
            load_graph_npz(bogus)

    def test_duplicate_arcs_rejected(self, tmp_path):
        # arcs 1->0 of weight 0.5 then 1.0: the interpreted sweep would
        # keep the heavier last copy, so the loader refuses the row
        bogus = tmp_path / "dup.npz"
        np.savez(
            bogus,
            indptr=np.array([0, 0, 2], dtype=np.int64),
            indices=np.array([0, 0], dtype=np.int64),
            weights=np.array([0.5, 1.0]),
            directed=np.array([True]),
            name=np.array(["dup"]),
        )
        with pytest.raises(GraphFormatError, match="duplicate arc 1->0"):
            load_graph_npz(bogus)
