"""ModelStore: versioned loads, atomic swap semantics."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import DataError, ServingError
from repro.serving import ModelStore

from .conftest import make_rows, rows_to_csr


class TestLoadAndCurrent:
    def test_empty_store(self):
        store = ModelStore()
        assert not store.loaded
        with pytest.raises(ServingError, match="no model loaded"):
            store.current()

    def test_scorer_pool_argument_is_refused(self):
        with pytest.raises(TypeError):
            ModelStore(n_processes=2)

    def test_first_load_is_version_one(self, artifact_a, model_a):
        with ModelStore() as store:
            version = store.load(artifact_a)
            assert version.version == 1
            assert store.current() is version
            assert store.loaded
            assert version.n_features == model_a.n_features
            assert version.path == artifact_a

    def test_predict_matches_direct_flat_scoring(self, artifact_a, model_a):
        X = rows_to_csr(make_rows(5, 13))
        with ModelStore() as store:
            raw = store.load(artifact_a).predict_raw(X)
        direct = model_a.compiled().predict_raw(
            X, base_score=model_a.base_score
        )
        assert np.array_equal(raw, direct)

    def test_transform_is_the_model_loss(self, artifact_a):
        with ModelStore() as store:
            version = store.load(artifact_a)
            raw = np.array([0.0, 2.0])
            out = version.transform(raw)
        np.testing.assert_allclose(out, 1.0 / (1.0 + np.exp(-raw)))


class TestSwap:
    def test_swap_bumps_version_and_retires_previous(
        self, artifact_a, artifact_b
    ):
        with ModelStore() as store:
            first = store.load(artifact_a)
            second = store.load(artifact_b)
            assert (first.version, second.version) == (1, 2)
            assert store.current() is second
            # The retired version still scores: an in-flight batch may
            # hold the pointer.
            X = rows_to_csr(make_rows(7, 3))
            first.predict_raw(X)

    def test_failed_load_keeps_current(self, artifact_a, tmp_path):
        with ModelStore() as store:
            version = store.load(artifact_a)
            with pytest.raises(ServingError, match="failed to load"):
                store.load(str(tmp_path / "missing.json"))
            assert store.current() is version

    def test_corrupt_artifact_keeps_current(self, artifact_a, tmp_path):
        bad = tmp_path / "corrupt.json"
        bad.write_text("{not json", encoding="utf-8")
        with ModelStore() as store:
            version = store.load(artifact_a)
            with pytest.raises(ServingError, match="failed to load"):
                store.load(str(bad))
            assert store.current() is version

    def test_unknown_version_artifact_keeps_current(self, artifact_a, tmp_path):
        """A version-2 file is refused by the model loader; the store
        surfaces that error and keeps serving what it had."""
        doc = json.loads(open(artifact_a, encoding="utf-8").read())
        doc["version"] = 2
        future = tmp_path / "future.json"
        future.write_text(json.dumps(doc), encoding="utf-8")
        with ModelStore() as store:
            version = store.load(artifact_a)
            with pytest.raises(DataError, match="version 2"):
                store.load(str(future))
            assert store.current() is version

    def test_treeless_artifact_rejected(self, artifact_a, tmp_path):
        doc = json.loads(open(artifact_a, encoding="utf-8").read())
        doc["trees"] = []
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(doc), encoding="utf-8")
        store = ModelStore()
        with pytest.raises(ServingError, match="no trees"):
            store.load(str(empty))
        assert not store.loaded

    def test_close_is_idempotent(self, artifact_a):
        store = ModelStore()
        store.load(artifact_a)
        store.close()
        store.close()
        assert not store.loaded
