"""Tests for the GBDT model container."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import GBDT, GBDTModel, TrainConfig
from repro.errors import DataError, NotFittedError
from repro.tree import RegressionTree


def trained_model(dataset):
    config = TrainConfig(n_trees=3, max_depth=3, learning_rate=0.3)
    return GBDT(config).fit(dataset)


class TestPrediction:
    def test_raw_is_base_plus_trees(self, tiny_dataset):
        model = trained_model(tiny_dataset)
        raw = model.predict_raw(tiny_dataset.X)
        manual = np.full(tiny_dataset.n_instances, model.base_score)
        for tree in model.trees:
            manual += tree.predict(tiny_dataset.X)
        np.testing.assert_allclose(raw, manual)

    def test_predict_is_probability(self, tiny_dataset):
        model = trained_model(tiny_dataset)
        proba = model.predict(tiny_dataset.X)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_truncated_prediction(self, tiny_dataset):
        model = trained_model(tiny_dataset)
        raw1 = model.predict_raw(tiny_dataset.X, n_trees=1)
        raw_all = model.predict_raw(tiny_dataset.X)
        assert not np.allclose(raw1, raw_all)

    def test_labels(self, tiny_dataset):
        model = trained_model(tiny_dataset)
        labels = model.predict_labels(tiny_dataset.X)
        assert set(np.unique(labels)) <= {0.0, 1.0}

    def test_labels_require_logistic(self, tiny_dataset):
        model = trained_model(tiny_dataset)
        model.loss_name = "squared"
        with pytest.raises(DataError):
            model.predict_labels(tiny_dataset.X)

    def test_too_many_features_rejected(self, tiny_dataset):
        from repro.datasets import CSRMatrix

        model = trained_model(tiny_dataset)
        wide = CSRMatrix.from_rows([[]], n_cols=model.n_features + 5)
        with pytest.raises(DataError):
            model.predict(wide)

    def test_empty_model_not_fitted(self):
        model = GBDTModel([], 0.0, "logistic", 4)
        from repro.datasets import CSRMatrix

        with pytest.raises(NotFittedError):
            model.predict(CSRMatrix.from_rows([[]], n_cols=4))


class TestSerialization:
    def test_json_roundtrip(self, tiny_dataset, tmp_path):
        model = trained_model(tiny_dataset)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = GBDTModel.load(path)
        assert loaded.n_trees == model.n_trees
        assert loaded.base_score == model.base_score
        np.testing.assert_allclose(
            loaded.predict(tiny_dataset.X), model.predict(tiny_dataset.X)
        )

    def test_dict_roundtrip(self, tiny_dataset):
        model = trained_model(tiny_dataset)
        clone = GBDTModel.from_dict(model.to_dict())
        np.testing.assert_allclose(
            clone.predict_raw(tiny_dataset.X), model.predict_raw(tiny_dataset.X)
        )

    def test_unknown_format_rejected(self):
        with pytest.raises(DataError):
            GBDTModel.from_dict({"format": "xgboost"})

    @pytest.mark.parametrize("version", [2, "1", None])
    def test_unknown_version_rejected_naming_the_path(
        self, tiny_dataset, tmp_path, version
    ):
        payload = trained_model(tiny_dataset).to_dict()
        payload["version"] = version
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match=r"future\.json.*version"):
            GBDTModel.load(path)

    def test_missing_version_loads_as_one(self, tiny_dataset, tmp_path):
        """Artifacts written before the check carry no version key."""
        model = trained_model(tiny_dataset)
        payload = model.to_dict()
        del payload["version"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert GBDTModel.load(path).n_trees == model.n_trees

    def test_format_marker_present(self, tiny_dataset):
        model = trained_model(tiny_dataset)
        payload = model.to_dict()
        assert payload["format"] == "repro-dimboost-gbdt"
        assert payload["version"] == 1


class TestConstruction:
    def test_repr(self):
        tree = RegressionTree(2)
        tree.set_leaf(0, 1.0)
        model = GBDTModel([tree], 0.1, "logistic", 8)
        assert "n_trees=1" in repr(model)
