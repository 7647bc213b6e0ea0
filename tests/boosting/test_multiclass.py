"""Tests for the multiclass softmax extension."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import TrainConfig
from repro.boosting import MulticlassGBDT, MulticlassModel, SoftmaxLoss, softmax
from repro.datasets import CSRMatrix, Dataset
from repro.errors import DataError, NotFittedError


@pytest.fixture(scope="module")
def three_class_dataset() -> Dataset:
    """Class determined by which of three feature groups dominates."""
    rng = np.random.default_rng(0)
    n, m = 900, 15
    dense = (rng.random((n, m)) < 0.5) * rng.random((n, m))
    group_sums = np.stack(
        [dense[:, 0:5].sum(axis=1), dense[:, 5:10].sum(axis=1),
         dense[:, 10:15].sum(axis=1)],
        axis=1,
    )
    y = np.argmax(group_sums + rng.normal(0, 0.1, size=(n, 3)), axis=1)
    return Dataset(
        CSRMatrix.from_dense(dense.astype(np.float32)),
        y.astype(np.float32),
        "three-class",
    )


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        probs = softmax(rng.normal(size=(50, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_stable_at_extremes(self):
        probs = softmax(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)


class TestSoftmaxLoss:
    def test_gradients_shape_and_sign(self):
        loss = SoftmaxLoss(3)
        y = np.array([0, 1, 2], dtype=np.float32)
        raw = np.zeros((3, 3))
        grad, hess = loss.gradients(y, raw)
        assert grad.shape == (3, 3)
        # True-class gradient is negative (prediction should rise).
        for i, k in enumerate([0, 1, 2]):
            assert grad[i, k] < 0
        assert np.all(hess > 0)

    def test_gradients_sum_to_zero_per_row(self):
        loss = SoftmaxLoss(4)
        rng = np.random.default_rng(2)
        y = rng.integers(0, 4, size=20).astype(np.float32)
        raw = rng.normal(size=(20, 4))
        grad, _ = loss.gradients(y, raw)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_matches_binary_logistic(self):
        """2-class softmax must order instances like binary logistic."""
        from repro.boosting.losses import LogisticLoss

        loss2 = SoftmaxLoss(2)
        logistic = LogisticLoss()
        y = np.array([1, 0, 1], dtype=np.float32)
        margins = np.array([0.5, -0.3, 1.2])
        raw2 = np.stack([-margins / 2, margins / 2], axis=1)
        g2, _ = loss2.gradients(y, raw2)
        g1, _ = logistic.gradients(y, margins)
        np.testing.assert_allclose(g2[:, 1], g1, atol=1e-12)

    def test_label_validation(self):
        loss = SoftmaxLoss(3)
        with pytest.raises(DataError, match="integers"):
            loss.check_labels(np.array([0.5]))
        with pytest.raises(DataError, match="lie in"):
            loss.check_labels(np.array([3.0]))

    def test_base_scores_are_log_priors(self):
        loss = SoftmaxLoss(2)
        y = np.array([0, 0, 0, 1], dtype=np.float32)
        base = loss.base_scores(y)
        assert base[0] - base[1] == pytest.approx(np.log(3.0))

    def test_n_classes_validation(self):
        with pytest.raises(DataError):
            SoftmaxLoss(1)


class TestTraining:
    @pytest.fixture(scope="class")
    def trained(self, three_class_dataset):
        trainer = MulticlassGBDT(
            n_classes=3,
            config=TrainConfig(n_trees=6, max_depth=4, learning_rate=0.4),
        )
        model = trainer.fit(three_class_dataset)
        return trainer, model

    def test_learns_signal(self, trained, three_class_dataset):
        _trainer, model = trained
        labels = model.predict_labels(three_class_dataset.X)
        error = np.mean(labels != three_class_dataset.y)
        assert error < 0.25  # chance would be ~0.67

    def test_loss_decreases(self, trained):
        trainer, _model = trained
        losses = [r.train_loss for r in trainer.history]
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_model_structure(self, trained):
        _trainer, model = trained
        assert model.n_rounds == 6
        assert model.n_classes == 3
        assert all(len(group) == 3 for group in model.tree_groups)

    def test_proba_valid(self, trained, three_class_dataset):
        _trainer, model = trained
        probs = model.predict_proba(three_class_dataset.X)
        assert probs.shape == (three_class_dataset.n_instances, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_subtraction_variant_equivalent(self, three_class_dataset):
        config = TrainConfig(n_trees=2, max_depth=3, learning_rate=0.4)
        plain = MulticlassGBDT(n_classes=3, config=config)
        plain.fit(three_class_dataset)
        fast = MulticlassGBDT(n_classes=3, config=config, subtraction=True)
        fast.fit(three_class_dataset)
        assert fast.history[-1].train_loss == pytest.approx(
            plain.history[-1].train_loss, rel=1e-6
        )


class TestSerialization:
    def test_json_roundtrip(self, three_class_dataset, tmp_path):
        trainer = MulticlassGBDT(
            n_classes=3, config=TrainConfig(n_trees=2, max_depth=3)
        )
        model = trainer.fit(three_class_dataset)
        path = tmp_path / "mc.json"
        model.save(path)
        loaded = MulticlassModel.load(path)
        np.testing.assert_allclose(
            loaded.predict_raw(three_class_dataset.X),
            model.predict_raw(three_class_dataset.X),
        )

    def test_bad_format(self):
        with pytest.raises(DataError):
            MulticlassModel.from_dict({"format": "nope"})

    def test_unknown_version_rejected_naming_the_path(self, tmp_path):
        payload = MulticlassModel([], np.zeros(3), 4).to_dict()
        payload["version"] = 2
        path = tmp_path / "future-mc.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match=r"future-mc\.json.*version 2"):
            MulticlassModel.load(path)
        del payload["version"]  # pre-check artifacts read as version 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert MulticlassModel.load(path).n_rounds == 0

    def test_empty_model_not_fitted(self):
        model = MulticlassModel([], np.zeros(3), 4)
        with pytest.raises(NotFittedError):
            model.predict_raw(CSRMatrix.from_rows([[]], n_cols=4))

    def test_group_size_validated(self):
        from repro.tree import RegressionTree

        tree = RegressionTree(2)
        tree.set_leaf(0, 0.0)
        with pytest.raises(DataError):
            MulticlassModel([[tree]], np.zeros(3), 4)
