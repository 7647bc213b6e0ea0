"""Model-artifact loaders are total: hostile JSON is a ``DataError``.

``GBDTModel.from_dict`` / ``MulticlassModel.from_dict`` used to index a
parsed file on trust — ``{"max_depth": 40}`` asked numpy for 4 TiB, a
missing key was a ``KeyError``, a NaN weight or a tree with a hole in it
loaded silently.  Every payload below must now be refused with a
``DataError`` that names the field, before any ``2**max_depth``-sized
allocation, and a serving store asked to swap to such a file must keep
serving the version it has.
"""

from __future__ import annotations

import copy
import filecmp
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boosting.model import GBDTModel
from repro.boosting.multiclass import MulticlassModel
from repro.datasets.sparse import CSRMatrix
from repro.errors import DataError, ServingError
from repro.serving.store import ModelStore
from repro.tree.tree import MAX_ARTIFACT_DEPTH, RegressionTree

from ..inference.conftest import random_tree

N_FEATURES = 4


def good_tree() -> dict:
    """Depth 3: 0 and 1 split, 2 / 3 / 4 are leaves."""
    return {
        "max_depth": 3,
        "nodes": [
            {"id": 0, "feature": 1, "value": 0.5, "gain": 2.0, "cover": 9.0},
            {"id": 1, "feature": 0, "value": -0.25},
            {"id": 2, "weight": 1.0, "cover": 4.0},
            {"id": 3, "weight": -1.0},
            {"id": 4, "weight": 0.5},
        ],
    }


def good_binary() -> dict:
    return {
        "format": "repro-dimboost-gbdt",
        "version": 1,
        "base_score": 0.25,
        "loss": "squared",
        "n_features": N_FEATURES,
        "trees": [good_tree(), good_tree()],
    }


def good_multiclass() -> dict:
    return {
        "format": "repro-dimboost-gbdt-multiclass",
        "version": 1,
        "base_scores": [0.1, -0.1],
        "n_features": N_FEATURES,
        "rounds": [[good_tree(), good_tree()], [good_tree(), good_tree()]],
    }


def _set(**changes):
    """Mutation of one JSON object: update (or, with ``None``, drop) keys."""

    def apply(target: dict) -> None:
        for key, value in changes.items():
            if value is None:
                del target[key]
            else:
                target[key] = value

    return apply


def _node(index: int, **changes):
    """The same, on node ``index`` of a tree payload."""
    return lambda tree: _set(**changes)(tree["nodes"][index])


def _append(*entries):
    return lambda tree: tree["nodes"].extend(entries)


def _drop(index: int):
    return lambda tree: tree["nodes"].pop(index)


NAN, INF = float("nan"), float("inf")

#: name -> (mutation of one tree payload, fragment the error must name).
HOSTILE_TREES = {
    "max_depth_40": (_set(max_depth=40), "max_depth"),
    "max_depth_30": (_set(max_depth=30), "max_depth"),
    "max_depth_25": (_set(max_depth=MAX_ARTIFACT_DEPTH + 1), "max_depth"),
    "max_depth_0": (_set(max_depth=0), "max_depth"),
    "max_depth_str": (_set(max_depth="a"), "max_depth"),
    "max_depth_float": (_set(max_depth=2.5), "max_depth"),
    "max_depth_true": (_set(max_depth=True), "max_depth"),
    "max_depth_missing": (_set(max_depth=None), "max_depth"),
    "nodes_missing": (_set(nodes=None), "nodes"),
    "nodes_int": (_set(nodes=3), "nodes"),
    "nodes_empty": (_set(nodes=[]), "no root"),
    "node_not_object": (_append(3), "nodes[5]"),
    "node_is_string": (_append("feature"), "nodes[5]"),
    "id_missing": (_node(2, id=None), "nodes[2].id"),
    "id_fraction": (_node(2, id=2.5), "nodes[2].id"),
    "id_string": (_node(2, id="2"), "nodes[2].id"),
    "id_negative": (_node(2, id=-1), "nodes[2].id"),
    "id_beyond_slots": (_node(2, id=7), "nodes[2].id"),
    "id_huge": (_node(2, id=2**70), "nodes[2].id"),
    "id_repeated": (_append({"id": 4, "weight": 9.0}), "appears twice"),
    "feature_at_width": (_node(1, feature=N_FEATURES), "nodes[1].feature"),
    "feature_negative": (_node(1, feature=-1), "nodes[1].feature"),
    "feature_string": (_node(1, feature="f0"), "nodes[1].feature"),
    "feature_huge": (_node(1, feature=2**40), "nodes[1].feature"),
    "value_nan": (_node(0, value=NAN), "nodes[0].value"),
    "value_inf": (_node(0, value=INF), "nodes[0].value"),
    "value_missing": (_node(0, value=None), "nodes[0].value"),
    "value_string": (_node(0, value="x"), "nodes[0].value"),
    "value_int_beyond_float": (_node(0, value=10**400), "nodes[0].value"),
    "weight_nan": (_node(3, weight=NAN), "nodes[3].weight"),
    "weight_inf": (_node(3, weight=-INF), "nodes[3].weight"),
    "weight_missing": (_node(3, weight=None), "nodes[3].weight"),
    "weight_list": (_node(3, weight=[1.0]), "nodes[3].weight"),
    "weight_object": (_node(3, weight={"a": 1}), "nodes[3].weight"),
    "gain_string": (_node(0, gain="g"), "nodes[0].gain"),
    "cover_nan": (_node(2, cover=NAN), "nodes[2].cover"),
    "split_on_bottom_level": (
        _node(3, feature=0, value=0.0, weight=None), "bottom level"
    ),
    "node_without_parent": (_append({"id": 5, "weight": 0.0}), "parent"),
    "parent_is_a_leaf": (
        _append({"id": 5, "weight": 0.0}, {"id": 6, "weight": 0.0}), "parent"
    ),
    "internal_without_child": (_drop(4), "lacks a child"),
    "no_root": (_drop(0), "no root"),
}


#: name -> (mutation of the whole model payload, fragment), per kind.
HOSTILE_BINARY = {
    "trees_missing": (_set(trees=None), "trees"),
    "trees_int": (_set(trees=3), "trees"),
    "tree_not_object": (_set(trees=[3]), "trees[0]"),
    "base_score_string": (_set(base_score="x"), "base_score"),
    "base_score_nan": (_set(base_score=NAN), "base_score"),
    "base_score_missing": (_set(base_score=None), "base_score"),
    "loss_int": (_set(loss=5), "loss"),
    "n_features_string": (_set(n_features="4"), "n_features"),
    "n_features_missing": (_set(n_features=None), "n_features"),
    "n_features_negative": (_set(n_features=-1), "n_features"),
}
HOSTILE_MULTICLASS = {
    "rounds_missing": (_set(rounds=None), "rounds"),
    "rounds_int": (_set(rounds=3), "rounds"),
    "round_not_list": (_set(rounds=[3]), "rounds[0]"),
    "round_of_wrong_size": (_set(rounds=[[good_tree()]]), "2 trees"),
    "base_scores_string": (_set(base_scores="x"), "base_scores"),
    "base_scores_nan": (_set(base_scores=[0.0, NAN]), "base_scores[1]"),
    "base_scores_missing": (_set(base_scores=None), "base_scores"),
    "n_features_float": (_set(n_features=4.0), "n_features"),
}


def _refused(loader, payload, fragment: str, tight: bool) -> None:
    """``loader(payload)`` raises a DataError naming ``fragment``; with
    ``tight`` it must do so without allocating a megabyte."""
    tracemalloc.start()
    try:
        with pytest.raises(DataError) as caught:
            loader(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fragment in str(caught.value), str(caught.value)
    if tight:
        assert peak < 1_000_000, f"{peak} bytes allocated before refusing"


@pytest.fixture(scope="module")
def probe() -> CSRMatrix:
    return CSRMatrix.from_rows(
        [[(0, -1.0)], [(1, 2.0)], [], [(0, 1.0), (1, 0.25)]], n_cols=N_FEATURES
    )


@pytest.mark.parametrize("name", sorted(HOSTILE_TREES))
def test_hostile_tree_is_refused_everywhere(name, tmp_path, probe):
    mutate, fragment = HOSTILE_TREES[name]
    tight = name.startswith("max_depth")

    tree = good_tree()
    mutate(tree)
    _refused(
        lambda payload: RegressionTree.from_dict(payload, N_FEATURES),
        tree, fragment, tight,
    )

    binary = good_binary()
    mutate(binary["trees"][1])
    _refused(GBDTModel.from_dict, binary, fragment, tight)
    with pytest.raises(DataError, match=r"model\.trees\[1\]"):
        GBDTModel.from_dict(binary)

    multiclass = good_multiclass()
    mutate(multiclass["rounds"][1][0])
    _refused(MulticlassModel.from_dict, multiclass, fragment, tight)
    with pytest.raises(DataError, match=r"model\.rounds\[1\]\[0\]"):
        MulticlassModel.from_dict(multiclass)

    _store_keeps_serving(binary, tmp_path, probe)


@pytest.mark.parametrize("name", sorted(HOSTILE_BINARY))
def test_hostile_binary_model_is_refused(name, tmp_path, probe):
    mutate, fragment = HOSTILE_BINARY[name]
    payload = good_binary()
    mutate(payload)
    _refused(GBDTModel.from_dict, payload, fragment, tight=False)
    _store_keeps_serving(payload, tmp_path, probe)


@pytest.mark.parametrize("name", sorted(HOSTILE_MULTICLASS))
def test_hostile_multiclass_model_is_refused(name):
    mutate, fragment = HOSTILE_MULTICLASS[name]
    payload = good_multiclass()
    mutate(payload)
    _refused(MulticlassModel.from_dict, payload, fragment, tight=False)


@pytest.mark.parametrize("payload", [[1, 2], "model", 3, None])
def test_payload_that_is_not_an_object(payload):
    for loader in (GBDTModel.from_dict, MulticlassModel.from_dict):
        with pytest.raises(DataError, match="format"):
            loader(payload)
    with pytest.raises(DataError, match="expected an object"):
        RegressionTree.from_dict(payload)


def _store_keeps_serving(payload: dict, tmp_path, probe: CSRMatrix) -> None:
    """A swap to the hostile file raises a serving-visible error — and
    nothing else — while version 1 stays published and scoring."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(good_binary()))
    bad.write_text(json.dumps(payload))  # NaN / Infinity as json writes them
    with ModelStore() as store:
        store.load(str(good))
        before = store.current().predict_raw(probe)
        with pytest.raises((DataError, ServingError)):
            store.load(str(bad))
        assert store.current().version == 1
        np.testing.assert_array_equal(store.current().predict_raw(probe), before)


def test_good_payloads_load(probe):
    model = GBDTModel.from_dict(good_binary())
    # Row 0: x1 absent (0 < 0.5) -> node 1; x0 = -1 < -0.25 -> node 3.
    np.testing.assert_array_equal(
        model.predict_raw(probe), 0.25 + 2 * np.array([-1.0, 1.0, 0.5, 0.5])
    )
    tree = model.trees[0]
    assert tree.gain[0] == 2.0 and tree.cover[0] == 9.0 and tree.cover[2] == 4.0
    assert MulticlassModel.from_dict(good_multiclass()).n_rounds == 2
    deepest = {"max_depth": 12, "nodes": [{"id": 0, "weight": 1.5}]}
    assert RegressionTree.from_dict(deepest).weight[0] == 1.5


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_round_trip_is_exact(tmp_path_factory, seed):
    """``from_dict(to_dict(m))`` rebuilds every array (``gain`` and
    ``cover`` included) and re-saves to a byte-identical file."""
    rng = np.random.default_rng(seed)
    n_features = int(rng.integers(1, 20))
    trees = []
    for _ in range(int(rng.integers(1, 6))):
        tree = random_tree(
            rng, n_features, int(rng.integers(1, 8)), float(rng.uniform(0, 1))
        )
        present = tree.split_feature >= -1
        # Stats on some nodes only: to_dict omits zeros.
        tree.cover[present] = rng.choice([0.0, 1.0], present.sum()) * rng.gamma(
            2.0, size=present.sum()
        )
        internal = tree.split_feature >= 0
        tree.gain[internal] = rng.choice([0.0, 1.0], internal.sum()) * rng.gamma(
            2.0, size=internal.sum()
        )
        trees.append(tree)
    model = GBDTModel(trees, float(rng.normal()), "squared", n_features)
    clone = GBDTModel.from_dict(copy.deepcopy(model.to_dict()))
    assert clone.base_score == model.base_score
    assert clone.n_features == model.n_features
    for ours, theirs in zip(clone.trees, model.trees):
        assert ours.max_depth == theirs.max_depth
        for name in ("split_feature", "split_value", "weight", "gain", "cover"):
            got, want = getattr(ours, name), getattr(theirs, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, err_msg=name)
    folder = tmp_path_factory.mktemp("roundtrip")
    first, second = folder / "first.json", folder / "second.json"
    model.save(first)
    GBDTModel.load(first).save(second)
    assert filecmp.cmp(first, second, shallow=False)

    groups = [trees[i : i + 2] for i in range(0, len(trees) - 1, 2)]
    if groups:
        multi = MulticlassModel(groups, rng.normal(size=2), n_features)
        multi.save(first)
        MulticlassModel.load(first).save(second)
        assert filecmp.cmp(first, second, shallow=False)
