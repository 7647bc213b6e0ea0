#!/usr/bin/env python
"""A realistic file-based pipeline: LibSVM in, trained model out.

Mirrors a production flow: data arrives as LibSVM text (the format RCV1
ships in), is loaded and partitioned, candidates come from the
*distributed* Greenwald-Khanna sketch path (CREATE_SKETCH/PULL_SKETCH),
training runs on the simulated cluster, and the model is exported as
JSON for serving.

Run:
    python examples/libsvm_pipeline.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import ClusterConfig, GBDTModel, TrainConfig, train_distributed
from repro.boosting import auc, error_rate
from repro.datasets import (
    load_libsvm,
    rcv1_like,
    save_libsvm,
    train_test_split,
)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-pipeline-"))

    # 1. ETL: some producer wrote LibSVM text files.
    raw = rcv1_like(scale=0.3, seed=11)
    train_path = workdir / "train.libsvm"
    test_path = workdir / "test.libsvm"
    train_raw, test_raw = train_test_split(raw, test_fraction=0.1, seed=11)
    save_libsvm(train_raw, train_path)
    save_libsvm(test_raw, test_path)
    print(f"wrote {train_path} ({train_path.stat().st_size / 1e6:.2f} MB)")

    # 2. Load; the dimensionality is pinned so train/test agree even if
    #    the test shard misses the last features.
    train = load_libsvm(train_path, n_features=raw.n_features)
    test = load_libsvm(test_path, n_features=raw.n_features)
    print(f"loaded train {train} / test {test}")

    # 3. Distributed training with the faithful sketch path.
    cluster = ClusterConfig(n_workers=4, n_servers=4)
    config = TrainConfig(
        n_trees=12,
        max_depth=6,
        n_split_candidates=20,
        learning_rate=0.2,
        sketch_eps=0.02,
    )
    result = train_distributed(
        "dimboost", train, cluster, config, sketch_mode="distributed"
    )
    print(
        f"trained in {result.sim_seconds:.3f} simulated seconds "
        f"({result.breakdown.as_dict()})"
    )

    # 4. Export + serve.
    model_path = workdir / "model.json"
    result.model.save(model_path)
    served = GBDTModel.load(model_path)
    proba = served.predict(test.X)
    print(f"model saved to {model_path} ({model_path.stat().st_size} bytes)")
    print(f"test error: {error_rate(test.y, proba):.4f}")
    print(f"test AUC:   {auc(test.y, proba):.4f}")


if __name__ == "__main__":
    main()
