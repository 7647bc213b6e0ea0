#!/usr/bin/env python
"""Low-precision histograms: the Section 6.1 / Appendix A.1 trade-off.

Demonstrates the fixed-point codec directly (unbiasedness and the
error bound), then sweeps the bit width through distributed training to
show the paper's observation: 8 bits buy a 4x wire reduction at
essentially no accuracy cost, while coarser widths start to hurt.

Run:
    python examples/compression_tradeoff.py
"""

from __future__ import annotations

import numpy as np

from repro import ClusterConfig, TrainConfig, train_distributed
from repro.boosting import error_rate
from repro.compression import compress_blocked, decompress_blocked
from repro.datasets import rcv1_like, train_test_split


def codec_demo() -> None:
    rng = np.random.default_rng(0)
    values = rng.normal(size=10_000)
    print("codec behaviour on 10K gaussian values (block size 20):\n")
    print(f"{'bits':>5s} {'wire bytes':>11s} {'ratio':>7s} {'rmse':>9s} {'bias':>10s}")
    for bits in (2, 4, 8, 16):
        compressed = compress_blocked(values, block_size=20, bits=bits, rng=rng)
        decoded = decompress_blocked(compressed)
        rmse = float(np.sqrt(np.mean((decoded - values) ** 2)))
        bias = float(np.mean(decoded - values))
        print(
            f"{bits:5d} {compressed.wire_bytes:11d} "
            f"{compressed.compression_ratio:6.2f}x {rmse:9.5f} {bias:10.6f}"
        )
    print("\nstochastic rounding keeps the bias ~0 at every width (A.1),")
    print("while the error shrinks by ~2x per extra bit.")


def training_sweep() -> None:
    data = rcv1_like(scale=0.3, seed=3)
    train, test = train_test_split(data, test_fraction=0.1, seed=3)
    cluster = ClusterConfig(n_workers=5, n_servers=5)
    config = TrainConfig(
        n_trees=10, max_depth=6, n_split_candidates=20, learning_rate=0.2
    )
    print("\ndistributed training vs compression width "
          f"({data.n_instances} x {data.n_features}):\n")
    print(f"{'bits':>15s} {'comm (s)':>9s} {'test error':>11s}")
    for bits in (0, 16, 8, 4, 2):
        result = train_distributed(
            "dimboost", train, cluster, config.with_overrides(compression_bits=bits)
        )
        err = error_rate(test.y, result.model.predict(test.X))
        label = "full precision" if bits == 0 else f"{bits}-bit"
        print(f"{label:>15s} {result.breakdown.communication:9.4f} {err:11.4f}")
    print("\npaper: full precision 0.2509 vs 8-bit 0.2514 — 8 bits are free.")


def main() -> None:
    codec_demo()
    training_sweep()


if __name__ == "__main__":
    main()
