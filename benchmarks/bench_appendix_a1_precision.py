"""Appendix A.1 — the precision/compression trade-off of the codec.

The paper proves the quantized histograms keep the expected split gain
and observes d = 8 suffices for no accuracy loss.  This bench sweeps the
bit width, reporting wire bytes, reconstruction error, and end-to-end
test error; the Table 3 note's full-precision-vs-8-bit accuracy pair is
the last two rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, TrainConfig, train_distributed
from repro.boosting import error_rate
from repro.compression import compress_blocked, decompress_blocked
from repro.datasets import rcv1_like, train_test_split

from conftest import bench_scale


def test_a1_codec_error_vs_bits(benchmark, report):
    """Reconstruction error and compression ratio per bit width."""
    rng = np.random.default_rng(0)
    values = rng.normal(size=40_000)

    def run():
        rows = []
        for bits in (2, 4, 8, 16):
            compressed = compress_blocked(values, block_size=20, bits=bits, rng=rng)
            decoded = decompress_blocked(compressed)
            rmse = float(np.sqrt(np.mean((decoded - values) ** 2)))
            rows.append(
                [bits, compressed.wire_bytes, compressed.compression_ratio, rmse]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report.add_table(
        "Appendix A.1: codec error vs bit width",
        ["bits", "wire bytes", "compression ratio", "reconstruction RMSE"],
        rows,
        notes="block size 20 (one scale per feature histogram)",
    )
    rmses = [row[3] for row in rows]
    assert rmses == sorted(rmses, reverse=True)  # more bits, less error
    ratios = [row[2] for row in rows]
    assert ratios == sorted(ratios, reverse=True)  # fewer bits, more ratio


def test_a1_end_to_end_accuracy_vs_bits(benchmark, report):
    """The Table 3 note: 8-bit matches full precision; coarser degrades."""
    scale = bench_scale()
    data = rcv1_like(scale=0.25 * scale, seed=0)
    train, test = train_test_split(data, test_fraction=0.1, seed=0)
    cluster = ClusterConfig(n_workers=5, n_servers=5)
    config = TrainConfig(
        n_trees=8, max_depth=6, n_split_candidates=20, learning_rate=0.2
    )

    def run():
        rows = []
        for bits in (0, 16, 8, 4, 2):
            result = train_distributed(
                "dimboost", train, cluster, config.with_overrides(compression_bits=bits)
            )
            err = error_rate(test.y, result.model.predict(test.X))
            rows.append(
                [
                    bits if bits else "full precision",
                    result.breakdown.communication,
                    err,
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report.add_table(
        "Appendix A.1: end-to-end accuracy vs compression",
        ["bits", "communication seconds", "test error"],
        rows,
        notes="paper pair: full precision 0.2509 vs 8-bit 0.2514 on Gender",
    )
    errs = {row[0]: row[2] for row in rows}
    assert abs(errs[8] - errs["full precision"]) < 0.05
    # Communication shrinks when compressing.
    comms = {row[0]: row[1] for row in rows}
    assert comms[8] < comms["full precision"]
