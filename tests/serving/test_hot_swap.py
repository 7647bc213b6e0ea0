"""Hot-swap under concurrent load: version integrity of every response.

The acceptance property of the swap design: each response carries the
version of the model that actually scored it (its raw bits equal that
version's oracle on the same row), and versions change only *between*
micro-batches — one version per ``batch_seq``, monotone in flush order.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.datasets.sparse import CSRMatrix
from repro.errors import ServingError
from repro.serving import ModelStore, ServingConfig, ServingRuntime

from .conftest import make_model, make_rows, rows_to_csr, until_in_flight

N_REQUESTS = 120
SWAP_AT = (40, 80)


@pytest.fixture()
def artifacts(tmp_path):
    models = [make_model(seed) for seed in (1, 2, 3)]
    paths = []
    for i, model in enumerate(models):
        path = tmp_path / f"model-{i}.json"
        model.save(path)
        paths.append(str(path))
    return paths, models


@pytest.mark.serving
def test_hot_swap_under_load(artifacts):
    paths, models = artifacts
    rows = make_rows(9, N_REQUESTS)
    X = rows_to_csr(rows)
    # Version numbers are assigned by the store: v1, v2, v3 in swap order.
    oracle = {
        v + 1: m.compiled().predict_raw(X, base_score=m.base_score)
        for v, m in enumerate(models)
    }

    async def drive():
        store = ModelStore()
        store.load(paths[0])
        runtime = ServingRuntime(
            store, ServingConfig(max_batch_rows=16)
        )
        await runtime.start()
        tasks = []
        for i, (indices, values) in enumerate(rows):
            if i in SWAP_AT:
                # Swap concurrently with live traffic: loading runs in
                # an executor, the loop keeps flushing meanwhile.
                await runtime.swap(paths[SWAP_AT.index(i) + 1])
            tasks.append(asyncio.create_task(runtime.submit(indices, values)))
            if i % 8 == 0:
                await asyncio.sleep(0.001)  # let batches flush mid-stream
        predictions = await asyncio.gather(*tasks)
        metrics = runtime.metrics
        await runtime.stop()
        store.close()
        return predictions, metrics

    predictions, metrics = asyncio.run(drive())
    assert len(predictions) == N_REQUESTS
    assert metrics.swaps == 2

    # 1. Every response's bits come from the version it claims.
    for i, prediction in enumerate(predictions):
        assert prediction.raw == oracle[prediction.version][i], (
            f"request {i} stamped v{prediction.version} but bits disagree"
        )

    # 2. Versions change atomically between batches: one version per
    #    batch_seq, monotone in flush order.
    version_of_batch: dict[int, int] = {}
    for prediction in predictions:
        seen = version_of_batch.setdefault(
            prediction.batch_seq, prediction.version
        )
        assert seen == prediction.version, (
            f"batch {prediction.batch_seq} scored on two versions"
        )
    ordered = [version_of_batch[s] for s in sorted(version_of_batch)]
    assert ordered == sorted(ordered), f"versions regressed: {ordered}"

    # 3. Traffic actually spanned the swaps: the first and final
    #    versions both answered requests.
    versions = {p.version for p in predictions}
    assert 1 in versions and 3 in versions, versions

    # 4. Nothing was shed and batching actually happened.
    assert metrics.served == N_REQUESTS
    assert metrics.rejected == 0
    assert max(metrics.batch_sizes) > 1


def test_swap_to_a_narrower_model_keeps_the_loop_alive(tmp_path):
    """A row admitted under v1 may not fit the v2 that scores it.

    It is answered ``ServingError``; its batch-mate gets v2's exact bits
    and the runtime keeps serving (on the parent the flush raised outside
    its ``try``, the batch loop died and every later request hung).
    """
    narrow = make_model(4, n_features=8)
    paths = []
    for name, model in (("wide", make_model(1)), ("narrow", narrow)):
        paths.append(str(tmp_path / f"{name}.json"))
        model.save(paths[-1])
    fits = (np.array([2, 5], dtype=np.int32), np.ones(2, dtype=np.float32))
    too_wide = (np.array([2, 20], dtype=np.int32), np.ones(2, dtype=np.float32))

    async def drive():
        store = ModelStore()
        store.load(paths[0])
        # Hold v1's first batch in the scorer until the swap has landed.
        gate = threading.Event()
        v1 = store.current()
        original = v1.predict_raw

        def gated(X):
            gate.wait(10)
            return original(X)

        v1.predict_raw = gated
        runtime = ServingRuntime(store, ServingConfig(max_batch_rows=16))
        await runtime.start()
        tasks = [asyncio.create_task(runtime.submit(*fits))]
        await until_in_flight(runtime)
        tasks += [
            asyncio.create_task(runtime.submit(*row))
            for row in (too_wide, fits)
        ]
        await asyncio.sleep(0)  # both admitted, validated against v1
        await runtime.swap(paths[1])
        gate.set()
        results = await asyncio.wait_for(
            asyncio.gather(*tasks, return_exceptions=True), timeout=10
        )
        alive = runtime.running
        after = await asyncio.wait_for(runtime.submit(*fits), timeout=10)
        await runtime.stop()
        store.close()
        return results, alive, after

    (first, rejected, mate), alive, after = asyncio.run(drive())
    assert first.version == 1
    assert isinstance(rejected, ServingError)
    assert "20" in str(rejected) and "8" in str(rejected)
    expected = narrow.compiled().predict_raw(
        CSRMatrix.from_rows([[(2, 1.0), (5, 1.0)]], n_cols=8),
        base_score=narrow.base_score,
    )[0]
    assert (mate.version, mate.raw, mate.batch_size) == (2, expected, 1)
    assert alive
    assert (after.version, after.raw) == (2, expected)


def test_swap_fails_only_the_rows_past_the_new_width(tmp_path):
    """One queued batch mixing rows that fit the narrower v2, a row that
    only fit v1, an unsorted row and empty rows at the start, middle and
    end: the width and order check runs once over the assembled block
    against v2, so exactly the two bad rows fail."""
    narrow = make_model(5, n_features=8)
    paths = []
    for name, model in (("wide", make_model(1)), ("narrow", narrow)):
        paths.append(str(tmp_path / f"{name}.json"))
        model.save(paths[-1])
    layout = [[], [2, 5], [2, 20], [], [0, 7], [5, 3], [1], []]
    bad = {2, 5}
    rows = [
        (np.array(r, dtype=np.int32), np.full(len(r), 0.75, dtype=np.float32))
        for r in layout
    ]

    async def drive():
        store = ModelStore()
        store.load(paths[0])
        gate = threading.Event()
        v1 = store.current()
        original = v1.predict_raw

        def gated(X):
            gate.wait(10)
            return original(X)

        v1.predict_raw = gated
        runtime = ServingRuntime(store, ServingConfig(max_batch_rows=16))
        await runtime.start()
        first = asyncio.create_task(runtime.submit(*rows[1]))
        await until_in_flight(runtime)
        tasks = [asyncio.create_task(runtime.submit(*row)) for row in rows]
        await asyncio.sleep(0)  # all admitted while v1 is published
        await runtime.swap(paths[1])
        gate.set()
        results = await asyncio.wait_for(
            asyncio.gather(first, *tasks, return_exceptions=True), timeout=10
        )
        await runtime.stop()
        store.close()
        return results[1:]

    results = asyncio.run(drive())
    good = [i for i in range(len(layout)) if i not in bad]
    for i in bad:
        assert isinstance(results[i], ServingError), results[i]
        assert "version 2" in str(results[i])
    expected = narrow.compiled().predict_raw(
        CSRMatrix.from_rows(
            [list(zip(layout[i], [0.75] * len(layout[i]))) for i in good],
            n_cols=8,
        ),
        base_score=narrow.base_score,
    )
    served = [results[i] for i in good]
    assert [p.version for p in served] == [2] * len(good)
    assert {(p.batch_seq, p.batch_size) for p in served} == {
        (served[0].batch_seq, len(good))
    }
    assert np.array_equal(np.array([p.raw for p in served]), expected)
