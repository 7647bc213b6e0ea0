"""ServingRuntime: batching policy, admission control, load shedding."""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, RequestRejectedError, ServingError
from repro.serving import ModelStore, Prediction, ServingConfig, ServingRuntime
from repro.serving.runtime import _invalid_rows

from .conftest import N_FEATURES, make_rows, rows_to_csr, until_in_flight


def run(coro):
    return asyncio.run(coro)


@pytest.fixture()
def store(artifact_a):
    with ModelStore() as s:
        s.load(artifact_a)
        yield s


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_batch_rows=0),
            dict(queue_limit=0),
            dict(deadline_ms=0.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ServingConfig(**kwargs)

    def test_scorer_pool_field_is_refused(self):
        with pytest.raises(TypeError):
            ServingConfig(n_processes=2)


class TestLifecycle:
    def test_submit_before_start_is_shed(self, store):
        async def body():
            runtime = ServingRuntime(store)
            with pytest.raises(RequestRejectedError) as err:
                await runtime.submit([1], [1.0])
            assert err.value.reason == "shutdown"

        run(body())

    def test_start_requires_loaded_store(self):
        async def body():
            with pytest.raises(ServingError, match="no version"):
                await ServingRuntime(ModelStore()).start()

        run(body())

    def test_double_start_rejected(self, store):
        async def body():
            runtime = ServingRuntime(store)
            await runtime.start()
            try:
                with pytest.raises(ServingError, match="already started"):
                    await runtime.start()
            finally:
                await runtime.stop()

        run(body())

    def test_stop_then_restart(self, store):
        async def body():
            runtime = ServingRuntime(store)
            await runtime.start()
            await runtime.stop()
            assert not runtime.running
            with pytest.raises(RequestRejectedError):
                await runtime.submit([1], [1.0])
            await runtime.start()
            prediction = await runtime.submit([1], [1.0])
            await runtime.stop()
            return prediction

        prediction = run(body())
        assert prediction.version == 1

    def test_dead_batch_loop_fails_fast(self, store):
        """If the loop ever exits abnormally, nothing waits on it: the
        queued request and every later submit are refused at once."""

        async def body():
            runtime = ServingRuntime(store)

            def broken(batch):
                raise RuntimeError("boom")

            runtime._fill_nowait = broken
            await runtime.start()
            with pytest.raises(RequestRejectedError) as queued:
                await asyncio.wait_for(runtime.submit([1], [1.0]), timeout=5)
            assert not runtime.running
            with pytest.raises(RequestRejectedError) as later:
                await asyncio.wait_for(runtime.submit([1], [1.0]), timeout=5)
            with pytest.raises(RuntimeError, match="boom"):
                await runtime.stop()  # surfaces what killed the loop
            return queued.value.reason, later.value.reason, runtime.metrics

        queued, later, metrics = run(body())
        assert queued == later == "shutdown"
        assert metrics.rejected_shutdown == 2


class TestAdmissionValidation:
    # The first four fail when their batch is assembled, the rest at
    # admission; either way the submit raises ServingError.
    @pytest.mark.parametrize(
        "indices, values",
        [
            ([3, 1], [1.0, 1.0]),  # not increasing
            ([1, 1], [1.0, 1.0]),  # duplicate
            ([-1], [1.0]),  # negative
            ([9999], [1.0]),  # past n_features
            ([1, 2], [1.0]),  # length mismatch
            ([2**40], [1.0]),  # does not fit the index dtype
            (["a"], [1.0]),  # not a number
        ],
    )
    def test_bad_rows_raise_serving_error(self, store, indices, values):
        async def body():
            runtime = ServingRuntime(store)
            await runtime.start()
            try:
                with pytest.raises(ServingError):
                    await runtime.submit(indices, values)
            finally:
                await runtime.stop()

        run(body())

    def test_empty_row_is_valid(self, store):
        async def body():
            runtime = ServingRuntime(store)
            await runtime.start()
            try:
                return await runtime.submit([], [])
            finally:
                await runtime.stop()

        prediction = run(body())
        assert np.isfinite(prediction.raw)

    @pytest.mark.parametrize("deadline_ms", [0.0, -5.0, float("nan")])
    def test_deadline_not_above_zero_is_refused_at_submit(
        self, store, deadline_ms
    ):
        """ServingConfig's rule, per request: NaN used to disable the
        deadline and a value <= 0 was queued, then shed as "deadline"."""

        async def body():
            runtime = ServingRuntime(store)
            await runtime.start()
            try:
                with pytest.raises(ServingError, match="deadline_ms must be > 0"):
                    await runtime.submit([1], [1.0], deadline_ms=deadline_ms)
            finally:
                await runtime.stop()
            return runtime.metrics

        metrics = run(body())
        assert metrics.submitted == 0
        assert metrics.rejected_deadline == 0


EMPTY: list[int] = []


def _row(indices: list[int]) -> tuple[np.ndarray, np.ndarray]:
    idx = np.asarray(indices, dtype=np.int32)
    return idx, np.linspace(0.5, 1.5, len(idx), dtype=np.float32)


def _fits(indices: list[int], n_features: int = N_FEATURES) -> bool:
    """The per-row reference: strictly increasing within [0, n_features)."""
    return all(0 <= f < n_features for f in indices) and all(
        b > a for a, b in zip(indices, indices[1:])
    )


class TestBatchValidation:
    """Indices are checked once per batch, over the assembled block,
    against the version that scores it: only the bad rows fail."""

    @pytest.mark.parametrize(
        "layout",
        [
            # Every kind of bad row, empty rows at the start, middle, end;
            # [10, 20] then [3, 5] and [7] then [7] are good rows whose
            # boundary would look unsorted if it were not masked.
            [EMPTY, [10, 20], [3, 5], [5, 3], EMPTY, [4, 4], [7], [7],
             [-1, 2], EMPTY, [2, N_FEATURES], [0, 1, 23], EMPTY],
            # A bad row just before trailing empty rows (a row start equal
            # to nnz must not index past the block).
            [[1, 2], [9, 8], EMPTY, EMPTY],
            [[1, 2], [2, N_FEATURES + 5], EMPTY],
            # A bad row just after leading empty rows, and last of all.
            [EMPTY, EMPTY, [-3], [6, 9]],
            [[6, 9], [6, 6]],
            # Nothing valid: the flush scores nothing.
            [[3, 1], [N_FEATURES]],
        ],
        ids=["every-kind", "bad-then-empties", "wide-then-empty",
             "empties-then-bad", "bad-last", "all-bad"],
    )
    def test_only_bad_rows_fail(self, store, model_a, layout):
        rows = [_row(indices) for indices in layout]
        good = [i for i, indices in enumerate(layout) if _fits(indices)]

        async def body():
            runtime = ServingRuntime(store, ServingConfig(max_batch_rows=64))
            await runtime.start()
            tasks = [asyncio.create_task(runtime.submit(*row)) for row in rows]
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await runtime.stop()
            return results, runtime.metrics

        results, metrics = run(body())
        for i, result in enumerate(results):
            if i in good:
                assert not isinstance(result, Exception), (i, result)
            else:
                assert type(result) is ServingError, (i, result)
                assert f"[0, {N_FEATURES})" in str(result)
        served = [results[i] for i in good]
        assert metrics.served == len(good)
        if not good:
            assert metrics.empty_flushes == 1
            return
        assert {(p.batch_seq, p.batch_size) for p in served} == {
            (served[0].batch_seq, len(good))
        }
        direct = model_a.compiled().predict_raw(
            rows_to_csr([rows[i] for i in good]), base_score=model_a.base_score
        )
        assert np.array_equal(np.array([p.raw for p in served]), direct)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-2, 12), max_size=5), min_size=1, max_size=12
        )
    )
    def test_invalid_rows_matches_a_per_row_check(self, layout):
        n_features = 10
        indptr = np.zeros(len(layout) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in layout], out=indptr[1:])
        indices = np.array(
            [f for row in layout for f in row], dtype=np.int32
        )
        expected = [i for i, row in enumerate(layout) if not _fits(row, n_features)]
        assert _invalid_rows(indptr, indices, n_features).tolist() == expected


class TestPrediction:
    def test_is_an_immutable_named_tuple(self):
        prediction = Prediction(0.25, 0.56, 3, 7, 12, 0.4, 0.1)
        assert Prediction._fields == (
            "raw", "value", "version", "batch_seq", "batch_size",
            "queued_ms", "score_ms",
        )
        assert (prediction.raw, prediction.version, prediction.score_ms) == (
            0.25, 3, 0.1,
        )
        with pytest.raises(AttributeError):
            prediction.raw = 1.0
        with pytest.raises(AttributeError):
            prediction.extra = 1
        assert prediction._replace(version=4).version == 4


class TestBatching:
    def test_backlog_coalesces_into_one_batch(self, store, model_a):
        """Requests admitted before the loop drains ride one flush."""
        rows = make_rows(3, 10)

        async def body():
            runtime = ServingRuntime(
                store, ServingConfig(max_batch_rows=64)
            )
            await runtime.start()
            tasks = [
                asyncio.create_task(runtime.submit(idx, val))
                for idx, val in rows
            ]
            predictions = await asyncio.gather(*tasks)
            await runtime.stop()
            return predictions

        predictions = run(body())
        assert [p.batch_size for p in predictions] == [10] * 10
        assert len({p.batch_seq for p in predictions}) == 1
        direct = model_a.compiled().predict_raw(
            rows_to_csr(rows), base_score=model_a.base_score
        )
        assert np.array_equal(np.array([p.raw for p in predictions]), direct)

    def test_max_batch_rows_splits_backlog(self, store):
        rows = make_rows(4, 10)

        async def body():
            runtime = ServingRuntime(
                store, ServingConfig(max_batch_rows=4)
            )
            await runtime.start()
            tasks = [
                asyncio.create_task(runtime.submit(idx, val))
                for idx, val in rows
            ]
            predictions = await asyncio.gather(*tasks)
            await runtime.stop()
            return predictions, dict(runtime.metrics.batch_sizes)

        predictions, sizes = run(body())
        assert all(p.batch_size <= 4 for p in predictions)
        assert sum(r * c for r, c in sizes.items()) == 10
        assert max(sizes) <= 4

    def test_request_path_schedules_no_timer(self, store, monkeypatch):
        """Batching is driven by back-pressure alone: serving a request
        never arms a timer (the old policy armed one per queued item)."""
        rows = make_rows(11, 100)
        timers = []

        async def body():
            loop = asyncio.get_running_loop()
            for name in ("call_at", "call_later"):
                original = getattr(loop, name)

                def counted(*args, _original=original, **kwargs):
                    timers.append(args)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(loop, name, counted)
            runtime = ServingRuntime(store)
            await runtime.start()
            predictions = [await runtime.submit(idx, val) for idx, val in rows]
            await runtime.stop()
            return predictions

        predictions = run(body())
        assert timers == []
        # Sequential callers on an idle runtime: every request is alone.
        assert [p.batch_size for p in predictions] == [1] * 100

    def test_arrivals_during_a_flush_ride_the_next_one(self, store):
        """A batch waits only while the previous one scores, so what is
        admitted meanwhile is exactly the next batch."""
        TestLoadShedding._slow_scorer(store)
        rows = make_rows(12, 6)

        async def body():
            runtime = ServingRuntime(store, ServingConfig(max_batch_rows=64))
            await runtime.start()
            lone = asyncio.create_task(runtime.submit(*rows[0]))
            await until_in_flight(runtime)
            behind = [
                asyncio.create_task(runtime.submit(*row)) for row in rows[1:]
            ]
            results = await asyncio.gather(lone, *behind)
            await runtime.stop()
            return results

        lone, *behind = run(body())
        assert lone.batch_size == 1
        assert [p.batch_size for p in behind] == [5] * 5
        assert {p.batch_seq for p in behind} == {lone.batch_seq + 1}

    def test_sequential_mode_never_batches(self, store):
        rows = make_rows(5, 8)

        async def body():
            runtime = ServingRuntime(
                store, ServingConfig(max_batch_rows=1)
            )
            await runtime.start()
            tasks = [
                asyncio.create_task(runtime.submit(idx, val))
                for idx, val in rows
            ]
            predictions = await asyncio.gather(*tasks)
            await runtime.stop()
            return predictions

        predictions = run(body())
        assert all(p.batch_size == 1 for p in predictions)
        assert len({p.batch_seq for p in predictions}) == len(rows)


class TestLoadShedding:
    @staticmethod
    def _slow_scorer(store, seconds=0.08):
        version = store.current()
        original = version.predict_raw

        def slow(X):
            time.sleep(seconds)
            return original(X)

        version.predict_raw = slow

    def test_queue_full_rejection(self, store):
        self._slow_scorer(store)
        rows = make_rows(6, 5)

        async def body():
            runtime = ServingRuntime(
                store,
                ServingConfig(max_batch_rows=1, queue_limit=2),
            )
            await runtime.start()
            first = asyncio.create_task(runtime.submit(*rows[0]))
            await asyncio.sleep(0.02)  # let it enter the (slow) flush
            queued = [
                asyncio.create_task(runtime.submit(*rows[i]))
                for i in (1, 2)
            ]
            await asyncio.sleep(0)  # run their admissions
            with pytest.raises(RequestRejectedError) as err:
                await runtime.submit(*rows[3])
            assert err.value.reason == "queue_full"
            results = await asyncio.gather(first, *queued)
            await runtime.stop()
            return results, runtime.metrics

        results, metrics = run(body())
        assert len(results) == 3
        assert metrics.rejected_queue_full == 1
        assert metrics.served == 3

    def test_deadline_shed_at_dequeue(self, store):
        self._slow_scorer(store)
        rows = make_rows(7, 2)

        async def body():
            runtime = ServingRuntime(
                store,
                ServingConfig(max_batch_rows=1),
            )
            await runtime.start()
            first = asyncio.create_task(runtime.submit(*rows[0]))
            await asyncio.sleep(0.02)  # first request is mid-flush
            doomed = asyncio.create_task(
                runtime.submit(*rows[1], deadline_ms=5.0)
            )
            with pytest.raises(RequestRejectedError) as err:
                await doomed
            assert err.value.reason == "deadline"
            prediction = await first
            await runtime.stop()
            return prediction, runtime.metrics

        prediction, metrics = run(body())
        assert prediction.batch_size == 1
        assert metrics.rejected_deadline == 1
        # The doomed request's whole batch expired: an empty flush.
        assert metrics.empty_flushes == 1
        assert metrics.served == 1

    def test_shutdown_sheds_are_counted(self, store):
        """stop() finishes the in-flight batch and sheds what queued up
        behind it; those and every later submit count as shutdown sheds."""
        self._slow_scorer(store)
        rows = make_rows(13, 5)

        async def body():
            runtime = ServingRuntime(store, ServingConfig(max_batch_rows=2))
            await runtime.start()
            in_flight = asyncio.create_task(runtime.submit(*rows[0]))
            await until_in_flight(runtime)
            queued = [
                asyncio.create_task(runtime.submit(*row)) for row in rows[1:]
            ]
            await asyncio.sleep(0)  # run their admissions
            await runtime.stop()
            results = await asyncio.gather(
                in_flight, *queued, return_exceptions=True
            )
            with pytest.raises(RequestRejectedError):
                await runtime.submit(*rows[0])
            return results, runtime.metrics

        (served, *shed), metrics = run(body())
        assert served.batch_size == 1
        assert [e.reason for e in shed] == ["shutdown"] * 4
        assert metrics.rejected_shutdown == 5
        assert metrics.rejected == 5 and metrics.served == 1
        assert metrics.snapshot()["rejected"]["shutdown"] == 5
