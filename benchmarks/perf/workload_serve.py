"""``serve_replay``: single-row requests through the serving runtime.

The same flat-ensemble kernel as ``predict_batch``, used the other way:
thousands of tiny batches, where admission, queueing, batch assembly and
future wake-ups dominate.  Load is generated in-process on the runtime's
own event loop (TCP is left out of the load path: ``ServingServer``
answers one request at a time per connection, so a handful of
connections cannot form a batch).

Open loop first — independent users: Poisson bursts of 8 at each rate of
a fixed ladder, every request timed from the instant it was *due*, so a
stall is charged to the requests queued behind it; how late the generator
itself ran is reported, and a rate it could not offer on time is called
generator-bound instead of being read as a latency.  Then a closed loop —
256 callers that each wait for their reply — for saturated throughput.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from dataclasses import dataclass

import numpy as np

import inputs
from harness import NOMINAL_KERNEL_S, Outcome, quartiles
from spec import SERVE_HEADLINE_RATE, SERVE_RATES

from repro.errors import RequestRejectedError
from repro.serving import (
    ModelStore,
    Prediction,
    ServingConfig,
    ServingMetrics,
    ServingRuntime,
    ServingServer,
)

N_TREES = 50
BURST = 8
CLOSED_CALLERS = 256
#: Requests per closed-loop round; rounds repeat until the phase's time is spent.
CLOSED_REQUESTS = 10_000
MIN_CLOSED_ROUNDS = 5
TCP_ROUND_TRIPS = 200
#: Share of ``--seconds`` each phase gets; the headline rate gets the most
#: because its p50/p99 are end-to-end metrics.  The closed loop gets the rest.
RATE_SHARE = {2000: 0.10, 4000: 0.40, 8000: 0.15, 64000: 0.05}
SMOKE_RATE_SECONDS = 0.5

#: A ladder rate is sustained when all of these hold.
FAILED_SHARE_LIMIT = 0.01
P99_LIMIT_MS = 50.0
MAKESPAN_SLACK = 1.05
#: Median burst lateness above which a rate is generator-bound.
LATE_LIMIT_MS = 2.0
#: Stretch of consecutive requests a latency percentile is taken over.
WINDOW_REQUESTS = 1280
WINDOW_STRIDE = 320


@dataclass
class Trace:
    """One open-loop schedule: burst due offsets and the rows requested."""

    rate: int
    offsets: np.ndarray
    row_ids: np.ndarray

    @property
    def length_s(self) -> float:
        return float(self.offsets[-1]) + BURST / self.rate


_OK, _REFUSED, _ERRORED, _WRONG = 1, 2, 3, 4


class PhaseResult:
    """What one load phase (a ladder rate or a closed-loop round) saw.

    Per-request outcomes live in preallocated numpy arrays, filled as
    replies arrive: the load generator must not grow a heap of Python
    objects, or the collector's pauses over *its* garbage would be
    charged to the runtime as latency.
    """

    def __init__(self, sent: int) -> None:
        self.sent = sent
        self.status = np.zeros(sent, dtype=np.int8)
        self.latency = np.zeros(sent)  # ms from the due instant
        self.queued = np.zeros(sent)
        self.score = np.zeros(sent)
        self.overhead = np.zeros(sent)
        self.makespan_s = 0.0
        self.late_ms = np.zeros(0)  # per burst
        self.version_of_batch: dict[int, int] = {}

    def _count(self, status: int) -> int:
        return int(np.count_nonzero(self.status == status))

    @property
    def rejected(self) -> int:
        return self._count(_REFUSED)

    @property
    def errored(self) -> int:
        # A request that never completed is an error too.
        return self._count(_ERRORED) + self._count(0)

    @property
    def wrong(self) -> int:
        return self._count(_WRONG)

    @property
    def succeeded(self) -> int:
        return self._count(_OK)

    @property
    def failed(self) -> int:
        return self.sent - self.succeeded

    def of_succeeded(self, values: np.ndarray) -> np.ndarray:
        """``values`` of the requests that succeeded, in due order."""
        return values[self.status == _OK]

    @property
    def latency_ms(self) -> np.ndarray:
        return self.of_succeeded(self.latency)


class _Scorebook:
    """The rows to request and what direct scoring says of each.

    ``expected[version][row_id]`` is ``FlatEnsemble.predict_raw`` of the
    row under that model version; a response must equal it bit for bit.
    """

    def __init__(self, rows, expected_by_version: dict[int, np.ndarray]) -> None:
        self.rows = rows
        self.expected = {v: e.tolist() for v, e in expected_by_version.items()}

    def judge(self, response: Prediction, row_id: int) -> int:
        expected = self.expected.get(response.version)
        if expected is None or response.raw != expected[row_id]:
            return _WRONG
        return _OK


async def _drain(pending: set) -> None:
    while pending:
        await asyncio.wait(pending)


async def _open_loop(runtime, book: _Scorebook, trace: Trace, midway=None) -> PhaseResult:
    """Offer ``trace`` on schedule whatever the replies do."""
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    result = PhaseResult(len(trace.row_ids))
    status, latency = result.status, result.latency
    queued, score, overhead = result.queued, result.score, result.overhead
    version_of_batch = result.version_of_batch
    rows = book.rows

    async def one(i: int, row_id: int, due: float, sent: float) -> None:
        try:
            response = await runtime.submit(*rows[row_id])
        except RequestRejectedError:
            status[i] = _REFUSED
            return
        except Exception:  # counted, reported, never silently dropped
            status[i] = _ERRORED
            return
        done = clock()
        status[i] = book.judge(response, row_id)
        latency[i] = (done - due) * 1e3
        queued[i] = response.queued_ms
        score[i] = response.score_ms
        overhead[i] = (done - sent) * 1e3 - response.queued_ms - response.score_ms
        version_of_batch[response.batch_seq] = response.version

    row_ids = trace.row_ids.tolist()
    offsets = trace.offsets.tolist()
    late = np.zeros(len(offsets))
    pending: set = set()
    midway_task = None
    started = clock() + 0.005
    i = 0
    for b, offset in enumerate(offsets):
        due = started + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        now = clock()
        late[b] = max(0.0, now - due) * 1e3
        if midway is not None and midway_task is None and 2 * b >= len(offsets):
            midway_task = loop.create_task(midway())
        for _ in range(BURST):
            task = loop.create_task(one(i, row_ids[i], due, now))
            pending.add(task)
            task.add_done_callback(pending.discard)
            i += 1
    await _drain(pending)
    result.makespan_s = clock() - started
    result.late_ms = late
    if midway_task is not None:
        await midway_task
    return result


async def _closed_loop(runtime, book: _Scorebook, row_ids: list[int]) -> PhaseResult:
    """``CLOSED_CALLERS`` callers, each sending its next request on reply."""
    result = PhaseResult(len(row_ids))
    status = result.status
    rows = book.rows
    cursor = 0

    async def caller() -> None:
        nonlocal cursor
        while cursor < len(row_ids):
            i = cursor
            cursor += 1
            row_id = row_ids[i]
            try:
                response = await runtime.submit(*rows[row_id])
            except RequestRejectedError:
                status[i] = _REFUSED
            except Exception:  # counted, reported, never silently dropped
                status[i] = _ERRORED
            else:
                status[i] = book.judge(response, row_id)

    started = time.perf_counter()
    await asyncio.gather(*(caller() for _ in range(CLOSED_CALLERS)))
    result.makespan_s = time.perf_counter() - started
    return result


async def _tcp_round_trips(runtime, book: _Scorebook, row_ids: list[int]) -> PhaseResult:
    """Closed-loop NDJSON round trips on one connection: parse + serialize."""
    server = ServingServer(runtime, port=0)
    await server.start()
    result = PhaseResult(len(row_ids))
    try:
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            for i, row_id in enumerate(row_ids):
                indices, values = book.rows[row_id]
                line = json.dumps(
                    {"features": [[int(f), float(v)] for f, v in zip(indices, values)]}
                )
                started = time.perf_counter()
                writer.write(line.encode("utf-8") + b"\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                result.latency[i] = (time.perf_counter() - started) * 1e3
                if not reply.get("ok"):
                    result.status[i] = _ERRORED
                elif reply["raw"] != book.expected[reply["version"]][row_id]:
                    result.status[i] = _WRONG
                else:
                    result.status[i] = _OK
        finally:
            writer.close()
            await writer.wait_closed()
    finally:
        await server.close()
    return result


def _calm(latency_ms: np.ndarray, percentile: float) -> tuple[float, list[float]]:
    """The percentile over the calmest stretch of a pass.

    Interference only ever adds latency.  This sandbox stalls for tens of
    milliseconds a few times a pass, and for minutes at a time every
    tail doubles: over ten runs the whole-pass p99 spread 68-287 % of its
    median, the median of twenty windows' p99 23 %, the calmest window's
    3-5 %.  So each percentile is taken over every stretch of
    ``WINDOW_REQUESTS`` consecutive requests (0.32 s at the headline rate,
    12 samples beyond a p99), a quarter-window apart, and the lowest one is
    reported.  A tail the program itself grows raises every stretch, the
    calmest included; a pause rarer than one a stretch is not seen here
    and shows in the whole-pass p99 printed on the rate line.

    Returns (the lowest, every stretch's value).
    """
    starts = range(0, max(1, len(latency_ms) - WINDOW_REQUESTS + 1), WINDOW_STRIDE)
    values = [
        float(np.percentile(latency_ms[s : s + WINDOW_REQUESTS], percentile))
        for s in starts
    ]
    return min(values), values


def _sustained(result: PhaseResult, trace: Trace) -> tuple[bool, str]:
    # The typical burst, not the mean: one 130 ms sandbox stall makes every
    # burst behind it late and would call a rate the generator offers on
    # time for the other 95 % of the pass generator-bound.
    late = float(np.median(result.late_ms))
    if late > LATE_LIMIT_MS:
        return False, f"GENERATOR-BOUND (median burst {late:.2f} ms late)"
    if result.failed > FAILED_SHARE_LIMIT * result.sent:
        return False, f"failed share {result.failed / result.sent:.1%}"
    p99, _ = _calm(result.latency_ms, 99)
    if p99 > P99_LIMIT_MS:
        return False, f"p99 {p99:.1f} ms > {P99_LIMIT_MS:.0f} ms"
    if result.makespan_s > MAKESPAN_SLACK * trace.length_s:
        return False, f"backlog: makespan {result.makespan_s:.2f}s of {trace.length_s:.2f}s"
    return True, "sustained"


def _generate(ctx):
    """Every seeded input: rows to request, the model, the schedules."""
    X = inputs.rcv1_rows(ctx.seed, ctx.smoke).X
    model = inputs.full_tree_model(ctx.seed, X, 8 if ctx.smoke else N_TREES)
    rows = [
        (X.indices[lo:hi], X.data[lo:hi])
        for lo, hi in zip(X.indptr[:-1].tolist(), X.indptr[1:].tolist())
    ]
    rng = np.random.default_rng([ctx.seed, 2])
    traces = []
    for rate in SERVE_RATES:
        seconds = SMOKE_RATE_SECONDS if ctx.smoke else ctx.seconds * RATE_SHARE[rate]
        offsets = inputs.poisson_bursts(rng, rate, seconds, BURST)
        row_ids = rng.integers(0, X.n_rows, size=len(offsets) * BURST)
        traces.append(Trace(rate, offsets, row_ids))
    closed_n = 2_000 if ctx.smoke else CLOSED_REQUESTS
    closed_ids = rng.integers(0, X.n_rows, size=closed_n).tolist()
    return X, model, rows, traces, closed_ids


def run(ctx) -> Outcome:
    outcome = Outcome()
    X, model, rows, traces, closed_ids = ctx.setup.repeated(lambda: _generate(ctx))
    artifact = ctx.workdir / "serve-model-v1.json"
    # The hot-swap target scores the same trees in reverse order: float
    # addition order differs, so a response stamped with the wrong
    # version fails the bit check.
    swapped = type(model)(
        trees=model.trees[::-1],
        base_score=model.base_score,
        loss_name=model.loss_name,
        n_features=model.n_features,
    )
    swap_artifact = ctx.workdir / "serve-model-v2.json"
    store = ModelStore()
    try:
        with ctx.setup.once():
            model.save(artifact)
            swapped.save(swap_artifact)
            store.load(str(artifact))
        # Direct scoring is the oracle; computing it is not set-up.
        book = _Scorebook(
            rows,
            {
                1: model.compiled().predict_raw(X, base_score=model.base_score),
                2: swapped.compiled().predict_raw(X, base_score=swapped.base_score),
            },
        )
        with ctx.setup.once():
            asyncio.run(_warm_up(store, book, closed_ids[:2_000]))
        outcome.notes.append(
            f"{X.n_rows}x{X.n_cols} rows to draw from, T={model.n_trees} depth-7 "
            f"full trees, default ServingConfig, bursts of {BURST}"
        )
        # The inputs (20k row tuples, schedules, the oracle) are the load
        # generator's, not the server's: take them out of the collector's
        # sight so its pauses scale with the runtime's garbage alone.
        gc.collect()
        gc.freeze()
        try:
            asyncio.run(
                _measure(ctx, store, book, traces, closed_ids, str(swap_artifact), outcome)
            )
        finally:
            gc.unfreeze()
    finally:
        store.close()
    return outcome


async def _warm_up(store, book, row_ids) -> None:
    runtime = ServingRuntime(store, ServingConfig(), metrics=ServingMetrics())
    await runtime.start()
    try:
        await _closed_loop(runtime, book, row_ids)
    finally:
        await runtime.stop()


@dataclass
class Rung:
    """One ladder rate: what the pass saw and whether it was sustained."""

    result: PhaseResult
    sustained: bool
    verdict: str
    metrics: ServingMetrics


async def _ladder(ctx, store, book, traces, swap_path, outcome) -> tuple[dict, list]:
    """The open-loop passes, lowest rate first; (rungs by rate, swap ms)."""
    rungs: dict[int, Rung] = {}
    swap_ms: list[float] = []
    for trace in traces:
        ctx.speed.sample(2)
        runtime = ServingRuntime(store, ServingConfig(), metrics=ServingMetrics())

        async def swap_midway(runtime=runtime) -> None:
            started = time.perf_counter()
            await runtime.swap(swap_path)
            swap_ms.append((time.perf_counter() - started) * 1e3)

        swap = ctx.trace and trace.rate == SERVE_HEADLINE_RATE
        await runtime.start()
        try:
            result = await _open_loop(runtime, book, trace, swap_midway if swap else None)
        finally:
            await runtime.stop()
        rungs[trace.rate] = Rung(result, *_sustained(result, trace), runtime.metrics)
        outcome.attempted += result.sent
        # Wrong or errored responses are failed operations at any rate.
        # A refusal is the runtime shedding load as designed (a sandbox
        # stall of 200 ms fills the queue even at 4000/s): it counts in
        # the rate's own ``failed`` and its ladder verdict, and becomes a
        # failed operation only when a rate at or below the headline
        # sheds more than the ladder tolerates.
        bad = result.errored + result.wrong
        if bad:
            outcome.fail(
                f"rate {trace.rate}: {result.errored} errored, {result.wrong} not "
                f"bit-equal to direct FlatEnsemble.predict_raw",
                bad,
            )
        if (
            trace.rate <= SERVE_HEADLINE_RATE
            and result.rejected > FAILED_SHARE_LIMIT * result.sent
        ):
            outcome.fail(
                f"rate {trace.rate}: {result.rejected} of {result.sent} requests refused",
                result.rejected,
            )
        latency = result.latency_ms
        p50 = _calm(latency, 50)[0] if len(latency) else 0.0
        p99 = _calm(latency, 99)[0] if len(latency) else 0.0
        p99_pass = float(np.percentile(latency, 99)) if len(latency) else 0.0
        outcome.notes.append(
            f"rate {trace.rate:>5}/s: sent {result.sent} succeeded {result.succeeded} "
            f"failed {result.failed} (refused {result.rejected}, errored "
            f"{result.errored}, wrong {result.wrong}) p50 {p50:.2f} ms p99 {p99:.2f} ms "
            f"(whole pass {p99_pass:.2f}) "
            f"makespan {result.makespan_s:.2f}s/{trace.length_s:.2f}s late median "
            f"{np.median(result.late_ms):.3f} mean {np.mean(result.late_ms):.3f} max "
            f"{np.max(result.late_ms):.2f} ms -> {rungs[trace.rate].verdict}"
        )
        if ctx.trace:
            outcome.record(f"serving.rate_{trace.rate}.p50_ms", p50)
            outcome.record(f"serving.rate_{trace.rate}.p99_ms", p99)
            outcome.record(f"serving.rate_{trace.rate}.failed", result.failed)
    return rungs, swap_ms


async def _closed_rounds(ctx, store, book, closed_ids, outcome):
    """Closed-loop rounds until the phase's share of the run is spent.

    Returns (requests per second of each round at nominal speed, the TCP
    round-trip result of a traced pass or None).
    """
    runtime = ServingRuntime(store, ServingConfig(), metrics=ServingMetrics())
    budget = ctx.seconds * (1.0 - sum(RATE_SHARE.values()))
    floor = 1 if ctx.smoke else MIN_CLOSED_ROUNDS
    rps: list[float] = []
    tcp = None
    await runtime.start()
    try:
        started = time.perf_counter()
        first_sample = len(ctx.speed.samples)
        ctx.speed.sample()
        while len(rps) < floor or time.perf_counter() - started < budget:
            result = await _closed_loop(runtime, book, closed_ids)
            ctx.speed.sample()
            outcome.attempted += result.sent
            if result.failed:
                outcome.fail(
                    f"closed loop: {result.rejected} refused, {result.errored} errored, "
                    f"{result.wrong} wrong",
                    result.failed,
                )
            rps.append(result.sent / result.makespan_s)
        # CPU is stolen from this sandbox in bursts shorter than a round, so
        # rounds dip and kernel samples spike, each one-sidedly.  Compare
        # calm with calm: the fast quartile of the rounds at the fast
        # quartile of the kernel.  Under synthetic interference the ten-run
        # spread was 13 %, against 21 % for the median round at the median
        # kernel and 28 % for the raw median round.
        kernel_fast = quartiles(ctx.speed.samples[first_sample:])[0]
        speed = NOMINAL_KERNEL_S / kernel_fast
        rps = [r / speed for r in rps]
        outcome.notes.append(
            f"closed loop: {CLOSED_CALLERS} callers, {len(rps)} rounds of "
            f"{len(closed_ids)} requests, batch rows mean "
            f"{_batch_rows_mean(runtime.metrics):.1f}"
        )
        if ctx.trace:
            tcp = await _tcp_round_trips(runtime, book, closed_ids[:TCP_ROUND_TRIPS])
    finally:
        if runtime.running:
            await runtime.stop()
    return rps, tcp


async def _measure(ctx, store, book, traces, closed_ids, swap_path, outcome) -> None:
    rungs, swap_ms = await _ladder(ctx, store, book, traces, swap_path, outcome)
    closed_rps, tcp = await _closed_rounds(ctx, store, book, closed_ids, outcome)

    headline = rungs[SERVE_HEADLINE_RATE].result
    if not headline.succeeded:
        raise RuntimeError(f"serve_replay: no request succeeded: {outcome.problems}")
    p50, p50_stretches = _calm(headline.latency_ms, 50)
    outcome.op_seconds = p50 / 1e3
    if not ctx.trace:
        sustained = [rate for rate, rung in rungs.items() if rung.sustained]
        p99, p99_stretches = _calm(headline.latency_ms, 99)
        outcome.record("serve_p50_ms", p50, p50_stretches)
        outcome.record("serve_p99_ms", p99, p99_stretches)
        # A ladder on which nothing is sustained reports half its lowest
        # rung: the metric may never read zero.
        outcome.record(
            "serve_max_rate_rps", max(sustained) if sustained else SERVE_RATES[0] / 2
        )
        outcome.record("serve_closed_rps", quartiles(closed_rps)[2], closed_rps)
        return

    # Version stamps in batch order: only 1 and 2, never back to 1.
    versions = [v for _, v in sorted(headline.version_of_batch.items())]
    if versions != sorted(versions) or set(versions) - {1, 2}:
        outcome.fail("hot swap: response versions not non-decreasing within {1, 2}")
    outcome.attempted += tcp.sent
    if tcp.failed:
        outcome.fail(f"tcp: {tcp.errored} errored, {tcp.wrong} wrong", tcp.failed)

    def p50(values: np.ndarray) -> float:
        return float(np.percentile(values, 50)) if len(values) else 0.0

    served = rungs[SERVE_HEADLINE_RATE].metrics
    outcome.record("serving.queued_ms_p50", p50(headline.of_succeeded(headline.queued)))
    outcome.record("serving.score_ms_p50", p50(headline.of_succeeded(headline.score)))
    outcome.record(
        "serving.overhead_ms_p50", p50(headline.of_succeeded(headline.overhead))
    )
    outcome.record("serving.batch_rows_mean", _batch_rows_mean(served))
    outcome.record("serving.queue_depth_mean", served.queue_depth_mean)
    outcome.record(
        "serving.rejected", sum(rung.result.rejected for rung in rungs.values())
    )
    outcome.record("serving.swap_ms", swap_ms[0] if swap_ms else 0.0)
    outcome.record("serving.tcp_rtt_ms_p50", p50(tcp.latency_ms))
    outcome.record("loadgen.late_ms_mean", float(np.mean(headline.late_ms)))
    outcome.record("loadgen.late_ms_max", float(np.max(headline.late_ms)))
    # Nothing is patched on this workload: the layer numbers are read from
    # the runtime's own stamps, so a traced pass costs what an untraced does.
    outcome.record("trace.overhead_share", 0.0)
    outcome.record("trace.speed_factor", ctx.speed.factor())


def _batch_rows_mean(metrics: ServingMetrics) -> float:
    flushes = sum(metrics.batch_sizes.values())
    if not flushes:
        return 0.0
    return sum(rows * count for rows, count in metrics.batch_sizes.items()) / flushes
