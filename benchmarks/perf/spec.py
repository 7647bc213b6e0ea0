"""What the benchmark declares: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is this module's
:func:`manifest` written out; ``tests/test_perf_contract.py`` fails when
the two drift.  ``python3 benchmarks/perf/spec.py`` prints the manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from tracing import COUNTERS, PHASES, SPANS

RUN_SECONDS = 16

#: Open-loop ladder of ``serve_replay`` (requests per second).
SERVE_RATES = (2000, 4000, 8000, 64000)
#: The ladder rate whose latency is the headline ``serve_p50_ms`` / ``p99``.
SERVE_HEADLINE_RATE = 4000

WORKLOADS = (
    (
        "train_row_rcv1",
        "row-sharded 4x4 DimBoost fit, dense 8-bit pushes: codec and "
        "histogram build carry the time, the slab/window/sketch PS code none",
    ),
    (
        "train_grid_gender",
        "2x2 grid fit with server-merged GK sketches, sparse slabs and W=8 "
        "windows: sketch and PS sketch traffic carry the time, the codec little",
    ),
    (
        "predict_batch",
        "load + score 20k rows on 100 trees in large blocks: inference only, "
        "the bypass workload for every training optimisation",
    ),
    (
        "serve_replay",
        "single-row requests through the micro-batcher, open-loop ladder then "
        "closed loop: per-call overhead and queueing dominate the same kernel",
    ),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)
TRAIN_WORKLOADS = ("train_row_rcv1", "train_grid_gender")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only
    #: Workloads that measure the metric; elsewhere it is an alias of the
    #: workload's own operation time (end-to-end) or zero (per-layer).
    workloads: tuple[str, ...] = WORKLOAD_NAMES


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("train_wall_s", "s", "lower", 0.25, TRAIN_WORKLOADS),
    Metric("sim_total_s", "s", "lower", 0.25, TRAIN_WORKLOADS),
    Metric("sim_comm_s", "s", "lower", 0.25, TRAIN_WORKLOADS),
    Metric("predict_rows_per_s", "rows/s", "higher", 0.25, ("predict_batch",)),
    Metric("serve_p50_ms", "ms", "lower", 0.25, ("serve_replay",)),
    Metric("serve_p99_ms", "ms", "lower", 0.25, ("serve_replay",)),
    Metric("serve_max_rate_rps", "req/s", "higher", 0.25, ("serve_replay",)),
    Metric("serve_closed_rps", "req/s", "higher", 0.25, ("serve_replay",)),
)


def _per_layer() -> tuple[Metric, ...]:
    train = TRAIN_WORKLOADS
    serve = ("serve_replay",)
    metrics: list[Metric] = []
    for span in SPANS:
        metrics.append(Metric(f"{span.name}.self_s", "s", "lower", workloads=span.on))
        metrics.append(Metric(f"{span.name}.calls", "count", "lower", workloads=span.on))
    for counter in COUNTERS:
        unit = "bytes" if "bytes" in counter else "count"
        metrics.append(Metric(counter, unit, "lower", workloads=train))
    for phase in PHASES:
        metrics.append(Metric(f"phase.{phase}.wall_s", "s", "lower", workloads=train))
        metrics.append(Metric(f"phase.{phase}.sim_s", "s", "lower", workloads=train))
    metrics.append(Metric("phase.outside.wall_s", "s", "lower", workloads=train))
    metrics.append(Metric("boosting.train_loss_final", "loss", "lower", workloads=train))
    metrics.append(Metric("trace.unattributed_share", "share", "lower", workloads=train))
    metrics.append(Metric("trace.overhead_share", "share", "lower"))
    metrics.append(Metric("trace.speed_factor", "ratio", "higher"))
    for name, unit, better in (
        ("serving.queued_ms_p50", "ms", "lower"),
        ("serving.score_ms_p50", "ms", "lower"),
        ("serving.overhead_ms_p50", "ms", "lower"),
        ("serving.batch_rows_mean", "rows", "higher"),
        ("serving.queue_depth_mean", "count", "lower"),
        ("serving.rejected", "count", "lower"),
        ("serving.swap_ms", "ms", "lower"),
        ("serving.tcp_rtt_ms_p50", "ms", "lower"),
        ("loadgen.late_ms_mean", "ms", "lower"),
        ("loadgen.late_ms_max", "ms", "lower"),
    ):
        metrics.append(Metric(name, unit, better, workloads=serve))
    for rate in SERVE_RATES:
        metrics.append(Metric(f"serving.rate_{rate}.p50_ms", "ms", "lower", workloads=serve))
        metrics.append(Metric(f"serving.rate_{rate}.p99_ms", "ms", "lower", workloads=serve))
        metrics.append(Metric(f"serving.rate_{rate}.failed", "count", "lower", workloads=serve))
    return tuple(metrics)


PER_LAYER = _per_layer()


def fill_aliases(workload: str, metrics: dict[str, float], op_seconds: float) -> set[str]:
    """Complete ``metrics`` to every end-to-end name; returns the aliases.

    The driver wants every end-to-end metric from every workload, never
    zero.  A metric the workload does not exercise is printed as the
    workload's own median operation time — seconds, milliseconds, or its
    reciprocal where higher is better — so it moves exactly with the
    workload's real metric, regresses when that regresses, and says
    nothing of its own.  ``README.md`` lists which pairs are real.
    """
    aliases: set[str] = set()
    for metric in END_TO_END:
        if workload in metric.workloads:
            continue
        if metric.better == "higher":
            value = 1.0 / op_seconds
        elif metric.unit == "ms":
            value = op_seconds * 1e3
        else:
            value = op_seconds
        metrics[metric.name] = value
        aliases.add(metric.name)
    return aliases


def fill_zeros(metrics: dict[str, float]) -> None:
    """Complete ``metrics`` to every per-layer name (absent layer = 0)."""
    for metric in PER_LAYER:
        metrics.setdefault(metric.name, 0.0)


def manifest() -> dict:
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
