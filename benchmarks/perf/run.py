"""The one wall-clock benchmark of this repository.

    python3 benchmarks/perf/run.py                  # all four workloads, both passes
    python3 benchmarks/perf/run.py --smoke          # same names, tiny sizes, < 30 s
    python3 benchmarks/perf/run.py --workload predict_batch --seed 3 \\
        --seconds 16 --trace 0                      # one pass, as the driver runs it

With ``--workload`` the pass runs in this process and the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``.  Without it, each (workload, pass) runs in its
own sequential subprocess — fresh caches, its own peak RSS — and the
results are printed together.  The exit code is non-zero when any
operation failed or any output check did not hold.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import harness

harness.pin_threads()  # before numpy loads a BLAS


@dataclass
class RunContext:
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    setup: harness.SetupClock
    speed: harness.SpeedProbe  # sampled between the timed operations
    workdir: Path


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload pass in this process")
    parser.add_argument("--seed", type=int, default=0, help="input generation seed")
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics, tracing off; 1: per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, one repeat, 0.5 s per serve rate; same metric names",
    )
    return parser.parse_args(argv)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """One pass in this process; prints the report and the result line."""
    import_started = time.perf_counter()
    import spec

    if workload not in spec.WORKLOAD_NAMES:
        print(f"unknown workload {workload!r}; one of {spec.WORKLOAD_NAMES}", file=sys.stderr)
        return 2
    harness.require_program()
    if workload in spec.TRAIN_WORKLOADS:
        import workload_train

        run = functools.partial(workload_train.run, workload)
    elif workload == "predict_batch":
        from workload_predict import run
    else:
        from workload_serve import run
    setup = harness.SetupClock(time.perf_counter() - import_started)

    with harness.workdir() as workdir:
        ctx = RunContext(seed, seconds, trace, smoke, setup, harness.SpeedProbe(), workdir)
        outcome = run(ctx)

    metrics = outcome.metrics
    if trace:
        spec.fill_zeros(metrics)
        declared = spec.PER_LAYER
        aliases: set[str] = set()
    else:
        outcome.record("setup_s", setup.normalised_seconds())
        outcome.record("peak_rss_mb", harness.peak_rss_mb())
        aliases = spec.fill_aliases(workload, metrics, outcome.op_seconds)
        declared = spec.END_TO_END
    unknown = set(metrics) - {m.name for m in declared}
    if unknown:
        outcome.fail(f"undeclared metrics reported: {sorted(unknown)}", 0)

    print(f"env: {json.dumps(harness.fingerprint())}")
    print(
        f"workload {workload} seed={seed} seconds={seconds:g} "
        f"trace={int(trace)} smoke={int(smoke)}"
    )
    print(
        f"  machine speed factor {ctx.speed.factor():.3f} over the timed pass, "
        f"{setup.speed.factor():.3f} over set-up (nominal / measured kernel seconds; "
        f"computed seconds are scaled by it, raw set-up {setup.seconds:.3f}s)"
    )
    for note in outcome.notes:
        print(f"  {note}")
    rows = []
    for m in declared:
        if trace and metrics[m.name] == 0 and workload not in m.workloads:
            continue  # a layer this workload never enters: keep the table short
        note = "alias of this workload's operation time" if m.name in aliases else ""
        rows.append((m.name, m.unit, metrics[m.name], outcome.samples.get(m.name), note))
    harness.print_metrics("per-layer" if trace else "end-to-end", rows)
    correct = outcome.failed == 0 and not outcome.problems
    print(
        f"operations: attempted {outcome.attempted} failed {outcome.failed} "
        f"-> {'correct' if correct else 'INCORRECT'}"
    )
    for problem in outcome.problems:
        print(f"  FAILED CHECK: {problem}")
    by_name = {m.name: m for m in declared}
    print(
        harness.result_line(
            correct,
            max(1, outcome.attempted),
            outcome.failed,
            {
                name: {"value": value, "unit": by_name[name].unit}
                for name, value in metrics.items()
                if name in by_name
            },
        )
    )
    return 0 if correct else 1


def run_all(seed: int, seconds: float, passes: tuple[int, ...], smoke: bool) -> int:
    """Every workload, each pass in its own sequential subprocess."""
    import spec

    harness.require_program()
    all_correct = True
    attempted = failed = 0
    combined: dict[str, dict] = {}
    started = time.perf_counter()
    for workload in spec.WORKLOAD_NAMES:
        for trace in passes:
            code, lines, result = harness.run_cli(
                "--workload", workload, "--seed", str(seed),
                "--seconds", f"{seconds:g}", "--trace", str(trace),
                *(["--smoke"] if smoke else []),
            )
            if not isinstance(result, dict):
                print("\n".join(lines))
                print(f"{workload} --trace {trace}: no result (exit {code})")
                all_correct = False
                continue
            print("\n".join(lines[:-1]))
            all_correct &= bool(result["correct"]) and code == 0
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                combined[f"{workload}/{name}"] = metric
            print()
    print(
        f"all workloads: attempted {attempted} failed {failed} -> "
        f"{'correct' if all_correct else 'INCORRECT'} "
        f"({time.perf_counter() - started:.1f}s)"
    )
    print(harness.result_line(all_correct, max(1, attempted), failed, combined))
    return 0 if all_correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    import spec

    seconds = args.seconds if args.seconds is not None else float(spec.RUN_SECONDS)
    if args.smoke:
        seconds = 0.0  # only each pass's floor of repeats
    if args.workload is not None:
        return run_workload(
            args.workload, args.seed, seconds, bool(args.trace), args.smoke
        )
    passes = (0, 1) if args.trace is None else (args.trace,)
    return run_all(args.seed, seconds, passes, args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
