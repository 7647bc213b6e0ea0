"""Run-to-run spread of every end-to-end metric, as the driver takes it.

    python3 benchmarks/perf/spread.py [--runs 10] [--workload NAME ...]

Runs each workload ``--runs`` times, each with another ``--seed``, and
prints for every (workload, metric) the median and the distance between
the first and third quartile as a share of the median, next to the
metric's bound.  A benchmark change is steady enough when every spread
stays below a third of its bound (``setup_s`` excepted).
"""

from __future__ import annotations

import argparse
import time

import harness
import spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=spec.WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    worst = 0.0
    for workload in args.workload or spec.WORKLOAD_NAMES:
        values: dict[str, list[float]] = {m.name: [] for m in spec.END_TO_END}
        started = time.perf_counter()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            code, _lines, result = harness.run_cli(
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec.RUN_SECONDS), "--trace", "0",
            )
            if code or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {code}, {result}")
                return 1
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        per_run = (time.perf_counter() - started) / args.runs
        print(f"== {workload}: {args.runs} runs, {per_run:.1f} s each")
        for metric in spec.END_TO_END:
            q1, q2, q3 = harness.quartiles(values[metric.name])
            spread = (q3 - q1) / q2
            real = workload in metric.workloads
            if real and metric.name != "setup_s":
                worst = max(worst, spread / metric.bound)
            print(
                f"  {metric.name:<20} median {harness.format_value(q2):>12} "
                f"{metric.unit:<6} spread {spread:6.1%}  bound {metric.bound:.0%}"
                f"{'' if real else '  (alias)'}"
            )
    print(f"worst spread / bound over measured pairs: {worst:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
