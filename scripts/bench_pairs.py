#!/usr/bin/env python
"""Alternating parent/change pairs of the frozen wall-clock benchmark.

The protocol a perf PR's claim rests on, as a script instead of by hand:
export the parent commit into a temporary directory, run the unchanged
``benchmarks/perf/run.py --workload W --trace 0`` on parent and change
(this working tree), alternating which side goes first, and record every
run.  Per end-to-end metric the output holds each side's median and
quartiles, the pairs the change won (ties count for neither side),
whether the medians are further apart than the parent's own quartile
distance — the two conditions a claimed gain has to meet — and whether
each side's own quartile distance stays within the metric's bound, the
condition for the two sides to be comparable at all.

Run from the repository root, one workload at a time or several; an
existing output file keeps the workloads this run does not touch:

    python scripts/bench_pairs.py --parent <sha> --out BENCH_18.json \\
        --workload serve_replay --pairs 10

Nothing is imported from ``benchmarks/perf/``: metric names, units and
directions come from ``BENCHMARK.json``, numbers from the JSON line the
benchmark ends with.  The parent is exported with ``git archive`` (not a
``git worktree``), so the repository's own metadata is never written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_commit(sha: str, into: Path) -> Path:
    """The committed files of ``sha`` in a new directory under ``into``."""
    archive, tree = into / "parent.tar", into / "tree"
    tree.mkdir()
    subprocess.run(
        ["git", "archive", "--format=tar", "-o", str(archive), sha],
        cwd=ROOT,
        check=True,
    )
    subprocess.run(["tar", "-xf", str(archive), "-C", str(tree)], check=True)
    archive.unlink()
    return tree


def one_run(
    checkout: Path, command: list[str], workload: str, seed: int
) -> tuple[dict, dict]:
    """One untraced pass: (its result line, the fingerprint it printed)."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"{checkout}: no result line (exit {done.returncode})\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    # The fingerprint the benchmark printed, minus the one key that is a
    # property of the checkout (recorded per side instead), not the box.
    env = json.loads(next(ln[5:] for ln in lines if ln.startswith("env: ")))
    env.pop("git_sha", None)
    run = {
        "exit": done.returncode,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }
    return run, env


def summarize(pairs: list[dict], metric: dict) -> dict:
    """Median and quartiles per side, pairs won, gap against parent spread,
    and whether each side's own spread stays within the metric's bound."""
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [pair["parent"]["metrics"][name] for pair in pairs]
    change = [pair["change"]["metrics"][name] for pair in pairs]

    def spread(values: list[float]) -> dict:
        if len(values) < 2:
            return {"q1": values[0], "median": values[0], "q3": values[0]}
        # The benchmark's own convention (harness.quartiles): at ten runs
        # the inclusive method would hide two outliers a side entirely.
        q1, median, q3 = statistics.quantiles(values, n=4)
        return {"q1": q1, "median": median, "q3": q3}

    p, c = spread(parent), spread(change)
    iqr = p["q3"] - p["q1"]
    # A side whose own runs spread past the metric's bound (a share of the
    # parent's median) cannot be told from the other, whatever the medians.
    # Aliases count: a "higher is better" alias is the reciprocal of the
    # workload's operation time, so its spread grows with the square of a gain.
    limit = metric["bound"] * abs(p["median"])
    gain = p["median"] - c["median"] if lower else c["median"] - p["median"]
    won = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))
    tied = sum(a == b for a, b in zip(parent, change))
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": p,
        "change": c,
        "change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "pairs_won": won,
        "pairs_tied": tied,
        "pairs": len(pairs),
        "median_gain": gain,
        "parent_iqr": iqr,
        "gain_exceeds_parent_iqr": gain > iqr,
        "spread_limit": limit,
        "parent_steady": iqr <= limit,
        "change_steady": c["q3"] - c["q1"] <= limit,
    }


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write or update")
    parser.add_argument(
        "--workload", action="append", choices=names, help="default: every workload"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seeds", default=None, help="comma-separated; default 0..pairs-1, cycled"
    )
    args = parser.parse_args()
    seeds = (
        [int(s) for s in args.seeds.split(",")] if args.seeds else list(range(args.pairs))
    )
    parent_sha = git("rev-parse", args.parent)
    out = Path(args.out)
    record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    record.update(
        parent=parent_sha,
        change={"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        command=[*manifest["command"], "--workload", "W", "--seed", "S", "--trace", "0"],
    )
    record.setdefault("workloads", {})

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        checkouts = {"parent": export_commit(parent_sha, Path(tmp)), "change": ROOT}
        for workload in args.workload or names:
            pairs = []
            for i in range(args.pairs):
                seed = seeds[i % len(seeds)]
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], record["environment"] = one_run(
                        checkouts[side], manifest["command"], workload, seed
                    )
                pairs.append(pair)
                print(
                    f"{workload} pair {i + 1}/{args.pairs} seed {seed}: "
                    + "  ".join(
                        f"{side} failed {pair[side]['failed']}" for side in order
                    ),
                    flush=True,
                )
            record["workloads"][workload] = {
                "pairs": pairs,
                "summary": {
                    m["name"]: summarize(pairs, m) for m in manifest["end_to_end"]
                },
            }
            out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
