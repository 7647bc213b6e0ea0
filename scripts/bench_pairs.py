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

``--layers`` adds one ``--trace 1`` pass per side per workload and records
every per-layer metric of ``BENCHMARK.json`` side by side (span self
seconds and calls, work counters, phase wall and simulated seconds), so
the file itself shows *where* an end-to-end difference sits.  Layer
seconds are as measured; ``trace.speed_factor`` of each side scales them
to the nominal machine speed.  Train workloads print the SHA-256 of the
model they fit: it is recorded per run, and the workload's
``equal_per_seed`` says whether it and ``sim_comm_s`` were the same on
both sides of every pair — a change to the training path is bit-exact or
it is wrong.

Nothing is imported from ``benchmarks/perf/``: metric names, units and
directions come from ``BENCHMARK.json``, numbers from the JSON line the
benchmark ends with.  The parent is exported with ``git archive`` (not a
``git worktree``), so the repository's own metadata is never written.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


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
    checkout: Path, command: list[str], workload: str, seed: int, trace: int = 0
) -> tuple[dict, dict]:
    """One pass: (its result line, the fingerprint it printed)."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
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
    sha = re.search(r"model sha256 ([0-9a-f]+)", done.stdout)
    if sha:
        run["model_sha256"] = sha.group(1)
    return run, env


def equal_per_seed(pairs: list[dict]) -> dict:
    """Whether the two sides of every pair fitted the same model with the
    same simulated communication (train workloads only: they print both)."""
    if not all("model_sha256" in pair[side] for pair in pairs for side in SIDES):
        return {}
    return {
        "model_sha256": all(
            pair["parent"]["model_sha256"] == pair["change"]["model_sha256"]
            for pair in pairs
        ),
        "sim_comm_s": all(
            pair["parent"]["metrics"]["sim_comm_s"]
            == pair["change"]["metrics"]["sim_comm_s"]
            for pair in pairs
        ),
    }


def layer_table(checkouts: dict, manifest: dict, workload: str, seed: int) -> dict:
    """One traced pass per side: every per-layer metric, side by side."""
    runs = {
        side: one_run(checkouts[side], manifest["command"], workload, seed, trace=1)[0]
        for side in SIDES
    }
    return {
        "seed": seed,
        "failed": {side: runs[side]["failed"] for side in SIDES},
        "metrics": {
            m["name"]: {
                "unit": m["unit"],
                **{side: runs[side]["metrics"].get(m["name"]) for side in SIDES},
            }
            for m in manifest["per_layer"]
        },
    }


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
        "--layers",
        action="store_true",
        help="also one traced pass per side per workload: the per-layer metrics",
    )
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
                order = SIDES if i % 2 == 0 else SIDES[::-1]
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
                "equal_per_seed": equal_per_seed(pairs),
                "summary": {
                    m["name"]: summarize(pairs, m) for m in manifest["end_to_end"]
                },
            }
            if args.layers:
                record["workloads"][workload]["layers"] = layer_table(
                    checkouts, manifest, workload, seeds[0]
                )
                print(f"{workload} traced pass per side, seed {seeds[0]}", flush=True)
            out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
