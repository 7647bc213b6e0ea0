"""Command-line interface.

Subcommands cover the workflow end to end::

    python -m repro.cli generate --preset rcv1 --scale 0.3 --out data.libsvm
    python -m repro.cli train data.libsvm --model model.json --trees 20
    python -m repro.cli predict model.json data.libsvm --out scores.txt
    python -m repro.cli evaluate model.json data.libsvm
    python -m repro.cli compare data.libsvm --workers 8
    python -m repro.cli serve model.json --port 7736

``train`` runs the single-machine trainer by default; pass ``--system``
to train on the simulated cluster with any of the five system backends.
``compare`` races all systems on one dataset and prints the Figure 12
style summary.  ``serve`` hosts a model over NDJSON/TCP with async
micro-batching and hot-swap (see ``docs/serving.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .boosting import GBDTModel, accuracy, auc, error_rate, logloss, rmse
from .boosting.gbdt import GBDT
from .chaos import FaultPlan
from .config import ClusterConfig, TrainConfig
from .datasets import (
    GridSpec,
    gender_like,
    load_libsvm,
    low_dim_like,
    rcv1_like,
    save_libsvm,
    synthesis_like,
    train_test_split,
)
from .distributed import BACKEND_NAMES, train_distributed
from .errors import ConfigError, ReproError
from .runtime.hooks import TrainerCallback

_PRESETS: dict[str, Callable] = {
    "rcv1": rcv1_like,
    "synthesis": synthesis_like,
    "gender": gender_like,
    "lowdim": low_dim_like,
}


class _ProgressCallback(TrainerCallback):
    """Prints one line per boosting round as training runs.

    Works on both trainers: hooks the same spine the single-machine and
    distributed engines dispatch to, and reads whichever telemetry
    record the trainer emits.
    """

    def on_fit_start(self, n_trees: int) -> None:
        self._n_trees = n_trees

    def on_tree_end(self, tree_index: int, record: object) -> None:
        loss = getattr(record, "train_loss", float("nan"))
        elapsed = getattr(
            record, "sim_elapsed", getattr(record, "elapsed_seconds", 0.0)
        )
        print(
            f"  tree {tree_index + 1}/{self._n_trees}: "
            f"train loss {loss:.5f} ({elapsed:.2f}s)"
        )


def _add_inference_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batch-rows",
        type=int,
        default=None,
        help="rows per scoring block (default: cache-sized)",
    )
    parser.add_argument(
        "--n-processes",
        type=int,
        default=1,
        help="worker processes for scoring (1 = serial)",
    )


def _add_train_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trees", type=int, default=20, help="boosting rounds T")
    parser.add_argument("--depth", type=int, default=6, help="maximal tree depth d")
    parser.add_argument(
        "--bins", type=int, default=20, help="split candidates per feature K"
    )
    parser.add_argument(
        "--learning-rate", type=float, default=0.1, help="shrinkage eta"
    )
    parser.add_argument(
        "--loss", choices=("logistic", "squared"), default="logistic"
    )
    parser.add_argument(
        "--feature-sample", type=float, default=1.0, help="per-tree feature ratio"
    )
    parser.add_argument("--reg-lambda", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)


def _config_from_args(args: argparse.Namespace, bits: int = 0) -> TrainConfig:
    return TrainConfig(
        n_trees=args.trees,
        max_depth=args.depth,
        n_split_candidates=args.bins,
        learning_rate=args.learning_rate,
        loss=args.loss,
        feature_sample_ratio=args.feature_sample,
        reg_lambda=args.reg_lambda,
        compression_bits=bits,
        seed=args.seed,
        max_retries=getattr(args, "max_retries", 3),
        checkpoint_every=getattr(args, "checkpoint_every", 1),
        agg_window=getattr(args, "agg_window", 1),
        staleness=getattr(args, "staleness", 0),
    )


def cmd_generate(args: argparse.Namespace) -> int:
    factory = _PRESETS[args.preset]
    data = factory(scale=args.scale, seed=args.seed)
    save_libsvm(data, args.out)
    print(
        f"wrote {args.out}: {data.n_instances} instances, "
        f"{data.n_features} features, avg nnz {data.avg_nnz:.1f}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    data = load_libsvm(args.data, n_features=args.n_features)
    print(f"loaded {data}")
    config = _config_from_args(args, bits=args.compression_bits)
    callbacks = [_ProgressCallback()] if args.progress else []
    # Flags that only mean something on the simulated cluster.
    cluster_only = {
        "--fault-plan": args.fault_plan,
        "--grid": args.grid,
        "--agg-window": args.agg_window > 1,
        "--staleness": args.staleness > 0,
        "--speed-jitter": args.speed_jitter > 0,
        "--compression-bits": args.compression_bits != 0,
    }
    stray = [flag for flag, given in cluster_only.items() if given]
    if stray and not args.system:
        verb = "require" if len(stray) > 1 else "requires"
        raise ConfigError(
            f"{'/'.join(stray)} {verb} --system (fault "
            "injection, block sharding, local aggregation, bounded staleness, "
            "speed jitter and the histogram codec target the simulated cluster)"
        )
    fault_plan = None
    if args.fault_plan:
        fault_plan = FaultPlan.load(args.fault_plan)
        label = fault_plan.name or args.fault_plan
        print(f"fault plan {label}: {len(fault_plan)} event(s)")
    if args.system:
        grid = None
        if args.grid:
            spec = GridSpec.parse(args.grid)
            grid = (spec.rows, spec.cols)
            if args.workers != spec.n_blocks:
                print(
                    f"--grid {spec} implies {spec.n_blocks} workers; "
                    f"overriding --workers {args.workers}"
                )
        cluster = ClusterConfig(
            n_workers=grid[0] * grid[1] if grid else args.workers,
            n_servers=args.servers,
            grid=grid,
            speed_jitter=args.speed_jitter,
        )
        result = train_distributed(
            args.system,
            data,
            cluster,
            config,
            callbacks=callbacks,
            fault_plan=fault_plan,
        )
        model = result.model
        print(
            f"trained with {args.system} on {cluster.n_workers} simulated "
            f"workers ({cluster.grid_shape[0]}x{cluster.grid_shape[1]} grid) "
            f"in {result.sim_seconds:.3f} simulated seconds "
            f"({result.breakdown.as_dict()})"
        )
        if result.faults is not None:
            print(f"fault report: {result.faults['totals']}")
    else:
        trainer = GBDT(config)
        model = trainer.fit(data, callbacks=callbacks)
        last = trainer.history[-1]
        print(
            f"trained {config.n_trees} trees in {last.elapsed_seconds:.2f}s; "
            f"final train loss {last.train_loss:.4f}"
        )
    model.save(args.model)
    print(f"model saved to {args.model}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = GBDTModel.load(args.model)
    data = load_libsvm(args.data, n_features=model.n_features)
    predictions = model.predict(
        data.X, batch_rows=args.batch_rows, n_processes=args.n_processes
    )
    if args.out:
        np.savetxt(args.out, predictions, fmt="%.6g")
        print(f"wrote {len(predictions)} predictions to {args.out}")
    else:
        for value in predictions:
            print(f"{value:.6g}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model = GBDTModel.load(args.model)
    data = load_libsvm(args.data, n_features=model.n_features)
    predictions = model.predict(
        data.X, batch_rows=args.batch_rows, n_processes=args.n_processes
    )
    if model.loss_name == "logistic":
        print(f"error rate: {error_rate(data.y, predictions):.4f}")
        print(f"accuracy:   {accuracy(data.y, predictions):.4f}")
        print(f"logloss:    {logloss(data.y, predictions):.4f}")
        try:
            print(f"AUC:        {auc(data.y, predictions):.4f}")
        except ReproError:
            pass  # single-class file: AUC undefined
    else:
        print(f"rmse:       {rmse(data.y, predictions):.4f}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    data = load_libsvm(args.data, n_features=args.n_features)
    train, test = train_test_split(data, test_fraction=0.1, seed=args.seed)
    config = _config_from_args(args)
    cluster = ClusterConfig(n_workers=args.workers, n_servers=args.workers)
    systems = args.systems.split(",") if args.systems else list(BACKEND_NAMES)
    print(
        f"{'system':14s} {'sim s':>8s} {'load':>7s} {'compute':>8s} "
        f"{'comm':>7s} {'test err':>9s}"
    )
    times = {}
    for system in systems:
        result = train_distributed(system, train, cluster, config)
        err = error_rate(test.y, result.model.predict(test.X))
        b = result.breakdown
        times[system] = result.sim_seconds
        print(
            f"{system:14s} {b.total:8.3f} {b.loading:7.3f} "
            f"{b.computation:8.3f} {b.communication:7.3f} {err:9.4f}"
        )
    if "dimboost" in times:
        for system, t in times.items():
            if system != "dimboost":
                print(f"dimboost speedup vs {system}: {t / times['dimboost']:.2f}x")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serving import (
        ModelStore,
        ServingConfig,
        ServingRuntime,
        ServingServer,
    )

    serving_config = ServingConfig(
        max_batch_rows=args.max_batch_rows,
        queue_limit=args.queue_limit,
        deadline_ms=args.deadline_ms,
    )
    store = ModelStore()
    version = store.load(args.model)
    print(
        f"loaded {args.model}: version {version.version}, "
        f"{version.model.n_trees} trees, {version.n_features} features"
    )

    async def run() -> None:
        runtime = ServingRuntime(store, serving_config)
        server = ServingServer(runtime, host=args.host, port=args.port)
        await server.start()
        print(
            f"serving NDJSON on {server.host}:{server.port} "
            f"(max_batch_rows={serving_config.max_batch_rows})",
            flush=True,
        )
        await server.serve_until_shutdown()
        print("shutdown requested; stopped")

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; stopped")
    finally:
        store.close()
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.reprolint.cli import main as reprolint_main

    forwarded: list[str] = list(args.paths)
    forwarded += ["--format", args.format]
    if args.output is not None:
        forwarded += ["--output", args.output]
    if args.select is not None:
        forwarded += ["--select", args.select]
    if args.ignore is not None:
        forwarded += ["--ignore", args.ignore]
    if args.show_suppressed:
        forwarded.append("--show-suppressed")
    return reprolint_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DimBoost reproduction: distributed GBDT for "
        "high-dimensional sparse data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a dataset to LibSVM")
    gen.add_argument("--preset", choices=sorted(_PRESETS), default="rcv1")
    gen.add_argument("--scale", type=float, default=0.2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    train = sub.add_parser("train", help="train a GBDT model")
    train.add_argument("data", help="LibSVM training file")
    train.add_argument("--model", required=True, help="output model JSON")
    train.add_argument("--n-features", type=int, default=None)
    train.add_argument(
        "--system",
        choices=BACKEND_NAMES,
        default=None,
        help="train distributed with this system (default: single machine)",
    )
    train.add_argument("--workers", type=int, default=4)
    train.add_argument("--servers", type=int, default=4)
    train.add_argument(
        "--grid",
        default=None,
        metavar="ROWSxCOLS",
        help="2-D worker grid for block-distributed training, e.g. 2x4 "
        "(requires --system; implies --workers rows*cols; composes with "
        "--compression-bits: slab pushes ride the codec)",
    )
    train.add_argument(
        "--compression-bits",
        type=int,
        default=0,
        help="fixed-point width of pushed histograms (requires --system; "
        "0 = no codec)",
    )
    train.add_argument(
        "--progress",
        action="store_true",
        help="print per-tree progress while training",
    )
    train.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH",
        help="JSON FaultPlan to inject while training (requires --system)",
    )
    train.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="delivery retries / rollback attempts before ClusterFaultError",
    )
    train.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="boosting rounds between recovery checkpoints",
    )
    train.add_argument(
        "--agg-window",
        type=int,
        default=1,
        help="histogram deltas each worker buffers and sends as one "
        "windowed PS push (requires --system; 1 = push per node; any "
        "value is bit-identical)",
    )
    train.add_argument(
        "--staleness",
        type=int,
        default=0,
        help="bounded-staleness bound S: barrier seconds settle every S+1 "
        "layers and leaf scores lag S trees (requires --system; 0 = "
        "synchronous barriers, bit-identical to default)",
    )
    train.add_argument(
        "--speed-jitter",
        type=float,
        default=0.0,
        help="per-layer worker speed noise amplitude in [0, 1) — rotating "
        "stragglers in the simulated clock (requires --system; clock "
        "accounting only, model bits unchanged)",
    )
    _add_train_options(train)
    train.set_defaults(func=cmd_train)

    predict = sub.add_parser("predict", help="score a LibSVM file")
    predict.add_argument("model")
    predict.add_argument("data")
    predict.add_argument("--out", default=None)
    _add_inference_options(predict)
    predict.set_defaults(func=cmd_predict)

    evaluate = sub.add_parser("evaluate", help="evaluate a model on a file")
    evaluate.add_argument("model")
    evaluate.add_argument("data")
    _add_inference_options(evaluate)
    evaluate.set_defaults(func=cmd_evaluate)

    compare = sub.add_parser(
        "compare", help="race the five systems on one dataset"
    )
    compare.add_argument("data")
    compare.add_argument("--n-features", type=int, default=None)
    compare.add_argument("--workers", type=int, default=4)
    compare.add_argument(
        "--systems", default=None, help="comma-separated subset of systems"
    )
    _add_train_options(compare)
    compare.set_defaults(func=cmd_compare)

    serve = sub.add_parser(
        "serve",
        help="serve a model over NDJSON/TCP with async micro-batching",
    )
    serve.add_argument("model", help="model JSON (the engine's FINISH artifact)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = pick a free one)"
    )
    serve.add_argument(
        "--max-batch-rows",
        type=int,
        default=256,
        help="most rows one micro-batch may hold (1 = no coalescing)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=1024,
        help="admission bound; requests beyond it are rejected explicitly",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline; expired requests are shed "
        "at dequeue instead of scored late",
    )
    serve.set_defaults(func=cmd_serve)

    lint = sub.add_parser(
        "lint",
        help="run reprolint, the repo's invariant checker (RP001-RP010)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], help="files/dirs (default: src)"
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--output", default=None, metavar="FILE")
    lint.add_argument("--select", default=None, metavar="CODES")
    lint.add_argument("--ignore", default=None, metavar="CODES")
    lint.add_argument("--show-suppressed", action="store_true")
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
