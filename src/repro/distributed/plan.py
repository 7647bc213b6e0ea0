"""RunPlan: the one construction-time gate for a distributed run.

Each object a run is assembled from validates *itself* where it is
declared (field ranges in ``TrainConfig`` / ``ClusterConfig`` /
``FaultEvent.__post_init__``).  Whether they fit *together* — a striped
grid on a collective backend, a fault naming a worker the cluster does
not have — is judged here and nowhere else.  The judgement needs no data, so
:class:`~repro.distributed.engine.DistributedGBDT` builds its plan in
``__init__``: an unsupported combination is a :class:`ConfigError` before
any phase starts.  (Checks that need the dataset belong to the engine's
load stage, the first thing ``fit`` does.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..chaos import MESSAGE_POINTS, FaultPlan
from ..cluster.costmodel import CostParams, general_ps_push_time
from ..config import ClusterConfig, TrainConfig
from ..errors import ConfigError
from ..runtime.build import (
    DenseBuildStrategy,
    HistogramBuildStrategy,
    SparseBuildStrategy,
)
from ..sketch.candidates import CandidateSet
from .backends import AggregationBackend, backend_class, backend_options

__all__ = ["RunPlan", "make_backend"]

#: How CREATE_SKETCH may propose candidates (see ``DistributedGBDT``).
SKETCH_MODES = ("exact", "distributed", "weighted")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class RunPlan:
    """One distributed run, validated on construction, before any data.

    Frozen, and a holder of recipes rather than live resources — the
    backend *class* and its checked options, how to obtain a build
    strategy — so one trainer can ``fit`` any number of times.  The
    arguments are :class:`~repro.distributed.engine.DistributedGBDT`'s;
    derived from them:

    Attributes:
        backend_cls: The aggregation backend class ``system`` names.
        grid: Worker grid ``(rows, cols)``; ``(n_workers, 1)`` when row
            sharded.
        cost: ``cluster.network``, the alpha/beta/gamma triple.

    Raises:
        TrainingError: For an unknown system name.
        ConfigError: For every other combination that cannot run.
    """

    system: str
    cluster: ClusterConfig
    config: TrainConfig
    sketch_mode: str = "exact"
    fault_plan: FaultPlan | None = None
    backend_kwargs: Mapping[str, Any] = field(default_factory=dict)
    backend_cls: type[AggregationBackend] = field(init=False)
    grid: tuple[int, int] = field(init=False)
    cost: CostParams = field(init=False)

    def __post_init__(self) -> None:
        system, cluster, config = self.system, self.cluster, self.config
        kwargs = self.backend_kwargs
        backend_cls = backend_class(system)
        rows, cols = cluster.grid_shape
        object.__setattr__(self, "backend_cls", backend_cls)
        object.__setattr__(self, "grid", (rows, cols))
        object.__setattr__(self, "cost", cluster.network)
        _require(
            self.sketch_mode in SKETCH_MODES,
            f"sketch_mode must be 'exact', 'distributed', or 'weighted', "
            f"got {self.sketch_mode!r}",
        )
        accepted = backend_options(system)
        unknown = sorted(set(kwargs) - set(accepted))
        _require(
            not unknown,
            f"unknown option(s) {', '.join(map(repr, unknown))} for backend "
            f"{system!r}; "
            + (
                f"accepted options: {', '.join(accepted)}"
                if accepted
                else "it accepts no extra options"
            ),
        )
        # Sparse slab pushes (absent features are reconstructed server
        # side), windowed pushes (deduplicated on the server's seq token)
        # and fault-fabric routing all need parameter servers.
        on_ps = backend_cls.parameter_server
        hint = f"{system!r} has none (use a PS backend: tencentboost, dimboost)"
        _require(
            cols == 1 or on_ps,
            f"grid {rows}x{cols} needs a backend with sparse slab "
            f"aggregation; {hint}",
        )
        _require(
            config.agg_window == 1 or on_ps,
            f"agg_window {config.agg_window} needs a backend with windowed "
            f"pushes; {hint}",
        )
        # A fault that can never fire would make a chaos run that tests
        # nothing.  Message faults need a PS group: a PS backend, or the
        # server-merged sketch path (whose group rides the fabric too).
        has_group = on_ps or self.sketch_mode != "exact"
        events = self.fault_plan.events if self.fault_plan is not None else ()
        for index, event in enumerate(events):
            where = f"fault plan event {index} ({event.kind}@{event.point})"
            for what, named, count in (
                ("worker", event.worker, cluster.n_workers),
                ("server", event.server, cluster.n_servers),
                ("round", event.round_, config.n_trees),
            ):
                _require(
                    named is None or named < count,
                    f"{where} names {what} {named} but the run has only {count}",
                )
            _require(
                has_group or event.point not in MESSAGE_POINTS,
                f"{where} is a message fault, but {system!r} with exact sketches "
                f"sends no PS message (use a PS backend: tencentboost, dimboost)",
            )

    @property
    def striped(self) -> bool:
        """Whether workers hold feature stripes (grid ``cols > 1``)."""
        return self.grid[1] > 1

    def push_seconds(self, n_bytes: float) -> float:
        """PS aggregation time of every worker pushing ``n_bytes``."""
        c = self.cluster
        return general_ps_push_time(c.n_workers, c.n_servers, n_bytes, self.cost)

    def make_backend(self, candidates: CandidateSet, fabric=None) -> AggregationBackend:
        """This run's backend over ``candidates``; ``fabric`` (the chaos
        fabric of a faulted fit) is routed into a PS backend's group."""
        kwargs = dict(self.backend_kwargs)
        if fabric is not None and self.backend_cls.parameter_server:
            kwargs["fabric"] = fabric
        return self.backend_cls(self.cluster, self.config, candidates, **kwargs)

    def make_build_strategy(self) -> HistogramBuildStrategy:
        """The histogram build strategy for one fit, picked by the
        backend's ``build_mode``."""
        if self.backend_cls.build_mode == "sparse":
            return SparseBuildStrategy()
        return DenseBuildStrategy()


def make_backend(
    system: str,
    cluster: ClusterConfig,
    config: TrainConfig,
    candidates: CandidateSet,
    **kwargs: Any,
) -> AggregationBackend:
    """Instantiate a backend by system name (see ``BACKEND_NAMES``),
    through the same gate trainers use: raises what :class:`RunPlan` does."""
    plan = RunPlan(system, cluster, config, backend_kwargs=kwargs)
    return plan.make_backend(candidates)
