"""Declarative fault plans for the simulated PS cluster.

A :class:`FaultPlan` is a list of :class:`FaultEvent` records describing
*what* goes wrong, *where* (a named fault point), and *when* (a boosting
round, an occasion filter).  Plans are pure data: they validate eagerly,
serialize to JSON (the CLI's ``--fault-plan`` file), and are interpreted
at runtime by :class:`~repro.chaos.injector.FaultInjector`, which turns
the declarations into deterministic injection decisions.

Fault points mirror where the real cluster can fail (Section 4's roles):

===================  ====================================================
point                where it fires
===================  ====================================================
``push``             one per-partition PS push message (histogram merge)
``pull``             one per-partition PS pull message (full histograms)
``pull_udf``         one server-side split-UDF request (Section 6.3)
``barrier``          a worker arriving at a phase synchronization barrier
``histogram_build``  a worker constructing one node's local histogram
===================  ====================================================

Determinism contract: a plan contains no hidden randomness — every
decision the injector derives from it is a pure function of the plan and
the (ordered) sequence of fault-point occasions the run presents, so the
same seed + the same plan + the same cluster shape replays the exact
same faults.  :meth:`FaultPlan.random` generates a plan *from* a seed
up front; after construction the plan is as static as a hand-written one.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigError

__all__ = [
    "FAULT_KINDS",
    "FAULT_POINTS",
    "MESSAGE_POINTS",
    "SITE_POINTS",
    "FaultEvent",
    "FaultPlan",
]

#: Every named fault point (see the module docstring table).
FAULT_POINTS = ("push", "pull", "pull_udf", "barrier", "histogram_build")

#: Points that are PS messages (fabric-mediated, retryable).
MESSAGE_POINTS = ("push", "pull", "pull_udf")

#: Points that are in-worker execution sites (barrier arrival, builds).
SITE_POINTS = ("barrier", "histogram_build")

#: Supported fault kinds.
FAULT_KINDS = ("crash", "drop", "duplicate", "server_down", "delay")

#: Kinds that make a delivery attempt fail (recovered by retry).
_FAILING_KINDS = ("drop", "server_down")

#: The ``"version"`` :meth:`FaultPlan.to_dict` writes, and the only one
#: :meth:`FaultPlan.from_dict` reads (a plan without the key is version 1).
PLAN_VERSION = 1


def _require_int(name: str, value: object, *, optional: bool = False) -> None:
    """``value`` must be an integer (``None`` when ``optional``); a bool
    or an integral float is not one."""
    if value is None and optional:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class FaultEvent:
    """One declarative fault.

    Attributes:
        kind: What happens — one of ``FAULT_KINDS``:
            ``crash`` kills a worker at the point (recovered by rollback
            to the last checkpoint), ``drop`` loses a message (recovered
            by retry), ``duplicate`` delivers a message twice (absorbed
            by the servers' idempotent sequence numbers), ``server_down``
            makes a server reject deliveries (retried like a drop, but
            reported separately), ``delay`` adds ``delay_seconds`` of
            simulated time at the point.
        point: Named fault point, one of ``FAULT_POINTS``.  ``drop`` /
            ``duplicate`` / ``server_down`` require a message point.
        round_: Boosting round (tree index) the event is armed in; None
            arms it in every round.
        worker: Only fire for this worker id (None: any worker).
        server: Only fire for messages to this server id (None: any).
        every: Fire on every Nth matching occasion (1 = every occasion).
        times: Stop after this many firings (None = unlimited).  Crash
            events default to firing once — a crashed-and-recovered
            worker does not crash again on the replay unless asked to.
        attempts: For failing kinds: how many consecutive delivery
            attempts of the afflicted message fail before the fabric
            gets through.  ``attempts > max_retries`` exceeds the
            recovery budget and surfaces as ``ClusterFaultError``.
        delay_seconds: Simulated seconds a ``delay`` event injects.
    """

    kind: str
    point: str
    round_: int | None = None
    worker: int | None = None
    server: int | None = None
    every: int = 1
    times: int | None = 1
    attempts: int = 1
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        for name in ("round_", "worker", "server", "times"):
            _require_int(name, getattr(self, name), optional=True)
        for name in ("every", "attempts"):
            _require_int(name, getattr(self, name))
        delay = self.delay_seconds
        if (
            isinstance(delay, bool)
            or not isinstance(delay, numbers.Real)
            or not math.isfinite(delay)
            or delay < 0.0
        ):
            raise ConfigError(
                f"delay_seconds must be a finite number >= 0, got {delay!r}"
            )
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.point not in FAULT_POINTS:
            raise ConfigError(
                f"fault point must be one of {FAULT_POINTS}, got {self.point!r}"
            )
        if self.kind in ("drop", "duplicate", "server_down") and (
            self.point not in MESSAGE_POINTS
        ):
            raise ConfigError(
                f"{self.kind!r} faults apply to message points "
                f"{MESSAGE_POINTS}, got {self.point!r}"
            )
        if self.round_ is not None and self.round_ < 0:
            raise ConfigError(f"round_ must be >= 0, got {self.round_}")
        if self.worker is not None and self.worker < 0:
            raise ConfigError(f"worker must be >= 0, got {self.worker}")
        if self.server is not None and self.server < 0:
            raise ConfigError(f"server must be >= 0, got {self.server}")
        if self.every < 1:
            raise ConfigError(f"every must be >= 1, got {self.every}")
        if self.times is not None and self.times < 1:
            raise ConfigError(f"times must be >= 1, got {self.times}")
        if self.attempts < 1:
            raise ConfigError(f"attempts must be >= 1, got {self.attempts}")
        if self.kind == "delay" and self.delay_seconds <= 0.0:
            raise ConfigError(
                f"delay faults need delay_seconds > 0, got {self.delay_seconds}"
            )
        if self.kind == "crash" and self.worker is None:
            raise ConfigError("crash faults must name the worker to kill")

    @property
    def fails_delivery(self) -> bool:
        """Whether this kind makes delivery attempts fail (drop-like)."""
        return self.kind in _FAILING_KINDS


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault events plus provenance metadata.

    Attributes:
        events: The events, evaluated in order at every fault point.
        seed: Provenance of randomly generated plans (0 for hand-written
            plans); recorded so a serialized plan names its origin.
        name: Optional human label, shown in reports.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ConfigError(
                    f"FaultPlan events must be FaultEvent, got {type(event)!r}"
                )
        _require_int("seed", self.seed)
        if not isinstance(self.name, str):
            raise ConfigError(f"name must be a string, got {self.name!r}")

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # serialization (the CLI's --fault-plan file format)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return {
            "version": PLAN_VERSION,
            "seed": self.seed,
            "name": self.name,
            "events": [asdict(event) for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: object) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; validates every field.

        Total over JSON values: anything but a valid plan raises
        :class:`ConfigError` naming the field.
        """
        if not isinstance(payload, dict):
            raise ConfigError(
                f"fault plan must be a JSON object, got {type(payload).__name__}"
            )
        version = payload.get("version", PLAN_VERSION)
        if type(version) is not int or version != PLAN_VERSION:
            raise ConfigError(
                f"fault plan version: unsupported {version!r} "
                f"(this build reads version {PLAN_VERSION})"
            )
        raw_events = payload.get("events", [])
        if not isinstance(raw_events, list):
            raise ConfigError(
                f"fault plan events must be a list, got {type(raw_events).__name__}"
            )
        events = []
        for index, raw in enumerate(raw_events):
            where = f"fault plan events[{index}]"
            if not isinstance(raw, dict):
                raise ConfigError(f"{where} must be an object, got {raw!r}")
            try:
                events.append(FaultEvent(**raw))
            except TypeError as exc:
                raise ConfigError(f"malformed fault plan: {where}: {exc}") from exc
            except ConfigError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        try:
            return cls(
                events=tuple(events),
                seed=payload.get("seed", 0),
                name=payload.get("name", ""),
            )
        except ConfigError as exc:
            raise ConfigError(f"fault plan {exc}") from exc

    def save(self, path: str | os.PathLike[str]) -> None:
        """Write the plan as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "FaultPlan":
        """Read a JSON plan written by :meth:`save` (or by hand)."""
        with open(path, encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except (ValueError, RecursionError) as exc:
                # ValueError covers malformed JSON and undecodable UTF-8.
                raise ConfigError(f"fault plan {path}: invalid JSON ({exc})") from exc
        return cls.from_dict(payload)

    # ------------------------------------------------------------------
    # generators
    # ------------------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        n_workers: int,
        n_servers: int,
        n_rounds: int,
        max_fail_attempts: int = 2,
        n_events: int = 3,
    ) -> "FaultPlan":
        """A seeded random plan for property-based sweeps.

        Every generated event stays within the given budget: failing
        kinds use ``attempts <= max_fail_attempts`` and crashes fire
        once, so training with ``max_retries >= max_fail_attempts``
        (and ``>= 1`` for the crash rollback) always recovers.
        """
        if max_fail_attempts < 1:
            raise ConfigError(
                f"max_fail_attempts must be >= 1, got {max_fail_attempts}"
            )
        rng = np.random.default_rng(seed)
        events = []
        for _ in range(n_events):
            kind = str(rng.choice(FAULT_KINDS))
            if kind in ("drop", "duplicate", "server_down"):
                point = str(rng.choice(MESSAGE_POINTS))
            elif kind == "crash":
                point = str(rng.choice(SITE_POINTS + ("push",)))
            else:
                point = str(rng.choice(SITE_POINTS))
            events.append(
                FaultEvent(
                    kind=kind,
                    point=point,
                    round_=int(rng.integers(0, n_rounds)),
                    worker=int(rng.integers(0, n_workers)),
                    server=(
                        int(rng.integers(0, n_servers))
                        if kind == "server_down"
                        else None
                    ),
                    every=int(rng.integers(1, 4)),
                    times=1,
                    attempts=(
                        int(rng.integers(1, max_fail_attempts + 1))
                        if kind in _FAILING_KINDS
                        else 1
                    ),
                    delay_seconds=(
                        float(rng.uniform(0.01, 0.5)) if kind == "delay" else 0.0
                    ),
                )
            )
        return cls(events=tuple(events), seed=seed, name=f"random-{seed}")
