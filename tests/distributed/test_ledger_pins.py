"""Fit-level pins of the simulated-time ledger across the stage barrier.

A small DimBoost fit under a fixed-step wall clock (every read advances
2**-10 s, in every module that reads it for the simulated clock), over
staleness S in {0, 1} x per-layer speed jitter {off, 0.3} x worker speeds
{nominal, worker 1 at half speed}.  Each cell pins ``result.phases``,
``result.breakdown`` and every round's ``sim_elapsed`` exactly, so any
change in how the barrier prices, defers or settles worker seconds shows
up here as a changed float.
"""

from __future__ import annotations

import itertools

import pytest

from repro.config import ClusterConfig, TrainConfig
from repro.datasets import SyntheticSpec, make_sparse_classification
from repro.distributed import train_distributed

#: Recorded at ``8b1af73``, where a synchronous stage charged
#: ``SimClock.barrier`` and only ``S >= 1`` ran through the lanes: the
#: one-path barrier must give the same floats, bit for bit.
#: ``(staleness, speed_jitter, speeds): (phases, breakdown, sim_elapsed)``.
LEDGER_PINS = {
    (0, 0.0, 'nominal'): (
        {'CREATE_SKETCH': 0.000379552, 'PULL_SKETCH': 0.000205712, 'NEW_TREE': 0.002153573, 'FIND_SPLIT': 0.0050022055, 'BUILD_HISTOGRAM': 0.005859375, 'SPLIT_TREE': 0.005859375},
        {'loading': 0.000264860625, 'computation': 0.016426792000000003, 'communication': 0.0030330005000000003, 'total': 0.019724653125},
        (0.010287387125, 0.019724653124999998),
    ),
    (0, 0.0, 'half'): (
        {'CREATE_SKETCH': 0.000379552, 'PULL_SKETCH': 0.000205712, 'NEW_TREE': 0.004106698, 'FIND_SPLIT': 0.006379664, 'BUILD_HISTOGRAM': 0.01171875, 'SPLIT_TREE': 0.01171875},
        {'loading': 0.000264860625, 'computation': 0.03147612549999999, 'communication': 0.0030330005000000003, 'total': 0.034773986624999996},
        (0.017812053874999997, 0.034773986625),
    ),
    (0, 0.3, 'nominal'): (
        {'CREATE_SKETCH': 0.000379552, 'PULL_SKETCH': 0.000205712, 'NEW_TREE': 0.0025466379802013377, 'FIND_SPLIT': 0.00535684263350068, 'BUILD_HISTOGRAM': 0.007187780085986185, 'SPLIT_TREE': 0.007187780085986185},
        {'loading': 0.000264860625, 'computation': 0.019831304285674395, 'communication': 0.0030330005000000003, 'total': 0.023129165410674394},
        (0.0111533086180196, 0.023129165410674387),
    ),
    (0, 0.3, 'half'): (
        {'CREATE_SKETCH': 0.000379552, 'PULL_SKETCH': 0.000205712, 'NEW_TREE': 0.003973150908621129, 'FIND_SPLIT': 0.006979104355461124, 'BUILD_HISTOGRAM': 0.012973647766717375, 'SPLIT_TREE': 0.012973647766717375},
        {'loading': 0.000264860625, 'computation': 0.034451814297517, 'communication': 0.0030330005000000003, 'total': 0.037749675422517004},
        (0.017009475474500723, 0.037749675422517004),
    ),
    (1, 0.0, 'nominal'): (
        {'CREATE_SKETCH': 0.000379552, 'PULL_SKETCH': 0.000205712, 'NEW_TREE': 0.002153573, 'FIND_SPLIT': 0.005002205500000001, 'BUILD_HISTOGRAM': 0.005859375, 'SPLIT_TREE': 0.005859375},
        {'loading': 0.000264860625, 'computation': 0.016426792, 'communication': 0.0030330005000000003, 'total': 0.019724653124999998},
        (0.010287387125, 0.019724653124999998),
    ),
    (1, 0.0, 'half'): (
        {'CREATE_SKETCH': 0.000379552, 'PULL_SKETCH': 0.000205712, 'NEW_TREE': 0.004106698, 'FIND_SPLIT': 0.005002205500000001, 'BUILD_HISTOGRAM': 0.01171875, 'SPLIT_TREE': 0.01171875},
        {'loading': 0.000264860625, 'computation': 0.030098667, 'communication': 0.0030330005000000003, 'total': 0.033396528125},
        (0.017123324625, 0.033396528125000005),
    ),
    (1, 0.3, 'nominal'): (
        {'CREATE_SKETCH': 0.000379552, 'PULL_SKETCH': 0.000205712, 'NEW_TREE': 0.00230930862359739, 'FIND_SPLIT': 0.005249000685772505, 'BUILD_HISTOGRAM': 0.00640351069334163, 'SPLIT_TREE': 0.00640351069334163},
        {'loading': 0.000264860625, 'computation': 0.017917594196053155, 'communication': 0.0030330005000000003, 'total': 0.021215455321053154},
        (0.009756299963786599, 0.021215455321053154),
    ),
    (1, 0.3, 'half'): (
        {'CREATE_SKETCH': 0.000379552, 'PULL_SKETCH': 0.000205712, 'NEW_TREE': 0.003973150908621128, 'FIND_SPLIT': 0.005491811943920889, 'BUILD_HISTOGRAM': 0.012973647766717375, 'SPLIT_TREE': 0.012973647766717375},
        {'loading': 0.000264860625, 'computation': 0.03296452188597676, 'communication': 0.0030330005000000003, 'total': 0.03626238301097676},
        (0.016352029937312728, 0.03626238301097677),
    ),
}


SPEEDS = {"nominal": None, "half": (1.0, 0.5, 1.0, 1.0)}


@pytest.fixture(scope="module")
def data():
    spec = SyntheticSpec(n_instances=400, n_features=24, avg_nnz=6.0)
    return make_sparse_classification(spec, seed=3)


@pytest.fixture()
def fixed_step_clock(monkeypatch):
    counter = itertools.count()
    for module in (
        "repro.runtime.phases",
        "repro.distributed.backends",
        "repro.distributed.engine",
    ):
        monkeypatch.setattr(f"{module}.wall_clock", lambda: next(counter) * 2.0**-10)


@pytest.mark.parametrize("staleness, jitter, speeds", sorted(LEDGER_PINS))
def test_ledger_pinned(data, fixed_step_clock, staleness, jitter, speeds):
    cluster = ClusterConfig(
        n_workers=4, n_servers=2, speed_jitter=jitter, worker_speeds=SPEEDS[speeds]
    )
    config = TrainConfig(
        n_trees=2, max_depth=3, n_split_candidates=8, staleness=staleness
    )
    result = train_distributed("dimboost", data, cluster, config)
    assert (
        result.phases,
        result.breakdown.as_dict(),
        tuple(r.sim_elapsed for r in result.rounds),
    ) == LEDGER_PINS[staleness, jitter, speeds]
