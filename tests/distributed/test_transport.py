"""Transport-layer contracts: server-merged sketches + compressed slabs.

The CREATE_SKETCH phase now pushes stripe-local summaries through the
parameter servers instead of folding them in the driver.  These tests
pin the contract that made the move safe: the servers' arrival-order
left fold — one ragged batch merge per partition since PR 21 — is
*bit-identical* (equal frames of one, feature by feature) to the
driver-side per-feature fold, fault-free and under a chaotic fabric, for both
plain and hessian-weighted summaries; and the candidates a worker pulls
for its stripe (proposed on the servers, PULL_SKETCH) are bit-identical
to proposing from the driver fold.  The second half pins the
compressed slab push: the packed wire size matches the cost model, wins
>= 3x over the float32 slab at 8 bits, and composes with chaos-plan
recovery on a feature-striped grid.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.chaos import FaultEvent, FaultInjector, FaultPlan, FaultyFabric, RetryPolicy
from repro.cluster.costmodel import (
    CostParams,
    compressed_slab_bytes,
    sparse_slab_bytes,
)
from repro.cluster.simclock import SimClock
from repro.config import ClusterConfig, TrainConfig
from repro.datasets import Dataset, SyntheticSpec, gender_like, make_sparse_classification
from repro.distributed import DistributedGBDT
from repro.distributed.engine import _GridFit
from repro.ps import ParameterServerGroup, PSServer
from repro.ps.partitioner import VectorPartitioner
from repro.ps.slab import SlabLayout, SparseSlab, compress_slab
from repro.sketch import (
    CandidateSet,
    GKSketch,
    SketchBatch,
    WeightedGKSketch,
    propose_candidates_from_sketches,
)
from repro.sketch.candidates import candidate_frame_bytes

from .. import _reference_gridpath as ref
from ..ps import stored_summaries
from ..sketch import frame_of

N_FEATURES = 12
N_WORKERS = 4
EPS = 0.05
MAX_BINS = 6


def make_worker_sketches(weighted: bool, seed: int = 7):
    """Per-worker, per-feature local summaries over random shards."""
    rng = np.random.default_rng(seed)
    workers = []
    for _ in range(N_WORKERS):
        per_feature = {}
        for f in range(N_FEATURES):
            n = int(rng.integers(5, 60))
            vals = rng.normal(loc=f, size=n)
            if weighted:
                wts = rng.uniform(0.1, 2.0, size=n)
                per_feature[f] = WeightedGKSketch.from_values(vals, wts, eps=EPS)
            else:
                per_feature[f] = GKSketch.from_values(vals, eps=EPS)
        workers.append(per_feature)
    return workers


def driver_fold(workers):
    """The pre-PR driver merge: left fold in worker-id order."""
    merged = {}
    for per_feature in workers:
        for f, sk in per_feature.items():
            merged[f] = sk.copy() if f not in merged else merged[f].merge(sk)
    return merged


def as_batch(per_feature):
    """One worker's ``{feature: summary}`` as the batch it pushes."""
    return SketchBatch.from_sketches([per_feature[f] for f in range(N_FEATURES)])


def push_all(group, workers):
    for wid, per_feature in enumerate(workers):
        group.push_sketch(
            "sketch", as_batch(per_feature), seq=("sketch", wid), worker=wid
        )


def assert_bit_identical(merged, reference):
    assert merged.features.tolist() == sorted(reference)
    for f, summary in zip(merged.features.tolist(), merged):
        assert frame_of(summary) == frame_of(reference[f])


def candidate_bytes(candidates: CandidateSet) -> bytes:
    return (
        candidates.offsets.tobytes()
        + candidates.cuts.tobytes()
        + candidates.zero_bins.tobytes()
    )


def assert_candidates_identical(group, reference, worker=None):
    """Stripe pulls — the whole range and a cut through its middle —
    equal proposing from the driver fold, and bill their frames."""
    expected = propose_candidates_from_sketches(
        [reference[f] for f in range(N_FEATURES)], MAX_BINS
    )
    for lo, hi in ((0, N_FEATURES), (0, 5), (5, N_FEATURES)):
        stripe, stats = group.pull_sketches("sketch", lo, hi, MAX_BINS, worker=worker)
        assert candidate_bytes(stripe) == candidate_bytes(expected.feature_range(lo, hi))
        # Every partition's cuts are float64: the frames add up to one
        # frame of the stripe plus a header for each further message.
        cuts = expected.cuts[expected.offsets[lo] : expected.offsets[hi]]
        assert stats.bytes_down == candidate_frame_bytes(
            hi - lo, cuts, MAX_BINS
        ) + candidate_frame_bytes(0, cuts[:0], MAX_BINS) * (stats.messages - 1)


class TestServerMergeBitIdentity:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("n_servers", [1, 3])
    def test_server_fold_equals_driver_fold(self, weighted, n_servers):
        """Arrival-order merge on the servers == driver left fold."""
        workers = make_worker_sketches(weighted)
        group = ParameterServerGroup(n_servers)
        group.register("sketch", N_FEATURES)
        push_all(group, workers)
        assert_bit_identical(stored_summaries(group), driver_fold(workers))
        assert_candidates_identical(group, driver_fold(workers))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_serialization_round_trip_through_wire(self, weighted):
        """What comes back from the servers survives another trip through
        the frame losslessly, whole or one summary at a time — the wire
        adds a tag, never precision loss."""
        workers = make_worker_sketches(weighted)
        group = ParameterServerGroup(2)
        group.register("sketch", N_FEATURES)
        push_all(group, workers)
        merged = stored_summaries(group)
        cls = WeightedGKSketch if weighted else GKSketch
        assert merged.kind is cls and len(merged) == N_FEATURES
        for sk in merged:
            (back,) = SketchBatch.from_frame(frame_of(sk))
            assert frame_of(back) == frame_of(sk)
        assert SketchBatch.from_frame(merged.to_frame()).to_frame() == merged.to_frame()
        pulled, _ = group.pull_sketches("sketch", 0, N_FEATURES, MAX_BINS)
        frame = pulled.to_frame(0)
        back = CandidateSet.from_frame(frame, MAX_BINS, 0, N_FEATURES)
        assert back.to_frame(0) == frame and candidate_bytes(back) == candidate_bytes(pulled)

    def test_duplicate_push_is_idempotent(self):
        """Re-delivering a worker's sketch push with the same seq token
        must not merge its summaries twice."""
        workers = make_worker_sketches(weighted=False)
        group = ParameterServerGroup(2)
        group.register("sketch", N_FEATURES)
        push_all(group, workers)
        # Replay worker 1's push verbatim — same seq, same payloads.
        group.push_sketch("sketch", as_batch(workers[1]), seq=("sketch", 1), worker=1)
        assert_bit_identical(stored_summaries(group), driver_fold(workers))
        assert_candidates_identical(group, driver_fold(workers))
        assert any(s.duplicate_pushes > 0 for s in group.servers)


class TestChaoticFabric:
    def make_faulty_group(self, events):
        plan = FaultPlan(events=tuple(events), name="sketch-chaos")
        injector = FaultInjector(plan)
        injector.begin_round(-1)  # CREATE_SKETCH runs before round 0
        fabric = FaultyFabric(
            injector, SimClock(), RetryPolicy(max_retries=3), CostParams()
        )
        group = ParameterServerGroup(2, fabric=fabric)
        group.register("sketch", N_FEATURES)
        return group

    @pytest.mark.parametrize("weighted", [False, True])
    def test_drops_and_duplicates_preserve_bit_identity(self, weighted):
        """round_=None events fire during CREATE_SKETCH (round -1); the
        retry loop and seq dedupe keep the merged summaries bit-identical
        to the fault-free driver fold."""
        workers = make_worker_sketches(weighted)
        group = self.make_faulty_group(
            [
                FaultEvent(kind="drop", point="push", times=2),
                FaultEvent(kind="duplicate", point="push", times=3),
                FaultEvent(kind="drop", point="pull", times=1),
            ]
        )
        push_all(group, workers)
        assert_bit_identical(stored_summaries(group), driver_fold(workers))
        assert_candidates_identical(group, driver_fold(workers), worker=0)

    def test_push_without_seq_rejected_under_fabric(self):
        from repro.errors import PSError

        workers = make_worker_sketches(weighted=False)
        group = self.make_faulty_group([])
        with pytest.raises(PSError, match="seq"):
            group.push_sketch("sketch", as_batch(workers[0]), worker=0)


class TestEngineSketchModes:
    @pytest.fixture(scope="class")
    def data(self):
        spec = SyntheticSpec(n_instances=240, n_features=24, avg_nnz=6.0)
        return make_sparse_classification(spec, seed=3)

    def trees_of(self, result):
        return [tree.to_dict() for tree in result.model.trees]

    @pytest.mark.parametrize("mode", ["distributed", "weighted"])
    def test_row_and_grid_candidates_agree(self, data, mode):
        """Server-merged candidates are layout-independent: the R-worker
        row shard and the (R, C) grid grow identical trees."""
        config = TrainConfig(
            n_trees=2, max_depth=4, compression_bits=0, sketch_eps=0.05
        )
        row = DistributedGBDT(
            "dimboost",
            ClusterConfig(n_workers=2, n_servers=2),
            config,
            sketch_mode=mode,
        ).fit(data)
        blk = DistributedGBDT(
            "dimboost",
            ClusterConfig(n_workers=4, n_servers=2, grid=(2, 2)),
            config,
            sketch_mode=mode,
        ).fit(data)
        assert self.trees_of(row) == self.trees_of(blk)

    def test_sketch_mode_under_chaos_recovers(self, data):
        """Sketch pushes ride the fault fabric: an any-round drop plan
        (which also fires during CREATE_SKETCH) recovers bit-identically."""
        config = TrainConfig(
            n_trees=2, max_depth=4, compression_bits=0, sketch_eps=0.05
        )
        cluster = ClusterConfig(n_workers=4, n_servers=2, grid=(2, 2))
        clean = DistributedGBDT(
            "dimboost", cluster, config, sketch_mode="distributed"
        ).fit(data)
        plan = FaultPlan(
            events=(
                FaultEvent(kind="drop", point="push", times=2),
                FaultEvent(kind="duplicate", point="push", times=2),
            ),
            name="transport-chaos",
        )
        faulted = DistributedGBDT(
            "dimboost",
            cluster,
            config,
            sketch_mode="distributed",
            fault_plan=plan,
        ).fit(data)
        assert self.trees_of(clean) == self.trees_of(faulted)

    @pytest.mark.parametrize("kind", ["drop", "duplicate", "server_down"])
    def test_candidate_pulls_survive_pull_faults(self, data, kind):
        """Stripe candidate pulls ride the fault fabric: pull faults firing
        in PULL_SKETCH — on worker 3's pulls and on the first pulls of
        any worker, failures retried within ``max_retries`` — leave the
        fault-free fit's trees."""
        config = TrainConfig(
            n_trees=2, max_depth=4, compression_bits=0, sketch_eps=0.05
        )
        cluster = ClusterConfig(n_workers=4, n_servers=2, grid=(2, 2))
        clean = DistributedGBDT(
            "dimboost", cluster, config, sketch_mode="distributed"
        ).fit(data)
        attempts = config.max_retries if kind != "duplicate" else 1
        plan = FaultPlan(
            events=(
                FaultEvent(kind=kind, point="pull", times=2, attempts=attempts),
                FaultEvent(
                    kind=kind, point="pull", worker=3, times=1, attempts=attempts
                ),
            ),
            name=f"candidate-pull-{kind}",
        )
        faulted = DistributedGBDT(
            "dimboost", cluster, config, sketch_mode="distributed", fault_plan=plan
        ).fit(data)
        assert self.trees_of(clean) == self.trees_of(faulted)
        assert faulted.faults["totals"]["injected"] == 3
        assert faulted.phases["FAULT_RECOVERY"] > 0.0

    def test_duplicated_candidate_pull_bills_its_frame(self, data, monkeypatch):
        """A lost or duplicated candidate frame wasted its length on the
        wire, as a lost range pull does: one duplicated PULL_SKETCH pull
        on a 2x2 grid charges ``FAULT_RECOVERY`` exactly ``alpha +
        frame_bytes * beta``, the frame being that pull's reply."""
        frames: list[int] = []
        pull = PSServer.handle_pull_candidates

        def record(server, *args):
            frame = pull(server, *args)
            frames.append(len(frame))
            return frame

        monkeypatch.setattr(PSServer, "handle_pull_candidates", record)
        config = TrainConfig(
            n_trees=2, max_depth=4, compression_bits=0, sketch_eps=0.05
        )
        cluster = ClusterConfig(n_workers=4, n_servers=2, grid=(2, 2))
        plan = FaultPlan(
            events=(FaultEvent(kind="duplicate", point="pull", times=1),),
            name="candidate-pull-duplicate-once",
        )
        faulted = DistributedGBDT(
            "dimboost", cluster, config, sketch_mode="distributed", fault_plan=plan
        ).fit(data)
        assert faulted.faults["totals"]["injected"] == 1
        first, again = frames[:2]  # the duplicated pull, delivered twice
        assert first == again > 0
        cost = cluster.network
        assert faulted.phases["FAULT_RECOVERY"] == cost.alpha + first * cost.beta

    def test_invalid_sketch_mode_rejected(self, data):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="sketch_mode"):
            DistributedGBDT(
                "dimboost",
                ClusterConfig(n_workers=2, n_servers=2),
                TrainConfig(n_trees=1),
                sketch_mode="telepathic",
            )


PIN_LAYOUTS = {
    "row4x1": dict(n_workers=4, n_servers=2),
    "grid2x2": dict(n_workers=4, n_servers=2, grid=(2, 2)),
}
#: (layout, sketch_mode) -> (model sha256, breakdown.communication,
#: sha256 of offsets + cuts + zero_bins).  The row4x1 models and seconds
#: were re-pinned when lossy dense pushes started subtracting the
#: builder's exact node sums and leaving features with no nonzero off
#: the wire (a deliberate model change); the candidate sets did not move.
#: They were re-pinned again when lossy dense pieces started carrying the
#: node sums as a header and the servers storing the folded histogram:
#: each zero bucket sums its workers' decoded-plus-sums floats instead of
#: getting the summed sums added at split time, and every piece bills
#: 8 header bytes (a deliberate model change; candidates did not move).
#: The four communication floats were re-pinned once more when
#: PULL_SKETCH stopped pulling the merged summaries: each worker pulls
#: the servers' candidate frames of its own stripe, billed at their
#: length, so only the PULL_SKETCH charge moved — models and candidate
#: sets are byte for byte the same.
#: They moved again when a codec message began to bill its levels as a
#: zero-level bitmap plus the nonzero levels whenever that form is the
#: smaller (before, in this order: 0.0127146, 0.013345528000000004,
#: 0.011053334000000003, 0.011365644000000005); the model and cut hashes
#: did not move, since the bill changes no level.
#: And again when the sketch and candidate frames began to travel in
#: their smallest lossless form (float32 values and cuts where exact,
#: narrow g / delta / counts, no all-zero delta, one eps and one first
#: id) and slab shares to name their present features by a bitmap where
#: that beats the ids (before, in this order: 0.0105580645,
#: 0.0111585425, 0.0102412395, 0.010522417000000001): the frames carry
#: the same columns bit for bit, so the model and cut hashes stay.
ENGINE_PINS = {
    ("row4x1", "distributed"): (
        "76248cac965930d5ccc13829a1220256c240ef2b195fa6b239d51aed8a5f22f9",
        0.008442442500000001,
        "44bc63b3f4e6cc67c7f1806c27d0f79f2f8e2a3e854074bc9652dc4ea0fbb7e3",
    ),
    ("row4x1", "weighted"): (
        "b2757213d80c347027771390150e85fc0cb5d177a15f705ebbbdf9adf88da430",
        0.0091716345,
        "196916011a8d177c200a2f53fd362a13730e4e0f47743689b748e44af542bc4a",
    ),
    ("grid2x2", "distributed"): (
        "d4be0c693b0a430be02afaed19ecefdcd249ce3a7d75bf942fb04bb2de5d5aa3",
        0.008375087500000001,
        "a86ee7e4eda1e3c2da1ed8185dac13a7e27e8f27a6e7df182e8f1ae391c2df25",
    ),
    ("grid2x2", "weighted"): (
        "817328ee365a8f7f1b5f52f4ffc9201736cf3c0af04e4809509296a3fca4df2a",
        0.008879587000000003,
        "3cee05d07126f3cefea753881e2a05e251b2d75d917a5f407449aaab6dd033ef",
    ),
}


def _capture_candidates(monkeypatch) -> list:
    """Collects every candidate set a fit's CREATE_SKETCH stage produces."""
    found = []
    sketch = _GridFit.sketch

    def capturing(fit):
        found.append(sketch(fit))
        return found[-1]

    monkeypatch.setattr(_GridFit, "sketch", capturing)
    return found


class TestEngineSketchPins:
    """Recorded on the list-backed summaries, before PR 14 moved them to
    ndarrays: the model, the simulated communication seconds (hence every
    billed sketch byte) and the candidate set of a small seeded
    Gender-like fit.  A representation change must not move any of them."""

    @pytest.fixture(scope="class")
    def data(self):
        base = gender_like(scale=0.02, seed=11)  # 800 x 660
        weights = np.random.default_rng(11).uniform(0.25, 4.0, size=base.n_instances)
        return Dataset(base.X, base.y, base.name, weights)

    @pytest.mark.parametrize("layout, mode", sorted(ENGINE_PINS))
    def test_model_bytes_and_candidates_pinned(self, data, layout, mode, monkeypatch):
        captured = _capture_candidates(monkeypatch)
        trainer = DistributedGBDT(
            "dimboost",
            ClusterConfig(**PIN_LAYOUTS[layout]),
            TrainConfig(n_trees=2, max_depth=4, sketch_eps=0.05),
            sketch_mode=mode,
        )
        result = trainer.fit(data)
        (found,) = captured
        model = json.dumps(result.model.to_dict(), sort_keys=True).encode("utf-8")
        cuts = found.offsets.tobytes() + found.cuts.tobytes() + found.zero_bins.tobytes()
        assert (
            hashlib.sha256(model).hexdigest(),
            result.breakdown.communication,
            hashlib.sha256(cuts).hexdigest(),
        ) == ENGINE_PINS[layout, mode]


    @pytest.mark.parametrize("layout", sorted(PIN_LAYOUTS))
    @pytest.mark.parametrize("mode", ["exact", "distributed"])
    def test_pull_sketch_bills_each_stripe_its_candidate_frames(
        self, data, layout, mode
    ):
        """PULL_SKETCH charges the slowest worker's pull of its own
        stripe's candidate frames — in ``"exact"`` mode too, billed from
        its own cuts — by the per-feature closed form of the smallest frame."""
        cluster = ClusterConfig(**PIN_LAYOUTS[layout])
        trainer = DistributedGBDT(
            "dimboost", cluster, TrainConfig(n_trees=1, sketch_eps=0.05), sketch_mode=mode
        )
        fit = _GridFit(trainer.plan, (), data)
        found = fit.sketch()
        partitioner = VectorPartitioner(data.n_features, cluster.n_servers)
        bills = []
        for block in fit.blocks:
            bytes_down, messages = ref.candidate_frame_pull_bytes(
                partitioner, found.offsets, found.cuts, found.max_bins,
                block.col_lo, block.col_hi,
            )
            bills.append(
                messages * cluster.network.alpha + bytes_down * cluster.network.beta
            )
        assert fit.clock.by_phase()["PULL_SKETCH"] == max(bills)


class TestCompressedSlabTransport:
    # The paper's protocol: 20 split candidates -> K = 21 buckets.  The
    # >= 3x floor below needs a realistic K; tiny histograms are
    # dominated by the incompressible header + feature ids.
    K = 21
    M = 16

    def make_slab(self, seed=5):
        rng = np.random.default_rng(seed)
        features = np.arange(2, 14, dtype=np.int64)
        values = rng.normal(scale=3.0, size=(len(features), 2 * self.K))
        return SparseSlab(
            col_lo=0,
            col_hi=self.M,
            features=features,
            values=values,
            sum_g=float(values[:, 0].sum()),
            sum_h=float(abs(values[:, self.K]).sum()),
        )

    def layout(self):
        return SlabLayout(
            self.M, self.K, np.zeros(self.M, dtype=np.int64)
        )

    def test_wire_bytes_match_cost_model(self):
        """The slab names its 12 present features of 16 by a 2-byte
        bitmap; the cost model's closed forms bill the 48 bytes of ids,
        their upper bound, so they read exactly 46 bytes more."""
        slab = self.make_slab()
        comp = compress_slab(
            slab, self.layout(), bits=8, rng=np.random.default_rng(0)
        )
        # 16 header + 1 tag + 2 bitmap + 504 levels (no level is 0) + 96 scales.
        assert comp.wire_bytes_for(0, self.M) == 619
        assert compressed_slab_bytes(slab.n_present, self.K, bits=8) == 665
        # 16 header + 1 tag + 2 bitmap + 12 * 42 float32 values.
        assert slab.wire_bytes_for(0, self.M) == 2035
        assert sparse_slab_bytes(slab.n_present, self.K) == 2081

    @pytest.mark.parametrize("bits,floor", [(8, 3.0), (4, 4.5), (2, 6.0)])
    def test_compression_ratio_on_group_push(self, bits, floor):
        """Billed push bytes shrink >= 3x at 8 bits (more at 4/2)."""
        slab = self.make_slab()
        layout = self.layout()

        def billed(compression_bits):
            group = ParameterServerGroup(2)
            group.register(
                "grad",
                self.M * 2 * self.K,
                align=2 * self.K,
                layout=layout,
            )
            wire = slab
            if compression_bits:
                wire = compress_slab(
                    slab, layout, compression_bits, np.random.default_rng(1)
                )
            return group.push_slab("grad", 0, wire).bytes_up

        assert billed(0) / billed(bits) >= floor

    def test_push_slab_takes_no_codec_options(self):
        """A lossy slab push hands in the compress_slab output; the push
        itself only routes and bills."""
        group = ParameterServerGroup(2)
        group.register(
            "grad", self.M * 2 * self.K, align=2 * self.K, layout=self.layout()
        )
        with pytest.raises(TypeError):
            group.push_slab("grad", 0, self.make_slab(), compression_bits=8)

    def test_compressed_push_reconstructs_zero_folds_exactly(self):
        """Absent features and zero buckets carry the block's exact sums
        even through the codec: only listed-feature residuals quantize."""
        layout = self.layout()
        features = np.array([3], dtype=np.int64)
        values = np.zeros((1, 2 * self.K))
        values[0, 0] = 7.5  # zero bucket of g: pure fold mass
        values[0, self.K] = 2.25
        slab = SparseSlab(
            col_lo=0,
            col_hi=self.M,
            features=features,
            values=values,
            sum_g=7.5,
            sum_h=2.25,
        )
        comp = compress_slab(slab, layout, bits=2, rng=np.random.default_rng(2))
        back = comp.to_sparse(layout)
        np.testing.assert_array_equal(back.values, values)
        assert back.sum_g == 7.5 and back.sum_h == 2.25
