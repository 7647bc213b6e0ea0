"""Unit tests for the local aggregator and the windowed push seam.

The regression class at the bottom is the PR's seam fix: retried
windowed pushes must dedupe per *(round, window)* — the old per-round
token scheme silently dropped the second window of a round that touched
the same node row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PSError
from repro.ps import (
    LocalAggregator,
    ParameterServerGroup,
    SlabLayout,
    SparseSlab,
)

LAYOUT = SlabLayout(4, 3, np.zeros(4, dtype=np.int64))


def make_slab(value, col_lo=0, col_hi=4, features=(0, 1)):
    present = np.asarray(sorted(f for f in features if col_lo <= f < col_hi))
    values = np.full(
        (present.size, LAYOUT.feature_width), float(value), dtype=np.float64
    )
    return SparseSlab(
        col_lo=col_lo,
        col_hi=col_hi,
        features=present,
        values=values,
        sum_g=float(value),
        sum_h=float(value) / 2.0,
    )


def make_group(n_servers=2, fabric=None):
    group = ParameterServerGroup(n_servers, fabric=fabric)
    group.register(
        "grad_hist",
        LAYOUT.row_length,
        align=LAYOUT.feature_width,
        layout=LAYOUT,
    )
    return group


class TestLocalAggregator:
    def test_rejects_bad_window(self):
        with pytest.raises(PSError, match="window"):
            LocalAggregator(0)

    def test_fills_at_window_in_insertion_order(self):
        aggregator = LocalAggregator(3)
        first, second, third = make_slab(1.0), make_slab(2.0), make_slab(5.0)
        assert not aggregator.add(4, first)
        assert not aggregator.add(0, second)
        assert aggregator.add(1, third)
        assert aggregator.full
        index, entries = aggregator.drain()
        assert index == 0
        assert [node for node, _slab in entries] == [4, 0, 1]
        assert [slab for _node, slab in entries] == [first, second, third]
        assert aggregator.pending == 0

    def test_refuses_a_node_already_pending(self):
        """A window holds one delta per node: a second one would share
        the window's seq token, and the server would drop it as a
        duplicate.  After a drain the node may come again."""
        aggregator = LocalAggregator(4)
        aggregator.add(0, make_slab(1.0))
        with pytest.raises(PSError, match="node 0 already has a delta"):
            aggregator.add(0, make_slab(2.0))
        assert aggregator.pending == 1
        aggregator.drain()
        aggregator.add(0, make_slab(2.0))
        assert aggregator.pending == 1

    def test_empty_drain_consumes_no_window_index(self):
        aggregator = LocalAggregator(2)
        index, entries = aggregator.drain()
        assert (index, entries) == (0, [])
        aggregator.add(0, make_slab(1.0))
        index, entries = aggregator.drain()
        assert index == 0
        assert len(entries) == 1
        assert aggregator.windows_flushed == 1

    def test_reset_rewinds_window_numbering(self):
        aggregator = LocalAggregator(1)
        aggregator.add(0, make_slab(1.0))
        aggregator.drain()
        aggregator.add(0, make_slab(1.0))
        aggregator.reset()
        assert aggregator.pending == 0
        assert aggregator.windows_flushed == 0
        aggregator.add(3, make_slab(2.0))
        index, entries = aggregator.drain()
        assert index == 0
        assert [node for node, _slab in entries] == [3]


class TestPushWindow:
    def test_routes_and_matches_per_slab_pushes(self):
        direct = make_group()
        direct.push_slab("grad_hist", 0, make_slab(1.0))
        direct.push_slab("grad_hist", 2, make_slab(-3.0, features=(1, 3)))

        windowed = make_group()
        stats = windowed.push_window(
            "grad_hist",
            [(0, make_slab(1.0)), (2, make_slab(-3.0, features=(1, 3)))],
        )
        assert stats.messages >= 1
        for row in (0, 2):
            np.testing.assert_array_equal(
                direct.pull_row("grad_hist", row)[0],
                windowed.pull_row("grad_hist", row)[0],
            )

    def test_bills_row_id_plus_wire_bytes(self):
        group = make_group(n_servers=1)
        slab = make_slab(1.0)
        stats = group.push_window("grad_hist", [(0, slab), (1, slab)])
        expected = 2 * (4 + slab.wire_bytes_for(0, LAYOUT.n_features))
        assert stats.bytes_up == expected

    def test_requires_layout(self):
        group = ParameterServerGroup(1)
        group.register("plain", 8)
        with pytest.raises(PSError, match="slab layout"):
            group.push_window("plain", [(0, make_slab(1.0))])

    def test_fabric_requires_seq(self):
        class NullFabric:
            def deliver(self, kind, send, server=None, worker=None,
                        payload_bytes=0):
                return send()

        group = make_group(fabric=NullFabric())
        with pytest.raises(PSError, match="seq token"):
            group.push_window("grad_hist", [(0, make_slab(1.0))])

    def test_duplicate_window_delivery_dedupes(self):
        group = make_group(n_servers=1)
        entries = [(0, make_slab(4.0))]
        group.push_window("grad_hist", entries, seq=(0, 0, 0))
        once = group.pull_row("grad_hist", 0)[0].copy()
        group.push_window("grad_hist", entries, seq=(0, 0, 0))
        np.testing.assert_array_equal(group.pull_row("grad_hist", 0)[0], once)
        assert group.servers[0].duplicate_pushes >= 1

    def test_clear_row_frees_window_tokens(self):
        group = make_group(n_servers=1)
        entries = [(0, make_slab(4.0))]
        group.push_window("grad_hist", entries, seq=(0, 0, 0))
        group.clear_row("grad_hist", 0)
        group.push_window("grad_hist", entries, seq=(0, 0, 0))
        once = make_group(n_servers=1)
        once.push_window("grad_hist", entries, seq=(0, 0, 0))
        np.testing.assert_array_equal(
            group.pull_row("grad_hist", 0)[0],
            once.pull_row("grad_hist", 0)[0],
        )


class TestWindowScopedSeqTokens:
    """The satellite fix: seq tokens carry the window index.

    A worker that flushes two aggregation windows in the same round can
    touch the same node row twice.  Under the pre-windowing token scheme
    — ``(round, worker)``, one token per round — the second window is
    indistinguishable from a retry of the first and gets dropped on the
    floor.  The extended ``(round, window, worker)`` token keeps retry
    dedupe while letting every window of a round land.
    """

    def test_old_round_scoped_tokens_lose_the_second_window(self):
        group = make_group(n_servers=1)
        group.push_window("grad_hist", [(0, make_slab(1.0))], seq=(7, 0))
        group.push_window("grad_hist", [(0, make_slab(2.0))], seq=(7, 0))
        both = make_group(n_servers=1)
        both.push_slab("grad_hist", 0, make_slab(1.0))
        both.push_slab("grad_hist", 0, make_slab(2.0))
        with pytest.raises(AssertionError):
            np.testing.assert_array_equal(
                group.pull_row("grad_hist", 0)[0],
                both.pull_row("grad_hist", 0)[0],
            )
        assert group.servers[0].duplicate_pushes >= 1

    def test_window_scoped_tokens_apply_every_window_once(self):
        group = make_group(n_servers=1)
        # Two windows of round 7 touch row 0; a retry of window 0 lands
        # in between, exactly as a fault fabric would redeliver it.
        group.push_window("grad_hist", [(0, make_slab(1.0))], seq=(7, 0, 0))
        group.push_window("grad_hist", [(0, make_slab(1.0))], seq=(7, 0, 0))
        group.push_window("grad_hist", [(0, make_slab(2.0))], seq=(7, 1, 0))
        both = make_group(n_servers=1)
        both.push_slab("grad_hist", 0, make_slab(1.0))
        both.push_slab("grad_hist", 0, make_slab(2.0))
        np.testing.assert_array_equal(
            group.pull_row("grad_hist", 0)[0],
            both.pull_row("grad_hist", 0)[0],
        )
        assert group.servers[0].duplicate_pushes == 1

    def test_distinct_workers_never_collide(self):
        group = make_group(n_servers=1)
        group.push_window("grad_hist", [(0, make_slab(1.0))], seq=(7, 0, 0))
        group.push_window("grad_hist", [(0, make_slab(2.0))], seq=(7, 0, 1))
        both = make_group(n_servers=1)
        both.push_slab("grad_hist", 0, make_slab(1.0))
        both.push_slab("grad_hist", 0, make_slab(2.0))
        np.testing.assert_array_equal(
            group.pull_row("grad_hist", 0)[0],
            both.pull_row("grad_hist", 0)[0],
        )
        assert group.servers[0].duplicate_pushes == 0
