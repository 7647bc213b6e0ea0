"""Local histogram aggregation (Horovod-style, arXiv:1802.05799 lineage).

DimBoost pushes one histogram delta per tree node per worker, so every
layer pays the full per-message latency term ``(p - co) * alpha`` once
per node.  Horovod's ``LocalGradientAggregationHelper`` shows the cure
for the analogous problem in data-parallel SGD: accumulate gradients
locally for ``k`` steps and communicate once.  This module is that
helper for histogram deltas: a :class:`LocalAggregator` buffers encoded
node deltas worker-side across an *aggregation window* of
``TrainConfig.agg_window`` deltas and hands back one batched payload,
which the group pushes with a single windowed message per server
(:meth:`repro.ps.group.ParameterServerGroup.push_window` for slabs,
:meth:`~repro.ps.group.ParameterServerGroup.push_window_rows` for dense
row pieces).

A window batches; it never folds.  Each worker contributes one delta
per node per layer and windows never span layers, so a window holds at
most one delta per node, and the servers add each entry exactly as they
would have added the same delta pushed on its own.
"""

from __future__ import annotations

from typing import Any

from ..errors import PSError


class LocalAggregator:
    """Worker-side delta accumulator with a fixed aggregation window.

    ``add`` buffers one encoded ``(node, delta)`` — a wire slab, or the
    pieces ``encode_row`` returned for a dense row; once ``window`` deltas
    have accumulated, the caller drains the buffer and pushes the
    entries as one windowed message.  Entries drain in insertion order
    so replayed rounds regenerate identical wire payloads and sequence
    tokens.

    ``drain`` also returns the zero-based *window index* — the windowed
    push's sequence tokens are ``(tree, window_index, worker)``, so a
    retry that lands inside the same window deduplicates while the next
    window's (equally legitimate) touch of the same row does not.
    ``reset`` rewinds the window counter at tree start, which keeps the
    token stream identical when chaos recovery replays a round.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise PSError(f"aggregation window must be >= 1, got {window}")
        self.window = window
        self.windows_flushed = 0
        self._entries: dict[int, Any] = {}

    @property
    def pending(self) -> int:
        """Deltas buffered since the last drain."""
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.window

    def add(self, node: int, delta: Any) -> bool:
        """Buffer one node delta; returns True once the window is full.

        Raises:
            PSError: ``node`` already has a delta in this window.  Both
                would travel under the window's one ``(tree, window,
                worker)`` token, and the server would drop the second as
                a duplicate.
        """
        if node in self._entries:
            raise PSError(
                f"node {node} already has a delta in window "
                f"{self.windows_flushed}; a window holds one delta per node"
            )
        self._entries[node] = delta
        return self.full

    def drain(self) -> tuple[int, list[tuple[int, Any]]]:
        """Hand back ``(window_index, entries)`` and start a new window.

        Draining an empty buffer returns no entries and does *not*
        consume a window index — partial-window flushes at layer ends
        only advance the token stream when something actually travels.
        """
        if not self._entries:
            return self.windows_flushed, []
        window_index = self.windows_flushed
        entries = list(self._entries.items())
        self._entries = {}
        self.windows_flushed += 1
        return window_index, entries

    def reset(self) -> None:
        """Forget buffered deltas and rewind the window counter.

        Called at tree start so a chaos rollback-replay of the round
        regenerates the same ``(tree, window, worker)`` token sequence.
        """
        self._entries = {}
        self.windows_flushed = 0
