"""Parameter-server tests, and how they read a group's merged summaries."""

from __future__ import annotations

from repro.sketch import SketchBatch


def stored_summaries(group, name: str = "sketch") -> SketchBatch:
    """The merged summaries ``group``'s servers hold for ``name``, joined
    in feature order — read off the servers' state, not pulled: the wire
    carries candidates only."""
    return SketchBatch.concat(
        [
            group.servers[part.server_id]._sketches[name][part.partition_id]
            for part in group.partitioner(name).partitions
            if part.partition_id in group.servers[part.server_id]._sketches[name]
        ]
    )
