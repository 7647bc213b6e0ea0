"""Tabulated communication-cost curves (Table 1 / Figure 3 analysis).

Thin sweep layer over :mod:`repro.cluster.costmodel`: evaluate every
system's closed form over grids of worker counts and histogram sizes and
present the results as printable rows — the "who wins where" analysis of
Section 3's Remarks paragraph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.costmodel import SYSTEM_NAMES, CostParams, aggregation_time


@dataclass(frozen=True)
class CostTable:
    """A grid of modelled aggregation times.

    Attributes:
        workers: Worker counts (rows).
        sizes: Histogram sizes in bytes (columns).
        times: ``times[system][i, j]`` = modelled seconds for
            ``workers[i]`` workers and ``sizes[j]`` bytes.
    """

    workers: tuple[int, ...]
    sizes: tuple[float, ...]
    times: dict[str, np.ndarray]

    def winner(self, i: int, j: int) -> str:
        """The fastest system at grid point (i, j)."""
        return min(self.times, key=lambda s: self.times[s][i, j])

    def rows(self) -> list[dict[str, float | int | str]]:
        """Flat printable rows: one per (workers, size) grid point."""
        out: list[dict[str, float | int | str]] = []
        for i, w in enumerate(self.workers):
            for j, h in enumerate(self.sizes):
                row: dict[str, float | int | str] = {"workers": w, "bytes": h}
                for system in SYSTEM_NAMES:
                    row[system] = float(self.times[system][i, j])
                row["winner"] = self.winner(i, j)
                out.append(row)
        return out


def tabulate_costs(
    workers: list[int],
    sizes: list[float],
    cost: CostParams,
) -> CostTable:
    """Evaluate all four Table 1 closed forms over a (workers x sizes) grid."""
    times = {
        system: np.empty((len(workers), len(sizes)), dtype=np.float64)
        for system in SYSTEM_NAMES
    }
    for i, w in enumerate(workers):
        for j, h in enumerate(sizes):
            for system in SYSTEM_NAMES:
                times[system][i, j] = aggregation_time(system, w, h, cost)
    return CostTable(tuple(workers), tuple(float(s) for s in sizes), times)


def speedup_table(
    table: CostTable, baseline: str = "dimboost"
) -> dict[str, np.ndarray]:
    """Each system's time divided by the baseline's — the paper's "x faster"."""
    base = table.times[baseline]
    return {system: table.times[system] / base for system in SYSTEM_NAMES}
