"""Batched ensemble inference: compiled flat scoring + process pool.

:class:`FlatEnsemble` compiles a trained ensemble once into contiguous
struct-of-arrays and scores row blocks level-synchronously across all
trees; :class:`ParallelScorer` fans row spans out to a shared-memory
process pool.  Both are bit-identical to the per-tree reference path.
See ``docs/inference.md``.
"""

from .flat import FlatEnsemble
from .parallel import ParallelScorer

__all__ = ["FlatEnsemble", "ParallelScorer"]
