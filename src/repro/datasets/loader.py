"""LibSVM-format text IO for sparse datasets.

LibSVM is the de-facto exchange format for sparse GBDT training data
(XGBoost and LightGBM both read it).  A line looks like::

    <label> <index>:<value> <index>:<value> ...

Indices in files are conventionally 1-based; this loader accepts both and
normalizes to 0-based (``one_based=True`` by default, matching the public
RCV1 distribution).
"""

from __future__ import annotations

import math
import os
from typing import IO, Iterable

import numpy as np

from ..errors import DataError
from .dataset import Dataset
from .sparse import CSRMatrix

#: Largest 0-based feature index a CSR block's int32 indices can hold.
_INDEX_MAX = int(np.iinfo(np.int32).max)


def _parse_line(line: str, line_no: int, one_based: bool) -> tuple[float, list[int], list[float]]:
    parts = line.split()
    try:
        label = float(parts[0])
    except ValueError as exc:
        raise DataError(f"line {line_no}: bad label {parts[0]!r}") from exc
    if not math.isfinite(label):
        raise DataError(f"line {line_no}: label {parts[0]!r} is not finite")
    idxs: list[int] = []
    vals: list[float] = []
    for token in parts[1:]:
        if token.startswith("#"):
            break  # trailing comment
        try:
            idx_str, val_str = token.split(":", 1)
            idx = int(idx_str)
            val = float(val_str)
        except ValueError as exc:
            raise DataError(f"line {line_no}: bad feature token {token!r}") from exc
        if one_based:
            idx -= 1
        if idx < 0:
            raise DataError(f"line {line_no}: feature index {idx} below range")
        if idx > _INDEX_MAX:
            raise DataError(f"line {line_no}: feature index {idx} does not fit int32")
        idxs.append(idx)
        vals.append(val)
    return label, idxs, vals


def load_libsvm(
    path: str | os.PathLike[str],
    n_features: int | None = None,
    one_based: bool = True,
    name: str | None = None,
) -> Dataset:
    """Load a LibSVM text file into a :class:`Dataset`.

    Args:
        path: File path.
        n_features: Force the dimensionality; inferred from the max index
            seen if omitted.
        one_based: Whether feature indices in the file start at 1.
        name: Dataset name; defaults to the file's basename.

    Raises:
        DataError: On malformed lines (a non-finite label, an index past
            int32 included) or indices beyond ``n_features``.
    """
    labels: list[float] = []
    indptr: list[int] = [0]
    indices: list[int] = []
    data: list[float] = []
    max_index = -1
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            label, idxs, vals = _parse_line(line, line_no, one_based)
            order = np.argsort(idxs, kind="stable")
            sorted_idxs = [idxs[j] for j in order]
            if any(a == b for a, b in zip(sorted_idxs, sorted_idxs[1:])):
                raise DataError(f"line {line_no}: duplicate feature index")
            labels.append(label)
            indices.extend(sorted_idxs)
            data.extend(vals[j] for j in order)
            indptr.append(len(indices))
            if sorted_idxs:
                max_index = max(max_index, sorted_idxs[-1])
    if n_features is None:
        n_features = max_index + 1 if max_index >= 0 else 0
    elif max_index >= n_features:
        raise DataError(
            f"file contains index {max_index}, beyond n_features={n_features}"
        )
    X = CSRMatrix(
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.int32),
        np.asarray(data, dtype=np.float32),
        (len(labels), n_features),
    )
    return Dataset(X, np.asarray(labels, dtype=np.float32), name or os.path.basename(str(path)))


def save_libsvm(
    dataset: Dataset, path: str | os.PathLike[str], one_based: bool = True
) -> None:
    """Write ``dataset`` to ``path`` in LibSVM text format."""
    offset = 1 if one_based else 0
    with open(path, "w", encoding="utf-8") as handle:
        _write_rows(handle, dataset, offset)


def _write_rows(handle: IO[str], dataset: Dataset, offset: int) -> None:
    for i, (idxs, vals) in enumerate(dataset.X.iter_rows()):
        tokens: Iterable[str] = (
            f"{int(idx) + offset}:{float(val):g}" for idx, val in zip(idxs, vals)
        )
        label = dataset.y[i]
        label_str = f"{int(label)}" if float(label).is_integer() else f"{label:g}"
        handle.write(" ".join([label_str, *tokens]) + "\n")
