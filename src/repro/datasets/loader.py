"""LibSVM-format text IO for sparse datasets.

LibSVM is the de-facto exchange format for sparse GBDT training data
(XGBoost and LightGBM both read it).  A line looks like::

    <label> <index>:<value> <index>:<value> ...

Indices in files are conventionally 1-based; this loader accepts both and
normalizes to 0-based (``one_based=True`` by default, matching the public
RCV1 distribution).
"""

from __future__ import annotations

import os
from typing import IO, Iterable

import numpy as np

from ..errors import DataError
from .dataset import Dataset
from .sparse import CSRMatrix

#: Largest 0-based feature index a CSR block's int32 indices can hold.
_INDEX_MAX = int(np.iinfo(np.int32).max)

#: Labels and values are stored as float32: a float64 of this magnitude or
#: more (float32's largest plus half an ulp, where rounding goes up) would
#: become ``inf``.  NaN fails the ``<`` test too.
_FLOAT32_LIMIT = 2.0**128 - 2.0**103


def _number(text: str) -> float:
    """``float(text)`` for plain ASCII spellings only; Python's ``float``
    also takes digit-group underscores (``1_0``) and non-ASCII digits."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return float(text)


def _parse_line(line: str, line_no: int, one_based: bool) -> tuple[float, list[int], list[float]]:
    parts = line.split()
    try:
        label = _number(parts[0])
    except ValueError as exc:
        raise DataError(f"line {line_no}: bad label {parts[0]!r}") from exc
    if not abs(label) < _FLOAT32_LIMIT:
        raise DataError(
            f"line {line_no}: label {parts[0]!r} is not finite in float32"
        )
    idxs: list[int] = []
    vals: list[float] = []
    for token in parts[1:]:
        if token.startswith("#"):
            break  # trailing comment
        try:
            idx_str, val_str = token.split(":", 1)
            if not (idx_str.isascii() and idx_str.isdigit()):
                raise ValueError(idx_str)
            idx = int(idx_str)
            val = _number(val_str)
        except ValueError as exc:
            raise DataError(f"line {line_no}: bad feature token {token!r}") from exc
        if not abs(val) < _FLOAT32_LIMIT:
            raise DataError(
                f"line {line_no}: value {val_str!r} is not finite in float32"
            )
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
        DataError: Naming the line, on malformed lines: bytes that are not
            UTF-8, a label or value that is NaN, infinite or past float32's
            range, an index that is not plain digits or is past int32.
            Also on indices beyond ``n_features``.
    """
    labels: list[float] = []
    indptr: list[int] = [0]
    indices: list[int] = []
    data: list[float] = []
    max_index = -1
    # Undecodable bytes come through as lone surrogates, so the line that
    # holds them can be named.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise DataError(f"line {line_no}: not valid UTF-8") from exc
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
    """Write ``dataset`` to ``path`` in LibSVM text format.

    Labels and values are written so that :func:`load_libsvm` gives back
    the float32 values it would have made of the in-memory ones, bit for
    bit: a generated dataset trains the same from its file.
    """
    offset = 1 if one_based else 0
    with open(path, "w", encoding="utf-8") as handle:
        _write_rows(handle, dataset, offset)


def _exact(value: float) -> str:
    """The shortest text :func:`load_libsvm` reads back as ``value``, bit
    for bit: Python's ``repr`` of its float64 (exact for a float32, and
    never rounded twice on the way back), an integral value without
    ``.0``."""
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def _write_rows(handle: IO[str], dataset: Dataset, offset: int) -> None:
    for i, (idxs, vals) in enumerate(dataset.X.iter_rows()):
        tokens: Iterable[str] = (
            f"{int(idx) + offset}:{_exact(val)}" for idx, val in zip(idxs, vals)
        )
        handle.write(" ".join([_exact(dataset.y[i]), *tokens]) + "\n")
