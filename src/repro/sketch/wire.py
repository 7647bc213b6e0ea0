"""Column forms of the sketch-path wire frames.

A sketch frame (:meth:`~repro.sketch.SketchBatch.to_frame`) and a
candidate frame (:meth:`~repro.sketch.CandidateSet.to_frame`) are a short
header and then *columns*: flat arrays whose element count ``n`` the
parser already knows, from the header or from an earlier column.  A
column travels as one form byte and the form's payload.  The sender
takes, among the forms the column admits, the shortest that gives the
array back bit for bit (ties: the first admitted), so the flag telling
the parser what it reads costs one byte a column:

==========  ===================  ===========================================
form        payload              holds
==========  ===================  ===========================================
``ZERO``    nothing              ``n`` zeros (every bit 0, so not ``-0.0``)
``CONST``   one float64          ``n`` copies of one float
``ARANGE``  one int64            ``first, first + 1, ..., first + n - 1``
``U8``      ``n`` bytes          integers in ``[0, 2**8)``
``U16``     ``2n`` bytes         integers in ``[0, 2**16)``
``U32``     ``4n`` bytes         integers in ``[0, 2**32)``
``I64``     ``8n`` bytes         any int64
``F32``     ``4n`` bytes         floats a float32 round trip keeps
``F64``     ``8n`` bytes         any float64
==========  ===================  ===========================================

A :class:`Column` names the forms a column admits and the dtype it is
parsed into.  The frames admit ``ZERO``, ``CONST`` and ``ARANGE`` only
for columns whose length an explicit column has already paid for, so a
frame of ``b`` bytes can never make its parser allocate much more than
``8 b`` bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import SketchError

ZERO, CONST, ARANGE, U8, U16, U32, I64, F32, F64 = range(9)

_EXPLICIT = {
    U8: np.dtype(np.uint8),
    U16: np.dtype(np.uint16),
    U32: np.dtype(np.uint32),
    I64: np.dtype(np.int64),
    F32: np.dtype(np.float32),
    F64: np.dtype(np.float64),
}
_UNSIGNED = (U8, U16, U32)

#: Bound on the first id of an ``ARANGE`` column: the ids it expands to
#: stay inside int64 for any ``n`` below 2**31.
_ARANGE_LIMIT = 2**62


@dataclass(frozen=True)
class Column:
    """The forms a column admits and the dtype it is parsed into."""

    forms: tuple[int, ...]
    dtype: np.dtype


_INTEGERS = (U8, U16, U32, I64)

#: Strictly increasing ids: one first id when they are contiguous.
IDS = Column((ARANGE, *_INTEGERS), np.dtype(np.int64))
#: Counts, one a summary or a feature.
COUNTS = Column(_INTEGERS, np.dtype(np.int64))
#: Integer ranks: a column of zeros costs nothing.
RANKS = Column((ZERO, *_INTEGERS), np.dtype(np.int64))
#: Floats, at float32 when that is exact.
FLOATS = Column((F32, F64), np.dtype(np.float64))
#: Floats that are often one value repeated.
UNIFORM_FLOATS = Column((CONST, F32, F64), np.dtype(np.float64))
#: Float ranks: a column of zeros costs nothing.
FLOAT_RANKS = Column((ZERO, F32, F64), np.dtype(np.float64))


def unsigned_dtype(maximum: int) -> np.dtype:
    """The narrowest unsigned dtype holding every integer in ``[0, maximum]``."""
    for form in _UNSIGNED:
        if maximum <= np.iinfo(_EXPLICIT[form]).max:
            return _EXPLICIT[form]
    return np.dtype(np.uint64)


def _payload_bytes(form: int, n: int) -> int:
    if form == ZERO:
        return 0
    if form in (CONST, ARANGE):
        return 8
    return _EXPLICIT[form].itemsize * n


def _fit(form: int, column: np.ndarray) -> np.ndarray | None:
    """``column`` (int64 or float64) as ``form``'s payload, or None when
    ``form`` cannot give it back bit for bit."""
    n, floats = len(column), column.dtype == np.float64
    if form == ZERO:
        return column[:0] if not column.view(np.uint8).any() else None
    if floats != (form in (CONST, F32, F64)):
        return None
    if form == CONST:
        bits = column.view(np.uint64)
        return column[:1] if n and np.all(bits == bits[0]) else None
    if form == ARANGE:
        if n == 0 or not -_ARANGE_LIMIT < int(column[0]) < _ARANGE_LIMIT:
            return None
        return column[:1] if np.all(np.diff(column) == 1) else None
    if form in _UNSIGNED:
        top = np.iinfo(_EXPLICIT[form]).max
        if n and not (0 <= column.min() and column.max() <= top):
            return None
        return column.astype(_EXPLICIT[form])
    if form == F32:
        with np.errstate(over="ignore", invalid="ignore"):
            narrow = column.astype(np.float32)
        back = narrow.astype(np.float64).view(np.uint64)
        return narrow if np.array_equal(back, column.view(np.uint64)) else None
    return column


def pack(column: np.ndarray, spec: Column) -> tuple[bytes, np.ndarray]:
    """``column``'s form byte and payload, in the shortest form ``spec``
    admits that gives it back bit for bit.

    Raises:
        SketchError: No admitted form holds the column (a float column
            where integers are due, say).
    """
    column = np.ascontiguousarray(column)
    if column.dtype in (np.int64, np.float64):
        n = len(column)
        for form in sorted(spec.forms, key=lambda form: _payload_bytes(form, n)):
            payload = _fit(form, column)
            if payload is not None:
                return bytes((form,)), payload
    raise SketchError(
        f"no wire form among {spec.forms} holds a {column.dtype} column"
    )


class FrameReader:
    """Reads one frame front to back; every failure is a :class:`SketchError`.

    ``what`` names the frame in error messages.
    """

    def __init__(self, payload: bytes, what: str) -> None:
        self.payload = payload
        self.at = 0
        self.what = what

    def remaining(self) -> int:
        """Bytes not yet read."""
        return len(self.payload) - self.at

    def struct(self, layout: struct.Struct) -> tuple:
        """The next ``layout.size`` bytes, unpacked."""
        if self.remaining() < layout.size:
            raise SketchError(f"{self.what} too short ({len(self.payload)} bytes)")
        out = layout.unpack_from(self.payload, self.at)
        self.at += layout.size
        return out

    def raw(self, dtype: np.dtype, n: int) -> np.ndarray:
        """The next ``n`` elements of ``dtype``: a read-only view."""
        n = int(n)
        size = np.dtype(dtype).itemsize * n
        if n < 0 or self.remaining() < size:
            raise SketchError(
                f"{self.what} of {len(self.payload)} bytes cannot hold {n} more "
                f"{np.dtype(dtype).name} values"
            )
        out = np.frombuffer(self.payload, dtype, n, self.at)
        self.at += size
        return out

    def column(self, n: int, spec: Column) -> np.ndarray:
        """The next column of ``n`` elements, in ``spec.dtype`` (a
        read-only view of the payload when it travelled in that dtype)."""
        form = int(self.raw(np.uint8, 1)[0])
        if form not in spec.forms:
            raise SketchError(
                f"{self.what} column in form {form}, not one of {spec.forms}"
            )
        if form == ZERO:
            return np.zeros(n, spec.dtype)
        if form == CONST:
            return np.repeat(self.raw(np.float64, 1), n)
        if form == ARANGE:
            first = int(self.raw(np.int64, 1)[0])
            if not -_ARANGE_LIMIT < first < _ARANGE_LIMIT or n >= 2**31:
                raise SketchError(f"{self.what} id run from {first} out of range")
            return np.arange(first, first + n, dtype=np.int64)
        # A hostile float32 signalling NaN widens to a quiet one, which
        # the frame's validator refuses like any NaN.
        with np.errstate(invalid="ignore"):
            return self.raw(_EXPLICIT[form], n).astype(spec.dtype, copy=False)

    def end(self) -> None:
        """Check that the frame held nothing past what was read."""
        if self.at != len(self.payload):
            raise SketchError(
                f"{self.what} has {len(self.payload)} bytes, expected {self.at}"
            )
