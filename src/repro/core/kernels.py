"""The initial scheduler's vectorised pattern-probe kernel.

:func:`clearing_shift_batch` computes the first-conflict clearing shift of a
candidate task pattern against a processor's busy pieces, evaluated as one
(count × pieces) matrix instead of nested Python loops.  Its elementwise
overlap test applies the same :data:`repro.epsilon.EPSILON` rules as
:func:`repro.scheduling.periodic_intervals.circular_overlap`, and float64
numpy arithmetic (``%``, comparisons) is bit-identical to Python floats, so
the kernel answers exactly what the scheduler's pure-Python reference scan
would; ``tests/test_kernels.py`` pins that equivalence.

The balancer's steady-state conflict engine lives in
:mod:`repro.core.occupancy`.
"""

from __future__ import annotations

import numpy as np

from repro.core.occupancy import ConflictEngine
from repro.scheduling.periodic_intervals import EPSILON as _EPS
from repro.scheduling.periodic_intervals import clearing_shift

__all__ = ["clearing_shift_batch"]


# Never instantiated: the only reader is the layer-probe list of perfbench/common.py.
class ArrayConflictEngine(ConflictEngine):
    pass


def _first_overlap_in(
    offset: float,
    length: float,
    busy_starts: np.ndarray,
    busy_lengths: np.ndarray,
    period: float,
) -> int:
    """Index of the first stored piece overlapping ``offset`` (or -1).

    ``length > EPSILON`` is the caller's responsibility; the elementwise
    test is exactly :func:`circular_overlap` over the given column slice.
    """
    if busy_starts.size == 0:
        return -1
    valid = busy_lengths > _EPS
    overlap = valid & (
        (length >= period - _EPS)
        | (busy_lengths >= period - _EPS)
        | (np.mod(offset - busy_starts, period) < busy_lengths - _EPS)
        | (np.mod(busy_starts - offset, period) < length - _EPS)
    )
    first = int(overlap.argmax())
    return first if overlap[first] else -1


def clearing_shift_batch(
    offsets: np.ndarray,
    length: float,
    busy_starts: np.ndarray,
    busy_lengths: np.ndarray,
    period: float,
    max_busy_length: float | None = None,
) -> float:
    """First-conflict clearing shift of a candidate pattern, vectorised.

    Mirrors the initial scheduler's reference scan exactly: rows are the
    pattern offsets in instance order, columns the busy pieces in stored
    order (ascending start), and the first overlapping pair in row-major
    order determines the shift (computed by the scalar
    :func:`repro.scheduling.periodic_intervals.clearing_shift`, preserving
    its inseparable-intervals :class:`SchedulingError`).  Returns ``0.0``
    when no pair overlaps.  The elementwise overlap test applies the same
    :data:`EPSILON` rules as :func:`circular_overlap`.

    When ``busy_starts`` is sorted ascending and ``max_busy_length`` bounds
    every busy length, the scan is windowed: a piece at ``b`` can only
    overlap the candidate at ``o`` when ``b`` lies in the circular interval
    ``(o - max_busy_length - EPSILON, o + length)``, so each row reduces to
    (at most two) ``searchsorted`` slices instead of all ``n`` columns.
    The windowed and dense paths return identical results (pinned by the
    property suite); the window only prunes pieces the dense test would
    reject anyway.
    """
    if length <= _EPS or offsets.size == 0 or busy_starts.size == 0:
        return 0.0
    n = busy_starts.size
    window = (
        max_busy_length + length + 2.0 * _EPS if max_busy_length is not None else None
    )
    if window is None or window >= period:
        # Dense scan: every (instance, piece) pair in row-major order.
        busy_valid = busy_lengths > _EPS
        trivially = busy_valid & (
            (length >= period - _EPS) | (busy_lengths >= period - _EPS)
        )
        x = np.mod(offsets[:, None] - busy_starts[None, :], period)
        y = np.mod(busy_starts[None, :] - offsets[:, None], period)
        overlap = busy_valid[None, :] & (
            trivially[None, :]
            | (x < (busy_lengths - _EPS)[None, :])
            | (y < length - _EPS)
        )
        flat = overlap.ravel()
        first = int(flat.argmax())
        if not flat[first]:
            return 0.0
        row, col = divmod(first, n)
        return clearing_shift(
            float(offsets[row]),
            length,
            float(busy_starts[col]),
            float(busy_lengths[col]),
            period,
        )

    assert max_busy_length is not None
    for row in range(offsets.size):
        offset = float(offsets[row])
        low = (offset - max_busy_length - _EPS) % period
        high = (offset + length) % period
        if low <= high:
            lo_index = int(np.searchsorted(busy_starts, low, side="left"))
            hi_index = int(np.searchsorted(busy_starts, high, side="right"))
            segments = ((lo_index, hi_index),)
        else:
            # The window wraps: ascending stored order visits the
            # low-offset segment first.
            hi_index = int(np.searchsorted(busy_starts, high, side="right"))
            lo_index = int(np.searchsorted(busy_starts, low, side="left"))
            segments = ((0, hi_index), (lo_index, n))
        for begin, stop in segments:
            if begin >= stop:
                continue
            col = _first_overlap_in(
                offset,
                length,
                busy_starts[begin:stop],
                busy_lengths[begin:stop],
                period,
            )
            if col >= 0:
                col += begin
                return clearing_shift(
                    offset,
                    length,
                    float(busy_starts[col]),
                    float(busy_lengths[col]),
                    period,
                )
    return 0.0
