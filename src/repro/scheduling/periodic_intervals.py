"""Circular (modulo hyper-period) interval arithmetic for strict periodicity.

A strictly periodic task whose first instance starts at ``S`` occupies the
processor during ``[S + k·T, S + k·T + E)`` for every ``k ∈ ℕ``.  Over the
infinite horizon this busy pattern is periodic with the hyper-period ``H``
(the LCM of all periods): the steady-state occupancy of a processor is a set
of intervals **on a circle of circumference H**.  Two tasks can share a
processor without ever colliding — in any hyper-period, present or future —
exactly when their circular patterns do not overlap.

This module provides the small amount of circular-interval arithmetic needed
by the initial scheduler (finding a start time whose pattern avoids the
already-placed patterns) and by the feasibility checker (verifying that a
complete schedule can repeat every hyper-period forever):

* :func:`circular_overlap` — do two circular intervals intersect?
* :func:`clearing_shift` — smallest forward shift of an interval that clears
  another one;
* :func:`pattern_offsets` — the circular offsets occupied by a strictly
  periodic task;
* :func:`split_wrapping` — normalise a circular interval into linear pieces.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.epsilon import EPSILON
from repro.errors import SchedulingError

__all__ = [
    "EPSILON",
    "circular_overlap",
    "clearing_shift",
    "normalize_pieces",
    "pattern_offsets",
    "split_wrapping",
    "patterns_conflict",
]

#: Resolution of the circular arithmetic: intervals shorter than this are
#: treated as empty *everywhere* — :func:`circular_overlap` never reports a
#: sub-epsilon intersection and :func:`split_wrapping` never emits a
#: sub-epsilon piece.  The canonical value lives in :mod:`repro.epsilon`
#: (re-exported here for the historical import path); the conflict engine
#: and the feasibility checker see this same constant, so the clamp/wrap
#: decision at the period boundary and the overlap tests always apply one
#: rule.
_EPS = EPSILON


def _check(period: float) -> None:
    if period <= 0:
        raise SchedulingError(f"Circular period must be positive, got {period}")


def circular_overlap(
    a_start: float, a_length: float, b_start: float, b_length: float, period: float
) -> bool:
    """``True`` when the circular intervals ``[a, a+la)`` and ``[b, b+lb)`` intersect.

    Zero-length intervals never overlap anything.  Intervals longer than the
    period trivially overlap everything non-empty.
    """
    _check(period)
    if a_length <= _EPS or b_length <= _EPS:
        return False
    if a_length >= period - _EPS or b_length >= period - _EPS:
        return True
    x = (a_start - b_start) % period
    if x < b_length - _EPS:
        return True
    y = (b_start - a_start) % period
    return y < a_length - _EPS


def clearing_shift(
    a_start: float, a_length: float, b_start: float, b_length: float, period: float
) -> float:
    """Smallest ``δ >= 0`` such that ``[a+δ, a+δ+la)`` no longer intersects ``[b, b+lb)``.

    Returns ``0.0`` when the intervals already do not overlap.  Raises when no
    shift can separate them (an interval at least as long as the period).
    """
    _check(period)
    if not circular_overlap(a_start, a_length, b_start, b_length, period):
        return 0.0
    if a_length + b_length >= period - _EPS:
        raise SchedulingError(
            "Cannot separate two circular intervals whose total length reaches the period"
        )
    x = (a_start - b_start) % period
    return (b_length - x) % period


def pattern_offsets(
    first_start: float, task_period: int, count: int, hyper_period: int
) -> list[float]:
    """Circular start offsets of the ``count`` instances of a strictly periodic task."""
    _check(hyper_period)
    if task_period <= 0:
        raise SchedulingError(f"Task period must be positive, got {task_period}")
    if count < 0:
        raise SchedulingError(f"Instance count must be non-negative, got {count}")
    return [float((first_start + k * task_period) % hyper_period) for k in range(count)]


def normalize_pieces(
    start: float, length: float, period: float
) -> tuple[tuple[float, float], ...]:
    """Canonical linear pieces of a circular interval, as a tuple.

    The single normalisation rule shared by :func:`split_wrapping` and the
    occupancy-timeline fast path: an interval
    crossing the period boundary always wraps, and any resulting piece
    shorter than :data:`EPSILON` is dropped.  Returning a tuple keeps the
    hot paths allocation-light (no intermediate list plus filter pass).
    """
    _check(period)
    if length <= _EPS:
        return ()
    if length >= period - _EPS:
        return ((0.0, float(period)),)
    begin = start % period
    end = begin + length
    if end > period:
        keep_first = period - begin > _EPS
        keep_second = end - period > _EPS
        if keep_first and keep_second:
            return ((begin, float(period)), (0.0, end - period))
        if keep_first:
            return ((begin, float(period)),)
        if keep_second:
            return ((0.0, end - period),)
        return ()
    if end - begin > _EPS:
        return ((begin, end),)
    return ()


def split_wrapping(start: float, length: float, period: float) -> list[tuple[float, float]]:
    """Normalise a circular interval into 1 or 2 linear ``[start, end)`` pieces in ``[0, period)``.

    Boundary rule (shared with :func:`circular_overlap` through
    :data:`EPSILON`): an interval crossing the period boundary always wraps,
    and any resulting piece shorter than :data:`EPSILON` is dropped — the
    overlap tests are blind to sub-epsilon intervals, so emitting them would
    only create clamp-versus-wrap asymmetry at the boundary.  Previously an
    interval ending within ``EPSILON`` *past* the period was clamped while
    one ending just beyond wrapped, so the two sides of that knife edge were
    normalised by different rules.  Delegates to :func:`normalize_pieces`.
    """
    return list(normalize_pieces(start, length, period))


def patterns_conflict(
    pattern_a: Iterable[tuple[float, float]],
    pattern_b: Iterable[tuple[float, float]],
    period: float,
) -> bool:
    """``True`` when any interval of pattern A intersects any interval of pattern B.

    Patterns are iterables of ``(start, length)`` circular intervals.  Useful
    for small patterns; the feasibility checker uses a sweep instead for whole
    processors.
    """
    list_b = list(pattern_b)
    for a_start, a_length in pattern_a:
        for b_start, b_length in list_b:
            if circular_overlap(a_start, a_length, b_start, b_length, period):
                return True
    return False
