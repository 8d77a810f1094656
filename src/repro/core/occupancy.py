"""Incremental steady-state occupancy index (the conflict engine).

Every steady-state acceptance decision of the load balancer boils down to the
same question: *does this circular busy pattern intersect what is already on
the processor?*  The original implementation re-derived the reserved pattern
list from scratch for every ``(block, processor)`` candidate, making each
query linear in the number of instances already placed — quadratic over a
whole balancing run.

This module keeps, per processor, a persistent **occupancy timeline**: the
circular busy intervals modulo the hyper-period, normalised into linear
pieces and stored sorted by start together with a running prefix maximum of
the piece end times.  With that structure an overlap query is a binary search
(``O(log n)`` plus the overlapping pieces actually hit) and an accepted move
is an incremental update instead of a recomputation.

Two timelines are kept per processor (mirroring the two reserved-pattern
sources of the balancer):

* the **moved** timeline — patterns of the blocks already moved to the
  processor (grown by :meth:`ConflictEngine.occupy`, never shrunk);
* the **resident** timeline — the current slots of the not-yet-processed
  blocks sitting on the processor (seeded from the initial schedule, shrunk
  by :meth:`ConflictEngine.release` as blocks get processed and shifted by
  :meth:`ConflictEngine.shift` when a category-1 gain propagates).

The incremental-update invariant (checked move-for-move against the
from-scratch computation by ``LoadBalancerOptions.cross_check`` and by the
property suite) is documented in ``DESIGN.md`` §3.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable

from repro.errors import SchedulingError
from repro.scheduling.periodic_intervals import EPSILON as _EPS
from repro.scheduling.periodic_intervals import normalize_pieces

__all__ = ["OccupancyTimeline", "ConflictEngine"]


class OccupancyTimeline:
    """Sorted circular interval set over one period, with ``O(log n)`` queries.

    Intervals are added as circular ``(offset, length)`` pairs, normalised by
    :func:`repro.scheduling.periodic_intervals.split_wrapping` into linear
    ``[start, end)`` pieces inside ``[0, period)``.  Pieces carry an optional
    ``owner`` tag (the balancer stores the task name) so queries can ignore
    intervals that are about to move together with the candidate.

    The structure tolerates overlapping pieces (degenerate fallback
    placements can overlap legitimately); queries therefore keep a prefix
    maximum of piece end times so the backward scan can stop as soon as no
    earlier piece can still reach the queried window.
    """

    __slots__ = ("period", "_starts", "_ends", "_owners", "_prefix_max")

    def __init__(self, period: float) -> None:
        if period <= 0:
            raise SchedulingError(f"Occupancy period must be positive, got {period}")
        self.period = float(period)
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._owners: list[object] = []
        #: ``_prefix_max[i] == max(_ends[: i + 1])`` — lets a query discard
        #: every piece left of an index in one comparison.
        self._prefix_max: list[float] = []

    def __len__(self) -> int:
        return len(self._starts)

    def intervals(self) -> list[tuple[float, float, object]]:
        """Stored ``(start, end, owner)`` pieces in start order (for tests)."""
        return list(zip(self._starts, self._ends, self._owners, strict=True))

    @property
    def busy_time(self) -> float:
        """Sum of piece lengths (double-counts overlapping pieces)."""
        return sum(e - s for s, e in zip(self._starts, self._ends, strict=True))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add(self, offset: float, length: float, owner: object = None) -> None:
        """Insert the circular interval ``[offset, offset + length)``."""
        for begin, end in normalize_pieces(offset, length, self.period):
            index = bisect_left(self._starts, begin)
            self._starts.insert(index, begin)
            self._ends.insert(index, end)
            self._owners.insert(index, owner)
            before = self._prefix_max[index - 1] if index else float("-inf")
            self._prefix_max.insert(index, max(before, end))
            for j in range(index + 1, len(self._prefix_max)):
                if self._prefix_max[j] >= end:
                    break
                self._prefix_max[j] = end

    def extend(self, items: Iterable[tuple[float, float, object]]) -> None:
        """Bulk-insert circular ``(offset, length, owner)`` intervals.

        Equivalent to calling :meth:`add` per item but built in one pass:
        all pieces (existing plus new) are merged with a single stable sort
        by start and the prefix maximum is recomputed once.  Seeding a
        timeline with ``n`` resident slots is ``O(n log n)`` this way instead
        of the ``O(n²)`` of repeated sorted-list insertion — the difference
        between seconds and minutes at stress-xl scale.
        """
        pieces = [
            (begin, end, owner)
            for offset, length, owner in items
            for begin, end in normalize_pieces(offset, length, self.period)
        ]
        if not pieces:
            return
        merged = list(zip(self._starts, self._ends, self._owners, strict=True))
        merged.extend(pieces)
        merged.sort(key=lambda piece: piece[0])
        self._starts = [piece[0] for piece in merged]
        self._ends = [piece[1] for piece in merged]
        self._owners = [piece[2] for piece in merged]
        prefix: list[float] = []
        running = float("-inf")
        for end in self._ends:
            running = max(running, end)
            prefix.append(running)
        self._prefix_max = prefix

    def remove(self, offset: float, length: float, owner: object = None) -> None:
        """Remove a previously added interval (same ``offset``/``length``/``owner``).

        Start and end are matched within :data:`repro.epsilon.EPSILON` rather
        than by exact float equality: ``shift()`` callers recompute offsets
        through ``%``-arithmetic, which can land an ulp away from the value
        originally stored.

        Raises
        ------
        SchedulingError
            When no matching piece is stored — a sign the caller's incremental
            bookkeeping diverged from the timeline's contents.
        """
        for begin, end in normalize_pieces(offset, length, self.period):
            index = bisect_left(self._starts, begin - _EPS)
            while index < len(self._starts) and self._starts[index] <= begin + _EPS:
                if abs(self._ends[index] - end) <= _EPS and self._owners[index] == owner:
                    break
                index += 1
            else:
                raise SchedulingError(
                    f"Occupancy piece [{begin:g}, {end:g}) of {owner!r} is not stored; "
                    "incremental bookkeeping diverged"
                )
            del self._starts[index]
            del self._ends[index]
            del self._owners[index]
            del self._prefix_max[index]
            # A delete can only lower the running maximum; from the first
            # index where the recomputed value equals the stored one, every
            # later entry is unchanged too (the mirror of add's early exit).
            running = self._prefix_max[index - 1] if index else float("-inf")
            for j in range(index, len(self._prefix_max)):
                running = max(running, self._ends[j])
                if self._prefix_max[j] == running:
                    break
                self._prefix_max[j] = running

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def overlaps(
        self, offset: float, length: float, exclude: frozenset | Iterable = frozenset()
    ) -> bool:
        """``True`` when the circular interval hits a stored piece.

        ``exclude`` skips pieces whose owner is in the given set (the
        balancer excludes the tasks that shift together with a candidate).
        Matches the semantics of
        :func:`repro.scheduling.periodic_intervals.circular_overlap`:
        zero-length intervals never overlap anything.
        """
        if length <= _EPS or not self._starts:
            return False
        # One canonical boundary rule for queries and stored pieces alike:
        # normalize_pieces is the same tuple-returning helper split_wrapping
        # wraps, so the query side cannot drift from the storage side at the
        # period boundary (it used to hand-roll the clamp and disagree with
        # split_wrapping on sub-epsilon wrap pieces).
        pieces = normalize_pieces(offset, length, self.period)
        starts = self._starts
        ends = self._ends
        owners = self._owners
        prefix_max = self._prefix_max
        for query_start, query_end in pieces:
            index = bisect_left(starts, query_end) - 1
            low = query_start + _EPS
            high = query_end - _EPS
            while index >= 0:
                if prefix_max[index] <= low:
                    break
                if ends[index] > low and starts[index] < high and owners[index] not in exclude:
                    return True
                index -= 1
        return False


class ConflictEngine:
    """Per-processor occupancy timelines driving steady-state acceptance.

    Owned by :class:`repro.core.conditions.BalancingState`; the load balancer
    updates it incrementally (:meth:`occupy` on accepted moves,
    :meth:`release`/:meth:`shift` as resident blocks are consumed or shifted
    by propagated gains) and queries it through :meth:`compatible` instead of
    rebuilding reserved-pattern lists per candidate.
    """

    __slots__ = ("hyper_period", "moved", "resident")

    def __init__(self, hyper_period: int, processors: Iterable[str]) -> None:
        if hyper_period <= 0:
            raise SchedulingError(
                f"Conflict engine needs a positive hyper-period, got {hyper_period}"
            )
        self.hyper_period = int(hyper_period)
        self.moved: dict[str, OccupancyTimeline] = {}
        self.resident: dict[str, OccupancyTimeline] = {}
        for name in processors:
            self.moved[name] = OccupancyTimeline(self.hyper_period)
            self.resident[name] = OccupancyTimeline(self.hyper_period)

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------
    def occupy(self, processor: str, offset: float, length: float, owner: object = None) -> None:
        """Record a pattern of a block accepted (moved) onto ``processor``."""
        self.moved[processor].add(offset, length, owner)

    def reside(self, processor: str, offset: float, length: float, owner: object) -> None:
        """Record the current slot of a not-yet-processed instance."""
        self.resident[processor].add(offset, length, owner)

    def reside_bulk(
        self, processor: str, items: Iterable[tuple[float, float, object]]
    ) -> None:
        """Record many resident slots at once (initial-schedule seeding)."""
        self.resident[processor].extend(items)

    def release(self, processor: str, offset: float, length: float, owner: object) -> None:
        """Drop a resident slot (its block is about to be processed)."""
        self.resident[processor].remove(offset, length, owner)

    def shift(
        self,
        processor: str,
        old_offset: float,
        new_offset: float,
        length: float,
        owner: object,
    ) -> None:
        """Move a resident slot (a category-1 gain shifted the instance)."""
        self.resident[processor].remove(old_offset, length, owner)
        self.resident[processor].add(new_offset, length, owner)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def compatible(
        self,
        processor: str,
        pattern: Iterable[tuple[float, float]],
        *,
        include_resident: bool = False,
        exclude: frozenset = frozenset(),
    ) -> bool:
        """Exact steady-state acceptance test against ``processor``.

        Equivalent to
        :func:`repro.core.conditions.steady_state_compatible` over the
        reserved patterns the balancer would have collected from scratch:
        the moved timeline always counts; the resident timeline counts when
        ``include_resident`` (``protect_unmoved`` mode, shift-safety and the
        safe fallback), minus the slots owned by ``exclude`` tasks.
        """
        moved = self.moved[processor]
        resident = self.resident[processor] if include_resident else None
        for offset, length in pattern:
            if moved.overlaps(offset, length):
                return False
            if resident is not None and resident.overlaps(offset, length, exclude):
                return False
        return True

    def compatible_batch(
        self,
        processors: Iterable[str],
        pattern: Iterable[tuple[float, float]],
        *,
        include_resident: bool = False,
        exclude: frozenset = frozenset(),
    ) -> dict[str, bool]:
        """:meth:`compatible` over many processors (one verdict per name).

        A plain loop over :meth:`compatible`; the balancer's safe fallback
        asks it for the whole processor list in one call.
        """
        fixed = list(pattern)
        return {
            name: self.compatible(
                name, fixed, include_resident=include_resident, exclude=exclude
            )
            for name in processors
        }
