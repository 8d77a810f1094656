"""Property suite for the occupancy timeline and the scheduler's probe kernel.

* ``normalize_pieces`` is the one canonical boundary rule — ``split_wrapping``
  delegates to it and the ``overlaps`` fast path can no longer drift from it
  (the inlined clamp used to disagree on sub-epsilon wrap pieces);
* ``OccupancyTimeline.extend`` equals sequential ``add`` (the O(n²)-seeding
  bugfix);
* ``remove`` matches within EPSILON (the exact-float ulp bugfix);
* random ``add``/``extend``/``remove`` sequences agree with a brute-force
  reference and keep ``_prefix_max`` the running maximum of ``_ends`` — the
  invariant the early exits of ``add`` and ``remove`` rely on;
* ``clearing_shift_batch`` (dense *and* windowed) equals the scheduler's
  pure-Python reference scan, including the inseparable-intervals error;
* the tiny E6/E7 tables are pinned byte for byte.
"""

from __future__ import annotations

import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.kernels import clearing_shift_batch
from repro.core.occupancy import OccupancyTimeline
from repro.epsilon import EPSILON
from repro.errors import SchedulingError
from repro.experiments import (
    AblationConfig,
    ComparisonConfig,
    run_e6_baseline_comparison,
    run_e7_ablation,
)
from repro.scheduling.periodic_intervals import (
    circular_overlap,
    clearing_shift,
    normalize_pieces,
    split_wrapping,
)

# Offsets that exercise the period boundary, sub-epsilon residues and plain
# interior positions (period 10 in most scalar tests below).
_BOUNDARY_OFFSETS = st.one_of(
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [0.0, 10.0, 10.0 - 1e-12, 10.0 + 1e-12, 9.999999999, 1e-12, 5.0 - 1e-10]
    ),
)
_LENGTHS = st.one_of(
    st.floats(min_value=0.0, max_value=12.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1e-12, EPSILON, 10.0, 10.0 - 1e-12, 9.999999999]),
)


def _slow_overlaps(
    pieces: list[tuple[float, float, object]],
    offset: float,
    length: float,
    period: float,
    exclude: frozenset = frozenset(),
) -> bool:
    """Brute-force ``overlaps``: a linear scan over ``(start, end, owner)`` pieces.

    The query is normalised through ``split_wrapping`` — the pre-refactor
    semantics the inlined fast path once drifted away from at the period
    boundary.
    """
    if length <= EPSILON:
        return False
    for begin, end in split_wrapping(offset, length, period):
        for piece_start, piece_end, owner in pieces:
            if (
                owner not in exclude
                and piece_end > begin + EPSILON
                and piece_start < end - EPSILON
            ):
                return True
    return False


# ----------------------------------------------------------------------
# One canonical normalisation rule
# ----------------------------------------------------------------------
class TestNormalizePieces:
    @given(offset=_BOUNDARY_OFFSETS, length=_LENGTHS)
    @settings(max_examples=300, deadline=None)
    def test_split_wrapping_delegates(self, offset: float, length: float) -> None:
        assert split_wrapping(offset, length, 10) == list(
            normalize_pieces(offset, length, 10)
        )

    @given(
        offset=_BOUNDARY_OFFSETS,
        length=_LENGTHS,
        stored=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=19.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=9.0, allow_nan=False),
            ),
            max_size=6,
        ),
    )
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_overlaps_fast_path_equals_split_wrapping_path(
        self,
        offset: float,
        length: float,
        stored: list[tuple[float, float]],
    ) -> None:
        """The query fast path answers exactly what the slow path would."""
        timeline = OccupancyTimeline(10)
        for piece_offset, piece_length in stored:
            timeline.add(piece_offset, piece_length)
        assert timeline.overlaps(offset, length) == _slow_overlaps(
            timeline.intervals(), offset, length, 10
        )


# ----------------------------------------------------------------------
# Bulk seeding equals sequential insertion
# ----------------------------------------------------------------------
def _canon(intervals: list[tuple[float, float, object]]):
    """Intervals as a canonically ordered multiset.

    Bulk ``extend`` (stable sort) and sequential ``add`` (``bisect_left``
    insertion) order *equal-start* pieces differently; every query is
    order-independent among ties, so equivalence is multiset equality.
    """
    return sorted(intervals, key=lambda piece: (piece[0], piece[1], str(piece[2])))


class TestExtendBulk:
    def _random_items(self, rng: random.Random, count: int):
        return [
            (rng.uniform(0, 30), rng.uniform(0, 12), rng.choice(["a", "b", None]))
            for _ in range(count)
        ]

    @pytest.mark.parametrize("factory", [OccupancyTimeline])
    def test_extend_equals_sequential_add(self, factory) -> None:
        rng = random.Random(1207)
        for trial in range(25):
            items = self._random_items(rng, rng.randrange(0, 20))
            bulk, sequential = factory(15), factory(15)
            bulk.extend(items)
            for offset, length, owner in items:
                sequential.add(offset, length, owner)
            assert _canon(bulk.intervals()) == _canon(sequential.intervals()), f"trial {trial}"
            assert bulk.busy_time == sequential.busy_time
            for _query in range(20):
                offset, length = rng.uniform(0, 30), rng.uniform(0, 10)
                assert bulk.overlaps(offset, length) == sequential.overlaps(offset, length)

    @pytest.mark.parametrize("factory", [OccupancyTimeline])
    def test_extend_into_populated_timeline(self, factory) -> None:
        rng = random.Random(42)
        bulk, sequential = factory(15), factory(15)
        for offset, length, owner in self._random_items(rng, 10):
            bulk.add(offset, length, owner)
            sequential.add(offset, length, owner)
        items = self._random_items(rng, 12)
        bulk.extend(items)
        for offset, length, owner in items:
            sequential.add(offset, length, owner)
        assert _canon(bulk.intervals()) == _canon(sequential.intervals())

    @pytest.mark.parametrize("factory", [OccupancyTimeline])
    def test_empty_extend_is_a_no_op(self, factory) -> None:
        timeline = factory(10)
        timeline.add(1.0, 2.0, "a")
        before = timeline.intervals()
        timeline.extend([])
        timeline.extend([(3.0, 0.0, "b")])  # zero-length normalises away
        assert timeline.intervals() == before

    def test_queries_after_extend(self) -> None:
        """The rebuilt prefix maximum still answers queries correctly."""
        rng = random.Random(7)
        items = self._random_items(rng, 15)
        timeline = OccupancyTimeline(20)
        timeline.extend(items)
        reference = OccupancyTimeline(20)
        for offset, length, owner in items:
            reference.add(offset, length, owner)
        for _ in range(50):
            offset, length = rng.uniform(0, 25), rng.uniform(0, 8)
            assert timeline.overlaps(offset, length) == reference.overlaps(offset, length)


# ----------------------------------------------------------------------
# Epsilon-matched removal (the exact-float ulp bugfix)
# ----------------------------------------------------------------------
class TestRemoveEpsilonMatched:
    @pytest.mark.parametrize("factory", [OccupancyTimeline])
    def test_remove_matches_within_an_ulp(self, factory) -> None:
        """``shift()`` recomputes offsets via %-arithmetic; the recomputed
        value can land an ulp away from what was stored.  0.1 + 0.2 differs
        from 0.3 by ~5.6e-17 — far below EPSILON, so removal must succeed."""
        recomputed = 0.1 + 0.2
        assert recomputed != 0.3 and abs(recomputed - 0.3) <= EPSILON
        timeline = factory(10)
        timeline.add(0.3, 2.0, "t")
        timeline.remove(recomputed, 2.0, "t")
        assert timeline.intervals() == []

    @pytest.mark.parametrize("factory", [OccupancyTimeline])
    def test_remove_beyond_epsilon_diverges(self, factory) -> None:
        timeline = factory(10)
        timeline.add(0.3, 2.0, "t")
        with pytest.raises(SchedulingError, match="bookkeeping diverged"):
            timeline.remove(0.3 + 10 * EPSILON, 2.0, "t")

    @pytest.mark.parametrize("factory", [OccupancyTimeline])
    def test_remove_requires_matching_owner(self, factory) -> None:
        timeline = factory(10)
        timeline.add(1.0, 2.0, "a")
        with pytest.raises(SchedulingError, match="bookkeeping diverged"):
            timeline.remove(1.0, 2.0, "b")
        timeline.remove(1.0, 2.0, "a")
        assert len(timeline) == 0

    @pytest.mark.parametrize("factory", [OccupancyTimeline])
    def test_shift_round_trip_through_modulo_arithmetic(self, factory) -> None:
        """The balancer's shift pattern: store x % H, remove (x + H) % H."""
        period = 7
        timeline = factory(period)
        for k in range(1, 30):
            offset = (0.1 * k) % period
            timeline.add(offset, 0.05, f"t{k}")
        for k in range(1, 30):
            timeline.remove((0.1 * k + 3 * period) % period, 0.05, f"t{k}")
        assert len(timeline) == 0


# ----------------------------------------------------------------------
# OccupancyTimeline against a brute-force reference
# ----------------------------------------------------------------------
class TestTimelineAgainstReference:
    def test_random_operation_sequences(self) -> None:
        """Random add/extend/remove sequences against a linear-scan reference.

        After every operation the timeline holds the reference's pieces,
        answers every query (wrapping, zero-length, full-period, owner
        exclusion) like the brute-force scan, and keeps ``_prefix_max`` the
        running maximum of ``_ends`` — the early exits of ``add`` and
        ``remove`` stop their repair loops on exactly that invariant.
        """
        rng = random.Random(2008)
        owners = ["a", "b", "c", None]
        for trial in range(60):
            period = rng.choice([5, 10, 16])
            timeline = OccupancyTimeline(period)
            live: list[tuple[float, float, object]] = []
            for _step in range(rng.randrange(1, 30)):
                action = rng.random()
                if action < 0.5 or not live:
                    offset = rng.uniform(0, 2 * period)
                    length = rng.choice(
                        [0.0, rng.uniform(0, period / 3), period, rng.uniform(0, period)]
                    )
                    owner = rng.choice(owners)
                    timeline.add(offset, length, owner)
                    live.append((offset, length, owner))
                elif action < 0.65:
                    items = [
                        (rng.uniform(0, period), rng.uniform(0, period / 2), rng.choice(owners))
                        for _ in range(rng.randrange(0, 5))
                    ]
                    timeline.extend(items)
                    live.extend(items)
                else:
                    offset, length, owner = live.pop(rng.randrange(len(live)))
                    timeline.remove(offset, length, owner)
                pieces = [
                    (begin, end, owner)
                    for offset, length, owner in live
                    for begin, end in split_wrapping(offset, length, period)
                ]
                assert _canon(timeline.intervals()) == _canon(pieces), f"trial {trial}"
                assert timeline._prefix_max == list(accumulate(timeline._ends, max))
                for _query in range(5):
                    query = (
                        rng.uniform(0, 2 * period),
                        rng.choice([rng.uniform(0, period), 0.0, float(period)]),
                    )
                    exclude = frozenset(rng.sample(owners, rng.randrange(0, 3)))
                    assert timeline.overlaps(*query, exclude) == _slow_overlaps(
                        pieces, *query, period, exclude
                    ), f"trial {trial} query {query} exclude {exclude}"

    def test_unknown_excluded_owner_is_ignored(self) -> None:
        timeline = OccupancyTimeline(10)
        timeline.add(1.0, 2.0, "a")
        assert timeline.overlaps(1.0, 2.0, frozenset({"never-seen"}))
        assert not timeline.overlaps(1.0, 2.0, frozenset({"a"}))


# ----------------------------------------------------------------------
# The scheduler's clearing-shift kernel
# ----------------------------------------------------------------------
def _reference_clearing_shift(
    offsets: list[float],
    length: float,
    busy: list[tuple[float, float]],
    period: float,
) -> float:
    """The scheduler's pure-Python first-conflict scan (row-major order)."""
    for offset in offsets:
        for busy_offset, busy_length in busy:
            if circular_overlap(offset, length, busy_offset, busy_length, period):
                return clearing_shift(offset, length, busy_offset, busy_length, period)
    return 0.0


class TestClearingShiftBatch:
    @given(
        offsets=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False), max_size=5
        ),
        length=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        busy=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
            ),
            max_size=6,
        ),
    )
    @settings(
        max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_dense_and_windowed_match_the_reference(
        self,
        offsets: list[float],
        length: float,
        busy: list[tuple[float, float]],
    ) -> None:
        period = 10.0
        busy = sorted(busy)  # the kernel requires ascending stored starts
        offset_arr = np.asarray(offsets, dtype=np.float64)
        busy_starts = np.asarray([b[0] for b in busy], dtype=np.float64)
        busy_lengths = np.asarray([b[1] for b in busy], dtype=np.float64)
        max_busy = float(busy_lengths.max()) if busy else 0.0

        def outcome(run):
            try:
                return ("ok", run())
            except SchedulingError:
                return ("raises", None)

        expected = outcome(lambda: _reference_clearing_shift(offsets, length, busy, period))
        dense = outcome(
            lambda: clearing_shift_batch(
                offset_arr, length, busy_starts, busy_lengths, period
            )
        )
        windowed = outcome(
            lambda: clearing_shift_batch(
                offset_arr,
                length,
                busy_starts,
                busy_lengths,
                period,
                max_busy_length=max_busy,
            )
        )
        assert dense == expected
        assert windowed == expected

    def test_trivial_inputs(self) -> None:
        empty = np.asarray([], dtype=np.float64)
        some = np.asarray([1.0], dtype=np.float64)
        assert clearing_shift_batch(some, 0.0, some, some, 10.0) == 0.0
        assert clearing_shift_batch(empty, 1.0, some, some, 10.0) == 0.0
        assert clearing_shift_batch(some, 1.0, empty, empty, 10.0) == 0.0

    def test_inseparable_intervals_raise_like_the_scalar_helper(self) -> None:
        offsets = np.asarray([0.0], dtype=np.float64)
        busy_starts = np.asarray([1.0], dtype=np.float64)
        busy_lengths = np.asarray([6.0], dtype=np.float64)
        with pytest.raises(SchedulingError):
            clearing_shift_batch(offsets, 6.0, busy_starts, busy_lengths, 10.0)
        with pytest.raises(SchedulingError):
            clearing_shift_batch(
                offsets, 6.0, busy_starts, busy_lengths, 10.0, max_busy_length=6.0
            )


# ----------------------------------------------------------------------
# Whole experiments: the tiny E6/E7 tables, byte for byte
# ----------------------------------------------------------------------
_E6_TINY_TABLE = "\n".join(
    [
        "strategy                  makespan  gain  max memory ω  mem imbalance  load imbalance  feasible  overflows/run",
        "------------------------  --------  ----  ------------  -------------  --------------  --------  -------------",
        "initial (no balancing)        98.8     0          65.7           1.45            1.16      100%              1",
        "proposed (ratio)              98.8     0          52.5           1.16            1.49      100%              0",
        "proposed (lexicographic)      98.8     0          56.4           1.24            1.49      100%              0",
        "load-only (memory-blind)      98.8     0          52.5           1.16            1.39      100%              0",
        "memory-only (Theorem 2)       98.8     0          52.5           1.16            1.15      100%              0",
        "proposed (conservative)         79  19.8          57.7           1.27            1.36      100%              0",
        "LPT assignment                98.8     0          58.5           1.29               1        0%              0",
        "FFD memory packing            98.8     0          46.2           1.02            1.43        0%              0",
        "genetic assignment            98.8     0          46.1           1.01             1.1        0%              0",
    ]
)
_E7_TINY_TABLE = "\n".join(
    [
        "variant                         mean gain  mean max memory  mean moves  feasible",
        "------------------------------  ---------  ---------------  ----------  --------",
        "ratio (default)                         0             52.5          12      100%",
        "ratio strict (eq. 5 literal)            0             52.5          12      100%",
        "lexicographic (as exemplified)          0             56.4          13      100%",
        "no LCM condition                        0             52.5          12      100%",
        "no steady-state check                   0             52.1           9      100%",
        "safe mode (protect all)              19.8             57.7           6      100%",
    ]
)


class TestExperimentTables:
    def test_tiny_e6_e7_tables_are_pinned(self) -> None:
        """Every balancer decision feeds these tables; a refactor of the
        conflict engine must leave them unchanged to the byte."""
        assert run_e6_baseline_comparison(ComparisonConfig.tiny()).table == _E6_TINY_TABLE
        assert run_e7_ablation(AblationConfig.tiny()).table == _E7_TINY_TABLE
