"""Eligibility rules and the Block/LCM condition (eq. (4) of the paper).

Two gating rules restrict which processors a block may be moved to:

* **eligibility** — the heuristic "computes the cost function λ for the
  processors whose end time of the last block scheduled on these processors
  is less or equal to the start time of the block" (section 3.2).  In other
  words, a processor already busy (with blocks moved so far) beyond the
  block's current start time is not considered;
* **Block condition / LCM condition** — eq. (4): once blocks are moved to a
  processor, the schedule on that processor must still fit within one
  hyper-period of its first block so that the next hyper-period's repetition
  of that first block is not delayed: ``S_B + E_B <= S_A + LCM`` where ``A``
  is the first block moved to the processor.

Both rules are pure functions of the running :class:`BalancingState`, kept in
this module so that they can be unit-tested (and disabled) independently of
the main loop.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.blocks import Block
from repro.core.occupancy import ConflictEngine
from repro.epsilon import EPSILON
from repro.scheduling.periodic_intervals import circular_overlap
from repro.scheduling.unrolling import InstanceEdge

__all__ = [
    "ProcessorState",
    "BalancingState",
    "is_eligible",
    "satisfies_lcm_condition",
    "steady_state_compatible",
]

_EPS = EPSILON


@dataclass(slots=True)
class ProcessorState:
    """Running per-processor bookkeeping of the load balancer."""

    name: str
    #: Sum of the memory of the blocks already moved to this processor.
    moved_memory: float = 0.0
    #: Sum of the execution time of the blocks already moved here.
    moved_execution: float = 0.0
    #: Completion time of the last block moved here (0.0 when none yet).
    last_end: float = 0.0
    #: Start time of the first block moved here (None when none yet).
    first_start: float | None = None
    #: Number of blocks moved here.
    moved_blocks: int = 0

    @property
    def is_empty(self) -> bool:
        """``True`` while no block has been moved to the processor."""
        return self.moved_blocks == 0

    def register(self, block: Block, start: float, end: float | None = None) -> None:
        """Record that ``block`` has been placed here starting at ``start``.

        ``end`` defaults to ``start + block.span``; the load balancer passes
        the exact completion time computed from the members' current
        positions (which may differ slightly when start-time updates shifted
        members non-uniformly).
        """
        self.moved_memory += block.memory
        self.moved_execution += block.execution_time
        self.moved_blocks += 1
        self.last_end = max(self.last_end, start + block.span if end is None else end)
        if self.first_start is None:
            self.first_start = start


@dataclass(slots=True)
class BalancingState:
    """Global running state shared by the cost function and the conditions."""

    processors: dict[str, ProcessorState] = field(default_factory=dict)
    #: Current position of every instance: ``(task, index) -> (processor, start)``.
    #: Initially the original schedule; updated when blocks are moved and when
    #: category-2 start times are decreased following a category-1 gain.
    current: dict[tuple[str, int], tuple[str, float]] = field(default_factory=dict)
    #: Hyper-period of the application (the LCM of eq. (4)).
    hyper_period: int = 0
    #: Optional cache of the instance-level input edges of every instance,
    #: filled by the load balancer to avoid re-expanding multi-rate
    #: dependences for every (block, processor) evaluation.
    in_edges: dict[tuple[str, int], tuple[InstanceEdge, ...]] = field(default_factory=dict)
    #: Steady-state busy patterns (circular ``(offset, length)`` pairs modulo
    #: the hyper-period) of the blocks already moved to each processor.  Kept
    #: as the from-scratch differential oracle of the conflict engine (see
    #: ``LoadBalancerOptions.cross_check``).
    moved_patterns: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    #: Incremental occupancy index answering steady-state queries in
    #: ``O(log n)``; attached by :meth:`attach_engine` before balancing.
    engine: ConflictEngine | None = None

    def attach_engine(self, processors: Iterable[str]) -> ConflictEngine:
        """Create (and own) the incremental conflict engine for this run."""
        self.engine = ConflictEngine(self.hyper_period, processors)
        return self.engine

    def processor(self, name: str) -> ProcessorState:
        """State of one processor (created on first access)."""
        if name not in self.processors:
            self.processors[name] = ProcessorState(name)
        return self.processors[name]

    def position(self, key: tuple[str, int]) -> tuple[str, float]:
        """Current ``(processor, start)`` of an instance."""
        return self.current[key]

    def completion(self, key: tuple[str, int], wcet: float) -> float:
        """Current completion time of an instance given its WCET."""
        return self.current[key][1] + wcet


def is_eligible(block: Block, block_current_start: float, proc_state: ProcessorState) -> bool:
    """Eligibility pre-filter of section 3.2.

    A processor is eligible for ``block`` when the last block already moved to
    it completes no later than the block's (current) start time.  Processors
    with no moved block yet are always eligible.
    """
    if proc_state.is_empty:
        return True
    return proc_state.last_end <= block_current_start + _EPS


def satisfies_lcm_condition(
    block: Block, placement_start: float, proc_state: ProcessorState, hyper_period: int
) -> bool:
    """Block condition of eq. (4).

    ``S_B + E_B <= S_A + LCM`` where ``A`` is the first block moved to the
    target processor.  When the processor has received no block yet the moved
    block becomes ``A`` itself and the condition reduces to
    ``E_B <= LCM`` (always true for feasible inputs, but still checked).
    """
    end = placement_start + block.execution_time
    if proc_state.first_start is None:
        return end <= placement_start + hyper_period + _EPS
    return end <= proc_state.first_start + hyper_period + _EPS


def steady_state_compatible(
    candidate_pattern: Iterable[tuple[float, float]],
    reserved_patterns: Iterable[tuple[float, float]],
    hyper_period: int,
) -> bool:
    """Exact repeatability check for a candidate block placement.

    The paper's Block/LCM condition is a *sufficient* guard: it keeps every
    processor's moved blocks inside one hyper-period of its first block.  The
    exact condition for the schedule to repeat forever is that the candidate
    block's busy pattern, taken modulo the hyper-period, does not intersect
    the patterns already reserved on the target processor (blocks moved there
    plus, optionally, the original slots of blocks not yet processed).  The
    load balancer uses this acceptance test so that balanced schedules never
    lose the strict-periodicity repetition property; its hot path answers it
    through the incremental :class:`~repro.core.occupancy.ConflictEngine`,
    and this brute-force pairwise form is kept as the differential oracle
    (``LoadBalancerOptions.cross_check``).
    """
    reserved = list(reserved_patterns)
    for offset, length in candidate_pattern:
        for reserved_offset, reserved_length in reserved:
            if circular_overlap(offset, length, reserved_offset, reserved_length, hyper_period):
                return False
    return True
