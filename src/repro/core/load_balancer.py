"""The load-balancing heuristic with efficient memory usage (Algorithm 3.2).

This is the paper's contribution.  Starting from an initial schedule (any
feasible strictly periodic schedule, typically the output of
:mod:`repro.scheduling.heuristic`), the heuristic:

1. builds blocks on every processor (:mod:`repro.core.blocks`);
2. processes the blocks in increasing order of their (current) start times;
3. for each block, evaluates every processor — eligibility pre-filter, gain,
   cost function — and moves the block to the processor maximising the cost
   function among those satisfying the Block/LCM condition (eq. (4));
4. when a category-1 block decreases its start time, propagates the decrease
   to the blocks containing later instances of its tasks (strict periodicity
   must be preserved);
5. rebuilds the schedule at the new positions and re-synthesises the
   inter-processor communications.

Robustness additions beyond the paper (all switchable, all documented in
DESIGN.md §2):

* an **exact steady-state acceptance test** (``enforce_steady_state``): the
  moved block's busy pattern modulo the hyper-period must not collide with
  the patterns of the blocks already moved to the target processor, and a
  category-1 gain is only accepted if the start-time decrease it propagates
  to later-instance blocks keeps *their* patterns conflict-free too.  The
  paper's LCM condition is a sufficient approximation of this; the exact test
  keeps the balanced schedule repeatable even when the initial schedule spans
  several hyper-periods;
* a **safe fallback**: when no candidate satisfies every rule, the block is
  re-seated at its pinned start on the processor (original first) whose
  already-moved patterns it does not collide with, so overlaps are avoided
  even in degenerate cases;
* optional **original-slot protection** (``protect_unmoved``, off by
  default): never place a block over the current slot of a not-yet-processed
  block — a conservative mode that guarantees every block can fall back to
  its original position, at the price of fewer moves;
* optional **downstream protection** (``protect_downstream``, off by
  default): refuse moves that would make the data of a still-unprocessed
  consumer arrive after that consumer's pinned start time.  This guarantees
  precedence feasibility in all cases at the price of fewer moves (and it
  changes the worked example's trace, which is why it is off by default).

The heuristic never increases the total execution time (Theorem 1's lower
bound) and trades the remaining freedom for a smaller and better spread
memory footprint (Theorem 2).  Its complexity is ``O(M · N_blocks)`` block
evaluations (section 4), each evaluation being linear in the number of
external input edges of the block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.blocks import Block, BlockBuildOptions, build_blocks
from repro.core.conditions import (
    BalancingState,
    is_eligible,
    satisfies_lcm_condition,
    steady_state_compatible,
)
from repro.core.cost import (
    CostPolicy,
    MoveEvaluation,
    evaluate_move,
    policy_score,
    prepare_move_context,
)
from repro.core.result import CandidateReport, LoadBalanceResult, MoveDecision
from repro.epsilon import EPSILON
from repro.errors import ConfigurationError, SchedulingError
from repro.scheduling.communications import synthesize_communications
from repro.scheduling.feasibility import check_schedule
from repro.scheduling.schedule import Schedule, ScheduledInstance
from repro.scheduling.unrolling import instance_edges

__all__ = ["LoadBalancerOptions", "LoadBalancer", "balance_schedule"]

_EPS = EPSILON


@dataclass(frozen=True, slots=True)
class LoadBalancerOptions:
    """Configuration of the load-balancing heuristic."""

    #: Cost-function interpretation (see :class:`repro.core.cost.CostPolicy`).
    policy: CostPolicy = CostPolicy.RATIO
    #: Apply the eligibility pre-filter of section 3.2 ("processors whose end
    #: time of the last block is less or equal to the start time of the block").
    enforce_eligibility: bool = True
    #: Apply the Block/LCM condition of eq. (4).
    enforce_lcm_condition: bool = True
    #: Apply the exact circular steady-state acceptance test (recommended).
    enforce_steady_state: bool = True
    #: Never place a block over the current slot of a not-yet-processed
    #: block, so the fallback position always remains available (conservative
    #: mode: fewer moves, but no move can ever invalidate a later block).
    protect_unmoved: bool = False
    #: Refuse moves that would make the data of an unprocessed consumer
    #: arrive after its pinned start time (conservative; changes the paper's
    #: worked-example trace, hence off by default).
    protect_downstream: bool = False
    #: Options of the block construction step.
    block_options: BlockBuildOptions = field(default_factory=BlockBuildOptions)
    #: Re-synthesise communication operations on the balanced schedule.
    attach_communications: bool = True
    #: Run the feasibility checker on the balanced schedule and record any
    #: violation as a warning on the result (never raises).
    verify_result: bool = True
    #: When the balanced schedule turns out infeasible (the paper's update
    #: rule can transiently break a pinned consumer's data arrival and rely
    #: on later moves that never come), retry once with the conservative
    #: protections enabled, and if even that fails return the initial
    #: schedule unchanged.  Guarantees the result is never worse than doing
    #: nothing; the chosen rung is reported in ``LoadBalanceResult.safety_level``.
    retry_until_feasible: bool = True
    #: Differential-oracle mode: answer every steady-state query with the
    #: incremental conflict engine *and* the from-scratch reserved-pattern
    #: computation, raising :class:`~repro.errors.SchedulingError` on any
    #: divergence.  Slow; meant for the property-test layer.
    cross_check: bool = False
    #: Sampling stride of the ``cross_check`` oracle: every ``stride``-th
    #: cross-checked query runs the from-scratch comparison (1 = every
    #: query).  The oracle is quadratic, so checking every query at N=5000
    #: is intractable; a large prime stride keeps a run verifiable
    #: end-to-end while still sampling moves across the whole run.
    cross_check_stride: int = 1

    def __post_init__(self) -> None:
        """Reject contradictory flag combinations outright.

        These combinations used to be silently ineffective (the dependent
        switch simply never fired), which hid configuration mistakes in
        experiment sweeps; they now raise :class:`ConfigurationError`.
        """
        if self.protect_unmoved and not self.enforce_steady_state:
            raise ConfigurationError(
                "protect_unmoved requires enforce_steady_state: original-slot "
                "protection is applied through the steady-state acceptance test, "
                "so disabling the test silently disables the protection"
            )
        if self.retry_until_feasible and not self.verify_result:
            raise ConfigurationError(
                "retry_until_feasible requires verify_result: without the final "
                "feasibility check the retry ladder can never trigger; pass "
                "retry_until_feasible=False explicitly if verification is unwanted"
            )
        if self.cross_check_stride < 1:
            raise ConfigurationError(
                f"cross_check_stride must be >= 1, got {self.cross_check_stride}"
            )
        if self.cross_check_stride != 1 and not self.cross_check:
            raise ConfigurationError(
                "cross_check_stride requires cross_check: the stride only samples "
                "the differential oracle, so setting it without the oracle is "
                "silently ineffective"
            )


class LoadBalancer:
    """Runs Algorithm 3.2 of the paper on an initial schedule."""

    def __init__(self, schedule: Schedule, options: LoadBalancerOptions | None = None) -> None:
        if len(schedule) == 0:
            raise ConfigurationError("Cannot balance an empty schedule")
        self.schedule = schedule
        self.graph = schedule.graph
        self.architecture = schedule.architecture
        self.options = options or LoadBalancerOptions()
        #: ``(block id, sorted (current start, wcet) pairs, base offset)`` of
        #: the block being processed (see :meth:`_cache_block_pattern`).
        self._pattern_cache: tuple[int, list[tuple[float, float]], float] | None = None
        #: Shared counter behind :meth:`_should_cross_check` (stride sampling).
        self._cross_check_queries = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> LoadBalanceResult:
        """Execute the heuristic and return the full result.

        With ``retry_until_feasible`` (the default), an infeasible outcome
        triggers one conservative re-run (slot and downstream protection
        enabled) and, as a last resort, a no-op result returning the initial
        schedule unchanged — the heuristic is then guaranteed never to make
        the schedule worse, which is the paper's stated intent.
        """
        result = self._execute()
        if not (self.options.retry_until_feasible and self.options.verify_result):
            return result
        if check_schedule(result.balanced_schedule, check_memory=False).is_feasible:
            return result

        original_options = self.options
        already_conservative = (
            original_options.protect_unmoved and original_options.protect_downstream
        )
        if not already_conservative:
            from dataclasses import replace

            # The conservative rung enables every protection, including the
            # steady-state test the protections are implemented through (an
            # ablated run may have switched it off).
            self.options = replace(
                original_options,
                protect_unmoved=True,
                protect_downstream=True,
                enforce_steady_state=True,
            )
            try:
                conservative = self._execute()
            finally:
                self.options = original_options
            if check_schedule(
                conservative.balanced_schedule, check_memory=False
            ).is_feasible:
                conservative.safety_level = "conservative"
                conservative.warnings.append(
                    "the paper-faithful rule set produced an infeasible schedule; the result "
                    "comes from the conservative re-run (protect_unmoved + protect_downstream)"
                )
                return conservative

        noop = LoadBalanceResult(
            initial_schedule=self.schedule,
            balanced_schedule=self.schedule,
            decisions=[],
            blocks=result.blocks,
            policy=original_options.policy,
            warnings=result.warnings
            + [
                "balancing abandoned: no rule set produced a feasible balanced schedule, the "
                "initial schedule is returned unchanged"
            ],
            evaluations=result.evaluations,
            safety_level="no-op",
        )
        return noop

    def _execute(self) -> LoadBalanceResult:
        """One pass of Algorithm 3.2 under the current options."""
        blocks = build_blocks(self.schedule, self.options.block_options)
        state = BalancingState(hyper_period=self.graph.hyper_period)
        state.current = {
            instance.key: (instance.processor, instance.start)
            for instance in self.schedule.instances
        }
        for name in self.architecture.processor_names:
            state.processor(name)
            state.moved_patterns[name] = []
        # Both instance-edge directions come from the shared (cached) unrolled
        # expansion — per-instance re-expansion used to dominate large runs.
        in_edges: dict[tuple[str, int], list] = {key: [] for key in state.current}
        self._out_edges: dict[tuple[str, int], list] = {key: [] for key in state.current}
        for edge in instance_edges(self.graph):
            in_edges[edge.consumer].append(edge)
            self._out_edges[edge.producer].append(edge)
        state.in_edges = {key: tuple(edges) for key, edges in in_edges.items()}
        self._wcet = {name: task.wcet for name, task in self.graph.tasks.items()}
        self._block_of_instance: dict[tuple[str, int], int] = {}
        engine = state.attach_engine(self.architecture.processor_names)
        hyper_period = state.hyper_period
        self._cross_check_queries = 0
        # Seed the resident timelines in bulk: one sorted build per processor
        # instead of O(n²) repeated sorted-list insertion (the difference
        # between seconds and minutes at stress-xl scale).
        resident_seed: dict[str, list[tuple[float, float, object]]] = {
            name: [] for name in self.architecture.processor_names
        }
        for block in blocks:
            for key in block.member_keys:
                self._block_of_instance[key] = block.id
                _proc, start = state.position(key)
                resident_seed[block.processor].append(
                    (start % hyper_period, self._wcet[key[0]], key[0])
                )
        for name, items in resident_seed.items():
            if items:
                engine.reside_bulk(name, items)

        decisions: list[MoveDecision] = []
        warnings: list[str] = []
        self._evaluations = 0
        self._pattern_cache: tuple[int, list[tuple[float, float]], float] | None = None
        unprocessed: dict[int, Block] = {block.id: block for block in blocks}
        unprocessed_by_origin: dict[str, set[int]] = {
            name: set() for name in self.architecture.processor_names
        }
        for block in blocks:
            unprocessed_by_origin[block.processor].add(block.id)

        # The paper sorts the blocks by increasing start time once and
        # processes them in that order (start-time updates propagated during
        # the run never reorder them in the worked example; re-sorting
        # dynamically would also make the loop super-linear).
        for block in sorted(blocks, key=lambda b: (b.start, b.id)):
            del unprocessed[block.id]
            unprocessed_by_origin[block.processor].discard(block.id)
            for key in block.member_keys:
                _proc, start = state.position(key)
                engine.release(
                    block.processor, start % hyper_period, self._wcet[key[0]], key[0]
                )
            decision = self._process_block(
                block, state, unprocessed, unprocessed_by_origin, warnings
            )
            decisions.append(decision)

        balanced = self._rebuild_schedule(state)
        if self.options.verify_result:
            report = check_schedule(balanced, check_memory=False)
            if not report.is_feasible:
                warnings.extend(report.all_violations)

        return LoadBalanceResult(
            initial_schedule=self.schedule,
            balanced_schedule=balanced,
            decisions=decisions,
            blocks=blocks,
            policy=self.options.policy,
            warnings=warnings,
            evaluations=self._evaluations,
        )

    # ------------------------------------------------------------------
    # Block processing
    # ------------------------------------------------------------------
    def _current_start(self, block: Block, state: BalancingState) -> float:
        return min(state.position(key)[1] for key in block.member_keys)

    def _cache_block_pattern(self, block: Block, state: BalancingState) -> None:
        """Snapshot the member positions backing ``_block_pattern``.

        The candidate loop asks for the same block's pattern at many
        placement starts; the members' current positions are fixed until the
        move is applied, so their sorted ``(current start, wcet)`` pairs and
        the base offset are computed once per block instead of once per
        query (this mirrors :class:`~repro.core.cost.MoveContext` for the
        steady-state side of the evaluation).
        """
        members = sorted(block.members, key=lambda m: m.start)
        current = {m.key: state.current[m.key][1] for m in members}
        base = min(current.values())
        self._pattern_cache = (
            block.id,
            [(current[m.key], m.wcet) for m in members],
            base,
        )

    def _block_pattern(
        self, block: Block, placement_start: float, state: BalancingState
    ) -> list[tuple[float, float]]:
        """Circular busy pattern of ``block`` if placed at ``placement_start``."""
        cache = self._pattern_cache
        if cache is not None and cache[0] == block.id:
            _block_id, members, base = cache
            hyper_period = state.hyper_period
            pattern = [
                (float((placement_start + current - base) % hyper_period), wcet)
                for current, wcet in members
            ]
            if self.options.cross_check and self._should_cross_check():
                fresh = block.circular_pattern(
                    placement_start, state.hyper_period, state.current
                )
                if fresh != pattern:
                    raise SchedulingError(
                        f"pattern-cache divergence on block {block.label}: "
                        f"cached={pattern}, from-scratch={fresh}"
                    )
            return pattern
        return block.circular_pattern(placement_start, state.hyper_period, state.current)

    def _should_cross_check(self) -> bool:
        """Stride-sampled gate of the differential oracle.

        Counts every query that *would* be cross-checked and fires on every
        ``cross_check_stride``-th one (always, with the default stride of 1).
        One shared counter covers the steady-state and pattern-cache check
        sites, so a sampled run still probes both.
        """
        index = self._cross_check_queries
        self._cross_check_queries = index + 1
        return index % self.options.cross_check_stride == 0

    def _steady_ok(
        self,
        target: str,
        pattern: list[tuple[float, float]],
        state: BalancingState,
        unprocessed: dict[int, Block],
        unprocessed_by_origin: dict[str, set[int]],
        *,
        include_unmoved: bool,
        exclude_tasks: frozenset[str] = frozenset(),
    ) -> bool:
        """Steady-state acceptance through the incremental conflict engine.

        With ``cross_check`` enabled the from-scratch reserved-pattern
        computation is evaluated as well and any divergence raises — the
        differential oracle the property-test layer runs move-for-move.
        """
        assert state.engine is not None
        verdict = state.engine.compatible(
            target, pattern, include_resident=include_unmoved, exclude=exclude_tasks
        )
        if self.options.cross_check and self._should_cross_check():
            oracle = steady_state_compatible(
                pattern,
                self._reserved_patterns(
                    target,
                    state,
                    unprocessed,
                    unprocessed_by_origin,
                    include_unmoved=include_unmoved,
                    exclude_tasks=exclude_tasks,
                ),
                state.hyper_period,
            )
            if oracle != verdict:
                raise SchedulingError(
                    f"conflict-engine divergence on {target!r}: engine={verdict}, "
                    f"from-scratch oracle={oracle}, pattern={pattern}, "
                    f"include_unmoved={include_unmoved}, exclude={sorted(exclude_tasks)}"
                )
        return verdict

    def _reserved_patterns(
        self,
        target: str,
        state: BalancingState,
        unprocessed: dict[int, Block],
        unprocessed_by_origin: dict[str, set[int]],
        *,
        include_unmoved: bool,
        exclude_tasks: frozenset[str] = frozenset(),
    ) -> list[tuple[float, float]]:
        """Patterns a candidate placement on ``target`` must not collide with.

        This is the *from-scratch* computation, kept as the differential
        oracle of the incremental conflict engine (``cross_check``); the hot
        path queries ``state.engine`` instead.  ``include_unmoved`` adds the
        current slots of the blocks that still sit, unprocessed, on ``target``
        (used by the conservative ``protect_unmoved`` mode and by the safe
        fallback).  ``exclude_tasks`` removes the slots of instances that are
        about to be shifted together with the candidate (their relative
        position is preserved, so checking them would be spurious).
        """
        reserved = list(state.moved_patterns[target])
        if include_unmoved:
            hyper_period = state.hyper_period
            for block_id in unprocessed_by_origin[target]:
                for key in unprocessed[block_id].member_keys:
                    if key[0] in exclude_tasks:
                        continue
                    _proc, start = state.position(key)
                    reserved.append((float(start % hyper_period), self._wcet[key[0]]))
        return reserved

    def _update_shift_safe(
        self,
        block: Block,
        target: str,
        placement_start: float,
        gain: float,
        state: BalancingState,
        unprocessed: dict[int, Block],
        unprocessed_by_origin: dict[str, set[int]],
    ) -> bool:
        """Check that propagating a category-1 gain keeps later instances conflict-free.

        Accepting a gain of ``g`` shifts every unprocessed instance of the
        moved tasks ``g`` earlier (strict periodicity).  This must not make
        those instances' steady-state patterns collide with blocks already
        moved to their processors, with the candidate block's new pattern, or
        with the slots of unshifted unprocessed blocks sharing their
        processor.  Data arrivals of the shifted instances are *not* checked
        here — the paper's heuristic relies on later moves to restore them
        (exactly what happens in the worked example), and any residual
        violation is reported by the final feasibility check.
        """
        if gain <= _EPS or not block.is_first_category:
            return True
        hyper_period = state.hyper_period
        moved_tasks = frozenset(block.first_instance_tasks)
        candidate_pattern = self._block_pattern(block, placement_start, state)
        for other in unprocessed.values():
            for key in other.member_keys:
                if key[0] not in moved_tasks or block.contains(key):
                    continue
                proc, start = state.position(key)
                shifted = ((start - gain) % hyper_period, self._wcet[key[0]])
                if not self._steady_ok(
                    proc,
                    [shifted],
                    state,
                    unprocessed,
                    unprocessed_by_origin,
                    include_unmoved=True,
                    exclude_tasks=moved_tasks,
                ):
                    return False
                if proc == target and not steady_state_compatible(
                    [shifted], candidate_pattern, hyper_period
                ):
                    return False
        return True

    def _safe_fallback(
        self,
        block: Block,
        current_start: float,
        evaluations: dict[str, MoveEvaluation],
        state: BalancingState,
        unprocessed: dict[int, Block],
        unprocessed_by_origin: dict[str, set[int]],
        warnings: list[str],
    ) -> str:
        """Choose a processor for a block no candidate rule accepted.

        The block keeps its pinned start time; the fallback only picks *where*
        to seat it: the original processor if its pattern is still free there,
        otherwise the least-loaded processor whose moved and resident patterns
        it does not collide with, otherwise (degenerate case) the original
        processor with a warning.
        """
        pattern = self._block_pattern(block, current_start, state)
        ordered = [block.processor] + [
            name
            for name in sorted(
                self.architecture.processor_names,
                key=lambda n: state.processor(n).moved_memory,
            )
            if name != block.processor
        ]
        # All M processors answered in one engine call; with cross_check on,
        # each verdict is still validated (stride-sampled) against the
        # from-scratch oracle through the usual per-target path.
        assert state.engine is not None
        verdicts = state.engine.compatible_batch(
            ordered, pattern, include_resident=True
        )
        if self.options.cross_check:
            for name in ordered:
                per_target = self._steady_ok(
                    name,
                    pattern,
                    state,
                    unprocessed,
                    unprocessed_by_origin,
                    include_unmoved=True,
                )
                if per_target != verdicts[name]:
                    raise SchedulingError(
                        f"compatible_batch divergence on {name!r}: batch="
                        f"{verdicts[name]}, per-target={per_target}"
                    )
        passing = [name for name in ordered if verdicts[name]]
        for name in passing:
            if evaluations[name].feasible:
                return name
        if passing:
            return passing[0]
        warnings.append(
            f"block {block.label}: no processor can host its pattern at start "
            f"{current_start:g} without a steady-state conflict; kept on "
            f"{block.processor} (the final schedule will report the overlap)"
        )
        return block.processor

    def _downstream_safe(
        self,
        block: Block,
        target: str,
        placement_start: float,
        state: BalancingState,
        unprocessed: dict[int, Block],
    ) -> bool:
        """Conservative check that the move breaks no unprocessed consumer's timing."""
        current_start = self._current_start(block, state)
        member_keys = set(block.member_keys)
        for key in block.member_keys:
            _proc, member_start = state.position(key)
            new_end = placement_start + (member_start - current_start) + self._wcet[key[0]]
            for edge in self._out_edges[key]:
                if edge.consumer in member_keys:
                    continue
                consumer_block = self._block_of_instance.get(edge.consumer)
                if consumer_block is None or consumer_block not in unprocessed:
                    continue
                consumer_proc, consumer_start = state.position(edge.consumer)
                arrival = new_end + self.architecture.comm_time(
                    target, consumer_proc, edge.data_size
                )
                if arrival > consumer_start + _EPS:
                    return False
        return True

    def _process_block(
        self,
        block: Block,
        state: BalancingState,
        unprocessed: dict[int, Block],
        unprocessed_by_origin: dict[str, set[int]],
        warnings: list[str],
    ) -> MoveDecision:
        options = self.options
        current_start = self._current_start(block, state)
        proc_names = self.architecture.processor_names
        proc_index = {name: i for i, name in enumerate(proc_names)}

        # Target-independent work factored out of the M-way candidate loop:
        # the arrival bounds (MoveContext) and the circular-pattern snapshot.
        context = prepare_move_context(block, state, self.graph, self.architecture)
        self._cache_block_pattern(block, state)

        evaluations: dict[str, MoveEvaluation] = {}
        eligibility: dict[str, bool] = {}
        scores: dict[str, tuple[float, ...]] = {}
        for name in proc_names:
            proc_state = state.processor(name)
            eligible = (
                is_eligible(block, current_start, proc_state)
                if options.enforce_eligibility
                else True
            )
            evaluation = evaluate_move(
                block, name, state, self.graph, self.architecture, context=context
            )
            if options.cross_check:
                # The differential oracle also covers the cached-evaluation
                # path: a context-free evaluation must agree field-for-field.
                fresh = evaluate_move(block, name, state, self.graph, self.architecture)
                if fresh != evaluation:
                    raise SchedulingError(
                        f"move-context divergence on block {block.label} -> {name}: "
                        f"cached={evaluation}, from-scratch={fresh}"
                    )
            self._evaluations += 1
            evaluations[name] = evaluation
            eligibility[name] = eligible
            scores[name] = policy_score(evaluation, proc_state, options.policy)

        viable = [
            name for name in proc_names if eligibility[name] and evaluations[name].feasible
        ]
        ranked = sorted(
            viable,
            key=lambda name: (
                scores[name],
                1 if name == block.processor else 0,
                -proc_index[name],
            ),
            reverse=True,
        )

        lcm_results: dict[str, bool] = {}
        chosen: str | None = None
        for name in ranked:
            placement = evaluations[name].placement_start
            stays_in_place = (
                name == block.processor and abs(placement - current_start) <= _EPS
            )
            if options.enforce_lcm_condition and not stays_in_place:
                # Keeping a block exactly where the (repeatable) initial
                # schedule put it can never break the hyper-period repetition,
                # so the Block/LCM condition only gates actual displacements.
                ok = satisfies_lcm_condition(
                    block, placement, state.processor(name), state.hyper_period
                )
                lcm_results[name] = ok
                if not ok:
                    continue
            if options.enforce_steady_state:
                if not self._steady_ok(
                    name,
                    self._block_pattern(block, placement, state),
                    state,
                    unprocessed,
                    unprocessed_by_origin,
                    include_unmoved=options.protect_unmoved,
                ):
                    continue
                gain_here = (
                    max(0.0, current_start - placement) if block.is_first_category else 0.0
                )
                if not self._update_shift_safe(
                    block, name, placement, gain_here, state, unprocessed, unprocessed_by_origin
                ):
                    continue
            if options.protect_downstream and not self._downstream_safe(
                block, name, placement, state, unprocessed
            ):
                continue
            chosen = name
            break

        forced = False
        if chosen is None:
            # Fallback: the block keeps its pinned start time and is seated on
            # a processor whose patterns it does not collide with (original
            # processor first).  Data arrivals may still be violated when
            # producers moved away; the final feasibility check reports it.
            chosen = self._safe_fallback(
                block,
                current_start,
                evaluations,
                state,
                unprocessed,
                unprocessed_by_origin,
                warnings,
            )
            forced = True

        evaluation = evaluations[chosen]
        if forced:
            placement_start = current_start
        else:
            placement_start = evaluation.placement_start
        gain = max(0.0, current_start - placement_start) if block.is_first_category else 0.0

        updated = self._apply_move(block, chosen, placement_start, gain, state, unprocessed)

        candidates = tuple(
            CandidateReport(
                evaluation=evaluations[name],
                eligible=eligibility[name],
                lcm_ok=lcm_results.get(name),
                score=scores[name],
            )
            for name in proc_names
        )
        return MoveDecision(
            block=block,
            start_before=current_start,
            chosen_processor=chosen,
            placement_start=placement_start,
            gain=gain,
            candidates=candidates,
            forced=forced,
            updated_blocks=tuple(updated),
        )

    def _apply_move(
        self,
        block: Block,
        target: str,
        placement_start: float,
        gain: float,
        state: BalancingState,
        unprocessed: dict[int, Block],
    ) -> list[int]:
        """Update the running state after a block move; return updated block ids."""
        current_start = self._current_start(block, state)
        hyper_period = state.hyper_period
        engine = state.engine
        assert engine is not None
        # Relocate every member, preserving its offset relative to the block.
        new_end = placement_start
        for key in block.member_keys:
            _proc, member_start = state.position(key)
            offset = member_start - current_start
            new_member_start = placement_start + offset
            state.current[key] = (target, new_member_start)
            wcet = self._wcet[key[0]]
            pattern_offset = float(new_member_start % hyper_period)
            state.moved_patterns[target].append((pattern_offset, wcet))
            engine.occupy(target, pattern_offset, wcet, key[0])
            new_end = max(new_end, new_member_start + wcet)
        state.processor(target).register(block, placement_start, new_end)

        # Propagate a positive category-1 gain to the blocks holding later
        # instances of the moved tasks (strict periodicity).
        updated: list[int] = []
        if block.is_first_category and gain > _EPS:
            moved_tasks = set(block.first_instance_tasks)
            for other in unprocessed.values():
                shifted = False
                for key in other.member_keys:
                    if key[0] in moved_tasks and not block.contains(key):
                        proc, start = state.position(key)
                        state.current[key] = (proc, start - gain)
                        engine.shift(
                            proc,
                            start % hyper_period,
                            (start - gain) % hyper_period,
                            self._wcet[key[0]],
                            key[0],
                        )
                        shifted = True
                if shifted:
                    updated.append(other.id)
        # The block's members just moved: the pattern snapshot taken at the
        # top of _process_block no longer reflects state.current, so drop it
        # rather than rely on nobody asking for this block's pattern again.
        self._pattern_cache = None
        return updated

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def _rebuild_schedule(self, state: BalancingState) -> Schedule:
        instances = []
        for instance in self.schedule.instances:
            processor, start = state.position(instance.key)
            instances.append(
                ScheduledInstance(
                    task=instance.task,
                    index=instance.index,
                    processor=processor,
                    start=start,
                    wcet=instance.wcet,
                    memory=instance.memory,
                )
            )
        balanced = Schedule(self.graph, self.architecture, instances, ())
        if self.options.attach_communications:
            balanced = balanced.with_instances(
                balanced.instances, synthesize_communications(balanced)
            )
        return balanced


def balance_schedule(
    schedule: Schedule, options: LoadBalancerOptions | None = None
) -> LoadBalanceResult:
    """Convenience function: run :class:`LoadBalancer` on ``schedule``."""
    return LoadBalancer(schedule, options).run()
