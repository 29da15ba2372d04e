"""Decomposition plans: the output of every SLADE solver.

A plan is a multiset of *bin assignments*.  Each assignment posts one task bin
``b_l`` to the crowd with a concrete set of at most ``l`` atomic tasks inside.
It is stored as *segments*: a :class:`BlockTemplate` (the postings of one
block of task slots), repeated over consecutive blocks of a task-id sequence.
Algorithm 3 covers ``n`` tasks with a handful of such runs, so a plan of
``n`` postings holds O(|Q|) segments; postings are expanded lazily, in plan
order.  The plan exposes the two quantities the paper optimises and
constrains:

* the total incentive cost ``sum_i tau_i * c_i`` (Definition 3), and
* the reliability each atomic task reaches through the bins it appears in
  (Definition 2).

Plans are plain data: solvers build them, the experiment harness prices them,
and the crowd simulator executes them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, repeat
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.bins import TaskBin
from repro.core.errors import InfeasiblePlanError, InvalidBinError
from repro.core.task import CrowdsourcingTask
from repro.utils.logmath import (
    RESIDUAL_EPSILON,
    reliability_from_residual,
    residual_from_reliability,
)


@dataclass(frozen=True)
class BinAssignment:
    """One posting of a task bin holding a concrete set of atomic tasks.

    Attributes
    ----------
    task_bin:
        The ``l``-cardinality bin posted to the crowd.
    task_ids:
        Identifiers of the atomic tasks packed into this posting.  At most
        ``task_bin.cardinality`` distinct tasks; fewer is allowed (the last
        posting of a plan is often partially filled) and the full bin cost is
        still paid, exactly as on a real platform.
    """

    task_bin: TaskBin
    task_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.task_ids) == 0:
            raise InvalidBinError("a bin assignment must contain at least one atomic task")
        if len(set(self.task_ids)) != len(self.task_ids):
            raise InvalidBinError(
                f"a bin assignment cannot repeat an atomic task: {self.task_ids}"
            )
        if len(self.task_ids) > self.task_bin.cardinality:
            raise InvalidBinError(
                f"{len(self.task_ids)} tasks exceed bin cardinality "
                f"{self.task_bin.cardinality}"
            )

    @property
    def cost(self) -> float:
        """Incentive cost of this posting (the full bin cost)."""
        return self.task_bin.cost

    @property
    def fill_ratio(self) -> float:
        """Fraction of the bin's capacity actually used."""
        return len(self.task_ids) / self.task_bin.cardinality

    def __str__(self) -> str:
        ids = ",".join(str(i) for i in self.task_ids)
        return f"{self.task_bin.cardinality}-bin[{ids}]"


class BlockTemplate:
    """The postings of one block of ``width`` consecutive task slots.

    Each posting is ``(task_bin, lo, hi)``: the bin, holding the tasks in
    slots ``lo..hi-1`` of the block.  A template is validated once and then
    repeated over any number of blocks.

    Attributes
    ----------
    costs:
        The posting costs, in posting order.
    min_residual:
        The smallest residual any slot receives: the sum of the
        contributions of the postings covering it, added in posting order
        (0.0 for a slot no posting covers).
    """

    __slots__ = ("width", "postings", "costs", "min_residual")

    def __init__(self, width: int, postings: Iterable[Tuple[TaskBin, int, int]]) -> None:
        if width < 1:
            raise InvalidBinError(f"a block needs at least one task slot; got {width}")
        self.width = width
        self.postings: Tuple[Tuple[TaskBin, int, int], ...] = tuple(postings)
        residuals = [0.0] * width
        for task_bin, lo, hi in self.postings:
            if not 0 <= lo < hi <= width:
                raise InvalidBinError(
                    f"posting slots {lo}..{hi - 1} fall outside a block of {width}"
                )
            if hi - lo > task_bin.cardinality:
                raise InvalidBinError(
                    f"{hi - lo} tasks exceed bin cardinality {task_bin.cardinality}"
                )
            contribution = task_bin.residual_contribution
            for slot in range(lo, hi):
                residuals[slot] += contribution
        self.costs = tuple(task_bin.cost for task_bin, _lo, _hi in self.postings)
        self.min_residual = min(residuals)


class PlanSegment(NamedTuple):
    """``repetitions`` consecutive blocks of ``template`` over ``task_ids``.

    Block ``k`` holds the tasks
    ``task_ids[offset + k * width : offset + (k + 1) * width]``.
    """

    template: BlockTemplate
    repetitions: int
    task_ids: Sequence[int]
    offset: int

    @property
    def span(self) -> int:
        """Number of task slots the segment covers."""
        return self.template.width * self.repetitions

    def slot_ids(self) -> Sequence[int]:
        """The task ids in the segment's slots, in slot order."""
        return self.task_ids[self.offset:self.offset + self.span]


class DecompositionPlan:
    """A complete decomposition plan ``DP_T`` for a large-scale task.

    Parameters
    ----------
    assignments:
        The bin postings making up the plan.
    solver:
        Optional name of the algorithm that produced the plan, carried along
        for experiment reports.
    """

    def __init__(
        self,
        assignments: Iterable[BinAssignment] = (),
        solver: Optional[str] = None,
    ) -> None:
        self._segments: List[PlanSegment] = []
        #: One-posting templates reused by :meth:`add`, keyed by (bin, width):
        #: postings of equal bins share one template.
        self._posting_templates: Dict[Tuple[TaskBin, int], BlockTemplate] = {}
        self.solver = solver
        for assignment in assignments:
            self._append_posting(assignment.task_bin, assignment.task_ids)

    # -- mutation (used by solvers while building) ------------------------------

    def add(self, task_bin: TaskBin, task_ids: Sequence[int]) -> BinAssignment:
        """Append a posting of ``task_bin`` holding ``task_ids`` and return it."""
        assignment = BinAssignment(task_bin, tuple(task_ids))
        self._append_posting(task_bin, assignment.task_ids)
        return assignment

    def _append_posting(self, task_bin: TaskBin, task_ids: Tuple[int, ...]) -> None:
        width = len(task_ids)
        template = self._posting_templates.get((task_bin, width))
        if template is None:
            template = BlockTemplate(width, ((task_bin, 0, width),))
            self._posting_templates[(task_bin, width)] = template
        self._segments.append(PlanSegment(template, 1, task_ids, 0))

    def add_run(
        self,
        template: BlockTemplate,
        repetitions: int,
        task_ids: Sequence[int],
        offset: int = 0,
    ) -> None:
        """Append ``repetitions`` consecutive blocks of ``template``.

        The blocks hold ``task_ids[offset:]`` in order.  ``task_ids`` is kept
        by reference, not copied: pass a sequence nobody mutates afterwards
        (a task's own :attr:`~repro.core.task.CrowdsourcingTask.task_ids`,
        or a list built for the plan).
        """
        span = template.width * repetitions
        if repetitions < 1 or offset < 0 or offset + span > len(task_ids):
            raise InvalidBinError(
                f"a run of {repetitions} block(s) of {template.width} slots at "
                f"offset {offset} does not fit {len(task_ids)} task ids"
            )
        self._segments.append(PlanSegment(template, repetitions, task_ids, offset))

    def extend(self, other: "DecompositionPlan") -> None:
        """Append every assignment of ``other`` to this plan.

        The heterogeneous solver merges the per-group plans this way
        (Algorithm 5, line 15).
        """
        self._segments.extend(other._segments)

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return sum(
            len(segment.template.postings) * segment.repetitions
            for segment in self._segments
        )

    def __iter__(self) -> Iterator[BinAssignment]:
        return (
            BinAssignment(task_bin, tuple(task_ids))
            for task_bin, task_ids in self.postings()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecompositionPlan(assignments={len(self)}, "
            f"cost={self.total_cost:.4f}, solver={self.solver!r})"
        )

    @property
    def segments(self) -> Tuple[PlanSegment, ...]:
        """The runs making up the plan, in plan order."""
        return tuple(self._segments)

    def postings(self) -> Iterator[Tuple[TaskBin, Sequence[int]]]:
        """Yield ``(task_bin, task_ids)`` for every posting, in plan order.

        The lazy expansion behind iteration and serialisation; it builds no
        :class:`BinAssignment`.
        """
        for template, repetitions, task_ids, offset in self._segments:
            width = template.width
            for base in range(offset, offset + width * repetitions, width):
                for task_bin, lo, hi in template.postings:
                    yield task_bin, task_ids[base + lo:base + hi]

    @property
    def assignments(self) -> List[BinAssignment]:
        """The bin postings in insertion order."""
        return list(self)

    # -- cost accounting ----------------------------------------------------------

    @property
    def total_cost(self) -> float:
        """Total incentive cost ``sum_i tau_i c_i`` of the plan.

        The posting costs are added one by one in plan order, so the float
        is the same as summing the expanded postings.
        """
        per_block = chain.from_iterable(
            repeat(segment.template.costs, segment.repetitions)
            for segment in self._segments
        )
        return sum(chain.from_iterable(per_block))

    def bin_usage(self) -> Dict[int, int]:
        """How many times each bin cardinality is posted (the ``tau_i`` values)."""
        usage: Counter = Counter()
        for segment in self._segments:
            for task_bin, _lo, _hi in segment.template.postings:
                usage[task_bin.cardinality] += segment.repetitions
        return dict(usage)

    def cost_per_task(self, task: CrowdsourcingTask) -> float:
        """Average incentive cost per atomic task of ``task``."""
        return self.total_cost / len(task)

    # -- reliability accounting ------------------------------------------------------

    def residuals(self) -> Dict[int, float]:
        """Accumulated residual reliability per atomic task id.

        Tasks never mentioned by the plan are simply absent from the mapping.
        """
        totals: Dict[int, float] = defaultdict(float)
        for task_bin, task_ids in self.postings():
            contribution = task_bin.residual_contribution
            for task_id in task_ids:
                totals[task_id] += contribution
        return dict(totals)

    def reliabilities(self) -> Dict[int, float]:
        """Achieved reliability ``Rel(a_i, B(a_i))`` per atomic task id."""
        return {
            task_id: reliability_from_residual(residual)
            for task_id, residual in self.residuals().items()
        }

    def reliability_of(self, task_id: int) -> float:
        """Achieved reliability of one atomic task (0.0 when unassigned)."""
        return self.reliabilities().get(task_id, 0.0)

    def assignments_of(self, task_id: int) -> List[BinAssignment]:
        """All postings that include the given atomic task."""
        return [a for a in self if task_id in a.task_ids]

    # -- feasibility -------------------------------------------------------------------

    def unsatisfied_tasks(self, task: CrowdsourcingTask) -> List[int]:
        """Identifiers of atomic tasks whose reliability threshold is not met."""
        if self._proves_feasible(task):
            return []
        residuals = self.residuals()
        failing = []
        for task_id, threshold in zip(task.task_ids, task.thresholds):
            achieved = residuals.get(task_id, 0.0)
            demanded = residual_from_reliability(threshold)
            if achieved + RESIDUAL_EPSILON < demanded:
                failing.append(task_id)
        return failing

    def _proves_feasible(self, task: CrowdsourcingTask) -> bool:
        """Prove every task meets its threshold from the segments alone.

        When the segments tile the task's ids exactly once, each task sits
        in one slot of one block and its residual is that slot's sum in the
        template: the same float the per-task accumulation in
        :meth:`unsatisfied_tasks` produces.  Every block of a run repeats
        one template, so a template's weakest slot bounds all its blocks,
        and each template is checked once.  Returns ``False`` when the
        segments do not prove it (an overlap, a gap, a weak slot); the
        caller then checks task by task, which decides exactly.
        """
        segments = self._segments
        ids = task.task_ids
        if not segments or sum(segment.span for segment in segments) != len(ids):
            return False
        if not _tiles(segments, ids):
            return False
        common = task.common_threshold
        if common is not None:
            demanded = residual_from_reliability(common)
            templates = {id(segment.template): segment.template for segment in segments}
            return all(
                not template.min_residual + RESIDUAL_EPSILON < demanded
                for template in templates.values()
            )
        threshold_of = _threshold_lookup(task)
        for segment in segments:
            demanded = residual_from_reliability(
                max(map(threshold_of, segment.slot_ids()))
            )
            if segment.template.min_residual + RESIDUAL_EPSILON < demanded:
                return False
        return True

    def is_feasible(self, task: CrowdsourcingTask) -> bool:
        """Whether every atomic task of ``task`` meets its threshold."""
        return not self.unsatisfied_tasks(task)

    def require_feasible(self, task: CrowdsourcingTask) -> "DecompositionPlan":
        """Raise :class:`InfeasiblePlanError` unless the plan is feasible.

        Returns the plan itself so callers can chain the check.
        """
        failing = self.unsatisfied_tasks(task)
        if failing:
            preview = ", ".join(str(i) for i in failing[:10])
            suffix = "..." if len(failing) > 10 else ""
            raise InfeasiblePlanError(
                f"plan ({self.solver or 'unknown solver'}) leaves {len(failing)} "
                f"atomic task(s) below their reliability threshold: {preview}{suffix}"
            )
        return self

    # -- reporting ----------------------------------------------------------------------

    def summary(self, task: Optional[CrowdsourcingTask] = None) -> Dict[str, object]:
        """A compact dictionary describing the plan for reports and logs."""
        info: Dict[str, object] = {
            "solver": self.solver,
            "assignments": len(self),
            "total_cost": self.total_cost,
            "bin_usage": self.bin_usage(),
        }
        if task is not None:
            info["n_tasks"] = len(task)
            info["feasible"] = self.is_feasible(task)
            info["cost_per_task"] = self.cost_per_task(task)
            reliabilities = self.reliabilities()
            covered = [reliabilities.get(task_id, 0.0) for task_id in task.task_ids]
            info["min_reliability"] = min(covered)
            info["mean_reliability"] = sum(covered) / len(covered)
        return info


def _tiles(segments: Sequence[PlanSegment], ids: Sequence[int]) -> bool:
    """Whether the segments' slots hold every id of ``ids`` exactly once.

    The caller has checked that the slots number ``len(ids)``.  Runs over
    the task's own id sequence tile when their offsets abut, O(segments);
    other sources are compared as sets, O(n).
    """
    if all(segment.task_ids is ids for segment in segments):
        position = 0
        for offset, span in sorted((segment.offset, segment.span) for segment in segments):
            if offset != position:
                return False
            position += span
        return True
    covered: set = set()
    for segment in segments:
        covered.update(segment.slot_ids())
    return len(covered) == len(ids) and covered.issuperset(ids)


def _threshold_lookup(task: CrowdsourcingTask) -> Callable[[int], float]:
    """A task id -> threshold function for ``task``."""
    ids, thresholds = task.task_ids, task.thresholds
    if isinstance(ids, range) and ids.start == 0 and ids.step == 1:
        return thresholds.__getitem__
    return dict(zip(ids, thresholds)).__getitem__
