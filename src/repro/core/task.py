"""Atomic tasks and large-scale crowdsourcing tasks.

The paper models a large-scale crowdsourcing task ``T`` as a set of ``n``
independent *atomic* tasks, each a binary-choice question of trivial cognitive
load (Section 3.1).  Atomic tasks carry an identifier, an optional payload (for
the simulator: the question and its ground truth), and a reliability threshold
``t_i`` — the minimum acceptable probability of no false negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterable, Iterator, List, Mapping, Optional, Sequence, Union

from repro.core.errors import InvalidProblemError
from repro.utils.hashing import digest_framed, float_token
from repro.utils.logmath import residual_from_reliability
from repro.utils.validation import require_probability_open


@dataclass(frozen=True)
class AtomicTask:
    """A single binary-choice question posed to the crowd.

    Attributes
    ----------
    task_id:
        Unique identifier within a :class:`CrowdsourcingTask`.
    threshold:
        Reliability threshold ``t_i`` in ``[0, 1)``: the decomposition plan
        must give this task at least this probability of being answered
        correctly by at least one assigned task bin.
    payload:
        Optional application data, e.g. a reference to the satellite image to
        screen.  The decomposition algorithms never look at it; the crowd
        simulator uses ``payload.get("truth")`` as the ground-truth label.
    """

    task_id: int
    threshold: float = 0.9
    payload: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_probability_open(self.threshold, "threshold")
        if self.task_id < 0:
            raise InvalidProblemError(
                f"task_id must be non-negative; got {self.task_id}"
            )

    @property
    def required_residual(self) -> float:
        """The threshold expressed in residual (log) space: ``-ln(1 - t_i)``."""
        return residual_from_reliability(self.threshold)

    def with_threshold(self, threshold: float) -> "AtomicTask":
        """Return a copy of this task with a different reliability threshold."""
        return AtomicTask(self.task_id, threshold, self.payload)


class CrowdsourcingTask:
    """A large-scale crowdsourcing task: an ordered collection of atomic tasks.

    The class behaves like an immutable sequence of :class:`AtomicTask`.  Task
    identifiers must be unique; they are usually ``0..n-1`` but any distinct
    non-negative integers are accepted (the simulator reuses upstream IDs).

    Tasks built by :meth:`homogeneous` and :meth:`heterogeneous` are
    *compact*: they hold ``range(n)`` as ids and one threshold (or a list of
    floats) and build :class:`AtomicTask` objects only when iterated or
    indexed, so the views the OPQ solvers need (:attr:`task_ids`,
    :attr:`common_threshold`, :attr:`fingerprint`) cost O(1) or one pass
    instead of ``n`` validated objects.

    Parameters
    ----------
    tasks:
        The atomic tasks making up the large-scale task.
    name:
        Optional human-readable label used in experiment reports.
    """

    def __init__(self, tasks: Iterable[AtomicTask], name: str = "task") -> None:
        atomic = list(tasks)
        if not atomic:
            raise InvalidProblemError("a crowdsourcing task needs at least one atomic task")
        seen = set()
        for task in atomic:
            if task.task_id in seen:
                raise InvalidProblemError(
                    f"duplicate atomic task id {task.task_id} in crowdsourcing task"
                )
            seen.add(task.task_id)
        self._ids: Sequence[int] = tuple(task.task_id for task in atomic)
        #: One threshold shared by every task, or a list aligned with ``_ids``.
        self._thresholds: Union[float, List[float]] = [task.threshold for task in atomic]
        self._tasks: Optional[List[AtomicTask]] = atomic
        self._fingerprint: Optional[str] = None
        self.name = name

    @classmethod
    def _compact(
        cls,
        ids: Sequence[int],
        thresholds: Union[float, List[float]],
        name: str,
    ) -> "CrowdsourcingTask":
        """A task over already-validated ids and thresholds, with no payloads."""
        task = cls.__new__(cls)
        task._ids = ids
        task._thresholds = thresholds
        task._tasks = None
        task._fingerprint = None
        task.name = name
        return task

    # -- construction helpers -------------------------------------------------

    @classmethod
    def homogeneous(
        cls,
        n: int,
        threshold: float,
        name: str = "task",
    ) -> "CrowdsourcingTask":
        """Build a task of ``n`` atomic tasks sharing one reliability threshold.

        This is the homogeneous SLADE setting (Section 5).
        """
        if n <= 0:
            raise InvalidProblemError(f"n must be positive; got {n}")
        require_probability_open(threshold, "threshold")
        return cls._compact(range(n), threshold, name)

    @classmethod
    def heterogeneous(
        cls,
        thresholds: Sequence[float],
        name: str = "task",
    ) -> "CrowdsourcingTask":
        """Build a task whose atomic tasks carry per-task thresholds.

        This is the heterogeneous SLADE setting (Section 6).
        """
        if len(thresholds) == 0:
            raise InvalidProblemError("thresholds must not be empty")
        floats = _checked_thresholds(thresholds)
        return cls._compact(range(len(floats)), floats, name)

    # -- sequence protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[AtomicTask]:
        if self._tasks is None:
            # Built on the first iteration and kept: the solvers that walk
            # the atomic tasks (greedy, the baseline) walk them repeatedly.
            thresholds = self._thresholds
            if not isinstance(thresholds, list):
                thresholds = repeat(thresholds)  # type: ignore[assignment]
            self._tasks = list(map(AtomicTask, self._ids, thresholds))
        return iter(self._tasks)

    def __getitem__(self, index: int) -> AtomicTask:
        if self._tasks is not None:
            return self._tasks[index]
        thresholds = self._thresholds
        threshold = thresholds[index] if isinstance(thresholds, list) else thresholds
        return AtomicTask(self._ids[index], threshold)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CrowdsourcingTask(name={self.name!r}, n={len(self)})"

    # -- derived views ----------------------------------------------------------

    @property
    def task_ids(self) -> Sequence[int]:
        """The atomic task identifiers, in declaration order (read-only)."""
        return self._ids

    @property
    def thresholds(self) -> List[float]:
        """Reliability thresholds aligned with :attr:`task_ids`."""
        thresholds = self._thresholds
        if isinstance(thresholds, list):
            return list(thresholds)
        return [thresholds] * len(self._ids)

    @property
    def common_threshold(self) -> Optional[float]:
        """The threshold every atomic task shares, or ``None`` when they differ."""
        thresholds = self._thresholds
        if not isinstance(thresholds, list):
            return thresholds
        first = thresholds[0]
        return first if thresholds.count(first) == len(thresholds) else None

    @property
    def is_homogeneous(self) -> bool:
        """Whether every atomic task shares the same reliability threshold."""
        return self.common_threshold is not None

    def distinct_thresholds(self) -> List[float]:
        """The distinct reliability thresholds, in increasing order."""
        thresholds = self._thresholds
        if isinstance(thresholds, list):
            return sorted(set(thresholds))
        return [thresholds]

    @property
    def max_threshold(self) -> float:
        """The largest reliability threshold among the atomic tasks."""
        thresholds = self._thresholds
        return max(thresholds) if isinstance(thresholds, list) else thresholds

    @property
    def min_threshold(self) -> float:
        """The smallest reliability threshold among the atomic tasks."""
        thresholds = self._thresholds
        return min(thresholds) if isinstance(thresholds, list) else thresholds

    @property
    def fingerprint(self) -> str:
        """Stable content digest of the task ids and thresholds.

        Payloads and the display ``name`` are excluded: the decomposition
        algorithms never read them, so two tasks with the same ids and
        thresholds are interchangeable for planning purposes.  The value is
        ``stable_digest(("crowdsourcing_task", "<id>:<threshold hex>", ...))``;
        it is computed once per task, in one ``join`` and one hash update.
        """
        if self._fingerprint is None:
            thresholds = self._thresholds
            if isinstance(thresholds, list):
                tokens = map("{}:{}".format, self._ids, map(float.hex, map(float, thresholds)))
                body = "".join([f"{len(token)}:{token}" for token in tokens])
            else:
                # Compact homogeneous tasks hold range(n).
                body = _framed_id_run(len(self._ids), float_token(thresholds))
            self._fingerprint = digest_framed(_FINGERPRINT_HEAD + body)
        return self._fingerprint

    def by_id(self, task_id: int) -> AtomicTask:
        """Return the atomic task with the given identifier.

        Raises
        ------
        KeyError
            If no atomic task has that identifier.
        """
        try:
            position = self._ids.index(task_id)
        except ValueError:
            raise KeyError(f"no atomic task with id {task_id}") from None
        return self[position]

    def subset(self, task_ids: Iterable[int], name: Optional[str] = None) -> "CrowdsourcingTask":
        """Return a new crowdsourcing task restricted to ``task_ids``.

        The atomic tasks keep their declaration order.
        """
        wanted = set(task_ids)
        subset = [task for task in self if task.task_id in wanted]
        if len(subset) != len(wanted):
            missing = wanted - {task.task_id for task in subset}
            raise KeyError(f"unknown atomic task ids: {sorted(missing)}")
        return CrowdsourcingTask(subset, name=name or f"{self.name}-subset")

    def map_thresholds(self, fn: Callable[[float], float]) -> "CrowdsourcingTask":
        """A copy whose thresholds are ``fn`` of these, or ``self`` if none changes.

        Ids, payloads and the name are kept; the new thresholds are validated
        like an :class:`AtomicTask`'s.
        """
        thresholds = self._thresholds
        if not isinstance(thresholds, list):
            mapped = fn(thresholds)
            if mapped == thresholds:
                return self
            require_probability_open(mapped, "threshold")
            return self._compact(self._ids, mapped, self.name)
        mapped_list = [fn(threshold) for threshold in thresholds]
        if mapped_list == thresholds:
            return self
        if self._tasks is None:
            return self._compact(self._ids, _checked_thresholds(mapped_list), self.name)
        return CrowdsourcingTask(
            (
                AtomicTask(atomic.task_id, threshold, atomic.payload)
                for atomic, threshold in zip(self._tasks, mapped_list)
            ),
            name=self.name,
        )


#: The framed first token of every task fingerprint.
_FINGERPRINT_HEAD = "18:crowdsourcing_task"


def _framed_id_run(n: int, threshold_hex: str) -> str:
    """The framed tokens ``f"{i}:{threshold_hex}"`` for ``i`` in ``range(n)``.

    Ids with the same number of digits frame to the same length, so each
    digit band is one ``join`` over ``map(str, ...)``.
    """
    parts = []
    low, digits = 0, 1
    while low < n:
        high = min(n, 10 ** digits)
        size = f"{digits + 1 + len(threshold_hex)}:"
        parts.append(
            size
            + f":{threshold_hex}{size}".join(map(str, range(low, high)))
            + f":{threshold_hex}"
        )
        low, digits = high, digits + 1
    return "".join(parts)


def _checked_thresholds(values: Sequence[object]) -> List[float]:
    """``values`` as floats, each validated as :class:`AtomicTask` validates it."""
    try:
        floats: Optional[List[float]] = list(map(float, values))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        floats = None
    if floats is None or not all(0.0 <= value < 1.0 for value in floats):
        # Convert and check one at a time, so the first bad value raises
        # exactly what it raises on its own.
        for value in values:
            require_probability_open(float(value), "threshold")  # type: ignore[arg-type]
    assert floats is not None
    return floats
