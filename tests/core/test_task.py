"""Tests for atomic tasks and large-scale crowdsourcing tasks."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import InvalidProblemError
from repro.core.task import AtomicTask, CrowdsourcingTask


class TestAtomicTask:
    def test_basic_construction(self):
        task = AtomicTask(3, 0.9)
        assert task.task_id == 3
        assert task.threshold == 0.9

    def test_required_residual_matches_log_transform(self):
        task = AtomicTask(0, 0.95)
        assert task.required_residual == pytest.approx(-math.log(0.05))

    def test_payload_defaults_to_empty_mapping(self):
        assert dict(AtomicTask(0).payload) == {}

    def test_payload_is_carried(self):
        task = AtomicTask(0, 0.9, payload={"truth": True})
        assert task.payload["truth"] is True

    def test_with_threshold_returns_new_task(self):
        task = AtomicTask(0, 0.9, payload={"truth": False})
        updated = task.with_threshold(0.99)
        assert updated.threshold == 0.99
        assert updated.task_id == 0
        assert task.threshold == 0.9

    def test_threshold_of_one_rejected(self):
        with pytest.raises(ValueError):
            AtomicTask(0, 1.0)

    def test_negative_id_rejected(self):
        with pytest.raises(InvalidProblemError):
            AtomicTask(-1, 0.9)


class TestCrowdsourcingTaskConstruction:
    def test_homogeneous_builder(self):
        task = CrowdsourcingTask.homogeneous(10, 0.9)
        assert len(task) == 10
        assert task.is_homogeneous
        assert task.thresholds == [0.9] * 10

    def test_heterogeneous_builder(self):
        task = CrowdsourcingTask.heterogeneous([0.8, 0.9, 0.95])
        assert len(task) == 3
        assert not task.is_homogeneous
        assert task.max_threshold == 0.95
        assert task.min_threshold == 0.8

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidProblemError):
            CrowdsourcingTask([AtomicTask(1, 0.9), AtomicTask(1, 0.9)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidProblemError):
            CrowdsourcingTask([])

    def test_zero_n_rejected(self):
        with pytest.raises(InvalidProblemError):
            CrowdsourcingTask.homogeneous(0, 0.9)

    def test_empty_thresholds_rejected(self):
        with pytest.raises(InvalidProblemError):
            CrowdsourcingTask.heterogeneous([])


class TestCrowdsourcingTaskViews:
    def test_iteration_preserves_order(self):
        task = CrowdsourcingTask.heterogeneous([0.8, 0.9, 0.7])
        assert [t.task_id for t in task] == [0, 1, 2]

    def test_indexing(self):
        task = CrowdsourcingTask.homogeneous(3, 0.9)
        assert task[1].task_id == 1

    def test_by_id_returns_matching_task(self):
        task = CrowdsourcingTask.heterogeneous([0.8, 0.9])
        assert task.by_id(1).threshold == 0.9

    def test_by_id_unknown_raises(self):
        task = CrowdsourcingTask.homogeneous(2, 0.9)
        with pytest.raises(KeyError):
            task.by_id(99)

    def test_single_task_is_homogeneous(self):
        assert CrowdsourcingTask.homogeneous(1, 0.9).is_homogeneous

    def test_subset_keeps_thresholds(self):
        task = CrowdsourcingTask.heterogeneous([0.8, 0.9, 0.95, 0.7])
        subset = task.subset([1, 3])
        assert sorted(t.task_id for t in subset) == [1, 3]
        assert subset.by_id(3).threshold == 0.7

    def test_subset_unknown_id_raises(self):
        task = CrowdsourcingTask.homogeneous(3, 0.9)
        with pytest.raises(KeyError):
            task.subset([0, 5])

    @given(st.lists(st.floats(min_value=0.5, max_value=0.99), min_size=1, max_size=50))
    def test_threshold_extremes_match_python_min_max(self, thresholds):
        task = CrowdsourcingTask.heterogeneous(thresholds)
        assert task.max_threshold == max(thresholds)
        assert task.min_threshold == min(thresholds)


class TestCompactTasks:
    """Tasks from the builders hold ids and thresholds, not AtomicTasks."""

    def test_homogeneous_ids_are_a_range(self):
        task = CrowdsourcingTask.homogeneous(5, 0.9)
        assert task.task_ids == range(5)
        assert [(a.task_id, a.threshold) for a in task] == [(i, 0.9) for i in range(5)]

    def test_heterogeneous_views(self):
        task = CrowdsourcingTask.heterogeneous([0.8, 0.9, 0.8])
        assert task.common_threshold is None
        assert task.distinct_thresholds() == [0.8, 0.9]
        assert task[1] == AtomicTask(1, 0.9)
        assert task.by_id(2).threshold == 0.8

    def test_common_threshold(self):
        assert CrowdsourcingTask.homogeneous(3, 0.9).common_threshold == 0.9
        assert CrowdsourcingTask.heterogeneous([0.7, 0.7]).common_threshold == 0.7
        generic = CrowdsourcingTask([AtomicTask(4, 0.6), AtomicTask(9, 0.6)])
        assert generic.common_threshold == 0.6
        assert generic.task_ids == (4, 9)

    @pytest.mark.parametrize(
        "thresholds,message",
        [
            ([0.5, 1.5, "x"], "got 1.5"),
            ([0.5, "x", 1.5], "could not convert"),
            ([0.5, float("nan")], "got nan"),
        ],
    )
    def test_heterogeneous_rejects_the_first_bad_value(self, thresholds, message):
        with pytest.raises(ValueError, match=message):
            CrowdsourcingTask.heterogeneous(thresholds)

    def test_map_thresholds(self):
        task = CrowdsourcingTask.heterogeneous([0.5, 0.9, 0.99])
        assert task.map_thresholds(lambda t: t) is task
        capped = task.map_thresholds(lambda t: min(t, 0.95))
        assert capped.thresholds == [0.5, 0.9, 0.95]
        homogeneous = CrowdsourcingTask.homogeneous(3, 0.99)
        assert homogeneous.map_thresholds(lambda t: 0.9).thresholds == [0.9] * 3
        with pytest.raises(ValueError):
            homogeneous.map_thresholds(lambda t: 1.0)

    def test_map_thresholds_keeps_payloads(self):
        task = CrowdsourcingTask([AtomicTask(3, 0.99, payload={"truth": True})])
        mapped = task.map_thresholds(lambda t: 0.9)
        assert mapped.by_id(3).payload["truth"] is True
        assert mapped.by_id(3).threshold == 0.9
