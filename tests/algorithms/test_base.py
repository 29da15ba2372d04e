"""Tests for the solver base class and SolveResult."""

import pytest

from repro.algorithms.base import Solver, SolveResult
from repro.algorithms.opq import OPQSolver
from repro.core.errors import InfeasiblePlanError
from repro.core.plan import DecompositionPlan
from repro.core.problem import SladeProblem


class _FeasibleStub(Solver):
    """Covers every task with enough 1-cardinality bins to pass verification."""

    name = "stub-feasible"

    def _solve(self, problem: SladeProblem) -> DecompositionPlan:
        plan = DecompositionPlan()
        task_bin = problem.bins[1]
        for atomic in problem.task:
            needed = 0.0
            while True:
                plan.add(task_bin, (atomic.task_id,))
                needed += task_bin.residual_contribution
                if needed >= atomic.required_residual:
                    break
        self.record("touched", problem.n)
        return plan


class _InfeasibleStub(Solver):
    """Returns an empty plan; verification must fail."""

    name = "stub-infeasible"

    def _solve(self, problem: SladeProblem) -> DecompositionPlan:
        return DecompositionPlan()


class TestSolverWrapper:
    def test_solve_returns_result_with_metadata(self, example4_problem):
        result = _FeasibleStub().solve(example4_problem)
        assert isinstance(result, SolveResult)
        assert result.solver == "stub-feasible"
        assert result.metadata["touched"] == 4
        assert result.feasible
        assert result.elapsed_seconds >= 0.0

    def test_plan_is_tagged_with_solver_name(self, example4_problem):
        result = _FeasibleStub().solve(example4_problem)
        assert result.plan.solver == "stub-feasible"

    def test_verification_failure_raises(self, example4_problem):
        with pytest.raises(InfeasiblePlanError):
            _InfeasibleStub().solve(example4_problem)

    def test_verification_can_be_disabled(self, example4_problem):
        result = _InfeasibleStub(verify=False).solve(example4_problem)
        assert not result.feasible

    def test_metadata_reset_between_calls(self, example4_problem):
        solver = _FeasibleStub()
        first = solver.solve(example4_problem)
        second = solver.solve(example4_problem)
        assert first.metadata == second.metadata
        assert first.metadata is not second.metadata


class TestSolveResultSummary:
    def test_summary_flattens_metadata(self, example4_problem):
        result = _FeasibleStub().solve(example4_problem)
        summary = result.summary()
        assert summary["solver"] == "stub-feasible"
        assert summary["n"] == 4
        assert summary["meta_touched"] == 4
        assert summary["total_cost"] == pytest.approx(result.total_cost)


def test_feasible_reuses_the_solves_own_check(table1_bins):
    problem = SladeProblem.homogeneous(30, 0.9, table1_bins)
    checked = OPQSolver().solve(problem)
    assert checked.verified is True and checked.feasible is True
    unchecked = OPQSolver(verify=False).solve(problem)
    assert unchecked.verified is None and unchecked.feasible is True
