"""Compact block plans: runs must expand to exactly the per-block plans.

The OPQ covers append one run per head combination instead of one posting at
a time, and inline requests parse into compact tasks.  The oracle here is a
test-local copy of the cover as it ran before plans held runs: it
materialises every block posting by posting.  Expanded plans, wire bytes and
``total_cost`` bits must match it; the verifier must still reject broken
tilings; and a homogeneous solve must stay a handful of segments without
building per-task objects.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms.anytime import AnytimeSolver
from repro.algorithms.greedy import GreedySolver
from repro.algorithms.opq import OPQSolver, build_optimal_priority_queue
from repro.algorithms.opq_extended import (
    OPQExtendedSolver,
    assign_to_groups,
    build_opq_set,
)
from repro.core.bins import TaskBinSet
from repro.core.errors import InfeasiblePlanError
from repro.core.plan import BinAssignment, BlockTemplate, DecompositionPlan
from repro.core.problem import SladeProblem
from repro.core.task import AtomicTask, CrowdsourcingTask
from repro.datasets.jelly import jelly_bin_set
from repro.datasets.smic import smic_bin_set
from repro.io.serialization import (
    plan_to_dict,
    plan_to_json,
    solve_response_to_dict,
    solve_response_to_json,
)
from repro.service.api import SolveRequest, SolveResponse
from repro.service.facade import SladeService
from repro.service.normalize import parse_request_payload
from repro.utils.hashing import float_token, stable_digest
from repro.utils.logmath import RESIDUAL_EPSILON, residual_from_reliability

TABLE1 = [(1, 0.9, 0.10), (2, 0.85, 0.18), (3, 0.8, 0.24)]
#: No cardinality-1 bin, so small remainders fall back to partial blocks.
NO_SINGLES = [(2, 0.8, 0.15), (3, 0.75, 0.2), (5, 0.7, 0.3)]


# -- the oracle: the cover as it ran before plans held runs --------------------


def _materialise_block(plan, combination, block):
    lcm = combination.lcm
    for cardinality, count in combination.counts:
        task_bin = combination.bins[cardinality]
        for _round in range(count):
            for g in range(lcm // cardinality):
                members = tuple(block[g * cardinality:(g + 1) * cardinality])
                if members:
                    plan.add(task_bin, members)


def materialised_cover(plan, queue, task_ids):
    """Algorithm 3 posting by posting; returns the branches it took."""
    pending = list(task_ids)
    elements = queue.elements()
    previous = None
    previous_block_cost = float("inf")
    branches = []
    while pending:
        remaining = len(pending)
        while elements and elements[0].lcm > remaining:
            elements.pop(0)
        if not elements:
            fallback = previous
            if fallback is None:
                fallback = min(queue.elements(), key=lambda comb: comb.block_cost)
                branches.append("fallback-cheapest")
            else:
                branches.append("fallback-previous")
            _materialise_block(plan, fallback, pending)
            break
        head = elements[0]
        blocks = remaining // head.lcm
        if previous is not None and blocks * head.block_cost > previous_block_cost:
            branches.append("reuse-previous")
            _materialise_block(plan, previous, pending)
            break
        for _block in range(blocks):
            block, pending = pending[:head.lcm], pending[head.lcm:]
            _materialise_block(plan, head, block)
        branches.append("run")
        previous = head
        previous_block_cost = head.block_cost
    return branches


def materialised_groups(plan, problem, groups):
    """Algorithm 5 over materialised covers, each group in task order."""
    residuals = {
        atomic.task_id: residual_from_reliability(atomic.threshold)
        for atomic in problem.task
    }
    membership = assign_to_groups(residuals, groups)
    for group in groups:
        if membership[group.index]:
            materialised_cover(plan, group.queue, membership[group.index])


def reference_opq(problem):
    plan = DecompositionPlan(solver="opq")
    queue = build_optimal_priority_queue(problem.bins, problem.task.thresholds[0])
    branches = materialised_cover(plan, queue, [a.task_id for a in problem.task])
    return plan, branches


def reference_opq_extended(problem):
    plan = DecompositionPlan(solver="opq-extended")
    groups = build_opq_set(problem.bins, [a.threshold for a in problem.task])
    materialised_groups(plan, problem, groups)
    return plan


def reference_fingerprint(problem):
    task_digest = stable_digest(
        ("crowdsourcing_task",)
        + tuple(f"{a.task_id}:{float_token(a.threshold)}" for a in problem.task)
    )
    return stable_digest(("slade_problem", task_digest, problem.bins.fingerprint))


def reference_unsatisfied(plan, task):
    totals = {}
    for assignment in plan:
        for task_id in assignment.task_ids:
            totals[task_id] = (
                totals.get(task_id, 0.0) + assignment.task_bin.residual_contribution
            )
    return [
        a.task_id for a in task
        if totals.get(a.task_id, 0.0) + RESIDUAL_EPSILON
        < residual_from_reliability(a.threshold)
    ]


def assert_same_plan(plan, reference):
    """Same postings in the same order, same bytes, same cost bits."""
    assert plan.total_cost.hex() == reference.total_cost.hex()
    assert len(plan) == len(reference)
    assert plan.bin_usage() == reference.bin_usage()
    assert list(plan) == list(reference)
    assert json.dumps(plan_to_dict(plan)) == json.dumps(plan_to_dict(reference))
    assert plan_to_json(plan) == json.dumps(plan_to_dict(reference))


# -- equivalence ----------------------------------------------------------------

#: The golden-regression grid: both datasets, its cardinalities, n and thresholds.
GOLDEN_GRID = [
    (dataset, cardinality, n, threshold)
    for dataset in ("jelly", "smic")
    for cardinality in (2, 8, 20)
    for n in (200, 400, 800)
    for threshold in (0.87, 0.92, 0.97)
]


def _menu(dataset, cardinality):
    return (jelly_bin_set if dataset == "jelly" else smic_bin_set)(cardinality)


class TestEquivalence:
    @pytest.mark.parametrize("dataset,cardinality,n,threshold", GOLDEN_GRID)
    def test_golden_grid_homogeneous(self, dataset, cardinality, n, threshold):
        problem = SladeProblem.homogeneous(n, threshold, _menu(dataset, cardinality))
        reference, _branches = reference_opq(problem)
        assert_same_plan(OPQSolver().solve(problem).plan, reference)

    @pytest.mark.parametrize("dataset", ["jelly", "smic"])
    @pytest.mark.parametrize("mu", [0.85, 0.9, 0.95])
    def test_golden_grid_heterogeneous(self, dataset, mu):
        rng = random.Random(f"{dataset}:{mu}")
        thresholds = [
            min(0.99, max(0.5, round(rng.gauss(mu, 0.03), 3))) for _ in range(400)
        ]
        problem = SladeProblem.heterogeneous(thresholds, _menu(dataset, 20))
        assert_same_plan(
            OPQExtendedSolver().solve(problem).plan, reference_opq_extended(problem)
        )

    @pytest.mark.parametrize(
        "triples,n,threshold,branch",
        [
            (NO_SINGLES, 1, 0.9, "fallback-cheapest"),
            (NO_SINGLES, 14, 0.9, "fallback-previous"),
            (smic_bin_set(8), 15, 0.97, "reuse-previous"),
            (jelly_bin_set(20), 25, 0.85, "reuse-previous"),
        ],
    )
    def test_partial_block_branches(self, triples, n, threshold, branch):
        bins = triples if isinstance(triples, TaskBinSet) else TaskBinSet.from_triples(triples)
        problem = SladeProblem.homogeneous(n, threshold, bins)
        reference, branches = reference_opq(problem)
        assert branches[-1] == branch
        plan = OPQSolver().solve(problem).plan
        assert_same_plan(plan, reference)
        assert len(plan.segments) == len(branches)

    def test_non_contiguous_groups(self, table1_bins):
        # Interleaved thresholds put every group on a non-contiguous id list.
        thresholds = [0.5, 0.95, 0.7, 0.5, 0.86, 0.95, 0.6, 0.7] * 25
        problem = SladeProblem.heterogeneous(thresholds, table1_bins)
        plan = OPQExtendedSolver().solve(problem).plan
        assert_same_plan(plan, reference_opq_extended(problem))
        sources = {id(segment.task_ids) for segment in plan.segments}
        assert len(sources) > 1
        assert plan.is_feasible(problem.task)

    @pytest.mark.parametrize(
        "thresholds",
        [[0.93] * 500, [0.5, 0.95, 0.7, 0.86] * 100],
        ids=["homogeneous", "heterogeneous"],
    )
    def test_anytime_outputs(self, table1_bins, thresholds):
        problem = SladeProblem.heterogeneous(thresholds, table1_bins)
        if problem.is_homogeneous:
            opq, _branches = reference_opq(problem)
        else:
            opq = reference_opq_extended(problem)
        greedy = GreedySolver().solve(problem).plan
        reference = opq if opq.total_cost <= greedy.total_cost else greedy
        reference.solver = AnytimeSolver.name
        assert_same_plan(AnytimeSolver().solve(problem).plan, reference)

    def test_generic_task_with_upstream_ids(self, table1_bins):
        task = CrowdsourcingTask([AtomicTask(7 * i + 3, 0.93) for i in range(100)])
        problem = SladeProblem(task, table1_bins)
        reference = DecompositionPlan(solver="opq")
        materialised_cover(
            reference,
            build_optimal_priority_queue(table1_bins, 0.93),
            [a.task_id for a in task],
        )
        plan = OPQSolver().solve(problem).plan
        assert_same_plan(plan, reference)
        assert plan.is_feasible(task)

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 1001, "threshold": 0.93},
            {"n": 77, "threshold": 0.9, "solver": "anytime"},
            {"thresholds": [0.5, 0.95, 0.7, 0.86] * 50, "solver": "opq-extended"},
        ],
        ids=["opq", "anytime", "opq-extended"],
    )
    def test_served_responses_match(self, payload):
        body = {"kind": "solve_request", "schema_version": 2, "bins": TABLE1}
        body.update(payload)
        request = parse_request_payload(json.loads(json.dumps(body)))
        with SladeService() as service:
            response = service.solve(request)
        problem = request.problem
        if response.solver == "opq-extended":
            reference_plan = reference_opq_extended(problem)
        else:
            reference_plan, _branches = reference_opq(problem)
        reference_plan.solver = response.solver
        reference = SolveResponse(
            request_id=response.request_id,
            ok=True,
            solver=response.solver,
            plan=reference_plan,
            total_cost=reference_plan.total_cost,
            feasible=not reference_unsatisfied(reference_plan, problem.task),
            cache=response.cache,
            elapsed_seconds=0.0,
            solve_seconds=0.0,
            problem_fingerprint=reference_fingerprint(problem),
            provenance=response.provenance,
        )
        served = solve_response_to_dict(response)
        assert solve_response_to_json(response) == json.dumps(served)
        served.update(elapsed_seconds=0.0, solve_seconds=0.0)
        assert json.dumps(served) == json.dumps(solve_response_to_dict(reference))


class TestSegmentEncoder:
    """``plan_to_json`` writes postings from block templates, not dicts."""

    def test_overlapping_postings_name_their_slots(self, table1_bins):
        # A template may post one slot in several bins, out of slot order.
        template = BlockTemplate(
            3, ((table1_bins[2], 1, 3), (table1_bins[3], 0, 3), (table1_bins[1], 0, 1))
        )
        plan = DecompositionPlan(solver="opq")
        plan.add_run(template, 4, range(100, 112))
        plan.add_run(template, 2, [9, 4, 7, 1, 3, 8, 5], offset=1)
        assert plan_to_json(plan) == json.dumps(plan_to_dict(plan))

    @pytest.mark.parametrize(
        "task_ids",
        [["a", "b", "c", "d", "e", "f"], [4, 5, True, 7, 8, 9], list(range(6))],
        ids=["strings", "bool", "ints"],
    )
    def test_runs_of_other_ids_match_json(self, table1_bins, task_ids):
        # str.format writes True and "a" unlike JSON: such runs take the dicts.
        template = BlockTemplate(3, ((table1_bins[2], 0, 2), (table1_bins[1], 2, 3)))
        plan = DecompositionPlan(solver="opq")
        plan.add_run(template, 2, task_ids)
        plan.add(table1_bins[3], task_ids[:3])
        assert plan_to_json(plan) == json.dumps(plan_to_dict(plan))

    def test_empty_plan(self):
        plan = DecompositionPlan()
        assert plan_to_json(plan) == json.dumps(plan_to_dict(plan))

    @pytest.mark.parametrize("include_plan", [True, False])
    def test_responses_with_and_without_plans(self, table1_bins, include_plan):
        problem = SladeProblem.homogeneous(1000, 0.9, table1_bins)
        plan = OPQSolver().solve(problem).plan
        timing = {"cache": "miss", "elapsed_seconds": 0.25, "solve_seconds": 0.125}
        for response in (
            SolveResponse(request_id='r "plan": null}', ok=True, solver="opq", plan=plan,
                          total_cost=plan.total_cost, feasible=True, **timing),
            SolveResponse(request_id="failed", ok=False, solver=None, plan=None,
                          total_cost=None, feasible=None, **timing),
        ):
            assert solve_response_to_json(response, include_plan) == json.dumps(
                solve_response_to_dict(response, include_plan)
            )


bin_sets = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.35, max_value=0.97),
        st.floats(min_value=0.02, max_value=2.0),
    ),
    min_size=1,
    max_size=5,
    unique_by=lambda triple: triple[0],
).map(TaskBinSet.from_triples)

_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestEquivalenceProperties:
    @_SETTINGS
    @given(bin_sets, st.integers(min_value=1, max_value=300),
           st.floats(min_value=0.5, max_value=0.98))
    def test_homogeneous_runs_expand_to_materialised_blocks(self, bins, n, threshold):
        problem = SladeProblem.homogeneous(n, threshold, bins)
        reference, branches = reference_opq(problem)
        plan = OPQSolver().solve(problem).plan
        assert_same_plan(plan, reference)
        assert len(plan.segments) == len(branches)

    @_SETTINGS
    @given(bin_sets, st.lists(
        st.sampled_from([0.5, 0.62, 0.8, 0.9, 0.95, 0.98]), min_size=1, max_size=120
    ))
    def test_heterogeneous_groups_expand_to_materialised_blocks(self, bins, thresholds):
        problem = SladeProblem.heterogeneous(thresholds, bins)
        plan = OPQExtendedSolver().solve(problem).plan
        assert_same_plan(plan, reference_opq_extended(problem))

    @_SETTINGS
    @given(st.integers(min_value=1, max_value=2500),
           st.floats(min_value=0.0, max_value=0.999))
    def test_fingerprint_matches_per_task_digest(self, n, threshold):
        problem = SladeProblem.homogeneous(n, threshold, jelly_bin_set(3))
        assert problem.fingerprint == reference_fingerprint(problem)
        mixed = SladeProblem.heterogeneous(
            [threshold, 0.5] * n, jelly_bin_set(3)
        )
        assert mixed.fingerprint == reference_fingerprint(mixed)


# -- the verifier -----------------------------------------------------------------


def _run_plan(bins, threshold, blocks):
    """A plan of ``blocks`` head blocks over a task of exactly that many slots."""
    head = build_optimal_priority_queue(bins, threshold).head
    template = head.block_template()
    task = CrowdsourcingTask.homogeneous(template.width * blocks, threshold)
    return head, template, task


def _assert_rejected(plan, task, failing=None):
    assert not plan.is_feasible(task)
    with pytest.raises(InfeasiblePlanError):
        plan.require_feasible(task)
    assert plan.unsatisfied_tasks(task) == reference_unsatisfied(plan, task)
    if failing is not None:
        assert plan.unsatisfied_tasks(task) == failing


class TestVerifier:
    def test_control_full_tiling_is_feasible(self, table1_bins):
        _head, template, task = _run_plan(table1_bins, 0.95, 6)
        plan = DecompositionPlan()
        plan.add_run(template, 6, task.task_ids)
        assert plan.is_feasible(task)
        assert plan.require_feasible(task) is plan

    def test_template_with_one_posting_dropped(self, table1_bins):
        _head, template, task = _run_plan(table1_bins, 0.95, 6)
        dropped = BlockTemplate(template.width, template.postings[:-1])
        plan = DecompositionPlan()
        plan.add_run(dropped, 6, task.task_ids)
        _assert_rejected(plan, task)

    def test_overlapping_segments(self, table1_bins):
        # The second run starts one slot early: it double-covers a task and,
        # with as many slots as tasks, leaves the last task uncovered.
        _head, template, task = _run_plan(table1_bins, 0.95, 6)
        span = template.width * 3
        plan = DecompositionPlan()
        plan.add_run(template, 3, task.task_ids, 0)
        plan.add_run(template, 3, task.task_ids, span - 1)
        _assert_rejected(plan, task, failing=[len(task) - 1])

    def test_overlap_without_a_gap_is_judged_task_by_task(self, table1_bins):
        # Posting a task twice only adds reliability, as in greedy plans.
        _head, template, task = _run_plan(table1_bins, 0.95, 6)
        plan = DecompositionPlan()
        plan.add_run(template, 6, task.task_ids)
        plan.add_run(template, 1, task.task_ids, 0)
        assert plan.is_feasible(task)

    def test_gap_in_the_tiling(self, table1_bins):
        _head, template, task = _run_plan(table1_bins, 0.95, 6)
        width = template.width
        plan = DecompositionPlan()
        plan.add_run(template, 2, task.task_ids, 0)
        plan.add_run(template, 3, task.task_ids, 3 * width)
        _assert_rejected(plan, task, failing=list(range(2 * width, 3 * width)))

    def test_task_threshold_above_its_runs_combination(self, table1_bins):
        thresholds = [0.5, 0.95, 0.7, 0.86] * 30
        problem = SladeProblem.heterogeneous(thresholds, table1_bins)
        plan = OPQExtendedSolver().solve(problem).plan
        # Task 6 sits mid-run in the group of 0.7 and 0.86 (tasks 2, 3, 6, ...).
        raised = list(thresholds)
        raised[6] = 0.999
        _assert_rejected(plan, CrowdsourcingTask.heterogeneous(raised), failing=[6])

    def test_duplicate_ids_in_a_source_do_not_tile(self, table1_bins):
        _head, template, task = _run_plan(table1_bins, 0.95, 2)
        doubled = list(task.task_ids)[: template.width] * 2
        plan = DecompositionPlan()
        plan.add_run(template, 2, doubled)
        _assert_rejected(plan, task, failing=list(range(template.width, len(task))))


# -- structure: a homogeneous plan stays a few runs ----------------------------------


class TestStructure:
    def test_table1_million_tasks_is_a_few_runs_and_no_per_task_objects(self, monkeypatch):
        constructed = {"BinAssignment": 0, "AtomicTask": 0}

        def counting(cls):
            original = cls.__post_init__

            def post_init(self):
                constructed[cls.__name__] += 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", post_init)

        counting(BinAssignment)
        counting(AtomicTask)
        request = parse_request_payload({
            "kind": "solve_request", "schema_version": 2,
            "n": 1_000_000, "threshold": 0.93, "bins": TABLE1,
        })
        with SladeService() as service:
            response = service.solve(request)
        assert response.ok and response.feasible
        queue = build_optimal_priority_queue(
            TaskBinSet.from_triples(TABLE1), 0.93
        )
        plan = response.plan
        assert len(plan.segments) <= len(queue) + 1
        assert len(plan) > 1_000_000 // 3
        assert response.total_cost == plan.total_cost
        assert constructed == {"BinAssignment": 0, "AtomicTask": 0}

    def test_solve_verifies_once(self, monkeypatch):
        calls = []
        original = DecompositionPlan.unsatisfied_tasks

        def counted(self, task):
            calls.append(len(task))
            return original(self, task)

        monkeypatch.setattr(DecompositionPlan, "unsatisfied_tasks", counted)
        problem = SladeProblem.homogeneous(500, 0.9, jelly_bin_set(10))
        with SladeService() as service:
            response = service.solve(SolveRequest(problem=problem))
        assert response.feasible is True
        assert calls == [500]
