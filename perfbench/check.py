"""Output checker, independent of the serving path.

Feasibility is recomputed with the benchmark's own arithmetic: every task's
miss probability, the product of ``1 - r`` over the postings that hold it,
must not exceed ``1 - t``.  The plan's bins must be bins of the menu in
force, and ``total_cost`` must equal both the sum of the posting costs and
the cost the reference pure-Python solver gives for the same input.  The
reference runs once per distinct input, after the timed phases.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from gen import TABLE_1, Job, Menu, solve_job

#: Relative slack on the feasibility product and on cost equality.
REL_TOL = 1e-9


class Checker:
    """Checks stored responses; see the module docstring for the rules."""

    def __init__(self, allow_recalibrated: bool = False) -> None:
        from repro.algorithms.opq import build_optimal_priority_queue

        self._build = build_optimal_priority_queue
        self._queues: Dict[Tuple[Menu, float], object] = {}
        self._costs: Dict[Tuple, float] = {}
        self._fingerprints: Dict[Tuple, str] = {}
        self.allow_recalibrated = allow_recalibrated
        self.recalibrated = 0
        #: Recalibrated menu fingerprint -> confidence per cardinality seen.
        self._in_force: Dict[str, Dict[int, float]] = {}

    # -- the reference ---------------------------------------------------------

    def _queue(self, bins, menu: Menu, threshold: float):
        key = (menu, threshold)
        if key not in self._queues:
            self._queues[key] = self._build(bins, threshold)
        return self._queues[key]

    def _problem(self, job: Job):
        from repro.core.bins import TaskBinSet
        from repro.core.problem import SladeProblem

        bins = TaskBinSet.from_triples(list(job.menu))
        if job.thresholds is not None:
            return bins, SladeProblem.heterogeneous(job.thresholds, bins)
        return bins, SladeProblem.homogeneous(job.n, job.threshold, bins)

    def _key(self, job: Job) -> Tuple:
        return (job.menu, job.n, job.threshold, tuple(job.thresholds or ()))

    def reference_cost(self, job: Job) -> float:
        """Total cost of the pure-Python reference solver on ``job``'s input."""
        key = self._key(job)
        if key not in self._costs:
            from repro.algorithms.opq import OPQSolver
            from repro.algorithms.opq_extended import OPQExtendedSolver

            bins, problem = self._problem(job)
            if job.thresholds is not None:
                solver = OPQExtendedSolver(
                    verify=False,
                    queue_factory=lambda b, t: self._queue(b, job.menu, t),
                )
            else:
                solver = OPQSolver(
                    verify=False,
                    prebuilt_queue=self._queue(bins, job.menu, job.threshold),
                )
            self._costs[key] = solver.solve(problem).plan.total_cost
        return self._costs[key]

    def _original_fingerprint(self, job: Job) -> str:
        key = self._key(job)
        if key not in self._fingerprints:
            self._fingerprints[key] = self._problem(job)[1].fingerprint
        return self._fingerprints[key]

    # -- checks ----------------------------------------------------------------

    def check(self, job: Job, status: int, response: Optional[Dict]) -> Optional[str]:
        """``None`` when the response is right, else the reason it is not."""
        if status != 200:
            return f"HTTP {status}"
        if response is None:
            return "undecodable body"
        if not job.is_solve:
            return None if isinstance(response.get("recorded"), int) else "bad feedback reply"
        if not response.get("ok"):
            return f"ok=false: {response.get('error')}"
        plan = response.get("plan")
        if plan is None:
            return "no plan body"
        recalibrated = (
            self.allow_recalibrated
            and response.get("problem_fingerprint") != self._original_fingerprint(job)
        )
        problem = plan_problems(job, plan, response.get("total_cost"), recalibrated)
        if problem is not None:
            return problem
        if recalibrated:
            # Served under a recalibrated menu the benchmark cannot see in
            # full: feasibility under the confidences in force is checked
            # above, and every response of one recalibrated problem must
            # carry the same confidence per cardinality.  The reference cost
            # is not comparable.
            in_force = self._in_force.setdefault(response["problem_fingerprint"], {})
            for posting in plan["assignments"]:
                seen = in_force.setdefault(posting["cardinality"], posting["confidence"])
                if seen != posting["confidence"]:
                    return (f"confidence {posting['confidence']} for {posting['cardinality']} "
                            f"differs from {seen} under the same recalibrated menu")
            self.recalibrated += 1
            return None
        expected = self.reference_cost(job)
        if abs(response["total_cost"] - expected) > REL_TOL * max(1.0, expected):
            return f"total_cost {response['total_cost']} != reference {expected}"
        return None


def plan_problems(
    job: Job, plan: Dict, total_cost: Optional[float], recalibrated: bool = False
) -> Optional[str]:
    """Feasibility and pricing of one plan body, in the benchmark's own arithmetic."""
    menu = {cardinality: (confidence, cost) for cardinality, confidence, cost in job.menu}
    thresholds = job.task_thresholds()
    n = len(thresholds)
    miss = [1.0] * n
    cost_sum = 0.0
    in_force: Dict[int, float] = {}
    for posting in plan.get("assignments", ()):
        cardinality = posting["cardinality"]
        confidence = posting["confidence"]
        ids = posting["task_ids"]
        if cardinality not in menu or posting["cost"] != menu[cardinality][1]:
            return f"posting on a bin outside the menu: {cardinality}"
        if confidence != menu[cardinality][0] and not (recalibrated and 0 < confidence < 1):
            return f"posting confidence {confidence} not in force for {cardinality}"
        if in_force.setdefault(cardinality, confidence) != confidence:
            return f"two confidences for cardinality {cardinality} in one plan"
        if not ids or len(ids) > cardinality:
            return f"posting holds {len(ids)} tasks in a bin of {cardinality}"
        cost_sum += posting["cost"]
        keep = 1.0 - confidence
        for task in ids:
            if not 0 <= task < n:
                return f"posting names unknown task {task}"
            miss[task] *= keep
    for task in range(n):
        if miss[task] > (1.0 - thresholds[task]) * (1.0 + REL_TOL):
            return f"task {task} misses its threshold {thresholds[task]}"
    if total_cost is None or abs(total_cost - cost_sum) > REL_TOL * max(1.0, cost_sum):
        return f"total_cost {total_cost} != posting sum {cost_sum}"
    return None


def self_test() -> None:
    """The checker must flag a plan with one posting dropped."""
    from repro.algorithms.opq import OPQSolver
    from repro.core.bins import TaskBinSet
    from repro.core.problem import SladeProblem

    job = solve_job("self-test", "table1", TABLE_1, 12, 0.95)
    bins = TaskBinSet.from_triples(list(TABLE_1))
    plan = OPQSolver(verify=False).solve(SladeProblem.homogeneous(12, 0.95, bins)).plan
    body: Dict = {
        "assignments": [
            {
                "cardinality": a.task_bin.cardinality,
                "confidence": a.task_bin.confidence,
                "cost": a.task_bin.cost,
                "task_ids": list(a.task_ids),
            }
            for a in plan
        ]
    }
    total = sum(entry["cost"] for entry in body["assignments"])
    if plan_problems(job, body, total) is not None:
        raise RuntimeError("checker self-test: the reference plan was rejected")
    dropped = dict(body, assignments=body["assignments"][1:])
    total = sum(entry["cost"] for entry in dropped["assignments"])
    if plan_problems(job, dropped, total) is None:
        raise RuntimeError("checker self-test: a plan with a posting dropped passed")
    # Under a recalibrated menu one cardinality still has one confidence.
    first = body["assignments"][0]
    split = dict(body, assignments=body["assignments"] + [
        dict(first, confidence=first["confidence"] - 0.01)])
    total = sum(entry["cost"] for entry in split["assignments"])
    if plan_problems(job, split, total, recalibrated=True) is None:
        raise RuntimeError("checker self-test: two confidences for one cardinality passed")


def check_all(checker: Checker, records: List) -> Tuple[int, List[str]]:
    """Check every stored record; return (failures, first few reasons)."""
    failures = 0
    reasons: List[str] = []
    for record in records:
        try:
            response = json.loads(record.body)
        except ValueError:
            response = None
        reason = checker.check(record.job, record.status, response)
        if isinstance(response, dict):
            # Plans of large inputs are dropped once checked, to bound memory.
            if record.job.n > 1000:
                response.pop("plan", None)
            record.reply = response
        record.body = b""
        if reason is not None:
            failures += 1
            if len(reasons) < 5:
                reasons.append(f"{record.job.rid}: {reason}")
    return failures, reasons
