"""Spans for the traced run, and the in-process replay of the layers.

Spans are recorded only by the benchmark's own code, around its calls into
each layer's public functions; nothing inside ``src/`` is instrumented.
They are kept in memory and written out as JSON lines at the end of a run.
A span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from gen import Job, decade


@dataclass
class Span:
    span_id: int
    name: str
    rid: str
    parent: Optional[int]
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []

    @contextmanager
    def span(self, name: str, rid: str, parent: Optional[int] = None) -> Iterator[int]:
        record = Span(len(self.spans), name, rid, parent, time.perf_counter())
        self.spans.append(record)
        try:
            yield record.span_id
        finally:
            record.end = time.perf_counter()

    def add(self, name: str, rid: str, start: float, end: float,
            parent: Optional[int] = None) -> int:
        self.spans.append(Span(len(self.spans), name, rid, parent, start, end))
        return len(self.spans) - 1

    def self_times(self) -> Dict[int, float]:
        """Span id -> self time in seconds (duration minus covered children)."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.end - span.start
        return {
            span.span_id: span.end - span.start - covered.get(span.span_id, 0.0)
            for span in self.spans
        }

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.__dict__) + "\n")


def replay(jobs: List[Job], tracer: Tracer, cache) -> Dict:
    """Run ``jobs`` through the public layer functions in process, under spans.

    Layers: ``parse_request_payload`` (parse), ``problem.fingerprint`` and
    ``opq_key`` (fingerprint), ``PlanCache.queue_for`` (cache; a miss
    includes the Algorithm 2 build), ``OPQSolver`` / ``OPQExtendedSolver``
    with ``verify=False`` (cover), ``DecompositionPlan.is_feasible``
    (verify) and ``solve_response_to_dict`` + ``json.dumps`` (encode).
    Returns per-layer samples, keyed by layer name, and under ``identity``
    the problem fingerprint and cache outcome of each homogeneous request.
    """
    from repro.algorithms.opq import OPQSolver
    from repro.algorithms.opq_extended import OPQExtendedSolver
    from repro.engine.fingerprint import opq_key
    from repro.io.serialization import solve_response_to_dict
    from repro.service.api import SolveResponse
    from repro.service.normalize import parse_request_payload

    samples: Dict = {"frontier": [], "postings": [], "encode_bytes": [], "identity": {}}
    for job in jobs:
        rid = job.rid
        with tracer.span("replay", rid) as root:
            with tracer.span("parse", rid, root):
                request = parse_request_payload(json.loads(job.body))
            problem = request.problem
            # The facade's timer (a response's elapsed_seconds) does not
            # cover the problem fingerprint, so its span sits beside it.
            with tracer.span("fingerprint", rid, root):
                digest = problem.fingerprint
                if job.thresholds is None:
                    key = opq_key(problem.bins, job.threshold)
            with tracer.span("facade", rid, root) as facade:
                if job.thresholds is None:
                    hit = key in cache
                    samples["identity"][rid] = (digest, "hit" if hit else "miss")
                    with tracer.span("cache.lookup" if hit else "cache.build", rid, facade):
                        queue = cache.queue_for(problem.bins, job.threshold)
                    if not hit:
                        samples["frontier"].append(len(queue))
                    with tracer.span("cover", rid, facade):
                        result = OPQSolver(verify=False, prebuilt_queue=queue).solve(problem)
                else:
                    with tracer.span("cover", rid, facade):
                        result = OPQExtendedSolver(
                            verify=False, queue_factory=cache.queue_for
                        ).solve(problem)
                plan = result.plan
                with tracer.span("verify", rid, facade):
                    feasible = plan.is_feasible(problem.task)
            with tracer.span("encode", rid, root):
                body = json.dumps(solve_response_to_dict(SolveResponse(
                    request_id=rid, ok=True, solver=plan.solver, plan=plan,
                    total_cost=plan.total_cost, feasible=feasible, cache="hit",
                    elapsed_seconds=0.0, solve_seconds=result.elapsed_seconds,
                    problem_fingerprint=digest,
                )))
        samples["postings"].append(len(plan))
        samples["encode_bytes"].append(len(body))
    return samples


def layer_times(tracer: Tracer, jobs_by_rid: Dict[str, Job]) -> Dict[str, List[float]]:
    """Self times (ms) per layer, also split by n decade (``parse.n1e3`` ...)."""
    selfs = tracer.self_times()
    out: Dict[str, List[float]] = {}
    for span in tracer.spans:
        job = jobs_by_rid.get(span.rid)
        if job is None:
            continue
        ms = selfs[span.span_id] * 1000.0
        out.setdefault(span.name, []).append(ms)
        out.setdefault(f"{span.name}.{decade(job.n)}", []).append(ms)
    return out
