"""Seeded request generators for the benchmark's two workloads.

The menus are frozen here as literals (Table 1 of the paper, and the
Jelly/SMIC menus at maximum cardinality 20), so a change to
``repro.datasets`` cannot change what the benchmark sends.  Every random
choice comes from ``random.Random`` streams keyed by the run's seed and the
phase name: the same seed gives the same requests.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

Menu = Tuple[Tuple[int, float, float], ...]

TABLE_1: Menu = ((1, 0.9, 0.1), (2, 0.85, 0.18), (3, 0.8, 0.24))
JELLY_20 = (
    (1, 0.986, 0.04),
    (2, 0.971133611703598, 0.04),
    (3, 0.9572999780846698, 0.04),
    (4, 0.9444273546009246, 0.04),
    (5, 0.9324489807391548, 0.05),
    (6, 0.9213027337792006, 0.05),
    (7, 0.9109308066106215, 0.05),
    (8, 0.901279407931155, 0.05),
    (9, 0.89229848327212, 0.05),
    (10, 0.8839414554039352, 0.05),
    (11, 0.876164982775434, 0.05),
    (12, 0.8689287347341834, 0.05),
    (13, 0.8621951823620464, 0.05),
    (14, 0.8559294038412101, 0.05),
    (15, 0.8500989033412617, 0.06),
    (16, 0.844673442488017, 0.06),
    (17, 0.8396248835400586, 0.06),
    (18, 0.8349270434596592, 0.06),
    (19, 0.8305555581212674, 0.06),
    (20, 0.826487755953308, 0.06),
)
SMIC_20 = (
    (1, 0.855, 0.03),
    (2, 0.8359355373373919, 0.03),
    (3, 0.8181243634217286, 0.04),
    (4, 0.8014840876443149, 0.04),
    (5, 0.7859377357160529, 0.04),
    (6, 0.7714133936011568, 0.04),
    (7, 0.7578438748584966, 0.04),
    (8, 0.7451664098517639, 0.04),
    (9, 0.7333223553908153, 0.04),
    (10, 0.7222569234610551, 0.04),
    (11, 0.711918927786021, 0.05),
    (12, 0.7022605470508243, 0.05),
    (13, 0.6932371036911705, 0.05),
    (14, 0.6848068572246833, 0.05),
    (15, 0.6769308111685302, 0.06),
    (16, 0.6695725326501927, 0.06),
    (17, 0.6626979838769376, 0.06),
    (18, 0.6562753646844067, 0.06),
    (19, 0.6502749654359867, 0.07),
    (20, 0.6446690295925054, 0.07),
)

MENUS: Dict[str, Menu] = {"table1": TABLE_1, "jelly20": JELLY_20, "smic20": SMIC_20}

#: Offered rate of the pinned phase of the open-loop workload.
PINNED_RPS = 40.0
#: Interval between feedback batches on drift-feedback.
FEEDBACK_INTERVAL_S = 0.1
#: Observations per cardinality in one feedback batch.
FEEDBACK_PER_CARDINALITY = 2
#: Accuracy drop applied to the drifted menu from drift onset on.
DRIFT_DROP = 0.10


def stream(seed: object, *phase: object) -> random.Random:
    """An independent random stream for one phase of one seeded run."""
    return random.Random(":".join(str(part) for part in (seed,) + phase))


@dataclass
class Job:
    """One request the benchmark sends, with what the checker needs."""

    rid: str
    path: str
    body: bytes
    lineage: str = ""
    menu: Menu = ()
    n: int = 0
    threshold: Optional[float] = None
    thresholds: Optional[List[float]] = None

    @property
    def is_solve(self) -> bool:
        return self.path == "/v2/solve"

    def task_thresholds(self) -> List[float]:
        if self.thresholds is not None:
            return self.thresholds
        assert self.threshold is not None
        return [self.threshold] * self.n


def solve_job(
    rid: str,
    lineage: str,
    menu: Menu,
    n: int = 0,
    threshold: Optional[float] = None,
    thresholds: Optional[List[float]] = None,
) -> Job:
    payload: Dict[str, object] = {
        "kind": "solve_request",
        "schema_version": 2,
        "request_id": rid,
        "bins": [list(entry) for entry in menu],
    }
    if thresholds is not None:
        payload["thresholds"] = thresholds
        payload["solver"] = "opq-extended"
        n = len(thresholds)
    else:
        payload["n"] = n
        payload["threshold"] = threshold
    return Job(
        rid, "/v2/solve", json.dumps(payload).encode(), lineage, menu, n,
        threshold, thresholds,
    )


def stratified(rng: random.Random, count: int) -> List[float]:
    """``count`` uniforms in [0, 1), one per equal stratum, in random order.

    Every seed then draws the same spread of values (arrival gaps, sizes,
    thresholds) and differs only in the exact values and their order, which
    keeps the run-to-run spread down to the system's own.
    """
    values = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


def poisson_offsets(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Arrival offsets of a Poisson process at ``rate`` over ``duration``.

    The exponential gaps are drawn by stratified inversion, so the run holds
    exactly ``rate * duration`` arrivals with the gap distribution of a
    Poisson process.
    """
    offsets = []
    at = 0.0
    for u in stratified(rng, max(1, round(rate * duration))):
        at += -math.log(1.0 - u) / rate
        offsets.append(at)
    return offsets


def ladder_offsets(rate: float, duration: float) -> List[float]:
    """Arrival offsets of one capacity-ladder probe at ``rate`` over ``duration``.

    Every rung replays the same unit-rate Poisson trace, compressed to its
    rate, so rungs differ in rate only.  With a trace of its own per rung, a
    rung whose trace bunched late failed the backlog test on every run at
    any service speed, and the reported capacity hinged on whether the
    staircase stepped on it.
    """
    rng = stream("trace", "ladder", "arrivals")
    offsets = []
    at = rng.expovariate(1.0)
    while at < rate * duration:
        offsets.append(at / rate)
        at += rng.expovariate(1.0)
    return offsets


def quota_choice(rng: random.Random, items: Sequence, weights: Sequence[float],
                 count: int) -> List:
    """``count`` picks from ``items`` in proportion to ``weights``, shuffled."""
    total = sum(weights)
    exact = [count * w / total for w in weights]
    picks = [int(e) for e in exact]
    by_remainder = sorted(range(len(items)), key=lambda i: exact[i] - picks[i], reverse=True)
    for i in by_remainder[: count - sum(picks)]:
        picks[i] += 1
    chosen = [item for item, times in zip(items, picks) for _ in range(times)]
    rng.shuffle(chosen)
    return chosen


def small_sizes(rng: random.Random, count: int) -> List[int]:
    """Inline task counts in [30, 120]."""
    return [30 + int(u * 91) for u in stratified(rng, count)]


class HotKeys:
    """The solves of drift-feedback: a few hot keys, Zipf-skewed."""

    def __init__(self, seed: int, lineages: Sequence[str], per_menu: int) -> None:
        rng = stream(seed, "hot-keys")
        self.keys = [
            (name, round(rng.uniform(0.80, 0.97), 3))
            for name in lineages
            for _ in range(per_menu)
        ]
        rng.shuffle(self.keys)
        self.weights = [1.0 / (rank ** 1.1) for rank in range(1, len(self.keys) + 1)]

    def warmup(self, prefix: str) -> List[Job]:
        return [
            solve_job(f"{prefix}-w{i}", name, MENUS[name], 30, threshold)
            for i, (name, threshold) in enumerate(self.keys)
        ]

    def jobs(self, rng: random.Random, prefix: str, count: int) -> List[Job]:
        keys = quota_choice(rng, self.keys, self.weights, count)
        return [
            solve_job(f"{prefix}-{i}", name, MENUS[name], n, threshold)
            for i, ((name, threshold), n) in enumerate(zip(keys, small_sizes(rng, count)))
        ]


def feedback_job(
    rng: random.Random, rid: str, lineage: str, drifted: bool
) -> Job:
    """One feedback batch for ``lineage``, drawn at its true accuracies."""
    menu = MENUS[lineage]
    observations = []
    for cardinality, confidence, _cost in menu:
        truth = true_confidence(confidence, drifted)
        for _ in range(FEEDBACK_PER_CARDINALITY):
            observations.append([cardinality, rng.random() < truth])
    payload = {"bins": [list(entry) for entry in menu], "observations": observations}
    return Job(rid, "/v2/feedback", json.dumps(payload).encode(), lineage, menu)


def true_confidence(assumed: float, drifted: bool) -> float:
    return max(0.01, assumed - DRIFT_DROP) if drifted else assumed


#: large-n: the fixed Table-1 request that keeps the quadratic cover in view.
LARGE_N_MAX = 100_000
LARGE_N_STRATA = 11
LARGE_N_BANDS = {"table1": (0.91, 0.96), "jelly20": (0.90, 0.96), "smic20": (0.80, 0.88)}
#: Sends of large-n's p50 probe: two after each request of the sequence.
LARGE_N_PROBES = 2 * (LARGE_N_STRATA + 1)


def large_n_sequence(seed: int) -> List[Job]:
    """The closed-loop large-n sequence: one request per log-n stratum.

    ``n`` is log-uniform over [10^3, 10^5): stratum ``j`` sits at the
    ``(j + 0.5) / 11`` quantile, jittered by at most 2%, so every seed sends
    the same amount of work while the exact inputs vary.  Menus rotate over
    Table-1, Jelly-20 and SMIC-20; strata 1, 5 and 9 carry per-task threshold
    lists (``opq-extended``).  A Table-1 request at n = 10^5 is always
    included.  Thresholds are drawn from each menu's band where the queue
    head is one block size (Table-1: 3 tasks, Jelly-20: 20, SMIC-20: 18), so
    the quadratic cover's cost does not swing by seed.
    """
    rng = stream(seed, "large-n")
    names = ("table1", "jelly20", "smic20")
    jobs = []
    for j in range(LARGE_N_STRATA):
        name = names[j % 3]
        low, high = LARGE_N_BANDS[name]
        exponent = 3 + 2 * (j + 0.5) / LARGE_N_STRATA
        n = int(round(10 ** exponent * rng.uniform(0.98, 1.02)))
        rid = f"large-n-{j}"
        if j in (1, 5, 9):
            thresholds = [round(rng.uniform(low, high), 4) for _ in range(n)]
            jobs.append(solve_job(rid, name, MENUS[name], thresholds=thresholds))
        else:
            jobs.append(
                solve_job(rid, name, MENUS[name], n, round(rng.uniform(low, high), 4))
            )
    jobs.append(
        solve_job(
            "large-n-max", "table1", TABLE_1, LARGE_N_MAX,
            round(rng.uniform(*LARGE_N_BANDS["table1"]), 4),
        )
    )
    rng.shuffle(jobs)
    return jobs


def large_n_probes(seed: int) -> List[Job]:
    """large-n's p50 probe: one Jelly-20 request at n ~ 10^4, to send repeatedly.

    The same request's latency varies by about 25% between sends on one
    server, and neighbouring strata of the sequence differ by as much, so
    the median of the sequence moved with whichever request happened to sit
    in the middle.  The median of repeated sends of one mid-size request
    does not.
    """
    rng = stream(seed, "large-n-probe")
    n = int(round(10_000 * rng.uniform(0.98, 1.02)))
    threshold = round(rng.uniform(*LARGE_N_BANDS["jelly20"]), 4)
    return [
        solve_job(f"large-n-probe-{i}", "jelly20", JELLY_20, n, threshold)
        for i in range(LARGE_N_PROBES)
    ]


def decade(n: int) -> str:
    """The n-decade label used by per-layer metrics (``n1e1`` .. ``n1e5``)."""
    return f"n1e{min(5, max(1, int(math.floor(math.log10(max(n, 1))))))}"


DECADES = tuple(f"n1e{k}" for k in range(1, 6))
