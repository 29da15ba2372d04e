#!/usr/bin/env python3
"""The repository benchmark: workloads driven against a live ``repro serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload drift-feedback --seed 1 --seconds 60 --trace 0

The benchmark starts ``repro serve --http 127.0.0.1:0`` (default flags) as
its own child process, drives it from this one process over at most two
keep-alive connections, checks every response, and prints each metric by
name and unit.  The benchmark and the server run on one CPU.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` gives the per-layer metrics of the
traced run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from check import Checker, check_all, self_test  # noqa: E402
from spans import Tracer, layer_times, replay  # noqa: E402
from wire import Connection, ServerProcess, get_json  # noqa: E402

WORKLOADS = ("drift-feedback", "large-n")
#: The p99 latency limit of the capacity ladder.
LATENCY_LIMIT_MS = 100.0
#: Adjacent ladder rungs differ by this factor (at most 10% apart).
LADDER_RATIO = 1.05
#: Staircase step, in rungs, until the first reversal.
LADDER_STRIDE = 2
#: Seconds of offered load per ladder probe.
PROBE_SECONDS = 1.5
#: Utilisation of the connections at the ladder's first probe.
START_UTILISATION = 0.6
#: Share of ``--seconds`` spent at the pinned rate; the ladder gets the rest.
PINNED_SHARE = 0.6
#: Server spawns per run; setup_s is their median.
SETUP_SPAWNS = 3
#: Generator lag above this share of the latency limit flags the run.
GEN_LAG_SHARE = 0.1
#: CPU steal above this share of busy CPU time flags the run: the host was
#: contended, and latency and rate metrics spread beyond their bounds.
STEAL_SHARE_LIMIT = 0.1
#: Keep-alive connections (the sizing machine has nproc = 2).
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Solve jobs replayed in process by the traced run.
REPLAY_JOBS = 300
#: A run that has not finished by then fails (the server is still stopped).
RUN_LIMIT_S = 170
#: Stated tolerance of the facade reconciliation (replayed / measured).
RECON_TOLERANCE = (0.5, 2.0)


@dataclass
class Record:
    job: gen.Job
    due: float
    sent: float
    done: float
    status: int
    body: bytes
    reply: Dict = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def quick_ok(self) -> bool:
        return self.status == 200 and (
            not self.job.is_solve or b'"ok": true' in self.body[:400]
        )


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- driving the server ---------------------------------------------------------


async def open_loop(
    conns: List[Connection],
    arrivals: List[Tuple[float, gen.Job]],
    tracer: Optional[Tracer] = None,
) -> Tuple[List[Record], List[float], List[int]]:
    """Send ``arrivals`` on schedule; latency counts from each due time.

    Returns the records, the generator's lag per send (ms), and the backlog
    (requests due but not yet sent) seen at each due time.
    """
    records: List[Record] = []
    lags: List[float] = []
    backlog: List[int] = []
    queue: "asyncio.Queue[Optional[Tuple[gen.Job, float]]]" = asyncio.Queue()

    async def worker(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            job, due = item
            sent = time.perf_counter()
            status, body = await conn.call("POST", job.path, job.body)
            done = time.perf_counter()
            records.append(Record(job, due, sent, done, status, body))
            if tracer is not None:
                root = tracer.add("request", job.rid, due, done)
                tracer.add("client.queue", job.rid, due, sent, root)
                tracer.add("server", job.rid, sent, done, root)

    workers = [asyncio.create_task(worker(conn)) for conn in conns]
    start = time.perf_counter() + 0.02
    for offset, job in arrivals:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        now = time.perf_counter()
        lags.append((now - due) * 1000.0)
        backlog.append(queue.qsize())
        queue.put_nowait((job, due))
    for _ in conns:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return records, lags, backlog


async def closed_loop(conn: Connection, jobs: List[gen.Job]) -> List[Record]:
    records = []
    for job in jobs:
        sent = time.perf_counter()
        status, body = await conn.call("POST", job.path, job.body)
        records.append(Record(job, sent, sent, time.perf_counter(), status, body))
    return records


class OpenWorkload:
    """Arrival schedules of the open-loop workload, drift-feedback."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.keys = gen.HotKeys(seed, ("jelly20", "smic20"), 6)

    def warmup(self) -> List[gen.Job]:
        return self.keys.warmup("drift-feedback-warm")

    def schedule(
        self, phase: str, rate: float, duration: float, drift_onset: Optional[float] = None
    ) -> List[Tuple[float, gen.Job]]:
        """Solves at ``rate``; with ``drift_onset``, feedback batches as well.

        One fixed arrival trace per phase serves every seed: runs differ in
        request content, not in how the Poisson arrivals happen to bunch.
        """
        if phase.startswith("ladder"):
            offsets = gen.ladder_offsets(rate, duration)
        else:
            offsets = gen.poisson_offsets(gen.stream("trace", phase, "arrivals"), rate, duration)
        content_rng = gen.stream(self.seed, phase, "content")
        arrivals = list(zip(offsets, self.keys.jobs(content_rng, phase, len(offsets))))
        if drift_onset is not None:
            feedback_rng = gen.stream(self.seed, phase, "feedback")
            tick = 0
            offset = 0.0
            while offset < duration:
                # One batch per tick, alternating between the two menus.
                lineage = ("jelly20", "smic20")[tick % 2]
                drifted = offset >= drift_onset
                arrivals.append((offset, gen.feedback_job(
                    feedback_rng, f"{phase}-fb{tick}", lineage,
                    drifted and lineage == "smic20",
                )))
                tick += 1
                offset = tick * gen.FEEDBACK_INTERVAL_S
            arrivals.sort(key=lambda item: item[0])
        return arrivals


def probe_passes(records: List[Record], backlog: List[int]) -> bool:
    """A ladder rung passes at p99 <= limit, no failure and no growing backlog."""
    solves = [r.latency_ms for r in records if r.job.is_solve]
    if not solves or not all(r.quick_ok for r in records):
        return False
    half = len(backlog) // 2
    growing = half > 0 and (
        sum(backlog[half:]) / (len(backlog) - half) > sum(backlog[:half]) / half + 1.0
    )
    return percentile(solves, 99) <= LATENCY_LIMIT_MS and not growing


async def capacity_ladder(
    conns: List[Connection], workload: OpenWorkload, pinned: List[Record],
    pinned_ok: bool, budget: float,
) -> Tuple[float, List[Record], List[str]]:
    """The rung ``40 * 1.05^k`` where an up-down staircase of probes settles.

    Probes carry solves only: the pinned phase has already driven the
    drifted menu through detection and recalibration, and a recalibration
    inside a 1.5 s probe would fail it on its rebuilds alone.

    The walk starts at the rung where two connections would be
    ``START_UTILISATION`` busy at the pinned phase's median service time
    (this only shortens it).  It steps up after a passing probe and down
    after a failing one, ``LADDER_STRIDE`` rungs at a time until the first
    reversal and one rung after it.  A pass at rung k says capacity >= k, a
    fail says capacity <= k - 1; the reported rung is the lower median of
    these verdicts from the first reversal on, i.e. the highest rung that
    passes at least half the time.  A single noisy probe cannot move it far,
    where it could derail a bisection.
    """
    deadline = time.perf_counter() + budget
    log: List[str] = []
    records: List[Record] = []

    def rate(k: int) -> float:
        return gen.PINNED_RPS * LADDER_RATIO ** k

    async def probe(k: int) -> bool:
        arrivals = workload.schedule(f"ladder{k}", rate(k), PROBE_SECONDS)
        got, _lags, backlog = await open_loop(conns, arrivals)
        records.extend(got)
        ok = probe_passes(got, backlog)
        p99 = percentile([r.latency_ms for r in got if r.job.is_solve], 99)
        log.append(f"rung {k:+d} {rate(k):7.1f} rps p99 {p99:7.1f} ms {'pass' if ok else 'FAIL'}")
        return ok

    service = median([r.done - r.sent for r in pinned if r.job.is_solve])
    k = round(math.log(START_UTILISATION * CONNECTIONS / service / gen.PINNED_RPS)
              / math.log(LADDER_RATIO)) if service > 0 else 0
    verdicts = [0 if pinned_ok else -1]
    settled: List[int] = []
    step = LADDER_STRIDE
    last: Optional[bool] = None
    while time.perf_counter() + PROBE_SECONDS < deadline:
        ok = await probe(k)
        if last is not None and ok != last:
            step = 1
        verdicts.append(k if ok else k - 1)
        if step == 1:
            settled.append(verdicts[-1])
        last = ok
        k = k + step if ok else k - step
    chosen = sorted(settled)[(len(settled) - 1) // 2] if settled else verdicts[-1]
    return rate(chosen), records, log


# -- one run --------------------------------------------------------------------


def cpu_times() -> List[int]:
    """The machine-wide ``/proc/stat`` CPU counters (user … steal)."""
    return [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]


def pin_to_one_cpu() -> int:
    """Run this process, and the server it spawns, on one CPU; return it.

    On a shared virtual machine a wake-up of an idle vCPU may wait for the
    hypervisor, and a request crosses between client and server several
    times.  On one vCPU those hand-offs are context switches inside the
    guest.  On a contended host, hot-key p50 and capacity then spread far
    less.  The server's Python work is serialised by its GIL, so it uses one
    CPU either way.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(seed: int, cpu: int) -> Dict[str, object]:
    from repro.algorithms.opq_vec import resolve_core

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    sha = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.exists() else ref
        sha = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "opq_core": resolve_core(),
        "git_sha": sha,
        "seed": seed,
        "connections": CONNECTIONS,
        "cpu": cpu,
    }


def metrics_delta(before: Dict, after: Dict) -> Dict[str, float]:
    return {
        key: float(value) - float(before.get(key, 0.0))
        for key, value in after.items()
        if isinstance(value, (int, float))
    }


def bucket_percentile(delta: Dict[str, float], series: str, q: float) -> float:
    """Percentile of a server histogram delta, linear within a bucket (ms)."""
    prefix = f"{series}.bucket.le_"
    bounds = sorted(
        (float(key[len(prefix):]), count)
        for key, count in delta.items()
        if key.startswith(prefix) and not key.endswith("inf")
    )
    total = delta.get(f"{series}.count", 0.0)
    if total <= 0:
        return 0.0
    target = q / 100.0 * total
    lower, seen = 0.0, 0.0
    for bound, cumulative in bounds:
        if cumulative >= target:
            share = (target - seen) / max(cumulative - seen, 1e-12)
            return (lower + share * (bound - lower)) * 1000.0
        lower, seen = bound, cumulative
    return lower * 1000.0


class Run:
    def __init__(self, args: argparse.Namespace, cpu: int) -> None:
        self.cpu = cpu
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.out = ROOT / ".perfbench_out"
        self.out.mkdir(exist_ok=True)
        self.tag = f"{self.workload}-s{self.seed}-t{int(self.trace)}"
        self.server = ServerProcess(ROOT, self.out / f"server-{self.tag}.log")
        self.lines: List[str] = []
        self.tracer = Tracer() if self.trace else None

    def say(self, line: str) -> None:
        self.lines.append(line)
        print(line, flush=True)

    def setup(self) -> float:
        spawns = 1 if self.trace else SETUP_SPAWNS
        times = []
        for index in range(spawns):
            times.append(self.server.start())
            if index < spawns - 1:
                self.server.stop()
        return median(times)

    def scrape(self) -> Dict:
        return get_json(self.server.host, self.server.port, "/metrics?format=json")

    async def drive(self) -> Tuple[List[Record], Dict[str, float], Dict]:
        conns = [Connection(self.server.host, self.server.port) for _ in range(CONNECTIONS)]
        extra: Dict = {}
        try:
            if self.workload == "large-n":
                return await self._drive_large_n(conns[0], extra)
            return await self._drive_open(conns, extra)
        finally:
            for conn in conns:
                await conn.close()

    async def _overhead_burst(self, conn: Connection, job: gen.Job) -> float:
        """Traced minus untraced median over 200 interleaved identical calls."""
        assert self.tracer is not None
        traced, plain = [], []
        scratch = Tracer()
        for i in range(200):
            sent = time.perf_counter()
            await conn.call("POST", job.path, job.body)
            done = time.perf_counter()
            if i % 2:
                root = scratch.add("request", job.rid, sent, done)
                scratch.add("client.queue", job.rid, sent, sent, root)
                scratch.add("server", job.rid, sent, done, root)
                traced.append((time.perf_counter() - sent) * 1000.0)
            else:
                plain.append((time.perf_counter() - sent) * 1000.0)
        return median(traced) - median(plain)

    async def _drive_open(self, conns: List[Connection], extra: Dict):
        workload = OpenWorkload(self.seed)
        warm = workload.warmup()
        for job in warm:
            await conns[0].call("POST", job.path, job.body)
        if self.trace:
            extra["overhead_ms"] = await self._overhead_burst(conns[0], warm[0])
        pinned_seconds = self.seconds * PINNED_SHARE
        # Drift starts a quarter into the pinned phase, leaving the monitors
        # (200-outcome windows, 10 outcomes a second per cardinality) time
        # to see it.
        onset = pinned_seconds / 4
        arrivals = workload.schedule("pinned", gen.PINNED_RPS, pinned_seconds, onset)
        before = self.scrape()
        records, lags, _backlog = await open_loop(conns, arrivals, self.tracer)
        after = self.scrape()
        first_offset, first_job = arrivals[0]
        start = next(r.due for r in records if r.job is first_job) - first_offset
        extra["onset_at"] = start + onset
        extra["lags"] = lags
        extra["delta"] = metrics_delta(before, after)
        pinned = [r.latency_ms for r in records if r.job.is_solve]
        pinned_ok = percentile(pinned, 99) <= LATENCY_LIMIT_MS and all(
            r.quick_ok for r in records
        )
        metrics: Dict[str, float] = {}
        if not self.trace:
            capacity, ladder, log = await capacity_ladder(
                conns, workload, records, pinned_ok, self.seconds - pinned_seconds
            )
            for line in log:
                self.say(f"  ladder {line}")
            metrics["capacity_rps"] = capacity
            extra["ladder"] = ladder
        extra["pinned"] = records
        return records, metrics, extra

    async def _drive_large_n(self, conn: Connection, extra: Dict):
        jobs = gen.large_n_sequence(self.seed)
        probe_jobs = gen.large_n_probes(self.seed)
        per = len(probe_jobs) // len(jobs)
        before = self.scrape()
        started = time.perf_counter()
        # The probe's sends follow each request of the sequence in turn, so
        # its median samples the host over the whole run, not one stretch.
        records: List[Record] = []
        probes: List[Record] = []
        for i, job in enumerate(jobs):
            records += await closed_loop(conn, [job])
            probes += await closed_loop(conn, probe_jobs[i * per:(i + 1) * per])
        after = self.scrape()
        self.say(f"  large-n: {len(jobs)} requests and {len(probes)} probes in "
                 f"{time.perf_counter() - started:.2f} s")
        if self.tracer is not None:
            for r in records:
                root = self.tracer.add("request", r.job.rid, r.sent, r.done)
                self.tracer.add("server", r.job.rid, r.sent, r.done, root)
        extra["lags"] = [0.0]
        extra["delta"] = metrics_delta(before, after)
        extra["pinned"] = records + probes
        extra["p50_ms"] = median([r.latency_ms for r in probes])
        total = sum(r.done - r.sent for r in records)
        return records, {"capacity_rps": len(records) / total}, extra

    def execute(self) -> Dict:
        env = environment(self.seed, self.cpu)
        self.say("env: " + json.dumps(env, sort_keys=True))
        cpu_before = cpu_times()
        self_test()
        self.say("checker self-test: a plan with one posting dropped, or with two "
                 "confidences for one cardinality, is flagged")
        try:
            setup_s = self.setup()
            records, metrics, extra = asyncio.run(self.drive())
            rss_mb = self.server.peak_rss_mb()
        finally:
            self.server.stop()
        spent = [after - before for before, after in zip(cpu_before, cpu_times())]
        # Share of CPU time the hypervisor gave to other guests while this
        # run wanted it: a contended host shows here, not in the metrics.
        steal = spent[7] / max(sum(spent) - spent[3], 1)
        env["cpu_steal_share"] = round(steal, 3)
        self.say(f"host: {steal:.1%} of busy CPU time stolen during the run")
        flags: List[str] = []
        if steal > STEAL_SHARE_LIMIT:
            flags.append("cpu-steal")
            self.say(f"WARNING CPU steal {steal:.1%} exceeds {STEAL_SHARE_LIMIT:.0%} of busy "
                     "CPU time: the host was contended, figures may spread past their bounds")
        checked = extra["pinned"] + extra.get("ladder", [])
        checker = Checker(allow_recalibrated=self.workload == "drift-feedback")
        failed, reasons = check_all(checker, checked)
        for reason in reasons:
            self.say(f"  MISMATCH {reason}")
        attempted = len(checked)
        lag_p99 = percentile(extra["lags"], 99)
        if lag_p99 > GEN_LAG_SHARE * LATENCY_LIMIT_MS:
            flags.append("generator-lag")
            self.say(f"WARNING generator lag p99 {lag_p99:.2f} ms exceeds "
                     f"{GEN_LAG_SHARE:.0%} of the {LATENCY_LIMIT_MS:.0f} ms limit")
        if self.trace:
            values = self.per_layer(records, extra)
            values["host.steal_share"] = steal
            values["check.recalibrated"] = float(checker.recalibrated)
            units = {name: unit for name, unit in PER_LAYER}
            result_metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        else:
            values = self.end_to_end(records, metrics, extra, setup_s, rss_mb)
            units = dict(END_TO_END)
            result_metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        error_rate = failed / attempted if attempted else 1.0
        self.say(f"error_rate {error_rate:.6f} ratio ({failed} of {attempted}; "
                 f"{checker.recalibrated} served under a recalibrated menu)")
        for name, entry in result_metrics.items():
            self.say(f"{name} {entry['value']:.6g} {entry['unit']}")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": result_metrics,
        }
        with open(self.out / f"result-{self.tag}.json", "w") as out:
            json.dump({"env": env, "flags": flags, "recalibrated": checker.recalibrated,
                       "log": self.lines, "result": result}, out, indent=1)
        if self.tracer is not None:
            self.tracer.write(self.out / f"spans-{self.tag}.jsonl")
        return result

    # -- metrics ------------------------------------------------------------------

    def end_to_end(self, records, metrics, extra, setup_s, rss_mb) -> Dict[str, float]:
        solves = [r for r in records if r.job.is_solve]
        latencies = [r.latency_ms for r in solves]
        # p99 is printed, not reported: on a contended host the open loop's
        # tail spread past any bound (see the README).
        self.say(f"  {len(latencies)} solve samples at the pinned load, "
                 f"p99 {percentile(latencies, 99):.1f} ms")
        if self.workload == "large-n":
            p50 = extra["p50_ms"]
            tasks_per_s = sum(r.job.n for r in solves) / (sum(latencies) / 1000.0)
        else:
            p50 = median(latencies)
            # The tasks a second the service sustains within the latency limit.
            tasks_per_s = metrics["capacity_rps"] * statistics.fmean(r.job.n for r in solves)
        return {
            "setup_s": setup_s,
            "p50_ms": p50,
            "capacity_rps": metrics["capacity_rps"],
            "tasks_per_s": tasks_per_s,
            "rss_mb": rss_mb,
        }

    def per_layer(self, records, extra) -> Dict[str, float]:
        from repro.engine.cache import PlanCache

        delta = extra["delta"]
        solves = [r for r in records if r.job.is_solve]
        overhead, violations = [], 0
        for r in solves:
            elapsed = r.reply.get("elapsed_seconds")
            solve = r.reply.get("solve_seconds")
            if elapsed is None:
                continue
            if not (r.done - r.sent >= elapsed >= solve):
                violations += 1
            overhead.append((r.done - r.sent - elapsed) * 1000.0)
        facade_self = [
            (r.reply["elapsed_seconds"] - r.reply["solve_seconds"]) * 1000.0
            for r in solves if "elapsed_seconds" in r.reply
        ]

        sample = [r.job for r in solves][:REPLAY_JOBS]
        cache = PlanCache()
        if self.workload == "drift-feedback":
            replay(sample, Tracer(), cache)  # fill the cache, as warm-up does
        replay_tracer = Tracer()
        samples = replay(sample, replay_tracer, cache)
        replay_tracer.write(self.out / f"replay-spans-{self.tag}.jsonl")
        times = layer_times(replay_tracer, {job.rid: job for job in sample})
        # Pair each replayed request with its own response, where both took
        # the same path: the same problem (no recalibrated menu) and the same
        # cache outcome.  The solver's timer (solve_seconds) spans the cache
        # lookup and the cover only; verify runs after it stops (twice: the
        # solver's require_feasible and the facade's result.feasible), so it
        # falls in facade.self_ms with the rest of the facade.
        children = self._per_request(replay_tracer, ("cache", "cover"))
        replies = {r.job.rid: r.reply for r in solves}
        ratios = [
            children[rid] / (replies[rid]["solve_seconds"] * 1000.0)
            for rid, (digest, label) in samples["identity"].items()
            if rid in replies and replies[rid].get("solve_seconds")
            and replies[rid].get("problem_fingerprint") == digest
            and replies[rid].get("cache") == label
        ]
        ratio = median(ratios)
        within = RECON_TOLERANCE[0] <= ratio <= RECON_TOLERANCE[1]
        self.say(f"  reconciliation: {violations} responses break latency >= elapsed >= "
                 f"solve; replayed cache + cover / the same request's "
                 f"solve_seconds = {ratio:.3f} over {len(ratios)} requests "
                 f"({'within' if within else 'OUTSIDE'} {RECON_TOLERANCE})")

        hits, misses = delta.get("cache.hits", 0.0), delta.get("cache.misses", 0.0)
        values: Dict[str, float] = {
            "transport.overhead_ms.p50": median(overhead),
            "transport.overhead_ms.p99": percentile(overhead, 99),
            "transport.non200": float(sum(1 for r in records if r.status != 200)),
            "admission.admitted": delta.get("admission.admitted", 0.0),
            "admission.rejected": delta.get("admission.rate_limited", 0.0)
            + delta.get("admission.overloaded", 0.0),
            "queue.wait_ms.p50": bucket_percentile(delta, "service.queue_wait_seconds", 50),
            "queue.wait_ms.p99": bucket_percentile(delta, "service.queue_wait_seconds", 99),
            "queue.wait_ms.mean": 1000.0 * delta.get("service.queue_wait_seconds.total", 0.0)
            / max(delta.get("service.queue_wait_seconds.count", 0.0), 1.0),
            "queue.batch_size.mean": delta.get("service.batch_size.total", 0.0)
            / max(delta.get("service.batch_size.count", 0.0), 1.0),
            "queue.flushes": delta.get("service.flushes", 0.0),
            "facade.self_ms.p50": median(facade_self),
            "feedback.p50_ms": median([r.latency_ms for r in records if not r.job.is_solve]),
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cache.curve_seeds": delta.get("cache.curve_seeds", 0.0),
            "cache.partial_hits": delta.get("cache.partial_hits", 0.0),
            "cache.coalesced_waits": delta.get("cache.coalesced_waits", 0.0),
            "cache.lookup_ms.p50": median(times.get("cache.lookup", [])),
            "build.ms.p50": median(times.get("cache.build", [])),
            "build.ms.p99": percentile(times.get("cache.build", []), 99),
            "build.frontier_size.mean": statistics.fmean(samples["frontier"])
            if samples["frontier"] else 0.0,
            "build.total_s": delta.get("cache.build_seconds", 0.0),
            "cover.postings": statistics.fmean(samples["postings"]) if samples["postings"] else 0.0,
            "encode.ms.p50": median(times.get("encode", [])),
            "encode.bytes.mean": statistics.fmean(samples["encode_bytes"])
            if samples["encode_bytes"] else 0.0,
            "gen.lag_ms.p99": percentile(extra["lags"], 99),
            "trace.overhead_ms": extra.get("overhead_ms", 0.0),
            "recon.order_violations": float(violations),
            "recon.facade_ratio": ratio,
        }
        for layer in ("parse", "fingerprint", "cover", "verify"):
            for dec in gen.DECADES:
                values[f"{layer}.ms.p50.{dec}"] = median(times.get(f"{layer}.{dec}", []))
        values.update(self.drift_layer(records, extra, delta))
        return values

    @staticmethod
    def _per_request(tracer: Tracer, layers: Tuple[str, ...]) -> Dict[str, float]:
        """Request id -> summed self time (ms) of the spans of ``layers``."""
        selfs = tracer.self_times()
        per: Dict[str, float] = {}
        for span in tracer.spans:
            if span.name.split(".")[0] in layers:
                per[span.rid] = per.get(span.rid, 0.0) + selfs[span.span_id] * 1000.0
        return per

    def drift_layer(self, records, extra, delta) -> Dict[str, float]:
        values = {
            "drift.recalibrations": delta.get("drift.recalibrations", 0.0),
            "drift.invalidated_keys": delta.get("drift.invalidated_keys", 0.0),
            "drift.revalidation_ms": 1000.0 * delta.get("drift.revalidation_seconds.total", 0.0)
            / max(delta.get("drift.revalidation_seconds.count", 0.0), 1.0),
            "drift.false_recalibrations": 0.0,
            "drift.detect_lag_s": -1.0,
            "drift.underpriced_frac": 0.0,
        }
        onset = extra.get("onset_at")
        if onset is None:
            return values
        seen: Dict[Tuple[str, int], set] = {}
        underpriced = after = 0
        detected: Optional[float] = None
        for r in records:
            plan = r.reply.get("plan") if r.job.is_solve else None
            if not plan:
                continue
            assumed = {l: c for l, c, _ in r.job.menu}
            shortfall = 0.0
            for posting in plan["assignments"]:
                seen.setdefault((r.job.lineage, posting["cardinality"]), set()).add(
                    posting["confidence"])
                shortfall += assumed[posting["cardinality"]] - posting["confidence"]
            shortfall /= max(len(plan["assignments"]), 1)
            # Detected once a plan on the drifted menu is priced, on average,
            # at least 3/4 of the drop below the assumed confidences; a false
            # alarm before onset moves them by about the 0.05 tolerance.
            if (r.job.lineage == "smic20" and r.due >= onset
                    and shortfall >= 0.75 * gen.DRIFT_DROP):
                detected = r.done if detected is None else min(detected, r.done)
            if r.due >= onset:
                after += 1
                drifted = r.job.lineage == "smic20"
                miss = [1.0] * r.job.n
                for posting in plan["assignments"]:
                    truth = gen.true_confidence(assumed[posting["cardinality"]], drifted)
                    for task in posting["task_ids"]:
                        miss[task] *= 1.0 - truth
                if any(m > 1.0 - r.job.threshold for m in miss):
                    underpriced += 1
        values["drift.false_recalibrations"] = float(max(
            [len(v) - 1 for (lineage, _l), v in seen.items() if lineage == "jelly20"] or [0]
        ))
        if detected is not None:
            values["drift.detect_lag_s"] = detected - onset
        values["drift.underpriced_frac"] = underpriced / after if after else 0.0
        return values


END_TO_END = (
    ("p50_ms", "ms"),
    ("capacity_rps", "req/s"),
    ("tasks_per_s", "tasks/s"),
    ("rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = tuple(
    [(name, "ms") for name in (
        "transport.overhead_ms.p50", "transport.overhead_ms.p99", "queue.wait_ms.p50",
        "queue.wait_ms.p99", "queue.wait_ms.mean", "facade.self_ms.p50", "cache.lookup_ms.p50", "build.ms.p50",
        "build.ms.p99", "encode.ms.p50", "feedback.p50_ms", "drift.revalidation_ms",
        "gen.lag_ms.p99",
        "trace.overhead_ms",
    )]
    + [(f"{layer}.ms.p50.{dec}", "ms")
       for layer in ("parse", "fingerprint", "cover", "verify") for dec in gen.DECADES]
    + [(name, "count") for name in (
        "transport.non200", "admission.admitted", "admission.rejected", "queue.flushes",
        "cache.hits", "cache.misses", "cache.curve_seeds", "cache.partial_hits",
        "cache.coalesced_waits", "drift.recalibrations", "drift.false_recalibrations",
        "drift.invalidated_keys", "recon.order_violations", "check.recalibrated",
    )]
    + [("queue.batch_size.mean", "requests"), ("cache.hit_ratio", "ratio"),
       ("build.frontier_size.mean", "elements"), ("build.total_s", "s"),
       ("cover.postings", "postings"), ("encode.bytes.mean", "bytes"),
       ("drift.detect_lag_s", "s"), ("drift.underpriced_frac", "ratio"),
       ("recon.facade_ratio", "ratio"), ("host.steal_share", "ratio")]
)


def _overran(_signum, _frame) -> None:
    raise RuntimeError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cpu = pin_to_one_cpu()
    signal.signal(signal.SIGALRM, _overran)
    signal.alarm(RUN_LIMIT_S)
    result = Run(args, cpu).execute()
    signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
