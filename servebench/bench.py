"""Closed-loop load, oracle checks and metrics for one workload run.

Load comes from one process and one asyncio loop: ``CLIENTS`` clients, each
sending a burst of reads through :class:`~repro.service.gateway.QueryService`
and waiting for every answer before its next burst.  The service runs with
no deadlines and no rate limits, and its queue holds every read that can be
in flight, so nothing sheds.

A run is three or four phases, each on a freshly built deployment:

1. and 2. *count passes* — a fixed number of bursts with the layer probe
   installed.  The counts that are exact per seed (answers served, cache
   hits, parse and kernel calls, DP releases, epsilon spent) must agree
   between the two passes.
3. the *timed phase* — ``seconds`` of wall-clock load, probe off.  It gives
   the end-to-end metrics.
4. with ``trace=True``, a *traced phase* of the same length with the probe
   installed.  It gives the per-layer metrics; its throughput against the
   timed phase's is the tracing overhead.

Every answer of every phase is checked against the workload's oracle after
the phase ends (outside the timed region).
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import math
import resource
import statistics
import time
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.analysis.correctness import precision_lower_bound
from repro.core import sampling
from repro.core.driver import RunConfig
from repro.planner.planner import QueryPlanner
from repro.planner.spec import parse_spec
from repro.privacy.lop import average_lop
from repro.service.gateway import QueryService

from .layers import per_layer_metrics, targets
from .probe import LayerProbe
from .workloads import (
    CLIENTS,
    WORKLOADS,
    Deployment,
    exact_answer,
    same_bytes,
    statement_parts,
)

#: Executed ranking reads whose protocol trace is kept for ``lop_mean``.
LOP_SAMPLE = 400
#: Relative tolerance for SUM/AVG over the lineitem columns: the secure
#: sum's masking round trip rounds in the last bits once totals are large
#: or values are not integers.
SECURE_SUM_TOLERANCE = 1e-6
#: A precision this unlikely under the Eq. 3 bound fails the run.
PRECISION_ALPHA = 1e-6


@dataclass(slots=True)
class Read:
    statement: str
    latency: float
    cached: bool
    values: tuple[float, ...]
    #: Insert-log length when the burst was sent and when the answer came.
    log_sent: int
    log_done: int


@dataclass
class Phase:
    """One phase's answers, one entry per read in completion order.

    The columns are flat containers, not an object per read, so that a
    phase of a few hundred thousand reads adds almost nothing for the
    garbage collector to traverse while it runs.
    """

    statements: list[str] = field(default_factory=list)
    latencies: array = field(default_factory=lambda: array("d"))
    #: Completion time of each read, seconds since the phase started.
    done: array = field(default_factory=lambda: array("d"))
    cached: bytearray = field(default_factory=bytearray)
    values: list[tuple] = field(default_factory=list)
    log_sent: array = field(default_factory=lambda: array("q"))
    log_done: array = field(default_factory=lambda: array("q"))
    #: Protocol traces of the first LOP_SAMPLE executed ranking reads.
    traces: list = field(default_factory=list)
    write_latencies: array = field(default_factory=lambda: array("d"))
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    wall: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    epsilon: float = 0.0
    fanouts: int = 0

    @property
    def answered(self) -> int:
        return len(self.statements)

    @property
    def qps(self) -> float:
        return self.answered / self.wall if self.wall > 0 else 0.0

    def reads(self) -> Iterator[Read]:
        for row in zip(self.statements, self.latencies, self.cached, self.values,
                       self.log_sent, self.log_done):
            yield Read(*row)


def _log_length(deployment: Deployment) -> int:
    log = getattr(deployment.oracle, "log", None)
    return len(log) if log is not None else 0


async def _drive(
    deployment: Deployment,
    streams: list,
    *,
    deadline: "float | None",
    bursts: "int | None",
) -> Phase:
    phase = Phase()
    federation = deployment.federation
    service = QueryService(federation, max_queue=256, max_batch=16)

    async def read(statement: str, sent: float, log_sent: int) -> None:
        try:
            outcome = await service.submit(statement)
        except Exception as exc:  # a refused or failed read counts, and the run goes on
            phase.failures.append(f"{statement}: {type(exc).__name__}: {exc}")
            return
        now = time.perf_counter()
        phase.latencies.append(now - sent)
        phase.done.append(now - started)
        phase.statements.append(statement)
        phase.cached.append(outcome.cached)
        phase.values.append(outcome.values)
        phase.log_sent.append(log_sent)
        phase.log_done.append(_log_length(deployment))
        if outcome.trace is not None and len(phase.traces) < LOP_SAMPLE:
            phase.traces.append(outcome.trace)

    async def client(stream) -> None:
        for burst in itertools.islice(stream, bursts):
            if deadline is not None and time.perf_counter() >= deadline:
                return
            if burst.invalidate:
                federation.invalidate_cache()
            for write in burst.writes:
                phase.attempted += 1
                start = time.perf_counter()
                try:
                    deployment.apply(write)
                except Exception as exc:  # a failed write counts, and the run goes on
                    phase.failures.append(f"insert {write}: {type(exc).__name__}: {exc}")
                    continue
                phase.write_latencies.append(time.perf_counter() - start)
            phase.attempted += len(burst.reads)
            sent = time.perf_counter()
            log_sent = _log_length(deployment)
            await asyncio.gather(*(read(s, sent, log_sent) for s in burst.reads))

    hits, misses = federation.cache.hits, federation.cache.misses
    epsilon = federation.dp_gate.accountant.epsilon_spent
    fanouts = getattr(federation, "fanout_statements", 0)
    async with service:
        started = time.perf_counter()
        await asyncio.gather(*(client(stream) for stream in streams))
        phase.wall = time.perf_counter() - started
    phase.cache_hits = federation.cache.hits - hits
    phase.cache_misses = federation.cache.misses - misses
    phase.epsilon = federation.dp_gate.accountant.epsilon_spent - epsilon
    phase.fanouts = getattr(federation, "fanout_statements", 0) - fanouts
    return phase


def fresh_process_state() -> None:
    """Reset what the program keeps process-wide before a build or a phase.

    The kernel's MT19937 prefix cache outlives federations, and every
    deployment of a run draws the same seeds, so without this a later
    build's warm-up or phase would replay an earlier one's streams.
    """
    clear = getattr(sampling, "prefix_cache_clear", None)
    if clear is not None:
        clear()
    gc.collect()


def run_phase(
    deployment: Deployment,
    streams: list,
    *,
    seconds: "float | None" = None,
    bursts: "int | None" = None,
) -> Phase:
    """Drive one phase: ``bursts`` per client, or until ``seconds`` pass."""
    fresh_process_state()
    deadline = time.perf_counter() + seconds if seconds is not None else None
    return asyncio.run(_drive(deployment, streams, deadline=deadline, bursts=bursts))


# -- oracle ----------------------------------------------------------------------


@dataclass
class Verdict:
    errors: list[str] = field(default_factory=list)
    ranking_answers: int = 0
    ranking_exact: int = 0
    #: Expected number of wrong ranking answers allowed by Eq. 3 (the sum
    #: of the per-answer failure bounds).
    expected_wrong: float = 0.0
    dp_reads: int = 0

    @property
    def precision(self) -> float:
        return self.ranking_exact / self.ranking_answers if self.ranking_answers else 1.0

    @property
    def precision_floor(self) -> float:
        """Eq. 3 lower bound on the expected precision of these answers."""
        if not self.ranking_answers:
            return 1.0
        return 1.0 - self.expected_wrong / self.ranking_answers

    @property
    def below_floor_p(self) -> float:
        """Chance of at least this many wrong answers if the Eq. 3 bound holds.

        Poisson tail with the bound's expected count; a tiny value means the
        precision is below the bound by more than sampling noise explains.
        """
        wrong = self.ranking_answers - self.ranking_exact
        lam = self.expected_wrong
        term, below = math.exp(-lam), 0.0
        for i in range(wrong):
            below += term
            term *= lam / (i + 1)
        return max(0.0, 1.0 - below)


class _Bounds:
    """Per-answer failure bound from Eq. 3, for the parameters it ran with.

    Eq. 3 bounds the chance that one holder of a true value randomized in
    every round, ``p0^r d^(r(r-1)/2)``.  A top-k answer is wrong only if one
    of its holders did, and at most ``min(k, parties)`` parties hold the
    true top-k, so the union bound gives ``min(k, parties)`` times Eq. 3's
    complement (exactly Eq. 3 for MAX/MIN).
    """

    def __init__(self, parties: int) -> None:
        self.planner = QueryPlanner(base_config=RunConfig())
        self.parties = parties
        self.cache: dict[str, float] = {}

    def __call__(self, text: str) -> float:
        bound = self.cache.get(text)
        if bound is None:
            spec = parse_spec(text)
            params = RunConfig().params
            if not spec.slo.is_trivial:
                params = self.planner.plan(spec, parties=self.parties).params
            schedule = params.schedule
            miss = 1.0 - precision_lower_bound(
                schedule.p0, schedule.d, params.resolved_rounds()
            )
            holders = min(spec.statement.k, self.parties)
            bound = self.cache[text] = min(1.0, holders * miss)
        return bound


def verify(workload, deployment: Deployment, phase: Phase, verdict: Verdict) -> None:
    """Check every answer of ``phase`` against the workload's oracle."""
    oracle = deployment.oracle
    bounds = _Bounds(len(deployment.federation.members)) if not workload.exact else None
    memo: dict = {}
    for read in phase.reads():
        operation, k, attribute, table = statement_parts(read.statement)
        if "dp_epsilon" in read.statement:
            verdict.dp_reads += 1
            width = k if operation in ("TOP", "BOTTOM") else 1
            if len(read.values) != width or not all(map(math.isfinite, read.values)):
                verdict.errors.append(f"DP read {read.statement!r} gave {read.values}")
            continue
        ranking = operation in ("TOP", "BOTTOM", "MAX", "MIN")
        if workload.exact:
            key = (read.statement, read.log_sent, read.log_done)
            wants = memo.get(key)
            if wants is None:
                states = oracle.states(table, read.log_sent, read.log_done)
                wants = memo[key] = [exact_answer(operation, k, s) for s in states]
            ok = any(same_bytes(read.values, want) for want in wants)
            if not ok:
                verdict.errors.append(
                    f"{read.statement!r} gave {read.values}, oracle {wants[-1]}"
                )
            if ranking:
                verdict.ranking_answers += 1
                verdict.ranking_exact += ok
            continue
        column = oracle[attribute]
        if ranking:
            want = tuple(
                float(v) for v in (column.bottom if operation in ("BOTTOM", "MIN") else column.top)[:k]
            )
            verdict.ranking_answers += 1
            verdict.ranking_exact += same_bytes(read.values, want)
            verdict.expected_wrong += bounds(read.statement)
            continue
        want_value = {
            "SUM": column.total,
            "COUNT": float(column.count),
            "AVG": column.total / column.count,
        }[operation]
        got = read.values[0] if len(read.values) == 1 else math.nan
        if operation == "COUNT":
            ok = got == want_value
        else:
            ok = math.isclose(got, want_value, rel_tol=SECURE_SUM_TOLERANCE)
        if not ok:
            verdict.errors.append(f"{read.statement!r} gave {read.values}, oracle {want_value}")


# -- metrics ---------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); NaN without samples."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(
    phase: Phase, verdict: Verdict, setup_seconds: list[float], rss_mb: float
) -> dict:
    """Every end-to-end figure: (value, unit, samples) by name."""
    latencies = list(phase.latencies)
    hits = [t for t, cached in zip(latencies, phase.cached) if cached]
    misses = [t for t, cached in zip(latencies, phase.cached) if not cached]
    lops = [average_lop(trace) for trace in phase.traces]
    attempted = phase.attempted
    return {
        "qps": (phase.qps, "1/s", len(latencies)),
        "read_p50_ms": (1e3 * _percentile(latencies, 50), "ms", len(latencies)),
        "read_p90_ms": (1e3 * _percentile(latencies, 90), "ms", len(latencies)),
        "read_p99_ms": (1e3 * _percentile(latencies, 99), "ms", len(latencies)),
        "setup_s": (statistics.median(setup_seconds), "s", len(setup_seconds)),
        "rss_mb": (rss_mb, "MB", 1),
        "hit_p50_us": (1e6 * _percentile(hits, 50), "us", len(hits)),
        "miss_p50_ms": (1e3 * _percentile(misses, 50), "ms", len(misses)),
        "write_p50_us": (
            1e6 * _percentile(list(phase.write_latencies), 50), "us",
            len(phase.write_latencies),
        ),
        "failed_share": (
            len(phase.failures) / attempted if attempted else 0.0, "ratio", attempted
        ),
        "precision": (verdict.precision, "ratio", verdict.ranking_answers),
        "precision_floor": (verdict.precision_floor, "ratio", verdict.ranking_answers),
        "lop_mean": (statistics.fmean(lops) if lops else math.nan, "lop", len(lops)),
        "epsilon_per_read": (
            phase.epsilon / verdict.dp_reads if verdict.dp_reads else math.nan,
            "eps", verdict.dp_reads,
        ),
    }


# -- a whole run -----------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    figures: dict
    per_layer: "dict | None"
    counts: list[dict]
    notes: list[str]
    #: The traced phase's span sample: (id, parent id, name, layer, start, end).
    spans: list[tuple] = field(default_factory=list)


def _counts(phase: Phase, probe: LayerProbe) -> dict:
    return {
        "served": phase.answered,
        "cache_hits": phase.cache_hits,
        "parse_calls": probe.calls("planner.parse_spec"),
        "kernel_calls": probe.calls("core.batch_kernel"),
        "dp_releases": int(probe.counters.get("dp_releases", 0)),
        "epsilon_spent": repr(phase.epsilon),
    }


def _probed_phase(workload, deployment, *, seconds=None, bursts=None):
    """Run one phase with the probe installed; returns (phase, probe)."""
    probe = LayerProbe()
    probe.install(targets())
    try:
        phase = run_phase(deployment, workload.bursts(), seconds=seconds, bursts=bursts)
    finally:
        probe.uninstall()
    return phase, probe


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    workload_kwargs: "dict | None" = None,
) -> RunResult:
    workload = WORKLOADS[name](seed, **(workload_kwargs or {}))
    notes: list[str] = []
    verdict = Verdict()
    setups: list[float] = []
    attempted = failed = 0

    def timed_build() -> Deployment:
        fresh_process_state()
        start = time.perf_counter()
        deployment = workload.build()
        setups.append(time.perf_counter() - start)
        return deployment

    # Set-up is short and noisy, so it is measured more often than the
    # phases need deployments; the extra ones are dropped unused.
    for _ in range(workload.setup_repeats - 3):
        timed_build()

    # Count passes: the same bursts twice, on fresh deployments.
    counts = []
    for _ in range(2):
        deployment = timed_build()
        phase, probe = _probed_phase(workload, deployment, bursts=workload.count_bursts)
        verify(workload, deployment, phase, verdict)
        counts.append(_counts(phase, probe))
        attempted += phase.attempted
        failed += len(phase.failures)
        if probe.missing:
            notes.append(f"probe targets missing: {probe.missing}")
        del deployment, phase, probe
    # Peak memory through set-up and the fixed-size count passes: the timed
    # phase's own records grow with throughput, so they are left out.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for key in counts[0]:
        if counts[0][key] != counts[1][key]:
            verdict.errors.append(
                f"count mismatch at seed {seed}: {key} {counts[0][key]} != {counts[1][key]}"
            )

    # Timed phase, probe off.
    deployment = timed_build()
    timed = run_phase(deployment, workload.bursts(), seconds=seconds)
    timed_verdict = Verdict()
    verify(workload, deployment, timed, timed_verdict)
    verdict.errors.extend(timed_verdict.errors)
    attempted += timed.attempted
    failed += len(timed.failures)
    figures = end_to_end(timed, timed_verdict, setups, rss_mb)
    del deployment

    per_layer = None
    spans: list[tuple] = []
    if trace:
        deployment = timed_build()
        traced, probe = _probed_phase(workload, deployment, seconds=seconds)
        traced_verdict = Verdict()
        verify(workload, deployment, traced, traced_verdict)
        verdict.errors.extend(traced_verdict.errors)
        attempted += traced.attempted
        failed += len(traced.failures)
        per_layer = per_layer_metrics(
            probe,
            wall=traced.wall,
            reads=traced.answered,
            dp_reads=traced_verdict.dp_reads,
            cache_hits=traced.cache_hits,
            cache_misses=traced.cache_misses,
            fanout_statements=traced.fanouts,
        )
        per_layer["trace.qps_untraced"] = timed.qps
        per_layer["trace.qps_traced"] = traced.qps
        per_layer["trace.overhead_share"] = (
            1.0 - traced.qps / timed.qps if timed.qps else 0.0
        )
        spans = probe.spans

    if workload.exact:
        if timed_verdict.precision != 1.0:
            verdict.errors.append(f"precision {timed_verdict.precision} != 1.0")
    elif timed_verdict.below_floor_p < PRECISION_ALPHA:
        verdict.errors.append(
            f"precision {timed_verdict.precision:.6f} is below the Eq. 3 floor "
            f"{timed_verdict.precision_floor:.6f} (p={timed_verdict.below_floor_p:.2g})"
        )
    if timed.failures:
        notes.append(f"first failure: {timed.failures[0]}")
    notes.extend(verdict.errors[:20])
    return RunResult(
        correct=not verdict.errors,
        attempted=attempted,
        failed=failed,
        figures=figures,
        per_layer=per_layer,
        counts=counts,
        notes=notes,
        spans=spans,
    )


__all__ = ["CLIENTS", "RunResult", "run", "run_phase", "verify"]
