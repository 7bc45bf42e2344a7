"""Which ``repro`` calls the probe wraps, and the per-layer metrics they give.

Every layer of the public serving path is wrapped at its boundary:
``service`` (gateway admission and scheduling), ``planner`` (statement
parsing and planning), ``federation`` (flat coordinator: cache fast path
and batches), ``sharding`` (router, sharded batches, shard sub-batches),
``privacy`` (LoP accounting and the DP gate), ``core`` (driver, batch
kernel, MT19937 stream replay) and ``database`` (extraction, data
versions, inserts).
"""

from __future__ import annotations

import statistics

from .probe import LayerProbe, Target

LAYERS = ("service", "planner", "federation", "sharding", "privacy", "core", "database")


def _count_execs(probe, args, result, outer) -> None:
    probe.count("ranking_execs", len(args[1]))


def _count_kernel_statements(probe, args, result, outer) -> None:
    probe.count("kernel_statements", len(args[0]))


def _count_rows_topk(probe, args, result, outer) -> None:
    database, query = args[0], args[1]
    probe.count("rows_examined", len(database.table(query.table)))


def _count_rows_aggregate(probe, args, result, outer) -> None:
    probe.count("rows_examined", len(args[0]))


def _count_dp_release(probe, args, result, outer) -> None:
    probe.count("dp_releases" if result[1] else "dp_free_serves")


def _count_fast_hit(probe, args, result, outer) -> None:
    if outer and result is not None:
        probe.count("fast_hits")


def _record_batch(probe, args, result, outer) -> None:
    if outer:
        probe.sample("batch_size", len(args[1]))


def _record_sharded_batch(probe, args, result, outer) -> None:
    if outer:
        probe.sample("batch_size", len(args[1]))
        probe.count("sharded_statements", len(args[1]))


def _record_push(probe, args, result, outer) -> None:
    probe.marks[args[1].seq] = probe.clock()


def _record_dequeue(probe, args, result, outer) -> None:
    now = probe.clock()
    for request in result:
        admitted = probe.marks.pop(request.seq, None)
        if admitted is not None:
            probe.sample("queue_wait", now - admitted)


def targets() -> list[Target]:
    """Every binding the probe wraps (import-by-name sites included)."""
    parse = [
        Target(f"{module}:parse_spec", "planner.parse_spec", "planner")
        for module in (
            "repro.planner.spec",
            "repro.planner.planner",
            "repro.service.gateway",
            "repro.federation.coordinator",
            "repro.sharding.federation",
        )
    ]
    lop = [
        Target(f"{module}:average_lop", "privacy.average_lop", "privacy", group="lop")
        for module in (
            "repro.privacy.lop",
            "repro.federation.coordinator",
            "repro.service.gateway",
        )
    ]
    dp_gate = [
        Target(f"repro.privacy.dp:DpGate.{method}", "privacy.dp_gate", "privacy",
               group="dp",
               hook=_count_dp_release if method == "finalize" else None)
        for method in ("reusable", "replayable", "would_charge", "admit", "finalize")
    ] + [
        Target(f"{module}:build_request", "privacy.dp_gate", "privacy", group="dp")
        for module in ("repro.federation.coordinator", "repro.sharding.federation")
    ]
    return [
        # service
        Target("repro.service.gateway:QueryService.submit", "service.submit",
               "service", kind="first-step"),
        Target("repro.service.gateway:QueryService._serve_cycle",
               "service.serve_cycle", "service"),
        Target("repro.service.scheduler:AdmissionQueue.push", "service.queue_push",
               "service", hook=_record_push),
        Target("repro.service.scheduler:AdmissionQueue.next_batch",
               "service.next_batch", "service", hook=_record_dequeue),
        # planner
        *parse,
        Target("repro.planner.planner:QueryPlanner.plan", "planner.plan", "planner"),
        # federation
        Target("repro.federation.coordinator:Federation.try_cached",
               "federation.try_cached", "federation", group="try_cached",
               hook=_count_fast_hit),
        Target("repro.federation.coordinator:Federation.execute_many_settled",
               "federation.execute_many_settled", "federation", group="batch",
               hook=_record_batch),
        # sharding
        Target("repro.sharding.federation:ShardedFederation.try_cached",
               "sharding.try_cached", "sharding", group="try_cached",
               hook=_count_fast_hit),
        Target("repro.sharding.federation:ShardedFederation.execute_many_settled",
               "sharding.execute_many_settled", "sharding", group="batch",
               hook=_record_sharded_batch),
        Target("repro.sharding.shards:LocalShard.execute_many_settled",
               "sharding.shard_batch", "sharding", group="batch"),
        Target("repro.sharding.router:ShardRouter.route", "sharding.route", "sharding"),
        # privacy
        *lop,
        Target("repro.privacy.accounting:ExposureLedger.charge",
               "privacy.ledger_charge", "privacy", group="lop"),
        *dp_gate,
        # core
        Target("repro.core.driver:run_topk_queries", "core.run_topk_queries", "core",
               hook=_count_execs),
        Target("repro.federation.coordinator:run_topk_queries",
               "core.run_topk_queries", "core", hook=_count_execs),
        Target("repro.core.driver:execute_batch", "core.batch_kernel", "core",
               hook=_count_kernel_statements),
        Target("repro.core.batch:execute_many", "core.batch_kernel", "core",
               hook=_count_kernel_statements),
        Target("repro.core.sampling:_mt_words_chunk", "core.mt_replay", "core"),
        # database
        Target("repro.database.database:PrivateDatabase.local_topk",
               "database.extract", "database", group="extract",
               hook=_count_rows_topk),
        Target("repro.database.table:Table.aggregate", "database.extract",
               "database", group="extract", hook=_count_rows_aggregate),
        Target("repro.database.database:PrivateDatabase.data_version",
               "database.data_version", "database", kind="property"),
        Target("repro.database.database:PrivateDatabase.insert", "database.insert",
               "database"),
    ]


#: (name, unit, better direction) of every per-layer metric, in report order.
PER_LAYER = (
    ("planner.parse_calls_per_read", "count", "lower"),
    ("planner.parse_share", "ratio", "lower"),
    ("database.data_version_calls_per_read", "count", "lower"),
    ("database.data_version_share", "ratio", "lower"),
    ("federation.try_cached_us", "us", "lower"),
    ("federation.try_cached_share", "ratio", "lower"),
    ("service.submit_self_us", "us", "lower"),
    ("service.submit_self_share", "ratio", "lower"),
    ("privacy.average_lop_calls_per_exec", "count", "lower"),
    ("privacy.lop_us_per_exec", "us", "lower"),
    ("core.mt_replay_calls_per_exec", "count", "lower"),
    ("core.mt_replay_us_per_exec", "us", "lower"),
    ("core.statements_per_kernel_call", "count", "higher"),
    ("core.kernel_ms_per_exec", "ms", "lower"),
    ("sharding.shard_batches_per_batch", "count", "lower"),
    ("database.extract_us_per_read", "us", "lower"),
    ("database.rows_examined_per_read", "count", "lower"),
    ("planner.plan_calls_per_read", "count", "lower"),
    ("planner.plan_us_per_read", "us", "lower"),
    ("privacy.dp_gate_us_per_dp_read", "us", "lower"),
    ("privacy.dp_releases", "count", "lower"),
    ("privacy.dp_free_serves", "count", "higher"),
    ("database.insert_us", "us", "lower"),
    ("sharding.route_calls_per_read", "count", "lower"),
    ("sharding.fanout_share", "ratio", "lower"),
    ("service.queue_wait_ms_p50", "ms", "lower"),
    ("service.batch_size_mean", "count", "higher"),
    ("service.fast_hit_share", "ratio", "higher"),
    ("federation.cache_hit_ratio", "ratio", "higher"),
    ("federation.execute_ms_per_batch", "ms", "lower"),
    *((f"{layer}.self_us_per_read", "us", "lower") for layer in LAYERS),
    *((f"{layer}.self_share", "ratio", "lower") for layer in LAYERS),
    ("trace.qps_untraced", "1/s", "higher"),
    ("trace.qps_traced", "1/s", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    probe: LayerProbe,
    *,
    wall: float,
    reads: int,
    dp_reads: int,
    cache_hits: int,
    cache_misses: int,
    fanout_statements: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced phase (``trace.*`` added by the caller).

    ``wall`` is the phase's wall-clock length (a ``*_share`` is time in a
    layer or call over it) and ``reads`` the number of reads answered in
    the phase; the program's own
    counters (cache hits/misses, fan-out statements) are passed as the
    phase's deltas.  A metric whose denominator is zero on a workload (no
    executions on an all-hit stream, no DP reads) reads 0.
    """
    execs = probe.counters.get("ranking_execs", 0.0)
    waits = probe.samples.get("queue_wait", [])
    batches = probe.samples.get("batch_size", [])
    metrics = {
        "planner.parse_calls_per_read": _ratio(probe.calls("planner.parse_spec"), reads),
        "planner.parse_share": _ratio(probe.total("planner.parse_spec"), wall),
        "database.data_version_calls_per_read": _ratio(
            probe.calls("database.data_version"), reads
        ),
        "database.data_version_share": _ratio(probe.total("database.data_version"), wall),
        "federation.try_cached_us": 1e6 * _ratio(
            probe.outer_total("federation.try_cached", "sharding.try_cached"),
            probe.outer_calls("federation.try_cached", "sharding.try_cached"),
        ),
        "federation.try_cached_share": _ratio(
            probe.outer_total("federation.try_cached", "sharding.try_cached"), wall
        ),
        "service.submit_self_us": 1e6 * _ratio(
            probe.self_total("service.submit"), probe.calls("service.submit")
        ),
        "service.submit_self_share": _ratio(probe.self_total("service.submit"), wall),
        "privacy.average_lop_calls_per_exec": _ratio(
            probe.calls("privacy.average_lop"), execs
        ),
        "privacy.lop_us_per_exec": 1e6 * _ratio(
            probe.outer_total("privacy.average_lop", "privacy.ledger_charge"), execs
        ),
        "core.mt_replay_calls_per_exec": _ratio(probe.calls("core.mt_replay"), execs),
        "core.mt_replay_us_per_exec": 1e6 * _ratio(probe.total("core.mt_replay"), execs),
        "core.statements_per_kernel_call": _ratio(
            probe.counters.get("kernel_statements", 0.0), probe.calls("core.batch_kernel")
        ),
        "core.kernel_ms_per_exec": 1e3 * _ratio(probe.total("core.batch_kernel"), execs),
        "sharding.shard_batches_per_batch": _ratio(
            probe.calls("sharding.shard_batch"),
            probe.outer_calls("sharding.execute_many_settled"),
        ),
        "database.extract_us_per_read": 1e6 * _ratio(
            probe.outer_total("database.extract"), reads
        ),
        "database.rows_examined_per_read": _ratio(
            probe.counters.get("rows_examined", 0.0), reads
        ),
        "planner.plan_calls_per_read": _ratio(probe.calls("planner.plan"), reads),
        "planner.plan_us_per_read": 1e6 * _ratio(probe.total("planner.plan"), reads),
        "privacy.dp_gate_us_per_dp_read": 1e6 * _ratio(
            probe.outer_total("privacy.dp_gate"), dp_reads
        ),
        "privacy.dp_releases": probe.counters.get("dp_releases", 0.0),
        "privacy.dp_free_serves": probe.counters.get("dp_free_serves", 0.0),
        "database.insert_us": 1e6 * _ratio(
            probe.total("database.insert"), probe.calls("database.insert")
        ),
        "sharding.route_calls_per_read": _ratio(probe.calls("sharding.route"), reads),
        "sharding.fanout_share": _ratio(
            fanout_statements, probe.counters.get("sharded_statements", 0.0)
        ),
        "service.queue_wait_ms_p50": 1e3 * statistics.median(waits) if waits else 0.0,
        "service.batch_size_mean": statistics.fmean(batches) if batches else 0.0,
        "service.fast_hit_share": _ratio(probe.counters.get("fast_hits", 0.0), reads),
        "federation.cache_hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "federation.execute_ms_per_batch": 1e3 * _ratio(
            probe.outer_total(
                "federation.execute_many_settled", "sharding.execute_many_settled"
            ),
            probe.outer_calls(
                "federation.execute_many_settled", "sharding.execute_many_settled"
            ),
        ),
    }
    for layer in LAYERS:
        busy = probe.layer_self.get(layer, 0.0)
        metrics[f"{layer}.self_us_per_read"] = 1e6 * _ratio(busy, reads)
        metrics[f"{layer}.self_share"] = _ratio(busy, wall)
    return metrics
