"""A declined admission fast path leaves no trace on any shard.

``try_cached`` on a fan-out statement (or a DP release's inner statements)
must look every partial up with the side-effect-free ``peek`` before it
serves any: a shard whose partial is still cached must not count a hit or
write an audit entry for an answer the sharded federation then declines.
"""

from repro.federation.coordinator import Federation, QueryOutcome
from repro.privacy.dp import DpPolicy
from repro.sharding import build_topology, sharded_federation


def shard_counters(sharded) -> list[tuple[int, int]]:
    """(cache hits, audit entries) per local shard."""
    return [
        (shard.federation.cache.hits, len(shard.federation.audit))
        for shard in sharded.shards
    ]


def mutate(federation: Federation, table: str) -> None:
    """Insert one row for one party: that shard's cache keys go stale."""
    database = federation._parties[federation.members[0]]
    database.insert(table, {"value": 1})


class TestFanoutDecline:
    def test_stale_shard_leaves_no_hit_or_audit_on_the_others(self):
        topology = build_topology(shards=3, seed=7)
        sharded = sharded_federation(topology)
        text = f"SELECT MAX(value) FROM {topology.partitioned[0]}"
        assert isinstance(sharded.execute_many_settled([text])[0], QueryOutcome)
        mutate(sharded.shards[2].federation, topology.partitioned[0])

        before = shard_counters(sharded)
        assert sharded.try_cached(text) is None
        assert shard_counters(sharded) == before

        # The batch then serves the statement once: shards 0 and 1 re-serve
        # their partials (one hit, one audit entry each), shard 2 re-runs.
        served = sharded.execute_many_settled([text])[0]
        assert isinstance(served, QueryOutcome) and not served.cached
        after = shard_counters(sharded)
        for index in (0, 1):
            assert after[index] == (before[index][0] + 1, before[index][1] + 1)
        assert after[2][0] == before[2][0]

    def test_full_hit_serves_every_partial_once(self):
        topology = build_topology(shards=3, seed=7)
        sharded = sharded_federation(topology)
        text = f"SELECT AVG(value) FROM {topology.partitioned[0]}"
        first = sharded.execute_many_settled([text])[0]
        before = shard_counters(sharded)
        hit = sharded.try_cached(text)
        assert hit is not None and hit.cached and hit.values == first.values
        # AVG fans out as SUM + COUNT: two hits and two audit entries per shard.
        assert shard_counters(sharded) == [(h + 2, a + 2) for h, a in before]


class TestDpDecline:
    def test_mutated_release_leaves_no_inner_hit_or_audit(self):
        topology = build_topology(shards=3, seed=7)
        sharded = sharded_federation(topology, dp=DpPolicy(seed=11))
        routed = next(t for t in topology.tables if t not in topology.partitioned)
        dp_text = f"SELECT COUNT(value) FROM {routed} WITH SLO(dp_epsilon=1.0)"
        sharded.execute_many_settled([dp_text])
        owner = sharded.router.route(routed)
        mutate(sharded.shards[owner].federation, routed)
        sharded.execute_many_settled([f"SELECT COUNT(value) FROM {routed}"])

        before = shard_counters(sharded)
        assert sharded.try_cached(dp_text) is None
        assert shard_counters(sharded) == before
        assert sharded.dp_gate.accountant.free_serves == 0

    def test_declined_partitioned_release_leaves_no_trace(self):
        topology = build_topology(shards=3, seed=7)
        sharded = sharded_federation(topology, dp=DpPolicy(seed=11))
        part = topology.partitioned[0]
        dp_text = f"SELECT SUM(value) FROM {part} WITH SLO(dp_epsilon=1.0)"
        sharded.execute_many_settled([dp_text])
        mutate(sharded.shards[1].federation, part)

        before = shard_counters(sharded)
        assert sharded.try_cached(dp_text) is None
        assert shard_counters(sharded) == before

    def test_free_reserve_still_claims_the_inner_hits(self):
        topology = build_topology(shards=3, seed=7)
        sharded = sharded_federation(topology, dp=DpPolicy(seed=11))
        routed = next(t for t in topology.tables if t not in topology.partitioned)
        dp_text = f"SELECT AVG(value) FROM {routed} WITH SLO(dp_epsilon=1.0)"
        first = sharded.execute_many_settled([dp_text])[0]
        owner = sharded.router.route(routed)
        before = shard_counters(sharded)
        again = sharded.try_cached(dp_text)
        assert again is not None and again.cached and again.values == first.values
        after = shard_counters(sharded)
        hits, audits = before[owner]
        assert after[owner] == (hits + 2, audits + 2)  # the SUM and COUNT inners
        assert sharded.dp_gate.accountant.free_serves == 1


class TestFlatPeek:
    def test_peek_counts_nothing(self):
        topology = build_topology(shards=1, seed=7)
        sharded = sharded_federation(topology)
        federation = sharded.shards[0].federation
        text = f"SELECT TOP 2 value FROM {topology.tables[0]}"
        assert federation.peek(text) is None
        served = federation.execute_many([text])[0]
        hits, audits = federation.cache.hits, len(federation.audit)
        peeked = federation.peek(text)
        assert peeked is not None and peeked.cached
        assert peeked.values == served.values
        assert (federation.cache.hits, len(federation.audit)) == (hits, audits)
        # A DP statement's answer is a release, never a cached exact answer.
        assert federation.peek(f"{text} WITH SLO(dp_epsilon=1.0)") is None


def test_process_shard_peek_counts_nothing():
    topology = build_topology(
        shards=2, parties_per_shard=4, tables=3, rows_per_table=8,
        partitioned=1, seed=5,
    )
    sharded = sharded_federation(topology, processes=True)
    try:
        text = f"SELECT MAX(value) FROM {topology.partitioned[0]}"
        assert isinstance(sharded.execute_many_settled([text])[0], QueryOutcome)
        stats = [shard.cache_stats() for shard in sharded.shards]
        assert all(shard.peek(text) is not None for shard in sharded.shards)
        assert [shard.cache_stats() for shard in sharded.shards] == stats

        # A membership change on shard 1 stales its partial: the fan-out
        # declines without serving shard 0's.
        sharded.shards[1].deregister(sharded.shards[1].members()[0])
        assert sharded.try_cached(text) is None
        assert [shard.cache_stats() for shard in sharded.shards] == stats
    finally:
        sharded.close()
