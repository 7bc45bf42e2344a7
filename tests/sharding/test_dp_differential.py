"""Differential test: one DP release path behaves the same flat and sharded.

A flat federation and two sharded twins over the same rows — a one-shard
deployment and a three-shard one, all on the exact configuration — are
driven through random interleavings of DP reads, plain reads and
single-row inserts.  After every step the three must agree on values,
``cached`` flags and the accountant's ledger, byte for byte, and an
admission fast path that declined must have left every shard's cache-hit
count and audit log untouched.

Cache scoping differs by design, in two places the workload steers
around.  An insert invalidates every cached answer of a flat federation
but only the owning shard's in a sharded one, so the workload reads only
the tables served by the shard that takes the inserts (its routed tables
plus the partitioned one), where the two scopes coincide.  And a plain
``AVG`` over a partitioned table fans out as per-shard ``SUM`` + ``COUNT``,
caching those forms where the flat federation caches the ``AVG``, so that
one read is left out (a DP ``AVG`` decomposes the same way everywhere).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation.coordinator import QueryOutcome, QueryRefused
from repro.privacy.dp import DpPolicy
from repro.sharding import ShardedFederation, ShardRouter, build_topology
from repro.sharding.shards import LocalShard
from repro.sharding.topology import sharded_federation, single_federation

TOPOLOGY = build_topology(
    shards=3, parties_per_shard=3, tables=6, rows_per_table=12, partitioned=1, seed=4
)
#: The shard taking every insert: the one owning the most routed tables.
HOT = max(
    range(TOPOLOGY.shard_count),
    key=lambda s: (len(TOPOLOGY.shard_tables(s)), -s),
)
TABLES = TOPOLOGY.shard_tables(HOT)
PARTIES = sorted(TOPOLOGY.assignments[HOT])
PLAIN = ("MAX(value)", "MIN(value)", "TOP 2 value", "SUM(value)", "COUNT(value)", "AVG(value)")
DP = ("MAX(value)", "TOP 2 value", "SUM(value)", "COUNT(value)", "AVG(value)")
EPSILONS = (0.5, 1.0)


def twins(dp_seed: int):
    policy = DpPolicy(seed=dp_seed)
    flat = single_federation(TOPOLOGY, dp=policy)
    one = ShardedFederation(
        [LocalShard(single_federation(TOPOLOGY))],
        router=ShardRouter(1),
        domain=TOPOLOGY.domain,
        dp=policy,
    )
    three = sharded_federation(TOPOLOGY, dp=policy)
    return flat, one, three


def databases(flat, one, three, owner: str):
    """The one party's database in each twin."""
    return [
        flat._parties[owner],
        one.shards[0].federation._parties[owner],
        three.shards[HOT].federation._parties[owner],
    ]


def shard_counters(sharded) -> list[tuple[int, int]]:
    return [
        (shard.federation.cache.hits, len(shard.federation.audit))
        for shard in sharded.shards
    ]


def summary(result):
    if isinstance(result, QueryRefused):
        return ("refused", type(result.error).__name__)
    return (result.values, result.cached)


def statement(read) -> str:
    kind, table, operation, epsilon = read
    text = f"SELECT {operation} FROM {table}"
    return text if kind == "plain" else f"{text} WITH SLO(dp_epsilon={epsilon})"


reads = st.one_of(
    st.tuples(
        st.just("plain"), st.sampled_from(TABLES), st.sampled_from(PLAIN), st.none()
    ).filter(lambda read: not (read[1] in TOPOLOGY.partitioned and read[2] == "AVG(value)")),
    st.tuples(
        st.just("dp"),
        st.sampled_from(TABLES),
        st.sampled_from(DP),
        st.sampled_from(EPSILONS),
    ),
)
inserts = st.tuples(
    st.just("insert"),
    st.sampled_from(PARTIES),
    st.sampled_from(TABLES),
    st.integers(min_value=int(TOPOLOGY.domain.low), max_value=int(TOPOLOGY.domain.high)),
)
#: Several reads served as one batch: DP statements expand in place, so a
#: plain read and a DP read of the same form dedupe identically everywhere.
batches = st.tuples(st.just("batch"), st.lists(reads, min_size=2, max_size=5))
steps = st.lists(st.one_of(reads, reads, inserts, batches), min_size=1, max_size=24)


def assert_agree(flat, one, three, texts, results) -> None:
    for got in results:
        assert all(isinstance(r, QueryOutcome) for r in got), got
        assert [summary(r) for r in got] == [summary(r) for r in results[0]], texts
    ledger = flat.dp_gate.accountant.ledger_lines()
    assert one.dp_gate.accountant.ledger_lines() == ledger
    assert three.dp_gate.accountant.ledger_lines() == ledger


@given(steps=steps, dp_seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_flat_and_sharded_dp_agree_step_by_step(steps, dp_seed):
    flat, one, three = twins(dp_seed)
    feds = (flat, one, three)
    for step in steps:
        if step[0] == "insert":
            _kind, owner, table, value = step
            for database in databases(flat, one, three, owner):
                database.insert(table, {"value": value})
            continue
        if step[0] == "batch":
            texts = [statement(read) for read in step[1]]
            results = [fed.execute_many_settled(texts) for fed in feds]
            assert_agree(flat, one, three, texts, results)
            continue
        text = statement(step)
        counters = [shard_counters(fed) for fed in (one, three)]
        fast = [fed.try_cached(text) for fed in feds]
        assert [f is None for f in fast] == [fast[0] is None] * 3, (text, fast)
        if fast[0] is None:
            # A declined fast path leaves no trace on any shard ...
            assert [shard_counters(fed) for fed in (one, three)] == counters
            # ... and the batch path then serves the statement.
            results = [fed.execute_many_settled([text]) for fed in feds]
        else:
            results = [[outcome] for outcome in fast]
        assert_agree(flat, one, three, [text], results)
