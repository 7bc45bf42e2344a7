"""The three serving workloads: deployments, statement streams and oracles.

Every input is generated here from the workload seed; the program sees only
the finished parties, statements and writes.  A stream is a list of bursts
per client (a burst is up to 8 reads, preceded by the writes that fall
before it); clients cycle through their bursts for as long as a phase runs.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.core.driver import RunConfig
from repro.database.database import PrivateDatabase
from repro.database.query import Domain
from repro.database.schema import Schema
from repro.database.tpch import (
    LINEITEM_SCHEMA,
    TPCH_PRICE_DOMAIN,
    TPCH_TABLE,
    lineitem_arrays,
)
from repro.federation.coordinator import Federation
from repro.federation.sql import parse
from repro.privacy.dp import DpPolicy
from repro.sharding.federation import ShardedFederation
from repro.sharding.router import ShardRouter
from repro.sharding.shards import LocalShard
from repro.sharding.topology import (
    build_topology,
    exact_config,
    single_federation,
    topology_workload,
)

BURST = 8
CLIENTS = 2


@dataclass(frozen=True)
class Write:
    owner: str
    table: str
    value: int


@dataclass(frozen=True)
class Burst:
    reads: tuple[str, ...]
    writes: tuple[Write, ...] = ()
    #: Drop every cached answer before sending (start of a new pass over
    #: a cold-cache universe).
    invalidate: bool = False


@dataclass
class TableOracle:
    """Exact answers over integer tables that grow by logged inserts."""

    initial: dict[str, list[float]]
    #: Global insert log in apply order: (table, value).
    log: list[tuple[str, float]] = field(default_factory=list)

    def states(self, table: str, start: int, stop: int) -> list[np.ndarray]:
        """The table's row sets after each of log[:start] .. log[:stop]."""
        base = list(self.initial[table])
        base.extend(v for t, v in self.log[:start] if t == table)
        states = [np.asarray(base, dtype=np.float64)]
        for t, v in self.log[start:stop]:
            if t == table:
                base.append(v)
                states.append(np.asarray(base, dtype=np.float64))
        return states


def exact_answer(operation: str, k: int, values: np.ndarray) -> tuple[float, ...]:
    if operation == "TOP":
        return tuple(float(v) for v in np.sort(values)[::-1][:k])
    if operation == "BOTTOM":
        return tuple(float(v) for v in np.sort(values)[:k])
    if operation == "MAX":
        return (float(values.max()),)
    if operation == "MIN":
        return (float(values.min()),)
    if operation == "SUM":
        return (float(values.sum()),)
    if operation == "COUNT":
        return (float(values.size),)
    return (float(values.sum()) / float(values.size),)  # AVG


def same_bytes(got: tuple[float, ...], want: tuple[float, ...]) -> bool:
    return (
        len(got) == len(want)
        and np.asarray(got, dtype=np.float64).tobytes()
        == np.asarray(want, dtype=np.float64).tobytes()
    )


@dataclass
class Deployment:
    federation: object
    oracle: object
    #: owner -> that party's database (write-mix keeps the handles).
    parties: dict[str, PrivateDatabase] = field(default_factory=dict)
    attribute: str = "value"

    def apply(self, write: Write) -> None:
        """Insert one row through the party's own handle and log it."""
        self.parties[write.owner].insert(write.table, {self.attribute: write.value})
        self.oracle.log.append((write.table, float(write.value)))


def _endless(bursts: list[Burst]) -> list[Iterator[Burst]]:
    """Deal the bursts round-robin to the clients; each cycles its share."""
    return [itertools.cycle(bursts[c::CLIENTS]) for c in range(CLIENTS)]


def _chunk_reads(
    statements: list[str], writes_after: "dict[int, Write] | None" = None
) -> list[Burst]:
    """Group reads into bursts; a write logged after read i precedes read i+1's burst."""
    bursts: list[Burst] = []
    pending: list[Write] = []
    for start in range(0, len(statements), BURST):
        bursts.append(Burst(tuple(statements[start:start + BURST]), tuple(pending)))
        pending = [
            writes_after[i]
            for i in range(start, start + BURST)
            if writes_after and i in writes_after
        ]
    return bursts


def _spread(rng: random.Random, count: int, *, block: int, per_block: int) -> set[int]:
    """``per_block`` random indices out of every ``block`` consecutive ones."""
    return {
        start + offset
        for start in range(0, count, block)
        for offset in rng.sample(range(min(block, count - start)), per_block)
    }


# -- hot-repeat and write-mix: the 4x3 topology ---------------------------------


def _topology(seed: int):
    return build_topology(
        shards=4, parties_per_shard=3, tables=8, rows_per_table=40,
        partitioned=1, seed=seed,
    )


def _topology_oracle(topology) -> TableOracle:
    return TableOracle({t: topology.table_values(t) for t in topology.tables})


class HotRepeat:
    name = "hot-repeat"
    exact = True
    count_bursts = 160
    setup_repeats = 5
    stream_reads = 16_000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.topology = _topology(seed)
        self.statements = topology_workload(
            self.topology, self.stream_reads, seed=seed, repeat_fraction=0.95
        )

    def build(self) -> Deployment:
        federation = single_federation(self.topology, config=exact_config())
        # Warm-up: one pass over the stream's distinct statements, in
        # service-sized batches, so the timed stream is served from cache.
        distinct = list(dict.fromkeys(self.statements))
        for start in range(0, len(distinct), 16):
            federation.execute_many_settled(distinct[start:start + 16])
        return Deployment(federation, _topology_oracle(self.topology))

    def bursts(self) -> list[Iterator[Burst]]:
        return _endless(_chunk_reads(self.statements))


class WriteMix:
    name = "write-mix"
    exact = True
    count_bursts = 24
    setup_repeats = 21
    stream_reads = 16_000
    segment_reads = 200
    dp_suffix = " WITH SLO(dp_epsilon=0.5)"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.topology = _topology(seed)
        rng = random.Random(f"write-mix:{seed}")
        # topology_workload draws repeats from its whole history (a Polya
        # urn), so one long stream's mix of fan-outs, ranking and DP forms
        # depends heavily on the seed.  Many short segments average that
        # out, so every seed measures about the same mix.
        base = [
            text
            for _ in range(self.stream_reads // self.segment_reads)
            for text in topology_workload(
                self.topology, self.segment_reads, seed=rng.getrandbits(32),
                repeat_fraction=0.7,
            )
        ]
        # Exactly 3 DP reads in every 20 and one insert in every 10, at
        # random places in each block: a fixed share keeps the amount of
        # work the same across seeds.
        dp_reads = _spread(rng, len(base), block=20, per_block=3)
        reads = [
            text + self.dp_suffix if index in dp_reads else text
            for index, text in enumerate(base)
        ]
        owners = [
            (shard, owner)
            for shard, assignment in enumerate(self.topology.assignments)
            for owner in sorted(assignment)
        ]
        low, high = int(self.topology.domain.low), int(self.topology.domain.high)
        writes: dict[int, Write] = {}
        for index in sorted(_spread(rng, len(reads), block=10, per_block=1)):
            shard, owner = rng.choice(owners)
            table = rng.choice(self.topology.shard_tables(shard))
            writes[index] = Write(owner, table, rng.randint(low, high))
        self.statements = reads
        self.writes = writes

    def build(self) -> Deployment:
        topology = self.topology
        parties: dict[str, PrivateDatabase] = {}
        shards = []
        schema = Schema.of((topology.attribute, "INTEGER"))
        for index, assignment in enumerate(topology.assignments):
            federation = Federation(
                domain=topology.domain, config=exact_config(), seed=topology.seed + index
            )
            for owner in sorted(assignment):
                database = PrivateDatabase(owner)
                for table in topology.shard_tables(index):
                    created = database.create_table(table, schema)
                    created.insert_many(
                        {topology.attribute: int(v)}
                        for v in assignment[owner].get(table, ())
                    )
                federation.register(database)
                parties[owner] = database
            shards.append(LocalShard(federation, index=index))
        federation = ShardedFederation(
            shards,
            router=ShardRouter(topology.shard_count, partitioned=topology.partitioned),
            dp=DpPolicy(),
            domain=topology.domain,
        )
        return Deployment(
            federation, _topology_oracle(topology), parties, topology.attribute
        )

    def bursts(self) -> list[Iterator[Burst]]:
        return _endless(_chunk_reads(self.statements, self.writes))


# -- fresh-rank: lineitem at volume, every statement once ----------------------


#: Public domains of the lineitem columns (each contains every generated value).
LINEITEM_DOMAINS = {
    "l_orderkey": Domain(1, 24_000_000),
    "l_partkey": Domain(1, 200_000),
    "l_quantity": Domain(1, 50),
    "l_extendedprice": TPCH_PRICE_DOMAIN,
    "l_discount": Domain(0.0, 0.1, integral=False),
    "l_tax": Domain(0.0, 0.08, integral=False),
}
#: Satisfiable objectives for every operation (ranking and secure-sum).
FRESH_SLOS = ("max_rounds=8", "max_lop=0.9", "deadline=0.1")
MAX_K = 64


@dataclass
class ColumnOracle:
    """Per-column summaries: the top/bottom MAX_K values and the totals."""

    top: np.ndarray
    bottom: np.ndarray
    total: float
    count: int


class FreshRank:
    name = "fresh-rank"
    exact = False
    count_bursts = 3
    setup_repeats = 5
    parties = 6
    rows_per_party = 500_000

    def __init__(self, seed: int, rows_per_party: "int | None" = None) -> None:
        self.seed = seed
        if rows_per_party is not None:
            self.rows_per_party = rows_per_party
        rng = random.Random(f"fresh-rank:{seed}")
        forms = [
            f"SELECT {op} {k} {column} FROM {TPCH_TABLE}"
            for column in LINEITEM_DOMAINS
            for op in ("TOP", "BOTTOM")
            for k in range(1, MAX_K + 1)
        ] + [
            f"SELECT {op}({column}) FROM {TPCH_TABLE}"
            for column in LINEITEM_DOMAINS
            for op in ("MAX", "MIN", "SUM", "COUNT", "AVG")
        ]
        # A quarter of the canonical forms carry an SLO; each form appears
        # in exactly one spelling, so no SLO'd read shares a cache entry
        # with a bare one.
        rng.shuffle(forms)
        quarter = len(forms) // 4
        self.universe = [
            f"{text} WITH SLO({rng.choice(FRESH_SLOS)})" if index < quarter else text
            for index, text in enumerate(forms)
        ]
        rng.shuffle(self.universe)
        self.oracle = self._build_oracle()

    def build(self) -> Deployment:
        federation = Federation(
            domain=TPCH_PRICE_DOMAIN, config=RunConfig(), seed=self.seed
        )
        for column, domain in LINEITEM_DOMAINS.items():
            federation.register_domain(TPCH_TABLE, column, domain)
        for owner, arrays in self._party_arrays():
            database = PrivateDatabase(owner)
            database.create_table(TPCH_TABLE, LINEITEM_SCHEMA).insert_arrays(arrays)
            federation.register(database)
        return Deployment(federation, self.oracle)

    def _party_arrays(self) -> Iterator[tuple[str, dict[str, np.ndarray]]]:
        for index in range(self.parties):
            owner = f"party{index}"
            yield owner, lineitem_arrays(self.rows_per_party, seed=self.seed, party=owner)

    def _build_oracle(self) -> dict[str, ColumnOracle]:
        """Summaries of the generated rows, made apart from (and before) set-up."""
        columns: dict[str, list[np.ndarray]] = {c: [] for c in LINEITEM_DOMAINS}
        for _owner, arrays in self._party_arrays():
            for column in columns:
                columns[column].append(arrays[column])
        oracle = {}
        for column, parts in columns.items():
            values = np.concatenate(parts).astype(np.float64)
            k = min(MAX_K, values.size)
            top = np.sort(np.partition(values, values.size - k)[values.size - k:])[::-1]
            bottom = np.sort(np.partition(values, k - 1)[:k])
            oracle[column] = ColumnOracle(top, bottom, float(values.sum()), int(values.size))
        return oracle

    def bursts(self) -> list[Iterator[Burst]]:
        """Each client owns half the universe and re-deals it every pass.

        The cache is dropped at the start of each later pass, so a phase
        longer than one pass still never repeats a cached statement.
        """
        return [
            _passes(self.universe[c::CLIENTS], random.Random(f"fresh-rank:{self.seed}:{c}"))
            for c in range(CLIENTS)
        ]


def _cost_rank(text: str) -> tuple[int, bool]:
    """Rough execution cost order: k first (extraction and LoP grow with it)."""
    body, _, slo = text.partition(" WITH SLO(")
    return parse(body).k, bool(slo)


def _passes(forms: list[str], rng: random.Random) -> Iterator[Burst]:
    """Endless passes over ``forms``, dealt in cost-stratified bursts.

    The forms are ranked by :func:`_cost_rank` and cut into ``BURST``
    strata; each burst takes one form from every stratum (drawn at random
    within it), so any window of bursts carries the same cost mix and a
    timed phase measures the same work whichever part of a pass it sees.
    """
    ranked = sorted(forms, key=_cost_rank)
    size = -(-len(ranked) // BURST)
    strata = [ranked[i:i + size] for i in range(0, len(ranked), size)]
    epoch = 0
    while True:
        for stratum in strata:
            rng.shuffle(stratum)
        for index in range(size):
            reads = tuple(s[index] for s in strata if index < len(s))
            yield Burst(reads, invalidate=epoch > 0 and index == 0)
        epoch += 1


WORKLOADS = {cls.name: cls for cls in (HotRepeat, FreshRank, WriteMix)}


def statement_parts(text: str) -> tuple[str, int, str, str]:
    """(operation, k, attribute, table) of a stream statement."""
    body, _, _slo = text.partition(" WITH SLO(")
    statement = parse(body)
    return statement.operation, statement.k, statement.attribute, statement.table
