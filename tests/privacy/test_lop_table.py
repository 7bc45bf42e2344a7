"""The one-pass LoP table against the scalar estimator it replaced.

:func:`repro.privacy.lop.lop_table` builds a result's whole node × round
LoP table at once, testing membership by bisecting a sorted copy of each
observed vector.  Two properties pin it:

* sorted membership answers exactly what an all-pairs ``math.isclose``
  scan answers, on every float the protocol could carry (signed zeros,
  infinities, NaN, subnormals, overflowing differences, and items one ulp
  either side of each tolerance boundary); and
* every estimator built on the table is bit-identical to the scalar
  per-(node, round, item) estimator, reproduced verbatim below, on session,
  kernel and batch results of every protocol shape.
"""

from __future__ import annotations

import math
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import (
    KERNEL,
    NAIVE,
    PROBABILISTIC,
    SESSION,
    RunConfig,
    run_many_on_vectors,
    run_protocol_on_vectors,
)
from repro.core.params import ProtocolParams
from repro.database.query import Domain, TopKQuery
from repro.experiments.runner import aggregate_node_lop, mean_lop_by_round
from repro.network.failures import FailureInjector
from repro.privacy.accounting import ExposureLedger
from repro.privacy.adversary import _vector_consumed, coalition_round_lop
from repro.privacy.lop import (
    average_lop,
    lop_table,
    member,
    node_lop,
    node_round_lop,
    per_round_average_lop,
    sorted_members,
    value_in,
    worst_case_lop,
)
from repro.privacy.report import privacy_report

# -- the scalar estimator, verbatim --------------------------------------------


def scalar_value_in(item, values):
    return any(
        math.isclose(item, v, rel_tol=1e-9, abs_tol=1e-12) for v in values
    )


def scalar_item_round_lop(item, output_vector, final_result):
    if scalar_value_in(item, final_result):
        return 0.0
    return 1.0 if scalar_value_in(item, output_vector) else 0.0


def scalar_node_round_lop(result, node, round_number):
    items = result.local_vectors[node]
    if not items:
        return 0.0
    outputs = result.event_log.outputs_of(node)
    output = outputs.get(round_number)
    if output is None:
        return 0.0
    final = result.final_vector
    return sum(scalar_item_round_lop(v, output, final) for v in items) / len(items)


def scalar_node_lop(result, node):
    rounds = result.event_log.rounds()
    if not rounds:
        return 0.0
    return max(scalar_node_round_lop(result, node, r) for r in rounds)


def scalar_per_round_average_lop(result):
    nodes = result.ring_order
    return {
        r: sum(scalar_node_round_lop(result, node, r) for node in nodes) / len(nodes)
        for r in result.event_log.rounds()
    }


def scalar_average_lop(result):
    nodes = result.ring_order
    return sum(scalar_node_lop(result, node) for node in nodes) / len(nodes)


def scalar_worst_case_lop(result):
    return max(scalar_node_lop(result, node) for node in result.ring_order)


def scalar_coalition_round_lop(result, victim, round_number):
    incoming = _vector_consumed(result, victim, round_number)
    outgoing = result.event_log.outputs_of(victim).get(round_number)
    if incoming is None or outgoing is None:
        return 0.0
    if tuple(incoming) == tuple(outgoing):
        return 0.0
    items = result.local_vectors[victim]
    if not items:
        return 0.0
    n = result.n_nodes
    final = result.final_vector
    total = 0.0
    for item in items:
        claim_true = scalar_value_in(item, outgoing)
        prior = 1.0 / n if scalar_value_in(item, final) else 0.0
        total += max(0.0, (1.0 if claim_true else 0.0) - prior)
    return total / len(items)


def scalar_mean_lop_by_round(results, rounds):
    points = []
    for r in range(1, rounds + 1):
        total = 0.0
        for res in results:
            nodes = res.ring_order
            total += sum(scalar_node_round_lop(res, node, r) for node in nodes) / len(
                nodes
            )
        points.append((float(r), total / len(results)))
    return points


def scalar_aggregate_node_lop(results):
    sums = defaultdict(float)
    counts = defaultdict(int)
    for res in results:
        for node in res.ring_order:
            sums[node] += scalar_node_lop(res, node)
            counts[node] += 1
    values = [sums[node] / counts[node] for node in sums]
    return sum(values) / len(values), max(values)


# -- sorted membership ---------------------------------------------------------

TOL = {"rel_tol": 1e-9, "abs_tol": 1e-12}

SPECIALS = [
    0.0,
    -0.0,
    math.inf,
    -math.inf,
    math.nan,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1e-300,
    1e-12,
    -1e-12,
    1.0,
    -1.0,
    0.3,
    9999.0,
    1e308,
    -1e308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
]

#: Maps from a base value to a point at (or near) a tolerance boundary.
OFFSETS = [
    lambda x: x,
    lambda x: x + 1e-12,
    lambda x: x - 1e-12,
    lambda x: x * (1 + 1e-9),
    lambda x: x * (1 - 1e-9),
    lambda x: x / (1 - 1e-9),
    lambda x: x / (1 + 1e-9),
    lambda x: -x,
]

bases = st.one_of(
    st.sampled_from(SPECIALS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e-300, max_value=1e-300),
)


@st.composite
def near(draw, base):
    """``base`` moved to a tolerance boundary, then 0-3 ulps either way."""
    x = draw(st.sampled_from(OFFSETS))(base)
    steps = draw(st.integers(min_value=-3, max_value=3))
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def item_and_values(draw):
    base = draw(bases)
    item = draw(near(base))
    values = draw(
        st.lists(st.one_of(near(base), bases, near(item)), max_size=10)
    )
    return item, values


class TestSortedMembership:
    @settings(max_examples=1000, deadline=None)
    @given(case=item_and_values())
    def test_matches_an_all_pairs_isclose_scan(self, case):
        item, values = case
        expected = any(math.isclose(item, v, **TOL) for v in values)
        assert member(item, sorted_members(values)) is expected
        assert value_in(item, values) is expected

    @pytest.mark.parametrize(
        ("item", "values", "expected"),
        [
            (0.0, [-0.0], True),
            (-0.0, [5e-324], True),  # inside abs_tol
            (math.inf, [math.inf], True),
            (math.inf, [1.7976931348623157e308], False),
            (-math.inf, [math.inf, -1e308], False),
            (math.nan, [math.nan, 1.0], False),
            (1.0, [math.nan, 1.0 + 1e-10], True),
            (1e308, [-1e308], False),  # the difference overflows to inf
            (1.7976931348623157e308, [-1.7976931348623157e308, math.inf], False),
            (1e-12, [0.0], True),
            (math.nextafter(2e-12, 1.0), [0.0], False),
        ],
    )
    def test_edge_cases(self, item, values, expected):
        assert any(math.isclose(item, v, **TOL) for v in values) is expected
        assert member(item, sorted_members(values)) is expected

    @pytest.mark.parametrize("x", [0.0, 1.0, 0.3, 9999.0, 1e300, -7.5, 1e-12])
    @pytest.mark.parametrize("direction", [math.inf, -math.inf])
    def test_tolerance_boundary_to_the_ulp(self, x, direction):
        # Bisect to the last value isclose to x in one direction: sorted
        # membership must accept it and reject its next float.
        inside = x
        outside = x + math.copysign(max(abs(x), 1.0), direction)
        while math.nextafter(inside, direction) != outside:
            mid = inside + (outside - inside) / 2
            if math.isclose(x, mid, **TOL):
                inside = mid
            else:
                outside = mid
        assert member(x, sorted_members([inside, 3 * x + 1.0]))
        assert not member(x, sorted_members([outside, 3 * x + 1.0]))
        assert member(x, sorted_members([outside, inside]))


# -- the table vs the scalar estimator -----------------------------------------

INTEGRAL = Domain(1, 10_000)
REAL = Domain(1.0, 10_000.0, integral=False)

VECTORS = {
    "n0": [100, 200, 9000, 50],
    "n1": [375, 777, 4200],
    "n2": [9000, 12, 8800, 8801],
    "n3": [1, 2, 3],
    "n4": [6000, 6001, 5999, 7000, 25],
    "n5": [4200, 4199],
}

#: Non-integral values built by float arithmetic (0.1 + 0.2 style drift).
REAL_VECTORS = {
    "n0": [1.1 + 2.2, 10.0 / 3.0, 250.75],
    "n1": [3.3, 7.7 * 3.0, 9000.125],
    "n2": [23.1, 10.0 / 3.0 + 1e-13, 8000.5],
    "n3": [1.5, 2.5],
}


def _params(protocol, remap):
    if protocol == NAIVE:
        return ProtocolParams(remap_each_round=remap)
    return ProtocolParams.paper_defaults(rounds=5, remap_each_round=remap)


def _run(substrate, vectors, query, config):
    if substrate == "batch":
        return run_many_on_vectors([(vectors, query, config)])[0]
    backend = KERNEL if substrate == "kernel" else SESSION
    return run_protocol_on_vectors(vectors, query, config, backend=backend)


def assert_table_matches_scalar(result) -> None:
    table = lop_table(result)
    rounds = result.event_log.rounds()
    assert list(table.rounds) == rounds
    probe_rounds = [*rounds, 0, max(rounds, default=0) + 1, 99]
    for node in result.local_vectors:
        for r in probe_rounds:
            assert table.round_lop(node, r) == scalar_node_round_lop(result, node, r)
            assert node_round_lop(result, node, r) == table.round_lop(node, r)
    for node in result.ring_order:
        assert table.node_lop(node) == scalar_node_lop(result, node)
        assert node_lop(result, node) == table.node_lop(node)
    assert per_round_average_lop(result) == scalar_per_round_average_lop(result)
    assert average_lop(result) == scalar_average_lop(result)
    assert worst_case_lop(result) == scalar_worst_case_lop(result)
    charges = ExposureLedger().charge(result)
    assert list(charges) == list(result.ring_order)
    assert charges == {n: scalar_node_lop(result, n) for n in result.ring_order}
    assert sum(charges.values()) / len(charges) == scalar_average_lop(result)
    report = privacy_report(result, with_posteriors=False)
    assert report.average == scalar_average_lop(result)
    assert report.worst_case == scalar_worst_case_lop(result)
    assert [row.lop for row in report.rows] == [
        scalar_node_lop(result, n) for n in result.ring_order
    ]


class TestTableMatchesScalar:
    @pytest.mark.parametrize("substrate", ["session", "kernel", "batch"])
    @pytest.mark.parametrize("protocol", [NAIVE, PROBABILISTIC])
    @pytest.mark.parametrize("smallest", [False, True])
    @pytest.mark.parametrize("remap", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    def test_protocol_shapes(self, substrate, protocol, smallest, remap, k):
        query = TopKQuery(
            table="t", attribute="a", k=k, domain=INTEGRAL, smallest=smallest
        )
        for seed in range(6):
            config = RunConfig(
                protocol=protocol, params=_params(protocol, remap), seed=seed
            )
            result = _run(substrate, VECTORS, query, config)
            assert result.negated is smallest
            assert_table_matches_scalar(result)

    @pytest.mark.parametrize("substrate", ["session", "kernel", "batch"])
    def test_non_integral_values(self, substrate):
        query = TopKQuery(table="t", attribute="a", k=3, domain=REAL)
        for seed in range(8):
            config = RunConfig(params=_params(PROBABILISTIC, False), seed=seed)
            assert_table_matches_scalar(_run(substrate, REAL_VECTORS, query, config))

    @pytest.mark.parametrize("substrate", ["session", "kernel", "batch"])
    def test_empty_local_vector(self, substrate):
        vectors = {"a": [5, 9, 1000], "b": [], "c": [7000, 3], "d": [12, 13]}
        query = TopKQuery(table="t", attribute="a", k=3, domain=INTEGRAL)
        for seed in range(4):
            result = _run(substrate, vectors, query, RunConfig(seed=seed))
            assert result.local_vectors["b"] == []
            assert_table_matches_scalar(result)

    def test_crashed_node_with_missing_round_outputs(self):
        query = TopKQuery(table="t", attribute="a", k=3, domain=INTEGRAL)
        checked = 0
        for seed in range(6):
            clean = run_protocol_on_vectors(VECTORS, query, RunConfig(seed=seed))
            victim = next(n for n in clean.ring_order if n != clean.starter)
            for after in (2, 7, 15):
                failures = FailureInjector()
                failures.schedule_crash(victim, after_messages=after)
                config = RunConfig(seed=seed, failures=failures)
                result = run_protocol_on_vectors(VECTORS, query, config)
                outputs = result.event_log.outputs_of(victim)
                if len(outputs) < len(result.event_log.rounds()):
                    checked += 1
                assert_table_matches_scalar(result)
        assert checked  # at least one run really lost the victim's rounds

    def test_runner_aggregations(self):
        query = TopKQuery(table="t", attribute="a", k=3, domain=INTEGRAL)
        jobs = [
            (VECTORS, query, RunConfig(params=_params(PROBABILISTIC, False), seed=s))
            for s in range(12)
        ]
        results = run_many_on_vectors(jobs)
        for rounds in (3, 5, 8):
            assert mean_lop_by_round(results, rounds) == scalar_mean_lop_by_round(
                results, rounds
            )
        assert aggregate_node_lop(results) == scalar_aggregate_node_lop(results)

    def test_coalition_estimator_keeps_its_scores(self):
        # The colluding-neighbours estimator shares the membership helper.
        query = TopKQuery(table="t", attribute="a", k=3, domain=INTEGRAL)
        for seed in range(6):
            result = run_protocol_on_vectors(VECTORS, query, RunConfig(seed=seed))
            for node in result.ring_order:
                for r in result.event_log.rounds():
                    assert coalition_round_lop(
                        result, node, r
                    ) == scalar_coalition_round_lop(result, node, r)


class TestLastTokenWins:
    def test_repeated_round_output_uses_the_last_token(self):
        # outputs_of keeps a node's last token of a round; so does the table.
        from repro.core.results import ProtocolResult
        from repro.network.events import EventLog, Observation

        log = EventLog.from_observations(
            [
                Observation(1, "a", "b", (5.0,), 1),
                Observation(1, "a", "b", (7.0,), 2),
                Observation(1, "b", "a", (7.0,), 3),
                Observation(2, "a", "b", (9.0,), 4, kind="result"),
            ]
        )
        query = TopKQuery(table="t", attribute="a", k=1, domain=INTEGRAL)
        result = ProtocolResult(
            query=query,
            protocol="naive",
            final_vector=[9.0],
            ring_order=("a", "b"),
            starter="a",
            local_vectors={"a": [5.0], "b": [7.0]},
            event_log=log,
        )
        assert_table_matches_scalar(result)
        assert lop_table(result).round_lop("a", 1) == 0.0
        assert lop_table(result).round_lop("b", 1) == 1.0
        assert lop_table(result).rounds == (1,)
