"""Property tests: crash recovery never silently fabricates or loses data.

The invariant: whatever the crash point of a non-starter node, the returned
vector is bounded element-wise between the survivors' truth (the crashed
node's data may legitimately be missing) and the full truth (its data may
legitimately have been captured before the crash) — and otherwise the
driver fails loudly.  A silent wrong answer outside that band would be a
correctness bug.
"""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.driver import DriverError, RunConfig, run_protocol_on_vectors
from repro.core.params import ProtocolParams
from repro.core.vectors import merge_topk
from repro.database.query import Domain, TopKQuery
from repro.network.failures import FailureInjector

DOMAIN = Domain(1, 10_000)

workloads = st.dictionaries(
    st.sampled_from([f"n{i}" for i in range(6)]),
    st.lists(st.integers(min_value=1, max_value=10_000).map(float), min_size=1, max_size=4),
    min_size=4,
    max_size=6,
)


def topk_of(vectors: dict[str, list[float]], k: int) -> list[float]:
    merged: list[float] = []
    for values in vectors.values():
        merged = merge_topk(merged, values, k)
    return merged + [float(DOMAIN.low)] * (k - len(merged))


@given(
    vectors=workloads,
    k=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
    crash_at=st.integers(min_value=1, max_value=40),
)
@example(
    # Regression: the crashed n3 displaced one of three equal survivor
    # values with noise; a stalled-round replay left each survivor taking
    # another's equal copy for its own, returning [2, 2, 1].
    vectors={"n3": [3.0], "n0": [2.0], "n1": [2.0], "n2": [2.0], "n4": [1.0]},
    k=3,
    seed=3,
    crash_at=14,
)
@settings(max_examples=60, deadline=None)
def test_mid_run_crash_is_bounded_or_loud(vectors, k, seed, crash_at):
    query = TopKQuery(table="t", attribute="v", k=k, domain=DOMAIN)
    params = ProtocolParams.paper_defaults(rounds=8)

    probe = run_protocol_on_vectors(vectors, query, RunConfig(params=params, seed=seed))
    non_starters = [n for n in probe.ring_order if n != probe.starter]
    assume(len(non_starters) >= 3)  # keep the repaired ring viable
    victim = non_starters[crash_at % len(non_starters)]

    failures = FailureInjector()
    failures.schedule_crash(victim, after_messages=crash_at)
    config = RunConfig(params=params, seed=seed, failures=failures)
    try:
        result = run_protocol_on_vectors(vectors, query, config)
    except DriverError:
        return  # loud failure is acceptable; silence with a bad answer is not

    survivors = {n: vs for n, vs in vectors.items() if n != victim}
    lower = topk_of(survivors, k)
    upper = topk_of(vectors, k)
    for position, value in enumerate(result.final_vector):
        assert lower[position] <= value <= upper[position], (
            victim,
            crash_at,
            result.final_vector,
            lower,
            upper,
        )
