"""Bench: wall time of LoP accounting, one-pass table vs the scalar scan.

Every executed ranking statement is charged its per-node peak LoP, and the
figure sweeps aggregate the same quantity over thousands of trials.  The
estimator used to score each (node, round, item) separately, re-scanning
the event log per cell and the observed vector per item — O(k²) per
node-round.  :func:`repro.privacy.lop.lop_table` builds the whole node ×
round table in one pass over the log, bisecting sorted vectors.

Measured: wall µs per result to produce every node's peak LoP (what
``ExposureLedger.charge`` needs), table vs the scalar estimator held
below, at two shapes:

* **large** — 6 parties, k = 64, 5 rounds: the accounting that dominated
  cold-cache serving; the table must win by at least 10x;
* **k = 1** — 3 parties, max selection: the smallest shape, where the
  table must not fall meaningfully behind (at least 0.75x).

Both sides read the same pre-materialized logs and must agree bit for bit
before anything is timed.  Emits ``results/BENCH_lop.json`` with its
floors embedded under ``"floors"`` (consumed by
``scripts/check_bench_floors.py``).
"""

import json
import math
import time
from pathlib import Path

from repro.core.driver import RunConfig, run_many_on_vectors
from repro.core.params import ProtocolParams
from repro.database.query import PAPER_DOMAIN, TopKQuery
from repro.privacy.lop import lop_table

from conftest import BENCH_SEED, make_vectors

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results" / "BENCH_lop.json"

#: (label, parties, k, rounds, values per party, results timed)
SHAPES = (
    ("large", 6, 64, 5, 200, 6),
    ("k1", 3, 1, 5, 20, 200),
)
MIN_SPEEDUP_LARGE = 10.0
MIN_SPEEDUP_K1 = 0.75
REPEATS = 5


# -- the scalar estimator the table replaced ------------------------------------


def _scalar_value_in(item, values):
    return any(math.isclose(item, v, rel_tol=1e-9, abs_tol=1e-12) for v in values)


def _scalar_node_round_lop(result, node, round_number):
    items = result.local_vectors[node]
    if not items:
        return 0.0
    output = result.event_log.outputs_of(node).get(round_number)
    if output is None:
        return 0.0
    final = result.final_vector
    return sum(
        0.0
        if _scalar_value_in(v, final)
        else (1.0 if _scalar_value_in(v, output) else 0.0)
        for v in items
    ) / len(items)


def _scalar_node_lops(result):
    rounds = result.event_log.rounds()
    return {
        node: max((_scalar_node_round_lop(result, node, r) for r in rounds), default=0.0)
        for node in result.ring_order
    }


# -- harness --------------------------------------------------------------------


def _results(parties, k, rounds, per_party, count):
    query = TopKQuery(table="t", attribute="v", k=k, domain=PAPER_DOMAIN)
    params = ProtocolParams.paper_defaults(rounds=rounds)
    jobs = [
        (
            make_vectors(parties, per_party, BENCH_SEED + i),
            query,
            RunConfig(params=params, seed=BENCH_SEED + i),
        )
        for i in range(count)
    ]
    results = run_many_on_vectors(jobs)
    for result in results:
        len(result.event_log)  # materialize the lazy log outside the timing
    return results


def _us_per_result(fn, results) -> float:
    """Best-of-``REPEATS`` wall µs per result (noise-robust)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for result in results:
            fn(result)
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / len(results)


def test_bench_lop_table_vs_scalar():
    shapes = {}
    for label, parties, k, rounds, per_party, count in SHAPES:
        results = _results(parties, k, rounds, per_party, count)
        for result in results:
            assert lop_table(result).node_lops() == _scalar_node_lops(result)
        table_us = _us_per_result(lambda r: lop_table(r).node_lops(), results)
        scalar_us = _us_per_result(_scalar_node_lops, results)
        shapes[label] = {
            "parties": parties,
            "k": k,
            "rounds": rounds,
            "results": count,
            "table_us_per_result": table_us,
            "scalar_us_per_result": scalar_us,
            "speedup": scalar_us / table_us,
        }

    payload = {
        "seed": BENCH_SEED,
        "shapes": shapes,
        "speedup_large": shapes["large"]["speedup"],
        "speedup_k1": shapes["k1"]["speedup"],
        "floors": {
            "min_speedup_large": MIN_SPEEDUP_LARGE,
            "min_speedup_k1": MIN_SPEEDUP_K1,
        },
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    for label, shape in shapes.items():
        print(
            f"\n{label}: table {shape['table_us_per_result']:.1f} us/result, "
            f"scalar {shape['scalar_us_per_result']:.1f} us/result "
            f"({shape['speedup']:.1f}x)"
        )
    assert payload["speedup_large"] >= MIN_SPEEDUP_LARGE
    assert payload["speedup_k1"] >= MIN_SPEEDUP_K1
