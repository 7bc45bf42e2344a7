"""Smoke-sized runs of every workload, the per-layer directions, and the probe."""

from __future__ import annotations

import asyncio
import json
import math
import shutil
import subprocess
import sys
import types

import pytest

from servebench import bench, layers
from servebench.probe import LayerProbe, Target
from servebench.run import GATED, ROOT

SMOKE = {
    "hot-repeat": {},
    "fresh-rank": {"rows_per_party": 2_000},
    "write-mix": {},
}

#: Per-layer metrics and the workload the benchmark's design says stresses each.
STRESSED_ON = {
    "hot-repeat": (
        "planner.parse_calls_per_read", "planner.parse_share",
        "database.data_version_calls_per_read", "database.data_version_share",
        "federation.try_cached_us", "federation.try_cached_share",
        "service.submit_self_us", "service.submit_self_share",
        "service.fast_hit_share", "federation.cache_hit_ratio",
    ),
    "fresh-rank": (
        "privacy.average_lop_calls_per_exec", "privacy.lop_us_per_exec",
        "database.extract_us_per_read", "database.rows_examined_per_read",
        "planner.plan_calls_per_read", "planner.plan_us_per_read",
        "service.queue_wait_ms_p50", "service.batch_size_mean",
        "federation.execute_ms_per_batch", "core.kernel_ms_per_exec",
    ),
    "write-mix": (
        "core.mt_replay_calls_per_exec", "core.mt_replay_us_per_exec",
        "core.statements_per_kernel_call", "core.kernel_ms_per_exec",
        "sharding.shard_batches_per_batch", "privacy.dp_gate_us_per_dp_read",
        "privacy.dp_releases", "privacy.dp_free_serves", "database.insert_us",
        "sharding.route_calls_per_read", "sharding.fanout_share",
        "service.queue_wait_ms_p50", "service.batch_size_mean",
        "federation.cache_hit_ratio", "federation.execute_ms_per_batch",
    ),
}

#: (metric, stressed workload, bypassed workload): larger on the first.
DIRECTIONS = [
    ("planner.parse_share", "hot-repeat", "fresh-rank"),
    ("database.data_version_share", "hot-repeat", "fresh-rank"),
    ("federation.try_cached_share", "hot-repeat", "fresh-rank"),
    ("service.submit_self_share", "hot-repeat", "fresh-rank"),
    ("privacy.average_lop_calls_per_exec", "fresh-rank", "hot-repeat"),
    ("privacy.lop_us_per_exec", "fresh-rank", "hot-repeat"),
    ("core.mt_replay_calls_per_exec", "write-mix", "hot-repeat"),
    ("core.kernel_ms_per_exec", "write-mix", "hot-repeat"),
    ("sharding.shard_batches_per_batch", "write-mix", "fresh-rank"),
    ("database.extract_us_per_read", "fresh-rank", "write-mix"),
    ("database.rows_examined_per_read", "fresh-rank", "write-mix"),
    ("planner.plan_calls_per_read", "fresh-rank", "hot-repeat"),
    ("planner.plan_us_per_read", "fresh-rank", "hot-repeat"),
    ("privacy.dp_gate_us_per_dp_read", "write-mix", "fresh-rank"),
    ("privacy.dp_releases", "write-mix", "hot-repeat"),
    ("database.insert_us", "write-mix", "hot-repeat"),
    ("sharding.route_calls_per_read", "write-mix", "fresh-rank"),
    ("sharding.fanout_share", "write-mix", "hot-repeat"),
    ("service.queue_wait_ms_p50", "fresh-rank", "hot-repeat"),
    ("service.queue_wait_ms_p50", "write-mix", "hot-repeat"),
    ("service.batch_size_mean", "fresh-rank", "hot-repeat"),
    ("federation.execute_ms_per_batch", "write-mix", "hot-repeat"),
]


@pytest.fixture(scope="module")
def runs():
    return {
        name: bench.run(name, 3, 0.5, True, workload_kwargs=kwargs)
        for name, kwargs in SMOKE.items()
    }


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_is_correct_and_complete(runs, name):
    result = runs[name]
    assert result.correct, result.notes
    assert result.failed == 0
    assert result.attempted > 0
    for metric in GATED:
        value = result.figures[metric][0]
        assert math.isfinite(value) and value > 0, metric
    assert result.figures["failed_share"][0] == 0.0
    assert set(result.per_layer) == {name for name, _unit, _better in layers.PER_LAYER}
    assert result.counts[0] == result.counts[1]


@pytest.mark.parametrize("name", ["hot-repeat", "write-mix"])
def test_exact_workloads_have_full_precision(runs, name):
    assert runs[name].figures["precision"][0] == 1.0


def test_write_mix_spends_epsilon_on_dp_reads(runs):
    figures = runs["write-mix"].figures
    assert figures["epsilon_per_read"][0] > 0
    assert figures["write_p50_us"][2] > 0


@pytest.mark.parametrize(
    "workload,metric",
    [(workload, metric) for workload, metrics in STRESSED_ON.items() for metric in metrics],
)
def test_per_layer_metric_nonzero_where_stressed(runs, workload, metric):
    assert runs[workload].per_layer[metric] > 0


@pytest.mark.parametrize("metric,stressed,bypassed", DIRECTIONS)
def test_per_layer_metric_larger_where_stressed(runs, metric, stressed, bypassed):
    assert runs[stressed].per_layer[metric] > runs[bypassed].per_layer[metric]


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: non-zero, no result."""
    shutil.copytree(ROOT / "servebench", tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "hot-repeat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- the probe on a module of its own ------------------------------------------


@pytest.fixture
def toy(monkeypatch):
    module = types.ModuleType("servebench_toy")
    clock = {"now": 0.0}

    def tick(seconds):
        clock["now"] += seconds

    def inner():
        tick(2.0)
        return "inner"

    def outer():
        tick(1.0)
        module.inner()
        tick(1.0)
        return "outer"

    async def submit():
        tick(3.0)
        await asyncio.sleep(0)
        tick(5.0)  # after the first suspension: not part of the frame
        return "done"

    module.inner, module.outer, module.submit = inner, outer, submit
    monkeypatch.setitem(sys.modules, "servebench_toy", module)
    probe = LayerProbe(clock=lambda: clock["now"])
    return module, probe


def test_probe_self_time_excludes_nested_calls(toy):
    module, probe = toy
    original = module.outer
    probe.install([
        Target("servebench_toy:outer", "toy.outer", "service"),
        Target("servebench_toy:inner", "toy.inner", "core"),
        Target("servebench_toy:gone", "toy.gone", "core"),
    ])
    assert module.outer() == "outer"
    probe.uninstall()
    assert module.outer is original
    assert probe.total("toy.outer") == 4.0
    assert probe.self_total("toy.outer") == 2.0
    assert probe.layer_self == {"service": 2.0, "core": 2.0}
    assert probe.missing == ["servebench_toy:gone"]


def test_probe_times_a_coroutine_up_to_its_first_suspension(toy):
    module, probe = toy
    probe.install([Target("servebench_toy:submit", "toy.submit", "service",
                          kind="first-step")])
    try:
        assert asyncio.run(module.submit()) == "done"
    finally:
        probe.uninstall()
    assert probe.calls("toy.submit") == 1
    assert probe.total("toy.submit") == 3.0


def test_benchmark_json_names_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(GATED)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in layers.PER_LAYER
    ]
    assert {w["name"] for w in spec["workloads"]} == set(SMOKE)
