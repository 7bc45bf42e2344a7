"""Wall-clock serving benchmark: one workload through ``QueryService``.

Usage, from the root of a checkout::

    python3 servebench/run.py --workload hot-repeat --seed 1 --seconds 10 --trace 0

Prints a readable report, then as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics of a
separate traced phase, and a sample of its spans is written to
``.servebench/spans-<workload>-<seed>.jsonl``.  Exits non-zero without a
result when the program under test (``src/repro``) is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HASH_SEED = "0"

#: End-to-end metrics on the result line (the rest are printed above it).
GATED = ("qps", "read_p90_ms", "setup_s", "rss_mb")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Two sources of run-to-run spread that are not the program: the CPU the
    # scheduler happens to pick (on a shared host one core can run a third
    # faster than the other for minutes) and per-process string-hash
    # randomization, which changes every dict's layout.  The run is pinned
    # to one CPU and re-executed with a fixed hash seed; the load is one
    # thread, so one CPU is all it uses anyway.
    cpus = os.sched_getaffinity(0)
    if len(cpus) > 1:
        os.sched_setaffinity(0, {min(cpus)})
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servebench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from servebench import bench, layers
    from servebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"clients {bench.CLIENTS} (closed loop, bursts of 8)")
    for name, (value, unit, samples) in result.figures.items():
        print(f"  {name:<18} {value:>14.6g} {unit:<6} n={samples}")
    for index, counts in enumerate(result.counts, 1):
        print(f"  exact counts, pass {index}: "
              + ", ".join(f"{k}={v}" for k, v in counts.items()))
    if result.per_layer is not None:
        for name, unit, _better in layers.PER_LAYER:
            print(f"  {name:<40} {result.per_layer[name]:>14.6g} {unit}")
    for note in result.notes:
        print(f"  note: {note}")
    if result.spans:
        path = ROOT / ".servebench" / f"spans-{args.workload}-{args.seed}.jsonl"
        path.parent.mkdir(exist_ok=True)
        origin = result.spans[0][4]
        with path.open("w") as out:
            for span_id, parent, name, layer, start, end in result.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "layer": layer,
                    "start_us": round(1e6 * (start - origin), 3),
                    "end_us": round(1e6 * (end - origin), 3),
                }) + "\n")
        print(f"  spans: first {len(result.spans)} of the traced phase in {path.relative_to(ROOT)}")

    if args.trace:
        metrics = {
            name: {"value": result.per_layer[name], "unit": unit}
            for name, unit, _better in layers.PER_LAYER
        }
    else:
        metrics = {
            name: {"value": result.figures[name][0], "unit": result.figures[name][1]}
            for name in GATED
        }
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
