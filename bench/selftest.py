"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 bench/selftest.py

Checks that every metric declared in BENCHMARK.json is produced with its
unit, that one seed always generates identical inputs (and another seed
different ones), that every workload passes its checks, and that a
deliberately wrong reference answer raises the failure count above 0.
Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads

SEED = 5


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def inputs(workload: str, seed: int, count: int = 2) -> list:
    gen = workloads.rounds(workload, seed, tiny=True)
    return [(op.kind, op.inputs) for _ in range(count) for op in next(gen)]


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main() -> int:
    end_to_end = declared("end_to_end")
    per_layer = declared("per_layer")
    for workload in workloads.WORKLOADS:
        expect(inputs(workload, SEED) == inputs(workload, SEED),
               f"{workload}: one seed gives identical inputs")
        expect(inputs(workload, SEED) != inputs(workload, SEED + 1),
               f"{workload}: another seed gives other inputs")

        metrics, tally, _ = run.measure(workload, SEED, 0.2, tiny=True, least=1)
        units = {name: unit for name, (_, unit) in metrics.items()}
        expect(units == end_to_end, f"{workload}: end-to-end metrics and units as declared")
        expect(tally.failed == 0 and tally.attempted > 0,
               f"{workload}: {tally.attempted} checks pass at tiny sizes")

        metrics, tally, _, _ = run.traced(workload, SEED, rounds_n=1, tiny=True)
        units = {name: unit for name, (_, unit) in metrics.items()}
        expect(units == per_layer, f"{workload}: per-layer metrics and units as declared")
        expect(tally.failed == 0, f"{workload}: traced run passes its checks")

        _, tally, facts = run.measure(workload, SEED, 0.2, tiny=True, corrupt=True, least=1)
        expect(tally.failed > 0 and facts["failed_ratio"] > 0,
               f"{workload}: a wrong reference answer gives failed_ratio "
               f"{facts['failed_ratio']:.3g} > 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
