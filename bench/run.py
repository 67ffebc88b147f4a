"""Benchmark for baumslag, driven from outside the package.

    python3 bench/run.py --workload suites|word_problem|graphs \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout (nothing needs installing).  The workload's
inputs are generated from ``--seed`` in this one process and driven
through baumslag's public entry points (see workloads.py); every output
is checked against an answer computed by reference.py, which shares no
code with the package.

``--trace 0`` measures for ``--seconds`` seconds with no instrumentation
and prints the end-to-end metrics.  ``--trace 1`` runs a fixed number of
rounds twice, untraced and then with the span recorder of spans.py
installed, and prints the per-layer metrics, so that counts repeat
exactly for one seed; the difference between the two passes is the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give provenance and notes.  Results and spans are
also written under bench/_out/.

End-to-end metrics, each reported on every workload (one closed-loop
client in one process; an op is one verify call or one library query):

    setup_s             fresh interpreter imports baumslag.cli, builds its
                        parser and exits (median of several)
    trials_per_s        trials reported by the workload's verify calls at
                        --jobs 1, per second of those calls
    trials_per_s_jobs2  the same calls replayed at --jobs 2, whose reports
                        must match the --jobs 1 bytes
    ops_per_s           ops per second of op time at --jobs 1
    op_p50_ms           median op latency
    op_tail_ms          op latency at the workload's tail percentile (p90
                        or p99; a run lasts until ten samples lie beyond it)
    peak_rss_mb         peak resident memory of the benchmark process

failed/attempted in the result line is the failed ratio: ops whose
result disagrees with the reference or that raised, plus --jobs 2
replays whose bytes differ.  The per-layer metrics and what they should
move are listed in BENCHMARK.json and derived in spans.py.

Self-test at tiny sizes: ``python3 bench/selftest.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

SETUP_SPAWNS = 11
SETUP_CMD = [
    sys.executable,
    "-c",
    f"import sys; sys.path.insert(0, {SRC!r}); import baumslag.cli as c; c.build_parser()",
]
# Safety stop far below the 180 s a run may take.
HARD_STOP_S = 120.0
# Rounds of the fixed traced run, chosen so that its untraced pass takes
# a few seconds on a 2-core machine.
TRACE_ROUNDS = {"suites": 6, "word_problem": 6, "graphs": 3}


def _import_package():
    """Import baumslag from this checkout's src/, or exit 2."""
    init = os.path.join(SRC, "baumslag", "__init__.py")
    if not os.path.isfile(init):
        where = os.path.relpath(init, ROOT)
        print(f"error: no baumslag package at {where}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import baumslag

    if os.path.realpath(os.path.dirname(baumslag.__file__)) != os.path.realpath(
        os.path.dirname(init)
    ):
        print("error: baumslag was imported from outside this checkout", file=sys.stderr)
        sys.exit(2)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def min_ops(workload: str) -> int:
    """Fewest ops that leave ten samples beyond the tail percentile."""
    tail = workloads.TAIL_PERCENTILE[workload]
    return math.ceil(10 / (1 - tail / 100))


def spawn_setup() -> float:
    """Wall time of a fresh interpreter that imports baumslag.cli, builds
    its parser and exits."""
    start = time.perf_counter()
    subprocess.run(SETUP_CMD, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class Tally:
    """Attempts, failures and the first few failure descriptions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(what)


def run_op(op, tally: Tally):
    """Run one op; returns (seconds, result).  The op counts as failed if
    it raises or its result does not match the reference."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as err:  # a failed op is counted, never fatal
        elapsed = time.perf_counter() - start
        tally.record(False, f"{op.kind} {op.inputs!r:.120}: raised {err!r:.200}")
        return elapsed, None
    elapsed = time.perf_counter() - start
    try:
        ok = bool(op.check(result))
    except Exception as err:
        ok = False
        tally.record(False, f"{op.kind} {op.inputs!r:.120}: check raised {err!r:.200}")
        return elapsed, result
    tally.record(ok, f"{op.kind} {op.inputs!r:.120}: wrong answer")
    return elapsed, result


def replay_jobs2(op, first, tally: Tally) -> float:
    """Re-run a verify op at --jobs 2; its report must match byte for byte."""
    start = time.perf_counter()
    try:
        again = workloads.call_cli(op.argv + ["--jobs", "2"])
    except Exception as err:
        tally.record(False, f"{op.kind} --jobs 2: raised {err!r:.200}")
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    tally.record(
        first is not None and again == first, f"{op.kind} {op.inputs!r:.120}: --jobs 2 differs"
    )
    return elapsed


def measure(workload: str, seed: int, seconds: float, tiny=False, corrupt=False, least=None):
    """The untraced, time-bounded run.  Returns (metrics, tally, facts).

    setup_s is the median of SETUP_SPAWNS fresh interpreters, one after
    each round (after one that fills bytecode caches), so that they
    sample the whole run rather than one moment of it.  ops_per_s is the
    median over rounds of the round's op count over its busy time.  A trial rate is the trials of one call of each verify
    kind over the sum of each kind's median call time.  Medians keep a
    stall on a shared machine from moving a rate much; latencies are
    percentiles over all ops.
    """
    least = min_ops(workload) if least is None else least
    tally = Tally()
    latencies: list[float] = []
    op_rates: list[float] = []
    # verify kind -> (trials per call, [--jobs 1 times], [--jobs 2 times])
    calls: dict[str, tuple[int, list[float], list[float]]] = {}
    trials = 0
    gen = workloads.rounds(workload, seed, tiny, corrupt)
    setup_times: list[float] = []
    spawn_setup()
    start = time.perf_counter()
    while True:
        ops = next(gen)
        results = []
        busy = 0.0
        for op in ops:
            elapsed, result = run_op(op, tally)
            latencies.append(elapsed)
            results.append(result)
            busy += elapsed
            if op.argv:
                calls.setdefault(op.kind, (op.trials, [], []))[1].append(elapsed)
                trials += op.trials
        for op, result in zip(ops, results):
            if op.argv:
                calls[op.kind][2].append(replay_jobs2(op, result, tally))
        op_rates.append(len(ops) / busy)
        if len(setup_times) < SETUP_SPAWNS:
            setup_times.append(spawn_setup())
        spent = time.perf_counter() - start
        if spent >= HARD_STOP_S or (spent >= seconds and len(latencies) >= least):
            break
    while len(setup_times) < SETUP_SPAWNS:
        setup_times.append(spawn_setup())
    latencies.sort()
    tail = workloads.TAIL_PERCENTILE[workload]
    per_kind = calls.values()
    trials_one = sum(count for count, _, _ in per_kind)
    metrics = {
        "trials_per_s": (
            trials_one / sum(statistics.median(t) for _, t, _ in per_kind), "trials/s"
        ),
        "trials_per_s_jobs2": (
            trials_one / sum(statistics.median(t) for _, _, t in per_kind), "trials/s"
        ),
        "ops_per_s": (statistics.median(op_rates), "ops/s"),
        "op_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "op_tail_ms": (percentile(latencies, tail) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    beyond = len(latencies) - math.ceil(tail / 100 * len(latencies))
    facts = {
        "rounds": len(op_rates),
        "ops": len(latencies),
        "op_tail_percentile": tail,
        "op_tail_samples_beyond": beyond,
        "verify_trials": trials,  # at --jobs 1, and again at --jobs 2
        "wall_s": round(time.perf_counter() - start, 3),
        "failed_ratio": tally.failed / tally.attempted,
    }
    return metrics, tally, facts


def traced(workload: str, seed: int, rounds_n=None, tiny=False):
    """The fixed-size traced run.  Returns (metrics, tally, facts, notes)."""
    rounds_n = TRACE_ROUNDS[workload] if rounds_n is None else rounds_n
    gen = workloads.rounds(workload, seed, tiny)
    plan = [op for _ in range(rounds_n) for op in next(gen)]
    tally = Tally()
    for op in plan[: len(plan) // rounds_n]:  # warm-up, not counted
        run_op(op, Tally())
    untraced_s = sum(run_op(op, tally)[0] for op in plan)
    rec = spans.Recorder()
    installed = spans.install(rec)
    try:
        traced_s = 0.0
        for op_id, op in enumerate(plan):
            rec.begin_op(op_id, op.kind)
            try:
                elapsed, result = run_op(op, tally)
            finally:
                rec.end_op()
            traced_s += elapsed
            if op.argv and result is not None:
                rec.counts["cli.output_bytes"] += len(result[1].encode())
    finally:
        installed.undo()
    tail = workloads.TAIL_PERCENTILE[workload]
    metrics, notes = spans.per_layer_metrics(rec, 1 - tail / 100)
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1, "ratio")
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    rec.dump(span_file)
    facts = {
        "rounds": rounds_n,
        "ops": len(plan),
        "spans_written": len(rec.spans),
        "spans_file": os.path.relpath(span_file, ROOT),
        "failed_ratio": tally.failed / tally.attempted,
    }
    return metrics, tally, facts, notes


def source_identity() -> dict:
    """The git commit when the checkout is a repository, and in any case
    a digest of the package sources."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "baumslag")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # never a repository above ROOT
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.trace:
        metrics, tally, facts, notes = traced(args.workload, args.seed)
    else:
        metrics, tally, facts = measure(args.workload, args.seed, args.seconds)
        notes = [
            f"setup_s: median of {SETUP_SPAWNS} fresh interpreters",
            f"op_tail_ms is p{facts['op_tail_percentile']} of {facts['ops']} ops, "
            f"{facts['op_tail_samples_beyond']} beyond it",
        ]
    notes.append(f"failed_ratio: {tally.failed / tally.attempted:.6g} "
                 f"({tally.failed} of {tally.attempted} checks)")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        **source_identity(),
        **facts,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        record = {"provenance": provenance, "notes": notes, "failures": tally.examples}
        json.dump({**record, **result}, handle, indent=1)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for note in notes:
        print(f"note: {note}")
    for example in tally.examples:
        print(f"failure: {example}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


_import_package()
import spans  # noqa: E402  (needs baumslag importable)
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
