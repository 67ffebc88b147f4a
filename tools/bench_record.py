"""Record the benchmark of one or more checkouts into BENCH_<label>.json.

    python3 tools/bench_record.py LABEL=DIR [LABEL=DIR ...]

For each workload of BENCHMARK.json and each of the seeds 1-10 this runs
``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` in
every checkout, with T the ``run_seconds`` of BENCHMARK.json, and keeps
the metrics of its last output line.  It then times the default
``baumslag verify --suite ct`` at ``--jobs 1`` and ``--jobs 2``, ten
times each, and keeps the sha256 of each stdout.  With several
checkouts, the runs of one seed (or one ct repeat) form a pair, and the
side that runs first alternates from pair to pair, so drift on a shared
machine falls on both sides alike.

Last, it runs the report-only scaling sweeps of SWEEPS in every
checkout, one subprocess per point, and fits a log-log slope to each;
a sweep stops after its first point over SWEEP_CAP_S seconds, so that
a quadratic baseline cannot stall the recorder.

One file per label is written at the root of this repository.  It holds
nproc, the Python version, the checkout's git SHA, whether its tracked
files differ from that commit, the package digest, and per metric the
median, the quartiles and every value in seed order, so that the values
of two files pair up by position.  To compare with an older commit, make
a separate clone of it and pass it as a second checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = list(range(1, 11))
CT_REPEATS = 10
CT_ARGV = ["-m", "baumslag.cli", "verify", "--suite", "ct"]
PROVENANCE = "provenance: "
SWEEP_CAP_S = 5.0
# name -> (sizes, setup building the input of size SIZE, timed statement).
SWEEPS = {
    # t^-k a t^k with 2k = SIZE t-letters: a cascade of k pinches.
    "britton_cascade_bs11_t_length": (
        [80_000, 160_000, 320_000, 640_000],
        "from baumslag.britton import BsParams, BsWord, britton_reduce\n"
        "k = SIZE // 2\n"
        "w = BsWord(0, ((-1, 0),) * (k - 1) + ((-1, 1),) + ((1, 0),) * k)\n"
        "params = BsParams(1, 1)",
        "britton_reduce(w, params)",
    ),
    # t^-SIZE a t^SIZE in BS(1,2), from text: SIZE pinches, each doubling
    # the exponent, up to a^(2^13600), just under MAX_EXPONENT_BITS.
    "britton_cascade_bs12_exponent": (
        [1_700, 3_400, 6_800, 13_600],
        "from baumslag.britton import BsParams, BsWord, britton_reduce\n"
        "text = f't^-{SIZE} a t^{SIZE}'\n"
        "params = BsParams(1, 2)",
        "britton_reduce(BsWord.from_text(text), params)",
    ),
    # SIZE syllables alternating over {a, t}, exponents in +-1..3.
    "parse_word_at_syllables": (
        [3_000, 6_000, 12_000, 24_000, 48_000],
        "import random\n"
        "from baumslag.words import parse_word\n"
        "rng = random.Random(SIZE)\n"
        "text = ' '.join(f'{g}^{rng.choice((-3, -2, -1, 1, 2, 3))}'\n"
        "                for g in ('a', 't') * (SIZE // 2))",
        "parse_word(text, ('a', 't'))",
    ),
    # Abelianization (the exponent matrix and its Smith normal form) of the
    # raw pi_1 of a cycle of SIZE copies of Z glued by x_i^2 = x_(i+1)^3:
    # about 4 SIZE relators over 3 SIZE generators.
    "snf_raw_cycle_vertices": (
        [200, 400, 800, 1_600],
        "import json\n"
        "from baumslag.abelianization import abelianization\n"
        "from baumslag.graph_of_groups import fundamental_presentation, loads\n"
        "edges = [{'id': f'e{i}', 'from': f'v{i}', 'to': f'v{(i + 1) % SIZE}',\n"
        "          'edge_generators': ['c'], 'alpha': [f'x{i}^2'],\n"
        "          'alpha_bar': [f'x{(i + 1) % SIZE}^3']} for i in range(SIZE)]\n"
        "vertices = {f'v{i}': {'generators': [f'x{i}'], 'relators': []} for i in range(SIZE)}\n"
        "raw = fundamental_presentation(loads(json.dumps({'vertices': vertices, 'edges': edges}))).raw",
        "abelianization(raw)",
    ),
    # fundamental_presentation (validate, spanning tree, raw and simplified
    # relators) of the same cycle, loaded before the clock starts.
    "pi1_cycle_vertices": (
        [800, 1_600, 3_200, 6_400, 12_800, 25_600],
        "import json\n"
        "from baumslag.graph_of_groups import fundamental_presentation, loads\n"
        "edges = [{'id': f'e{i}', 'from': f'v{i}', 'to': f'v{(i + 1) % SIZE}',\n"
        "          'edge_generators': ['c'], 'alpha': [f'x{i}^2'],\n"
        "          'alpha_bar': [f'x{(i + 1) % SIZE}^3']} for i in range(SIZE)]\n"
        "vertices = {f'v{i}': {'generators': [f'x{i}'], 'relators': []} for i in range(SIZE)}\n"
        "gog = loads(json.dumps({'vertices': vertices, 'edges': edges}))",
        "fundamental_presentation(gog)",
    ),
}


def summary(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and IQR of the values."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def in_turn(labels: list[str], index: int) -> list[str]:
    """The labels in the order of pair ``index``: reversed every other pair."""
    return labels if index % 2 == 0 else labels[::-1]


def git_state(checkout: str) -> dict:
    """HEAD of the checkout, and whether tracked files differ from it (a
    change not yet committed; src_sha256 then identifies the sources)."""

    def git(*args: str) -> str:
        done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return done.stdout.strip()

    return {
        "git_sha": git("rev-parse", "HEAD") or None,
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
    }


def bench_run(checkout: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced bench run: (result line, provenance)."""
    argv = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    provenance = next(line for line in lines if line.startswith(PROVENANCE))
    return json.loads(lines[-1]), json.loads(provenance[len(PROVENANCE):])


def ct_run(checkout: str, jobs: int) -> tuple[float, str]:
    """Wall time and stdout digest of the default ct suite."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *CT_ARGV, "--jobs", str(jobs)],
        cwd=checkout, env=env, capture_output=True, check=True,
    )
    return time.perf_counter() - start, hashlib.sha256(done.stdout).hexdigest()


def sweep_point(checkout: str, setup: str, stmt: str, size: int) -> float:
    """Seconds of one run of stmt on an input of the given size, in a fresh
    interpreter on the checkout's sources; the best of three under 1 s."""
    code = (
        f"SIZE = {size}\n{setup}\nimport time\nbest = None\n"
        f"for _ in range(3):\n"
        f"    start = time.perf_counter()\n    {stmt}\n"
        f"    took = time.perf_counter() - start\n"
        f"    best = took if best is None else min(best, took)\n"
        f"    if took > 1.0:\n        break\n"
        f"print(best)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=checkout, env=env,
        capture_output=True, text=True, check=True,
    )
    return float(done.stdout)


def loglog_slope(sizes: list[int], seconds: list[float]) -> float | None:
    """Least-squares slope of log(seconds) against log(size)."""
    if len(sizes) < 2:
        return None
    xs = [math.log(x) for x in sizes]
    ys = [math.log(y) for y in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def run_sweeps(checkout: str) -> dict:
    out = {}
    for name, (sizes, setup, stmt) in SWEEPS.items():
        done, seconds = [], []
        for size in sizes:
            done.append(size)
            seconds.append(sweep_point(checkout, setup, stmt, size))
            print(f"{checkout} {name} {size}: {seconds[-1]:.3f} s", file=sys.stderr)
            if seconds[-1] > SWEEP_CAP_S:
                break
        out[name] = {"sizes": done, "seconds": seconds, "loglog_slope": loglog_slope(done, seconds)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=DIR")
    args = parser.parse_args(argv)

    dirs = {}
    for item in args.checkouts:
        label, sep, path = item.partition("=")
        if not sep or not label:
            parser.error(f"expected LABEL=DIR, got {item!r}")
        dirs[label] = os.path.abspath(path)
    labels = list(dirs)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]

    records = {}
    for label in labels:
        records[label] = {
            "label": label,
            **git_state(dirs[label]),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "seeds": SEEDS,
            "seconds": seconds,
            "workloads": {},
        }
    for workload in (w["name"] for w in spec["workloads"]):
        raw = {label: {"attempted": 0, "failed": 0, "values": {}, "units": {}} for label in labels}
        for index, seed in enumerate(SEEDS):
            for label in in_turn(labels, index):
                result, provenance = bench_run(dirs[label], workload, seed, seconds)
                records[label]["src_sha256"] = provenance["src_sha256"]
                side = raw[label]
                side["attempted"] += result["attempted"]
                side["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    side["values"].setdefault(name, []).append(metric["value"])
                    side["units"][name] = metric["unit"]
                print(f"{label} {workload} seed {seed}: failed {result['failed']}", file=sys.stderr)
        for label, side in raw.items():
            records[label]["workloads"][workload] = {
                "attempted": side["attempted"],
                "failed": side["failed"],
                "metrics": {
                    name: {"unit": side["units"][name], **summary(values)}
                    for name, values in side["values"].items()
                },
            }
    times = {label: {1: [], 2: []} for label in labels}
    digests = {label: set() for label in labels}
    for index in range(CT_REPEATS):
        for label in in_turn(labels, index):
            for jobs in (1, 2):
                seconds_taken, digest = ct_run(dirs[label], jobs)
                times[label][jobs].append(seconds_taken)
                digests[label].add(digest)
                print(f"{label} ct --jobs {jobs}: {seconds_taken:.2f} s", file=sys.stderr)
    for label in labels:
        records[label]["sweeps"] = run_sweeps(dirs[label])
    for label in labels:
        records[label]["ct_default"] = {
            "command": "baumslag verify --suite ct --jobs J",
            **{f"jobs{j}_s": summary(times[label][j]) for j in (1, 2)},
            "stdout_sha256": sorted(digests[label]),
        }
        out = os.path.join(ROOT, f"BENCH_{label}.json")
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(records[label], handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
