"""Acceptance suite: every criterion is exact (tolerance zero) and prints
one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import contextlib
import io
import time
from math import gcd

from baumslag.abelianization import Abelianization, abelianization
from baumslag.cli import main
from baumslag.fixtures import fixture_names, load_fixture
from baumslag.graph_of_groups import collapse_all_but_one, fundamental_presentation
from baumslag.harness import (
    classify_fixed_examples,
    expected_relator_count,
    suite_bezout,
    suite_classify,
    suite_ct,
    suite_oracle,
    suite_z2,
)
from baumslag.metabelian import (
    MetabelianParams,
    malnormality_violation_witness,
    power_conjugacy_witness,
)


def report(number: int, name: str, ok: bool, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status} [{time.time() - started:.1f}s]")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_oracle_equivalence():
    started = time.time()
    result = suite_oracle()
    ok = result.verdict == "pass" and result.trials == 3 * 10_000
    report(1, "word-problem oracle equivalence", ok, started)


def test_criterion_2_z2_witness_grid():
    started = time.time()
    result = suite_z2()
    ok = result.verdict == "pass" and result.trials == 3 * 3
    report(2, "rank-2 subgroup witness grid", ok, started)


def test_criterion_3_commutative_transitivity():
    started = time.time()
    pairs = [
        (m, n) for m in range(1, 8) for n in range(m + 1, 8) if gcd(m, n) == 1
    ]
    result = suite_ct(pairs, trials=10_000, seed=0)
    ok = result.verdict == "pass" and result.trials == len(pairs) * 10_000
    report(3, "commutative transitivity", ok, started)


def test_criterion_4_structural_witnesses():
    started = time.time()
    ok = True
    for m in range(1, 8):
        for n in range(1, 8):
            if gcd(m, n) != 1:
                continue
            params = MetabelianParams(m, n)
            power = power_conjugacy_witness(params)
            if m != n:
                ok = ok and power is not None and power.verify()
                ok = ok and abs(power.e1) != abs(power.e2)
            else:
                ok = ok and power is None
            malnormality = malnormality_violation_witness(params)
            if (m, n) != (1, 1):
                ok = ok and malnormality is not None and malnormality.verify()
            else:
                ok = ok and malnormality is None
    report(4, "conjugate-power and malnormality witnesses", ok, started)


def test_criterion_5_bezout_certificates():
    started = time.time()
    result = suite_bezout([(2, 3), (3, 5), (1, 2), (2, 7)], k_max=5, seed=0)
    ok = result.verdict == "pass" and result.trials == 4 * 5 * 2
    report(5, "membership certificates", ok, started)


def test_criterion_6_two_generator_classification():
    started = time.time()
    ok = classify_fixed_examples() == []
    result = suite_classify([(2, 3)], trials=1000, seed=0)
    ok = ok and result.verdict == "pass"
    report(6, "two-generator classification", ok, started)


def test_criterion_7_pi1_builder():
    started = time.time()
    loop = fundamental_presentation(load_fixture("z2_loop"))
    ok = abelianization(loop.simplified) == Abelianization(2, ())
    amalgam = fundamental_presentation(load_fixture("trefoil_amalgam"))
    ok = ok and abelianization(amalgam.simplified) == Abelianization(1, ())
    for name in fixture_names():
        gog = load_fixture(name)
        pi1 = fundamental_presentation(gog)
        ok = ok and len(pi1.raw.relators) == expected_relator_count(gog)
        ok = ok and abelianization(pi1.raw) == abelianization(pi1.simplified)
        before = abelianization(pi1.raw)
        for pair in gog.graph.edge_pairs():
            collapsed = collapse_all_but_one(gog, pair)
            after = abelianization(fundamental_presentation(collapsed.gog).raw)
            ok = ok and before == after
    report(7, "fundamental-group builder", ok, started)


def _verify_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", *argv])
    assert code == 0, f"verify {argv} exited {code}"
    return out.getvalue()


def test_criterion_8_determinism():
    started = time.time()
    runs = {
        "oracle": ["--group", "BS(1,2)", "--group", "BS(1,3)", "--trials", "400"],
        "ct": ["--group", "G(2,3)", "--trials", "400"],
        "z2": ["--bound", "2"],
        "witnesses": ["--group", "G(2,3)", "--group", "G(1,1)"],
        "bezout": ["--group", "G(2,3)", "--bound", "3"],
        "classify": ["--group", "G(2,3)", "--trials", "400"],
        "gog": [],
    }
    ok = True
    for suite, args in runs.items():
        for fmt in ("text", "structured"):
            argv = ["--suite", suite, *args, "--seed", "77", "--format", fmt]
            first = _verify_stdout([*argv, "--jobs", "1"])
            second = _verify_stdout([*argv, "--jobs", "1"])
            other_jobs = _verify_stdout([*argv, "--jobs", "3"])
            ok = ok and first == second == other_jobs
    report(8, "seeded determinism across --jobs values", ok, started)
