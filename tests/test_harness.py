import json

import pytest

from baumslag import harness
from baumslag.errors import DomainError
from baumslag.harness import (
    NUM_BOUND,
    POW_BOUND,
    T_BOUND,
    SuiteReport,
    _run_trials,
    classify_fixed_examples,
    random_bs_word,
    random_element,
    suite_bezout,
    suite_classify,
    suite_ct,
    suite_gog,
    suite_oracle,
    suite_witnesses,
    suite_z2,
)
from baumslag.metabelian import MetabelianParams
import random


def test_run_trials_order_is_stable_across_jobs():
    # One serial runner: records come in trial-index order, and a rerun
    # with the same seed repeats them exactly.
    def trial(index, sub):
        draw = str(random.Random(sub).randint(0, 10**6))
        return [("p", draw, "no draw", "a draw")] if index % 3 == 0 else []

    first = _run_trials("demo", {"k": 1}, "s", 30, trial, ["a note"])
    assert first == _run_trials("demo", {"k": 1}, "s", 30, trial, ["a note"])
    assert [r["trial"] for r in first.failures] == [0, 3, 6, 9, 12, 15, 18, 21, 24, 27]
    assert (first.suite, first.parameters, first.trials) == ("demo", {"k": 1, "seed": "s"}, 30)
    assert first.notes == ["a note"]
    assert _run_trials("demo", {}, "s", 0, trial).failures == []


def test_failure_records_are_replayable():
    # The runner, not the trial, writes the trial index and seed.
    def trial(index, sub):
        value = random.Random(sub).randint(0, 100)
        if value < 20:
            return [("p", str(value), "value >= 20", "smaller")]
        return []

    failures = _run_trials("demo", {}, 7, 50, trial).failures
    assert failures
    for record in failures:
        assert record["seed"] == f"7:{record['trial']}"
        replay = random.Random(record["seed"]).randint(0, 100)
        assert str(replay) == record["inputs"]


def test_only_the_drawing_suites_seed_a_random(monkeypatch):
    # bezout, z2, witnesses and gog never draw, so they build no Random;
    # ct, oracle and classify build one per trial.
    def refuse(*args):
        raise AssertionError("random.Random was built")

    monkeypatch.setattr(harness.random, "Random", refuse)
    assert suite_bezout([(2, 3)], k_max=2, seed=0).verdict == "pass"
    assert suite_z2([(2, 3), (1, 2)], bound=2, seed=0).verdict == "pass"
    assert suite_witnesses([(2, 3), (1, 1)], seed=0).verdict == "pass"
    assert suite_gog(["two_loops"], seed=0).verdict == "pass"
    for run in (lambda: suite_ct([(2, 3)], trials=1, seed=0),
                lambda: suite_oracle([2], trials=1, seed=0),
                lambda: suite_classify([(2, 3)], trials=1, seed=0)):
        with pytest.raises(AssertionError, match="random.Random was built"):
            run()


def test_random_element_respects_bounds(monkeypatch):
    # The module constants are the bounds: at their values, and at
    # smaller ones patched in.
    rng = random.Random(12)
    params = MetabelianParams(2, 3)
    for t_bound, num_bound, pow_bound in ((T_BOUND, NUM_BOUND, POW_BOUND), (2, 5, 1)):
        monkeypatch.setattr(harness, "T_BOUND", t_bound)
        monkeypatch.setattr(harness, "NUM_BOUND", num_bound)
        monkeypatch.setattr(harness, "POW_BOUND", pow_bound)
        for _ in range(200):
            g = random_element(rng, params)
            assert -t_bound <= g.p <= t_bound
            assert abs(g.x) <= num_bound
            assert 6**pow_bound % g.x.denominator == 0


def test_suite_ct_passes_and_is_deterministic():
    first = suite_ct([(2, 3), (1, 2)], trials=150, seed=42)
    second = suite_ct([(2, 3), (1, 2)], trials=150, seed=42)
    assert first.verdict == "pass"
    assert first.trials == 300
    assert first.to_text() == second.to_text()
    assert first.to_json() == second.to_json()
    different = suite_ct([(2, 3), (1, 2)], trials=150, seed=43)
    assert different.to_text() != first.to_text()


def test_suite_ct_rejects_invalid_params():
    with pytest.raises(DomainError):
        suite_ct([(6, 2)], trials=10, seed=0)


def test_suite_ct_rejects_negative_trials():
    with pytest.raises(DomainError, match="trials must be >= 0, got -5"):
        suite_ct([(2, 3)], trials=-5, seed=0)
    assert suite_ct([(2, 3)], trials=0, seed=0).trials == 0


def test_suite_ct_abelian_group():
    report = suite_ct([(1, 1)], trials=100, seed=0)
    assert report.verdict == "pass"


def test_random_bs_word_length_bound():
    rng = random.Random(5)
    for _ in range(200):
        w = random_bs_word(rng, 12)
        assert abs(w.lead) + sum(1 + abs(e) for _, e in w.tail) <= 12 + len(w.tail)


def test_suite_oracle_passes():
    report = suite_oracle([2, 3, 5], trials=300, seed=11)
    assert report.verdict == "pass"
    assert report.trials == 900
    again = suite_oracle([2, 3, 5], trials=300, seed=11)
    assert report.to_text() == again.to_text()


def test_suite_oracle_rejects_bad_k():
    with pytest.raises(DomainError):
        suite_oracle([0], trials=5, seed=0)


def test_suite_oracle_rejects_negative_trials():
    with pytest.raises(DomainError, match="trials must be >= 0"):
        suite_oracle([2], trials=-1, seed=0)


def test_suite_z2_grid_with_skips():
    report = suite_z2(pairs=[(2, 3), (1, 2)], bound=2, seed=0)
    assert report.verdict == "pass"
    assert report.trials == 1
    assert any("skipped BS(1,2)" in note for note in report.notes)
    assert any("bound" in note for note in report.notes)


def test_suite_z2_rejects_bad_bound_even_when_all_cells_skip():
    with pytest.raises(DomainError, match="bound must be >= 1, got -1"):
        suite_z2(pairs=[(1, 2)], bound=-1, seed=0)


def test_suite_z2_default_grid():
    report = suite_z2(bound=2, seed=0)
    assert report.verdict == "pass"
    assert report.trials == 9


def test_suite_witnesses():
    report = suite_witnesses([(2, 3), (1, 2), (1, 1)], seed=0)
    assert report.verdict == "pass"
    assert report.trials == 6
    assert any("G(1,1)" in note for note in report.notes)


def test_suite_bezout():
    report = suite_bezout([(2, 3), (1, 2)], k_max=3, seed=0)
    assert report.verdict == "pass"
    assert report.trials == 12
    with pytest.raises(DomainError):
        suite_bezout([(1, 1)], k_max=2, seed=0)


def test_suite_bezout_rejects_negative_k_max():
    with pytest.raises(DomainError, match="k_max must be >= 0, got -1"):
        suite_bezout([(2, 3)], k_max=-1, seed=0)
    assert suite_bezout([(2, 3)], k_max=0, seed=0).trials == 0


def test_classify_fixed_examples():
    assert classify_fixed_examples() == []


def test_suite_classify():
    report = suite_classify([(2, 3)], trials=300, seed=9)
    assert report.verdict == "pass"
    assert report.trials == 303  # includes the three fixed examples
    assert any("fixed examples" in note for note in report.notes)


def test_suite_classify_rejects_negative_trials():
    with pytest.raises(DomainError, match="trials must be >= 0"):
        suite_classify([(2, 3)], trials=-1, seed=0)


def test_suite_gog():
    report = suite_gog(seed=0)
    assert report.verdict == "pass"
    assert report.trials == 8


def test_report_shapes():
    report = suite_witnesses([(2, 3)], seed=0)
    payload = json.loads(report.to_json())
    assert payload["suite"] == "witnesses"
    assert payload["verdict"] == "pass"
    assert payload["failures"] == []
    assert isinstance(payload["parameters"], dict)
    text = report.to_text()
    assert text.startswith("suite: witnesses\n")
    assert text.endswith("verdict: pass\n")


def test_failing_report_renders_records():
    report = SuiteReport(
        suite="demo",
        parameters={"seed": 0},
        trials=1,
        failures=[
            {
                "trial": 0,
                "seed": "0:0",
                "inputs": "x",
                "expected": "y",
                "got": "z",
            }
        ],
    )
    assert report.verdict == "fail"
    text = report.to_text()
    assert "  - expected: y" in text
    assert "    got: z" in text
    payload = json.loads(report.to_json())
    assert payload["failures"][0]["seed"] == "0:0"
