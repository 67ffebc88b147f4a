"""Byte-for-byte golden test of the command line.

Every case runs ``baumslag.cli.main`` in-process and records stdout,
stderr and the exit code, once per ``--format`` value.  The cases cover
every command, all seven ``verify`` suites at small sizes, the usage and
domain error paths, one forced failure for every failure record the
suites can emit, and one for every one-shot command that can exit 1: a
forced case replaces the checked function (or its result) for the
duration of the run, so the failure report itself is pinned.

The expected bytes live in ``tests/golden/cli.json``.  Regenerate them
only for an intended output change (and record that change in
CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py --write

``--check`` compares every case with the file using the standard library
only: the module never imports pytest (it parametrizes through the
``pytest_generate_tests`` hook), so the bytes can be confirmed on an
interpreter that has no pytest installed:

    PYTHONPATH=src python tests/test_golden.py --check
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from baumslag import britton, cli, harness, metabelian
from baumslag.fixtures import fixture_names, fixture_text, load_fixture

GOLDEN = Path(__file__).with_name("golden") / "cli.json"
FORMATS = ("text", "structured")

# Graph-of-groups files written next to the fixtures for the pi1 cases.
EXTRA_FILES = {
    "disconnected.json": json.dumps(
        {
            "vertices": {
                "u": {"generators": ["a"], "relators": []},
                "v": {"generators": ["b"], "relators": []},
            },
            "edges": [],
        }
    ),
    "schema_error.json": json.dumps(
        {
            "vertices": {"v": {"generators": ["a"], "relators": []}},
            "edges": [
                {
                    "id": "e",
                    "from": "v",
                    "to": "v",
                    "edge_generators": ["c"],
                    "alpha": ["a", "a"],
                    "alpha_bar": ["a"],
                }
            ],
        }
    ),
    "bad_word.json": json.dumps(
        {"vertices": {"v": {"generators": ["a"], "relators": ["a^x"]}}, "edges": []}
    ),
    "not_json.json": "{\"vertices\": ",
    "loop_and_edge.json": json.dumps(
        {
            "vertices": {
                "u": {"generators": ["a"], "relators": []},
                "v": {"generators": ["b"], "relators": []},
            },
            "edges": [
                {"id": "e", "from": "u", "to": "v", "edge_generators": []},
                {"id": "f", "from": "v", "to": "v", "edge_generators": []},
            ],
        }
    ),
}


def _commands() -> list[tuple[str, list[str]]]:
    cases = []

    def add(name, *argv):
        cases.append((name, list(argv)))

    for i, (group, word) in enumerate(
        [
            ("BS(2,3)", "t^-1 a^2 t"),
            ("BS(2,3)", "a^0"),
            ("BS(2,3)", "t^-1 a t a a^3 a^-1 t^-1 a^-1 t a^-3"),
            ("BS(-2,3)", "t a^3 t^-1 a t^-1 a^-2 t"),
            ("BS(1,2)", "tat^-1 (a t)^-2"),
            ("BS(3,-3)", "t a^6 t^-1 t^-1 a^-3 t"),
        ]
    ):
        add(f"reduce_{i}", "reduce", "--group", group, "--word", word)
    for i, (group, word) in enumerate(
        [
            ("G(1,2)", "a t"),
            ("G(2,3)", ""),
            ("G(2,3)", "t^-1 a^2 t"),
            ("G(3,5)", "t^3 a^-7 t^-5 a^2 t a"),
            ("G(1,1)", "a t a^-1 t^-1"),
        ]
    ):
        add(f"eval_{i}", "eval", "--group", group, "--word", word)
    for i, (group, elems) in enumerate(
        [
            ("G(2,3)", "(1/2, 1); (1/3, 1)"),
            ("G(2,3)", "(1, 1); (5/3, 2)"),
            ("G(2,3)", "(1, 0); (1/2, 0)"),
            ("G(2,3)", "(0, 1); (1/6, 0)"),
            ("G(1,1)", "(1, 1); (2, 0)"),
        ]
    ):
        add(f"classify_{i}", "classify", "--group", group, "--elems", elems)
    add("witness_z2", "witness", "--group", "BS(2,3)", "--kind", "z2")
    add("witness_z2_neg", "witness", "--group", "BS(-2,3)", "--kind", "z2", "--bound", "2")
    for group in ("G(2,3)", "G(1,2)", "G(1,1)"):
        tag = group[2:-1].replace(",", "")
        add(f"witness_weak_ah_{tag}", "witness", "--group", group, "--kind", "weak-ah")
        add(f"witness_csa_{tag}", "witness", "--group", group, "--kind", "csa")
    for i, (group, target) in enumerate(
        [
            ("G(2,3)", "1/n^2"),
            ("G(2,3)", "1/m^3"),
            ("G(2,3)", "1/n"),
            ("G(1,2)", "1/n^3"),
            ("G(3,5)", "1/m^0"),
        ]
    ):
        add(f"cert_{i}", "cert", "--group", group, "--target", target)
    for name in fixture_names():
        add(f"pi1_{name}", "pi1", "--input", f"{name}.json")
    add("pi1_tree", "pi1", "--input", "triangle.json", "--tree", "e2,e3")
    add("pi1_tree_empty", "pi1", "--input", "edgeless.json", "--tree", "")

    add("verify_ct", "verify", "--suite", "ct", "--group", "G(2,3)", "--trials", "20")
    add("verify_ct_defaults", "verify", "--suite", "ct", "--trials", "2", "--seed", "x")
    add("verify_ct_jobs2", "verify", "--suite", "ct", "--group", "G(1,1)",
        "--group", "G(3,4)", "--trials", "10", "--jobs", "2")
    add("verify_oracle", "verify", "--suite", "oracle", "--trials", "40")
    add("verify_oracle_group", "verify", "--suite", "oracle", "--group", "BS(1,7)",
        "--trials", "30", "--seed", "7")
    add("verify_z2", "verify", "--suite", "z2", "--bound", "2")
    add("verify_z2_defaults", "verify", "--suite", "z2")
    add("verify_z2_skips", "verify", "--suite", "z2", "--group", "BS(1,2)",
        "--group", "BS(-2,3)", "--bound", "2")
    add("verify_witnesses", "verify", "--suite", "witnesses")
    add("verify_witnesses_abelian", "verify", "--suite", "witnesses", "--group", "G(1,1)")
    add("verify_bezout", "verify", "--suite", "bezout", "--bound", "3")
    add("verify_bezout_defaults", "verify", "--suite", "bezout")
    add("verify_classify", "verify", "--suite", "classify", "--trials", "20")
    add("verify_classify_defaults", "verify", "--suite", "classify")
    add("verify_gog", "verify", "--suite", "gog")

    # Usage errors (exit 2) and domain errors (exit 3).
    add("err_reduce_family", "reduce", "--group", "G(2,3)", "--word", "a")
    add("err_reduce_zero", "reduce", "--group", "BS(0,3)", "--word", "a")
    add("err_reduce_group_syntax", "reduce", "--group", "BS(2,3", "--word", "a")
    add("err_reduce_unknown_gen", "reduce", "--group", "BS(2,3)", "--word", "t b")
    add("err_reduce_exponent", "reduce", "--group", "BS(2,3)", "--word", "a^")
    add("err_reduce_paren", "reduce", "--group", "BS(2,3)", "--word", "(a t")
    add("err_reduce_close_paren", "reduce", "--group", "BS(2,3)", "--word", "a t)")
    add("err_reduce_char", "reduce", "--group", "BS(2,3)", "--word", "a + t")
    add("err_group_unknown", "reduce", "--group", "F(2)", "--word", "a")
    add("err_eval_not_coprime", "eval", "--group", "G(2,4)", "--word", "a")
    add("err_eval_family", "eval", "--group", "BS(1,2)", "--word", "a")
    add("err_eval_negative", "eval", "--group", "G(-1,2)", "--word", "a")
    add("err_classify_count", "classify", "--group", "G(2,3)", "--elems", "(1, 1)")
    add("err_classify_syntax", "classify", "--group", "G(2,3)", "--elems", "(1, 1); 2")
    add("err_classify_zero_den", "classify", "--group", "G(2,3)", "--elems", "(1/0, 1); (1, 1)")
    add("err_classify_ring", "classify", "--group", "G(2,3)", "--elems", "(1/5, 1); (1, 1)")
    add("err_witness_z2_small", "witness", "--group", "BS(1,2)", "--kind", "z2")
    add("err_witness_z2_bound", "witness", "--group", "BS(2,3)", "--kind", "z2", "--bound", "0")
    add("err_witness_family", "witness", "--group", "BS(2,3)", "--kind", "csa")
    add("err_cert_abelian", "cert", "--group", "G(1,1)", "--target", "1/n")
    add("err_cert_target", "cert", "--group", "G(2,3)", "--target", "1/x^2")
    add("err_pi1_missing", "pi1", "--input", "missing.json")
    add("err_pi1_schema", "pi1", "--input", "schema_error.json")
    add("err_pi1_word", "pi1", "--input", "bad_word.json")
    add("err_pi1_json", "pi1", "--input", "not_json.json")
    add("err_pi1_invalid", "pi1", "--input", "disconnected.json")
    add("err_pi1_tree_unknown", "pi1", "--input", "triangle.json", "--tree", "zz")
    add("err_pi1_tree_size", "pi1", "--input", "triangle.json", "--tree", "e1")
    add("err_pi1_tree_span", "pi1", "--input", "loop_and_edge.json", "--tree", "f")
    add("err_verify_oracle_group", "verify", "--suite", "oracle", "--group", "BS(2,3)")
    add("err_verify_oracle_family", "verify", "--suite", "oracle", "--group", "G(1,2)")
    add("err_verify_ct_family", "verify", "--suite", "ct", "--group", "BS(2,3)")
    add("err_verify_bezout_abelian", "verify", "--suite", "bezout", "--group", "G(1,1)")
    add("err_verify_z2_family", "verify", "--suite", "z2", "--group", "G(2,3)")
    add("err_argparse_missing", "reduce", "--word", "a")
    add("err_argparse_int", "verify", "--suite", "ct", "--trials", "x")
    return cases


def _replace_result(fn, **changes):
    def wrapper(*args, **kwargs):
        return dataclasses.replace(fn(*args, **kwargs), **changes)

    return wrapper


def _forced() -> list[tuple[str, list[str], list[tuple[object, str, object]]]]:
    """(name, argv, patches): one case per failure record in harness, and
    one per one-shot command report that says ``verified: no``."""
    collapse = harness.collapse_all_but_one
    is_trivial = britton.is_trivial
    return [
        ("fail_ct_commute", ["verify", "--suite", "ct", "--group", "G(2,3)", "--trials", "3"],
         [(metabelian.MetabelianElement, "commutes", lambda self, other: False)]),
        ("fail_ct_exhausted", ["verify", "--suite", "ct", "--group", "G(2,3)", "--trials", "2"],
         [(harness, "centralizer_sample", lambda g, q: None)]),
        ("fail_oracle", ["verify", "--suite", "oracle", "--group", "BS(1,2)", "--trials", "6"],
         [(britton, "is_trivial", lambda w, params: not is_trivial(w, params))]),
        ("fail_z2_commutator", ["verify", "--suite", "z2", "--group", "BS(2,3)", "--bound", "1"],
         [(britton, "z2_witness",
           _replace_result(britton.z2_witness, commutator_is_trivial=False))]),
        ("fail_z2_collapsed", ["verify", "--suite", "z2", "--group", "BS(2,3)", "--bound", "1"],
         [(britton, "z2_witness",
           _replace_result(britton.z2_witness, collapsed_pairs=((1, -1), (0, 1))))]),
        ("fail_witness_power_none", ["verify", "--suite", "witnesses", "--group", "G(2,3)"],
         [(harness, "power_conjugacy_witness", lambda params: None)]),
        ("fail_witness_power_verify", ["verify", "--suite", "witnesses", "--group", "G(2,3)"],
         [(metabelian.PowerConjugacyWitness, "verify", lambda self: False)]),
        ("fail_witness_malnormal_none", ["verify", "--suite", "witnesses", "--group", "G(2,3)"],
         [(harness, "malnormality_violation_witness", lambda params: None)]),
        ("fail_witness_malnormal_verify", ["verify", "--suite", "witnesses", "--group", "G(2,3)"],
         [(metabelian.MalnormalityViolationWitness, "verify", lambda self: False)]),
        ("fail_bezout", ["verify", "--suite", "bezout", "--group", "G(2,3)", "--bound", "1"],
         [(metabelian.BezoutCertificate, "word_evaluates_to_target", lambda self: False)]),
        ("fail_classify", ["verify", "--suite", "classify", "--trials", "3"],
         [(harness, "two_gen_classify",
           lambda g1, g2: metabelian.TwoGenClassification(kind="bogus"))]),
        ("fail_gog_invalid", ["verify", "--suite", "gog"],
         [(harness, "validate", lambda gog: ["forced violation", "second violation"])]),
        ("fail_gog_relator_count", ["verify", "--suite", "gog"],
         [(harness, "expected_relator_count", lambda gog: -1)]),
        ("fail_gog_abelianization", ["verify", "--suite", "gog"],
         [(harness, "abelianization", lambda pres: len(pres.generators))]),
        ("fail_gog_collapse", ["verify", "--suite", "gog"],
         [(harness, "collapse_all_but_one",
           lambda gog, pair: collapse(load_fixture("two_loops"), "e"))]),
        ("fail_cli_witness_z2", ["witness", "--kind", "z2", "--group", "BS(2,3)", "--bound", "1"],
         [(britton, "z2_witness",
           _replace_result(britton.z2_witness, commutator_is_trivial=False))]),
        ("fail_cli_witness_weak_ah", ["witness", "--kind", "weak-ah", "--group", "G(2,3)"],
         [(metabelian.PowerConjugacyWitness, "verify", lambda self: False)]),
        ("fail_cli_witness_csa", ["witness", "--kind", "csa", "--group", "G(2,3)"],
         [(metabelian.MalnormalityViolationWitness, "verify", lambda self: False)]),
        ("fail_cli_cert", ["cert", "--group", "G(2,3)", "--target", "1/n^2"],
         [(metabelian.BezoutCertificate, "word_evaluates_to_target", lambda self: False)]),
    ]


def cases() -> list[tuple[str, list[str], list]]:
    out = []
    for name, argv, patches in [(n, a, []) for n, a in _commands()] + _forced():
        for fmt in FORMATS:
            out.append((f"{name}.{fmt}", argv + ["--format", fmt], patches))
    return out


def run_case(argv: list[str], patches) -> dict:
    """Run the CLI once; the working directory must hold the input files."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        for owner, attr, value in patches:
            stack.enter_context(mock.patch.object(owner, attr, value))
        stack.enter_context(mock.patch.dict(os.environ, {"COLUMNS": "80"}))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.main(argv)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def write_inputs(directory: Path) -> None:
    for name in fixture_names():
        (directory / f"{name}.json").write_text(fixture_text(name), encoding="utf-8")
    for name, text in EXTRA_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


def generate() -> dict:
    results = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            for name, argv, patches in cases():
                results[name] = run_case(argv, patches)
        finally:
            os.chdir(here)
    return results


CASES = cases()


@functools.lru_cache(maxsize=None)
def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def pytest_generate_tests(metafunc):
    if "argv" in metafunc.fixturenames:
        metafunc.parametrize("name,argv,patches", CASES, ids=[c[0] for c in CASES])


def test_golden_file_lists_every_case():
    assert sorted(load_golden()) == sorted(name for name, _, _ in CASES)


def test_cli_output_matches_golden(name, argv, patches, tmp_path_factory, monkeypatch):
    inputs = tmp_path_factory.getbasetemp() / "golden_inputs"
    if not inputs.exists():
        inputs.mkdir()
        write_inputs(inputs)
    monkeypatch.chdir(inputs)
    assert run_case(argv, patches) == load_golden()[name]


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        text = json.dumps(generate(), indent=1, sort_keys=True, ensure_ascii=False) + "\n"
        GOLDEN.write_text(text, encoding="utf-8")
        print(f"wrote {len(CASES)} cases to {GOLDEN}")
        return 0
    if argv == ["--check"]:
        expected, actual = load_golden(), generate()
        differ = sorted(name for name in expected.keys() | actual.keys()
                        if expected.get(name) != actual.get(name))
        for name in differ:
            print(f"differs: {name}")
        print(f"{len(actual) - len(differ)}/{len(actual)} cases equal on Python "
              f"{sys.version.split()[0]}")
        return 1 if differ else 0
    sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write | --check")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
