import json

from baumslag.cli import main
from baumslag.fixtures import fixture_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_examples(capsys):
    code, out, _ = run(capsys, "reduce", "--group", "BS(2,3)", "--word", "t^-1 a^2 t")
    assert code == 0
    assert "reduced: a^3" in out
    assert "trivial: no" in out

    code, out, _ = run(capsys, "reduce", "--group", "BS(2,3)", "--word", "a^0")
    assert code == 0
    assert "reduced: (empty word)" in out
    assert "trivial: yes" in out

    code, out, _ = run(
        capsys,
        "reduce",
        "--group",
        "BS(2,3)",
        "--word",
        "t^-1 a t a a^3 a^-1 t^-1 a^-1 t a^-3",
    )
    assert code == 0
    assert "trivial: yes" in out


def test_reduce_huge_exponent(capsys):
    # A 20-digit exponent on one letter: one syllable, nothing expanded.
    code, out, err = run(
        capsys, "reduce", "--group", "BS(2,3)", "--word", "a^10000000000000000000"
    )
    assert code == 0, err
    assert "reduced: a^10000000000000000000" in out


def test_reduce_huge_multi_syllable_power(capsys):
    code, out, err = run(
        capsys, "reduce", "--group", "BS(2,3)", "--word", "(t a t^-1)^10000000000000000000"
    )
    assert code == 0, err
    assert "reduced: t a^10000000000000000000 t^-1" in out


def test_reduce_over_syllable_limit_exits_3(capsys):
    for word in ("(a t)^10000000000000000000", "t^10000000000000000000"):
        code, out, err = run(capsys, "reduce", "--group", "BS(2,3)", "--word", word)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "limit of 1048576" in err


def test_reduce_over_exponent_budget_exits_3(capsys):
    # BS(1,2): t^-k a t^k = a^(2^k), past MAX_EXPONENT_BITS for k = 10^5.
    code, out, err = run(
        capsys, "reduce", "--group", "BS(1,2)", "--word", "t^-100000 a t^100000"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "above the limit of 14000" in err


def test_reduce_merged_exponent_over_budget_exits_3(capsys):
    # Printable exponents that free reduction, a power or a pinch would
    # merge into one past the 4 300-digit printing limit.
    nines = "9" * 4300
    cases = [("BS(2,3)", f"a^{nines} a^{nines}"), ("BS(2,3)", f"(a^{nines})^{nines}"),
             ("BS(2,3)", f"(a^{nines} t a^{nines})^2"), ("BS(1,2)", f"a^{nines} t^-1 a^3 t")]
    for group, word in cases:
        code, out, err = run(capsys, "reduce", "--group", group, "--word", word)
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "above the limit of 14000" in err


def test_reduce_exponent_parse_errors(capsys):
    code, out, err = run(capsys, "reduce", "--group", "BS(2,3)", "--word", "a^²")
    assert (code, out) == (2, "")
    assert err == "error: malformed exponent (at position 2)\n"
    code, out, err = run(capsys, "reduce", "--group", "BS(2,3)", "--word", "a^" + "9" * 5000)
    assert (code, out) == (3, "")
    assert err.startswith("error: exponent has 5000 digits, above the limit of")


def test_cert_large_k(capsys):
    code, out, err = run(capsys, "cert", "--group", "G(2,3)", "--target", "1/n^200")
    assert code == 0, err
    assert "verified: yes" in out


def test_reduce_structured(capsys):
    code, out, _ = run(
        capsys,
        "reduce",
        "--group",
        "BS(2,3)",
        "--word",
        "t^-1 a^2 t",
        "--format",
        "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reduced"] == "a^3"
    assert payload["trivial"] is False


def test_eval_examples(capsys):
    code, out, _ = run(capsys, "eval", "--group", "G(1,2)", "--word", "a t")
    assert code == 0 and "element: (1, 1)" in out
    code, out, _ = run(capsys, "eval", "--group", "G(2,3)", "--word", "")
    assert code == 0 and "element: (0, 0)" in out
    code, out, _ = run(capsys, "eval", "--group", "G(2,3)", "--word", "t^-1 a^2 t")
    assert code == 0 and "element: (3, 0)" in out


def test_eval_over_denominator_budget_exits_3(capsys):
    # (3/2)^100000 has a 100 000-bit denominator; G(1,1) builds no power.
    word = "t^-100000 a t^100000"
    code, out, err = run(capsys, "eval", "--group", "G(2,3)", "--word", word)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "above the limit of 14000" in err
    code, out, _ = run(capsys, "eval", "--group", "G(1,1)", "--word", word)
    assert code == 0 and "element: (1, 0)" in out


def test_eval_carries_before_bounding(capsys):
    # a^-2 at t-exponent -20000 is a^-3 at -19999, which cancels a^3: the
    # value is (0, 0), though the raw levels span 20 000 bits.
    word = "t^-20000 a^-2 t a^3 t^19999"
    code, out, err = run(capsys, "eval", "--group", "G(2,3)", "--word", word)
    assert code == 0, err
    assert "element: (0, 0)" in out


def test_eval_over_numerator_budget_exits_3(capsys):
    # t^-13000 a^(2^13000) t^13000 = a^(3^13000) in G(2,3), and
    # t^-20000 a t^20000 = a^(2^20000) in G(1,2): too long to print.
    for group, word in (("G(2,3)", f"t^-13000 a^{2**13000} t^13000"),
                        ("G(1,2)", "t^-20000 a t^20000")):
        code, out, err = run(capsys, "eval", "--group", group, "--word", word)
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "above the limit of 14000" in err


def test_classify_over_t_exponent_budget_exits_3(capsys):
    # (1, 1)^100000 needs 3^100000; (1, 10000000) needs 3^10000000.
    for elems in ("(1, 1); (1, 100000)", "(1, 10000000); (1, 1)"):
        code, out, err = run(capsys, "classify", "--group", "G(2,3)", "--elems", elems)
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "above the limit of 14000" in err


def test_eval_requires_g_family(capsys):
    code, _, err = run(capsys, "eval", "--group", "BS(1,2)", "--word", "a")
    assert code == 2
    assert "G(m,n)" in err


def test_classify_examples(capsys):
    code, out, _ = run(
        capsys, "classify", "--group", "G(2,3)", "--elems", "(1/2, 1); (1/3, 1)"
    )
    assert code == 0
    assert "kind: contains_metabelian" in out
    assert "(1/6, 0)" in out
    assert "G(2,3)" in out

    code, out, _ = run(
        capsys, "classify", "--group", "G(2,3)", "--elems", "(1, 1); (5/3, 2)"
    )
    assert code == 0
    assert "kind: commensurable_cyclic" in out

    code, out, _ = run(
        capsys, "classify", "--group", "G(2,3)", "--elems", "(1, 0); (1/2, 0)"
    )
    assert code == 0
    assert "kind: inside_h" in out


def test_classify_structured_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "--group",
        "G(2,3)",
        "--elems",
        "(1/2, 1); (1/3, 1)",
        "--format",
        "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "contains_metabelian"
    assert payload["d"] == "(1/6, 0)"
    assert payload["subgroup"] == "G(2,3)"


def test_witness_weak_ah(capsys):
    code, out, _ = run(capsys, "witness", "--group", "G(2,3)", "--kind", "weak-ah")
    assert code == 0
    assert "identity: t x^3 t^-1 = x^2" in out
    assert "verified: yes" in out

    code, out, _ = run(capsys, "witness", "--group", "G(1,2)", "--kind", "weak-ah")
    assert code == 0
    assert "t x^2 t^-1 = x^1" in out

    code, out, _ = run(capsys, "witness", "--group", "G(1,1)", "--kind", "weak-ah")
    assert code == 0
    assert "witness: none" in out


def test_witness_csa(capsys):
    code, out, _ = run(capsys, "witness", "--group", "G(2,3)", "--kind", "csa")
    assert code == 0
    assert "verified: yes" in out
    code, out, _ = run(capsys, "witness", "--group", "G(1,1)", "--kind", "csa")
    assert code == 0
    assert "witness: none" in out


def test_witness_z2(capsys):
    code, out, _ = run(
        capsys, "witness", "--group", "BS(2,3)", "--kind", "z2", "--bound", "3"
    )
    assert code == 0
    assert "commutator [u, v] trivial: yes" in out
    assert "verified: yes" in out

    code, _, err = run(capsys, "witness", "--group", "BS(1,2)", "--kind", "z2")
    assert code == 3  # domain precondition |m|, |n| > 1
    assert "error" in err


def test_cert(capsys):
    code, out, _ = run(capsys, "cert", "--group", "G(2,3)", "--target", "1/n^2")
    assert code == 0
    assert "verified: yes" in out
    assert "word evaluates to: (1/9, 0)" in out

    code, out, _ = run(capsys, "cert", "--group", "G(2,3)", "--target", "1/m")
    assert code == 0
    assert "word evaluates to: (1/2, 0)" in out

    code, _, err = run(capsys, "cert", "--group", "G(1,1)", "--target", "1/n^2")
    assert code == 3

    code, _, err = run(capsys, "cert", "--group", "G(2,3)", "--target", "1/5")
    assert code == 2


def test_pi1(tmp_path, capsys):
    path = tmp_path / "loop.json"
    path.write_text(fixture_text("z2_loop"))
    code, out, _ = run(capsys, "pi1", "--input", str(path))
    assert code == 0
    assert "simplified: < a, e | e^-1 a e a^-1 >" in out
    assert "abelianization: Z^2" in out
    assert "assumption" in out


def test_pi1_big_exponent_vertex_relator(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "vertices": {"v": {"generators": ["a"], "relators": ["a^1000000000000"]}},
        "edges": [],
    }))
    code, out, err = run(capsys, "pi1", "--input", str(path))
    assert code == 0, err
    assert "abelianization: Z/1000000000000" in out


def test_pi1_dedups_big_exponent_relators_up_to_rotation_and_inverse(tmp_path, capsys):
    path = tmp_path / "dedup.json"
    path.write_text(json.dumps({
        "vertices": {"v": {"generators": ["a", "b"],
                           "relators": ["a^3000 b", "b a^3000", "b^-1 a^-3000"]}},
        "edges": [],
    }))
    code, out, err = run(capsys, "pi1", "--input", str(path))
    assert code == 0, err
    assert "simplified: < a, b | a^3000 b >" in out


def test_pi1_structured_and_tree_override(tmp_path, capsys):
    path = tmp_path / "triangle.json"
    path.write_text(fixture_text("triangle"))
    code, out, _ = run(
        capsys, "pi1", "--input", str(path), "--tree", "e1,e2", "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tree"] == ["e1", "e2"]
    assert payload["abelianization"] == "Z"


def test_pi1_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code, _, err = run(capsys, "pi1", "--input", str(path))
    assert code == 2
    assert "error" in err


def test_pi1_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "pi1", "--input", str(tmp_path / "missing.json"))
    assert code == 2


def test_verify_witnesses_and_exit_code(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "witnesses",
        "--group",
        "G(2,3)",
        "--group",
        "G(1,1)",
    )
    assert code == 0
    assert "verdict: pass" in out


def test_verify_structured_parses(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "bezout",
        "--group",
        "G(2,3)",
        "--bound",
        "3",
        "--format",
        "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "bezout"
    assert payload["verdict"] == "pass"


def test_verify_byte_stable_across_jobs(capsys):
    args = [
        "verify",
        "--suite",
        "classify",
        "--group",
        "G(2,3)",
        "--trials",
        "200",
        "--seed",
        "5",
    ]
    code1, out1, _ = run(capsys, *args)
    assert code1 == 0
    # --jobs is accepted and ignored, whatever its value.
    for jobs in ("4", "0", "-1", "3"):
        code2, out2, _ = run(capsys, *args, "--jobs", jobs)
        assert code2 == 0
        assert out2 == out1


def test_verify_oracle_small(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "oracle",
        "--group",
        "BS(1,2)",
        "--trials",
        "100",
    )
    assert code == 0
    assert "verdict: pass" in out


def test_verify_rejects_wrong_family(capsys):
    code, _, err = run(
        capsys, "verify", "--suite", "ct", "--group", "BS(2,3)", "--trials", "5"
    )
    assert code == 2


def test_verify_rejects_negative_counts(capsys):
    for suite, flag in (("ct", "--trials"), ("oracle", "--trials"),
                        ("classify", "--trials"), ("bezout", "--bound"), ("z2", "--bound")):
        code, out, err = run(capsys, "verify", "--suite", suite, flag, "-5")
        assert code == 3, suite
        assert out == ""
        assert err.startswith("error: ") and "-5" in err


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "reduce", "--group", "BS(2,3)")  # missing --word
    assert code == 2
    code, _, err = run(capsys, "reduce", "--group", "BS(0,3)", "--word", "a")
    assert code == 3  # parameter constraint of the family
    code, _, err = run(capsys, "reduce", "--group", "XX(2,3)", "--word", "a")
    assert code == 2
    code, _, err = run(capsys, "reduce", "--group", "BS(2,3)", "--word", "a^")
    assert code == 2
    assert "position" in err
    code, _, err = run(capsys, "eval", "--group", "G(6,2)", "--word", "a")
    assert code == 3
    code, _, err = run(capsys, "classify", "--group", "G(2,3)", "--elems", "(1, 0)")
    assert code == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
