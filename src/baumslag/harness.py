"""Deterministic, seeded property suites.

This module is where the suites' defaults live: each ``suite_*``
signature names the groups, trial count and bound that ``baumslag verify
--suite X`` runs when the flag is left out, and the command line passes
on only the flags that were given.

Every suite produces a SuiteReport whose text and JSON renderings are
byte-stable functions of (suite, parameters, seed): the i-th trial gets
the seed string ``f"{seed}:{i}"``, and trials run one after another in
index order in the calling thread.  The suites that draw (ct, oracle,
classify) take all of a trial's randomness from
``random.Random(f"{seed}:{i}")``; the others never draw and build no
Random.  A failure record carries the per-trial seed and the inputs
needed to replay that single trial.

Random elements of G(m, n) are sampled with the t-exponent uniform in
[-T_BOUND, T_BOUND] and the kernel component z / (m^i n^j) with z
uniform in [-NUM_BOUND, NUM_BOUND] and i, j <= POW_BOUND; these bounds
keep exact arithmetic fast while reaching all code paths.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Sequence

from . import britton
from .abelianization import abelianization
from .errors import DomainError
from .fixtures import fixture_names, load_fixture
from .graph_of_groups import (
    BOUNDARY_INJECTIVITY_ASSUMPTION,
    GraphOfGroups,
    collapse_all_but_one,
    fundamental_presentation,
    validate,
)
from .metabelian import (
    COMMENSURABLE_CYCLIC,
    CONTAINS_METABELIAN,
    INSIDE_H,
    MetabelianElement,
    MetabelianParams,
    bezout_certificate,
    centralizer_sample,
    element_over_mn,
    eval_word,
    malnormality_violation_witness,
    power_conjugacy_witness,
    subgroup_params,
    two_gen_classify,
)
from .words import Word

T_BOUND = 5
NUM_BOUND = 100
POW_BOUND = 4
CENTRALIZER_RETRIES = 32
ORACLE_MAX_LEN = 30

# Default groups: the coprime (m, n) with 1 <= m, n <= 7, and for ct only
# those with m < n; z2 runs BS(m, n) for 2 <= m, n <= 4.
WITNESS_GROUPS = tuple((m, n) for m in range(1, 8) for n in range(1, 8) if gcd(m, n) == 1)
CT_GROUPS = tuple((m, n) for m, n in WITNESS_GROUPS if m < n)
Z2_PAIRS = tuple((m, n) for m in range(2, 5) for n in range(2, 5))


@dataclass
class SuiteReport:
    """Outcome of one suite run; verdict is pass iff failures is empty."""

    suite: str
    parameters: dict
    trials: int
    failures: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "parameters": self.parameters,
            "trials": self.trials,
            "failures": self.failures,
            "notes": self.notes,
            "verdict": self.verdict,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}", "parameters:"]
        for key in sorted(self.parameters):
            lines.append(f"  {key}: {self.parameters[key]}")
        lines.append(f"trials run: {self.trials}")
        if self.notes:
            lines.append("notes:")
            for note in self.notes:
                lines.append(f"  - {note}")
        lines.append(f"failures: {len(self.failures)}")
        for record in self.failures:
            first = True
            for key in sorted(record):
                prefix = "  - " if first else "    "
                lines.append(f"{prefix}{key}: {record[key]}")
                first = False
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


# What a trial reports per failed check: (params, inputs, expected, got).
Problem = tuple[object, str, str, str]


def _failure(trial: int, seed: str, problem: Problem) -> dict:
    """The failure record: the trial index and per-trial seed replay it."""
    params, inputs, expected, got = problem
    return {
        "trial": trial,
        "seed": seed,
        "params": str(params),
        "inputs": inputs,
        "expected": expected,
        "got": got,
    }


def _require_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise DomainError(f"{name} must be >= 0, got {value}")


def _run_trials(
    suite: str,
    parameters: dict,
    seed: int | str,
    total: int,
    trial: Callable[[int, str], list[Problem]],
    notes: Sequence[str] = (),
) -> SuiteReport:
    """Run trials 0 .. total-1 in index order, each with its seed string
    "SEED:INDEX", and report their problems as failure records, under
    the parameters plus the seed."""
    failures: list[dict] = []
    for index in range(total):
        sub = f"{seed}:{index}"
        failures.extend(_failure(index, sub, p) for p in trial(index, sub))
    return SuiteReport(suite, {**parameters, "seed": seed}, total, failures, list(notes))


def random_element(rng: random.Random, params: MetabelianParams) -> MetabelianElement:
    z = rng.randint(-NUM_BOUND, NUM_BOUND)
    i = rng.randint(0, POW_BOUND)
    j = rng.randint(0, POW_BOUND)
    p = rng.randint(-T_BOUND, T_BOUND)
    return element_over_mn(params, z, i, j, p)


def _random_nonidentity(rng: random.Random, params: MetabelianParams) -> MetabelianElement:
    while True:
        g = random_element(rng, params)
        if not g.is_identity:
            return g


def _coerce_params(values: Iterable) -> list[MetabelianParams]:
    out = []
    for v in values:
        out.append(v if isinstance(v, MetabelianParams) else MetabelianParams(*v))
    return out


def suite_ct(
    params_list: Sequence = CT_GROUPS,
    trials: int = 10_000,
    seed: int | str = 0,
) -> SuiteReport:
    """Commutative transitivity: for commuting pairs built around a
    common nonidentity element, the outer two elements commute.

    Per trial: draw h != 1, then draw g and k from the centraliser of h
    at random t-exponents (retrying misses up to 32 times, then
    redrawing h), and check that g and k commute."""
    _require_nonnegative("trials", trials)
    groups = _coerce_params(params_list)

    def trial(index: int, sub: str) -> list[Problem]:
        rng = random.Random(sub)
        params = groups[index // trials]
        for _ in range(100):
            h = _random_nonidentity(rng, params)
            sampled = []
            for _ in range(2):
                found = None
                for _ in range(CENTRALIZER_RETRIES):
                    q = rng.randint(-T_BOUND, T_BOUND)
                    found = centralizer_sample(h, q)
                    if found is not None:
                        break
                if found is None:
                    break
                sampled.append(found)
            if len(sampled) != 2:
                continue
            g, k = sampled
            if g.commutes(k):
                return []
            return [(params, f"h={h} g={g} k={k}", "[g, k] = 1", "g and k do not commute")]
        return [(params, "", "centralizer samples", "sampling exhausted")]

    parameters = {"params": " ".join(map(str, groups)), "trials": trials}
    return _run_trials("ct", parameters, seed, len(groups) * trials, trial)


def random_bs_word(rng: random.Random, max_len: int) -> britton.BsWord:
    """Uniform letters from {a, a^-1, t, t^-1}, length uniform in
    [0, max_len], freely reduced."""
    length = rng.randint(0, max_len)
    letters = (((0, 1), (0, -1), (1, 1), (1, -1))[rng.randrange(4)] for _ in range(length))
    return britton.BsWord.from_word(Word(letters))


def suite_oracle(
    ks: Sequence[int] = (2, 3, 5),
    trials: int = 10_000,
    seed: int | str = 0,
) -> SuiteReport:
    """Word-problem cross-validation on BS(1, k): Britton reduction must
    agree with evaluation in G(1, k) on random words of up to
    ORACLE_MAX_LEN letters."""
    _require_nonnegative("trials", trials)
    ks = list(ks)
    for k in ks:
        if k < 1:
            raise DomainError(f"oracle suite needs k >= 1, got {k}")

    def trial(index: int, sub: str) -> list[Problem]:
        rng = random.Random(sub)
        k = ks[index // trials]
        word = random_bs_word(rng, ORACLE_MAX_LEN)
        by_britton = britton.is_trivial(word, britton.BsParams(1, k))
        by_eval = eval_word(word, MetabelianParams(1, k)).is_identity
        if by_britton == by_eval:
            return []
        return [
            (
                f"BS(1,{k})",
                word.format() or "<empty>",
                "both procedures agree",
                f"britton={by_britton} metabelian={by_eval}",
            )
        ]

    parameters = {"k": " ".join(map(str, ks)), "max_len": ORACLE_MAX_LEN, "trials": trials}
    return _run_trials("oracle", parameters, seed, len(ks) * trials, trial)


def suite_z2(
    pairs: Sequence[tuple[int, int]] = Z2_PAIRS,
    bound: int = 4,
    seed: int | str = 0,
) -> SuiteReport:
    """Rank-2 witness over a parameter grid: the generators t^-1 a t a
    and a^n of BS(m, n) commute, and no small mixed power collapses.
    Grid cells with |m| <= 1 or |n| <= 1 are skipped with a note."""
    cells = [tuple(p) for p in pairs]
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    runnable = [c for c in cells if abs(c[0]) > 1 and abs(c[1]) > 1]
    skipped = [c for c in cells if c not in runnable]

    def trial(index: int, sub: str) -> list[Problem]:
        params = britton.BsParams(*runnable[index])
        report = britton.z2_witness(params, bound)
        out = []
        if not report.commutator_is_trivial:
            out.append((params, "[t^-1 a t a, a^n]", "trivial commutator", "nontrivial"))
        if report.collapsed_pairs:
            out.append(
                (
                    params,
                    f"powers up to {bound}",
                    "all nonzero powers nontrivial",
                    f"collapsed at {list(report.collapsed_pairs)}",
                )
            )
        return out

    notes = [f"skipped BS({m},{n}): needs |m|, |n| > 1" for m, n in skipped]
    notes.append("faithfulness is checked up to the stated bound only")
    parameters = {"pairs": " ".join(f"({m},{n})" for m, n in cells), "bound": bound}
    return _run_trials("z2", parameters, seed, len(runnable), trial, notes)


def suite_witnesses(params_list: Sequence = WITNESS_GROUPS, seed: int | str = 0) -> SuiteReport:
    """Re-verify the conjugate-power and malnormality-violation witnesses
    by evaluating their defining identities with group arithmetic."""
    groups = _coerce_params(params_list)

    def trial(index: int, sub: str) -> list[Problem]:
        params = groups[index // 2]
        if index % 2 == 0:
            witness = power_conjugacy_witness(params)
            name, exists = "power_conjugacy_witness", params.m != params.n
            missing, verifies = "a witness (m != n)", "identity verifies with |e1| != |e2|"
        else:
            witness = malnormality_violation_witness(params)
            name, exists = "malnormality_violation_witness", not params.is_abelian
            missing, verifies = "a witness ((m,n) != (1,1))", "conjugate stays in H minus identity"
        if witness is None:
            return [(params, name, missing, "none")] if exists else []
        if not witness.verify():
            return [(params, witness.describe(), verifies, "verification failed")]
        return []

    notes = [
        "G(1,1): both witnesses are none; the group is free abelian of "
        "rank 2, so it already contains Z^2 as itself"
        for params in groups
        if params.is_abelian
    ]
    parameters = {"params": " ".join(map(str, groups))}
    return _run_trials("witnesses", parameters, seed, 2 * len(groups), trial, notes)


def suite_bezout(
    params_list: Sequence = ((2, 3), (3, 5), (1, 2), (2, 7)),
    k_max: int = 5,
    seed: int | str = 0,
) -> SuiteReport:
    """Membership certificates for 1/m^k and 1/n^k: the Bezout identity,
    its rational evaluation, and the group-word realisation must all
    check exactly for k = 1 .. k_max on both sides."""
    _require_nonnegative("k_max", k_max)
    groups = _coerce_params(params_list)
    for params in groups:
        if params.is_abelian:
            raise DomainError("G(1,1) admits no certificates (max(m, n) must be > 1)")
    work = [
        (params, k, side)
        for params in groups
        for k in range(1, k_max + 1)
        for side in ("m", "n")
    ]

    def trial(index: int, sub: str) -> list[Problem]:
        params, k, side = work[index]
        cert = bezout_certificate(params, k, side)
        checks = {
            "bezout identity": cert.bezout_identity_holds(),
            "evaluation identity": cert.evaluation_identity_holds(),
            "word evaluates to target": cert.word_evaluates_to_target(),
        }
        inputs = f"k={k} side={side} q={cert.q} q'={cert.q_prime}"
        return [(params, inputs, name, "check failed") for name, ok in checks.items() if not ok]

    parameters = {"params": " ".join(map(str, groups)), "k_max": k_max}
    return _run_trials("bezout", parameters, seed, len(work), trial)


def _classify_consistency(
    params: MetabelianParams,
    g1: MetabelianElement,
    g2: MetabelianElement,
) -> str | None:
    """Run two_gen_classify and cross-check the result; returns an error
    description or None."""
    result = two_gen_classify(g1, g2)
    if result.kind == INSIDE_H:
        if g1.p != 0 or g2.p != 0:
            return "inside_h with a nonzero t-exponent"
        return None
    if result.d is None or not result.d.in_kernel:
        return "combination element missing or outside H"
    if result.kind == COMMENSURABLE_CYCLIC:
        i, j = result.common_power
        if g1**i != g2**j:
            return f"common power g1^{i} != g2^{j}"
        return None
    if result.kind == CONTAINS_METABELIAN:
        if result.d.is_identity:
            return "contains_metabelian with trivial combination"
        anchor = result.anchor
        if anchor is None or anchor.p == 0:
            return "anchor generator missing or inside H"
        if subgroup_params(result.d.x, anchor.p, params) != result.subgroup:
            return "recomputed subgroup parameters disagree"
        if not params.is_abelian:
            for gen in (g1, g2):
                if gen.p != 0 and result.d.commutes(gen):
                    return "combination commutes with a generator outside H"
        return None
    return f"unknown kind {result.kind!r}"


_CLASSIFY_EXAMPLES = (
    # (g1, g2, expected kind, expectation detail)
    ((Fraction(1, 2), 1), (Fraction(1, 3), 1), CONTAINS_METABELIAN, "(1/6, 0)"),
    ((Fraction(1), 1), (Fraction(5, 3), 2), COMMENSURABLE_CYCLIC, None),
    ((Fraction(1), 0), (Fraction(1, 2), 0), INSIDE_H, None),
)


def classify_fixed_examples() -> list[str]:
    """The three reference classifications in G(2, 3); returns mismatch
    descriptions (empty = all reproduce)."""
    params = MetabelianParams(2, 3)
    problems = []
    for (x1, p1), (x2, p2), kind, detail in _CLASSIFY_EXAMPLES:
        g1 = MetabelianElement(params, x1, p1)
        g2 = MetabelianElement(params, x2, p2)
        result = two_gen_classify(g1, g2)
        if result.kind != kind:
            problems.append(f"{g1}, {g2}: expected {kind}, got {result.kind}")
        elif detail is not None and str(result.d) != detail:
            problems.append(f"{g1}, {g2}: expected d = {detail}, got {result.d}")
    return problems


def suite_classify(
    params_list: Sequence = ((2, 3),),
    trials: int = 1000,
    seed: int | str = 0,
) -> SuiteReport:
    """Two-generator classification consistency on random pairs, after
    reproducing the three fixed reference examples in G(2, 3), which
    count as trials and report first."""
    _require_nonnegative("trials", trials)
    groups = _coerce_params(params_list)
    fixed_problems = classify_fixed_examples()
    notes = ["fixed examples in G(2,3): reproduced"] if not fixed_problems else []

    def trial(index: int, sub: str) -> list[Problem]:
        rng = random.Random(sub)
        params = groups[index // trials]
        g1 = random_element(rng, params)
        g2 = random_element(rng, params)
        problem = _classify_consistency(params, g1, g2)
        if problem is None:
            return []
        return [(params, f"g1={g1} g2={g2}", "classification consistency", problem)]

    parameters = {"params": " ".join(map(str, groups)), "trials": trials}
    report = _run_trials("classify", parameters, seed, len(groups) * trials, trial, notes)
    report.failures[:0] = [
        _failure(-1, "fixed", ("G(2,3)", "fixed example", "tagged classification", p))
        for p in fixed_problems
    ]
    report.trials += len(_CLASSIFY_EXAMPLES)
    return report


def expected_relator_count(gog: GraphOfGroups) -> int:
    g = gog.graph
    pairs = g.edge_pairs()
    tree = len(g.vertices) - 1
    vertex_relators = sum(len(gog.vertex_groups[v].relators) for v in g.vertices)
    conjugation = sum(
        len(gog.edge_generators[g.pair_key(e)]) for e in g.half_edges
    )
    return vertex_relators + len(pairs) + tree + conjugation


def _gog_checks(gog: GraphOfGroups) -> list[tuple[str, str]]:
    """(expected, got) for every failed invariant of a fixture."""
    problems = validate(gog)
    if problems:
        return [("valid fixture", "; ".join(problems))]
    pi1 = fundamental_presentation(gog)
    out = []
    expected = expected_relator_count(gog)
    if len(pi1.raw.relators) != expected:
        out.append((f"{expected} raw relators", str(len(pi1.raw.relators))))
    ab_raw = abelianization(pi1.raw)
    ab_simplified = abelianization(pi1.simplified)
    if ab_raw != ab_simplified:
        out.append((f"abelianization {ab_raw}", f"simplified gives {ab_simplified}"))
    for pair in gog.graph.edge_pairs():
        collapsed = collapse_all_but_one(gog, pair)
        ab_collapsed = abelianization(fundamental_presentation(collapsed.gog).raw)
        if ab_collapsed != ab_raw:
            out.append(
                (
                    f"abelianization {ab_raw} preserved by collapse onto {pair}",
                    str(ab_collapsed),
                )
            )
    return out


def suite_gog(names: Sequence[str] = fixture_names(), seed: int | str = 0) -> SuiteReport:
    """Fundamental-group builder checks on the built-in fixtures: the
    relator-count formula, equality of raw and simplified
    abelianizations, and invariance of the abelianization under every
    collapse-to-one-edge move.  The builder makes the raw and the
    simplified presentation as two constructions from the same letters,
    so their abelianizations are compared across the two; that the
    simplified one is the Tietze rewrite of the raw one is checked in
    tests/test_cross_validation.py."""
    names = list(names)

    def trial(index: int, sub: str) -> list[Problem]:
        name = names[index]
        return [
            (name, f"fixture {name}", expected, got)
            for expected, got in _gog_checks(load_fixture(name))
        ]

    notes = [BOUNDARY_INJECTIVITY_ASSUMPTION]
    return _run_trials("gog", {"fixtures": " ".join(names)}, seed, len(names), trial, notes)
