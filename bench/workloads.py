"""Seeded workload generators.

A workload is an endless sequence of rounds; round r draws all of its
randomness from ``random.Random(f"{workload}:{seed}:{r}")``, so one seed
always gives the same inputs.  Every round has the same composition of
op kinds and sizes; the seed chooses the contents (group parameters,
letters, gluing exponents, names, orders).  That keeps the cost of a
round nearly the same across seeds, so seed-to-seed spread stays small.

An op is one call into a public entry point of baumslag: a ``verify``
call through ``cli.main`` or the library calls behind ``reduce``,
``cert``, ``witness`` and ``pi1``.  ``run`` does the work (the timed
part) and ``check`` compares its result with an answer from
``reference``, which shares no code with the package.

``tiny`` shrinks every size for the self-test.  ``corrupt`` spoils the
reference answer of one op in every round, so that the checks can be
seen to fail.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from math import gcd

import reference as ref
from baumslag import britton, cli, graph_of_groups, metabelian, words

# The package re-exports the function abelianization under the module's name.
snf = importlib.import_module("baumslag.abelianization")

WORKLOADS = ("suites", "word_problem", "graphs")

# Tail percentile of op latency per workload: the highest one that the
# minimum sample count of a run (see run.min_ops) leaves 10 samples beyond.
TAIL_PERCENTILE = {"suites": 90, "word_problem": 99, "graphs": 90}


class Op:
    """One query.  ``trials`` is the trial count a verify op must report;
    ``argv`` is set for verify ops, which the runner replays at --jobs 2."""

    __slots__ = ("kind", "inputs", "run", "check", "trials", "argv")

    def __init__(self, kind, inputs, run, check, trials=0, argv=None):
        self.kind = kind
        self.inputs = inputs
        self.run = run
        self.check = check
        self.trials = trials
        self.argv = argv


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def verify_op(suite: str, args: list[str], trials: int, seed: str, corrupt=False) -> Op:
    argv = ["verify", "--suite", suite, "--seed", seed] + args
    expected = trials + 1 if corrupt else trials

    def check(result) -> bool:
        code, out, _ = result
        lines = out.splitlines()
        return (
            code == 0
            and lines[-1:] == ["verdict: pass"]
            and f"trials run: {expected}" in lines
        )

    return Op(
        f"verify:{suite}",
        tuple(argv),
        lambda: call_cli(argv + ["--jobs", "1"]),
        check,
        trials=trials,
        argv=argv,
    )


# ---------------------------------------------------------------------------
# suites: every verification suite through cli.main.


# Trial counts of the suites at the CLI's default groups: ct runs every
# coprime pair m < n <= 7, witnesses two trials per ordered coprime pair
# m, n <= 7, oracle k = 2, 3, 5, z2 the 3 x 3 grid, bezout four groups,
# classify adds three fixed examples and gog has eight fixtures.
CT_PAIRS = sum(gcd(m, n) == 1 for m in range(1, 8) for n in range(m + 1, 8))
ORDERED_PAIRS = sum(gcd(m, n) == 1 for m in range(1, 8) for n in range(1, 8))


def suites_round(rng: random.Random, tiny: bool, corrupt: bool) -> list[Op]:
    ct, oracle, classify = (3, 6, 10) if tiny else (150, 300, 200)
    bound, k_max = (2, 3) if tiny else (4, 5)
    seed = str(rng.randrange(10**9))
    ops = [
        verify_op("ct", ["--trials", str(ct)], CT_PAIRS * ct, seed, corrupt),
        verify_op("oracle", ["--trials", str(oracle)], 3 * oracle, seed),
        verify_op("classify", ["--trials", str(classify)], classify + 3, seed),
        verify_op("z2", ["--bound", str(bound)], 9, seed),
        verify_op("witnesses", [], 2 * ORDERED_PAIRS, seed),
        verify_op("bezout", ["--bound", str(k_max)], 4 * k_max * 2, seed),
        verify_op("gog", [], 8, seed),
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# word_problem: one-shot reduce / equal / cert / z2 queries.

BS_POOL = (
    (2, 3), (3, 2), (2, 5), (3, 4), (4, 3), (5, 3),  # coprime, positive
    (-2, 3), (2, -3), (-3, -2), (4, 6), (-4, 6), (6, -4), (3, -9), (-5, 2),
)
# Fixed groups for the verify calls, so that their cost is the same in
# every round; the seed still changes the suites' --seed.
BEZOUT_GROUPS = ((2, 3), (3, 4), (2, 5), (1, 2))
Z2_GROUPS = ((2, 3), (-3, 4), (4, -6))


def _random_word(rng: random.Random, length: int):
    return ref.free_reduce(
        (rng.randrange(2), rng.choice((1, -1))) for _ in range(length)
    )


def _trivial_word(rng: random.Random, m: int, n: int, length: int):
    """Product of conjugates c r^(+-1) c^-1 of r = t^-1 a^m t a^-n."""
    r = [(ref.T, -1), (ref.A, m), (ref.T, 1), (ref.A, -n)]
    pieces: list[tuple[int, int]] = []
    letters = 0
    while letters < length:
        c = _random_word(rng, rng.randint(1, 10))
        rel = r if rng.random() < 0.5 else ref.inverse(r)
        pieces += c + rel + ref.inverse(c)
        letters += 2 * len(c) + 2 + abs(m) + abs(n)
    return ref.free_reduce(pieces)


def _nontrivial_word(rng: random.Random, m: int, n: int, length: int):
    """A trivial word times a^k (k != 0), or with one extra t^+-1
    inserted (nonzero t-exponent sum)."""
    w = _trivial_word(rng, m, n, length)
    if rng.random() < 0.5:
        k = rng.choice((1, -1)) * rng.randint(1, 9)
        return ref.free_reduce(w + [(ref.A, k)])
    cut = rng.randrange(len(w) + 1)
    return ref.free_reduce(w[:cut] + [(ref.T, rng.choice((1, -1)))] + w[cut:])


def _bsword(syllables) -> "britton.BsWord":
    lead = 0
    tail: list[list[int]] = []
    for g, e in syllables:
        if g == ref.A:
            if tail:
                tail[-1][1] += e
            else:
                lead += e
        else:
            tail.extend([1 if e > 0 else -1, 0] for _ in range(abs(e)))
    return britton.BsWord(lead, tuple((s, e) for s, e in tail))


def _syllables_of(w: "britton.BsWord"):
    out = [(ref.A, w.lead)]
    for sign, exp in w.tail:
        out += [(ref.T, sign), (ref.A, exp)]
    return ref.free_reduce(out)


def _reduced_ok(source, reduced, m: int, n: int, trivial: bool) -> bool:
    """Checks on a reduced form: empty iff the word is trivial, no pinch
    left, t-exponent sum kept and, for coprime m, n >= 1, the same image
    in G(m, n) as the input (Britton-trivial implies the identity)."""
    if (not reduced) != trivial:
        return False
    if not ref.is_pinch_free(reduced, m, n):
        return False
    if ref.t_exponent_sum(reduced) != ref.t_exponent_sum(source):
        return False
    if m >= 1 and n >= 1 and gcd(m, n) == 1:
        image = ref.eval_in_g(source, m, n)
        if image != ref.eval_in_g(reduced, m, n):
            return False
        if trivial and image != (0, 0):
            return False
    return True


def reduce_op(rng, length: int, as_text: bool, trivial: bool, corrupt: bool) -> Op:
    m, n = rng.choice(BS_POOL)
    make = _trivial_word if trivial else _nontrivial_word
    source = make(rng, m, n, length)
    expect = trivial != corrupt
    params = britton.BsParams(m, n)
    if as_text:
        text = ref.format_word(source)

        def run():
            w = britton.BsWord.from_text(text)
            return britton.britton_reduce(w, params).format()

        def check(out) -> bool:
            return _reduced_ok(source, ref.parse_word(out), m, n, expect)

        return Op("reduce_text", (m, n, text), run, check)
    word = _bsword(source)

    def run_word():
        return britton.britton_reduce(word, params)

    def check_word(out) -> bool:
        return _reduced_ok(source, _syllables_of(out), m, n, expect)

    return Op("reduce_word", (m, n, word.lead, word.tail), run_word, check_word)


def equal_op(rng, length: int, as_text: bool, same: bool) -> Op:
    m, n = rng.choice(BS_POOL)
    u = _random_word(rng, length // 2)
    v = ref.free_reduce(u + _trivial_word(rng, m, n, length // 2))
    if not same:
        v = ref.free_reduce(v + [(ref.A, rng.choice((1, -1)) * rng.randint(1, 9))])
    params = britton.BsParams(m, n)
    if as_text:
        tu, tv = ref.format_word(u), ref.format_word(v)

        def run():
            return britton.equal(
                britton.BsWord.from_text(tu), britton.BsWord.from_text(tv), params
            )

        inputs = (m, n, tu, tv)
    else:
        wu, wv = _bsword(u), _bsword(v)

        def run():
            return britton.equal(wu, wv, params)

        inputs = (m, n, wu.lead, wu.tail, wv.lead, wv.tail)
    return Op("equal_text" if as_text else "equal_word", inputs, run,
              lambda out: out is same)


def power_op(rng, big: int, conjugate: bool) -> Op:
    """Text with one huge exponent: ``a^N`` (N = big) reduces to itself,
    and ``t^-k a^(m^k) t^k`` (largest k with |m|^k <= big) reduces to
    a^(n^k)."""
    m, n = rng.choice(BS_POOL)
    if conjugate:
        k = 1
        while abs(m) ** (k + 1) <= big:
            k += 1
        text, expect = f"t^-{k} a^{m ** k} t^{k}", n**k
    else:
        text, expect = f"a^{big}", big
    params = britton.BsParams(m, n)

    def run():
        return britton.britton_reduce(britton.BsWord.from_text(text), params).format()

    return Op("power_text", (m, n, text), run,
              lambda out: ref.parse_word(out) == [(ref.A, expect)])


def cert_op(m: int, n: int, k: int, side: str) -> Op:
    """The library calls behind ``baumslag cert``."""
    params = metabelian.MetabelianParams(m, n)
    target = ref.cert_target(m, n, k, side)

    def run():
        cert = metabelian.bezout_certificate(params, k, side)
        ok = cert.verify()
        text = words.format_word(cert.word, ("a", "t"))
        value = metabelian.eval_word(cert.word, params)
        return cert.q, cert.q_prime, ok, text, value.x, value.p

    def check(out) -> bool:
        q, q_prime, ok, text, x, p = out
        return (
            ok
            and ref.bezout_holds(m, n, k, q, q_prime)
            and ref.eval_in_g(ref.parse_word(text), m, n) == target
            and (x, p) == target
        )

    return Op("cert", (m, n, k, side), run, check)


def z2_op(rng, bound: int) -> Op:
    m, n = rng.choice(BS_POOL)
    pairs = (2 * bound + 1) ** 2 - 1

    def run():
        return britton.z2_witness(britton.BsParams(m, n), bound)

    def check(report) -> bool:
        return (
            report.commutator_is_trivial
            and not report.collapsed_pairs
            and report.pairs_checked == pairs
        )

    return Op("z2", (m, n, bound), run, check)


def word_problem_round(rng: random.Random, tiny: bool, corrupt: bool) -> list[Op]:
    scale = 16 if tiny else 1
    lengths = [16, 32, 64, 128, 256, 512, 1024, 2048, 3072]
    flip = rng.random() < 0.5
    ops = []
    for i, length in enumerate(lengths):
        for as_text in (True, False):
            trivial = (i + as_text + flip) % 2 == 0
            ops.append(reduce_op(
                rng, max(8, length // scale), as_text, trivial, corrupt and not ops
            ))
    for i, length in enumerate((32, 256, 2048)):
        for as_text in (True, False):
            same = (i + as_text + flip) % 2 == 0
            ops.append(equal_op(rng, max(8, length // scale), as_text, same))
    for big in (1000, 20_000, 100_000, 400_000):
        for conjugate in (False, True):
            ops.append(power_op(rng, max(8, big // scale**2), conjugate))
    # Fixed k, so the exponential cost of a certificate is the same in
    # every round: G(2,3) at k = 12 is the slowest op of the workload.
    cert_ks = {(2, 3): (3, 6, 9, 12), (3, 5): (4, 7), (2, 5): (5, 8)}
    for (m, n), ks in cert_ks.items():
        for k in ks:
            for side in ("m", "n"):
                ops.append(cert_op(m, n, k // 2 if tiny else k, side))
    for bound in (4, 12, 20):
        ops.append(z2_op(rng, max(1, bound // scale)))
    seed = str(rng.randrange(10**9))
    k_max = 3 if tiny else 7
    ops.append(verify_op(
        "bezout",
        [a for m, n in BEZOUT_GROUPS for a in ("--group", f"G({m},{n})")]
        + ["--bound", str(k_max)],
        len(BEZOUT_GROUPS) * k_max * 2, seed,
    ))
    ops.append(verify_op(
        "z2",
        [a for m, n in Z2_GROUPS for a in ("--group", f"BS({m},{n})")]
        + ["--bound", "2" if tiny else "6"],
        len(Z2_GROUPS), seed,
    ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# graphs: graph-of-groups documents through loads -> validate -> pi_1 ->
# abelianization, with collapse_all_but_one on every edge of small graphs.


def _doc(vertices: dict, edges: list) -> str:
    return json.dumps({"vertices": vertices, "edges": edges})


def _edge(eid, frm, to, alpha, alpha_bar):
    return {"id": eid, "from": frm, "to": to, "edge_generators": ["c"],
            "alpha": [alpha], "alpha_bar": [alpha_bar]}


def _names(rng, count: int, prefix: str) -> list[str]:
    """Distinct identifiers in a seeded order, so the spanning tree the
    package picks differs between seeds."""
    ids = rng.sample(range(10 * count + 10), count)
    return [f"{prefix}{i}" for i in ids]


def _z_vertices(names):
    return {v: {"generators": [f"x_{v}"], "relators": []} for v in names}


def _glue(rng, eid, u, v, p, q):
    """Edge u -> v gluing x_u^p = x_v^q, in a seeded orientation."""
    if rng.random() < 0.5:
        return _edge(eid, u, v, f"x_{u}^{p}", f"x_{v}^{q}")
    return _edge(eid, v, u, f"x_{v}^{q}", f"x_{u}^{p}")


def _coprime(rng, lo, hi):
    while True:
        p, q = rng.randint(lo, hi), rng.randint(lo, hi)
        if p != q and gcd(p, q) == 1:
            return p, q


def _two_three(rng):
    """Gluing exponents 2 and 3 in a seeded order: the integers in the
    Smith normal form then grow alike for every seed."""
    return (2, 3) if rng.random() < 0.5 else (3, 2)


def cycle_doc(rng, v: int):
    p, q = _two_three(rng)
    names = _names(rng, v, "v")
    edges = [_glue(rng, f"e{i}", names[i], names[(i + 1) % v], p, q) for i in range(v)]
    return _doc(_z_vertices(names), edges), ref.ab_cycle(v, p, q), v, v


def path_doc(rng, v: int):
    p, q = _two_three(rng)
    names = _names(rng, v, "v")
    edges = [_glue(rng, f"e{i}", names[i], names[i + 1], p, q) for i in range(v - 1)]
    return _doc(_z_vertices(names), edges), ref.ab_tree(), v, v - 1


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def star_doc(rng, leaves: int):
    """Centre c, leaves x_i, gluings c^p_i = x_i^q_i with the q_i
    pairwise coprime and gcd(p_i, q_i) = 1, which makes pi_1 abelianize
    to Z."""
    names = _names(rng, leaves + 1, "s")
    centre = names[0]
    qs = list(rng.sample(PRIMES, min(leaves, len(PRIMES))))
    qs += [1] * (leaves - len(qs))
    rng.shuffle(qs)
    edges = []
    for i, q in enumerate(qs):
        p = rng.choice([p for p in range(1, 10) if gcd(p, q) == 1])
        edges.append(_glue(rng, f"f{i}", centre, names[i + 1], p, q))
    return _doc(_z_vertices(names), edges), ref.ab_tree(), leaves + 1, leaves


def loops_doc(rng, loops: int):
    pairs = [_coprime(rng, 1, 12) for _ in range(loops)]
    edges = [_edge(f"l{i}", "v", "v", f"a^{p}", f"a^{q}") for i, (p, q) in enumerate(pairs)]
    doc = _doc({"v": {"generators": ["a"], "relators": []}}, edges)
    return doc, ref.ab_loops(pairs), 1, loops


def amalgam_doc(rng, e: int):
    p, q = e, e + rng.randint(1, 3)
    doc = _doc(
        {"u": {"generators": ["a"], "relators": []}, "w": {"generators": ["b"], "relators": []}},
        [_edge("e", "u", "w", f"a^{p}", f"b^{q}")],
    )
    return doc, ref.ab_amalgam(p, q), 2, 1


def graph_op(kind: str, built, collapse: bool, corrupt: bool) -> Op:
    doc, expected, vertices, edges = built
    if corrupt:
        expected = (expected[0] + 1, expected[1])
    relators = ref.raw_relator_count(vertices, edges, edges)

    def run():
        gog = graph_of_groups.loads(doc)
        problems = graph_of_groups.validate(gog)
        pi1 = graph_of_groups.fundamental_presentation(gog)
        found = [
            snf.abelianization(pi1.simplified),
            snf.abelianization(pi1.raw),
        ]
        if collapse:
            for pair in gog.graph.edge_pairs():
                split = graph_of_groups.collapse_all_but_one(gog, pair)
                found.append(snf.abelianization(
                    graph_of_groups.fundamental_presentation(split.gog).raw
                ))
        return problems, len(pi1.raw.relators), [(a.free_rank, a.torsion) for a in found]

    def check(out) -> bool:
        problems, raw_count, found = out
        return not problems and raw_count == relators and all(
            f == expected for f in found
        )

    return Op(f"graph:{kind}", doc, run, check)


def graphs_round(rng: random.Random, tiny: bool, corrupt: bool) -> list[Op]:
    plan = [
        ("cycle", cycle_doc, (5, 12, 24, 48, 96)),
        ("path", path_doc, (6, 24, 72)),
        ("star", star_doc, (4, 16, 64)),
        ("loops", loops_doc, (1, 2, 4, 8)),
        ("amalgam", amalgam_doc, (25, 100, 400, 800)),
    ]
    ops = []
    for kind, build, sizes in plan:
        for size in sizes:
            size = max(2, size // 8) if tiny else size
            built = build(rng, size)
            ops.append(graph_op(kind, built, built[3] <= 8, corrupt and not ops))
    seed = str(rng.randrange(10**9))
    ops += [verify_op("gog", [], 8, f"{seed}{i}") for i in range(6)]
    rng.shuffle(ops)
    return ops


ROUNDS = {"suites": suites_round, "word_problem": word_problem_round, "graphs": graphs_round}


def rounds(workload: str, seed: int, tiny: bool = False, corrupt: bool = False):
    make = ROUNDS[workload]
    r = 0
    while True:
        ops = make(random.Random(f"{workload}:{seed}:{r}"), tiny, corrupt)
        yield ops
        r += 1
