import random

import pytest

from baumslag.britton import (
    MAX_EXPONENT_BITS,
    BsParams,
    BsWord,
    britton_reduce,
    commutator_word,
    equal,
    is_trivial,
    parse_bs_params,
    z2_witness,
)
from baumslag.errors import DomainError
from baumslag.metabelian import MetabelianElement, MetabelianParams, eval_word
from baumslag.words import MAX_SYLLABLES, Word

BS23 = BsParams(2, 3)


def W(text):
    return BsWord.from_text(text)


def in_g(w, k):
    """Image of a BS(1, k) word in G(1, k) under a -> (1, 0), t -> (0, 1)."""
    return eval_word(w, MetabelianParams(1, k))


def one_letter_tail(w):
    """w.tail with one (sign, exponent) pair per t-letter: t^K a^e is
    |K| - 1 pairs (sign, 0) followed by (sign, e)."""
    out = []
    for k, e in w.tail:
        sign = 1 if k > 0 else -1
        out += [(sign, 0)] * (abs(k) - 1) + [(sign, e)]
    return out


def pinches(w, params):
    """Indices j where t^sj a^ej t^s(j+1) is a pinch, scanned from the
    definition independently of britton_reduce."""
    signs = [s for s, _ in one_letter_tail(w)]
    exps = [e for _, e in one_letter_tail(w)]
    return [
        j
        for j in range(len(signs) - 1)
        if ((signs[j], signs[j + 1]) == (-1, 1) and exps[j] % params.m == 0)
        or ((signs[j], signs[j + 1]) == (1, -1) and exps[j] % params.n == 0)
    ]


def random_bs_word(rng, max_len=20):
    lead = 0
    tail = []
    for _ in range(rng.randint(0, max_len)):
        c = rng.randrange(4)
        if c < 2:
            exp = 1 if c == 0 else -1
            if tail:
                tail[-1][1] += exp
            else:
                lead += exp
        else:
            tail.append([1 if c == 2 else -1, 0])
    return BsWord(lead, tuple((s, e) for s, e in tail))


def reference_reduce(w, params):
    """The quadratic leftmost-first loop that britton_reduce replaced,
    kept as its differential oracle: rescan from the pinch's left
    neighbour after every rewrite."""
    lead = w.lead
    tail = [[s, e] for s, e in one_letter_tail(w)]
    j = 0
    while j < len(tail) - 1:
        sign, exp = tail[j]
        next_sign, next_exp = tail[j + 1]
        if sign == -1 and next_sign == 1 and exp % params.m == 0:
            merged = exp // params.m * params.n + next_exp
        elif sign == 1 and next_sign == -1 and exp % params.n == 0:
            merged = exp // params.n * params.m + next_exp
        else:
            j += 1
            continue
        del tail[j : j + 2]
        if j == 0:
            lead += merged
        else:
            tail[j - 1][1] += merged
        j = max(j - 1, 0)
    return BsWord(lead, tuple((s, e) for s, e in tail))


def pinchy_bs_word(rng, params, max_len=40):
    """A random syllable word whose exponents are mostly multiples of m,
    n or mn, so that pinches, cascades and cancellations are frequent."""
    m, n = params.m, params.n
    choices = (0, m, -m, n, -n, m * n, -m * n, m * m, n * n)
    tail = tuple(
        (rng.choice((1, -1)), rng.choice(choices) if rng.random() < 0.8 else rng.randint(-4, 4))
        for _ in range(rng.randint(0, max_len))
    )
    return BsWord(rng.choice(choices), tail)


def test_params_validation():
    with pytest.raises(DomainError):
        BsParams(0, 3)
    assert str(BsParams(2, -3)) == "BS(2,-3)"
    assert parse_bs_params("BS(2, -3)") == BsParams(2, -3)
    with pytest.raises(ValueError):
        parse_bs_params("BS(2)")


def test_word_round_trip():
    w = W("t^-1 a^2 t a^-3")
    assert w.lead == 0
    assert w.tail == ((-1, 2), (1, -3))
    assert w.format() == "t^-1 a^2 t a^-3"
    assert BsWord.from_text(w.format()) == w


def test_concat_invert_pow():
    u, v = W("a t"), W("t^-1 a^2")
    # Word's operators: free reduction only; britton_reduce removes pinches.
    assert u * v == BsWord(1, ((1, 0), (-1, 2))) == W("a^3")
    assert ~W("a t a^3") == W("a^-3 t^-1 a^-1")
    assert W("a t") ** 2 == W("a t a t")
    assert W("a t") ** -1 == W("t^-1 a^-1")
    assert not W("a t") * ~W("a t")
    assert (W("t a^2") * W("t^-1 a^3 t")).tail == ((1, 2), (-1, 3), (1, 0))  # a pinch stays
    for result in (u * v, ~u, u ** 3, u ** 0, BsWord() * BsWord()):
        assert type(result) is BsWord


def test_bsword_views():
    w = BsWord.from_text("t^5 a^2 t^-1")
    assert w.lead == 0
    assert w.tail == ((5, 2), (-1, 0))
    assert w.t_length == 6
    assert w.format() == "t^5 a^2 t^-1"
    assert BsWord(-3, w.tail) == W("a^-3 t^5 a^2 t^-1")
    assert (BsWord(4).lead, BsWord(4).tail, BsWord(4).t_length) == (4, (), 0)
    word = Word([(1, 2), (0, 1)])
    assert BsWord.from_word(word).letters is word.letters
    with pytest.raises(ValueError, match="two-letter alphabet"):
        BsWord.from_word(Word([(0, 1), (2, 1)]))


def test_bsword_construction_reduces_freely():
    w = BsWord(2, ((1, 0), (1, 3), (-1, 0), (1, -3)))
    assert w.letters == ((0, 2), (1, 2))
    assert w.tail == ((2, 0),)
    assert BsWord(0, ((1, 0), (-1, 0))) == BsWord()
    assert BsWord(5, ((1, 0), (-1, -5))) == BsWord()


def test_bsword_power_matches_repeated_product():
    # The closed form must equal the k-fold product, which Word's * reduces.
    rng = random.Random(7919)
    words = [BsWord(), BsWord(5), W("a t"), W("t^-1 a t a")]
    for _ in range(200):
        tail = tuple(
            (rng.choice((1, -1)), rng.randint(-2, 2)) for _ in range(rng.randint(0, 5))
        )
        words.append(BsWord(rng.randint(-3, 3), tail))
    for w in words:
        for k in range(-7, 8):
            base = w if k >= 0 else ~w
            expected = BsWord()
            for _ in range(abs(k)):
                expected = expected * base
            assert w ** k == expected, (w, k)


def test_from_word_limits_t_letters():
    with pytest.raises(DomainError):
        BsWord.from_word(Word([(1, 10**19)]))
    with pytest.raises(DomainError):
        BsWord.from_word(Word([(1, -MAX_SYLLABLES), (0, 1), (1, 1)]))
    assert BsWord.from_word(Word([(0, 10**19)])) == BsWord(10**19)


def test_britton_reduce_examples():
    assert britton_reduce(W("t^-1 a^2 t"), BS23) == BsWord(3)
    assert britton_reduce(BsWord(), BS23) == BsWord()
    comm = commutator_word(W("t^-1 a t a"), W("a^3"))
    assert is_trivial(comm, BS23)


def test_britton_reduce_output_is_pinch_free():
    assert pinches(W("t^-1 a^2 t a t a^3 t^-1"), BS23) == [0, 2]
    rng = random.Random(424242)
    for params in (BS23, BsParams(3, 5), BsParams(-2, 3), BsParams(2, -2)):
        for _ in range(400):
            w = britton_reduce(random_bs_word(rng), params)
            assert pinches(w, params) == []


def test_is_trivial_examples():
    assert is_trivial(W("a t t^-1 a^-1"), BS23)
    assert is_trivial(W("t^-1 a^2 t a^-3"), BS23)
    assert not is_trivial(W("t^-1 a t"), BS23)


def test_equal_examples():
    w = W("t a^2 t^-1 a")
    assert equal(w, w, BS23)
    assert equal(W("t^-1 a^2 t"), W("a^3"), BS23)
    assert not equal(W("a"), W("t"), BS23)


def test_negative_parameters():
    # t^-1 a^2 t = a^-3 in BS(2,-3).
    params = BsParams(2, -3)
    assert equal(W("t^-1 a^2 t"), W("a^-3"), params)
    params = BsParams(-2, 3)
    assert equal(W("t^-1 a^-2 t"), W("a^3"), params)


def test_eval_metabelian_examples():
    assert in_g(W("a"), 2) == MetabelianElement(MetabelianParams(1, 2), 1, 0)
    assert in_g(W("t^-1 a t a^-2"), 2).is_identity
    assert in_g(W("a t"), 2) == MetabelianElement(MetabelianParams(1, 2), 1, 1)
    with pytest.raises(DomainError):
        in_g(W("a"), 0)


def test_eval_metabelian_is_homomorphism():
    rng = random.Random(134217)
    for _ in range(500):
        u, v = random_bs_word(rng), random_bs_word(rng)
        k = rng.choice([1, 2, 3, 5])
        assert in_g(u * v, k) == in_g(u, k) * in_g(v, k)


def test_oracle_equivalence_on_soluble_groups():
    rng = random.Random(271)
    for k in (2, 3, 5):
        params = BsParams(1, k)
        for _ in range(800):
            w = random_bs_word(rng, max_len=25)
            assert is_trivial(w, params) == in_g(w, k).is_identity


def test_reduction_preserves_group_element():
    rng = random.Random(828)
    for params in (BS23, BsParams(3, 5), BsParams(-2, 5)):
        for _ in range(300):
            w = random_bs_word(rng)
            assert equal(w, britton_reduce(w, params), params)


def test_inserting_pinch_preserves_equality_class():
    # Splicing t^-1 a^(c*m) t in place of a^(c*n) (or vice versa) at a
    # random seam never changes the represented element.
    rng = random.Random(96823)
    for params in (BS23, BsParams(3, 4)):
        for _ in range(300):
            w = random_bs_word(rng, max_len=12)
            c = rng.randint(-3, 3)
            left = BsWord(0, tuple(w.tail[: rng.randint(0, len(w.tail))]))
            right = BsWord(0, w.tail[len(left.tail):])
            prefix = BsWord(w.lead) * left
            pinch = BsWord(0, ((-1, c * params.m), (1, 0)))
            flat = BsWord(c * params.n)
            assert equal(prefix * pinch * right, prefix * flat * right, params)


def test_z2_witness_examples():
    report = z2_witness(BS23, 4)
    assert report.commutator_is_trivial
    assert report.pairs_checked == 80
    assert report.collapsed_pairs == ()
    assert report.verified

    report = z2_witness(BsParams(3, 5), 3)
    assert report.verified
    assert report.pairs_checked == 48


def test_z2_witness_guards():
    with pytest.raises(DomainError):
        z2_witness(BsParams(1, 2), 4)
    with pytest.raises(DomainError):
        z2_witness(BS23, 0)


def test_z2_witness_negative_params():
    assert z2_witness(BsParams(-2, 3), 2).verified
    assert z2_witness(BsParams(2, -3), 2).verified


DIFFERENTIAL_PARAMS = [
    (2, 3), (-2, 3), (2, -3), (4, 6), (3, -9), (1, 1), (1, -1), (-1, -1),
    (1, 2), (2, 1), (1, 5), (6, 4), (2, 2), (-3, -3),
]


@pytest.mark.parametrize("m,n", DIFFERENTIAL_PARAMS)
def test_britton_reduce_matches_reference(m, n):
    params = BsParams(m, n)
    rng = random.Random(f"britton:{m}:{n}")
    for _ in range(600):
        w = pinchy_bs_word(rng, params) if rng.random() < 0.75 else random_bs_word(rng, 30)
        assert britton_reduce(w, params) == reference_reduce(w, params), w


@pytest.mark.parametrize("m,n", [(1, 1), (1, -1), (2, 2), (2, 4), (3, -9)])
def test_britton_reduce_matches_reference_on_cascades(m, n):
    # t^-k a^(m^k) t^k nested k deep collapses one pinch per level.
    params = BsParams(m, n)
    rng = random.Random(f"cascade:{m}:{n}")
    for depth in range(12):
        for _ in range(10):
            tail = ((-1, 0),) * (depth - 1) + ((-1, m**depth),) if depth else ()
            tail += tuple((1, rng.choice((0, 0, m, n, 1))) for _ in range(depth))
            w = BsWord(rng.randint(-2, 2), tail)
            assert britton_reduce(w, params) == reference_reduce(w, params), w


@pytest.mark.parametrize(
    "m,n", [(1, 1), (1, -1), (2, 3), (-2, 3), (1, 2), (2, 4), (3, -9), (2, 2)]
)
def test_britton_reduce_matches_reference_on_runs(m, n):
    # Runs t^+-k, k up to 50, around exponents that are often powers of m
    # or n, so that a run pinches none, some or all of its letters.
    params = BsParams(m, n)
    rng = random.Random(f"runs:{m}:{n}")
    for _ in range(150):
        tail = [
            (
                rng.choice((1, -1)) * rng.randint(1, 50),
                rng.choice((1, -1)) * rng.choice((m, n, 1)) ** rng.randint(0, 50)
                if rng.random() < 0.8 else rng.randint(-3, 3),
            )
            for _ in range(rng.randint(1, 8))
        ]
        w = BsWord(rng.randint(-2, 2), tail)
        assert britton_reduce(w, params) == reference_reduce(w, params), w


def test_exponent_budget():
    # BS(1,2): t^-k a t^k = a^(2^k); past the budget a pinch raises.
    params = BsParams(1, 2)
    k = MAX_EXPONENT_BITS - 1
    w = BsWord(0, ((-1, 0),) * (k - 1) + ((-1, 1),) + ((1, 0),) * k)
    assert britton_reduce(w, params) == BsWord(2**k)
    w = BsWord(0, ((-1, 0),) * k + ((-1, 1),) + ((1, 0),) * (k + 1))
    with pytest.raises(DomainError, match=f"above the limit of {MAX_EXPONENT_BITS}"):
        britton_reduce(w, params)
    # Budget is on merged exponents only; a large unpinched exponent stays.
    big = BsWord(2 ** (2 * MAX_EXPONENT_BITS))
    assert britton_reduce(big, params) == big


@pytest.mark.parametrize(
    "m,n,bound", [(2, 3, 3), (-2, 3, 2), (2, -3, 3), (4, 6, 2), (3, -9, 2), (2, 2, 3)]
)
def test_z2_witness_matches_double_loop(m, n, bound):
    params = BsParams(m, n)
    u = BsWord(0, ((-1, 1), (1, 1)))
    v = BsWord(n)
    collapsed = [
        (i, j)
        for i in range(-bound, bound + 1)
        for j in range(-bound, bound + 1)
        if (i, j) != (0, 0) and reference_reduce(u**i * v**j, params) == BsWord()
    ]
    report = z2_witness(params, bound)
    assert report.collapsed_pairs == tuple(collapsed)
    assert report.pairs_checked == (2 * bound + 1) ** 2 - 1
    assert report.commutator_is_trivial == (
        reference_reduce(commutator_word(u, v), params) == BsWord()
    )
