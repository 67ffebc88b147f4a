"""G(m, n) arithmetic against a reference written with Fraction in this file.

The package computes with integer numerators and denominators and skips
the Z[1/mn] membership check on its own results.  Here every operation is
recomputed from the group law (x, p) * (y, q) = (x + (m/n)^p y, p + q)
with Fraction arithmetic only: powers by repeated multiplication,
conjugates, commutators and word values by folding the reference product,
and centraliser samples by x * (1 - r^q) / (1 - r^p) followed by
mn_member.  Every element the package returns is also checked to lie in
Z[1/mn] and to equal the element the validating constructor builds.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from baumslag.errors import DomainError
from baumslag.harness import random_element as harness_random_element
from baumslag.metabelian import (
    MetabelianElement,
    MetabelianParams,
    centralizer_sample,
    eval_word,
)
from baumslag.rationals import mn_member
from baumslag.words import Word

# G(1, 1), G(1, k), G(k, 1) and every coprime pair up to 7.
PAIRS = sorted(
    {(m, n) for m in range(1, 8) for n in range(1, 8) if gcd(m, n) == 1}
    | {(1, 9), (9, 1), (1, 10), (10, 1)}
)
GROUPS = [MetabelianParams(m, n) for m, n in PAIRS]
IDS = [str(g) for g in GROUPS]


def ratio(params):
    return Fraction(params.m, params.n)


def ref_mul(params, g, h):
    (x, p), (y, q) = g, h
    return (x + ratio(params) ** p * y, p + q)


def ref_inverse(params, g):
    x, p = g
    return (-x * ratio(params) ** -p, -p)


def ref_pow(params, g, k):
    base = g if k >= 0 else ref_inverse(params, g)
    out = (Fraction(0), 0)
    for _ in range(abs(k)):
        out = ref_mul(params, out, base)
    return out


def ref_eval(params, syllables):
    out = (Fraction(0), 0)
    for gen, exp in syllables:
        out = ref_mul(params, out, (Fraction(exp), 0) if gen == 0 else (Fraction(0), exp))
    return out


def pair(element):
    return (element.x, element.p)


def returned(params, element):
    """Check an element the package returned; give its (x, p)."""
    assert type(element.x) is Fraction
    assert type(element.p) is int
    assert mn_member(element.x, params.m, params.n)
    rebuilt = MetabelianElement(params, element.x, element.p)
    assert element == rebuilt and hash(element) == hash(rebuilt)
    return pair(element)


def draw(rng, params, t_bound=4):
    """A validated element with a kernel denominator m^i n^j, t-exponent
    of either sign; zero kernel components and p = 0 come up too."""
    den = params.m ** rng.randint(0, 3) * params.n ** rng.randint(0, 3)
    x = Fraction(rng.randint(-60, 60), den)
    return MetabelianElement(params, x, rng.randint(-t_bound, t_bound))


@pytest.mark.parametrize("params", GROUPS, ids=IDS)
def test_operations_match_fraction_reference(params):
    rng = random.Random(f"ops:{params}")
    for _ in range(60):
        g, h, c = draw(rng, params), draw(rng, params), draw(rng, params)
        assert returned(params, g * h) == ref_mul(params, pair(g), pair(h))
        assert returned(params, g.inverse()) == ref_inverse(params, pair(g))
        by = ref_mul(params, ref_mul(params, ref_inverse(params, pair(c)), pair(g)), pair(c))
        assert returned(params, g.conjugate(c)) == by
        gh = ref_mul(params, ref_inverse(params, pair(g)), ref_inverse(params, pair(h)))
        comm = ref_mul(params, ref_mul(params, gh, pair(g)), pair(h))
        assert returned(params, g.commutator(h)) == comm
        assert g.commutes(h) == (
            ref_mul(params, pair(g), pair(h)) == ref_mul(params, pair(h), pair(g))
        )
        k = rng.randint(-5, 5)
        t_k = MetabelianElement(params, 0, k)
        conjugated = t_k * MetabelianElement(params, g.x, 0) * t_k.inverse()
        assert returned(params, conjugated) == (g.x * ratio(params) ** k, 0)


@pytest.mark.parametrize("params", GROUPS, ids=IDS)
def test_pow_matches_repeated_multiplication(params):
    rng = random.Random(f"pow:{params}")
    for _ in range(40):
        g = draw(rng, params)
        for k in range(-6, 7):
            assert returned(params, g ** k) == ref_pow(params, pair(g), k)


@pytest.mark.parametrize("params", GROUPS, ids=IDS)
def test_commutes_with_own_powers_and_centralizer(params):
    rng = random.Random(f"commutes:{params}")
    for _ in range(40):
        g = draw(rng, params)
        assert g.commutes(g ** rng.randint(-4, 4))
        if not g.is_identity:
            found = centralizer_sample(g, rng.randint(-4, 4))
            assert found is None or g.commutes(found)


@pytest.mark.parametrize("params", GROUPS, ids=IDS)
def test_eval_word_matches_fraction_reference(params):
    rng = random.Random(f"eval:{params}")
    for _ in range(60):
        syllables = [
            (rng.randrange(2), rng.choice([-1, 1]) * rng.randint(1, 5))
            for _ in range(rng.randint(0, 12))
        ]
        word = Word(syllables)
        # Free reduction does not change the value, so the raw syllables
        # are the reference input.
        assert returned(params, eval_word(word, params)) == ref_eval(params, syllables)


@pytest.mark.parametrize("params", GROUPS, ids=IDS)
def test_centralizer_sample_matches_fraction_reference(params):
    rng = random.Random(f"centralizer:{params}")
    r = ratio(params)
    hits = misses = 0
    for _ in range(80):
        g = draw(rng, params)
        if g.is_identity:
            with pytest.raises(DomainError):
                centralizer_sample(g, 1)
            continue
        for q in range(-5, 6):
            got = centralizer_sample(g, q)
            x, p = pair(g)
            if params.is_abelian:
                expected = (Fraction(0), q)
            elif p == 0:
                expected = pair(g) if q == 0 else None
            elif q == 0:
                expected = (Fraction(0), 0)
            else:
                y = x * (1 - r ** q) / (1 - r ** p)
                expected = (y, q) if mn_member(y, params.m, params.n) else None
            if expected is None:
                misses += 1
                assert got is None
            else:
                hits += 1
                assert returned(params, got) == expected
                commuted = ref_mul(params, pair(g), expected)
                assert commuted == ref_mul(params, expected, pair(g))
    assert hits > 0
    if not params.is_abelian:
        assert misses > 0


@pytest.mark.parametrize("params", GROUPS, ids=IDS)
def test_harness_random_element_is_a_member(params):
    rng = random.Random(f"harness:{params}")
    for _ in range(100):
        g = harness_random_element(rng, params)
        returned(params, g)


@pytest.mark.parametrize("bad", [0.1, 2.5, "1/2", "3", 1.0, True, None, 1 + 0j])
def test_constructor_rejects_non_exact_kernel_component(bad):
    with pytest.raises(TypeError):
        MetabelianElement(MetabelianParams(2, 3), bad, 0)


@pytest.mark.parametrize("bad", [1.0, "1", Fraction(1), False, None])
def test_constructor_rejects_non_int_t_exponent(bad):
    with pytest.raises(TypeError):
        MetabelianElement(MetabelianParams(2, 3), 1, bad)


def test_constructor_accepts_int_and_fraction():
    params = MetabelianParams(2, 3)
    g = MetabelianElement(params, 5, -1)
    assert type(g.x) is Fraction and g.x == 5
    assert MetabelianElement(params, Fraction(5, 6), 2).x == Fraction(5, 6)
    with pytest.raises(DomainError):
        MetabelianElement(params, Fraction(1, 5), 0)
