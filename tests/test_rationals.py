import random
from fractions import Fraction

import pytest

from baumslag.errors import DomainError
from baumslag.metabelian import MetabelianParams, parse_element
from baumslag.rationals import mn_member


def random_ratio(rng):
    num = rng.randint(-200, 200)
    den = rng.randint(1, 200)
    return Fraction(num, den)


def test_add_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    x = Fraction(7, 9)
    assert x + Fraction(0) == x
    assert Fraction(1, 2) + Fraction(-1, 2) == Fraction(0)


def test_mul_pow_examples():
    assert Fraction(2, 3) * Fraction(3, 2) == Fraction(1)
    assert Fraction(2, 3) ** 2 == Fraction(4, 9)
    assert Fraction(2, 3) ** -1 == Fraction(3, 2)


def test_pow_zero_to_negative_is_domain_error():
    with pytest.raises(ZeroDivisionError):
        Fraction(0) ** -1


def test_normalisation_invariants_under_random_ops():
    rng = random.Random(20240917)
    for _ in range(2000):
        a, b = random_ratio(rng), random_ratio(rng)
        for value in (a + b, a * b, -a, a - b):
            assert value.denominator >= 1
            from math import gcd

            assert gcd(value.numerator, value.denominator) == 1
    assert Fraction(0, 5) == Fraction(0, 1)


def test_field_axioms_on_random_triples():
    rng = random.Random(8128)
    for _ in range(2000):
        a, b, c = (random_ratio(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_mn_member_examples():
    assert mn_member(Fraction(5, 12), 2, 3)
    assert mn_member(Fraction(7, 1), 2, 3)
    assert mn_member(Fraction(7, 1), 1, 1)
    assert not mn_member(Fraction(1, 5), 2, 3)


def test_mn_member_requires_positive_params():
    with pytest.raises(DomainError):
        mn_member(Fraction(1, 2), 0, 3)


def test_mn_member_m_equals_n_equals_one_is_integers():
    assert mn_member(Fraction(4), 1, 1)
    assert not mn_member(Fraction(1, 2), 1, 1)


def test_mn_member_closure():
    # Z[1/mn] is closed under +, negation, and scaling by m/n and n/m.
    rng = random.Random(4181)
    m, n = 2, 3
    for _ in range(1000):
        z1, z2 = rng.randint(-50, 50), rng.randint(-50, 50)
        i, j = rng.randint(0, 4), rng.randint(0, 4)
        a = Fraction(z1, m**i * n**j)
        b = Fraction(z2, m**j * n**i)
        assert mn_member(a, m, n) and mn_member(b, m, n)
        assert mn_member(a + b, m, n)
        assert mn_member(-a, m, n)
        assert mn_member(a * Fraction(m, n), m, n)
        assert mn_member(a * Fraction(n, m), m, n)


def test_parse_and_format():
    # Rationals enter through the element parser and leave through str.
    g23 = MetabelianParams(2, 3)
    for text, value in (("5/6", Fraction(5, 6)), ("-5/6", Fraction(-5, 6)), ("7", Fraction(7))):
        element = parse_element(f"({text}, 1)", g23)
        assert element.x == value and str(element) == f"({text}, 1)"
    assert str(parse_element("(-2/4, 0)", g23)) == "(-1/2, 0)"
    for text in ("(1/0, 0)", "(one half, 0)", "(+7, 0)"):
        with pytest.raises(ValueError):
            parse_element(text, g23)
