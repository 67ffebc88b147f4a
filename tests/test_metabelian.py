import random
from fractions import Fraction
from math import gcd

import pytest

from baumslag.errors import DomainError
from baumslag.metabelian import (
    COMMENSURABLE_CYCLIC,
    CONTAINS_METABELIAN,
    INSIDE_H,
    MetabelianElement,
    MetabelianParams,
    bezout_certificate,
    centralizer_sample,
    eval_word,
    malnormality_violation_witness,
    parse_element,
    parse_params,
    phi_pow,
    power_conjugacy_witness,
    subgroup_params,
    two_gen_classify,
)
from baumslag.rationals import mn_member
from baumslag.words import MAX_EXPONENT_BITS, Word, parse_word

G23 = MetabelianParams(2, 3)
G12 = MetabelianParams(1, 2)
G11 = MetabelianParams(1, 1)


def elem(params, x, p):
    return MetabelianElement(params, Fraction(x), p)


def random_element(rng, params, t_bound=4, num_bound=60, pow_bound=3):
    x = Fraction(
        rng.randint(-num_bound, num_bound),
        params.m ** rng.randint(0, pow_bound) * params.n ** rng.randint(0, pow_bound),
    )
    return MetabelianElement(params, x, rng.randint(-t_bound, t_bound))


def test_params_validation():
    with pytest.raises(DomainError):
        MetabelianParams(6, 2)
    with pytest.raises(DomainError):
        MetabelianParams(0, 3)
    with pytest.raises(DomainError):
        MetabelianParams(-2, 3)
    assert str(MetabelianParams(2, 3)) == "G(2,3)"


def test_element_requires_ring_membership():
    with pytest.raises(DomainError):
        elem(G23, Fraction(1, 5), 0)


def test_phi_pow_examples():
    assert phi_pow(G23, Fraction(1), 1) == Fraction(2, 3)
    assert phi_pow(G23, Fraction(7, 6), 0) == Fraction(7, 6)
    assert phi_pow(G23, Fraction(3), -1) == Fraction(9, 2)


def test_phi_pow_preserves_membership():
    rng = random.Random(11)
    for _ in range(500):
        g = random_element(rng, G23)
        k = rng.randint(-5, 5)
        assert mn_member(phi_pow(G23, g.x, k), 2, 3)


def test_mul_examples():
    assert elem(G23, 1, 1) * elem(G23, 1, 0) == elem(G23, Fraction(5, 3), 1)
    g = elem(G23, Fraction(7, 6), -2)
    assert g * MetabelianElement.identity(G23) == g
    assert g * g.inverse() == MetabelianElement.identity(G23)


def test_mul_parameter_mismatch():
    with pytest.raises(DomainError):
        elem(G23, 1, 0) * elem(G12, 1, 0)


def test_inverse_conjugate_commutator_examples():
    assert elem(G23, 1, 1).inverse() == elem(G23, Fraction(-3, 2), -1)
    g = elem(G23, Fraction(5, 2), 2)
    assert g.commutator(g) == MetabelianElement.identity(G23)
    assert elem(G23, 2, 0).conjugate(elem(G23, 0, 1)) == elem(G23, 3, 0)


def test_pow_matches_repeated_multiplication():
    rng = random.Random(37)
    for _ in range(300):
        g = random_element(rng, G23)
        acc = MetabelianElement.identity(G23)
        for k in range(4):
            assert g**k == acc
            assert g**-k == acc.inverse()
            acc = acc * g


def test_commutes_examples():
    g = elem(G23, 1, 0)
    assert g.commutes(g)
    assert elem(G23, 1, 0).commutes(elem(G23, 5, 0))
    assert not elem(G23, 1, 0).commutes(elem(G23, 0, 1))


def test_group_axioms_random():
    rng = random.Random(271828)
    for params in (G23, G12, G11, MetabelianParams(3, 5)):
        identity = MetabelianElement.identity(params)
        for _ in range(10_000):
            g, h, k = (random_element(rng, params) for _ in range(3))
            assert (g * h) * k == g * (h * k)
            assert g * identity == g and identity * g == g
            assert g * g.inverse() == identity and g.inverse() * g == identity


def test_kernel_is_normal():
    rng = random.Random(314159)
    for _ in range(1000):
        g = random_element(rng, G23)
        h = random_element(rng, G23)
        h = MetabelianElement(G23, h.x, 0)
        assert h.conjugate(g).in_kernel


def test_torsion_free_at_desk_scale():
    rng = random.Random(141421)
    for _ in range(1000):
        g = random_element(rng, G23)
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        if (g**k).is_identity:
            assert g.is_identity


def test_centralizer_sample_examples():
    g = elem(G23, 1, 0)
    got = centralizer_sample(g, 0)
    assert got == g  # an element of H commuting with g
    assert centralizer_sample(g, 1) is None
    assert centralizer_sample(elem(G11, 1, 0), 5) == elem(G11, 0, 5)


def test_centralizer_sample_identity_rejected():
    with pytest.raises(DomainError):
        centralizer_sample(MetabelianElement.identity(G23), 1)


def test_centralizer_sample_soundness_random():
    rng = random.Random(577215)
    for params in (G23, G12, G11):
        count = 0
        while count < 400:
            g = random_element(rng, params)
            if g.is_identity:
                continue
            q = rng.randint(-4, 4)
            got = centralizer_sample(g, q)
            count += 1
            if got is not None:
                assert got.p == q
                assert got.commutes(g)


def test_centralizer_sample_hits_multiples_of_p():
    g = elem(G23, 1, 2)
    got = centralizer_sample(g, 4)  # q a multiple of p: geometric sum, always a member
    assert got is not None and got.commutes(g)
    assert centralizer_sample(g, 0) == MetabelianElement.identity(G23)


def test_commutative_transitivity_via_centralizer():
    # Hypothesis-rich triples: g, k both sampled from the centraliser of h.
    rng = random.Random(662607)
    for params in (G23, G12, MetabelianParams(3, 7), G11):
        done = 0
        while done < 500:
            h = random_element(rng, params)
            if h.is_identity:
                continue
            g = centralizer_sample(h, rng.randint(-4, 4))
            k = centralizer_sample(h, rng.randint(-4, 4))
            if g is None or k is None:
                continue
            assert g.commutes(h) and h.commutes(k)
            assert g.commutes(k)
            done += 1


def test_subgroup_params_examples():
    assert subgroup_params(Fraction(1), 1, G23) == MetabelianParams(2, 3)
    assert subgroup_params(Fraction(1), 2, G23) == MetabelianParams(4, 9)
    assert subgroup_params(Fraction(1), -1, G23) == MetabelianParams(3, 2)


def test_subgroup_params_degenerate_inputs():
    with pytest.raises(DomainError):
        subgroup_params(Fraction(0), 1, G23)
    with pytest.raises(DomainError):
        subgroup_params(Fraction(1), 0, G23)


def test_bezout_certificate_examples():
    cert = bezout_certificate(G23, 1, "n")
    assert 2 * cert.q + 3 * cert.q_prime == 1
    assert cert.q * Fraction(2, 3) + cert.q_prime == Fraction(1, 3)
    assert cert.verify()

    cert0 = bezout_certificate(G23, 0, "n")
    assert (cert0.q, cert0.q_prime) == (0, 1)
    assert cert0.verify()

    cert2 = bezout_certificate(G23, 2, "n")
    assert 4 * cert2.q + 9 * cert2.q_prime == 1
    assert cert2.q * Fraction(4, 9) + cert2.q_prime == Fraction(1, 9)
    assert cert2.verify()


def test_bezout_certificate_m_side_and_word():
    for params in (G23, G12, MetabelianParams(2, 7)):
        for k in range(1, 6):
            for side in ("m", "n"):
                cert = bezout_certificate(params, k, side)
                base = params.m if side == "m" else params.n
                assert cert.target == MetabelianElement(
                    params, Fraction(1, base**k), 0
                )
                assert cert.verify()
                assert eval_word(cert.word, params) == cert.target


def test_bezout_certificate_large_k_is_short():
    # (t^k a t^-k)^q a^q' has |q| ~ 3^200; the word is t^k a^q t^-k a^q'.
    for side in ("n", "m"):
        cert = bezout_certificate(G23, 200, side)
        assert cert.verify()
        assert len(cert.word) <= 5


def test_bezout_certificate_guard():
    with pytest.raises(DomainError):
        bezout_certificate(G11, 1, "n")


def test_eval_word():
    assert eval_word(parse_word("a t", ("a", "t")), G12) == elem(G12, 1, 1)
    assert eval_word(parse_word("", ("a", "t")), G23) == MetabelianElement.identity(G23)
    assert eval_word(parse_word("t^-1 a^2 t", ("a", "t")), G23) == elem(G23, 3, 0)



def test_eval_word_carries_far_levels():
    # r, a product of conjugates of t^-1 a^(m c) t a^(-n c), is trivial.
    # Moved to t-exponent +-N past the denominator budget, its level sums
    # carry to 0, and t^-N r t^N v has the value of v.
    rng = random.Random(5527)
    far = MAX_EXPONENT_BITS + 1000
    t, a = Word([(1, 1)]), Word([(0, 1)])
    for m, n in ((2, 3), (3, 2), (1, 2), (2, 1), (3, 5), (4, 9)):
        params = MetabelianParams(m, n)
        for _ in range(40):
            r = Word()
            for _ in range(rng.randint(1, 5)):
                c = rng.choice((1, -1)) * rng.randint(1, 3)
                g = t ** rng.randint(-3, 3) * a ** rng.randint(-2, 2)
                r = r * g * t ** -1 * a ** (m * c) * t * a ** (-n * c) * ~g
            shift = t ** (rng.choice((1, -1)) * far)
            v = Word((rng.randrange(2), rng.randint(-3, 3)) for _ in range(rng.randint(0, 6)))
            assert eval_word(~shift * r * shift * v, params) == eval_word(v, params)


def test_two_gen_classify_examples():
    r = two_gen_classify(elem(G23, Fraction(1, 2), 1), elem(G23, Fraction(1, 3), 1))
    assert r.kind == CONTAINS_METABELIAN
    assert r.d == elem(G23, Fraction(1, 6), 0)
    assert r.subgroup == MetabelianParams(2, 3)

    g1 = elem(G23, 1, 1)
    r = two_gen_classify(g1, g1 * g1)
    assert g1 * g1 == elem(G23, Fraction(5, 3), 2)
    assert r.kind == COMMENSURABLE_CYCLIC
    i, j = r.common_power
    assert g1**i == (g1 * g1) ** j

    r = two_gen_classify(elem(G23, 1, 0), elem(G23, Fraction(1, 2), 0))
    assert r.kind == INSIDE_H


def test_two_gen_classify_anchor_when_first_generator_in_kernel():
    r = two_gen_classify(elem(G23, 1, 0), elem(G23, Fraction(1, 2), 2))
    assert r.kind == CONTAINS_METABELIAN
    assert r.anchor == elem(G23, Fraction(1, 2), 2)
    assert r.subgroup == MetabelianParams(4, 9)


def test_two_gen_classify_identity_generators():
    identity = MetabelianElement.identity(G23)
    assert two_gen_classify(identity, identity).kind == INSIDE_H
    r = two_gen_classify(identity, elem(G23, 1, 1))
    assert r.kind == COMMENSURABLE_CYCLIC


def test_two_gen_classify_consistency_random():
    rng = random.Random(161803)
    for _ in range(1500):
        g1, g2 = random_element(rng, G23), random_element(rng, G23)
        r = two_gen_classify(g1, g2)
        if r.kind == INSIDE_H:
            assert g1.p == 0 and g2.p == 0
            continue
        assert r.d is not None and r.d.in_kernel
        if r.kind == COMMENSURABLE_CYCLIC:
            i, j = r.common_power
            assert g1**i == g2**j
        else:
            assert not r.d.is_identity
            assert r.anchor is not None and r.anchor.p != 0
            assert subgroup_params(r.d.x, r.anchor.p, G23) == r.subgroup
            for gen in (g1, g2):
                if gen.p != 0:
                    assert not r.d.commutes(gen)


def test_power_conjugacy_witness():
    w = power_conjugacy_witness(G23)
    assert (w.e1, w.e2) == (3, 2)
    assert w.verify()
    assert (w.x ** w.e1).conjugate(w.t.inverse()) == w.x ** w.e2

    w = power_conjugacy_witness(G12)
    assert (w.e1, w.e2) == (2, 1)
    assert w.verify()

    assert power_conjugacy_witness(G11) is None


def test_power_conjugacy_witness_all_small_params():
    for m in range(1, 8):
        for n in range(1, 8):
            if gcd(m, n) != 1 or m == n:
                continue
            w = power_conjugacy_witness(MetabelianParams(m, n))
            assert w is not None and w.verify()


def test_malnormality_violation_witness():
    w = malnormality_violation_witness(G23)
    assert (w.h, w.g) == (elem(G23, 3, 0), elem(G23, 0, 1))
    assert w.verify()
    w = malnormality_violation_witness(G12)
    assert w.h == elem(G12, 2, 0)
    assert w.verify()
    assert malnormality_violation_witness(G11) is None


def test_parse_element_and_params():
    assert parse_element("(5/3, 1)", G23) == elem(G23, Fraction(5, 3), 1)
    assert parse_element("(-3, -2)", G23) == elem(G23, -3, -2)
    assert str(elem(G23, Fraction(5, 3), 1)) == "(5/3, 1)"
    with pytest.raises(ValueError):
        parse_element("5/3, 1", G23)
    with pytest.raises(ValueError):
        parse_element("(1/0, 1)", G23)
    assert parse_params("G(2,3)") == G23
    with pytest.raises(ValueError):
        parse_params("G(2;3)")
    with pytest.raises(DomainError):
        parse_params("G(6,2)")
