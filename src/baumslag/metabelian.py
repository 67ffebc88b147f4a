"""Exact element arithmetic and structural procedures in the metabelian
groups Z[1/mn] semidirect Z, written G(m, n).

Elements are pairs (x, p) with x in Z[1/mn] and p an integer t-exponent.
The group law is fixed once and for all as

    (x, p) * (y, q) = (x + phi^p(y), p + q),    phi(y) = (m/n) * y,

so the generator t = (0, 1) acts on the abelian kernel H = Z[1/mn] x {0}
by multiplication with m/n, the identity is (0, 0), and the inverse of
(x, p) is (-phi^(-p)(x), -p).  With that convention, conjugating by the
*inverse* of t multiplies the H-component by m/n:

    t * (x, 0) * t^-1 = (x * m/n, 0),   t^-1 * (x, 0) * t = (x * n/m, 0).

Parameters are coprime integers m, n >= 1.  G(1, k) is isomorphic to the
Baumslag-Solitar group BS(1, k) (see the britton module for the word
side), and G(1, 1) is the free abelian group of rank 2.  Negative
parameters are deliberately not modelled here; words over BS(m, n) with
negative m or n are handled symbolically by the britton module.

Z[1/mn] membership is checked only where a value enters: the public
constructor ``MetabelianElement(params, x, p)`` (and so ``parse_element``)
and ``subgroup_params``.  Every result the package computes itself is a
member by construction, so it is built unchecked by ``_element``: its
integer numerator and denominator are computed first, and one Fraction
is made per returned element.  Either the denominator only gains factors
of m and n (products, inverses, the t-action, Word evaluation, and
``element_over_mn``, which builds z / (m^i * n^j) for random samples),
or it comes from an exact integer division (powers and centraliser
samples).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError
from .rationals import mn_member
from .words import MAX_EXPONENT_BITS, Word, parse_pair

INSIDE_H = "inside_h"
COMMENSURABLE_CYCLIC = "commensurable_cyclic"
CONTAINS_METABELIAN = "contains_metabelian"


@dataclass(frozen=True)
class MetabelianParams:
    """Coprime parameters m, n >= 1 selecting the group G(m, n)."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DomainError(f"parameters must be >= 1, got ({self.m}, {self.n})")
        if gcd(self.m, self.n) != 1:
            raise DomainError(f"parameters must be coprime, got ({self.m}, {self.n})")

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.m, self.n)

    @property
    def is_abelian(self) -> bool:
        """True only for G(1, 1), the rank-2 free abelian group."""
        return self.m == 1 and self.n == 1

    def __str__(self) -> str:
        return f"G({self.m},{self.n})"


def _t_power(params: MetabelianParams, k: int) -> tuple[int, int]:
    """(up, down) with (m/n)^k = up/down: the t-action written once.

    Both are powers of m or n, so applying it to a member of Z[1/mn]
    keeps the denominator a product of powers of m and n.  No t-action
    power of more than MAX_EXPONENT_BITS bits is kept: DomainError is
    raised exactly when max(m, n)^|k| has more bits than that.  With w
    the bit length of max(m, n) (which is that of m | n), the power has
    between |k|(w - 1) + 1 and |k|w bits, so it is taken at once when
    |k|w is within the budget, refused before it is built when
    |k|(w - 1) + 1 is over it, and otherwise measured exactly.
    """
    m, n = params.m, params.n
    size = abs(k)
    w = (m | n).bit_length()
    if size * w > MAX_EXPONENT_BITS:
        bits = size * (w - 1) + 1
        if bits <= MAX_EXPONENT_BITS:
            bits = (max(m, n) ** size).bit_length()
        if bits > MAX_EXPONENT_BITS:
            raise DomainError(
                f"t-exponent {k} needs a power of at least {bits} bits, above "
                f"the limit of {MAX_EXPONENT_BITS}"
            )
    if k >= 0:
        return m ** k, n ** k
    return n ** -k, m ** -k


def _element(params: MetabelianParams, num: int, den: int, p: int) -> "MetabelianElement":
    """The element (num/den, p), built without the membership check.

    Only for results whose denominator divides a power of m * n by
    construction.  The Fraction made here is the only one per result.
    """
    element = object.__new__(MetabelianElement)
    fields = element.__dict__
    fields["params"] = params
    fields["x"] = Fraction(num, den)
    fields["p"] = p
    return element


def element_over_mn(
    params: MetabelianParams, z: int, i: int, j: int, p: int
) -> "MetabelianElement":
    """The element (z / (m^i * n^j), p) for integers z, i, j >= 0 and p.

    Its denominator is a product of powers of m and n, so it is a member
    of Z[1/mn] by construction and is built without the membership check.
    """
    return _element(params, z, params.m ** i * params.n ** j, p)


@dataclass(frozen=True)
class MetabelianElement:
    """A group element (x, p) of G(m, n); immutable and exact.

    The public constructor is where elements enter, so it checks them:
    x must be an int or a Fraction in Z[1/mn] (anything else, floats and
    strings included, raises TypeError) and p an int.  Group operations
    build their results through ``_element`` without that check, because
    Z[1/mn] is closed under them.
    """

    params: MetabelianParams
    x: Fraction
    p: int

    def __post_init__(self):
        if isinstance(self.p, bool) or not isinstance(self.p, int):
            raise TypeError(f"t-exponent must be an int, got {self.p!r}")
        if not isinstance(self.x, Fraction):
            if isinstance(self.x, bool) or not isinstance(self.x, int):
                raise TypeError(
                    f"kernel component must be an int or a Fraction, got {self.x!r}"
                )
            object.__setattr__(self, "x", Fraction(self.x))
        if not mn_member(self.x, self.params.m, self.params.n):
            raise DomainError(
                f"{self.x} is not in Z[1/{self.params.m * self.params.n}]"
            )

    @classmethod
    def identity(cls, params: MetabelianParams) -> "MetabelianElement":
        return _element(params, 0, 1, 0)

    @property
    def is_identity(self) -> bool:
        return self.p == 0 and self.x == 0

    @property
    def in_kernel(self) -> bool:
        """True iff the element lies in H = Z[1/mn] x {0}."""
        return self.p == 0

    def _check(self, other: "MetabelianElement") -> None:
        if self.params != other.params:
            raise DomainError(
                f"parameter mismatch: {self.params} vs {other.params}"
            )

    def __mul__(self, other: "MetabelianElement") -> "MetabelianElement":
        self._check(other)
        up, down = _t_power(self.params, self.p)
        a, b = self.x.numerator, self.x.denominator
        c, d = other.x.numerator, other.x.denominator
        # a/b + (c * up) / (d * down) over the common denominator.
        num = a * d * down + c * up * b
        return _element(self.params, num, b * d * down, self.p + other.p)

    def inverse(self) -> "MetabelianElement":
        up, down = _t_power(self.params, -self.p)
        return _element(
            self.params, -self.x.numerator * up, self.x.denominator * down, -self.p
        )

    def __pow__(self, k: int) -> "MetabelianElement":
        # Closed form of the telescoping product: with r^p = up/down,
        # (x, p)^k = (x * (1 - r^(kp)) / (1 - r^p), kp).  For k >= 0 this
        # is x * Q * down / down^k, for k < 0 it is -x * Q * down / up^|k|,
        # where Q = (down^|k| - up^|k|) / (down - up) is an exact integer
        # quotient (and Q = |k| when up = down, i.e. r^p = 1).  up^|k| and
        # down^|k| are the t-action of t^(p|k|).
        up, down = _t_power(self.params, self.p)
        size = abs(k)
        up_k, down_k = _t_power(self.params, self.p * size)
        q = size if up == down else (down_k - up_k) // (down - up)
        num = self.x.numerator * q * down
        if k >= 0:
            den = self.x.denominator * down_k
        else:
            num, den = -num, self.x.denominator * up_k
        return _element(self.params, num, den, self.p * k)

    def conjugate(self, by: "MetabelianElement") -> "MetabelianElement":
        """Return by^-1 * self * by."""
        self._check(by)
        return by.inverse() * self * by

    def commutator(self, other: "MetabelianElement") -> "MetabelianElement":
        """Return self^-1 * other^-1 * self * other."""
        self._check(other)
        return self.inverse() * other.inverse() * self * other

    def commutes(self, other: "MetabelianElement") -> bool:
        # (x, p)(y, q) = (y, q)(x, p) iff x * (1 - r^q) = y * (1 - r^p);
        # with r^k = up_k / down_k, cross-multiplied over positive
        # denominators.
        self._check(other)
        up_p, down_p = _t_power(self.params, self.p)
        up_q, down_q = _t_power(self.params, other.p)
        a, b = self.x.numerator, self.x.denominator
        c, d = other.x.numerator, other.x.denominator
        return a * (down_q - up_q) * d * down_p == c * (down_p - up_p) * b * down_q

    def __str__(self) -> str:
        return f"({self.x}, {self.p})"


_ELEMENT_RE = re.compile(
    r"\(\s*(-?\d+(?:\s*/\s*\d+)?)\s*,\s*(-?\d+)\s*\)\Z"
)


def parse_element(text: str, params: MetabelianParams) -> MetabelianElement:
    """Parse the textual form ``(num/den, p)`` (denominator optional)."""
    m = _ELEMENT_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed element {text!r}, expected '(num/den, p)'")
    try:
        x = Fraction(m.group(1).replace(" ", ""))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in element {text!r}") from None
    return MetabelianElement(params, x, int(m.group(2)))


def parse_params(text: str) -> MetabelianParams:
    """Parse the textual form ``G(m,n)``."""
    return MetabelianParams(*parse_pair(text, "G"))


def _refuse(what: str, bits: int) -> None:
    """DomainError when a word value needs a numerator or denominator of
    at least ``bits`` bits, and that is past MAX_EXPONENT_BITS."""
    if bits > MAX_EXPONENT_BITS:
        raise DomainError(
            f"word value needs a {what} of at least {bits} bits, above the "
            f"limit of {MAX_EXPONENT_BITS}"
        )


def _refuse_step(a: int, b: int, at: int, g: int, up: int, dn: int, rest: int) -> None:
    """DomainError when a step of the walk in eval_word proves the word
    value past the budget, decided before the step builds its powers.

    The sum so far a/b (lowest terms, a != 0) sits at distance ``at``
    from level 0, the step multiplies it by (up/dn)^g, and rest bounds
    the sum of |e| over the terms still to come, level 0 and the other
    side included.  The walk's denominator never shrinks, and the step
    leaves it at least b * dn^g / |a|.  When up > dn, no term weighs
    more than (up/dn)^k at distance k, so once |a/b| >= 2 * rest there
    the value is at least (up/dn)^k * |a/b| / 2 and its numerator at
    least (up/dn)^k * |a| / 2.  That is taken after the step when
    dn = 1, where nothing cancels, and before it otherwise.
    """
    down = (dn - 1).bit_length()  # dn <= 2^down
    _refuse("denominator", b.bit_length() + max(0, g * (dn.bit_length() - 1) - a.bit_length()))
    if up > dn:
        grow = up.bit_length() - 1 - down  # (up/dn)^k >= 2^(k * grow)
        taken = g if dn == 1 else 0
        lo = a.bit_length() - 1 + taken * grow  # |a| after the levels taken >= 2^lo
        if lo > rest.bit_length() + b.bit_length():
            _refuse("numerator", lo + (at - taken) * max(grow, 0))


def eval_word(word: Word, params: MetabelianParams) -> MetabelianElement:
    """Evaluate a word over the alphabet (a, t) under a -> (1, 0),
    t -> (0, 1).

    By the group law, a syllable a^e read at running t-exponent p adds
    e * (m/n)^p to the kernel component, so the value is
    (sum of e * (m/n)^p over the a-syllables, total t-exponent).  For
    G(1, k) this is the isomorphism from BS(1, k), the independent
    word-problem oracle.

    The a-exponents are summed per level p, and each side of level 0 is
    summed by Horner's rule from its outermost level inwards, in exact
    integers: below 0 in steps of n/m, above 0 in steps of m/n.  The sum
    so far a/b is kept in lowest terms; a step over g levels is
    a * up^g / (b * dn^g), with gcd(a, dn^g) cancelled (the pinch of
    Britton's lemma, applied to every level at once).  The two sides'
    denominators are powers of m and of n, so the sum of both and of
    level 0 is again in lowest terms.

    Raises DomainError exactly when that value has a numerator or a
    denominator of more than MAX_EXPONENT_BITS bits.  A step that could
    build a power past the budget first goes through _refuse_step, which
    decides in O(1) however many levels it spans.
    """
    sums: dict[int, int] = {}
    p = 0
    for gen, exp in word.letters:
        if gen == 0:
            sums[p] = sums.get(p, 0) + exp
        elif gen == 1:
            p += exp
        else:
            raise ValueError("word must be over the two-letter alphabet (a, t)")
    m, n = params.m, params.n
    width = max(m, n).bit_length()
    rest = 0  # the sum of every |e|, taken when a step first needs it
    num, den = sums.get(0, 0), 1
    levels = sorted(sums)
    for up, dn, side in (
        (n, m, [(-k, sums[k]) for k in levels if k < 0]),
        (m, n, [(k, sums[k]) for k in reversed(levels) if k > 0]),
    ):
        if not side:
            continue
        side.append((0, 0))
        a, b, at = 0, 1, 0
        for d, e in side:
            g = at - d
            # A zero sum is 0/1 (an integer added to a/b with b > 1 is never
            # 0), and no step moves it.
            if a:
                # A step that builds only powers within the budget is taken.
                if g * width + a.bit_length() + b.bit_length() > MAX_EXPONENT_BITS:
                    rest = rest or sum(map(abs, sums.values()))
                    _refuse_step(a, b, at, g, up, dn, rest)
                a *= up**g
                if dn > 1:
                    power = dn**g
                    c = gcd(a, power)
                    a, b = a // c, b * (power // c)
            a += e * b
            at = d
        num, den = num * b + a * den, den * b
    _refuse("numerator", num.bit_length())
    _refuse("denominator", den.bit_length())
    return _element(params, num, den, p)


def centralizer_sample(g: MetabelianElement, q: int) -> MetabelianElement | None:
    """Return an element with t-exponent q commuting with g, or None when
    no such element exists.

    For g = (x, p) with p != 0 the centraliser meets t-exponent q in at
    most one element, (y, q) with y = x * (1 - r^q) / (1 - r^p) and
    r = m/n; it is returned exactly when y lies in Z[1/mn].  Nonzero
    elements of H commute only with H (unless the group is abelian), so
    for g in H the answer is g itself at q = 0 and None otherwise.

    Membership is decided before anything is built.  Write
    1 - r^k = s_k / d_k with s_k = n^k - m^k, d_k = n^k for k > 0 and
    s_k = m^|k| - n^|k|, d_k = m^|k| for k < 0.  Since gcd(m, n) = 1,
    s_k is coprime to mn, and with x = a/b

        y = (a * s_q / s_p) * d_p / (b * d_q)

    lies in Z[1/mn] exactly when s_p divides a * s_q: a miss costs one
    divmod, and a hit has a denominator b * d_q built from m and n.
    """
    params = g.params
    if g.is_identity:
        raise DomainError(
            "centralizer of the identity is the whole group; pick any element"
        )
    if params.is_abelian:
        return _element(params, 0, 1, q)
    if g.p == 0:
        return g if q == 0 else None
    if q == 0:
        return MetabelianElement.identity(params)
    # 1 - r^k = (down_k - up_k) / down_k with r^k = up_k / down_k.
    up_q, down_q = _t_power(params, q)
    up_p, down_p = _t_power(params, g.p)
    quot, rem = divmod(g.x.numerator * (down_q - up_q), down_p - up_p)
    if rem:
        return None
    return _element(params, quot * down_p, g.x.denominator * down_q, q)


def subgroup_params(x: Fraction, p: int, ambient: MetabelianParams) -> MetabelianParams:
    """Isomorphism type of the subgroup generated by (x, 0) and any element
    with t-exponent p: the pair (m', n') with m'/n' = (m/n)^p in lowest
    terms, m', n' >= 1.
    """
    if x == 0:
        raise DomainError(
            "x = 0 is degenerate: the subgroup is cyclic, not a semidirect product"
        )
    if p == 0:
        raise DomainError(
            "p = 0 is degenerate: both generators lie in H, the subgroup is locally cyclic"
        )
    if not mn_member(x, ambient.m, ambient.n):
        raise DomainError(f"{x} is not in the coefficient ring of {ambient}")
    if p > 0:
        return MetabelianParams(ambient.m ** p, ambient.n ** p)
    return MetabelianParams(ambient.n ** -p, ambient.m ** -p)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_u, u = u, old_u - quot * u
        old_v, v = v, old_v - quot * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


@dataclass(frozen=True)
class BezoutCertificate:
    """A constructive membership certificate for 1/n^k (or 1/m^k) in the
    subgroup generated by a = (1, 0) and t = (0, 1) of G(m, n).

    The integer pair satisfies m^k * q + n^k * q' = 1.  Dividing by n^k
    gives q * (m/n)^k + q' = 1/n^k, so the group word
    (t^k a t^-k)^q a^q' evaluates to (1/n^k, 0); symmetrically on the
    m-side (t^-k a t^k)^q' a^q evaluates to (1/m^k, 0).
    """

    params: MetabelianParams
    k: int
    side: str  # "m" or "n"
    q: int
    q_prime: int
    word: Word
    target: MetabelianElement

    def bezout_identity_holds(self) -> bool:
        m, n, k = self.params.m, self.params.n, self.k
        return m ** k * self.q + n ** k * self.q_prime == 1

    def evaluation_identity_holds(self) -> bool:
        r = self.params.ratio
        if self.side == "n":
            return self.q * r ** self.k + self.q_prime == self.target.x
        return self.q_prime * (1 / r) ** self.k + self.q == self.target.x

    def word_evaluates_to_target(self) -> bool:
        return eval_word(self.word, self.params) == self.target

    def verify(self) -> bool:
        return (
            self.bezout_identity_holds()
            and self.evaluation_identity_holds()
            and self.word_evaluates_to_target()
        )


def bezout_certificate(
    params: MetabelianParams, k: int, side: str
) -> BezoutCertificate:
    """Build the membership certificate for 1/n^k (side 'n') or 1/m^k
    (side 'm') in G(m, n); requires max(m, n) > 1 and k >= 0."""
    if side not in ("m", "n"):
        raise ValueError(f"side must be 'm' or 'n', got {side!r}")
    if params.is_abelian:
        raise DomainError("G(1,1) has trivial denominators; no certificate to build")
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    g, q, q_prime = _egcd(params.m ** k, params.n ** k)
    assert g == 1  # parameters are coprime
    a, t = Word([(0, 1)]), Word([(1, 1)])
    if side == "n":
        conj = t ** k * a * t ** -k
        word = conj ** q * a ** q_prime
        target = MetabelianElement(params, Fraction(1, params.n ** k), 0)
    else:
        conj = t ** -k * a * t ** k
        word = conj ** q_prime * a ** q
        target = MetabelianElement(params, Fraction(1, params.m ** k), 0)
    return BezoutCertificate(params, k, side, q, q_prime, word, target)


@dataclass(frozen=True)
class TwoGenClassification:
    """Outcome of classifying the subgroup generated by two elements.

    kind is one of:

    * ``inside_h`` -- both generators lie in H; the subgroup is abelian
      and locally cyclic.
    * ``commensurable_cyclic`` -- the combination d = g1^q * g2^-p is the
      identity (p, q the t-exponents), so the cyclic groups <g1> and <g2>
      share the nonzero power g1^q = g2^p recorded in ``common_power``.
    * ``contains_metabelian`` -- d is a nonzero element of H; together
      with the generator recorded in ``anchor`` it generates a copy of
      G(m', n') where (m', n') = ``subgroup``.  In particular the pair
      does not generate a Baumslag-Solitar group.
    """

    kind: str
    d: MetabelianElement | None = None
    common_power: tuple[int, int] | None = None
    subgroup: MetabelianParams | None = None
    anchor: MetabelianElement | None = None


def two_gen_classify(
    g1: MetabelianElement, g2: MetabelianElement
) -> TwoGenClassification:
    """Classify the subgroup of G(m, n) generated by g1 = (x1, p) and
    g2 = (x2, q) via the H-element d = g1^q * g2^-p."""
    g1._check(g2)
    p, q = g1.p, g2.p
    if p == 0 and q == 0:
        return TwoGenClassification(kind=INSIDE_H)
    d = g1 ** q * g2 ** -p
    assert d.in_kernel  # t-exponents cancel: qp - pq = 0
    if d.is_identity:
        return TwoGenClassification(
            kind=COMMENSURABLE_CYCLIC, d=d, common_power=(q, p)
        )
    anchor = g1 if p != 0 else g2
    sub = subgroup_params(d.x, anchor.p, g1.params)
    return TwoGenClassification(
        kind=CONTAINS_METABELIAN, d=d, subgroup=sub, anchor=anchor
    )


@dataclass(frozen=True)
class PowerConjugacyWitness:
    """Exact witness that two powers of one element with different
    absolute exponents are conjugate: t * x^e1 * t^-1 = x^e2."""

    x: MetabelianElement
    t: MetabelianElement
    e1: int
    e2: int

    def verify(self) -> bool:
        lhs = (self.x ** self.e1).conjugate(self.t.inverse())
        return lhs == self.x ** self.e2 and abs(self.e1) != abs(self.e2)

    def describe(self) -> str:
        return (
            f"t x^{self.e1} t^-1 = x^{self.e2} with x = {self.x}, "
            f"t = {self.t}, |{self.e1}| != |{self.e2}|"
        )


def power_conjugacy_witness(
    params: MetabelianParams,
) -> PowerConjugacyWitness | None:
    """For m != n, exhibit x, t with t x^n t^-1 = x^m and n != m.

    Returns None for G(1, 1): there the defect is the visible rank-2
    free abelian subgroup (the whole group), not a conjugate-power pair.
    """
    if params.m == params.n:
        return None
    x = MetabelianElement(params, Fraction(1), 0)
    t = MetabelianElement(params, Fraction(0), 1)
    return PowerConjugacyWitness(x=x, t=t, e1=params.n, e2=params.m)


@dataclass(frozen=True)
class MalnormalityViolationWitness:
    """Exact witness that the maximal abelian subgroup H = Z[1/mn] x {0}
    is not malnormal: an h in H \\ {1} and a g outside H with g^-1 h g
    again in H \\ {1}."""

    h: MetabelianElement
    g: MetabelianElement

    def verify(self) -> bool:
        conj = self.h.conjugate(self.g)
        return (
            self.h.in_kernel
            and not self.h.is_identity
            and not self.g.in_kernel
            and conj.in_kernel
            and not conj.is_identity
        )

    def describe(self) -> str:
        conj = self.h.conjugate(self.g)
        return (
            f"g^-1 h g = {conj} lies in H, with h = {self.h} in H and "
            f"g = {self.g} outside H"
        )


def malnormality_violation_witness(
    params: MetabelianParams,
) -> MalnormalityViolationWitness | None:
    """H is normal, so any conjugate of h = (n, 0) by t stays in H; that
    defeats malnormality whenever H is proper.  Returns None for G(1, 1),
    where H is not proper and the group is abelian."""
    if params.is_abelian:
        return None
    h = MetabelianElement(params, Fraction(params.n), 0)
    g = MetabelianElement(params, Fraction(0), 1)
    return MalnormalityViolationWitness(h=h, g=g)
