"""Words over the Baumslag-Solitar group BS(m, n) = < a, t | t^-1 a^m t = a^n >
and their pinch reduction.

A word is stored in syllable form a^lead (t^s1 a^e1) (t^s2 a^e2) ... with
s_i = +/-1.  A *pinch* is a subword t^-1 a^s t with m | s, or t a^s t^-1
with n | s; rewriting it to a^(s*n/m) (resp. a^(s*m/n)) removes two
t-letters.  A word with no pinch is in reduced form, and a reduced word
represents the identity only when it is the empty word: that yields the
word-problem procedures is_trivial and equal.

Reduced forms are not canonical, so equality of u and v always goes
through reducing u * v^-1 rather than comparing reduced words.  Pinches
are searched leftmost-first; any strategy terminates (each rewrite
removes two t-letters) and the triviality answer does not depend on it.

britton_reduce is the stack form of leftmost-first rewriting (Lyndon &
Schupp, Combinatorial Group Theory, IV.2), one pass over the syllables.
The stack holds the pinch-free prefix read so far.  Whether t^s1 a^e1
t^s2 is a pinch depends on s1, s2 and e1 only; a rewrite adds the merged
exponent to the syllable before it, which changes that syllable's e and
so can only create a pinch with the next syllable, never with the one
before.  So testing each incoming syllable once against the top, and
after a pinch testing the next one against the new top, makes exactly
the rewrites of the leftmost-first rescan, in the same order, in time
linear in the t-length (plus the integer arithmetic).  An exponent that
a pinch leaves past MAX_EXPONENT_BITS bits (``words``) raises
DomainError: BS(1,2) doubles it per pinch, so t^-k a t^k would otherwise
cost Theta(k^2) bit operations and give an integer too long to print.

For the soluble case BS(1, k) the assignment a -> (1, 0), t -> (0, 1) is
an isomorphism onto G(1, k), giving an independent word-problem oracle
(metabelian.eval_word) used for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .words import (  # MAX_EXPONENT_BITS: re-exported, the budget of pinches
    MAX_EXPONENT_BITS,
    MAX_SYLLABLES,
    Word,
    checked_exponent,
    format_word,
    parse_pair,
    parse_word,
)

GENERATORS = ("a", "t")


@dataclass(frozen=True)
class BsParams:
    """Exponents of the defining relation t^-1 a^m t = a^n; nonzero,
    possibly negative, no coprimality assumed."""

    m: int
    n: int

    def __post_init__(self):
        if self.m == 0 or self.n == 0:
            raise DomainError(f"parameters must be nonzero, got ({self.m}, {self.n})")

    def __str__(self) -> str:
        return f"BS({self.m},{self.n})"


def parse_bs_params(text: str) -> BsParams:
    """Parse the textual form ``BS(m,n)``."""
    return BsParams(*parse_pair(text, "BS"))


@dataclass(frozen=True)
class BsWord:
    """Syllable form a^lead t^s1 a^e1 ... t^sk a^ek of a word over {a, t}."""

    lead: int = 0
    tail: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_word(cls, w: Word) -> "BsWord":
        """Expand w's t-powers into one syllable per t-letter; raises
        DomainError, before expanding, past MAX_SYLLABLES t-letters."""
        t_letters = sum(abs(exp) for gen, exp in w.letters if gen == 1)
        if t_letters > MAX_SYLLABLES:
            raise DomainError(
                f"word has {t_letters} t-letters, above the limit of {MAX_SYLLABLES}"
            )
        lead = 0
        tail: list[list[int]] = []
        for gen, exp in w.letters:
            if gen == 0:  # a-letter
                if tail:
                    tail[-1][1] += exp
                else:
                    lead += exp
            elif gen == 1:  # t-letter
                sign = 1 if exp > 0 else -1
                for _ in range(abs(exp)):
                    tail.append([sign, 0])
            else:
                raise ValueError("BS words use the two-letter alphabet (a, t)")
        return cls(lead, tuple((s, e) for s, e in tail))

    @classmethod
    def from_text(cls, text: str) -> "BsWord":
        return cls.from_word(parse_word(text, GENERATORS))

    def to_word(self) -> Word:
        letters = [(0, self.lead)]
        for sign, exp in self.tail:
            letters.append((1, sign))
            letters.append((0, exp))
        return Word(letters)

    def format(self) -> str:
        return format_word(self.to_word(), GENERATORS)

    @property
    def t_length(self) -> int:
        return len(self.tail)

    def __mul__(self, other: "BsWord") -> "BsWord":
        if not self.tail:
            return BsWord(self.lead + other.lead, other.tail)
        last_sign, last_exp = self.tail[-1]
        tail = self.tail[:-1] + ((last_sign, last_exp + other.lead),) + other.tail
        return BsWord(self.lead, tail)

    def __invert__(self) -> "BsWord":
        exps = (self.lead,) + tuple(e for _, e in self.tail)
        signs = tuple(s for s, _ in self.tail)
        lead = -exps[-1]
        tail = tuple(
            (-signs[k], -exps[k]) for k in range(len(signs) - 1, -1, -1)
        )
        return BsWord(lead, tail)

    def __pow__(self, k: int) -> "BsWord":
        """The k-fold product, syllable for syllable: w = a^L T gives
        w^k = a^L T'^(k-1) T, where T' is T with L added to its last
        exponent."""
        if k < 0:
            return (~self) ** -k
        if k == 0:
            return BsWord()
        if not self.tail:
            return BsWord(self.lead * k)
        sign, exp = self.tail[-1]
        shifted = self.tail[:-1] + ((sign, exp + self.lead),)
        return BsWord(self.lead, shifted * (k - 1) + self.tail)


def commutator_word(u: BsWord, v: BsWord) -> BsWord:
    return ~u * ~v * u * v


def britton_reduce(w: BsWord, params: BsParams) -> BsWord:
    """Rewrite pinches leftmost-first until none remain, in one pass.

    t^-1 a^s t -> a^(s*n/m) when m | s, and t a^s t^-1 -> a^(s*m/n) when
    n | s.  The stack holds the pinch-free prefix of the rewritten word;
    each incoming syllable is tested once against its top.  Raises
    DomainError when a pinch leaves an exponent past MAX_EXPONENT_BITS
    bits.
    """
    m, n = params.m, params.n
    lead = w.lead
    signs: list[int] = []
    exps: list[int] = []
    for sign, exp in w.tail:
        if signs and signs[-1] == -sign and exps[-1] % (m if sign == 1 else n) == 0:
            signs.pop()
            top = exps.pop()
            merged = (top // m * n if sign == 1 else top // n * m) + exp
            if exps:
                exps[-1] = checked_exponent(exps[-1] + merged)
            else:
                lead = checked_exponent(lead + merged)
        else:
            signs.append(sign)
            exps.append(exp)
    return BsWord(lead, tuple(zip(signs, exps)))


def is_trivial(w: BsWord, params: BsParams) -> bool:
    """Word problem: True iff w represents the identity of BS(m, n).

    The reduced form of a trivial word cannot contain a t-letter (any
    t-letter in a pinch-free word survives in the group), so triviality
    is just emptiness of the reduced form.
    """
    r = britton_reduce(w, params)
    return not r.tail and r.lead == 0


def equal(u: BsWord, v: BsWord, params: BsParams) -> bool:
    """True iff u and v represent the same element of BS(m, n)."""
    return is_trivial(u * ~v, params)


@dataclass(frozen=True)
class Z2WitnessReport:
    """Verification data for the rank-2 free abelian subgroup
    < t^-1 a t a, a^n > of BS(m, n), |m|, |n| > 1.

    The commutator check is exact.  Faithfulness is checked for all
    mixed powers u^i v^j with |i|, |j| <= bound, which is evidence for
    rank 2 at the tested scale, not a proof of the unbounded statement.
    """

    params: BsParams
    bound: int
    u: BsWord
    v: BsWord
    commutator_is_trivial: bool
    pairs_checked: int
    collapsed_pairs: tuple[tuple[int, int], ...]

    @property
    def verified(self) -> bool:
        return self.commutator_is_trivial and not self.collapsed_pairs


def z2_witness(params: BsParams, bound: int) -> Z2WitnessReport:
    """Check that u = t^-1 a t a and v = a^n commute and that no small
    nonzero power u^i v^j collapses.  Requires |m|, |n| > 1.

    Each u^i is reduced once and every pair is then decided in O(1).
    u^i v^j is u^i with n*j added to its last exponent.  The stack of
    britton_reduce never revisits a prefix, and an incoming syllable is
    tested by its sign and the top's exponent, not by its own exponent;
    so the reduction of u^i v^j makes the same rewrites as that of u^i
    and ends with n*j added to the last exponent.  Hence u^i v^j is
    trivial iff britton_reduce(u^i) has an empty tail and lead + n*j == 0.
    """
    if abs(params.m) <= 1 or abs(params.n) <= 1:
        raise DomainError(
            f"witness needs |m|, |n| > 1, got ({params.m}, {params.n})"
        )
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    u = BsWord(0, ((-1, 1), (1, 1)))  # t^-1 a t a
    v = BsWord(params.n)
    comm_trivial = is_trivial(commutator_word(u, v), params)
    collapsed = []
    for i in range(-bound, bound + 1):
        r = britton_reduce(u ** i, params)
        if not r.tail:
            collapsed.extend(
                (i, j)
                for j in range(-bound, bound + 1)
                if (i or j) and r.lead + params.n * j == 0
            )
    return Z2WitnessReport(
        params=params,
        bound=bound,
        u=u,
        v=v,
        commutator_is_trivial=comm_trivial,
        pairs_checked=(2 * bound + 1) ** 2 - 1,
        collapsed_pairs=tuple(collapsed),
    )
