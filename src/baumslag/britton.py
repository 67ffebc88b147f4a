"""Words over the Baumslag-Solitar group BS(m, n) = < a, t | t^-1 a^m t = a^n >
and their pinch reduction.

A BsWord is a Word over the generators a (index 0) and t (index 1).  It
is freely reduced, so its syllables alternate, and it reads as
a^lead (t^K1 a^e1) (t^K2 a^e2) ... with every K_i nonzero.  A *pinch* is
a subword t^-1 a^s t with m | s, or t a^s t^-1 with n | s; rewriting it
to a^(s*n/m) (resp. a^(s*m/n)) removes two t-letters.  A word with no
pinch is in reduced form, and a reduced word represents the identity
only when it is the empty word: that yields the word-problem procedures
is_trivial and equal.

Reduced forms are not canonical, so equality of u and v always goes
through reducing u * v^-1 rather than comparing reduced words.  Pinches
are searched leftmost-first; any strategy terminates (each rewrite
removes two t-letters) and the triviality answer does not depend on it.

britton_reduce is the stack form of leftmost-first rewriting (Lyndon &
Schupp, Combinatorial Group Theory, IV.2), one pass over the syllables.
The stack holds the pinch-free prefix read so far as t^K a^e syllables.
Read letter by letter, a syllable t^K a^e is |K| t-letters of one sign
with a^0 between them and a^e after the last.  Whether t^s1 a^e1 t^s2
(s_i = +/-1) is a pinch depends on s1, s2 and e1 only; a rewrite adds
the merged exponent to the a-exponent before it, which can only create a
pinch with the next t-letter, never with the one before.  So an incoming
t^k pinches its t-letters one at a time against the last t-letter on the
stack, and the rest of t^k, whose letters share a sign and so never
pinch each other, is pushed as one syllable.  That makes exactly the
rewrites of the leftmost-first rescan of the letters, in the same order,
in time linear in the t-length (plus the integer arithmetic).  An
exponent that a pinch leaves past MAX_EXPONENT_BITS bits (``words``)
raises DomainError: BS(1,2) doubles it per pinch, so t^-k a t^k would
otherwise cost Theta(k^2) bit operations and give an integer too long to
print.

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


class BsWord(Word):
    """A Word over (a, t) in syllable form a^lead t^K1 a^e1 ... t^Kr a^er.

    ``BsWord(lead, tail)`` freely reduces the word with those exponents,
    tail = ((K1, e1), ..., (Kr, er)); *, ~ and ** are those of Word and
    return BsWords.
    """

    __slots__ = ()

    def __init__(self, lead: int = 0, tail: tuple[tuple[int, int], ...] = ()):
        letters = [(0, lead)]
        for t_exp, a_exp in tail:
            letters += ((1, t_exp), (0, a_exp))
        super().__init__(letters)

    @classmethod
    def from_word(cls, w: Word) -> "BsWord":
        """w itself, not copied; raises ValueError for a generator other
        than a and t, and DomainError past MAX_SYLLABLES t-letters."""
        word = cls._make(w.letters)
        if any(gen not in (0, 1) for gen, _ in w.letters):
            raise ValueError("BS words use the two-letter alphabet (a, t)")
        if word.t_length > MAX_SYLLABLES:
            raise DomainError(
                f"word has {word.t_length} t-letters, above the limit of {MAX_SYLLABLES}"
            )
        return word

    @classmethod
    def from_text(cls, text: str) -> "BsWord":
        return cls.from_word(parse_word(text, GENERATORS))

    def format(self) -> str:
        return format_word(self, GENERATORS)

    # Its own entry, so that bench/spans.py can wrap BsWord powers by name.
    __pow__ = Word.__pow__

    @property
    def lead(self) -> int:
        """Exponent of the leading a-syllable, 0 when there is none."""
        s = self.letters
        return s[0][1] if s and s[0][0] == 0 else 0

    @property
    def tail(self) -> tuple[tuple[int, int], ...]:
        """(t-exponent, following a-exponent) per t-syllable."""
        s = self.letters[1:] if self.lead else self.letters
        return tuple((k, e) for (_, k), (_, e) in zip(s[0::2], s[1::2] + ((0, 0),)))

    @property
    def t_length(self) -> int:
        """Number of t-letters."""
        return sum(abs(exp) for gen, exp in self.letters if gen == 1)


def commutator_word(u: BsWord, v: BsWord) -> BsWord:
    return ~u * ~v * u * v


def britton_reduce(w: BsWord, params: BsParams) -> BsWord:
    """Rewrite pinches leftmost-first until none remain, in one pass.

    t^-1 a^s t -> a^(s*n/m) when m | s, and t a^s t^-1 -> a^(s*m/n) when
    n | s.  The stack holds the pinch-free prefix of the rewritten word;
    each incoming t-letter is tested once against its last t-letter.
    Raises DomainError when a pinch leaves an exponent past
    MAX_EXPONENT_BITS bits.
    """
    m, n = params.m, params.n
    lead = w.lead
    s = w.letters[1:] if lead else w.letters
    # The stack's syllables t^K a^e as two lists of letters (1, K) and
    # (0, e); a syllable pushed as read keeps the input's tuples.
    ts: list[tuple[int, int]] = []
    es: list[tuple[int, int]] = []
    for tk, ae in zip(s[0::2], s[1::2] + ((0, 0),)):
        k = tk[1]
        while k and ts and ts[-1][1] * k < 0 and es[-1][1] % (m if k > 0 else n) == 0:
            step = 1 if k > 0 else -1
            merged = es[-1][1] // m * n if k > 0 else es[-1][1] // n * m
            k -= step
            if not k:
                merged += ae[1]
            if ts[-1][1] + step:  # the a^0 before the pinched t-letter takes merged
                ts[-1] = (1, ts[-1][1] + step)
                es[-1] = (0, checked_exponent(merged))
            else:
                ts.pop()
                es.pop()
                if es:
                    es[-1] = (0, checked_exponent(es[-1][1] + merged))
                else:
                    lead = checked_exponent(lead + merged)
        if k and ts and not es[-1][1]:  # t^K a^0 t^k, one sign: one syllable
            ts[-1] = (1, ts[-1][1] + k)
            es[-1] = ae
        elif k:
            ts.append(tk if k == tk[1] else (1, k))
            es.append(ae)
    # Interleaved; only the lead and the last a-exponent can be 0.
    letters = [(0, lead)] * (2 * len(ts) + 1)
    letters[1::2] = ts
    letters[2::2] = es
    if es and not es[-1][1]:
        letters.pop()
    if not lead:
        del letters[0]
    return BsWord._make(tuple(letters))


def is_trivial(w: BsWord, params: BsParams) -> bool:
    """Word problem: True iff w represents the identity of BS(m, n).

    The reduced form of a trivial word cannot contain a t-letter (any
    t-letter in a pinch-free word survives in the group), so triviality
    is just emptiness of the reduced form.
    """
    return not britton_reduce(w, params)


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
    Letter by letter, u^i v^j is u^i with n*j added to its last
    a-exponent.  The stack of britton_reduce never revisits a prefix, and
    an incoming t-letter is tested by its sign and the a-exponent before
    it, not the one after it; so the reduction of u^i v^j makes the same
    rewrites as that of u^i and ends with n*j added to the last exponent.
    Hence u^i v^j is trivial iff britton_reduce(u^i) has no t-letter and
    lead + n*j == 0.
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
        if len(r) <= 1 and r.t_length == 0:  # one a-syllable at most
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
