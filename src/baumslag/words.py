r"""Free words over a generator alphabet, presentations, and the shared
word grammar.

Grammar (used by the CLI, graph-of-groups files, and test fixtures):

    word  := term*
    term  := atom ("^" int)?
    atom  := ident | "(" word ")"
    ident := letter (letter | digit | "_")*
    int   := "-"? digit+

Whitespace (``\s``, which is exactly str.isspace) between terms is
optional.  Generator tokens are matched maximal-munch against the
declared alphabet, so single-letter generators may be juxtaposed ("tat"
over {a, t}) while multi-letter names such as "e_bar" still tokenise as
one generator: parse_word scans each ident with one compiled pattern and
splits it at the longest declared name at each offset.  Digits are
``\d``, exactly the decimal digits int() accepts ("a^²" is a malformed
exponent, not a crash).

Powers are computed in closed form (see Word.__pow__), so ``a^N`` and
``(t a t^-1)^N`` cost O(digits of N).  A power whose cyclically reduced
core has two or more syllables has a result whose length grows with the
exponent; when that length would exceed MAX_SYLLABLES (2^20) syllables,
the power raises DomainError before building anything.  Every exponent,
parsed or computed by free reduction or a power (by merging syllables or
multiplying by k), raises DomainError past MAX_EXPONENT_BITS bits, so
every reduced word prints; one written with more digits than the
interpreter's integer-conversion limit (4 300 by default) is refused
before conversion.  The CLI reports DomainError with exit code 3.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# One term of the grammar after optional whitespace: "(", or an ident or
# ")" with an optional exponent.  A "^" without an integer after it still
# matches (group "exp" is None), so the error can name the position.
TOKEN_RE = re.compile(
    rf"\s*(?:(?P<open>\()|(?:(?P<ident>{IDENT_RE.pattern})|(?P<close>\)))"
    r"(?:\s*(?P<caret>\^)\s*(?P<exp>-?\d+)?)?)"
)
SPACE_RE = re.compile(r"\s*")

# Largest number of syllables a power may build, and of t-letters a BS(m,n)
# word may hold.
MAX_SYLLABLES = 2**20

# Largest bit length a computed integer may reach (an exponent merged by
# free reduction or by a Britton pinch, the denominator of a G(m,n) word
# value): below the ~14 284 bits of CPython's default 4 300-digit limit on
# printing an int.
MAX_EXPONENT_BITS = 14_000


class WordParseError(ValueError):
    """Base for word-syntax errors; carries the 0-based input position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownGeneratorError(WordParseError):
    pass


class MalformedExponentError(WordParseError):
    pass


class UnbalancedParenthesisError(WordParseError):
    pass


def checked_exponent(exp: int) -> int:
    """exp, or DomainError when it has more than MAX_EXPONENT_BITS bits."""
    if exp.bit_length() > MAX_EXPONENT_BITS:
        raise DomainError(
            f"exponent has {exp.bit_length()} bits, above the limit of {MAX_EXPONENT_BITS}"
        )
    return exp


def _reduce(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    # Stack-based merge; cascaded cancellations resolve in one pass.
    stack: list[tuple[int, int]] = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            merged = checked_exponent(stack[-1][1] + exp)
            stack.pop()
            if merged != 0:
                stack.append((gen, merged))
        else:
            stack.append((gen, exp))
    return tuple(stack)


class Word:
    """A freely reduced word: a sequence of (generator index, exponent)
    syllables with nonzero exponents and distinct adjacent generators.

    Construction normalises, so every Word in circulation is reduced.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "letters", _reduce(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __len__(self) -> int:
        """Number of syllables."""
        return len(self.letters)

    @classmethod
    def _make(cls, letters: tuple[tuple[int, int], ...]) -> "Word":
        """A word of this class on letters that are already reduced (the
        operators call it on self, so a subclass keeps its class)."""
        out = object.__new__(cls)
        object.__setattr__(out, "letters", letters)
        return out

    def __mul__(self, other: "Word") -> "Word":
        # Both factors are reduced: only syllables at the seam cancel or merge.
        left, right = self.letters, other.letters
        i, j = len(left), 0
        while i and j < len(right) and left[i - 1][0] == right[j][0]:
            exp = checked_exponent(left[i - 1][1] + right[j][1])
            if exp:
                return self._make(left[: i - 1] + ((right[j][0], exp),) + right[j + 1 :])
            i, j = i - 1, j + 1
        return self._make(left[:i] + right[j:])

    def __invert__(self) -> "Word":
        return self._make(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, k: int) -> "Word":
        """w^k in O(|w| + |w^k|) steps, with no k-fold multiplication.

        Every reduced word is a conjugate w = c z c^-1 of a cyclically
        reduced z (Lyndon & Schupp, Combinatorial Group Theory, I.1), and
        w^k = c z^k c^-1.  A one-syllable z = g^e gives g^(e k).  Raises
        DomainError if a longer z would yield more than MAX_SYLLABLES
        syllables.
        """
        s = self.letters
        if k == 1:
            return self
        if not k or not s:
            return self._make(())
        i = 0
        while 2 * i + 1 < len(s) and s[-1 - i] == (s[i][0], -s[i][1]):
            i += 1
        c, z = s[:i], s[i : len(s) - i]
        if k < 0 and len(z) > 1:
            z, k = tuple((g, -e) for g, e in reversed(z)), -k
        if len(z) == 1:
            core = ((z[0][0], checked_exponent(z[0][1] * k)),)
        else:
            g, e = z[0]
            if g == z[-1][0]:
                # z = g^e y g^f: z^k = g^e (y g^(e+f))^(k-1) y g^f.
                merged = checked_exponent(e + z[-1][1])
                head, period, tail = z[:1], z[1:-1] + ((g, merged),), z[1:]
            else:
                head, period, tail = (), z, z
            size = 2 * len(c) + len(head) + len(period) * (k - 1) + len(tail)
            if size > MAX_SYLLABLES:
                raise DomainError(
                    f"power {k} of a word with a {len(z)}-syllable core has {size} "
                    f"syllables, above the limit of {MAX_SYLLABLES}"
                )
            core = head + period * (k - 1) + tail
        # Adjacent generators differ at every seam, so the result is
        # already reduced and skips _reduce.
        return self._make(c + core + tuple((g, -e) for g, e in reversed(c)))

    def __repr__(self) -> str:
        return f"Word({list(self.letters)!r})"

    @property
    def length(self) -> int:
        """Total letter count, counting |exponent| per syllable."""
        return sum(abs(e) for _, e in self.letters)


def substitute(w: Word, images: Sequence[Word]) -> Word:
    """Replace every generator g by images[g], freely reducing the result."""
    out: list[tuple[int, int]] = []
    for gen, exp in w.letters:
        out.extend((images[gen] ** exp).letters)
    return Word(out)


def exponent_sums(w: Word, ngens: int) -> list[int]:
    sums = [0] * ngens
    for gen, exp in w.letters:
        sums[gen] += exp
    return sums


def parse_word(text: str, alphabet: Sequence[str]) -> Word:
    """Parse ``text`` over ``alphabet`` into a freely reduced Word.

    Raises UnknownGeneratorError, MalformedExponentError, or
    UnbalancedParenthesisError, each carrying the offending position, and
    DomainError for an exponent past MAX_EXPONENT_BITS bits.
    """
    index = {name: i for i, name in enumerate(alphabet)}
    longest = max(map(len, index), default=0)
    letters: list[tuple[int, int]] = []
    # One (enclosing letters, position of "(") entry per open parenthesis.
    stack: list[tuple[list[tuple[int, int]], int]] = []
    i = 0
    while True:
        m = TOKEN_RE.match(text, i)
        if m is None:
            i = SPACE_RE.match(text, i).end()
            if i < len(text):
                raise WordParseError(f"unexpected character {text[i]!r}", i)
            if stack:
                raise UnbalancedParenthesisError("unclosed parenthesis", stack[-1][1])
            return Word(letters)
        i = m.end()
        opened, ident, _, caret, digits = m.groups()
        if opened:
            stack.append((letters, m.start("open")))
            letters = []
            continue
        if ident is None:
            if not stack:
                raise UnbalancedParenthesisError(
                    "unmatched closing parenthesis", m.start("close")
                )
            group = Word(letters)
            letters = stack.pop()[0]
        else:
            gen = index.get(ident)
            if gen is None:
                # Maximal munch: the longest declared name at each offset.
                start, stop = m.start("ident"), m.end("ident")
                while True:
                    size = min(longest, stop - start)
                    while size and text[start : start + size] not in index:
                        size -= 1
                    if not size:
                        name = IDENT_RE.match(text, start)
                        if name:
                            raise UnknownGeneratorError(
                                f"unknown generator {name.group()!r}", start
                            )
                        raise WordParseError(f"unexpected character {text[start]!r}", start)
                    gen = index[text[start : start + size]]
                    start += size
                    if start == stop:
                        break
                    letters.append((gen, 1))
        if caret is None:
            exp = 1
        elif digits is None:
            raise MalformedExponentError("malformed exponent", i)
        else:
            try:
                exp = int(digits)
            except ValueError:
                raise DomainError(
                    f"exponent has {len(digits.lstrip('-'))} digits, above the "
                    f"limit of {sys.get_int_max_str_digits()} for integer conversion"
                ) from None
            checked_exponent(exp)
        if ident is None:
            letters.extend((group ** exp).letters)
        elif exp:
            letters.append((gen, exp))


def parse_pair(text: str, family: str) -> tuple[int, int]:
    """Parse the parameter text ``family(m,n)``, e.g. ``BS(2,-3)``, into
    the integer pair (m, n)."""
    match = re.match(rf"{family}\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\Z", text.strip())
    if not match:
        raise ValueError(f"malformed parameters {text!r}, expected '{family}(m,n)'")
    return int(match.group(1)), int(match.group(2))


def format_word(w: Word, alphabet: Sequence[str]) -> str:
    """Inverse of parse_word on normalised words; empty word renders as ''."""
    parts = []
    for gen, exp in w.letters:
        name = alphabet[gen]
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: ordered generator names plus relator words
    (each relator over the generator indices of this presentation)."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        seen = set()
        for name in self.generators:
            if not IDENT_RE.fullmatch(name):
                raise ValueError(f"generator name {name!r} is not an identifier")
            if name in seen:
                raise ValueError(f"duplicate generator {name!r}")
            seen.add(name)
        n = len(self.generators)
        for rel in self.relators:
            for gen, _ in rel.letters:
                if not 0 <= gen < n:
                    raise ValueError(f"relator uses undeclared generator index {gen}")

    def format(self) -> str:
        gens = ", ".join(self.generators)
        rels = ", ".join(format_word(r, self.generators) for r in self.relators)
        return f"< {gens} | {rels} >"
