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
one generator: parse_word splits the text into terms with one findall of
a compiled pattern, looks each ident up in the alphabet, and splits an
ident that is not declared at the longest declared name at each offset.
Digits are ``\d``, exactly the decimal digits int() accepts ("a^²" is a
malformed exponent, not a crash).

Each syllable is merged onto the reduced syllables of its group as it is
read, so the parsed word needs no second reduction pass.  A merge past
the exponent budget is raised when its group closes, or at the end of
the text, so a syntax error before that point is reported instead, as
by a parser that reduces each group only once it has read it.

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
from itertools import islice
from typing import Iterable, Sequence

from .errors import DomainError

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# One term of the grammar and the whitespace after it, as (name, caret,
# digits, other): an ident or ")" with an optional exponent, or any other
# character ("(" among them) as ``other``.  A "^" without an integer after
# it still matches (digits is ""), so the error can name the position.
TERM_RE = re.compile(rf"(?:({IDENT_RE.pattern}|\))(?:\s*(\^)\s*(-?\d+)?)?|(\S))\s*")

# Largest number of syllables a power may build.
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


def _over_budget(exp: int) -> DomainError:
    return DomainError(
        f"exponent has {exp.bit_length()} bits, above the limit of {MAX_EXPONENT_BITS}"
    )


def checked_exponent(exp: int) -> int:
    """exp, or DomainError when it has more than MAX_EXPONENT_BITS bits."""
    if exp.bit_length() > MAX_EXPONENT_BITS:
        raise _over_budget(exp)
    return exp


def _push(
    stack: list[tuple[int, int]], pairs: Iterable[tuple[int, int]], held: DomainError | None
) -> DomainError | None:
    """Merge the syllables onto the reduced stack; cascaded cancellations
    resolve in one pass.  Returns held, or if it is None the error of the
    first merge past the exponent budget (merging goes on after it)."""
    for gen, exp in pairs:
        if not exp:
            continue
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
            if held is None and exp.bit_length() > MAX_EXPONENT_BITS:
                held = _over_budget(exp)
            if exp:
                stack.append((gen, exp))
        else:
            stack.append((gen, exp))
    return held


class Word:
    """A freely reduced word: a sequence of (generator index, exponent)
    syllables with nonzero exponents and distinct adjacent generators.

    Construction normalises, so every Word in circulation is reduced.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[tuple[int, int]] = ()):
        stack: list[tuple[int, int]] = []
        held = _push(stack, letters, None)
        if held:
            raise held
        object.__setattr__(self, "letters", tuple(stack))

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
        # already reduced and skips the reduction of Word().
        return self._make(c + core + tuple((g, -e) for g, e in reversed(c)))

    def __repr__(self) -> str:
        return f"Word({list(self.letters)!r})"

    @property
    def length(self) -> int:
        """Total letter count, counting |exponent| per syllable."""
        return sum(abs(e) for _, e in self.letters)


def parse_word(text: str, alphabet: Sequence[str]) -> Word:
    """Parse ``text`` over ``alphabet`` into a freely reduced Word.

    Raises UnknownGeneratorError, MalformedExponentError, or
    UnbalancedParenthesisError, each carrying the offending position, and
    DomainError for an exponent past MAX_EXPONENT_BITS bits.
    """
    index = {name: i for i, name in enumerate(alphabet)}
    # Only idents name generators: "" is the name of every term that is
    # not an ident or ")", and ")" closes a group.
    index.pop("", None)
    index.pop(")", None)
    longest = max(map(len, index), default=0)
    # The reduced syllables of the innermost open group, and the first of
    # its merges past the exponent budget, raised when the group closes so
    # that a syntax error later in the group wins.  One (enclosing
    # syllables, enclosing held error, term number of "(") per open group.
    stack: list[tuple[int, int]] = []
    held = None
    frames: list[tuple[list[tuple[int, int]], DomainError | None, int]] = []
    for k, (name, caret, digits, other) in enumerate(TERM_RE.findall(text)):
        gen = index.get(name)
        if gen is None:
            if other == "(":
                frames.append((stack, held, k))
                stack, held = [], None
                continue
            if other:
                raise WordParseError(f"unexpected character {other!r}", _term(text, k).start())
            if name == ")":
                if not frames:
                    raise UnbalancedParenthesisError(
                        "unmatched closing parenthesis", _term(text, k).start()
                    )
                if held:
                    raise held
                group = Word._make(tuple(stack))
                stack, held, _ = frames.pop()
                syllables = (group ** _exponent(text, k, caret, digits)).letters
            else:
                gens = _munch(text, k, name, index, longest)
                syllables = [(g, 1) for g in gens[:-1]]
                syllables.append((gens[-1], _exponent(text, k, caret, digits)))
            held = _push(stack, syllables, held)
            continue
        # A declared generator: _push's step for one syllable, inline.
        exp = _exponent(text, k, caret, digits) if caret else 1
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
            if held is None and exp.bit_length() > MAX_EXPONENT_BITS:
                held = _over_budget(exp)
            if exp:
                stack.append((gen, exp))
        elif exp:
            stack.append((gen, exp))
    if frames:
        raise UnbalancedParenthesisError("unclosed parenthesis", _term(text, frames[-1][2]).start())
    if held:
        raise held
    return Word._make(tuple(stack))


def _term(text: str, k: int) -> re.Match:
    """Term number k of text, found again to name an error position."""
    return next(islice(TERM_RE.finditer(text), k, None))


def _exponent(text: str, k: int, caret: str, digits: str) -> int:
    """The exponent of term number k: 1 without a caret."""
    if not caret:
        return 1
    if not digits:
        raise MalformedExponentError("malformed exponent", _term(text, k).end())
    try:
        exp = int(digits)
    except ValueError:
        raise DomainError(
            f"exponent has {len(digits.lstrip('-'))} digits, above the "
            f"limit of {sys.get_int_max_str_digits()} for integer conversion"
        ) from None
    return checked_exponent(exp)


def _munch(text: str, k: int, name: str, index: dict[str, int], longest: int) -> list[int]:
    """Generators of the ident ``name`` of term number k, split maximal
    munch: the longest declared name at each offset."""
    gens = []
    start = 0
    while start < len(name):
        size = min(longest, len(name) - start)
        while size and name[start : start + size] not in index:
            size -= 1
        if not size:
            rest, at = name[start:], _term(text, k).start() + start
            if IDENT_RE.match(rest):
                raise UnknownGeneratorError(f"unknown generator {rest!r}", at)
            raise WordParseError(f"unexpected character {rest[0]!r}", at)
        gens.append(index[name[start : start + size]])
        start += size
    return gens


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
