"""Reference answers that share no code with the baumslag package.

Words are handled here as lists of syllables ``(gen, exp)`` over the
alphabet a = 0, t = 1.  Everything is exact: integers and
``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

A, T = 0, 1
LETTERS = ("a", "t")


def free_reduce(syllables):
    """Merge equal neighbours and drop zero exponents (one stack pass)."""
    out: list[tuple[int, int]] = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return out


def inverse(syllables):
    return [(g, -e) for g, e in reversed(syllables)]


def format_word(syllables) -> str:
    return " ".join(
        LETTERS[g] if e == 1 else f"{LETTERS[g]}^{e}" for g, e in syllables
    )


def parse_word(text: str):
    """Parse the space-separated ``x`` / ``x^k`` tokens that the package
    prints for words over (a, t)."""
    out = []
    for token in text.split():
        name, _, exp = token.partition("^")
        out.append((LETTERS.index(name), int(exp) if exp else 1))
    return free_reduce(out)


def t_exponent_sum(syllables) -> int:
    return sum(e for g, e in syllables if g == T)


def is_pinch_free(syllables, m: int, n: int) -> bool:
    """No subword t^-1 a^s t with m | s and no t a^s t^-1 with n | s;
    a t^-1 t or t t^-1 with nothing between also counts as a pinch."""
    letters = []
    for g, e in syllables:
        if g == T:
            letters.extend([("t", 1 if e > 0 else -1)] * abs(e))
        else:
            letters.append(("a", e))
    for i, (kind, value) in enumerate(letters):
        if kind != "t":
            continue
        j = i + 1
        exp = 0
        if j < len(letters) and letters[j][0] == "a":
            exp = letters[j][1]
            j += 1
        if j >= len(letters) or letters[j][1] != -value:
            continue
        if value == -1 and exp % m == 0:
            return False
        if value == 1 and exp % n == 0:
            return False
    return True


def eval_in_g(syllables, m: int, n: int) -> tuple[Fraction, int]:
    """Image of a word under a -> (1, 0), t -> (0, 1) in G(m, n), with
    (x, p) * (y, q) = (x + (m/n)^p y, p + q)."""
    x = Fraction(0)
    p = 0
    powers: dict[int, Fraction] = {}
    ratio = Fraction(m, n)
    for g, e in syllables:
        if g == T:
            p += e
            continue
        if p not in powers:
            powers[p] = ratio**p
        x += e * powers[p]
    return x, p


def bezout_holds(m: int, n: int, k: int, q: int, q_prime: int) -> bool:
    return m**k * q + n**k * q_prime == 1


def cert_target(m: int, n: int, k: int, side: str) -> tuple[Fraction, int]:
    return Fraction(1, (n if side == "n" else m) ** k), 0


# Closed forms for abelianizations, as (free rank, invariant factors > 1).


def _cyclic(free: int, d: int) -> tuple[int, tuple[int, ...]]:
    d = abs(d)
    if d == 0:
        return free + 1, ()
    return free, (d,) if d > 1 else ()


def ab_cycle(v: int, p: int, q: int):
    """Cycle of v copies of Z glued by x_i^p = x_{i+1}^q, p and q coprime."""
    return _cyclic(1, q**v - p**v)


def ab_tree():
    """A tree of copies of Z whose maximal minors have gcd 1: a path glued
    by one coprime pair (p, q) on every edge, or a star c^p_i = x_i^q_i
    with the q_i pairwise coprime and gcd(p_i, q_i) = 1."""
    return 1, ()


def ab_amalgam(p: int, q: int):
    """<a, b | a^p = b^q>."""
    return _cyclic(1, gcd(p, q))


def ab_loops(pairs):
    """One Z vertex with a loop a^p = a^q for every (p, q) in ``pairs``."""
    d = 0
    for p, q in pairs:
        d = gcd(d, p - q)
    return _cyclic(len(pairs), d)


def raw_relator_count(vertices: int, edges: int, edge_generators: int) -> int:
    """Raw pi_1 relators of a graph of copies of Z (no vertex relators):
    one e e_bar per edge, one killer per tree edge, one conjugation
    relator per half-edge and edge generator."""
    return edges + (vertices - 1) + 2 * edge_generators
