import random
import re
import sys

import pytest

from baumslag.errors import DomainError
from baumslag.words import (
    MAX_EXPONENT_BITS,
    MAX_SYLLABLES,
    MalformedExponentError,
    Presentation,
    UnbalancedParenthesisError,
    UnknownGeneratorError,
    Word,
    WordParseError,
    exponent_sums,
    format_word,
    parse_word,
    substitute,
)

AB = ("a", "b")
AT = ("a", "t")


def test_free_reduce_examples():
    assert Word([(0, 1), (0, -1)]) == Word()
    assert Word([(0, 2), (0, 3), (1, 1)]).letters == ((0, 5), (1, 1))
    # Two merge passes: a b b^-1 a^-1.
    assert Word([(0, 1), (1, 1), (1, -1), (0, -1)]) == Word()


def test_exponent_budget():
    half = 2 ** (MAX_EXPONENT_BITS - 1)  # 2 * half is one bit over
    assert Word([(0, half), (0, half - 1)]).letters == ((0, 2 * half - 1),)
    assert (Word([(0, half // 2)]) ** 2).letters == ((0, half),)
    # z = a^h t a^(h-1): z^2 merges the two a-syllables at the seam.
    assert (Word([(0, half), (1, 1), (0, half - 1)]) ** 2).letters[2] == (0, 2 * half - 1)
    too_many = f"above the limit of {MAX_EXPONENT_BITS}"
    with pytest.raises(DomainError, match=too_many):
        Word([(0, half), (0, half)])
    with pytest.raises(DomainError, match=too_many):
        Word([(0, half)]) ** -2
    with pytest.raises(DomainError, match=too_many):
        Word([(0, half), (1, 1), (0, half)]) ** 2
    # A single syllable is not merged, so it may be longer.
    assert Word([(0, 4 * half)]).letters == ((0, 4 * half),)


def test_free_reduce_idempotent_random():
    rng = random.Random(3571)
    for _ in range(500):
        letters = [(rng.randrange(3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 12))]
        once = Word(letters)
        assert Word(once.letters) == once


def test_word_normalises_on_construction():
    w = Word([(0, 1), (0, 1), (1, 0), (0, -2)])
    assert w == Word()


def test_mul_matches_free_reduction_of_the_concatenation():
    # * reduces only at the seam; Word() runs the whole stack reduction.
    rng = random.Random(4099)
    for _ in range(2000):
        u = Word((rng.randrange(3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 8)))
        v = Word((rng.randrange(3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 8)))
        # Often start v with the inverse of a suffix of u, or a near one.
        cut = rng.randint(0, len(u))
        v = ~Word(u.letters[cut:]) * Word([(rng.randrange(3), rng.randint(-1, 1))]) * v
        assert (u * v).letters == Word(u.letters + v.letters).letters, (u, v)
    with pytest.raises(DomainError, match=f"above the limit of {MAX_EXPONENT_BITS}"):
        Word([(1, 1), (0, 2**MAX_EXPONENT_BITS - 1)]) * Word([(0, 1)])


def test_parse_examples():
    w = parse_word("t^-1 a^2 t", AT)
    assert w.letters == ((1, -1), (0, 2), (1, 1))
    assert parse_word("(a b)^2", AB).letters == ((0, 1), (1, 1), (0, 1), (1, 1))
    assert parse_word("a^0", AB) == Word()
    assert parse_word("", AB) == Word()


def test_parse_juxtaposition_single_letters():
    assert parse_word("tat", AT).letters == ((1, 1), (0, 1), (1, 1))
    assert parse_word("t^-1a^2t", AT).letters == ((1, -1), (0, 2), (1, 1))


def test_parse_longest_generator_match():
    alphabet = ("e", "e_bar")
    assert parse_word("e_bar e", alphabet).letters == ((1, 1), (0, 1))
    assert parse_word("e_bar^-1", alphabet).letters == ((1, -1),)


def test_parse_negative_and_multidigit_exponents():
    assert parse_word("a^-12 b^10", AB).letters == ((0, -12), (1, 10))


def test_parse_single_syllable_power_is_one_syllable():
    # The exponent is scaled, never expanded, so its size costs nothing.
    huge = parse_word("a^" + "9" * 19, AT)
    assert huge.letters == ((0, 10**19 - 1),)
    assert parse_word("(a^2)^-3", AT) == parse_word("a^-6", AT)
    assert parse_word("(a^2)^-3", AT).letters == ((0, -6),)
    assert parse_word("()^" + "9" * 30, AT) == Word()
    # Agrees with repeated multiplication where that is affordable.
    rng = random.Random(8)
    for _ in range(200):
        inner, outer = rng.randint(-9, 9), rng.randint(-9, 9)
        expected = Word([(1, inner)]) ** outer
        assert parse_word(f"(t^{inner})^{outer}", AT) == expected


def test_parse_multi_syllable_power_is_closed_form():
    # (t a t^-1)^N = t a^N t^-1: three syllables whatever the size of N.
    w = parse_word("(t a t^-1)^" + "1" + "0" * 19, AT)
    assert w.letters == ((1, 1), (0, 10**19), (1, -1))
    assert parse_word("(t a t^-1)^-4", AT).letters == ((1, 1), (0, -4), (1, -1))
    assert parse_word("((a t)^3)^-2", AT) == ~parse_word("a t a t a t a t a t a t", AT)


def power_by_products(w, k):
    """Reference power: |k| multiplications, as in the definition."""
    base = w if k >= 0 else ~w
    out = Word()
    for _ in range(abs(k)):
        out = out * base
    return out


def test_word_power_matches_repeated_multiplication():
    rng = random.Random(20260)

    def syllables(count):
        return [(rng.randrange(3), rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(count)]

    shapes = []
    for _ in range(150):
        core = Word(syllables(rng.randint(0, 6)))
        c = Word(syllables(rng.randint(1, 4)))
        g, e, f = rng.randrange(3), rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3])
        shapes += [
            core,  # arbitrary reduced word
            c * core * ~c,  # a conjugate: inverse syllables at both ends
            Word([(g, e)]) * core * Word([(g, e + f)]),  # same generator, not inverse
            Word(syllables(1)),  # one syllable
        ]
    for w in shapes:
        for k in range(-7, 8):
            got = w ** k
            assert got == power_by_products(w, k), (w, k)
            assert Word(got.letters).letters == got.letters  # already reduced


def test_word_power_size_limit():
    ab = Word([(0, 1), (1, 1)])
    assert len(ab ** (MAX_SYLLABLES // 2)) == MAX_SYLLABLES
    with pytest.raises(DomainError):
        ab ** (MAX_SYLLABLES // 2 + 1)
    with pytest.raises(DomainError):
        ab ** -(10**19)
    # c z c^-1 with z = b a: the conjugator counts twice, once per end.
    conj = Word([(2, 1)]) * ab * Word([(2, -1)])
    assert len(conj ** (MAX_SYLLABLES // 2 - 1)) == MAX_SYLLABLES
    with pytest.raises(DomainError):
        conj ** (MAX_SYLLABLES // 2)
    # A one-syllable core only scales an exponent and is never limited.
    assert (Word([(0, 1)]) ** 10**19).letters == ((0, 10**19),)
    conj_a = Word([(2, 1), (0, 1), (2, -1)])
    assert (conj_a ** -(10**19)).letters == ((2, 1), (0, -(10**19)), (2, -1))


def test_parse_nested_groups():
    w = parse_word("(a (b a)^2)^-1", AB)
    assert w == ~parse_word("a b a b a", AB)


def test_parse_unknown_generator():
    with pytest.raises(UnknownGeneratorError) as info:
        parse_word("a c^2", AB)
    assert info.value.position == 2
    with pytest.raises(UnknownGeneratorError) as info:
        parse_word("a zq", AB)  # greedy ident 'zq' is not declared
    assert info.value.position == 2
    # Juxtaposed known letters are tokenised individually, not as one ident.
    assert parse_word("abba", AB).letters == ((0, 1), (1, 2), (0, 1))


def test_parse_malformed_exponent():
    with pytest.raises(MalformedExponentError) as info:
        parse_word("a^x", AB)
    assert info.value.position == 2
    with pytest.raises(MalformedExponentError):
        parse_word("a^", AB)
    with pytest.raises(MalformedExponentError):
        parse_word("a^-", AB)


def test_parse_unbalanced_parentheses():
    with pytest.raises(UnbalancedParenthesisError) as info:
        parse_word("(a b", AB)
    assert info.value.position == 0
    with pytest.raises(UnbalancedParenthesisError) as info:
        parse_word("a) b", AB)
    assert info.value.position == 1


def test_format_examples():
    assert format_word(parse_word("t^-1 a^2 t", AT), AT) == "t^-1 a^2 t"
    assert format_word(Word(), AT) == ""


def random_word(rng, ngens=3, syllables=8):
    letters = []
    for _ in range(rng.randint(0, syllables)):
        letters.append((rng.randrange(ngens), rng.choice([-3, -2, -1, 1, 2, 3])))
    return Word(letters)


def test_parse_format_round_trip_random():
    rng = random.Random(1729)
    alphabet = ("a", "b", "c")
    for _ in range(500):
        w = random_word(rng)
        assert parse_word(format_word(w, alphabet), alphabet) == w


def test_invert_and_concat():
    assert ~parse_word("a b", AB) == parse_word("b^-1 a^-1", AB)
    assert parse_word("a", AB) * parse_word("a^-1", AB) == Word()
    rng = random.Random(65537)
    for _ in range(300):
        u, v, w = (random_word(rng) for _ in range(3))
        assert ~~u == u
        assert (u * v) * w == u * (v * w)
        assert ~(u * v) == ~v * ~u


def test_word_operators_match_functions():
    # Each operator agrees with its definition on syllable lists.
    rng = random.Random(99)
    for _ in range(100):
        u, v = random_word(rng), random_word(rng)
        assert u * v == Word(u.letters + v.letters)
        assert ~u == Word((g, -e) for g, e in reversed(u.letters))
        assert u**3 == u * u * u
        assert u**-2 == ~u * ~u


def test_substitute_and_exponent_sums():
    w = parse_word("a b^2 a^-1", AB)
    images = [parse_word("b", AB), parse_word("a b", AB)]
    assert substitute(w, images) == parse_word("b (a b)^2 b^-1", AB)
    assert exponent_sums(w, 2) == [0, 2]


def test_presentation_validation():
    w = parse_word("a^2", ("a",))
    pres = Presentation(("a",), (w,))
    assert pres.format() == "< a | a^2 >"
    with pytest.raises(ValueError):
        Presentation(("a", "a"), ())
    with pytest.raises(ValueError):
        Presentation(("1bad",), ())
    with pytest.raises(ValueError):
        Presentation(("a",), (Word([(1, 1)]),))


def test_presentation_with_no_generators():
    pres = Presentation((), ())
    assert pres.format() == "<  |  >"


def test_parse_exponent_digits_are_decimal():
    # str.isdigit accepts "²", which int() rejects; only decimals count.
    with pytest.raises(MalformedExponentError) as info:
        parse_word("a^²", AT)
    assert info.value.position == 2
    assert parse_word("a^\u0663", AT) == Word([(0, 3)])  # Arabic-Indic three


def test_parse_exponent_digit_limit():
    # One budget for parsed and computed exponents: MAX_EXPONENT_BITS bits.
    largest = 2**MAX_EXPONENT_BITS - 1
    assert parse_word(f"t a^-{largest}", AT).letters[1] == (0, -largest)
    with pytest.raises(DomainError, match=f"{MAX_EXPONENT_BITS + 1} bits, above the limit"):
        parse_word(f"t a^-{largest + 1}", AT)
    limit = sys.get_int_max_str_digits()
    with pytest.raises(DomainError, match=f"{limit + 1} digits, above the limit of {limit}"):
        parse_word(f"t a^-{'7' * (limit + 1)}", AT)


def test_parse_unicode_whitespace():
    assert parse_word("a\xa0t\u2003^\u3000-2\n", AT) == Word([(0, 1), (1, -2)])


IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def reference_parse(text, alphabet):
    """The recursive-descent parser that parse_word replaced, kept as its
    differential oracle: at every position, the first of the names sorted
    longest first that the text starts with."""
    atoms = {name: Word(((i, 1),)) for i, name in enumerate(alphabet)}
    names = sorted(atoms, key=lambda s: (-len(s), s))

    def skip_ws(i):
        while i < len(text) and text[i].isspace():
            i += 1
        return i

    def parse_int(i):
        start = i
        if i < len(text) and text[i] == "-":
            i += 1
        digits = i
        while i < len(text) and text[i].isdigit():
            i += 1
        if i == digits:
            raise MalformedExponentError("malformed exponent", start)
        return int(text[start:i]), i

    def parse_sequence(i, open_at):
        letters = []
        while True:
            i = skip_ws(i)
            if i >= len(text):
                if open_at is not None:
                    raise UnbalancedParenthesisError("unclosed parenthesis", open_at)
                return letters, i
            c = text[i]
            if c == ")":
                if open_at is None:
                    raise UnbalancedParenthesisError("unmatched closing parenthesis", i)
                return letters, i
            if c == "(":
                inner, j = parse_sequence(i + 1, i)
                atom = Word(inner)
                i = j + 1
            else:
                hit = next((n for n in names if text.startswith(n, i)), None)
                if hit is None:
                    m = IDENT.match(text, i)
                    if m:
                        raise UnknownGeneratorError(f"unknown generator {m.group()!r}", i)
                    raise WordParseError(f"unexpected character {c!r}", i)
                atom = atoms[hit]
                i += len(hit)
            i = skip_ws(i)
            if i < len(text) and text[i] == "^":
                exp, i = parse_int(skip_ws(i + 1))
            else:
                exp = 1
            letters.extend((atom**exp).letters)

    letters, _ = parse_sequence(0, None)
    return Word(letters)


def parse_outcome(parse, text, alphabet):
    try:
        return parse(text, alphabet)
    except WordParseError as err:
        return type(err), err.position, str(err)


FUZZ_PIECES = {
    ("a", "t"): ["a", "t", "tat", "at", "ta", "a1", "t_", "b", "zq", "A"],
    ("e", "e_bar", "x1"): ["e", "e_bar", "x1", "e_ba", "ee_bar", "x", "x12", "e_barx1", "y"],
}
COMMON_PIECES = [
    " ", "  ", "\t", "\n", "\xa0", "(", "(", ")", ")", "^", "^2", "^-3", " ^ 4",
    "^ -1", "^-", "^ x", "-", "7", "_", "+", "^^2", "()",
]


@pytest.mark.parametrize("alphabet", list(FUZZ_PIECES), ids=["a_t", "e_ebar_x1"])
def test_parse_matches_reference(alphabet):
    rng = random.Random(f"parse:{','.join(alphabet)}")
    pieces = FUZZ_PIECES[alphabet] + COMMON_PIECES
    failures = 0
    for _ in range(4000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 14)))
        expected = parse_outcome(reference_parse, text, alphabet)
        assert parse_outcome(parse_word, text, alphabet) == expected, text
        failures += not isinstance(expected, Word)
    # The fuzz reaches both valid and malformed texts.
    assert 400 < failures < 3600


@pytest.mark.parametrize("alphabet", list(FUZZ_PIECES), ids=["a_t", "e_ebar_x1"])
def test_parse_matches_reference_on_valid_nested_texts(alphabet):
    rng = random.Random(f"nested:{','.join(alphabet)}")

    def term(depth):
        if depth and rng.random() < 0.3:
            body = " ".join(term(depth - 1) for _ in range(rng.randint(0, 3)))
            atom = f"({body})"
        else:
            atom = rng.choice(alphabet)
        if rng.random() < 0.5:
            atom += f"{rng.choice(['', ' '])}^{rng.choice(['', ' '])}{rng.randint(-4, 4)}"
        return atom

    for _ in range(800):
        text = rng.choice(["", " "]).join(term(3) for _ in range(rng.randint(0, 6)))
        assert parse_word(text, alphabet) == reference_parse(text, alphabet), text
