import itertools
import json
import random
from math import gcd

from baumslag.abelianization import Abelianization, abelianization, smith_normal_form
from baumslag.graph_of_groups import fundamental_presentation, loads
from baumslag.words import Presentation, Word, parse_word


def minor_gcd_oracle(matrix):
    """Invariant factors via determinantal divisors: d_k is the gcd of all
    k x k minors, and the k-th factor is d_k / d_(k-1).  Independent of
    the elimination-based implementation; only usable for small sizes."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0

    def det(rows, cols):
        if not rows:
            return 1
        total = 0
        r = rows[0]
        for idx, c in enumerate(cols):
            sub = det(rows[1:], cols[:idx] + cols[idx + 1 :])
            term = matrix[r][c] * sub
            total += term if idx % 2 == 0 else -term
        return total

    factors = []
    previous = 1
    for k in range(1, min(nrows, ncols) + 1):
        dk = 0
        for rows in itertools.combinations(range(nrows), k):
            for cols in itertools.combinations(range(ncols), k):
                dk = gcd(dk, det(list(rows), list(cols)))
        if dk == 0:
            break
        factors.append(dk // previous)
        previous = dk
    return factors


def test_snf_fixed_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[2, -3]]) == [1]
    assert smith_normal_form([[2, 4], [4, 8]]) == [2]
    assert smith_normal_form([[6]]) == [6]
    assert smith_normal_form([]) == []


def test_snf_divisibility_chain():
    rng = random.Random(7919)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        matrix = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        factors = smith_normal_form(matrix)
        assert all(d > 0 for d in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_snf_against_minor_gcd_oracle():
    rng = random.Random(104729)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 3), rng.randint(1, 4)
        matrix = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
        assert smith_normal_form(matrix) == minor_gcd_oracle(matrix)


def test_abelianization_examples():
    z2 = Presentation(("a", "e"), (parse_word("e^-1 a e a^-1", ("a", "e")),))
    assert abelianization(z2) == Abelianization(2, ())
    trefoil = Presentation(("a", "b"), (parse_word("a^2 b^-3", ("a", "b")),))
    assert abelianization(trefoil) == Abelianization(1, ())
    free2 = Presentation(("x", "y"), ())
    assert abelianization(free2) == Abelianization(2, ())
    trivial = Presentation((), ())
    assert abelianization(trivial) == Abelianization(0, ())
    cyclic6 = Presentation(("g",), (Word([(0, 6)]),))
    assert abelianization(cyclic6) == Abelianization(0, (6,))
    klein_bottle = Presentation(("x", "y"), (parse_word("x y x y^-1", ("x", "y")),))
    assert abelianization(klein_bottle) == Abelianization(1, (2,))


def test_abelianization_str():
    assert str(Abelianization(0, ())) == "1"
    assert str(Abelianization(1, ())) == "Z"
    assert str(Abelianization(2, ())) == "Z^2"
    assert str(Abelianization(1, (2, 6))) == "Z x Z/2 x Z/6"


def test_snf_unit_heavy_against_minor_gcd_oracle():
    # Mostly 0 and +-1 entries, so the unit-pivot phase does most of the work.
    fixed = [
        [],  # 0 x n
        [[], [], []],  # n x 0
        [[0, 0, 0], [1, -1, 0], [0, 0, 0]],  # zero rows
        [[0, 1, 0, -1], [0, 2, 0, 3]],  # zero columns
        [[1, -1, 1], [-1, 1, 1], [1, 1, -1]],  # every entry a unit
        [[1, 1, 0], [1, 0, 2]],  # fill-in creates a new unit
        [[1, 2, 0], [3, 0, 5]],  # fill-in leaves a non-unit core
        [[1, 2, 3], [1, 2, 3], [2, 4, 6]],  # the core vanishes
    ]
    rng = random.Random(31337)
    pool = (0, 0, 0, 1, 1, -1, -1, 2, -2, 3)
    matrices = fixed + [
        [[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)]
        for nrows, ncols in ((rng.randint(0, 5), rng.randint(1, 5)) for _ in range(400))
    ]
    for matrix in matrices:
        assert smith_normal_form(matrix) == minor_gcd_oracle(matrix), matrix


def _glued_z_graph(rng, gluings, nvertices):
    """A graph-of-groups document with one Z = <x_i> per vertex and an edge
    x_u^p = x_v^q for each (u, v, p, q), in a random orientation."""
    edges = []
    for k, (u, v, p, q) in enumerate(gluings):
        if rng.random() < 0.5:
            u, v, p, q = v, u, q, p
        edges.append({"id": f"e{k}", "from": f"v{u}", "to": f"v{v}",
                      "edge_generators": ["c"], "alpha": [f"x{u}^{p}"],
                      "alpha_bar": [f"x{v}^{q}"]})
    vertices = {f"v{i}": {"generators": [f"x{i}"], "relators": []} for i in range(nvertices)}
    return loads(json.dumps({"vertices": vertices, "edges": edges}))


def test_abelianization_closed_forms_on_glued_graphs():
    """Raw and simplified pi_1 against closed forms: a cycle of v copies of
    Z glued by x_i^p = x_(i+1)^q (p, q coprime) abelianizes to
    Z x Z/|q^v - p^v|; a path with one coprime pair, and a star
    c^p_i = x_i^q_i with the q_i pairwise coprime and gcd(p_i, q_i) = 1,
    abelianize to Z."""
    rng = random.Random(2027)
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    cases = []
    for _ in range(6):
        v = rng.randint(1, 40)
        p, q = rng.choice([(1, 2), (2, 3), (3, 2), (2, 5), (4, 3), (5, 7)])
        d = abs(q**v - p**v)
        torsion = (d,) if d > 1 else ()
        cases.append((_glued_z_graph(rng, [(i, (i + 1) % v, p, q) for i in range(v)], v),
                      Abelianization(1, torsion)))
        v = rng.randint(1, 40)
        cases.append((_glued_z_graph(rng, [(i, i + 1, p, q) for i in range(v - 1)], v),
                      Abelianization(1, ())))
        leaves = rng.randint(1, 39)
        star = []
        for i, q in enumerate(rng.sample(primes, leaves)):
            star.append((0, i + 1, rng.choice([p for p in range(1, 10) if p % q]), q))
        cases.append((_glued_z_graph(rng, star, leaves + 1), Abelianization(1, ())))
    for gog, expected in cases:
        pi1 = fundamental_presentation(gog)
        assert abelianization(pi1.raw) == expected
        assert abelianization(pi1.simplified) == expected
