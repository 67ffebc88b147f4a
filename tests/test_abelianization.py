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
    # Rows equal up to sign, as a raw pi_1 matrix has once per half-edge.
    assert smith_normal_form([[2, 4, 6], [-2, -4, -6], [0, 3, 0], [2, 4, 6]]) == [1, 6]


def test_snf_sparse_rows_match_dense_rows():
    # {column: value} rows in any key order, zeros included, give the
    # factors of the dense matrix.
    rng = random.Random(104729)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[rng.choice([0, 0, 1, -1, rng.randint(-9, 9)]) for _ in range(ncols)]
                  for _ in range(nrows)]
        sparse = []
        for values in matrix:
            cells = list(enumerate(values))
            rng.shuffle(cells)
            sparse.append({j: v for j, v in cells if v or rng.random() < 0.5})
        assert smith_normal_form(sparse) == smith_normal_form(matrix), matrix


def test_abelianization_sums_repeated_syllables():
    # Rows a^3 (b cancels), zero (a commutator) and b c^6: Z x Z/3.
    gens = ("a", "b", "c")
    relators = tuple(parse_word(t, gens) for t in ("a b a^2 b^-1", "a c a^-1 c^-1", "c^2 b c^4"))
    assert abelianization(Presentation(gens, relators)) == Abelianization(1, (3,))


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
    # Mostly 0 and +-1 entries, so most pivots are units.
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


def _elementary_product(rng, n, steps):
    """A seeded product of n x n elementary integer operations (add a
    multiple of one row to another, swap two rows, negate a row), so
    its determinant is +-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        kind = rng.random()
        if kind < 0.8:
            f = rng.choice((-3, -2, -1, 1, 2, 3))
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
        elif kind < 0.9:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return m


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_snf_of_scrambled_diagonals():
    """A = U D V with U, V unimodular has the Smith normal form D.  D is a
    chosen divisibility chain with non-unit entries, at sizes the minor
    oracle cannot reach; some matrices also get rows repeated up to sign."""
    rng = random.Random(4099)
    sizes = [(6, 6), (8, 5), (5, 9), (12, 12), (16, 10), (10, 16), (20, 20), (25, 30)]
    for nrows, ncols in sizes * 3:
        rank = rng.randint(1, min(nrows, ncols))
        chain, d = [], 1
        for _ in range(rank):
            d *= rng.choice((1, 1, 2, 3, 5, 6, 7))
            chain.append(d)
        diagonal = [[chain[i] if i == j and i < rank else 0 for j in range(ncols)]
                    for i in range(nrows)]
        u = _elementary_product(rng, nrows, 4 * nrows)
        v = _elementary_product(rng, ncols, 4 * ncols)
        a = _matmul(_matmul(u, diagonal), v)
        if rng.random() < 0.5:
            a += [[-x for x in rng.choice(a)] for _ in range(3)]
            rng.shuffle(a)
        assert smith_normal_form(a) == chain, (nrows, ncols, chain)


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
