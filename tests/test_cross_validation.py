"""Cross-checks that pit independent code paths against each other."""

import itertools
import random

from baumslag.abelianization import abelianization
from baumslag.britton import BsParams, equal
from baumslag.fixtures import fixture_names, load_fixture
from baumslag.graph_of_groups import (
    GraphOfGroups,
    SerreGraph,
    collapse_all_but_one,
    fundamental_presentation,
    validate,
)
from baumslag.words import Presentation, Word

from test_britton import in_g, random_bs_word


def all_spanning_trees(graph):
    pairs = graph.edge_pairs()
    size = len(graph.vertices) - 1
    for subset in itertools.combinations(pairs, size):
        chosen = set(subset)
        seen = {graph.vertices[0]}
        queue = [graph.vertices[0]]
        while queue:
            v = queue.pop(0)
            for e in sorted(e for e in graph.origin if graph.origin[e] == v):
                if graph.pair_key(e) in chosen and graph.terminus(e) not in seen:
                    seen.add(graph.terminus(e))
                    queue.append(graph.terminus(e))
        if len(seen) == len(graph.vertices):
            yield frozenset(chosen)


def test_pi1_abelianization_is_tree_independent():
    for name in fixture_names():
        gog = load_fixture(name)
        trees = list(all_spanning_trees(gog.graph))
        assert trees
        results = {
            abelianization(fundamental_presentation(gog, tree).raw)
            for tree in trees
        }
        assert len(results) == 1, name


def test_equality_agrees_with_metabelian_oracle():
    rng = random.Random(60221)
    for k in (2, 3):
        params = BsParams(1, k)
        for _ in range(300):
            u = random_bs_word(rng, max_len=14)
            v = random_bs_word(rng, max_len=14)
            lhs = equal(u, v, params)
            rhs = in_g(u, k) == in_g(v, k)
            assert lhs == rhs


def test_pipeline_on_colliding_names_with_loop():
    # Both vertices use generator 'a', and half-edge letters share the
    # namespace; the builder must rename deterministically and every
    # downstream invariant must still hold.
    graph = SerreGraph(
        ["u", "v"], [("e", "u", "v"), ("f", "v", "v")]
    )
    gog = GraphOfGroups(
        graph,
        {
            "u": Presentation(("a",), ()),
            "v": Presentation(("a",), ()),
        },
        {"e": ("c",), "f": ("d",)},
        {
            "e": (Word([(0, 2)]),),
            "e_bar": (Word([(0, 3)]),),
            "f": (Word([(0, 2)]),),
            "f_bar": (Word([(0, 4)]),),
        },
    )
    assert validate(gog) == []
    pi1 = fundamental_presentation(gog)
    assert set(pi1.vertex_gen_names["u"]) == {"u_a"}
    assert set(pi1.vertex_gen_names["v"]) == {"v_a"}
    trees = list(all_spanning_trees(gog.graph))
    assert trees == [frozenset({"e"})]
    assert abelianization(pi1.raw) == abelianization(pi1.simplified)


def rewritten_raw(pi1, graph):
    """The simplified presentation as a rewrite of ``pi1.raw``: inv(e)
    becomes e^-1 and each tree letter 1, every relator is freely reduced
    one letter at a time, and empty relators and repeats up to rotation
    and inversion are dropped.  Returns the generator names and each
    relator's syllables over them."""
    image = {}
    for pair in graph.edges:
        kept = [] if pair in pi1.tree else [(pair, 1)]
        image[pair], image[graph.inv[pair]] = kept, [(n, -s) for n, s in kept]
    gens = tuple(n for n in pi1.raw.generators if image.get(n, [(n, 1)]) == [(n, 1)])
    index = {name: i for i, name in enumerate(gens)}
    relators, seen = [], set()
    for rel in pi1.raw.relators:
        reduced = []
        for gen, exp in rel.letters:
            name = pi1.raw.generators[gen]
            # An image has at most one letter: a negative power flips it.
            for n, s in image.get(name, [(name, 1)]) * abs(exp):
                letter = (n, s if exp > 0 else -s)
                if reduced and reduced[-1] == (n, -letter[1]):
                    reduced.pop()
                else:
                    reduced.append(letter)
        if not reduced:
            continue
        inverse = [(n, -s) for n, s in reversed(reduced)]
        key = min(tuple(w[k:] + w[:k]) for w in (reduced, inverse) for k in range(len(w)))
        if key in seen:
            continue
        seen.add(key)
        syllables = []
        for n, s in reduced:
            if syllables and syllables[-1][0] == index[n]:
                syllables[-1][1] += s
            else:
                syllables.append([index[n], s])
        relators.append(tuple(map(tuple, syllables)))
    return gens, relators


def assert_simplified_is_rewritten_raw(gog, tree=None):
    pi1 = fundamental_presentation(gog, tree)
    # The builder assembles relators from letters: each must be reduced.
    assert all(Word(rel.letters) == rel for rel in pi1.raw.relators)
    gens, relators = rewritten_raw(pi1, gog.graph)
    assert pi1.simplified.generators == gens
    assert [rel.letters for rel in pi1.simplified.relators] == relators


def random_gog(rng):
    """Tree edges plus chords and loops; vertex groups of 0-2 generators
    (some named like half-edges) with relators; edge groups of 0-2
    generators whose images may be empty."""
    vertices = [f"v{i}" for i in range(rng.randint(1, 6))]
    groups = {}
    for v in vertices:
        gens = tuple(rng.sample(["a", "b", "t1", "c0_bar"], rng.randint(0, 2)))
        rels = tuple(random_word(rng, len(gens)) for _ in range(rng.randint(0, 2)))
        groups[v] = Presentation(gens, rels)
    edges = [(f"t{i}", rng.choice(vertices[:i]), v) for i, v in enumerate(vertices) if i]
    edges += [(f"c{j}", rng.choice(vertices), rng.choice(vertices)) for j in range(rng.randint(0, 3))]
    edge_generators, boundary = {}, {}
    for eid, frm, to in edges:
        edge_generators[eid] = ("g",) * rng.randint(0, 2)
        for e, v in ((eid, frm), (eid + "_bar", to)):
            n = len(groups[v].generators)
            boundary[e] = tuple(random_word(rng, n) for _ in edge_generators[eid])
    return GraphOfGroups(SerreGraph(vertices, edges), groups, edge_generators, boundary)


def random_word(rng, n):
    if not n:
        return Word()
    return Word((rng.randrange(n), rng.choice((-2, -1, 1, 3))) for _ in range(rng.randint(0, 4)))


def test_simplified_is_rewritten_raw_on_fixtures_and_collapses():
    for name in fixture_names():
        gog = load_fixture(name)
        assert_simplified_is_rewritten_raw(gog)
        for pair in gog.graph.edge_pairs():
            assert_simplified_is_rewritten_raw(collapse_all_but_one(gog, pair).gog)


def test_simplified_is_rewritten_raw_on_random_graphs_and_trees():
    rng = random.Random(1931)
    for _ in range(60):
        gog = random_gog(rng)
        for tree in [None, *all_spanning_trees(gog.graph)]:
            assert_simplified_is_rewritten_raw(gog, tree)
        for pair in gog.graph.edge_pairs():
            assert_simplified_is_rewritten_raw(collapse_all_but_one(gog, pair).gog)
