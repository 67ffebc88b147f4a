"""Cross-checks that pit independent code paths against each other."""

import itertools
import random

from baumslag.abelianization import abelianization
from baumslag.britton import BsParams, equal
from baumslag.fixtures import fixture_names, load_fixture
from baumslag.graph_of_groups import (
    GraphOfGroups,
    SerreGraph,
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
