"""SerreGraph traversal against a breadth-first search written here.

Random multigraphs with loops, parallel edges and several components;
the reference search rescans every half-edge at each step and keeps its
queue in a plain list, so it shares no code with SerreGraph.reach.
"""

import random

import pytest

from baumslag.errors import DomainError
from baumslag.graph_of_groups import (
    GraphOfGroups,
    SerreGraph,
    _check_tree,
    collapse_all_but_one,
    spanning_tree,
)
from baumslag.words import Presentation


def random_graph(rng, connected):
    vertices = [f"v{i}" for i in range(rng.randint(1, 7))]
    ids = rng.sample([f"{c}{d}" for c in "kpxz" for d in range(10)], rng.randint(0, 9))
    edges = [(eid, rng.choice(vertices), rng.choice(vertices)) for eid in ids]
    if connected:
        for i, v in enumerate(vertices[1:], start=1):
            edges.append((f"t{i}", rng.choice(vertices[:i]), v))
    return SerreGraph(vertices, edges)


def graph_of_groups(graph):
    """One generator named after each vertex, edge groups trivial."""
    return GraphOfGroups(
        graph,
        {v: Presentation((f"g_{v}",), ()) for v in graph.vertices},
        {pair: () for pair in graph.edge_pairs()},
        {e: () for e in graph.half_edges},
    )


def reference_bfs(graph, root, allowed):
    """Vertices reached from root over half-edges whose pair is allowed,
    and the pairs of the edges each new vertex was reached by."""
    seen, tree, queue = [root], set(), [root]
    while queue:
        v = queue.pop(0)
        for e in sorted(e for e in graph.origin if graph.origin[e] == v):
            pair = min(e, graph.inv[e])
            w = graph.origin[graph.inv[e]]
            if pair in allowed and w not in seen:
                seen.append(w)
                tree.add(pair)
                queue.append(w)
    return set(seen), tree


GRAPHS = [random_graph(random.Random(seed), connected=seed % 2 == 0) for seed in range(50)]


@pytest.mark.parametrize("graph", GRAPHS)
def test_incident_is_ascending(graph):
    # Seen from its root alone, reach offers the half-edges at the root
    # that leave it, in ascending id order.
    for v in graph.vertices:
        offered = []
        graph.reach(v, lambda e: offered.append(e))
        incident = sorted(e for e in graph.origin if graph.origin[e] == v)
        assert offered == [e for e in incident if graph.terminus(e) != v]


@pytest.mark.parametrize("graph", GRAPHS)
def test_connectivity_and_spanning_tree(graph):
    pairs = set(graph.edge_pairs())
    reached, tree = reference_bfs(graph, graph.vertices[0], pairs)
    connected = len(reached) == len(graph.vertices)
    assert graph.is_connected() == connected
    if connected:
        assert spanning_tree(graph) == frozenset(tree)
    else:
        with pytest.raises(DomainError):
            spanning_tree(graph)


@pytest.mark.parametrize("seed", range(50))
def test_check_tree_accepts_exactly_spanning_trees(seed):
    graph = GRAPHS[seed]
    gog = graph_of_groups(graph)
    rng = random.Random(1000 + seed)
    pairs = sorted(graph.edge_pairs())
    size = len(graph.vertices) - 1
    if size <= len(pairs):
        for _ in range(5):
            subset = frozenset(rng.sample(pairs, size))
            reached, _ = reference_bfs(graph, graph.vertices[0], subset)
            if len(reached) == len(graph.vertices):
                assert _check_tree(gog, subset) == subset
            else:
                with pytest.raises(DomainError, match="does not span"):
                    _check_tree(gog, subset)
    if graph.is_connected():
        tree = spanning_tree(graph)
        assert _check_tree(gog, tree) == tree
        if tree:
            with pytest.raises(DomainError, match="edge pairs"):
                _check_tree(gog, tree - {min(tree)})
    with pytest.raises(DomainError, match="unknown"):
        _check_tree(gog, frozenset({"nope"}))


@pytest.mark.parametrize("graph", [g for g in GRAPHS if g.is_connected() and g.inv])
def test_collapse_components(graph):
    gog = graph_of_groups(graph)
    for keep in graph.edge_pairs():
        others = set(graph.edge_pairs()) - {keep}
        ends = (graph.origin[keep], graph.terminus(keep))
        components = [reference_bfs(graph, v, others)[0] for v in ends]
        roots = [min(c) for c in components]
        split = collapse_all_but_one(gog, keep)
        assert split.kind == ("hnn" if roots[0] == roots[1] else "amalgam")
        new = split.gog.graph
        assert new.vertices == tuple(sorted(set(roots)))
        assert (new.origin[keep], new.terminus(keep)) == tuple(roots)
        for root, component in zip(roots, components):
            gens = split.gog.vertex_groups[root].generators
            assert {g for g in gens if g.startswith("g_")} == {f"g_{v}" for v in component}
