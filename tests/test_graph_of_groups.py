import json
import random

import pytest

from baumslag.abelianization import Abelianization, abelianization
from baumslag.errors import DomainError
from baumslag.fixtures import fixture_names, fixture_text, load_fixture
from baumslag.graph_of_groups import (
    GogFileError,
    GogValidationError,
    GraphOfGroups,
    SerreGraph,
    _cyclic_key,
    collapse_all_but_one,
    fundamental_presentation,
    loads,
    spanning_tree,
    validate,
)
from baumslag.harness import expected_relator_count
from baumslag.words import Presentation, Word, format_word, parse_word


def z_vertex(name="a"):
    return Presentation((name,), ())


def single_loop_gog():
    graph = SerreGraph(["v"], [("e", "v", "v")])
    a = Word([(0, 1)])
    return GraphOfGroups(graph, {"v": z_vertex()}, {"e": ("c",)}, {"e": (a,), "e_bar": (a,)})


def test_serre_graph_basics():
    g = SerreGraph(["v1", "v2"], [("e", "v1", "v2")])
    assert g.terminus("e") == "v2"
    assert g.terminus("e_bar") == "v1"
    assert g.pair_key("e_bar") == "e"
    assert g.edge_pairs() == ("e",)
    assert g.is_connected()


def test_validate_well_formed_loop():
    assert validate(single_loop_gog()) == []


def test_serre_graph_rejects_duplicate_edge_ids():
    # A repeated id, and an id that is another edge's reverse, in either
    # order: each would otherwise overwrite half-edges already built.
    for edges in (
        [("x", "v", "w"), ("x", "w", "v")],
        [("x", "v", "w"), ("x_bar", "w", "v")],
        [("x_bar", "w", "v"), ("x", "v", "w")],
    ):
        with pytest.raises(GogFileError) as err:
            SerreGraph(["v", "w"], edges)
        assert str(err.value) == "edges[1].id: duplicate edge id"


def test_serre_graph_rejects_unknown_endpoint():
    with pytest.raises(GogFileError) as err:
        SerreGraph(["v"], [("e", "v", "w")])
    assert str(err.value) == "edges[0].to: unknown vertex 'w'"
    with pytest.raises(GogFileError) as err:
        SerreGraph(["v"], [("f", "v", "v"), ("e", "w", "v")])
    assert str(err.value) == "edges[1].from: unknown vertex 'w'"


def test_validate_foreign_generator_in_boundary():
    graph = SerreGraph(["v"], [("e", "v", "v")])
    boundary = {"e": (Word([(7, 1)]),), "e_bar": (Word([(0, 1)]),)}
    with pytest.raises(GogFileError) as err:
        GraphOfGroups(graph, {"v": z_vertex()}, {"e": ("c",)}, boundary)
    assert err.value.path == "edges[0].alpha[0]"
    assert "outside the origin vertex group" in str(err.value)


def test_validate_disconnected():
    graph = SerreGraph(["v1", "v2", "v3"], [("e", "v1", "v2")])
    gog = GraphOfGroups(
        graph,
        {"v1": z_vertex(), "v2": z_vertex("b"), "v3": z_vertex("c")},
        {"e": ()},
        {"e": (), "e_bar": ()},
    )
    assert any("not connected" in p for p in validate(gog))


def test_spanning_tree_examples():
    loop = SerreGraph(["v"], [("e", "v", "v")])
    assert spanning_tree(loop) == frozenset()

    two = SerreGraph(["v1", "v2"], [("e", "v1", "v2")])
    assert spanning_tree(two) == frozenset({"e"})

    triangle = SerreGraph(
        ["v1", "v2", "v3"],
        [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1")],
    )
    # BFS from v1 reaches v2 through e1 and v3 through e3_bar.
    assert spanning_tree(triangle) == frozenset({"e1", "e3"})


def test_spanning_tree_disconnected():
    graph = SerreGraph(["v1", "v2"], [])
    with pytest.raises(DomainError):
        spanning_tree(graph)


def test_pi1_single_loop_z2():
    pi1 = fundamental_presentation(single_loop_gog())
    assert pi1.raw.generators == ("a", "e", "e_bar")
    raw = [format_word(r, pi1.raw.generators) for r in pi1.raw.relators]
    assert raw == ["e e_bar", "e^-1 a e a^-1", "e_bar^-1 a e_bar a^-1"]
    assert pi1.simplified.generators == ("a", "e")
    simplified = [format_word(r, pi1.simplified.generators) for r in pi1.simplified.relators]
    assert simplified == ["e^-1 a e a^-1"]
    assert abelianization(pi1.simplified) == Abelianization(2, ())


def test_pi1_amalgam_example():
    graph = SerreGraph(["v1", "v2"], [("e", "v1", "v2")])
    gog = GraphOfGroups(
        graph,
        {"v1": z_vertex(), "v2": z_vertex("b")},
        {"e": ("c",)},
        {"e": (Word([(0, 2)]),), "e_bar": (Word([(0, 3)]),)},
    )
    pi1 = fundamental_presentation(gog)
    assert pi1.simplified.generators == ("a", "b")
    rels = [format_word(r, pi1.simplified.generators) for r in pi1.simplified.relators]
    assert rels == ["a^2 b^-3"]
    assert abelianization(pi1.simplified) == Abelianization(1, ())


def test_pi1_edgeless_returns_vertex_presentation():
    graph = SerreGraph(["v"], [])
    pres = Presentation(("x", "y"), (parse_word("x y x^-1 y^-1", ("x", "y")),))
    gog = GraphOfGroups(graph, {"v": pres}, {}, {})
    pi1 = fundamental_presentation(gog)
    assert pi1.raw == pres
    assert pi1.simplified == pres


def test_pi1_renames_colliding_generators():
    graph = SerreGraph(["u", "v"], [("e", "u", "v")])
    gog = GraphOfGroups(
        graph,
        {"u": z_vertex("a"), "v": z_vertex("a")},
        {"e": ("c",)},
        {"e": (Word([(0, 1)]),), "e_bar": (Word([(0, 1)]),)},
    )
    pi1 = fundamental_presentation(gog)
    assert pi1.raw.generators == ("u_a", "v_a", "e", "e_bar")
    assert pi1.vertex_gen_names["u"] == ("u_a",)
    assert pi1.vertex_gen_names["v"] == ("v_a",)
    assert abelianization(pi1.simplified) == Abelianization(1, ())


def test_pi1_relator_count_formula_on_fixtures():
    for name in fixture_names():
        gog = load_fixture(name)
        pi1 = fundamental_presentation(gog)
        assert len(pi1.raw.relators) == expected_relator_count(gog)
        assert abelianization(pi1.raw) == abelianization(pi1.simplified)


def test_pi1_tree_override_and_validation():
    gog = load_fixture("triangle")
    default = fundamental_presentation(gog)
    assert default.tree == frozenset({"e1", "e3"})
    other = fundamental_presentation(gog, frozenset({"e1", "e2"}))
    assert abelianization(other.raw) == abelianization(default.raw)
    with pytest.raises(DomainError):
        fundamental_presentation(gog, frozenset({"e1"}))
    with pytest.raises(DomainError):
        fundamental_presentation(gog, frozenset({"e1", "zzz"}))


def test_pi1_requires_valid_gog():
    disconnected = GraphOfGroups(
        SerreGraph(["u", "v", "w"], [("e", "u", "v")]),
        {"u": z_vertex(), "v": z_vertex("b"), "w": z_vertex("c")},
        {"e": ()},
        {},
    )
    empty = GraphOfGroups(SerreGraph([], []), {}, {}, {})
    cases = ((disconnected, "graph is not connected"), (empty, "graph has no vertices"))
    # A given tree is checked only after the graph: the error class and
    # violation stay those of a graph that is not valid.
    runs = (
        fundamental_presentation,
        lambda g: fundamental_presentation(g, frozenset({"e"})),
        lambda g: collapse_all_but_one(g, "e"),
    )
    for gog, violation in cases:
        for run in runs:
            with pytest.raises(GogValidationError) as err:
                run(gog)
            assert err.value.violations == [violation]


def test_collapse_identity_on_one_edge_graph():
    gog = load_fixture("trefoil_amalgam")
    collapsed = collapse_all_but_one(gog, "e")
    assert collapsed.kind == "amalgam"
    assert collapsed.gog.graph.vertices == ("v1", "v2")
    assert collapsed.gog.vertex_groups["v1"] == gog.vertex_groups["v1"]
    assert collapsed.gog.vertex_groups["v2"] == gog.vertex_groups["v2"]


def test_collapse_path_keep_first_edge():
    gog = load_fixture("path_two_edges")
    collapsed = collapse_all_but_one(gog, "e1")
    assert collapsed.kind == "amalgam"
    assert collapsed.gog.graph.vertices == ("v1", "v2")
    # v2's side collapsed the segment v2 - v3 into one vertex group.
    segment = collapsed.gog.vertex_groups["v2"]
    assert set(segment.generators) == {"b", "c"}
    before = abelianization(fundamental_presentation(gog).raw)
    after = abelianization(fundamental_presentation(collapsed.gog).raw)
    assert before == after


def test_collapse_two_loops_gives_hnn():
    gog = load_fixture("two_loops")
    collapsed = collapse_all_but_one(gog, "e")
    assert collapsed.kind == "hnn"
    assert collapsed.gog.graph.vertices == ("v",)
    base = collapsed.gog.vertex_groups["v"]
    # Base is the single-loop sub-diagram's group < a, f | f^-1 a^3 f a^-5 >.
    assert set(base.generators) == {"a", "f"}
    rels = [format_word(r, base.generators) for r in base.relators]
    assert rels == ["f^-1 a^3 f a^-5"]
    before = abelianization(fundamental_presentation(gog).raw)
    after = abelianization(fundamental_presentation(collapsed.gog).raw)
    assert before == after


def test_collapse_preserves_abelianization_all_fixtures():
    for name in fixture_names():
        gog = load_fixture(name)
        before = abelianization(fundamental_presentation(gog).raw)
        for pair in gog.graph.edge_pairs():
            collapsed = collapse_all_but_one(gog, pair)
            after = abelianization(fundamental_presentation(collapsed.gog).raw)
            assert before == after, (name, pair)


def test_collapse_unknown_edge():
    with pytest.raises(DomainError):
        collapse_all_but_one(load_fixture("z2_loop"), "nope")


def assert_loaded_as_written(gog, doc):
    """gog holds exactly the objects of its JSON document: each vertex
    presentation, edge and boundary word, with every word formatted back
    to the text the document gives for it."""
    graph = gog.graph
    assert graph.vertices == tuple(sorted(doc["vertices"]))
    for v, body in doc["vertices"].items():
        pres = gog.vertex_groups[v]
        assert list(pres.generators) == body["generators"]
        assert [format_word(r, pres.generators) for r in pres.relators] == body["relators"]
    assert graph.edge_pairs() == tuple(sorted(entry["id"] for entry in doc["edges"]))
    assert len(graph.half_edges) == 2 * len(doc["edges"])
    for entry in doc["edges"]:
        e, bar = entry["id"], entry["id"] + "_bar"
        assert (graph.inv[e], graph.origin[e], graph.origin[bar]) == (bar, entry["from"], entry["to"])
        assert gog.edge_generators[e] == tuple(entry["edge_generators"])
        for half, key, v in ((e, "alpha", entry["from"]), (bar, "alpha_bar", entry["to"])):
            gens = gog.vertex_groups[v].generators
            assert [format_word(w, gens) for w in gog.boundary[half]] == entry[key]


def test_load_fixture_round_trip():
    for name in fixture_names():
        gog = loads(fixture_text(name))
        assert_loaded_as_written(gog, json.loads(fixture_text(name)))
        assert validate(gog) == []


def test_loads_ignores_unknown_keys():
    # An edge's index_meta object, which earlier versions of the format
    # read, is ignored like any other unknown key, whatever it holds.
    doc = json.loads(fixture_text("declared_infinite_loop"))
    doc["edges"][0]["index_meta"] = {"alpha": "sometimes", "beta": True}
    doc["vertices"]["v"]["note"] = 1
    doc["version"] = 2
    assert_loaded_as_written(loads(json.dumps(doc)), doc)


@pytest.mark.parametrize("names", [[""], ["x'"], ["a", "a"]])
def test_loads_checks_generator_names_before_relators(names):
    # Relators are tokenised as identifiers, so names are checked first;
    # an empty name used to make the relator scan loop forever.
    doc = {"vertices": {"v": {"generators": names, "relators": ["a", "x'"]}}, "edges": []}
    with pytest.raises(GogFileError) as info:
        loads(json.dumps(doc))
    assert info.value.path == "vertices.v.generators"


def test_loads_schema_errors_carry_paths():
    with pytest.raises(GogFileError) as info:
        loads("{not json")
    assert "line 1" in info.value.path

    doc = json.loads(fixture_text("z2_loop"))
    del doc["edges"][0]["from"]
    with pytest.raises(GogFileError) as info:
        loads(json.dumps(doc))
    assert info.value.path == "edges[0]"

    doc = json.loads(fixture_text("z2_loop"))
    doc["edges"][0]["alpha"] = ["zz"]
    with pytest.raises(GogFileError) as info:
        loads(json.dumps(doc))
    assert info.value.path == "edges[0].alpha[0]"
    assert "unknown generator" in str(info.value)

    doc = json.loads(fixture_text("z2_loop"))
    doc["edges"][0]["to"] = "missing"
    with pytest.raises(GogFileError) as info:
        loads(json.dumps(doc))
    assert info.value.path == "edges[0].to"

    doc = json.loads(fixture_text("z2_loop"))
    doc["vertices"]["v"]["relators"] = ["a^"]
    with pytest.raises(GogFileError) as info:
        loads(json.dumps(doc))
    assert info.value.path == "vertices.v.relators[0]"


def test_loads_duplicate_edge_id():
    doc = json.loads(fixture_text("two_loops"))
    doc["edges"][1]["id"] = "e"
    with pytest.raises(GogFileError) as info:
        loads(json.dumps(doc))
    assert info.value.path == "edges[1].id"


def _rename_vertex(doc):
    doc["vertices"]["3v"] = doc["vertices"].pop("v3")
    doc["edges"][1]["to"] = "3v"


# One fault each on the path_two_edges fixture, with the exact error.
SINGLE_FAULTS = {
    "vertex_id": (_rename_vertex, "vertices.3v: vertex id is not an identifier"),
    "edge_id": (
        lambda d: d["edges"][1].update(id="2e"),
        "edges[1].id: edge id is not an identifier",
    ),
    "repeated_id": (lambda d: d["edges"][1].update(id="e1"), "edges[1].id: duplicate edge id"),
    "id_is_a_bar": (lambda d: d["edges"][1].update(id="e1_bar"), "edges[1].id: duplicate edge id"),
    "unknown_from": (
        lambda d: d["edges"][1].update({"from": "v9"}),
        "edges[1].from: unknown vertex 'v9'",
    ),
    "unknown_to": (lambda d: d["edges"][0].update(to="v9"), "edges[0].to: unknown vertex 'v9'"),
    "short_alpha": (
        lambda d: d["edges"][0].update(alpha=[]),
        "edges[0].alpha: 'alpha' must list one image per edge generator",
    ),
    "long_alpha_bar": (
        lambda d: d["edges"][1].update(alpha_bar=["c^2", "c"]),
        "edges[1].alpha_bar: 'alpha_bar' must list one image per edge generator",
    ),
    "unknown_generator": (
        lambda d: d["edges"][0].update(alpha=["c"]),
        "edges[0].alpha[0]: unknown generator 'c' (at position 0)",
    ),
    "malformed_image": (
        lambda d: d["edges"][1].update(alpha_bar=["c^"]),
        "edges[1].alpha_bar[0]: malformed exponent (at position 2)",
    ),
    "edge_generators_not_a_list": (
        lambda d: d["edges"][0].update(edge_generators="s"),
        "edges[0].edge_generators: 'edge_generators' must be a list of strings",
    ),
    "missing_from": (lambda d: d["edges"][1].pop("from"), "edges[1]: missing 'from'"),
    "bad_relator": (
        lambda d: d["vertices"]["v2"].update(relators=["b^x"]),
        "vertices.v2.relators[0]: malformed exponent (at position 2)",
    ),
    "repeated_vertex_generator": (
        lambda d: d["vertices"]["v1"].update(generators=["a", "a"]),
        "vertices.v1.generators: duplicate generator 'a'",
    ),
}


@pytest.mark.parametrize("fault", sorted(SINGLE_FAULTS))
def test_loads_single_fault_message(fault):
    apply, message = SINGLE_FAULTS[fault]
    doc = json.loads(fixture_text("path_two_edges"))
    apply(doc)
    with pytest.raises(GogFileError) as info:
        loads(json.dumps(doc))
    assert str(info.value) == message


# Four faults, listed in the order loads reports them: an edge's JSON
# type, the graph, a boundary word, an image count.  Each fault sits on a
# later edge than the next one, so an edge-by-edge check would report
# another first.
ORDERED_FAULTS = [
    lambda d: d["edges"][1].update(edge_generators="u"),
    lambda d: d["edges"][0].update(to="v9"),
    lambda d: d["edges"][1].update(alpha_bar=["a"]),
    lambda d: d["edges"][0].update(alpha=[]),
]
ORDERED_MESSAGES = [
    "edges[1].edge_generators: 'edge_generators' must be a list of strings",
    "edges[0].to: unknown vertex 'v9'",
    "edges[1].alpha_bar[0]: unknown generator 'a' (at position 0)",
    "edges[0].alpha: 'alpha' must list one image per edge generator",
]


@pytest.mark.parametrize("first", range(len(ORDERED_FAULTS)))
def test_loads_reports_faults_in_documented_order(first):
    doc = json.loads(fixture_text("path_two_edges"))
    for apply in ORDERED_FAULTS[first:]:
        apply(doc)
    with pytest.raises(GogFileError) as info:
        loads(json.dumps(doc))
    assert str(info.value) == ORDERED_MESSAGES[first]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SerreGraph(["v", "2w"], []), "vertices.2w: vertex id is not an identifier"),
        (lambda: SerreGraph(["v", "w", "v"], []), "vertices.v: duplicate vertex id"),
        (
            lambda: SerreGraph(["v"], [("e'", "v", "v")]),
            "edges[0].id: edge id is not an identifier",
        ),
        (
            lambda: GraphOfGroups(SerreGraph(["v", "w"], []), {"v": z_vertex()}, {}, {}),
            "vertices.w: vertex has no group",
        ),
        (
            lambda: GraphOfGroups(SerreGraph(["v"], [("e", "v", "v")]), {"v": z_vertex()}, {}, {}),
            "edges[0]: missing 'edge_generators'",
        ),
        (
            lambda: GraphOfGroups(
                SerreGraph(["v"], [("e", "v", "v")]), {"v": z_vertex()}, {"e": ("c",)},
                {"e": (Word([(0, 1)]),)},
            ),
            "edges[0].alpha_bar: 'alpha_bar' must list one image per edge generator",
        ),
        (
            lambda: GraphOfGroups(
                SerreGraph(["v"], [("e", "v", "v")]), {"v": z_vertex()}, {"e": ("c",)},
                {"e": (Word([(0, 1)]),), "e_bar": (Word([(0, 2), (-1, 1)]),)},
            ),
            "edges[0].alpha_bar[0]: image uses a generator outside the origin vertex group",
        ),
    ],
)
def test_constructors_locate_faults_of_direct_callers(build, message):
    with pytest.raises(GogFileError) as info:
        build()
    assert str(info.value) == message


def test_graph_of_groups_keeps_only_its_own_entries():
    gog = GraphOfGroups(
        SerreGraph(["v"], [("e", "v", "v")]),
        {"v": z_vertex(), "u": z_vertex("b")},
        {"e": ("c",), "f": ("d",)},
        {"e": (Word([(0, 1)]),), "e_bar": (Word([(0, 1)]),), "f": ()},
    )
    assert list(gog.vertex_groups) == ["v"]
    assert gog.edge_generators == {"e": ("c",)}
    assert sorted(gog.boundary) == ["e", "e_bar"]
    assert validate(gog) == []


def _letter_key(w):
    """Reference relator key: the least of all rotations of the letter
    sequence and of its inverse, one letter per unit of exponent."""
    letters = []
    for gen, exp in w.letters:
        letters.extend([(gen, 1 if exp > 0 else -1)] * abs(exp))
    if not letters:
        return ()
    inverse = [(g, -s) for g, s in reversed(letters)]
    return min(tuple(seq[k:] + seq[:k]) for seq in (letters, inverse) for k in range(len(seq)))


def test_cyclic_key_matches_letter_rotation_reference():
    rng = random.Random(1980)
    exps = (-3, -2, -1, 1, 2, 3)
    words = [Word(), Word([(0, 1)]), Word([(1, -3)])]
    for _ in range(300):
        words.append(Word((rng.randrange(3), rng.choice(exps)) for _ in range(rng.randint(1, 6))))
        g, e, f = rng.randrange(3), rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
        s = rng.choice((1, -1))
        middle = [(h, rng.choice(exps)) for h in rng.sample([h for h in range(3) if h != g], 2)]
        words.append(Word([(g, s * e)] + middle + [(g, s * f)]))  # ends merge
        words.append(Word([(g, s * e)] + middle + [(g, -s * f)]))  # ends do not
    variants = []
    for w in words:
        letters = [(gen, 1 if exp > 0 else -1) for gen, exp in w.letters for _ in range(abs(exp))]
        rotations = [Word(letters[k:] + letters[:k]) for k in range(len(letters))]
        if w:
            (g, e), (h, f) = w.letters[0], w.letters[-1]
            if g != h or (e > 0) == (f > 0):
                # Cyclically reduced: every rotation keeps all of its letters.
                assert {_cyclic_key(r) for r in rotations} == {_cyclic_key(w)}
        variants += rotations + [~w]
    words += variants
    new_of_ref, ref_of_new = {}, {}
    for w in words:
        ref, new = _letter_key(w), _cyclic_key(w)
        assert new_of_ref.setdefault(ref, new) == new, w
        assert ref_of_new.setdefault(new, ref) == ref, w
    assert len(new_of_ref) < len(words) / 2
    assert _cyclic_key(Word()) == ()
