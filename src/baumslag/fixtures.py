"""Built-in graph-of-groups fixtures, stored in the JSON file format so
the same documents exercise the parser, the presentation builder, and
the verification suites."""

from __future__ import annotations

from .graph_of_groups import GraphOfGroups, loads

FIXTURES: dict[str, str] = {
    # Single vertex Z, one loop identifying a with a: free abelian of rank 2.
    "z2_loop": """\
{
  "vertices": {"v": {"generators": ["a"], "relators": []}},
  "edges": [
    {"id": "e", "from": "v", "to": "v",
     "edge_generators": ["c"], "alpha": ["a"], "alpha_bar": ["a"]}
  ]
}
""",
    # Two Z vertices glued along a^2 = b^3: the trefoil knot group.
    "trefoil_amalgam": """\
{
  "vertices": {
    "v1": {"generators": ["a"], "relators": []},
    "v2": {"generators": ["b"], "relators": []}
  },
  "edges": [
    {"id": "e", "from": "v1", "to": "v2",
     "edge_generators": ["c"], "alpha": ["a^2"], "alpha_bar": ["b^3"]}
  ]
}
""",
    # No edges at all: the fundamental group is the vertex group itself.
    "edgeless": """\
{
  "vertices": {
    "v": {"generators": ["x", "y"], "relators": ["x y x^-1 y^-1"]}
  },
  "edges": []
}
""",
    # Path v1 - v2 - v3 of Z vertices with proper-power gluings.
    "path_two_edges": """\
{
  "vertices": {
    "v1": {"generators": ["a"], "relators": []},
    "v2": {"generators": ["b"], "relators": []},
    "v3": {"generators": ["c"], "relators": []}
  },
  "edges": [
    {"id": "e1", "from": "v1", "to": "v2",
     "edge_generators": ["s"], "alpha": ["a^2"], "alpha_bar": ["b^3"]},
    {"id": "e2", "from": "v2", "to": "v3",
     "edge_generators": ["u"], "alpha": ["b^5"], "alpha_bar": ["c^2"]}
  ]
}
""",
    # One Z vertex with two loops: two stable letters over one base.
    "two_loops": """\
{
  "vertices": {"v": {"generators": ["a"], "relators": []}},
  "edges": [
    {"id": "e", "from": "v", "to": "v",
     "edge_generators": ["c"], "alpha": ["a^2"], "alpha_bar": ["a^3"]},
    {"id": "f", "from": "v", "to": "v",
     "edge_generators": ["d"], "alpha": ["a^3"], "alpha_bar": ["a^5"]}
  ]
}
""",
    # Triangle of trivial groups: the fundamental group is Z.
    "triangle": """\
{
  "vertices": {
    "v1": {"generators": [], "relators": []},
    "v2": {"generators": [], "relators": []},
    "v3": {"generators": [], "relators": []}
  },
  "edges": [
    {"id": "e1", "from": "v1", "to": "v2", "edge_generators": [], "alpha": [], "alpha_bar": []},
    {"id": "e2", "from": "v2", "to": "v3", "edge_generators": [], "alpha": [], "alpha_bar": []},
    {"id": "e3", "from": "v3", "to": "v1", "edge_generators": [], "alpha": [], "alpha_bar": []}
  ]
}
""",
    # Two rank-2 free abelian vertices glued over a two-generator edge group.
    "torus_amalgam": """\
{
  "vertices": {
    "v1": {"generators": ["x", "y"], "relators": ["x y x^-1 y^-1"]},
    "v2": {"generators": ["p", "q"], "relators": ["p q p^-1 q^-1"]}
  },
  "edges": [
    {"id": "e", "from": "v1", "to": "v2",
     "edge_generators": ["c", "d"],
     "alpha": ["x", "y"],
     "alpha_bar": ["p^2", "q^3"]}
  ]
}
""",
    # HNN loop over the rank-2 free abelian group: e^-1 x e = y.  Reports
    # and golden entries print the name, so it stays as it is.
    "declared_infinite_loop": """\
{
  "vertices": {
    "v": {"generators": ["x", "y"], "relators": ["x y x^-1 y^-1"]}
  },
  "edges": [
    {"id": "e", "from": "v", "to": "v",
     "edge_generators": ["c"], "alpha": ["x"], "alpha_bar": ["y"]}
  ]
}
""",
}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(FIXTURES))


def fixture_text(name: str) -> str:
    try:
        return FIXTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        ) from None


def load_fixture(name: str) -> GraphOfGroups:
    return loads(fixture_text(name))
