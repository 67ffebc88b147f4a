"""Serre graphs, graphs of groups, fundamental-group presentations, and
the collapse-to-one-edge move.

A Serre graph (Serre, Trees, I.2) carries oriented half-edges: every
half-edge e has an inverse ``inv(e) != e`` and an origin vertex; the
terminus of e is the origin of inv(e).  ``SerreGraph`` is built only
from (id, from, to) edge triples: the edge ``id`` gives the half-edge
``id`` and its reverse ``id_bar``, so these invariants hold by
construction.  A graph of groups attaches a finite presentation to each
vertex, an abstract generator list to each edge pair, and for each
half-edge e a boundary map sending every edge generator to a word in
the generators of the origin vertex of e.

Every per-edge rule is checked once, by the constructors, which raise
GogFileError with the path of the field as a document would spell it:
``SerreGraph`` checks that vertex and edge ids are identifiers
(``vertices.<id>``, ``edges[i].id``), that no vertex id repeats
(``vertices.<id>``) and no edge id, counting ``id_bar``
(``edges[i].id``), and that both endpoints are vertices
(``edges[i].from`` / ``.to``); ``GraphOfGroups`` checks that every
vertex has a group (``vertices.<id>``) and every edge its generators
(``edges[i]``), one boundary image per edge generator on each side
(``edges[i].alpha`` / ``.alpha_bar``), and that each image uses only its
origin's generators (``edges[i].alpha[j]``).  ``validate`` keeps what
construction cannot fix: a graph with no vertices, or one that is not
connected.  Operations that need a valid graph of groups raise
GogValidationError with that list; the breadth-first search that shows
a graph connected also gives its default spanning tree.

``fundamental_presentation`` realises the group of the whole diagram
relative to a maximal subtree: generators are all vertex generators
(disjointly renamed where names collide) plus one letter per half-edge;
relators are the vertex relators, one e*inv(e) relator per edge pair,
one killing relator per tree pair, and the conjugation relator
e^-1 * alpha_e(g) * e * alpha_inv(e)(g)^-1 for every half-edge e and
edge generator g.  A Tietze-simplified companion, built in the same
loop from the same letters, has no inverse letters (inv(e) = e^-1) and
no tree letters (Lyndon & Schupp, Combinatorial Group Theory, II.2).

Injectivity of the boundary maps is an *assumption*, not checked
(undecidable in general), and the index of edge groups is not checked.

File format: a JSON document with a ``vertices`` object (id ->
{generators, relators}) and an ``edges`` list ({id, from, to,
edge_generators, alpha, alpha_bar}); loops are allowed.  Keys outside
these are ignored.
The reverse half-edge of edge ``id`` is named ``id_bar``.  Schema
violations raise GogFileError with the JSON path of the offending field.
``loads`` checks JSON types and reads each vertex presentation, types
the edges, builds the ``SerreGraph``, parses the boundary words over the
alphabets of their origins and builds the ``GraphOfGroups``.  So when a
document has several faults, the first reported is in this order: the
vertices in document order (JSON types, generator names, relators), the
edges' JSON types in document order, the graph (vertex ids, then edge
ids, repeats and endpoints edge by edge), the boundary words, and last
the image counts.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DomainError
from .words import (
    IDENT_RE,
    Presentation,
    Word,
    WordParseError,
    parse_word,
)

BOUNDARY_INJECTIVITY_ASSUMPTION = (
    "boundary maps are assumed injective; injectivity is not checked"
)


class GogFileError(ValueError):
    """Schema violation in a graph-of-groups document; ``path`` locates
    the offending field (JSON path, or line/column for syntax errors).
    The constructors raise it too, so for a ``SerreGraph`` or
    ``GraphOfGroups`` built directly the path locates the field as the
    document would hold it: ``edges[i]`` is the i-th edge triple."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class GogValidationError(ValueError):
    """Raised when an operation requires a valid graph of groups (one
    with vertices, connected); carries the violation list."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class SerreGraph:
    """Vertices plus oriented half-edges, built from edge triples: the
    edge (e, u, v) gives the half-edge e from u to v and its reverse
    e_bar from v to u.  So ``inv`` is an involution without fixed points
    and every half-edge has an origin, by construction.  ``edges`` keeps
    the edge ids in input order; each is the key of its pair.
    ``vertices`` and ``half_edges`` hold the ids in ascending order."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]):
        # Each check formats its path only on failure (one runs per vertex
        # or edge), so the constructors raise instead of calling _expect.
        known: set[str] = set()
        for v in vertices:
            if not IDENT_RE.fullmatch(v):
                raise GogFileError("vertex id is not an identifier", f"vertices.{v}")
            if v in known:
                raise GogFileError("duplicate vertex id", f"vertices.{v}")
            known.add(v)
        self.vertices = tuple(sorted(known))
        self.edges: list[str] = []
        self.inv: dict[str, str] = {}
        self.origin: dict[str, str] = {}
        for i, (eid, frm, to) in enumerate(edges):
            bar = eid + "_bar"
            if not IDENT_RE.fullmatch(eid):
                raise GogFileError("edge id is not an identifier", f"edges[{i}].id")
            if eid in self.inv or bar in self.inv:
                raise GogFileError("duplicate edge id", f"edges[{i}].id")
            for field_name, v in (("from", frm), ("to", to)):
                if v not in known:
                    raise GogFileError(f"unknown vertex {v!r}", f"edges[{i}].{field_name}")
            self.edges.append(eid)
            self.inv[eid] = bar
            self.inv[bar] = eid
            self.origin[eid] = frm
            self.origin[bar] = to
        self.half_edges = tuple(sorted(self.inv))
        self._incident: dict[str, list[str]] = {}
        for e in self.half_edges:
            self._incident.setdefault(self.origin[e], []).append(e)

    def terminus(self, e: str) -> str:
        return self.origin[self.inv[e]]

    def pair_key(self, e: str) -> str:
        """Canonical representative of the pair {e, inv(e)}."""
        return min(e, self.inv[e])

    def edge_pairs(self) -> tuple[str, ...]:
        # min(e, e + "_bar") == e, so the edge ids are the pair keys.
        return tuple(sorted(self.edges))

    def reach(
        self, root: str, follow: Callable[[str], bool] = lambda e: True
    ) -> dict[str, str | None]:
        """Breadth-first search from ``root`` along the half-edges that
        ``follow`` accepts, explored in ascending id order.  Maps every
        reached vertex to the half-edge it was first reached by (None for
        the root)."""
        parent: dict[str, str | None] = {root: None}
        queue = deque([root])
        while queue:
            for e in self._incident.get(queue.popleft(), ()):
                w = self.terminus(e)
                if w not in parent and follow(e):
                    parent[w] = e
                    queue.append(w)
        return parent

    def is_connected(self) -> bool:
        return _bfs_tree(self) is not None


def _bfs_tree(graph: SerreGraph) -> frozenset[str] | None:
    """The pairs by which a breadth-first search from the smallest vertex
    id first reaches each vertex, exploring half-edges in ascending id
    order; None unless the graph has vertices and is connected."""
    if not graph.vertices:
        return None
    parent = graph.reach(graph.vertices[0])
    if len(parent) != len(graph.vertices):
        return None
    return frozenset(graph.pair_key(e) for e in parent.values() if e is not None)


def spanning_tree(graph: SerreGraph) -> frozenset[str]:
    """Deterministic maximal subtree, as a set of edge-pair keys:
    breadth-first from the smallest vertex id, exploring half-edges in
    ascending id order."""
    tree = _bfs_tree(graph)
    if tree is None:
        raise DomainError("graph is not connected")
    return tree


class GraphOfGroups:
    """A Serre graph with vertex presentations, edge generator lists
    (shared by the two half-edges of a pair, keyed by edge id) and
    boundary words (keyed by half-edge).  Only the entries of the
    graph's own vertices and edges are kept; a missing boundary entry
    counts as no images."""

    def __init__(
        self,
        graph: SerreGraph,
        vertex_groups: Mapping[str, Presentation],
        edge_generators: Mapping[str, tuple[str, ...]],
        boundary: Mapping[str, tuple[Word, ...]],
    ):
        for v in graph.vertices:
            if v not in vertex_groups:
                raise GogFileError("vertex has no group", f"vertices.{v}")
        self.graph = graph
        self.vertex_groups = {v: vertex_groups[v] for v in graph.vertices}
        self.edge_generators: dict[str, tuple[str, ...]] = {}
        self.boundary: dict[str, tuple[Word, ...]] = {}
        for i, eid in enumerate(graph.edges):
            if eid not in edge_generators:
                raise GogFileError("missing 'edge_generators'", f"edges[{i}]")
            gens = self.edge_generators[eid] = tuple(edge_generators[eid])
            for e, side in ((eid, "alpha"), (graph.inv[eid], "alpha_bar")):
                words = self.boundary[e] = tuple(boundary.get(e, ()))
                if len(words) != len(gens):
                    message = f"'{side}' must list one image per edge generator"
                    raise GogFileError(message, f"edges[{i}].{side}")
                n = len(self.vertex_groups[graph.origin[e]].generators)
                for j, w in enumerate(words):
                    for gen, _ in w.letters:
                        if not 0 <= gen < n:
                            message = "image uses a generator outside the origin vertex group"
                            raise GogFileError(message, f"edges[{i}].{side}[{j}]")


def validate(gog: GraphOfGroups) -> list[str]:
    """What construction cannot fix: the violations that keep ``gog``
    from presenting a fundamental group (empty iff it has vertices and
    is connected).  Injectivity of the boundary maps is assumed, never
    checked."""
    if not gog.graph.vertices:
        return ["graph has no vertices"]
    return [] if gog.graph.is_connected() else ["graph is not connected"]


def _require_valid(gog: GraphOfGroups) -> frozenset[str]:
    """The default spanning tree of gog, from the one search that shows
    gog valid; GogValidationError with the violations otherwise."""
    tree = _bfs_tree(gog.graph)
    if tree is None:
        raise GogValidationError(validate(gog))
    return tree


def _check_tree(gog: GraphOfGroups, tree: frozenset[str]) -> frozenset[str]:
    g = gog.graph
    pairs = set(g.edge_pairs())
    if not tree <= pairs:
        raise DomainError("tree contains unknown edge pairs")
    if len(tree) != len(g.vertices) - 1:
        raise DomainError("tree does not have |vertices| - 1 edge pairs")
    # Connected with |V| - 1 pairs is a spanning tree.
    if len(g.reach(g.vertices[0], lambda e: g.pair_key(e) in tree)) != len(g.vertices):
        raise DomainError("tree does not span the graph")
    return frozenset(tree)


def _assign_names(gog: GraphOfGroups) -> dict[str, tuple[str, ...]]:
    """Final generator names per vertex: original names kept when they
    are globally unambiguous, otherwise qualified with the vertex id."""
    g = gog.graph
    usage: dict[str, int] = {}
    for e in g.half_edges:
        usage[e] = usage.get(e, 0) + 1
    for v in g.vertices:
        for name in gog.vertex_groups[v].generators:
            usage[name] = usage.get(name, 0) + 1
    assigned = set(g.half_edges)
    names: dict[str, tuple[str, ...]] = {}
    for v in g.vertices:
        final = []
        for name in gog.vertex_groups[v].generators:
            candidate = name if usage[name] == 1 else f"{v}_{name}"
            suffix = 2
            while candidate in assigned:
                candidate = f"{v}_{name}_{suffix}"
                suffix += 1
            assigned.add(candidate)
            final.append(candidate)
        names[v] = tuple(final)
    return names


def _remap(w: Word, index_of_local: list[int]) -> Word:
    # An injective renumbering keeps a word reduced.
    return Word._make(tuple((index_of_local[gen], exp) for gen, exp in w.letters))


def _conjugated(letter: int, sign: int, word: tuple) -> tuple:
    """The letters of x^-sign w x^sign, for the generator x of index
    letter, on the letters of a reduced word w that does not use x: so
    the result is reduced, and empty when w is."""
    return ((letter, -sign),) + word + ((letter, sign),) if word else ()


def _least_rotation(s: list) -> tuple:
    """The lexicographically least rotation of s, in O(len(s)) comparisons.

    Two candidate starts i < j are compared over a matched length k.  At
    a mismatch the start with the larger letter loses, and so do the k
    starts after it, each beaten by the start at the same offset from the
    winner; so the losing start moves on by k + 1.  When j passes the end,
    or k covers all of s (s is periodic), i is a least start.
    """
    n = len(s)
    d = s + s
    i, j, k = 0, 1, 0
    while j < n and k < n:
        if d[i + k] == d[j + k]:
            k += 1
            continue
        if d[i + k] > d[j + k]:
            i, j = j, max(i + k, j) + 1
        else:
            j += k + 1
        k = 0
    return tuple(d[i : i + n])


def _cyclic_key(w: Word) -> tuple:
    """Equal for two words exactly when their letter sequences are equal
    up to rotation and inversion.

    The cyclic letter sequence is taken as its runs of one letter: the
    syllables, with the first and last merged when they carry the same
    generator and sign.  The key is the least rotation of that run
    sequence or of its inverse, so no exponent is expanded into letters.
    """
    runs = list(w.letters)
    if len(runs) > 1 and runs[0][0] == runs[-1][0] and (runs[0][1] > 0) == (runs[-1][1] > 0):
        gen, exp = runs.pop()
        runs[0] = (gen, runs[0][1] + exp)
    if not runs:
        return ()
    inverse = [(g, -e) for g, e in reversed(runs)]
    return min(_least_rotation(runs), _least_rotation(inverse))


@dataclass(frozen=True)
class PiOnePresentation:
    """Raw and Tietze-simplified presentations of the fundamental group
    relative to a maximal subtree, plus the renaming data needed to map
    vertex generators into either presentation."""

    raw: Presentation
    simplified: Presentation
    tree: frozenset[str]
    vertex_gen_names: Mapping[str, tuple[str, ...]]


def fundamental_presentation(
    gog: GraphOfGroups, tree: frozenset[str] | None = None
) -> PiOnePresentation:
    """Present the fundamental group of the graph of groups.

    The raw presentation follows the defining formula letter by letter.
    The simplified one is built in the same loop: it holds what the raw
    relators become when inv(e) = e^-1 and every tree letter is 1.  The
    vertex relators stay, the pair and tree relators vanish, and a
    conjugation relator loses its tree letter or keeps its pair's letter
    to the power +-1.  Empty relators and repeats up to rotation and
    inversion are dropped.
    """
    default_tree = _require_valid(gog)
    g = gog.graph
    tree = default_tree if tree is None else _check_tree(gog, tree)
    names = _assign_names(gog)

    raw_gens: list[str] = []
    local_index: dict[str, list[int]] = {}
    for v in g.vertices:
        local_index[v] = list(range(len(raw_gens), len(raw_gens) + len(names[v])))
        raw_gens += names[v]
    # Vertex generators come first in both presentations; then one letter
    # per half-edge in the raw one, one per pair off the tree in the other.
    pairs = g.edge_pairs()
    off_tree = [pair for pair in pairs if pair not in tree]
    kept = {pair: len(raw_gens) + i for i, pair in enumerate(off_tree)}
    simp_gens = raw_gens + off_tree
    edge_index = {e: len(raw_gens) + i for i, e in enumerate(g.half_edges)}
    raw_gens += g.half_edges

    relators = [
        _remap(rel, local_index[v]) for v in g.vertices for rel in gog.vertex_groups[v].relators
    ]
    simp_relators = relators[:]
    relators += [Word._make(((edge_index[p], 1), (edge_index[g.inv[p]], 1))) for p in pairs]
    relators += [Word._make(((edge_index[p], 1),)) for p in pairs if p in tree]
    for e in g.half_edges:
        bar, key = g.inv[e], g.pair_key(e)
        here, there = local_index[g.origin[e]], local_index[g.origin[bar]]
        for w, w_bar in zip(gog.boundary[e], gog.boundary[bar]):
            alpha = _remap(w, here).letters
            alpha_bar_inv = (~_remap(w_bar, there)).letters
            relators.append(Word._make(_conjugated(edge_index[e], 1, alpha) + alpha_bar_inv))
            if key in tree:
                # A tree edge is no loop: alpha and alpha_bar use the
                # generators of two vertices, so nothing cancels.
                simp_relators.append(Word._make(alpha + alpha_bar_inv))
            else:
                sign = 1 if key == e else -1
                letters = _conjugated(kept[key], sign, alpha) + alpha_bar_inv
                simp_relators.append(Word._make(letters))
    raw = Presentation(tuple(raw_gens), tuple(relators))
    unique: dict[tuple, Word] = {}
    for rel in simp_relators:
        unique.setdefault(_cyclic_key(rel), rel)
    unique.pop((), None)  # the key of the empty word
    simplified = Presentation(tuple(simp_gens), tuple(unique.values()))

    return PiOnePresentation(
        raw=raw,
        simplified=simplified,
        tree=tree,
        vertex_gen_names=names,
    )


@dataclass(frozen=True)
class CollapsedSplitting:
    """Result of collapsing every edge but one: a one-edge graph of
    groups, an amalgam when the kept edge joins two collapsed components
    and an HNN extension when it joins one component to itself."""

    kind: str  # "amalgam" or "hnn"
    gog: GraphOfGroups


def collapse_all_but_one(gog: GraphOfGroups, keep: str) -> CollapsedSplitting:
    """Collapse each connected component of the graph minus the kept edge
    pair to a single vertex carrying the component's fundamental group,
    keeping the edge pair and rewriting its boundary words."""
    _require_valid(gog)
    g = gog.graph
    if keep in g.inv:
        keep = g.pair_key(keep)
    if keep not in g.edge_pairs():
        raise DomainError(f"{keep!r} is not an edge pair of the graph")
    keep_bar = g.inv[keep]

    def side(v: str) -> dict[str, str | None]:
        return g.reach(v, lambda e: g.pair_key(e) != keep)

    # The split is an HNN extension exactly when the search from one end
    # of the kept pair reaches the other end.
    side_a = side(g.origin[keep])
    side_b = side_a if g.origin[keep_bar] in side_a else side(g.origin[keep_bar])
    root_a, root_b = min(side_a), min(side_b)
    kind = "amalgam" if root_a != root_b else "hnn"

    presentations: dict[str, Presentation] = {}
    gen_names: dict[str, Mapping[str, tuple[str, ...]]] = {}
    for root, members in sorted({root_a: side_a, root_b: side_b}.items()):
        pairs = [p for p in g.edge_pairs() if p != keep and g.origin[p] in members]
        sub = GraphOfGroups(
            SerreGraph(members, [(p, g.origin[p], g.terminus(p)) for p in pairs]),
            gog.vertex_groups,
            gog.edge_generators,
            gog.boundary,
        )
        pi1 = fundamental_presentation(sub)
        presentations[root] = pi1.simplified
        gen_names[root] = pi1.vertex_gen_names

    def rewrite(e: str, root: str) -> tuple[Word, ...]:
        pres = presentations[root]
        names = gen_names[root][g.origin[e]]
        position = {name: i for i, name in enumerate(pres.generators)}
        local_to_new = [position[name] for name in names]
        return tuple(_remap(w, local_to_new) for w in gog.boundary[e])

    new_gog = GraphOfGroups(
        SerreGraph(sorted({root_a, root_b}), [(keep, root_a, root_b)]),
        presentations,
        gog.edge_generators,
        {keep: rewrite(keep, root_a), keep_bar: rewrite(keep_bar, root_b)},
    )
    return CollapsedSplitting(kind=kind, gog=new_gog)


# ---------------------------------------------------------------------------
# File format


def _expect(condition: bool, message: str, path: str) -> None:
    if not condition:
        raise GogFileError(message, path)


def _strings(body: dict, key: str, path: str) -> list:
    """body[key], default [], which must be a list of strings."""
    value = body.get(key, [])
    _expect(
        isinstance(value, list) and all(isinstance(s, str) for s in value),
        f"'{key}' must be a list of strings",
        f"{path}.{key}",
    )
    return value


def _words(texts: list, alphabet: Sequence[str], path: str) -> list[Word]:
    """The texts parsed over alphabet; a syntax error names path[i]."""
    words = []
    for i, text in enumerate(texts):
        try:
            words.append(parse_word(text, alphabet))
        except WordParseError as err:
            raise GogFileError(str(err), f"{path}[{i}]") from None
    return words


def loads(text: str) -> GraphOfGroups:
    """Parse a graph-of-groups JSON document; of several faults, the one
    first in the order of the module docstring is reported."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise GogFileError(
            f"invalid JSON: {err.msg}", f"line {err.lineno}, column {err.colno}"
        ) from None
    _expect(isinstance(doc, dict), "document must be an object", "$")
    _expect("vertices" in doc, "missing 'vertices'", "$")
    _expect("edges" in doc, "missing 'edges'", "$")
    _expect(isinstance(doc["vertices"], dict), "'vertices' must be an object", "vertices")
    _expect(isinstance(doc["edges"], list), "'edges' must be a list", "edges")

    vertex_groups: dict[str, Presentation] = {}
    for vid, body in doc["vertices"].items():
        path = f"vertices.{vid}"
        _expect(isinstance(body, dict), "vertex body must be an object", path)
        gens = _strings(body, "generators", path)
        rels = _strings(body, "relators", path)
        # Names are checked first: the parser tokenises identifiers only.
        try:
            Presentation(tuple(gens), ())
        except ValueError as err:
            raise GogFileError(str(err), f"{path}.generators") from None
        relators = _words(rels, gens, f"{path}.relators")
        vertex_groups[vid] = Presentation(tuple(gens), tuple(relators))
    edge_texts: list[tuple[list, list, list]] = []
    for idx, entry in enumerate(doc["edges"]):
        path = f"edges[{idx}]"
        _expect(isinstance(entry, dict), "edge entry must be an object", path)
        for field_name in ("id", "from", "to"):
            _expect(field_name in entry, f"missing '{field_name}'", path)
            _expect(
                isinstance(entry[field_name], str),
                f"'{field_name}' must be a string",
                f"{path}.{field_name}",
            )
        edge_texts.append(
            tuple(_strings(entry, key, path) for key in ("edge_generators", "alpha", "alpha_bar"))
        )

    graph = SerreGraph(doc["vertices"], [(e["id"], e["from"], e["to"]) for e in doc["edges"]])

    edge_generators: dict[str, list[str]] = {}
    boundary: dict[str, list[Word]] = {}
    for idx, (eid, (gens, alpha, alpha_bar)) in enumerate(zip(graph.edges, edge_texts)):
        edge_generators[eid] = gens
        for e, texts, side in ((eid, alpha, "alpha"), (graph.inv[eid], alpha_bar, "alpha_bar")):
            alphabet = vertex_groups[graph.origin[e]].generators
            boundary[e] = _words(texts, alphabet, f"edges[{idx}].{side}")
    return GraphOfGroups(graph, vertex_groups, edge_generators, boundary)


def load(path: str) -> GraphOfGroups:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
