"""Finite presentations of countable directed graphs and their classification.

A graph is given by finite vertex/edge lists plus ``omega`` pairs, each pair
(src, dst) standing for countably many parallel edges src -> dst.  The k-th
parallel edge of a pair is addressable on demand under the id ``src~dst^k``.
Vertices and edges iterate in input order; every operation here is a pure
function of immutable values.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Union

from .errors import (
    EmptyGraph,
    FormatError,
    FrontierPresent,
    NotCycleBase,
    OmegaUnsupported,
    UnknownVertex,
)


def omega_edge_id(src: str, dst: str, k: int) -> str:
    """Id of the k-th (k >= 1) parallel edge of the omega pair (src, dst)."""
    return f"{src}~{dst}^{k}"


def omega_exit_marker(src: str, dst: str) -> str:
    """Marker standing in for the countably many exits an omega pair provides."""
    return f"ω({src}->{dst})"


class Edge(NamedTuple):
    id: str
    src: str
    dst: str


class Path(NamedTuple):
    """A finite path: a source vertex plus a composable edge-id sequence.

    Length-0 paths carry only their vertex.  Paths are named tuples, so they
    compare and hash by value (and equal the plain tuple of their fields) and
    ``len`` of a path is 2: its edge count is ``length``.  The edge sequence
    determines the path whenever it is nonempty.
    """

    source: str
    edges: tuple[str, ...] = ()

    @property
    def length(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        if not self.edges:
            return f"<{self.source}>"
        return "<" + "·".join(self.edges) + ">"


class Graph:
    """Immutable directed multigraph with optional omega (countable) edge families.

    Graphs compare and hash by their four fields, which cannot be reassigned:
    the derived tables below are computed from them once and cached on the
    instance.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    omega_pairs: tuple[tuple[str, str], ...]
    frontier: frozenset[str]

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable = (),
        omega_pairs: Iterable = (),
        frontier: Iterable[str] = frozenset(),
    ):
        fields = self.__dict__
        fields["vertices"] = tuple(vertices)
        fields["edges"] = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        fields["omega_pairs"] = tuple(dict.fromkeys((pair[0], pair[1]) for pair in omega_pairs))
        fields["frontier"] = frozenset(frontier)
        self._validate()

    def _key(self) -> tuple:
        return self.vertices, self.edges, self.omega_pairs, self.frontier

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(vertices={self.vertices!r}, edges={self.edges!r}, "
            f"omega_pairs={self.omega_pairs!r}, frontier={self.frontier!r})"
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _validate(self) -> None:
        vset = set()
        for v in self.vertices:
            if v in vset:
                raise ValueError(f"duplicate vertex id {v!r}")
            vset.add(v)
        eset = set()
        for e in self.edges:
            if e.id in eset:
                raise ValueError(f"duplicate edge id {e.id!r}")
            eset.add(e.id)
            if e.src not in vset or e.dst not in vset:
                raise ValueError(f"edge {e.id!r} has an endpoint outside the vertex list")
        prefixes: dict[str, tuple[str, str]] = {}
        for src, dst in self.omega_pairs:
            if src not in vset or dst not in vset:
                raise ValueError(f"omega pair ({src!r}, {dst!r}) has an endpoint outside the vertex list")
            prefix = f"{src}~{dst}^"
            if prefix in prefixes:
                raise ValueError(
                    f"omega pairs {prefixes[prefix]!r} and {(src, dst)!r} both generate the edge ids {prefix}k"
                )
            prefixes[prefix] = (src, dst)
        self.__dict__["_omega_by_prefix"] = prefixes
        for e in self.edges:
            if self._parse_omega_id(e.id) is not None:
                raise ValueError(f"edge id {e.id!r} collides with a generated omega edge id")
        if not self.frontier <= vset:
            raise ValueError("frontier vertices must be listed vertices")

    # -- derived lookup tables ------------------------------------------------

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def out_edges(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.src].append(e)
        return {v: tuple(es) for v, es in out.items()}

    @cached_property
    def in_edges(self) -> dict[str, tuple[Edge, ...]]:
        inc: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            inc[e.dst].append(e)
        return {v: tuple(es) for v, es in inc.items()}

    @cached_property
    def omega_by_src(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {v: [] for v in self.vertices}
        for src, dst in self.omega_pairs:
            out[src].append(dst)
        return {v: tuple(ds) for v, ds in out.items()}

    @cached_property
    def omega_by_dst(self) -> dict[str, tuple[str, ...]]:
        inc: dict[str, list[str]] = {v: [] for v in self.vertices}
        for src, dst in self.omega_pairs:
            inc[dst].append(src)
        return {v: tuple(ss) for v, ss in inc.items()}

    @cached_property
    def designated_ids(self) -> frozenset[str]:
        """Lexicographically least outgoing edge id of each regular vertex."""
        return frozenset(
            min(e.id for e in self.out_edges[v]) for v in self.vertices if self.is_regular(v)
        )

    @cached_property
    def _alphabets(self) -> dict[int, dict[str, tuple[tuple[str, str], ...]]]:
        return {}

    def out_alphabet(self, omega_copies: int = 1) -> dict[str, tuple[tuple[str, str], ...]]:
        """Outgoing (edge id, range) pairs of each vertex, sorted by edge id.

        Each omega pair contributes its first ``omega_copies`` generated edges.
        """
        table = self._alphabets.get(omega_copies)
        if table is None:
            out: dict[str, list[tuple[str, str]]] = {v: [] for v in self.vertices}
            for e in self.edges:
                out[e.src].append((e.id, e.dst))
            for src, dst in self.omega_pairs:
                for k in range(1, omega_copies + 1):
                    out[src].append((omega_edge_id(src, dst, k), dst))
            table = {v: tuple(sorted(es)) for v, es in out.items()}
            self._alphabets[omega_copies] = table
        return table

    @cached_property
    def analysis(self) -> GraphAnalysis:
        """Strongly connected components and the facts read off them, computed once."""
        return GraphAnalysis(self)

    # -- vertex kinds ----------------------------------------------------------

    def is_infinite_emitter(self, v: str) -> bool:
        return bool(self.omega_by_src.get(v, ()))

    def is_sink(self, v: str) -> bool:
        return not self.out_edges.get(v, ()) and not self.is_infinite_emitter(v)

    def is_regular(self, v: str) -> bool:
        return bool(self.out_edges.get(v, ())) and not self.is_infinite_emitter(v)

    def is_source(self, v: str) -> bool:
        return not self.in_edges.get(v, ()) and not self.omega_by_dst.get(v, ())

    @property
    def is_row_finite(self) -> bool:
        return not self.omega_pairs

    def require_vertex(self, v: str) -> None:
        if v not in self.out_edges:
            raise UnknownVertex(f"vertex {v!r} is not in the graph")

    # -- edge resolution (explicit ids and generated omega ids) ----------------

    def _parse_omega_id(self, edge_id: str) -> Optional[tuple[str, str, int]]:
        # a generated id is its pair's prefix ``src~dst^`` followed by k, so
        # the prefix ends at the id's last ``^``
        head, caret, tail = edge_id.rpartition("^")
        pair = self._omega_by_prefix.get(head + caret)
        if pair is not None and tail.isascii() and tail.isdigit() and not tail.startswith("0"):
            return pair[0], pair[1], int(tail)
        return None

    def edge_endpoints(self, edge_id: str) -> tuple[str, str]:
        """(source, range) of an explicit or generated omega edge id."""
        e = self.edge_by_id.get(edge_id)
        if e is not None:
            return e.src, e.dst
        parsed = self._parse_omega_id(edge_id)
        if parsed is not None:
            return parsed[0], parsed[1]
        raise ValueError(f"unknown edge id {edge_id!r}")

    # -- paths ------------------------------------------------------------------

    def path(self, source: str, edges: Iterable[str] = ()) -> Path:
        """Validated path constructor; raises ValueError on a non-composable sequence."""
        self.require_vertex(source)
        at = source
        edges = tuple(edges)
        by_id = self.edge_by_id
        for eid in edges:
            try:
                e = by_id[eid]
            except (KeyError, TypeError):  # a generated omega id, or no edge id at all
                if not isinstance(eid, str):
                    raise ValueError(f"edge id {eid!r} must be a string") from None
                e = Edge(eid, *self.edge_endpoints(eid))
            if e.src != at:
                raise ValueError(f"edge {eid!r} does not depart {at!r}")
            at = e.dst
        return Path(source, edges)

    def range_of(self, p: Path) -> str:
        if not p.edges:
            return p.source
        return self.edge_endpoints(p.edges[-1])[1]

    def concat(self, p: Path, q: Path) -> Optional[Path]:
        """Concatenation p·q, or None when ranges and sources do not match."""
        if self.range_of(p) != q.source:
            return None
        return Path(p.source, p.edges + q.edges)

    def path_ge(self, p: Path, q: Path) -> bool:
        """Path order: p >= q iff q = p·t for some path t."""
        return (
            q.source == p.source
            and len(q.edges) >= len(p.edges)
            and q.edges[: len(p.edges)] == p.edges
        )

    def path_power(self, p: Path, k: int) -> Path:
        if k < 0:
            raise ValueError("path powers need k >= 0")
        if k > 0 and self.range_of(p) != p.source:
            raise ValueError("only closed paths can be iterated")
        return Path(p.source, p.edges * k)


# ---------------------------------------------------------------------------
# path enumeration
# ---------------------------------------------------------------------------


def path_levels(g: Graph, n: int) -> list[list[Path]]:
    """The paths of each length 0..n (none for n < 0), in one walk.

    Level 0 is the vertices in input order.  Level 1 is the edges sorted by
    id, and each later level extends the one before it edge by edge in id
    order, so it stays lexicographic by edge ids.  Graphs with omega pairs
    only admit n <= 0, since longer enumerations would be infinite.
    """
    levels = [[Path(v) for v in g.vertices]][: n + 1]
    if n < 1:
        return levels
    if g.omega_pairs:
        raise OmegaUnsupported("path enumeration of positive length needs a row-finite finite graph")
    alphabet = g.out_alphabet()
    first = sorted(g.edges, key=lambda e: e.id)
    level = [Path(e.src, (e.id,)) for e in first]
    ends = [e.dst for e in first]
    levels.append(level)
    for _ in range(n - 1):
        nxt, nxt_ends = [], []
        for p, at in zip(level, ends):
            for eid, dst in alphabet[at]:
                nxt.append(Path(p.source, p.edges + (eid,)))
                nxt_ends.append(dst)
        level, ends = nxt, nxt_ends
        levels.append(level)
    return levels


def path_counts(g: Graph) -> dict[str, int]:
    """The number of paths ending at each vertex of an acyclic graph, its
    length-0 path included: count[v] = 1 + the sum of count[src e] over the
    edges e into v.  One pass in topological order, O(V + E), building no
    path; on a graph with cycles the counts behind a cycle are incomplete."""
    waiting = {v: len(g.in_edges[v]) for v in g.vertices}
    count = dict.fromkeys(g.vertices, 1)
    ready = [v for v in g.vertices if not waiting[v]]
    for v in ready:
        for e in g.out_edges[v]:
            count[e.dst] += count[v]
            waiting[e.dst] -= 1
            if not waiting[e.dst]:
                ready.append(e.dst)
    return count


def enumerate_paths(g: Graph, n: int, end: Optional[str] = None) -> list[Path]:
    """All paths of length n (optionally with range ``end``): level n of ``path_levels``."""
    if n < 0:
        raise ValueError("path length must be >= 0")
    if end is not None:
        g.require_vertex(end)
    paths = path_levels(g, n)[n]
    return paths if end is None else [p for p in paths if g.range_of(p) == end]


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def find_cycles(g: Graph) -> list[tuple[Path, tuple[str, ...]]]:
    """All cycles up to rotation, each with its complete exit list.

    Cycles are returned in canonical rotation (lexicographically least edge
    sequence) and sorted by that sequence.  When the graph has omega pairs,
    one representative per parallel family (the ^1 edge) is enumerated and
    omega exits appear as ``ω(src->dst)`` markers.  The enumeration is
    exhaustive, with an explicit stack; the classifier and the SPI search
    read ``Graph.analysis`` instead.
    """
    alphabet = g.out_alphabet()
    found: list[tuple[str, ...]] = []
    # A cycle visits distinct sources, so its edges are distinct and its
    # canonical rotation starts with its least edge.  Each cycle is found
    # once, from the source of that edge, by walks that use no smaller edge.
    for start in g.vertices:
        for first, at in alphabet[start]:
            if at == start:
                found.append((first,))
                continue
            edges, reached, on_walk = [first], [at], {start, at}
            frames = [iter(alphabet[at])]
            while frames:
                step = next(frames[-1], None)
                if step is None:
                    frames.pop()
                    edges.pop()
                    on_walk.remove(reached.pop())
                    continue
                eid, dst = step
                if eid < first:
                    continue
                if dst == start:
                    found.append(tuple(edges) + (eid,))
                elif dst not in on_walk:
                    edges.append(eid)
                    reached.append(dst)
                    on_walk.add(dst)
                    frames.append(iter(alphabet[dst]))

    result = []
    for edges in sorted(found):
        source = g.edge_endpoints(edges[0])[0]
        cycle = Path(source, edges)
        exits: list[str] = []
        for eid in edges:
            u = g.edge_endpoints(eid)[0]
            for e in sorted(g.out_edges[u], key=lambda e: e.id):
                if e.id != eid:
                    exits.append(e.id)
            for dst in sorted(g.omega_by_src[u]):
                exits.append(omega_exit_marker(u, dst))
        result.append((cycle, tuple(exits)))
    return result


def least_cycle_at(g: Graph, v: str) -> Path:
    """The lexicographically least cycle through v, rotated to start at v."""
    cycle = g.analysis.least_cycle_at(v)
    if cycle is None:
        raise NotCycleBase(f"vertex {v!r} is not the base of a cycle")
    return cycle


# ---------------------------------------------------------------------------
# hereditary saturated closure and the classifier
# ---------------------------------------------------------------------------


def hereditary_saturated_closure(g: Graph, seed: Iterable[str]) -> frozenset[str]:
    """Smallest hereditary and saturated vertex set containing the seed.

    Hereditary: ranges of outgoing edges (omega pairs included) stay inside.
    Saturated: a regular vertex all of whose edge ranges lie inside is pulled in.
    One worklist pass, O(V + E): each vertex entering the closure pushes its
    ranges and counts down, for each regular vertex with an edge into it, the
    edges of that vertex whose range is still outside.
    """
    closure: set[str] = set()
    todo: list[str] = []

    def enter(v: str) -> None:
        if v not in closure:
            closure.add(v)
            todo.append(v)

    for v in seed:
        g.require_vertex(v)
        enter(v)
    outside: dict[str, int] = {}
    while todo:
        w = todo.pop()
        for e in g.out_edges[w]:
            enter(e.dst)
        for dst in g.omega_by_src[w]:
            enter(dst)
        for e in g.in_edges[w]:
            u = e.src
            if u not in closure and g.is_regular(u):
                outside[u] = outside.get(u, len(g.out_edges[u])) - 1
                if outside[u] == 0:
                    enter(u)
    return frozenset(closure)


def reachable_from(g: Graph, starts: Iterable[str]) -> frozenset[str]:
    """Vertices reachable from any of ``starts`` by paths (omega pairs traversed)."""
    seen = set(starts)
    for v in seen:
        g.require_vertex(v)
    stack = list(seen)
    while stack:
        v = stack.pop()
        for e in g.out_edges[v]:
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
        for dst in g.omega_by_src[v]:
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return frozenset(seen)


class Verdict(Enum):
    NOT_SIMPLE = "NotSimple"
    SIMPLE_ACYCLIC = "SimpleAcyclic"
    SIMPLE_PURELY_INFINITE = "SimplePurelyInfinite"


class Classification(NamedTuple):
    verdict: Verdict
    witness: Union[Path, frozenset[str], str]


def _strong_components(vertices: tuple[str, ...], alphabet) -> dict[str, int]:
    """Component index of each vertex, by Tarjan's algorithm with an explicit stack."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    component: dict[str, int] = {}
    stack: list[str] = []
    count = 0
    for root in vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(alphabet[root]))]
        while work:
            v, out = work[-1]
            for _, w in out:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(alphabet[w])))
                    break
                if w not in component:  # still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        component[w] = count
                        if w == v:
                            break
                    count += 1
    return component


class GraphAnalysis:
    """Facts read off the strongly connected components (SCCs) of one graph.

    Edges are taken from the one-copy alphabet, so each omega pair is the
    single edge ``src~dst^1``.  An edge lies on a cycle exactly when both its
    endpoints share a component.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self.alphabet = g.out_alphabet()
        self.component = _strong_components(g.vertices, self.alphabet)
        comp = self.component
        # (edge id, source, range) of every edge lying on a cycle, least id first
        self.cycle_edges = sorted(
            (eid, v, dst) for v in g.vertices for eid, dst in self.alphabet[v] if comp[dst] == comp[v]
        )
        self.cycle_bases = frozenset(v for _, v, _ in self.cycle_edges)
        self._least: dict[str, Path] = {}

    @cached_property
    def _inner_preds(self) -> dict[str, list[str]]:
        """Sources of the cycle edges into each vertex."""
        preds: dict[str, list[str]] = {v: [] for v in self.graph.vertices}
        for _, src, dst in self.cycle_edges:
            preds[dst].append(src)
        return preds

    def least_cycle_at(self, v: str) -> Optional[Path]:
        """The lexicographically least cycle through v, rotated to start at v,
        or None when v lies on no cycle."""
        if v not in self.cycle_bases:
            return None
        if v not in self._least:
            self._least[v] = self._greedy_cycle(v)
        return self._least[v]

    def _greedy_cycle(self, v: str) -> Path:
        """No cycle through v is a proper prefix of another, so the least one is
        built greedily: at each step take the least edge whose range is v or
        can still reach v without revisiting a vertex.  The backward search
        for the vertices that can runs only where more than one edge remains.
        """
        comp, c = self.component, self.component[v]
        visited = {v}
        at = v
        edges: list[str] = []
        while True:
            options = [
                (eid, dst)
                for eid, dst in self.alphabet[at]
                if comp[dst] == c and (dst == v or dst not in visited)
            ]
            if len(options) > 1:
                reach = self._reaching(v, visited)
                options = [(eid, dst) for eid, dst in options if dst == v or dst in reach]
            eid, at = options[0]
            edges.append(eid)
            if at == v:
                break
            visited.add(at)
        return Path(v, tuple(edges))

    def _reaching(self, v: str, visited: set[str]) -> set[str]:
        """Vertices outside ``visited`` with a path to v through vertices outside it."""
        preds = self._inner_preds
        reach: set[str] = set()
        todo = [v]
        while todo:
            for u in preds[todo.pop()]:
                if u not in reach and u not in visited:
                    reach.add(u)
                    todo.append(u)
        return reach

    @cached_property
    def classification(self) -> Classification:
        """The trichotomy, with frontier vertices never used as closure seeds."""
        g, comp = self.graph, self.component
        # Condition (L) fails exactly on an SCC that is one cycle without exit:
        # a cyclic SCC whose every vertex emits one edge and no omega pair.
        with_exit = {
            comp[v] for v in g.vertices if len(g.out_edges[v]) != 1 or g.omega_by_src[v]
        }
        for _, v, _ in self.cycle_edges:
            if comp[v] not in with_exit:
                return Classification(Verdict.NOT_SIMPLE, self.least_cycle_at(v))

        # Vertices of one SCC have the same closure, so each SCC seeds at most once.
        full = frozenset(g.vertices)
        seeded: set[int] = set()
        for v in g.vertices:
            if v in g.frontier or comp[v] in seeded:
                continue
            seeded.add(comp[v])
            closure = hereditary_saturated_closure(g, [v])
            if closure != full:
                return Classification(Verdict.NOT_SIMPLE, closure)

        if self.cycle_edges:
            return Classification(
                Verdict.SIMPLE_PURELY_INFINITE, self.least_cycle_at(self.cycle_edges[0][1])
            )
        return Classification(Verdict.SIMPLE_ACYCLIC, "acyclic")


def classify_graph(g: Graph, frontier: str = "refuse") -> Classification:
    """Decide the NotSimple / SimpleAcyclic / SimplePurelyInfinite trichotomy.

    Simplicity is decided as: every cycle has an exit (condition (L)), and the
    only hereditary saturated vertex sets are the empty and the full one
    (checked from every singleton seed, one closure per SCC).  The witness is
    the least cycle without exit or the closure of the first vertex whose
    closure is proper for NotSimple, the least cycle in canonical rotation for
    SimplePurelyInfinite, and the token "acyclic" otherwise.  The result is
    cached on the graph (``Graph.analysis``).

    ``frontier`` controls graphs carrying desingularization truncation markers:
    "refuse" raises, "sink" classifies with frontier vertices understood as
    truncation stubs (they are kept in the graph but not used as closure seeds,
    since in the untruncated graph their tails continue).
    """
    if not g.vertices:
        raise EmptyGraph("cannot classify the empty graph")
    if g.frontier:
        if frontier == "refuse":
            raise FrontierPresent(
                "graph has truncation-frontier vertices; classify with frontier='sink' to treat them as stubs"
            )
        if frontier != "sink":
            raise ValueError("frontier must be 'refuse' or 'sink'")
    return g.analysis.classification


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def graph_to_json_obj(g: Graph) -> dict:
    vertices: list = []
    for v in g.vertices:
        if v in g.frontier:
            vertices.append({"id": v, "frontier": True})
        else:
            vertices.append(v)
    obj: dict = {
        "vertices": vertices,
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in g.edges],
    }
    if g.omega_pairs:
        obj["omega"] = [{"src": s, "dst": d} for s, d in g.omega_pairs]
    return obj


def canonical_json(obj) -> str:
    """The one JSON encoding of every output: no spaces, non-ASCII kept as is."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def graph_to_json(g: Graph) -> str:
    return canonical_json(graph_to_json_obj(g))


_JSON_TYPES = {str: "a string", list: "a list", bool: "a boolean"}


def _json_typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise FormatError(f"{what} must be {_JSON_TYPES[kind]}, not {value!r}")
    return value


def graph_from_json_obj(obj) -> Graph:
    if not isinstance(obj, dict):
        raise FormatError("graph JSON must be an object")
    try:
        vertices = []
        frontier = []
        for entry in _json_typed(obj["vertices"], list, "graph vertices"):
            if isinstance(entry, str):
                vertices.append(entry)
            else:
                vertices.append(_json_typed(entry["id"], str, "vertex id"))
                if _json_typed(entry.get("frontier", False), bool, "vertex frontier"):
                    frontier.append(entry["id"])
        edges = [
            Edge(
                _json_typed(e["id"], str, "edge id"),
                _json_typed(e["src"], str, "edge src"),
                _json_typed(e["dst"], str, "edge dst"),
            )
            for e in _json_typed(obj.get("edges", []), list, "graph edges")
        ]
        omega = [
            (_json_typed(o["src"], str, "omega src"), _json_typed(o["dst"], str, "omega dst"))
            for o in _json_typed(obj.get("omega", []), list, "graph omega")
        ]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad graph JSON: {exc}") from exc
    unknown = set(obj) - {"vertices", "edges", "omega"}
    if unknown:
        raise FormatError(f"unknown graph JSON fields: {sorted(unknown)}")
    try:
        return Graph(tuple(vertices), tuple(edges), tuple(omega), frozenset(frontier))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def graph_from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return graph_from_json_obj(obj)


# one pass, so the quoting is injective; a newline becomes the two
# characters \n, so every statement keeps a line of its own
_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n"})


def _dot_id(s: str) -> str:
    """A DOT quoted string holding s, with \\, " and newline escaped."""
    return '"' + s.translate(_DOT_ESCAPES) + '"'


def graph_to_dot(g: Graph) -> str:
    """One digraph; edge labels are edge ids, omega pairs are dashed with label ω."""
    lines = ["digraph G {"]
    for v in g.vertices:
        attrs = ' [peripheries=2]' if v in g.frontier else ""
        lines.append(f"  {_dot_id(v)}{attrs};")
    for e in g.edges:
        lines.append(f"  {_dot_id(e.src)} -> {_dot_id(e.dst)} [label={_dot_id(e.id)}];")
    for src, dst in g.omega_pairs:
        lines.append(f'  {_dot_id(src)} -> {_dot_id(dst)} [label="ω", style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
