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
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Union

from .errors import (
    EmptyGraph,
    FormatError,
    FrontierPresent,
    NotAcyclic,
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


def _grouped(vertices: Iterable[str], items: Iterable, key, value=None) -> dict[str, tuple]:
    """The one grouping by vertex: each item, or ``value(item)``, under the vertex
    ``key(item)``; every vertex a key in order, each group a tuple in input order."""
    groups: dict[str, list] = {v: [] for v in vertices}
    for item in items:
        groups[key(item)].append(item if value is None else value(item))
    return {v: tuple(group) for v, group in groups.items()}


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
        for e in self.edges if prefixes else ():  # without omega pairs no id is generated
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
        return _grouped(self.vertices, self.edges, itemgetter(1))

    @cached_property
    def in_edges(self) -> dict[str, tuple[Edge, ...]]:
        return _grouped(self.vertices, self.edges, itemgetter(2))

    @cached_property
    def omega_by_src(self) -> dict[str, tuple[str, ...]]:
        return _grouped(self.vertices, self.omega_pairs, itemgetter(0), itemgetter(1))

    @cached_property
    def omega_by_dst(self) -> dict[str, tuple[str, ...]]:
        return _grouped(self.vertices, self.omega_pairs, itemgetter(1), itemgetter(0))

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
        if not self.omega_pairs:  # every count of copies gives the one table
            omega_copies = 1
        table = self._alphabets.get(omega_copies)
        if table is None:
            ks = range(1, omega_copies + 1)
            copies = [(omega_edge_id(s, d, k), s, d) for s, d in self.omega_pairs for k in ks]
            ordered = sorted([*self.edges, *copies])  # by id, which is unique: each group is sorted
            table = _grouped(self.vertices, ordered, itemgetter(1), itemgetter(0, 2))
            self._alphabets[omega_copies] = table
        return table

    @cached_property
    def analysis(self) -> GraphAnalysis:
        """Strongly connected components and the facts read off them, computed once."""
        return GraphAnalysis(self)

    # -- vertex kinds (each raises UnknownVertex off the graph) ---------------

    def is_infinite_emitter(self, v: str) -> bool:
        try:  # free on a hit: is_regular runs once per in-edge of a closure
            return bool(self.omega_by_src[v])
        except KeyError:
            self.require_vertex(v)  # v is off the graph, so this raises UnknownVertex
            raise

    def is_sink(self, v: str) -> bool:
        return not self.is_infinite_emitter(v) and not self.out_edges[v]

    def is_regular(self, v: str) -> bool:
        return not self.is_infinite_emitter(v) and bool(self.out_edges[v])

    def is_source(self, v: str) -> bool:
        self.require_vertex(v)
        return not self.in_edges[v] and not self.omega_by_dst[v]

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
        return self._walk(source, edges)[0]

    def _walk(self, source: str, edges: Iterable[str]) -> tuple[Path, str]:
        """The validated path and its range, from one walk along its edges."""
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
        return tuple.__new__(Path, (source, edges)), at

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


def paths_by_range(g: Graph, n: int) -> dict[str, tuple[Path, ...]]:
    """The paths of length 0..n grouped by range, every vertex in input order,
    each group in (length, lex) order: ``path_levels`` read level by level."""
    return _grouped(g.vertices, (p for level in path_levels(g, n) for p in level), g.range_of)


def path_counts(g: Graph) -> dict[str, int]:
    """The number of paths ending at each vertex of an acyclic graph, its
    length-0 path included: count[v] = 1 + the sum of count[src e] over the
    edges e into v.  Read off ``_kahn_sums`` in topological order."""
    return _kahn_sums(g.in_edges, g.out_edges, 2, dict.fromkeys(g.vertices, 1))


def tail_counts(g: Graph) -> dict[str, int]:
    """The number of paths from each vertex of a finite acyclic graph to a
    sink: tails[u] = 1 at a sink, else the sum of tails[r(e)] over the edges
    e out of u.  Read off ``_kahn_sums`` in reverse topological order."""
    return _kahn_sums(g.out_edges, g.in_edges, 1, {v: int(not es) for v, es in g.out_edges.items()})


def _kahn_sums(before: dict, after: dict, far: int, sums: dict[str, int]) -> dict[str, int]:
    """The one Kahn pass, O(V + E), building no path: v, once every edge of
    ``before[v]`` is passed, adds its sum at the end ``e[far]`` of each edge of
    ``after[v]``.  NotAcyclic if it misses a vertex, i.e. on a cycle (omega unread)."""
    waiting = {v: len(es) for v, es in before.items()}
    ready = [v for v, n in waiting.items() if not n]
    for v in ready:
        for e in after[v]:
            w = e[far]
            sums[w] += sums[v]
            waiting[w] -= 1
            if not waiting[w]:
                ready.append(w)
    if len(ready) < len(before):
        raise NotAcyclic("the graph has a cycle")
    return sums


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
    """The least cycle through v, rotated to start at v, as ``g.analysis`` keeps it."""
    return g.analysis.least_cycle_at(v)


# ---------------------------------------------------------------------------
# hereditary saturated closure and the classifier
# ---------------------------------------------------------------------------


def hereditary_saturated_closure(g: Graph, seed: Iterable[str]) -> frozenset[str]:
    """Smallest hereditary and saturated vertex set containing the seed.

    Hereditary: ranges of outgoing edges (omega pairs included) stay inside.
    Saturated: a regular vertex all of whose edge ranges lie inside is pulled in.
    Reachability, then saturation: ``reachable_from`` is the least hereditary
    superset, and a vertex saturation pulls in has all its ranges inside, so
    the set stays hereditary.  O(V + E): each vertex inside counts down, for
    each regular vertex with an edge into it, the edges still leaving the set.
    """
    closure = set(reachable_from(g, seed))
    todo = list(closure)
    outside: dict[str, int] = {}
    while todo:
        for e in g.in_edges[todo.pop()]:
            u = e.src
            if u not in closure and g.is_regular(u):
                outside[u] = outside.get(u, len(g.out_edges[u])) - 1
                if outside[u] == 0:
                    closure.add(u)
                    todo.append(u)
    return frozenset(closure)


def reachable_from(g: Graph, starts: Iterable[str]) -> frozenset[str]:
    """Vertices reachable from any of ``starts`` along ``g.out_alphabet()`` (omega pairs as edges)."""
    alphabet = g.out_alphabet()
    stack = list(starts)
    for v in stack:
        g.require_vertex(v)
    seen = set(stack)
    while stack:
        for _, dst in alphabet[stack.pop()]:
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

    def least_cycle_at(self, v: str) -> Path:
        """The lexicographically least cycle through v, rotated to start at v and
        kept; raises UnknownVertex off the graph and NotCycleBase off the cycles."""
        if v not in self._least:
            if v not in self.cycle_bases:
                self.graph.require_vertex(v)
                raise NotCycleBase(f"vertex {v!r} is not the base of a cycle")
            self._least[v] = self._first_cycle(v)
        return self._least[v]

    def _first_cycle(self, v: str) -> Path:
        """The least cycle through v: the first one met by a depth-first search
        from v that takes each vertex's edges in id order, stays in v's SCC and
        marks each vertex for good.  This is Johnson's circuit search (SIAM J.
        Comput. 4(1), 1975) before its first circuit.  A vertex left without
        closing at v cannot reach v while avoiding the stack and the vertices
        left; that blocked set only grows, so no cycle extending the stack is
        pruned.  Each vertex is pushed at most once: O(V + E) per cycle base.
        """
        comp, c = self.component, self.component[v]
        marked = {v}
        stack = [("", iter(self.alphabet[v]))]  # (edge in, edges out still to try)
        while True:
            for eid, dst in stack[-1][1]:
                if dst == v:
                    return Path(v, (*(e for e, _ in stack[1:]), eid))
                if comp[dst] == c and dst not in marked:
                    marked.add(dst)
                    stack.append((eid, iter(self.alphabet[dst])))
                    break
            else:  # every edge out of the top vertex is spent: back out of it
                stack.pop()

    def _first_failing_seed(self, emitters: set[str]) -> Optional[str]:
        """The first non-frontier vertex, in input order, whose closure is proper.

        Counting omega pairs as edges, a closure is the whole vertex set exactly
        when its seed reaches every anchor: every sink, infinite emitter and
        vertex of a cyclic SCC, for saturation adds only regular vertices off
        the cycles.  So a seed passes when it reaches every top, an anchor SCC
        that no other anchor SCC reaches.  ``self.component`` iterates sinks
        first, SCC by SCC, so each sweep below sees an SCC after every SCC that
        reaches it (reversed) or that it reaches (forward).
        """
        g, comp, alphabet = self.graph, self.component, self.alphabet
        if next(reversed(comp.values()), 0) == 0:  # one SCC: every closure is the whole set
            return None
        tops: dict[int, str] = {}
        hit: set[int] = set()  # SCCs that another anchor SCC reaches
        for v in reversed(comp):
            c = comp[v]
            # every vertex of a cyclic SCC is a cycle base
            anchor = v in self.cycle_bases or not alphabet[v] or v in emitters
            if anchor and c not in hit:
                tops.setdefault(c, v)
            if anchor or c in hit:
                hit.update(comp[w] for _, w in alphabet[v] if comp[w] != c)
        passed: set[int] = set()
        if len(tops) == 1:  # a seed passes exactly when it reaches the top
            passed.update(tops)
            for v in comp:
                if any(comp[w] in passed for _, w in alphabet[v]):
                    passed.add(comp[v])
        reps = frozenset(tops.values())
        for v in g.vertices:
            if v in g.frontier or comp[v] in passed:
                continue
            # with two or more tops a seed inside one misses the others
            if len(tops) == 1 or comp[v] in tops:
                return v
            # An SCC passes when a successor SCC does.  A vertex off the cycles
            # is an SCC of its own, and with one successor SCC it passes exactly
            # when that one does: so walk down from v to a vertex with a
            # successor known to pass, or with several or none, or on a cycle,
            # and search from v only where none is known to pass.
            chain, u = [comp[v]], v
            succ = {comp[w] for _, w in alphabet[v]}
            while not succ & passed and u not in self.cycle_bases and len(succ) == 1:
                u = alphabet[u][0][1]
                chain.append(comp[u])
                succ = {comp[w] for _, w in alphabet[u]}
            if not succ & passed and not reps <= reachable_from(g, [v]):
                return v
            passed.update(chain)
        return None

    @cached_property
    def classification(self) -> Classification:
        """The trichotomy: condition (L), then the closure test in one pass over
        the condensation, with frontier vertices never used as closure seeds.
        The one closure computed is the NotSimple witness."""
        g, comp = self.graph, self.component
        emitters = {src for src, _ in g.omega_pairs}
        # Condition (L) fails exactly on an SCC that is one cycle without exit:
        # a cyclic SCC whose every vertex emits one edge and no omega pair.
        with_exit = {comp[v] for v in self.cycle_bases if len(self.alphabet[v]) != 1 or v in emitters}
        for _, v, _ in self.cycle_edges:
            if comp[v] not in with_exit:
                return Classification(Verdict.NOT_SIMPLE, self.least_cycle_at(v))

        seed = self._first_failing_seed(emitters)
        if seed is not None:
            return Classification(Verdict.NOT_SIMPLE, hereditary_saturated_closure(g, [seed]))

        if self.cycle_edges:
            return Classification(
                Verdict.SIMPLE_PURELY_INFINITE, self.least_cycle_at(self.cycle_edges[0][1])
            )
        return Classification(Verdict.SIMPLE_ACYCLIC, "acyclic")


def classify_graph(g: Graph, frontier: str = "refuse") -> Classification:
    """Decide the NotSimple / SimpleAcyclic / SimplePurelyInfinite trichotomy.

    Simplicity is decided as: every cycle has an exit (condition (L)), and the
    only hereditary saturated vertex sets are the empty and the full one
    (every singleton seed's closure is full: read off one pass over the
    condensation, with no closure computed).  The witness is the least cycle
    without exit or the closure of the first vertex whose closure is proper
    (the one closure computed) for NotSimple, the least cycle in canonical
    rotation for SimplePurelyInfinite, and the token "acyclic" otherwise.
    The result is cached on the graph (``Graph.analysis``).

    ``frontier`` controls graphs carrying desingularization truncation markers:
    "refuse" raises, "sink" classifies with frontier vertices understood as
    truncation stubs (they are kept in the graph but not used as closure seeds,
    since in the untruncated graph their tails continue).
    """
    if frontier not in ("refuse", "sink"):
        raise ValueError("frontier must be 'refuse' or 'sink'")
    if not g.vertices:
        raise EmptyGraph("cannot classify the empty graph")
    if g.frontier and frontier == "refuse":
        raise FrontierPresent(
            "graph has truncation-frontier vertices; classify with frontier='sink' to treat them as stubs"
        )
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


# one encoder for every output: json.dumps with these options builds a new one per call
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)


def canonical_json(obj) -> str:
    """The one JSON encoding of every output: no spaces, non-ASCII kept as is."""
    return _ENCODER.encode(obj)


def graph_to_json(g: Graph) -> str:
    return canonical_json(graph_to_json_obj(g))


_JSON_TYPES = {str: "a string", list: "a list", bool: "a boolean"}


def _json_typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise FormatError(f"{what} must be {_JSON_TYPES[kind]}, not {value!r}")
    return value


def _unknown_fields(what: str, objs: list, allowed: tuple[str, ...]) -> FormatError:
    return FormatError(f"unknown {what} JSON fields: {sorted(set().union(*objs) - set(allowed))}")


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
                if len(entry) > 1 + ("frontier" in entry):
                    raise _unknown_fields("vertex", [entry], ("id", "frontier"))
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
    # every object holds its required keys by now, so an unknown key shows in
    # the key count: one len per edge or omega pair, the keys walked on failure
    if len(obj) > 1 + ("edges" in obj) + ("omega" in obj):
        raise _unknown_fields("graph", [obj], ("vertices", "edges", "omega"))
    edge_objs, omega_objs = obj.get("edges", []), obj.get("omega", [])
    if sum(map(len, edge_objs)) > 3 * len(edge_objs):
        raise _unknown_fields("edge", edge_objs, ("id", "src", "dst"))
    if sum(map(len, omega_objs)) > 2 * len(omega_objs):
        raise _unknown_fields("omega", omega_objs, ("src", "dst"))
    try:
        return Graph(tuple(vertices), tuple(edges), tuple(omega), frozenset(frontier))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def parse_json(text: str):
    """The one JSON reader of every input.  Each parse failure is a FormatError:
    bad syntax, nesting past the recursion limit, an integer too long to convert."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc


def graph_from_json(text: str) -> Graph:
    return graph_from_json_obj(parse_json(text))


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
