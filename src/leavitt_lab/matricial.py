"""Matrix pictures of the degree-zero filtration and of acyclic algebras.

The degree-zero part of the algebra of a finite row-finite graph is a union of
finite stages; each stage is a direct sum of matrix algebras, one block per
(sink, length) pair for lengths up to the stage and one block per regular
vertex at the full stage, indexed by the paths into that vertex.  For finite
acyclic graphs the whole algebra is a single such sum with one block per sink
indexed by all paths into it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .errors import NotAcyclic, NotInFiltration, OmegaUnsupported, ZeroElement
from .graph import Graph, Path, cycle_base_vertices, enumerate_paths
from .lpa import (
    Element,
    GaussianRational,
    GR_ZERO,
    Monomial,
    add_term,
    gauss_str,
    involute,
    normalize_terms,
    path_element,
)


@dataclass(frozen=True, slots=True)
class BlockKey:
    """(kind, vertex, stage); kind is "sink" or "regular", stage None for acyclic blocks."""

    kind: str
    vertex: str
    stage: Optional[int]

    def sort_key(self) -> tuple:
        return (self.kind, self.vertex, -1 if self.stage is None else self.stage)


@dataclass
class BlockDecomposition:
    """A family of dense exact matrices indexed by path lists.

    ``blocks[key][i][j]`` is the coefficient of the monomial built from the
    i-th and j-th entry of ``paths[key]``.  ``recompose`` is a two-sided
    inverse of the decomposition maps producing these objects.
    """

    graph: Graph
    stage: Optional[int]
    blocks: dict[BlockKey, list[list[GaussianRational]]]
    paths: dict[BlockKey, tuple[Path, ...]]

    def block_order(self) -> list[BlockKey]:
        return sorted(self.blocks, key=BlockKey.sort_key)

    def entry(self, key: BlockKey, row: Path, col: Path) -> GaussianRational:
        ps = self.paths[key]
        return self.blocks[key][ps.index(row)][ps.index(col)]

    def recompose(self) -> Element:
        raw: dict[Monomial, GaussianRational] = {}
        for key, matrix in self.blocks.items():
            ps = self.paths[key]
            for i, row in enumerate(matrix):
                for j, c in enumerate(row):
                    if c:
                        add_term(raw, Monomial(ps[i], ps[j]), c)
        return normalize_terms(self.graph, raw)

    def to_json_obj(self) -> dict:
        blocks = []
        for key in self.block_order():
            blocks.append(
                {
                    "vertex": key.vertex,
                    "kind": key.kind,
                    "stage": key.stage,
                    "paths": [
                        {"src": p.source, "edges": list(p.edges)}
                        for p in self.paths[key]
                    ],
                    "matrix": [
                        [gauss_str(c) for c in row] for row in self.blocks[key]
                    ],
                }
            )
        return {"blocks": blocks}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"), ensure_ascii=False)


def blockwise_product(a: BlockDecomposition, b: BlockDecomposition) -> BlockDecomposition:
    """Blockwise matrix product of two aligned decompositions."""
    if a.paths != b.paths:
        raise ValueError("decompositions are not aligned")
    blocks: dict[BlockKey, list[list[GaussianRational]]] = {}
    for key, A in a.blocks.items():
        B = b.blocks[key]
        size = len(a.paths[key])
        C = [[GR_ZERO for _ in range(size)] for _ in range(size)]
        for i in range(size):
            for k in range(size):
                aik = A[i][k]
                if not aik:
                    continue
                row = B[k]
                for j in range(size):
                    if row[j]:
                        C[i][j] = C[i][j] + aik * row[j]
        blocks[key] = C
    return BlockDecomposition(a.graph, a.stage, blocks, dict(a.paths))


# ---------------------------------------------------------------------------
# filtration stages
# ---------------------------------------------------------------------------


def _require_row_finite_finite(g: Graph) -> None:
    if g.omega_pairs:
        raise OmegaUnsupported("matricial decompositions need a row-finite finite graph")


def stage_expansion(x: Element, n: int) -> dict[Monomial, GaussianRational]:
    """Expand a degree-zero element into the stage-n spanning monomials.

    Monomials ending at a regular vertex are pushed to length n by inserting
    the outgoing edges on both sides; monomials ending at a sink stay at their
    length.  Raises NotInFiltration when a term has nonzero degree or a length
    beyond the stage.
    """
    g = x.graph
    _require_row_finite_finite(g)
    out: dict[Monomial, GaussianRational] = {}
    for m, c in x.terms():
        if m.degree != 0:
            raise NotInFiltration(f"term {m!r} has nonzero degree")
        if len(m.alpha.edges) > n:
            raise NotInFiltration(
                f"term {m!r} has length {len(m.alpha.edges)} beyond stage {n}"
            )
        stack = [(m.alpha, m.beta)]
        while stack:
            alpha, beta = stack.pop()
            at = g.range_of(alpha)
            if len(alpha.edges) == n or g.is_sink(at):
                add_term(out, Monomial(alpha, beta), c)
                continue
            for e in g.out_edges[at]:
                stack.append(
                    (
                        Path(alpha.source, alpha.edges + (e.id,)),
                        Path(beta.source, beta.edges + (e.id,)),
                    )
                )
    return out


def filtration_decompose(x: Element, n: int) -> BlockDecomposition:
    """Matrix picture of an element of the stage-n degree-zero filtration.

    Blocks: one per (sink v, length r <= n) indexed by the length-r paths into
    v, and one per regular vertex v at length n.  The map is linear and turns
    products into blockwise matrix products.
    """
    g = x.graph
    _require_row_finite_finite(g)
    if n < 0:
        raise ValueError("stage must be >= 0")
    expansion = stage_expansion(x, n)

    paths: dict[BlockKey, tuple[Path, ...]] = {}
    for r in range(n + 1):
        level = enumerate_paths(g, r)
        by_range: dict[str, list[Path]] = {}
        for p in level:
            by_range.setdefault(g.range_of(p), []).append(p)
        for v, plist in by_range.items():
            if g.is_sink(v):
                paths[BlockKey("sink", v, r)] = tuple(plist)
            elif r == n:
                paths[BlockKey("regular", v, n)] = tuple(plist)

    index = {
        key: {p: i for i, p in enumerate(plist)} for key, plist in paths.items()
    }
    blocks = {
        key: [[GR_ZERO for _ in plist] for _ in plist] for key, plist in paths.items()
    }
    for m, c in expansion.items():
        v = g.range_of(m.alpha)
        r = len(m.alpha.edges)
        key = BlockKey("sink" if g.is_sink(v) else "regular", v, r)
        blocks[key][index[key][m.alpha]][index[key][m.beta]] = c
    return BlockDecomposition(g, n, blocks, paths)


# ---------------------------------------------------------------------------
# finite acyclic graphs
# ---------------------------------------------------------------------------


def _sink_paths_from(g: Graph, v: str) -> list[Path]:
    """All paths from v to a sink, lexicographic by edge ids (trivial path if v is a sink)."""
    out: list[Path] = []

    def walk(at: str, edges: tuple[str, ...]) -> None:
        if g.is_sink(at):
            out.append(Path(v, edges))
            return
        for e in sorted(g.out_edges[at], key=lambda e: e.id):
            walk(e.dst, edges + (e.id,))

    walk(v, ())
    return out


def paths_into_by_sink(g: Graph) -> dict[str, tuple[Path, ...]]:
    """For each sink v, every path ending at v, ordered by (length, lex)."""
    by_sink: dict[str, list[Path]] = {v: [] for v in g.vertices if g.is_sink(v)}
    for r in range(len(g.vertices)):
        for p in enumerate_paths(g, r):
            v = g.range_of(p)
            if v in by_sink:
                by_sink[v].append(p)
    return {v: tuple(ps) for v, ps in by_sink.items()}


def acyclic_decompose(g: Graph, x: Element) -> BlockDecomposition:
    """Isomorphism of the algebra of a finite acyclic graph onto a sum of matrix blocks.

    One block per sink v, indexed by all paths into v; the monomial a·b* with
    both paths ending at v maps to the (a, b) matrix unit, and every element
    is first expanded into such monomials via the identity u = sum of d·d*
    over paths d from u to the sinks.
    """
    if x.graph != g:
        raise ValueError("element is not over the given graph")
    _require_row_finite_finite(g)
    if cycle_base_vertices(g):
        raise NotAcyclic("the graph has a cycle")

    paths = {
        BlockKey("sink", v, None): plist for v, plist in paths_into_by_sink(g).items()
    }
    index = {
        key: {p: i for i, p in enumerate(plist)} for key, plist in paths.items()
    }
    blocks = {
        key: [[GR_ZERO for _ in plist] for _ in plist] for key, plist in paths.items()
    }
    for m, c in x.terms():
        at = g.range_of(m.alpha)
        for tail in _sink_paths_from(g, at):
            row = Path(m.alpha.source, m.alpha.edges + tail.edges)
            col = Path(m.beta.source, m.beta.edges + tail.edges)
            key = BlockKey("sink", g.range_of(tail), None)
            i, j = index[key][row], index[key][col]
            blocks[key][i][j] = blocks[key][i][j] + c
    return BlockDecomposition(g, None, blocks, paths)


# ---------------------------------------------------------------------------
# degree-zero witness extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeZeroWitness:
    """x, y with x·a·y = vertex, where x has degree -h and y degree h."""

    x: Element
    y: Element
    vertex: str
    h: int


def degree_zero_witness(a: Element) -> DegreeZeroWitness:
    """For a nonzero degree-zero element, produce x, y and a vertex with x·a·y = vertex.

    The element is expanded to its minimal filtration stage; the first nonzero
    entry in (kind, vertex, stage, row, column) order, with paths compared
    lexicographically, yields x = (1/c)·row*, y = col.
    """
    g = a.graph
    _require_row_finite_finite(g)
    if a.is_zero:
        raise ZeroElement("cannot extract a witness from 0")
    n = a.max_path_length()
    expansion = stage_expansion(a, n)

    def order(item: tuple[Monomial, GaussianRational]) -> tuple:
        m, _ = item
        v = g.range_of(m.alpha)
        kind = "sink" if g.is_sink(v) else "regular"
        return (kind, v, len(m.alpha.edges), m.alpha.edges, m.beta.edges)

    m, c = min(expansion.items(), key=order)
    x = involute(path_element(g, m.alpha)).scale(c.reciprocal())
    y = path_element(g, m.beta)
    return DegreeZeroWitness(x, y, g.range_of(m.alpha), len(m.alpha.edges))
