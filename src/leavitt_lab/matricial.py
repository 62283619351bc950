"""Matrix pictures of the degree-zero filtration and of acyclic algebras.

The degree-zero part of the algebra of a finite row-finite graph is a union of
finite stages; each stage is a direct sum of matrix algebras, one block per
(sink, length) pair for lengths up to the stage and one block per regular
vertex at the full stage, indexed by the paths into that vertex.  For finite
acyclic graphs the whole algebra is a single such sum with one block per sink
indexed by all paths into it.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple, Optional

from .errors import (
    BudgetExceeded,
    NotInFiltration,
    OmegaUnsupported,
    ZeroElement,
)
from .graph import Graph, Path, path_counts, paths_by_range, tail_counts
from .lpa import (
    Element,
    GaussianRational,
    GR_ZERO,
    Monomial,
    add_term,
    involute,
    normalize_terms,
    path_element,
)

# entries of the dense blocks that are filled (64 MiB as complex128 floats):
# the acyclic sink blocks together (the exact table, which the spatial image
# rounds) and each norm component alone.  The doubled line (two parallel
# edges between neighbours) on 11 vertices, 2047 paths into its sink, fits.
BLOCK_BUDGET = 2**22
# terms of an acyclic expansion, what the norm builds at every p (about
# 1 KB each, with its norm components): the doubled line's vertex v0 makes
# 2^(n-1) of them on n vertices, so it answers up to n = 19, in seconds
EXPANSION_BUDGET = 2**18


class BlockKey(NamedTuple):
    """(kind, vertex, stage); kind is "sink" or "regular", stage None for
    acyclic blocks.  Keys sort as tuples: within one decomposition two keys
    never share both kind and vertex unless both have an integer stage."""

    kind: str
    vertex: str
    stage: Optional[int]


class BlockDecomposition(NamedTuple):
    """A family of dense exact matrices indexed by path lists.

    ``blocks[key][i][j]`` is the coefficient of the monomial built from the
    i-th and j-th entry of ``paths[key]``.  ``recompose`` is a two-sided
    inverse of the decomposition maps producing these objects.
    """

    graph: Graph
    blocks: dict[BlockKey, list[list[GaussianRational]]]
    paths: dict[BlockKey, tuple[Path, ...]]

    def block_order(self) -> list[BlockKey]:
        return sorted(self.blocks)

    def recompose(self) -> Element:
        raw: dict[Monomial, GaussianRational] = {}
        for key, matrix in self.blocks.items():
            ps = self.paths[key]
            for i, row in enumerate(matrix):
                for j, c in enumerate(row):
                    if c:
                        add_term(raw, Monomial(ps[i], ps[j]), c)
        return normalize_terms(self.graph, raw)


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
    return BlockDecomposition(a.graph, blocks, dict(a.paths))


# ---------------------------------------------------------------------------
# filtration stages
# ---------------------------------------------------------------------------


def _require_row_finite_finite(g: Graph) -> None:
    if g.omega_pairs:
        raise OmegaUnsupported("matricial decompositions need a row-finite finite graph")


def _expand(g: Graph, terms, n: int) -> dict[Monomial, GaussianRational]:
    """Push each a·b* through u = sum of e·e* over the edges e leaving its
    range, on both sides, until the range is a sink or the paths reach length n.

    One depth-first walk per term, each node carrying its paths' edges and
    their range, read off ``g.out_edges``: a vertex with no edge there is a
    sink, since the callers refuse omega pairs.  The terms land in walk
    order, through ``add_term``."""
    succ = g.out_edges
    new = tuple.__new__  # Path and Monomial without their Python-level constructors
    out: dict[Monomial, GaussianRational] = {}
    for m, c in terms:
        (a_src, a_edges), (b_src, b_edges) = m
        stack = [(a_edges, b_edges, g.range_of(m.alpha))]
        while stack:
            alpha, beta, at = stack.pop()
            step = succ[at]
            if not step or len(alpha) == n:
                pair = (new(Path, (a_src, alpha)), new(Path, (b_src, beta)))
                add_term(out, new(Monomial, pair), c)
                continue
            for eid, _, dst in step:
                stack.append((alpha + (eid,), beta + (eid,), dst))
    return out


def _assemble(g: Graph, paths: dict, expansion: dict) -> BlockDecomposition:
    """Blocks indexed by ``paths``: each expanded a·b* is the (a, b) entry of
    the one block listing both a and b."""
    where = {p: (key, i) for key, plist in paths.items() for i, p in enumerate(plist)}
    blocks = {
        key: [[GR_ZERO for _ in plist] for _ in plist] for key, plist in paths.items()
    }
    for m, c in expansion.items():
        key, i = where[m.alpha]
        blocks[key][i][where[m.beta][1]] = c
    return BlockDecomposition(g, blocks, paths)


def stage_expansion(x: Element, n: int) -> dict[Monomial, GaussianRational]:
    """Expand a degree-zero element into the stage-n spanning monomials.

    Monomials ending at a regular vertex are pushed to length n by inserting
    the outgoing edges on both sides; monomials ending at a sink stay at their
    length.  Raises NotInFiltration when a term has nonzero degree or a length
    beyond the stage.
    """
    g = x.graph
    _require_row_finite_finite(g)
    terms = x.terms()
    for m, _ in terms:
        if m.degree != 0:
            raise NotInFiltration(f"term {m!r} has nonzero degree")
        if len(m.alpha.edges) > n:
            raise NotInFiltration(
                f"term {m!r} has length {len(m.alpha.edges)} beyond stage {n}"
            )
    return _expand(g, terms, n)


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
    for v, into in paths_by_range(g, n).items():
        kind = "sink" if g.is_sink(v) else "regular"
        for r, plist in groupby(into, lambda p: len(p.edges)):
            if kind == "sink" or r == n:
                paths[BlockKey(kind, v, r)] = tuple(plist)
    return _assemble(g, paths, expansion)


# ---------------------------------------------------------------------------
# finite acyclic graphs
# ---------------------------------------------------------------------------


def paths_into_by_sink(g: Graph) -> dict[str, tuple[Path, ...]]:
    """For each sink v, every path ending at v, ordered by (length, lex)."""
    return {v: ps for v, ps in paths_by_range(g, len(g.vertices) - 1).items() if g.is_sink(v)}


def acyclic_expansion(x: Element) -> dict[Monomial, GaussianRational]:
    """x expanded into monomials a·b* with a and b ending at the same sink:
    the nonzero entries of the acyclic block decomposition, whose rows and
    columns are ``paths_into_by_sink(x.graph)``.

    Raises OmegaUnsupported on omega pairs, then NotAcyclic on a cycle (from
    ``tail_counts``, so no graph analysis is built), then BudgetExceeded,
    before any path is built, when the expansion would make more than
    ``EXPANSION_BUDGET`` terms: a term a·b* makes one per path from r(a) to
    a sink.
    """
    g = x.graph
    _require_row_finite_finite(g)
    tails, terms = tail_counts(g), x.terms()
    made = sum(tails[g.range_of(m.alpha)] for m, _ in terms)
    if made > EXPANSION_BUDGET:
        raise BudgetExceeded(
            f"the expansion would make {made} terms, over the budget of {EXPANSION_BUDGET}"
        )
    # no path reaches length |V|, so the expansion stops only at sinks
    return _expand(g, terms, len(g.vertices))


def check_sink_blocks(x: Element) -> None:
    """Raises OmegaUnsupported on omega pairs, then NotAcyclic on a cycle
    (from ``path_counts``), then BudgetExceeded when x's dense sink blocks
    would hold more than ``BLOCK_BUDGET`` entries in all: an O(V + E) count,
    for ``acyclic_decompose`` to make before it expands x or lists the paths
    into the sinks."""
    g = x.graph
    _require_row_finite_finite(g)
    counts = path_counts(g)
    entries = sum(counts[v] ** 2 for v in g.vertices if g.is_sink(v))
    if entries > BLOCK_BUDGET:
        raise BudgetExceeded(
            f"the sink blocks would hold {entries} entries, over the budget of {BLOCK_BUDGET}"
        )


def acyclic_decompose(x: Element) -> BlockDecomposition:
    """Isomorphism of the algebra of a finite acyclic graph onto a sum of matrix blocks.

    One block per sink v, indexed by all paths into v; the monomial a·b* with
    both paths ending at v maps to the (a, b) matrix unit, and every element
    is first expanded into such monomials via the identity u = sum of d·d*
    over paths d from u to the sinks.
    """
    check_sink_blocks(x)
    expansion = acyclic_expansion(x)
    paths = {BlockKey("sink", v, None): plist for v, plist in paths_into_by_sink(x.graph).items()}
    return _assemble(x.graph, paths, expansion)


# ---------------------------------------------------------------------------
# degree-zero witness extraction
# ---------------------------------------------------------------------------


class DegreeZeroWitness(NamedTuple):
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
