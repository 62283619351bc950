"""Matrix pictures of the degree-zero filtration and of acyclic algebras.

The degree-zero part of the algebra of a finite row-finite graph is a union of
finite stages; each stage is a direct sum of matrix algebras, one block per
(sink, length) pair for lengths up to the stage and one block per regular
vertex at the full stage, indexed by the paths into that vertex.  For finite
acyclic graphs the whole algebra is a single such sum with one block per sink
indexed by all paths into it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import (
    BudgetExceeded,
    GraphMismatch,
    NotAcyclic,
    NotInFiltration,
    OmegaUnsupported,
    ZeroElement,
)
from .graph import Graph, Path, path_counts, path_levels
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

# entries of all acyclic sink blocks together (64 MiB as complex128 floats):
# the doubled line (two parallel edges between neighbours) on 11 vertices,
# 2047 paths into its sink, just fits.  It applies to the norm at every p,
# so exit codes do not depend on p, though only the exact table and the
# spatial image build the dense blocks: the norm fills just the components
# of the blocks' nonzero pattern, which on the doubled line are 1024 1×1
# arrays.
BLOCK_BUDGET = 2**22


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
    range, on both sides, until the range is a sink or the paths reach length n."""
    out: dict[Monomial, GaussianRational] = {}
    for m, c in terms:
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
    for r, level in enumerate(path_levels(g, n)):
        by_range: dict[str, list[Path]] = {}
        for p in level:
            by_range.setdefault(g.range_of(p), []).append(p)
        for v, plist in by_range.items():
            if g.is_sink(v):
                paths[BlockKey("sink", v, r)] = tuple(plist)
            elif r == n:
                paths[BlockKey("regular", v, n)] = tuple(plist)
    return _assemble(g, paths, expansion)


# ---------------------------------------------------------------------------
# finite acyclic graphs
# ---------------------------------------------------------------------------


def paths_into_by_sink(g: Graph) -> dict[str, tuple[Path, ...]]:
    """For each sink v, every path ending at v, ordered by (length, lex)."""
    by_sink: dict[str, list[Path]] = {v: [] for v in g.vertices if g.is_sink(v)}
    for level in path_levels(g, len(g.vertices) - 1):
        for p in level:
            v = g.range_of(p)
            if v in by_sink:
                by_sink[v].append(p)
    return {v: tuple(ps) for v, ps in by_sink.items()}


def acyclic_expansion(g: Graph, x: Element) -> dict[Monomial, GaussianRational]:
    """x expanded into monomials a·b* with a and b ending at the same sink:
    the nonzero entries of the acyclic block decomposition, whose rows and
    columns are ``paths_into_by_sink(g)``.

    Raises BudgetExceeded, before any path is built, when the blocks would
    hold more than ``BLOCK_BUDGET`` entries in all.
    """
    if x.graph != g:
        raise GraphMismatch("element is not over the given graph")
    _require_row_finite_finite(g)
    if g.analysis.cycle_bases:
        raise NotAcyclic("the graph has a cycle")
    counts = path_counts(g)
    entries = sum(counts[v] ** 2 for v in g.vertices if g.is_sink(v))
    if entries > BLOCK_BUDGET:
        raise BudgetExceeded(
            f"the sink blocks would hold {entries} entries, over the budget of {BLOCK_BUDGET}"
        )
    # no path reaches length |V|, so the expansion stops only at sinks
    return _expand(g, x.terms(), len(g.vertices))


def acyclic_decompose(g: Graph, x: Element) -> BlockDecomposition:
    """Isomorphism of the algebra of a finite acyclic graph onto a sum of matrix blocks.

    One block per sink v, indexed by all paths into v; the monomial a·b* with
    both paths ending at v maps to the (a, b) matrix unit, and every element
    is first expanded into such monomials via the identity u = sum of d·d*
    over paths d from u to the sinks.
    """
    expansion = acyclic_expansion(g, x)
    paths = {BlockKey("sink", v, None): plist for v, plist in paths_into_by_sink(g).items()}
    return _assemble(g, paths, expansion)


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
