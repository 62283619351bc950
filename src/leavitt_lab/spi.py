"""Constructive pure-infiniteness machinery.

For a finite row-finite graph without sources whose classifier verdict is
simple purely infinite, every nonzero element a admits x, y and a vertex v
with x·a·y = v, exactly.  The witness is produced in stages: shift a nonzero
homogeneous component to degree zero, extract a matrix entry there, route to a
cycle base, and kill the off-degree remainder with an annihilating closed
path.  Because the arithmetic is exact, no invertible correction factor is
needed at the last stage.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import lcm
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    HasSources,
    InternalError,
    NotDegreeFree,
    NotSPI,
    OmegaUnsupported,
    ZeroElement,
)
from .graph import (
    Graph,
    Path,
    Verdict,
    canonical_json,
    classify_graph,
    least_cycle_at,
)
from .lpa import (
    Element,
    degree_component,
    element_from_json_obj,
    element_to_json_obj,
    involute,
    multiply,
    path_element,
    vertex_element,
    zero,
)
from .matricial import degree_zero_witness


# ---------------------------------------------------------------------------
# closed-path search helpers
# ---------------------------------------------------------------------------


def closed_paths_at(g: Graph, v: str, length: int, omega_copies: int = 2) -> list[Path]:
    """Closed paths at v of the given length, lexicographic by edge ids.

    For graphs with omega pairs only the first ``omega_copies`` parallel edges
    of each pair are explored; that is enough to exhibit incomparable closed
    paths wherever they exist.  The walk uses an explicit stack and never
    takes an edge whose range is further from v than the steps left.
    """
    if length == 0:
        return [Path(v)]
    return list(_closed_paths(g, v, length, omega_copies, _steps_to(g, v, omega_copies)))


def _steps_to(g: Graph, v: str, omega_copies: int) -> dict[str, int]:
    """Steps from each vertex back to v, by BFS over predecessors."""
    steps_to_v = {v: 0}
    level = [v]
    steps = 0
    while level:
        steps += 1
        nxt = []
        for w in level:
            preds = [e.src for e in g.in_edges[w]]
            if omega_copies:
                preds.extend(g.omega_by_dst[w])
            for u in preds:
                if u not in steps_to_v:
                    steps_to_v[u] = steps
                    nxt.append(u)
        level = nxt
    return steps_to_v


def _closed_paths(
    g: Graph, v: str, length: int, omega_copies: int, steps_to_v: dict[str, int]
) -> Iterator[Path]:
    """``closed_paths_at`` for length >= 1, yielded one at a time: each
    vertex's edges are pushed in reverse, so they pop in lexicographic order.
    A vertex missing from ``steps_to_v`` cannot return at all."""
    alphabet = g.out_alphabet(omega_copies)
    edges: list[str] = []
    # (index of the edge in the path, edge id, its range)
    stack: list[tuple[int, str, str]] = []

    def extend(at: str, i: int) -> None:
        left = length - i - 1
        for eid, dst in reversed(alphabet[at]):
            if steps_to_v.get(dst, length) <= left:
                stack.append((i, eid, dst))

    extend(v, 0)
    while stack:
        i, eid, at = stack.pop()
        del edges[i:]
        edges.append(eid)
        if i + 1 == length:
            yield Path(v, tuple(edges))
        else:
            extend(at, i + 1)


def incomparable_closed_path(g: Graph, v: str, alpha: Path) -> Path:
    """Shortest-lex closed path at v incomparable with alpha in the path order."""
    cap = 2 * alpha.length + len(g.vertices) + 2
    steps_to_v = _steps_to(g, v, 2)
    for length in range(1, cap + 1):
        for sigma in _closed_paths(g, v, length, 2, steps_to_v):
            if not (g.path_ge(alpha, sigma) or g.path_ge(sigma, alpha)):
                return sigma
    raise InternalError(
        "no incomparable closed path found; the graph cannot be simple purely infinite"
    )


def path_to_cycle_base(g: Graph, v: str) -> Path:
    """Shortest-lex path from v to a vertex lying on a cycle (trivial if v does)."""
    bases = g.analysis.cycle_bases
    if v in bases:
        return Path(v)
    alphabet = g.out_alphabet()
    frontier: list[Path] = [Path(v)]
    seen = {v}
    while frontier:
        nxt: list[Path] = []
        for p in frontier:  # built in lexicographic order
            at = g.range_of(p)
            for eid, dst in alphabet[at]:
                q = Path(v, p.edges + (eid,))
                if dst in bases:
                    return q
                if dst not in seen:
                    seen.add(dst)
                    nxt.append(q)
        frontier = nxt
    raise InternalError(f"no path from {v!r} to a cycle; the graph is not simple purely infinite")


# ---------------------------------------------------------------------------
# equal-length closed-path families
# ---------------------------------------------------------------------------


class EqualLengthFamily(NamedTuple):
    paths: dict[str, tuple[Path, ...]]
    common_length: int


def _require_spi(g: Graph) -> None:
    if classify_graph(g).verdict is not Verdict.SIMPLE_PURELY_INFINITE:
        raise NotSPI("the graph does not classify as simple purely infinite")


def equal_length_closed_paths(g: Graph, V: Iterable[str], m: int) -> EqualLengthFamily:
    """m distinct closed paths of one common length at each requested vertex.

    At each v, take the least cycle a and an incomparable closed path b; the
    words a^i·b·a^(m-i), i = 1..m, are distinct closed paths of equal length,
    and raising them to a common multiple of the per-vertex lengths equalizes
    the lengths across vertices.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _require_spi(g)
    wanted = set(V)
    V = [v for v in g.vertices if v in wanted]
    base: dict[str, tuple[Path, ...]] = {}
    lengths: dict[str, int] = {}
    for v in V:
        alpha = least_cycle_at(g, v)
        beta = incomparable_closed_path(g, v, alpha)
        deltas = []
        for i in range(1, m + 1):
            edges = alpha.edges * i + beta.edges + alpha.edges * (m - i)
            deltas.append(Path(v, edges))
        base[v] = tuple(deltas)
        lengths[v] = m * alpha.length + beta.length
    common = lcm(*lengths.values()) if lengths else 1
    paths = {
        v: tuple(g.path_power(d, common // lengths[v]) for d in base[v]) for v in V
    }
    return EqualLengthFamily(paths, common)


# ---------------------------------------------------------------------------
# Cohn relation elements
# ---------------------------------------------------------------------------


class CohnQuadruple(NamedTuple):
    s1: Element
    s2: Element
    t1: Element
    t2: Element


def cohn_embedding(g: Graph, v: str) -> CohnQuadruple:
    """Elements s1, s2, t1, t2 of the corner at v with t_i·s_j = delta_ij·v.

    At a cycle base the s_i are two incomparable closed paths and t_i their
    adjoints.  At other vertices the construction is routed outward: a regular
    vertex u inherits s_i(u) as the sum of e·s_i(r(e))·e* over its outgoing
    edges, which telescopes back to u by the range relation.  With a single
    outgoing edge this is exactly conjugation along that edge.
    """
    _require_spi(g)
    g.require_vertex(v)
    bases = g.analysis.cycle_bases
    memo: dict[str, tuple[Element, Element]] = {}
    # depth first in edge order; a vertex off the cycles waits for its ranges
    todo = [v]
    while todo:
        u = todo[-1]
        if u in memo:
            todo.pop()
        elif u in bases:
            alpha = least_cycle_at(g, u)
            beta = incomparable_closed_path(g, u, alpha)
            memo[u] = (path_element(g, alpha), path_element(g, beta))
        else:
            pending = [e.dst for e in g.out_edges[u] if e.dst not in memo]
            if pending:
                todo.extend(reversed(pending))
                continue
            s1 = s2 = None
            for e in g.out_edges[u]:
                inner1, inner2 = memo[e.dst]
                hop = path_element(g, (e.id,))
                wrap1 = multiply(multiply(hop, inner1), involute(hop))
                wrap2 = multiply(multiply(hop, inner2), involute(hop))
                s1 = wrap1 if s1 is None else s1 + wrap1
                s2 = wrap2 if s2 is None else s2 + wrap2
            memo[u] = (s1, s2)
    s1, s2 = memo[v]
    t1, t2 = involute(s1), involute(s2)
    unit = vertex_element(g, v)
    nil = zero(g)
    expected = [[unit, nil], [nil, unit]]
    for i, t in enumerate((t1, t2)):
        for j, s in enumerate((s1, s2)):
            if multiply(t, s) != expected[i][j]:
                raise InternalError("Cohn relations failed to verify")
    return CohnQuadruple(s1, s2, t1, t2)


# ---------------------------------------------------------------------------
# annihilating closed paths
# ---------------------------------------------------------------------------


def _word_candidates(alpha: Path, beta: Path, max_blocks: int) -> Iterator[Path]:
    """Nonempty words of at most ``max_blocks`` blocks in {alpha, beta},
    ordered by (path length, lex).  A word is longer than the word it
    extends, so popping a heap keyed that way yields them in order."""
    heap: list[tuple[int, tuple[str, ...], int]] = [(0, (), 0)]
    while heap:
        length, edges, blocks = heappop(heap)
        if blocks:
            yield Path(alpha.source, edges)
        if blocks < max_blocks:
            for block in (alpha, beta):
                heappush(heap, (length + block.length, edges + block.edges, blocks + 1))


def annihilating_closed_path(b: Element, v: str) -> Path:
    """A closed path s at v with s*·b·s = 0, for b with zero degree-zero part.

    The search walks words in two incomparable closed paths at v in order of
    increasing length, then falls back to the canonical aperiodic prefixes
    a·b·a²·b·a³·..., which are guaranteed to annihilate once long enough.
    """
    g = b.graph
    if not degree_component(b, 0).is_zero:
        raise NotDegreeFree("the element has a nonzero degree-zero component")
    _require_spi(g)
    alpha = least_cycle_at(g, v)
    beta = incomparable_closed_path(g, v, alpha)
    block = alpha.length + beta.length
    cap = (b.max_path_length() + 2) * block * 4

    def annihilates(sigma: Path) -> bool:
        s = path_element(g, sigma)
        return multiply(multiply(involute(s), b), s).is_zero

    # a word of at most 6 blocks is shorter than cap >= 8·block, so no cap check
    for sigma in _word_candidates(alpha, beta, max_blocks=6):
        if annihilates(sigma):
            return sigma

    prefix = Path(v)
    power = 1
    while prefix.length <= cap:
        prefix = Path(v, prefix.edges + alpha.edges * power + beta.edges)
        power += 1
        if prefix.length <= cap and annihilates(prefix):
            return prefix
    raise InternalError(
        "annihilating closed path not found within the guaranteed bound"
    )


# ---------------------------------------------------------------------------
# the witness
# ---------------------------------------------------------------------------


class Witness(NamedTuple):
    """x, y, v with x·a·y = v, plus the trace of the stages that built them."""

    x: Element
    y: Element
    v: str
    trace: tuple[dict, ...]

    def to_json_obj(self) -> dict:
        return {
            "x": element_to_json_obj(self.x),
            "y": element_to_json_obj(self.y),
            "v": self.v,
            "trace": [dict(step) for step in self.trace],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())


def witness_from_json_obj(g: Graph, obj: dict) -> Witness:
    x = element_from_json_obj(g, obj["x"])
    y = element_from_json_obj(g, obj["y"])
    return Witness(x, y, obj["v"], tuple(obj.get("trace", [])))


def make_witness(a: Element, x: Element, y: Element, v: str, trace) -> Witness:
    """Assemble a witness, re-checking x·a·y = v by exact multiplication."""
    if multiply(multiply(x, a), y) != vertex_element(a.graph, v):
        raise InternalError("witness identity x·a·y = v failed the exact re-check")
    return Witness(x, y, v, tuple(trace))


def _least_path_into(g: Graph, n: int, w: str) -> Path:
    """``enumerate_paths(g, n, end=w)[0]`` for n >= 1 without the enumeration.
    reach[r] holds the vertices with a path of exactly r edges into w; the
    least path starts with the least edge into reach[n - 1], then at each step
    takes the least edge whose range can still finish."""
    reach = [{w}]
    for _ in range(n - 1):
        reach.append({e.src for u in reach[-1] for e in g.in_edges[u]})
    first = min(e.id for e in g.edges if e.dst in reach[-1])
    source, at = g.edge_endpoints(first)
    edges = [first]
    alphabet = g.out_alphabet()
    for r in range(n - 2, -1, -1):
        eid, at = next((eid, dst) for eid, dst in alphabet[at] if dst in reach[r])
        edges.append(eid)
    return Path(source, tuple(edges))


def spi_witness(a: Element) -> Witness:
    """Produce x, y, v with x·a·y = v for a nonzero element over an SPI graph.

    Requires a finite row-finite graph without sources (route other graphs
    through remove_sources / desingularize first).  The stages:

    * Step 4: if the degree-zero part vanishes, shift the least nonzero
      homogeneous component to degree zero by composing with a path of
      matching length (ghost side for positive degree, path side for
      negative degree).
    * Step 3: extract a matrix entry of the degree-zero part, giving
      homogeneous x0, y0 with x0·a·y0 = u for a vertex u.
    * Step 2: route u to a cycle base along a path and kill the off-degree
      remainder with an annihilating closed path; exact arithmetic makes
      the resulting identity hold on the nose, so no invertible correction
      is needed (recorded in the trace as "z omitted").
    """
    g = a.graph
    if g.omega_pairs:
        raise OmegaUnsupported("the witness construction needs a row-finite graph; desingularize first")
    if any(g.is_source(v) for v in g.vertices):
        raise HasSources("the graph has sources; apply source removal first")
    _require_spi(g)
    if a.is_zero:
        raise ZeroElement("no witness for 0")

    trace: list[dict] = [{"step": "Normalize", "a": element_to_json_obj(a)}]
    work = a
    left = right = None  # Step 4's shift: alpha on the left or alpha* on the right

    if degree_component(work, 0).is_zero:
        n = min(work.degrees(), key=lambda d: (abs(d), d < 0))
        ends = {(m.beta if n > 0 else m.alpha).source for m, _ in degree_component(work, n).terms()}
        w = next(v for v in g.vertices if v in ends)
        alpha = _least_path_into(g, abs(n), w)
        if n > 0:
            right = involute(path_element(g, alpha))
            work = multiply(work, right)
        else:
            left = path_element(g, alpha)
            work = multiply(left, work)
        trace.append(
            {
                "step": "Step4",
                "n": n,
                "alpha": list(alpha.edges),
                "alpha_src": alpha.source,
                "vertex": w,
            }
        )

    a0 = degree_component(work, 0)
    dzw = degree_zero_witness(a0)
    trace.append(
        {
            "step": "Step3",
            "x0": element_to_json_obj(dzw.x),
            "y0": element_to_json_obj(dzw.y),
            "u": dzw.vertex,
            "h": dzw.h,
        }
    )
    work2 = multiply(multiply(dzw.x, work), dzw.y)

    eta = path_to_cycle_base(g, dzw.vertex)
    v_out = g.range_of(eta)
    eta_elem = path_element(g, eta)
    conj = multiply(multiply(involute(eta_elem), work2), eta_elem)
    b = conj - vertex_element(g, v_out)
    sigma = annihilating_closed_path(b, v_out)
    trace.append(
        {
            "step": "Step2",
            "eta": list(eta.edges),
            "eta_src": eta.source,
            "b": element_to_json_obj(b),
            "sigma": list(sigma.edges),
            "sigma_src": sigma.source,
            "z": "omitted (exact)",
        }
    )

    tail = path_element(g, g.concat(eta, sigma))
    x = multiply(involute(tail), dzw.x)
    y = multiply(dzw.y, tail)
    if left is not None:
        x = multiply(x, left)
    if right is not None:
        y = multiply(right, y)
    return make_witness(a, x, y, v_out, trace)
