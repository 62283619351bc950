"""Constructive pure-infiniteness machinery.

For a finite row-finite graph whose classifier verdict is simple purely
infinite, every nonzero element a admits x, y and a vertex v with x·a·y = v,
exactly.  The witness is produced in stages: shift a nonzero
homogeneous component to degree zero, extract a matrix entry there, route to a
cycle base, and kill the off-degree remainder with a closed path that leaves
the least cycle there by an exit.  Because the arithmetic is exact, no
invertible correction factor is needed at the last stage.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    FrontierPresent,
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
    _grouped,
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
    g.require_vertex(v)
    if length == 0:
        return [Path(v)]
    return list(_closed_paths(g, v, length, omega_copies, _steps_to(g, {v})))


def _steps_to(g: Graph, targets: Iterable[str]) -> dict[str, int]:
    """Steps from each vertex to the nearest of ``targets``, by BFS over the
    predecessors in ``g.out_alphabet()``; a vertex that reaches none is
    missing.  Omega pairs count as edges: for a walk whose alphabet has none,
    that is a lower bound."""
    alphabet = g.out_alphabet()
    preds = _grouped(
        g.vertices, [(u, w) for u in alphabet for _, w in alphabet[u]], itemgetter(1), itemgetter(0)
    )
    steps_to = dict.fromkeys(targets, 0)
    level = list(steps_to)
    steps = 0
    while level:
        steps += 1
        nxt = []
        for w in level:
            for u in preds[w]:
                if u not in steps_to:
                    steps_to[u] = steps
                    nxt.append(u)
        level = nxt
    return steps_to


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


def _descend(alphabet, steps: dict[str, int], at: str) -> tuple[str, ...]:
    """The least shortest path from ``at`` to a vertex at 0 ``steps``: at each
    step the least edge whose range is one step nearer."""
    edges = []
    for left in range(steps[at] - 1, -1, -1):
        for eid, at in alphabet[at]:
            if steps.get(at) == left:
                break
        edges.append(eid)
    return tuple(edges)


def incomparable_closed_path(g: Graph, v: str, alpha: Path) -> Path:
    """The least closed path at v, by (length, lex) over ``g.out_alphabet(2)``,
    incomparable with alpha in the path order.

    Such a path follows alpha's first i edges and then leaves alpha by another
    edge e, for some i < |alpha|; when alpha starts elsewhere than v, every
    closed path at v is incomparable with it, so it is left at once, at i = 0.
    The least length through (i, e) is i + 1 + the steps from r(e) back to v.
    Two candidates of one length are ordered where they diverge: e against
    alpha[i], or e against another edge at the same i.  So one scan along
    alpha picks (i, e), and the tail is the least shortest return.  The scan
    stops where alpha leaves the alphabet (an omega copy ^3, say), as every
    closed path in it must diverge there.  O(|alpha|·out-degree + V + E).
    """
    g.require_vertex(v)
    alphabet = g.out_alphabet(2)
    steps = _steps_to(g, {v})
    ahead = alpha.edges if alpha.source == v else (None,)  # None matches no edge
    best = None  # (length, i, e, r(e)) of the least candidate so far
    at = v
    for i, edge in enumerate(ahead):
        if best is not None and i >= best[0]:  # every later candidate is longer
            break
        follow = None
        for eid, dst in alphabet[at]:
            if eid == edge:
                follow = dst
            elif dst in steps:
                length = i + 1 + steps[dst]
                # on a tie, a later i wins where it keeps alpha[best i] < best e
                if best is None or length < best[0] or (
                    length == best[0] and best[1] < i and ahead[best[1]] < best[2]
                ):
                    best = (length, i, eid, dst)
        if follow is None:
            break
        at = follow
    if best is None:
        raise InternalError(
            "no incomparable closed path found; the graph cannot be simple purely infinite"
        )
    _, i, eid, dst = best
    return Path(v, alpha.edges[:i] + (eid,) + _descend(alphabet, steps, dst))


def path_to_cycle_base(g: Graph, v: str) -> Path:
    """Shortest-lex path from v to a vertex lying on a cycle (trivial if v
    does): at each step the least edge whose range is one step nearer one."""
    g.require_vertex(v)
    bases = g.analysis.cycle_bases
    if v in bases:
        return Path(v)
    steps = _steps_to(g, bases)
    if v not in steps:
        raise InternalError(f"no path from {v!r} to a cycle; the graph is not simple purely infinite")
    return Path(v, _descend(g.out_alphabet(), steps, v))


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
    wanted = dict.fromkeys(V)
    for v in wanted:
        g.require_vertex(v)
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


def annihilating_closed_path(b: Element, v: str) -> Path:
    """A closed path σ at v with σ*·b·σ = 0, for b with zero degree-zero part,
    built from an exit of the least cycle c at v with no product formed (the
    Reduction Theorem argument: Abrams, Ara and Siles Molina, *Leavitt Path
    Algebras*, LNM 2191, 2017, §2.2).

    Walk c from v to the first position i whose vertex emits, in
    ``g.out_alphabet(2)``, an edge other than c[i]; f is the least such edge
    (an omega pair's ^2 copy counts), and condition (L) of an SPI graph gives
    c one.  Let π = c^N·c[:i]·f with the least N >= 0 that makes π longer
    than every path in b.  A term λ·μ* of b has |λ| ≠ |μ|, and π*·λ·μ*·π is
    nonzero only where π = λ·τ = μ·τ', when it is τ*·τ' for nontrivial
    suffixes τ, τ' of π of different lengths.  c is a simple cycle, so f
    occurs in π only at its end, neither suffix is a prefix of the other, and
    τ*·τ' = 0.  So π*·b·π = 0, and σ = π·ρ keeps it 0, where ρ is the least
    shortest path from r(f) back to v.  A zero b takes σ = v.
    """
    g = b.graph
    if not degree_component(b, 0).is_zero:
        raise NotDegreeFree("the element has a nonzero degree-zero component")
    _require_spi(g)
    c = least_cycle_at(g, v)
    if b.is_zero:
        return Path(v)
    alphabet = g.out_alphabet(2)
    at = v
    for i, edge in enumerate(c.edges):
        exits = [out for out in alphabet[at] if out[0] != edge]
        if exits:
            break
        ((_, at),) = alphabet[at]  # at emits c[i] alone
    f, dst = exits[0]
    laps = max(0, -((i - b.max_path_length()) // c.length))  # least N: N·|c| + i >= max
    rho = _descend(g.out_alphabet(), _steps_to(g, {v}), dst)
    return Path(v, c.edges * laps + c.edges[:i] + (f,) + rho)


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


def spi_witness(a: Element) -> Witness:
    """Produce x, y, v with x·a·y = v for a nonzero element over an SPI graph.

    Requires a whole finite row-finite graph: one with infinite emitters is
    refused with OmegaUnsupported, and a truncation (a graph with frontier
    vertices, as ``desingularize`` makes) with FrontierPresent.  Sources are
    allowed.  The stages:

    * Step 4: if the degree-zero part vanishes, shift the least nonzero
      homogeneous component a_n to degree zero by a prefix gamma of its least
      term: the first n edges of that term's alpha, taken as gamma* on the
      left, when n > 0; the first |n| edges of its beta, taken as gamma on
      the right, when n < 0.  gamma·gamma*·a_n (or a_n·gamma·gamma*) is the
      part of a_n whose terms start with gamma, which holds the least term,
      so the shifted degree-zero part is nonzero.
    * Step 3: extract a matrix entry of the degree-zero part, giving
      homogeneous x0, y0 with x0·a·y0 = u for a vertex u.
    * Step 2: route u to a cycle base along a path and kill the off-degree
      remainder with an annihilating closed path; exact arithmetic makes
      the resulting identity hold on the nose, so no invertible correction
      is needed (recorded in the trace as "z omitted").
    """
    g = a.graph
    if g.omega_pairs:
        raise OmegaUnsupported("the witness construction needs a row-finite graph")
    if g.frontier:
        raise FrontierPresent(
            "graph has truncation-frontier vertices; the witness construction needs a whole graph"
        )
    _require_spi(g)
    if a.is_zero:
        raise ZeroElement("no witness for 0")

    trace: list[dict] = [{"step": "Normalize", "a": element_to_json_obj(a)}]
    work = a
    left = right = None  # Step 4's shift: gamma* on the left or gamma on the right

    if degree_component(work, 0).is_zero:
        n = min(work.degrees(), key=lambda d: (abs(d), d < 0))
        least = degree_component(work, n).terms()[0][0]
        if n > 0:
            gamma = Path(least.alpha.source, least.alpha.edges[:n])
            left = involute(path_element(g, gamma))
            work = multiply(left, work)
        else:
            gamma = Path(least.beta.source, least.beta.edges[:-n])
            right = path_element(g, gamma)
            work = multiply(work, right)
        trace.append(
            {
                "step": "Step4",
                "n": n,
                "alpha": list(gamma.edges),
                "alpha_src": gamma.source,
                "vertex": g.range_of(gamma),
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
