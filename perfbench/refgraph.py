"""Graphs, elements and reference answers for the benchmark, built without
importing leavitt_lab.

Graphs are plain JSON objects in the program's input format
(``{"vertices": [...], "edges": [{"id", "src", "dst"}], "omega": [...]}``), so
a change to the package cannot change the generated inputs or the answers the
outputs are checked against.  Elements are lists of JSON terms in normal form:
no term has both paths ending in the designated (least-id) out-edge of a
regular vertex, and no monomial repeats, so a generated element is nonzero.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


# ---------------------------------------------------------------------------
# graph families
# ---------------------------------------------------------------------------


def make_graph(vertices, edges, omega=(), frontier=()) -> dict:
    frontier = set(frontier)
    obj = {
        "vertices": [{"id": v, "frontier": True} if v in frontier else v for v in vertices],
        "edges": [{"id": e, "src": s, "dst": d} for e, s, d in edges],
    }
    if omega:
        obj["omega"] = [{"src": s, "dst": d} for s, d in omega]
    return obj


def vertex_ids(g: dict) -> list[str]:
    return [v if isinstance(v, str) else v["id"] for v in g["vertices"]]


def frontier_ids(g: dict) -> set[str]:
    return {v["id"] for v in g["vertices"] if not isinstance(v, str) and v.get("frontier")}


def ring_loop(n: int) -> dict:
    """v0 -> v1 -> ... -> v(n-1) -> v0 plus a loop at v0: simple purely infinite."""
    vs = [f"v{i}" for i in range(n)]
    edges = [(f"r{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    return make_graph(vs, edges + [("l", "v0", "v0")])


def complete_digraph(n: int) -> dict:
    """Every ordered pair of distinct vertices joined once, no loops: simple purely infinite."""
    vs = [f"k{i}" for i in range(n)]
    return make_graph(vs, [(f"e{i}_{j}", vs[i], vs[j]) for i in range(n) for j in range(n) if i != j])


def rose(n: int) -> dict:
    names = "efghklmn"
    return make_graph(["v"], [(names[i], "v", "v") for i in range(n)])


def line(n_edges: int) -> dict:
    vs = [f"v{i}" for i in range(n_edges + 1)]
    return make_graph(vs, [(f"e{i}", vs[i - 1], vs[i]) for i in range(1, n_edges + 1)])


def spi_fixtures() -> dict[str, dict]:
    """The row-finite, source-free fixtures that classify simple purely infinite."""
    return {
        "r2": rose(2),
        "r3": rose(3),
        "spi3": make_graph(
            ["a", "b", "c"],
            [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"), ("f", "b", "a")],
        ),
        "spi4": make_graph(
            ["a", "b", "c", "d"],
            [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d"), ("e4", "d", "a"), ("f", "c", "a")],
        ),
        "rand4b": make_graph(
            ["p", "q", "r", "s"],
            [("g1", "p", "q"), ("g2", "q", "p"), ("g3", "q", "r"), ("g4", "r", "s"), ("g5", "s", "q")],
        ),
    }


def random_digraph(rng: random.Random, n: int, omega_pairs: int = 0) -> dict:
    """n vertices a, b, ... with out-degree 0 to 2 each and optional omega pairs.

    Ids never collide with the names desingularization generates
    (``<v>_<k>``, ``<v>_t<k>``, ``<v>~<w>^<k>``).
    """
    vs = [chr(ord("a") + i) for i in range(n)]
    edges = []
    for v in vs:
        for _ in range(rng.choice((0, 1, 1, 2, 2))):
            edges.append((f"x{len(edges)}", v, rng.choice(vs)))
    omega = []
    for _ in range(omega_pairs):
        pair = (rng.choice(vs), rng.choice(vs))
        if pair not in omega:
            omega.append(pair)
    return make_graph(vs, edges, omega)


def random_dag(rng: random.Random, n: int, chords: int) -> dict:
    """A spine d0 -> ... -> d(n-1) plus forward chords: finite and acyclic."""
    vs = [f"d{i}" for i in range(n)]
    edges = [(f"s{i}", vs[i], vs[i + 1]) for i in range(n - 1)]
    for k in range(chords):
        i = rng.randrange(n - 2)
        j = rng.randrange(i + 2, n)
        edges.append((f"c{k}", vs[i], vs[j]))
    return make_graph(vs, edges)


# ---------------------------------------------------------------------------
# structure shared by the reference algorithms
# ---------------------------------------------------------------------------


class Shape:
    """Adjacency of a graph object; omega pairs stand for infinitely many edges."""

    def __init__(self, g: dict):
        self.vertices = vertex_ids(g)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.frontier = frontier_ids(g)
        self.edges = [(e["id"], e["src"], e["dst"]) for e in g["edges"]]
        self.omega = [(o["src"], o["dst"]) for o in g.get("omega", [])]
        self.out = {v: [] for v in self.vertices}
        for eid, s, d in self.edges:
            self.out[s].append((eid, d))
        self.emitters = {s for s, _ in self.omega}
        self.targets = {v: {d for _, d in self.out[v]} for v in self.vertices}
        for s, d in self.omega:
            self.targets[s].add(d)

    def regular(self, v: str) -> bool:
        return bool(self.out[v]) and v not in self.emitters

    def designated(self) -> set[str]:
        return {min(eid for eid, _ in self.out[v]) for v in self.vertices if self.regular(v)}

    def mask(self, vs) -> int:
        m = 0
        for v in vs:
            m |= 1 << self.index[v]
        return m


def reachable(shape: Shape, start: str) -> set[str]:
    seen, stack = {start}, [start]
    while stack:
        for d in shape.targets[stack.pop()]:
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return seen


# ---------------------------------------------------------------------------
# brute-force classifier
# ---------------------------------------------------------------------------

BRUTE_FORCE_MAX_VERTICES = 12


def exitless_cycle_exists(shape: Shape) -> bool:
    """Some cycle whose every vertex emits exactly one edge (omega pairs emit infinitely many)."""
    for v in shape.vertices:
        at = v
        for _ in range(len(shape.vertices)):
            if at in shape.emitters or len(shape.out[at]) != 1:
                break
            at = shape.out[at][0][1]
            if at == v:
                return True
    return False


def has_cycle(shape: Shape) -> bool:
    return any(v in reachable(shape, d) for v in shape.vertices for d in shape.targets[v])


def hereditary_saturated_sets(shape: Shape) -> list[int]:
    """Every hereditary saturated vertex set, as bitmasks, by trying all 2^n subsets."""
    n = len(shape.vertices)
    if n > BRUTE_FORCE_MAX_VERTICES:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_MAX_VERTICES} vertices")
    targets = [shape.mask(shape.targets[v]) for v in shape.vertices]
    regular = [shape.regular(v) for v in shape.vertices]
    found = []
    for h in range(1 << n):
        ok = True
        for i in range(n):
            inside = h >> i & 1
            if inside and targets[i] & ~h:
                ok = False  # not hereditary
                break
            if not inside and regular[i] and not targets[i] & ~h:
                ok = False  # not saturated
                break
        if ok:
            found.append(h)
    return found


def expected_classification(g: dict) -> tuple[str, str]:
    """(verdict, witness kind) the classifier must report.

    Frontier vertices are truncation stubs: a hereditary saturated set counts
    against simplicity only when it holds a non-frontier vertex, exactly as
    ``classify --frontier sink`` treats them.
    """
    shape = Shape(g)
    if exitless_cycle_exists(shape):
        return "NotSimple", "cycle"
    full = (1 << len(shape.vertices)) - 1
    seeds = full & ~shape.mask(shape.frontier)
    for h in hereditary_saturated_sets(shape):
        if h != full and h & seeds:
            return "NotSimple", "hereditary_saturated"
    if has_cycle(shape):
        return "SimplePurelyInfinite", "cycle"
    return "SimpleAcyclic", "acyclic"


def witness_problem(g: dict, verdict: str, witness: dict) -> str | None:
    """Why a reported classification witness is invalid, or None."""
    shape = Shape(g)
    kind = witness.get("kind")
    if kind == "acyclic":
        return None if not has_cycle(shape) else "graph has a cycle"
    if kind == "hereditary_saturated":
        h = set(witness["vertices"])
        if not h or h == set(shape.vertices) or not h <= set(shape.vertices):
            return "hereditary saturated witness is empty, full or foreign"
        for v in h:
            if not shape.targets[v] <= h:
                return f"witness is not hereditary at {v}"
        for v in set(shape.vertices) - h:
            if shape.regular(v) and shape.targets[v] <= h:
                return f"witness is not saturated at {v}"
        return None
    if kind != "cycle":
        return f"unknown witness kind {kind!r}"
    ends = {eid: (s, d) for eid, s, d in shape.edges}
    for s, d in shape.omega:
        ends[f"{s}~{d}^1"] = (s, d)
    edges = witness["edges"]
    if not edges or any(e not in ends for e in edges):
        return "cycle witness has unknown edges"
    at = witness["src"]
    visited = []
    for e in edges:
        s, d = ends[e]
        if s != at:
            return "cycle witness is not a path"
        visited.append(s)
        at = d
    if at != witness["src"] or len(set(visited)) != len(visited):
        return "cycle witness is not a simple closed path"
    if min(edges[i:] + edges[:i] for i in range(len(edges))) != edges:
        return "cycle witness is not in canonical rotation"
    exitless = all(v not in shape.emitters and len(shape.out[v]) == 1 for v in visited)
    if verdict == "NotSimple" and not exitless:
        return "NotSimple cycle witness has an exit"
    return None


# ---------------------------------------------------------------------------
# reference graph surgeries
# ---------------------------------------------------------------------------


def remove_sources(g: dict) -> dict:
    """Iterated deletion of vertices that receive no edge."""
    vs, fr = vertex_ids(g), frontier_ids(g)
    edges = [(e["id"], e["src"], e["dst"]) for e in g["edges"]]
    omega = [(o["src"], o["dst"]) for o in g.get("omega", [])]
    while True:
        hit = {d for _, _, d in edges} | {d for _, d in omega}
        doomed = {v for v in vs if v not in hit}
        if not doomed:
            return make_graph(vs, edges, omega, fr)
        vs = [v for v in vs if v not in doomed]
        edges = [e for e in edges if e[1] not in doomed]
        omega = [o for o in omega if o[0] not in doomed]


def reachable_subgraph(g: dict, start: str) -> dict:
    keep = reachable(Shape(g), start)
    return make_graph(
        [v for v in vertex_ids(g) if v in keep],
        [(e["id"], e["src"], e["dst"]) for e in g["edges"] if e["src"] in keep],
        [(o["src"], o["dst"]) for o in g.get("omega", []) if o["src"] in keep],
        frontier_ids(g) & keep,
    )


def desingularize(g: dict, depth: int) -> dict:
    """Truncated desingularization, for graphs whose ids cannot collide with generated ones.

    Each infinite emitter v enumerates its explicit edges by id, then depth
    rounds of its omega pairs by range id; the k-th enumerated edge departs the
    (k-1)-th vertex of the tail v, v_1, v_2, ...; the last tail vertex is a
    frontier stub.
    """
    shape = Shape(g)
    emitters = [v for v in shape.vertices if v in shape.emitters]
    vertices = list(shape.vertices)
    edges = [e for e in shape.edges if e[1] not in shape.emitters]
    frontier = set(shape.frontier)
    for v in emitters:
        enumerated = sorted((eid, d) for eid, d in shape.out[v])
        pairs = sorted(d for s, d in shape.omega if s == v)
        for k in range(1, depth + 1):
            enumerated += [(f"{v}~{d}^{k}", d) for d in pairs]
        tail = [v] + [f"{v}_{k}" for k in range(1, len(enumerated) + 1)]
        vertices += tail[1:]
        edges += [(f"{v}_t{k}", tail[k - 1], tail[k]) for k in range(1, len(tail))]
        edges += [(eid, tail[k - 1], d) for k, (eid, d) in enumerate(enumerated, start=1)]
        frontier.add(tail[-1])
    return make_graph(vertices, edges, (), frontier)


def complete(g: dict, sub_vertices: list[str], sub_edges: list[str]) -> dict:
    """The completed graph of the subgraph (sub_vertices, sub_edges) of a row-finite g.

    A vertex emitting in the subgraph some but not all of its edges in g gets a
    primed twin v', and each subgraph edge into it a primed twin e' into v'.
    """
    shape = Shape(g)
    ends = {eid: (s, d) for eid, s, d in shape.edges}
    f_out = {v: {e for e in sub_edges if ends[e][0] == v} for v in sub_vertices}
    incomplete = [
        v for v in sub_vertices if f_out[v] and len(f_out[v]) < len(shape.out[v])
    ]
    edges = [(e, *ends[e]) for e in sub_edges]
    edges += [(e + "'", ends[e][0], ends[e][1] + "'") for e in sub_edges if ends[e][1] in incomplete]
    return make_graph(list(sub_vertices) + [v + "'" for v in incomplete], edges)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


def coefficient(rng: random.Random) -> tuple[str, str]:
    while True:
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        im = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        if re or im:
            return frac(re), frac(im)


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def term(alpha_src, alpha, beta_src, beta, re="1/1", im="0/1") -> dict:
    return {
        "alpha": list(alpha),
        "alpha_src": alpha_src,
        "beta": list(beta),
        "beta_src": beta_src,
        "re": re,
        "im": im,
    }


def star(element: list[dict]) -> list[dict]:
    """The involution: swap the paths and conjugate the coefficient."""
    out = []
    for t in element:
        im = Fraction(t["im"])
        out.append(term(t["beta_src"], t["beta"], t["alpha_src"], t["alpha"], t["re"], frac(-im)))
    return out


def path_range(shape: Shape, src: str, edges) -> str:
    ends = {eid: d for eid, _, d in shape.edges}
    return ends[edges[-1]] if edges else src


def paths_into(shape: Shape, max_len: int) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """(source, edges) of every path of length <= max_len, grouped by range."""
    pool: dict[str, list] = {v: [] for v in shape.vertices}
    level = [(v, (), v) for v in shape.vertices]
    for _ in range(max_len + 1):
        nxt = []
        for src, edges, at in level:
            pool[at].append((src, edges))
            nxt.extend((src, edges + (eid,), d) for eid, d in shape.out[at])
        level = nxt
    return pool


def random_element(
    g: dict, rng: random.Random, n_terms: int, max_len: int, pool=None
) -> list[dict]:
    """n_terms distinct normal-form monomials with random nonzero coefficients."""
    shape = Shape(g)
    designated = shape.designated()
    pool = pool or paths_into(shape, max_len)
    flat = [(at, p) for at, ps in pool.items() for p in ps]
    chosen: dict[tuple, dict] = {}
    while len(chosen) < n_terms:
        at, (a_src, a) = rng.choice(flat)
        b_src, b = rng.choice(pool[at])
        if a and b and a[-1] == b[-1] and a[-1] in designated:
            continue
        chosen.setdefault((a_src, a, b_src, b), term(a_src, a, b_src, b, *coefficient(rng)))
    return list(chosen.values())


def normal_form_problem(g: dict, element: list[dict]) -> str | None:
    """Why a JSON element is not in normal form over g, or None."""
    shape = Shape(g)
    designated = shape.designated()
    seen = set()
    for t in element:
        a, b = t["alpha"], t["beta"]
        if path_range(shape, t["alpha_src"], a) != path_range(shape, t["beta_src"], b):
            return "term paths do not share their range"
        if a and b and a[-1] == b[-1] and a[-1] in designated:
            return f"term ends twice in the designated edge {a[-1]}"
        if Fraction(t["re"]) == 0 and Fraction(t["im"]) == 0:
            return "zero coefficient"
        key = (t["alpha_src"], tuple(a), t["beta_src"], tuple(b))
        if key in seen:
            return "repeated monomial"
        seen.add(key)
    return None


# ---------------------------------------------------------------------------
# l^1 operator norm over a finite acyclic graph
# ---------------------------------------------------------------------------


def sink_tails(shape: Shape, v: str) -> list[tuple[str, ...]]:
    """Edge tuples of every path from v to a sink (the empty tuple if v is a sink)."""
    if not shape.out[v]:
        return [()]
    return [(eid, *rest) for eid, d in shape.out[v] for rest in sink_tails(shape, d)]


def l1_norm(g: dict, element: list[dict]) -> float:
    """||a||_1 of an element over a finite acyclic graph: the largest absolute
    column sum of its sink-block matrices.

    Each term c·a·b* expands through the paths t from r(a) to the sinks into
    the matrix units c·E(at, bt); a column is a path bt into one sink, so
    summing exact entries per column covers every block at once.
    """
    shape = Shape(g)
    entries: dict[tuple, list[Fraction]] = {}
    for t in element:
        at = path_range(shape, t["alpha_src"], t["alpha"])
        c = (Fraction(t["re"]), Fraction(t["im"]))
        for tail in sink_tails(shape, at):
            row = (t["alpha_src"], (*t["alpha"], *tail))
            col = (t["beta_src"], (*t["beta"], *tail))
            entry = entries.setdefault((row, col), [Fraction(0), Fraction(0)])
            entry[0] += c[0]
            entry[1] += c[1]
    columns: dict[tuple, float] = {}
    for (_, col), (re, im) in entries.items():
        columns[col] = columns.get(col, 0.0) + math.hypot(re, im)
    return max(columns.values(), default=0.0)
