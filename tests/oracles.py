"""Independent oracle implementations used to cross-check production code.

Everything here works from the raw Graph fields (vertex/edge tuples, omega
pairs) with its own traversal logic, so that agreement with the production
modules is meaningful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from leavitt_lab.errors import BecameEmpty, FormatError
from leavitt_lab.graph import Graph, Path, find_cycles, least_cycle_at
from leavitt_lab.lpa import (
    Element,
    GaussianRational,
    Monomial,
    involute,
    monomial_key,
    multiply,
    path_element,
)
from leavitt_lab.matricial import acyclic_decompose
from leavitt_lab.spi import incomparable_closed_path


def _raw_out(g: Graph) -> dict[str, list[tuple[str, str]]]:
    out: dict[str, list[tuple[str, str]]] = {v: [] for v in g.vertices}
    for e in g.edges:
        out[e.src].append((e.id, e.dst))
    return out


def _raw_omega_src(g: Graph) -> dict[str, list[str]]:
    om: dict[str, list[str]] = {v: [] for v in g.vertices}
    for s, d in g.omega_pairs:
        om[s].append(d)
    return om


def all_hereditary_saturated_sets(g: Graph) -> list[frozenset[str]]:
    """Every hereditary saturated vertex set, by brute force over all subsets."""
    verts = list(g.vertices)
    out = _raw_out(g)
    om = _raw_omega_src(g)
    regular = [v for v in verts if out[v] and not om[v]]
    result = []
    n = len(verts)
    for mask in range(1 << n):
        subset = frozenset(verts[i] for i in range(n) if mask & (1 << i))
        hereditary = all(
            dst in subset for v in subset for _, dst in out[v]
        ) and all(dst in subset for v in subset for dst in om[v])
        if not hereditary:
            continue
        saturated = all(
            v in subset
            for v in regular
            if all(dst in subset for _, dst in out[v])
        )
        if saturated:
            result.append(subset)
    return result


def oracle_cycles(g: Graph) -> set[tuple[str, ...]]:
    """Cycles (distinct-source closed edge walks) up to rotation, brute force.

    Every composable edge walk with distinct sources is extended one edge at a
    time; the closed ones are kept in their least rotation.  Omega pairs
    contribute a single representative parallel edge.
    """
    edge_list = [(e.id, e.src, e.dst) for e in g.edges]
    for s, d in g.omega_pairs:
        edge_list.append((f"{s}~{d}^1", s, d))
    cycles: set[tuple[str, ...]] = set()
    walks = [((eid,), (src,), dst) for eid, src, dst in edge_list]
    while walks:
        longer = []
        for seq, sources, at in walks:
            if at == sources[0]:
                cycles.add(min(seq[i:] + seq[:i] for i in range(len(seq))))
                continue
            if at in sources:
                continue
            for eid, src, dst in edge_list:
                if src == at:
                    longer.append((seq + (eid,), sources + (src,), dst))
        walks = longer
    return cycles


def is_cycle_cofinal(g: Graph) -> bool:
    """Cofinality relative to cycles: every vertex reaches every cycle.

    This is vacuously true for acyclic graphs, which is why the classifier
    decides simplicity through hereditary saturated sets instead.
    """
    out = _raw_out(g)
    om = _raw_omega_src(g)
    src_of = {e.id: e.src for e in g.edges}
    src_of.update({f"{s}~{d}^1": s for s, d in g.omega_pairs})
    cycles = [{src_of[eid] for eid in cycle} for cycle in oracle_cycles(g)]
    for v in g.vertices:
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for dst in [d for _, d in out[u]] + om[u]:
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        if any(not cycle & seen for cycle in cycles):
            return False
    return True


def oracle_least_cycle_at(g: Graph, v: str) -> tuple[str, ...] | None:
    """Least rotation starting at v over all cycles through v, or None."""
    by_id = {e.id: e.src for e in g.edges}
    by_id.update({f"{s}~{d}^1": s for s, d in g.omega_pairs})
    best = None
    for cycle in oracle_cycles(g):
        for i, eid in enumerate(cycle):
            if by_id[eid] == v:
                rotated = cycle[i:] + cycle[:i]
                best = rotated if best is None or rotated < best else best
    return best


def oracle_closed_paths_at(g: Graph, v: str, length: int, omega_copies: int = 2) -> list[Path]:
    """Closed paths at v of the given length, by a recursive walk over every
    walk of that length from v, sorted by edge ids.  Each omega pair
    contributes its first ``omega_copies`` parallel edges."""
    out = _raw_out(g)
    for s, d in g.omega_pairs:
        out[s] += [(f"{s}~{d}^{k}", d) for k in range(1, omega_copies + 1)]
    found: list[Path] = []

    def walk(at: str, edges: list[str]) -> None:
        if len(edges) == length:
            if at == v:
                found.append(Path(v, tuple(edges)))
            return
        for eid, dst in out[at]:
            edges.append(eid)
            walk(dst, edges)
            edges.pop()

    walk(v, [])
    return sorted(found, key=lambda p: p.edges)


def oracle_word_candidates(alpha: Path, beta: Path, max_blocks: int) -> list[Path]:
    """Every nonempty word of at most ``max_blocks`` blocks in {alpha, beta},
    built level by level and sorted by (path length, lex)."""
    words: list[Path] = []
    level: list[Path] = [Path(alpha.source)]
    for _ in range(max_blocks):
        nxt = []
        for w in level:
            for block in (alpha, beta):
                nxt.append(Path(w.source, w.edges + block.edges))
        words.extend(nxt)
        level = nxt
    words.sort(key=lambda p: (p.length, p.edges))
    return words


def oracle_cycle_has_exit(g: Graph, cycle: tuple[str, ...]) -> bool:
    out = _raw_out(g)
    om = _raw_omega_src(g)
    by_id = {e.id: (e.src, e.dst) for e in g.edges}
    for s, d in g.omega_pairs:
        for k in (1, 2):
            by_id[f"{s}~{d}^{k}"] = (s, d)
    for eid in cycle:
        src = by_id[eid][0]
        if any(other != eid for other, _ in out[src]):
            return True
        if om[src]:
            return True
    return False


def oracle_closure(g: Graph, seed) -> frozenset[str]:
    """Hereditary saturated closure by repeated full passes until nothing changes."""
    out = _raw_out(g)
    om = _raw_omega_src(g)
    closure = set(seed)
    changed = True
    while changed:
        changed = False
        for v in list(closure):
            for dst in [d for _, d in out[v]] + om[v]:
                if dst not in closure:
                    closure.add(dst)
                    changed = True
        for v in g.vertices:
            if v in closure or not out[v] or om[v]:
                continue
            if all(dst in closure for _, dst in out[v]):
                closure.add(v)
                changed = True
    return frozenset(closure)


def oracle_classify(g: Graph) -> tuple[str, object]:
    """(verdict value, witness) by the exhaustive method.

    Every cycle from ``find_cycles`` is checked for an exit, in canonical
    order; then the closure of each non-frontier vertex, in input order, is
    compared with the full vertex set.
    """
    cycles = find_cycles(g)
    for cycle, exits in cycles:
        if not exits:
            return "NotSimple", cycle
    full = frozenset(g.vertices)
    for v in g.vertices:
        if v in g.frontier:
            continue
        closure = oracle_closure(g, [v])
        if closure != full:
            return "NotSimple", closure
    if cycles:
        return "SimplePurelyInfinite", cycles[0][0]
    return "SimpleAcyclic", "acyclic"


def oracle_is_simple(g: Graph) -> bool:
    """Simplicity by definition: trivial hereditary saturated lattice plus exits."""
    sets = all_hereditary_saturated_sets(g)
    full = frozenset(g.vertices)
    if any(s not in (frozenset(), full) for s in sets):
        return False
    return all(oracle_cycle_has_exit(g, c) for c in oracle_cycles(g))


def oracle_remove_sources(g: Graph) -> Graph:
    """Source removal round by round: delete every current source, rebuild
    the graph, and repeat until no source is left."""
    current = g
    while True:
        sources = [v for v in current.vertices if current.is_source(v)]
        if not sources:
            if not current.vertices:
                raise BecameEmpty("source removal deleted every vertex")
            return current
        doomed = set(sources)
        vertices = tuple(v for v in current.vertices if v not in doomed)
        if not vertices:
            raise BecameEmpty("source removal deleted every vertex")
        edges = tuple(e for e in current.edges if e.src not in doomed)
        omega = tuple(p for p in current.omega_pairs if p[0] not in doomed)
        current = Graph(vertices, edges, omega, current.frontier & set(vertices))


def oracle_cohn_pair(g: Graph, v: str) -> tuple[Element, Element]:
    """(s1, s2) of the Cohn elements at v by recursion over the out-edges:
    two incomparable closed paths at a cycle base, else the sum over the
    edges e of e·s_i(r(e))·e*.  One Python frame per vertex off the cycles."""
    if v in g.analysis.cycle_bases:
        alpha = least_cycle_at(g, v)
        beta = incomparable_closed_path(g, v, alpha)
        return path_element(g, alpha), path_element(g, beta)
    sums = []
    for i in (0, 1):
        terms = []
        for e in g.out_edges[v]:
            hop = path_element(g, (e.id,))
            terms.append(multiply(multiply(hop, oracle_cohn_pair(g, e.dst)[i]), involute(hop)))
        sums.append(sum(terms[1:], terms[0]))
    return sums[0], sums[1]


def oracle_path(g: Graph, source: str, edges) -> Path:
    """``Graph.path`` as an edge-by-edge check: type, then endpoints, then
    composability, with one ``edge_endpoints`` call for each id not listed."""
    g.require_vertex(source)
    at = source
    edges = tuple(edges)
    for eid in edges:
        if not isinstance(eid, str):
            raise ValueError(f"edge id {eid!r} must be a string")
        e = g.edge_by_id.get(eid)
        src, dst = (e.src, e.dst) if e is not None else g.edge_endpoints(eid)
        if src != at:
            raise ValueError(f"edge {eid!r} does not depart {at!r}")
        at = dst
    return Path(source, edges)


def oracle_paths(g: Graph, n: int) -> list[tuple[str, tuple[str, ...]]]:
    """(source, edge sequence) of every length-n path, by filtering raw products."""
    if n == 0:
        return [(v, ()) for v in g.vertices]
    by_id = {e.id: (e.src, e.dst) for e in g.edges}
    found = []
    for seq in product(list(by_id), repeat=n):
        if all(by_id[seq[i]][1] == by_id[seq[i + 1]][0] for i in range(n - 1)):
            found.append((by_id[seq[0]][0], seq))
    return sorted(found, key=lambda t: t[1])


def oracle_redexes(g: Graph, terms) -> list[Monomial]:
    """The excluded monomials (a·e)(b·e)* of a term map, e designated, in canonical order.

    The designated edge of each regular vertex (one that emits edges and no
    omega pair) is its least outgoing edge id, read off the raw edge list.
    """
    out = _raw_out(g)
    om = _raw_omega_src(g)
    designated = {min(eid for eid, _ in out[v]) for v in g.vertices if out[v] and not om[v]}
    return sorted(
        (
            m
            for m in terms
            if m.alpha.edges
            and m.beta.edges
            and m.alpha.edges[-1] == m.beta.edges[-1]
            and m.alpha.edges[-1] in designated
        ),
        key=monomial_key,
    )


def oracle_normalize(
    g: Graph, raw: dict[Monomial, GaussianRational], rng: random.Random
) -> Element:
    """CK2 normal form by rescanning every term and rewriting a random redex.

    Each step collects every excluded term (a·e)(b·e)*, picks one uniformly
    at random and replaces it by a·b* minus the siblings (a·h)(b·h)*, h != e,
    until no term is excluded.  Coefficients need only ``+``, unary ``-``
    and truth, so ``OracleGaussianRational`` ones work too.
    """
    out = _raw_out(g)
    src_of = {e.id: e.src for e in g.edges}
    work: dict[Monomial, GaussianRational] = {}

    def add(m: Monomial, c: GaussianRational) -> None:
        acc = work[m] + c if m in work else c
        if acc:
            work[m] = acc
        else:
            work.pop(m, None)

    for m, c in raw.items():
        add(m, c)
    while redexes := oracle_redexes(g, work):
        m = rng.choice(redexes)
        c = work.pop(m)
        e = m.alpha.edges[-1]
        a = Path(m.alpha.source, m.alpha.edges[:-1])
        b = Path(m.beta.source, m.beta.edges[:-1])
        add(Monomial(a, b), c)
        for h, _ in out[src_of[e]]:
            if h != e:
                add(Monomial(Path(a.source, a.edges + (h,)), Path(b.source, b.edges + (h,))), -c)
    return Element(g, work)


def oracle_monomial_product(
    g: Graph, m1: tuple[tuple[str, ...], tuple[str, ...]], m2
) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """(a·b*)(c·d*) by raw prefix comparison on edge-id sequences."""
    (a, b), (c, d) = m1, m2
    if len(b) <= len(c):
        if c[: len(b)] != b:
            return None
        return (a + c[len(b):], d)
    if b[: len(c)] != c:
        return None
    return (a, d + b[len(c):])


def oracle_multiply(g: Graph, x: dict, y: dict, rng: random.Random) -> Element:
    """The product of two term maps by raw prefix comparison, then
    ``oracle_normalize``; coefficients need ``*`` as well."""
    raw: dict = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            if m1.beta.source != m2.alpha.source:
                continue
            prod = oracle_monomial_product(
                g, (m1.alpha.edges, m1.beta.edges), (m2.alpha.edges, m2.beta.edges)
            )
            if prod is not None:
                m = Monomial(Path(m1.alpha.source, prod[0]), Path(m2.beta.source, prod[1]))
                raw[m] = raw[m] + c1 * c2 if m in raw else c1 * c2
    return oracle_normalize(g, raw, rng)


# ---------------------------------------------------------------------------
# Gaussian rationals as two Fractions
# ---------------------------------------------------------------------------


def oracle_coefficient(entry: dict) -> GaussianRational:
    """The coefficient of an element JSON term, one ``Fraction`` per part;
    raises what the element parser wraps into its ``FormatError``."""
    parts = []
    for key in ("re", "im"):
        value = entry[key]
        if not isinstance(value, str):
            raise FormatError(f'bad element term: {key!r} must be an exact rational string such as "1/2"')
        parts.append(Fraction(value))
    return GaussianRational(*parts)


def oracle_frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True, slots=True)
class OracleGaussianRational:
    """Exact complex number re + im·i held as two Fractions, each operation
    written out on the real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other: "OracleGaussianRational") -> "OracleGaussianRational":
        return OracleGaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "OracleGaussianRational") -> "OracleGaussianRational":
        return OracleGaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "OracleGaussianRational":
        return OracleGaussianRational(-self.re, -self.im)

    def __mul__(self, other: "OracleGaussianRational") -> "OracleGaussianRational":
        return OracleGaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "OracleGaussianRational":
        return OracleGaussianRational(self.re, -self.im)

    def reciprocal(self) -> "OracleGaussianRational":
        d = self.re * self.re + self.im * self.im
        if not d:
            raise ZeroDivisionError("reciprocal of 0")
        return OracleGaussianRational(self.re / d, -self.im / d)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if not self.im:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


def oracle_column_sum_norm(matrix: list[list[Fraction]]) -> Fraction:
    """Exact maximum column sum of absolute values (entries must be rational)."""
    if not matrix or not matrix[0]:
        return Fraction(0)
    cols = len(matrix[0])
    return max(
        sum((abs(row[j]) for row in matrix), Fraction(0)) for j in range(cols)
    )


def oracle_spatial_rep_acyclic(g: Graph, x: Element):
    """(paths, blocks) of the float image by the exact route: the dense table
    of ``acyclic_decompose`` converted entry by entry to complex doubles."""
    decomp = acyclic_decompose(g, x)
    paths, blocks = {}, {}
    for key, matrix in decomp.blocks.items():
        paths[key.vertex] = decomp.paths[key]
        blocks[key.vertex] = np.array(
            [[complex(c) for c in row] for row in matrix], dtype=np.complex128
        )
    return paths, blocks


def _oracle_dual_sign_power(v: np.ndarray, r: float) -> np.ndarray:
    mags = np.abs(v)
    out = np.zeros_like(v)
    top = float(mags.max()) if mags.size else 0.0
    if top == 0.0:
        return out
    nz = mags > top * 1e-18
    out[nz] = (mags[nz] ** (r - 1.0)) * (v[nz] / mags[nz])
    return out


def _oracle_power_leg(
    M: np.ndarray, p: float, x: np.ndarray, tol: float, max_iter: int
) -> tuple[float, bool]:
    q = p / (p - 1.0)
    nx = np.linalg.norm(x, ord=p)
    if nx == 0:
        return 0.0, True
    x = x / nx
    best = 0.0
    converged = False
    for _ in range(max_iter):
        y = M @ x
        gamma = float(np.linalg.norm(y, ord=p))
        if gamma == 0.0:
            converged = True
            break
        if gamma <= best * (1.0 + tol):
            best = max(best, gamma)
            converged = True
            break
        best = max(best, gamma)
        z = M.conj().T @ _oracle_dual_sign_power(y / gamma, p)
        zmax = float(np.abs(z).max())
        if zmax == 0.0:
            converged = True
            break
        x = _oracle_dual_sign_power(z / zmax, q)
        nx = np.linalg.norm(x, ord=p)
        if nx == 0:
            converged = True
            break
        x = x / nx
    return best, converged


def oracle_power_iteration(M, p: float, restarts: int, seed: int, tol: float, max_iter: int):
    """(value, converged) of the nonlinear power method run one start at a time.

    Same starts as production (``restarts`` seeded complex Gaussians, then the
    unit vector at the column of largest p-mass), one serial leg per start and
    the first maximum over starts.
    """
    M = np.asarray(M, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    n = M.shape[1]
    starts = [
        rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(restarts)
    ]
    col = int(np.argmax((np.abs(M) ** p).sum(axis=0)))
    e = np.zeros(n, dtype=np.complex128)
    e[col] = 1.0
    starts.append(e)
    return max((_oracle_power_leg(M, p, x, tol, max_iter) for x in starts), key=lambda r: r[0])


def oracle_dense_norm_estimate(M, p: float, seed: int = 0, tol: float = 1e-10):
    """(value, exact, converged) of the l^p operator norm of the whole matrix,
    with no split into components: the exact maximum column sum at p = 1, the
    largest singular value at p = 2, and otherwise the power iteration over
    every row and column at once, with production's restarts and budget."""
    M = np.asarray(M, dtype=np.complex128)
    if p == 1.0:
        return float(np.abs(M).sum(axis=0).max()), True, None
    if p == 2.0:
        return float(np.linalg.norm(M, 2)), False, True
    value, converged = oracle_power_iteration(M, p, 8, seed, tol, 200)
    return value, False, converged
