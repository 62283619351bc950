"""Independent oracle implementations used to cross-check production code.

Everything here works from the raw Graph fields (vertex/edge tuples, omega
pairs) with its own traversal logic, so that agreement with the production
modules is meaningful.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from leavitt_lab.errors import BecameEmpty, FormatError, InternalError, UnknownVertex
from leavitt_lab.graph import Graph, Path, find_cycles, least_cycle_at, path_levels
from leavitt_lab.lpa import (
    Element,
    GaussianRational,
    Monomial,
    degree_component,
    add_term,
    involute,
    multiply,
    normalize_terms,
    path_element,
    zero,
)
from leavitt_lab.matricial import BlockKey, acyclic_decompose
from leavitt_lab.pnorm import spatial_rep_acyclic
from leavitt_lab.spi import _closed_paths, _steps_to, incomparable_closed_path
from leavitt_lab.transforms import EmbeddingData


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


def oracle_incomparable_closed_path(g: Graph, v: str, alpha: Path) -> Path:
    """The least closed path at v incomparable with alpha, by listing the
    closed paths at v of each length in lex order (``spi._closed_paths``)
    until one is, up to a length that any such path undercuts."""
    g.require_vertex(v)
    cap = 2 * alpha.length + len(g.vertices) + 2
    steps_to_v = _steps_to(g, {v})
    for length in range(1, cap + 1):
        for sigma in _closed_paths(g, v, length, 2, steps_to_v):
            if not (g.path_ge(alpha, sigma) or g.path_ge(sigma, alpha)):
                return sigma
    raise InternalError(
        "no incomparable closed path found; the graph cannot be simple purely infinite"
    )


def oracle_path_to_cycle_base(g: Graph, v: str) -> Path:
    """Shortest-lex path from v to a vertex lying on a cycle, by a forward
    BFS that builds a path for each vertex it visits, in lexicographic order."""
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


def oracle_monomial_key(m: Monomial) -> tuple:
    """The canonical term order: degree, then α's edges and source, then β's."""
    return (m.degree, m.alpha.edges, m.alpha.source, m.beta.edges, m.beta.source)


def oracle_designated(g: Graph) -> set[str]:
    """The designated edge of each regular vertex (one that emits edges and no
    omega pair): its least outgoing edge id, read off the raw edge list."""
    out = _raw_out(g)
    om = _raw_omega_src(g)
    return {min(eid for eid, _ in out[v]) for v in g.vertices if out[v] and not om[v]}


def oracle_is_excluded(g: Graph, m: Monomial) -> bool:
    """Whether a·b* is (a·e)(b·e)* with e designated: a term no normal form holds."""
    return oracle_redexes(g, [m]) == [m]


def oracle_redexes(g: Graph, terms) -> list[Monomial]:
    """The excluded monomials (a·e)(b·e)* of a term map, e designated, in canonical order."""
    designated = oracle_designated(g)
    return sorted(
        (
            m
            for m in terms
            if m.alpha.edges
            and m.beta.edges
            and m.alpha.edges[-1] == m.beta.edges[-1]
            and m.alpha.edges[-1] in designated
        ),
        key=oracle_monomial_key,
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


def oracle_counted_normalize(g: Graph, raw: dict[Monomial, GaussianRational]) -> tuple[Element, int]:
    """The longest-first worklist of ``normalize_terms``, written with the
    NamedTuple constructors and ``add_term``; returns the normal form and
    the number of redexes it rewrote."""
    out = _raw_out(g)
    src_of = {e.id: e.src for e in g.edges}
    designated = oracle_designated(g)

    def excluded(m: Monomial) -> bool:
        a, b = m.alpha.edges, m.beta.edges
        return bool(a and b) and a[-1] == b[-1] and a[-1] in designated

    work: dict[Monomial, GaussianRational] = {}
    for m, c in raw.items():
        add_term(work, m, c)
    pending: dict[int, list[Monomial]] = {}
    for m in work:
        if excluded(m):
            pending.setdefault(len(m.alpha.edges) + len(m.beta.edges), []).append(m)
    steps = 0
    while pending:
        size = max(pending)
        for m in pending.pop(size):
            c = work.pop(m, None)
            if c is None:
                continue
            steps += 1
            e = m.alpha.edges[-1]
            a = Path(m.alpha.source, m.alpha.edges[:-1])
            b = Path(m.beta.source, m.beta.edges[:-1])
            stub = Monomial(a, b)
            if stub not in work and excluded(stub):
                pending.setdefault(size - 2, []).append(stub)
            add_term(work, stub, c)
            for h, _ in out[src_of[e]]:
                if h != e:
                    add_term(work, Monomial(Path(a.source, a.edges + (h,)), Path(b.source, b.edges + (h,))), -c)
    return Element(g, work), steps


def oracle_expand(g: Graph, terms, n: int) -> dict[Monomial, GaussianRational]:
    """The expansion by Path and Monomial objects: each a·b* pushed through
    u = sum of e·e* over the edges leaving its range, on both sides, until
    the range is a sink or the paths reach length n, reading the range and
    the vertex kind off the graph at every node of a depth-first walk."""
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
    raises what the element parser wraps into its ``FormatError``.  Two
    kinds of part are refused before ``Fraction`` sees them.  One holds
    over 4300 digits in a run, counting digits joined by single underscores
    as one run, since ``int`` refuses to read that many.  The other's text
    after its last e or E reads as an integer of absolute value 4300 or
    more, as 10 to that power would take ``Fraction`` minutes and has more
    digits than Python writes."""
    parts = []
    for key in ("re", "im"):
        value = entry[key]
        if not isinstance(value, str):
            raise FormatError(f'bad element term: {key!r} must be an exact rational string such as "1/2"')
        for stretch in re.findall(r"[\d_]+", value):
            if any(len(run.replace("_", "")) > 4300 for run in stretch.split("__")):
                raise FormatError(f"bad element term: {key!r} has a run of over 4300 digits, the most that Python reads")
        *head, exponent = re.split("[eE]", value)
        try:
            huge = bool(head) and abs(int(exponent)) >= 4300
        except ValueError:
            huge = False
        if huge:
            raise FormatError(f"bad element term: {key!r} has an exponent of absolute value 4300 or more")
        parts.append(Fraction(value))
    return GaussianRational(*parts)


_ORACLE_TERM_KEYS = ("alpha", "alpha_src", "beta", "beta_src", "re", "im")


def oracle_element_terms(g: Graph, obj) -> dict[Monomial, GaussianRational]:
    """The raw term map of an element JSON list, parsed one term at a time:
    ``g.path`` for each path, ``range_of`` for each range and
    ``oracle_coefficient`` for the coefficient.  Raises the ``FormatError``
    that ``element_from_json_obj`` raises, with the same text."""
    if not isinstance(obj, list):
        raise FormatError("element JSON must be a list of terms")
    raw: dict[Monomial, GaussianRational] = {}
    for entry in obj:
        try:
            paths = []
            for side in ("alpha", "beta"):
                source = entry[f"{side}_src"]
                if not isinstance(entry[side], list):
                    raise FormatError(f"bad element term: {side!r} must be a list of edge ids")
                paths.append(g.path(source, entry[side]))
            coeff = oracle_coefficient(entry)
        except (KeyError, TypeError, ValueError, ZeroDivisionError, UnknownVertex) as exc:
            raise FormatError(f"bad element term: {exc}") from exc
        if set(entry) != set(_ORACLE_TERM_KEYS):
            raise FormatError(f"unknown element term JSON fields: {sorted(set(entry) - set(_ORACLE_TERM_KEYS))}")
        alpha, beta = paths
        if g.range_of(alpha) != g.range_of(beta):
            raise FormatError("monomial paths must share their range")
        add_term(raw, Monomial(alpha, beta), coeff)
    return raw


def oracle_element_from_json(g: Graph, obj) -> Element:
    return normalize_terms(g, oracle_element_terms(g, obj))


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


def oracle_spatial_rep_acyclic(x: Element):
    """(paths, blocks) of the float image by the exact route: the dense table
    of ``acyclic_decompose`` converted entry by entry to complex doubles."""
    decomp = acyclic_decompose(x)
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
    every row and column at once, with production's restarts and budget.
    The p = 1 modulus is libm's hypot, as ``np.hypot`` and Python's ``abs``
    give it, not numpy's vectorised complex absolute."""
    M = np.asarray(M, dtype=np.complex128)
    if p == 1.0:
        return float(np.hypot(M.real, M.imag).sum(axis=0).max()), True, None
    if p == 2.0:
        return float(np.linalg.norm(M, 2)), False, True
    value, converged = oracle_power_iteration(M, p, 8, seed, tol, 200)
    return value, False, converged


def oracle_components(entries, key) -> list[tuple[int, int, list]]:
    """The connected components of the nonzero pattern, every one numbered
    alike: each component's rows and columns sorted by ``key`` and its cells
    sorted, a component of one entry included, in the order of the
    components' first entries."""
    entries = [(a, b, z) for a, b, z in entries if z]
    # the rows, then the columns, as the nodes 0, 1, ... of a union-find
    rows = {a: i for i, a in enumerate(dict.fromkeys(a for a, _, _ in entries))}
    cols = {b: len(rows) + j for j, b in enumerate(dict.fromkeys(b for _, b, _ in entries))}
    parent = list(range(len(rows) + len(cols)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for a, b, _ in entries:
        i, j = find(rows[a]), find(cols[b])
        if i != j:
            parent[j] = i
    groups: dict[int, list] = {}
    for entry in entries:
        groups.setdefault(find(rows[entry[0]]), []).append(entry)
    components = []
    for group in groups.values():
        row_of = {a: i for i, a in enumerate(sorted({a for a, _, _ in group}, key=key))}
        col_of = {b: j for j, b in enumerate(sorted({b for _, b, _ in group}, key=key))}
        cells = sorted((row_of[a], col_of[b], z) for a, b, z in group)
        components.append((len(row_of), len(col_of), cells))
    return components


def oracle_quadrature_error(x: Element, n: int) -> float:
    """The quadrature check on the dense sink blocks: the circle average of
    the gauge rotations of x's spatial image, entry by entry over every k²
    entries of each block, against the image of ``degree_component(x, n)``,
    with the node count and the array operations of production."""
    rep = spatial_rep_acyclic(x)
    sym = spatial_rep_acyclic(degree_component(x, n))
    maxdeg = max((abs(d) for d in x.degrees()), default=0)
    K = 2 * (2 * max(maxdeg, abs(n)) + 1)
    thetas = 2.0 * np.pi * np.arange(K) / K

    worst = 0.0
    for v, M in rep.blocks.items():
        rows = np.array([p_.length for p_ in rep.paths[v]])
        degs = rows[:, None] - rows[None, :]
        acc = np.zeros_like(M)
        for theta in thetas:
            phases = np.exp(1j * theta * degs)
            acc += np.exp(-1j * n * theta) * (phases * M)
        acc /= K
        worst = max(worst, float(np.abs(acc - sym.blocks[v]).max()))
    return worst


def oracle_vertex_tables(g: Graph) -> dict[str, dict[str, tuple]]:
    """The per-vertex tables of ``Graph``, each read off its definition one
    vertex at a time: every vertex a key in input order, items in input order."""
    V, E, P = g.vertices, g.edges, g.omega_pairs
    return {
        "out_edges": {v: tuple(e for e in E if e.src == v) for v in V},
        "in_edges": {v: tuple(e for e in E if e.dst == v) for v in V},
        "omega_by_src": {v: tuple(d for s, d in P if s == v) for v in V},
        "omega_by_dst": {v: tuple(s for s, d in P if d == v) for v in V},
    }


def oracle_out_alphabet(g: Graph, copies: int) -> dict[str, tuple[tuple[str, str], ...]]:
    """(edge id, range) of each explicit edge and of the first ``copies``
    generated edges of each omega pair leaving v, sorted, for every vertex v."""
    return {
        v: tuple(sorted(
            [(e.id, e.dst) for e in g.edges if e.src == v]
            + [(f"{s}~{d}^{k}", d) for s, d in g.omega_pairs if s == v for k in range(1, copies + 1)]
        ))
        for v in g.vertices
    }


def oracle_reachable(g: Graph, starts) -> frozenset[str]:
    """Vertices reachable from ``starts``, by full passes over the edges and
    omega pairs until nothing changes."""
    arrows = [(e.src, e.dst) for e in g.edges] + list(g.omega_pairs)
    seen = set(starts)
    while more := {d for s, d in arrows if s in seen} - seen:
        seen |= more
    return frozenset(seen)


def oracle_paths_by_range(g: Graph, n: int) -> dict[str, tuple[Path, ...]]:
    """The paths of length 0..n ending at each vertex, shortest first and
    lexicographic by edge ids within one length, from ``oracle_paths``."""
    dst = {e.id: e.dst for e in g.edges}
    paths = [(s, seq) for m in range(n + 1) for s, seq in oracle_paths(g, m)]
    return {v: tuple(Path(s, seq) for s, seq in paths if (dst[seq[-1]] if seq else s) == v) for v in g.vertices}


def _oracle_explicit_paths(g: Graph) -> list[tuple[str, str]]:
    """(source, range) of every path over the explicit edges of an acyclic
    graph, its length-0 paths included, by walking every path."""
    found = []
    todo = [(v, v) for v in g.vertices]
    while todo:
        source, at = todo.pop()
        found.append((source, at))
        todo += [(source, e.dst) for e in g.edges if e.src == at]
    return found


def oracle_path_counts(g: Graph) -> dict[str, int]:
    """The number of paths ending at each vertex of an acyclic graph, omega pairs unread."""
    ends = [at for _, at in _oracle_explicit_paths(g)]
    return {v: ends.count(v) for v in g.vertices}


def oracle_tail_counts(g: Graph) -> dict[str, int]:
    """The number of paths from each vertex to a vertex with no edge out, omega pairs unread."""
    sinks = {v for v in g.vertices if all(e.src != v for e in g.edges)}
    starts = [s for s, at in _oracle_explicit_paths(g) if at in sinks]
    return {v: starts.count(v) for v in g.vertices}


def oracle_filtration_paths(g: Graph, n: int) -> dict:
    """The path lists of ``filtration_decompose``'s blocks, grouped level by
    level: each length-r path under its range, a block per (sink, r) and per
    regular vertex at r = n."""
    paths = {}
    for r, level in enumerate(path_levels(g, n)):
        by_range: dict[str, list[Path]] = {}
        for p in level:
            by_range.setdefault(g.range_of(p), []).append(p)
        for v, plist in by_range.items():
            if g.is_sink(v):
                paths[BlockKey("sink", v, r)] = tuple(plist)
            elif r == n:
                paths[BlockKey("regular", v, n)] = tuple(plist)
    return paths


def oracle_incomplete_vertices(g: Graph, F: Graph) -> list[str]:
    """The vertices of a subgraph F that ``complete_and_embed`` gives a primed
    twin: regular in F, and emitting in g an edge id F lacks or infinitely many."""
    incomplete = []
    for v in F.vertices:
        if not F.is_regular(v):
            continue
        f_out = {e.id for e in F.out_edges[v]}
        g_out = {e.id for e in g.out_edges[v]}
        if f_out < g_out or g.is_infinite_emitter(v):
            incomplete.append(v)
    return incomplete


def oracle_verify_embedding(emb: EmbeddingData) -> None:
    """Every Leavitt relation of the completed graph on the images, by
    multiplying every pair of vertex images and every pair of edge images;
    raises InternalError at the first that fails."""
    dom, g = emb.domain, emb.codomain
    vs = emb.vertex_images
    es = emb.edge_images
    for u in dom.vertices:
        for w in dom.vertices:
            prod = multiply(vs[u], vs[w])
            want = vs[u] if u == w else zero(g)
            if prod != want:
                raise InternalError(f"vertex images of {u!r}, {w!r} are not orthogonal idempotents")
    ghosts = {e.id: involute(es[e.id]) for e in dom.edges}
    for e in dom.edges:
        img = es[e.id]
        if multiply(vs[e.src], img) != img or multiply(img, vs[e.dst]) != img:
            raise InternalError(f"edge image of {e.id!r} is not compatible with its endpoints")
        for f in dom.edges:
            prod = multiply(ghosts[e.id], es[f.id])
            want = vs[e.dst] if f.id == e.id else zero(g)
            if prod != want:
                raise InternalError(f"ghost relation fails at {e.id!r}, {f.id!r}")
    for v in dom.vertices:
        if not dom.is_regular(v):
            continue
        acc = zero(g)
        for e in dom.out_edges[v]:
            acc = acc + multiply(es[e.id], ghosts[e.id])
        if acc != vs[v]:
            raise InternalError(f"range relation fails at regular vertex {v!r}")
