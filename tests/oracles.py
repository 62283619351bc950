"""Independent oracle implementations used to cross-check production code.

Everything here works from the raw Graph fields (vertex/edge tuples, omega
pairs) with its own traversal logic, so that agreement with the production
modules is meaningful.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from leavitt_lab.graph import Graph, Path, find_cycles
from leavitt_lab.lpa import GR_ZERO, Element, GaussianRational, Monomial, monomial_key


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
    until no term is excluded.
    """
    out = _raw_out(g)
    src_of = {e.id: e.src for e in g.edges}
    work: dict[Monomial, GaussianRational] = {}

    def add(m: Monomial, c: GaussianRational) -> None:
        acc = work.get(m, GR_ZERO) + c
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


def oracle_column_sum_norm(matrix: list[list[Fraction]]) -> Fraction:
    """Exact maximum column sum of absolute values (entries must be rational)."""
    if not matrix or not matrix[0]:
        return Fraction(0)
    cols = len(matrix[0])
    return max(
        sum((abs(row[j]) for row in matrix), Fraction(0)) for j in range(cols)
    )
