"""Exact arithmetic in the Leavitt path algebra of a graph.

Elements are finite Gaussian-rational combinations of monomials a·b* (a, b
paths with a common range), kept in a normal form in which no monomial has
both paths ending in the designated edge of a regular vertex.  The designated
edge is the lexicographically least outgoing edge id, so normal forms are a
deterministic function of the graph alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .errors import FormatError, GraphMismatch, OmegaUnsupported, UnknownVertex
from .graph import Graph, Path, enumerate_paths


# ---------------------------------------------------------------------------
# coefficients: the Gaussian rationals Q(i)
# ---------------------------------------------------------------------------

Rationalish = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """Exact complex number re + im·i with rational re, im."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def reciprocal(self) -> "GaussianRational":
        d = self.re * self.re + self.im * self.im
        if not d:
            raise ZeroDivisionError("reciprocal of 0")
        return GaussianRational(self.re / d, -self.im / d)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if not self.im:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(Fraction(1))


def gauss(re: Rationalish = 0, im: Rationalish = 0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def gauss_str(c: GaussianRational) -> str:
    """Matrix-entry form ``p/q+r/s i`` (sign folded for negative imaginary parts)."""
    sign = "+" if c.im >= 0 else "-"
    return f"{frac_str(c.re)}{sign}{frac_str(abs(c.im))} i"


# ---------------------------------------------------------------------------
# monomials and elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Monomial:
    """a·b* with r(a) = r(b); its degree is |a| - |b|."""

    alpha: Path
    beta: Path

    @property
    def degree(self) -> int:
        return len(self.alpha.edges) - len(self.beta.edges)

    def star(self) -> "Monomial":
        return Monomial(self.beta, self.alpha)

    def __repr__(self) -> str:
        a = "·".join(self.alpha.edges) or self.alpha.source
        if not self.beta.edges:
            return a
        return f"{a}({'·'.join(self.beta.edges)})*"


def monomial_key(m: Monomial) -> tuple:
    return (m.degree, m.alpha.edges, m.alpha.source, m.beta.edges, m.beta.source)


def add_term(terms: dict[Monomial, GaussianRational], m: Monomial, c: GaussianRational) -> None:
    """Add c to the coefficient of m in a term map, dropping m when it cancels to 0."""
    acc = terms.get(m, GR_ZERO) + c
    if acc:
        terms[m] = acc
    else:
        terms.pop(m, None)


def _is_excluded(g: Graph, m: Monomial) -> bool:
    if not m.alpha.edges or not m.beta.edges:
        return False
    last = m.alpha.edges[-1]
    return last == m.beta.edges[-1] and last in g.designated_ids


class Element:
    """A normal-form element of the Leavitt path algebra of ``graph``.

    Instances are immutable values; construct them through the module factories
    (``vertex_element``, ``path_element``, ``monomial_element``, ``from_terms``)
    or by arithmetic on existing elements.
    """

    __slots__ = ("graph", "_terms")

    def __init__(self, graph: Graph, terms: dict[Monomial, GaussianRational]):
        self.graph = graph
        self._terms = terms

    # -- inspection -----------------------------------------------------------

    def terms(self) -> list[tuple[Monomial, GaussianRational]]:
        return sorted(self._terms.items(), key=lambda kv: monomial_key(kv[0]))

    def coefficient(self, m: Monomial) -> GaussianRational:
        return self._terms.get(m, GR_ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degrees(self) -> list[int]:
        return sorted({m.degree for m in self._terms})

    def max_path_length(self) -> int:
        if not self._terms:
            return 0
        return max(max(len(m.alpha.edges), len(m.beta.edges)) for m in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.graph == other.graph
            and self._terms == other._terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for m, c in self.terms():
            bits.append(f"({c!r})·{m!r}")
        return " + ".join(bits)

    # -- arithmetic -------------------------------------------------------------

    def _check_graph(self, other: "Element") -> None:
        if self.graph is not other.graph and self.graph != other.graph:
            raise GraphMismatch("elements live over different graphs")

    def __add__(self, other: "Element") -> "Element":
        self._check_graph(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            add_term(terms, m, c)
        return Element(self.graph, terms)

    def __neg__(self) -> "Element":
        return Element(self.graph, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, c) -> "Element":
        c = c if isinstance(c, GaussianRational) else gauss(c)
        if not c:
            return Element(self.graph, {})
        return Element(self.graph, {m: c * v for m, v in self._terms.items()})

    def __rmul__(self, c) -> "Element":
        if isinstance(c, (int, Fraction, GaussianRational)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other) -> "Element":
        if isinstance(other, Element):
            return multiply(self, other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def star(self) -> "Element":
        return involute(self)


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------


def zero(g: Graph) -> Element:
    return Element(g, {})

def vertex_element(g: Graph, v: str) -> Element:
    g.require_vertex(v)
    p = Path(v)
    return Element(g, {Monomial(p, p): GR_ONE})


def path_element(g: Graph, p: Union[Path, Iterable[str]], source: Optional[str] = None) -> Element:
    """The element a·r(a)* for a path a (given as a Path or an edge-id sequence)."""
    if not isinstance(p, Path):
        edges = tuple(p)
        if source is None:
            if not edges:
                raise ValueError("an empty path needs an explicit source vertex")
            source = g.edge_endpoints(edges[0])[0]
        p = g.path(source, edges)
    else:
        p = g.path(p.source, p.edges)
    r = Path(g.range_of(p))
    return normalize_terms(g, {Monomial(p, r): GR_ONE})


def monomial_element(g: Graph, alpha: Path, beta: Path, coeff=GR_ONE) -> Element:
    alpha = g.path(alpha.source, alpha.edges)
    beta = g.path(beta.source, beta.edges)
    if g.range_of(alpha) != g.range_of(beta):
        raise ValueError("monomial paths must share their range")
    coeff = coeff if isinstance(coeff, GaussianRational) else gauss(coeff)
    return normalize_terms(g, {Monomial(alpha, beta): coeff})


def from_terms(g: Graph, terms: Mapping[Monomial, GaussianRational]) -> Element:
    return normalize_terms(g, terms)


# ---------------------------------------------------------------------------
# normalization (the CK2 rewriting system)
# ---------------------------------------------------------------------------


def normalize_terms(g: Graph, raw: Mapping[Monomial, GaussianRational]) -> Element:
    """Rewrite a raw term map into normal form.

    Any term (a·e)(b·e)* whose shared last edge e is the designated edge of its
    (regular) source is replaced by a·b* minus the sibling terms (a·h)(b·h)*,
    h != e.  The siblings are never excluded (e is the only designated edge
    at its source), so the stub a·b* is the only new redex a rewrite can
    make, and it is shorter.  Redexes are therefore rewritten longest first,
    one bucket of equal |a| + |b| at a time: every contribution to a redex
    has arrived before its bucket is reached, so each redex is rewritten
    once, with its final coefficient.  The rewrite is confluent, so the
    normal form does not depend on this order.
    """
    work: dict[Monomial, GaussianRational] = {}
    for m, c in raw.items():
        add_term(work, m, c if isinstance(c, GaussianRational) else gauss(c))
    pending: dict[int, list[Monomial]] = {}  # redexes by |a| + |b|
    for m in work:
        if _is_excluded(g, m):
            pending.setdefault(len(m.alpha.edges) + len(m.beta.edges), []).append(m)
    while pending:
        size = max(pending)
        for m in pending.pop(size):
            c = work.pop(m, None)
            if c is None:  # cancelled to zero, or queued twice and already rewritten
                continue
            eid = m.alpha.edges[-1]
            alpha_stub = Path(m.alpha.source, m.alpha.edges[:-1])
            beta_stub = Path(m.beta.source, m.beta.edges[:-1])
            stub = Monomial(alpha_stub, beta_stub)
            if stub not in work and _is_excluded(g, stub):
                pending.setdefault(size - 2, []).append(stub)
            add_term(work, stub, c)
            neg = -c
            for sibling in g.out_edges[g.edge_endpoints(eid)[0]]:
                if sibling.id != eid:
                    add_term(
                        work,
                        Monomial(
                            Path(alpha_stub.source, alpha_stub.edges + (sibling.id,)),
                            Path(beta_stub.source, beta_stub.edges + (sibling.id,)),
                        ),
                        neg,
                    )
    return Element(g, work)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------


def _is_prefix(short: Path, long: Path) -> bool:
    return (
        short.source == long.source
        and long.edges[: len(short.edges)] == short.edges
    )


def _monomial_product(g: Graph, m1: Monomial, m2: Monomial) -> Optional[Monomial]:
    beta, gamma = m1.beta, m2.alpha
    if len(beta.edges) <= len(gamma.edges):
        if not _is_prefix(beta, gamma):
            return None
        tail = gamma.edges[len(beta.edges):]
        return Monomial(Path(m1.alpha.source, m1.alpha.edges + tail), m2.beta)
    if not _is_prefix(gamma, beta):
        return None
    tail = beta.edges[len(gamma.edges):]
    return Monomial(m1.alpha, Path(m2.beta.source, m2.beta.edges + tail))


def multiply(x: Element, y: Element) -> Element:
    """Bilinear extension of (a·b*)(c·d*) with the usual prefix cancellation."""
    x._check_graph(y)
    g = x.graph
    raw: dict[Monomial, GaussianRational] = {}
    for m1, c1 in x._terms.items():
        for m2, c2 in y._terms.items():
            m = _monomial_product(g, m1, m2)
            if m is not None:
                add_term(raw, m, c1 * c2)
    return normalize_terms(g, raw)


def involute(x: Element) -> Element:
    """The conjugate-linear anti-automorphism swapping the path pair of each monomial."""
    return Element(
        x.graph, {m.star(): c.conjugate() for m, c in x._terms.items()}
    )


def degree_component(x: Element, n: int) -> Element:
    """The sum of terms of degree exactly n."""
    return Element(x.graph, {m: c for m, c in x._terms.items() if m.degree == n})


def path_conjugate_sum(x: Element, r: int) -> Element:
    """Sum of g·x·g* over all paths g of length r; preserves the degree."""
    g = x.graph
    if g.omega_pairs:
        raise OmegaUnsupported("path conjugation sums need a row-finite finite graph")
    if r < 0:
        raise ValueError("r must be >= 0")
    raw: dict[Monomial, GaussianRational] = {}
    for p in enumerate_paths(g, r):
        at = g.range_of(p)
        for m, c in x._terms.items():
            if m.alpha.source != at or m.beta.source != at:
                continue
            mm = Monomial(
                Path(p.source, p.edges + m.alpha.edges),
                Path(p.source, p.edges + m.beta.edges),
            )
            add_term(raw, mm, c)
    return normalize_terms(g, raw)


def vertex_sum(g: Graph, F: Iterable[str]) -> Element:
    """The idempotent sum of the vertices in F; a unit on elements supported in F."""
    terms: dict[Monomial, GaussianRational] = {}
    for v in F:
        g.require_vertex(v)
        p = Path(v)
        terms[Monomial(p, p)] = GR_ONE
    return Element(g, terms)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def element_to_json_obj(x: Element) -> list:
    out = []
    for m, c in x.terms():
        out.append(
            {
                "alpha": list(m.alpha.edges),
                "alpha_src": m.alpha.source,
                "beta": list(m.beta.edges),
                "beta_src": m.beta.source,
                "re": frac_str(c.re),
                "im": frac_str(c.im),
            }
        )
    return out


def element_to_json(x: Element) -> str:
    return json.dumps(element_to_json_obj(x), separators=(",", ":"), ensure_ascii=False)


def _edge_list(entry: dict, key: str) -> list:
    edges = entry[key]
    if not isinstance(edges, list) or not all(isinstance(e, str) for e in edges):
        raise FormatError(f"bad element term: {key!r} must be a list of edge ids")
    return edges


def _rational(entry: dict, key: str) -> Fraction:
    value = entry[key]
    if not isinstance(value, str):
        raise FormatError(f'bad element term: {key!r} must be an exact rational string such as "1/2"')
    return Fraction(value)


def element_from_json_obj(g: Graph, obj) -> Element:
    """Parse a list of terms; paths must be lists of edge ids, coefficients strings."""
    if not isinstance(obj, list):
        raise FormatError("element JSON must be a list of terms")
    raw: dict[Monomial, GaussianRational] = {}
    for entry in obj:
        try:
            alpha = g.path(entry["alpha_src"], _edge_list(entry, "alpha"))
            beta = g.path(entry["beta_src"], _edge_list(entry, "beta"))
            coeff = GaussianRational(_rational(entry, "re"), _rational(entry, "im"))
        except (KeyError, TypeError, ValueError, ZeroDivisionError, UnknownVertex) as exc:
            raise FormatError(f"bad element term: {exc}") from exc
        if g.range_of(alpha) != g.range_of(beta):
            raise FormatError("monomial paths must share their range")
        add_term(raw, Monomial(alpha, beta), coeff)
    return normalize_terms(g, raw)


def element_from_json(g: Graph, text: str) -> Element:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return element_from_json_obj(g, obj)
