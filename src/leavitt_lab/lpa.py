"""Exact arithmetic in the Leavitt path algebra of a graph.

Elements are finite Gaussian-rational combinations of monomials a·b* (a, b
paths with a common range), kept in a normal form in which no monomial has
both paths ending in the designated edge of a regular vertex.  The designated
edge is the lexicographically least outgoing edge id, so normal forms are a
deterministic function of the graph alone.
"""

from __future__ import annotations

import json
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Union

from .errors import FormatError, GraphMismatch, OmegaUnsupported, UnknownVertex
from .graph import Graph, Path, canonical_json, enumerate_paths


# ---------------------------------------------------------------------------
# coefficients: the Gaussian rationals Q(i)
# ---------------------------------------------------------------------------

# ``fractions`` (with ``decimal`` and ``numbers``) is imported only where a
# Fraction is built: integer and plain ASCII coefficients never need it
if TYPE_CHECKING:
    from fractions import Fraction

    Rationalish = Union[int, Fraction]


def _ratio_str(n: int, d: int) -> str:
    """``p/q`` for the rational n/d in lowest terms (d > 0)."""
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


class GaussianRational:
    """Exact complex number re + im·i with rational re, im.

    It is stored as three integers (a, b, d), the number (a + b·i)/d, with
    d > 0 and gcd(a, b, d) = 1, so equal numbers have equal fields (zero is
    (0, 0, 1)).  Instances are immutable values.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        if not (isinstance(re, int) and isinstance(im, int)):
            from fractions import Fraction

            if not isinstance(re, (int, Fraction)):
                re = Fraction(re)
            if not isinstance(im, (int, Fraction)):
                im = Fraction(im)
        # re and im are in lowest terms, so over their least common
        # denominator d no prime divides a, b and d at once: already reduced
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.b, self.d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d = self.d
        if d == other.d:
            a = self.a + other.a
            b = self.b + other.b
        else:
            a = self.a * other.d + other.a * d
            b = self.b * other.d + other.b * d
            d *= other.d
        return _reduced(a, b, d)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return self + -other

    def __neg__(self) -> "GaussianRational":
        return _raw(-self.a, -self.b, self.d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    def conjugate(self) -> "GaussianRational":
        return _raw(self.a, -self.b, self.d)

    def reciprocal(self) -> "GaussianRational":
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("reciprocal of 0")
        return _reduced(d * a, -d * b, n)

    def __complex__(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        return f"{re}{'+' if im >= 0 else '-'}{abs(im)}i"


def _raw(a: int, b: int, d: int) -> GaussianRational:
    """(a + b·i)/d from fields already in reduced form."""
    c = object.__new__(GaussianRational)
    c.a = a
    c.b = b
    c.d = d
    return c


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b·i)/d for any d > 0, brought to reduced form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _raw(a, b, d)


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(1)


def gauss(re: Rationalish = 0, im: Rationalish = 0) -> GaussianRational:
    return GaussianRational(re, im)


# ---------------------------------------------------------------------------
# monomials and elements
# ---------------------------------------------------------------------------


class Monomial(NamedTuple):
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
    old = terms.get(m)
    if old is None:
        if c:
            terms[m] = c
        return
    acc = old + c
    if acc:
        terms[m] = acc
    else:
        del terms[m]


def _is_excluded(g: Graph, m: Monomial) -> bool:
    if not m.alpha.edges or not m.beta.edges:
        return False
    last = m.alpha.edges[-1]
    return last == m.beta.edges[-1] and last in g.designated_ids


class Element:
    """A normal-form element of the Leavitt path algebra of ``graph``.

    Instances are immutable values; construct them through the module factories
    (``vertex_element``, ``path_element``, ``monomial_element``,
    ``normalize_terms``) or by arithmetic on existing elements.
    """

    __slots__ = ("graph", "_terms")

    def __init__(self, graph: Graph, terms: dict[Monomial, GaussianRational]):
        self.graph = graph
        self._terms = terms

    # -- inspection -----------------------------------------------------------

    def terms(self) -> list[tuple[Monomial, GaussianRational]]:
        return sorted(self._terms.items(), key=lambda kv: monomial_key(kv[0]))

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


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------


def zero(g: Graph) -> Element:
    return Element(g, {})

def vertex_element(g: Graph, v: str) -> Element:
    g.require_vertex(v)
    p = Path(v)
    return Element(g, {Monomial(p, p): GR_ONE})


def path_element(g: Graph, p: Union[Path, Iterable[str]]) -> Element:
    """The element a·r(a)* for a path a (given as a Path or a nonempty edge-id sequence)."""
    if not isinstance(p, Path):
        edges = tuple(p)
        if not edges:
            raise ValueError("an empty edge sequence has no source; pass a Path")
        p = Path(g.edge_endpoints(edges[0])[0], edges)
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
            for sibling in g.out_edges[g.edge_by_id[eid].src]:
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


def _monomial_product(g: Graph, m1: Monomial, m2: Monomial) -> Optional[Monomial]:
    beta, gamma = m1.beta, m2.alpha
    if len(beta.edges) <= len(gamma.edges):
        if not g.path_ge(beta, gamma):
            return None
        tail = gamma.edges[len(beta.edges):]
        return Monomial(Path(m1.alpha.source, m1.alpha.edges + tail), m2.beta)
    if not g.path_ge(gamma, beta):
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
                "re": _ratio_str(c.a, c.d),
                "im": _ratio_str(c.b, c.d),
            }
        )
    return out


def element_to_json(x: Element) -> str:
    return canonical_json(element_to_json_obj(x))


def _edge_list(entry: dict, key: str) -> list:
    edges = entry[key]
    if not isinstance(edges, list):  # Graph.path checks each id is a string
        raise FormatError(f"bad element term: {key!r} must be a list of edge ids")
    return edges


def _rational(entry: dict, key: str) -> tuple[int, int]:
    """(numerator, denominator > 0) of a coefficient string, as ``Fraction`` reads it:
    ASCII ``[-]digits[/digits]`` with a nonzero denominator is split here, and
    any other string goes to ``Fraction``, for its grammar and error messages."""
    value = entry[key]
    if not isinstance(value, str):
        raise FormatError(f'bad element term: {key!r} must be an exact rational string such as "1/2"')
    negative = value[:1] == "-"
    num, slash, den = value[negative:].partition("/")
    if value.isascii() and num.isdigit() and (den.isdigit() or not slash):
        n, d = int(num), int(den or 1)
        if d:
            return (-n if negative else n), d
    from fractions import Fraction

    f = Fraction(value)
    return f.numerator, f.denominator


def element_from_json_obj(g: Graph, obj) -> Element:
    """Parse a list of terms; paths must be lists of edge ids, coefficients strings."""
    if not isinstance(obj, list):
        raise FormatError("element JSON must be a list of terms")
    raw: dict[Monomial, GaussianRational] = {}
    for entry in obj:
        try:
            alpha = g.path(entry["alpha_src"], _edge_list(entry, "alpha"))
            beta = g.path(entry["beta_src"], _edge_list(entry, "beta"))
            a, da = _rational(entry, "re")
            b, db = _rational(entry, "im")
            coeff = _reduced(a * db, b * da, da * db)
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
