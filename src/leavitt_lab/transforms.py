"""Graph surgeries: source removal, desingularization, reachable subgraphs,
and the completion of a finite subgraph with its algebra embedding.

All transforms are pure Graph -> Graph (or Graph -> EmbeddingData) functions.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .errors import (
    BecameEmpty,
    BudgetExceeded,
    GraphMismatch,
    InternalError,
    NoInfiniteEmitters,
    NotASubgraph,
)
from .graph import Edge, Graph, canonical_json, graph_to_json_obj, omega_edge_id, reachable_from
from .lpa import (
    Element,
    element_to_json_obj,
    involute,
    multiply,
    path_element,
    vertex_element,
    zero,
)


def _restrict(g: Graph, keep: frozenset[str]) -> Graph:
    """The subgraph on ``keep``, with every edge and omega pair leaving it."""
    return Graph(
        tuple(v for v in g.vertices if v in keep),
        tuple(e for e in g.edges if e.src in keep),
        tuple(p for p in g.omega_pairs if p[0] in keep),
        g.frontier & keep,
    )


def remove_sources(g: Graph) -> Graph:
    """Iteratively delete vertices receiving no edges, with their outgoing edges.

    The survivors are the vertices reachable from a cycle (omega pairs count
    as edges): each receives an edge from another, so walking back closes a
    cycle.  Raises BecameEmpty when nothing survives (acyclic input).
    """
    keep = reachable_from(g, g.analysis.cycle_bases)
    if not keep:
        raise BecameEmpty("source removal deleted every vertex")
    return _restrict(g, keep)


# Omega edges that one desingularization may materialize (depth × omega
# pairs).  Each costs about 1 kB with its tail vertex, tail edge and JSON.
DESINGULARIZE_BUDGET = 10**5


def _fresh(name: str, used: set[str]) -> str:
    while name in used:
        name += "'"
    used.add(name)
    return name


def desingularize(g: Graph, depth: int) -> Graph:
    """Replace each infinite emitter by a finite tail, truncated after ``depth``
    materialized edges per omega pair.

    For an emitter v the outgoing edges are enumerated as: explicit edges in id
    order, then omega edges round-robin over the pairs in range-id order, depth
    of them per pair.  The k-th enumerated edge is re-sourced to depart the
    (k-1)-th tail vertex; the final tail vertex emits nothing and is flagged as
    the truncation frontier.  Raises BudgetExceeded, before building anything,
    when depth × omega pairs exceeds ``DESINGULARIZE_BUDGET``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not g.omega_pairs:
        raise NoInfiniteEmitters("the graph is already row-finite")
    if depth * len(g.omega_pairs) > DESINGULARIZE_BUDGET:
        raise BudgetExceeded(
            f"depth {depth} over {len(g.omega_pairs)} omega pairs would materialize "
            f"{depth * len(g.omega_pairs)} edges, over the budget of {DESINGULARIZE_BUDGET}"
        )

    emitters = [v for v in g.vertices if g.is_infinite_emitter(v)]
    used_vertices = set(g.vertices)
    used_edges = {e.id for e in g.edges}

    vertices = list(g.vertices)
    edges = [e for e in g.edges if not g.is_infinite_emitter(e.src)]
    frontier = set(g.frontier)

    for v in emitters:
        enumerated: list[Edge] = sorted(g.out_edges[v], key=lambda e: e.id)
        pairs = sorted(g.omega_by_src[v])
        for k in range(1, depth + 1):
            for dst in pairs:
                enumerated.append(Edge(_fresh(omega_edge_id(v, dst, k), used_edges), v, dst))
        tail = [v]
        for k in range(1, len(enumerated) + 1):
            tail.append(_fresh(f"{v}_{k}", used_vertices))
        vertices.extend(tail[1:])
        for k in range(1, len(tail)):
            edges.append(Edge(_fresh(f"{v}_t{k}", used_edges), tail[k - 1], tail[k]))
        for k, e in enumerate(enumerated, start=1):
            edges.append(Edge(e.id, tail[k - 1], e.dst))
        frontier.add(tail[-1])

    return Graph(tuple(vertices), tuple(edges), (), frozenset(frontier))


def reachable_subgraph(g: Graph, w: str) -> Graph:
    """The subgraph on the vertices reachable from w, with all their outgoing edges."""
    return _restrict(g, reachable_from(g, {w}))


# ---------------------------------------------------------------------------
# subgraph completion and embedding
# ---------------------------------------------------------------------------


class EmbeddingData(NamedTuple):
    """The completed graph of a finite subgraph, with its images inside the
    ambient algebra.

    The images satisfy every Leavitt relation of the completed graph; this is
    verified symbolically at construction time.
    """

    domain: Graph
    codomain: Graph
    vertex_images: dict[str, Element]
    edge_images: dict[str, Element]

    def to_json_obj(self) -> dict:
        return {
            "domain": graph_to_json_obj(self.domain),
            "codomain": graph_to_json_obj(self.codomain),
            "vertex_images": {
                v: element_to_json_obj(x) for v, x in sorted(self.vertex_images.items())
            },
            "edge_images": {
                e: element_to_json_obj(x) for e, x in sorted(self.edge_images.items())
            },
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())


def _partners(images: dict[str, Element], key) -> Iterator[tuple[str, str]]:
    """The ordered pairs of names whose images are multiplied: each pair whose
    images have one and the same ``key`` over all their terms, and each pair
    with an image that has no single key (a zero image, say)."""
    keys: dict[str, Optional[str]] = {}
    groups: dict[Optional[str], list[str]] = {}
    for name, x in images.items():
        found = {key(m) for m, _ in x.terms()}
        keys[name] = found.pop() if len(found) == 1 else None
        groups.setdefault(keys[name], []).append(name)
    loose = groups.get(None, [])
    for name, k in keys.items():
        yield from ((name, other) for other in (keys if k is None else groups[k] + loose))


def _verify_embedding(emb: EmbeddingData) -> None:
    """Re-check every Leavitt relation of the completed graph on the images,
    exactly, multiplying only the pairs of images that can fail.

    * A vertex image whose every term a·b* has s(a) = s(b) = u lies in the
      corner u·L(E)·u of its ambient vertex u.  Images in corners u != w
      multiply to 0: each product of terms holds b*·c with s(b) = u and
      s(c) = w, and neither path is a prefix of the other.
    * An edge image whose every term a·b* has a start with one ambient edge e
      leads with e.  The ghost relation for images leading with e != f holds
      a*·c with a starting with e and c with f, which is 0 for the same
      reason.
    So the products run within each corner and each leading edge; an image
    that is zero, or has no single corner or leading edge, is multiplied with
    every image.  The pairs skipped multiply to 0 as they must, so this
    accepts exactly what multiplying every pair accepts.  The endpoint and
    range relations are linear in the domain already.
    """
    dom, g = emb.domain, emb.codomain
    vs = emb.vertex_images
    es = emb.edge_images
    for u, w in _partners(vs, lambda m: m.alpha.source if m.alpha.source == m.beta.source else None):
        prod = multiply(vs[u], vs[w])
        want = vs[u] if u == w else zero(g)
        if prod != want:
            raise InternalError(f"vertex images of {u!r}, {w!r} are not orthogonal idempotents")
    ghosts = {e.id: involute(es[e.id]) for e in dom.edges}
    for e in dom.edges:
        img = es[e.id]
        if multiply(vs[e.src], img) != img or multiply(img, vs[e.dst]) != img:
            raise InternalError(f"edge image of {e.id!r} is not compatible with its endpoints")
    for eid, fid in _partners(es, lambda m: m.alpha.edges[0] if m.alpha.edges else None):
        prod = multiply(ghosts[eid], es[fid])
        want = vs[dom.edge_by_id[eid].dst] if fid == eid else zero(g)
        if prod != want:
            raise InternalError(f"ghost relation fails at {eid!r}, {fid!r}")
    for v in dom.vertices:
        if not dom.is_regular(v):
            continue
        acc = zero(g)
        for e in dom.out_edges[v]:
            acc = acc + multiply(es[e.id], ghosts[e.id])
        if acc != vs[v]:
            raise InternalError(f"range relation fails at regular vertex {v!r}")


def complete_and_embed(g: Graph, F: Graph) -> EmbeddingData:
    """Complete a finite subgraph F of g and embed its algebra into the algebra of g.

    A vertex v of F is incomplete when it emits in F strictly fewer edges than
    in g (infinite emitters of g included); such vertices receive a primed twin
    v' and each F-edge into them a primed twin e'.  Such a v maps to m_v, the
    sum of e·e* over the F-edges out of v, built once, and v' to the
    complementary idempotent v - m_v; an F-edge e into v maps to e·m_v and
    its twin e' to e·(v - m_v), each the edge times its range's image.
    """
    if F.omega_pairs:
        raise NotASubgraph("a subgraph is given by explicit vertices and edges only")
    gset = set(g.vertices)
    for v in F.vertices:
        if v not in gset:
            raise NotASubgraph(f"vertex {v!r} is not in the ambient graph")
    for e in F.edges:
        if g.edge_by_id.get(e.id) != e:
            raise NotASubgraph(f"edge {e.id!r} is not an edge of the ambient graph")

    # F's edges are g's (checked above), so F emits fewer edges at v exactly
    # when it emits a proper subset of g's
    incomplete = [
        v for v in F.vertices
        if F.is_regular(v) and (len(F.out_edges[v]) < len(g.out_edges[v]) or g.is_infinite_emitter(v))
    ]
    incomplete_set = set(incomplete)

    used_vertices = set(F.vertices)
    primed_vertex = {v: _fresh(f"{v}'", used_vertices) for v in incomplete}
    used_edges = {e.id for e in F.edges}
    primed_edge = {
        e.id: _fresh(f"{e.id}'", used_edges)
        for e in F.edges
        if e.dst in incomplete_set
    }

    dom_vertices = tuple(F.vertices) + tuple(primed_vertex[v] for v in incomplete)
    dom_edges = list(F.edges)
    for e in F.edges:
        if e.dst in incomplete_set:
            dom_edges.append(Edge(primed_edge[e.id], e.src, primed_vertex[e.dst]))
    domain = Graph(dom_vertices, tuple(dom_edges))

    vertex_images = {v: vertex_element(g, v) for v in F.vertices}
    for v in incomplete:
        m_v = zero(g)
        for e in F.out_edges[v]:
            ee = path_element(g, (e.id,))
            m_v = m_v + multiply(ee, involute(ee))
        vertex_images[primed_vertex[v]] = vertex_images[v] - m_v
        vertex_images[v] = m_v

    edge_images: dict[str, Element] = {}
    for e in F.edges:
        base = path_element(g, (e.id,))
        if e.dst in incomplete_set:
            edge_images[e.id] = multiply(base, vertex_images[e.dst])
            edge_images[primed_edge[e.id]] = multiply(base, vertex_images[primed_vertex[e.dst]])
        else:
            edge_images[e.id] = base

    emb = EmbeddingData(domain, g, vertex_images, edge_images)
    _verify_embedding(emb)
    return emb


def embed_element(emb: EmbeddingData, x: Element) -> Element:
    """Push an element over the completed graph, ``emb.domain``, through the embedding."""
    if x.graph != emb.domain:
        raise GraphMismatch("element is not over the embedding's domain")
    g = emb.codomain
    out = zero(g)
    for m, c in x.terms():
        acc = emb.vertex_images[m.alpha.source]
        for eid in m.alpha.edges:
            acc = multiply(acc, emb.edge_images[eid])
        ghost = emb.vertex_images[m.beta.source]
        for eid in m.beta.edges:
            ghost = multiply(ghost, emb.edge_images[eid])
        acc = multiply(acc, involute(ghost))
        out = out + acc.scale(c)
    return out
