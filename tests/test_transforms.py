import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import source_tail_into_rose
from leavitt_lab import transforms, zoo
from leavitt_lab.errors import (
    BecameEmpty,
    BudgetExceeded,
    GraphMismatch,
    InternalError,
    NoInfiniteEmitters,
    NotASubgraph,
    UnknownVertex,
)
from leavitt_lab.graph import Graph, Verdict, classify_graph, enumerate_paths, graph_to_json
from leavitt_lab.lpa import (
    GR_ZERO,
    Monomial,
    involute,
    multiply,
    normalize_terms,
    path_element,
    vertex_element,
)
from leavitt_lab.transforms import (
    complete_and_embed,
    desingularize,
    embed_element,
    reachable_subgraph,
    remove_sources,
)
from oracles import (
    oracle_incomplete_vertices,
    oracle_is_excluded,
    oracle_remove_sources,
    oracle_verify_embedding,
)
from test_graph import random_graphs


# ---------------------------------------------------------------------------
# remove_sources
# ---------------------------------------------------------------------------


def test_remove_sources_single_source():
    g = Graph(("u", "v"), (("g", "u", "v"), ("e", "v", "v")))
    h = remove_sources(g)
    assert h.vertices == ("v",)
    assert [e.id for e in h.edges] == ["e"]


def test_remove_sources_fixed_point(r2):
    assert remove_sources(r2) == r2


def test_remove_sources_erodes_acyclic(a2, a3):
    for g in (a2, a3, Graph(())):
        with pytest.raises(BecameEmpty, match="^source removal deleted every vertex$"):
            remove_sources(g)


def test_remove_sources_iterates():
    g = Graph(
        ("s1", "s2", "v"),
        (("a", "s1", "s2"), ("b", "s2", "v"), ("e", "v", "v"), ("f", "v", "v")),
    )
    h = remove_sources(g)
    assert h.vertices == ("v",)


def test_remove_sources_keeps_omega_targets():
    # the omega pair gives w infinitely many incoming edges, so w is not a source
    g = Graph(("v", "w"), (), (("v", "w"), ("w", "v")))
    assert remove_sources(g) == g


def test_remove_sources_preserves_spi_verdict():
    for g in [zoo.source_into_rose()] + list(zoo.spi_fixtures().values()):
        if classify_graph(g).verdict is not Verdict.SIMPLE_PURELY_INFINITE:
            continue
        h = remove_sources(g)
        assert classify_graph(h).verdict is Verdict.SIMPLE_PURELY_INFINITE


def test_remove_sources_keeps_every_cycle():
    from leavitt_lab.graph import find_cycles

    for g in [zoo.source_into_rose(), zoo.rand4a(), zoo.spi4(), zoo.r2()]:
        before = {c.edges for c, _ in find_cycles(g)}
        if not before:
            continue
        after = {c.edges for c, _ in find_cycles(remove_sources(g))}
        assert before == after


@st.composite
def framed_graphs(draw):
    """``random_graphs`` (omega self pairs included) with random frontier vertices."""
    g = draw(random_graphs())
    frontier = draw(st.sets(st.sampled_from(g.vertices)))
    return Graph(g.vertices, g.edges, g.omega_pairs, frontier)


@given(st.one_of(st.just(Graph(())), framed_graphs()))
@settings(deadline=None, max_examples=400)
def test_remove_sources_matches_round_by_round_oracle(g):
    try:
        expected = oracle_remove_sources(g)
    except BecameEmpty as exc:
        with pytest.raises(BecameEmpty) as caught:
            remove_sources(g)
        assert str(caught.value) == str(exc)
    else:
        assert graph_to_json(remove_sources(g)) == graph_to_json(expected)


def test_remove_sources_long_tail_within_budget():
    # rebuilding the graph once per round of sources took 2.4-3.2 s on a 2-core machine
    g = source_tail_into_rose(2000)
    start = time.perf_counter()
    h = remove_sources(g)
    elapsed = time.perf_counter() - start
    assert h == zoo.r2()
    assert elapsed < 0.5


# ---------------------------------------------------------------------------
# desingularize
# ---------------------------------------------------------------------------


def test_desingularize_tail_only():
    g = Graph(("v", "w"), (), (("v", "w"),))
    d = desingularize(g, 3)
    assert d.vertices == ("v", "w", "v_1", "v_2", "v_3")
    got = [(e.id, e.src, e.dst) for e in d.edges]
    assert got == [
        ("v_t1", "v", "v_1"),
        ("v_t2", "v_1", "v_2"),
        ("v_t3", "v_2", "v_3"),
        ("v~w^1", "v", "w"),
        ("v~w^2", "v_1", "w"),
        ("v~w^3", "v_2", "w"),
    ]
    assert d.frontier == frozenset({"v_3"})
    assert d.is_row_finite


def test_desingularize_explicit_edges_first():
    g = Graph(("v", "u", "w"), (("e", "v", "u"),), (("v", "w"),))
    d = desingularize(g, 2)
    by_id = {e.id: (e.src, e.dst) for e in d.edges}
    assert by_id["e"] == ("v", "u")
    assert by_id["v~w^1"] == ("v_1", "w")
    assert by_id["v~w^2"] == ("v_2", "w")
    assert d.frontier == frozenset({"v_3"})


def test_desingularize_round_robin_two_pairs():
    g = Graph(("v", "a", "b"), (), (("v", "b"), ("v", "a")))
    d = desingularize(g, 2)
    by_id = {e.id: (e.src, e.dst) for e in d.edges}
    # round-robin by dst id: a then b at every level
    assert by_id["v~a^1"] == ("v", "a")
    assert by_id["v~b^1"] == ("v_1", "b")
    assert by_id["v~a^2"] == ("v_2", "a")
    assert by_id["v~b^2"] == ("v_3", "b")


def test_desingularize_requires_omega(r2):
    with pytest.raises(NoInfiniteEmitters):
        desingularize(r2, 2)


def test_desingularize_budget_fires_before_building(monkeypatch):
    # the real budget is far below the depth that used to exhaust memory;
    # only the arithmetic is checked, the huge case never runs
    assert 100_000_000 > transforms.DESINGULARIZE_BUDGET
    g = Graph(("v", "a", "b"), (), (("v", "b"), ("v", "a")))
    monkeypatch.setattr(transforms, "DESINGULARIZE_BUDGET", 4)
    assert len(desingularize(g, 2).edges) == 8

    def no_building(*args):
        raise AssertionError("desingularize built edges past its budget")

    monkeypatch.setattr(transforms, "_fresh", no_building)
    with pytest.raises(BudgetExceeded):
        desingularize(g, 3)


def test_desingularize_many_emitters_within_budget():
    # every edge used to rebuild the emitter set and every emitter to scan every edge
    n = 10**4
    verts = tuple(f"v{i}" for i in range(n))
    g = Graph(
        verts,
        tuple((f"e{i}", v, v) for i, v in enumerate(verts)),
        tuple((v, verts[(i + 1) % n]) for i, v in enumerate(verts)),
    )
    start = time.perf_counter()
    d = desingularize(g, 1)
    elapsed = time.perf_counter() - start
    assert len(d.vertices) == 3 * n and len(d.edges) == 4 * n and len(d.frontier) == n
    assert d.edge_by_id["e7"].src == "v7" and d.edge_by_id["v7~v8^1"].src == "v7_1"
    assert elapsed < 2.0


def test_desingularize_fresh_names_avoid_collisions():
    # the graph already owns the natural tail names; freshness must kick in
    g = Graph(("v", "v_1", "w"), (("v_t1", "v_1", "w"),), (("v", "w"),))
    d = desingularize(g, 1)
    assert len(set(d.vertices)) == len(d.vertices)
    assert len({e.id for e in d.edges}) == len(d.edges)
    assert "v_1'" in d.vertices
    assert d.frontier == frozenset({"v_1'"})


def test_desingularize_multiple_emitters():
    g = Graph(("u", "v", "w"), (), (("u", "w"), ("v", "w")))
    d = desingularize(g, 2)
    assert d.is_row_finite
    assert d.frontier == frozenset({"u_2", "v_2"})
    by_id = {e.id: (e.src, e.dst) for e in d.edges}
    assert by_id["u~w^1"] == ("u", "w") and by_id["u~w^2"] == ("u_1", "w")
    assert by_id["v~w^1"] == ("v", "w") and by_id["v~w^2"] == ("v_1", "w")


def test_desingularize_preserves_spi_with_frontier_as_sink():
    for g in (zoo.omega_spi(),):
        for depth in (1, 2, 3):
            d = desingularize(g, depth)
            assert classify_graph(d, frontier="sink").verdict is Verdict.SIMPLE_PURELY_INFINITE


def test_desingularize_not_simple_stays_not_simple():
    d = desingularize(zoo.omega_to_sink(), 2)
    assert classify_graph(d, frontier="sink").verdict is Verdict.NOT_SIMPLE


# ---------------------------------------------------------------------------
# reachable subgraph
# ---------------------------------------------------------------------------


def test_reachable_whole_graph():
    g = Graph(("u", "v"), (("g", "u", "v"), ("e", "v", "v")))
    assert reachable_subgraph(g, "u") == g


def test_reachable_proper():
    g = Graph(("u", "v"), (("g", "u", "v"), ("e", "v", "v")))
    h = reachable_subgraph(g, "v")
    assert h.vertices == ("v",)
    assert [e.id for e in h.edges] == ["e"]


def test_reachable_r2(r2):
    assert reachable_subgraph(r2, "v") == r2


def test_reachable_idempotent():
    for g in zoo.standard_graphs().values():
        for w in g.vertices:
            h = reachable_subgraph(g, w)
            assert reachable_subgraph(h, w) == h


def test_reachable_unknown(r2):
    with pytest.raises(UnknownVertex, match="^vertex 'zz' is not in the graph$"):
        reachable_subgraph(r2, "zz")


def test_reachable_traverses_omega(omega_spi):
    assert reachable_subgraph(omega_spi, "v") == omega_spi


# ---------------------------------------------------------------------------
# corner identity shadow: corner monomials agree between E and H
# ---------------------------------------------------------------------------


def corner_monomials(g: Graph, w: str, max_len: int) -> set:
    """Normal-form monomial pairs (alpha, beta) with both sources w, lengths <= max_len."""
    outgoing = []
    for r in range(max_len + 1):
        outgoing.extend(p for p in enumerate_paths(g, r) if p.source == w)
    pairs = set()
    for a in outgoing:
        for b in outgoing:
            if g.range_of(a) != g.range_of(b):
                continue
            if oracle_is_excluded(g, Monomial(a, b)):
                continue
            pairs.add((a.edges, b.edges))
    return pairs


CORNER_CASES = [
    (Graph(("u", "v"), (("g", "u", "v"), ("e", "v", "v"), ("f", "v", "v"))), "v"),
    (Graph(("u", "v"), (("g", "u", "v"), ("e", "v", "v"), ("f", "v", "v"))), "u"),
    (zoo.spi3(), "b"),
    (zoo.spi4(), "c"),
    (zoo.a3(), "v"),
]


@pytest.mark.parametrize("g,w", CORNER_CASES)
def test_corner_monomials_match_reachable_subgraph(g, w):
    h = reachable_subgraph(g, w)
    for n in range(5):
        assert corner_monomials(g, w, n) == corner_monomials(h, w, n)


# ---------------------------------------------------------------------------
# complete_and_embed
# ---------------------------------------------------------------------------


def test_embed_r2_single_loop(r2):
    F = Graph(("v",), (("e", "v", "v"),))
    emb = complete_and_embed(r2, F)
    assert emb.domain.vertices == ("v", "v'")
    assert [(e.id, e.src, e.dst) for e in emb.domain.edges] == [
        ("e", "v", "v"),
        ("e'", "v", "v'"),
    ]
    e = path_element(r2, ("e",))
    f = path_element(r2, ("f",))
    ee = multiply(e, involute(e))
    ff = multiply(f, involute(f))
    v = vertex_element(r2, "v")
    assert emb.vertex_images["v"] == ee
    assert emb.vertex_images["v'"] == v - ee
    assert emb.vertex_images["v'"] == ff
    assert emb.edge_images["e"] == multiply(e, ee)
    assert emb.edge_images["e'"] == multiply(e, v - ee)
    # orthogonality q·m = 0
    assert multiply(emb.vertex_images["v'"], emb.vertex_images["v"]).is_zero


def test_embed_full_subgraph_is_identity(spi3):
    emb = complete_and_embed(spi3, spi3)
    assert emb.domain == spi3
    for v in spi3.vertices:
        assert emb.vertex_images[v] == vertex_element(spi3, v)
    for e in spi3.edges:
        assert emb.edge_images[e.id] == path_element(spi3, (e.id,))


def test_embed_omega_ambient():
    # a finite subgraph of a graph with an infinite emitter: q stays finite
    g = zoo.omega_spi()
    F = Graph(("v", "w"), (("f", "w", "v"),))
    emb = complete_and_embed(g, F)
    # w regular in F but not complete in g? w emits only f in both: complete.
    # v emits nothing in F: not regular in F, no primed twin.
    assert emb.domain == F


def test_embed_rejects_non_subgraph(r2, a2):
    with pytest.raises(NotASubgraph):
        complete_and_embed(r2, Graph(("x",)))
    with pytest.raises(NotASubgraph):
        complete_and_embed(r2, Graph(("v",), (("zz", "v", "v"),)))
    with pytest.raises(NotASubgraph):
        complete_and_embed(r2, Graph(("v",), (), (("v", "v"),)))


def _random_subgraph(g, rng):
    verts = [v for v in g.vertices if rng.random() < 0.8]
    if not verts:
        verts = [g.vertices[0]]
    vset = set(verts)
    edges = [e for e in g.edges if e.src in vset and e.dst in vset and rng.random() < 0.8]
    return Graph(tuple(verts), tuple(edges))


def test_embed_random_subgraphs_relations_hold():
    # relation soundness is verified at construction; exercise many shapes
    rng = random.Random(2024)
    for g in (zoo.r2(), zoo.spi3(), zoo.spi4(), zoo.a3(), zoo.rand4b()):
        for _ in range(8):
            F = _random_subgraph(g, rng)
            emb = complete_and_embed(g, F)
            assert set(emb.vertex_images) == set(emb.domain.vertices)
            assert set(emb.edge_images) == {e.id for e in emb.domain.edges}


@st.composite
def subgraphs_with_dropped_edges(draw):
    """An ambient graph with one or two omega pairs, and a subgraph F of it:
    some of its vertices, each edge among them kept or dropped at random."""
    g = draw(random_graphs(max_vertices=5, min_omega=1))
    verts = draw(st.lists(st.sampled_from(g.vertices), min_size=1, unique=True))
    inside = [e for e in g.edges if e.src in verts and e.dst in verts]
    keep = draw(st.lists(st.booleans(), min_size=len(inside), max_size=len(inside)))
    return g, Graph(tuple(verts), tuple(e for e, kept in zip(inside, keep) if kept))


@given(subgraphs_with_dropped_edges())
@settings(deadline=None, max_examples=150)
def test_completion_twins_the_oracle_incomplete_vertices(case):
    g, F = case
    emb = complete_and_embed(g, F)
    # no vertex id holds a prime, so each twin is its vertex's id primed once
    assert emb.domain.vertices == F.vertices + tuple(f"{v}'" for v in oracle_incomplete_vertices(g, F))


def _accepts(check, emb) -> bool:
    try:
        check(emb)
    except InternalError:
        return False
    return True


@given(subgraphs_with_dropped_edges(), st.data())
@settings(deadline=None, max_examples=150)
def test_grouped_embedding_check_agrees_with_the_pairwise_oracle(case, data):
    g, F = case
    emb = complete_and_embed(g, F)  # the grouped check accepts it, or this raises
    oracle_verify_embedding(emb)
    # with two vertex images or two edge images swapped, both give one verdict
    field = data.draw(st.sampled_from(["vertex_images", "edge_images"]))
    images = dict(getattr(emb, field))
    if len(images) >= 2:
        a, b = data.draw(st.lists(st.sampled_from(sorted(images)), min_size=2, max_size=2, unique=True))
        images[a], images[b] = images[b], images[a]
        swapped = emb._replace(**{field: images})
        assert _accepts(transforms._verify_embedding, swapped) == _accepts(oracle_verify_embedding, swapped)


def _planted_faults():
    """Embeddings of a subgraph of the two-vertex graph with loops a at u and
    d at w and edges b: u -> w, c: w -> u, each with one image spoiled."""
    g = Graph(("u", "w"), (("a", "u", "u"), ("b", "u", "w"), ("c", "w", "u"), ("d", "w", "w")))
    emb = complete_and_embed(g, Graph(("u", "w"), (("a", "u", "u"), ("c", "w", "u"))))
    # w is complete here, so its image w lets an image of c lead with d too
    full_w = complete_and_embed(g, Graph(("u", "w"), (("a", "u", "u"), ("c", "w", "u"), ("d", "w", "w"))))
    vs, es = emb.vertex_images, emb.edge_images
    m_u = vs["u"]  # u - b·b*
    assert len(m_u) == 2
    c = full_w.edge_images["c"]
    return {
        "vertex_moved_off_its_corner": emb._replace(vertex_images={**vs, "w'": vs["u'"]}),
        "vertex_over_two_corners": emb._replace(vertex_images={**vs, "w'": vs["w'"] + vs["u'"]}),
        "edge_with_two_leading_edges": full_w._replace(
            edge_images={**full_w.edge_images, "c": c + multiply(path_element(g, ("d",)), c)}
        ),
        "edge_and_twin_swapped": emb._replace(edge_images={**es, "a": es["a'"], "a'": es["a"]}),
        "m_v_missing_a_term": emb._replace(
            vertex_images={**vs, "u": normalize_terms(g, dict(m_u.terms()[1:]))}
        ),
    }


@pytest.mark.parametrize("fault", list(_planted_faults()))
def test_both_embedding_checks_reject_a_planted_fault(fault):
    emb = _planted_faults()[fault]
    for check in (transforms._verify_embedding, oracle_verify_embedding):
        with pytest.raises(InternalError):
            check(emb)


def test_complete_line_family_within_budget():
    # multiplying every pair of images took 3.1 s at n = 400
    n = 4000
    verts = tuple(f"v{i}" for i in range(n))
    line = tuple((f"e{i}", verts[i], verts[i + 1]) for i in range(n - 1))
    back = tuple((f"b{i}", verts[i], verts[0]) for i in range(n))
    g, F = Graph(verts, line + back), Graph(verts, line)
    start = time.perf_counter()
    emb = complete_and_embed(g, F)
    elapsed = time.perf_counter() - start
    assert len(emb.domain.vertices) == 2 * n - 1
    assert elapsed < 2.0


def _monomial_basis(g, max_len):
    pool = []
    for r in range(max_len + 1):
        pool.extend(enumerate_paths(g, r))
    basis = []
    for a in pool:
        for b in pool:
            if g.range_of(a) != g.range_of(b):
                continue
            m = Monomial(a, b)
            if not oracle_is_excluded(g, m):
                basis.append(m)
    return basis


def _rank_over_gaussians(vectors):
    """Row rank of a list of dict-of-monomial -> coefficient, by exact elimination."""
    rows = [dict(v) for v in vectors if v]
    rank = 0
    while rows:
        pivot_row = rows.pop()
        pivot_key = next(iter(sorted(pivot_row, key=repr)))
        pivot_val = pivot_row[pivot_key]
        rank += 1
        reduced = []
        for row in rows:
            if pivot_key in row:
                factor = row[pivot_key] * pivot_val.reciprocal()
                new = dict(row)
                for k, v in pivot_row.items():
                    acc = new.get(k, GR_ZERO) - factor * v
                    if acc:
                        new[k] = acc
                    else:
                        new.pop(k, None)
                row = new
            if row:
                reduced.append(row)
        rows = reduced
    return rank


def test_embedding_injective_on_monomial_basis():
    rng = random.Random(450)
    for g in (zoo.r2(), zoo.spi3()):
        F = _random_subgraph(g, rng)
        emb = complete_and_embed(g, F)
        basis = _monomial_basis(emb.domain, 3)
        images = []
        for m in basis:
            from leavitt_lab.lpa import normalize_terms, GR_ONE

            x = normalize_terms(emb.domain, {m: GR_ONE})
            if x.is_zero:
                continue
            img = embed_element(emb, x)
            images.append({mm: c for mm, c in img.terms()})
        assert all(images), "monomial basis images must be nonzero"
        assert _rank_over_gaussians(images) == len(images)


def test_embed_element_is_multiplicative():
    rng = random.Random(88)
    from leavitt_lab.sample import random_element

    cases = [
        (zoo.spi3(), Graph(("a", "b"), (("e1", "a", "b"),))),
        (zoo.r2(), Graph(("v",), (("e", "v", "v"),))),
        (zoo.spi4(), Graph(("a", "b", "c"), (("e1", "a", "b"), ("e2", "b", "c")))),
    ]
    for g, F in cases:
        emb = complete_and_embed(g, F)
        for _ in range(8):
            x = random_element(emb.domain, rng, max_terms=3, max_len=2, nonzero=False)
            y = random_element(emb.domain, rng, max_terms=3, max_len=2, nonzero=False)
            assert embed_element(emb, multiply(x, y)) == multiply(
                embed_element(emb, x), embed_element(emb, y)
            )
            assert embed_element(emb, involute(x)) == involute(embed_element(emb, x))
            assert embed_element(emb, x + y) == embed_element(emb, x) + embed_element(emb, y)


def test_embed_element_refuses_an_element_over_another_graph():
    # complete_and_embed adds nothing to F here, so F is the domain; other
    # reuses its vertex and edge ids, and a return value would mean e1 over spi3
    F = Graph(("a", "b"), (("e1", "a", "b"),))
    emb = complete_and_embed(zoo.spi3(), F)
    assert emb.domain == F
    assert embed_element(emb, path_element(F, ("e1",))) == path_element(emb.codomain, ("e1",))
    other = Graph(("a", "b"), (("e1", "a", "b"), ("e2", "b", "a")))
    with pytest.raises(GraphMismatch, match="not over the embedding's domain"):
        embed_element(emb, path_element(other, ("e1",)))
    assert not issubclass(GraphMismatch, ValueError)


def test_embedding_json_shape(r2):
    F = Graph(("v",), (("e", "v", "v"),))
    emb = complete_and_embed(r2, F)
    obj = emb.to_json_obj()
    assert set(obj) == {"domain", "codomain", "vertex_images", "edge_images"}
    assert set(obj["vertex_images"]) == {"v", "v'"}
