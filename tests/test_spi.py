import inspect
import itertools
import json
import random
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import source_tail_into_rose
from leavitt_lab import spi, zoo
from leavitt_lab.errors import (
    FrontierPresent,
    InternalError,
    NotCycleBase,
    NotDegreeFree,
    NotSPI,
    OmegaUnsupported,
    UnknownVertex,
    ZeroElement,
)
from leavitt_lab.graph import Graph, Path, Verdict, classify_graph, enumerate_paths
from leavitt_lab.lpa import (
    degree_component,
    element_from_json_obj,
    gauss,
    involute,
    monomial_element,
    multiply,
    path_element,
    vertex_element,
    zero,
)
from leavitt_lab.sample import random_element
from leavitt_lab.spi import (
    annihilating_closed_path,
    closed_paths_at,
    cohn_embedding,
    equal_length_closed_paths,
    incomparable_closed_path,
    least_cycle_at,
    path_to_cycle_base,
    spi_witness,
)
from leavitt_lab.transforms import desingularize

from oracles import (
    oracle_closed_paths_at,
    oracle_cohn_pair,
    oracle_incomparable_closed_path,
    oracle_path_to_cycle_base,
)
from test_graph import random_graphs


# ---------------------------------------------------------------------------
# closed-path machinery
# ---------------------------------------------------------------------------


def test_least_cycle_and_incomparable(r2):
    alpha = least_cycle_at(r2, "v")
    assert alpha == Path("v", ("e",))
    beta = incomparable_closed_path(r2, "v", alpha)
    assert beta == Path("v", ("f",))


def test_least_cycle_rotates_to_base(spi3):
    assert least_cycle_at(spi3, "a") == Path("a", ("e1", "e2", "e3"))
    assert least_cycle_at(spi3, "b") == Path("b", ("e2", "e3", "e1"))
    with pytest.raises(NotCycleBase):
        least_cycle_at(Graph(("u", "v"), (("g", "u", "v"), ("e", "v", "v"), ("f", "v", "v"))), "u")


@pytest.mark.parametrize(
    "call",
    [
        lambda g: closed_paths_at(g, "zz", 2),
        lambda g: closed_paths_at(g, "zz", 0),
        lambda g: incomparable_closed_path(g, "zz", Path("v", ("e",))),
        lambda g: path_to_cycle_base(g, "zz"),
        lambda g: equal_length_closed_paths(g, ["zz"], 2),
        lambda g: equal_length_closed_paths(g, ["v", "zz"], 2),
        lambda g: least_cycle_at(g, "zz"),
        lambda g: g.analysis.least_cycle_at("zz"),
        lambda g: annihilating_closed_path(zero(g), "zz"),
    ],
    ids=[
        "closed_paths_at", "closed_paths_at-0", "incomparable_closed_path", "path_to_cycle_base",
        "equal_length_closed_paths", "equal_length_closed_paths-mixed", "least_cycle_at",
        "GraphAnalysis.least_cycle_at", "annihilating_closed_path",
    ],
)
def test_search_helpers_refuse_unknown_vertex(r2, call):
    # a bare KeyError, an empty family, [<zz>], InternalError or NotCycleBase before
    with pytest.raises(UnknownVertex, match="vertex 'zz' is not in the graph"):
        call(r2)


def test_path_to_cycle_base():
    g = Graph(("u", "v"), (("g", "u", "v"), ("e", "v", "v"), ("f", "v", "v")))
    assert path_to_cycle_base(g, "u") == Path("u", ("g",))
    assert path_to_cycle_base(g, "v") == Path("v")


@given(random_graphs(max_vertices=7, max_omega=3))
@settings(deadline=None, max_examples=300)
def test_path_to_cycle_base_matches_forward_bfs_oracle(g):
    # the witness workloads start every route on a cycle, so this is the
    # walk's only check
    for v in g.vertices:
        try:
            expected = oracle_path_to_cycle_base(g, v)
        except InternalError:
            with pytest.raises(InternalError):
                path_to_cycle_base(g, v)
        else:
            assert path_to_cycle_base(g, v) == expected


@given(random_graphs(max_vertices=5), st.integers(0, 6), st.sampled_from([0, 1, 2]))
@settings(deadline=None, max_examples=150)
def test_closed_paths_match_recursive_oracle(g, length, omega_copies):
    for v in g.vertices:
        assert closed_paths_at(g, v, length, omega_copies) == oracle_closed_paths_at(
            g, v, length, omega_copies
        )


@given(random_graphs(max_vertices=5), st.data())
@settings(deadline=None, max_examples=300)
def test_incomparable_closed_path_matches_per_length_search(g, data):
    # alpha is a closed path at v, or a walk in out_alphabet(3) (so through an
    # omega copy ^3 when the graph has omega pairs) from v or another vertex,
    # trivial when it takes no step
    walks = g.out_alphabet(3)
    for v in g.vertices:
        start = data.draw(st.sampled_from((v,) + g.vertices))
        if data.draw(st.booleans()):
            alpha = next(iter(closed_paths_at(g, v, data.draw(st.integers(0, 2)))), Path(start))
        else:
            at, edges = start, []
            for _ in range(data.draw(st.integers(0, 4))):
                if not walks[at]:
                    break
                eid, at = data.draw(st.sampled_from(walks[at]))
                edges.append(eid)
            alpha = Path(start, tuple(edges))
        try:
            expected = oracle_incomparable_closed_path(g, v, alpha)
        except InternalError:
            with pytest.raises(InternalError):
                incomparable_closed_path(g, v, alpha)
        else:
            assert incomparable_closed_path(g, v, alpha) == expected


def test_incomparable_closed_path_leaves_an_alpha_that_leaves_the_alphabet():
    # the search walks two copies of each omega pair: no closed path follows ^3
    g = zoo.omega_spi()
    first, second, third = (f"v~w^{k}" for k in (1, 2, 3))
    assert incomparable_closed_path(g, "v", Path("v", (third, "f"))) == Path("v", (first, "f"))
    assert incomparable_closed_path(g, "v", Path("v", (first, "f"))) == Path("v", (second, "f"))
    assert incomparable_closed_path(g, "v", Path("w", ("f",))) == Path("v", (first, "f"))
    with pytest.raises(InternalError, match="no incomparable closed path"):
        incomparable_closed_path(g, "v", Path("v"))


def ring_with_loops(n, loops):
    """The ring v0 -> v1 -> ... -> v0 with a loop at each listed vertex; the
    loop ids sort first, so the least cycle there is the loop and any
    incomparable closed path must run the whole ring."""
    verts = tuple(f"v{i}" for i in range(n))
    ring = tuple((f"e{i}", verts[i], verts[(i + 1) % n]) for i in range(n))
    return Graph(verts, ring + tuple((f"a{i}", verts[i], verts[i]) for i in loops))


def test_witness_on_deep_ring_within_budget():
    # the walk used to recurse once per edge and overflow the stack here
    g = ring_with_loops(1200, [0])
    a = path_element(g, ("e0",))
    start = time.perf_counter()
    w = spi_witness(a)
    elapsed = time.perf_counter() - start
    check_witness(g, a, w)
    assert elapsed < 5.0


def test_witness_of_long_path_over_rose_within_budget(r2):
    # Step 4 used to enumerate all 2^(n+1) paths of length n: 1.2 s at n = 18
    a = path_element(r2, ("f",) * 40)
    start = time.perf_counter()
    w = spi_witness(a)
    elapsed = time.perf_counter() - start
    check_witness(r2, a, w)
    assert w.trace[1]["alpha"] == ["f"] * 40
    assert elapsed < 1.0


def test_witness_of_long_loop_power_within_budget(r2):
    # the degree shift gamma*·e^n = v leaves Step 3 a vertex; before it did,
    # Step 3 expanded 2^n monomials: 0.46 s at n = 16
    a = path_element(r2, ("e",) * 40)
    start = time.perf_counter()
    w = spi_witness(a)
    elapsed = time.perf_counter() - start
    check_witness(r2, a, w)
    assert elapsed < 1.0


def test_incomparable_closed_path_on_deep_ring_within_budget():
    # listing the closed paths of each length in turn took 1.08 s at n = 2,000
    n = 4000
    g = ring_with_loops(n, [0])
    alpha = least_cycle_at(g, "v0")
    start = time.perf_counter()
    beta = incomparable_closed_path(g, "v0", alpha)
    elapsed = time.perf_counter() - start
    assert beta == Path("v0", tuple(f"e{i}" for i in range(n)))
    assert elapsed < 0.2


def test_incomparable_closed_path_on_looped_ring_within_budget():
    # every walk of length n from v0 used to be tried: 2^n of them
    g = ring_with_loops(30, range(30))
    start = time.perf_counter()
    beta = incomparable_closed_path(g, "v0", least_cycle_at(g, "v0"))
    elapsed = time.perf_counter() - start
    assert beta == Path("v0", tuple(f"e{i}" for i in range(30)))
    assert elapsed < 2.0


# ---------------------------------------------------------------------------
# equal-length closed-path families
# ---------------------------------------------------------------------------


def test_family_r2_m2(r2):
    fam = equal_length_closed_paths(r2, ["v"], 2)
    assert fam.common_length == 3
    assert fam.paths["v"] == (Path("v", ("e", "f", "e")), Path("v", ("e", "e", "f")))


def test_family_r2_m1(r2):
    fam = equal_length_closed_paths(r2, ["v"], 1)
    assert fam.common_length == 2
    assert fam.paths["v"] == (Path("v", ("e", "f")),)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_family_orthogonality(r2, m):
    fam = equal_length_closed_paths(r2, ["v"], m)
    paths = fam.paths["v"]
    assert len(paths) == len(set(paths)) == m
    assert all(p.length == fam.common_length for p in paths)
    v = vertex_element(r2, "v")
    for i, p in enumerate(paths):
        for j, q in enumerate(paths):
            prod = multiply(involute(path_element(r2, p)), path_element(r2, q))
            assert prod == (v if i == j else zero(r2))


def test_family_multi_vertex_common_length(spi3):
    fam = equal_length_closed_paths(spi3, ["a", "b"], 2)
    for v in ("a", "b"):
        assert all(p.length == fam.common_length for p in fam.paths[v])
        assert len(set(fam.paths[v])) == 2


def test_family_common_length_is_lcm():
    # per-vertex lengths 9 and 7 over the two interlocking cycles, so the
    # equalized family lives at their least common multiple
    g = zoo.rand4b()
    fam = equal_length_closed_paths(g, ["p", "q"], 2)
    assert fam.common_length == 63
    for v in ("p", "q"):
        paths = fam.paths[v]
        assert len(set(paths)) == 2
        assert all(p.length == 63 and p.source == v and g.range_of(p) == v for p in paths)
        unit = vertex_element(g, v)
        for i, p in enumerate(paths):
            for j, q_ in enumerate(paths):
                prod = multiply(involute(path_element(g, p)), path_element(g, q_))
                assert prod == (unit if i == j else zero(g))


def test_family_requires_spi(r1):
    with pytest.raises(NotSPI):
        equal_length_closed_paths(r1, ["v"], 2)


def test_family_requires_cycle_base():
    g = Graph(("u", "v"), (("g", "u", "v"), ("e", "v", "v"), ("f", "v", "v")))
    with pytest.raises(NotCycleBase):
        equal_length_closed_paths(g, ["u"], 2)


# ---------------------------------------------------------------------------
# Cohn relation elements
# ---------------------------------------------------------------------------


def test_cohn_r2(r2):
    q = cohn_embedding(r2, "v")
    assert q.s1 == path_element(r2, ("e",))
    assert q.s2 == path_element(r2, ("f",))
    assert q.t1 == involute(q.s1)
    v = vertex_element(r2, "v")
    grid = [[multiply(t, s) for s in (q.s1, q.s2)] for t in (q.t1, q.t2)]
    assert grid[0][0] == v and grid[1][1] == v
    assert grid[0][1].is_zero and grid[1][0].is_zero
    # the range idempotents are orthogonal
    p1 = multiply(q.s1, q.t1)
    p2 = multiply(q.s2, q.t2)
    assert multiply(p1, p2).is_zero


def test_cohn_every_vertex_of_every_spi_fixture():
    fixtures = dict(zoo.spi_fixtures())
    fixtures["omega_spi"] = zoo.omega_spi()
    fixtures["source_spi"] = Graph(
        ("u", "v"), (("g", "u", "v"), ("e", "v", "v"), ("f", "v", "v"))
    )
    for name, g in fixtures.items():
        for v in g.vertices:
            q = cohn_embedding(g, v)
            unit = vertex_element(g, v)
            for i, t in enumerate((q.t1, q.t2)):
                for j, s in enumerate((q.s1, q.s2)):
                    want = unit if i == j else zero(g)
                    assert multiply(t, s) == want, (name, v, i, j)


def test_cohn_matches_recursive_oracle():
    graphs = list(zoo.spi_fixtures().values()) + [zoo.omega_spi(), source_tail_into_rose(4)]
    graphs.append(
        Graph(
            ("u1", "u2", "u3", "v"),
            (("a1", "u1", "u2"), ("a2", "u2", "v"), ("b1", "u3", "u2"), ("b2", "u3", "v"),
             ("b3", "u3", "v"), ("e", "v", "v"), ("f", "v", "v")),
        )
    )
    for g in graphs:
        for v in g.vertices:
            q = cohn_embedding(g, v)
            assert (q.s1, q.s2) == oracle_cohn_pair(g, v), v


def test_cohn_multi_edge_routing():
    # two parallel routes from the sourceless... from a non-cycle-base vertex:
    # plain conjugation along one path would give t·s = (route idempotent), not u;
    # the sum over routes telescopes to u by the range relation
    g = Graph(
        ("u", "v"),
        (("g1", "u", "v"), ("g2", "u", "v"), ("e", "v", "v"), ("f", "v", "v")),
    )
    q = cohn_embedding(g, "u")
    u = vertex_element(g, "u")
    assert multiply(q.t1, q.s1) == u
    assert multiply(q.t1, q.s2).is_zero


def test_cohn_deep_and_branching_routes():
    # u1 routes through u2; u3 branches both into the chain and straight to
    # the cycle base, so the routes mix depths
    g = Graph(
        ("u1", "u2", "u3", "v"),
        (
            ("a1", "u1", "u2"),
            ("a2", "u2", "v"),
            ("b1", "u3", "u2"),
            ("b2", "u3", "v"),
            ("e", "v", "v"),
            ("f", "v", "v"),
        ),
    )
    for u in ("u1", "u2", "u3", "v"):
        q = cohn_embedding(g, u)
        unit = vertex_element(g, u)
        for i, t in enumerate((q.t1, q.t2)):
            for j, s in enumerate((q.s1, q.s2)):
                want = unit if i == j else zero(g)
                assert multiply(t, s) == want, (u, i, j)


def test_cohn_long_source_tail_uses_no_recursion():
    # one Python frame per vertex off the cycles raised RecursionError at a
    # 1,500-vertex tail; a lowered limit shows the same on a short tail
    g = source_tail_into_rose(300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        q = cohn_embedding(g, "t0")
    finally:
        sys.setrecursionlimit(limit)
    route = path_element(g, tuple(f"g{i}" for i in range(300)))
    alpha = path_element(g, least_cycle_at(g, "v"))
    assert q.s1 == multiply(multiply(route, alpha), involute(route))


def test_cohn_on_random_omega_spi_graphs():
    # in a simple graph an infinite emitter u with the pair (u, w) lies in the
    # closure of w, which it can enter only along a path, so u is a cycle base
    rng = random.Random(1313)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 6)
        verts = tuple(f"v{i}" for i in range(n))
        edges = tuple((f"e{i}", rng.choice(verts), rng.choice(verts)) for i in range(rng.randint(n, 2 * n)))
        omega = tuple((rng.choice(verts), rng.choice(verts)) for _ in range(rng.randint(1, 2)))
        g = Graph(verts, edges, omega)
        if classify_graph(g).verdict is not Verdict.SIMPLE_PURELY_INFINITE:
            continue
        checked += 1
        assert {u for u, _ in g.omega_pairs} <= g.analysis.cycle_bases
        for v in g.vertices:
            q = cohn_embedding(g, v)
            unit = vertex_element(g, v)
            for i, t in enumerate((q.t1, q.t2)):
                for j, s in enumerate((q.s1, q.s2)):
                    assert multiply(t, s) == (unit if i == j else zero(g)), (g, v, i, j)


def test_cohn_requires_spi(a2):
    with pytest.raises(NotSPI):
        cohn_embedding(a2, "u")


# ---------------------------------------------------------------------------
# annihilating closed paths
# ---------------------------------------------------------------------------


def annihilates(g, sigma, b):
    s = path_element(g, sigma)
    return multiply(multiply(involute(s), b), s).is_zero


def test_annihilator_b_is_edge(r2):
    # the least cycle e leaves by f at once (i = 0); one lap of e makes
    # e·f longer than b's one edge
    b = path_element(r2, ("e",))
    sigma = annihilating_closed_path(b, "v")
    assert sigma == Path("v", ("e", "f"))
    assert annihilates(r2, sigma, b)


def test_annihilator_mixed_degrees(r2):
    b = path_element(r2, ("e",)) + involute(path_element(r2, ("e",)))
    sigma = annihilating_closed_path(b, "v")
    assert sigma == Path("v", ("e", "f"))
    assert annihilates(r2, sigma, b)


def test_annihilator_zero_is_the_vertex(r2):
    assert annihilating_closed_path(zero(r2), "v") == Path("v")


def test_annihilator_rejects_degree_zero_part(r2):
    with pytest.raises(NotDegreeFree):
        annihilating_closed_path(vertex_element(r2, "v"), "v")


def test_annihilator_random(spi3, r3):
    rng = random.Random(17)
    for g, v in ((spi3, "a"), (r3, "v")):
        for _ in range(20):
            x = random_element(g, rng, max_terms=4, max_len=3, nonzero=False)
            b = x - degree_component(x, 0)
            sigma = annihilating_closed_path(b, v)
            assert sigma.source == v and g.range_of(sigma) == v
            assert annihilates(g, sigma, b)


def test_annihilator_sum_no_short_word_kills(r2):
    # w·w·(w·w·f)* survives conjugation by w, so no word of at most 6 edges
    # kills the 126-term sum; the paths in it are at most 13 long, so σ takes
    # 13 laps of e before its exit f
    words = [w for n in range(1, 7) for w in itertools.product("ef", repeat=n)]
    assert len(words) == 126
    b = zero(r2)
    for w in words:
        ww = path_element(r2, w * 2)
        b = b + multiply(ww, involute(path_element(r2, w * 2 + ("f",))))
    assert b.max_path_length() == 13
    assert not any(annihilates(r2, Path("v", w), b) for w in words)
    sigma = annihilating_closed_path(b, "v")
    assert sigma == Path("v", ("e",) * 13 + ("f",))
    assert annihilates(r2, sigma, b)


def test_annihilator_leaves_by_an_omega_copy(omega_spi):
    # the least cycle at v is v~w^1·f and its exit the copy v~w^2 (i = 0);
    # at w the cycle f·v~w^1 first has an exit at v (i = 1), so σ follows f
    b = path_element(omega_spi, ("v~w^1",))
    assert least_cycle_at(omega_spi, "v") == Path("v", ("v~w^1", "f"))
    sigma = annihilating_closed_path(b, "v")
    assert sigma == Path("v", ("v~w^1", "f", "v~w^2", "f"))
    assert annihilates(omega_spi, sigma, b)
    b = path_element(omega_spi, ("f",))
    sigma = annihilating_closed_path(b, "w")
    assert sigma == Path("w", ("f", "v~w^2"))
    assert annihilates(omega_spi, sigma, b)


def test_annihilator_forms_no_product(r2, monkeypatch):
    # σ is read off the least cycle, its exit and b's longest path
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return multiply(x, y)

    monkeypatch.setattr(spi, "multiply", counted)
    assert annihilating_closed_path(zero(r2), "v") == Path("v")
    b = path_element(r2, ("e", "f")) + involute(path_element(r2, ("f",)))
    assert annihilating_closed_path(b, "v") == Path("v", ("e", "e", "f"))
    assert calls == []


@st.composite
def degree_free_elements(draw, g):
    """Sums of λ·μ* with |λ| ≠ |μ|, walked in ``g.out_alphabet(3)``, so
    through omega copies ^3 that no closed path built here takes."""
    walks = g.out_alphabet(3)
    into = {v: [] for v in g.vertices}
    for u, outs in walks.items():
        for eid, dst in outs:
            into[dst].append((eid, u))
    b = zero(g)
    for _ in range(draw(st.integers(0, 4))):
        at, lam = draw(st.sampled_from(g.vertices)), []
        start = at
        for _ in range(draw(st.integers(0, 5))):
            if not walks[at]:
                break
            eid, at = draw(st.sampled_from(walks[at]))
            lam.append(eid)
        back, mu = at, []
        for _ in range(draw(st.integers(0, 5))):
            if not into[back]:
                break
            eid, back = draw(st.sampled_from(into[back]))
            mu.insert(0, eid)
        if len(lam) != len(mu):
            coeff = gauss(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
            b = b + monomial_element(g, Path(start, tuple(lam)), Path(back, tuple(mu)), coeff)
    return b


@given(random_graphs(max_vertices=5, max_omega=2, edges_per_vertex=(1, 3)), st.data())
@settings(deadline=None, max_examples=150)
def test_annihilator_kills_random_degree_free_elements(g, data):
    assume(classify_graph(g).verdict is Verdict.SIMPLE_PURELY_INFINITE)
    b = data.draw(degree_free_elements(g))
    assert degree_component(b, 0).is_zero
    for v in sorted(g.analysis.cycle_bases):
        sigma = annihilating_closed_path(b, v)
        assert sigma.source == v and g.range_of(sigma) == v
        assert annihilates(g, sigma, b)


# ---------------------------------------------------------------------------
# the witness
# ---------------------------------------------------------------------------


def check_witness(g, a, w):
    assert multiply(multiply(w.x, a), w.y) == vertex_element(g, w.v)


def test_witness_vertex(r2):
    a = vertex_element(r2, "v")
    w = spi_witness(a)
    check_witness(r2, a, w)
    assert w.v == "v"


def test_witness_single_edge(r2):
    a = path_element(r2, ("e",))
    w = spi_witness(a)
    check_witness(r2, a, w)
    steps = [t["step"] for t in w.trace]
    assert steps == ["Normalize", "Step4", "Step3", "Step2"]
    step4 = w.trace[1]
    assert step4["n"] == 1 and step4["alpha"] == ["e"]
    # frozen deterministic output, derived by hand from the stage choices:
    # e*·e = v leaves b = 0, so σ = v, x = e* and y = v
    assert w.x == involute(path_element(r2, ("e",)))
    assert w.y == vertex_element(r2, "v")


def test_witness_mixed_terms(r2):
    # ef* + f has a nonzero degree-zero part, so the degree shift is skipped
    # and the work happens in the extraction and annihilation stages
    ef = multiply(path_element(r2, ("e",)), involute(path_element(r2, ("f",))))
    a = ef + path_element(r2, ("f",))
    w = spi_witness(a)
    check_witness(r2, a, w)
    steps = [t["step"] for t in w.trace]
    assert steps == ["Normalize", "Step3", "Step2"]
    step2 = [t for t in w.trace if t["step"] == "Step2"][0]
    assert step2["z"] == "omitted (exact)"
    # the annihilation stage's remainder b has no degree-zero part, and its
    # closed path sigma kills it: sigma*·b·sigma = 0 exactly
    b = element_from_json_obj(r2, step2["b"])
    sigma = path_element(r2, Path(step2["sigma_src"], tuple(step2["sigma"])))
    assert degree_component(b, 0).is_zero
    assert multiply(multiply(involute(sigma), b), sigma).is_zero


def test_witness_with_nontrivial_every_stage(r2):
    # purely positive-degree input whose shift leaves an off-degree remainder:
    # the degree shift, extraction and annihilation stages all do real work
    a = path_element(r2, ("e",)) + path_element(r2, ("e", "e")).scale(2)
    w = spi_witness(a)
    check_witness(r2, a, w)
    steps = [t["step"] for t in w.trace]
    assert steps == ["Normalize", "Step4", "Step3", "Step2"]
    step2 = [t for t in w.trace if t["step"] == "Step2"][0]
    assert step2["b"] != []  # the annihilation stage had a nonzero remainder
    # by hand: e*·a = v + 2e, Step 3 keeps x0 = y0 = v, so b = 2e, σ = e·f
    # (one lap of e, then the exit f), x = (e·f)*·e* and y = e·f
    assert step2["sigma"] == ["e", "f"]
    assert w.x == involute(path_element(r2, ("e", "e", "f")))
    assert w.y == path_element(r2, ("e", "f"))


def test_witness_negative_degree(r2):
    a = involute(path_element(r2, ("e", "f")))
    w = spi_witness(a)
    check_witness(r2, a, w)
    step4 = [t for t in w.trace if t["step"] == "Step4"][0]
    assert step4["n"] == -2


def test_witness_errors(r1, r2, a2, omega_spi):
    with pytest.raises(ZeroElement):
        spi_witness(zero(r2))
    with pytest.raises(NotSPI):
        spi_witness(vertex_element(r1, "v"))
    with pytest.raises(OmegaUnsupported):
        spi_witness(vertex_element(omega_spi, "v"))
    # a truncation is refused before classification, whose own refusal
    # names its keyword argument
    truncated = desingularize(omega_spi, 2)
    with pytest.raises(FrontierPresent, match="needs a whole graph"):
        spi_witness(vertex_element(truncated, "v"))
    with pytest.raises(NotSPI):
        spi_witness(vertex_element(a2, "u"))


def test_witness_over_graph_with_sources():
    g = zoo.source_into_rose()
    gg = path_element(g, ("g",))
    for a in (
        vertex_element(g, "u"),
        vertex_element(g, "v"),
        multiply(gg, involute(gg)),
        path_element(g, ("g", "e")),
        involute(path_element(g, ("g", "f"))),
    ):
        check_witness(g, a, spi_witness(a))


def test_witness_soundness_random_sample():
    rng = random.Random(555)
    for name, g in zoo.spi_fixtures().items():
        for _ in range(15):
            a = random_element(g, rng, max_terms=6, max_len=4)
            w = spi_witness(a)
            check_witness(g, a, w)


def test_witness_corner_locality():
    rng = random.Random(808)
    for g, v in ((zoo.r2(), "v"), (zoo.spi3(), "b")):
        for _ in range(10):
            a = random_element(g, rng, max_terms=4, max_len=3, corner=v)
            vv = vertex_element(g, v)
            assert multiply(multiply(vv, a), vv) == a
            w = spi_witness(a)
            check_witness(g, a, w)
            p = vertex_element(g, w.v)
            assert multiply(multiply(p, multiply(multiply(w.x, a), w.y)), p) == p


def test_step4_shift_identity():
    # shifting a by a ghost path moves the degree-n component to degree 0;
    # Step 4's ghost prefix gamma of the least term keeps the terms of a_n
    # that start with gamma, so the shifted degree-zero part is nonzero
    rng = random.Random(99)
    g = zoo.spi3()
    for _ in range(20):
        a = random_element(g, rng, max_terms=4, max_len=3)
        degs = [d for d in a.degrees() if d > 0]
        if not degs:
            continue
        n = degs[0]
        comp = degree_component(a, n)
        w = next(v for v in g.vertices if any(m.beta.source == v for m, _ in comp.terms()))
        alpha = enumerate_paths(g, n, end=w)[0]
        ae = path_element(g, alpha)
        lhs = multiply(degree_component(multiply(a, involute(ae)), 0), ae)
        rhs = multiply(comp, vertex_element(g, w))
        assert lhs == rhs
        assert not rhs.is_zero

        least = comp.terms()[0][0]
        gamma = path_element(g, Path(least.alpha.source, least.alpha.edges[:n]))
        shifted = multiply(gamma, degree_component(multiply(involute(gamma), a), 0))
        prefixed = zero(g)
        for m, c in comp.terms():
            if m.alpha.edges[:n] == least.alpha.edges[:n]:
                prefixed = prefixed + monomial_element(g, m.alpha, m.beta, c)
        assert shifted == prefixed
        assert not shifted.is_zero


def test_witness_fuzz_random_spi_graphs():
    # sample small random multigraphs, keep the SPI ones, sources allowed,
    # and check the witness identity on random elements over each and over
    # a copy fed by one more source
    rng = random.Random(160693)
    found = sampled_with_sources = attempts = 0
    while found < 24 and attempts < 4000:
        attempts += 1
        nv = rng.randint(1, 4)
        verts = tuple(f"v{i}" for i in range(nv))
        ne = rng.randint(1, 6)
        edges = tuple(
            (f"e{j}", rng.choice(verts), rng.choice(verts)) for j in range(ne)
        )
        g = Graph(verts, edges)
        if classify_graph(g).verdict is not Verdict.SIMPLE_PURELY_INFINITE:
            continue
        sampled_with_sources += any(g.is_source(v) for v in g.vertices)
        feeds = tuple((f"s{j}", "s", rng.choice(verts)) for j in range(rng.randint(1, 2)))
        fed = Graph(("s",) + verts, edges + feeds)
        for h in (g, fed):
            assert classify_graph(h).verdict is Verdict.SIMPLE_PURELY_INFINITE
            found += 1
            for _ in range(5):
                a = random_element(h, rng, max_terms=4, max_len=3)
                w = spi_witness(a)
                check_witness(h, a, w)
    assert found >= 16, f"sampler only found {found} SPI graphs"
    assert sampled_with_sources >= 2, "no sampled SPI graph has a source"


def test_witness_deterministic(r2):
    a = path_element(r2, ("e",)) + vertex_element(r2, "v").scale(gauss(0, 1))
    w1 = spi_witness(a)
    w2 = spi_witness(a)
    assert w1.x == w2.x and w1.y == w2.y and w1.v == w2.v
    assert w1.to_json() == w2.to_json()


def test_witness_json_roundtrip(r2):
    a = path_element(r2, ("e",))
    w = spi_witness(a)
    obj = json.loads(w.to_json())
    x, y = element_from_json_obj(r2, obj["x"]), element_from_json_obj(r2, obj["y"])
    w2 = spi.Witness(x, y, obj["v"], tuple(obj["trace"]))
    assert w2.to_json() == w.to_json()
    check_witness(r2, a, w2)


@st.composite
def spi_graphs(draw):
    """Random row-finite graphs that classify simple purely infinite, fed by
    up to two edges from one more vertex, a source, when any are drawn."""
    g = draw(random_graphs(max_vertices=4, max_omega=0, edges_per_vertex=(1, 3)))
    assume(classify_graph(g).verdict is Verdict.SIMPLE_PURELY_INFINITE)
    feeds = draw(st.lists(st.sampled_from(g.vertices), max_size=2))
    if not feeds:
        return g
    feed_edges = tuple((f"s{j}", "s", v) for j, v in enumerate(feeds))
    return Graph(("s",) + tuple(g.vertices), tuple(g.edges) + feed_edges)


@given(spi_graphs(), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=150)
def test_witness_is_one_scalar_and_two_paths(g, seed):
    # x = k·(r(π_x)·π_x*) with k the inverse of the Step 3 entry, y = π_y with
    # coefficient 1, both paths ending at v; x·a·y = v by multiply alone
    a = random_element(g, random.Random(seed), max_terms=5, max_len=3)
    w = spi_witness(a)
    ((mx, k),), ((my, one),) = w.x.terms(), w.y.terms()
    assert mx.alpha == Path(w.v) and g.range_of(mx.beta) == w.v
    assert my.beta == Path(w.v) and g.range_of(my.alpha) == w.v and one == gauss(1)
    (step3,) = [t for t in w.trace if t["step"] == "Step3"]
    ((_, k0),) = element_from_json_obj(g, step3["x0"]).terms()
    assert k == k0
    check_witness(g, a, w)


def test_witness_multiplies_only_in_its_recheck(r2, spi4, monkeypatch):
    # every stage multiplies by a path or a path's adjoint, so x and y are
    # built from edges: the only products are make_witness's exact re-check
    callers = []

    def counted(x, y):
        callers.append(sys._getframe(1).f_code.co_name)
        return multiply(x, y)

    monkeypatch.setattr(spi, "multiply", counted)
    e, tail = path_element(r2, ("e",)), source_tail_into_rose(2)
    cases = [
        e + multiply(e, e).scale(2),  # Step 4 with n > 0, then b = 2e
        involute(path_element(r2, ("e", "f"))),  # Step 4 with n < 0
        monomial_element(spi4, Path("c", ("f",)), Path("c", ("f",)), 3)
        + monomial_element(spi4, Path("c", ("f", "e1", "e2", "e3", "e4")), Path("c", ("f",))),
        vertex_element(tail, "t0") + path_element(tail, ("g0", "g1", "e")),  # η = g0·g1
    ]
    for a in cases:
        callers.clear()
        w = spi_witness(a)
        assert callers == ["make_witness", "make_witness"]
        check_witness(a.graph, a, w)
