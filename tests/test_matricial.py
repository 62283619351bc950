import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt_lab import matricial, zoo
from leavitt_lab.errors import (
    BudgetExceeded,
    NotAcyclic,
    NotInFiltration,
    OmegaUnsupported,
    ZeroElement,
)
from leavitt_lab.graph import Graph, Path, path_counts, tail_counts
from leavitt_lab.lpa import (
    GaussianRational,
    Monomial,
    gauss,
    involute,
    monomial_element,
    multiply,
    path_element,
    vertex_element,
    zero,
)
from leavitt_lab.matricial import (
    BlockKey,
    _expand,
    acyclic_decompose,
    acyclic_expansion,
    blockwise_product,
    check_sink_blocks,
    degree_zero_witness,
    filtration_decompose,
)
from leavitt_lab.pnorm import degree_component_quadrature_error, element_norm_estimate
from leavitt_lab.sample import random_element

from oracles import oracle_expand, oracle_filtration_paths


def mono(g, alpha_edges, beta_edges, coeff=1, src=None):
    a = g.path(src or g.edge_endpoints(alpha_edges[0])[0], alpha_edges) if alpha_edges else g.path(src)
    b = g.path(src or g.edge_endpoints(beta_edges[0])[0], beta_edges) if beta_edges else g.path(src)
    if not isinstance(coeff, GaussianRational):
        coeff = gauss(coeff)
    return monomial_element(g, a, b, coeff)


# ---------------------------------------------------------------------------
# filtration decomposition
# ---------------------------------------------------------------------------


def test_decompose_r2_matrix_unit(r2):
    x = mono(r2, ["e"], ["f"])
    d = filtration_decompose(x, 1)
    key = BlockKey("regular", "v", 1)
    assert list(d.blocks) == [key]
    assert d.paths[key] == (Path("v", ("e",)), Path("v", ("f",)))
    assert [[str(c) for c in row] for row in d.blocks[key]] == [["0", "1"], ["0", "0"]]
    assert d.recompose() == x


def test_decompose_r2_vertex_is_identity(r2):
    d = filtration_decompose(vertex_element(r2, "v"), 1)
    key = BlockKey("regular", "v", 1)
    assert [[str(c) for c in row] for row in d.blocks[key]] == [["1", "0"], ["0", "1"]]


def test_decompose_a2_stage1(a2):
    du = filtration_decompose(vertex_element(a2, "u"), 1)
    s0, s1 = BlockKey("sink", "v", 0), BlockKey("sink", "v", 1)
    assert set(du.blocks) == {s0, s1}
    assert du.paths[s1] == (Path("u", ("e",)),)
    assert [[str(c) for c in row] for row in du.blocks[s1]] == [["1"]]
    assert [[str(c) for c in row] for row in du.blocks[s0]] == [["0"]]
    dv = filtration_decompose(vertex_element(a2, "v"), 1)
    assert [[str(c) for c in row] for row in dv.blocks[s0]] == [["1"]]
    assert [[str(c) for c in row] for row in dv.blocks[s1]] == [["0"]]


def test_decompose_rejects_nonzero_degree(r2):
    with pytest.raises(NotInFiltration):
        filtration_decompose(path_element(r2, ("e",)), 2)


def test_decompose_rejects_overlong_terms(r2):
    x = mono(r2, ["e", "f"], ["f", "f"])
    with pytest.raises(NotInFiltration):
        filtration_decompose(x, 1)


def test_decompose_rejects_omega(omega_spi):
    with pytest.raises(OmegaUnsupported):
        filtration_decompose(vertex_element(omega_spi, "v"), 1)


def test_decompose_multiplicative_random():
    rng = random.Random(404)
    for g in (zoo.r2(), zoo.spi3(), zoo.a3(), zoo.spi4()):
        for n in (1, 2, 3):
            for _ in range(10):
                x = random_element(g, rng, max_terms=3, stage=n, nonzero=False)
                y = random_element(g, rng, max_terms=3, stage=n, nonzero=False)
                dx, dy = filtration_decompose(x, n), filtration_decompose(y, n)
                assert blockwise_product(dx, dy).recompose() == multiply(x, y)


def test_decompose_linear(spi3):
    rng = random.Random(11)
    for _ in range(10):
        x = random_element(spi3, rng, max_terms=3, stage=2, nonzero=False)
        y = random_element(spi3, rng, max_terms=3, stage=2, nonzero=False)
        dxy = filtration_decompose(x + y, 2)
        dx = filtration_decompose(x, 2)
        dy = filtration_decompose(y, 2)
        for key in dxy.blocks:
            for i, row in enumerate(dxy.blocks[key]):
                for j, c in enumerate(row):
                    assert c == dx.blocks[key][i][j] + dy.blocks[key][i][j]


def test_stage_compatibility():
    rng = random.Random(77)
    for g in (zoo.r2(), zoo.a3(), zoo.spi3()):
        for _ in range(10):
            x = random_element(g, rng, max_terms=4, stage=2, nonzero=False)
            for n in (2, 3, 4):
                assert filtration_decompose(x, n).recompose() == x


def test_decompose_vertex_sum_is_blockwise_identity():
    from leavitt_lab.lpa import vertex_sum

    for g in (zoo.r2(), zoo.a3(), zoo.spi3()):
        unit = vertex_sum(g, g.vertices)
        for n in (0, 1, 2):
            d = filtration_decompose(unit, n)
            for key, matrix in d.blocks.items():
                size = len(d.paths[key])
                assert matrix == [
                    [GaussianRational() if i != j else gauss(1) for j in range(size)]
                    for i in range(size)
                ]


def test_decompose_intertwines_involution():
    rng = random.Random(4489)
    for g in (zoo.r2(), zoo.spi3()):
        for _ in range(10):
            x = random_element(g, rng, max_terms=4, stage=2, nonzero=False)
            dx = filtration_decompose(x, 2)
            dstar = filtration_decompose(involute(x), 2)
            for key, matrix in dx.blocks.items():
                size = len(dx.paths[key])
                for i in range(size):
                    for j in range(size):
                        assert dstar.blocks[key][i][j] == matrix[j][i].conjugate()


# ---------------------------------------------------------------------------
# acyclic decomposition
# ---------------------------------------------------------------------------


def test_acyclic_a2_examples(a2):
    key = BlockKey("sink", "v", None)
    d = acyclic_decompose(path_element(a2, ("e",)))
    assert d.paths[key] == (Path("v"), Path("u", ("e",)))
    assert [[str(c) for c in row] for row in d.blocks[key]] == [["0", "0"], ["1", "0"]]
    du = acyclic_decompose(vertex_element(a2, "u"))
    assert [[str(c) for c in row] for row in du.blocks[key]] == [["0", "0"], ["0", "1"]]


def test_acyclic_rejects_cycles(r2):
    with pytest.raises(NotAcyclic):
        acyclic_decompose(vertex_element(r2, "v"))


def test_acyclic_multiplicative_a3(a3):
    rng = random.Random(5150)
    for _ in range(25):
        x = random_element(a3, rng, max_terms=4, max_len=2, nonzero=False)
        y = random_element(a3, rng, max_terms=4, max_len=2, nonzero=False)
        dx, dy = acyclic_decompose(x), acyclic_decompose(y)
        assert blockwise_product(dx, dy).recompose() == multiply(x, y)
        assert acyclic_decompose(multiply(x, y)).blocks == blockwise_product(dx, dy).blocks


def test_acyclic_branching_graph_is_a_homomorphism():
    # u reaches the sinks s and t through parallel edges and two routes, so
    # the identity u = sum of d·d* has five tails d across two blocks
    g = Graph(
        ("u", "v", "w", "s", "t"),
        (
            ("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "w"),
            ("e4", "v", "s"), ("e5", "v", "t"), ("e6", "w", "s"),
        ),
    )
    unit = zero(g)
    for v in g.vertices:
        unit = unit + vertex_element(g, v)
    d = acyclic_decompose(unit)
    for key, matrix in d.blocks.items():
        size = len(d.paths[key])
        assert [[str(c) for c in row] for row in matrix] == [
            ["1" if i == j else "0" for j in range(size)] for i in range(size)
        ]
    rng = random.Random(5151)
    for _ in range(25):
        x = random_element(g, rng, max_terms=4, max_len=2, nonzero=False)
        y = random_element(g, rng, max_terms=4, max_len=2, nonzero=False)
        dx, dy = acyclic_decompose(x), acyclic_decompose(y)
        assert dx.recompose() == x
        assert acyclic_decompose(multiply(x, y)).blocks == blockwise_product(dx, dy).blocks


def test_acyclic_injective(a3):
    rng = random.Random(61)
    for _ in range(30):
        x = random_element(a3, rng, max_terms=4, max_len=2)
        d = acyclic_decompose(x)
        assert any(any(c for c in row) for m in d.blocks.values() for row in m)
        assert d.recompose() == x


def test_acyclic_unit_is_blockwise_identity():
    g = zoo.line(3)
    unit = zero(g)
    for v in g.vertices:
        unit = unit + vertex_element(g, v)
    d = acyclic_decompose(unit)
    for key, matrix in d.blocks.items():
        size = len(d.paths[key])
        assert [[str(c) for c in row] for row in matrix] == [
            ["1" if i == j else "0" for j in range(size)] for i in range(size)
        ]


# ---------------------------------------------------------------------------
# degree-zero witness
# ---------------------------------------------------------------------------


def test_witness_r2_matrix_unit(r2):
    a = mono(r2, ["e"], ["f"])
    w = degree_zero_witness(a)
    assert w.x == involute(path_element(r2, ("e",)))
    assert w.y == path_element(r2, ("f",))
    assert (w.vertex, w.h) == ("v", 1)
    assert multiply(multiply(w.x, a), w.y) == vertex_element(r2, "v")


def test_witness_r2_after_ck2(r2):
    a = vertex_element(r2, "v") - mono(r2, ["e"], ["e"])
    assert a == mono(r2, ["f"], ["f"])
    w = degree_zero_witness(a)
    assert w.x == involute(path_element(r2, ("f",)))
    assert w.y == path_element(r2, ("f",))
    assert multiply(multiply(w.x, a), w.y) == vertex_element(r2, "v")


def test_witness_scales_first_entry(r2):
    # 3ee* + 3ff* normalizes to 3v, whose minimal stage is 0: the first block
    # entry is (v, v), so the deterministic witness is ((1/3)v, v); any nonzero
    # entry works, and the identity is what matters
    a = mono(r2, ["e"], ["e"], coeff=3) + mono(r2, ["f"], ["f"], coeff=3)
    assert a == vertex_element(r2, "v").scale(3)
    w = degree_zero_witness(a)
    assert w.x == vertex_element(r2, "v").scale(Fraction(1, 3))
    assert w.y == vertex_element(r2, "v")
    assert (w.vertex, w.h) == ("v", 0)
    assert multiply(multiply(w.x, a), w.y) == vertex_element(r2, "v")


def test_witness_rejects_zero(r2):
    with pytest.raises(ZeroElement):
        degree_zero_witness(zero(r2))


def test_witness_random_soundness():
    rng = random.Random(3133)
    for g in (zoo.r2(), zoo.r3(), zoo.spi3(), zoo.a3()):
        for _ in range(25):
            a = random_element(g, rng, max_terms=4, degree_zero=True, max_len=3)
            w = degree_zero_witness(a)
            assert multiply(multiply(w.x, a), w.y) == vertex_element(g, w.vertex)
            assert set(w.x.degrees()) <= {-w.h}
            assert set(w.y.degrees()) <= {w.h}


def test_witness_matches_dense_block_scan():
    # the witness picks its entry sparsely; it must agree with scanning the
    # dense decomposition in block order, rows before columns
    rng = random.Random(5309)
    for g in (zoo.r2(), zoo.spi3(), zoo.a3()):
        for _ in range(20):
            a = random_element(g, rng, max_terms=4, degree_zero=True, max_len=3)
            n = a.max_path_length()
            d = filtration_decompose(a, n)
            first = None
            for key in d.block_order():
                ps = d.paths[key]
                for i, row in enumerate(d.blocks[key]):
                    for j, c in enumerate(row):
                        if c:
                            first = (ps[i], ps[j], c)
                            break
                    if first:
                        break
                if first:
                    break
            assert first is not None
            alpha, beta, c = first
            w = degree_zero_witness(a)
            assert w.x == involute(path_element(g, alpha)).scale(c.reciprocal())
            assert w.y == path_element(g, beta)
            assert w.h == alpha.length


# ---------------------------------------------------------------------------
# block layout
# ---------------------------------------------------------------------------


def test_filtration_block_shape(r2):
    d = filtration_decompose(mono(r2, ["e"], ["f"], coeff=gauss(1, Fraction(-1, 2))), 1)
    [key] = d.block_order()
    assert key == BlockKey("regular", "v", 1)
    assert d.paths[key] == (Path("v", ("e",)), Path("v", ("f",)))
    assert d.blocks[key][0][1] == gauss(1, Fraction(-1, 2))
    assert d.blocks[key][0][0] == gauss(0)


@st.composite
def filtration_inputs(draw):
    """A degree-zero element of stage n, for n of 0..3, over a row-finite
    graph of 1..5 vertices in shuffled order, each emitting at most two edges
    (loops and parallel edges allowed) whose ids are shuffled too."""
    verts = draw(st.permutations([f"v{i}" for i in range(draw(st.integers(1, 5)))]))
    ends = [(v, dst) for v in verts for dst in draw(st.lists(st.sampled_from(verts), max_size=2))]
    ids = draw(st.permutations([f"e{i}" for i in range(len(ends))]))
    g = Graph(tuple(verts), tuple((eid, s, d) for eid, (s, d) in zip(ids, ends)))
    n = draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_element(g, rng, max_terms=draw(st.integers(1, 4)), stage=n, nonzero=False), n


@given(filtration_inputs())
@settings(deadline=None, max_examples=200)
def test_filtration_blocks_match_the_level_by_level_oracle(case):
    x, n = case
    g = x.graph
    layout = oracle_filtration_paths(g, n)
    assert filtration_decompose(x, n) == matricial._assemble(g, layout, matricial.stage_expansion(x, n))


# ---------------------------------------------------------------------------
# the expansion loop against its object-by-object oracle
# ---------------------------------------------------------------------------


@st.composite
def expansion_inputs(draw):
    """(graph, terms, n) for ``_expand``: a random row-finite graph, cycles
    allowed, at a stage n of 0..6 no term's α passes; a random DAG at
    n = |V|, which no path reaches; or c·v + d·e^n(e^n)* over rose(2) or
    rose(3), which cancels at stage n when c + d = 0.  Some terms are
    repeated with the opposite sign, so sums cancel inside the loop too."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["cyclic", "dag", "rose"]))
    if kind == "rose":
        g, k = zoo.rose(draw(st.sampled_from([2, 3]))), draw(st.integers(0, 6))
        c, d = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        en = Path("v", ("e",) * k)
        terms = [(Monomial(Path("v"), Path("v")), gauss(c)), (Monomial(en, en), gauss(d))]
        return g, [(m, z) for m, z in terms if z], k
    size = draw(st.integers(1, 5))
    verts = [f"v{i}" for i in range(size)]
    edges = []
    for i, v in enumerate(verts):
        # out-degree at most 3 keeps a stage-6 walk within 3^6 paths per term
        later = verts[i + 1:] if kind == "dag" else verts
        for dst in draw(st.lists(st.sampled_from(later), max_size=3)) if later else ():
            edges.append((f"e{len(edges)}", v, dst))
    g = Graph(tuple(draw(st.permutations(verts))), tuple(edges))
    n = draw(st.integers(0, 6)) if kind == "cyclic" else size
    x = random_element(
        g, rng, max_terms=draw(st.integers(1, 5)), max_len=min(n, 3),
        degree_zero=draw(st.booleans()), nonzero=False,
    )
    terms = x.terms()
    terms += [(m, -z) for m, z in terms if rng.random() < 0.3]
    return g, terms, n


@given(expansion_inputs())
@settings(deadline=None, max_examples=400)
def test_expansion_loop_matches_the_object_oracle(case):
    g, terms, n = case
    # the same terms and coefficients, inserted in the same order
    assert list(_expand(g, terms, n).items()) == list(oracle_expand(g, terms, n).items())


# ---------------------------------------------------------------------------
# acyclicity from the counting passes
# ---------------------------------------------------------------------------


def loop_below_a_dag() -> Graph:
    # a -> b -> c with a loop at c, the last vertex
    return Graph(("a", "b", "c"), (("e", "a", "b"), ("f", "b", "c"), ("l", "c", "c")))


def cycle_into_a_sink() -> Graph:
    # u <-> w feeds the sink s
    return Graph(("u", "w", "s"), (("e", "u", "w"), ("f", "w", "u"), ("g", "w", "s")))


def cycle_apart() -> Graph:
    # a2's u -> v beside a rose at r that no path from u or v reaches
    return Graph(("u", "v", "r"), (("e", "u", "v"), ("l", "r", "r")))


CYCLIC = {
    "loop_below_a_dag": (loop_below_a_dag, "a"),
    "cycle_into_a_sink": (cycle_into_a_sink, "s"),
    "cycle_apart": (cycle_apart, "u"),
}


@pytest.mark.parametrize("name", sorted(CYCLIC))
@pytest.mark.parametrize("count", [path_counts, tail_counts])
def test_counts_raise_on_a_cycle(name, count):
    with pytest.raises(NotAcyclic, match="the graph has a cycle"):
        count(CYCLIC[name][0]())


ACYCLIC_ROUTES = {
    "acyclic_expansion": acyclic_expansion,
    "check_sink_blocks": check_sink_blocks,
    "acyclic_decompose": acyclic_decompose,
    "element_norm_estimate": lambda x: element_norm_estimate(x, 1.5),
    "degree_component_quadrature_error": lambda x: degree_component_quadrature_error(x, 0),
}


@pytest.mark.parametrize("route", sorted(ACYCLIC_ROUTES))
@pytest.mark.parametrize("name", sorted(CYCLIC))
def test_acyclic_routes_refuse_any_cycle(route, name):
    # the element's support avoids the cycle in two of the three graphs
    make, v = CYCLIC[name]
    with pytest.raises(NotAcyclic, match="the graph has a cycle"):
        ACYCLIC_ROUTES[route](vertex_element(make(), v))


@pytest.mark.parametrize("route", sorted(ACYCLIC_ROUTES))
def test_acyclic_routes_refuse_omega_then_cycle_then_budget(monkeypatch, route):
    # with both budgets at 0 every element over a sink is over them
    monkeypatch.setattr(matricial, "EXPANSION_BUDGET", 0)
    monkeypatch.setattr(matricial, "BLOCK_BUDGET", 0)
    run = ACYCLIC_ROUTES[route]
    omega_and_loop = Graph(("u", "v"), (("l", "u", "u"),), (("u", "v"),))
    with pytest.raises(OmegaUnsupported):
        run(vertex_element(omega_and_loop, "v"))
    with pytest.raises(NotAcyclic):
        run(vertex_element(cycle_into_a_sink(), "s"))
    with pytest.raises(BudgetExceeded):
        run(vertex_element(zoo.a2(), "u"))


@pytest.mark.parametrize("route", sorted(ACYCLIC_ROUTES))
def test_acyclic_routes_build_no_graph_analysis(route):
    # acyclicity comes from the counting pass, so no SCC pass runs
    for g in (zoo.a2(), zoo.a3(), zoo.line(4), zoo.two_isolated()):
        x = vertex_element(g, g.vertices[0])
        ACYCLIC_ROUTES[route](x)
        assert "analysis" not in vars(g)
