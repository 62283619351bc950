import random
from fractions import Fraction

import pytest

from leavitt_lab import zoo
from leavitt_lab.errors import NotAcyclic, NotInFiltration, OmegaUnsupported, ZeroElement
from leavitt_lab.graph import Graph, Path
from leavitt_lab.lpa import (
    GaussianRational,
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
    acyclic_decompose,
    blockwise_product,
    degree_zero_witness,
    filtration_decompose,
)
from leavitt_lab.sample import random_element


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
