import math
import os
import random
import re
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leavitt_lab
from leavitt_lab import matricial, pnorm, zoo
from leavitt_lab.errors import BudgetExceeded, EmptyMatrix, FloatRange, NotAcyclic
from leavitt_lab.lpa import (
    Monomial,
    gauss,
    monomial_element,
    multiply,
    normalize_terms,
    path_element,
    vertex_element,
    zero,
)
from leavitt_lab.graph import Graph, Path, path_counts, path_levels, tail_counts
from leavitt_lab.matricial import acyclic_decompose, acyclic_expansion, paths_into_by_sink
from leavitt_lab.pnorm import (
    NormEstimate,
    SpatialMatrix,
    degree_component_quadrature_error,
    element_norm_estimate,
    norm_estimate,
    power_iteration_lower_bound,
    spatial_rep_acyclic,
)
from leavitt_lab.sample import random_element

from oracles import (
    oracle_column_sum_norm,
    oracle_components,
    oracle_dense_norm_estimate,
    oracle_power_iteration,
    oracle_quadrature_error,
    oracle_spatial_rep_acyclic,
)


def doubled_line(n: int) -> Graph:
    """v0 -> v1 -> ... -> v(n-1) with two parallel edges a_i, b_i at each step:
    2^(n-1-i) paths from v_i into the sink, 2^n - 1 in all."""
    verts = tuple(f"v{i}" for i in range(n))
    return Graph(verts, tuple((f"{k}{i}", verts[i], verts[i + 1]) for i in range(n - 1) for k in "ab"))


# ---------------------------------------------------------------------------
# spatial representation
# ---------------------------------------------------------------------------


def test_spatial_rep_matrix_unit(a2):
    rep = spatial_rep_acyclic(path_element(a2, ("e",)))
    assert list(rep.blocks) == ["v"]
    np.testing.assert_allclose(rep.blocks["v"], [[0, 0], [1, 0]])


def test_value_types_are_named_tuples(a2):
    rep = spatial_rep_acyclic(path_element(a2, ("e",)))
    assert isinstance(rep, SpatialMatrix) and rep._fields == ("blocks", "paths")
    assert NormEstimate(1.0, True).converged is None
    assert NormEstimate(1.0, True) == (1.0, True, None)
    with pytest.raises(AttributeError):
        NormEstimate(1.0, True).value = 2.0


def test_spatial_rep_zero(a3):
    rep = spatial_rep_acyclic(zero(a3))
    for M in rep.blocks.values():
        assert not np.abs(M).any()


def test_spatial_rep_matches_exact_decomposition(a3):
    rng = random.Random(12)
    for _ in range(10):
        x = random_element(a3, rng, max_terms=4, max_len=2, nonzero=False)
        rep = spatial_rep_acyclic(x)
        d = acyclic_decompose(x)
        for key in d.blocks:
            exact = np.array(
                [[complex(c) for c in row] for row in d.blocks[key]]
            ).reshape(rep.blocks[key.vertex].shape)
            err = np.abs(rep.blocks[key.vertex] - exact)
            scale = np.maximum(np.abs(exact), 1.0)
            assert (err <= 1e-15 * scale).all()


@st.composite
def acyclic_graphs_and_elements(draw):
    """A random DAG (edges only from an earlier to a later vertex of a shuffled
    order, so parallel edges, several sinks and isolated vertices all occur)
    and a random element over it, zero included."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations([f"v{i}" for i in range(n)]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = []
    if pairs:
        for k, (i, j) in enumerate(draw(st.lists(st.sampled_from(pairs), max_size=8))):
            edges.append((f"e{k}", order[i], order[j]))
    g = Graph(tuple(draw(st.permutations(order))), tuple(edges))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    x = random_element(g, rng, max_terms=draw(st.integers(1, 6)), max_len=3, nonzero=False)
    return g, x


@given(acyclic_graphs_and_elements())
@settings(deadline=None, max_examples=200)
def test_spatial_rep_matches_exact_table_bitwise(case):
    g, x = case
    rep = spatial_rep_acyclic(x)
    paths, blocks = oracle_spatial_rep_acyclic(x)
    assert rep.paths == paths
    assert list(rep.blocks) == list(blocks)
    for v, M in blocks.items():
        assert rep.blocks[v].dtype == M.dtype and rep.blocks[v].shape == M.shape
        assert rep.blocks[v].tobytes() == M.tobytes()


def test_path_counts_match_the_paths_into_each_sink():
    for g in (zoo.a2(), zoo.a3(), zoo.line(4), zoo.two_isolated(), doubled_line(6)):
        counts = path_counts(g)
        assert {v: counts[v] for v in paths_into_by_sink(g)} == {
            v: len(ps) for v, ps in paths_into_by_sink(g).items()
        }


def test_spatial_rep_refuses_doubled_line_over_budget():
    # 2^40 - 1 paths into the sink: counted, never built
    g = doubled_line(40)
    start = time.perf_counter()
    assert path_counts(g)["v39"] == 2**40 - 1
    with pytest.raises(BudgetExceeded, match="budget"):
        spatial_rep_acyclic(vertex_element(g, "v0"))
    with pytest.raises(BudgetExceeded, match="budget"):
        acyclic_decompose(vertex_element(g, "v0"))
    assert time.perf_counter() - start < 1.0


def test_spatial_rep_budget_is_inclusive(monkeypatch):
    g = Graph(("u", "v", "s", "t"), (("e", "u", "s"), ("f", "v", "s"), ("h", "u", "t")))
    # 3 paths into s and 2 into t: 9 + 4 entries
    x = vertex_element(g, "u")
    monkeypatch.setattr(matricial, "BLOCK_BUDGET", 13)
    rep = spatial_rep_acyclic(x)
    assert sum(M.size for M in rep.blocks.values()) == 13
    monkeypatch.setattr(matricial, "BLOCK_BUDGET", 12)
    with pytest.raises(BudgetExceeded):
        spatial_rep_acyclic(x)


def test_tail_counts_match_the_paths_to_the_sinks():
    for g in (zoo.a2(), zoo.a3(), zoo.line(4), zoo.two_isolated(), doubled_line(6)):
        paths = [q for level in path_levels(g, len(g.vertices) - 1) for q in level]
        to_sinks = [q.source for q in paths if g.is_sink(g.range_of(q))]
        assert tail_counts(g) == {u: to_sinks.count(u) for u in g.vertices}
    # v0 would expand into 2^39 terms, which the norm refuses on this count
    assert tail_counts(doubled_line(40))["v0"] == 2**39


def test_norm_budget_counts_expanded_terms(monkeypatch):
    # on 12 vertices v0 expands into 2^11 terms, 1×1 components whose norm
    # needs no dense block; the 4095 paths into the sink make dense blocks of
    # 4095^2 entries, over BLOCK_BUDGET, which the dense builders still refuse
    g = doubled_line(12)
    x = vertex_element(g, "v0")
    assert tail_counts(g)["v0"] == 2**11
    for p in (1.0, 2.0):
        assert element_norm_estimate(x, p).value == pytest.approx(1.0, rel=1e-12)
    # on 18 vertices the dense builders refuse on the count, before expanding
    # v0 into 2^17 terms, which takes seconds
    start = time.perf_counter()
    for h in (g, doubled_line(18)):
        for dense in (spatial_rep_acyclic, acyclic_decompose):
            with pytest.raises(BudgetExceeded, match="sink blocks"):
                dense(vertex_element(h, "v0"))
    assert time.perf_counter() - start < 0.5
    monkeypatch.setattr(matricial, "EXPANSION_BUDGET", 2**11 - 1)
    with pytest.raises(BudgetExceeded, match="expansion would make 2048 terms"):
        element_norm_estimate(x, 1.0)


def zigzag(n: int):
    """The doubled line on n vertices with sum_i a_i·a_i* + a_(i+1)·a_i* over
    the N = 2^(n-1) paths a_i from v0 to the sink, in block order: about 2N
    expanded terms, all in one N×N component of the sink block."""
    g = doubled_line(n)
    paths = [q for q in path_levels(g, n - 1)[n - 1] if q.source == "v0"]
    assert len(paths) == 2 ** (n - 1)
    terms = {Monomial(a, a): gauss(1) for a in paths}
    terms.update((Monomial(b, a), gauss(1)) for a, b in zip(paths, paths[1:]))
    return g, normalize_terms(g, terms)


def test_norm_budget_bounds_each_component(monkeypatch):
    # a sparse component is held to BLOCK_BUDGET before any is filled in, at
    # every p, though the expansion is far within its own budget
    g, x = zigzag(5)
    monkeypatch.setattr(matricial, "BLOCK_BUDGET", 16 * 16)
    for p in (1.0, 1.5, 2.0):
        assert element_norm_estimate(x, p).value > 1.0
    monkeypatch.setattr(matricial, "BLOCK_BUDGET", 16 * 16 - 1)
    for p in (1.0, 1.5, 2.0):
        with pytest.raises(BudgetExceeded, match="a component would hold 256 entries"):
            element_norm_estimate(x, p)
    monkeypatch.undo()
    # at the real budgets: 8191 expanded terms form one 4096×4096 component,
    # 2^24 entries, refused at once rather than filled
    start = time.perf_counter()
    g, x = zigzag(13)
    tails = tail_counts(g)
    assert sum(tails[g.range_of(m.alpha)] for m, _ in x.terms()) < matricial.EXPANSION_BUDGET
    for p in (1.0, 3.0):
        with pytest.raises(BudgetExceeded, match=f"a component would hold {2**24} entries"):
            element_norm_estimate(x, p)
    assert time.perf_counter() - start < 5.0


def test_expansion_budget_refuses_what_the_block_budget_let_through():
    # u -> r through 143 edges a_i, r -> s through 13 edges e_k: the element
    # sum of a_i·a_j* over 20,165 pairs i != j expands into 13 terms each,
    # 2^18 + 1 in all, over EXPANSION_BUDGET, though the one sink block of
    # 143·13 + 13 + 1 = 1873 paths holds 1873^2 entries, within BLOCK_BUDGET
    edges = [(f"a{i}", "u", "r") for i in range(143)] + [(f"e{k}", "r", "s") for k in range(13)]
    g = Graph(("u", "r", "s"), tuple(edges))
    pairs = [(i, j) for i in range(143) for j in range(143) if i != j][:20165]
    terms = {Monomial(Path("u", (f"a{i}",)), Path("u", (f"a{j}",))): gauss(1) for i, j in pairs}
    x = normalize_terms(g, terms)
    assert len(x) == 20165
    assert path_counts(g)["s"] ** 2 == 1873**2 <= matricial.BLOCK_BUDGET
    start = time.perf_counter()
    for build in (lambda: element_norm_estimate(x, 1.0), lambda: spatial_rep_acyclic(x)):
        with pytest.raises(BudgetExceeded, match=f"expansion would make {2**18 + 1} terms"):
            build()
    assert time.perf_counter() - start < 1.0


def test_spatial_rep_refuses_a_coefficient_beyond_double_range(a2):
    e = Path("u", ("e",))
    x = monomial_element(a2, e, e, gauss(10**400))
    with pytest.raises(FloatRange):
        spatial_rep_acyclic(x)


def test_spatial_rep_multiplicative_up_to_float(a3):
    rng = random.Random(13)
    for _ in range(10):
        x = random_element(a3, rng, max_terms=4, max_len=2, nonzero=False)
        y = random_element(a3, rng, max_terms=4, max_len=2, nonzero=False)
        rx = spatial_rep_acyclic(x)
        ry = spatial_rep_acyclic(y)
        rxy = spatial_rep_acyclic(multiply(x, y))
        for v in rxy.blocks:
            assert np.abs(rxy.blocks[v] - rx.blocks[v] @ ry.blocks[v]).max() <= 1e-12


def test_spatial_rep_rejects_cycles(r2):
    with pytest.raises(NotAcyclic):
        spatial_rep_acyclic(vertex_element(r2, "v"))


def test_spatial_rep_p_range(a2):
    with pytest.raises(ValueError):
        element_norm_estimate(zero(a2), 9.0)


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


def test_norm_p1_column_sums():
    assert norm_estimate([[1, 1], [0, 1]], 1.0).value == 2.0


def test_norm_identity_every_p():
    for p in (1.0, 1.5, 2.0, 3.0, 4.0):
        assert norm_estimate(np.eye(5), p).value == pytest.approx(1.0, rel=1e-9)


def test_norm_diagonal_p15():
    assert norm_estimate(np.diag([3.0, -4.0]), 1.5).value == pytest.approx(4.0, rel=1e-9)
    # brute-force over a unit-vector grid never beats the max entry
    M = np.diag([3.0, -4.0])
    best = 0.0
    for t in np.linspace(0, 1, 101):
        x = np.array([t, 1 - t])
        nx = (x ** 1.5).sum() ** (1 / 1.5)
        best = max(best, float(np.linalg.norm(M @ x, 1.5) / nx))
    assert best <= 4.0 + 1e-9


def test_norm_empty_matrix():
    with pytest.raises(EmptyMatrix):
        norm_estimate(np.zeros((0, 0)), 1.0)


@pytest.mark.parametrize("M", [[1.0, 2.0], [[[1.0]]], 3.0, []])
def test_norm_refuses_a_matrix_that_is_not_2d(M):
    # a vector was read as a single row at p = 1 (its sum) and failed to
    # unpack its shape at other p
    shape = np.shape(M)
    for p in (1.0, 1.5, 2.0, 3.0):
        with pytest.raises(ValueError, match=f"got shape {re.escape(str(shape))}"):
            norm_estimate(M, p)
    for p in (1.5, 3.0):
        with pytest.raises(ValueError, match=f"got shape {re.escape(str(shape))}"):
            power_iteration_lower_bound(M, p)


def test_norm_p1_exactness_oracle():
    rng = random.Random(2)
    for _ in range(1000):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        exact = [
            [Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4, 8])) for _ in range(cols)]
            for _ in range(rows)
        ]
        M = np.array([[float(c) for c in row] for row in exact])
        assert norm_estimate(M, 1.0).value == float(oracle_column_sum_norm(exact))


def test_norm_p2_power_iteration_matches_svd():
    rng = np.random.default_rng(3)
    for _ in range(50):
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        est = power_iteration_lower_bound(M, 2.0, seed=5)
        svd = float(np.linalg.norm(M, 2))
        assert est.value == pytest.approx(svd, rel=1e-6)
        assert est.value <= svd * (1 + 1e-9)


def test_norm_p2_power_iteration_is_the_svd_bitwise():
    rng = np.random.default_rng(4)
    for shape in ((1, 1), (3, 5), (6, 6), (9, 2)):
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        svd = norm_estimate(M, 2.0)
        for seed in (0, 5):
            est = power_iteration_lower_bound(M, 2.0, seed=seed)
            # equal reprs are equal bits
            assert (repr(est.value), est.exact, est.converged) == (repr(svd.value), False, True)


def test_norm_interpolation_bound():
    rng = np.random.default_rng(8)
    for _ in range(20):
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        colsum = float(np.abs(M).sum(axis=0).max())
        rowsum = float(np.abs(M).sum(axis=1).max())
        bound = max(colsum, rowsum) * (1 + 1e-6)
        for p in (1.0, 1.5, 3.0, 4.0):
            assert norm_estimate(M, p).value <= bound


def test_norm_monotone_under_zero_padding():
    rng = np.random.default_rng(21)
    for _ in range(10):
        M = rng.standard_normal((3, 3))
        padded = np.zeros((5, 5))
        padded[:3, :3] = M
        for p in (1.5, 3.0):
            a = norm_estimate(M, p).value
            b = norm_estimate(padded, p).value
            assert b >= a - 1e-9


def test_norm_estimate_flags():
    est1 = norm_estimate([[1.0, 0], [0, 2.0]], 1.0)
    assert est1.exact and est1.converged is None
    est3 = norm_estimate([[1.0, 0], [0, 2.0]], 3.0)
    assert not est3.exact and est3.converged


@st.composite
def power_iteration_inputs(draw):
    """A matrix of size 1-20 (real or complex; dense, with a zero column and a
    zero row, zero, strictly triangular hence nilpotent, or with one inf or
    nan entry, which is refused), scaled by 1, by 1e-170 (M^H M underflows)
    or by 1e200 (|y|^p overflows), plus the iteration's settings."""
    rows, cols = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.standard_normal((rows, cols))
    if draw(st.booleans()):
        M = M + 1j * rng.standard_normal((rows, cols))
    if draw(st.booleans()):
        M = np.round(2 * M)
    shape = draw(st.sampled_from(["dense", "zero lines", "zero", "triangular", "non-finite"]))
    if shape == "zero lines":
        M[:, draw(st.integers(0, cols - 1))] = 0
        M[draw(st.integers(0, rows - 1)), :] = 0
    elif shape == "zero":
        M = np.zeros_like(M)
    elif shape == "triangular":
        M = np.triu(M, 1)
    M = M * draw(st.sampled_from([1.0, 1e-170, 1e200]))
    if shape == "non-finite":
        M[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = draw(
            st.sampled_from([np.inf, -np.inf, np.nan])
        )
    # p = 2 is the SVD and never reaches the power iteration
    p = draw(st.sampled_from([1.1, 1.5, 3.0, 4.0, 8.0]))
    restarts = draw(st.sampled_from([0, 1, 8]))
    max_iter = draw(st.sampled_from([1, 3, 200]))
    return M, p, restarts, draw(st.integers(0, 1000)), max_iter


def assert_matches_oracle(M, p, restarts, seed, max_iter):
    # hypothesis runs many examples per test call, so the constants are
    # patched per example rather than through the monkeypatch fixture
    with mock.patch.multiple(pnorm, RESTARTS=restarts, MAX_ITER=max_iter):
        if not np.isfinite(M).all():
            with pytest.raises(FloatRange):
                power_iteration_lower_bound(M, p, seed=seed)
            return
        with np.errstate(all="ignore"):
            est = power_iteration_lower_bound(M, p, seed=seed, tol=1e-10)
    with np.errstate(all="ignore"):
        value, converged = oracle_power_iteration(M, p, restarts, seed, 1e-10, max_iter)
    # repr round-trips a float exactly, so equal reprs are equal bits (and nan == nan)
    assert (repr(est.value), est.converged) == (repr(value), converged)
    assert type(est.value) is float and type(est.converged) is bool


@given(power_iteration_inputs())
# two restarts tie on the value, only the first is unconverged: the first maximum wins
@example((np.array([[1.0, -1.0], [1.0, 1.0]]), 1.1, 1, 404, 3))
# one step cannot confirm a fixed point: every restart ends unconverged
@example((np.random.default_rng(4).standard_normal((6, 6)), 3.0, 8, 0, 1))
@settings(deadline=None, max_examples=300)
def test_stacked_power_iteration_matches_serial_oracle_bitwise(inputs):
    assert_matches_oracle(*inputs)


def random_block(rng, rows: int, cols: int, complex_: bool, sparse: bool) -> np.ndarray:
    """A Gaussian block, complex or real; dense (every entry nonzero, so its
    pattern is connected) or rounded, which zeroes some entries."""
    B = rng.standard_normal((rows, cols))
    if complex_:
        B = B + 1j * rng.standard_normal((rows, cols))
    return np.round(2 * B) if sparse else B


def direct_sum(blocks, zero_rows: int = 0, zero_cols: int = 0) -> np.ndarray:
    """diag(blocks...), then zero_rows zero rows and zero_cols zero columns."""
    m = sum(B.shape[0] for B in blocks) + zero_rows
    n = sum(B.shape[1] for B in blocks) + zero_cols
    M = np.zeros((m, n), dtype=np.complex128)
    i = j = 0
    for B in blocks:
        M[i : i + B.shape[0], j : j + B.shape[1]] = B
        i, j = i + B.shape[0], j + B.shape[1]
    return M


@st.composite
def permuted_direct_sums(draw):
    """A permuted direct sum of 0-4 random blocks (1×1, rectangular or square;
    real or complex; dense or sparse), with 0-2 zero rows and columns; with
    no block, a zero matrix of at least one row and one column."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=4))
    blocks = [random_block(rng, r, c, draw(st.booleans()), draw(st.booleans())) for r, c in shapes]
    M = direct_sum(blocks, draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    if M.size == 0:
        M = np.zeros((max(M.shape[0], 1), max(M.shape[1], 1)), dtype=np.complex128)
    return M[rng.permutation(M.shape[0])][:, rng.permutation(M.shape[1])]


NORM_PS = [1.0, 1.1, 1.5, 2.0, 3.0, 8.0]


@given(permuted_direct_sums(), st.sampled_from(NORM_PS), st.integers(0, 1000))
@example(np.zeros((3, 2)), 3.0, 0)
@settings(deadline=None, max_examples=300)
def test_norm_on_components_matches_the_dense_route(M, p, seed):
    est = norm_estimate(M, p, seed=seed)
    value, exact, converged = oracle_dense_norm_estimate(M, p, seed=seed)
    assert est.exact is exact
    if p == 1.0:
        # equal reprs are equal bits
        assert (repr(est.value), est.converged) == (repr(value), converged)
    elif p == 2.0:
        assert abs(est.value - value) <= 1e-12 * value
        assert est.converged is True
    else:
        # the largest entry is a ratio the iteration reaches; Riesz-Thorin bounds every ratio
        A = np.abs(M)
        low = float(A.max())
        high = float(A.sum(axis=0).max()) ** (1 / p) * float(A.sum(axis=1).max()) ** (1 - 1 / p)
        assert low * (1 - 1e-9) <= est.value <= high * (1 + 1e-9)
        assert type(est.converged) is bool


@st.composite
def connected_blocks(draw, min_side: int = 1):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(min_side, 5)), draw(st.integers(min_side, 5))
    return random_block(rng, rows, cols, draw(st.booleans()), sparse=False).astype(np.complex128)


# a Jordan-like block the power iteration leaves unconverged, beside a smaller converged one
JORDAN = np.array([[1.0, 1e-3], [0.0, 1.0]], dtype=np.complex128)


@given(connected_blocks(), connected_blocks(), st.sampled_from(NORM_PS), st.integers(0, 1000))
@example(JORDAN, np.full((3, 3), 0.1, dtype=np.complex128), 3.0, 0)
@settings(deadline=None, max_examples=200)
def test_norm_of_a_direct_sum_is_the_max_of_its_blocks_bitwise(A, B, p, seed):
    d, a, b = (norm_estimate(X, p, seed=seed) for X in (direct_sum([A, B]), A, B))
    assert repr(d.value) == repr(max(a.value, b.value))
    assert (d.exact, d.converged) == (a.exact, a.converged and b.converged)


@given(
    # a single row or column has a closed form and never iterates
    connected_blocks(min_side=2),
    st.sampled_from([1.1, 1.5, 3.0, 8.0]),
    st.lists(st.integers(0, 5), max_size=3),
    st.lists(st.integers(0, 5), max_size=3),
)
@example(JORDAN, 1.5, [1], [0, 2])
@settings(deadline=None, max_examples=100)
def test_norm_keeps_the_row_and_column_order_of_a_component(C, p, zero_rows, zero_cols):
    # zero rows and columns between the component's own leave it to the power
    # iteration exactly as it stands, rows and columns in increasing order
    M = np.insert(C, np.array([min(i, C.shape[0]) for i in zero_rows], dtype=np.intp), 0, axis=0)
    M = np.insert(M, np.array([min(j, C.shape[1]) for j in zero_cols], dtype=np.intp), 0, axis=1)
    est, lone = norm_estimate(M, p, seed=3), power_iteration_lower_bound(C, p, seed=3)
    assert (repr(est.value), est.converged) == (repr(lone.value), lone.converged)


def holder(v, r: float) -> float:
    """The l^r norm of a list of positive floats, by the textbook formula."""
    return sum(t**r for t in v) ** (1 / r)


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_row_and_column_components_have_closed_forms(scale):
    # a single row c has norm ||c||_q, q = p/(p-1), and a single column
    # ||c||_p, each scaled by its largest modulus before the power: unscaled,
    # |c_j|^q overflows at q = 1e9 + 1 (p = 1 + 1e-9), where
    # np.linalg.norm([3, 4], q) is inf, and |c_j|^2 overflows near 1e200
    row, col = np.array([[3.0, 4.0]]) * scale, np.array([[3.0], [4.0]]) * scale
    # 0.75^q underflows to 0, harmlessly
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        near_one = 1.0 + 1e-9
        assert norm_estimate(row, near_one).value == pytest.approx(4.0 * scale, rel=1e-15)
        assert norm_estimate(col, near_one).value == pytest.approx(7.0 * scale, rel=1e-8)
        for p in (1.5, 2.0, 3.0, 8.0):
            q = p / (p - 1)
            assert norm_estimate(row, p).value == pytest.approx(holder([3, 4], q) * scale, rel=1e-15)
            assert norm_estimate(col, p).value == pytest.approx(holder([3, 4], p) * scale, rel=1e-15)
        assert norm_estimate(row, 2.0).value == pytest.approx(5.0 * scale, rel=1e-15)
    for M in (row, col, 1j * row, (1 - 1j) * col):
        est = norm_estimate(M, 3.0)
        assert (est.exact, est.converged) == (False, True)


def test_row_and_column_components_never_iterate():
    spy = mock.patch.object(
        pnorm, "power_iteration_lower_bound", wraps=pnorm.power_iteration_lower_bound
    )
    rng = np.random.default_rng(6)
    row = random_block(rng, 1, 5, complex_=True, sparse=False)
    with spy as iterations:
        for M in (row, row.T, direct_sum([row, row.T, np.eye(1)])):
            for p in (1.1, 1.5, 3.0, 8.0):
                norm_estimate(M, p)
        assert iterations.call_count == 0
        # the spy does see a connected 2×2 component
        norm_estimate(np.ones((2, 2)), 3.0)
        assert iterations.call_count == 1


NON_FINITE_CASES = [
    (bad, p, bad_first)
    for bad in ("nan", "inf", "overflow", "modulus")
    for p in NORM_PS
    # a column sum and an SVD of the 1e300 block stay finite
    if not (bad == "overflow" and p in (1.0, 2.0))
    for bad_first in (True, False)
]


@pytest.mark.parametrize("bad, p, bad_first", NON_FINITE_CASES)
def test_norm_never_hides_a_non_finite_component(bad, p, bad_first):
    # Python's max(0.0, nan) is 0.0: no NaN or infinity may hide behind a
    # larger finite component, before or after it
    if bad == "overflow":
        # a connected 2×2 block whose |y|^p overflows in the power iteration
        B = np.full((2, 2), 1e300)
    elif bad == "modulus":
        # finite entries whose modulus is no double: the SVD at p = 2 gives
        # NaN, which must win over the finite 3×3 component
        B = np.full((2, 2), 1.5e308 * (1 + 1j))
    else:
        # a non-finite entry has no norm here: every kernel refuses it
        B = np.array([[float(bad)]])
    blocks = [B, np.full((3, 3), 5.0)]
    M = direct_sum(blocks if bad_first else blocks[::-1])
    if bad in ("overflow", "modulus"):
        with np.errstate(all="ignore"):
            assert not math.isfinite(norm_estimate(M, p).value)
        return
    with pytest.raises(FloatRange):
        norm_estimate(M, p)
    if p != 1.0:
        with pytest.raises(FloatRange):
            power_iteration_lower_bound(M, p)


# rows and columns of the element route: paths whose block order differs
# from the order in which they are drawn, no two with the same edges
COMPONENT_PATHS = [
    Path("u", ("e1", "e2")), Path("w"), Path("v", ("e2",)), Path("x", ("d1",)),
    Path("u", ("e1", "e3")), Path("v", ("e3",)),
]


@st.composite
def component_entries(draw):
    """(entries, key): distinct cells over at most 6 rows and 6 columns, so
    rows and columns repeat, with zero and nonzero values, under ``int`` or
    under ``_block_order`` with paths for rows and columns; or a diagonal,
    all of whose components are 1×1."""
    cells = draw(
        st.one_of(
            st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), unique=True, max_size=14),
            st.permutations(range(6)).map(lambda perm: list(enumerate(perm))),
        )
    )
    values = st.sampled_from([0j, 1 + 0j, -2.5j, 3 + 4j, 1e-300 + 0j, -7.0 + 0j])
    entries = [(a, b, draw(values)) for a, b in cells]
    if draw(st.booleans()):
        return entries, int
    return [(COMPONENT_PATHS[a], COMPONENT_PATHS[b], z) for a, b, z in entries], pnorm._block_order


@given(component_entries())
@example(([(0, 0, 1j), (1, 1, 0j), (2, 1, 2 + 0j), (1, 3, 0j)], int))
@settings(deadline=None, max_examples=400)
def test_components_match_the_oracle(case):
    # the same components, in the same order, with the same cells; a
    # component of one entry skips the numbering and sorting
    entries, key = case
    assert repr(pnorm._components(iter(entries), key)) == repr(oracle_components(entries, key))


def test_component_2_norm_is_numpys_bitwise():
    # the largest singular value straight from the SVD is the float
    # np.linalg.norm(dense, 2) gives, on random components from 2×2 to 6×6,
    # some with zeros, over scales from 1e-150 to 1e150
    rng = np.random.default_rng(38)
    for _ in range(600):
        m, n = (int(k) for k in rng.integers(2, 7, size=2))
        dense = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) * 10.0 ** int(
            rng.integers(-150, 151)
        )
        dense[rng.random((m, n)) < 0.3] = 0
        cells = [(i, j, complex(dense[i, j])) for i in range(m) for j in range(n) if dense[i, j]]
        value = pnorm._component_norm(m, n, cells, 2.0, 0, 1e-10)
        assert repr(value) == repr((float(np.linalg.norm(dense, 2)), True))


@pytest.mark.filterwarnings("error")
def test_component_2_norm_keeps_its_nan():
    # finite entries whose modulus is no double, and an infinite entry: the
    # SVD gives NaN, as np.linalg.norm did, and the element's norm is refused
    huge = 1.5e308 * (1 + 1j)
    for cells in (
        [(0, 0, huge), (0, 1, huge), (1, 0, huge), (1, 1, huge)],
        [(0, 0, complex(math.inf)), (0, 1, 1 + 0j), (1, 0, 1 + 0j), (1, 1, 1 + 0j)],
    ):
        value, converged = pnorm._component_norm(2, 2, cells, 2.0, 0, 1e-10)
        assert math.isnan(value) and converged is True
    a3 = zoo.a3()
    f, ef = Path("v", ("e2",)), Path("u", ("e1", "e2"))
    x = zero(a3)
    for a, b in ((f, f), (f, ef), (ef, f)):
        x = x + monomial_element(a3, a, b, gauss(15 * 10**307, 15 * 10**307))
    with pytest.raises(FloatRange, match="overflowed a double"):
        element_norm_estimate(x, 2.0)


# ---------------------------------------------------------------------------
# element norms
# ---------------------------------------------------------------------------


def test_element_norm_identity(a2):
    x = vertex_element(a2, "u") + vertex_element(a2, "v")
    assert element_norm_estimate(x, 1.0).value == 1.0


def test_element_norm_matrix_unit(a2):
    assert element_norm_estimate(path_element(a2, ("e",)), 1.0).value == 1.0


def test_element_norm_max_over_blocks():
    from leavitt_lab.graph import Graph

    g2 = Graph(
        ("u1", "v1", "u2", "v2"),
        (("e1", "u1", "v1"), ("e2", "u2", "v2")),
    )
    x = vertex_element(g2, "v1").scale(2) + vertex_element(g2, "v2")
    assert element_norm_estimate(x, 1.0).value == 2.0


def test_element_norm_converged_is_the_and_over_blocks(monkeypatch):
    # sink v: u = e·e*, a 1×1 component that nothing iterates (converged);
    # sink z: f·f* + f·(gf)* + (gf)·f* over x -g-> y -f-> z, one connected
    # 2×2 component whose restarts all end unconverged after a single step
    g = Graph(("u", "v", "x", "y", "z"), (("e", "u", "v"), ("g", "x", "y"), ("f", "y", "z")))
    f, gf = Path("y", ("f",)), Path("x", ("g", "f"))
    x = vertex_element(g, "u")
    for a, b in ((f, f), (f, gf), (gf, f)):
        x = x + monomial_element(g, a, b, gauss(1))
    monkeypatch.setattr(pnorm, "MAX_ITER", 1)
    for p in (1.5, 3.0):
        est = element_norm_estimate(x, p)
        assert est.value > 1.0 and est.converged is False


def test_element_norm_on_long_line_within_budget():
    g = zoo.line(199)  # 200 vertices, one sink v199 with one path of each length
    start = time.perf_counter()
    est = element_norm_estimate(vertex_element(g, "v0"), 1.0)
    paths = paths_into_by_sink(g)
    elapsed = time.perf_counter() - start
    assert est.value == 1.0
    assert paths == {
        "v199": tuple(
            Path(f"v{199 - r}", tuple(f"e{i}" for i in range(200 - r, 200))) for r in range(200)
        )
    }
    assert elapsed < 1.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_element_norm_on_doubled_line_within_budget(p):
    # a 2047-row block of 1024 nonzero 1×1 components: the exact dense table
    # behind it took 2.5-2.9 s at p = 1 and 3.1-3.9 s at p = 3 on a 2-core
    # machine, and the SVD of the whole block 5.8-7.8 s at p = 2
    g = doubled_line(11)
    start = time.perf_counter()
    est = element_norm_estimate(vertex_element(g, "v0"), p)
    elapsed = time.perf_counter() - start
    assert est.value == pytest.approx(1.0, rel=1e-12)
    assert elapsed < 1.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_element_norm_of_a_huge_1x1_component(a2, p):
    # e·e* is one 1×1 component, whose norm |c| needs no power iteration
    e = Path("u", ("e",))
    est = element_norm_estimate(monomial_element(a2, e, e, gauss(10**300)), p)
    assert est.value == 1e300
    assert est.converged is (None if p == 1.0 else True)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_element_norm_refuses_an_overflowed_estimate(a3, p):
    # 10^300·(f·f* + f·(ef)* + (ef)·f*), f = e2: one connected 2×2 component
    # of norm about 1.6e300 at p = 2, but |y|^p overflows inside the power
    # iteration
    f, ef = Path("v", ("e2",)), Path("u", ("e1", "e2"))
    x = zero(a3)
    for a, b in ((f, f), (f, ef), (ef, f)):
        x = x + monomial_element(a3, a, b, gauss(10**300))
    assert element_norm_estimate(x, 1.0).value == 2e300
    with pytest.raises(FloatRange, match="overflowed a double"):
        element_norm_estimate(x, p)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", NORM_PS)
@pytest.mark.parametrize("huge_first", [True, False])
def test_element_norm_refuses_a_non_finite_block_in_any_place(p, huge_first):
    # two copies of a3 (sinks w and z); one carries
    # 1.5·10^308·(1+i)·(f·f* + f·(ef)* + (ef)·f*), whose SVD is NaN at p = 2
    # and whose other norms overflow, the other a finite block of norm 1;
    # w's block comes first
    g = Graph(
        ("u", "v", "w", "x", "y", "z"),
        (("e1", "u", "v"), ("e2", "v", "w"), ("d1", "x", "y"), ("d2", "y", "z")),
    )
    copies = [(Path("v", ("e2",)), Path("u", ("e1", "e2"))), (Path("y", ("d2",)), Path("x", ("d1", "d2")))]
    (f, ef), (t, _) = copies if huge_first else copies[::-1]
    x = monomial_element(g, t, t, gauss(1))
    huge = gauss(15 * 10**307, 15 * 10**307)
    for a, b in ((f, f), (f, ef), (ef, f)):
        x = x + monomial_element(g, a, b, huge)
    with pytest.raises(FloatRange, match="overflowed a double"):
        element_norm_estimate(x, p)


def row_and_column_element(c=gauss(1)):
    """c·(w·(e2)* + w·(e1 e2)* + e2·w* + (e1 e2)·w*) over a3 (u -e1-> v -e2-> w):
    a 1×2 row component (row w) and a 2×1 column component (column w)."""
    g = zoo.a3()
    w, e2, e12 = Path("w"), Path("v", ("e2",)), Path("u", ("e1", "e2"))
    x = zero(g)
    for a, b in ((w, e2), (w, e12), (e2, w), (e12, w)):
        x = x + monomial_element(g, a, b, c)
    return g, x


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1.0 + 1e-9, 1.5, 2.0, 3.0, 8.0])
@pytest.mark.parametrize("scale", [1, 10**300])
def test_element_norm_of_row_and_column_components(p, scale):
    # the row [c, c] has norm 2^(1/q)·c and the column 2^(1/p)·c; near 1e300
    # the power iteration's |y|^p overflowed and the norm was refused
    g, x = row_and_column_element(gauss(scale))
    rep = spatial_rep_acyclic(x)
    assert [M.shape for M in rep.blocks.values()] == [(3, 3)]
    spy = mock.patch.object(
        pnorm, "power_iteration_lower_bound", wraps=pnorm.power_iteration_lower_bound
    )
    with spy as iterations:
        est = element_norm_estimate(x, p)
    assert iterations.call_count == 0
    q = p / (p - 1)
    assert est.value == pytest.approx(max(2 ** (1 / q), 2 ** (1 / p)) * scale, rel=1e-15)
    assert (est.exact, est.converged) == (False, True)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_element_norm_skips_a_coefficient_that_rounds_to_zero(p):
    # w·(e2)* + e2·w* + 10^-400·w·w* over a3: the last coefficient is 0.0 as
    # a double, so it joins nothing, as in the dense block's nonzero pattern,
    # and the two 1×1 components need no power iteration
    g = zoo.a3()
    w, e2 = Path("w"), Path("v", ("e2",))
    x = monomial_element(g, w, e2, gauss(1)) + monomial_element(g, e2, w, gauss(1))
    x = x + monomial_element(g, w, w, gauss(Fraction(1, 10**400)))
    spy = mock.patch.object(
        pnorm, "power_iteration_lower_bound", wraps=pnorm.power_iteration_lower_bound
    )
    with spy as iterations:
        est = element_norm_estimate(x, p)
    assert iterations.call_count == 0
    assert (est.value, est.converged) == (1.0, True)


def lex_is_not_block_order():
    """A connected 3×3 component over u -a-> v -c-> w <-b- x whose rows b,
    c, a c sort otherwise by edges alone (a c, b, c): its power iteration
    changes bits when the rows or columns leave the block's order."""
    g = Graph(("u", "v", "x", "w"), (("a", "u", "v"), ("c", "v", "w"), ("b", "x", "w")))
    w, b, c, ac = Path("w"), Path("x", ("b",)), Path("v", ("c",)), Path("u", ("a", "c"))
    x = zero(g)
    entries = (((b, w), (1, 0)), ((b, c), (2, 0)), ((ac, w), (3, 1)), ((ac, ac), (-1, 0)), ((c, c), (1, 2)))
    for (row, col), (re, im) in entries:
        x = x + monomial_element(g, row, col, gauss(re, im))
    return g, x


def star_of_sources():
    """Σ (1/(3+i))·e_i over the star e_i: s_i -> w, i = 0..8: one column of
    nine entries, whose sum numpy takes pairwise as a (9, 1) array, in the
    last bit otherwise (1.5198773448773446) than the sink block's row by row
    sum (1.5198773448773448)."""
    sources = tuple(f"s{i}" for i in range(9))
    g = Graph(sources + ("w",), tuple((f"e{i}", s, "w") for i, s in enumerate(sources)))
    x = zero(g)
    for i in range(9):
        x = x + path_element(g, (f"e{i}",)).scale(Fraction(1, 3 + i))
    return g, x


@given(acyclic_graphs_and_elements(), st.sampled_from(NORM_PS), st.integers(0, 1000))
@example(lex_is_not_block_order(), 3.0, 0)
@example(star_of_sources(), 1.0, 0)
@settings(deadline=None, max_examples=300)
def test_element_norm_matches_the_dense_route(case, p, seed):
    # the components built from the expanded terms against the sink blocks
    # of spatial_rep_acyclic: the whole-block oracle, and norm_estimate, which
    # splits a dense block into the same components
    g, x = case
    blocks = list(spatial_rep_acyclic(x).blocks.values())
    est = element_norm_estimate(x, p, seed=seed)
    dense = max((oracle_dense_norm_estimate(M, p, seed=seed)[0] for M in blocks), default=0.0)
    if p == 1.0:
        assert (repr(est.value), est.exact, est.converged) == (repr(dense), True, None)
        return
    split = [norm_estimate(M, p, seed=seed) for M in blocks]
    # bit for bit: with no single-row or single-column component this is
    # the value of the power iterations on the dense blocks' components
    assert repr(est.value) == repr(max((e.value for e in split), default=0.0))
    assert est.converged is all(e.converged for e in split)
    assert est.exact is (not g.vertices)
    if p == 2.0:
        assert abs(est.value - dense) <= 1e-12 * dense
    else:
        # Riesz-Thorin bounds every ratio, up to a float slack of 1e-12.  Each
        # restart stops once a step gains at most tol = 1e-10 relative, so the
        # whole-block iteration can stop above the components' (1.7e-12 at
        # p = 1.1 on a four-edge DAG, as at the parent; 1.1e-11 at most in
        # 4,000 examples): it is a floor only up to tol
        high = max(
            (
                float(np.abs(M).sum(axis=0).max()) ** (1 / p)
                * float(np.abs(M).sum(axis=1).max()) ** (1 - 1 / p)
                for M in blocks
            ),
            default=0.0,
        )
        assert dense * (1 - 1e-10) <= est.value <= high * (1 + 1e-12)


def assert_builds_no_dense_block(route):
    """Runs route(x) on three elements, with spies on the dense builders."""
    spies = [
        mock.patch.object(module, name, wraps=getattr(module, name))
        for module, name in ((pnorm, "spatial_rep_acyclic"), (matricial, "paths_into_by_sink"))
    ]
    with spies[0] as dense, spies[1] as paths:
        for _, x in (lex_is_not_block_order(), star_of_sources(), row_and_column_element()):
            route(x)
    assert (dense.call_count, paths.call_count) == (0, 0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_element_norm_builds_no_dense_block(p):
    assert_builds_no_dense_block(lambda x: element_norm_estimate(x, p))


def test_quadrature_builds_no_dense_block():
    assert_builds_no_dense_block(
        lambda x: [degree_component_quadrature_error(x, n) for n in range(-3, 4)]
    )
    # nor a degree component: the expansion's degree-n terms are its image
    assert not hasattr(pnorm, "degree_component")


def test_acyclic_blocks_hold_their_sink():
    # each sink block lists the length-0 path first, so no block is empty
    for g in (zoo.a2(), zoo.a3(), zoo.line(4), zoo.two_isolated()):
        d = acyclic_decompose(zero(g))
        assert [d.paths[k][0] for k in d.block_order()] == [
            Path(v) for v in sorted(v for v in g.vertices if g.is_sink(v))
        ]


def test_element_norm_max_formula(a3):
    rng = random.Random(31)
    for _ in range(20):
        x = random_element(a3, rng, max_terms=4, max_len=2, nonzero=False)
        rep = spatial_rep_acyclic(x)
        per_block = [
            norm_estimate(M, 1.0).value for M in rep.blocks.values() if M.size
        ]
        assert element_norm_estimate(x, 1.0).value == (max(per_block) if per_block else 0.0)


def decimal_modulus(c) -> Decimal:
    """|c| of an exact coefficient (a + b·i)/d, to the context's precision."""
    return (Decimal(c.a * c.a + c.b * c.b)).sqrt() / c.d


def exact_components(expansion) -> list[list[tuple]]:
    """The connected components of the expansion's pattern, each a list of
    its (row, column, coefficient) entries, by a search over rows and
    columns."""
    by_row, by_col = {}, {}
    for m, c in expansion.items():
        by_row.setdefault(m.alpha, []).append((m.alpha, m.beta, c))
        by_col.setdefault(m.beta, []).append((m.alpha, m.beta, c))
    seen, components = set(), []
    for m, c in expansion.items():
        if (m.alpha, m.beta) in seen:
            continue
        component, stack = [], [(m.alpha, m.beta, c)]
        seen.add((m.alpha, m.beta))
        while stack:
            entry = stack.pop()
            component.append(entry)
            for other in by_row[entry[0]] + by_col[entry[1]]:
                if other[:2] not in seen:
                    seen.add(other[:2])
                    stack.append(other)
        components.append(component)
    return components


# one double's unit roundoff: each modulus is off by at most 3u (the
# coefficient's rounding, then hypot's one ulp), a sum of k moduli by (k + 2)u
# and a closed form, whose error the root divides by r, by at most 16u
U = 2.0**-53


@given(acyclic_graphs_and_elements(), st.sampled_from([1.1, 1.5, 2.0, 3.0, 8.0]))
@settings(deadline=None, max_examples=300)
def test_closed_forms_agree_with_a_decimal_reference(case, p):
    # p = 1 on every element, and at other p the elements whose components
    # are all 1×1, single rows or single columns, against 50 digits from the
    # exact coefficients
    g, x = case
    components = exact_components(acyclic_expansion(x))
    with localcontext() as ctx:
        ctx.prec = 50
        sums: dict = {}
        for _, b, c in (entry for comp in components for entry in comp):
            sums[b] = sums.get(b, 0) + decimal_modulus(c)
        k = max((len(comp) for comp in components), default=0)
        ref = float(max(sums.values(), default=0))
        assert abs(element_norm_estimate(x, 1.0).value - ref) <= (k + 2) * U * ref
        closed = []
        for comp in components:
            rows, cols = {a for a, _, _ in comp}, {b for _, b, _ in comp}
            if len(rows) > 1 and len(cols) > 1:
                return
            r = Decimal(p / (p - 1.0) if len(rows) == 1 else p)
            closed.append(sum(decimal_modulus(c) ** r for _, _, c in comp) ** (1 / r))
        ref = float(max(closed, default=0))
    assert abs(element_norm_estimate(x, p).value - ref) <= 16 * U * ref


@pytest.mark.parametrize("p", NORM_PS)
def test_the_modulus_is_correctly_rounded(a2, p):
    # |1 + 5i| = sqrt(26) rounds to 5.0990195135927845, as libm's hypot gives
    # it through Python's abs and np.hypot; numpy 2.4's complex absolute gave
    # 5.099019513592785, one ulp above, on an x86-64 machine with AVX-512
    e = Path("u", ("e",))
    est = element_norm_estimate(monomial_element(a2, e, e, gauss(1, 5)), p)
    assert repr(est.value) == repr(float(Decimal(26).sqrt())) == "5.0990195135927845"
    assert repr(norm_estimate([[1 + 5j]], p).value) == "5.0990195135927845"


# ---------------------------------------------------------------------------
# quadrature check of the degree projections
# ---------------------------------------------------------------------------


def test_quadrature_single_edge(a2):
    e = path_element(a2, ("e",))
    assert degree_component_quadrature_error(e, 1) <= 1e-12
    assert degree_component_quadrature_error(e, 0) <= 1e-12


def test_quadrature_vertex(a2):
    u = vertex_element(a2, "u")
    assert degree_component_quadrature_error(u, 0) <= 1e-12


def test_quadrature_random_all_degrees():
    rng = random.Random(44)
    for g in (zoo.a3(), zoo.line(4)):
        for _ in range(10):
            x = random_element(g, rng, max_terms=5, max_len=3, nonzero=False)
            maxdeg = max((abs(d) for d in x.degrees()), default=0)
            for n in range(-maxdeg - 1, maxdeg + 2):
                assert degree_component_quadrature_error(x, n) <= 1e-9


@st.composite
def doubled_line_elements(draw):
    """A random element over the doubled line on 6 vertices: 63 paths into
    its sink, degrees up to ±5."""
    g = doubled_line(6)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return g, random_element(g, rng, max_terms=draw(st.integers(1, 6)), max_len=5, nonzero=False)


EMPTY = Graph((), ())


@given(st.one_of(acyclic_graphs_and_elements(), doubled_line_elements()))
@example((EMPTY, zero(EMPTY)))
@example((zoo.a3(), zero(zoo.a3())))
@settings(deadline=None, max_examples=200)
def test_quadrature_on_the_expanded_terms_matches_the_dense_blocks(case):
    # one entry per expanded term against every entry of the dense sink
    # blocks, bit for bit: the same per-entry operations, and the zeros of
    # the blocks add nothing to the maximum
    g, x = case
    maxdeg = max((abs(d) for d in x.degrees()), default=0)
    for n in range(-maxdeg - 1, maxdeg + 2):
        assert repr(degree_component_quadrature_error(x, n)) == repr(
            oracle_quadrature_error(x, n)
        )


def test_quadrature_answers_past_the_block_budget():
    # the edge a0 expands into 2^10 terms; the 4095 paths into the sink make
    # a dense block of 4095^2 entries, over BLOCK_BUDGET, which the dense
    # check refuses
    g = doubled_line(12)
    x = path_element(g, ("a0",))
    with pytest.raises(BudgetExceeded, match="sink blocks"):
        oracle_quadrature_error(x, 1)
    for n in range(-2, 3):
        assert degree_component_quadrature_error(x, n) <= 1e-12


def test_quadrature_refuses_too_many_nodes_before_building(a2, monkeypatch):
    e = path_element(a2, ("e",))
    # 4·10^9 + 2 nodes: np.arange of them alone would take 32 GB, so the
    # expansion, which comes first of all that is built, must not be reached
    unreached = AssertionError("expanded before the node count was checked")
    with mock.patch.object(pnorm, "acyclic_expansion", side_effect=unreached):
        with pytest.raises(BudgetExceeded, match="4000000002 nodes, over the budget of 65536"):
            degree_component_quadrature_error(e, 10**9)
    # the budget is inclusive: n = ±2 takes 10 nodes, n = ±3 takes 14
    monkeypatch.setattr(pnorm, "QUADRATURE_NODES", 10)
    for n in (-2, 2):
        assert degree_component_quadrature_error(e, n) <= 1e-12
    for n in (-3, 3):
        with pytest.raises(BudgetExceeded, match="14 nodes"):
            degree_component_quadrature_error(e, n)



def test_quadrature_refuses_too_many_updates_before_the_node_loop(monkeypatch):
    # the edge a0 of the doubled line on 4 vertices expands into 4 terms;
    # the budget is inclusive: n = ±1 takes 6 nodes × 4 terms, n = ±2 takes 10
    g = doubled_line(4)
    x = path_element(g, ("a0",))
    monkeypatch.setattr(pnorm, "QUADRATURE_UPDATES", 24)
    for n in (-1, 1):
        assert degree_component_quadrature_error(x, n) <= 1e-12
    unreached = AssertionError("terms rounded before the update count was checked")
    refusal = "10 nodes × 4 terms = 40 updates, over the budget of 24"
    with mock.patch.object(pnorm, "_float_terms", side_effect=unreached):
        for n in (-2, 2):
            with pytest.raises(BudgetExceeded, match=refusal):
                degree_component_quadrature_error(x, n)

BLAS_PROBE = """
from leavitt_lab.pnorm import norm_estimate
import numpy as np

rng = np.random.default_rng(0)
M = (rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))) * (
    rng.random((300, 300)) < 0.3
)
print(repr(norm_estimate(M, 2.0).value), repr(norm_estimate(M, 3.0).value))
"""


def test_norm_does_not_depend_on_blas_threads():
    # Two BLAS threads changed the last digits of both norms of this block.
    # With one CPU the two runs cannot differ, so there the test passes trivially.
    package_root = os.path.dirname(os.path.dirname(leavitt_lab.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = {
            "PATH": "/usr/bin:/bin:/usr/local/bin",
            "PYTHONPATH": package_root,
            "PYTHONDONTWRITEBYTECODE": "1",
        }
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = env["MKL_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_PROBE], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
