import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leavitt_lab
from leavitt_lab import matricial, pnorm, zoo
from leavitt_lab.errors import BudgetExceeded, EmptyMatrix, FloatRange, NotAcyclic
from leavitt_lab.lpa import gauss, monomial_element, multiply, path_element, vertex_element, zero
from leavitt_lab.graph import Graph, Path, path_counts
from leavitt_lab.matricial import acyclic_decompose, paths_into_by_sink
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
    oracle_dense_norm_estimate,
    oracle_power_iteration,
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
    rep = spatial_rep_acyclic(a2, path_element(a2, ("e",)))
    assert list(rep.blocks) == ["v"]
    np.testing.assert_allclose(rep.blocks["v"], [[0, 0], [1, 0]])


def test_value_types_are_named_tuples(a2):
    rep = spatial_rep_acyclic(a2, path_element(a2, ("e",)))
    assert isinstance(rep, SpatialMatrix) and rep._fields == ("blocks", "paths")
    assert NormEstimate(1.0, True).converged is None
    assert NormEstimate(1.0, True) == (1.0, True, None)
    with pytest.raises(AttributeError):
        NormEstimate(1.0, True).value = 2.0


def test_spatial_rep_zero(a3):
    rep = spatial_rep_acyclic(a3, zero(a3))
    for M in rep.blocks.values():
        assert not np.abs(M).any()


def test_spatial_rep_matches_exact_decomposition(a3):
    rng = random.Random(12)
    for _ in range(10):
        x = random_element(a3, rng, max_terms=4, max_len=2, nonzero=False)
        rep = spatial_rep_acyclic(a3, x)
        d = acyclic_decompose(a3, x)
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
    rep = spatial_rep_acyclic(g, x)
    paths, blocks = oracle_spatial_rep_acyclic(g, x)
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
        spatial_rep_acyclic(g, vertex_element(g, "v0"))
    with pytest.raises(BudgetExceeded, match="budget"):
        acyclic_decompose(g, vertex_element(g, "v0"))
    assert time.perf_counter() - start < 1.0


def test_spatial_rep_budget_is_inclusive(monkeypatch):
    g = Graph(("u", "v", "s", "t"), (("e", "u", "s"), ("f", "v", "s"), ("h", "u", "t")))
    # 3 paths into s and 2 into t: 9 + 4 entries
    x = vertex_element(g, "u")
    monkeypatch.setattr(matricial, "BLOCK_BUDGET", 13)
    rep = spatial_rep_acyclic(g, x)
    assert sum(M.size for M in rep.blocks.values()) == 13
    monkeypatch.setattr(matricial, "BLOCK_BUDGET", 12)
    with pytest.raises(BudgetExceeded):
        spatial_rep_acyclic(g, x)


def test_spatial_rep_refuses_a_coefficient_beyond_double_range(a2):
    e = Path("u", ("e",))
    x = monomial_element(a2, e, e, gauss(10**400))
    with pytest.raises(FloatRange):
        spatial_rep_acyclic(a2, x)


def test_spatial_rep_multiplicative_up_to_float(a3):
    rng = random.Random(13)
    for _ in range(10):
        x = random_element(a3, rng, max_terms=4, max_len=2, nonzero=False)
        y = random_element(a3, rng, max_terms=4, max_len=2, nonzero=False)
        rx = spatial_rep_acyclic(a3, x)
        ry = spatial_rep_acyclic(a3, y)
        rxy = spatial_rep_acyclic(a3, multiply(x, y))
        for v in rxy.blocks:
            assert np.abs(rxy.blocks[v] - rx.blocks[v] @ ry.blocks[v]).max() <= 1e-12


def test_spatial_rep_rejects_cycles(r2):
    with pytest.raises(NotAcyclic):
        spatial_rep_acyclic(r2, vertex_element(r2, "v"))


def test_spatial_rep_p_range(a2):
    with pytest.raises(ValueError):
        element_norm_estimate(a2, zero(a2), 9.0)


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


# ---------------------------------------------------------------------------
# element norms
# ---------------------------------------------------------------------------


def test_element_norm_identity(a2):
    x = vertex_element(a2, "u") + vertex_element(a2, "v")
    assert element_norm_estimate(a2, x, 1.0).value == 1.0


def test_element_norm_matrix_unit(a2):
    assert element_norm_estimate(a2, path_element(a2, ("e",)), 1.0).value == 1.0


def test_element_norm_max_over_blocks():
    from leavitt_lab.graph import Graph

    g2 = Graph(
        ("u1", "v1", "u2", "v2"),
        (("e1", "u1", "v1"), ("e2", "u2", "v2")),
    )
    x = vertex_element(g2, "v1").scale(2) + vertex_element(g2, "v2")
    assert element_norm_estimate(g2, x, 1.0).value == 2.0


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
        est = element_norm_estimate(g, x, p)
        assert est.value > 1.0 and est.converged is False


def test_element_norm_on_long_line_within_budget():
    g = zoo.line(199)  # 200 vertices, one sink v199 with one path of each length
    start = time.perf_counter()
    est = element_norm_estimate(g, vertex_element(g, "v0"), 1.0)
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
    est = element_norm_estimate(g, vertex_element(g, "v0"), p)
    elapsed = time.perf_counter() - start
    assert est.value == pytest.approx(1.0, rel=1e-12)
    assert elapsed < 1.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_element_norm_of_a_huge_1x1_component(a2, p):
    # e·e* is one 1×1 component, whose norm |c| needs no power iteration
    e = Path("u", ("e",))
    est = element_norm_estimate(a2, monomial_element(a2, e, e, gauss(10**300)), p)
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
    assert element_norm_estimate(a3, x, 1.0).value == 2e300
    with pytest.raises(FloatRange, match="overflowed a double"):
        element_norm_estimate(a3, x, p)


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
        element_norm_estimate(g, x, p)


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
    rep = spatial_rep_acyclic(g, x)
    assert [M.shape for M in rep.blocks.values()] == [(3, 3)]
    spy = mock.patch.object(
        pnorm, "power_iteration_lower_bound", wraps=pnorm.power_iteration_lower_bound
    )
    with spy as iterations:
        est = element_norm_estimate(g, x, p)
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
        est = element_norm_estimate(g, x, p)
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
    blocks = list(spatial_rep_acyclic(g, x).blocks.values())
    est = element_norm_estimate(g, x, p, seed=seed)
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


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_element_norm_builds_no_dense_block(p):
    spies = [
        mock.patch.object(pnorm, name, wraps=getattr(pnorm, name))
        for name in ("spatial_rep_acyclic", "paths_into_by_sink")
    ]
    with spies[0] as dense, spies[1] as paths:
        for g, x in (lex_is_not_block_order(), star_of_sources(), row_and_column_element()):
            element_norm_estimate(g, x, p)
    assert (dense.call_count, paths.call_count) == (0, 0)


def test_acyclic_blocks_hold_their_sink():
    # each sink block lists the length-0 path first, so no block is empty
    for g in (zoo.a2(), zoo.a3(), zoo.line(4), zoo.two_isolated()):
        d = acyclic_decompose(g, zero(g))
        assert [d.paths[k][0] for k in d.block_order()] == [
            Path(v) for v in sorted(v for v in g.vertices if g.is_sink(v))
        ]


def test_element_norm_max_formula(a3):
    rng = random.Random(31)
    for _ in range(20):
        x = random_element(a3, rng, max_terms=4, max_len=2, nonzero=False)
        rep = spatial_rep_acyclic(a3, x)
        per_block = [
            norm_estimate(M, 1.0).value for M in rep.blocks.values() if M.size
        ]
        assert element_norm_estimate(a3, x, 1.0).value == (max(per_block) if per_block else 0.0)


# ---------------------------------------------------------------------------
# quadrature check of the degree projections
# ---------------------------------------------------------------------------


def test_quadrature_single_edge(a2):
    e = path_element(a2, ("e",))
    assert degree_component_quadrature_error(a2, e, 1) <= 1e-12
    assert degree_component_quadrature_error(a2, e, 0) <= 1e-12


def test_quadrature_vertex(a2):
    u = vertex_element(a2, "u")
    assert degree_component_quadrature_error(a2, u, 0) <= 1e-12


def test_quadrature_random_all_degrees():
    rng = random.Random(44)
    for g in (zoo.a3(), zoo.line(4)):
        for _ in range(10):
            x = random_element(g, rng, max_terms=5, max_len=3, nonzero=False)
            maxdeg = max((abs(d) for d in x.degrees()), default=0)
            for n in range(-maxdeg - 1, maxdeg + 2):
                assert degree_component_quadrature_error(g, x, n) <= 1e-9


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
        env = {"PATH": "/usr/bin:/bin:/usr/local/bin", "PYTHONPATH": package_root}
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = env["MKL_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_PROBE], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
