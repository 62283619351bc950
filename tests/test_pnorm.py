import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leavitt_lab
from leavitt_lab import zoo
from leavitt_lab.errors import EmptyMatrix, NotAcyclic
from leavitt_lab.lpa import multiply, path_element, vertex_element, zero
from leavitt_lab.graph import Path
from leavitt_lab.matricial import acyclic_decompose, paths_into_by_sink
from leavitt_lab.pnorm import (
    degree_component_quadrature_error,
    element_norm_estimate,
    norm_estimate,
    power_iteration_lower_bound,
    spatial_rep_acyclic,
)
from leavitt_lab.sample import random_element

from oracles import oracle_column_sum_norm, oracle_power_iteration


# ---------------------------------------------------------------------------
# spatial representation
# ---------------------------------------------------------------------------


def test_spatial_rep_matrix_unit(a2):
    rep = spatial_rep_acyclic(a2, path_element(a2, ("e",)))
    assert list(rep.blocks) == ["v"]
    np.testing.assert_allclose(rep.blocks["v"], [[0, 0], [1, 0]])


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
    nan entry), scaled by 1, by 1e-170 (M^H M underflows) or by 1e200 (|y|^p
    overflows), plus the iteration's settings."""
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
    with np.errstate(all="ignore"):
        est = power_iteration_lower_bound(
            M, p, restarts=restarts, seed=seed, tol=1e-10, max_iter=max_iter
        )
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
