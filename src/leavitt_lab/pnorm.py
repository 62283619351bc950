"""Numeric l^p kernels: spatial matrix images of acyclic algebras, operator
norms on l^p, and circle-quadrature validation of the degree projections.

Exact matrices from the matricial module are converted to complex floats.
The l^p -> l^p operator norm is exact for p = 1 (maximum column sum), a
singular value for p = 2, and otherwise a certified lower bound from a
nonlinear power iteration with restarts.  The restarts run as one stacked
iteration over a (restarts, n) array, each row doing the arithmetic of a
lone restart bit for bit.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import EmptyMatrix
from .graph import Graph, Path
from .lpa import Element, degree_component
from .matricial import acyclic_decompose

P_MIN, P_MAX = 1.0, 8.0


def _lazy_numpy():
    """numpy, executed on first attribute access.  Importing it takes most of
    a cold start and only the norm kernels use it.  BLAS is held to one
    thread, so that a norm does not depend on the machine's core count; the
    variables stay set until numpy executes."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()


def _check_p(p: float) -> float:
    p = float(p)
    if not (P_MIN <= p <= P_MAX):
        raise ValueError(f"p must lie in [{P_MIN}, {P_MAX}]")
    return p


@dataclass
class SpatialMatrix:
    """Per-sink complex float matrices indexed by the paths into each sink."""

    blocks: dict[str, np.ndarray]
    paths: dict[str, tuple[Path, ...]]


def spatial_rep_acyclic(g: Graph, x: Element) -> SpatialMatrix:
    """Float image of the acyclic block decomposition."""
    decomp = acyclic_decompose(g, x)
    blocks: dict[str, np.ndarray] = {}
    paths: dict[str, tuple[Path, ...]] = {}
    for key, matrix in decomp.blocks.items():
        blocks[key.vertex] = np.array(
            [[complex(c) for c in row] for row in matrix], dtype=np.complex128
        )
        paths[key.vertex] = decomp.paths[key]
    return SpatialMatrix(blocks, paths)


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormEstimate:
    value: float
    exact: bool
    converged: Optional[bool] = None


def _row_norms(Y: np.ndarray, p: float) -> np.ndarray:
    """``np.linalg.norm(y, ord=p)`` of every row y of Y, to the last bit.

    numpy sums |y|^p and takes the root of that scalar; a root taken over
    the whole array can differ from the scalar one in the last bit, so it is
    applied row by row.
    """
    root = np.reciprocal(p)
    return np.array([s ** root for s in np.add.reduce(np.abs(Y) ** p, axis=1)])


def _dual_sign_power(V: np.ndarray, r: float) -> np.ndarray:
    """Entrywise |v|^(r-1) · phase(v) for every row v of V, with a floor
    relative to the row's own largest modulus against denormals."""
    mags = np.abs(V)
    out = np.zeros_like(V)
    nz = mags > mags.max(axis=1)[:, None] * 1e-18
    out[nz] = (mags[nz] ** (r - 1.0)) * (V[nz] / mags[nz])
    return out


def _matvec_rows(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for every row x of X.  A stacked product runs the BLAS
    matrix-vector routine once per row, as ``M @ x`` does; ``X @ M.T`` would
    take the matrix-matrix routine, whose sums round differently."""
    return (M @ X[:, :, None])[:, :, 0]


def _stacked_power_iteration(
    M: np.ndarray, p: float, X: np.ndarray, tol: float, max_iter: int
) -> list[tuple[float, bool]]:
    """Higham's nonlinear power method from every row of X at once.

    Each row does the arithmetic of a lone iteration from that start and
    leaves the live set on the step where that iteration would stop: a zero
    image, no gain beyond ``tol``, a zero dual vector, or ``max_iter`` steps
    (the only way to end unconverged).  Returns (best ratio, converged) per row.
    """
    q = p / (p - 1.0)
    MH = M.conj().T
    best = np.zeros(X.shape[0])
    converged = np.zeros(X.shape[0], dtype=bool)
    nx = _row_norms(X, p)
    converged[nx == 0] = True
    live = np.flatnonzero(nx != 0)
    X = X[live] / nx[live, None]
    for _ in range(max_iter):
        if not live.size:
            break
        Y = _matvec_rows(M, X)
        gamma = _row_norms(Y, p)
        prev = best[live]
        best[live] = np.where(gamma > prev, gamma, prev)
        stop = (gamma == 0.0) | (gamma <= prev * (1.0 + tol))
        if stop.any():
            converged[live[stop]] = True
            keep = ~stop
            live, Y, gamma = live[keep], Y[keep], gamma[keep]
        Z = _matvec_rows(MH, _dual_sign_power(Y / gamma[:, None], p))
        zmax = np.abs(Z).max(axis=1)
        stop = zmax == 0.0
        if stop.any():
            converged[live[stop]] = True
            keep = ~stop
            live, Z, zmax = live[keep], Z[keep], zmax[keep]
        X = _dual_sign_power(Z / zmax[:, None], q)
        nx = _row_norms(X, p)
        stop = nx == 0.0
        if stop.any():
            converged[live[stop]] = True
            keep = ~stop
            live, X, nx = live[keep], X[keep], nx[keep]
        X = X / nx[:, None]
    return [(float(b), bool(c)) for b, c in zip(best, converged)]


def power_iteration_lower_bound(
    M,
    p: float,
    restarts: int = 8,
    seed: int = 0,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> NormEstimate:
    """Certified lower bound for the l^p operator norm by nonlinear power iteration.

    The value is the best ratio ||Mx||_p / ||x||_p over the iterates of every
    restart, hence always a valid lower bound; ``converged`` reports whether
    the best restart reached a stationary estimate.  The restarts run as one
    stacked iteration and reduce by max, the first maximum winning ties.
    At p = 2 the norm is the largest singular value, so this returns
    ``norm_estimate(M, 2.0)``.
    """
    p = _check_p(p)
    if p == 1.0:
        raise ValueError("use norm_estimate for p = 1; the column-sum formula is exact")
    if p == 2.0:
        return norm_estimate(M, p)
    M = np.asarray(M, dtype=np.complex128)
    if M.size == 0:
        raise EmptyMatrix("norm of an empty matrix")

    rng = np.random.default_rng(seed)
    n = M.shape[1]
    starts = [
        rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(restarts)
    ]
    col = int(np.argmax((np.abs(M) ** p).sum(axis=0)))
    e = np.zeros(n, dtype=np.complex128)
    e[col] = 1.0
    starts.append(e)

    results = _stacked_power_iteration(M, p, np.array(starts), tol, max_iter)
    value, converged = max(results, key=lambda r: r[0])
    return NormEstimate(value, exact=False, converged=converged)


def norm_estimate(M, p: float, seed: int = 0, tol: float = 1e-10) -> NormEstimate:
    """Operator norm of a complex matrix on l^p.

    p = 1 is the exact maximum column absolute sum; p = 2 is the largest
    singular value.  Other p report the power-iteration lower bound with a
    convergence flag.
    """
    p = _check_p(p)
    M = np.asarray(M, dtype=np.complex128)
    if M.size == 0:
        raise EmptyMatrix("norm of an empty matrix")
    if p == 1.0:
        return NormEstimate(float(np.abs(M).sum(axis=0).max()), exact=True)
    if p == 2.0:
        # the full norm, but only to float precision: exact stays False
        return NormEstimate(float(np.linalg.norm(M, 2)), exact=False, converged=True)
    return power_iteration_lower_bound(M, p, seed=seed, tol=tol)


def element_norm_estimate(
    g: Graph, x: Element, p: float, seed: int = 0, tol: float = 1e-10
) -> NormEstimate:
    """Norm of an element of a finite acyclic algebra: max over sink blocks."""
    p = _check_p(p)
    rep = spatial_rep_acyclic(g, x)
    values = []
    exact = True
    converged: Optional[bool] = None
    for v in sorted(rep.blocks):
        est = norm_estimate(rep.blocks[v], p, seed=seed, tol=tol)
        values.append(est.value)
        exact = exact and est.exact
        if est.converged is not None:
            converged = est.converged if converged is None else (converged and est.converged)
    value = max(values) if values else 0.0
    return NormEstimate(value, exact=exact, converged=converged)


# ---------------------------------------------------------------------------
# quadrature check of the degree projections
# ---------------------------------------------------------------------------


def degree_component_quadrature_error(g: Graph, x: Element, n: int) -> float:
    """Deviation between circle-averaged gauge rotations and the symbolic
    degree-n component, in the spatial representation.

    The gauge action rotates a matrix entry by z^(row length - column length),
    so the rectangle rule with enough equispaced nodes integrates the entry
    exactly; the node count is twice the minimum 2·maxdeg+1, widened when |n|
    itself exceeds the element's degree spread.
    """
    rep = spatial_rep_acyclic(g, x)
    sym = spatial_rep_acyclic(g, degree_component(x, n))
    maxdeg = max((abs(d) for d in x.degrees()), default=0)
    K = 2 * (2 * max(maxdeg, abs(n)) + 1)
    thetas = 2.0 * np.pi * np.arange(K) / K

    worst = 0.0
    for v, M in rep.blocks.items():
        rows = np.array([p_.length for p_ in rep.paths[v]])
        degs = rows[:, None] - rows[None, :]
        acc = np.zeros_like(M)
        for theta in thetas:
            phases = np.exp(1j * theta * degs)
            acc += np.exp(-1j * n * theta) * (phases * M)
        acc /= K
        worst = max(worst, float(np.abs(acc - sym.blocks[v]).max()))
    return worst
