"""Numeric l^p kernels: spatial matrix images of acyclic algebras, operator
norms on l^p, and circle-quadrature validation of the degree projections.

The l^p -> l^p operator norm of a block-diagonal matrix is its blocks'
largest, so an element's norm is the maximum over the connected components
of its sink blocks' nonzero pattern, formed straight from the matricial
expansion into matrix units with each exact coefficient rounded once to a
complex double, and with no sink block built.  A component's norm at p = 1
is its exact largest column sum; otherwise a 1×1 component [c] gives |c|, a
single row its l^q norm (q = p/(p-1)) and a single column its l^p norm
(Hölder).  These closed forms run in Python floats with one modulus, libm's
hypot.  Only a component of two rows and two columns at p != 1 is filled
densely and runs numpy: its largest singular value at p = 2, otherwise a
certified lower bound from a nonlinear power iteration whose restarts run
as one stacked iteration.  A matrix with an infinite or NaN entry has no
norm here: every kernel refuses it with FloatRange.  The quadrature check
runs on the same expanded terms, bounded by the expansion budget, by 2^16
nodes and by 2^28 node × term updates (``QUADRATURE_UPDATES``).  The dense
image, ``acyclic_decompose``'s exact table rounded, and a whole matrix's norm
stay as the reference route, which no production route calls.
"""

from __future__ import annotations

import math
import os
import sys
from typing import NamedTuple, Optional

from . import _lazy_module, matricial
from .errors import BudgetExceeded, EmptyMatrix, FloatRange
from .graph import Path
from .lpa import Element, GaussianRational, Monomial
from .matricial import acyclic_decompose, acyclic_expansion

P_MIN, P_MAX = 1.0, 8.0
# seeded random starts of the power iteration, and its steps per start
RESTARTS, MAX_ITER = 8, 200
# nodes of the quadrature check, 2(2·max(maxdeg, |n|) + 1): |n| up to 16383
QUADRATURE_NODES = 2**16
# nodes × expanded terms of the quadrature check, one complex update each
QUADRATURE_UPDATES = 2**28


def _lazy_numpy():
    """numpy, executed on first attribute access.  Importing it takes most of
    a cold start, and only the dense kernels, the quadrature check and a norm
    component of two rows and two columns at p != 1 use it.  BLAS is held to
    one thread, so that a norm does not depend on the machine's core count;
    the variables stay set until numpy executes."""
    if "numpy" not in sys.modules:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
    return _lazy_module("numpy")


np = _lazy_numpy()


def _check_args(p: float, seed: int, tol: float) -> float:
    """p as a float; raises ValueError for p outside [P_MIN, P_MAX], a
    negative seed, or a tol that is not a finite number >= 0."""
    p = float(p)
    if not (P_MIN <= p <= P_MAX):
        raise ValueError(f"p must lie in [{P_MIN}, {P_MAX}]")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    return p


class SpatialMatrix(NamedTuple):
    """Per-sink complex float matrices indexed by the paths into each sink:
    the dense reference picture, which no production route reads."""

    blocks: dict[str, np.ndarray]
    paths: dict[str, tuple[Path, ...]]


def spatial_rep_acyclic(x: Element) -> SpatialMatrix:
    """Float image of ``acyclic_decompose(x)``: each exact sink block, keyed
    by its sink, with every entry rounded once to a complex double.  The
    reference route: no production route calls it.  Raises as
    ``acyclic_decompose`` does (BudgetExceeded, before anything is built,
    when the blocks or the expansion would exceed their budgets), and
    FloatRange when a coefficient is too large for a double."""
    exact = acyclic_decompose(x)
    try:
        blocks = {k.vertex: np.array(m, dtype=np.complex128) for k, m in exact.blocks.items()}
    except OverflowError:
        raise FloatRange("a coefficient of the element is too large for a double") from None
    return SpatialMatrix(blocks, {k.vertex: ps for k, ps in exact.paths.items()})


def _float_terms(expansion: dict[Monomial, GaussianRational]) -> list[tuple[Path, Path, complex]]:
    """(a, b, c) for each expanded a·b*, its coefficient c rounded once to a
    complex double; raises FloatRange when one is too large for a double."""
    try:
        return [(m.alpha, m.beta, complex(c)) for m, c in expansion.items()]
    except OverflowError:
        raise FloatRange("a coefficient of the element is too large for a double") from None


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


class NormEstimate(NamedTuple):
    value: float
    exact: bool
    converged: Optional[bool] = None


def _row_norms(Y: np.ndarray, p: float) -> np.ndarray:
    """``np.linalg.norm(y, ord=p)`` of every row y of Y, to the last bit:
    numpy sums |y|^p and takes the root of that scalar; a root taken over
    the whole array can differ from the scalar one in the last bit, so it is
    taken row by row, in Python floats, with the same libm ``pow``."""
    root = 1.0 / p
    return np.array([s ** root for s in np.add.reduce(np.abs(Y) ** p, axis=1).tolist()])


def _dual_sign_power(V: np.ndarray, r: float) -> np.ndarray:
    """Entrywise |v|^(r-1) · phase(v) for every row v of V, with a floor
    relative to the row's own largest modulus against denormals."""
    mags = np.abs(V)
    nz = mags > np.maximum.reduce(mags, axis=1, keepdims=True) * 1e-18
    out = np.divide(V, mags, where=nz, out=np.zeros(V.shape, dtype=V.dtype))
    return np.multiply(mags ** (r - 1.0), out, where=nz, out=out)


def _matvec_rows(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for every row x of X.  A stacked product runs the BLAS
    matrix-vector routine once per row, as ``M @ x`` does; ``X @ M.T`` would
    take the matrix-matrix routine, whose sums round differently."""
    return (M @ X[:, :, None])[:, :, 0]


def _finite_matrix(M) -> np.ndarray:
    """M as a complex128 array; raises ValueError when M is not 2-D,
    EmptyMatrix for an empty matrix and FloatRange for an infinite or NaN
    entry, whose norm no kernel here gives."""
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2:
        raise ValueError(f"a matrix must be 2-D, got shape {M.shape}")
    if M.size == 0:
        raise EmptyMatrix("norm of an empty matrix")
    if not np.isfinite(M).all():
        raise FloatRange("the matrix has an infinite or NaN entry")
    return M


def _stacked_power_iteration(
    M: np.ndarray, p: float, X: np.ndarray, tol: float
) -> list[tuple[float, bool]]:
    """Higham's nonlinear power method from every row of X at once.

    Each row does the arithmetic of a lone iteration from that start and is
    marked stopped on the step where that iteration would stop: a zero
    image, no gain beyond ``tol``, a zero dual vector, or ``MAX_ITER`` steps
    (the only way to end unconverged).  A stopped row stays in the stack,
    its later values unread, so its divisions by zero are silenced; the
    silencing covers every row, so a live row's inf/inf after an overflow
    warns no more either.  Returns (best ratio, converged) per row.
    """
    q = p / (p - 1.0)
    MH = M.conj().T
    nx = _row_norms(X, p)
    best = [0.0] * X.shape[0]
    stopped = [s == 0.0 for s in nx.tolist()]
    with np.errstate(divide="ignore", invalid="ignore"):
        X = X / nx[:, None]
        for _ in range(MAX_ITER):
            if all(stopped):
                break
            Y = _matvec_rows(M, X)
            gamma = _row_norms(Y, p)
            for i, g in enumerate(gamma.tolist()):
                if not stopped[i]:
                    prev = best[i]
                    if g > prev:
                        best[i] = g
                    stopped[i] = g == 0.0 or g <= prev * (1.0 + tol)
            if all(stopped):
                break
            Z = _matvec_rows(MH, _dual_sign_power(Y / gamma[:, None], p))
            zmax = np.maximum.reduce(np.abs(Z), axis=1)
            X = _dual_sign_power(Z / zmax[:, None], q)
            nx = _row_norms(X, p)
            if not (zmax.all() and nx.all()):
                stopped = [
                    s or z == 0.0 or n == 0.0
                    for s, z, n in zip(stopped, zmax.tolist(), nx.tolist())
                ]
            X = X / nx[:, None]
    return list(zip(best, stopped))


def power_iteration_lower_bound(M, p: float, seed: int = 0, tol: float = 1e-10) -> NormEstimate:
    """Certified lower bound for the l^p operator norm by nonlinear power iteration.

    The value is the best ratio ||Mx||_p / ||x||_p over the iterates of every
    restart (``RESTARTS`` seeded random starts and the unit vector at the
    heaviest column, each for at most ``MAX_ITER`` steps), hence always a
    valid lower bound; ``converged`` reports whether the best restart reached
    a stationary estimate.  The restarts run as one stacked iteration and
    reduce by max, the first maximum winning ties.  Each restart stops once
    a step gains at most ``tol`` relative, so two such bounds of one norm
    from other start sets (a matrix and its components, say) agree only to
    about ``tol``: 1.7e-12 and 9.7e-12 apart were seen at tol = 1e-10.  At
    p = 2 the norm is the largest singular value, so this returns
    ``norm_estimate(M, 2.0)``.
    """
    p = _check_args(p, seed, tol)
    if p == 1.0:
        raise ValueError("use norm_estimate for p = 1; the column-sum formula is exact")
    if p == 2.0:
        return norm_estimate(M, p)
    M = _finite_matrix(M)

    # one draw, yet the stream of one real and one imaginary draw of n per restart
    Z = np.random.default_rng(seed).standard_normal((RESTARTS, 2, M.shape[1]))
    starts = np.zeros((RESTARTS + 1, M.shape[1]), dtype=np.complex128)
    starts[:RESTARTS] = Z[:, 0] + 1j * Z[:, 1]
    starts[RESTARTS, int(np.argmax((np.abs(M) ** p).sum(axis=0)))] = 1.0

    results = _stacked_power_iteration(M, p, starts, tol)
    value, converged = max(results, key=lambda r: r[0])
    return NormEstimate(value, exact=False, converged=converged)


def _components(entries, key) -> list[tuple[int, int, list]]:
    """The connected components of the bipartite graph joining row a to
    column b for each entry (a, b, z) whose z is nonzero, each as (rows,
    columns, cells): its rows and its columns numbered in ``key`` order, and
    its entries as cells (row, column, z) in row-major order, the submatrix
    on them when ``key`` is the matrix's own order.  Components come in the
    order of their first entries.  No zero is filled in, and rows and columns
    with no nonzero entry lie in no component.  A component of one entry is
    (1, 1, [(0, 0, z)]), with no sorting or numbering."""
    entries = [(a, b, z) for a, b, z in entries if z]
    # the rows, then the columns, numbered as they first appear: the nodes
    # 0, 1, ... of one union-find
    rows: dict = {}
    for a, _, _ in entries:
        rows.setdefault(a, len(rows))
    cols: dict = {}
    for _, b, _ in entries:
        cols.setdefault(b, len(rows) + len(cols))
    parent = list(range(len(rows) + len(cols)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for a, b, _ in entries:
        i, j = find(rows[a]), find(cols[b])
        if i != j:
            parent[j] = i
    groups: dict[int, list] = {}
    for entry in entries:
        groups.setdefault(find(rows[entry[0]]), []).append(entry)
    components = []
    for group in groups.values():
        if len(group) == 1:
            components.append((1, 1, [(0, 0, group[0][2])]))
            continue
        row_of = {a: i for i, a in enumerate(sorted({a for a, _, _ in group}, key=key))}
        col_of = {b: j for j, b in enumerate(sorted({b for _, b, _ in group}, key=key))}
        # the (row, column) pairs are distinct, so z is never compared
        cells = sorted((row_of[a], col_of[b], z) for a, b, z in group)
        components.append((len(row_of), len(col_of), cells))
    return components


def _block_order(path: Path) -> tuple:
    """A path's place in its sink block, the (length, lex) order of ``paths_into_by_sink``."""
    return len(path.edges), path.edges


def _abs(z: complex) -> float:
    """|z| by libm's hypot, as ``np.hypot`` gives it; inf where abs overflows."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _component_norm(m: int, n: int, cells, p: float, seed: int, tol: float) -> tuple[float, bool]:
    """(l^p operator norm, converged) of an m×n component from ``_components``.

    p = 1, and a 1×1 component [c] at any p, give the largest column sum
    (|c|); otherwise a single row gives its l^q norm, q = p/(p-1), and a
    single column its l^p norm (Hölder), all in Python floats from the
    nonzero cells.  Any other component is filled as a dense array and runs
    numpy: at p = 2 the largest of its singular values straight from
    ``np.linalg.svd``, the float ``np.linalg.norm(dense, 2)`` gives bit for
    bit (a NaN among them wins) without its wrapper, and at other p the
    power iteration's lower bound, which alone can leave ``converged`` False.
    """
    if p == 1.0 or m == n == 1:
        # rows added in order, as numpy's sum(axis=0) over a C-ordered dense
        # block (whose zeros change no bit), not Python 3.12's compensated sum()
        sums = [0.0] * n
        for _, j, z in cells:
            sums[j] += _abs(z)
        return max(sums), True
    if m == 1 or n == 1:
        # scaled by the largest modulus before the power r: unscaled, |c_j|^r
        # overflows for [3, 4] at r = 1e9 + 1, and for entries near 1e200 at r = 2
        r = p / (p - 1.0) if m == 1 else p
        mags = [_abs(z) for _, _, z in cells]
        top = max(mags)
        return top * math.fsum((v / top) ** r for v in mags) ** (1.0 / r), True
    rows, cols, zs = zip(*cells)
    # an overflow reaches the caller as inf or NaN, not as numpy warnings too
    with np.errstate(over="ignore", invalid="ignore"):
        dense = np.zeros((m, n), dtype=np.complex128)
        dense[rows, cols] = zs
        if p == 2.0:
            return float(np.linalg.svd(dense, compute_uv=False).max()), True
        est = power_iteration_lower_bound(dense, p, seed=seed, tol=tol)
    return est.value, est.converged


def _max_norm(norms, p: float) -> NormEstimate:
    """The norm of a direct sum from its blocks' (norm, converged) pairs: the
    largest norm, 0.0 for none, a NaN winning (max(0.0, nan) is 0.0; a finite
    entry can still yield NaN, e.g. the SVD of a block whose entry's modulus
    overflows a double).  ``converged`` is the AND over the blocks; only
    p = 1 is exact (p = 2 is the full norm, but only to float precision)."""
    value, converged = 0.0, True
    for v, c in norms:
        converged = converged and c
        if v > value or v != v:
            value = v
    if p == 1.0:
        return NormEstimate(value, exact=True)
    return NormEstimate(value, exact=False, converged=converged)


def norm_estimate(M, p: float, seed: int = 0, tol: float = 1e-10) -> NormEstimate:
    """Operator norm of a complex matrix on l^p.

    p = 1 is the exact maximum column absolute sum of the whole of M, with
    ``np.hypot`` as the modulus, whose sums numpy adds pairwise when M is not
    C-ordered (``M[:, perm]``, say), so a split into components could change
    the last bit.  Otherwise the norm is the maximum over the connected
    components of M's nonzero pattern (the bipartite graph joining row i to
    column j where M[i, j] != 0; M is block-diagonal in them up to a
    permutation), each component's norm as ``_component_norm`` gives it.
    ``converged`` is the AND over the iterated components, True when there
    are none.  Raises ValueError when M is not 2-D, EmptyMatrix when it is
    empty and FloatRange when it has an infinite or NaN entry.  The reference
    for a whole matrix: no production route calls it.
    """
    p = _check_args(p, seed, tol)
    M = _finite_matrix(M)
    if p == 1.0:
        norms = [(float(np.hypot(M.real, M.imag).sum(axis=0).max()), True)]
    else:
        rows, cols = np.nonzero(M)
        entries = zip(rows.tolist(), cols.tolist(), M[rows, cols].tolist())
        norms = (_component_norm(*C, p, seed, tol) for C in _components(entries, int))
    return _max_norm(norms, p)


def element_norm_estimate(x: Element, p: float, seed: int = 0, tol: float = 1e-10) -> NormEstimate:
    """Norm of an element of a finite acyclic algebra: the maximum over the
    sink blocks of its spatial image.

    No sink block is built and the paths into the sinks are not listed: the
    components of the blocks' nonzero pattern come straight from the
    expanded terms, each in its block's own row and column order, and each
    gives its norm as in ``norm_estimate``, so the value equals
    ``norm_estimate``'s maximum over the blocks, bit for bit.  Raises
    BudgetExceeded, at every p, when a component would hold more than
    ``matricial.BLOCK_BUDGET`` entries, and FloatRange when the norm is not
    a finite double: the computation overflowed somewhere (in the power
    iteration, |y|^p can overflow even when the norm itself is a double),
    and the value would be a false bound.
    """
    p = _check_args(p, seed, tol)
    components = _components(_float_terms(acyclic_expansion(x)), _block_order)
    size, budget = max((m * n for m, n, _ in components), default=0), matricial.BLOCK_BUDGET
    if size > budget:
        raise BudgetExceeded(f"a component would hold {size} entries, over the budget of {budget}")
    est = _max_norm((_component_norm(*C, p, seed, tol) for C in components), p)
    if not x.graph.vertices:
        # only the empty graph has no sink block
        return NormEstimate(0.0, exact=True)
    if not math.isfinite(est.value):
        raise FloatRange(
            f"the l^{p:g} norm computation of a block overflowed a double (estimate {est.value})"
        )
    return est


# ---------------------------------------------------------------------------
# quadrature check of the degree projections
# ---------------------------------------------------------------------------


def degree_component_quadrature_error(x: Element, n: int) -> float:
    """Deviation between circle-averaged gauge rotations and the symbolic
    degree-n component, over the expanded terms a·b*, whose degree-n ones
    are the component's: the gauge action rotates a·b*'s entry by
    z^(|a| - |b|), so the rectangle rule on twice the minimum 2·maxdeg+1
    nodes, more when |n| exceeds maxdeg, integrates it exactly.  At each node
    the rotation is exponentiated once per distinct degree.  Raises
    BudgetExceeded, before anything is built, above ``QUADRATURE_NODES``
    nodes or ``matricial.EXPANSION_BUDGET`` terms, and before the node loop
    above ``QUADRATURE_UPDATES`` nodes × terms.  Overflow gives inf or NaN.
    """
    maxdeg = max((abs(d) for d in x.degrees()), default=0)
    K = 2 * (2 * max(maxdeg, abs(n)) + 1)
    if K > QUADRATURE_NODES:
        raise BudgetExceeded(f"the quadrature would take {K} nodes, over the budget of {QUADRATURE_NODES}")
    expansion = acyclic_expansion(x)
    if K * len(expansion) > QUADRATURE_UPDATES:
        raise BudgetExceeded(
            f"the quadrature would take {K} nodes × {len(expansion)} terms = "
            f"{K * len(expansion)} updates, over the budget of {QUADRATURE_UPDATES}"
        )
    terms = _float_terms(expansion)
    degs = np.array([a.length - b.length for a, b, _ in terms], dtype=int)
    vals = np.array([z for _, _, z in terms], dtype=np.complex128)
    sym = np.where(degs == n, vals, 0)
    distinct, which = np.unique(degs, return_inverse=True)
    thetas = 2.0 * np.pi * np.arange(K) / K
    acc = np.zeros_like(vals)
    for theta in thetas:
        acc += np.exp(-1j * n * theta) * (np.exp(1j * theta * distinct)[which] * vals)
    acc /= K
    return float(np.abs(acc - sym).max(initial=0.0))
