"""Numeric l^p kernels: spatial matrix images of acyclic algebras, operator
norms on l^p, and circle-quadrature validation of the degree projections.

The float blocks are filled straight from the matricial module's expansion
of an element into matrix units, each exact coefficient rounded once to a
complex double, within a budget on the number of block entries.  The
l^p -> l^p operator norm is the maximum over the connected components of
the nonzero pattern, at every p, since a block-diagonal matrix's norm is
its blocks' largest.  One builder finds the components, of a dense matrix
or straight from an element's expanded terms with no dense block, and one
routine gives each component's norm: at p = 1 its exact largest column
sum; otherwise a 1×1 component [c] gives |c|, a single row its l^q norm
(q = p/(p-1)) and a single column its l^p norm (Hölder), another component
its largest singular value at p = 2 and otherwise a certified lower bound
from a nonlinear power iteration with restarts.  A dense matrix keeps its
whole column sums at p = 1.  The restarts run as one stacked iteration
over a (restarts, n) array, each row doing the arithmetic of a lone
restart bit for bit.  A matrix with an infinite or NaN entry has no norm
here: every kernel refuses it with FloatRange.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from typing import NamedTuple, Optional

from .errors import EmptyMatrix, FloatRange
from .graph import Graph, Path
from .lpa import Element, GaussianRational, Monomial, degree_component
from .matricial import acyclic_expansion, paths_into_by_sink

P_MIN, P_MAX = 1.0, 8.0
# seeded random starts of the power iteration, and its steps per start
RESTARTS, MAX_ITER = 8, 200


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
    """Per-sink complex float matrices indexed by the paths into each sink."""

    blocks: dict[str, np.ndarray]
    paths: dict[str, tuple[Path, ...]]


def spatial_rep_acyclic(g: Graph, x: Element) -> SpatialMatrix:
    """Float image of the acyclic block decomposition: each expanded monomial
    a·b* puts its coefficient, as a complex double, at (a, b) of the block of
    the sink both paths end at; every other entry is zero.

    Raises BudgetExceeded when the blocks would hold more than
    ``matricial.BLOCK_BUDGET`` entries, and FloatRange when a coefficient is
    too large for a double.
    """
    terms = _float_terms(acyclic_expansion(g, x))
    paths = paths_into_by_sink(g)
    blocks = {v: np.zeros((len(ps), len(ps)), dtype=np.complex128) for v, ps in paths.items()}
    where = {p: (blocks[v], i) for v, plist in paths.items() for i, p in enumerate(plist)}
    for a, b, z in terms:
        block, i = where[a]
        block[i, where[b][1]] = z
    return SpatialMatrix(blocks, paths)


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
    """``np.linalg.norm(y, ord=p)`` of every row y of Y, to the last bit.

    numpy sums |y|^p and takes the root of that scalar; a root taken over
    the whole array can differ from the scalar one in the last bit, so it is
    taken row by row, in Python floats, with the same libm ``pow``.
    """
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
    warns no more either.
    Returns (best ratio, converged) per row.
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


def _components(entries, key) -> list[np.ndarray]:
    """The connected components of the bipartite graph joining row a to
    column b for each entry (a, b, z) whose z is nonzero, each filled as its
    own complex128 array, its rows and its columns sorted by ``key``: the
    submatrix on them, bit for bit, when ``key`` is the matrix's own order.
    Rows and columns with no nonzero entry lie in no component."""
    entries = [(a, b, z) for a, b, z in entries if z]
    # the rows, then the columns, as the nodes 0, 1, ... of a union-find
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
        row_of = {a: i for i, a in enumerate(sorted({a for a, _, _ in group}, key=key))}
        col_of = {b: j for j, b in enumerate(sorted({b for _, b, _ in group}, key=key))}
        C = np.zeros((len(row_of), len(col_of)), dtype=np.complex128)
        for a, b, z in group:
            C[row_of[a], col_of[b]] = z
        components.append(C)
    return components


def _block_order(path: Path) -> tuple:
    """A path's place among the rows (or columns) of its sink block, the
    (length, lex) order of ``paths_into_by_sink``."""
    return len(path.edges), path.edges


def _vector_norm(v: np.ndarray, r: float) -> float:
    """The l^r norm of a nonzero vector, scaled by its largest modulus before
    the power r: unscaled, |v_j|^r overflows for [3, 4] at r = 1e9 + 1, and
    for entries near 1e200 at r = 2."""
    mags = np.abs(v)
    top = mags.max()
    return float(top * np.add.reduce((mags / top) ** r) ** (1.0 / r))


def _component_norm(C: np.ndarray, p: float, seed: int, tol: float) -> tuple[float, bool]:
    """(l^p operator norm, converged) of one connected component C.

    p = 1 gives the largest column sum, added row by row.  Otherwise a 1×1
    component [c] gives |c|; by Hölder's inequality a single row c gives its
    l^q norm, q = p/(p-1), and a single column its l^p norm; any other
    component gives its largest singular value at p = 2 and the power
    iteration's lower bound at other p.  Only the power iteration can leave
    ``converged`` False.
    """
    m, n = C.shape
    if p == 1.0:
        # cumsum adds the rows in order, as sum(axis=0) does over a C-ordered
        # block; numpy sums a single column pairwise, in another order.  Even
        # a 1×1 component takes this route: numpy's |c| of an array element
        # and of a scalar can differ in the last bit
        return float(np.abs(C).cumsum(axis=0)[-1].max()), True
    if m == n == 1:
        return float(abs(C[0, 0])), True
    if m == 1:
        return _vector_norm(C[0], p / (p - 1.0)), True
    if n == 1:
        return _vector_norm(C[:, 0], p), True
    if p == 2.0:
        return float(np.linalg.norm(C, 2)), True
    est = power_iteration_lower_bound(C, p, seed=seed, tol=tol)
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

    p = 1 is the exact maximum column absolute sum of the whole of M, whose
    sums numpy adds pairwise when M is not C-ordered (``M[:, perm]``, say),
    so a split into components could change the last bit.  Otherwise the
    norm is the maximum over the connected components of M's nonzero
    pattern (the bipartite graph joining row i to column j where
    M[i, j] != 0; M is block-diagonal in them up to a permutation), each
    component's norm as ``_component_norm`` gives it.  ``converged`` is the
    AND over the iterated components, True when there are none.  Raises
    ValueError when M is not 2-D, EmptyMatrix when it is empty and
    FloatRange when it has an infinite or NaN entry.
    """
    p = _check_args(p, seed, tol)
    M = _finite_matrix(M)
    if p == 1.0:
        norms = [(float(np.abs(M).sum(axis=0).max()), True)]
    else:
        rows, cols = np.nonzero(M)
        entries = zip(rows.tolist(), cols.tolist(), M[rows, cols].tolist())
        norms = (_component_norm(C, p, seed, tol) for C in _components(entries, int))
    return _max_norm(norms, p)


def element_norm_estimate(
    g: Graph, x: Element, p: float, seed: int = 0, tol: float = 1e-10
) -> NormEstimate:
    """Norm of an element of a finite acyclic algebra: the maximum over the
    sink blocks of its spatial image.

    No dense block is built and the paths into the sinks are not listed, at
    any p: the components of the blocks' nonzero pattern come straight from
    the expanded terms, each in its block's own row and column order, and
    each gives its norm as in ``norm_estimate``, so the value equals
    ``norm_estimate``'s maximum over the blocks, bit for bit.  Raises
    FloatRange when the norm is not a finite double: the computation
    overflowed somewhere (in the power iteration, |y|^p can overflow even
    when the norm itself is a double), and the value would be a false bound.
    """
    p = _check_args(p, seed, tol)
    # an overflow is reported once, as FloatRange, not as numpy warnings too
    with np.errstate(over="ignore", invalid="ignore"):
        components = _components(_float_terms(acyclic_expansion(g, x)), _block_order)
        est = _max_norm((_component_norm(C, p, seed, tol) for C in components), p)
    if not g.vertices:
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
