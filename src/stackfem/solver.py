"""Sparse symmetric linear algebra: preconditioned conjugate gradients and
extreme-eigenvalue estimation for condition number studies."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

__all__ = [
    "CsrMatrix",
    "SolveReport",
    "NotSPDError",
    "EigenEstimationError",
    "cg_solve",
    "extreme_eigs",
    "condition_number",
]

DEFAULT_SEED = 42
# An SPD matrix has pivot_j >= lambda_min and A_jj <= lambda_max, so every
# pivot_j / A_jj >= 1 / kappa. A smaller ratio is the rounding residue of a
# singular matrix; the assembled systems stay far below kappa = 1e10.
PIVOT_RTOL = 1e-10
# ARPACK stops when a Ritz pair (theta, x) of its operator (A, or A^-1 in
# shift-invert mode) has ||OP x - theta x|| <= ARPACK_TOL |theta|. For a
# symmetric OP an eigenvalue lies within that residual of theta, so each
# extreme eigenvalue is within ARPACK_TOL relative, and kappa within about
# twice that, of its converged value.
ARPACK_TOL = 1e-10
# Lanczos basis sizes. Shift-invert separates lambda_min widely, so 8 vectors
# take 13 solves on config I at k = 5 and 7. For lambda_max, 12 vectors take
# the matvecs of scipy's default 20 at k = 7 (91) and 6 more at k = 6, and
# ARPACK's own work per restart falls with the basis (see README).
LAMBDA_MIN_NCV = 8
LAMBDA_MAX_NCV = 12


class NotSPDError(RuntimeError):
    """Raised when a matrix that must be SPD is not: CG meets a direction of
    nonpositive curvature, or symmetric LU a pivot <= PIVOT_RTOL * A_jj.

    The message is "<reason> at <site>". `dof` is the index of the dof at
    fault in the matrix that was checked (None if no dof is named), and the
    site defaults to "dof <dof>"; a caller that knows where that dof lives
    restates the error with its own site.
    """

    def __init__(self, reason: str, dof: int | None = None, site: str | None = None):
        super().__init__(reason if dof is None else f"{reason} at {site or f'dof {dof}'}")
        self.reason, self.dof = reason, dof


class EigenEstimationError(RuntimeError):
    """Raised when the eigenvalue iteration does not converge."""


@dataclass
class CsrMatrix:
    """Symmetric sparse matrix in compressed sparse row form."""

    csr: sparse.csr_matrix

    def __init__(self, csr):
        mat = sparse.csr_matrix(csr)
        mat.sum_duplicates()
        mat.sort_indices()
        self.csr = mat

    @classmethod
    def from_triplets(cls, rows, cols, vals, dim: int) -> "CsrMatrix":
        coo = sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
        return cls(coo.tocsr())

    @property
    def dim(self) -> int:
        return self.csr.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.csr @ x

    def diagonal(self) -> np.ndarray:
        return self.csr.diagonal()

    def max_abs(self) -> float:
        return float(np.abs(self.csr.data).max()) if self.csr.nnz else 0.0


@dataclass
class SolveReport:
    """How a CG run went. `alphas[s]` and `betas[s]` are the step sizes
    alpha_j = r_j'z_j / p_j'Ap_j and beta_j = r_{j+1}'z_{j+1} / r_j'z_j of
    Lanczos segment s: a restart from the true residual begins a new one.
    A segment of m steps gives the Lanczos tridiagonal T of D^-1 A with
    T_00 = 1/alpha_0, T_jj = 1/alpha_j + beta_{j-1}/alpha_{j-1} and
    T_j,j+1 = sqrt(beta_j)/alpha_j for j < m - 1; the extreme eigenvalues of
    T estimate those of D^-1/2 A D^-1/2 at no extra matrix-vector product."""

    iterations: int
    relative_residual: float
    converged: bool
    residual_history: np.ndarray | None = None
    alphas: list[np.ndarray] = field(default_factory=list)
    betas: list[np.ndarray] = field(default_factory=list)


def cg_solve(
    A: CsrMatrix,
    b: np.ndarray,
    tol: float = 1e-10,
    maxit: int | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Jacobi-preconditioned conjugate gradients for SPD systems, from x = 0.

    Stops when the true residual satisfies ||b - Ax|| <= tol * ||b||.
    Raises ValueError, naming the first dof at fault, on a non-finite entry
    of b or A, and NotSPDError on a nonpositive-curvature direction, which
    flags an indefinite (or unpinned) system.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    n = A.dim
    if maxit is None:
        maxit = max(10 * n, 100)
    b = np.asarray(b, dtype=float)
    bad = np.flatnonzero(~np.isfinite(b))
    if len(bad):
        raise ValueError(f"right-hand side entry {b[bad[0]]} at dof {bad[0]} is not finite")
    bad = np.flatnonzero(~np.isfinite(A.csr.data))
    if len(bad):
        dof = int(np.searchsorted(A.csr.indptr, bad[0], side="right")) - 1
        raise ValueError(f"matrix entry {A.csr.data[bad[0]]} in the row of dof {dof} is not finite")
    normb = float(np.linalg.norm(b))
    if normb == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True, np.zeros(1))
    diag = A.diagonal()
    if np.any(diag <= 0):
        bad = int(np.argmin(diag))
        raise NotSPDError(f"nonpositive diagonal entry {diag[bad]:.3e}", bad)
    inv_diag = 1.0 / diag
    x = np.zeros(n)
    r = b - A.matvec(x)
    z = inv_diag * r
    p = z.copy()
    tmp = np.empty(n)  # alpha * p, then alpha * Ap
    rz = float(np.dot(r, z))
    history = [float(np.sqrt(rz))]
    alphas, betas = [[]], [[]]
    k = 0
    while k < maxit:
        if np.linalg.norm(r) <= tol * normb:
            # the recursive residual drifts from the true one near the
            # tolerance floor: verify, and restart the recursion if needed
            r_true = b - A.matvec(x)
            if np.linalg.norm(r_true) <= tol * normb:
                break
            r = r_true
            np.multiply(inv_diag, r, out=z)
            p = z.copy()
            rz = float(np.dot(r, z))
            alphas.append([])
            betas.append([])
        Ap = A.matvec(p)
        pAp = float(np.dot(p, Ap))
        if pAp <= 0.0:
            j = int(np.argmax(np.abs(p)))
            raise NotSPDError(f"negative curvature p'Ap = {pAp:.3e} in direction peaking", j)
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, Ap, out=tmp)
        np.multiply(inv_diag, r, out=z)
        rz_new = float(np.dot(r, z))
        beta = rz_new / rz
        p *= beta
        p += z
        rz = rz_new
        history.append(float(np.sqrt(max(rz, 0.0))))
        alphas[-1].append(alpha)
        betas[-1].append(beta)
        k += 1
    true_res = float(np.linalg.norm(b - A.matvec(x)) / normb)
    return x, SolveReport(k, true_res, true_res <= tol, np.array(history),
                          [np.array(seg) for seg in alphas], [np.array(seg) for seg in betas])


def _first_bad_pivot(lu, diag: np.ndarray) -> int | None:
    """Dof at the first pivot off the diagonal or <= PIVOT_RTOL * A_jj, if any."""
    order = np.argsort(lu.perm_c)  # order[j] is the dof eliminated at step j
    small = lu.U.diagonal() <= PIVOT_RTOL * np.abs(diag[order])
    bad = (np.argsort(lu.perm_r) != order) | small
    return int(order[np.argmax(bad)]) if bad.any() else None


def _spd_factor(A: CsrMatrix):
    """LU factor of A, or NotSPDError naming the dof at the first bad pivot.
    Symmetric elimination meets only positive pivots exactly when A is SPD; at
    a zero pivot threshold SuperLU swaps rows only at an exactly zero pivot."""
    from scipy.sparse.linalg import splu

    def factor(csr):
        return splu(csr.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})

    try:
        lu = factor(A.csr)
    except RuntimeError:  # SuperLU stops at an exactly zero pivot
        # a slight negative shift turns that pivot negative, which locates it
        shifted = A.csr - 1e-12 * (A.max_abs() or 1.0) * sparse.identity(A.dim, format="csr")
        dof = _first_bad_pivot(factor(shifted), shifted.diagonal())
        raise NotSPDError("singular matrix: zero pivot", dof) from None
    dof = _first_bad_pivot(lu, A.diagonal())
    if dof is not None:
        raise NotSPDError(f"not positive definite: pivot <= {PIVOT_RTOL:g} times its "
                          "diagonal entry", dof)
    return lu


def extreme_eigs(A: CsrMatrix, seed: int = DEFAULT_SEED) -> tuple[float, float]:
    """(lambda_max, lambda_min) of an SPD matrix; NotSPDError otherwise.

    One thread, in sequence: `_spd_factor` factors A, which proves it SPD, so
    a rejected matrix raises before any eigenvalue iteration; ARPACK finds
    lambda_min in shift-invert mode at sigma = 0 on that factor with a
    LAMBDA_MIN_NCV-vector basis; the factor is dropped; ARPACK finds
    lambda_max on A with a LAMBDA_MAX_NCV-vector basis. So the L+U factor and
    the lambda_max basis are never alive together. Both stop at relative
    residual ARPACK_TOL, and the seed sets both start vectors.
    """
    # imported here so that runs without eigenvalues skip its ~10 MB and 0.15 s
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = A.dim
    if n == 1:  # ARPACK needs k < n
        _spd_factor(A)
        return float(A.csr[0, 0]), float(A.csr[0, 0])
    rng = np.random.default_rng(seed)
    v_max, v_min = rng.standard_normal(n), rng.standard_normal(n)
    inverse = LinearOperator((n, n), matvec=_spd_factor(A).solve, dtype=float)
    try:
        lam_min = eigsh(A.csr, k=1, sigma=0.0, which="LM", OPinv=inverse, v0=v_min,
                        tol=ARPACK_TOL, ncv=min(LAMBDA_MIN_NCV, n),
                        return_eigenvectors=False)[0]
        del inverse  # the last reference to the factor
        lam_max = eigsh(A.csr, k=1, which="LA", v0=v_max, tol=ARPACK_TOL,
                        ncv=min(LAMBDA_MAX_NCV, n), return_eigenvectors=False)[0]
    except ArpackNoConvergence as exc:
        raise EigenEstimationError(f"ARPACK did not converge: {exc}") from exc
    return float(lam_max), float(lam_min)


def condition_number(A: CsrMatrix, seed: int = DEFAULT_SEED) -> float:
    """Spectral condition number lambda_max / lambda_min of an SPD matrix."""
    lam_max, lam_min = extreme_eigs(A, seed=seed)
    if lam_min <= 0:
        raise NotSPDError(f"estimated lambda_min = {lam_min:.3e} is not positive")
    return lam_max / lam_min
