"""Sparse symmetric linear algebra: preconditioned conjugate gradients and
extreme-eigenvalue estimation for condition number studies."""
from __future__ import annotations

from dataclasses import dataclass

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


class NotSPDError(RuntimeError):
    """Raised when a matrix that must be SPD is not: CG meets a direction of
    nonpositive curvature, or symmetric LU a pivot <= PIVOT_RTOL * A_jj."""


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

    def symmetry_defect(self) -> float:
        """max |A - A^T| entrywise; 0 for exactly symmetric matrices."""
        d = self.csr - self.csr.T
        return float(np.abs(d.data).max()) if d.nnz else 0.0

    def max_abs(self) -> float:
        return float(np.abs(self.csr.data).max()) if self.csr.nnz else 0.0

    def todense(self) -> np.ndarray:
        return self.csr.toarray()


@dataclass
class SolveReport:
    iterations: int
    relative_residual: float
    converged: bool
    residual_history: np.ndarray | None = None


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
    if tol <= 0:
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
        raise NotSPDError(f"nonpositive diagonal entry {diag[bad]:.3e} at dof {bad}")
    inv_diag = 1.0 / diag
    x = np.zeros(n)
    r = b - A.matvec(x)
    z = inv_diag * r
    p = z.copy()
    tmp = np.empty(n)  # alpha * p, then alpha * Ap
    rz = float(np.dot(r, z))
    history = [float(np.sqrt(rz))]
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
        Ap = A.matvec(p)
        pAp = float(np.dot(p, Ap))
        if pAp <= 0.0:
            j = int(np.argmax(np.abs(p)))
            raise NotSPDError(
                f"negative curvature p'Ap = {pAp:.3e} in direction peaking at dof {j}"
            )
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, Ap, out=tmp)
        np.multiply(inv_diag, r, out=z)
        rz_new = float(np.dot(r, z))
        p *= rz_new / rz
        p += z
        rz = rz_new
        history.append(float(np.sqrt(max(rz, 0.0))))
        k += 1
    true_res = float(np.linalg.norm(b - A.matvec(x)) / normb)
    return x, SolveReport(k, true_res, true_res <= tol, np.array(history))


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
        raise NotSPDError(f"singular matrix: zero pivot at dof {dof}") from None
    dof = _first_bad_pivot(lu, A.diagonal())
    if dof is not None:
        raise NotSPDError(f"not positive definite: pivot at dof {dof} is <= "
                          f"{PIVOT_RTOL:g} times its diagonal entry")
    return lu


def extreme_eigs(A: CsrMatrix, seed: int = DEFAULT_SEED) -> tuple[float, float]:
    """(lambda_max, lambda_min) of an SPD matrix; NotSPDError otherwise.

    Both come from ARPACK, stopped at relative residual ARPACK_TOL. lambda_max
    runs on a helper thread while this thread factors A, which proves it SPD,
    and finds lambda_min in shift-invert mode at sigma = 0 on that factor.
    SuperLU and ARPACK release the GIL and keep their state per call, so the
    two overlap and give the results of a sequential run; the helper calls
    scipy only. A failed factor raises only after lambda_max has stopped, and
    its result is dropped. The seed sets both start vectors.
    """
    from concurrent.futures import ThreadPoolExecutor

    # imported here so that runs without eigenvalues skip its ~10 MB and 0.15 s
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = A.dim
    if n == 1:  # ARPACK needs k < n
        _spd_factor(A)
        return float(A.csr[0, 0]), float(A.csr[0, 0])
    rng = np.random.default_rng(seed)
    v_max, v_min = rng.standard_normal(n), rng.standard_normal(n)
    try:
        with ThreadPoolExecutor(max_workers=1) as helper:
            upper = helper.submit(eigsh, A.csr, k=1, which="LA", v0=v_max, tol=ARPACK_TOL,
                                  return_eigenvectors=False)
            inverse = LinearOperator((n, n), matvec=_spd_factor(A).solve, dtype=float)
            # 8 Lanczos vectors suffice: shift-invert separates lambda_min widely
            lam_min = eigsh(A.csr, k=1, sigma=0.0, which="LM", OPinv=inverse, v0=v_min,
                            tol=ARPACK_TOL, ncv=min(8, n), return_eigenvectors=False)[0]
            lam_max = upper.result()[0]
    except ArpackNoConvergence as exc:
        raise EigenEstimationError(f"ARPACK did not converge: {exc}") from exc
    return float(lam_max), float(lam_min)


def condition_number(A: CsrMatrix, seed: int = DEFAULT_SEED) -> float:
    """Spectral condition number lambda_max / lambda_min of an SPD matrix."""
    lam_max, lam_min = extreme_eigs(A, seed=seed)
    if lam_min <= 0:
        raise NotSPDError(f"estimated lambda_min = {lam_min:.3e} is not positive")
    return lam_max / lam_min
