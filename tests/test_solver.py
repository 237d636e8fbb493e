import re
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

import loop_reference as ref
from conftest import config_I, nan_in_cut_pieces, single_config
from stackfem.assembly import (
    FormParams,
    apply_dirichlet,
    assemble_load,
    assemble_system,
    build_dirichlet,
)
from stackfem import solver
from stackfem.cli import run_condition_study, standard_predomains
from stackfem.multimesh import build_cut_topology
from stackfem.solver import (
    DEFAULT_SEED,
    CsrMatrix,
    EigenEstimationError,
    NotSPDError,
    cg_solve,
    condition_number,
    extreme_eigs,
)


def _csr(dense) -> CsrMatrix:
    return CsrMatrix(sparse.csr_matrix(np.asarray(dense, dtype=float)))


def _random_spd(rng, n) -> CsrMatrix:
    B = rng.standard_normal((n, n))
    return _csr(B @ B.T + n * np.eye(n))


def _reduced_poisson(config) -> CsrMatrix:
    """Dirichlet-reduced P1 matrix, built the way the condition study does."""
    params = FormParams.defaults(1)
    topo = build_cut_topology(config, params.quad_order)
    system = assemble_system(topo, params)
    load = assemble_load(topo, lambda x, y: np.ones_like(x), params)
    bc = build_dirichlet(topo, lambda x, y: np.zeros_like(x))
    return apply_dirichlet(system, load, bc, topo).matrix


# (matrix, dof the first bad pivot may be reported at)
NOT_SPD = {
    # eigenvalues 0.1, -1, 11: the eigenvalue nearest 0 is positive
    "indefinite-positive-diagonal": ([[0.1, 0.0, 0.0], [0.0, 5.0, 6.0], [0.0, 6.0, 5.0]], {1, 2}),
    "diag(1,-1)": (np.diag([1.0, -1.0]), {1}),
    "diag(-5,0.1,3,10)": (np.diag([-5.0, 0.1, 3.0, 10.0]), {0}),
    # path graph Laplacian: PSD with the constants as null space
    "singular-psd": ([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]], {0, 1, 2}),
    "1x1-zero": ([[0.0]], {0}),
}


@pytest.fixture
def threads_stay():
    """Fails the test if it leaves a thread running, such as the helper
    thread that `extreme_eigs` estimates lambda_max on."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


class TestCG:
    def test_identity_one_iteration(self, rng):
        b = rng.standard_normal(7)
        x, rep = cg_solve(_csr(np.eye(7)), b, tol=1e-14)
        assert np.allclose(x, b, atol=1e-14)
        assert rep.iterations == 1
        assert rep.converged

    def test_small_closed_form(self):
        x, rep = cg_solve(_csr([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, 1.0]), tol=1e-14)
        assert np.allclose(x, [1 / 3, 1 / 3], atol=1e-13)
        assert rep.converged

    def test_indefinite_raises(self):
        A = _csr([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NotSPDError):
            cg_solve(A, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_rejects_nonpositive_tol(self, tol):
        # NaN fails every comparison; it must not reach the iteration
        with pytest.raises(ValueError, match="tol must be positive"):
            cg_solve(_csr([[2.0, 0.0], [0.0, 3.0]]), np.array([1.0, 1.0]), tol=tol)

    def test_zero_rhs(self):
        x, rep = cg_solve(_csr(np.eye(3)), np.zeros(3))
        assert np.all(x == 0) and rep.converged and rep.iterations == 0

    def test_converges_within_3n(self, rng):
        for n in (5, 17, 50):
            A = _random_spd(rng, n)
            b = rng.standard_normal(n)
            x, rep = cg_solve(A, b, tol=1e-12, maxit=3 * n)
            assert rep.converged, f"n={n}: residual {rep.relative_residual}"
            assert rep.iterations <= 3 * n

    def test_preconditioned_residual_monotone(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 40))
            A = _random_spd(rng, n)
            b = rng.standard_normal(n)
            _, rep = cg_solve(A, b, tol=1e-12)
            h = rep.residual_history
            assert np.all(h[1:] <= h[:-1] * (1.0 + 1e-8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rhs_names_first_dof(self, bad):
        b = np.ones(5)
        b[[2, 4]] = bad
        with pytest.raises(ValueError, match=f"right-hand side entry {bad} at dof 2 is not finite"):
            cg_solve(_csr(np.eye(5)), b)

    @pytest.mark.parametrize("entries", [[(2, 2)], [(2, 3), (3, 2)]])
    def test_nonfinite_matrix_entry_names_its_row(self, entries):
        dense = np.eye(4)
        dense[tuple(np.transpose(entries))] = np.nan
        with pytest.raises(ValueError, match="matrix entry nan in the row of dof 2 is not finite"):
            cg_solve(_csr(dense), np.ones(4))

    @pytest.mark.parametrize("nan_where, in_cut_cell", [
        (lambda topo: lambda x, y: np.where(x > 0.7, np.nan, 1.0), False),
        (nan_in_cut_pieces, True),
    ], ids=["x-above-0.7", "cut-pieces-only"])
    def test_nan_load_raises_before_iterating(self, monkeypatch, nan_where, in_cut_cell):
        from stackfem.cli import solve_poisson

        params = FormParams.defaults(1)
        config = config_I()
        topo = build_cut_topology(config)
        f = nan_where(topo)
        zero = lambda x, y: np.zeros_like(x)
        matvecs = []

        def counted(A, x):
            matvecs.append(1)
            return A.csr @ x

        monkeypatch.setattr(CsrMatrix, "matvec", counted)
        with pytest.raises(ValueError, match=r"^load f is nan at \(") as exc:
            solve_poisson(config, params, f, zero)
        assert matvecs == []
        # the message names a point where f is NaN, inside the cell and part it names
        x, y, cell, part = re.fullmatch(
            r"load f is nan at \((\S+), (\S+)\) in cell (\d+) of part (\d+)", str(exc.value)
        ).groups()
        point = np.array([float(x), float(y)])
        assert np.isnan(f(point[:1], point[1:])).all()
        mesh = config.parts[int(part)].mesh
        a, b, c = mesh.nodes[mesh.cells[int(cell)]]
        lam = np.linalg.solve(np.column_stack([b - a, c - a]), point - a)
        assert lam.min() >= -1e-12 and lam.sum() <= 1.0 + 1e-12
        # uncut cells and cut pieces are checked on their own branches
        assert (int(cell) in topo.cut_cells[int(part)]) == in_cut_cell


def _cg_systems():
    """The reduced systems of config II at k = 4 and of the obstacle demo at k = 0."""
    from stackfem.cli import build_stack, run_boundary_layer, solve_poisson, standard_predomains

    u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    f = lambda x, y: 2 * np.pi ** 2 * u(x, y)
    config = build_stack(standard_predomains("II"), [4] * 3, 1)
    return {"II-k4": solve_poisson(config, FormParams.defaults(1), f, u).reduced,
            "boundary-layer-k0": run_boundary_layer(0).solve.reduced}


@pytest.mark.parametrize("tol, maxit, restarts", [(1e-10, None, False), (1e-15, 300, True)],
                         ids=["default", "restarting"])
def test_cg_reusing_buffers_matches_allocating_loop_bitwise(tol, maxit, restarts):
    """The loop that updates its vectors in place gives the bits of the loop
    that allocates: x, the iteration count and the residual history. At tol
    1e-15 config II keeps restarting from the true residual."""
    for name, system in _cg_systems().items():
        A, b = system.matrix, system.rhs
        x, rep = cg_solve(A, b, tol=tol, maxit=maxit)
        x_ref, iterations, history = ref.cg_solve(A, b, tol=tol, maxit=maxit)
        assert np.array_equal(x, x_ref), name
        assert rep.iterations == iterations, name
        assert np.array_equal(rep.residual_history, history), name
        if restarts and name == "II-k4":
            # each restart adds a matvec to the one per iteration, the first
            # residual and the final check
            calls = []
            matvec = A.matvec

            def counted(v):
                calls.append(1)
                return matvec(v)

            A.matvec = counted
            cg_solve(A, b, tol=tol, maxit=maxit)
            assert len(calls) > rep.iterations + 2


class TestExtremeEigs:
    def test_diagonal(self):
        lam_max, lam_min = extreme_eigs(_csr(np.diag([1.0, 4.0])))
        assert lam_max == pytest.approx(4.0, rel=1e-6)
        assert lam_min == pytest.approx(1.0, rel=1e-4)

    def test_tridiagonal_closed_form(self):
        n = 40
        A = _csr(np.diag(2.0 * np.ones(n)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1))
        lam_max, lam_min = extreme_eigs(A)
        exact_max = 2.0 + 2.0 * np.cos(np.pi / (n + 1))
        exact_min = 2.0 - 2.0 * np.cos(np.pi / (n + 1))
        assert lam_max == pytest.approx(exact_max, rel=1e-4)
        assert lam_min == pytest.approx(exact_min, rel=1e-4)

    def test_rayleigh_quotient_bounds(self, rng):
        A = _random_spd(rng, 30)
        lam_max, lam_min = extreme_eigs(A)
        for _ in range(100):
            v = rng.standard_normal(30)
            rq = float(v @ A.matvec(v) / (v @ v))
            assert lam_min - 1e-8 <= rq * (1 + 1e-6) and rq <= lam_max * (1 + 1e-6) + 1e-8

    def test_matches_dense_oracle(self, rng):
        # separated spectrum, as FEM stiffness matrices have at the bottom
        evals = np.concatenate([[1.0, 2.5], rng.uniform(4.0, 80.0, 58)])
        Q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        A = _csr(Q @ np.diag(evals) @ Q.T)
        w = np.linalg.eigvalsh(A.todense())
        lam_max, lam_min = extreme_eigs(A)
        assert lam_max == pytest.approx(w[-1], rel=1e-5)
        assert lam_min == pytest.approx(w[0], rel=1e-4)

    def test_one_by_one(self):
        assert extreme_eigs(_csr([[3.0]])) == (3.0, 3.0)

    @pytest.mark.parametrize("estimate", [extreme_eigs, condition_number])
    @pytest.mark.parametrize("name", sorted(NOT_SPD))
    def test_not_spd_raises_naming_dof(self, name, estimate, threads_stay):
        dense, dofs = NOT_SPD[name]
        with pytest.raises(NotSPDError) as info:
            estimate(_csr(dense))
        dof = re.search(r"at dof (\d+)", str(info.value))
        assert dof and int(dof.group(1)) in dofs

    def test_rank_deficient_gram_raises(self, rng):
        # singular in exact arithmetic; rounding may leave tiny positive pivots
        for _ in range(20):
            n = int(rng.integers(4, 80))
            B = rng.standard_normal((n, n - 1))
            with pytest.raises(NotSPDError, match="at dof"):
                extreme_eigs(_csr(B @ B.T))

    def test_unreduced_system_raises(self):
        # without Dirichlet rows the stiffness matrix has the constants in its kernel
        params = FormParams.defaults(1)
        system = assemble_system(build_cut_topology(config_I(), params.quad_order), params)
        with pytest.raises(NotSPDError, match="at dof"):
            extreme_eigs(system.matrix)


class _CountedFactor:
    """Stands in for the SuperLU factor and counts the solves made with it."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


def _converged_kappa(A: CsrMatrix, seed: int = DEFAULT_SEED) -> float:
    """kappa with ARPACK run to machine precision (tol=0) at its default basis
    size, both extremes one after the other on the same factor and start
    vectors as `extreme_eigs`."""
    n = A.dim
    rng = np.random.default_rng(seed)
    v_max, v_min = rng.standard_normal(n), rng.standard_normal(n)
    lam_max = sparse_linalg.eigsh(A.csr, k=1, which="LA", v0=v_max, tol=0,
                                  return_eigenvectors=False)[0]
    inverse = sparse_linalg.LinearOperator((n, n), matvec=solver._spd_factor(A).solve,
                                           dtype=float)
    lam_min = sparse_linalg.eigsh(A.csr, k=1, sigma=0.0, which="LM", OPinv=inverse,
                                  v0=v_min, tol=0, return_eigenvectors=False)[0]
    return float(lam_max / lam_min)


class TestEigenSolverBudget:
    """ARPACK stops at ARPACK_TOL, and lambda_min uses a short basis."""

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_config_I_matches_converged_arpack(self, k):
        A = _reduced_poisson(config_I((k, k, k)))
        assert condition_number(A) == pytest.approx(_converged_kappa(A), rel=1e-12, abs=0)

    def test_lambda_min_solve_count(self, monkeypatch):
        A = _reduced_poisson(config_I((5, 5, 5)))
        factors = []
        spd_factor = solver._spd_factor

        def counted(matrix):
            factors.append(_CountedFactor(spd_factor(matrix)))
            return factors[-1]

        monkeypatch.setattr(solver, "_spd_factor", counted)
        extreme_eigs(A)
        assert len(factors) == 1 and 0 < factors[0].solves <= 13


class TestHelperThread:
    """lambda_max runs on a helper thread beside the factor and lambda_min;
    failures surface as before, and no thread outlives the call."""

    def test_indefinite_raises_naming_dof(self, threads_stay):
        # a large indefinite matrix keeps lambda_max busy while the factor fails
        n = 400
        diag = np.linspace(1.0, 50.0, n)
        diag[137] = -2.0
        A = _csr(np.diag(diag) + 0.1 * np.diag(np.ones(n - 1), 1) + 0.1 * np.diag(np.ones(n - 1), -1))
        with pytest.raises(NotSPDError, match="at dof 137"):
            extreme_eigs(A)

    def test_unconverged_lambda_max_raises(self, rng, monkeypatch, threads_stay):
        eigsh = sparse_linalg.eigsh

        def eigsh_failing_la(*args, **kwargs):
            if kwargs.get("which") == "LA":
                raise sparse_linalg.ArpackNoConvergence("no convergence", np.empty(0),
                                                        np.empty((0, 0)))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(sparse_linalg, "eigsh", eigsh_failing_la)
        with pytest.raises(EigenEstimationError, match="ARPACK did not converge"):
            extreme_eigs(_random_spd(rng, 30))

    def test_spd_leaves_no_thread(self, rng, threads_stay):
        lam_max, lam_min = extreme_eigs(_random_spd(rng, 30))
        assert lam_max > lam_min > 0


class TestDeterminism:
    @pytest.mark.filterwarnings("ignore:target_h exceeds rectangle extent")
    def test_condition_study_repeats_bitwise(self):
        pre = standard_predomains("I")
        first = run_condition_study(pre, [2, 3, 4, 5], 1)
        second = run_condition_study(pre, [2, 3, 4, 5], 1)
        assert np.array_equal(np.array(first[0]), np.array(second[0]))
        assert np.array_equal(first[1], second[1], equal_nan=True)

    def test_concurrent_calls_match_sequential(self):
        mats = [_reduced_poisson(config_I((k, k, k))) for k in (3, 4, 5)]
        sequential = [extreme_eigs(A) for A in mats]
        with ThreadPoolExecutor(max_workers=3) as pool:
            concurrent = list(pool.map(extreme_eigs, mats))
        assert concurrent == sequential


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(_csr(np.eye(5))) == pytest.approx(1.0, rel=1e-6)

    def test_diagonal(self):
        assert condition_number(_csr(np.diag([1.0, 100.0]))) == pytest.approx(100.0, rel=1e-3)

    @pytest.mark.parametrize("seed", [13, 42])
    def test_config_I_matches_dense(self, seed):
        # a Lanczos stop on two agreeing but unconverged Ritz values once gave
        # lambda_max 1.1e-3 short here at seed 13
        A = _reduced_poisson(config_I((5, 5, 5)))
        w = np.linalg.eigvalsh(A.todense())
        assert condition_number(A, seed=seed) == pytest.approx(w[-1] / w[0], rel=1e-8)

    def test_poisson_h_scaling(self):
        # halving h on the unit square quadruples the condition number
        # (frozen from the dense-eigenvalue oracle: 25.27 -> 103.09)
        kappas = [condition_number(_reduced_poisson(single_config(k))) for k in (3, 4)]
        assert kappas[0] == pytest.approx(25.274, rel=1e-2)
        assert kappas[1] == pytest.approx(103.087, rel=1e-2)
        assert 3.2 <= kappas[1] / kappas[0] <= 4.8


class TestCsrMatrix:
    def test_triplet_duplicates_summed(self):
        A = CsrMatrix.from_triplets([0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0], dim=2)
        assert np.allclose(A.todense(), [[3.0, 0.0], [0.0, 5.0]])

    def test_fields(self):
        A = CsrMatrix.from_triplets([0, 1, 1], [1, 0, 1], [2.0, 2.0, 1.0], dim=2)
        assert A.dim == 2
        assert A.csr.indptr.tolist() == [0, 1, 3]
        assert A.csr.indices.tolist() == [1, 0, 1]
        assert A.symmetry_defect() == 0.0
        assert A.max_abs() == 2.0
