import re
import warnings

import numpy as np
import pytest

import loop_reference as ref
from conftest import blocks_matrix, config_I, config_II, fit_rate, nan_in_cut_pieces, single_config
from stackfem.analysis import (
    EnergyBreakdown,
    MultimeshFunction,
    csv_header,
    csv_row,
    diagnostics,
    energy_norm,
    error_norms,
    eval_or_nan,
    global_interpolant,
)
from stackfem.assembly import (
    FormParams,
    apply_dirichlet,
    assemble_load,
    assemble_stabilization,
    assemble_system,
    build_dirichlet,
)
from stackfem.multimesh import build_cut_topology


@pytest.fixture(scope="module")
def topo_I():
    return build_cut_topology(config_I(), 2)


@pytest.fixture(scope="module")
def constrained_system():
    topo = build_cut_topology(config_I(), 2)
    params = FormParams.defaults(1)
    system = assemble_system(topo, params)
    load = assemble_load(topo, lambda x, y: np.zeros_like(x), params)
    bc = build_dirichlet(topo, lambda x, y: np.zeros_like(x))
    red = apply_dirichlet(system, load, bc, topo)
    return topo, system, red


class TestEval:
    @pytest.fixture
    def topo(self, topo_I):
        return topo_I

    def test_per_mesh_constants(self, topo):
        off = [len(p.space.dof_coords) for p in topo.parts]
        u = MultimeshFunction(
            [np.full(off[i], float(i + 1)) for i in range(3)]
        )
        got = eval_or_nan(u, topo, [(0.5, 0.5), (0.25, 0.25), (0.1, 0.1)])
        assert got == pytest.approx([3.0, 2.0, 1.0])

    def test_linear_reproduction_everywhere(self, topo, rng):
        u = global_interpolant(topo, lambda x, y: x + y)
        x = rng.uniform(0.001, 0.999, (100, 2))
        assert eval_or_nan(u, topo, x) == pytest.approx(x.sum(axis=1), abs=1e-12)

    def test_outside_is_nan(self, topo):
        u = global_interpolant(topo, lambda x, y: x)
        got = eval_or_nan(u, topo, [(1.7, 0.3), (0.3, 0.3), (0.3, -0.2)])
        assert np.isnan(got).tolist() == [True, False, True]
        assert got[1] == pytest.approx(0.3, abs=1e-12)
        assert eval_or_nan(u, topo, np.zeros((0, 2))).shape == (0,)


class TestErrorNorms:
    def test_linear_interpolant_exact(self):
        topo = build_cut_topology(config_I(), 2)
        u_exact = lambda x, y: 1 + 2 * x + 3 * y
        grad = lambda x, y: np.stack([np.full_like(x, 2.0), np.full_like(x, 3.0)], axis=-1)
        u = global_interpolant(topo, u_exact)
        l2, h1 = error_norms(u, topo, u_exact, grad)
        assert l2 <= 1e-12 and h1 <= 1e-12

    def test_zero_against_zero(self):
        topo = build_cut_topology(single_config(3), 2)
        u = MultimeshFunction([np.zeros(topo.parts[0].space.dim)])
        zero = lambda x, y: np.zeros_like(x)
        gzero = lambda x, y: np.zeros(x.shape + (2,))
        assert error_norms(u, topo, zero, gzero) == (0.0, 0.0)

    def test_single_mesh_matches_independent_integration(self):
        # no-overlap configuration: the composite error equals a plain
        # per-cell integration of the interpolation error
        topo = build_cut_topology(single_config(3), 2)
        f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        gf = lambda x, y: np.stack(
            [np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
             np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)], axis=-1)
        u = global_interpolant(topo, f)
        l2, h1 = error_norms(u, topo, f, gf)
        l2_ref, h1_ref = _independent_errors(topo.parts[0].space, u.coeffs[0], f, gf, order=4)
        assert l2 == pytest.approx(l2_ref, rel=1e-12)
        assert h1 == pytest.approx(h1_ref, rel=1e-12)

    @pytest.mark.parametrize("field", ["u_exact", "grad_exact"])
    @pytest.mark.parametrize("nan_where, in_cut_cell", [
        (lambda topo: lambda x, y: np.where(x > 0.7, np.nan, 1.0), False),
        (nan_in_cut_pieces, True),
    ], ids=["x-above-0.7", "cut-pieces-only"])
    def test_nonfinite_exact_field_names_part_cell_and_point(self, topo_I, field, nan_where,
                                                             in_cut_cell):
        nan = nan_where(topo_I)
        fields = {"u_exact": lambda x, y: np.ones_like(x),
                  "grad_exact": lambda x, y: np.zeros(x.shape + (2,))}
        fields[field] = {"u_exact": nan,
                         "grad_exact": lambda x, y: np.stack([x, nan(x, y)], axis=-1)}[field]
        u = MultimeshFunction([np.ones(p.space.dim) for p in topo_I.parts])
        with pytest.raises(ValueError) as exc:
            error_norms(u, topo_I, fields["u_exact"], fields["grad_exact"])
        m = re.fullmatch(rf"{field} is nan at \((\S+), (\S+)\) in cell (\d+) of part (\d+)",
                         str(exc.value))
        assert m, str(exc.value)
        point, cell, part = np.array([float(m[1]), float(m[2])]), int(m[3]), int(m[4])
        assert np.isnan(nan(point[:1], point[1:])).all()
        mesh = topo_I.parts[part].mesh
        a, b, c = mesh.nodes[mesh.cells[cell]]
        lam = np.linalg.solve(np.column_stack([b - a, c - a]), point - a)
        assert lam.min() >= -1e-12 and lam.sum() <= 1.0 + 1e-12
        # uncut cells and cut pieces are checked on their own branches
        assert (cell in topo_I.cut_cells[part]) == in_cut_cell


class TestEnergyNorm:
    def test_constants_have_zero_energy(self):
        topo = build_cut_topology(config_I(), 2)
        u = MultimeshFunction([np.full(p.space.dim, 7.5) for p in topo.parts])
        e = energy_norm(u, topo)
        assert e.term_I <= 1e-13 and e.term_II <= 1e-13
        assert e.term_III <= 1e-13 and e.term_IV <= 1e-13
        assert e.total == pytest.approx(e.term_I + e.term_II + e.term_III + e.term_IV)

    def test_global_linear(self):
        topo = build_cut_topology(config_I(), 2)
        u = global_interpolant(topo, lambda x, y: x + y)
        e = energy_norm(u, topo)
        assert e.term_I == pytest.approx(2.0, rel=1e-12)  # |grad|^2 = 2 over |Omega| = 1
        assert e.term_II <= 1e-12
        assert e.term_IV <= 1e-12

    @pytest.mark.parametrize("builder", [config_I, config_II])
    def test_stabilization_identity(self, builder, rng):
        # beta1 * term_II must equal the assembled stabilization quadratic form
        topo = build_cut_topology(builder(), 2)
        params = FormParams.defaults(1)
        S = blocks_matrix(assemble_stabilization(topo, params), topo.total_dim)
        for _ in range(20):
            v = rng.standard_normal(topo.total_dim)
            u = MultimeshFunction.from_global(topo, v)
            qf = float(v @ S.matvec(v))
            term = params.beta1 * energy_norm(u, topo).term_II
            assert term == pytest.approx(qf, rel=1e-12, abs=1e-14)


class TestGlobalInterpolant:
    def test_linear_zero_energy_error(self):
        topo = build_cut_topology(config_I(), 2)
        f = lambda x, y: 2 * x - y
        gf = lambda x, y: np.stack([np.full_like(x, 2.0), np.full_like(x, -1.0)], axis=-1)
        u = global_interpolant(topo, f)
        assert _energy_error(u, topo, f, gf) <= 1e-10

    def test_zero_function(self):
        topo = build_cut_topology(config_I(), 2)
        u = global_interpolant(topo, lambda x, y: np.zeros_like(x))
        assert all(np.all(c == 0.0) for c in u.coeffs)

    def test_nonfinite_value_names_part_and_dof(self, topo_I):
        with pytest.raises(ValueError) as exc:
            global_interpolant(topo_I, lambda x, y: np.where(x > 0.7, np.nan, 1.0))
        m = re.fullmatch(r"f is nan at \((\S+), (\S+)\) for dof (\d+) of part (\d+)",
                         str(exc.value))
        assert m, str(exc.value)
        space = topo_I.parts[int(m[4])].space
        assert tuple(space.dof_coords[int(m[3])]) == (float(m[1]), float(m[2]))
        assert float(m[1]) > 0.7

    def test_sine_energy_rate(self):
        f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        gf = lambda x, y: np.stack(
            [np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
             np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)], axis=-1)
        hs, errs = [], []
        for k in range(3, 7):
            topo = build_cut_topology(config_I(ks=(k, k, k)), 2)
            u = global_interpolant(topo, f)
            hs.append(float(max(topo.mesh_sizes())))
            errs.append(_energy_error(u, topo, f, gf))
        # computed fit over this range is 1.157: the coarsest level carries
        # O(h^1.5) interface terms that inflate the least-squares slope; the
        # asymptotic per-step rate settles at 1 (measured 1.08 on the last step)
        assert 0.85 <= fit_rate(hs, errs) <= 1.25
        last_step = np.log2(errs[-2] / errs[-1])
        assert abs(last_step - 1.0) <= 0.15


class TestDiagnostics:
    def test_single_mesh_unity(self):
        topo = build_cut_topology(single_config(3), 2)
        c_hn, c_p = diagnostics(topo)
        assert c_hn == 1.0 and c_p == 1.0 and topo.N_O == 1

    def test_config_I_formula(self):
        topo = build_cut_topology(config_I(), 2)
        c_hn, c_p = diagnostics(topo)
        h = topo.mesh_sizes()
        n_oi = topo.N_Oi
        expect_chn = 1.0 + max(h[i] ** 2 * n_oi[i] for i in range(3)) + max(
            h[i] * topo.gamma_len[i] for i in range(3)
        )
        expect_cp = (1.0 + max(h[i] * n_oi[i] for i in range(3))
                     + max(h[i] ** 2 * n_oi[i] for i in range(3)))
        assert c_hn == pytest.approx(expect_chn, rel=1e-14)
        assert c_p == pytest.approx(expect_cp, rel=1e-14)
        assert c_hn >= 1.0 and c_p >= 1.0

    def test_refinement_drives_constants_to_one(self):
        vals = []
        for k in (3, 4, 5):
            topo = build_cut_topology(config_I(ks=(k, k, k)), 2)
            vals.append(diagnostics(topo)[0])
        assert vals[0] > vals[1] > vals[2] > 1.0


class TestFormNormBounds:
    @pytest.fixture
    def setup(self, constrained_system):
        return constrained_system

    def test_coercivity_proxy(self, setup, rng):
        topo, system, red = setup
        ratios = []
        for _ in range(100):
            xf = rng.standard_normal(len(red.free))
            v = red.expand(xf)
            quad = float(v @ system.matrix.matvec(v))
            en = energy_norm(MultimeshFunction.from_global(topo, v), topo).total
            ratios.append(quad / en)
        c = min(ratios)
        assert c > 0.0, f"coercivity proxy failed: min ratio {c}"

    def test_continuity_proxy(self, setup, rng):
        topo, system, red = setup
        consts = []
        for _ in range(100):
            v = red.expand(rng.standard_normal(len(red.free)))
            w = red.expand(rng.standard_normal(len(red.free)))
            a_vw = abs(float(v @ system.matrix.matvec(w)))
            ev = np.sqrt(energy_norm(MultimeshFunction.from_global(topo, v), topo).total)
            ew = np.sqrt(energy_norm(MultimeshFunction.from_global(topo, w), topo).total)
            consts.append(a_vw / (ev * ew))
        assert max(consts) < 100.0

    def test_energy_norm_nullspace_is_constants(self):
        # Gram matrix of the energy norm on active dofs via polarization; its
        # null space must be exactly the global constants
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            topo = build_cut_topology(config_I(ks=(2, 2, 2)), 2)
        off = topo.block_offsets()
        act = np.concatenate(
            [off[i] + topo.active_dofs(i) for i in range(topo.nparts)]
        )
        n = len(act)

        def q(vec_active):
            full = np.zeros(topo.total_dim)
            full[act] = vec_active
            return energy_norm(MultimeshFunction.from_global(topo, full), topo).total

        singles = np.array([q(np.eye(n)[a]) for a in range(n)])
        G = np.zeros((n, n))
        for a in range(n):
            G[a, a] = singles[a]
            for b in range(a + 1, n):
                e = np.eye(n)
                G[a, b] = G[b, a] = 0.5 * (q(e[a] + e[b]) - singles[a] - singles[b])
        evals, evecs = np.linalg.eigh(G)
        null = evals < 1e-10 * max(evals.max(), 1.0)
        assert null.sum() == 1, f"null space dimension {null.sum()}"
        vec = evecs[:, 0]
        assert np.allclose(vec, vec[0], atol=1e-8)  # a single global constant


class TestReportCsv:
    def test_schema(self):
        header = csv_header(3)
        assert header[:5] == ["config", "p", "h0", "h1", "h2"]
        assert header[-4:] == ["kappa", "N_O", "C_hN", "C_P"]
        from stackfem.analysis import ErrorReport

        rep = ErrorReport(
            config="I:k3", degree=1, h=(0.1, 0.2, 0.3), dofs=42,
            l2_err=1e-3, h1_err=1e-2,
            energy=EnergyBreakdown(1.0, 0.0, 0.5, 0.25),
            N_O=2, C_hN=1.4, C_P=1.2, kappa=None,
        )
        row = csv_row(rep)
        assert len(row) == len(header)
        assert row[0] == "I:k3" and row[-4] == ""


def _independent_errors(space, coeffs, f, gf, order):
    from stackfem.geom2d import triangles_quadrature

    mesh = space.mesh
    l2 = h1 = 0.0
    for c in range(len(mesh.cells)):
        pts, w = triangles_quadrature(ref.cell_vertices(mesh, c)[None], order)
        vals = ref.eval_in_cell(space, coeffs, c, pts)
        grads = ref.grad_in_cell(space, coeffs, c, pts)
        fe = f(pts[:, 0], pts[:, 1])
        ge = gf(pts[:, 0], pts[:, 1])
        l2 += float(np.dot(w, (vals - fe) ** 2))
        h1 += float(np.dot(w, ((grads - ge) ** 2).sum(axis=1)))
    return np.sqrt(l2), np.sqrt(h1)


def _energy_error(u, topo, f, gf) -> float:
    """Energy norm of (u - f) for smooth single-valued f: jumps of f cancel,
    so II and IV come from u alone; I and III subtract the exact fields."""
    h = topo.mesh_sizes()
    _, h1 = error_norms(u, topo, f, gf)
    e = energy_norm(u, topo)
    term_III = 0.0
    for fac in ref.facets_of(topo):
        i, j = fac.upper_mesh, fac.lower_mesh
        pts, wq = ref.segment_quadrature(fac.segment, topo.quad_order)
        gu = ref.grad_in_cell(topo.parts[i].space, u.coeffs[i], fac.upper_cell, pts)
        gl = ref.grad_in_cell(topo.parts[j].space, u.coeffs[j], fac.lower_cell, pts)
        ge = gf(pts[:, 0], pts[:, 1])
        term_III += float(
            h[i] * np.dot(wq, ((gu - ge) ** 2).sum(axis=1))
            + h[j] * np.dot(wq, ((gl - ge) ** 2).sum(axis=1))
        )
    return float(np.sqrt(h1 ** 2 + e.term_II + term_III + e.term_IV))
