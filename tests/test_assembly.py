import math
import re

import numpy as np
import pytest
from scipy.io import mmread

from conftest import blocks_matrix, classical_p1_system, config_I, config_II, single_config
from stackfem.analysis import MultimeshFunction, global_interpolant
from stackfem.assembly import (
    STAB_VALUE,
    DirichletBC,
    FormParams,
    apply_dirichlet,
    assemble_interface,
    assemble_load,
    assemble_stabilization,
    assemble_system,
    assemble_volume,
    build_dirichlet,
    dump_matrixmarket,
    kappa_weights,
)
from stackfem.cli import build_stack, standard_predomains
from stackfem.multimesh import build_cut_topology
from stackfem.solver import cg_solve


class TestKappaWeights:
    def test_equal_sizes(self):
        assert kappa_weights(0.1, 0.1) == (0.5, 0.5)

    def test_direct_evaluation(self):
        assert kappa_weights(0.1, 0.3) == pytest.approx((0.25, 0.75), abs=1e-15)

    def test_sum_exactly_one(self, rng):
        for _ in range(100):
            hi, hj = rng.uniform(1e-6, 10.0, 2)
            ki, kj = kappa_weights(hi, hj)
            assert ki + kj == 1.0

    def test_rejects_nonpositive(self):
        # NaN fails every comparison, so it must not slip past a `<= 0` test
        for h_i, h_j in [(0.0, 0.1), (math.nan, 0.1), (0.1, math.nan)]:
            with pytest.raises(ValueError):
                kappa_weights(h_i, h_j)


class TestVolume:
    def test_single_mesh_matches_classical(self):
        f = lambda x, y: 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
        topo = build_cut_topology(single_config(3), 2)
        params = FormParams.defaults(1)
        A = blocks_matrix(assemble_volume(topo, params), topo.total_dim).todense()
        b = assemble_load(topo, f, params)
        A_ref, b_ref = classical_p1_system(topo.parts[0].mesh, f)
        assert np.max(np.abs(A - A_ref)) <= 1e-12
        assert np.max(np.abs(b - b_ref)) <= 1e-12

    def test_constant_nullspace(self):
        topo = build_cut_topology(config_I(), 2)
        A = blocks_matrix(assemble_volume(topo, FormParams.defaults(1)), topo.total_dim)
        off = topo.block_offsets()
        v = np.zeros(topo.total_dim)
        for i in range(3):
            v[off[i]:off[i + 1]] = i + 1.0  # per-mesh constants
        assert abs(v @ A.matvec(v)) <= 1e-12

    def test_linear_energy(self):
        # |grad(x + y)|^2 = 2 on every visible piece, so the form gives 2|Omega|
        topo = build_cut_topology(config_I(), 2)
        A = blocks_matrix(assemble_volume(topo, FormParams.defaults(1)), topo.total_dim)
        v = global_interpolant(topo, lambda x, y: x + y).to_global()
        assert v @ A.matvec(v) == pytest.approx(2.0, rel=1e-12)

    def test_reaction_term(self):
        topo = build_cut_topology(single_config(3), 2)
        params = FormParams.defaults(1, reaction_eps=0.5)
        A = blocks_matrix(assemble_volume(topo, params), topo.total_dim)
        ones = np.ones(topo.total_dim)
        assert ones @ A.matvec(ones) == pytest.approx(0.5 ** -2 * 1.0, rel=1e-12)


class TestInterface:
    def test_global_linear_has_zero_jump_energy(self):
        topo = build_cut_topology(config_II(), 2)
        A = blocks_matrix(assemble_interface(topo, FormParams.defaults(1)), topo.total_dim)
        v = global_interpolant(topo, lambda x, y: 1 + 2 * x - 3 * y).to_global()
        assert abs(v @ A.matvec(v)) <= 1e-11

    def test_penalty_scaling_closed_form(self):
        # v = 1 on mesh 2 and 0 elsewhere: gradients vanish, only the penalty
        # on Gamma_2 survives: beta0 |Gamma_2| / (h_1 + h_2)
        topo = build_cut_topology(config_I(), 2)
        params = FormParams.defaults(1)
        A = blocks_matrix(assemble_interface(topo, params), topo.total_dim)
        off = topo.block_offsets()
        v = np.zeros(topo.total_dim)
        v[off[2]:off[3]] = 1.0
        h = topo.mesh_sizes()
        expected = params.beta0 * 0.8 / (h[1] + h[2])
        assert v @ A.matvec(v) == pytest.approx(expected, rel=1e-12)

    def test_kappa_swap_symmetry(self):
        ki, kj = kappa_weights(0.02, 0.3)
        kj2, ki2 = kappa_weights(0.3, 0.02)
        assert ki == pytest.approx(ki2) and kj == pytest.approx(kj2)


class TestStabilization:
    def test_global_linear_zero(self):
        topo = build_cut_topology(config_I(), 2)
        S = blocks_matrix(assemble_stabilization(topo, FormParams.defaults(1)), topo.total_dim)
        v = global_interpolant(topo, lambda x, y: 4 - x + 2 * y).to_global()
        assert abs(v @ S.matvec(v)) <= 1e-12

    def test_gradient_variant_closed_form(self):
        # v_0 = x, other parts 0: [grad v] = (1, 0) on the overlaps of mesh 0
        topo = build_cut_topology(config_I(), 2)
        params = FormParams.defaults(1)
        S = blocks_matrix(assemble_stabilization(topo, params), topo.total_dim)
        off = topo.block_offsets()
        v = np.zeros(topo.total_dim)
        coords = topo.parts[0].space.dof_coords
        v[off[0]:off[1]] = coords[:, 0]
        area01 = topo.overlaps.areas[topo.overlaps.lower_mesh == 0].sum()
        assert v @ S.matvec(v) == pytest.approx(params.beta1 * area01, rel=1e-12)

    def test_value_variant_closed_form(self):
        topo = build_cut_topology(config_I(), 2)
        params = FormParams.defaults(1, stab_variant=STAB_VALUE)
        S = blocks_matrix(assemble_stabilization(topo, params), topo.total_dim)
        off = topo.block_offsets()
        v = np.zeros(topo.total_dim)
        v[off[2]:off[3]] = 1.0
        h = topo.mesh_sizes()
        o = topo.overlaps
        area12 = o.areas[(o.lower_mesh == 1) & (o.upper_mesh == 2)].sum()
        expected = params.beta1 * area12 / (h[1] + h[2]) ** 2
        assert v @ S.matvec(v) == pytest.approx(expected, rel=1e-12)


class TestLoad:
    def test_zero_source(self):
        topo = build_cut_topology(config_I(), 2)
        b = assemble_load(topo, lambda x, y: np.zeros_like(x), FormParams.defaults(1))
        assert np.all(b == 0.0)

    def test_partition_of_unity_measures(self):
        # pairing f = 1 with the all-ones coefficient vector integrates 1 over
        # each visible region: the total is |Omega| = 1
        topo = build_cut_topology(config_I(), 2)
        b = assemble_load(topo, lambda x, y: np.ones_like(x), FormParams.defaults(1))
        off = topo.block_offsets()
        per_mesh = [float(b[off[i]:off[i + 1]].sum()) for i in range(3)]
        assert per_mesh[0] == pytest.approx(0.64, rel=1e-12)
        assert per_mesh[1] == pytest.approx(0.32, rel=1e-12)
        assert per_mesh[2] == pytest.approx(0.04, rel=1e-12)
        assert sum(per_mesh) == pytest.approx(1.0, rel=1e-12)


class TestDirichlet:
    def test_zero_data_is_principal_submatrix(self):
        topo = build_cut_topology(single_config(3), 2)
        params = FormParams.defaults(1)
        system = assemble_system(topo, params)
        load = assemble_load(topo, lambda x, y: np.ones_like(x), params)
        bc = build_dirichlet(topo, lambda x, y: np.zeros_like(x))
        red = apply_dirichlet(system, load, bc, topo)
        assert np.array_equal(red.rhs, load[red.free])
        sub = system.matrix.csr[np.ix_(red.free, red.free)].toarray()
        assert np.array_equal(red.matrix.todense(), sub)

    def test_linear_lift_reproduced(self):
        # f = 0 with g = x + y gives back the linear exactly (P1 contains it)
        topo = build_cut_topology(single_config(3), 2)
        params = FormParams.defaults(1)
        system = assemble_system(topo, params)
        load = assemble_load(topo, lambda x, y: np.zeros_like(x), params)
        bc = build_dirichlet(topo, lambda x, y: x + y)
        red = apply_dirichlet(system, load, bc, topo)
        x, rep = cg_solve(red.matrix, red.rhs, tol=1e-13)
        full = red.expand(x)
        coords = topo.parts[0].space.dof_coords
        assert np.max(np.abs(full - (coords[:, 0] + coords[:, 1]))) <= 1e-10

    def test_unflagged_dof_rejected(self):
        topo = build_cut_topology(single_config(3), 2)
        params = FormParams.defaults(1)
        system = assemble_system(topo, params)
        load = np.zeros(system.dim)
        # an interior dof is not on any flagged boundary facet
        interior = np.setdiff1d(
            np.arange(system.dim), topo.parts[0].space.boundary_dofs()
        )[0]
        with pytest.raises(ValueError, match="flagged"):
            apply_dirichlet(system, load, DirichletBC([interior], [0.0]), topo)

    @pytest.mark.parametrize("side, part, marker", [("g_outer", 0, 0), ("g_inner", 1, 1)])
    def test_nonfinite_data_names_part_and_dof(self, side, part, marker):
        from stackfem.cli import boundary_layer_stack

        topo = build_cut_topology(boundary_layer_stack(0)[0], 2)
        data = {"g_outer": lambda x, y: np.zeros_like(x),
                "g_inner": lambda x, y: np.ones_like(x)}
        data[side] = lambda x, y: np.where(x > 0.6, np.nan, 1.0)
        with pytest.raises(ValueError) as exc:
            build_dirichlet(topo, data["g_outer"], data["g_inner"])
        m = re.fullmatch(rf"{side} is nan at \((\S+), (\S+)\) for dof (\d+) of part {part}",
                         str(exc.value))
        assert m, str(exc.value)
        dof = int(m.group(3))
        space = topo.parts[part].space
        assert dof in space.boundary_dofs(marker)
        assert tuple(space.dof_coords[dof]) == (float(m.group(1)), float(m.group(2)))
        assert space.dof_coords[dof, 0] > 0.6


class TestSystemProperties:
    @pytest.mark.parametrize("builder", [config_I, config_II])
    def test_symmetry_and_spd(self, builder):
        topo = build_cut_topology(builder(), 2)
        params = FormParams.defaults(1)
        system = assemble_system(topo, params)
        assert system.matrix.symmetry_defect() <= 1e-12 * system.matrix.max_abs()
        load = assemble_load(topo, lambda x, y: np.ones_like(x), params)
        bc = build_dirichlet(topo, lambda x, y: np.zeros_like(x))
        red = apply_dirichlet(system, load, bc, topo)
        evals = np.linalg.eigvalsh(red.matrix.todense())
        assert evals[0] > 0.0

    @pytest.mark.parametrize("name, k, degree", [("II", 6, 1), ("I", 4, 2)])
    def test_system_is_the_three_terms_in_order(self, name, k, degree):
        """assemble_system scatters the terms into one set of arrays; its CSR
        arrays equal, bit for bit, those of the three terms' blocks
        concatenated (volume, interface, stabilization) and scattered."""
        topo = build_cut_topology(build_stack(standard_predomains(name), [k] * 3, degree),
                                  2 * degree)
        params = FormParams.defaults(degree)
        got = assemble_system(topo, params).matrix.csr
        want = blocks_matrix([*assemble_volume(topo, params), *assemble_interface(topo, params),
                              *assemble_stabilization(topo, params)], topo.total_dim).csr
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), attr

    def test_p2_patch_single_mesh(self):
        # P2 reproduces quadratics: u = x^2 + y^2 with f = -4
        topo = build_cut_topology(single_config(3, degree=2), 4)
        params = FormParams.defaults(2)
        system = assemble_system(topo, params)
        load = assemble_load(topo, lambda x, y: -4.0 * np.ones_like(x), params)
        bc = build_dirichlet(topo, lambda x, y: x ** 2 + y ** 2)
        red = apply_dirichlet(system, load, bc, topo)
        x, _ = cg_solve(red.matrix, red.rhs, tol=1e-13)
        full = red.expand(x)
        coords = topo.parts[0].space.dof_coords
        exact = coords[:, 0] ** 2 + coords[:, 1] ** 2
        assert np.max(np.abs(full - exact)) <= 1e-10

    def test_p2_patch_multimesh(self):
        topo = build_cut_topology(config_I(degree=2), 4)
        params = FormParams.defaults(2)
        u_exact = lambda x, y: x ** 2 - x * y + 0.5 * y ** 2
        system = assemble_system(topo, params)
        load = assemble_load(topo, lambda x, y: -3.0 * np.ones_like(x), params)
        bc = build_dirichlet(topo, u_exact)
        red = apply_dirichlet(system, load, bc, topo)
        x, _ = cg_solve(red.matrix, red.rhs, tol=1e-13)
        u = MultimeshFunction.from_global(topo, red.expand(x))
        for i in range(3):
            ad = topo.active_dofs(i)
            coords = topo.parts[i].space.dof_coords[ad]
            err = np.abs(u.coeffs[i][ad] - u_exact(coords[:, 0], coords[:, 1]))
            assert np.max(err) <= 1e-9

    @pytest.mark.parametrize(
        "pres_ks",
        [
            # abutting top parts sharing an edge
            ([(0.0, 1.0, 0.0, 1.0), (0.2, 0.5, 0.2, 0.8), (0.5, 0.8, 0.2, 0.8)], [3, 3, 3]),
            # middle part fully hidden under the top one
            ([(0.0, 1.0, 0.0, 1.0), (0.3, 0.6, 0.3, 0.6), (0.25, 0.65, 0.25, 0.65)], [3, 4, 3]),
        ],
    )
    def test_patch_test_degenerate_stacks(self, pres_ks):
        from conftest import build_stack_config
        from stackfem.geom2d import rect_polygon

        bounds, ks = pres_ks
        pres = [rect_polygon(*b) for b in bounds]
        topo = build_cut_topology(build_stack_config(pres, ks), 2)
        params = FormParams.defaults(1)
        u_exact = lambda x, y: 1 + 2 * x + 3 * y
        system = assemble_system(topo, params)
        load = assemble_load(topo, lambda x, y: np.zeros_like(x), params)
        red = apply_dirichlet(system, load, build_dirichlet(topo, u_exact), topo)
        x, _ = cg_solve(red.matrix, red.rhs, tol=1e-13)
        u = MultimeshFunction.from_global(topo, red.expand(x))
        for i in range(3):
            ad = topo.active_dofs(i)
            if len(ad) == 0:
                continue
            coords = topo.parts[i].space.dof_coords[ad]
            err = np.abs(u.coeffs[i][ad] - u_exact(coords[:, 0], coords[:, 1]))
            assert np.max(err) <= 1e-10

    def test_matrixmarket_round_trip(self, tmp_path):
        topo = build_cut_topology(config_I(), 2)
        system = assemble_system(topo, FormParams.defaults(1))
        path = tmp_path / "system.mtx"
        dump_matrixmarket(system, path)
        back = mmread(path).toarray()
        assert np.allclose(back, system.matrix.todense(), atol=1e-15)


class TestFormParams:
    def test_defaults_follow_degree(self):
        p1 = FormParams.defaults(1)
        p2 = FormParams.defaults(2)
        assert p1.beta0 == 10.0 and p2.beta0 == 40.0
        assert p1.beta1 == p2.beta1 == 0.1
        assert p1.quad_order == 2 and p2.quad_order == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            FormParams(beta0=-1.0)
        with pytest.raises(ValueError):
            FormParams(stab_variant="bogus")
        with pytest.raises(ValueError):
            FormParams(reaction_eps=0.0)

    @pytest.mark.parametrize("name", ["beta0", "beta1", "reaction_eps"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_nonpositive_and_nonfinite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got"):
            FormParams(**{name: value})

    def test_accepts_positive_finite(self):
        p = FormParams(beta0=1e-3, beta1=1e3, reaction_eps=1e-8)
        assert (p.beta0, p.beta1, p.reaction_eps) == (1e-3, 1e3, 1e-8)
        assert FormParams().reaction_eps is None
