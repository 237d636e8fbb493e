"""Acceptance suite.

Each test checks one exit criterion at its stated tolerance and prints one
pass/fail line (visible with pytest -s, or in captured output on failure).
"""
import time

import numpy as np
import pytest

import loop_reference
from conftest import (
    blocks_matrix,
    build_stack_config,
    classical_p1_system,
    config_I,
    config_II,
    fit_rate,
    independent_gamma_lengths,
    random_rect_stack,
    single_config,
)
from stackfem.analysis import MultimeshFunction, energy_norm, error_norms, eval_or_nan
from stackfem.assembly import (
    STAB_VALUE,
    FormParams,
    apply_dirichlet,
    assemble_load,
    assemble_stabilization,
    assemble_system,
    build_dirichlet,
)
from stackfem.cli import (
    hexagon_obstacle,
    poisson_fields,
    run_boundary_layer,
    run_condition_study,
    run_equal_refinement,
    run_permutation_study,
    solve_poisson,
    standard_predomains,
)
from stackfem.multimesh import build_cut_topology
from stackfem.solver import cg_solve, extreme_eigs


def _report(num: int, desc: str, passed: bool, detail: str = "") -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num:2d}: {desc} {detail}".rstrip())
    assert passed, f"criterion {num}: {desc} {detail}"


@pytest.fixture(scope="module")
def flexible_run():
    """Config I with part 2 five levels finer than the rest (ratio 2^5)."""
    u_exact, f, grad_u = poisson_fields()
    from stackfem.cli import build_stack, standard_predomains

    config = build_stack(standard_predomains("I"), [3, 3, 8], 1)
    res = solve_poisson(config, FormParams.defaults(1), f, u_exact)
    return res


@pytest.fixture(scope="module")
def rate_reports():
    return {
        "I": run_equal_refinement("I", standard_predomains("I"), range(3, 7), 1),
        "II": run_equal_refinement("II", standard_predomains("II"), range(3, 7), 1),
    }


@pytest.mark.filterwarnings("ignore:target_h exceeds rectangle extent")
def test_criterion_1_geometry_conservation():
    rng = np.random.default_rng(1234)
    t0 = time.monotonic()
    worst_area = 0.0
    worst_gamma = 0.0
    for _ in range(200):
        config = random_rect_stack(rng)
        topo = build_cut_topology(config, quad_order=1)
        total = sum(topo.visible_area(i) for i in range(topo.nparts))
        worst_area = max(worst_area, abs(total - 1.0))
        gamma = independent_gamma_lengths(config)
        for i in range(1, topo.nparts):
            worst_gamma = max(worst_gamma, abs(topo.gamma_len[i] - gamma[i]))
    elapsed = time.monotonic() - t0
    ok = worst_area <= 1e-10 and worst_gamma <= 1e-10 and elapsed < 10.0
    _report(
        1,
        "geometry conservation on 200 random stacks",
        ok,
        f"(area defect {worst_area:.2e}, interface defect {worst_gamma:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_2_single_mesh_reduction():
    u_exact, f, _ = poisson_fields()
    topo = build_cut_topology(single_config(3), 2)
    params = FormParams.defaults(1)
    system = assemble_system(topo, params)
    load = assemble_load(topo, f, params)
    A_ref, b_ref = classical_p1_system(topo.parts[0].mesh, f)
    mat_defect = float(np.max(np.abs(system.matrix.todense() - A_ref)))
    load_defect = float(np.max(np.abs(load - b_ref)))

    bc = build_dirichlet(topo, lambda x, y: np.zeros_like(x))
    red = apply_dirichlet(system, load, bc, topo)
    x_ours = np.linalg.solve(red.matrix.todense(), red.rhs)
    free = red.free
    A_ff = A_ref[np.ix_(free, free)]
    x_ref = np.linalg.solve(A_ff, b_ref[free])
    sol_defect = float(np.max(np.abs(x_ours - x_ref)))
    x_cg, rep = cg_solve(red.matrix, red.rhs, tol=1e-13)
    cg_defect = float(np.max(np.abs(x_cg - x_ref)))

    ok = mat_defect <= 1e-12 and load_defect <= 1e-12 and sol_defect <= 1e-12 and cg_defect <= 1e-10
    _report(
        2,
        "single-mesh reduction equals classical FEM",
        ok,
        f"(matrix {mat_defect:.1e}, load {load_defect:.1e}, solution {sol_defect:.1e})",
    )


def test_criterion_3_linear_patch_test():
    u_exact = lambda x, y: 1.0 + 2.0 * x + 3.0 * y
    zero = lambda x, y: np.zeros_like(x)
    worst = 0.0
    for builder in (config_I, config_II):
        config = builder()
        res = solve_poisson(config, FormParams.defaults(1), zero, u_exact, cg_tol=1e-13)
        for i, part in enumerate(res.topology.parts):
            ad = res.topology.active_dofs(i)
            coords = part.space.dof_coords[ad]
            err = np.max(np.abs(res.u.coeffs[i][ad] - u_exact(coords[:, 0], coords[:, 1])))
            worst = max(worst, float(err))
    ok = worst <= 1e-10
    _report(3, "linear patch test on configurations I and II", ok, f"(max dof error {worst:.2e})")


def test_criterion_4_convergence_rates(rate_reports):
    t0 = time.monotonic()
    details = []
    ok = True
    for name, reports in rate_reports.items():
        hs = [max(r.h) for r in reports]
        rl2 = fit_rate(hs, [r.l2_err for r in reports])
        rh1 = fit_rate(hs, [r.h1_err for r in reports])
        details.append(f"{name}: L2 {rl2:.2f}, H1 {rh1:.2f}")
        ok = ok and 1.85 <= rl2 <= 2.15 and 0.85 <= rh1 <= 1.15
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    _report(4, "convergence rates at p = 1", ok, f"({'; '.join(details)})")


def test_criterion_5_flexible_mesh_sizes(flexible_run, rate_reports):
    res = flexible_run
    lam_max, lam_min = extreme_eigs(res.reduced.matrix)
    u_exact, _, grad_u = poisson_fields()
    l2, _ = error_norms(res.u, res.topology, u_exact, grad_u)
    coarse_l2 = rate_reports["I"][0].l2_err
    ok = res.report.converged and lam_min > 0.0 and l2 <= coarse_l2
    _report(
        5,
        "mesh-size ratio 2^5 stays SPD and accurate",
        ok,
        f"(lam_min {lam_min:.2e}, L2 {l2:.3e} vs all-coarse {coarse_l2:.3e})",
    )


def test_criterion_6_refinement_permutations():
    reports = run_permutation_study("I", standard_predomains("I"), 3, 6, 1)
    # the shared endpoints, solved apart from the study
    coarse, fine = run_equal_refinement("I", standard_predomains("I"), [3, 6], 1)
    curves: dict[str, list] = {}
    for r in reports:
        tag = r.config.split(":")[1]
        curves.setdefault(tag, []).append(r)
    start = max(abs(c[0].l2_err / coarse.l2_err - 1.0) for c in curves.values())
    end = max(abs(c[-1].l2_err / fine.l2_err - 1.0) for c in curves.values())
    agree = start <= 0.01 and end <= 0.01
    monotone = True
    for c in curves.values():
        for a, b in zip(c[:-1], c[1:]):
            if b.l2_err > 1.05 * a.l2_err or b.h1_err > 1.05 * a.h1_err:
                monotone = False
    ok = len(curves) == 6 and agree and monotone
    _report(
        6,
        "all 3! refinement orderings start and end at the equal-refinement solves and decrease",
        ok,
        f"(start deviation {start:.2e}, end deviation {end:.2e})",
    )


@pytest.mark.filterwarnings("ignore:target_h exceeds rectangle extent")
def test_criterion_7_condition_scaling():
    t0 = time.monotonic()
    rows, slope = run_condition_study(standard_predomains("I"), range(2, 6), 1)
    elapsed = time.monotonic() - t0
    ok = -2.3 <= slope <= -1.5 and elapsed < 180.0
    _report(7, "condition number scaling", ok, f"(slope {slope:.2f}, {elapsed:.1f}s)")


def _asymmetry(system) -> float:
    """max |A - A^T| relative to max |A| of an assembled system."""
    return system.matrix.symmetry_defect() / system.matrix.max_abs()


def test_criterion_8_symmetry_and_spd(flexible_run):
    u_exact, f, _ = poisson_fields()
    zero = lambda x, y: np.zeros_like(x)
    cases = []
    for name, config, params in [
        ("I", config_I(), FormParams.defaults(1)),
        ("II", config_II(), FormParams.defaults(1)),
        ("single", single_config(3), FormParams.defaults(1)),
        ("I-l2stab", config_I(), FormParams.defaults(1, stab_variant=STAB_VALUE)),
        ("I-p2", config_I(degree=2), FormParams.defaults(2)),
    ]:
        topo = build_cut_topology(config, params.quad_order)
        system = assemble_system(topo, params)
        load = assemble_load(topo, f, params)
        red = apply_dirichlet(system, load, build_dirichlet(topo, zero), topo)
        lam_min = float(np.linalg.eigvalsh(red.matrix.todense())[0])
        cases.append((name, _asymmetry(system), lam_min))
    sym_flex = _asymmetry(flexible_run.system)
    _, lam_min_flex = extreme_eigs(flexible_run.reduced.matrix)
    cases.append(("I-flex", sym_flex, lam_min_flex))
    # reaction-dominated obstacle system
    from stackfem.cli import boundary_layer_stack

    bl_config, eps = boundary_layer_stack(0)
    bl_params = FormParams.defaults(1, reaction_eps=eps)
    bl_topo = build_cut_topology(bl_config, bl_params.quad_order)
    bl_system = assemble_system(bl_topo, bl_params)
    bl_load = assemble_load(bl_topo, zero, bl_params)
    bl_bc = build_dirichlet(bl_topo, zero, g_inner=lambda x, y: np.ones_like(x))
    bl_red = apply_dirichlet(bl_system, bl_load, bl_bc, bl_topo)
    _, bl_lam_min = extreme_eigs(bl_red.matrix)
    cases.append(("obstacle", _asymmetry(bl_system), bl_lam_min))
    worst_sym = max(c[1] for c in cases)
    min_lam = min(c[2] for c in cases)
    ok = worst_sym <= 1e-12 and min_lam > 0.0
    _report(
        8,
        "assembled systems symmetric and SPD",
        ok,
        f"(worst relative asymmetry {worst_sym:.1e}, smallest lam_min {min_lam:.2e})",
    )


def test_criterion_9_stabilization_variants():
    # the value-jump variant needs a larger Nitsche penalty: it supplies no
    # gradient control on hidden sliver cuts, so "beta0 large enough" means
    # 20 p^2 here (the analyzed gradient variant runs at the 10 p^2 default)
    params = FormParams.defaults(1, stab_variant=STAB_VALUE, beta0=20.0)
    ok = True
    details = []
    for name in ("I", "II"):
        reports = run_equal_refinement(name, standard_predomains(name), range(3, 7), 1, params)
        hs = [max(r.h) for r in reports]
        rl2 = fit_rate(hs, [r.l2_err for r in reports])
        rh1 = fit_rate(hs, [r.h1_err for r in reports])
        details.append(f"{name}: L2 {rl2:.2f}, H1 {rh1:.2f}")
        ok = ok and 1.85 <= rl2 <= 2.15 and 0.85 <= rh1 <= 1.15
    _report(9, "scaled value-jump stabilization converges", ok, f"({'; '.join(details)})")


def test_criterion_10_stabilization_energy_identity():
    topo = build_cut_topology(config_I(), 2)
    params = FormParams.defaults(1)
    S = blocks_matrix(assemble_stabilization(topo, params), topo.total_dim)
    rng = np.random.default_rng(99)
    worst = 0.0
    worst_oracle = 0.0
    for _ in range(100):
        v = rng.standard_normal(topo.total_dim)
        qf = float(v @ S.matvec(v))
        u = MultimeshFunction.from_global(topo, v)
        term_II = energy_norm(u, topo).term_II
        term = params.beta1 * term_II
        worst = max(worst, abs(qf - term) / max(abs(qf), 1e-300))
        # the assembled form and the energy term share the batched kernel, so
        # the identity alone could not catch a fault in it: the per-piece
        # loop evaluator is the independent oracle for term II
        oracle = loop_reference.energy_terms(u, topo)[1]
        worst_oracle = max(worst_oracle, abs(term_II - oracle) / max(abs(oracle), 1e-300))
    ok = worst <= 1e-12
    _report(10, "beta1 * energy term II equals the assembled form", ok, f"(worst rel {worst:.1e})")
    assert worst_oracle <= 1e-12, f"criterion 10: term II vs loop oracle, rel {worst_oracle:.1e}"


def test_criterion_11_boundary_layer():
    results = [run_boundary_layer(k, probe_n=21) for k in (0, 1, 2)]
    hexa = hexagon_obstacle()
    v = hexa.vertices
    mids = 0.5 * (v + np.roll(v, -1, axis=0))
    # NaN (a midpoint located nowhere) propagates and fails the bound
    vals = np.concatenate([eval_or_nan(r.solve.u, r.solve.topology, mids) for r in results])
    bc_defect = float(np.max(np.abs(vals - 1.0)))
    corners_ok = all(abs(r.corner_value) < 0.01 for r in results)
    ratios = [results[i].layer_halfwidth / results[i + 1].layer_halfwidth for i in range(2)]
    shrink_ok = all(1.4 <= rho <= 2.6 for rho in ratios)
    ok = bc_defect <= 1e-10 and corners_ok and shrink_ok
    _report(
        11,
        "boundary layer demo",
        ok,
        f"(bc defect {bc_defect:.1e}, widths {[round(r.layer_halfwidth, 4) for r in results]}, "
        f"shrink ratios {[round(r, 2) for r in ratios]})",
    )
