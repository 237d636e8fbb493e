"""The batched cut-integral kernel against the per-entity loop oracle.

Tolerances are fixed: relative 1e-12 on scalars (error norms, energy
terms) and 1e-13 * max|entry| on assembled matrices and load vectors. The
two sides sum the same products in a different order, so they agree to
rounding, not bit for bit.
"""
import numpy as np
import pytest

import loop_reference as ref
from conftest import blocks_matrix, build_stack_config, config_I, config_II, single_config
from stackfem.analysis import MultimeshFunction, energy_norm, error_norms
from stackfem.assembly import (
    STAB_VALUE,
    FormParams,
    assemble_interface,
    assemble_load,
    assemble_stabilization,
    assemble_volume,
)
from stackfem.cli import boundary_layer_stack, poisson_fields
from stackfem.geom2d import rect_polygon
from stackfem.multimesh import build_cut_topology

SCALAR_RTOL = 1e-12
ENTRY_RTOL = 1e-13


def _band():
    config, eps = boundary_layer_stack(0)
    return config, FormParams.defaults(1, reaction_eps=eps)


def _cell_pair_under_top():
    """Part 1 is one cell pair and the smaller top part cuts both cells, so
    mesh 1 has no uncut active cell."""
    pres = [rect_polygon(0.0, 1.0, 0.0, 1.0), rect_polygon(0.25, 0.5, 0.25, 0.5),
            rect_polygon(0.3, 0.45, 0.3, 0.45)]
    return build_stack_config(pres, (3, 2, 4)), FormParams.defaults(1)


CASES = {
    "I-p1-gradient": lambda: (config_I((3, 4, 5), 1), FormParams.defaults(1)),
    "I-p2-value": lambda: (config_I((3, 3, 4), 2),
                           FormParams.defaults(2, stab_variant=STAB_VALUE)),
    "II-p1-value": lambda: (config_II((3, 4, 4), 1),
                            FormParams.defaults(1, stab_variant=STAB_VALUE)),
    "II-p2-gradient": lambda: (config_II((3, 3, 4), 2), FormParams.defaults(2)),
    "II-p1-reaction": lambda: (config_II((4, 3, 3), 1), FormParams.defaults(1, reaction_eps=0.05)),
    "band-void-p1": _band,
    "I-p2-reaction": lambda: (config_I((3, 3, 4), 2), FormParams.defaults(2, reaction_eps=0.05)),
    "single-p1": lambda: (single_config(4, 1), FormParams.defaults(1)),
    "cell-pair-under-top-p1": _cell_pair_under_top,
}


def test_cases_reach_the_empty_blocks():
    """Mesh 1 of one case has no uncut active cell; the single mesh of
    another has no cut cell."""
    topo = build_cut_topology(_cell_pair_under_top()[0])
    assert len(topo.uncut[1]) == 0 and len(topo.cut_cells[1]) == 2
    topo = build_cut_topology(single_config(4, 1))
    assert len(topo.cut_cells[0]) == 0 and len(topo.uncut[0]) == len(topo.active[0]) > 0


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    config, params = CASES[request.param]()
    topo = build_cut_topology(config, params.quad_order)
    rng = np.random.default_rng(5)
    return topo, params, MultimeshFunction.from_global(topo, rng.standard_normal(topo.total_dim))


def _assert_entries_close(got, want):
    scale = abs(want).max()
    assert scale > 0
    assert abs(got - want).max() <= ENTRY_RTOL * scale


@pytest.mark.parametrize(
    "batched, oracle",
    [
        (assemble_volume, ref.volume_matrix),
        (assemble_interface, ref.interface_matrix),
        (assemble_stabilization, ref.stabilization_matrix),
    ],
    ids=["volume", "interface", "stabilization"],
)
def test_matrices_match_oracle(case, batched, oracle):
    topo, params, _ = case
    got = blocks_matrix(batched(topo, params), topo.total_dim).csr
    want = oracle(topo, params)
    assert got.nnz == want.nnz
    if want.nnz == 0:
        # a single mesh has no interface facet and no overlap piece
        assert topo.nparts == 1 and batched is not assemble_volume
        return
    _assert_entries_close(got, want)


def test_load_matches_oracle(case):
    topo, params, _ = case
    _, f, _ = poisson_fields()
    rhs = lambda x, y: f(x, y) + x - 2.0 * y
    _assert_entries_close(assemble_load(topo, rhs, params), ref.load_vector(topo, rhs, params))


def test_error_norms_match_oracle(case):
    topo, _, u = case
    u_exact, _, grad_u = poisson_fields()
    got = error_norms(u, topo, u_exact, grad_u)
    want = ref.error_norms(u, topo, u_exact, grad_u)
    np.testing.assert_allclose(got, want, rtol=SCALAR_RTOL, atol=0)


def test_energy_terms_match_oracle(case):
    topo, _, u = case
    e = energy_norm(u, topo)
    got = (e.term_I, e.term_II, e.term_III, e.term_IV)
    np.testing.assert_allclose(got, ref.energy_terms(u, topo), rtol=SCALAR_RTOL, atol=0)
