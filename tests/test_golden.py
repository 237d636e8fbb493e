"""Golden results.csv files of two reference runs.

The files under tests/data were written by the version before the batched
cut-integral kernel. Columns are compared as follows:

- config, p, dofs, N_O and kappa exactly;
- mesh sizes and the constants C_hN, C_P (geometry only) to relative 1e-12;
- columns computed from the CG solution (errors and energy terms) to
  relative 1e-9. CG stops at a relative residual of 1e-10, and the iterate
  it stops at depends on the summation order of the assembled entries:
  changing every matrix entry by one ulp moves these columns by up to
  3.3e-10 on the P2 convergence run.

The boundary-layer files (`stackfem boundary-layer --k-min 0 --k-max 0`)
were written by the version that located and evaluated the probe one point
at a time. Its solve is the same; only the evaluation arithmetic differs
(a per-cell matmul then, one einsum per mesh now), by a few ulps. So:

- k, eps, dofs and the probe coordinates exactly, and NaN (hole) positions
  exactly;
- u and corner_value (both in [0, 1]) to absolute 1e-14;
- layer_halfwidth to relative 1e-12: it interpolates linearly between two
  probe values, and dividing by their difference amplifies rounding.
"""
import csv
import math
from pathlib import Path

import numpy as np
import pytest

from stackfem.cli import main

DATA = Path(__file__).parent / "data"
EXACT = {"config", "p", "dofs", "N_O", "kappa"}
SOLVE_COLUMNS = {"l2_err", "h1_err", "energy_I", "energy_II", "energy_III", "energy_IV"}
GEOMETRY_RTOL = 1e-12
SOLVE_RTOL = 1e-9

RUNS = {
    "solve_II_k4.csv": ["solve", "--mm-config", "II", "--k", "4"],
    "convergence_I_p2_k2_3.csv": ["convergence", "--mm-config", "I", "--p", "2",
                                  "--k-min", "2", "--k-max", "3"],
}


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.filterwarnings("ignore:target_h exceeds rectangle extent")
@pytest.mark.parametrize("name", sorted(RUNS))
def test_results_match_golden(name, tmp_path):
    assert main(RUNS[name] + ["--out", str(tmp_path)]) == 0
    want = _rows(DATA / name)
    got = _rows(tmp_path / "results.csv")
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row_got, row_want in zip(got[1:], want[1:]):
        for col, g, w in zip(want[0], row_got, row_want):
            if col in EXACT:
                assert g == w, (col, row_want[0])
            else:
                rtol = SOLVE_RTOL if col in SOLVE_COLUMNS else GEOMETRY_RTOL
                assert float(g) == pytest.approx(float(w), rel=rtol, abs=0), (col, row_want[0])


def test_boundary_layer_matches_golden(tmp_path):
    assert main(["boundary-layer", "--k-min", "0", "--k-max", "0", "--out", str(tmp_path)]) == 0
    want = _rows(DATA / "boundary_layer_k0_results.csv")
    got = _rows(tmp_path / "results.csv")
    assert got[0] == want[0] and len(got) == len(want) == 2
    row_got, row_want = dict(zip(got[0], got[1])), dict(zip(want[0], want[1]))
    for col in ("k", "eps", "dofs"):
        assert row_got[col] == row_want[col], col
    assert float(row_got["layer_halfwidth"]) == pytest.approx(
        float(row_want["layer_halfwidth"]), rel=1e-12, abs=0)
    assert math.isclose(float(row_got["corner_value"]), float(row_want["corner_value"]),
                        rel_tol=0, abs_tol=1e-14)

    want = _rows(DATA / "boundary_layer_k0_probe.csv")
    got = _rows(tmp_path / "probe_k0.csv")
    assert got[0] == want[0] == ["x", "y", "u"]
    assert [r[:2] for r in got] == [r[:2] for r in want]
    u_got = np.array([float(r[2]) for r in got[1:]])
    u_want = np.array([float(r[2]) for r in want[1:]])
    hole = np.isnan(u_want)
    assert hole.any() and np.array_equal(np.isnan(u_got), hole)
    assert np.max(np.abs(u_got[~hole] - u_want[~hole])) <= 1e-14


def test_condition_matches_golden(tmp_path):
    """`stackfem condition --mm-config I --k-min 2 --k-max 4`, recorded before
    the study drivers shared one solve loop. h exactly: it is geometry only.
    kappa and the slope to relative 1e-9: ARPACK stops both extreme
    eigenvalues at relative residual 1e-10, which bounds each within 1e-10
    and kappa within about 2e-10 of its converged value (measured: the
    recorded values are within 1.2e-15 of a run to machine precision), and
    entries that move by an ulp with the summation order move lambda_min by
    about kappa * 1e-16 relative (2e-14 at kappa = 195), so 1e-9 leaves room
    for those and no more."""
    assert main(["condition", "--mm-config", "I", "--k-min", "2", "--k-max", "4",
                 "--out", str(tmp_path)]) == 0
    want = _rows(DATA / "condition_I_k2_4.csv")
    got = _rows(tmp_path / "results.csv")
    assert got[0] == want[0] == ["h", "kappa"]
    assert [r[0] for r in got[1:]] == [r[0] for r in want[1:]]
    assert got[-1][0] == "slope" and len(got) == len(want) == 5
    for row_got, row_want in zip(got[1:], want[1:]):
        assert float(row_got[1]) == pytest.approx(float(row_want[1]), rel=1e-9, abs=0)
