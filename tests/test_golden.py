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
"""
import csv
from pathlib import Path

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
