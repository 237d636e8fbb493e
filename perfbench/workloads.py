"""The four benchmark workloads: inputs, one operation, and output checks.

An operation is one call into a `stackfem.cli` driver. The checks run
after the timed operation and compare its outputs with a computation made
apart from the program (scipy's eigensolver, the benchmark's own segment
clipping and point-in-polygon code) or with a property the method must
have (optimal convergence order, h^-2 condition growth, the maximum
principle, the 1-D exponential layer width).
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from stackfem import cli
from stackfem.geom2d import rect_polygon, rotate_rect

# solve-II-p1: config II shape, both rectangles rotated near 23 and 44 degrees,
# every part at k = 7, P1. The angle pairs were drawn once from
# numpy.random.default_rng(2018) as 23 + U(-3, 3) and 44 + U(-3, 3) degrees,
# rounded to 1e-4 degrees, and kept in order when the k = 7 solve succeeded
# and passed every check below: 4 of the first 48 draws make an indefinite
# system that CG rejects (see CHANGES.md), so a seeded draw would fail on
# some seeds only. A run takes the pairs in an order drawn from its seed.
SOLVE_K = 7
SOLVE_BOUNDS = ((0.2, 0.8, 0.3, 0.75), (0.3, 0.5, 0.05, 0.8))
SOLVE_ANGLES = (23.0, 44.0)
SOLVE_JITTER_DEG = 3.0
SOLVE_STACKS = (
    (22.9244, 42.0755), (25.4637, 46.9517), (20.8330, 42.0985), (21.5268, 45.7234),
    (24.2875, 46.5913), (22.0096, 45.0377), (20.6770, 41.0214), (20.8596, 45.9520),
    (25.7496, 41.9300), (22.8944, 46.6896), (24.8119, 43.2792), (22.5415, 42.5427),
    (20.8630, 44.6890), (22.4493, 44.3538), (21.2331, 46.6393), (25.6975, 41.7359),
    (24.7530, 44.8396), (21.5269, 44.4986), (21.9396, 43.3723), (24.5736, 46.3171),
    (21.9154, 46.4183), (20.3196, 41.5467), (23.4077, 45.4219), (25.8780, 41.0566),
    (21.9306, 44.8527), (21.5256, 41.9183), (24.9796, 46.8123), (24.2241, 41.2556),
    (22.5966, 42.7892), (21.4209, 46.7022), (22.6598, 43.5076), (21.1332, 45.4945),
)
# Optimal-order bounds L2 <= C h^2 and H1 <= C h for u = sin(pi x) sin(pi y),
# about 1.6 and 1.3 times the constants measured on config II at k = 7
# (L2 / h^2 = 0.61, H1 / h = 2.30).
L2_CONST = 1.0
H1_CONST = 3.0

# sweep-I-p2: sequential refinement on config I, P2, mesh-size ratios up to 4.
SWEEP_K = (2, 4)
# condition-I-p1: condition numbers on config I, P1.
COND_K = (4, 7)
# boundary-layer: the obstacle demo at one refinement level.
BL_K = 1

HEX_INRADIUS = 0.15
HEX_CENTER = (0.5, 0.5)
GEOM_TOL = 1e-9


# ---------------------------------------------------------------------------
# solve-II-p1
# ---------------------------------------------------------------------------

def solve_angles(seed: int, index: int) -> tuple[float, float]:
    """Rotation angles (degrees) of the two rectangles of operation `index`.

    Operations of one run use distinct stacks until all of them are used.
    """
    order = np.random.default_rng(seed).permutation(len(SOLVE_STACKS))
    return SOLVE_STACKS[order[index % len(SOLVE_STACKS)]]


def solve_predomains(angles):
    return [rect_polygon(0.0, 1.0, 0.0, 1.0)] + [
        rotate_rect(b, a) for b, a in zip(SOLVE_BOUNDS, angles)
    ]


def _solve_inputs(seed, index, workdir):
    angles = solve_angles(seed, index)
    return {"angles": angles, "predomains": solve_predomains(angles)}


def _solve_run(inputs):
    """What `stackfem solve` computes for one stack, without the file output."""
    params = cli.ExperimentConfig(degree=1).form_params()
    u, f, grad_u = cli.poisson_fields()
    config = cli.build_stack(inputs["predomains"], [SOLVE_K] * 3, 1)
    res = cli.solve_poisson(config, params, f, u)
    report = cli._error_report(f"II:k{SOLVE_K}", 1, res, u, grad_u)
    return res, report


def rect_corners(bounds, angle_deg: float) -> np.ndarray:
    """Counter-clockwise corners of a rectangle rotated about its centre."""
    x0, x1, y0, y1 = bounds
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    c, s = math.cos(math.radians(angle_deg)), math.sin(math.radians(angle_deg))
    return np.array([
        (cx + c * (x - cx) - s * (y - cy), cy + s * (x - cx) + c * (y - cy))
        for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    ])


def inside_interval(a, b, poly) -> tuple[float, float] | None:
    """Parameter interval of segment a->b inside a convex CCW polygon."""
    lo, hi = 0.0, 1.0
    n = len(poly)
    for k in range(n):
        v, w = poly[k], poly[(k + 1) % n]
        ex, ey = w[0] - v[0], w[1] - v[1]
        fa = ex * (a[1] - v[1]) - ey * (a[0] - v[0])
        fb = ex * (b[1] - v[1]) - ey * (b[0] - v[0])
        if fa < 0 and fb < 0:
            return None
        if fa < 0 or fb < 0:
            t = fa / (fa - fb)
            if fa < 0:
                lo = max(lo, t)
            else:
                hi = min(hi, t)
    return (lo, hi) if hi > lo else None


def exposed_perimeters(polys) -> list[float]:
    """Length of each polygon's boundary outside every polygon above it."""
    out = []
    for i, poly in enumerate(polys):
        total = 0.0
        for k in range(len(poly)):
            a, b = poly[k], poly[(k + 1) % len(poly)]
            spans = sorted(
                iv for q in polys[i + 1:] if (iv := inside_interval(a, b, q)) is not None
            )
            covered, reach = 0.0, 0.0
            for lo, hi in spans:
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += (1.0 - covered) * math.hypot(b[0] - a[0], b[1] - a[1])
        out.append(total)
    return out


def _solve_check(inputs, output):
    res, report = output
    fails = []
    A = res.reduced.matrix.csr
    b = res.reduced.rhs
    x = res.u.to_global()[res.reduced.free]
    resid = float(np.linalg.norm(b - A @ x) / np.linalg.norm(b))
    if not resid <= 1e-10:
        fails.append(f"relative residual {resid:.3e} > 1e-10")
    topo = res.topology
    area = sum(topo.visible_area(i) for i in range(topo.nparts))
    if abs(area - 1.0) > 1e-12:
        fails.append(f"visible areas sum to {area!r}, not 1")
    corners = [rect_corners(bd, a) for bd, a in zip(SOLVE_BOUNDS, inputs["angles"])]
    expected = exposed_perimeters(corners)
    for i, want in enumerate(expected, start=1):
        got = float(topo.gamma_len[i])
        if abs(got - want) > GEOM_TOL * want:
            fails.append(f"interface length of part {i}: {got!r} vs {want!r}")
    h = max(report.h)
    if not report.l2_err <= L2_CONST * h ** 2:
        fails.append(f"L2 error {report.l2_err:.3e} above {L2_CONST} h^2")
    if not report.h1_err <= H1_CONST * h:
        fails.append(f"H1 error {report.h1_err:.3e} above {H1_CONST} h")
    return len(res.reduced.free), fails


# ---------------------------------------------------------------------------
# studies run through `stackfem.cli.main`
# ---------------------------------------------------------------------------

def _study_inputs(argv):
    def make(seed, index, workdir):
        return {"argv": argv + ["--out", str(workdir)],
                "out": Path(workdir)}
    return make


def _study_run(inputs):
    code = cli.main(inputs["argv"])
    if code != 0:
        raise RuntimeError(f"stackfem {' '.join(inputs['argv'])} exited with {code}")


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _rate(coarse, fine, col, hcols) -> float:
    hc = max(float(coarse[c]) for c in hcols)
    hf = max(float(fine[c]) for c in hcols)
    return math.log(float(coarse[col]) / float(fine[col])) / math.log(hc / hf)


def _sweep_check(inputs, output):
    header, *rows = _read_csv(inputs["out"] / "results.csv")
    col = {name: j for j, name in enumerate(header)}
    fails = []
    perms: dict[str, list[list[str]]] = {}
    for row in rows:
        perms.setdefault(row[0].split(":")[1], []).append(row)
    steps = 1 + 3 * (SWEEP_K[1] - SWEEP_K[0])
    if len(perms) != 6 or any(len(r) != steps for r in perms.values()):
        fails.append(f"expected 6 orderings of {steps} solves, got {sorted(perms)}")
    for end in (0, -1):
        distinct = {tuple(r[end][1:]) for r in perms.values()}
        if len(distinct) != 1:
            fails.append(f"orderings disagree on their {'first' if end == 0 else 'last'} row")
    first = next(iter(perms.values()))
    hcols = [col[c] for c in header if c.startswith("h") and c[1:].isdigit()]
    degree = int(first[0][col["p"]])
    for name, optimal in (("l2_err", degree + 1), ("h1_err", degree)):
        rate = _rate(first[0], first[-1], col[name], hcols)
        if abs(rate - optimal) > 0.5:
            fails.append(f"{name} rate {rate:.3f} not near {optimal}")
    return sum(int(r[col["dofs"]]) for r in rows), fails


def reduced_condition_matrix(k: int):
    """The Dirichlet-reduced matrix the condition study estimates at level k."""
    params = cli.ExperimentConfig(config="I", degree=1).form_params()
    config = cli.build_stack(cli.standard_predomains("I"), [k] * 3, 1)
    topo = cli.build_cut_topology(config, params.quad_order)
    system = cli.assemble_system(topo, params)
    bc = cli.build_dirichlet(topo, lambda x, y: np.zeros_like(x))
    return cli.apply_dirichlet(system, np.zeros(system.dim), bc, topo).matrix.csr


def _condition_check(inputs, output):
    from scipy.sparse.linalg import eigsh

    rows = _read_csv(inputs["out"] / "results.csv")[1:-1]
    kappas = [float(r[1]) for r in rows]
    levels = range(COND_K[0], COND_K[1] + 1)
    fails = []
    if len(kappas) != len(levels):
        return 0, [f"expected {len(levels)} condition numbers, got {len(kappas)}"]
    dofs = 0
    for k, kappa in zip(levels, kappas):
        A = reduced_condition_matrix(k)
        dofs += A.shape[0]
        lmax = eigsh(A, k=1, which="LA", return_eigenvectors=False)[0]
        lmin = eigsh(A, k=1, sigma=0.0, which="LM", return_eigenvectors=False)[0]
        want = lmax / lmin
        if not abs(kappa - want) <= 1e-4 * want:
            fails.append(f"kappa at k={k}: {kappa!r} vs eigsh {want!r}")
    growth = kappas[-1] / kappas[-2]
    if not 3.5 <= growth <= 4.5:
        fails.append(f"kappa growth {growth:.3f} per halving of h is not near 4")
    return dofs, fails


def strictly_inside_hexagon(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(inside, outside) masks with a margin: points within GEOM_TOL of the
    boundary are in neither. Edge normals of the obstacle point at 0, 60, ...
    300 degrees."""
    ang = np.radians(60.0 * np.arange(6))
    d = np.max(np.outer(x - HEX_CENTER[0], np.cos(ang))
               + np.outer(y - HEX_CENTER[1], np.sin(ang)), axis=1)
    return d < HEX_INRADIUS - GEOM_TOL, d > HEX_INRADIUS + GEOM_TOL


def _boundary_layer_check(inputs, output):
    out = inputs["out"]
    header, row = _read_csv(out / "results.csv")
    rec = dict(zip(header, row))
    fails = []
    ratio = float(rec["layer_halfwidth"]) / (float(rec["eps"]) * math.log(2.0))
    if abs(ratio - 1.0) > 0.03:
        fails.append(f"layer half-width is {ratio:.4f} eps ln 2")
    probe = np.array(_read_csv(out / f"probe_k{BL_K}.csv")[1:], dtype=float)
    x, y, u = probe.T
    finite = np.isfinite(u)
    if np.any((u[finite] < -1e-9) | (u[finite] > 1.0 + 1e-9)):
        fails.append("probe value outside [0, 1]")
    inside, outside = strictly_inside_hexagon(x, y)
    if np.any(finite & inside) or np.any(~finite & outside):
        fails.append("NaN probe values do not match the hexagon interior")
    return int(rec["dofs"]), fails


WORKLOADS = {
    "solve-II-p1": (_solve_inputs, _solve_run, _solve_check),
    "sweep-I-p2": (
        _study_inputs(["convergence", "--mm-config", "I", "--p", "2",
                       "--k-min", str(SWEEP_K[0]), "--k-max", str(SWEEP_K[1])]),
        _study_run, _sweep_check,
    ),
    "condition-I-p1": (
        _study_inputs(["condition", "--mm-config", "I", "--p", "1",
                       "--k-min", str(COND_K[0]), "--k-max", str(COND_K[1])]),
        _study_run, _condition_check,
    ),
    "boundary-layer": (
        _study_inputs(["boundary-layer", "--k-min", str(BL_K), "--k-max", str(BL_K)]),
        _study_run, _boundary_layer_check,
    ),
}
