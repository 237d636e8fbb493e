"""Experiment drivers and command line interface.

Subcommands reproduce the standard studies end to end: one-shot solves,
sequential refinement permutation sweeps, condition number scaling, and the
reaction-dominated boundary layer demo on a hexagonal obstacle.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis
from .assembly import (
    FormParams,
    ReducedSystem,
    SystemMatrix,
    apply_dirichlet,
    assemble_load,
    assemble_system,
    build_dirichlet,
    dump_matrixmarket,
)
from .geom2d import ConvexPolygon, offset_polygon, rect_polygon, regular_polygon, rotate_rect
from .mesh import FeSpace, build_band_mesh, build_structured_mesh
from .multimesh import (
    CutTopology,
    MultiMeshConfig,
    MultiMeshPart,
    build_cut_topology,
    dump_topology_csv,
)
from .solver import DEFAULT_SEED, SolveReport, cg_solve, condition_number

logger = logging.getLogger(__name__)

__all__ = [
    "ExperimentConfig",
    "SolveResult",
    "SolveDidNotConverge",
    "standard_predomains",
    "build_stack",
    "poisson_fields",
    "solve_poisson",
    "run_equal_refinement",
    "run_permutation_study",
    "run_condition_study",
    "run_boundary_layer",
    "main",
]

STAB_FLAGS = {"grad": "gradient-jump", "l2": "scaled-value-jump"}

HEX_OBSTACLE_INRADIUS = 0.15
HEX_OBSTACLE_CENTER = (0.5, 0.5)


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

def standard_predomains(name: str) -> list[ConvexPolygon]:
    """Predomain stacks of the two reference configurations (or one mesh)."""
    bg = rect_polygon(0.0, 1.0, 0.0, 1.0)
    if name == "single":
        return [bg]
    if name == "I":
        return [bg, rect_polygon(0.2, 0.8, 0.2, 0.8), rect_polygon(0.4, 0.6, 0.4, 0.6)]
    if name == "II":
        return [
            bg,
            rotate_rect((0.2, 0.8, 0.3, 0.75), 23.0),
            rotate_rect((0.3, 0.5, 0.05, 0.8), 44.0),
        ]
    raise ValueError(f"unknown configuration {name!r}")


def build_stack(predomains: list[ConvexPolygon], ks, degree: int) -> MultiMeshConfig:
    """One part per predomain, meshed at target size 2^-k."""
    parts = []
    for pre, k in zip(predomains, ks):
        mesh = build_structured_mesh(pre, 2.0 ** -k)
        parts.append(MultiMeshPart(pre, mesh, FeSpace(mesh, degree)))
    return MultiMeshConfig(parts)


def poisson_fields():
    """Manufactured solution u = sin(pi x) sin(pi y) with -lap u = f."""
    def u(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def f(x, y):
        return 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)

    def grad_u(x, y):
        return np.stack(
            [
                np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
            ],
            axis=-1,
        )

    return u, f, grad_u


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@dataclass
class SolveResult:
    u: analysis.MultimeshFunction
    topology: CutTopology
    system: SystemMatrix
    reduced: ReducedSystem
    report: SolveReport


def solve_poisson(
    config: MultiMeshConfig,
    params: FormParams,
    f,
    g_outer,
    g_inner=None,
    cg_tol: float = 1e-10,
) -> SolveResult:
    """Assemble, constrain and solve one multimesh problem."""
    topology = build_cut_topology(config, params.quad_order)
    system = assemble_system(topology, params)
    load = assemble_load(topology, f, params)
    bc = build_dirichlet(topology, g_outer, g_inner)
    reduced = apply_dirichlet(system, load, bc, topology)
    x, report = cg_solve(reduced.matrix, reduced.rhs, tol=cg_tol)
    u = analysis.MultimeshFunction.from_global(topology, reduced.expand(x))
    return SolveResult(u, topology, system, reduced, report)


def _error_report(name: str, degree: int, res: SolveResult, u_exact,
                  grad_exact) -> analysis.ErrorReport:
    l2, h1 = analysis.error_norms(res.u, res.topology, u_exact, grad_exact)
    diff = analysis.global_interpolant(res.topology, u_exact)
    err = analysis.MultimeshFunction(
        [a - b for a, b in zip(res.u.coeffs, diff.coeffs)]
    )
    energy = analysis.energy_norm(err, res.topology)
    c_hn, c_p = analysis.diagnostics(res.topology)
    return analysis.ErrorReport(
        config=name,
        degree=degree,
        h=tuple(res.topology.mesh_sizes()),
        dofs=len(res.reduced.free),
        l2_err=l2,
        h1_err=h1,
        energy=energy,
        N_O=res.topology.N_O,
        C_hN=c_hn,
        C_P=c_p,
    )


class SolveDidNotConverge(RuntimeError):
    """Raised when a study solve fails to reach the CG tolerance."""


def _solve_stacks(predomains, stacks, degree: int, params: FormParams | None,
                  cg_tol: float) -> list[analysis.ErrorReport]:
    """One error report per (tag, ks) stack, in order. Each distinct ks is
    solved once; a repeat gets that solve's report under its own tag. Only
    the reports are kept, so memory does not grow with the number of stacks."""
    params = params if params is not None else FormParams.defaults(degree)
    u_exact, f, grad_u = poisson_fields()
    solved: dict[tuple, analysis.ErrorReport] = {}
    reports = []
    for tag, ks in stacks:
        if ks not in solved:
            res = solve_poisson(build_stack(predomains, ks, degree), params, f, u_exact,
                                cg_tol=cg_tol)
            if not res.report.converged:
                raise SolveDidNotConverge(
                    f"{tag} (k = {ks}): residual {res.report.relative_residual:.3e} "
                    f"after {res.report.iterations} iterations"
                )
            solved[ks] = _error_report(tag, degree, res, u_exact, grad_u)
        reports.append(replace(solved[ks], config=tag))
    return reports


def run_equal_refinement(
    name: str, predomains, k_values, degree: int = 1, params: FormParams | None = None,
    cg_tol: float = 1e-10,
) -> list[analysis.ErrorReport]:
    """All parts share the mesh size 2^-k for each k: the rate study."""
    stacks = [(f"{name}:k{k}", (k,) * len(predomains)) for k in k_values]
    return _solve_stacks(predomains, stacks, degree, params, cg_tol)


def run_permutation_study(
    name: str, predomains, k_min: int, k_max: int, degree: int = 1,
    params: FormParams | None = None, cg_tol: float = 1e-10,
) -> list[analysis.ErrorReport]:
    """Sequential refinement: each part ordering refines one part at a time
    through the k range, holding the others fixed; all orderings share the
    all-coarse start and the all-fine end."""
    nparts = len(predomains)
    stacks = []
    for perm in itertools.permutations(range(nparts)):
        tag = f"{name}:perm{''.join(str(i) for i in perm)}"
        ks = [k_min] * nparts
        states = [tuple(ks)]
        for part in perm:
            for k in range(k_min + 1, k_max + 1):
                ks[part] = k
                states.append(tuple(ks))
        stacks += [(f"{tag}:step{step}", state) for step, state in enumerate(states)]
    return _solve_stacks(predomains, stacks, degree, params, cg_tol)


def _reduced_matrix(predomains, k: int, degree: int, params: FormParams):
    """Mesh size and Dirichlet-reduced matrix at level k. Only these outlive
    the call, so the assembly data is freed before the eigensolver runs. The
    reduced matrix does not depend on the load, so a zero load stands in."""
    config = build_stack(predomains, [k] * len(predomains), degree)
    topology = build_cut_topology(config, params.quad_order)
    system = assemble_system(topology, params)
    bc = build_dirichlet(topology, lambda x, y: np.zeros_like(x))
    reduced = apply_dirichlet(system, np.zeros(system.dim), bc, topology)
    return float(max(topology.mesh_sizes())), reduced.matrix


def run_condition_study(
    predomains, k_values, degree: int = 1, params: FormParams | None = None,
    seed: int = DEFAULT_SEED,
) -> tuple[list[tuple[float, float]], float]:
    """Condition number of the reduced matrix per common mesh size, with the
    fitted log-log slope. Rows where the eigenvalue estimation fails carry
    NaN and are excluded from the fit."""
    from .solver import EigenEstimationError, NotSPDError

    params = params if params is not None else FormParams.defaults(degree)
    rows = []
    for k in k_values:
        h, matrix = _reduced_matrix(predomains, k, degree, params)
        try:
            kappa = condition_number(matrix, seed=seed)
        except (EigenEstimationError, NotSPDError) as exc:
            logger.warning("condition estimation failed at k=%d: %s", k, exc)
            kappa = float("nan")
        rows.append((h, kappa))
    good = [(h, kappa) for h, kappa in rows if np.isfinite(kappa)]
    if len(good) >= 2:
        slope = float(np.polyfit(np.log([r[0] for r in good]),
                                 np.log([r[1] for r in good]), 1)[0])
    else:
        slope = float("nan")
    return rows, slope


@dataclass
class BoundaryLayerResult:
    k: int
    eps: float
    solve: SolveResult
    probe: np.ndarray        # rows (x, y, u), NaN inside the hole
    layer_halfwidth: float
    corner_value: float


def hexagon_obstacle() -> ConvexPolygon:
    return regular_polygon(6, HEX_OBSTACLE_INRADIUS, HEX_OBSTACLE_CENTER)


def boundary_layer_stack(k: int, degree: int = 1) -> tuple[MultiMeshConfig, float]:
    """Background mesh at H = 2^-(6+k) under a boundary-fitted band of width
    w = 0.1 * 2^-k around the hexagonal obstacle; returns (config, eps)."""
    if not 0 <= k <= 4:
        raise ValueError("boundary layer runs support k = 0..4")
    H = 2.0 ** -(6 + k)
    w = 0.1 * 2.0 ** -k
    eps = w / 2.0
    hexagon = hexagon_obstacle()
    bg_pre = rect_polygon(0.0, 1.0, 0.0, 1.0)
    bg_mesh = build_structured_mesh(bg_pre, H)
    band_h = 2.0 ** -(7 + k)
    band_mesh = build_band_mesh(hexagon, w, band_h)
    band_pre = offset_polygon(hexagon, w)
    parts = [
        MultiMeshPart(bg_pre, bg_mesh, FeSpace(bg_mesh, degree)),
        MultiMeshPart(band_pre, band_mesh, FeSpace(band_mesh, degree), void=hexagon),
    ]
    return MultiMeshConfig(parts), eps


def run_boundary_layer(
    k: int, degree: int = 1, probe_n: int = 101, cg_tol: float = 1e-10,
    params: FormParams | None = None,
) -> BoundaryLayerResult:
    """Solve the obstacle demo at level k. `params` (default: the defaults
    for `degree`) sets the forms; the reaction weight is always eps."""
    config, eps = boundary_layer_stack(k, degree)
    params = replace(params or FormParams.defaults(degree), reaction_eps=eps)
    zero = lambda x, y: np.zeros_like(x)
    one = lambda x, y: np.ones_like(x)
    res = solve_poisson(config, params, zero, zero, g_inner=one, cg_tol=cg_tol)

    xs = np.linspace(0.0, 1.0, probe_n)
    x, y = np.meshgrid(xs, xs)
    grid = np.column_stack([x.ravel(), y.ravel()])
    probe = np.column_stack([grid, analysis.eval_or_nan(res.u, res.topology, grid)])

    hexagon = hexagon_obstacle()
    v = hexagon.vertices
    mid = 0.5 * (v[0] + v[1])
    e = v[1] - v[0]
    n_out = np.array([e[1], -e[0]]) / math.hypot(e[0], e[1])
    ds = np.linspace(0.0, min(12.0 * eps, 0.3), 600)
    vals = analysis.eval_or_nan(res.u, res.topology, mid + ds[:, None] * n_out)
    below = np.flatnonzero(vals < 0.5)
    if len(below):
        j = below[0]
        if j == 0:
            halfwidth = 0.0
        else:
            d0, d1 = ds[j - 1], ds[j]
            v0, v1 = vals[j - 1], vals[j]
            halfwidth = float(d0 + (0.5 - v0) / (v1 - v0) * (d1 - d0))
    else:
        halfwidth = float(ds[-1])
    corner = analysis.eval_or_nan(res.u, res.topology, (0.05, 0.05))[0]
    return BoundaryLayerResult(k, eps, res, probe, halfwidth, float(corner))


# ---------------------------------------------------------------------------
# Command line interface
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    config: str = "I"
    k_min: int = 3
    k_max: int = 6
    degree: int = 1
    beta0: float | None = None
    beta1: float | None = None
    stab: str = "grad"
    seed: int = DEFAULT_SEED
    out: str = "results"
    full: bool = False
    custom_parts: list | None = field(default=None, repr=False)

    def form_params(self) -> FormParams:
        overrides = {"stab_variant": STAB_FLAGS[self.stab]}
        if self.beta0 is not None:
            overrides["beta0"] = self.beta0
        if self.beta1 is not None:
            overrides["beta1"] = self.beta1
        return FormParams.defaults(self.degree, **overrides)

    def predomains(self) -> list[ConvexPolygon]:
        if self.config == "custom":
            if not self.custom_parts:
                raise ValueError("custom configuration needs a 'parts' list in the JSON config")
            pres = [rect_polygon(0.0, 1.0, 0.0, 1.0)]
            for entry in self.custom_parts:
                pres.append(
                    rotate_rect(tuple(entry["bounds"]), float(entry.get("angle", 0.0)))
                )
            return pres
        return standard_predomains(self.config)

    def resolved(self) -> dict:
        p = self.form_params()
        return {
            "config": self.config,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "degree": self.degree,
            "beta0": p.beta0,
            "beta1": p.beta1,
            "stab_variant": p.stab_variant,
            "quad_order": p.quad_order,
            "seed": self.seed,
            "full": self.full,
        }


_CONFIG_KEYS = ("config", "k_min", "k_max", "degree", "beta0", "beta1", "stab", "seed", "out")


def _read_config_file(path: str) -> dict:
    """The JSON config file, each value that a flag also sets parsed by
    that flag; null stays null, as for a flag not given. A bad value is
    argparse's usage error (exit status 2) naming the key and the file."""
    data = json.loads(Path(path).read_text())
    parser = argparse.ArgumentParser(prog="stackfem", exit_on_error=False)
    _add_common(parser)
    for flag in parser._actions:
        if flag.dest in _CONFIG_KEYS and data.get(flag.dest) is not None:
            try:
                parsed = parser.parse_args([f"{flag.option_strings[0]}={data[flag.dest]}"])
            except argparse.ArgumentError as exc:
                parser.error(f"{flag.dest} in {path}: {exc.message}")
            data[flag.dest] = getattr(parsed, flag.dest)
    return data


def _load_experiment(args, k_range: tuple[int, int] = (3, 6),
                     full_range: tuple[int, int] | None = (3, 10)) -> ExperimentConfig:
    """Defaults, then the JSON config file, then flags. k_range is the
    subcommand's default k range; `full`, from the JSON file or --full,
    makes full_range the default instead, so an explicit k bound still wins."""
    data = _read_config_file(args.config_file) if args.config_file else {}
    full = bool(data.get("full")) or bool(getattr(args, "full", False))
    k_min, k_max = full_range if full and full_range is not None else k_range
    cfg = ExperimentConfig(k_min=k_min, k_max=k_max, full=full, custom_parts=data.get("parts"))
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        val = data.get(key) if val is None else val
        if val is not None:
            setattr(cfg, key, val)
    return cfg


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _g17(*values) -> list[str]:
    """Floats with 17 significant digits, enough to read each back exactly."""
    return [f"{v:.17g}" for v in values]


def _write_meta(outdir: Path, cfg: ExperimentConfig, extra: dict | None = None,
                omit: tuple[str, ...] = ()) -> None:
    """meta.json: the resolved settings but those in omit, plus extra."""
    meta = {key: val for key, val in cfg.resolved().items() if key not in omit}
    meta.update(extra or {})
    (outdir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _cmd_solve(args) -> int:
    cfg = _load_experiment(args)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    predomains = cfg.predomains()
    u_exact, f, grad_u = poisson_fields()
    k = cfg.k_min if args.k is None else args.k
    config = build_stack(predomains, [k] * len(predomains), cfg.degree)
    res = solve_poisson(config, cfg.form_params(), f, u_exact)
    if not res.report.converged:
        logger.error("solver did not converge on %s at k=%d: residual %.3e",
                     cfg.config, k, res.report.relative_residual)
        return 1
    rep = _error_report(f"{cfg.config}:k{k}", cfg.degree, res, u_exact, grad_u)
    _write_csv(outdir / "results.csv", analysis.csv_header(len(predomains)),
               [analysis.csv_row(rep)])
    # one level runs, recorded as k: the k range, --full and --seed do not reach it
    _write_meta(outdir, cfg, {"command": "solve", "k": k,
                              "residual": res.report.relative_residual},
                omit=("seed", "k_min", "k_max", "full"))
    if args.dump_matrix:
        dump_matrixmarket(res.system, outdir / "system.mtx")
    if args.dump_topology:
        dump_topology_csv(res.topology, outdir / "facets.csv", outdir / "overlaps.csv")
    print(f"solved {cfg.config} at k={k}: {len(res.reduced.free)} dofs, "
          f"L2 error {rep.l2_err:.6e}, residual {res.report.relative_residual:.2e}")
    return 0


def _cmd_convergence(args) -> int:
    cfg = _load_experiment(args)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    predomains = cfg.predomains()
    mode = "equal" if args.equal else "permutations"
    if args.equal:
        reports = run_equal_refinement(cfg.config, predomains, range(cfg.k_min, cfg.k_max + 1),
                                       cfg.degree, cfg.form_params())
    else:
        reports = run_permutation_study(cfg.config, predomains, cfg.k_min, cfg.k_max,
                                        cfg.degree, cfg.form_params())
    _write_csv(outdir / "results.csv", analysis.csv_header(len(predomains)),
               map(analysis.csv_row, reports))
    # --seed does not reach the run
    _write_meta(outdir, cfg, {"command": "convergence", "mode": mode,
                              "rotation_center": "rectangle centroid"}, omit=("seed",))
    print(f"convergence ({mode}): {len(reports)} rows -> {outdir / 'results.csv'}")
    return 0


def _cmd_condition(args) -> int:
    cfg = _load_experiment(args, k_range=(2, 5))
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows, slope = run_condition_study(
        cfg.predomains(), range(cfg.k_min, cfg.k_max + 1), cfg.degree,
        cfg.form_params(), seed=cfg.seed,
    )
    _write_csv(outdir / "results.csv", ["h", "kappa"],
               [_g17(h, kappa) for h, kappa in rows] + [["slope", *_g17(slope)]])
    _write_meta(outdir, cfg, {"command": "condition", "slope": slope})
    print(f"condition study: slope {slope:.3f} -> {outdir / 'results.csv'}")
    return 0


def _cmd_boundary_layer(args) -> int:
    cfg = _load_experiment(args, k_range=(0, 2), full_range=None)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for k in range(cfg.k_min, cfg.k_max + 1):
        result = run_boundary_layer(k, cfg.degree, params=cfg.form_params())
        rows.append(result)
        _write_csv(outdir / f"probe_k{k}.csv", ["x", "y", "u"],
                   (_g17(*point) for point in result.probe))
    _write_csv(outdir / "results.csv", ["k", "eps", "layer_halfwidth", "corner_value", "dofs"],
               [[r.k, *_g17(r.eps, r.layer_halfwidth, r.corner_value),
                 len(r.solve.reduced.free)] for r in rows])
    # the stack, the reaction term and the k range are fixed: --mm-config,
    # --seed and --full do not reach the run
    _write_meta(outdir, cfg, {"command": "boundary-layer",
                              "obstacle": "regular hexagon, inradius 0.15, center (0.5, 0.5)"},
                omit=("config", "seed", "full"))
    for r in rows:
        print(f"k={r.k}: eps={r.eps:.4g}, layer halfwidth {r.layer_halfwidth:.4g}, "
              f"corner value {r.corner_value:.3e}")
    return 0


def _positive_float(text: str) -> float:
    """argparse type of the penalty weights: a finite float > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):  # NaN fails every comparison
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", dest="config_file", default=None,
                        help="JSON experiment config file")
    parser.add_argument("--mm-config", dest="config", default=None,
                        choices=["I", "II", "single", "custom"],
                        help="mesh stack configuration")
    parser.add_argument("--p", dest="degree", type=int, default=None, choices=[1, 2])
    parser.add_argument("--beta0", type=_positive_float, default=None)
    parser.add_argument("--beta1", type=_positive_float, default=None)
    parser.add_argument("--stab", default=None, choices=["grad", "l2"])
    parser.add_argument("--k-min", dest="k_min", type=int, default=None)
    parser.add_argument("--k-max", dest="k_max", type=int, default=None)
    parser.add_argument("--full", action="store_true",
                        help="full-scale k range 3..10 (large runs)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stackfem",
        description="Poisson and reaction-diffusion solves on stacked intersecting meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="one-shot solve with error report")
    _add_common(p_solve)
    p_solve.add_argument("--k", type=int, default=None, help="mesh refinement level")
    p_solve.add_argument("--dump-matrix", action="store_true",
                         help="also write the system in MatrixMarket format")
    p_solve.add_argument("--dump-topology", action="store_true",
                         help="also write facets.csv and overlaps.csv, one row per "
                              "interface facet and per overlap piece")
    p_solve.set_defaults(func=_cmd_solve)

    p_conv = sub.add_parser("convergence", help="sequential refinement study")
    _add_common(p_conv)
    p_conv.add_argument("--equal", action="store_true",
                        help="refine all parts together instead of the permutation protocol")
    p_conv.set_defaults(func=_cmd_convergence)

    p_cond = sub.add_parser("condition", help="condition number scaling study")
    _add_common(p_cond)
    p_cond.set_defaults(func=_cmd_condition)

    p_bl = sub.add_parser("boundary-layer", help="reaction-dominated obstacle demo")
    _add_common(p_bl)
    p_bl.set_defaults(func=_cmd_boundary_layer)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
