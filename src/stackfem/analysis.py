"""Evaluation and norms of multimesh functions, plus run diagnostics."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import field_values
from .multimesh import CutTopology, QuadBatch, UncutCells, point_locate

__all__ = [
    "MultimeshFunction",
    "EnergyBreakdown",
    "ErrorReport",
    "eval_or_nan",
    "error_norms",
    "energy_norm",
    "global_interpolant",
    "diagnostics",
    "csv_header",
    "csv_row",
]


@dataclass
class MultimeshFunction:
    """Tuple of per-mesh coefficient vectors."""

    coeffs: list[np.ndarray]

    @classmethod
    def from_global(cls, topology: CutTopology, vec: np.ndarray) -> "MultimeshFunction":
        off = topology.block_offsets()
        return cls([np.array(vec[off[i]:off[i + 1]]) for i in range(topology.nparts)])

    def to_global(self) -> np.ndarray:
        return np.concatenate(self.coeffs)


def eval_or_nan(u: MultimeshFunction, topology: CutTopology, xy) -> np.ndarray:
    """Values (n,) of the composite function at the points xy (n, 2): the
    topmost visible mesh wins. NaN outside the composite domain and inside
    voids."""
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    mesh, cell = point_locate(topology, xy)
    out = np.full(len(xy), np.nan)
    for i in range(topology.nparts):
        sel = np.flatnonzero(mesh == i)
        if len(sel):
            space = topology.parts[i].space
            phi, _ = space.tabulate(cell[sel], xy[sel])
            out[sel] = (phi * u.coeffs[i][space.cell_dofs[cell[sel]]]).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def _values(u: MultimeshFunction, batch: QuadBatch, m: int):
    """u and its gradient at every point of a batch, taken in its m-th mesh."""
    phi, grad, dofs = batch.basis[m]
    c = batch.per_point(u.coeffs[batch.meshes[m]][dofs])            # (n, nd)
    return (phi * c).sum(axis=1), np.einsum("nak,na->nk", grad, c)


def _uncut_values(u: MultimeshFunction, uncut: UncutCells):
    """u, its gradient and the weights at the points of the rule in every
    uncut cell, cell by cell: (n,), (n, 2) and (n,)."""
    _, w, phi, grad = uncut.rule()
    dofs, invJ, area = uncut.gather()
    c = u.coeffs[uncut.mesh][dofs]                                   # (nc, nd)
    g = np.tensordot(c, grad, axes=(1, 1)) @ invJ                    # (nc, nq, 2)
    return (c @ phi.T).ravel(), g.reshape(-1, 2), np.outer(area, w).ravel()


def _cell_values(u: MultimeshFunction, topology: CutTopology, order: int, with_points: bool):
    """u, its gradient, the weights and, if asked, the points of the order's
    rule over the visible region of every active cell, with the place of
    each point for field_values: per mesh, each chunk of its uncut cells
    that `cell_quadrature` makes, then the pieces of its cut cells."""
    for chunks, batch in topology.cell_quadrature(order):
        i = batch.meshes[0]
        for uncut in chunks:
            nq = len(uncut.rule()[1])
            yield (*_uncut_values(u, uncut), uncut.points() if with_points else None,
                   lambda q: f"in cell {uncut.cells[q // nq]} of part {i}")
        yield (*_values(u, batch, 0), batch.weights, batch.points,
               lambda q: f"in cell {batch.per_point(batch.cells[:, 0])[q]} of part {i}")


def error_norms(
    u_h: MultimeshFunction,
    topology: CutTopology,
    u_exact,
    grad_exact,
    order: int | None = None,
) -> tuple[float, float]:
    """(L2, H1-seminorm) errors against analytic fields, integrated piecewise
    over every visible region. grad_exact(x, y) returns an (n, 2) array. A
    non-finite exact value raises a ValueError naming the field, the point,
    its cell and its part."""
    if order is None:
        order = 2 * max(p.space.degree for p in topology.parts) + 2
    l2 = 0.0
    h1 = 0.0
    for uh, guh, wq, points, place in _cell_values(u_h, topology, order, with_points=True):
        ue = field_values(u_exact, "u_exact", points, place)
        ge = field_values(grad_exact, "grad_exact", points, place, guh.shape)
        l2 += float(np.dot(wq, (uh - ue) ** 2))
        h1 += float(np.dot(wq, ((guh - ge) ** 2).sum(axis=1)))
    return float(np.sqrt(l2)), float(np.sqrt(h1))


@dataclass
class EnergyBreakdown:
    """The four contributions of the mesh-dependent energy norm (squared):
    visible gradients, overlap gradient jumps, scaled interface fluxes,
    scaled interface value jumps."""

    term_I: float
    term_II: float
    term_III: float
    term_IV: float

    @property
    def total(self) -> float:
        return self.term_I + self.term_II + self.term_III + self.term_IV


def energy_norm(u: MultimeshFunction, topology: CutTopology) -> EnergyBreakdown:
    """Energy norm breakdown; all terms are beta-independent."""
    h = topology.mesh_sizes()
    term_I = 0.0
    for _, g, wq, _, _ in _cell_values(u, topology, topology.quad_order, with_points=False):
        term_I += float(np.dot(wq, (g ** 2).sum(axis=1)))

    term_II = 0.0
    for batch in topology.overlap_batches():
        _, gl = _values(u, batch, 0)
        _, gu = _values(u, batch, 1)
        term_II += float(np.dot(batch.weights, ((gl - gu) ** 2).sum(axis=1)))

    term_III = 0.0
    term_IV = 0.0
    for batch in topology.facet_batches():
        j, i = batch.meshes
        vl, gl = _values(u, batch, 0)
        vu, gu = _values(u, batch, 1)
        wq = batch.weights
        term_III += float(
            h[i] * np.dot(wq, (gu ** 2).sum(axis=1)) + h[j] * np.dot(wq, (gl ** 2).sum(axis=1))
        )
        term_IV += float(np.dot(wq, (vu - vl) ** 2) / (h[i] + h[j]))
    return EnergyBreakdown(term_I, term_II, term_III, term_IV)


def global_interpolant(topology: CutTopology, f) -> MultimeshFunction:
    """Per-mesh nodal interpolation over each full active mesh. A non-finite
    value of f raises a ValueError naming the part and the dof."""
    return MultimeshFunction([
        np.array(field_values(f, "f", p.space.dof_coords, lambda q: f"for dof {q} of part {i}"))
        for i, p in enumerate(topology.parts)
    ])


# ---------------------------------------------------------------------------
# Diagnostics and reports
# ---------------------------------------------------------------------------

def diagnostics(topology: CutTopology) -> tuple[float, float]:
    """The interpolation and conditioning constants (C_hN, C_P) in 2D, from
    the overlap counts N_Oi and the interface lengths gamma_len of the topology."""
    h = topology.mesh_sizes()
    n_oi = topology.N_Oi.astype(float)
    c_hn = 1.0 + float(np.max(h ** 2 * n_oi)) + float(np.max(h * topology.gamma_len))
    c_p = 1.0 + float(np.max(h * n_oi)) + float(np.max(h ** 2 * n_oi))
    return c_hn, c_p


@dataclass
class ErrorReport:
    config: str
    degree: int
    h: tuple[float, ...]
    dofs: int
    l2_err: float
    h1_err: float
    energy: EnergyBreakdown
    N_O: int
    C_hN: float
    C_P: float
    kappa: float | None = None


def csv_header(nparts: int) -> list[str]:
    return (
        ["config", "p"]
        + [f"h{i}" for i in range(nparts)]
        + [
            "dofs",
            "l2_err",
            "h1_err",
            "energy_I",
            "energy_II",
            "energy_III",
            "energy_IV",
            "kappa",
            "N_O",
            "C_hN",
            "C_P",
        ]
    )


def csv_row(report: ErrorReport) -> list[str]:
    fmt = lambda v: f"{v:.17g}"
    return (
        [report.config, str(report.degree)]
        + [fmt(v) for v in report.h]
        + [
            str(report.dofs),
            fmt(report.l2_err),
            fmt(report.h1_err),
            fmt(report.energy.term_I),
            fmt(report.energy.term_II),
            fmt(report.energy.term_III),
            fmt(report.energy.term_IV),
            "" if report.kappa is None else fmt(report.kappa),
            str(report.N_O),
            fmt(report.C_hN),
            fmt(report.C_P),
        ]
    )
