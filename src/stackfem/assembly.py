"""Assembly of the coupled multimesh system.

Volume terms integrate over each cell's visible region only; interface
facets contribute the symmetric Nitsche consistency terms plus a penalty
weighted by beta0 / (h_i + h_j); overlap pieces contribute the jump
stabilization in one of two variants. Every integral runs on the flat
quadrature batches of the cut topology: all points of a batch are mapped
and tabulated at once, and local matrices are reduced per entity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import io as scipy_io

from .multimesh import CutTopology, QuadBatch
from .solver import CsrMatrix

__all__ = [
    "FormParams",
    "SystemMatrix",
    "DirichletBC",
    "ReducedSystem",
    "kappa_weights",
    "assemble_volume",
    "assemble_interface",
    "assemble_stabilization",
    "assemble_load",
    "assemble_system",
    "build_dirichlet",
    "apply_dirichlet",
    "dump_matrixmarket",
]

STAB_GRADIENT = "gradient-jump"
STAB_VALUE = "scaled-value-jump"

Triplets = tuple[np.ndarray, np.ndarray, np.ndarray]  # COO (rows, cols, vals)


@dataclass
class FormParams:
    """Parameters of the coupled forms.

    beta0 is the interface penalty, beta1 the overlap stabilization weight.
    The defaults follow beta0 = 10 p^2 with beta1 = 1 / beta0 at moderate
    magnitude (0.1), matching the inverse relation the analysis suggests.
    """

    beta0: float = 10.0
    beta1: float = 0.1
    stab_variant: str = STAB_GRADIENT
    reaction_eps: float | None = None
    quad_order: int = 2

    def __post_init__(self):
        for name in ("beta0", "beta1", "reaction_eps"):
            value = getattr(self, name)
            # NaN fails every comparison, so ask for what is valid
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.stab_variant not in (STAB_GRADIENT, STAB_VALUE):
            raise ValueError(f"unknown stabilization variant {self.stab_variant!r}")

    @classmethod
    def defaults(cls, degree: int, **overrides) -> "FormParams":
        kw = dict(beta0=10.0 * degree * degree, beta1=0.1, quad_order=2 * degree)
        kw.update(overrides)
        return cls(**kw)


def kappa_weights(h_i: float, h_j: float) -> tuple[float, float]:
    """Mesh-size weights of the normal-flux average; they sum to 1 exactly."""
    if h_i <= 0 or h_j <= 0:
        raise ValueError("mesh sizes must be positive")
    kappa_i = h_i / (h_i + h_j)
    return kappa_i, 1.0 - kappa_i


def _scatter(blocks) -> Triplets:
    """Triplets (rows, cols, vals) of local matrices, given as a list of
    pairs of dofs (ne, nd) and matrices (ne, nd, nd), in list order."""
    rows = [np.broadcast_to(d[:, :, None], m.shape).ravel() for d, m in blocks]
    cols = [np.broadcast_to(d[:, None, :], m.shape).ravel() for d, m in blocks]
    empty = np.zeros(0, dtype=np.int64)
    return (np.concatenate([empty, *rows]), np.concatenate([empty, *cols]),
            np.concatenate([np.zeros(0), *(m.ravel() for _, m in blocks)]))


@dataclass
class SystemMatrix:
    """Assembled stiffness matrix of the coupled system."""

    matrix: CsrMatrix

    @property
    def dim(self) -> int:
        return self.matrix.dim


def _tabulate(topology: CutTopology, batch: QuadBatch, m: int, offsets: np.ndarray):
    """Basis values and gradients at every point of a batch in its m-th
    mesh, with the global dofs of each entity's cell there."""
    i = batch.meshes[m]
    space = topology.parts[i].space
    phi, grad = space.tabulate(batch.per_point(batch.cells[:, m]), batch.points)
    return phi, grad, offsets[i] + space.cell_dofs[batch.cells[:, m]]


def _entity_blocks(batch: QuadBatch, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Local matrices sum_q w_q sum_k a[q, :, k] b[q, :, k]^T per entity.

    a is (n, na, k) and b is (n, nb, k) over the batch points; the result is
    (ne, na, nb). Entities with the same point count form one batched
    matmul, so no per-point na x nb array is ever made.
    """
    counts = np.diff(batch.starts)
    wa = a * batch.weights[:, None, None]
    out = np.empty((len(counts), a.shape[1], b.shape[1]))
    for c in np.unique(counts):
        ents = np.flatnonzero(counts == c)
        idx = batch.starts[ents, None] + np.arange(c)        # (ne_c, c)
        A = wa[idx].transpose(0, 2, 1, 3).reshape(len(ents), a.shape[1], -1)
        B = b[idx].transpose(0, 2, 1, 3).reshape(len(ents), b.shape[1], -1)
        out[ents] = A @ B.transpose(0, 2, 1)
    return out


def assemble_volume(topology: CutTopology, params: FormParams) -> Triplets:
    """Stiffness (plus optional reaction mass) over every visible region."""
    blocks = []
    offsets = topology.block_offsets()
    for batch in topology.cell_batches(params.quad_order):
        phi, grad, dofs = _tabulate(topology, batch, 0, offsets)
        if params.reaction_eps is not None:
            grad = np.concatenate([grad, phi[:, :, None] / params.reaction_eps], axis=2)
        blocks.append((dofs, _entity_blocks(batch, grad, grad)))
    return _scatter(blocks)


def assemble_interface(topology: CutTopology, params: FormParams) -> Triplets:
    """Nitsche coupling on interface facets.

    Per facet with upper mesh i and lower mesh j: consistency, symmetry and
    penalty terms built from the jump v_i - v_j and the kappa-weighted
    normal-flux average in the upper predomain's outward normal.
    """
    blocks = []
    offsets = topology.block_offsets()
    h = topology.mesh_sizes()
    for batch in topology.facet_batches():
        j, i = batch.meshes
        ki, kj = kappa_weights(h[i], h[j])
        pen = params.beta0 / (h[i] + h[j])
        phi_l, grad_l, dofs_l = _tabulate(topology, batch, 0, offsets)
        phi_u, grad_u, dofs_u = _tabulate(topology, batch, 1, offsets)
        normal = batch.per_point(batch.normals)[:, None, :]
        jump = np.concatenate([phi_u, -phi_l], axis=1)                # (n, nd)
        avg = np.concatenate([ki * (grad_u * normal).sum(axis=2),
                              kj * (grad_l * normal).sum(axis=2)], axis=1)
        # -(avg jump^T + jump avg^T) + pen jump jump^T as one two-channel form
        local = _entity_blocks(
            batch, np.stack([jump, avg], axis=2), np.stack([pen * jump - avg, -jump], axis=2)
        )
        blocks.append((np.concatenate([dofs_u, dofs_l], axis=1), local))
    return _scatter(blocks)


def assemble_stabilization(topology: CutTopology, params: FormParams) -> Triplets:
    """Overlap stabilization: gradient-jump (default) or scaled value-jump."""
    blocks = []
    offsets = topology.block_offsets()
    h = topology.mesh_sizes()
    for batch in topology.overlap_batches():
        i, j = batch.meshes
        phi_l, grad_l, dofs_l = _tabulate(topology, batch, 0, offsets)
        phi_u, grad_u, dofs_u = _tabulate(topology, batch, 1, offsets)
        if params.stab_variant == STAB_GRADIENT:
            D = np.concatenate([grad_l, -grad_u], axis=1)             # (n, nd, 2)
            scale = params.beta1
        else:
            D = np.concatenate([phi_l, -phi_u], axis=1)[:, :, None]
            scale = params.beta1 / (h[i] + h[j]) ** 2
        blocks.append((np.concatenate([dofs_l, dofs_u], axis=1),
                       scale * _entity_blocks(batch, D, D)))
    return _scatter(blocks)


def assemble_load(topology: CutTopology, f, params: FormParams) -> np.ndarray:
    """Load vector: f integrated against each basis over visible regions only."""
    offsets = topology.block_offsets()
    b = np.zeros(topology.total_dim)
    for batch in topology.cell_batches(params.quad_order):
        phi, _, dofs = _tabulate(topology, batch, 0, offsets)
        x, y = batch.points.T
        fw = batch.weights * np.broadcast_to(np.asarray(f(x, y), dtype=float), x.shape)
        b += np.bincount(
            batch.per_point(dofs).ravel(), weights=(fw[:, None] * phi).ravel(),
            minlength=len(b),
        )
    return b


def assemble_system(topology: CutTopology, params: FormParams) -> SystemMatrix:
    """Full coupled matrix: volume + interface + stabilization."""
    rows, cols, vals = map(np.concatenate, zip(
        assemble_volume(topology, params),
        assemble_interface(topology, params),
        assemble_stabilization(topology, params),
    ))
    return SystemMatrix(CsrMatrix.from_triplets(rows, cols, vals, topology.total_dim))


# ---------------------------------------------------------------------------
# Dirichlet conditions
# ---------------------------------------------------------------------------

@dataclass
class DirichletBC:
    """Constrained global dofs with boundary values."""

    dofs: np.ndarray
    values: np.ndarray

    def __init__(self, dofs, values):
        self.dofs = np.asarray(dofs, dtype=np.int64)
        self.values = np.asarray(values, dtype=float)
        if self.dofs.shape != self.values.shape:
            raise ValueError("dof and value arrays differ in length")


def flagged_boundary_dofs(topology: CutTopology, marker: int) -> np.ndarray:
    """Global dofs on boundary facets with the given marker, over all parts."""
    offsets = topology.block_offsets()
    out = []
    for i, part in enumerate(topology.parts):
        d = part.space.boundary_dofs(marker)
        if len(d):
            out.append(offsets[i] + d)
    return np.unique(np.concatenate(out)) if out else np.zeros(0, dtype=np.int64)


def build_dirichlet(topology: CutTopology, g_outer, g_inner=None) -> DirichletBC:
    """Dirichlet data: g_outer on the background boundary, g_inner on
    marker-1 (hole) loops of any part."""
    offsets = topology.block_offsets()
    dofs = []
    vals = []
    bg = topology.parts[0].space
    d0 = bg.boundary_dofs(marker=0)
    coords = bg.dof_coords[d0]
    dofs.append(offsets[0] + d0)
    vals.append(np.broadcast_to(
        np.asarray(g_outer(coords[:, 0], coords[:, 1]), dtype=float), len(d0)
    ))
    for i, part in enumerate(topology.parts):
        d1 = part.space.boundary_dofs(marker=1)
        if len(d1) == 0:
            continue
        if g_inner is None:
            raise ValueError(f"part {i} has inner boundary facets but no g_inner given")
        coords = part.space.dof_coords[d1]
        dofs.append(offsets[i] + d1)
        vals.append(np.broadcast_to(
            np.asarray(g_inner(coords[:, 0], coords[:, 1]), dtype=float), len(d1)
        ))
    return DirichletBC(np.concatenate(dofs), np.concatenate(vals))


@dataclass
class ReducedSystem:
    """Dirichlet-eliminated system restricted to free active dofs."""

    matrix: CsrMatrix
    rhs: np.ndarray
    free: np.ndarray
    bc: DirichletBC
    dim_full: int

    def expand(self, x_free: np.ndarray) -> np.ndarray:
        """Full coefficient vector: solved values on free dofs, boundary data
        on constrained dofs, zero on inactive dofs."""
        full = np.zeros(self.dim_full)
        full[self.free] = x_free
        full[self.bc.dofs] = self.bc.values
        return full


def apply_dirichlet(
    system: SystemMatrix, load: np.ndarray, bc: DirichletBC, topology: CutTopology
) -> ReducedSystem:
    """Symmetric elimination of Dirichlet and inactive dofs.

    Constrained rows and columns are removed and the load is lifted by the
    boundary values; dofs supported only on covered cells leave the system
    entirely (their rows would be zero).
    """
    offsets = topology.block_offsets()
    active = np.zeros(system.dim, dtype=bool)
    for i in range(topology.nparts):
        active[offsets[i] + topology.active_dofs(i)] = True
    flagged = np.concatenate(
        [flagged_boundary_dofs(topology, 0), flagged_boundary_dofs(topology, 1)]
    )
    unknown = np.setdiff1d(bc.dofs, flagged)
    if len(unknown):
        raise ValueError(f"bc dofs {unknown[:5]} are not on a flagged boundary")
    is_bc = np.zeros(system.dim, dtype=bool)
    is_bc[bc.dofs] = True
    free = np.flatnonzero(active & ~is_bc)
    A = system.matrix.csr
    A_ff = A[np.ix_(free, free)]
    rhs = load[free] - A[np.ix_(free, bc.dofs)] @ bc.values
    return ReducedSystem(CsrMatrix(A_ff.tocsr()), rhs, free, bc, system.dim)


def dump_matrixmarket(system: SystemMatrix, path) -> None:
    """Write the assembled matrix in MatrixMarket coordinate format."""
    scipy_io.mmwrite(path, system.matrix.csr.tocoo())
