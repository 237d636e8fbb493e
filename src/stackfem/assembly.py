"""Assembly of the coupled multimesh system.

Volume terms integrate over each cell's visible region only; interface
facets contribute the symmetric Nitsche consistency terms plus a penalty
weighted by beta0 / (h_i + h_j); overlap pieces contribute the jump
stabilization in one of two variants. Uncut cells are integrated on the
reference triangle: their local matrices are one product of per-cell
geometry with sums tabulated once per degree and order. Every cut integral
runs on the flat quadrature batches of the cut topology, which carry their
basis in each of their meshes: assembly only contracts it, and local
matrices are reduced per entity. Each matrix term returns its local
matrices as blocks, pairs of global dofs (ne, nd) and matrices
(ne, nd, nd); `assemble_system` scatters the blocks of all three terms
into one set of COO triplets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import field_values
from .multimesh import CutTopology, QuadBatch, UncutCells
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
    if not (h_i > 0 and h_j > 0):
        raise ValueError("mesh sizes must be positive")
    kappa_i = h_i / (h_i + h_j)
    return kappa_i, 1.0 - kappa_i


def _scatter(blocks: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets (rows, cols, vals) of a list of blocks, in list order."""
    n = sum(m.size for _, m in blocks)
    rows, cols, vals = np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int32), np.empty(n)
    k = 0
    for d, m in blocks:
        rows[k:k + m.size].reshape(m.shape)[...] = d[:, :, None]
        cols[k:k + m.size].reshape(m.shape)[...] = d[:, None, :]
        vals[k:k + m.size] = m.ravel()
        k += m.size
    return rows, cols, vals


@dataclass
class SystemMatrix:
    """Assembled stiffness matrix of the coupled system."""

    matrix: CsrMatrix

    @property
    def dim(self) -> int:
        return self.matrix.dim


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


def _uncut_volume(uncut: UncutCells, params: FormParams, offset: int):
    """Global dofs (nc, nd) and local stiffness (plus reaction mass)
    matrices (nc, nd, nd) of the uncut cells. The stiffness of a cell is
    area * sum_kl M[k, l] S[k, l] with M = invJ invJ^T and the reference
    sums S[k, l] = sum_q w_q g_q[:, k] g_q[:, l]^T of the basis gradients."""
    _, w, phi, grad = uncut.rule()
    nd = phi.shape[1]
    dofs, invJ, area = uncut.gather()
    ref = np.einsum("q,qak,qbl->klab", w, grad, grad).reshape(4, nd * nd)
    a, b, c, d = invJ.reshape(-1, 4).T                               # invJ = [[a, b], [c, d]]
    off = (a * c + b * d) * area
    local = np.stack([(a * a + b * b) * area, off, off, (c * c + d * d) * area], axis=1) @ ref
    if params.reaction_eps is not None:
        mass = np.einsum("q,qa,qb->ab", w, phi, phi) / params.reaction_eps ** 2
        local += area[:, None] * mass.ravel()
    return offset + dofs, local.reshape(-1, nd, nd)


def assemble_volume(topology: CutTopology, params: FormParams) -> list:
    """Stiffness (plus optional reaction mass) over every visible region."""
    blocks = []
    offsets = topology.block_offsets()
    for uncut, batch in topology.cell_quadrature(params.quad_order):
        blocks.append(_uncut_volume(uncut, params, offsets[uncut.mesh]))
        phi, grad, dofs = batch.basis[0]
        if params.reaction_eps is not None:
            grad = np.concatenate([grad, phi[:, :, None] / params.reaction_eps], axis=2)
        blocks.append((offsets[uncut.mesh] + dofs, _entity_blocks(batch, grad, grad)))
    return blocks


def assemble_interface(topology: CutTopology, params: FormParams) -> list:
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
        phi_l, grad_l, dofs_l = batch.basis[0]
        phi_u, grad_u, dofs_u = batch.basis[1]
        normal = batch.per_point(batch.normals)[:, None, :]
        jump = np.concatenate([phi_u, -phi_l], axis=1)                # (n, nd)
        avg = np.concatenate([ki * (grad_u * normal).sum(axis=2),
                              kj * (grad_l * normal).sum(axis=2)], axis=1)
        # -(avg jump^T + jump avg^T) + pen jump jump^T as one two-channel form
        local = _entity_blocks(
            batch, np.stack([jump, avg], axis=2), np.stack([pen * jump - avg, -jump], axis=2)
        )
        blocks.append((np.concatenate([offsets[i] + dofs_u, offsets[j] + dofs_l], axis=1), local))
    return blocks


def assemble_stabilization(topology: CutTopology, params: FormParams) -> list:
    """Overlap stabilization: gradient-jump (default) or scaled value-jump."""
    blocks = []
    offsets = topology.block_offsets()
    h = topology.mesh_sizes()
    for batch in topology.overlap_batches():
        i, j = batch.meshes
        phi_l, grad_l, dofs_l = batch.basis[0]
        phi_u, grad_u, dofs_u = batch.basis[1]
        if params.stab_variant == STAB_GRADIENT:
            D = np.concatenate([grad_l, -grad_u], axis=1)             # (n, nd, 2)
            scale = params.beta1
        else:
            D = np.concatenate([phi_l, -phi_u], axis=1)[:, :, None]
            scale = params.beta1 / (h[i] + h[j]) ** 2
        blocks.append((np.concatenate([offsets[i] + dofs_l, offsets[j] + dofs_u], axis=1),
                       scale * _entity_blocks(batch, D, D)))
    return blocks


def assemble_load(topology: CutTopology, f, params: FormParams) -> np.ndarray:
    """Load vector: f integrated against each basis over visible regions only.
    A non-finite value of f raises a ValueError naming its part, cell and point."""
    offsets = topology.block_offsets()
    b = np.zeros(topology.total_dim)
    for uncut, batch in topology.cell_quadrature(params.quad_order):
        i = uncut.mesh
        _, w, phi, _ = uncut.rule()
        dofs, _, area = uncut.gather()
        fx = field_values(f, "load f", uncut.points(),
                          lambda q: f"in cell {uncut.cells[q // len(w)]} of part {i}")
        local = (fx.reshape(-1, len(w)) * w) @ phi * area[:, None]
        b += np.bincount((offsets[i] + dofs).ravel(), weights=local.ravel(), minlength=len(b))
        phi, _, dofs = batch.basis[0]
        fx = field_values(f, "load f", batch.points, lambda q: (
            f"in cell {batch.per_point(batch.cells[:, 0])[q]} of part {i}"))
        b += np.bincount(batch.per_point(offsets[i] + dofs).ravel(),
                         weights=((batch.weights * fx)[:, None] * phi).ravel(), minlength=len(b))
    return b


def assemble_system(topology: CutTopology, params: FormParams) -> SystemMatrix:
    """Full coupled matrix: the blocks of volume, interface and
    stabilization, in that order, scattered into one set of triplets."""
    # the blocks are freed once scattered, before the CSR conversion
    triplets = _scatter([*assemble_volume(topology, params), *assemble_interface(topology, params),
                         *assemble_stabilization(topology, params)])
    return SystemMatrix(CsrMatrix.from_triplets(*triplets, topology.total_dim))


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


def build_dirichlet(topology: CutTopology, g_outer, g_inner=None) -> DirichletBC:
    """Dirichlet data: g_outer on the background boundary, g_inner on
    marker-1 (hole) loops of any part. A non-finite value raises a
    ValueError naming the part and the dof."""
    offsets = topology.block_offsets()
    dofs, vals = [], []
    sides = [(0, 0, "g_outer", g_outer)] + [(i, 1, "g_inner", g_inner)
                                            for i in range(topology.nparts)]
    for i, marker, name, g in sides:
        space = topology.parts[i].space
        d = space.boundary_dofs(marker)
        if len(d) == 0:
            continue
        if g is None:
            raise ValueError(f"part {i} has inner boundary facets but no g_inner given")
        dofs.append(offsets[i] + d)
        vals.append(field_values(g, name, space.dof_coords[d],
                                 lambda q: f"for dof {d[q]} of part {i}"))
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
    flagged = []
    for i, part in enumerate(topology.parts):
        active[offsets[i] + topology.active_dofs(i)] = True
        flagged.append(offsets[i] + part.space.boundary_dofs())
    unknown = np.setdiff1d(bc.dofs, np.concatenate(flagged))
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
    from scipy import io as scipy_io  # imported here: only this dump needs it

    scipy_io.mmwrite(path, system.matrix.csr.tocoo())
