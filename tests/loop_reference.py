"""Per-entity reference evaluators of the cut integrals (test oracles).

Each function visits one cut cell, interface facet or overlap piece at a
time, maps its quadrature points into the owning cells one cell at a time
and sums the local contributions in plain loops. They share no code with
the batched kernel in `stackfem.assembly` / `stackfem.analysis` beyond the
reference basis functions, the cut topology itself and the quadrature rules
of `stackfem.geom2d`, so agreement between the two is a real check of the batching (entity
offsets, per-point cell gathers, grouping by point count, scatter).
"""
from __future__ import annotations

import numpy as np
from scipy import sparse

from stackfem.geom2d import polyset_quadrature, triangle_quadrature, triangle_rule
from stackfem.mesh import ref_basis, ref_basis_grad

STAB_GRADIENT = "gradient-jump"


class _Blocks:
    def __init__(self, dim):
        self.dim = dim
        self.rows, self.cols, self.vals = [], [], []

    def add(self, dofs, local):
        self.rows.append(np.repeat(dofs, len(dofs)))
        self.cols.append(np.tile(dofs, len(dofs)))
        self.vals.append(local.ravel())

    def add_many(self, dofs, local):
        for d, loc in zip(dofs, local):
            self.add(d, loc)

    def matrix(self) -> sparse.csr_matrix:
        if not self.rows:
            return sparse.csr_matrix((self.dim, self.dim))
        coo = sparse.coo_matrix(
            (np.concatenate(self.vals), (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=(self.dim, self.dim),
        )
        return coo.tocsr()


def _ref_rule(order):
    bary, w = triangle_rule(order)
    return bary, bary[:, 1:], w


def _visible_quadrature(topology, i, cell, order):
    cc = topology.cut_cells[i].get(cell)
    if cc is None:
        return triangle_quadrature(topology.parts[i].mesh.cell_vertices(cell), order)
    return polyset_quadrature(cc.visible, order)


def _trace(space, cell, pts, offset):
    mesh = space.mesh
    ref = mesh.ref_coords(cell, pts)
    phi = ref_basis(space.degree, ref)
    grad = ref_basis_grad(space.degree, ref) @ mesh.geometry()[2][cell]
    return phi, grad, offset + space.cell_dofs[cell]


def volume_matrix(topology, params) -> sparse.csr_matrix:
    """Stiffness (plus optional reaction mass) over every visible region."""
    out = _Blocks(topology.total_dim)
    offsets = topology.block_offsets()
    eps2 = 0.0 if params.reaction_eps is None else params.reaction_eps ** -2
    bary, ref_pts, w = _ref_rule(params.quad_order)
    for i, part in enumerate(topology.parts):
        space = part.space
        p = space.degree
        gref = ref_basis_grad(p, ref_pts)
        phi = ref_basis(p, ref_pts)
        mass_ref = np.einsum("q,qa,qb->ab", w, phi, phi)
        cells = topology.uncut_active(i)
        if len(cells):
            _, _, invJ, _ = part.mesh.geometry()
            areas = part.mesh.cell_areas()[cells]
            gp = np.einsum("qak,ckl->cqal", gref, invJ[cells])
            K = np.einsum("q,cqal,cqbl->cab", w, gp, gp)
            if eps2:
                K = K + eps2 * mass_ref[None, :, :]
            K *= areas[:, None, None]
            out.add_many(offsets[i] + space.cell_dofs[cells], K)
        for cell, cc in topology.cut_cells[i].items():
            if cc.visible_quad.total <= 0.0:
                continue
            pts = cc.visible_quad.points
            wq = cc.visible_quad.weights
            ph, g, dofs = _trace(space, cell, pts, offsets[i])
            K = np.einsum("q,qal,qbl->ab", wq, g, g)
            if eps2:
                K = K + eps2 * np.einsum("q,qa,qb->ab", wq, ph, ph)
            out.add(dofs, K)
    return out.matrix()


def interface_matrix(topology, params) -> sparse.csr_matrix:
    """Nitsche consistency, symmetry and penalty terms, facet by facet."""
    out = _Blocks(topology.total_dim)
    offsets = topology.block_offsets()
    h = topology.mesh_sizes()
    for f in topology.facets:
        i, j = f.upper_mesh, f.lower_mesh
        ki = h[i] / (h[i] + h[j])
        kj = 1.0 - ki
        pen = params.beta0 / (h[i] + h[j])
        pts, wq = f.quad.points, f.quad.weights
        phi_u, grad_u, dofs_u = _trace(topology.parts[i].space, f.upper_cell, pts, offsets[i])
        phi_l, grad_l, dofs_l = _trace(topology.parts[j].space, f.lower_cell, pts, offsets[j])
        jump = np.concatenate([phi_u, -phi_l], axis=1)
        avg = np.concatenate([ki * (grad_u @ f.normal), kj * (grad_l @ f.normal)], axis=1)
        AJ = np.einsum("q,qa,qb->ab", wq, avg, jump)
        JJ = np.einsum("q,qa,qb->ab", wq, jump, jump)
        out.add(np.concatenate([dofs_u, dofs_l]), -(AJ + AJ.T) + pen * JJ)
    return out.matrix()


def stabilization_matrix(topology, params) -> sparse.csr_matrix:
    """Overlap jump stabilization, piece by piece."""
    out = _Blocks(topology.total_dim)
    offsets = topology.block_offsets()
    h = topology.mesh_sizes()
    for o in topology.overlaps:
        i, j = o.lower_mesh, o.upper_mesh
        pts, wq = o.quad.points, o.quad.weights
        if wq.sum() <= 0.0:
            continue
        phi_l, grad_l, dofs_l = _trace(topology.parts[i].space, o.lower_cell, pts, offsets[i])
        phi_u, grad_u, dofs_u = _trace(topology.parts[j].space, o.upper_cell, pts, offsets[j])
        if params.stab_variant == STAB_GRADIENT:
            D = np.concatenate([grad_l, -grad_u], axis=1)
            local = params.beta1 * np.einsum("q,qak,qbk->ab", wq, D, D)
        else:
            Jv = np.concatenate([phi_l, -phi_u], axis=1)
            local = params.beta1 / (h[i] + h[j]) ** 2 * np.einsum("q,qa,qb->ab", wq, Jv, Jv)
        out.add(np.concatenate([dofs_l, dofs_u]), local)
    return out.matrix()


def load_vector(topology, f, params) -> np.ndarray:
    """f against each basis function over the visible regions."""
    offsets = topology.block_offsets()
    b = np.zeros(topology.total_dim)
    bary, ref_pts, w = _ref_rule(params.quad_order)
    for i, part in enumerate(topology.parts):
        space = part.space
        phi = ref_basis(space.degree, ref_pts)
        cells = topology.uncut_active(i)
        if len(cells):
            verts = part.mesh.nodes[part.mesh.cells[cells]]
            pts = np.einsum("qv,cvk->cqk", bary, verts)
            fv = np.asarray(f(pts[..., 0].ravel(), pts[..., 1].ravel()), dtype=float)
            fv = np.broadcast_to(fv, pts[..., 0].size).reshape(pts.shape[:2])
            areas = part.mesh.cell_areas()[cells]
            loc = np.einsum("q,cq,qa->ca", w, fv, phi) * areas[:, None]
            np.add.at(b, offsets[i] + space.cell_dofs[cells], loc)
        for cell, cc in topology.cut_cells[i].items():
            pts = cc.visible_quad.points
            if not len(pts):
                continue
            fv = np.broadcast_to(np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float), len(pts))
            ph, _, dofs = _trace(space, cell, pts, offsets[i])
            np.add.at(b, dofs, np.einsum("q,q,qa->a", cc.visible_quad.weights, fv, ph))
    return b


def error_norms(u_h, topology, u_exact, grad_exact, order=None) -> tuple[float, float]:
    """(L2, H1-seminorm) errors, one visible region at a time."""
    if order is None:
        order = 2 * max(p.space.degree for p in topology.parts) + 2
    l2 = 0.0
    h1 = 0.0
    for i, part in enumerate(topology.parts):
        space = part.space
        ci = u_h.coeffs[i]
        for cell in topology.active[i]:
            quad = _visible_quadrature(topology, i, int(cell), order)
            if not len(quad.points):
                continue
            pts, wq = quad.points, quad.weights
            uh = space.eval_in_cell(ci, int(cell), pts)
            guh = space.grad_in_cell(ci, int(cell), pts)
            ue = np.broadcast_to(np.asarray(u_exact(pts[:, 0], pts[:, 1]), dtype=float), uh.shape)
            ge = np.asarray(grad_exact(pts[:, 0], pts[:, 1]), dtype=float).reshape(guh.shape)
            l2 += float(np.dot(wq, (uh - ue) ** 2))
            h1 += float(np.dot(wq, ((guh - ge) ** 2).sum(axis=1)))
    return float(np.sqrt(l2)), float(np.sqrt(h1))


def energy_terms(u, topology) -> tuple[float, float, float, float]:
    """The four squared energy-norm terms, entity by entity."""
    h = topology.mesh_sizes()
    term_I = 0.0
    for i, part in enumerate(topology.parts):
        space = part.space
        for cell in topology.active[i]:
            quad = _visible_quadrature(topology, i, int(cell), topology.quad_order)
            if not len(quad.points):
                continue
            g = space.grad_in_cell(u.coeffs[i], int(cell), quad.points)
            term_I += float(np.dot(quad.weights, (g ** 2).sum(axis=1)))

    term_II = 0.0
    for o in topology.overlaps:
        gl = topology.parts[o.lower_mesh].space.grad_in_cell(
            u.coeffs[o.lower_mesh], o.lower_cell, o.quad.points
        )
        gu = topology.parts[o.upper_mesh].space.grad_in_cell(
            u.coeffs[o.upper_mesh], o.upper_cell, o.quad.points
        )
        term_II += float(np.dot(o.quad.weights, ((gl - gu) ** 2).sum(axis=1)))

    term_III = 0.0
    term_IV = 0.0
    for f in topology.facets:
        i, j = f.upper_mesh, f.lower_mesh
        su = topology.parts[i].space
        sl = topology.parts[j].space
        gu = su.grad_in_cell(u.coeffs[i], f.upper_cell, f.quad.points)
        gl = sl.grad_in_cell(u.coeffs[j], f.lower_cell, f.quad.points)
        vu = su.eval_in_cell(u.coeffs[i], f.upper_cell, f.quad.points)
        vl = sl.eval_in_cell(u.coeffs[j], f.lower_cell, f.quad.points)
        wq = f.quad.weights
        term_III += float(
            h[i] * np.dot(wq, (gu ** 2).sum(axis=1)) + h[j] * np.dot(wq, (gl ** 2).sum(axis=1))
        )
        term_IV += float(np.dot(wq, (vu - vl) ** 2) / (h[i] + h[j]))
    return term_I, term_II, term_III, term_IV
