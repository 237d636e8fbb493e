"""Per-entity reference evaluators of the cut integrals and of the cut
topology (test oracles).

Each integral evaluator visits one cut cell, interface facet or overlap piece at a
time, maps its quadrature points into the owning cells one cell at a time
and sums the local contributions in plain loops. They share no code with
the batched kernel in `stackfem.assembly` / `stackfem.analysis` beyond the
reference basis functions, the cut topology itself and the quadrature rules
of `stackfem.geom2d`, so agreement between the two is a real check of the batching (entity
offsets, per-point cell gathers, grouping by point count, scatter).

`overlap_pieces` and `interface_facets` build the overlap pieces and the
interface facets the way `stackfem.multimesh` did before it generated
candidate pairs in bulk: one grid query per lower cell or facet segment,
every active upper cell of the bounding-box candidates clipped exactly, and
one point location per sub-segment. The bulk builder must reproduce them bit
for bit. `point_locate` is the scalar point location that evaluation used
before it took arrays: one point, one grid bin and one cell at a time.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from stackfem.geom2d import (
    REL_TOL,
    ConvexPolygon,
    PolySet,
    Segment,
    clip_segment,
    convex_difference,
    convex_intersect,
    polyset_quadrature,
    polyset_quadratures,
    segment_quadrature,
    triangle_quadrature,
    triangle_rule,
)
from stackfem.mesh import MARKER_OUTER, ref_basis, ref_basis_grad
from stackfem.multimesh import InterfaceFacet, OverlapPiece, _predomain_edge_normal

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


# ---------------------------------------------------------------------------
# Cut topology: overlap pieces and interface facets
# ---------------------------------------------------------------------------

def query_bbox(grid, x0, x1, y0, y1) -> np.ndarray:
    """Cells registered in the grid bins one box touches, one box at a time."""
    starts, cells = grid._table
    ix0 = min(max(int((x0 - grid.lo[0]) / grid.bin), 0), grid.nx - 1)
    ix1 = min(max(int((x1 - grid.lo[0]) / grid.bin), 0), grid.nx - 1)
    iy0 = min(max(int((y0 - grid.lo[1]) / grid.bin), 0), grid.ny - 1)
    iy1 = min(max(int((y1 - grid.lo[1]) / grid.bin), 0), grid.ny - 1)
    chunks = [cells[starts[ix * grid.ny + iy0]:starts[ix * grid.ny + iy1 + 1]]
              for ix in range(ix0, ix1 + 1)]
    return np.unique(np.concatenate(chunks)) if chunks else np.zeros(0, dtype=int)


def _active_masks(config, active):
    masks = []
    for i, part in enumerate(config.parts):
        mask = np.zeros(len(part.mesh.cells), dtype=bool)
        mask[active[i]] = True
        masks.append(mask)
    return masks


def overlap_pieces(config, active, grids, quad_order):
    """Every active cell of mesh i near Q_j against every active cell of
    mesh j in its bounding-box candidates, minus all higher predomains."""
    nparts = config.nparts
    masks = _active_masks(config, active)
    found = []
    for i in range(nparts - 1):
        lmesh = config.parts[i].mesh
        lverts = lmesh.nodes[lmesh.cells]
        for j in range(i + 1, nparts):
            Q = config.parts[j].predomain
            umesh = config.parts[j].mesh
            x0, x1, y0, y1 = Q.bounds()
            tol = REL_TOL * max(Q.scale, 1.0)
            clo = lverts.min(axis=1)
            chi = lverts.max(axis=1)
            near = ((clo[:, 0] <= x1 + tol) & (chi[:, 0] >= x0 - tol)
                    & (clo[:, 1] <= y1 + tol) & (chi[:, 1] >= y0 - tol))
            for c in active[i]:
                if not near[c]:
                    continue
                tri = ConvexPolygon(lverts[c], validate=False)
                bx0, by0 = lverts[c].min(axis=0)
                bx1, by1 = lverts[c].max(axis=0)
                for cu in query_bbox(grids[j], bx0 - tol, bx1 + tol, by0 - tol, by1 + tol):
                    if not masks[j][cu]:
                        continue
                    utri = ConvexPolygon(umesh.nodes[umesh.cells[cu]], validate=False)
                    inter = convex_intersect(tri, utri)
                    if inter.empty:
                        continue
                    pieces = inter.pieces
                    for k in range(j + 1, nparts):
                        pieces = [pp for p in pieces
                                  for pp in convex_difference(p, config.parts[k].predomain).pieces]
                        if not pieces:
                            break
                    found.extend((p, i, int(c), j, int(cu)) for p in pieces)
    quads = polyset_quadratures([PolySet([f[0]]) for f in found], quad_order)
    overlaps = [OverlapPiece(*f, q) for f, q in zip(found, quads)]
    overlaps.sort(key=lambda o: (o.lower_mesh, o.lower_cell, o.upper_mesh, o.upper_cell,
                                 tuple(o.polygon.centroid())))
    return overlaps


def _segment_poly_params(a, b, poly_verts, tol):
    """Parameter interval of segment a->b inside a convex polygon, or None."""
    t_lo, t_hi = 0.0, 1.0
    n = len(poly_verts)
    for k in range(n):
        p = poly_verts[k]
        q = poly_verts[(k + 1) % n]
        norm = math.hypot(q[0] - p[0], q[1] - p[1])
        da = ((q[0] - p[0]) * (a[1] - p[1]) - (q[1] - p[1]) * (a[0] - p[0])) / norm
        db = ((q[0] - p[0]) * (b[1] - p[1]) - (q[1] - p[1]) * (b[0] - p[0])) / norm
        if da >= -tol and db >= -tol:
            continue
        if da <= tol and db <= tol:
            return None
        t = da / (da - db)
        if db < da:
            t_hi = min(t_hi, t)
        else:
            t_lo = max(t_lo, t)
        if t_lo >= t_hi:
            return None
    return t_lo, t_hi


def locate_cell(mesh, grid, x, tol, active_mask=None):
    """Lowest-index cell containing x (boundary-inclusive), active cells
    first, or None; candidates from the grid bin of x alone."""
    cand = query_bbox(grid, float(x[0]), float(x[0]), float(x[1]), float(x[1]))
    fallback = None
    for c in cand:
        v = mesh.nodes[mesh.cells[c]]
        ok = True
        for k in range(3):
            p, q = v[k], v[(k + 1) % 3]
            ln = math.hypot(q[0] - p[0], q[1] - p[1])
            if (q[0] - p[0]) * (x[1] - p[1]) - (q[1] - p[1]) * (x[0] - p[0]) < -tol * ln:
                ok = False
                break
        if ok:
            if active_mask is None or active_mask[c]:
                return int(c)
            if fallback is None:
                fallback = int(c)
    return fallback


def point_locate(topology, x):
    """(mesh, cell) of the topmost visible region holding x, or None: the
    parts from the top down, a point strictly inside a void holds nothing."""
    x = np.asarray(x, dtype=float)
    for i in range(topology.nparts - 1, -1, -1):
        part = topology.parts[i]
        tol = REL_TOL * max(part.predomain.scale, 1.0)
        if not part.predomain.contains(x, tol):
            continue
        if part.void is not None and part.void.contains_strict(x, tol):
            return None
        cell = locate_cell(part.mesh, topology.grids[i], x, tol, topology.is_active(i))
        if cell is not None:
            return i, cell
    return None


def interface_facets(config, active, grids, quad_order):
    """Each active outer boundary facet, clipped to its visible part, split
    among the lower meshes that own it and at every lower cell edge it
    crosses, one segment at a time."""
    nparts = config.nparts
    masks = _active_masks(config, active)
    facets = []
    for i in range(1, nparts):
        part = config.parts[i]
        mesh = part.mesh
        tol = REL_TOL * max(part.predomain.scale, 1.0)
        for (cell, ledge), marker in zip(mesh.boundary_facets, mesh.boundary_markers):
            if marker != MARKER_OUTER or not masks[i][cell]:
                continue
            a, b = mesh.facet_endpoints(int(cell), int(ledge))
            whole = Segment(a, b)
            normal = _predomain_edge_normal(part.predomain, whole)
            pieces = [whole]
            for k in range(i + 1, nparts):
                pieces = [q for p in pieces
                          for q in clip_segment(p, config.parts[k].predomain, keep_inside=False)]
            owned = []
            cur = pieces
            for m in range(i - 1, -1, -1):
                if not cur:
                    break
                pre_m = config.parts[m].predomain
                void_m = config.parts[m].void
                nxt = []
                for p in cur:
                    ins = clip_segment(p, pre_m, keep_inside=True)
                    nxt.extend(clip_segment(p, pre_m, keep_inside=False))
                    for q in ins:
                        if void_m is not None:
                            owned.extend((m, q2) for q2 in clip_segment(q, void_m, keep_inside=False))
                        else:
                            owned.append((m, q))
                cur = nxt
            for j, seg in owned:
                lmesh = config.parts[j].mesh
                if seg.length <= tol:
                    continue
                x0, x1 = sorted((seg.a[0], seg.b[0]))
                y0, y1 = sorted((seg.a[1], seg.b[1]))
                params = {0.0, 1.0}
                for c in query_bbox(grids[j], x0 - tol, x1 + tol, y0 - tol, y1 + tol):
                    iv = _segment_poly_params(seg.a, seg.b, lmesh.nodes[lmesh.cells[c]], tol)
                    if iv is not None:
                        params.update(iv)
                tol_t = tol / seg.length
                ts = sorted(params)
                for ta, tb in zip(ts[:-1], ts[1:]):
                    if tb - ta <= tol_t:
                        continue
                    sub = Segment(seg.point_at(ta), seg.point_at(tb))
                    lower = locate_cell(lmesh, grids[j], sub.midpoint(), tol, masks[j])
                    if lower is None:
                        continue
                    facets.append(InterfaceFacet(sub, i, int(cell), j, lower, normal,
                                                 segment_quadrature(sub, quad_order)))
    facets.sort(key=lambda f: (f.upper_mesh, f.upper_cell, f.lower_mesh, f.lower_cell,
                               tuple(f.segment.a), tuple(f.segment.b)))
    return facets
