"""Per-entity reference evaluators of the cut integrals and of the cut
topology (test oracles).

The oracles work on one cut entity at a time, held in their own records:
a `CutCell` with the convex pieces of its visible region, an
`InterfaceFacet` with its segment and an `OverlapPiece` with its polygon.
`cut_cells_of`, `facets_of` and `overlaps_of` read them off the arrays of a
`stackfem.multimesh.CutTopology` one entity at a time; `visible_arrays`,
`facet_arrays` and `overlap_arrays` go the other way, so the oracles'
own topology can be compared with the bulk one field by field.

The per-entity rules come next: `triangle_quadrature` on one cell,
`polyset_quadrature` on one visible region or overlap polygon (a fan of
each convex piece from its first vertex, `polygon_fan`) and
`segment_quadrature` on one facet segment. Each is built from the entity's
own geometry (`cc.visible`, `o.polygon`, `f.segment`). `cell_batches`,
`facet_batches` and `overlap_batches` concatenate them into the flat
batches that `CutTopology` builds in bulk, which must match bit for bit.

Each integral evaluator visits one cut cell, interface facet or overlap piece at a
time, lays its own per-entity rule on it, maps the points into the owning
cells one cell at a time and sums the local contributions in plain loops.
They share no code with the batched kernel in `stackfem.assembly` /
`stackfem.analysis` beyond the reference basis functions, the cut topology
geometry and the reference rules of `stackfem.geom2d`, so agreement between
the two is a real check of the batching (entity offsets, per-point cell
gathers, grouping by point count, scatter).

`overlap_pieces` and `interface_facets` build the overlap pieces and the
interface facets the way `stackfem.multimesh` did before it generated
candidate pairs in bulk: one grid query per lower cell or facet segment,
every active upper cell of the bounding-box candidates clipped exactly, and
one point location per sub-segment. The bulk builder must reproduce them bit
for bit. `point_locate` is the scalar point location that evaluation used
before it took arrays: one point, one grid bin and one cell at a time.

The topology oracles clip with the scalar Sutherland-Hodgman code below
(`_split_by_line`, `_as_piece`, `convex_intersect`, `convex_difference`,
`clip_segment`): one polygon or segment at a time in pure Python, as
`stackfem.geom2d` did before it clipped in batches. They share no clipping
code with the batched kernels, which must match them bit for bit.
`_predomain_edge_normal` finds the normal of one facet at a time.

`visible_regions` and `grid_table` are the cell bookkeeping of the cut
topology as loops: a visit to every cell for the active list and a
`lexsort` of the bin table. The mesh and space builders at the end
(`structured_mesh`, `band_mesh`, `boundary_facets`, `band_markers`,
`p2_numbering`, `boundary_dofs`) make the cells, boundary facets, markers and dof numbering
one grid square, ring position or facet at a time, with the edges keyed as
sorted node pairs and `np.unique(axis=0)`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from stackfem.geom2d import (
    AREA_FLOOR,
    REL_TOL,
    ConvexPolygon,
    PolySet,
    Segment,
    offset_polygon,
    polygon_area,
    triangle_rule,
    triangles_quadrature,
)
from stackfem.mesh import (
    MARKER_INNER,
    MARKER_OUTER,
    _rectangle_frame,
    ref_basis,
    ref_basis_grad,
)
from stackfem.multimesh import (
    ConfigError,
    Facets,
    Overlaps,
    Pieces,
    QuadBatch,
)

STAB_GRADIENT = "gradient-jump"


# ---------------------------------------------------------------------------
# Cut entities one at a time
# ---------------------------------------------------------------------------

@dataclass
class CutCell:
    mesh_index: int
    cell: int
    visible: PolySet


@dataclass
class InterfaceFacet:
    segment: Segment
    upper_mesh: int
    upper_cell: int
    lower_mesh: int
    lower_cell: int
    normal: np.ndarray  # unit, outward from the upper predomain


@dataclass
class OverlapPiece:
    polygon: ConvexPolygon
    lower_mesh: int
    lower_cell: int
    upper_mesh: int
    upper_cell: int


def length(seg: Segment) -> float:
    return float(np.hypot(*(seg.b - seg.a)))


def edges(poly: ConvexPolygon):
    """(a, b) vertex pairs of each directed boundary edge."""
    return zip(poly.vertices, np.roll(poly.vertices, -1, axis=0))


def centroid(poly: ConvexPolygon) -> np.ndarray:
    """Centroid of one polygon from the first moments of its edges."""
    v = poly.vertices
    v2 = np.roll(v, -1, axis=0)
    w = v[:, 0] * v2[:, 1] - v[:, 1] * v2[:, 0]
    return ((v + v2) * w[:, None]).sum(axis=0) / (6.0 * poly.area)


def cut_cells_of(topology, i) -> dict[int, CutCell]:
    """The cut cells of mesh i, read from the topology one piece at a time."""
    p = topology.visible[i]
    pieces = {int(c): [] for c in topology.cut_cells[i]}
    for r in range(len(p.cell)):
        pieces[int(p.cell[r])].append(ConvexPolygon(p.verts[r, :p.counts[r]], validate=False))
    return {c: CutCell(i, c, PolySet(ps)) for c, ps in pieces.items()}


def facets_of(topology) -> list[InterfaceFacet]:
    """The topology's interface facets, one record per facet."""
    f = topology.facets
    return [InterfaceFacet(Segment(f.a[k], f.b[k]), int(f.upper_mesh[k]), int(f.upper_cell[k]),
                           int(f.lower_mesh[k]), int(f.lower_cell[k]), f.normal[k])
            for k in range(len(f))]


def overlaps_of(topology) -> list[OverlapPiece]:
    """The topology's overlap pieces, one record per piece."""
    o = topology.overlaps
    return [OverlapPiece(ConvexPolygon(o.verts[k, :o.counts[k]], validate=False),
                         int(o.lower_mesh[k]), int(o.lower_cell[k]), int(o.upper_mesh[k]),
                         int(o.upper_cell[k]))
            for k in range(len(o))]


def _padded(polys):
    """Vertices (n, M, 2), zero padded to the largest count, counts and
    areas of a list of polygons."""
    counts = np.array([len(p.vertices) for p in polys], dtype=np.int64)
    verts = np.zeros((len(polys), counts.max(initial=0), 2))
    for r, p in enumerate(polys):
        verts[r, :counts[r]] = p.vertices
    return verts, counts, np.array([p.area for p in polys], dtype=float)


def visible_arrays(cut_cells: dict[int, CutCell]) -> Pieces:
    """One mesh's cut cells in the layout of `CutTopology.visible`."""
    cells = [c for c, cc in cut_cells.items() for _ in cc.visible.pieces]
    return Pieces(*_padded([p for cc in cut_cells.values() for p in cc.visible.pieces]),
                  np.array(cells, dtype=np.int64))


def _ints(entities, name):
    return np.array([getattr(e, name) for e in entities], dtype=np.int64)


def facet_arrays(facets: list[InterfaceFacet]) -> Facets:
    """Facets in the layout of `CutTopology.facets`."""
    points = np.array([(f.segment.a, f.segment.b, f.normal) for f in facets]).reshape(-1, 3, 2)
    return Facets(*(_ints(facets, name) for name in
                    ("lower_mesh", "lower_cell", "upper_mesh", "upper_cell")),
                  points[:, 0], points[:, 1], points[:, 2])


def overlap_arrays(overlaps: list[OverlapPiece]) -> Overlaps:
    """Overlap pieces in the layout of `CutTopology.overlaps`."""
    return Overlaps(*(_ints(overlaps, name) for name in
                      ("lower_mesh", "lower_cell", "upper_mesh", "upper_cell")),
                    *_padded([o.polygon for o in overlaps]))


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


# ---------------------------------------------------------------------------
# Per-entity rules and the batches they make
# ---------------------------------------------------------------------------

def triangle_quadrature(tri_verts, order):
    """Mapped rule (points, weights) on one physical triangle given as a
    (3, 2) array."""
    return triangles_quadrature(np.asarray(tri_verts, dtype=float)[None], order)


def polygon_fan(v) -> np.ndarray:
    """Triangles (t, 3, 2) of the fan of one convex polygon from its first
    vertex, but those of zero area."""
    tris = np.array([(v[0], v[k], v[k + 1]) for k in range(1, len(v) - 1)]).reshape(-1, 3, 2)
    e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    return tris[0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]) > 0.0]


def polyset_quadrature(S, order):
    """Rule (points, weights) over one PolySet: each convex piece fan-triangulated from its
    first vertex, the mapped rule on every triangle."""
    return triangles_quadrature(np.concatenate([polygon_fan(p.vertices) for p in S.pieces]), order)


def segment_quadrature(seg, order):
    """Gauss rule (points, weights) along one segment, exact for degree <= order."""
    x, w = np.polynomial.legendre.leggauss(max(1, (order + 2) // 2))
    t = 0.5 * (x + 1.0)
    return seg.a[None, :] + t[:, None] * (seg.b - seg.a)[None, :], 0.5 * w * length(seg)


def _batch(meshes, cells, rules, normals=None) -> QuadBatch:
    return QuadBatch(
        meshes,
        np.array(cells, dtype=np.int64).reshape(len(rules), len(meshes)),
        np.concatenate([[0], np.cumsum([len(w) for _, w in rules])]).astype(np.int64),
        np.concatenate([p for p, _ in rules]),
        np.concatenate([w for _, w in rules]),
        None if normals is None else np.array(normals),
    )


def cell_batches(config, active, cut_cells, order) -> list[QuadBatch]:
    """Per mesh: the uncut active cells with the rule of their triangle,
    then the cut cells with the rule of their visible region."""
    out = []
    for i, part in enumerate(config.parts):
        uncut = [int(c) for c in active[i] if int(c) not in cut_cells[i]]
        rules = [triangle_quadrature(part.mesh.cell_vertices(c), order) for c in uncut]
        rules += [polyset_quadrature(cc.visible, order) for cc in cut_cells[i].values()]
        out.append(_batch((i,), uncut + list(cut_cells[i]), rules))
    return out


def _pair_batches(entities, rules, with_normals=False) -> list[QuadBatch]:
    """Entities with positive weight, grouped by (lower, upper) mesh pair."""
    groups = {}
    for e, (pts, w) in zip(entities, rules):
        if w.sum() > 0.0:
            groups.setdefault((e.lower_mesh, e.upper_mesh), []).append((e, (pts, w)))
    return [
        _batch(meshes, [(e.lower_cell, e.upper_cell) for e, _ in ents], [r for _, r in ents],
               [e.normal for e, _ in ents] if with_normals else None)
        for meshes, ents in sorted(groups.items())
    ]


def facet_batches(facets, order) -> list[QuadBatch]:
    return _pair_batches(facets, [segment_quadrature(f.segment, order) for f in facets],
                         with_normals=True)


def overlap_batches(overlaps, order) -> list[QuadBatch]:
    return _pair_batches(overlaps,
                         [polyset_quadrature(PolySet([o.polygon]), order) for o in overlaps])


# ---------------------------------------------------------------------------
# Cut integrals
# ---------------------------------------------------------------------------

def _ref_rule(order):
    bary, w = triangle_rule(order)
    return bary, bary[:, 1:], w


def _visible_quadrature(mesh, cut_cells, cell, order):
    cc = cut_cells.get(cell)
    if cc is None:
        return triangle_quadrature(mesh.cell_vertices(cell), order)
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
        for cell, cc in cut_cells_of(topology, i).items():
            pts, wq = polyset_quadrature(cc.visible, params.quad_order)
            if wq.sum() <= 0.0:
                continue
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
    for f in facets_of(topology):
        i, j = f.upper_mesh, f.lower_mesh
        ki = h[i] / (h[i] + h[j])
        kj = 1.0 - ki
        pen = params.beta0 / (h[i] + h[j])
        pts, wq = segment_quadrature(f.segment, topology.quad_order)
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
    for o in overlaps_of(topology):
        i, j = o.lower_mesh, o.upper_mesh
        pts, wq = polyset_quadrature(PolySet([o.polygon]), topology.quad_order)
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
        for cell, cc in cut_cells_of(topology, i).items():
            pts, wq = polyset_quadrature(cc.visible, params.quad_order)
            if not len(pts):
                continue
            fv = np.broadcast_to(np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float), len(pts))
            ph, _, dofs = _trace(space, cell, pts, offsets[i])
            np.add.at(b, dofs, np.einsum("q,q,qa->a", wq, fv, ph))
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
        cut = cut_cells_of(topology, i)
        for cell in topology.active[i]:
            pts, wq = _visible_quadrature(part.mesh, cut, int(cell), order)
            if not len(pts):
                continue
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
        cut = cut_cells_of(topology, i)
        for cell in topology.active[i]:
            pts, wq = _visible_quadrature(part.mesh, cut, int(cell), topology.quad_order)
            if not len(pts):
                continue
            g = space.grad_in_cell(u.coeffs[i], int(cell), pts)
            term_I += float(np.dot(wq, (g ** 2).sum(axis=1)))

    term_II = 0.0
    for o in overlaps_of(topology):
        pts, wq = polyset_quadrature(PolySet([o.polygon]), topology.quad_order)
        gl = topology.parts[o.lower_mesh].space.grad_in_cell(
            u.coeffs[o.lower_mesh], o.lower_cell, pts
        )
        gu = topology.parts[o.upper_mesh].space.grad_in_cell(
            u.coeffs[o.upper_mesh], o.upper_cell, pts
        )
        term_II += float(np.dot(wq, ((gl - gu) ** 2).sum(axis=1)))

    term_III = 0.0
    term_IV = 0.0
    for f in facets_of(topology):
        i, j = f.upper_mesh, f.lower_mesh
        su = topology.parts[i].space
        sl = topology.parts[j].space
        pts, wq = segment_quadrature(f.segment, topology.quad_order)
        gu = su.grad_in_cell(u.coeffs[i], f.upper_cell, pts)
        gl = sl.grad_in_cell(u.coeffs[j], f.lower_cell, pts)
        vu = su.eval_in_cell(u.coeffs[i], f.upper_cell, pts)
        vl = sl.eval_in_cell(u.coeffs[j], f.lower_cell, pts)
        term_III += float(
            h[i] * np.dot(wq, (gu ** 2).sum(axis=1)) + h[j] * np.dot(wq, (gl ** 2).sum(axis=1))
        )
        term_IV += float(np.dot(wq, (vu - vl) ** 2) / (h[i] + h[j]))
    return term_I, term_II, term_III, term_IV


# ---------------------------------------------------------------------------
# Scalar convex clipping: one polygon or segment at a time
# ---------------------------------------------------------------------------

def _split_by_line(verts: list, px: float, py: float, qx: float, qy: float, tol: float):
    """Split a convex polygon (list of (x, y)) by the directed line p->q.

    Returns (left, right) vertex lists; either may be empty. Vertices within
    tol of the line are emitted to both sides, so left + right tile the input
    and share cut vertices bitwise. Pure Python: the polygons here are tiny
    and this sits in the innermost cut loops.
    """
    ex = qx - px
    ey = qy - py
    inv_norm = 1.0 / math.hypot(ex, ey)
    d = [(ex * (y - py) - ey * (x - px)) * inv_norm for x, y in verts]
    neg_tol = -tol
    if all(v >= neg_tol for v in d):
        return verts, []
    if all(v <= tol for v in d):
        return [], verts
    left: list = []
    right: list = []
    n = len(verts)
    for k in range(n):
        k2 = k + 1 if k + 1 < n else 0
        dk = d[k]
        dk2 = d[k2]
        vk = verts[k]
        if dk >= neg_tol:
            left.append(vk)
        if dk <= tol:
            right.append(vk)
        # genuine sign change: emit the crossing point to both sides
        if (dk > tol and dk2 < neg_tol) or (dk < neg_tol and dk2 > tol):
            t = dk / (dk - dk2)
            vk2 = verts[k2]
            x = (vk[0] + t * (vk2[0] - vk[0]), vk[1] + t * (vk2[1] - vk[1]))
            left.append(x)
            right.append(x)
    return left, right


def _as_piece(verts: list, scale: float) -> ConvexPolygon | None:
    """Build a polygon from raw split output, or None if below the noise floor."""
    if len(verts) < 3:
        return None
    verts = _dedupe_list(verts, REL_TOL * scale)
    if len(verts) < 3:
        return None
    area = polygon_area(verts)
    if area <= AREA_FLOOR * scale * scale:
        return None
    poly = ConvexPolygon.__new__(ConvexPolygon)
    poly.vertices = np.array(verts)
    poly._area = area
    poly._scale = None
    return poly


def _dedupe_list(verts: list, tol_len: float) -> list:
    out = []
    for v in verts:
        if not out or math.hypot(v[0] - out[-1][0], v[1] - out[-1][1]) > tol_len:
            out.append(v)
    if len(out) > 1 and math.hypot(out[-1][0] - out[0][0], out[-1][1] - out[0][1]) <= tol_len:
        out.pop()
    return out


def _edge_list(poly: ConvexPolygon) -> list:
    cached = getattr(poly, "_vlist", None)
    if cached is None:
        cached = [tuple(v) for v in poly.vertices.tolist()]
        poly._vlist = cached
    return cached


def convex_intersect(P: ConvexPolygon, Q: ConvexPolygon) -> PolySet:
    """Intersection P ∩ Q as a PolySet with zero or one convex piece."""
    scale = max(P.scale, Q.scale)
    tol = REL_TOL * scale
    cur = _edge_list(P)
    qv = _edge_list(Q)
    nq = len(qv)
    for k in range(nq):
        a = qv[k]
        b = qv[k + 1 if k + 1 < nq else 0]
        cur, _ = _split_by_line(cur, a[0], a[1], b[0], b[1], tol)
        if len(cur) < 3:
            return PolySet([])
    piece = _as_piece(cur, scale)
    return PolySet([piece] if piece is not None else [])


def convex_difference(P: ConvexPolygon, Q: ConvexPolygon) -> PolySet:
    """Difference P \\ Q as a disjoint convex decomposition.

    Successively splits off the part of P outside each edge half-plane of Q;
    whatever remains after all edges is P ∩ Q and is dropped.
    """
    scale = max(P.scale, Q.scale)
    tol = REL_TOL * scale
    pieces: list[ConvexPolygon] = []
    cur = _edge_list(P)
    qv = _edge_list(Q)
    nq = len(qv)
    for k in range(nq):
        if len(cur) < 3:
            break
        a = qv[k]
        b = qv[k + 1 if k + 1 < nq else 0]
        cur, outside = _split_by_line(cur, a[0], a[1], b[0], b[1], tol)
        piece = _as_piece(outside, scale)
        if piece is not None:
            pieces.append(piece)
    return PolySet(pieces)


def clip_segment(s: Segment, Q: ConvexPolygon, keep_inside: bool = True) -> list[Segment]:
    """Sub-segments of s inside (or outside) Q; inside + outside tile s.

    A segment lying on the boundary of Q counts as inside (deterministic
    tie-break; measure zero for area integrals either way).
    """
    scale = max(Q.scale, length(s), 1e-300)
    tol = REL_TOL * scale
    t_lo, t_hi = 0.0, 1.0
    dir_vec = s.b - s.a
    for p, q in edges(Q):
        norm = math.hypot(q[0] - p[0], q[1] - p[1])
        da = ((q[0] - p[0]) * (s.a[1] - p[1]) - (q[1] - p[1]) * (s.a[0] - p[0])) / norm
        db = ((q[0] - p[0]) * (s.b[1] - p[1]) - (q[1] - p[1]) * (s.b[0] - p[0])) / norm
        if da >= -tol and db >= -tol:
            continue
        if da <= tol and db <= tol:
            t_lo, t_hi = 1.0, 0.0
            break
        t = da / (da - db)
        if db < da:
            t_hi = min(t_hi, t)
        else:
            t_lo = max(t_lo, t)
        if t_lo >= t_hi:
            break
    tol_t = tol / max(length(s), 1e-300)
    inside: list[Segment] = []
    outside: list[Segment] = []
    if t_hi - t_lo > tol_t:
        inside.append(Segment(s.a + t_lo * dir_vec, s.a + t_hi * dir_vec))
        if t_lo > tol_t:
            outside.append(Segment(s.a, s.a + t_lo * dir_vec))
        if t_hi < 1.0 - tol_t:
            outside.append(Segment(s.a + t_hi * dir_vec, s.b))
    else:
        outside.append(Segment(s.a, s.b))
    return inside if keep_inside else outside


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


def overlap_pieces(config, active, grids):
    """Every active cell of mesh i near Q_j against every active cell of
    mesh j in its bounding-box candidates, minus all higher predomains."""
    nparts = config.nparts
    masks = _active_masks(config, active)
    overlaps = []
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
                    if not inter.pieces:
                        continue
                    pieces = inter.pieces
                    for k in range(j + 1, nparts):
                        pieces = [pp for p in pieces
                                  for pp in convex_difference(p, config.parts[k].predomain).pieces]
                        if not pieces:
                            break
                    overlaps.extend(OverlapPiece(p, i, int(c), j, int(cu)) for p in pieces)
    overlaps.sort(key=lambda o: (o.lower_mesh, o.lower_cell, o.upper_mesh, o.upper_cell,
                                 tuple(centroid(o.polygon))))
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


def _predomain_edge_normal(pre: ConvexPolygon, seg: Segment, part: int,
                           cell: int) -> np.ndarray:
    """Outward normal of the predomain edge the segment, a boundary facet
    of the cell of the part's mesh, lies on."""
    tol = REL_TOL * max(pre.scale, 1.0) * 1e3  # mesh nodes sit on edges up to rounding
    mid = 0.5 * (seg.a + seg.b)
    for p, q in edges(pre):
        e = q - p
        ln = math.hypot(e[0], e[1])
        u = e / ln
        off = abs(u[0] * (mid[1] - p[1]) - u[1] * (mid[0] - p[0]))
        along = u[0] * (mid[0] - p[0]) + u[1] * (mid[1] - p[1])
        if off <= tol and -tol <= along <= ln + tol:
            return np.array([u[1], -u[0]])
    raise ConfigError(
        f"boundary facet of part {part}, cell {cell} does not lie on its predomain hull: "
        f"midpoint ({mid[0]:.17g}, {mid[1]:.17g})"
    )


def interface_facets(config, active, grids):
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
            normal = _predomain_edge_normal(part.predomain, whole, i, int(cell))
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
                if length(seg) <= tol:
                    continue
                x0, x1 = sorted((seg.a[0], seg.b[0]))
                y0, y1 = sorted((seg.a[1], seg.b[1]))
                params = {0.0, 1.0}
                for c in query_bbox(grids[j], x0 - tol, x1 + tol, y0 - tol, y1 + tol):
                    iv = _segment_poly_params(seg.a, seg.b, lmesh.nodes[lmesh.cells[c]], tol)
                    if iv is not None:
                        params.update(iv)
                tol_t = tol / length(seg)
                ts = sorted(params)
                for ta, tb in zip(ts[:-1], ts[1:]):
                    if tb - ta <= tol_t:
                        continue
                    d = seg.b - seg.a
                    sub = Segment(seg.a + ta * d, seg.a + tb * d)
                    lower = locate_cell(lmesh, grids[j], 0.5 * (sub.a + sub.b), tol, masks[j])
                    if lower is None:
                        continue
                    facets.append(InterfaceFacet(sub, i, int(cell), j, lower, normal))
    facets.sort(key=lambda f: (f.upper_mesh, f.upper_cell, f.lower_mesh, f.lower_cell,
                               tuple(f.segment.a), tuple(f.segment.b)))
    return facets


# ---------------------------------------------------------------------------
# Cut topology: visible regions and the grid table
# ---------------------------------------------------------------------------

def _signed_dists(points, poly):
    """Distances of points (..., 2) to each polygon edge line, positive inside."""
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    ln = np.hypot(e[:, 0], e[:, 1])
    px = points[..., 0][..., None] - v[:, 0]
    py = points[..., 1][..., None] - v[:, 1]
    return (e[:, 0] * py - e[:, 1] * px) / ln


def visible_regions(config):
    """Active cells, cut cells and the cells each higher predomain cuts,
    with the boxes recomputed per predomain and a visit to every cell."""
    nparts = config.nparts
    active, cut_cells, cut_by = [], [], {}
    for i, part in enumerate(config.parts):
        mesh = part.mesh
        verts = mesh.nodes[mesh.cells]
        areas = mesh.cell_areas()
        tol = REL_TOL * max(part.predomain.scale, 1.0)
        covered = np.zeros(len(mesh.cells), dtype=bool)
        pieces = {}
        for k in range(i + 1, nparts):
            Q = config.parts[k].predomain
            x0, x1, y0, y1 = Q.bounds()
            clo = verts.min(axis=1)
            chi = verts.max(axis=1)
            cand = np.flatnonzero(~covered & (clo[:, 0] <= x1 + tol) & (chi[:, 0] >= x0 - tol)
                                  & (clo[:, 1] <= y1 + tol) & (chi[:, 1] >= y0 - tol))
            if len(cand) == 0:
                continue
            d = _signed_dists(verts[cand], Q)
            fully_in = np.all(d >= -tol, axis=(1, 2))
            separated = np.any(np.all(d < -tol, axis=1), axis=1)
            for c in cand[fully_in]:
                covered[c] = True
                pieces.pop(int(c), None)
            cut_by[i, k] = cand[~fully_in & ~separated]
            for c in cut_by[i, k]:
                c = int(c)
                cur = pieces.get(c) or [ConvexPolygon(verts[c], validate=False)]
                nxt = [q for p in cur for q in convex_difference(p, Q).pieces]
                if nxt:
                    pieces[c] = nxt
                else:
                    covered[c] = True
                    pieces.pop(c, None)
        act, visible = [], {}
        for c in range(len(mesh.cells)):
            if covered[c]:
                continue
            ps = pieces.get(c)
            if ps is None:
                act.append(c)
                continue
            if sum(p.area for p in ps) <= 1e-14 * areas[c]:
                continue
            act.append(c)
            visible[c] = PolySet(ps)
        active.append(np.array(act, dtype=np.int64))
        cut_cells.append({c: CutCell(i, c, vis) for c, vis in visible.items()})
    return active, cut_cells, cut_by


def grid_table(grid):
    """(starts, cells) of a `_CellGrid`: every cell listed in each bin its
    bounding box touches, ordered by bin then cell with `lexsort`."""
    v = grid.mesh.nodes[grid.mesh.cells]
    clo, chi = v.min(axis=1), v.max(axis=1)
    bins, cells = [], []
    for c in range(len(v)):
        ix0, iy0 = (int(b) for b in _grid_bins(grid, clo[c]))
        ix1, iy1 = (int(b) for b in _grid_bins(grid, chi[c]))
        for ix in range(ix0, ix1 + 1):
            for iy in range(iy0, iy1 + 1):
                bins.append(ix * grid.ny + iy)
                cells.append(c)
    bins, cells = np.array(bins, dtype=np.int64), np.array(cells, dtype=np.int64)
    order = np.lexsort((cells, bins))
    return np.searchsorted(bins[order], np.arange(grid.nx * grid.ny + 1)), cells[order]


def _grid_bins(grid, x):
    return (min(max(int((x[0] - grid.lo[0]) / grid.bin), 0), grid.nx - 1),
            min(max(int((x[1] - grid.lo[1]) / grid.bin), 0), grid.ny - 1))


# ---------------------------------------------------------------------------
# Meshes and spaces
# ---------------------------------------------------------------------------

def structured_mesh(polygon, target_h):
    """Nodes and cells of the crossed-diagonal grid, one square at a time."""
    v0, u, w, lu, lw = _rectangle_frame(polygon)
    nx = max(1, math.ceil(lu / target_h - 1e-12))
    ny = max(1, math.ceil(lw / target_h - 1e-12))
    X, Y = np.meshgrid(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1),
                       indexing="ij")
    nodes = v0[None, :] + X.reshape(-1, 1) * u[None, :] + Y.reshape(-1, 1) * w[None, :]
    cells = []
    for i in range(nx):
        for j in range(ny):
            n00, n10 = i * (ny + 1) + j, (i + 1) * (ny + 1) + j
            n01, n11 = n00 + 1, n10 + 1
            if (i + j) % 2 == 0:
                cells += [(n00, n10, n11), (n00, n11, n01)]
            else:
                cells += [(n00, n10, n01), (n10, n11, n01)]
    return nodes, np.array(cells, dtype=np.int64)


def band_mesh(inner, width, target_h):
    """Nodes and cells of the band, one ring edge and one ring position at
    a time, and the size M of a ring."""
    vin, vout = inner.vertices, offset_polygon(inner, width).vertices
    nedge = len(vin)
    nlay = max(1, math.ceil(width / target_h - 1e-12))
    ring_in, ring_out = [], []
    for k in range(nedge):
        a_in, b_in = vin[k], vin[(k + 1) % nedge]
        a_out, b_out = vout[k], vout[(k + 1) % nedge]
        mseg = max(1, math.ceil(np.hypot(*(b_out - a_out)) / target_h - 1e-12))
        t = np.arange(mseg) / mseg
        ring_in.append(a_in[None, :] + t[:, None] * (b_in - a_in)[None, :])
        ring_out.append(a_out[None, :] + t[:, None] * (b_out - a_out)[None, :])
    ring_in, ring_out = np.concatenate(ring_in), np.concatenate(ring_out)
    M = len(ring_in)
    layers = np.arange(nlay + 1) / nlay
    nodes = (ring_in[None] * (1.0 - layers[:, None, None])
             + ring_out[None] * layers[:, None, None]).reshape(-1, 2)
    cells = []
    for layer in range(nlay):
        for r in range(M):
            c00, c10 = layer * M + r, layer * M + (r + 1) % M
            c01, c11 = c00 + M, c10 + M
            tri = [(c00, c10, c11), (c00, c11, c01)]
            for t in tri:
                v = nodes[list(t)]
                cross = ((v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1])
                         - (v[1, 1] - v[0, 1]) * (v[2, 0] - v[0, 0]))
                cells.append((t[0], t[2], t[1]) if cross < 0 else t)
    return nodes, np.array(cells, dtype=np.int64), M


def boundary_facets(cells):
    """(cell, local edge) of every edge that one cell alone holds, sorted."""
    edges = np.sort(cells[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
    _, inverse, counts = np.unique(edges, axis=0, return_inverse=True, return_counts=True)
    facets = [(row // 3, row % 3) for row in range(len(edges))
              if counts[inverse.ravel()[row]] == 1]
    return np.array(sorted(facets), dtype=np.int64).reshape(-1, 2)


def band_markers(cells, facets, M):
    """MARKER_INNER on facets joining two inner-loop nodes (the first M)."""
    markers = np.full(len(facets), MARKER_OUTER, dtype=np.int64)
    for idx, (cell, ledge) in enumerate(facets):
        if cells[cell][ledge] < M and cells[cell][(ledge + 1) % 3] < M:
            markers[idx] = MARKER_INNER
    return markers


def p2_numbering(nodes, cells):
    """P2 cell dofs and dof coordinates: one dof per edge after the nodes,
    numbered by the sorted node pair."""
    edges = np.concatenate([cells[:, [1, 2]], cells[:, [2, 0]], cells[:, [0, 1]]])
    uniq, inverse = np.unique(np.sort(edges, axis=1), axis=0, return_inverse=True)
    edge_dof = len(nodes) + inverse.reshape(3, len(cells)).T
    mids = 0.5 * (nodes[uniq[:, 0]] + nodes[uniq[:, 1]])
    return np.concatenate([cells, edge_dof], axis=1), np.concatenate([nodes, mids])


def boundary_dofs(space, marker=None):
    """Sorted unique dofs of the boundary facets (of one marker), collected
    facet by facet."""
    out = []
    mesh = space.mesh
    for (cell, ledge), mk in zip(mesh.boundary_facets, mesh.boundary_markers):
        if marker is not None and mk != marker:
            continue
        tri = space.cell_dofs[cell]
        a, b = ledge, (ledge + 1) % 3
        out += [tri[a], tri[b]] if space.degree == 1 else [tri[a], tri[b], tri[6 - a - b]]
    return np.unique(np.array(out, dtype=np.int64)) if out else np.zeros(0, dtype=np.int64)
