"""Cut topology of an ordered mesh stack.

Builds, for every mesh in the stack: the active cells and their visible
regions (cell minus all higher predomains), the interface facets between a
mesh boundary and the topmost visible mesh below it, the overlap pieces
where an active cell reaches under a higher mesh, and the combinatorial
overlap counts driving the conditioning diagnostics.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .geom2d import (
    REL_TOL,
    ConvexPolygon,
    PolySet,
    QuadRule,
    Segment,
    clip_segment,
    convex_difference,
    convex_intersect,
    fan_triangles,
    polyset_quadratures,
    segment_quadrature,
    triangle_rule,
    triangles_quadrature,
)
from .mesh import MARKER_OUTER, FeSpace, TriMesh

__all__ = [
    "MultiMeshPart",
    "MultiMeshConfig",
    "CutCell",
    "InterfaceFacet",
    "OverlapPiece",
    "QuadBatch",
    "CutTopology",
    "build_cut_topology",
    "compute_delta_NO",
    "point_locate",
    "dump_topology_csv",
]


class ConfigError(ValueError):
    """Raised when a mesh stack violates the stacking rules."""


@dataclass
class MultiMeshPart:
    predomain: ConvexPolygon
    mesh: TriMesh
    space: FeSpace
    void: ConvexPolygon | None = None


@dataclass
class MultiMeshConfig:
    """Ordered stack of parts; part 0 is the background."""

    parts: list[MultiMeshPart]

    def __post_init__(self):
        if not self.parts:
            raise ConfigError("a multimesh needs at least one part")
        bg = self.parts[0].predomain
        for i, part in enumerate(self.parts):
            pre = part.predomain
            if i > 0:
                for v in pre.vertices:
                    if not bg.contains_strict(v, tol=1e-12 * bg.scale):
                        raise ConfigError(
                            f"part {i} touches or leaves the background boundary"
                        )
            expected = pre.area - (part.void.area if part.void is not None else 0.0)
            if abs(part.mesh.area - expected) > 1e-12 * max(pre.area, 1.0):
                raise ConfigError(
                    f"mesh of part {i} does not triangulate its predomain: "
                    f"area {part.mesh.area:.16g} vs expected {expected:.16g}"
                )
            if part.space.mesh is not part.mesh:
                raise ConfigError(f"space of part {i} is not built on its mesh")

    @property
    def nparts(self) -> int:
        return len(self.parts)


@dataclass
class CutCell:
    mesh_index: int
    cell: int
    visible: PolySet
    visible_quad: QuadRule


@dataclass
class InterfaceFacet:
    segment: Segment
    upper_mesh: int
    upper_cell: int
    lower_mesh: int
    lower_cell: int
    normal: np.ndarray  # unit, outward from the upper predomain
    quad: QuadRule


@dataclass
class OverlapPiece:
    polygon: ConvexPolygon
    lower_mesh: int
    lower_cell: int
    upper_mesh: int
    upper_cell: int
    quad: QuadRule


@dataclass
class QuadBatch:
    """Flat quadrature over a group of entities (visible regions of cells,
    interface facets or overlap pieces) that share their meshes.

    Entity e owns the points starts[e]:starts[e + 1]; its cell in mesh
    meshes[m] is cells[e, m]. Facet batches carry one unit normal per
    entity, outward from the upper predomain.
    """

    meshes: tuple[int, ...]
    cells: np.ndarray        # (ne, len(meshes))
    starts: np.ndarray       # (ne + 1,)
    points: np.ndarray       # (n, 2)
    weights: np.ndarray      # (n,)
    normals: np.ndarray | None = None  # (ne, 2)

    def per_point(self, values: np.ndarray) -> np.ndarray:
        """Repeat per-entity values once for each of the entity's points."""
        return np.repeat(values, np.diff(self.starts), axis=0)


def _pair_batches(entities, with_normals: bool = False) -> list[QuadBatch]:
    """One batch per (lower, upper) mesh pair of facets or overlap pieces."""
    groups: dict[tuple[int, int], list] = {}
    for e in entities:
        if e.quad.total > 0.0:
            groups.setdefault((e.lower_mesh, e.upper_mesh), []).append(e)
    out = []
    for meshes, ents in sorted(groups.items()):
        counts = [len(e.quad.weights) for e in ents]
        out.append(QuadBatch(
            meshes,
            np.array([(e.lower_cell, e.upper_cell) for e in ents], dtype=np.int64),
            np.concatenate([[0], np.cumsum(counts)]),
            np.concatenate([e.quad.points for e in ents]),
            np.concatenate([e.quad.weights for e in ents]),
            np.array([e.normal for e in ents]) if with_normals else None,
        ))
    return out


class _CellGrid:
    """Uniform spatial bins over a mesh; cells register in every bin their
    bounding box touches, so a query never misses a candidate."""

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        v = mesh.nodes[mesh.cells]
        lo = v.min(axis=(0, 1))
        hi = v.max(axis=(0, 1))
        self.lo = lo
        extent = np.maximum(hi - lo, 1e-12)
        self.bin = max(mesh.h, float(extent.max()) / 512)
        self.nx = max(1, int(math.ceil(extent[0] / self.bin)))
        self.ny = max(1, int(math.ceil(extent[1] / self.bin)))
        clo = v.min(axis=1)
        chi = v.max(axis=1)
        ix0 = np.clip(((clo[:, 0] - lo[0]) / self.bin).astype(int), 0, self.nx - 1)
        ix1 = np.clip(((chi[:, 0] - lo[0]) / self.bin).astype(int), 0, self.nx - 1)
        iy0 = np.clip(((clo[:, 1] - lo[1]) / self.bin).astype(int), 0, self.ny - 1)
        iy1 = np.clip(((chi[:, 1] - lo[1]) / self.bin).astype(int), 0, self.ny - 1)
        bins: list[np.ndarray] = []
        cells: list[np.ndarray] = []
        ids = np.arange(len(mesh.cells))
        for dx in range(int((ix1 - ix0).max(initial=0)) + 1):
            for dy in range(int((iy1 - iy0).max(initial=0)) + 1):
                mask = (ix0 + dx <= ix1) & (iy0 + dy <= iy1)
                bins.append((ix0[mask] + dx) * self.ny + (iy0[mask] + dy))
                cells.append(ids[mask])
        allbins = np.concatenate(bins)
        allcells = np.concatenate(cells)
        order = np.lexsort((allcells, allbins))
        allbins, allcells = allbins[order], allcells[order]
        starts = np.searchsorted(allbins, np.arange(self.nx * self.ny + 1))
        self._table = (starts, allcells)

    def _bin_range(self, x0, x1, y0, y1):
        ix0 = min(max(int((x0 - self.lo[0]) / self.bin), 0), self.nx - 1)
        ix1 = min(max(int((x1 - self.lo[0]) / self.bin), 0), self.nx - 1)
        iy0 = min(max(int((y0 - self.lo[1]) / self.bin), 0), self.ny - 1)
        iy1 = min(max(int((y1 - self.lo[1]) / self.bin), 0), self.ny - 1)
        return ix0, ix1, iy0, iy1

    def query_bbox(self, x0, x1, y0, y1) -> np.ndarray:
        starts, cells = self._table
        ix0, ix1, iy0, iy1 = self._bin_range(x0, x1, y0, y1)
        chunks = []
        for ix in range(ix0, ix1 + 1):
            b0 = ix * self.ny + iy0
            b1 = ix * self.ny + iy1 + 1
            chunks.append(cells[starts[b0]:starts[b1]])
        out = np.concatenate(chunks) if chunks else np.zeros(0, dtype=int)
        return np.unique(out)

    def query_point(self, x, y) -> np.ndarray:
        return self.query_bbox(x, x, y, y)


@dataclass
class CutTopology:
    config: MultiMeshConfig
    quad_order: int
    active: list[np.ndarray]                 # sorted active cell ids per mesh
    cut_cells: list[dict[int, CutCell]]      # only cells that are actually cut
    facets: list[InterfaceFacet]
    overlaps: list[OverlapPiece]
    delta: np.ndarray
    N_O: int
    N_Oi: np.ndarray
    gamma_len: np.ndarray
    grids: list[_CellGrid] = field(repr=False, default=None)
    _cache: dict = field(repr=False, compare=False, default_factory=dict)

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def nparts(self) -> int:
        return self.config.nparts

    @property
    def parts(self) -> list[MultiMeshPart]:
        return self.config.parts

    def mesh_sizes(self) -> np.ndarray:
        return np.array([p.mesh.h for p in self.parts])

    def block_offsets(self) -> np.ndarray:
        dims = [p.space.dim for p in self.parts]
        return np.concatenate([[0], np.cumsum(dims)])

    @property
    def total_dim(self) -> int:
        return int(sum(p.space.dim for p in self.parts))

    def is_active(self, i: int) -> np.ndarray:
        def build():
            mask = np.zeros(len(self.parts[i].mesh.cells), dtype=bool)
            mask[self.active[i]] = True
            return mask

        return self._cached(("active", i), build)

    def uncut_active(self, i: int) -> np.ndarray:
        cut = self.cut_cells[i]
        if not cut:
            return self.active[i]
        return self.active[i][~np.isin(self.active[i], np.fromiter(cut, dtype=int))]

    def visible_polyset(self, i: int, cell: int) -> PolySet:
        cc = self.cut_cells[i].get(cell)
        if cc is not None:
            return cc.visible
        tri = ConvexPolygon(self.parts[i].mesh.cell_vertices(cell), validate=False)
        return PolySet([tri])

    def visible_area(self, i: int) -> float:
        mesh = self.parts[i].mesh
        areas = mesh.cell_areas()
        total = float(areas[self.uncut_active(i)].sum())
        total += sum(cc.visible.area for cc in self.cut_cells[i].values())
        return total

    def active_dofs(self, i: int) -> np.ndarray:
        space = self.parts[i].space
        if len(self.active[i]) == 0:
            return np.zeros(0, dtype=np.int64)
        return np.unique(space.cell_dofs[self.active[i]].ravel())

    def cell_batches(self, order: int | None = None) -> list[QuadBatch]:
        """Quadrature over the visible region of every active cell, one batch
        per mesh: the mapped rule of the given order on each uncut cell and
        on each fan triangle of a cut cell's visible pieces."""
        order = self.quad_order if order is None else order
        return self._cached(
            ("cells", order), lambda: [self._cell_batch(i, order) for i in range(self.nparts)]
        )

    def _cell_batch(self, i: int, order: int) -> QuadBatch:
        def cut_fan():
            pieces = [(c, p) for c, cc in self.cut_cells[i].items() for p in cc.visible]
            tris, owner = fan_triangles([p for _, p in pieces])
            return tris, np.array([c for c, _ in pieces], dtype=np.int64)[owner]

        mesh = self.parts[i].mesh
        uncut = self.uncut_active(i)
        cut_tris, cut_owner = self._cached(("fan", i), cut_fan)
        tri_cell = np.concatenate([uncut, cut_owner])
        quad = triangles_quadrature(
            np.concatenate([mesh.nodes[mesh.cells[uncut]], cut_tris]), order
        )
        first = np.flatnonzero(np.diff(tri_cell, prepend=-1) != 0)
        nq = len(triangle_rule(order)[1])
        return QuadBatch(
            (i,), tri_cell[first, None], np.append(first, len(tri_cell)) * nq,
            quad.points, quad.weights,
        )

    def facet_batches(self) -> list[QuadBatch]:
        """Interface facet quadrature, one batch per (lower, upper) mesh pair."""
        return self._cached("facets", lambda: _pair_batches(self.facets, with_normals=True))

    def overlap_batches(self) -> list[QuadBatch]:
        """Overlap piece quadrature, one batch per (lower, upper) mesh pair."""
        return self._cached("overlaps", lambda: _pair_batches(self.overlaps))

    def grid(self, i: int) -> _CellGrid:
        if self.grids is None:
            self.grids = [None] * self.nparts
        if self.grids[i] is None:
            self.grids[i] = _CellGrid(self.parts[i].mesh)
        return self.grids[i]


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _signed_dists(points: np.ndarray, poly: ConvexPolygon) -> np.ndarray:
    """Distances of points (..., 2) to each polygon edge line, positive inside."""
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    ln = np.hypot(e[:, 0], e[:, 1])
    px = points[..., 0][..., None] - v[:, 0]
    py = points[..., 1][..., None] - v[:, 1]
    return (e[:, 0] * py - e[:, 1] * px) / ln


def _visible_regions(config: MultiMeshConfig, quad_order: int):
    """Active cell ids and CutCells per mesh."""
    nparts = config.nparts
    active: list[np.ndarray] = []
    cut_cells: list[dict[int, CutCell]] = []
    for i, part in enumerate(config.parts):
        mesh = part.mesh
        verts = mesh.nodes[mesh.cells]
        areas = mesh.cell_areas()
        scale = part.predomain.scale
        tol = REL_TOL * max(scale, 1.0)
        covered = np.zeros(len(mesh.cells), dtype=bool)
        pieces: dict[int, list[ConvexPolygon]] = {}
        for k in range(i + 1, nparts):
            Q = config.parts[k].predomain
            x0, x1, y0, y1 = Q.bounds()
            clo = verts.min(axis=1)
            chi = verts.max(axis=1)
            cand = np.flatnonzero(
                ~covered
                & (clo[:, 0] <= x1 + tol)
                & (chi[:, 0] >= x0 - tol)
                & (clo[:, 1] <= y1 + tol)
                & (chi[:, 1] >= y0 - tol)
            )
            if len(cand) == 0:
                continue
            d = _signed_dists(verts[cand], Q)  # (nc, 3, nedges)
            fully_in = np.all(d >= -tol, axis=(1, 2))
            separated = np.any(np.all(d < -tol, axis=1), axis=1)
            for c in cand[fully_in]:
                covered[c] = True
                pieces.pop(int(c), None)
            for c in cand[~fully_in & ~separated]:
                c = int(c)
                cur = pieces.get(c)
                if cur is None:
                    cur = [ConvexPolygon(verts[c], validate=False)]
                nxt: list[ConvexPolygon] = []
                for p in cur:
                    nxt.extend(convex_difference(p, Q).pieces)
                if nxt:
                    pieces[c] = nxt
                else:
                    covered[c] = True
                    pieces.pop(c, None)
        act = []
        visible: dict[int, PolySet] = {}
        for c in range(len(mesh.cells)):
            if covered[c]:
                continue
            ps = pieces.get(c)
            if ps is None:
                act.append(c)
                continue
            vis = PolySet(ps)
            if vis.area <= 1e-14 * areas[c]:
                continue
            act.append(c)
            visible[c] = vis
        quads = polyset_quadratures(list(visible.values()), quad_order)
        active.append(np.array(act, dtype=np.int64))
        cut_cells.append({
            c: CutCell(i, c, vis, q) for (c, vis), q in zip(visible.items(), quads)
        })
    return active, cut_cells


def _segment_poly_params(a: np.ndarray, b: np.ndarray, poly_verts: np.ndarray, tol: float):
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


def _predomain_edge_normal(pre: ConvexPolygon, seg: Segment) -> np.ndarray:
    """Outward normal of the predomain edge the segment lies on."""
    tol = REL_TOL * max(pre.scale, 1.0) * 1e3  # mesh nodes sit on edges up to rounding
    mid = seg.midpoint()
    for p, q in pre.edges():
        e = q - p
        ln = math.hypot(e[0], e[1])
        u = e / ln
        off = abs(u[0] * (mid[1] - p[1]) - u[1] * (mid[0] - p[0]))
        along = u[0] * (mid[0] - p[0]) + u[1] * (mid[1] - p[1])
        if off <= tol and -tol <= along <= ln + tol:
            return np.array([u[1], -u[0]])
    raise ConfigError("boundary facet does not lie on its predomain hull")


def _locate_cell(mesh: TriMesh, grid: _CellGrid, x: np.ndarray, tol: float,
                 active_mask: np.ndarray | None = None):
    """Lowest-index cell containing x (boundary-inclusive), or None.

    When a point sits exactly on a shared edge, active cells win the tie:
    covered cells carry pinned dofs and must not be paired with interface
    or evaluation points.
    """
    cand = grid.query_point(float(x[0]), float(x[1]))
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


def _build_facets(config: MultiMeshConfig, active, cut_cells, grids, quad_order: int):
    nparts = config.nparts
    masks = []
    for i in range(nparts):
        mask = np.zeros(len(config.parts[i].mesh.cells), dtype=bool)
        mask[active[i]] = True
        masks.append(mask)
    facets: list[InterfaceFacet] = []
    for i in range(1, nparts):
        part = config.parts[i]
        mesh = part.mesh
        scale = max(part.predomain.scale, 1.0)
        tol = REL_TOL * scale
        is_act = masks[i]
        for (cell, ledge), marker in zip(mesh.boundary_facets, mesh.boundary_markers):
            if marker != MARKER_OUTER or not is_act[cell]:
                continue
            a, b = mesh.facet_endpoints(int(cell), int(ledge))
            whole = Segment(a, b)
            normal = _predomain_edge_normal(part.predomain, whole)
            # keep only the part of the facet not covered by higher predomains
            pieces = [whole]
            for k in range(i + 1, nparts):
                pieces = [
                    q
                    for p in pieces
                    for q in _clip_outside(p, config.parts[k].predomain)
                ]
            # ownership: topmost lower mesh whose visible region holds the piece
            owned: list[tuple[int, Segment]] = []
            cur = pieces
            for m in range(i - 1, -1, -1):
                if not cur:
                    break
                pre_m = config.parts[m].predomain
                void_m = config.parts[m].void
                nxt: list[Segment] = []
                for p in cur:
                    ins = _clip_inside(p, pre_m)
                    nxt.extend(_clip_outside(p, pre_m))
                    for q in ins:
                        if void_m is not None:
                            owned.extend((m, q2) for q2 in _clip_outside(q, void_m))
                        else:
                            owned.append((m, q))
                cur = nxt
            # split owned pieces at lower-mesh edge crossings and pair cells
            for j, seg in owned:
                lmesh = config.parts[j].mesh
                lgrid = grids[j]
                if seg.length <= tol:
                    continue
                x0, x1 = sorted((seg.a[0], seg.b[0]))
                y0, y1 = sorted((seg.a[1], seg.b[1]))
                cand = lgrid.query_bbox(x0 - tol, x1 + tol, y0 - tol, y1 + tol)
                params = {0.0, 1.0}
                for c in cand:
                    iv = _segment_poly_params(
                        seg.a, seg.b, lmesh.nodes[lmesh.cells[c]], tol
                    )
                    if iv is not None:
                        params.update(iv)
                tol_t = tol / seg.length
                ts = sorted(params)
                for ta, tb in zip(ts[:-1], ts[1:]):
                    if tb - ta <= tol_t:
                        continue
                    sub = Segment(seg.point_at(ta), seg.point_at(tb))
                    lower = _locate_cell(lmesh, lgrid, sub.midpoint(), tol, masks[j])
                    if lower is None:
                        continue  # rounding sliver outside the lower mesh
                    facets.append(
                        InterfaceFacet(
                            sub,
                            i,
                            int(cell),
                            j,
                            lower,
                            normal,
                            segment_quadrature(sub, quad_order),
                        )
                    )
    facets.sort(
        key=lambda f: (
            f.upper_mesh,
            f.upper_cell,
            f.lower_mesh,
            f.lower_cell,
            tuple(f.segment.a),
            tuple(f.segment.b),
        )
    )
    return facets


def _clip_inside(seg: Segment, poly: ConvexPolygon) -> list[Segment]:
    return clip_segment(seg, poly, keep_inside=True)


def _clip_outside(seg: Segment, poly: ConvexPolygon) -> list[Segment]:
    return clip_segment(seg, poly, keep_inside=False)


def _build_overlaps(config: MultiMeshConfig, active, grids, quad_order: int):
    nparts = config.nparts
    found: list[tuple] = []
    for i in range(nparts - 1):
        lmesh = config.parts[i].mesh
        lverts = lmesh.nodes[lmesh.cells]
        for j in range(i + 1, nparts):
            Q = config.parts[j].predomain
            umesh = config.parts[j].mesh
            ugrid = grids[j]
            uactive = np.zeros(len(umesh.cells), dtype=bool)
            uactive[active[j]] = True
            x0, x1, y0, y1 = Q.bounds()
            tol = REL_TOL * max(Q.scale, 1.0)
            clo = lverts.min(axis=1)
            chi = lverts.max(axis=1)
            near = (
                (clo[:, 0] <= x1 + tol)
                & (chi[:, 0] >= x0 - tol)
                & (clo[:, 1] <= y1 + tol)
                & (chi[:, 1] >= y0 - tol)
            )
            for c in active[i]:
                if not near[c]:
                    continue
                tri = ConvexPolygon(lverts[c], validate=False)
                bx0, by0 = lverts[c].min(axis=0)
                bx1, by1 = lverts[c].max(axis=0)
                for cu in ugrid.query_bbox(bx0 - tol, bx1 + tol, by0 - tol, by1 + tol):
                    if not uactive[cu]:
                        continue
                    utri = ConvexPolygon(umesh.nodes[umesh.cells[cu]], validate=False)
                    inter = convex_intersect(tri, utri)
                    if inter.empty:
                        continue
                    pieces = inter.pieces
                    for k in range(j + 1, nparts):
                        pieces = [
                            pp
                            for p in pieces
                            for pp in convex_difference(p, config.parts[k].predomain).pieces
                        ]
                        if not pieces:
                            break
                    found.extend((p, i, int(c), j, int(cu)) for p in pieces)
    quads = polyset_quadratures([PolySet([f[0]]) for f in found], quad_order)
    overlaps = [OverlapPiece(*f, q) for f, q in zip(found, quads)]
    overlaps.sort(
        key=lambda o: (
            o.lower_mesh,
            o.lower_cell,
            o.upper_mesh,
            o.upper_cell,
            tuple(o.polygon.centroid()),
        )
    )
    return overlaps


def build_cut_topology(config: MultiMeshConfig, quad_order: int = 2) -> CutTopology:
    """Construct the full cut topology of a mesh stack."""
    nparts = config.nparts
    active, cut_cells = _visible_regions(config, quad_order)
    grids = [_CellGrid(p.mesh) for p in config.parts]
    facets = _build_facets(config, active, cut_cells, grids, quad_order)
    overlaps = _build_overlaps(config, active, grids, quad_order)

    gamma_len = np.zeros(nparts)
    for f in facets:
        gamma_len[f.upper_mesh] += f.segment.length

    topo = CutTopology(
        config=config,
        quad_order=quad_order,
        active=active,
        cut_cells=cut_cells,
        facets=facets,
        overlaps=overlaps,
        delta=None,
        N_O=0,
        N_Oi=None,
        gamma_len=gamma_len,
        grids=grids,
    )
    topo.delta, topo.N_O, topo.N_Oi = compute_delta_NO(topo)
    return topo


def compute_delta_NO(topology: CutTopology):
    """Overlap indicator matrix and overlap counts.

    delta[i, j] = 1 (i < j) when the overlap between active mesh i and the
    visible region of mesh j has positive area; the diagonal is 1 by
    convention. N_O is the largest row or column sum; N_Oi[i] counts the
    meshes below i with nonempty overlap against it.
    """
    n = topology.nparts
    area = np.zeros((n, n))
    for o in topology.overlaps:
        area[o.lower_mesh, o.upper_mesh] += o.polygon.area
    delta = np.eye(n, dtype=np.int64)
    delta[area > 0.0] = 1
    row = delta.sum(axis=1)
    col = delta.sum(axis=0)
    N_O = int(max(row.max(), col.max()))
    N_Oi = np.array([int(delta[:i, i].sum()) for i in range(n)])
    return delta, N_O, N_Oi


def point_locate(topology: CutTopology, x) -> tuple[int, int] | None:
    """Topmost mesh and cell whose visible region contains x, or None.

    Points on a predomain boundary resolve to the higher mesh; points
    strictly inside a void (a hole) resolve to nothing.
    """
    x = np.asarray(x, dtype=float)
    for i in range(topology.nparts - 1, -1, -1):
        part = topology.parts[i]
        tol = REL_TOL * max(part.predomain.scale, 1.0)
        if not part.predomain.contains(x, tol):
            continue
        if part.void is not None and part.void.contains_strict(x, tol):
            return None
        cell = _locate_cell(part.mesh, topology.grid(i), x, tol, topology.is_active(i))
        if cell is not None:
            return i, cell
    return None


def dump_topology_csv(topology: CutTopology, facet_path, overlap_path) -> None:
    """Geometric regression dump: one row per facet and per overlap piece."""
    with open(facet_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "ax", "ay", "bx", "by", "nx", "ny"])
        for f in topology.facets:
            w.writerow(
                [f.upper_mesh, f.lower_mesh]
                + [f"{v:.17g}" for v in (*f.segment.a, *f.segment.b, *f.normal)]
            )
    with open(overlap_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "area", "cx", "cy"])
        for o in topology.overlaps:
            c = o.polygon.centroid()
            w.writerow(
                [o.lower_mesh, o.upper_mesh]
                + [f"{v:.17g}" for v in (o.polygon.area, c[0], c[1])]
            )
