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
        ix0, ix1 = self._bins(clo[:, 0], 0), self._bins(chi[:, 0], 0)
        iy0, iy1 = self._bins(clo[:, 1], 1), self._bins(chi[:, 1], 1)
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

    def _bins(self, x: np.ndarray, axis: int) -> np.ndarray:
        """Bin index along an axis of each coordinate, clamped to the grid."""
        n = self.nx if axis == 0 else self.ny
        return np.clip(((x - self.lo[axis]) / self.bin).astype(np.int64), 0, n - 1)

    def query_bboxes(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate cells of many boxes [lo[q], hi[q]] (each (n, 2)) at once.

        Returns (query, cell) index pairs, sorted by query then cell and free
        of duplicates: every cell registered in a bin that box q touches.
        """
        starts, cells = self._table
        ix0, ix1 = self._bins(lo[:, 0], 0), self._bins(hi[:, 0], 0)
        iy0, iy1 = self._bins(lo[:, 1], 1), self._bins(hi[:, 1], 1)
        # one run per (query, bin column): bins iy0..iy1 of a column are
        # consecutive in the table, so their cells are one slice of it
        ncols = ix1 - ix0 + 1
        q = np.repeat(np.arange(len(lo)), ncols)
        col = (ix0[q] + _ranks(ncols)) * self.ny
        first = starts[col + iy0[q]]
        count = starts[col + iy1[q] + 1] - first
        pos = np.repeat(first, count) + _ranks(count)
        ncells = len(self.mesh.cells)
        key = np.unique(np.repeat(q, count) * ncells + cells[pos])
        return key // ncells, key % ncells


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., counts[k] - 1 for each k in turn, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _mask(ids: np.ndarray, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


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
    grids: list[_CellGrid] = field(repr=False)
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
        return self._cached(
            ("active", i), lambda: _mask(self.active[i], len(self.parts[i].mesh.cells))
        )

    def uncut_active(self, i: int) -> np.ndarray:
        cut = self.cut_cells[i]
        if not cut:
            return self.active[i]
        return self.active[i][~np.isin(self.active[i], np.fromiter(cut, dtype=int))]

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
    """Active cell ids and CutCells per mesh, and for each pair i < k the
    cells of mesh i that predomain k cuts: an active cell of mesh i can
    overlap Q_k with positive area only if it is among them."""
    nparts = config.nparts
    active: list[np.ndarray] = []
    cut_cells: list[dict[int, CutCell]] = []
    cut_by: dict[tuple[int, int], np.ndarray] = {}
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
            cut_by[i, k] = cand[~fully_in & ~separated]
            for c in cut_by[i, k]:
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
    return active, cut_cells, cut_by


def _cell_edges(mesh: TriMesh, cells: np.ndarray):
    """Vertices (n, 3, 2), edge vectors v[k+1] - v[k] and edge lengths of
    the given cells.

    The lengths come from `math.hypot`, as in `clip_segment`, so the
    vectorized segment clip and point-in-cell test below keep the scalar
    arithmetic bit for bit; each distinct cell is measured once.
    """
    uniq, inv = np.unique(cells, return_inverse=True)
    v = mesh.nodes[mesh.cells[uniq]]
    e = np.roll(v, -1, axis=1) - v
    ln = np.array([math.hypot(x, y) for x, y in e.reshape(-1, 2).tolist()]).reshape(-1, 3)
    return v[inv], e[inv], ln[inv]


def _segment_cell_params(a: np.ndarray, b: np.ndarray, mesh: TriMesh, cells: np.ndarray,
                         tol: np.ndarray):
    """Parameter interval [t_lo, t_hi] of each segment a[n]->b[n] inside the
    cell cells[n], and whether it is nonempty.

    Clips against the edge half-planes in order with the arithmetic of
    `clip_segment`: an end within tol of an edge line counts as inside.
    """
    tris, e, ln = _cell_edges(mesh, cells)
    t_lo = np.zeros(len(a))
    t_hi = np.ones(len(a))
    hit = np.ones(len(a), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(3):
            p = tris[:, k]
            da = (e[:, k, 0] * (a[:, 1] - p[:, 1]) - e[:, k, 1] * (a[:, 0] - p[:, 0])) / ln[:, k]
            db = (e[:, k, 0] * (b[:, 1] - p[:, 1]) - e[:, k, 1] * (b[:, 0] - p[:, 0])) / ln[:, k]
            inside = (da >= -tol) & (db >= -tol)
            hit &= inside | (da > tol) | (db > tol)
            t = da / (da - db)
            leaves = hit & ~inside & (db < da)
            enters = hit & ~inside & ~(db < da)
            t_hi = np.where(leaves & (t < t_hi), t, t_hi)
            t_lo = np.where(enters & (t > t_lo), t, t_lo)
            hit &= t_lo < t_hi
    return t_lo, t_hi, hit


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


def _locate_cells(mesh: TriMesh, grid: _CellGrid, x: np.ndarray, tol: np.ndarray,
                  active_mask: np.ndarray) -> np.ndarray:
    """For each point x[p], the lowest-index cell containing it (boundary-
    inclusive within tol[p]) among the cells of its grid bin, or -1.

    When a point sits exactly on a shared edge, active cells win the tie:
    covered cells carry pinned dofs and must not be paired with interface
    or evaluation points.
    """
    p, c = grid.query_bboxes(x, x)
    v, e, ln = _cell_edges(mesh, c)
    cross = e[..., 0] * (x[p, 1, None] - v[..., 1]) - e[..., 1] * (x[p, 0, None] - v[..., 0])
    inside = np.all(cross >= -tol[p, None] * ln, axis=1)
    out = np.full(len(x), -1, dtype=np.int64)
    # pairs are sorted by (point, cell): the first hit per point is the
    # lowest cell; active hits are written last so they win
    for hits in [inside, inside & active_mask[c]]:
        sel = np.flatnonzero(hits)
        sel = sel[np.unique(p[sel], return_index=True)[1]]
        out[p[sel]] = c[sel]
    return out


def _build_facets(config: MultiMeshConfig, active, grids, quad_order: int):
    """Interface facets: the visible part of each active outer boundary
    facet of mesh i > 0, split among the lower meshes that own it and at
    every lower cell edge it crosses."""
    nparts = config.nparts
    masks = [_mask(active[i], len(p.mesh.cells)) for i, p in enumerate(config.parts)]
    # owned[j]: (upper mesh, upper cell, normal, tol, segment) per piece
    # whose topmost visible lower mesh is j
    owned: list[list[tuple]] = [[] for _ in range(nparts)]
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
            # keep only the part of the facet not covered by higher predomains
            pieces = [whole]
            for k in range(i + 1, nparts):
                pieces = [
                    q
                    for p in pieces
                    for q in _clip_outside(p, config.parts[k].predomain)
                ]
            # ownership: topmost lower mesh whose visible region holds the piece
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
                    if void_m is not None:
                        ins = [q2 for q in ins for q2 in _clip_outside(q, void_m)]
                    owned[m].extend((i, int(cell), normal, tol, q) for q in ins if q.length > tol)
                cur = nxt
    facets: list[InterfaceFacet] = []
    for j, segs in enumerate(owned):
        if segs:
            facets.extend(_split_owned(config.parts[j].mesh, grids[j], masks[j], j, segs,
                                       quad_order))
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


def _split_owned(mesh: TriMesh, grid: _CellGrid, mask: np.ndarray, j: int, segs: list,
                 quad_order: int) -> list[InterfaceFacet]:
    """Split the segments owned by mesh j where they cross its cell edges
    and pair each sub-segment with the active cell holding its midpoint."""
    n = len(segs)
    a = np.array([s[4].a for s in segs])
    b = np.array([s[4].b for s in segs])
    tol = np.array([s[3] for s in segs])
    length = np.array([s[4].length for s in segs])
    q, c = grid.query_bboxes(np.minimum(a, b) - tol[:, None], np.maximum(a, b) + tol[:, None])
    t_lo, t_hi, hit = _segment_cell_params(a[q], b[q], mesh, c, tol[q])
    # split parameters per segment: both ends and every cell entry and exit,
    # sorted, exact repeats dropped (ends first, so 0.0 beats -0.0)
    seg = np.concatenate([np.arange(n), np.arange(n), q[hit], q[hit]])
    t = np.concatenate([np.zeros(n), np.ones(n), t_lo[hit], t_hi[hit]])
    order = np.lexsort((t, seg))
    seg, t = seg[order], t[order]
    new = np.ones(len(t), dtype=bool)
    new[1:] = (seg[1:] != seg[:-1]) | (t[1:] != t[:-1])
    seg, t = seg[new], t[new]
    ta, tb, s = t[:-1], t[1:], seg[:-1]
    keep = np.flatnonzero((seg[1:] == s) & (tb - ta > tol[s] / length[s]))
    ta, tb, s = ta[keep, None], tb[keep, None], s[keep]
    pa = a[s] + ta * (b[s] - a[s])
    pb = a[s] + tb * (b[s] - a[s])
    lower = _locate_cells(mesh, grid, 0.5 * (pa + pb), tol[s], mask)
    out = []
    for k in np.flatnonzero(lower >= 0):  # else a rounding sliver outside the lower mesh
        i, cell, normal, _, _ = segs[s[k]]
        sub = Segment(pa[k], pb[k])
        out.append(InterfaceFacet(sub, i, cell, j, int(lower[k]), normal,
                                  segment_quadrature(sub, quad_order)))
    return out


def _clip_inside(seg: Segment, poly: ConvexPolygon) -> list[Segment]:
    return clip_segment(seg, poly, keep_inside=True)


def _clip_outside(seg: Segment, poly: ConvexPolygon) -> list[Segment]:
    return clip_segment(seg, poly, keep_inside=False)


# Triangle pairs that an edge normal separates by more than SAT_MARGIN times
# the clipping tolerance skip the exact clip. `convex_intersect` keeps only
# what lies within REL_TOL * scale of the other triangle, so such a pair
# clips to nothing; the factor leaves ample room for rounding in the
# projections.
SAT_MARGIN = 1e3


def _sat_separated(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """True for each triangle pair (a[n], b[n], each (n, 3, 2)) that one of
    the six edge normals separates by more than SAT_MARGIN * REL_TOL times
    the pair's scale (the larger bounding-box extent, as in `convex_intersect`)."""
    scale = np.maximum(np.ptp(a, axis=1).max(axis=1), np.ptp(b, axis=1).max(axis=1))
    e = np.concatenate([np.roll(a, -1, axis=1) - a, np.roll(b, -1, axis=1) - b], axis=1)
    normal = np.stack([e[..., 1], -e[..., 0]], axis=-1)            # (n, 6, 2)
    pa = np.einsum("nkd,nvd->nkv", normal, a)
    pb = np.einsum("nkd,nvd->nkv", normal, b)
    gap = np.maximum(pb.min(axis=2) - pa.max(axis=2), pa.min(axis=2) - pb.max(axis=2))
    margin = SAT_MARGIN * REL_TOL * scale[:, None] * np.hypot(normal[..., 0], normal[..., 1])
    return np.any(gap > margin, axis=1)


def _build_overlaps(config: MultiMeshConfig, active, cut_by, grids, quad_order: int):
    """Overlap pieces: each active cell of mesh i that Q_j cuts, intersected
    with the active cells of mesh j near it, minus all higher predomains.

    Candidate (lower, upper) pairs come from one bulk grid query per mesh
    pair; a separating-axis test drops the pairs that cannot intersect, and
    only the rest are clipped exactly.
    """
    nparts = config.nparts
    found: list[tuple] = []
    for (i, j), cut in sorted(cut_by.items()):
        lmesh, umesh = config.parts[i].mesh, config.parts[j].mesh
        lower = cut[_mask(active[i], len(lmesh.cells))[cut]]
        lverts = lmesh.nodes[lmesh.cells[lower]]
        uverts = umesh.nodes[umesh.cells]
        tol = REL_TOL * max(config.parts[j].predomain.scale, 1.0)
        q, cu = grids[j].query_bboxes(lverts.min(axis=1) - tol, lverts.max(axis=1) + tol)
        keep = _mask(active[j], len(umesh.cells))[cu]
        q, cu = q[keep], cu[keep]
        keep = ~_sat_separated(lverts[q], uverts[cu])
        tri_of = None
        for qk, ck in zip(q[keep].tolist(), cu[keep].tolist()):
            if tri_of != qk:
                tri_of, tri = qk, ConvexPolygon(lverts[qk], validate=False)
            inter = convex_intersect(tri, ConvexPolygon(uverts[ck], validate=False))
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
            if len(pieces) > 1:
                pieces.sort(key=lambda p: tuple(p.centroid()))
            found.extend((p, i, int(lower[qk]), j, ck) for p in pieces)
    quads = polyset_quadratures([PolySet([f[0]]) for f in found], quad_order)
    overlaps = [OverlapPiece(*f, q) for f, q in zip(found, quads)]
    # order by (lower mesh, lower cell, upper mesh, upper cell, centroid):
    # the pieces of one cell pair are already in centroid order, and the
    # sort is stable
    overlaps.sort(key=lambda o: (o.lower_mesh, o.lower_cell, o.upper_mesh, o.upper_cell))
    return overlaps


def build_cut_topology(config: MultiMeshConfig, quad_order: int = 2) -> CutTopology:
    """Construct the full cut topology of a mesh stack."""
    nparts = config.nparts
    active, cut_cells, cut_by = _visible_regions(config, quad_order)
    grids = [_CellGrid(p.mesh) for p in config.parts]
    facets = _build_facets(config, active, grids, quad_order)
    overlaps = _build_overlaps(config, active, cut_by, grids, quad_order)

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


def point_locate(topology: CutTopology, xy) -> tuple[np.ndarray, np.ndarray]:
    """Topmost mesh and cell whose visible region contains each point
    xy[n]: two int arrays, -1 where no visible region holds the point.

    Points on a predomain boundary resolve to the higher mesh; points
    strictly inside a void (a hole) resolve to nothing.
    """
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    mesh = np.full(len(xy), -1, dtype=np.int64)
    cell = np.full(len(xy), -1, dtype=np.int64)
    free = np.ones(len(xy), dtype=bool)  # neither located nor in a void above
    for i in range(topology.nparts - 1, -1, -1):
        part = topology.parts[i]
        tol = REL_TOL * max(part.predomain.scale, 1.0)
        idx = np.flatnonzero(free)
        idx = idx[part.predomain.contains(xy[idx], tol)]
        if part.void is not None:
            hole = part.void.contains_strict(xy[idx], tol)
            free[idx[hole]] = False
            idx = idx[~hole]
        if len(idx) == 0:
            continue
        found = _locate_cells(part.mesh, topology.grids[i], xy[idx], np.full(len(idx), tol),
                              topology.is_active(i))
        hit = found >= 0
        mesh[idx[hit]] = i
        cell[idx[hit]] = found[hit]
        free[idx[hit]] = False
    return mesh, cell


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
