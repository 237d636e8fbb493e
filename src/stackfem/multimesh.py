"""Cut topology of an ordered mesh stack.

Builds, for every mesh in the stack: the active cells and the visible
regions of the cut ones (cell minus all higher predomains), the interface
facets between a mesh boundary and the topmost visible mesh below it, the
overlap pieces where an active cell reaches under a higher mesh, and the
combinatorial overlap counts driving the conditioning diagnostics.

The topology keeps the arrays the clipping kernels return: convex pieces as
padded vertex batches, facets as endpoint and normal arrays, and the cells
of each entity as parallel int arrays. Quadrature batches are built from
them on first use: the uncut active cells of a mesh, almost all of them,
are integrated on the reference triangle, and only the visible pieces of
the cut cells get mapped rules. A batch is tabulated in each of its meshes
when it is built, so assembly, the load and the norms only contract it.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geom2d import (
    REL_TOL,
    ConvexPolygon,
    centroids,
    clip_polygons,
    clip_segments,
    edge_vectors,
    fan_triangles,
    segment_params,
    segments_quadrature,
    stack_padded,
    subtract_polygon,
    triangle_rule,
    triangles_quadrature,
)
# not called here: perfbench/tracing.py wraps these names of this module
from .geom2d import clip_segment, convex_difference, convex_intersect  # noqa: F401
from .mesh import MARKER_OUTER, FeSpace, TriMesh, reference_rule

__all__ = [
    "MultiMeshPart",
    "MultiMeshConfig",
    "Pieces",
    "Facets",
    "Overlaps",
    "QuadBatch",
    "UncutCells",
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


class Pieces(NamedTuple):
    """The visible pieces of the cut cells of one mesh as a padded batch,
    rows ordered by cell: piece r is verts[r, :counts[r]], of area areas[r],
    in cell cell[r]."""

    verts: np.ndarray   # (n, M, 2)
    counts: np.ndarray  # (n,)
    areas: np.ndarray   # (n,)
    cell: np.ndarray    # (n,)


@dataclass
class _CellPairs:
    """Entities between two meshes as parallel arrays: entity k lies in cell
    lower_cell[k] of mesh lower_mesh[k] and in cell upper_cell[k] of mesh
    upper_mesh[k]."""

    lower_mesh: np.ndarray
    lower_cell: np.ndarray
    upper_mesh: np.ndarray
    upper_cell: np.ndarray

    def __len__(self) -> int:
        return len(self.lower_mesh)


@dataclass
class Facets(_CellPairs):
    """Interface facets: facet k is the segment a[k] -> b[k] (each (n, 2))
    with the unit normal normal[k], outward from the upper predomain."""

    a: np.ndarray
    b: np.ndarray
    normal: np.ndarray


@dataclass
class Overlaps(_CellPairs):
    """Overlap pieces as a padded batch: piece k is verts[k, :counts[k]],
    of area areas[k]."""

    verts: np.ndarray
    counts: np.ndarray
    areas: np.ndarray


@dataclass
class QuadBatch:
    """Flat quadrature over a group of entities (visible regions of cut
    cells, interface facets or overlap pieces) that share their meshes.

    Entity e owns the points starts[e]:starts[e + 1]; its cell in mesh
    meshes[m] is cells[e, m]. Facet batches carry one unit normal per
    entity, outward from the upper predomain. basis[m] holds, read-only, the
    basis of mesh meshes[m] at the points, tabulated once when the topology
    builds the batch: values (n, nd), physical gradients (n, nd, 2) and the
    part-local dofs (ne, nd) of each entity's cell there.
    """

    meshes: tuple[int, ...]
    cells: np.ndarray        # (ne, len(meshes))
    starts: np.ndarray       # (ne + 1,)
    points: np.ndarray       # (n, 2)
    weights: np.ndarray      # (n,)
    normals: np.ndarray | None = None  # (ne, 2)
    basis: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = ()

    def per_point(self, values: np.ndarray) -> np.ndarray:
        """Repeat per-entity values once for each of the entity's points."""
        return np.repeat(values, np.diff(self.starts), axis=0)


class UncutCells(NamedTuple):
    """The uncut active cells (nc,) of mesh `mesh`, integrated on the
    reference triangle. The basis at the rule points is the same in every
    cell and is tabulated once per degree and order; each cell adds only its
    inverse Jacobian and area, read off the mesh's cached affine maps."""

    mesh: int
    space: FeSpace
    cells: np.ndarray

    def rule(self, order: int):
        """Barycentric points (nq, 3), unit-sum weights (nq,), basis values
        (nq, nd) and reference gradients (nq, nd, 2) of the order's rule."""
        return reference_rule(self.space.degree, order)

    def gather(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Part-local dofs (nc, nd), inverse Jacobians (nc, 2, 2) and areas
        (nc,) of the cells."""
        _, _, invJ, det = self.space.mesh.geometry()
        return self.space.cell_dofs[self.cells], invJ[self.cells], 0.5 * det[self.cells]

    def points(self, order: int) -> np.ndarray:
        """Physical points (nc * nq, 2) of the order's rule, cell by cell."""
        mesh = self.space.mesh
        return (self.rule(order)[0] @ mesh.nodes[mesh.cells[self.cells]]).reshape(-1, 2)


def _triangle_batch(parts: list[MultiMeshPart], meshes: tuple[int, ...], cells: np.ndarray,
                    tris: np.ndarray, owner: np.ndarray, order: int) -> QuadBatch:
    """The rule of the given order mapped onto triangles tris (nt, 3, 2),
    triangle t belonging to entity owner[t] (ascending) with cells
    cells[owner[t]]; tabulated."""
    points, weights = triangles_quadrature(tris, order)
    nq = len(triangle_rule(order)[1])
    starts = np.searchsorted(owner, np.arange(len(cells) + 1)) * nq
    return _tabulated(QuadBatch(meshes, cells, starts, points, weights), parts)


def _tabulated(batch: QuadBatch, parts: list[MultiMeshPart]) -> QuadBatch:
    """The batch with its basis in each of its meshes."""
    for m, i in enumerate(batch.meshes):
        space, cells = parts[i].space, batch.cells[:, m]
        basis = (*space.tabulate(batch.per_point(cells), batch.points), space.cell_dofs[cells])
        for a in basis:
            a.setflags(write=False)
        batch.basis += (basis,)
    return batch


def _pair_groups(rec: _CellPairs):
    """Facets or overlap pieces grouped by (lower, upper) mesh pair, pairs
    ascending: yields the pair, the (lower cell, upper cell) rows of its
    entities and their positions in the record, in record order."""
    rows = np.stack([rec.lower_mesh, rec.upper_mesh, rec.lower_cell, rec.upper_cell], axis=1)
    for pair in np.unique(rows[:, :2], axis=0):
        sel = np.flatnonzero((rows[:, :2] == pair).all(axis=1))
        yield tuple(pair.tolist()), rows[sel, 2:], sel


class _CellGrid:
    """Uniform spatial bins over a mesh; cells register in every bin their
    bounding box touches, so a query never misses a candidate."""

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        clo, chi = _cell_boxes(mesh.nodes[mesh.cells])
        lo = clo.min(axis=0)
        hi = chi.max(axis=0)
        self.lo = lo
        extent = np.maximum(hi - lo, 1e-12)
        self.bin = max(mesh.h, float(extent.max()) / 512)
        self.nx = max(1, int(math.ceil(extent[0] / self.bin)))
        self.ny = max(1, int(math.ceil(extent[1] / self.bin)))
        ix0, ix1 = self._bins(clo[:, 0], 0), self._bins(chi[:, 0], 0)
        iy0, iy1 = self._bins(clo[:, 1], 1), self._bins(chi[:, 1], 1)
        keys: list[np.ndarray] = []
        ncells = len(mesh.cells)
        ids = np.arange(ncells)
        for dx in range(int((ix1 - ix0).max(initial=0)) + 1):
            for dy in range(int((iy1 - iy0).max(initial=0)) + 1):
                mask = (ix0 + dx <= ix1) & (iy0 + dy <= iy1)
                keys.append(((ix0[mask] + dx) * self.ny + (iy0[mask] + dy)) * ncells + ids[mask])
        # key bin * ncells + cell is unique: sorting it orders by bin, then cell
        key = np.sort(np.concatenate(keys))
        starts = np.searchsorted(key // ncells, np.arange(self.nx * self.ny + 1))
        self._table = (starts, key % ncells)

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


def _cell_boxes(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners (m, 2) of the bounding boxes of triangles
    (m, 3, 2), elementwise over the three vertices."""
    a, b, c = verts[:, 0], verts[:, 1], verts[:, 2]
    return np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)


def _mask(ids: np.ndarray, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


@dataclass
class CutTopology:
    config: MultiMeshConfig
    quad_order: int
    active: list[np.ndarray]                 # sorted active cell ids per mesh
    cut_cells: list[np.ndarray]              # sorted ids of the cells actually cut
    visible: list[Pieces]                    # visible pieces of those cells
    facets: Facets
    overlaps: Overlaps
    N_O: int
    N_Oi: np.ndarray
    gamma_len: np.ndarray
    overlap_area: np.ndarray                 # [i, j]: total area of the (i, j) overlap pieces
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
        return self._cached(
            ("uncut", i), lambda: self.active[i][~np.isin(self.active[i], self.cut_cells[i])]
        )

    def visible_area(self, i: int) -> float:
        areas = self.parts[i].mesh.cell_areas()
        p = self.visible[i]
        # the pieces of each cut cell, then the cut cells, summed in order
        cut = np.bincount(p.cell, weights=p.areas)[self.cut_cells[i]]
        return float(areas[self.uncut_active(i)].sum()) + sum(cut.tolist())

    def active_dofs(self, i: int) -> np.ndarray:
        space = self.parts[i].space
        if len(self.active[i]) == 0:
            return np.zeros(0, dtype=np.int64)
        return np.unique(space.cell_dofs[self.active[i]].ravel())

    def cell_quadrature(self, order: int | None = None) -> list[tuple[UncutCells, QuadBatch]]:
        """Quadrature over the visible region of every active cell, per mesh:
        its uncut active cells, on the reference triangle, and the batch
        over the visible pieces of its cut cells."""
        return [(UncutCells(i, part.space, self.uncut_active(i)), batch)
                for i, (part, batch) in enumerate(zip(self.parts, self.cell_batches(order)))]

    def cell_batches(self, order: int | None = None) -> list[QuadBatch]:
        """Quadrature over the visible pieces of the cut cells, one batch per
        mesh: the mapped rule of the given order on each fan triangle."""
        order = self.quad_order if order is None else order
        return self._cached(
            ("cells", order), lambda: [self._cell_batch(i, order) for i in range(self.nparts)]
        )

    def _cell_batch(self, i: int, order: int) -> QuadBatch:
        """Entities are the cut cells."""
        cut, p = self.cut_cells[i], self.visible[i]
        tris, piece = fan_triangles(p.verts, p.counts)
        return _triangle_batch(self.parts, (i,), cut[:, None], tris,
                               np.searchsorted(cut, p.cell[piece]), order)

    def facet_batches(self) -> list[QuadBatch]:
        """Interface facet quadrature, one batch per (lower, upper) mesh pair:
        the Gauss rule of order quad_order on every facet segment."""
        def build():
            f = self.facets
            out = []
            for meshes, cells, sel in _pair_groups(f):
                points, weights = segments_quadrature(f.a[sel], f.b[sel], self.quad_order)
                nq = len(weights) // len(sel)
                out.append(_tabulated(QuadBatch(meshes, cells, np.arange(len(sel) + 1) * nq,
                                                points, weights, f.normal[sel]), self.parts))
            return out

        return self._cached("facets", build)

    def overlap_batches(self) -> list[QuadBatch]:
        """Overlap piece quadrature, one batch per (lower, upper) mesh pair:
        the triangle rule of order quad_order on the fan of every piece."""
        o = self.overlaps
        return self._cached("overlaps", lambda: [
            _triangle_batch(self.parts, meshes, cells,
                            *fan_triangles(o.verts[sel], o.counts[sel]), self.quad_order)
            for meshes, cells, sel in _pair_groups(o)
        ])


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _visible_regions(config: MultiMeshConfig):
    """Active cell ids and the visible pieces of the cut cells per mesh,
    and for each pair i < k the cells of mesh i that predomain k cuts: an
    active cell of mesh i can overlap Q_k with positive area only if it is
    among them.

    The cut cells of mesh i lose Q_k in one batched subtraction per k; a
    cell that nothing is left of counts as covered.
    """
    nparts = config.nparts
    active: list[np.ndarray] = []
    visible: list[Pieces] = []
    cut_by: dict[tuple[int, int], np.ndarray] = {}
    for i, part in enumerate(config.parts):
        mesh = part.mesh
        verts = mesh.nodes[mesh.cells]
        clo, chi = _cell_boxes(verts)
        scale = part.predomain.scale
        tol = REL_TOL * max(scale, 1.0)
        covered = np.zeros(len(mesh.cells), dtype=bool)
        # the pieces of the cut cells, rows ordered by cell; stale once the
        # cell is covered
        p = Pieces(np.zeros((0, 3, 2)), np.zeros(0, dtype=np.int64), np.zeros(0),
                   np.zeros(0, dtype=np.int64))
        for k in range(i + 1, nparts):
            Q = config.parts[k].predomain
            x0, x1, y0, y1 = Q.bounds()
            cand = np.flatnonzero(
                ~covered
                & (clo[:, 0] <= x1 + tol)
                & (chi[:, 0] >= x0 - tol)
                & (clo[:, 1] <= y1 + tol)
                & (chi[:, 1] >= y0 - tol)
            )
            if len(cand) == 0:
                continue
            cross, ln = Q._edge_cross(verts[cand])
            d = cross / ln  # signed distances to the edge lines (nc, 3, nedges)
            fully_in = np.all(d >= -tol, axis=(1, 2))
            separated = np.any(np.all(d < -tol, axis=1), axis=1)
            covered[cand[fully_in]] = True
            cut = cut_by[i, k] = cand[~fully_in & ~separated]
            # each cut cell's pieces so far, or the whole cell
            old = np.isin(p.cell, cut)
            fresh = cut[~np.isin(cut, p.cell)]
            src_cell = np.concatenate([p.cell[old], fresh])
            order = np.argsort(src_cell, kind="stable")
            v, n, a, row = subtract_polygon(
                stack_padded([p.verts[old], verts[fresh]])[order],
                np.concatenate([p.counts[old], np.full(len(fresh), 3)])[order], Q)
            new_cell = src_cell[order][row]
            covered[np.setdiff1d(cut, new_cell)] = True
            order = np.argsort(np.concatenate([p.cell[~old], new_cell]), kind="stable")
            p = Pieces(stack_padded([p.verts[~old], v])[order], *(
                np.concatenate([x[~old], y])[order] for x, y in zip(p[1:], (n, a, new_cell))))
        # a cut cell with a visible area below the floor counts as covered
        live = ~covered[p.cell]
        vis_area = np.bincount(p.cell[live], weights=p.areas[live], minlength=len(mesh.cells))
        covered |= np.isin(np.arange(len(mesh.cells)), p.cell[live]) & (
            vis_area <= 1e-14 * mesh.cell_areas())
        active.append(np.flatnonzero(~covered))
        visible.append(Pieces(*(x[~covered[p.cell]] for x in p)))
    return active, visible, cut_by


def _cell_edges(mesh: TriMesh, cells: np.ndarray):
    """Vertices (n, 3, 2), edge vectors v[k+1] - v[k] and edge lengths of
    the given cells.

    The lengths come from `math.hypot`, as in the clipping kernels, so the
    segment clip and point-in-cell test below keep the scalar arithmetic
    bit for bit; each distinct cell is measured once.
    """
    uniq, inv = np.unique(cells, return_inverse=True)
    v = mesh.nodes[mesh.cells[uniq]]
    e, ln = edge_vectors(v)
    return v[inv], e[inv], ln[inv]


def _predomain_edge_normals(pre: ConvexPolygon, a: np.ndarray, b: np.ndarray, part: int,
                            cells: np.ndarray) -> np.ndarray:
    """Outward normal (n, 2) of the predomain edge each segment a[n] -> b[n],
    a boundary facet of cell cells[n] of the part's mesh, lies on: the first
    edge whose line passes within tol of its midpoint and whose span holds
    the midpoint."""
    tol = REL_TOL * max(pre.scale, 1.0) * 1e3  # mesh nodes sit on edges up to rounding
    mid = 0.5 * (a + b)
    p = pre.vertices
    e, ln = edge_vectors(p)
    u = e / ln[:, None]
    dx = mid[:, None, 0] - p[:, 0]
    dy = mid[:, None, 1] - p[:, 1]
    off = np.abs(u[:, 0] * dy - u[:, 1] * dx)
    along = u[:, 0] * dx + u[:, 1] * dy
    on = (off <= tol) & (-tol <= along) & (along <= ln + tol)
    lost = np.flatnonzero(~on.any(axis=1))
    if len(lost):
        f = lost[0]
        raise ConfigError(
            f"boundary facet of part {part}, cell {cells[f]} does not lie on its predomain "
            f"hull: midpoint ({mid[f, 0]:.17g}, {mid[f, 1]:.17g})"
        )
    u = u[np.argmax(on, axis=1)]
    return np.stack([u[:, 1], -u[:, 0]], axis=1)


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


def _build_facets(config: MultiMeshConfig, active, grids):
    """Interface facets and |Gamma_i| per mesh: the visible part of each
    active outer boundary facet of mesh i > 0, split among the lower meshes
    that own it and at every lower cell edge it crosses.

    The facets of mesh i are clipped as one batch per predomain: first the
    parts under higher predomains go, then each lower predomain, top down,
    keeps what lies inside it (less its void) and passes the rest on.
    """
    nparts = config.nparts
    masks = [_mask(active[i], len(p.mesh.cells)) for i, p in enumerate(config.parts)]
    # owned[j]: (upper mesh, upper cell, normal, tol, a, b) arrays per upper
    # mesh, of the pieces whose topmost visible lower mesh is j
    owned: list[list[tuple]] = [[] for _ in range(nparts)]
    for i in range(1, nparts):
        part = config.parts[i]
        mesh = part.mesh
        tol = REL_TOL * max(part.predomain.scale, 1.0)
        facets = mesh.boundary_facets[
            (mesh.boundary_markers == MARKER_OUTER) & masks[i][mesh.boundary_facets[:, 0]]]
        cell, ledge = facets[:, 0], facets[:, 1]
        a = mesh.nodes[mesh.cells[cell, ledge]]
        b = mesh.nodes[mesh.cells[cell, (ledge + 1) % 3]]
        normal = _predomain_edge_normals(part.predomain, a, b, i, cell)
        src = np.arange(len(a))  # the facet each piece comes from
        # keep only the part of the facets not covered by higher predomains
        for k in range(i + 1, nparts):
            _, (a, b, s) = clip_segments(a, b, config.parts[k].predomain)
            src = src[s]
        # ownership: topmost lower mesh whose visible region holds the piece
        for m in range(i - 1, -1, -1):
            if len(a) == 0:
                break
            (ia, ib, s), (a, b, out) = clip_segments(a, b, config.parts[m].predomain)
            ins, src = src[s], src[out]
            if config.parts[m].void is not None:
                _, (ia, ib, s) = clip_segments(ia, ib, config.parts[m].void)
                ins = ins[s]
            d = ib - ia
            keep = np.hypot(d[:, 0], d[:, 1]) > tol
            ins = ins[keep]
            owned[m].append((np.full(len(ins), i), cell[ins], normal[ins], np.full(len(ins), tol),
                             ia[keep], ib[keep]))
    rows = [_split_owned(config.parts[j].mesh, grids[j], masks[j], j,
                         *(np.concatenate(col) for col in zip(*segs)))
            for j, segs in enumerate(owned) if segs]
    if not rows:
        none = np.zeros(0, dtype=np.int64)
        return Facets(none, none, none, none, *np.zeros((3, 0, 2))), np.zeros(nparts)
    upper, ucell, lower, lcell, normal, a, b = (np.concatenate(col) for col in zip(*rows))
    order = np.lexsort((b[:, 1], b[:, 0], a[:, 1], a[:, 0], lcell, lower, ucell, upper))
    upper, ucell, lower, lcell, normal, a, b = (
        x[order] for x in (upper, ucell, lower, lcell, normal, a, b))
    d = b - a
    gamma_len = np.bincount(upper, weights=np.hypot(d[:, 0], d[:, 1]), minlength=nparts)
    return Facets(lower, lcell, upper, ucell, a, b, normal), gamma_len


def _split_owned(mesh: TriMesh, grid: _CellGrid, mask: np.ndarray, j: int, upper: np.ndarray,
                 cell: np.ndarray, normal: np.ndarray, tol: np.ndarray, a: np.ndarray,
                 b: np.ndarray):
    """Split the segments a[n] -> b[n] owned by mesh j where they cross its
    cell edges and pair each sub-segment with the active cell holding its
    midpoint. Returns per sub-segment: upper mesh and cell, lower mesh and
    cell, normal and endpoints."""
    n = len(a)
    d = b - a
    length = np.hypot(d[:, 0], d[:, 1])
    q, c = grid.query_bboxes(np.minimum(a, b) - tol[:, None], np.maximum(a, b) + tol[:, None])
    tris, e, ln = _cell_edges(mesh, c)
    t_lo, t_hi, hit = segment_params(a[q], b[q], tris, e, ln, tol[q])
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
    ok = lower >= 0  # else a rounding sliver outside the lower mesh
    s = s[ok]
    return upper[s], cell[s], np.full(len(s), j), lower[ok], normal[s], pa[ok], pb[ok]


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
    lo_a, hi_a = _cell_boxes(a)
    lo_b, hi_b = _cell_boxes(b)
    ext = np.maximum(hi_a - lo_a, hi_b - lo_b)
    scale = np.maximum(ext[:, 0], ext[:, 1])
    separated = np.zeros(len(a), dtype=bool)
    for t in (a, b):
        for k in range(3):
            e = t[:, (k + 1) % 3] - t[:, k]
            nx, ny = e[:, 1], -e[:, 0]
            pa = nx[:, None] * a[..., 0] + ny[:, None] * a[..., 1]   # (n, 3)
            pb = nx[:, None] * b[..., 0] + ny[:, None] * b[..., 1]
            lo_a, hi_a = _cell_boxes(pa[..., None])
            lo_b, hi_b = _cell_boxes(pb[..., None])
            gap = np.maximum(lo_b - hi_a, lo_a - hi_b)[:, 0]
            separated |= gap > SAT_MARGIN * REL_TOL * scale * np.hypot(nx, ny)
    return separated


def _build_overlaps(config: MultiMeshConfig, active, cut_by, grids):
    """Overlap pieces and their total area per mesh pair: each active cell
    of mesh i that Q_j cuts, intersected with the active cells of mesh j
    near it, minus all higher predomains.

    Candidate (lower, upper) pairs come from one bulk grid query per mesh
    pair; a separating-axis test drops the pairs that cannot intersect, the
    rest are clipped as one batch, and each higher predomain is subtracted
    from all their pieces at once.
    """
    nparts = config.nparts
    rows = []  # per mesh pair: lower mesh and cell, upper mesh and cell, pieces
    for (i, j), cut in sorted(cut_by.items()):
        lmesh, umesh = config.parts[i].mesh, config.parts[j].mesh
        lower = cut[_mask(active[i], len(lmesh.cells))[cut]]
        lverts = lmesh.nodes[lmesh.cells[lower]]
        uverts = umesh.nodes[umesh.cells]
        tol = REL_TOL * max(config.parts[j].predomain.scale, 1.0)
        llo, lhi = _cell_boxes(lverts)
        q, cu = grids[j].query_bboxes(llo - tol, lhi + tol)
        keep = _mask(active[j], len(umesh.cells))[cu]
        q, cu = q[keep], cu[keep]
        keep = ~_sat_separated(lverts[q], uverts[cu])
        q, cu = q[keep], cu[keep]
        upper, which = np.unique(cu, return_inverse=True)
        v, n, a = clip_polygons(lverts[q], np.full(len(q), 3), uverts[upper], which)
        pair = np.flatnonzero(n)
        v, n, a = v[pair], n[pair], a[pair]
        for k in range(j + 1, nparts):
            if len(pair) == 0:
                break
            v, n, a, s = subtract_polygon(v, n, config.parts[k].predomain)
            pair = pair[s]
        rows.append((np.full(len(pair), i), lower[q[pair]], np.full(len(pair), j), cu[pair],
                     v, n, a))
    if not rows:
        none = np.zeros(0, dtype=np.int64)
        return (Overlaps(none, none, none, none, np.zeros((0, 0, 2)), none, np.zeros(0)),
                np.zeros((nparts, nparts)))
    lm, lc, um, uc, n, a = (np.concatenate([r[k] for r in rows]) for k in (0, 1, 2, 3, 5, 6))
    v = stack_padded([r[4] for r in rows])
    # order by (lower mesh, lower cell, upper mesh, upper cell, centroid);
    # only the pieces of a cell pair with several need their centroid
    cent = np.zeros((len(n), 2))
    same = np.flatnonzero((lm[1:] == lm[:-1]) & (lc[1:] == lc[:-1])
                          & (um[1:] == um[:-1]) & (uc[1:] == uc[:-1]))
    tied = np.union1d(same, same + 1)
    cent[tied] = centroids(v[tied], n[tied], a[tied])
    order = np.lexsort((cent[:, 1], cent[:, 0], uc, um, lc, lm))
    lm, lc, um, uc, v, n, a = (x[order] for x in (lm, lc, um, uc, v, n, a))
    area = np.bincount(lm * nparts + um, weights=a, minlength=nparts * nparts)
    return Overlaps(lm, lc, um, uc, v, n, a), area.reshape(nparts, nparts)


def build_cut_topology(config: MultiMeshConfig, quad_order: int = 2) -> CutTopology:
    """Construct the full cut topology of a mesh stack. quad_order is the
    order of the facet and overlap batches and the default cell order."""
    active, visible, cut_by = _visible_regions(config)
    grids = [_CellGrid(p.mesh) for p in config.parts]
    facets, gamma_len = _build_facets(config, active, grids)
    overlaps, overlap_area = _build_overlaps(config, active, cut_by, grids)
    topo = CutTopology(
        config=config,
        quad_order=quad_order,
        active=active,
        cut_cells=[np.unique(p.cell) for p in visible],
        visible=visible,
        facets=facets,
        overlaps=overlaps,
        N_O=0,
        N_Oi=None,
        gamma_len=gamma_len,
        overlap_area=overlap_area,
        grids=grids,
    )
    _, topo.N_O, topo.N_Oi = compute_delta_NO(topo)
    return topo


def compute_delta_NO(topology: CutTopology):
    """Overlap indicator matrix and overlap counts.

    delta[i, j] = 1 (i < j) when the overlap between active mesh i and the
    visible region of mesh j has positive area; the diagonal is 1 by
    convention. N_O is the largest row or column sum; N_Oi[i] counts the
    meshes below i with nonempty overlap against it.
    """
    n = topology.nparts
    delta = np.eye(n, dtype=np.int64)
    delta[topology.overlap_area > 0.0] = 1
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
    f, o = topology.facets, topology.overlaps
    for path, header, i, j, values in [
        (facet_path, ["i", "j", "ax", "ay", "bx", "by", "nx", "ny"], f.upper_mesh, f.lower_mesh,
         np.hstack([f.a, f.b, f.normal])),
        (overlap_path, ["i", "j", "area", "cx", "cy"], o.lower_mesh, o.upper_mesh,
         np.column_stack([o.areas, centroids(o.verts, o.counts, o.areas)])),
    ]:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([mi, mj] + [f"{v:.17g}" for v in row]
                        for mi, mj, row in zip(i.tolist(), j.tolist(), values.tolist()))
