"""Cut topology of an ordered mesh stack.

Builds, for every mesh in the stack: the active cells and the visible
regions of the cut ones (cell minus all higher predomains), the interface
facets between a mesh boundary and the topmost visible mesh below it, the
overlap pieces where an active cell reaches under a higher mesh, and the
combinatorial overlap counts driving the conditioning diagnostics.

The topology keeps the arrays the clipping kernels return: convex pieces as
padded vertex batches, facets as endpoint and normal arrays, and the cells
of each entity as parallel int arrays. The uncut active cells of a mesh,
almost all of them, are integrated on the reference triangle, and only the
visible pieces of the cut cells, the facets and the overlap pieces get
quadrature batches: mapped rules, tabulated in each of their meshes when
built, so assembly, the load and the norms only contract them.

Everything is computed per part or per pair of parts and kept on the part,
or on the lower part of the pair, for as long as that part lives. Per part
that is the grid of its mesh, one regions record (active, uncut and cut
cells, visible pieces and the cells each higher predomain cuts) and its
cell batches; per pair, the split interface facets and the overlap pieces,
with their batches. The batches are built when first asked for, the rest
when the topology is. A stack that shares a part with an earlier one, with
the same predomains and voids, reuses all of it: `build_cut_topology` only
concatenates and sorts the records of its parts and pairs, so a study that
changes one part's mesh at a time builds each part and each pair once.
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
    math_hypot,
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
    "check_inside",
    "Pieces",
    "Facets",
    "Overlaps",
    "QuadBatch",
    "UncutCells",
    "CutTopology",
    "build_cut_topology",
    "point_locate",
    "dump_topology_csv",
]


class ConfigError(ValueError):
    """Raised when a mesh stack violates the stacking rules."""


@dataclass(frozen=True)
class MultiMeshPart:
    """One mesh of a stack on its predomain, less its void if it has one.
    A part does not change: the topology results that depend on it are kept
    in `kept` (see `_kept`), shared by the stacks that have the part, and
    die with it."""

    predomain: ConvexPolygon
    mesh: TriMesh
    space: FeSpace
    void: ConvexPolygon | None = None
    kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)


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
                check_inside(bg, pre, i)
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


def check_inside(background: ConvexPolygon, predomain: ConvexPolygon, i: int) -> None:
    """Raise a ConfigError unless predomain i lies strictly inside the
    background predomain."""
    if not background.contains_strict(predomain.vertices, tol=1e-12 * background.scale).all():
        raise ConfigError(f"part {i} touches or leaves the background boundary")


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


_NONE = np.zeros(0, dtype=np.int64)
_NO_FACETS = Facets(_NONE, _NONE, _NONE, _NONE, *np.zeros((3, 0, 2)))
_NO_OVERLAPS = Overlaps(_NONE, _NONE, _NONE, _NONE, np.zeros((0, 0, 2)), _NONE, np.zeros(0))


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
    reference triangle by the rule of order `order`, whose basis is the same
    in every cell and is tabulated once per degree and order; each cell adds
    only its inverse Jacobian and area, read off the cached affine maps."""

    mesh: int
    space: FeSpace
    cells: np.ndarray
    order: int

    def rule(self):
        """Barycentric points (nq, 3), unit-sum weights (nq,), basis values
        (nq, nd) and reference gradients (nq, nd, 2) of the rule."""
        return reference_rule(self.space.degree, self.order)

    def gather(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Part-local dofs (nc, nd), inverse Jacobians (nc, 2, 2) and areas
        (nc,) of the cells."""
        _, _, invJ, det = self.space.mesh.geometry()
        return self.space.cell_dofs[self.cells], invJ[self.cells], 0.5 * det[self.cells]

    def points(self) -> np.ndarray:
        """Physical points (nc * nq, 2) of the rule, cell by cell."""
        mesh = self.space.mesh
        return (self.rule()[0] @ mesh.nodes[mesh.cells[self.cells]]).reshape(-1, 2)


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


def _kept(part: MultiMeshPart, key, deps: tuple, build):
    """build(), kept on the part under key and the identity of each of deps.
    The entry holds deps, so no other object can take their ids while it
    lives."""
    key = (key, *map(id, deps))
    if key not in part.kept:
        part.kept[key] = (deps, build())
    return part.kept[key][1]


def _shapes(config: MultiMeshConfig) -> tuple:
    """The predomain and void of every part, in stack order."""
    return tuple(x for p in config.parts for x in (p.predomain, p.void))


def _per_part(step, config: MultiMeshConfig, i: int, *args):
    """step(config, i, *args): a result of part i that depends on no other
    mesh, computed once for every stack with the same predomains and voids
    that has the part at i."""
    return _kept(config.parts[i], (step.__name__, i, *args), _shapes(config),
                 lambda: step(config, i, *args))


def _per_pair(step, config: MultiMeshConfig, lower: int, upper: int, *args):
    """step(config, lower, upper, *args): a result of the mesh pair
    lower < upper, computed once for every stack with the same predomains
    and voids that has the two parts there. It is kept on the lower part
    and holds the upper one."""
    return _kept(config.parts[lower], (step.__name__, lower, upper, *args),
                 (config.parts[upper], *_shapes(config)),
                 lambda: step(config, lower, upper, *args))


def _grid(part: MultiMeshPart) -> _CellGrid:
    return _kept(part, "grid", (), lambda: _CellGrid(part.mesh))


def _take(rec: _CellPairs, rows: np.ndarray) -> _CellPairs:
    """The record of the given rows."""
    return type(rec)(**{name: x[rows] for name, x in vars(rec).items()})


def _concat(recs: list[_CellPairs], empty: _CellPairs) -> _CellPairs:
    """The records one after another, padded vertices to the widest; empty
    if there are none."""
    if not recs:
        return empty
    return type(recs[0])(**{name: (stack_padded if name == "verts" else np.concatenate)(
        [vars(r)[name] for r in recs]) for name in vars(recs[0])})


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
        q = np.repeat(q, count)
        if np.all(ncols == 1) and np.array_equal(iy0, iy1):
            # one bin per box: its cells are one sorted run, so the pairs are
            # sorted and distinct already (always so for points)
            return q, cells[pos]
        ncells = len(self.mesh.cells)
        key = np.unique(q * ncells + cells[pos])
        return key // ncells, key % ncells


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., counts[k] - 1 for each k in turn, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _cell_boxes(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners (m, 2) of the bounding boxes of triangles
    (m, 3, 2), elementwise over the three vertices."""
    a, b, c = verts[:, 0], verts[:, 1], verts[:, 2]
    return np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)


@dataclass(frozen=True)
class CutTopology:
    """The cut topology of a stack, as `build_cut_topology` builds it.

    active, uncut, cut_cells and visible are read off the regions record
    each part keeps (see `_part_regions`). facets and overlaps are the
    records each pair of parts keeps, concatenated and sorted; gamma_len,
    overlap_area, N_O and N_Oi are summed from them. The quadrature batches
    are kept per part and per pair too, built when first asked for.
    """

    config: MultiMeshConfig
    quad_order: int
    active: list[np.ndarray]                 # sorted active cell ids per mesh
    uncut: list[np.ndarray]                  # sorted ids of the active cells not cut
    cut_cells: list[np.ndarray]              # sorted ids of the active cells cut
    visible: list[Pieces]                    # visible pieces of those cells
    facets: Facets
    overlaps: Overlaps
    N_O: int                                 # 1 + most meshes any mesh overlaps, above or below
    N_Oi: np.ndarray                         # [i]: meshes below i that it overlaps
    gamma_len: np.ndarray
    overlap_area: np.ndarray                 # [i, j]: total area of the (i, j) overlap pieces
    facet_pairs: list[tuple[int, int]]       # (lower, upper) mesh pairs with facets, ascending
    overlap_pairs: list[tuple[int, int]]     # and with overlap pieces

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

    def visible_area(self, i: int) -> float:
        areas = self.parts[i].mesh.cell_areas()
        p = self.visible[i]
        # the pieces of each cut cell, then the cut cells, summed in order
        cut = np.bincount(p.cell, weights=p.areas)[self.cut_cells[i]]
        return float(areas[self.uncut[i]].sum()) + sum(cut.tolist())

    def active_dofs(self, i: int) -> np.ndarray:
        space = self.parts[i].space
        if len(self.active[i]) == 0:
            return np.zeros(0, dtype=np.int64)
        return np.unique(space.cell_dofs[self.active[i]].ravel())

    def cell_quadrature(self, order: int) -> list[tuple[UncutCells, QuadBatch]]:
        """Quadrature over the visible region of every active cell, per mesh:
        its uncut active cells, on the reference triangle, and the batch
        over the visible pieces of its cut cells."""
        return [(UncutCells(i, part.space, self.uncut[i], order), batch)
                for i, (part, batch) in enumerate(zip(self.parts, self.cell_batches(order)))]

    def cell_batches(self, order: int | None = None) -> list[QuadBatch]:
        """Quadrature over the visible pieces of the cut cells, one batch per
        mesh: the mapped rule of the given order on each fan triangle."""
        order = self.quad_order if order is None else order
        return [_per_part(_cell_batch, self.config, i, order) for i in range(self.nparts)]

    def facet_batches(self) -> list[QuadBatch]:
        """Interface facet quadrature, one batch per (lower, upper) mesh pair:
        the Gauss rule of order quad_order on every facet segment."""
        return [_per_pair(_facet_batch, self.config, *pair, self.quad_order)
                for pair in self.facet_pairs]

    def overlap_batches(self) -> list[QuadBatch]:
        """Overlap piece quadrature, one batch per (lower, upper) mesh pair:
        the triangle rule of order quad_order on the fan of every piece."""
        return [_per_pair(_overlap_batch, self.config, *pair, self.quad_order)
                for pair in self.overlap_pairs]


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

class _Regions(NamedTuple):
    """What mesh i keeps of the higher predomains; see `_part_regions`."""

    active: np.ndarray             # sorted active cell ids
    active_mask: np.ndarray        # (ncells,): True at the active cells
    uncut: np.ndarray              # sorted ids of the active cells not cut
    cut: np.ndarray                # and of those cut
    visible: Pieces                # visible pieces of the cut cells
    cut_by: dict[int, np.ndarray]  # [k > i]: the cells predomain k cuts


def _part_regions(config: MultiMeshConfig, i: int) -> _Regions:
    """The regions record of mesh i. An active cell of mesh i can overlap
    Q_k with positive area only if it is among the cells Q_k cuts.

    The cut cells lose Q_k in one batched subtraction per k; a cell that
    nothing is left of counts as covered.
    """
    part = config.parts[i]
    mesh = part.mesh
    verts = mesh.nodes[mesh.cells]
    clo, chi = _cell_boxes(verts)
    scale = part.predomain.scale
    tol = REL_TOL * max(scale, 1.0)
    covered = np.zeros(len(mesh.cells), dtype=bool)
    cut_by: dict[int, np.ndarray] = {}
    # the pieces of the cut cells, rows ordered by cell; stale once the
    # cell is covered
    p = Pieces(np.zeros((0, 3, 2)), np.zeros(0, dtype=np.int64), np.zeros(0),
               np.zeros(0, dtype=np.int64))
    for k in range(i + 1, config.nparts):
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
        cut = cut_by[k] = cand[~fully_in & ~separated]
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
    active = np.flatnonzero(~covered)
    visible = Pieces(*(x[~covered[p.cell]] for x in p))
    cut = np.unique(visible.cell)
    return _Regions(active, ~covered, active[~np.isin(active, cut)], cut, visible, cut_by)


def _cell_batch(config: MultiMeshConfig, i: int, order: int) -> QuadBatch:
    """The cut-cell batch of mesh i (see `CutTopology.cell_batches`);
    entities are the cut cells."""
    r = _per_part(_part_regions, config, i)
    tris, piece = fan_triangles(r.visible.verts, r.visible.counts)
    return _triangle_batch(config.parts, (i,), r.cut[:, None], tris,
                           np.searchsorted(r.cut, r.visible.cell[piece]), order)


def _cell_edges(mesh: TriMesh, cells: np.ndarray):
    """Vertices (n, 3, 2), edge vectors v[k+1] - v[k] and edge lengths of
    the given cells, for the segment clip of `_split_owned`.

    The lengths come from `math.hypot`, as in the clipping kernels: they
    feed the arithmetic of `segment_params`, which must match the scalar
    clip bit for bit. Each distinct cell is measured once.
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
    v = mesh.nodes.take(mesh.cells.take(c, axis=0), axis=0)  # take: no fancy-index overhead
    e = np.roll(v, -1, axis=1) - v
    xp, neg_tol = x.take(p, axis=0), -tol.take(p)
    cross = e[..., 0] * (xp[:, 1, None] - v[..., 1]) - e[..., 1] * (xp[:, 0, None] - v[..., 0])
    bound = neg_tol[:, None] * np.hypot(e[..., 0], e[..., 1])
    # the test is against math.hypot's length, as in the scalar code: where
    # np.hypot's rounding could flip it, the edge is measured again
    tie = np.nonzero(np.abs(cross - bound) <= 4 * np.finfo(float).eps * np.abs(bound))
    if len(tie[0]):
        bound[tie] = neg_tol[tie[0]] * math_hypot(e[tie][:, 0], e[tie][:, 1])
    inside = np.all(cross >= bound, axis=1)
    out = np.full(len(x), -1, dtype=np.int64)
    # pairs are sorted by (point, cell): the first hit of each point's run is
    # its lowest cell; active hits are written last so they win
    for hits in [inside, inside & active_mask[c]]:
        sel = np.flatnonzero(hits)
        ps = p[sel]
        first = np.ones(len(sel), dtype=bool)
        first[1:] = ps[1:] != ps[:-1]
        out[ps[first]] = c[sel[first]]
    return out


def _owned_facets(config: MultiMeshConfig, i: int) -> dict:
    """The visible part of each active outer boundary facet of mesh i > 0,
    by the lower mesh j that owns it: {j: (cell, normal, a, b)}, the cell of
    mesh i and the outward normal of the facet each piece a[n] -> b[n] comes
    from.

    The facets are clipped as one batch per predomain: first the parts under
    higher predomains go, then each lower predomain, top down, keeps what
    lies inside it (less its void) and passes the rest on.
    """
    part = config.parts[i]
    mesh = part.mesh
    tol = REL_TOL * max(part.predomain.scale, 1.0)
    active = _per_part(_part_regions, config, i).active_mask
    facets = mesh.boundary_facets[(mesh.boundary_markers == MARKER_OUTER)
                                  & active[mesh.boundary_facets[:, 0]]]
    cell, ledge = facets[:, 0], facets[:, 1]
    a = mesh.nodes[mesh.cells[cell, ledge]]
    b = mesh.nodes[mesh.cells[cell, (ledge + 1) % 3]]
    normal = _predomain_edge_normals(part.predomain, a, b, i, cell)
    src = np.arange(len(a))  # the facet each piece comes from
    # keep only the part of the facets not covered by higher predomains
    for k in range(i + 1, config.nparts):
        _, (a, b, s) = clip_segments(a, b, config.parts[k].predomain)
        src = src[s]
    # ownership: topmost lower mesh whose visible region holds the piece
    owned = {}
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
        owned[m] = (cell[ins], normal[ins], ia[keep], ib[keep])
    return owned


def _pair_facets(config: MultiMeshConfig, j: int, i: int) -> Facets:
    """The interface facets between upper mesh i and lower mesh j: the
    pieces of the facets of mesh i that mesh j owns, split where they cross
    its cell edges, each paired with the active cell of mesh j holding its
    midpoint. Sorted by upper cell, lower cell and endpoints, as in the
    topology."""
    owned = _per_part(_owned_facets, config, i).get(j)
    if owned is None:
        return _NO_FACETS
    cell, normal, a, b = owned
    tol = REL_TOL * max(config.parts[i].predomain.scale, 1.0)
    s, lcell, pa, pb = _split_owned(config.parts[j].mesh, _grid(config.parts[j]),
                                    _per_part(_part_regions, config, j).active_mask, tol, a, b)
    f = Facets(np.full(len(s), j), lcell, np.full(len(s), i), cell[s], pa, pb, normal[s])
    return _take(f, np.lexsort((pb[:, 1], pb[:, 0], pa[:, 1], pa[:, 0], lcell, cell[s])))


def _split_owned(mesh: TriMesh, grid: _CellGrid, mask: np.ndarray, tol: float, a: np.ndarray,
                 b: np.ndarray):
    """Split the segments a[n] -> b[n] where they cross the cell edges of
    the mesh and pair each sub-segment with the active cell holding its
    midpoint. Returns per sub-segment: the segment it comes from, the cell
    and the endpoints."""
    n = len(a)
    d = b - a
    length = np.hypot(d[:, 0], d[:, 1])
    q, c = grid.query_bboxes(np.minimum(a, b) - tol, np.maximum(a, b) + tol)
    tris, e, ln = _cell_edges(mesh, c)
    t_lo, t_hi, hit = segment_params(a[q], b[q], tris, e, ln, np.full(len(q), tol))
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
    keep = np.flatnonzero((seg[1:] == s) & (tb - ta > tol / length[s]))
    ta, tb, s = ta[keep, None], tb[keep, None], s[keep]
    pa = a[s] + ta * (b[s] - a[s])
    pb = a[s] + tb * (b[s] - a[s])
    lower = _locate_cells(mesh, grid, 0.5 * (pa + pb), np.full(len(s), tol), mask)
    ok = lower >= 0  # else a rounding sliver outside the lower mesh
    return s[ok], lower[ok], pa[ok], pb[ok]


def _facet_batch(config: MultiMeshConfig, j: int, i: int, order: int) -> QuadBatch:
    """The facet batch of the mesh pair j < i (see `CutTopology.facet_batches`)."""
    f = _per_pair(_pair_facets, config, j, i)
    points, weights = segments_quadrature(f.a, f.b, order)
    nq = len(weights) // len(f)
    return _tabulated(QuadBatch((j, i), np.stack([f.lower_cell, f.upper_cell], axis=1),
                                np.arange(len(f) + 1) * nq, points, weights, f.normal),
                      config.parts)


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


def _pair_overlaps(config: MultiMeshConfig, i: int, j: int):
    """The overlap pieces of the mesh pair i < j: each active cell of mesh i
    that Q_j cuts, intersected with the active cells of mesh j near it,
    minus all higher predomains. Sorted by lower cell, upper cell and, for
    the pieces of a cell pair with several, centroid.

    Candidate (lower, upper) pairs come from one bulk grid query; a
    separating-axis test drops the pairs that cannot intersect, the rest are
    clipped as one batch, and each higher predomain is subtracted from all
    their pieces at once.
    """
    lmesh, umesh = config.parts[i].mesh, config.parts[j].mesh
    regions = _per_part(_part_regions, config, i)
    cut = regions.cut_by[j]
    lower = cut[regions.active_mask[cut]]
    lverts = lmesh.nodes[lmesh.cells[lower]]
    uverts = umesh.nodes[umesh.cells]
    tol = REL_TOL * max(config.parts[j].predomain.scale, 1.0)
    llo, lhi = _cell_boxes(lverts)
    q, cu = _grid(config.parts[j]).query_bboxes(llo - tol, lhi + tol)
    keep = _per_part(_part_regions, config, j).active_mask[cu]
    q, cu = q[keep], cu[keep]
    keep = ~_sat_separated(lverts[q], uverts[cu])
    q, cu = q[keep], cu[keep]
    upper, which = np.unique(cu, return_inverse=True)
    v, n, a = clip_polygons(lverts[q], np.full(len(q), 3), uverts[upper], which)
    pair = np.flatnonzero(n)
    v, n, a = v[pair], n[pair], a[pair]
    for k in range(j + 1, config.nparts):
        if len(pair) == 0:
            break
        v, n, a, s = subtract_polygon(v, n, config.parts[k].predomain)
        pair = pair[s]
    lc, uc = lower[q[pair]], cu[pair]
    cent = np.zeros((len(n), 2))
    same = np.flatnonzero((lc[1:] == lc[:-1]) & (uc[1:] == uc[:-1]))
    tied = np.union1d(same, same + 1)
    cent[tied] = centroids(v[tied], n[tied], a[tied])
    order = np.lexsort((cent[:, 1], cent[:, 0], uc, lc))
    return _take(Overlaps(np.full(len(pair), i), lc, np.full(len(pair), j), uc, v, n, a), order)


def _overlap_batch(config: MultiMeshConfig, i: int, j: int, order: int) -> QuadBatch:
    """The overlap batch of the mesh pair i < j (see
    `CutTopology.overlap_batches`)."""
    o = _per_pair(_pair_overlaps, config, i, j)
    return _triangle_batch(config.parts, (i, j), np.stack([o.lower_cell, o.upper_cell], axis=1),
                           *fan_triangles(o.verts, o.counts), order)


def build_cut_topology(config: MultiMeshConfig, quad_order: int = 2) -> CutTopology:
    """Construct the full cut topology of a mesh stack. quad_order is the
    order of the facet and overlap batches and the default cell order.

    The records of the parts and pairs, built or kept from an earlier stack
    that shares them, are concatenated and sorted: the facets by upper mesh
    and cell, lower mesh and cell, then endpoints; the overlap pieces by
    lower mesh and cell, upper mesh and cell, then centroid. The record of
    each pair is sorted already, and the pairs are concatenated in
    ascending order, so a stable sort by the first two keys gives that order.

    N_O is one more than the most meshes that any mesh overlaps with
    positive area, above or below it; N_Oi[i] counts the meshes below i
    that it overlaps.
    """
    n = config.nparts
    regions = [_per_part(_part_regions, config, i) for i in range(n)]
    facets = {(j, i): _per_pair(_pair_facets, config, j, i) for j in range(n)
              for i in range(j + 1, n)}
    overlaps = {(i, k): _per_pair(_pair_overlaps, config, i, k)
                for i, r in enumerate(regions) for k in r.cut_by}
    f = _concat([rec for rec in facets.values() if len(rec)], _NO_FACETS)
    f = _take(f, np.lexsort((f.upper_cell, f.upper_mesh)))
    o = _concat(list(overlaps.values()), _NO_OVERLAPS)
    o = _take(o, np.lexsort((o.lower_cell, o.lower_mesh)))
    d = f.b - f.a
    overlap_area = np.bincount(o.lower_mesh * n + o.upper_mesh, weights=o.areas,
                               minlength=n * n).reshape(n, n)
    overlapping = overlap_area > 0.0  # nonzero above the diagonal only
    below = overlapping.sum(axis=0)
    return CutTopology(
        config=config,
        quad_order=quad_order,
        active=[r.active for r in regions],
        uncut=[r.uncut for r in regions],
        cut_cells=[r.cut for r in regions],
        visible=[r.visible for r in regions],
        facets=f,
        overlaps=o,
        N_O=1 + int(max(overlapping.sum(axis=1).max(), below.max())),
        N_Oi=below,
        gamma_len=np.bincount(f.upper_mesh, weights=np.hypot(d[:, 0], d[:, 1]), minlength=n),
        overlap_area=overlap_area,
        facet_pairs=[pair for pair, rec in facets.items() if len(rec)],
        overlap_pairs=[pair for pair, rec in overlaps.items() if len(rec)],
    )


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
        found = _locate_cells(part.mesh, _grid(part), xy[idx], np.full(len(idx), tol),
                              _per_part(_part_regions, topology.config, i).active_mask)
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
