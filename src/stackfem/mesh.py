"""Triangular meshes, structured generators, and Lagrange P1/P2 spaces."""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geom2d import ConvexPolygon, GeometryError, offset_polygon, triangle_rule

__all__ = [
    "TriMesh",
    "FeSpace",
    "build_structured_mesh",
    "build_band_mesh",
    "nodal_interpolate",
    "field_values",
    "reference_rule",
    "MARKER_OUTER",
    "MARKER_INNER",
]

# Boundary facet markers. OUTER facets lie on the predomain hull (interface
# candidates, or the global Dirichlet boundary for the background mesh);
# INNER facets bound a hole cut out of the mesh and carry Dirichlet data.
MARKER_OUTER = 0
MARKER_INNER = 1

# local edge k of a cell joins its local vertices k and (k + 1) % 3
_EDGE_VERTS = np.array([[0, 1], [1, 2], [2, 0]])


class MeshError(ValueError):
    """Raised for non-conforming or badly oriented meshes."""


@dataclass
class TriMesh:
    """Conforming triangle mesh.

    nodes            (n, 2) float coordinates
    cells            (m, 3) int vertex triples, positively oriented
    boundary_facets  (nb, 2) int pairs (cell, local edge); local edge k joins
                     local vertices k and (k+1) % 3
    boundary_markers (nb,) int, MARKER_OUTER / MARKER_INNER
    h                mesh parameter: max cell diameter
    """

    nodes: np.ndarray
    cells: np.ndarray
    boundary_facets: np.ndarray = field(default=None)
    boundary_markers: np.ndarray = field(default=None)
    h: float = field(default=0.0)

    def __init__(self, nodes, cells):
        self.nodes = np.asarray(nodes, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise MeshError(f"cells must be (m, 3), got {self.cells.shape}")
        self._geom_cache = None
        self._check_orientation()
        self.boundary_facets = self._extract_boundary()
        self.boundary_markers = np.zeros(len(self.boundary_facets), dtype=np.int64)
        diam = self.cell_diameters()
        self.h = float(diam.max())

    # -- structure ---------------------------------------------------------

    def _check_orientation(self):
        bad = np.flatnonzero(self.cell_areas() <= 0)
        if len(bad):
            c = int(bad[0])
            raise MeshError(
                f"{len(bad)} cells are degenerate or clockwise, the first is cell {c} "
                f"with nodes {self.cells[c].tolist()}"
            )

    def _extract_boundary(self) -> np.ndarray:
        # key c*3 + k is local edge k of cell c, so the facets come out
        # sorted by (cell, local edge)
        n = len(self.nodes)
        keys, inverse, counts = np.unique(
            _edge_keys(self.cells[:, _EDGE_VERTS], n), return_inverse=True, return_counts=True
        )
        if counts.max(initial=1) > 2:
            e = int(np.argmax(counts > 2))
            lo, hi = divmod(int(keys[e]), n)
            raise MeshError(
                f"non-conforming mesh: edge ({lo}, {hi}) is shared by {counts[e]} cells"
            )
        rows = np.flatnonzero(counts[inverse] == 1)
        return np.stack([rows // 3, rows % 3], axis=1)

    def cell_diameters(self) -> np.ndarray:
        v = self.nodes[self.cells]
        e0 = np.linalg.norm(v[:, 1] - v[:, 0], axis=1)
        e1 = np.linalg.norm(v[:, 2] - v[:, 1], axis=1)
        e2 = np.linalg.norm(v[:, 0] - v[:, 2], axis=1)
        return np.maximum(e0, np.maximum(e1, e2))

    def cell_areas(self) -> np.ndarray:
        """Signed cell areas, half the cached Jacobian determinants."""
        return 0.5 * self.geometry()[2]

    @property
    def area(self) -> float:
        return float(self.cell_areas().sum())

    # -- affine geometry (cached) -------------------------------------------

    def geometry(self):
        """Per-cell affine maps x = v0 + J xi: origin v0 (m, 2), inverse
        Jacobian (m, 2, 2) and det J (m,), each owning its data. J itself is
        not kept."""
        if self._geom_cache is None:
            v0 = self.nodes[self.cells[:, 0]]
            e1 = self.nodes[self.cells[:, 1]] - v0                        # columns of J
            e2 = self.nodes[self.cells[:, 2]] - v0
            det = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
            invJ = np.empty((len(det), 2, 2))
            # a cell with det <= 0 fails the orientation check of __init__
            with np.errstate(divide="ignore", invalid="ignore"):
                invJ[:, 0, 0] = e2[:, 1] / det
                invJ[:, 0, 1] = -e2[:, 0] / det
                invJ[:, 1, 0] = -e1[:, 1] / det
                invJ[:, 1, 1] = e1[:, 0] / det
            self._geom_cache = (v0, invJ, det)
        return self._geom_cache


def _edge_keys(pairs: np.ndarray, nnodes: int) -> np.ndarray:
    """One int64 key lo * nnodes + hi per undirected edge of the node pairs
    (..., 2), flattened: sorting the keys sorts the edges by (lo, hi)."""
    lo = np.minimum(pairs[..., 0], pairs[..., 1])
    hi = np.maximum(pairs[..., 0], pairs[..., 1])
    return (lo * nnodes + hi).ravel()


# ---------------------------------------------------------------------------
# Lagrange spaces
# ---------------------------------------------------------------------------

def ref_basis(degree: int, ref_pts: np.ndarray) -> np.ndarray:
    """Reference basis values, shape (npts, ndofs)."""
    ref_pts = np.atleast_2d(ref_pts)
    xi, eta = ref_pts[:, 0], ref_pts[:, 1]
    lam = np.stack([1.0 - xi - eta, xi, eta], axis=1)
    if degree == 1:
        return lam
    if degree == 2:
        l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
        return np.stack(
            [
                l0 * (2 * l0 - 1),
                l1 * (2 * l1 - 1),
                l2 * (2 * l2 - 1),
                4 * l1 * l2,
                4 * l2 * l0,
                4 * l0 * l1,
            ],
            axis=1,
        )
    raise ValueError(f"unsupported degree {degree}")


def ref_basis_grad(degree: int, ref_pts: np.ndarray) -> np.ndarray:
    """Reference basis gradients, shape (npts, ndofs, 2)."""
    ref_pts = np.atleast_2d(ref_pts)
    n = len(ref_pts)
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    if degree == 1:
        return np.broadcast_to(dlam, (n, 3, 2)).copy()
    if degree == 2:
        xi, eta = ref_pts[:, 0], ref_pts[:, 1]
        lam = np.stack([1.0 - xi - eta, xi, eta], axis=1)
        g = np.empty((n, 6, 2))
        for i in range(3):
            g[:, i] = (4 * lam[:, i, None] - 1) * dlam[i]
        pairs = [(1, 2), (2, 0), (0, 1)]
        for k, (i, j) in enumerate(pairs):
            g[:, 3 + k] = 4 * (lam[:, i, None] * dlam[j] + lam[:, j, None] * dlam[i])
        return g
    raise ValueError(f"unsupported degree {degree}")


@functools.cache
def reference_rule(degree: int, order: int):
    """The triangle rule of the given order on the reference element,
    tabulated once per degree and order: barycentric points (nq, 3),
    unit-sum weights (nq,), basis values (nq, nd) and reference gradients
    (nq, nd, 2). The arrays are shared by every caller and read-only."""
    bary, w = triangle_rule(order)
    phi, grad = ref_basis(degree, bary[:, 1:]), ref_basis_grad(degree, bary[:, 1:])
    phi.setflags(write=False)
    grad.setflags(write=False)
    return bary, w, phi, grad


@dataclass
class FeSpace:
    """Continuous Lagrange space of degree 1 or 2 on a TriMesh.

    Degree 2 adds one dof per mesh edge at the midpoint; local dof k >= 3 sits
    on the edge opposite local vertex k - 3.
    """

    mesh: TriMesh
    degree: int
    cell_dofs: np.ndarray = field(default=None)
    dof_coords: np.ndarray = field(default=None)
    dim: int = 0

    def __init__(self, mesh: TriMesh, degree: int):
        if degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {degree}")
        self.mesh = mesh
        self.degree = degree
        if degree == 1:
            # read-only views: the dofs are the mesh's nodes
            self.cell_dofs, self.dof_coords = mesh.cells.view(), mesh.nodes.view()
            self.cell_dofs.setflags(write=False)
            self.dof_coords.setflags(write=False)
        else:
            # edge dofs in (lo, hi) node order; local edges opposite v0, v1, v2
            nn = len(mesh.nodes)
            keys, inverse = np.unique(
                _edge_keys(mesh.cells[:, [[1, 2], [2, 0], [0, 1]]], nn), return_inverse=True
            )
            edge_dof = nn + inverse.reshape(-1, 3)
            self.cell_dofs = np.concatenate([mesh.cells, edge_dof], axis=1)
            mids = 0.5 * (mesh.nodes[keys // nn] + mesh.nodes[keys % nn])
            self.dof_coords = np.concatenate([mesh.nodes, mids])
        self.dim = len(self.dof_coords)

    def tabulate(self, cells: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Basis values (n, nd) and physical gradients (n, nd, 2) at points
        (n, 2), point k taken in cell cells[k]."""
        v0, invJ, _ = self.mesh.geometry()
        Jinv = invJ[cells]
        ref = np.einsum("nkl,nl->nk", Jinv, pts - v0[cells])
        return ref_basis(self.degree, ref), ref_basis_grad(self.degree, ref) @ Jinv

    def boundary_dofs(self, marker: int | None = None) -> np.ndarray:
        """Sorted unique dofs whose basis functions are nonzero on boundary
        facets (optionally of one marker): the facet's two vertices and, for
        degree 2, its edge dof, which sits opposite local vertex ledge + 2."""
        facets = self.mesh.boundary_facets
        if marker is not None:
            facets = facets[self.mesh.boundary_markers == marker]
        local = _EDGE_VERTS if self.degree == 1 else np.hstack([_EDGE_VERTS, [[5], [3], [4]]])
        return np.unique(self.cell_dofs[facets[:, :1], local[facets[:, 1]]])


def nodal_interpolate(space: FeSpace, f) -> np.ndarray:
    """Coefficients of the nodal interpolant: f sampled at the dof coordinates."""
    c = space.dof_coords
    return np.asarray(f(c[:, 0], c[:, 1]), dtype=float)


def field_values(g, name: str, points: np.ndarray, place, shape=None) -> np.ndarray:
    """g(x, y) at the points (n, 2) as floats, broadcast to shape (default
    (n,)). A non-finite value raises a ValueError naming the field, the first
    point q at fault and place(q), such as "in cell 3 of part 0"."""
    x, y = points.T
    vals = np.broadcast_to(np.asarray(g(x, y), dtype=float), shape or x.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        q = at[0]
        raise ValueError(f"{name} is {vals[at]} at ({x[q]}, {y[q]}) {place(q)}")
    return vals


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _rectangle_frame(polygon: ConvexPolygon):
    v = polygon.vertices
    if len(v) != 4:
        raise GeometryError("structured meshing needs a rectangle (4 vertices)")
    u = v[1] - v[0]
    w = v[3] - v[0]
    lu, lw = np.hypot(*u), np.hypot(*w)
    if abs(float(np.dot(u, w))) > 1e-9 * lu * lw:
        raise GeometryError("structured meshing needs a rectangle (right angles)")
    return v[0], u, w, float(lu), float(lw)


def build_structured_mesh(polygon: ConvexPolygon, target_h: float) -> TriMesh:
    """Crossed-diagonal grid on a (possibly rotated) rectangle.

    Each grid square is split along a diagonal whose direction alternates in
    a checkerboard; achieved h is at most sqrt(2) * target_h and all cells
    are congruent right triangles.
    """
    if target_h <= 0:
        raise ValueError("target_h must be positive")
    v0, u, w, lu, lw = _rectangle_frame(polygon)
    if target_h > lu and target_h > lw:
        warnings.warn("target_h exceeds rectangle extent; falling back to a single cell pair")
    nx = max(1, math.ceil(lu / target_h - 1e-12))
    ny = max(1, math.ceil(lw / target_h - 1e-12))
    xi = np.linspace(0.0, 1.0, nx + 1)
    eta = np.linspace(0.0, 1.0, ny + 1)
    X, Y = np.meshgrid(xi, eta, indexing="ij")
    nodes = v0[None, :] + X.reshape(-1, 1) * u[None, :] + Y.reshape(-1, 1) * w[None, :]

    # two cells per grid square (i, j), squares in row-major order; node
    # (i, j) is i * (ny + 1) + j
    I, J = np.meshgrid(np.arange(nx, dtype=np.int64), np.arange(ny, dtype=np.int64),
                       indexing="ij")
    n00 = (I * (ny + 1) + J).ravel()
    n10, n01, n11 = n00 + ny + 1, n00 + 1, n00 + ny + 2
    even = ((I + J) % 2 == 0).ravel()  # diagonal n00-n11, else n10-n01
    cells = np.stack([n00, n10, np.where(even, n11, n01), np.where(even, n00, n10), n11, n01],
                     axis=1)
    return TriMesh(nodes, cells.reshape(-1, 3))


def build_band_mesh(inner: ConvexPolygon, width: float, target_h: float) -> TriMesh:
    """Annular band between a convex polygon and its outward offset.

    The band is meshed in rings: the inner boundary (marker 1, Dirichlet
    data) is subdivided edge by edge, matched to the corresponding offset
    edge, and layered radially. Outer-loop facets carry marker 0.
    """
    if width <= 0:
        raise GeometryError("band width must be positive")
    if target_h <= 0:
        raise ValueError("target_h must be positive")
    outer = offset_polygon(inner, width)
    vin = inner.vertices
    vout = outer.vertices
    nedge = len(vin)
    nlay = max(1, math.ceil(width / target_h - 1e-12))

    # edge k of both loops is split into mseg[k] equal segments
    d_in = np.roll(vin, -1, axis=0) - vin
    d_out = np.roll(vout, -1, axis=0) - vout
    mseg = np.maximum(1, np.ceil(np.hypot(d_out[:, 0], d_out[:, 1]) / target_h - 1e-12))
    mseg = mseg.astype(np.int64)
    edge = np.repeat(np.arange(nedge), mseg)
    t = (np.arange(len(edge)) - np.repeat(np.cumsum(mseg) - mseg, mseg)) / mseg[edge]
    ring_in = vin[edge] + t[:, None] * d_in[edge]
    ring_out = vout[edge] + t[:, None] * d_out[edge]
    M = len(ring_in)

    layers = np.arange(nlay + 1) / nlay
    nodes = (
        ring_in[None, :, :] * (1.0 - layers[:, None, None])
        + ring_out[None, :, :] * layers[:, None, None]
    ).reshape(-1, 2)

    # two cells per (layer, ring position), layers in turn; ring node r of
    # layer l is l * M + r
    L, R = np.meshgrid(np.arange(nlay, dtype=np.int64), np.arange(M, dtype=np.int64),
                       indexing="ij")
    c00 = (L * M + R).ravel()
    c10 = (L * M + (R + 1) % M).ravel()
    c01, c11 = c00 + M, c10 + M
    # the loops of a ConvexPolygon run counterclockwise and the layers go
    # outward, so these orders are counterclockwise
    cells = np.stack([c00, c11, c10, c00, c01, c11], axis=1).reshape(-1, 3)

    mesh = TriMesh(nodes, cells)
    # the nodes of the inner loop are the first M
    cell, ledge = mesh.boundary_facets.T
    on_inner = np.all(mesh.cells[cell[:, None], _EDGE_VERTS[ledge]] < M, axis=1)
    mesh.boundary_markers = np.where(on_inner, MARKER_INNER, MARKER_OUTER)
    return mesh
