"""Convex polygon kernel: clipping, boolean difference, cut quadrature.

All cut-region computations reduce to sequences of half-plane splits of
convex polygons, which keeps the geometry robust: every split conserves
area and the two output pieces share their cut vertices bitwise.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GeometryError",
    "ConvexPolygon",
    "PolySet",
    "Segment",
    "convex_intersect",
    "convex_difference",
    "clip_segment",
    "split_polygons",
    "clip_polygons",
    "subtract_polygon",
    "segment_params",
    "clip_segments",
    "polygons",
    "centroids",
    "stack_padded",
    "math_hypot",
    "edge_vectors",
    "triangles_quadrature",
    "segments_quadrature",
    "fan_triangles",
    "rotate_rect",
    "rect_polygon",
    "regular_polygon",
    "offset_polygon",
    "polygon_area",
]

# Relative geometric tolerance; scaled by local feature size everywhere.
REL_TOL = 1e-12
# Polygons below AREA_FLOOR * scale^2 and segments below REL_TOL * scale
# are discarded: they sit under the quadrature noise floor.
AREA_FLOOR = 1e-14

MAX_QUAD_ORDER = 6


class GeometryError(ValueError):
    """Raised for degenerate or invalid geometric input."""


def polygon_area(vertices) -> float:
    """Signed shoelace area of a closed polygon, (n, 2) array or vertex list."""
    if isinstance(vertices, np.ndarray):
        vertices = vertices.tolist()
    s = 0.0
    xp, yp = vertices[-1]
    for x, y in vertices:
        s += xp * y - x * yp
        xp, yp = x, y
    return 0.5 * s


@dataclass
class ConvexPolygon:
    """Convex polygon with counterclockwise vertices, stored as (n, 2)."""

    vertices: np.ndarray
    _area: float = field(init=False, repr=False)

    def __init__(self, vertices, validate: bool = True):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise GeometryError(f"expected (n, 2) vertex array, got {verts.shape}")
        if validate:
            verts = _validated_convex(verts)
        self.vertices = verts
        self._area = polygon_area(verts)

    @property
    def area(self) -> float:
        return self._area

    @property
    def scale(self) -> float:
        s = getattr(self, "_scale", None)
        if s is None:
            s = float(_feature_scales(self.vertices[None], np.array([len(self.vertices)]))[0])
            self._scale = s
        return s

    def _edge_cross(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Cross products e_k x (point - v_k) per point and edge (..., nedges),
        positive inside, and the edge lengths."""
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        d = np.asarray(points, dtype=float)[..., None, :] - v
        return e[:, 0] * d[..., 1] - e[:, 1] * d[..., 0], np.hypot(e[:, 0], e[:, 1])

    def contains(self, point, tol: float | None = None):
        """True if the point is inside or on the boundary (boundary counts in);
        points (n, 2) give one bool per point."""
        if tol is None:
            tol = REL_TOL * self.scale
        cross, ln = self._edge_cross(point)
        return np.all(cross >= -tol * ln, axis=-1)

    def contains_strict(self, point, tol: float | None = None):
        """True only if the point is inside with margin tol (boundary excluded);
        points (n, 2) give one bool per point."""
        if tol is None:
            tol = REL_TOL * self.scale
        cross, ln = self._edge_cross(point)
        return np.all(cross > tol * ln, axis=-1)

    def bounds(self) -> tuple[float, float, float, float]:
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1])


def _validated_convex(verts: np.ndarray) -> np.ndarray:
    if len(verts) < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    if not np.all(np.isfinite(verts)):
        raise GeometryError("non-finite vertex coordinates")
    scale = float(_feature_scales(verts[None], np.array([len(verts)]))[0])
    verts = _dedupe_vertices(verts, REL_TOL * scale)
    if len(verts) < 3:
        raise GeometryError("degenerate polygon: fewer than 3 distinct vertices")
    area = polygon_area(verts)
    if area <= AREA_FLOOR * scale * scale:
        raise GeometryError(f"polygon area {area:g} not positive")
    e = np.roll(verts, -1, axis=0) - verts
    cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
    if np.any(cross < -REL_TOL * scale * scale):
        raise GeometryError("polygon is not convex (or not counterclockwise)")
    return verts


def _dedupe_vertices(verts: np.ndarray, tol_len: float) -> np.ndarray:
    keep = []
    n = len(verts)
    for k in range(n):
        if not keep or np.hypot(*(verts[k] - verts[keep[-1]])) > tol_len:
            keep.append(k)
    if len(keep) > 1 and np.hypot(*(verts[keep[-1]] - verts[keep[0]])) <= tol_len:
        keep.pop()
    return verts[keep]


@dataclass
class PolySet:
    """Disjoint collection of convex polygons (a possibly nonconvex region)."""

    pieces: list[ConvexPolygon]


@dataclass
class Segment:
    a: np.ndarray
    b: np.ndarray

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)


# ---------------------------------------------------------------------------
# Batched half-plane clipping
# ---------------------------------------------------------------------------
#
# Polygons travel in batches of padded vertex arrays: polygon r of a batch
# is verts[r, :counts[r]] of verts (n, M, 2). Every kernel does the
# Sutherland-Hodgman arithmetic of clipping one polygon at a time, element
# by element, so a batch clips bit for bit like the polygons one by one.

_EPS = np.finfo(float).eps


def math_hypot(ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    """`math.hypot` of each (ex, ey): `np.hypot` may round differently."""
    return np.array([math.hypot(x, y) for x, y in zip(ex.ravel().tolist(), ey.ravel().tolist())],
                    dtype=float).reshape(np.shape(ex))


def _farther(dx: np.ndarray, dy: np.ndarray, tol_len: np.ndarray) -> np.ndarray:
    """hypot(dx, dy) > tol_len, decided as `math.hypot` decides it: where
    `np.hypot` lands within a few ulps of tol_len, it is measured again."""
    h = np.hypot(dx, dy)
    near = np.nonzero(np.abs(h - tol_len) <= 4 * _EPS * tol_len)
    if len(near[0]):
        h[near] = math_hypot(dx[near], dy[near])
    return h > tol_len


def _compact(slots: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slots (n, S, 2) where mask (n, S) holds, moved to the front of
    each row in order: a batch (verts, counts)."""
    counts = mask.sum(axis=1)
    out = np.zeros((len(mask), int(counts.max(initial=0)), 2))
    r, k = np.nonzero(mask)
    out[r, np.cumsum(mask, axis=1)[r, k] - 1] = slots[r, k]
    return out, counts


def stack_padded(verts: list[np.ndarray]) -> np.ndarray:
    """Vertex arrays (n_i, M_i, 2) stacked along the rows, zero padded to
    the largest M_i."""
    out = np.zeros((sum(len(v) for v in verts), max((v.shape[1] for v in verts), default=0), 2))
    start = 0
    for v in verts:
        out[start:start + len(v), :v.shape[1]] = v
        start += len(v)
    return out


def _next_slots(counts: np.ndarray, width: int) -> np.ndarray:
    """Index (n, width) of the vertex after each slot of a padded batch:
    k + 1, or 0 after the last vertex."""
    k = np.arange(1, width + 1)
    return np.where(k < counts[:, None], k, 0)


def _feature_scales(verts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The larger bounding-box extent of each polygon of a batch, floored
    at 1e-300, as `ConvexPolygon.scale`."""
    valid = (np.arange(verts.shape[1]) < counts[:, None])[..., None]
    lo = np.where(valid, verts, np.inf).min(axis=1)
    hi = np.where(valid, verts, -np.inf).max(axis=1)
    ext = hi - lo
    return np.maximum(np.maximum(ext[:, 0], ext[:, 1]), 1e-300)


def split_polygons(verts, counts, p, e, inv_norm, tol):
    """Split polygon r of a batch by the directed line through p[r] along
    e[r], inv_norm[r] = 1 / |e[r]| (or by one line p, e, inv_norm for all):
    returns the batches (verts, counts) of the parts left and right of the
    lines.

    Vertices within tol[r] of the line go to both sides, so the two parts
    tile the polygon and share cut vertices bitwise; a polygon that no
    vertex leaves the band of on one side goes whole to the other.
    """
    n, width = verts.shape[:2]
    valid = np.arange(width) < counts[:, None]
    p, e, inv_norm = (np.asarray(x)[..., None] for x in (p, e, inv_norm))
    d = (e[..., 0, :] * (verts[..., 1] - p[..., 1, :])
         - e[..., 1, :] * (verts[..., 0] - p[..., 0, :])) * inv_norm
    neg_tol = -tol[:, None]
    tol = tol[:, None]
    all_left = np.all((d >= neg_tol) | ~valid, axis=1)
    all_right = np.all((d <= tol) | ~valid, axis=1)
    general = (~all_left & ~all_right)[:, None]
    nxt = _next_slots(counts, width)
    d2 = np.take_along_axis(d, nxt, axis=1)
    # genuine sign change: the crossing point goes to both sides
    cross = general & valid & (((d > tol) & (d2 < neg_tol)) | ((d < neg_tol) & (d2 > tol)))
    slots = np.zeros((n, width, 2, 2))
    slots[:, :, 0] = verts
    r, k = np.nonzero(cross)
    dk, dk2 = d[r, k], d[r, nxt[r, k]]
    t = (dk / (dk - dk2))[:, None]
    vk, vk2 = verts[r, k], verts[r, nxt[r, k]]
    slots[r, k, 1] = vk + t * (vk2 - vk)
    keep_left = valid & (all_left[:, None] | (general & (d >= neg_tol)))
    keep_right = valid & ((all_right & ~all_left)[:, None] | (general & (d <= tol)))
    slots = slots.reshape(n, 2 * width, 2)
    return (_compact(slots, np.stack([keep_left, cross], axis=2).reshape(n, 2 * width)),
            _compact(slots, np.stack([keep_right, cross], axis=2).reshape(n, 2 * width)))


def _finish(verts, counts, scale):
    """Raw split output as polygons: vertices within REL_TOL * scale of the
    last one kept dropped (and the last within that of the first), then
    polygons with fewer than 3 vertices or an area at most
    AREA_FLOOR * scale^2 emptied. Returns (verts, counts, areas); an empty
    polygon has count 0."""
    n, width = verts.shape[:2]
    if width == 0:
        return verts, np.zeros(n, dtype=np.int64), np.zeros(n)
    tol_len = REL_TOL * scale
    valid = np.arange(width) < counts[:, None]
    # the last vertex kept is the one before, until a vertex goes; rows
    # where one goes are thinned again vertex by vertex
    step = verts[:, 1:] - verts[:, :-1]
    keep = valid.copy()
    keep[:, 1:] &= _farther(step[..., 0], step[..., 1], tol_len[:, None])
    rows = np.flatnonzero((keep != valid).any(axis=1))
    last = verts[rows, 0]
    for k in range(1, width):
        far = (k < counts[rows]) & _farther(verts[rows, k, 0] - last[:, 0],
                                            verts[rows, k, 1] - last[:, 1], tol_len[rows])
        keep[rows, k] = far
        last[far] = verts[rows[far], k]
    lastk = width - 1 - np.argmax(keep[:, ::-1], axis=1)
    d = verts[np.arange(n), lastk] - verts[:, 0]
    closes = (keep.sum(axis=1) > 1) & ~_farther(d[:, 0], d[:, 1], tol_len)
    keep[np.flatnonzero(closes), lastk[closes]] = False
    verts, counts = _compact(verts, keep)
    # shoelace sum in vertex order, starting from the last vertex
    end = np.maximum(counts - 1, 0)
    prev = np.empty_like(verts)
    prev[:, 1:] = verts[:, :-1]
    prev[:, 0] = verts[np.arange(n), end]
    terms = prev[..., 0] * verts[..., 1] - verts[..., 0] * prev[..., 1]
    areas = 0.5 * np.cumsum(terms, axis=1)[np.arange(n), end]
    counts = np.where((counts >= 3) & (areas > AREA_FLOOR * scale * scale), counts, 0)
    return verts, counts, areas


def edge_vectors(verts):
    """Edge vectors v[k+1] - v[k] and edge lengths (`math.hypot`) of
    polygons (..., K, 2) that all have K vertices."""
    e = np.roll(verts, -1, axis=-2) - verts
    return e, math_hypot(e[..., 0], e[..., 1])


def clip_polygons(verts, counts, clip, which):
    """Intersection of polygon r of a batch with the convex polygon
    clip[which[r]] of clip (m, K, 2), for every r: clips against the edge
    half-planes of the clip polygon in order and stops a polygon as soon as
    fewer than 3 vertices remain. 1 / |edge| is taken once per distinct
    clip edge.

    Returns the batch (verts, counts, areas), count 0 where empty.
    """
    e, norm = edge_vectors(clip)
    inv_norm = 1.0 / norm
    scale = np.maximum(_feature_scales(verts, counts),
                       _feature_scales(clip, np.full(len(clip), clip.shape[1]))[which])
    tol = REL_TOL * scale
    for k in range(clip.shape[1]):
        (verts, counts), _ = split_polygons(verts, counts, clip[which, k], e[which, k],
                                            inv_norm[which, k], tol)
        counts = np.where(counts < 3, 0, counts)
    return _finish(verts, counts, scale)


def subtract_polygon(verts, counts, Q: ConvexPolygon):
    """Every polygon of a batch minus one convex polygon Q, each as a
    disjoint convex decomposition: the part outside each edge half-plane of
    Q is split off in turn, and what remains after all edges (the part
    inside Q) is dropped.

    Returns the pieces as a batch (verts, counts, areas) and the row of the
    input each came from, in (input row, edge of Q) order.
    """
    qv = Q.vertices
    e, norm = edge_vectors(qv)
    inv_norm = 1.0 / norm
    scale = np.maximum(_feature_scales(verts, counts), Q.scale)
    tol = REL_TOL * scale
    outside = []
    for k in range(len(qv)):
        counts = np.where(counts < 3, 0, counts)  # nothing more to split off
        (verts, counts), out = split_polygons(verts, counts, qv[k], e[k], inv_norm[k], tol)
        outside.append(out)
    # the raw pieces in (input row, edge) order; those of 3 or more vertices
    # are finished together
    n = len(counts)
    order = (np.arange(n)[:, None] + n * np.arange(len(qv))).ravel()
    raw_counts = np.concatenate([c for _, c in outside])[order]
    rows = order[raw_counts >= 3]
    v, c, a = _finish(stack_padded([v for v, _ in outside])[rows], raw_counts[raw_counts >= 3],
                      np.tile(scale, len(qv))[rows])
    keep = np.flatnonzero(c)
    return v[keep], c[keep], a[keep], rows[keep] % n


def segment_params(a, b, p, e, norm, tol):
    """Parameter interval [t_lo, t_hi] of each segment a[n] -> b[n] inside
    the convex polygon with vertices p (n, K, 2) or (1, K, 2), edge vectors
    e and edge lengths norm (same leading shape), and whether it is
    nonempty.

    Clips against the edge half-planes in order: an end within tol[n] of an
    edge line counts as inside, a segment with neither end clear inside an
    edge is empty, and one whose interval closes stops there.
    """
    t_lo = np.zeros(len(a))
    t_hi = np.ones(len(a))
    hit = np.ones(len(a), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(p.shape[1]):
            pk, ek, nk = p[:, k], e[:, k], norm[:, k]
            da = (ek[:, 0] * (a[:, 1] - pk[:, 1]) - ek[:, 1] * (a[:, 0] - pk[:, 0])) / nk
            db = (ek[:, 0] * (b[:, 1] - pk[:, 1]) - ek[:, 1] * (b[:, 0] - pk[:, 0])) / nk
            inside = (da >= -tol) & (db >= -tol)
            hit &= inside | (da > tol) | (db > tol)
            t = da / (da - db)
            leaves = hit & ~inside & (db < da)
            enters = hit & ~inside & ~(db < da)
            t_hi = np.where(leaves & (t < t_hi), t, t_hi)
            t_lo = np.where(enters & (t > t_lo), t, t_lo)
            hit &= t_lo < t_hi
    return t_lo, t_hi, hit


def clip_segments(a: np.ndarray, b: np.ndarray, Q: ConvexPolygon):
    """Sub-segments of each segment a[n] -> b[n] inside and outside Q;
    inside + outside tile each segment.

    A segment lying on the boundary of Q counts as inside (deterministic
    tie-break; measure zero for area integrals either way). Returns the
    inside and the outside pieces, each as (a, b, source row) in (source
    row, position along the segment) order.
    """
    d = b - a
    length = np.hypot(d[:, 0], d[:, 1])
    tol = REL_TOL * np.maximum(np.maximum(Q.scale, length), 1e-300)
    qv = Q.vertices
    e, norm = edge_vectors(qv)
    t_lo, t_hi, hit = segment_params(a, b, qv[None], e[None], norm[None], tol)
    tol_t = tol / np.maximum(length, 1e-300)
    ins = hit & (t_hi - t_lo > tol_t)
    pa = a + t_lo[:, None] * d
    pb = a + t_hi[:, None] * d
    rows = np.arange(len(a))
    # outside: the part before t_lo, then the part after t_hi, or all of it
    before = ~ins | (t_lo > tol_t)
    after = ins & (t_hi < 1.0 - tol_t)
    out_a = np.stack([a, pb], axis=1)
    out_b = np.stack([np.where(ins[:, None], pa, b), b], axis=1)
    mask = np.stack([before, after], axis=1)
    return ((pa[ins], pb[ins], rows[ins]),
            (out_a[mask], out_b[mask], np.repeat(rows, 2).reshape(-1, 2)[mask]))


def polygons(verts, counts, areas) -> list[ConvexPolygon]:
    """The nonempty polygons of a batch as ConvexPolygons, in row order."""
    out = []
    for r in np.flatnonzero(counts).tolist():
        poly = ConvexPolygon.__new__(ConvexPolygon)
        poly.vertices = verts[r, :counts[r]]
        poly._area = float(areas[r])
        poly._scale = None
        out.append(poly)
    return out


def centroids(verts: np.ndarray, counts: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Centroids (n, 2) of the polygons of a padded batch, given their
    areas: the first moments of the edges summed in vertex order, as for
    one polygon at a time."""
    width = verts.shape[1]
    v2 = np.take_along_axis(verts, _next_slots(counts, width)[..., None], axis=1)
    w = verts[..., 0] * v2[..., 1] - verts[..., 1] * v2[..., 0]
    c = (verts + v2) * w[..., None]
    total = c[:, 0] if width else np.zeros((len(verts), 2))
    for k in range(1, width):
        total = np.where((k < counts)[:, None], total + c[:, k], total)
    return total / (6.0 * areas)[:, None]


def _batch_of(P: ConvexPolygon):
    return P.vertices[None], np.array([len(P.vertices)])


def convex_intersect(P: ConvexPolygon, Q: ConvexPolygon) -> PolySet:
    """Intersection P ∩ Q as a PolySet with zero or one convex piece."""
    return PolySet(polygons(*clip_polygons(*_batch_of(P), Q.vertices[None], np.zeros(1, int))))


def convex_difference(P: ConvexPolygon, Q: ConvexPolygon) -> PolySet:
    """Difference P \\ Q as a disjoint convex decomposition."""
    return PolySet(polygons(*subtract_polygon(*_batch_of(P), Q)[:3]))


def clip_segment(s: Segment, Q: ConvexPolygon, keep_inside: bool = True) -> list[Segment]:
    """Sub-segments of s inside (or outside) Q; inside + outside tile s."""
    inside, outside = clip_segments(s.a[None], s.b[None], Q)
    a, b, _ = inside if keep_inside else outside
    return [Segment(pa, pb) for pa, pb in zip(a, b)]


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def _symmetric_rule(groups) -> tuple[np.ndarray, np.ndarray]:
    bary = []
    weights = []
    for w, coords in groups:
        for perm in dict.fromkeys(itertools.permutations(coords)):
            bary.append(perm)
            weights.append(w)
    return np.array(bary), np.array(weights)


# Symmetric triangle rules in barycentric coordinates, weights normalised to
# sum to 1. All weights positive (order 3 therefore maps to the degree-4
# rule: the classical 4-point degree-3 rule has a negative centroid weight).
_TRI_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}

_TRI_RULES[1] = (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0]))
_TRI_RULES[2] = _symmetric_rule([(1 / 3, (2 / 3, 1 / 6, 1 / 6))])
_TRI_RULES[4] = _symmetric_rule([
    (0.223381589678011, (0.108103018168070, 0.445948490915965, 0.445948490915965)),
    (0.109951743655322, (0.816847572980459, 0.091576213509771, 0.091576213509771)),
])
_TRI_RULES[3] = _TRI_RULES[4]
_TRI_RULES[5] = _symmetric_rule([
    (0.225, (1 / 3, 1 / 3, 1 / 3)),
    (0.132394152788506, (0.059715871789770, 0.470142064105115, 0.470142064105115)),
    (0.125939180544827, (0.797426985353087, 0.101286507323456, 0.101286507323456)),
])
_TRI_RULES[6] = _symmetric_rule([
    (0.116786275726379, (0.501426509658179, 0.249286745170910, 0.249286745170910)),
    (0.050844906370207, (0.873821971016996, 0.063089014491502, 0.063089014491502)),
    (0.082851075618374, (0.053145049844816, 0.310352451033785, 0.636502499121399)),
])


def triangle_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric points and unit-sum weights exact for total degree <= order."""
    if order not in _TRI_RULES:
        raise GeometryError(f"unsupported quadrature order {order} (supported 1..{MAX_QUAD_ORDER})")
    return _TRI_RULES[order]


def fan_triangles(verts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fan triangulation of the convex polygons of a padded batch, each from
    its first vertex: triangles (nt, 3, 2) in polygon order and the row of
    the polygon each came from. Triangles of zero area are dropped."""
    # triangle (v[0], v[k + 1], v[k + 2]) for k < counts[r] - 2, by row then k
    owner, k = np.nonzero(np.arange(verts.shape[1] - 2) < counts[:, None] - 2)
    tris = verts[owner[:, None], np.stack([np.zeros_like(k), k + 1, k + 2], axis=1)]
    keep = _triangle_areas(tris) > 0.0
    return tris[keep], owner[keep]


def _triangle_areas(tris: np.ndarray) -> np.ndarray:
    """Unsigned areas of triangles given as (..., 3, 2) arrays."""
    e1 = tris[..., 1, :] - tris[..., 0, :]
    e2 = tris[..., 2, :] - tris[..., 0, :]
    return 0.5 * np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])


def triangles_quadrature(tris: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """One reference rule mapped onto every triangle of (nt, 3, 2): points
    (nt*nq, 2) and weights (nt*nq,), those of triangle t in rows
    t*nq .. (t+1)*nq - 1."""
    bary, w = triangle_rule(order)
    pts = np.einsum("qv,tvk->tqk", bary, tris)
    return pts.reshape(-1, 2), np.outer(_triangle_areas(tris), w).ravel()


def segments_quadrature(a: np.ndarray, b: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule exact for degree <= order mapped onto every segment
    a[s] -> b[s] (each (ns, 2)): points (ns*nq, 2) and weights (ns*nq,),
    those of segment s in rows s*nq .. (s+1)*nq - 1."""
    x, w = np.polynomial.legendre.leggauss(max(1, (order + 2) // 2))
    d = b - a
    pts = a[:, None, :] + 0.5 * (x + 1.0)[None, :, None] * d[:, None, :]
    return pts.reshape(-1, 2), np.outer(np.hypot(d[:, 0], d[:, 1]), 0.5 * w).ravel()


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def rect_polygon(x0: float, x1: float, y0: float, y1: float) -> ConvexPolygon:
    if not (x0 < x1 and y0 < y1):
        raise GeometryError(f"empty rectangle [{x0}, {x1}] x [{y0}, {y1}]")
    return ConvexPolygon([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


def rotate_rect(bounds, angle_deg: float) -> ConvexPolygon:
    """Rectangle rotated about its centroid."""
    x0, x1, y0, y1 = bounds
    rect = rect_polygon(x0, x1, y0, y1)
    center = np.array([0.5 * (x0 + x1), 0.5 * (y0 + y1)])
    theta = math.radians(angle_deg)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    verts = (rect.vertices - center) @ rot.T + center
    return ConvexPolygon(verts)


def regular_polygon(nsides: int, inradius: float, center=(0.0, 0.0)) -> ConvexPolygon:
    """Regular polygon with given inradius, first vertex on the +x axis side."""
    if nsides < 3 or inradius <= 0:
        raise GeometryError("need nsides >= 3 and inradius > 0")
    center = np.asarray(center, dtype=float)
    circum = inradius / math.cos(math.pi / nsides)
    ang = np.pi / nsides + 2.0 * np.pi * np.arange(nsides) / nsides
    verts = center + circum * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return ConvexPolygon(verts)


def offset_polygon(P: ConvexPolygon, width: float) -> ConvexPolygon:
    """Outward miter offset: every edge line moved out by width."""
    if width <= 0:
        raise GeometryError("offset width must be positive")
    v = P.vertices
    n = len(v)
    lines = []
    for k in range(n):
        a, b = v[k], v[(k + 1) % n]
        e = b - a
        nrm = np.array([e[1], -e[0]]) / math.hypot(e[0], e[1])  # outward for CCW
        lines.append((a + width * nrm, b + width * nrm))
    verts = []
    for k in range(n):
        p1, q1 = lines[k - 1]
        p2, q2 = lines[k]
        d1 = q1 - p1
        d2 = q2 - p2
        den = d1[0] * d2[1] - d1[1] * d2[0]
        if abs(den) < 1e-15 * max(np.hypot(*d1), np.hypot(*d2)) ** 2:
            verts.append(0.5 * (q1 + p2))  # near-parallel consecutive edges
            continue
        t = ((p2[0] - p1[0]) * d2[1] - (p2[1] - p1[1]) * d2[0]) / den
        verts.append(p1 + t * d1)
    return ConvexPolygon(np.array(verts))
