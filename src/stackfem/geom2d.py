"""Convex polygon kernel: clipping, boolean difference, cut quadrature.

All cut-region computations reduce to sequences of half-plane splits of
convex polygons, which keeps the geometry robust: every split conserves
area and the two output pieces share their cut vertices bitwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GeometryError",
    "ConvexPolygon",
    "PolySet",
    "Segment",
    "QuadRule",
    "convex_intersect",
    "convex_difference",
    "clip_segment",
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
    n = len(vertices)
    s = 0.0
    xp, yp = vertices[-1]
    for x, y in vertices:
        s += xp * y - x * yp
        xp, yp = x, y
    return 0.5 * s


def _feature_scale(vertices: np.ndarray) -> float:
    lo = vertices.min(axis=0)
    hi = vertices.max(axis=0)
    return max(float(hi[0] - lo[0]), float(hi[1] - lo[1]), 1e-300)


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
            s = _feature_scale(self.vertices)
            self._scale = s
        return s

    def centroid(self) -> np.ndarray:
        v = self.vertices
        v2 = np.roll(v, -1, axis=0)
        w = v[:, 0] * v2[:, 1] - v[:, 1] * v2[:, 0]
        c = (v + v2) * w[:, None]
        return c.sum(axis=0) / (6.0 * self._area)

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

    def edges(self):
        """Yield (a, b) vertex pairs for each directed boundary edge."""
        v = self.vertices
        for k in range(len(v)):
            yield v[k], v[(k + 1) % len(v)]


def _validated_convex(verts: np.ndarray) -> np.ndarray:
    if len(verts) < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    if not np.all(np.isfinite(verts)):
        raise GeometryError("non-finite vertex coordinates")
    scale = _feature_scale(verts)
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

    @property
    def area(self) -> float:
        return float(sum(p.area for p in self.pieces))

    def __len__(self) -> int:
        return len(self.pieces)

    def __iter__(self):
        return iter(self.pieces)

    @property
    def empty(self) -> bool:
        return not self.pieces


@dataclass
class Segment:
    a: np.ndarray
    b: np.ndarray

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)

    @property
    def length(self) -> float:
        return float(np.hypot(*(self.b - self.a)))

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.a + self.b)

    def point_at(self, t: float) -> np.ndarray:
        return self.a + t * (self.b - self.a)


@dataclass
class QuadRule:
    """Quadrature points in physical coordinates with positive weights."""

    points: np.ndarray   # (n, 2)
    weights: np.ndarray  # (n,), sums to the measure of the region

    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=float).reshape(-1, 2)
        self.weights = np.asarray(weights, dtype=float).reshape(-1)

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def integrate(self, f) -> float:
        vals = f(self.points[:, 0], self.points[:, 1])
        return float(np.dot(self.weights, vals))


# ---------------------------------------------------------------------------
# Half-plane splitting
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
    scale = max(Q.scale, s.length, 1e-300)
    tol = REL_TOL * scale
    t_lo, t_hi = 0.0, 1.0
    dir_vec = s.b - s.a
    for p, q in Q.edges():
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
    tol_t = tol / max(s.length, 1e-300)
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
# Quadrature
# ---------------------------------------------------------------------------

def _symmetric_rule(groups) -> tuple[np.ndarray, np.ndarray]:
    bary = []
    weights = []
    for w, coords in groups:
        seen = set()
        for perm in _permutations3(coords):
            if perm not in seen:
                seen.add(perm)
                bary.append(perm)
                weights.append(w)
    return np.array(bary), np.array(weights)


def _permutations3(c):
    a, b, d = c
    return [(a, b, d), (a, d, b), (b, a, d), (b, d, a), (d, a, b), (d, b, a)]


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


def fan_triangles(polygons) -> tuple[np.ndarray, np.ndarray]:
    """Fan triangulation of many convex polygons at once, each from its
    first vertex: triangles (nt, 3, 2) in polygon order and the index of the
    polygon each came from. Triangles of zero area are dropped."""
    sizes = np.array([len(p.vertices) for p in polygons], dtype=np.int64)
    tris = [np.zeros((0, 3, 2))]
    owner = [np.zeros(0, dtype=np.int64)]
    for m in np.unique(sizes):
        idx = np.flatnonzero(sizes == m)
        v = np.stack([polygons[k].vertices for k in idx])          # (np, m, 2)
        apex = np.broadcast_to(v[:, :1], (len(idx), m - 2, 2))
        tris.append(np.stack([apex, v[:, 1:-1], v[:, 2:]], axis=2).reshape(-1, 3, 2))
        owner.append(np.repeat(idx, m - 2))
    order = np.argsort(np.concatenate(owner), kind="stable")
    tris = np.concatenate(tris)[order]
    owner = np.concatenate(owner)[order]
    keep = _triangle_areas(tris) > 0.0
    return tris[keep], owner[keep]


def _triangle_areas(tris: np.ndarray) -> np.ndarray:
    """Unsigned areas of triangles given as (..., 3, 2) arrays."""
    e1 = tris[..., 1, :] - tris[..., 0, :]
    e2 = tris[..., 2, :] - tris[..., 0, :]
    return 0.5 * np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])


def triangles_quadrature(tris: np.ndarray, order: int) -> QuadRule:
    """One reference rule mapped onto every triangle of (nt, 3, 2); the
    points of triangle t are rows t*nq .. (t+1)*nq - 1."""
    bary, w = triangle_rule(order)
    pts = np.einsum("qv,tvk->tqk", bary, tris)
    return QuadRule(pts, np.outer(_triangle_areas(tris), w))


def segments_quadrature(a: np.ndarray, b: np.ndarray, order: int) -> QuadRule:
    """Gauss rule exact for degree <= order mapped onto every segment
    a[s] -> b[s] (each (ns, 2)); the points of segment s are rows
    s*nq .. (s+1)*nq - 1."""
    x, w = np.polynomial.legendre.leggauss(max(1, (order + 2) // 2))
    d = b - a
    pts = a[:, None, :] + 0.5 * (x + 1.0)[None, :, None] * d[:, None, :]
    return QuadRule(pts, np.outer(np.hypot(d[:, 0], d[:, 1]), 0.5 * w))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def rect_polygon(x0: float, x1: float, y0: float, y1: float) -> ConvexPolygon:
    if not (x0 < x1 and y0 < y1):
        raise GeometryError(f"empty rectangle [{x0}, {x1}] x [{y0}, {y1}]")
    return ConvexPolygon([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


def rotate_rect(bounds, angle_deg: float, center=None) -> ConvexPolygon:
    """Rectangle rotated about its centroid (or an explicit center)."""
    x0, x1, y0, y1 = bounds
    rect = rect_polygon(x0, x1, y0, y1)
    if center is None:
        center = np.array([0.5 * (x0 + x1), 0.5 * (y0 + y1)])
    else:
        center = np.asarray(center, dtype=float)
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
