import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
from conftest import monomial_integral_polygon
from stackfem import geom2d
from stackfem.geom2d import (
    REL_TOL,
    ConvexPolygon,
    GeometryError,
    Segment,
    centroids,
    clip_polygons,
    clip_segment,
    clip_segments,
    convex_difference,
    convex_intersect,
    fan_triangles,
    math_hypot,
    offset_polygon,
    polygon_area,
    rect_polygon,
    regular_polygon,
    rotate_rect,
    segments_quadrature,
    split_polygons,
    subtract_polygon,
    triangles_quadrature,
)

UNIT = rect_polygon(0.0, 1.0, 0.0, 1.0)


def _polygon_rule(P, order):
    """The triangle rule (points, weights) on the fan of one convex polygon."""
    return triangles_quadrature(fan_triangles(P.vertices[None], np.array([len(P.vertices)]))[0],
                                order)


def _integrate(q, f) -> float:
    pts, w = q
    return float(np.dot(w, f(pts[:, 0], pts[:, 1])))


def _area(S) -> float:
    return sum(p.area for p in S.pieces)


class TestIntersect:
    def test_axis_aligned_overlap(self):
        out = convex_intersect(UNIT, rect_polygon(0.5, 1.5, 0.0, 1.0))
        assert len(out.pieces) == 1
        assert _area(out) == pytest.approx(0.5, abs=1e-14)

    def test_identity(self):
        out = convex_intersect(UNIT, UNIT)
        assert len(out.pieces) == 1
        assert _area(out) == pytest.approx(1.0, abs=1e-14)

    def test_disjoint(self):
        assert not convex_intersect(UNIT, rect_polygon(2.0, 3.0, 2.0, 3.0)).pieces

    def test_degenerate_input_raises(self):
        with pytest.raises(GeometryError):
            ConvexPolygon([[0, 0], [1, 0], [2, 0]])  # zero area
        with pytest.raises(GeometryError):
            ConvexPolygon([[0, 0], [1, 0]])


class TestDifference:
    def test_centered_hole(self):
        out = convex_difference(UNIT, rect_polygon(0.25, 0.75, 0.25, 0.75))
        assert _area(out) == pytest.approx(0.75, abs=1e-13)

    def test_disjoint_returns_p(self):
        out = convex_difference(UNIT, rect_polygon(2.0, 3.0, 2.0, 3.0))
        assert len(out.pieces) == 1
        assert _area(out) == pytest.approx(1.0, abs=1e-14)

    def test_superset_returns_empty(self):
        assert not convex_difference(UNIT, rect_polygon(-1.0, 2.0, -1.0, 2.0)).pieces

    def test_area_conservation_random(self, rng):
        for _ in range(200):
            P = _random_convex(rng)
            Q = _random_convex(rng)
            inter = _area(convex_intersect(P, Q))
            diff = _area(convex_difference(P, Q))
            assert inter + diff == pytest.approx(P.area, rel=1e-10, abs=1e-13)

    def test_pieces_pairwise_disjoint(self, rng):
        for _ in range(50):
            P = _random_convex(rng)
            Q = _random_convex(rng)
            pieces = convex_difference(P, Q).pieces
            for a in range(len(pieces)):
                for b in range(a + 1, len(pieces)):
                    assert _area(convex_intersect(pieces[a], pieces[b])) <= 1e-12


class TestClipSegment:
    def test_horizontal_through_square(self):
        s = Segment((0.0, 0.5), (1.0, 0.5))
        inside = clip_segment(s, rect_polygon(0.25, 0.75, 0.0, 1.0), keep_inside=True)
        assert len(inside) == 1
        assert ref.length(inside[0]) == pytest.approx(0.5, abs=1e-14)

    def test_outside_keeps_nothing(self):
        s = Segment((2.0, 2.0), (3.0, 2.0))
        assert clip_segment(s, UNIT, keep_inside=True) == []

    def test_on_boundary_counts_inside(self):
        s = Segment((0.0, 0.0), (1.0, 0.0))  # lies on the bottom edge
        inside = clip_segment(s, UNIT, keep_inside=True)
        outside = clip_segment(s, UNIT, keep_inside=False)
        assert len(inside) == 1 and ref.length(inside[0]) == pytest.approx(1.0)
        assert outside == []

    def test_length_partition_random(self, rng):
        for _ in range(300):
            Q = _random_convex(rng)
            s = Segment(rng.uniform(-0.5, 1.5, 2), rng.uniform(-0.5, 1.5, 2))
            if ref.length(s) < 1e-6:
                continue
            li = sum(ref.length(p) for p in clip_segment(s, Q, keep_inside=True))
            lo = sum(ref.length(p) for p in clip_segment(s, Q, keep_inside=False))
            assert li + lo == pytest.approx(ref.length(s), rel=1e-12, abs=1e-14)


class TestQuadrature:
    def test_unit_square_weight_sum(self):
        _, w = _polygon_rule(UNIT, 2)
        assert w.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(w > 0)

    def test_linear_exact(self):
        q = _polygon_rule(UNIT, 2)
        assert _integrate(q, lambda x, y: x) == pytest.approx(0.5, rel=1e-12)

    def test_x2y2_exact(self):
        q = _polygon_rule(UNIT, 4)
        assert _integrate(q, lambda x, y: x ** 2 * y ** 2) == pytest.approx(1 / 9, rel=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_monomial_exactness_reference_triangle(self, order):
        tri = ConvexPolygon([[0, 0], [1, 0], [0, 1]])
        q = _polygon_rule(tri, order)
        assert np.all(q[1] > 0)
        for a in range(order + 1):
            for b in range(order + 1 - a):
                exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                got = _integrate(q, lambda x, y, a=a, b=b: x ** a * y ** b)
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_monomial_exactness_random_polygon(self, order, rng):
        for _ in range(5):
            P = _random_convex(rng)
            q = _polygon_rule(P, order)
            for a in range(order + 1):
                for b in range(order + 1 - a):
                    exact = monomial_integral_polygon(P, a, b)
                    got = _integrate(q, lambda x, y, a=a, b=b: x ** a * y ** b)
                    assert got == pytest.approx(exact, rel=1e-11, abs=1e-14)

    def test_unsupported_order(self):
        with pytest.raises(GeometryError):
            _polygon_rule(UNIT, 7)

    def test_segment_rule(self):
        s = Segment((0.0, 0.0), (2.0, 0.0))
        q = segments_quadrature(s.a[None], s.b[None], 4)
        assert q[1].sum() == pytest.approx(2.0, rel=1e-14)
        assert _integrate(q, lambda x, y: x ** 4) == pytest.approx(32 / 5, rel=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_segments_rule_exact_per_segment(self, order, rng):
        a = rng.uniform(-1.0, 1.0, (7, 2))
        b = a + rng.uniform(0.1, 1.0, (7, 2))
        points, weights = segments_quadrature(a, b, order)
        nq = len(weights) // len(a)
        assert points.shape == (nq * len(a), 2)
        assert len(weights) == nq * len(a) and np.all(weights > 0)
        for s in range(len(a)):
            pts, w = points[s * nq:(s + 1) * nq], weights[s * nq:(s + 1) * nq]
            length = math.hypot(*(b[s] - a[s]))
            for k in range(order + 1):
                # x runs linearly from a_x to b_x along the segment
                exact = length * (b[s, 0] ** (k + 1) - a[s, 0] ** (k + 1)) / (
                    (k + 1) * (b[s, 0] - a[s, 0]))
                assert np.dot(w, pts[:, 0] ** k) == pytest.approx(exact, rel=1e-12)


class TestConstructors:
    def test_rotate_rect_preserves_area(self):
        p = rotate_rect((0.2, 0.8, 0.3, 0.75), 23.0)
        assert p.area == pytest.approx(0.27, rel=1e-12)

    def test_zero_rotation_is_identity(self):
        p = rotate_rect((0.1, 0.4, 0.2, 0.9), 0.0)
        assert np.allclose(p.vertices, rect_polygon(0.1, 0.4, 0.2, 0.9).vertices)

    def test_full_turn_matches_zero(self):
        p0 = rotate_rect((0.1, 0.4, 0.2, 0.9), 0.0)
        p1 = rotate_rect((0.1, 0.4, 0.2, 0.9), 360.0)
        assert np.allclose(p0.vertices, p1.vertices, atol=1e-12)

    def test_empty_rect_raises(self):
        with pytest.raises(GeometryError):
            rect_polygon(0.5, 0.5, 0.0, 1.0)

    def test_regular_polygon_inradius(self):
        hexa = regular_polygon(6, 0.15, (0.5, 0.5))
        # inradius = distance from center to each edge
        for p, q in ref.edges(hexa):
            e = q - p
            d = abs(e[0] * (0.5 - p[1]) - e[1] * (0.5 - p[0])) / math.hypot(*e)
            assert d == pytest.approx(0.15, rel=1e-12)

    def test_offset_polygon_moves_edges_out(self):
        hexa = regular_polygon(6, 0.15, (0.5, 0.5))
        out = offset_polygon(hexa, 0.1)
        for p, q in ref.edges(out):
            e = q - p
            d = abs(e[0] * (0.5 - p[1]) - e[1] * (0.5 - p[0])) / math.hypot(*e)
            assert d == pytest.approx(0.25, rel=1e-12)


def _random_convex(rng) -> ConvexPolygon:
    kind = rng.integers(0, 2)
    if kind == 0:
        cx, cy = rng.uniform(0.1, 0.9, 2)
        hx, hy = rng.uniform(0.05, 0.4, 2)
        return rotate_rect((cx - hx, cx + hx, cy - hy, cy + hy), rng.uniform(0, 180))
    n = int(rng.integers(3, 8))
    return regular_polygon(n, rng.uniform(0.1, 0.4), rng.uniform(0.2, 0.8, 2))


# ---------------------------------------------------------------------------
# Batched kernels against the scalar clipper, bit for bit
# ---------------------------------------------------------------------------

# offsets off a shared edge, vertex or line, in units of the scale; the
# clipping tolerance is REL_TOL = 1e-12 of it, so +-5e-13 sits in the band
OFFSETS = [0.0, 1e-13, -1e-13, 5e-13, -5e-13, 1e-12, -1e-12, 3e-12, -3e-12, 1e-9, 1e-3, -1e-3]
# padding past each polygon's count holds junk that the kernels must ignore
JUNK = 7.25


def _ccw(v: np.ndarray) -> np.ndarray:
    area = polygon_area(v)
    return v if area >= 0.0 else v[::-1].copy()


def _rotate(v, center, degrees):
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    return (v - center) @ np.array([[c, -s], [s, c]]).T + center


def _outward(v, k):
    e = v[(k + 1) % len(v)] - v[k]
    return np.array([e[1], -e[0]]) / math.hypot(e[0], e[1])


@st.composite
def convex_vertices(draw, scale):
    """3 to 7 counterclockwise vertices on a rotated ellipse."""
    n = draw(st.integers(3, 7))
    # angles at least 0.05 apart: no two vertices coincide
    angles = 0.05 * np.arange(n) + np.sort(np.array(draw(st.lists(
        st.floats(0.0, 2 * math.pi - 0.05 * n), min_size=n, max_size=n))))
    rx, ry = draw(st.floats(0.3, 1.0)), draw(st.floats(0.3, 1.0))
    phi = draw(st.floats(0.0, math.pi))
    c = np.array([draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))])
    v = np.stack([rx * np.cos(angles), ry * np.sin(angles)], axis=1)
    return (_rotate(v, np.zeros(2), math.degrees(phi)) + c) * scale


@st.composite
def clustered(draw, v, scale):
    """v, or v with two vertices added on the edge into vertex k, spaced a
    fraction of the tolerance apart: a chain of vertices that de-duplication
    must thin against the last vertex kept, and, for k = 0, the last vertex
    near the first."""
    if not draw(st.booleans()):
        return v
    k = draw(st.integers(0, len(v) - 1))
    step = draw(st.sampled_from([0.3, 0.6, 0.9])) * REL_TOL * scale
    u = v[k - 1] - v[k]
    u = u / math.hypot(u[0], u[1])
    near = np.array([v[k] + 2 * step * u, v[k] + step * u])
    return np.concatenate([v[:k], near, v[k:]]) if k else np.concatenate([v, near])


@st.composite
def polygon_pairs(draw):
    """(P, Q) vertex arrays biased to hard cases: shared edges, vertex
    contact, near-coincident copies (tiny shifts, 1e-9 degree rotations,
    scalings by 1 +- 1e-13), nesting, and lines through the tolerance band
    around a vertex."""
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    P = draw(convex_vertices(scale))
    k = draw(st.integers(0, len(P) - 1))
    p, q = P[k], P[(k + 1) % len(P)]
    gap = draw(st.sampled_from(OFFSETS)) * scale
    mode = draw(st.sampled_from(["free", "shared-edge", "vertex", "rotated", "nested",
                                 "shifted", "band"]))
    if mode == "free":
        Q = draw(convex_vertices(scale))
    elif mode == "shared-edge":
        n = _outward(P, k)
        depth = draw(st.floats(0.05, 1.0)) * scale
        apex = p + draw(st.floats(-0.5, 1.5)) * (q - p) + depth * n
        Q = np.array([q, p, apex]) + gap * n
    elif mode == "vertex":
        turn = draw(st.floats(-1.0, 1.0))
        d1 = _rotate(_outward(P, k)[None], np.zeros(2), math.degrees(turn))[0]
        d2 = _rotate(_outward(P, k - 1)[None], np.zeros(2), math.degrees(turn))[0]
        Q = np.array([q, q + 0.7 * scale * d1, q + 0.7 * scale * d2]) + gap * d1
    elif mode == "rotated":
        center = draw(st.sampled_from([P.mean(axis=0), p]))
        Q = _rotate(P, center, draw(st.sampled_from([1e-9, -1e-9, 1e-6, 30.0])))
    elif mode == "nested":
        c = P.mean(axis=0)
        Q = c + draw(st.sampled_from([0.5, 1 - 1e-13, 1.0, 1 + 1e-13, 2.0])) * (P - c)
    elif mode == "shifted":
        Q = P + gap * np.array([math.cos(draw(st.floats(0, 6.3))), 0.5])
    else:
        # a big triangle whose first edge passes gap off vertex k of P
        theta = draw(st.floats(0.0, 2 * math.pi))
        u = np.array([math.cos(theta), math.sin(theta)])
        n = np.array([u[1], -u[0]])
        a = p + gap * n - 3 * scale * u
        Q = np.array([a, a + 6 * scale * u, p + gap * n - 3 * scale * n])
    Q = _ccw(Q)
    if draw(st.booleans()):
        P, Q = Q, P
    return draw(clustered(P, scale)), draw(clustered(Q, scale))


def _padded(polys: list[np.ndarray], extra: int = 0):
    width = max((len(v) for v in polys), default=0) + extra
    out = np.full((len(polys), width, 2), JUNK)
    for r, v in enumerate(polys):
        out[r, :len(v)] = v
    return out, np.array([len(v) for v in polys], dtype=np.int64)


def _poly(v) -> ConvexPolygon:
    return ConvexPolygon(v, validate=False)


def _assert_piece(verts, count, area, want):
    assert count == len(want.vertices)
    assert np.array_equal(verts[:count], want.vertices)
    assert area == want.area


@settings(max_examples=300)
@given(pairs=st.lists(polygon_pairs(), min_size=1, max_size=5), extra=st.integers(0, 2))
def test_clip_polygons_match_scalar_intersect(pairs, extra):
    Ps = [P for P, _ in pairs]
    # the clip polygons of one call share their vertex count: one call per
    # count, then every polygon against the first clip polygon alone
    calls = [(rows, np.stack([pairs[r][1] for r in rows]), np.arange(len(rows)))
             for m in {len(Q) for _, Q in pairs}
             for rows in [[r for r, (_, Q) in enumerate(pairs) if len(Q) == m]]]
    calls.append((list(range(len(Ps))), pairs[0][1][None], np.zeros(len(Ps), dtype=np.int64)))
    for rows, clip, which in calls:
        v, n, a = clip_polygons(*_padded([Ps[r] for r in rows], extra), clip, which)
        assert len(n) == len(rows)
        for k, r in enumerate(rows):
            want = ref.convex_intersect(_poly(Ps[r]), _poly(clip[which[k]]))
            if not want.pieces:
                assert n[k] == 0
            else:
                _assert_piece(v[k], n[k], a[k], want.pieces[0])


@settings(max_examples=200)
@given(polys=st.lists(st.sampled_from([1e-3, 1.0, 1e3]).flatmap(convex_vertices), max_size=6),
       extra=st.integers(0, 2))
def test_fan_and_centroids_match_one_polygon_at_a_time(polys, extra):
    verts, counts = _padded(polys, extra)
    tris, owner = fan_triangles(verts, counts)
    want = [(r, t) for r, v in enumerate(polys) for t in ref.polygon_fan(v)]
    assert owner.tolist() == [r for r, _ in want]
    assert np.array_equal(tris, np.array([t for _, t in want]).reshape(-1, 3, 2))
    got = centroids(verts, counts, np.array([polygon_area(v) for v in polys]))
    assert np.array_equal(got, np.array([ref.centroid(_poly(v)) for v in polys]).reshape(-1, 2))


def test_fan_drops_zero_area_triangles():
    # the square with a repeated vertex and a vertex on an edge, then an
    # empty row
    verts, counts = _padded([np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                       [0.5, 1.0], [0.0, 1.0]]), np.zeros((0, 2))])
    tris, owner = fan_triangles(verts, counts)
    assert owner.tolist() == [0, 0, 0]
    assert np.array_equal(tris, [[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0.5, 1]],
                                 [[0, 0], [0.5, 1], [0, 1]]])


@settings(max_examples=300)
@given(pairs=st.lists(polygon_pairs(), min_size=1, max_size=5), extra=st.integers(0, 2))
def test_subtract_polygon_matches_scalar_difference(pairs, extra):
    Q = _poly(pairs[0][1])
    Ps = [P for P, _ in pairs]
    v, n, a, owner = subtract_polygon(*_padded(Ps, extra), Q)
    want = [(r, piece) for r, P in enumerate(Ps)
            for piece in ref.convex_difference(_poly(P), Q).pieces]
    assert owner.tolist() == [r for r, _ in want]
    for k, (_, piece) in enumerate(want):
        _assert_piece(v[k], n[k], a[k], piece)


@st.composite
def segment_batches(draw):
    """A convex polygon and segments biased to its edges and vertices:
    along an edge, through a vertex, ending on an edge, offset by the
    tolerance band, tiny, and free."""
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    Q = draw(convex_vertices(scale))
    segs = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(0, len(Q) - 1))
        p, q = Q[k], Q[(k + 1) % len(Q)]
        gap = draw(st.sampled_from(OFFSETS)) * scale * _outward(Q, k)
        t0, t1 = draw(st.floats(-0.5, 1.5)), draw(st.floats(-0.5, 1.5))
        mode = draw(st.sampled_from(["edge", "vertex", "ends-on-edge", "tiny", "free"]))
        if mode == "edge":
            a, b = p + t0 * (q - p) + gap, p + t1 * (q - p) + gap
        elif mode == "vertex":
            d = draw(convex_vertices(scale))[0]
            a, b = p + gap - d, p + gap + d
        elif mode == "ends-on-edge":
            a, b = p + t0 * (q - p) + gap, draw(convex_vertices(scale))[0]
        elif mode == "tiny":
            a = p + t0 * (q - p)
            b = a + draw(st.sampled_from([1e-13, 1e-12, 3e-12, 1e-9])) * scale * (q - p)
        else:
            a, b = draw(convex_vertices(scale))[:2]
        segs.append((a, b) if draw(st.booleans()) else (b, a))
    return Q, np.array([a for a, _ in segs]), np.array([b for _, b in segs])


@settings(max_examples=300)
@given(batch=segment_batches())
def test_clip_segments_match_scalar_clip(batch):
    Q, a, b = batch
    Q = _poly(Q)
    got = clip_segments(a, b, Q)
    for side, keep_inside in ((got[0], True), (got[1], False)):
        want = [(r, s) for r in range(len(a))
                for s in ref.clip_segment(Segment(a[r], b[r]), Q, keep_inside)]
        assert side[2].tolist() == [r for r, _ in want]
        for k, (_, s) in enumerate(want):
            assert np.array_equal(side[0][k], s.a) and np.array_equal(side[1][k], s.b)


@st.composite
def split_batches(draw):
    """Polygons and directed lines along their edges, through their
    vertices and within the tolerance band of a vertex."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        P = draw(convex_vertices(scale))
        k = draw(st.integers(0, len(P) - 1))
        theta = draw(st.floats(0.0, 2 * math.pi))
        mode = draw(st.sampled_from(["edge", "reversed-edge", "through-vertex", "free"]))
        gap = draw(st.sampled_from(OFFSETS)) * scale
        if mode == "edge":
            p, q = P[k], P[(k + 1) % len(P)]
        elif mode == "reversed-edge":
            q, p = P[k], P[(k + 1) % len(P)]
        elif mode == "through-vertex":
            p = P[k] + gap * np.array([math.sin(theta), -math.cos(theta)])
            q = p + scale * np.array([math.cos(theta), math.sin(theta)])
        else:
            p, q = draw(convex_vertices(scale))[:2]
        rows.append((draw(clustered(P, scale)), p, q, REL_TOL * scale))
    return rows


@settings(max_examples=300)
@given(rows=split_batches(), extra=st.integers(0, 2))
def test_split_polygons_matches_scalar_split(rows, extra):
    verts, counts = _padded([P for P, *_ in rows], extra)
    p = np.array([r[1] for r in rows])
    e = np.array([r[2] for r in rows]) - p
    inv_norm = np.array([1.0 / math.hypot(x, y) for x, y in e.tolist()])
    tol = np.array([r[3] for r in rows])
    (lv, ln), (rv, rn) = split_polygons(verts, counts, p, e, inv_norm, tol)
    for r, (P, pr, qr, tol_r) in enumerate(rows):
        left, right = ref._split_by_line([tuple(x) for x in P.tolist()], *pr, *qr, tol_r)
        assert ln[r] == len(left) and rn[r] == len(right)
        assert np.array_equal(lv[r, :ln[r]], np.array(left).reshape(-1, 2))
        assert np.array_equal(rv[r, :rn[r]], np.array(right).reshape(-1, 2))


def _hypot_sensitive(n):
    """n edge vectors whose `np.hypot` and `math.hypot` differ, where this
    platform has such vectors (else any)."""
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-1, 1, (2, 20000))
    differ = np.flatnonzero(np.hypot(x, y) != [math.hypot(a, b) for a, b in zip(x, y)])
    pick = differ[:n] if len(differ) >= n else np.arange(n)
    return x[pick], y[pick]


def test_edge_lengths_and_dedupe_distances_round_as_math_hypot():
    x, y = _hypot_sensitive(16)
    assert math_hypot(x, y).tolist() == [math.hypot(a, b) for a, b in zip(x, y)]
    # the polygon edge lengths the kernels divide by
    tri = np.stack([np.zeros((16, 2)), np.stack([x, y], axis=1), np.stack([x - y, y + x], axis=1)],
                   axis=1)
    _, lengths = geom2d.edge_vectors(tri)
    assert lengths[:, 0].tolist() == [math.hypot(a, b) for a, b in zip(x, y)]
    # the de-duplication test decides a distance equal to tol_len, or one
    # ulp off it, as math.hypot does
    for tol_len in (math_hypot(x, y), np.nextafter(math_hypot(x, y), 0.0),
                    np.nextafter(math_hypot(x, y), 1.0)):
        want = [math.hypot(a, b) > t for a, b, t in zip(x, y, tol_len)]
        assert geom2d._farther(x, y, tol_len).tolist() == want


def test_kernels_take_empty_batches():
    empty = np.zeros((0, 3, 2))
    none = np.zeros(0, dtype=np.int64)
    v, n, a = clip_polygons(empty, none, UNIT.vertices[None], none)
    assert v.shape[0] == len(n) == len(a) == 0
    v, n, a, owner = subtract_polygon(empty, none, UNIT)
    assert v.shape[0] == len(n) == len(a) == len(owner) == 0
    (ia, ib, isrc), (oa, ob, osrc) = clip_segments(np.zeros((0, 2)), np.zeros((0, 2)), UNIT)
    assert len(ia) == len(ib) == len(isrc) == len(oa) == len(ob) == len(osrc) == 0
    (lv, ln), (rv, rn) = split_polygons(empty, none, np.zeros((0, 2)), np.zeros((0, 2)),
                                        np.zeros(0), np.zeros(0))
    assert len(ln) == len(rn) == 0


def test_public_clippers_are_single_row_kernels():
    P = rotate_rect((0.1, 0.7, 0.2, 0.6), 1e-9)
    Q = regular_polygon(6, 0.25, (0.55, 0.45))
    for got, want in ((convex_intersect(P, Q), ref.convex_intersect(P, Q)),
                      (convex_difference(P, Q), ref.convex_difference(P, Q))):
        assert len(got.pieces) == len(want.pieces) > 0
        for g, w in zip(got.pieces, want.pieces):
            _assert_piece(g.vertices, len(g.vertices), g.area, w)
    s = Segment((0.0, 0.45), (1.0, 0.5))
    for keep_inside in (True, False):
        got, want = clip_segment(s, Q, keep_inside), ref.clip_segment(s, Q, keep_inside)
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            assert np.array_equal(g.a, w.a) and np.array_equal(g.b, w.b)
