import math

import numpy as np
import pytest

from conftest import monomial_integral_polygon
from stackfem.geom2d import (
    ConvexPolygon,
    GeometryError,
    Segment,
    clip_segment,
    convex_difference,
    convex_intersect,
    fan_triangles,
    offset_polygon,
    rect_polygon,
    regular_polygon,
    rotate_rect,
    segments_quadrature,
    triangles_quadrature,
)

UNIT = rect_polygon(0.0, 1.0, 0.0, 1.0)


def _polygon_rule(P, order):
    """The triangle rule on the fan of one convex polygon."""
    return triangles_quadrature(fan_triangles([P])[0], order)


class TestIntersect:
    def test_axis_aligned_overlap(self):
        out = convex_intersect(UNIT, rect_polygon(0.5, 1.5, 0.0, 1.0))
        assert len(out) == 1
        assert out.area == pytest.approx(0.5, abs=1e-14)

    def test_identity(self):
        out = convex_intersect(UNIT, UNIT)
        assert len(out) == 1
        assert out.area == pytest.approx(1.0, abs=1e-14)

    def test_disjoint(self):
        assert convex_intersect(UNIT, rect_polygon(2.0, 3.0, 2.0, 3.0)).empty

    def test_degenerate_input_raises(self):
        with pytest.raises(GeometryError):
            ConvexPolygon([[0, 0], [1, 0], [2, 0]])  # zero area
        with pytest.raises(GeometryError):
            ConvexPolygon([[0, 0], [1, 0]])


class TestDifference:
    def test_centered_hole(self):
        out = convex_difference(UNIT, rect_polygon(0.25, 0.75, 0.25, 0.75))
        assert out.area == pytest.approx(0.75, abs=1e-13)

    def test_disjoint_returns_p(self):
        out = convex_difference(UNIT, rect_polygon(2.0, 3.0, 2.0, 3.0))
        assert len(out) == 1
        assert out.area == pytest.approx(1.0, abs=1e-14)

    def test_superset_returns_empty(self):
        assert convex_difference(UNIT, rect_polygon(-1.0, 2.0, -1.0, 2.0)).empty

    def test_area_conservation_random(self, rng):
        for _ in range(200):
            P = _random_convex(rng)
            Q = _random_convex(rng)
            inter = convex_intersect(P, Q).area
            diff = convex_difference(P, Q).area
            assert inter + diff == pytest.approx(P.area, rel=1e-10, abs=1e-13)

    def test_pieces_pairwise_disjoint(self, rng):
        for _ in range(50):
            P = _random_convex(rng)
            Q = _random_convex(rng)
            pieces = convex_difference(P, Q).pieces
            for a in range(len(pieces)):
                for b in range(a + 1, len(pieces)):
                    assert convex_intersect(pieces[a], pieces[b]).area <= 1e-12


class TestClipSegment:
    def test_horizontal_through_square(self):
        s = Segment((0.0, 0.5), (1.0, 0.5))
        inside = clip_segment(s, rect_polygon(0.25, 0.75, 0.0, 1.0), keep_inside=True)
        assert len(inside) == 1
        assert inside[0].length == pytest.approx(0.5, abs=1e-14)

    def test_outside_keeps_nothing(self):
        s = Segment((2.0, 2.0), (3.0, 2.0))
        assert clip_segment(s, UNIT, keep_inside=True) == []

    def test_on_boundary_counts_inside(self):
        s = Segment((0.0, 0.0), (1.0, 0.0))  # lies on the bottom edge
        inside = clip_segment(s, UNIT, keep_inside=True)
        outside = clip_segment(s, UNIT, keep_inside=False)
        assert len(inside) == 1 and inside[0].length == pytest.approx(1.0)
        assert outside == []

    def test_length_partition_random(self, rng):
        for _ in range(300):
            Q = _random_convex(rng)
            s = Segment(rng.uniform(-0.5, 1.5, 2), rng.uniform(-0.5, 1.5, 2))
            if s.length < 1e-6:
                continue
            li = sum(p.length for p in clip_segment(s, Q, keep_inside=True))
            lo = sum(p.length for p in clip_segment(s, Q, keep_inside=False))
            assert li + lo == pytest.approx(s.length, rel=1e-12, abs=1e-14)


class TestQuadrature:
    def test_unit_square_weight_sum(self):
        q = _polygon_rule(UNIT, 2)
        assert q.total == pytest.approx(1.0, rel=1e-12)
        assert np.all(q.weights > 0)

    def test_linear_exact(self):
        q = _polygon_rule(UNIT, 2)
        assert q.integrate(lambda x, y: x) == pytest.approx(0.5, rel=1e-12)

    def test_x2y2_exact(self):
        q = _polygon_rule(UNIT, 4)
        assert q.integrate(lambda x, y: x ** 2 * y ** 2) == pytest.approx(1 / 9, rel=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_monomial_exactness_reference_triangle(self, order):
        tri = ConvexPolygon([[0, 0], [1, 0], [0, 1]])
        q = _polygon_rule(tri, order)
        assert np.all(q.weights > 0)
        for a in range(order + 1):
            for b in range(order + 1 - a):
                exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                got = q.integrate(lambda x, y, a=a, b=b: x ** a * y ** b)
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_monomial_exactness_random_polygon(self, order, rng):
        for _ in range(5):
            P = _random_convex(rng)
            q = _polygon_rule(P, order)
            for a in range(order + 1):
                for b in range(order + 1 - a):
                    exact = monomial_integral_polygon(P, a, b)
                    got = q.integrate(lambda x, y, a=a, b=b: x ** a * y ** b)
                    assert got == pytest.approx(exact, rel=1e-11, abs=1e-14)

    def test_unsupported_order(self):
        with pytest.raises(GeometryError):
            _polygon_rule(UNIT, 7)

    def test_segment_rule(self):
        s = Segment((0.0, 0.0), (2.0, 0.0))
        q = segments_quadrature(s.a[None], s.b[None], 4)
        assert q.total == pytest.approx(2.0, rel=1e-14)
        assert q.integrate(lambda x, y: x ** 4) == pytest.approx(32 / 5, rel=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_segments_rule_exact_per_segment(self, order, rng):
        a = rng.uniform(-1.0, 1.0, (7, 2))
        b = a + rng.uniform(0.1, 1.0, (7, 2))
        q = segments_quadrature(a, b, order)
        nq = len(q.weights) // len(a)
        assert len(q.weights) == nq * len(a) and np.all(q.weights > 0)
        for s in range(len(a)):
            pts, w = q.points[s * nq:(s + 1) * nq], q.weights[s * nq:(s + 1) * nq]
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
        for p, q in hexa.edges():
            e = q - p
            d = abs(e[0] * (0.5 - p[1]) - e[1] * (0.5 - p[0])) / math.hypot(*e)
            assert d == pytest.approx(0.15, rel=1e-12)

    def test_offset_polygon_moves_edges_out(self):
        hexa = regular_polygon(6, 0.15, (0.5, 0.5))
        out = offset_polygon(hexa, 0.1)
        for p, q in out.edges():
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
