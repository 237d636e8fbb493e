import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import loop_reference as ref
from conftest import fit_rate
from stackfem.geom2d import (
    offset_polygon,
    triangles_quadrature,
    rect_polygon,
    regular_polygon,
    rotate_rect,
)
from stackfem.mesh import (
    MARKER_INNER,
    MARKER_OUTER,
    FeSpace,
    TriMesh,
    build_band_mesh,
    build_structured_mesh,
    nodal_interpolate,
)

UNIT = rect_polygon(0.0, 1.0, 0.0, 1.0)


class TestStructuredMesh:
    def test_unit_square_counts(self):
        m = build_structured_mesh(UNIT, 2.0 ** -3)
        assert len(m.cells) == 2 * 8 * 8
        assert m.h == pytest.approx(math.sqrt(2.0) / 8.0, rel=1e-14)
        assert m.area == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_coarse(self):
        m = build_structured_mesh(UNIT, 1.0)
        assert len(m.cells) == 2

    def test_oversized_target_warns(self):
        with pytest.warns(UserWarning):
            m = build_structured_mesh(UNIT, 1.5)
        assert len(m.cells) == 2

    def test_rotated_square_area(self):
        poly = rotate_rect((0.2, 0.8, 0.2, 0.8), 0.0)
        m = build_structured_mesh(poly, 0.075)
        assert m.area == pytest.approx(0.36, rel=1e-12)

    def test_rotated_mesh_area_and_uniformity(self):
        poly = rotate_rect((0.2, 0.8, 0.3, 0.75), 23.0)
        m = build_structured_mesh(poly, 2.0 ** -4)
        assert m.area == pytest.approx(poly.area, rel=1e-12)
        d = m.cell_diameters()
        assert d.max() / d.min() <= 2.0
        assert m.h <= math.sqrt(2.0) * 2.0 ** -4 * (1 + 1e-12)

    def test_conformity_and_boundary_loop(self):
        m = build_structured_mesh(UNIT, 2.0 ** -2)
        # interior edges shared by exactly 2 cells is enforced on build; the
        # boundary facets of a rectangle form one closed loop
        counts = {}
        for cell, ledge in m.boundary_facets:
            tri = m.cells[cell]
            for node in (tri[ledge], tri[(ledge + 1) % 3]):
                counts[int(node)] = counts.get(int(node), 0) + 1
        assert all(c == 2 for c in counts.values())

    def test_nonconforming_rejected(self):
        # node 4 sits off the line through nodes 0 and 1, so every cell is
        # counterclockwise and only the conformity check can fail
        nodes = [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1]]
        cells = [[0, 1, 2], [1, 3, 2], [0, 1, 4], [0, 1, 3]]  # edge (0,1) used 3x
        with pytest.raises(ValueError, match=r"edge \(0, 1\) is shared by 3 cells"):
            TriMesh(nodes, cells)

    def test_clockwise_cell_named(self):
        nodes = [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1]]
        cells = [[0, 1, 2], [1, 2, 3], [1, 4, 3]]  # cell 1 runs clockwise
        with pytest.raises(ValueError, match=r"^1 cells .* first is cell 1 with nodes \[1, 2, 3\]"):
            TriMesh(nodes, cells)


class TestBandMesh:
    def test_band_area(self):
        hexa = regular_polygon(6, 0.15, (0.5, 0.5))
        m = build_band_mesh(hexa, 0.1, 0.05)
        outer = offset_polygon(hexa, 0.1)
        assert m.area == pytest.approx(outer.area - hexa.area, rel=1e-10)

    def test_single_layer(self):
        hexa = regular_polygon(6, 0.15, (0.5, 0.5))
        m = build_band_mesh(hexa, 0.1, 0.1)
        # one layer across: every cell touches both loops, so the node count
        # is exactly twice the ring size
        ring = len(m.nodes) // 2
        assert len(m.nodes) == 2 * ring
        assert len(m.cells) == 2 * ring

    def test_two_boundary_loops(self):
        hexa = regular_polygon(6, 0.15, (0.5, 0.5))
        m = build_band_mesh(hexa, 0.1, 0.04)
        inner = m.boundary_markers == MARKER_INNER
        outer = m.boundary_markers == MARKER_OUTER
        assert inner.sum() > 0 and outer.sum() > 0
        for mask in (inner, outer):
            counts = {}
            for (cell, ledge) in m.boundary_facets[mask]:
                tri = m.cells[cell]
                for node in (tri[ledge], tri[(ledge + 1) % 3]):
                    counts[int(node)] = counts.get(int(node), 0) + 1
            assert all(c == 2 for c in counts.values())  # each loop is closed

    def test_inner_loop_on_polygon(self):
        hexa = regular_polygon(6, 0.15, (0.5, 0.5))
        m = build_band_mesh(hexa, 0.05, 0.03)
        for (cell, ledge), mk in zip(m.boundary_facets, m.boundary_markers):
            if mk != MARKER_INNER:
                continue
            a, b = m.facet_endpoints(int(cell), int(ledge))
            for pt in (a, b):
                assert hexa.contains(pt) and not hexa.contains_strict(pt, tol=1e-9)

    def test_bad_width(self):
        hexa = regular_polygon(6, 0.15, (0.5, 0.5))
        with pytest.raises(ValueError):
            build_band_mesh(hexa, -0.1, 0.05)


def _assert_same(got, want):
    assert got.dtype == np.int64 and np.array_equal(got, want)


def _assert_spaces_match_oracle(mesh):
    for degree in (1, 2):
        space = FeSpace(mesh, degree)
        if degree == 2:
            cell_dofs, dof_coords = ref.p2_numbering(mesh.nodes, mesh.cells)
            _assert_same(space.cell_dofs, cell_dofs)
            assert np.array_equal(space.dof_coords, dof_coords)
        for marker in (None, MARKER_OUTER, MARKER_INNER):
            _assert_same(space.boundary_dofs(marker), ref.boundary_dofs(space, marker))


@given(
    x0=st.floats(-1.0, 1.0), y0=st.floats(-1.0, 1.0),
    lx=st.floats(0.01, 1.0), ly=st.floats(0.01, 1.0),
    angle=st.one_of(st.sampled_from([0.0, 90.0, 1e-9]), st.floats(-180.0, 180.0)),
    cells_per_side=st.one_of(st.sampled_from([0.5, 1.0, 1.5]), st.floats(0.3, 24.0)),
)
def test_structured_mesh_matches_loop_oracle(x0, y0, lx, ly, angle, cells_per_side):
    """Cells, facets and dofs equal the per-square loops, down to one cell
    pair (a target_h above both sides) and single rows or columns."""
    poly = rotate_rect((x0, x0 + lx, y0, y0 + ly), angle)
    target_h = max(lx, ly) / cells_per_side
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        mesh = build_structured_mesh(poly, target_h)
    nodes, cells = ref.structured_mesh(poly, target_h)
    assert np.array_equal(mesh.nodes, nodes)
    _assert_same(mesh.cells, cells)
    _assert_same(mesh.boundary_facets, ref.boundary_facets(cells))
    _assert_same(mesh.boundary_markers, np.zeros(len(mesh.boundary_facets), dtype=np.int64))
    _assert_spaces_match_oracle(mesh)


@given(
    nsides=st.integers(3, 8),
    inradius=st.floats(0.05, 0.5),
    width=st.floats(0.01, 0.3),
    layers=st.one_of(st.just(1.0), st.floats(0.5, 6.0)),
)
def test_band_mesh_matches_loop_oracle(nsides, inradius, width, layers):
    hexa = regular_polygon(nsides, inradius, (0.5, 0.5))
    target_h = width / layers
    mesh = build_band_mesh(hexa, width, target_h)
    nodes, cells, ring = ref.band_mesh(hexa, width, target_h)
    assert np.array_equal(mesh.nodes, nodes)
    _assert_same(mesh.cells, cells)
    _assert_same(mesh.boundary_facets, ref.boundary_facets(cells))
    _assert_same(mesh.boundary_markers, ref.band_markers(cells, mesh.boundary_facets, ring))
    _assert_spaces_match_oracle(mesh)


class TestFeSpace:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_partition_of_unity(self, degree, rng):
        m = build_structured_mesh(UNIT, 2.0 ** -2)
        space = FeSpace(m, degree)
        coeffs = np.ones(space.dim)
        for _ in range(50):
            x = rng.uniform(0.01, 0.99, 2)
            cell = _find_cell(m, x)
            assert space.eval_in_cell(coeffs, cell, x[None, :])[0] == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_continuity_across_edges(self, degree, rng):
        m = build_structured_mesh(UNIT, 2.0 ** -2)
        space = FeSpace(m, degree)
        coeffs = rng.standard_normal(space.dim)
        edge_owners = {}
        for c, tri in enumerate(m.cells):
            for k in range(3):
                key = tuple(sorted((int(tri[k]), int(tri[(k + 1) % 3]))))
                edge_owners.setdefault(key, []).append(c)
        for (a, b), owners in edge_owners.items():
            if len(owners) != 2:
                continue
            mid = 0.5 * (m.nodes[a] + m.nodes[b])
            v0 = space.eval_in_cell(coeffs, owners[0], mid[None, :])[0]
            v1 = space.eval_in_cell(coeffs, owners[1], mid[None, :])[0]
            assert v0 == pytest.approx(v1, abs=1e-12)

    def test_dims(self):
        m = build_structured_mesh(UNIT, 2.0 ** -3)
        assert FeSpace(m, 1).dim == len(m.nodes)
        nedges = (3 * len(m.cells) + len(m.boundary_facets)) // 2
        assert FeSpace(m, 2).dim == len(m.nodes) + nedges

    def test_bad_degree(self):
        m = build_structured_mesh(UNIT, 0.5)
        with pytest.raises(ValueError):
            FeSpace(m, 3)


class TestInterpolation:
    def test_constant(self):
        space = FeSpace(build_structured_mesh(UNIT, 2.0 ** -2), 1)
        c = nodal_interpolate(space, lambda x, y: np.ones_like(x))
        assert np.allclose(c, 1.0)

    def test_linear_reproduction(self, rng):
        m = build_structured_mesh(UNIT, 2.0 ** -2)
        space = FeSpace(m, 1)
        c = nodal_interpolate(space, lambda x, y: x + y)
        for _ in range(30):
            x = rng.uniform(0.01, 0.99, 2)
            cell = _find_cell(m, x)
            got = space.eval_in_cell(c, cell, x[None, :])[0]
            assert got == pytest.approx(x[0] + x[1], abs=1e-14)

    @pytest.mark.parametrize("degree,l2_rate,h1_rate", [(1, 2.0, 1.0), (2, 3.0, 2.0)])
    def test_sine_rates(self, degree, l2_rate, h1_rate):
        f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        gf = lambda x, y: np.stack(
            [np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
             np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)], axis=-1)
        hs, l2s, h1s = [], [], []
        for k in range(3, 7):
            m = build_structured_mesh(UNIT, 2.0 ** -k)
            space = FeSpace(m, degree)
            c = nodal_interpolate(space, f)
            l2, h1 = _interp_errors(space, c, f, gf)
            hs.append(m.h)
            l2s.append(l2)
            h1s.append(h1)
        assert abs(fit_rate(hs, l2s) - l2_rate) <= (0.1 if degree == 1 else 0.15)
        assert abs(fit_rate(hs, h1s) - h1_rate) <= 0.15


def _find_cell(mesh: TriMesh, x) -> int:
    for c, tri in enumerate(mesh.cells):
        v = mesh.nodes[tri]
        ok = True
        for k in range(3):
            p, q = v[k], v[(k + 1) % 3]
            if (q[0] - p[0]) * (x[1] - p[1]) - (q[1] - p[1]) * (x[0] - p[0]) < -1e-13:
                ok = False
                break
        if ok:
            return c
    raise AssertionError(f"no cell contains {x}")


def _interp_errors(space: FeSpace, coeffs, f, gf):
    """Interpolation errors integrated cell by cell with an order-6 rule,
    independent of the package's error-norm machinery."""
    mesh = space.mesh
    l2 = 0.0
    h1 = 0.0
    for c in range(len(mesh.cells)):
        pts, w = triangles_quadrature(mesh.cell_vertices(c)[None], 6)
        vals = space.eval_in_cell(coeffs, c, pts)
        grads = space.grad_in_cell(coeffs, c, pts)
        fe = f(pts[:, 0], pts[:, 1])
        ge = gf(pts[:, 0], pts[:, 1])
        l2 += float(np.dot(w, (vals - fe) ** 2))
        h1 += float(np.dot(w, ((grads - ge) ** 2).sum(axis=1)))
    return math.sqrt(l2), math.sqrt(h1)
