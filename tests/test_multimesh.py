import csv

import numpy as np
import pytest

from conftest import (
    build_stack_config,
    config_I,
    independent_gamma_lengths,
    random_rect_stack,
    single_config,
)
from stackfem.geom2d import centroids, rect_polygon, regular_polygon
from stackfem.mesh import FeSpace, build_band_mesh, build_structured_mesh
from stackfem.multimesh import (
    ConfigError,
    MultiMeshConfig,
    MultiMeshPart,
    build_cut_topology,
    dump_topology_csv,
    point_locate,
)


@pytest.fixture(scope="module")
def topo_I():
    return build_cut_topology(config_I(), quad_order=2)


@pytest.fixture(scope="module")
def topo_voids():
    hexa = regular_polygon(6, 0.15, (0.5, 0.5))
    from stackfem.geom2d import offset_polygon

    band_pre = offset_polygon(hexa, 0.1)
    band_mesh = build_band_mesh(hexa, 0.1, 0.05)
    bg_pre = rect_polygon(0.0, 1.0, 0.0, 1.0)
    bg_mesh = build_structured_mesh(bg_pre, 2.0 ** -4)
    config = MultiMeshConfig(
        [
            MultiMeshPart(bg_pre, bg_mesh, FeSpace(bg_mesh, 1)),
            MultiMeshPart(band_pre, band_mesh, FeSpace(band_mesh, 1), void=hexa),
        ]
    )
    return build_cut_topology(config, quad_order=2)


class TestConfigI:
    @pytest.fixture
    def topo(self, topo_I):
        return topo_I

    def test_visible_areas(self, topo):
        areas = [topo.visible_area(i) for i in range(3)]
        assert areas[0] == pytest.approx(0.64, abs=1e-12)
        assert areas[1] == pytest.approx(0.32, abs=1e-12)
        assert areas[2] == pytest.approx(0.04, abs=1e-12)

    def test_uncut_and_cut_cells_split_the_active_ones(self, topo):
        for i in range(topo.nparts):
            uncut = topo.uncut[i]
            assert uncut.dtype == np.int64
            assert np.array_equal(uncut, np.setdiff1d(topo.active[i], topo.cut_cells[i]))
            assert np.isin(topo.cut_cells[i], topo.active[i]).all()

    def test_gamma_lengths(self, topo):
        assert topo.gamma_len[1] == pytest.approx(2.4, abs=1e-12)
        assert topo.gamma_len[2] == pytest.approx(0.8, abs=1e-12)
        # the boundary of part 2 is strictly inside part 1's predomain
        f = topo.facets
        length = np.hypot(*(f.b - f.a).T)
        g20 = length[(f.upper_mesh == 2) & (f.lower_mesh == 0)].sum()
        g21 = length[(f.upper_mesh == 2) & (f.lower_mesh == 1)].sum()
        assert g20 == 0.0
        assert g21 == pytest.approx(0.8, abs=1e-12)

    def test_delta_counts_desk_scale(self, topo):
        # frozen from the clipping enumeration at k = 3: active background
        # cells stop at x = 0.25 and never reach [0.4, 0.6]^2, so O_02 is
        # empty (hand-checked: the active background domain is
        # [0,1]^2 \ [0.25,0.75]^2)
        overlapping = topo.overlap_area > 0
        assert overlapping[0, 1] and overlapping[1, 2]
        assert not overlapping[0, 2]
        assert topo.N_O == 2
        assert list(topo.N_Oi) == [0, 1, 1]

    def test_delta_all_ones_when_coarse(self):
        # at k = 1 the background cells are large enough to reach under both
        # higher parts, making every overlap nonempty; part 2 (extent 0.2)
        # falls back to a single cell pair, which warns
        with pytest.warns(UserWarning):
            topo = build_cut_topology(config_I(ks=(1, 1, 1)), quad_order=2)
        overlapping = topo.overlap_area > 0
        assert overlapping[0, 1] and overlapping[0, 2] and overlapping[1, 2]
        assert topo.N_O == 3
        assert list(topo.N_Oi) == [0, 1, 2]

    def test_point_locate_examples(self, topo):
        mesh, cell = point_locate(topo, [(0.5, 0.5), (0.25, 0.25), (0.1, 0.1), (1.5, 0.5)])
        assert mesh.tolist() == [2, 1, 0, -1]
        assert cell[3] == -1 and (cell[:3] >= 0).all()

    def test_pairing_correctness(self, topo):
        f, o = topo.facets, topo.overlaps
        for k, mid in enumerate(0.5 * (f.a + f.b)):
            assert _in_cell(topo.parts[f.upper_mesh[k]].mesh, f.upper_cell[k], mid)
            assert _in_cell(topo.parts[f.lower_mesh[k]].mesh, f.lower_cell[k], mid)
        for k, c in enumerate(centroids(o.verts, o.counts, o.areas)):
            assert _in_cell(topo.parts[o.lower_mesh[k]].mesh, o.lower_cell[k], c)
            assert _in_cell(topo.parts[o.upper_mesh[k]].mesh, o.upper_cell[k], c)

    def test_facets_on_predomain_hull(self, topo):
        f = topo.facets
        for k in range(len(f)):
            pre = topo.parts[f.upper_mesh[k]].predomain
            for pt in (f.a[k], f.b[k]):
                assert pre.contains(pt, tol=1e-9)
                assert not pre.contains_strict(pt, tol=1e-9)
            assert np.hypot(*f.normal[k]) == pytest.approx(1.0, abs=1e-14)

    def test_normals_point_outward(self, topo):
        f = topo.facets
        for k, probe in enumerate(0.5 * (f.a + f.b) + 1e-6 * f.normal):
            assert not topo.parts[f.upper_mesh[k]].predomain.contains_strict(probe)

    def test_csv_dump(self, topo, tmp_path):
        fpath = tmp_path / "facets.csv"
        opath = tmp_path / "overlaps.csv"
        dump_topology_csv(topo, fpath, opath)
        with open(fpath) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["i", "j", "ax", "ay", "bx", "by", "nx", "ny"]
        assert len(rows) - 1 == len(topo.facets)
        with open(opath) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == len(topo.overlaps)


class TestSingleMesh:
    def test_trivial_topology(self):
        topo = build_cut_topology(single_config(k=3), quad_order=2)
        assert len(topo.facets) == 0
        assert len(topo.overlaps) == 0
        assert len(topo.active[0]) == len(topo.parts[0].mesh.cells)
        assert len(topo.cut_cells[0]) == 0
        assert topo.N_O == 1
        assert topo.visible_area(0) == pytest.approx(1.0, rel=1e-12)


class TestDisjointTops:
    def test_delta_zero_between_disjoint(self):
        pres = [
            rect_polygon(0.0, 1.0, 0.0, 1.0),
            rect_polygon(0.1, 0.4, 0.1, 0.4),
            rect_polygon(0.6, 0.9, 0.6, 0.9),
        ]
        topo = build_cut_topology(build_stack_config(pres, [3, 3, 3]), quad_order=2)
        overlapping = topo.overlap_area > 0
        assert not overlapping[1, 2]
        assert overlapping[0, 1] and overlapping[0, 2]


class TestRandomStacks:
    def test_measure_and_interface_partition(self, rng):
        for _ in range(30):
            config = random_rect_stack(rng)
            topo = build_cut_topology(config, quad_order=1)
            total = sum(topo.visible_area(i) for i in range(topo.nparts))
            assert total == pytest.approx(1.0, abs=1e-10)
            gamma = independent_gamma_lengths(config)
            for i in range(1, topo.nparts):
                assert topo.gamma_len[i] == pytest.approx(gamma[i], abs=1e-10)

    def test_overlap_interface_duality(self, rng):
        for _ in range(20):
            topo = build_cut_topology(random_rect_stack(rng), quad_order=1)
            f = topo.facets
            lengths = np.zeros((topo.nparts, topo.nparts))
            np.add.at(lengths, (f.upper_mesh, f.lower_mesh), np.hypot(*(f.b - f.a).T))
            for i, j in zip(*np.nonzero(lengths > 1e-10)):
                assert topo.overlap_area[j, i] > 0

    def test_point_locate_brute_force(self, rng):
        config = random_rect_stack(rng)
        topo = build_cut_topology(config, quad_order=1)
        pts = rng.uniform(0.001, 0.999, size=(10_000, 2))
        mesh, cell = point_locate(topo, pts)
        for x, got in zip(pts, mesh):
            expect = None
            for i in range(topo.nparts - 1, -1, -1):
                if config.parts[i].predomain.contains(x):
                    expect = i
                    break
            assert got == expect
        assert (cell >= 0).all()


class TestVoids:
    @pytest.fixture
    def topo(self, topo_voids):
        return topo_voids

    def test_hole_excluded_from_measure(self, topo):
        hexa = regular_polygon(6, 0.15, (0.5, 0.5))
        total = sum(topo.visible_area(i) for i in range(2))
        assert total == pytest.approx(1.0 - hexa.area, abs=1e-10)

    def test_hole_points_not_found(self, topo):
        # the centre and a point still inside the hexagon, then the band
        # and the background
        mesh, cell = point_locate(topo, [(0.5, 0.5), (0.5, 0.62), (0.5, 0.7), (0.1, 0.1)])
        assert mesh.tolist() == [-1, -1, 1, 0]
        assert cell[:2].tolist() == [-1, -1]

    def test_inner_loop_is_not_an_interface(self, topo):
        hexa = regular_polygon(6, 0.15, (0.5, 0.5))
        hull = topo.parts[1].predomain
        for mid in 0.5 * (topo.facets.a + topo.facets.b):
            # facets come from the outer hull only, never the hole loop
            assert not hexa.contains(mid, tol=1e-9)
            assert hull.contains(mid, tol=1e-9) and not hull.contains_strict(mid, tol=1e-9)


class TestDegenerateStacks:
    def test_abutting_parts_share_interface_once(self):
        # two top parts sharing the x = 0.5 edge: the shared edge belongs to
        # Gamma_2 (boundary points count as inside the other predomain) and is
        # removed from Gamma_1, so the interface is covered exactly once
        pres = [
            rect_polygon(0.0, 1.0, 0.0, 1.0),
            rect_polygon(0.2, 0.5, 0.2, 0.8),
            rect_polygon(0.5, 0.8, 0.2, 0.8),
        ]
        topo = build_cut_topology(build_stack_config(pres, [3, 3, 3]), quad_order=2)
        assert topo.gamma_len[1] == pytest.approx(1.2, abs=1e-12)
        assert topo.gamma_len[2] == pytest.approx(1.8, abs=1e-12)
        assert sum(topo.visible_area(i) for i in range(3)) == pytest.approx(1.0, abs=1e-10)

    def test_fully_hidden_part_deactivates(self):
        pres = [
            rect_polygon(0.0, 1.0, 0.0, 1.0),
            rect_polygon(0.3, 0.6, 0.3, 0.6),
            rect_polygon(0.25, 0.65, 0.25, 0.65),
        ]
        topo = build_cut_topology(build_stack_config(pres, [3, 4, 3]), quad_order=2)
        assert len(topo.active[1]) == 0
        assert len(topo.active_dofs(1)) == 0
        assert sum(topo.visible_area(i) for i in range(3)) == pytest.approx(1.0, abs=1e-10)


class TestConfigValidation:
    def test_part_touching_boundary_rejected(self):
        pres = [rect_polygon(0.0, 1.0, 0.0, 1.0), rect_polygon(0.0, 0.5, 0.2, 0.6)]
        with pytest.raises(ConfigError):
            build_stack_config(pres, [3, 3])

    def test_mesh_area_mismatch_rejected(self):
        bg = rect_polygon(0.0, 1.0, 0.0, 1.0)
        bg_mesh = build_structured_mesh(bg, 0.25)
        inner_pre = rect_polygon(0.2, 0.8, 0.2, 0.8)
        wrong_mesh = build_structured_mesh(rect_polygon(0.2, 0.7, 0.2, 0.8), 0.1)
        with pytest.raises(ConfigError, match="triangulate"):
            MultiMeshConfig(
                [
                    MultiMeshPart(bg, bg_mesh, FeSpace(bg_mesh, 1)),
                    MultiMeshPart(inner_pre, wrong_mesh, FeSpace(wrong_mesh, 1)),
                ]
            )

    def test_facet_off_hull_names_part_and_cell(self):
        # same area as the predomain, shifted up: facets of the bottom row
        # lie off the predomain hull
        bg = rect_polygon(0.0, 1.0, 0.0, 1.0)
        bg_mesh = build_structured_mesh(bg, 0.25)
        pre = rect_polygon(0.25, 0.75, 0.25, 0.75)
        shifted = build_structured_mesh(rect_polygon(0.25, 0.75, 0.3125, 0.8125), 0.125)
        config = MultiMeshConfig([MultiMeshPart(bg, bg_mesh, FeSpace(bg_mesh, 1)),
                                  MultiMeshPart(pre, shifted, FeSpace(shifted, 1))])
        with pytest.raises(ConfigError, match=r"part 1, cell 0 does not lie on its predomain"):
            build_cut_topology(config)


def _in_cell(mesh, cell, x, tol=1e-10) -> bool:
    v = mesh.nodes[mesh.cells[cell]]
    for k in range(3):
        p, q = v[k], v[(k + 1) % 3]
        ln = np.hypot(q[0] - p[0], q[1] - p[1])
        if (q[0] - p[0]) * (x[1] - p[1]) - (q[1] - p[1]) * (x[0] - p[0]) < -tol * ln:
            return False
    return True
