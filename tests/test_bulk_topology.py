"""Bulk candidate pairs, cell bookkeeping and quadrature batches of the
cut topology.

The overlap pieces and interface facets built from bulk grid queries and the
separating-axis prefilter must equal, bit for bit, the ones the per-entity
loops in `loop_reference` build. So must the active cells, the visible
regions and the grid bin tables, which the loops build one cell at a time,
and the cell, facet and overlap batches, which the loops concatenate from
one rule per entity. Each batch carries its basis in each of its meshes,
read-only and tabulated exactly once. The two bulk building blocks are
checked on their own against brute force with hypothesis, and the memory
peaks of one topology build, on two stacks, and of the cell integrals of
volume and error norms are bounded.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
from conftest import build_stack_config, config_I, config_II
from stackfem.analysis import MultimeshFunction, error_norms
from stackfem.assembly import FormParams, assemble_volume
from stackfem.cli import (
    _error_report,
    boundary_layer_stack,
    build_stack,
    poisson_fields,
    solve_poisson,
    standard_predomains,
)
from stackfem.geom2d import REL_TOL, ConvexPolygon, convex_intersect, rect_polygon, rotate_rect
from stackfem.mesh import FeSpace, build_structured_mesh
from stackfem.multimesh import (
    SAT_MARGIN,
    _CellGrid,
    _grid as _part_grid,
    _part_regions,
    _sat_separated,
    build_cut_topology,
)

UNIT = rect_polygon(0.0, 1.0, 0.0, 1.0)

STACKS = {
    "I-345": lambda: config_I((3, 4, 5)),
    "I-444": lambda: config_I((4, 4, 4)),
    "I-543": lambda: config_I((5, 4, 3)),
    "II-445": lambda: config_II((4, 4, 5)),
    "II-543": lambda: config_II((5, 4, 3)),
    "band": lambda: boundary_layer_stack(1)[0],
    "abutting": lambda: build_stack_config(
        [UNIT, rect_polygon(0.2, 0.5, 0.3, 0.7), rect_polygon(0.5, 0.8, 0.3, 0.7)],
        (3, 4, 5)),
    "rotated-1e-9-deg": lambda: build_stack_config(
        [UNIT, rotate_rect((0.25, 0.75, 0.25, 0.75), 1e-9),
         rotate_rect((0.375, 0.625, 0.125, 0.875), -1e-9)], (4, 4, 5)),
    "edges-1e-13-off-nodes": lambda: build_stack_config(
        [UNIT, rect_polygon(0.25 + 1e-13, 0.75 - 1e-13, 0.25 - 1e-13, 0.75 + 1e-13),
         rect_polygon(0.5 + 1e-13, 0.875, 0.375, 0.625 - 1e-13)], (4, 5, 4)),
    "h-ratio-32": lambda: build_stack_config(
        [UNIT, rotate_rect((0.3, 0.7, 0.3, 0.7), 17.0)], (0, 5)),
    "nested": lambda: build_stack_config(
        [UNIT, rect_polygon(0.2, 0.8, 0.2, 0.8), rect_polygon(0.2, 0.5, 0.2, 0.5)],
        (3, 4, 5)),
    # five rotated parts: 10 upper cells take facets from more than one lower
    # mesh and 19 lower cells lie under more than one upper mesh, so the
    # records of several pairs interleave in the global sorts
    "five-parts": lambda: build_stack_config(
        [UNIT, rotate_rect((0.15, 0.65, 0.2, 0.6), 11.0),
         rotate_rect((0.35, 0.85, 0.3, 0.75), -23.0),
         rotate_rect((0.25, 0.6, 0.35, 0.85), 37.0),
         rotate_rect((0.4, 0.7, 0.15, 0.55), 5.0)], (3, 4, 4, 5, 4)),
    # parts 1 and 2 leave [0.25, 0.27]^2 of two background cells uncovered,
    # and the diamond on top covers all of it but a corner triangle with legs
    # of about 2e-8: a visible area of about 3e-15 times the cell's, under the
    # visible-area floor
    "visible-area-floor": lambda: build_stack_config(
        [UNIT, rect_polygon(0.27, 0.9, 0.1, 0.9), rect_polygon(0.1, 0.9, 0.27, 0.9),
         ConvexPolygon([[0.27, 0.23 + 2e-8], [0.31 - 2e-8, 0.27], [0.27, 0.31 - 2e-8],
                        [0.23 + 2e-8, 0.27]])],
        (2, 3, 3, 6)),
}


@pytest.fixture(scope="module", params=sorted(STACKS))
def stack(request):
    config = STACKS[request.param]()
    topo = build_cut_topology(config)
    return config, topo


@pytest.fixture(scope="module")
def oracle(stack):
    """The loop oracles' visible regions, facets and overlap pieces."""
    config, topo = stack
    active, cut_cells, cut_by = ref.visible_regions(config)
    grids = [_part_grid(part) for part in config.parts]
    return (active, cut_cells, cut_by, ref.interface_facets(config, topo.active, grids),
            ref.overlap_pieces(config, topo.active, grids))


def _assert_arrays_equal(got, want):
    """Every field of two topology records equal in dtype and value; of
    padded vertices only the slots below each count."""
    got, want = (r._asdict() if isinstance(r, tuple) else vars(r) for r in (got, want))
    assert got.keys() == want.keys()
    for name, w in want.items():
        g = got[name]
        if name == "verts":
            valid = np.arange(w.shape[1]) < want["counts"][:, None]
            g = np.where(valid[..., None], g[:, :w.shape[1]], 0.0)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


def test_overlaps_match_loop_oracle_bitwise(stack, oracle):
    _, topo = stack
    want = oracle[4]
    assert len(want) > 0
    _assert_arrays_equal(topo.overlaps, ref.overlap_arrays(want))


def test_facets_match_loop_oracle_exactly(stack, oracle):
    _, topo = stack
    want = oracle[3]
    assert len(want) > 0
    _assert_arrays_equal(topo.facets, ref.facet_arrays(want))


def test_visible_regions_match_loop_oracle_bitwise(stack, oracle):
    config, topo = stack
    active, cut_cells, cut_by = oracle[:3]
    got_cut_by = {(i, k): cut for i in range(config.nparts)
                  for k, cut in _part_regions(config, i).cut_by.items()}
    assert sorted(got_cut_by) == sorted(cut_by)
    for key in cut_by:
        assert np.array_equal(got_cut_by[key], cut_by[key])
    for i in range(config.nparts):
        assert topo.active[i].dtype == np.int64
        assert np.array_equal(topo.active[i], active[i])
        assert topo.cut_cells[i].dtype == np.int64
        assert topo.cut_cells[i].tolist() == list(cut_cells[i])
        _assert_arrays_equal(topo.visible[i], ref.visible_arrays(cut_cells[i]))


def test_visible_area_floor_covers_slivers():
    config = STACKS["visible-area-floor"]()
    mesh = config.parts[0].mesh
    verts = mesh.nodes[mesh.cells]
    ratio = np.zeros(len(verts))
    for c in range(len(verts)):
        pieces = [ConvexPolygon(verts[c], validate=False)]
        for part in config.parts[1:]:
            pieces = [q for p in pieces for q in ref.convex_difference(p, part.predomain).pieces]
        ratio[c] = sum(p.area for p in pieces) / mesh.cell_areas()[c]
    slivers = np.flatnonzero((ratio > 0.0) & (ratio <= 1e-14))
    assert len(slivers) == 2
    active = _part_regions(config, 0).active
    assert not np.isin(slivers, active).any()
    assert np.isin(np.flatnonzero(ratio > 1e-14), active).all()


# tracemalloc peaks of one warm `build_cut_topology`, measured at 6.7 MB
# (boundary layer, k = 1) and 9.7 MB (config II, k = 7) with numpy 2.4;
# the bounds leave 2x headroom. The measured build is on fresh parts: a
# second build on the same parts reuses what the first kept on them.
MEMORY_PEAK_MB = {"band-k1": 13.4, "II-k7": 19.4}


@pytest.mark.parametrize("name", sorted(MEMORY_PEAK_MB))
def test_topology_build_memory_peak(name):
    def stack():
        if name == "band-k1":
            return boundary_layer_stack(1)[0]
        return build_stack(standard_predomains("II"), [7, 7, 7], 1)

    build_cut_topology(stack())
    config = stack()
    tracemalloc.start()
    try:
        build_cut_topology(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= MEMORY_PEAK_MB[name]


# tracemalloc peaks of a cold `assemble_volume` and `error_norms` (a fresh
# topology, no quadrature built yet) on config II, k = 7, P1, measured at
# 4.3 MB and 13.4 MB with numpy 2.4 (the volume term returns its local
# matrices and makes no triplets); the bounds leave 2x headroom over the
# 10.8 MB and 13.2 MB measured when it scattered its own triplets. Mapping
# and tabulating the points of every uncut cell peaked at 27.7 MB and
# 33.5 MB in this test, 23.8 MB and 29.6 MB with the affine maps cached.
INTEGRAL_PEAK_MB = {"assemble_volume": 21.6, "error_norms": 26.3}


@pytest.mark.parametrize("name", sorted(INTEGRAL_PEAK_MB))
def test_cell_integral_memory_peak(name):
    config = build_stack(standard_predomains("II"), [7, 7, 7], 1)
    topo = build_cut_topology(config)
    u = MultimeshFunction.from_global(topo, np.ones(topo.total_dim))
    u_exact, _, grad_u = poisson_fields()
    run = {"assemble_volume": lambda: assemble_volume(topo, FormParams.defaults(1)),
           "error_norms": lambda: error_norms(u, topo, u_exact, grad_u)}[name]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= INTEGRAL_PEAK_MB[name]


def _assert_batches_equal(config, got, want):
    """The geometry of each batch equals the oracle's; its basis in each
    mesh is FeSpace.tabulate at the oracle's points and cells, with the
    cells' dofs. All bit for bit; the oracle's batches have no basis."""
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert g.meshes == w.meshes
        for name in ("cells", "starts", "points", "weights", "normals"):
            a, b = getattr(g, name), getattr(w, name)
            if b is None:
                assert a is None, name
            else:
                assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert w.basis == () and len(g.basis) == len(g.meshes)
        for m, i in enumerate(w.meshes):
            space = config.parts[i].space
            cells = w.cells[:, m]
            want_basis = (*space.tabulate(w.per_point(cells), w.points), space.cell_dofs[cells])
            for name, a, b in zip(("phi", "grad", "dofs"), g.basis[m], want_basis):
                assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("quad_order", [2, 4])
def test_batches_match_per_entity_rules_bitwise(stack, oracle, quad_order):
    config, topo = stack
    if quad_order != topo.quad_order:
        topo = build_cut_topology(config, quad_order)
    _, cut_cells, _, facets, overlaps = oracle
    p = max(part.space.degree for part in config.parts)
    for order in sorted({quad_order, 2 * p + 2}):
        _assert_batches_equal(config, topo.cell_batches(order),
                              ref.cell_batches(config, cut_cells, order))
    _assert_batches_equal(config, topo.facet_batches(), ref.facet_batches(facets, quad_order))
    _assert_batches_equal(config, topo.overlap_batches(),
                          ref.overlap_batches(overlaps, quad_order))


def test_batch_basis_is_read_only(stack):
    _, topo = stack
    for batch in [*topo.cell_batches(), *topo.facet_batches(), *topo.overlap_batches()]:
        assert len(batch.basis) == len(batch.meshes)
        for basis in batch.basis:
            for a in basis:
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0


@pytest.mark.parametrize("name", ["I", "II"])
def test_solve_and_report_tabulate_each_batch_once(monkeypatch, name):
    """One solve plus its error report calls FeSpace.tabulate exactly once
    per (batch, mesh) pair the topology built, and for nothing else."""
    calls = []
    tabulate = FeSpace.tabulate

    def counted(space, cells, pts):
        calls.append((id(space), id(pts)))
        return tabulate(space, cells, pts)

    monkeypatch.setattr(FeSpace, "tabulate", counted)
    u, f, grad_u = poisson_fields()
    params = FormParams.defaults(1)
    res = solve_poisson(build_stack(standard_predomains(name), (4, 4, 4), 1), params, f, u)
    _error_report(name, 1, res, u, grad_u)
    topo = res.topology
    # the cell batches of the forms' order, then of error_norms' order for P1
    batches = [*topo.cell_batches(params.quad_order), *topo.cell_batches(4),
               *topo.facet_batches(), *topo.overlap_batches()]
    built = [(id(topo.parts[i].space), id(b.points)) for b in batches for i in b.meshes]
    assert len(calls) == len(built) == len(set(built))
    assert sorted(calls) == sorted(built)


def test_grid_tables_match_loop_oracle(stack):
    config, _ = stack
    for grid in map(_part_grid, config.parts):
        starts, cells = grid._table
        want_starts, want_cells = ref.grid_table(grid)
        assert starts.dtype == cells.dtype == np.int64
        assert np.array_equal(starts, want_starts) and np.array_equal(cells, want_cells)


# ---------------------------------------------------------------------------
# Bulk grid query
# ---------------------------------------------------------------------------

GRID_MESHES = {
    "unit-k3": lambda: build_structured_mesh(UNIT, 2.0 ** -3),
    "rotated-k4": lambda: build_structured_mesh(rotate_rect((0.2, 0.8, 0.3, 0.75), 23.0),
                                                2.0 ** -4),
    "band-k0": lambda: boundary_layer_stack(0)[0].parts[1].mesh,
}
_GRIDS: dict = {}


def _grid(name) -> _CellGrid:
    if name not in _GRIDS:
        _GRIDS[name] = _CellGrid(GRID_MESHES[name]())
    return _GRIDS[name]


# coordinates biased toward mesh lines and bin edges (multiples of 1/16)
coords = st.one_of(
    st.floats(-0.2, 1.2),
    st.integers(-2, 18).map(lambda m: m / 16),
    st.tuples(st.integers(0, 16), st.sampled_from([-1e-13, 1e-13])).map(
        lambda t: t[0] / 16 + t[1]),
)
widths = st.one_of(st.just(0.0), st.sampled_from([1e-13, 1e-3, 0.05, 0.3, 2.0]),
                   st.floats(0.0, 0.5))
boxes = st.lists(st.tuples(coords, coords, widths, widths), min_size=1, max_size=12)


@given(name=st.sampled_from(sorted(GRID_MESHES)), boxes=boxes)
def test_bulk_grid_query_never_misses(name, boxes):
    grid = _grid(name)
    v = grid.mesh.nodes[grid.mesh.cells]
    clo, chi = v.min(axis=1), v.max(axis=1)
    lo = np.array([(x, y) for x, y, _, _ in boxes])
    hi = lo + np.array([(wx, wy) for _, _, wx, wy in boxes])
    q, c = grid.query_bboxes(lo, hi)
    assert np.all(np.diff(q) >= 0)
    for k in range(len(lo)):
        got = c[q == k]
        assert np.all(np.diff(got) > 0)  # sorted, no duplicates
        brute = np.flatnonzero(np.all((clo <= hi[k]) & (chi >= lo[k]), axis=1))
        assert np.isin(brute, got).all()
        assert np.array_equal(got, ref.query_bbox(grid, lo[k, 0], hi[k, 0], lo[k, 1], hi[k, 1]))



@pytest.mark.parametrize("name", sorted(STACKS))
def test_point_queries_equal_the_deduplicated_raw_keys(name):
    """Point queries lie in one bin each, so `query_bboxes` skips its
    np.unique pass on them: the (query, cell) pairs must be those np.unique
    makes of the raw keys, every cell of each point's bin. Nodes, edge
    midpoints and centroids of each mesh, 1e-13 off too. In one call with
    boxes that span several bins, the pairs still come back sorted and
    without repeats, and each box gets the cells of the scalar query."""
    for part in STACKS[name]().parts:
        grid = _part_grid(part)
        mesh = grid.mesh
        v = mesh.nodes[mesh.cells]
        pts = np.concatenate([mesh.nodes, (0.5 * (v + np.roll(v, -1, axis=1))).reshape(-1, 2),
                              v.mean(axis=1)])
        pts = pts[::max(1, len(pts) // 1500)]
        pts = np.concatenate([pts, pts + 1e-13, pts - 1e-13])
        ncells = len(mesh.cells)
        q, c = grid.query_bboxes(pts, pts)
        starts, cells = grid._table
        bins = grid._bins(pts[:, 0], 0) * grid.ny + grid._bins(pts[:, 1], 1)
        raw = np.concatenate([k * ncells + cells[starts[b]:starts[b + 1]]
                              for k, b in enumerate(bins.tolist())])
        want = np.unique(raw)
        assert np.array_equal(q, want // ncells) and np.array_equal(c, want % ncells)

        wide = 1.5 * grid.bin
        lo = np.concatenate([pts[:200], pts[:200] - wide])
        hi = np.concatenate([pts[:200], pts[:200] + wide])
        q, c = grid.query_bboxes(lo, hi)
        assert np.all(np.diff(q * ncells + c) > 0)
        for k in range(0, len(lo), 20):
            assert np.array_equal(
                c[q == k], ref.query_bbox(grid, lo[k, 0], hi[k, 0], lo[k, 1], hi[k, 1]))

# ---------------------------------------------------------------------------
# Separating-axis prefilter
# ---------------------------------------------------------------------------

# offsets off a shared edge or vertex, in units of the scale: positive apart,
# negative overlapping; the prefilter margin is 1e-9
GAPS = [0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1e-10, -1e-10, 5e-10, -5e-10, 2e-9, 1e-6, 1e-3]


@st.composite
def triangles(draw, scale):
    """A counterclockwise triangle: two edges of 0.2 to 1 times scale around
    an angle of 20 to 140 degrees."""
    ox, oy = draw(st.floats(-1, 1)), draw(st.floats(-1, 1))
    theta = draw(st.floats(0, 2 * math.pi))
    phi = draw(st.floats(math.radians(20), math.radians(140)))
    l1, l2 = draw(st.floats(0.2, 1.0)), draw(st.floats(0.2, 1.0))
    o = np.array([ox, oy]) * scale
    return np.array([
        o,
        o + scale * l1 * np.array([math.cos(theta), math.sin(theta)]),
        o + scale * l2 * np.array([math.cos(theta + phi), math.sin(theta + phi)]),
    ])


def _outward(a, k):
    e = a[(k + 1) % 3] - a[k]
    return np.array([e[1], -e[0]]) / math.hypot(e[0], e[1])


@st.composite
def triangle_pairs(draw):
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    a = draw(triangles(scale))
    k = draw(st.integers(0, 2))
    p, q = a[k], a[(k + 1) % 3]
    n = _outward(a, k)
    gap = draw(st.sampled_from(GAPS)) * scale
    mode = draw(st.sampled_from(["shared-edge", "touching-vertex", "free"]))
    if mode == "shared-edge":
        # across edge k, shifted off it by gap
        depth = draw(st.floats(0.05, 1.0)) * scale
        along = draw(st.floats(-0.5, 1.5))
        apex = p + along * (q - p) + depth * n
        b = np.array([q, p, apex]) + gap * n
    elif mode == "touching-vertex":
        # vertex k of a is a vertex of b; b opens away from a, rotated by turn
        turn = draw(st.floats(-0.3, 0.3))
        c, s = math.cos(turn), math.sin(turn)
        d1 = np.array([[c, -s], [s, c]]) @ n
        d2 = np.array([[c, -s], [s, c]]) @ _outward(a, (k + 2) % 3)
        l1, l2 = draw(st.floats(0.1, 1.0)) * scale, draw(st.floats(0.1, 1.0)) * scale
        b = np.array([p, p + l1 * d2, p + l2 * d1]) + gap * (n + _outward(a, (k + 2) % 3))
        if (b[1, 0] - b[0, 0]) * (b[2, 1] - b[0, 1]) < (b[1, 1] - b[0, 1]) * (b[2, 0] - b[0, 0]):
            b = b[::-1]
    else:
        b = draw(triangles(scale))
    return a, b


@settings(max_examples=400)
@given(pair=triangle_pairs())
def test_sat_prefilter_never_drops_an_intersecting_pair(pair):
    a, b = pair
    for P, Q in ((a, b), (b, a)):
        if _sat_separated(P[None], Q[None])[0]:
            inter = convex_intersect(ConvexPolygon(P, validate=False),
                                     ConvexPolygon(Q, validate=False))
            assert not inter.pieces


def test_sat_prefilter_margin():
    a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    below = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, -1.0]])  # shares edge 0 of a
    cases = [
        (a, a, False),
        (a, below, False),
        (a, below - [0.0, 1e-13], False),
        (a, below - [0.0, 0.5 * SAT_MARGIN * REL_TOL], False),
        (a, below - [0.0, 2.0 * SAT_MARGIN * REL_TOL], True),
        (a, a + [2.0, 0.0], True),
        (a, a[:, ::-1] * [1.0, -1.0] + [0.0, -1e-3], True),
        # a vertex pointing at an edge: only that edge's normal separates
        (np.array([[0.0, -1e-3], [-0.1, -1.0], [0.1, -1.0]]),
         np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), True),
    ]
    got = _sat_separated(np.array([c[0] for c in cases]), np.array([c[1] for c in cases]))
    assert got.tolist() == [c[2] for c in cases]
