"""Bulk point location against the scalar oracle.

`multimesh.point_locate` walks the parts from the top down over whole
point arrays. It must return, point for point, the (mesh, cell) that the
scalar loop in `loop_reference.point_locate` returns, -1 where that loop
finds nothing. Points are drawn where the two could disagree: on mesh
nodes, cell edges, predomain edges and the void boundary, exactly and
1e-13 off, and outside the unit square.
"""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
from conftest import build_stack_config, config_I, config_II
from stackfem import analysis, multimesh
from stackfem.cli import boundary_layer_stack, run_boundary_layer
from stackfem.geom2d import REL_TOL, rect_polygon
from stackfem.multimesh import build_cut_topology, point_locate

STACKS = {
    "I": lambda: config_I((3, 4, 5)),
    "II": lambda: config_II((4, 3, 5)),
    "band": lambda: boundary_layer_stack(0)[0],
    "abutting": lambda: build_stack_config(
        [rect_polygon(0.0, 1.0, 0.0, 1.0), rect_polygon(0.2, 0.5, 0.3, 0.7),
         rect_polygon(0.5, 0.8, 0.3, 0.7)], (3, 4, 5)),
}
OFFSETS = [0.0, 1e-13, -1e-13]


@functools.lru_cache(maxsize=None)
def _topology(name):
    return build_cut_topology(STACKS[name]())


def _oracle(topo, pts):
    out = [ref.point_locate(topo, x) or (-1, -1) for x in pts]
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def _on_segment(draw, a, b):
    t = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    return a + t * (b - a)


@st.composite
def probe_point(draw, topo):
    kind = draw(st.sampled_from(["node", "cell-edge", "predomain-edge", "void-edge",
                                 "outside", "free"]))
    part = topo.parts[draw(st.integers(0, topo.nparts - 1))]
    mesh = part.mesh
    if kind == "node":
        x = mesh.nodes[draw(st.integers(0, len(mesh.nodes) - 1))]
    elif kind == "cell-edge":
        v = mesh.nodes[mesh.cells[draw(st.integers(0, len(mesh.cells) - 1))]]
        k = draw(st.integers(0, 2))
        x = _on_segment(draw, v[k], v[(k + 1) % 3])
    elif kind in ("predomain-edge", "void-edge"):
        poly = part.void if kind == "void-edge" and part.void is not None else part.predomain
        v = poly.vertices
        k = draw(st.integers(0, len(v) - 1))
        x = _on_segment(draw, v[k], v[(k + 1) % len(v)])
    elif kind == "outside":
        x = np.array([draw(st.floats(-0.5, 1.5)), draw(st.floats(-0.5, 1.5))])
        x[draw(st.integers(0, 1))] = draw(st.sampled_from([-0.3, -1e-3, 1.0 + 1e-3, 1.3]))
    else:
        x = np.array([draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))])
    sign = np.array([draw(st.sampled_from([-1, 0, 1])), draw(st.sampled_from([-1, 0, 1]))])
    return x + draw(st.sampled_from(OFFSETS)) * sign


@st.composite
def stack_and_points(draw):
    name = draw(st.sampled_from(sorted(STACKS)))
    topo = _topology(name)
    pts = draw(st.lists(probe_point(topo), min_size=1, max_size=40))
    return topo, np.array(pts)


@settings(max_examples=300)
@given(case=stack_and_points())
def test_bulk_point_locate_matches_scalar_oracle(case):
    topo, pts = case
    mesh, cell = point_locate(topo, pts)
    want = _oracle(topo, pts)
    assert np.array_equal(mesh, want[:, 0])
    assert np.array_equal(cell, want[:, 1])


@pytest.mark.parametrize("name", sorted(STACKS))
def test_every_node_and_edge_midpoint(name):
    """Nodes and cell-edge midpoints of every mesh (at most ~2000 of them,
    evenly strided), exactly and 1e-13 off."""
    topo = _topology(name)
    base = []
    for part in topo.parts:
        v = part.mesh.nodes[part.mesh.cells]
        base += [part.mesh.nodes, (0.5 * (v + np.roll(v, -1, axis=1))).reshape(-1, 2)]
    base = np.unique(np.concatenate(base), axis=0)
    base = base[::max(1, len(base) // 2000)]
    pts = np.concatenate([base, base + 1e-13, base - [1e-13, 0.0]])
    mesh, cell = point_locate(topo, pts)
    want = _oracle(topo, pts)
    assert np.array_equal(np.column_stack([mesh, cell]), want)


def test_boundary_layer_probe_at_k1(monkeypatch):
    """The probe points of the k = 1 obstacle demo: the grid, the normal line
    and the corner. Location equals the oracle; values equal per-cell
    evaluation to 1e-14, and NaN marks exactly the points located nowhere."""
    calls = []
    locate = analysis.point_locate

    def recording(topology, xy):
        calls.append(np.array(xy, dtype=float))
        return locate(topology, xy)

    monkeypatch.setattr(analysis, "point_locate", recording)
    r = run_boundary_layer(1)
    topo, u = r.solve.topology, r.solve.u
    pts = np.concatenate(calls)
    assert len(pts) == 10_802
    mesh, cell = locate(topo, pts)
    want = _oracle(topo, pts)
    assert np.array_equal(np.column_stack([mesh, cell]), want)

    vals = analysis.eval_or_nan(u, topo, pts)
    assert np.array_equal(np.isnan(vals), mesh < 0)
    assert np.array_equal(vals[:len(r.probe)], r.probe[:, 2], equal_nan=True)
    for m in range(topo.nparts):
        space = topo.parts[m].space
        sel = np.flatnonzero(mesh == m)
        per_cell = [ref.eval_in_cell(space, u.coeffs[m], c, x[None])[0]
                    for c, x in zip(cell[sel], pts[sel])]
        assert np.max(np.abs(vals[sel] - per_cell)) <= 1e-14


def test_point_locate_ties_on_the_domain_boundary():
    """Points at, and a few ulps either side of, y = -tol below the bottom
    edges of the config II background: the cross product with each edge
    (h, 0) is exactly h * y, so at y = -tol it equals -tol * |e|.
    point_locate equals the scalar oracle."""
    topo = _topology("II")
    tol = REL_TOL * max(topo.parts[0].predomain.scale, 1.0)
    ys = [-tol]
    for _ in range(4):
        ys = [np.nextafter(ys[0], -1.0), *ys, np.nextafter(ys[-1], 1.0)]
    pts = np.array([(x, y) for x in np.linspace(0.0, 1.0, 13) for y in ys])
    mesh, cell = point_locate(topo, pts)
    assert np.array_equal(np.column_stack([mesh, cell]), _oracle(topo, pts))
    assert (mesh == 0).any() and (mesh < 0).any()


# ---------------------------------------------------------------------------
# Chunks: `_locate_cells` takes its points LOCATE_CHUNK at a time
# ---------------------------------------------------------------------------

def _nodes_and_midpoints(mesh):
    v = mesh.nodes[mesh.cells]
    mid = (0.5 * (v + np.roll(v, -1, axis=1))).reshape(-1, 2)
    return np.unique(np.concatenate([mesh.nodes, mid]), axis=0)


def _spans_chunks(n):
    return n > 2 * multimesh.LOCATE_CHUNK and n % multimesh.LOCATE_CHUNK


def test_chunked_point_locate_equals_one_point_at_a_time(monkeypatch):
    """One point_locate call whose background pass spans more than two
    chunks plus a remainder, on the k = 1 obstacle stack, locates every
    point as a call on that point alone does. The points are nodes and
    cell-edge midpoints of both meshes, where cells sharing an edge or a
    vertex tie, points inside the hexagonal void and points outside the unit
    square. The boundary-layer golden (tests/test_golden.py, 10,201 probe
    points, most of them on the background) crosses chunk boundaries too."""
    topo = build_cut_topology(boundary_layer_stack(1)[0])
    sizes = []
    locate = multimesh._locate_cells

    def recording(mesh, grid, x, tol, active_mask):
        sizes.append(len(x))
        return locate(mesh, grid, x, tol, active_mask)

    parts = [_nodes_and_midpoints(p.mesh) for p in topo.parts]
    rng = np.random.default_rng(7)
    hexagon = topo.parts[1].void.vertices
    void = 0.5 + rng.uniform(0.0, 0.85, (100, 1)) * (hexagon[rng.integers(0, 6, 100)] - 0.5)
    outside = np.column_stack([rng.uniform(-0.5, 1.5, 100), rng.choice([-0.2, 1.2], 100)])
    pts = np.concatenate([parts[0][::12], parts[1][::8], void, outside])
    monkeypatch.setattr(multimesh, "_locate_cells", recording)
    mesh, cell = point_locate(topo, pts)
    assert any(_spans_chunks(n) for n in sizes)
    alone = np.array([np.concatenate(point_locate(topo, x[None])) for x in pts])
    assert np.array_equal(np.column_stack([mesh, cell]), alone)
    assert (mesh == 0).any() and (mesh == 1).any()
    assert (mesh[-200:] < 0).all()  # the void and outside


def test_chunked_locate_cells_lets_active_cells_win_ties():
    """`_locate_cells` on the background of the k = 1 obstacle stack, over
    the nodes and edge midpoints in a ring around the edge of the covered
    region, in one call of more than two chunks plus a remainder: each point
    gets the cell that a call on it alone gives. At some of them an active
    cell wins the tie against a lower-index covered cell."""
    topo = build_cut_topology(boundary_layer_stack(1)[0])
    part = topo.parts[0]
    mesh, grid = part.mesh, multimesh._grid(part)
    active = multimesh._per_part(multimesh._part_regions, topo.config, 0).active_mask
    x = _nodes_and_midpoints(mesh)
    r = np.hypot(x[:, 0] - 0.5, x[:, 1] - 0.5)
    x = x[(0.18 <= r) & (r <= 0.25)]
    assert _spans_chunks(len(x))
    tol = np.full(len(x), REL_TOL)
    got = multimesh._locate_cells(mesh, grid, x, tol, active)
    alone = [multimesh._locate_cells(mesh, grid, x[k:k + 1], tol[k:k + 1], active)[0]
             for k in range(len(x))]
    assert np.array_equal(got, alone)
    assert (got >= 0).all()
    lowest = multimesh._locate_cells(mesh, grid, x, tol, np.ones_like(active))
    assert (active[got] & ~active[lowest]).any()
