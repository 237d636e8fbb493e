"""Shared fixtures and independent oracles for the test suite."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from stackfem.geom2d import ConvexPolygon, rect_polygon, rotate_rect
from stackfem.mesh import FeSpace, build_structured_mesh
from stackfem.multimesh import MultiMeshConfig, MultiMeshPart
from stackfem.solver import CsrMatrix

# Property tests draw the same examples on every run and store none, so the
# suite stays reproducible; geometry examples have no time limit.
settings.register_profile("stackfem", derandomize=True, deadline=None, database=None)
settings.load_profile("stackfem")

# Assembled matrices and load vectors that sum the same products in another
# order agree entrywise within ENTRY_RTOL * max|entry|, not bit for bit.
ENTRY_RTOL = 1e-13


def build_stack_config(predomains, ks, degree=1) -> MultiMeshConfig:
    parts = []
    for pre, k in zip(predomains, ks):
        mesh = build_structured_mesh(pre, 2.0 ** -k)
        parts.append(MultiMeshPart(pre, mesh, FeSpace(mesh, degree)))
    return MultiMeshConfig(parts)


def config_I(ks=(3, 3, 3), degree=1) -> MultiMeshConfig:
    pres = [
        rect_polygon(0.0, 1.0, 0.0, 1.0),
        rect_polygon(0.2, 0.8, 0.2, 0.8),
        rect_polygon(0.4, 0.6, 0.4, 0.6),
    ]
    return build_stack_config(pres, ks, degree)


def config_II(ks=(3, 3, 3), degree=1) -> MultiMeshConfig:
    pres = [
        rect_polygon(0.0, 1.0, 0.0, 1.0),
        rotate_rect((0.2, 0.8, 0.3, 0.75), 23.0),
        rotate_rect((0.3, 0.5, 0.05, 0.8), 44.0),
    ]
    return build_stack_config(pres, ks, degree)


def single_config(k=3, degree=1) -> MultiMeshConfig:
    return build_stack_config([rect_polygon(0.0, 1.0, 0.0, 1.0)], [k], degree)


def random_rect_stack(rng: np.random.Generator, max_extra=3) -> MultiMeshConfig:
    """Background square plus up to max_extra random rotated rectangles,
    all strictly inside with a safety margin."""
    pres = [rect_polygon(0.0, 1.0, 0.0, 1.0)]
    nextra = int(rng.integers(1, max_extra + 1))
    for _ in range(nextra):
        cx = rng.uniform(0.3, 0.7)
        cy = rng.uniform(0.3, 0.7)
        margin = min(cx, 1 - cx, cy, 1 - cy) - 0.03
        hx = rng.uniform(0.05, 0.25)
        hy = rng.uniform(0.05, 0.25)
        diag = math.hypot(hx, hy)
        if diag > margin:
            shrink = margin / diag
            hx *= shrink
            hy *= shrink
        angle = rng.uniform(0.0, 180.0)
        pres.append(rotate_rect((cx - hx, cx + hx, cy - hy, cy + hy), angle))
    ks = []
    for pre in pres:
        k = int(rng.integers(2, 4))
        extent = min(pre.bounds()[1] - pre.bounds()[0], pre.bounds()[3] - pre.bounds()[2])
        while 2.0 ** -k > 0.8 * extent:  # avoid the single-cell-pair fallback
            k += 1
        ks.append(k)
    return build_stack_config(pres, ks, degree=1)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def blocks_matrix(blocks, dim: int) -> CsrMatrix:
    """The matrix of an assembly term's blocks, pairs of global dofs
    (ne, nd) and local matrices (ne, nd, nd), scattered in list order."""
    trip = [(np.broadcast_to(d[:, :, None], m.shape).ravel(),
             np.broadcast_to(d[:, None, :], m.shape).ravel(), m.ravel()) for d, m in blocks]
    rows, cols, vals = (np.concatenate(x) for x in zip(*trip)) if trip else ([], [], [])
    return CsrMatrix.from_triplets(rows, cols, vals, dim)


def classical_p1_system(mesh, f):
    """Dense classical P1 stiffness and load, assembled from closed-form
    element matrices (hand-derived, no shared code with the package)."""
    n = len(mesh.nodes)
    A = np.zeros((n, n))
    b = np.zeros(n)
    # order-2 interior rule, coded from its barycentric definition
    bary = np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]])
    wq = np.full(3, 1.0 / 3.0)
    for cell in mesh.cells:
        v = mesh.nodes[cell]
        area = 0.5 * (
            (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1])
            - (v[1, 1] - v[0, 1]) * (v[2, 0] - v[0, 0])
        )
        g = np.array(
            [
                [v[1, 1] - v[2, 1], v[2, 0] - v[1, 0]],
                [v[2, 1] - v[0, 1], v[0, 0] - v[2, 0]],
                [v[0, 1] - v[1, 1], v[1, 0] - v[0, 0]],
            ]
        ) / (2.0 * area)
        A[np.ix_(cell, cell)] += area * (g @ g.T)
        pts = bary @ v
        fv = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
        fv = np.broadcast_to(fv, 3)
        b[cell] += area * (wq * fv) @ bary
    return A, b


def independent_gamma_lengths(config: MultiMeshConfig) -> np.ndarray:
    """|Gamma_i| by clipping each predomain boundary edge against all higher
    predomains with the scalar clipper; no facet machinery involved."""
    from loop_reference import clip_segment, edges, length
    from stackfem.geom2d import Segment

    n = config.nparts
    out = np.zeros(n)
    for i in range(1, n):
        for a, b in edges(config.parts[i].predomain):
            pieces = [Segment(a, b)]
            for k in range(i + 1, n):
                pieces = [
                    q
                    for p in pieces
                    for q in clip_segment(p, config.parts[k].predomain, keep_inside=False)
                ]
            out[i] += sum(length(p) for p in pieces)
    return out


def monomial_integral_polygon(poly: ConvexPolygon, a: int, b: int) -> float:
    """Exact integral of x^a y^b over a polygon via the divergence theorem:
    the area integral becomes a boundary integral of x^(a+1) y^b / (a+1) dy,
    evaluated edge by edge with an exactly sufficient Gauss rule."""
    deg = a + 1 + b
    npts = deg // 2 + 1
    xg, wg = np.polynomial.legendre.leggauss(npts)
    t = 0.5 * (xg + 1.0)
    total = 0.0
    verts = poly.vertices
    for k in range(len(verts)):
        p = verts[k]
        q = verts[(k + 1) % len(verts)]
        dy = q[1] - p[1]
        if dy == 0.0:
            continue
        x = p[0] + t * (q[0] - p[0])
        y = p[1] + t * (q[1] - p[1])
        total += 0.5 * dy * np.dot(wg, x ** (a + 1) * y ** b) / (a + 1)
    return float(total)


def nan_in_cut_pieces(topo):
    """NaN strictly inside the visible pieces of the first cut cell of the
    background, which border an interface; 1 elsewhere, so no point of an
    uncut cell sees NaN."""
    p = topo.visible[0]
    pieces = [ConvexPolygon(p.verts[r, :p.counts[r]]) for r in np.flatnonzero(p.cell == p.cell[0])]

    def f(x, y):
        xy = np.column_stack([x, y])
        return np.where(np.any([q.contains_strict(xy) for q in pieces], axis=0), np.nan, 1.0)

    return f


def traced_peak_mb(fn) -> float:
    """tracemalloc peak, in MB, of one call fn(); tracing stops also when
    fn raises."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def fit_rate(hs, errs) -> float:
    """Least-squares slope of log(err) against log(h)."""
    return float(np.polyfit(np.log(np.asarray(hs)), np.log(np.asarray(errs)), 1)[0])


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
