"""Finite elements on stacks of intersecting 2D triangular meshes.

A mesh stack covers the domain with ordered, possibly rotated parts, each
carrying its own mesh size. Higher parts occlude lower ones; the coupled
system integrates over visible regions only and enforces inter-mesh
continuity weakly through interface penalties plus an overlap stabilization
that keeps the formulation stable for arbitrary mesh-size ratios.
"""

from .geom2d import (
    ConvexPolygon,
    rect_polygon,
    regular_polygon,
    rotate_rect,
)
from .mesh import FeSpace, TriMesh, build_band_mesh, build_structured_mesh, nodal_interpolate
from .multimesh import (
    CutTopology,
    MultiMeshConfig,
    MultiMeshPart,
    build_cut_topology,
    point_locate,
)
from .assembly import (
    DirichletBC,
    FormParams,
    apply_dirichlet,
    assemble_load,
    assemble_system,
    build_dirichlet,
    kappa_weights,
)
from .solver import CsrMatrix, cg_solve, condition_number, extreme_eigs
from .analysis import (
    MultimeshFunction,
    diagnostics,
    energy_norm,
    error_norms,
    global_interpolant,
)

__version__ = "0.1.0"
