"""Spans and counters around the calls from the drivers into each layer.

Tracing never edits the program: `Tracer.installed()` replaces, for the
duration of a `with` block, the module attributes through which
`stackfem.cli` and the layers below it call each other (for example
`stackfem.cli.build_cut_topology` or `stackfem.multimesh.convex_intersect`)
by wrappers that record a span per call, and puts the originals back on
exit. Untraced runs never construct a tracer.

Spans are kept in memory in flat arrays (name id, start, end, parent) and
written out once, after the operation.
"""
from __future__ import annotations

import csv
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

ROOT = "cli.op"

# Time metrics: one per span name, reported as the summed self time (s) of
# that name's spans in one operation. The root span's self time is driver
# time outside every layer, such as CSV writing and the probe loops.
TIME_METRICS = {
    "mesh.build": "mesh.build_s",
    "geom2d.clip": "geom2d.clip_s",
    "multimesh.topology": "multimesh.topology_s",
    "multimesh.point_locate": "multimesh.point_locate_s",
    "assembly.volume": "assembly.volume_s",
    "assembly.interface": "assembly.interface_s",
    "assembly.stabilization": "assembly.stabilization_s",
    "assembly.csr": "assembly.csr_s",
    "assembly.load": "assembly.load_s",
    "assembly.dirichlet": "assembly.dirichlet_s",
    "solver.cg": "solver.cg_s",
    "solver.eigs": "solver.eigs_s",
    "analysis.error_norms": "analysis.error_norms_s",
    "analysis.energy": "analysis.energy_s",
    "analysis.interpolant": "analysis.interpolant_s",
    "analysis.point_eval": "analysis.point_eval_s",
    ROOT: "cli.self_s",
}

COUNT_METRICS = (
    "mesh.cells",
    "geom2d.clip_calls",
    "multimesh.cut_cells",
    "multimesh.facets",
    "multimesh.overlaps",
    "multimesh.point_locates",
    "assembly.nnz",
    "solver.cg_iterations",
    "solver.eig_matvecs",
)


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of a span nest inside it and
    never overlap one another: the covered time is the sum of their
    durations. `parent` holds the parent's index, or -1 for a root.
    """
    duration = np.asarray(duration, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


class Tracer:
    """Span recorder for one operation in one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open = [-1]
        self._depth: dict[str, int] = {}
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.intersect_attempts = 0

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self._depth[name] = self._depth.get(name, 0) + 1
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()
        name = self.names[self.name_id[idx]]
        self._depth[name] -= 1

    def inside(self, name: str) -> bool:
        return self._depth.get(name, 0) > 0

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(module, attribute, span name, result hook) for every wrapped name."""
        counts = self.counts

        def add(key, n):
            counts[key] += n

        def cells(mesh):
            add("mesh.cells", len(mesh.cells))

        def topology(topo):
            add("multimesh.cut_cells", sum(len(c) for c in topo.cut_cells))
            add("multimesh.facets", len(topo.facets))
            add("multimesh.overlaps", len(topo.overlaps))

        def intersect(_):
            self.intersect_attempts += 1

        return [
            ("stackfem.cli", "build_structured_mesh", "mesh.build", cells),
            ("stackfem.cli", "build_band_mesh", "mesh.build", cells),
            ("stackfem.cli", "FeSpace", "mesh.build", None),
            ("stackfem.cli", "build_cut_topology", "multimesh.topology", topology),
            ("stackfem.multimesh", "convex_intersect", "geom2d.clip", intersect),
            ("stackfem.multimesh", "convex_difference", "geom2d.clip", None),
            ("stackfem.multimesh", "clip_segment", "geom2d.clip", None),
            ("stackfem.analysis", "point_locate", "multimesh.point_locate",
             lambda _: add("multimesh.point_locates", 1)),
            ("stackfem.cli", "assemble_system", "assembly.csr",
             lambda s: add("assembly.nnz", int(s.matrix.csr.nnz))),
            ("stackfem.assembly", "assemble_volume", "assembly.volume", None),
            ("stackfem.assembly", "assemble_interface", "assembly.interface", None),
            ("stackfem.assembly", "assemble_stabilization", "assembly.stabilization", None),
            ("stackfem.cli", "assemble_load", "assembly.load", None),
            ("stackfem.cli", "build_dirichlet", "assembly.dirichlet", None),
            ("stackfem.cli", "apply_dirichlet", "assembly.dirichlet", None),
            ("stackfem.cli", "cg_solve", "solver.cg",
             lambda r: add("solver.cg_iterations", int(r[1].iterations))),
            ("stackfem.cli", "condition_number", "solver.eigs", None),
            ("stackfem.analysis", "error_norms", "analysis.error_norms", None),
            ("stackfem.analysis", "energy_norm", "analysis.energy", None),
            ("stackfem.analysis", "global_interpolant", "analysis.interpolant", None),
            ("stackfem.analysis", "eval_or_nan", "analysis.point_eval", None),
        ]

    @contextmanager
    def installed(self):
        """Wrap every traced name; restore the originals on exit."""
        saved = []
        try:
            for modname, attr, name, hook in self._targets():
                mod = importlib.import_module(modname)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(name, orig, hook))
            csr = importlib.import_module("stackfem.solver").CsrMatrix
            matvec = csr.matvec
            saved.append((csr, "matvec", matvec))

            def counted_matvec(mat, x):
                if self.inside("solver.eigs"):
                    self.counts["solver.eig_matvecs"] += 1
                return matvec(mat, x)

            csr.matvec = counted_matvec
            yield self
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the recorded operation."""
        names = np.array(self.names, dtype=object)[np.asarray(self.name_id, dtype=np.int64)]
        own = self_times(np.asarray(self.end) - np.asarray(self.start), np.asarray(self.parent))
        out = {metric: float(own[names == span].sum()) for span, metric in TIME_METRICS.items()}
        self.counts["geom2d.clip_calls"] = int(np.count_nonzero(names == "geom2d.clip"))
        out.update((key, float(self.counts[key])) for key in COUNT_METRICS)
        # overlap pieces kept per convex_intersect attempt in the topology build
        attempts = self.intersect_attempts
        out["multimesh.overlap_yield"] = (
            self.counts["multimesh.overlaps"] / attempts if attempts else 0.0
        )
        return out

    def write(self, path, op: int) -> None:
        """One row per span: name, start, end, parent index, operation id."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start", "end", "parent", "op"])
            for nid, s, e, p in zip(self.name_id, self.start, self.end, self.parent):
                w.writerow([self.names[nid], repr(s), repr(e), p, op])
