"""Parts, meshes and cut topology shared by the stacks of a study.

The study driver builds each (part, k) once and puts it in every stack that
has it, and the cut topology keeps each per-part and per-pair result on the
parts. A topology built from shared parts must equal, bit for bit, one built
from fresh parts; every mesh and every per-part or per-pair step must run
once per study; and nothing kept may outlive the study, or the level of a
condition study.
"""
import dataclasses
import functools
import gc
import math
import weakref
from collections import Counter

import numpy as np

from stackfem import cli, multimesh
from stackfem.cli import (
    build_stack,
    run_condition_study,
    run_permutation_study,
    standard_predomains,
)
from stackfem.multimesh import build_cut_topology, point_locate

PREDOMAINS = standard_predomains("I")
K_MIN, K_MAX, DEGREE = 2, 3, 2
PART_STEPS = ("_part_regions", "_owned_facets", "_cell_batch")
PAIR_STEPS = ("_pair_facets", "_pair_overlaps", "_facet_batch", "_overlap_batch")


def _study():
    run_permutation_study("I", PREDOMAINS, K_MIN, K_MAX, DEGREE)


def _assert_identical(got, want, where):
    """Equal in type, dtype, shape and every bit, through records, batches
    and nested sequences."""
    assert type(got) is type(want), where
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape, where
        assert np.array_equal(got, want), where
    elif dataclasses.is_dataclass(want):
        _assert_identical(vars(got), vars(want), where)
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_identical(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for n, (g, w) in enumerate(zip(got, want)):
            _assert_identical(g, w, f"{where}[{n}]")
    else:
        assert got == want, where


def test_shared_parts_give_the_topology_of_fresh_ones(monkeypatch):
    solved = []  # (meshes' levels, topology) of every stack the study solves
    level = {}   # id of each mesh built -> (mesh, k)
    build_mesh, build_topology = cli.build_structured_mesh, cli.build_cut_topology

    def mesh(pre, h):
        m = build_mesh(pre, h)
        level[id(m)] = (m, round(-math.log2(h)))
        return m

    def topology(config, order):
        topo = build_topology(config, order)
        solved.append((tuple(level[id(p.mesh)][1] for p in config.parts), topo))
        return topo

    monkeypatch.setattr(cli, "build_structured_mesh", mesh)
    monkeypatch.setattr(cli, "build_cut_topology", topology)
    _study()
    assert len(solved) == (K_MAX - K_MIN + 1) ** 3
    orders = (2 * DEGREE, 2 * DEGREE + 2)  # the forms' and the error norms'
    for ks, topo in solved:
        fresh = build_cut_topology(build_stack(PREDOMAINS, ks, DEGREE), topo.quad_order)
        for name in ("active", "uncut", "cut_cells", "visible", "facets", "overlaps", "N_O",
                     "N_Oi", "gamma_len", "overlap_area", "facet_pairs", "overlap_pairs"):
            _assert_identical(getattr(topo, name), getattr(fresh, name), f"{ks} {name}")
        for order in orders:
            _assert_identical(topo.cell_batches(order), fresh.cell_batches(order),
                              f"{ks} cell batches, order {order}")
        _assert_identical(topo.facet_batches(), fresh.facet_batches(), f"{ks} facet batches")
        _assert_identical(topo.overlap_batches(), fresh.overlap_batches(),
                          f"{ks} overlap batches")


def test_each_mesh_and_step_runs_once_per_study(monkeypatch):
    calls = []
    alive = []  # the objects whose ids key the calls, so that no id is reused

    def counted(module, name, key):
        fn = getattr(module, name)

        @functools.wraps(fn)
        def wrapper(*args):
            objs = key(*args)
            alive.append(objs)
            calls.append((name, *(x if isinstance(x, int) else id(x) for x in objs)))
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "build_structured_mesh", lambda pre, h: (pre, h))
    counted(multimesh, "_CellGrid", lambda mesh: (mesh,))
    for step in PART_STEPS:
        counted(multimesh, step, lambda config, i, *args: (config.parts[i], i, *args))
    for step in PAIR_STEPS:
        counted(multimesh, step, lambda config, lower, upper, *args: (
            config.parts[lower], config.parts[upper], lower, upper, *args))
    _study()
    per_step = Counter(call[0] for call in calls)
    nlevels = K_MAX - K_MIN + 1
    # one mesh and grid per (part, k), one visible region per part, one
    # facet split per (lower part, upper part)
    assert per_step["build_structured_mesh"] == per_step["_CellGrid"] == 3 * nlevels
    assert per_step["_part_regions"] == 3 * nlevels
    assert per_step["_pair_facets"] == 3 * nlevels ** 2
    assert all(per_step[step] > 0 for step in PART_STEPS + PAIR_STEPS)
    repeated = [call for call, n in Counter(calls).items() if n > 1]
    assert not repeated


def test_point_locate_reuses_what_the_parts_keep(monkeypatch):
    """Point location reads the grid and the active cells each part keeps:
    on a built topology, whose facets and overlaps use the grid of every
    part here, it builds no grid and no regions record."""
    topo = build_cut_topology(build_stack(PREDOMAINS, (K_MIN, K_MAX, K_MAX), DEGREE))
    calls = []
    for name in ("_CellGrid", "_part_regions"):
        fn = getattr(multimesh, name)
        wrapper = functools.wraps(fn)(lambda *args, fn=fn: calls.append(fn) or fn(*args))
        monkeypatch.setattr(multimesh, name, wrapper)
    x = np.linspace(0.01, 0.99, 23)
    mesh, cell = point_locate(topo, np.stack(np.meshgrid(x, x), axis=-1).reshape(-1, 2))
    assert calls == []
    assert set(mesh.tolist()) == {0, 1, 2} and (cell >= 0).all()


def _record_parts(monkeypatch) -> list[weakref.ref]:
    """Weak references to every part the drivers build, and to its mesh."""
    refs = []
    build_part = cli.build_part

    def recorded(*args):
        part = build_part(*args)
        refs.extend([weakref.ref(part), weakref.ref(part.mesh)])
        return part

    monkeypatch.setattr(cli, "build_part", recorded)
    return refs


def _alive(refs) -> int:
    gc.collect()
    return sum(r() is not None for r in refs)


def test_study_parts_die_with_the_study(monkeypatch):
    refs = _record_parts(monkeypatch)
    _study()
    assert len(refs) == 2 * 3 * (K_MAX - K_MIN + 1)
    assert _alive(refs) == 0


def test_condition_level_parts_die_with_the_level(monkeypatch):
    """By the time a level's condition number is estimated, its parts,
    meshes and whatever the topology kept on them are gone."""
    refs = _record_parts(monkeypatch)
    alive_at_estimate = []
    estimate = cli.condition_number

    def condition_number(matrix, seed):
        alive_at_estimate.append(_alive(refs))
        return estimate(matrix, seed=seed)

    monkeypatch.setattr(cli, "condition_number", condition_number)
    run_condition_study(PREDOMAINS, [2, 3, 4], 1)
    assert len(refs) == 2 * 3 * 3
    assert alive_at_estimate == [0, 0, 0]
    assert _alive(refs) == 0
