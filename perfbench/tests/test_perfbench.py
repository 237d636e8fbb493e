"""Tests of the benchmark's own code: span arithmetic, the seeded stack
generator, the independent oracles used by the checks, and the metric names.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stackfem.cli import build_stack  # noqa: E402
from stackfem.multimesh import MultiMeshConfig  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6]; a second root [11, 12]
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 6.0, 12.0])
    parent = np.array([-1, 0, 1, 0, -1])
    own = tracing.self_times(end - start, parent)
    assert own.tolist() == [6.0, 2.0, 1.0, 1.0, 1.0]
    assert own.sum() == pytest.approx(11.0)  # wall time covered by the two roots


def test_tracer_layer_metrics_from_recorded_spans(monkeypatch):
    ticks = iter([0.0, 1.0, 1.5, 2.0, 2.25, 4.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(ticks))
    tr = tracing.Tracer()
    with tr.span(tracing.ROOT):              # 0 .. 4
        with tr.span("multimesh.topology"):  # 1 .. 2.25
            with tr.span("geom2d.clip"):     # 1.5 .. 2
                pass
    m = tr.layer_metrics()
    assert m["cli.self_s"] == pytest.approx(4.0 - 1.25)
    assert m["multimesh.topology_s"] == pytest.approx(1.25 - 0.5)
    assert m["geom2d.clip_s"] == pytest.approx(0.5)
    assert m["geom2d.clip_calls"] == 1.0
    assert m["solver.eigs_s"] == 0.0
    assert m["multimesh.overlap_yield"] == 0.0


def test_tracer_restores_every_wrapped_name():
    import stackfem.cli
    import stackfem.solver

    before = (stackfem.cli.build_cut_topology, stackfem.solver.CsrMatrix.matvec)
    with tracing.Tracer().installed():
        assert stackfem.cli.build_cut_topology is not before[0]
    assert (stackfem.cli.build_cut_topology, stackfem.solver.CsrMatrix.matvec) == before


def test_stack_table_is_valid_and_strictly_inside():
    assert len(set(workloads.SOLVE_STACKS)) == len(workloads.SOLVE_STACKS)
    for ang in workloads.SOLVE_STACKS:
        for a, a0 in zip(ang, workloads.SOLVE_ANGLES):
            assert abs(a - a0) <= workloads.SOLVE_JITTER_DEG
        pres = workloads.solve_predomains(ang)
        for pre in pres[1:]:
            assert np.all((pre.vertices > 0.02) & (pre.vertices < 0.98))
        assert isinstance(build_stack(pres, [3, 3, 3], 1), MultiMeshConfig)
        for pre, bounds, a in zip(pres[1:], workloads.SOLVE_BOUNDS, ang):
            assert np.allclose(pre.vertices, workloads.rect_corners(bounds, a), atol=1e-14)


@pytest.mark.parametrize("seed", range(0, 1000, 37))
def test_seeded_stacks_are_distinct_within_a_run(seed):
    n = len(workloads.SOLVE_STACKS)
    angles = [workloads.solve_angles(seed, i) for i in range(n)]
    assert sorted(angles) == sorted(workloads.SOLVE_STACKS)  # no stack repeats
    assert workloads.solve_angles(seed, 3) == angles[3]  # same seed, same inputs


def test_seeds_order_the_stacks_differently():
    firsts = {workloads.solve_angles(seed, 0) for seed in range(20)}
    assert len(firsts) > 5


def test_exposed_perimeters_of_overlapping_squares():
    lower = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    upper = np.array([[0.5, 0.25], [1.5, 0.25], [1.5, 0.75], [0.5, 0.75]])
    assert workloads.exposed_perimeters([lower, upper]) == pytest.approx([3.5, 3.0])
    assert workloads.inside_interval((2.0, 0.0), (3.0, 0.0), lower) is None


def test_hexagon_masks():
    r = workloads.HEX_INRADIUS
    x = np.array([0.5, 0.5 + r, 0.5 + r + 1e-6, 0.5 + 0.99 * r, 0.9])
    y = np.full_like(x, 0.5)
    inside, outside = workloads.strictly_inside_hexagon(x, y)
    assert inside.tolist() == [True, False, False, True, False]
    assert outside.tolist() == [False, False, True, False, True]
    vertex = 0.5 + r / math.cos(math.pi / 6)
    assert workloads.strictly_inside_hexagon(np.array([0.5]), np.array([vertex - 1e-6]))[0][0]


def test_workload_names_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_summary_metric_names_match_benchmark_json():
    tr = tracing.Tracer()
    rec = {"setup_s": 0.5, "op_s": 2.0, "dofs": 100, "peak_rss_mb": 90.0,
           "failed": False, "check_failures": [], "layers": tr.layer_metrics()}
    plain = run.summarize([rec], [0.5], trace=0)["metrics"]
    traced = run.summarize([rec], [0.5], trace=1)["metrics"]
    for got, spec in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert list(got) == [m["name"] for m in spec]
        assert {k: v["unit"] for k, v in got.items()} == {m["name"]: m["unit"] for m in spec}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_metrics_of_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "boundary-layer", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
