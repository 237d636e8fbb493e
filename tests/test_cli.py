import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import mmread

import stackfem
from stackfem.cli import (
    ExperimentConfig,
    _load_experiment,
    boundary_layer_stack,
    main,
    run_boundary_layer,
    run_equal_refinement,
    standard_predomains,
)

DATA = Path(__file__).parent / "data"


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_import_skips_optional_scipy_modules():
    """The matrix dump and the eigensolver import their scipy modules on
    first use, so commands that use neither do not load them, nor
    scipy.linalg (0.13 s and 7 MB to import after stackfem.cli)."""
    src = str(Path(stackfem.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    optional = ("scipy.io", "scipy.linalg", "scipy.sparse.linalg")
    code = f"import sys, stackfem.cli; print(sorted(m for m in {optional} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


class TestExperimentConfig:
    def test_stab_flag_mapping(self):
        cfg = ExperimentConfig(stab="l2")
        assert cfg.form_params().stab_variant == "scaled-value-jump"
        cfg = ExperimentConfig(stab="grad")
        assert cfg.form_params().stab_variant == "gradient-jump"

    def test_defaults_scale_with_degree(self):
        cfg = ExperimentConfig(degree=2)
        p = cfg.form_params()
        assert p.beta0 == 40.0 and p.quad_order == 4

    def test_overrides(self):
        cfg = ExperimentConfig(beta0=3.0, beta1=0.7)
        p = cfg.form_params()
        assert p.beta0 == 3.0 and p.beta1 == 0.7

    def test_standard_predomains(self):
        assert len(standard_predomains("single")) == 1
        assert len(standard_predomains("I")) == 3
        assert len(standard_predomains("II")) == 3
        with pytest.raises(ValueError):
            standard_predomains("III")

    def test_custom_parts(self):
        cfg = ExperimentConfig(
            config="custom",
            custom_parts=[{"bounds": [0.2, 0.6, 0.2, 0.6], "angle": 15.0}],
        )
        pres = cfg.predomains()
        assert len(pres) == 2
        assert pres[1].area == pytest.approx(0.16, rel=1e-12)


class TestSolveCommand:
    def test_writes_results_and_meta(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["solve", "--mm-config", "I", "--k", "3", "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out / "results.csv")
        assert rows[0][0] == "config"
        assert len(rows) == 2
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"] == "I" and meta["command"] == "solve"
        assert meta["beta0"] == 10.0

    def test_dump_matrix(self, tmp_path):
        """The solve keeps no full matrix; --dump-matrix writes the one
        assemble_system makes for the solved stack."""
        from dataclasses import fields

        from stackfem.assembly import FormParams, assemble_system
        from stackfem.cli import SolveResult, build_stack
        from stackfem.multimesh import build_cut_topology

        assert "system" not in {f.name for f in fields(SolveResult)}
        out = tmp_path / "run"
        rc = main(["solve", "--mm-config", "single", "--k", "3", "--out", str(out),
                   "--dump-matrix"])
        assert rc == 0
        A = mmread(out / "system.mtx").tocsr()
        assert A.shape[0] == A.shape[1] == 81
        topo = build_cut_topology(build_stack(standard_predomains("single"), [3], 1))
        assert (A != assemble_system(topo, FormParams.defaults(1)).matrix.csr).nnz == 0

    def test_dump_topology(self, tmp_path):
        from stackfem.cli import build_stack
        from stackfem.multimesh import build_cut_topology

        out = tmp_path / "run"
        rc = main(["solve", "--mm-config", "II", "--k", "3", "--out", str(out),
                   "--dump-topology"])
        assert rc == 0
        facets = _read_csv(out / "facets.csv")
        overlaps = _read_csv(out / "overlaps.csv")
        assert facets[0] == ["i", "j", "ax", "ay", "bx", "by", "nx", "ny"]
        assert overlaps[0] == ["i", "j", "area", "cx", "cy"]
        topo = build_cut_topology(build_stack(standard_predomains("II"), [3] * 3, 1))
        assert len(facets) - 1 == len(topo.facets) > 0
        assert len(overlaps) - 1 == len(topo.overlaps) > 0
        # the rows themselves, byte for byte as recorded before the topology
        # kept its entities as arrays
        for name in ("facets", "overlaps"):
            assert ((out / f"{name}.csv").read_bytes()
                    == (DATA / f"topology_II_k3_{name}.csv").read_bytes()), name

    @pytest.mark.parametrize("flag", ["--beta0", "--beta1"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_nonfinite_penalty_flags_are_rejected(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--mm-config", "single", "--k", "2", f"{flag}={value}",
                  "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: stackfem solve")
        assert f"argument {flag}: must be positive and finite, got '{value}'" in err
        assert not (tmp_path / "run").exists()

    def test_unparsable_penalty_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--beta0", "big"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --beta0: invalid" in err and "'big'" in err

    def test_byte_identical_reruns(self, tmp_path):
        args = ["solve", "--mm-config", "I", "--k", "3"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_nonconvergence_aborts_with_state(self):
        from stackfem.assembly import FormParams
        from stackfem.cli import SolveDidNotConverge, run_equal_refinement

        with pytest.raises(SolveDidNotConverge, match="single:k3"):
            run_equal_refinement("single", standard_predomains("single"), [3], 1,
                                 FormParams.defaults(1), cg_tol=1e-16)  # unreachable tolerance

    def test_nonconvergence_is_logged_with_exit_code_1(self, tmp_path, monkeypatch, capsys,
                                                       caplog):
        from stackfem import cli
        from stackfem.solver import SolveReport

        def stalled(A, b, tol=1e-10):
            return np.zeros_like(b), SolveReport(7, 0.5, False)

        monkeypatch.setattr(cli, "cg_solve", stalled)
        out = tmp_path / "run"
        with caplog.at_level("ERROR", logger="stackfem.cli"):
            rc = main(["solve", "--mm-config", "single", "--k", "2", "--out", str(out)])
        assert rc == 1
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("ERROR", "solver did not converge on single at k=2: residual 5.000e-01")
        ]
        assert capsys.readouterr().out == ""
        assert not (out / "results.csv").exists()

    def test_meta_records_no_unused_setting(self, tmp_path):
        def run(name, *flags):
            out = tmp_path / name
            assert main(["solve", "--mm-config", "single", "--k", "3", "--out", str(out),
                         *flags]) == 0
            return (out / "meta.json").read_text(), (out / "results.csv").read_bytes()

        meta, results = run("default")
        assert run("flags", "--seed", "7", "--k-max", "9", "--k-min", "5", "--full") == (
            meta, results)
        assert not {"seed", "k_min", "k_max", "full"} & set(json.loads(meta))
        assert json.loads(meta)["k"] == 3

    def test_json_config_file(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"config": "single", "degree": 1, "k_min": 3}))
        out = tmp_path / "run"
        rc = main(["solve", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"] == "single" and meta["k"] == 3

    @pytest.mark.parametrize("key, value", [
        ("stab", "bogus"), ("beta1", "nan"), ("degree", 3), ("beta0", -1), ("config", "III"),
    ])
    def test_bad_json_value_is_a_usage_error(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: stackfem solve ")
        assert f"error: {key} in {cfg_path}: " in err and repr(value) in err
        assert not (tmp_path / "run").exists()

    def test_json_null_is_not_set(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"config": "single", "k_min": None, "beta0": None}))
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["k"] == 3 and meta["beta0"] == 10.0

    @pytest.mark.parametrize("content, why", [
        (None, "cannot read config file {}: No such file or directory"),
        ("{\"k_min\": 2,", "config file {} is not valid JSON: "),
        ("[1, 2]", "config file {} must hold a JSON object, not list"),
    ])
    def test_unreadable_config_file_is_a_usage_error(self, tmp_path, capsys, content, why):
        cfg_path = tmp_path / "exp.json"
        if content is not None:
            cfg_path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--k", "2", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: stackfem solve ")
        assert f"error: {why.format(cfg_path)}" in err
        assert not (tmp_path / "run").exists()

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys):
        """A misspelled key is not dropped: `p` is the flag, `degree` the key."""
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"k_min": 2, "p": 2}))
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: stackfem solve ")
        assert (f"error: unknown key 'p' in {cfg_path}; accepted keys: beta0, beta1, config, "
                "degree, full, k_max, k_min, out, parts, seed, stab") in err
        assert not (tmp_path / "run").exists()


class TestConvergenceCommand:
    def test_equal_mode_csv(self, tmp_path):
        out = tmp_path / "conv"
        rc = main(["convergence", "--mm-config", "single", "--k-min", "3",
                   "--k-max", "5", "--equal", "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out / "results.csv")
        assert len(rows) == 4  # header + 3 levels
        errs = [float(r[rows[0].index("l2_err")]) for r in rows[1:]]
        assert errs[0] > errs[1] > errs[2]

    def test_meta_records_no_unused_setting(self, tmp_path):
        def run(name, *flags):
            out = tmp_path / name
            assert main(["convergence", "--mm-config", "single", "--k-min", "2",
                         "--k-max", "3", "--equal", "--out", str(out), *flags]) == 0
            return (out / "meta.json").read_text(), (out / "results.csv").read_bytes()

        meta, results = run("default")
        assert run("flags", "--seed", "9") == (meta, results)
        assert "seed" not in json.loads(meta)

    def test_nonconvergence_is_logged_with_exit_code_1(self, tmp_path, monkeypatch, caplog):
        from stackfem import cli
        from stackfem.solver import SolveReport

        def stalled(A, b, tol=1e-10):
            return np.zeros_like(b), SolveReport(5, 0.25, False)

        monkeypatch.setattr(cli, "cg_solve", stalled)
        out = tmp_path / "conv"
        with caplog.at_level("ERROR", logger="stackfem.cli"):
            rc = main(["convergence", "--mm-config", "single", "--k-min", "2", "--k-max", "2",
                       "--equal", "--out", str(out)])
        assert rc == 1
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("ERROR", "single:k2 (k = (2,)): residual 2.500e-01 after 5 iterations")
        ]
        assert not (out / "results.csv").exists()
        assert not (out / "meta.json").exists()

    def test_config_II_k4_runs_to_convergence(self):
        from stackfem.assembly import FormParams
        from stackfem.cli import build_stack, poisson_fields, solve_poisson

        u_exact, f, _ = poisson_fields()
        config = build_stack(standard_predomains("II"), [4, 4, 4], 1)
        res = solve_poisson(config, FormParams.defaults(1), f, u_exact)
        assert res.report.converged
        assert res.report.relative_residual <= 1e-10

    def test_single_mesh_classical_rates(self):
        reports = run_equal_refinement("single", standard_predomains("single"), range(3, 7), 1)
        hs = [r.h[0] for r in reports]
        l2 = [r.l2_err for r in reports]
        h1 = [r.h1_err for r in reports]
        rate_l2 = np.polyfit(np.log(hs), np.log(l2), 1)[0]
        rate_h1 = np.polyfit(np.log(hs), np.log(h1), 1)[0]
        assert abs(rate_l2 - 2.0) <= 0.15
        assert abs(rate_h1 - 1.0) <= 0.15

    @pytest.mark.parametrize("name", ["I", "II"])
    def test_quadratic_elements_rates(self, name):
        from stackfem.assembly import FormParams

        reports = run_equal_refinement(name, standard_predomains(name), range(3, 6), 2,
                                       FormParams.defaults(2), cg_tol=1e-12)
        hs = [max(r.h) for r in reports]
        rate_l2 = np.polyfit(np.log(hs), np.log([r.l2_err for r in reports]), 1)[0]
        rate_h1 = np.polyfit(np.log(hs), np.log([r.h1_err for r in reports]), 1)[0]
        assert 2.7 <= rate_l2 <= 3.2
        assert 1.8 <= rate_h1 <= 2.2

    @pytest.mark.filterwarnings("ignore:target_h exceeds rectangle extent")
    def test_equal_refinement_rows_are_permutation_endpoints(self):
        from stackfem.analysis import csv_row
        from stackfem.cli import run_permutation_study

        coarse, fine = (csv_row(r)[1:] for r in
                        run_equal_refinement("I", standard_predomains("I"), [2, 3], 2))
        curves: dict[str, list] = {}
        for r in run_permutation_study("I", standard_predomains("I"), 2, 3, 2):
            curves.setdefault(r.config.split(":")[1], []).append(csv_row(r)[1:])
        assert len(curves) == 6
        for rows in curves.values():
            assert rows[0] == coarse and rows[-1] == fine

    def test_permutation_endpoints_config_II(self):
        from stackfem.cli import run_permutation_study

        reports = run_permutation_study("II", standard_predomains("II"), 3, 4, 1)
        # the shared endpoints, solved apart from the study
        coarse, fine = run_equal_refinement("II", standard_predomains("II"), [3, 4], 1)
        curves: dict[str, list] = {}
        for r in reports:
            curves.setdefault(r.config.split(":")[1], []).append(r)
        assert len(curves) == 6
        for c in curves.values():
            assert abs(c[0].l2_err / coarse.l2_err - 1.0) <= 0.01
            assert abs(c[-1].l2_err / fine.l2_err - 1.0) <= 0.01

    @pytest.mark.filterwarnings("ignore:target_h exceeds rectangle extent")
    def test_permutation_study_solves_each_stack_once(self, monkeypatch):
        from stackfem import cli

        real, calls = cli.solve_poisson, []
        monkeypatch.setattr(cli, "solve_poisson",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        reports = cli.run_permutation_study("I", standard_predomains("I"), 2, 3, 2)
        assert len(reports) == 24  # 6 orderings x 4 states
        assert len(calls) == 8     # the distinct states: k in {2, 3} per part


class TestConditionCommand:
    def test_bad_json_value_prints_the_condition_usage(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"stab": "bogus"}))
        with pytest.raises(SystemExit) as exc:
            main(["condition", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: stackfem condition ")
        assert f"error: stab in {cfg_path}: " in err
        assert not (tmp_path / "run").exists()

    def test_reduced_matrix_ignores_the_load(self):
        """The condition study reduces with a zero load; the reduced matrix
        is the one a manufactured-source load gives, and kappa at config I,
        k=4 is the value recorded when the study still assembled that load."""
        from stackfem import cli
        from stackfem.assembly import FormParams

        params = FormParams.defaults(1)
        pres = standard_predomains("I")
        h, got, _ = cli._reduced_matrix(pres, 4, 1, params)
        topo = cli.build_cut_topology(cli.build_stack(pres, [4] * 3, 1), params.quad_order)
        system = cli.assemble_system(topo, params)
        load = cli.assemble_load(topo, cli.poisson_fields()[1], params)
        bc = cli.build_dirichlet(topo, lambda x, y: np.zeros_like(x))
        want = cli.apply_dirichlet(system, load, bc, topo).matrix.csr
        assert h == max(topo.mesh_sizes())
        assert got.csr.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got.csr, attr), getattr(want, attr))
        rows, _ = cli.run_condition_study(pres, [4], 1)
        assert rows[0][1] == pytest.approx(195.45174264295414, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:target_h exceeds rectangle extent")
    def test_larger_penalty_raises_kappa_keeps_slope(self):
        from stackfem.assembly import FormParams
        from stackfem.cli import run_condition_study

        rows_def, slope_def = run_condition_study(standard_predomains("I"), range(2, 5), 1)
        rows_big, slope_big = run_condition_study(
            standard_predomains("I"), range(2, 5), 1, FormParams.defaults(1, beta0=100.0)
        )
        assert all(kb > kd for (_, kd), (_, kb) in zip(rows_def, rows_big))
        assert -2.3 <= slope_big <= -1.5

    def test_csv_with_slope_footer_and_determinism(self, tmp_path):
        args = ["condition", "--mm-config", "single", "--k-min", "3", "--k-max", "4",
                "--seed", "7"]
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        text1 = (out1 / "results.csv").read_bytes()
        text2 = (out2 / "results.csv").read_bytes()
        assert text1 == text2  # same config + seed: byte-identical output
        rows = _read_csv(out1 / "results.csv")
        assert rows[0] == ["h", "kappa"]
        assert rows[-1][0] == "slope"
        assert -2.3 <= float(rows[-1][1]) <= -1.7

    def test_estimation_failure_logged_and_left_out_of_fit(self, monkeypatch, caplog):
        from stackfem import cli
        from stackfem.solver import EigenEstimationError

        real = cli.condition_number
        calls = []

        def fail_second(A, seed):
            calls.append(A.dim)
            if len(calls) == 2:
                raise EigenEstimationError("no convergence")
            return real(A, seed=seed)

        monkeypatch.setattr(cli, "condition_number", fail_second)
        with caplog.at_level("WARNING", logger="stackfem.cli"):
            rows, slope = cli.run_condition_study(standard_predomains("single"), range(2, 5), 1)
        assert len(calls) == 3
        assert [r.getMessage() for r in caplog.records] == [
            "condition estimation failed at k=3: no convergence"
        ]
        assert np.isnan(rows[1][1]) and np.isfinite([rows[0][1], rows[2][1]]).all()
        h, kappa = zip(rows[0], rows[2])
        assert slope == pytest.approx(np.polyfit(np.log(h), np.log(kappa), 1)[0], rel=1e-12)

    def test_k_max_alone_keeps_default_k_min(self, tmp_path):
        out = tmp_path / "c"
        assert main(["condition", "--mm-config", "single", "--k-max", "3",
                     "--out", str(out)]) == 0
        rows = _read_csv(out / "results.csv")
        assert [float(r[0]) for r in rows[1:-1]] == pytest.approx([2 ** -2 * 2 ** 0.5,
                                                                   2 ** -3 * 2 ** 0.5])
        meta = json.loads((out / "meta.json").read_text())
        assert (meta["k_min"], meta["k_max"]) == (2, 3)

    def test_json_k_range_is_kept(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"config": "single", "k_min": 3, "k_max": 4}))
        out = tmp_path / "c"
        assert main(["condition", "--config", str(cfg_path), "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert (meta["k_min"], meta["k_max"]) == (3, 4)
        assert len(_read_csv(out / "results.csv")) == 4  # header, 2 levels, slope


# a config-II-shaped stack at k = 7 whose P1 system is indefinite at the
# default penalties: CG meets negative curvature and the factor a bad pivot
FOUND_ANGLES = (25.7302, 44.6945)
SITE = re.compile(r" at dof (\d+) of part (\d+) at \((\S+), (\S+)\)$")


@pytest.fixture(scope="module")
def found_stack():
    """Predomains, cut topology and reduced system of the FOUND pair at k = 7."""
    from stackfem import cli

    pres = cli.custom_predomains([{"bounds": b, "angle": a} for b, a in
                                  zip([[0.2, 0.8, 0.3, 0.75], [0.3, 0.5, 0.05, 0.8]], FOUND_ANGLES)])
    params = cli.FormParams.defaults(1)
    topo = cli.build_cut_topology(cli.build_stack(pres, [7] * 3, 1), params.quad_order)
    system = cli.assemble_system(topo, params)
    bc = cli.build_dirichlet(topo, lambda x, y: np.zeros_like(x))
    return pres, topo, cli.apply_dirichlet(system, np.zeros(system.dim), bc, topo)


def _check_site(message: str, topo, free, dof: int):
    """The message ends in the part, part-local dof and coordinates of
    reduced dof `dof`, and names no other dof."""
    local, part, x, y = SITE.search(message).groups()
    local, part = int(local), int(part)
    assert topo.block_offsets()[part] + local == free[dof]
    assert (float(x), float(y)) == tuple(topo.parts[part].space.dof_coords[local])
    assert message.count("dof ") == 1


class TestNotSPDNamesThePart:
    """A NotSPDError from CG in `solve_poisson`, and the factor's in the
    condition study's warning, say where the dof at fault lives."""

    def test_cg_in_solve_poisson(self, found_stack):
        from stackfem import cli
        from stackfem.solver import NotSPDError

        pres, topo, reduced = found_stack
        u, f, _ = cli.poisson_fields()
        with pytest.raises(NotSPDError, match=r"^negative curvature .* of part ") as info:
            cli.solve_poisson(cli.build_stack(pres, [7] * 3, 1), cli.FormParams.defaults(1), f, u)
        _check_site(str(info.value), topo, reduced.free, info.value.dof)

    def test_factor_in_condition_study(self, found_stack, caplog):
        from stackfem import cli
        from stackfem.solver import NotSPDError, extreme_eigs

        pres, topo, reduced = found_stack
        with pytest.raises(NotSPDError) as info:
            extreme_eigs(reduced.matrix)
        with caplog.at_level("WARNING", logger="stackfem.cli"):
            rows, _ = cli.run_condition_study(pres, [7], 1)
        assert np.isnan(rows[0][1])
        (message,) = [r.getMessage() for r in caplog.records]
        assert message.startswith("condition estimation failed at k=7: not positive definite")
        _check_site(message, topo, reduced.free, info.value.dof)


class TestCustomStack:
    def test_every_study_runs_on_a_json_custom_stack(self, tmp_path):
        """`custom` reaches convergence and condition, not only solve, and the
        equal-refinement row at k = 3 is the row `solve --k 3` writes."""
        cfg_path = tmp_path / "custom.json"
        cfg_path.write_text(json.dumps({
            "config": "custom", "parts": [{"bounds": [0.2, 0.6, 0.25, 0.7], "angle": 15.0}],
        }))

        def run(name, *argv):
            out = tmp_path / name
            assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 0
            return _read_csv(out / "results.csv")

        solve = run("solve", "solve", "--k", "3")
        equal = run("equal", "convergence", "--equal", "--k-min", "2", "--k-max", "3")
        perms = run("perms", "convergence", "--k-min", "2", "--k-max", "3")
        cond = run("cond", "condition", "--k-min", "2", "--k-max", "3")
        assert solve[0] == equal[0] == perms[0] and "h1" in solve[0] and "h2" not in solve[0]
        assert [r[0] for r in equal[1:]] == ["custom:k2", "custom:k3"]
        assert equal[2] == solve[1]
        assert [r[0] for r in perms[1:]] == [f"custom:perm{p}:step{s}"
                                             for p in ("01", "10") for s in (0, 1, 2)]
        assert perms[1][1:] == equal[1][1:] and perms[-1][1:] == equal[2][1:]
        assert cond[0] == ["h", "kappa"] and cond[-1][0] == "slope" and len(cond) == 4
        assert all(float(r[1]) > 1.0 for r in cond[1:-1])

    @pytest.mark.parametrize("bounds, why", [
        ([0.2, 0.6, 0.2], "bounds must be [x0, x1, y0, y1]"),
        ([0.2, 1.6, 0.2, 0.6], "part 1 touches or leaves the background boundary"),
    ])
    def test_malformed_part_is_a_usage_error(self, tmp_path, capsys, bounds, why):
        cfg_path = tmp_path / "custom.json"
        cfg_path.write_text(json.dumps({"config": "custom", "parts": [{"bounds": bounds}]}))
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: stackfem solve ")
        assert f"error: parts in {cfg_path}: entry 0: " in err and why in err
        assert not (tmp_path / "run").exists()

    def test_unknown_part_key_is_a_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "custom.json"
        cfg_path.write_text(json.dumps({
            "config": "custom", "parts": [{"bounds": [0.2, 0.6, 0.25, 0.7], "angel": 15.0}],
        }))
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: stackfem solve ")
        assert (f"error: parts in {cfg_path}: entry 0: ValueError: unknown key 'angel'; "
                "accepted keys: angle, bounds") in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["solve", "convergence", "condition"])
    def test_custom_without_parts_is_a_usage_error(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--mm-config", "custom", "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: stackfem {command} ")
        assert "error: --mm-config custom needs a 'parts' list" in err
        assert not (tmp_path / "run").exists()


class TestFullRange:
    @staticmethod
    def _args(**kw):
        """Parsed flags: none given except kw."""
        keys = ("config_file", "config", "k_min", "k_max", "degree", "beta0", "beta1",
                "stab", "seed", "out")
        return argparse.Namespace(**{**dict.fromkeys(keys), "full": False, **kw})

    def test_json_full_equals_flag(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"config": "single", "full": True}))
        from_json = _load_experiment(self._args(config_file=str(cfg_path)))
        from_flag = _load_experiment(self._args(config="single", full=True))
        assert from_json.full and from_flag.full
        assert (from_json.k_min, from_json.k_max) == (from_flag.k_min, from_flag.k_max) == (3, 10)
        assert from_json.resolved() == from_flag.resolved()

    @pytest.mark.parametrize("command", ["convergence", "condition"])
    def test_explicit_k_bounds_win_over_full(self, tmp_path, monkeypatch, command):
        from stackfem import cli

        ran = []  # the k range each study was asked to run
        monkeypatch.setattr(cli, "run_permutation_study",
                            lambda config, predomains, k_min, k_max, *a:
                            ran.append((k_min, k_max)) or [])
        monkeypatch.setattr(cli, "run_condition_study",
                            lambda predomains, ks, *a, **kw:
                            ran.append((ks[0], ks[-1])) or ([], 0.0))
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"k_max": 8, "full": True}))
        cases = [
            (["--k-min", "5", "--k-max", "6", "--full"], (5, 6)),
            (["--k-min", "5", "--full"], (5, 10)),
            (["--full"], (3, 10)),
            (["--config", str(cfg_path)], (3, 8)),
            (["--config", str(cfg_path), "--k-min", "4"], (4, 8)),
        ]
        for n, (flags, want) in enumerate(cases):
            out = tmp_path / f"run{n}"
            assert main([command, "--mm-config", "single", "--out", str(out), *flags]) == 0
            assert ran[-1] == want, flags
            meta = json.loads((out / "meta.json").read_text())
            assert (meta["k_min"], meta["k_max"], meta["full"]) == (*want, True)

    def test_solve_runs_at_an_explicit_k_min_under_full(self, tmp_path):
        for n, (flags, k) in enumerate([(["--k-min", "2", "--k-max", "2", "--full"], 2),
                                        (["--full"], 3)]):
            out = tmp_path / f"run{n}"
            assert main(["solve", "--mm-config", "single", "--out", str(out), *flags]) == 0
            assert json.loads((out / "meta.json").read_text())["k"] == k


class TestBoundaryLayer:
    def test_stack_geometry(self):
        config, eps = boundary_layer_stack(0)
        assert eps == pytest.approx(0.05)
        assert config.nparts == 2
        assert config.parts[1].void is not None
        with pytest.raises(ValueError):
            boundary_layer_stack(9)

    def test_run_k0(self):
        r = run_boundary_layer(0, probe_n=21)
        assert r.solve.report.converged
        assert r.corner_value < 0.01
        # layer halfwidth tracks eps * ln 2 within the coupling error
        assert r.layer_halfwidth == pytest.approx(r.eps * np.log(2.0), rel=0.15)
        inside_hole = np.isnan(r.probe[:, 2]).sum()
        assert inside_hole > 0  # probe grid marks the hole with NaN

    def test_quadratic_elements(self):
        r = run_boundary_layer(0, degree=2, probe_n=11)
        assert r.solve.report.converged
        assert r.layer_halfwidth == pytest.approx(r.eps * np.log(2.0), rel=0.15)

    def test_nonconvergence_aborts_before_any_output(self, tmp_path, monkeypatch, caplog):
        """A CG run that stops short of its tolerance ends the study with
        exit status 1 and an error naming k, the residual and the iteration
        count; no file is written, also when an earlier level succeeded."""
        from stackfem import cli
        from stackfem.solver import SolveReport, cg_solve

        for k_max in (0, 1):
            calls = []

            def stalled_last(A, b, tol=1e-10):
                calls.append(1)
                if len(calls) <= k_max:
                    return cg_solve(A, b, tol=tol)
                return np.zeros_like(b), SolveReport(5, 0.25, False)

            monkeypatch.setattr(cli, "cg_solve", stalled_last)
            out = tmp_path / f"bl{k_max}"
            caplog.clear()
            with caplog.at_level("ERROR", logger="stackfem.cli"):
                rc = main(["boundary-layer", "--k-min", "0", "--k-max", str(k_max),
                           "--out", str(out)])
            assert rc == 1 and len(calls) == k_max + 1
            assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
                ("ERROR", f"boundary layer (k = {k_max}): residual 2.500e-01 after 5 iterations")
            ]
            assert not out.exists()

    def test_command_writes_outputs(self, tmp_path):
        out = tmp_path / "bl"
        rc = main(["boundary-layer", "--k-min", "0", "--k-max", "0", "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out / "results.csv")
        assert rows[0] == ["k", "eps", "layer_halfwidth", "corner_value", "dofs"]
        assert (out / "probe_k0.csv").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert "hexagon" in meta["obstacle"]

    def test_probe_csv_is_what_csv_writer_writes(self, tmp_path, monkeypatch):
        """probe_k0.csv, written in one formatted pass, holds the bytes that
        csv.writer writes for the _g17 rows of the same probe, NaN rows of
        the hole included."""
        from stackfem import cli

        results = []

        def recording(*args, **kwargs):
            results.append(run_boundary_layer(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run_boundary_layer", recording)
        out = tmp_path / "bl"
        assert main(["boundary-layer", "--k-min", "0", "--k-max", "0", "--out", str(out)]) == 0
        probe = results[0].probe
        assert np.isnan(probe[:, 2]).any()
        want = io.StringIO(newline="")
        w = csv.writer(want)
        w.writerow(["x", "y", "u"])
        w.writerows(cli._g17(*point) for point in probe)
        assert (out / "probe_k0.csv").read_bytes() == want.getvalue().encode()

    def test_meta_records_no_unused_setting(self, tmp_path):
        def run(name, *flags):
            out = tmp_path / name
            assert main(["boundary-layer", "--k-min", "0", "--k-max", "0", "--out", str(out),
                         *flags]) == 0
            return (out / "meta.json").read_text(), (out / "probe_k0.csv").read_bytes()

        meta, probe = run("default")
        assert run("flags", "--mm-config", "II", "--seed", "7", "--full") == (meta, probe)
        assert not {"config", "seed", "full", "problem"} & set(json.loads(meta))

    def test_form_flags_reach_the_solve(self, tmp_path):
        def run(name, *flags):
            out = tmp_path / name
            assert main(["boundary-layer", "--k-min", "0", "--k-max", "0", "--out", str(out),
                         *flags]) == 0
            probe = np.loadtxt(out / "probe_k0.csv", delimiter=",", skiprows=1)
            return probe[:, 2], json.loads((out / "meta.json").read_text())

        u_default, _ = run("default")
        u_l2, meta = run("l2", "--stab", "l2", "--beta0", "80")
        assert (meta["stab_variant"], meta["beta0"]) == ("scaled-value-jump", 80.0)
        hole = np.isnan(u_default)
        assert np.array_equal(np.isnan(u_l2), hole)
        assert np.max(np.abs(u_l2[~hole] - u_default[~hole])) > 1e-8
        # what meta.json records is what ran
        params = ExperimentConfig(stab="l2", beta0=80.0).form_params()
        direct = run_boundary_layer(0, params=params)
        assert np.array_equal(direct.probe[:, 2], u_l2, equal_nan=True)


@pytest.mark.parametrize("argv, why", [
    (["condition", "--k-min", "4", "--k-max", "3"], "empty k range: k_min 4 > k_max 3"),
    (["convergence", "--k-min", "3", "--k-max", "2"], "empty k range: k_min 3 > k_max 2"),
    (["boundary-layer", "--k-min", "2", "--k-max", "1"], "empty k range: k_min 2 > k_max 1"),
    (["boundary-layer", "--k-min", "5", "--k-max", "5"],
     "k range 5..5 outside the supported 0..4"),
    (["boundary-layer", "--k-min", "-1", "--k-max", "0"],
     "k range -1..0 outside the supported 0..4"),
    # a level k < 0 would mesh coarser than the unit square
    (["convergence", "--k-min", "-2", "--k-max", "-1", "--equal"],
     "k_min must be at least 0, got -2"),
    (["condition", "--k-min", "-1", "--k-max", "0"], "k_min must be at least 0, got -1"),
    (["solve", "--k", "-1"], "k must be at least 0, got -1"),
    (["solve", "--k-min", "-1"], "k_min must be at least 0, got -1"),
])
def test_bad_k_range_is_a_usage_error(tmp_path, capsys, argv, why):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--mm-config", "single", "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: stackfem {argv[0]} ")
    assert f"error: {why}" in err
    assert not (tmp_path / "run").exists()


def test_solve_runs_one_k_whatever_the_k_range(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--mm-config", "single", "--k", "2", "--k-min", "4", "--k-max", "3",
                 "--out", str(out)]) == 0
    assert json.loads((out / "meta.json").read_text())["k"] == 2
