import json
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import momentkit as mk
from momentkit import io
from momentkit.cli import main, parse_eps, parse_grid, parse_interval
from momentkit.moments import TOL_PSD, TOL_RANK
from conftest import hermite_moments, random_measure


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def delta2_moments(tmp_path):
    mu = mk.DiscreteMatrixMeasure.point_mass(2.0, [[1.0]])
    path = tmp_path / "delta2.json"
    io.save_moments(mk.generate_from_measure(mu, 4), path)
    return str(path)


@pytest.fixture
def gaussian_moments_file(tmp_path):
    path = tmp_path / "gauss.json"
    io.save_moments(mk.MomentSequence([1, 0, 1, 0, 3, 0, 15]), path)
    return str(path)


class TestParsers:
    def test_grid(self):
        zs = parse_grid("0:1:2,1:2:2")
        assert zs == [0 + 1j, 1 + 1j, 0 + 2j, 1 + 2j]
        with pytest.raises(mk.ValidationError):
            parse_grid("nope")

    def test_interval(self):
        assert_allclose(parse_interval("0:1:4"), np.linspace(0, 1, 5))
        assert parse_interval("0:2").size == 9
        with pytest.raises(mk.ValidationError):
            parse_interval("3:1")

    @pytest.mark.parametrize("spec", ["nan:1:2,0.5:1:1", "-1:inf:2,0.5:1:1", "0:1:2,0.5:nan:2"])
    def test_grid_refuses_non_finite_ends(self, spec):
        with pytest.raises(mk.ValidationError, match="bad grid spec"):
            parse_grid(spec)

    @pytest.mark.parametrize("spec", ["-inf:1", "0:inf:4", "nan:1"])
    def test_interval_refuses_non_finite_ends(self, spec):
        with pytest.raises(mk.ValidationError, match="bad interval spec"):
            parse_interval(spec)

    @pytest.mark.parametrize("parse, spec, message", [
        (parse_interval, "a:b:c", "bad interval spec"),
        (parse_interval, "1:2:x", "bad interval spec"),
        (parse_interval, "1:2:3:4", "bad interval spec"),
        (parse_eps, "1e-2,x", "bad epsilon list"),
    ])
    def test_refuses_malformed_spec(self, parse, spec, message):
        with pytest.raises(mk.ValidationError, match=message):
            parse(spec)


# options without which a command does not run at all
REQUIRED = {"evaluate": ["--grid", "0:0:1,2:2:1"], "reconstruct": ["--interval", "1:3"]}


def assert_option_refused(argv, option, value):
    """argv runs, and argparse refuses it (exit 2) once option is added."""
    argv = [*argv, *REQUIRED.get(argv[0], [])]
    assert main(argv) == 0
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, value])
    assert exc.value.code == 2


class TestCheck:
    def test_unsolvable_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        # -1e-6 is indefinite beyond the fixed tolerance: build refuses what
        # check reports unsolvable, and no option loosens either
        for s2 in (-1, -1e-6):
            io.save_moments(mk.MomentSequence([1, 0, s2]), path)
            code, out = run_cli(capsys, "check", "--moments", str(path))
            assert code == 2
            assert json.loads(out)["solvable"] is False
            code, out = run_cli(capsys, "build", "--moments", str(path))
            assert code == 2
            assert json.loads(out)["kind"] == "SolvabilityError"

    def test_solvable_exits_0(self, delta2_moments, capsys):
        code, out = run_cli(capsys, "check", "--moments", delta2_moments)
        assert code == 0
        report = json.loads(out)
        assert report["solvable"] is True and report["rank"] == 1

    def test_tol_psd_sets_tolerance(self, delta2_moments, capsys):
        code, out = run_cli(
            capsys, "check", "--moments", delta2_moments, "--tol-psd", "1e-3"
        )
        assert code == 0
        assert json.loads(out)["tolerance_used"] == 1e-3

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_tol_psd_must_be_finite_and_non_negative(self, tmp_path, value, capsys):
        # inf would report the indefinite [1, 0, -1e-6] solvable, which build refuses
        path = tmp_path / "indefinite.json"
        io.save_moments(mk.MomentSequence([1, 0, -1e-6]), path)
        code, out = run_cli(capsys, "check", "--moments", str(path), f"--tol-psd={value}")
        assert code == 2
        report = json.loads(out)
        assert report["kind"] == "ValidationError" and "tol_psd" in report["error"]

    # --tol-psd is an option of check only; the rank and Hermiticity
    # tolerances are fixed and no command takes an option for them
    @pytest.mark.parametrize("command, option, value", [
        *(pytest.param(c, "--tol-psd", "1e-3", id=c)
          for c in ("build", "evaluate", "reconstruct", "verify")),
        *(pytest.param(c, option, value, id=f"{c}{option}")
          for c in ("check", "build", "evaluate", "reconstruct", "verify")
          for option, value in (("--tol-rank", "1e-5"), ("--tol-herm", "1"))),
    ])
    def test_tol_psd_only_on_check(self, delta2_moments, command, option, value, capsys):
        assert_option_refused([command, "--moments", delta2_moments], option, value)

    # verify checks the Gram identity exactly and takes no seed either: no
    # command takes --seed (generate's refusal is tested below)
    @pytest.mark.parametrize("command", ["check", "build", "evaluate", "reconstruct", "verify"])
    def test_seed_only_on_verify(self, delta2_moments, command, capsys):
        assert_option_refused([command, "--moments", delta2_moments], "--seed", "1")

    @pytest.mark.parametrize("option", ["--tol-rank", "--tol-herm", "--seed"])
    def test_generate_takes_measure_order_out(self, tmp_path, option, capsys):
        mu = tmp_path / "mu.json"
        io.save_measure(mk.DiscreteMatrixMeasure.point_mass(2.0, [[1.0]]), mu)
        assert_option_refused(["generate", "--measure", str(mu), "--order", "4"], option, "1")

    def test_missing_file(self, capsys):
        code, out = run_cli(capsys, "check", "--moments", "/nonexistent.json")
        assert code == 2
        assert "error" in json.loads(out)


class TestBuild:
    def test_reports_shape(self, gaussian_moments_file, capsys):
        code, out = run_cli(capsys, "build", "--moments", gaussian_moments_file)
        assert code == 0
        report = json.loads(out)
        assert report["rank"] == 4
        assert report["defect_dims"] == [1, 1]
        assert report["determinate"] is False

    def test_dump_matrices_parse(self, delta2_moments, capsys):
        code, out = run_cli(capsys, "build", "--moments", delta2_moments, "--dump")
        assert code == 0
        dump = json.loads(out)["dump"]
        action = io.decode_matrix(dump["shift_action"])
        assert_allclose(action, [[2.0]], atol=1e-12)
        assert io.decode_matrix(dump["coord_map"]).shape == (1, 3)

    def test_non_finite_moment_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        moments = [[[[1.0, 0.0]]], [[[0.0, 0.0]]], [[[float("nan"), 0.0]]]]
        path.write_text(json.dumps({"dim": 1, "order": 2, "moments": moments}))
        assert "NaN" in path.read_text()
        code, out = run_cli(capsys, "build", "--moments", str(path))
        assert code == 2
        assert "moment S_2 has a non-finite entry" in json.loads(out)["error"]

    def test_infinite_imaginary_part_exits_2(self, tmp_path, capsys):
        # decoding must not multiply inf by 1j: the RuntimeWarning filter
        # of the test configuration turns such a warning into a failure
        path = tmp_path / "inf.json"
        moments = [[[[1.0, 0.0]]], [[[0.0, float("inf")]]], [[[1.0, 0.0]]]]
        path.write_text(json.dumps({"dim": 1, "order": 2, "moments": moments}))
        assert "[0.0, Infinity]" in path.read_text()
        code, out = run_cli(capsys, "build", "--moments", str(path))
        assert code == 2
        assert "moment S_1 has a non-finite entry" in json.loads(out)["error"]

    def test_shift_inconsistent_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inconsistent.json"
        io.save_moments(mk.MomentSequence([1, 1, 1, 1, 2]), path)
        code, out = run_cli(capsys, "build", "--moments", str(path))
        assert code == 2
        assert "shift-consistent" in json.loads(out)["error"]


class TestGenerateVerify:
    def test_roundtrip_passes(self, tmp_path, capsys):
        measure_path = tmp_path / "measure.json"
        io.save_measure(mk.DiscreteMatrixMeasure.point_mass(2.0, [[1.0]]), measure_path)
        moments_path = tmp_path / "moments.json"
        code, _ = run_cli(
            capsys,
            "generate", "--measure", str(measure_path),
            "--order", "4", "--out", str(moments_path),
        )
        assert code == 0
        code, out = run_cli(capsys, "verify", "--moments", str(moments_path))
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["branch"] == "determinate"
        # every moment is compared, so every moment is reported
        assert len(report["moments_recovered"]) == len(report["moments_in"]) == 5
        assert report["max_abs_error"] <= 1e-8
        assert report["herglotz_min_eig"] >= -1e-8

    def test_verify_indeterminate_branch(self, gaussian_moments_file, capsys):
        code, out = run_cli(
            capsys,
            "verify", "--moments", gaussian_moments_file,
            "--phi", "unitary:1.2",
        )
        assert code == 0
        report = json.loads(out)
        assert report["branch"] == "asymptotic"
        assert report["passed"] is True
        # only S_0..S_2 carry the bound, so only they are reported
        assert len(report["moments_recovered"]) == 3

    def test_verify_phi_file(self, gaussian_moments_file, tmp_path, capsys):
        # the JSON-file form of --phi names the same parameter as unitary:1.2
        phi = tmp_path / "phi.json"
        io.dump_json({"kind": "matrix", "matrix": io.encode_matrix([[np.exp(1.2j)]])}, phi)
        argv = ["verify", "--moments", gaussian_moments_file, "--phi"]
        code, out = run_cli(capsys, *argv, str(phi))
        assert code == 0 and json.loads(out)["passed"] is True
        assert run_cli(capsys, *argv, "unitary:1.2") == (0, out)


def gram_fixture(name):
    """Moments of the Gaussian, d2 and D4 fixtures, and of a Hankel matrix cut below rank."""
    if name == "gauss":
        return mk.MomentSequence(hermite_moments(6))
    if name == "near_cut":
        # Gamma_2 has the eigenvalue ~1e-10, half the rank cut 1e-10 ||Gamma_2||:
        # Q*Q - Gamma_2 is that eigenpair, far above rounding
        return mk.MomentSequence([1, 0, 1, 0, 1 + 2e-10])
    rng = np.random.default_rng(11)
    d, nodes, order = {"d2": (2, 8, 8), "d4": (4, 40, 12)}[name]
    return mk.generate_from_measure(random_measure(rng, d, nodes), order)


class TestGramIdentity:
    """verify's gram_identity_max_residual is ||Q*Q - Gamma_n||_2 / max(1, ||Gamma_n||_2)."""

    @staticmethod
    def bound(gamma):
        # Q*Q - Gamma_n is minus the eigenpairs below the rank cut, each with
        # -TOL_PSD ||Gamma_n|| <= lambda <= TOL_RANK ||Gamma_n||; eigh and the
        # product add rounding of order (ambient dimension) u ||Gamma_n||
        scale = np.linalg.norm(gamma, 2)
        rounding = 8 * gamma.shape[0] * np.finfo(float).eps
        return (max(TOL_RANK, TOL_PSD) + rounding) * scale / max(1.0, scale)

    @pytest.mark.parametrize("name", ["gauss", "d2", "d4", "near_cut"])
    def test_exact_residual_within_bound(self, tmp_path, name, capsys):
        path = tmp_path / "m.json"
        io.save_moments(gram_fixture(name), path)
        _, out = run_cli(capsys, "build", "--moments", str(path), "--dump")
        q = io.decode_matrix(json.loads(out)["dump"]["coord_map"])
        gamma = mk.build_hankel(io.load_moments(path)).matrix
        expected = np.linalg.norm(q.conj().T @ q - gamma, 2) / max(
            1.0, np.linalg.norm(gamma, 2))
        _, out = run_cli(capsys, "verify", "--moments", str(path))
        got = json.loads(out)["gram_identity_max_residual"]
        assert got == pytest.approx(expected, rel=1e-6, abs=8 * np.finfo(float).eps)
        assert got <= self.bound(gamma)
        if name == "near_cut":
            assert q.shape == (2, 3) and got >= 0.25 * max(TOL_RANK, TOL_PSD)
        # the value depends on no seed: a second run prints the same bytes
        assert run_cli(capsys, "verify", "--moments", str(path))[1] == out

    def test_scaled_row_of_q_fails_the_bound(self, delta2_moments, capsys, monkeypatch):
        import dataclasses

        import momentkit.pipeline as pipeline

        # on the rank-one space of a point mass the row is all of Q: the
        # model stays consistent, as for the point mass of weight (1 + 1e-6)^2
        def scaled(m, construct_space=pipeline.construct_space):
            g = construct_space(m)
            q = g.coord_map.copy()
            q[-1] *= 1 + 1e-6
            return dataclasses.replace(g, coord_map=q)

        gamma = mk.build_hankel(io.load_moments(delta2_moments)).matrix
        monkeypatch.setattr(pipeline, "construct_space", scaled)
        _, out = run_cli(capsys, "verify", "--moments", delta2_moments)
        got = json.loads(out)["gram_identity_max_residual"]
        assert got >= 1e-6 > 1e3 * self.bound(gamma)


class TestEvaluate:
    def test_single_point_matches_library(self, delta2_moments, capsys):
        code, out = run_cli(
            capsys,
            "evaluate", "--moments", delta2_moments,
            "--phi", "zero", "--grid", "0:0:1,2:2:1",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "z_re,z_im,R_00_re,R_00_im"
        cells = [float(c) for c in row.split(",")]
        expected = 1.0 / (2.0 - 2j)
        assert cells[2] == pytest.approx(expected.real, abs=1e-12)
        assert cells[3] == pytest.approx(expected.imag, abs=1e-12)

    def test_deterministic_output(self, gaussian_moments_file, tmp_path, capsys):
        args = (
            "evaluate", "--moments", gaussian_moments_file,
            "--phi", "unitary:0.4", "--grid=-1:1:3,0.5:2:2",
        )
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_output_file_round_trips(self, delta2_moments, tmp_path, capsys):
        csv_path = tmp_path / "grid.csv"
        code, _ = run_cli(
            capsys,
            "evaluate", "--moments", delta2_moments,
            "--phi", "zero", "--grid=-1:1:3,1.5:2.5:2",
            "--out", str(csv_path),
        )
        assert code == 0
        rows = io.read_transform_csv(csv_path)
        assert len(rows) == 6
        for z, r in rows:
            assert r[0, 0] == pytest.approx(1.0 / (2.0 - z), abs=1e-10)

    def test_bad_phi_spec(self, gaussian_moments_file, capsys):
        code, out = run_cli(
            capsys,
            "evaluate", "--moments", gaussian_moments_file,
            "--phi", "unitary:0.0,oops", "--grid", "0:0:1,1:1:1",
        )
        assert code == 2


class TestOutputFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--phi", "unitary:0.4", "--grid=-1:1:3,0.5:2:2"],
            ["check"],
            ["build", "--dump"],
            ["verify"],
            ["reconstruct", "--interval", "1:3:2", "--eps", "0.01,0.005", "--n-quad", "201"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_stdout_equals_out_file(self, delta2_moments, tmp_path, capsys, argv):
        out_path = tmp_path / "out.txt"
        code = main([*argv, "--moments", delta2_moments, "--out", str(out_path)])
        assert code == 0
        assert capsys.readouterr().out.encode("utf-8") == out_path.read_bytes()

    def test_generate_stdout_equals_out_file(self, tmp_path, capsys):
        measure = tmp_path / "mu.json"
        io.save_measure(mk.DiscreteMatrixMeasure([-1.0, 1.0], [[[0.5]], [[0.5]]]), measure)
        out_path = tmp_path / "m.json"
        assert main(["generate", "--measure", str(measure), "--order", "4",
                     "--out", str(out_path)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == out_path.read_bytes()

    def test_evaluate_rows_are_the_evaluator_values_in_grid_order(
        self, gaussian_moments_file, capsys
    ):
        grid = "-1:1:3,0.5:2:2"
        code, out = run_cli(
            capsys,
            "evaluate", "--moments", gaussian_moments_file,
            "--phi", "unitary:0.4", f"--grid={grid}",
        )
        assert code == 0
        model = mk.build_model(io.load_moments(gaussian_moments_file))
        evaluator = model.evaluator(mk.SchurParameter.scalar_unitary(0.4, model.defect_dims))
        zs = np.array(parse_grid(grid))
        assert out == io.write_transform_csv(zs, evaluator(zs))


class TestReconstruct:
    def test_point_mass_cells(self, delta2_moments, capsys):
        code, out = run_cli(
            capsys,
            "reconstruct", "--moments", delta2_moments,
            "--interval", "1:3:4", "--eps", "0.01,0.005", "--n-quad", "401",
        )
        assert code == 0
        report = json.loads(out)
        assert report["grid"] == [1.0, 1.5, 2.0, 2.5, 3.0]
        total = io.decode_matrix(report["total_mass"])
        assert abs(total[0, 0] - 1.0) <= 2e-2
        increments = [io.decode_matrix(w) for w in report["increments"]]
        assert len(increments) == 4

    @pytest.mark.parametrize("n_quad", ["0", "-5"])
    def test_quadrature_density_below_one_exits_2(self, delta2_moments, n_quad, capsys):
        argv = ["reconstruct", "--moments", delta2_moments, "--interval", "1:3"]
        code, out = run_cli(capsys, *argv, f"--n-quad={n_quad}")
        assert code == 2
        report = json.loads(out)
        assert report["kind"] == "ValidationError" and "n_quad" in report["error"]
        # the option is an integer: argparse refuses nan with exit 2 as well
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--n-quad=nan"])
        assert exc.value.code == 2


class TestErrorExits:
    def test_excluded_band_exit_2(self, gaussian_moments_file, capsys):
        code, out = run_cli(
            capsys,
            "evaluate", "--moments", gaussian_moments_file,
            "--phi", "zero", "--grid", "0:0:1,1:1:1",
        )
        assert code == 2
        assert json.loads(out)["kind"] == "DomainError"

    @pytest.mark.parametrize("command, grid", [
        ("evaluate", "--grid=nan:1:2,0.5:1:1"),
        ("verify", "--grid=-1:inf:2,0.5:1:1"),
    ])
    def test_non_finite_grid_exit_2(self, gaussian_moments_file, capsys, command, grid):
        code, out = run_cli(capsys, command, "--moments", gaussian_moments_file, grid)
        assert code == 2
        assert json.loads(out) == {"error": f"bad grid spec {grid[7:]!r}",
                                   "kind": "ValidationError"}

    def test_conditioning_exit_3(self, delta2_moments, capsys, monkeypatch):
        import momentkit.cli as cli

        def boom(args):
            raise mk.ConditioningError("synthetic failure", 1e15)

        monkeypatch.setattr(cli, "cmd_check", boom)
        code, out = run_cli(capsys, "check", "--moments", delta2_moments)
        assert code == 3
        assert json.loads(out)["kind"] == "ConditioningError"


def test_import_needs_no_scipy():
    """The package and its CLI import on numpy alone, in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, momentkit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
