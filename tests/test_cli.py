import argparse
import contextlib
import io as io_module
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import momentkit as mk
from momentkit import _linalg, io
from momentkit.cli import build_parser, main, parse_eps, parse_grid, parse_interval
from momentkit.gramspace import build_shift, construct_space, gram_identity
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
        assert zs.dtype == complex and zs.tolist() == [0 + 1j, 1 + 1j, 0 + 2j, 1 + 2j]
        with pytest.raises(mk.ValidationError):
            parse_grid("nope")

    def test_interval(self):
        assert_allclose(parse_interval("0:1:4"), np.linspace(0, 1, 5))
        assert parse_interval("0:2").size == 9
        with pytest.raises(mk.ValidationError):
            parse_interval("3:1")

    @pytest.mark.parametrize("spec", [
        "-0:1:3,0.5:1:2", "-1:-0:2,0.25:2:3", "-0:-0:1,1:1:1", "0:1:2,1:2:2",
        "-3.2:2.9:50,0.04:3.1:20", "1e-300:1e300:4,5e-324:1e308:3",
    ])
    def test_grid_array_is_the_list_grid(self, spec):
        # the grid as a list of Python complex, built point by point
        (re0, re1, nre), (im0, im1, nim) = (part.split(":") for part in spec.split(","))
        res = np.linspace(float(re0), float(re1), int(nre))
        ims = np.linspace(float(im0), float(im1), int(nim))
        want = np.array([complex(re, im) for im in ims for re in res])
        got = parse_grid(spec)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", ["nan:1:2,0.5:1:1", "-1:inf:2,0.5:1:1", "0:1:2,0.5:nan:2"])
    def test_grid_refuses_non_finite_ends(self, spec):
        with pytest.raises(mk.ValidationError, match="bad grid spec"):
            parse_grid(spec)

    def test_point_limit(self, monkeypatch):
        # MAX_POINTS grid points in all, and MAX_POINTS // 3 cells (three points or more each)
        monkeypatch.setattr(_linalg, "MAX_POINTS", 120)
        assert parse_grid("0:1:12,1:2:10").size == 120
        assert parse_interval("0:1:40").size == 41
        for parse, spec, message in ((parse_grid, "0:1:11,1:2:11", "121 .* a 11 x 11 grid"),
                                     (parse_grid, "0:1:121,1:2:1", "121 .* a 121 x 1 grid"),
                                     (parse_grid, "0:1:0,1:2:5", "grid must be non-empty"),
                                     (parse_interval, "0:1:41", "123 .* 41 cells")):
            with pytest.raises(mk.ValidationError, match=message):
                parse(spec)
        with pytest.raises(mk.ValidationError, match="bad grid spec"):
            parse_grid("0:1:-11,1:2:-11")  # negative counts, whose product is not
        # a zero count passes the product's check: it is refused before the
        # other axis is allocated
        sizes = []
        linspace = np.linspace
        monkeypatch.setattr(np, "linspace", lambda *args: sizes.append(args[2]) or linspace(*args))
        for spec in ("0:1:1000000,1:2:0", "0:1:0,1:2:1000000"):
            with pytest.raises(mk.ValidationError, match="grid must be non-empty"):
                parse_grid(spec)
        assert max(sizes, default=0) <= 120

    @pytest.mark.parametrize("spec", ["-inf:1", "0:inf:4", "nan:1", "-1e308:1e308"])
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


# S_0 = 1e308 [[1, 1], [1, 1]], S_1 = 0, S_2 = E: Gamma_n has rank 3, but its
# largest eigenvalue, 2e308, is past the float max
HUGE_S0_MOMENTS = ('{"dim": 2, "order": 2, "moments": ['
                   '[[[1e308, 0.0], [1e308, 0.0]], [[1e308, 0.0], [1e308, 0.0]]], '
                   '[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], '
                   '[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}')


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

    # finite moments past half the float max, each a refusal with exit 2, not
    # a traceback from eigh.  S_2 = -1e308 makes Gamma_n indefinite.  S_0 =
    # 1e308 [[1, 1], [1, 1]] gives Gamma_n an eigenvalue past the float max,
    # which leaves its PSD and rank verdicts undecided: a ValidationError.
    # The Hermiticity gate takes its norms at unit scale, so nothing overflows
    @pytest.mark.parametrize("command, huge", [
        *(pytest.param(c, False, id=c) for c in ("check", "build", "verify")),
        *(pytest.param(c, True, id=f"{c}-huge") for c in ("check", "build", "verify")),
    ])
    def test_moment_near_the_float_max_refused(self, tmp_path, command, huge, capsys):
        path = tmp_path / "big.json"
        if huge:
            path.write_text(HUGE_S0_MOMENTS)
        else:
            path.write_text('{"dim": 1, "order": 4, "moments": [[[[1.0, 0.0]]], [[[0.0, 0.0]]], '
                            '[[[-1e308, 0.0]]], [[[0.0, 0.0]]], [[[3.0, 0.0]]]]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, command, "--moments", str(path))
        assert code == 2
        if huge:
            assert json.loads(out)["kind"] == "ValidationError"
            assert "non-finite eigenvalue" in json.loads(out)["error"]
        elif command == "check":
            assert json.loads(out)["solvable"] is False
        else:
            assert json.loads(out)["kind"] == "SolvabilityError"

    def test_solvable_exits_0(self, delta2_moments, capsys):
        code, out = run_cli(capsys, "check", "--moments", delta2_moments)
        assert code == 0
        report = json.loads(out)
        assert report["solvable"] is True and report["rank"] == 1

    # the PSD, rank and Hermiticity tolerances are fixed and no command
    # takes an option for them (generate's refusal is tested below)
    @pytest.mark.parametrize("command, option, value", [
        *(pytest.param(c, "--tol-psd", "1e-3", id=c)
          for c in ("check", "build", "evaluate", "reconstruct", "verify")),
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

    @pytest.mark.parametrize("option", ["--tol-psd", "--tol-rank", "--tol-herm", "--seed"])
    def test_generate_takes_measure_order_out(self, tmp_path, option, capsys):
        mu = tmp_path / "mu.json"
        io.save_measure(mk.DiscreteMatrixMeasure.point_mass(2.0, [[1.0]]), mu)
        assert_option_refused(["generate", "--measure", str(mu), "--order", "4"], option, "1")

    def test_missing_file(self, capsys):
        code, out = run_cli(capsys, "check", "--moments", "/nonexistent.json")
        assert code == 2
        assert "error" in json.loads(out)

    # a malformed file exits 2 with a JSON error, never 1 with a traceback
    @pytest.mark.parametrize("command, option, content", [
        ("check", "--moments", b'{"dim": 1, "order": 2, "moments": 5}'),
        ("check", "--moments", b'{"dim": 1, "order": 2, "moments": null}'),
        ("check", "--moments", b'{"dim": 1, "order": 2, "moments": "\xe9"}'),  # not UTF-8
        # nested past the parser's recursion limit
        pytest.param("check", "--moments", b"[" * 100000, id="check---moments-deep"),
        ("generate", "--measure", b'{"dim": 1, "nodes": [0.0], "weights": 3}'),
        ("generate", "--measure", b'{"dim": 1, "nodes": "ab", "weights": [[[[1.0, 0.0]]]]}'),
        ("verify", "--phi", b'{"kind": "unitary", "theta": "x"}'),
        ("verify", "--phi", b'{"kind": "unitary", "theta": null}'),
        # a theta that is not a JSON number, a dim or order that is not a JSON integer
        ("verify", "--phi", b'{"kind": "unitary", "theta": "1.2"}'),
        ("verify", "--phi", b'{"kind": "unitary", "theta": true}'),
        ("check", "--moments",
         b'{"dim": true, "order": 2.0, "moments": [[[[1.0, 0.0]]], [[[0.0, 0.0]]], [[[1.0, 0.0]]]]}'),
        ("check", "--moments",
         b'{"dim": 1, "order": 2.0, "moments": [[[[1.0, 0.0]]], [[[0.0, 0.0]]], [[[1.0, 0.0]]]]}'),
        ("generate", "--measure", b'{"dim": true, "nodes": [0.0], "weights": [[[[1.0, 0.0]]]]}'),
        pytest.param("check", "--moments", b'{"dim": 1, "order": 2, "moments": [[[[1'
                     + b"0" * 400 + b', 0.0]]], [[[0.0, 0.0]]], [[[1.0, 0.0]]]]}',
                     id="check---moments-integer-past-float-range"),
        pytest.param("generate", "--measure", b'{"dim": 1, "nodes": [1' + b"0" * 400
                     + b'], "weights": [[[[1.0, 0.0]]]]}',
                     id="generate---measure-node-past-float-range"),
        pytest.param("verify", "--phi", b'{"kind": "unitary", "theta": 1' + b"0" * 400 + b"}",
                     id="verify---phi-theta-past-float-range"),
        # strings and booleans are not JSON numbers, though numpy converts them
        pytest.param("check", "--moments", b'{"dim": 1, "order": 2, "moments": [[[["1.0", '
                     b'"0.0"]]], [[[false, 0.0]]], [[[true, 0.0]]]]}',
                     id="check---moments-string-and-boolean-entries"),
        pytest.param("generate", "--measure", b'{"dim": 1, "nodes": ["0.5"], '
                     b'"weights": [[[[1.0, 0.0]]]]}', id="generate---measure-string-node"),
        pytest.param("generate", "--measure", b'{"dim": 1, "nodes": [false, true], '
                     b'"weights": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]}',
                     id="generate---measure-boolean-nodes"),
    ])
    def test_malformed_file_exits_2(self, tmp_path, delta2_moments, command, option,
                                    content, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        argv = {"check": [], "generate": ["--order", "4"],
                "verify": ["--moments", delta2_moments]}[command]
        code, out = run_cli(capsys, command, *argv, option, str(path))
        assert code == 2
        assert json.loads(out)["kind"] == "ValidationError"


COMMAND_NAMES = ["generate", "check", "build", "evaluate", "reconstruct", "verify"]
# the options each command cannot run without; the files need not exist for argparse
REQUIRED_OPTIONS = {
    "generate": ["--measure", "mu.json", "--order", "2"],
    "check": ["--moments", "m.json"],
    "build": ["--moments", "m.json"],
    "evaluate": ["--moments", "m.json", "--grid", "0:1:2,1:2:2"],
    "reconstruct": ["--moments", "m.json", "--interval", "0:1"],
    "verify": ["--moments", "m.json"],
}
PARSER_CASES = [[], ["-h"], ["bogus"], ["--out", "x"]] + [
    argv
    for c in COMMAND_NAMES
    for argv in ([c, "-h"], [c], [c, "--bogus", "1"], [c, *REQUIRED_OPTIONS[c], "--bogus", "1"])
]


def parser_exit(capsys, parse, argv):
    """(exit code, stdout, stderr) of an argv that argparse ends with SystemExit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


class TestParserContract:
    """main builds the parser of its command alone and reads the same as the full one."""

    @pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "none")
    def test_same_text_and_exit_as_the_full_parser(self, argv, capsys):
        want = parser_exit(capsys, build_parser().parse_args, argv)
        assert parser_exit(capsys, main, argv) == want

    def test_full_usage_lists_every_command(self, capsys):
        code, _, err = parser_exit(capsys, main, ["bogus"])
        assert code == 2
        assert err.startswith("usage: momentkit [-h] {" + ",".join(COMMAND_NAMES) + "} ...\n")
        assert "argument command: invalid choice: 'bogus'" in err

    @pytest.mark.parametrize("command", COMMAND_NAMES)
    def test_a_command_builds_one_subparser(self, command, delta2_moments, tmp_path,
                                            monkeypatch, capsys):
        added = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            added.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        parser_exit(capsys, main, [command, "-h"])
        assert added == [command]
        measure = tmp_path / "mu.json"
        io.save_measure(mk.DiscreteMatrixMeasure.point_mass(2.0, [[1.0]]), measure)
        argv = {"generate": ["--measure", str(measure), "--order", "2"],
                "evaluate": ["--moments", delta2_moments, "--grid", "0:1:2,2:3:2"],
                "reconstruct": ["--moments", delta2_moments, "--interval", "1:3:2"],
                }.get(command, ["--moments", delta2_moments])
        del added[:]
        assert main([command, *argv]) == 0
        assert added == [command]
        build_parser()
        assert added == [command, *COMMAND_NAMES]


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

    @pytest.mark.parametrize("fixture, rank", [("gaussian_model", 4), ("delta2_model", 1)])
    def test_domain_dim_is_rank_minus_defect(self, fixture, rank, request, tmp_path, capsys):
        # build reports the Cayley data's M_i dimension, which equals the shift domain's
        model = request.getfixturevalue(fixture)
        io.save_moments(model.moments, tmp_path / "m.json")
        code, out = run_cli(capsys, "build", "--moments", str(tmp_path / "m.json"))
        report = json.loads(out)
        assert code == 0 and report["rank"] == rank
        assert report["domain_dim"] == rank - report["defect_dims"][0]
        assert report["domain_dim"] == build_shift(model.space)[1].shape[1]

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

    def test_generate_weight_near_the_float_max(self, tmp_path, capsys):
        # S_0 is the weight itself, finite; the weight's gates take their
        # norms at unit scale, so nothing overflows
        path = tmp_path / "big.json"
        path.write_text('{"dim": 1, "nodes": [0.5], "weights": [[[[1e308, 0.0]]]]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, "generate", "--measure", str(path), "--order", "2")
        assert code == 0
        assert json.loads(out)["moments"][0] == [[[1e308, 0.0]]]

    @pytest.mark.parametrize("measure", [
        # a weight that is not Hermitian, past the scale where its norm overflows
        '{"dim": 2, "nodes": [0.5], "weights": [[[[1e200, 0.0], [1e200, 0.0]], '
        '[[-1e200, 0.0], [1e200, 0.0]]]]}',
        # a node whose fourth power is past the float max
        '{"dim": 1, "nodes": [1e200], "weights": [[[[1.0, 0.0]]]]}',
    ], ids=["skew-weight", "node-power"])
    def test_generate_refuses_past_the_float_range(self, tmp_path, capsys, measure):
        path = tmp_path / "mu.json"
        path.write_text(measure)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, "generate", "--measure", str(path), "--order", "4")
        assert code == 2
        assert json.loads(out)["kind"] == "ValidationError"

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
    def bound(m):
        return gram_identity(construct_space(m))[1]

    @pytest.mark.parametrize("name", ["gauss", "d2", "d4", "near_cut"])
    def test_exact_residual_within_bound(self, tmp_path, name, capsys):
        path = tmp_path / "m.json"
        io.save_moments(gram_fixture(name), path)
        _, out = run_cli(capsys, "build", "--moments", str(path), "--dump")
        q = io.decode_matrix(json.loads(out)["dump"]["coord_map"])
        m = io.load_moments(path)
        gamma = m.gram
        expected = np.linalg.norm(q.conj().T @ q - gamma, 2) / max(
            1.0, np.linalg.norm(gamma, 2))
        code, out = run_cli(capsys, "verify", "--moments", str(path))
        report = json.loads(out)
        got = report["gram_identity_max_residual"]
        assert got == pytest.approx(expected, rel=1e-6, abs=8 * np.finfo(float).eps)
        # max(TOL_RANK, TOL_PSD) plus rounding of order (ambient dimension) u
        assert self.bound(m) == pytest.approx(
            (max(TOL_RANK, TOL_PSD) + 8 * gamma.shape[0] * np.finfo(float).eps)
            * np.linalg.norm(gamma, 2) / max(1.0, np.linalg.norm(gamma, 2)), rel=1e-12)
        assert got <= self.bound(m)
        assert report["passed"] is True and code == 0
        if name == "near_cut":
            assert q.shape == (2, 3) and got >= 0.25 * max(TOL_RANK, TOL_PSD)
        # the value depends on no seed: a second run prints the same bytes
        assert run_cli(capsys, "verify", "--moments", str(path))[1] == out

    @staticmethod
    def scale_q(monkeypatch, rows):
        import dataclasses

        import momentkit.pipeline as pipeline

        def scaled(m, construct_space=pipeline.construct_space):
            g = construct_space(m)
            q = g.coord_map.copy()
            q[rows] *= 1 + 1e-6
            return dataclasses.replace(g, coord_map=q)

        monkeypatch.setattr(pipeline, "construct_space", scaled)

    def test_scaled_row_of_q_fails_the_bound(self, delta2_moments, capsys, monkeypatch):
        # on the rank-one space of a point mass the row is all of Q: the
        # model stays consistent, as for the point mass of weight (1 + 1e-6)^2
        bound = self.bound(io.load_moments(delta2_moments))
        self.scale_q(monkeypatch, -1)
        code, out = run_cli(capsys, "verify", "--moments", delta2_moments)
        report = json.loads(out)
        assert report["gram_identity_max_residual"] >= 1e-6 > 1e3 * bound
        assert report["passed"] is False and code == 2

    def test_scaled_q_fails_verify_alone(self, gaussian_moments_file, capsys, monkeypatch):
        # all of Q scaled: the model of the Gaussian's moments times (1 + 1e-6)^2,
        # whose S_0..S_2 pass the asymptotic branch's bound 1e-3
        bound = self.bound(io.load_moments(gaussian_moments_file))
        self.scale_q(monkeypatch, slice(None))
        code, out = run_cli(capsys, "verify", "--moments", gaussian_moments_file,
                            "--phi", "unitary:1.2")
        report = json.loads(out)
        assert report["gram_identity_max_residual"] >= 1e-6 > 1e3 * bound
        assert report["max_abs_error"] <= report["moment_error_bound"]
        assert report["herglotz_min_eig"] >= 0
        assert report["passed"] is False and code == 2


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
    def test_grid_through_i_exit_0(self, gaussian_moments_file, capsys, tmp_path):
        # no band around i: the grid's middle point is exactly 0+1j, and its
        # row is the evaluator's value there, finite as the reader requires
        grid = "-1:1:3,0.5:1.5:3"
        out_file = tmp_path / "ti.csv"
        code, out = run_cli(capsys, "evaluate", "--moments", gaussian_moments_file,
                            f"--grid={grid}", "--out", str(out_file))
        assert code == 0 and out == out_file.read_text(encoding="utf-8")
        rows = io.read_transform_csv(out_file)
        assert rows[4][0] == 1j
        ev = mk.build_model(io.load_moments(gaussian_moments_file)).evaluator()
        assert_allclose(np.array([r for _, r in rows]), ev(parse_grid(grid)), rtol=0, atol=0)

    @pytest.mark.parametrize("command, grid", [
        ("evaluate", "--grid=nan:1:2,0.5:1:1"),
    ])
    def test_non_finite_grid_exit_2(self, gaussian_moments_file, capsys, command, grid):
        code, out = run_cli(capsys, command, "--moments", gaussian_moments_file, grid)
        assert code == 2
        assert json.loads(out) == {"error": f"bad grid spec {grid[7:]!r}",
                                   "kind": "ValidationError"}

    def test_verify_takes_no_grid(self, delta2_moments, capsys):
        # verify scans the fixed VERIFY_GRID; --grid is refused by the parser
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--moments", delta2_moments, "--grid=-1:1:3,0.5:1:2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid=-1:1:3,0.5:1:2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        # 2 * 10^12 quadrature nodes per line; 10^8 cells; 10^10 grid points
        (["reconstruct", "--interval=-1e9:1e9:2"],
         "8004000000004 transform points for 4 lines on [-1000000000.0, 0.0]; at most 4194304"),
        (["reconstruct", "--interval=-1:1:100000000"],
         "300000000 transform points for 100000000 cells of three or more; at most 4194304"),
        (["evaluate", "--grid=0:1:100000,1:2:100000"],
         "10000000000 transform points for a 100000 x 100000 grid; at most 4194304"),
        (["evaluate", "--grid=0:1:2049,1:2:2049"],
         "4198401 transform points for a 2049 x 2049 grid; at most 4194304"),
    ])
    def test_oversized_exit_2_before_allocating(self, delta2_moments, capsys, argv, message):
        tracemalloc.start()
        try:
            code, out = run_cli(capsys, argv[0], "--moments", delta2_moments, *argv[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 2**20
        report = json.loads(out)
        assert report["kind"] == "ValidationError" and message in report["error"]

    def test_conditioning_exit_3(self, delta2_moments, capsys, monkeypatch):
        import momentkit.cli as cli

        def boom(args):
            raise mk.ConditioningError("synthetic failure", 1e15)

        monkeypatch.setattr(cli, "cmd_check", boom)
        code, out = run_cli(capsys, "check", "--moments", delta2_moments)
        assert code == 3
        assert json.loads(out)["kind"] == "ConditioningError"


def _fuzz_fixtures():
    """Valid input trees (d <= 2) the CLI property mutates: (file option, tree)."""
    rng = np.random.default_rng(2)
    gauss = io.moments_to_dict(mk.MomentSequence(hermite_moments(4)))  # defect dims (1, 1)
    mu1, mu2 = random_measure(rng, 1, 2), random_measure(rng, 2, 2)
    return [
        ("--moments", gauss),
        ("--moments", io.moments_to_dict(mk.generate_from_measure(mu2, 4))),
        ("--measure", io.measure_to_dict(mu1)),
        ("--measure", io.measure_to_dict(mu2)),
        ("--phi", {"kind": "matrix", "matrix": io.encode_matrix([[0.5 - 0.25j]])}),
        ("--phi", {"kind": "unitary", "theta": 0.7}),
        ("--phi", {"kind": "zero"}),
    ], gauss


FUZZ_FIXTURES, FUZZ_MOMENTS = _fuzz_fixtures()
# odd JSON leaves: null, booleans, strings, numbers at and past the float range,
# non-finite floats (written as NaN and Infinity), empty and wrongly shaped containers
ODD_LEAVES = [None, True, False, "", "1.0", 1e308, -1e308, 10**400, -(10**400), float("nan"),
              float("inf"), -float("inf"), 0, -1, 2.5, [], {}, [1.0], [[1.0, 0.0]],
              [[[0.0, 0.0]]], {"kind": "zero"}]
# each command with the options that take the fixture file, on a small grid or interval
FUZZ_COMMANDS = {
    "--moments": [["check"], ["build", "--dump"], ["evaluate", "--grid=-1:1:2,0.5:1:2"],
                  ["reconstruct", "--interval=-1:1:1", "--n-quad", "8", "--eps", "1e-2,5e-3"],
                  ["verify"]],
    "--measure": [["generate", "--order", "4"]],
    "--phi": [["verify"], ["evaluate", "--grid=0:1:2,1:1:1"]],
}


def _paths(tree, path=()):
    """The path of every node of a JSON tree, the root first."""
    yield path
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        items = ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutated(tree, draw):
    """tree with one to three nodes replaced by odd leaves, list items deleted or
    duplicated, or dict keys dropped."""
    copy = lambda obj: json.loads(json.dumps(obj))  # noqa: E731 (the leaves stay unchanged)
    tree = copy(tree)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(tree))))
        if not path:
            tree = copy(draw(st.sampled_from(ODD_LEAVES)))
            continue
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["leaf", "leaf", "drop", "duplicate"]))
        if action == "leaf":
            parent[key] = copy(draw(st.sampled_from(ODD_LEAVES)))
        elif action == "drop":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy(parent[key]))
    return tree


class TestInputSurface:
    """Every mutated input file ends in exit 0, 2 or 3, a non-zero exit in one JSON object
    with an error (or check's and verify's own failing report), and nothing on stderr."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(data=st.data())
    def test_exit_code_and_json_error(self, tmp_path_factory, data):
        option, valid = data.draw(st.sampled_from(FUZZ_FIXTURES))
        command = data.draw(st.sampled_from(FUZZ_COMMANDS[option]))
        tree = _mutated(valid, data.draw)
        folder = tmp_path_factory.mktemp("input")
        path = folder / "input.json"
        path.write_text(json.dumps(tree), encoding="utf-8")
        argv = [command[0], option, str(path), *command[1:]]
        if option == "--phi":
            moments = folder / "moments.json"
            moments.write_text(json.dumps(FUZZ_MOMENTS), encoding="utf-8")
            argv += ["--moments", str(moments)]
        out, err = io_module.StringIO(), io_module.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2, 3), (argv, tree)
        assert not caught and not err.getvalue(), (argv, tree, [str(w.message) for w in caught])
        if code:
            report = json.loads(out.getvalue())
            assert isinstance(report, dict)
            own_report = ((command[0] == "check" and report.get("solvable") is False)
                          or (command[0] == "verify" and report.get("passed") is False))
            assert "error" in report or own_report, (argv, tree, report)


def test_import_needs_no_scipy():
    """The package and its CLI import on numpy alone, in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, momentkit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
