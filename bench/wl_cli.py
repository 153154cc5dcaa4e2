"""`cli`: the command-line tool's commands, one `cli.main(argv)` call per op.

The fixed script is generate, check, build --dump, a dense evaluate (d=4
fixture, 1,000 points, CSV), verify and one small reconstruct, with real
input and output files.  Outputs are parsed back with the io module and
compared with values computed from the library directly.  The commands
run in-process, not as subprocesses: a subprocess's time does not follow
the calibration kernel (speed.py), and its spread between runs of the
same code (0.12 to 0.27) passed the benchmark's bounds.  What a user
also waits for per command, a fresh interpreter's import, is measured
on its own in `setup_s` and `cli.import_s`.
"""

import contextlib
import io
import os

import numpy as np

import inputs
import wl_perron
from common import Op, Work, WrongValue, atoms_of, bounded, fixture_line, rel_err

# real x imaginary points of the evaluate grid: 1,000 points, about 0.7 s,
# so that a 20 s run holds about fifteen rounds.  With 10,000 points one
# op took 7 s, a run held two rounds, and the calibration run after that
# op did not follow the host's speed during it (wall_s spread 0.12).
# Evaluation and CSV formatting both cost per point, so their shares of
# the command do not depend on the grid size.
GRID_SHAPE = (50, 20)
SMOKE_GRID_SHAPE = (5, 4)
RECONSTRUCT_CELL = 0.25
THETA = np.pi / 2
EVAL_SAMPLE = 200  # evaluate rows compared with in-process values
MATCH_TOL = 1e-9  # command output against direct library calls: same code, same machine
BAND_MARGIN = 1e-3  # grid points stay this far from z = i


class CliExit(Exception):
    """A command returned a non-zero status."""


def _grid(rng, shape):
    """A seeded evaluate grid spec and its points, imaginary part slowest."""
    re0, re1 = float(rng.uniform(-3.2, -2.8)), float(rng.uniform(2.8, 3.2))
    im0, im1 = float(rng.uniform(0.04, 0.06)), float(rng.uniform(2.9, 3.1))
    while True:
        res = np.linspace(re0, re1, shape[0])
        ims = np.linspace(im0, im1, shape[1])
        points = (ims[:, None] * 1j + res[None, :]).reshape(-1)
        if np.abs(points - 1j).min() >= BAND_MARGIN:
            break
        im0 += 0.5 * float(ims[1] - ims[0])  # shift the rows off z = i
    spec = f"{re0!r}:{re1!r}:{shape[0]},{im0!r}:{im1!r}:{shape[1]}"
    return spec, points


def setup(mk, seed, smoke=False, *, work_dir):
    env = inputs.envelope(seed)
    rng = np.random.default_rng([seed, 5])
    os.makedirs(work_dir, exist_ok=True)
    path = lambda name: os.path.join(work_dir, name)  # noqa: E731
    d4, d2, gauss = env["d4"], env["d2"], env["gauss"]
    mk.io.save_measure(mk.DiscreteMatrixMeasure(d4.nodes, d4.weights), path("d4_measure.json"))
    for fx, name in ((d4, "d4"), (d2, "d2"), (gauss, "gauss")):
        mk.io.save_moments(mk.MomentSequence(fx.moments), path(f"{name}_moments.json"))
    phi = inputs.random_contraction(rng, d2.dim)
    mk.io.dump_json({"kind": "matrix", "matrix": mk.io.encode_matrix(phi)}, path("d2_phi.json"))
    spec, points = _grid(rng, SMOKE_GRID_SHAPE if smoke else GRID_SHAPE)
    a = float(rng.uniform(-2.0, 2.0 - RECONSTRUCT_CELL))
    b = a + RECONSTRUCT_CELL
    eps = ",".join(repr(e) for e in wl_perron.EPS)
    script = [
        ("generate", ["--measure", path("d4_measure.json"), "--order", str(d4.order)], 0),
        ("check", ["--moments", path("d4_moments.json")], 0),
        ("build", ["--moments", path("d4_moments.json"), "--dump"], 0),
        ("evaluate", ["--moments", path("d4_moments.json"), f"--grid={spec}"], len(points)),
        ("verify", ["--moments", path("d2_moments.json"), "--phi", path("d2_phi.json")],
         11 * 4 + 12),  # the CLI's fixed Herglotz grid and fit heights
        ("reconstruct", ["--moments", path("gauss_moments.json"),
                         "--phi", f"unitary:{THETA!r}", f"--interval={a!r}:{b!r}:1",
                         "--eps", eps, "--n-quad", str(wl_perron.N_QUAD)],
         RECONSTRUCT_CELL * wl_perron.N_QUAD * len(wl_perron.EPS)),
    ]
    ref = _References(mk, env, points, (a, b), rng)
    ops = []
    for command, argv, points_count in script:
        out = path(f"{command}.out")
        ops.append(Op(command, points_count, _in_process(mk, [command, *argv, "--out", out]),
                      _reading(getattr(ref, f"check_{command}"), out)))
    census = {
        "base": len(ops),
        "command": {c: 1 for c, *_ in script},
        "determinate": {"indeterminate": len(ops)},
        "phi": {"none": 3, "zero": 1, "contraction": 1, "unitary": 1},
        "d": {"d=4": 4, "d=2": 1, "d=1": 1},
        "2n": {"2n=12": 4, "2n=8": 1, "2n=6": 1},
        "invalid": {"invalid": 0},
    }
    return Work(ops, census, ref.fixture_lines())


def _last_line(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _in_process(mk, argv):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mk.cli.main(argv)
        if code:
            raise CliExit(f"{argv[0]} returned {code}: {_last_line(out.getvalue())}")
    return run


def _reading(check, path):
    return lambda _: check(path)


class _References:
    """In-process values the command outputs are compared with.

    They are computed on first use, outside the timed ops, and cached.
    """

    def __init__(self, mk, env, points, cell, rng):
        self.mk = mk
        self.env = env
        self.points = points
        self.cell = cell
        self.sample = np.sort(rng.choice(len(points), min(EVAL_SAMPLE, len(points)), replace=False))
        self._cache = {}

    def _model(self, key):
        if key not in self._cache:
            fx = self.env[key]
            self._cache[key] = self.mk.build_model(self.mk.MomentSequence(fx.moments))
        return self._cache[key]

    def fixture_lines(self):
        return [fixture_line(self.env[k], self._model(k)) for k in ("d4", "d2", "gauss")]

    def check_generate(self, path):
        got = self.mk.io.load_moments(path).moments
        return {"max_err": rel_err(got, self.env["d4"].moments)}

    def check_check(self, path):
        got = self.mk.io.load_json(path)
        want = self.mk.check_solvability(self._model("d4").moments)
        if not got["solvable"] or got["rank"] != want.rank:
            raise WrongValue(f"check: {got} against rank {want.rank}")
        return {"max_err": rel_err(got["min_eigenvalue"], want.min_eigenvalue)}

    def check_build(self, path):
        got = self.mk.io.load_json(path)
        fx = self.env["d4"]
        shape = (got["dim"], got["order"], got["rank"], tuple(got["defect_dims"]))
        if shape != fx.shape() or got["determinate"]:
            raise WrongValue(f"build: shape {shape}, expected {fx.shape()}")
        dump = {k: self.mk.io.decode_matrix(v) for k, v in got["dump"].items()}
        s = fx.moments
        gamma = self._model("d4").space.gram
        q = dump["coord_map"]
        emb_i, emb_k = dump["embedding_i"], dump["embedding_k"]
        # basis-free: Q*Q = Gamma_n, I*I = S_0, K*K = S_0 + S_2
        err = max(rel_err(q.conj().T @ q, gamma), rel_err(emb_i.conj().T @ emb_i, s[0]),
                  rel_err(emb_k.conj().T @ emb_k, s[0] + s[2]))
        return {"max_err": bounded(err, MATCH_TOL, "build: model matrices")}

    def check_evaluate(self, path):
        rows = self.mk.io.read_transform_csv(path)
        z = np.array([r[0] for r in rows])
        if len(rows) != len(self.points) or np.abs(z - self.points).max() > 1e-12:
            raise WrongValue(f"evaluate: {len(rows)} rows or grid differs from the spec")
        model = self._model("d4")
        if "evaluate" not in self._cache:
            evaluator = model.evaluator()
            self._cache["evaluate"] = [evaluator.value(self.points[i]).R for i in self.sample]
        err = max(rel_err(rows[i][1], ref) for i, ref in zip(self.sample, self._cache["evaluate"]))
        return {"max_err": bounded(err, MATCH_TOL, "evaluate: values against in-process")}

    def check_verify(self, path):
        got = self.mk.io.load_json(path)
        s = self.env["d2"].moments
        rec = [self.mk.io.decode_matrix(m) for m in got["moments_recovered"]]
        err = max(rel_err(rec[k], s[k]) for k in range(3))
        if not got["passed"] or got["branch"] != "asymptotic":
            raise WrongValue(f"verify: passed={got['passed']} branch={got['branch']}")
        return {"max_err": bounded(err, got["moment_error_bound"], "verify: fitted moments")}

    def check_reconstruct(self, path):
        got = self.mk.io.load_json(path)
        inc = self.mk.io.decode_matrix(got["increments"][0])
        if "atoms" not in self._cache:
            model = self._model("gauss")
            phi = self.mk.SchurParameter.scalar_unitary(THETA, model.defect_dims)
            self._cache["atoms"] = atoms_of(self.mk, model, phi)
        nodes, weights = self._cache["atoms"]
        a, b = self.cell
        table = [(e, wl_perron.smoothed_mass(nodes, weights, a, b, e)) for e in wl_perron.EPS]
        scale = 1.0 + float(np.linalg.norm(weights, 2, axis=(1, 2)).sum())
        quad_err = float(np.linalg.norm(inc - wl_perron.richardson(table), 2)) / scale
        bounded(quad_err, wl_perron.QUAD_TOL, "reconstruct: off the exact smoothed mass")
        exact = weights[(nodes > a) & (nodes < b)].sum(axis=0)
        return {"max_err": float(np.linalg.norm(inc - exact, 2)) / scale,
                "converged": bool(got["converged"][0])}
