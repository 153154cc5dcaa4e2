"""Batch command-line front end.

Subcommands: check, build, evaluate, reconstruct, verify, generate.
All file formats are the JSON/CSV interchange from the io module.  Exit
codes: 0 on success, 2 on validation failure, 3 on numerical-conditioning
failure; failures print a JSON object with an "error" field.
"""

import argparse
import dataclasses
import sys

import numpy as np

from . import io
from ._linalg import check_point_count
from .cayley import SchurParameter, check_evaluation_point
from .errors import ConditioningError, ConsistencyError, MomentKitError, ValidationError
from .gramspace import gram_identity
from .measures import _moments
from .moments import check_solvability, generate_from_measure
from .nevanlinna import NevanlinnaValue
from .pipeline import build_model
from .reconstruct import (DEFAULT_EPS_SCHEDULE, DEFAULT_QUAD_DENSITY, asymptotic_moments,
                          herglotz_check, reconstruct_distribution, recover_discrete)

VALIDATION_EXIT = 2
CONDITIONING_EXIT = 3

# fixed grid for verify's Herglotz scan
VERIFY_GRID = "-5:5:11,0.05:3:4"


def parse_grid(spec):
    """'re0:re1:n,im0:im1:n' -> complex array of z points, imaginary part varying slowest."""
    try:
        re_part, im_part = spec.split(",")
        re0, re1, nre = re_part.split(":")
        im0, im1, nim = im_part.split(":")
        ends = [float(x) for x in (re0, re1, im0, im1)]
        counts = int(nre), int(nim)
        if not np.isfinite(ends).all() or min(counts) < 0:
            raise ValueError("non-finite grid end or negative count")
    except (ValueError, AttributeError) as exc:
        raise ValidationError(f"bad grid spec {spec!r}") from exc
    if min(counts) == 0:  # before the product's check, which a zero count passes
        raise ValidationError("grid must be non-empty")
    check_point_count(counts[0] * counts[1],
                      f"transform points for a {counts[0]} x {counts[1]} grid")
    res = np.linspace(ends[0], ends[1], counts[0])
    ims = np.linspace(ends[2], ends[3], counts[1])
    # the parts are assigned, not summed, so that a -0 end keeps its sign
    grid = np.empty((ims.size, res.size), dtype=complex)
    grid.real, grid.imag = res, ims[:, None]
    return grid.ravel()


def parse_interval(spec):
    """'a:b' or 'a:b:cells' -> cutpoint array."""
    parts = str(spec).split(":")
    try:
        if len(parts) == 2:
            a, b, cells = float(parts[0]), float(parts[1]), 8
        elif len(parts) == 3:
            a, b, cells = float(parts[0]), float(parts[1]), int(parts[2])
        else:
            raise ValueError
    except ValueError as exc:
        raise ValidationError(f"bad interval spec {spec!r}") from exc
    if cells < 1 or not -np.inf < a < b < np.inf or not np.isfinite(b - a):
        raise ValidationError(f"bad interval spec {spec!r}")
    check_point_count(3 * cells, f"transform points for {cells} cells of three or more")
    return np.linspace(a, b, cells + 1)


def parse_eps(spec):
    try:
        return tuple(float(tok) for tok in str(spec).split(","))
    except ValueError as exc:
        raise ValidationError(f"bad epsilon list {spec!r}") from exc


def load_phi(spec, defect_dims):
    if spec == "zero":
        return SchurParameter.zero(defect_dims)
    if spec.startswith("unitary:"):
        try:
            theta = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad Schur parameter spec {spec!r}") from exc
        return SchurParameter.scalar_unitary(theta, defect_dims)
    return io.schur_from_dict(io.load_json(spec), defect_dims)


def _load_model(args):
    """The model of --moments and, for a command that takes --phi, its Schur parameter."""
    model = build_model(io.load_moments(args.moments))
    spec = getattr(args, "phi", None)
    return model, spec and load_phi(spec, model.defect_dims)


def _emit(text, out_path):
    """Print the text, and write the same bytes to out_path if given."""
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")


def cmd_generate(args):
    mu = io.load_measure(args.measure)
    m = generate_from_measure(mu, args.order)
    _emit(io.dump_json(io.moments_to_dict(m)), args.out)
    return 0


def cmd_check(args):
    report = check_solvability(io.load_moments(args.moments))
    # the JSON fields are those of the report: solvable, min_eigenvalue, rank, tolerance_used
    _emit(io.dump_json(dataclasses.asdict(report)), args.out)
    return 0 if report.solvable else VALIDATION_EXIT


def cmd_build(args):
    model, _ = _load_model(args)
    m = model.moments
    payload = {
        "dim": m.dim,
        "order": m.order,
        "rank": model.space.rank,
        "dim_ambient": model.space.dim_ambient,
        "domain_dim": model.cayley.basis_mi.shape[1],
        "defect_dims": list(model.defect_dims),
        "determinate": model.determinate,
        "min_eigenvalue": model.space.min_eigenvalue,
    }
    if args.dump:
        payload["dump"] = {
            "coord_map": io.encode_matrix(model.space.coord_map),
            "shift_action": io.encode_matrix(model.shift),
            "embedding_i": io.encode_matrix(model.embed_i.matrix),
            "embedding_k": io.encode_matrix(model.cayley.K),
        }
    _emit(io.dump_json(payload), args.out)
    return 0


def cmd_evaluate(args):
    model, phi = _load_model(args)
    zs = check_evaluation_point(parse_grid(args.grid))
    _emit(io.write_transform_csv(zs, model.evaluator(phi)(zs)), args.out)
    return 0


def cmd_reconstruct(args):
    model, phi = _load_model(args)
    dist = reconstruct_distribution(model.evaluator(phi), parse_interval(args.interval),
                                    eps=parse_eps(args.eps), n_quad=args.n_quad)
    _emit(
        io.dump_json(
            {
                "grid": [float(t) for t in dist.grid],
                "increments": [io.encode_matrix(w) for w in dist.increments],
                "epsilon_schedule": list(dist.epsilon_schedule),
                "converged": list(dist.converged),
                "total_mass": io.encode_matrix(dist.total_mass()),
            }
        ),
        args.out,
    )
    return 0


def cmd_verify(args):
    model, phi = _load_model(args)
    m = model.moments
    evaluator = model.evaluator(phi)
    zs = parse_grid(VERIFY_GRID)
    herglotz = herglotz_check(map(NevanlinnaValue, zs.tolist(), evaluator(zs)))
    if model.determinate:
        recovered = list(_moments(recover_discrete(model.space, model.cayley, model.embed_i),
                                  m.order))
        branch, bound = "determinate", 1e-8
    else:
        # fit more terms than are reported; only S_0..S_2 carry the bound
        k_max = min(4, m.order)
        fit = asymptotic_moments(evaluator, k_max, np.geomspace(1e2, 1e4, 12))
        recovered = list(fit.estimates[:3])
        branch, bound = "asymptotic", 1e-3
    max_err = max(
        float(np.abs(s - m.moment(k)).max()) for k, s in enumerate(recovered)
    )
    gram_residual, gram_bound = gram_identity(model.space)
    passed = bool(herglotz.passed and max_err <= bound and gram_residual <= gram_bound)
    _emit(
        io.dump_json(
            {
                "branch": branch,
                "moments_in": [io.encode_matrix(s) for s in m.moments],
                "moments_recovered": [io.encode_matrix(s) for s in recovered],
                "max_abs_error": max_err,
                "moment_error_bound": bound,
                "herglotz_min_eig": herglotz.min_imag_eigenvalue,
                "gram_identity_max_residual": gram_residual,
                "passed": passed,
            }
        ),
        args.out,
    )
    return 0 if passed else VALIDATION_EXIT


# the options of every command that reads moments or writes output, in help order
MOMENTS = ("--moments", {"required": True, "help": "moment JSON file"})
OUT = ("--out", {"default": None, "help": "also write the output here"})
PHI = ("--phi", {"default": "zero", "help": "zero | unitary:THETA | JSON file"})

# command -> (help, options); the command runs cmd_<command>
COMMANDS = {
    "generate": ("moments of a discrete measure", [
        ("--measure", {"required": True, "help": "measure JSON file"}),
        ("--order", {"type": int, "required": True, "help": "even order 2n >= 2"}),
        OUT,
    ]),
    "check": ("solvability report for a moment file", [MOMENTS, OUT]),
    "build": ("build the model and report its shape", [
        MOMENTS, OUT, ("--dump", {"action": "store_true", "help": "include model matrices"}),
    ]),
    "evaluate": ("transform values on a z grid (CSV)", [
        MOMENTS, OUT, PHI, ("--grid", {"required": True, "help": '"re0:re1:n,im0:im1:n"'}),
    ]),
    "reconstruct": ("interval masses of the solution", [
        MOMENTS, OUT, PHI,
        ("--interval", {"required": True, "help": '"a:b" or "a:b:cells"'}),
        ("--eps", {"default": ",".join(str(e) for e in DEFAULT_EPS_SCHEDULE),
                   "help": "decreasing epsilon schedule"}),
        ("--n-quad", {"dest": "n_quad", "type": int, "default": DEFAULT_QUAD_DENSITY}),
    ]),
    "verify": ("moment reproduction + Herglotz report", [MOMENTS, OUT, PHI]),
}


def build_parser(command=None):
    """The parser of every command, or of `command` alone with the same usage line."""
    parser = argparse.ArgumentParser(
        prog="momentkit",
        description="Matrix moment problems: solvability, transform evaluation, "
        "and measure reconstruction.",
    )
    names = [command] if command else list(COMMANDS)
    metavar = "{" + ",".join(COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, options = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command builds only its own parser; anything else gets the full one
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (MomentKitError, OSError) as exc:
        kind = "OSError" if isinstance(exc, OSError) else type(exc).__name__
        print(io.dump_json({"error": str(exc), "kind": kind}))
        conditioning = isinstance(exc, (ConditioningError, ConsistencyError))
        return CONDITIONING_EXIT if conditioning else VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
