"""Batch command-line front end.

Subcommands: check, build, evaluate, reconstruct, verify, generate.
All file formats are the JSON/CSV interchange from the io module.  Exit
codes: 0 on success, 2 on validation failure, 3 on numerical-conditioning
failure; failures print a JSON object with an "error" field.
"""

import argparse
import sys

import numpy as np

from . import io
from ._linalg import norm2
from .cayley import check_evaluation_point
from .errors import (
    ConditioningError,
    ConsistencyError,
    MomentKitError,
    ValidationError,
)
from .moments import TOL_PSD, check_solvability
from .nevanlinna import NevanlinnaValue
from .pipeline import build_model
from .reconstruct import (
    DEFAULT_EPS_SCHEDULE,
    DEFAULT_QUAD_DENSITY,
    asymptotic_moments,
    herglotz_check,
    recover_discrete,
    reconstruct_distribution,
)

VALIDATION_EXIT = 2
CONDITIONING_EXIT = 3

# fixed grid for verify's Herglotz scan
VERIFY_GRID = "-5:5:11,0.05:3:4"


def parse_grid(spec):
    """'re0:re1:n,im0:im1:n' -> z points, imaginary part varying slowest."""
    try:
        re_part, im_part = spec.split(",")
        re0, re1, nre = re_part.split(":")
        im0, im1, nim = im_part.split(":")
        ends = [float(x) for x in (re0, re1, im0, im1)]
        if not np.isfinite(ends).all():
            raise ValueError("non-finite grid end")
        res = np.linspace(ends[0], ends[1], int(nre))
        ims = np.linspace(ends[2], ends[3], int(nim))
    except (ValueError, AttributeError) as exc:
        raise ValidationError(f"bad grid spec {spec!r}") from exc
    if res.size == 0 or ims.size == 0:
        raise ValidationError("grid must be non-empty")
    return [complex(re, im) for im in ims for re in res]


def _grid_points(spec):
    """The grid as a complex array, once every point is in C+ off the band."""
    return check_evaluation_point(np.array(parse_grid(spec)))


def _grid_values(evaluator, spec):
    """Values on a grid of the open upper half-plane, in one evaluator call."""
    zs = _grid_points(spec)
    return [NevanlinnaValue(z=z, R=r) for z, r in zip(zs.tolist(), evaluator(zs))]


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
    if cells < 1 or not -np.inf < a < b < np.inf:
        raise ValidationError(f"bad interval spec {spec!r}")
    return np.linspace(a, b, cells + 1)


def parse_eps(spec):
    try:
        return tuple(float(tok) for tok in str(spec).split(","))
    except ValueError as exc:
        raise ValidationError(f"bad epsilon list {spec!r}") from exc


def load_phi(spec, defect_dims):
    if spec == "zero":
        return io.schur_from_dict({"kind": "zero"}, defect_dims)
    if spec.startswith("unitary:"):
        try:
            theta = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad Schur parameter spec {spec!r}") from exc
        return io.schur_from_dict({"kind": "unitary", "theta": theta}, defect_dims)
    return io.schur_from_dict(io.load_json(spec), defect_dims)


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
    from .moments import generate_from_measure

    m = generate_from_measure(mu, args.order)
    _emit(io.dump_json(io.moments_to_dict(m)), args.out)
    return 0


def cmd_check(args):
    m = io.load_moments(args.moments)
    report = check_solvability(m, tol_psd=args.tol_psd)
    _emit(
        io.dump_json(
            {
                "solvable": report.solvable,
                "min_eigenvalue": report.min_eigenvalue,
                "rank": report.rank,
                "tolerance_used": report.tolerance_used,
            }
        ),
        args.out,
    )
    return 0 if report.solvable else VALIDATION_EXIT


def cmd_build(args):
    m = io.load_moments(args.moments)
    model = build_model(m)
    payload = {
        "dim": m.dim,
        "order": m.order,
        "rank": model.space.rank,
        "dim_ambient": model.space.dim_ambient,
        "domain_dim": model.shift.domain_dim,
        "defect_dims": list(model.defect_dims),
        "determinate": model.determinate,
        "min_eigenvalue": model.space.min_eigenvalue,
    }
    if args.dump:
        payload["dump"] = {
            "coord_map": io.encode_matrix(model.space.coord_map),
            "shift_action": io.encode_matrix(model.shift.action),
            "embedding_i": io.encode_matrix(model.embed_i.matrix),
            "embedding_k": io.encode_matrix(model.embed_k.matrix),
        }
    _emit(io.dump_json(payload), args.out)
    return 0


def cmd_evaluate(args):
    m = io.load_moments(args.moments)
    model = build_model(m)
    phi = load_phi(args.phi, model.defect_dims)
    zs = _grid_points(args.grid)
    _emit(io.write_transform_csv(zs, model.evaluator(phi)(zs)), args.out)
    return 0


def cmd_reconstruct(args):
    m = io.load_moments(args.moments)
    model = build_model(m)
    phi = load_phi(args.phi, model.defect_dims)
    dist = reconstruct_distribution(
        model.evaluator(phi),
        parse_interval(args.interval),
        eps=parse_eps(args.eps),
        n_quad=args.n_quad,
    )
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


def _gram_identity_residual(g):
    """||Q*Q - Gamma_n||_2 / max(1, ||Gamma_n||_2) for the coordinate map Q of g.

    Q*Q - Gamma_n is minus the eigenpairs of Gamma_n below the rank cut, each
    with |lambda| <= max(TOL_RANK, TOL_PSD) ||Gamma_n||_2, which bounds the
    value up to rounding.
    """
    q = g.coord_map
    return norm2(q.conj().T @ q - g.gram) / max(1.0, g.gram_scale)


def cmd_verify(args):
    m = io.load_moments(args.moments)
    model = build_model(m)
    phi = load_phi(args.phi, model.defect_dims)
    evaluator = model.evaluator(phi)
    herglotz = herglotz_check(_grid_values(evaluator, args.grid))
    if model.determinate:
        mu = recover_discrete(model.space, model.cayley, model.embed_i)
        recovered = [mu.moment(k) for k in range(m.order + 1)]
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
    passed = bool(herglotz.passed and max_err <= bound)
    _emit(
        io.dump_json(
            {
                "branch": branch,
                "moments_in": [io.encode_matrix(s) for s in m.moments],
                "moments_recovered": [io.encode_matrix(s) for s in recovered],
                "max_abs_error": max_err,
                "moment_error_bound": bound,
                "herglotz_min_eig": herglotz.min_imag_eigenvalue,
                "gram_identity_max_residual": _gram_identity_residual(model.space),
                "passed": passed,
            }
        ),
        args.out,
    )
    return 0 if passed else VALIDATION_EXIT


def build_parser():
    parser = argparse.ArgumentParser(
        prog="momentkit",
        description="Matrix moment problems: solvability, transform evaluation, "
        "and measure reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, moments=True):
        if moments:
            p.add_argument("--moments", required=True, help="moment JSON file")
        p.add_argument("--out", default=None, help="also write the output here")

    p = sub.add_parser("generate", help="moments of a discrete measure")
    p.add_argument("--measure", required=True, help="measure JSON file")
    p.add_argument("--order", type=int, required=True, help="even order 2n >= 2")
    common(p, moments=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="solvability report for a moment file")
    common(p)
    p.add_argument("--tol-psd", dest="tol_psd", type=float, default=TOL_PSD)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("build", help="build the model and report its shape")
    common(p)
    p.add_argument("--dump", action="store_true", help="include model matrices")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("evaluate", help="transform values on a z grid (CSV)")
    common(p)
    p.add_argument("--phi", default="zero", help="zero | unitary:THETA | JSON file")
    p.add_argument("--grid", required=True, help='"re0:re1:n,im0:im1:n"')
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("reconstruct", help="interval masses of the solution")
    common(p)
    p.add_argument("--phi", default="zero", help="zero | unitary:THETA | JSON file")
    p.add_argument("--interval", required=True, help='"a:b" or "a:b:cells"')
    p.add_argument(
        "--eps",
        default=",".join(str(e) for e in DEFAULT_EPS_SCHEDULE),
        help="decreasing epsilon schedule",
    )
    p.add_argument("--n-quad", dest="n_quad", type=int, default=DEFAULT_QUAD_DENSITY)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="moment reproduction + Herglotz report")
    common(p)
    p.add_argument("--phi", default="zero", help="zero | unitary:THETA | JSON file")
    p.add_argument("--grid", default=VERIFY_GRID, help="Herglotz scan grid")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConditioningError, ConsistencyError) as exc:
        print(io.dump_json({"error": str(exc), "kind": type(exc).__name__}))
        return CONDITIONING_EXIT
    except MomentKitError as exc:
        print(io.dump_json({"error": str(exc), "kind": type(exc).__name__}))
        return VALIDATION_EXIT
    except OSError as exc:
        print(io.dump_json({"error": str(exc), "kind": "OSError"}))
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
