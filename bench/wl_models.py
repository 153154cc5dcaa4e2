"""`models`: many distinct moment sequences, each taken from input to checks.

One op runs, for one sequence: `MomentSequence`, `check_solvability`,
`build_model`, then `recover_discrete` (determinate) or
`asymptotic_moments` at heights 1e2..1e4 (indeterminate), then a small
`herglotz_check`, three near-i probes and `w0_isometry_check`.  Invalid
sequences must be rejected with the right error kind.
"""

import numpy as np

import inputs
from common import Op, Work, WrongValue, atoms_of, bounded, rel_err, transform_of_atoms

K_MAX = 4
# the fewest heights asymptotic_moments accepts for K_MAX, so that an op
# evaluates the transform at about a dozen points
Y_GRID = np.geomspace(1e2, 1e4, K_MAX + 2)
HERGLOTZ_Z = (-1.0 + 0.1j, 1.0 + 0.1j, -0.5 + 2.0j, 0.5 + 2.0j)
W0_SAMPLES = 8
SMOKE_INPUTS = 10
# bounds the library's own `verify` and acceptance criterion 9 use
DETERMINATE_TOL = 1e-8
ASYMPTOTIC_TOL = 1e-3
W0_TOL = 1e-10
EXPECTED_ERROR = {"indefinite": "SolvabilityError", "non_hermitian": "ValidationError"}


def setup(mk, seed, smoke=False):
    pool = inputs.model_pool(seed)
    if smoke:
        pool = pool[:SMOKE_INPUTS]
    rng = np.random.default_rng([seed, 4])
    ops = [_op(mk, x, inputs.near_i_probes(rng)) for x in pool]
    return Work(ops, inputs.census(pool), [])


def _parameter(mk, spec, dims):
    if spec[0] == "unitary":
        return mk.SchurParameter.scalar_unitary(spec[1], dims)
    if spec[0] == "contraction":
        d_plus, d_minus = dims
        return mk.SchurParameter(spec[1][:d_minus, :d_plus])
    return mk.SchurParameter.zero(dims)


def _op(mk, x, probes):
    label = f"{x.kind}:{x.phi[0]}:d={x.dim}:2n={x.order}"
    if not x.valid:
        state = {}

        def run_invalid():
            m = mk.MomentSequence(x.moments)
            state["solvable"] = mk.check_solvability(m).solvable
            return mk.build_model(m)

        def check_rejection(_):
            if state.get("solvable"):
                raise WrongValue(f"{label}: indefinite Gamma_n reported solvable")
            return {}

        return Op(label, 0, run_invalid, check_rejection, EXPECTED_ERROR[x.kind])

    def run():
        m = mk.MomentSequence(x.moments)
        report = mk.check_solvability(m)
        model = mk.build_model(m)
        if model.determinate:
            phi = model.zero_parameter()
            fit = mk.recover_discrete(model.space, model.cayley, model.embed_i)
        else:
            phi = _parameter(mk, x.phi, model.defect_dims)
            fit = mk.asymptotic_moments(model.evaluator(phi), K_MAX, Y_GRID)
        evaluator = model.evaluator(phi)
        herglotz = mk.herglotz_check([evaluator.value(z) for z in HERGLOTZ_Z])
        near = [evaluator(z) for z in probes]
        mu = mk.DiscreteMatrixMeasure(x.nodes, x.weights)
        w0 = mk.w0_isometry_check(m, mu, n_samples=W0_SAMPLES, seed=x.seed)
        return report, model, phi, fit, herglotz, near, w0

    def check(result):
        report, model, phi, fit, herglotz, near, w0 = result
        if not report.solvable:
            raise WrongValue(f"{label}: valid sequence reported unsolvable")
        if model.determinate:
            err = max(rel_err(fit.moment(k), x.moments[k]) for k in range(x.order + 1))
            err = bounded(err, DETERMINATE_TOL, f"{label}: recovered moments")
        else:
            err = max(rel_err(fit.estimates[k], x.moments[k]) for k in range(3))
            err = bounded(err, ASYMPTOTIC_TOL, f"{label}: fitted moments")
        bounded(-herglotz.min_imag_eigenvalue, herglotz.threshold, f"{label}: Herglotz")
        bounded(w0, W0_TOL, f"{label}: isometry residual")
        out = {"max_err": err, "determinacy_flipped": model.determinate != (x.kind == "determinate")}
        atoms = None
        if model.determinate and x.kind == "determinate":
            atoms = (x.nodes, x.weights)
        elif x.phi[0] == "unitary" and not model.determinate:
            try:
                atoms = atoms_of(mk, model, phi)
            except mk.ConditioningError:
                pass  # U has eigenvalue 1: an atom at infinity, no finite reference
        if atoms is not None:
            out["near_i"] = []
            for r, value, z in zip(inputs.NEAR_I_RADII, near, probes):
                ref = transform_of_atoms(*atoms, z)
                out["near_i"].append((r, float(np.abs(value - ref).max() / np.abs(ref).max())))
        return out

    points = (0 if x.kind == "determinate" else len(Y_GRID)) + len(HERGLOTZ_Z) + len(probes)
    return Op(label, points, run, check)
