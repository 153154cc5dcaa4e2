"""`perron`: Stieltjes-Perron cells on prebuilt models.

One op is one cell, `reconstruct_distribution(evaluator, [a, b])`, with
the library's default epsilon schedule and quadrature density passed
explicitly.  Per-point transform evaluation is about all of the time here;
the models are built once in set-up.
"""

import numpy as np

import inputs
from common import Op, Work, atoms_of, bounded, fixture_line

EPS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
N_QUAD = 2001  # sample points per unit length
# cell length: 500 transform points per cell, so that a 20 s run holds
# about ten rounds and each cell's median time is taken over as many
CELL = 0.0625
# cells of each case in one round: seven, so that the median op falls
# inside the cluster of d=4 cells rather than between two clusters
CELLS = {"gauss_unitary": 2, "d4_unitary": 2, "d4_contraction": 2, "point_mass": 1}
# The exact-atom reference below removes the smoothing error and leaves the
# quadrature error only.  Simpson's rule at step h on a Lorentzian of
# half-width eps errs by about (2/3) exp(-pi eps / h) per unit weight:
# 4e-4 at the smallest eps and h = 1/2000, doubled by the extrapolation.
QUAD_TOL = 1e-3  # relative to 1 + sum_j ||W_j||
PSD_TOL = 1e-8  # relative to 1 + ||S_0||


def smoothed_mass(nodes, weights, a, b, eps):
    """(1/pi) int_a^b Im R(x + i eps) dx for R = sum_j W_j / (t_j - z)."""
    frac = (np.arctan((b - nodes) / eps) - np.arctan((a - nodes) / eps)) / np.pi
    return np.einsum("j,jab->ab", frac, weights)


def richardson(table):
    """The library's two-point extrapolation of the last two table rows."""
    (e_prev, v_prev), (e_last, v_last) = table[-2], table[-1]
    return v_last + (v_last - v_prev) * (e_last / (e_prev - e_last))


def setup(mk, seed, smoke=False):
    env = inputs.envelope(seed)
    rng = np.random.default_rng([seed, 3])
    built = {}
    lines = []
    for key in ("gauss", "d4", "point_mass"):
        fx = env[key]
        built[key] = mk.build_model(mk.MomentSequence(fx.moments))
        lines.append(fixture_line(fx, built[key]))
    d4 = built["d4"]
    cases = [  # label, model, parameter, parameter kind
        ("gauss_unitary", built["gauss"],
         mk.SchurParameter.scalar_unitary(np.pi / 2, (1, 1)), "unitary"),
        ("d4_unitary", d4, mk.SchurParameter(inputs.random_unitary(rng, 4)), "unitary"),
        ("d4_contraction", d4,
         mk.SchurParameter(inputs.random_contraction(rng, 4)), "contraction"),
        ("point_mass", built["point_mass"], built["point_mass"].zero_parameter(), "none"),
    ]
    ops = []
    census = {"base": 0, "case": {}, "determinate": {}, "phi": {}, "d": {}, "2n": {},
              "invalid": {"invalid": 0}}
    for label, model, phi, phi_kind in cases:
        evaluator = model.evaluator(phi)
        if phi_kind == "contraction":
            atoms = None
            lo, hi = -inputs.NODE_SPREAD, inputs.NODE_SPREAD
            scale = 1.0 + float(np.linalg.norm(model.moments.moment(0), 2))
        else:
            atoms = atoms_of(mk, model, phi)
            lo, hi = atoms[0].min(), atoms[0].max()
            scale = 1.0 + float(np.linalg.norm(atoms[1], 2, axis=(1, 2)).sum())
        count = 1 if smoke else CELLS[label]
        for _ in range(count):
            a = float(rng.uniform(lo - 0.3, hi + 0.3))
            ops.append(_cell_op(mk, label, evaluator, a, a + CELL, atoms, scale))
        census["base"] += count
        for key, value in (
            ("case", label),
            ("determinate", "determinate" if model.determinate else "indeterminate"),
            ("phi", phi_kind),
            ("d", f"d={model.moments.dim}"),
            ("2n", f"2n={model.moments.order}"),
        ):
            census[key][value] = census[key].get(value, 0) + count
    return Work(ops, census, lines)


def _cell_op(mk, label, evaluator, a, b, atoms, scale):
    def run():
        return mk.reconstruct_distribution(evaluator, [a, b], eps=EPS, n_quad=N_QUAD)

    def check(result):
        inc = np.asarray(result.increments[0])
        out = {"converged": bool(result.converged[0])}
        if atoms is None:
            low = float(np.linalg.eigvalsh(0.5 * (inc + inc.conj().T)).min())
            bounded(-low / scale, PSD_TOL, f"{label} [{a:.4f}, {b:.4f}]: negative increment")
            return out
        nodes, weights = atoms
        table = [(e, smoothed_mass(nodes, weights, a, b, e)) for e in EPS]
        quad_err = float(np.linalg.norm(inc - richardson(table), 2)) / scale
        bounded(quad_err, QUAD_TOL, f"{label} [{a:.4f}, {b:.4f}]: off the exact smoothed mass")
        inside = (nodes > a) & (nodes < b)
        exact = weights[inside].sum(axis=0)
        out["max_err"] = float(np.linalg.norm(inc - exact, 2)) / scale
        return out

    return Op(f"{label}[{a:.3f},{b:.3f}]", CELL * N_QUAD * len(EPS), run, check)
