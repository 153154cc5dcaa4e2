"""From transform values back to measures and moments.

Rebuilds solutions numerically: Herglotz validation of evaluated
transforms, moment recovery from the large-|z| expansion, interval masses
by Stieltjes-Perron inversion with an epsilon schedule, and exact spectral
recovery when the truncation is determinate.
"""

import functools
import math

import numpy as np

from ._linalg import (check_condition, check_point_count, frozen, herm, imag_part, norm2_within,
                      numeric, readonly)
from .cayley import CayleyData, check_evaluation_point, inverse_cayley
from .errors import IndeterminateError, ValidationError
from .gramspace import EmbeddingI, GramSpace
from .measures import DiscreteMatrixMeasure

HERGLOTZ_TOL = 1e-8
DEFAULT_EPS_SCHEDULE = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
DEFAULT_QUAD_DENSITY = 2001  # sample points per unit length, composite Simpson
MIN_EPS = 1e-4
NODE_CLUSTER_TOL = 1e-8


@frozen
class HerglotzReport:
    passed: bool
    min_imag_eigenvalue: float
    worst_z: complex
    threshold: float


@frozen
class MomentFit:
    """Least-squares estimates of S_0..S_k from values on the imaginary axis."""

    estimates: np.ndarray  # (k_max+1, d, d)
    residual: float
    cond: float


@frozen
class IntervalMass:
    """Extrapolated increment over [a, b] plus the per-epsilon table."""

    a: float
    b: float
    increment: np.ndarray
    per_eps: tuple  # ((eps, d x d matrix), ...)
    converged: bool


@frozen
class ReconstructedDistribution:
    """Increments of F over consecutive cells of a cutpoint grid."""

    grid: np.ndarray  # (M+1,) increasing cutpoints
    increments: np.ndarray  # (M, d, d)
    epsilon_schedule: tuple
    converged: tuple

    def total_mass(self):
        return self.increments.sum(axis=0)


def herglotz_check(values) -> HerglotzReport:
    """Smallest eigenvalue of Im R(z) over the supplied values.

    Passes iff the minimum stays above -HERGLOTZ_TOL; every z must be one
    finite point of C+.  `worst_z` is the first point that attains the minimum.
    """
    values = list(values)
    if not values:
        raise ValidationError("no transform values supplied")
    check_evaluation_point([val.z for val in values], ndim=1)
    lows = np.linalg.eigvalsh(imag_part(np.stack([val.R for val in values]))).min(axis=1)
    worst = int(np.argmin(lows))
    return HerglotzReport(passed=bool(lows[worst] >= -HERGLOTZ_TOL),
                          min_imag_eigenvalue=float(lows[worst]), worst_z=values[worst].z,
                          threshold=HERGLOTZ_TOL)


@functools.lru_cache(maxsize=16)
def _moment_design(k_max, heights):
    """The fit's design, its column norms, and the unit-column design's cond and pinv (one SVD)."""
    design = -((1j * np.array(heights))[:, None] ** -np.arange(1.0, k_max + 2))
    col_scale = np.linalg.norm(design, axis=0)
    u, s, vh = np.linalg.svd(design / col_scale, full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond, pinv = float(s[0] / s[-1]), (vh.conj().T / s) @ u.conj().T
    return readonly(design), readonly(col_scale), cond, readonly(pinv)


def asymptotic_moments(evaluator, k_max: int, y_grid) -> MomentFit:
    """Fit R(iy) ~= -sum_k S_k (iy)^{-k-1} on y_grid by least squares.

    `evaluator` is any callable taking the array of points i*y_grid to the
    stacked (len(y_grid), d, d) values, such as a `TransformEvaluator`; it
    is called once, after the checks of the integer k_max and the 1-d real
    y_grid (`_linalg.numeric`).  Columns of the design matrix are normalized before
    solving; the fit is rejected when its condition number passes 1e12.
    Estimates are symmetrized.  The design and its pseudo-inverse (one SVD)
    are kept per (k_max, y_grid).
    """
    k_max = int(numeric(k_max, int, "k_max", ndim=0))
    y_grid = numeric(y_grid, float, "y_grid", ndim=1)
    if not 0 <= k_max <= 4:
        raise ValidationError("k_max must be an integer between 0 and 4 (conditioning)")
    if y_grid.size < k_max + 2:
        raise ValidationError("need at least k_max + 2 sample heights")
    if not (y_grid.min() >= 1e2 and y_grid.max() <= 1e5):  # a NaN height fails too
        raise ValidationError("y_grid must lie within [1e2, 1e5]")
    samples = numeric(evaluator(1j * y_grid), complex, "evaluator values")
    design, col_scale, cond, pinv = _moment_design(k_max, tuple(y_grid.tolist()))
    check_condition(cond, "asymptotic moment fit is ill-conditioned")
    rhs = samples.reshape(y_grid.size, -1)
    coeff = (pinv @ rhs) / col_scale[:, None]
    residual = float(np.linalg.norm(design @ coeff - rhs)) / max(1.0, float(np.linalg.norm(rhs)))
    estimates = herm(coeff.reshape((k_max + 1,) + samples.shape[1:]))
    return MomentFit(estimates=estimates, residual=residual, cond=cond)


@functools.lru_cache(maxsize=16)
def _simpson_pattern(count):
    """The read-only composite Simpson pattern (1, 4, 2, ..., 2, 4, 1) of `count` nodes."""
    pattern = np.full(count, 2.0)
    pattern[1::2] = 4.0
    pattern[[0, -1]] = 1.0
    pattern.flags.writeable = False
    return pattern


def _node_count(a, b, n_quad):
    """The odd node count of the composite Simpson rule on [a, b]."""
    count = max(math.ceil(min((b - a) * n_quad, 2.0**62)), 3)  # a length past the float max too
    return count + 1 - count % 2


def _simpson_rule(a, b, n_quad):
    """Nodes and composite Simpson weights (1, 4, 2, ..., 2, 4, 1) h/3 on [a, b].

    The node count is odd, so the rule needs no end correction.  The nodes
    are `np.linspace(a, b, count)`'s, formed as linspace forms them; the
    pattern is built once per node count.
    """
    count = _node_count(a, b, n_quad)
    h = (b - a) / (count - 1)
    xs = np.arange(count) * h + a
    xs[-1] = b
    return xs, _simpson_pattern(count) * (h / 3.0)


def stieltjes_perron(evaluator, a: float, b: float, eps=DEFAULT_EPS_SCHEDULE,
                     n_quad=DEFAULT_QUAD_DENSITY) -> IntervalMass:
    """Increment F(b) - F(a) from (1/pi) integral of Im R(x + i eps).

    `evaluator` takes an array of points to the stacked (N, d, d) values,
    such as a `TransformEvaluator`; it is called once, on one flat array
    holding the quadrature line x + i eps of every epsilon in turn, at most
    MAX_POINTS points.  Composite Simpson with `n_quad` sample points per unit
    length (a finite real number >= 1; a, b also real numbers, eps a 1-d real
    array, `_linalg.numeric`) is applied for each epsilon of the
    decreasing schedule, to R itself: Im is linear and the weights are real,
    so Im is taken of the sums, which one matrix product forms for every line.
    The returned increment extrapolates the last two values linearly in
    epsilon (two-point Richardson).  Convergence compares successive
    Richardson extrapolants (raw values for schedules shorter than three): a
    gap of 2-norm above 1e-3 flags the result as non-converged; the value is
    still returned.  Frobenius bounds settle that verdict on either side,
    and the gap's SVD is taken only where they leave it open.
    """
    a, b, n_quad = (float(numeric(x, float, name, ndim=0))
                    for x, name in ((a, "a"), (b, "b"), (n_quad, "n_quad")))
    if not -np.inf < a < b < np.inf:
        raise ValidationError(f"need finite a < b, got a={a}, b={b}")
    eps = tuple(numeric(eps, float, "eps", ndim=1).tolist())
    if not (eps and all(map(math.isfinite, eps))):
        raise ValidationError(f"epsilon schedule {eps} is empty or not finite")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ValidationError("epsilon schedule must be strictly decreasing")
    if eps[-1] < MIN_EPS:
        raise ValidationError(f"epsilon must stay >= {MIN_EPS:g}")
    if not 1 <= n_quad < math.inf:
        raise ValidationError(f"n_quad must be a finite number >= 1, got {n_quad}")
    check_point_count(len(eps) * _node_count(a, b, n_quad),
                      f"transform points for {len(eps)} lines on [{a}, {b}]")
    xs, weights = _simpson_rule(a, b, n_quad)
    zs = np.empty((len(eps), xs.size), complex)
    zs.real = xs
    zs.imag = np.array(eps)[:, None]
    vals = numeric(evaluator(zs.reshape(-1)), complex, "evaluator values")
    d = vals.shape[-1]
    sums = np.matmul(weights / np.pi, vals.reshape(zs.shape + (d * d,)))
    # Im M = (M - M*)/2i is Hermitian to the last bit, and so is every
    # real combination of such matrices below: no herm is needed
    table = tuple(zip(eps, readonly(imag_part(sums.reshape(-1, d, d)))))

    def richardson(pair_lo, pair_hi):
        (e_prev, v_prev), (e_last, v_last) = pair_lo, pair_hi
        return v_last + (v_last - v_prev) * (e_last / (e_prev - e_last))

    if len(table) >= 2:
        increment = richardson(table[-2], table[-1])
        if len(table) >= 3:
            previous = richardson(table[-3], table[-2])
            gap = increment - previous
        else:
            gap = table[-1][1] - table[-2][1]
        converged = norm2_within(gap, 1e-3)
    else:
        increment = table[0][1]
        converged = True
    return IntervalMass(a=a, b=b, increment=increment, per_eps=table, converged=converged)


def reconstruct_distribution(evaluator, cutpoints, eps=DEFAULT_EPS_SCHEDULE,
                             n_quad=DEFAULT_QUAD_DENSITY) -> ReconstructedDistribution:
    """Increments over the cells of an increasing grid of 1-d real cutpoints (`_linalg.numeric`),
    MAX_POINTS // 3 cells at most."""
    cutpoints = numeric(cutpoints, float, "cutpoints", ndim=1)
    check_point_count(3 * (cutpoints.size - 1),
                      f"transform points for {cutpoints.size - 1} cells of three or more")
    ends = cutpoints.tolist()
    pairs = list(zip(ends, ends[1:]))
    if not (pairs and all(-math.inf < lo < hi < math.inf for lo, hi in pairs)):
        raise ValidationError("cutpoints must be one row of two or more increasing finite reals")
    cells = [stieltjes_perron(evaluator, lo, hi, eps=eps, n_quad=n_quad) for lo, hi in pairs]
    return ReconstructedDistribution(
        grid=cutpoints, increments=np.array([c.increment for c in cells]),
        epsilon_schedule=tuple(e for e, _ in cells[0].per_eps),
        converged=tuple(c.converged for c in cells))


def recover_discrete(g: GramSpace, c: CayleyData, emb: EmbeddingI) -> DiscreteMatrixMeasure:
    """Exact discrete solution in the determinate case.

    With defect dims (0, 0) the shift extends to a unique self-adjoint
    operator A~ with eigenpairs (lambda_j, e_j), lambda_j increasing.  A node
    is a run of eigenvalues, each within NODE_CLUSTER_TOL max(1, ||A~||) of the one
    before: its weight is the run's sum of (I* e_j)(e_j* I), which is I* P I
    for the run's eigenprojection P, and its node the run's mean.  Runs whose
    weight has trace at most 1e-12 max(1, tr S_0) are dropped.
    """
    if not c.determinate:
        raise IndeterminateError(
            f"defect dims {c.defect_dims} != (0, 0): indeterminate at this "
            "truncation; evaluate the transform or invert it instead"
        )
    eigs, vecs = np.linalg.eigh(herm(inverse_cayley(c.V)))
    # ||A~||_2 of the Hermitian A~ is its largest |eigenvalue|
    gap = NODE_CLUSTER_TOL * max(1.0, float(np.abs(eigs).max(initial=0.0)))
    starts = np.flatnonzero(np.diff(eigs, prepend=-np.inf) > gap)
    rows = vecs.conj().T @ emb.matrix  # row j is e_j* I
    weights = np.add.reduceat(rows.conj()[:, :, None] * rows[:, None, :], starts)
    nodes = np.add.reduceat(eigs, starts) / np.diff(starts, append=eigs.size)
    floor = 1e-12 * max(1.0, float(np.trace(g.moments.moment(0)).real))
    keep = np.trace(weights, axis1=1, axis2=2).real > floor
    if not keep.any():
        raise ValidationError("recovered measure is empty (zero moment sequence?)")
    return DiscreteMatrixMeasure(nodes=nodes[keep], weights=weights[keep])
