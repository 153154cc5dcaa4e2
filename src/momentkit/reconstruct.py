"""From transform values back to measures and moments.

Rebuilds solutions numerically: Herglotz validation of evaluated
transforms, moment recovery from the large-|z| expansion, interval masses
by Stieltjes-Perron inversion with an epsilon schedule, and exact spectral
recovery when the truncation is determinate.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import COND_THRESHOLD, herm, imag_part, norm2, norm2_within, readonly
from .cayley import CayleyData, inverse_cayley
from .errors import (
    ConditioningError,
    DomainError,
    IndeterminateError,
    ValidationError,
)
from .gramspace import EmbeddingI, GramSpace
from .measures import DiscreteMatrixMeasure

HERGLOTZ_TOL = 1e-8
DEFAULT_EPS_SCHEDULE = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
DEFAULT_QUAD_DENSITY = 2001  # sample points per unit length, composite Simpson
MIN_EPS = 1e-4
NODE_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class HerglotzReport:
    passed: bool
    min_imag_eigenvalue: float
    worst_z: complex
    threshold: float


@dataclass(frozen=True)
class MomentFit:
    """Least-squares estimates of S_0..S_k from values on the imaginary axis."""

    estimates: np.ndarray  # (k_max+1, d, d)
    residual: float
    cond: float

    def __post_init__(self):
        object.__setattr__(self, "estimates", readonly(self.estimates))


@dataclass(frozen=True)
class IntervalMass:
    """Extrapolated increment over [a, b] plus the per-epsilon table."""

    a: float
    b: float
    increment: np.ndarray
    per_eps: tuple  # ((eps, d x d matrix), ...)
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "increment", readonly(self.increment))


@dataclass(frozen=True)
class ReconstructedDistribution:
    """Increments of F over consecutive cells of a cutpoint grid."""

    grid: np.ndarray  # (M+1,) increasing cutpoints
    increments: np.ndarray  # (M, d, d)
    epsilon_schedule: tuple
    converged: tuple

    def __post_init__(self):
        object.__setattr__(self, "grid", readonly(np.asarray(self.grid, float)))
        object.__setattr__(self, "increments", readonly(self.increments))

    def total_mass(self):
        return self.increments.sum(axis=0)


def herglotz_check(values) -> HerglotzReport:
    """Smallest eigenvalue of Im R(z) over the supplied values.

    Passes iff the minimum stays above -HERGLOTZ_TOL; every z must be a
    finite point of C+.  `worst_z` is the first point that attains the minimum.
    """
    values = list(values)
    if not values:
        raise ValidationError("no transform values supplied")
    for val in values:
        if not (np.isfinite(val.z) and val.z.imag > 0):
            raise DomainError(f"Herglotz check needs finite z in C+, got {val.z}")
    lows = np.linalg.eigvalsh(imag_part(np.stack([val.R for val in values]))).min(axis=1)
    worst = int(np.argmin(lows))
    return HerglotzReport(
        passed=bool(lows[worst] >= -HERGLOTZ_TOL),
        min_imag_eigenvalue=float(lows[worst]),
        worst_z=values[worst].z,
        threshold=HERGLOTZ_TOL,
    )


def asymptotic_moments(evaluator, k_max: int, y_grid) -> MomentFit:
    """Fit R(iy) ~= -sum_k S_k (iy)^{-k-1} on y_grid by least squares.

    `evaluator` is any callable taking the array of points i*y_grid to the
    stacked (len(y_grid), d, d) values, such as a `TransformEvaluator`; it
    is called once.  Columns of the design matrix are normalized before
    solving; the fit is rejected when its condition number passes 1e12.
    Estimates are symmetrized.
    """
    y_grid = np.asarray(y_grid, dtype=float).reshape(-1)
    if k_max < 0 or k_max > 4:
        raise ValidationError("k_max must be between 0 and 4 (conditioning)")
    if y_grid.size < k_max + 2:
        raise ValidationError("need at least k_max + 2 sample heights")
    if not (y_grid.min() >= 1e2 and y_grid.max() <= 1e5):  # a NaN height fails too
        raise ValidationError("y_grid must lie within [1e2, 1e5]")
    samples = np.asarray(evaluator(1j * y_grid), dtype=complex)
    d = samples.shape[1]
    design = -((1j * y_grid)[:, None] ** -np.arange(1.0, k_max + 2))
    col_scale = np.linalg.norm(design, axis=0)
    rhs = samples.reshape(y_grid.size, d * d)
    # lstsq also returns the singular values of the scaled design, so the
    # condition number s_max/s_min (np.linalg.cond's, to rounding) needs no
    # second decomposition
    coeff, _, _, s = np.linalg.lstsq(design / col_scale, rhs, rcond=None)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = float(s[0] / s[-1])
    if not np.isfinite(cond) or cond > COND_THRESHOLD:
        raise ConditioningError("asymptotic moment fit is ill-conditioned", cond)
    coeff = coeff / col_scale[:, None]
    residual = float(np.linalg.norm(design @ coeff - rhs)) / max(
        1.0, float(np.linalg.norm(rhs))
    )
    estimates = herm(coeff.reshape(k_max + 1, d, d))
    return MomentFit(estimates=estimates, residual=residual, cond=cond)


@functools.lru_cache(maxsize=16)
def _simpson_pattern(count):
    """The read-only composite Simpson pattern (1, 4, 2, ..., 2, 4, 1) of `count` nodes."""
    pattern = np.full(count, 2.0)
    pattern[1::2] = 4.0
    pattern[[0, -1]] = 1.0
    pattern.flags.writeable = False
    return pattern


def _simpson_rule(a, b, n_quad):
    """Nodes and composite Simpson weights (1, 4, 2, ..., 2, 4, 1) h/3 on [a, b].

    The node count is odd, so the rule needs no end correction.  The nodes
    are `np.linspace(a, b, count)`'s, formed as linspace forms them; the
    pattern is built once per node count.
    """
    count = max(math.ceil((b - a) * n_quad), 3)
    if count % 2 == 0:
        count += 1
    h = (b - a) / (count - 1)
    xs = np.arange(count) * h + a
    xs[-1] = b
    return xs, _simpson_pattern(count) * (h / 3.0)


def stieltjes_perron(evaluator, a: float, b: float, eps=DEFAULT_EPS_SCHEDULE,
                     n_quad=DEFAULT_QUAD_DENSITY) -> IntervalMass:
    """Increment F(b) - F(a) from (1/pi) integral of Im R(x + i eps).

    `evaluator` takes an array of points to the stacked (N, d, d) values,
    such as a `TransformEvaluator`; it is called once, on one flat array
    holding the quadrature line x + i eps of every epsilon in turn.
    Composite Simpson with `n_quad` sample points per unit length (a
    finite number >= 1) is applied for each epsilon of the decreasing
    schedule, to R itself: Im is linear and the weights are real, so Im is
    taken of the sums, which one matrix product forms for every line.  The rule's (1, 4, 2, ..., 4,
    1) pattern is built once per node count and kept.  The returned
    increment extrapolates the last two values linearly in epsilon
    (two-point Richardson).  Convergence compares successive Richardson
    extrapolants (raw values for schedules shorter than three): a gap of
    2-norm above 1e-3 flags the result as non-converged; the value is
    still returned.  Frobenius bounds settle that verdict on either side,
    and the gap's SVD is taken only where they leave it open.
    """
    if not -np.inf < a < b < np.inf:
        raise ValidationError(f"need finite a < b, got a={a}, b={b}")
    eps = tuple(map(float, eps))
    if not (eps and all(map(math.isfinite, eps))):
        raise ValidationError(f"epsilon schedule {eps} is empty or not finite")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ValidationError("epsilon schedule must be strictly decreasing")
    if eps[-1] < MIN_EPS:
        raise ValidationError(f"epsilon must stay >= {MIN_EPS:g}")
    if not 1 <= n_quad < math.inf:
        raise ValidationError(f"n_quad must be a finite number >= 1, got {n_quad}")
    xs, weights = _simpson_rule(a, b, n_quad)
    zs = np.empty((len(eps), xs.size), complex)
    zs.real = xs
    zs.imag = np.array(eps)[:, None]
    vals = np.asarray(evaluator(zs.reshape(-1)), complex)
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
    return IntervalMass(
        a=float(a),
        b=float(b),
        increment=increment,
        per_eps=table,
        converged=converged,
    )


def reconstruct_distribution(evaluator, cutpoints, eps=DEFAULT_EPS_SCHEDULE,
                             n_quad=DEFAULT_QUAD_DENSITY) -> ReconstructedDistribution:
    """Increments over consecutive cells of an increasing cutpoint grid."""
    cutpoints = np.asarray(cutpoints, dtype=float).reshape(-1)
    ends = cutpoints.tolist()
    pairs = list(zip(ends, ends[1:]))
    if not (pairs and all(-math.inf < lo < hi < math.inf for lo, hi in pairs)):
        raise ValidationError("cutpoints must be at least two increasing finite reals")
    cells = [stieltjes_perron(evaluator, lo, hi, eps=eps, n_quad=n_quad) for lo, hi in pairs]
    return ReconstructedDistribution(
        grid=cutpoints,
        increments=np.array([c.increment for c in cells]),
        epsilon_schedule=tuple(map(float, eps)),
        converged=tuple(c.converged for c in cells),
    )


def recover_discrete(g: GramSpace, c: CayleyData, emb: EmbeddingI) -> DiscreteMatrixMeasure:
    """Exact discrete solution in the determinate case.

    With defect dims (0, 0) the shift extends to a unique self-adjoint
    operator; its eigenprojections P_j give nodes t_j and weights
    W_j = I* P_j I.  Nearby eigenvalues (within 1e-8 * ||A||) are merged
    before weights are formed.
    """
    if not c.determinate:
        raise IndeterminateError(
            f"defect dims {c.defect_dims} != (0, 0): indeterminate at this "
            "truncation; evaluate the transform or invert it instead"
        )
    a_full = herm(inverse_cayley(c.V))
    eigs, vecs = np.linalg.eigh(a_full)
    gap = NODE_CLUSTER_TOL * max(1.0, norm2(a_full))
    nodes, weights = [], []
    start = 0
    for stop in range(1, eigs.size + 1):
        if stop == eigs.size or eigs[stop] - eigs[stop - 1] > gap:
            group = vecs[:, start:stop]
            coeff = group.conj().T @ emb.matrix
            weight = coeff.conj().T @ coeff
            if float(np.trace(weight).real) > 1e-12 * max(
                1.0, float(np.trace(g.hankel.block(0, 0)).real)
            ):
                nodes.append(float(eigs[start:stop].mean()))
                weights.append(weight)
            start = stop
    if not nodes:
        raise ValidationError("recovered measure is empty (zero moment sequence?)")
    return DiscreteMatrixMeasure(nodes=np.array(nodes), weights=np.stack(weights))
