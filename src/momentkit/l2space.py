"""Isometry of vector polynomials in the weighted L2 space of a discrete matrix measure.

On the nodes of the measure the inner product of vector functions is
psi(f, g) = sum_j (W_j f(t_j), g(t_j)).  The isometry check ties vector
polynomials under psi to the quotient space built from the matching
moment sequence.
"""

import numpy as np

from ._linalg import check_point_count, numeric
from .errors import ValidationError
from .gramspace import construct_space
from .measures import DiscreteMatrixMeasure, _moments
from .moments import MomentSequence

__all__ = ["w0_isometry_check"]


def w0_isometry_check(m: MomentSequence, mu: DiscreteMatrixMeasure,
                      n_samples=25, seed=0) -> float:
    """Max residual between psi on vector polynomials and the quotient space.

    For random vector polynomials p, q of degree <= n the value
    psi(p, q) must equal the inner product of the corresponding sums of
    degree-tagged classes.  Residuals are relative to 1 + |value|.
    Requires mu to reproduce the moments of m to 1e-12.  Samples are drawn
    in one block, in the stream order of a per-sample draw (real and
    imaginary parts of p, then of q), so a seed gives the same samples;
    `n_samples` is an integer >= 1 (`_linalg.numeric`) whose draws and
    values on the nodes are each at most MAX_POINTS.
    """
    n_samples = int(numeric(n_samples, int, "n_samples", ndim=0))
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    check_point_count(n_samples * 4 * (m.n + 1) * m.dim, "normal draws for n_samples")
    check_point_count(n_samples * 2 * mu.nodes.size * m.dim, "polynomial values on the nodes")
    diff = np.linalg.norm(_moments(mu, m.order) - m.moments, axis=(1, 2))
    # negated, so that a NaN moment (overflowing nodes) refuses too
    bad = ~(diff <= 1e-12 * (1.0 + np.linalg.norm(m.moments, axis=(1, 2))))
    if bad.any():
        k = bad.argmax()
        raise ValidationError(
            f"measure does not reproduce moment S_{k} (|diff| = {diff[k]:.3e})"
        )
    g = construct_space(m)
    draws = np.random.default_rng(seed).standard_normal((n_samples, 4, m.n + 1, m.dim))
    coeffs = draws[:, 0::2] + 1j * draws[:, 1::2]  # (sample, p or q, degree, d)
    powers = mu.nodes[None, :] ** np.arange(m.n + 1)[:, None]  # (degree, node)
    vals = powers.T @ coeffs  # (sample, p or q, node, d)
    weighted = (mu.weights @ vals[:, 0, ..., None])[..., 0]  # W_j p(t_j)
    psi = (vals[:, 1].conj() * weighted).sum(axis=(1, 2))
    coords = coeffs.reshape(n_samples, 2, g.dim_ambient) @ g.coord_map.T
    gram_value = np.einsum("sm,sm->s", coords[:, 1].conj(), coords[:, 0])
    residual = np.abs(psi - gram_value) / (1.0 + np.abs(gram_value))
    return float(residual.max(initial=0.0))
