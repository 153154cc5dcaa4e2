"""Discrete matrix-valued measures: finitely many nodes with PSD matrix weights.

A measure `mu` models the non-decreasing matrix function
F(t) = sum_{t_j < t} W_j, the computable form of a moment-problem solution.
"""

import numpy as np

from ._linalg import checked_herm, frozen
from .errors import ValidationError


@frozen
class DiscreteMatrixMeasure:
    """Nodes t_1 < ... < t_J with complex d x d weights W_j, Hermitian and PSD, symmetrized:
    ||W_j - W_j*||_F <= TOL_HERM max(f, ||W_j||_F), lambda_min(W_j) >= -TOL_PSD max(f, ||W_j||_2),
    f = min(1, 2^e) for 2^e above every part of the weights (`_linalg.checked_herm`)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        try:
            nodes = np.asarray(self.nodes, dtype=float).reshape(-1)
            weights = np.asarray(self.weights, dtype=complex)
        except (ValueError, TypeError, OverflowError) as exc:  # an integer past float range
            raise ValidationError(f"nodes or weights are not a numeric array: {exc}") from exc
        if weights.ndim == 1:
            weights = weights.reshape(-1, 1, 1)
        if weights.ndim != 3 or not 0 < weights.shape[1] == weights.shape[2]:
            raise ValidationError("weights must be a list of non-empty square matrices")
        if nodes.size == 0:
            raise ValidationError("measure needs at least one node")
        if nodes.size != weights.shape[0]:
            raise ValidationError("node and weight counts differ")
        nonfinite = ~np.isfinite(nodes) | ~np.isfinite(weights).all(axis=(1, 2))
        if nonfinite.any():
            j = nonfinite.argmax()
            kind = "node" if not np.isfinite(nodes[j]) else "weight"
            raise ValidationError(f"{kind} {j} is not finite")
        if np.any(np.diff(nodes) <= 0):
            raise ValidationError("nodes must be strictly increasing")
        weights, not_herm, not_psd = checked_herm(weights, psd=len(weights))
        if not_herm is not None or not_psd is not None:
            j = min(k for k in (not_herm, not_psd) if k is not None)  # the first bad weight
            kind = "Hermitian" if j == not_herm else "PSD within tolerance"
            raise ValidationError(f"weight {j} is not {kind}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self):
        return self.weights.shape[1]

    @property
    def num_nodes(self):
        return self.nodes.size

    @classmethod
    def point_mass(cls, node, weight):
        return cls([node], [np.atleast_2d(np.asarray(weight, dtype=complex))])

    def total_mass(self):
        return self.weights.sum(axis=0)

    def moment(self, k):
        """sum_j t_j^k W_j, non-finite where it overflows."""
        return _moments(self, k)[k]


def _moments(mu: DiscreteMatrixMeasure, order: int) -> np.ndarray:
    """The stacked S_k = sum_j t_j^k W_j, k = 0..order, unvalidated: non-finite past float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        powers = mu.nodes[None, :] ** np.arange(order + 1)[:, None]
        return np.einsum("kj,jab->kab", powers, mu.weights)
