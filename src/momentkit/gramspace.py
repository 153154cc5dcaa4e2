"""Finite-dimensional quotient Hilbert space built from a block Hankel matrix.

Ambient coefficient vectors u = (h_0; ...; h_n) stand for formal sums of
degree-tagged vectors; their classes carry the inner product
<[u], [v]> = v* Gamma_n u.  Working coordinates are orthonormal: the thin
eigendecomposition Gamma_n = U diag(lam) U* gives the coordinate map
Q = diag(sqrt(lam_r)) U_r* on eigenvalues above the rank cut, so that
(Qu) . conj(Qv) reproduces the quotient inner product.  The shift operator
maps degree j to degree j+1 on the span of degrees <= n-1.
"""

import numpy as np

from ._linalg import frozen, norm2, norm2_within, norm2_within_scaled
from .errors import (
    ConsistencyError,
    ShiftConsistencyError,
    SolvabilityError,
)
from .moments import TOL_PSD, TOL_RANK, MomentSequence, _psd_verdict

SHIFT_RESIDUAL_TOL = 1e-8


@frozen
class GramSpace:
    """Orthonormal-coordinate model of the quotient space of a moment sequence."""

    moments: MomentSequence  # whose `gram` is Gamma_n
    coord_map: np.ndarray  # (m, d(n+1)): ambient coefficients -> coordinates
    gram_scale: float  # ||Gamma_n||_2
    min_eigenvalue: float  # of Gamma_n, from the same decomposition

    @property
    def rank(self):
        return self.coord_map.shape[0]

    @property
    def dim_ambient(self):
        return self.coord_map.shape[1]

    @property
    def gram(self):
        return self.moments.gram


@frozen
class EmbeddingI:
    """h -> class of h at degree 0 (an m x d matrix)."""

    matrix: np.ndarray


def construct_space(m: MomentSequence) -> GramSpace:
    """Build the quotient space of Gamma_n, unless `check_solvability(m)` is unsolvable."""
    eigs, vecs = m.hankel_eigh
    scale, min_eig, solvable, keep = _psd_verdict(m)
    if not solvable:
        raise SolvabilityError(
            f"block Hankel matrix is indefinite: min eigenvalue {min_eig:.3e} "
            f"with tolerance {TOL_PSD:.1e} * {scale:.3e}"
        )
    coord_map = np.sqrt(eigs[keep])[:, None] * vecs[:, keep].conj().T
    return GramSpace(moments=m, coord_map=coord_map, gram_scale=scale, min_eigenvalue=min_eig)


def gram_identity(g: GramSpace):
    """(residual, bound) of Q*Q = Gamma_n, relative to max(1, ||Gamma_n||_2).

    Q*Q - Gamma_n is minus the eigenpairs of Gamma_n below the rank cut, each
    with -TOL_PSD ||Gamma_n||_2 <= lambda <= TOL_RANK ||Gamma_n||_2; eigh and
    the product add rounding of order (ambient dimension) u ||Gamma_n||_2.
    """
    q, scale = g.coord_map, max(1.0, g.gram_scale)
    residual = norm2(q.conj().T @ q - g.gram) / scale
    rounding = 8 * g.dim_ambient * np.finfo(float).eps
    return residual, (max(TOL_RANK, TOL_PSD) + rounding) * g.gram_scale / scale


def build_shift(g: GramSpace):
    """The shift on the span of degrees <= n-1, as (action, domain_basis).

    `domain_basis` has orthonormal columns spanning the classes of degrees
    <= n-1; the m x m `action` realizes degree j -> degree j+1 there and is
    zero outside it.

    Well-definedness on the quotient requires the ambient shift to map
    kernel vectors of Gamma_n supported on degrees <= n-1 into the kernel;
    the residual of that map (relative to ||Gamma_n||_2^(1/2)) must stay
    below `SHIFT_RESIDUAL_TOL`, otherwise the truncated sequence is rejected
    as not shift-consistent.
    """
    d = g.moments.dim
    q_low, q_up = g.coord_map[:, :-d], g.coord_map[:, d:]  # degrees 0..n-1 and 1..n
    sqrt_scale = np.sqrt(max(g.gram_scale, np.finfo(float).tiny))
    # one SVD of Q_low yields the domain basis, the pseudo-inverse, and the
    # ambient kernel directions at the same singular-value cut as the rank
    # decision on Gamma_n
    u, s, vh = np.linalg.svd(q_low, full_matrices=True)
    cut = np.sqrt(TOL_RANK) * sqrt_scale
    keep = s > cut
    null_mask = np.concatenate([~keep, np.ones(vh.shape[0] - s.size, dtype=bool)])
    kernel = vh.conj().T[:, null_mask]
    if kernel.shape[1]:
        leak = q_up @ kernel
        if not norm2_within(leak, SHIFT_RESIDUAL_TOL * sqrt_scale):
            raise ShiftConsistencyError(norm2(leak) / sqrt_scale)
    basis = u[:, : s.size][:, keep]
    pinv_low = vh.conj().T[:, : s.size][:, keep] @ ((1.0 / s[keep])[:, None] * basis.conj().T)
    action = q_up @ pinv_low
    # B* A B has the norm of P A P for the domain projector P = B B*
    compressed = basis.conj().T @ action @ basis
    defect = compressed - compressed.conj().T
    if not norm2_within_scaled(defect, 1e-8, action):
        raise ConsistencyError(
            f"shift operator not symmetric on its domain (defect {norm2(defect):.3e})"
        )
    return action, basis


def build_embeddings(g: GramSpace):
    """The degree-0 embedding I and K's m x d matrix, h -> degree-1 class minus i degree-0 class."""
    d = g.moments.dim
    i_mat = g.coord_map[:, :d]
    return EmbeddingI(matrix=i_mat), g.coord_map[:, d : 2 * d] - 1j * i_mat
