"""Finite-dimensional quotient Hilbert space built from a block Hankel matrix.

Ambient coefficient vectors u = (h_0; ...; h_n) stand for formal sums of
degree-tagged vectors; their classes carry the inner product
<[u], [v]> = v* Gamma_n u.  Working coordinates are orthonormal: the thin
eigendecomposition Gamma_n = U diag(lam) U* gives the coordinate map
Q = diag(sqrt(lam_r)) U_r* on eigenvalues above the rank cut, so that
(Qu) . conj(Qv) reproduces the quotient inner product.  The shift operator
maps degree j to degree j+1 on the span of degrees <= n-1.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import gate_norm, norm2, readonly
from .errors import (
    ConsistencyError,
    ShiftConsistencyError,
    SolvabilityError,
    ValidationError,
)
from .moments import (TOL_PSD, TOL_RANK, BlockHankel, MomentSequence, _hankel_extremes,
                      build_hankel)

SHIFT_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class GramSpace:
    """Orthonormal-coordinate model of the quotient space of a moment sequence."""

    hankel: BlockHankel
    coord_map: np.ndarray  # (m, d(n+1)): ambient coefficients -> coordinates
    gram_scale: float  # ||Gamma_n||_2
    min_eigenvalue: float  # of Gamma_n, from the same decomposition

    def __post_init__(self):
        object.__setattr__(self, "coord_map", readonly(self.coord_map))

    @property
    def rank(self):
        return self.coord_map.shape[0]

    @property
    def dim(self):
        return self.hankel.dim

    @property
    def n(self):
        return self.hankel.n

    @property
    def dim_ambient(self):
        return self.coord_map.shape[1]

    @property
    def gram(self):
        return self.hankel.matrix


@dataclass(frozen=True)
class ShiftOperator:
    """The degree shift as an m x m matrix, zero outside its domain.

    `domain_basis` has orthonormal columns spanning the classes of degrees
    <= n-1; `action` realizes degree j -> degree j+1 there.
    """

    action: np.ndarray
    domain_basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "action", readonly(self.action))
        object.__setattr__(self, "domain_basis", readonly(self.domain_basis))

    @property
    def domain_dim(self):
        return self.domain_basis.shape[1]


@dataclass(frozen=True)
class EmbeddingI:
    """h -> class of h at degree 0 (an m x d matrix)."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", readonly(self.matrix))


@dataclass(frozen=True)
class EmbeddingK:
    """h -> class of h at degree 1 minus i times degree 0 (an m x d matrix)."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", readonly(self.matrix))


def construct_space(m: MomentSequence) -> GramSpace:
    """Build the quotient space of Gamma_n, unless `check_solvability(m)` is unsolvable."""
    eigs, vecs = m.hankel_eigh
    scale, min_eig = _hankel_extremes(m)
    if min_eig < -TOL_PSD * scale:
        raise SolvabilityError(
            f"block Hankel matrix is indefinite: min eigenvalue {min_eig:.3e} "
            f"with tolerance {TOL_PSD:.1e} * {scale:.3e}"
        )
    keep = eigs > TOL_RANK * scale
    coord_map = np.sqrt(eigs[keep])[:, None] * vecs[:, keep].conj().T
    return GramSpace(hankel=build_hankel(m), coord_map=coord_map, gram_scale=scale,
                     min_eigenvalue=min_eig)


def build_shift(g: GramSpace) -> ShiftOperator:
    """Construct the shift operator on the span of degrees <= n-1.

    Well-definedness on the quotient requires the ambient shift to map
    kernel vectors of Gamma_n supported on degrees <= n-1 into the kernel;
    the residual of that map (relative to ||Gamma_n||_2^(1/2)) must stay
    below `SHIFT_RESIDUAL_TOL`, otherwise the truncated sequence is rejected
    as not shift-consistent.
    """
    if g.n < 1:
        raise ValidationError("shift needs truncation order >= 2")
    d = g.dim
    q_low = g.coord_map[:, : d * g.n]
    q_up = g.coord_map[:, d:]
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
        residual = gate_norm(q_up @ kernel, SHIFT_RESIDUAL_TOL * sqrt_scale) / sqrt_scale
        if residual > SHIFT_RESIDUAL_TOL:
            raise ShiftConsistencyError(residual)
    basis = u[:, : s.size][:, keep]
    pinv_low = vh.conj().T[:, : s.size][:, keep] @ ((1.0 / s[keep])[:, None] * basis.conj().T)
    action = q_up @ pinv_low
    # B* A B has the norm of P A P for the domain projector P = B B*
    compressed = basis.conj().T @ action @ basis
    sym_defect = gate_norm(compressed - compressed.conj().T, 1e-8)
    # max(1, ||action||) >= 1: the first test settles a small defect without an SVD
    if sym_defect > 1e-8 and sym_defect > 1e-8 * max(1.0, norm2(action)):
        raise ConsistencyError(
            f"shift operator not symmetric on its domain (defect {sym_defect:.3e})"
        )
    return ShiftOperator(action=action, domain_basis=basis)


def build_embeddings(g: GramSpace):
    """The degree-0 embedding and its shifted companion mapping into M_i."""
    if g.n < 1:
        raise ValidationError("embeddings need truncation order >= 2")
    d = g.dim
    i_mat = g.coord_map[:, :d]
    k_mat = g.coord_map[:, d : 2 * d] - 1j * i_mat
    return EmbeddingI(matrix=i_mat), EmbeddingK(matrix=k_mat)
