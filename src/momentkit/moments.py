"""Truncated Hermitian matrix moment sequences and their block Hankel matrices.

Solvability of the moment problem at truncation order 2n is decided by
positive semidefiniteness of the block Hankel matrix whose (j, k) block is
S_{j+k}.
"""

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from ._linalg import herm, herm_defect, readonly
from .errors import ValidationError
from .measures import DiscreteMatrixMeasure

TOL_HERM = 1e-10
TOL_PSD = 1e-10
TOL_RANK = 1e-10


@dataclass(frozen=True)
class MomentSequence:
    """Moments S_0..S_{2n} on C^d, Hermitian within tol_herm and symmetrized.

    `moments` accepts a (2n+1, d, d) array, a list of d x d matrices, or a
    flat list of scalars for d = 1.  Gamma_n is decomposed once per sequence
    (`hankel_eigh`), shared by `check_solvability` and `construct_space`.
    """

    moments: np.ndarray
    tol_herm: InitVar[float] = TOL_HERM

    def __post_init__(self, tol_herm):
        try:
            mats = np.asarray(self.moments, dtype=complex)
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"moments are not a homogeneous array: {exc}") from exc
        if mats.ndim == 1:
            mats = mats.reshape(-1, 1, 1)
        if mats.ndim != 3 or not 0 < mats.shape[1] == mats.shape[2]:
            raise ValidationError("moments must be a list of non-empty square matrices")
        if mats.shape[0] < 3 or mats.shape[0] % 2 == 0:
            raise ValidationError(
                "need an even truncation order 2n >= 2, i.e. 2n+1 >= 3 moments"
            )
        nonfinite = ~np.isfinite(mats).all(axis=(1, 2))
        if nonfinite.any():
            raise ValidationError(f"moment S_{nonfinite.argmax()} has a non-finite entry")
        bad = herm_defect(mats) > tol_herm * (1.0 + np.linalg.norm(mats, axis=(1, 2)))
        if bad.any():
            k = bad.argmax()
            raise ValidationError(f"moment S_{k} is not Hermitian within tolerance")
        mats = herm(mats)
        s0_min = float(np.linalg.eigvalsh(mats[0]).min())
        # the 2-norm of S_0 matters only when S_0 has a negative eigenvalue
        if s0_min < 0 and s0_min < -TOL_PSD * max(1.0, float(np.linalg.norm(mats[0], 2))):
            raise ValidationError("S_0 is not positive semidefinite")
        object.__setattr__(self, "moments", readonly(mats))

    @property
    def dim(self):
        return self.moments.shape[1]

    @property
    def order(self):
        return self.moments.shape[0] - 1

    @property
    def n(self):
        return self.order // 2

    def moment(self, k):
        return self.moments[k]

    @cached_property
    def hankel_eigh(self):
        """Read-only (eigenvalues, eigenvectors) of Gamma_n from one `eigh`."""
        eigs, vecs = np.linalg.eigh(build_hankel(self).matrix)
        return readonly(eigs), readonly(vecs)


@dataclass(frozen=True)
class BlockHankel:
    """The d(n+1) x d(n+1) matrix with (j, k) block S_{j+k}."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", readonly(np.asarray(self.matrix, complex)))

    @property
    def dim(self):
        return self.matrix.shape[0] // (self.n + 1)

    def block(self, j, k):
        d = self.dim
        return self.matrix[j * d : (j + 1) * d, k * d : (k + 1) * d]


@dataclass(frozen=True)
class SolvabilityReport:
    solvable: bool
    min_eigenvalue: float
    rank: int
    tolerance_used: float


def build_hankel(m: MomentSequence) -> BlockHankel:
    """Assemble the block Hankel matrix of S_0..S_{2n}."""
    d, n = m.dim, m.n
    idx = np.arange(n + 1)
    blocks = m.moments[idx[:, None] + idx[None, :]]  # (j, k, a, b) = S_{j+k}[a, b]
    gram = blocks.transpose(0, 2, 1, 3).reshape(d * (n + 1), d * (n + 1))
    return BlockHankel(n=n, matrix=gram)


def check_solvability(m: MomentSequence, tol_psd=TOL_PSD, tol_rank=TOL_RANK):
    """Eigenvalue-based PSD decision on the block Hankel matrix.

    solvable iff min eigenvalue >= -tol_psd * ||Gamma||_2; rank counts
    eigenvalues above tol_rank * ||Gamma||_2.
    """
    eigs, _ = m.hankel_eigh
    scale = float(np.abs(eigs).max()) if eigs.size else 0.0
    min_eig = float(eigs.min()) if eigs.size else 0.0
    return SolvabilityReport(
        solvable=bool(min_eig >= -tol_psd * scale),
        min_eigenvalue=min_eig,
        rank=int(np.count_nonzero(eigs > tol_rank * scale)),
        tolerance_used=float(tol_psd),
    )


def generate_from_measure(mu: DiscreteMatrixMeasure, order: int) -> MomentSequence:
    """Moments S_k = sum_j t_j^k W_j of a discrete measure, k = 0..order."""
    if order < 2 or order % 2:
        raise ValidationError("order must be an even integer >= 2")
    powers = mu.nodes[None, :] ** np.arange(order + 1)[:, None]
    return MomentSequence(np.einsum("kj,jab->kab", powers, mu.weights))
