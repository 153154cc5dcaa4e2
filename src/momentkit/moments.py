"""Truncated Hermitian matrix moment sequences and their block Hankel matrices.

Solvability of the moment problem at truncation order 2n is decided by
positive semidefiniteness of the block Hankel matrix whose (j, k) block is
S_{j+k}.
"""

from functools import cached_property

import numpy as np

from ._linalg import TOL_HERM, TOL_PSD, checked_herm, frozen, numeric, readonly
from .errors import ValidationError
from .measures import DiscreteMatrixMeasure, _moments

TOL_RANK = 1e-10


@frozen
class MomentSequence:
    """Moments S_0..S_{2n} on C^d, each Hermitian and S_0 PSD within tolerance, symmetrized.

    `_linalg.checked_herm` decides ||S_k - S_k*||_F <= TOL_HERM max(f, ||S_k||_F) and
    lambda_min(S_0) >= -TOL_PSD max(f, ||S_0||_2), f = min(1, 2^e) for 2^e above every part.

    `moments` accepts a (2n+1, d, d) array, a list of d x d matrices, or a
    flat list of scalars for d = 1 (`_linalg.numeric`).  Gamma_n is built (`gram`) and decomposed
    (`hankel_eigh`) once per sequence, shared by `check_solvability`,
    `construct_space` and every `GramSpace` of the sequence.
    """

    moments: np.ndarray

    def __post_init__(self):
        mats = numeric(self.moments, complex, "moments")
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
        mats, not_herm, not_psd = checked_herm(mats, psd=1)
        if not_herm is not None:
            raise ValidationError(f"moment S_{not_herm} is not Hermitian within tolerance")
        if not_psd is not None:
            raise ValidationError("S_0 is not positive semidefinite")
        object.__setattr__(self, "moments", mats)

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
    def gram(self):
        """Gamma_n, the read-only d(n+1) x d(n+1) block Hankel matrix with (j, k) block S_{j+k}."""
        d, n = self.dim, self.n
        idx = np.arange(n + 1)
        blocks = self.moments[idx[:, None] + idx[None, :]]  # (j, k, a, b) = S_{j+k}[a, b]
        return readonly(blocks.transpose(0, 2, 1, 3).reshape(d * (n + 1), d * (n + 1)))

    @cached_property
    def hankel_eigh(self):
        """Read-only (eigenvalues, eigenvectors) of `gram` from one `eigh`."""
        eigs, vecs = np.linalg.eigh(self.gram)
        return readonly(eigs), readonly(vecs)


@frozen
class SolvabilityReport:
    solvable: bool
    min_eigenvalue: float
    rank: int
    tolerance_used: float


def _psd_verdict(m: MomentSequence):
    """(||Gamma_n||_2, min eigenvalue, solvable, kept) of Gamma_n, from `hankel_eigh`.

    Gamma_n is positive semidefinite within tolerance, and the moment problem
    solvable, iff its smallest eigenvalue is >= -TOL_PSD ||Gamma_n||_2; the
    rank cut keeps the eigenvalues above TOL_RANK ||Gamma_n||_2 (mask `kept`).
    A non-finite eigenvalue (finite moments whose Gamma_n has a norm past the
    float max) leaves both tolerances undecided: `ValidationError`.
    """
    eigs = m.hankel_eigh[0]
    if not np.isfinite(eigs).all():
        raise ValidationError("Gamma_n has a non-finite eigenvalue: the moments are too "
                              "large for its PSD and rank decisions")
    scale, min_eig = float(np.abs(eigs).max()), float(eigs.min())
    return scale, min_eig, min_eig >= -TOL_PSD * scale, eigs > TOL_RANK * scale


def check_solvability(m: MomentSequence):
    """PSD decision and rank (the kept eigenvalues) of the block Hankel matrix (`_psd_verdict`)."""
    scale, min_eig, solvable, kept = _psd_verdict(m)
    return SolvabilityReport(
        solvable=solvable,
        min_eigenvalue=min_eig,
        rank=int(np.count_nonzero(kept)),
        tolerance_used=TOL_PSD,
    )


def generate_from_measure(mu: DiscreteMatrixMeasure, order: int) -> MomentSequence:
    """Moments S_k = sum_j t_j^k W_j of a discrete measure, k = 0..order (an even integer
    >= 2 whose (order + 1) x J powers t_j^k are at most MAX_POINTS), else `ValidationError`."""
    order = int(numeric(order, int, "order", ndim=0))
    if order < 2 or order % 2:
        raise ValidationError("order must be an even integer >= 2")
    return MomentSequence(_moments(mu, order))  # a non-finite S_k is refused here
