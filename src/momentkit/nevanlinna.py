"""Evaluation of the linear-fractional transform parametrizing solutions.

For z in the upper half-plane (away from i) and a constant Schur parameter,
the quadratic form of the transform R(z) = integral dF(t)/(t - z) is

    (R(z) h, h) = 2i/(z^2+1)^2 * (K* T_z K h, h)
                  - 1/((z-i)(z^2+1)) * ((S_2 + S_0) h, h)
                  - 1/(z^2+1) * ((z S_0 + S_1) h, h),

where T_z is the top-left block (on M_i) of the inverse of
E - zeta (V + Phi), zeta = (z-i)/(z+i), obtained through the block
(Frobenius/Schur-complement) inversion, and K embeds h as the degree-1
class minus i times the degree-0 class.  `direct_oracle` recomputes the
same value by dense inversion without the block decomposition and exists
purely as a cross-check.  Every other evaluation, `blocks`,
`frobenius_topleft` and `transform_matrix` included, runs through one
stacked routine over arrays of z.

The M_i block, -zeta (V_mi - w) with w = 1/zeta, depends on z only through
the scalar w.  V_mi is diagonalized once per Cayley data (`CayleyData.mi_block`,
shared by every parameter and evaluator on one model), so each point costs
the k scalars 1/(lambda_j - w) and a product with precomputed residues,
with no factorization; a V_mi too far from diagonalizable is solved by
stacked LU instead.  The 1e12 condition gates on the M_i block and on the
Schur complement are settled by proven bounds where those suffice, and by
the exact condition number elsewhere.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import COND_THRESHOLD, cond2, quad_form, readonly, solve_checked
from .cayley import (
    CayleyData,
    SchurParameter,
    check_evaluation_point,
    check_parameter,
    parameter_operator,
)
from .errors import ConditioningError
from .gramspace import EmbeddingK, GramSpace, build_embeddings
from .moments import MomentSequence

# points per stacked evaluation: bounds the working set whatever the size
# of the caller's array (the largest piece is the (points, k, k) pencil
# stack of the LU fallback, 1.2 MB at k = 24 for d = 4, 2n = 12)
BLOCK_POINTS = 128

# largest ||X||_F ||X^{-1}||_F, an upper bound on cond(X), for which a pencil
# evaluates through the eigendecomposition V_mi = X diag(lambda) X^{-1};
# past it (V_mi defective or close to it) the pencil falls back to LU
EIG_COND_LIMIT = 1e3


@dataclass(frozen=True)
class BlockSet:
    """Blocks of E - zeta (V + Phi) in the M_i / N_i splitting.

    `A_hat` is the inverse of the M_i block, expressed in the orthonormal
    basis of M_i; `B`, `C`, `D` use the defect bases for N_i legs.
    """

    z: complex
    A_hat: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    H: np.ndarray
    cond_H: float

    def __post_init__(self):
        for name in ("A_hat", "B", "C", "D", "H"):
            object.__setattr__(self, name, readonly(getattr(self, name)))


@dataclass(frozen=True)
class NevanlinnaValue:
    """The d x d transform value at one point of the upper half-plane."""

    z: complex
    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "R", readonly(self.R))


def _gate(conds, zs, what):
    """ConditioningError at the first point whose condition number fails."""
    bad = ~(conds <= COND_THRESHOLD)
    if bad.any():
        j = int(np.argmax(bad))
        raise ConditioningError(f"{what} at z={complex(zs[j])}", conds[j])


class _Pencil:
    """E - zeta (V + Phi) for one parameter and the caller's fixed L and R.

    With U the basis of M_i, N_+ and N_- the defect bases and w = 1/zeta,
    the M_i block is -zeta (V_mi - w) for V_mi = U* V U, and B = -zeta
    U* N_- Phi, C = -zeta N_+* V U, D = E - zeta N_+* N_- Phi.  For the
    fixed `left` L and `right` R of the caller, everything a point needs is

        G(w) = [L; N_+* V U] (V_mi - w)^{-1} [R | U* N_- Phi],

    whose blocks are -zeta L A_hat R, L A_hat B, C A_hat R and -C A_hat B /
    zeta (A_hat = (M_i block)^{-1}).  V_mi, its eigendecomposition
    X diag(lambda) X^{-1} and the legs without Phi come from the Cayley
    data's `mi_block`, computed once per Cayley data and shared by every
    pencil on it; a pencil forms only the Phi legs and the rank-one
    residues of G(w) = sum_j residue_j / (lambda_j - w).  When X is too
    ill-conditioned for that, G is solved by stacked LU instead.
    """

    def __init__(self, c: CayleyData, p: SchurParameter, left, right):
        check_parameter(c, p)
        mi = c.mi_block
        self.v_mi, self.v_norm, self.nvb = mi.v_mi, mi.v_norm, mi.nvb
        # ||V + Phi||: V is isometric on M_i and Phi maps N_i into N_-i,
        # which is orthogonal to the range M_-i of V
        self.omega = max(1.0, p.norm)
        self.bn_phi = mi.bn @ p.matrix
        self.nn_phi = mi.nn @ p.matrix
        self.left = np.concatenate([left, self.nvb])
        self.right = np.concatenate([right, self.bn_phi], axis=1)
        self.split = left.shape[0], right.shape[1]
        self.poles, self.residues = None, None
        if mi.eigvecs_inv is None or not mi.eigvecs_cond <= EIG_COND_LIMIT:
            return
        self.poles = mi.poles
        # residue_j = (left x_j)(y_j right) for the columns x_j of X and the
        # rows y_j of X^{-1}, flattened so that a block of points is one product
        self.residues = np.einsum(
            "aj,jb->jab", self.left @ mi.eigvecs, mi.eigvecs_inv @ self.right
        ).reshape(self.poles.size, self.left.shape[0] * self.right.shape[1])

    def solve(self, zs):
        """G(w) and H at checked points zs (at most BLOCK_POINTS of them).

        Returns zeta, the stacked G(1/zeta) and the Schur complement
        H = D - C A_hat B, after the 1e12 condition gate on every M_i block
        and every H.
        """
        zeta = (zs - 1j) / (zs + 1j)
        w = 1.0 / zeta
        k = self.v_mi.shape[0]
        # cond(V_mi - w) <= (|w| + ||V_mi||) / (|w| - ||V_mi||) when |w| > ||V_mi||
        # (and ||V_mi|| <= 1 < |w| on C+); the exact condition number is needed
        # only where that bound, halved for rounding, does not settle the gate
        aw = np.abs(w)
        unsettled = (aw - self.v_norm) * (0.5 * COND_THRESHOLD) < aw + self.v_norm
        if unsettled.any():
            _gate(np.linalg.cond(self.v_mi - w[unsettled, None, None] * np.eye(k)),
                  zs[unsettled], "M_i block too ill-conditioned")
        if self.poles is None:
            pencils = np.repeat(self.v_mi[None], zs.size, axis=0)  # one stack, no temporary
            pencils[:, np.arange(k), np.arange(k)] -= w[:, None]
            right = np.broadcast_to(self.right, (zs.size,) + self.right.shape)
            g = self.left @ np.linalg.solve(pencils, right)
        else:
            f = 1.0 / (self.poles - w[:, None])
            g = (f @ self.residues).reshape(zs.size, self.left.shape[0], self.right.shape[1])
        rows, cols = self.split
        d_plus = self.nn_phi.shape[0]
        h = np.eye(d_plus) - zeta[:, None, None] * (self.nn_phi - g[:, rows:, cols:])
        # with t = |zeta| ||V + Phi|| < 1, E - zeta (V + Phi) is strictly
        # accretive: ||H^{-1}|| <= 1/(1-t) (H^{-1} is a block of its inverse)
        # and ||H|| <= (1+t)^2/(1-t), so cond(H) <= ((1+t)/(1-t))^2; the exact
        # condition number is needed only where that bound, halved for
        # rounding, does not settle the gate
        t = np.abs(zeta) * self.omega
        unsettled = 1.0 + t > np.sqrt(0.5 * COND_THRESHOLD) * (1.0 - t)
        if d_plus and unsettled.any():
            _gate(np.linalg.cond(h[unsettled]), zs[unsettled],
                  "Schur complement singular; parameter/point rejected")
        return zeta, g, h


def _topleft_times(l_a_r, l_a_b, h, c_a_r):
    """L (A_hat + A_hat B H^{-1} C A_hat) R from L A_hat R, L A_hat B, H, C A_hat R."""
    return l_a_r + l_a_b @ np.linalg.solve(h, c_a_r)


def blocks(c: CayleyData, p: SchurParameter, z) -> BlockSet:
    """Assemble A_hat, B, C, D and the Schur complement H at the point z."""
    z = check_evaluation_point(z)
    eye = np.eye(c.basis_mi.shape[1])
    pc = _Pencil(c, p, eye, eye)
    (zeta,), (g,), (h,) = pc.solve(np.array([z]))
    k, d_plus = pc.bn_phi.shape
    return BlockSet(z=z, A_hat=-g[:k, :k] / zeta, B=-zeta * pc.bn_phi, C=-zeta * pc.nvb,
                    D=np.eye(d_plus) - zeta * pc.nn_phi, H=h, cond_H=cond2(h))


def frobenius_topleft(b: BlockSet):
    """Top-left block of the inverse: A_hat + A_hat B H^{-1} C A_hat."""
    _gate(np.array([b.cond_H]), [b.z], "Schur complement too ill-conditioned")
    return _topleft_times(
        b.A_hat[None], (b.A_hat @ b.B)[None], b.H[None], (b.C @ b.A_hat)[None]
    )[0]


def _scales(z):
    denom = z * z + 1.0
    return 2j / denom**2, 1.0 / ((z - 1j) * denom), 1.0 / denom


def transform_matrix(m: MomentSequence, g: GramSpace, c: CayleyData,
                     p: SchurParameter, z):
    """The d x d matrix G with (G h, h) equal to the transform's quadratic form."""
    z = check_evaluation_point(z)
    _, emb_k = build_embeddings(g)
    return TransformEvaluator(m, c, emb_k, p)._native(np.array([z]))[0]


def evaluate_form(m: MomentSequence, g: GramSpace, c: CayleyData,
                  p: SchurParameter, z, h) -> complex:
    """Quadratic form (R(z) h, h) of the transform at z."""
    h = np.asarray(h, dtype=complex).reshape(-1)
    return quad_form(transform_matrix(m, g, c, p, z), h)


def evaluate_matrix(m: MomentSequence, g: GramSpace, c: CayleyData,
                    p: SchurParameter, z) -> NevanlinnaValue:
    """Full d x d transform value at a point of the upper half-plane."""
    return NevanlinnaValue(z=complex(z), R=transform_matrix(m, g, c, p, z))


def direct_oracle(c: CayleyData, p: SchurParameter, m: MomentSequence,
                  g: GramSpace, z, h) -> complex:
    """Same value as evaluate_form via dense inversion of E - zeta (V + Phi)."""
    z = check_evaluation_point(z)
    h = np.asarray(h, dtype=complex).reshape(-1)
    zeta = (z - 1j) / (z + 1j)
    full = np.eye(c.space_dim, dtype=complex) - zeta * (c.V + parameter_operator(c, p))
    _, emb_k = build_embeddings(g)
    y = emb_k.matrix @ h
    resolvent_form = complex(np.vdot(y, solve_checked(full, y, "dense transform")))
    s0, s1, s2 = m.moment(0), m.moment(1), m.moment(2)
    c_top, c_shift, c_lin = _scales(z)
    return (
        c_top * resolvent_form
        - c_shift * quad_form(s2 + s0, h)
        - c_lin * quad_form(z * s0 + s1, h)
    )


class TransformEvaluator:
    """Callable z -> R(z) for a fixed model and parameter.

    `z` is a scalar, giving a d x d array, or an array of points, giving
    the values stacked as z.shape + (d, d).  Everything that does not
    depend on z is formed once, at construction.  Points in the lower
    half-plane are served by reflection, R(conj(z)) = R(z)*, extending the
    formula beyond its native domain.  Instances are immutable and safe to
    share across threads.
    """

    def __init__(self, m: MomentSequence, c: CayleyData, emb_k: EmbeddingK,
                 p: SchurParameter):
        k_mi = c.basis_mi.conj().T @ emb_k.matrix
        self._pencil = _Pencil(c, p, k_mi.conj().T, k_mi)
        self._s0, self._s1 = m.moment(0), m.moment(1)
        self._s2_s0 = m.moment(2) + self._s0

    @property
    def dim(self):
        return self._s0.shape[0]

    def _native(self, zs):
        """R at checked points zs of the upper half-plane, stacked."""
        d = self.dim
        out = np.empty((zs.size, d, d), dtype=complex)
        for start in range(0, zs.size, BLOCK_POINTS):
            z = zs[start : start + BLOCK_POINTS]
            zeta, g, h = self._pencil.solve(z)
            top = _topleft_times(-g[:, :d, :d] / zeta[:, None, None], g[:, :d, d:],
                                 h, g[:, d:, :d])
            c_top, c_shift, c_lin = (s[:, None, None] for s in _scales(z))
            out[start : start + z.size] = (
                c_top * top
                - c_shift * self._s2_s0
                - c_lin * (z[:, None, None] * self._s0 + self._s1)
            )
        return out

    def value(self, z) -> NevanlinnaValue:
        """R at one point of the upper half-plane, without reflection."""
        z = check_evaluation_point(z)
        return NevanlinnaValue(z=z, R=self._native(np.array([z]))[0])

    def __call__(self, z):
        zs = np.asarray(z, dtype=complex)
        flat = zs.reshape(-1)
        lower = flat.imag < 0
        out = self._native(check_evaluation_point(np.where(lower, flat.conj(), flat)))
        out[lower] = out[lower].conj().swapaxes(-1, -2)
        return out.reshape(zs.shape + out.shape[1:])
