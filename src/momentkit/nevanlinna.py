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
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import COND_THRESHOLD, norm2, quad_form, readonly, solve_checked
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

# points per stacked solve: bounds the working set whatever the size of the
# caller's array (at d = 4, 2n = 12 the M_i pencil is at most 24 x 24, and
# a stack of 128 of them is 1.2 MB)
BLOCK_POINTS = 128


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
    """The z-independent pieces of E - zeta (V + Phi) for one parameter.

    With U the basis of M_i, N_+ and N_- the defect bases and w = 1/zeta,
    the M_i block is -zeta (V_mi - w) for V_mi = U* V U, and B = -zeta
    U* N_- Phi, C = -zeta N_+* V U, D = E - zeta N_+* N_- Phi.
    """

    def __init__(self, c: CayleyData, p: SchurParameter):
        check_parameter(c, p)
        b_mi = c.basis_mi
        self.v_mi = b_mi.conj().T @ c.V @ b_mi
        self.v_norm = norm2(self.v_mi)
        self.bn_phi = (b_mi.conj().T @ c.defect_out_basis) @ p.matrix
        self.nvb = c.defect_in_basis.conj().T @ (c.V @ b_mi)
        self.nn_phi = (c.defect_in_basis.conj().T @ c.defect_out_basis) @ p.matrix

    def solve(self, zs, rhs):
        """Stacked solves at checked points zs (at most BLOCK_POINTS of them).

        Returns zeta, X = (V_mi - w)^{-1} rhs, A_hat B = (V_mi - w)^{-1}
        U* N_- Phi, the Schur complement H = D - C A_hat B and cond(H),
        after the 1e12 condition gate on every M_i block and every H.
        """
        zeta = (zs - 1j) / (zs + 1j)
        w = 1.0 / zeta
        k, d_plus = self.bn_phi.shape
        pencils = np.repeat(self.v_mi[None], zs.size, axis=0)  # one stack, no temporary
        pencils[:, np.arange(k), np.arange(k)] -= w[:, None]
        # cond(V_mi - w) <= (|w| + ||V_mi||) / (|w| - ||V_mi||) when |w| > ||V_mi||
        # (and ||V_mi|| <= 1 < |w| on C+); the exact condition number is needed
        # only where that bound, halved for rounding, does not settle the gate
        aw = np.abs(w)
        unsettled = (aw - self.v_norm) * (0.5 * COND_THRESHOLD) < aw + self.v_norm
        if unsettled.any():
            _gate(np.linalg.cond(pencils[unsettled]), zs[unsettled],
                  "M_i block too ill-conditioned")
        r = rhs.shape[1]
        rhs = np.concatenate([rhs, self.bn_phi], axis=1)
        both = np.linalg.solve(pencils, np.broadcast_to(rhs, (zs.size,) + rhs.shape))
        x, a_b = both[..., :r], both[..., r:]
        h = np.eye(d_plus) - zeta[:, None, None] * (self.nn_phi - self.nvb @ a_b)
        cond_h = np.linalg.cond(h) if d_plus else np.ones(zs.size)
        _gate(cond_h, zs, "Schur complement singular; parameter/point rejected")
        return zeta, x, a_b, h, cond_h


def _topleft_times(a_r, a_b, h, c_a_r):
    """(A_hat + A_hat B H^{-1} C A_hat) R from A_hat R, A_hat B, H, C A_hat R."""
    return a_r + a_b @ np.linalg.solve(h, c_a_r)


def blocks(c: CayleyData, p: SchurParameter, z) -> BlockSet:
    """Assemble A_hat, B, C, D and the Schur complement H at the point z."""
    z = check_evaluation_point(z)
    pc = _Pencil(c, p)
    k, d_plus = pc.bn_phi.shape
    (zeta,), (x,), _, (h,), (cond_h,) = pc.solve(np.array([z]), np.eye(k))
    return BlockSet(z=z, A_hat=-x / zeta, B=-zeta * pc.bn_phi, C=-zeta * pc.nvb,
                    D=np.eye(d_plus) - zeta * pc.nn_phi, H=h, cond_H=float(cond_h))


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
        self._pencil = _Pencil(c, p)
        self._k_mi = c.basis_mi.conj().T @ emb_k.matrix
        self._s0, self._s1 = m.moment(0), m.moment(1)
        self._s2_s0 = m.moment(2) + self._s0

    @property
    def dim(self):
        return self._s0.shape[0]

    def _native(self, zs):
        """R at checked points zs of the upper half-plane, stacked."""
        out = np.empty((zs.size, self.dim, self.dim), dtype=complex)
        for start in range(0, zs.size, BLOCK_POINTS):
            z = zs[start : start + BLOCK_POINTS]
            zeta, x, a_b, h, _ = self._pencil.solve(z, self._k_mi)
            # A_hat K = -w X and C A_hat K = N_+* V U X
            top_k = _topleft_times(-x / zeta[:, None, None], a_b, h,
                                   self._pencil.nvb @ x)
            c_top, c_shift, c_lin = (s[:, None, None] for s in _scales(z))
            out[start : start + z.size] = (
                c_top * (self._k_mi.conj().T @ top_k)
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
