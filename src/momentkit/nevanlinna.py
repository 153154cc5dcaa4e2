"""Evaluation of the linear-fractional transform parametrizing solutions.

For a constant Schur parameter Phi, with s = z + i, zeta = (z-i)/s and
W = V + Phi, the transform R(z) = integral dF(t)/(t - z) is, on all of C+,

    R(z) = 2i/s^4 (K* W)(E - zeta W)^{-1}(V K)
           - [S_0 s^2 + (S_1 + i S_0) s + (S_2 - S_0 + 2i S_1)] / s^3,

K embedding h as the degree-1 class minus i times the degree-0 class: the
paper's 2i/(z^2+1)^2 K* (E - zeta W)^{-1} K less its moment terms, with their
pole at z = i cancelled.  `blocks` (the four blocks of E - zeta W),
`frobenius_topleft` and the dense `direct_oracle` keep the paper's form, as
cross-checks away from i.  Every transform value comes from
`TransformEvaluator`, `transform_matrix` and `evaluate_matrix` included.

An evaluator pays per point the k scalars 1/(lambda_j - w), w = 1/zeta, and a
product with residues from the eigendecomposition of V_mi, in a working buffer
per thread; every evaluator of a model shares that eigendecomposition and K's
legs (`CayleyData.mi_block`) and forms only Phi's columns.  One pass copies the
product less its constant legs to a points-last layout, where the Schur
complement's pivots are eliminated in place, each by one reciprocal, without
pivoting: where |zeta| max(1, ||Phi||) < 1, E - zeta W and so its Schur
complement are strictly accretive (Golub and Van Loan, Linear Algebra Appl.
28, 1979); only the d x d result is scaled by 2i w / s^4.  The 1e12 condition
gates on the M_i block and the Schur complement are settled by proven bounds
where they suffice, else by the exact condition number or a zero pivot; the
M_i block's bound takes ||V_mi|| <= 1 + ISOMETRY_TOL from the isometry gate
that every `CayleyData` passes.

A call runs its blocks with numpy's ufunc buffers at `BUFFER_ENTRIES` entries
instead of numpy's 128 KiB, inside `np.errstate()`: numpy >= 2.0 keeps the
buffer size with the error state, so the caller's is restored on exit, also
on a raise, and no other thread sees it.  The values do not depend on it.
"""

import math
import sys
import threading
import numpy as np

from . import _linalg
from ._linalg import check_condition, cond2, frozen, numeric, quad_form, solve_checked
from .cayley import (CONTRACTION_TOL, ISOMETRY_TOL, CayleyData, SchurParameter,
                     check_evaluation_point, check_parameter, parameter_operator)
from .errors import ConditioningError, DomainError
from .moments import MomentSequence

# bytes of the largest per-point stack in one block of points, whatever the size
# of the caller's array: the (k, k) pencils of the LU fallback (128 points at
# d = 4, 2n = 12, k = 24) and of the M_i gate's exact condition numbers, or on
# the eigen path the larger of f (k entries) and G(w) ((d + d_+)^2), 1,152
# points.  A thread's buffer holds G twice, f and the moment coefficients: 2.9 MB
BLOCK_BYTES = 128 * 24 * 24 * 16
_local = threading.local()  # a thread's working buffer and its views (`_workspace`)

# numpy's ufunc buffer size, in entries, while `_native` runs its blocks: the strided
# and broadcast operands of a block's updates (the points-last copy, the pivot products
# on the points-last Q, `diagonal += w`) are staged through up to three
# buffers, 128 KiB each at numpy's default of 8,192.  In a sweep of the powers of two
# from 16 to 8,192 on a 508-point d = 4, 2n = 12 call (2-vCPU x86), 64 to 1,024 were
# alike and about 15 % faster than 8,192; 256 (4 KiB) is the middle of that range.
# The values do not depend on it: the kernel makes no ufunc reductions
BUFFER_ENTRIES = 256

# largest ||X||_F ||X^{-1}||_F (a bound on cond(X)) for which an evaluator works through
# V_mi = X diag(lambda) X^{-1}; past it (V_mi defective or nearly) it falls back to LU
EIG_COND_LIMIT = 1e3


@frozen
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


@frozen
class NevanlinnaValue:
    """The d x d transform value at one point of the upper half-plane."""

    z: complex
    R: np.ndarray


def _points_per_block(entries):
    """Points, two or more, whose stacks of `entries` complex numbers fit in BLOCK_BYTES."""
    return max(2, BLOCK_BYTES // (16 * entries))


def _workspace(n, k, width):
    """Views of this thread's working buffer for n points, cached per (n, k, width): f
    (k, n), f residues (n, width^2), Q as (width^2, n) and (width, width, n), the pivots'
    steps, last first (Q's pivot, row, column, leading block, the pivot's reciprocal and
    the update's stacks, over f and f residues), the moment coefficients."""
    try:
        return _local.views[n, k, width]
    except AttributeError:  # the thread's first evaluation
        _local.buffer, _local.views = np.empty(0, dtype=complex), {}
    except KeyError:
        pass
    square, size = width * width, n * (2 * width * width + k + 4)
    if _local.buffer.size < size or len(_local.views) == 64:  # 64 bounds the views kept
        _local.buffer, _local.views = np.empty(max(size, _local.buffer.size), dtype=complex), {}
    flat, rest, coef, spare = np.split(_local.buffer[:size], [square * n, size - 4 * n, size - n])
    q = flat.reshape(width, width, n)
    steps = [(q[p, p], q[p, :p], q[:p, p : p + 1], q[:p, :p], spare, rest[: p * n].reshape(p, n),
              rest[p * n : p * (p + 1) * n].reshape(p, p, n)) for p in range(width - 1, -1, -1)]
    _local.views[n, k, width] = (rest[: n * k].reshape(k, n), rest[n * k :].reshape(n, square),
                                 flat.reshape(square, n), q, steps, coef.reshape(n, 3))
    return _local.views[n, k, width]


def _gate_mi(mi, w, zs):
    """|w| at points zs, after the gate on the M_i block -zeta (V_mi - w) at each."""
    # cond(V_mi - w) <= (|w| + b) / (|w| - b) when |w| > b >= ||V_mi||, and the
    # Cayley gate proves b = 1 + ISOMETRY_TOL (|w| > 1 on C+); the exact
    # condition number is needed only where that bound, halved for rounding
    # (c > 1), does not settle the gate: for |w| < b (c + 1) / (c - 1)
    c, aw, k = 0.5 * _linalg.COND_THRESHOLD, np.abs(w), len(mi.v_mi)
    unsettled = aw < (1.0 + ISOMETRY_TOL) * (c + 1.0) / (c - 1.0)
    if k and np.count_nonzero(unsettled):  # cheaper than any() on a few points
        step = _points_per_block(k * k)
        w_u, z_u = w[unsettled], zs[unsettled]
        for start in range(0, w_u.size, step):
            part = slice(start, start + step)
            check_condition(np.linalg.cond(mi.v_mi - w_u[part, None, None] * np.eye(k)),
                            "M_i block too ill-conditioned", z_u[part])
    return aw


def _off_pole(z):
    """z, zeta and w = 1/zeta, refused where w is not finite: at i, the paper's pole."""
    z = check_evaluation_point(z, ndim=0)
    zeta = (z - 1j) / (z + 1j)
    if not (zeta and np.isfinite(1.0 / zeta)):
        raise DomainError(f"z={z} is the pole of the paper's formula; TransformEvaluator takes it")
    return z, zeta, 1.0 / zeta


def blocks(c: CayleyData, p: SchurParameter, z) -> BlockSet:
    """A_hat, B, C, D (see `TransformEvaluator`) and H = D - C A_hat B at z != i.

    A_hat = -(V_mi - w)^{-1} / zeta takes one LU, the others the cached legs
    of `mi_block`; H is gated on its exact condition number `cond_H`.
    """
    z, zeta, w = _off_pole(z)
    check_parameter(c.defect_dims, p)
    mi = c.mi_block
    _gate_mi(mi, np.array([w]), np.array([z]))
    a_hat = -np.linalg.inv(mi.v_mi - w * np.eye(len(mi.v_mi))) / zeta
    b = -zeta * (mi.bn @ p.matrix)
    c_leg = -zeta * mi.nvb
    d = np.eye(p.shape[1]) - zeta * (mi.nn @ p.matrix)
    h = d - c_leg @ a_hat @ b
    cond_h = cond2(h)
    check_condition(cond_h, "Schur complement singular; parameter/point rejected", z)
    return BlockSet(z=z, A_hat=a_hat, B=b, C=c_leg, D=d, H=h, cond_H=cond_h)


def frobenius_topleft(b: BlockSet):
    """Top-left block of the inverse: A_hat + A_hat B H^{-1} C A_hat."""
    check_condition(b.cond_H, "Schur complement too ill-conditioned", b.z)
    return b.A_hat + b.A_hat @ b.B @ np.linalg.solve(b.H, b.C @ b.A_hat)


def transform_matrix(m: MomentSequence, c: CayleyData, p: SchurParameter, z):
    """The d x d matrix G with (G h, h) equal to the transform's quadratic form."""
    return TransformEvaluator(m, c, p).value(z).R


def evaluate_matrix(m: MomentSequence, c: CayleyData, p: SchurParameter, z) -> NevanlinnaValue:
    """Full d x d transform value at a point of the upper half-plane."""
    return TransformEvaluator(m, c, p).value(z)


def direct_oracle(c: CayleyData, p: SchurParameter, m: MomentSequence, z, h) -> complex:
    """The form (R(z) h, h) by dense inversion of E - zeta (V + Phi), in the paper's form."""
    z, zeta, _ = _off_pole(z)
    h = numeric(h, complex, "h", ndim=1)
    full = np.eye(c.space_dim, dtype=complex) - zeta * (c.V + parameter_operator(c, p))
    y = c.K @ h
    resolvent_form = complex(np.vdot(y, solve_checked(full, y, "dense transform")))
    s0, s1, s2 = m.moment(0), m.moment(1), m.moment(2)
    denom = z * z + 1.0
    return (
        2j / denom**2 * resolvent_form
        - 1.0 / ((z - 1j) * denom) * quad_form(s2 + s0, h)
        - 1.0 / denom * quad_form(z * s0 + s1, h)
    )


class TransformEvaluator:
    """Callable z -> R(z) for a fixed model and parameter.

    `z` is a scalar, giving a d x d array, or an array of points, giving the
    values stacked as z.shape + (d, d).  Everything that does not depend on z
    is formed once, at construction.  Points in the lower half-plane are
    served by reflection, R(conj(z)) = R(z)*, extending the formula beyond its
    native domain.  Instances are immutable and safe to share across threads:
    a call works in its thread's buffer (`_workspace`), returning a new array.

    On all of C+, z = i included, a value is within 1e-9 max(1, ||R(z)||) of
    the realization I* (A~ - z)^{-1} I, A~ the inverse Cayley transform of W.

    With U the basis of M_i, N_+ and N_- the defect bases, w = 1/zeta and
    K_mi = U* K, E - zeta W has the blocks -zeta (V_mi - w) on M_i (V_mi =
    U* V U), B = -zeta U* N_- Phi, C = -zeta N_+* V U and D = E - zeta N_+*
    N_- Phi, K* W = [K_mi* V_mi | K_mi* U* N_- Phi] and V K = [V_mi K_mi;
    N_+* V U K_mi], and a point needs

        G(w) = [K_mi* V_mi; N_+* V U] (V_mi - w)^{-1} [V_mi K_mi | U* N_- Phi]:

    the shared `mi_block` holds V_mi, X diag(lambda) X^{-1} and the legs without
    Phi, K's included; an evaluator forms the Phi legs and the rank-one residues
    of G(w) = sum_j residue_j / (lambda_j - w), or solves G by stacked LU where X
    is too ill-conditioned.  Points are taken `block_points` at a time (the path's
    largest per-point stack fills BLOCK_BYTES) on the last axis of Q: G less
    the constant parts of G_12 and G_21, K_mi* U* N_- Phi and N_+* V U K_mi,
    with H / zeta = w E + G_22 - N_+* N_- Phi for G_22.  Next to i, where w
    would overflow, the value is the limit R(i), formed once.
    """

    # |z - i| below which a point takes the limit R(i).  Above it |w| <= 1 + 2 / |z - i| <
    # float max / 7: w + G_22 and 2i w / s^4 are finite, and Q is unscaled in the elimination
    _near_i = 16.0 / sys.float_info.max

    def __init__(self, m: MomentSequence, c: CayleyData, p: SchurParameter):
        check_parameter(c.defect_dims, p)
        mi = self._mi = c.mi_block
        d = self.dim = m.dim
        k, width = len(mi.v_mi), len(mi.left)
        self._right = np.concatenate([mi.vk[:k], mi.bn @ p.matrix], axis=1)
        # V_mi (V_mi - w)^{-1} = E + w (V_mi - w)^{-1}: the constant parts of G_12 and G_21
        constants = np.zeros((width, width), dtype=complex)
        constants[:d, d:], constants[d:, :d], constants[d:, d:] = (
            mi.k_mi.conj().T @ self._right[:, d:], mi.vk[k:], mi.nn @ p.matrix)
        self._constants = constants.reshape(-1, 1)
        self._poles, self._residues = None, None
        if mi.eigvecs_cond <= EIG_COND_LIMIT:  # inf where X is singular
            self._poles = mi.poles
            # residue_j = (left x_j)(y_j right) for the columns x_j of X and the
            # rows y_j of X^{-1}, flattened so that a block of points is one product
            residues = np.einsum("aj,jb->jab", mi.left_eigvecs, mi.eigvecs_inv @ self._right)
            self._residues = residues.reshape(k, width * width)
        per_point = max(k, width) ** 2 if self._poles is None else max(k, width * width)
        self.block_points = _points_per_block(per_point)
        s0, s1, s2 = m.moment(0), m.moment(1), m.moment(2)
        # rows against 1/s, 1/s^2, 1/s^3: a block's moment terms are one product
        self._moment_rows = -np.concatenate([s0, s1 + 1j * s0, s2 - s0 + 2j * s1]).reshape(3, d * d)
        # R(i) = ((K* W)(V K) - poly(2i)) / (2i)^3: the moment rows against (2i)^-k
        kwvk = mi.left[:d] @ self._right[:, :d] + constants[:d, d:] @ constants[d:, :d]
        self._at_i = 0.125j * kwvk + ((-0.5j) ** np.arange(1, 4) @ self._moment_rows).reshape(d, d)

    def _solve(self, zs, w, f, g, flat, q):
        """Q in its view q at checked points zs (at most `block_points`) with finite w, after
        the 1e12 gate on every M_i block and H; whether any H needed its exact condition number."""
        aw = _gate_mi(self._mi, w, zs)
        width = len(q)
        if self._poles is None:
            pencils = np.repeat(self._mi.v_mi[None], zs.size, axis=0)  # no temporary
            pencils.reshape(zs.size, -1)[:, :: len(self._mi.v_mi) + 1] -= w[:, None]
            right = np.broadcast_to(self._right, (zs.size,) + self._right.shape)
            g = (self._mi.left @ np.linalg.solve(pencils, right)).reshape(zs.size, -1)
        else:
            # f points last, a long row per pole; G points first (G.T would round by n)
            np.subtract(self._poles[:, None], w, f)
            np.matmul(np.reciprocal(f, f).T, self._residues, g)
        np.subtract(g.T, self._constants, out=flat)  # the points-last copy
        d = self.dim
        # H / zeta = w E + G_22 - N_+* N_- Phi in place of G_22, with one strided add for w E
        h = q[d:, d:]
        diagonal = flat[d * (width + 1) :: width + 1]
        diagonal += w
        # with t = |zeta| ||V + Phi|| < 1, E - zeta (V + Phi) is strictly
        # accretive: ||H^{-1}|| <= 1/(1-t) (H^{-1} is a block of its inverse)
        # and ||H|| <= (1+t)^2/(1-t), so cond(H) <= ((1+t)/(1-t))^2; the exact
        # condition number is needed only where that bound, halved for rounding
        # and V's isometry defect, does not settle the gate: for |w| < omega
        # (root + 1) / (root - 1), root = sqrt(c), omega = 1 + CONTRACTION_TOL.
        # ||V + Phi|| = max(||V U||, ||Phi||), as V maps M_i into M_-i and Phi
        # N_i into N_-i, its complement; every SchurParameter has ||Phi|| <= omega
        root = math.sqrt(0.5 * _linalg.COND_THRESHOLD)
        unsettled = width > d and aw < (1.0 + CONTRACTION_TOL) * (root + 1.0) / (root - 1.0)
        exact = np.count_nonzero(unsettled) > 0  # no H at all when d_+ = 0
        if exact:
            check_condition(np.linalg.cond(np.moveaxis(h[..., unsettled], -1, 0)),
                            "Schur complement singular; parameter/point rejected", zs[unsettled])
        return exact

    def _native(self, zs):
        """R at checked points zs of the upper half-plane, stacked."""
        n, d, mi = zs.size, self.dim, self._mi
        if n % self.block_points == 1:
            # no block of one point: for one point BLAS takes its matrix-vector
            # kernel and numpy other inner loops, which round differently, so a
            # point's value would depend on the points evaluated with it
            zs = np.concatenate([zs, zs[-1:]])
        out = np.empty((zs.size, d, d), dtype=complex)  # the only array made per call
        # the buffer size is part of the error state from numpy 2.0 on: errstate
        # restores the caller's on exit, also on a raise, and keeps it to this thread
        with np.errstate():
            np.setbufsize(BUFFER_ENTRIES)
            for start in range(0, zs.size, self.block_points):
                z = zs[start : start + self.block_points]
                f, g, flat, q, steps, coef = _workspace(z.size, len(mi.v_mi), len(mi.left))
                s, z_minus = z + 1j, z - 1j
                at_i = np.abs(z_minus) < self._near_i
                if limit := np.count_nonzero(at_i):  # stand-ins (w = 2), replaced by the limit
                    z_minus[at_i] = 1j
                w = s / z_minus
                exact = self._solve(z, w, f, g, flat, q)
                np.divide(1.0, s, out=coef[:, 0])  # coef: 1/s, 1/s^2, 1/s^3
                np.square(coef[:, 0], out=coef[:, 1])
                np.multiply(coef[:, 1], coef[:, 0], out=coef[:, 2])
                # H / zeta's pivots are eliminated in place, last first, without
                # pivoting, each by its reciprocal: H is strictly accretive, so they
                # are nonzero, where the bound settles H's gate (t < 1); elsewhere a
                # zero or non-finite pivot is refused
                for pivot, row, column, lead, inverse, ratio, product in steps[: len(q) - d]:
                    if exact:
                        ok = np.isfinite(pivot) & (pivot != 0)
                        if not ok.all():
                            raise ConditioningError(
                                "Schur complement has a zero or non-finite pivot; parameter/"
                                f"point rejected at z={complex(z[np.argmin(ok)])}")
                    np.reciprocal(pivot, out=inverse)
                    lead -= np.multiply(column, np.multiply(row, inverse, ratio), product)
                # scaled by 2i w / s^4, the Schur complement is -2i/s^4 (K* W)(E - zeta W)^-1 (V K)
                top = q[:d, :d]
                top *= 2j * np.square(coef[:, 1]) * w
                block = out[start : start + z.size]
                np.matmul(coef, self._moment_rows, out=block.reshape(z.size, d * d))
                block -= top.transpose(2, 0, 1)
                if limit:
                    block[at_i] = self._at_i
        return out[:n]

    def value(self, z) -> NevanlinnaValue:
        """R at one point of the upper half-plane, without reflection."""
        z = check_evaluation_point(z, ndim=0)
        return NevanlinnaValue(z=z, R=self._native(np.array([z]))[0])

    def __call__(self, z):
        zs = numeric(z, complex, "z", DomainError)
        flat = zs.reshape(-1)
        finite = np.isfinite(flat)
        if np.count_nonzero(finite & (flat.imag > 0.0)) == flat.size:  # every point in C+
            return self._native(flat).reshape(zs.shape + (self.dim, self.dim))
        lower = finite & (flat.imag < 0.0)  # reflected; any other point is refused as given
        out = self._native(check_evaluation_point(np.where(lower, flat.conj(), flat)))
        out[lower] = out[lower].conj().swapaxes(-1, -2)
        return out.reshape(zs.shape + out.shape[1:])
