"""Evaluation of the linear-fractional transform parametrizing solutions.

For z in the upper half-plane (away from i) and a constant Schur parameter,
the quadratic form of the transform R(z) = integral dF(t)/(t - z) is

    (R(z) h, h) = 2i/(z^2+1)^2 * (K* T_z K h, h)
                  - 1/((z-i)(z^2+1)) * ((S_2 + S_0) h, h)
                  - 1/(z^2+1) * ((z S_0 + S_1) h, h),

where T_z is the top-left block (on M_i) of the inverse of
E - zeta (V + Phi), zeta = (z-i)/(z+i), obtained through the block
(Frobenius/Schur-complement) inversion, and K embeds h as the degree-1
class minus i times the degree-0 class.  `blocks` forms the four blocks
at one point and `frobenius_topleft` combines them into T_z; `direct_oracle`
recomputes the form by dense inversion, purely as a cross-check.  Every
transform value comes from `TransformEvaluator`'s stacked routine over
arrays of z, `transform_matrix` and `evaluate_matrix` included.

The M_i block, -zeta (V_mi - w) with w = 1/zeta, depends on z only through
the scalar w.  V_mi is diagonalized once per Cayley data (`CayleyData.mi_block`,
shared by every evaluator on one model), so an evaluator pays per point the k
scalars 1/(lambda_j - w) and a product with precomputed residues (a stacked LU
where V_mi is far from diagonalizable), in a working buffer per thread: a call
allocates only its result.  With the points on the last axis it eliminates the
Schur complement's pivots in place, without pivoting: where |zeta| max(1,
||Phi||) < 1, E - zeta (V + Phi) and so its Schur complement are strictly
accretive (Golub and Van Loan, Linear Algebra Appl. 28, 1979).  The 1e12
condition gates on the M_i block and the Schur complement are settled by proven
bounds where they suffice, else by the exact condition number or a zero pivot;
the M_i block's bound takes ||V_mi|| <= 1 + ISOMETRY_TOL from the isometry gate
that every `CayleyData` passes.
"""

import math
import threading
import numpy as np

from ._linalg import COND_THRESHOLD, cond2, frozen, quad_form, solve_checked
from .cayley import (
    ISOMETRY_TOL,
    CayleyData,
    SchurParameter,
    check_evaluation_point,
    check_parameter,
    parameter_operator,
)
from .errors import ConditioningError
from .gramspace import EmbeddingK, GramSpace, build_embeddings
from .moments import MomentSequence

# bytes of the largest per-point stack in one block of points, whatever the
# size of the caller's array: the (k, k) pencils of the LU fallback (128
# points at d = 4, 2n = 12, k = 24), or on the eigen path the larger of f (k
# entries) and G(w) ((d + d_+)^2), 1,152 points.  A thread's working buffer
# holds G twice, f and the moment coefficients of its largest block: 2.9 MB
# at d = 4, 2n = 12.  The M_i gate's exact condition numbers, where its bound
# does not settle, stack k x k like the LU pencils
BLOCK_BYTES = 128 * 24 * 24 * 16
_local = threading.local()  # a thread's working buffer and its views (`_workspace`)

# largest ||X||_F ||X^{-1}||_F, an upper bound on cond(X), for which an
# evaluator works through the eigendecomposition V_mi = X diag(lambda) X^{-1};
# past it (V_mi defective or close to it) the evaluator falls back to LU
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
    """Views of this thread's working buffer for n points, cached per (n, k, width).

    f (n, k), f residues (n, width^2), Q as (width^2, n) and (width, width, n),
    the pivots' steps, last first (Q's pivot, row, column, leading block and
    the stacks of the update, over f and f residues), the moment coefficients.
    """
    try:
        return _local.views[n, k, width]
    except AttributeError:  # the thread's first evaluation
        _local.buffer, _local.views = np.empty(0, dtype=complex), {}
    except KeyError:
        pass
    square, size = width * width, n * (2 * width * width + k + 3)
    if _local.buffer.size < size or len(_local.views) == 64:  # 64 bounds the views kept
        _local.buffer, _local.views = np.empty(max(size, _local.buffer.size), dtype=complex), {}
    flat, rest, coef = np.split(_local.buffer[:size], [square * n, size - 3 * n])
    q = flat.reshape(width, width, n)
    steps = [(q[p, p], q[p, :p], q[:p, p : p + 1], q[:p, :p], rest[: p * n].reshape(p, n),
              rest[p * n : p * (p + 1) * n].reshape(p, p, n)) for p in range(width - 1, -1, -1)]
    _local.views[n, k, width] = (rest[: n * k].reshape(n, k), rest[n * k :].reshape(n, square),
                                 flat.reshape(square, n), q, steps, coef.reshape(n, 3))
    return _local.views[n, k, width]


def _gate(conds, zs, what):
    """ConditioningError at the first point whose condition number fails."""
    bad = ~(conds <= COND_THRESHOLD)
    if bad.any():
        j = int(np.argmax(bad))
        raise ConditioningError(f"{what} at z={complex(zs[j])}", conds[j])


def _gated_zeta(mi, zs):
    """z - i, zeta, w = 1/zeta, |w| at points zs, after the gate on -zeta (V_mi - w)."""
    z_minus = zs - 1j
    zeta = z_minus / (zs + 1j)
    w = 1.0 / zeta
    # cond(V_mi - w) <= (|w| + b) / (|w| - b) when |w| > b >= ||V_mi||, and the
    # Cayley gate proves b = 1 + ISOMETRY_TOL (|w| > 1 on C+); the exact
    # condition number is needed only where that bound, halved for rounding
    # (c > 1), does not settle the gate: for |w| < b (c + 1) / (c - 1)
    c, aw, k = 0.5 * COND_THRESHOLD, np.abs(w), len(mi.v_mi)
    unsettled = aw < (1.0 + ISOMETRY_TOL) * (c + 1.0) / (c - 1.0)
    if k and np.count_nonzero(unsettled):  # cheaper than any() on a few points
        step = _points_per_block(k * k)
        w_u, z_u = w[unsettled], zs[unsettled]
        for start in range(0, w_u.size, step):
            part = slice(start, start + step)
            _gate(np.linalg.cond(mi.v_mi - w_u[part, None, None] * np.eye(k)),
                  z_u[part], "M_i block too ill-conditioned")
    return z_minus, zeta, w, aw


def blocks(c: CayleyData, p: SchurParameter, z) -> BlockSet:
    """A_hat, B, C, D (see `TransformEvaluator`) and H = D - C A_hat B at z.

    A_hat = -(V_mi - w)^{-1} / zeta takes one LU, the others the cached legs
    of `mi_block`; H is gated on its exact condition number `cond_H`.
    """
    z = check_evaluation_point(z)
    check_parameter(c, p)
    mi = c.mi_block
    _, (zeta,), (w,), _ = _gated_zeta(mi, np.array([z]))
    a_hat = -np.linalg.inv(mi.v_mi - w * np.eye(len(mi.v_mi))) / zeta
    b = -zeta * (mi.bn @ p.matrix)
    c_leg = -zeta * mi.nvb
    d = np.eye(p.shape[1]) - zeta * (mi.nn @ p.matrix)
    h = d - c_leg @ a_hat @ b
    cond_h = cond2(h)
    _gate(np.array([cond_h]), [z], "Schur complement singular; parameter/point rejected")
    return BlockSet(z=z, A_hat=a_hat, B=b, C=c_leg, D=d, H=h, cond_H=cond_h)


def frobenius_topleft(b: BlockSet):
    """Top-left block of the inverse: A_hat + A_hat B H^{-1} C A_hat."""
    _gate(np.array([b.cond_H]), [b.z], "Schur complement too ill-conditioned")
    return b.A_hat + b.A_hat @ b.B @ np.linalg.solve(b.H, b.C @ b.A_hat)


def transform_matrix(m: MomentSequence, g: GramSpace, c: CayleyData,
                     p: SchurParameter, z):
    """The d x d matrix G with (G h, h) equal to the transform's quadratic form."""
    return TransformEvaluator(m, c, build_embeddings(g)[1], p).value(z).R


def evaluate_matrix(m: MomentSequence, g: GramSpace, c: CayleyData,
                    p: SchurParameter, z) -> NevanlinnaValue:
    """Full d x d transform value at a point of the upper half-plane."""
    return TransformEvaluator(m, c, build_embeddings(g)[1], p).value(z)


def direct_oracle(c: CayleyData, p: SchurParameter, m: MomentSequence,
                  g: GramSpace, z, h) -> complex:
    """The form (R(z) h, h) by dense inversion of E - zeta (V + Phi)."""
    z = check_evaluation_point(z)
    h = np.asarray(h, dtype=complex).reshape(-1)
    zeta = (z - 1j) / (z + 1j)
    full = np.eye(c.space_dim, dtype=complex) - zeta * (c.V + parameter_operator(c, p))
    _, emb_k = build_embeddings(g)
    y = emb_k.matrix @ h
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

    With U the basis of M_i, N_+ and N_- the defect bases, w = 1/zeta and
    K_mi = U* K, the M_i block of E - zeta (V + Phi) is -zeta (V_mi - w)
    for V_mi = U* V U, and B = -zeta U* N_- Phi, C = -zeta N_+* V U,
    D = E - zeta N_+* N_- Phi.  Everything a point needs is

        G(w) = [K_mi*; N_+* V U] (V_mi - w)^{-1} [K_mi | U* N_- Phi],

    whose blocks are -zeta K_mi* A_hat K_mi, K_mi* A_hat B, C A_hat K_mi
    and -C A_hat B / zeta (A_hat = (M_i block)^{-1}).  V_mi, its
    eigendecomposition X diag(lambda) X^{-1} and the legs without Phi come
    from the shared `mi_block`; an evaluator forms only the Phi legs and the
    rank-one residues of G(w) = sum_j residue_j / (lambda_j - w), or solves
    G by stacked LU where X is too ill-conditioned.  Points are taken
    `block_points` at a time, the length at which the path's largest
    per-point stack fills BLOCK_BYTES, and put on the last axis of
    Q = [[G_11, G_12], [G_21, H / zeta]]: eliminating the pivots of
    H / zeta = w E + G_22 - N_+* N_- Phi leaves -K_mi* T K_mi / w.
    """

    def __init__(self, m: MomentSequence, c: CayleyData, emb_k: EmbeddingK,
                 p: SchurParameter):
        k_mi = c.basis_mi.conj().T @ emb_k.matrix
        check_parameter(c, p)
        mi = self._mi = c.mi_block
        # ||V + Phi||: V is isometric on M_i and Phi maps N_i into N_-i,
        # which is orthogonal to the range M_-i of V
        self._omega = max(1.0, p.norm)
        self._nn_phi = (mi.nn @ p.matrix)[..., None]  # points last
        self._left = np.concatenate([k_mi.conj().T, mi.nvb])
        self._right = np.concatenate([k_mi, mi.bn @ p.matrix], axis=1)
        self._poles, self._residues = None, None
        if mi.eigvecs_inv is not None and mi.eigvecs_cond <= EIG_COND_LIMIT:
            self._poles = mi.poles
            # residue_j = (left x_j)(y_j right) for the columns x_j of X and the
            # rows y_j of X^{-1}, flattened so that a block of points is one product
            self._residues = np.einsum(
                "aj,jb->jab", self._left @ mi.eigvecs, mi.eigvecs_inv @ self._right
            ).reshape(self._poles.size, self._left.shape[0] * self._right.shape[1])
        k, width = len(mi.v_mi), len(self._left)
        per_point = max(k, width) ** 2 if self._poles is None else max(k, width * width)
        self.block_points = _points_per_block(per_point)
        self._dim = m.dim
        s0 = m.moment(0)
        # rows -(S_2 + S_0), -S_0, -S_1: a block's moment terms are one product
        self._moment_rows = -np.concatenate([m.moment(2) + s0, s0, m.moment(1)]).reshape(
            3, m.dim**2)

    @property
    def dim(self):
        return self._dim

    def _solve(self, zs, f, g, flat, q):
        """z - i and w at checked points zs (at most `block_points`), Q filled in its view q.

        With whether any Schur complement H = D - C A_hat B needed its exact
        condition number, after the 1e12 gate on every M_i block and every H.
        """
        z_minus, _, w, aw = _gated_zeta(self._mi, zs)
        width = len(q)
        if self._poles is None:
            pencils = np.repeat(self._mi.v_mi[None], zs.size, axis=0)  # no temporary
            pencils.reshape(zs.size, -1)[:, :: len(self._mi.v_mi) + 1] -= w[:, None]
            right = np.broadcast_to(self._right, (zs.size,) + self._right.shape)
            g = (self._left @ np.linalg.solve(pencils, right)).reshape(zs.size, -1)
        else:
            # points first: the transposed product rounds by the number of points
            np.subtract(self._poles, w[:, None], f)
            np.matmul(np.divide(1.0, f, f), self._residues, g)
        flat[...] = g.T
        d = self.dim
        # H / zeta in place of G_22, with one strided add for w E
        h = q[d:, d:]
        h -= self._nn_phi
        diagonal = flat[d * (width + 1) :: width + 1]
        diagonal += w
        # with t = |zeta| ||V + Phi|| < 1, E - zeta (V + Phi) is strictly
        # accretive: ||H^{-1}|| <= 1/(1-t) (H^{-1} is a block of its inverse)
        # and ||H|| <= (1+t)^2/(1-t), so cond(H) <= ((1+t)/(1-t))^2; the exact
        # condition number is needed only where that bound, halved for
        # rounding, does not settle the gate: with t = ||V + Phi|| / |w|, for
        # |w| < ||V + Phi|| (root + 1) / (root - 1), root = sqrt(c)
        root = math.sqrt(0.5 * COND_THRESHOLD)
        unsettled = width > d and aw < self._omega * (root + 1.0) / (root - 1.0)
        exact = np.count_nonzero(unsettled) > 0  # no H at all when d_+ = 0
        if exact:
            _gate(np.linalg.cond(np.moveaxis(h[..., unsettled], -1, 0)), zs[unsettled],
                  "Schur complement singular; parameter/point rejected")
        return z_minus, w, exact

    def _native(self, zs):
        """R at checked points zs of the upper half-plane, stacked."""
        n, d = zs.size, self.dim
        if n % self.block_points == 1:
            # no block of one point: for one point BLAS takes its matrix-vector
            # kernel and numpy other inner loops, which round differently.
            # Near z = i the terms of R grow like |z - i|^-3 and cancel, so a
            # point's value would depend on the points evaluated with it
            zs = np.concatenate([zs, zs[-1:]])
        out = np.empty((zs.size, d, d), dtype=complex)  # the only array made per call
        for start in range(0, zs.size, self.block_points):
            z = zs[start : start + self.block_points]
            f, g, flat, q, steps, coef = _workspace(z.size, len(self._mi.v_mi), len(self._left))
            z_minus, w, exact = self._solve(z, f, g, flat, q)
            denom = z * z + 1.0  # coef: c_shift, c_lin z, c_lin
            c_lin = np.divide(1.0, denom, out=coef[:, 2])
            np.multiply(c_lin, z, out=coef[:, 1])
            np.divide(1.0, z_minus * denom, out=coef[:, 0])
            # scaled by c_top w = 2i w / (z^2+1)^2, Q's leading rows make the
            # Schur complement -c_top K_mi* T K_mi.  H / zeta's pivots are
            # eliminated in place, last first, without pivoting: H is strictly
            # accretive, so they are nonzero, where the bound settles H's gate
            # (t < 1); elsewhere a zero or non-finite pivot is refused
            leading = q[:d]
            leading *= 2j / np.square(denom) * w
            for pivot, row, column, lead, ratio, product in steps[: len(q) - d]:
                if exact:
                    ok = np.isfinite(pivot) & (pivot != 0)
                    if not ok.all():
                        raise ConditioningError(
                            "Schur complement has a zero or non-finite pivot; parameter/"
                            f"point rejected at z={complex(z[np.argmin(ok)])}")
                lead -= np.multiply(column, np.divide(row, pivot, ratio), product)
            # -c_shift (S_2 + S_0) - c_lin (z S_0 + S_1) at every point
            block = out[start : start + z.size]
            np.matmul(coef, self._moment_rows, out=block.reshape(z.size, d * d))
            block -= q[:d, :d].transpose(2, 0, 1)
        return out[:n]

    def value(self, z) -> NevanlinnaValue:
        """R at one point of the upper half-plane, without reflection."""
        z = check_evaluation_point(z)
        return NevanlinnaValue(z=z, R=self._native(np.array([z]))[0])

    def __call__(self, z):
        zs = np.asarray(z, dtype=complex)
        flat = zs.reshape(-1)
        lower = flat.imag < 0.0
        reflect = np.count_nonzero(lower)
        if reflect:
            lower &= np.isfinite(flat)  # a non-finite point is refused as given
            flat = np.where(lower, flat.conj(), flat)
        out = self._native(check_evaluation_point(flat))
        if reflect:
            out[lower] = out[lower].conj().swapaxes(-1, -2)
        return out.reshape(zs.shape + out.shape[1:])
