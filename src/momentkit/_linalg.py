"""Small dense linear-algebra helpers used throughout the package.

Inner-product convention: (u, v) = v* u, linear in the first argument.
"""

import numpy as np

from .errors import ConditioningError

COND_THRESHOLD = 1e12


def quad_form(mat, h):
    # (M h, h) = h* M h
    return complex(np.vdot(h, mat @ h))


def herm(mat):
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def herm_defect(mat):
    return np.linalg.norm(mat - mat.conj().swapaxes(-1, -2), axis=(-2, -1))


def imag_part(mat):
    # (M - M*) / 2i; Hermitian for any square M, or a stack of them
    return (mat - mat.conj().swapaxes(-1, -2)) / 2j


def norm2(mat):
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


def gate_norm(mat, bound):
    """||mat||_2 for the gate `gate_norm(mat, bound) > bound`, without an SVD where it passes.

    ||mat||_F >= ||mat||_2, so a Frobenius norm at most half the bound
    (halved for rounding) is returned as it is: it already passes the gate.
    Elsewhere the exact 2-norm is returned, so the gate's verdict, and the
    value a failing gate reports, are those of `norm2`.  A NaN or infinite
    entry gives inf, which fails the gate.
    """
    frob = float(np.linalg.norm(mat))
    if frob <= 0.5 * bound:
        return frob
    return norm2(mat) if np.isfinite(frob) else np.inf


def norm2_within(mat, bound):
    """The verdict `norm2(mat) <= bound`, with an SVD only where Frobenius bounds leave it open.

    ||mat||_F / sqrt(r) <= ||mat||_2 <= ||mat||_F with r = min(mat.shape),
    so a Frobenius norm at most half the bound passes, and one above twice
    sqrt(r) times the bound fails (the factors of 2 absorb rounding).  A
    NaN or infinite entry fails.
    """
    frob = float(np.linalg.norm(mat))
    if frob <= 0.5 * bound:
        return True
    if not frob <= 2.0 * np.sqrt(min(mat.shape)) * bound:
        return False
    return norm2(mat) <= bound


def cond2(mat):
    if mat.shape[0] == 0:
        return 1.0
    return float(np.linalg.cond(mat))


def solve_checked(mat, rhs, context):
    """Solve mat @ x = rhs with a condition-number gate."""
    if mat.shape[0] == 0:
        return np.zeros(mat.shape[:1] + rhs.shape[1:], dtype=complex)
    cond = cond2(mat)
    if not np.isfinite(cond) or cond > COND_THRESHOLD:
        raise ConditioningError(f"{context}: system too ill-conditioned", cond)
    return np.linalg.solve(mat, rhs)


def readonly(arr):
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out
