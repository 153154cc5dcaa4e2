"""Small dense linear-algebra helpers used throughout the package.

Inner-product convention: (u, v) = v* u, linear in the first argument.
"""

import numpy as np

from .errors import ConditioningError

COND_THRESHOLD = 1e12


def inner(u, v):
    # (u, v) = v* u
    return complex(np.vdot(v, u))


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
