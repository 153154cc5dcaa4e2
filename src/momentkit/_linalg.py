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


def solve_checked(mat, rhs, context, threshold=COND_THRESHOLD):
    """Solve mat @ x = rhs with a condition-number gate."""
    if mat.shape[0] == 0:
        return np.zeros(mat.shape[:1] + rhs.shape[1:], dtype=complex)
    cond = cond2(mat)
    if not np.isfinite(cond) or cond > threshold:
        raise ConditioningError(f"{context}: system too ill-conditioned", cond)
    return np.linalg.solve(mat, rhs)


def readonly(arr):
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


def orth_columns(mat, rtol=1e-12):
    """Orthonormal basis of the column space of `mat`: sigma > rtol * sigma_max."""
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, s > rtol * s[0]]


def canonicalize_columns(basis, decimals=10):
    """Deterministic representative of an orthonormal column set.

    Each column is rotated so its largest-modulus entry is real positive,
    then columns are ordered lexicographically on rounded coordinates.
    Keeps defect-space bases reproducible across runs.
    """
    basis = np.array(basis, dtype=complex)
    for j in range(basis.shape[1]):
        col = basis[:, j]
        pivot = col[np.argmax(np.abs(col))]
        if abs(pivot) > 0:
            basis[:, j] = col * (abs(pivot) / pivot)
    keys = np.round(np.concatenate([basis.real, basis.imag]), decimals)
    order = sorted(range(basis.shape[1]), key=lambda j: tuple(keys[:, j]))
    return basis[:, order]


def projector_range(proj):
    """Canonical orthonormal basis of the range of an orthogonal projector.

    Eigenvalues of a projector cluster at 0 and 1; keep eigenvectors with
    eigenvalue > 1/2 (descending eigenvalue, then the canonical column
    ordering as the tie-break).
    """
    w, u = np.linalg.eigh(herm(proj))
    cols = u[:, w > 0.5][:, ::-1]
    return canonicalize_columns(cols)
