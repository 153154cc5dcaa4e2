"""Small dense linear-algebra helpers used throughout the package.

Inner-product convention: (u, v) = v* u, linear in the first argument.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConditioningError, ValidationError

COND_THRESHOLD = 1e12
TOL_HERM = 1e-10
TOL_PSD = 1e-10
MAX_POINTS = 2**22  # transform points one request may take: 1 GiB of stacked d = 4 values

# a target dtype -> (the array kinds it takes, its name as an array, as a number)
_KINDS = {complex: ("biufc", "numeric array", "complex number"),
          float: ("biuf", "float array", "float"), int: ("iu", "integer array", "64-bit integer")}


def numeric(obj, dtype, what, error=ValidationError, ndim=None):
    """The one conversion of a caller's numbers: obj as an ndarray of dtype (complex, float or
    int), an ndarray of dtype as it is.  A complex target takes bool, integer, float and complex
    arrays, a float one all but complex, an integer one integers (an unsigned past int64 wraps,
    as numpy casts); any other kind (a string, an object: a Python integer past 64 bits is one),
    a ragged sequence, or a rank other than `ndim` where given, is refused with `error`."""
    kinds, array, number = _KINDS[dtype]
    try:
        arr = np.asarray(obj)
    except ValueError:  # numpy's refusal of a ragged sequence
        arr = None
    if arr is None or arr.dtype.kind not in kinds or ndim not in (None, arr.ndim):
        desc = number if ndim == 0 else array if ndim is None else f"{ndim}-d {array}"
        got = "ragged" if arr is None else f"dtype {arr.dtype}, shape {arr.shape}"
        raise error(f"{what}: not {'an' if desc[0] == 'i' else 'a'} {desc} ({got})")
    return arr.astype(dtype, copy=False)


def quad_form(mat, h):
    # (M h, h) = h* M h
    return complex(np.vdot(h, mat @ h))


def herm(mat):
    """(M + M*) / 2 for a complex M or a stack of them, finite for every finite M.

    The parts are halved before they are added, so that entries past half the
    float max do not overflow.  The zero cross terms are those of numpy's
    complex product 0.5 * (M + M*), which fix the sign of a zero result.
    """
    adj = mat.conj().swapaxes(-1, -2)
    re = 0.5 * mat.real + 0.5 * adj.real
    im = 0.5 * mat.imag + 0.5 * adj.imag
    out = np.empty(mat.shape, dtype=complex)
    out.real, out.imag = re - 0.0 * im, im + 0.0 * re
    return out


def checked_herm(mats, psd):
    """(herm(mats), first member not Hermitian, first of the leading `psd` not PSD), None for none.

    With f = min(1, 2^e), 2^e the power of two above the stack's largest part, a member M is
    Hermitian iff ||M - M*||_F <= TOL_HERM max(f, ||M||_F), and PSD iff lambda_min(herm M) >=
    -TOL_PSD max(f, max |lambda|), both decided on M scaled by a power of two to unit scale.
    """
    peak = np.maximum(np.abs(mats.real), np.abs(mats.imag)).max(axis=(-2, -1), keepdims=True)
    exp = np.frexp(peak)[1]  # 2^exp above each member's largest part
    # each member's largest part to [1/2, 1), a subnormal member's by 2^1023 at most, so that
    # f stays finite in its units; no squared entry underflows, however far below the stack
    scale = np.ldexp(1.0, np.minimum(-exp, 1023))
    unit = mats * scale
    floor = np.ldexp(scale[:, 0, 0], min(exp.max(), 0))  # f in each member's units
    defect = np.linalg.norm(unit - unit.conj().swapaxes(-1, -2), axis=(-2, -1))
    not_herm = defect > TOL_HERM * np.maximum(floor, np.linalg.norm(unit, axis=(-2, -1)))
    out = herm(mats)
    eigs = np.linalg.eigvalsh(out[:psd] * scale[:psd])
    not_psd = eigs[:, 0] < -TOL_PSD * np.maximum(floor[:psd], np.maximum(-eigs[:, 0], eigs[:, -1]))
    return out, *(int(bad.argmax()) if bad.any() else None for bad in (not_herm, not_psd))


def imag_part(mat):
    # (M - M*) / 2i; Hermitian for any square M, or a stack of them
    return (mat - mat.conj().swapaxes(-1, -2)) / 2j


def norm2(mat):
    """||mat||_2: 0 for an empty matrix, inf for one with a NaN or infinite entry."""
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2)) if np.isfinite(mat).all() else np.inf


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


def norm2_within_scaled(mat, tol, ref):
    """The verdict `norm2(mat) <= tol * max(1, norm2(ref))`; mat within tol skips ref's SVD."""
    return norm2_within(mat, tol) or norm2_within(mat, tol * max(1.0, norm2(ref)))


def cond2(mat):
    """cond_2(mat): 1 for an empty matrix, inf for one with a NaN or infinite entry."""
    if mat.shape[0] == 0:
        return 1.0
    return float(np.linalg.cond(mat)) if np.isfinite(mat).all() else np.inf


def check_condition(cond, what, zs=None):
    """The condition gate: ConditioningError unless cond, a number or an array, is at most
    COND_THRESHOLD (NaN fails); the error names the first failing point of `zs` where given."""
    ok = cond <= COND_THRESHOLD
    if ok is True or np.all(ok):  # a Python number's verdict needs no numpy call
        return
    j = int(np.argmin(ok))
    at = "" if zs is None else f" at z={complex(np.ravel(zs)[j])}"
    raise ConditioningError(what + at, np.ravel(cond)[j])


def check_point_count(count, what):
    """Refuse a count of points (or table entries) past MAX_POINTS, before it is allocated."""
    if count > MAX_POINTS:
        raise ValidationError(f"{count} {what}; at most {MAX_POINTS}")


def solve_checked(mat, rhs, context):
    """Solve mat @ x = rhs behind the condition gate."""
    if mat.shape[0] == 0:
        return np.zeros(mat.shape[:1] + rhs.shape[1:], dtype=complex)
    check_condition(cond2(mat), f"{context}: system too ill-conditioned")
    return np.linalg.solve(mat, rhs)


def readonly(arr):
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)  # cheaper than out.flags.writeable, which builds a flags object
    return out


def frozen(cls):
    """`dataclass(frozen=True)` whose ndarray fields are read-only copies once `__post_init__` ran.

    The class's own `__post_init__`, if any, runs first and may replace a field's value;
    every field then holding an ndarray gets a `readonly` copy, never the caller's array.
    """
    own = cls.__dict__.get("__post_init__")

    def __post_init__(self):
        if own is not None:
            own(self)
        for name in names:
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                object.__setattr__(self, name, readonly(value.copy()))

    cls.__post_init__ = __post_init__
    cls = dataclass(frozen=True)(cls)
    names = [f.name for f in fields(cls)]
    return cls
