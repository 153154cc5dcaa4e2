"""Cayley transform of the shift operator and its defect machinery.

For the symmetric shift A with domain D, the transform V = (A+i)(A-i)^{-1}
is an isometry from M_i = (A-i)D onto M_{-i} = (A+i)D, stored as a full
m x m matrix that vanishes on N_i = H - M_i.  Every subspace is held as one
orthonormal basis, never as a projector.  Constant Schur parameters
(contractions N_i -> N_{-i}) are expressed in the defect bases of N_i and
N_{-i}, whose columns are phase-fixed: at defect dimension 1 that fixes the
basis, at dimension >= 2 a matrix parameter selects a solution relative to
the basis the SVD (N_i) or QR (N_{-i}) returns.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import COND_THRESHOLD, cond2, gate_norm, norm2, readonly, solve_checked
from .errors import ConditioningError, ConsistencyError, DomainError, ParameterError
from .gramspace import ShiftOperator

EXCLUSION_BAND = 1e-6
CONTRACTION_TOL = 1e-12
UNITARY_TOL = 1e-8


@dataclass(frozen=True)
class CayleyData:
    """The isometry V with orthonormal bases of M_i and the defect subspaces.

    `basis_mi` spans M_i; `defect_in_basis` spans N_i = H - D(V) and
    `defect_out_basis` spans N_{-i} = H - R(V).  Each defect column is
    phase-fixed (its largest-modulus entry is real positive).  That makes a
    defect basis of dimension 1 a function of its subspace; at dimension
    >= 2 the basis is the one the decomposition returns, and a matrix
    Schur parameter selects a solution relative to it.

    `mi_block` holds the pieces of E - zeta (V + Phi) that depend neither
    on z nor on Phi, so that every evaluation on these data shares them.
    """

    V: np.ndarray
    defect_in_basis: np.ndarray
    defect_out_basis: np.ndarray
    defect_dims: tuple
    basis_mi: np.ndarray

    def __post_init__(self):
        for name in ("V", "defect_in_basis", "defect_out_basis", "basis_mi"):
            object.__setattr__(self, name, readonly(getattr(self, name)))

    @property
    def space_dim(self):
        return self.V.shape[0]

    @property
    def determinate(self):
        return self.defect_dims == (0, 0)

    @cached_property
    def mi_block(self):
        """The read-only `MiBlock` of these data, formed on first use."""
        b_mi = self.basis_mi
        v_mi = b_mi.conj().T @ self.V @ b_mi
        lam, x = np.linalg.eig(v_mi)
        try:
            x_inv = np.linalg.inv(x)
        except np.linalg.LinAlgError:  # an exactly defective V_mi
            x_inv, x_cond = None, np.inf
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                x_cond = float(np.linalg.norm(x) * np.linalg.norm(x_inv))
        n_in = self.defect_in_basis.conj().T
        return MiBlock(
            v_mi=v_mi, v_norm=norm2(v_mi), poles=lam, eigvecs=x, eigvecs_inv=x_inv,
            eigvecs_cond=x_cond, nvb=n_in @ (self.V @ b_mi),
            bn=b_mi.conj().T @ self.defect_out_basis, nn=n_in @ self.defect_out_basis,
        )


@dataclass(frozen=True)
class MiBlock:
    """The z- and Phi-independent pieces of E - zeta (V + Phi) on Cayley data.

    With U the basis of M_i and N_+, N_- the defect bases: V_mi = U* V U
    with its 2-norm `v_norm` and its eigendecomposition
    V_mi = X diag(poles) X^{-1} (`eigvecs_inv` is None when X is singular;
    `eigvecs_cond` = ||X||_F ||X^{-1}||_F bounds cond(X) from above, inf
    then), and the legs `nvb` = N_+* V U, `bn` = U* N_- and `nn` = N_+* N_-.
    """

    v_mi: np.ndarray
    v_norm: float
    poles: np.ndarray
    eigvecs: np.ndarray
    eigvecs_inv: np.ndarray | None
    eigvecs_cond: float
    nvb: np.ndarray
    bn: np.ndarray
    nn: np.ndarray

    def __post_init__(self):
        for name in ("v_mi", "poles", "eigvecs", "eigvecs_inv", "nvb", "bn", "nn"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, readonly(getattr(self, name)))


@dataclass(frozen=True)
class SchurParameter:
    """A constant contraction from N_i to N_{-i} in the defect bases.

    `matrix` has shape (d_minus, d_plus) and spectral norm `norm` <= 1.
    """

    matrix: np.ndarray
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.atleast_2d(np.asarray(self.matrix, dtype=complex))
        finite = np.isfinite(mat)
        if not finite.all():
            index = tuple(int(i) for i in np.argwhere(~finite)[0])
            raise ParameterError(f"Schur parameter entry {index} is not finite")
        norm = norm2(mat)
        if norm > 1.0 + CONTRACTION_TOL:
            raise ParameterError(f"Schur parameter has norm {norm:.12f} > 1")
        object.__setattr__(self, "matrix", readonly(mat))
        object.__setattr__(self, "norm", norm)

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def is_unitary(self):
        mat = self.matrix
        if mat.shape[0] != mat.shape[1]:
            return False
        if mat.shape[0] == 0:
            return True
        gram = mat.conj().T @ mat
        return gate_norm(gram - np.eye(mat.shape[1]), UNITARY_TOL) <= UNITARY_TOL

    @classmethod
    def zero(cls, defect_dims):
        d_plus, d_minus = defect_dims
        return cls(np.zeros((d_minus, d_plus), dtype=complex))

    @classmethod
    def scalar_unitary(cls, theta, defect_dims):
        """exp(i theta) times the identity; defect dims must be equal."""
        d_plus, d_minus = defect_dims
        if d_plus != d_minus:
            raise ParameterError("scalar unitary parameter needs equal defect dims")
        if not np.isfinite(float(theta)):
            raise ParameterError(f"angle {theta} is not finite")
        return cls(np.exp(1j * float(theta)) * np.eye(d_plus, dtype=complex))


def check_evaluation_point(z):
    """z as a complex scalar or array, once every point is finite, in C+ and off the band."""
    zs = np.asarray(z, dtype=complex)
    inside = np.isfinite(zs) & (zs.imag > 0.0)
    allowed = inside & (np.abs(zs - 1j) >= EXCLUSION_BAND)
    if np.count_nonzero(allowed) == zs.size:  # cheaper than all() on a few points
        return complex(zs) if zs.ndim == 0 else zs
    if not inside.all():
        raise DomainError(f"z={complex(zs[~inside][0])} is not a finite point of the "
                          "open upper half-plane")
    raise DomainError(
        f"z={complex(zs[~allowed][0])} is inside the excluded band "
        f"|z-i| < {EXCLUSION_BAND:g}"
    )


def check_parameter(c: CayleyData, p: SchurParameter):
    d_plus, d_minus = c.defect_dims
    if p.shape != (d_minus, d_plus):
        raise ParameterError(
            f"Schur parameter shape {p.shape} does not match defect dims "
            f"({d_plus}, {d_minus})"
        )


def _phase_fixed(basis):
    """Each column rotated so that its largest-modulus entry is real positive."""
    if basis.size == 0:
        return basis
    pivots = basis[np.abs(basis).argmax(axis=0), np.arange(basis.shape[1])]
    return basis * (np.abs(pivots) / pivots)


def cayley_transform(a: ShiftOperator) -> CayleyData:
    """Compute V = (A+i)(A-i)^{-1} on M_i together with defect data.

    With D the domain basis, one full SVD (A-i)D = U diag(s) W* gives
    sigma_min, the pseudo-inverse W diag(1/s) U_k*, basis_mi = U_k (the
    first k columns) and the N_i basis (the other m-k); the sigma_min >= 0.5
    gate keeps every s.  One complete QR of (A+i)D gives the N_{-i} basis
    as the complement of its range.
    """
    dom = a.domain_basis
    k = dom.shape[1]
    shifted = a.action @ dom
    w_minus = shifted - 1j * dom
    w_plus = shifted + 1j * dom
    u, s, wh = np.linalg.svd(w_minus, full_matrices=True)
    smin = float(s.min(initial=np.inf))  # inf on an empty domain
    # symmetry makes ||(A-i)u||^2 = ||Au||^2 + ||u||^2 >= ||u||^2
    if smin < 0.5:
        raise ConsistencyError(
            f"(A - i) nearly singular on the domain (sigma_min {smin:.3e}); "
            "shift symmetry violated"
        )
    basis_mi = u[:, :k]
    v_mat = w_plus @ (wh.conj().T @ ((1.0 / s)[:, None] * basis_mi.conj().T))
    q_plus = np.linalg.qr(w_plus, mode="complete")[0]
    gram_v = (v_mat @ basis_mi).conj().T @ (v_mat @ basis_mi)
    if gate_norm(gram_v - np.eye(k), 1e-8) > 1e-8:
        raise ConsistencyError("Cayley transform is not isometric on M_i")
    # max(1, ||(A+i)D||) >= 1: the first test settles a small residual without an SVD
    residual = gate_norm(v_mat @ w_minus - w_plus, 1e-8)
    if residual > 1e-8 and residual > 1e-8 * max(1.0, norm2(w_plus)):
        raise ConsistencyError("V(A - i) != (A + i) on the domain")
    m = a.action.shape[0]
    return CayleyData(
        V=v_mat,
        defect_in_basis=_phase_fixed(u[:, k:]),
        defect_out_basis=_phase_fixed(q_plus[:, k:]),
        defect_dims=(m - k, m - k),
        basis_mi=basis_mi,
    )


def parameter_operator(c: CayleyData, p: SchurParameter):
    """The Schur parameter as an m x m operator, zero outside N_i."""
    check_parameter(c, p)
    return c.defect_out_basis @ p.matrix @ c.defect_in_basis.conj().T


def unitary_extension(c: CayleyData, p: SchurParameter):
    """V extended by a unitary parameter across the defect subspaces."""
    check_parameter(c, p)
    if not p.is_unitary:
        raise ParameterError("Schur parameter must be unitary for an extension in H")
    u = c.V + parameter_operator(c, p)
    m = c.space_dim
    if gate_norm(u.conj().T @ u - np.eye(m), 1e-8) > 1e-8:
        raise ConsistencyError("extension of V is not unitary")
    return u


def inverse_cayley(u):
    """Self-adjoint operator with Cayley transform `u`: i(U+1)(U-1)^{-1}.

    Fails with a conditioning error when 1 is (numerically) an eigenvalue
    of `u`; such extensions have no inverse transform inside the space.
    """
    m = u.shape[0]
    eye = np.eye(m, dtype=complex)
    shifted = u - eye
    cond = cond2(shifted)
    if not np.isfinite(cond) or cond > COND_THRESHOLD:
        raise ConditioningError(
            "U - 1 is numerically singular; no in-space self-adjoint transform", cond
        )
    return 1j * np.linalg.solve(shifted.T, (u + eye).T).T


def resolvent_link_check(c: CayleyData, p: SchurParameter, z) -> float:
    """Residual of the resolvent identity linking U and its inverse Cayley.

    With zeta = (z-i)/(z+i) and A~ the inverse Cayley transform of the
    unitary extension U, returns
    || (1-zeta)(E - zeta U)^{-1} - E - (z-i)(A~ - z)^{-1} ||_2.
    """
    z = check_evaluation_point(z)
    u = unitary_extension(c, p)
    a_tilde = inverse_cayley(u)
    m = c.space_dim
    eye = np.eye(m, dtype=complex)
    zeta = (z - 1j) / (z + 1j)
    lhs = (1.0 - zeta) * solve_checked(eye - zeta * u, eye, "resolvent link")
    rhs = eye + (z - 1j) * solve_checked(a_tilde - z * eye, eye, "resolvent link")
    return norm2(lhs - rhs)
