"""Cayley transform of the shift operator and its defect machinery.

For the symmetric shift A with domain D, the transform V = (A+i)(A-i)^{-1}
is an isometry from M_i = (A-i)D onto M_{-i} = (A+i)D, stored as a full
m x m matrix that vanishes on N_i = H - M_i.  Every subspace is held as one
orthonormal basis, never as a projector.  Constant Schur parameters
(contractions N_i -> N_{-i}) are expressed in the defect bases of N_i and
N_{-i}, whose columns are phase-fixed: at defect dimension 1 that fixes the
basis, at dimension >= 2 a matrix parameter selects a solution relative to
the basis the SVD (N_i) or QR (N_{-i}) returns.  The data keep the embedding
K that every transform reads through V, and form K's legs once (`mi_block`).
"""

from functools import cached_property

import numpy as np

from ._linalg import (check_condition, cond2, frozen, norm2, norm2_within, norm2_within_scaled,
                      numeric, solve_checked)
from .errors import ConsistencyError, DomainError, ParameterError

CONTRACTION_TOL = 1e-12
UNITARY_TOL = 1e-8
# ||(VU)*(VU) - E||_2 allowed for the basis U of M_i: it bounds ||V_mi|| by
# sqrt(1 + ISOMETRY_TOL), below 1 + ISOMETRY_TOL by more than rounding
ISOMETRY_TOL = 1e-8


@frozen
class CayleyData:
    """The isometry V with orthonormal bases of M_i and the defect subspaces.

    `basis_mi` spans M_i; `defect_in_basis` spans N_i = H - D(V) and
    `defect_out_basis` spans N_{-i} = H - R(V).  Each defect column is
    phase-fixed (its largest-modulus entry is real positive).  That makes a
    defect basis of dimension 1 a function of its subspace; at dimension
    >= 2 the basis is the one the decomposition returns, and a matrix
    Schur parameter selects a solution relative to it.  The defect dims
    (d_plus, d_minus) are the column counts of the two defect bases.

    `K` embeds h as its degree-1 class minus i times its degree-0 class (m
    x d, into M_i).  `mi_block` holds the pieces of K* (E - zeta (V +
    Phi))^{-1} K that depend neither on z nor on Phi, so that every
    evaluation on these data shares them.  V is isometric on M_i,
    ||(VU)*(VU) - E||_2 <= ISOMETRY_TOL for U = `basis_mi`, or the data are
    refused: evaluators rely on that bound.
    """

    V: np.ndarray
    defect_in_basis: np.ndarray
    defect_out_basis: np.ndarray
    basis_mi: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        vu = self.V @ self.basis_mi
        if not norm2_within(vu.conj().T @ vu - np.eye(vu.shape[1]), ISOMETRY_TOL):
            raise ConsistencyError("Cayley transform is not isometric on M_i")

    @property
    def space_dim(self):
        return self.V.shape[0]

    @property
    def defect_dims(self):
        return self.defect_in_basis.shape[1], self.defect_out_basis.shape[1]

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
        nvb = n_in @ (self.V @ b_mi)
        k_mi = b_mi.conj().T @ self.K
        left = np.concatenate([k_mi.conj().T @ v_mi, nvb])
        return MiBlock(
            v_mi=v_mi, poles=lam, eigvecs_inv=x_inv, eigvecs_cond=x_cond, nvb=nvb,
            bn=b_mi.conj().T @ self.defect_out_basis, nn=n_in @ self.defect_out_basis,
            k_mi=k_mi, left=left, left_eigvecs=left @ x,
            vk=np.concatenate([v_mi @ k_mi, nvb @ k_mi]),
        )


@frozen
class MiBlock:
    """The z- and Phi-independent pieces of K* (E - zeta (V + Phi))^{-1} K on Cayley data.

    With U the basis of M_i and N_+, N_- the defect bases: V_mi = U* V U
    with its eigendecomposition V_mi = X diag(poles) X^{-1} (`eigvecs_inv`
    is None when X is singular; `eigvecs_cond` = ||X||_F ||X^{-1}||_F bounds
    cond(X) from above, inf then), the legs `nvb` = N_+* V U, `bn` = U* N_-
    and `nn` = N_+* N_-, and K's: `k_mi` = U* K, `left` = [K_mi* V_mi; N_+* V U]
    with `left_eigvecs` = left X, and `vk` = [V_mi K_mi; N_+* V U K_mi].
    """

    v_mi: np.ndarray
    poles: np.ndarray
    eigvecs_inv: np.ndarray | None
    eigvecs_cond: float
    nvb: np.ndarray
    bn: np.ndarray
    nn: np.ndarray
    k_mi: np.ndarray
    left: np.ndarray
    left_eigvecs: np.ndarray
    vk: np.ndarray


@frozen
class SchurParameter:
    """A constant contraction from N_i to N_{-i} in the defect bases.

    `matrix`, of shape (d_minus, d_plus), a 2-d numeric array (`_linalg.numeric`),
    has finite entries and spectral norm <= 1 + CONTRACTION_TOL.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = numeric(self.matrix, complex, "Schur parameter", ParameterError, ndim=2)
        finite = np.isfinite(mat)
        if not finite.all():
            index = tuple(int(i) for i in np.argwhere(~finite)[0])
            raise ParameterError(f"Schur parameter entry {index} is not finite")
        if not norm2_within(mat, 1.0 + CONTRACTION_TOL):
            raise ParameterError(f"Schur parameter has norm {norm2(mat):.12f} > 1")
        object.__setattr__(self, "matrix", mat)

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def is_unitary(self):
        mat = self.matrix
        if mat.shape[0] != mat.shape[1]:
            return False
        gram = mat.conj().T @ mat
        return norm2_within(gram - np.eye(mat.shape[1]), UNITARY_TOL)

    @classmethod
    def zero(cls, defect_dims):
        d_plus, d_minus = defect_dims
        return cls(np.zeros((d_minus, d_plus), dtype=complex))

    @classmethod
    def scalar_unitary(cls, theta, defect_dims):
        """exp(i theta) times the identity, theta a finite real number; equal defect dims."""
        d_plus, d_minus = defect_dims
        if d_plus != d_minus:
            raise ParameterError("scalar unitary parameter needs equal defect dims")
        angle = float(numeric(theta, float, "theta", ParameterError, ndim=0))
        if not np.isfinite(angle):
            raise ParameterError(f"angle {theta} is not finite")
        return cls(np.exp(1j * angle) * np.eye(d_plus, dtype=complex))


def check_evaluation_point(z, ndim=None):
    """z as a complex scalar or array (`_linalg.numeric`, of rank `ndim` where given), once
    every point is finite and in C+."""
    zs = numeric(z, complex, "z", DomainError, ndim)
    inside = np.isfinite(zs) & (zs.imag > 0.0)
    if np.count_nonzero(inside) == zs.size:  # cheaper than all() on a few points
        return complex(zs) if zs.ndim == 0 else zs
    raise DomainError(f"z={complex(zs[~inside][0])} is not a finite point of the "
                      "open upper half-plane")


def check_parameter(defect_dims, p: SchurParameter):
    """Refuse p unless its shape is (d_minus, d_plus) for defect dims (d_plus, d_minus)."""
    d_plus, d_minus = defect_dims
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


def cayley_transform(action, domain_basis, k_mat) -> CayleyData:
    """Compute V = (A+i)(A-i)^{-1} on M_i; the data keep K's m x d matrix `k_mat`.

    A is the shift's m x m `action` and D its `domain_basis`, as `build_shift`
    returns them.  One full SVD (A-i)D = U diag(s) W* gives
    sigma_min, the pseudo-inverse W diag(1/s) U_k*, basis_mi = U_k (the
    first k columns) and the N_i basis (the other m-k); the sigma_min >= 0.5
    gate keeps every s.  One complete QR of (A+i)D gives the N_{-i} basis
    as the complement of its range.
    """
    k = domain_basis.shape[1]
    shifted = action @ domain_basis
    w_minus = shifted - 1j * domain_basis
    w_plus = shifted + 1j * domain_basis
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
    data = CayleyData(  # refused here when V is not isometric on M_i
        V=v_mat,
        defect_in_basis=_phase_fixed(u[:, k:]),
        defect_out_basis=_phase_fixed(q_plus[:, k:]),
        basis_mi=basis_mi,
        K=k_mat,
    )
    if not norm2_within_scaled(v_mat @ w_minus - w_plus, 1e-8, w_plus):
        raise ConsistencyError("V(A - i) != (A + i) on the domain")
    return data


def parameter_operator(c: CayleyData, p: SchurParameter):
    """The Schur parameter as an m x m operator, zero outside N_i."""
    check_parameter(c.defect_dims, p)
    return c.defect_out_basis @ p.matrix @ c.defect_in_basis.conj().T


def unitary_extension(c: CayleyData, p: SchurParameter):
    """V extended by a unitary parameter across the defect subspaces."""
    phi = parameter_operator(c, p)
    if not p.is_unitary:
        raise ParameterError("Schur parameter must be unitary for an extension in H")
    u = c.V + phi
    m = c.space_dim
    if not norm2_within(u.conj().T @ u - np.eye(m), 1e-8):
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
    check_condition(cond2(shifted),
                    "U - 1 is numerically singular; no in-space self-adjoint transform")
    return 1j * np.linalg.solve(shifted.T, (u + eye).T).T


def resolvent_link_check(c: CayleyData, p: SchurParameter, z) -> float:
    """Residual of the resolvent identity linking U and its inverse Cayley.

    With zeta = (z-i)/(z+i) and A~ the inverse Cayley transform of the
    unitary extension U, returns
    || (1-zeta)(E - zeta U)^{-1} - E - (z-i)(A~ - z)^{-1} ||_2.
    """
    z = check_evaluation_point(z, ndim=0)
    u = unitary_extension(c, p)
    a_tilde = inverse_cayley(u)
    m = c.space_dim
    eye = np.eye(m, dtype=complex)
    zeta = (z - 1j) / (z + 1j)
    lhs = (1.0 - zeta) * solve_checked(eye - zeta * u, eye, "resolvent link")
    rhs = eye + (z - 1j) * solve_checked(a_tilde - z * eye, eye, "resolvent link")
    return norm2(lhs - rhs)
