import numpy as np
import pytest
from numpy.testing import assert_allclose

import momentkit as mk
from conftest import (
    point_mass_model,
    random_measure,
    random_model,
    random_unitary,
    random_upper_z,
    random_vector,
)


def _defect_case(case):
    """A model with the named defect structure."""
    rng = np.random.default_rng(300)
    if case == "rank_deficient":
        # a point mass in the first coordinate leaves Gamma_2 singular
        # (rank 4 of 6) while the second keeps a defect
        nodes = np.linspace(-1.5, 1.5, 6)
        weights = [np.diag([1.0 if j == 0 else 0.0, 0.5]) for j in range(6)]
        mu = mk.DiscreteMatrixMeasure(nodes, weights)
        return mk.build_model(mk.generate_from_measure(mu, 4))
    if case == "determinate":
        return random_model(rng, d=2, num_nodes=3, order=6)
    if case == "rank_zero":
        return mk.build_model(mk.MomentSequence([0.0, 0.0, 0.0]))
    d = int(case[1:])
    # more nodes than d(n+1) make every defect number equal to d
    return random_model(rng, d=d, num_nodes=3 * d + 2, order=4)


class TestCayleyTransform:
    def test_point_mass_scalar_cayley(self):
        model, _ = point_mass_model(2.0, order=2)
        c = model.cayley
        assert c.defect_dims == (0, 0)
        assert c.V[0, 0] == pytest.approx((2 + 1j) / (2 - 1j), abs=1e-12)

    def test_defect_dims_simple(self, simple_indeterminate_model):
        model = simple_indeterminate_model
        assert model.space.rank == 2
        assert model.shift.domain_dim == 1
        assert model.defect_dims == (1, 1)

    def test_defect_dims_gaussian(self, gaussian_model):
        assert gaussian_model.space.rank == 4
        assert gaussian_model.shift.domain_dim == 3
        assert gaussian_model.defect_dims == (1, 1)

    def test_isometry_on_mi(self, gaussian_model):
        c = gaussian_model.cayley
        rng = np.random.default_rng(0)
        for _ in range(200):
            u = c.basis_mi @ (c.basis_mi.conj().T @ random_vector(rng, c.space_dim))
            assert abs(np.linalg.norm(c.V @ u) - np.linalg.norm(u)) <= 1e-10 * max(
                1.0, np.linalg.norm(u)
            )

    def test_cayley_intertwines_shift(self, gaussian_model):
        a, c = gaussian_model.shift, gaussian_model.cayley
        dom = a.domain_basis
        rng = np.random.default_rng(1)
        eye = np.eye(c.space_dim)
        for _ in range(20):
            x = dom @ (dom.conj().T @ random_vector(rng, c.space_dim))
            lhs = c.V @ ((a.action - 1j * eye) @ x)
            rhs = (a.action + 1j * eye) @ x
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))

    @pytest.mark.parametrize(
        "case", ["d1", "d2", "d3", "d4", "rank_deficient", "determinate", "rank_zero"]
    )
    def test_bases_are_complementary(self, case):
        c = _defect_case(case).cayley
        if case in ("determinate", "rank_zero"):
            assert c.defect_dims == (0, 0)
        else:
            assert c.defect_dims[0] >= 1
        eye = np.eye(c.space_dim)
        frame_in = np.hstack([c.basis_mi, c.defect_in_basis])
        frame_out = np.hstack([c.V @ c.basis_mi, c.defect_out_basis])
        for frame in (frame_in, frame_out):
            assert frame.shape == eye.shape
            assert np.linalg.norm(frame.conj().T @ frame - eye, 2) <= 1e-12
        for col in np.hstack([c.defect_in_basis, c.defect_out_basis]).T:
            pivot = col[np.abs(col).argmax()]
            assert pivot.real > 0 and abs(pivot.imag) <= 1e-15

    def test_phase_convention_golden_values(self, gaussian_model):
        # defect dims (1, 1): the phase fix determines the basis, so these
        # values of the unitary theta = pi/2 solution must not move
        p = mk.SchurParameter.scalar_unitary(np.pi / 2, gaussian_model.defect_dims)
        ev = gaussian_model.evaluator(p)
        expected = {
            2j: -0.004879635653871122 + 0.4225764476252437j,
            0.5 + 0.1j: -0.395124114730102 + 0.1340134209836495j,
        }
        for z, value in expected.items():
            assert abs(complex(ev(z)[0, 0]) - value) <= 1e-12 * abs(value)

    def test_decompositions_counted(self, monkeypatch):
        rng = np.random.default_rng(12)
        m = mk.generate_from_measure(random_measure(rng, 4, 30), 12)
        p = mk.SchurParameter(random_unitary(rng, 4))
        q = mk.SchurParameter(0.5 * random_unitary(rng, 4))
        calls = dict.fromkeys(("eigh", "eig", "svd", "qr"), 0)

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        # np.linalg.norm(x, 2) and np.linalg.cond call the svd of their own
        # module, not the np.linalg attribute: patch both, so each call counts once
        for name in calls:
            wrapper = counting(name, getattr(np.linalg, name))
            monkeypatch.setattr(np.linalg, name, wrapper)
            monkeypatch.setattr(np.linalg._linalg, name, wrapper)

        def taken():
            out = dict(calls)
            calls.update(dict.fromkeys(calls, 0))
            return out

        model = mk.build_model(m)
        assert model.defect_dims == (4, 4)
        # the eigh of Gamma_n, the SVDs of Q_low and (A-i)D, the QR of (A+i)D
        assert taken() == {"eigh": 1, "eig": 0, "svd": 2, "qr": 1}
        model.evaluator(p)
        assert taken() == {"eigh": 0, "eig": 1, "svd": 1, "qr": 0}  # the SVD: ||V_mi||
        model.evaluator(q)(np.array([2j, 0.5 + 0.5j]))
        b = mk.blocks(model.cayley, q, 2j)
        mk.evaluate_matrix(model.moments, model.space, model.cayley, q, 0.5 + 0.5j)
        assert taken() == {"eigh": 0, "eig": 0, "svd": 1, "qr": 0}  # b.cond_H
        assert b.cond_H == np.linalg.cond(b.H)

    def test_mi_block_shared_and_read_only(self, gaussian_model):
        c = gaussian_model.cayley
        mi = c.mi_block
        assert c.mi_block is mi
        b = c.basis_mi
        v_mi = b.conj().T @ c.V @ b
        assert np.array_equal(mi.v_mi, v_mi) and mi.v_norm == np.linalg.norm(v_mi, 2)
        lam, x = np.linalg.eig(v_mi)
        assert np.array_equal(mi.poles, lam) and np.array_equal(mi.eigvecs, x)
        assert np.array_equal(mi.eigvecs_inv, np.linalg.inv(x))
        assert_allclose(mi.nvb, c.defect_in_basis.conj().T @ c.V @ b, atol=1e-15)
        for arr in (mi.v_mi, mi.poles, mi.eigvecs, mi.eigvecs_inv, mi.nvb, mi.bn, mi.nn):
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0

    def test_inverse_cayley_recovers_shift_action(self, gaussian_model):
        a, c = gaussian_model.shift, gaussian_model.cayley
        dom = a.domain_basis
        eye = np.eye(c.space_dim)
        pencil = c.V - eye
        if np.linalg.cond(pencil) > 1e9:
            pytest.skip("1 is numerically an eigenvalue of V; inverse not defined")
        recovered = 1j * (c.V + eye) @ np.linalg.inv(pencil)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = dom @ (dom.conj().T @ random_vector(rng, c.space_dim))
            assert np.linalg.norm(recovered @ x - a.action @ x) <= 1e-9 * max(
                1.0, np.linalg.norm(a.action @ x)
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_equal_defect_numbers(self, seed):
        rng = np.random.default_rng(200 + seed)
        d = int(rng.integers(1, 4))
        m = mk.generate_from_measure(
            random_measure(rng, d, int(rng.integers(1, 5))), 2 * int(rng.integers(1, 4))
        )
        model = mk.build_model(m)
        d_plus, d_minus = model.defect_dims
        assert d_plus == d_minus == model.space.rank - model.shift.domain_dim


class TestSchurParameter:
    def test_rejects_expansion(self):
        with pytest.raises(mk.ParameterError):
            mk.SchurParameter([[1.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_entry(self, bad):
        mat = np.zeros((2, 3), dtype=complex)
        mat[1, 2] = mat[1, 0] = bad
        with pytest.raises(mk.ParameterError, match=r"entry \(1, 0\) is not finite"):
            mk.SchurParameter(mat)

    @pytest.mark.parametrize("theta", [np.nan, np.inf])
    def test_scalar_unitary_rejects_non_finite_angle(self, theta):
        with pytest.raises(mk.ParameterError, match="angle .* is not finite"):
            mk.SchurParameter.scalar_unitary(theta, (1, 1))

    def test_keeps_its_norm(self):
        mat = np.array([[0.3, 0.4j], [0.0, 0.5]])
        assert mk.SchurParameter(mat).norm == np.linalg.norm(mat, 2)
        assert mk.SchurParameter.zero((0, 0)).norm == 0.0

    def test_zero_and_scalar_builders(self):
        p = mk.SchurParameter.zero((2, 2))
        assert p.shape == (2, 2) and not np.any(p.matrix)
        q = mk.SchurParameter.scalar_unitary(np.pi / 3, (2, 2))
        assert q.is_unitary
        with pytest.raises(mk.ParameterError):
            mk.SchurParameter.scalar_unitary(0.0, (1, 2))

    def test_empty_parameter_is_unitary(self):
        assert mk.SchurParameter.zero((0, 0)).is_unitary


class TestUnitaryExtension:
    def test_empty_defect_returns_v(self, delta2_model):
        c = delta2_model.cayley
        u = mk.unitary_extension(c, mk.SchurParameter.zero((0, 0)))
        assert_allclose(u, c.V, atol=1e-14)

    def test_simple_extension_is_unitary(self, simple_indeterminate_model):
        c = simple_indeterminate_model.cayley
        u = mk.unitary_extension(c, mk.SchurParameter([[1.0]]))
        assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-10)
        assert_allclose(np.abs(np.linalg.eigvals(u)), 1.0, atol=1e-10)

    def test_rejects_strict_contraction(self, simple_indeterminate_model):
        c = simple_indeterminate_model.cayley
        with pytest.raises(mk.ParameterError):
            mk.unitary_extension(c, mk.SchurParameter([[0.5]]))

    def test_rejects_wrong_shape(self, gaussian_model):
        with pytest.raises(mk.ParameterError):
            mk.unitary_extension(
                gaussian_model.cayley, mk.SchurParameter(np.eye(2))
            )

    @pytest.mark.parametrize("theta", [0.5, 1.7, 2.9, 4.2, 5.6])
    def test_inverse_cayley_hermitian_on_theta_grid(self, gaussian_model, theta):
        # the inverse Cayley transform of the extension must be Hermitian;
        # its Hermiticity is the oracle for unitarity of the extension
        c = gaussian_model.cayley
        u = mk.unitary_extension(
            c, mk.SchurParameter.scalar_unitary(theta, c.defect_dims)
        )
        a_tilde = mk.inverse_cayley(u)
        defect = np.linalg.norm(a_tilde - a_tilde.conj().T, 2)
        assert defect <= 1e-9 * max(1.0, np.linalg.norm(a_tilde, 2))

    def test_inverse_cayley_rejects_eigenvalue_one(self, gaussian_model):
        # theta = 0 puts eigenvalue 1 into the extension for this model
        c = gaussian_model.cayley
        u = mk.unitary_extension(c, mk.SchurParameter.scalar_unitary(0.0, (1, 1)))
        if np.linalg.cond(u - np.eye(4)) > 1e12:
            with pytest.raises(mk.ConditioningError):
                mk.inverse_cayley(u)


class TestResolventLink:
    def test_point_mass(self, delta2_model):
        c = delta2_model.cayley
        residual = mk.resolvent_link_check(c, mk.SchurParameter.zero((0, 0)), 2j)
        assert residual <= 1e-10

    def test_simple_model(self, simple_indeterminate_model):
        # in the canonical defect bases, C = [1] is this model's degenerate
        # parameter (eigenvalue 1 in the extension); the identity is checked
        # at other unitary values and the degenerate one must be reported
        c = simple_indeterminate_model.cayley
        for theta in (np.pi / 2, np.pi, 2.2):
            p = mk.SchurParameter.scalar_unitary(theta, (1, 1))
            assert mk.resolvent_link_check(c, p, 1 + 1j) <= 1e-10
        with pytest.raises(mk.ConditioningError):
            mk.resolvent_link_check(c, mk.SchurParameter([[1.0]]), 1 + 1j)

    def test_empty_defect_any_z(self, delta2_model):
        c = delta2_model.cayley
        p = mk.SchurParameter.zero((0, 0))
        for z in (0.5j, -3 + 0.7j, 4 + 2j):
            assert mk.resolvent_link_check(c, p, z) <= 1e-10

    def test_random_unitary_parameters(self, gaussian_model):
        rng = np.random.default_rng(11)
        c = gaussian_model.cayley
        for _ in range(10):
            p = mk.SchurParameter(random_unitary(rng, 1))
            z = random_upper_z(rng)
            assert mk.resolvent_link_check(c, p, z) <= 1e-8

    def test_rejects_excluded_band(self, gaussian_model):
        c = gaussian_model.cayley
        p = mk.SchurParameter.scalar_unitary(1.0, (1, 1))
        with pytest.raises(mk.DomainError):
            mk.resolvent_link_check(c, p, 1j + 1e-9)
        with pytest.raises(mk.DomainError):
            mk.resolvent_link_check(c, p, 2.0 - 1j)
