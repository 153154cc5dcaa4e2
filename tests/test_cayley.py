import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import momentkit as mk
from momentkit.cayley import ISOMETRY_TOL, CayleyData, resolvent_link_check
from momentkit.gramspace import build_shift
from momentkit.nevanlinna import blocks, evaluate_matrix
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
        assert build_shift(model.space)[1].shape[1] == 1
        assert model.defect_dims == (1, 1)

    def test_defect_dims_gaussian(self, gaussian_model):
        assert gaussian_model.space.rank == 4
        assert build_shift(gaussian_model.space)[1].shape[1] == 3
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
        action, dom = build_shift(gaussian_model.space)
        c = gaussian_model.cayley
        rng = np.random.default_rng(1)
        eye = np.eye(c.space_dim)
        for _ in range(20):
            x = dom @ (dom.conj().T @ random_vector(rng, c.space_dim))
            lhs = c.V @ ((action - 1j * eye) @ x)
            rhs = (action + 1j * eye) @ x
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
        calls = dict.fromkeys(("eigh", "eig", "svd", "qr", "inv"), 0)

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
        assert taken() == {"eigh": 1, "eig": 0, "svd": 2, "qr": 1, "inv": 0}
        model.evaluator(p)
        # no SVD: the Cayley gate bounds ||V_mi|| by 1 + ISOMETRY_TOL; the eig
        # and inv of V_mi come with the model's M_i block, formed on first use
        assert taken() == {"eigh": 0, "eig": 1, "svd": 0, "qr": 0, "inv": 1}
        # the zero parameter's norm gate needs no SVD, nor does another
        # parameter's evaluator on the factored model
        model.evaluator()
        ev = model.evaluator(q)
        assert taken() == dict.fromkeys(calls, 0)
        ev(np.array([2j, 0.5 + 0.5j]))
        b = blocks(model.cayley, q, 2j)
        evaluate_matrix(model.moments, model.cayley, q, 0.5 + 0.5j)
        # b.cond_H, and blocks' one LU for A_hat
        assert taken() == {"eigh": 0, "eig": 0, "svd": 1, "qr": 0, "inv": 1}
        assert b.cond_H == np.linalg.cond(b.H)

    def test_recover_discrete_decompositions_counted(self, monkeypatch):
        model = random_model(np.random.default_rng(11), d=4, num_nodes=6, order=12)
        assert model.determinate
        calls = dict.fromkeys(("eigh", "svd"), 0)

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        for name in calls:
            wrapper = counting(name, getattr(np.linalg, name))
            monkeypatch.setattr(np.linalg, name, wrapper)
            monkeypatch.setattr(np.linalg._linalg, name, wrapper)
        mk.recover_discrete(model.space, model.cayley, model.embed_i)
        # the eigh of A~, which also gives ||A~||; the SVD is inverse_cayley's cond
        assert calls == {"eigh": 1, "svd": 1}

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), n=st.integers(1, 6))
    def test_v_mi_norm_within_the_isometry_bound(self, seed, d, n):
        # the bound the evaluator's M_i gate takes in place of ||V_mi||
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, d, int(rng.integers(1, d * (n + 1) + 3)))
        try:
            model = mk.build_model(mk.generate_from_measure(mu, 2 * n))
        except (mk.ConsistencyError, mk.ShiftConsistencyError):
            assume(False)  # a known refusal of valid input, not this bound
        v_mi = model.cayley.mi_block.v_mi
        assert v_mi.size == 0 or np.linalg.norm(v_mi, 2) <= 1.0 + ISOMETRY_TOL

    def test_mi_block_shared_and_read_only(self, gaussian_model):
        c = gaussian_model.cayley
        mi = c.mi_block
        assert c.mi_block is mi
        b = c.basis_mi
        v_mi = b.conj().T @ c.V @ b
        assert np.array_equal(mi.v_mi, v_mi)
        lam, x = np.linalg.eig(v_mi)
        assert np.array_equal(mi.poles, lam)
        assert np.array_equal(mi.eigvecs_inv, np.linalg.inv(x))
        nvb = c.defect_in_basis.conj().T @ c.V @ b
        assert_allclose(mi.nvb, nvb, atol=1e-15)
        # K's legs: K_mi = U* K, left = [K_mi* V_mi; N_+* V U], left X and
        # V K = [V_mi K_mi; N_+* V U K_mi]
        k_mi = b.conj().T @ c.K
        left = np.concatenate([k_mi.conj().T @ v_mi, nvb])
        assert np.array_equal(mi.k_mi, k_mi)
        assert_allclose(mi.left, left, atol=1e-15)
        assert_allclose(mi.left_eigvecs, left @ x, atol=1e-15)
        assert_allclose(mi.vk, np.concatenate([v_mi @ k_mi, nvb @ k_mi]), atol=1e-15)
        for arr in (mi.v_mi, mi.poles, mi.eigvecs_inv, mi.nvb, mi.bn, mi.nn, mi.k_mi, mi.left,
                    mi.left_eigvecs, mi.vk):
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0

    @pytest.mark.parametrize("eigenvalue", [0.0, 0.5])
    def test_non_isometric_data_refused(self, eigenvalue):
        # a Jordan block V on C^2 = M_i is not isometric (||V||_2 = 1.21 at
        # 0.5), so the bound ||V_mi|| <= 1 + ISOMETRY_TOL that evaluators take
        # would not hold: refused whether built directly or by replacing V
        jordan = np.array([[eigenvalue, 1.0], [0.0, eigenvalue]], dtype=complex)
        empty = np.zeros((2, 0), dtype=complex)
        fields = dict(defect_in_basis=empty, defect_out_basis=empty,
                      basis_mi=np.eye(2, dtype=complex), K=np.eye(2, 1, dtype=complex))
        message = "Cayley transform is not isometric on M_i"
        with pytest.raises(mk.ConsistencyError, match=message):
            CayleyData(V=jordan, **fields)
        identity = CayleyData(V=np.eye(2, dtype=complex), **fields)
        with pytest.raises(mk.ConsistencyError, match=message):
            dataclasses.replace(identity, V=jordan)

    def test_inverse_cayley_recovers_shift_action(self, gaussian_model):
        action, dom = build_shift(gaussian_model.space)
        c = gaussian_model.cayley
        eye = np.eye(c.space_dim)
        pencil = c.V - eye
        if np.linalg.cond(pencil) > 1e9:
            pytest.skip("1 is numerically an eigenvalue of V; inverse not defined")
        recovered = 1j * (c.V + eye) @ np.linalg.inv(pencil)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = dom @ (dom.conj().T @ random_vector(rng, c.space_dim))
            assert np.linalg.norm(recovered @ x - action @ x) <= 1e-9 * max(
                1.0, np.linalg.norm(action @ x)
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
        assert d_plus == d_minus == model.space.rank - build_shift(model.space)[1].shape[1]


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

    @pytest.mark.parametrize("theta, message", [
        pytest.param(np.nan, "angle nan is not finite", id="nan"),
        pytest.param(np.inf, "angle inf is not finite", id="inf"),
        # a Python integer past 64 bits is no number for numpy: refused before its angle
        pytest.param(10**400, r"theta: not a float \(dtype object, shape \(\)\)",
                     id="integer-past-float-range")])
    def test_scalar_unitary_rejects_non_finite_angle(self, theta, message):
        with pytest.raises(mk.ParameterError, match=message):
            mk.SchurParameter.scalar_unitary(theta, (1, 1))

    def test_norm_gate_at_its_boundary(self):
        # the gate is ||Phi||_2 <= 1 + CONTRACTION_TOL, and a refusal names the norm
        with pytest.raises(mk.ParameterError,
                           match=r"Schur parameter has norm 1\.000000000002 > 1"):
            mk.SchurParameter([[1.0 + 2e-12]])
        assert mk.SchurParameter([[1.0 + 0.5e-12]]).shape == (1, 1)
        assert mk.SchurParameter(random_unitary(np.random.default_rng(4), 4)).is_unitary

    @pytest.mark.parametrize("bad", [np.zeros((2, 2, 2)), np.zeros(2), 0.5, "a", [["a"]],
                                     [[1.0], [1.0, 2.0]], None])
    def test_rejects_what_is_not_a_numeric_matrix(self, bad):
        with pytest.raises(mk.ParameterError, match="not a 2-d numeric array"):
            mk.SchurParameter(bad)

    def test_zero_and_scalar_builders(self):
        p = mk.SchurParameter.zero((2, 2))
        assert p.shape == (2, 2) and not np.any(p.matrix)
        q = mk.SchurParameter.scalar_unitary(np.pi / 3, (2, 2))
        assert q.is_unitary
        with pytest.raises(mk.ParameterError):
            mk.SchurParameter.scalar_unitary(0.0, (1, 2))

    def test_empty_parameter_is_unitary(self):
        assert mk.SchurParameter.zero((0, 0)).is_unitary

    def test_non_square_parameter_is_not_unitary(self):
        assert not mk.SchurParameter(np.zeros((1, 2))).is_unitary


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
        for scale in (1.0, 0.5):  # the shape is refused before unitarity
            with pytest.raises(mk.ParameterError, match="does not match defect dims"):
                mk.unitary_extension(gaussian_model.cayley, mk.SchurParameter(scale * np.eye(2)))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_inverse_cayley_refuses_non_finite_matrix(self, bad):
        # the condition gate refuses it, instead of numpy's SVD failing to converge
        with pytest.raises(mk.ConditioningError, match="U - 1 is numerically singular") as err:
            mk.inverse_cayley(np.full((2, 2), bad, dtype=complex))
        assert err.value.cond == np.inf
        u = np.eye(2, dtype=complex) * 1j
        u[0, 1] = bad
        with pytest.raises(mk.ConditioningError, match="U - 1 is numerically singular"):
            mk.inverse_cayley(u)


class TestResolventLink:
    def test_point_mass(self, delta2_model):
        c = delta2_model.cayley
        residual = resolvent_link_check(c, mk.SchurParameter.zero((0, 0)), 2j)
        assert residual <= 1e-10

    def test_simple_model(self, simple_indeterminate_model):
        # in the canonical defect bases, C = [1] is this model's degenerate
        # parameter (eigenvalue 1 in the extension); the identity is checked
        # at other unitary values and the degenerate one must be reported
        c = simple_indeterminate_model.cayley
        for theta in (np.pi / 2, np.pi, 2.2):
            p = mk.SchurParameter.scalar_unitary(theta, (1, 1))
            assert resolvent_link_check(c, p, 1 + 1j) <= 1e-10
        with pytest.raises(mk.ConditioningError):
            resolvent_link_check(c, mk.SchurParameter([[1.0]]), 1 + 1j)

    def test_empty_defect_any_z(self, delta2_model):
        c = delta2_model.cayley
        p = mk.SchurParameter.zero((0, 0))
        for z in (0.5j, -3 + 0.7j, 4 + 2j):
            assert resolvent_link_check(c, p, z) <= 1e-10

    def test_random_unitary_parameters(self, gaussian_model):
        rng = np.random.default_rng(11)
        c = gaussian_model.cayley
        for _ in range(10):
            p = mk.SchurParameter(random_unitary(rng, 1))
            z = random_upper_z(rng)
            assert resolvent_link_check(c, p, z) <= 1e-8

    def test_holds_at_i_and_refuses_below_axis(self, gaussian_model):
        # no band around i: at z = i (zeta = 0) both sides are E
        c = gaussian_model.cayley
        p = mk.SchurParameter.scalar_unitary(1.0, (1, 1))
        for z in (1j, 1j + 1e-9):
            assert resolvent_link_check(c, p, z) <= 1e-10
        with pytest.raises(mk.DomainError):
            resolvent_link_check(c, p, 2.0 - 1j)
