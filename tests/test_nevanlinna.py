import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import momentkit as mk
import momentkit.nevanlinna as nev
from momentkit.cayley import parameter_operator
from conftest import (
    point_mass_model,
    random_contraction,
    random_measure,
    random_model,
    random_unitary,
    random_upper_z,
    random_vector,
)


def dense_topleft(model, p, z):
    """Oracle: top-left block of the dense inverse of E - zeta (V + Phi)."""
    c = model.cayley
    zeta = (z - 1j) / (z + 1j)
    full = np.eye(c.space_dim) - zeta * (c.V + parameter_operator(c, p))
    inv = np.linalg.inv(full)
    return c.basis_mi.conj().T @ inv @ c.basis_mi, inv


def extension_oracle(model, p, z, h):
    """Oracle: (R_z x_{h,0}, x_{h,0}) via the in-space self-adjoint extension."""
    u = mk.unitary_extension(model.cayley, p)
    a_tilde = mk.inverse_cayley(u)
    v = model.embed_i.matrix @ np.asarray(h, complex)
    w = np.linalg.solve(a_tilde - z * np.eye(model.space.rank), v)
    return complex(np.vdot(v, w))


class TestBlocks:
    def test_zero_parameter_collapse(self, gaussian_model):
        c = gaussian_model.cayley
        p = gaussian_model.zero_parameter()
        bs = mk.blocks(c, p, 1 + 1j)
        assert not np.any(bs.B)
        assert_allclose(bs.D, np.eye(1), atol=1e-14)
        assert_allclose(bs.H, np.eye(1), atol=1e-14)
        assert_allclose(mk.frobenius_topleft(bs), bs.A_hat, atol=1e-14)

    def test_empty_defect_blocks(self, delta2_model):
        c = delta2_model.cayley
        bs = mk.blocks(c, mk.SchurParameter.zero((0, 0)), 2j)
        assert bs.B.shape == (1, 0) and bs.C.shape == (0, 1) and bs.H.shape == (0, 0)
        assert bs.cond_H == 1.0
        assert_allclose(mk.frobenius_topleft(bs), bs.A_hat, atol=1e-14)

    def test_schur_complement_recomputation(self):
        rng = np.random.default_rng(20)
        model = random_model(rng, d=2, num_nodes=4, order=4)
        assert model.space.rank == 6
        p = mk.SchurParameter(random_contraction(rng, model.defect_dims[::-1]))
        bs = mk.blocks(model.cayley, p, 1 + 2j)
        again = bs.D - bs.C @ bs.A_hat @ bs.B
        assert np.linalg.norm(again - bs.H) <= 1e-12 * max(
            1.0, np.linalg.norm(bs.H)
        )

    def test_rejects_wrong_parameter_shape(self, gaussian_model):
        with pytest.raises(mk.ParameterError):
            mk.blocks(gaussian_model.cayley, mk.SchurParameter(np.eye(2)), 2j)

    def test_rejects_lower_half_plane(self, gaussian_model):
        p = gaussian_model.zero_parameter()
        with pytest.raises(mk.DomainError):
            mk.blocks(gaussian_model.cayley, p, 1 - 1j)


class TestFrobeniusTopleft:
    def test_simple_unitary(self, simple_indeterminate_model):
        model = simple_indeterminate_model
        p = mk.SchurParameter([[1.0]])
        bs = mk.blocks(model.cayley, p, 2j)
        oracle, inv = dense_topleft(model, p, 2j)
        assert np.linalg.norm(mk.frobenius_topleft(bs) - oracle) <= 1e-10 * (
            np.linalg.norm(inv, 2)
        )

    def test_gaussian_strict_contraction(self, gaussian_model):
        p = mk.SchurParameter([[0.5j]])
        bs = mk.blocks(gaussian_model.cayley, p, 1 + 1j)
        oracle, inv = dense_topleft(gaussian_model, p, 1 + 1j)
        assert np.linalg.norm(mk.frobenius_topleft(bs) - oracle) <= 1e-10 * (
            np.linalg.norm(inv, 2)
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_inverse_randomized(self, seed):
        rng = np.random.default_rng(300 + seed)
        d = int(rng.integers(1, 3))
        model = random_model(
            rng, d=d, num_nodes=int(rng.integers(2, 5)), order=2 * int(rng.integers(2, 4))
        )
        p = mk.SchurParameter(random_contraction(rng, model.defect_dims[::-1]))
        for _ in range(5):
            z = random_upper_z(rng)
            bs = mk.blocks(model.cayley, p, z)
            oracle, inv = dense_topleft(model, p, z)
            assert np.linalg.norm(mk.frobenius_topleft(bs) - oracle) <= 1e-10 * max(
                1.0, np.linalg.norm(inv, 2)
            )


class TestEvaluateForm:
    def test_point_mass_at_origin(self):
        model, _ = point_mass_model(0.0, order=2)
        p = model.zero_parameter()
        for z in (2j, 1 + 1j, -0.5 + 0.3j):
            val = mk.evaluate_form(
                model.moments, model.space, model.cayley, p, z, [1.0]
            )
            assert abs(val - (-1.0 / z)) <= 1e-12

    def test_point_mass_grid(self, delta2_model):
        model = delta2_model
        p = model.zero_parameter()
        zs = [
            complex(re, im)
            for re in np.linspace(-3, 3, 7)
            for im in np.linspace(0.3, 3, 5)
        ]
        worst = max(
            abs(
                mk.evaluate_form(model.moments, model.space, model.cayley, p, z, [1.0])
                - 1.0 / (2.0 - z)
            )
            for z in zs
        )
        assert worst <= 1e-10

    def test_gaussian_matches_extension_oracle(self, gaussian_model):
        model = gaussian_model
        for theta in (np.pi / 2, np.pi, 2.3):
            p = mk.SchurParameter.scalar_unitary(theta, model.defect_dims)
            for z in (2j, 1 + 1j):
                val = mk.evaluate_form(
                    model.moments, model.space, model.cayley, p, z, [1.0]
                )
                assert abs(val - extension_oracle(model, p, z, [1.0])) <= 1e-9


class TestEvaluateMatrix:
    def test_scalar_matches_form(self, gaussian_model):
        model = gaussian_model
        p = mk.SchurParameter([[0.3 - 0.4j]])
        z = 0.7 + 1.3j
        val = mk.evaluate_matrix(model.moments, model.space, model.cayley, p, z)
        form = mk.evaluate_form(model.moments, model.space, model.cayley, p, z, [1.0])
        assert abs(val.R[0, 0] - form) <= 1e-12

    def test_block_diagonal_decouples(self):
        # oracle: the two scalar problems run independently
        mu_a = mk.DiscreteMatrixMeasure.point_mass(2.0, [[1.0]])
        mu_b = mk.DiscreteMatrixMeasure([-1.0, 1.0], [[[0.5]], [[0.5]]])
        model_a = mk.build_model(mk.generate_from_measure(mu_a, 4))
        model_b = mk.build_model(mk.generate_from_measure(mu_b, 4))
        nodes = [-1.0, 1.0, 2.0]
        weights = [
            np.diag([0.0, 0.5]),
            np.diag([0.0, 0.5]),
            np.diag([1.0, 0.0]),
        ]
        model = mk.build_model(
            mk.generate_from_measure(mk.DiscreteMatrixMeasure(nodes, weights), 4)
        )
        assert model.determinate
        z = 0.4 + 1.7j
        val = mk.evaluate_matrix(
            model.moments, model.space, model.cayley, model.zero_parameter(), z
        ).R
        ra = mk.evaluate_form(
            model_a.moments, model_a.space, model_a.cayley,
            model_a.zero_parameter(), z, [1.0],
        )
        rb = mk.evaluate_form(
            model_b.moments, model_b.space, model_b.cayley,
            model_b.zero_parameter(), z, [1.0],
        )
        assert abs(val[0, 1]) <= 1e-10 and abs(val[1, 0]) <= 1e-10
        assert abs(val[0, 0] - ra) <= 1e-10  # delta_2 sits in the first slot
        assert abs(val[1, 1] - rb) <= 1e-10

    def test_point_mass_d2_closed_form(self):
        rng = np.random.default_rng(21)
        w = np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, 0.5]])
        assert np.linalg.eigvalsh(w).min() > 0
        mu = mk.DiscreteMatrixMeasure.point_mass(1.0, w)
        model = mk.build_model(mk.generate_from_measure(mu, 4))
        z = 0.2 + 0.9j
        val = mk.evaluate_matrix(
            model.moments, model.space, model.cayley, model.zero_parameter(), z
        ).R
        assert_allclose(val, w / (1.0 - z), atol=1e-11)

    def test_polarization_consistent_with_form(self, gaussian_model):
        model = gaussian_model
        p = mk.SchurParameter([[0.6j]])
        z = 1.5j
        val = mk.evaluate_matrix(model.moments, model.space, model.cayley, p, z)
        direct = mk.transform_matrix(model.moments, model.space, model.cayley, p, z)
        assert np.linalg.norm(val.R - direct) <= 1e-10 * max(
            1.0, np.linalg.norm(direct)
        )
        rng = np.random.default_rng(22)
        for _ in range(10):
            h = random_vector(rng, 1)
            form = mk.evaluate_form(
                model.moments, model.space, model.cayley, p, z, h
            )
            assert abs(np.vdot(h, val.R @ h) - form) <= 1e-10


class TestDirectOracle:
    def test_agrees_with_form_on_examples(self, delta2_model, gaussian_model):
        cases = [
            (delta2_model, mk.SchurParameter.zero((0, 0)), 2j),
            (gaussian_model, mk.SchurParameter.scalar_unitary(np.pi, (1, 1)), 1 + 1j),
            (gaussian_model, mk.SchurParameter([[0.2 + 0.4j]]), 0.5 + 2j),
        ]
        for model, p, z in cases:
            h = [1.0]
            form = mk.evaluate_form(model.moments, model.space, model.cayley, p, z, h)
            oracle = mk.direct_oracle(model.cayley, p, model.moments, model.space, z, h)
            assert abs(form - oracle) <= 1e-10

    def test_zero_parameter_tight_agreement(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            model = random_model(rng, d=2, num_nodes=3, order=4)
            p = model.zero_parameter()
            z = random_upper_z(rng)
            h = random_vector(rng, 2)
            form = mk.evaluate_form(model.moments, model.space, model.cayley, p, z, h)
            oracle = mk.direct_oracle(model.cayley, p, model.moments, model.space, z, h)
            assert abs(form - oracle) <= 1e-12 * max(1.0, abs(form))

    def test_empty_defect_matches_extension(self, delta2_model):
        model = delta2_model
        p = mk.SchurParameter.zero((0, 0))
        for z in (2j, -1 + 0.5j):
            oracle = mk.direct_oracle(
                model.cayley, p, model.moments, model.space, z, [1.0]
            )
            assert abs(oracle - extension_oracle(model, p, z, [1.0])) <= 1e-10


class TestTransformProperties:
    def test_herglotz_on_grid(self, gaussian_model):
        model = gaussian_model
        params = [
            model.zero_parameter(),
            mk.SchurParameter([[0.3 - 0.4j]]),
            mk.SchurParameter.scalar_unitary(np.pi / 2, (1, 1)),
        ]
        rng = np.random.default_rng(24)
        zs = [
            complex(rng.uniform(-4, 4), rng.uniform(0.05, 10.0)) for _ in range(100)
        ]
        for p in params:
            ev = model.evaluator(p)
            for z in zs:
                r = ev(z)
                im_min = np.linalg.eigvalsh((r - r.conj().T) / 2j).min()
                assert im_min >= -1e-8 * max(1.0, np.linalg.norm(r))

    def test_normalization_asymptotics(self, gaussian_model, delta2_model):
        for model, p in (
            (gaussian_model, mk.SchurParameter.scalar_unitary(1.0, (1, 1))),
            (delta2_model, mk.SchurParameter.zero((0, 0))),
        ):
            y = 1e4
            r = model.evaluator(p)(1j * y)
            s0 = model.moments.moment(0)
            assert np.linalg.norm(-1j * y * r - s0, 2) <= 1e-3

    def test_parameter_sensitivity(self, gaussian_model):
        model = gaussian_model
        r_plus = model.evaluator(mk.SchurParameter([[1.0]]))(2j)
        r_minus = model.evaluator(mk.SchurParameter([[-1.0]]))(2j)
        assert np.abs(r_plus - r_minus).max() > 1e-3

    def test_conjugate_reflection(self, gaussian_model):
        ev = gaussian_model.evaluator(mk.SchurParameter([[0.5 + 0.2j]]))
        z = 1.2 + 0.8j
        assert_allclose(ev(np.conj(z)), ev(z).conj().T, atol=1e-12)
        # reflected Herglotz test: Im R below the axis is negative semidefinite
        r_low = ev(np.conj(z))
        assert np.linalg.eigvalsh((r_low - r_low.conj().T) / 2j).max() <= 1e-8

    def test_highest_moment_discrepancy_reported(self, gaussian_model, capsys):
        # open question at truncation: does a strict contraction reproduce
        # S_6?  measured by a long asymptotic fit and reported, not asserted.
        ev = gaussian_model.evaluator(mk.SchurParameter([[0.5]]))
        ys = np.geomspace(50.0, 1e3, 24)
        design = np.stack([-((1j * ys) ** (-k - 1)) for k in range(7)], axis=1)
        rhs = np.array([ev(1j * y)[0, 0] for y in ys])
        scale = np.linalg.norm(design, axis=0)
        coef, *_ = np.linalg.lstsq(design / scale, rhs, rcond=None)
        coef = coef / scale
        s6_est = coef[6].real
        discrepancy = abs(s6_est - 15.0)
        print(
            f"\nhighest-moment check (strict contraction): S_6 estimate "
            f"{s6_est:.6f}, |S_6 - 15| = {discrepancy:.3e}"
        )
        assert np.isfinite(discrepancy)


class TestRandomizedOracleEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_form_equals_direct_oracle(self, seed):
        rng = np.random.default_rng(400 + seed)
        d = int(rng.integers(1, 3))
        model = random_model(
            rng, d=d, num_nodes=int(rng.integers(2, 5)), order=2 * int(rng.integers(2, 4))
        )
        d_plus, d_minus = model.defect_dims
        if rng.uniform() < 0.5 or d_plus == 0:
            p = mk.SchurParameter(random_contraction(rng, (d_minus, d_plus)))
        else:
            p = mk.SchurParameter(random_unitary(rng, d_plus))
        for _ in range(4):
            z = random_upper_z(rng)
            h = random_vector(rng, d)
            form = mk.evaluate_form(model.moments, model.space, model.cayley, p, z, h)
            oracle = mk.direct_oracle(model.cayley, p, model.moments, model.space, z, h)
            assert abs(form - oracle) <= 1e-10 * max(1.0, abs(form))


def pencil_conditions(model, zs):
    """Oracle: exact cond(V_mi - w), w = 1/zeta, and its proven upper bound."""
    c = model.cayley
    v_mi = c.basis_mi.conj().T @ c.V @ c.basis_mi
    w = (zs + 1j) / (zs - 1j)
    v_norm, aw = np.linalg.norm(v_mi, 2), np.abs(w)
    conds = np.linalg.cond(v_mi - w[:, None, None] * np.eye(v_mi.shape[0]))
    return conds, (aw + v_norm) / (aw - v_norm)


class TestBatchedEvaluator:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        phi_kind=st.sampled_from(["zero", "unitary", "contraction"]),
    )
    def test_batch_equals_pointwise(self, seed, d, phi_kind):
        rng = np.random.default_rng(seed)
        order = 2 * int(rng.integers(2, 5))
        mu = random_measure(rng, d, int(rng.integers(1, order // 2 + 3)))
        try:
            model = mk.build_model(mk.generate_from_measure(mu, order))
        except (mk.ConsistencyError, mk.ShiftConsistencyError):
            # about 0.5 % of these valid measures are refused while the model
            # is built; that refusal is not the batching this test is about
            assume(False)
        d_plus, d_minus = model.defect_dims
        if phi_kind == "unitary":
            p = mk.SchurParameter(random_unitary(rng, d_plus))
        elif phi_kind == "contraction":
            p = mk.SchurParameter(random_contraction(rng, (d_minus, d_plus)))
        else:
            p = model.zero_parameter()
        ev = model.evaluator(p)
        zs = np.array([random_upper_z(rng) for _ in range(12)])
        zs[::3] = zs[::3].conj()  # lower half-plane, served by reflection
        batch = ev(zs)
        assert batch.shape == (zs.size, d, d)
        for z, r in zip(zs, batch):
            single = ev(z)
            assert np.abs(r - single).max() <= 1e-12 * max(1.0, np.abs(single).max())
        mirrored = np.stack([ev.value(z.conjugate()).R.conj().T for z in zs[::3]])
        scale = max(1.0, np.abs(mirrored).max())
        assert_allclose(batch[::3], mirrored, rtol=0, atol=1e-12 * scale)

    def test_batch_spans_block_boundary(self):
        rng = np.random.default_rng(25)
        model = random_model(rng, d=2, num_nodes=4, order=6)
        p = mk.SchurParameter(random_contraction(rng, model.defect_dims[::-1]))
        ev = model.evaluator(p)
        zs = np.array([random_upper_z(rng) for _ in range(nev.BLOCK_POINTS + 1)])
        batch = ev(zs)
        h = random_vector(rng, 2)
        for z, r in zip(zs, batch):
            assert_allclose(r, ev(z), rtol=0, atol=1e-12 * max(1.0, np.abs(r).max()))
            oracle = mk.direct_oracle(model.cayley, p, model.moments, model.space, z, h)
            assert abs(np.vdot(h, r @ h) - oracle) <= 1e-10 * max(1.0, abs(oracle))

    def test_scalar_and_array_shapes(self, gaussian_model):
        ev = gaussian_model.evaluator()
        assert ev(2j).shape == (1, 1)
        assert ev(np.array([[2j, 1 + 1j]] * 3)).shape == (3, 2, 1, 1)
        assert ev(np.array([], dtype=complex)).shape == (0, 1, 1)

    @pytest.mark.parametrize("bad", [1j + 1e-7, 0.5 + 0j, -1j - 1e-7])
    def test_one_bad_point_rejects_batch(self, gaussian_model, bad):
        ev = gaussian_model.evaluator()
        zs = np.array([2j, 1 + 1j, bad, -1 + 0.5j])
        with pytest.raises(mk.DomainError):
            ev(zs)

    def test_pencil_gate_uses_exact_condition(self, monkeypatch):
        model = random_model(np.random.default_rng(20), d=2, num_nodes=4, order=4)
        ev = model.evaluator()  # zero parameter: H is the identity
        zs = np.linspace(-2.0, 2.0, 9) + 1e-3j
        conds, bounds = pencil_conditions(model, zs)
        threshold = 1.01 * conds.max()
        assert np.all(bounds > threshold)  # the bound settles none of the points
        monkeypatch.setattr(nev, "COND_THRESHOLD", threshold)
        assert np.isfinite(ev(zs)).all()
        monkeypatch.setattr(nev, "COND_THRESHOLD", float(np.median(conds)))
        with pytest.raises(mk.ConditioningError, match="M_i block"):
            ev(zs)

    def test_schur_complement_gate(self, monkeypatch):
        rng = np.random.default_rng(20)
        model = random_model(rng, d=2, num_nodes=4, order=4)
        p = mk.SchurParameter(random_unitary(rng, model.defect_dims[0]))
        a_tilde = mk.inverse_cayley(mk.unitary_extension(model.cayley, p))
        # just above the atoms of the canonical solution H is nearly singular
        zs = np.linalg.eigvalsh(0.5 * (a_tilde + a_tilde.conj().T)) + 1e-6j
        pencil_max = pencil_conditions(model, zs)[0].max()
        cond_h_max = max(mk.blocks(model.cayley, p, z).cond_H for z in zs)
        threshold = np.sqrt(pencil_max * cond_h_max)
        assert pencil_max < threshold < cond_h_max
        monkeypatch.setattr(nev, "COND_THRESHOLD", threshold)
        with pytest.raises(mk.ConditioningError, match="Schur complement"):
            model.evaluator(p)(zs)


def d4_model(seed):
    """The largest model of the envelope, d = 4 and 2n = 12 (defects (4, 4))."""
    rng = np.random.default_rng(seed)
    model = mk.build_model(mk.generate_from_measure(random_measure(rng, 4, 30), 12))
    assert model.defect_dims == (4, 4)
    return model, rng


def schur_condition_bound(p, z):
    """((1 + t)/(1 - t))^2 for t = |zeta| max(1, ||Phi||)."""
    omega = max(1.0, np.linalg.norm(p.matrix, 2)) if p.matrix.size else 1.0
    t = abs((z - 1j) / (z + 1j)) * omega
    return ((1.0 + t) / (1.0 - t)) ** 2


class TestPoleResidueEvaluator:
    @pytest.mark.parametrize("phi_kind", ["unitary", "contraction"])
    def test_lu_fallback_matches_eigen_path(self, monkeypatch, phi_kind):
        model, rng = d4_model(31)
        if phi_kind == "unitary":
            p = mk.SchurParameter(random_unitary(rng, 4))
        else:
            p = mk.SchurParameter(random_contraction(rng, (4, 4)))
        zs = np.array([random_upper_z(rng) for _ in range(300)])
        ev = model.evaluator(p)
        assert ev._pencil.poles is not None
        eig, eig_blocks = ev(zs), mk.blocks(model.cayley, p, zs[0])
        mi = model.cayley.mi_block
        # the limit is compared per pencil, also on an already factored model
        monkeypatch.setattr(nev, "EIG_COND_LIMIT", 0.0)
        ev = model.evaluator(p)
        assert ev._pencil.poles is None and model.cayley.mi_block is mi
        lu, lu_blocks = ev(zs), mk.blocks(model.cayley, p, zs[0])
        scale = np.abs(lu).max(axis=(1, 2), keepdims=True)
        assert (np.abs(eig - lu) <= 1e-12 * scale).all()
        assert_allclose(eig_blocks.A_hat, lu_blocks.A_hat, rtol=0,
                        atol=1e-12 * np.abs(lu_blocks.A_hat).max())
        assert_allclose(eig_blocks.H, lu_blocks.H, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("eigenvalue", [0.0, 0.5])
    def test_defective_block_falls_back_to_lu(self, eigenvalue):
        # a Jordan block: eig returns two (nearly) parallel eigenvectors
        v = np.array([[eigenvalue, 1.0], [0.0, eigenvalue]], dtype=complex)
        empty = np.zeros((2, 0), dtype=complex)
        c = mk.CayleyData(V=v, defect_in_basis=empty, defect_out_basis=empty,
                          defect_dims=(0, 0), basis_mi=np.eye(2, dtype=complex))
        p = mk.SchurParameter(np.zeros((0, 0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pencil = nev._Pencil(c, p, np.eye(2), np.eye(2))
            assert pencil.poles is None
            zs = np.array([2j, 0.5 + 1e-3j, -3.0 + 0.1j])
            zeta, g, h = pencil.solve(zs)
        for w, g_w in zip(1.0 / zeta, g):
            assert_allclose(g_w, np.linalg.inv(v - w * np.eye(2)), rtol=1e-14, atol=1e-14)
        assert h.shape == (zs.size, 0, 0)

    def test_decompositions_counted(self, monkeypatch):
        model, rng = d4_model(12)
        p = mk.SchurParameter(random_unitary(rng, 4))
        k = model.cayley.basis_mi.shape[1]
        calls = {"eig": 0, "svd": 0, "cond": 0, "pencil solve": 0}

        def counting(name):
            func = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        def counting_solve(a, b, solve=np.linalg.solve):
            calls["pencil solve"] += a.shape[-2:] == (k, k)
            return solve(a, b)

        for name in ("eig", "svd", "cond"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        zs = np.linspace(-3.0, 3.0, 500) + 1e-3j
        ev = model.evaluator(p)
        assert calls["eig"] == 1
        ev(zs)
        assert calls == {"eig": 1, "svd": 0, "cond": 0, "pencil solve": 0}
        monkeypatch.setattr(nev, "EIG_COND_LIMIT", 0.0)  # one LU per block instead
        model.evaluator(p)(zs)
        assert calls["pencil solve"] == -(-zs.size // nev.BLOCK_POINTS)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_matches_exact_atoms_near_axis(self, seed):
        model, rng = d4_model(seed)
        p = mk.SchurParameter(random_unitary(rng, 4))
        a_tilde = mk.inverse_cayley(mk.unitary_extension(model.cayley, p))
        # the atoms of the canonical solution, where R is largest, and points between
        atoms = np.linalg.eigvalsh(0.5 * (a_tilde + a_tilde.conj().T))
        xs = np.concatenate([atoms[::4], rng.uniform(-2.5, 2.5, 4)])
        ev = model.evaluator(p)
        for y in (1e-4, 1.25e-3, 1e-2):
            zs = xs + 1j * y
            for z, r in zip(zs, ev(zs)):
                for _ in range(2):
                    h = random_vector(rng, 4)
                    oracle = extension_oracle(model, p, z, h)
                    assert abs(np.vdot(h, r @ h) - oracle) <= 1e-8 * abs(oracle)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        phi_kind=st.sampled_from(["zero", "unitary", "contraction", "near-unitary"]),
    )
    def test_schur_complement_condition_bound(self, seed, d, phi_kind):
        rng = np.random.default_rng(seed)
        order = 2 * int(rng.integers(1, 7))
        mu = random_measure(rng, d, int(rng.integers(1, order // 2 + 3)))
        try:
            model = mk.build_model(mk.generate_from_measure(mu, order))
        except (mk.ConsistencyError, mk.ShiftConsistencyError):
            assume(False)  # a known refusal of valid input, not this bound
        d_plus, d_minus = model.defect_dims
        if phi_kind == "unitary":
            p = mk.SchurParameter(random_unitary(rng, d_plus))
        elif phi_kind == "contraction":
            p = mk.SchurParameter(random_contraction(rng, (d_minus, d_plus)))
        elif phi_kind == "near-unitary":
            p = mk.SchurParameter((1.0 - 1e-9) * random_unitary(rng, d_plus))
        else:
            p = model.zero_parameter()
        for _ in range(8):
            z = complex(rng.uniform(-50.0, 50.0), 10.0 ** rng.uniform(-4.0, 0.5))
            if abs(z - 1j) < 1e-3:
                continue
            bound = schur_condition_bound(p, z)
            try:
                b = mk.blocks(model.cayley, p, z)
            except mk.ConditioningError as err:  # H past the 1e12 gate
                assert "Schur complement" in str(err)
                assert err.cond <= bound
                continue
            if d_plus:  # the exact condition number, not the bound
                assert b.cond_H == np.linalg.cond(b.H)
            assert b.cond_H <= bound
