import importlib.util
import os
import re
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import momentkit as mk
import momentkit.nevanlinna as nev
from momentkit import _linalg
from momentkit.cayley import ISOMETRY_TOL, CayleyData, parameter_operator
from momentkit.nevanlinna import (
    blocks,
    direct_oracle,
    evaluate_matrix,
    frobenius_topleft,
    transform_matrix,
)
from _reference import MomentReference
from conftest import (
    hermite_moments,
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


def realization(model, p, z):
    """Oracle: R(z) = I* (A~ - z)^{-1} I, A~ the inverse Cayley transform of W = V + Phi."""
    a_tilde = mk.inverse_cayley(model.cayley.V + parameter_operator(model.cayley, p))
    i_emb = model.embed_i.matrix
    return i_emb.conj().T @ np.linalg.solve(a_tilde - z * np.eye(model.space.rank), i_emb)


def extension_oracle(model, p, z, h):
    """Oracle: (R_z x_{h,0}, x_{h,0}) from the realization."""
    h = np.asarray(h, complex)
    return complex(np.vdot(h, realization(model, p, z) @ h))


class TestBlocks:
    def test_zero_parameter_collapse(self, gaussian_model):
        c = gaussian_model.cayley
        p = gaussian_model.zero_parameter()
        bs = blocks(c, p, 1 + 1j)
        assert not np.any(bs.B)
        assert_allclose(bs.D, np.eye(1), atol=1e-14)
        assert_allclose(bs.H, np.eye(1), atol=1e-14)
        assert_allclose(frobenius_topleft(bs), bs.A_hat, atol=1e-14)

    def test_empty_defect_blocks(self, delta2_model):
        c = delta2_model.cayley
        bs = blocks(c, mk.SchurParameter.zero((0, 0)), 2j)
        assert bs.B.shape == (1, 0) and bs.C.shape == (0, 1) and bs.H.shape == (0, 0)
        assert bs.cond_H == 1.0
        assert_allclose(frobenius_topleft(bs), bs.A_hat, atol=1e-14)

    def test_schur_complement_recomputation(self):
        rng = np.random.default_rng(20)
        model = random_model(rng, d=2, num_nodes=4, order=4)
        assert model.space.rank == 6
        p = mk.SchurParameter(random_contraction(rng, model.defect_dims[::-1]))
        bs = blocks(model.cayley, p, 1 + 2j)
        again = bs.D - bs.C @ bs.A_hat @ bs.B
        assert np.linalg.norm(again - bs.H) <= 1e-12 * max(
            1.0, np.linalg.norm(bs.H)
        )

    def test_rejects_wrong_parameter_shape(self, gaussian_model):
        with pytest.raises(mk.ParameterError):
            blocks(gaussian_model.cayley, mk.SchurParameter(np.eye(2)), 2j)

    def test_rejects_lower_half_plane(self, gaussian_model):
        p = gaussian_model.zero_parameter()
        with pytest.raises(mk.DomainError):
            blocks(gaussian_model.cayley, p, 1 - 1j)


class TestFrobeniusTopleft:
    def test_simple_unitary(self, simple_indeterminate_model):
        model = simple_indeterminate_model
        p = mk.SchurParameter([[1.0]])
        bs = blocks(model.cayley, p, 2j)
        oracle, inv = dense_topleft(model, p, 2j)
        assert np.linalg.norm(frobenius_topleft(bs) - oracle) <= 1e-10 * (
            np.linalg.norm(inv, 2)
        )

    def test_gaussian_strict_contraction(self, gaussian_model):
        p = mk.SchurParameter([[0.5j]])
        bs = blocks(gaussian_model.cayley, p, 1 + 1j)
        oracle, inv = dense_topleft(gaussian_model, p, 1 + 1j)
        assert np.linalg.norm(frobenius_topleft(bs) - oracle) <= 1e-10 * (
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
            bs = blocks(model.cayley, p, z)
            oracle, inv = dense_topleft(model, p, z)
            assert np.linalg.norm(frobenius_topleft(bs) - oracle) <= 1e-10 * max(
                1.0, np.linalg.norm(inv, 2)
            )


class TestEvaluateForm:
    def test_point_mass_at_origin(self):
        model, _ = point_mass_model(0.0, order=2)
        ev = model.evaluator()
        for z in (2j, 1 + 1j, -0.5 + 0.3j):
            assert abs(ev(z)[0, 0] - (-1.0 / z)) <= 1e-12

    def test_point_mass_grid(self, delta2_model):
        ev = delta2_model.evaluator()
        zs = [
            complex(re, im)
            for re in np.linspace(-3, 3, 7)
            for im in np.linspace(0.3, 3, 5)
        ]
        worst = max(abs(ev(z)[0, 0] - 1.0 / (2.0 - z)) for z in zs)
        assert worst <= 1e-10

    def test_gaussian_matches_extension_oracle(self, gaussian_model):
        model = gaussian_model
        for theta in (np.pi / 2, np.pi, 2.3):
            p = mk.SchurParameter.scalar_unitary(theta, model.defect_dims)
            ev = model.evaluator(p)
            for z in (2j, 1 + 1j):
                assert abs(ev(z)[0, 0] - extension_oracle(model, p, z, [1.0])) <= 1e-9


class TestEvaluateMatrix:
    def test_scalar_matches_form(self, gaussian_model):
        model = gaussian_model
        p = mk.SchurParameter([[0.3 - 0.4j]])
        z = 0.7 + 1.3j
        val = evaluate_matrix(model.moments, model.cayley, p, z)
        form = np.vdot([1.0], model.evaluator(p)(z) @ [1.0])
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
        val = evaluate_matrix(
            model.moments, model.cayley, model.zero_parameter(), z
        ).R
        ra = model_a.evaluator()(z)[0, 0]
        rb = model_b.evaluator()(z)[0, 0]
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
        val = evaluate_matrix(
            model.moments, model.cayley, model.zero_parameter(), z
        ).R
        assert_allclose(val, w / (1.0 - z), atol=1e-11)

    def test_polarization_consistent_with_form(self, gaussian_model):
        model = gaussian_model
        p = mk.SchurParameter([[0.6j]])
        z = 1.5j
        val = evaluate_matrix(model.moments, model.cayley, p, z)
        direct = transform_matrix(model.moments, model.cayley, p, z)
        assert np.linalg.norm(val.R - direct) <= 1e-10 * max(
            1.0, np.linalg.norm(direct)
        )
        rng = np.random.default_rng(22)
        ev = model.evaluator(p)
        for _ in range(10):
            h = random_vector(rng, 1)
            form = np.vdot(h, ev(z) @ h)
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
            form = model.evaluator(p)(z)[0, 0]
            oracle = direct_oracle(model.cayley, p, model.moments, z, h)
            assert abs(form - oracle) <= 1e-10

    def test_zero_parameter_tight_agreement(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            model = random_model(rng, d=2, num_nodes=3, order=4)
            p = model.zero_parameter()
            z = random_upper_z(rng)
            h = random_vector(rng, 2)
            form = np.vdot(h, model.evaluator(p)(z) @ h)
            oracle = direct_oracle(model.cayley, p, model.moments, z, h)
            assert abs(form - oracle) <= 1e-12 * max(1.0, abs(form))

    def test_empty_defect_matches_extension(self, delta2_model):
        model = delta2_model
        p = mk.SchurParameter.zero((0, 0))
        for z in (2j, -1 + 0.5j):
            oracle = direct_oracle(model.cayley, p, model.moments, z, [1.0])
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
        ev = model.evaluator(p)
        for _ in range(4):
            z = random_upper_z(rng)
            h = random_vector(rng, d)
            form = np.vdot(h, ev(z) @ h)
            oracle = direct_oracle(model.cayley, p, model.moments, z, h)
            assert abs(form - oracle) <= 1e-10 * max(1.0, abs(form))


def pencil_conditions(model, zs):
    """Oracle: exact cond(V_mi - w), w = 1/zeta, and its proven upper bound.

    The bound takes ||V_mi|| <= 1 + ISOMETRY_TOL from the Cayley gate, as the
    evaluator does.
    """
    c = model.cayley
    v_mi = c.basis_mi.conj().T @ c.V @ c.basis_mi
    w = (zs + 1j) / (zs - 1j)
    v_bound, aw = 1.0 + ISOMETRY_TOL, np.abs(w)
    conds = np.linalg.cond(v_mi - w[:, None, None] * np.eye(v_mi.shape[0]))
    return conds, (aw + v_bound) / (aw - v_bound)


class TestBatchedEvaluator:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        phi_kind=st.sampled_from(["zero", "unitary", "contraction"]),
    )
    # each has a point within 0.02 of i, where R sums terms near 1e4 that
    # cancel: a point rounded differently in a batch would show there
    @example(seed=6302, d=3, phi_kind="zero")
    @example(seed=219, d=2, phi_kind="contraction")
    # z within 0.011 of i at d = d_+ = 1, where numpy's loops for one point
    # round differently from its loops for many: 2.7e-12 off unless a lone
    # point is evaluated as two
    @example(seed=536, d=1, phi_kind="zero")
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

    def test_near_i_batch_equals_pointwise(self, gaussian_model):
        # d = d_+ = 1 near i, where the terms of R are near 1e6: a lone point
        # run through other numpy loops than a batch is off by up to 2.0e-12
        ev = gaussian_model.evaluator(mk.SchurParameter.scalar_unitary(np.pi / 2, (1, 1)))
        zs = 1j + 1e-2 * np.exp(2j * np.pi * np.arange(64) / 64)
        for z, r in zip(zs, ev(zs)):
            single = ev(z)
            assert np.abs(r - single).max() <= 1e-12 * max(1.0, np.abs(single).max())

    def test_batch_spans_block_boundary(self, monkeypatch):
        # a budget 36 times smaller keeps each block to a hundred-odd points
        # (128 on the eigen path, 56 on the LU path), every one checked below
        monkeypatch.setattr(nev, "BLOCK_BYTES", nev.BLOCK_BYTES // 36)
        for path in ("eigen", "lu"):
            rng = np.random.default_rng(25)
            model = random_model(rng, d=2, num_nodes=4, order=6)
            p = mk.SchurParameter(random_contraction(rng, model.defect_dims[::-1]))
            if path == "lu":
                monkeypatch.setattr(nev, "EIG_COND_LIMIT", 0.0)
            ev = model.evaluator(p)
            assert (ev._poles is None) == (path == "lu")
            zs = np.array([random_upper_z(rng) for _ in range(ev.block_points + 1)])
            batch = ev(zs)
            h = random_vector(rng, 2)
            for z, r in zip(zs, batch):
                assert_allclose(r, ev(z), rtol=0, atol=1e-12 * max(1.0, np.abs(r).max()))
                oracle = direct_oracle(model.cayley, p, model.moments, z, h)
                assert abs(np.vdot(h, r @ h) - oracle) <= 1e-10 * max(1.0, abs(oracle))

    def test_scalar_and_array_shapes(self, gaussian_model):
        ev = gaussian_model.evaluator()
        assert ev(2j).shape == (1, 1)
        assert ev(np.array([[2j, 1 + 1j]] * 3)).shape == (3, 2, 1, 1)
        assert ev(np.array([], dtype=complex)).shape == (0, 1, 1)

    @pytest.mark.parametrize("bad", [0.5 + 0j])
    def test_one_bad_point_rejects_batch(self, gaussian_model, bad):
        ev = gaussian_model.evaluator()
        zs = np.array([2j, 1 + 1j, bad, -1 + 0.5j])
        with pytest.raises(mk.DomainError):
            ev(zs)

    @pytest.mark.parametrize("near", [1j, 1j + 1e-7, -1j - 1e-7])
    def test_points_at_and_next_to_i_take_the_batch(self, gaussian_model, near):
        # no band around i: the point is evaluated with the others, below
        # the axis by reflection, within the evaluator's bound of the
        # realization, as alone, and without a RuntimeWarning
        p = mk.SchurParameter([[0.3 - 0.4j]])
        ev = gaussian_model.evaluator(p)
        zs = np.array([2j, 1 + 1j, near, -1 + 0.5j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = ev(zs)
        for z, r in zip(zs, batch):
            want = realization(gaussian_model, p, z.conjugate() if z.imag < 0 else z)
            if z.imag < 0:
                want = want.conj().T
            assert np.linalg.norm(r - want, 2) <= 1e-9 * max(1.0, np.linalg.norm(want, 2))
        single = ev(near)
        assert np.abs(batch[2] - single).max() <= 1e-12 * max(1.0, np.abs(single).max())

    @pytest.mark.parametrize("bad", [complex(np.nan, 1.0), complex(np.nan, -1.0),
                                     complex(np.inf, 0.5), complex(0.5, np.inf)])
    def test_non_finite_point_named_as_given(self, gaussian_model, bad):
        # refused before any arithmetic (a RuntimeWarning fails the test), and
        # named as the caller gave it: not reflected into the upper half-plane
        ev = gaussian_model.evaluator()
        calls = [lambda: ev(bad), lambda: ev(np.array([2j, -1.0 - 1.0j, bad])),
                 lambda: ev.value(bad),
                 lambda: blocks(gaussian_model.cayley, gaussian_model.zero_parameter(), bad)]
        for call in calls:
            with pytest.raises(mk.DomainError, match=re.escape(f"z={bad} is not a finite point")):
                call()

    def test_pencil_gate_uses_exact_condition(self, monkeypatch):
        model = random_model(np.random.default_rng(20), d=2, num_nodes=4, order=4)
        ev = model.evaluator()  # zero parameter: H is the identity
        zs = np.linspace(-2.0, 2.0, 9) + 1e-3j
        conds, bounds = pencil_conditions(model, zs)
        threshold = 1.01 * conds.max()
        assert np.all(bounds > threshold)  # the bound settles none of the points
        monkeypatch.setattr(_linalg, "COND_THRESHOLD", threshold)
        assert np.isfinite(ev(zs)).all()
        monkeypatch.setattr(_linalg, "COND_THRESHOLD", float(np.median(conds)))
        with pytest.raises(mk.ConditioningError, match="M_i block"):
            ev(zs)

    def test_pencil_gate_where_the_isometry_bound_settles_nothing(self, gaussian_model,
                                                                   monkeypatch):
        # next to the real axis |w| < 1 + ISOMETRY_TOL, so the bound on
        # ||V_mi|| settles no point and one stacked exact condition number
        # decides; an empty M_i block (the zero sequence) has no gate at all
        zs = np.array([0.5 + 1e-10j, -2.0 + 1e-10j])
        assert np.all(np.abs((zs + 1j) / (zs - 1j)) < 1.0 + ISOMETRY_TOL)
        conds = []

        def recording(a, cond=np.linalg.cond):
            conds.append(a.shape)
            return cond(a)

        monkeypatch.setattr(np.linalg, "cond", recording)
        assert np.isfinite(gaussian_model.evaluator()(zs)).all()
        k = gaussian_model.cayley.basis_mi.shape[1]
        assert conds[0] == (2, k, k)  # then the Schur complement's, (2, 1, 1)
        zero = mk.build_model(mk.MomentSequence([0.0, 0.0, 0.0]))
        assert zero.cayley.basis_mi.shape[1] == 0
        assert not np.any(zero.evaluator()(zs))

    def test_pencil_gate_stacks_within_the_budget(self, monkeypatch):
        model, _ = d4_model(12)
        ev = model.evaluator()
        zs = np.linspace(-3.0, 3.0, 300) + 1e-3j
        conds, bounds = pencil_conditions(model, zs)
        threshold = 1.01 * conds.max()
        assert np.all(bounds > threshold)  # every point needs its exact condition number
        assert ev.block_points >= zs.size  # one block of the eigen path
        stacks = []

        def recording(a, cond=np.linalg.cond):
            if a.shape[-2:] == (24, 24):  # not the Schur complement gate's
                stacks.append(a.nbytes)
            return cond(a)

        monkeypatch.setattr(np.linalg, "cond", recording)
        monkeypatch.setattr(_linalg, "COND_THRESHOLD", threshold)
        assert np.isfinite(ev(zs)).all()
        # 128 pencils of k = 24 at a time, within the byte budget
        assert len(stacks) == 3 and max(stacks) <= nev.BLOCK_BYTES
        # the first point that fails is the one named
        threshold = float(np.median(conds))
        monkeypatch.setattr(_linalg, "COND_THRESHOLD", threshold)
        first = complex(zs[int(np.argmax(conds > threshold))])
        with pytest.raises(mk.ConditioningError, match=re.escape(f"z={first}")):
            ev(zs)

    def test_schur_complement_gate(self, monkeypatch):
        rng = np.random.default_rng(20)
        model = random_model(rng, d=2, num_nodes=4, order=4)
        p = mk.SchurParameter(random_unitary(rng, model.defect_dims[0]))
        a_tilde = mk.inverse_cayley(mk.unitary_extension(model.cayley, p))
        # just above the atoms of the canonical solution H is nearly singular
        zs = np.linalg.eigvalsh(0.5 * (a_tilde + a_tilde.conj().T)) + 1e-6j
        pencil_max = pencil_conditions(model, zs)[0].max()
        conds_h = [blocks(model.cayley, p, z).cond_H for z in zs]
        threshold = np.sqrt(pencil_max * max(conds_h))
        assert pencil_max < threshold < max(conds_h)
        monkeypatch.setattr(_linalg, "COND_THRESHOLD", threshold)
        with pytest.raises(mk.ConditioningError, match="Schur complement"):
            model.evaluator(p)(zs)
        # blocks gates H on the exact condition number it reports
        j = int(np.argmax(conds_h))
        with pytest.raises(mk.ConditioningError, match="Schur complement") as err:
            blocks(model.cayley, p, zs[j])
        assert err.value.cond == conds_h[j]


def d4_model(seed):
    """The largest model of the envelope, d = 4 and 2n = 12 (defects (4, 4))."""
    rng = np.random.default_rng(seed)
    model = mk.build_model(mk.generate_from_measure(random_measure(rng, 4, 30), 12))
    assert model.defect_dims == (4, 4)
    return model, rng


def built_now(model, p):
    """An evaluator built by its own constructor under the module's limits as they are now."""
    return mk.TransformEvaluator(model.moments, model.cayley, p)


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
        assert ev._poles is not None
        eig = ev(zs)
        mi = model.cayley.mi_block
        # the limit is compared per evaluator, also on an already factored model
        monkeypatch.setattr(nev, "EIG_COND_LIMIT", 0.0)
        ev = built_now(model, p)
        assert ev._poles is None and model.cayley.mi_block is mi
        lu = ev(zs)
        scale = np.abs(lu).max(axis=(1, 2), keepdims=True)
        assert (np.abs(eig - lu) <= 1e-12 * scale).all()
        # blocks takes one LU whatever the limit: A_hat against the dense
        # inverse of the M_i block -zeta (V_mi - w), and H^{-1} against the
        # N_i block of the dense inverse of E - zeta (V + Phi)
        zeta = (zs[0] - 1j) / (zs[0] + 1j)
        a_hat = np.linalg.inv(-zeta * (mi.v_mi - np.eye(mi.v_mi.shape[0]) / zeta))
        got = blocks(model.cayley, p, zs[0])
        assert_allclose(got.A_hat, a_hat, rtol=0, atol=1e-12 * np.abs(a_hat).max())
        n_in = model.cayley.defect_in_basis
        h_inv = n_in.conj().T @ dense_topleft(model, p, zs[0])[1] @ n_in
        assert_allclose(np.linalg.inv(got.H), h_inv, rtol=0, atol=1e-12 * np.abs(h_inv).max())

    @pytest.mark.parametrize("eigenvalue", [0.0, 0.5])
    def test_defective_block_falls_back_to_lu(self, eigenvalue):
        # V on C^4, isometric on M_i = span(e_1, e_2), with V_mi = U* V U the
        # Jordan block [[lambda, beta], [0, lambda]], beta = 1 - lambda: eig
        # returns two (nearly) parallel eigenvectors.  Orthonormal columns of
        # V U whose first two rows are V_mi: the first column is completed on
        # e_3, the second made orthogonal to it through e_3 and completed on e_4
        beta = 1.0 - eigenvalue
        v = np.array([[eigenvalue, beta], [0.0, eigenvalue]], dtype=complex)
        a = np.sqrt(1.0 - eigenvalue**2)
        b3 = -eigenvalue * beta / a
        vu = np.concatenate([v, [[a, b3], [0.0, np.sqrt(1.0 - beta**2 - eigenvalue**2 - b3**2)]]])
        empty = np.zeros((4, 0), dtype=complex)
        c = CayleyData(V=np.concatenate([vu, np.zeros((4, 2))], axis=1),
                       defect_in_basis=empty, defect_out_basis=empty,
                       basis_mi=np.eye(4, 2, dtype=complex), K=np.eye(4, 2, dtype=complex))
        assert_allclose(c.mi_block.v_mi, v, rtol=0, atol=0)
        p = mk.SchurParameter(np.zeros((0, 0)))
        s = np.eye(2, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # K = U makes the evaluator's legs L = K_mi* V_mi and R = V_mi K_mi
            # equal to V_mi, so G(w) is V_mi (V_mi - w)^{-1} V_mi
            ev = mk.TransformEvaluator(mk.MomentSequence([s, 0 * s, s]), c, p)
            assert ev._poles is None
            zs = np.array([2j, 0.5 + 1e-3j, -3.0 + 0.1j])
            w = (zs + 1j) / (zs - 1j)
            # _solve fills Q in its view of the thread's working buffer, the
            # last one; it is read before any other call
            views = nev._workspace(zs.size, 2, 2)[:4]
            ev._solve(zs, w, *views)
            g = views[-1]
        # points last, and no Schur block: d_+ = 0
        assert g.shape == (2, 2, zs.size)
        for w_j, g_j in zip(w, np.moveaxis(g, -1, 0)):
            want = v @ np.linalg.inv(v - w_j * np.eye(2)) @ v
            assert_allclose(g_j, want, rtol=1e-14, atol=1e-14)

    def test_decompositions_counted(self, monkeypatch):
        model, rng = d4_model(12)
        p = mk.SchurParameter(random_unitary(rng, 4))
        q = mk.SchurParameter(0.5 * random_unitary(rng, 4))
        k = model.cayley.basis_mi.shape[1]
        calls = {"eig": 0, "svd": 0, "cond": 0, "inv": 0, "pencil solve": 0}

        def counting(name):
            func = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        pencil_bytes = []

        def counting_solve(a, b, solve=np.linalg.solve):
            if a.shape[-2:] == (k, k):
                calls["pencil solve"] += 1
                pencil_bytes.append(a.nbytes)
            return solve(a, b)

        for name in ("eig", "svd", "cond", "inv"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        zs = np.linspace(-3.0, 3.0, 500) + 1e-3j
        ev = model.evaluator(p)
        assert calls["eig"] == calls["inv"] == 1
        assert ev.block_points >= zs.size  # a Stieltjes-Perron cell is one block
        ev(zs)
        # another parameter's evaluator reads the factored M_i block and K's legs
        model.evaluator(q)(zs)
        assert calls == {"eig": 1, "svd": 0, "cond": 0, "inv": 1, "pencil solve": 0}
        monkeypatch.setattr(nev, "EIG_COND_LIMIT", 0.0)  # one LU per block instead
        lu = built_now(model, p)
        lu(zs)
        assert calls["pencil solve"] == -(-zs.size // lu.block_points)
        # the stacked pencils stay within the byte budget, 128 of them at k = 24
        assert k == 24 and lu.block_points == 128
        assert max(pencil_bytes) <= nev.BLOCK_BYTES

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
                b = blocks(model.cayley, p, z)
            except mk.ConditioningError as err:  # H past the 1e12 gate
                assert "Schur complement" in str(err)
                assert err.cond <= bound
                continue
            if d_plus:  # the exact condition number, not the bound
                assert b.cond_H == np.linalg.cond(b.H)
            assert b.cond_H <= bound


def per_point_gate_error(model, p, zs, threshold):
    """Oracle: the message of the first gate that fails at zs, or None.

    Each point is tested by its own bound for the M_i block and then, as
    the evaluator orders them, by its own bound for H, with the exact
    condition number wherever a bound does not settle the gate.
    """
    mi = model.cayley.mi_block
    k, d_plus = mi.v_mi.shape[0], p.shape[1]
    c = 0.5 * threshold
    v_bound = 1.0 + ISOMETRY_TOL  # ||V_mi||'s, from the Cayley gate
    omega = max(1.0, np.linalg.norm(p.matrix, 2)) if p.matrix.size else 1.0
    zetas = (zs - 1j) / (zs + 1j)
    for z, zeta in zip(zs, zetas):
        aw = abs(1.0 / zeta)
        if (aw - v_bound) * c < aw + v_bound:
            cond = np.linalg.cond(mi.v_mi - (1.0 / zeta) * np.eye(k))
            if not cond <= threshold:
                return f"M_i block too ill-conditioned at z={complex(z)}", cond
    for z, zeta in zip(zs, zetas):
        t = abs(zeta) * omega
        if d_plus and 1.0 + t > np.sqrt(c) * (1.0 - t):
            g_22 = mi.nvb @ np.linalg.solve(mi.v_mi - (1.0 / zeta) * np.eye(k), mi.bn @ p.matrix)
            h = np.eye(d_plus) - zeta * (mi.nn @ p.matrix - g_22)
            cond = np.linalg.cond(h)
            if not cond <= threshold:
                message = "Schur complement singular; parameter/point rejected"
                return f"{message} at z={complex(z)}", cond
    return None


class TestPerCallConstant:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 3),
        phi_kind=st.sampled_from(["zero", "unitary", "contraction"]),
        log_threshold=st.floats(0.7, 3.0),
    )
    def test_gates_give_the_per_point_verdict(self, seed, d, phi_kind, log_threshold):
        rng = np.random.default_rng(seed)
        order = 2 * int(rng.integers(2, 5))
        mu = random_measure(rng, d, order // 2 + 1 + d)
        try:
            model = mk.build_model(mk.generate_from_measure(mu, order))
        except (mk.ConsistencyError, mk.ShiftConsistencyError):
            assume(False)  # a known refusal of valid input, not these gates
        d_plus, d_minus = model.defect_dims
        if phi_kind == "unitary":
            p = mk.SchurParameter(random_unitary(rng, d_plus))
        elif phi_kind == "contraction":
            p = mk.SchurParameter(random_contraction(rng, (d_minus, d_plus)))
        else:
            p = model.zero_parameter()
        threshold = 10.0**log_threshold
        c = 0.5 * threshold
        root = np.sqrt(c)
        omega = max(1.0, np.linalg.norm(p.matrix, 2)) if p.matrix.size else 1.0
        radii = [(root - 1.0) / ((root + 1.0) * omega),
                 (c - 1.0) / ((c + 1.0) * (1.0 + ISOMETRY_TOL))]
        # the per-point bounds settle a gate exactly where |zeta| is within
        # r_M = (c-1)/((c+1)(1 + ISOMETRY_TOL)) for the M_i block and r_H =
        # (sqrt(c)-1)/((sqrt(c)+1) omega) for H; points with |zeta| within
        # 1e-9 of each radius, on either side, and four further out, where
        # the gates may fail
        moduli = [r * (1.0 + side * 10.0 ** rng.uniform(-11.0, -9.0))
                  for r in radii for side in (-1.0, 1.0)]
        moduli += list(1.0 - 10.0 ** rng.uniform(-4.0, -1.0, 4))
        zetas = [r * np.exp(2j * np.pi * rng.uniform()) for r in moduli]
        zs = [1j * (1.0 + zeta) / (1.0 - zeta) for zeta in zetas if abs(zeta) < 0.999]
        if phi_kind == "unitary":  # just above the atoms, where H is nearly singular
            try:
                a_tilde = mk.inverse_cayley(mk.unitary_extension(model.cayley, p))
            except mk.ConditioningError:  # an atom at infinity
                a_tilde = np.zeros((0, 0))
            atoms = np.linalg.eigvalsh(0.5 * (a_tilde + a_tilde.conj().T))[:3]
            zs += list(atoms + 1j * 10.0 ** rng.uniform(-6.0, -2.0, atoms.size))
        zs = np.array(zs)
        zs = zs[np.abs(zs - 1j) >= 1e-5]
        assume(zs.size)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_linalg, "COND_THRESHOLD", threshold)
            ev = model.evaluator(p)
            for points in [zs] + [zs[j : j + 1] for j in range(zs.size)]:
                want = per_point_gate_error(model, p, points, threshold)
                calls = [lambda: ev(points)]
                if points.size == 1:
                    calls.append(lambda: blocks(model.cayley, p, points[0]))
                for call in calls:
                    try:
                        call()
                        got = None
                    except mk.ConditioningError as err:
                        got = str(err).split(" (cond ")[0], err.cond
                    if want is None or got is None:
                        assert got == want
                    else:
                        assert got[0] == want[0]
                        # the oracle forms H by LU: its condition number agrees
                        # to rounding times the condition number
                        assert abs(got[1] - want[1]) <= 1e-12 * want[1] * max(1.0, want[1])

    @pytest.mark.parametrize("seed", [4, 9])
    def test_one_point_forms_are_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        for d in (1, 2, 4):
            model = random_model(rng, d=d, num_nodes=d + 3, order=6)
            p = mk.SchurParameter(random_contraction(rng, model.defect_dims[::-1]))
            ev = model.evaluator(p)
            for z in [random_upper_z(rng) for _ in range(5)] + [1j + 1e-4, 0.3 + 1e-3j]:
                r = ev.value(z).R
                assert ev(z).tobytes() == r.tobytes()
                assert ev(np.array([z]))[0].tobytes() == r.tobytes()

    @pytest.mark.parametrize("determinate", [False, True])
    def test_decompositions_per_call(self, monkeypatch, determinate):
        rng = np.random.default_rng(11 if determinate else 12)
        mu = random_measure(rng, 4, 6 if determinate else 30)
        model = mk.build_model(mk.generate_from_measure(mu, 12))
        d_plus = model.defect_dims[0]
        assert d_plus == (0 if determinate else 4)
        ev = model.evaluator(mk.SchurParameter(random_unitary(rng, d_plus)))
        calls = dict.fromkeys(("eig", "svd", "cond", "inv", "lstsq", "solve"), 0)

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        # numpy's own calls (np.linalg.cond calls svd) go through np.linalg._linalg
        for name in calls:
            wrapper = counting(name, getattr(np.linalg, name))
            monkeypatch.setattr(np.linalg, name, wrapper)
            monkeypatch.setattr(np.linalg._linalg, name, wrapper)

        def taken():
            out = dict(calls)
            calls.update(dict.fromkeys(calls, 0))
            return out

        # H's pivots are eliminated in place: no factorization per point
        one_point = dict.fromkeys(calls, 0)
        for z in (0.5 + 2j, -1.0 + 0.1j, 0.3 + 1e-3j, 1j + 1e-4):
            ev.value(z)
            assert taken() == one_point
        y_grid = np.geomspace(1e2, 1e4, 6)
        ev(1j * y_grid)
        alone = taken()
        # the fit's design is decomposed once per (k_max, heights): one SVD, then none
        mk.reconstruct._moment_design.cache_clear()
        for svds in (1, 0):
            mk.asymptotic_moments(ev, 4, y_grid)
            fit = taken()
            assert {name: fit[name] - alone[name] for name in calls} == (
                dict.fromkeys(calls, 0) | {"svd": svds}
            )


def lapack_value(model, p, z):
    """Oracle: R(z) in the evaluator's pole-free form, from the inverse that LAPACK
    solves assemble on `blocks` (`frobenius_topleft` for its top-left block)."""
    b = blocks(model.cayley, p, z)
    h_inv = np.linalg.inv(b.H)
    inverse = np.block([[frobenius_topleft(b), -b.A_hat @ b.B @ h_inv],
                        [-h_inv @ b.C @ b.A_hat, h_inv]])
    mi = model.cayley.mi_block
    k_mi = model.cayley.basis_mi.conj().T @ model.cayley.K
    kw = np.concatenate([k_mi.conj().T @ mi.v_mi, k_mi.conj().T @ mi.bn @ p.matrix], axis=1)
    vk = np.concatenate([mi.v_mi @ k_mi, mi.nvb @ k_mi])
    s0, s1, s2 = (model.moments.moment(j) for j in range(3))
    s = z + 1j
    return (2j / s**4 * (kw @ inverse @ vk)
            - (s0 * s**2 + (s1 + 1j * s0) * s + (s2 - s0 + 2j * s1)) / s**3)


def zero_pivot_evaluator():
    """An evaluator and the point z where its Schur complement has a zero pivot.

    Cayley data built by hand, with a leg N_+* N_- of norm above one (no model
    has that), make H / zeta = [[1, 1], [1, 0]] at z = iy, y = 2^21 - 1, where
    zeta = 1 - 2^-20 exactly: well conditioned, so its gate passes, but |zeta|
    is too close to 1 for the bound to settle the gate, and the trailing pivot
    is zero.  V = e_1 e_1* is isometric on M_i = span(e_1), and its legs
    N_+* V U and U* N_- vanish.
    """
    z = complex(0.0, 2.0**21 - 1.0)
    w = 1.0 / ((z - 1j) / (z + 1j))
    assert w.imag == 0.0
    eye3 = np.eye(3, dtype=complex)
    out_basis = np.array([[0, 0], [w - 1.0, -1.0], [-1.0, w]], dtype=complex)
    c = CayleyData(V=np.diag([1.0, 0.0, 0.0]).astype(complex), defect_in_basis=eye3[:, 1:],
                   defect_out_basis=out_basis, basis_mi=eye3[:, :1], K=eye3[:, :1])
    s = np.eye(1, dtype=complex)
    ev = mk.TransformEvaluator(mk.MomentSequence([s, 0 * s, s]), c, mk.SchurParameter(np.eye(2)))
    return ev, z


class TestPointsLastElimination:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        phi_kind=st.sampled_from(["zero", "unitary", "contraction", "near-unitary"]),
    )
    def test_matches_lapack_path(self, seed, d, phi_kind):
        rng = np.random.default_rng(seed)
        order = 2 * int(rng.integers(1, 7))
        mu = random_measure(rng, d, int(rng.integers(1, order // 2 + 3)))
        try:
            model = mk.build_model(mk.generate_from_measure(mu, order))
        except (mk.ConsistencyError, mk.ShiftConsistencyError):
            assume(False)  # a known refusal of valid input, not this elimination
        d_plus, d_minus = model.defect_dims
        if phi_kind == "unitary":
            p = mk.SchurParameter(random_unitary(rng, d_plus))
        elif phi_kind == "contraction":
            p = mk.SchurParameter(random_contraction(rng, (d_minus, d_plus)))
        elif phi_kind == "near-unitary":
            p = mk.SchurParameter((1.0 - 1e-9) * random_unitary(rng, d_plus))
        else:
            p = model.zero_parameter()
        with pytest.MonkeyPatch.context() as mp:
            evaluators = {"eigen": model.evaluator(p)}
            mp.setattr(nev, "EIG_COND_LIMIT", 0.0)
            evaluators["lu"] = built_now(model, p)
        assert evaluators["lu"]._poles is None
        for _ in range(8):
            z = complex(rng.uniform(-2.5, 2.5), 10.0 ** rng.uniform(-4.0, np.log10(3.0)))
            if abs(z - 1j) < 0.1:
                continue
            want = lapack_value(model, p, z)
            scale = max(1.0, np.linalg.norm(want, 2))
            # the LU path forms G as the oracle does: what is left is the
            # pivot-free elimination against LAPACK's pivoted solve.  The pole
            # sum of the eigen path rounds 1/(lambda_j - w) with the error of
            # the eigenvalues; near the axis (Im z ~ 1e-4, cond(V_mi - w) up to
            # 1e3) that alone has reached 1.9e-12 relative
            for path, tol in (("lu", 1e-12), ("eigen", 1e-11)):
                assert np.abs(evaluators[path](z) - want).max() <= tol * scale

    @pytest.mark.parametrize("path", ["eigen", "lu"])
    def test_cell_line_equals_pointwise(self, monkeypatch, path):
        # the smallest-epsilon line of a Stieltjes-Perron cell, 508 points
        model, rng = d4_model(12)
        p = mk.SchurParameter(random_unitary(rng, 4))
        if path == "lu":
            monkeypatch.setattr(nev, "EIG_COND_LIMIT", 0.0)
        ev = model.evaluator(p)
        assert (ev._poles is None) == (path == "lu")
        zs = np.linspace(-0.4, -0.4 + 0.0625, 508) + 1.25e-3j
        batch = ev(zs)
        for z, r in zip(zs, batch):
            single = ev(z)
            assert np.abs(r - single).max() <= 1e-12 * max(1.0, np.abs(single).max())

    def test_zero_pivot_refused(self):
        ev, z = zero_pivot_evaluator()
        message = re.escape(f"zero or non-finite pivot; parameter/point rejected at z={z}")
        for call in (lambda: ev(z), lambda: ev.value(z), lambda: ev(np.array([3j, z, 2j]))):
            with pytest.raises(mk.ConditioningError, match=message):
                call()


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def cell_points():
    """The smallest-epsilon line of a D4 Stieltjes-Perron cell, 508 points."""
    return np.linspace(-0.4, -0.4 + 0.0625, 508) + 1.25e-3j


class TestWorkspace:
    """The working buffer that every evaluator on a thread shares."""

    @staticmethod
    def evaluators(gaussian_model):
        model, rng = d4_model(12)
        evs = {
            "gauss": gaussian_model.evaluator(mk.SchurParameter.scalar_unitary(np.pi / 2, (1, 1))),
            "d4": model.evaluator(mk.SchurParameter(random_unitary(rng, 4))),
            "d4 contraction": model.evaluator(mk.SchurParameter(random_contraction(rng, (4, 4)))),
        }
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nev, "EIG_COND_LIMIT", 0.0)
            evs["d4 lu"] = built_now(model, mk.SchurParameter(np.eye(4)))
        assert [ev._poles is None for ev in evs.values()] == [False, False, False, True]
        return evs

    def test_result_outlives_later_calls(self, gaussian_model):
        evs = self.evaluators(gaussian_model)
        kept = []
        for ev in evs.values():
            for zs in (cell_points(), 2j, cell_points()[:3], np.linspace(-2.0, 2.0, 2000) + 0.5j):
                r = ev(zs)
                assert not np.shares_memory(r, nev._local.buffer)
                kept.append((r, r.copy()))
                ev(zs + 0.5)  # the same call at other points
        assert all(bits(r) == bits(copy) for r, copy in kept)

    def test_alternating_evaluators_equal_each_alone(self, gaussian_model):
        evs = self.evaluators(gaussian_model)
        calls = [(evs[name], points) for name in ("gauss", "d4")
                 for points in (cell_points(), cell_points()[7])]
        alone = []
        for ev, points in calls:
            with ThreadPoolExecutor(1) as pool:  # a new thread, with a buffer of its own
                alone.append(pool.submit(ev, points).result())
        for _ in range(2):
            for order in ((0, 2, 1, 3), (3, 1, 2, 0)):  # Gaussian and D4 in turn
                for j in order:
                    ev, points = calls[j]
                    assert bits(ev(points)) == bits(alone[j])

    def test_threads_equal_serial(self, gaussian_model):
        evs = list(self.evaluators(gaussian_model).values())
        rng = np.random.default_rng(4)
        # 1,500 points span two blocks of the D4 eigen path and twelve of the LU path
        sets = [np.array([random_upper_z(rng, im_min=1e-3) for _ in range(n)])
                for n in (1, 13, 508, 1500)]
        jobs = [(ev, zs) for ev in evs for zs in sets] * 2
        serial = [bits(ev(zs)) for ev, zs in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(lambda job: bits(job[0](job[1])), jobs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_second_call_allocates_only_its_output(self):
        model, rng = d4_model(12)
        ev = model.evaluator(mk.SchurParameter(random_unitary(rng, 4)))
        zs = cell_points()
        ev(zs)
        # at numpy's default buffer size a strided ufunc call would take up to
        # three iterator buffers of 128 KiB; the call runs its blocks with
        # buffers of BUFFER_ENTRIES, so what is left is the arrays it makes
        assert np.getbufsize() == 8192
        tracemalloc.start()
        try:
            out = ev(zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 64 * 1024


class TestBufferScope:
    """The ufunc buffer size that `_native` sets for its blocks, and only for them."""

    @staticmethod
    def calls(gaussian_model):
        evs = TestWorkspace.evaluators(gaussian_model)
        points = (cell_points(), 1j, np.array([1j, 1j + 1e-12, 0.5 + 1j]),
                  np.linspace(-2.0, 2.0, 2000) + 0.5j)
        return [(ev, zs) for ev in evs.values() for zs in points]

    # 16 and 2^20 entries on either side of BUFFER_ENTRIES, and numpy's default
    @pytest.mark.parametrize("bufsize", [16, 8192, 2**20])
    def test_values_do_not_depend_on_the_callers_buffer_size(self, gaussian_model, bufsize):
        calls = self.calls(gaussian_model)
        want = [bits(ev(zs)) for ev, zs in calls]
        with np.errstate():
            np.setbufsize(bufsize)
            assert [bits(ev(zs)) for ev, zs in calls] == want

    def test_callers_state_restored(self, gaussian_model):
        calls = self.calls(gaussian_model)
        refused, z = zero_pivot_evaluator()
        bad = [(lambda: calls[0][0](np.array([1j, np.nan])), mk.DomainError),
               (lambda: refused(np.array([3j, z, 2j])), mk.ConditioningError)]
        for bufsize in (16, 8192, 2**20):
            with np.errstate(all="ignore"):  # not numpy's default
                np.setbufsize(bufsize)
                state = np.geterr()
                for ev, zs in calls:
                    ev(zs)
                    assert np.getbufsize() == bufsize and np.geterr() == state
                for call, error in bad:
                    with pytest.raises(error):
                        call()
                    assert np.getbufsize() == bufsize and np.geterr() == state

    def test_other_threads_buffer_size_untouched(self, gaussian_model):
        calls = self.calls(gaussian_model)
        started, done = threading.Event(), threading.Event()

        def evaluate():
            before = np.getbufsize()
            started.set()
            try:
                for _ in range(3):
                    for ev, zs in calls:
                        ev(zs)
            finally:
                done.set()
            return before, np.getbufsize()

        seen = set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with np.errstate(), ThreadPoolExecutor(1) as pool:
                np.setbufsize(1024)
                future = pool.submit(evaluate)
                assert started.wait(60)
                while not done.is_set():
                    seen.add(np.getbufsize())
                before, after = future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert seen == {1024} and after == before


class TestModelEvaluator:
    def test_equals_a_fresh_build(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, d=2, num_nodes=4, order=4)
        p = mk.SchurParameter(random_contraction(rng, model.defect_dims[::-1]))
        zs = np.array([random_upper_z(rng) for _ in range(9)])
        assert bits(model.evaluator(p)(zs)) == bits(built_now(model, p)(zs))
        assert bits(model.evaluator()(zs)) == bits(built_now(model, model.zero_parameter())(zs))

    def test_threads_get_the_evaluator_of_their_parameter(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, d=2, num_nodes=4, order=4)
        params = [mk.SchurParameter(random_contraction(rng, model.defect_dims[::-1]))
                  for _ in range(4)]
        legs = [built_now(model, p)._constants for p in params]  # Phi's own

        def worker(j):
            return all(bits(model.evaluator(params[(j + i) % 4])._constants)
                       == bits(legs[(j + i) % 4])
                       for i in range(2000))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                assert all(pool.map(worker, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)


def paper_value(model, p, z):
    """Oracle: R(z) in the paper's form, from the top-left block of the inverse that
    `frobenius_topleft` assembles on `blocks`, with K in the basis of M_i."""
    c, m = model.cayley, model.moments
    k_mi = c.basis_mi.conj().T @ c.K
    resolvent = k_mi.conj().T @ frobenius_topleft(blocks(c, p, z)) @ k_mi
    s0, s1, s2 = (m.moment(j) for j in range(3))
    denom = z * z + 1.0
    return 2j / denom**2 * resolvent - (s2 + s0) / ((z - 1j) * denom) - (z * s0 + s1) / denom


def indeterminate_model(rng, d):
    """A seeded d x d model with defects (d, d), 2n = 6."""
    model = random_model(rng, d=d, num_nodes=d + 4, order=6)
    assert model.defect_dims == (d, d)
    return model


class TestZeroParameterWidth:
    """At Phi = 0 an evaluator runs at width d, as a determinate model does."""

    @pytest.mark.parametrize("path", ["eigen", "lu"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_blocks_and_direct_oracle(self, monkeypatch, d, path):
        rng = np.random.default_rng(40 + d)
        model = indeterminate_model(rng, d)
        p = model.zero_parameter()
        if path == "lu":
            monkeypatch.setattr(nev, "EIG_COND_LIMIT", 0.0)
        ev = built_now(model, p)
        assert (ev._poles is None) == (path == "lu")
        assert ev._constants.size == d * d  # no defect legs, no Schur complement
        zs = np.array([random_upper_z(rng) for _ in range(12)])
        for z, r in zip(zs, ev(zs)):
            scale = max(1.0, np.linalg.norm(r, 2))
            assert np.abs(r - paper_value(model, p, z)).max() <= 1e-12 * scale
            h = random_vector(rng, d)
            oracle = direct_oracle(model.cayley, p, model.moments, z, h)
            assert abs(np.vdot(h, r @ h) - oracle) <= 1e-12 * scale * np.vdot(h, h).real

    def test_block_points_follow_the_determinate_rule(self):
        # the eigen path's per-point stack is max(k, width^2), the LU path's max(k, width)^2
        rng = np.random.default_rng(44)
        for d in (1, 2, 3, 4):
            determinate = random_model(rng, d=d, num_nodes=2, order=6)
            assert determinate.determinate
            indeterminate = indeterminate_model(rng, d)
            for model in (determinate, indeterminate):
                k = model.cayley.basis_mi.shape[1]
                assert model.evaluator().block_points == nev._points_per_block(max(k, d * d))
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(nev, "EIG_COND_LIMIT", 0.0)
                    lu = built_now(model, model.zero_parameter())
                assert lu.block_points == nev._points_per_block(max(k, d) ** 2)
            # a nonzero parameter keeps width d + d_+
            unitary = mk.SchurParameter(random_unitary(rng, d))
            k = indeterminate.cayley.basis_mi.shape[1]
            want = nev._points_per_block(max(k, (2 * d) ** 2))
            assert indeterminate.evaluator(unitary).block_points == want

    @pytest.mark.parametrize("kind", ["determinate", "zero"])
    def test_batch_equals_one_point_bit_for_bit_at_d1(self, kind):
        # one column of residues at width 1 would go to BLAS's matrix-vector kernel,
        # whose rounding depends on the number of points in the product
        rng = np.random.default_rng(45)
        zs = np.concatenate([[random_upper_z(rng) for _ in range(40)],
                             np.linspace(-2.0, 2.0, 30) + 1e-3j, [1j, 1j + 1e-7]])
        for _ in range(8):
            order = 2 * int(rng.integers(2, 7))
            nodes = int(rng.integers(1, order // 2 + 1)) if kind == "determinate" else order
            model = random_model(rng, d=1, num_nodes=nodes, order=order)
            assert model.determinate == (kind == "determinate")
            ev = model.evaluator()
            batch = ev(zs)
            assert all(bits(r) == bits(ev(z)) for z, r in zip(zs, batch))
            assert all(bits(r) == bits(ev.value(z).R) for z, r in zip(zs, batch))


def envelope(seed):
    """The benchmark's seeded envelope fixtures, read from bench/inputs.py."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "inputs.py")
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.envelope(seed)


class TestPoleFreeForm:
    """One formula and one bound on all of C+, z = i included."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        n=st.integers(1, 6),
        phi_kind=st.sampled_from(["zero", "unitary", "contraction"]),
    )
    def test_matches_realization_up_to_i(self, seed, d, n, phi_kind):
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, d, int(rng.integers(1, n + 3)))
        try:
            model = mk.build_model(mk.generate_from_measure(mu, 2 * n))
        except (mk.ConsistencyError, mk.ShiftConsistencyError):
            assume(False)  # a known refusal of valid input, not this formula
        d_plus, d_minus = model.defect_dims
        if phi_kind == "unitary":
            p = mk.SchurParameter(random_unitary(rng, d_plus))
        elif phi_kind == "contraction":
            p = mk.SchurParameter(random_contraction(rng, (d_minus, d_plus)))
        else:
            p = model.zero_parameter()
        radii = [0.0, 1e-12, 1e-9, 1.01e-6, 1e-4, 1e-2]
        zs = np.array([1j + r * np.exp(1j * rng.uniform(0.0, np.pi)) for r in radii]
                      + [random_upper_z(rng) for _ in range(3)])
        try:
            want = [realization(model, p, z) for z in zs]
        except mk.ConditioningError:  # W has the eigenvalue 1: an atom at infinity
            assume(False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model.evaluator(p)(zs)
        for r, w in zip(got, want):
            assert np.linalg.norm(r - w, 2) <= 1e-9 * max(1.0, np.linalg.norm(w, 2))

    @pytest.mark.parametrize("name", ["gauss", "d2"])
    def test_matches_moment_reference(self, name):
        fixture = envelope(1)[name]
        model = mk.build_model(mk.MomentSequence(fixture.moments))
        reference = MomentReference(fixture.moments)
        ev = model.evaluator()
        for z in (1j, 1j + 1e-9, 1j + 1e-4 * np.exp(0.7j), 0.5 + 2j, -1 + 0.1j, 3 + 1e-3j):
            want = reference(z)
            assert np.linalg.norm(ev(z) - want, 2) <= 1e-9 * max(1.0, np.linalg.norm(want, 2))

    @pytest.mark.parametrize("path", ["eigen", "lu"])
    def test_formula_next_to_the_limit(self, gaussian_model, monkeypatch, path):
        # just above _near_i the formula runs with |w| near 1.5e307 and the Schur
        # complement near 1e-307, scaled by 2i w / s^4 only after the elimination;
        # at 1e-300 too.  No overflow, and the realization's value within the bound
        model, rng = d4_model(12)
        # moments 1e6 times the Gaussian's: ||K_mi|| near 1e3, which rows scaled by 2i w / s^4
        # before the elimination would take past the float max here
        scaled = mk.build_model(mk.MomentSequence(1e6 * np.array(hermite_moments(6))))
        cases = [(gaussian_model, mk.SchurParameter([[0.3 - 0.4j]])),
                 (scaled, mk.SchurParameter([[0.3 - 0.4j]])),
                 (model, mk.SchurParameter(random_unitary(rng, 4))),
                 (model, mk.SchurParameter(random_contraction(rng, (4, 4))))]
        if path == "lu":
            monkeypatch.setattr(nev, "EIG_COND_LIMIT", 0.0)
        for m, p in cases:
            ev = built_now(m, p)
            assert (ev._poles is None) == (path == "lu")
            zs = np.array([1j + 1.5 * ev._near_i, 1j + 1e-300 * np.exp(0.7j), 1j - 1e-300, 2j])
            assert (np.abs(zs - 1j)[:3] > ev._near_i).all()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = ev(zs)
                singles = [ev(z) for z in zs]
            for z, r, single in zip(zs, got, singles):
                want = realization(m, p, z)
                assert np.linalg.norm(r - want, 2) <= 1e-9 * max(1.0, np.linalg.norm(want, 2))
                assert np.abs(r - single).max() <= 1e-12 * max(1.0, np.abs(single).max())

    def test_paper_form_refused_at_i(self, gaussian_model):
        # blocks and direct_oracle keep the paper's formula, whose pole is i
        c, p = gaussian_model.cayley, gaussian_model.zero_parameter()
        for call in (lambda: blocks(c, p, 1j),
                     lambda: direct_oracle(c, p, gaussian_model.moments, 1j, [1.0])):
            with pytest.raises(mk.DomainError, match="pole of the paper's formula"):
                call()
