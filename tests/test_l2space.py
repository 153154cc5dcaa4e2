import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import momentkit as mk
from momentkit.l2space import L2Element, MultiplicationOperator
from conftest import random_measure, random_vector


@pytest.fixture
def symmetric_two_point():
    return mk.DiscreteMatrixMeasure([-1.0, 1.0], [[[0.5]], [[0.5]]])


class TestPsiInner:
    def test_odd_symmetry(self, symmetric_two_point):
        f = L2Element.from_polynomial([[0.0], [1.0]], symmetric_two_point.nodes)
        g = L2Element.from_polynomial([[1.0]], symmetric_two_point.nodes)
        assert mk.psi_inner(f, g, symmetric_two_point) == pytest.approx(0.0, abs=1e-15)

    def test_second_moment(self, symmetric_two_point):
        f = L2Element.from_polynomial([[0.0], [1.0]], symmetric_two_point.nodes)
        assert mk.psi_inner(f, f, symmetric_two_point) == pytest.approx(1.0)

    def test_null_direction_of_degenerate_weight(self):
        mu = mk.DiscreteMatrixMeasure([0.0], [np.diag([1.0, 0.0])])
        f = L2Element([[0.0], [1.0]])
        assert mk.psi_inner(f, f, mu) == pytest.approx(0.0, abs=1e-15)

    def test_shape_mismatch(self, symmetric_two_point):
        with pytest.raises(mk.ValidationError):
            mk.psi_inner(L2Element([[1.0]]), L2Element([[1.0]]), symmetric_two_point)

    def test_positivity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            mu = random_measure(rng, d, int(rng.integers(1, 5)), rank=int(rng.integers(1, d + 1)))
            for _ in range(10):
                f = L2Element(
                    rng.standard_normal((d, mu.num_nodes))
                    + 1j * rng.standard_normal((d, mu.num_nodes))
                )
                assert mk.psi_inner(f, f, mu).real >= -1e-12
                assert abs(mk.psi_inner(f, f, mu).imag) <= 1e-12

    def test_polarization_consistency(self):
        rng = np.random.default_rng(1)
        mu = random_measure(rng, 2, 3)
        f = L2Element(rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
        g = L2Element(rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
        direct = mk.psi_inner(f, g, mu)

        def q(u):
            return mk.psi_inner(u, u, mu)

        combos = (
            (0.25, L2Element(f.values + g.values)),
            (-0.25, L2Element(f.values - g.values)),
            (0.25j, L2Element(f.values + 1j * g.values)),
            (-0.25j, L2Element(f.values - 1j * g.values)),
        )
        polarized = sum(c * q(u) for c, u in combos)
        assert abs(direct - polarized) <= 1e-12 * (1 + abs(direct))

    def test_symmetry_transfer(self):
        rng = np.random.default_rng(2)
        mu = random_measure(rng, 2, 4)
        f_vals = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        g_vals = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        tf = L2Element(f_vals * mu.nodes)
        tg = L2Element(g_vals * mu.nodes)
        left = mk.psi_inner(tf, L2Element(g_vals), mu)
        right = mk.psi_inner(L2Element(f_vals), tg, mu)
        assert abs(left - right) <= 1e-13 * (1 + abs(left))


class TestMultOperator:
    def test_two_point_diagonal(self, symmetric_two_point):
        op = mk.mult_operator(symmetric_two_point)
        assert op.quotient_dim == 2
        assert_allclose(sorted(np.diag(op.matrix).real), [-1.0, 1.0])
        assert_allclose(op.matrix, op.matrix.conj().T, atol=1e-12)

    def test_eigenvalues_are_nodes_with_rank_multiplicity(self):
        rng = np.random.default_rng(3)
        mu = random_measure(rng, 3, 3, rank=2)
        op = mk.mult_operator(mu)
        eigs = np.sort(np.linalg.eigvalsh(op.matrix))
        expected = np.sort(np.repeat(mu.nodes, 2))
        assert_allclose(eigs, expected, atol=1e-10)

    def test_spectral_support(self):
        rng = np.random.default_rng(4)
        mu = random_measure(rng, 2, 4)
        eigs = np.linalg.eigvalsh(mk.mult_operator(mu).matrix)
        for lam in eigs:
            assert np.min(np.abs(mu.nodes - lam)) <= 1e-10

    def test_resolvent_identity_pointwise_division(self):
        rng = np.random.default_rng(5)
        mu = random_measure(rng, 2, 3)
        op = mk.mult_operator(mu)
        z = 0.7 + 0.3j
        h = random_vector(rng, 2)
        const = L2Element(np.tile(h[:, None], (1, mu.num_nodes)))
        divided = L2Element(h[:, None] / (mu.nodes[None, :] - z))
        lhs = np.linalg.solve(
            op.matrix - z * np.eye(op.quotient_dim), op.coords(const)
        )
        assert_allclose(lhs, op.coords(divided), atol=1e-12)

    def test_self_adjoint(self):
        rng = np.random.default_rng(6)
        mu = random_measure(rng, 2, 5, rank=1)
        op = mk.mult_operator(mu)
        assert np.linalg.norm(op.matrix - op.matrix.conj().T) <= 1e-12


class TestW0Isometry:
    def test_gauss_three_point_rule(self):
        # nodes/weights from the classical three-point Gauss-Hermite rule
        mu = mk.DiscreteMatrixMeasure(
            [-np.sqrt(3.0), 0.0, np.sqrt(3.0)],
            [[[1.0 / 6.0]], [[2.0 / 3.0]], [[1.0 / 6.0]]],
        )
        m = mk.MomentSequence([1.0, 0.0, 1.0, 0.0, 3.0])
        assert mk.w0_isometry_check(m, mu) <= 1e-12

    def test_point_mass(self):
        mu = mk.DiscreteMatrixMeasure.point_mass(2.0, [[1.0]])
        m = mk.MomentSequence([1.0, 2.0, 4.0])
        assert mk.w0_isometry_check(m, mu) <= 1e-13

    def test_degenerate_point_mass_including_kernel(self):
        mu = mk.DiscreteMatrixMeasure.point_mass(1.0, [[1.0]])
        m = mk.MomentSequence([1.0, 1.0, 1.0])
        assert mk.w0_isometry_check(m, mu) <= 1e-13
        # explicit kernel polynomial p(t) = 1 - t: both sides vanish
        g = mk.construct_space(m)
        p = L2Element.from_polynomial([[1.0], [-1.0]], mu.nodes)
        assert abs(mk.psi_inner(p, p, mu)) <= 1e-14
        x = g.coord_map[:, 0] - g.coord_map[:, 1]
        assert np.linalg.norm(x) <= 1e-12

    def test_moment_mismatch_rejected(self):
        mu = mk.DiscreteMatrixMeasure.point_mass(2.0, [[1.0]])
        m = mk.MomentSequence([1.0, 2.0, 5.0])
        with pytest.raises(mk.ValidationError):
            mk.w0_isometry_check(m, mu)

    def test_matrix_valued_measure(self):
        rng = np.random.default_rng(7)
        mu = random_measure(rng, 2, 3)
        m = mk.generate_from_measure(mu, 4)
        assert mk.w0_isometry_check(m, mu, n_samples=10, seed=1) <= 1e-12


def per_sample_w0(m, mu, n_samples, seed):
    """w0_isometry_check's residual, one sample at a time through psi_inner and Q's blocks."""
    g = mk.construct_space(m)
    rng = np.random.default_rng(seed)
    shape = (m.n + 1, m.dim)
    worst = 0.0
    for _ in range(n_samples):
        hk = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        gl = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        psi = mk.psi_inner(
            L2Element.from_polynomial(hk, mu.nodes),
            L2Element.from_polynomial(gl, mu.nodes),
            mu,
        )
        blocks = [g.coord_map[:, k * m.dim : (k + 1) * m.dim] for k in range(m.n + 1)]
        x = sum(q @ h for q, h in zip(blocks, hk))
        y = sum(q @ h for q, h in zip(blocks, gl))
        gram_value = complex(np.vdot(y, x))
        worst = max(worst, abs(psi - gram_value) / (1.0 + abs(gram_value)))
    return worst


class TestW0IsometryStacked:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        n=st.integers(2, 6),
        num_nodes=st.integers(1, 8),
        n_samples=st.integers(0, 9),
    )
    def test_equals_per_sample_reference(self, seed, d, n, num_nodes, n_samples):
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, d, num_nodes)
        m = mk.generate_from_measure(mu, 2 * n)
        stacked = mk.w0_isometry_check(m, mu, n_samples=n_samples, seed=seed)
        assert abs(stacked - per_sample_w0(m, mu, n_samples, seed)) <= 1e-13

    def test_first_mismatched_moment_reported(self):
        mu = mk.DiscreteMatrixMeasure.point_mass(2.0, [[1.0]])
        m = mk.MomentSequence([1.0, 2.0, 5.0, 8.0, 17.0])  # S_2 and S_4 are off
        with pytest.raises(mk.ValidationError, match="moment S_2 "):
            mk.w0_isometry_check(m, mu)

    def test_accepts_its_own_moments_where_odd_moments_cancel(self):
        # the odd moments of a symmetric measure cancel to rounding noise of
        # order eps * 3^11; only the formula of generate_from_measure itself
        # reproduces that noise within 1e-12 (1 + ||S_k||)
        w = random_measure(np.random.default_rng(0), 2, 3).weights
        mu = mk.DiscreteMatrixMeasure([-3.0, -1.1, 0.4, 1.1, 3.0],
                                      [w[0], w[1], w[2], w[1], w[0]])
        m = mk.generate_from_measure(mu, 12)
        assert mk.w0_isometry_check(m, mu, n_samples=4) <= 1e-13

    def test_nan_moment_refused(self):
        # 1e200^2 overflows and inf * 0 makes the regenerated S_2 NaN
        mu = mk.DiscreteMatrixMeasure([0.0, 1e200], [1.0, 0.0])
        m = mk.MomentSequence([1.0, 0.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(mk.ValidationError, match="moment S_2 "):
                mk.w0_isometry_check(m, mu)

    def test_gamma_decomposed_once_per_sequence(self, monkeypatch):
        rng = np.random.default_rng(11)
        mu = random_measure(rng, 2, 5)
        m = mk.generate_from_measure(mu, 6)
        gamma = mk.build_hankel(m).matrix
        eigh = np.linalg.eigh
        calls = []

        def counting_eigh(a, *args, **kwargs):
            if np.array_equal(a, gamma):
                calls.append(1)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        mk.check_solvability(m)
        mk.build_model(m)
        mk.w0_isometry_check(m, mu, n_samples=8, seed=3)
        assert len(calls) == 1


class TestL2Element:
    def test_polynomial_sampling(self):
        f = L2Element.from_polynomial([[1.0], [2.0]], [0.0, 1.0, 2.0])
        assert_allclose(f.values, [[1.0, 3.0, 5.0]])

    def test_coords_roundtrip_norm(self):
        rng = np.random.default_rng(8)
        mu = random_measure(rng, 2, 3)
        op = mk.mult_operator(mu)
        f = L2Element(rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
        assert np.linalg.norm(op.coords(f)) ** 2 == pytest.approx(
            mk.psi_inner(f, f, mu).real, rel=1e-12
        )
        assert isinstance(op, MultiplicationOperator)
