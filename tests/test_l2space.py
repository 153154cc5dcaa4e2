import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentkit as mk
from momentkit.gramspace import construct_space
from conftest import random_measure


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
        g = construct_space(m)
        p = 1.0 - mu.nodes  # p(t_j), d = 1
        assert abs(np.vdot(p, mu.weights[:, 0, 0] * p)) <= 1e-14
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
    """w0_isometry_check's residual, one sample at a time through psi and Q's blocks.

    psi(p, q) = sum_j q(t_j)* W_j p(t_j) for the vector polynomials
    p(t) = sum_k t^k h_k and q(t) = sum_k t^k g_k, node by node.
    """
    g = construct_space(m)
    rng = np.random.default_rng(seed)
    shape = (m.n + 1, m.dim)
    worst = 0.0
    for _ in range(n_samples):
        hk = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        gl = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        psi = 0j
        for t, w in zip(mu.nodes, mu.weights):
            powers = t ** np.arange(m.n + 1)
            psi += np.vdot(powers @ gl, w @ (powers @ hk))
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
        n_samples=st.integers(1, 9),
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
        gamma = m.gram
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
