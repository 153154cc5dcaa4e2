import numpy as np
import pytest
from numpy.testing import assert_allclose

import momentkit as mk
from conftest import hermite_moments, random_measure, random_psd, random_vector


class TestConstructSpace:
    def test_identity_gram(self):
        g = mk.construct_space(mk.MomentSequence([1, 0, 1]))
        assert g.rank == 2
        x0, x1 = mk.embed(g, [1.0], 0), mk.embed(g, [1.0], 1)
        gram = np.array([[x0.inner(x0), x0.inner(x1)], [x1.inner(x0), x1.inner(x1)]])
        assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_rank_one_collapse(self):
        g = mk.construct_space(mk.MomentSequence([1, 1, 1]))
        assert g.rank == 1

    def test_hermite_inner_product(self):
        # <x_{1,2}, x_{1,2}> = S_4 = 3!! from the double-factorial oracle
        moments = hermite_moments(6)
        g = mk.construct_space(mk.MomentSequence(moments))
        assert g.rank == 4
        x2 = mk.embed(g, [1.0], 2)
        assert x2.inner(x2) == pytest.approx(moments[4], abs=1e-12)
        assert moments[4] == 3.0

    def test_indefinite_rejected(self):
        with pytest.raises(mk.SolvabilityError):
            mk.construct_space(mk.MomentSequence([1, 0, -1]))
        # refused exactly where the default solvability verdict says unsolvable
        inside, outside = (mk.MomentSequence([1, 0, s2]) for s2 in (-0.9e-10, -1.1e-10))
        assert mk.check_solvability(inside).solvable
        assert not mk.check_solvability(outside).solvable
        assert mk.construct_space(inside).rank == 1
        with pytest.raises(mk.SolvabilityError, match="tolerance 1.0e-10"):
            mk.construct_space(outside)

    def test_coordinates_reproduce_gram_matrix(self):
        rng = np.random.default_rng(0)
        m = mk.generate_from_measure(random_measure(rng, 2, 3), 4)
        g = mk.construct_space(m)
        recon = g.coord_map.conj().T @ g.coord_map
        assert np.linalg.norm(recon - g.gram, 2) <= 1e-10 * g.gram_scale


class TestEmbed:
    def test_degree_out_of_range(self):
        g = mk.construct_space(mk.MomentSequence([1, 0, 1]))
        with pytest.raises(mk.ValidationError):
            mk.embed(g, [1.0], 2)
        with pytest.raises(mk.ValidationError):
            mk.embed(g, [1.0], -1)

    def test_degree_one_inner_products_match_s2(self):
        rng = np.random.default_rng(1)
        m = mk.generate_from_measure(random_measure(rng, 2, 3), 4)
        g = mk.construct_space(m)
        for _ in range(10):
            h, u = random_vector(rng, 2), random_vector(rng, 2)
            left = mk.embed(g, h, 1).inner(mk.embed(g, u, 1))
            right = complex(np.vdot(u, m.moment(2) @ h))
            assert abs(left - right) <= 1e-10 * g.gram_scale

    def test_degenerate_classes_coincide(self):
        g = mk.construct_space(mk.MomentSequence([1, 1, 1]))
        x0, x1 = mk.embed(g, [1.0], 0), mk.embed(g, [1.0], 1)
        assert (x0 - x1).norm <= 1e-12

    def test_gram_identity_property(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            d = int(rng.integers(1, 4))
            m = mk.generate_from_measure(
                random_measure(rng, d, int(rng.integers(1, 4))), 6
            )
            g = mk.construct_space(m)
            for _ in range(10):
                j, k = int(rng.integers(0, g.n + 1)), int(rng.integers(0, g.n + 1))
                h, u = random_vector(rng, d), random_vector(rng, d)
                left = mk.embed(g, h, j).inner(mk.embed(g, u, k))
                right = complex(np.vdot(u, m.moment(j + k) @ h))
                assert abs(left - right) <= 1e-10 * max(1.0, g.gram_scale)

    def test_kernel_vector_collapses(self):
        # ambient kernel vector of the rank-one gram matrix maps to ~0
        g = mk.construct_space(mk.MomentSequence([1, 1, 1]))
        coords = g.coord_map @ np.array([1.0, -1.0])
        assert np.linalg.norm(coords) <= 1e-10


class TestBuildShift:
    def test_point_mass_multiplication(self):
        mu = mk.DiscreteMatrixMeasure.point_mass(2.0, [[1.0]])
        g = mk.construct_space(mk.generate_from_measure(mu, 4))
        a = mk.build_shift(g)
        assert g.rank == 1 and a.domain_dim == 1
        assert_allclose(a.action, [[2.0]], atol=1e-12)

    def test_simple_action(self):
        g = mk.construct_space(mk.MomentSequence([1, 0, 1]))
        a = mk.build_shift(g)
        assert a.domain_dim == 1
        x0, x1 = mk.embed(g, [1.0], 0), mk.embed(g, [1.0], 1)
        assert_allclose(a.action @ x0.coords, x1.coords, atol=1e-12)

    def test_hermite_jacobi_matrix(self, gaussian_model):
        # in the orthonormalized monomial basis the shift is the Jacobi
        # matrix with zero diagonal and off-diagonals sqrt(1..3) (three-term
        # recurrence oracle), restricted to the domain columns
        g, a = gaussian_model.space, gaussian_model.shift
        basis_cols = np.column_stack(
            [mk.embed(g, [1.0], j).coords for j in range(4)]
        )
        q, r = np.linalg.qr(basis_cols)
        q = q * (np.diag(r) / np.abs(np.diag(r)))  # positive-diagonal convention
        jacobi = q.conj().T @ a.action @ q
        expected = np.diag(np.sqrt([1.0, 2.0, 3.0]), 1) + np.diag(
            np.sqrt([1.0, 2.0, 3.0]), -1
        )
        assert_allclose(jacobi[:, :3], expected[:, :3], atol=1e-10)

    def test_shift_inconsistent_sequence_rejected(self):
        # Gamma_2 >= 0 yet no representing measure exists
        with pytest.raises(mk.ShiftConsistencyError) as err:
            mk.build_shift(mk.construct_space(mk.MomentSequence([1, 1, 1, 1, 2])))
        assert err.value.residual > 0.1

    def test_symmetry_on_domain(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            m = mk.generate_from_measure(random_measure(rng, 2, 4), 6)
            g = mk.construct_space(m)
            a = mk.build_shift(g)
            scale = max(1.0, np.linalg.norm(a.action, 2))
            for _ in range(10):
                dom = a.domain_basis
                x = dom @ (dom.conj().T @ random_vector(rng, g.rank))
                y = dom @ (dom.conj().T @ random_vector(rng, g.rank))
                left = np.vdot(y, a.action @ x)
                right = np.vdot(a.action @ y, x)
                assert abs(left - right) <= 1e-10 * scale

    def test_shift_raises_degree(self):
        rng = np.random.default_rng(8)
        m = mk.generate_from_measure(random_measure(rng, 2, 4), 6)
        g = mk.construct_space(m)
        a = mk.build_shift(g)
        for j in range(g.n):
            h = random_vector(rng, 2)
            lhs = a.action @ mk.embed(g, h, j).coords
            rhs = mk.embed(g, h, j + 1).coords
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.sqrt(g.gram_scale)


class TestEmbeddings:
    def test_embedding_norm_matches_s0(self):
        rng = np.random.default_rng(9)
        mu = mk.DiscreteMatrixMeasure([0.3], [random_psd(rng, 2)])
        m = mk.generate_from_measure(mu, 2)
        g = mk.construct_space(m)
        emb_i, _ = mk.build_embeddings(g)
        e1 = np.array([1.0, 0.0])
        # left: coordinate norm; right: direct matrix entry
        left = np.linalg.norm(emb_i.matrix @ e1) ** 2
        assert left == pytest.approx(m.moment(0)[0, 0].real, abs=1e-12)

    def test_k_norm_simple(self):
        g = mk.construct_space(mk.MomentSequence([1, 0, 1]))
        _, emb_k = mk.build_embeddings(g)
        for h in ([1.0], [0.5 + 0.5j]):
            norm2 = np.linalg.norm(emb_k.matrix @ np.asarray(h, complex)) ** 2
            assert norm2 == pytest.approx(2 * abs(complex(h[0])) ** 2, abs=1e-12)

    def test_k_norm_identity_random(self):
        rng = np.random.default_rng(10)
        m = mk.generate_from_measure(random_measure(rng, 3, 4), 4)
        g = mk.construct_space(m)
        _, emb_k = mk.build_embeddings(g)
        s20 = m.moment(2) + m.moment(0)
        for _ in range(100):
            h = random_vector(rng, 3)
            left = np.linalg.norm(emb_k.matrix @ h) ** 2
            right = np.vdot(h, s20 @ h).real
            assert abs(left - right) <= 1e-10 * max(1.0, abs(right))

    def test_k_equals_shifted_i(self, gaussian_model):
        a = gaussian_model.shift
        emb_i, emb_k = gaussian_model.embed_i, gaussian_model.embed_k
        shifted = (a.action - 1j * np.eye(gaussian_model.space.rank)) @ emb_i.matrix
        assert_allclose(emb_k.matrix, shifted, atol=1e-10)

    def test_k_range_in_mi(self, gaussian_model):
        c, emb_k = gaussian_model.cayley, gaussian_model.embed_k
        in_mi = c.basis_mi @ (c.basis_mi.conj().T @ emb_k.matrix)
        residual = np.linalg.norm(emb_k.matrix - in_mi, 2)
        assert residual <= 1e-10
