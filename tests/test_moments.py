import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import momentkit as mk
from momentkit.gramspace import construct_space
from conftest import random_measure, random_unitary


class TestMomentSequence:
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e200, 1e300])
    def test_hermiticity_gates_at_every_scale(self, scale):
        # the gates take their norms at unit scale: none overflows, a skew S_1
        # or weight is refused, and a Hermitian one kept, at every scale
        eye, skew = np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(mk.ValidationError, match="S_1 is not Hermitian"):
                mk.MomentSequence([eye, scale * skew, 3 * eye])
            with pytest.raises(mk.ValidationError, match="weight 0 is not Hermitian"):
                mk.DiscreteMatrixMeasure([0.0], [scale * (eye + skew)])
            kept = mk.MomentSequence([eye, 1j * scale * skew, 3 * eye])
            assert_allclose(kept.moment(1), 1j * scale * skew, rtol=0, atol=0)
            mk.DiscreteMatrixMeasure([0.0], [scale * (2 * eye + 1j * skew)])

    def test_scalar_list_becomes_1x1_matrices(self):
        m = mk.MomentSequence([1, 0, 1])
        assert m.dim == 1 and m.order == 2 and m.n == 1

    def test_rejects_odd_order(self):
        with pytest.raises(mk.ValidationError):
            mk.MomentSequence([1, 0, 1, 0])

    def test_rejects_order_zero(self):
        with pytest.raises(mk.ValidationError):
            mk.MomentSequence([1])

    def test_rejects_non_hermitian(self):
        bad = [np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)]
        with pytest.raises(mk.ValidationError):
            mk.MomentSequence(bad)

    def test_rejects_indefinite_s0(self):
        with pytest.raises(mk.ValidationError):
            mk.MomentSequence([-1.0, 0.0, 1.0])
        with pytest.raises(mk.ValidationError):
            mk.MomentSequence(np.zeros((3, 0, 0)))  # d = 0

    def test_first_non_hermitian_moment_reported(self):
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        mats = [np.eye(2), np.eye(2), skew, np.eye(2), skew]
        with pytest.raises(mk.ValidationError, match="moment S_2 "):
            mk.MomentSequence(mats)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(mk.ValidationError, match="moment S_2 has a non-finite"):
            mk.MomentSequence([1.0, 0.0, bad])
        mats = np.stack([np.eye(2, dtype=complex)] * 5)
        mats[3, 1, 0] = bad
        mats[4, 0, 0] = bad
        with pytest.raises(mk.ValidationError, match="moment S_3 has a non-finite"):
            mk.MomentSequence(mats)

    def test_hankel_eigh_cached_and_read_only(self):
        rng = np.random.default_rng(9)
        m = mk.generate_from_measure(random_measure(rng, 2, 3), 6)
        eigs, vecs = m.hankel_eigh
        assert m.hankel_eigh[0] is eigs and m.hankel_eigh[1] is vecs
        with pytest.raises(ValueError):
            eigs[0] = 0.0
        with pytest.raises(ValueError):
            vecs[0, 0] = 0.0
        gamma = m.gram
        assert gamma is m.gram and construct_space(m).gram is gamma
        with pytest.raises(ValueError):
            gamma[0, 0] = 0.0
        assert_allclose(vecs @ np.diag(eigs) @ vecs.conj().T, gamma, atol=1e-12)
        assert (
            mk.check_solvability(m).min_eigenvalue
            == construct_space(m).min_eigenvalue
        )

    def test_symmetrizes_representation_noise(self):
        noise = 1e-13
        s1 = np.array([[0.0, 1.0 + noise], [1.0, 0.0]])
        m = mk.MomentSequence([np.eye(2), s1, np.eye(2)])
        assert np.allclose(m.moment(1), m.moment(1).conj().T)


def block(h, d, j, k):
    """The (j, k) block of a block Hankel matrix with d x d blocks."""
    return h[j * d : (j + 1) * d, k * d : (k + 1) * d]


class TestBuildHankel:
    def test_identity_hankel(self):
        h = mk.MomentSequence([1, 0, 1]).gram
        assert_allclose(h, np.eye(2))

    def test_constant_sequence(self):
        h = mk.MomentSequence([1, 1, 1]).gram
        assert_allclose(h, np.ones((2, 2)))

    def test_d2_block_placement(self):
        s0 = np.eye(2)
        s_rest = np.diag([0.0, 1.0])
        h = mk.MomentSequence([s0, s_rest, s_rest]).gram
        assert h.shape == (4, 4)
        assert_allclose(block(h, 2, 0, 0), s0)
        assert_allclose(block(h, 2, 0, 1), s_rest)
        assert_allclose(block(h, 2, 1, 0), s_rest)
        assert_allclose(block(h, 2, 1, 1), s_rest)

    def test_block_symmetry_bit_exact(self):
        rng = np.random.default_rng(3)
        m = mk.generate_from_measure(random_measure(rng, 2, 3), 6)
        h, n = m.gram, m.n
        for j in range(n + 1):
            for k in range(n + 1):
                for jj in range(n + 1):
                    if 0 <= j + k - jj <= n:
                        assert np.array_equal(block(h, 2, j, k), block(h, 2, jj, j + k - jj))

    def test_hankel_is_hermitian(self):
        rng = np.random.default_rng(4)
        m = mk.generate_from_measure(random_measure(rng, 3, 4), 4)
        h = m.gram
        assert_allclose(h, h.conj().T, atol=1e-14)


class TestCheckSolvability:
    def test_identity_case(self):
        rep = mk.check_solvability(mk.MomentSequence([1, 0, 1]))
        assert rep.solvable and rep.rank == 2
        assert rep.min_eigenvalue == pytest.approx(1.0)

    def test_negative_s2_not_solvable(self):
        rep = mk.check_solvability(mk.MomentSequence([1, 0, -1]))
        assert not rep.solvable
        assert rep.min_eigenvalue == pytest.approx(-1.0)

    def test_rank_one_case(self):
        rep = mk.check_solvability(mk.MomentSequence([1, 1, 1]))
        assert rep.solvable and rep.rank == 1

    def test_eigenvalue_past_the_float_max_refused(self):
        # Gamma_n has rank 3, but eigh returns [0, 1, 1, inf]: with an infinite
        # scale every eigenvalue fell below the rank cut (rank 0) and the
        # sequence passed as solvable; no verdict is given instead
        m = mk.MomentSequence([1e308 * np.ones((2, 2)), np.zeros((2, 2)), np.eye(2)])
        assert np.isinf(m.hankel_eigh[0]).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for decide in (mk.check_solvability, construct_space, mk.build_model):
                with pytest.raises(mk.ValidationError, match="non-finite eigenvalue"):
                    decide(m)

    @pytest.mark.parametrize("seed", range(8))
    def test_measure_moments_always_solvable(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        mu = random_measure(rng, d, int(rng.integers(1, 5)))
        m = mk.generate_from_measure(mu, 2 * int(rng.integers(1, 4)))
        assert mk.check_solvability(m).solvable

    @pytest.mark.parametrize("seed", range(5))
    def test_verdict_invariant_under_unitary_congruence(self, seed):
        rng = np.random.default_rng(100 + seed)
        mu = random_measure(rng, 2, 3, rank=1)
        m = mk.generate_from_measure(mu, 4)
        u = random_unitary(rng, 2)
        congruent = mk.MomentSequence(
            np.stack([u.conj().T @ s @ u for s in m.moments])
        )
        a, b = mk.check_solvability(m), mk.check_solvability(congruent)
        assert a.solvable == b.solvable
        assert a.rank == b.rank
        assert abs(a.min_eigenvalue - b.min_eigenvalue) < 1e-10 * (
            1 + abs(a.min_eigenvalue)
        )


class TestGenerateFromMeasure:
    def test_point_mass_powers(self):
        mu = mk.DiscreteMatrixMeasure.point_mass(2.0, [[1.0]])
        m = mk.generate_from_measure(mu, 4)
        assert_allclose(m.moments[:, 0, 0], [1, 2, 4, 8, 16])

    def test_symmetric_two_point(self):
        mu = mk.DiscreteMatrixMeasure([-1.0, 1.0], [[[0.5]], [[0.5]]])
        m = mk.generate_from_measure(mu, 4)
        assert_allclose(m.moments[:, 0, 0], [1, 0, 1, 0, 1], atol=1e-15)

    def test_d2_block_diagonal_sum(self):
        mu = mk.DiscreteMatrixMeasure(
            [0.0, 1.0], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        )
        m = mk.generate_from_measure(mu, 2)
        assert_allclose(m.moment(0), np.eye(2))
        assert_allclose(m.moment(1), np.diag([0.0, 1.0]))
        assert_allclose(m.moment(2), np.diag([0.0, 1.0]))

    def test_rejects_odd_order(self):
        mu = mk.DiscreteMatrixMeasure.point_mass(0.0, [[1.0]])
        with pytest.raises(mk.ValidationError):
            mk.generate_from_measure(mu, 3)


class TestDiscreteMatrixMeasure:
    def test_rejects_empty(self):
        with pytest.raises(mk.ValidationError):
            mk.DiscreteMatrixMeasure([], np.zeros((0, 1, 1)))
        with pytest.raises(mk.ValidationError):
            mk.DiscreteMatrixMeasure([0.0], [np.zeros((0, 0))])  # d = 0

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(mk.ValidationError):
            mk.DiscreteMatrixMeasure([1.0, 0.0], [[[1.0]], [[1.0]]])

    def test_rejects_indefinite_weight(self):
        with pytest.raises(mk.ValidationError):
            mk.DiscreteMatrixMeasure([0.0], [[[-1.0]]])

    def test_non_hermitian_reported_before_not_psd(self):
        both = np.array([[-1.0, 1.0], [0.0, -1.0]])  # not Hermitian, not PSD
        with pytest.raises(mk.ValidationError, match="weight 1 is not Hermitian"):
            mk.DiscreteMatrixMeasure([0.0, 1.0], [np.eye(2), both])

    def test_first_bad_weight_reports_its_index(self):
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        weights = [np.eye(2), np.diag([1.0, -1.0]), skew]
        with pytest.raises(mk.ValidationError, match="weight 1 is not PSD"):
            mk.DiscreteMatrixMeasure([0.0, 1.0, 2.0], weights)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(mk.ValidationError, match="weight 1 is not finite"):
            mk.DiscreteMatrixMeasure([0.0, 1.0, 2.0], [[[1.0]], [[bad]], [[bad]]])
        with pytest.raises(mk.ValidationError, match="node 2 is not finite"):
            mk.DiscreteMatrixMeasure([0.0, 1.0, bad], [[[1.0]], [[1.0]], [[bad]]])
        with pytest.raises(mk.ValidationError, match="weight 0 is not finite"):
            mk.DiscreteMatrixMeasure([0.0, bad], [np.diag([bad, 1.0]), np.eye(2)])

    def test_total_mass(self):
        rng = np.random.default_rng(5)
        mu = random_measure(rng, 2, 3)
        assert_allclose(mu.total_mass(), mu.moment(0))

    def test_moment_is_the_generated_moment(self):
        # one formula for S_k: a measure's moment(k) is generate_from_measure's S_k, bit for bit
        rng = np.random.default_rng(11)
        for d, nodes in ((1, 1), (1, 40), (3, 12)):
            mu = random_measure(rng, d, nodes)
            m = mk.generate_from_measure(mu, 12)
            for k in range(13):
                assert mu.moment(k).tobytes() == m.moment(k).tobytes()

    def test_moment_past_float_range_is_non_finite_without_a_warning(self):
        # generate_from_measure refuses such a measure; moment(k) returns the value
        mu = mk.DiscreteMatrixMeasure([1e200], [[[1.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mu.moment(1)[0, 0] == 1e200
            assert not np.isfinite(mu.moment(2)).all()
            with pytest.raises(mk.ValidationError, match="non-finite"):
                mk.generate_from_measure(mu, 2)
