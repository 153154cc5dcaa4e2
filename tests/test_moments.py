import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import momentkit as mk
from momentkit._linalg import herm
from momentkit.gramspace import construct_space
from conftest import random_measure, random_psd, random_unitary


def refusal(build, *args):
    """(message, None) if `build(*args)` is refused, else (None, the symmetrized stack it
    keeps); warnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            kept = build(*args)
        except mk.ValidationError as exc:
            return str(exc), None
    return None, kept.moments if isinstance(kept, mk.MomentSequence) else kept.weights


def input_case(kind, d, seed):
    """(constructor, arguments, stack index) of one input of a kind, valid or not.

    The inputs of the small-scale floors: a 10 %-skewed S_1 or weight, an
    indefinite weight or S_0; and valid ones, one with a member 2^-300 below
    the rest.  Multiplying argument `stack index` by 2^j scales the stack.
    """
    rng = np.random.default_rng(seed)
    mu = random_measure(rng, d, 3)
    moments, weights = mk.generate_from_measure(mu, 4).moments.copy(), mu.weights.copy()
    skew = 1j * random_psd(rng, d)  # skew-Hermitian
    if kind == "skewed S_1":
        moments[1] += 0.1 * np.linalg.norm(moments[1], 2) / np.linalg.norm(skew, 2) * skew
    elif kind == "indefinite S_0":
        eigs = np.linalg.eigvalsh(moments[0])
        moments[0] -= (eigs[0] + 0.1 * eigs[-1]) * np.eye(d)
    elif kind == "faint S_1":
        moments[1] *= 2.0**-300
    elif kind == "skewed weight":
        weights[1] += 0.1 * np.linalg.norm(weights[1], 2) / np.linalg.norm(skew, 2) * skew
    elif kind == "indefinite weight":
        eigs = np.linalg.eigvalsh(weights[2])
        weights[2] -= (eigs[0] + 0.1 * eigs[-1]) * np.eye(d)
    elif kind == "faint weight":
        weights[1] *= 2.0**-300
    if kind in ("sequence", "skewed S_1", "indefinite S_0", "faint S_1"):
        return mk.MomentSequence, [moments], 0
    return mk.DiscreteMatrixMeasure, [mu.nodes, weights], 1


REFUSED = {
    "skewed S_1": "moment S_1 is not Hermitian within tolerance",
    "indefinite S_0": "S_0 is not positive semidefinite",
    "skewed weight": "weight 1 is not Hermitian",
    "indefinite weight": "weight 2 is not PSD within tolerance",
}
KINDS = ["sequence", "measure", "faint S_1", "faint weight", *REFUSED]
SCALES = [pytest.param(2.0**j, id=f"2^{j}") for j in (-1060, -600, -200, -40)]  # 2^-1060 subnormal
SCALES += [1.0, 1e150, 1e200, 1e300, pytest.param(2.0**1000, id="2^1000")]


def scaled(build, args, at, scale):
    return build, *(scale * a if i == at else a for i, a in enumerate(args))


class TestMomentSequence:
    @pytest.mark.parametrize("scale", SCALES)
    def test_hermiticity_gates_at_every_scale(self, scale):
        # the gates decide at unit scale, with a floor that follows the stack
        # below 1/2: none overflows or warns, a skew S_1 or weight or an
        # indefinite S_0 or weight is refused, and a valid one kept, at every scale
        eye, skew = np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(mk.ValidationError, match="S_1 is not Hermitian"):
                mk.MomentSequence([scale * eye, scale * skew, 3 * scale * eye])
            with pytest.raises(mk.ValidationError, match="weight 0 is not Hermitian"):
                mk.DiscreteMatrixMeasure([0.0], [scale * (eye + skew)])
            kept = mk.MomentSequence([scale * eye, 1j * scale * skew, 3 * scale * eye])
            assert_allclose(kept.moment(1), 1j * scale * skew, rtol=0, atol=0)
            mk.DiscreteMatrixMeasure([0.0], [scale * (2 * eye + 1j * skew)])
        for kind, message in REFUSED.items():
            for d, seed in ((1, 0), (2, 1)):
                assert refusal(*scaled(*input_case(kind, d, seed), scale)) == (message, None)

    def test_skewed_member_far_below_a_large_stack_refused(self):
        # the floor is an absolute 1 here: a member of order 1 is decided at
        # its own scale, not rounded away beside a stack of 2^1000
        eye, skew = np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(mk.ValidationError, match="S_1 is not Hermitian"):
            mk.MomentSequence([eye, eye + 0.1 * skew, 2.0**1000 * eye])
        with pytest.raises(mk.ValidationError, match="weight 0 is not Hermitian"):
            mk.DiscreteMatrixMeasure([0.0, 1.0], [eye + 0.1 * skew, 2.0**1000 * eye])
        with pytest.raises(mk.ValidationError, match="weight 0 is not PSD"):
            mk.DiscreteMatrixMeasure([0.0, 1.0], [np.diag([1.0, -0.1]), 2.0**1000 * eye])

    def test_subnormal_member_beside_a_unit_stack_kept(self):
        # scaled by at most 2^1023, it takes the floor f = 1 to 2^1023 in its units, finite
        eye, tiny = np.eye(2), 5e-324 * np.array([[1.0, 1j], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = mk.MomentSequence([eye, tiny, eye])
            assert m.moment(1).tobytes() == herm(tiny).tobytes()
            mu = mk.DiscreteMatrixMeasure([0.0, 1.0], [eye, -tiny])
            assert mu.weights[1].tobytes() == herm(-tiny).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(KINDS), d=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
           j=st.integers(-600, 600))
    def test_verdict_and_values_under_a_power_of_two(self, kind, d, seed, j):
        # S_k -> 2^j S_k (or W_j -> 2^j W_j) keeps the verdict and message of
        # j = 0 and scales the kept stack by 2^j exactly
        case = input_case(kind, d, seed)
        message, kept = refusal(*scaled(*case, 1.0))
        assert message == REFUSED.get(kind)
        scaled_message, scaled_kept = refusal(*scaled(*case, 2.0**j))
        assert scaled_message == message
        if kept is not None:
            expected = np.empty_like(kept)
            expected.real, expected.imag = np.ldexp(kept.real, j), np.ldexp(kept.imag, j)
            assert scaled_kept.tobytes() == expected.tobytes()

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
