"""One rule for numbers from a caller (`_linalg.numeric`), at every public entry point.

A string, a ragged sequence, an integer past 64 bits or an argument of the wrong
rank is refused with the entry point's own `MomentKitError` subclass, never a
bare built-in error, and before any transform is evaluated.  What a caller could
pass before the rule (lists, tuples, arrays, scalars of bool, int, float and
complex, 0-d arrays) is still taken, with the same result.
"""

import tracemalloc

import numpy as np
import pytest

import momentkit as mk
from momentkit import _linalg, io
from momentkit.nevanlinna import TransformEvaluator
from conftest import hermite_moments

BIG = 10**400


def failing(zs):
    raise AssertionError(f"evaluated at {zs!r}")


def unit_mass():
    return mk.DiscreteMatrixMeasure.point_mass(0.0, 1.0)


def herglotz_at(z):
    return mk.herglotz_check([mk.NevanlinnaValue(z, np.eye(1, dtype=complex))])


@pytest.fixture
def gaussian_ev(monkeypatch):
    """The Gaussian model's evaluator, whose points must never reach the kernel."""
    ev = mk.build_model(mk.MomentSequence(hermite_moments(6))).evaluator()
    monkeypatch.setattr(TransformEvaluator, "_native", lambda self, zs: failing(zs))
    return ev


# (entry point and argument, call(x, ev), a valid x, the error, whether x has a fixed rank)
SLOTS = [
    ("MomentSequence", lambda x, ev: mk.MomentSequence(x), [1.0, 0.0, 1.0],
     mk.ValidationError, True),
    ("DiscreteMatrixMeasure.nodes", lambda x, ev: mk.DiscreteMatrixMeasure(x, [1.0, 1.0]),
     [0.0, 1.0], mk.ValidationError, True),
    ("DiscreteMatrixMeasure.weights", lambda x, ev: mk.DiscreteMatrixMeasure([0.0], x),
     [[[1.0]]], mk.ValidationError, True),
    ("point_mass.node", lambda x, ev: mk.DiscreteMatrixMeasure.point_mass(x, 1.0), 0.5,
     mk.ValidationError, True),
    ("point_mass.weight", lambda x, ev: mk.DiscreteMatrixMeasure.point_mass(0.0, x), [[1.0]],
     mk.ValidationError, True),
    ("generate_from_measure.order", lambda x, ev: mk.generate_from_measure(unit_mass(), x), 4,
     mk.ValidationError, True),
    ("DiscreteMatrixMeasure.moment", lambda x, ev: unit_mass().moment(x), 2,
     mk.ValidationError, True),
    ("SchurParameter", lambda x, ev: mk.SchurParameter(x), [[0.5]], mk.ParameterError, True),
    ("SchurParameter.scalar_unitary", lambda x, ev: mk.SchurParameter.scalar_unitary(x, (1, 1)),
     0.5, mk.ParameterError, True),
    ("TransformEvaluator.__call__", lambda x, ev: ev(x), [2j, 1.0 + 1j], mk.DomainError, False),
    ("TransformEvaluator.value", lambda x, ev: ev.value(x), 2j, mk.DomainError, True),
    ("herglotz_check", lambda x, ev: herglotz_at(x), 2j, mk.DomainError, True),
    ("asymptotic_moments.k_max",
     lambda x, ev: mk.asymptotic_moments(ev, x, np.geomspace(1e2, 1e4, 12)), 2,
     mk.ValidationError, True),
    ("asymptotic_moments.y_grid", lambda x, ev: mk.asymptotic_moments(ev, 2, x),
     [1e2, 1e3, 1e4, 2e4], mk.ValidationError, True),
    ("stieltjes_perron.a", lambda x, ev: mk.stieltjes_perron(ev, x, 1.0), 0.0,
     mk.ValidationError, True),
    ("stieltjes_perron.b", lambda x, ev: mk.stieltjes_perron(ev, 0.0, x), 1.0,
     mk.ValidationError, True),
    ("stieltjes_perron.eps", lambda x, ev: mk.stieltjes_perron(ev, 0.0, 1.0, eps=x),
     [1e-2, 5e-3], mk.ValidationError, True),
    ("stieltjes_perron.n_quad", lambda x, ev: mk.stieltjes_perron(ev, 0.0, 1.0, n_quad=x), 100,
     mk.ValidationError, True),
    ("reconstruct_distribution.cutpoints", lambda x, ev: mk.reconstruct_distribution(ev, x),
     [0.0, 1.0], mk.ValidationError, True),
    ("reconstruct_distribution.eps",
     lambda x, ev: mk.reconstruct_distribution(ev, [0.0, 1.0], eps=x), [1e-2, 5e-3],
     mk.ValidationError, True),
    ("reconstruct_distribution.n_quad",
     lambda x, ev: mk.reconstruct_distribution(ev, [0.0, 1.0], n_quad=x), 100,
     mk.ValidationError, True),
    ("w0_isometry_check.n_samples",
     lambda x, ev: mk.w0_isometry_check(mk.generate_from_measure(unit_mass(), 2), unit_mass(),
                                        n_samples=x), 3, mk.ValidationError, True),
    ("write_transform_csv.z", lambda x, ev: io.write_transform_csv(x, [[[1.0]]]), [2j],
     mk.ValidationError, True),
    ("write_transform_csv.values", lambda x, ev: io.write_transform_csv([2j], x), [[[1.0]]],
     mk.ValidationError, True),
]


def big_entry(valid):
    """valid with its first entry a 400-digit integer."""
    arr = np.array(valid, dtype=object)
    arr.flat[0] = BIG
    return arr.tolist()


BAD = {
    "string": lambda valid: np.asarray(valid).astype(str).tolist(),
    "ragged": lambda valid: [valid, [valid, valid]],
    "400-digit": big_entry,
    "wrong-rank": lambda valid: [valid],
}


def bad_inputs():
    for name, call, valid, error, ranked in SLOTS:
        for kind, make in BAD.items():
            if kind != "wrong-rank" or ranked:
                yield pytest.param(call, make(valid), error, id=f"{name}-{kind}")


@pytest.mark.parametrize("call, bad, error", bad_inputs())
def test_refused_with_the_stated_error(gaussian_ev, call, bad, error):
    with pytest.raises(error):
        call(bad, gaussian_ev)


@pytest.mark.parametrize("call, valid", [s[1:3] for s in SLOTS], ids=[s[0] for s in SLOTS])
def test_valid_example_is_taken(call, valid):
    # each refusal above differs from a taken argument only in the fault it names
    call(valid, mk.build_model(mk.MomentSequence(hermite_moments(6))).evaluator())


def test_stieltjes_perron_refuses_ends_past_float_range():
    with pytest.raises(mk.ValidationError, match=r"^a: not a float"):
        mk.stieltjes_perron(failing, 10**400, 10**401)


def test_messages_name_the_argument_and_what_it_is():
    with pytest.raises(mk.ValidationError,
                       match=r"^order: not a 64-bit integer \(dtype <U1, shape \(\)\)$"):
        mk.generate_from_measure(unit_mass(), "4")
    with pytest.raises(mk.ValidationError, match=r"^cutpoints: not a 1-d float array \(ragged\)$"):
        mk.reconstruct_distribution(failing, [0.0, [1.0, 2.0]])
    with pytest.raises(mk.DomainError, match=r"^z: not a complex number \(dtype complex128, "
                                             r"shape \(2,\)\)$"):
        mk.build_model(mk.MomentSequence(hermite_moments(6))).evaluator().value([2j, 3j])
    # the numeric strings numpy would convert are refused
    with pytest.raises(mk.ValidationError, match=r"^moments: not a numeric array \(dtype <U1"):
        mk.MomentSequence(["1", "0", "1"])
    # the writer's arguments: a string, a string value, a point past float range
    for z, values, name in (("ab", [[[1.0]]], "z"), ([2j], [[["x"]]], "values"),
                            ([10**400], [[[1.0]]], "z")):
        with pytest.raises(mk.ValidationError, match=f"^{name}: not a numeric array"):
            io.write_transform_csv(z, values)


class TestCounts:
    @pytest.mark.parametrize("order", ["4", 4.0, True, BIG, 0, 3, -2])
    def test_generate_refuses_an_order_that_is_not_an_even_integer(self, order):
        with pytest.raises(mk.ValidationError):
            mk.generate_from_measure(unit_mass(), order)

    def test_generate_refuses_a_power_table_past_the_limit_before_allocating(self):
        # (order + 1) * J = 2 * 2^22 + 2 entries for two nodes: refused, nothing allocated
        mu = mk.DiscreteMatrixMeasure([-1.0, 1.0], [0.5, 0.5])
        tracemalloc.start()
        try:
            with pytest.raises(mk.ValidationError, match=r"^8388610 powers t_j\^k up to order "
                                                         r"4194304; at most 4194304$"):
                mk.generate_from_measure(mu, 2**22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_generate_power_table_boundary(self, monkeypatch):
        mu = mk.DiscreteMatrixMeasure([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
        monkeypatch.setattr(_linalg, "MAX_POINTS", 15)
        assert mk.generate_from_measure(mu, 4).order == 4  # 5 x 3 powers
        with pytest.raises(mk.ValidationError, match="21 powers"):
            mk.generate_from_measure(mu, 6)

    @pytest.mark.parametrize("k", ["2", 2.0, -1, BIG, True],
                             ids=["string", "float", "negative", "400-digit", "bool"])
    def test_moment_refuses_an_index_that_is_not_an_integer_at_least_zero(self, k):
        with pytest.raises(mk.ValidationError):
            unit_mass().moment(k)

    def test_moment_power_table_boundary(self, monkeypatch):
        mu = mk.DiscreteMatrixMeasure([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
        monkeypatch.setattr(_linalg, "MAX_POINTS", 15)
        assert mu.moment(4)[0, 0] == 0.5  # 5 x 3 powers
        with pytest.raises(mk.ValidationError,
                           match=r"^18 powers t_j\^k up to order 5; at most 15$"):
            mu.moment(5)
        with pytest.raises(mk.ValidationError, match=f"^{(2**62 + 1) * 3} powers"):
            mu.moment(2**62)  # refused before allocating

    @pytest.mark.parametrize("n_samples", [0, -1, 2.5, "3", True])
    def test_w0_refuses_a_sample_count_below_one_or_not_an_integer(self, n_samples):
        mu = unit_mass()
        with pytest.raises(mk.ValidationError):
            mk.w0_isometry_check(mk.generate_from_measure(mu, 2), mu, n_samples=n_samples)

    def test_w0_refuses_a_sample_count_past_the_limit_before_allocating(self):
        # 8e15 normal draws for d = 1, 2n = 2: refused before the generator allocates
        mu = unit_mass()
        m = mk.generate_from_measure(mu, 2)
        tracemalloc.start()
        try:
            with pytest.raises(mk.ValidationError, match=r"^8000000000000000 normal draws "
                                                         r"for n_samples; at most 4194304$"):
                mk.w0_isometry_check(m, mu, n_samples=10**15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_w0_sample_count_boundary(self, monkeypatch):
        # d = 1, 2n = 2 and three nodes: 4 x 2 draws and 2 x 3 values a sample
        mu = mk.DiscreteMatrixMeasure([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
        m = mk.generate_from_measure(mu, 2)
        monkeypatch.setattr(_linalg, "MAX_POINTS", 24)
        assert mk.w0_isometry_check(m, mu, n_samples=3) < 1e-12  # 24 draws, 18 values
        monkeypatch.setattr(_linalg, "MAX_POINTS", 23)
        with pytest.raises(mk.ValidationError, match=r"^24 normal draws"):
            mk.w0_isometry_check(m, mu, n_samples=3)
        # a measure with more nodes than draws a sample: the values decide
        mu = mk.DiscreteMatrixMeasure(np.linspace(-1.0, 1.0, 5), np.full(5, 0.2))
        m = mk.generate_from_measure(mu, 2)
        monkeypatch.setattr(_linalg, "MAX_POINTS", 40)
        assert mk.w0_isometry_check(m, mu, n_samples=4) < 1e-12  # 32 draws, 40 values
        monkeypatch.setattr(_linalg, "MAX_POINTS", 39)
        with pytest.raises(mk.ValidationError, match=r"^40 polynomial values on the nodes"):
            mk.w0_isometry_check(m, mu, n_samples=4)

    @pytest.mark.parametrize("k_max", [True, np.float64(2.0), np.array([2])])
    def test_k_max_is_an_integer(self, k_max):
        with pytest.raises(mk.ValidationError):
            mk.asymptotic_moments(failing, k_max, np.geomspace(1e2, 1e4, 12))


def same(a, b):
    assert np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestAcceptedForms:
    """Lists, tuples, arrays, scalars of bool, int, float and complex, 0-d arrays: as before."""

    @pytest.fixture(scope="class")
    def ev(self):
        return mk.build_model(mk.MomentSequence(hermite_moments(6))).evaluator()

    def test_moments(self):
        want = mk.MomentSequence([1.0, 0.0, 1.0]).moments
        for form in ([1, 0, 1], (1, 0, 1), [True, False, True], np.array([1, 0, 1]),
                     np.array([1.0, 0.0, 1.0], dtype=np.float32), [1 + 0j, 0j, 1],
                     np.ones((3, 1, 1)) * np.array([1, 0, 1])[:, None, None]):
            same(mk.MomentSequence(form).moments, want)

    def test_measures(self):
        want = mk.DiscreteMatrixMeasure([0.0, 1.0], [[[1.0]], [[2.0]]])
        for nodes in ([0, 1], (0.0, 1.0), [False, True], np.arange(2), np.array([0, 1], np.uint8)):
            for weights in ([1, 2], (1.0, 2.0 + 0j), np.array([[[1]], [[2]]])):
                mu = mk.DiscreteMatrixMeasure(nodes, weights)
                same(mu.nodes, want.nodes)
                same(mu.weights, want.weights)
        for weight in (2, 2.0, 2 + 0j, np.float64(2), np.array(2.0), [[2.0]], np.full((1, 1), 2)):
            same(mk.DiscreteMatrixMeasure.point_mass(np.int64(1), weight).weights, want.weights[1:])

    def test_schur_parameters(self):
        want = mk.SchurParameter.scalar_unitary(1.0, (2, 2)).matrix
        for theta in (1, np.int64(1), np.float32(1.0), np.array(1.0), True):
            same(mk.SchurParameter.scalar_unitary(theta, (2, 2)).matrix, want)
        for form in ([[0.5]], ((0.5,),), np.array([[0.5]]), [[0.5 + 0j]], [[False]]):
            assert mk.SchurParameter(form).shape == (1, 1)

    def test_counts(self):
        mu = mk.DiscreteMatrixMeasure([-1.0, 1.0], [0.5, 0.5])
        want = mk.generate_from_measure(mu, 4).moments
        for order in (np.int64(4), np.int32(4), np.uint8(4), np.array(4)):
            same(mk.generate_from_measure(mu, order).moments, want)
        m = mk.generate_from_measure(mu, 4)
        assert mk.w0_isometry_check(m, mu, n_samples=np.int64(3)) == mk.w0_isometry_check(
            m, mu, n_samples=3)

    def test_points(self, ev):
        want = ev(np.array([2j, 1.0 + 1j]))
        for form in ([2j, 1.0 + 1j], (2j, 1 + 1j), np.array([2j, 1.0 + 1j], np.complex64)):
            same(ev(form), want)
        for z in (2j, np.complex128(2j), np.array(2j)):
            same(ev(z), want[0])
            same(ev.value(z).R, want[0])
        report = mk.herglotz_check([mk.NevanlinnaValue(z, ev(z)) for z in (2j, 1.0 + 1j)])
        assert report.passed

    def test_reconstruction_arguments(self, ev):
        want = mk.stieltjes_perron(ev, -1.0, 1.0, eps=(1e-2, 5e-3), n_quad=50.0)
        for a, b in ((-1, 1), (np.float64(-1.0), np.int64(1)), (np.array(-1.0), np.array(1))):
            for eps in ([1e-2, 5e-3], np.array([1e-2, 5e-3])):
                for n_quad in (50, np.int64(50), np.array(50.0)):
                    got = mk.stieltjes_perron(ev, a, b, eps=eps, n_quad=n_quad)
                    same(got.increment, want.increment)
                    assert (got.a, got.b) == (want.a, want.b)
        dist = mk.reconstruct_distribution(ev, [-1.0, 0.0, 1.0], eps=(1e-2, 5e-3), n_quad=50)
        for cutpoints in ((-1, 0, 1), np.array([-1, 0, 1]), np.linspace(-1.0, 1.0, 3)):
            got = mk.reconstruct_distribution(ev, cutpoints, eps=[1e-2, 5e-3], n_quad=50)
            same(got.increments, dist.increments)
            assert got.epsilon_schedule == dist.epsilon_schedule == (1e-2, 5e-3)
        fit = mk.asymptotic_moments(ev, 2, [1e2, 1e3, 1e4, 2e4])
        for k_max, y_grid in ((np.int64(2), (1e2, 1e3, 1e4, 2e4)),
                              (np.array(2), np.array([100, 1000, 10000, 20000]))):
            same(mk.asymptotic_moments(ev, k_max, y_grid).estimates, fit.estimates)
