import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import momentkit as mk
from momentkit import _linalg, cayley
from momentkit._linalg import herm, imag_part, norm2
from momentkit.reconstruct import _simpson_rule
from conftest import random_contraction, random_measure, random_model, random_psd, random_unitary


def arctan_mass(t0, a, b, eps):
    """Closed-form Poisson-kernel mass of a unit point charge at t0."""
    return (np.arctan((b - t0) / eps) + np.arctan((t0 - a) / eps)) / np.pi


class TestHerglotzCheck:
    def test_point_mass_positive(self, delta2_model):
        ev = delta2_model.evaluator()
        values = [
            ev.value(complex(x, y))
            for x in np.linspace(-3, 5, 9)
            for y in (0.1, 0.5, 2.0)
        ]
        report = mk.herglotz_check(values)
        assert report.passed and report.min_imag_eigenvalue > 0

    def test_gaussian_zero_parameter(self, gaussian_model):
        ev = gaussian_model.evaluator()
        values = [ev.value(complex(x, 0.3)) for x in np.linspace(-4, 4, 15)]
        assert mk.herglotz_check(values).passed

    def test_corrupted_values_fail(self, delta2_model):
        ev = delta2_model.evaluator()
        val = ev.value(1.5j)
        corrupted = mk.NevanlinnaValue(z=val.z, R=-val.R)
        assert not mk.herglotz_check([corrupted]).passed

    def test_stacked_equals_per_value_reference_with_tie(self, gaussian_model):
        ev = gaussian_model.evaluator()
        values = [ev.value(complex(x, y)) for x in (-2.0, 0.5, 3.0) for y in (0.1, 1.5)]
        # a later copy of every value ties every minimum
        values += [mk.NevanlinnaValue(z=v.z + 5.0, R=v.R) for v in values]
        worst, worst_z = np.inf, None
        for val in values:
            low = float(np.linalg.eigvalsh(imag_part(val.R)).min())
            if low < worst:
                worst, worst_z = low, val.z
        report = mk.herglotz_check(values)
        assert report.min_imag_eigenvalue == pytest.approx(worst, rel=1e-14, abs=1e-15)
        assert report.worst_z == worst_z

    def test_rejects_empty_input(self):
        with pytest.raises(mk.ValidationError):
            mk.herglotz_check([])

    def test_rejects_lower_half_plane(self):
        with pytest.raises(mk.DomainError):
            mk.herglotz_check([mk.NevanlinnaValue(z=1 - 1j, R=np.eye(1))])

    @pytest.mark.parametrize("z", [complex(np.nan, 1.0), complex(np.inf, 1.0),
                                   complex(0.0, np.inf), complex(0.0, np.nan)])
    def test_rejects_non_finite_z(self, delta2_model, z):
        good = delta2_model.evaluator().value(1.5j)
        bad = mk.NevanlinnaValue(z=z, R=1j * np.eye(1))
        # refused by the evaluator's point check, naming the bad z as given
        with pytest.raises(mk.DomainError, match=re.escape(f"z={z} is not a finite point")):
            mk.herglotz_check([good, bad])


class TestAsymptoticMoments:
    def test_point_mass_recovery(self, delta2_model):
        fit = mk.asymptotic_moments(
            delta2_model.evaluator(), 4, np.geomspace(1e2, 1e4, 12)
        )
        assert_allclose(
            [fit.estimates[k][0, 0].real for k in range(3)], [1, 2, 4], atol=1e-6
        )

    def test_gaussian_unitary_parameter(self, gaussian_model):
        p = mk.SchurParameter([[1.0]])
        fit = mk.asymptotic_moments(
            gaussian_model.evaluator(p), 4, np.geomspace(1e2, 1e4, 12)
        )
        assert_allclose(
            [fit.estimates[k][0, 0].real for k in range(3)], [1, 0, 1], atol=1e-3
        )

    def test_d2_point_mass_total_weight(self):
        w = np.array([[0.8, 0.1j], [-0.1j, 0.4]])
        mu = mk.DiscreteMatrixMeasure.point_mass(0.7, w)
        model = mk.build_model(mk.generate_from_measure(mu, 4))
        fit = mk.asymptotic_moments(
            model.evaluator(), 2, np.geomspace(1e2, 1e4, 10)
        )
        assert np.abs(fit.estimates[0] - w).max() <= 1e-6

    @pytest.mark.parametrize("seed", [3, 8, 21])
    def test_matches_lstsq_reference(self, seed):
        rng = np.random.default_rng(seed)
        d, order = int(rng.integers(1, 5)), 2 * int(rng.integers(2, 7))
        model = mk.build_model(
            mk.generate_from_measure(random_measure(rng, d, order // 2 + 1 + d), order)
        )
        ev = model.evaluator(mk.SchurParameter(random_unitary(rng, model.defect_dims[0])))
        grids = [(4, np.geomspace(1e2, 1e4, 6)), (4, np.geomspace(1e2, 1e5, 12)),
                 (2, np.geomspace(1e2, 1e4, 10)), (0, [1e2, 1e3])]
        for k_max, y_grid in grids:
            fit = mk.asymptotic_moments(ev, k_max, y_grid)
            # the fit as np.linalg.cond and np.linalg.lstsq compute it
            y = np.asarray(y_grid, float)
            design = np.stack([-((1j * y) ** (-k - 1)) for k in range(k_max + 1)], axis=1)
            col_scale = np.linalg.norm(design, axis=0)
            cond = np.linalg.cond(design / col_scale)
            scaled = np.linalg.lstsq(design / col_scale, ev(1j * y).reshape(y.size, -1),
                                     rcond=None)[0]
            want = herm((scaled / col_scale[:, None]).reshape(k_max + 1, d, d))
            assert abs(fit.cond - cond) <= 1e-12 * cond
            # the cached pseudo-inverse and lstsq agree on the unknowns of the design with
            # unit columns to 4 cond * 2^-52 times the norm of the largest solution: over
            # 60 seeded models and five grids the most seen was 1.5 times cond * 2^-52,
            # at k_max = 0 (cond = 1, a few roundings), and 0.3 times it at cond > 1.
            # Unscaled, an entry of S_k moves by that over S_k's column norm, which
            # falls with k: S_0..S_2 moved by at most 3.8e-9 relative, S_3 by 6.4e-7
            # and S_4 by 4.9e-5
            bound = 4 * cond * np.finfo(float).eps * np.linalg.norm(scaled, axis=0).max()
            for k in range(k_max + 1):
                assert np.abs(fit.estimates[k] - want[k]).max() <= bound / col_scale[k]
            for k in range(min(k_max, 2) + 1):
                assert np.abs(fit.estimates[k] - want[k]).max() <= 1e-8 * np.abs(want[k]).max()

    def test_rejects_bad_grid(self, delta2_model):
        ev = delta2_model.evaluator()
        with pytest.raises(mk.ValidationError):
            mk.asymptotic_moments(ev, 2, [10.0, 50.0, 90.0])
        with pytest.raises(mk.ValidationError):
            mk.asymptotic_moments(ev, 5, np.geomspace(1e2, 1e4, 12))
        with pytest.raises(mk.ValidationError):
            mk.asymptotic_moments(ev, 3, [200.0, 300.0])

    def test_equal_heights_ill_conditioned(self, delta2_model):
        # six heights are enough for k_max = 4, but equal ones give a rank-one design
        with pytest.raises(mk.ConditioningError):
            mk.asymptotic_moments(delta2_model.evaluator(), 4, [100.0] * 6)


def refused_before_evaluation(call):
    """Run call(ev) with an evaluator that must never be called; ValidationError expected."""
    def ev(zs):
        raise AssertionError(f"evaluated at {zs!r}")

    with pytest.raises(mk.ValidationError):
        call(ev)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("a, b", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)])
    def test_interval_ends(self, a, b):
        refused_before_evaluation(lambda ev: mk.stieltjes_perron(ev, a, b))

    @pytest.mark.parametrize("eps", [(np.nan,), (1e-2, np.nan), (np.inf, 1e-2)])
    def test_epsilon_schedule(self, eps):
        refused_before_evaluation(lambda ev: mk.stieltjes_perron(ev, 0.0, 1.0, eps=eps))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_cutpoints(self, bad):
        # the first cell is valid; nothing is evaluated before the refusal
        refused_before_evaluation(lambda ev: mk.reconstruct_distribution(ev, [0.0, 1.0, bad]))

    def test_asymptotic_heights(self):
        y_grid = [1e2, 1e3, np.nan, 1e4]
        refused_before_evaluation(lambda ev: mk.asymptotic_moments(ev, 2, y_grid))


class TestArgumentShapes:
    @pytest.mark.parametrize("k_max", [2.5, 2.0, "2"])
    def test_non_integer_k_max(self, k_max):
        y_grid = np.geomspace(1e2, 1e4, 12)
        refused_before_evaluation(lambda ev: mk.asymptotic_moments(ev, k_max, y_grid))

    def test_numpy_integer_k_max(self, delta2_model):
        ev, y_grid = delta2_model.evaluator(), np.geomspace(1e2, 1e4, 12)
        fit = mk.asymptotic_moments(ev, np.int64(4), y_grid)
        assert_array_equal(fit.estimates, mk.asymptotic_moments(ev, 4, y_grid).estimates)

    def test_cutpoints_not_one_dimensional(self):
        # flattened, [[0, 1], [2, 3]] would be three cells, [1, 2] among them
        refused_before_evaluation(lambda ev: mk.reconstruct_distribution(ev, [[0, 1], [2, 3]]))


class TestPointLimit:
    """At most MAX_POINTS transform points per cell, and MAX_POINTS // 3 cells."""

    @pytest.mark.parametrize("call", [
        lambda ev: mk.stieltjes_perron(ev, -1e9, 1e9),  # 2e12 nodes per line
        lambda ev: mk.stieltjes_perron(ev, 0.0, 1.0, n_quad=1e12),
        lambda ev: mk.stieltjes_perron(ev, -1e308, 1e308),  # a length past the float max
        lambda ev: mk.reconstruct_distribution(ev, [-1e9, 0.0, 1e9]),
    ])
    def test_refused_before_evaluation(self, call):
        tracemalloc.start()
        try:
            refused_before_evaluation(call)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_boundary(self, delta2_model, monkeypatch):
        ev = delta2_model.evaluator()
        monkeypatch.setattr(_linalg, "MAX_POINTS", 1200)
        # four lines of 299 nodes pass, of 301 do not
        assert mk.stieltjes_perron(ev, 0.0, 1.49, n_quad=200).per_eps[0][1].shape == (1, 1)
        with pytest.raises(mk.ValidationError, match=r"1204 transform points for 4 lines on"):
            mk.stieltjes_perron(lambda zs: pytest.fail("evaluated"), 0.0, 1.5, n_quad=200)
        refused_before_evaluation(lambda ev: mk.stieltjes_perron(ev, 0.0, 1.0, eps=(1e-2,),
                                                                 n_quad=1201))
        # each cell of a distribution is one such call
        dist = mk.reconstruct_distribution(ev, [0.0, 1.49, 2.98], n_quad=200)
        assert len(dist.converged) == 2
        refused_before_evaluation(
            lambda ev: mk.reconstruct_distribution(ev, [0.0, 1.5], n_quad=200))
        # 400 cells of three nodes pass; 401 are refused by their count, before any cell
        grid = np.linspace(0.0, 1.0, 401)
        assert len(mk.reconstruct_distribution(ev, grid, eps=(1e-2,), n_quad=1).converged) == 400
        with pytest.raises(mk.ValidationError, match="1203 transform points for 401 cells"):
            mk.reconstruct_distribution(lambda zs: pytest.fail("evaluated"),
                                        np.linspace(0.0, 1.0, 402), n_quad=1)


class TestStieltjesPerron:
    def test_point_mass_interval_per_eps(self, delta2_model):
        result = mk.stieltjes_perron(delta2_model.evaluator(), 1.5, 2.5)
        for eps, value in result.per_eps:
            assert abs(value[0, 0].real - arctan_mass(2.0, 1.5, 2.5, eps)) <= 1e-2
        assert abs(result.increment[0, 0].real - 1.0) <= 1e-3
        assert result.converged

    def test_single_epsilon(self, delta2_model):
        # one table row: its value is the increment, with no gap to flag
        result = mk.stieltjes_perron(delta2_model.evaluator(), 1.5, 2.5, eps=(1e-2,))
        assert len(result.per_eps) == 1 and result.per_eps[0][0] == 1e-2
        assert np.array_equal(result.increment, result.per_eps[0][1])
        assert result.converged is True

    def test_interval_missing_the_node(self, delta2_model):
        result = mk.stieltjes_perron(delta2_model.evaluator(), 3.0, 4.0)
        assert abs(result.increment[0, 0]) <= 1e-2

    def test_d2_point_mass_entrywise(self):
        w = np.array([[0.6, 0.2], [0.2, 0.9]], dtype=complex)
        mu = mk.DiscreteMatrixMeasure.point_mass(1.0, w)
        model = mk.build_model(mk.generate_from_measure(mu, 4))
        result = mk.stieltjes_perron(model.evaluator(), 0.5, 1.5)
        assert np.abs(result.increment - w).max() <= 1e-2

    def test_mass_conservation(self, delta2_model):
        result = mk.stieltjes_perron(delta2_model.evaluator(), 0.0, 4.0)
        s0 = delta2_model.moments.moment(0)
        assert np.abs(result.increment - s0).max() <= 1e-2

    def test_validation(self, delta2_model):
        ev = delta2_model.evaluator()
        with pytest.raises(mk.ValidationError):
            mk.stieltjes_perron(ev, 2.0, 1.0)
        with pytest.raises(mk.ValidationError):
            mk.stieltjes_perron(ev, 0.0, 1.0, eps=(1e-2, 1e-2))
        with pytest.raises(mk.ValidationError):
            mk.stieltjes_perron(ev, 0.0, 1.0, eps=(1e-3, 1e-5))

    @pytest.mark.parametrize("n_quad", [0, -5, 0.5, np.nan, np.inf, -np.inf])
    def test_quadrature_density_below_one_or_not_finite(self, n_quad):
        # 0 and -5 would give a 3-node rule flagged converged; nan and inf a bare error
        refused_before_evaluation(lambda ev: mk.stieltjes_perron(ev, 0.0, 1.0, n_quad=n_quad))
        refused_before_evaluation(
            lambda ev: mk.reconstruct_distribution(ev, [0.0, 1.0], n_quad=n_quad))

    def test_quadrature_density_one(self, delta2_model):
        result = mk.stieltjes_perron(delta2_model.evaluator(), 1.5, 2.5, n_quad=1)
        assert result.per_eps[0][1].shape == (1, 1)

    def test_one_evaluator_call_on_every_line(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, d=2, num_nodes=4, order=6)
        ev = model.evaluator(mk.SchurParameter(random_unitary(rng, model.defect_dims[0])))
        calls = []

        def counting(zs):
            calls.append(zs)
            return ev(zs)

        eps = (1e-2, 5e-3, 2.5e-3)
        result = mk.stieltjes_perron(counting, -0.5, 0.75, eps=eps)
        xs, weights = _simpson_rule(-0.5, 0.75, mk.reconstruct.DEFAULT_QUAD_DENSITY)
        assert len(calls) == 1 and calls[0].ndim == 1
        assert np.array_equal(calls[0], np.concatenate([xs + 1j * e for e in eps]))
        # the table against one evaluation and one Simpson sum per line
        for e, value in result.per_eps:
            line = herm(np.tensordot(weights / np.pi, imag_part(ev(xs + 1j * e)), axes=1))
            assert_allclose(value, line, rtol=0,
                            atol=1e-13 * max(1.0, np.linalg.norm(line, 2)))

    @pytest.mark.parametrize("eps", [(4e-3, 2e-3), (4e-3, 2e-3, 1e-3)])
    @pytest.mark.parametrize("diag, verdict", [
        ((4e-4, 1e-4), True),  # ||gap||_F <= 5e-4: settled without an SVD
        ((9e-4, 8e-4), True),  # ||gap||_F in (5e-4, 2 sqrt(2) e-3], ||gap||_2 <= 1e-3
        ((1.001e-3, 0.0), False),  # just above the bound
        ((1.5e-3, 0.0), False),  # rank one: ||gap||_F / sqrt(2) < 1.5e-3 = ||gap||_2
        ((3e-3, 3e-3), False),  # ||gap||_F > 2 sqrt(2) e-3: settled without an SVD
    ])
    def test_converged_is_the_exact_norm_verdict(self, eps, diag, verdict, monkeypatch):
        # Im R = M on the last line of [0, pi] and 0 on the others, so the
        # table is (0, ..., 0, M); the gap is M without a third line, and
        # else the last extrapolant, M (1 + r), minus the one before, 0
        r = eps[-1] / (eps[-2] - eps[-1]) if len(eps) > 2 else 0.0
        gap = np.diag(diag)
        last = gap / (1.0 + r)

        def synthetic(zs):
            return np.where((zs.imag == eps[-1])[:, None, None], 1j * last, 0.0)

        calls = []

        def counting(mat):
            calls.append(mat)
            return norm2(mat)

        monkeypatch.setattr(_linalg, "norm2", counting)
        result = mk.stieltjes_perron(synthetic, 0.0, np.pi, eps=eps, n_quad=101)
        table = [value for _, value in result.per_eps]
        exact = result.increment if len(eps) > 2 else table[-1] - table[-2]
        assert np.linalg.norm(exact - gap, 2) <= 1e-15
        assert result.converged == (np.linalg.norm(exact, 2) <= 1e-3) == verdict
        # one SVD where the Frobenius bounds leave the verdict open, else none
        settled = not 5e-4 < np.linalg.norm(diag) <= 2e-3 * np.sqrt(2.0)
        assert len(calls) == (0 if settled else 1)

    @pytest.mark.parametrize("case", ["gaussian_unitary", "d4_contraction"])
    def test_values_are_hermitian_to_the_last_bit(self, case, gaussian_model, monkeypatch):
        # Im M = (M - M*)/2i is Hermitian to the last bit, and so is every real
        # combination of such matrices: the table, the increment and the gap that
        # the verdict takes, from real evaluator output, need no herm
        if case == "gaussian_unitary":
            ev = gaussian_model.evaluator(mk.SchurParameter.scalar_unitary(np.pi / 2, (1, 1)))
        else:
            rng = np.random.default_rng(7)
            model = mk.build_model(mk.generate_from_measure(random_measure(rng, 4, 8), 6))
            shape = model.defect_dims[::-1]
            ev = model.evaluator(mk.SchurParameter(random_contraction(rng, shape)))
        gaps = []
        within = mk.reconstruct.norm2_within
        monkeypatch.setattr(mk.reconstruct, "norm2_within",
                            lambda mat, bound: gaps.append(mat) or within(mat, bound))
        dist = mk.reconstruct_distribution(ev, [-0.5, -0.4375, 0.0, 0.0625])
        values = [value for c in range(3) for _, value in
                  mk.stieltjes_perron(ev, *dist.grid[c:c + 2]).per_eps]
        assert len(gaps) == 6 and len(values) == 12
        for mat in [*dist.increments, *gaps, *values]:
            assert np.array_equal(mat, mat.conj().T)

    @staticmethod
    def assert_linspace_simpson(a, b, n_quad, count):
        # nodes bit for bit those of np.linspace, weights (1, 4, 2, ..., 4, 1) h/3
        xs, weights = _simpson_rule(a, b, n_quad)
        nodes, h = np.linspace(a, b, count, retstep=True)
        pattern = np.full(count, 2.0)
        pattern[1::2] = 4.0
        pattern[[0, -1]] = 1.0
        assert np.array_equal(xs, nodes)
        assert np.array_equal(weights, pattern * (h / 3.0))
        # the cached pattern is read-only; the weights handed out are not it
        cached = mk.reconstruct._simpson_pattern(count)
        assert not cached.flags.writeable
        assert weights.flags.writeable and not np.shares_memory(weights, cached)

    @pytest.mark.parametrize("a, b, n_quad, count", [
        (0.0, 1.0, 1, 3),
        (-1.0, 1.5, 2, 5),
        (0.1, 0.1625, 2001, 127),  # a benchmark cell: 125.06 rounded up to odd
        (-3.0, 3.0, 2000, 12001),
        (1e-8, 2e-8, 10**9, 11),
        (-2.7, 31.4, 37, 1263),
    ])
    def test_simpson_rule(self, a, b, n_quad, count):
        self.assert_linspace_simpson(a, b, n_quad, count)

    def test_simpson_rule_across_intervals_and_densities(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            a = float(rng.uniform(-5.0, 5.0))
            b = a + float(10.0 ** rng.uniform(-4.0, 1.5))
            n_quad = int(rng.integers(1, 5000))
            count = max(int(np.ceil((b - a) * n_quad)), 3)
            self.assert_linspace_simpson(a, b, n_quad, count + 1 - count % 2)

    def test_table_is_read_only_and_hermitian(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, d=3, num_nodes=5, order=6)
        ev = model.evaluator(mk.SchurParameter(random_unitary(rng, model.defect_dims[0])))
        result = mk.stieltjes_perron(ev, -0.3, 0.2)
        for _, value in (*result.per_eps, (None, result.increment)):
            assert not value.flags.writeable
            assert np.array_equal(value, value.conj().T)

    def test_one_cell_distribution_is_the_cell(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, d=2, num_nodes=4, order=6)
        ev = model.evaluator(mk.SchurParameter(random_unitary(rng, model.defect_dims[0])))
        for a, b in ((-0.5, 0.75), (0.1, 0.1625), (np.float64(-1.3), 2)):
            dist = mk.reconstruct_distribution(ev, [a, b])
            cell = mk.stieltjes_perron(ev, a, b)
            assert np.array_equal(dist.increments, cell.increment[None])
            assert dist.converged == (cell.converged,)

    def test_one_traced_cell_call_per_cell(self, delta2_model, monkeypatch):
        cells = []
        real = mk.reconstruct.stieltjes_perron

        def counting(evaluator, a, b, **kwargs):
            cells.append((a, b))
            return real(evaluator, a, b, **kwargs)

        monkeypatch.setattr(mk.reconstruct, "stieltjes_perron", counting)
        grid = np.linspace(1.0, 3.0, 6)
        dist = mk.reconstruct_distribution(delta2_model.evaluator(), grid, n_quad=401)
        assert cells == list(zip(grid.tolist(), grid[1:].tolist()))
        assert dist.increments.shape == (5, 1, 1) and len(dist.converged) == 5

    def test_distribution_assembly(self, delta2_model):
        dist = mk.reconstruct_distribution(
            delta2_model.evaluator(),
            np.linspace(1.0, 3.0, 5),
            eps=(1e-2, 5e-3),
            n_quad=401,
        )
        assert dist.increments.shape == (4, 1, 1)
        assert abs(dist.total_mass()[0, 0].real - 1.0) <= 2e-2


def recover_discrete_loop(g, c, emb):
    """recover_discrete's earlier per-run loop: the reference for its one-pass merge."""
    eigs, vecs = np.linalg.eigh(herm(cayley.inverse_cayley(c.V)))
    gap = mk.reconstruct.NODE_CLUSTER_TOL * max(1.0, float(np.abs(eigs).max(initial=0.0)))
    nodes, weights = [], []
    start = 0
    for stop in range(1, eigs.size + 1):
        if stop == eigs.size or eigs[stop] - eigs[stop - 1] > gap:
            coeff = vecs[:, start:stop].conj().T @ emb.matrix
            weight = coeff.conj().T @ coeff
            if float(np.trace(weight).real) > 1e-12 * max(
                1.0, float(np.trace(g.moments.moment(0)).real)
            ):
                nodes.append(float(eigs[start:stop].mean()))
                weights.append(weight)
            start = stop
    return np.array(nodes), np.stack(weights)


class TestRecoverDiscrete:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3), chain=st.integers(2, 3),
           others=st.integers(0, 2), extra=st.integers(0, 1), frac=st.floats(0.1, 0.9))
    def test_chained_nodes_merge_as_the_loop_did(self, seed, d, chain, others, extra, frac):
        # a chain of rank-one weights in independent directions, each node frac * gap
        # past the one before: one run of A~'s eigenvalues, spanning up to 1.8 gaps
        chain = min(chain, d)
        rng = np.random.default_rng(seed)
        spots = rng.permutation(np.linspace(-2.0, 2.0, 9))[: others + 1]
        step = frac * mk.reconstruct.NODE_CLUSTER_TOL * max(1.0, np.abs(spots).max())
        vs = rng.standard_normal((chain, d)) + 1j * rng.standard_normal((chain, d))
        nodes = np.concatenate([spots[0] + step * np.arange(chain), spots[1:]])
        weights = np.stack([np.outer(v, v.conj()) for v in vs]
                           + [random_psd(rng, d) for _ in spots[1:]])
        order = np.argsort(nodes)
        m = mk.generate_from_measure(mk.DiscreteMatrixMeasure(nodes[order], weights[order]),
                                     2 * (others + 1 + extra))
        model = mk.build_model(m)
        assert model.determinate
        mu = mk.recover_discrete(model.space, model.cayley, model.embed_i)
        want_nodes, want_weights = recover_discrete_loop(model.space, model.cayley,
                                                         model.embed_i)
        assert mu.num_nodes == want_nodes.size == others + 1
        assert np.abs(mu.nodes - want_nodes).max() <= 1e-15 * np.abs(want_nodes).max()
        scale = max(norm2(w) for w in want_weights)
        assert np.abs(mu.weights - want_weights).max() <= 1e-15 * scale
        # the chain at its mean with its weights' sum: the measure the merge recovers, whose
        # moments differ from m's by up to k * gap * max|t|^(k-1) * ||W||
        merged_nodes = np.append(spots[0] + step * (chain - 1) / 2, spots[1:])
        merged_weights = np.concatenate([weights[:chain].sum(axis=0)[None], weights[chain:]])
        order = np.argsort(merged_nodes)
        merged = mk.DiscreteMatrixMeasure(merged_nodes[order], merged_weights[order])
        back = mk.generate_from_measure(mu, m.order)
        want = mk.generate_from_measure(merged, m.order)
        for k in range(m.order + 1):
            assert (np.abs(back.moment(k) - want.moment(k)).max()
                    <= 1e-8 * max(1.0, np.abs(want.moment(k)).max()))

    def test_point_mass(self, delta2_model):
        mu = mk.recover_discrete(
            delta2_model.space, delta2_model.cayley, delta2_model.embed_i
        )
        assert_allclose(mu.nodes, [2.0], atol=1e-10)
        assert_allclose(mu.weights[0], [[1.0]], atol=1e-10)

    def test_two_point_symmetric(self):
        # oracle: the generating measure itself (order 4 keeps it determinate)
        mu_in = mk.DiscreteMatrixMeasure([-1.0, 1.0], [[[0.5]], [[0.5]]])
        model = mk.build_model(mk.generate_from_measure(mu_in, 4))
        assert model.determinate
        mu = mk.recover_discrete(model.space, model.cayley, model.embed_i)
        assert_allclose(mu.nodes, [-1.0, 1.0], atol=1e-8)
        assert_allclose(mu.weights[:, 0, 0], [0.5, 0.5], atol=1e-8)

    def test_d2_decoupled_union(self):
        nodes = [-1.0, 1.0, 2.0]
        weights = [np.diag([0.0, 0.5]), np.diag([0.0, 0.5]), np.diag([1.0, 0.0])]
        model = mk.build_model(
            mk.generate_from_measure(mk.DiscreteMatrixMeasure(nodes, weights), 4)
        )
        mu = mk.recover_discrete(model.space, model.cayley, model.embed_i)
        assert_allclose(mu.nodes, nodes, atol=1e-8)
        for got, expected in zip(mu.weights, weights):
            assert_allclose(got, expected, atol=1e-8)

    def test_indeterminate_rejected(self, gaussian_model):
        with pytest.raises(mk.IndeterminateError):
            mk.recover_discrete(
                gaussian_model.space, gaussian_model.cayley, gaussian_model.embed_i
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_moment_reproduction_and_roundtrip(self, seed):
        # J <= n keeps the truncation determinate for d = 1
        rng = np.random.default_rng(500 + seed)
        num_nodes = int(rng.integers(1, 4))
        mu_in = random_measure(rng, 1, num_nodes)
        order = 2 * int(rng.integers(num_nodes, num_nodes + 3))
        m = mk.generate_from_measure(mu_in, order)
        model = mk.build_model(m)
        assert model.determinate
        mu = mk.recover_discrete(model.space, model.cayley, model.embed_i)
        for k in range(order + 1):
            assert (
                np.abs(mu.moment(k) - m.moment(k)).max()
                <= 1e-8 * max(1.0, np.abs(m.moment(k)).max())
            )
        assert_allclose(mu.nodes, mu_in.nodes, atol=1e-6)
        assert_allclose(mu.weights, mu_in.weights, atol=1e-8)
