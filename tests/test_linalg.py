import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentkit as mk
from momentkit import _linalg, cayley, gramspace, nevanlinna, pipeline
from conftest import random_contraction, random_measure


def scaled_matrix(seed, rows, cols, rank, norm):
    """A random complex matrix of the given rank with 2-norm `norm`."""
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    mat = left @ right
    return mat * (norm / np.linalg.norm(mat, 2))


shapes = dict(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    rank=st.integers(1, 8),
    log_bound=st.floats(-14.0, 2.0),
)


class TestGateNorm:
    """The 2-norm gates: `norm2_within` decides, `norm2` is the value a failing gate reports."""

    @settings(max_examples=300, deadline=None)
    @given(offset=st.floats(-1e-3, 1e-3), log_scale=st.floats(-3.0, 3.0), **shapes)
    def test_verdict_near_the_bound(self, seed, rows, cols, rank, log_bound, offset,
                                    log_scale):
        # the relative gate, with ||mat||_2 within 0.1 % of its effective bound
        tol = 10.0**log_bound
        scale_mat = scaled_matrix(seed + 1, rows, cols, 1, 10.0**log_scale)
        effective = tol * max(1.0, _linalg.norm2(scale_mat))
        mat = scaled_matrix(seed, rows, cols, min(rank, rows, cols), effective * (1.0 + offset))
        passes = _linalg.norm2_within_scaled(mat, tol, scale_mat)
        assert passes == (_linalg.norm2(mat) <= effective)

    @settings(max_examples=300, deadline=None)
    @given(log_ratio=st.floats(-6.0, 3.0), log_scale=st.floats(-3.0, 3.0), **shapes)
    def test_verdict_and_value_across_scales(self, seed, rows, cols, rank, log_bound,
                                             log_ratio, log_scale):
        tol = 10.0**log_bound
        scale_mat = scaled_matrix(seed + 1, rows, cols, 1, 10.0**log_scale)
        effective = tol * max(1.0, _linalg.norm2(scale_mat))
        mat = scaled_matrix(seed, rows, cols, min(rank, rows, cols), effective * 10.0**log_ratio)
        exact = float(np.linalg.norm(mat, 2))
        passes = _linalg.norm2_within_scaled(mat, tol, scale_mat)
        assert passes == (exact <= effective)
        if not passes:
            # the value a refused gate reports is the exact 2-norm, over the bound
            assert _linalg.norm2(mat) == exact > effective

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry_fails(self, bad):
        mat = np.zeros((3, 2), dtype=complex)
        mat[2, 1] = bad
        assert _linalg.norm2_within(mat, 1e-8) is False
        assert _linalg.norm2(mat) == np.inf

    def test_empty_passes(self):
        assert _linalg.norm2_within(np.zeros((0, 3)), 1e-8) is True
        assert _linalg.norm2(np.zeros((0, 3))) == 0.0

    def test_model_gates_match_exact_norms(self, monkeypatch):
        # every verdict and message of build_shift and cayley_transform, on
        # inputs that pass and inputs refused by each of their three gates,
        # equals that of the same gates run on exact 2-norms
        def outcomes():
            out = []
            for seed in range(300):
                rng = np.random.default_rng(seed)
                d = int(rng.integers(1, 5))
                order = int(rng.choice([8, 10, 12]))
                mu = random_measure(rng, d, int(rng.integers(1, order // 2 + 3)))
                try:
                    mk.build_model(mk.generate_from_measure(mu, order))
                    out.append("built")
                except (mk.ConsistencyError, mk.ShiftConsistencyError) as err:
                    out.append((type(err), str(err), getattr(err, "residual", None)))
            return out

        settled = outcomes()
        exact = lambda mat, bound: _linalg.norm2(mat) <= bound  # noqa: E731
        monkeypatch.setattr(gramspace, "norm2_within", exact)
        monkeypatch.setattr(cayley, "norm2_within", exact)
        monkeypatch.setattr(_linalg, "norm2_within", exact)  # inside norm2_within_scaled
        assert outcomes() == settled
        messages = {o[1].split(" (")[0] for o in settled if o != "built"}
        assert messages == {
            "truncated sequence not shift-consistent",
            "shift operator not symmetric on its domain",
            "Cayley transform is not isometric on M_i",
        }


class TestNorm2Within:
    @settings(max_examples=300, deadline=None)
    @given(log_ratio=st.floats(-6.0, 3.0), **shapes)
    def test_verdict_is_the_exact_norms(self, seed, rows, cols, rank, log_bound, log_ratio):
        bound = 10.0**log_bound
        mat = scaled_matrix(seed, rows, cols, min(rank, rows, cols), bound * 10.0**log_ratio)
        assert _linalg.norm2_within(mat, bound) == (_linalg.norm2(mat) <= bound)

    @settings(max_examples=300, deadline=None)
    @given(offset=st.floats(-1e-3, 1e-3), **shapes)
    def test_verdict_near_the_bound(self, seed, rows, cols, rank, log_bound, offset):
        bound = 10.0**log_bound
        mat = scaled_matrix(seed, rows, cols, min(rank, rows, cols), bound * (1.0 + offset))
        assert _linalg.norm2_within(mat, bound) == (_linalg.norm2(mat) <= bound)

    @pytest.mark.parametrize("scale, svds", [(0.5, 0), (0.9, 1), (2.0 * np.sqrt(3.0) * 0.99, 1),
                                             (2.0 * np.sqrt(3.0) * 1.01, 0)])
    def test_svd_only_between_the_frobenius_bounds(self, scale, svds, monkeypatch):
        # a 3 x 5 matrix with ||.||_F = scale * bound
        calls = []
        exact = _linalg.norm2

        def counting(mat):
            calls.append(mat)
            return exact(mat)

        monkeypatch.setattr(_linalg, "norm2", counting)
        mat = np.ones((3, 5)) * (scale * 1e-3 / np.sqrt(15.0))
        _linalg.norm2_within(mat, 1e-3)
        assert len(calls) == svds

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry_fails(self, bad):
        mat = np.zeros((3, 2), dtype=complex)
        mat[2, 1] = bad
        assert _linalg.norm2_within(mat, 1e-8) is False



class TestConditionGate:
    """One condition gate: `cond2` and `check_condition`, behind `solve_checked`."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_matrix_fails_the_gate(self, bad):
        mat = np.eye(3, dtype=complex)
        mat[1, 2] = bad
        assert _linalg.cond2(mat) == np.inf
        with pytest.raises(mk.ConditioningError, match="test: system too ill-conditioned") as err:
            _linalg.solve_checked(mat, np.ones(3), "test")
        assert err.value.cond == np.inf

    @pytest.mark.parametrize("cond, passes", [(1.0, True), (_linalg.COND_THRESHOLD, True),
                                              (np.nextafter(_linalg.COND_THRESHOLD, np.inf), False),
                                              (np.inf, False), (np.nan, False)])
    def test_threshold(self, cond, passes):
        if passes:
            _linalg.check_condition(cond, "fit")
        else:
            with pytest.raises(mk.ConditioningError, match="^fit"):
                _linalg.check_condition(cond, "fit")

    def test_empty_matrix(self):
        assert _linalg.cond2(np.zeros((0, 0))) == 1.0
        assert _linalg.solve_checked(np.zeros((0, 0)), np.zeros((0, 2)), "test").shape == (0, 2)


def with_parts(real, imag):
    """A complex array from its parts, keeping the signs of zeros."""
    out = np.empty(np.shape(real), dtype=complex)
    out.real, out.imag = real, imag
    return out


class TestHerm:
    def test_finite_at_the_float_max_with_the_bits_of_the_plain_formula(self):
        # entries past half the float max, whose plain sum M + M* overflows,
        # and every sign of zero in both parts.  Scaled by 2^-4, which is
        # exact here, 0.5 (M + M*) does not overflow; scaled back, it gives
        # the bits herm must give, signed zeros included
        big = 1e308
        real = np.array([[[big, -big, 0.0], [-big, -0.0, 0.0], [-0.0, 0.0, -big]],
                         [[-0.0, big, big], [big, 0.0, -0.0], [0.0, -0.0, 0.0]]])
        imag = np.array([[[0.0, -0.0, 0.0], [big, -0.0, -big], [0.0, big, 0.0]],
                         [[-big, -0.0, 0.0], [0.0, -0.0, big], [-big, 0.0, -0.0]]])
        mat = with_parts(real, imag)
        small = with_parts(real / 16.0, imag / 16.0)  # part by part: a complex
        plain = 0.5 * (small + small.conj().swapaxes(-1, -2))  # product moves zeros
        want = with_parts(16.0 * plain.real, 16.0 * plain.imag)
        got = _linalg.herm(mat)
        assert np.isfinite(got).all()
        assert got.tobytes() == want.tobytes()
        assert got[0, 0, 0] == big and got[0, 0, 1] == complex(-big, -0.5 * big)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4))
    def test_bits_of_the_plain_formula_with_signed_zeros(self, seed, d):
        rng = np.random.default_rng(seed)
        parts = rng.choice([0.0, -0.0, 1.0, -2.5, 3e-7], size=(2, 2, d, d))
        mat = with_parts(*(parts * rng.standard_normal(parts.shape)))
        want = 0.5 * (mat + mat.conj().swapaxes(-1, -2))
        assert _linalg.herm(mat).tobytes() == want.tobytes()


def arrays(value):
    """Every ndarray in value, looking into tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from arrays(item)


def test_every_array_of_every_value_type_is_read_only():
    rng = np.random.default_rng(5)
    mu = random_measure(rng, 2, 6)
    m = mk.generate_from_measure(mu, 4)
    model = mk.build_model(m)
    assert model.defect_dims == (2, 2)
    p = mk.SchurParameter(random_contraction(rng, (2, 2)))
    ev = model.evaluator(p)
    m.gram, m.hankel_eigh  # cached on first use, and swept with the fields
    values = {
        mk.MomentSequence: m,
        mk.DiscreteMatrixMeasure: mu,
        pipeline.Model: model,
        gramspace.GramSpace: model.space,
        gramspace.EmbeddingI: model.embed_i,
        cayley.CayleyData: model.cayley,
        cayley.MiBlock: model.cayley.mi_block,
        mk.SchurParameter: p,
        nevanlinna.BlockSet: nevanlinna.blocks(model.cayley, p, 0.5 + 0.7j),
        mk.NevanlinnaValue: ev.value(0.3 + 0.5j),
        mk.MomentFit: mk.asymptotic_moments(ev, 2, np.geomspace(1e2, 1e4, 6)),
        mk.IntervalMass: mk.stieltjes_perron(ev, -1.0, 1.0, n_quad=50),
        mk.ReconstructedDistribution: mk.reconstruct_distribution(ev, [-1.0, 0.0, 1.0],
                                                                  n_quad=50),
    }
    for cls, value in values.items():
        assert type(value) is cls
        found = [arr for field in vars(value).values() for arr in arrays(field)]
        assert found, cls.__name__
        for arr in found:
            assert not arr.flags.writeable, cls.__name__


def caller_arrays(cls):
    """An instance of cls built from fresh arrays, and those arrays (the caller's)."""
    rng = np.random.default_rng(9)
    mats = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    if cls is mk.SchurParameter:
        given = [random_contraction(rng, (2, 2))]
        return cls(*given), given
    if cls is mk.NevanlinnaValue:
        given = [mats[0]]
        return cls(z=0.5j, R=given[0]), given
    if cls is mk.IntervalMass:
        given = [mats[0]]
        return cls(a=-1.0, b=1.0, increment=given[0], per_eps=(), converged=True), given
    if cls is mk.ReconstructedDistribution:
        given = [np.linspace(-1.0, 1.0, 5), mats]
        return cls(*given, epsilon_schedule=(1e-2,), converged=(True,) * 4), given
    if cls is mk.DiscreteMatrixMeasure:
        given = [np.linspace(-1.0, 1.0, 4), mats @ mats.conj().swapaxes(1, 2)]
        return cls(*given), given
    given = [mk.generate_from_measure(random_measure(rng, 2, 3), 4).moments.copy()]
    return cls(*given), given  # MomentSequence, whose symmetrizing copies: the guard


@pytest.mark.parametrize("cls", [mk.SchurParameter, mk.NevanlinnaValue, mk.IntervalMass,
                                 mk.ReconstructedDistribution, mk.DiscreteMatrixMeasure,
                                 mk.MomentSequence], ids=lambda cls: cls.__name__)
def test_value_types_own_their_arrays(cls):
    value, given = caller_arrays(cls)
    held = {name: arr.copy() for name, arr in vars(value).items() if isinstance(arr, np.ndarray)}
    for arr in given:
        assert arr.flags.writeable
        arr[...] = 7.0
    for name, arr in held.items():
        assert np.array_equal(getattr(value, name), arr), name


@pytest.mark.parametrize("written", [np.nan, -1.0])  # -1 repeats node 0
def test_measure_keeps_its_validated_nodes(written):
    nodes = np.array([-1.0, 0.0, 1.0])
    mu = mk.DiscreteMatrixMeasure(nodes, np.ones(3))
    nodes[1] = written
    assert mu.nodes.tolist() == [-1.0, 0.0, 1.0]
