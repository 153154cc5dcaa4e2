import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentkit as mk
from momentkit import _linalg, cayley, gramspace
from conftest import random_measure


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
    @settings(max_examples=300, deadline=None)
    @given(offset=st.floats(-1e-3, 1e-3), **shapes)
    def test_verdict_near_the_bound(self, seed, rows, cols, rank, log_bound, offset):
        bound = 10.0**log_bound
        mat = scaled_matrix(seed, rows, cols, min(rank, rows, cols), bound * (1.0 + offset))
        assert (_linalg.gate_norm(mat, bound) > bound) == (_linalg.norm2(mat) > bound)

    @settings(max_examples=300, deadline=None)
    @given(log_ratio=st.floats(-6.0, 3.0), **shapes)
    def test_verdict_and_value_across_scales(self, seed, rows, cols, rank, log_bound,
                                             log_ratio):
        bound = 10.0**log_bound
        mat = scaled_matrix(seed, rows, cols, min(rank, rows, cols), bound * 10.0**log_ratio)
        exact = _linalg.norm2(mat)
        value = _linalg.gate_norm(mat, bound)
        assert (value > bound) == (exact > bound)
        # either the exact 2-norm or a Frobenius norm (an upper bound on it,
        # up to rounding: equal at rank 1) that passes the gate
        assert value == exact or (exact <= value * (1.0 + 1e-12) and value <= 0.5 * bound)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry_fails(self, bad):
        mat = np.zeros((3, 2), dtype=complex)
        mat[2, 1] = bad
        assert _linalg.gate_norm(mat, 1e-8) == np.inf
        assert _linalg.gate_norm(mat, np.inf) == np.inf

    def test_empty_passes(self):
        assert _linalg.gate_norm(np.zeros((0, 3)), 1e-8) == 0.0

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
        exact = lambda mat, bound: _linalg.norm2(mat)  # noqa: E731
        monkeypatch.setattr(gramspace, "gate_norm", exact)
        monkeypatch.setattr(cayley, "gate_norm", exact)
        assert outcomes() == settled
        messages = {o[1].split(" (")[0] for o in settled if o != "built"}
        assert messages == {
            "truncated sequence not shift-consistent",
            "shift operator not symmetric on its domain",
            "Cayley transform is not isometric on M_i",
        }
