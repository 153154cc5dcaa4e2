"""Seeded inputs for the benchmark workloads.

Everything here is plain numpy: measures, their moments, Schur parameter
specs and evaluation grids are made from the seed alone, and the library
only ever receives the resulting arrays.  The same seed gives the same
inputs.
"""

import math

import numpy as np

NODE_SPREAD = 2.0  # nodes are drawn from [-2, 2], as in the test suite
NEAR_I_RADII = (1e-2, 1e-4, 1.01e-6)


class Fixture:
    """A discrete measure, its moments and the model shape it must produce."""

    def __init__(self, name, nodes, weights, order, rank, defect):
        self.name = name
        self.nodes = np.asarray(nodes, dtype=float)
        self.weights = np.asarray(weights, dtype=complex)
        self.order = order
        self.rank = rank
        self.defect = defect
        self.moments = moments_of(self.nodes, self.weights, order)

    @property
    def dim(self):
        return self.weights.shape[1]

    def shape(self):
        return (self.dim, self.order, self.rank, self.defect)


def moments_of(nodes, weights, order):
    """S_k = sum_j t_j^k W_j for k = 0..order."""
    powers = nodes[None, :] ** np.arange(order + 1)[:, None]
    return np.einsum("kj,jab->kab", powers, weights)


def random_psd(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T / d


def random_measure(rng, d, num_nodes):
    nodes = np.sort(rng.uniform(-NODE_SPREAD, NODE_SPREAD, num_nodes))
    nodes = nodes + 1e-2 * np.arange(num_nodes)  # strictly increasing
    return nodes, np.stack([random_psd(rng, d) for _ in range(num_nodes)])


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_contraction(rng, n, max_norm=0.9):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (max_norm * rng.uniform(0.1, 1.0)) * g / np.linalg.norm(g, 2)


def gaussian_moments(order):
    """Standard Gaussian: S_k = (k-1)!! for even k, 0 for odd k."""
    return np.array(
        [0.0 if k % 2 else float(math.prod(range(k - 1, 0, -2))) for k in range(order + 1)]
    ).reshape(-1, 1, 1)


def envelope(seed):
    """The four envelope fixtures, keyed by name.

    The Gaussian has no measure here (its moments are exact); the others
    are seeded discrete measures.
    """
    rng = np.random.default_rng([seed, 1])
    t0, w0 = rng.uniform(-1.5, 1.5), rng.uniform(0.5, 2.0)
    gauss = Fixture("gauss_d1_2n6", [], np.zeros((0, 1, 1)), 6, 4, (1, 1))
    gauss.moments = gaussian_moments(6)
    return {
        "point_mass": Fixture("point_mass_d1_2n4", [t0], [[[w0]]], 4, 1, (0, 0)),
        "gauss": gauss,
        "d2": Fixture("random_d2_2n8", *random_measure(rng, 2, 8), 8, 10, (2, 2)),
        "d4": Fixture("random_d4_2n12", *random_measure(rng, 4, 40), 12, 28, (4, 4)),
    }


def near_i_probes(rng):
    """Points at the three distances from i, at seeded angles."""
    return [1j + r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) for r in NEAR_I_RADII]


class ModelInput:
    """One moment sequence of the `models` workload with its intended kind.

    `kind` is "determinate", "indeterminate", "indefinite" or
    "non_hermitian"; `phi` is ("zero",), ("unitary", theta),
    ("contraction", matrix) or ("none",) for determinate and invalid
    inputs.
    """

    def __init__(self, kind, dim, order, nodes, weights, moments, phi, seed):
        self.kind = kind
        self.dim = dim
        self.order = order
        self.nodes = nodes
        self.weights = weights
        self.moments = moments
        self.phi = phi
        self.seed = seed

    @property
    def valid(self):
        return self.kind in ("determinate", "indeterminate")


DIMS = (1, 2, 3, 4)
ORDERS = (4, 6, 8, 10, 12)
PHI_KINDS = ("zero", "unitary", "contraction")


def model_pool(seed):
    """The sequences of one `models` round: 100 inputs, stratified.

    For every (d, 2n) with d in 1..4 and 2n in 4..12: one determinate
    sequence (n full-rank nodes, so the shift is defined on the whole
    space), three indeterminate ones (n+1+d nodes) with a zero,
    a unitary and a strict-contraction parameter, and one invalid one,
    alternately with an indefinite block Hankel matrix and with a
    non-Hermitian moment.  Each input is independent of the library.
    """
    rng = np.random.default_rng([seed, 2])
    pool = []
    for d in DIMS:
        for order in ORDERS:
            n = order // 2
            plan = [("determinate", ("none",))]
            plan += [("indeterminate", (k,)) for k in PHI_KINDS]
            invalid = "indefinite" if (d + n) % 2 == 0 else "non_hermitian"
            plan.append((invalid, ("none",)))
            for kind, phi in plan:
                # node counts are fixed per stratum so that the cost of a
                # round does not depend on the seed
                count = n if kind == "determinate" else n + 1 + d
                nodes, weights = random_measure(rng, d, count)
                moments = moments_of(nodes, weights, order)
                if kind == "indefinite":
                    # push the last diagonal block well below zero
                    top = float(np.linalg.norm(moments[order], 2))
                    moments[order] = moments[order] - 1.5 * top * np.eye(d)
                elif kind == "non_hermitian":
                    k = int(rng.integers(1, order + 1))
                    skew = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    skew = skew - skew.conj().T
                    scale = 1e-3 * (1.0 + float(np.linalg.norm(moments[k])))
                    moments[k] = moments[k] + scale * skew / np.linalg.norm(skew)
                if phi[0] == "unitary":
                    phi = ("unitary", float(rng.uniform(0.0, 2.0 * np.pi)))
                elif phi[0] == "contraction":
                    phi = ("contraction", random_contraction(rng, d))
                pool.append(
                    ModelInput(kind, d, order, nodes, weights, moments, phi,
                               int(rng.integers(2**31)))
                )
    return pool


def census(pool):
    """Counts of each input property over the pool, with the base."""
    base = len(pool)
    out = {"base": base}
    for label, key in (
        ("kind", lambda x: x.kind),
        ("phi", lambda x: x.phi[0]),
        ("d", lambda x: f"d={x.dim}"),
        ("2n", lambda x: f"2n={x.order}"),
    ):
        counts = {}
        for x in pool:
            counts[key(x)] = counts.get(key(x), 0) + 1
        out[label] = dict(sorted(counts.items()))
    return out
