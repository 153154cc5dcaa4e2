"""Pieces shared by the workloads: the op record and outcome classes."""

import os

import numpy as np


class WrongValue(Exception):
    """The library returned a value the reference says is wrong."""


class Inaccurate(Exception):
    """A value outside the library's stated accuracy bound, but within
    WRONG_FACTOR times it: the op fails, the output is not called wrong."""


WRONG_FACTOR = 100.0


def bounded(err, bound, what):
    """Return err; raise Inaccurate or WrongValue when it passes bound."""
    if err > WRONG_FACTOR * bound:
        raise WrongValue(f"{what}: {err:.3e} > {WRONG_FACTOR:g} x {bound:g}")
    if err > bound:
        raise Inaccurate(f"{what}: {err:.3e} > {bound:g}")
    return err


class Op:
    """One closed-loop operation of a workload.

    `run()` makes the library calls and is the only part timed.  `check`
    takes its result and returns a dict of error figures, or raises
    WrongValue.  `expect` names the exception an invalid input must raise;
    it is None for valid inputs.  `points` is the nominal number of
    transform points, fixed by the op's inputs.
    """

    __slots__ = ("label", "points", "run", "check", "expect")

    def __init__(self, label, points, run, check=None, expect=None):
        self.label = label
        self.points = points
        self.run = run
        self.check = check
        self.expect = expect


class Work:
    """What a workload's set-up hands to the runner."""

    def __init__(self, ops, census, fixtures):
        self.ops = ops
        self.census = census
        self.fixtures = fixtures


def child_env(src):
    """os.environ with `src` first on PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    rest = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([src] + rest)
    return env


def rel_err(value, ref):
    """max |value - ref| relative to max(1, max |ref|)."""
    value, ref = np.asarray(value), np.asarray(ref)
    return float(np.abs(value - ref).max()) / max(1.0, float(np.abs(ref).max()))


def fixture_line(fixture, model):
    """Assert a fixture built the model shape it was made for; describe it."""
    got = (model.moments.dim, model.moments.order, model.space.rank,
           tuple(model.defect_dims))
    if got != fixture.shape():
        raise WrongValue(
            f"fixture {fixture.name}: (d, 2n, rank, defect) = {got}, "
            f"expected {fixture.shape()}"
        )
    d, order, rank, defect = got
    return f"{fixture.name}: d={d} 2n={order} rank={rank} defect={defect}"


def atoms_of(mk, model, phi):
    """Exact atoms of the canonical solution for a unitary (or empty) phi.

    Nodes are the eigenvalues of the inverse Cayley transform A~ of
    U = V + Phi; weights are I* P_j I with I the degree-0 embedding.
    """
    u = mk.unitary_extension(model.cayley, phi)
    a_tilde = mk.inverse_cayley(u)
    nodes, vecs = np.linalg.eigh(0.5 * (a_tilde + a_tilde.conj().T))
    coeff = vecs.conj().T @ model.embed_i.matrix  # (m, d)
    weights = np.einsum("ja,jb->jab", coeff.conj(), coeff)
    return nodes, weights


def transform_of_atoms(nodes, weights, z):
    """R(z) = sum_j W_j / (t_j - z)."""
    return np.einsum("j,jab->ab", 1.0 / (nodes - z), weights)
