"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines on a passing suite.
"""

import numpy as np
import pytest

import momentkit as mk
from momentkit.cayley import resolvent_link_check
from momentkit.nevanlinna import blocks, direct_oracle, frobenius_topleft
from conftest import (
    hermite_moments,
    point_mass_model,
    random_contraction,
    random_model,
    random_unitary,
    random_upper_z,
    random_vector,
)
from test_nevanlinna import dense_topleft, extension_oracle
from test_reconstruct import arctan_mass


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def gaussian():
    return mk.build_model(mk.MomentSequence(hermite_moments(6)))


def c_plus_grid(count=50):
    res = np.linspace(-3.0, 3.0, 10)
    ims = np.linspace(0.2, 3.0, count // 10)
    return [complex(re, im) for re in res for im in ims]


def test_criterion_1_point_mass_exactness():
    worst = 0.0
    for t0 in (0.0, 2.0, -3.0):
        model, _ = point_mass_model(t0, order=4)
        assert model.defect_dims == (0, 0)
        ev = model.evaluator()  # empty parameter forced by the defect dims
        for z in c_plus_grid():
            worst = max(worst, abs(ev(z)[0, 0] - 1.0 / (t0 - z)))
    ok = worst <= 1e-10
    assert report(1, ok, f"point-mass transform max error {worst:.3e} <= 1e-10")


def test_criterion_2_frobenius_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 3))
        model = random_model(
            rng,
            d=d,
            num_nodes=int(rng.integers(2, 5)),
            order=2 * int(rng.integers(2, 4)),
        )
        p = mk.SchurParameter(random_contraction(rng, model.defect_dims[::-1]))
        z = random_upper_z(rng)
        top = frobenius_topleft(blocks(model.cayley, p, z))
        oracle, inv = dense_topleft(model, p, z)
        worst = max(
            worst,
            np.linalg.norm(top - oracle, 2) / max(1.0, np.linalg.norm(inv, 2)),
        )
    ok = worst <= 1e-10
    assert report(2, ok, f"block inversion vs dense inverse, relative {worst:.3e}")


def test_criterion_3_resolvent_link(gaussian):
    rng = np.random.default_rng(3)
    d2_model = random_model(rng, d=2, num_nodes=4, order=4)
    worst = 0.0
    checked = 0
    for k in range(20):
        model = gaussian if k % 2 == 0 else d2_model
        d_plus = model.defect_dims[0]
        # resample the (measure-zero) degenerate parameters where U - 1 is
        # singular and no in-space transform exists
        for _ in range(20):
            p = mk.SchurParameter(random_unitary(rng, d_plus))
            try:
                for _ in range(20):
                    z = random_upper_z(rng)
                    worst = max(worst, resolvent_link_check(model.cayley, p, z))
                checked += 1
                break
            except mk.ConditioningError:
                continue
    ok = checked == 20 and worst <= 1e-8
    assert report(
        3, ok, f"{checked}/20 unitary parameters, link residual {worst:.3e} <= 1e-8"
    )


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(4)
    worst_pair = 0.0
    worst_ext = 0.0
    samples = ext_samples = 0
    while samples < 100:
        d = int(rng.integers(1, 3))
        model = random_model(
            rng,
            d=d,
            num_nodes=int(rng.integers(2, 5)),
            order=2 * int(rng.integers(2, 4)),
        )
        d_plus, d_minus = model.defect_dims
        unitary = d_plus > 0 and rng.uniform() < 0.4
        if unitary:
            p = mk.SchurParameter(random_unitary(rng, d_plus))
        else:
            p = mk.SchurParameter(random_contraction(rng, (d_minus, d_plus)))
        ev = model.evaluator(p)
        for _ in range(4):
            z = random_upper_z(rng)
            h = random_vector(rng, d)
            form = complex(np.vdot(h, ev(z) @ h))
            oracle = direct_oracle(model.cayley, p, model.moments, z, h)
            worst_pair = max(worst_pair, abs(form - oracle) / max(1.0, abs(form)))
            samples += 1
            if unitary or model.determinate:
                try:
                    ext = extension_oracle(model, p, z, h)
                except mk.ConditioningError:
                    continue  # degenerate parameter: no in-space extension
                worst_ext = max(worst_ext, abs(form - ext) / max(1.0, abs(form)))
                ext_samples += 1
    ok = worst_pair <= 1e-10 and worst_ext <= 1e-9 and ext_samples >= 10
    assert report(
        4,
        ok,
        f"form vs dense {worst_pair:.3e} <= 1e-10 on {samples} samples; "
        f"vs extension {worst_ext:.3e} <= 1e-9 on {ext_samples}",
    )


def test_criterion_5_herglotz_and_normalization(gaussian):
    rng = np.random.default_rng(5)
    delta2, _ = point_mass_model(2.0, order=4)
    d2_model = random_model(rng, d=2, num_nodes=4, order=4)
    cases = [
        (gaussian, mk.SchurParameter([[0.3 - 0.4j]])),
        (gaussian, mk.SchurParameter.scalar_unitary(np.pi / 2, (1, 1))),
        (gaussian, mk.SchurParameter.scalar_unitary(np.pi, (1, 1))),
        (delta2, mk.SchurParameter.zero((0, 0))),
        (d2_model, mk.SchurParameter(random_contraction(rng, d2_model.defect_dims[::-1]))),
    ]
    min_eig = np.inf
    worst_norm = 0.0
    for model, p in cases:
        ev = model.evaluator(p)
        zs = [complex(rng.uniform(-4, 4), rng.uniform(0.05, 10)) for _ in range(100)]
        rep = mk.herglotz_check([ev.value(z) for z in zs])
        min_eig = min(min_eig, rep.min_imag_eigenvalue)
        y = 1e4
        worst_norm = max(
            worst_norm,
            float(np.linalg.norm(-1j * y * ev(1j * y) - model.moments.moment(0), 2)),
        )
    ok = min_eig >= -1e-8 and worst_norm <= 1e-3
    assert report(
        5,
        ok,
        f"min Im-eigenvalue {min_eig:.3e} >= -1e-8; "
        f"||-iy R(iy) - S_0|| {worst_norm:.3e} <= 1e-3 at y=1e4",
    )


def test_criterion_6_moment_reproduction(gaussian):
    worst_fit = 0.0
    for theta in (0.0, np.pi / 2, np.pi):
        p = mk.SchurParameter.scalar_unitary(theta, (1, 1))
        fit = mk.asymptotic_moments(
            gaussian.evaluator(p), 4, np.geomspace(1e2, 1e4, 12)
        )
        for k in range(3):
            worst_fit = max(
                worst_fit,
                float(np.abs(fit.estimates[k] - gaussian.moments.moment(k)).max()),
            )
    # determinate inputs: exact recovery of every supplied moment
    rng = np.random.default_rng(6)
    determinate_inputs = [
        mk.generate_from_measure(mk.DiscreteMatrixMeasure.point_mass(2.0, [[1.0]]), 4),
        mk.generate_from_measure(
            mk.DiscreteMatrixMeasure([-1.0, 1.0], [[[0.5]], [[0.5]]]), 4
        ),
        mk.generate_from_measure(
            mk.DiscreteMatrixMeasure(
                [-1.0, 1.0, 2.0],
                [np.diag([0.0, 0.5]), np.diag([0.0, 0.5]), np.diag([1.0, 0.0])],
            ),
            4,
        ),
    ]
    worst_rec = 0.0
    for m in determinate_inputs:
        model = mk.build_model(m)
        assert model.determinate
        mu = mk.recover_discrete(model.space, model.cayley, model.embed_i)
        for k in range(m.order + 1):
            worst_rec = max(
                worst_rec, float(np.abs(mu.moment(k) - m.moment(k)).max())
            )
    ok = worst_fit <= 1e-3 and worst_rec <= 1e-8
    assert report(
        6,
        ok,
        f"asymptotic S_0..S_2 error {worst_fit:.3e} <= 1e-3; "
        f"determinate recovery error {worst_rec:.3e} <= 1e-8",
    )


def test_criterion_7_parameter_distinctness(gaussian):
    r_zero = gaussian.evaluator(mk.SchurParameter.scalar_unitary(0.0, (1, 1)))(2j)
    r_pi = gaussian.evaluator(mk.SchurParameter.scalar_unitary(np.pi, (1, 1)))(2j)
    gap = float(np.abs(r_zero - r_pi).max())
    ok = gap > 1e-3
    assert report(7, ok, f"|R_theta=0(2i) - R_theta=pi(2i)| = {gap:.3e} > 1e-3")


def test_criterion_8_stieltjes_perron():
    model, _ = point_mass_model(2.0, order=4)
    result = mk.stieltjes_perron(model.evaluator(), 1.5, 2.5)
    worst_pre = max(
        abs(value[0, 0].real - arctan_mass(2.0, 1.5, 2.5, eps))
        for eps, value in result.per_eps
    )
    post = abs(result.increment[0, 0].real - 1.0)
    ok = worst_pre <= 1e-2 and post <= 1e-3
    assert report(
        8,
        ok,
        f"per-epsilon vs arctan {worst_pre:.3e} <= 1e-2; "
        f"extrapolated vs true mass {post:.3e} <= 1e-3",
    )


def test_criterion_9_isometry_bridge():
    pairs = [
        (
            mk.MomentSequence([1.0, 0.0, 1.0, 0.0, 3.0]),
            mk.DiscreteMatrixMeasure(
                [-np.sqrt(3.0), 0.0, np.sqrt(3.0)],
                [[[1.0 / 6.0]], [[2.0 / 3.0]], [[1.0 / 6.0]]],
            ),
        ),
        (
            mk.MomentSequence([1.0, 2.0, 4.0]),
            mk.DiscreteMatrixMeasure.point_mass(2.0, [[1.0]]),
        ),
        (
            mk.MomentSequence([1.0, 1.0, 1.0]),  # degenerate rank-one pair
            mk.DiscreteMatrixMeasure.point_mass(1.0, [[1.0]]),
        ),
    ]
    worst = max(mk.w0_isometry_check(m, mu) for m, mu in pairs)
    ok = worst <= 1e-10
    assert report(9, ok, f"polynomial isometry residual {worst:.3e} <= 1e-10")
