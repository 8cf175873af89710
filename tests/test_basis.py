import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gupbic import characteristic_roots, exact_constant_basis
from gupbic.basis import (
    AsymptoticClass,
    ExponentialBasisFunction,
    Side,
    TrigBasisFunction,
    WkbParameters,
    classify_asymptotics,
    map_regions,
    wkb_basis,
)
from gupbic.errors import (
    BasisOverflowError,
    ComplexQuartetError,
    DegenerateBasisError,
    UnsupportedEpsilonError,
    ValidityError,
)

EPS_REFERENCE = 7.414144781404543e-2
WALLS = (-1.0, 1.0)


class TestCharacteristicRoots:
    def test_zero_gap_roots(self):
        r = characteristic_roots(0.04, 0.0)
        assert r.kappa == 0.0
        assert r.mu1 == pytest.approx(1.0 / math.sqrt(0.04), rel=1e-14)
        assert r.mu2 == -r.mu1

    def test_reference_ground_level_roots(self):
        r = characteristic_roots(EPS_REFERENCE, 2.9186)
        assert r.kappa == pytest.approx(1.5708, abs=2e-4)
        assert r.mu1 == pytest.approx(3.994, abs=2e-3)

    def test_cross_check_polynomial_solver(self):
        # independent route: numpy companion-matrix roots of eps z^2 - z - q in z = mu^2
        for eps, q in [(EPS_REFERENCE, 2.9186), (0.5, 7.0), (2.0, 0.3)]:
            r = characteristic_roots(eps, q)
            z_roots = np.roots([eps, -1.0, -q])
            mu_sq = sorted(z_roots)
            assert r.mu1**2 == pytest.approx(max(mu_sq), rel=1e-12)
            assert -(r.kappa**2) == pytest.approx(min(mu_sq), rel=1e-12)

    def test_small_epsilon_limit(self):
        e = 3.7
        for eps in (1e-6, 1e-8):
            r = characteristic_roots(eps, e)
            assert r.kappa == pytest.approx(math.sqrt(e), rel=10 * eps)
            assert r.mu1 == pytest.approx(1.0 / math.sqrt(eps), rel=10 * eps * e)

    def test_forbidden_gap_gives_real_pair(self):
        r = characteristic_roots(0.1, -1.5)
        assert r.kappa == 0.0
        assert r.nu > 0.0
        assert r.quartic_residual(r.nu) < 1e-12

    def test_epsilon_zero_unsupported(self):
        with pytest.raises(UnsupportedEpsilonError):
            characteristic_roots(0.0, 1.0)

    def test_complex_quartet_reported(self):
        with pytest.raises(ComplexQuartetError):
            characteristic_roots(0.1, -10.0)

    @given(
        eps=st.floats(min_value=1e-6, max_value=10.0),
        q=st.floats(min_value=-0.01, max_value=50.0),
    )
    @settings(max_examples=1000, deadline=None)
    def test_quartic_residual_property(self, eps, q):
        if 1.0 + 4.0 * eps * q < 0.0:
            return
        r = characteristic_roots(eps, q)
        roots = r.all_roots()
        # parity: the multiset is symmetric under mu -> -mu
        assert sorted(np.round(roots, 12).tolist(), key=lambda z: (z.real, z.imag)) == sorted(
            np.round(-roots, 12).tolist(), key=lambda z: (z.real, z.imag)
        )
        for mu in roots:
            assert r.quartic_residual(mu) < 1e-11


@pytest.fixture(scope="module")
def basis_and_roots():
    r = characteristic_roots(EPS_REFERENCE, 2.918779290241783)
    return r, exact_constant_basis(r, WALLS)


class TestExactBasis:

    def test_ode_residual_at_points(self, basis_and_roots):
        r, basis = basis_and_roots
        for f in basis:
            for x in (-1.0, 0.0, 1.0):
                d = f.derivatives(x, order=4)
                res = EPS_REFERENCE * d[4] - d[2] - r.e_minus_v * d[0]
                scale = abs(EPS_REFERENCE * d[4]) + abs(d[2]) + abs(r.e_minus_v * d[0]) + 1e-300
                assert abs(res) / scale < 1e-12

    def test_wronskian_nonzero_at_origin(self, basis_and_roots):
        r, basis = basis_and_roots
        m = np.array([f.derivatives(0.0, order=3) for f in basis]).T
        w = np.linalg.det(m)
        # direct determinant, cross-checked against the root-product form; the
        # wall anchors scale the exponential pair by exp(-mu1 (hi - lo)) in all
        lo, hi = WALLS
        expected = (
            2.0 * r.mu1 * r.kappa * (r.mu1**2 + r.kappa**2) ** 2 * math.exp(-r.mu1 * (hi - lo))
        )
        assert abs(w) == pytest.approx(expected, rel=1e-12)
        assert abs(w) > 1.0

    def test_asymptotic_classes(self, basis_and_roots):
        _, basis = basis_and_roots
        assert basis[0].asymptotic_class(Side.PLUS_INFINITY) is AsymptoticClass.GROWING
        assert basis[1].asymptotic_class(Side.PLUS_INFINITY) is AsymptoticClass.DECAYING
        assert basis[0].asymptotic_class(Side.MINUS_INFINITY) is AsymptoticClass.DECAYING
        assert basis[2].asymptotic_class(Side.PLUS_INFINITY) is AsymptoticClass.OSCILLATORY
        assert basis[3].asymptotic_class(Side.MINUS_INFINITY) is AsymptoticClass.OSCILLATORY

    def test_small_beta_limit_matches_standard_well(self):
        # kappa -> sqrt(e): the oscillatory pair converges pointwise
        e = 2.467401100272340  # (pi/2)^2
        for eps in (1e-5, 1e-7):
            r = characteristic_roots(eps, e)
            basis = exact_constant_basis(r, WALLS)
            for x in np.linspace(-1, 1, 7):
                assert basis[2].value(x) == pytest.approx(
                    math.cos(math.sqrt(e) * x), abs=5e-4 * (eps / 1e-5) ** 0.5 + 1e-9
                )

    def test_degenerate_kappa_rejected(self):
        r = characteristic_roots(0.1, 0.0)
        with pytest.raises(DegenerateBasisError):
            exact_constant_basis(r, WALLS)

    def test_overflow_flagged(self):
        f = ExponentialBasisFunction(rate=10.0, index=1)
        with pytest.raises(BasisOverflowError):
            f.derivatives(100.0)
        assert f.log_abs(100.0) == pytest.approx(1000.0)


class TestWkbBasis:
    def test_eta_and_coefficients(self, well_problem):
        params = WkbParameters.from_problem(well_problem, 2.9, x0=0.0)
        eps = well_problem.epsilon
        assert params.eta == pytest.approx((2.0 / eps) ** 0.25, rel=1e-14)
        assert params.a_coef == pytest.approx(params.eta**2 / 4.0, rel=1e-14)
        assert params.b(0.3) == pytest.approx(-2.9 / 2.0, rel=1e-14)

    def test_scaled_branch_rates_match_roots(self, well_problem):
        # eta*lam_j at constant potential reproduces the characteristic roots
        e = 5.5
        params = WkbParameters.from_problem(well_problem, e, x0=0.0)
        roots = characteristic_roots(well_problem.epsilon, e)
        w1 = wkb_basis(params, 1, (-1.0, 1.0))
        w3 = wkb_basis(params, 3, (-1.0, 1.0))
        assert params.eta * w1.lam(0.2) == pytest.approx(roots.mu1, rel=1e-13)
        assert params.eta * w3.lam(0.2) == pytest.approx(1j * roots.kappa, rel=1e-13)

    def test_constant_potential_reduces_to_exact(self, well_problem):
        e = 2.918779290241783
        params = WkbParameters.from_problem(well_problem, e, x0=0.0)
        roots = characteristic_roots(well_problem.epsilon, e)
        targets = {1: roots.mu1, 2: -roots.mu1, 3: 1j * roots.kappa, 4: -1j * roots.kappa}
        for j, rate in targets.items():
            w = wkb_basis(params, j, (-1.0, 1.0))
            ratios = [w.value(x) * cmath.exp(-rate * x) for x in (-0.9, -0.4, 0.1, 0.8)]
            for r in ratios[1:]:
                assert abs(r / ratios[0] - 1.0) < 1e-10

    def test_quartic_residual_of_local_rates(self, linear_problem):
        e = 2.0
        params = WkbParameters.from_problem(linear_problem, e, x0=0.5)
        rmap = map_regions(params, 0.0, 10.0)
        w1 = wkb_basis(params, 1, (0.0, rmap.s_zeros[0] - 0.05), region_map=rmap)
        eps = linear_problem.epsilon
        for x in (0.3, 1.2, 3.0, 4.5):
            mu = params.eta * w1.lam(x)
            q = e - linear_problem.v_derivs(x)[0]
            res = eps * mu**4 - mu**2 - q
            assert abs(res) / (abs(eps * mu**4) + abs(mu**2) + abs(q)) < 1e-11

    def test_derivatives_match_finite_differences(self, linear_problem):
        e = 2.0
        params = WkbParameters.from_problem(linear_problem, e, x0=3.2)
        rmap = map_regions(params, 2.6, 4.0)
        rng = np.random.default_rng(3)
        h1, h2 = 1e-5, 1e-4  # h2 larger: second differences hit roundoff ~eps/h^2
        for j in (1, 2, 3, 4):
            w = wkb_basis(params, j, (2.6, 4.0), region_map=rmap)
            for x in rng.uniform(2.8, 3.8, size=13):
                d = w.derivatives(x, order=2)
                fd1 = (w.value(x + h1) - w.value(x - h1)) / (2 * h1)
                fd2 = (w.value(x + h2) - 2 * w.value(x) + w.value(x - h2)) / h2**2
                assert abs(d[1] - fd1) / abs(fd1) < 1e-6
                assert abs(d[2] - fd2) / abs(fd2) < 1e-6

    def test_linear_decaying_branches(self, linear_problem):
        # toward +inf, branches 2 and 4 decay; 1 and 3 grow
        from gupbic.matcher import wkb_assembly

        asm = wkb_assembly(linear_problem, 2.0)
        classes = {j: f.asymptotic_class(Side.PLUS_INFINITY) for j, f in enumerate(asm.far_basis, 1)}
        assert classes[1] is AsymptoticClass.GROWING
        assert classes[2] is AsymptoticClass.DECAYING
        assert classes[3] is AsymptoticClass.GROWING
        assert classes[4] is AsymptoticClass.DECAYING

    def test_turning_point_inside_interval_rejected(self, linear_problem):
        e = 2.0
        params = WkbParameters.from_problem(linear_problem, e, x0=1.0)
        rmap = map_regions(params, 0.0, 10.0)
        s_zero = rmap.s_zeros[0]
        with pytest.raises(ValidityError, match="turning point"):
            wkb_basis(params, 1, (s_zero - 1.0, s_zero + 1.0), region_map=rmap)

    def test_window_evaluation_rejected(self, linear_problem):
        e = 2.0
        params = WkbParameters.from_problem(linear_problem, e, x0=0.5)
        rmap = map_regions(params, 0.0, 3.5)
        w4 = wkb_basis(params, 4, (0.0, 3.5), region_map=rmap)
        x_t = rmap.b_zeros[0]
        with pytest.raises(ValidityError, match="window"):
            w4.value(x_t + 0.01)
        # but the same branch is evaluable on both sides with one normalization
        assert np.isfinite(w4.value(x_t - 0.5).real)
        assert np.isfinite(w4.value(x_t + 0.5).real)

    def test_fast_branch_crosses_classical_turning_point(self, linear_problem):
        e = 2.0
        params = WkbParameters.from_problem(linear_problem, e, x0=0.5)
        rmap = map_regions(params, 0.0, 3.5)
        w2 = wkb_basis(params, 2, (0.0, 3.5), region_map=rmap)
        assert w2.windows == ()
        x_t = rmap.b_zeros[0]
        assert np.isfinite(w2.value(x_t).real)


def test_region_map_pieces(linear_problem):
    # validity pieces split at branch-degeneracy points, shrunk by the margin
    params = WkbParameters.from_problem(linear_problem, 2.0, x0=1.0)
    rmap = map_regions(params, 0.0, 10.0)
    assert len(rmap.s_zeros) == 1
    pieces = rmap.pieces()
    assert len(pieces) == 2
    z = rmap.s_zeros[0]
    assert pieces[0][1] == pytest.approx(z - 0.05)
    assert pieces[1][0] == pytest.approx(z + 0.05)


def test_windowed_classification_does_not_crash(linear_problem):
    # classifying a slow branch on a piece containing its turning window
    # must skip the windowed samples instead of raising
    params = WkbParameters.from_problem(linear_problem, 2.0, x0=0.5)
    rmap = map_regions(params, 0.0, 3.9)
    w4 = wkb_basis(params, 4, (0.0, 3.9), region_map=rmap)
    assert w4.windows != ()
    cls = w4.asymptotic_class(Side.PLUS_INFINITY)
    assert cls in (AsymptoticClass.DECAYING, AsymptoticClass.UNDEFINED)


def test_concurrent_evaluation_matches_serial(linear_problem):
    # quadrature caches are lock-guarded: threaded evaluation must reproduce
    # the serial values exactly
    from concurrent.futures import ThreadPoolExecutor

    e = 2.0
    xs = list(np.linspace(2.6, 3.8, 40))
    params = WkbParameters.from_problem(linear_problem, e, x0=3.2)
    rmap = map_regions(params, 2.5, 3.9)
    serial = wkb_basis(params, 2, (2.5, 3.9), region_map=rmap)
    serial_vals = [serial.value(x) for x in xs]

    threaded = wkb_basis(params, 2, (2.5, 3.9), region_map=rmap)
    shuffled = list(np.random.default_rng(0).permutation(xs))
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(threaded.value, shuffled))
    threaded_vals = [threaded.value(x) for x in xs]
    assert np.allclose(serial_vals, threaded_vals, rtol=1e-12, atol=1e-300)


class TestClassification:
    def test_growing_exponential(self):
        f = ExponentialBasisFunction(rate=2.0, index=1)
        assert classify_asymptotics(f, Side.PLUS_INFINITY, [0, 1, 2, 3]) is AsymptoticClass.GROWING
        assert classify_asymptotics(f, Side.MINUS_INFINITY, [0, -1, -2, -3]) is AsymptoticClass.DECAYING

    def test_oscillatory_trig(self):
        f = TrigBasisFunction(kappa=1.5708, phase="cos", index=3)
        probes = list(np.linspace(0.1, 8.0, 9))
        assert classify_asymptotics(f, Side.PLUS_INFINITY, probes) is AsymptoticClass.OSCILLATORY

    def test_undefined_for_slow_growth(self):
        f = ExponentialBasisFunction(rate=0.1, index=1)
        assert classify_asymptotics(f, Side.PLUS_INFINITY, [0.0, 0.5, 1.0]) is AsymptoticClass.UNDEFINED

    def test_probe_validation(self):
        f = ExponentialBasisFunction(rate=1.0, index=1)
        with pytest.raises(ValueError, match="increase"):
            classify_asymptotics(f, Side.PLUS_INFINITY, [1.0, 0.0])
        with pytest.raises(ValueError, match="two probe"):
            classify_asymptotics(f, Side.PLUS_INFINITY, [1.0])
