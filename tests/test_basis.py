import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gupbic.basis
from gupbic import characteristic_roots, exact_constant_basis, nondimensionalize
from gupbic.basis import (
    AsymptoticClass,
    ExponentialBasisFunction,
    Side,
    TrigBasisFunction,
    WkbParameters,
    classify_asymptotics,
    find_zeros,
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
from gupbic.matcher import wkb_assembly
from gupbic.spectrum import dof_scan
from gupbic.verification import harmonic_setup_for, linear_setup_for

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
    # exponent(x) depends on x alone (fixed panels from x0; the table of panel
    # sums is replaced whole, never edited in place): threaded, shuffled
    # evaluation must reproduce the serial values
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


# --- the array-valued exponent layer against independent references ------------


def _reference_exponent(w, x):
    """log w_j(x) from scipy quad over the textbook WKB integrands.

    lam_j = tau sqrt(a + sigma s), s = sqrt(a^2 - b); lam' = sigma s' / (2 lam)
    with s' = -b' / (2 s).  The integrands are taken at offsets d from a zero c
    of b (from x0 on a piece without one), with b(c + d) from Taylor's
    formula, exact for these polynomial potentials: next to a turning point
    the float c + d would drop the digits of d.  a - s is taken as
    b / (a + s) for the same reason.
    """
    from scipy.integrate import IntegrationWarning, quad

    p = w.params
    sigma, tau = {1: (1, 1), 2: (1, -1), 3: (-1, 1), 4: (-1, -1)}[w.index]
    c = w._b_zeros[0] if w._b_zeros else p.x0
    bc = p.b_chain(c)
    b0 = 0.0 if w._b_zeros else bc[0]

    def lam_and_s(d):
        b = b0 + d * (bc[1] + d * (bc[2] / 2.0 + d * (bc[3] / 6.0 + d * bc[4] / 24.0)))
        db = bc[1] + d * (bc[2] + d * (bc[3] / 2.0 + d * bc[4] / 6.0))
        s = cmath.sqrt(p.a_coef**2 - b)
        inner = p.a_coef + s if sigma > 0 else b / (p.a_coef + s)
        lam = tau * cmath.sqrt(inner)
        dlam = sigma * (-db / (2.0 * s)) / (2.0 * lam)
        return lam, dlam, s

    def integral(g, lo, hi):
        sign = 1.0
        if hi < lo:
            lo, hi, sign = hi, lo, -1.0
        kw = dict(epsabs=1e-14, epsrel=1e-14, limit=1000)
        if lo < 0.0 < hi:
            kw["points"] = [0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            re = quad(lambda d: g(d).real, lo, hi, **kw)[0]
            im = quad(lambda d: g(d).imag, lo, hi, **kw)[0]
        return sign * complex(re, im)

    i1 = integral(lambda d: lam_and_s(d)[0], p.x0 - c, x - c)
    i2 = integral(lambda d: lam_and_s(d)[1] / lam_and_s(d)[2], p.x0 - c, x - c)
    lam, _, s = lam_and_s(x - c)
    return p.eta * i1 - 0.5 * i2 - 0.5 * (cmath.log(lam) + cmath.log(s))


def _pieces_for_accuracy():
    """(problem, energy, x0, piece, test points) on linear and harmonic pieces."""
    linear = nondimensionalize(linear_setup_for(0.12))
    harmonic = nondimensionalize(harmonic_setup_for(0.12))
    out = []
    for problem, e in ((linear, 2.0), (harmonic, 5.0)):
        params = WkbParameters.from_problem(problem, e, x0=0.9)
        rmap = map_regions(params, 0.0, 12.0)
        x_t, s_zero = rmap.b_zeros[-1], rmap.s_zeros[0]
        hi = s_zero - 0.05
        points = [
            1e-9, 1e-3, 0.4, 0.9, 1.37,  # near the lower end and before the turning point
            x_t - 0.06, x_t - 0.05, x_t + 0.05, x_t + 0.06,  # just outside the window
            x_t + 0.5, 0.5 * (x_t + hi), hi - 1e-3, hi,  # beyond it, up to the upper end
        ]
        out.append((problem, e, 0.9, (0.0, hi), rmap, points))
        far_lo = s_zero + 0.05
        out.append((problem, e, far_lo + 0.5, (far_lo, math.inf), rmap,
                    [far_lo, far_lo + 1e-3, far_lo + 0.5, far_lo + 2.3, far_lo + 4.4]))
    return out


@pytest.mark.parametrize("case", range(4))
def test_exponent_matches_quad_reference(case):
    problem, e, x0, piece, rmap, points = _pieces_for_accuracy()[case]
    params = WkbParameters.from_problem(problem, e, x0=x0)
    for j in (1, 2, 3, 4):
        w = wkb_basis(params, j, piece, region_map=rmap)
        xs = [x for x in points if w.valid(x)]
        assert len(xs) >= 5
        batch = w.exponent(np.array(xs))
        for x, got in zip(xs, batch):
            ref = _reference_exponent(w, x)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (j, x, got, ref)
            # one point at a time, on a fresh function, gives the same value
            single = wkb_basis(params, j, piece, region_map=rmap).exponent(x)
            assert abs(single - got) <= 1e-13 * max(1.0, abs(got))


def test_large_array_matches_small_batches():
    # more points than one integration chunk, across a turning window and
    # the panel grid; each segment is integrated on its own, so the values
    # cannot depend on which other points share the array
    problem, e, x0, piece, rmap, _ = _pieces_for_accuracy()[2]
    params = WkbParameters.from_problem(problem, e, x0=x0)
    for j in (1, 3):
        w = wkb_basis(params, j, piece, region_map=rmap)
        xs = np.linspace(*piece, 3001)
        xs = xs[w.valid(xs)]
        assert xs.size > 2048
        whole = w.exponent(xs)
        fresh = wkb_basis(params, j, piece, region_map=rmap)
        batches = np.concatenate([fresh.exponent(xs[k : k + 7]) for k in range(0, xs.size, 7)])
        np.testing.assert_array_equal(whole, batches)


def _classify_point_by_point(f, side, probes, samples_per_interval=7):
    """The classifier evaluated one sample at a time (the batched rule, unrolled)."""

    def safe_log_abs(x):
        try:
            value = float(np.real(f.log_abs(x)))
        except ValidityError:
            return None
        return value if math.isfinite(value) else None

    env_logs, all_xs = [], []
    for a, b in zip(probes[:-1], probes[1:]):
        valid = [(x, v) for x in np.linspace(a, b, samples_per_interval)
                 if (v := safe_log_abs(x)) is not None]
        if len(valid) < 3:
            return AsymptoticClass.UNDEFINED
        all_xs.extend(x for x, _ in valid[:-1])
        env_logs.append(max(v for _, v in valid))
    if safe_log_abs(probes[-1]) is not None:
        all_xs.append(probes[-1])
    growth = env_logs[-1] - env_logs[0]
    if growth >= math.log(10.0):
        return AsymptoticClass.GROWING
    if growth <= -math.log(10.0):
        return AsymptoticClass.DECAYING
    shift = max(env_logs)
    vals = np.array([complex(f.scaled_value(x, shift)) for x in all_xs])
    comps = vals.real if np.max(np.abs(vals.real)) >= np.max(np.abs(vals.imag)) else vals.imag
    sign_changes = int(np.sum(np.abs(np.diff(np.sign(comps))) > 0))
    ratios = np.exp(np.diff(env_logs))
    if sign_changes >= 1 and np.all((ratios >= 0.5) & (ratios <= 2.0)):
        return AsymptoticClass.OSCILLATORY
    return AsymptoticClass.UNDEFINED


@pytest.mark.parametrize("kind", ["linear", "harmonic"])
def test_batched_classification_matches_point_by_point(kind):
    setup_for = linear_setup_for if kind == "linear" else harmonic_setup_for
    sides = [Side.PLUS_INFINITY] + ([Side.MINUS_INFINITY] if kind == "harmonic" else [])
    compared = 0
    for eps in (1e-4, 1e-2, 0.2):
        problem = nondimensionalize(setup_for(eps))
        for e in (1.5, 3.0, 5.0, 7.5, 10.0):
            for f in wkb_assembly(problem, e).far_basis:
                for side in sides:
                    probes = f._auto_probes(side)
                    got = classify_asymptotics(f, side, probes)
                    assert got is _classify_point_by_point(f, side, probes), (eps, e, f, side)
                    assert got is not AsymptoticClass.UNDEFINED
                    compared += 1
    assert compared == 3 * 5 * 4 * len(sides)


def test_batched_classification_matches_point_by_point_on_interior_pieces(linear_problem):
    # the interior pieces hold turning windows (masked samples) and
    # oscillatory stretches, which the far-field classes above never reach
    for problem, e in ((linear_problem, 2.0), (nondimensionalize(harmonic_setup_for(0.12)), 5.0)):
        for f in wkb_assembly(problem, e).basis:
            for side in (Side.PLUS_INFINITY, Side.MINUS_INFINITY):
                probes = f._auto_probes(side)
                assert classify_asymptotics(f, side, probes) is _classify_point_by_point(
                    f, side, probes
                )
    # the only sign change falls between the last two samples, at the last probe
    f = TrigBasisFunction(kappa=math.pi / 3.8, phase="cos", index=3)
    probes = [0.0, 1.0, 2.0]
    assert classify_asymptotics(f, Side.PLUS_INFINITY, probes) is AsymptoticClass.OSCILLATORY
    assert _classify_point_by_point(f, Side.PLUS_INFINITY, probes) is AsymptoticClass.OSCILLATORY


def _find_zeros_point_by_point(f, lo, hi, n=2001):
    xs = np.linspace(lo, hi, n)
    vals = [f(float(x)) for x in xs]
    zeros = []
    for i in range(n - 1):
        if vals[i] == 0.0:
            zeros.append(float(xs[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            from scipy.optimize import brentq

            zeros.append(float(brentq(f, xs[i], xs[i + 1], xtol=1e-13)))
    if vals[-1] == 0.0:
        zeros.append(float(xs[-1]))
    return zeros


def test_array_find_zeros_matches_scalar_scan():
    cases = [(np.sin, 0.0, 20.0), (lambda x: x * 1.0, -1.0, 1.0), (np.cos, -7.0, 7.0)]
    for problem, e, hi in (
        (nondimensionalize(linear_setup_for(0.01)), 3.0, 60.0),
        (nondimensionalize(harmonic_setup_for(0.01)), 3.0, 20.0),
    ):
        params = WkbParameters.from_problem(problem, e, x0=0.0)
        cases.append((params.b, 0.0, hi))
        cases.append((lambda x, p=params: p.a_coef**2 - p.b(x), 0.0, hi))
    for f, lo, hi in cases:
        zeros = find_zeros(f, lo, hi)
        assert zeros == _find_zeros_point_by_point(f, lo, hi)
        assert zeros


def test_dof_scan_makes_no_scalar_quad_calls(monkeypatch):
    # the WKB exponent integrals are batched Gauss-Legendre sums; a scalar
    # quad call from basis would mean the per-point path is back
    calls = []

    def counting_quad(*args, **kwargs):
        calls.append(args)
        raise AssertionError("scipy quad called from gupbic.basis")

    monkeypatch.setattr(gupbic.basis, "quad", counting_quad)
    energies = np.array([1.5, 3.0, 5.0, 7.5])
    for setup in (linear_setup_for(0.01), harmonic_setup_for(0.01)):
        problem = nondimensionalize(setup)
        scan = dof_scan(setup, energies * problem.energy_scale)
        assert scan.errors == {}
        assert all(d in (1, 2) for d in scan.dof)
    assert calls == []
