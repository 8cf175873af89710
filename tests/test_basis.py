import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gupbic.basis
import gupbic.panels
from gupbic import characteristic_roots, exact_constant_basis, nondimensionalize
from gupbic.basis import (
    AsymptoticClass,
    ExactConstantSet,
    ExponentTable,
    Side,
    WkbBasisFunction,
    WkbParameters,
    WkbSet,
    _exp_log,
    classify_asymptotics,
    map_regions,
)
from gupbic.errors import (
    BasisOverflowError,
    ComplexQuartetError,
    DegenerateBasisError,
    PreconditionError,
    UnsupportedEpsilonError,
    ValidityError,
)
from gupbic.matcher import wkb_assembly
from gupbic.spectrum import dof_scan
from gupbic.verification import harmonic_setup_for, linear_setup_for, reference_well_setup

EPS_REFERENCE = 7.414144781404543e-2
WALLS = (-1.0, 1.0)


def _branch(basis, j):
    """Branch j (1-based) of a WKB set alone, on the set's exponent table."""
    return WkbBasisFunction(basis.table, j)


def _windows(table, j):
    """The turning windows that a query of branch j (1-based) is tested against: branches 3 and 4 only."""
    return table.windows if j > 2 else ()


def _far_branches(problem, energy, even=False):
    """Branches 1..4 on the far piece: from a turning window past the zero of a^2 - b to infinity, x0 0.5 further.

    No zero of b lies on the far piece, so its table has no window.
    """
    (s_zero,) = wkb_assembly(problem, energy).s_zeros
    far_lo = s_zero + gupbic.basis.TURNING_WINDOW_HALF_WIDTH
    params = WkbParameters.from_problem(problem, energy, x0=far_lo + 0.5)
    return WkbSet(ExponentTable(params, (far_lo, math.inf), ()), even)


class TestCharacteristicRoots:
    def test_zero_gap_roots(self):
        r = characteristic_roots(0.04, 0.0)
        assert r.kappa == 0.0
        assert r.mu1 == pytest.approx(1.0 / math.sqrt(0.04), rel=1e-14)
        assert r.all_roots()[1] == -r.mu1

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
        for x in (-1.0, 0.0, 1.0):
            for d in basis.derivatives(x, 4, range(4)):
                res = EPS_REFERENCE * d[4] - d[2] - r.e_minus_v * d[0]
                scale = abs(EPS_REFERENCE * d[4]) + abs(d[2]) + abs(r.e_minus_v * d[0]) + 1e-300
                assert abs(res) / scale < 1e-12

    def test_wronskian_nonzero_at_origin(self, basis_and_roots):
        r, basis = basis_and_roots
        m = basis.derivatives(0.0, 3, range(4)).T
        w = np.linalg.det(m)
        # direct determinant, cross-checked against the root-product form; the
        # wall anchors scale the exponential pair by exp(-mu1 (hi - lo)) in all
        lo, hi = WALLS
        expected = (
            2.0 * r.mu1 * r.kappa * (r.mu1**2 + r.kappa**2) ** 2 * math.exp(-r.mu1 * (hi - lo))
        )
        assert abs(w) == pytest.approx(expected, rel=1e-12)
        assert abs(w) > 1.0

    def test_small_beta_limit_matches_standard_well(self):
        # kappa -> sqrt(e): the oscillatory pair converges pointwise
        e = 2.467401100272340  # (pi/2)^2
        for eps in (1e-5, 1e-7):
            r = characteristic_roots(eps, e)
            basis = exact_constant_basis(r, WALLS)
            for x in np.linspace(-1, 1, 7):
                assert basis.derivatives(x, 0, [2])[0, 0] == pytest.approx(
                    math.cos(math.sqrt(e) * x), abs=5e-4 * (eps / 1e-5) ** 0.5 + 1e-9
                )

    def test_degenerate_kappa_rejected(self):
        r = characteristic_roots(0.1, 0.0)
        with pytest.raises(DegenerateBasisError):
            exact_constant_basis(r, WALLS)

    def test_overflow_flagged(self):
        # exp(10 x), the layer at the wall x = 0, passes the cap at x = 100
        basis = ExactConstantSet(10.0, 1.0, (-1.0, 0.0))
        with pytest.raises(BasisOverflowError):
            basis.derivatives(100.0, 3, [0])
        assert _exp_log(10.0, 0.0, 100.0) == pytest.approx(1000.0)

    @pytest.mark.parametrize("beta", [1e47, 1e30])
    def test_array_value_matches_point_by_point(self, beta):
        problem = nondimensionalize(reference_well_setup(beta=beta))
        roots = characteristic_roots(problem.epsilon, 2.5)
        lo, hi = problem.domain
        d = 1.0 / roots.mu1

        def through_walls(left: float, right: float) -> np.ndarray:
            # the well, and grids through each wall reaching out by the given
            # number of decay lengths
            return np.concatenate(
                [
                    np.linspace(lo - left * d, lo + 30.0 * d, 401),
                    np.linspace(lo, hi, 801),
                    np.linspace(hi - 30.0 * d, hi + right * d, 401),
                ]
            )

        basis = exact_constant_basis(roots, problem.domain)

        def value(j, x):
            return basis.derivatives(x, 0, [j])[0, 0]

        # each exponential runs past the -745 underflow cut on its decaying
        # side and stays below the exponent cap on its growing side
        for j, xs in (
            (0, through_walls(900.0, 600.0)),
            (1, through_walls(600.0, 900.0)),
            (2, through_walls(600.0, 600.0)),
            (3, through_walls(600.0, 600.0)),
        ):
            arr = value(j, xs)
            pts = np.array([value(j, float(x)) for x in xs])
            assert arr.shape == pts.shape and arr.dtype == complex
            assert np.all(np.abs(arr - pts) <= 2e-16 * np.abs(pts))
            assert np.array_equal(arr == 0, pts == 0)
        for j, rate, anchor in ((0, roots.mu1, hi), (1, -roots.mu1, lo)):
            # exact zeros past the underflow cut, and only there
            xs = through_walls(900.0, 900.0)
            xs = xs[rate * (xs - anchor) < 700.0]
            zero = value(j, xs) == 0
            assert np.array_equal(zero, rate * (xs - anchor) <= -745.0)
            assert zero.any()

    def test_array_value_overflow_flagged_where_scalar_is(self):
        problem = nondimensionalize(reference_well_setup(beta=1e30))
        roots = characteristic_roots(problem.epsilon, 2.5)
        basis = exact_constant_basis(roots, problem.domain)
        lo, hi = problem.domain
        for j, x in ((0, hi + 800.0 / roots.mu1), (1, lo - 800.0 / roots.mu1)):
            with pytest.raises(BasisOverflowError):
                basis.derivatives(x, 0, [j])
            with pytest.raises(BasisOverflowError):
                basis.derivatives(np.array([0.0, x]), 0, [j])
            edge = np.array([0.0, x - math.copysign(200.0 / roots.mu1, x)])
            assert np.all(np.isfinite(basis.derivatives(edge, 0, [j])))


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
        # lam of the tau = +1 branches of both pairs: lam_1 and lam_3
        lam1, lam3 = ExponentTable(params, (-1.0, 1.0), ())._closed_sums(np.array([0.2]))[3][:, 0]
        assert params.eta * lam1 == pytest.approx(roots.mu1, rel=1e-13)
        assert params.eta * lam3 == pytest.approx(1j * roots.kappa, rel=1e-13)

    def test_constant_potential_reduces_to_exact(self, well_problem):
        e = 2.918779290241783
        params = WkbParameters.from_problem(well_problem, e, x0=0.0)
        roots = characteristic_roots(well_problem.epsilon, e)
        targets = {1: roots.mu1, 2: -roots.mu1, 3: 1j * roots.kappa, 4: -1j * roots.kappa}
        table = ExponentTable(params, (-1.0, 1.0), ())
        for j, rate in targets.items():
            ratios = [table.derivatives(x, 0, (j,))[0, 0] * cmath.exp(-rate * x) for x in (-0.9, -0.4, 0.1, 0.8)]
            for r in ratios[1:]:
                assert abs(r / ratios[0] - 1.0) < 1e-10

    def test_quartic_residual_of_local_rates(self, linear_problem):
        e = 2.0
        params = WkbParameters.from_problem(linear_problem, e, x0=0.5)
        (x_t,), (s_zero,) = map_regions(params)
        table = ExponentTable(params, (0.0, s_zero - 0.05), (x_t,))
        eps = linear_problem.epsilon
        for x in (0.3, 1.2, 3.0, 4.5):
            mu = params.eta * table._closed_sums(np.array([x]))[3][0, 0]  # lam_1
            q = e - linear_problem.v_derivs(x)[0]
            res = eps * mu**4 - mu**2 - q
            assert abs(res) / (abs(eps * mu**4) + abs(mu**2) + abs(q)) < 1e-11

    def test_derivatives_match_finite_differences(self, linear_problem):
        e = 2.0
        params = WkbParameters.from_problem(linear_problem, e, x0=3.2)
        rng = np.random.default_rng(3)
        h1, h2 = 1e-5, 1e-4  # h2 larger: second differences hit roundoff ~eps/h^2
        table = ExponentTable(params, (2.6, 4.0), ())  # past the turning point x_t = 2
        for j in (1, 2, 3, 4):
            value = lambda x: table.derivatives(x, 0, (j,))[0, 0]
            for x in rng.uniform(2.8, 3.8, size=13):
                d = table.derivatives(x, 2, (j,))[0]
                fd1 = (value(x + h1) - value(x - h1)) / (2 * h1)
                fd2 = (value(x + h2) - 2 * value(x) + value(x - h2)) / h2**2
                assert abs(d[1] - fd1) / abs(fd1) < 1e-6
                assert abs(d[2] - fd2) / abs(fd2) < 1e-6

    def test_linear_decaying_branches(self, linear_problem):
        # toward +inf, branches 2 and 4 decay; 1 and 3 grow
        asm = wkb_assembly(linear_problem, 2.0)
        classes = dict(enumerate(classify_asymptotics(asm.basis, Side.PLUS_INFINITY), 1))
        assert classes[1] is AsymptoticClass.GROWING
        assert classes[2] is AsymptoticClass.DECAYING
        assert classes[3] is AsymptoticClass.GROWING
        assert classes[4] is AsymptoticClass.DECAYING

    def test_window_evaluation_rejected(self, linear_problem):
        e = 2.0
        params = WkbParameters.from_problem(linear_problem, e, x0=0.5)
        (x_t,), _ = map_regions(params)
        table = ExponentTable(params, (0.0, 3.5), (x_t,))
        with pytest.raises(ValidityError, match="window"):
            table.derivatives(x_t + 0.01, 0, (4,))
        # but the same branch is evaluable on both sides with one normalization
        assert np.isfinite(table.derivatives(x_t - 0.5, 0, (4,))[0, 0].real)
        assert np.isfinite(table.derivatives(x_t + 0.5, 0, (4,))[0, 0].real)

    def test_fast_branch_crosses_classical_turning_point(self, linear_problem):
        e = 2.0
        params = WkbParameters.from_problem(linear_problem, e, x0=0.5)
        (x_t,), _ = map_regions(params)
        table = ExponentTable(params, (0.0, 3.5), (x_t,))
        # the window masks branches 3 and 4 alone
        with pytest.raises(ValidityError, match="window"):
            table.logs(x_t, (4,))
        assert np.isfinite(table.derivatives(x_t, 0, (2,))[0, 0].real)


@pytest.mark.parametrize("kind", ["linear", "harmonic"])
def test_batched_far_classes_are_the_per_energy_ones(linear_problem, harmonic_problem, kind):
    problem = linear_problem if kind == "linear" else harmonic_problem
    sides = [Side.PLUS_INFINITY] + ([Side.MINUS_INFINITY] if kind == "harmonic" else [])
    energies = np.array([1.5, 2.0, 3.0])
    batched = wkb_assembly(problem, energies).basis
    for e in energies.tolist():
        alone = wkb_assembly(problem, e).basis
        for side in sides:
            got, want = classify_asymptotics(batched, side), classify_asymptotics(alone, side)
            assert len(got) == len(want) == 4
            assert all(f is g for f, g in zip(got, want)), (e, side)


@pytest.mark.parametrize("energy", [2.0, np.array([2.0, 3.0])], ids=["single", "batch"])
def test_repr_shows_the_parameters_of_each_energy(linear_problem, harmonic_problem, energy):
    # a batched branch names one x0 per energy (formatting the array raised
    # TypeError), and one energy keeps its float form
    def shown(values, spec):
        return format(values, spec) if np.ndim(values) == 0 else "[" + ", ".join(format(v, spec) for v in values) + "]"

    linear = _branch(wkb_assembly(linear_problem, energy).basis, 1)
    even = _branch(wkb_assembly(harmonic_problem, energy).basis, 3)
    for g in (linear, even):
        p = g.table.params
        want = f"WkbBasisFunction(j={g.index}, interval={g.table.interval}, x0={shown(p.x0, '.4g')}, eta={p.eta:.4g})"
        assert repr(g) == want
    if np.ndim(energy):
        x0 = linear.table.params.x0
        assert f"x0=[{x0[0]:.4g}, {x0[1]:.4g}]" in repr(linear)


def test_concurrent_evaluation_matches_serial(linear_problem):
    # exponent(x) depends on x alone (fixed panels from x0; the table of panel
    # sums is replaced whole, never edited in place): threaded, shuffled
    # evaluation must reproduce the serial values
    from concurrent.futures import ThreadPoolExecutor

    e = 2.0
    xs = list(np.linspace(2.6, 3.8, 40))
    params = WkbParameters.from_problem(linear_problem, e, x0=3.2)
    serial = ExponentTable(params, (2.5, 3.9), ())  # past the turning point x_t = 2
    serial_vals = [serial.derivatives(x, 0, (2,))[0, 0] for x in xs]

    threaded = ExponentTable(params, (2.5, 3.9), ())
    shuffled = list(np.random.default_rng(0).permutation(xs))
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda x: threaded.derivatives(x, 0, (2,)), shuffled))
    threaded_vals = [threaded.derivatives(x, 0, (2,))[0, 0] for x in xs]
    assert np.allclose(serial_vals, threaded_vals, rtol=1e-12, atol=1e-300)



def test_concurrent_shared_table_matches_serial():
    # the four branches of one table evaluated in a shuffled order from a
    # pool: the table and its last query are replaced whole, never edited in
    # place, so every value equals the serial one exactly
    from concurrent.futures import ThreadPoolExecutor

    params, piece, b_zeros, _ = _shared_table_cases()[0]
    grid = np.linspace(piece[0], piece[1], 41)
    queries = [float(x) for x in grid] + [grid[k : k + 5] for k in range(0, 41, 5)]
    serial = ExponentTable(params, piece, b_zeros)
    tasks, expected = [], []
    for j in (1, 2, 3, 4):
        for q in queries:
            if np.all(serial.valid(q, _windows(serial, j))):
                tasks.append((j, q))
                expected.append(serial.derivatives(q, 0, (j,))[0, 0])
    shared = ExponentTable(params, piece, b_zeros)
    order = np.random.default_rng(0).permutation(len(tasks))
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda k: shared.derivatives(tasks[k][1], 0, (tasks[k][0],))[0, 0], order))
    for k, value in zip(order, got):
        assert np.array_equal(value, expected[k]), tasks[k]

# --- the array-valued exponent layer against independent references ------------


def _reference_exponent(table, j, x):
    """log w_j(x) of branch j of ``table`` from scipy quad over the textbook WKB integrands.

    lam_j = tau sqrt(a + sigma s), s = sqrt(a^2 - b); lam' = sigma s' / (2 lam)
    with s' = -b' / (2 s).  The integrands are taken at offsets d from a zero c
    of b (from x0 on a piece without one), with b(c + d) from Taylor's
    formula, exact for these polynomial potentials: next to a turning point
    the float c + d would drop the digits of d.  a - s is taken as
    b / (a + s) for the same reason.
    """
    from scipy.integrate import IntegrationWarning, quad

    p = table.params
    sigma, tau = {1: (1, 1), 2: (1, -1), 3: (-1, 1), 4: (-1, -1)}[j]
    c = table.b_zeros[0] if table.b_zeros else p.x0
    bc = p.b_chain(c)
    b0 = 0.0 if table.b_zeros else bc[0]

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
    """(problem, energy, x0, piece, zeros of b on it, test points) on linear and harmonic pieces.

    The (0, hi) piece holds the turning point x_t, the far piece no zero of b.
    """
    linear = nondimensionalize(linear_setup_for(0.12))
    harmonic = nondimensionalize(harmonic_setup_for(0.12))
    out = []
    for problem, e in ((linear, 2.0), (harmonic, 5.0)):
        params = WkbParameters.from_problem(problem, e, x0=0.9)
        b_zeros, s_zeros = map_regions(params)
        x_t, s_zero = b_zeros[-1], s_zeros[-1]
        hi = s_zero - 0.05
        points = [
            1e-9, 1e-3, 0.4, 0.9, 1.37,  # near the lower end and before the turning point
            x_t - 0.06, x_t - 0.05, x_t + 0.05, x_t + 0.06,  # just outside the window
            x_t + 0.5, 0.5 * (x_t + hi), hi - 1e-3, hi,  # beyond it, up to the upper end
        ]
        out.append((problem, e, 0.9, (0.0, hi), (x_t,), points))
        far_lo = s_zero + 0.05
        out.append((problem, e, far_lo + 0.5, (far_lo, math.inf), (),
                    [far_lo, far_lo + 1e-3, far_lo + 0.5, far_lo + 2.3, far_lo + 4.4]))
    return out


@pytest.mark.parametrize("case", range(4))
def test_exponent_matches_quad_reference(case):
    problem, e, x0, piece, b_zeros, points = _pieces_for_accuracy()[case]
    params = WkbParameters.from_problem(problem, e, x0=x0)
    for j in (1, 2, 3, 4):
        w = WkbBasisFunction(ExponentTable(params, piece, b_zeros), j)
        xs = [x for x in points if w.table.valid(x, _windows(w.table, j))]
        assert len(xs) >= 5
        batch = w.exponent(np.array(xs))
        for x, got in zip(xs, batch):
            ref = _reference_exponent(w.table, j, x)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (j, x, got, ref)
            # one point at a time, on a fresh function, gives the same value
            single = WkbBasisFunction(ExponentTable(params, piece, b_zeros), j).exponent(x)
            assert abs(single - got) <= 1e-13 * max(1.0, abs(got))


def test_large_array_matches_small_batches():
    # thousands of points across a turning window: each point's closed form
    # (a fixed number of Carlson duplication steps) is computed on its own,
    # so the values cannot depend on which other points share the array
    problem, e, x0, piece, b_zeros, _ = _pieces_for_accuracy()[2]
    params = WkbParameters.from_problem(problem, e, x0=x0)
    for j in (1, 3):
        w = WkbBasisFunction(ExponentTable(params, piece, b_zeros), j)
        xs = np.linspace(*piece, 3001)
        xs = xs[w.table.valid(xs, _windows(w.table, j))]
        assert xs.size > 2048
        whole = w.exponent(xs)
        fresh = WkbBasisFunction(ExponentTable(params, piece, b_zeros), j)
        batches = np.concatenate([fresh.exponent(xs[k : k + 7]) for k in range(0, xs.size, 7)])
        np.testing.assert_array_equal(whole, batches)


def _shared_table_cases():
    """(params, piece, zeros of b on it, test points): linear main and far, harmonic tail and far.

    The linear main piece holds the turning point, so its points lie on both
    sides of the window; the harmonic (0, hi) piece does too.
    """
    out = []
    for problem, e, x0, piece, b_zeros, points in _pieces_for_accuracy():
        out.append((WkbParameters.from_problem(problem, e, x0=x0), piece, b_zeros, points))
    harmonic = nondimensionalize(harmonic_setup_for(0.12))
    params0 = WkbParameters.from_problem(harmonic, 5.0, x0=0.0)
    (_, x_t), (_, s_zero) = map_regions(params0)
    tail = (x_t + 0.05, s_zero - 0.05)  # the tail starts past the window around x_t
    params = WkbParameters.from_problem(harmonic, 5.0, x0=0.5 * sum(tail))
    out.append((params, tail, (), list(np.linspace(*tail, 7))))
    return out


@pytest.mark.parametrize("case", range(5))
@pytest.mark.parametrize("order", [(1, 2, 3, 4), (2, 1, 4, 3), (4, 3, 2, 1)])
def test_shared_branches_match_standalone(case, order):
    # the four branches of one table (tau = -1 partners negated, both pairs
    # in one walk, the last query kept) equal branches alone on their own
    # tables, bit for bit, however the branches take turns
    params, piece, b_zeros, points = _shared_table_cases()[case]
    shared_set = WkbSet(ExponentTable(params, piece, b_zeros))
    shared = [_branch(shared_set, j) for j in (1, 2, 3, 4)]
    fresh = {j: WkbBasisFunction(ExponentTable(params, piece, b_zeros), j) for j in (1, 2, 3, 4)}
    table = shared_set.table
    common = np.array([x for x in points if table.valid(x, table.windows)])
    for x in points:
        for j in order:
            if table.valid(x, _windows(table, j)):
                got = shared[j - 1].exponent(float(x))
                alone = WkbBasisFunction(ExponentTable(params, piece, b_zeros), j)
                assert np.array_equal(got, fresh[j].exponent(float(x))), (j, x)
                assert np.array_equal(got, alone.exponent(float(x))), (j, x)
    for xs in (common, np.array(points)):
        for j in order:
            f = shared[j - 1]
            own = xs[table.valid(xs, _windows(table, j))]
            alone = WkbBasisFunction(ExponentTable(params, piece, b_zeros), j)
            assert np.array_equal(f.exponent(own), alone.exponent(own)), j
            assert np.array_equal(table.derivatives(own, 0, (j,)), alone.table.derivatives(own, 0, (j,))), j


_REFERENCE_TOL = 1e-13


def _panel_reference(table, xs, sigma):
    """[I1, I2] of branch tau = +1 of pair ``sigma`` from x0 to each x, by Gauss-Legendre panels.

    ``panels.panel_integrals`` integrates lam and lam'/s on the path from x0
    to x, split at the zeros of b and at the midpoints between the splits,
    so that each segment touches at most one zero, at its start c.  There
    x = c +- u^2 turns the |x - c|^(-1/2) of lam'/s into a smooth integrand,
    and b(c + d) comes from Taylor's formula at c, with b(c) = 0: c + d
    would drop the digits of d.
    """
    p = table.params
    zeros = [float(z) for z in table.b_zeros]
    starts, owner = [], []
    for k, x in enumerate(np.asarray(xs, dtype=float)):
        lo, hi = sorted((p.x0, x))
        cuts = [lo] + [z for z in zeros if lo < z < hi] + [hi]
        if x < p.x0:
            cuts = cuts[::-1]
        for left, right in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (left + right)
            # each half runs from one end of the segment, where a zero of b may lie
            for c, o, sign in ((left, mid, 1.0), (right, mid, -1.0)):
                starts.append((c, o, sign))
                owner.append(k)
    c = np.array([t[0] for t in starts])
    o = np.array([t[1] for t in starts])
    sign = np.array([t[2] for t in starts])
    at_zero = np.array([any(cz == z for z in zeros) for cz in c])
    sense = np.where(o < c, -1.0, 1.0)
    end = np.where(at_zero, np.sqrt(np.abs(o - c)), np.abs(o - c))
    a = p.a_coef

    def integrand(u, width, i):
        ci, sub, di = c[i, None], at_zero[i, None], sense[i, None]
        d = di * np.where(sub, u * u, u)
        jac = np.where(sub, 2.0 * u, 1.0) * di * width
        b0, b1, b2, b3, b4 = p.b_chain(ci)
        b0 = np.where(sub, 0.0, b0)
        b = b0 + d * (b1 + d * (b2 / 2.0 + d * (b3 / 6.0 + d * b4 / 24.0)))
        db = b1 + d * (b2 + d * (b3 / 2.0 + d * b4 / 6.0))
        s = np.sqrt((a * a - b).astype(complex))
        lam = np.sqrt(a + s if sigma > 0 else b / (a + s))
        dlam = sigma * (-db / (2.0 * s)) / (2.0 * lam)
        return np.stack([lam, dlam / s]) * jac

    parts = gupbic.panels.panel_integrals(integrand, np.zeros(c.size), end, _REFERENCE_TOL)
    out = np.zeros((2, len(xs)), dtype=complex)
    np.add.at(out, (slice(None), np.array(owner)), parts * sign)
    return out


def _mp_closed_form(mp, table, xs, sigma):
    """[I1, I2] of the linear closed forms at 40 digits, from the same a and b(x)."""
    p = table.params
    out = []
    with mp.workdps(40):
        a = mp.mpf(p.a_coef)
        root_a = mp.sqrt(a)

        def s_lam(x):
            s = mp.sqrt(a * a - mp.mpf(float(p.b(x))))
            return s, mp.sqrt(a + sigma * s)

        def atanh_q(lam):
            return mp.atanh(lam / root_a if sigma < 0 else root_a / lam)

        s0, lam0 = s_lam(p.x0)
        for x in xs:
            s, lam = s_lam(float(x))
            powers = sum(lam**k * lam0 ** (4 - k) for k in range(5)) / 5
            poly = powers - a * (lam * lam + lam * lam0 + lam0 * lam0) / 3
            i1 = 4 * sigma * (mp.mpf(float(x)) - p.x0) * poly / ((s + s0) * (lam + lam0))
            i2 = -sigma / root_a * (atanh_q(lam) - atanh_q(lam0))
            out.append((complex(i1), complex(i2)))
    return np.array(out).T


@pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2, 0.2])
def test_linear_closed_form_matches_panels_and_mpmath(eps):
    # the closed-form I1, I2 of a linear b against the panel walk on the same
    # piece and against the same closed form at 40 digits: the main piece
    # from the wall past the turning window up to s_zero - W, and the far piece
    mp = pytest.importorskip("mpmath")
    window = gupbic.basis.TURNING_WINDOW_HALF_WIDTH
    problem = nondimensionalize(linear_setup_for(eps))
    for e in (0.15, 2.0, 20.0):
        asm = wkb_assembly(problem, e)
        (x_t,), (s_zero,) = asm.b_zeros, asm.s_zeros
        hi, far_lo = s_zero - window, s_zero + window
        main = [0.0, 1e-9, asm.basis.table.params.x0 + 1e-6, 0.5 * x_t, x_t - window, x_t + window,
                0.5 * (x_t + hi), hi - 1e-3, hi]
        far = [far_lo, far_lo + 1e-3, far_lo + 0.4, far_lo + 2.3, far_lo + 4.4, far_lo + 20.0]
        for branches, points in ((asm.basis, main), (_far_branches(problem, e), far)):
            table = branches.table
            eta = table.params.eta
            assert table.params.b_chain(0.0)[2] == 0.0
            xs = np.array(points)
            i1, i2, _, _ = table._closed_sums(xs)  # of the tau = +1 branch of pair sigma = +1, -1
            for k, sigma in enumerate((1.0, -1.0)):
                got = np.stack([i1[k], i2[k]])
                scale = np.maximum(1.0, np.abs(eta * got[0]))
                for ref, bound in ((_panel_reference(table, xs, sigma), 1e-13),
                                   (_mp_closed_form(mp, table, xs, sigma), 1e-14)):
                    err = np.abs(eta * (got[0] - ref[0])) / scale
                    assert np.all(err <= bound), (e, sigma, xs[np.argmax(err)], err.max())
                    assert np.all(np.abs(got[1] - ref[1]) <= 1e-12), (e, sigma)


def _mp_harmonic_integrals(mp, table, xs, sigma):
    """[I1, I2] of pair ``sigma`` (tau = +1) from x0 to each x by 30-digit mpmath quadrature.

    The path is split at the zeros of b and of a^2 - b, where lam and s have
    square-root kinks (tanh-sinh takes the endpoint singularities).
    """
    p = table.params
    with mp.workdps(30):
        a = mp.mpf(p.a_coef)
        b0, b2 = (mp.mpf(float(v)) for v in np.array(p.b_chain(0.0))[[0, 2]])
        x_t, x_s = mp.sqrt(-2 * b0 / b2), mp.sqrt(2 * (a * a - b0) / b2)
        kinks = [-x_s, -x_t, x_t, x_s]

        def s_lam(x):
            s = mp.sqrt(a * a - b0 - b2 * x * x / 2)
            return s, mp.sqrt(a + sigma * s)

        def i2_integrand(x):
            s, lam = s_lam(x)
            return sigma * (-b2 * x / (2 * s)) / (2 * lam) / s

        out = []
        for x in xs:
            lo, hi = sorted((mp.mpf(p.x0), mp.mpf(float(x))))
            path = [lo] + [k for k in kinks if lo < k < hi] + [hi]
            sign = 1 if x >= p.x0 else -1
            i1 = mp.quad(lambda t: s_lam(t)[1], path)
            i2 = mp.quad(i2_integrand, path)
            out.append((complex(sign * i1), complex(sign * i2)))
    return np.array(out).T


def _harmonic_pieces(eps: float, e: float):
    """(x0, piece, zeros of b on it, points) on the three kinds of harmonic piece.

    The interior piece runs across both turning points, the forbidden band
    from x_t + W to x_s - W (where it is wider than the windows), the far
    tail from x_s + W; the points lie at 0, 1e-9 and beside each window.
    """
    problem = nondimensionalize(harmonic_setup_for(eps))
    b_zeros, s_zeros = map_regions(WkbParameters.from_problem(problem, e, x0=0.0))
    x_t, x_s = b_zeros[1], s_zeros[1]
    w = gupbic.basis.TURNING_WINDOW_HALF_WIDTH
    out = [(0.5 * x_t, (w - x_s, x_s - w), b_zeros,
            [w - x_s, -x_t - w, -1e-9, 0.0, 1e-9, x_t - w, x_t + w, x_s - w])]
    if x_s - x_t > 4 * w:
        out.append((0.5 * (x_t + x_s), (x_t + w, x_s - w), (),
                    [x_t + w, x_t + w + 1e-3, 0.5 * (x_t + x_s) + 0.01, x_s - w]))
    far = x_s + w
    out.append((far + 0.5, (far, math.inf), (), [far, far + 1e-3, far + 2.3, far + 20.0]))
    return problem, out


@pytest.mark.parametrize("eps", [1e-3, 1e-2, 0.2])
def test_harmonic_closed_form_matches_panels_and_mpmath(eps):
    # the closed-form I1 (Carlson's R_F and R_D) and I2 of a quadratic b
    # against Gauss-Legendre panels and against 30-digit quadrature, on the
    # interior piece across both turning points, the forbidden band and the
    # far tail, for both pairs.  Two more points lie 0.1 and 0.01 from x0,
    # where I1 is small: there the error is that of the anchored values
    # whose difference I1 is, about 1e-16 of eta |x0 lam(x0)|
    mp = pytest.importorskip("mpmath")
    for e in (0.3, 5.0, 12.0):
        problem, pieces = _harmonic_pieces(eps, e)
        for x0, piece, b_zeros, points in pieces:
            params = WkbParameters.from_problem(problem, e, x0=x0)
            table = ExponentTable(params, piece, b_zeros)
            assert params.b_chain(0.0)[2] > 0.0
            xs = np.array(points + [x0 - 0.1, x0 + 0.01])
            i1, i2, _, _ = table._closed_sums(xs)  # of the tau = +1 branch of pair sigma = +1, -1
            for k, sigma in enumerate((1.0, -1.0)):
                got = np.stack([i1[k], i2[k]])
                scale = np.maximum(1.0, np.abs(params.eta * got[0]))
                lam0 = table._closed_sums(np.array([x0]))[3][k, 0]
                scale[-2:] = np.maximum(scale[-2:], 1e-2 * params.eta * abs(x0 * lam0))
                refs = (_panel_reference(table, xs, sigma), _mp_harmonic_integrals(mp, table, xs, sigma))
                for ref in refs:
                    err = np.abs(params.eta * (got[0] - ref[0])) / scale
                    assert np.all(err <= 1e-13), (e, x0, sigma, xs[np.argmax(err)], err.max())
                    assert np.all(np.abs(got[1] - ref[1]) <= 1e-12), (e, x0, sigma)


def test_batched_harmonic_table_matches_each_energy():
    # a table over an array of energies takes the closed forms of all of
    # them in one pass, bit for bit as each energy's own table
    problem = nondimensionalize(harmonic_setup_for(0.02))
    energies = np.array([0.3, 2.0, 5.0])
    (_, x_t), (_, x_s) = map_regions(WkbParameters.from_problem(problem, energies, x0=0.0))
    w = gupbic.basis.TURNING_WINDOW_HALF_WIDTH
    t = np.linspace(0.0, 1.0, 7)[:, None]
    band = (x_t + w, x_s - w, x_s - w, 0.5 * (x_t + x_s))
    tail = (x_s + w, x_s + 4.0, np.full(3, np.inf), x_s + 0.5)  # points up to x_s + 4
    for lo, hi, end, x0 in (band, tail):  # neither piece holds a zero of b
        params = WkbParameters.from_problem(problem, energies, x0=x0)
        table = ExponentTable(params, (lo, end), ())
        xs = lo + t * (hi - lo)  # (points, energies)
        # I1, I2, s and lam, with I1, I2 and lam of both pairs (sigma = +1, -1) on a leading axis
        got = table._closed_sums(xs)
        for k, e in enumerate(energies):
            one = WkbParameters.from_problem(problem, e, x0=float(x0[k]))
            alone = ExponentTable(one, (float(lo[k]), float(end[k])), ())
            for g, ref in zip(got, alone._closed_sums(xs[:, k].copy())):
                assert np.array_equal(g[..., k], ref), e


def test_harmonic_exponents_below_the_minimum_raise():
    # the elliptic reduction needs e > 0 over the minimum of the potential
    problem = nondimensionalize(harmonic_setup_for(0.02))
    params = WkbParameters.from_problem(problem, -1.0, x0=1.0)
    w = WkbBasisFunction(ExponentTable(params, (0.5, 2.0), ()), 1)  # b > 0: no turning point
    with pytest.raises(PreconditionError, match="above its minimum"):
        w.exponent(1.5)
    batch = WkbParameters.from_problem(problem, np.array([2.0, -1.0]), x0=np.array([1.0, 1.0]))
    with pytest.raises(PreconditionError) as info:
        WkbBasisFunction(ExponentTable(batch, (np.array([0.5, 0.5]), np.array([1.2, 2.0])), ()), 1).exponent(0.9)
    assert info.value.failed.tolist() == [False, True]


def test_carlson_integrals_match_scipy():
    # the numpy duplication loop against scipy.special.elliprf/elliprd on
    # complex arguments off the negative axis (moduli 1e-300 ... 1e3, phases
    # up to 3 rad), real ones and arguments at or near 0
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(3)

    def draw(lo, hi, n=400):
        return 10.0 ** rng.uniform(lo, hi, n) * np.exp(1j * rng.uniform(-3.0, 3.0, n))

    cases = [
        (draw(-6, 3), draw(-6, 3), draw(-6, 3)),
        (draw(-300, -8), draw(-2, 2), draw(-2, 2)),
        (draw(-2, 2), np.zeros(400, dtype=complex), draw(-2, 2)),
        tuple(10.0 ** rng.uniform(-8, 3, (3, 400))),
        (np.zeros(3), np.array([1.0, 1e-12, 5.0]), np.array([2.0, 1.0, 1e-9])),
    ]
    for x, y, z in cases:
        rf, rd = gupbic.basis._carlson_fd(x, y, z)
        for got, ref in ((rf, special.elliprf(x, y, z)), (rd, special.elliprd(x, y, z))):
            assert np.all(np.abs(got - ref) <= 4e-15 * np.abs(ref)), np.max(np.abs(got / ref - 1))


def test_no_potential_walks_panels(monkeypatch, linear_problem, harmonic_problem):
    # every exponent is a closed form: no exponent call of a linear or
    # harmonic count, bound state set or far-field launch frame reaches
    # panels.panel_integrals, which the Gram and the moments still use
    import sys

    from gupbic.basis import ExponentTable
    from gupbic.matcher import bound_states, degrees_of_freedom
    from gupbic.oracle import growth_exponents_many

    depth, calls, walks = [0], [], []
    logs = ExponentTable.logs

    def tracked_logs(self, x, branches):
        calls.append(self)
        depth[0] += 1
        try:
            return logs(self, x, branches)
        finally:
            depth[0] -= 1

    def recording(original):
        def panel_integrals(*args):
            walks.append(depth[0])
            return original(*args)

        return panel_integrals

    monkeypatch.setattr(ExponentTable, "logs", tracked_logs)
    for name, module in list(sys.modules.items()):
        if name.startswith("gupbic") and hasattr(module, "panel_integrals"):
            monkeypatch.setattr(module, "panel_integrals", recording(module.panel_integrals))
    for e in (0.5, 2.0, 7.5, 15.0):
        assert degrees_of_freedom(linear_problem, e)[0] == 1
        assert len(bound_states(linear_problem, e).states) == 1
        assert growth_exponents_many([(linear_problem, e, "+inf", None)])[0].shape == (4,)
    harmonic = bound_states(harmonic_problem, 1.7)
    assert len(harmonic.states) == 2
    # the harmonic Gram integrates exponent values on panels, and no walk starts inside one
    assert any(t.params.b_chain(0.0)[2] for t in calls) and walks
    assert not any(walks), "an exponent call reached panel_integrals"


def _classify_point_by_point(exponent, probes, samples_per_interval=7):
    """A sampled class: the rise or fall of max log|f| over probe-to-probe intervals, log f = ``exponent``.

    Samples in a turning window or with a non-finite log are skipped; None
    when the envelope moves by less than a factor 10 either way.
    """

    def safe_log_abs(x):
        try:
            value = float(np.real(exponent(x)))
        except ValidityError:
            return None
        return value if math.isfinite(value) else None

    env_logs = []
    for a, b in zip(probes[:-1], probes[1:]):
        valid = [v for x in np.linspace(a, b, samples_per_interval) if (v := safe_log_abs(x)) is not None]
        if len(valid) < 3:
            return None
        env_logs.append(max(valid))
    growth = env_logs[-1] - env_logs[0]
    if growth >= math.log(10.0):
        return AsymptoticClass.GROWING
    if growth <= -math.log(10.0):
        return AsymptoticClass.DECAYING
    return None


@pytest.mark.parametrize("kind", ["linear", "harmonic"])
def test_far_classes_closed_form_match_classification(kind):
    # past the last zero of a^2 - b the class of branch j is the sign tau_j
    # of Re(eta lam_j): the classes of the count's own set must equal the
    # sampled envelope of each branch along the far piece
    setup_for = linear_setup_for if kind == "linear" else harmonic_setup_for
    sides = [Side.PLUS_INFINITY] + ([Side.MINUS_INFINITY] if kind == "harmonic" else [])
    compared = 0
    for eps in (1e-4, 1e-2, 0.2):
        problem = nondimensionalize(setup_for(eps))
        for e in (1.5, 3.0, 5.0, 7.5, 10.0):
            basis = wkb_assembly(problem, e).basis
            far = _far_branches(problem, e, even=basis.even)
            lo = far.table.interval[0]
            probes = np.linspace(lo + 0.25, lo + 4.25, 5)
            for side in sides:
                classes = classify_asymptotics(basis, side)
                assert len(classes) == 4
                for j, got in enumerate(classes, 1):
                    f = _branch(far, j)
                    # the even continuation reads its branch at |x|
                    exponent = (lambda x, f=f: f.exponent(abs(x))) if far.even else f.exponent
                    outward = probes if side is Side.PLUS_INFINITY else -probes
                    expected = _classify_point_by_point(exponent, outward)
                    assert got is expected, (eps, e, f, side)
                    compared += 1
    assert compared == 3 * 5 * 4 * len(sides)


def _zeros_by_brentq(f, lo, hi, n=2001):
    from scipy.optimize import brentq

    xs = np.linspace(lo, hi, n)
    vals = f(xs)
    cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    return [brentq(f, xs[i], xs[i + 1], xtol=1e-15) for i in cells]


def test_closed_form_zeros_match_brentq():
    cases = 0
    for setup_for, hi in ((linear_setup_for, 3000.0), (harmonic_setup_for, 60.0)):
        for eps in (1e-4, 1e-2, 0.2):
            problem = nondimensionalize(setup_for(eps))
            lo = 0.0 if problem.kind == "linear" else -hi
            for e in (0.3, 1.5, 7.5, 12.0):
                params = WkbParameters.from_problem(problem, e, x0=0.0)
                # the whole line: every zero lies in [lo, hi]
                b_zeros, s_zeros = map_regions(params)
                for got, f in ((b_zeros, params.b), (s_zeros, lambda x, p=params: p.a_coef**2 - p.b(x))):
                    want = _zeros_by_brentq(f, lo, hi)
                    assert len(got) == len(want)
                    for z, w in zip(got, want):
                        assert abs(z - w) <= 1e-13 * max(1.0, abs(w))
                cases += 1
    assert cases == 2 * 3 * 4


def test_dof_scan_makes_no_scalar_quad_calls(monkeypatch):
    # the WKB exponent integrals are closed forms; a scalar quad call from
    # basis would mean a per-point quadrature is back
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


def test_capped_exp_keeps_a_nan_exponent_nan():
    # a NaN exponent is no underflow: its entry stays NaN, for a float and an array
    assert cmath.isnan(gupbic.basis._capped_exp(complex(math.nan, 0.0), 0.5, "WKB"))
    got = gupbic.basis._capped_exp(np.array([math.nan, -800.0, 0.0]) + 0j, np.zeros(3), "WKB")
    assert np.isnan(got[0]) and got[1] == 0.0 and got[2] == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_exponent_row_is_refused(monkeypatch, linear_problem):
    # a NaN exponent at the wall poisons its value row, which the nullity
    # then refuses as non-finite: it never counts as a row of no constraint.
    # The NaN enters I1 of the pair sigma = +1 (branches 1 and 2) where the
    # value-row pass reads it, the table's closed sums
    from gupbic.matcher import assemble, conditions_for, nullity_of

    asm = wkb_assembly(linear_problem, 2.0)
    table = asm.basis.table
    closed_sums = table._closed_sums

    def poisoned(xs):
        i1, *rest = closed_sums(xs)
        return (np.array([np.where(xs == 0.0, math.nan, i1[0]), i1[1]]), *rest)

    monkeypatch.setattr(table, "_closed_sums", poisoned)
    row = asm.basis.point_rows([(0.0, 0)])[0]
    assert np.isnan(row).all()  # branches 1 and 2 are NaN, and the shift carries it to 3 and 4
    system = assemble(asm.basis, conditions_for(linear_problem), 2.0)
    with pytest.raises(PreconditionError, match="non-finite"):
        nullity_of(system)


def test_array_derivatives_match_point_by_point():
    # a set's derivatives(x, order, [j]) takes an array of any shape and
    # returns (1, order + 1) + shape(x), each column equal to the scalar call
    well = nondimensionalize(reference_well_setup())
    exact = exact_constant_basis(characteristic_roots(well.epsilon, 2.5), well.domain)
    linear = wkb_assembly(nondimensionalize(linear_setup_for(0.02)), 2.0).basis
    harmonic = wkb_assembly(nondimensionalize(harmonic_setup_for(0.02)), 1.7).basis
    lo, hi = harmonic.table.interval
    cases = [(exact, np.linspace(-1.0, 1.0, 12)), (linear, np.linspace(0.1, 1.5, 12))]
    # both mirror pieces of the even continuation
    cases += [(harmonic, np.concatenate([np.linspace(-hi, -lo, 6), np.linspace(lo, hi, 6)]))]
    for basis, xs in cases:
        for j in range(4):
            grid = xs.reshape(3, 4)
            arr = basis.derivatives(grid, 4, [j])[0]
            pts = np.stack([basis.derivatives(float(x), 4, [j])[0] for x in xs], axis=-1).reshape(5, 3, 4)
            assert arr.shape == (5, 3, 4)
            assert np.all(np.abs(arr - pts) <= 1e-14 * np.abs(pts).max(axis=(1, 2), keepdims=True))


@pytest.mark.parametrize("kind", ["linear", "harmonic"])
def test_float_derivatives_are_the_one_point_array_ones_bit_for_bit(kind):
    # a float x and the array [x] take the same abscissas through the
    # table, the value and the chains of s and lam, so every order has the
    # same bits, the signs of zeros included
    problem = nondimensionalize((linear_setup_for if kind == "linear" else harmonic_setup_for)(0.02))
    basis = wkb_assembly(problem, 2.0).basis
    if kind == "linear":
        xs = [0.0, 0.05, 0.3, 0.8, 1.2, 2.5, 3.5]  # both sides of the turning window at x_t = 2
    else:
        lo, hi = basis.table.interval
        xs = [lo, 0.5 * (lo + hi), hi, -lo, -0.5 * (lo + hi), -hi, 0.25 * lo + 0.75 * hi]
    for j in range(4):
        for x in xs:
            at_float = basis.derivatives(x, 4, [j])[0]
            at_array = basis.derivatives(np.array([x]), 4, [j])[0, :, 0]
            assert at_float.shape == (5,)
            assert np.array_equal(at_float.view(np.int64), np.ascontiguousarray(at_array).view(np.int64)), (j, x)


def _scalar_quadratic_roots(c2, c1, c0):
    """The one-equation formula: the real roots of c2 x^2 + c1 x + c0, ascending."""
    if c2 == 0.0:
        return [-c0 / c1] if c1 != 0.0 else []
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [-0.5 * c1 / c2]
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return sorted([q / c2, c0 / q])


@pytest.mark.parametrize(
    "c2, c1, c0s",
    [
        (1.0, 2.0, [1.0, 0.5, 2.0, -3.0, 0.0]),  # disc = 0, > 0, < 0, a root at 0
        (1.0, -2.0, [1.0, 0.5, 2.0, -3.0]),
        (-0.5, 3.0, [-4.5, -5.0, 7.0]),  # disc = 0 at c0 = c1^2 / (4 c2), then < 0, > 0
        (0.25, 0.0, [-1.0, 0.0, 1.0]),  # the harmonic b: c1 = 0
        (0.0, 1.5, [-2.0, 0.0, 3.0]),  # the linear b: one root
        (0.0, -1.5, [-2.0, 3.0]),
        (0.0, 0.0, [-2.0, 0.0, 3.0]),  # no root
    ],
)
def test_batched_quadratic_roots_match_the_scalar_formula(c2, c1, c0s):
    # one array of c0 (one per energy) gives per energy the roots of the
    # one-equation formula, bit for bit, NaN where a root does not exist
    batched = gupbic.basis._quadratic_roots(c2, c1, np.array(c0s))
    assert batched.shape == (2, len(c0s))
    for i, c0 in enumerate(c0s):
        want = _scalar_quadratic_roots(c2, c1, c0)
        got = [float(r) for r in batched[:, i] if not math.isnan(r)]
        assert got == want, (c2, c1, c0)
        assert np.isnan(batched[len(want) :, i]).all()
        # a float c0 is the batch of one
        alone = gupbic.basis._quadratic_roots(c2, c1, c0)
        assert np.array_equal(alone, batched[:, i], equal_nan=True)


@given(
    c2=st.sampled_from([0.0, 0.5, -2.0]),
    c1=st.floats(-10.0, 10.0),
    c0s=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12),
)
@settings(max_examples=80, deadline=None)
def test_batched_quadratic_roots_match_the_scalar_formula_anywhere(c2, c1, c0s):
    batched = gupbic.basis._quadratic_roots(c2, c1, np.array(c0s))
    for i, c0 in enumerate(c0s):
        got = [float(r) for r in batched[:, i] if not math.isnan(r)]
        assert got == _scalar_quadratic_roots(c2, c1, c0)
