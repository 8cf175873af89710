import math
import warnings

import numpy as np
import pytest

from gupbic import (
    PhysicalSetup,
    characteristic_roots,
    decaying_subspace_dimension,
    exact_constant_basis,
    growth_exponents,
    integrate,
    momentum_rep_linear,
    nondimensionalize,
    residual,
    wronskian,
    wronskian_drift,
)
from gupbic.errors import NumericalError, PreconditionError, WrongPotentialError
from gupbic.matcher import StateFunction, bound_states
from gupbic.verification import (
    REFERENCE_HALF_WIDTH,
    beta_for_epsilon,
    check_wronskian_constancy,
    reference_well_setup,
    harmonic_setup_for,
    linear_setup_for,
    momentum_dimension_evidence,
    standard_harmonic_mismatch,
)

E1_DIMLESS = 2.918779290241783


@pytest.fixture
def propagator_calls(monkeypatch):
    """The interval count of every oracle._propagators call made in the test."""
    from gupbic import oracle

    calls = []
    real = oracle._propagators

    def counting(problem, energy, dim, starts, ends, rtol, atol):
        calls.append(len(starts))
        return real(problem, energy, dim, starts, ends, rtol, atol)

    monkeypatch.setattr(oracle, "_propagators", counting)
    return calls


class TestIntegrate:
    def test_sine_boundary_shot(self, well_problem):
        kap = math.pi / 2.0
        states = integrate(well_problem, E1_DIMLESS, [0.0, kap, 0.0, -kap**3], -1.0, [1.0])
        assert states.shape == (4, 1)
        assert abs(states[0, 0]) < 1e-9

    def test_zero_initial_stays_zero(self, well_problem):
        states = integrate(well_problem, E1_DIMLESS, [0, 0, 0, 0], -1.0, np.linspace(-1, 1, 9))
        assert np.max(np.abs(states)) == 0.0

    def test_linearity(self, well_problem):
        u = np.array([0.3, -0.1, 0.2, 0.5], dtype=complex)
        v = np.array([1.0, 0.4, -0.7, 0.1], dtype=complex)
        a, b = 1.7, -0.6
        xs = [-0.5, 0.0, 0.9]
        su = integrate(well_problem, 5.0, u, -1.0, xs)
        sv = integrate(well_problem, 5.0, v, -1.0, xs)
        sc = integrate(well_problem, 5.0, a * u + b * v, -1.0, xs)
        assert np.allclose(sc, a * su + b * sv, rtol=1e-9, atol=1e-11)

    def test_convergence_under_tolerance_halving(self, well_problem):
        # error against the exact solution shrinks as rtol tightens
        roots = characteristic_roots(well_problem.epsilon, 5.0)
        basis = exact_constant_basis(roots, well_problem.domain)
        state = StateFunction(np.array([0.02, 0.5, 0.7, 0.3]), basis)
        init = state.derivatives(-1.0, order=3)
        xs = np.linspace(-1, 1, 21)
        errors = []
        for rtol in (1e-7, 1e-9, 1e-11):
            phi = integrate(well_problem, 5.0, init, -1.0, xs, rtol=rtol, atol=rtol * 1e-2)[0]
            errors.append(np.max(np.abs(phi - state.values(xs))))
        assert errors[0] > errors[1] > errors[2]

    def test_tolerance_precondition(self, well_problem):
        with pytest.raises(PreconditionError):
            integrate(well_problem, 5.0, [1, 0, 0, 0], -1.0, [1.0], rtol=1e-3)

    @pytest.mark.parametrize("rtol", [1e-11, 1e-13])
    def test_closed_form_well_state_at_201_points(self, well_problem, rtol):
        # the exact-well check's chain of 200 intervals, at the default
        # tolerance and at the floor; no warning may be raised
        roots = characteristic_roots(well_problem.epsilon, 5.0)
        state = StateFunction(np.array([0.05, 0.4, 0.7, 0.55]), exact_constant_basis(roots, well_problem.domain))
        xs = np.linspace(-1.0, 1.0, 201)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = integrate(well_problem, 5.0, state.derivatives(-1.0, order=3), -1.0, xs, rtol=rtol)
        exact = np.asarray(state.derivatives(xs, order=3))
        assert states.shape == (4, 201)
        for got, ref in zip(states, exact):
            assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))

    def test_two_sided_grid_is_two_one_sided_marches(self, well_problem, propagator_calls):
        # from a middle launch point each side marches outward on its own,
        # and both sides' intervals go into one propagator call
        init = np.array([0.3, -0.1, 0.2, 0.5])
        xs = np.array([0.4, -0.9, 0.1, 0.0, -0.2, 0.95, -0.5])
        left, right = xs[xs < 0.0], xs[xs >= 0.0]
        expected = np.empty((4, xs.size), dtype=complex)
        expected[:, xs < 0.0] = integrate(well_problem, 5.0, init, 0.0, left)
        expected[:, xs >= 0.0] = integrate(well_problem, 5.0, init, 0.0, right)
        del propagator_calls[:]
        states = integrate(well_problem, 5.0, init, 0.0, xs)
        assert propagator_calls == [7]
        assert np.linalg.norm(states - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_two_component_initial_selects_standard_mode(self, well_problem):
        # phi'' = (v - e) phi with v = 0 inside the well and e = -k^2: the
        # solution launched as (1, 0) at x = -1 is cosh(k (x + 1))
        k = 1.5
        xs = np.linspace(-1.0, 1.0, 41)
        states = integrate(well_problem, -(k**2), [1.0, 0.0], -1.0, xs)
        assert states.shape == (2, 41)
        exact = np.array([np.cosh(k * (xs + 1.0)), k * np.sinh(k * (xs + 1.0))])
        np.testing.assert_allclose(states.real, exact, rtol=1e-9, atol=1e-12)
        assert np.max(np.abs(states.imag)) == 0.0
        with pytest.raises(PreconditionError):
            integrate(well_problem, 5.0, [1.0, 0.0, 0.0], -1.0, xs)


class TestCompanionRhs:
    def test_stacked_frame_matches_single_vectors(self, linear_problem):
        # one call on a flattened (4, k) frame equals k single-vector calls,
        # and each single-vector call is the companion row formula itself
        from gupbic.oracle import companion_rhs

        rng = np.random.default_rng(7)
        frame = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        e, x = 2.0, 1.3
        rhs = companion_rhs(linear_problem, e)
        stacked = rhs(x, frame.reshape(-1)).reshape(4, 5)
        eps, v = linear_problem.epsilon, linear_problem.v_derivs(x)[0]
        for k in range(5):
            y = frame[:, k]
            single = rhs(x, y)
            assert np.array_equal(stacked[:, k], single)
            formula = np.array([y[1], y[2], y[3], (e - v) / eps * y[0] + y[2] / eps])
            assert np.array_equal(single, formula)

    def test_standard_rhs_stacked_frame_matches_single_vectors(self, harmonic_problem):
        from gupbic.oracle import standard_rhs

        rng = np.random.default_rng(8)
        frame = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        e, x = 1.7, -0.6
        rhs = standard_rhs(harmonic_problem, e)
        stacked = rhs(x, frame.reshape(-1)).reshape(2, 3)
        v = harmonic_problem.v_derivs(x)[0]
        for k in range(3):
            y = frame[:, k]
            single = rhs(x, y)
            assert np.array_equal(stacked[:, k], single)
            assert np.array_equal(single, np.array([y[1], (v - e) * y[0]]))


class TestWronskian:
    def test_drift_integrates_once(self, well_problem, propagator_calls):
        drift = wronskian_drift(well_problem, 5.0, np.linspace(-1, 1, 9), anchor=0.0)
        assert drift < 1e-8
        # both sides of the anchor in one propagator call, one interval per point
        assert propagator_calls == [9]

    def test_scipy_names_are_patchable_module_attributes(self, well_problem, monkeypatch):
        # scipy loads on first use, and quad and solve_ivp stay module
        # attributes, but the oracle's integrations call neither
        from scipy.integrate import quad

        from gupbic import basis, matcher, oracle, spectrum

        for module in (basis, matcher, spectrum, oracle):
            assert callable(vars(module)["quad"])
        assert callable(vars(oracle)["solve_ivp"])
        assert oracle.quad(math.cos, 0.0, 1.0) == quad(math.cos, 0.0, 1.0)

        calls = []
        real = oracle.solve_ivp

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "solve_ivp", counting)
        integrate(well_problem, 5.0, [1.0, 0.0, 0.0, 0.0], -1.0, [1.0])
        wronskian(well_problem, 5.0, 0.5, anchor=0.0)
        growth_exponents(nondimensionalize(harmonic_setup_for(0.02)), 1.7, "+inf")
        assert calls == []

    def test_frame_of_an_array_is_the_stack_of_frames(self, well_problem):
        # a frame marches as its columns do, each launched on its own
        xs = np.array([-0.8, 0.0, 0.3, 0.9])
        frame = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, -0.4], [0.5, 0.0, 1.0], [0.0, 0.3, 0.7]])
        frames = integrate(well_problem, 5.0, frame, 0.0, xs)
        assert frames.shape == (4, 3, 4)
        for j in range(3):
            column = integrate(well_problem, 5.0, frame[:, j], 0.0, xs)
            assert np.linalg.norm(frames[:, j] - column) <= 1e-14 * np.linalg.norm(column)
        assert np.array_equal(frames[..., 1], frame)

    def test_canonical_frame_is_identity_determinant(self, well_problem):
        assert wronskian(well_problem, 5.0, 0.3, anchor=0.3) == pytest.approx(1.0)

    def test_constant_along_domain(self, well_problem):
        drift = wronskian_drift(well_problem, 5.0, np.linspace(-1, 1, 9), anchor=0.0)
        assert drift < 1e-8

    def test_thirty_frames_at_the_rtol_floor_do_not_clamp(self, well_problem):
        # 30 frames at the smallest accepted rtol, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            drift = wronskian_drift(well_problem, 5.0, np.linspace(-1, 1, 31), anchor=0.0, rtol=1e-13)
        assert drift < 1e-8

    def test_randomized_battery(self):
        result = check_wronskian_constancy(n_cases=9, seed=11)
        assert result.passed, result

    def test_wronskian_integrates_away_from_the_anchor(self, well_problem, propagator_calls):
        w = wronskian(well_problem, 5.0, 0.5, anchor=0.0)
        assert propagator_calls == [1]
        assert abs(w - 1.0) < 1e-10

    def test_dependent_initials_give_zero(self, well_problem):
        initials = np.eye(4, dtype=complex)
        initials[:, 3] = 0.25 * initials[:, 0] - 2.0 * initials[:, 1]
        frame = integrate(well_problem, 5.0, initials, 0.0, [0.5])[..., 0]
        assert abs(np.linalg.det(frame)) < 1e-10

    def test_arity_guard(self, well_problem):
        for initial in (np.eye(4)[:3], np.eye(4)[:, :, None], 1.0):
            with pytest.raises(PreconditionError):
                integrate(well_problem, 5.0, initial, 0.0, [0.5])


class TestResidual:
    def test_exact_solution(self, well_problem):
        roots = characteristic_roots(well_problem.epsilon, E1_DIMLESS)
        basis = exact_constant_basis(roots, well_problem.domain)
        state = StateFunction(np.array([0.1, 0.2, 0.5, 0.7]), basis)
        grid = np.linspace(-0.99, 0.99, 100)
        assert residual(state, well_problem, E1_DIMLESS, grid) < 1e-10

    def test_vanishing_points_read_roundoff(self):
        # the odd well state (beta 1e44, E = 2e-19 J) vanishes with its second
        # and fourth derivatives at x = 0, and every state vanishes at the walls;
        # a grid through those points must not read 0/0
        setup = reference_well_setup(beta=1e44)
        problem = nondimensionalize(setup)
        grid = np.linspace(-1.0, 1.0, 201)
        assert 0.0 in grid
        for orthogonalize in (True, False):
            sol = bound_states(problem, problem.energy_from_si(2e-19), orthogonalize=orthogonalize)
            assert sol.degeneracy == 2
            for st in sol.states:
                assert residual(st, problem, sol.energy_dimensionless, grid) <= 1e-12

    def test_corrupted_state_flagged(self, well_problem):
        # phi + 0.01*x on the unit-normalized sine: the defect must stand out
        roots = characteristic_roots(well_problem.epsilon, E1_DIMLESS)
        basis = exact_constant_basis(roots, well_problem.domain)
        kap = roots.kappa
        state = StateFunction(np.array([0, 0, math.sin(kap), math.cos(kap)]), basis)

        def corrupted(x, order):
            d = state.derivatives(x, order=order)
            d[0] += 0.01 * x
            d[1] += 0.01
            return d

        grid = np.linspace(-0.99, 0.99, 100)
        assert residual(corrupted, well_problem, E1_DIMLESS, grid) > 1e-2

    def test_wkb_fast_branch_trend(self):
        # omega_2 residual shrinks with epsilon (1e-3 -> below 1e-2; 1e-4 smaller)
        from gupbic.basis import WkbParameters, map_regions, wkb_basis

        values = []
        for eps in (1e-3, 1e-4):
            problem = nondimensionalize(linear_setup_for(eps))
            params = WkbParameters.from_problem(problem, 2.0, x0=3.0)
            rmap = map_regions(params, 2.4, 4.5)
            w2 = wkb_basis(params, 2, (2.4, 4.5), region_map=rmap)
            values.append(residual(w2, problem, 2.0, np.linspace(2.5, 4.4, 40)))
        assert values[0] < 1e-2
        assert values[1] < values[0]


class TestDecayingSubspace:
    def test_fourth_order_dimensions(self):
        lin = nondimensionalize(linear_setup_for(0.02))
        assert decaying_subspace_dimension(lin, 2.0, "+inf") == 2
        har = nondimensionalize(harmonic_setup_for(0.02))
        assert decaying_subspace_dimension(har, 1.7, "+inf") == 2
        assert decaying_subspace_dimension(har, 1.7, "-inf") == 2

    def test_standard_mode_dimensions(self):
        har = nondimensionalize(harmonic_setup_for(0.02))
        assert decaying_subspace_dimension(har, 1.7, "+inf", standard=True) == 1
        assert decaying_subspace_dimension(har, 1.7, "-inf", standard=True) == 1

    def test_launch_outside_forbidden_region_rejected(self):
        lin = nondimensionalize(linear_setup_for(0.02))
        with pytest.raises(PreconditionError):
            decaying_subspace_dimension(lin, 2.0, "+inf", x_far=1.0)

    def test_bounded_side_rejected(self, well_problem):
        with pytest.raises(PreconditionError):
            decaying_subspace_dimension(well_problem, 5.0, "+inf")

    def test_march_integrates_once(self, propagator_calls):
        har = nondimensionalize(harmonic_setup_for(0.02))
        assert decaying_subspace_dimension(har, 1.7, "-inf") == 2
        assert propagator_calls == [24]  # no segment grows past e^3 at eps 0.02

    def test_exponents_near_zero_are_not_counted(self):
        from gupbic.oracle import bounded_dimension

        assert bounded_dimension(np.array([9.0, 2.4, -4.3, -7.1])) == 2
        with pytest.raises(NumericalError):
            bounded_dimension(np.array([9.0, 0.3, -4.3, -7.1]))

    @staticmethod
    def _reference_growth(problem, energy, side, standard):
        # the march one segment at a time, over the march's own segments:
        # each solve_ivp carries the orthonormal frame q itself across its segment
        from scipy.integrate import solve_ivp

        from gupbic import oracle

        sgn = 1.0 if side == "+inf" else -1.0
        x_far = sgn * oracle._auto_far_point(problem, energy, sgn)
        anchor = oracle._auto_anchor(problem, energy, sgn, x_far)
        if standard:
            r = math.sqrt(problem.v_derivs(x_far)[0] - energy)
            frame = np.array([[1.0, 1.0], [-sgn * r, sgn * r]], dtype=complex)
            rhs, dim = oracle.standard_rhs(problem, energy), 2
        else:
            frame = oracle._wkb_frame_at(problem, energy, x_far, math.copysign(1.0, anchor - x_far))
            rhs, dim = oracle.companion_rhs(problem, energy), 4
        q, _ = np.linalg.qr(frame)
        growth = np.zeros(dim)
        xs = oracle._march_points(problem, energy, dim, x_far, anchor, 24)
        for a, b in zip(xs[:-1], xs[1:]):
            sol = solve_ivp(rhs, (a, b), q.reshape(-1), method="DOP853", rtol=1e-11, atol=1e-13)
            q, r = np.linalg.qr(sol.y[:, -1].reshape(dim, dim))
            growth += np.log(np.abs(np.diag(r)))
        return growth

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 0.02, 0.2])
    @pytest.mark.parametrize("standard", [False, True], ids=["fourth-order", "standard"])
    def test_exponents_sum_to_zero(self, eps, standard):
        # trace A = 0, so by Abel's formula the log-growths of a whole frame sum to 0
        lin = nondimensionalize(linear_setup_for(eps))
        har = nondimensionalize(harmonic_setup_for(eps))
        for problem, energy, side in ((lin, 2.0, "+inf"), (har, 1.7, "+inf"), (har, 1.7, "-inf")):
            growth = growth_exponents(problem, energy, side, standard=standard)
            assert abs(growth.sum()) <= 1e-9 * np.max(np.abs(growth))

    def test_march_splits_only_where_a_segment_would_grow_past_e3(self, propagator_calls):
        # checkpoints is a minimum: 24 segments at eps 0.02, more at eps 1e-4
        for eps in (0.02, 1e-4):
            growth_exponents(nondimensionalize(linear_setup_for(eps)), 2.0, "+inf")
        assert propagator_calls[0] == 24
        assert propagator_calls[1] > 24

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 0.02, 0.2])
    @pytest.mark.parametrize("standard", [False, True], ids=["fourth-order", "standard"])
    def test_batched_march_matches_per_segment_march(self, eps, standard):
        from gupbic.oracle import bounded_dimension

        lin = nondimensionalize(linear_setup_for(eps))
        har = nondimensionalize(harmonic_setup_for(eps))
        for problem, energy, side in ((lin, 2.0, "+inf"), (har, 1.7, "+inf"), (har, 1.7, "-inf")):
            growth = growth_exponents(problem, energy, side, standard=standard)
            reference = self._reference_growth(problem, energy, side, standard)
            np.testing.assert_allclose(growth, reference, rtol=1e-8, atol=0.0)
            assert bounded_dimension(growth) == (1 if standard else 2)


class TestPropagators:
    @staticmethod
    def _problem(kind, eps):
        if kind == "well":
            return nondimensionalize(reference_well_setup(beta=beta_for_epsilon(eps, REFERENCE_HALF_WIDTH)))
        return nondimensionalize((linear_setup_for if kind == "linear" else harmonic_setup_for)(eps))

    def test_batched_intervals_match_single_interval_solves(self, harmonic_problem):
        from scipy.integrate import solve_ivp

        from gupbic.oracle import DEFAULT_ATOL, DEFAULT_RTOL, _propagators, companion_rhs

        # long and short intervals, both directions, one of zero width
        starts = np.array([0.0, 0.0, -1.5, 0.7, 1.2, 0.3, -0.4])
        ends = np.array([1.5, -1.5, 0.0, 0.71, 1.2, 0.29, 1.1])
        rhs = companion_rhs(harmonic_problem, 1.7)
        batched = _propagators(harmonic_problem, 1.7, 4, starts, ends, DEFAULT_RTOL, DEFAULT_ATOL)
        assert batched.shape == (starts.size, 4, 4)
        for a, b, u in zip(starts, ends, batched):
            if a == b:
                assert np.array_equal(u, np.eye(4))
                continue
            sol = solve_ivp(
                rhs, (a, b), np.eye(4).reshape(-1), method="DOP853",
                rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
            )
            single = sol.y[:, -1].reshape(4, 4)
            assert np.linalg.norm(u - single) <= 1e-9 * np.linalg.norm(single)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 0.02, 0.2])
    @pytest.mark.parametrize("dim", [4, 2])
    @pytest.mark.parametrize("kind", ["well", "linear", "harmonic"])
    def test_matches_tight_dop853(self, kind, dim, eps):
        # each interval against its own DOP853 solve at rtol 1e-13, forward and reversed
        from scipy.integrate import solve_ivp

        from gupbic.oracle import DEFAULT_ATOL, DEFAULT_RTOL, _propagators, companion_rhs, standard_rhs

        problem = self._problem(kind, eps)
        starts = np.array([0.3, 0.9, 0.9, 0.5, 1.2])
        ends = np.array([0.9, 0.3, 0.91, 0.75, 0.45])
        rhs = (companion_rhs if dim == 4 else standard_rhs)(problem, 1.7)
        batched = _propagators(problem, 1.7, dim, starts, ends, DEFAULT_RTOL, DEFAULT_ATOL)
        for a, b, u in zip(starts, ends, batched):
            sol = solve_ivp(rhs, (a, b), np.eye(dim).reshape(-1), method="DOP853", rtol=1e-13, atol=1e-15)
            ref = sol.y[:, -1].reshape(dim, dim)
            assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("eps", [1e-4, 0.02, 0.2])
    @pytest.mark.parametrize("kind", ["well", "linear", "harmonic"])
    def test_unit_determinant(self, kind, eps):
        # Abel: trace A = 0; each interval grows by a few e-folds at most
        # here, so the determinant is read to roundoff
        from gupbic.oracle import DEFAULT_ATOL, DEFAULT_RTOL, _propagators

        problem = self._problem(kind, eps)
        starts = np.linspace(0.3, 1.2, 7)
        ends = starts + np.array([1.0, -1.0, 3.0, -3.0, 0.5, 2.0, -2.0]) * math.sqrt(eps)
        for dim in (4, 2):
            u = _propagators(problem, 1.7, dim, starts, ends, DEFAULT_RTOL, DEFAULT_ATOL)
            np.testing.assert_allclose(np.linalg.det(u), 1.0, rtol=0.0, atol=1e-12)

    def test_zero_width_interval_is_exactly_the_identity(self, harmonic_problem):
        from gupbic.oracle import DEFAULT_ATOL, DEFAULT_RTOL, _propagators

        for dim in (4, 2):
            u = _propagators(harmonic_problem, 1.7, dim, [0.4, 0.7], [0.4, 0.9], DEFAULT_RTOL, DEFAULT_ATOL)
            assert np.array_equal(u[0], np.eye(dim))
            assert not np.array_equal(u[1], np.eye(dim))

    def test_cubic_potential_is_refused(self, harmonic_problem):
        # the recurrence is exact for v of degree <= 2 only
        import dataclasses

        from gupbic.oracle import DEFAULT_ATOL, DEFAULT_RTOL, _propagators

        cubic = dataclasses.replace(
            harmonic_problem, v_derivs=lambda x: (x**3, 3.0 * x**2, 6.0 * x, 6.0, 0.0)
        )
        with pytest.raises(PreconditionError, match="degree <= 2"):
            _propagators(cubic, 1.7, 4, [0.0], [0.5], DEFAULT_RTOL, DEFAULT_ATOL)
        with pytest.raises(PreconditionError, match="degree <= 2"):
            integrate(cubic, 1.7, [1.0, 0.0], 0.0, [0.5])


@pytest.fixture(scope="module")
def lin():
    setup = linear_setup_for(0.01)
    problem = nondimensionalize(setup)
    return setup, problem


class TestMomentumRepresentation:

    def test_ode_residual_100_probes(self, lin):
        setup, problem = lin
        sol = momentum_rep_linear(setup, problem.energy_to_si(2.0))
        probes = np.linspace(-6.0, 6.0, 100)
        assert max(sol.ode_residual(p) for p in probes) < 1e-10

    def test_antiderivative_verified_by_quadrature(self, lin):
        setup, problem = lin
        sol = momentum_rep_linear(setup, problem.energy_to_si(2.0))
        assert sol.phase_quadrature_check(np.linspace(-4.0, 4.0, 9)) < 1e-10

    def test_finite_difference_derivative(self, lin):
        setup, problem = lin
        sol = momentum_rep_linear(setup, problem.energy_to_si(2.0))
        h = 1e-6
        for p in np.linspace(-3.0, 3.0, 11):
            fd = (sol(p + h) - sol(p - h)) / (2.0 * h)
            assert abs(fd - sol.derivative(p)) < 1e-7 * max(abs(sol.derivative(p)), 1.0)

    def test_beta_zero_standard_phase(self, lin):
        setup, problem = lin
        setup0 = PhysicalSetup(mass=setup.mass, beta=0.0, potential=setup.potential)
        sol = momentum_rep_linear(setup0, problem.energy_to_si(2.0))
        for p in (-2.0, 0.5, 3.0):
            expected = (p**3 / 3.0 - 2.0 * p) / sol.gamma
            assert sol.phase(p) == pytest.approx(expected, rel=1e-13)

    def test_beta_to_zero_pointwise_convergence(self, lin):
        setup, problem = lin
        e_si = problem.energy_to_si(2.0)
        sol0 = momentum_rep_linear(
            PhysicalSetup(mass=setup.mass, beta=0.0, potential=setup.potential), e_si
        )
        diffs = []
        for scale in (1e-3, 1e-5):
            sol = momentum_rep_linear(
                PhysicalSetup(mass=setup.mass, beta=setup.beta * scale, potential=setup.potential),
                e_si,
            )
            diffs.append(max(abs(sol(p) - sol0(p)) for p in np.linspace(-2, 2, 21)))
        assert diffs[1] < diffs[0] < 1e-3

    def test_dimension_mismatch_exhibit(self, lin):
        setup, problem = lin
        sol, _, w = momentum_dimension_evidence(setup, problem.energy_to_si(2.0))
        assert sol.dimension == 1
        assert abs(w - 1.0) < 1e-10  # four independent position-space solutions

    def test_wrong_potential_rejected(self):
        with pytest.raises(WrongPotentialError):
            momentum_rep_linear(reference_well_setup(), 1e-18)


class TestStandardContrast:
    def test_harmonic_mismatch_has_isolated_zeros(self):
        from scipy.optimize import brentq

        problem = nondimensionalize(harmonic_setup_for(0.01))
        es = np.linspace(0.5, 5.5, 26)
        vals = [standard_harmonic_mismatch(problem, float(e)) for e in es]
        roots = []
        for a, b, va, vb in zip(es[:-1], es[1:], vals[:-1], vals[1:]):
            if va * vb < 0:
                roots.append(
                    brentq(lambda e: standard_harmonic_mismatch(problem, e), a, b, xtol=1e-10)
                )
        assert len(roots) == 3
        for root, target in zip(roots, (1.0, 3.0, 5.0)):
            assert abs(root - target) < 1e-3
        # no interval-vanishing: O(1) magnitudes between the levels
        assert abs(standard_harmonic_mismatch(problem, 2.0)) > 0.1
        assert abs(standard_harmonic_mismatch(problem, 4.0)) > 0.1
