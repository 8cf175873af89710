import dataclasses
import math
import warnings

import numpy as np
import pytest

from gupbic import (
    PhysicalSetup,
    characteristic_roots,
    exact_constant_basis,
    integrate,
    momentum_rep_linear,
    nondimensionalize,
    residual,
    wronskian,
)
from gupbic.basis import WkbBasisFunction, WkbParameters, map_regions, wkb_branches
from gupbic.core import DEFAULT_RTOL
from gupbic.errors import NumericalError, PreconditionError, WrongPotentialError
from gupbic.matcher import StateFunction, bound_states
from gupbic.oracle import bounded_dimension, growth_exponents_many, wronskian_drift
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


def exponents(problem, energy, side, x_far=None, standard=False):
    """The growth exponents of one march: a batch of one, as verify runs its marches."""
    return growth_exponents_many([(problem, energy, side, x_far)], standard)[0]


def drift(problem, energy, xs, anchor, rtol=DEFAULT_RTOL):
    """max |W(x) - 1| over xs of one case, as verify's Wronskian check judges each of its frames."""
    return wronskian_drift(integrate(problem, energy, np.eye(4), anchor, xs, rtol=rtol))


@pytest.fixture
def propagator_calls(monkeypatch):
    """The interval count of every oracle._propagators call made in the test."""
    from gupbic import oracle

    calls = []
    real = oracle._propagators

    def counting(requests, dim, rtol, atol):
        calls.append(sum(len(starts) for _, _, starts, _ in requests))
        return real(requests, dim, rtol, atol)

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
            errors.append(np.max(np.abs(phi - state.value(xs))))
        assert errors[0] > errors[1] > errors[2]

    def test_tolerance_precondition(self, well_problem):
        with pytest.raises(PreconditionError):
            integrate(well_problem, 5.0, [1, 0, 0, 0], -1.0, [1.0], rtol=1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_abscissas_are_refused(self, well_problem, bad):
        # a NaN lands on neither side of the launch point and an infinity
        # asks for endless sub-steps: both are refused, naming the value
        with pytest.raises(PreconditionError, match=str(bad)):
            integrate(well_problem, 5.0, [1.0, 0.0, 0.0, 0.0], 0.0, [0.3, bad])
        with pytest.raises(PreconditionError, match=str(bad)):
            integrate(well_problem, 5.0, [1.0, 0.0, 0.0, 0.0], bad, [0.3])

    def test_prefix_chain_matches_the_step_by_step_chain(self, well_problem, propagator_calls):
        # the stacked prefix products against U_k @ (... (U_1 @ initial)) one
        # step at a time, over the exact-well check's 200 intervals
        from gupbic.oracle import DEFAULT_ATOL, DEFAULT_RTOL, _propagators

        init = np.array([0.05, 0.4, 0.7, 0.55])
        xs = np.linspace(-1.0, 1.0, 201)
        states = integrate(well_problem, 16.38, init, -1.0, xs)
        steps = _propagators([(well_problem, 16.38, np.r_[-1.0, xs[:-1]], xs)], 4, DEFAULT_RTOL, DEFAULT_ATOL)[0]
        current = init.astype(complex)
        for k, u in enumerate(steps):
            current = u @ current
            assert np.linalg.norm(states[:, k] - current) <= 1e-12 * np.linalg.norm(current)
        assert propagator_calls == [201, 201]

    def test_batch_matches_one_request_at_a_time(self, well_problem, linear_problem, harmonic_problem):
        # states and frames, both sides of the launch point, an empty grid
        # and a long march beside short ones, all in one batch
        from gupbic.oracle import integrate_many

        requests = [
            (well_problem, 5.0, [0.3, -0.1, 0.2, 0.5], 0.0, [0.4, -0.9, 0.1, 0.0, -0.2]),
            (linear_problem, 2.0, np.eye(4), 1.0, np.linspace(0.2, 3.0, 7)),
            (harmonic_problem, 1.7, np.eye(4)[:, :2], -3.0, [3.0]),
            (harmonic_problem, 3.3, [1.0, 0.0, 0.0, 0.0], 0.5, []),
        ]
        for batched, request in zip(integrate_many(requests), requests):
            single = integrate(*request)
            assert batched.shape == single.shape
            assert np.array_equal(batched, single)

    def test_batch_of_mixed_systems_is_refused(self, well_problem):
        from gupbic.oracle import integrate_many

        with pytest.raises(PreconditionError, match="one system"):
            integrate_many([
                (well_problem, 5.0, [1.0, 0.0, 0.0, 0.0], 0.0, [0.5]),
                (well_problem, 5.0, [1.0, 0.0], 0.0, [0.5]),
            ])

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
        assert drift(well_problem, 5.0, np.linspace(-1, 1, 9), anchor=0.0) < 1e-8
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
        exponents(nondimensionalize(harmonic_setup_for(0.02)), 1.7, "+inf")
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

    def test_drift_over_no_points_is_zero(self, well_problem):
        # as residual reads 0.0 on an empty grid
        assert drift(well_problem, 5.0, [], anchor=0.0) == 0.0

    def test_constant_along_domain(self, well_problem):
        assert drift(well_problem, 5.0, np.linspace(-1, 1, 9), anchor=0.0) < 1e-8

    def test_thirty_frames_at_the_rtol_floor_do_not_clamp(self, well_problem):
        # 30 frames at the smallest accepted rtol, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            worst = drift(well_problem, 5.0, np.linspace(-1, 1, 31), anchor=0.0, rtol=1e-13)
        assert worst < 1e-8

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

        class Corrupted:
            def derivatives(self, x, order=3):
                d = state.derivatives(x, order=order)
                d[0] += 0.01 * x
                d[1] += 0.01
                return d

        grid = np.linspace(-0.99, 0.99, 100)
        assert residual(Corrupted(), well_problem, E1_DIMLESS, grid) > 1e-2

    def test_wkb_fast_branch_trend(self):
        # omega_2 residual shrinks with epsilon (1e-3 -> below 1e-2; 1e-4 smaller)
        values = []
        for eps in (1e-3, 1e-4):
            problem = nondimensionalize(linear_setup_for(eps))
            params = WkbParameters.from_problem(problem, 2.0, x0=3.0)
            rmap = map_regions(params, 2.4, 4.5)
            w2 = WkbBasisFunction(wkb_branches(params, (2.4, 4.5), region_map=rmap).table, 2)
            values.append(residual(w2, problem, 2.0, np.linspace(2.5, 4.4, 40)))
        assert values[0] < 1e-2
        assert values[1] < values[0]


class TestDecayingSubspace:
    def test_fourth_order_dimensions(self):
        lin = nondimensionalize(linear_setup_for(0.02))
        assert bounded_dimension(exponents(lin, 2.0, "+inf")) == 2
        har = nondimensionalize(harmonic_setup_for(0.02))
        assert bounded_dimension(exponents(har, 1.7, "+inf")) == 2
        assert bounded_dimension(exponents(har, 1.7, "-inf")) == 2

    def test_standard_mode_dimensions(self):
        har = nondimensionalize(harmonic_setup_for(0.02))
        assert bounded_dimension(exponents(har, 1.7, "+inf", standard=True)) == 1
        assert bounded_dimension(exponents(har, 1.7, "-inf", standard=True)) == 1

    @pytest.mark.parametrize("energy", [9.5, 10.0, 21.0])
    @pytest.mark.parametrize("side", ["+inf", "-inf"])
    def test_far_points_past_a_wkb_branch_degeneracy_count(self, energy, side):
        # the default far point here lies where two WKB branches meet; the
        # frozen-coefficient frame reads only v there
        har = nondimensionalize(harmonic_setup_for(0.02))
        assert bounded_dimension(exponents(har, energy, side)) == 2

    def test_harmonic_exponents_are_mirror_equal(self):
        # v is even, so the march toward -inf is the mirror image of the one toward +inf
        har = nondimensionalize(harmonic_setup_for(0.02))
        plus = exponents(har, 1.7, "+inf")
        minus = exponents(har, 1.7, "-inf")
        np.testing.assert_allclose(minus, plus, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("sgn", [1.0, -1.0])
    def test_standard_frame_is_the_decaying_and_growing_pair(self, sgn):
        # columns (1, lam) with lam = -+sgn sqrt(v - e), the decaying solution first
        from gupbic.oracle import launch_frame

        har = nondimensionalize(harmonic_setup_for(0.02))
        for x, energy in ((3.0, 1.7), (5.7, 1.7), (4.5, 9.5)):
            r = math.sqrt(har.v_derivs(sgn * x)[0] - energy)
            old = np.array([[1.0, 1.0], [-sgn * r, sgn * r]], dtype=complex)
            new = launch_frame(har, energy, 2, sgn * x, -sgn)
            assert new.dtype == old.dtype and new.tobytes() == old.tobytes()

    def test_fourth_order_frame_holds_the_characteristic_eigenvectors(self):
        from gupbic.oracle import launch_frame

        har = nondimensionalize(harmonic_setup_for(0.02))
        for x, energy in ((4.0, 1.7), (-4.0, 1.7), (6.0, 21.0)):  # the last a complex quartet
            frame = launch_frame(har, energy, 4, x, -math.copysign(1.0, x))
            lam = frame[1]
            np.testing.assert_allclose(frame, lam ** np.arange(4)[:, None], rtol=1e-15, atol=0.0)
            w = har.v_derivs(x)[0] - energy
            quartic = har.epsilon * lam**4 - lam**2 + w
            assert np.max(np.abs(quartic)) <= 1e-12 * np.max(har.epsilon * np.abs(lam) ** 4)
            rates = -math.copysign(1.0, x) * lam.real
            assert np.all(np.diff(rates) <= 0.0)

    def test_oracle_imports_nothing_from_basis(self):
        # the oracle checks the basis layer, so it may not be built on it
        import ast
        import pathlib

        from gupbic import oracle

        imported = set()  # dotted names of every imported module and imported name
        for node in ast.walk(ast.parse(pathlib.Path(oracle.__file__).read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                module = ".".join(filter(None, ["gupbic" if node.level else "", node.module]))
                imported |= {module} | {f"{module}.{alias.name}" for alias in node.names}
        assert "gupbic.core" in imported
        assert not [name for name in imported if (name + ".").startswith("gupbic.basis.")]

    def test_launch_outside_forbidden_region_rejected(self):
        lin = nondimensionalize(linear_setup_for(0.02))
        with pytest.raises(PreconditionError):
            bounded_dimension(exponents(lin, 2.0, "+inf", x_far=1.0))

    def test_far_point_on_the_wrong_side_rejected(self):
        # x_far = -5 toward +inf would march across the whole well
        har = nondimensionalize(harmonic_setup_for(0.02))
        with pytest.raises(PreconditionError, match="toward \\+inf"):
            exponents(har, 1.7, "+inf", x_far=-5.0)
        with pytest.raises(PreconditionError, match="toward -inf"):
            exponents(har, 1.7, "-inf", x_far=5.0)
        assert exponents(har, 1.7, "-inf", x_far=-5.0).shape == (4,)

    @pytest.mark.parametrize("eps", [1e-4, 0.02, 0.2])
    @pytest.mark.parametrize("energy", [0.7, 1.7, 6.0, 15.0])
    def test_auto_anchor_matches_the_point_by_point_walk(self, eps, energy):
        # the anchor from one evaluation of v on the inward grid is the
        # first point of the old walk, bit for bit
        from gupbic import oracle

        def walk(problem, energy, sgn, x_far):
            for x in np.linspace(abs(x_far), 0.0, 400):
                if problem.v_derivs(sgn * x)[0] - energy < 1.0:
                    return sgn * min(x + 0.2, abs(x_far))
            return 0.0 if problem.kind != "linear" else min(1.0, abs(x_far) / 2)

        lin = nondimensionalize(linear_setup_for(eps))
        har = nondimensionalize(harmonic_setup_for(eps))
        for problem, sgn in ((lin, 1.0), (har, 1.0), (har, -1.0)):
            quadratic, energies, sgns = np.array(problem.v_coefficients)[:, None], np.array([energy]), np.array([sgn])
            far = float(sgn * oracle._auto_far_point(quadratic, energies, sgns)[0])
            for x_far in (far, 1.5 * far, 0.5 * far):
                anchor = oracle._auto_anchor(quadratic, energies, sgns, np.array([x_far]), np.array([problem.kind == "linear"]))
                assert anchor[0] == walk(problem, energy, sgn, x_far)

    @pytest.mark.parametrize("standard", [False, True], ids=["fourth-order", "standard"])
    def test_batched_marches_match_single_marches(self, standard, propagator_calls):
        # four marches in one batch (fourth order: 88 segments for the
        # linear potential at eps 1e-4 beside 24-segment ones): one
        # propagator call, the exponents of each march alone bit for bit,
        # and the same counts
        marches = [
            (nondimensionalize(linear_setup_for(1e-4)), 2.0, "+inf", None),
            (nondimensionalize(harmonic_setup_for(0.02)), 1.7, "-inf", None),
            (nondimensionalize(linear_setup_for(0.02)), 2.0, "+inf", None),
            (nondimensionalize(harmonic_setup_for(0.2)), 6.0, "+inf", 9.0),
        ]
        batched = growth_exponents_many(marches, standard)
        assert len(propagator_calls) == 1
        for growth, (problem, energy, side, x_far) in zip(batched, marches):
            single = exponents(problem, energy, side, x_far=x_far, standard=standard)
            assert np.array_equal(growth, single)
            assert bounded_dimension(growth) == bounded_dimension(single) == (1 if standard else 2)

    def test_batch_of_mixed_systems_is_refused(self):
        # epsilon = 0 marches the standard system, epsilon > 0 the fourth-order one
        setup = harmonic_setup_for(0.02)
        classical = dataclasses.replace(setup, beta=0.0)
        marches = [(nondimensionalize(s), 1.7, "+inf", None) for s in (setup, classical)]
        with pytest.raises(PreconditionError, match="one system"):
            growth_exponents_many(marches)

    def test_bounded_side_rejected(self, well_problem):
        with pytest.raises(PreconditionError):
            bounded_dimension(exponents(well_problem, 5.0, "+inf"))

    def test_march_integrates_once(self, propagator_calls):
        har = nondimensionalize(harmonic_setup_for(0.02))
        assert bounded_dimension(exponents(har, 1.7, "-inf")) == 2
        assert propagator_calls == [24]  # no segment grows past e^3 at eps 0.02

    def test_exponents_near_zero_are_not_counted(self):
        assert bounded_dimension(np.array([9.0, 2.4, -4.3, -7.1])) == 2
        with pytest.raises(NumericalError):
            bounded_dimension(np.array([9.0, 0.3, -4.3, -7.1]))

    @staticmethod
    def _reference_growth(problem, energy, side, standard):
        # the march one segment at a time, over the march's own segments:
        # each solve_ivp carries the orthonormal frame q itself across its segment
        from scipy.integrate import solve_ivp

        from gupbic import oracle

        sgn = np.array([1.0 if side == "+inf" else -1.0])
        quadratic, energies = np.array(problem.v_coefficients)[:, None], np.array([energy])
        x_far = sgn * oracle._auto_far_point(quadratic, energies, sgn)
        anchor = oracle._auto_anchor(quadratic, energies, sgn, x_far, np.array([problem.kind == "linear"]))
        x_far, anchor = float(x_far[0]), float(anchor[0])
        if standard:
            rhs, dim = oracle.standard_rhs(problem, energy), 2
        else:
            rhs, dim = oracle.companion_rhs(problem, energy), 4
        q, _ = np.linalg.qr(oracle.launch_frame(problem, energy, dim, x_far, math.copysign(1.0, anchor - x_far)))
        growth = np.zeros(dim)
        xs = oracle._march_points(
            quadratic, np.array([problem.epsilon]), energies, dim, np.array([x_far]), np.array([anchor])
        )[0]
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
            growth = exponents(problem, energy, side, standard=standard)
            assert abs(growth.sum()) <= 1e-9 * np.max(np.abs(growth))

    def test_march_splits_only_where_a_segment_would_grow_past_e3(self, propagator_calls):
        # checkpoints is a minimum: 24 segments at eps 0.02, more at eps 1e-4
        for eps in (0.02, 1e-4):
            exponents(nondimensionalize(linear_setup_for(eps)), 2.0, "+inf")
        assert propagator_calls[0] == 24
        assert propagator_calls[1] > 24

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 0.02, 0.2])
    @pytest.mark.parametrize("standard", [False, True], ids=["fourth-order", "standard"])
    def test_batched_march_matches_per_segment_march(self, eps, standard):
        lin = nondimensionalize(linear_setup_for(eps))
        har = nondimensionalize(harmonic_setup_for(eps))
        for problem, energy, side in ((lin, 2.0, "+inf"), (har, 1.7, "+inf"), (har, 1.7, "-inf")):
            growth = exponents(problem, energy, side, standard=standard)
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
        batched = _propagators([(harmonic_problem, 1.7, starts, ends)], 4, DEFAULT_RTOL, DEFAULT_ATOL)[0]
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
        batched = _propagators([(problem, 1.7, starts, ends)], dim, DEFAULT_RTOL, DEFAULT_ATOL)[0]
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
            u = _propagators([(problem, 1.7, starts, ends)], dim, DEFAULT_RTOL, DEFAULT_ATOL)[0]
            np.testing.assert_allclose(np.linalg.det(u), 1.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [4, 2])
    def test_batched_requests_match_one_request_at_a_time(self, dim):
        # problems, energies and directions mixed, and one long interval
        # (many sub-steps) beside one-sub-step ones
        from gupbic.oracle import DEFAULT_ATOL, DEFAULT_RTOL, _propagators

        requests = [
            (self._problem("harmonic", 0.02), 1.7, [0.0, 0.3, 6.0], [0.3, 0.0, -6.0]),
            (self._problem("linear", 1e-4), 2.0, [0.5, 1.0], [0.51, 1.0]),
            (self._problem("well", 0.2), 5.0, np.linspace(-1.0, 0.9, 5), np.linspace(-0.9, 1.0, 5)),
            (self._problem("linear", 0.2), 0.7, [], []),
        ]
        batched = _propagators(requests, dim, DEFAULT_RTOL, DEFAULT_ATOL)
        for u, request in zip(batched, requests):
            single = _propagators([request], dim, DEFAULT_RTOL, DEFAULT_ATOL)[0]
            assert u.shape == single.shape == (len(request[2]), dim, dim)
            assert np.array_equal(u, single)

    def test_long_series_matches_the_closed_form(self):
        # phi'' = w phi with constant w over one sub-step h: S = [[cosh z,
        # sinh z / z], [z sinh z, cosh z]], z = h sqrt(w); at z = 6 the
        # series runs past its first 24 terms
        from gupbic.oracle import _scaled_steps

        w, h = np.array([4.0, 0.25]), np.array([3.0, 1.0])
        s = _scaled_steps(np.zeros(2), w, np.zeros(2), np.zeros(2), h, np.array([0]), 2, 1e-13, 0.0)
        z = h * np.sqrt(w)
        exact = np.array([[np.cosh(z), np.sinh(z) / z], [z * np.sinh(z), np.cosh(z)]]).transpose(2, 0, 1)
        np.testing.assert_allclose(s, exact, rtol=1e-13, atol=0.0)

    def test_zero_width_interval_is_exactly_the_identity(self, harmonic_problem):
        from gupbic.oracle import DEFAULT_ATOL, DEFAULT_RTOL, _propagators

        for dim in (4, 2):
            u = _propagators([(harmonic_problem, 1.7, [0.4, 0.7], [0.4, 0.9])], dim, DEFAULT_RTOL, DEFAULT_ATOL)[0]
            assert np.array_equal(u[0], np.eye(dim))
            assert not np.array_equal(u[1], np.eye(dim))

    def test_sub_step_count_is_capped_before_allocation(self, monkeypatch):
        # at beta 1e30 the exact-well check's three launches ask for about
        # 2e9 sub-steps; the cap refuses them, naming the count, before any
        # series is summed
        from gupbic import oracle

        def unreachable(*args):
            raise AssertionError("the series ran past the cap")

        monkeypatch.setattr(oracle, "_scaled_steps", unreachable)
        cap = f"cap of {oracle.MAX_SUB_STEPS}"
        with pytest.raises(PreconditionError, match=r"need \d\.\d+e\+09 sub-steps .*" + cap):
            exact_well_one_state_at_a_time(reference_well_setup(beta=1e30), DEFAULT_RTOL)

    def test_cap_counts_every_request_of_a_call(self, well_problem):
        # two requests each under the cap, together above it
        from gupbic.oracle import DEFAULT_ATOL, DEFAULT_RTOL, MAX_SUB_STEPS, _max_rate, _propagators

        rate = float(_max_rate(well_problem.epsilon, np.array([1.0]), 4)[0])
        width = 0.6 * MAX_SUB_STEPS / rate
        request = (well_problem, 1.0, [0.0], [width])
        with pytest.raises(PreconditionError, match=f"cap of {MAX_SUB_STEPS}"):
            _propagators([request, request], 4, DEFAULT_RTOL, DEFAULT_ATOL)


class TestVerifyBattery:
    def test_default_battery_sums_two_recurrences(self, monkeypatch):
        # one _scaled_steps call for the Wronskian, exact-well and momentum
        # checks' integrations together, one for the decay check's marches
        from gupbic import oracle
        from gupbic.verification import run_verification

        calls = []
        real = oracle._scaled_steps

        def counting(*args):
            calls.append(args[4].size)
            return real(*args)

        monkeypatch.setattr(oracle, "_scaled_steps", counting)
        for setup in (reference_well_setup(), dataclasses.replace(reference_well_setup(), beta=0.0)):
            del calls[:]
            assert all(check.passed for check in run_verification(setup))
            assert len(calls) == 2

    def test_momentum_evidence_sums_one_recurrence(self, propagator_calls):
        setup = linear_setup_for(0.01)
        momentum_dimension_evidence(setup, nondimensionalize(setup).energy_to_si(2.0))
        assert propagator_calls == [1]

    @pytest.mark.parametrize("beta", [None, 0.0], ids=["default", "beta-0"])
    def test_battery_equals_its_checks(self, beta):
        # the battery's one integration batch gives each check the result it has alone
        from gupbic.verification import (
            check_decaying_dimensions,
            check_exact_well_oracle_agreement,
            check_momentum_representation,
            check_residual_exact,
            check_residual_negative_control,
            check_well_sine_recovery,
            run_verification,
        )

        setup = reference_well_setup() if beta is None else dataclasses.replace(reference_well_setup(), beta=beta)
        alone = [
            check_wronskian_constancy(n_cases=9),
            check_exact_well_oracle_agreement(),
            check_residual_exact(),
            check_residual_negative_control(),
            check_momentum_representation(),
            check_decaying_dimensions(standard=beta == 0.0),
        ] + ([check_well_sine_recovery(setup)] if beta is None else [])
        assert [c.as_dict() for c in run_verification(setup)] == [c.as_dict() for c in alone]

    @pytest.mark.parametrize("beta", [None, 0.0], ids=["default", "beta-0"])
    def test_failed_decay_check_keeps_its_name_and_setup(self, beta, monkeypatch):
        # a decay march that raises leaves an entry named as the check that
        # succeeds, with its setup text, and every other check still runs
        from gupbic import verification
        from gupbic.verification import check_decaying_dimensions, run_verification

        setup = reference_well_setup() if beta is None else dataclasses.replace(reference_well_setup(), beta=beta)
        succeeded = check_decaying_dimensions(standard=beta == 0.0)
        passing = run_verification(setup)

        def raising(*args, **kwargs):
            raise NumericalError("march failed")

        monkeypatch.setattr(verification, "growth_exponents_many", raising)
        checks = run_verification(setup)
        assert [c.name for c in checks] == [c.name for c in passing]
        (failed,) = [c for c in checks if c.name == succeeded.name]
        assert failed.passed is False
        assert failed.detail == {"error": "march failed", "setup": succeeded.detail["setup"]}
        assert [c for c in checks if c is not failed] == [c for c in passing if c.name != succeeded.name]


class TestBatchIndependence:
    """Every request of a seeded mixed batch has exactly the bits it has alone."""

    @staticmethod
    def _problem(rng):
        # a well, linear or harmonic problem at a random epsilon, and the lower end of its abscissas
        eps = float(10.0 ** rng.uniform(-3.0, -0.7))
        kind = ("well", "linear", "harmonic")[rng.integers(3)]
        if kind == "well":
            return nondimensionalize(reference_well_setup(beta=beta_for_epsilon(eps, REFERENCE_HALF_WIDTH))), -1.0
        if kind == "linear":
            return nondimensionalize(linear_setup_for(eps)), 0.05
        return nondimensionalize(harmonic_setup_for(eps)), -1.5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dim", [4, 2])
    def test_propagators_and_integrations(self, seed, dim):
        # intervals both ways, states and frames of every width, abscissas on
        # both sides of the launch point and empty requests, all mixed
        from gupbic.oracle import DEFAULT_ATOL, DEFAULT_RTOL, _propagators, integrate_many

        rng = np.random.default_rng(seed)
        intervals, integrations = [], []
        for _ in range(12):
            (problem, lo), energy = self._problem(rng), float(rng.uniform(0.5, 6.0))
            count = int(rng.integers(0, 6))
            intervals.append((problem, energy, rng.uniform(lo, 1.0, count), rng.uniform(lo, 1.0, count)))
            width = int(rng.integers(0, dim + 1))
            shape = (dim,) if width == 0 else (dim, width)
            initial = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            xs = rng.uniform(lo, 1.0, int(rng.integers(0, 8)))
            integrations.append((problem, energy, initial, float(rng.uniform(lo, 1.0)), xs))
        for batched, request in zip(_propagators(intervals, dim, DEFAULT_RTOL, DEFAULT_ATOL), intervals):
            assert np.array_equal(batched, _propagators([request], dim, DEFAULT_RTOL, DEFAULT_ATOL)[0])
        for batched, request in zip(integrate_many(integrations), integrations):
            assert np.array_equal(batched, integrate_many([request])[0])

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("standard", [False, True], ids=["fourth-order", "standard"])
    def test_decay_marches(self, seed, standard):
        rng = np.random.default_rng(seed)
        marches = []
        for _ in range(5):
            eps, energy, kind = float(10.0 ** rng.uniform(-3.0, -0.7)), float(rng.uniform(0.5, 6.0)), rng.integers(3)
            if kind == 0:
                marches.append((nondimensionalize(linear_setup_for(eps)), energy, "+inf", None))
            else:
                marches.append((nondimensionalize(harmonic_setup_for(eps)), energy, ("+inf", "-inf")[kind - 1], None))
        for batched, march in zip(growth_exponents_many(marches, standard), marches):
            assert np.array_equal(batched, growth_exponents_many([march], standard)[0])


def sine_recovery_one_level_at_a_time(setup):
    """check_well_sine_recovery's measure as it was formed level by level: one solve and one evaluation each."""
    from gupbic.matcher import solve_well
    from gupbic.spectrum import well_special_energies

    problem = nondimensionalize(setup)
    worst = 0.0
    for se in well_special_energies(setup, 3):
        sol = solve_well(problem, se.energy_dimensionless)
        kap = se.k * math.pi / 2.0
        xs = np.linspace(-1.0, 1.0, 301)
        errs = []
        for vals in sol.values(xs):
            ref = np.sin(kap * (xs + 1.0))
            sign = 1.0 if abs(np.max(vals.real + ref)) >= abs(np.max(vals.real - ref)) else -1.0
            errs.append(float(np.max(np.abs(sign * vals - ref))))
        worst = max(worst, min(errs))
    return worst


def exact_well_one_state_at_a_time(setup, rtol):
    """check_exact_well_oracle_agreement's measure as it was formed state by state, one basis per energy."""
    from gupbic.oracle import integrate_many

    problem = nondimensionalize(setup)
    xs = np.linspace(-1.0, 1.0, 201)
    energies = (2.918779290241783, 1.638, 16.38)
    states = [
        StateFunction(
            np.array([0.05, 0.4, 0.7, 0.55]),
            exact_constant_basis(characteristic_roots(problem.epsilon, e), problem.domain),
        )
        for e in energies
    ]
    marched = integrate_many(
        [(problem, e, state.derivatives(-1.0, order=3), -1.0, xs) for e, state in zip(energies, states)], rtol
    )
    worst = 0.0
    for state, phi in zip(states, marched):
        vals = state.value(xs)
        worst = max(worst, np.max(np.abs(phi[0] - vals)) / np.max(np.abs(vals)))
    return worst


class TestBatchedWellChecks:
    @pytest.mark.parametrize("beta", [1e47, 1e44, 1e41, 1e38])
    @pytest.mark.parametrize("a", [1e-10, 3e-10])
    def test_sine_recovery_equals_the_level_by_level_loop(self, beta, a):
        from gupbic.core import ELECTRON_MASS, InfiniteWell
        from gupbic.verification import check_well_sine_recovery

        setup = PhysicalSetup(mass=ELECTRON_MASS, beta=beta, potential=InfiniteWell(a=a))
        assert check_well_sine_recovery(setup).measured == sine_recovery_one_level_at_a_time(setup)

    @pytest.mark.parametrize("rtol", [1e-11, 1e-13, 1e-6])
    def test_exact_well_equals_the_state_by_state_loop(self, rtol):
        from gupbic.verification import check_exact_well_oracle_agreement

        measured = check_exact_well_oracle_agreement(rtol=rtol).measured
        assert measured == exact_well_one_state_at_a_time(reference_well_setup(), rtol)


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
        sol, _, w, position_dimension = momentum_dimension_evidence(setup, problem.energy_to_si(2.0))
        assert sol.dimension == 1
        assert abs(w - 1.0) < 1e-10  # four independent position-space solutions
        assert position_dimension == 4

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
