import math

import numpy as np
import pytest

from gupbic import (
    PhysicalSetup,
    StateVector,
    characteristic_roots,
    decaying_subspace_dimension,
    exact_constant_basis,
    integrate,
    momentum_rep_linear,
    nondimensionalize,
    residual,
    wronskian,
    wronskian_drift,
)
from gupbic.errors import PreconditionError, WrongPotentialError
from gupbic.matcher import StateFunction, bound_states
from gupbic.verification import (
    check_wronskian_constancy,
    reference_well_setup,
    harmonic_setup_for,
    linear_setup_for,
    standard_harmonic_mismatch,
)

E1_DIMLESS = 2.918779290241783


class TestIntegrate:
    def test_sine_boundary_shot(self, well_problem):
        kap = math.pi / 2.0
        traj = integrate(well_problem, E1_DIMLESS, [0.0, kap, 0.0, -kap**3], -1.0, 1.0)
        assert abs(traj.phi_at(1.0)) < 1e-9

    def test_zero_initial_stays_zero(self, well_problem):
        traj = integrate(well_problem, E1_DIMLESS, [0, 0, 0, 0], -1.0, 1.0)
        assert np.max(np.abs(traj.states)) == 0.0

    def test_linearity(self, well_problem):
        u = np.array([0.3, -0.1, 0.2, 0.5], dtype=complex)
        v = np.array([1.0, 0.4, -0.7, 0.1], dtype=complex)
        a, b = 1.7, -0.6
        tu = integrate(well_problem, 5.0, u, -1.0, 1.0)
        tv = integrate(well_problem, 5.0, v, -1.0, 1.0)
        tc = integrate(well_problem, 5.0, a * u + b * v, -1.0, 1.0)
        for x in (-0.5, 0.0, 0.9):
            combo = a * tu.state_at(x) + b * tv.state_at(x)
            assert np.allclose(tc.state_at(x), combo, rtol=1e-9, atol=1e-11)

    def test_convergence_under_tolerance_halving(self, well_problem):
        # error against the exact solution shrinks as rtol tightens
        roots = characteristic_roots(well_problem.epsilon, 5.0)
        basis = exact_constant_basis(roots, well_problem.domain)
        state = StateFunction(np.array([0.02, 0.5, 0.7, 0.3]), basis)
        init = state.derivatives(-1.0, order=3)
        errors = []
        for rtol in (1e-7, 1e-9, 1e-11):
            traj = integrate(well_problem, 5.0, init, -1.0, 1.0, rtol=rtol, atol=rtol * 1e-2)
            errors.append(
                max(abs(traj.phi_at(x) - state.value(x)) for x in np.linspace(-1, 1, 21))
            )
        assert errors[0] > errors[1] > errors[2]

    def test_growing_mode_blowup_reported(self, well_problem):
        roots = characteristic_roots(well_problem.epsilon, 5.0)
        init = np.array([1.0, roots.mu1, roots.mu1**2, roots.mu1**3])
        traj = integrate(well_problem, 5.0, init, 0.0, 400.0)
        assert traj.blown_up
        assert traj.last_valid_x is not None and 0.0 < traj.last_valid_x < 400.0

    def test_tolerance_precondition(self, well_problem):
        with pytest.raises(PreconditionError):
            integrate(well_problem, 5.0, [1, 0, 0, 0], -1.0, 1.0, rtol=1e-3)

    def test_state_vector_type(self):
        sv = StateVector(1.0, 2.0, 3.0, 4.0)
        assert np.allclose(sv.as_array(), [1, 2, 3, 4])
        with pytest.raises(ValueError):
            StateVector.from_array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            StateVector.from_array([math.nan, 0, 0, 0])


class TestWronskian:
    def test_canonical_frame_is_identity_determinant(self, well_problem):
        assert wronskian(well_problem, 5.0, 0.3, anchor=0.3) == pytest.approx(1.0)

    def test_constant_along_domain(self, well_problem):
        drift = wronskian_drift(well_problem, 5.0, np.linspace(-1, 1, 9), anchor=0.0)
        assert drift < 1e-8

    def test_randomized_battery(self):
        result = check_wronskian_constancy(n_cases=9, seed=11)
        assert result.passed, result

    def test_dependent_initials_give_zero(self, well_problem):
        initials = np.eye(4, dtype=complex)
        initials[:, 3] = 0.25 * initials[:, 0] - 2.0 * initials[:, 1]
        w = wronskian(well_problem, 5.0, 0.5, anchor=0.0, initials=initials)
        assert abs(w) < 1e-10

    def test_arity_guard(self, well_problem):
        with pytest.raises(PreconditionError):
            wronskian(well_problem, 5.0, 0.5, anchor=0.0, initials=np.eye(4)[:, :3])


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
        sol = momentum_rep_linear(setup, problem.energy_to_si(2.0))
        assert sol.dimension == 1
        w = wronskian(problem, 2.0, 0.8, anchor=0.8)
        assert abs(w) > 0.5  # four independent position-space solutions

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
