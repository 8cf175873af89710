import math

import numpy as np
import pytest

from gupbic import (
    HBAR,
    Harmonic,
    InfiniteWell,
    Linear,
    PhysicalSetup,
)
from gupbic.errors import PreconditionError, WrongPotentialError
from gupbic.spectrum import (
    AiryBouncerState,
    GaussianGroundState,
    Observability,
    ShiftedSineState,
    critical_beta_exponent,
    dof_scan,
    ground_analog_state,
    kappa_at_energy,
    momentum_moments,
    observability,
    well_special_energies,
)
from gupbic.verification import reference_well_setup, harmonic_setup_for

M_E = 9.10956e-31
A_WELL = 1e-10


class TestSpecialEnergies:
    def test_beta_zero_recovers_standard_levels(self):
        setup = PhysicalSetup(mass=M_E, beta=0.0, potential=InfiniteWell(a=A_WELL))
        specials = well_special_energies(setup, 3)
        for se in specials:
            expected = se.k**2 * math.pi**2 * HBAR**2 / (8.0 * M_E * A_WELL**2)
            assert se.energy_si == expected  # formula is exact at beta = 0
        assert specials[0].energy_si == pytest.approx(1.506e-18, rel=1e-3)

    def test_reference_first_level(self, well_setup):
        se = well_special_energies(well_setup, 1)[0]
        assert se.energy_si == pytest.approx(1.7816655450003429e-18, rel=1e-12)
        assert se.energy_dimensionless == pytest.approx(2.918779290241783, rel=1e-12)

    def test_kappa_consistency(self, well_setup):
        # closed-form energies and the root formula agree: kappa(E_k) = k pi/(2a)
        for se in well_special_energies(well_setup, 5):
            target = se.k * math.pi / (2.0 * A_WELL)
            assert kappa_at_energy(well_setup, se.energy_si) == pytest.approx(
                target, rel=1e-10
            )

    def test_shift_scales_as_k_fourth(self, well_setup):
        setup0 = PhysicalSetup(mass=M_E, beta=0.0, potential=InfiniteWell(a=A_WELL))
        shifts = [
            sb.energy_si - s0.energy_si
            for sb, s0 in zip(
                well_special_energies(well_setup, 5), well_special_energies(setup0, 5)
            )
        ]
        for k in range(2, 6):
            assert shifts[k - 1] / shifts[0] == pytest.approx(k**4, rel=1e-12)

    def test_wrong_potential(self):
        setup = PhysicalSetup(mass=M_E, beta=1e47, potential=Harmonic(omega=1e16))
        with pytest.raises(WrongPotentialError):
            well_special_energies(setup, 3)
        with pytest.raises(PreconditionError):
            well_special_energies(reference_well_setup(), 0)


class TestDofScan:
    def test_well_all_two_with_marks(self, well_setup):
        energies = np.linspace(1e-19, 2e-17, 60)
        scan = dof_scan(well_setup, energies)
        assert set(scan.dof) == {2}
        marked = [i for i, lbl in enumerate(scan.labels) if lbl == "StandardLevel"]
        assert len(marked) == len(scan.special_marks) == 2  # E_1, E_2 within range
        for se in scan.special_marks:
            nearest = int(np.argmin(np.abs(energies - se.energy_si)))
            assert nearest in marked

    def test_linear_all_one(self, linear_setup):
        energies = np.linspace(5e-19, 1.5e-17, 12)
        scan = dof_scan(linear_setup, energies)
        assert set(scan.dof) == {1}
        assert set(scan.labels) == {"ExtraContinuum"}

    def test_harmonic_all_two(self, harmonic_setup):
        energies = np.linspace(5e-19, 1.5e-17, 12)
        scan = dof_scan(harmonic_setup, energies)
        assert set(scan.dof) == {2}

    def test_threads_match_serial(self, well_setup):
        energies = np.linspace(1e-19, 2e-17, 24)
        serial = dof_scan(well_setup, energies, threads=1)
        threaded = dof_scan(well_setup, energies, threads=4)
        assert serial.dof == threaded.dof
        assert serial.labels == threaded.labels

    def test_per_energy_failures_do_not_abort(self):
        # huge epsilon squeezes the harmonic forbidden band below the window
        setup = harmonic_setup_for(6.0)
        energies = np.linspace(5e-19, 4e-18, 5)
        scan = dof_scan(setup, energies)
        assert len(scan.errors) > 0
        assert any(d is None for d in scan.dof)

    def test_grid_validation(self, well_setup):
        with pytest.raises(PreconditionError):
            dof_scan(well_setup, [2e-18, 1e-18])
        with pytest.raises(PreconditionError):
            dof_scan(well_setup, [-1e-18, 1e-18])


class TestMomentumMoments:
    def test_well_ground_standard_variance(self, well_setup):
        problem, state = ground_analog_state(well_setup)
        m = momentum_moments(state, problem)
        assert m.mean_p == pytest.approx(0.0, abs=1e-30)
        assert m.mean_P == pytest.approx(0.0, abs=1e-30)
        assert m.delta_p**2 == pytest.approx((math.pi * HBAR / (2 * A_WELL)) ** 2, rel=1e-8)
        assert m.delta_p**2 == pytest.approx(2.744e-48, rel=1e-3)

    def test_ratio_values(self, well_setup):
        problem, state = ground_analog_state(well_setup)
        m = momentum_moments(state, problem)
        assert m.ratio == pytest.approx(0.2744, abs=5e-4)
        low = PhysicalSetup(mass=M_E, beta=1e20, potential=InfiniteWell(a=A_WELL))
        problem_low, state_low = ground_analog_state(low)
        m_low = momentum_moments(state_low, problem_low)
        assert m_low.ratio == pytest.approx(2.744e-28, rel=1e-3)

    def test_ratio_linear_in_beta(self, well_setup):
        problem, state = ground_analog_state(well_setup)
        r1 = momentum_moments(state, problem).ratio
        for c in (3.0, 0.2):
            scaled = PhysicalSetup(
                mass=M_E, beta=well_setup.beta * c, potential=InfiniteWell(a=A_WELL)
            )
            p2, s2 = ground_analog_state(scaled)
            assert momentum_moments(s2, p2).ratio == pytest.approx(c * r1, rel=1e-9)

    def test_reduction_matches_direct_sixth_derivative(self, well_setup, well_problem):
        # the equation-of-motion route for <P^2> vs closed-form derivatives
        se = well_special_energies(well_setup, 1)[0]
        lo, hi = well_problem.domain
        state = ShiftedSineState(kappa=math.pi / 2, lo=lo, hi=hi)
        m_direct = momentum_moments(state, well_problem, derivative_source="direct")
        m_reduced = momentum_moments(
            state,
            well_problem,
            derivative_source="reduction",
            energy=se.energy_dimensionless,
        )
        assert m_reduced.delta_P**2 == pytest.approx(m_direct.delta_P**2, rel=1e-6)

    def test_non_normalized_rejected(self, well_problem):
        bad = ShiftedSineState(kappa=math.pi / 2, lo=-1.0, hi=1.0)

        class Scaled:
            regions = bad.regions

            def derivatives(self, x, order=3):
                return 1.3 * bad.derivatives(x, order=order)

        with pytest.raises(PreconditionError, match="norm"):
            momentum_moments(Scaled(), well_problem)

    def test_piecewise_wkb_state_moments_rejected(self):
        # the slow branch carries branch-dependent phases across turning
        # windows, so cross-region moments of such states must fail loudly
        from gupbic.errors import NumericalError
        from gupbic.matcher import solve_linear
        from gupbic.verification import linear_setup_for
        from gupbic import nondimensionalize

        problem = nondimensionalize(linear_setup_for(0.01))
        sol = solve_linear(problem, 2.0)
        with pytest.raises(NumericalError, match="variance"):
            momentum_moments(
                sol.states[0],
                problem,
                regions=sol.regions,
                derivative_source="reduction",
                energy=2.0,
            )

    def test_gaussian_ground_variance(self):
        setup = PhysicalSetup(mass=M_E, beta=1e47, potential=Harmonic(omega=1e30))
        problem, state = ground_analog_state(setup)
        m = momentum_moments(state, problem)
        assert m.delta_p**2 == pytest.approx(M_E * HBAR * 1e30 / 2.0, rel=1e-8)

    def test_airy_ground_virial(self):
        setup = PhysicalSetup(mass=M_E, beta=1e47, potential=Linear(slope=M_E * 9.8))
        problem, state = ground_analog_state(setup)
        m = momentum_moments(state, problem)
        # virial for V = Lx: <p^2>/2m = E/3, ground energy = first Airy zero
        expected = 2.0 * M_E * (state.ground_energy * problem.energy_scale) / 3.0
        assert m.delta_p**2 == pytest.approx(expected, rel=1e-7)


class TestObservability:
    def test_reference_well_is_obvious(self, well_setup):
        result = observability(well_setup)
        assert result.verdict is Observability.OBVIOUS
        assert result.ratio == pytest.approx(0.2744, abs=5e-4)

    def test_beta_zero_inconspicuous(self):
        setup = PhysicalSetup(mass=M_E, beta=0.0, potential=InfiniteWell(a=A_WELL))
        result = observability(setup)
        assert result.verdict is Observability.INCONSPICUOUS
        assert result.ratio == 0.0

    def test_small_beta_inconspicuous(self):
        setup = PhysicalSetup(mass=M_E, beta=1e20, potential=InfiniteWell(a=A_WELL))
        result = observability(setup)
        assert result.verdict is Observability.INCONSPICUOUS

    def test_threshold_configurable(self, well_setup):
        assert observability(well_setup, threshold=0.5).verdict is Observability.INCONSPICUOUS


class TestCriticalBeta:
    def test_well_exponent(self, well_setup):
        result = critical_beta_exponent(well_setup)
        assert result.exponent == pytest.approx(47.5616, abs=1e-3)
        assert result.discrepancy_note is None
        # refined value with the deformed operator is reported alongside
        assert result.refined_exponent == pytest.approx(47.31, abs=0.01)

    def test_harmonic_exponent(self):
        setup = PhysicalSetup(mass=M_E, beta=1e47, potential=Harmonic(omega=1e30))
        result = critical_beta_exponent(setup)
        assert result.exponent == pytest.approx(34.3185, abs=1e-3)

    def test_linear_exponent_with_discrepancy_flag(self):
        setup = PhysicalSetup(mass=M_E, beta=1e47, potential=Linear(slope=M_E * 9.8))
        result = critical_beta_exponent(setup)
        assert result.exponent == pytest.approx(61.95, abs=0.05)
        assert result.discrepancy_note is not None
        assert "37" in result.discrepancy_note

    def test_beta_independent(self, well_setup):
        r1 = critical_beta_exponent(well_setup).exponent
        other = PhysicalSetup(mass=M_E, beta=1e30, potential=InfiniteWell(a=A_WELL))
        assert critical_beta_exponent(other).exponent == pytest.approx(r1, rel=1e-12)


class TestReferenceStates:
    def test_gaussian_derivatives(self):
        state = GaussianGroundState()
        x, h = 0.7, 1e-4
        d = state.derivatives(x, order=4)
        fd2 = (state.value(x + h) - 2 * state.value(x) + state.value(x - h)) / h**2
        assert d[2] == pytest.approx(fd2, rel=1e-6)
        # harmonic ground solves -phi'' + x^2 phi = phi in scaled units
        assert -d[2] + x * x * d[0] == pytest.approx(d[0], rel=1e-12)

    def test_gaussian_derivatives_match_hermite_polynomials(self):
        # phi^(n) = (-1)^n He_n(x) phi, He_n from numpy's probabilists' Hermite series
        from numpy.polynomial.hermite_e import hermeval

        state = GaussianGroundState()
        for x in np.linspace(-12.0, 12.0, 97):
            d = state.derivatives(x, order=6)
            phi = math.pi**-0.25 * math.exp(-0.5 * x * x)
            for n in range(7):
                ref = (-1) ** n * hermeval(x, [0.0] * n + [1.0]) * phi
                assert d[n] == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_airy_derivatives(self):
        state = AiryBouncerState()
        x, h = 1.3, 1e-4
        d = state.derivatives(x, order=6)
        fd2 = (state.value(x + h) - 2 * state.value(x) + state.value(x - h)) / h**2
        assert d[2] == pytest.approx(fd2, rel=1e-6)
        # bouncer ground solves -phi'' + x phi = e1 phi
        assert -d[2] + x * d[0] == pytest.approx(state.ground_energy * d[0], rel=1e-10)

    def test_airy_norm(self):
        from scipy.integrate import quad

        state = AiryBouncerState()
        norm = quad(lambda x: abs(state.value(x)) ** 2, 0, state.regions[0][1], limit=200)[0]
        assert norm == pytest.approx(1.0, abs=1e-9)
