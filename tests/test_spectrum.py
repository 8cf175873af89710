import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gupbic import (
    HBAR,
    Harmonic,
    InfiniteWell,
    Linear,
    PhysicalSetup,
    nondimensionalize,
)
from gupbic.errors import (
    ConfigError,
    GupBicError,
    InvalidSetupError,
    PreconditionError,
    WrongPotentialError,
)
from gupbic import matcher, spectrum
from gupbic.matcher import degrees_of_freedom
from gupbic.spectrum import (
    AiryBouncerState,
    GaussianGroundState,
    Observability,
    ShiftedSineState,
    closed_form_moments,
    dof_scan,
    ground_analog_state,
    kappa_at_energy,
    momentum_moments,
    observability,
    well_special_energies,
    well_special_energy,
)
from gupbic.verification import harmonic_setup_for, linear_setup_for, reference_well_setup

M_E = 9.10956e-31
A_WELL = 1e-10


class TestSpecialEnergies:
    def test_beta_zero_recovers_standard_levels(self):
        setup = PhysicalSetup(mass=M_E, beta=0.0, potential=InfiniteWell(a=A_WELL))
        specials = well_special_energies(setup, 3)
        for se in specials:
            expected = se.k**2 * math.pi**2 * HBAR**2 / (8.0 * M_E * A_WELL**2)
            assert se.energy_si == expected  # formula is exact at beta = 0
        assert specials[0].energy_si == pytest.approx(1.506e-18, rel=1e-3, abs=0.0)

    def test_reference_first_level(self, well_setup):
        se = well_special_energies(well_setup, 1)[0]
        assert se.energy_si == pytest.approx(1.7816655450003429e-18, rel=1e-12, abs=0.0)
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

    def test_one_level_is_the_list_entry(self, well_setup):
        levels = well_special_energies(well_setup, 40)
        for k in (1, 2, 7, 40):
            assert well_special_energy(well_setup, k) == levels[k - 1].energy_si

    def test_levels_match_the_si_closed_form_to_50_digits(self):
        # 60 seeded wells (a 1e-12..1e-6 m, beta 1e30..1e50) at 100 levels each,
        # and the wells whose SI powers leave the float range (a^4 overflows at
        # a = 1e100, 16 m a^4 underflows at a = 1e-75): the scaled form read
        # at most 1.0e-15 relative to the 50-digit SI closed form
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(35)
        wells = [(10.0 ** rng.uniform(-12, -6), 10.0 ** rng.uniform(30, 50)) for _ in range(60)]
        wells += [(1e100, 1e47), (1e100, 0.0), (1e-75, 0.0)]
        worst = 0.0
        with mpmath.workdps(50):
            pi = mpmath.pi
            for a, beta in wells:
                setup = PhysicalSetup(mass=M_E, beta=beta, potential=InfiniteWell(a=a))
                a, m, hbar = mpmath.mpf(a), mpmath.mpf(M_E), mpmath.mpf(HBAR)
                for se in well_special_energies(setup, 100):
                    k = se.k
                    exact = k**4 * pi**4 * hbar**4 * (mpmath.mpf(beta) / 3) / (16 * m * a**4)
                    exact += k**2 * pi**2 * hbar**2 / (8 * m * a**2)
                    worst = max(worst, float(abs(se.energy_si / exact - 1)))
        assert worst <= 1.5e-15

    def test_list_longer_than_the_cap_is_refused(self, well_setup, monkeypatch):
        # refused before any level is built
        monkeypatch.setattr(spectrum, "_special_levels", None)
        with pytest.raises(InvalidSetupError, match="MAX_SPECIAL_LEVELS = 100000"):
            well_special_energies(well_setup, spectrum.MAX_SPECIAL_LEVELS + 1)


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

    def test_per_energy_failures_do_not_abort(self):
        # huge epsilon squeezes the harmonic forbidden band below the window
        setup = harmonic_setup_for(6.0)
        energies = np.linspace(5e-19, 4e-18, 5)
        scan = dof_scan(setup, energies)
        assert len(scan.errors) > 0
        assert any(d is None for d in scan.dof)

    def test_well_scan_scales_the_problem_once(self, well_setup, monkeypatch):
        # the special-level marks reuse the scan's own problem
        calls = []
        real = spectrum.nondimensionalize

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(spectrum, "nondimensionalize", counting)
        scan = dof_scan(well_setup, np.linspace(1e-19, 2e-17, 60))
        assert len(scan.special_marks) == 2
        assert len(calls) == 1
        assert scan.special_marks == tuple(well_special_energies(well_setup, 2))

    def test_grid_validation(self, well_setup):
        with pytest.raises(PreconditionError):
            dof_scan(well_setup, [2e-18, 1e-18])
        with pytest.raises(PreconditionError):
            dof_scan(well_setup, [-1e-18, 1e-18])
        with pytest.raises(PreconditionError):
            dof_scan(well_setup, [])

    @pytest.mark.parametrize("energies", [[1e-19, math.inf], [1e-19, math.nan, 2e-18], [math.nan]])
    def test_non_finite_energies_are_refused(self, well_setup, energies):
        with pytest.raises(ConfigError, match="must be finite"):
            dof_scan(well_setup, energies)


def one_energy_at_a_time(problem, e_dims):
    """(dof, errors, matrices) of a scan run energy by energy."""
    dof, errors, matrices = [], {}, []
    for i, e in enumerate(e_dims):
        try:
            d, system = degrees_of_freedom(problem, float(e))
        except GupBicError as exc:
            dof.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
            continue
        dof.append(d)
        matrices.append(system.matrix)
    return tuple(dof), errors, matrices


class TestBatchedWellScan:
    @given(
        log_beta=st.floats(20.0, 50.0),
        a=st.floats(5e-11, 2e-10),
        energies=st.lists(
            st.floats(1e-21, 2e-17), min_size=2, max_size=64, unique=True
        ).map(sorted),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_the_per_energy_path(self, log_beta, a, energies):
        setup = PhysicalSetup(mass=M_E, beta=10.0**log_beta, potential=InfiniteWell(a=a))
        problem = nondimensionalize(setup)
        e_dims = np.array(energies) / problem.energy_scale
        dof, errors, matrices = one_energy_at_a_time(problem, e_dims)
        assert errors == {}
        scan = dof_scan(setup, energies)
        assert scan.dof == dof and scan.errors == {}
        assert all(type(d) is int for d in scan.dof)
        nullity, system = degrees_of_freedom(problem, e_dims)
        assert system.matrix.shape == (len(energies), 2, 4)
        assert nullity.tolist() == list(dof)
        for stacked, single in zip(system.matrix, matrices):
            assert np.array_equal(stacked, single)

    def test_beta_zero_records_the_per_energy_errors(self):
        setup = PhysicalSetup(mass=M_E, beta=0.0, potential=InfiniteWell(a=A_WELL))
        energies = np.linspace(1e-19, 2e-17, 9)
        problem = nondimensionalize(setup)
        dof, errors, _ = one_energy_at_a_time(problem, energies / problem.energy_scale)
        scan = dof_scan(setup, energies)
        assert len(errors) == 9 and scan.errors == errors
        assert scan.dof == dof == (None,) * 9


def relative_gap(stacked, single):
    """Largest entry gap of two constraint matrices, relative to the single one's largest entry."""
    return float(np.max(np.abs(stacked - single)) / max(np.max(np.abs(single)), 1e-300))


class TestBatchedWkbScan:
    # the linear and harmonic counts run as one batched pass; each energy
    # that fails (a precondition, or a check of the batch) is rerun alone
    @given(
        kind=st.sampled_from(["linear", "harmonic"]),
        log_eps=st.floats(-4.0, math.log10(0.5)),
        energies=st.lists(st.floats(-21.0, -16.5), min_size=2, max_size=24, unique=True).map(
            lambda logs: sorted(10.0**t for t in logs)
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_the_per_energy_path(self, kind, log_eps, energies):
        # E_c = 1e-18 J: linear energies below about 5.1e-20 J put the wall
        # inside the turning window, harmonic ones above e_max close the band
        setup = (linear_setup_for if kind == "linear" else harmonic_setup_for)(10.0**log_eps)
        problem = nondimensionalize(setup)
        e_dims = np.asarray(energies) / problem.energy_scale
        dof, errors, matrices = one_energy_at_a_time(problem, e_dims)
        scan = dof_scan(setup, energies)
        assert scan.dof == dof
        assert scan.errors == errors
        assert all(type(d) is int for d in scan.dof if d is not None)
        ok = [i for i, d in enumerate(dof) if d is not None]
        if not ok:
            return
        nullity, system = degrees_of_freedom(problem, e_dims[ok])
        assert nullity.tolist() == [dof[i] for i in ok]
        assert system.matrix.shape == (len(ok),) + matrices[0].shape
        for stacked, single in zip(system.matrix, matrices):
            assert np.array_equal(stacked, single) or relative_gap(stacked, single) <= 1e-12

    @pytest.mark.parametrize(
        "kind, beta, energies, limit",
        [
            ("harmonic", 4.1e47, np.linspace(2e-17 / 40, 2e-17, 40), "highest energy"),
            ("linear", 1e47, np.linspace(2e-20, 2e-17, 40), "lowest energy"),
        ],
    )
    def test_failing_energies_rerun_alone(self, monkeypatch, kind, beta, energies, limit):
        # the energies the batch flags run one at a time; the rest stay batched
        potential = Harmonic(omega=1.897e16) if kind == "harmonic" else Linear(slope=1.281e-8)
        setup = PhysicalSetup(mass=M_E, beta=beta, potential=potential)
        problem = nondimensionalize(setup)
        calls = []
        real = matcher.degrees_of_freedom

        def counting(problem, energy):
            calls.append(np.size(energy) if np.ndim(energy) else None)
            return real(problem, energy)

        # dof_scan imports the count from matcher when it runs, so it sees the patch
        monkeypatch.setattr(matcher, "degrees_of_freedom", counting)
        scan = dof_scan(setup, energies)
        dof, errors, _ = one_energy_at_a_time(problem, energies / problem.energy_scale)
        assert scan.dof == dof and scan.errors == errors
        assert errors and all(limit in message for message in errors.values())
        n_failed = len(errors)
        # a batch of all energies, one per failing energy, a batch of the rest
        assert calls == [energies.size] + [None] * n_failed + [energies.size - n_failed]

    @pytest.mark.parametrize("kind", ["linear", "harmonic"])
    def test_a_clean_scan_is_one_svd(self, monkeypatch, kind):
        setup = (linear_setup_for if kind == "linear" else harmonic_setup_for)(0.05)
        calls = []
        real = matcher.nullity_of

        def counting(system):
            calls.append(system.matrix.shape)
            return real(system)

        monkeypatch.setattr(matcher, "nullity_of", counting)
        scan = dof_scan(setup, np.linspace(2e-19, 5e-18, 200))
        assert scan.errors == {}
        assert set(scan.dof) == {1 if kind == "linear" else 2}
        assert calls == [(200, 3 if kind == "linear" else 4, 4)]


def labelled_one_level_at_a_time(setup, energies):
    """(marks, labels) as the scan built them before: every level list rebuilt per k."""
    energies = np.asarray(energies, dtype=float)
    tol = 0.5 * float(np.max(np.diff(energies))) if energies.size > 1 else 0.5 * energies[0]
    marks, k = [], 1
    while True:
        se = well_special_energies(setup, k)[-1]
        if se.energy_si > energies[-1] + tol:
            break
        marks.append(se)
        k += 1
    labels = ["ExtraContinuum"] * energies.size
    for se in marks:
        i = int(np.argmin(np.abs(energies - se.energy_si)))
        if abs(energies[i] - se.energy_si) < tol:
            labels[i] = "StandardLevel"
    return tuple(marks), tuple(labels)


class TestSpecialLevelLabels:
    @pytest.mark.parametrize(
        "a, energies",
        [
            (1e-8, np.linspace(1e-19, 2e-17, 200)),  # the CLI's --a 1e-8, 249 levels
            (1e-8, np.linspace(2e-17 / 2000, 2e-17, 2000)),
            (A_WELL, np.linspace(1e-19, 2e-17, 60)),
            (A_WELL, [1.0e-21]),  # no level below the top
            (3e-9, [1e-30, 2e-30, 1e-18]),  # equal rounded distances: argmin takes the first
        ],
    )
    def test_marks_and_labels_match_the_level_by_level_loop(self, a, energies):
        setup = PhysicalSetup(mass=M_E, beta=1e47, potential=InfiniteWell(a=a))
        scan = dof_scan(setup, energies)
        marks, labels = labelled_one_level_at_a_time(setup, energies)
        assert scan.special_marks == marks
        assert scan.labels == labels

    def test_cli_a_1e8_marks_pinned(self):
        setup = PhysicalSetup(mass=M_E, beta=1e47, potential=InfiniteWell(a=1e-8))
        energies = np.linspace(2e-17 / 200, 2e-17, 200)  # dof-scan --a 1e-8
        scan = dof_scan(setup, energies)
        assert len(scan.special_marks) == 249
        assert [se.k for se in scan.special_marks] == list(range(1, 250))
        assert scan.labels.count("StandardLevel") == 145

    def test_too_many_levels_refused(self):
        setup = PhysicalSetup(mass=M_E, beta=1e47, potential=InfiniteWell(a=1e-5))
        with pytest.raises(InvalidSetupError, match=r"about 10\^5\.5 special well levels"):
            dof_scan(setup, [1e-19, 2e-17])

    @staticmethod
    def no_solve(*args):
        raise AssertionError("the scan solved an energy before it refused")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_scan_top_is_refused(self, well_setup, monkeypatch):
        # the top plus half the grid spacing overflows to inf: a named refusal,
        # not a ValueError, counted before any solve and without a numpy warning
        monkeypatch.setattr(matcher, "degrees_of_freedom", self.no_solve)
        with pytest.raises(InvalidSetupError, match="^more than 100000 special well levels") as info:
            dof_scan(well_setup, [1e308, 1.7e308])
        assert "passes the float range" in str(info.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["linear", "harmonic"])
    def test_overflowing_scaled_energies_are_refused(self, monkeypatch, kind):
        # E / E_c passes the float range while E does not: refused by name
        # before any solve, where the scan ran the solver on inf
        setup = (linear_setup_for if kind == "linear" else harmonic_setup_for)(0.02)
        limit = np.finfo(float).max * nondimensionalize(setup).energy_scale
        monkeypatch.setattr(matcher, "degrees_of_freedom", self.no_solve)
        with pytest.raises(InvalidSetupError, match="past the float range in scaled units") as info:
            dof_scan(setup, [1e300, 1.7e308])
        assert f"must stay below {limit:.6g} J" in str(info.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_level_product_is_refused(self, monkeypatch):
        # 4 eps y overflows (2 sqrt(eps) sqrt(y) = 2.8e315) while sqrt(y) does
        # not: about 1e81 levels lie below the top, refused from the estimate
        # before the walk steps level by level towards them
        calls = 0
        level = spectrum._special_level

        def counted(problem, k):
            nonlocal calls
            calls += 1
            assert calls < 1000, "the level walk does not end"
            return level(problem, k)

        monkeypatch.setattr(spectrum, "_special_level", counted)
        setup = PhysicalSetup(mass=1e30, beta=1e300, potential=InfiniteWell(a=1e40))
        with pytest.raises(InvalidSetupError, match=r"^about 10\^81\.4 special well levels"):
            dof_scan(setup, [1e299, 1e300])
        assert calls == 0

    def test_level_limit_is_exact(self):
        # a single energy y labels the levels up to 1.5 y; the estimate sits
        # below limit + 2 on both sides, so the exact count decides
        setup = PhysicalSetup(mass=M_E, beta=1e47, potential=InfiniteWell(a=4e-6))
        limit = spectrum.MAX_SPECIAL_LEVELS
        at_limit = spectrum.well_special_energy(setup, limit) / 1.5
        assert len(dof_scan(setup, [at_limit]).special_marks) == limit
        past = spectrum.well_special_energy(setup, limit + 1) / 1.5 * (1.0 + 1e-12)
        with pytest.raises(InvalidSetupError, match=rf"^{limit + 1} special well levels"):
            dof_scan(setup, [past])


class TestMomentumMoments:
    def test_well_ground_standard_variance(self, well_setup):
        problem, state = ground_analog_state(well_setup)
        m = momentum_moments(state, problem)
        assert m.mean_p == pytest.approx(0.0, abs=1e-30)
        assert m.mean_P == pytest.approx(0.0, abs=1e-30)
        assert m.delta_p**2 == pytest.approx((math.pi * HBAR / (2 * A_WELL)) ** 2, rel=1e-8, abs=0.0)
        assert m.delta_p**2 == pytest.approx(2.744e-48, rel=1e-3, abs=0.0)

    def test_ratio_values(self, well_setup):
        problem, state = ground_analog_state(well_setup)
        m = momentum_moments(state, problem)
        assert m.ratio == pytest.approx(0.2744, abs=5e-4)
        low = PhysicalSetup(mass=M_E, beta=1e20, potential=InfiniteWell(a=A_WELL))
        problem_low, state_low = ground_analog_state(low)
        m_low = momentum_moments(state_low, problem_low)
        assert m_low.ratio == pytest.approx(2.744e-28, rel=1e-3, abs=0.0)

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
        m_direct = momentum_moments(state, well_problem)
        m_reduced = momentum_moments(state, well_problem, energy=se.energy_dimensionless)
        assert m_reduced.delta_P**2 == pytest.approx(m_direct.delta_P**2, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("source", ["direct", "reduction"])
    @pytest.mark.parametrize("beta", [1e47, 1e48])
    def test_sine_deformed_second_moment_closed_form(self, beta, source):
        # the k = 1 sine is an eigenfunction of p^2, so P^2 = p^2 (1 + bt' p^2)^2
        # gives <P^2> = kappa^2 (1 + bt' kappa^2)^2 in p_c units
        setup = reference_well_setup(beta=beta)
        problem = nondimensionalize(setup)
        lo, hi = problem.domain
        kappa = math.pi / (hi - lo)
        state = ShiftedSineState(kappa=kappa, lo=lo, hi=hi)
        # "direct" takes the sixth derivative from the state, "reduction" from the equation of motion
        energy = well_special_energies(setup, 1)[0].energy_dimensionless if source == "reduction" else None
        m = momentum_moments(state, problem, energy=energy)
        p_c = problem.momentum_scale
        bt = setup.beta_prime * p_c**2
        expected = kappa**2 * (1.0 + bt * kappa**2) ** 2
        assert (m.delta_P**2 + m.mean_P**2) / p_c**2 == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "setup",
        [harmonic_setup_for(0.12), PhysicalSetup(mass=M_E, beta=1e47, potential=Harmonic(omega=1e30))],
    )
    def test_gaussian_deformed_second_moment_closed_form(self, setup):
        # <p^2>, <p^4>, <p^6> of the harmonic ground state are 1/2, 3/4, 15/8 in p_c units
        problem, state = ground_analog_state(setup)
        m = momentum_moments(state, problem)
        p_c = problem.momentum_scale
        bt = setup.beta_prime * p_c**2
        expected = 0.5 + 2.0 * bt * 0.75 + bt**2 * 15.0 / 8.0
        assert (m.delta_P**2 + m.mean_P**2) / p_c**2 == pytest.approx(expected, rel=1e-10)

    def test_moments_do_not_call_scalar_quad(self, monkeypatch, well_setup):
        # observability's moments are closed forms and a WKB state's come
        # from the Gauss-Legendre panels: neither reaches scalar quad
        import gupbic.spectrum
        from gupbic.errors import NumericalError
        from gupbic.matcher import solve_linear
        from gupbic.verification import linear_setup_for

        calls = []
        monkeypatch.setattr(gupbic.spectrum, "quad", lambda *args, **kwargs: calls.append(args))
        for setup in (
            well_setup,
            PhysicalSetup(mass=M_E, beta=1e47, potential=Linear(slope=1.281e-8)),
            PhysicalSetup(mass=M_E, beta=1e47, potential=Harmonic(omega=1.897e16)),
        ):
            observability(setup)
        problem = nondimensionalize(linear_setup_for(0.01))
        sol = solve_linear(problem, 2.0)
        with pytest.raises(NumericalError, match="variance"):
            momentum_moments(sol.states[0], problem, regions=sol.regions, energy=2.0)
        assert calls == []

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
            momentum_moments(sol.states[0], problem, regions=sol.regions, energy=2.0)

    def test_wkb_state_without_energy_names_the_order_limit(self):
        # WKB bases stop at the fourth derivative, so the deformed moments of a
        # WKB state need its energy for the equation-of-motion reduction
        from gupbic.matcher import solve_linear
        from gupbic.verification import linear_setup_for

        problem = nondimensionalize(linear_setup_for(0.01))
        sol = solve_linear(problem, 2.0)
        with pytest.raises(PreconditionError, match="up to order 4"):
            momentum_moments(sol.states[0], problem, regions=sol.regions)

    def test_gaussian_ground_variance(self):
        setup = PhysicalSetup(mass=M_E, beta=1e47, potential=Harmonic(omega=1e30))
        problem, state = ground_analog_state(setup)
        m = momentum_moments(state, problem)
        assert m.delta_p**2 == pytest.approx(M_E * HBAR * 1e30 / 2.0, rel=1e-8, abs=0.0)

    def test_airy_ground_virial(self):
        setup = PhysicalSetup(mass=M_E, beta=1e47, potential=Linear(slope=M_E * 9.8))
        problem, state = ground_analog_state(setup)
        m = momentum_moments(state, problem)
        # virial for V = Lx: <p^2>/2m = E/3, ground energy = first Airy zero
        expected = 2.0 * M_E * (state.ground_energy * problem.energy_scale) / 3.0
        assert m.delta_p**2 == pytest.approx(expected, rel=1e-7, abs=0.0)


# the ends and the middle of the cli-mix ranges of a, L and omega, at the CLI's beta
CLI_MIX_POTENTIALS = [
    InfiniteWell(a=5e-11), InfiniteWell(a=1e-10), InfiniteWell(a=2e-10),
    Linear(slope=1e-29), Linear(slope=1.7e-19), Linear(slope=1e-8),
    Harmonic(omega=1e15), Harmonic(omega=3.2e22), Harmonic(omega=1e30),
]


class TestClosedFormMoments:
    @pytest.mark.parametrize("potential", CLI_MIX_POTENTIALS, ids=repr)
    def test_match_the_panel_moments(self, potential):
        # the power moments against the five panel integrals, at the setup's
        # beta and at the critical beta* = 10^exponent the refinement reads
        setup = PhysicalSetup(mass=M_E, beta=1e47, potential=potential)
        problem, state = ground_analog_state(setup)
        critical = PhysicalSetup(
            mass=M_E, beta=10.0 ** observability(setup).exponent, potential=potential
        )
        for prob in (problem, nondimensionalize(critical)):
            closed = closed_form_moments(state, prob)
            panels = momentum_moments(state, prob)
            assert closed.mean_p == closed.mean_P == 0.0
            assert abs(panels.mean_p) <= 1e-12 * panels.delta_p
            assert abs(panels.mean_P) <= 1e-12 * panels.delta_P
            # SI moments are far below approx's default absolute tolerance
            assert closed.delta_p**2 == pytest.approx(panels.delta_p**2, rel=1e-12, abs=0.0)
            assert closed.delta_P**2 == pytest.approx(
                panels.delta_P**2 + panels.mean_P**2, rel=1e-12, abs=0.0
            )
            assert closed.ratio == pytest.approx(panels.ratio, rel=1e-12, abs=0.0)

    def test_airy_constants_are_scipys(self):
        from scipy.special import ai_zeros, airy

        zero = float(ai_zeros(1)[0][0])
        assert spectrum.AIRY_Z1 == -zero
        assert spectrum.AIRY_NORM == abs(float(airy(zero)[1]))

    def test_airy_hypervirial_moments_against_mpmath(self):
        # m2 = -<u>, m4 = <u^2> and m6 = -1 - <u^3> (u = x - z1), with the
        # position moments of the bouncer by 30-digit quadrature
        import mpmath

        with mpmath.workdps(30):
            z1 = -mpmath.airyaizero(1)

            def mean(n):
                weight = lambda x: mpmath.airyai(x - z1) ** 2
                parts = [0, z1, z1 + 20]
                return mpmath.quad(lambda x: (x - z1) ** n * weight(x), parts) / mpmath.quad(weight, parts)

            reference = [float(-mean(1)), float(mean(2)), float(-1 - mean(3))]
        assert AiryBouncerState().power_moments == pytest.approx(reference, rel=1e-14)


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


class TestCriticalBeta:
    def test_well_exponent(self, well_setup):
        result = observability(well_setup)
        assert result.exponent == pytest.approx(47.5616, abs=1e-3)
        assert result.discrepancy_note is None
        # refined value with the deformed operator is reported alongside
        assert result.refined_exponent == pytest.approx(47.31, abs=0.01)

    def test_harmonic_exponent(self):
        setup = PhysicalSetup(mass=M_E, beta=1e47, potential=Harmonic(omega=1e30))
        result = observability(setup)
        assert result.exponent == pytest.approx(34.3185, abs=1e-3)

    def test_linear_exponent_with_discrepancy_flag(self):
        setup = PhysicalSetup(mass=M_E, beta=1e47, potential=Linear(slope=M_E * 9.8))
        result = observability(setup)
        assert result.exponent == pytest.approx(61.95, abs=0.05)
        assert result.discrepancy_note is not None
        assert "37" in result.discrepancy_note

    def test_beta_independent(self, well_setup):
        r1 = observability(well_setup).exponent
        other = PhysicalSetup(mass=M_E, beta=1e30, potential=InfiniteWell(a=A_WELL))
        assert observability(other).exponent == pytest.approx(r1, rel=1e-12)


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
