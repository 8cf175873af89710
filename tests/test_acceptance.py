"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from gupbic import (
    HBAR,
    Harmonic,
    InfiniteWell,
    Linear,
    PhysicalSetup,
    characteristic_roots,
    integrate,
    nondimensionalize,
    residual,
)
from gupbic.basis import WkbBasisFunction, WkbParameters, map_regions, wkb_branches
from gupbic.matcher import solve_linear, solve_well
from gupbic.spectrum import (
    dof_scan,
    kappa_at_energy,
    observability,
    well_special_energies,
)
from gupbic.verification import (
    check_wronskian_constancy,
    reference_well_setup,
    harmonic_setup_for,
    linear_setup_for,
    momentum_dimension_evidence,
    standard_harmonic_mismatch,
)

M_E = 9.10956e-31
A_WELL = 1e-10
BETA_REFERENCE_PARAMS = 1e47


def report(number: int, message: str) -> None:
    print(f"\n[ACCEPTANCE {number}] PASS: {message}")


def test_criterion_1_well_special_energies():
    t0 = time.perf_counter()
    setup = reference_well_setup()
    worst = 0.0
    for se in well_special_energies(setup, 5):
        target = se.k * math.pi / (2.0 * A_WELL)
        worst = max(worst, abs(kappa_at_energy(setup, se.energy_si) / target - 1.0))
    assert worst <= 1e-10

    setup0 = PhysicalSetup(mass=M_E, beta=0.0, potential=InfiniteWell(a=A_WELL))
    for se in well_special_energies(setup0, 5):
        exact = se.k**2 * math.pi**2 * HBAR**2 / (8.0 * M_E * A_WELL**2)
        assert se.energy_si == exact

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        1,
        f"kappa(E_k) = k*pi/2a to {worst:.2e} rel (k=1..5); beta=0 limit exact; "
        f"runtime {elapsed:.3f} s < 1 s",
    )


def test_criterion_2_continuum_degeneracy():
    t0 = time.perf_counter()
    energies = np.linspace(2e-17 / 200, 2e-17, 200)
    results = {}
    for name, setup, expected in (
        ("well", reference_well_setup(), 2),
        ("linear", linear_setup_for(0.12), 1),
        ("harmonic", harmonic_setup_for(0.12), 2),
    ):
        scan = dof_scan(setup, energies)
        assert scan.errors == {}, scan.errors
        assert set(scan.dof) == {expected}, f"{name}: dof values {set(scan.dof)}"
        results[name] = expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        2,
        f"dof over 200 energies in (0, 2e-17] J: well=2, linear=1, harmonic=2 "
        f"at every energy; runtime {elapsed:.1f} s < 60 s",
    )


def test_criterion_3_special_level_wavefunctions():
    setup = reference_well_setup()
    problem = nondimensionalize(setup)
    worst_sine = 0.0
    worst_wall = 0.0
    worst_res = 0.0
    xs = np.linspace(-1.0, 1.0, 501)
    for se in well_special_energies(setup, 3):
        sol = solve_well(problem, se.energy_dimensionless)
        assert sol.degeneracy == 2
        kap = se.k * math.pi / 2.0
        ref = np.sin(kap * (xs + 1.0))
        # one normalized state equals (1/sqrt(a)) sin(k pi (x+a)/2a) in SI,
        # i.e. the scaled state equals the unit-amplitude sine
        errs = []
        for st in sol.states:
            vals = np.array([st.value(x).real for x in xs])
            sign = 1.0 if np.dot(vals, ref) >= 0 else -1.0
            errs.append(float(np.max(np.abs(sign * vals - ref))))
        sine_idx = int(np.argmin(errs))
        worst_sine = max(worst_sine, errs[sine_idx])
        partner = sol.states[1 - sine_idx]
        worst_wall = max(worst_wall, abs(partner.value(-1.0)), abs(partner.value(1.0)))
        grid = np.linspace(-0.999, 0.999, 400)
        worst_res = max(
            worst_res, residual(partner, problem, se.energy_dimensionless, grid)
        )
    assert worst_sine <= 1e-8
    # also in absolute SI units (phi_SI = phi_scaled / sqrt(a), magnitude ~1e5)
    assert worst_sine / math.sqrt(A_WELL) <= 1e-8
    assert worst_wall <= 1e-8
    assert worst_res <= 1e-8
    report(
        3,
        f"k=1..3: sine state L-inf {worst_sine:.2e} <= 1e-8; partner walls "
        f"{worst_wall:.2e}, ODE residual {worst_res:.2e} <= 1e-8",
    )


def test_criterion_4_wronskian_invariant():
    result = check_wronskian_constancy(n_cases=20, seed=20240811)
    assert result.passed, result
    report(
        4,
        f"Wronskian constant to {result.measured:.2e} <= 1e-8 relative over "
        f"20 random (potential, E, eps) cases",
    )


def _wkb_vs_oracle(eps: float, energy: float = 1.0, w_lo: float = 1.0, w_hi: float = 3.0):
    """Relative L2 disagreement between w2/w4 and oracle trajectories."""
    problem = nondimensionalize(linear_setup_for(eps))
    x_lo, x_hi = energy + w_lo, energy + w_hi
    mu1 = characteristic_roots(eps, -1.0).mu1  # fast rate scale ~ 1/sqrt(eps)

    out = {}
    # fast branch: single backward launch, reference point at the launch
    p2 = WkbParameters.from_problem(problem, energy, x0=x_hi)
    rmap = map_regions(p2, x_lo - 0.3, x_hi + 0.3)
    w2 = WkbBasisFunction(wkb_branches(p2, (x_lo - 0.3, x_hi + 0.3), region_map=rmap).table, 2)
    xs = np.linspace(x_lo, x_hi, 61)
    phi = integrate(problem, energy, w2.derivatives(x_hi, order=3), x_hi, xs, rtol=1e-12, atol=1e-14)[0]
    vals = w2.value(xs)
    out[2] = math.sqrt(float(np.sum(np.abs(phi - vals) ** 2) / np.sum(np.abs(vals) ** 2)))

    # slow branch: piecewise backward relaunches, piece ~ 3.2/mu1 so the
    # fast-mode contamination amplification stays bounded
    p4 = WkbParameters.from_problem(problem, energy, x0=0.5 * (x_lo + x_hi))
    w4 = WkbBasisFunction(wkb_branches(p4, (x_lo - 0.3, x_hi + 0.3), region_map=rmap).table, 4)
    n_pieces = max(2, math.ceil((w_hi - w_lo) * mu1 / 3.2))
    edges = np.linspace(x_lo, x_hi, n_pieces + 1)
    num = den = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        pts = np.linspace(a, b, 13)
        phi = integrate(problem, energy, w4.derivatives(b, order=3), b, pts, rtol=1e-12, atol=1e-14)[0]
        vals = w4.value(pts)
        num += float(np.sum(np.abs(phi - vals) ** 2))
        den += float(np.sum(np.abs(vals) ** 2))
    out[4] = math.sqrt(num / den)
    return out


def _tail_fit_r_squared(eps: float, energy: float = 1.0) -> float:
    problem = nondimensionalize(linear_setup_for(eps))
    x_q = energy + 1.0 / (4.0 * eps)
    x_start = max(3.0 * x_q, 40.0)
    params = WkbParameters.from_problem(problem, energy, x0=x_start)
    rmap = map_regions(params, x_start - 1.0, 4.0 * x_start + 1.0)
    w1 = WkbBasisFunction(wkb_branches(params, (x_start - 1.0, 4.0 * x_start + 1.0), region_map=rmap).table, 1)
    xs = np.linspace(x_start, 4.0 * x_start, 60)
    logs = np.array([w1.exponent(x).real for x in xs])
    design = np.vstack([xs**1.25, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


def test_criterion_5_wkb_validity():
    eps_values = (1e-2, 1e-3, 1e-4)
    errors = {2: [], 4: []}
    for eps in eps_values:
        res = _wkb_vs_oracle(eps)
        errors[2].append(res[2])
        errors[4].append(res[4])
    for j in (2, 4):
        assert all(e <= 0.02 for e in errors[j]), f"w{j}: {errors[j]}"
        assert errors[j][0] > errors[j][1] > errors[j][2], f"w{j} not decreasing: {errors[j]}"

    r2 = _tail_fit_r_squared(1e-3)
    assert r2 >= 0.999
    report(
        5,
        "w2 L2 err " + "/".join(f"{e:.1e}" for e in errors[2])
        + ", w4 " + "/".join(f"{e:.1e}" for e in errors[4])
        + f" for eps=1e-2/1e-3/1e-4 (<= 2%, decreasing); tail fit R^2 = {r2:.5f} >= 0.999",
    )


def test_criterion_6_linear_wavefunction_construction():
    problem = nondimensionalize(linear_setup_for(1e-2))
    energy = 2.0
    sol = solve_linear(problem, energy)
    st = sol.states[0]
    wall = abs(st.value(0.0))
    assert wall <= 1e-10

    tail_lo, tail_hi = sol.regions[-1]
    start = tail_lo + 0.2 * (tail_hi - tail_lo)
    amp_start = abs(st.value(start))
    amp_end = abs(st.value(tail_hi))
    drop = amp_start / max(amp_end, 1e-300)
    assert drop >= 1e4
    report(
        6,
        f"phi(0) = {wall:.2e} <= 1e-10; far-tail amplitude drop {drop:.2e} >= 1e4",
    )


def test_criterion_7_observability_exponents():
    from scipy.integrate import quad

    # well: computed-by-quadrature exponent vs the inverse-variance oracle
    well = reference_well_setup()
    res_well = observability(well)
    oracle_well = -math.log10((math.pi * HBAR / (2.0 * A_WELL)) ** 2)
    assert res_well.exponent == pytest.approx(oracle_well, abs=1e-8)
    assert abs(res_well.exponent - 47.6) <= 0.1
    assert abs(res_well.exponent - 47.0) <= 1.5  # informational published-estimate comparison

    harmonic = PhysicalSetup(mass=M_E, beta=BETA_REFERENCE_PARAMS, potential=Harmonic(omega=1e30))
    res_har = observability(harmonic)
    oracle_har = -math.log10(M_E * HBAR * 1e30 / 2.0)
    assert res_har.exponent == pytest.approx(oracle_har, abs=1e-8)
    assert abs(res_har.exponent - 34.3) <= 0.1
    assert abs(res_har.exponent - 33.0) <= 1.5  # informational published-estimate comparison

    linear = PhysicalSetup(mass=M_E, beta=BETA_REFERENCE_PARAMS, potential=Linear(slope=M_E * 9.8))
    res_lin = observability(linear)
    assert res_lin.discrepancy_note is not None
    report(
        7,
        f"well exponent {res_well.exponent:.4f} (oracle {oracle_well:.4f}), harmonic "
        f"{res_har.exponent:.4f} (oracle {oracle_har:.4f}); linear {res_lin.exponent:.2f} "
        f"reported with discrepancy flag vs published ~37",
    )


def test_criterion_8_momentum_representation_mismatch():
    setup = linear_setup_for(1e-2)
    problem = nondimensionalize(setup)
    sol, res, w, position_dimension = momentum_dimension_evidence(setup, problem.energy_to_si(2.0))
    assert res <= 1e-10
    assert sol.dimension == 1
    # the identity frame integrated one decay length keeps W = 1 (Abel)
    assert abs(w - 1.0) <= 1e-10
    assert position_dimension == 4
    report(
        8,
        f"momentum-space ODE residual {res:.2e} <= 1e-10, dimension 1; "
        f"position-space fundamental system dimension 4 (|W - 1| = {abs(w - 1.0):.1e})",
    )


def test_criterion_9_classical_limit_contrast():
    problem = nondimensionalize(harmonic_setup_for(1e-2))
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
        assert abs(root - target) <= 1e-3
    # zeros are isolated, not intervals: O(1) mismatch between the levels
    gaps = [abs(standard_harmonic_mismatch(problem, e)) for e in (2.0, 4.0)]
    assert all(g > 0.1 for g in gaps)
    report(
        9,
        f"standard-equation mismatch zeros at {[f'{r:.6f}' for r in roots]} "
        f"(within 1e-3 of 1, 3, 5); mid-gap magnitudes {[f'{g:.2f}' for g in gaps]}",
    )
