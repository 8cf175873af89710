"""Cross-checks between the closed-form/WKB machinery and the oracle integrator.

Each check returns a CheckResult with the measured number and its threshold so
reports stay machine-readable; the CLI ``verify`` command and the acceptance
suite both run these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .basis import characteristic_roots, exact_constant_basis
from .core import (
    DEFAULT_RTOL,
    ELECTRON_MASS,
    HBAR,
    REFERENCE_HALF_WIDTH,
    Harmonic,
    InfiniteWell,
    Linear,
    PhysicalSetup,
    nondimensionalize,
    reference_well_setup,
)
from .errors import GupBicError
from .matcher import StateFunction, evaluate_states, solve_well, well_basis
from .oracle import (
    GROWTH_FLOOR,
    MomentumSolution,
    bounded_dimension,
    growth_exponents_many,
    integrate_many,
    launch_frame,
    momentum_rep_linear,
    residual,
    wronskian_drift,
)


ENERGY_SCALE = 1e-18  # J, the E_c of linear_setup_for and harmonic_setup_for


def beta_for_epsilon(epsilon: float, length_scale: float) -> float:
    """Invert eps = 2 (beta/3) hbar^2 / L^2."""
    return 1.5 * epsilon * length_scale**2 / HBAR**2


def linear_setup_for(epsilon: float) -> PhysicalSetup:
    """Linear potential for an electron, with E_c = ENERGY_SCALE and the given eps."""
    length = HBAR / math.sqrt(2.0 * ELECTRON_MASS * ENERGY_SCALE)
    slope = ENERGY_SCALE / length
    return PhysicalSetup(
        mass=ELECTRON_MASS, beta=beta_for_epsilon(epsilon, length), potential=Linear(slope=slope)
    )


def harmonic_setup_for(epsilon: float) -> PhysicalSetup:
    """Harmonic oscillator for an electron, with E_c = hbar*omega/2 = ENERGY_SCALE and the given eps."""
    omega = 2.0 * ENERGY_SCALE / HBAR
    length = math.sqrt(HBAR / (ELECTRON_MASS * omega))
    return PhysicalSetup(
        mass=ELECTRON_MASS, beta=beta_for_epsilon(epsilon, length), potential=Harmonic(omega=omega)
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    comparison: str = "<="
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": float(self.measured),
            "threshold": float(self.threshold),
            "comparison": self.comparison,
            **({"detail": self.detail} if self.detail else {}),
        }


def _well_label(setup: PhysicalSetup) -> str:
    return f"well, a {setup.potential.a:g} m, beta {setup.beta:g}"


def _result(name: str, measured: float, threshold: float, comparison: str = "<=", **detail) -> CheckResult:
    if comparison == "<=":
        ok = measured <= threshold
    elif comparison == ">=":
        ok = measured >= threshold
    else:
        raise ValueError(f"unknown comparison {comparison!r}")
    return CheckResult(
        name=name, passed=ok, measured=measured, threshold=threshold,
        comparison=comparison, detail=detail,
    )


# A plan is a check split in two: its oracle integration requests, and the judge that turns
# their results (one integrate_many entry per request, in order) into the check's outcome.
_Plan = tuple[list[tuple], Callable[[list[np.ndarray]], Any]]


def _integrated(plans: list[_Plan], rtol: float) -> list:
    """Each plan's judgement, from one ``integrate_many`` call over the requests of every plan."""
    marched = integrate_many([request for requests, _ in plans for request in requests], rtol)
    judged, start = [], 0
    for requests, judge in plans:
        judged.append(judge(marched[start : start + len(requests)]))
        start += len(requests)
    return judged


def check_wronskian_constancy(
    n_cases: int = 20, seed: int = 20240811, rtol: float = DEFAULT_RTOL
) -> CheckResult:
    """Abel invariant: trace A = 0, so W must be constant along x (all cases in one batch)."""
    return _integrated([_wronskian_constancy_plan(n_cases, seed)], rtol)[0]


def _wronskian_constancy_plan(n_cases: int = 20, seed: int = 20240811) -> _Plan:
    rng = np.random.default_rng(seed)
    cases = []
    kinds = ["well", "linear", "harmonic"]
    for i in range(n_cases):
        kind = kinds[i % 3]
        eps = float(10.0 ** rng.uniform(-1.6, 0.3))
        if kind == "well":
            setup = reference_well_setup(beta=beta_for_epsilon(eps, REFERENCE_HALF_WIDTH))
            e = float(rng.uniform(0.5, 8.0))
            problem = nondimensionalize(setup)
            anchor, span = 0.0, 1.0
        elif kind == "linear":
            setup = linear_setup_for(eps)
            problem = nondimensionalize(setup)
            e = float(rng.uniform(0.5, 6.0))
            anchor, span = 0.6 * e, min(1.5, 0.5 * e + 0.8)
        else:
            setup = harmonic_setup_for(eps)
            problem = nondimensionalize(setup)
            e = float(rng.uniform(0.5, 6.0))
            anchor, span = 0.0, min(1.5, math.sqrt(e))
        # keep the frame condition number within det accuracy
        mu1 = characteristic_roots(problem.epsilon, e).mu1
        span = min(span, 4.0 / mu1 + 0.2)
        xs = np.linspace(anchor - span, anchor + span, 9)
        if problem.kind == "linear":
            xs = xs[xs > 0.05]
        cases.append((problem, e, np.eye(4), anchor, xs))

    def judge(frames):
        every_point = np.concatenate([np.empty((4, 4, 0)), *frames], axis=-1)
        return _result(
            "wronskian_constancy", wronskian_drift(every_point), 1e-8, cases=n_cases,
            setup=f"random well, linear and harmonic cases, eps 10^[-1.6, 0.3], seed {seed}",
        )

    return cases, judge


def check_exact_well_oracle_agreement(rtol: float = DEFAULT_RTOL) -> CheckResult:
    """Closed-form well solutions vs integration from identical initial data (one batch).

    One exact basis batched over the three energies gives every state's
    launch derivatives in one evaluation and its grid values in another.

    The check runs the reference setup (beta 1e47, a = 1e-10 m) only, where
    it reads about 6e-12.  Its energies and coefficients are fixed, and the
    forward march amplifies roundoff by about exp(2 mu1 L), so other setups
    would fail its 1e-8 threshold with no fault in either solver: 1.1e-6 at
    a = 3e-10 m, 5.1e15 at beta 1e45.
    """
    return _integrated([_exact_well_plan()], rtol)[0]


def _exact_well_plan() -> _Plan:
    setup = reference_well_setup()
    problem = nondimensionalize(setup)
    xs = np.linspace(-1.0, 1.0, 201)
    energies = np.array([2.918779290241783, 1.638, 16.38])
    _, basis = well_basis(problem, energies[:, None])
    coefficients = [[0.05, 0.4, 0.7, 0.55]]
    launch = evaluate_states(coefficients, basis, [-1.0], order=3)[0, :, :, 0].T.copy()  # (energy, order)
    vals = evaluate_states(coefficients, basis, xs, order=0)[0, 0]

    def judge(marched):
        phi = np.array([march[0] for march in marched])
        worst = np.max(np.max(np.abs(phi - vals), axis=-1) / np.max(np.abs(vals), axis=-1))
        return _result("exact_well_oracle_agreement", float(worst), 1e-8, setup=_well_label(setup))

    return [(problem, e, d, -1.0, xs) for e, d in zip(energies.tolist(), launch)], judge


def check_residual_exact() -> CheckResult:
    """The exact basis solves the equation: residual of one state on the reference well."""
    setup = reference_well_setup()
    problem = nondimensionalize(setup)
    e = 2.918779290241783
    roots = characteristic_roots(problem.epsilon, e)
    basis = exact_constant_basis(roots, problem.domain)
    state = StateFunction(np.array([0.2, 0.3, 0.6, 0.7]), basis)
    grid = np.linspace(-0.99, 0.99, 101)
    return _result(
        "residual_exact_basis", residual(state, problem, e, grid), 1e-10, setup=_well_label(setup)
    )


def check_residual_negative_control() -> CheckResult:
    """Corrupting a solution must blow the residual up (test of the test), on the reference well."""
    setup = reference_well_setup()
    problem = nondimensionalize(setup)
    e = 2.918779290241783
    roots = characteristic_roots(problem.epsilon, e)
    basis = exact_constant_basis(roots, problem.domain)
    kap = roots.kappa
    state = StateFunction(np.array([0.0, 0.0, math.sin(kap), math.cos(kap)]), basis)

    class Corrupted:
        def derivatives(self, x, order=3):
            d = state.derivatives(x, order=order)
            d[0] += 0.01 * x
            if order >= 1:
                d[1] += 0.01
            return d

    grid = np.linspace(-0.99, 0.99, 101)
    return _result(
        "residual_negative_control", residual(Corrupted(), problem, e, grid), 1e-2,
        comparison=">=", setup=_well_label(setup),
    )


def momentum_dimension_evidence(setup: PhysicalSetup, energy_si: float) -> tuple[MomentumSolution, float, complex, int]:
    """The 1 vs 4 solution-space evidence for the linear potential at one energy.

    Returns the momentum-space solution, its largest ODE residual over 100
    probes in pt = [-6, 6], the position-space Wronskian W and the
    position-space dimension it shows: 4 where |W| > 1e-6 (the identity
    frame stays a fundamental system), else 0.  W is the determinant of the
    identity frame launched at x = 0.8 and read one decay length 1/mu1 away,
    far enough to integrate and near enough to stay conditioned at any beta.
    """
    return _integrated([_momentum_evidence_plan(setup, energy_si)], DEFAULT_RTOL)[0]


def _momentum_evidence_plan(setup: PhysicalSetup, energy_si: float) -> _Plan:
    problem = nondimensionalize(setup)
    sol = momentum_rep_linear(setup, energy_si)
    res = float(np.max(sol.ode_residual(np.linspace(-6.0, 6.0, 100))))
    e = problem.energy_from_si(energy_si)
    mu1 = characteristic_roots(problem.epsilon, e).mu1

    def judge(marched):
        w = complex(np.linalg.det(marched[0][..., 0]))
        return sol, res, w, 4 if abs(w) > 1e-6 else 0

    return [(problem, e, np.eye(4), 0.8, [0.8 + 1.0 / mu1])], judge


def check_momentum_representation() -> CheckResult:
    """First-order momentum-space solution: residual, antiderivative, dimensions (linear, eps 0.01, e 2)."""
    return _integrated([_momentum_representation_plan()], DEFAULT_RTOL)[0]


def _momentum_representation_plan() -> _Plan:
    setup = linear_setup_for(0.01)
    problem = nondimensionalize(setup)
    energy_si = problem.energy_to_si(2.0)
    requests, evidence = _momentum_evidence_plan(setup, energy_si)

    def judge(marched):
        sol, res, w, position_dimension = evidence(marched)
        anti = sol.phase_quadrature_check(np.linspace(-4.0, 4.0, 9))
        # finite-difference cross-check of the analytic derivative
        h = 1e-6
        ps = np.linspace(-3.0, 3.0, 11)
        fd = (sol(ps + h) - sol(ps - h)) / (2.0 * h)
        exact = sol.derivative(ps)
        fd_worst = float(np.max(np.abs(fd - exact) / np.maximum(np.abs(exact), 1e-30)))
        measured = max(res, anti)
        return _result(
            "momentum_representation",
            measured,
            1e-10,
            momentum_dimension=sol.dimension,
            position_dimension=position_dimension,
            wronskian_abs=float(abs(w)),
            fd_derivative_agreement=fd_worst,
            setup=f"linear, eps {problem.epsilon:.3g}, E {energy_si:.3g} J",
        )

    return requests, judge


DECAY_EPS = 0.02
DECAY_SETUP = f"linear (e 2) and harmonic (e 1.7), eps {DECAY_EPS:g}"


def _decay_label(standard: bool) -> tuple[str, str]:
    """The decay check's name and ``detail.setup`` text, fourth-order or standard (beta = 0)."""
    if standard:
        return "decaying_subspace_dimension_standard", DECAY_SETUP + ", standard (beta = 0) equation"
    return "decaying_subspace_dimension", DECAY_SETUP


def check_decaying_dimensions(standard: bool = False, rtol: float = DEFAULT_RTOL) -> CheckResult:
    """Bounded-subspace dimension: 2 per side (fourth order), 1 per side (standard).

    The detail records each side's growth exponents and the smallest
    |exponent|, which must clear GROWTH_FLOOR for the count to be trusted.
    """
    expected = 1 if standard else 2
    lin = nondimensionalize(linear_setup_for(DECAY_EPS))
    har = nondimensionalize(harmonic_setup_for(DECAY_EPS))
    marches = {
        "linear:+inf": (lin, 2.0, "+inf", None),
        "harmonic:+inf": (har, 1.7, "+inf", None),
        "harmonic:-inf": (har, 1.7, "-inf", None),
    }
    growth = dict(zip(marches, growth_exponents_many(list(marches.values()), standard, rtol)))
    results = {k: bounded_dimension(g) for k, g in growth.items()}
    worst = max(abs(v - expected) for v in results.values())
    name, setup = _decay_label(standard)
    return _result(
        name, float(worst), 0.0, expected=expected, dimensions=results, setup=setup,
        growth_exponents={k: g.tolist() for k, g in growth.items()},
        min_abs_growth={k: float(np.min(np.abs(g))) for k, g in growth.items()},
        growth_floor=GROWTH_FLOOR,
    )


def check_well_sine_recovery(setup: PhysicalSetup) -> CheckResult:
    """At the special energies one normalized state is the wall-to-wall sine.

    The three levels are solved in one batch, and all their states are
    evaluated in one pass over the basis batched over the levels.
    """
    from .spectrum import well_kappa, well_special_energies

    problem = nondimensionalize(setup)
    specials = well_special_energies(setup, 3)
    energies = np.array([se.energy_dimensionless for se in specials])
    solutions = solve_well(problem, energies)
    _, basis = well_basis(problem, energies[:, None])
    # (state, 4, level, 1): each level's coefficient rows
    coefficients = np.array([[st.coefficients for st in sol.states] for sol in solutions]).transpose(1, 2, 0)[..., None]
    xs = np.linspace(-1.0, 1.0, 301)
    vals = evaluate_states(coefficients, basis, xs, order=0)[:, 0]  # (state, level, x)
    kap = well_kappa(problem, np.array([se.k for se in specials]))
    ref = np.sin(kap[:, None] * (xs + 1.0))
    sign = np.where(np.abs(np.max(vals.real + ref, axis=-1)) >= np.abs(np.max(vals.real - ref, axis=-1)), 1.0, -1.0)
    errs = np.max(np.abs(sign[..., None] * vals - ref), axis=-1)
    return _result("well_sine_recovery", float(np.max(np.min(errs, axis=0))), 1e-8, setup=_well_label(setup))


def standard_harmonic_mismatch(problem, energy: float) -> float:
    """Two-sided-decay matching defect for the second-order (beta = 0) equation.

    Launches the solution decaying toward each far side (column 0 of its
    ``launch_frame``), meets at x = 0, and returns the normalized Wronskian
    of the two trajectories: zero exactly at the standard levels e = 1, 3,
    5, ... (natural units), O(1) in between.
    """
    x_far = math.sqrt(energy) + 4.0
    launches = [
        (problem, energy, launch_frame(problem, energy, 2, x, -x)[:, 0], x, [0.0]) for x in (x_far, -x_far)
    ]
    lv, rv = (phi[:, 0] for phi in integrate_many(launches))
    det = lv[0] * rv[1] - rv[0] * lv[1]
    return float((det / (np.linalg.norm(lv) * np.linalg.norm(rv))).real)


def run_verification(setup: PhysicalSetup, rtol: float = DEFAULT_RTOL) -> list[CheckResult]:
    """The check battery for the CLI verify command.

    ``setup`` selects only standard mode (beta = 0) and the setup of the well
    sine-recovery check (run for a well with beta > 0); every other check
    runs its fixed reference setup, which its ``detail`` names.  The oracle
    runs twice: one ``integrate_many`` batch serves the Wronskian, exact-well
    and momentum checks, and the decay check's marches are the second call.
    Each check reads the same as when it runs alone.
    """
    wronskian_check, exact_check, momentum_check = _integrated(
        [_wronskian_constancy_plan(n_cases=9), _exact_well_plan(), _momentum_representation_plan()], rtol
    )
    checks = [wronskian_check, exact_check, check_residual_exact(), check_residual_negative_control(), momentum_check]
    standard_mode = setup.beta == 0.0
    try:
        checks.append(check_decaying_dimensions(standard=standard_mode, rtol=rtol))
    except GupBicError as exc:
        name, decay_setup = _decay_label(standard_mode)
        checks.append(
            CheckResult(
                name=name, passed=False, measured=math.nan, threshold=0.0,
                detail={"error": str(exc), "setup": decay_setup},
            )
        )
    if isinstance(setup.potential, InfiniteWell) and setup.beta > 0.0:
        checks.append(check_well_sine_recovery(setup))
    return checks
