"""Energy structure, momentum moments and the observability condition.

The deformed momentum operator is P = p (1 + beta' p^2); in scaled coordinates
(p_hat = -i d/dxt, momenta in units of p_c = hbar/L_c)

    <P>   = p_c * int phi* (-i phi' + i bt' phi''') dxt,
    <P^2> = p_c^2 * int phi* (-phi'' + 2 bt' phi'''' - bt'^2 phi^(6)) dxt,

with bt' = beta' p_c^2.  The fourth and sixth derivatives are reduced through
the equation of motion (phi'''' = [phi'' - (v - e) phi]/eps and its
derivatives) rather than differentiated numerically; closed-form reference
states supply direct analytic derivatives instead.

The observability ratio r = beta [(dp)^2 + <p>^2] uses the standard momentum
moments, so it is exactly linear in beta; the full deformed-operator moments
are computed alongside and reported.  r at or above ~0.1 marks the regime
where the minimal-length term visibly perturbs the uncertainty relation.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import ai_zeros, airy

from .core import DimensionlessProblem, InfiniteWell, PhysicalSetup, nondimensionalize
from .errors import GupBicError, NumericalError, PreconditionError, WrongPotentialError
from .matcher import degrees_of_freedom
from .basis import characteristic_roots

OBVIOUS_RATIO_THRESHOLD = 0.1


# --- special energies (infinite well) ---------------------------------------------


@dataclass(frozen=True)
class SpecialEnergy:
    k: int
    energy_si: float
    energy_dimensionless: float


def well_special_energies(setup: PhysicalSetup, k_max: int) -> list[SpecialEnergy]:
    """E_k = k^4 pi^4 hbar^4 beta' / (16 m a^4) + k^2 pi^2 hbar^2 / (8 m a^2).

    At these energies the oscillatory wavenumber is kappa = k pi / (2a) and the
    wall-to-wall sine solves the fourth-order equation exactly; beta -> 0
    recovers the standard well levels.
    """
    if not isinstance(setup.potential, InfiniteWell):
        raise WrongPotentialError("special energies are defined for the infinite well")
    if k_max < 1:
        raise PreconditionError(f"k_max must be >= 1, got {k_max}")
    a, m, hbar = setup.potential.a, setup.mass, setup.hbar
    problem = nondimensionalize(setup)
    out = []
    for k in range(1, k_max + 1):
        e_si = (
            k**4 * math.pi**4 * hbar**4 * setup.beta_prime / (16.0 * m * a**4)
            + k**2 * math.pi**2 * hbar**2 / (8.0 * m * a**2)
        )
        out.append(
            SpecialEnergy(k=k, energy_si=e_si, energy_dimensionless=problem.energy_from_si(e_si))
        )
    return out


def kappa_at_energy(setup: PhysicalSetup, energy_si: float) -> float:
    """Oscillatory wavenumber kappa (SI, 1/m) at the given well energy."""
    if not isinstance(setup.potential, InfiniteWell):
        raise WrongPotentialError("kappa check is defined for the infinite well")
    problem = nondimensionalize(setup)
    roots = characteristic_roots(problem.epsilon, problem.energy_from_si(energy_si))
    return roots.kappa / problem.length_scale


# --- degrees-of-freedom scan --------------------------------------------------------


@dataclass(frozen=True)
class SpectrumScan:
    kind: str
    energies_si: np.ndarray
    energies_dimensionless: np.ndarray
    dof: tuple[int | None, ...]
    labels: tuple[str, ...]
    special_marks: tuple[SpecialEnergy, ...]
    errors: dict[int, str] = field(default_factory=dict)

    def rows(self):
        for e_si, e_dim, d, label in zip(
            self.energies_si, self.energies_dimensionless, self.dof, self.labels
        ):
            yield (float(e_si), float(e_dim), -1 if d is None else int(d), label)


def dof_scan(
    setup: PhysicalSetup,
    energies_si: Sequence[float],
    threads: int = 1,
    problem: DimensionlessProblem | None = None,
) -> SpectrumScan:
    """Degrees of freedom (degeneracy) at each scan energy.

    Per-energy failures are recorded and do not abort the scan.  Grid rows
    nearest a special well energy (within half the grid spacing) are labelled
    StandardLevel, everything else ExtraContinuum.
    """
    energies = np.asarray(list(energies_si), dtype=float)
    if energies.size < 1 or np.any(energies <= 0.0) or np.any(np.diff(energies) <= 0.0):
        raise PreconditionError("energies must be strictly increasing and > 0")
    if problem is None:
        problem = nondimensionalize(setup)
    e_dims = energies / problem.energy_scale

    def one(e_dim: float):
        try:
            return degrees_of_freedom(problem, float(e_dim))[0], None
        except GupBicError as exc:
            return None, f"{type(exc).__name__}: {exc}"

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, e_dims))
    else:
        results = [one(e) for e in e_dims]

    dof = tuple(r[0] for r in results)
    errors = {i: r[1] for i, r in enumerate(results) if r[1] is not None}

    marks: tuple[SpecialEnergy, ...] = ()
    labels = ["ExtraContinuum"] * energies.size
    if isinstance(setup.potential, InfiniteWell):
        tol = 0.5 * float(np.max(np.diff(energies))) if energies.size > 1 else 0.5 * energies[0]
        collected = []
        k = 1
        while True:
            se = well_special_energies(setup, k)[-1]
            if se.energy_si > energies[-1] + tol:
                break
            collected.append(se)
            k += 1
        for se in collected:
            i = int(np.argmin(np.abs(energies - se.energy_si)))
            if abs(energies[i] - se.energy_si) < tol:
                labels[i] = "StandardLevel"
        marks = tuple(collected)

    return SpectrumScan(
        kind=problem.kind,
        energies_si=energies,
        energies_dimensionless=e_dims,
        dof=dof,
        labels=tuple(labels),
        special_marks=marks,
        errors=errors,
    )


# --- reference (ground-analog) states ----------------------------------------------


class AnalyticState:
    """Closed-form normalized state with derivatives to arbitrary order."""

    regions: tuple[tuple[float, float], ...]

    def derivatives(self, x: float, order: int = 3) -> np.ndarray:
        raise NotImplementedError

    def value(self, x: float) -> complex:
        return self.derivatives(x, order=0)[0]

    def __call__(self, x: float) -> complex:
        return self.value(x)


class ShiftedSineState(AnalyticState):
    """phi = sin(kappa (x - lo)) on (lo, hi); unit norm when kappa*(hi-lo) = k*pi."""

    def __init__(self, kappa: float, lo: float, hi: float):
        self.kappa = kappa
        self.lo = lo
        self.regions = ((lo, hi),)

    def derivatives(self, x: float, order: int = 3) -> np.ndarray:
        k, u = self.kappa, self.kappa * (x - self.lo)
        cycle = [math.sin(u), math.cos(u), -math.sin(u), -math.cos(u)]
        return np.array([cycle[n % 4] * k**n for n in range(order + 1)], dtype=complex)


class GaussianGroundState(AnalyticState):
    """phi = pi^(-1/4) exp(-x^2/2): standard harmonic ground state, scaled units."""

    def __init__(self, cutoff: float = 12.0):
        self.regions = ((-cutoff, cutoff),)

    def derivatives(self, x: float, order: int = 3) -> np.ndarray:
        # phi^(n) = (-1)^n He_n(x) phi with He_{n+1} = x He_n - n He_{n-1}
        base = math.pi**-0.25 * math.exp(-0.5 * x * x)
        out = np.empty(order + 1, dtype=complex)
        he_prev, he = 0.0, 1.0
        for n in range(order + 1):
            out[n] = (-he if n % 2 else he) * base
            he_prev, he = he, x * he - n * he_prev
        return out


class AiryBouncerState(AnalyticState):
    """phi = Ai(x - z1) / |Ai'(-z1)| on (0, inf): standard bouncer ground state.

    z1 = 2.33811... is minus the first Airy zero; derivatives follow from
    Ai'' = u Ai via A^(n+2) = u A^(n) + n A^(n-1).
    """

    def __init__(self, cutoff: float = 14.0):
        zero = float(ai_zeros(1)[0][0])  # negative
        self.shift = -zero
        self.norm = abs(float(airy(zero)[1]))
        self.regions = ((0.0, self.shift + cutoff),)

    @property
    def ground_energy(self) -> float:
        return self.shift

    def derivatives(self, x: float, order: int = 3) -> np.ndarray:
        u = x - self.shift
        ai, aip, _, _ = airy(u)
        d = [complex(ai), complex(aip)]
        for n in range(0, order - 1):
            d.append(u * d[n] + n * d[n - 1] if n >= 1 else u * d[0])
        return np.array(d[: order + 1], dtype=complex) / self.norm


def ground_analog_state(setup: PhysicalSetup) -> tuple[DimensionlessProblem, AnalyticState]:
    """Lowest standard-level state in scaled coordinates for each potential."""
    problem = nondimensionalize(setup)
    if problem.kind == "well":
        lo, hi = problem.domain
        return problem, ShiftedSineState(kappa=math.pi / (hi - lo), lo=lo, hi=hi)
    if problem.kind == "harmonic":
        return problem, GaussianGroundState()
    if problem.kind == "linear":
        return problem, AiryBouncerState()
    raise WrongPotentialError(f"no ground-analog state for kind {problem.kind!r}")


# --- momentum moments ----------------------------------------------------------------


@dataclass(frozen=True)
class MomentumMoments:
    """Standard and deformed momentum moments of one normalized state (SI)."""

    mean_P: float
    delta_P: float
    mean_p: float
    delta_p: float
    ratio: float
    beta: float
    norm: float

    @property
    def variance_sum_standard(self) -> float:
        return self.delta_p**2 + self.mean_p**2


def _quad_complex(f: Callable[[float], complex], lo: float, hi: float) -> complex:
    kw = dict(epsabs=1e-12, epsrel=1e-10, limit=300)
    with warnings.catch_warnings():
        # a vanishing imaginary part trips the roundoff detector; harmless here
        warnings.simplefilter("ignore", IntegrationWarning)
        re = quad(lambda x: f(x).real, lo, hi, **kw)[0]
        im = quad(lambda x: f(x).imag, lo, hi, **kw)[0]
    return complex(re, im)


def _state_derivs_order6(
    state, problem: DimensionlessProblem, x: float, source: str, energy: float | None
) -> np.ndarray:
    if source == "direct":
        return np.asarray(state.derivatives(x, order=6), dtype=complex)
    eps = problem.epsilon
    if eps <= 0.0:
        raise PreconditionError("equation-of-motion reduction needs epsilon > 0")
    if energy is None:
        raise PreconditionError(
            "equation-of-motion reduction needs the state's dimensionless energy"
        )
    d = np.asarray(state.derivatives(x, order=3), dtype=complex)
    v = problem.v_derivs(x)
    w = v[0] - energy
    d4 = (d[2] - w * d[0]) / eps
    d5 = (d[3] - v[1] * d[0] - w * d[1]) / eps
    d6 = (d4 - v[2] * d[0] - 2.0 * v[1] * d[1] - w * d[2]) / eps
    return np.concatenate([d, [d4, d5, d6]])


def momentum_moments(
    state,
    problem: DimensionlessProblem,
    regions: Sequence[tuple[float, float]] | None = None,
    derivative_source: str = "auto",
    energy: float | None = None,
) -> MomentumMoments:
    """<P>, dP (deformed operator) and <p>, dp (standard) for a normalized state.

    ``derivative_source``: 'reduction' uses the equation of motion for the 4th
    and 6th derivatives (requires the state's dimensionless ``energy``);
    'direct' asks the state for them; 'auto' prefers 'direct' when the state
    supports order 6, else 'reduction'.
    """
    setup = problem.setup
    if regions is None:
        regions = getattr(state, "regions", None)
        if regions is None:
            raise PreconditionError("no integration regions supplied or carried by the state")
    if derivative_source == "auto":
        try:
            state.derivatives(0.5 * (regions[0][0] + regions[0][1]), order=6)
            derivative_source = "direct"
        except Exception:
            derivative_source = "reduction"
    elif derivative_source not in ("direct", "reduction"):
        raise PreconditionError(f"unknown derivative_source {derivative_source!r}")

    p_c = problem.momentum_scale
    bt_prime = setup.beta_prime * p_c**2

    def moment(apply_op: Callable[[float], complex]) -> complex:
        total = 0.0 + 0.0j
        for lo, hi in regions:
            total += _quad_complex(
                lambda x: np.conj(state.derivatives(x, order=0)[0]) * apply_op(x), lo, hi
            )
        return total

    norm = moment(lambda x: state.derivatives(x, order=0)[0]).real
    if abs(norm - 1.0) > 1e-6:
        raise PreconditionError(f"state norm {norm} deviates from 1 by more than 1e-6")

    def op_p(x: float) -> complex:
        d = state.derivatives(x, order=1)
        return -1j * d[1]

    def op_p2(x: float) -> complex:
        d = state.derivatives(x, order=2)
        return -d[2]

    mean_p = moment(op_p).real * p_c
    mean_p2 = moment(op_p2).real * p_c**2

    if bt_prime == 0.0:
        mean_pp, mean_pp2 = mean_p, mean_p2
    else:

        def op_deformed(x: float) -> complex:
            d = state.derivatives(x, order=3)
            return -1j * d[1] + 1j * bt_prime * d[3]

        def op_deformed2(x: float) -> complex:
            d = _state_derivs_order6(state, problem, x, derivative_source, energy)
            return -d[2] + 2.0 * bt_prime * d[4] - bt_prime**2 * d[6]

        mean_pp = moment(op_deformed).real * p_c
        mean_pp2 = moment(op_deformed2).real * p_c**2

    var_p = mean_p2 - mean_p**2
    var_pp = mean_pp2 - mean_pp**2
    floor = -1e-10 * max(abs(mean_p2), mean_p**2, 1e-300)
    if var_p < floor or var_pp < floor:
        raise NumericalError(
            f"momentum variance came out negative ({var_p:.3e}): the state's "
            "regions do not form one consistent wavefunction (piecewise WKB "
            "states across turning windows carry branch-dependent phases and "
            "are outside the moments contract)"
        )
    var_p = max(var_p, 0.0)
    var_pp = max(var_pp, 0.0)
    ratio = setup.beta * (var_p + mean_p**2)
    return MomentumMoments(
        mean_P=mean_pp,
        delta_P=math.sqrt(var_pp),
        mean_p=mean_p,
        delta_p=math.sqrt(var_p),
        ratio=ratio,
        beta=setup.beta,
        norm=norm,
    )


# --- observability and the critical deformation strength -----------------------------


class Observability(Enum):
    OBVIOUS = "Obvious"
    INCONSPICUOUS = "Inconspicuous"


@dataclass(frozen=True)
class ObservabilityResult:
    verdict: Observability
    ratio: float
    moments: MomentumMoments
    threshold: float


def observability(
    setup: PhysicalSetup,
    state=None,
    problem: DimensionlessProblem | None = None,
    threshold: float = OBVIOUS_RATIO_THRESHOLD,
) -> ObservabilityResult:
    """Obvious iff r = beta [(dp)^2 + <p>^2] >= threshold (default 0.1)."""
    if state is None:
        problem, state = ground_analog_state(setup)
    elif problem is None:
        problem = nondimensionalize(setup)
    moments = momentum_moments(state, problem)
    verdict = Observability.OBVIOUS if moments.ratio >= threshold else Observability.INCONSPICUOUS
    return ObservabilityResult(
        verdict=verdict, ratio=moments.ratio, moments=moments, threshold=threshold
    )


@dataclass(frozen=True)
class CriticalBetaResult:
    """log10 of the deformation strength that makes r = 1 for the given state."""

    exponent: float
    refined_exponent: float
    variance_sum: float
    moments: MomentumMoments
    discrepancy_note: str | None = None


LINEAR_EXPONENT_NOTE = (
    "linear potential: computed from the bouncer ground momentum scale "
    "p_c = (2 m^2 g hbar)^(1/3); differs by orders of magnitude from the "
    "published 'close to 37' estimate, whose momentum scale is unstated"
)


def critical_beta_exponent(
    setup: PhysicalSetup,
    state=None,
    problem: DimensionlessProblem | None = None,
) -> CriticalBetaResult:
    """log10(1 / [(dp)^2 + <p>^2]) with standard momentum moments.

    The returned exponent is beta-independent (it uses the undeformed
    moments); one fixed-point refinement with the full deformed operator at
    beta = 10^exponent is reported alongside as ``refined_exponent``.
    """
    if state is None:
        problem, state = ground_analog_state(setup)
    elif problem is None:
        problem = nondimensionalize(setup)
    moments = momentum_moments(state, problem)
    s = moments.variance_sum_standard
    if s <= 0.0:
        raise PreconditionError("zero momentum moments: critical exponent undefined")
    exponent = -math.log10(s)

    beta_star = 10.0**exponent
    refined_setup = PhysicalSetup(
        mass=setup.mass, beta=beta_star, potential=setup.potential, hbar=setup.hbar
    )
    refined_problem = nondimensionalize(refined_setup, length_scale=problem.length_scale)
    refined = momentum_moments(state, refined_problem, regions=getattr(state, "regions", None))
    s_ref = refined.delta_P**2 + refined.mean_P**2
    note = LINEAR_EXPONENT_NOTE if problem.kind == "linear" else None
    return CriticalBetaResult(
        exponent=exponent,
        refined_exponent=-math.log10(s_ref),
        variance_sum=s,
        moments=moments,
        discrepancy_note=note,
    )
