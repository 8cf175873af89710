"""Energy structure, momentum moments and the observability condition.

The deformed momentum operator is P = p (1 + beta' p^2); in scaled coordinates
(p_hat = -i d/dxt, momenta in units of p_c = hbar/L_c)

    <P>   = p_c * int phi* (-i phi' + i bt' phi''') dxt,
    <P^2> = p_c^2 * int phi* (-phi'' + 2 bt' phi'''' - bt'^2 phi^(6)) dxt,

with bt' = beta' p_c^2.

The observability condition reads three closed-form ground states (the
wall-to-wall sine, the Gaussian and the Airy bouncer), so it integrates
nothing: each state carries its power moments m2, m4, m6 in p_c units
(``power_moments``), and since the states are real and vanish at their ends,
<p> = <P> = 0 and <P^2> = p_c^2 (m2 + 2 bt' m4 + bt'^2 m6)
(``closed_form_moments``).

``momentum_moments`` integrates any state.  Given the state's energy, the
fourth to sixth derivatives are reduced through the equation of motion
(phi'''' = [phi'' - (v - e) phi]/eps and its derivatives) rather than
differentiated numerically; without it the state supplies them, as the
closed-form states do analytically.  All five integrands phi* [phi, -i phi',
-phi'', P phi, P^2 phi] are integrated in one call of the package's
Gauss-Legendre panel integrator (``panels.panel_integrals``, tolerance
_MOMENT_TOL), which asks the state for its derivatives on every node of the
open panels at once.

The observability ratio r = beta [(dp)^2 + <p>^2] uses the standard momentum
moments, so it is exactly linear in beta; the full deformed-operator moments
are computed alongside and reported.  r at or above ~0.1 marks the regime
where the minimal-length term visibly perturbs the uncertainty relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from ._scipy import lazy
from .core import DimensionlessProblem, InfiniteWell, PhysicalSetup, checked_scale, nondimensionalize
from .errors import (
    ConfigError,
    GupBicError,
    InvalidSetupError,
    NumericalError,
    PreconditionError,
    WrongPotentialError,
)
from .panels import panel_integrals

# unused here: perfbench/tracer.py patches spectrum.quad until ROADMAP item 1 replaces it
quad = lazy("integrate", "quad")

OBVIOUS_RATIO_THRESHOLD = 0.1
_MOMENT_TOL = 1e-11
# AIRY_Z1 = 2.33811... is minus the first zero of Ai, AIRY_NORM = |Ai'(-AIRY_Z1)|:
# the values of scipy.special.ai_zeros(1) and airy, bit for bit
AIRY_Z1 = 2.3381074104597674
AIRY_NORM = 0.7012108227206915
# most special well levels a scan labels, well_special_energies lists (spectrum --k-max)
# and wavefunction --k selects; anything above it is refused
MAX_SPECIAL_LEVELS = 100_000


# --- special energies (infinite well) ---------------------------------------------


@dataclass(frozen=True)
class SpecialEnergy:
    k: int
    energy_si: float
    energy_dimensionless: float


def well_special_energies(setup: PhysicalSetup, k_max: int) -> list[SpecialEnergy]:
    """E_k = E_c (kappa_k^2 + eps kappa_k^4) with kappa_k = k pi / (hi - lo), k = 1 ... k_max.

    At these energies the oscillatory wavenumber is kappa_k and the
    wall-to-wall sine solves the fourth-order equation exactly; eps -> 0
    recovers the standard well levels.  Each level is formed in scaled units
    and converted to J once.  It lists at most MAX_SPECIAL_LEVELS of them,
    and above that raises InvalidSetupError naming the limit.
    """
    if not isinstance(setup.potential, InfiniteWell):
        raise WrongPotentialError("special energies are defined for the infinite well")
    if k_max < 1:
        raise PreconditionError(f"k_max must be >= 1, got {k_max}")
    if k_max > MAX_SPECIAL_LEVELS:
        raise InvalidSetupError(
            f"k_max = {k_max} levels requested; at most MAX_SPECIAL_LEVELS = {MAX_SPECIAL_LEVELS} are listed"
        )
    return _special_levels(nondimensionalize(setup), k_max)


def _special_levels(problem: DimensionlessProblem, k_max: int) -> list[SpecialEnergy]:
    """E_1 ... E_k_max of ``well_special_energies`` for the problem of a well setup."""
    return [_special_level(problem, k) for k in range(1, k_max + 1)]


def well_special_energy(setup: PhysicalSetup, k: int) -> float:
    """E_k of ``well_special_energies`` in J, for one level k >= 1 of a well setup."""
    return _special_level(nondimensionalize(setup), k).energy_si


def well_kappa(problem: DimensionlessProblem, k):
    """kappa_k = k pi / (hi - lo), the wavenumber of the k-th wall-to-wall sine; k an int or an array."""
    lo, hi = problem.domain
    return k * math.pi / (hi - lo)


def _special_level(problem: DimensionlessProblem, k: int) -> SpecialEnergy:
    """Level k of ``well_special_energies``: e_k = kappa_k^2 + eps kappa_k^4, and e_k E_c in J."""
    kappa = well_kappa(problem, k)
    kappa2 = kappa * kappa
    e = kappa2 + problem.epsilon * kappa2 * kappa2
    e_si = checked_scale(f"special energy E_{k}", lambda: problem.energy_to_si(e))
    return SpecialEnergy(k=k, energy_si=e_si, energy_dimensionless=e)


def _special_level_count(problem: DimensionlessProblem, top: float) -> int:
    """The number of special well levels with E_k <= top (J).

    e = kappa^2 (1 + eps kappa^2) reaches y = top / E_c at
    kappa^2 = 2y / (1 + sqrt(1 + 4 eps y)).  With r = sqrt(y) that is
    kappa = sqrt(r) / sqrt((1/r + hypot(1/r, 2 sqrt(eps))) / 2): no factor
    grows with r, so it stays finite wherever r does (r > 0 as top > 0).
    A top whose r overflows lies above more than MAX_SPECIAL_LEVELS levels
    (eps <= EPSILON_MAX).  The estimate k = kappa (hi - lo) / pi is then
    moved to the exact count by the level formula, which is monotone in k.
    Above MAX_SPECIAL_LEVELS it raises InvalidSetupError naming the count.
    """
    root_y = math.sqrt(top) / math.sqrt(problem.energy_scale)
    if not math.isfinite(root_y):
        raise InvalidSetupError(_too_many_levels(f"more than {MAX_SPECIAL_LEVELS}", top))
    inv = 1.0 / root_y
    kappa = math.sqrt(root_y) / math.sqrt(0.5 * inv + 0.5 * math.hypot(inv, 2.0 * math.sqrt(problem.epsilon)))
    lo, hi = problem.domain
    estimate = kappa * (hi - lo) / math.pi
    if estimate > MAX_SPECIAL_LEVELS + 2:
        raise InvalidSetupError(_too_many_levels(f"about 10^{math.log10(estimate):.1f}", top))
    k = int(estimate)
    while k > 0 and _special_level(problem, k).energy_si > top:
        k -= 1
    while _special_level(problem, k + 1).energy_si <= top:
        k += 1
    if k > MAX_SPECIAL_LEVELS:
        raise InvalidSetupError(_too_many_levels(str(k), top))
    return k


def _too_many_levels(count: str, top: float) -> str:
    if math.isfinite(top):
        where = f"the scan top {top:.6g} J (with half the grid spacing)"
    else:
        where = "the scan top (with half the grid spacing it passes the float range)"
    return (
        f"{count} special well levels lie below {where}; "
        f"dof_scan labels at most MAX_SPECIAL_LEVELS = {MAX_SPECIAL_LEVELS}: "
        "lower --e-max, or use a setup with fewer levels in range"
    )


def kappa_at_energy(setup: PhysicalSetup, energy_si: float) -> float:
    """Oscillatory wavenumber kappa (SI, 1/m) at the given well energy."""
    if not isinstance(setup.potential, InfiniteWell):
        raise WrongPotentialError("kappa check is defined for the infinite well")
    from .basis import characteristic_roots

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

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """E_SI, E_dimensionless, dof and label of each energy; dof is -1 where the energy failed."""
        dof = np.array([-1 if d is None else d for d in self.dof], dtype=np.int64)
        return self.energies_si, self.energies_dimensionless, dof, np.array(self.labels)


# unused here: threads, which perfbench/workloads.py passes as threads=1 until ROADMAP item 1 step 2
def dof_scan(setup: PhysicalSetup, energies_si: Sequence[float], threads: int = 1) -> SpectrumScan:
    """Degrees of freedom (degeneracy) at each scan energy.

    Per-energy failures are recorded and do not abort the scan.  Every
    potential runs as one batched pass over all energies.  If the batch
    raises, the energies its error names (``GupBicError.failed``; every
    energy where it names none) run one at a time, so each failure is
    recorded with its own message, and the rest run as a batch again.
    Grid rows nearest a special well energy (within half the grid spacing)
    are labelled StandardLevel, everything else ExtraContinuum.

    Before any solve a well scan counts its special levels, which refuses a
    top above MAX_SPECIAL_LEVELS of them, and every scan refuses energies
    whose scaled value e = E / E_c passes the float range: both raise
    InvalidSetupError naming the limit.
    """
    from .matcher import degrees_of_freedom

    energies = np.array(energies_si, dtype=float)
    if energies.ndim != 1:
        raise ConfigError(f"scan energies must be a 1-D sequence, got an array of shape {energies.shape}")
    finite = np.isfinite(energies)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ConfigError(f"scan energies must be finite, got {energies[i]} J at index {i}")
    # strictly increasing from a first energy > 0
    if energies.size < 1 or energies[0] <= 0.0 or (energies[1:] <= energies[:-1]).any():
        raise PreconditionError("energies must be strictly increasing and > 0")
    problem = nondimensionalize(setup)
    k_max = 0
    if isinstance(setup.potential, InfiniteWell):
        # counted before any solve, so a top above too many levels is refused at once
        tol = 0.5 * float(np.diff(energies).max()) if energies.size > 1 else 0.5 * energies[0]
        with np.errstate(over="ignore"):
            k_max = _special_level_count(problem, energies[-1] + tol)
    # the energies increase, so the last scaled one is the largest (a float
    # quotient: it overflows to inf with no numpy warning)
    if not math.isfinite(float(energies[-1]) / problem.energy_scale):
        e_max = float(np.finfo(float).max) * problem.energy_scale
        raise InvalidSetupError(
            f"scan energy {energies[-1]:.6g} J is past the float range in scaled units "
            f"(E_c = {problem.energy_scale:.6g} J): the scan energies must stay below "
            f"{e_max:.6g} J, the largest float times E_c"
        )
    e_dims = energies / problem.energy_scale

    def one(e_dim: float):
        try:
            return degrees_of_freedom(problem, float(e_dim))[0], None
        except GupBicError as exc:
            return None, f"{type(exc).__name__}: {exc}"

    results: list = [None] * energies.size  # (dof, error message) of each energy
    batch = np.arange(energies.size)
    while batch.size:
        try:
            nullities = degrees_of_freedom(problem, e_dims[batch])[0].tolist()
        except GupBicError as exc:
            flagged = np.ones(batch.size, dtype=bool) if exc.failed is None else exc.failed
            for i in batch[flagged].tolist():
                results[i] = one(e_dims[i])
            batch = batch[~flagged]
        else:
            for i, d in zip(batch.tolist(), nullities):
                results[i] = (d, None)
            break

    dof = tuple(r[0] for r in results)
    errors = {i: r[1] for i, r in enumerate(results) if r[1] is not None}

    marks: tuple[SpecialEnergy, ...] = ()
    labels = ["ExtraContinuum"] * energies.size
    if k_max:
        marks = tuple(_special_levels(problem, k_max))
        for i in _nearest_rows(energies, np.array([se.energy_si for se in marks]), tol):
            labels[i] = "StandardLevel"

    return SpectrumScan(
        kind=problem.kind,
        energies_si=energies,
        energies_dimensionless=e_dims,
        dof=dof,
        labels=tuple(labels),
        special_marks=marks,
        errors=errors,
    )


def _nearest_rows(energies: np.ndarray, levels: np.ndarray, tol: float) -> np.ndarray:
    """Rows np.argmin(|energies - level|) of the levels within tol of their nearest row.

    Among equal distances argmin takes the first row; they form one run
    ending at the left neighbour of the level, which the walk steps down.
    """

    def dist(rows):
        return np.abs(energies[rows] - levels)

    right = np.minimum(np.searchsorted(energies, levels), energies.size - 1)
    left = np.maximum(right - 1, 0)
    rows = np.where(dist(left) <= dist(right), left, right)
    while True:
        tie = (rows > 0) & (dist(np.maximum(rows - 1, 0)) == dist(rows))
        if not tie.any():
            return rows[dist(rows) < tol]
        rows = rows - tie


# --- reference (ground-analog) states ----------------------------------------------


class AnalyticState:
    """Closed-form normalized real state with derivatives to arbitrary order.

    ``power_moments`` are m2, m4, m6 = -int phi phi'', int phi phi'''' and
    -int phi phi^(6): <p^2>, <p^4> and <p^6> in p_c units.
    """

    regions: tuple[tuple[float, float], ...]
    power_moments: tuple[float, float, float]

    def derivatives(self, x, order: int = 3) -> np.ndarray:
        """(value, d1, ..., d_order) at a float or an array x, shape (order + 1,) + shape(x)."""
        raise NotImplementedError

    def value(self, x):
        """The state at a float or an array x."""
        return self.derivatives(x, order=0)[0]


class ShiftedSineState(AnalyticState):
    """phi = sin(kappa (x - lo)) on (lo, hi); unit norm when kappa*(hi-lo) = k*pi."""

    def __init__(self, kappa: float, lo: float, hi: float):
        self.kappa = kappa
        self.lo = lo
        self.regions = ((lo, hi),)
        # an eigenfunction of p^2 with eigenvalue kappa^2
        self.power_moments = (kappa**2, kappa**4, kappa**6)

    def derivatives(self, x, order: int = 3) -> np.ndarray:
        k, u = self.kappa, self.kappa * (np.asarray(x, dtype=float) - self.lo)
        cycle = [np.sin(u), np.cos(u), -np.sin(u), -np.cos(u)]
        return np.array([cycle[n % 4] * k**n for n in range(order + 1)], dtype=complex)


class GaussianGroundState(AnalyticState):
    """phi = pi^(-1/4) exp(-x^2/2): standard harmonic ground state, scaled units, on |x| < 12."""

    regions = ((-12.0, 12.0),)
    power_moments = (0.5, 0.75, 1.875)

    def derivatives(self, x, order: int = 3) -> np.ndarray:
        # phi^(n) = (-1)^n He_n(x) phi with He_{n+1} = x He_n - n He_{n-1}
        x = np.asarray(x, dtype=float)
        base = math.pi**-0.25 * np.exp(-0.5 * x * x)
        out = np.empty((order + 1,) + x.shape, dtype=complex)
        he_prev, he = 0.0, 1.0
        for n in range(order + 1):
            out[n] = (-he if n % 2 else he) * base
            he_prev, he = he, x * he - n * he_prev
        return out


class AiryBouncerState(AnalyticState):
    """phi = Ai(x - z1) / |Ai'(-z1)| on (0, inf): standard bouncer ground state.

    z1 = AIRY_Z1 is minus the first Airy zero; derivatives follow from
    Ai'' = u Ai via A^(n+2) = u A^(n) + n A^(n-1).  The state is cut 14 past z1.

    The power moments follow from phi'' = u phi (u = x - z1) and phi(0) = 0,
    which removes every wall term: m2 = -<u>, m4 = <u^2>, and
    phi^(6) = 4 phi + 6 u phi' + u^3 phi gives m6 = -1 - <u^3>.  The
    hypervirial relations give <x> = 2 z1/3, <x^2> = 8 z1^2/15 and
    <x^3> = 16 z1^3/35 + 3/7, so m2 = z1/3, m4 = z1^2/5 and m6 = (z1^3 - 10)/7.
    """

    def __init__(self):
        self.shift = AIRY_Z1
        self.norm = AIRY_NORM
        self.regions = ((0.0, self.shift + 14.0),)
        z = self.shift
        self.power_moments = (z / 3.0, z * z / 5.0, (z**3 - 10.0) / 7.0)

    @property
    def ground_energy(self) -> float:
        return self.shift

    def derivatives(self, x, order: int = 3) -> np.ndarray:
        from scipy.special import airy

        u = np.asarray(x, dtype=float) - self.shift
        ai, aip, _, _ = airy(u)
        d = [ai, aip]
        for n in range(0, order - 1):
            d.append(u * d[n] + n * d[n - 1] if n >= 1 else u * d[0])
        return np.array(d[: order + 1], dtype=complex) / self.norm


def ground_analog_state(setup: PhysicalSetup) -> tuple[DimensionlessProblem, AnalyticState]:
    """Lowest standard-level state in scaled coordinates for each potential."""
    problem = nondimensionalize(setup)
    if problem.kind == "well":
        lo, hi = problem.domain
        return problem, ShiftedSineState(kappa=well_kappa(problem, 1), lo=lo, hi=hi)
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


def _derivatives_order6(state, problem: DimensionlessProblem, x, energy: float | None) -> np.ndarray:
    """The state's derivatives 0..6; given ``energy``, 4..6 from the equation of motion."""
    if energy is None:
        return state.derivatives(x, order=6)
    eps = problem.epsilon
    d = state.derivatives(x, order=3)
    v, v1, v2 = problem.v_derivs(x)
    w = v - energy
    d4 = (d[2] - w * d[0]) / eps
    d5 = (d[3] - v1 * d[0] - w * d[1]) / eps
    d6 = (d4 - v2 * d[0] - 2.0 * v1 * d[1] - w * d[2]) / eps
    return np.concatenate([d, [d4, d5, d6]])


def momentum_moments(
    state,
    problem: DimensionlessProblem,
    regions: Sequence[tuple[float, float]] | None = None,
    energy: float | None = None,
) -> MomentumMoments:
    """<P>, dP (deformed operator) and <p>, dp (standard) for a normalized state.

    The state's ``derivatives`` must take an array of abscissas.  Given the
    state's dimensionless ``energy``, the 4th to 6th derivatives come from
    the equation of motion; without it, the state supplies them (a WKB
    state cannot: its bases stop at order 4 and raise ``PreconditionError``).
    """
    setup = problem.setup
    if regions is None:
        regions = getattr(state, "regions", None)
        if regions is None:
            raise PreconditionError("no integration regions supplied or carried by the state")

    p_c = problem.momentum_scale
    bt_prime = setup.beta_prime * p_c**2

    def integrand(x, width, _):
        # phi* times [phi, p phi, p^2 phi] and, when deformed, [P phi, P^2 phi]
        if bt_prime == 0.0:
            d = state.derivatives(x, order=2)
            ops = [d[0], -1j * d[1], -d[2]]
        else:
            d = _derivatives_order6(state, problem, x, energy)
            ops = [
                d[0],
                -1j * d[1],
                -d[2],
                -1j * d[1] + 1j * bt_prime * d[3],
                -d[2] + 2.0 * bt_prime * d[4] - bt_prime**2 * d[6],
            ]
        return np.conj(d[0]) * np.array(ops) * width

    lo, hi = np.array(regions, dtype=float).T
    moments = panel_integrals(integrand, lo, hi, _MOMENT_TOL).sum(axis=-1).real.tolist()
    norm = moments[0]
    if abs(norm - 1.0) > 1e-6:
        raise PreconditionError(f"state norm {norm} deviates from 1 by more than 1e-6")
    mean_p, mean_p2 = moments[1] * p_c, moments[2] * p_c**2
    if bt_prime == 0.0:
        mean_pp, mean_pp2 = mean_p, mean_p2
    else:
        mean_pp, mean_pp2 = moments[3] * p_c, moments[4] * p_c**2
    return _summary(setup, norm, mean_p, mean_p2, mean_pp, mean_pp2)


def closed_form_moments(state: AnalyticState, problem: DimensionlessProblem) -> MomentumMoments:
    """``momentum_moments`` of a closed-form state from its power moments, with no integral.

    The state is real and vanishes at the ends of its regions, so <p> = <P>
    = 0, and <P^2> = p_c^2 (m2 + 2 bt' m4 + bt'^2 m6).
    """
    p_c = problem.momentum_scale
    bt_prime = problem.setup.beta_prime * p_c**2
    m2, m4, m6 = state.power_moments
    mean_pp2 = (m2 + 2.0 * bt_prime * m4 + bt_prime**2 * m6) * p_c**2
    return _summary(problem.setup, 1.0, 0.0, m2 * p_c**2, 0.0, mean_pp2)


def _summary(
    setup: PhysicalSetup, norm: float, mean_p: float, mean_p2: float, mean_pp: float, mean_pp2: float
) -> MomentumMoments:
    """Variances and the ratio from the first and second moments of p and P (SI)."""
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
    """The observability verdict and the critical deformation strength of one setup.

    ``exponent`` is log10 of the beta that makes r = 1 for the ground-analog state.
    """

    verdict: Observability
    ratio: float
    moments: MomentumMoments
    exponent: float
    refined_exponent: float
    discrepancy_note: str | None = None


LINEAR_EXPONENT_NOTE = (
    "linear potential: computed from the bouncer ground momentum scale "
    "p_c = (2 m^2 g hbar)^(1/3); differs by orders of magnitude from the "
    "published 'close to 37' estimate, whose momentum scale is unstated"
)


def observability(setup: PhysicalSetup) -> ObservabilityResult:
    """Ratio, verdict and critical exponent from one set of ground-analog moments.

    With S = (dp)^2 + <p>^2 from the standard momentum moments, the ratio is
    r = beta S (Obvious iff r >= OBVIOUS_RATIO_THRESHOLD) and the exponent
    is log10(1 / S), which does not depend on beta.  One fixed-point
    refinement with the full deformed operator at beta = 10^exponent is
    reported alongside as ``refined_exponent``.
    """
    problem, state = ground_analog_state(setup)
    moments = closed_form_moments(state, problem)
    s = moments.variance_sum_standard
    if s <= 0.0:
        raise PreconditionError("zero momentum moments: critical exponent undefined")
    exponent = -math.log10(s)

    critical_beta = checked_scale("critical beta 10^exponent", lambda: 10.0**exponent)
    refined_setup = PhysicalSetup(
        mass=setup.mass, beta=critical_beta, potential=setup.potential, hbar=setup.hbar
    )
    refined_problem = nondimensionalize(refined_setup)
    refined = closed_form_moments(state, refined_problem)
    obvious = moments.ratio >= OBVIOUS_RATIO_THRESHOLD
    return ObservabilityResult(
        verdict=Observability.OBVIOUS if obvious else Observability.INCONSPICUOUS,
        ratio=moments.ratio,
        moments=moments,
        exponent=exponent,
        refined_exponent=-math.log10(refined.delta_P**2 + refined.mean_P**2),
        discrepancy_note=LINEAR_EXPONENT_NOTE if problem.kind == "linear" else None,
    )
