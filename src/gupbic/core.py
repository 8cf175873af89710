"""Physical setup, potentials and nondimensionalization.

The position-representation Schroedinger equation with a minimal length
(GUP deforming parameter beta, beta' = beta/3) is fourth order:

    (beta' hbar^4 / m) phi'''' - (hbar^2 / 2m) phi'' + (V - E) phi = 0.

SI magnitudes in this equation are extreme (hbar^2 ~ 1e-68), so every
numerical routine in this package works on the scaled form

    eps * phi'''' - phi'' + (v - e) phi = 0,      eps = 2 beta' hbar^2 / L_c^2,

with x = L_c * xt, E = E_c * e, E_c = hbar^2 / (2 m L_c^2).  SI units appear
only at the I/O boundary.

Each of the three potentials (infinite well, linear, harmonic) is a
polynomial of degree <= 2 on its domain, so the scaled problem carries v as
three numbers, (v(0), v'(0), v''(0)), and one evaluator,
``potential_derivs``, serves every layer: the oracle's Taylor recurrence,
the WKB chains and region map, and the momentum moments.

beta carries units of 1/momentum^2; that convention is inferred from
dimensional consistency of the deformed uncertainty relation
(beta [(dP)^2 + <P>^2] must be dimensionless) and the CLI accepts beta as the
bare number (e.g. 1e47).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Union

from .errors import ConfigError, InvalidSetupError

HBAR = 1.054571817e-34  # J*s
EPSILON_MAX = math.sqrt(sys.float_info.max)  # the deformed momentum moments square epsilon


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidSetupError(f"{name} must be finite, got {value!r}")
    return value


def checked_scale(name: str, compute: Callable[[], float], zero_ok: bool = False) -> float:
    """compute(), a quantity derived from the setup, required finite and > 0 (>= 0 with zero_ok).

    Python raises where IEEE arithmetic would divide by an underflowed zero
    or overflow a power; like an inf or 0 result, that means the setup's
    magnitudes leave the float range, and the error names the quantity.
    """
    try:
        value = float(compute())
    except (ZeroDivisionError, OverflowError) as exc:
        cause = "a divisor underflows to 0" if isinstance(exc, ZeroDivisionError) else "a power overflows"
        raise InvalidSetupError(f"{name} leaves the float range for this setup: {cause}") from None
    if not (math.isfinite(value) and (value >= 0.0 if zero_ok else value > 0.0)):
        raise InvalidSetupError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {value!r}")
    return value


@dataclass(frozen=True)
class InfiniteWell:
    """V = 0 on (-a, a), hard walls outside."""

    a: float  # half-width, m

    def __post_init__(self):
        if not (_require_finite("a", self.a) > 0):
            raise InvalidSetupError(f"well half-width must be > 0, got {self.a}")

    @property
    def kind(self) -> str:
        return "well"


@dataclass(frozen=True)
class Linear:
    """V = L*x on (0, +inf), hard wall at x <= 0."""

    slope: float  # J/m

    def __post_init__(self):
        if not (_require_finite("L", self.slope) > 0):
            raise InvalidSetupError(f"linear slope must be > 0, got {self.slope}")

    @property
    def kind(self) -> str:
        return "linear"


@dataclass(frozen=True)
class Harmonic:
    """V = 0.5 m omega^2 x^2 on all of R (mass supplied by the setup)."""

    omega: float  # rad/s

    def __post_init__(self):
        if not (_require_finite("omega", self.omega) > 0):
            raise InvalidSetupError(f"omega must be > 0, got {self.omega}")

    @property
    def kind(self) -> str:
        return "harmonic"


PotentialSpec = Union[InfiniteWell, Linear, Harmonic]


@dataclass(frozen=True)
class PhysicalSetup:
    """Particle + GUP parameters + potential, all in SI."""

    mass: float  # kg
    beta: float  # 1/(kg m/s)^2
    potential: PotentialSpec
    hbar: float = HBAR

    def __post_init__(self):
        if not (_require_finite("mass", self.mass) > 0):
            raise InvalidSetupError(f"mass must be > 0, got {self.mass}")
        if not (_require_finite("beta", self.beta) >= 0):
            raise InvalidSetupError(f"beta must be >= 0, got {self.beta}")
        if not (_require_finite("hbar", self.hbar) > 0):
            raise InvalidSetupError(f"hbar must be > 0, got {self.hbar}")

    @property
    def beta_prime(self) -> float:
        # single source of truth: never stored independently
        return self.beta / 3.0

    def canonical_length_scale(self) -> float:
        """Scale that makes the dimensionless potential O(1).

        well -> a; linear -> (hbar^2 / 2mL)^(1/3) (quantum-bouncer scale);
        harmonic -> sqrt(hbar / m omega).
        """
        p = self.potential
        if isinstance(p, InfiniteWell):
            return p.a
        if isinstance(p, Linear):
            return checked_scale(
                "length_scale", lambda: (self.hbar**2 / (2.0 * self.mass * p.slope)) ** (1.0 / 3.0)
            )
        if isinstance(p, Harmonic):
            return checked_scale("length_scale", lambda: math.sqrt(self.hbar / (self.mass * p.omega)))
        raise InvalidSetupError(f"unknown potential {p!r}")


# The reference setup and the oracle's tolerance range live here, with no
# numerical layer, so that the CLI's parser and default setup import none.
ELECTRON_MASS = 9.10956e-31
REFERENCE_HALF_WIDTH = 1e-10
REFERENCE_BETA = 1e47

DEFAULT_RTOL = 1e-11
# Accepted oracle rtol.  Below 1e-13 a tighter series tail buys nothing: the
# roundoff of the chained step products already exceeds it (verify's oracle
# checks read the same at every rtol from 1e-11 down).
MIN_RTOL, MAX_RTOL = 1e-13, 1e-6


def reference_well_setup(beta: float = REFERENCE_BETA) -> PhysicalSetup:
    """Electron in a 1 Angstrom half-width well, beta = 1e47 unless given."""
    return PhysicalSetup(mass=ELECTRON_MASS, beta=beta, potential=InfiniteWell(a=REFERENCE_HALF_WIDTH))


def potential_derivs(coefficients, x) -> tuple:
    """v, v' and v'' at x of v = c0 + c1 x + c2 x^2 / 2, from (c0, c1, c2) = (v(0), v'(0), v''(0)).

    Each coefficient is a float, or an array (a row of a batch) that
    broadcasts against x; v and v' take the broadcast shape, and v'' is c2.
    The sum 0.5 c2 x x + c1 x + c0 gives the linear s x and the harmonic
    c x^2 to the bit.
    """
    c0, c1, c2 = coefficients
    return 0.5 * c2 * x * x + c1 * x + c0, c2 * x + c1, c2


@dataclass(frozen=True)
class DimensionlessProblem:
    """Scaled coefficients of eps*phi'''' - phi'' + (v - e)*phi = 0.

    ``v_coefficients`` holds the potential as (v(0), v'(0), v''(0)): zero
    for the well, (0, s, 0) for the linear potential and (0, 0, 2c) for the
    harmonic v = c x^2.
    """

    epsilon: float
    v_coefficients: tuple[float, float, float]
    length_scale: float  # m
    energy_scale: float  # J
    domain: tuple[float, float]  # dimensionless
    kind: str
    setup: PhysicalSetup = field(repr=False)

    def v_derivs(self, x) -> tuple:
        """v, v' and v'' at dimensionless x, a float or an array (``potential_derivs``)."""
        return potential_derivs(self.v_coefficients, x)

    @property
    def momentum_scale(self) -> float:
        """p_c = hbar / L_c (SI momentum per dimensionless wavenumber unit)."""
        return self.setup.hbar / self.length_scale

    def energy_to_si(self, e: float) -> float:
        return e * self.energy_scale

    def energy_from_si(self, energy: float) -> float:
        return energy / self.energy_scale

    def length_to_si(self, x: float) -> float:
        return x * self.length_scale

    def length_from_si(self, x: float) -> float:
        return x / self.length_scale


def nondimensionalize(setup: PhysicalSetup) -> DimensionlessProblem:
    """Rescale the fourth-order equation to dimensionless form at the setup's canonical L_c.

    eps = 2 (beta/3) hbar^2 / L_c^2 and E_c = hbar^2 / (2 m L_c^2) exactly.  Each
    of L_c, E_c, eps and the scaled potential coefficient must be a finite
    float (``checked_scale``), and eps at most EPSILON_MAX.
    """
    length_scale = setup.canonical_length_scale()
    hbar, m = setup.hbar, setup.mass
    e_scale = checked_scale("energy_scale", lambda: hbar**2 / (2.0 * m * length_scale**2))
    epsilon = checked_scale(
        "epsilon", lambda: 2.0 * setup.beta_prime * hbar**2 / length_scale**2, zero_ok=True
    )
    if epsilon > EPSILON_MAX:
        raise InvalidSetupError(
            f"epsilon must be at most {EPSILON_MAX:.4g} (the deformed momentum moments "
            f"square it), got {epsilon!r}"
        )
    p = setup.potential

    if isinstance(p, InfiniteWell):
        lo, hi = -p.a / length_scale, p.a / length_scale
        v_coefficients = (0.0, 0.0, 0.0)
    elif isinstance(p, Linear):
        slope = checked_scale("scaled slope", lambda: p.slope * length_scale / e_scale)
        lo, hi = 0.0, math.inf
        v_coefficients = (0.0, slope, 0.0)
    elif isinstance(p, Harmonic):
        curv = checked_scale(
            "scaled curvature", lambda: 0.5 * m * p.omega**2 * length_scale**2 / e_scale
        )
        lo, hi = -math.inf, math.inf
        v_coefficients = (0.0, 0.0, 2.0 * curv)
    else:
        raise InvalidSetupError(f"unknown potential {p!r}")

    return DimensionlessProblem(
        epsilon=epsilon,
        v_coefficients=v_coefficients,
        length_scale=length_scale,
        energy_scale=e_scale,
        domain=(lo, hi),
        kind=p.kind,
        setup=setup,
    )


# --- configuration files -----------------------------------------------------

_CONFIG_KEYS = {"mass", "beta", "potential", "a", "L", "omega", "hbar"}
_POTENTIAL_ALIASES = {
    "well": "well",
    "infinite_well": "well",
    "infinitewell": "well",
    "linear": "linear",
    "harmonic": "harmonic",
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; `#` starts a comment."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def setup_from_entries(entries: dict[str, str]) -> PhysicalSetup:
    """Build a PhysicalSetup from parsed config entries."""

    def need(key: str) -> str:
        if key not in entries:
            raise ConfigError(f"missing required key {key!r}")
        return entries[key]

    def as_float(key: str, raw: str) -> float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: not a number: {raw!r}") from None

    kind_raw = need("potential").lower()
    if kind_raw not in _POTENTIAL_ALIASES:
        raise ConfigError(f"unknown potential {kind_raw!r}; expected well, linear or harmonic")
    kind = _POTENTIAL_ALIASES[kind_raw]

    try:
        if kind == "well":
            potential: PotentialSpec = InfiniteWell(a=as_float("a", need("a")))
        elif kind == "linear":
            potential = Linear(slope=as_float("L", need("L")))
        else:
            potential = Harmonic(omega=as_float("omega", need("omega")))

        return PhysicalSetup(
            mass=as_float("mass", need("mass")),
            beta=as_float("beta", need("beta")),
            potential=potential,
            hbar=as_float("hbar", entries.get("hbar", repr(HBAR))),
        )
    except InvalidSetupError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> PhysicalSetup:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return setup_from_entries(parse_config_text(text))
