"""Fundamental solutions of eps*phi'''' - phi'' + (v - e)*phi = 0.

For constant potential segments the four solutions are exact exponentials and
trig functions of the characteristic roots.  For varying potentials they are
WKB-type asymptotic solutions

    w_j(x) = lam_j(x)^(-1/2) (a^2 - b(x))^(-1/4)
             * exp[ eta * I1_j(x) - I2_j(x)/2 ] * (1 + O(1/eta)),

    I1_j(x) = int_{x0}^{x} lam_j,   I2_j(x) = int_{x0}^{x} lam_j' / sqrt(a^2 - b),

with lam_{1,2} = +-sqrt(a + sqrt(a^2 - b)), lam_{3,4} = +-sqrt(a - sqrt(a^2 - b)).

In the scaled variables used throughout the package the large parameter and
coefficients are

    eta = (2/eps)^(1/4),   a = eta^2 / 4,   b(x) = (v(x) - e) / 2,

so that eta*lam_j reproduces the characteristic roots wherever the potential
is locally constant.

Branch bookkeeping uses principal complex square roots everywhere, which keeps
lam_j continuous across zeros of b (classical turning points).  Zeros of
a^2 - b are hard validity boundaries: the correction integrand has a pole
there, so a basis instance never spans one.  Zeros of b are excluded by a
window of half-width 0.05 for j in {3, 4} (the 1/sqrt(lam) prefactor is
singular), but the exponent integrals are continued across them (the
singularity of the correction integrand is an integrable |x - xt|^(-1/2)).

Exponents are computed before exponentiation and capped at |Re| <= 700;
beyond the cap value access raises BasisOverflowError and callers switch to
log-space access.
"""

from __future__ import annotations

import cmath
import math
import threading
import warnings
from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from .errors import (
    BasisOverflowError,
    ComplexQuartetError,
    DegenerateBasisError,
    UnsupportedEpsilonError,
    ValidityError,
)

EXPONENT_CAP = 700.0
TURNING_WINDOW_HALF_WIDTH = 0.05
_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=300)


class AsymptoticClass(Enum):
    GROWING = "Growing"
    DECAYING = "Decaying"
    OSCILLATORY = "Oscillatory"
    UNDEFINED = "Undefined"


class Side(Enum):
    PLUS_INFINITY = "+inf"
    MINUS_INFINITY = "-inf"


# --- characteristic roots ----------------------------------------------------


@dataclass(frozen=True)
class CharacteristicRoots:
    """Roots of eps*mu^4 - mu^2 - q = 0, q = e - v (constant potential).

    mu^2 = [1 +- sqrt(1 + 4*eps*q)] / (2*eps).  The + branch gives the real
    pair +-mu1; for q > 0 the - branch gives the oscillatory pair +-i*kappa.
    For q < 0 (classically forbidden) the second pair is real +-nu with
    nu = sqrt[(1 - sqrt(1 + 4*eps*q)) / (2*eps)]; kappa is then 0.
    """

    mu1: float
    mu2: float
    kappa: float
    discriminant: float
    epsilon: float
    e_minus_v: float
    nu: float = 0.0

    def all_roots(self) -> np.ndarray:
        """The four roots as complex numbers (+-mu1 and the second pair)."""
        if self.kappa > 0.0:
            second = 1j * self.kappa
        else:
            second = complex(self.nu)
        return np.array([self.mu1, self.mu2, second, -second], dtype=complex)

    def quartic_residual(self, mu: complex) -> float:
        q = self.e_minus_v
        value = self.epsilon * mu**4 - mu**2 - q
        scale = abs(self.epsilon * mu**4) + abs(mu**2) + abs(q) + 1e-300
        return abs(value) / scale


def characteristic_roots(epsilon: float, e_minus_v: float) -> CharacteristicRoots:
    """Solve the constant-potential characteristic quartic."""
    if epsilon <= 0.0:
        raise UnsupportedEpsilonError(
            "epsilon must be > 0; the second-order (beta = 0) equation is handled "
            "by the oracle integrator"
        )
    disc = 1.0 + 4.0 * epsilon * e_minus_v
    if disc < 0.0:
        raise ComplexQuartetError(
            f"1 + 4*eps*(e - v) = {disc} < 0: complex root quartet (deep forbidden "
            "region); use the WKB basis"
        )
    root = math.sqrt(disc)
    mu1 = math.sqrt((1.0 + root) / (2.0 * epsilon))
    # (root - 1)/(2 eps) = 2 q / (1 + root): stable for small eps*q
    second_sq = 2.0 * e_minus_v / (1.0 + root)
    if e_minus_v > 0.0:
        kappa = math.sqrt(second_sq)
        nu = 0.0
    else:
        kappa = 0.0
        nu = math.sqrt(-second_sq)
    return CharacteristicRoots(
        mu1=mu1,
        mu2=-mu1,
        kappa=kappa,
        discriminant=disc,
        epsilon=epsilon,
        e_minus_v=e_minus_v,
        nu=nu,
    )


# --- basis functions ----------------------------------------------------------


class BasisFunction:
    """Common interface: evaluate with derivatives, classify, scale safely."""

    index: int
    method: str
    validity: tuple[float, float]

    def derivatives(self, x: float, order: int = 3) -> np.ndarray:
        """(value, d1, ..., d_order) as complex numbers."""
        raise NotImplementedError

    def value(self, x: float) -> complex:
        return self.derivatives(x, order=0)[0]

    def log_abs(self, x: float) -> float:
        """log|f(x)|; overflow-safe."""
        raise NotImplementedError

    def scaled_value(self, x: float, log_shift: float) -> complex:
        """f(x) * exp(-log_shift), computed without forming f(x)."""
        raise NotImplementedError

    def asymptotic_class(self, side: Side, probes: Sequence[float] | None = None) -> AsymptoticClass:
        if probes is None:
            probes = self._auto_probes(side)
        return classify_asymptotics(self, side, probes)

    def _auto_probes(self, side: Side) -> list[float]:
        lo, hi = self.validity
        span = 4.0
        if side is Side.PLUS_INFINITY:
            if math.isinf(hi):
                start = lo + 0.25 if math.isfinite(lo) else 0.0
                return list(np.linspace(start, start + span, 5))
            return list(np.linspace(lo + 0.05 * (hi - lo), hi - 1e-9 * max(1.0, abs(hi)), 5))
        if math.isinf(lo):
            start = hi - 0.25 if math.isfinite(hi) else 0.0
            return list(np.linspace(start, start - span, 5))
        return list(np.linspace(hi - 0.05 * (hi - lo), lo + 1e-9 * max(1.0, abs(lo)), 5))


class ExponentialBasisFunction(BasisFunction):
    """f(x) = exp(rate * (x - anchor)), rate real; f(anchor) = 1."""

    def __init__(self, rate: float, index: int, anchor: float = 0.0):
        self.rate = float(rate)
        self.anchor = float(anchor)
        self.index = index
        self.method = "exact"
        self.validity = (-math.inf, math.inf)

    def derivatives(self, x: float, order: int = 3) -> np.ndarray:
        e = self.log_abs(x)
        if e > EXPONENT_CAP:
            raise BasisOverflowError(f"exp exponent {e:.3g} beyond cap", exponent=e)
        f = math.exp(e) if e > -745.0 else 0.0
        return np.array([f * self.rate**k for k in range(order + 1)], dtype=complex)

    def log_abs(self, x: float) -> float:
        return self.rate * (x - self.anchor)

    def scaled_value(self, x: float, log_shift: float) -> complex:
        e = self.log_abs(x) - log_shift
        if e > EXPONENT_CAP:
            raise BasisOverflowError(f"scaled exp exponent {e:.3g} beyond cap", exponent=e)
        return complex(math.exp(e)) if e > -745.0 else 0.0 + 0.0j

    def __repr__(self):
        return (
            f"ExponentialBasisFunction(rate={self.rate:.6g}, anchor={self.anchor:.6g}, "
            f"index={self.index})"
        )


class TrigBasisFunction(BasisFunction):
    """f(x) = cos(kappa x) or sin(kappa x)."""

    def __init__(self, kappa: float, phase: str, index: int):
        if phase not in ("cos", "sin"):
            raise ValueError(f"phase must be cos or sin, got {phase!r}")
        self.kappa = float(kappa)
        self.phase = phase
        self.index = index
        self.method = "exact"
        self.validity = (-math.inf, math.inf)

    def derivatives(self, x: float, order: int = 3) -> np.ndarray:
        k = self.kappa
        # derivative cycle: cos -> -sin -> -cos -> sin; sin -> cos -> -sin -> -cos
        c, s = math.cos(k * x), math.sin(k * x)
        cycle = [c, -s, -c, s] if self.phase == "cos" else [s, c, -s, -c]
        return np.array([cycle[n % 4] * k**n for n in range(order + 1)], dtype=complex)

    def log_abs(self, x: float) -> float:
        v = abs(self.derivatives(x, order=0)[0])
        return math.log(v) if v > 0 else -math.inf

    def scaled_value(self, x: float, log_shift: float) -> complex:
        return self.derivatives(x, order=0)[0] * math.exp(-log_shift)

    def __repr__(self):
        return f"TrigBasisFunction(kappa={self.kappa:.6g}, {self.phase}, index={self.index})"


def exact_constant_basis(
    roots: CharacteristicRoots, walls: tuple[float, float]
) -> tuple[BasisFunction, ...]:
    """{exp(mu1 (x - hi)), exp(-mu1 (x - lo)), cos(kappa x), sin(kappa x)} for q = e - v > 0.

    The exponentials are the boundary layers at the walls (lo, hi): each is 1
    at its own wall and exp(-mu1 (hi - lo)) at the other, so every wall value
    lies in [0, 1] however thin the layers are.
    """
    if roots.kappa <= 0.0:
        raise DegenerateBasisError(
            f"kappa = {roots.kappa}: oscillatory pair degenerate (e <= v); "
            "constant-potential basis requires e - v > 0"
        )
    lo, hi = walls
    return (
        ExponentialBasisFunction(roots.mu1, index=1, anchor=hi),
        ExponentialBasisFunction(-roots.mu1, index=2, anchor=lo),
        TrigBasisFunction(roots.kappa, "cos", index=3),
        TrigBasisFunction(roots.kappa, "sin", index=4),
    )


# --- WKB machinery -------------------------------------------------------------


@dataclass(frozen=True)
class WkbParameters:
    """Scaled WKB coefficients for one (problem, energy) pair.

    eta = (2/eps)^(1/4); a_coef = eta^2/4; b(x) = (v(x) - e)/2 with derivative
    chain to fourth order supplied by ``b_chain``.
    """

    eta: float
    a_coef: float
    x0: float
    b_chain: Callable[[float], tuple]
    energy: float
    epsilon: float

    @classmethod
    def from_problem(cls, problem, energy: float, x0: float) -> "WkbParameters":
        eps = problem.epsilon
        if eps <= 0.0:
            raise UnsupportedEpsilonError("WKB basis requires epsilon > 0")
        eta = (2.0 / eps) ** 0.25
        a_coef = eta * eta / 4.0
        v_derivs = problem.v_derivs

        def b_chain(x: float) -> tuple:
            v = v_derivs(x)
            return (0.5 * (v[0] - energy), 0.5 * v[1], 0.5 * v[2], 0.5 * v[3], 0.5 * v[4])

        return cls(eta=eta, a_coef=a_coef, x0=x0, b_chain=b_chain, energy=energy, epsilon=eps)

    def b(self, x: float) -> float:
        return float(self.b_chain(x)[0])


def _ratio_chain(u: tuple, v: tuple) -> tuple:
    """Derivatives 0..3 of u/v from derivative tuples u[0..3], v[0..3]."""
    r0 = u[0] / v[0]
    r1 = (u[1] - r0 * v[1]) / v[0]
    r2 = (u[2] - 2.0 * r1 * v[1] - r0 * v[2]) / v[0]
    r3 = (u[3] - 3.0 * r2 * v[1] - 3.0 * r1 * v[2] - r0 * v[3]) / v[0]
    return (r0, r1, r2, r3)


def _sqrt_chain(w: tuple, sign: float = 1.0) -> tuple:
    """Derivatives 0..4 of sign*sqrt(w) from derivative tuple w[0..4].

    Recursion from 2*y*y' = w' with y = sign*sqrt(w) (principal branch).
    """
    y0 = sign * cmath.sqrt(w[0])
    if y0 == 0:
        raise ZeroDivisionError("sqrt chain at a zero of its argument")
    y1 = w[1] / (2.0 * y0)
    y2 = (w[2] - 2.0 * y1 * y1) / (2.0 * y0)
    y3 = (w[3] - 6.0 * y1 * y2) / (2.0 * y0)
    y4 = (w[4] - 8.0 * y1 * y3 - 6.0 * y2 * y2) / (2.0 * y0)
    return (y0, y1, y2, y3, y4)


_BRANCH_SIGNS = {1: (+1.0, +1.0), 2: (+1.0, -1.0), 3: (-1.0, +1.0), 4: (-1.0, -1.0)}


class WkbBasisFunction(BasisFunction):
    """One WKB branch on a validity piece.

    ``interval`` must not contain a zero of a^2 - b; for j in {3, 4} zeros of b
    inside the interval are masked by windows of half-width
    TURNING_WINDOW_HALF_WIDTH (evaluation inside a window raises
    ValidityError), while the exponent integrals cross them.
    """

    def __init__(
        self,
        params: WkbParameters,
        index: int,
        interval: tuple[float, float],
        b_zeros: Sequence[float] = (),
        window: float = TURNING_WINDOW_HALF_WIDTH,
    ):
        if index not in _BRANCH_SIGNS:
            raise ValueError(f"branch index must be 1..4, got {index}")
        self.params = params
        self.index = index
        self.method = "wkb"
        self.interval = (float(interval[0]), float(interval[1]))
        self._inner_sigma, self._sign_tau = _BRANCH_SIGNS[index]
        self._b_zeros = tuple(sorted(float(z) for z in b_zeros))
        self._window = float(window)
        if index in (3, 4):
            self.windows = tuple((z - window, z + window) for z in self._b_zeros)
        else:
            self.windows = ()
        lo, hi = self.interval
        if not (lo < params.x0 < hi) or self._in_window(params.x0):
            raise ValidityError(f"reference point x0={params.x0} outside validity region")
        # integral cache: sorted abscissas with cumulative (I1, I2)
        self._cache_xs: list[float] = [params.x0]
        self._cache_vals: dict[float, tuple[complex, complex]] = {params.x0: (0.0 + 0j, 0.0 + 0j)}
        self._lock = threading.Lock()

    @property
    def validity(self) -> tuple[float, float]:  # type: ignore[override]
        return self.interval

    # -- branch chains

    def _chains(self, x: float) -> tuple[tuple, tuple]:
        """(s chain, lam chain), derivatives 0..4, python complex tuples."""
        p = self.params
        b = p.b_chain(x)
        w = (p.a_coef**2 - b[0], -b[1], -b[2], -b[3], -b[4])
        s = _sqrt_chain(w)
        sg = self._inner_sigma
        u = (p.a_coef + sg * s[0], sg * s[1], sg * s[2], sg * s[3], sg * s[4])
        lam = _sqrt_chain(u, sign=self._sign_tau)
        return s, lam

    def lam(self, x: float) -> complex:
        return self._chains(x)[1][0]

    # -- validity guards

    def _in_window(self, x: float) -> bool:
        # strict test on the stored edges: a region end built as z -+ window
        # is then outside exactly, whatever the roundoff of x - z
        for a, b in self.windows:
            if a < x < b:
                return True
        return False

    def _check(self, x: float) -> None:
        lo, hi = self.interval
        if not (lo <= x <= hi):
            raise ValidityError(f"x={x} outside validity interval [{lo}, {hi}]")
        if self._in_window(x):
            z = min(self._b_zeros, key=lambda t: abs(x - t))
            raise ValidityError(f"x={x} inside turning-point window around x={z}")

    # -- exponent integrals

    def _integrand_i1(self, x: float) -> complex:
        return self._chains(x)[1][0]

    def _integrand_i2(self, x: float) -> complex:
        s, lam = self._chains(x)
        return lam[1] / s[0]

    def _quad_complex(self, f, lo: float, hi: float) -> complex:
        sign = 1.0
        if hi < lo:
            lo, hi = hi, lo
            sign = -1.0
        interior = [z for z in self._b_zeros if lo < z < hi]
        kw = dict(_QUAD_OPTS)
        if interior:
            kw["points"] = interior
        with warnings.catch_warnings():
            # near-zero components and integrable |x-xt|^(-1/2) crossings trip
            # the roundoff detector at epsabs=1e-12; accuracy is test-verified
            warnings.simplefilter("ignore", IntegrationWarning)
            re = quad(lambda t: f(t).real, lo, hi, **kw)[0]
            im = quad(lambda t: f(t).imag, lo, hi, **kw)[0]
        return sign * complex(re, im)

    def _integrals(self, x: float) -> tuple[complex, complex]:
        """Cumulative (I1, I2) from x0 to x, via the nearest cached anchor."""
        with self._lock:
            cached = self._cache_vals.get(x)
            if cached is not None:
                return cached
            pos = bisect_left(self._cache_xs, x)
            candidates = []
            if pos > 0:
                candidates.append(self._cache_xs[pos - 1])
            if pos < len(self._cache_xs):
                candidates.append(self._cache_xs[pos])
            anchor = min(candidates, key=lambda t: abs(t - x))
            base1, base2 = self._cache_vals[anchor]
        i1 = base1 + self._quad_complex(self._integrand_i1, anchor, x)
        i2 = base2 + self._quad_complex(self._integrand_i2, anchor, x)
        with self._lock:
            if x not in self._cache_vals:
                insort(self._cache_xs, x)
                self._cache_vals[x] = (i1, i2)
        return i1, i2

    # -- evaluation

    def exponent(self, x: float) -> complex:
        """log w_j(x) including the prefactor (principal-branch logs)."""
        self._check(x)
        s, lam = self._chains(x)
        i1, i2 = self._integrals(x)
        return self.params.eta * i1 - 0.5 * i2 - 0.5 * (cmath.log(lam[0]) + cmath.log(s[0]))

    def log_abs(self, x: float) -> float:
        return float(self.exponent(x).real)

    def value(self, x: float) -> complex:
        e = self.exponent(x)
        if e.real > EXPONENT_CAP:
            raise BasisOverflowError(
                f"WKB exponent Re = {e.real:.3g} beyond cap at x={x}", exponent=e
            )
        return cmath.exp(e) if e.real > -745.0 else 0.0 + 0.0j

    def scaled_value(self, x: float, log_shift: float) -> complex:
        e = self.exponent(x) - log_shift
        if e.real > EXPONENT_CAP:
            raise BasisOverflowError(
                f"scaled WKB exponent Re = {e.real:.3g} beyond cap at x={x}", exponent=e
            )
        return cmath.exp(e) if e.real > -745.0 else 0.0 + 0.0j

    def _theta_chain(self, x: float) -> tuple:
        """Derivatives 1..4 of log w_j at x (analytic chain rule)."""
        s, lam = self._chains(x)
        eta = self.params.eta
        corr = _ratio_chain(lam[1:5], s[0:4])
        dlog_lam = _ratio_chain(lam[1:5], lam[0:4])
        dlog_s = _ratio_chain(s[1:5], s[0:4])
        return tuple(
            eta * lam[k] - 0.5 * corr[k] - 0.5 * (dlog_lam[k] + dlog_s[k]) for k in range(4)
        )

    def _auto_probes(self, side: Side) -> list[float]:
        probes = super()._auto_probes(side)
        if not self.windows:
            return probes
        step = 2.5 * self._window
        shifted = []
        for p in probes:
            while self._in_window(p):
                p += step if side is Side.PLUS_INFINITY else -step
            shifted.append(p)
        ordered = sorted(set(shifted), reverse=side is Side.MINUS_INFINITY)
        return ordered if len(ordered) >= 2 else probes

    def derivatives(self, x: float, order: int = 3) -> np.ndarray:
        if order > 4:
            raise ValueError("WKB derivatives available up to order 4")
        f = self.value(x)
        if order == 0:
            return np.array([f], dtype=complex)
        t = self._theta_chain(x)
        out = np.empty(order + 1, dtype=complex)
        out[0] = f
        out[1] = f * t[0]
        if order >= 2:
            out[2] = f * (t[1] + t[0] ** 2)
        if order >= 3:
            out[3] = f * (t[2] + 3.0 * t[0] * t[1] + t[0] ** 3)
        if order >= 4:
            out[4] = f * (
                t[3] + 4.0 * t[0] * t[2] + 3.0 * t[1] ** 2 + 6.0 * t[0] ** 2 * t[1] + t[0] ** 4
            )
        return out

    def __repr__(self):
        return (
            f"WkbBasisFunction(j={self.index}, interval={self.interval}, "
            f"x0={self.params.x0:.4g}, eta={self.params.eta:.4g})"
        )


class SymmetrizedBasisFunction(BasisFunction):
    """Even continuation f(|x|) of a branch built on the positive tail.

    For an even potential the equation is parity invariant, so the even
    continuation solves it on the mirrored piece; the outward asymptotic class
    is then the same toward both sides.
    """

    def __init__(self, inner: BasisFunction):
        self.inner = inner
        self.index = inner.index
        self.method = inner.method
        lo, hi = inner.validity
        self.validity = (-hi, hi)
        self.mirror_pieces = ((-hi, -lo), (lo, hi))

    def derivatives(self, x: float, order: int = 3) -> np.ndarray:
        d = self.inner.derivatives(abs(x), order=order)
        if x < 0:
            d = d * np.array([(-1.0) ** k for k in range(len(d))])
        return d

    def log_abs(self, x: float) -> float:
        return self.inner.log_abs(abs(x))

    def scaled_value(self, x: float, log_shift: float) -> complex:
        return self.inner.scaled_value(abs(x), log_shift)

    def _auto_probes(self, side: Side) -> list[float]:
        inner_probes = self.inner._auto_probes(Side.PLUS_INFINITY)
        if side is Side.PLUS_INFINITY:
            return inner_probes
        return [-p for p in inner_probes]

    def __repr__(self):
        return f"SymmetrizedBasisFunction({self.inner!r})"


def find_zeros(f: Callable[[float], float], lo: float, hi: float, n: int = 2001) -> list[float]:
    """Sign-change scan + brentq refinement on [lo, hi]."""
    xs = np.linspace(lo, hi, n)
    vals = np.array([f(x) for x in xs])
    zeros: list[float] = []
    for i in range(n - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            zeros.append(float(xs[i]))
        elif a * b < 0.0:
            zeros.append(float(brentq(f, xs[i], xs[i + 1], xtol=1e-13)))
    if vals[-1] == 0.0:
        zeros.append(float(xs[-1]))
    return zeros


@dataclass(frozen=True)
class WkbRegionMap:
    """Turning structure of b on a working interval.

    b_zeros: classical turning points (b = 0); s_zeros: zeros of a^2 - b, the
    hard piece boundaries where the branch pair degenerates.
    """

    b_zeros: tuple[float, ...]
    s_zeros: tuple[float, ...]
    working: tuple[float, float]

    def pieces(self, margin: float = TURNING_WINDOW_HALF_WIDTH) -> list[tuple[float, float]]:
        lo, hi = self.working
        cuts = [lo] + [z for z in self.s_zeros if lo < z < hi] + [hi]
        out = []
        for left, right in zip(cuts[:-1], cuts[1:]):
            a = left + (margin if left in self.s_zeros else 0.0)
            b = right - (margin if right in self.s_zeros else 0.0)
            if a < b:
                out.append((a, b))
        return out


def map_regions(params: WkbParameters, lo: float, hi: float) -> WkbRegionMap:
    b = lambda x: params.b(x)
    s2 = lambda x: params.a_coef**2 - params.b(x)
    return WkbRegionMap(
        b_zeros=tuple(find_zeros(b, lo, hi)),
        s_zeros=tuple(find_zeros(s2, lo, hi)),
        working=(lo, hi),
    )


def wkb_basis(
    params: WkbParameters,
    index: int,
    interval: tuple[float, float],
    region_map: WkbRegionMap | None = None,
) -> WkbBasisFunction:
    """Build branch ``index`` on ``interval``; errors if a zero of a^2 - b lies inside."""
    lo, hi = interval
    scan_hi = hi if math.isfinite(hi) else max(params.x0, lo) + 50.0
    scan_lo = lo if math.isfinite(lo) else min(params.x0, hi) - 50.0
    if region_map is None:
        region_map = map_regions(params, scan_lo, scan_hi)
    inside_s = [z for z in region_map.s_zeros if lo < z < hi]
    if inside_s:
        raise ValidityError(
            f"turning point of the branch pair (a^2 - b = 0) at x={inside_s[0]:.6g} "
            f"inside requested interval ({lo}, {hi})"
        )
    b_zeros = [z for z in region_map.b_zeros if lo < z < hi]
    return WkbBasisFunction(params, index, (lo, hi), b_zeros=b_zeros)


# --- asymptotic classification -------------------------------------------------


def classify_asymptotics(
    f: BasisFunction, side: Side, probes: Sequence[float], samples_per_interval: int = 7
) -> AsymptoticClass:
    """Growing / Decaying / Oscillatory from |f| and sign behaviour at probes.

    The amplitude on each probe-to-probe interval is the envelope estimate
    max_x log|f(x)| over a few samples (pointwise |f| lands on nodes of
    oscillatory functions).  Growing: the envelope rises by >= 10x across the
    probes; Decaying: falls by >= 10x; Oscillatory: sign-changing with
    consecutive-interval envelope ratios inside [0.5, 2].  Anything else is
    Undefined (widen the probes).
    """
    probes = list(probes)
    if len(probes) < 2:
        raise ValueError("need at least two probe points")
    diffs = np.diff(probes)
    if side is Side.PLUS_INFINITY and not np.all(diffs > 0):
        raise ValueError("probes must increase toward +inf")
    if side is Side.MINUS_INFINITY and not np.all(diffs < 0):
        raise ValueError("probes must decrease toward -inf")

    def safe_log_abs(x: float) -> float | None:
        try:
            value = f.log_abs(x)
        except ValidityError:
            return None  # sample fell in a turning-point window
        return value if math.isfinite(value) else None

    intervals = list(zip(probes[:-1], probes[1:]))
    env_logs = []
    all_xs: list[float] = []
    for a, b in intervals:
        xs = np.linspace(a, b, samples_per_interval)
        samples = [(x, safe_log_abs(x)) for x in xs]
        valid = [(x, v) for x, v in samples if v is not None]
        if len(valid) < 3:
            return AsymptoticClass.UNDEFINED
        all_xs.extend(x for x, _ in valid[:-1])
        env_logs.append(max(v for _, v in valid))
    if safe_log_abs(probes[-1]) is not None:
        all_xs.append(probes[-1])
    env_logs = np.array(env_logs)

    growth = env_logs[-1] - env_logs[0]
    ln10 = math.log(10.0)
    if growth >= ln10:
        return AsymptoticClass.GROWING
    if growth <= -ln10:
        return AsymptoticClass.DECAYING

    shift = float(np.max(env_logs))
    vals = np.array([f.scaled_value(x, shift) for x in all_xs])
    comps = vals.real if np.max(np.abs(vals.real)) >= np.max(np.abs(vals.imag)) else vals.imag
    sign_changes = int(np.sum(np.abs(np.diff(np.sign(comps))) > 0))
    ratios = np.exp(np.diff(env_logs))
    if sign_changes >= 1 and np.all((ratios >= 0.5) & (ratios <= 2.0)):
        return AsymptoticClass.OSCILLATORY
    return AsymptoticClass.UNDEFINED
