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
singularity of the correction integrand is an integrable |x - xt|^(-1/2),
which x = xt +- u^2 makes smooth on the panels that end at xt).

Exponents are computed before exponentiation and capped at |Re| <= 700;
beyond the cap value access raises BasisOverflowError and callers switch to
log-space access.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad  # noqa: F401  (unused; perfbench/tracer.py patches basis.quad)
from scipy.optimize import brentq

from .errors import (
    BasisOverflowError,
    ComplexQuartetError,
    DegenerateBasisError,
    NumericalError,
    UnsupportedEpsilonError,
    ValidityError,
)

EXPONENT_CAP = 700.0
TURNING_WINDOW_HALF_WIDTH = 0.05


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

    # Array forms: one point at a time here; the WKB functions, whose cost is
    # per call rather than per point, evaluate the whole array at once.

    def valid(self, xs: np.ndarray) -> np.ndarray:
        """Mask of the abscissas where the function may be evaluated."""
        return np.ones(np.shape(xs), dtype=bool)

    def value_array(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self.value(float(x)) for x in xs], dtype=complex)

    def log_abs_array(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self.log_abs(float(x)) for x in xs], dtype=float)

    def scaled_value_array(self, xs: np.ndarray, log_shift: float) -> np.ndarray:
        return np.array([self.scaled_value(float(x), log_shift) for x in xs], dtype=complex)

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

# Exponent integrals: composite Gauss-Legendre sums on fixed panels of width
# _PANEL_WIDTH counted from x0 and split at the zeros of b.  A panel is
# accepted when its n- and 2n-node sums agree to _QUAD_TOL (absolute and
# relative, as epsabs = epsrel); otherwise it is bisected.
_PANEL_WIDTH = 0.25
_GAUSS_NODES = 12
_QUAD_TOL = 1e-12
_MAX_BISECTIONS = 50
_MAX_PIECES = 64  # per segment
_SEGMENT_CHUNK = 1024  # segments integrated together, bounding the temporaries
_MIN_EDGE_GAP = 1e-3 * _PANEL_WIDTH


@functools.cache
def _gauss_pair() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes on [0, 1] of the n- and 2n-node Gauss-Legendre rules, side by side, and their weights."""
    x_lo, w_lo = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    x_hi, w_hi = np.polynomial.legendre.leggauss(2 * _GAUSS_NODES)
    return 0.5 * (1.0 + np.concatenate([x_lo, x_hi])), 0.5 * w_lo, 0.5 * w_hi


@dataclass(frozen=True)
class WkbParameters:
    """Scaled WKB coefficients for one (problem, energy) pair.

    eta = (2/eps)^(1/4); a_coef = eta^2/4; b(x) = (v(x) - e)/2 with derivative
    chain to fourth order supplied by ``b_chain``.  Both take a float or a
    numpy array of abscissas.
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

        def b_chain(x):
            v = v_derivs(x)
            # + 0 * x broadcasts a constant potential over an array x
            b0 = 0.5 * (v[0] - energy) + 0.0 * x
            return (b0, 0.5 * v[1], 0.5 * v[2], 0.5 * v[3], 0.5 * v[4])

        return cls(eta=eta, a_coef=a_coef, x0=x0, b_chain=b_chain, energy=energy, epsilon=eps)

    def b(self, x):
        return self.b_chain(x)[0]


def _ratio_chain(u: tuple, v: tuple) -> tuple:
    """Derivatives 0..3 of u/v from derivative tuples u[0..3], v[0..3]."""
    r0 = u[0] / v[0]
    r1 = (u[1] - r0 * v[1]) / v[0]
    r2 = (u[2] - 2.0 * r1 * v[1] - r0 * v[2]) / v[0]
    r3 = (u[3] - 3.0 * r2 * v[1] - 3.0 * r1 * v[2] - r0 * v[3]) / v[0]
    return (r0, r1, r2, r3)


def _sqrt_chain(w: tuple, sign: float = 1.0) -> tuple:
    """Derivatives 0..len(w)-1 (at most 4) of sign*sqrt(w) from derivative tuple w.

    Recursion from 2*y*y' = w' with y = sign*sqrt(w) (principal branch).  The
    entries may be numpy arrays; a real array is taken as complex with a +0
    imaginary part, the branch cmath.sqrt takes for a float.
    """
    w0 = w[0]
    if isinstance(w0, np.ndarray):
        root = np.sqrt(w0.astype(complex, copy=False))
    else:
        root = cmath.sqrt(w0)
    y = [sign * root]
    twice = 2.0 * y[0]
    if len(w) > 1:
        y.append(w[1] / twice)
    if len(w) > 2:
        y.append((w[2] - 2.0 * y[1] * y[1]) / twice)
    if len(w) > 3:
        y.append((w[3] - 6.0 * y[1] * y[2]) / twice)
    if len(w) > 4:
        y.append((w[4] - 8.0 * y[1] * y[3] - 6.0 * y[2] * y[2]) / twice)
    return tuple(y)


def _capped_exp(e, x, what: str):
    """exp(e) for a log-space value e (float or array): raises past the cap, 0 below -745."""
    re = np.real(e)
    if np.any(re > EXPONENT_CAP):
        raise BasisOverflowError(
            f"{what} exponent Re = {np.max(re):.3g} beyond cap at x={x}", exponent=e
        )
    if np.ndim(e) == 0:
        return cmath.exp(e) if re > -745.0 else 0.0 + 0.0j
    with np.errstate(under="ignore"):
        return np.where(re > -745.0, np.exp(e), 0.0 + 0.0j)


_BRANCH_SIGNS = {1: (+1.0, +1.0), 2: (+1.0, -1.0), 3: (-1.0, +1.0), 4: (-1.0, -1.0)}


class WkbBasisFunction(BasisFunction):
    """One WKB branch on a validity piece.

    ``interval`` must not contain a zero of a^2 - b; for j in {3, 4} zeros of b
    inside the interval are masked by windows of half-width
    TURNING_WINDOW_HALF_WIDTH (evaluation inside a window raises
    ValidityError), while the exponent integrals cross them.

    The exponent integrals are sums over fixed panels counted from x0, so
    exponent(x) depends on x alone.  The cumulative sums at the panel edges
    met so far are kept in ``_table`` (edges, [I1, I2] sums, zero-of-b flags,
    grid panels covered below and above x0); it is replaced whole, never
    changed in place.
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
        if not (lo < params.x0 < hi and self.valid(params.x0)):
            raise ValidityError(f"reference point x0={params.x0} outside validity region")
        self._table = (
            np.array([params.x0]),
            np.zeros((2, 1), dtype=complex),
            np.array([False]),
            0,
            0,
        )

    @property
    def validity(self) -> tuple[float, float]:  # type: ignore[override]
        return self.interval

    # -- branch chains

    def _chains(self, x, order: int = 4, b: tuple | None = None) -> tuple[tuple, tuple]:
        """(s chain, lam chain), derivatives 0..order at a float or an array x.

        ``b`` replaces b_chain(x) when the caller has the b chain already.
        """
        p = self.params
        if b is None:
            b = p.b_chain(x)
        w = (p.a_coef**2 - b[0], -b[1], -b[2], -b[3], -b[4])[: order + 1]
        s = _sqrt_chain(w)
        sg = self._inner_sigma
        # a - s written as b / (a + s): no cancellation near a turning point
        u0 = p.a_coef + s[0] if sg > 0 else b[0] / (p.a_coef + s[0])
        u = (u0,) + tuple(sg * sk for sk in s[1:])
        lam = _sqrt_chain(u, sign=self._sign_tau)
        return s, lam

    def lam(self, x: float) -> complex:
        return self._chains(x, order=0)[1][0]

    # -- validity guards

    def valid(self, x) -> np.ndarray:
        lo, hi = self.interval
        x = np.asarray(x, dtype=float)
        ok = (lo <= x) & (x <= hi)
        # strict test on the stored window edges: a region end built as
        # z -+ window is then outside exactly, whatever the roundoff of x - z
        for a, b in self.windows:
            ok &= ~((a < x) & (x < b))
        return ok

    def _check(self, x: np.ndarray) -> None:
        bad = np.flatnonzero(~self.valid(x))
        if bad.size == 0:
            return
        lo, hi = self.interval
        x = float(x[bad[0]])
        if not (lo <= x <= hi):
            raise ValidityError(f"x={x} outside validity interval [{lo}, {hi}]")
        z = min(self._b_zeros, key=lambda t: abs(x - t))
        raise ValidityError(f"x={x} inside turning-point window around x={z}")

    # -- exponent integrals

    def _segment_integrals(self, c: np.ndarray, o: np.ndarray, subst: np.ndarray) -> np.ndarray:
        """[I1, I2] increments from c to o, shape (2, len(c)).

        Where ``subst`` is set, c is a zero of b and x = c +- u^2 turns the
        |x - c|^(-1/2) singularity of branches 3 and 4 into a smooth integrand.
        Each segment is bisected on its own, so its increment does not depend
        on the other segments of the call.
        """
        out = np.zeros((2, c.size), dtype=complex)
        for k in range(0, c.size, _SEGMENT_CHUNK):
            part = slice(k, k + _SEGMENT_CHUNK)
            out[:, part] = self._chunk_integrals(c[part], o[part], subst[part])
        return out

    def _chunk_integrals(self, c: np.ndarray, o: np.ndarray, subst: np.ndarray) -> np.ndarray:
        nodes, w_lo, w_hi = _gauss_pair()
        n = w_lo.size
        sense = np.where(o < c, -1.0, 1.0)
        out = np.zeros((2, c.size), dtype=complex)
        seg = np.flatnonzero(o != c)
        a = np.zeros(seg.size)
        b = np.abs(o - c)[seg]
        b = np.where(subst[seg], np.sqrt(b), b)
        for _ in range(_MAX_BISECTIONS):
            if seg.size == 0:
                return out
            width = (b - a)[:, None]
            u = a[:, None] + width * nodes
            sub = subst[seg, None]
            x = c[seg, None] + sense[seg, None] * np.where(sub, u * u, u)
            jac = np.where(sub, 2.0 * u, 1.0) * (sense[seg, None] * width)
            b_x = self.params.b_chain(x)
            if sub.any():
                b_x = self._b_past_zero(c[seg, None], sense[seg, None] * u * u, sub, b_x)
            s, lam = self._chains(x, order=1, b=b_x)
            f = np.stack([lam[0], lam[1] / s[0]]) * jac
            coarse = (f[..., :n] * w_lo).sum(axis=-1)
            fine = (f[..., n:] * w_hi).sum(axis=-1)
            if not np.all(np.isfinite(fine)):
                raise NumericalError(
                    f"WKB exponent integrand of branch {self.index} is not finite on a panel"
                )
            done = np.all(np.abs(fine - coarse) <= _QUAD_TOL * np.maximum(1.0, np.abs(fine)), axis=0)
            if done.all():
                np.add.at(out, (slice(None), seg), fine)
                return out
            np.add.at(out, (slice(None), seg[done]), fine[:, done])
            seg, a, b = seg[~done], a[~done], b[~done]
            if 2 * np.bincount(seg).max() > _MAX_PIECES:
                break
            mid = 0.5 * (a + b)
            seg = np.repeat(seg, 2)
            a, b = np.stack([a, mid], axis=1).ravel(), np.stack([mid, b], axis=1).ravel()
        raise NumericalError(
            f"WKB exponent integrals of branch {self.index} did not converge to "
            f"{_QUAD_TOL:g} within {_MAX_BISECTIONS} bisections and {_MAX_PIECES} pieces per segment"
        )

    def _b_past_zero(self, z: np.ndarray, d: np.ndarray, sub: np.ndarray, b_x: tuple) -> tuple:
        """b and b' at z + d from Taylor's formula at a zero z of b, where ``sub`` is set.

        z + d rounds d to the spacing of floats near z, and b(z + d) then
        carries a relative error of roughly 1e-16 |z| / |d| that stops the
        bisection next to the zero.  Taylor's formula takes d itself and
        b(z) = 0; it is exact because v is a polynomial of degree <= 4 for
        every potential with a WKB basis (linear, harmonic).
        """
        _, b1, b2, b3, b4 = self.params.b_chain(z)
        b0_t = d * (b1 + d * (b2 / 2.0 + d * (b3 / 6.0 + d * b4 / 24.0)))
        b1_t = b1 + d * (b2 + d * (b3 / 2.0 + d * b4 / 6.0))
        return (np.where(sub, b0_t, b_x[0]), np.where(sub, b1_t, b_x[1])) + tuple(b_x[2:])

    def _new_edges(self, k_done: int, reach: float, sense: float) -> tuple[np.ndarray, int]:
        """Panel edges (grid edges and zeros of b) beyond grid edge k_done up to
        the first grid edge past ``reach``, ordered outward from x0."""
        x0 = self.params.x0
        lo, hi = self.interval
        k = max(k_done, int(math.floor(sense * (reach - x0) / _PANEL_WIDTH)) + 1)
        grid = x0 + sense * np.arange(k_done + 1, k + 1) * _PANEL_WIDTH
        near, far = x0 + sense * k_done * _PANEL_WIDTH, x0 + sense * k * _PANEL_WIDTH
        zeros = np.array(self._b_zeros)
        inside = zeros[(sense * (zeros - near) > 0) & (sense * (zeros - far) <= 0)]
        # a grid edge next to a zero of b would leave a sliver panel whose
        # substituted nodes round onto the zero itself
        keep = (lo < grid) & (grid < hi)
        if zeros.size:
            keep &= np.abs(grid[:, None] - zeros).min(axis=1) > _MIN_EDGE_GAP
        edges = np.unique(np.concatenate([grid[keep], inside]))
        return (edges if sense > 0 else edges[::-1]), k

    def _extend(self, x_min: float, x_max: float) -> tuple:
        """Grow the panel table until it holds the panel edges nearest to x_min and x_max."""
        pos, cum, at_zero, k_lo, k_hi = self._table
        up, k_hi = self._new_edges(k_hi, x_max, 1.0)
        down, k_lo = self._new_edges(k_lo, x_min, -1.0)
        up_zero, down_zero = np.isin(up, self._b_zeros), np.isin(down, self._b_zeros)
        # outward panels from the old end edges; a panel ending on a zero of b
        # is integrated from that zero
        left = np.concatenate([np.append(pos[-1:], up)[:-1], np.append(pos[:1], down)[:-1]])
        left_zero = np.concatenate(
            [np.append(at_zero[-1:], up_zero)[:-1], np.append(at_zero[:1], down_zero)[:-1]]
        )
        right = np.concatenate([up, down])
        right_zero = np.concatenate([up_zero, down_zero])
        steps = self._segment_integrals(
            np.where(right_zero, right, left),
            np.where(right_zero, left, right),
            right_zero | left_zero,
        ) * np.where(right_zero, -1.0, 1.0)
        # running sums outward from x0, in a fixed order
        cum_up = np.cumsum(np.concatenate([cum[:, -1:], steps[:, : up.size]], axis=1), axis=1)
        cum_down = np.cumsum(np.concatenate([cum[:, :1], steps[:, up.size :]], axis=1), axis=1)
        self._table = (
            np.concatenate([down[::-1], pos, up]),
            np.concatenate([cum_down[:, :0:-1], cum, cum_up[:, 1:]], axis=1),
            np.concatenate([down_zero[::-1], at_zero, up_zero]),
            k_lo,
            k_hi,
        )
        return self._table

    def _integrals(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(I1, I2) from x0 to each x: the sum at the nearest panel edge plus the rest."""
        x0 = self.params.x0
        pos, cum, at_zero, k_lo, k_hi = self._table
        x_min, x_max = xs.min(), xs.max()
        if x_max > x0 + k_hi * _PANEL_WIDTH or x_min < x0 - k_lo * _PANEL_WIDTH:
            pos, cum, at_zero, _, _ = self._extend(x_min, x_max)
        i = np.searchsorted(pos, xs)
        below, above = np.maximum(i - 1, 0), np.minimum(i, pos.size - 1)
        anchor = np.where(xs - pos[below] <= pos[above] - xs, below, above)
        total = cum[:, anchor] + self._segment_integrals(pos[anchor], xs, at_zero[anchor])
        return total[0], total[1]

    # -- evaluation

    def exponent(self, x):
        """log w_j(x) including the prefactor (principal-branch logs); x a float or an array."""
        xs = np.asarray(x, dtype=float)
        flat = xs.reshape(-1)
        if flat.size == 0:
            return np.empty(xs.shape, dtype=complex)
        self._check(flat)
        i1, i2 = self._integrals(flat)
        s, lam = self._chains(flat, order=0)
        e = self.params.eta * i1 - 0.5 * i2 - 0.5 * (np.log(lam[0]) + np.log(s[0]))
        return complex(e[0]) if xs.ndim == 0 else e.reshape(xs.shape)

    def log_abs(self, x):
        return np.real(self.exponent(x))

    def value(self, x):
        return _capped_exp(self.exponent(x), x, "WKB")

    def scaled_value(self, x, log_shift: float):
        return _capped_exp(self.exponent(x) - log_shift, x, "scaled WKB")

    # the evaluators above take arrays as they are
    log_abs_array = log_abs
    value_array = value
    scaled_value_array = scaled_value

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
            while any(a < p < b for a, b in self.windows):
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

    def value(self, x: float) -> complex:
        return self.inner.value(abs(x))

    def log_abs(self, x: float) -> float:
        return self.inner.log_abs(abs(x))

    def scaled_value(self, x: float, log_shift: float) -> complex:
        return self.inner.scaled_value(abs(x), log_shift)

    def valid(self, xs: np.ndarray) -> np.ndarray:
        return self.inner.valid(np.abs(xs))

    def value_array(self, xs: np.ndarray) -> np.ndarray:
        return self.inner.value_array(np.abs(xs))

    def log_abs_array(self, xs: np.ndarray) -> np.ndarray:
        return self.inner.log_abs_array(np.abs(xs))

    def scaled_value_array(self, xs: np.ndarray, log_shift: float) -> np.ndarray:
        return self.inner.scaled_value_array(np.abs(xs), log_shift)

    def _auto_probes(self, side: Side) -> list[float]:
        inner_probes = self.inner._auto_probes(Side.PLUS_INFINITY)
        if side is Side.PLUS_INFINITY:
            return inner_probes
        return [-p for p in inner_probes]

    def __repr__(self):
        return f"SymmetrizedBasisFunction({self.inner!r})"


def find_zeros(f: Callable, lo: float, hi: float, n: int = 2001) -> list[float]:
    """Sign-change scan + brentq refinement on [lo, hi].

    ``f`` takes the whole n-point grid as one array; brentq refines only the
    cells whose ends change sign, calling f with floats.
    """
    xs = np.linspace(lo, hi, n)
    vals = np.broadcast_to(np.asarray(f(xs), dtype=float), xs.shape)
    exact = vals == 0.0
    cells = np.flatnonzero(exact[:-1] | (vals[:-1] * vals[1:] < 0.0))
    zeros = [
        float(xs[i]) if exact[i] else float(brentq(f, xs[i], xs[i + 1], xtol=1e-13))
        for i in cells
    ]
    if exact[-1]:
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
    b = params.b
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

    # every sample in one call; samples in a turning window or with a
    # non-finite log are masked
    ends = np.asarray(probes, dtype=float)
    xs = np.linspace(ends[:-1], ends[1:], samples_per_interval, axis=1)
    ok = f.valid(xs)
    logs = np.full(xs.shape, np.nan)
    logs[ok] = f.log_abs_array(xs[ok])
    ok &= np.isfinite(logs)
    if np.any(ok.sum(axis=1) < 3):
        return AsymptoticClass.UNDEFINED
    env_logs = np.where(ok, logs, -np.inf).max(axis=1)
    # sign samples: each interval's valid samples but its last (the next
    # interval's first), then the last probe
    keep = ok.copy()
    last = samples_per_interval - 1 - np.argmax(ok[:, ::-1], axis=1)
    keep[np.arange(len(xs)), last] = False
    keep[-1, -1] = ok[-1, -1]
    all_xs = xs[keep]

    growth = env_logs[-1] - env_logs[0]
    ln10 = math.log(10.0)
    if growth >= ln10:
        return AsymptoticClass.GROWING
    if growth <= -ln10:
        return AsymptoticClass.DECAYING

    shift = float(np.max(env_logs))
    vals = f.scaled_value_array(all_xs, shift)
    comps = vals.real if np.max(np.abs(vals.real)) >= np.max(np.abs(vals.imag)) else vals.imag
    sign_changes = int(np.sum(np.abs(np.diff(np.sign(comps))) > 0))
    ratios = np.exp(np.diff(env_logs))
    if sign_changes >= 1 and np.all((ratios >= 0.5) & (ratios <= 2.0)):
        return AsymptoticClass.OSCILLATORY
    return AsymptoticClass.UNDEFINED
