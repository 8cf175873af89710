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
singular), but the exponent integrals, closed forms in lam for b of degree
<= 2 (``ExponentTable``), are continued across them.

Exponents are computed before exponentiation and capped at |Re| <= 700;
beyond the cap value access raises BasisOverflowError and callers switch to
log-space access.

A fundamental set (``FundamentalSet``) is the one evaluator of its four
functions: it forms the point rows of a constraint system and the
derivatives of the states built on it, over an axis of points and a batch's
energies, in one stacked pass.  A WKB set (``WkbSet``) reads its piece's
exponent table, and the exact constant-potential set (``ExactConstantSet``)
its stacked kernels.  ``WkbBasisFunction`` names one branch in an error message.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from ._scipy import lazy
from .core import potential_derivs, potential_value
from .errors import (
    BasisOverflowError,
    ComplexQuartetError,
    DegenerateBasisError,
    PreconditionError,
    UnsupportedEpsilonError,
    ValidityError,
    raise_where,
)

# unused here: perfbench/tracer.py patches basis.quad until ROADMAP item 1 replaces it
quad = lazy("integrate", "quad")

EXPONENT_CAP = 700.0
TURNING_WINDOW_HALF_WIDTH = 0.05


class AsymptoticClass(Enum):
    GROWING = "Growing"
    DECAYING = "Decaying"


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

    For an array of q (one per energy of a batched scan) mu1, kappa, nu and
    e_minus_v are arrays of that shape; ``all_roots`` and
    ``quartic_residual`` take one q.
    """

    mu1: float
    kappa: float
    epsilon: float
    e_minus_v: float
    nu: float = 0.0

    def all_roots(self) -> np.ndarray:
        """The four roots as complex numbers (+-mu1 and the second pair)."""
        if self.kappa > 0.0:
            second = 1j * self.kappa
        else:
            second = complex(self.nu)
        return np.array([self.mu1, -self.mu1, second, -second], dtype=complex)

    def quartic_residual(self, mu: complex) -> float:
        q = self.e_minus_v
        value = self.epsilon * mu**4 - mu**2 - q
        scale = abs(self.epsilon * mu**4) + abs(mu**2) + abs(q) + 1e-300
        return abs(value) / scale


def characteristic_roots(epsilon: float, e_minus_v) -> CharacteristicRoots:
    """Solve the constant-potential characteristic quartic for a float or an array of q."""
    if epsilon <= 0.0:
        raise UnsupportedEpsilonError(
            "epsilon must be > 0; the second-order (beta = 0) equation is handled "
            "by the oracle integrator"
        )
    q = np.asarray(e_minus_v, dtype=float)
    disc = 1.0 + 4.0 * epsilon * q
    raise_where(
        disc < 0.0,
        lambda d: ComplexQuartetError(
            f"1 + 4*eps*(e - v) = {d} < 0: complex root quartet (deep forbidden region); use the WKB basis"
        ),
        disc,
    )
    root = np.sqrt(disc)
    mu1 = np.sqrt((1.0 + root) / (2.0 * epsilon))
    # (root - 1)/(2 eps) = 2 q / (1 + root): stable for small eps*q
    second_sq = 2.0 * q / (1.0 + root)
    above = q > 0.0
    kappa = np.sqrt(np.where(above, second_sq, 0.0))
    nu = np.sqrt(np.where(above, 0.0, -second_sq))
    if q.ndim == 0:
        mu1, kappa, nu, q = float(mu1), float(kappa), float(nu), float(q)
    return CharacteristicRoots(mu1=mu1, kappa=kappa, epsilon=epsilon, e_minus_v=q, nu=nu)


# --- exact functions -----------------------------------------------------------


def _per_energy(values):
    """A float, or a float array (one entry per energy of a batch)."""
    if isinstance(values, float):  # the common case first: np.float64 is a float too
        return float(values)
    return float(values) if np.ndim(values) == 0 else np.asarray(values, dtype=float)


def _shown(values, spec: str) -> str:
    """A float, or each entry of a batch's array, in the format ``spec``."""
    if np.ndim(values) == 0:
        return format(values, spec)
    return "[" + ", ".join(format(v, spec) for v in np.ravel(values).tolist()) + "]"


def _powers(base, order: int) -> list:
    """base**k, k = 0..order, by the float pow, which numpy's array power can differ
    from in the last bit: a batched basis's derivatives are each energy's own."""
    if np.ndim(base) == 0:
        return [base**k for k in range(order + 1)]
    flat = base.ravel().tolist()
    return np.array([[b**k for b in flat] for k in range(order + 1)]).reshape((order + 1,) + base.shape)


# Kernels of the exact functions.  A rate, anchor or wavenumber broadcasts
# against the abscissas: one per energy of a batch, and for an
# ``ExactConstantSet`` one per member as well.  The operations are
# elementwise, so every entry has the bits of its function alone at one
# point and one energy.


def _exp_log(rate, anchor, x):
    """log exp(rate (x - anchor)) = rate (x - anchor)."""
    return rate * (np.asarray(x, dtype=float) - anchor)


def _exp_scaled(logs, x, log_shift):
    """exp(logs - log_shift) of exponentials whose logs at x are ``logs``; raises past the cap."""
    # the complex exp takes the libm exp that math.exp takes (the real
    # np.exp can differ from it in the last bit)
    return _capped_exp(np.asarray(logs - log_shift, dtype=complex), x, "exp")


def _exp_derivatives(rate, anchor, x, order: int) -> np.ndarray:
    """Derivatives 0..order of exp(rate (x - anchor)) on a leading axis."""
    f = _exp_scaled(_exp_log(rate, anchor, x), x, 0.0)
    return np.array([f * p for p in _powers(rate, order)], dtype=complex)


def _trig_waves(kappa, x) -> tuple:
    """cos(kappa x) and sin(kappa x)."""
    u = kappa * np.asarray(x, dtype=float)
    return np.cos(u), np.sin(u)


def _trig_logs(waves):
    """log|waves|, -inf at a zero."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(waves))


def _trig_scaled(waves, log_shift):
    """waves * exp(-log_shift), the factor by the complex exp as for the exponentials."""
    scale = np.exp(np.asarray(-log_shift, dtype=complex)).real
    return (waves * scale).astype(complex)


# where each phase enters the derivative cycle cos -> -sin -> -cos -> sin
_TRIG_STARTS = {"cos": 0, "sin": 3}


def _trig_derivatives(kappa, x, order: int, phases: Sequence[str]) -> np.ndarray:
    """Derivatives 0..order of cos(kappa x) or sin(kappa x) per phase, shape (phases, order + 1) + shape."""
    c, s = _trig_waves(kappa, x)
    cycle = (c, -s, -c, s)
    powers = _powers(kappa, order)
    return np.array(
        [[cycle[(n + _TRIG_STARTS[phase]) % 4] * p for n, p in enumerate(powers)] for phase in phases],
        dtype=complex,
    )


# --- fundamental sets -----------------------------------------------------------


class FundamentalSet:
    """The four functions w_1..w_4 of a fundamental set, evaluated over an axis of points.

    ``point_rows`` gives the entries of ``assemble``'s point rows and
    ``derivatives`` the derivatives of chosen members, which the derivative
    rows read.  A set supplies the batch shape, the value-row hook
    ``_value_rows`` and ``derivatives``: ``ExactConstantSet`` and ``WkbSet``
    evaluate both in stacked passes of their own.
    """

    def __len__(self) -> int:
        return 4

    def point_rows(self, points: Sequence[tuple[float, int]]) -> np.ndarray:
        """Entries of the point rows, shape (points,) + batch + (4,), for points (x, order).

        Order 0 gives the values [w_1(x), ..., w_4(x)] times exp(-shift),
        with one log shift per row (per energy of a batch), the largest
        log|w_j(x)|, so no entry is formed past the exponent cap.  Order
        k >= 1 gives the k-th derivatives, unscaled.  Every value point is
        formed in one pass and every derivative point in one more.
        """
        batch = self._batch
        # points lead and the members follow, so a kernel that raises names
        # its first point, in the order of the rows, that fails
        xs = np.array([x for x, _ in points], dtype=float).reshape((-1, 1) + (1,) * len(batch))
        orders = np.array([k for _, k in points])
        if not orders.any():
            rows = self._value_rows(xs)
        else:
            rows = np.empty((len(points), 4) + batch, dtype=complex)
            value = orders == 0
            if value.any():
                rows[value] = self._value_rows(xs[value])
            rows[~value] = self._derivative_rows(xs[~value], orders[~value])
        return rows.transpose((0, *range(2, rows.ndim), 1))

    @property
    def _batch(self) -> tuple:
        """The shape of a batch's energies, () for one energy."""
        raise NotImplementedError

    def _value_rows(self, x) -> np.ndarray:
        """w_j(x) exp(-shift) of points x of shape (points, 1, ...), shape (points, 4) + batch."""
        raise NotImplementedError

    def _derivative_rows(self, x, orders: np.ndarray) -> np.ndarray:
        """w_j^(k)(x) of points x of shape (points, 1, ...), each with its order k, shape (points, 4) + batch.

        One pass to the highest order, each point reading its own: a lower
        order's entries do not depend on the highest.
        """
        top, at = int(orders.max()), np.arange(orders.size)
        return self.derivatives(x[:, 0], top, range(4))[:, orders, at].swapaxes(0, 1)

    def derivatives(self, x, order: int, members: Sequence[int]) -> np.ndarray:
        """Derivatives of the members (0-based, ascending), shape (members, order + 1) + shape.

        ``shape`` is that of x and a batch's energies broadcast together.
        """
        raise NotImplementedError


class ExactConstantSet(FundamentalSet):
    """{exp(mu1 (x - hi)), exp(-mu1 (x - lo)), cos(kappa x), sin(kappa x)}, evaluated as one stacked set.

    The exponentials' rates and anchors are held stacked on a member axis,
    and the trig pair shares kappa x, so ``_value_rows`` and ``derivatives``
    evaluate all four members at every point (and every energy of a batch)
    in one pass, one call of each kernel.  The kernels are elementwise, so
    every entry has the bits of its member alone at one point and one
    energy, and an exponent past the cap raises at the first point that
    passes it.
    """

    def __init__(self, mu1, kappa, walls: tuple[float, float]):
        """``mu1`` and ``kappa``: floats, or arrays of one entry per energy of a batch."""
        lo, hi = walls
        mu1 = _per_energy(mu1)
        self._rates = np.array([mu1, -mu1])  # (2,) + batch
        self._anchors = np.array([float(hi), float(lo)])
        self._kappa = _per_energy(kappa)

    @property
    def _batch(self) -> tuple:
        return np.shape(self._kappa)

    def _value_rows(self, x) -> np.ndarray:
        """w_j(x) exp(-shift) of points x of shape (points, 1, ...), shape (points, 4) + batch."""
        # the member axis after the points
        logs = _exp_log(self._rates[None], self._anchors.reshape((1, 2) + (1,) * (x.ndim - 2)), x)
        waves = np.concatenate(_trig_waves(self._kappa, x), axis=1)
        every = np.concatenate([logs, _trig_logs(waves)], axis=1)
        shift = np.maximum.reduce(every, axis=1, keepdims=True)
        return np.concatenate([_exp_scaled(logs, x, shift), _trig_scaled(waves, shift)], axis=1)

    def derivatives(self, x, order: int, members: Sequence[int]) -> np.ndarray:
        """Derivatives of the members, shape (members, order + 1) + shape, shape that of x and the batch."""
        x, parts = np.asarray(x, dtype=float), []
        exps = [j for j in members if j < 2]
        if exps:
            # the members last, after the points and the batch, so an
            # exponent past the cap raises at the first point that passes it
            d = _exp_derivatives(np.moveaxis(self._rates[exps], 0, -1), self._anchors[exps], x[..., None], order)
            parts.append(np.moveaxis(d, -1, 0))
        phases = [("cos", "sin")[j - 2] for j in members if j >= 2]
        if phases:
            parts.append(_trig_derivatives(self._kappa, x, order, phases))
        return np.concatenate(parts)


def exact_constant_basis(roots: CharacteristicRoots, walls: tuple[float, float]) -> ExactConstantSet:
    """The exact set ``ExactConstantSet`` of the roots of q = e - v > 0 between the walls (lo, hi).

    The exponentials are the boundary layers at the walls: each is 1 at its
    own wall and exp(-mu1 (hi - lo)) at the other, so every wall value lies
    in [0, 1] however thin the layers are.  Roots of an array of q give one
    batched set that evaluates every energy at once.
    """
    raise_where(
        np.less_equal(roots.kappa, 0.0),
        lambda k: DegenerateBasisError(
            f"kappa = {k}: oscillatory pair degenerate (e <= v); constant-potential basis requires e - v > 0"
        ),
        roots.kappa,
    )
    return ExactConstantSet(roots.mu1, roots.kappa, walls)


# --- WKB machinery -------------------------------------------------------------

# Exponent integrals: closed forms in lam (``ExponentTable``).
# nodes and weights of the three-point Gauss-Legendre rule on [0, 1]: exact
# for the quartic mean in the closed-form I1 of a linear b
_CHORD_NODES = np.array([0.5 - 0.5 * 0.6**0.5, 0.5, 0.5 + 0.5 * 0.6**0.5])
_CHORD_WEIGHTS = np.array([5 / 18, 8 / 18, 5 / 18])
# duplication steps of ``_carlson_fd``: each shrinks the spread of the
# arguments fourfold, so after nine the series' error is below rounding
_CARLSON_STEPS = 9


@dataclass(frozen=True)
class WkbParameters:
    """Scaled WKB coefficients for one (problem, energy) pair, or for a batch of energies.

    eta = (2/eps)^(1/4); a_coef = eta^2/4; b(x) = (v(x) - e)/2, with v the
    problem's ``v_coefficients`` (v(0), v'(0), v''(0)).  ``b`` and
    ``b_chain`` take a float or a numpy array of abscissas.  For a batch
    ``energy`` and ``x0`` are arrays, one entry per energy, and abscissas
    broadcast against them: the energies are the last axis.
    """

    eta: float
    a_coef: float
    x0: float
    v_coefficients: tuple[float, float, float]
    energy: float

    @classmethod
    def from_problem(cls, problem, energy: float, x0: float) -> "WkbParameters":
        eps = problem.epsilon
        if eps <= 0.0:
            raise UnsupportedEpsilonError("WKB basis requires epsilon > 0")
        eta = (2.0 / eps) ** 0.25
        return cls(
            eta=eta, a_coef=eta * eta / 4.0, x0=_per_energy(x0),
            v_coefficients=problem.v_coefficients, energy=energy,
        )

    def b_chain(self, x) -> tuple:
        """b and its derivatives 1..4 at x; b has degree <= 2, so the third and fourth are 0."""
        v, v1, v2 = potential_derivs(self.v_coefficients, x)
        return 0.5 * (v - self.energy), 0.5 * v1, 0.5 * v2, 0.0, 0.0

    def b(self, x):
        """b at x, the value ``b_chain`` gives, without its derivatives."""
        return 0.5 * (potential_value(self.v_coefficients, x) - self.energy)


def _ratio_chain(u: tuple, v: tuple) -> tuple:
    """Derivatives 0..3 of u/v from derivative tuples u[0..3], v[0..3]."""
    r0 = u[0] / v[0]
    r1 = (u[1] - r0 * v[1]) / v[0]
    r2 = (u[2] - 2.0 * r1 * v[1] - r0 * v[2]) / v[0]
    r3 = (u[3] - 3.0 * r2 * v[1] - 3.0 * r1 * v[2] - r0 * v[3]) / v[0]
    return (r0, r1, r2, r3)


def _sqrt_chain(w: tuple, sign: float = 1.0) -> tuple:
    """Derivatives 0..len(w)-1 (at most 4) of sign*sqrt(w) from derivative tuple w.

    Recursion from 2*y*y' = w' with y = sign*sqrt(w) (principal branch).
    w[0] is a numpy array, a real one taken as complex with a +0 imaginary
    part; the derivatives may be floats.
    """
    y = [sign * np.sqrt(w[0].astype(complex, copy=False))]
    if len(w) > 1:
        twice = 2.0 * y[0]
        y.append(w[1] / twice)
    if len(w) > 2:
        y.append((w[2] - 2.0 * y[1] * y[1]) / twice)
    if len(w) > 3:
        y.append((w[3] - 6.0 * y[1] * y[2]) / twice)
    if len(w) > 4:
        y.append((w[4] - 8.0 * y[1] * y[3] - 6.0 * y[2] * y[2]) / twice)
    return tuple(y)


def _capped_exp(e, x, what: str):
    """exp(e) for a log-space value e (float or array): raises past the cap, 0 below -745, NaN stays NaN."""
    re = np.real(e)
    if np.count_nonzero(re > EXPONENT_CAP):  # faster than np.any on the few entries of a row
        i = int(np.argmax(np.ravel(re) > EXPONENT_CAP))
        x_bad = float(np.broadcast_to(np.asarray(x, dtype=float), np.shape(re)).ravel()[i])
        e_bad = complex(np.ravel(e)[i])
        raise BasisOverflowError(
            f"{what} exponent Re = {e_bad.real:.6g} at x={x_bad:.6g} beyond the cap "
            f"EXPONENT_CAP = {EXPONENT_CAP:g}",
            exponent=e_bad,
        )
    if np.ndim(e) == 0:
        return 0.0 + 0.0j if re <= -745.0 else cmath.exp(e)
    with np.errstate(under="ignore", invalid="ignore"):  # a NaN exponent gives NaN, as a float one does
        return np.where(re <= -745.0, 0.0 + 0.0j, np.exp(e))


def _carlson_fd(x, y, z) -> tuple:
    """Carlson's R_F(x, y, z) and R_D(x, y, z), elementwise, by one duplication loop.

    B. C. Carlson, "Numerical computation of real or complex elliptic
    integrals", Numer. Algorithms 10 (1995).  Real arguments must be >= 0,
    complex ones off the negative real axis (principal square roots), with
    at most one of x, y zero and z nonzero.  A fixed number of steps keeps
    each entry's value independent of the other entries.
    """
    tail, scale = 0.0, 1.0  # R_D's sum over the steps, and 4^-step
    for _ in range(_CARLSON_STEPS):
        rx, ry, rz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = rx * ry + ry * rz + rz * rx
        tail = tail + scale / (rz * (z + lam))
        scale *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    mean = (x + y + z) / 3.0
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dz = -(dx + dy)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(mean)
    mean = (x + y + 3.0 * z) / 5.0
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dz = -(dx + dy) / 3.0
    xy, zz = dx * dy, dz * dz
    e2, e3 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * dz
    e4, e5 = 3.0 * (xy - zz) * zz, xy * zz * dz
    series = (
        1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
        - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0
    )
    return rf, scale * series / (mean * np.sqrt(mean)) + 3.0 * tail


# lam_j = tau_j sqrt(a + sigma_j s): the pairs' signs sigma = +1, -1 (the
# leading axis of ``_roots`` and the closed sums), the pair branches 1..4
# each read, and their signs tau
_PAIR_SIGMA = np.array([1.0, -1.0])
_PAIR = np.array([0, 0, 1, 1])
_TAU = np.array([1.0, -1.0, 1.0, -1.0])


@lru_cache
def _branch_index(branches: tuple, ndim: int) -> tuple:
    """(rows, pairs, sigma, tau) of the branches (1-based) of a query at abscissas of ``ndim`` axes.

    ``rows`` index the pairs' integrals followed by their negations, the
    tau = -1 branches reading the negated ones; ``pairs`` index the pairs'
    lam, and ``tau`` multiplies it.  ``sigma`` and ``tau`` are columns that
    broadcast against the abscissas.  Every query of the same branches
    shares the arrays, so they are read-only.
    """
    at = np.array(branches) - 1
    pairs, column = _PAIR[at], (-1,) + (1,) * ndim
    index = (pairs + 2 * (_TAU[at] < 0), pairs, _PAIR_SIGMA[pairs].reshape(column), _TAU[at].reshape(column))
    for a in index:
        a.flags.writeable = False
    return index


def _roots(p: WkbParameters, x) -> tuple:
    """(s, lam) at an array x: s = sqrt(a^2 - b), and lam = sqrt(a + sigma s) of both pairs on a leading axis.

    The order-0 entries of ``_branch_chains`` with tau = +1, formed from b
    alone.
    """
    b = p.b(x)
    # 1.0 * as the chains' sign times the root: the product sets each bit
    # (the sign of a zero imaginary part) as they do
    s = 1.0 * np.sqrt((p.a_coef**2 - b).astype(complex))
    a_s = p.a_coef + s
    # a - s written as b / (a + s): no cancellation near a turning point
    return s, 1.0 * np.sqrt(np.array([a_s, b / a_s]))


def _branch_chains(p: WkbParameters, x, sigma, tau, order: int = 4):
    """(s chain, lam chain) of lam = tau sqrt(a + sigma s), derivatives 0..order at an array x.

    ``sigma`` and ``tau`` are arrays of +-1.0 that broadcast against x (one
    per branch on a leading axis).
    """
    b = p.b_chain(x)
    w = (p.a_coef**2 - b[0],) + tuple(-c for c in b[1 : order + 1])
    s = _sqrt_chain(w)
    # a - s written as b / (a + s): no cancellation near a turning point
    a_s = p.a_coef + s[0]
    u = (np.where(sigma > 0, a_s, b[0] / a_s),) + tuple(sigma * sk for sk in s[1:])
    return s, _sqrt_chain(u, sign=tau)


# the classes of branches 1..4 toward each side past the last zero of a^2 - b:
# GROWING where tau_j has the outward sign (``classify_asymptotics``)
_FAR_CLASSES = {
    side: tuple(AsymptoticClass.GROWING if outward * tau > 0 else AsymptoticClass.DECAYING for tau in _TAU.tolist())
    for side, outward in ((Side.PLUS_INFINITY, 1.0), (Side.MINUS_INFINITY, -1.0))
}


def _wkb_log(eta: float, i1, i2, s, lam):
    """log w_j = eta I1 - I2/2 - (log lam + log s)/2, elementwise, from branch j's own I1, I2 and lam."""
    return eta * i1 - 0.5 * i2 - 0.5 * (np.log(lam) + np.log(s))


class ExponentTable:
    """The exponent integrals of one WKB piece, shared by its four branches.

    I1 = int lam and I2 = int lam'/s from x0 depend on x alone.  The table
    computes them for the tau = +1 branch of each pair (sigma = +1, -1); the
    tau = -1 partner, lam -> -lam, reads them negated, which is exact.  Both
    are closed forms in lam, O(1) per point, for b of degree <= 2 (linear
    or harmonic).

    From lam^2 = a + sigma s, I2 = sigma int dlam / (lam^2 - a), so for
    every b

        I2 = -(sigma/sqrt a) [atanh q(lam) - atanh q(lam0)],

    with q = lam/sqrt(a) for sigma = -1, sqrt(a)/lam for sigma = +1: each q
    stays off its own atanh cut (README, "Method notes").

    Where b is linear (b'' = 0), s^2 = a^2 - b is linear in x and

        I1 = 4 sigma (x - x0) P / ((s + s0)(lam + lam0)),

    with P the mean of lam^2 (lam^2 - a) over the chord from lam0 to lam.
    This I1 is -(4/b')[lam^5/5 - a lam^3/3] with lam - lam0 divided out, so
    nothing cancels near x0; P, on three Gauss-Legendre nodes (exact), forms
    each node's lam^2 - a from sigma s0, so nothing cancels near the zero
    of s.

    Where b = (c y^2 - e)/2 is quadratic (y = x - m from its vertex m,
    e > 0), c y^2 = 2 (alpha - lam^2)(gamma + lam^2) with r = sqrt(a^2 + e/2),
    alpha = a + r, gamma = r - a = e / (2 alpha), and I1 is an elliptic
    integral in lam:
    2/3 lam |y| plus Carlson's R_F and R_D (``_carlson_fd``) of arguments
    that hold alpha - lam^2 and gamma + lam^2.  Each is formed without
    subtracting lam^2: one of them is r + s, the other c y^2 / (2 (r + s)).
    The sigma = +1 integral runs from the vertex (lam^2 = alpha), the
    sigma = -1 one from the turning point (lam = 0), so each stays of the
    size of int lam itself; I1 is odd in y about the vertex.

    The reference point x0 lies strictly inside the piece and outside every
    turning window, or the table raises ValidityError: the test of branches
    3 and 4, which implies that of 1 and 2.  ``check`` tests the abscissas
    of a query against the interval and, for branches 3 and 4, the windows.

    The table is the one evaluator of its branches: ``logs`` and
    ``derivatives`` take any of them (1-based) on a leading axis, so every
    entry has the bits its branch gives alone.  A query is one pass: one
    validity mask over the interval and, for branches 3 and 4, the windows;
    s and lam of both pairs formed from b (``_roots``); both pairs' I1 and
    I2 in one stacked pass (``_closed_sums``); and the logs of all the
    branches asked in one kernel.  Only derivatives of order >= 1 form the
    chains of s and lam, at the same abscissas.
    """

    def __init__(
        self, params: WkbParameters, interval: tuple[float, float], b_zeros: Sequence[float]
    ):
        self.params = params
        self.interval = interval
        self.b_zeros = tuple(b_zeros)  # ascending floats or arrays, from a region map
        w = TURNING_WINDOW_HALF_WIDTH
        self.windows = tuple((z - w, z + w) for z in self.b_zeros)  # of branches 3 and 4
        (lo, hi), x0 = interval, np.asarray(params.x0)
        clear = (lo < x0) & (x0 < hi)
        for a, b in self.windows:
            clear = clear & ~((a < x0) & (x0 < b))
        raise_where(~clear, lambda x: ValidityError(f"reference point x0={x} outside validity region"), x0)

    @cached_property
    def branch_points(self) -> tuple[float, ...]:
        """Zeros of b (lam_3, lam_4 -> 0) and of a^2 - b (s -> 0) on the whole line.

        The amplitudes of the branches are singular there.
        """
        region_map = map_regions(self.params, -math.inf, math.inf)
        return region_map.b_zeros + region_map.s_zeros

    def logs(self, x, branches: Sequence[int]) -> np.ndarray:
        """log w_j(x) of each branch j in ``branches`` (principal-branch logs), shape (branches,) + shape.

        ``shape`` is that of x broadcast against a batch's energies, the
        last axes (a float x: one entry per energy).  One validity mask
        covers every branch asked: the interval, and the windows if branch 3
        or 4 is asked.  A query that fails it raises ValidityError at the
        first abscissa that fails, with every energy that has one in
        ``failed``, whatever the order of the branches.
        """
        flat, shape = self._flat(x)
        if flat.size == 0:
            return np.empty((len(branches),) + shape, dtype=complex)
        self.check(flat, self.windows if max(branches) > 2 else ())
        i1, i2, s, lam = self._closed_sums(flat)
        # branch j reads its pair's sums; the tau = -1 partner reads the
        # integrals negated, and tau multiplies lam (a negation would flip
        # the sign of a zero imaginary part, and with it the branch of the log)
        rows, pairs, _, tau = _branch_index(tuple(branches), flat.ndim)
        i12 = np.array([i1, i2])
        i1, i2 = np.concatenate((i12, -i12), axis=1)[:, rows]
        return _wkb_log(self.params.eta, i1, i2, s, tau * lam[pairs]).reshape((len(branches),) + shape)

    def derivatives(self, x, order: int, branches: Sequence[int]) -> np.ndarray:
        """Derivatives 0..order (at most 4) of each branch in ``branches``, shape (branches, order + 1) + shape.

        The value is the exponential of ``logs``; order k >= 1 multiplies it
        by a polynomial in the derivatives of log w_j, formed by the
        analytic chain rule from the chains of s and lam at the abscissas
        ``logs`` reads, so a float x and the one-point array [x] agree.
        """
        if order > 4:
            raise PreconditionError(f"WKB derivatives available up to order 4, got order {order}")
        f = _capped_exp(self.logs(x, branches), x, "WKB")
        if order == 0:
            return f[:, None]
        flat, shape = self._flat(x)
        f = f.reshape((len(branches),) + flat.shape)
        # sigma and tau of each branch, on the branch axis
        *_, sigma, tau = _branch_index(tuple(branches), flat.ndim)
        s, lam = _branch_chains(self.params, flat, sigma, tau)
        corr = _ratio_chain(lam[1:5], s[0:4])
        dlog_lam = _ratio_chain(lam[1:5], lam[0:4])
        dlog_s = _ratio_chain(s[1:5], s[0:4])
        t = [self.params.eta * lam[k] - 0.5 * corr[k] - 0.5 * (dlog_lam[k] + dlog_s[k]) for k in range(4)]
        out = [f, f * t[0]]
        if order >= 2:
            out.append(f * (t[1] + t[0] ** 2))
        if order >= 3:
            out.append(f * (t[2] + 3.0 * t[0] * t[1] + t[0] ** 3))
        if order >= 4:
            out.append(
                f * (t[3] + 4.0 * t[0] * t[2] + 3.0 * t[1] ** 2 + 6.0 * t[0] ** 2 * t[1] + t[0] ** 4)
            )
        return np.stack(out, axis=1).reshape((len(branches), order + 1) + shape)

    def _flat(self, x) -> tuple:
        """(x broadcast against a batch's energies as (points,) + batch, the broadcast shape)."""
        xs, x0 = np.asarray(x, dtype=float), self.params.x0
        shape = np.broadcast(xs, x0).shape
        return (xs if xs.shape == shape else np.full(shape, xs)).reshape((-1,) + np.shape(x0)), shape

    def valid(self, x, windows: Sequence[tuple]) -> np.ndarray:
        """Whether each x lies in the interval and outside ``windows`` (the table's, or none)."""
        lo, hi = self.interval
        x = np.asarray(x, dtype=float)
        ok = (lo <= x) & (x <= hi)
        # strict test on the stored window edges: a region end built as
        # z -+ window is then outside exactly, whatever the roundoff of x - z
        for a, b in windows:
            ok = ok & ~((a < x) & (x < b))
        return ok

    def check(self, x: np.ndarray, windows: Sequence[tuple]) -> None:
        """Raise ValidityError at the first abscissa of a flat x (of each energy, for a batch) that ``valid`` refuses."""
        ok = self.valid(x, windows)
        if ok.all():
            return
        first = np.take_along_axis(x, np.argmin(ok, axis=0)[None], 0)[0]
        raise_where(~ok.all(axis=0), self._invalid, first, *self.interval, *self.b_zeros)

    @staticmethod
    def _invalid(x, lo, hi, *b_zeros) -> ValidityError:
        if not (lo <= x <= hi):
            return ValidityError(f"x={x} outside validity interval [{lo}, {hi}]")
        z = min(b_zeros, key=lambda t: abs(x - t))
        return ValidityError(f"x={x} inside turning-point window around x={z}")

    def _closed_sums(self, xs: np.ndarray) -> tuple:
        """(I1, I2, s, lam) at a flat xs, with I1, I2 and lam of both pairs on a leading axis, in one pass."""
        p, root_a = self.params, math.sqrt(self.params.a_coef)
        _, slope, curvature, _, _ = p.b_chain(0.0)  # b is linear where b'' = 0, else quadratic
        n = xs.shape[0]
        # x0 is one more row (of one entry per energy of a batch), and the
        # vertex of a quadratic b one after it
        x0 = np.reshape(p.x0, (1,) + np.shape(p.x0))
        if curvature:
            vertex = -slope / curvature
            at = np.concatenate((xs, x0, np.full(x0.shape, vertex)))
        else:
            at = np.concatenate((xs, x0))
        s, lam = _roots(p, at)
        sigma = _PAIR_SIGMA.reshape((2,) + (1,) * xs.ndim)
        if curvature:
            i1 = self._elliptic_i1(at, s, lam, vertex, curvature)
        else:
            i1 = self._chord_i1(xs, s[:-1], s[-1], lam[:, :-1], lam[:, -1:], sigma, slope)
        # sigma = +1 takes sqrt(a)/lam, sigma = -1 lam/sqrt(a): each off its atanh cut
        q = np.arctanh(np.array([root_a / lam[0, : n + 1], lam[1, : n + 1] / root_a]))
        i2 = -(sigma / root_a) * (q[:, :n] - q[:, n:])
        return i1, i2, s[:n], lam[:, :n]

    def _chord_i1(self, xs, s, s0, lam, lam0, sigma, slope: float) -> np.ndarray:
        """I1 of both pairs where b is linear with b' = slope, from the chain values at xs and at x0."""
        p = self.params
        scale = (xs - p.x0) / ((s + s0) * (lam + lam0))
        step = -sigma * slope * scale  # lam - lam0
        # the nodes on a leading axis, summed in their order
        t, w = (c.reshape((3,) + (1,) * step.ndim) for c in (_CHORD_NODES, _CHORD_WEIGHTS))
        along = t * step  # node - lam0
        node = lam0 + along
        mean = (w * node * node * (sigma * s0 + along * (lam0 + node))).sum(axis=0)
        return 4.0 * sigma * scale * mean

    def _elliptic_i1(self, at, s, lam, vertex: float, c: float) -> np.ndarray:
        """I1 of both pairs where b is quadratic with b'' = c.

        The rows of ``at``, ``s`` and ``lam`` are xs, then x0, then the vertex.
        """
        p, a = self.params, self.params.a_coef
        e = -2.0 * p.b(vertex)
        raise_where(
            e <= 0.0,
            lambda e: PreconditionError(
                "closed-form exponents of a quadratic potential need an energy above its "
                f"minimum, got e - v_min = {e:g}"
            ),
            e,
        )
        r = np.sqrt(a * a + 0.5 * e)
        alpha = a + r
        gamma = 0.5 * e / alpha  # r - a, whose digits cancel where e << a^2
        if not s.imag.any():  # between the zeros of a^2 - b: real arguments
            s = s.real
        y = at - vertex
        rs = r + s
        near = 0.5 * c * y * y / rs  # alpha - lam^2 for sigma = +1, gamma + lam^2 for sigma = -1
        rf, rd = _carlson_fd(
            np.stack([2.0 * r * (a + s), gamma * rs]),
            np.stack([alpha * rs, alpha * near]),
            np.reshape([2.0 * r * alpha, 0.5 * e], (2, 1) + np.shape(e)),  # alpha gamma = e/2
        )
        k = math.sqrt(8.0 / c)
        # sigma = +1 from the vertex, where u = sqrt(alpha - lam^2) is 0
        u = np.sqrt(near)
        from_vertex = k * u * (
            (a * alpha / 3.0 + e / 6.0) * rf[0] - (2.0 * a * r * alpha / 9.0) * near * rd[0]
        )
        # sigma = -1 from the turning point, where lam is 0
        lam_t = lam[1]
        from_turn = -(k * e / 6.0) * lam_t * (rf[1] + (a / 3.0) * lam_t * lam_t * rd[1])
        w = (2.0 / 3.0) * lam * np.abs(y) + np.stack([from_vertex, from_turn])
        j = np.sign(y) * (w - w[:, -1:])  # odd in y about the vertex
        return j[:, :-2] - j[:, -2:-1]


class WkbBasisFunction:
    """Branch j of one WKB piece, named by its repr in an error message (``_check_gram_range``).

    Its exponent is the table's query for the branch alone
    (``ExponentTable.logs``); every reader of a value or a derivative asks
    the table itself.
    """

    def __init__(self, table: ExponentTable, index: int):
        if index not in (1, 2, 3, 4):
            raise ValueError(f"branch index must be 1..4, got {index}")
        self.table = table
        self.index = index

    def exponent(self, x):
        """log w_j(x) including the prefactor (principal-branch logs); x a float or an array.

        On a batched piece x broadcasts against the energies, and so does the result.
        """
        e = self.table.logs(x, (self.index,))[0]
        return e if e.shape else complex(e)

    def __repr__(self):
        p = self.table.params
        return (
            f"WkbBasisFunction(j={self.index}, interval={self.table.interval}, "
            f"x0={_shown(p.x0, '.4g')}, eta={p.eta:.4g})"
        )


class WkbSet(FundamentalSet):
    """Branches 1..4 of one WKB piece, all reading its ``ExponentTable``, or their even continuations.

    With ``even`` the members are the even continuations f(|x|) of the
    branches, built on the positive tail of an even potential: the equation
    is parity invariant, so each solves it on the mirror piece too, and its
    outward asymptotic class is the same toward both sides.

    The value rows and ``derivatives`` are each one query of the table for
    all the branches they read (``ExponentTable.logs`` and
    ``derivatives``), so every entry has the bits of a query of its branch
    alone.  The set forms no branch object: every reader, a count included,
    queries the table.
    """

    def __init__(self, table: ExponentTable, even: bool = False):
        self.table = table
        self.even = even

    @property
    def _batch(self) -> tuple:
        return np.shape(self.table.params.x0)

    def _value_rows(self, x) -> np.ndarray:
        """w_j(x) exp(-shift) of points x of shape (points, 1, ...), shape (points, 4) + batch."""
        at = np.abs(x) if self.even else x
        e = self.table.logs(at[:, 0], (1, 2, 3, 4)).swapaxes(0, 1)
        # max, not a reduction that skips NaN: a NaN exponent poisons its whole row
        shift = e.real.max(axis=1, keepdims=True)
        return _capped_exp(e - shift, x, "scaled WKB")

    def derivatives(self, x, order: int, members: Sequence[int]) -> np.ndarray:
        """Derivatives of the members, shape (members, order + 1) + shape, shape that of x and the batch.

        An even continuation reads its branches at |x|, and its odd orders
        change sign where x < 0.
        """
        d = self.table.derivatives(np.abs(x) if self.even else x, order, [j + 1 for j in members])
        if self.even:
            d[:, 1::2] *= np.where(np.asarray(x) < 0, -1.0, 1.0)
        return d


@dataclass(frozen=True)
class WkbRegionMap:
    """Turning structure of b on the interval ``map_regions`` searched.

    b_zeros: classical turning points (b = 0); s_zeros: zeros of a^2 - b, the
    hard piece boundaries where the branch pair degenerates.  For a batch
    of energies each zero is an array (``map_regions``).
    """

    b_zeros: tuple[float, ...]
    s_zeros: tuple[float, ...]


def map_regions(params: WkbParameters, lo: float, hi: float) -> WkbRegionMap:
    """Zeros of b and of a^2 - b in [lo, hi], in closed form.

    b is a polynomial of degree <= 2, as every potential is (constant,
    linear, harmonic): b(x) - k = c2 x^2 + c1 x + c0 with
    c0 = b(0) - k, c1 = b'(0) and c2 = b''(0)/2, for k = 0 and k = a^2.
    For a batch of energies each zero is an array, NaN at the energies
    where it does not lie in [lo, hi].
    """
    b0, b1, b2, _, _ = params.b_chain(0.0)
    # the roots of b - k for k = 0 and k = a^2 (second axis), NaN outside [lo, hi]
    roots = _quadratic_roots(0.5 * b2, b1, np.array([b0, b0 - params.a_coef**2]))
    inside = (lo <= roots) & (roots <= hi)
    roots = np.where(inside, roots, np.nan)
    found = inside.reshape(4, -1).any(axis=1).tolist()
    b_zeros, s_zeros = (
        tuple(_per_energy(roots[i, k]) for i in range(2) if found[2 * i + k]) for k in range(2)
    )
    return WkbRegionMap(b_zeros=b_zeros, s_zeros=s_zeros)


def _quadratic_roots(c2: float, c1: float, c0) -> np.ndarray:
    """Real roots of c2 x^2 + c1 x + c0, ascending, from the cancellation-free formula.

    c0 is a float or an array (one per energy); the result has shape
    (2,) + shape(c0).  A root that does not exist is NaN: both where the
    roots are complex (or c2 = c1 = 0), the second where c2 = 0 or the root
    is double.
    """
    c0 = np.asarray(c0, dtype=float)
    # quietly NaN where a root does not exist and inf where one overflows, as the float formula
    with np.errstate(all="ignore"):
        if c2 == 0.0:
            nan = np.full(c0.shape, np.nan)
            return np.array([-c0 / c1 if c1 != 0.0 else nan, nan])
        disc = c1 * c1 - 4.0 * c2 * c0
        q = -0.5 * (c1 + np.copysign(np.sqrt(disc), c1))
        pair = q / c2, c0 / q
    two = disc > 0.0
    # q / c2 is the double root -c1 / (2 c2) where disc = 0, and NaN where disc < 0
    return np.array([np.where(two, np.minimum(*pair), pair[0]), np.where(two, np.maximum(*pair), np.nan)])


def _piece_table(
    params: WkbParameters, interval: tuple[float, float], region_map: WkbRegionMap | None
) -> ExponentTable:
    """The exponent table of ``interval``; errors if a zero of a^2 - b lies inside.

    For a batch the interval ends may be arrays, one entry per energy.
    """
    lo, hi = interval
    if region_map is None:
        region_map = map_regions(params, lo, hi)

    def inside(zeros) -> list:
        """(zero, mask of the energies where it lies inside, their count) of the zeros inside at some energy."""
        masks = ((z, (lo < z) & (z < hi)) for z in zeros)
        return [(z, m, n) for z, m in masks if (n := np.count_nonzero(m))]

    s_inside = inside(region_map.s_zeros)
    if s_inside:
        first = math.nan  # the first zero of a^2 - b inside (of each energy)
        for z, m, _ in reversed(s_inside):
            first = np.where(m, z, first)
        raise_where(
            ~np.isnan(first),
            lambda z, a, b: ValidityError(
                f"turning point of the branch pair (a^2 - b = 0) at x={float(z):.6g} "
                f"inside requested interval ({a}, {b})"
            ),
            first,
            lo,
            hi,
        )
    b_zeros = [z if n == np.size(m) else np.where(m, z, np.nan) for z, m, n in inside(region_map.b_zeros)]
    return ExponentTable(params, (_per_energy(lo), _per_energy(hi)), b_zeros)


def wkb_branches(
    params: WkbParameters,
    interval: tuple[float, float],
    region_map: WkbRegionMap | None = None,
    even: bool = False,
) -> WkbSet:
    """Branches 1..4 on ``interval``, all reading one exponent table, or with ``even`` their even continuations."""
    return WkbSet(_piece_table(params, interval, region_map), even)


# --- asymptotic classification -------------------------------------------------


def classify_asymptotics(basis: WkbSet, side: Side) -> tuple[AsymptoticClass, ...]:
    """The classes of the four branches of a WKB set toward ``side``: its branch labels.

    Past the last zero of a^2 - b, s = sqrt(a^2 - b) is imaginary, so
    a +- s has the real part a > 0 and Re(lam_j) keeps the sign tau_j to
    infinity: branch j grows toward the side where tau_j has the outward
    sign, at every energy (``_FAR_CLASSES``).  A decay row reads the class
    of branch j continued under its label, and no root or exponent is
    formed.  The even continuations take the classes toward +inf for both
    sides, the mirror piece being the image of the piece.
    """
    return _FAR_CLASSES[Side.PLUS_INFINITY if basis.even else side]
