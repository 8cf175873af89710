"""Independent verification via direct integration of the first-order system.

The fourth-order equation is rewritten as Phi' = A(x) Phi with

    Phi = (phi, phi', phi'', phi'''),
    A(x) rows: three shift rows and [ (e - v(x))/eps, 0, 1/eps, 0 ].

trace A = 0, so the Wronskian of any fundamental system is constant (Abel);
that analytic fact is the oracle against which integrated trajectories are
checked.  ``integrate`` marches a state or a frame of states outward from its
launch point; the Wronskian is the determinant of the marched identity frame.
A standard (second-order, beta = 0) mode serves the classical-limit
contrast: ``integrate`` selects it from a 2-row initial state or frame
(phi, phi'), ``growth_exponents`` from ``standard=True`` or epsilon = 0.

Every potential is a polynomial of degree <= 2, so the propagators are
Taylor series whose coefficients obey an exact recurrence (``_scaled_steps``):
numpy only, with no step control and no scipy.  The series' tail bound is
the integrations' rtol and atol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._scipy import lazy
from .basis import WkbParameters, map_regions, wkb_branches
from .core import DimensionlessProblem, Linear, PhysicalSetup, nondimensionalize
from .errors import NumericalError, PreconditionError, WrongPotentialError
from .panels import panel_integrals

# unused here: perfbench/tracer.py patches oracle.quad and oracle.solve_ivp until ROADMAP item 1 replaces it
quad = lazy("integrate", "quad")
solve_ivp = lazy("integrate", "solve_ivp")

DEFAULT_RTOL = 1e-11
DEFAULT_ATOL = 1e-13
# Accepted oracle rtol.  Below 1e-13 a tighter series tail buys nothing: the
# roundoff of the chained step products already exceeds it (verify's oracle
# checks read the same at every rtol from 1e-11 down).
MIN_RTOL, MAX_RTOL = 1e-13, 1e-6


def companion_rhs(problem: DimensionlessProblem, energy: float) -> Callable:
    """Phi' = A(x) Phi for one state (shape (4,)) or a flattened frame of k states.

    A frame is the (4, k) matrix whose columns are states, flattened row by
    row; each component row is computed for all k columns at once.  The
    propagators sum Taylor series instead; this is the system for a generic
    solver, such as the DOP853 references of the tests.
    """
    eps = problem.epsilon
    if eps <= 0.0:
        raise PreconditionError("companion system requires epsilon > 0; use standard_rhs")
    v_derivs = problem.v_derivs

    def rhs(x, y):
        v = v_derivs(x)[0]
        m = y.reshape(4, -1)
        out = np.empty_like(m)
        out[:3] = m[1:]
        out[3] = (energy - v) / eps * m[0] + m[2] / eps
        return out.reshape(y.shape)

    return rhs


def standard_rhs(problem: DimensionlessProblem, energy: float) -> Callable:
    """phi'' = (v - e) phi, the beta = 0 second-order companion; y as in companion_rhs, 2 rows."""
    v_derivs = problem.v_derivs

    def rhs(x, y):
        v = v_derivs(x)[0]
        m = y.reshape(2, -1)
        out = np.empty_like(m)
        out[0] = m[1]
        out[1] = (v - energy) * m[0]
        return out.reshape(y.shape)

    return rhs


# --- propagators and integration -----------------------------------------------

_MAX_TERMS = 80  # series cap; with h rho <= 1 the tail rule ends it near 20 terms


def _potential_taylor(problem: DimensionlessProblem, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """v0, v1, v2 of v(x + t) = v0 + v1 t + v2 t^2 at each x, each of the shape of x.

    The recurrence is exact only for a polynomial of degree <= 2, so any
    nonzero v''' or v'''' is refused.
    """
    d = problem.v_derivs(x)
    if np.any(d[3]) or np.any(d[4]):
        raise PreconditionError("the oracle's Taylor recurrence needs v''' = v'''' = 0 (degree <= 2)")
    zero = np.zeros(x.shape)
    return d[0] + zero, d[1] + zero, 0.5 * d[2] + zero


def _max_rate(problem: DimensionlessProblem, energy: float, dim: int, x: np.ndarray) -> np.ndarray:
    """Largest |lambda| of the frozen-coefficient system at each x.

    Fourth order: eps lambda^4 - lambda^2 - (e - v) = 0, whose largest
    |lambda^2| is |1 + sqrt(1 + 4 eps (e - v))| / (2 eps); standard mode:
    lambda^2 = v - e.
    """
    w = energy - _potential_taylor(problem, x)[0]
    if dim == 2:
        return np.sqrt(np.abs(w))
    eps = problem.epsilon
    return np.sqrt(np.abs(1.0 + np.sqrt(1.0 + 4.0 * eps * w + 0j)) / (2.0 * eps))


def _scaled_steps(
    problem: DimensionlessProblem, energy: float, dim: int, x0: np.ndarray, h: np.ndarray,
    rtol: float, atol: float,
) -> np.ndarray:
    """Propagators over [x0, x0 + h] of the scaled state s_m = h^m phi^(m), shape (S, dim, dim).

    The Taylor coefficients c_n of a solution at x0, scaled as a_n = c_n h^n,
    obey (v2 = v''/2, (n+1)_k = (n+1) ... (n+k))

        eps (n+1)_4 a_{n+4} = h^2 (n+1)(n+2) a_{n+2} + h^4 [(e - v0) a_n - h v1 a_{n-1} - h^2 v2 a_{n-2}]
        (n+1)_2 a_{n+2} = h^2 [(v0 - e) a_n + h v1 a_{n-1} + h^2 v2 a_{n-2}]     (standard mode).

    Column k starts as s = e_k, i.e. a_j = delta_jk / k! for j < dim, and
    ends as s_m = sum_n n!/(n-m)! a_n.  All sub-steps and columns run at
    once.  The series stops once the last dim terms of every sub-step lie
    below rtol times its largest term plus atol.
    """
    v0, v1, v2 = _potential_taylor(problem, x0)
    if dim == 4:
        gain, scale = (h**2 / problem.epsilon)[:, None], -(h**4) / problem.epsilon
    else:
        gain, scale = 0.0, h**2
    k0, k1, k2 = (scale * (v0 - energy))[:, None], (scale * h * v1)[:, None], (scale * h**2 * v2)[:, None]
    # falling factorials n!/(n-m)!, zero for m > n
    falling = np.ones((_MAX_TERMS, dim))
    for m in range(1, dim):
        falling[:, m] = falling[:, m - 1] * (np.arange(_MAX_TERMS) - m + 1)
    a = np.zeros((_MAX_TERMS + 2, x0.size, dim))  # a[n + 2] holds a_n; a_-1 = a_-2 = 0
    for j in range(dim):
        a[j + 2, :, j] = 1.0 / math.factorial(j)
    # largest |term| of each coefficient (row m = dim - 1 weighs most); the identity's are 1
    size = np.ones((_MAX_TERMS, x0.size))
    largest = np.ones(x0.size)
    for n in range(dim, _MAX_TERMS):
        p = n - dim
        nxt = k0 * a[p + 2] + k1 * a[p + 1] + k2 * a[p]
        if dim == 4:
            nxt += gain * ((p + 1) * (p + 2)) * a[p + 4]
        a[n + 2] = nxt / math.prod(range(p + 1, n + 1))
        size[n] = np.abs(a[n + 2]).max(axis=1) * falling[n, -1]
        np.maximum(largest, size[n], out=largest)
        if np.all(size[n + 1 - dim : n + 1] <= rtol * largest + atol):
            return np.einsum("nm,nsk->smk", falling[: n + 1], a[2 : n + 3])
    raise NumericalError(f"Taylor series did not reach its tail bound within {_MAX_TERMS} terms")


def _propagators(
    problem: DimensionlessProblem, energy: float, dim: int, starts: np.ndarray, ends: np.ndarray,
    rtol: float, atol: float,
) -> np.ndarray:
    """Real propagators U_k of Phi' = A(x) Phi over [starts[k], ends[k]], shape (K, dim, dim).

    dim 4 is the fourth-order companion system, dim 2 the standard one.
    Each interval is cut into equal sub-steps h with |h| rho <= 1, rho the
    larger ``_max_rate`` of its two ends, so a sub-step grows by about e at
    most and its series sums without cancellation.  The sub-step
    propagators come from one ``_scaled_steps`` call.  They are chained by
    pairwise stacked products in the scaled state (every sub-step of an
    interval shares h), which is unscaled once: U = H^-1 S H with
    H = diag(h^m).  A zero-width interval is exactly the identity.
    """
    if dim == 4 and problem.epsilon <= 0.0:
        raise PreconditionError("the companion system requires epsilon > 0; use the standard mode")
    starts = np.asarray(starts, dtype=float).reshape(-1)
    widths = np.asarray(ends, dtype=float).reshape(-1) - starts
    rate = _max_rate(problem, energy, dim, np.concatenate([starts, starts + widths])).reshape(2, -1).max(axis=0)
    counts = np.maximum(1, np.ceil(np.abs(widths) * rate)).astype(int)
    h = widths / counts
    # (K, a power of two) slots, sub-step j of interval k in slot (k, j); the rest stay identities
    slots = 1 << (int(counts.max(initial=1)) - 1).bit_length()
    live = np.arange(slots) < counts[:, None]
    chain = np.empty(live.shape + (dim, dim))
    chain[:] = np.eye(dim)
    x0 = starts[:, None] + np.arange(slots) * h[:, None]
    chain[live] = _scaled_steps(problem, energy, dim, x0[live], np.repeat(h, counts), rtol, atol)
    while chain.shape[1] > 1:
        chain = chain[:, 1::2] @ chain[:, 0::2]  # later sub-steps on the left
    zero = widths == 0.0
    powers = np.arange(dim)
    out = chain[:, 0] * np.where(zero, 1.0, h)[:, None, None] ** (powers - powers[:, None])
    out[zero] = np.eye(dim)
    return out


def integrate(
    problem: DimensionlessProblem,
    energy: float,
    initial: Sequence[complex] | np.ndarray,
    x_from: float,
    xs: Sequence[float],
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> np.ndarray:
    """States (or frames) at the abscissas ``xs`` of the solutions launched at ``x_from``.

    ``initial`` is one state, shape (dim,), or a frame of states as columns,
    shape (dim, k); the result has shape ``initial.shape + (len(xs),)``.
    dim 4 (phi and three derivatives) selects the fourth-order companion
    system, dim 2 (phi, phi') the standard beta = 0 system.  The march runs
    outward from ``x_from`` on each side separately, visiting that side's
    abscissas in order of distance; the propagators U_k over consecutive
    points of both sides come from one ``_propagators`` call, and the state
    at the k-th point of a side is U_k ... U_1 @ initial.
    """
    if not (MIN_RTOL <= rtol <= MAX_RTOL):
        raise PreconditionError(f"rtol must lie in [{MIN_RTOL:g}, {MAX_RTOL:g}], got {rtol}")
    state = np.asarray(initial, dtype=complex)
    dim = state.shape[0] if state.ndim in (1, 2) else 0
    if dim not in (2, 4):
        raise PreconditionError(
            "initial must be a state or a frame of states as columns, with 4 rows (2 in standard mode)"
        )
    xs = np.asarray(xs, dtype=float).reshape(-1)
    order = np.argsort(np.abs(xs - x_from), kind="stable")
    sides = [order[xs[order] >= x_from], order[xs[order] < x_from]]
    grids = [np.concatenate(([x_from], xs[side])) for side in sides]
    steps = _propagators(
        problem, energy, dim, np.concatenate([g[:-1] for g in grids]),
        np.concatenate([g[1:] for g in grids]), rtol, atol,
    )
    out = np.empty(state.shape + (xs.size,), dtype=complex)
    for side, us in zip(sides, np.split(steps, [sides[0].size])):
        current = state
        for k, u in zip(side, us):
            current = u @ current
            out[..., k] = current
    return out


# --- Wronskian -----------------------------------------------------------------


def wronskian(problem: DimensionlessProblem, energy: float, x: float, anchor: float) -> complex:
    """det at x of the identity frame launched at the anchor (Abel: exactly 1)."""
    return complex(np.linalg.det(integrate(problem, energy, np.eye(4), anchor, [x])[..., 0]))


def wronskian_drift(
    problem: DimensionlessProblem,
    energy: float,
    xs: Sequence[float],
    anchor: float,
    rtol: float = DEFAULT_RTOL,
) -> float:
    """max |W(x) - 1| over xs of the identity frame launched at the anchor (constancy check)."""
    frames = integrate(problem, energy, np.eye(4), anchor, xs, rtol=rtol)
    return float(np.max(np.abs(np.linalg.det(np.moveaxis(frames, -1, 0)) - 1.0)))


# --- residuals -----------------------------------------------------------------


def _derivatives_of(evaluator, x, order: int) -> np.ndarray:
    if hasattr(evaluator, "derivatives"):
        return np.asarray(evaluator.derivatives(x, order=order), dtype=complex)
    return np.asarray(evaluator(x, order), dtype=complex)


RESIDUAL_SCALE_FLOOR = 1e-3


def residual(evaluator, problem: DimensionlessProblem, energy: float, grid: Sequence[float]) -> float:
    """max over grid of the scaled defect of eps*phi'''' - phi'' + (v - e)*phi.

    Each point's defect is divided by its own |eps phi''''| + |phi''| +
    |(v - e) phi|, but never by less than RESIDUAL_SCALE_FLOOR times the
    largest such sum on the grid: where the state and its derivatives all
    vanish (a wall, a node, the centre of an odd state) the terms are
    roundoff and the plain ratio reads O(1).  The evaluator supplies four
    derivatives (value + d1..d4) for the whole grid in one call, shape
    (5, len(grid)).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        return 0.0
    d = _derivatives_of(evaluator, grid, 4)
    t4 = problem.epsilon * d[4]
    t2 = d[2]
    t0 = (problem.v_derivs(grid)[0] - energy) * d[0]
    scales = np.abs(t4) + np.abs(t2) + np.abs(t0)
    floor = RESIDUAL_SCALE_FLOOR * scales.max() + 1e-300
    return float(np.max(np.abs(t4 - t2 + t0) / np.maximum(scales, floor)))


# --- decaying-subspace dimension -------------------------------------------------


def _wkb_frame_at(
    problem: DimensionlessProblem, energy: float, x_far: float, march_direction: float
) -> np.ndarray:
    """4x4 frame of WKB branch vectors at the launch point.

    Columns are ordered by decreasing growth rate in the march direction so
    the QR diagonal tracks the modal growths from the first checkpoint
    (an unordered frame spends the whole march in a column-reordering
    transient and its finite-span exponents come out mixed).
    """
    params = WkbParameters.from_problem(problem, energy, x0=x_far)
    lo, hi = x_far - 1.0, x_far + 1.0
    rmap = map_regions(params, lo, hi)
    # clip to the branch-validity piece containing the launch point
    for z in rmap.s_zeros:
        if z < x_far:
            lo = max(lo, z + 0.05)
        else:
            hi = min(hi, z - 0.05)
    if not (lo < x_far < hi):
        raise PreconditionError(
            f"launch point x={x_far} sits on a branch degeneracy; shift the far point"
        )
    branches = []
    for w in wkb_branches(params, (lo, hi), rmap):
        rate = (params.eta * w.lam(x_far)).real * march_direction
        branches.append((rate, w.derivatives(x_far, order=3)))
    branches.sort(key=lambda item: -item[0])
    return np.array([col for _, col in branches], dtype=complex).T


GROWTH_FLOOR = 0.5  # |growth exponent| below this is too close to zero to count
SEGMENT_GROWTH = 3.0  # largest rho * width of a march segment


def _march_points(
    problem: DimensionlessProblem, energy: float, dim: int, x_far: float, anchor: float, checkpoints: int
) -> np.ndarray:
    """Ends of equal march segments from x_far to the anchor.

    At least ``checkpoints`` segments, and enough that none grows by more
    than e^SEGMENT_GROWTH (rho * width, rho the larger ``_max_rate`` of the
    two ends).  Past that, the QR of a segment's image loses the decaying
    directions to roundoff, and Abel's sum of the exponents drifts from zero.
    """
    ends = np.array([x_far, anchor])
    rho = float(_max_rate(problem, energy, dim, ends).max())
    count = max(checkpoints, math.ceil(rho * abs(anchor - x_far) / SEGMENT_GROWTH))
    return np.linspace(x_far, anchor, count + 1)


def growth_exponents(
    problem: DimensionlessProblem,
    energy: float,
    side: str,
    x_far: float | None = None,
    anchor: float | None = None,
    standard: bool = False,
    checkpoints: int = 24,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> np.ndarray:
    """Log-growth of each direction of a frame marched from the far field to the anchor.

    The march runs backwards from the far point toward ``side`` to the
    interior anchor over equal segments, at least ``checkpoints`` of them
    and more where one would grow by more than e^SEGMENT_GROWTH
    (``_march_points``).  The segment propagators U_k come from one
    ``_propagators`` call;
    the frame is then re-orthonormalized segment by segment, q, r =
    qr(U_k @ q), and the log |diag r| accumulate.  Directions that grow
    toward the interior are exactly those bounded (decaying) toward the
    side.  Launch data are WKB branch vectors, which keeps the initial frame
    well conditioned.  Returns dim exponents (4, or 2 in standard mode).
    """
    if side not in ("+inf", "-inf"):
        raise PreconditionError(f"side must be '+inf' or '-inf', got {side!r}")
    sgn = 1.0 if side == "+inf" else -1.0
    lo, hi = problem.domain
    if side == "+inf" and not math.isinf(hi):
        raise PreconditionError("domain is bounded toward +inf; no far field there")
    if side == "-inf" and not math.isinf(lo):
        raise PreconditionError("domain is bounded toward -inf; no far field there")

    if x_far is None:
        x_far = sgn * _auto_far_point(problem, energy, sgn)
    if anchor is None:
        anchor = _auto_anchor(problem, energy, sgn, x_far)
    w_launch = problem.v_derivs(x_far)[0] - energy
    if w_launch < 1.0:
        raise PreconditionError(
            f"launch point x={x_far} not in the forbidden region (v - e = {w_launch:.3g} < 1)"
        )

    march_direction = math.copysign(1.0, anchor - x_far)
    if standard or problem.epsilon == 0.0:
        r = math.sqrt(w_launch)
        frame = np.array([[1.0, 1.0], [-sgn * r, sgn * r]], dtype=complex)
        dim = 2
    else:
        frame = _wkb_frame_at(problem, energy, x_far, march_direction)
        dim = 4

    xs = _march_points(problem, energy, dim, x_far, anchor, checkpoints)
    segments = _propagators(problem, energy, dim, xs[:-1], xs[1:], rtol, atol)
    # initial QR so the accumulated R diagonals measure growth only
    q, _ = np.linalg.qr(frame)
    growth = np.zeros(dim)
    for u in segments:
        q, r = np.linalg.qr(u @ q)
        growth += np.log(np.abs(np.diag(r)))
    return growth


def bounded_dimension(growth: np.ndarray) -> int:
    """Number of exponents that grow toward the interior (bounded toward the side)."""
    if np.any(np.abs(growth) < GROWTH_FLOOR):
        raise NumericalError(
            f"growth exponents {growth} too close to zero to count reliably; "
            "increase the march span"
        )
    return int(np.sum(growth > 0.0))


def decaying_subspace_dimension(problem: DimensionlessProblem, energy: float, side: str, **march) -> int:
    """Dimension of the solution subspace bounded toward ``side``.

    Counts the positive ``growth_exponents`` (keyword arguments go to the
    march); raises ``NumericalError`` when an exponent lies within
    GROWTH_FLOOR of zero.
    """
    return bounded_dimension(growth_exponents(problem, energy, side, **march))


def _auto_far_point(problem: DimensionlessProblem, energy: float, sgn: float) -> float:
    x = 1.0
    for _ in range(200):
        if problem.v_derivs(sgn * x)[0] - energy >= 2.0:
            return x + 1.0
        x *= 1.3
    raise PreconditionError("could not locate a forbidden-region far point")


def _auto_anchor(problem: DimensionlessProblem, energy: float, sgn: float, x_far: float) -> float:
    # walk inward until v - e drops below 1 (near the turning point) or span caps
    xs = np.linspace(abs(x_far), 0.0, 400)
    for x in xs:
        if problem.v_derivs(sgn * x)[0] - energy < 1.0:
            return sgn * min(x + 0.2, abs(x_far))
    return 0.0 if problem.kind != "linear" else min(1.0, abs(x_far) / 2)


# --- momentum representation (linear potential) ----------------------------------


@dataclass(frozen=True)
class MomentumSolution:
    """Closed-form momentum-space solution for the linear potential.

    In scaled momentum pt = p / p_c the first-order equation reads

        i * gamma * (1 + bt * pt^2) * C'(pt) + (pt^2 - e) * C(pt) = 0,

    with bt = beta * p_c^2 and gamma = hbar * L / (E_c * p_c) (gamma = 1 in the
    canonical bouncer scaling).  Separation gives C = C0 * exp(i g(pt) / gamma),

        g(pt) = pt/bt - (1/bt + e) * arctan(sqrt(bt) pt)/sqrt(bt)     (bt > 0)
        g(pt) = pt^3/3 - e*pt                                         (bt = 0).

    Its solution space is one-dimensional, versus the four-dimensional
    position-space fundamental system.
    """

    c0: complex
    beta_tilde: float
    gamma: float
    e_tilde: float
    momentum_scale: float
    dimension: int = 1

    def phase(self, pt):
        """g(pt) / gamma; pt may be a float or an array."""
        bt, e = self.beta_tilde, self.e_tilde
        if bt == 0.0:
            g = pt**3 / 3.0 - e * pt
        else:
            rb = math.sqrt(bt)
            g = pt / bt - (1.0 / bt + e) * np.arctan(rb * pt) / rb
        return g / self.gamma

    def phase_derivative(self, pt):
        return (pt**2 - self.e_tilde) / (self.gamma * (1.0 + self.beta_tilde * pt**2))

    def __call__(self, pt):
        return self.c0 * np.exp(1j * self.phase(pt))

    def derivative(self, pt):
        return self(pt) * 1j * self.phase_derivative(pt)

    def ode_residual(self, pt, derivative=None):
        """Scaled defect of the first-order equation at pt (a float or an array)."""
        c = self(pt)
        dc = self.derivative(pt) if derivative is None else derivative
        t1 = 1j * self.gamma * (1.0 + self.beta_tilde * pt**2) * dc
        t2 = (pt**2 - self.e_tilde) * c
        return np.abs(t1 + t2) / (np.abs(t1) + np.abs(t2) + 1e-300)

    def phase_quadrature_check(self, pts: Sequence[float]) -> float:
        """max |g(pt) - g(p0) - int g'| over pts: verifies the antiderivative.

        The integrals of g' over the gaps between consecutive pts come from
        one ``panel_integrals`` call (epsabs = epsrel = 1e-13).
        """
        pts = np.sort(np.asarray(pts, dtype=float))
        gaps = panel_integrals(
            lambda t, width, _: self.phase_derivative(t) * width, pts[:-1], pts[1:], 1e-13
        ).real
        g = self.phase(pts[1:])
        diff = np.abs(g - self.phase(pts[0]) - np.cumsum(gaps))
        return float(np.max(diff / np.maximum(1.0, np.abs(g)), initial=0.0))


def momentum_rep_linear(setup: PhysicalSetup, energy_si: float, c0: complex = 1.0) -> MomentumSolution:
    """Momentum-representation solution for V = L x (canonical bouncer scaling)."""
    if not isinstance(setup.potential, Linear):
        raise WrongPotentialError("momentum representation implemented for the linear potential")
    problem = nondimensionalize(setup)
    p_c = problem.momentum_scale
    beta_tilde = setup.beta * p_c**2
    gamma = setup.hbar * setup.potential.slope / (problem.energy_scale * p_c)
    return MomentumSolution(
        c0=complex(c0),
        beta_tilde=beta_tilde,
        gamma=gamma,
        e_tilde=problem.energy_from_si(energy_si),
        momentum_scale=p_c,
    )
