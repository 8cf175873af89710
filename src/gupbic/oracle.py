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

# lazy module attributes for perfbench/tracer.py to patch; they go with ROADMAP item 1
quad = lazy("integrate", "quad")
solve_ivp = lazy("integrate", "solve_ivp")

DEFAULT_RTOL = 1e-11
DEFAULT_ATOL = 1e-13
# scipy clamps DOP853's rtol below 100 * machine eps (2.22e-14) with a warning
_RTOL_FLOOR = 100 * np.finfo(float).eps
# Accepted oracle rtol: 1e-13 is the first round value above _RTOL_FLOOR, and
# _propagators batches its intervals so that no split rtol falls below it.
MIN_RTOL, MAX_RTOL = 1e-13, 1e-6


def companion_rhs(problem: DimensionlessProblem, energy: float) -> Callable:
    """Phi' = A(x) Phi for one state (shape (4,)) or a flattened frame of k states.

    A frame is the (4, k) matrix whose columns are states, flattened row by
    row; each component row is computed for all k columns at once.
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


def _propagators(
    rhs: Callable, dim: int, starts: np.ndarray, ends: np.ndarray, rtol: float, atol: float
) -> np.ndarray:
    """Real propagators U_k of Phi' = A(x) Phi over [starts[k], ends[k]], shape (K, dim, dim).

    Each interval maps to s in [0, 1], dPhi/ds = (end - start) A(start + s (end - start)) Phi,
    so a batch of K identity frames integrates as one real system (one
    ``solve_ivp`` call, shared step control).  scipy's error norm is an RMS
    over all components, so rtol and atol are divided by sqrt(K): each
    interval's own RMS error then stays within the caller's tolerance.
    scipy clamps an rtol below _RTOL_FLOOR, so a batch holds at most
    (rtol / _RTOL_FLOOR)^2 intervals and longer lists take several calls.
    """
    starts = np.asarray(starts, dtype=float)
    widths = np.asarray(ends, dtype=float) - starts
    batch = max(1, int((rtol / _RTOL_FLOOR) ** 2))
    out = np.empty((starts.size, dim, dim))
    for i in range(0, starts.size, batch):
        k = min(batch, starts.size - i)
        col_starts = np.repeat(starts[i : i + k], dim)
        col_widths = np.repeat(widths[i : i + k], dim)

        def scaled(s, y):
            return (rhs(col_starts + s * col_widths, y).reshape(dim, -1) * col_widths).reshape(-1)

        split = math.sqrt(k)
        sol = solve_ivp(
            scaled,
            (0.0, 1.0),
            np.tile(np.eye(dim), k).reshape(-1),
            method="DOP853",
            rtol=rtol / split,
            atol=atol / split,
        )
        if not sol.success:
            raise NumericalError(f"propagator integration failed: {sol.message}")
        out[i : i + k] = sol.y[:, -1].reshape(dim, k, dim).transpose(1, 0, 2)
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
    if dim == 4:
        rhs = companion_rhs(problem, energy)
    elif dim == 2:
        rhs = standard_rhs(problem, energy)
    else:
        raise PreconditionError(
            "initial must be a state or a frame of states as columns, with 4 rows (2 in standard mode)"
        )
    xs = np.asarray(xs, dtype=float).reshape(-1)
    order = np.argsort(np.abs(xs - x_from), kind="stable")
    sides = [order[xs[order] >= x_from], order[xs[order] < x_from]]
    grids = [np.concatenate(([x_from], xs[side])) for side in sides]
    steps = _propagators(
        rhs, dim, np.concatenate([g[:-1] for g in grids]),
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
    interior anchor over ``checkpoints`` equal segments.  The segment
    propagators U_k come from one batched integration (``_propagators``);
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
        wloc = problem.v_derivs(x_far)[0] - energy
        r = math.sqrt(wloc)
        frame = np.array([[1.0, 1.0], [-sgn * r, sgn * r]], dtype=complex)
        rhs = standard_rhs(problem, energy)
        dim = 2
    else:
        frame = _wkb_frame_at(problem, energy, x_far, march_direction)
        rhs = companion_rhs(problem, energy)
        dim = 4

    xs = np.linspace(x_far, anchor, checkpoints + 1)
    segments = _propagators(rhs, dim, xs[:-1], xs[1:], rtol, atol)
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

    def phase(self, pt: float) -> float:
        bt, e = self.beta_tilde, self.e_tilde
        if bt == 0.0:
            g = pt**3 / 3.0 - e * pt
        else:
            rb = math.sqrt(bt)
            g = pt / bt - (1.0 / bt + e) * math.atan(rb * pt) / rb
        return g / self.gamma

    def phase_derivative(self, pt: float) -> float:
        return (pt**2 - self.e_tilde) / (self.gamma * (1.0 + self.beta_tilde * pt**2))

    def __call__(self, pt: float) -> complex:
        return self.c0 * complex(np.exp(1j * self.phase(pt)))

    def derivative(self, pt: float) -> complex:
        return self(pt) * 1j * self.phase_derivative(pt)

    def ode_residual(self, pt: float, derivative: complex | None = None) -> float:
        """Scaled defect of the first-order equation at pt."""
        c = self(pt)
        dc = self.derivative(pt) if derivative is None else derivative
        t1 = 1j * self.gamma * (1.0 + self.beta_tilde * pt**2) * dc
        t2 = (pt**2 - self.e_tilde) * c
        return abs(t1 + t2) / (abs(t1) + abs(t2) + 1e-300)

    def phase_quadrature_check(self, pts: Sequence[float]) -> float:
        """max |g(pt) - g(p0) - int g'| over pts: verifies the antiderivative."""
        pts = sorted(pts)
        worst = 0.0
        base = self.phase(pts[0])
        acc = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            acc += quad(self.phase_derivative, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            diff = abs(self.phase(b) - base - acc)
            scale = max(1.0, abs(self.phase(b)))
            worst = max(worst, diff / scale)
        return worst


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
