"""Independent verification via direct integration of the first-order system.

The fourth-order equation is rewritten as Phi' = A(x) Phi with

    Phi = (phi, phi', phi'', phi'''),
    A(x) rows: three shift rows and [ (e - v(x))/eps, 0, 1/eps, 0 ].

trace A = 0, so the Wronskian of any fundamental system is constant (Abel);
that analytic fact is the oracle against which integrated trajectories are
checked.  A standard (second-order, beta = 0) mode is provided for the
classical-limit contrast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._scipy import lazy
from .basis import WkbParameters, map_regions, wkb_branches
from .core import DimensionlessProblem, Linear, PhysicalSetup, nondimensionalize
from .errors import NumericalError, PreconditionError, WrongPotentialError

# lazy module attributes for perfbench/tracer.py to patch; they go with ROADMAP item 1
quad = lazy("integrate", "quad")
solve_ivp = lazy("integrate", "solve_ivp")

BLOWUP_LIMIT = 1e300
DEFAULT_RTOL = 1e-11
DEFAULT_ATOL = 1e-13
# Accepted oracle rtol.  scipy clamps DOP853's rtol below 100 * machine eps
# (2.22e-14) with a warning; the Wronskian batch of 8 intervals divides rtol
# by sqrt(8) (_propagators), so 1e-13 is the first round value nothing clamps.
MIN_RTOL, MAX_RTOL = 1e-13, 1e-6


@dataclass(frozen=True)
class StateVector:
    """phi and its first three derivatives at a point."""

    phi: complex
    d1: complex
    d2: complex
    d3: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.phi, self.d1, self.d2, self.d3], dtype=complex)

    @classmethod
    def from_array(cls, arr: Sequence[complex]) -> "StateVector":
        if len(arr) != 4:
            raise ValueError(f"state vector needs 4 components, got {len(arr)}")
        a = np.asarray(arr, dtype=complex)
        if not np.all(np.isfinite(a.view(float))):
            raise ValueError("state vector components must be finite")
        return cls(*map(complex, a))


@dataclass(frozen=True)
class Trajectory:
    """Dense-output trajectory of the companion system."""

    x_from: float
    x_to: float
    grid: np.ndarray
    states: np.ndarray  # shape (n, dim)
    reported_tolerance: float
    dense: Callable[[float], np.ndarray] = field(repr=False)
    blown_up: bool = False
    last_valid_x: float | None = None

    def state_at(self, x: float) -> np.ndarray:
        return self.dense(x)

    def phi_at(self, x: float) -> complex:
        return complex(self.dense(x)[0])


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


def _integrate_system(
    rhs: Callable,
    initial: np.ndarray,
    x_from: float,
    x_to: float,
    rtol: float,
    atol: float,
    n_grid: int,
) -> Trajectory:
    y0 = np.asarray(initial, dtype=complex)

    def blowup_event(x, y):
        return float(np.max(np.abs(y))) - BLOWUP_LIMIT

    blowup_event.terminal = True
    blowup_event.direction = 1.0

    sol = solve_ivp(
        rhs,
        (x_from, x_to),
        y0,
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=blowup_event,
    )
    blown = bool(sol.t_events and len(sol.t_events[0]) > 0)
    if not sol.success and not blown:
        raise NumericalError(f"integration failed: {sol.message}")
    grid = np.linspace(x_from, sol.t[-1], n_grid)
    states = sol.sol(grid).T
    return Trajectory(
        x_from=x_from,
        x_to=x_to,
        grid=grid,
        states=states,
        reported_tolerance=rtol,
        dense=lambda x: sol.sol(x),
        blown_up=blown,
        last_valid_x=float(sol.t[-1]) if blown else None,
    )


def integrate(
    problem: DimensionlessProblem,
    energy: float,
    initial: StateVector | Sequence[complex],
    x_from: float,
    x_to: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    n_grid: int = 200,
) -> Trajectory:
    """Adaptive high-order integration of the fourth-order companion system.

    A blow-up (|Phi| beyond 1e300, expected for growing modes) terminates the
    trajectory and is reported via ``blown_up``/``last_valid_x``, not raised.
    """
    if not (MIN_RTOL <= rtol <= MAX_RTOL):
        raise PreconditionError(f"rtol must lie in [{MIN_RTOL:g}, {MAX_RTOL:g}], got {rtol}")
    init = initial.as_array() if isinstance(initial, StateVector) else np.asarray(initial, dtype=complex)
    if init.shape != (4,):
        raise PreconditionError("initial state must have 4 components")
    return _integrate_system(companion_rhs(problem, energy), init, x_from, x_to, rtol, atol, n_grid)


def integrate_standard(
    problem: DimensionlessProblem,
    energy: float,
    initial: Sequence[complex],
    x_from: float,
    x_to: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    n_grid: int = 200,
) -> Trajectory:
    """Second-order (beta = 0) integration; state is (phi, phi')."""
    init = np.asarray(initial, dtype=complex)
    if init.shape != (2,):
        raise PreconditionError("standard-mode initial state must have 2 components")
    return _integrate_system(standard_rhs(problem, energy), init, x_from, x_to, rtol, atol, n_grid)


# --- Wronskian -----------------------------------------------------------------


def _propagators(
    rhs: Callable, dim: int, starts: np.ndarray, ends: np.ndarray, rtol: float, atol: float
) -> np.ndarray:
    """Real propagators U_k of Phi' = A(x) Phi over [starts[k], ends[k]], shape (K, dim, dim).

    Each interval maps to s in [0, 1], dPhi/ds = (end - start) A(start + s (end - start)) Phi,
    so the K identity frames integrate as one real system (one ``solve_ivp``
    call, shared step control).  scipy's error norm is an RMS over all
    components, so rtol and atol are divided by sqrt(K): each interval's own
    RMS error then stays within the caller's tolerance.
    """
    starts = np.asarray(starts, dtype=float)
    widths = np.asarray(ends, dtype=float) - starts
    k = starts.size
    col_starts, col_widths = np.repeat(starts, dim), np.repeat(widths, dim)

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
    return sol.y[:, -1].reshape(dim, k, dim).transpose(1, 0, 2)


def fundamental_frame(
    problem: DimensionlessProblem,
    energy: float,
    anchor: float,
    initials: np.ndarray | None = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
):
    """Propagate a 4x4 frame (columns = solutions) from the anchor.

    Returns a callable x -> 4x4 matrix; for an array of abscissas it returns
    the stack of their frames.  Each call integrates the propagators
    U(anchor -> x) of all abscissas other than the anchor in one batch
    (``_propagators``) and returns U @ initials.
    """
    if initials is None:
        initials = np.eye(4, dtype=complex)
    initials = np.asarray(initials, dtype=complex)
    if initials.shape != (4, 4):
        raise PreconditionError("frame initials must be a 4x4 matrix (columns = states)")
    rhs = companion_rhs(problem, energy)

    def frame_at(x) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        flat = xs.reshape(-1)
        out = np.empty((flat.size, 4, 4), dtype=complex)
        out[:] = initials
        away = flat != anchor
        if away.any():
            ends = flat[away]
            out[away] = _propagators(rhs, 4, np.full(ends.size, anchor), ends, rtol, atol) @ initials
        return out.reshape(xs.shape + (4, 4))

    return frame_at


def wronskian(
    problem: DimensionlessProblem,
    energy: float,
    x: float,
    anchor: float | None = None,
    initials: np.ndarray | None = None,
    frame=None,
) -> complex:
    """det of the stacked state vectors at x (4 independent launches)."""
    if initials is not None and np.asarray(initials).shape[1] < 4:
        raise PreconditionError("wronskian needs 4 trajectories")
    if frame is None:
        if anchor is None:
            anchor = x
        frame = fundamental_frame(problem, energy, anchor, initials)
    return complex(np.linalg.det(frame(x)))


def wronskian_drift(
    problem: DimensionlessProblem,
    energy: float,
    xs: Sequence[float],
    anchor: float,
    initials: np.ndarray | None = None,
    rtol: float = DEFAULT_RTOL,
) -> float:
    """max |W(x) - W(anchor)| / |W(anchor)| over xs (constancy check)."""
    frame = fundamental_frame(problem, energy, anchor, initials, rtol=rtol)
    w0 = complex(np.linalg.det(frame(anchor)))
    if w0 == 0:
        raise PreconditionError("anchor frame is singular")
    return float(np.max(np.abs(np.linalg.det(frame(xs)) - w0)) / abs(w0))


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
