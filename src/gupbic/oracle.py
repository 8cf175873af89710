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
(phi, phi'), ``growth_exponents_many`` from ``standard=True`` or epsilon = 0.
Far-field marches launch from ``launch_frame``, the eigenvectors of the
frozen-coefficient system at the far point, so the oracle reads nothing of
the closed-form and WKB bases it checks.

Every potential is a polynomial of degree <= 2, so the propagators are
Taylor series whose coefficients obey an exact recurrence (``_scaled_steps``):
numpy only, with no step control and no scipy.  The series' tail bound is
the integrations' rtol and atol.

Queries come in batches: ``integrate_many``, ``wronskian_drifts`` and
``growth_exponents_many`` serve many (problem, energy, ...) requests of one
system at once.  ``_propagators`` sums the sub-steps of every request in one
recurrence, ``integrate_many`` chains them with one stacked prefix-product
scan, and the decay marches re-orthonormalize with one stacked QR per segment
step.  ``integrate`` is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._scipy import lazy
from .core import (
    DEFAULT_RTOL,
    MAX_RTOL,
    MIN_RTOL,
    DimensionlessProblem,
    Linear,
    PhysicalSetup,
    nondimensionalize,
)
from .errors import NumericalError, PreconditionError, WrongPotentialError
from .panels import panel_integrals

# unused here: perfbench/tracer.py patches oracle.quad and oracle.solve_ivp until ROADMAP item 1 replaces it
quad = lazy("integrate", "quad")
solve_ivp = lazy("integrate", "solve_ivp")

DEFAULT_ATOL = 1e-13


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
MAX_SUB_STEPS = 2**17  # most sub-steps of one _propagators call, each 26-52 x 4 doubles of series


def _potential_taylor(problem: DimensionlessProblem, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """v0, v1, v2 of v(x + t) = v0 + v1 t + v2 t^2 at each x, each of the shape of x.

    The recurrence is exact only for a polynomial of degree <= 2, so any
    nonzero v''' or v'''' is refused.
    """
    d = problem.v_derivs(x)
    if np.count_nonzero(d[3]) or np.count_nonzero(d[4]):
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
    eps: np.ndarray, w: np.ndarray, v1: np.ndarray, v2: np.ndarray, h: np.ndarray, dim: int,
    rtol: float, atol: float,
) -> np.ndarray:
    """Propagators over [x0, x0 + h] of the scaled state s_m = h^m phi^(m), shape (S, dim, dim).

    Every argument array holds one entry per sub-step: eps, w = v0 - e,
    v1 and v2 of v(x0 + t) = v0 + v1 t + v2 t^2, and h (eps is read in
    dim 4 only), so sub-steps of many problems and energies run together.
    The Taylor coefficients c_n of a solution at x0, scaled as a_n = c_n h^n,
    obey ((n+1)_k = (n+1) ... (n+k))

        eps (n+1)_4 a_{n+4} = h^2 (n+1)(n+2) a_{n+2} - h^4 [w a_n + h v1 a_{n-1} + h^2 v2 a_{n-2}]
        (n+1)_2 a_{n+2} = h^2 [w a_n + h v1 a_{n-1} + h^2 v2 a_{n-2}]     (standard mode).

    Column k starts as s = e_k, i.e. a_j = delta_jk / k! for j < dim, and
    ends as s_m = sum_n n!/(n-m)! a_n.  All sub-steps and columns run at
    once.  The series stops once the last dim terms of every sub-step lie
    below rtol times its largest term plus atol.
    """
    if dim == 4:
        gain, scale = h**2 / eps, -(h**4) / eps
    else:
        gain, scale = 0.0, h**2
    # weights of a_{n-2} ... a_n (dim 4: ... a_{n+2}, a_{n+1} weighing 0) in the next coefficient
    weights = np.zeros((dim + 1, 1, h.size))
    weights[0, 0], weights[1, 0], weights[2, 0] = scale * h**2 * v2, scale * h * v1, scale * w
    # falling factorials n!/(n-m)!, zero for m > n
    falling = np.ones((_MAX_TERMS, dim))
    for m in range(1, dim):
        falling[:, m] = falling[:, m - 1] * (np.arange(_MAX_TERMS) - m + 1)
    # a[n + 2, k] holds a_n of column k for every sub-step (a_-1 = a_-2 = 0); sub-steps run along
    # the last axis, so every per-term operation runs over contiguous rows.  Room for 24 terms
    # first, doubled when the series runs longer.
    a = np.zeros((26, dim, h.size))
    for j in range(dim):
        a[j + 2, j] = 1.0 / math.factorial(j)
    # largest |term| of the last dim coefficients (row m = dim - 1 weighs most); the identity's are 1
    recent = np.ones((dim, h.size))
    largest = np.ones(h.size)
    for n in range(dim, _MAX_TERMS):
        p = n - dim
        if n + 2 == len(a):
            a = np.concatenate([a, np.empty_like(a)])
        if dim == 4:
            np.multiply(gain, (p + 1) * (p + 2), out=weights[4, 0])
        np.divide(np.add.reduce(weights * a[p : n + 1]), math.prod(range(p + 1, n + 1)), out=a[n + 2])
        size = np.multiply(np.maximum.reduce(np.abs(a[n + 2])), falling[n, -1], out=recent[n % dim])
        np.maximum(largest, size, out=largest)
        if (recent <= rtol * largest + atol).all():
            s = falling[: n + 1].T @ a[2 : n + 3].reshape(n + 1, -1)
            return s.reshape(dim, dim, h.size).transpose(2, 0, 1)
    raise NumericalError(f"Taylor series did not reach its tail bound within {_MAX_TERMS} terms")


def _propagators(
    requests: Sequence[tuple[DimensionlessProblem, float, Sequence[float], Sequence[float]]],
    dim: int, rtol: float, atol: float,
) -> list[np.ndarray]:
    """Real propagators of Phi' = A(x) Phi for each (problem, energy, starts, ends) request.

    Request r's entry has shape (K_r, dim, dim): U_k over [starts[k],
    ends[k]] of its problem at its energy.  dim 4 is the fourth-order
    companion system, dim 2 the standard one.  Each interval is cut into
    equal sub-steps h with |h| rho <= 1, rho the larger ``_max_rate`` of
    its two ends, so a sub-step grows by about e at most and its series
    sums without cancellation.  The sub-step propagators of every request
    come from one ``_scaled_steps`` call.  Intervals are grouped by their
    sub-step count rounded up to a power of two, so a long interval pads
    only its own group; within a group they are chained by pairwise
    stacked products in the scaled state (every sub-step of an interval
    shares h), which is unscaled once: U = H^-1 S H with H = diag(h^m).
    A zero-width interval is exactly the identity.  More than
    ``MAX_SUB_STEPS`` sub-steps over all requests raise a PreconditionError
    before any is allocated.
    """
    if not requests:
        return []
    sizes, widths, counts, coeffs = [], [], [], []
    total = 0.0
    for problem, energy, starts, ends in requests:
        if dim == 4 and problem.epsilon <= 0.0:
            raise PreconditionError("the companion system requires epsilon > 0; use the standard mode")
        starts = np.asarray(starts, dtype=float).reshape(-1)
        width = np.asarray(ends, dtype=float).reshape(-1) - starts
        rate = _max_rate(problem, energy, dim, np.concatenate([starts, starts + width])).reshape(2, -1).max(axis=0)
        count = np.maximum(1.0, np.ceil(np.abs(width) * rate))
        total += count.sum()
        if not total <= MAX_SUB_STEPS:  # a NaN count fails too
            raise PreconditionError(
                f"the oracle's intervals need {total:.4g} sub-steps (|h| rho <= 1), "
                f"above its cap of {MAX_SUB_STEPS}: the system is too stiff over this range"
            )
        count = count.astype(int)
        h = np.repeat(width / count, count)
        j = np.arange(h.size) - np.repeat(np.cumsum(count) - count, count)  # sub-step j of its interval
        v0, v1, v2 = _potential_taylor(problem, np.repeat(starts, count) + j * h)
        coeffs.append((np.full(h.size, problem.epsilon), v0 - energy, v1, v2, h))
        sizes.append(starts.size)
        widths.append(width)
        counts.append(count)
    steps = _scaled_steps(*(np.concatenate(c) for c in zip(*coeffs)), dim, rtol, atol)
    steps = np.concatenate([steps, np.eye(dim)[None]])  # the last entry pads the chains
    widths, counts = np.concatenate(widths), np.concatenate(counts)
    first = np.cumsum(counts) - counts
    doublings = np.ceil(np.log2(counts)).astype(int)  # a chain of 2^d slots holds the sub-steps
    out = np.empty((counts.size, dim, dim))
    for d in np.flatnonzero(np.bincount(doublings)):
        group = np.flatnonzero(doublings == d)
        width = 1 << int(d)
        index = first[group, None] + np.arange(width)
        chain = steps[np.where(np.arange(width) < counts[group, None], index, -1)]
        while chain.shape[1] > 1:
            chain = chain[:, 1::2] @ chain[:, 0::2]  # later sub-steps on the left
        out[group] = chain[:, 0]
    # unscale, U[m, k] = S[m, k] h^(k - m), from one table of the powers h^-(dim-1) ... h^(dim-1)
    zero = widths == 0.0
    powers = np.arange(dim)
    h_powers = np.where(zero, 1.0, widths / counts)[:, None] ** np.arange(1 - dim, dim)
    out *= h_powers[:, powers - powers[:, None] + dim - 1]
    out[zero] = np.eye(dim)
    offsets = np.cumsum([0] + sizes)
    return [out[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def _prefix_products(runs: list[np.ndarray]) -> list[np.ndarray]:
    """Running products U_k ... U_1 over each run of propagators U_1, U_2, ... (a list like ``runs``).

    The runs are stacked, padded to the longest, and scanned together
    (Hillis-Steele): after the round of stride d each product covers the
    last 2d steps of its run, so log2 of the longest run's length rounds of
    stacked products finish every run.  Every run pays for the longest: a
    batch that mixes short runs with long ones multiplies the padding too.
    """
    if not runs:
        return []
    length = max(len(run) for run in runs)
    chain = np.zeros((len(runs), length) + runs[0].shape[1:])
    for row, run in zip(chain, runs):
        row[: len(run)] = run
    stride = 1
    while stride < length:
        chain[:, stride:] = chain[:, stride:] @ chain[:, :-stride]  # later steps on the left
        stride *= 2
    return [row[: len(run)] for row, run in zip(chain, runs)]


def integrate_many(
    requests: Sequence[tuple[DimensionlessProblem, float, Sequence[complex] | np.ndarray, float, Sequence[float]]],
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> list[np.ndarray]:
    """``integrate`` for each (problem, energy, initial, x_from, xs) request, in one batch.

    Every request's initial must have the same number of rows (one
    system); the propagators of all requests come from one
    ``_propagators`` call and are chained by one prefix-product scan.

    The scan pads every run to the longest (``_prefix_products``), so a
    batch gains only where its runs are of similar length.  ``verify``'s
    three calls (the Wronskian check's 9 short marches, the exact-well
    check's 3 runs of 201 points, the momentum check's one point) took
    2.8-3.1 ms of CPU; the same 13 requests in one call took 3.8-4.0 ms
    (2-vCPU Xeon VM, medians of 200 calls).
    """
    if not (MIN_RTOL <= rtol <= MAX_RTOL):
        raise PreconditionError(f"rtol must lie in [{MIN_RTOL:g}, {MAX_RTOL:g}], got {rtol}")
    if not requests:
        return []
    marches, intervals, dims = [], [], set()
    for problem, energy, initial, x_from, xs in requests:
        state = np.asarray(initial, dtype=complex)
        dim = state.shape[0] if state.ndim in (1, 2) else 0
        if dim not in (2, 4):
            raise PreconditionError(
                "initial must be a state or a frame of states as columns, with 4 rows (2 in standard mode)"
            )
        dims.add(dim)
        xs = np.asarray(xs, dtype=float).reshape(-1)
        if not (math.isfinite(x_from) and np.isfinite(xs).all()):
            bad = x_from if not math.isfinite(x_from) else xs[~np.isfinite(xs)][0]
            raise PreconditionError(f"integration abscissas must be finite, got {bad}")
        order = np.argsort(np.abs(xs - x_from), kind="stable")
        sides = [order[xs[order] >= x_from], order[xs[order] < x_from]]
        grids = [np.concatenate(([x_from], xs[side])) for side in sides]
        intervals.append((
            problem, energy, np.concatenate([g[:-1] for g in grids]), np.concatenate([g[1:] for g in grids])
        ))
        marches.append((state, xs.size, sides))
    if len(dims) > 1:
        raise PreconditionError("one batch integrates one system: every initial needs the same number of rows")
    steps = _propagators(intervals, dims.pop(), rtol, atol)
    runs = [
        (k, side, run)
        for k, (u, (_, _, sides)) in enumerate(zip(steps, marches))
        for side, run in zip(sides, np.split(u, [sides[0].size]))
        if side.size
    ]
    out = [np.empty(state.shape + (size,), dtype=complex) for state, size, _ in marches]
    for (k, side, _), chain in zip(runs, _prefix_products([run for _, _, run in runs])):
        out[k][..., side] = np.moveaxis(chain @ marches[k][0], 0, -1)
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
    at the k-th point of a side is U_k ... U_1 @ initial, the products from
    one stacked prefix scan.  ``x_from`` and ``xs`` must be finite.
    """
    return integrate_many([(problem, energy, initial, x_from, xs)], rtol, atol)[0]


# --- Wronskian -----------------------------------------------------------------


def wronskian(
    problem: DimensionlessProblem, energy: float, x: float, anchor: float, rtol: float = DEFAULT_RTOL
) -> complex:
    """det at x of the identity frame launched at the anchor (Abel: exactly 1)."""
    frame = integrate(problem, energy, np.eye(4), anchor, [x], rtol=rtol)[..., 0]
    return complex(np.linalg.det(frame))


def wronskian_drifts(
    cases: Sequence[tuple[DimensionlessProblem, float, Sequence[float], float]], rtol: float = DEFAULT_RTOL
) -> list[float]:
    """max |W(x) - 1| over xs of each (problem, energy, xs, anchor) case (0 on no xs).

    W is the determinant of the identity frame launched at the anchor (the
    constancy check); every case's frames come from one ``integrate_many`` call.
    """
    frames = integrate_many([(problem, e, np.eye(4), anchor, xs) for problem, e, xs, anchor in cases], rtol)
    return [
        float(np.max(np.abs(np.linalg.det(np.moveaxis(f, -1, 0)) - 1.0), initial=0.0)) for f in frames
    ]


# --- residuals -----------------------------------------------------------------


RESIDUAL_SCALE_FLOOR = 1e-3


def residual(state, problem: DimensionlessProblem, energy: float, grid: Sequence[float]) -> float:
    """max over grid of the scaled defect of eps*phi'''' - phi'' + (v - e)*phi.

    Each point's defect is divided by its own |eps phi''''| + |phi''| +
    |(v - e) phi|, but never by less than RESIDUAL_SCALE_FLOOR times the
    largest such sum on the grid: where the state and its derivatives all
    vanish (a wall, a node, the centre of an odd state) the terms are
    roundoff and the plain ratio reads O(1).  ``state.derivatives(grid,
    order=4)`` supplies value + d1..d4 for the whole grid in one call.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        return 0.0
    d = np.asarray(state.derivatives(grid, order=4), dtype=complex)
    t4 = problem.epsilon * d[4]
    t2 = d[2]
    t0 = (problem.v_derivs(grid)[0] - energy) * d[0]
    scales = np.abs(t4) + np.abs(t2) + np.abs(t0)
    floor = RESIDUAL_SCALE_FLOOR * scales.max() + 1e-300
    return float(np.max(np.abs(t4 - t2 + t0) / np.maximum(scales, floor)))


# --- decaying-subspace dimension -------------------------------------------------


def launch_frame(
    problem: DimensionlessProblem, energy: float, dim: int, x_far: float, march_direction: float
) -> np.ndarray:
    """Eigenvectors (1, lam, ..., lam^(dim-1)) of the frozen A(x_far) as columns, shape (dim, dim).

    The lam are the roots of eps lam^4 - lam^2 - (e - v) = 0 (dim 4) or
    lam^2 = v - e (dim 2), v read at x_far.  Columns are ordered by
    decreasing Re(lam) * march_direction, the growth rate along the march,
    so the QR diagonal tracks the modal growths from the first segment (an
    unordered frame spends the whole march in a column-reordering transient
    and its finite-span exponents come out mixed).  Column 0 is the
    solution that decays toward the far side fastest.
    """
    w = problem.v_derivs(x_far)[0] - energy
    if dim == 2:
        lam2 = np.array([w])
    else:
        eps = problem.epsilon
        big = (1.0 + np.sqrt(1.0 - 4.0 * eps * w + 0j)) / (2.0 * eps)
        lam2 = np.array([big, w / (eps * big)])  # the small root from the product w / eps
    lam = np.emath.sqrt(lam2)
    lam = np.concatenate([lam, -lam])
    lam = lam[np.argsort(-lam.real * march_direction, kind="stable")]
    return (lam ** np.arange(dim)[:, None]).astype(complex)


GROWTH_FLOOR = 0.5  # |growth exponent| below this is too close to zero to count
SEGMENT_GROWTH = 3.0  # largest rho * width of a march segment
MIN_SEGMENTS = 24  # fewest march segments


def _march_points(
    problem: DimensionlessProblem, energy: float, dim: int, x_far: float, anchor: float
) -> np.ndarray:
    """Ends of equal march segments from x_far to the anchor.

    At least MIN_SEGMENTS segments, and enough that none grows by more
    than e^SEGMENT_GROWTH (rho * width, rho the larger ``_max_rate`` of the
    two ends).  Past that, the QR of a segment's image loses the decaying
    directions to roundoff, and Abel's sum of the exponents drifts from zero.
    """
    ends = np.array([x_far, anchor])
    rho = float(_max_rate(problem, energy, dim, ends).max())
    count = max(MIN_SEGMENTS, math.ceil(rho * abs(anchor - x_far) / SEGMENT_GROWTH))
    return np.linspace(x_far, anchor, count + 1)


def growth_exponents_many(
    marches: Sequence[tuple[DimensionlessProblem, float, str, float | None]],
    standard: bool = False,
    rtol: float = DEFAULT_RTOL,
) -> list[np.ndarray]:
    """Log-growth of each direction of a frame marched from the far field to the anchor.

    One entry of dim exponents (4, or 2 in standard mode or at epsilon = 0)
    per (problem, energy, side, x_far) march; every march must run the same
    system.  A march runs backwards from the far point toward ``side`` (an
    explicit ``x_far`` must lie toward ``side`` of the anchor) to the
    interior anchor over equal segments, at least MIN_SEGMENTS of them and
    more where one would grow by more than e^SEGMENT_GROWTH
    (``_march_points``).  The frame is re-orthonormalized segment by
    segment, q, r = qr(U_k @ q), and the log |diag r| accumulate; the
    directions that grow toward the interior are exactly those bounded
    (decaying) toward the side.  The launch frame is ``launch_frame``, the
    frozen-coefficient eigenvectors at the far point: it reads only v
    there, so the march checks the WKB layer without leaning on it, and an
    even potential gives mirror-equal exponents toward +inf and -inf.

    The segment propagators of every march come from one ``_propagators``
    call, and the frames of all marches are re-orthonormalized together,
    one stacked ``np.linalg.qr`` per segment step; a march with fewer
    segments than the longest holds its frame and exponents once it is done.
    """
    if not marches:
        return []
    launches, requests, dims = [], [], set()
    for problem, energy, side, x_far in marches:
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
        w_launch = problem.v_derivs(x_far)[0] - energy
        if w_launch < 1.0:
            raise PreconditionError(
                f"launch point x={x_far} not in the forbidden region (v - e = {w_launch:.3g} < 1)"
            )
        anchor = _auto_anchor(problem, energy, sgn, x_far)
        if not sgn * (x_far - anchor) > 0.0:
            raise PreconditionError(f"far point x={x_far} does not lie toward {side} of the anchor x={anchor}")
        dim = 2 if standard or problem.epsilon == 0.0 else 4
        dims.add(dim)
        launches.append(launch_frame(problem, energy, dim, x_far, math.copysign(1.0, anchor - x_far)))
        xs = _march_points(problem, energy, dim, x_far, anchor)
        requests.append((problem, energy, xs[:-1], xs[1:]))
    if len(dims) > 1:
        raise PreconditionError("one batch marches one system: every march needs the same dim")
    segments = _propagators(requests, dims.pop(), rtol, DEFAULT_ATOL)
    # marches longest first, so the ones still running at segment step k are the first active[k]
    order = np.argsort([-len(u) for u in segments], kind="stable")
    lengths = np.array([len(segments[i]) for i in order])
    steps = np.zeros((len(order), lengths[0]) + segments[0].shape[1:])
    for row, i in zip(steps, order):
        row[: len(segments[i])] = segments[i]
    active = (lengths[:, None] > np.arange(lengths[0])).sum(axis=0)
    # initial QR so the accumulated R diagonals measure growth only
    q, _ = np.linalg.qr(np.stack([launches[i] for i in order]))
    growth = np.zeros(q.shape[:2])
    for k, m in enumerate(active):
        q[:m], r = np.linalg.qr(steps[:m, k] @ q[:m])
        growth[:m] += np.log(np.abs(r.diagonal(0, 1, 2)))
    return [growth[k] for k in np.argsort(order)]


def bounded_dimension(growth: np.ndarray) -> int:
    """Dimension of the solution subspace bounded toward a side, from that march's exponents.

    Counts the exponents that grow toward the interior; raises
    ``NumericalError`` when one lies within GROWTH_FLOOR of zero.
    """
    if np.any(np.abs(growth) < GROWTH_FLOOR):
        raise NumericalError(
            f"growth exponents {growth} too close to zero to count reliably; "
            "increase the march span"
        )
    return int(np.sum(growth > 0.0))


def _auto_far_point(problem: DimensionlessProblem, energy: float, sgn: float) -> float:
    x = 1.0
    for _ in range(200):
        if problem.v_derivs(sgn * x)[0] - energy >= 2.0:
            return x + 1.0
        x *= 1.3
    raise PreconditionError("could not locate a forbidden-region far point")


def _auto_anchor(problem: DimensionlessProblem, energy: float, sgn: float, x_far: float) -> float:
    # the first point inward where v - e drops below 1 (near the turning point), or a span cap
    xs = np.linspace(abs(x_far), 0.0, 400)
    inside = np.flatnonzero(problem.v_derivs(sgn * xs)[0] - energy < 1.0)
    if inside.size:
        return sgn * min(xs[inside[0]] + 0.2, abs(x_far))
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

    def ode_residual(self, pt):
        """Scaled defect of the first-order equation at pt (a float or an array)."""
        t1 = 1j * self.gamma * (1.0 + self.beta_tilde * pt**2) * self.derivative(pt)
        t2 = (pt**2 - self.e_tilde) * self(pt)
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
