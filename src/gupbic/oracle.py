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

Every potential is a polynomial of degree <= 2, which the problem carries
as its three coefficients (``v_coefficients``, evaluated by
``core.potential_derivs``), so the propagators are Taylor series whose
coefficients obey an exact recurrence (``_scaled_steps``):
numpy only, with no step control and no scipy.  The series' tail bound is
the integrations' rtol and atol, and it is applied per request: each
request's series stops at the first term where its own sub-steps meet it.

Queries come in batches: ``integrate_many`` and ``growth_exponents_many``
serve many (problem, energy, ...) requests of one system at once, and their
cost grows with the number of calls rather than of requests.  The requests
are set up as arrays, ``_propagators`` sums the sub-steps of every request in
one recurrence, ``integrate_many`` chains them with one bucketed
prefix-product scan, and the decay marches re-orthonormalize with one
stacked QR per segment step.  A request's result has the same bits alone or
in any batch, and ``integrate`` is the batch of one.
"""

from __future__ import annotations

import functools
import itertools
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
    potential_derivs,
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


def _max_rate(eps: np.ndarray, w: np.ndarray, dim: int) -> np.ndarray:
    """Largest |lambda| of the frozen-coefficient system at each entry, w = e - v.

    Fourth order: eps lambda^4 - lambda^2 - w = 0, whose largest |lambda^2|
    is |1 + sqrt(1 + 4 eps w)| / (2 eps); standard mode: lambda^2 = -w.
    """
    if dim == 2:
        return np.sqrt(np.abs(w))
    return np.sqrt(np.abs(1.0 + np.sqrt(1.0 + 4.0 * eps * w + 0j)) / (2.0 * eps))


@functools.cache
def _series_tables(dim: int) -> tuple[np.ndarray, list[float], list[int]]:
    """The falling factorials n!/(n-m)! (zero for m > n), their m = dim - 1 column, and (n-dim+1) ... n."""
    falling = np.ones((_MAX_TERMS, dim))
    for m in range(1, dim):
        falling[:, m] = falling[:, m - 1] * (np.arange(_MAX_TERMS) - m + 1)
    return falling, falling[:, -1].tolist(), [math.prod(range(n - dim + 1, n + 1)) for n in range(_MAX_TERMS)]


def _scaled_steps(
    eps: np.ndarray, w: np.ndarray, v1: np.ndarray, v2: np.ndarray, h: np.ndarray, firsts: np.ndarray,
    dim: int, rtol: float, atol: float,
) -> np.ndarray:
    """Propagators over [x0, x0 + h] of the scaled state s_m = h^m phi^(m), shape (S, dim, dim).

    Every argument array but ``firsts`` holds one entry per sub-step: eps,
    w = v0 - e, v1 and v2 of v(x0 + t) = v0 + v1 t + v2 t^2, and h (eps is
    read in dim 4 only), so sub-steps of many problems and energies run
    together.  The sub-steps of a request are consecutive, and ``firsts``
    holds the index of each request's first one.  The Taylor coefficients
    c_n of a solution at x0, scaled as a_n = c_n h^n, obey
    ((n+1)_k = (n+1) ... (n+k))

        eps (n+1)_4 a_{n+4} = h^2 (n+1)(n+2) a_{n+2} - h^4 [w a_n + h v1 a_{n-1} + h^2 v2 a_{n-2}]
        (n+1)_2 a_{n+2} = h^2 [w a_n + h v1 a_{n-1} + h^2 v2 a_{n-2}]     (standard mode).

    Column k starts as s = e_k, i.e. a_j = delta_jk / k! for j < dim, and
    ends as s_m = sum_n n!/(n-m)! a_n.  All sub-steps and columns run at
    once.  Each request's series stops at the first term where the last dim
    terms of every one of its sub-steps lie below rtol times that sub-step's
    largest term plus atol, so a request's propagators have the same bits
    whatever else runs in the call.
    """
    if dim == 4:
        gain, scale = h**2 / eps, -(h**4) / eps
    else:
        gain, scale = 0.0, h**2
    # weights of a_{n-2} ... a_n (dim 4: ... a_{n+2}, a_{n+1} weighing 0) in the next coefficient
    weights = np.zeros((dim + 1, 1, h.size))
    weights[0, 0], weights[1, 0], weights[2, 0] = scale * h**2 * v2, scale * h * v1, scale * w
    falling, tail, divisors = _series_tables(dim)
    # a[n + 2, k] holds a_n of column k for every sub-step (a_-1 = a_-2 = 0); sub-steps run along
    # the last axis, so every per-term operation runs over contiguous rows.  Room for 24 terms
    # first, doubled when the series runs longer.
    a = np.zeros((26, dim, h.size))
    for j in range(dim):
        a[j + 2, j] = 1.0 / math.factorial(j)
    # largest |term| of the last dim coefficients (row m = dim - 1 weighs most); the identity's are 1
    recent = np.ones((dim, h.size))
    rows, top = list(recent), weights[-1, 0]
    largest = np.ones(h.size)
    s = np.empty((dim, dim, h.size))
    running, bounds = firsts.size, firsts.tolist() + [h.size]
    for n in range(dim, _MAX_TERMS):
        p = n - dim
        if n + 2 == len(a):
            a = np.concatenate([a, np.empty_like(a)])
        if dim == 4:
            np.multiply(gain, (p + 1) * (p + 2), out=top)
        np.divide(np.add.reduce(weights * a[p : n + 1]), divisors[n], out=a[n + 2])
        size = np.multiply(np.maximum.reduce(np.abs(a[n + 2])), tail[n], out=rows[n % dim])
        np.maximum(largest, size, out=largest)
        stop = np.logical_and.reduceat(np.maximum.reduce(recent) <= rtol * largest + atol, firsts).tolist()
        if any(stop):
            for i in itertools.compress(range(len(stop)), stop):  # each request's sum, as if it ran alone
                lo, hi = bounds[i], bounds[i + 1]
                s[..., lo:hi] = (falling[: n + 1].T @ a[2 : n + 3, :, lo:hi].reshape(n + 1, -1)).reshape(dim, dim, -1)
                largest[lo:hi] = np.nan  # a stopped request meets the rule no more
                running -= 1
        if not running:
            return s.transpose(2, 0, 1)
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
    sums without cancellation.  The intervals of every request are set up
    as one array, and their sub-step propagators come from one
    ``_scaled_steps`` call, whose series stops per request: a request's
    propagators have the same bits alone or in any batch.  Intervals are
    grouped by their sub-step count rounded up to a power of two, so a long
    interval pads only its own group; within a group they are chained by
    pairwise stacked products in the scaled state (every sub-step of an
    interval shares h), which is unscaled once: U = H^-1 S H with
    H = diag(h^m).  A zero-width interval is exactly the identity.  More
    than ``MAX_SUB_STEPS`` sub-steps over all requests raise a
    PreconditionError before any is allocated.
    """
    if not requests:
        return []
    if dim == 4 and min(problem.epsilon for problem, *_ in requests) <= 0.0:
        raise PreconditionError("the companion system requires epsilon > 0; use the standard mode")
    sizes = [len(starts) for _, _, starts, _ in requests]
    starts = np.concatenate([starts for _, _, starts, _ in requests], dtype=float)
    widths = np.concatenate([ends for *_, ends in requests], dtype=float) - starts
    owner = np.repeat(np.arange(len(requests)), sizes)  # request of each interval
    coefficients = np.array([(p.epsilon, e, *p.v_coefficients) for p, e, _, _ in requests]).T[:, owner]
    eps, energy, *quadratic = coefficients
    ends = np.concatenate([starts, starts + widths]).reshape(2, -1)
    rate = _max_rate(eps, energy - potential_derivs(quadratic, ends)[0], dim).max(axis=0)
    counts = np.maximum(1.0, np.ceil(np.abs(widths) * rate))
    total = counts.sum()
    if not total <= MAX_SUB_STEPS:  # a NaN count fails too
        raise PreconditionError(
            f"the oracle's intervals need {total:.4g} sub-steps (|h| rho <= 1), "
            f"above its cap of {MAX_SUB_STEPS}: the system is too stiff over this range"
        )
    counts = counts.astype(int)
    first = np.cumsum(counts) - counts  # each interval's first sub-step
    interval = np.repeat(np.arange(counts.size), counts)  # interval of each sub-step
    h = (widths / counts)[interval]
    x = starts[interval] + (np.arange(h.size) - first[interval]) * h
    eps, energy, *quadratic = coefficients[:, interval]
    v0, v1, v2 = potential_derivs(quadratic, x)
    bounds = [0, *itertools.accumulate(sizes)]
    opening = first[[a for a, b in zip(bounds, bounds[1:]) if b > a]]  # each request's first sub-step
    steps = _scaled_steps(eps, v0 - energy, v1, 0.5 * v2, h, opening, dim, rtol, atol)
    out = steps[first]  # an interval of one sub-step is done
    doublings = np.frexp(counts - 1)[1]  # ceil(log2(count)): a chain of 2^d slots holds the sub-steps
    for d in np.flatnonzero(np.bincount(doublings)[1:]) + 1:
        group = np.flatnonzero(doublings == d)
        width = 1 << int(d)
        inside = np.arange(width) < counts[group, None]
        chain = steps[np.where(inside, first[group, None] + np.arange(width), 0)]
        chain[~inside] = np.eye(dim)  # identities pad the chains
        while chain.shape[1] > 1:
            chain = chain[:, 1::2] @ chain[:, 0::2]  # later sub-steps on the left
        out[group] = chain[:, 0]
    # unscale, U[m, k] = S[m, k] h^(k - m), from one table of the powers h^-(dim-1) ... h^(dim-1)
    zero = widths == 0.0
    powers = np.arange(dim)
    h_powers = np.where(zero, 1.0, widths / counts)[:, None] ** np.arange(1 - dim, dim)
    out *= h_powers[:, powers - powers[:, None] + dim - 1]
    out[zero] = np.eye(dim)
    return [out[a:b] for a, b in zip(bounds, bounds[1:])]


def _prefix_products(steps: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Running products U_k ... U_1 over consecutive runs of the stacked propagators, in place in ``steps``.

    Run i holds the next ``lengths[i]`` (>= 1) entries.  Runs are bucketed
    by their length rounded up to a power of two, each bucket padded to its
    longest run, and each bucket scanned (Hillis-Steele): after the round of
    stride d each product covers the last 2d steps of its run, so log2 of
    the bucket's width rounds of stacked products finish it.  A run's
    products never read its padding, so they have the same bits in any
    bucket, and a short run no longer pays for a long one.
    """
    firsts = np.cumsum(lengths) - lengths
    doublings = np.frexp(lengths - 1)[1]  # ceil(log2(length))
    for d in np.flatnonzero(np.bincount(doublings)[1:]) + 1:  # a run of one step is its own product
        group = np.flatnonzero(doublings == d)
        width = int(lengths[group].max())
        inside = np.arange(width) < lengths[group, None]
        index = np.where(inside, firsts[group, None] + np.arange(width), 0)
        chain = steps[index]
        chain[~inside] = 0.0  # padding
        stride = 1
        while stride < width:
            chain[:, stride:] = chain[:, stride:] @ chain[:, :-stride]  # later steps on the left
            stride *= 2
        steps[index[inside]] = chain[inside]
    return steps


def integrate_many(
    requests: Sequence[tuple[DimensionlessProblem, float, Sequence[complex] | np.ndarray, float, Sequence[float]]],
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> list[np.ndarray]:
    """``integrate`` for each (problem, energy, initial, x_from, xs) request, in one batch.

    Every request's initial must have the same number of rows (one
    system).  The march points of all requests are ordered as one array,
    their propagators come from one ``_propagators`` call, one prefix-product
    scan chains every side's run, and the initials of each width (a state is
    a frame of width 1) take their chains in one stacked product.  A
    request's result has the same bits alone or in any batch.
    """
    if not (MIN_RTOL <= rtol <= MAX_RTOL):
        raise PreconditionError(f"rtol must lie in [{MIN_RTOL:g}, {MAX_RTOL:g}], got {rtol}")
    if not requests:
        return []
    initials = [np.asarray(initial, dtype=complex) for _, _, initial, _, _ in requests]
    dims = {state.shape[0] if state.ndim in (1, 2) else 0 for state in initials}
    if not dims <= {2, 4}:
        raise PreconditionError(
            "initial must be a state or a frame of states as columns, with 4 rows (2 in standard mode)"
        )
    if len(dims) > 1:
        raise PreconditionError("one batch integrates one system: every initial needs the same number of rows")
    dim = dims.pop()
    count = len(requests)
    sizes = [len(xs) for *_, xs in requests]
    grid = np.concatenate([[x_from for *_, x_from, _ in requests], *(xs for *_, xs in requests)], dtype=float)
    if not np.logical_and.reduce(np.isfinite(grid)):
        raise PreconditionError(f"integration abscissas must be finite, got {grid[~np.isfinite(grid)][0]}")
    owner = np.repeat(np.arange(count), sizes)
    origin, xs = grid[owner], grid[count:]
    # each side of a request's launch point is one run of the march, outward by distance; the
    # runs lie request by request, the side x >= x_from first
    left = xs < origin
    order = np.lexsort((np.abs(xs - origin), left, owner))
    lengths = np.bincount(2 * owner + left)
    lengths = lengths[lengths > 0]
    firsts = np.cumsum(lengths) - lengths
    ends = xs[order]
    starts = np.empty_like(ends)
    starts[1:] = ends[:-1]
    starts[firsts] = origin[order[firsts]]
    bounds = [0, *itertools.accumulate(sizes)]
    intervals = [(r[0], r[1], starts[a:b], ends[a:b]) for r, a, b in zip(requests, bounds, bounds[1:])]
    steps = np.concatenate(_propagators(intervals, dim, rtol, atol))
    chains = np.empty_like(steps)
    chains[order] = _prefix_products(steps, lengths)
    # the initials of one width k take their chains in one stacked (dim, dim) @ (dim, k) product,
    # so a request's product has the same shape, and bits, in any batch
    frames = [state.reshape(dim, -1) for state in initials]
    widths = np.array([frame.shape[1] for frame in frames])
    out = [None] * count
    for k in set(widths.tolist()):
        members = widths == k
        group = np.flatnonzero(members).tolist()
        points = np.flatnonzero(members[owner])
        slot = (np.cumsum(members) - 1)[owner[points]]  # each point's request within the group
        marched = (chains[points] @ np.array([frames[i] for i in group])[slot]).transpose(1, 2, 0)
        edges = [0, *itertools.accumulate(sizes[i] for i in group)]
        for i, a, b in zip(group, edges, edges[1:]):
            out[i] = marched[..., a:b].reshape(initials[i].shape + (b - a,))
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


def wronskian_drift(frames: np.ndarray) -> float:
    """max |W(x) - 1| over frames of shape (4, 4, K), identity frames marched from their anchors.

    W is a frame's determinant, which Abel's formula holds at exactly 1
    (the constancy check); 0 on no points.
    """
    return float(np.max(np.abs(np.linalg.det(np.moveaxis(frames, -1, 0)) - 1.0), initial=0.0))


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
    w = np.array([problem.v_derivs(x_far)[0] - energy])
    return _launch_frames(np.array([problem.epsilon]), w, dim, np.array([march_direction]))[0]


def _launch_frames(eps: np.ndarray, w: np.ndarray, dim: int, march_direction: np.ndarray) -> np.ndarray:
    """``launch_frame`` of each march, shape (M, dim, dim), from its eps, w = v(x_far) - e and direction."""
    if dim == 2:
        lam2 = w[:, None]
    else:
        big = (1.0 + np.sqrt(1.0 - 4.0 * eps * w + 0j)) / (2.0 * eps)
        lam2 = np.stack([big, w / (eps * big)], axis=1)  # the small root from the product w / eps
    lam = np.emath.sqrt(lam2)
    lam = np.concatenate([lam, -lam], axis=1)
    lam = np.take_along_axis(lam, np.argsort(-lam.real * march_direction[:, None], axis=1, kind="stable"), axis=1)
    return (lam[:, None, :] ** np.arange(dim)[:, None]).astype(complex)


GROWTH_FLOOR = 0.5  # |growth exponent| below this is too close to zero to count
SEGMENT_GROWTH = 3.0  # largest rho * width of a march segment
MIN_SEGMENTS = 24  # fewest march segments
_FAR_WALK = np.cumprod(np.r_[1.0, np.full(199, 1.3)])  # the far-point candidates 1.3^k, k < 200


def _auto_far_point(quadratic: np.ndarray, energy: np.ndarray, sgn: np.ndarray) -> np.ndarray:
    """|x_far| of each march: 1 past the first candidate 1.3^k toward its side where v - e >= 2."""
    reached = potential_derivs(quadratic[..., None], sgn[:, None] * _FAR_WALK)[0] - energy[:, None] >= 2.0
    if not reached.any(axis=1).all():
        raise PreconditionError("could not locate a forbidden-region far point")
    return _FAR_WALK[reached.argmax(axis=1)] + 1.0


def _auto_anchor(
    quadratic: np.ndarray, energy: np.ndarray, sgn: np.ndarray, x_far: np.ndarray, linear: np.ndarray
) -> np.ndarray:
    """Each march's anchor: 0.2 outward of the first of 400 points from x_far inward where v - e < 1.

    That point lies near the turning point; the anchor is capped at x_far.
    Where v - e stays >= 1 the anchor is 0, or min(1, |x_far| / 2) for the
    linear potential.
    """
    grid = np.linspace(np.abs(x_far), 0.0, 400, axis=-1)
    inside = potential_derivs(quadratic[..., None], sgn[:, None] * grid)[0] - energy[:, None] < 1.0
    first = grid[np.arange(grid.shape[0]), inside.argmax(axis=1)]
    span_cap = np.where(linear, np.minimum(1.0, np.abs(x_far) / 2), 0.0)
    return np.where(inside.any(axis=1), sgn * np.minimum(first + 0.2, np.abs(x_far)), span_cap)


def _march_points(
    quadratic: np.ndarray, eps: np.ndarray, energy: np.ndarray, dim: int, x_far: np.ndarray, anchor: np.ndarray
) -> list[np.ndarray]:
    """Ends of equal march segments from x_far to the anchor, for each march.

    At least MIN_SEGMENTS segments, and enough that none grows by more
    than e^SEGMENT_GROWTH (rho * width, rho the larger ``_max_rate`` of the
    two ends).  Past that, the QR of a segment's image loses the decaying
    directions to roundoff, and Abel's sum of the exponents drifts from zero.
    Each march's points are ``np.linspace(x_far, anchor, count + 1)``, all
    formed in one array.
    """
    ends = np.stack([x_far, anchor])
    rho = _max_rate(eps, energy - potential_derivs(quadratic, ends)[0], dim).max(axis=0)
    sizes = np.maximum(MIN_SEGMENTS, np.ceil(rho * np.abs(anchor - x_far) / SEGMENT_GROWTH)).astype(int) + 1
    march = np.repeat(np.arange(sizes.size), sizes)
    lasts = np.cumsum(sizes) - 1
    step = (anchor - x_far) / (sizes - 1)
    points = (np.arange(march.size) - (lasts - sizes + 1)[march]) * step[march] + x_far[march]
    points[lasts] = anchor
    bounds = [0, *(lasts + 1).tolist()]
    return [points[a:b] for a, b in zip(bounds, bounds[1:])]


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

    The far points, anchors, launch frames and segments of every march are
    set up as arrays, their propagators come from one ``_propagators``
    call, and the frames of all marches are re-orthonormalized together,
    one stacked ``np.linalg.qr`` per segment step; a march with fewer
    segments than the longest holds its frame and exponents once it is done.
    """
    if not marches:
        return []
    for problem, _, side, _ in marches:
        if side not in ("+inf", "-inf"):
            raise PreconditionError(f"side must be '+inf' or '-inf', got {side!r}")
        lo, hi = problem.domain
        if side == "+inf" and not math.isinf(hi):
            raise PreconditionError("domain is bounded toward +inf; no far field there")
        if side == "-inf" and not math.isinf(lo):
            raise PreconditionError("domain is bounded toward -inf; no far field there")
    dims = {2 if standard or problem.epsilon == 0.0 else 4 for problem, *_ in marches}
    if len(dims) > 1:
        raise PreconditionError("one batch marches one system: every march needs the same dim")
    dim = dims.pop()
    eps, energy, sgn, x_far = np.array(
        [(p.epsilon, e, 1.0 if side == "+inf" else -1.0, math.nan if x is None else x) for p, e, side, x in marches]
    ).T
    quadratic = np.array([problem.v_coefficients for problem, *_ in marches]).T
    auto = np.array([x is None for *_, x in marches])
    if auto.any():
        x_far[auto] = sgn[auto] * _auto_far_point(quadratic[:, auto], energy[auto], sgn[auto])
    w_launch = potential_derivs(quadratic, x_far)[0] - energy
    for i in np.flatnonzero(w_launch < 1.0)[:1]:
        raise PreconditionError(
            f"launch point x={x_far[i]} not in the forbidden region (v - e = {w_launch[i]:.3g} < 1)"
        )
    anchor = _auto_anchor(quadratic, energy, sgn, x_far, np.array([p.kind == "linear" for p, *_ in marches]))
    for i in np.flatnonzero(~(sgn * (x_far - anchor) > 0.0))[:1]:
        raise PreconditionError(
            f"far point x={x_far[i]} does not lie toward {marches[i][2]} of the anchor x={anchor[i]}"
        )
    launches = _launch_frames(eps, w_launch, dim, np.copysign(1.0, anchor - x_far))
    points = _march_points(quadratic, eps, energy, dim, x_far, anchor)
    requests = [(problem, e, xs[:-1], xs[1:]) for (problem, e, _, _), xs in zip(marches, points)]
    segments = _propagators(requests, dim, rtol, DEFAULT_ATOL)
    # marches longest first, so the ones still running at segment step k are the first active[k]
    lengths = np.array([len(u) for u in segments])
    order = np.argsort(-lengths, kind="stable")
    running = np.arange(lengths.max()) < lengths[order, None]
    index = (np.cumsum(lengths) - lengths)[order, None] + np.arange(lengths.max())
    steps = np.concatenate(segments)[np.where(running, index, 0)]
    active = running.sum(axis=0)
    # initial QR so the accumulated R diagonals measure growth only
    q, _ = np.linalg.qr(launches[order])
    growth = np.zeros(q.shape[:2])
    for k, m in enumerate(active):
        q[:m], r = np.linalg.qr(steps[:m, k] @ q[:m])
        growth[:m] += np.log(np.abs(r.diagonal(0, 1, 2)))
    return list(growth[np.argsort(order)])


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


# --- momentum representation (linear potential) ----------------------------------


@dataclass(frozen=True)
class MomentumSolution:
    """Closed-form momentum-space solution for the linear potential.

    In scaled momentum pt = p / p_c the first-order equation reads

        i * gamma * (1 + bt * pt^2) * C'(pt) + (pt^2 - e) * C(pt) = 0,

    with bt = beta * p_c^2 and gamma = hbar * L / (E_c * p_c) (gamma = 1 in the
    canonical bouncer scaling).  Separation gives C = C0 exp(i g(pt) / gamma), here with C0 = 1:

        g(pt) = pt/bt - (1/bt + e) * arctan(sqrt(bt) pt)/sqrt(bt)     (bt > 0)
        g(pt) = pt^3/3 - e*pt                                         (bt = 0).

    Its solution space is one-dimensional, versus the four-dimensional
    position-space fundamental system.
    """

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
        return np.exp(1j * self.phase(pt))

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


def momentum_rep_linear(setup: PhysicalSetup, energy_si: float) -> MomentumSolution:
    """Momentum-representation solution for V = L x (canonical bouncer scaling)."""
    if not isinstance(setup.potential, Linear):
        raise WrongPotentialError("momentum representation implemented for the linear potential")
    problem = nondimensionalize(setup)
    p_c = problem.momentum_scale
    beta_tilde = setup.beta * p_c**2
    gamma = setup.hbar * setup.potential.slope / (problem.energy_scale * p_c)
    return MomentumSolution(
        beta_tilde=beta_tilde,
        gamma=gamma,
        e_tilde=problem.energy_from_si(energy_si),
        momentum_scale=p_c,
    )
