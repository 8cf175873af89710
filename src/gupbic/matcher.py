"""Boundary conditions, degrees of freedom, and normalized bound states.

A general solution is phi = sum_j C_j w_j over a four-function fundamental
set.  Boundary conditions become linear rows on (C_1..C_4):

  * a point condition phi(xp) = 0 is the row [w_1(xp), ..., w_4(xp)];
  * a decay condition toward one side zeroes the coefficients of the basis
    functions whose asymptotic class toward that side is Growing (one unit
    row each).  The classes come from one ``basis.classify_asymptotics``
    call per side on the set the rows constrain: a WKB set's classes are
    its branch labels, the sign tau_j of Re(lam_j) past the last zero of
    a^2 - b, so no branch or exponent is formed for them.

The count of degrees of freedom (nullity of the assembled system) is the
degeneracy of the energy; key boundary conditions (KBCs) are those that make
states bounded, and the case split two-sided-support / wall-plus-decay /
two-sided-decay predicts the count 4-2=2 / 4-3=1 / 4-2=2 before any matrix is
formed.

Conditioning: the infinite-well exponentials are anchored at the walls
(``exact_constant_basis``), so every wall value lies in [0, 1] at any
epsilon.  WKB values can pass the exponent cap (the linear wall at x = 0), so
each value row is formed with one log shift, the largest log|w_j(x)| in the
row, and every point row is then scaled to unit max magnitude.  No column
carries a scale: null vectors are the true coefficient vectors.

The basis set is the one evaluator of its functions.  It forms the point
rows' entries (``FundamentalSet.point_rows``) for every point and every
energy of a batch, every value row in one pass and every derivative row in
one more: the well's exact set by its stacked kernels, a WKB set by one
query of its exponent table (``WkbSet``).  ``evaluate_states`` and each
round of ``overlap_gram`` likewise ask the set for its members'
derivatives, as one stacked array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from ._scipy import lazy
from .basis import (
    AsymptoticClass,
    ExactConstantSet,
    FundamentalSet,
    Side,
    TURNING_WINDOW_HALF_WIDTH,
    WkbBasisFunction,
    WkbParameters,
    WkbSet,
    _capped_exp,
    characteristic_roots,
    classify_asymptotics,
    exact_constant_basis,
    map_regions,
    wkb_branches,
)
from .core import DimensionlessProblem
from .errors import (
    BasisOverflowError,
    InvalidConditionsError,
    NormalizationError,
    PreconditionError,
    WrongPotentialError,
    raise_where,
)
from .panels import panel_integrals

# unused here: perfbench/tracer.py patches matcher.quad until ROADMAP item 1 replaces it
quad = lazy("integrate", "quad")

RANK_TOL = 1e-10

_GRAM_TOL = 1e-11  # tolerance of the overlap panels (see overlap_gram)
# most e-folds (or radians) a Gram product's exponent changes across one seeded
# panel: the 12- and 24-node sums of e^(12 t) on [0, 1] differ by 3e-14 of it,
# those of e^(12 i t) by 5e-13, both within _GRAM_TOL
_GRAM_EFOLDS = 12.0
_GRAM_MAX_SEEDS = 256  # seeded panels of one region piece at most; bisection refines past it
_GRAM_NEGLIGIBLE = 36.0  # e-folds of decay (e^-36 = 2e-16) past which a fast branch sets no width
_SQRT_FLOAT_MAX = math.sqrt(np.finfo(float).max)  # |w| limit of the Gram products


class Case(Enum):
    I = "I"
    II = "II"
    III = "III"
    UNBOUND = "Unbound"


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str  # point_zero | decay_plus | decay_minus
    location: float | None = None
    side: Side | None = None
    is_key: bool = True

    def __post_init__(self):
        if self.kind == "point_zero" and self.location is None:
            raise InvalidConditionsError("point_zero needs a location")


def point_zero(x: float, is_key: bool = True) -> BoundaryCondition:
    return BoundaryCondition(kind="point_zero", location=float(x), is_key=is_key)


def decay_at(side: Side, is_key: bool = True) -> BoundaryCondition:
    kind = "decay_plus" if side is Side.PLUS_INFINITY else "decay_minus"
    return BoundaryCondition(kind=kind, side=side, is_key=is_key)


@dataclass(frozen=True)
class CaseClassification:
    case: Case
    kbc_count: int
    non_kbc_count: int
    predicted_dof: int


def classify(conditions: Sequence[BoundaryCondition]) -> CaseClassification:
    """Case split and predicted degrees of freedom from the condition set.

    Two-sided compact support (walls): the applied conditions subtract
    directly from the four coefficients.  A decay condition pins the two
    outward-growing coefficients on its side; with a wall that determines
    three, with a second decay the pair counts once (the same outward pair is
    removed), leaving two.
    """
    conditions = list(conditions)
    if not conditions:
        raise InvalidConditionsError("nonempty condition list required")

    kbcs = [c for c in conditions if c.is_key]
    non_kbc = len(conditions) - len(kbcs)
    has_decay_plus = any(c.kind == "decay_plus" for c in kbcs)
    has_decay_minus = any(c.kind == "decay_minus" for c in kbcs)
    key_points = [c for c in kbcs if c.kind == "point_zero"]

    if has_decay_plus and has_decay_minus:
        case = Case.III
        predicted = 2 - non_kbc
    elif (has_decay_plus or has_decay_minus) and key_points:
        case = Case.II
        predicted = 1 - non_kbc
    elif len(key_points) >= 2:
        case = Case.I
        predicted = 4 - len(conditions)
    else:
        case = Case.UNBOUND
        predicted = 4 - len(conditions)
    return CaseClassification(
        case=case,
        kbc_count=len(kbcs),
        non_kbc_count=non_kbc,
        predicted_dof=max(predicted, 0),
    )


# --- constraint assembly ---------------------------------------------------------


@dataclass(frozen=True)
class ConstraintSystem:
    """Rows on the coefficient vector at fixed energy, each of unit max magnitude.

    ``matrix`` is (rows, 4), or (N, rows, 4) with ``energy`` an array of N
    when the basis is batched over N energies.
    """

    energy: float
    matrix: np.ndarray
    row_kinds: tuple[str, ...]
    basis: FundamentalSet

    def row_residual(self, coefficients: np.ndarray) -> float | np.ndarray:
        """max |row . c| / |c| over rows: the residual of the unit vector along c; inf for c = 0.

        Coefficient vectors along the last axis: a 4-vector gives a float,
        and for a stacked (N, rows, 4) matrix an (N, S, 4) array, S vectors
        per energy, gives (N, S) residuals.
        """
        c = np.asarray(coefficients, dtype=complex)
        norm = np.linalg.norm(c, axis=-1)
        if self.matrix.shape[-2] == 0:
            res = np.zeros(norm.shape)
        else:
            res = np.abs(c @ self.matrix.swapaxes(-1, -2)).max(axis=-1)
        res = np.divide(res, norm, out=np.full(norm.shape, np.inf), where=norm > 0)
        return float(res) if res.ndim == 0 else res


def assemble(
    basis: FundamentalSet,
    conditions: Sequence[BoundaryCondition],
    energy: float,
    extra_conditions: Sequence[float | tuple[float, int]] = (),
) -> ConstraintSystem:
    """Build the linear system; decay rows select Growing-class coefficients.

    ``extra_conditions`` injects additional point conditions for sensitivity
    studies: a bare x means phi(x) = 0, a pair (x, k) means phi^(k)(x) = 0
    (hard walls themselves impose only phi = 0).  The classes of ``basis``,
    one ``classify_asymptotics`` call per decay side, decide the decay rows;
    only a WKB set has decay conditions.  The set is asked for no member, so
    a WKB set forms no branch.
    """
    if len(basis) != 4:
        raise PreconditionError(f"need the 4-function fundamental set, got {len(basis)}")

    points: list[tuple[float, int]] = []
    decay_sides: list[Side] = []
    for c in conditions:
        if c.kind == "point_zero":
            points.append((float(c.location), 0))
        elif c.kind == "decay_plus":
            decay_sides.append(Side.PLUS_INFINITY)
        elif c.kind == "decay_minus":
            decay_sides.append(Side.MINUS_INFINITY)
        else:
            raise InvalidConditionsError(f"unknown condition kind {c.kind!r}")
    for entry in extra_conditions:
        if isinstance(entry, tuple):
            points.append((float(entry[0]), int(entry[1])))
        else:
            points.append((float(entry), 0))

    batch = np.shape(energy)  # (N,) for a basis batched over N energies
    rows: list[np.ndarray] = []
    kinds: list[str] = []
    for side in decay_sides:
        classes = classify_asymptotics(basis, side)
        for j, c in enumerate(classes):
            if c is AsymptoticClass.GROWING:
                row = np.zeros(batch + (4,), dtype=complex)
                row[..., j] = 1.0
                rows.append(row)
                kinds.append(f"decay[{side.value}] kills C{j + 1}")
    if points:
        entries = basis.point_rows(points)  # (points, 4), or (points, N, 4) for a batched basis
        m = np.abs(entries).max(axis=-1, keepdims=True)
        m[~(m > 0)] = 1.0  # a zero or non-finite row stays as it is
        rows.extend(entries / m)
        kinds.extend(f"phi({x:g}) = 0" if order == 0 else f"phi^({order})({x:g}) = 0" for x, order in points)

    # (rows, 4), or (N, rows, 4) for a batched basis
    matrix = np.array(rows, dtype=complex).swapaxes(0, -2) if rows else np.zeros((0, 4), dtype=complex)
    return ConstraintSystem(energy=energy, matrix=matrix, row_kinds=tuple(kinds), basis=basis)


def _finite_matrix(system: ConstraintSystem) -> np.ndarray:
    """The constraint matrix; raises for the energies whose rows hold a non-finite entry."""
    m = system.matrix
    if not np.isfinite(m).all():
        raise_where(
            ~np.isfinite(m).all(axis=(-2, -1)),
            lambda: PreconditionError("constraint matrix has non-finite entries"),
        )
    return m


def _nullity(svals: np.ndarray) -> np.ndarray:
    """4 - numerical rank: 4 minus the count of singular values above RANK_TOL * the largest."""
    # an all-zero matrix has rank 0: no singular value exceeds RANK_TOL * 0
    return 4 - (svals > RANK_TOL * svals[..., :1]).sum(axis=-1)


def nullity_of(system: ConstraintSystem) -> int | np.ndarray:
    """4 - numerical rank of the constraint matrix (singular values above RANK_TOL * the largest).

    An int, or an int array with one nullity per energy for a stacked
    (N, rows, 4) matrix, whose SVDs run in one call.  Only the singular
    values are read, and a matrix and its transpose have the same ones, so
    a matrix with no imaginary part (the well's real parts of complex exps,
    the harmonic potential's unit decay rows) is ranked by a float64 SVD,
    transposed to (N, 4, rows) when it has fewer rows than columns, which
    LAPACK takes faster.  A complex matrix keeps its shape: the linear
    (N, 3, 4) stack measured slower transposed.
    """
    m = _finite_matrix(system)
    if m.shape[-2] == 0:
        return 4 if m.ndim == 2 else np.full(m.shape[0], 4)
    if not m.imag.any():
        m = m.real
        if m.shape[-2] < m.shape[-1]:
            m = m.swapaxes(-2, -1)
    nullity = _nullity(np.linalg.svd(m, compute_uv=False))
    return int(nullity) if m.ndim == 2 else nullity


def nullspace(system: ConstraintSystem) -> tuple[int | np.ndarray, list]:
    """(nullity, orthonormal coefficient vectors) of the constraint system.

    The rank and the vectors come from one SVD.  For a stacked (N, rows, 4)
    matrix the SVDs run in one call and give an int array of N nullities
    and one list of vectors per energy.  Unlike ``nullity_of``, the SVD
    stays complex for a real matrix too: its right singular vectors are the
    states' coefficients, so the complex routine fixes their phases and
    thereby the bytes of ``wavefunctions.csv``.
    """
    m = _finite_matrix(system)
    if m.shape[-2] == 0:  # no rows: all four directions are free
        nullity, vh = np.full(m.shape[:-2], 4), np.zeros(m.shape[:-2] + (4, 4), dtype=complex)
    else:
        _, svals, vh = np.linalg.svd(m)
        nullity = _nullity(svals)

    def vectors(count: int, v) -> list[np.ndarray]:
        if count == 4:
            return [np.eye(4, dtype=complex)[:, j] for j in range(4)]
        # the conjugated rows of vh beyond the rank index are an orthonormal nullspace basis
        return list(v[4 - count :].conj())

    if m.ndim == 2:
        return int(nullity), vectors(int(nullity), vh)
    return nullity, [vectors(count, v) for count, v in zip(nullity.tolist(), vh)]


# --- explicit determinant-form coefficients (infinite well) ------------------------


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for complex arrays of one shape, formed on the real and imaginary parts as a
    scalar complex product forms it (numpy's vectorised product can differ in the last bit)."""
    out = np.empty_like(a)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _cross_triple(row_lo, row_hi) -> np.ndarray:
    """Solution d of the 2x3 homogeneous system [row_lo; row_hi] d = 0; zero where the rows are parallel.

    Rows of shape (3,), or (3,) + batch, whose d are each the one that
    entry's rows give alone (``_cmul``).
    """
    u, v = np.asarray(row_lo, dtype=complex), np.asarray(row_hi, dtype=complex)
    products = _cmul(u[[1, 2, 0, 2, 0, 1]], v[[2, 0, 1, 1, 2, 0]])  # u_i v_j, then u_j v_i
    return products[:3] - products[3:]


def _libm(fn, x):
    """``fn``, a function of ``math``, at a float or at each entry of a 1-D array.

    The seeds take libm's sine and cosine, which numpy's can differ from in
    the last bit.
    """
    return fn(x) if np.ndim(x) == 0 else np.array([fn(v) for v in x.tolist()])


def _determinant_vectors(values: np.ndarray, walls, triples, shifted_cos_kappa) -> np.ndarray:
    """Determinant-form coefficient 4-vectors of three-function well ansatzes, one per triple.

    Each triple selects basis indices (1-based); the vector is zero where
    the triple's determinant vanishes.  ``values`` are the basis values at
    the walls, shape (4, 2) + batch, used as they are: the wall-anchored
    exponentials of ``exact_constant_basis`` keep them in [0, 1].  In the
    last triple the third member is replaced by cos(shifted_cos_kappa (x - lo))
    (the wall-anchored cosine used at the special energies), expressed on the
    plain cos/sin pair.  The result has shape (len(triples),) + batch + (4,).
    """
    lo = walls[0]
    idx = np.array(triples) - 1
    rows = values.swapaxes(0, 1)[:, idx.T]  # (wall, member, triple) + batch
    k = shifted_cos_kappa
    rows[:, 2, -1] = [_libm(math.cos, k * (x - lo)) for x in walls]
    d = _cross_triple(rows[0], rows[1])
    out = np.zeros((len(idx), 4) + d.shape[2:], dtype=complex)
    for t, slots in enumerate(idx):
        used = 2 if t == len(idx) - 1 else 3
        out[t, slots[:used]] = d[:used, t]
    # cos(k(x - lo)) = cos(k lo) cos(kx) + sin(k lo) sin(kx)
    out[-1, 2] += d[2, -1] * _libm(math.cos, k * lo)
    out[-1, 3] += d[2, -1] * _libm(math.sin, k * lo)
    return out.transpose(0, *range(2, out.ndim), 1)


# --- bound states ----------------------------------------------------------------


def evaluate_states(coefficients, basis: FundamentalSet, x, order: int = 3) -> np.ndarray:
    """Derivatives 0..order of the states given as coefficient rows over one basis.

    Shape (rows, order + 1) + shape(x).  The set evaluates each basis
    function with a nonzero coefficient in some row once, into one stacked
    array (``FundamentalSet.derivatives``; the exact and WKB sets in one
    pass), and each row sums c_j w_j over its nonzero coefficients in basis
    order.

    A basis batched over N energies with parameters of shape (N, 1)
    evaluates every energy on a 1-D x at once, shape (rows, order + 1, N,
    len(x)); the coefficients are then shared, shape (rows, 4), or one set
    per energy, shape (rows, 4, N, 1), and a row whose coefficient vanishes
    at some energies only adds 0 * w_j there.
    """
    rows = np.asarray(coefficients, dtype=complex)
    nonzero = rows.any(axis=tuple(range(2, rows.ndim))).T.tolist()  # per basis function, per row
    used = [j for j, flags in enumerate(nonzero) if any(flags)]
    if not used:
        return np.zeros((len(rows), order + 1) + np.shape(x), dtype=complex)
    values = basis.derivatives(x, order, used)
    out = np.zeros((len(rows),) + values.shape[1:], dtype=complex)
    for j, d in zip(used, values):
        for r, flag in enumerate(nonzero[j]):
            if flag:
                out[r] += rows[r, j] * d
    return out


class StateFunction:
    """Linear combination of basis functions with fixed coefficients."""

    def __init__(self, coefficients: Sequence[complex], basis: FundamentalSet):
        self.coefficients = np.asarray(coefficients, dtype=complex)
        self.basis = basis
        if self.coefficients.shape != (len(self.basis),):
            raise PreconditionError("coefficient/basis size mismatch")

    def derivatives(self, x, order: int = 3) -> np.ndarray:
        """(value, d1, ..., d_order) at a float or an array x, shape (order + 1,) + shape(x)."""
        return evaluate_states(self.coefficients[None], self.basis, x, order=order)[0]

    def value(self, x):
        """The state at a float or an array x."""
        return self.derivatives(x, order=0)[0]


@dataclass(frozen=True)
class BoundStateSolution:
    energy_si: float
    energy_dimensionless: float
    degeneracy: int
    states: tuple[StateFunction, ...]
    gram: np.ndarray
    regions: tuple[tuple[float, float], ...] = field(default=())

    def values(self, x) -> np.ndarray:
        """Every state at a float or an array x, shape (degeneracy,) + shape(x).

        The states share one basis (``normalize`` builds them so), and each
        basis function is evaluated once for all of them.
        """
        rows = [s.coefficients for s in self.states]
        return evaluate_states(rows, self.states[0].basis, x, order=0)[:, 0]


def overlap_gram(basis: WkbSet, active: Sequence[int], regions: Sequence[tuple[float, float]]) -> np.ndarray:
    """Hermitian overlap matrix F_ij = int w_i w_j* of the ``active`` members (0-based) over the regions.

    Gauss-Legendre panels (``panel_integrals`` at _GRAM_TOL), seeded from
    the turning structure (``_seed_panels``) so that they pass the first
    round; a panel that fails is bisected, and each round asks the set for
    its active members' values on the nodes of all open panels, once.  It
    serves the WKB states, a ``WkbSet`` of one energy; the well's set has a
    closed form (``well_gram``).  Where a product w_i w_j* would pass the
    float range it raises ``BasisOverflowError`` (``_check_gram_range``)
    instead.
    """

    def integrand(x, width, _):
        v = basis.derivatives(x, 0, active)[:, 0]
        _check_gram_range(basis, active, v, x, width)
        return v[:, None] * (v.conj() * width)

    a, b, owner = _seed_panels(basis, active, regions)
    return panel_integrals(integrand, a, b, _GRAM_TOL, owner).sum(axis=-1)


def _panel_scales(basis: WkbSet, active: Sequence[int], lo: float, hi: float) -> list[tuple]:
    """(rate, gap_lo, gap_hi, zone) of each active member (0-based), which size the Gram panels on [lo, hi].

    ``rate`` bounds |d log w_j / dx| on [lo, hi] within ``zone``, an
    interval of x; outside it the member is negligible and sets no width.
    ``gap_lo`` and ``gap_hi`` are the distances from each end to the nearest
    point beyond it where w_j is singular (inf: none).

    A WKB branch changes its exponent at |eta lam_j|, lam_j^2 = a +- s,
    s = sqrt(a^2 - b): its largest value is at an end of a region that does
    not straddle the vertex of b.  Its amplitude is singular at the zeros of
    b and of a^2 - b.  The exponent is 0 at x0, and a fast branch (j = 1, 2)
    falls at least at eta sqrt(a) on one side of x0 (Re(a + s) >= a), so
    _GRAM_NEGLIGIBLE e-folds past x0 it leaves its zone.  The even
    continuation of a branch reads it at |x|: on the mirror piece (hi <= 0)
    the scales are those of [-hi, -lo] with the ends swapped.
    """
    inf = math.inf
    mirror = basis.even and hi <= 0.0
    if mirror:
        lo, hi = -hi, -lo
    p, zeros = basis.table.params, basis.table.branch_points
    gaps = (min((lo - z for z in zeros if z <= lo), default=inf), min((z - hi for z in zeros if z >= hi), default=inf))
    a, reach = p.a_coef, _GRAM_NEGLIGIBLE / (p.eta * math.sqrt(p.a_coef))
    scales = []
    for j in active:
        sign = 1.0 if j < 2 else -1.0
        rate = p.eta * max(math.sqrt(abs(a + sign * cmath.sqrt(a * a - p.b(x)))) for x in (lo, hi))
        zone = (-inf, inf)
        if j == 0:  # lam_1 = sqrt(a + s) falls to the left of x0
            zone = (p.x0 - reach, inf)
        elif j == 1:  # lam_2 = -sqrt(a + s) to the right
            zone = (-inf, p.x0 + reach)
        if mirror:
            scales.append((rate, gaps[1], gaps[0], (-zone[1], -zone[0])))
        else:
            scales.append((rate, *gaps, zone))
    return scales


def _graded(first: float, width: float, limit: float) -> list[float]:
    """Distances from an end of the edges of panels first, 2 first, 4 first, ...

    With ``first`` the gap from the end to a singular point, each panel is
    as wide as its distance from that point.  The grading stops before the
    first panel as wide as ``width`` or one that would reach ``limit``.
    """
    edges = [0.0]
    while 0.0 < first < width and edges[-1] + first < limit:
        edges.append(edges[-1] + first)
        first *= 2.0
    return edges


def _seed_panels(
    basis: WkbSet, active: Sequence[int], regions: Sequence[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, region) of each seeded Gram panel, from ``_panel_scales`` alone.

    A region splits into pieces at the zone ends inside it.  A piece's
    middle panels are at most _GRAM_EFOLDS / (2 rate) wide, rate the largest
    of the active members whose zone meets the piece, so no product w_i w_j*
    changes its exponent by more than _GRAM_EFOLDS across one; a piece
    takes at most _GRAM_MAX_SEEDS of them.  Toward an end whose gap to a
    singular point is below that width, the panels grade geometrically
    (``_graded``), so the 12-node rule converges on each as on a smooth
    function.  No exponent integral is evaluated.
    """
    edges, owner = [], []
    for k, (lo, hi) in enumerate(regions):
        scales = _panel_scales(basis, active, lo, hi)
        splits = sorted({z for *_, zone in scales for z in zone if lo < z < hi})
        ends = [lo, *splits, hi]
        for a, b in zip(ends[:-1], ends[1:]):
            rate = max((r for r, _, _, (z_lo, z_hi) in scales if z_lo < b and a < z_hi), default=0.0)
            length = b - a
            width = max(_GRAM_EFOLDS / (2.0 * rate) if rate > 0.0 else math.inf, length / _GRAM_MAX_SEEDS)
            # gaps are measured from the region's ends, and a piece lies inside it
            gap_lo = min(g for _, g, _, _ in scales) + (a - lo)
            gap_hi = min(g for _, _, g, _ in scales) + (hi - b)
            limit = 0.5 * length if gap_lo < width and gap_hi < width else length
            left = [a + d for d in _graded(gap_lo, width, limit)]
            right = [b - d for d in _graded(gap_hi, width, limit)]
            count = max(1, math.ceil((right[-1] - left[-1]) / width))
            step = (right[-1] - left[-1]) / count
            piece = left + [left[-1] + i * step for i in range(1, count)] + right[::-1]
            edges.append(np.array(piece))
            owner.append(np.full(len(piece) - 1, k))
    return (
        np.concatenate([e[:-1] for e in edges]),
        np.concatenate([e[1:] for e in edges]),
        np.concatenate(owner),
    )


# coefficients (-1)^n / (2n + 3)!, n = 0..11, of (t - sin t) / t^3 = sum c_n t^(2n):
# below t = 2 the twelfth term is under 3e-19 of the first
_SINC_DEFECT_SERIES = tuple((-1) ** n / math.factorial(2 * n + 3) for n in range(12))


def _sinc_defect(t: float) -> float:
    """1 - sin(t)/t, without the cancellation of the difference at small t."""
    if abs(t) >= 2.0:
        return 1.0 - math.sin(t) / t
    t2 = t * t
    acc = 0.0
    for c in reversed(_SINC_DEFECT_SERIES):
        acc = acc * t2 + c
    return t2 * acc


def well_gram(mu1: float, kappa: float, walls: tuple[float, float]) -> np.ndarray:
    """Closed-form overlap matrix F_ij = int w_i w_j* of the exact set of roots mu1, kappa over the walls.

    With L = hi - lo, S = hi + lo, t = kappa L and mu = mu1:

      * the layers' self-overlaps are (1 - e^{-2 mu L}) / (2 mu), formed with
        expm1, and their cross term is L e^{-mu L};
      * int e^{mu (x - hi)} e^{i kappa x} = (e^{i kappa hi} - e^{-mu L}
        e^{i kappa lo}) / (mu + i kappa), and the lower layer's likewise,
        give the exp-cos and exp-sin entries as real and imaginary parts;
      * cos^2 and sin^2 integrate to (L/2)(2 cos^2(kappa S/2) - cos(kappa S) d)
        and (L/2)(2 sin^2(kappa S/2) + cos(kappa S) d), d = 1 - sin(t)/t
        from ``_sinc_defect``, so neither cancels at small kappa L; cos sin
        integrates to (L/2) sin(kappa S) sin(t)/t.

    Every basis function is real, so F is real and symmetric.
    """
    lo, hi = walls
    mu, kappa = float(mu1), float(kappa)
    length, centre = hi - lo, hi + lo
    decay = math.exp(-mu * length)
    t = kappa * length
    half_s = 0.5 * kappa * centre
    d = _sinc_defect(t)
    c = math.cos(2.0 * half_s)
    upper = (cmath.exp(1j * kappa * hi) - decay * cmath.exp(1j * kappa * lo)) / (mu + 1j * kappa)
    lower = (cmath.exp(1j * kappa * lo) - decay * cmath.exp(1j * kappa * hi)) / (mu - 1j * kappa)
    layer = -math.expm1(-2.0 * mu * length) / (2.0 * mu)
    f = np.empty((4, 4))
    f[0, 0] = f[1, 1] = layer
    f[0, 1] = f[1, 0] = length * decay
    f[0, 2], f[0, 3] = upper.real, upper.imag
    f[1, 2], f[1, 3] = lower.real, lower.imag
    f[2, 0], f[3, 0], f[2, 1], f[3, 1] = f[0, 2], f[0, 3], f[1, 2], f[1, 3]
    f[2, 2] = 0.5 * length * (2.0 * math.cos(half_s) ** 2 - c * d)
    f[3, 3] = 0.5 * length * (2.0 * math.sin(half_s) ** 2 + c * d)
    f[2, 3] = f[3, 2] = 0.5 * length * math.sin(2.0 * half_s) * math.sin(t) / t
    return f.astype(complex)


def _check_gram_range(
    basis: WkbSet, active: Sequence[int], v: np.ndarray, x: np.ndarray, width: np.ndarray
) -> None:
    """Raise BasisOverflowError where a Gram product w_i w_j* * width of the active members would overflow.

    The largest product on a node is the largest |w|^2 times the panel width,
    so |w| sqrt(width) > sqrt(max float) is the overflow condition, and
    testing it cannot itself overflow.  Per function the limit is the
    log-magnitude log sqrt(max float) - log(width) / 2: 354.9 on a panel of
    width 1, and the message gives it at the width of the failing node's
    panel.  It names the failing member by its branch (``WkbBasisFunction``).
    """
    scaled = np.abs(v) * np.sqrt(width)
    hit = np.any(scaled > _SQRT_FLOAT_MAX, axis=0)
    if not hit.any():
        return
    node = np.unravel_index(np.argmin(np.where(hit, x, np.inf)), x.shape)
    i = int(np.argmax(scaled[(slice(None),) + node]))
    log_abs = math.log(abs(complex(v[(i,) + node])))
    panel = float(width[node[0], 0])
    limit = math.log(_SQRT_FLOAT_MAX) - 0.5 * math.log(panel)
    member = repr(WkbBasisFunction(basis.table, active[i] + 1))
    if basis.even:
        member = f"the even continuation of {member}"
    raise BasisOverflowError(
        f"Gram products w_i w_j* pass the float range: log|w| = {log_abs:.6g} at "
        f"x={float(x[node]):.6g} for {member}, beyond the limit {limit:.6g} "
        f"at its panel width {panel:.6g}",
        exponent=log_abs,
    )


def normalize(
    vectors: Sequence[np.ndarray],
    basis: FundamentalSet,
    regions: Sequence[tuple[float, float]],
    problem: DimensionlessProblem,
    energy: float,
    orthogonalize: bool = True,
    growing_guard: Sequence[int] = (),
    gram: np.ndarray | None = None,
) -> BoundStateSolution:
    """Unit-normalize (and optionally pairwise orthogonalize) coefficient vectors.

    Norms are the Gram quadratic form c^H F c over the actively used basis
    subset: the block of ``gram``, the whole basis's overlap matrix when it
    is known in closed form (the well's ``well_gram``), or else F from
    composite Gauss-Legendre panels over ``regions`` (``overlap_gram``;
    growing branches with zero coefficient are never integrated).  The
    first vector's direction is preserved by the modified Gram-Schmidt
    sweep, so a seeded state (e.g. the wall-to-wall sine) survives
    orthogonalization unchanged up to scale.  ``growing_guard``
    lists 1-based coefficient slots that must vanish for the state to be
    normalizable (growing branches on unbounded domains).
    """
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    if not vecs:
        raise NormalizationError("no coefficient vectors supplied")
    for v in vecs:
        if not v.any():
            raise NormalizationError("zero coefficient vector is not a state")
        for idx in growing_guard:
            if abs(v[idx - 1]) > 1e-12 * np.max(np.abs(v)):
                raise NormalizationError(
                    f"coefficient C{idx} multiplies a growing branch; state not normalizable"
                )

    active = np.flatnonzero((np.abs(vecs) > 0.0).any(axis=0))
    if gram is None:
        f_sub = overlap_gram(basis, active.tolist(), regions)
    else:
        f_sub = np.asarray(gram)[np.ix_(active, active)]
    herm_defect = np.max(np.abs(f_sub - f_sub.conj().T))
    if herm_defect > 1e-8 * max(1.0, float(np.max(np.abs(f_sub)))):
        raise NormalizationError(f"overlap matrix not Hermitian (defect {herm_defect:.2e})")

    f_conj = f_sub.conj()

    def inner(u: np.ndarray, v: np.ndarray) -> complex:
        # F_ij = int w_i w_j^*, so <u, v> = u^H conj(F) v
        with np.errstate(over="ignore", invalid="ignore"):
            value = complex(np.conj(u[active]) @ f_conj @ v[active])
        if not cmath.isfinite(value) and np.isfinite(f_sub).all():
            _form_overflow(u[active], f_sub, v[active])
        return value

    states: list[np.ndarray] = []
    for v in vecs:
        w = v.copy()
        if orthogonalize:
            for u in states:
                w = w - inner(u, w) * u
        n2 = inner(w, w).real
        if not (n2 > 0.0 and math.isfinite(n2)):
            raise NormalizationError(f"state norm^2 = {n2}: vector not normalizable")
        states.append(w / math.sqrt(n2))

    return BoundStateSolution(
        energy_si=problem.energy_to_si(energy),
        energy_dimensionless=energy,
        degeneracy=len(states),
        states=tuple(StateFunction(c, basis) for c in states),
        gram=f_sub,
        regions=tuple(regions),
    )


def _form_overflow(u: np.ndarray, f: np.ndarray, v: np.ndarray) -> None:
    """Raise BasisOverflowError for a Gram form u^H conj(F) v of finite factors that left the float range.

    The message gives log sum |u_i F_ij v_j|, which bounds the form, against
    the limit log(max float), from logs alone so that naming it cannot
    overflow.
    """
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(u))[:, None] + np.log(np.abs(f)) + np.log(np.abs(v))
    log_sum = float(np.logaddexp.reduce(logs, axis=None))
    raise BasisOverflowError(
        f"the Gram form c^H F c of a state passes the float range: log sum |c_i F_ij c_j| = {log_sum:.6g}, "
        f"beyond the limit {math.log(np.finfo(float).max):.6g}",
        exponent=log_sum,
    )


# --- per-potential solvers ---------------------------------------------------------


def conditions_for(problem: DimensionlessProblem) -> list[BoundaryCondition]:
    lo, hi = problem.domain
    if problem.kind == "well":
        return [point_zero(lo), point_zero(hi)]
    if problem.kind == "linear":
        return [point_zero(lo), decay_at(Side.PLUS_INFINITY)]
    if problem.kind == "harmonic":
        return [decay_at(Side.MINUS_INFINITY), decay_at(Side.PLUS_INFINITY)]
    raise WrongPotentialError(f"no boundary conditions for kind {problem.kind!r}")


def well_basis(problem: DimensionlessProblem, energy):
    """Roots and exact basis at one energy, or batched over an array of energies."""
    if problem.kind != "well":
        raise WrongPotentialError("well basis requested for a non-well problem")
    roots = characteristic_roots(problem.epsilon, energy)
    return roots, exact_constant_basis(roots, problem.domain)


def solve_well(
    problem: DimensionlessProblem,
    energy,
    orthogonalize: bool = True,
    extra_conditions: Sequence[float | tuple[float, int]] = (),
) -> BoundStateSolution | list[BoundStateSolution]:
    """Degenerate pair for the infinite well at dimensionless energy > 0.

    At the special energies (kappa = k*pi/2a) the first state is the
    wall-to-wall sine; elsewhere the pair is the determinant-form construction
    on the (w1,w2,w3) and (w2,w3,w4) triples.  Both are cross-checked against
    the numerical nullspace.

    A 1-D array of energies gives one solution per energy from one stacked
    pass, and a float, a batch of one, gives its solution.  The pass forms
    one batched basis and (N, rows, 4) wall system, takes every rank and
    nullspace from one stacked SVD, and forms the seeds and their row
    residuals for every energy at once; the nullspace top-up (where a seed
    fails), the closed-form Gram and the normalization run per energy.  Per
    energy the arithmetic is that of a batch of one, so each solution is bit
    for bit the one its energy gives alone.  ``extra_conditions`` apply to
    every energy; an error names the energies it concerns as ``failed``.
    """
    lo, hi = problem.domain
    energies = np.asarray(energy, dtype=float).reshape(-1)
    roots, basis = well_basis(problem, energies)
    system = assemble(basis, conditions_for(problem), energies, extra_conditions=extra_conditions)
    nullity, null_vecs = nullspace(system)
    raise_where(nullity == 0, lambda e: NormalizationError(f"no bound state at e={e} (nullity 0)"), energies)

    # special energies: kappa (hi - lo) / pi within 1e-9 of an integer k >= 1
    kappa = roots.kappa
    ratio = kappa * (hi - lo) / math.pi
    k = np.rint(ratio)
    special = ((k >= 1) & (np.abs(ratio - k) < 1e-9))[:, None]
    # sin(kappa(x - lo)) expressed on (cos, sin); lo = -|lo|
    sine = np.zeros((energies.size, 4), dtype=complex)
    sine[:, 2], sine[:, 3] = _libm(math.sin, kappa * abs(lo)), _libm(math.cos, kappa * abs(lo))
    values = basis.derivatives(np.array([[lo], [hi]]), 0, range(4))[:, 0]  # (4, 2, N)
    first, second, partner = _determinant_vectors(values, (lo, hi), [(1, 2, 3), (2, 3, 4), (1, 2, 3)], kappa)
    seeds = np.empty((energies.size, 2, 4), dtype=complex)
    seeds[:, 0], seeds[:, 1] = np.where(special, sine, first), np.where(special, partner, second)
    # keep seeds that genuinely satisfy the walls (a vanishing triple is dropped)
    keep = system.row_residual(seeds) < 1e-8

    solutions, failed, error = [], np.zeros(energies.size, dtype=bool), None
    columns = zip(energies.tolist(), nullity.tolist(), keep.tolist(), null_vecs, roots.mu1.tolist(), kappa.tolist())
    for n, (e, count, kept, vecs, mu1, kap) in enumerate(columns):
        good = [s for s, ok in zip(seeds[n], kept) if ok]
        if len(good) < count:  # top up from the nullspace
            for v in vecs:
                if len(good) >= count:
                    break
                w = v.copy()
                for u in good:
                    u_n = u / np.linalg.norm(u)
                    w = w - (np.conj(u_n) @ w) * u_n
                if np.linalg.norm(w) > 1e-6:
                    good.append(w)
        one_basis, gram = ExactConstantSet(mu1, kap, (lo, hi)), well_gram(mu1, kap, (lo, hi))
        try:
            solutions.append(normalize(good[:count], one_basis, [(lo, hi)], problem, e, orthogonalize, gram=gram))
        except NormalizationError as exc:
            failed[n], error = True, error or exc
    raise_where(failed, lambda: error)
    return solutions if np.ndim(energy) else solutions[0]


@dataclass(frozen=True)
class WkbAssembly:
    """The interior WKB set of an unbounded potential at one energy, or batched over an array of energies.

    ``basis`` is a ``WkbSet``, which reads its exponent table and forms no
    branch; ``b_zeros`` and ``s_zeros`` are the region map's zeros.
    """

    basis: WkbSet
    b_zeros: tuple[float, ...]
    s_zeros: tuple[float, ...]


_LINEAR_X0_MIN = 1e-3  # the linear reference point keeps this far from the wall


def wkb_assembly(problem: DimensionlessProblem, energy) -> WkbAssembly:
    """The interior WKB set of the linear or harmonic potential at one energy.

    It lives on the positive half-line: the linear domain, or the harmonic
    tail whose mirror image is the negative one.  The piece runs from the
    wall (linear) or the turning point x_t (harmonic) to the zero of
    a^2 - b, a turning window clear of the zeros.  The harmonic set is the
    branches' even continuations.  The piece's exponent table, with its
    reference-point check, is built here, and no branch is (``WkbSet``).

    For an array of energies this is one batched pass: the parameters, zeros,
    pieces and reference points hold one entry per energy, and the set
    evaluates every energy at once.  A failed precondition raises for the
    batch with the failing energies as the error's ``failed``.
    """
    if problem.kind not in ("linear", "harmonic"):
        raise WrongPotentialError(f"WKB assembly not implemented for kind {problem.kind!r}")
    raise_where(np.less_equal(energy, 0), lambda: PreconditionError("energy must be > 0"))
    params0 = WkbParameters.from_problem(problem, energy, x0=0.0)
    rmap = map_regions(params0, 0.0, math.inf)
    (x_t,), (s_zero,) = rmap.b_zeros, rmap.s_zeros
    if problem.kind == "linear":
        raise_where(
            x_t - TURNING_WINDOW_HALF_WIDTH < _LINEAR_X0_MIN,
            lambda e, xt: PreconditionError(_linear_wall_message(problem, e, xt)),
            energy,
            x_t,
        )
        piece = (0.0, s_zero - TURNING_WINDOW_HALF_WIDTH)
        x0 = np.maximum(np.minimum(0.45 * x_t, x_t - 3 * TURNING_WINDOW_HALF_WIDTH), _LINEAR_X0_MIN)
    else:
        piece = (x_t + TURNING_WINDOW_HALF_WIDTH, s_zero - TURNING_WINDOW_HALF_WIDTH)
        raise_where(
            piece[1] <= piece[0],
            lambda xt, sz: PreconditionError(_harmonic_band_message(problem, params0, xt, sz)),
            x_t,
            s_zero,
        )
        x0 = 0.5 * (piece[0] + piece[1])
    params = WkbParameters.from_problem(problem, energy, x0=x0)
    basis = wkb_branches(params, piece, rmap, even=problem.kind == "harmonic")
    return WkbAssembly(basis=basis, b_zeros=rmap.b_zeros, s_zeros=rmap.s_zeros)


def _linear_wall_message(problem: DimensionlessProblem, energy: float, x_t: float) -> str:
    """Why the linear turning point is too close to the wall, with the lowest energy that works."""
    # x_t = e / slope, so the limit on x_t is one on the energy
    e_min = energy * (TURNING_WINDOW_HALF_WIDTH + _LINEAR_X0_MIN) / x_t
    return (
        f"turning point x_t={x_t:.3g} is too close to the wall at x=0: its turning "
        f"window (half-width {TURNING_WINDOW_HALF_WIDTH}) must leave out the reference "
        f"point x0={_LINEAR_X0_MIN:g}, so x_t >= {TURNING_WINDOW_HALF_WIDTH + _LINEAR_X0_MIN:g}; "
        f"the lowest energy that works is about {problem.energy_to_si(e_min):.4g} J "
        f"(dimensionless {e_min:.4g})"
    )


def _harmonic_band_message(
    problem: DimensionlessProblem, params: WkbParameters, x_t: float, s_zero: float
) -> str:
    """Why the harmonic forbidden band is too thin, with the limit that lifts it.

    For v = c x^2 the band runs from sqrt(e/c) to sqrt((e + k)/c), where
    k = 2 a^2 = 1/(4 eps), so it narrows as e rises.  It is wider than the
    two windows, g = 2 * half-width, while sqrt(e) < (k - g^2 c) / (2 g sqrt(c)).
    With k <= g^2 c no energy works, and since k scales as 1/eps the limit is
    eps < eps k / (g^2 c).
    """
    c = 0.5 * problem.v_coefficients[2]
    k = 2.0 * params.a_coef**2
    gap = 2.0 * TURNING_WINDOW_HALF_WIDTH
    band = (
        f"forbidden band ({x_t:.5g}, {s_zero:.5g}) thinner than the turning windows "
        f"(half-width {TURNING_WINDOW_HALF_WIDTH}); the band narrows as the energy rises"
    )
    if k <= gap * gap * c:
        eps_max = problem.epsilon * k / (gap * gap * c)
        beta_max = problem.setup.beta * eps_max / problem.epsilon
        return (
            f"{band}, and at epsilon {problem.epsilon:.4g} no energy works: epsilon must be "
            f"below about {eps_max:.4g} (beta {beta_max:.4g})"
        )
    e_max = ((k - gap * gap * c) / (2.0 * gap * math.sqrt(c))) ** 2
    return (
        f"{band}: the highest energy that works is about {problem.energy_to_si(e_max):.4g} J "
        f"(dimensionless {e_max:.4g}); lower the energy or decrease epsilon (beta)"
    )


def degrees_of_freedom(
    problem: DimensionlessProblem, energy
) -> tuple[int | np.ndarray, ConstraintSystem]:
    """Nullity of the assembled boundary system at one energy.

    For every potential ``energy`` may be an array, which runs as one
    batched pass: one batched basis, one stacked (N, rows, 4) system and one
    SVD call, with one nullity per energy (an int array).  The well's counts
    and matrices are bit for bit the per-energy ones; the WKB matrices agree
    with them to rounding.  An error at any energy raises for the whole
    batch; a WKB error carries the energies it concerns as ``failed``.
    """
    conditions = conditions_for(problem)
    if problem.kind == "well":
        _, basis = well_basis(problem, energy)
        system = assemble(basis, conditions, energy)
    else:
        system = assemble(wkb_assembly(problem, energy).basis, conditions, energy)
    return nullity_of(system), system


def solve_linear(
    problem: DimensionlessProblem, energy: float, orthogonalize: bool = True
) -> BoundStateSolution:
    """Single bound state phi = C2 w2 - C2 w2(0)/w4(0) w4 for V proportional to x."""
    asm = wkb_assembly(problem, energy)
    lo, _ = problem.domain
    # integrable tail: cut where the state has dropped ~30 decades from its peak
    (x_t,), (s_zero,) = asm.b_zeros, asm.s_zeros
    # near the lowest energy x_t - 2 W falls below the grid start, which is then the only point
    peak_hi = max(lo + 1e-3, x_t - 2 * TURNING_WINDOW_HALF_WIDTH)
    cut = s_zero - TURNING_WINDOW_HALF_WIDTH
    if not cut < s_zero:  # past 2**49 the float spacing, 0.125, rounds cut up to s_zero: the pole
        scale = s_zero / 2.0**49  # s_zero ~ a^2 / b' falls as 1/eps, and eps rises with beta
        raise PreconditionError(
            f"the zero of a^2 - b at x={s_zero:.4g} lies past {2.0**49:.4g} (2**49), where x - "
            f"{TURNING_WINDOW_HALF_WIDTH} (its turning window) rounds to x itself, so the state's tail would "
            f"end on the pole there; the smallest beta that passes this limit is about "
            f"{problem.setup.beta * scale:.4g} (epsilon {problem.epsilon * scale:.4g})"
        )
    xs = np.linspace(x_t + 2 * TURNING_WINDOW_HALF_WIDTH, cut, 60)
    # the wall, the 9 points of the peak, then the tail, in one query of both branches
    logs = asm.basis.table.logs(np.concatenate([[lo], np.linspace(lo + 1e-3, peak_hi, 9), xs]), (2, 4))
    # the quotient of the two wall values, each by the scalar cmath exp: one
    # exp of their log difference rounds otherwise and moves the bytes of the
    # linear wavefunctions.csv (the README's --beta 1e45 example)
    ratio = _capped_exp(complex(logs[0, 0]), lo, "WKB") / _capped_exp(complex(logs[1, 0]), lo, "WKB")
    coeffs = np.array([0.0, 1.0, 0.0, -ratio], dtype=complex)

    w2_log, w4_log = logs[:, 1:].real
    state_log = np.maximum(w2_log, w4_log + math.log(abs(ratio) + 1e-300))
    below = np.flatnonzero(state_log[9:] < state_log[:9].max() - 70.0)
    if below.size:
        cut = float(xs[below[0]])
    regions = [
        (lo, x_t - TURNING_WINDOW_HALF_WIDTH),
        (x_t + TURNING_WINDOW_HALF_WIDTH, cut),
    ]
    return normalize(
        [coeffs],
        asm.basis,
        regions=[r for r in regions if r[0] < r[1]],
        problem=problem,
        energy=energy,
        orthogonalize=orthogonalize,
        growing_guard=(1, 3),
    )


def solve_harmonic(
    problem: DimensionlessProblem, energy: float, orthogonalize: bool = True
) -> BoundStateSolution:
    """Two-sided-decay pair spanned by the outward-decaying branches w2, w4.

    States are represented on the forbidden-band tails (|x| between the
    classical turning point and the branch-degeneracy radius); the overlap
    metric for normalization/orthogonalization runs over those tails.
    Connecting across the interior allowed region requires turning-point
    formulas outside this method's scope.
    """
    asm = wkb_assembly(problem, energy)
    lo, hi = asm.basis.table.interval
    regions = [(-hi, -lo), (lo, hi)]  # the mirror piece, then the piece
    vec2 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    vec4 = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    return normalize(
        [vec2, vec4],
        asm.basis,
        regions=regions,
        problem=problem,
        energy=energy,
        orthogonalize=orthogonalize,
        growing_guard=(1, 3),
    )


def bound_states(
    problem: DimensionlessProblem, energy: float, orthogonalize: bool = True
) -> BoundStateSolution:
    if problem.kind == "well":
        return solve_well(problem, energy, orthogonalize=orthogonalize)
    if problem.kind == "linear":
        return solve_linear(problem, energy, orthogonalize=orthogonalize)
    if problem.kind == "harmonic":
        return solve_harmonic(problem, energy, orthogonalize=orthogonalize)
    raise WrongPotentialError(
        f"bound-state construction not implemented for kind {problem.kind!r}"
    )
