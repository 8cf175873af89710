"""Boundary conditions, degrees of freedom, and normalized bound states.

A general solution is phi = sum_j C_j w_j over a four-function fundamental
set.  Boundary conditions become linear rows on (C_1..C_4):

  * a point condition phi(xp) = 0 is the row [w_1(xp), ..., w_4(xp)];
  * a decay condition toward one side zeroes the coefficients of the basis
    functions whose asymptotic class toward that side is Growing (one unit
    row each).

The count of degrees of freedom (nullity of the assembled system) is the
degeneracy of the energy; key boundary conditions (KBCs) are those that make
states bounded, and the case split two-sided-support / wall-plus-decay /
two-sided-decay predicts the count 4-2=2 / 4-3=1 / 4-2=2 before any matrix is
formed.

Conditioning: the infinite-well exponentials are anchored at the walls
(``exact_constant_basis``), so every wall value lies in [0, 1] at any
epsilon.  WKB values can pass the exponent cap (the linear wall at x = 0), so
each point row is formed with one log shift, the largest log|w_j(x)| in the
row, and is then scaled to unit max magnitude.  No column carries a scale:
null vectors are the true coefficient vectors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .basis import (
    AsymptoticClass,
    BasisFunction,
    Side,
    SymmetrizedBasisFunction,
    TURNING_WINDOW_HALF_WIDTH,
    WkbParameters,
    characteristic_roots,
    exact_constant_basis,
    map_regions,
    wkb_basis,
)
from .core import DimensionlessProblem
from .errors import (
    ClassificationError,
    DegenerateBasisError,
    InvalidConditionsError,
    NormalizationError,
    PreconditionError,
    WrongPotentialError,
)

RANK_TOL = 1e-10


class Case(Enum):
    I = "I"
    II = "II"
    III = "III"
    UNBOUND = "Unbound"


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str  # point_zero | decay_plus | decay_minus | vanish_on_ray
    location: float | None = None
    side: Side | None = None
    is_key: bool = True

    def __post_init__(self):
        if self.kind == "point_zero" and self.location is None:
            raise InvalidConditionsError("point_zero needs a location")
        if self.kind == "vanish_on_ray" and (self.side is None or self.location is None):
            raise InvalidConditionsError("vanish_on_ray needs a side and a cut location")


def point_zero(x: float, is_key: bool = True) -> BoundaryCondition:
    return BoundaryCondition(kind="point_zero", location=float(x), is_key=is_key)


def decay_at(side: Side, is_key: bool = True) -> BoundaryCondition:
    kind = "decay_plus" if side is Side.PLUS_INFINITY else "decay_minus"
    return BoundaryCondition(kind=kind, side=side, is_key=is_key)


def vanish_on_ray(side: Side, cut: float, is_key: bool = True) -> BoundaryCondition:
    return BoundaryCondition(kind="vanish_on_ray", side=side, location=float(cut), is_key=is_key)


@dataclass(frozen=True)
class CaseClassification:
    case: Case
    kbc_count: int
    non_kbc_count: int
    predicted_dof: int


def classify(conditions: Sequence[BoundaryCondition]) -> CaseClassification:
    """Case split and predicted degrees of freedom from the condition set.

    Two-sided compact support (walls/rays): the applied conditions subtract
    directly from the four coefficients.  A decay condition pins the two
    outward-growing coefficients on its side; with a wall that determines
    three, with a second decay the pair counts once (the same outward pair is
    removed), leaving two.
    """
    conditions = list(conditions)
    if not conditions:
        raise InvalidConditionsError("nonempty condition list required")

    rays = [c for c in conditions if c.kind == "vanish_on_ray"]
    left_cuts = [c.location for c in rays if c.side is Side.MINUS_INFINITY]
    right_cuts = [c.location for c in rays if c.side is Side.PLUS_INFINITY]
    if left_cuts and right_cuts and max(left_cuts) >= min(right_cuts):
        raise InvalidConditionsError(
            f"vanishing rays overlap (empty interior): cuts {max(left_cuts)} >= {min(right_cuts)}"
        )

    kbcs = [c for c in conditions if c.is_key]
    non_kbc = len(conditions) - len(kbcs)
    has_decay_plus = any(c.kind == "decay_plus" for c in kbcs)
    has_decay_minus = any(c.kind == "decay_minus" for c in kbcs)
    key_points = [c for c in kbcs if c.kind in ("point_zero", "vanish_on_ray")]

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
    """Rows on the coefficient vector at fixed energy, each of unit max magnitude."""

    energy: float
    matrix: np.ndarray
    row_kinds: tuple[str, ...]
    basis: tuple[BasisFunction, ...]

    def row_residual(self, coefficients: np.ndarray) -> float:
        """max |row . c| over rows for a unit coefficient vector."""
        if self.matrix.shape[0] == 0:
            return 0.0
        c = np.asarray(coefficients, dtype=complex)
        return float(np.max(np.abs(self.matrix @ (c / np.linalg.norm(c)))))


def assemble(
    basis: Sequence[BasisFunction],
    conditions: Sequence[BoundaryCondition],
    energy: float,
    extra_conditions: Sequence[float | tuple[float, int]] = (),
    far_basis: Sequence[BasisFunction] | None = None,
) -> ConstraintSystem:
    """Build the linear system; decay rows select Growing-class coefficients.

    ``extra_conditions`` injects additional point conditions for sensitivity
    studies: a bare x means phi(x) = 0, a pair (x, k) means phi^(k)(x) = 0
    (hard walls themselves impose only phi = 0).  ``far_basis`` continues the
    basis past the last validity boundary; its asymptotic classes decide the
    decay rows (default: the classes of ``basis`` itself).
    """
    basis = tuple(basis)
    if len(basis) != 4:
        raise PreconditionError(f"need the 4-function fundamental set, got {len(basis)}")

    points: list[tuple[float, int]] = []
    decay_sides: list[Side] = []
    for c in conditions:
        if c.kind == "point_zero":
            points.append((float(c.location), 0))
        elif c.kind == "vanish_on_ray":
            points.append((float(c.location), 0))  # support edge: phi vanishes at the cut
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

    rows: list[np.ndarray] = []
    kinds: list[str] = []
    for side in decay_sides:
        for j, f in enumerate(basis if far_basis is None else far_basis):
            cls = f.asymptotic_class(side)
            if cls is AsymptoticClass.UNDEFINED:
                raise ClassificationError(
                    f"asymptotic class of basis {j + 1} toward {side.value} is undefined; "
                    "widen the classification probes"
                )
            if cls is AsymptoticClass.GROWING:
                row = np.zeros(4, dtype=complex)
                row[j] = 1.0
                rows.append(row)
                kinds.append(f"decay[{side.value}] kills C{j + 1}")
    for x, order in points:
        if order == 0:
            shift = max(f.log_abs(x) for f in basis)
            row = np.array([f.scaled_value(x, shift) for f in basis], dtype=complex)
        else:
            row = np.array([f.derivatives(x, order=order)[order] for f in basis], dtype=complex)
        m = np.max(np.abs(row))
        if m > 0:
            row = row / m
        rows.append(row)
        kinds.append(f"phi({x:g}) = 0" if order == 0 else f"phi^({order})({x:g}) = 0")

    matrix = np.array(rows, dtype=complex) if rows else np.zeros((0, 4), dtype=complex)
    return ConstraintSystem(energy=energy, matrix=matrix, row_kinds=tuple(kinds), basis=basis)


def nullity_of(system: ConstraintSystem, rank_tol: float = RANK_TOL) -> int:
    """4 - numerical rank of the constraint matrix."""
    m = system.matrix
    if not np.all(np.isfinite(m.view(float))):
        raise PreconditionError("constraint matrix has non-finite entries")
    if m.shape[0] == 0:
        return 4
    svals = np.linalg.svd(m, compute_uv=False)
    smax = svals[0] if svals.size else 0.0
    if smax == 0.0:
        return 4
    return 4 - int(np.sum(svals > rank_tol * smax))


def nullspace(
    system: ConstraintSystem, rank_tol: float = RANK_TOL
) -> tuple[int, list[np.ndarray]]:
    """(nullity, orthonormal coefficient vectors) of the constraint system."""
    nullity = nullity_of(system, rank_tol=rank_tol)
    if nullity == 4:
        return 4, [np.eye(4, dtype=complex)[:, j] for j in range(4)]
    if nullity == 0:
        return 0, []
    _, _, vh = np.linalg.svd(system.matrix)
    # the conjugated rows of vh beyond the rank index are an orthonormal nullspace basis
    return nullity, list(vh[4 - nullity :].conj())


# --- explicit determinant-form coefficients (infinite well) ------------------------


def _cross_triple(row_lo: np.ndarray, row_hi: np.ndarray) -> np.ndarray:
    """Nonzero solution of the 2x3 homogeneous system [row_lo; row_hi] d = 0."""
    u, v = np.asarray(row_lo, dtype=complex), np.asarray(row_hi, dtype=complex)
    d = np.array(
        [
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        ]
    )
    if np.max(np.abs(d)) == 0.0:
        raise DegenerateBasisError("vanishing determinant triple; fall back to the nullspace")
    return d


def well_coefficients(
    basis: Sequence[BasisFunction],
    walls: tuple[float, float],
    triple: tuple[int, int, int],
    shifted_cos_kappa: float | None = None,
) -> np.ndarray:
    """Determinant-form coefficient 4-vector for a three-function well ansatz.

    ``triple`` selects basis indices (1-based).  With ``shifted_cos_kappa`` the
    third member is replaced by cos(kappa*(x - lo)) (the wall-anchored cosine
    used at the special energies), expressed on the plain cos/sin pair.

    The basis values at the walls are used as they are: the wall-anchored
    exponentials of ``exact_constant_basis`` keep them in [0, 1].
    """
    lo, hi = walls

    def values_at(x: float) -> list[complex]:
        vals = [basis[idx - 1].value(x) for idx in triple[:-1]]
        if shifted_cos_kappa is None:
            return vals + [basis[triple[-1] - 1].value(x)]
        return vals + [complex(math.cos(shifted_cos_kappa * (x - lo)))]

    d = _cross_triple(values_at(lo), values_at(hi))
    out = np.zeros(4, dtype=complex)
    for slot, idx in enumerate(triple[:-1]):
        out[idx - 1] = d[slot]
    if shifted_cos_kappa is not None:
        k = shifted_cos_kappa
        # cos(k(x - lo)) = cos(k lo) cos(kx) + sin(k lo) sin(kx)
        out[2] += d[2] * math.cos(k * lo)
        out[3] += d[2] * math.sin(k * lo)
    else:
        out[triple[-1] - 1] = d[2]
    return out


# --- bound states ----------------------------------------------------------------


class StateFunction:
    """Linear combination of basis functions with fixed coefficients."""

    def __init__(self, coefficients: Sequence[complex], basis: Sequence[BasisFunction]):
        self.coefficients = np.asarray(coefficients, dtype=complex)
        self.basis = tuple(basis)
        if self.coefficients.shape != (len(self.basis),):
            raise PreconditionError("coefficient/basis size mismatch")

    def derivatives(self, x: float, order: int = 3) -> np.ndarray:
        out = np.zeros(order + 1, dtype=complex)
        for c, f in zip(self.coefficients, self.basis):
            if c != 0:
                out += c * f.derivatives(x, order=order)
        return out

    def value(self, x: float) -> complex:
        return self.derivatives(x, order=0)[0]

    def values(self, xs: np.ndarray) -> np.ndarray:
        """The state at every point of ``xs``; WKB bases evaluate the array in one call."""
        out = np.zeros(len(xs), dtype=complex)
        for c, f in zip(self.coefficients, self.basis):
            if c != 0:
                out += c * f.value_array(xs)
        return out

    def __call__(self, x: float) -> complex:
        return self.value(x)


@dataclass(frozen=True)
class BoundStateSolution:
    energy_si: float
    energy_dimensionless: float
    degeneracy: int
    states: tuple[StateFunction, ...]
    gram: np.ndarray
    regions: tuple[tuple[float, float], ...] = field(default=())


def overlap_gram(
    basis: Sequence[BasisFunction],
    regions: Sequence[tuple[float, float]],
    singular_points: Sequence[float] = (),
) -> np.ndarray:
    """Hermitian overlap matrix F_ij = int w_i w_j* over the given regions."""
    n = len(basis)
    f = np.zeros((n, n), dtype=complex)
    # every pair's real and imaginary quad samples the same abscissas; each
    # basis value is computed once per abscissa
    seen: dict[tuple[int, float], complex] = {}

    def value(k: int, x: float) -> complex:
        v = seen.get((k, x))
        if v is None:
            v = seen[(k, x)] = basis[k].value(x)
        return v

    with warnings.catch_warnings():
        # vanishing real/imaginary parts trip the roundoff detector; harmless
        warnings.simplefilter("ignore", IntegrationWarning)
        for i in range(n):
            for j in range(i, n):
                total = 0.0 + 0.0j
                for lo, hi in regions:
                    pts = [p for p in singular_points if lo < p < hi]
                    kw = dict(epsabs=1e-11, epsrel=1e-11, limit=300)
                    if pts:
                        kw["points"] = pts

                    def integrand_re(x, _i=i, _j=j):
                        return (value(_i, x) * np.conj(value(_j, x))).real

                    def integrand_im(x, _i=i, _j=j):
                        return (value(_i, x) * np.conj(value(_j, x))).imag

                    total += complex(
                        quad(integrand_re, lo, hi, **kw)[0], quad(integrand_im, lo, hi, **kw)[0]
                    )
                f[i, j] = total
                f[j, i] = np.conj(total)
    return f


def normalize(
    vectors: Sequence[np.ndarray],
    basis: Sequence[BasisFunction],
    regions: Sequence[tuple[float, float]],
    problem: DimensionlessProblem,
    energy: float,
    orthogonalize: bool = True,
    singular_points: Sequence[float] = (),
    growing_guard: Sequence[int] = (),
) -> BoundStateSolution:
    """Unit-normalize (and optionally pairwise orthogonalize) coefficient vectors.

    Norms are the Gram quadratic form c^H F c with F from adaptive quadrature
    over ``regions``; F is computed on the actively used basis subset (growing
    branches with zero coefficient are never integrated).  The first vector's
    direction is preserved by the modified Gram-Schmidt sweep, so a seeded
    state (e.g. the wall-to-wall sine) survives orthogonalization unchanged up
    to scale.  ``growing_guard`` lists 1-based coefficient slots that must
    vanish for the state to be normalizable (growing branches on unbounded
    domains).
    """
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    if not vecs:
        raise NormalizationError("no coefficient vectors supplied")
    for v in vecs:
        if np.max(np.abs(v)) == 0.0:
            raise NormalizationError("zero coefficient vector is not a state")
        for idx in growing_guard:
            if abs(v[idx - 1]) > 1e-12 * np.max(np.abs(v)):
                raise NormalizationError(
                    f"coefficient C{idx} multiplies a growing branch; state not normalizable"
                )

    active = [j for j in range(len(basis)) if any(abs(v[j]) > 0.0 for v in vecs)]
    sub_basis = [basis[j] for j in active]
    f_sub = overlap_gram(sub_basis, regions, singular_points=singular_points)
    herm_defect = np.max(np.abs(f_sub - f_sub.conj().T))
    if herm_defect > 1e-8 * max(1.0, float(np.max(np.abs(f_sub)))):
        raise NormalizationError(f"overlap matrix not Hermitian (defect {herm_defect:.2e})")

    def inner(u: np.ndarray, v: np.ndarray) -> complex:
        # F_ij = int w_i w_j^*, so <u, v> = u^H conj(F) v
        return complex(np.conj(u[active]) @ f_sub.conj() @ v[active])

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


def well_basis(problem: DimensionlessProblem, energy: float):
    if problem.kind != "well":
        raise WrongPotentialError("well basis requested for a non-well problem")
    roots = characteristic_roots(problem.epsilon, energy)
    return roots, exact_constant_basis(roots, problem.domain)


def special_kappa_index(problem: DimensionlessProblem, energy: float, tol: float = 1e-9) -> int | None:
    """k if kappa(E) is within tol of k*pi/(half-width) for the well, else None."""
    lo, hi = problem.domain
    half = 0.5 * (hi - lo)
    roots = characteristic_roots(problem.epsilon, energy)
    ratio = roots.kappa * 2.0 * half / math.pi
    k = round(ratio)
    if k >= 1 and abs(ratio - k) < tol:
        return k
    return None


def solve_well(
    problem: DimensionlessProblem,
    energy: float,
    orthogonalize: bool = True,
    extra_conditions: Sequence[float | tuple[float, int]] = (),
) -> BoundStateSolution:
    """Degenerate pair for the infinite well at dimensionless energy > 0.

    At the special energies (kappa = k*pi/2a) the first state is the
    wall-to-wall sine; elsewhere the pair is the determinant-form construction
    on the (w1,w2,w3) and (w2,w3,w4) triples.  Both are cross-checked against
    the numerical nullspace.
    """
    lo, hi = problem.domain
    roots, basis = well_basis(problem, energy)
    system = assemble(basis, conditions_for(problem), energy, extra_conditions=extra_conditions)
    nullity, null_vecs = nullspace(system)
    if nullity == 0:
        raise NormalizationError(f"no bound state at e={energy} (nullity 0)")

    k = special_kappa_index(problem, energy)
    seeds: list[np.ndarray]
    if k is not None:
        kap = roots.kappa
        sine = np.array([0.0, 0.0, math.sin(kap * abs(lo)), math.cos(kap * abs(lo))], dtype=complex)
        # sin(kappa(x - lo)) expressed on (cos, sin); lo = -|lo|
        try:
            partner = well_coefficients(basis, (lo, hi), (1, 2, 3), shifted_cos_kappa=kap)
        except DegenerateBasisError:
            partner = None
        seeds = [sine] + ([partner] if partner is not None else [])
    else:
        seeds = []
        for triple in ((1, 2, 3), (2, 3, 4)):
            try:
                seeds.append(well_coefficients(basis, (lo, hi), triple))
            except DegenerateBasisError:
                continue

    # keep seeds that genuinely satisfy the walls; top up from the nullspace
    good = [s for s in seeds if system.row_residual(s) < 1e-8]
    for v in null_vecs:
        if len(good) >= nullity:
            break
        w = v.copy()
        for u in good:
            u_n = u / np.linalg.norm(u)
            w = w - (np.conj(u_n) @ w) * u_n
        if np.linalg.norm(w) > 1e-6:
            good.append(w)

    # breakpoints at the inner edges of the wall layers (30 decay lengths) let
    # the Gram quadrature see layers too thin for it to find on its own
    layer = 30.0 / roots.mu1
    return normalize(
        good[:nullity],
        basis,
        regions=[(lo, hi)],
        problem=problem,
        energy=energy,
        orthogonalize=orthogonalize,
        singular_points=(lo + layer, hi - layer),
    )


@dataclass(frozen=True)
class WkbAssembly:
    """WKB fundamental set for an unbounded potential at one energy."""

    params: WkbParameters
    basis: tuple[BasisFunction, ...]
    far_basis: tuple[BasisFunction, ...]
    region_lo: float
    region_hi: float
    b_zeros: tuple[float, ...]
    s_zeros: tuple[float, ...]


def _linear_assembly(problem: DimensionlessProblem, energy: float) -> WkbAssembly:
    if energy <= 0:
        raise PreconditionError("energy must be > 0")
    params0 = WkbParameters.from_problem(problem, energy, x0=0.0)
    # locate turning structure on a window comfortably past the slow turning point
    slope = problem.v_derivs(1.0)[1]
    x_t_guess = energy / slope
    scan_hi = x_t_guess + 4.0 * (params0.a_coef**2) / max(slope, 1e-12) + 10.0
    rmap = map_regions(params0, 0.0, scan_hi)
    s_zero = min(rmap.s_zeros) if rmap.s_zeros else scan_hi
    x0 = min(0.45 * x_t_guess, x_t_guess - 3 * TURNING_WINDOW_HALF_WIDTH)
    x0 = max(x0, 1e-3)
    params = WkbParameters.from_problem(problem, energy, x0=x0)
    main_piece = (0.0, s_zero - TURNING_WINDOW_HALF_WIDTH)
    basis = tuple(wkb_basis(params, j, main_piece, region_map=rmap) for j in (1, 2, 3, 4))

    far_lo = s_zero + TURNING_WINDOW_HALF_WIDTH
    far_params = WkbParameters.from_problem(problem, energy, x0=far_lo + 0.5)
    far_piece = (far_lo, math.inf)
    far_basis = tuple(wkb_basis(far_params, j, far_piece, region_map=rmap) for j in (1, 2, 3, 4))
    return WkbAssembly(
        params=params,
        basis=basis,
        far_basis=far_basis,
        region_lo=0.0,
        region_hi=scan_hi,
        b_zeros=rmap.b_zeros,
        s_zeros=rmap.s_zeros,
    )


def _harmonic_assembly(problem: DimensionlessProblem, energy: float) -> WkbAssembly:
    if energy <= 0:
        raise PreconditionError("energy must be > 0")
    params0 = WkbParameters.from_problem(problem, energy, x0=0.0)
    curv = problem.v_derivs(1.0)[0]
    x_t = math.sqrt(energy / curv)
    x_q = math.sqrt((energy + 2.0 * params0.a_coef**2) / curv)
    scan_hi = x_q + 10.0
    rmap = map_regions(params0, 0.0, scan_hi)
    s_zero = min(rmap.s_zeros) if rmap.s_zeros else x_q
    mid_lo = x_t + TURNING_WINDOW_HALF_WIDTH
    mid_hi = s_zero - TURNING_WINDOW_HALF_WIDTH
    if mid_hi <= mid_lo:
        raise PreconditionError(
            f"forbidden band ({x_t:.3g}, {s_zero:.3g}) thinner than the turning windows; "
            "decrease epsilon (beta) or raise the energy"
        )
    params = WkbParameters.from_problem(problem, energy, x0=0.5 * (mid_lo + mid_hi))
    tail = tuple(wkb_basis(params, j, (mid_lo, mid_hi), region_map=rmap) for j in (1, 2, 3, 4))
    basis = tuple(SymmetrizedBasisFunction(f) for f in tail)

    far_lo = s_zero + TURNING_WINDOW_HALF_WIDTH
    far_params = WkbParameters.from_problem(problem, energy, x0=far_lo + 0.5)
    far = tuple(wkb_basis(far_params, j, (far_lo, math.inf), region_map=rmap) for j in (1, 2, 3, 4))
    far_basis = tuple(SymmetrizedBasisFunction(f) for f in far)
    return WkbAssembly(
        params=params,
        basis=basis,
        far_basis=far_basis,
        region_lo=-scan_hi,
        region_hi=scan_hi,
        b_zeros=rmap.b_zeros,
        s_zeros=rmap.s_zeros,
    )


def wkb_assembly(problem: DimensionlessProblem, energy: float) -> WkbAssembly:
    if problem.kind == "linear":
        return _linear_assembly(problem, energy)
    if problem.kind == "harmonic":
        return _harmonic_assembly(problem, energy)
    raise WrongPotentialError(f"WKB assembly not implemented for kind {problem.kind!r}")


def degrees_of_freedom(problem: DimensionlessProblem, energy: float) -> tuple[int, ConstraintSystem]:
    """Nullity of the assembled boundary system at one energy."""
    conditions = conditions_for(problem)
    if problem.kind == "well":
        _, basis = well_basis(problem, energy)
        system = assemble(basis, conditions, energy)
    else:
        asm = wkb_assembly(problem, energy)
        # decay rows come from far-field classes; point rows from the interior set
        system = assemble(asm.basis, conditions, energy, far_basis=asm.far_basis)
    return nullity_of(system), system


def solve_linear(
    problem: DimensionlessProblem, energy: float, orthogonalize: bool = True
) -> BoundStateSolution:
    """Single bound state phi = C2 w2 - C2 w2(0)/w4(0) w4 for V proportional to x."""
    asm = _linear_assembly(problem, energy)
    w2, w4 = asm.basis[1], asm.basis[3]
    lo, _ = problem.domain
    ratio = w2.value(lo) / w4.value(lo)
    coeffs = np.array([0.0, 1.0, 0.0, -ratio], dtype=complex)

    # integrable tail: cut where the state has dropped ~30 decades from its peak
    s_zero = min(asm.s_zeros) if asm.s_zeros else asm.region_hi
    x_t = min(asm.b_zeros) if asm.b_zeros else energy
    state_log = lambda x: max(w2.log_abs(x), w4.log_abs(x) + math.log(abs(ratio) + 1e-300))
    peak = max(state_log(x) for x in np.linspace(lo + 1e-3, x_t - 2 * TURNING_WINDOW_HALF_WIDTH, 9))
    cut = s_zero - TURNING_WINDOW_HALF_WIDTH
    for x in np.linspace(x_t + 2 * TURNING_WINDOW_HALF_WIDTH, cut, 60):
        if state_log(x) < peak - 70.0:
            cut = x
            break
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
    asm = _harmonic_assembly(problem, energy)
    regions = list(asm.basis[0].mirror_pieces)  # type: ignore[attr-defined]
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
