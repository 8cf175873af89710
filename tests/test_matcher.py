import cmath
import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from gupbic import (
    characteristic_roots,
    exact_constant_basis,
    nondimensionalize,
    residual,
)
from gupbic.basis import (
    ExactConstantSet,
    Side,
    WkbBasisFunction,
    _exp_derivatives,
    _exp_log,
    _exp_scaled,
    _trig_derivatives,
    _trig_logs,
    _trig_scaled,
    _trig_waves,
)
from gupbic.errors import (
    BasisOverflowError,
    ComplexQuartetError,
    DegenerateBasisError,
    GupBicError,
    InvalidConditionsError,
    NormalizationError,
    NumericalError,
    PreconditionError,
    ValidityError,
)
from gupbic.matcher import (
    _GRAM_TOL,
    RANK_TOL,
    BoundStateSolution,
    Case,
    ConstraintSystem,
    StateFunction,
    _cross_triple,
    _determinant_vectors,
    assemble,
    bound_states,
    classify,
    conditions_for,
    decay_at,
    degrees_of_freedom,
    evaluate_states,
    normalize,
    nullspace,
    nullity_of,
    overlap_gram,
    point_zero,
    solve_harmonic,
    solve_linear,
    solve_well,
    well_basis,
    well_gram,
    wkb_assembly,
)
from gupbic.panels import panel_integrals
from gupbic.spectrum import dof_scan, well_special_energies
from gupbic.verification import harmonic_setup_for, linear_setup_for, reference_well_setup

E1_DIMLESS = 2.918779290241783


def _member_derivatives(basis, j, x, order):
    """Derivatives 0..order of member j (0-based) of a set of one energy at x, formed on its own.

    An exact member takes its own kernel at its own parameters; a WKB member
    is a query of its branch alone, which an even continuation reads at |x|
    with its odd orders negated where x < 0.
    """
    if isinstance(basis, ExactConstantSet):
        if j < 2:
            return _exp_derivatives(float(basis._rates[j]), float(basis._anchors[j]), x, order)
        return _trig_derivatives(basis._kappa, x, order, [("cos", "sin")[j - 2]])[0]
    if not basis.even:
        return basis.table.derivatives(x, order, (j + 1,))[0]
    d = basis.table.derivatives(np.abs(x), order, (j + 1,))[0]
    d[1::2] *= np.where(np.asarray(x) < 0, -1.0, 1.0)
    return d


def _member_values(basis, members):
    """Value functions of the ``members`` (0-based) of a set of one energy, each formed on its own.

    A WKB member is a query of its branch alone, read at |x| for an even continuation.
    """
    if isinstance(basis, ExactConstantSet):
        return [lambda x, j=j: _member_derivatives(basis, j, x, 0)[0] for j in members]
    at = np.abs if basis.even else np.asarray
    return [lambda x, j=j: basis.table.derivatives(at(x), 0, (j + 1,))[0, 0] for j in members]


class TestClassify:
    def test_well_is_case_one(self):
        result = classify([point_zero(-1.0), point_zero(1.0)])
        assert result.case is Case.I
        assert result.predicted_dof == 2
        assert result.kbc_count == 2

    def test_linear_is_case_two(self):
        result = classify([point_zero(0.0), decay_at(Side.PLUS_INFINITY)])
        assert result.case is Case.II
        assert result.predicted_dof == 1

    def test_harmonic_is_case_three(self):
        result = classify([decay_at(Side.MINUS_INFINITY), decay_at(Side.PLUS_INFINITY)])
        assert result.case is Case.III
        assert result.predicted_dof == 2
        assert result.non_kbc_count == 0

    def test_non_kbc_reduces_count(self):
        result = classify(
            [point_zero(-1.0), point_zero(1.0), point_zero(0.0, is_key=False)]
        )
        assert result.case is Case.I
        assert result.predicted_dof == 1
        assert result.non_kbc_count == 1

    def test_single_point_is_unbound(self):
        assert classify([point_zero(0.0)]).case is Case.UNBOUND

    def test_empty_rejected(self):
        with pytest.raises(InvalidConditionsError):
            classify([])


class TestAssemble:
    def test_well_matrix_values(self, well_problem):
        e = 5.0
        roots = characteristic_roots(well_problem.epsilon, e)
        basis = exact_constant_basis(roots, well_problem.domain)
        system = assemble(basis, conditions_for(well_problem), e)
        m = system.matrix
        mu, kap = roots.mu1, roots.kappa
        # walls at -1, 1: exp(mu (x - 1)) and exp(-mu (x + 1)) are 1 at their own wall
        expected = np.array(
            [
                [math.exp(-2.0 * mu), 1.0, math.cos(kap), -math.sin(kap)],
                [1.0, math.exp(-2.0 * mu), math.cos(kap), math.sin(kap)],
            ]
        )
        # rows are rescaled to unit max magnitude; compare directions
        for row, exp_row in zip(m, expected):
            scale = row[np.argmax(np.abs(exp_row))] / exp_row[np.argmax(np.abs(exp_row))]
            assert np.allclose(row, exp_row * scale, rtol=1e-12)

    def test_linear_rows_kill_growing_then_wall(self, linear_problem):
        dof, system = degrees_of_freedom(linear_problem, 2.0)
        assert dof == 1
        assert system.row_kinds[0] == "decay[+inf] kills C1"
        assert system.row_kinds[1] == "decay[+inf] kills C3"
        assert system.row_kinds[2].startswith("phi(0")

    def test_linear_nullvector_is_the_closed_form_ratio(self, linear_problem):
        dof, system = degrees_of_freedom(linear_problem, 2.0)
        nullity, vecs = nullspace(system)
        assert nullity == 1
        v = vecs[0]
        assert abs(v[0]) < 1e-12 and abs(v[2]) < 1e-12
        asm = wkb_assembly(linear_problem, 2.0)
        lo = linear_problem.domain[0]
        w2, w4 = _member_values(asm.basis, (1, 3))
        expected_ratio = -w2(lo) / w4(lo)
        assert v[3] / v[1] == pytest.approx(expected_ratio, rel=1e-10)

    def test_harmonic_nullspace_is_decaying_pair(self, harmonic_problem):
        dof, system = degrees_of_freedom(harmonic_problem, 1.7)
        assert dof == 2
        nullity, vecs = nullspace(system)
        span = np.abs(np.array(vecs))
        assert np.max(span[:, 0]) < 1e-12 and np.max(span[:, 2]) < 1e-12

    @pytest.mark.parametrize("kind", ["linear", "harmonic"])
    def test_decay_rows_read_the_set_they_constrain(self, kind, linear_problem, harmonic_problem):
        # the interior set's classes are its branch labels: assembling it
        # alone gives the count's own system
        problem = linear_problem if kind == "linear" else harmonic_problem
        system = assemble(wkb_assembly(problem, 2.0).basis, conditions_for(problem), 2.0)
        want = degrees_of_freedom(problem, 2.0)[1]
        assert system.row_kinds == want.row_kinds
        assert system.matrix.tobytes() == want.matrix.tobytes()


class TestNullspace:
    def test_full_rank_rows(self, well_problem):
        roots = characteristic_roots(well_problem.epsilon, 5.0)
        basis = exact_constant_basis(roots, well_problem.domain)
        system = ConstraintSystem(
            energy=5.0,
            matrix=np.eye(4, dtype=complex),
            row_kinds=("a", "b", "c", "d"),
            basis=basis,
        )
        nullity, vecs = nullspace(system)
        assert nullity == 0 and vecs == []

    def test_zero_matrix_gives_canonical_basis(self, well_problem):
        roots = characteristic_roots(well_problem.epsilon, 5.0)
        basis = exact_constant_basis(roots, well_problem.domain)
        system = ConstraintSystem(
            energy=5.0,
            matrix=np.zeros((0, 4), dtype=complex),
            row_kinds=(),
            basis=basis,
        )
        nullity, vecs = nullspace(system)
        assert nullity == 4
        assert np.allclose(np.array(vecs).T, np.eye(4))

    def test_well_generic_energy_nullity_two(self, well_problem):
        for e in (1.638, 8.191, 16.38):
            roots = characteristic_roots(well_problem.epsilon, e)
            basis = exact_constant_basis(roots, well_problem.domain)
            system = assemble(basis, conditions_for(well_problem), e)
            nullity, vecs = nullspace(system)
            assert nullity == 2
            # orthonormal in coefficient space
            g = np.array(vecs).conj() @ np.array(vecs).T
            assert np.allclose(g, np.eye(2), atol=1e-12)

    def test_special_energy_sine_vector_in_nullspace(self, well_setup, well_problem):
        for se in well_special_energies(well_setup, 3):
            roots = characteristic_roots(well_problem.epsilon, se.energy_dimensionless)
            basis = exact_constant_basis(roots, well_problem.domain)
            system = assemble(basis, conditions_for(well_problem), se.energy_dimensionless)
            kap = roots.kappa
            sine_vec = np.array([0, 0, math.sin(kap), math.cos(kap)], dtype=complex)
            assert system.row_residual(sine_vec) < 1e-12
            if se.k % 2 == 0:
                # even k: the unshifted pure-sine coefficient vector itself
                assert system.row_residual(np.array([0, 0, 0, 1], dtype=complex)) < 1e-12

    def _stacked(self, problem, energies, extra=()):
        _, basis = well_basis(problem, np.asarray(energies))
        stacked = assemble(basis, conditions_for(problem), np.asarray(energies), extra_conditions=extra)
        singles = []
        for e in energies:
            _, b = well_basis(problem, e)
            singles.append(assemble(b, conditions_for(problem), e, extra_conditions=extra))
        return stacked, singles

    @pytest.mark.parametrize("extra", [(), (0.3,)])
    def test_stacked_nullspace_is_the_per_energy_one(self, well_problem, extra):
        energies = [E1_DIMLESS, 1.638, 8.1911537730, 4 * E1_DIMLESS]
        stacked, singles = self._stacked(well_problem, energies, extra)
        nullity, vecs = nullspace(stacked)
        assert nullity.tolist() == [nullspace(s)[0] for s in singles]
        assert nullity.tolist() == nullity_of(stacked).tolist()
        for got, single in zip(vecs, singles):
            want = nullspace(single)[1]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_stacked_nullspace_of_no_rows_is_canonical(self, well_problem):
        system = ConstraintSystem(
            energy=np.array([1.0, 2.0]),
            matrix=np.zeros((2, 0, 4), dtype=complex),
            row_kinds=(),
            basis=well_basis(well_problem, np.array([1.0, 2.0]))[1],
        )
        nullity, vecs = nullspace(system)
        assert nullity.tolist() == [4, 4]
        for v in vecs:
            assert np.array_equal(np.array(v).T, np.eye(4))

    def test_stacked_nullspace_names_a_non_finite_energy(self, well_problem):
        stacked, _ = self._stacked(well_problem, [1.638, 8.1911537730])
        matrix = stacked.matrix.copy()
        matrix[1, 0, 0] = np.nan
        bad = ConstraintSystem(energy=stacked.energy, matrix=matrix, row_kinds=stacked.row_kinds, basis=stacked.basis)
        for op in (nullspace, nullity_of):
            with pytest.raises(PreconditionError) as info:
                op(bad)
            assert info.value.failed.tolist() == [False, True]

    def test_batched_row_residual_is_the_per_vector_one(self, well_problem):
        energies = [E1_DIMLESS, 1.638, 8.1911537730]
        stacked, singles = self._stacked(well_problem, energies)
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=(3, 2, 4)) + 1j * rng.normal(size=(3, 2, 4))
        coeffs[1, 1] = 0.0
        got = stacked.row_residual(coeffs)
        assert got.shape == (3, 2)
        for n, single in enumerate(singles):
            assert got[n, 0] == pytest.approx(single.row_residual(coeffs[n, 0]), rel=1e-14, abs=0.0)
        assert got[1, 1] == math.inf and singles[1].row_residual(coeffs[1, 1]) == math.inf


def complex_nullity(matrix: np.ndarray) -> np.ndarray:
    """The nullity the complex SVD gives a (rows, 4) or (N, rows, 4) matrix."""
    s = np.linalg.svd(matrix, compute_uv=False)
    return 4 - (s > RANK_TOL * s[..., :1]).sum(-1)


def seeded_systems(kind: str, seed: int, problems: int = 10, energies: int = 6) -> list[ConstraintSystem]:
    """Constraint systems of seeded problems: one per energy that counts alone, then one batch of those.

    Wells take beta in 1e30...1e47, scan energies and their first two special
    levels; linear and harmonic problems take eps in 1e-4...0.2 and e in 0.3...15.
    """
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(problems):
        if kind == "well":
            setup = reference_well_setup(beta=float(10.0 ** rng.uniform(30.0, 47.0)))
            problem = nondimensionalize(setup)
            special = [se.energy_dimensionless for se in well_special_energies(setup, 2)]
            grid = rng.uniform(1e-19, 2e-17, energies) / problem.energy_scale
            grid = np.concatenate([grid, special])
        else:
            setup_for = linear_setup_for if kind == "linear" else harmonic_setup_for
            problem = nondimensionalize(setup_for(float(10.0 ** rng.uniform(-4.0, math.log10(0.2)))))
            grid = rng.uniform(0.3, 15.0, energies)
        counted = []
        for e in grid.tolist():
            try:
                systems.append(degrees_of_freedom(problem, e)[1])
            except GupBicError:
                continue
            counted.append(e)
        if counted:
            systems.append(degrees_of_freedom(problem, np.array(counted))[1])
    return systems


class TestRealRank:
    """``nullity_of`` ranks a matrix with no imaginary part by a float64 SVD: its counts are the complex SVD's."""

    @pytest.mark.parametrize("kind, seed", [("well", 40), ("linear", 41), ("harmonic", 42)])
    def test_counts_equal_the_complex_svd(self, kind, seed):
        systems = seeded_systems(kind, seed)
        assert {s.matrix.ndim for s in systems} == {2, 3}
        for system in systems:
            got, want = nullity_of(system), complex_nullity(system.matrix)
            if system.matrix.ndim == 2:
                assert type(got) is int and got == int(want)
            else:
                assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("rows", [2, 3])
    @pytest.mark.parametrize("ratio, kept", [(3e-11, False), (3e-10, True)])
    def test_a_gap_at_the_rank_tolerance(self, real, rows, ratio, kept):
        # U diag(s) V^H with s = (1, [0.7,] ratio), scaled by 10^-3...10^3 per matrix
        rng = np.random.default_rng(rows + 10 * real)

        def orthonormal(n):
            a = rng.normal(size=(8, n, n))
            return np.linalg.qr(a if real else a + 1j * rng.normal(size=(8, n, n)))[0]

        svals = np.array([1.0, 0.7, ratio] if rows == 3 else [1.0, ratio])
        u, vh = orthonormal(rows), orthonormal(4)[:, :rows, :]
        scale = 10.0 ** rng.uniform(-3.0, 3.0, (8, 1, 1))
        matrix = (scale * (u * svals) @ vh).astype(complex)
        assert matrix.imag.any() != real
        nullity = 4 - rows + (0 if kept else 1)
        stacked = ConstraintSystem(energy=np.arange(8.0), matrix=matrix, row_kinds=("p",) * rows, basis=())
        assert complex_nullity(matrix).tolist() == [nullity] * 8
        assert nullity_of(stacked).tolist() == [nullity] * 8
        for m in matrix:
            assert nullity_of(ConstraintSystem(energy=1.0, matrix=m, row_kinds=("p",) * rows, basis=())) == nullity


class TestWellCoefficients:
    # solve_well(orthogonalize=False) returns the determinant-form pair as it is, normalized

    def test_special_energy_partner_annihilated(self, well_problem):
        roots = characteristic_roots(well_problem.epsilon, E1_DIMLESS)
        basis = exact_constant_basis(roots, well_problem.domain)
        system = assemble(basis, conditions_for(well_problem), E1_DIMLESS)
        values = basis.derivatives(np.array([-1.0, 1.0]), 0, range(4))[:, 0]
        (vec,) = _determinant_vectors(values, (-1.0, 1.0), [(1, 2, 3)], roots.kappa)
        assert system.row_residual(vec) < 1e-12
        # solve_well keeps that partner (a nullspace top-up would point elsewhere)
        sine, partner = solve_well(well_problem, E1_DIMLESS, orthogonalize=False).states
        assert not sine.coefficients[:2].any() and partner.coefficients[:2].all()
        overlap = abs(np.vdot(vec, partner.coefficients))
        assert overlap == pytest.approx(np.linalg.norm(vec) * np.linalg.norm(partner.coefficients), rel=1e-12)
        for st in (sine, partner):
            assert system.row_residual(st.coefficients) < 1e-12

    def test_generic_energy_triples_annihilated(self, well_problem):
        e = 8.1911537730
        roots = characteristic_roots(well_problem.epsilon, e)
        basis = exact_constant_basis(roots, well_problem.domain)
        system = assemble(basis, conditions_for(well_problem), e)
        states = solve_well(well_problem, e, orthogonalize=False).states
        # the (1, 2, 3) and (2, 3, 4) triples leave C4 and C1 exactly zero
        for st, unused in zip(states, (3, 0)):
            assert st.coefficients[unused] == 0.0
            assert system.row_residual(st.coefficients) < 1e-12

    def test_scale_invariance_of_direction(self, well_problem):
        # multiplying all boundary values by a common factor only rescales
        e = 8.1911537730
        roots = characteristic_roots(well_problem.epsilon, e)
        basis = exact_constant_basis(roots, well_problem.domain)
        row_lo = list(basis.derivatives(-1.0, 0, range(3))[:, 0])
        row_hi = list(basis.derivatives(1.0, 0, range(3))[:, 0])
        d1 = _cross_triple(row_lo, row_hi)
        d2 = _cross_triple([7.3 * v for v in row_lo], [7.3 * v for v in row_hi])
        assert np.allclose(d2 / np.linalg.norm(d2), d1 / np.linalg.norm(d1), atol=1e-14)

    def test_agreement_with_nullspace_projection(self, well_problem):
        e = 8.1911537730
        roots = characteristic_roots(well_problem.epsilon, e)
        basis = exact_constant_basis(roots, well_problem.domain)
        system = assemble(basis, conditions_for(well_problem), e)
        _, null_vecs = nullspace(system)
        basis_mat = np.array(null_vecs).T  # 4 x 2, orthonormal columns
        for st in solve_well(well_problem, e, orthogonalize=False).states:
            vec = st.coefficients / np.linalg.norm(st.coefficients)
            proj = basis_mat @ (basis_mat.conj().T @ vec)
            angle = math.acos(min(abs(np.vdot(proj, vec)) / np.linalg.norm(proj), 1.0))
            assert angle < 1e-8


class TestNormalize:
    def test_pure_sine_gram_entry_is_one(self, well_problem):
        # at a special energy int sin^2(kappa x) dx over the well is exactly 1
        roots = characteristic_roots(well_problem.epsilon, E1_DIMLESS)
        basis = exact_constant_basis(roots, well_problem.domain)
        sol = normalize(
            [np.array([0, 0, math.sin(roots.kappa), math.cos(roots.kappa)])],
            basis,
            regions=[(-1.0, 1.0)],
            problem=well_problem,
            energy=E1_DIMLESS,
            gram=well_gram(roots.mu1, roots.kappa, well_problem.domain),
        )
        # gram covers the active (cos, sin) pair; the sin-sin entry is [1, 1]
        assert sol.gram.shape == (2, 2)
        assert sol.gram[1, 1].real == pytest.approx(1.0, abs=1e-10)
        # SI amplitude: phi_SI = phi / sqrt(a) = (1/sqrt(a)) sin(...)
        a_si = well_problem.length_scale
        st = sol.states[0]
        x = 0.37
        expected = math.sin(roots.kappa * (x + 1.0)) / math.sqrt(a_si)
        assert abs(st.value(x)) / math.sqrt(a_si) == pytest.approx(abs(expected), rel=1e-10)

    def test_zero_vector_rejected(self, well_problem):
        roots = characteristic_roots(well_problem.epsilon, E1_DIMLESS)
        basis = exact_constant_basis(roots, well_problem.domain)
        with pytest.raises(NormalizationError):
            normalize(
                [np.zeros(4)], basis, regions=[(-1.0, 1.0)],
                problem=well_problem, energy=E1_DIMLESS,
            )

    def test_growing_guard(self, linear_problem):
        asm = wkb_assembly(linear_problem, 2.0)
        with pytest.raises(NormalizationError, match="growing"):
            normalize(
                [np.array([1.0, 0, 0, 0])], asm.basis, regions=[(0.1, 1.0)],
                problem=linear_problem, energy=2.0, growing_guard=(1, 3),
            )

    def test_gram_is_hermitian_psd(self, well_problem):
        sol = solve_well(well_problem, 8.1911537730)
        g = sol.gram
        assert np.allclose(g, g.conj().T, atol=1e-10)
        assert np.all(np.linalg.eigvalsh(g) > -1e-10)

    @pytest.mark.parametrize("beta", [1e44, 1e42, 1e40, 1e38, 1e34, 1e30, 1e26, 1e23, 1e20])
    def test_well_gram_resolves_thin_wall_layers(self, beta):
        # layers of width 1/mu1 down to ~1e-14 of the well: the self-overlap of
        # exp(mu1 (x - hi)) is (1 - e^{-4 mu1}) / (2 mu1); the panel Gram was
        # 2.8e-4 off at beta 1e20
        problem = nondimensionalize(reference_well_setup(beta=beta))
        sol = solve_well(problem, 2.5)
        mu1 = characteristic_roots(problem.epsilon, 2.5).mu1
        assert sol.gram.shape == (4, 4)
        assert sol.gram[0, 0].real == pytest.approx(-math.expm1(-4.0 * mu1) / (2.0 * mu1), rel=1e-13, abs=0.0)

    def test_thin_layer_well_states_have_unit_norm(self):
        problem = nondimensionalize(reference_well_setup(beta=1e38))
        sol = solve_well(problem, 2.5)
        layer = 30.0 / characteristic_roots(problem.epsilon, 2.5).mu1
        for st in sol.states:
            norm2 = quad(
                lambda x: abs(st.value(x)) ** 2, -1.0, 1.0,
                points=(-1.0 + layer, 1.0 - layer), epsabs=1e-13, epsrel=1e-12, limit=300,
            )[0]
            assert norm2 == pytest.approx(1.0, abs=1e-10)


def _reference_gram(values, regions, points=()):
    """F_ij = int w_i w_j* entry by entry with scalar quad, real and imaginary parts, w_i = ``values[i]``.

    Diagonals are resolved to 1e-13 relative; every other entry to 1e-13 of
    its Cauchy-Schwarz scale sqrt(F_ii F_jj), so the roundoff-level imaginary
    parts of real pairs are not chased to quad's subdivision limit.
    """

    def integral(g, epsabs):
        total = 0.0
        for lo, hi in regions:
            pts = [p for p in points if lo < p < hi]
            kw = dict(epsabs=epsabs, epsrel=1e-13, limit=500)
            if pts:
                kw["points"] = pts
            total += quad(g, lo, hi, **kw)[0]
        return total

    n = len(values)
    f = np.zeros((n, n), dtype=complex)
    for i in range(n):
        f[i, i] = integral(lambda x: abs(values[i](x)) ** 2, 0.0)
    for i in range(n):
        for j in range(i + 1, n):
            scale = 1e-13 * math.sqrt(f[i, i].real * f[j, j].real)

            def pair(x):
                return values[i](x) * np.conj(values[j](x))

            f[i, j] = complex(
                integral(lambda x: pair(x).real, scale), integral(lambda x: pair(x).imag, scale)
            )
            f[j, i] = np.conj(f[i, j])
    return f


def _gram_cases():
    """(name, Gram, member values, regions, breakpoints of the reference) of each case.

    The well's Gram is the closed form (at a special energy too), the WKB
    ones are panels; the reference breaks the well at the inner edges of
    its wall layers (30 decay lengths), which it cannot find on its own.
    """
    for beta, e in ((1e47, 2.5), (1e40, 2.5), (1e47, E1_DIMLESS)):
        problem = nondimensionalize(reference_well_setup(beta=beta))
        roots = characteristic_roots(problem.epsilon, e)
        layer = 30.0 / roots.mu1
        values = _member_values(exact_constant_basis(roots, problem.domain), range(4))
        gram = well_gram(roots.mu1, roots.kappa, problem.domain)
        yield f"well-{beta:g}-{e:g}", gram, values, [(-1.0, 1.0)], (-1.0 + layer, 1.0 - layer)
    for solve, setup_for, eps, e in (
        (solve_linear, linear_setup_for, 0.12, 2.0),
        (solve_linear, linear_setup_for, 1e-3, 9.0),
        (solve_harmonic, harmonic_setup_for, 0.02, 5.0),
        (solve_harmonic, harmonic_setup_for, 1e-3, 5.0),
    ):
        sol = solve(nondimensionalize(setup_for(eps)), e)
        values = _member_values(sol.states[0].basis, (1, 3))
        name = f"{setup_for.__name__.split('_')[0]}-{eps:g}-{e:g}"
        yield name, overlap_gram(sol.states[0].basis, [1, 3], sol.regions), values, list(sol.regions), ()


def _region_edged_gram(values, regions):
    """The adaptive Gram of the functions ``values`` started from one panel per region, overlap_gram's former start.

    The same integrator and the same 12- against 24-node test at
    _GRAM_TOL; only the panels it starts from differ from the seeded ones.
    """

    def integrand(x, width, _):
        v = np.stack([fn(x) for fn in values])
        return v[:, None] * (v.conj() * width)

    a, b = np.array(regions, dtype=float).T
    return panel_integrals(integrand, a, b, _GRAM_TOL).sum(axis=-1)


def _wkb_grid(count):
    """(kind, eps, e) of ``count`` seeded cases per WKB potential.

    eps is log-uniform in 1e-3..0.2 and e uniform in 0.6..20.
    """
    rng = np.random.default_rng(2020)
    for kind in ("harmonic", "linear"):
        for _ in range(count):
            eps = 10.0 ** rng.uniform(-3.0, math.log10(0.2))
            yield kind, eps, rng.uniform(0.6, 20.0)


def _wkb_problem(kind, eps):
    setup_for = {"linear": linear_setup_for, "harmonic": harmonic_setup_for}[kind]
    return nondimensionalize(setup_for(eps))


def _layer_regions(lo, hi, mu1):
    """(lo, hi) split at the inner edges of the wall layers that lie inside it."""
    edges = [lo] + [x for x in (lo + 30.0 / mu1, hi - 30.0 / mu1) if lo < x < hi] + [hi]
    return list(zip(edges[:-1], edges[1:]))


class TestOverlapGram:
    def test_matches_scalar_quad_reference(self):
        for name, f, values, regions, points in _gram_cases():
            ref = _reference_gram(values, regions, points)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(f - ref)) <= 1e-10 * scale, name
            assert np.max(np.abs(f - f.conj().T)) <= 1e-14 * scale, name

    @pytest.mark.parametrize("beta", [1e47, 1e44, 1e40, 1e37, 1e34])
    def test_well_closed_form_matches_panels(self, beta):
        # the panel Gram, split at the layer edges, resolves the layers down to beta 1e34
        problem = nondimensionalize(reference_well_setup(beta=beta))
        lo, hi = problem.domain
        for e in np.linspace(0.7, 16.4, 7):
            roots = characteristic_roots(problem.epsilon, e)
            basis = exact_constant_basis(roots, problem.domain)
            values = [lambda x, j=j: basis.derivatives(x, 0, [j])[0, 0] for j in range(4)]
            panels = _region_edged_gram(values, _layer_regions(lo, hi, roots.mu1))
            f = well_gram(roots.mu1, roots.kappa, problem.domain)
            assert np.max(np.abs(f - panels)) <= 1e-14 * np.max(np.abs(panels)), e

    @pytest.mark.parametrize("walls", [(-1.0, 1.0), (-0.4, 1.3), (0.2, 3.4)])
    @pytest.mark.parametrize("eps, e", [(1e-3, 1e-8), (1e-3, 1e-4), (0.3, 1.7), (1e-3, 40.0)])
    def test_well_gram_against_mpmath(self, walls, eps, e):
        # every entry, at small kappa L (where cos^2 and sin^2 nearly cancel
        # in the textbook forms) and on walls off the centre, by 50-digit
        # quadrature (at 30 digits tanh-sinh loses 1e-14 on the layers' cross term)
        import mpmath

        roots = characteristic_roots(eps, e)
        f = well_gram(roots.mu1, roots.kappa, walls)
        with mpmath.workdps(50):
            mu, k = mpmath.mpf(float(roots.mu1)), mpmath.mpf(float(roots.kappa))
            lo, hi = (mpmath.mpf(w) for w in walls)
            ws = [
                lambda x: mpmath.exp(mu * (x - hi)),
                lambda x: mpmath.exp(-mu * (x - lo)),
                lambda x: mpmath.cos(k * x),
                lambda x: mpmath.sin(k * x),
            ]
            ref = np.array([
                [float(mpmath.quad(lambda x: ws[i](x) * ws[j](x), [lo, hi])) for j in range(4)]
                for i in range(4)
            ])
        assert np.array_equal(f.imag, np.zeros((4, 4)))
        for i, j in ((0, 0), (0, 1), (2, 2), (3, 3), (2, 3)):
            assert f[i, j].real == pytest.approx(ref[i, j], rel=1e-14, abs=1e-300), (i, j)
        assert np.max(np.abs(f.real - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_well_states_make_no_panel_call(self, monkeypatch, well_problem):
        import gupbic.matcher

        def refuse(*args, **kwargs):
            raise AssertionError("the well's Gram reached the panels")

        monkeypatch.setattr(gupbic.matcher, "overlap_gram", refuse)
        for e in (0.7, E1_DIMLESS, 5.5):
            assert solve_well(well_problem, e).degeneracy == 2

    def test_real_harmonic_pair_is_orthonormal_under_the_reference(self):
        # the imaginary parts of the real tail pairs are roundoff; an adaptive
        # integration of its own on them took about 10 s in this case
        problem = nondimensionalize(harmonic_setup_for(0.002))
        sol = solve_harmonic(problem, 1.7)
        basis = sol.states[0].basis
        active = [1, 3]
        ref = _reference_gram(_member_values(basis, active), list(sol.regions))
        c = np.array([st.coefficients[active] for st in sol.states])
        # <s_a, s_b> = c_a^H conj(F) c_b with F_ij = int w_i w_j*
        ips = c.conj() @ ref.conj() @ c.T
        assert np.max(np.abs(ips - np.eye(2))) < 1e-10

    def test_bound_states_make_no_scalar_quad_calls(
        self, monkeypatch, well_problem, linear_problem, harmonic_problem
    ):
        import gupbic.matcher

        calls = []

        def counting_quad(*args, **kwargs):
            calls.append(args)
            raise AssertionError("scipy quad called from gupbic.matcher")

        monkeypatch.setattr(gupbic.matcher, "quad", counting_quad)
        for problem, e in ((well_problem, 5.5), (linear_problem, 2.0), (harmonic_problem, 2.0)):
            assert bound_states(problem, e).degeneracy >= 1
        assert calls == []

    def test_grid_grams_take_one_round(self, monkeypatch):
        # the seeded panels pass the 12- against 24-node test at once: one
        # integrand call per Gram (the region-edged start takes 1 to 8)
        import gupbic.matcher

        rounds = []

        def counting(integrand, *args):
            def counted(*call):
                rounds[-1] += 1
                return integrand(*call)

            rounds.append(0)
            return panel_integrals(counted, *args)

        monkeypatch.setattr(gupbic.matcher, "panel_integrals", counting)
        for kind, eps, e in _wkb_grid(24):
            rounds.clear()
            bound_states(_wkb_problem(kind, eps), e)
            assert rounds == [1], (kind, eps, e)

    def test_grid_grams_match_the_region_edged_gram(self):
        for kind, eps, e in _wkb_grid(24):
            sol = bound_states(_wkb_problem(kind, eps), e)
            ref = _region_edged_gram(_member_values(sol.states[0].basis, (1, 3)), sol.regions)
            assert np.max(np.abs(sol.gram - ref)) <= 1e-12 * np.max(np.abs(ref)), (kind, eps, e)

    def test_unconverged_panels_raise(self, monkeypatch, linear_problem):
        # a jump keeps the panel that holds it open until the panel is
        # narrower than the tolerance; past the (lowered) bisection cap the
        # quadrature must raise, not return a result; the cap is the one the
        # shared panel integrator applies to every caller
        import gupbic.panels

        basis = wkb_assembly(linear_problem, 2.0).basis

        def step(x, order, members):
            return np.where(np.asarray(x) < 1.0 / 3.0, 0.0, 1.0).astype(complex)[None, None]

        monkeypatch.setattr(basis, "derivatives", step)
        monkeypatch.setattr(gupbic.panels, "_MAX_BISECTIONS", 12)
        with pytest.raises(NumericalError, match="did not converge"):
            overlap_gram(basis, [0], [(0.0, 1.0)])


class TestEvaluateStates:
    @staticmethod
    def one_state_at_a_time(coefficients, basis, xs, order):
        # the loop each state ran on its own: basis order, zero terms skipped
        out = np.zeros((order + 1,) + xs.shape, dtype=complex)
        for j, c in enumerate(coefficients):
            if c != 0:
                out += c * _member_derivatives(basis, j, xs, order)
        return out

    @pytest.mark.parametrize(
        "kind, energy",
        [("well", 0.7), ("well", E1_DIMLESS), ("linear", 2.0), ("harmonic", 2.0)],
        ids=["well-continuum", "well-special", "linear", "harmonic"],
    )
    def test_shared_columns_match_the_one_state_loop(
        self, kind, energy, well_problem, linear_problem, harmonic_problem
    ):
        problem = {"well": well_problem, "linear": linear_problem, "harmonic": harmonic_problem}[kind]
        sol = bound_states(problem, energy)
        basis = sol.states[0].basis
        rows = [st.coefficients for st in sol.states]
        for lo, hi in sol.regions:
            xs = np.linspace(lo, hi, 57)
            shared = evaluate_states(rows, basis, xs, order=3)
            for st, got in zip(sol.states, shared):
                want = self.one_state_at_a_time(st.coefficients, basis, xs, 3)
                assert np.array_equal(got, want)
                assert np.array_equal(st.derivatives(xs, order=3), want)
            values = sol.values(xs)
            assert values.shape == (sol.degeneracy, xs.size)
            assert np.array_equal(values, shared[:, 0])

    def test_each_used_column_is_evaluated_once(self, monkeypatch, harmonic_problem):
        sol = bound_states(harmonic_problem, 2.0)
        basis = sol.states[0].basis
        calls = []
        derivatives = basis.derivatives

        def counting(x, order, members):
            calls.append(list(members))
            return derivatives(x, order, members)

        monkeypatch.setattr(basis, "derivatives", counting)
        rows = [st.coefficients for st in sol.states]
        evaluate_states(rows, basis, np.linspace(*sol.regions[1], 11), order=0)
        used = [j for j in range(4) if any(r[j] != 0 for r in rows)]
        assert used == [1, 3]  # w2 and w4, shared by the orthogonalized pair
        assert calls == [used]


def _bits(a):
    """The raw bits of a float or complex array, so that signed zeros count too."""
    return np.ascontiguousarray(a).view(np.int64)


def _same_solution(a, b):
    assert a.degeneracy == b.degeneracy and a.regions == b.regions
    assert a.energy_dimensionless == b.energy_dimensionless and a.energy_si == b.energy_si
    assert np.array_equal(_bits(a.gram), _bits(b.gram))
    for s, t in zip(a.states, b.states):
        assert np.array_equal(_bits(s.coefficients), _bits(t.coefficients))
        for name in ("_rates", "_anchors", "_kappa"):
            assert np.array_equal(getattr(s.basis, name), getattr(t.basis, name))


class TestBatchedWell:
    @pytest.mark.parametrize("beta", [1e41, 1e44, 1e47])
    @pytest.mark.parametrize("orthogonalize", [True, False])
    @pytest.mark.parametrize("extra", [(), (0.3,), ((0.5, 1),)], ids=["walls", "point", "slope"])
    def test_batch_is_each_energy_alone_bit_for_bit(self, beta, orthogonalize, extra):
        setup = reference_well_setup(beta=beta)
        problem = nondimensionalize(setup)
        special = [se.energy_dimensionless for se in well_special_energies(setup, 8)]
        energies = np.concatenate([special, np.random.default_rng(28).uniform(0.05, 60.0, 24)])
        batch = solve_well(problem, energies, orthogonalize=orthogonalize, extra_conditions=extra)
        assert len(batch) == energies.size
        for e, sol in zip(energies.tolist(), batch):
            _same_solution(sol, solve_well(problem, e, orthogonalize=orthogonalize, extra_conditions=extra))
        if not extra:
            # the special levels were seeded with the sine, which has no layer terms
            assert all(not sol.states[0].coefficients[:2].any() for sol in batch[:8])
            assert all(sol.states[0].coefficients[:2].all() for sol in batch[8:])

    def test_a_float_is_a_batch_of_one(self, well_problem):
        one = solve_well(well_problem, 5.5)
        assert isinstance(one, BoundStateSolution)
        (batch,) = solve_well(well_problem, np.array([5.5]))
        _same_solution(one, batch)

    def test_failing_energies_are_named(self, well_problem):
        # phi''(+-1) = 0 on top of the walls keeps the sine at a special
        # level and pins every coefficient elsewhere
        curvature = [(-1.0, 2), (1.0, 2)]
        energies = np.array([E1_DIMLESS, 5.5, 8.1911537730])
        with pytest.raises(NormalizationError, match="nullity 0") as info:
            solve_well(well_problem, energies, extra_conditions=curvature)
        assert info.value.failed.tolist() == [False, True, True]
        assert solve_well(well_problem, E1_DIMLESS, extra_conditions=curvature).degeneracy == 1
        with pytest.raises(DegenerateBasisError, match="kappa = 0.0") as info:
            solve_well(well_problem, np.array([5.5, -0.5, 2.5]))
        assert info.value.failed.tolist() == [False, True, False]
        with pytest.raises(ComplexQuartetError) as info:
            solve_well(well_problem, np.array([-5.0, 5.5]))
        assert info.value.failed.tolist() == [True, False]

    def test_cross_triple_forms_the_scalar_complex_products(self):
        # numpy's vectorised complex product can differ from the scalar one
        # in the last bit; a batch's triples are formed as the scalar ones
        rng = np.random.default_rng(5)
        u, v = rng.normal(size=(2, 3, 200)) + 1j * rng.normal(size=(2, 3, 200))
        d = _cross_triple(u, v)
        for n in range(200):
            a, b = u[:, n], v[:, n]
            want = np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])
            assert np.array_equal(_bits(d[:, n]), _bits(want))

    def test_batched_basis_evaluates_each_energy_bit_for_bit(self, well_problem):
        # parameters of shape (N, 1) against a grid, one coefficient set per energy
        energies = np.array([E1_DIMLESS, 1.638, 16.38])
        _, grid_basis = well_basis(well_problem, energies[:, None])
        rng = np.random.default_rng(3)
        coefficients = (rng.normal(size=(2, 4, 3)) + 1j * rng.normal(size=(2, 4, 3)))[..., None]
        xs = np.linspace(-1.0, 1.0, 41)
        got = evaluate_states(coefficients, grid_basis, xs, order=3)
        assert got.shape == (2, 4, 3, 41)
        shared = evaluate_states(coefficients[:, :, 0, 0], grid_basis, [-1.0], order=3)
        for n, e in enumerate(energies.tolist()):
            _, basis = well_basis(well_problem, e)
            want = evaluate_states(coefficients[:, :, n, 0], basis, xs, order=3)
            assert np.array_equal(_bits(got[:, :, n]), _bits(want))
            launch = evaluate_states(coefficients[:, :, 0, 0], basis, -1.0, order=3)
            assert np.array_equal(_bits(shared[..., n, 0]), _bits(launch))


def _per_point_rows(basis, points):
    """The point rows of ``assemble`` formed one point and one function at a time, by the kernels.

    A value row takes one log shift, the largest log|w_j(x)|; a row of
    order k >= 1 takes the k-th derivatives; each row is then scaled to unit
    max magnitude.  ``basis`` is an exact set of one energy, ``points``
    (x, order).
    """
    rates, anchors = basis._rates.tolist(), basis._anchors.tolist()
    rows = []
    for x, order in points:
        if order == 0:
            waves = _trig_waves(basis._kappa, x)
            logs = [_exp_log(rate, anchor, x) for rate, anchor in zip(rates, anchors)]
            logs += [_trig_logs(w) for w in waves]
            shift = max(logs)
            entries = [_exp_scaled(log, x, shift) for log in logs[:2]] + [_trig_scaled(w, shift) for w in waves]
        else:
            entries = [_member_derivatives(basis, j, x, order)[order] for j in range(4)]
        row = np.array(entries, dtype=complex)
        m = np.abs(row).max()
        rows.append(row / m if m > 0 else row)
    return np.array(rows)


class TestStackedExactSet:
    """The well's exact set evaluates its four members in one stacked pass, bit for bit
    the values each member gives alone at one point and one energy."""

    ORDERS_0_TO_3 = (0.3, (0.5, 1), (-0.2, 2), (0.9, 3), (-0.7, 0), (0.1, 2))
    CLAMPED = ((-1.0, 1), (1.0, 1))  # phi' = 0 at both walls as well

    @staticmethod
    def energies(setup, count=6):
        special = [se.energy_dimensionless for se in well_special_energies(setup, count)]
        return np.concatenate([special, np.random.default_rng(36).uniform(0.05, 60.0, 18)])

    # beta 1e30: the layers are so thin that exp(-mu1 (hi - lo)) underflows to 0 at the far wall
    @pytest.mark.parametrize("beta", [1e30, 1e41, 1e44, 1e47])
    @pytest.mark.parametrize("extra", [(), ORDERS_0_TO_3, CLAMPED], ids=["walls", "orders-0-3", "clamped"])
    def test_rows_are_the_per_point_rows_bit_for_bit(self, beta, extra):
        setup = reference_well_setup(beta=beta)
        problem = nondimensionalize(setup)
        energies = self.energies(setup)
        conditions = conditions_for(problem)
        points = [(c.location, 0) for c in conditions]
        points += [entry if isinstance(entry, tuple) else (entry, 0) for entry in extra]
        batched = assemble(well_basis(problem, energies)[1], conditions, energies, extra_conditions=extra)
        assert batched.matrix.shape == (energies.size, len(points), 4)
        for n, e in enumerate(energies.tolist()):
            basis = well_basis(problem, e)[1]
            want = _per_point_rows(basis, points)
            single = assemble(basis, conditions, e, extra_conditions=extra)
            assert np.array_equal(_bits(single.matrix), _bits(want))
            assert np.array_equal(_bits(batched.matrix[n]), _bits(want))
        if beta == 1e30:
            assert (batched.matrix[:, :2, :2] == 0).any()

    @pytest.mark.parametrize("beta", [1e30, 1e47])
    def test_wall_values_are_the_per_point_values_bit_for_bit(self, beta):
        # the values solve_well forms its determinant seeds from, shape (4, 2, N)
        setup = reference_well_setup(beta=beta)
        problem = nondimensionalize(setup)
        lo, hi = problem.domain
        energies = self.energies(setup)
        values = well_basis(problem, energies)[1].derivatives(np.array([[lo], [hi]]), 0, range(4))[:, 0]
        for n, e in enumerate(energies.tolist()):
            basis = well_basis(problem, e)[1]
            want = np.array([[_member_derivatives(basis, j, x, 0)[0] for x in (lo, hi)] for j in range(4)])
            assert np.array_equal(_bits(values[..., n]), _bits(want))
            one = basis.derivatives(np.array([lo, hi]), 0, range(4))[:, 0]
            assert np.array_equal(_bits(one), _bits(want))

    @pytest.mark.parametrize("order", range(5))
    @pytest.mark.parametrize("members", [(0, 1, 2, 3), (2, 3), (1, 3), (0,)])
    def test_state_derivatives_are_the_per_point_ones_bit_for_bit(self, well_setup, order, members):
        problem = nondimensionalize(well_setup)
        energies = self.energies(well_setup, 3)[:8]
        xs = np.linspace(-1.0, 1.0, 9)
        # parameters of shape (N, 1) against a grid, as evaluate_states takes a batch
        grid = well_basis(problem, energies[:, None])[1].derivatives(xs, order, members)
        assert grid.shape == (len(members), order + 1, energies.size, xs.size)
        for n, e in enumerate(energies.tolist()):
            basis = well_basis(problem, e)[1]
            one = basis.derivatives(xs, order, members)
            for i, j in enumerate(members):
                want = np.stack([_member_derivatives(basis, j, float(x), order) for x in xs], axis=-1)
                assert np.array_equal(_bits(grid[i, :, n]), _bits(want))
                assert np.array_equal(_bits(one[i]), _bits(want))

    def test_states_sum_the_per_point_derivatives_bit_for_bit(self, well_problem):
        sol = solve_well(well_problem, 5.5)
        xs = np.linspace(-1.0, 1.0, 7)
        for st in sol.states:
            got = st.derivatives(xs, order=4)
            for p, x in enumerate(xs.tolist()):
                want = np.zeros(5, dtype=complex)
                for j, c in enumerate(st.coefficients):
                    if c != 0:
                        want += c * _member_derivatives(st.basis, j, x, 4)
                assert np.array_equal(_bits(got[:, p]), _bits(want))

    @pytest.mark.parametrize(
        "extra, first", [([(-30.0, 2), (30.0, 1)], -30.0), ([(0.0, 1), (40.0, 2), (-40.0, 1)], 40.0)]
    )
    def test_a_cap_overflow_names_the_first_point(self, extra, first):
        # the per-point rows raised at the first point past the exponent cap,
        # whichever member overflowed there (the upper layer past hi, the
        # lower one past lo); the stacked pass names the same
        problem = nondimensionalize(reference_well_setup(beta=1e41))
        basis = well_basis(problem, 2.5)[1]
        with pytest.raises(BasisOverflowError) as per_point:
            _per_point_rows(basis, extra)
        with pytest.raises(BasisOverflowError) as stacked:
            assemble(basis, conditions_for(problem), 2.5, extra_conditions=extra)
        assert str(stacked.value) == str(per_point.value)
        assert f"at x={first:g} " in str(stacked.value)

    @pytest.mark.parametrize("count", [1, 32])
    def test_one_pass_per_derivative_order_at_most(self, monkeypatch, well_problem, count):
        # no timing: the stacked kernels run once for the value rows and once
        # for the derivative rows, whatever the number of energies and rows
        import gupbic.basis as basis_module

        passes = []
        for name in ("_exp_log", "_trig_waves"):
            kernel = getattr(basis_module, name)

            def counted(*args, kernel=kernel, name=name):
                passes.append(name)
                return kernel(*args)

            monkeypatch.setattr(basis_module, name, counted)

        energies = np.linspace(0.5, 40.0, count)
        basis = well_basis(well_problem, energies)[1]
        conditions = conditions_for(well_problem)
        assemble(basis, conditions, energies)
        assert sorted(passes) == ["_exp_log", "_trig_waves"]
        passes.clear()
        extra = [0.3, -0.4, 0.8] + [(x, k) for x in (-0.5, 0.2, 0.6) for k in (1, 2, 3)]
        system = assemble(basis, conditions, energies, extra_conditions=extra)
        assert system.matrix.shape[-2] == 14
        assert sorted(passes) == ["_exp_log", "_exp_log", "_trig_waves", "_trig_waves"]


def _wkb_value_rows(basis, xs):
    """The value rows of ``assemble`` formed one point and one branch at a time from ``exponent``.

    Each row takes one log shift, the largest Re log w_j(x), then is scaled
    to unit max magnitude.  ``basis`` is a WKB set of one energy; an even
    continuation reads its branch at |x|.
    """
    rows = []
    for x in xs:
        logs = [complex(WkbBasisFunction(basis.table, j).exponent(abs(x))) for j in (1, 2, 3, 4)]
        shift = max(v.real for v in logs)
        row = np.array([cmath.exp(v - shift) if (v - shift).real > -745.0 else 0j for v in logs])
        rows.append(row / np.abs(row).max())
    return np.array(rows)


def _per_point_error(basis, x, order):
    """The error the branches of a WKB set raise, asked in turn at x for the entries of a row of ``order``."""
    with pytest.raises((ValidityError, BasisOverflowError)) as info:
        for j in (1, 2, 3, 4):
            basis.table.logs(x, (j,)) if order == 0 else basis.table.derivatives(x, order, (j,))
    return info.value


class TestWkbPointRows:
    """A WKB set forms its value rows in one four-branch pass over its exponent table,
    bit for bit the rows formed one point and one branch at a time."""

    @staticmethod
    def assembled(problem, energies, extra):
        """The constraint matrix at a float energy or a batch, as (energies, rows, 4)."""
        energy = energies if energies.size > 1 else float(energies[0])
        asm = wkb_assembly(problem, energy)
        system = assemble(asm.basis, conditions_for(problem), energy, extra_conditions=extra)
        return system.matrix.reshape((energies.size,) + system.matrix.shape[-2:])

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    @pytest.mark.parametrize("count", [1, 32])
    def test_linear_rows_are_the_per_point_rows_bit_for_bit(self, eps, count):
        # the wall, then a point before every turning window and one past them all
        problem = nondimensionalize(linear_setup_for(eps))
        energies = np.linspace(2.0, 4.0, count)
        points = [0.0, 1.0, 10.0]
        matrix = self.assembled(problem, energies, points[1:])
        for n, e in enumerate(energies.tolist()):
            want = _wkb_value_rows(wkb_assembly(problem, e).basis, points)
            assert np.array_equal(_bits(matrix[n, -3:]), _bits(want))

    @pytest.mark.parametrize("count", [1, 32])
    def test_harmonic_rows_are_the_per_point_rows_bit_for_bit(self, count):
        # the even continuation on both of its mirror pieces
        problem = nondimensionalize(harmonic_setup_for(0.02))
        energies = np.linspace(1.5, 2.0, count)
        points = [1.6, 2.5, 3.5, -1.6, -2.5, -3.5]
        matrix = self.assembled(problem, energies, points)
        for n, e in enumerate(energies.tolist()):
            want = _wkb_value_rows(wkb_assembly(problem, e).basis, points)
            assert np.array_equal(_bits(matrix[n, -6:]), _bits(want))

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize(
        "point",
        [3.0, 300.0, (100.0, 1)],
        ids=["in-turning-window", "past-the-piece", "derivative-past-the-cap"],
    )
    def test_a_one_point_row_raises_the_per_point_error(self, count, point):
        # at eps 1e-3 the interior piece ends near x = 252, and the fast
        # branch's exponent passes the cap well before x = 100
        problem = nondimensionalize(linear_setup_for(1e-3))
        energies = np.array([3.0, 3.1, 3.2][:count])
        energy = energies if count > 1 else float(energies[0])
        asm = wkb_assembly(problem, energy)
        x, order = point if isinstance(point, tuple) else (point, 0)
        want = _per_point_error(asm.basis, x, order)
        with pytest.raises(type(want)) as got:
            assemble(asm.basis, conditions_for(problem), energy, extra_conditions=[point])
        assert str(got.value) == str(want)
        assert np.array_equal(got.value.failed, want.failed)
        if count > 1 and point == 3.0:
            assert got.value.failed.tolist() == [True, False, False]  # only e = 3 has its window there

    @pytest.mark.parametrize("count", [1, 8])
    @pytest.mark.parametrize("kind", ["linear", "harmonic"])
    def test_one_closed_sum_call_and_no_exponent_call(self, monkeypatch, kind, count):
        # no timing: a value-row pass, the values of states on a grid and a
        # Gram round each query the table's closed sums once and ask no
        # branch for its exponent, whatever the number of points and energies;
        # each is an order-0 query, one pass that evaluates the validity mask
        # once and forms no chain of s and lam
        import gupbic.basis as basis_module
        import gupbic.matcher as matcher_module

        problem = nondimensionalize((linear_setup_for if kind == "linear" else harmonic_setup_for)(0.02))
        points = [0.0, 1.0, 10.0] if kind == "linear" else [1.6, 2.5, -1.6, -2.5]
        energies = np.linspace(1.5, 2.0, count)
        asm = wkb_assembly(problem, energies if count > 1 else float(energies[0]))
        # a Gram is of one energy: the first of the batch
        one = bound_states(problem, float(energies[0]))
        calls, rounds = [], []
        closed_sums = basis_module.ExponentTable._closed_sums

        def counted_sums(self, xs):
            calls.append("_closed_sums")
            return closed_sums(self, xs)

        def refused(self, x):
            raise AssertionError("a reader of several branches asked a branch for its exponent")

        valid = basis_module.ExponentTable.valid

        def counted_valid(self, x, windows):
            calls.append("valid")
            return valid(self, x, windows)

        def no_chains(*args, **kwargs):
            raise AssertionError("an order-0 query formed the chains of s and lam")

        def counted_rounds(integrand, *args):
            def counted(*call):
                rounds.append("round")
                return integrand(*call)

            return panel_integrals(counted, *args)

        monkeypatch.setattr(basis_module.ExponentTable, "_closed_sums", counted_sums)
        monkeypatch.setattr(basis_module.WkbBasisFunction, "exponent", refused)
        monkeypatch.setattr(basis_module.ExponentTable, "valid", counted_valid)
        monkeypatch.setattr(basis_module, "_branch_chains", no_chains)
        monkeypatch.setattr(matcher_module, "panel_integrals", counted_rounds)
        rows = asm.basis.point_rows([(x, 0) for x in points])
        assert rows.shape == (len(points),) + ((count,) if count > 1 else ()) + (4,)
        assert calls == ["valid", "_closed_sums"]

        calls.clear()
        grid = np.array(points)[:, None] if count > 1 else np.array(points)
        states = tuple(StateFunction(c, asm.basis) for c in ([0.0, 1.0, 0.0, -1.0], [0.0, 0.0, 0.0, 1.0]))
        solution = BoundStateSolution(0.0, 0.0, 2, states, np.eye(2))
        assert solution.values(grid).shape == (2, len(points)) + ((count,) if count > 1 else ())
        assert calls == ["valid", "_closed_sums"]

        calls.clear()
        gram = overlap_gram(one.states[0].basis, [1, 3], one.regions)
        assert np.array_equal(_bits(gram), _bits(one.gram))
        assert rounds == ["round"] and calls == ["valid", "_closed_sums"]

    @pytest.mark.parametrize("count", [1, 3])
    def test_a_query_of_several_branches_raises_whatever_their_order(self, count):
        # x = 3 lies in the turning window of e = 3 (branches 3 and 4 only),
        # x = 300 past the interior piece (every branch): one mask tests both,
        # so (2, 4) and (4, 2) name the first abscissa that fails, x = 3 at
        # e = 3, and fail every energy, through the table and through the set
        problem = nondimensionalize(linear_setup_for(1e-3))
        energies = np.array([3.0, 3.1, 3.2][:count])
        energy = energies if count > 1 else float(energies[0])
        basis = wkb_assembly(problem, energy).basis
        x = np.array([3.0, 300.0])[:, None] if count > 1 else np.array([3.0, 300.0])
        raised = []
        for branches in ((2, 4), (4, 2)):
            for query in (
                lambda: basis.table.logs(x, branches),
                lambda: basis.derivatives(x, 2, [j - 1 for j in branches]),
            ):
                with pytest.raises(ValidityError) as info:
                    query()
                failed = info.value.failed
                raised.append((str(info.value), None if failed is None else failed.tolist()))
        assert raised == [raised[0]] * 4
        assert raised[0][0].startswith("x=3.0 inside turning-point window")
        assert raised[0][1] == ([True, True, True] if count > 1 else None)

    # the interior piece at eps 1e-3 ends at x = 252.95, 253.05 and 253.15
    # for e = 3.0, 3.1 and 3.2, and the window of e runs from e - 0.05 to
    # e + 0.05: x = 253 lies past the piece of e = 3.0 alone, x = 3.1 in the
    # window of e = 3.1 and x = 3.2 in that of e = 3.2
    OUTSIDE = ("x=253.0 outside validity interval [0.0, 252.94999999999973]", [True, False, False])
    WINDOW = ("x=3.1 inside turning-point window around x=3.099999999999989", [False, True, False])

    # one mask tests a query's abscissas: the interval, and the windows if
    # branch 3 or 4 is asked; every energy with an abscissa that fails it is
    # in failed, and the error names the first abscissa that fails
    EVERY = (OUTSIDE[0], [True, True, True])

    @pytest.mark.parametrize(
        "branches, grid_error",
        [
            ((1, 2, 3, 4), EVERY),
            ((2, 4), EVERY),
            ((3, 1), EVERY),
            # no window masks branches 1 and 2: only e = 3.0 fails, past its piece
            ((1, 2), OUTSIDE),
        ],
    )
    def test_one_validity_mask_raises_the_errors_of_the_tests_in_turn(self, branches, grid_error):
        # the errors of the interval and window tests, taken at once, pinned:
        # the same type, text and failed mask for a grid, a float and the wall row
        problem = nondimensionalize(linear_setup_for(1e-3))
        basis = wkb_assembly(problem, np.array([3.0, 3.1, 3.2])).basis
        grid = np.array([0.0, 3.2, 3.1, 253.0])[:, None]
        queries = [
            (lambda: basis.table.logs(grid, branches), grid_error),
            (lambda: basis.table.derivatives(grid, 2, branches), grid_error),
        ]
        if max(branches) > 2:
            queries.append((lambda: basis.table.logs(3.1, branches), self.WINDOW))
        if branches == (1, 2, 3, 4):
            queries += [
                (lambda: basis.point_rows([(0.0, 0), (3.1, 0)]), self.WINDOW),
                (lambda: basis.point_rows([(0.0, 0), (253.0, 0)]), self.OUTSIDE),
            ]
        for query, (message, failed) in queries:
            with pytest.raises(ValidityError) as info:
                query()
            assert type(info.value) is ValidityError
            assert str(info.value) == message
            assert info.value.failed.tolist() == failed


class TestWkbCount:
    """A WKB count reads its tables alone: it forms no branch, asks the classes
    once per decay side and raises the errors pinned below."""

    @pytest.mark.parametrize("eps", [1e-16, 1e-18, 1e-22])
    def test_linear_counts_one_at_small_eps(self, eps):
        # the count reads the wall row and the branch labels; the far piece it
        # once built put its x0 = s_zero + 0.55 on its lower end at these eps
        problem = nondimensionalize(linear_setup_for(eps))
        energies = np.array([0.5, 2.0, 8.0])
        assert degrees_of_freedom(problem, energies)[0].tolist() == [1, 1, 1]
        for e in energies.tolist():
            assert degrees_of_freedom(problem, e)[0] == 1

    @pytest.mark.parametrize("energy", [2.0, np.array([1.5, 2.0, 3.0])], ids=["single", "batch"])
    @pytest.mark.parametrize("kind", ["linear", "harmonic"])
    def test_a_count_forms_no_branch(self, monkeypatch, linear_problem, harmonic_problem, kind, energy):
        # neither a far-piece branch (interval unbounded above) nor any
        # other: the linear wall row comes from the interior table, and a
        # harmonic count has decay rows alone; the bound states read the
        # sets' tables too (the linear wall values from the tail search's query)
        import gupbic.basis as basis_module

        problem = linear_problem if kind == "linear" else harmonic_problem
        formed = []
        init = basis_module.WkbBasisFunction.__init__

        def recording(self, table, index):
            formed.append(table.interval)
            init(self, table, index)

        monkeypatch.setattr(basis_module.WkbBasisFunction, "__init__", recording)
        nullity, system = degrees_of_freedom(problem, energy)
        assert np.all(nullity == (1 if kind == "linear" else 2))
        assert not [hi for _, hi in formed if np.all(np.isinf(hi))], "a count formed a far-piece branch"
        assert formed == []
        assert len(system.basis) == 4
        assert bound_states(problem, float(np.ravel(energy)[-1])).degeneracy == (1 if kind == "linear" else 2)
        assert formed == [], "a bound state formed a branch"

    @pytest.mark.parametrize("energy", [2.0, np.array([1.5, 2.0, 3.0])], ids=["single", "batch"])
    @pytest.mark.parametrize("kind", ["linear", "harmonic"])
    def test_a_count_builds_one_exponent_table(self, monkeypatch, linear_problem, harmonic_problem, kind, energy):
        # the interior piece's: the decay rows read the branch labels, not a far piece
        import gupbic.basis as basis_module

        problem = linear_problem if kind == "linear" else harmonic_problem
        intervals = []
        init = basis_module.ExponentTable.__init__

        def recording(self, params, interval, b_zeros):
            intervals.append(interval)
            init(self, params, interval, b_zeros)

        monkeypatch.setattr(basis_module.ExponentTable, "__init__", recording)
        _, system = degrees_of_freedom(problem, energy)
        assert len(intervals) == 1 and intervals[0] is system.basis.table.interval
        assert np.all(np.isfinite(intervals[0][1]))

    @pytest.mark.parametrize("kind, sides", [("linear", ["+inf"]), ("harmonic", ["-inf", "+inf"])], ids=["linear", "harmonic"])
    def test_one_classification_call_per_decay_side(self, monkeypatch, linear_problem, harmonic_problem, kind, sides):
        import gupbic.matcher as matcher_module

        problem = linear_problem if kind == "linear" else harmonic_problem
        calls = []
        classify_asymptotics = matcher_module.classify_asymptotics

        def counted(basis, side):
            calls.append(side.value)
            return classify_asymptotics(basis, side)

        monkeypatch.setattr(matcher_module, "classify_asymptotics", counted)
        for energy in (2.0, np.array([1.5, 2.0, 3.0])):
            calls.clear()
            degrees_of_freedom(problem, energy)
            assert calls == sides

    # (kind, eps, energy or energies, message, failed): every error a count
    # raises is a PreconditionError of wkb_assembly, with these texts and masks
    PINNED_ERRORS = [
        ("linear", 0.05, [0.01, 0.03, 0.5, 2.0],
         "turning point x_t=0.01 is too close to the wall at x=0: its turning window (half-width 0.05) "
         "must leave out the reference point x0=0.001, so x_t >= 0.051; the lowest energy that works is "
         "about 5.1e-20 J (dimensionless 0.051)", [True, True, False, False]),
        ("linear", 0.05, 0.03,
         "turning point x_t=0.03 is too close to the wall at x=0: its turning window (half-width 0.05) "
         "must leave out the reference point x0=0.001, so x_t >= 0.051; the lowest energy that works is "
         "about 5.1e-20 J (dimensionless 0.051)", None),
        ("linear", 0.05, [-1.0, 0.5, 0.0], "energy must be > 0", [True, False, True]),
        ("harmonic", 0.25, [1.0, 5.0, 40.0, 60.0],
         "forbidden band (6.3246, 6.4031) thinner than the turning windows (half-width 0.05); the band "
         "narrows as the energy rises: the highest energy that works is about 2.45e-17 J (dimensionless "
         "24.5); lower the energy or decrease epsilon (beta)", [False, False, True, True]),
        ("harmonic", 0.25, 60.0,
         "forbidden band (7.746, 7.8102) thinner than the turning windows (half-width 0.05); the band "
         "narrows as the energy rises: the highest energy that works is about 2.45e-17 J (dimensionless "
         "24.5); lower the energy or decrease epsilon (beta)", None),
        ("harmonic", 2.0, [1.0, 2.0],
         "forbidden band (1, 1.0607) thinner than the turning windows (half-width 0.05); the band "
         "narrows as the energy rises: the highest energy that works is about 3.306e-19 J (dimensionless "
         "0.3306); lower the energy or decrease epsilon (beta)", [True, True]),
        ("harmonic", 0.02, [0.0, 1.0], "energy must be > 0", [True, False]),
    ]

    @pytest.mark.parametrize(
        "kind, eps, energy, message, failed",
        PINNED_ERRORS,
        ids=["linear-wall-batch", "linear-wall-single", "linear-nonpositive", "harmonic-band-batch",
             "harmonic-band-single", "harmonic-no-energy-works", "harmonic-nonpositive"],
    )
    def test_count_errors_are_pinned(self, kind, eps, energy, message, failed):
        problem = nondimensionalize((linear_setup_for if kind == "linear" else harmonic_setup_for)(eps))
        with pytest.raises(PreconditionError) as info:
            degrees_of_freedom(problem, np.array(energy) if isinstance(energy, list) else energy)
        assert type(info.value) is PreconditionError
        assert str(info.value) == message
        got = info.value.failed
        assert (got is None and failed is None) or got.tolist() == failed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_batch_raises_as_its_first_failing_energy(self, seed):
        # seeded linear and harmonic problems: a batched count raises the
        # error its first failing energy raises alone, with the energies
        # whose own count raises the same check as ``failed``
        # ranges where the linear wall is too close at low energies and the
        # harmonic band too thin at high ones
        rng = np.random.default_rng(seed)
        for setup_for, eps_lo in ((linear_setup_for, 1e-3), (harmonic_setup_for, 0.1)):
            problem = nondimensionalize(setup_for(float(10.0 ** rng.uniform(math.log10(eps_lo), math.log10(0.5)))))
            energies = np.sort(10.0 ** rng.uniform(-2.5, 2.0, 6))
            alone = []
            for e in energies.tolist():
                try:
                    degrees_of_freedom(problem, e)
                    alone.append(None)
                except PreconditionError as exc:
                    alone.append(str(exc))
            first = next((m for m in alone if m is not None), None)
            if first is None:
                assert degrees_of_freedom(problem, energies)[0].shape == energies.shape
                continue
            with pytest.raises(PreconditionError) as info:
                degrees_of_freedom(problem, energies)
            assert str(info.value) == first
            check = first.split(" ", 2)[:2]  # "turning point" or "forbidden band"
            assert info.value.failed.tolist() == [m is not None and m.split(" ", 2)[:2] == check for m in alone]


class TestSolvers:
    def test_well_special_pair(self, well_problem):
        sol = solve_well(well_problem, E1_DIMLESS)
        assert sol.degeneracy == 2
        xs = np.linspace(-1, 1, 101)
        sine = np.sin(np.pi / 2 * (xs + 1))
        vals = np.array([sol.states[0].value(x).real for x in xs])
        sign = 1.0 if np.dot(vals, sine) > 0 else -1.0
        assert np.max(np.abs(sign * vals - sine)) < 1e-10
        # partner satisfies both walls
        assert abs(sol.states[1].value(-1.0)) < 1e-10
        assert abs(sol.states[1].value(1.0)) < 1e-10

    def test_well_generic_pair_mixes_components(self, well_problem):
        sol = solve_well(well_problem, 1.6382307546)
        assert sol.degeneracy == 2
        for st in sol.states:
            exp_part = np.max(np.abs(st.coefficients[:2]))
            osc_part = np.max(np.abs(st.coefficients[2:]))
            assert exp_part > 1e-8 and osc_part > 1e-3

    def test_well_pair_orthonormal(self, well_problem):
        sol = solve_well(well_problem, 1.6382307546)
        ips = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                ips[i, j] = quad(
                    lambda x: (sol.states[i].value(x) * np.conj(sol.states[j].value(x))).real,
                    -1.0, 1.0, limit=200,
                )[0]
        assert np.allclose(ips, np.eye(2), atol=1e-8)

    def test_well_raw_mode_not_orthogonal(self, well_problem):
        sol = solve_well(well_problem, 1.6382307546, orthogonalize=False)
        ip = quad(
            lambda x: (sol.states[0].value(x) * np.conj(sol.states[1].value(x))).real,
            -1.0, 1.0, limit=200,
        )[0]
        assert abs(ip) > 1e-3  # the raw determinant pair genuinely overlaps

    def test_well_span_matches_determinant_construction(self, well_problem):
        # orthonormal output spans the same plane as the determinant pair
        e = 1.6382307546
        sol = solve_well(well_problem, e)
        det_pair = [st.coefficients for st in solve_well(well_problem, e, orthogonalize=False).states]
        assert det_pair[0][3] == det_pair[1][0] == 0.0  # the (1, 2, 3) and (2, 3, 4) triples
        q_det, _ = np.linalg.qr(np.array(det_pair).T)
        q_out, _ = np.linalg.qr(np.array([st.coefficients for st in sol.states]).T)
        # principal angles via singular values of q1^H q2
        svals = np.linalg.svd(q_det.conj().T @ q_out, compute_uv=False)
        assert np.all(np.abs(svals - 1.0) < 1e-8)

    def test_well_states_satisfy_ode(self, well_problem):
        sol = solve_well(well_problem, 5.5)
        grid = np.linspace(-0.999, 0.999, 2000)
        for st in sol.states:
            assert residual(st, well_problem, 5.5, grid) < 1e-6

    def test_extra_condition_injection_reduces_dof(self, well_problem):
        sol = solve_well(well_problem, 5.5)
        assert sol.degeneracy == 2
        roots = characteristic_roots(well_problem.epsilon, 5.5)
        basis = exact_constant_basis(roots, well_problem.domain)
        system = assemble(
            basis, conditions_for(well_problem), 5.5, extra_conditions=[0.3]
        )
        nullity, _ = nullspace(system)
        assert nullity == 1

    def test_curvature_condition_injection(self, well_problem):
        # opt-in phi''(+-a) = 0 rows for sensitivity studies
        roots = characteristic_roots(well_problem.epsilon, 5.5)
        basis = exact_constant_basis(roots, well_problem.domain)
        system = assemble(
            basis,
            conditions_for(well_problem),
            5.5,
            extra_conditions=[(-1.0, 2), (1.0, 2)],
        )
        assert "phi^(2)(-1) = 0" in system.row_kinds
        nullity, _ = nullspace(system)
        assert nullity == 0  # generic energy: all four coefficients pinned

    def test_linear_state(self, linear_problem):
        sol = solve_linear(linear_problem, 2.0)
        assert sol.degeneracy == 1
        st = sol.states[0]
        assert abs(st.value(0.0)) < 1e-10
        norm = sum(
            quad(lambda x: abs(st.value(x)) ** 2, lo, hi, limit=300)[0]
            for lo, hi in sol.regions
        )
        assert norm == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("eps, e", [(0.01, 2.0), (0.12, 2.0), (1e-3, 5.0), (0.2, 0.5)])
    def test_linear_tail_cut_matches_point_by_point_search(self, eps, e):
        # solve_linear evaluates both search grids in one query of both
        # branches; its regions must be those of a scan that stops at the
        # first point 70 below the peak
        from gupbic.basis import TURNING_WINDOW_HALF_WIDTH as W

        problem = nondimensionalize(linear_setup_for(eps))
        asm = wkb_assembly(problem, e)
        w2, w4 = (WkbBasisFunction(asm.basis.table, j) for j in (2, 4))
        shift = math.log(abs(cmath.exp(w2.exponent(0.0)) / cmath.exp(w4.exponent(0.0))) + 1e-300)
        state_log = lambda x: max(w2.exponent(x).real, w4.exponent(x).real + shift)
        x_t = min(asm.b_zeros)
        cut = min(asm.s_zeros) - W
        peak = max(state_log(x) for x in np.linspace(1e-3, x_t - 2 * W, 9))
        for x in np.linspace(x_t + 2 * W, cut, 60):
            if state_log(x) < peak - 70.0:
                cut = x
                break
        assert solve_linear(problem, e).regions == ((0.0, x_t - W), (x_t + W, cut))

    @pytest.mark.parametrize("eps", [1e-4, 1e-2, 0.2])
    def test_linear_low_energy_limit_is_named(self, eps):
        # below x_t = 0.05 + 1e-3 the turning window would hold the reference
        # point next to the wall: the scan records the limit, and just above
        # the energy it names the count and the state are there
        setup = linear_setup_for(eps)
        scan = dof_scan(setup, [1e-21, 1e-20, 5e-20])
        assert scan.dof == (None, None, None)
        for message in scan.errors.values():
            assert message.startswith("PreconditionError")
            assert "x_t=" in message and "half-width 0.05" in message
        e_min = float(re.search(r"lowest energy that works is about (\S+) J", message).group(1))
        problem = nondimensionalize(setup)
        assert dof_scan(setup, [1.001 * e_min]).dof == (1,)
        assert bound_states(problem, problem.energy_from_si(1.001 * e_min)).degeneracy == 1

    @pytest.mark.parametrize("eps", [1.0, 0.5, 0.316])
    def test_harmonic_high_energy_limit_is_named(self, eps):
        # v = c x^2 with c = 1 at the canonical length: the forbidden band
        # (sqrt(e), sqrt(e + 1/(4 eps))) narrows as e rises and stays wider
        # than the two windows (0.1) below e_max = ((1/(4 eps) - 0.01)/0.2)^2
        problem = nondimensionalize(harmonic_setup_for(eps))
        assert problem.v_coefficients[2] == pytest.approx(2.0)
        with pytest.raises(PreconditionError) as info:
            degrees_of_freedom(problem, 100.0)
        limit = r"highest energy that works is about (\S+) J \(dimensionless (\S+)\)"
        found = re.search(limit, str(info.value))
        e_si, e_max = float(found.group(1)), float(found.group(2))
        assert e_max == pytest.approx(((0.25 / eps - 0.01) / 0.2) ** 2, rel=1e-3)
        assert e_si == pytest.approx(problem.energy_to_si(e_max), rel=1e-3, abs=0.0)
        assert degrees_of_freedom(problem, 0.99 * e_max)[0] == 2
        with pytest.raises(PreconditionError, match="highest energy that works"):
            degrees_of_freedom(problem, 1.01 * e_max)

    def test_harmonic_epsilon_limit_is_named(self):
        # 1/(4 eps) <= 0.01 c: the band is thinner than the windows at every
        # energy, so the message names the epsilon limit 1/(0.04 c) = 25
        problem = nondimensionalize(harmonic_setup_for(30.0))
        for e in (0.01, 1.0, 10.0):
            with pytest.raises(PreconditionError, match="no energy works") as info:
                degrees_of_freedom(problem, e)
            limit = re.search(r"epsilon must be below about (\S+) ", str(info.value))
            eps_max = float(limit.group(1))
            assert eps_max == pytest.approx(25.0, rel=1e-3)
        below = nondimensionalize(harmonic_setup_for(0.99 * eps_max))
        with pytest.raises(PreconditionError, match="highest energy that works"):
            degrees_of_freedom(below, 10.0)

    def test_linear_band_limit_is_named(self):
        # the linear band s_zero - x_t = 1/(4 eps) does not depend on the
        # energy; the state's tail grid starts at x_t + 2 W and ends at
        # s_zero - W, so past eps = 5/3 it would be empty at every energy
        # and its first abscissa fell past the piece (a ValidityError)
        for e in (0.5, 2.0, 8.0):
            assert bound_states(nondimensionalize(linear_setup_for(1.66)), e).degeneracy == 1
            problem = nondimensionalize(linear_setup_for(1.67))
            assert degrees_of_freedom(problem, e)[0] == 1
            with pytest.raises(PreconditionError, match="narrower than three turning-window") as info:
                bound_states(problem, e)
            eps_max = float(re.search(r"epsilon must be at most about (\S+) ", str(info.value)).group(1))
            assert eps_max == pytest.approx(5.0 / 3.0, rel=1e-3)

    def test_linear_batch_past_the_band_limit_counts_as_each_energy(self):
        # at eps 5 the turning point x_t rounds past the piece's end at e = 0.5
        # alone; the count reads the wall only, so the batch is each energy's
        # count bit for bit, and each energy's state is refused the same way
        problem = nondimensionalize(linear_setup_for(5.0))
        energies = np.array([0.5, 2.0, 8.0])
        dof, system = degrees_of_freedom(problem, energies)
        assert dof.tolist() == [1, 1, 1]
        for n, e in enumerate(energies.tolist()):
            one_dof, one = degrees_of_freedom(problem, e)
            assert one_dof == 1
            assert np.array_equal(_bits(system.matrix[n]), _bits(one.matrix))
            with pytest.raises(PreconditionError, match=r"at most about 1\.667 ") as info:
                bound_states(problem, e)
            assert "forbidden band" in str(info.value)

    def test_overflow_message_names_the_cap(self):
        # harmonic eps 1e-4: the Gram nodes pass exp(700); the message names
        # the first offending abscissa and the cap, not the node array
        problem = nondimensionalize(harmonic_setup_for(1e-4))
        with pytest.raises(BasisOverflowError) as info:
            bound_states(problem, 3.0)
        message = str(info.value)
        assert "700" in message and "x=" in message
        assert len(message) < 120

    @pytest.mark.parametrize("e", [8.0, 15.5])
    def test_gram_product_overflow_is_named(self, e):
        # linear eps 1e-4: every node value is below exp(700), but the Gram's
        # products w_i w_j* pass the float range once log|w| passes the limit
        # log sqrt(max float) - log(width) / 2 at the failing node's panel width
        problem = nondimensionalize(linear_setup_for(1e-4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BasisOverflowError) as info:
                bound_states(problem, e)
        message = str(info.value)
        assert "float range" in message
        assert "WkbBasisFunction(j=" in message and "x=" in message
        assert "[" not in message and len(message) < 300
        found = re.search(r"beyond the limit (\S+) at its panel width (\S+)$", message)
        limit, width = float(found[1]), float(found[2])
        expected = 0.5 * math.log(np.finfo(float).max) - 0.5 * math.log(width)
        assert limit == pytest.approx(expected, abs=1e-3)
        assert limit < info.value.exponent < 700.0

    def test_norm_overflow_is_named(self):
        # linear eps 1.106e-4, e 8.33: the Gram is finite, but its entries near
        # the float max make the state's norm^2 c^H F c pass the float range;
        # the error names that limit, log(max float), with no numpy warning
        from gupbic.core import Linear, PhysicalSetup

        setup = PhysicalSetup(mass=9.10956e-31, beta=9.105818502759737e43, potential=Linear(slope=1.2799338868106442e-08))
        problem = nondimensionalize(setup)
        assert problem.epsilon == pytest.approx(1.106e-4, rel=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BasisOverflowError) as info:
                bound_states(problem, problem.energy_from_si(8.33e-18))
        found = re.search(r"= (\S+), beyond the limit (\S+)$", str(info.value))
        assert "float range" in str(info.value)
        assert float(found[2]) == pytest.approx(math.log(np.finfo(float).max), abs=1e-3)
        assert float(found[1]) == pytest.approx(info.value.exponent, abs=1e-3)
        assert info.value.exponent > math.log(np.finfo(float).max)

    def test_linear_state_ode_residual(self):
        # The slow-branch amplitude error is the classical second-order-WKB
        # one, ~(5/16)/|v-e|^3 relative, so the <=5% contract applies at least
        # |v - e| >= ~1.6 away from the turning point.
        problem = nondimensionalize(linear_setup_for(1e-3))
        sol = solve_linear(problem, 2.0)
        st = sol.states[0]
        x_t = 2.0
        grid = np.concatenate(
            [np.linspace(0.05, x_t - 1.65, 30), np.linspace(x_t + 1.6, x_t + 3.0, 30)]
        )
        assert residual(st, problem, 2.0, grid) < 0.05

    def test_harmonic_pair(self):
        problem = nondimensionalize(harmonic_setup_for(0.002))
        sol = solve_harmonic(problem, 1.7)
        assert sol.degeneracy == 2
        ip = sum(
            quad(
                lambda x: (sol.states[0].value(x) * np.conj(sol.states[1].value(x))).real,
                lo, hi, limit=300,
            )[0]
            + 1j
            * quad(
                lambda x: (sol.states[0].value(x) * np.conj(sol.states[1].value(x))).imag,
                lo, hi, limit=300,
            )[0]
            for lo, hi in sol.regions
        )
        assert abs(ip) < 1e-8

    def test_dof_matches_prediction_50_random_energies(
        self, well_problem, linear_problem, harmonic_problem
    ):
        rng = np.random.default_rng(42)
        for problem, e_range in (
            (well_problem, (0.3, 30.0)),
            (linear_problem, (0.5, 18.0)),
            (harmonic_problem, (0.5, 18.0)),
        ):
            predicted = classify(conditions_for(problem)).predicted_dof
            for e in rng.uniform(*e_range, size=50):
                dof, _ = degrees_of_freedom(problem, float(e))
                assert dof == predicted, f"{problem.kind} at e={e}"

    def test_bound_states_dispatch(self, well_problem, linear_problem):
        assert bound_states(well_problem, 5.5).degeneracy == 2
        assert bound_states(linear_problem, 2.0).degeneracy == 1

    def test_extreme_epsilon_counts_and_solves(self):
        # mu1 ~ 1/sqrt(eps) = 1000: the wall-anchored boundary layers keep every
        # wall value in [0, 1], so the states are built wherever the count is
        from gupbic.verification import beta_for_epsilon, reference_well_setup

        setup = reference_well_setup(beta=beta_for_epsilon(1e-6, 1e-10))
        problem = nondimensionalize(setup)
        assert degrees_of_freedom(problem, 5.0)[0] == 2
        sol = solve_well(problem, 5.0)
        assert sol.degeneracy == 2
        grid = np.linspace(-0.999, 0.999, 401)  # the layers are 1e-3 wide
        for st in sol.states:
            assert abs(st.value(-1.0)) < 1e-8
            assert abs(st.value(1.0)) < 1e-8
            assert residual(st, problem, 5.0, grid) < 1e-10

    def test_well_solves_across_wide_conditioning(self):
        from gupbic.verification import beta_for_epsilon, reference_well_setup

        betas = [beta_for_epsilon(eps, 1e-10) for eps in (1e-4, 5.0, 0.074)]
        cases = list(zip(betas, (30.0, 3.0, 2000.0)))
        # beta 1e47 ... 1e30 is eps 0.074 ... 7.4e-19, below the critical exponent ~47.6
        cases += [(beta, e) for beta in (1e47, 1e44, 1e42, 1e38, 1e34, 1e30) for e in (2.5, 30.0)]
        for beta, e in cases:
            problem = nondimensionalize(reference_well_setup(beta=beta))
            sol = solve_well(problem, e)
            assert sol.degeneracy == 2
            for st in sol.states:
                assert abs(st.value(-1.0)) < 1e-8
                assert abs(st.value(1.0)) < 1e-8


# --- wavefunction shapes against a high-precision evaluation ---------------------


def _mp_wkb_value(mp, table, j, x):
    """w_j(x) of branch j of ``table`` at 30 digits from the textbook formula.

    w = lam^(-1/2) s^(-1/2) exp(eta I1 - I2/2), I1 = int lam, I2 = int lam'/s
    from x0, lam = tau sqrt(a + sigma s), s = sqrt(a^2 - b), b = (v - e)/2,
    lam' = sigma s' / (2 lam), s' = -b'/(2 s), with principal square roots
    and logs.  The inputs are the double parameters of the branch, taken
    exactly; the path to x is split at the exact turning point b = 0, where
    branches 3 and 4 have an integrable singularity.
    """
    p = table.params
    sigma, tau = {1: (1, 1), 2: (1, -1), 3: (-1, 1), 4: (-1, -1)}[j]
    a, eta, e, x0, x = (mp.mpf(float(t)) for t in (p.a_coef, p.eta, p.energy, p.x0, x))
    _, b1, b2, _, _ = (mp.mpf(float(t)) for t in p.b_chain(0.0))
    # v = 2 b1 x + b2 x^2 for the linear (b2 = 0) and harmonic (b1 = 0) potentials
    b = lambda t: b1 * t + b2 * t * t / 2 - e / 2
    db = lambda t: b1 + b2 * t

    def lam_s(t):
        s = mp.sqrt(a * a - b(t))
        return tau * mp.sqrt(a + sigma * s), s

    def dlam_over_s(t):
        lam, s = lam_s(t)
        return sigma * (-db(t) / (2 * s)) / (2 * lam) / s

    x_t = e / (2 * b1) if b2 == 0 else mp.sqrt(e / b2)
    path = [x0] + ([x_t] if min(x0, x) < x_t < max(x0, x) else []) + [x]
    lam, s = lam_s(x)
    exponent = eta * mp.quad(lambda t: lam_s(t)[0], path) - mp.quad(dlam_over_s, path) / 2
    return mp.exp(exponent - (mp.log(lam) + mp.log(s)) / 2)


@pytest.mark.parametrize("kind", ["linear", "harmonic"])
def test_wavefunction_shape_matches_high_precision_reference(kind):
    # the states of `wavefunction --E 2e-18` (README setups, default beta),
    # phi / peak at 10 points per region, against the same coefficients on
    # 30-digit branch values
    mp = pytest.importorskip("mpmath")
    from gupbic.core import Harmonic, Linear, PhysicalSetup

    potential = Linear(slope=1.281e-8) if kind == "linear" else Harmonic(omega=1.897e16)
    problem = nondimensionalize(PhysicalSetup(mass=9.10956e-31, beta=1e47, potential=potential))
    sol = bound_states(problem, problem.energy_from_si(2e-18))
    xs = np.concatenate([np.linspace(lo, hi, 10) for lo, hi in sol.regions])
    cache = {}
    with mp.workdps(30):
        for st in sol.states:
            ref = []
            for x in xs:
                total = mp.mpc(0)
                for j, c in enumerate(st.coefficients):
                    if c != 0:
                        # the even continuation reads its branch at |x|
                        key = (j, abs(float(x)))
                        if key not in cache:
                            cache[key] = _mp_wkb_value(mp, st.basis.table, j + 1, abs(float(x)))
                        total += mp.mpc(complex(c)) * cache[key]
                ref.append(total)
            peak_ref = max(abs(r) for r in ref)
            shape_ref = np.array([complex(r / peak_ref) for r in ref])
            phi = st.value(xs)
            shape = phi / np.max(np.abs(phi))
            assert np.max(np.abs(shape - shape_ref)) < 1e-13
