import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gupbic import (
    HBAR,
    Harmonic,
    InfiniteWell,
    Linear,
    PhysicalSetup,
    nondimensionalize,
)
from gupbic.core import (
    load_config,
    parse_config_text,
    setup_from_entries,
)
from gupbic.errors import ConfigError, InvalidSetupError

REFERENCE_PARAMS = dict(mass=9.10956e-31, beta=1e47, a=1e-10)


def reference_setup(beta=REFERENCE_PARAMS["beta"]):
    return PhysicalSetup(mass=REFERENCE_PARAMS["mass"], beta=beta, potential=InfiniteWell(a=REFERENCE_PARAMS["a"]))


class TestNondimensionalization:
    def test_beta_zero_gives_epsilon_zero(self):
        problem = nondimensionalize(reference_setup(beta=0.0))
        assert problem.epsilon == 0.0

    def test_reference_epsilon(self):
        problem = nondimensionalize(reference_setup())
        assert problem.epsilon == pytest.approx(7.414144781404543e-2, rel=1e-12)

    def test_reference_energy_scale(self):
        problem = nondimensionalize(reference_setup())
        assert problem.energy_scale == pytest.approx(6.1041461783592245e-19, rel=1e-12, abs=0.0)

    def test_beta_prime_is_derived(self):
        setup = reference_setup()
        assert setup.beta_prime == setup.beta / 3.0

    def test_round_trip_identity(self):
        problem = nondimensionalize(reference_setup())
        for value in (1e-18, 3.7e-19, 2e-17):
            assert problem.energy_to_si(problem.energy_from_si(value)) == pytest.approx(
                value, rel=1e-14, abs=0.0
            )
        for x in (1e-10, -3e-11, 7.7e-11):
            assert problem.length_to_si(problem.length_from_si(x)) == pytest.approx(
                x, rel=1e-14, abs=0.0
            )

    def test_epsilon_invariant_under_joint_rescaling(self):
        # a -> s a, beta -> s^2 beta leaves eps = 2(beta/3) hbar^2/a^2 unchanged
        rng = np.random.default_rng(7)
        base = nondimensionalize(reference_setup()).epsilon
        for s in rng.uniform(0.2, 5.0, size=10):
            setup = PhysicalSetup(
                mass=REFERENCE_PARAMS["mass"],
                beta=REFERENCE_PARAMS["beta"] * s**2,
                potential=InfiniteWell(a=REFERENCE_PARAMS["a"] * s),
            )
            assert nondimensionalize(setup).epsilon == pytest.approx(base, rel=1e-12)

    def test_reference_marked_energies_dimensionless(self):
        # E/E_c for the three marked energies, frozen from E_c = hbar^2/(2 m a^2)
        problem = nondimensionalize(reference_setup())
        for e_si, expected in [(1e-18, 1.6382307546), (5e-18, 8.1911537730), (1e-17, 16.3823075461)]:
            assert problem.energy_from_si(e_si) == pytest.approx(expected, rel=1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidSetupError):
            PhysicalSetup(mass=math.nan, beta=1e47, potential=InfiniteWell(a=1e-10))

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidSetupError):
            PhysicalSetup(mass=-1.0, beta=0.0, potential=InfiniteWell(a=1e-10))
        with pytest.raises(InvalidSetupError):
            PhysicalSetup(mass=1.0, beta=-1.0, potential=InfiniteWell(a=1e-10))
        with pytest.raises(InvalidSetupError):
            InfiniteWell(a=0.0)
        with pytest.raises(InvalidSetupError):
            Linear(slope=-2.0)
        with pytest.raises(InvalidSetupError):
            Harmonic(omega=0.0)

    def test_canonical_scales(self):
        m, hbar = REFERENCE_PARAMS["mass"], HBAR
        assert reference_setup().canonical_length_scale() == REFERENCE_PARAMS["a"]
        lin = PhysicalSetup(mass=m, beta=0.0, potential=Linear(slope=2.5e-8))
        assert lin.canonical_length_scale() == pytest.approx(
            (hbar**2 / (2 * m * 2.5e-8)) ** (1 / 3), rel=1e-13, abs=0.0
        )
        har = PhysicalSetup(mass=m, beta=0.0, potential=Harmonic(omega=1e16))
        assert har.canonical_length_scale() == pytest.approx(
            math.sqrt(hbar / (m * 1e16)), rel=1e-13, abs=0.0
        )


LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent)
POTENTIALS = {"well": InfiniteWell, "linear": Linear, "harmonic": Harmonic}


@given(
    kind=st.sampled_from(sorted(POTENTIALS)),
    mass=LOG_UNIFORM,
    beta=st.one_of(st.just(0.0), LOG_UNIFORM),
    parameter=LOG_UNIFORM,
)
@settings(max_examples=400, deadline=None)
def test_finite_setups_scale_into_range_or_raise_invalid_setup(kind, mass, beta, parameter):
    # every finite setup either nondimensionalizes to finite scales or is
    # refused with InvalidSetupError; no ZeroDivisionError or OverflowError
    setup = PhysicalSetup(mass=mass, beta=beta, potential=POTENTIALS[kind](parameter))
    try:
        problem = nondimensionalize(setup)
    except InvalidSetupError:
        return
    assert math.isfinite(problem.length_scale) and problem.length_scale > 0.0
    assert math.isfinite(problem.energy_scale) and problem.energy_scale > 0.0
    assert math.isfinite(problem.epsilon) and problem.epsilon >= 0.0
    assert all(math.isfinite(d) for d in problem.v_derivs(1.0))


class TestPotentialValues:
    """``v_derivs`` against each potential's closed form, exactly, at a float and a (K, N) array."""

    XS = (2.5, np.random.default_rng(34).uniform(-3.0, 3.0, (4, 7)))

    @staticmethod
    def assert_derivs(problem, x, v, v1, v2):
        got = problem.v_derivs(x)
        for g, want in zip(got[:2], (v, v1)):
            assert np.shape(g) == np.shape(x) and np.all(g == want)
        assert got[2] == v2

    def test_well_interior_zero(self):
        problem = nondimensionalize(reference_setup())
        assert problem.v_coefficients == (0.0, 0.0, 0.0)
        for x in self.XS:
            self.assert_derivs(problem, x, 0.0, 0.0, 0.0)

    def test_harmonic_canonical_is_x_squared(self):
        setup = PhysicalSetup(mass=REFERENCE_PARAMS["mass"], beta=0.0, potential=Harmonic(omega=2e16))
        problem = nondimensionalize(setup)
        c = 0.5 * problem.v_coefficients[2]
        # the canonical oscillator length makes v = x^2
        assert problem.v_coefficients[:2] == (0.0, 0.0) and c == pytest.approx(1.0, rel=1e-12)
        for x in self.XS:
            self.assert_derivs(problem, x, c * x * x, 2.0 * c * x, 2.0 * c)

    def test_linear_is_linear(self):
        setup = PhysicalSetup(mass=REFERENCE_PARAMS["mass"], beta=0.0, potential=Linear(slope=3e-8))
        problem = nondimensionalize(setup)
        s = problem.v_coefficients[1]
        # canonical bouncer scale makes the slope one
        assert problem.v_coefficients[::2] == (0.0, 0.0) and s == pytest.approx(1.0, rel=1e-12)
        for x in self.XS:
            self.assert_derivs(problem, x, s * x, s, 0.0)


class TestConfig:
    GOOD = """
    # electron in a well
    mass = 9.10956e-31
    beta = 1e47   # bare number, 1/momentum^2 convention
    potential = well
    a = 1e-10
    """

    def test_parse_and_build(self):
        setup = setup_from_entries(parse_config_text(self.GOOD))
        assert isinstance(setup.potential, InfiniteWell)
        assert setup.beta == 1e47
        assert setup.potential.a == 1e-10

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("masss = 1.0")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("mass = 1\nmass = 2")

    def test_missing_value_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some text")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="potential"):
            setup_from_entries(parse_config_text("mass = 1e-30\nbeta = 0"))

    @pytest.mark.parametrize("kind, key", [("well", "a"), ("linear", "L"), ("harmonic", "omega")])
    def test_missing_potential_key(self, kind, key):
        # each kind needs its own field's key, read before mass and beta
        with pytest.raises(ConfigError) as exc:
            setup_from_entries(parse_config_text(f"potential = {kind}"))
        assert str(exc.value) == f"missing required key {key!r}"

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="not a number"):
            setup_from_entries(
                parse_config_text("mass = heavy\nbeta = 0\npotential = well\na = 1e-10")
            )

    def test_unknown_potential(self):
        for kind in ("coulomb", "custom"):
            with pytest.raises(ConfigError, match="unknown potential .*well, linear or harmonic"):
                setup_from_entries(
                    parse_config_text(f"mass = 1e-30\nbeta = 0\npotential = {kind}")
                )

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(self.GOOD)
        setup = load_config(path)
        assert setup.mass == 9.10956e-31
