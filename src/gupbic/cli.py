"""Command-line front end.

Subcommands: wavefunction, dof-scan, spectrum, observability, momentum-check,
verify.  All user-facing energies and lengths are SI (dimensionless columns
are included for transparency).  Exit codes: 0 ok, 1 verification failure,
2 usage/config error, 3 numerical failure.  Errors, argparse's usage errors
included, are reported as a JSON object on stderr.

Importing this module loads only ``core``, ``errors`` and ``output``; each
command imports the numerical layers it runs when it runs.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    DEFAULT_RTOL,
    MAX_RTOL,
    MIN_RTOL,
    Harmonic,
    InfiniteWell,
    Linear,
    PhysicalSetup,
    load_config,
    nondimensionalize,
    reference_well_setup,
)
from .errors import (
    ConfigError,
    GupBicError,
    InvalidSetupError,
    PreconditionError,
    WrongPotentialError,
)
from .output import RunManifest, config_digest, write_csv, write_json

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# unused here: the layer names this module once imported stay readable as
# attributes because perfbench/tracer.py reads cli.dof_scan; kept until ROADMAP
# item 1 step 2 replaces the tracer
_LAYER_NAMES = {
    "bound_states": "matcher",
    "dof_scan": "spectrum",
    "observability": "spectrum",
    "well_special_energies": "spectrum",
    "OBVIOUS_RATIO_THRESHOLD": "spectrum",
    "momentum_dimension_evidence": "verification",
    "run_verification": "verification",
}


def __getattr__(name: str):
    # imported on access and never bound here, so a patch of the layer's name is seen
    module = _LAYER_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


# unused here: perfbench/run.py and perfbench/workloads.py call cli.default_setup until ROADMAP item 1 step 2
def default_setup() -> PhysicalSetup:
    """Reference configuration: electron in a 1 Angstrom half-width well, beta = 1e47."""
    return reference_well_setup()


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", default=None, help="key = value config file")
    parser.add_argument("--out", metavar="DIR", default=".", help="output directory")
    parser.add_argument("--potential", choices=["well", "linear", "harmonic"], default=None)
    parser.add_argument("--mass", type=float, default=None, metavar="KG")
    parser.add_argument("--beta", type=float, default=None, metavar="B")
    parser.add_argument("--a", type=float, default=None, metavar="M", help="well half-width")
    parser.add_argument("--L", type=float, default=None, metavar="J_PER_M", help="linear slope")
    parser.add_argument("--omega", type=float, default=None, metavar="RAD_S")


class _Parser(argparse.ArgumentParser):
    """An argparse parser, its subcommand parsers included, that reports a
    usage error as the CLI's JSON error object rather than its usage text."""

    def error(self, message: str):
        _emit_error("ArgumentError", message, EXIT_USAGE)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by later ones.

    argparse keeps no state between ``parse_args`` calls, so one parser
    serves every ``main`` call in a process.
    """
    parser = _Parser(
        prog="gupbic",
        description=(
            "Bound states of the fourth-order minimal-length Schroedinger equation: "
            "wavefunctions, continuous-spectrum degeneracy scans, and observability analysis."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wavefunction", help="degenerate wavefunctions at one energy")
    _add_common(p)
    p.add_argument("--k", type=int, default=None, help="special-level index (well)")
    p.add_argument("--E", type=float, default=None, metavar="J", help="energy in joules")
    p.add_argument("--grid-n", type=int, default=801, metavar="N")
    p.add_argument("--no-orthogonalize", action="store_true", help="report the raw determinant-construction pair")

    p = sub.add_parser("dof-scan", help="degrees of freedom over an energy grid")
    _add_common(p)
    p.add_argument("--e-min", type=float, default=None, metavar="J")
    p.add_argument("--e-max", type=float, default=None, metavar="J")
    p.add_argument("--n", type=int, default=200, metavar="N")

    p = sub.add_parser("spectrum", help="special energies of the infinite well")
    _add_common(p)
    p.add_argument("--k-max", type=int, default=5, metavar="K")

    p = sub.add_parser("observability", help="momentum moments and the observability ratio")
    _add_common(p)

    p = sub.add_parser("momentum-check", help="momentum-representation dimension check (linear)")
    _add_common(p)
    p.add_argument("--E", type=float, default=None, metavar="J")

    p = sub.add_parser(
        "verify",
        help="run the verification battery",
        description=(
            "Run the verification battery. --config and the overrides select only "
            "standard mode (beta = 0) and the setup of the well sine-recovery check; "
            "every other check runs a fixed reference setup, named in verify.json."
        ),
    )
    _add_common(p)
    p.add_argument(
        "--tol", type=float, default=DEFAULT_RTOL, metavar="X",
        help=(
            f"relative tolerance of every oracle integration of the battery, in [{MIN_RTOL:g}, {MAX_RTOL:g}]: "
            "the bound on each Taylor series' tail, relative to its largest term; "
            "below the lower end the roundoff of the chained steps already exceeds the tail"
        ),
    )

    return parser


def _setup_from_args(args) -> tuple[PhysicalSetup, str | None]:
    if args.config is not None:
        setup = load_config(args.config)
        config_path = args.config
    else:
        setup = reference_well_setup()
        config_path = None

    overrides = {
        k: getattr(args, k)
        for k in ("potential", "mass", "beta", "a", "L", "omega")
        if getattr(args, k, None) is not None
    }
    if not overrides:
        return setup, config_path

    kind = overrides.get("potential")
    if kind is None:
        kind = setup.potential.kind
    if kind == "well":
        a = overrides.get("a", setup.potential.a if isinstance(setup.potential, InfiniteWell) else None)
        if a is None:
            raise ConfigError("well potential needs --a")
        potential = InfiniteWell(a=a)
    elif kind == "linear":
        slope = overrides.get("L", setup.potential.slope if isinstance(setup.potential, Linear) else None)
        if slope is None:
            raise ConfigError("linear potential needs --L")
        potential = Linear(slope=slope)
    else:
        omega = overrides.get("omega", setup.potential.omega if isinstance(setup.potential, Harmonic) else None)
        if omega is None:
            raise ConfigError("harmonic potential needs --omega")
        potential = Harmonic(omega=omega)

    setup = PhysicalSetup(
        mass=overrides.get("mass", setup.mass),
        beta=overrides.get("beta", setup.beta),
        potential=potential,
        hbar=setup.hbar,
    )
    return setup, config_path


def _manifest(args, setup: PhysicalSetup, config_path: str | None) -> RunManifest:
    fallback = repr(setup)
    return RunManifest(
        command=args.command,
        config_digest=config_digest(config_path, fallback=fallback),
        argv=list(getattr(args, "_argv", sys.argv[1:])),
    )


def cmd_wavefunction(args) -> int:
    from .matcher import bound_states

    setup, config_path = _setup_from_args(args)
    if args.grid_n < 2:
        raise ConfigError(f"--grid-n must be >= 2, got {args.grid_n}")
    if (args.k is None) == (args.E is None):
        raise ConfigError("give exactly one of --k or --E")
    problem = nondimensionalize(setup)
    if args.k is not None:
        if args.k < 1:
            raise ConfigError(f"--k must be >= 1, got {args.k}")
        if not isinstance(setup.potential, InfiniteWell):
            raise ConfigError("--k selects well special levels; use --E for this potential")
        from .spectrum import MAX_SPECIAL_LEVELS, well_special_energy

        # above the cap, float rounding of kappa x begins to blur the wall-to-wall sine
        if args.k > MAX_SPECIAL_LEVELS:
            raise ConfigError(f"--k must be <= MAX_SPECIAL_LEVELS = {MAX_SPECIAL_LEVELS}, got {args.k}")
        energy_si = well_special_energy(setup, args.k)
    else:
        _check_energy(args.E)
        energy_si = args.E
    e_dim = problem.energy_from_si(energy_si)

    manifest = _manifest(args, setup, config_path)
    solution = bound_states(problem, e_dim, orthogonalize=not args.no_orthogonalize)

    si_norm = 1.0 / math.sqrt(problem.length_scale)  # phi_SI = phi_scaled / sqrt(L_c)
    # each region on its own grid (README, Method notes), all evaluated in one pass
    span = sum(hi - lo for lo, hi in solution.regions)
    points = np.concatenate(
        [np.linspace(lo, hi, max(int(args.grid_n * (hi - lo) / span), 2)) for lo, hi in solution.regions]
    )
    x = np.tile(points, solution.degeneracy)
    state_index = np.repeat(np.arange(1, solution.degeneracy + 1), len(points))
    phi = solution.values(points).ravel() * si_norm
    out = Path(args.out)
    csv_path = write_csv(
        out / "wavefunctions.csv",
        ["x_SI", "x_tilde", "state_index", "re_phi", "im_phi"],
        [problem.length_to_si(x), x, state_index, phi.real, phi.imag],
    )
    manifest.add_output(csv_path)
    manifest.write(out)
    print(
        f"wavefunction: E = {energy_si:.6e} J (e = {e_dim:.6f}), "
        f"degeneracy {solution.degeneracy}, wrote {csv_path}"
    )
    return EXIT_OK


def _check_energy(energy_si: float) -> None:
    if not (math.isfinite(energy_si) and energy_si > 0):
        raise ConfigError(f"--E must be a finite energy > 0 J, got {energy_si}")


def cmd_dof_scan(args) -> int:
    from .spectrum import dof_scan

    setup, config_path = _setup_from_args(args)
    if args.n < 2:
        raise ConfigError(f"--n must be >= 2, got {args.n}")
    e_max = args.e_max if args.e_max is not None else 2e-17
    e_min = args.e_min if args.e_min is not None else e_max / args.n
    for flag, value in (("--e-min", e_min), ("--e-max", e_max)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be a finite energy in J, got {value}")
    if not (0.0 < e_min < e_max):
        raise ConfigError(f"need 0 < --e-min < --e-max, got {e_min}, {e_max}")
    energies = np.linspace(e_min, e_max, args.n)

    manifest = _manifest(args, setup, config_path)
    scan = dof_scan(setup, energies)

    out = Path(args.out)
    header = ["E_SI", "E_dimensionless", "dof", "label"]
    columns = scan.columns()
    csv_path = write_csv(out / "scan.csv", header, columns)
    payload = {
        "kind": scan.kind,
        "rows": [dict(zip(header, row)) for row in zip(*(c.tolist() for c in columns))],
        "special_marks": [
            {"k": se.k, "E_SI": se.energy_si, "E_dimensionless": se.energy_dimensionless}
            for se in scan.special_marks
        ],
        "errors": {str(k): v for k, v in scan.errors.items()},
    }
    json_path = write_json(out / "scan.json", payload)
    manifest.add_output(csv_path)
    manifest.add_output(json_path)
    manifest.write(out)

    if scan.errors:
        raise PreconditionError(
            f"{len(scan.errors)} of {args.n} scan energies failed; see scan.json"
        )
    dofs = sorted(set(scan.dof))
    print(f"dof-scan: {args.n} energies, dof values {dofs}, wrote {csv_path}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    from .spectrum import well_special_energies

    setup, config_path = _setup_from_args(args)
    if args.k_max < 1:
        raise ConfigError(f"--k-max must be >= 1, got {args.k_max}")
    manifest = _manifest(args, setup, config_path)
    specials = well_special_energies(setup, args.k_max)
    out = Path(args.out)
    csv_path = write_csv(
        out / "special_energies.csv",
        ["k", "E_SI", "E_dimensionless"],
        [
            np.array([se.k for se in specials]),
            np.array([se.energy_si for se in specials]),
            np.array([se.energy_dimensionless for se in specials]),
        ],
    )
    manifest.add_output(csv_path)
    manifest.write(out)
    print(f"spectrum: k = 1..{args.k_max}, wrote {csv_path}")
    return EXIT_OK


def cmd_observability(args) -> int:
    from .spectrum import OBVIOUS_RATIO_THRESHOLD, observability

    setup, config_path = _setup_from_args(args)
    manifest = _manifest(args, setup, config_path)
    result = observability(setup)
    payload = {
        "potential": setup.potential.kind,
        "beta": setup.beta,
        "ratio": result.ratio,
        "verdict": result.verdict.value,
        "threshold": OBVIOUS_RATIO_THRESHOLD,
        "moments": {
            "mean_P": result.moments.mean_P,
            "delta_P": result.moments.delta_P,
            "mean_p": result.moments.mean_p,
            "delta_p": result.moments.delta_p,
        },
        "critical_beta_exponent": result.exponent,
        "critical_beta_exponent_refined": result.refined_exponent,
    }
    if result.discrepancy_note:
        payload["discrepancy_note"] = result.discrepancy_note
    out = Path(args.out)
    json_path = write_json(out / "observability.json", payload)
    manifest.add_output(json_path)
    manifest.write(out)
    print(
        f"observability: r = {result.ratio:.4g} -> {result.verdict.value}; "
        f"critical beta exponent {result.exponent:.2f}"
    )
    return EXIT_OK


def cmd_momentum_check(args) -> int:
    from .verification import momentum_dimension_evidence

    setup, config_path = _setup_from_args(args)
    if not isinstance(setup.potential, Linear):
        raise ConfigError("momentum-check needs the linear potential (--potential linear --L ...)")
    problem = nondimensionalize(setup)
    energy_si = args.E if args.E is not None else problem.energy_to_si(2.0)
    _check_energy(energy_si)
    manifest = _manifest(args, setup, config_path)
    sol, res, w, position_dimension = momentum_dimension_evidence(setup, energy_si)
    payload = {
        "E_SI": energy_si,
        "E_dimensionless": problem.energy_from_si(energy_si),
        "momentum_space_dimension": sol.dimension,
        "position_space_dimension": position_dimension,
        "position_wronskian_abs": abs(w),
        "ode_residual_max": res,
        "beta_tilde": sol.beta_tilde,
        "momentum_scale_SI": sol.momentum_scale,
    }
    out = Path(args.out)
    json_path = write_json(out / "momentum_check.json", payload)
    manifest.add_output(json_path)
    manifest.write(out)
    print(
        f"momentum-check: solution spaces {sol.dimension} (momentum) vs {position_dimension} "
        f"(position, |W| = {abs(w):.3g}), "
        f"ODE residual {res:.2e}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verification import run_verification

    setup, config_path = _setup_from_args(args)
    if not (MIN_RTOL <= args.tol <= MAX_RTOL):
        raise ConfigError(
            f"--tol must lie in [{MIN_RTOL:g}, {MAX_RTOL:g}], got {args.tol:g}; below "
            f"{MIN_RTOL:g} the roundoff of the oracle's chained steps already exceeds its series tail"
        )
    manifest = _manifest(args, setup, config_path)
    checks = run_verification(setup, rtol=args.tol)
    all_passed = all(c.passed for c in checks)
    payload = {
        "all_passed": all_passed,
        "checks": [c.as_dict() for c in checks],
    }
    out = Path(args.out)
    json_path = write_json(out / "verify.json", payload)
    manifest.add_output(json_path)
    manifest.write(out)
    for c in checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.measured:.3e} {c.comparison} {c.threshold:.3e}")
    print(f"verify: {'all checks passed' if all_passed else 'FAILURES PRESENT'}, wrote {json_path}")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


_COMMANDS = {
    "wavefunction": cmd_wavefunction,
    "dof-scan": cmd_dof_scan,
    "spectrum": cmd_spectrum,
    "observability": cmd_observability,
    "momentum-check": cmd_momentum_check,
    "verify": cmd_verify,
}


def _emit_error(kind: str, message: str, code: int) -> int:
    json.dump({"error": {"type": kind, "message": message, "exit_code": code}}, sys.stderr)
    sys.stderr.write("\n")
    return code


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = [str(a) for a in argv]
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, InvalidSetupError, WrongPotentialError) as exc:
        return _emit_error(type(exc).__name__, str(exc), EXIT_USAGE)
    except GupBicError as exc:
        return _emit_error(type(exc).__name__, str(exc), EXIT_NUMERICAL)
    except OSError as exc:
        return _emit_error(type(exc).__name__, str(exc), EXIT_NUMERICAL)


if __name__ == "__main__":
    sys.exit(main())
