import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from gupbic import cli
from gupbic.cli import main
from gupbic.core import nondimensionalize, reference_well_setup
from gupbic.matcher import bound_states
from gupbic.output import _fmt_cell, sha256_hex
from gupbic.spectrum import well_special_energies

WELL_CFG = """
mass = 9.10956e-31
beta = 1e47
potential = well
a = 1e-10
"""

LINEAR_CFG = """
mass = 9.10956e-31
beta = 6.64e45   # eps ~ 0.12 at the canonical bouncer scale
potential = linear
L = 1.281e-8
"""


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestWavefunction:
    def test_special_level_matches_sine(self, tmp_path):
        out = tmp_path / "wf"
        assert run(["wavefunction", "--k", "1", "--out", out]) == 0
        header, rows = read_csv(out / "wavefunctions.csv")
        assert header == ["x_SI", "x_tilde", "state_index", "re_phi", "im_phi"]
        states = sorted({int(r[2]) for r in rows})
        assert states == [1, 2]
        a = 1e-10
        worst = 0.0
        sign = None
        for r in rows:
            if int(r[2]) != 1:
                continue
            x_si, xt, re_phi = float(r[0]), float(r[1]), float(r[3])
            expected = math.sin(math.pi * (x_si + a) / (2 * a)) / math.sqrt(a)
            if sign is None and abs(expected) > 1.0:
                sign = 1.0 if re_phi * expected > 0 else -1.0
            if sign is not None:
                worst = max(worst, abs(sign * re_phi - expected) * math.sqrt(a))
        assert worst < 1e-8

    @pytest.mark.parametrize("beta", ["1e43", "1e42", "1e30"])
    def test_special_level_below_critical_beta(self, tmp_path, beta):
        # eps down to ~7e-19: boundary layers ~1e-9 wide at the walls
        out = tmp_path / "wf"
        assert run(["wavefunction", "--k", "1", "--beta", beta, "--out", out]) == 0
        _, rows = read_csv(out / "wavefunctions.csv")
        a = 1e-10
        for idx in (1, 2):
            vals = [complex(float(r[3]), float(r[4])) for r in rows if int(r[2]) == idx]
            # phi_SI = phi / sqrt(a); the grid's first and last points are the walls
            assert abs(vals[0]) * math.sqrt(a) <= 1e-8
            assert abs(vals[-1]) * math.sqrt(a) <= 1e-8

    @pytest.mark.parametrize("energy", ["1e-18", "5e-18", "8e-18"])
    def test_linear_energies_solve(self, tmp_path, energy):
        # the grid's region ends sit on the turning-point window edges
        out = tmp_path / "wf"
        argv = ["wavefunction", "--potential", "linear", "--L", "1.281e-8", "--E", energy, "--out", out]
        assert run(argv) == 0
        _, rows = read_csv(out / "wavefunctions.csv")
        assert {int(r[2]) for r in rows} == {1}
        assert all(math.isfinite(float(r[3])) and math.isfinite(float(r[4])) for r in rows)

    def test_continuum_energy_two_states(self, tmp_path):
        out = tmp_path / "wf"
        assert run(["wavefunction", "--E", "1e-18", "--out", out]) == 0
        _, rows = read_csv(out / "wavefunctions.csv")
        assert sorted({int(r[2]) for r in rows}) == [1, 2]

    def test_grid_n_validation_names_flag(self, tmp_path, capsys):
        code = run(["wavefunction", "--k", "1", "--grid-n", "0", "--out", tmp_path])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "grid-n" in err["error"]["message"]

    def test_needs_exactly_one_energy_selector(self, tmp_path, capsys):
        assert run(["wavefunction", "--out", tmp_path]) == 2
        capsys.readouterr()
        assert run(["wavefunction", "--k", "1", "--E", "1e-18", "--out", tmp_path]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["wavefunction", "--k", "1"],
            ["wavefunction", "--potential", "harmonic", "--omega", "1.897e16", "--E", "2e-18"],
            ["wavefunction", "--potential", "linear", "--L", "1.281e-8", "--E", "2e-18"],
            ["wavefunction", "--potential", "harmonic", "--omega", "2e16", "--beta", "1e46", "--E", "3e-18"],
            ["wavefunction", "--potential", "linear", "--L", "1.281e-8", "--beta", "1e45", "--E", "9.7e-18"],
        ],
        ids=["well", "harmonic", "linear", "harmonic-beta-1e46", "linear-beta-1e45"],
    )
    def test_rows_match_per_state_evaluation(self, tmp_path, argv):
        # the command evaluates every state at once on the regions' grids
        # joined; the rows rebuilt here evaluate one state at a time on each
        # region's own grid and format cell by cell
        assert run(argv + ["--out", tmp_path]) == 0
        args = cli.build_parser().parse_args(argv)
        setup, _ = cli._setup_from_args(args)
        problem = nondimensionalize(setup)
        energy_si = args.E if args.k is None else well_special_energies(setup, args.k)[-1].energy_si
        solution = bound_states(problem, problem.energy_from_si(energy_si))
        span = sum(hi - lo for lo, hi in solution.regions)
        si_norm = 1.0 / math.sqrt(problem.length_scale)
        lines = ["x_SI,x_tilde,state_index,re_phi,im_phi"]
        for idx, state in enumerate(solution.states, start=1):
            for lo, hi in solution.regions:
                xs = np.linspace(lo, hi, max(int(801 * (hi - lo) / span), 2))
                for x, val in zip(xs, state.value(xs) * si_norm):
                    cells = (problem.length_to_si(float(x)), float(x), idx, val.real, val.imag)
                    lines.append(",".join(_fmt_cell(c) for c in cells))
        assert (tmp_path / "wavefunctions.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_k_reads_its_level_alone(self, tmp_path, monkeypatch, capsys):
        # E_K comes from the one-level formula, so the cost does not grow with K
        import gupbic.spectrum

        expected = well_special_energies(reference_well_setup(), 5)[-1].energy_si

        def refuse(*args):
            raise AssertionError("wavefunction --k built the list of levels")

        monkeypatch.setattr(gupbic.spectrum, "_special_levels", refuse)
        assert run(["wavefunction", "--k", "5", "--grid-n", "11", "--out", tmp_path]) == 0
        assert f"E = {expected:.6e} J" in capsys.readouterr().out

    def test_k_above_the_level_cap_exits_2(self, tmp_path, capsys):
        assert run(["wavefunction", "--k", "100000", "--grid-n", "11", "--out", tmp_path / "ok"]) == 0
        assert run(["wavefunction", "--k", "100001", "--grid-n", "11", "--out", tmp_path / "no"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError"
        assert "MAX_SPECIAL_LEVELS = 100000" in error["message"]
        assert not (tmp_path / "no").exists()

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["wavefunction", "--k", "1", "--grid-n", "101", "--out", out1]) == 0
        assert run(["wavefunction", "--k", "1", "--grid-n", "101", "--out", out2]) == 0
        assert (out1 / "wavefunctions.csv").read_bytes() == (out2 / "wavefunctions.csv").read_bytes()


class TestDofScan:
    def test_well_scan_constant_dof(self, tmp_path):
        out = tmp_path / "scan"
        assert run(["dof-scan", "--n", "50", "--e-min", "1e-19", "--e-max", "2e-17", "--out", out]) == 0
        header, rows = read_csv(out / "scan.csv")
        assert header == ["E_SI", "E_dimensionless", "dof", "label"]
        assert len(rows) == 50
        assert {r[2] for r in rows} == {"2"}
        marked = [r for r in rows if r[3] == "StandardLevel"]
        assert len(marked) == 2
        payload = json.loads((out / "scan.json").read_text())
        assert payload["errors"] == {}
        assert [m["k"] for m in payload["special_marks"]] == [1, 2]

    def test_scan_reruns_identical(self, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert run(["dof-scan", "--n", "20", "--out", out]) == 0
            outs.append((out / "scan.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_grid_validation(self, tmp_path, capsys):
        assert run(["dof-scan", "--n", "1", "--out", tmp_path]) == 2
        capsys.readouterr()
        assert run(["dof-scan", "--e-min", "2e-17", "--e-max", "1e-17", "--out", tmp_path]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            [],
            ["--potential", "linear", "--L", "1.281e-8"],
            ["--potential", "harmonic", "--omega", "1.897e16"],
        ],
        ids=["well", "linear", "harmonic"],
    )
    def test_non_finite_energy_bound_is_a_config_error(self, tmp_path, capsys, flags):
        # an infinite --e-max passed the 0 < --e-min < --e-max check and the
        # grid's inf and NaN energies ended in a traceback (exit 1)
        for bound in ("inf", "nan"):
            args = ["dof-scan", "--e-min", "1e-19", "--e-max", bound, "--n", "3"] + flags
            assert run(args + ["--out", tmp_path]) == 2
            error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
            assert error["type"] == "ConfigError"
            assert "--e-max must be a finite energy" in error["message"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "flags, limit",
        [
            ([], "more than 100000 special well levels lie below the scan top"),
            (["--potential", "linear", "--L", "1.281e-8"], "must stay below 1.79869e+290 J"),
            (["--potential", "harmonic", "--omega", "1.897e16"], "must stay below 1.79816e+290 J"),
        ],
        ids=["well", "linear", "harmonic"],
    )
    def test_overflowing_scan_energies_are_refused(self, tmp_path, capsys, flags, limit):
        # E / E_c passes the float range: the linear scan exited 3 and wrote
        # "E_dimensionless": Infinity into scan.json, and the well scan solved
        # every energy, with numpy warnings, before it refused
        args = ["dof-scan", "--e-min", "1e300", "--e-max", "1.7e308", "--n", "3"] + flags
        assert run(args + ["--out", tmp_path]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "InvalidSetupError"
        assert limit in error["message"]
        assert not (tmp_path / "scan.json").exists()

    def test_linear_scan_at_small_beta_counts_one(self, tmp_path, capsys):
        # eps ~ 1.2e-18: x0 = s_zero + 0.55 of the far piece the count once built
        # rounded to its lower end, and every energy failed with a ValidityError
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["dof-scan", "--potential", "linear", "--L", "1.281e-8", "--beta", "1e30",
                        "--n", "4", "--out", tmp_path])
        assert code == 0
        _, rows = read_csv(tmp_path / "scan.csv")
        assert [r[2] for r in rows] == ["1"] * 4

    def test_dense_well_scan_ends_with_a_named_error(self, tmp_path, capsys):
        # about 1e54 special levels lie below the scan top: refused with exit
        # 2, where labelling them level by level never ended
        args = [
            "dof-scan", "--potential", "well", "--mass", "1.144408626846768e+177",
            "--beta", "8.002948965540257e-161", "--a", "1.4324237794493972e-60", "--n", "3",
        ]
        start = time.perf_counter()
        code = run(args + ["--out", tmp_path])
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        error = json.loads(err.strip().splitlines()[-1])["error"]
        assert error["type"] == "InvalidSetupError"
        assert "about 10^54.1 special well levels" in error["message"]
        assert "MAX_SPECIAL_LEVELS = 100000" in error["message"]


class TestInProcessReuse:
    # one parser serves every main() call in a process; a call must not see
    # anything an earlier one parsed
    SEQUENCE = (
        ["wavefunction", "--k", "1"],
        ["wavefunction", "--E", "1e-18"],
        ["wavefunction", "--k", "one"],  # an argparse error: exits 2
        ["dof-scan", "--n", "5"],
    )

    def run_sequence(self, out, capsys):
        results = []
        for i, argv in enumerate(self.SEQUENCE):
            try:
                code = run(argv + ["--out", out / str(i)])
            except SystemExit as exc:
                code = exc.code
            results.append((code, capsys.readouterr().err))
        return results

    def test_shared_parser_writes_what_a_fresh_one_does(self, tmp_path, monkeypatch, capsys):
        assert cli.build_parser() is cli.build_parser()
        seen_k = []
        wavefunction = cli._COMMANDS["wavefunction"]

        def recording(args, setup, out, outputs):
            seen_k.append(args.k)
            return wavefunction(args, setup, out, outputs)

        monkeypatch.setitem(cli._COMMANDS, "wavefunction", recording)
        shared = self.run_sequence(tmp_path / "shared", capsys)
        assert [code for code, _ in shared] == [0, 0, 2, 0]
        assert seen_k == [1, None]

        # the undecorated builder makes a new parser on every call
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert self.run_sequence(tmp_path / "fresh", capsys) == shared
        assert seen_k == [1, None, 1, None]
        files = sorted(
            p.relative_to(tmp_path / "shared")
            for p in (tmp_path / "shared").rglob("*")
            if p.is_file() and p.name != "manifest.json"
        )
        assert [f.name for f in files] == ["wavefunctions.csv", "wavefunctions.csv", "scan.csv", "scan.json"]
        for f in files:
            assert (tmp_path / "shared" / f).read_bytes() == (tmp_path / "fresh" / f).read_bytes()


class TestSpectrumCommand:
    def test_special_energy_table(self, tmp_path):
        out = tmp_path / "spec"
        assert run(["spectrum", "--k-max", "3", "--out", out]) == 0
        _, rows = read_csv(out / "special_energies.csv")
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        assert float(rows[0][1]) == pytest.approx(1.7816655450003429e-18, rel=1e-12, abs=0.0)

    def test_wrong_potential_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "lin.cfg"
        cfg.write_text(LINEAR_CFG)
        assert run(["spectrum", "--config", cfg, "--out", tmp_path]) == 2

    def test_k_max_above_the_level_cap_exits_2(self, tmp_path, capsys):
        assert run(["spectrum", "--k-max", "100001", "--out", tmp_path]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "InvalidSetupError"
        assert "MAX_SPECIAL_LEVELS = 100000" in error["message"]
        assert not (tmp_path / "special_energies.csv").exists()


class TestObservabilityCommand:
    def test_well_payload(self, tmp_path):
        out = tmp_path / "obs"
        assert run(["observability", "--out", out]) == 0
        payload = json.loads((out / "observability.json").read_text())
        assert payload["verdict"] == "Obvious"
        assert payload["ratio"] == pytest.approx(0.2744, abs=5e-4)
        assert payload["critical_beta_exponent"] == pytest.approx(47.5616, abs=1e-3)

    def test_linear_reports_discrepancy(self, tmp_path):
        cfg = tmp_path / "lin.cfg"
        cfg.write_text("mass = 9.10956e-31\nbeta = 1e47\npotential = linear\nL = 8.927e-30\n")
        out = tmp_path / "obs"
        assert run(["observability", "--config", cfg, "--out", out]) == 0
        payload = json.loads((out / "observability.json").read_text())
        assert "discrepancy_note" in payload
        assert payload["critical_beta_exponent"] == pytest.approx(61.95, abs=0.05)

    @pytest.mark.parametrize(
        "flags",
        [
            [],
            ["--potential", "linear", "--L", "1.281e-8"],
            ["--potential", "harmonic", "--omega", "1.897e16"],
        ],
        ids=["well", "linear", "harmonic"],
    )
    def test_makes_no_panel_call(self, tmp_path, monkeypatch, flags):
        # the ground states carry their power moments in closed form, so
        # observability integrates nothing
        import gupbic.panels
        import gupbic.spectrum

        def refuse(*args, **kwargs):
            raise AssertionError("observability called panel_integrals")

        for module in (gupbic.panels, gupbic.spectrum):
            monkeypatch.setattr(module, "panel_integrals", refuse)
        assert run(["observability", *flags, "--out", tmp_path]) == 0


class TestMomentumCheck:
    def test_dimension_mismatch_payload(self, tmp_path):
        cfg = tmp_path / "lin.cfg"
        cfg.write_text(LINEAR_CFG)
        out = tmp_path / "mom"
        assert run(["momentum-check", "--config", cfg, "--out", out]) == 0
        payload = json.loads((out / "momentum_check.json").read_text())
        assert payload["momentum_space_dimension"] == 1
        assert payload["position_space_dimension"] == 4
        assert payload["position_wronskian_abs"] == pytest.approx(1.0, abs=1e-10)
        assert payload["ode_residual_max"] < 1e-10

    def test_stiff_frame_keeps_the_wronskian(self, tmp_path):
        # eps 1.2e-8: the frame is read one decay length from its launch point
        out = tmp_path / "mom"
        argv = ["momentum-check", "--potential", "linear", "--L", "1.281e-8", "--E", "2e-18"]
        assert run(argv + ["--beta", "1e40", "--out", out]) == 0
        payload = json.loads((out / "momentum_check.json").read_text())
        assert payload["position_wronskian_abs"] == pytest.approx(1.0, abs=1e-8)
        assert run(argv + ["--beta", "0", "--out", tmp_path / "beta0"]) == 3

    def test_requires_linear(self, tmp_path):
        assert run(["momentum-check", "--out", tmp_path]) == 2


class TestManifest:
    def test_digest_reproducible_from_config(self, tmp_path):
        cfg = tmp_path / "well.cfg"
        cfg.write_text(WELL_CFG)
        out = tmp_path / "run"
        assert run(["spectrum", "--k-max", "2", "--config", cfg, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_digest"] == sha256_hex(cfg.read_bytes())
        assert manifest["command"] == "spectrum"
        assert manifest["tool_version"] == "0.1.0"
        assert any(p.endswith("special_energies.csv") for p in manifest["outputs"])
        assert manifest["wall_time_s"] >= 0.0
        assert "--k-max" in manifest["argv"]

    def test_config_error_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("mass = 9.1e-31\nbeta = nonsense\npotential = well\na = 1e-10\n")
        assert run(["spectrum", "--config", cfg, "--out", tmp_path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"

    def test_corrupted_custom_csv_exit_2(self, tmp_path, capsys):
        # no solver takes a tabulated potential: the kind, its file key and
        # its flag value are all usage errors
        csv = tmp_path / "pot.csv"
        csv.write_text("0.0,0.0\n2e-10,1e-18\n1e-10,2e-18\n3e-10,4e-18\n")
        cfg = tmp_path / "run.cfg"
        base = "mass = 9.10956e-31\nbeta = 1e46\npotential = {}\n"
        for text, message in (
            (base.format("custom"), "unknown potential 'custom'; expected well, linear or harmonic"),
            (base.format("well") + "a = 1e-10\ncustom_file = pot.csv\n", "unknown key 'custom_file'"),
        ):
            cfg.write_text(text)
            assert run(["verify", "--config", cfg, "--out", tmp_path]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"]["type"] == "ConfigError"
            assert message in err["error"]["message"]
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--potential", "custom", "--out", tmp_path])
        assert exc.value.code == 2

    def test_failed_scan_lists_its_files_and_prints_nothing(self, tmp_path, capsys):
        # one energy of this linear scan fails: scan.csv and scan.json record
        # it, the manifest lists both, and the command exits 3 without a summary
        out = tmp_path / "scan"
        args = [
            "dof-scan", "--potential", "linear", "--L", "1.281e-8", "--beta", "1e41",
            "--e-min", "1e-20", "--e-max", "2e-17", "--n", "50", "--out", out,
        ]
        assert run(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.strip().splitlines()[-1])["error"]["type"] == "PreconditionError"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [str(out / "scan.csv"), str(out / "scan.json")]
        assert json.loads((out / "scan.json").read_text())["errors"]

    def test_failed_verify_lists_its_file(self, tmp_path, monkeypatch, capsys):
        from gupbic import verification
        from gupbic.verification import CheckResult

        monkeypatch.setattr(
            verification,
            "run_verification",
            lambda setup, rtol=1e-11: [CheckResult(name="stub", passed=False, measured=1.0, threshold=0.0)],
        )
        out = tmp_path / "verify"
        assert run(["verify", "--out", out]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "[FAIL] stub: 1.000e+00 <= 0.000e+00",
            f"verify: FAILURES PRESENT, wrote {out / 'verify.json'}",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [str(out / "verify.json")]

    @pytest.mark.parametrize(
        "args, code",
        [
            (["wavefunction", "--grid-n", "1", "--k", "1"], 2),
            (["wavefunction", "--potential", "harmonic", "--omega", "1.897e16", "--E", "2e-18", "--beta", "3e44"], 3),
        ],
        ids=["usage", "gram-overflow"],
    )
    def test_failure_before_any_file_leaves_no_directory(self, args, code, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(args + ["--out", out]) == code
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_argv_is_the_strings_passed(self, tmp_path):
        argv = ["spectrum", "--k-max", "2", "--a", "2e-10", "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        assert json.loads((tmp_path / "run" / "manifest.json").read_text())["argv"] == argv


class TestExitCodes:
    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # enormous beta squeezes the harmonic forbidden band below the
        # turning windows: per-energy failures surface as a numerical error
        code = run(
            [
                "dof-scan", "--potential", "harmonic", "--omega", "1.9e16",
                "--beta", "3e48", "--n", "4", "--e-min", "5e-19",
                "--e-max", "4e-18", "--out", tmp_path / "scan",
            ]
        )
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["exit_code"] == 3

    def test_harmonic_gram_overflow_names_the_even_continuation(self, tmp_path, capsys):
        # beta 3e44: the products w_i w_j* of the harmonic Gram pass the float
        # range on the mirror piece; the error names the member as the even
        # continuation of its branch, with the limit at the failing panel's width
        code = run(
            [
                "wavefunction", "--potential", "harmonic", "--omega", "1.897e16",
                "--E", "2e-18", "--beta", "3e44", "--out", tmp_path / "wf",
            ]
        )
        assert code == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["type"] == "BasisOverflowError" and error["exit_code"] == 3
        assert error["message"] == (
            "Gram products w_i w_j* pass the float range: log|w| = 356.141 at x=-6.82996 for the even "
            "continuation of WkbBasisFunction(j=2, interval=(1.4640287832085337, 26.178088267537312), "
            "x0=13.82, eta=8.607), beyond the limit 355.979 at its panel width 0.113612"
        )

    @pytest.mark.parametrize("beta", ["3e31", "1e32", "3e32"])
    def test_linear_state_past_the_tail_limit_is_refused(self, beta, tmp_path, capsys):
        # s_zero > 2**49: the tail grid's end s_zero - 0.05 rounded to s_zero, and
        # the state wrote numpy's divide-by-zero warnings before its error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["wavefunction", "--potential", "linear", "--L", "1.281e-8", "--E", "2e-18",
                        "--beta", beta, "--out", tmp_path / "wf"])
        assert code == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "PreconditionError"
        assert "lies past 5.629e+14 (2**49)" in error["message"]
        assert "the smallest beta that passes this limit is about 3.654e+32" in error["message"]

    def test_linear_wavefunction_runs(self, tmp_path):
        cfg = tmp_path / "lin.cfg"
        cfg.write_text(LINEAR_CFG)
        out = tmp_path / "wf"
        assert run(["wavefunction", "--E", "2e-18", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(out / "wavefunctions.csv")
        assert {int(r[2]) for r in rows} == {1}
        assert abs(float(rows[0][3])) < 1e-4  # wall value ~ 0

    def test_tol_bounds_checked(self, tmp_path, capsys):
        assert run(["verify", "--tol", "1e-3", "--out", tmp_path]) == 2
        # below 1e-13 the roundoff of the oracle's chained steps exceeds its series tail
        capsys.readouterr()
        assert run(["verify", "--tol", "1e-14", "--out", tmp_path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "[1e-13, 1e-06]" in err["error"]["message"]

    def test_tol_floor_verifies_without_warnings(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            assert run(["verify", "--tol", "1e-13", "--out", tmp_path]) == 0

    def test_tol_reaches_every_oracle_propagator(self, tmp_path, monkeypatch, capsys):
        # every oracle integration of the battery builds its steps with
        # _propagators: the frame integrations, the growth-exponent marches
        # and the momentum Wronskian must all get the --tol value
        from gupbic import oracle

        seen = []
        propagators = oracle._propagators

        def spy(requests, dim, rtol, atol):
            seen.append(rtol)
            return propagators(requests, dim, rtol, atol)

        monkeypatch.setattr(oracle, "_propagators", spy)
        assert run(["verify", "--tol", "1e-9", "--out", tmp_path]) == 0
        assert seen and set(seen) == {1e-9}

    @pytest.mark.parametrize(
        "args",
        [
            ["wavefunction", "--k", "1", "--a", "1e-300"],
            ["wavefunction", "--k", "1", "--a", "1e-100"],
            ["wavefunction", "--k", "1", "--a", "1e200"],
            ["observability", "--potential", "harmonic", "--omega", "1e300"],
            ["dof-scan", "--potential", "linear", "--L", "1e-300", "--n", "3"],
            ["observability", "--beta", "1e300"],
        ],
    )
    def test_extreme_setups_exit_with_a_named_error(self, args, tmp_path, capsys):
        # finite inputs whose scales leave the float range: a JSON error and
        # exit 2 or 3, never a traceback
        code = run(args + ["--out", tmp_path])
        err = capsys.readouterr().err
        assert code in (2, 3)
        assert "Traceback" not in err
        assert json.loads(err.strip().splitlines()[-1])["error"]["message"]

    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--a", "1e100"],
            ["spectrum", "--a", "1e-75", "--beta", "0"],
            ["wavefunction", "--a", "1e100", "--k", "1"],
            ["dof-scan", "--a", "1e100", "--e-max", "1e-230", "--n", "5"],
        ],
    )
    def test_extreme_wells_list_their_special_levels(self, args, tmp_path):
        # a^4 overflows at a = 1e100 and 16 m a^4 underflows at a = 1e-75, but
        # every special level fits in a float (E_c = 6.1e-239 J at a = 1e100)
        assert run(args + ["--out", tmp_path]) == 0

    @pytest.mark.parametrize("energy", ["inf", "nan"])
    @pytest.mark.parametrize(
        "args",
        [
            ["wavefunction", "--potential", "harmonic", "--omega", "1.897e16"],
            ["wavefunction"],
            ["momentum-check", "--potential", "linear", "--L", "1.281e-8"],
        ],
        ids=["wavefunction-harmonic", "wavefunction-well", "momentum-check-linear"],
    )
    def test_non_finite_energy_is_a_config_error(self, args, energy, tmp_path, capsys):
        # inf and nan passed the --E > 0 check, then failed inside the
        # solver with exit 1 (unpacking, negative dimensions) or 3
        code = run(args + ["--E", energy, "--out", tmp_path])
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert code == 2
        assert error["type"] == "ConfigError"
        assert "--E must be a finite energy" in error["message"]

    def test_tol_is_a_verify_flag_only(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["dof-scan", "--tol", "1e-9", "--out", tmp_path])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["dof-scan", "verify"])
    def test_threads_is_no_flag(self, tmp_path, capsys, command):
        # the scan reruns its flagged energies in one loop, so no command takes --threads
        with pytest.raises(SystemExit) as exc:
            run([command, "--threads", "2", "--out", tmp_path])
        assert exc.value.code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["type"] == "ArgumentError"
        assert "--threads" in error["message"]

    def test_usage_error_is_a_json_error(self, tmp_path, capsys):
        # argparse reads -inf as an option, so --E has no value: a usage
        # error, reported as the JSON object instead of argparse's usage text
        with pytest.raises(SystemExit) as exc:
            run(["wavefunction", "--E", "-inf", "--out", tmp_path])
        assert exc.value.code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["type"] == "ArgumentError"
        assert error["exit_code"] == 2
        assert "--E" in error["message"]

    @pytest.mark.parametrize("below", [[], ["sub"]])
    def test_out_naming_a_regular_file_exits_3(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        assert run(["spectrum", "--k-max", "2", "--out", taken.joinpath(*below)]) == 3
        error = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert error["exit_code"] == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert taken.read_text() == "a file, not a directory\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--config", "LINEAR", "--potential", "well"], "well potential needs --a"),
            (["--potential", "linear"], "linear potential needs --L"),
            (["--potential", "harmonic"], "harmonic potential needs --omega"),
        ],
        ids=["well", "linear", "harmonic"],
    )
    def test_switched_potential_needs_its_flag(self, flags, message, tmp_path, capsys):
        # a switch of potential keeps no other kind's value, from the config
        # file or the reference well: the new kind's own flag is required
        cfg = tmp_path / "lin.cfg"
        cfg.write_text(LINEAR_CFG)
        flags = [cfg if f == "LINEAR" else f for f in flags]
        assert run(["spectrum", *flags, "--out", tmp_path / "run"]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error == {"type": "ConfigError", "message": message, "exit_code": 2}
        assert not (tmp_path / "run").exists()

    def test_undecodable_config_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe")
        assert run(["spectrum", "--config", cfg, "--out", tmp_path / "run"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        error = json.loads(err.strip().splitlines()[-1])["error"]
        assert error["type"] == "ConfigError"
        assert error["message"].startswith(f"cannot read config {cfg}: ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="caps the child's address space through RLIMIT_AS")
    @pytest.mark.parametrize(
        "args",
        [["dof-scan", "--n", "100000000000"], ["wavefunction", "--k", "1", "--grid-n", "100000000000"]],
        ids=["dof-scan", "wavefunction"],
    )
    def test_failed_allocation_exits_3(self, args, tmp_path):
        # a grid of 1e11 points needs 745 GiB: under a 3 GB address-space cap
        # numpy's MemoryError is reported as a numerical failure, not a traceback
        import resource

        import gupbic

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (3_000_000_000, 3_000_000_000))

        src = str(Path(gupbic.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from gupbic.cli import main; sys.exit(main(sys.argv[1:]))",
             *args, "--out", str(tmp_path / "run")],
            capture_output=True, text=True, timeout=300, preexec_fn=cap,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        error = json.loads(proc.stderr.strip().splitlines()[-1])["error"]
        assert error["exit_code"] == 3
        assert "Unable to allocate" in error["message"] and "(100000000000,)" in error["message"]
        assert not (tmp_path / "run").exists()

    def test_help_still_prints_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["wavefunction", "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: gupbic wavefunction")
        assert captured.err == ""


class TestVerifyCommand:
    def test_failed_check_exits_1(self, tmp_path, monkeypatch):
        from gupbic import verification
        from gupbic.verification import CheckResult

        # cmd_verify imports run_verification from its module when it runs
        monkeypatch.setattr(
            verification,
            "run_verification",
            lambda setup, rtol=1e-11: [
                CheckResult(name="stub", passed=False, measured=1.0, threshold=0.0)
            ],
        )
        out = tmp_path / "verify"
        assert run(["verify", "--out", out]) == 1
        payload = json.loads((out / "verify.json").read_text())
        assert payload["all_passed"] is False

    def test_default_well_all_pass(self, tmp_path):
        out = tmp_path / "verify"
        assert run(["verify", "--out", out]) == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["all_passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "wronskian_constancy" in names
        assert "momentum_representation" in names
        assert "well_sine_recovery" in names
        # each check names the setup it ran, which --config does not change
        setups = {c["name"]: c["detail"]["setup"] for c in payload["checks"]}
        assert setups["well_sine_recovery"] == "well, a 1e-10 m, beta 1e+47"
        assert setups["momentum_representation"] == "linear, eps 0.01, E 2e-18 J"
        # the subspace count carries its evidence: four exponents per side,
        # the smallest |exponent| clear of the floor
        decay = next(c for c in payload["checks"] if c["name"] == "decaying_subspace_dimension")
        detail = decay["detail"]
        sides = {"linear:+inf", "harmonic:+inf", "harmonic:-inf"}
        assert set(detail["growth_exponents"]) == set(detail["min_abs_growth"]) == sides
        for side, growth in detail["growth_exponents"].items():
            assert len(growth) == 4
            assert sum(g > 0 for g in growth) == detail["dimensions"][side] == 2
            assert detail["min_abs_growth"][side] == min(abs(g) for g in growth)
            assert detail["min_abs_growth"][side] >= detail["growth_floor"] == 0.5

    def test_beta_zero_harmonic_reports_standard_dimensions(self, tmp_path):
        cfg = tmp_path / "std.cfg"
        cfg.write_text("mass = 9.10956e-31\nbeta = 0\npotential = harmonic\nomega = 1.9e16\n")
        out = tmp_path / "verify"
        assert run(["verify", "--config", cfg, "--out", out]) == 0
        payload = json.loads((out / "verify.json").read_text())
        check = next(
            c for c in payload["checks"] if c["name"].startswith("decaying_subspace_dimension")
        )
        assert check["detail"]["expected"] == 1
        assert set(check["detail"]["dimensions"].values()) == {1}
        assert check["detail"]["setup"].endswith("standard (beta = 0) equation")


class TestScipyFreeWellPath:
    # the well commands are closed forms, panels and a 4x4 SVD; a fresh
    # interpreter shows that they never load scipy, and that verify, whose
    # oracle loads it on first use, still passes after them
    CHILD = """
import json, sys
sys.path.insert(0, {src!r})
import gupbic.cli

out = {out!r}
codes = {{}}
for argv in (["dof-scan"], ["wavefunction", "--k", "1"], ["spectrum"], ["observability"]):
    codes[argv[0]] = gupbic.cli.main(argv + ["--out", out + "/" + argv[0]])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
codes["verify"] = gupbic.cli.main(["verify", "--out", out + "/verify"])
print(json.dumps({{"codes": codes, "scipy": loaded}}))
"""

    def test_well_commands_do_not_import_scipy(self, tmp_path):
        import gupbic

        src = str(Path(gupbic.__file__).resolve().parent.parent)
        child = self.CHILD.format(src=src, out=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report["scipy"] == []
        assert report["codes"] == {
            "dof-scan": 0, "wavefunction": 0, "spectrum": 0, "observability": 0, "verify": 0,
        }


class TestScipyBlocked:
    # numpy is the one runtime dependency: with every import of scipy refused,
    # each README command, verify with and without --beta 0, momentum-check
    # and the harmonic error scan exit as documented and write their files,
    # in one process that loads no concurrent.futures and starts no thread;
    # a subprocess, since this interpreter has imported scipy already
    CHILD = """
import json, os, sys, threading
sys.path.insert(0, {src!r})

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{{name}} is blocked")
        return None

sys.meta_path.insert(0, RefuseScipy())
import gupbic.cli

out = {out!r}
with open(out + "/linear.cfg", "w") as cfg:
    cfg.write("mass = 9.10956e-31\\nbeta = 1e47\\npotential = linear\\nL = 1.281e-8\\n")
report = {{}}
for name, argv in {runs!r}:
    code = gupbic.cli.main([a.replace("CFG", out + "/linear.cfg") for a in argv] + ["--out", out + "/" + name])
    report[name] = [code, sorted(os.listdir(out + "/" + name))]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
pooled = "concurrent.futures" in sys.modules
print(json.dumps({{"runs": report, "scipy": loaded, "pooled": pooled, "threads": threading.active_count()}}))
"""
    LINEAR = ["--potential", "linear", "--L", "1.281e-8"]
    HARMONIC = ["--potential", "harmonic", "--omega", "1.897e16"]
    # (name, argv, exit code, files beside manifest.json)
    RUNS = [
        ("run1", ["wavefunction", "--k", "1"], 0, ["wavefunctions.csv"]),
        ("run2", ["wavefunction", "--E", "1e-18"], 0, ["wavefunctions.csv"]),
        ("scan", ["dof-scan", "--e-min", "1e-19", "--e-max", "2e-17", "--n", "200"], 0, ["scan.csv", "scan.json"]),
        ("spec", ["spectrum", "--k-max", "5"], 0, ["special_energies.csv"]),
        ("obs", ["observability"], 0, ["observability.json"]),
        ("obs-linear", ["observability", *LINEAR], 0, ["observability.json"]),
        ("obs-harmonic", ["observability", *HARMONIC], 0, ["observability.json"]),
        ("mom", ["momentum-check", "--config", "CFG"], 0, ["momentum_check.json"]),
        ("verify", ["verify"], 0, ["verify.json"]),
        ("verify-std", ["verify", "--beta", "0"], 0, ["verify.json"]),
        ("scan-linear", ["dof-scan", *LINEAR], 0, ["scan.csv", "scan.json"]),
        ("scan-harmonic", ["dof-scan", *HARMONIC], 0, ["scan.csv", "scan.json"]),
        ("run-linear", ["wavefunction", *LINEAR, "--E", "2e-18"], 0, ["wavefunctions.csv"]),
        ("run-harmonic", ["wavefunction", *HARMONIC, "--E", "2e-18"], 0, ["wavefunctions.csv"]),
        ("mom-linear", ["momentum-check", *LINEAR, "--E", "2e-18"], 0, ["momentum_check.json"]),
        ("mom-stiff", ["momentum-check", *LINEAR, "--E", "2e-18", "--beta", "1e40"], 0, ["momentum_check.json"]),
        # the 40-energy scan whose 28 flagged energies rerun alone: exit 3
        ("scan-errors", ["dof-scan", *HARMONIC, "--beta", "4.1e47", "--n", "40"], 3, ["scan.csv", "scan.json"]),
    ]

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        import gupbic

        src = str(Path(gupbic.__file__).resolve().parent.parent)
        runs = [(name, argv) for name, argv, _, _ in self.RUNS]
        child = self.CHILD.format(src=src, out=str(tmp_path), runs=runs)
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report["runs"] == {
            name: [code, sorted(files + ["manifest.json"])] for name, _, code, files in self.RUNS
        }
        assert report["scipy"] == [] and report["pooled"] is False and report["threads"] == 1


class TestScipyFreeObservability:
    # the Airy constants are module constants and no moment is integrated,
    # so observability loads no scipy module for any potential
    CHILD = """
import json, sys
sys.path.insert(0, {src!r})
import gupbic.cli

out = {out!r}
report = {{}}
for name, flags in (
    ("well", []),
    ("linear", ["--potential", "linear", "--L", "1.281e-8"]),
    ("harmonic", ["--potential", "harmonic", "--omega", "1.897e16"]),
):
    code = gupbic.cli.main(["observability", *flags, "--out", out + "/" + name])
    report[name] = [code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]
print(json.dumps(report))
"""

    def test_observability_does_not_import_scipy(self, tmp_path):
        import gupbic

        src = str(Path(gupbic.__file__).resolve().parent.parent)
        child = self.CHILD.format(src=src, out=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report == {"well": [0, []], "linear": [0, []], "harmonic": [0, []]}


class TestLayersLoadOnUse:
    # importing the CLI, building its parser and scaling the default setup
    # load no numerical layer; each command imports the layers it runs, so
    # the well, spectrum and observability commands never load the oracle
    CHILD = """
import json, sys
sys.path.insert(0, {src!r})
import gupbic.cli
from gupbic.core import nondimensionalize, reference_well_setup

LAYERS = ("_scipy", "basis", "matcher", "oracle", "panels", "spectrum", "verification")

def loaded():
    return [m for m in LAYERS if "gupbic." + m in sys.modules]

out = {out!r}
gupbic.cli.build_parser()
nondimensionalize(reference_well_setup())
report = {{"start": loaded(), "codes": {{}}}}
for argv in (["spectrum"], ["observability"], ["dof-scan"], ["wavefunction", "--k", "1"]):
    report["codes"][argv[0]] = gupbic.cli.main(argv + ["--out", out + "/" + argv[0]])
report["commands"] = loaded()
report["codes"]["verify"] = gupbic.cli.main(["verify", "--out", out + "/verify"])
report["verify"] = loaded()
print(json.dumps(report))
"""

    def test_each_command_loads_only_its_layers(self, tmp_path):
        import gupbic

        src = str(Path(gupbic.__file__).resolve().parent.parent)
        child = self.CHILD.format(src=src, out=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report["start"] == []
        assert report["commands"] == ["_scipy", "basis", "matcher", "panels", "spectrum"]
        assert report["codes"] == {
            "spectrum": 0, "observability": 0, "dof-scan": 0, "wavefunction": 0, "verify": 0,
        }
        assert report["verify"] == [
            "_scipy", "basis", "matcher", "oracle", "panels", "spectrum", "verification",
        ]


class TestSpectrumLoadsNoSolver:
    # the special energies, the closed-form ground states and the momentum
    # moments call neither the solver nor the basis layer, so spectrum and
    # observability load neither module
    CHILD = """
import json, sys
sys.path.insert(0, {src!r})
import gupbic.cli

out = {out!r}
codes = []
for argv in (
    ["spectrum"],
    ["observability"],
    ["observability", "--potential", "linear", "--L", "1.281e-8"],
    ["observability", "--potential", "harmonic", "--omega", "1.897e16"],
):
    codes.append(gupbic.cli.main(argv + ["--out", out + "/" + str(len(codes))]))
loaded = sorted(m for m in ("gupbic.matcher", "gupbic.basis") if m in sys.modules)
print(json.dumps({{"codes": codes, "loaded": loaded}}))
"""

    def test_spectrum_and_observability_load_neither_matcher_nor_basis(self, tmp_path):
        import gupbic

        src = str(Path(gupbic.__file__).resolve().parent.parent)
        child = self.CHILD.format(src=src, out=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"codes": [0, 0, 0, 0], "loaded": []}


class TestHarmonicWavefunctionWithoutMaskedArrays:
    # the harmonic exponents are closed forms with Carlson's R_F and R_D in
    # numpy, so a harmonic wavefunction loads neither scipy nor numpy.ma
    # (np.unique's first call imports it: about 1.6 MB and 30 ms in a fresh
    # process); nor does linear observability, whose Airy constants are
    # module constants
    CHILD = """
import json, sys
sys.path.insert(0, {src!r})
import gupbic.cli

out = {out!r}
report = {{}}
for name, argv in (
    ("wavefunction", ["wavefunction", "--potential", "harmonic", "--omega", "1.897e16", "--E", "2e-18"]),
    ("observability", ["observability", "--potential", "linear", "--L", "1.281e-8"]),
):
    code = gupbic.cli.main(argv + ["--out", out + "/" + name])
    scipy = any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
    report[name] = [code, "numpy.ma" in sys.modules, scipy]
print(json.dumps(report))
"""

    def test_harmonic_wavefunction_does_not_import_numpy_ma(self, tmp_path):
        import gupbic

        src = str(Path(gupbic.__file__).resolve().parent.parent)
        child = self.CHILD.format(src=src, out=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report == {"wavefunction": [0, False, False], "observability": [0, False, False]}


class TestJsonBytes:
    # each command's argv and the JSON files it writes
    RUNS = {
        "wavefunction": (["wavefunction", "--k", "1"], []),
        "dof-scan": (["dof-scan", "--n", "5"], ["scan.json"]),
        "dof-scan-linear": (["dof-scan", "--potential", "linear", "--L", "1.281e-8", "--n", "3"], ["scan.json"]),
        "spectrum": (["spectrum", "--k-max", "3"], []),
        "observability": (["observability", "--potential", "harmonic", "--omega", "1.897e16"], ["observability.json"]),
        "momentum-check": (
            ["momentum-check", "--potential", "linear", "--L", "1.281e-8", "--E", "2e-18"],
            ["momentum_check.json"],
        ),
        "verify": (["verify"], ["verify.json"]),
        "verify-beta0": (["verify", "--beta", "0"], ["verify.json"]),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_json_files_are_json_dumps_indent_2_sorted(self, tmp_path, name):
        # every JSON file a command writes reads back and re-encodes to its own bytes
        argv, written = self.RUNS[name]
        out = tmp_path / name
        assert run(argv + ["--out", out]) == 0
        files = sorted(out.glob("*.json"))
        assert [f.name for f in files] == sorted(written + ["manifest.json"])
        for f in files:
            text = f.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", f.name
