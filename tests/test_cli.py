"""Command-line surface: file formats, config resolution, subcommands."""

import argparse
import importlib.util
import io
import subprocess
import sys as _sys
import warnings
from contextlib import redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from prolate_ewald import cli
from prolate_ewald.cli import (OPTIONS, InputError, TuningError,
                               build_parser, ewald_params, main, read_config,
                               read_particles, resolve_config,
                               tune_parameters, write_particles)
from prolate_ewald.evaluate import EwaldParameters
from prolate_ewald.npt import NptConfig
from prolate_ewald.system import Cell, ParticleSystem

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# Classical-Ewald reference for fixtures/pair.txt (unit charges 1.6 apart
# in a 6.0 cube), frozen from an independent oracle run with internal
# convergence doubling below 1e-10.
PAIR_ENERGY = -0.65249069065081078
PAIR_FORCE_X = 0.35284719922311858
CLUSTER64_ENERGY = -31.932532533581163


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def parse_records(text):
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        out.setdefault(parts[0], []).append(parts[1:])
    return out


class TestParticleFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        sys = ParticleSystem(cell=Cell.orthorhombic([5.0, 6.0, 7.0]),
                             positions=rng.uniform(0, 5, (6, 3)),
                             charges=rng.standard_normal(6),
                             masses=rng.uniform(0.5, 2.0, 6))
        path = tmp_path / "a.txt"
        write_particles(path, sys)
        back = read_particles(path)
        # Re-wrapping into the cell can move a coordinate by one ulp.
        np.testing.assert_allclose(back.positions, sys.positions,
                                   rtol=0, atol=1e-14)
        np.testing.assert_array_equal(back.charges, sys.charges)
        np.testing.assert_array_equal(back.masses, sys.masses)
        # After one wrap the representation is a fixed point: further
        # read/write cycles are byte-identical.
        path2 = tmp_path / "b.txt"
        write_particles(path2, back)
        path3 = tmp_path / "c.txt"
        write_particles(path3, read_particles(path2))
        assert path2.read_bytes() == path3.read_bytes()

    def test_triclinic_round_trip(self, tmp_path):
        h = np.array([[5.0, 0.4, 0.1], [0.0, 6.0, -0.3], [0.0, 0.0, 7.0]])
        sys = ParticleSystem(cell=Cell(h=h),
                             positions=np.array([[1.0, 1.0, 1.0]]),
                             charges=np.array([0.5]), masses=np.array([1.0]))
        path = tmp_path / "tri.txt"
        write_particles(path, sys)
        back = read_particles(path)
        np.testing.assert_array_equal(back.cell.h, h)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header comment\n\ncell 5 5 5\n"
                        "1 2 3 1.0 1.0  # inline comment\n")
        sys = read_particles(path)
        assert sys.n == 1

    def test_bad_token_diagnostics(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("cell 5 5 5\n1 2 oops 1.0 1.0\n")
        with pytest.raises(InputError, match=r"bad\.txt:2:3"):
            read_particles(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "nohdr.txt"
        path.write_text("1 2 3 1.0 1.0\n")
        with pytest.raises(InputError, match="header"):
            read_particles(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "cols.txt"
        path.write_text("cell 5 5 5\n1 2 3 1.0\n")
        with pytest.raises(InputError, match="5 columns"):
            read_particles(path)

    @pytest.mark.parametrize("header", ["cell nan 1 1", "cell inf 5 5",
                                        "cell3 5 0 0 0 5 0 0 nan 5"])
    def test_non_finite_cell_is_usage_error(self, tmp_path, capsys, header):
        path = tmp_path / "cell.txt"
        path.write_text(f"{header}\n1 1 1 1.0 1.0\n")
        code, out = run_cli("compute", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "cell matrix must be finite" in capsys.readouterr().err

    def test_nan_coordinate_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nan.txt"
        path.write_text("cell 5 5 5\n1 nan 3 1.0 1.0\n2 2 2 -1.0 1.0\n")
        code, _ = run_cli("compute", "--input", str(path))
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestConfig:
    def test_read_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\ndelta_split = 1e-4\nn_steps = 50\n"
                        "barostat = false\n")
        cfg = read_config(path)
        assert cfg == {"delta_split": 1e-4, "n_steps": 50, "barostat": False}

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mystery_knob = 3\n")
        with pytest.raises(InputError, match="mystery_knob"):
            read_config(path)

    @pytest.mark.parametrize("key, value", [("threads", "2"),
                                            ("coupling", "isotropic"),
                                            ("delta_spread", "1e-4")])
    def test_removed_keys_rejected(self, tmp_path, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(InputError, match="unknown config key"):
            read_config(path)

    def test_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("delta_split = 1e-4\nseed = 7\n")
        args = argparse.Namespace(config=str(path), delta_split=1e-5)
        cfg = resolve_config(args)
        assert cfg["delta_split"] == 1e-5    # flag beats file
        assert cfg["seed"] == 7              # file beats default
        assert cfg["oversampling"] == 1.0    # default survives

    def test_dependent_defaults(self):
        cfg = resolve_config(argparse.Namespace(delta_split=1e-3))
        assert cfg["p_order"] == 4

    def test_one_option_table(self, tmp_path):
        # Every run parameter parses from a config file, and every flag
        # generated from OPTIONS lands on its key.
        samples = {float: "0.25", int: "3", str: "analytic"}
        text = {key: samples.get(typ, "false")
                for key, (typ, _) in OPTIONS.items()}
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in text.items()))
        from_file = read_config(path)
        assert from_file == {k: OPTIONS[k][0](v) for k, v in text.items()}
        assert from_file["barostat"] is False

        argv = ["simulate", "--input", "unused.txt"]
        for key, value in text.items():
            if key == "barostat":
                argv.append("--no-barostat")
            elif key != "burn_in_fraction":
                argv += ["--" + key.replace("_", "-"), value]
        args = build_parser().parse_args(argv)
        assert not hasattr(args, "burn_in_fraction")    # config-only
        from_flags = resolve_config(args)
        for key in OPTIONS.keys() - {"burn_in_fraction"}:
            assert from_flags[key] == from_file[key], key

    def test_every_library_knob_has_an_option(self):
        # A knob only the library can set cannot come back unnoticed: every
        # EwaldParameters field (P as p_order) and every NptConfig field but
        # ewald is the OPTIONS key of its lower-cased name.
        names = [f.name for f in fields(EwaldParameters) + fields(NptConfig)
                 if f.name != "ewald"]
        keys = {"p_order" if name == "P" else name.lower() for name in names}
        assert keys <= OPTIONS.keys(), keys - OPTIONS.keys()


class TestTune:
    def test_calibrated_diag_pressure_anchor(self):
        out = tune_parameters("diag-pressure", 1e-4)
        assert out["delta"] == pytest.approx(1e-4 / 3, rel=1e-6)
        assert out["P"] == 6

    def test_calibrated_loose_anchor(self):
        out = tune_parameters("diag-pressure", 1e-3)
        assert out["delta"] == pytest.approx(1e-3 / 3, rel=1e-6)
        assert out["P"] == 5

    @pytest.mark.parametrize("quantity, target, divisor, P", [
        ("force", 4e-4, 1, 5), ("force", 1e-8, 1, 9),
        ("diag-pressure", 3e-6, 3, 7), ("offdiag-pressure", 1e-2, 3, 4),
        ("diag-pressure", 2.5e-5, 3, 7)])
    def test_delta_is_target_over_divisor(self, quantity, target, divisor, P):
        code, text = run_cli("tune", "--quantity", quantity,
                             "--target", repr(target))
        assert code == 0
        rec = {r[0]: r[1:] for r in parse_records(text)["tune"]}
        assert float(rec["delta"][0]) == target / divisor
        assert rec["P"] == [str(P)]
        # The header echoes the tuned parameters, not the defaults.
        assert f"# config delta_split = {target / divisor:.17g}\n" in text
        assert f"# config p_order = {P}\n" in text

    @pytest.mark.parametrize("flag, value", [
        ("--r-c", "nan"), ("--force-mode", "spline"), ("--prefactor", "inf")])
    def test_bad_ewald_parameter_without_cell(self, flag, value, capsys):
        code, out = run_cli("tune", "--quantity", "force", "--target", "1e-4",
                            flag, value)
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("key, flag, value", [
        ("delta_split", "--delta-split", "1e-3"), ("p_order", "--p-order", "3")])
    def test_tuned_parameter_rejected(self, tmp_path, key, flag, value, capsys):
        # tune chooses delta_split and p_order from the target; setting
        # either by flag or config key is a usage error naming the key.
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        for extra in ((flag, value), ("--config", str(path))):
            code, out = run_cli("tune", "--quantity", "force", "--target",
                                "1e-4", *extra)
            err = capsys.readouterr().err
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and key in err

    def test_force_spacing_example(self):
        code, text = run_cli("tune", "--quantity", "force",
                             "--target", "4e-4", "--cell", "3,3,3",
                             "--r-c", "0.9", "--oversampling", "1")
        assert code == 0
        rec = parse_records(text)
        assert int(rec["tune"][5][1]) == 5          # P row
        spacing = float(rec["tune"][8][1])
        grid = int(rec["tune"][7][1])
        increment = 3.0 / grid - 3.0 / (grid + 2)
        assert abs(spacing - 0.26) <= increment

    @pytest.mark.parametrize("extra, grid, over", [
        ((), "44", "2"),                       # calibrated oversampling
        (("--oversampling", "1"), "22", "1"),  # explicit flag wins
    ])
    def test_grid_planned_at_calibrated_oversampling(self, extra, grid, over):
        code, text = run_cli("tune", "--quantity", "diag-pressure",
                             "--target", "3e-6",
                             "--cell", "7.937,7.937,7.937", "--r-c", "2.0",
                             *extra)
        assert code == 0
        rec = {r[0]: r[1:] for r in parse_records(text)["tune"]}
        assert rec["grid"] == [grid] * 3
        assert rec["oversampling"] == [over]
        assert f"# config oversampling = {over}" in text

    def test_config_file_oversampling_wins(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("oversampling = 1.5\n")
        code, text = run_cli("tune", "--quantity", "force", "--target",
                             "1e-4", "--config", str(path))
        assert code == 0
        assert parse_records(text)["tune"][-1] == ["oversampling", "1.5"]

    @pytest.mark.parametrize("r_c, code, message", [
        ("2.0", 3, "not below half the minimum perpendicular width"),
        ("nan", 2, "r_c=nan must be finite")])
    def test_cell_plan_checks_cutoff(self, r_c, code, message, capsys):
        # The grid is planned by the solver compute would build, so a cutoff
        # compute rejects is rejected here too.
        got, out = run_cli("tune", "--quantity", "force", "--target", "1e-4",
                           "--cell", "3,3,3", "--r-c", r_c)
        err = capsys.readouterr().err
        assert got == code
        assert out == ""
        assert err.startswith("error:") and message in err

    def test_default_cutoff_matches_compute(self):
        # Without --r-c, the grid is planned at the cutoff compute would
        # pick for the cell (here 0.45 of the width differs from 0.45 * L
        # in the last bit).
        code, text = run_cli("tune", "--quantity", "diag-pressure",
                             "--target", "3e-6", "--cell", "7.937,7.937,7.937")
        assert code == 0
        rec = {r[0]: r[1:] for r in parse_records(text)["tune"]}
        cfg = resolve_config(argparse.Namespace())
        cell = Cell.orthorhombic([7.937] * 3)
        assert float(rec["r_c"][0]) == ewald_params(cfg, cell).r_c

    def test_calibration_data_reproduced(self):
        # The tune anchors rest on data/tune_calibration.txt; rerun the sweep
        # that wrote it and require every row to agree within 1%.
        spec = importlib.util.spec_from_file_location(
            "calibrate_tune", ROOT / "tools" / "calibrate_tune.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        buf = io.StringIO()
        with redirect_stdout(buf):
            tool.main()

        def rows(text):
            return [line.split() for line in text.splitlines()
                    if line and not line.startswith("#")]

        fresh = rows(buf.getvalue())
        stored = rows((ROOT / "data" / "tune_calibration.txt").read_text())
        assert len(fresh) == len(stored) == 15
        for new, old in zip(fresh, stored):
            assert new[:2] == old[:2]
            for a, b in zip(new[2:], old[2:]):
                assert float(a) == pytest.approx(float(b), rel=1e-2), (new, old)

    def test_target_out_of_range(self):
        with pytest.raises(TuningError):
            tune_parameters("diag-pressure", 1e-1)
        with pytest.raises(TuningError):
            tune_parameters("force", 1e-9)

    def test_unknown_quantity(self):
        with pytest.raises(TuningError):
            tune_parameters("entropy", 1e-4)


class TestCompute:
    def test_pair_fixture_against_oracle(self):
        code, text = run_cli("compute", "--input",
                             str(FIXTURES / "pair.txt"),
                             "--delta-split", "1e-7",
                             "--oversampling", "2.0")
        assert code == 0
        rec = parse_records(text)
        total = float(rec["energy"][0][1])
        assert total == pytest.approx(PAIR_ENERGY, abs=1e-7)
        f0 = [float(v) for v in rec["force"][0][1:]]
        assert f0[0] == pytest.approx(PAIR_FORCE_X, abs=1e-7)
        rows = [[float(v) for v in r[1:]] for r in rec["pressure"]]
        p = np.array(rows)
        np.testing.assert_array_equal(p, p.T)

    def test_cluster_fixture_energy(self):
        code, text = run_cli("compute", "--input",
                             str(FIXTURES / "cluster64.txt"),
                             "--delta-split", "1e-6",
                             "--oversampling", "2.0", "--r-c", "2.8")
        assert code == 0
        total = float(parse_records(text)["energy"][0][1])
        assert total == pytest.approx(CLUSTER64_ENERGY, rel=1e-6)

    def test_output_round_trip(self, tmp_path):
        # Re-parsing every number and re-formatting at 17 significant
        # digits reproduces the artifact byte for byte.
        out = tmp_path / "out.txt"
        code, _ = run_cli("compute", "--input", str(FIXTURES / "pair.txt"),
                          "--output", str(out))
        assert code == 0
        text = out.read_text()
        rebuilt = []
        for line in text.splitlines():
            if line.startswith("#"):
                rebuilt.append(line)
                continue
            parts = line.split()
            fixed = []
            for tok in parts:
                try:
                    fixed.append("%.17g" % float(tok))
                except ValueError:
                    fixed.append(tok)
            rebuilt.append(" ".join(fixed))
        assert "\n".join(rebuilt) + "\n" == text

    def test_triclinic_route(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("cell3 6 0 0 0.3 6 0 0 0.2 6\n"
                        "2 3 3 1 1\n3.6 3 3 -1 1\n")
        code, text = run_cli("compute", "--input", str(path),
                             "--r-c", "2.0")
        assert code == 0
        rec = parse_records(text)
        assert float(rec["energy"][0][1]) < 0.0

    def test_missing_file_usage_error(self):
        code, _ = run_cli("compute", "--input", "/nonexistent/zz.txt")
        assert code == 2

    def test_config_echoed(self, tmp_path):
        out = tmp_path / "o.txt"
        code, _ = run_cli("compute", "--input", str(FIXTURES / "pair.txt"),
                          "--delta-split", "1e-5", "--output", str(out))
        assert code == 0
        text = out.read_text()
        assert "# config delta_split = 1.0000000000000001e-05" in text
        # Every header echoes the full configuration, seed included.
        assert "# config seed = 0" in text


class TestVerify:
    def test_cluster_fixture_passes(self):
        code, text = run_cli("verify", "--input",
                             str(FIXTURES / "cluster64.txt"),
                             "--delta-split", "1e-5",
                             "--oversampling", "2.0", "--r-c", "2.8")
        assert code == 0, text
        rec = parse_records(text)
        assert all(r[0] == "pass" for r in rec["report"])
        assert rec["verify"][0][0] == "pass"

    def test_triclinic_runs_every_check(self, tmp_path):
        code, text = run_cli("verify", "--input", str(sheared_cluster(tmp_path)),
                             "--delta-split", "1e-5", "--oversampling", "2.0",
                             "--r-c", "2.8")
        assert code == 0, text
        assert "verify pass 7 checks" in text

    def test_failure_exit_code(self, tmp_path, monkeypatch):
        # Corrupt tolerance path: force an impossible tolerance through a
        # tiny delta with loose oversampling cannot be done honestly, so
        # instead verify the malformed-input path maps to exit 2.
        path = tmp_path / "junk.txt"
        path.write_text("cell 5 5 5\nnot numbers at all\n")
        code, _ = run_cli("verify", "--input", str(path))
        assert code == 2


def summed_local(rec):
    """Sum of the per-particle ``local`` tensors of a local-pressure run."""
    total = np.zeros((3, 3))
    for row in rec["local"]:
        t = np.zeros((3, 3))
        t[np.triu_indices(3)] = [float(v) for v in row[1:]]
        total += t + np.triu(t, 1).T
    return total


def sheared_cluster(tmp_path):
    """fixtures/cluster64.txt at the same fractional positions in a sheared cell."""
    base = read_particles(FIXTURES / "cluster64.txt")
    h = base.cell.h.copy()
    h[0, 1], h[0, 2], h[1, 2] = 1.4, -0.7, 0.9
    sheared = ParticleSystem(cell=Cell(h=h),
                             positions=base.cell.fractional(base.positions) @ h.T,
                             charges=base.charges, masses=base.masses)
    path = tmp_path / "sheared.txt"
    write_particles(path, sheared)
    return path


class TestLocalPressure:
    def test_sums_match_far_field(self):
        code, text = run_cli("local-pressure", "--input",
                             str(FIXTURES / "cluster64.txt"),
                             "--delta-split", "1e-4")
        assert code == 0
        rec = parse_records(text)
        # Reconstruct the per-particle sum and compare with the emitted
        # global far-field rows.
        emitted = np.array([[float(v) for v in r[1:]]
                            for r in rec["pressure-far"]])
        np.testing.assert_allclose(summed_local(rec), emitted, rtol=1e-10,
                                   atol=1e-14)

    def test_triclinic_sums_match_far_field(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("cell3 6 0 0 0.3 6 0 0 0 6\n2 3 3 1 1\n3 3 3 -1 1\n")
        code, text = run_cli("local-pressure", "--input", str(path))
        assert code == 0
        rec = parse_records(text)
        emitted = np.array([[float(v) for v in r[1:]]
                            for r in rec["pressure-far"]])
        assert np.any(emitted != 0.0)
        np.testing.assert_allclose(summed_local(rec), emitted, rtol=1e-10,
                                   atol=1e-14)


class TestSimulate:
    def test_short_run_artifacts(self, tmp_path):
        out = tmp_path / "run.txt"
        code, _ = run_cli("simulate", "--input",
                          str(FIXTURES / "cluster64.txt"),
                          "--n-steps", "5", "--dt", "1e-3",
                          "--target-t", "0.5", "--record-every", "1",
                          "--delta-split", "1e-3", "--r-c", "1.6",
                          "--no-barostat", "--output", str(out))
        assert code == 0
        rec = parse_records(out.read_text())
        assert len(rec["thermo"]) == 6    # step 0 plus 5 recorded steps
        stats = {r[0]: r[1] for r in rec["stat"]}
        assert "mean_pressure" in stats
        # No barostat: the grid never changes; the neighbor list is built
        # at least once.
        assert stats["grid_changes"] == "0"
        assert "full_replans" not in stats and "replan_fallbacks" not in stats
        assert 1 <= int(stats["neighbor_rebuilds"]) <= 6

    def test_triclinic_run(self, tmp_path):
        code, text = run_cli("simulate", "--input", str(sheared_cluster(tmp_path)),
                             "--n-steps", "3", "--dt", "1e-3",
                             "--target-t", "0.5", "--record-every", "1",
                             "--delta-split", "1e-3", "--r-c", "1.6")
        assert code == 0
        rec = parse_records(text)
        assert len(rec["thermo"]) == 4
        assert all(np.isfinite(float(v)) for row in rec["thermo"] for v in row)

    def test_zero_record_interval_is_runtime_error(self, capsys):
        code, _ = run_cli("simulate", "--input",
                          str(FIXTURES / "cluster64.txt"), "--n-steps", "5",
                          "--record-every", "0")
        assert code == 3
        assert capsys.readouterr().err.startswith("error: record_every")

    def test_one_particle_is_runtime_error(self, tmp_path, capsys):
        # The temperature counts 3N - 3 degrees of freedom: none for N = 1.
        path = tmp_path / "one.txt"
        path.write_text("cell 6 6 6\n2 3 3 1 1\n")
        code, out = run_cli("simulate", "--input", str(path), "--n-steps", "2",
                            "--r-c", "2.0", "--delta-split", "1e-4")
        err = capsys.readouterr().err
        assert code == 3
        assert out == ""
        assert err.startswith("error: integrate needs at least 2 particles")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag, field", [
        ("--dt", "dt"), ("--tau-p", "tau_P"), ("--beta-t", "beta_T"),
        ("--target-t", "target_T"), ("--target-p0", "target_P0"),
        ("--softcore-coeff", "softcore_coeff")])
    def test_nan_npt_parameter_is_named(self, flag, field, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")    # no numpy RuntimeWarning either
            code, out = run_cli("simulate", "--input",
                                str(FIXTURES / "cluster64.txt"), "--n-steps",
                                "3", "--r-c", "1.6", "--delta-split", "1e-3",
                                flag, "nan")
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err.startswith(f"error: {field}=nan must")

    def test_seeded_runs_identical(self, tmp_path):
        argv = ("simulate", "--input", str(FIXTURES / "cluster64.txt"),
                "--n-steps", "4", "--dt", "1e-3", "--target-t", "0.5",
                "--delta-split", "1e-3", "--r-c", "1.6", "--seed", "3",
                "--record-every", "1")
        _, a = run_cli(*argv)
        _, b = run_cli(*argv)
        assert a == b


class TestErrorMapping:
    def test_cutoff_too_large_runtime_error(self, tmp_path):
        code, _ = run_cli("compute", "--input", str(FIXTURES / "pair.txt"),
                          "--r-c", "5.0")
        assert code == 3

    @pytest.mark.parametrize("r_c", ["1e-20", "1e-300"])
    def test_tiny_cutoff_is_planning_error(self, r_c, tmp_path, capsys):
        # The grid such a cutoff needs has more than 2^63 points per axis;
        # planning says so before the pair table or any grid is built.
        path = tmp_path / "two.txt"
        path.write_text("cell 5 5 5\n1 1 1 1 1\n2 2 2 -1 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli("compute", "--input", str(path), "--r-c", r_c)
        err = capsys.readouterr().err
        assert code == 3
        assert out == ""
        assert err.startswith("error: grid counts") and err.count("\n") == 1
        assert "int64" in err

    def test_out_of_memory_is_runtime_error(self, monkeypatch, capsys):
        # A grid that fits in an int64 but not in memory (compute --r-c 1e-3
        # on a 5^3 cell plans 26888^3) ends in numpy's MemoryError; it is
        # raised here without allocating.
        def solver(*args):
            raise MemoryError("Unable to allocate 70.7 TiB for an array")

        monkeypatch.setattr(cli, "CoulombSolver", solver)
        code, out = run_cli("compute", "--input", str(FIXTURES / "pair.txt"))
        err = capsys.readouterr().err
        assert code == 3
        assert out == ""
        assert err == ("error: out of memory: "
                       "Unable to allocate 70.7 TiB for an array\n")

    @pytest.mark.parametrize("flag, value", [
        ("--prefactor", "nan"), ("--prefactor", "inf"), ("--r-c", "nan"),
        ("--r-c", "inf"), ("--r-c", "-1"), ("--delta-split", "nan"),
        ("--delta-split", "2"), ("--delta-split", "1e-15"),
        ("--p-order", "1"), ("--oversampling", "0.5"),
        ("--oversampling", "nan"), ("--oversampling", "inf"),
        ("--force-mode", "spline")])
    def test_bad_ewald_parameter_is_usage_error(self, flag, value, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")    # no numpy RuntimeWarning either
            code, out = run_cli("compute", "--input",
                                str(FIXTURES / "pair.txt"), flag, value)
        err = capsys.readouterr().err
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_removed_flag_rejected(self, capsys):
        code, out = run_cli("compute", "--input", str(FIXTURES / "pair.txt"),
                            "--delta-spread", "1e-4")
        assert code == 2
        assert out == ""
        assert ("unrecognized arguments: --delta-spread"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ("tune", "--quantity", "force", "--target", "1e-4", "--cell", "a,b,c"),
        ("tune", "--quantity", "force", "--target", "1e-4", "--cell", "3,3"),
        ("tune", "--quantity", "force", "--target", "1e-4", "--cell", "3,0,3")],
        ids=["cell", "cell-count", "cell-sign"])
    def test_bad_number_flag_is_usage_error(self, argv, capsys):
        code, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2
        assert out == ""
        assert "error: argument" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("bench", "--sizes", "64"),
        ("compute", "--input", str(FIXTURES / "pair.txt"), "--seed", "1"),
        ("tune", "--quantity", "force", "--target", "1e-4", "--seed", "1")],
        ids=["bench", "compute-seed", "tune-seed"])
    def test_removed_command_and_seed_flag_rejected(self, argv, capsys):
        # Only simulate draws random numbers, so only it takes --seed.
        code, out = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert "error:" in capsys.readouterr().err

    def test_usage_error_for_bad_flags(self):
        code, _ = run_cli("tune", "--quantity", "diag-pressure",
                          "--target", "0.5")
        assert code == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [_sys.executable, "-m", "prolate_ewald.cli", "tune",
             "--quantity", "force", "--target", "1e-4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "tune delta" in proc.stdout
