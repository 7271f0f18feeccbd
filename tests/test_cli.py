"""Command-line surface: outputs, exit codes, determinism."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from boskraus import cli
from boskraus.channels import ChannelSpec, parse_channel
from boskraus.cli import main
from boskraus.errors import InvalidParameter


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_subprocess(*argv):
    """Exit code, stdout and stderr of ``python -m boskraus.cli`` in a fresh process, warnings included."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "boskraus.cli", *argv], capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def argparse_exit(capsys, *argv):
    """Exit code, stdout and stderr of an invocation that argparse ends: a usage error or ``-h``."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestKrausCommand:
    def test_family_json(self, capsys, tmp_path):
        out_file = tmp_path / "fam.json"
        code, out, err = run(capsys, "kraus", "C1:0.7", "--ncut", "48", "--out", str(out_file))
        assert code == 0
        assert out.startswith("completeness_defect ")
        assert float(out.split()[1]) < 1e-10
        data = json.loads(out_file.read_text())
        assert data["schema"] == 1
        assert data["dim"] == 48
        assert len(data["operators"]) == 48
        # banded storage: first operator is the diagonal band
        op0 = data["operators"][0]
        assert op0["rows"] == op0["cols"]

    def test_unit_conjugator_prefactor(self, capsys):
        code, out, err = run(capsys, "kraus", "D:1", "--ncut", "32")
        assert code == 0
        payload = json.loads(out.split("\n", 1)[1])
        op0 = payload["operators"][0]
        assert op0["re"][0] == pytest.approx(2**-0.5, abs=1e-12)

    def test_noisy_family_exits_2(self, capsys):
        code, out, err = run(capsys, "kraus", "B2")
        assert code == 2
        assert "compose/synthesize" in err

    def test_noisy_banded_family_exits_2_with_the_builders_line(self, capsys):
        # the index cut is refused as the build is, before a cut is suggested for the noiseless part
        assert run(capsys, "kraus", "C1:0.7:0.3") == (2, "", "error: C1(0.7; 0.3): noisy; use compose/synthesize\n")

    def test_defect_too_large_exits_2(self, capsys):
        code, out, err = run(capsys, "kraus", "D:0.9", "--ncut", "32", "--ell-max", "3")
        assert code == 2

    @pytest.mark.parametrize("extra", [["--family", "D", "--kappa", "0.3"], ["--family", "C1"],
                                       ["--kappa", "0.3"], ["--noise", "0"]],
                             ids=["family-and-kappa", "same-family", "kappa", "zero-noise"])
    def test_spec_with_family_options_is_one_error_line(self, capsys, tmp_path, extra):
        # the channel is only the positional spec: the former option spellings are unrecognized
        code, out, err = argparse_exit(capsys, "kraus", "C1:0.7", *extra, "--out", str(tmp_path / "fam.json"))
        assert (code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: {' '.join(extra)}\n") and err.count("error:") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["A2", "--ell-max", "5"], ["B1:0.5", "--ell-max", "5"],
                                      ["D:0.8", "--nodes", "7"], ["C1:0.7", "--nodes", "64"]],
                             ids=["A2-ell-max", "B1-ell-max", "D-nodes", "C1-nodes"])
    def test_size_flag_the_family_does_not_take_is_one_error_line(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, "kraus", *argv, "--out", str(tmp_path / "fam.json"))
        assert (code, out) == (1, "")
        assert err.startswith("error: family ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_continuous_family_defaults_to_64_nodes(self, capsys):
        code, out, err = run(capsys, "kraus", "A2", "--ncut", "16")
        assert code == 0, err
        assert len(json.loads(out.split("\n", 1)[1])["operators"]) == 64

    @pytest.mark.parametrize("nodes", ["400", "600"])
    def test_many_quadrature_nodes(self, capsys, nodes):
        code, out, err = run(capsys, "kraus", "A2", "--nodes", nodes, "--ncut", "16")
        assert code == 0, err
        assert float(out.split()[1]) < 1e-12


class TestChannelParsing:
    @pytest.mark.parametrize("text", ["D:0.8:0:junk", "B2:1.5:2", "A1::1", "C1:abc", "C2:1.3:"])
    def test_malformed_rejected(self, text):
        with pytest.raises(InvalidParameter):
            parse_channel(text)

    def test_well_formed(self):
        assert parse_channel("D:0.8:1.5") == ChannelSpec("D", 0.8, 1.5)
        assert parse_channel("B2:1.5") == ChannelSpec("B2", noise_a=1.5)
        assert parse_channel("C1:0.7") == ChannelSpec("C1", 0.7)

    @pytest.mark.parametrize("text", ["D:0.8:0:junk", "B2:1.5:2"])
    def test_cli_exit_code(self, capsys, text):
        code, out, err = run(capsys, "kraus", text, "--ncut", "16")
        assert code == 1
        assert "fields" in err
        code, out, err = run(capsys, "compose", text, "C1:0.5")
        assert code == 1

    @pytest.mark.parametrize("text", ["D:inf", "C2:inf", "B2:nan", "D:0.8:inf"])
    def test_non_finite_parameter_exits_1(self, capsys, text):
        with pytest.raises(InvalidParameter):
            parse_channel(text)
        code, out, err = run(capsys, "compose", text, "C1:0.5")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestComposeCommand:
    def test_table_entry(self, capsys):
        code, out, err = run(capsys, "compose", "C2:1.5", "C1:0.4")
        assert code == 0
        assert out.splitlines()[0] == "C1(0.6; 2.5)"

    def test_verify_flag(self, capsys):
        code, out, err = run(capsys, "compose", "C2:1.5", "C1:0.4", "--verify")
        payload = json.loads(out.split("\n", 1)[1])
        assert payload["verify"]["family_match"] is True
        assert payload["verify"]["kappa_delta"] < 1e-9

    @pytest.mark.parametrize("lam,theta", [("2", "0"), ("0.5", "0"), ("1.5", "0.4"), ("3", "0.785")])
    def test_verify_applies_the_mismatch(self, capsys, lam, theta):
        # --verify classifies the pair with the same intervening symplectic the composite carries
        from test_phasespace import A2_SECOND_CASES, TABLE2_CASES

        for s2, s1 in TABLE2_CASES + A2_SECOND_CASES:
            args = [s.family if s.kappa is None else f"{s.family}:{s.kappa!r}" for s in (s2, s1)]
            code, out, err = run(capsys, "compose", *args, "--lambda", lam, "--theta", theta, "--verify")
            check = json.loads(out.split("\n", 1)[1])["verify"]
            assert code == 0 and check["family_match"] is True, args
            assert check["kappa_delta"] <= 1e-9 and check["a_delta"] <= 1e-9, (args, check)

    def test_lambda_one_is_canonical(self, capsys):
        code, out, err = run(capsys, "compose", "C1:0.8", "C1:0.9", "--lambda", "1")
        assert out.splitlines()[0] == "C1(0.72; 0)"

    def test_singular_last_row(self, capsys):
        code, out, err = run(capsys, "compose", "A2", "A2", "--lambda", "2", "--theta", "0")
        payload = json.loads(out.split("\n", 1)[1])
        assert payload["composite"]["family"] == "A2"
        assert payload["composite"]["a"] == pytest.approx(np.sqrt(3) - 1, abs=1e-10)

    @pytest.mark.parametrize("extra", [["--lambda", "0"], ["--lambda", "0", "--theta", "0.3"],
                                       ["--lambda", "nan"], ["--lambda", "inf"], ["--theta", "nan"]],
                             ids=["lambda=0", "lambda=0,theta=0.3", "lambda=nan", "lambda=inf", "theta=nan"])
    def test_degenerate_lambda_or_theta_exits_1(self, capsys, extra):
        code, out, err = run(capsys, "compose", "C2:1.5", "C1:0.4", *extra)
        assert (code, out) == (1, "")
        assert err.startswith("error: lambda must be positive") and err.count("\n") == 1

    @pytest.mark.parametrize("pair", [("C1:0.5", "C1:0.5"), ("C1:0.5", "A2"), ("A2", "C1:0.5")])
    @pytest.mark.parametrize("lam", ["1e200", "1e-200"])
    def test_far_mismatch_prints_a_finite_spec(self, capsys, pair, lam):
        code, out, err = run(capsys, "compose", *pair, "--lambda", lam)
        payload = json.loads(out.split("\n", 1)[1])
        assert (code, err) == (0, "")
        assert 0.0 <= payload["composite"]["a"] < np.inf

    @pytest.mark.parametrize("argv", [("C1:0.5", "C1:0.5", "--lambda", "1e200"),
                                      ("A2", "C1:0.5", "--lambda", "1e-310", "--theta", "0.3")],
                             ids=["lambda=1e200", "lambda=1e-310,A2-outer"])
    def test_verify_out_of_float_range_is_one_typed_error(self, argv):
        # without --verify both print a finite composite; the (X, Y) check cannot reach them, and says so
        code, out, err = run_subprocess("compose", *argv, "--verify")
        assert (code, out) == (1, "")
        assert "RuntimeWarning" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(float(argv[3])) in err

    @pytest.mark.parametrize("argv", [("C1:0.5", "C1:0.5", "--lambda", "1e-310"),
                                      ("C1:0.5", "A1", "--lambda", "5e-324"),
                                      ("A2", "D:0.5", "--lambda", "1.7e308", "--theta", "0.3")],
                             ids=["lambda=1e-310", "lambda=5e-324,A1-inner", "lambda=1.7e308,A2-outer"])
    def test_noise_out_of_float_range_names_lambda(self, argv):
        # the composite's noise grows as lambda or 1/lambda and leaves the float range
        code, out, err = run_subprocess("compose", *argv)
        assert (code, out) == (1, "")
        assert "RuntimeWarning" not in err
        assert err.startswith("error: lambda=") and err.count("\n") == 1
        assert f"lambda={float(argv[3])!r}" in err

    @pytest.mark.parametrize("pair", [("C1:0.5", "I"), ("A1", "D:0.5"), ("C2:2", "C1:1")])
    def test_a_pair_with_no_mismatch_noise_stays_itself_at_any_lambda(self, capsys, pair):
        # no mismatch noise where a factor adds none; the subnormal lambda once made it 0 * inf = nan
        for lam in ("1e-310", "5e-324"):
            assert run(capsys, "compose", *pair, "--lambda", lam)[:2] == run(capsys, "compose", *pair)[:2]

    def test_unsupported_pair_exits_3(self, capsys):
        code, out, err = run(capsys, "compose", "B1", "C1:0.5")
        assert code == 3


class TestExperiments:
    def test_fixedpoint_artifact(self, capsys, tmp_path):
        code, out, err = run(capsys, "experiment", "fixedpoint", "--family", "D", "--kappa", "0.8",
                             "--a0", "1,10", "--steps", "40", "--ncut", "64",
                             "--output-dir", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "fixedpoint.csv").read_text().splitlines()
        assert rows[0] == "a0_input,step,a0_estimate,trace_distance"
        last = rows[-1].split(",")
        assert float(last[2]) == pytest.approx(41 / 9, abs=0.01)

    def test_fixedpoint_reports_truncation_loss(self, capsys, tmp_path):
        code, out, err = run(capsys, "experiment", "fixedpoint", "--family", "C2", "--kappa", "1.3",
                             "--a0", "1", "--steps", "12", "--ncut", "48", "--output-dir", str(tmp_path))
        assert (code, out) == (0, "")
        assert err == "truncation: a0 1 lost 9.153e-01 of its mass past --ncut 48 over 12 steps\n"
        assert len((tmp_path / "fixedpoint.csv").read_text().splitlines()) == 14

    def test_fixedpoint_converging_run_reports_no_loss(self, capsys, tmp_path):
        code, out, err = run(capsys, "experiment", "fixedpoint", "--family", "D", "--kappa", "0.8",
                             "--a0", "10", "--steps", "40", "--ncut", "96", "--output-dir", str(tmp_path))
        assert (code, err) == (0, "")
        assert out.startswith("fixed_point target ")

    def test_zeno_artifact_endpoint(self, capsys, tmp_path):
        code, out, err = run(capsys, "experiment", "zeno", "--mode", "attenuator",
                             "--interrupts", "2,3,5,10", "--output-dir", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "zeno.csv").read_text().splitlines()
        endpoint = [r for r in rows if r.startswith("attenuator,10,10,")]
        assert len(endpoint) == 1
        assert float(endpoint[0].split(",")[3]) == pytest.approx(0.8834851836794666, abs=1e-10)

    def test_extremal_artifact(self, capsys, tmp_path):
        code, out, err = run(capsys, "experiment", "extremal", "--channels", "D:0.5,C2:1.3",
                             "--ncut", "64", "--output-dir", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "extremal.json").read_text())
        assert all(rec["numerical_rank"] == 49 for rec in data["gram"].values())

    def test_verify_all(self, capsys, tmp_path):
        code, out, err = run(capsys, "experiment", "verify-all", "--ncut", "48",
                             "--output-dir", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "verify_all.json").read_text())
        assert all(rec["passed"] for rec in data["invariants"].values())

    @pytest.mark.parametrize("argv", [["extremal", "--block", "-1"],
                                      ["scaling", "--grid", "0"], ["scaling", "--grid", "-1"],
                                      ["zeno", "--interrupts", "-2"], ["zeno", "--interrupts", "0"],
                                      ["zeno", "--interrupts", "2,-1"],
                                      ["zeno", "--total", "nan"], ["zeno", "--mode", "amplifier", "--total", "inf"]],
                             ids=["negative-block", "empty-grid", "negative-grid",
                                  "zeno-negative-interrupts", "zeno-zero-interrupts", "zeno-one-negative-interrupt",
                                  "zeno-nan-total", "zeno-inf-total"])
    def test_degenerate_argument_is_one_error_line(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, "experiment", *argv, "--output-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_fixedpoint_a1_takes_the_default_starts_to_the_vacuum(self, capsys, tmp_path):
        code, out, err = run(capsys, "experiment", "fixedpoint", "--family", "A1", "--ncut", "48",
                             "--output-dir", str(tmp_path))
        assert (code, out, err) == (0, "fixed_point target 1 worst_final_gap 0\n", "")
        rows = (tmp_path / "fixedpoint.csv").read_text().splitlines()
        assert [row.split(",")[2] for row in rows if row.split(",")[1] == "40"] == ["1"] * 4

    def test_fixedpoint_identity_has_no_target(self, capsys, tmp_path):
        code, out, err = run(capsys, "experiment", "fixedpoint", "--family", "I", "--output-dir", str(tmp_path))
        assert (code, out) == (0, "")
        assert (tmp_path / "fixedpoint.csv").exists()

    def test_fixedpoint_explicit_kappa_on_a1_is_one_error_line(self, capsys, tmp_path):
        code, out, err = run(capsys, "experiment", "fixedpoint", "--family", "A1", "--kappa", "0.8",
                             "--output-dir", str(tmp_path))
        assert (code, out, err) == (1, "", "error: family A1 takes no kappa\n")
        assert list(tmp_path.iterdir()) == []

    def test_env_var_output_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BK_OUTPUT_DIR", str(tmp_path))
        code, out, err = run(capsys, "experiment", "zeno", "--interrupts", "2")
        assert code == 0
        assert (tmp_path / "zeno.csv").exists()


class TestOptionsPerCommand:
    @pytest.mark.parametrize("argv", [
        ["experiment", "zeno", "--ncut", "4"], ["experiment", "verify-all", "--family", "Q"],
        ["experiment", "extremal", "--a0", ","], ["experiment", "scaling", "--steps", "3"],
        ["experiment", "zeno", "--N", "3"], ["experiment", "--ncut", "64", "fixedpoint"],
        ["kraus", "--family", "D", "--kappa", "0.8"], ["kraus", "D:0.8", "--ncut", "4"],
        ["experiment", "fixedpoint", "--ncut", "7"]],
        ids=["zeno-ncut", "verify-all-family", "extremal-a0", "scaling-steps", "zeno-N", "option-before-name",
             "kraus-family-kappa", "kraus-cutoff-floor", "fixedpoint-cutoff-floor"])
    def test_option_the_command_does_not_take_is_a_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BK_OUTPUT_DIR", raising=False)
        code, out, err = argparse_exit(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ") and err.count("error:") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["fixedpoint", "--a0", "1,,3"], ["fixedpoint", "--a0", "1,"], ["fixedpoint", "--a0", ","],
        ["fixedpoint", "--a0", ""], ["zeno", "--interrupts", "2,,5"], ["zeno", "--interrupts", ","]],
        ids=["a0-inner-empty-field", "a0-trailing-empty-field", "a0-only-empty-fields", "a0-empty",
             "interrupts-inner-empty-field", "interrupts-only-empty-fields"])
    def test_empty_list_field_is_a_usage_error(self, capsys, tmp_path, argv):
        code, out, err = argparse_exit(capsys, "experiment", *argv, "--output-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("usage: ") and err.count("error:") == 1
        assert err.endswith(f"error: argument {argv[1]}: empty field in {argv[2]!r}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", list(cli._EXPERIMENTS))
    def test_help_lists_only_the_experiment_options(self, capsys, name):
        code, out, err = argparse_exit(capsys, "experiment", name, "-h")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: boskraus experiment {name} ")
        listed = set(re.findall(r"^  (-[-\w]+)", out, flags=re.MULTILINE))
        assert listed == {f"--{dest}" for dest in cli._EXPERIMENTS[name][1]} | {"-h", "--output-dir"}

    @pytest.mark.parametrize("name", list(cli._EXPERIMENTS))
    def test_each_declared_option_is_read_by_the_runner(self, name):
        def reads(function) -> set[str]:
            tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
            return {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args"}

        runner, options = cli._EXPERIMENTS[name]
        assert reads(cli._output_dir) == {"output_dir"}
        assert set(options) | {"output_dir"} == reads(runner) | reads(cli._output_dir)


def test_deterministic_output(capsys, tmp_path):
    """Identical invocations produce byte-identical artifacts."""
    a, b = tmp_path / "a", tmp_path / "b"
    for target in (a, b):
        code, out, err = run(capsys, "experiment", "scaling", "--channels", "C2:1.5",
                             "--ncut", "48", "--seed", "7", "--output-dir", str(target))
        assert code == 0
    assert (a / "scaling.json").read_bytes() == (b / "scaling.json").read_bytes()


def test_twelve_digit_formatting(capsys):
    code, out, err = run(capsys, "compose", "A2", "D:0.77")
    payload = json.loads(out.split("\n", 1)[1])
    text = json.dumps(payload)
    # round-tripped values carry at most 12 significant digits
    assert payload["composite"]["a"] == float(f"{np.sqrt(0.77**2 + 2) - 1:.12g}")
