"""Command-line behaviour: exit codes, determinism, config handling, CSV shape."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blindprep.cli as cli
import blindprep.resources as rs
from blindprep.cli import CONFIG_KEYS, CSV_HEADER, load_config, main
from blindprep.errors import ContractViolation, InputError
from blindprep.resources import ExperimentParams, estimate


@pytest.fixture(autouse=True)
def _clear_seed_env(monkeypatch):
    monkeypatch.delenv("BLINDPREP_SEED", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_usage_error(result, needle):
    code, out, err = result
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert needle in err


# ------------------------------------------------------------ golden stdout ----

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("prepare_theta3_seed5", ["prepare", "--theta", "3", "--seed", "5"]),
        ("prepare_zero_branch", ["prepare", "--branches", "zero"]),
        ("verify_gates_hadamard", ["verify-gates", "--pattern", "hadamard"]),
        ("verify_gates_cnot_sep1", ["verify-gates", "--pattern", "cnot", "--sep", "1"]),
        ("correct_y_pos4", ["correct", "--pauli", "Y", "--pos", "4"]),
        ("blindness_min_cluster", ["blindness"]),
        ("verify_gates_rotation", ["verify-gates", "--pattern", "rotation"]),
        ("prepare_theta6_seed9", ["prepare", "--theta", "6", "--seed", "9"]),
        (
            "verify_gates_rotation_sample",
            ["verify-gates", "--pattern", "rotation", "--branches", "sample",
             "--paths", "20", "--seed", "7"],
        ),
        (
            "blindness_prepare_sampled",
            ["blindness", "--protocol", "prepare", "--paths", "4", "--seed", "1"],
        ),
    ],
)
def test_stdout_matches_golden_record(capsys, name, argv):
    # byte-for-byte, including every float repr
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


# -------------------------------------------------------------- exit codes ----


def test_module_entry_point_exits_with_the_code_main_returns():
    # python -m blindprep.cli in a fresh process, through sys.exit(main())
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "BLINDPREP_SEED"}
    env["PYTHONPATH"] = str(src)

    def run(*argv):
        cmd = [sys.executable, "-W", "error", "-m", "blindprep.cli", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, timeout=120, check=False)

    ok = run("prepare", "--branches", "zero")
    assert ok.returncode == 0
    assert ok.stdout == (GOLDEN / "prepare_zero_branch.txt").read_bytes()
    bad = run("prepare", "--theta", "9")
    assert bad.returncode == 1 and bad.stdout == b""
    assert bad.stderr.count(b"\n") == 1 and bad.stderr.startswith(b"error: ")
    assert run("blindness", "--epsilon", "1e-300").returncode == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bogus")
    assert code == 1
    assert "invalid choice" in err


def test_unknown_pattern_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify-gates", "--pattern", "toffoli")
    assert code == 1
    assert "invalid choice" in err


def test_theta_out_of_range_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "prepare", "--theta", "9")
    assert code == 1
    assert "0..7" in err


def test_position_out_of_range_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "correct", "--pauli", "X", "--pos", "8")
    assert code == 1
    assert "1..7" in err


def test_negative_epsilon_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "blindness", "--epsilon", "-1")
    assert code == 1
    assert "positive" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
def test_non_finite_or_zero_epsilon_is_usage_error(capsys, value):
    # "--epsilon=-inf": argparse reads a bare "-inf" as a flag
    result = run_cli(capsys, "blindness", f"--epsilon={value}")
    assert_one_line_usage_error(result, "--epsilon must be a positive finite number")


def test_negative_seed_flag_is_usage_error(capsys):
    result = run_cli(capsys, "prepare", "--seed", "-1")
    assert_one_line_usage_error(result, "--seed must be a non-negative integer")
    result = run_cli(capsys, "verify-gates", "--pattern", "hadamard", "--branches", "sample",
                     "--paths", "1", "--seed", "-5")
    assert_one_line_usage_error(result, "--seed must be a non-negative integer")


@pytest.mark.parametrize("sep", ["12", "1000000"])
def test_cnot_separation_over_the_qubit_cap_is_usage_error(capsys, sep):
    result = run_cli(capsys, "verify-gates", "--pattern", "cnot", "--sep", sep)
    assert_one_line_usage_error(result, "over the cap of 24")


def test_cnot_separation_past_the_enumeration_limit_is_usage_error(capsys):
    # sep 6 is 24 measurements: under the qubit cap, over the 22-bit branch limit
    code, out, err = run_cli(capsys, "verify-gates", "--pattern", "cnot", "--sep", "6")
    assert (code, out, err) == (1, "", "error: refusing to enumerate 2^24 branches\n")


def test_enumeration_limit_is_checked_before_the_choi_probe(capsys, monkeypatch):
    def unreachable(p):
        raise AssertionError("a probe was built for a pattern past the limit")

    monkeypatch.setattr(cli.mbqc, "choi_probe", unreachable)
    code, out, err = run_cli(capsys, "verify-gates", "--pattern", "cnot", "--sep", "6")
    assert (code, out, err) == (1, "", "error: refusing to enumerate 2^24 branches\n")


def test_enumeration_limit_is_checked_before_the_declared_unitary(capsys, monkeypatch):
    # sep 11 is 36 measurements; its declared unitary would be 4096 x 4096
    def unreachable(gate):
        raise AssertionError("a declared unitary was built for a pattern past the limit")

    monkeypatch.setattr(cli.mbqc, "gate_unitary", unreachable)
    code, out, err = run_cli(capsys, "verify-gates", "--pattern", "cnot", "--sep", "11")
    assert (code, out, err) == (1, "", "error: refusing to enumerate 2^36 branches\n")


@pytest.mark.parametrize("sep, qubits", [(10, 25), (11, 26)])
def test_choi_width_is_checked_before_the_declared_unitary(capsys, monkeypatch, sep, qubits):
    # a sampled run is not counted, but its Choi probe plus the live nodes pass the cap
    def unreachable(gate):
        raise AssertionError("a declared unitary was built for a run past the qubit cap")

    monkeypatch.setattr(cli.mbqc, "gate_unitary", unreachable)
    argv = ["--pattern", "cnot", "--sep", str(sep), "--branches", "sample", "--paths", "1"]
    code, out, err = run_cli(capsys, "verify-gates", *argv)
    want = f"error: a Choi run holds {qubits} qubits, over the cap of 24\n"
    assert (code, out, err) == (1, "", want)


def test_negative_seed_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("BLINDPREP_SEED", "-3")
    result = run_cli(capsys, "prepare")
    assert_one_line_usage_error(result, "BLINDPREP_SEED must be a non-negative integer")


def test_zero_step_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "resources", "--step", "0")
    assert code == 1
    assert "positive" in err


@pytest.mark.parametrize("error", [InputError])
def test_input_type_errors_exit_one_with_one_line(capsys, monkeypatch, error):
    # any InputError a command raises, from any layer, is one line and exit 1
    def cmd(args):
        raise error("stubbed failure")

    monkeypatch.setattr(cli, "cmd_prepare", cmd)
    assert_one_line_usage_error(run_cli(capsys, "prepare"), "stubbed failure")


def test_contract_violation_keeps_its_traceback(capsys, monkeypatch):
    def cmd(args):
        raise ContractViolation("a bug")

    monkeypatch.setattr(cli, "cmd_prepare", cmd)
    with pytest.raises(ContractViolation):
        main(["prepare"])


def test_bad_seed_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("BLINDPREP_SEED", "pi")
    code, _, err = run_cli(capsys, "prepare", "--theta", "0")
    assert code == 1
    assert "BLINDPREP_SEED" in err


# ------------------------------------------------------------ verify-gates ----


def test_verify_hadamard_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-gates", "--pattern", "hadamard")
    assert code == 0
    assert "hadamard: 80 runs" in out
    assert out.rstrip().endswith("verify-gates: PASS (threshold 1 - 1e-10)")


def test_verify_cnot_sep_one_uses_entangled_probe(capsys):
    code, out, _ = run_cli(capsys, "verify-gates", "--pattern", "cnot", "--sep", "1")
    assert code == 0
    assert "cnot[sep=1]: 64 runs" in out


def test_verify_sample_mode_is_seed_deterministic(capsys):
    args = ("verify-gates", "--pattern", "rotation", "--branches", "sample",
            "--paths", "2", "--seed", "11")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------- prepare ----


def test_prepare_forced_zero_branch(capsys):
    code, out, _ = run_cli(capsys, "prepare", "--theta", "0", "--branches", "zero")
    assert code == 0
    assert "branch word: 0x" + "0" * 41 in out
    assert "byproduct frame: d1:X0Z0" in out
    assert "prepare: PASS" in out


def test_prepare_seeded_run_is_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "prepare", "--theta", "4", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "prepare", "--theta", "4", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_prepare_seed_changes_branch(capsys):
    _, out1, _ = run_cli(capsys, "prepare", "--theta", "4", "--seed", "1")
    _, out2, _ = run_cli(capsys, "prepare", "--theta", "4", "--seed", "2")
    word = [ln for ln in out1.splitlines() if ln.startswith("branch word")]
    other = [ln for ln in out2.splitlines() if ln.startswith("branch word")]
    assert word != other


def test_prepare_env_seed_matches_flag(capsys, monkeypatch):
    _, flagged, _ = run_cli(capsys, "prepare", "--theta", "2", "--seed", "13")
    monkeypatch.setenv("BLINDPREP_SEED", "13")
    _, from_env, _ = run_cli(capsys, "prepare", "--theta", "2")
    assert flagged == from_env


# ---------------------------------------------------------------- correct ----


def test_correct_phase_error_syndromes(capsys):
    code, out, _ = run_cli(capsys, "correct", "--pauli", "Z", "--pos", "3")
    assert code == 0
    assert "bit syndrome: 000 (no bit flip)" in out
    assert "phase syndrome: 011 (Z at 3)" in out
    assert "correct: PASS" in out


def test_correct_bit_error_syndromes(capsys):
    code, out, _ = run_cli(capsys, "correct", "--pauli", "X", "--pos", "3")
    assert code == 0
    assert "bit syndrome: 011 (X at 3)" in out
    assert "phase syndrome: 000 (no phase flip)" in out


def test_correct_y_error_flags_both_rounds(capsys):
    code, out, _ = run_cli(capsys, "correct", "--pauli", "Y", "--pos", "5",
                           "--theta", "3")
    assert code == 0
    assert "bit syndrome: 101 (X at 5)" in out
    assert "phase syndrome: 101 (Z at 5)" in out


# -------------------------------------------------------------- blindness ----


def test_blindness_min_cluster_passes(capsys):
    code, out, _ = run_cli(capsys, "blindness", "--protocol", "min-cluster")
    assert code == 0
    assert "basis x:" in out and "basis y:" in out and "basis z:" in out
    assert "blindness: PASS" in out


def test_blindness_prepare_sampled_passes(capsys):
    code, out, _ = run_cli(capsys, "blindness", "--protocol", "prepare",
                           "--paths", "2", "--seed", "3")
    assert code == 0
    assert "2 sampled paths over 162 measurements" in out
    assert "blindness: PASS" in out


SAMPLED_TV_NOTE = "note: sampled TV cannot fail; only max |p - 1/2| carries evidence\n"


def test_blindness_prepare_says_on_stderr_that_its_tv_cannot_fail(capsys):
    code, out, err = run_cli(capsys, "blindness", "--protocol", "prepare",
                             "--paths", "4", "--seed", "1")
    assert (code, err) == (0, SAMPLED_TV_NOTE)
    assert out == (GOLDEN / "blindness_prepare_sampled.txt").read_text(encoding="utf-8")
    code, _, err = run_cli(capsys, "blindness", "--protocol", "min-cluster")
    assert (code, err) == (0, "")


def test_blindness_impossible_epsilon_fails(capsys):
    # an epsilon far below float resolution forces the FAIL exit path
    code, out, _ = run_cli(capsys, "blindness", "--protocol", "min-cluster",
                           "--epsilon", "1e-300")
    assert code == 2
    assert "blindness: FAIL" in out


# -------------------------------------------------------------- resources ----


def test_resources_header_and_first_row(capsys):
    code, out, err = run_cli(capsys, "resources", "--lmax", "10")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4  # header + L in {0, 5, 10}
    assert lines[1].startswith("0.0,0.045")
    assert all(len(ln.split(",")) == 11 for ln in lines)


def test_resource_row_fields_are_the_csv_columns():
    # cmd_resources writes each field's repr as its cell, which is the cell
    # only for an exact Python int or float
    row = estimate(50.0, ExperimentParams())
    assert len(vars(row)) == CSV_HEADER.count(",") + 1
    assert all(type(v) in (int, float) for v in vars(row).values())


def _sweep_returning(monkeypatch, rows):
    """Make rs.sweep return rows, or, when rows is None, record what it returns."""
    real, returned = rs.sweep, []

    def sweep(lengths, params):
        returned.extend(real(lengths, params) if rows is None else rows)
        return returned

    monkeypatch.setattr(rs, "sweep", sweep)
    return returned


def _row_line(length, row):
    """A CSV line as a row's repr cells, or an NA row, as the CLI writes them."""
    if row is None:
        return ",".join([repr(length)] + ["NA"] * 10)
    return ",".join(map(repr, vars(row).values()))


@pytest.mark.parametrize(
    "argv",
    [
        ["--lmax", "200", "--step", "0.1"],  # the 2 001 rows of the benchmark's sweep
        ["--config", str(Path(__file__).with_name("sweep.cfg")), "--lmax", "20000",
         "--step", "2500"],  # rows past 10 000 km are NA
    ],
    ids=["default_2001_rows", "sweep_cfg"],
)
def test_each_line_is_the_repr_of_each_field_of_its_row(capsys, monkeypatch, argv):
    returned = _sweep_returning(monkeypatch, None)
    code, out, _ = run_cli(capsys, "resources", *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER and len(returned) in (2001, 9)
    assert any(row is None for _, row, _ in returned) == ("--config" in argv)
    assert lines[1:] == [_row_line(length, row) for length, row, _ in returned]


def test_each_line_prints_its_own_rows_k(capsys, monkeypatch):
    # k is rendered once per float object: rows that hold distinct objects,
    # equal in value or not, each print their own k
    base = estimate(50.0, ExperimentParams())
    ks = [float(text) for text in ("2.5", "2.5", "0.1", "3e+20", "2.5")]
    rows = [(50.0, dataclasses.replace(base, k=k), None) for k in ks]
    _sweep_returning(monkeypatch, rows)
    code, out, _ = run_cli(capsys, "resources")
    assert code == 0
    lines = out.splitlines()[1:]
    assert [line.split(",")[5] for line in lines] == [repr(k) for k in ks]
    assert lines == [_row_line(length, row) for length, row, _ in rows]


def test_k_is_printed_on_the_first_row_after_na_rows(capsys, monkeypatch):
    rows = [(length, None, "no detected signal events") for length in (1.0, 2.0)]
    rows += [(length, estimate(length, ExperimentParams()), None) for length in (3.0, 4.0)]
    _sweep_returning(monkeypatch, rows)
    code, out, err = run_cli(capsys, "resources")
    assert code == 0 and err.count("warning: ") == 2
    assert out.splitlines()[1:] == [_row_line(length, row) for length, row, _ in rows]


def test_resources_csv_byte_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, "resources", "--lmax", "30", "--out", str(a))[0] == 0
    assert run_cli(capsys, "resources", "--lmax", "30", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_resources_stdout_matches_file_output(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    assert run_cli(capsys, "resources", "--lmax", "15", "--out", str(path))[0] == 0
    _, out, _ = run_cli(capsys, "resources", "--lmax", "15")
    assert out == path.read_text(encoding="utf-8")


def test_resources_opaque_length_yields_na_row_and_warning(capsys):
    code, out, err = run_cli(capsys, "resources", "--lmin", "20000",
                             "--lmax", "20000")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "20000.0," + ",".join(["NA"] * 10)
    assert "warning" in err and "opaque" in err


def test_resources_grid_bounds_checked(capsys):
    assert run_cli(capsys, "resources", "--lmin", "-5")[0] == 1
    assert run_cli(capsys, "resources", "--lmin", "10", "--lmax", "5")[0] == 1


@pytest.mark.parametrize("flag", ["--lmin", "--lmax", "--step"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_resources_non_finite_bound_is_usage_error(capsys, flag, value):
    result = run_cli(capsys, "resources", f"{flag}={value}")
    assert_one_line_usage_error(result, f"{flag} must be a finite number")


@pytest.mark.parametrize(
    "argv",
    [
        ["--lmax", "1000000", "--step", "1"],  # 1 000 001 rows
        ["--lmax", "200", "--step", "1e-300"],  # the row count overflows a float
    ],
)
def test_resources_row_count_is_capped(capsys, argv):
    result = run_cli(capsys, "resources", *argv)
    assert_one_line_usage_error(result, "1000000 rows")


# ----------------------------------------------------------------- config ----


def write_config(tmp_path, text):
    path = tmp_path / "params.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_config_overrides_and_comments(tmp_path):
    path = write_config(
        tmp_path,
        "# brighter source\nmu = 0.7\nS = 2000\n\nY0 = 1e-6  # dark floor\n",
    )
    params = load_config(path)
    assert params.mu == 0.7
    assert params.successes == 2000
    assert params.y0_dark == 1e-6
    assert params.nu1 == ExperimentParams().nu1  # untouched key keeps default


def test_config_changes_sweep_output(capsys, tmp_path):
    path = write_config(tmp_path, "mu = 0.7\n")
    _, default_out, _ = run_cli(capsys, "resources", "--lmax", "0")
    _, tuned_out, _ = run_cli(capsys, "resources", "--lmax", "0", "--config", path)
    assert default_out != tuned_out
    assert default_out.splitlines()[0] == tuned_out.splitlines()[0]


def test_config_unknown_key_rejected(capsys, tmp_path):
    path = write_config(tmp_path, "brightness = 3\n")
    code, _, err = run_cli(capsys, "resources", "--config", path)
    assert code == 1
    assert "unknown key 'brightness'" in err


def test_config_repeated_key_rejected(capsys, tmp_path):
    # a second line would silently override the first
    path = write_config(tmp_path, "alpha = 0.2\n# fiber\nalpha = 0.3\n")
    result = run_cli(capsys, "resources", "--config", path)
    assert_one_line_usage_error(result, f"{path}:3: key 'alpha' is already set on line 1")


def test_config_bad_value_rejected(tmp_path):
    path = write_config(tmp_path, "mu = bright\n")
    with pytest.raises(InputError, match="cannot parse"):
        load_config(path)


def test_config_bad_line_rejected(tmp_path):
    path = write_config(tmp_path, "mu 0.7\n")
    with pytest.raises(InputError, match="key = value"):
        load_config(path)


def test_config_that_is_not_utf8_rejected(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"alpha = 0.2\n\xff\xfe = 1\n")
    result = run_cli(capsys, "resources", "--config", str(path))
    assert_one_line_usage_error(result, f"{path}: 'utf-8' codec can't decode byte 0xff")


def test_config_invalid_params_rejected(capsys, tmp_path):
    path = write_config(tmp_path, "v1 = 0.9\n")  # decoy brighter than signal
    code, _, err = run_cli(capsys, "resources", "--config", path)
    assert code == 1
    assert "nu1" in err


@pytest.mark.parametrize("key", sorted(k for k, (_, cast) in CONFIG_KEYS.items() if cast is float))
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_config_non_finite_value_rejected(capsys, tmp_path, key, value):
    path = write_config(tmp_path, f"{key} = {value}\n")
    result = run_cli(capsys, "resources", "--config", path)
    assert_one_line_usage_error(result, "must be a finite number")


@pytest.mark.parametrize("successes", [69500, 74500])
def test_config_huge_success_count_gives_na_rows(capsys, tmp_path, successes):
    path = write_config(tmp_path, f"S = {successes}\n")
    code, out, err = run_cli(capsys, "resources", "--config", path, "--lmax", "10")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith(",NA" * 10) for row in rows)
    assert err.count("warning: ") == 3 and "Traceback" not in err


@pytest.mark.parametrize(
    "text, argv",
    [
        ("e = 1e-200\n", ["--lmax", "10"]),
        ("mu = 1e-200\nv1 = 1e-201\n", ["--lmax", "10"]),
        ("Y0 = 1e-7\n", ["--lmin", "20000", "--lmax", "20000"]),
    ],
    ids=["e_squared_underflows", "intensities_underflow", "dark_counts_opaque"],
)
def test_config_underflowing_values_give_na_rows(capsys, tmp_path, text, argv):
    path = write_config(tmp_path, text)
    code, out, err = run_cli(capsys, "resources", "--config", path, *argv)
    assert code == 0
    rows = out.splitlines()[1:]
    assert rows and all(row.endswith(",NA" * 10) for row in rows)
    assert err.count("warning: ") == len(rows) and "Traceback" not in err


def test_config_success_count_beyond_float_range_rejected(capsys, tmp_path):
    path = write_config(tmp_path, f"S = {10**400}\n")
    result = run_cli(capsys, "resources", "--config", path)
    assert_one_line_usage_error(result, "successes")


def test_config_missing_file_rejected(capsys, tmp_path):
    code, _, err = run_cli(capsys, "resources", "--config",
                           str(tmp_path / "absent.cfg"))
    assert code == 1
    assert "cannot read config" in err
