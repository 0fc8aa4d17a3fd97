"""Command-line interface: outputs, exit codes, config merge, determinism."""

import dataclasses
import os
import subprocess
import sys
import tempfile

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from pulseforge import GrapeConfig
from pulseforge.cli import cmd_grape, cmd_scan, main

TINY_GRAPE = [
    "grape",
    "--error",
    "none",
    "--bins",
    "50",
    "--seed",
    "3",
    "--max-iterations",
    "800",
    "--restarts",
    "1",
]


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def tiny_pulse(tmp_path_factory):
    out = tmp_path_factory.mktemp("pulse")
    result = CliRunner().invoke(main, TINY_GRAPE + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    return out / "none_pulse.csv"


def test_module_runs_as_a_script():
    # As the README runs it: a fresh interpreter imports the package and
    # lists the four commands.
    result = subprocess.run(
        [sys.executable, "-m", "pulseforge.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    commands = result.stdout.split("Commands:")[1].splitlines()
    assert {line.split()[0] for line in commands if line.strip()} == {
        "compare", "grape", "info", "scan"
    }


def test_info(runner):
    result = runner.invoke(main, ["info"])
    assert result.exit_code == 0
    assert "|0>" in result.output and "|3>" in result.output
    assert "+0.707107" in result.output
    assert "2.88 GHz" in result.output
    assert "130 MHz" in result.output
    assert "2 MHz" in result.output
    again = runner.invoke(main, ["info"])
    assert again.output == result.output


def test_info_prints_composite_tables(runner):
    result = runner.invoke(main, ["info"])
    assert result.exit_code == 0
    # The stored rows, phases unwrapped: BB1's psi 2.12 pi stays above 2 pi
    # and CORPSE's minus-axis rows stay at -0.5 pi.
    bb1 = (
        "\nbb1 segments (9.5 pi), index 0 first:\n"
        "idx,channel,tau_over_pi,theta_over_pi\n"
        "0,MW,0.25,0.5\n"
        "1,MW,1,1.03989309\n"
        "2,MW,2,2.11967926\n"
        "3,MW,1,1.03989309\n"
        "4,MW,0.25,0.5\n"
        "5,RF,0.5,0.5\n"
        "6,RF,1,1.08043062\n"
        "7,RF,2,2.24129187\n"
        "8,RF,1,1.08043062\n"
        "9,RF,0.5,0.5\n"
        "\n"
    )
    corpse = (
        "corpse segments (8.37323 pi), index 0 first:\n"
        "idx,channel,tau_over_pi,theta_over_pi\n"
        "0,MW,0.134973272,0.5\n"
        "1,MW,1.76994654,-0.5\n"
        "2,MW,2.13497327,0.5\n"
        "3,RF,0.333333333,0.5\n"
        "4,RF,1.66666667,-0.5\n"
        "5,RF,2.33333333,0.5\n"
        "\n"
    )
    assert bb1 + corpse in result.output


def test_scan_writes_csv_and_plot(runner, tmp_path):
    result = runner.invoke(
        main,
        ["scan", "--error", "ple", "--grid-points", "21", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    csv = tmp_path / "ple_scan.csv"
    gp = tmp_path / "ple_scan.gp"
    assert csv.exists() and gp.exists()
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "epsilon,sequential,bb1,corpse"
    assert len(lines) == 22
    assert "21 points" in result.output
    assert "F >= 0.9" in result.output
    assert csv.name in gp.read_text()


def test_scan_ore_mentions_corpse_tradeoff(runner, tmp_path):
    result = runner.invoke(
        main,
        ["scan", "--error", "ore", "--grid-points", "41", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert "corpse" in result.output
    assert (tmp_path / "ore_scan.csv").exists()


def test_scan_single_point_grid(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "scan",
            "--grid-min",
            "0",
            "--grid-max",
            "0",
            "--grid-points",
            "1",
            "--schemes",
            "sequential",
            "--out",
            str(tmp_path),
        ],
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "ple_scan.csv").read_text().strip().splitlines()
    assert lines[1] == "0,1"


def test_scan_unknown_scheme_is_usage_error(runner, tmp_path):
    result = runner.invoke(
        main, ["scan", "--schemes", "nosuch", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "nosuch" in result.output


def test_scan_missing_pulse_file_is_io_error(runner, tmp_path):
    result = runner.invoke(
        main,
        ["scan", "--schemes", "grape:/nonexistent/p.csv", "--out", str(tmp_path)],
    )
    assert result.exit_code == 3


def test_scan_deterministic(runner, tmp_path):
    args = ["scan", "--error", "ple", "--grid-points", "17"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
    assert (a / "ple_scan.csv").read_bytes() == (b / "ple_scan.csv").read_bytes()


def test_grape_outputs(runner, tmp_path, tiny_pulse):
    result = runner.invoke(main, TINY_GRAPE + ["--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    pulse = tmp_path / "none_pulse.csv"
    trace = tmp_path / "none_trace.csv"
    assert pulse.exists() and trace.exists()
    lines = pulse.read_text().strip().splitlines()
    assert lines[0] == "bin,t_start,u_m,theta_m_over_pi,u_r,theta_r_over_pi"
    data_rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(data_rows) == 50
    tlines = trace.read_text().strip().splitlines()
    assert tlines[0] == "iteration,objective"
    objectives = [float(ln.split(",")[1]) for ln in tlines[1:]]
    assert all(b >= a for a, b in zip(objectives, objectives[1:]))
    assert "final fidelity" in result.output
    # Byte-identical to the module fixture run with the same arguments.
    assert pulse.read_bytes() == tiny_pulse.read_bytes()


def test_grape_unreachable_goal_exits_4(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "grape",
            "--error",
            "none",
            "--bins",
            "1",
            "--time",
            "0.01",
            "--max-iterations",
            "200",
            "--restarts",
            "2",
            "--out",
            str(tmp_path),
        ],
    )
    assert result.exit_code == 4
    # Artifacts are still written for post-mortem inspection.
    assert (tmp_path / "none_pulse.csv").exists()
    assert (tmp_path / "none_trace.csv").exists()


def test_grape_rejects_bad_error_kind(runner, tmp_path):
    result = runner.invoke(
        main, ["grape", "--error", "wat", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2


BAD_INPUT = [
    ("grape", ["--time", "inf"], "must be finite"),
    ("grape", ["--penalty", "nan"], "must be finite"),
    ("grape", ["--init-scale", "inf"], "must be finite"),
    ("grape", ["--lambda-mhz", "0"], "must be finite"),
    ("grape", ["--lambda-mhz", "-1"], "must be finite"),
    ("compare", ["--lambda-mhz", "0"], "must be finite"),
    ("compare", ["--lambda-mhz", "-1"], "must be finite"),
    ("grape", ["--seed", "-1"], "seed must be >= 0"),
    ("grape", ["--restarts", "0"], "not in the range x>=1"),
    ("grape", ["--restarts", "-2"], "not in the range x>=1"),
    ("grape-config", "seed = -1", "seed must be >= 0"),
    ("grape-config", "restarts = 0", "not in the range x>=1"),
]


@pytest.mark.parametrize(
    "command,flags,message",
    BAD_INPUT,
    ids=[f"{command}-flags{i}" for i, (command, _, _) in enumerate(BAD_INPUT)],
)
def test_bad_numeric_input_exits_2_before_any_work(
    runner, tmp_path, tiny_pulse, command, flags, message
):
    if command == "grape":
        args = TINY_GRAPE + flags
    elif command == "grape-config":
        # TINY_GRAPE's --seed and --restarts flags would win over the file.
        cfg = tmp_path / "grape.cfg"
        cfg.write_text(flags + "\n")
        args = ["grape", "--error", "none", "--bins", "50", "--config", str(cfg)]
    else:
        args = ["compare", "--grape-pulse", str(tiny_pulse)] + flags
    out = tmp_path / "out"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out.exists()


def test_grape_options_are_the_config_fields():
    # `grape` passes every option named after a GrapeConfig field on to it,
    # so each field has an option of that name, with the field's default but
    # for the seed, whose documented default is 1.
    options = {p.name: p for p in cmd_grape.params}
    for field in dataclasses.fields(GrapeConfig):
        if field.name in ("error_kind", "training"):
            continue
        assert field.name in options
        if field.name != "seed":
            assert options[field.name].default == field.default, field.name
    assert options["seed"].default == 1


def test_grape_step_size_flag_is_gone(runner, tmp_path):
    result = runner.invoke(
        main, TINY_GRAPE + ["--step-size", "0.1", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "--step-size" in result.output


def test_grape_config_with_retired_step_size_runs(runner, tmp_path, tiny_pulse):
    # A config file written for the fixed-step ascent still works: the
    # retired key is noted and skipped.
    cfg = tmp_path / "grape.cfg"
    cfg.write_text("step_size = 0.1\n")
    result = runner.invoke(
        main, TINY_GRAPE + ["--config", str(cfg), "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    assert "config key 'step_size' not used by this command" in result.output
    assert (tmp_path / "none_pulse.csv").read_bytes() == tiny_pulse.read_bytes()


@pytest.mark.parametrize("key", ["time", "total_time"])
def test_config_key_is_long_flag_or_parameter_name(runner, tmp_path, key):
    # --time stores total_time; either name sets it from a config file.
    cfg = tmp_path / "grape.cfg"
    cfg.write_text(f"{key} = 3.14\n")
    result = runner.invoke(
        main,
        ["grape", "--error", "none", "--bins", "20", "--max-iterations", "40",
         "--restarts", "1", "--config", str(cfg), "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert "not used" not in result.output
    assert "# total_time=3.14\n" in (tmp_path / "none_pulse.csv").read_text()


def test_grape_trace_write_failure_is_io_error(runner, tmp_path):
    (tmp_path / "none_trace.csv").mkdir()
    result = runner.invoke(main, TINY_GRAPE + ["--out", str(tmp_path)])
    assert result.exit_code == 3
    assert "cannot write trace CSV to" in result.output


def test_compare_outputs(runner, tmp_path, tiny_pulse):
    result = runner.invoke(
        main,
        [
            "compare",
            "--error",
            "ple",
            "--grape-pulse",
            str(tiny_pulse),
            "--grid-points",
            "21",
            "--out",
            str(tmp_path),
        ],
    )
    assert result.exit_code == 0, result.output
    csv = tmp_path / "ple_compare.csv"
    assert csv.exists()
    header = csv.read_text().splitlines()[0]
    assert header == "epsilon,sequential,bb1,corpse,grape"
    assert "corpse/sequential duration ratio: 5.5822" in result.output
    assert "sequential" in result.output and "mean" in result.output.lower()
    # Mean fidelities parsed back as numbers within [0, 1].
    data = np.loadtxt(str(csv), delimiter=",", skiprows=1)
    assert data.shape == (21, 5)
    assert np.all((data[:, 1:] >= 0) & (data[:, 1:] <= 1))


def test_compare_rejects_truncated_pulse_file(runner, tmp_path, tiny_pulse):
    # The last bin row deleted: 49 rows under `# bins=50` is an I/O failure.
    lines = tiny_pulse.read_text().splitlines()
    del lines[50]
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines) + "\n")
    result = runner.invoke(
        main, ["compare", "--grape-pulse", str(short), "--out", str(tmp_path)]
    )
    assert result.exit_code == 3
    assert "49 rows under bins=50" in result.output
    assert not (tmp_path / "ple_compare.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_compare_rejects_t_starts_near_the_float_limit(runner, tmp_path):
    # Starts 0, -1e307, 1.7e308: dt = -1e307 is refused before any t_start
    # arithmetic could overflow, so even with warnings as errors it is an I/O
    # failure, not a crash.
    bad = tmp_path / "huge.csv"
    rows = ["0,0,0,0,0,0", "1,-1e307,0,0,0,0", "2,1.7e308,0,0,0,0"]
    bad.write_text("\n".join(["bin,t_start,u_m,theta_m_over_pi,u_r,theta_r_over_pi", *rows]))
    result = runner.invoke(main, ["compare", "--grape-pulse", str(bad), "--out", str(tmp_path)])
    assert result.exit_code == 3, result.output


def test_compare_requires_pulse_option(runner, tmp_path):
    result = runner.invoke(main, ["compare", "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_config_file_fills_defaults(runner, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("# comment line\ngrid-points = 11\nerror = ple\n")
    result = runner.invoke(
        main, ["scan", "--config", str(cfg), "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "ple_scan.csv").read_text().strip().splitlines()
    assert len(lines) == 12


def test_explicit_flag_beats_config(runner, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("grid-points = 11\n")
    result = runner.invoke(
        main,
        ["scan", "--config", str(cfg), "--grid-points", "5", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "ple_scan.csv").read_text().strip().splitlines()
    assert len(lines) == 6


def test_config_bad_line_is_usage_error(runner, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    result = runner.invoke(
        main, ["scan", "--config", str(cfg), "--out", str(tmp_path)]
    )
    assert result.exit_code == 2


def test_config_missing_file_is_io_error(runner, tmp_path):
    result = runner.invoke(
        main, ["scan", "--config", "/nonexistent.cfg", "--out", str(tmp_path)]
    )
    assert result.exit_code == 3


def test_out_env_var_beats_config_file(runner, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(f"out = {tmp_path / 'from_file'}\n")
    result = runner.invoke(
        main,
        ["scan", "--grid-points", "5", "--config", str(cfg)],
        env={"PULSEFORGE_OUT": str(tmp_path / "from_env")},
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "from_env" / "ple_scan.csv").exists()
    assert not (tmp_path / "from_file").exists()


def test_config_notes_each_unknown_key_once_in_file_order(runner, tmp_path):
    cfg = tmp_path / "scan.cfg"
    lines = ["zeta = 1", "alpha = 2", "zeta = 3", "grid-points = 5", "config = x", "mid = 4"]
    cfg.write_text("\n".join(lines) + "\n")
    result = runner.invoke(
        main, ["scan", "--config", str(cfg), "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    notes = [ln for ln in result.output.splitlines() if ln.startswith("note: config")]
    assert notes == [
        f"note: config key {key!r} not used by this command"
        for key in ("zeta", "alpha", "config", "mid")
    ]


def test_compare_config_names_the_pulse(runner, tmp_path, tiny_pulse):
    # A config file may supply compare's required --grape-pulse.
    cfg = tmp_path / "compare.cfg"
    cfg.write_text(f"grape-pulse = {tiny_pulse}\ngrid-points = 5\n")
    result = runner.invoke(
        main, ["compare", "--config", str(cfg), "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    assert len((tmp_path / "ple_compare.csv").read_text().splitlines()) == 6


def test_out_env_var(runner, tmp_path):
    result = runner.invoke(
        main,
        ["scan", "--grid-points", "5"],
        env={"PULSEFORGE_OUT": str(tmp_path)},
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "ple_scan.csv").exists()


def test_prefix_option(runner, tmp_path):
    result = runner.invoke(
        main,
        ["scan", "--grid-points", "5", "--prefix", "mylabel", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "mylabel_scan.csv").exists()


_CONFIG_LINE = st.one_of(
    st.text(max_size=30),
    st.builds(
        "{} = {}".format,
        st.sampled_from(
            ["grid-points", "grid_min", "GRID-MAX", "error", "schemes", "out",
             "prefix", "config", "nosuch", ""]
        ),
        st.one_of(
            st.sampled_from(["5", "-0.5", "ore", "nan", "1e400"]), st.text(max_size=12)
        ),
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_CONFIG_LINE, max_size=6).map("\n".join))
def test_merge_config_fails_only_with_usage_error(text):
    # Any config file text becomes the command's defaults or raises
    # click.UsageError (exit 2) while the options are parsed.
    fd, path = tempfile.mkstemp(suffix=".cfg")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        try:
            with cmd_scan.make_context("scan", ["--config", path]):
                pass
        except click.UsageError:
            pass
    finally:
        os.unlink(path)
