"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest -q bench/test_bench.py

Run from the repository root.  The checks must accept what the program
writes and reject each corrupted copy; the tracer must still give every
per-layer metric when a wrapped name is gone from its module.
"""

from __future__ import annotations

import re
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import oracle  # noqa: E402
from pulseforge import cli, linalg  # noqa: E402
from tracer import Tracer  # noqa: E402

def _shift(text: str, row: int, col: int, delta: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    op = run.sweep_op(("ple",), 41, tmp_path_factory.mktemp("sweep"))
    result = run.run_op(op, cli.main)
    assert result.error is None
    return op, result.files


@pytest.fixture(scope="module")
def training(tmp_path_factory):
    op = run.training_op(run.PROBE_TRAINING, 7, tmp_path_factory.mktemp("grape"))
    result = run.run_op(op, cli.main)
    assert result.error is None
    return op, result.files


def test_sweep_check_accepts_program_output(sweep):
    op, files = sweep
    facts = op.check(files)
    assert 0.9 < facts["min_fidelity"] <= 1.0


@pytest.mark.parametrize("name,col,row", [
    ("ple_scan.csv", 1, 21),     # sequential at eps = 0
    ("ple_scan.csv", 2, 5),      # bb1 off the centre
    ("ple_compare.csv", 3, 37),  # corpse
    ("ple_compare.csv", 4, 2),   # the trained pulse
    ("ple_compare.csv", 4, 30),
])
def test_sweep_check_rejects_a_value_moved_by_1e_3(sweep, name, col, row):
    op, files = sweep
    bad = dict(files, **{name: _shift(files[name], row, col, -1e-3)})
    with pytest.raises(oracle.CheckFailed):
        op.check(bad)


def test_sweep_check_rejects_a_shifted_grid(sweep):
    op, files = sweep
    bad = dict(files, **{"ple_scan.csv": _shift(files["ple_scan.csv"], 9, 0, 1e-3)})
    with pytest.raises(oracle.CheckFailed):
        op.check(bad)


def test_training_check_accepts_program_output(training):
    op, files = training
    facts = op.check(files)
    assert facts["iterations"] == run.PROBE_TRAINING.max_iterations
    assert facts["min_fidelity"] > 0.9


def test_pulse_check_rejects_an_amplitude_over_the_bound(training):
    op, files = training
    name = "none_pulse.csv"
    lines = files[name].splitlines()
    cells = lines[17].split(",")
    cells[2] = "1.001"  # u_m: the MW pair at radius 0.5005
    lines[17] = ",".join(cells)
    with pytest.raises(oracle.CheckFailed, match="radial bound"):
        op.check(dict(files, **{name: "\n".join(lines) + "\n"}))


def test_pulse_check_rejects_a_missing_row(training):
    op, files = training
    name = "none_pulse.csv"
    lines = files[name].splitlines()
    del lines[400]  # the last bin; the config block still says bins=400
    with pytest.raises(oracle.CheckFailed, match="rows"):
        op.check(dict(files, **{name: "\n".join(lines) + "\n"}))


def test_training_check_rejects_a_decreasing_trace(training):
    op, files = training
    name = "none_trace.csv"
    lines = files[name].splitlines()
    before = float(lines[5].split(",")[1])
    lines[6] = f"5,{before - 1e-6!r}"
    with pytest.raises(oracle.CheckFailed, match="decreased"):
        op.check(dict(files, **{name: "\n".join(lines) + "\n"}))


def test_training_check_rejects_a_wrong_printed_score(training):
    op, files = training
    stdout = re.sub(r"(final fidelity \(no error model\): )\S+", r"\g<1>0.990000",
                    files["stdout"])
    assert stdout != files["stdout"]
    with pytest.raises(oracle.CheckFailed, match="printed score"):
        op.check(dict(files, stdout=stdout))


def test_tracing_completes_without_a_wrapped_name(monkeypatch, tmp_path, training):
    monkeypatch.delattr(linalg, "compose")
    from pulseforge import grape, sequences

    tracer = Tracer()
    tracer.install()
    try:
        ops = [run.sweep_op(("ore",), 21, tmp_path / "sweep")]
        traced = [run.run_op(op, cli.main, tracer, 0) for op in ops]
        probes = [run.run_op(training[0], cli.main, tracer, "probe-0")]
    finally:
        tracer.uninstall()
    assert tracer.missing == ["linalg.compose"]
    assert all(r.error is None for r in traced + probes)
    correct, facts = run.check_results(traced + probes)
    assert correct
    direct = run.direct_timings(grape, sequences, run.gradient_cases(grape, "scan", traced))
    metrics = run.layer_metrics(tracer, traced, {"probe-0"}, facts, traced, direct)
    for name in ("cli.compare_s", "grape.ascend_s", "sequences.propagator_bb1_us",
                 "linalg.expm_unitary_us", "grape.gradient_ms"):
        assert metrics[name]["value"] > 0.0
    assert sequences.propagator.__module__ == "pulseforge.sequences"  # wrappers removed
