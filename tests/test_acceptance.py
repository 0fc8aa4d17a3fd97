"""End-to-end acceptance sweep: every advertised number at its tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one verdict line per
criterion.  Two claims are stated with the ranges the methods promise:

* criterion 5: the amplitude-robust composite stays above fidelity 0.9
  on the open interval (-0.7, 0.7); its curve crosses 0.9 near
  |eps| = 0.687, so the endpoints themselves sit just below,
* criterion 7: the stretch-robust pulse is trained on [-0.5, 0.5], the
  range on which its mean is compared with the composite's, since the
  averaged objective promises nothing outside its training set.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import USQ, probe_gradient_fd, segment_schedule
from pulseforge import (
    ControlSchedule,
    ErrorGrid,
    ErrorKind,
    GrapeConfig,
    ascend_with_restarts,
    composite,
    gate_fidelity,
    good_fidelity_window,
    ple_series_fidelity,
    propagator,
    quadratic_loss_coefficient,
    scan,
    sequential_gate,
)
from pulseforge.cli import main as cli_main

PI = np.pi


def report(capsys, num: int, ok: bool, detail: str) -> None:
    # Bypass capture so the verdict lines show under plain `pytest -v`,
    # not only with -s.
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def _mean_fidelity(pulse, grid):
    gates = propagator(pulse, grid.kind, grid.points)
    return float(np.mean(gate_fidelity(gates, sequential_gate())))


@pytest.fixture(scope="module")
def ple_training():
    cfg = GrapeConfig(
        error_kind=ErrorKind.PLE,
        training=ErrorGrid.uniform(ErrorKind.PLE, -0.5, 0.5, 5).points,
        seed=1,
    )
    t0 = time.perf_counter()
    pulse, score = ascend_with_restarts(cfg, restarts=5)
    return pulse, score, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ore_training():
    cfg = GrapeConfig(
        error_kind=ErrorKind.ORE,
        training=ErrorGrid.uniform(ErrorKind.ORE, -0.2, 0.2, 5).points,
        seed=1,
    )
    t0 = time.perf_counter()
    pulse, score = ascend_with_restarts(cfg, restarts=5)
    return pulse, score, time.perf_counter() - t0


def test_criterion_01_sequential_gate_exact(capsys):
    u = sequential_gate()
    err_m = float(np.max(np.abs(u - USQ)))
    image = u @ np.array([1, 0, 0], dtype=complex)
    bell = np.array([1, 0, -1], dtype=complex) / np.sqrt(2)
    err_v = float(np.max(np.abs(image - bell)))
    ok = err_m <= 1e-12 and err_v <= 1e-12
    report(
        capsys,
        1,
        ok,
        f"gate matrix err {err_m:.2e}, |0> image err {err_v:.2e} (tol 1e-12)",
    )
    assert ok


def test_criterion_02_stretch_series(capsys):
    target = sequential_gate()
    seq = composite("sequential")
    eps = np.linspace(-0.3, 0.3, 61)
    f_num = gate_fidelity(propagator(seq, ErrorKind.PLE, eps), target)
    worst = max(abs(f - ple_series_fidelity(float(e))) for e, f in zip(eps, f_num))
    grid = ErrorGrid.uniform(ErrorKind.PLE, -0.05, 0.05, 11)
    res = scan([("sequential", seq)], grid)
    coeff = quadratic_loss_coefficient(res, "sequential")
    expected = 5 * PI**2 / 96
    rel = abs(coeff - expected) / expected
    ok = worst <= 2e-3 and rel <= 0.01
    report(
        capsys,
        2,
        ok,
        f"series deviation {worst:.2e} on |eps|<=0.3 (tol 2e-3); quadratic "
        f"coefficient {coeff:.5f} vs {expected:.5f}, rel err {rel:.2e} (tol 1e-2)",
    )
    assert ok


def test_criterion_03_composites_collapse_at_zero_error(capsys):
    target = sequential_gate()
    ideal = ErrorKind.NONE
    err_bb1 = float(np.max(np.abs(propagator(composite("bb1"), ideal)[0] - target)))
    err_cor = float(np.max(np.abs(propagator(composite("corpse"), ideal)[0] - target)))
    ok = err_bb1 <= 1e-10 and err_cor <= 1e-10
    report(
        capsys,
        3,
        ok,
        f"zero-error deviation from the bare gate: bb1 {err_bb1:.2e}, "
        f"corpse {err_cor:.2e} (tol 1e-10)",
    )
    assert ok


def test_criterion_04_durations(capsys):
    t_seq = composite("sequential").duration
    t_bb1 = composite("bb1").duration
    t_cor = composite("corpse").duration
    ratio = t_cor / t_seq
    ok_ratio = abs(ratio - 5.59) <= 0.01
    ok_bb1 = abs(t_bb1 - 9.5 * PI) <= 1e-12
    ok = ok_ratio and ok_bb1
    report(
        capsys,
        4,
        ok,
        f"corpse/sequential duration ratio {ratio:.4f} (want 5.59 +/- 0.01); "
        f"bb1 duration {t_bb1 / PI:.6g} pi (want 9.5 pi). note: 9.5 pi is "
        f"19/3 x the bare 1.5 pi, not the round 9 pi (6x) sometimes quoted "
        f"for this construction; the correction segments add 8 pi in total",
    )
    assert ok


def test_criterion_05_robustness_windows(capsys):
    grid = ErrorGrid.uniform(ErrorKind.PLE, -1.0, 1.0, 81)
    sequential = ("sequential", composite("sequential"))
    res = scan([sequential, ("bb1", composite("bb1"))], grid)
    pts = np.asarray(grid.points)
    seq = np.asarray(res.series["sequential"])
    bb1 = np.asarray(res.series["bb1"])
    clause_seq = bool(np.all(seq[np.abs(pts) <= 0.4 + 1e-12] >= 0.9))
    clause_bb1 = bool(np.all(bb1[np.abs(pts) < 0.7 - 1e-12] >= 0.9))
    w_seq = good_fidelity_window(res, "sequential")
    w_bb1 = good_fidelity_window(res, "bb1")

    ore_grid = ErrorGrid.uniform(ErrorKind.ORE, -1.0, 1.0, 81)
    ore = scan([sequential, ("corpse", composite("corpse"))], ore_grid)
    opts = np.asarray(ore_grid.points)
    sel = (opts > 0) & (opts <= 0.5)
    clause_cor = bool(
        np.any(
            np.asarray(ore.series["corpse"])[sel]
            < np.asarray(ore.series["sequential"])[sel]
        )
    )

    ok = clause_seq and clause_bb1 and clause_cor
    i07 = int(np.argmin(np.abs(pts - 0.7)))
    report(
        capsys,
        5,
        ok,
        f"sequential F>=0.9 on [-0.4, 0.4]: {clause_seq} (window {w_seq}); "
        f"bb1 F>=0.9 on (-0.7, 0.7): {clause_bb1} (window {w_bb1}, "
        f"F({pts[i07]:g}) = {bb1[i07]:.4f}); corpse below sequential somewhere "
        f"in (0, 0.5] under detuning: {clause_cor}",
    )
    assert ok


def test_criterion_06_gradient_matches_finite_differences(capsys):
    rng = np.random.default_rng(7)
    bins, total_time = 400, 6 * PI
    u = rng.uniform(-0.4, 0.4, size=(bins, 4))
    s = ControlSchedule(u, total_time / bins)
    tol = max(1e-3, 2 * s.dt * float(np.max(np.abs(s.u))))
    fractions = (-0.2, -0.1, 0.0, 0.1, 0.2)
    rows = []
    ok = True
    for kind in (ErrorKind.NONE, ErrorKind.PLE, ErrorKind.ORE):
        fr = () if kind is ErrorKind.NONE else fractions
        pairs = probe_gradient_fd(s, USQ, kind, fr, 0.01, 25, np.random.default_rng(7))
        err = float(np.max(np.abs(pairs[:, 0] - pairs[:, 1])))
        rms = float(np.sqrt(np.mean(pairs[:, 1] ** 2)))
        rel = err / rms
        ok = ok and rel <= tol
        rows.append(f"{kind.value} {rel:.2e}")
    report(
        capsys,
        6,
        ok,
        f"max relative gradient error over 25 probes per model "
        f"({', '.join(rows)}) vs tol {tol:.2e}",
    )
    assert ok


def test_criterion_07_robust_training(capsys, ple_training, ore_training):
    ple_pulse, ple_score, ple_secs = ple_training
    ore_pulse, ore_score, ore_secs = ore_training

    wide_ple = ErrorGrid.uniform(ErrorKind.PLE, -0.5, 0.5, 41)
    wide_ore = ErrorGrid.uniform(ErrorKind.ORE, -0.5, 0.5, 41)
    grape_ple_mean = _mean_fidelity(ple_pulse.schedule, wide_ple)
    grape_ore_mean = _mean_fidelity(ore_pulse.schedule, wide_ore)
    bb1_mean = _mean_fidelity(composite("bb1"), wide_ple)
    seq_mean = _mean_fidelity(composite("sequential"), wide_ore)
    cor_mean = _mean_fidelity(composite("corpse"), wide_ore)

    clause_a_min = ple_score >= 0.99
    clause_a_mean = grape_ple_mean > bb1_mean
    clause_b_min = ore_score >= 0.99
    clause_b_mean = grape_ore_mean > seq_mean and grape_ore_mean > cor_mean
    dur_ok = (
        ple_pulse.schedule.duration <= composite("bb1").duration + 1e-12
        and ore_pulse.schedule.duration <= composite("corpse").duration + 1e-12
    )
    time_ok = ple_secs <= 600 and ore_secs <= 600

    ok = (
        clause_a_min
        and clause_a_mean
        and clause_b_min
        and clause_b_mean
        and dur_ok
        and time_ok
    )
    report(
        capsys,
        7,
        ok,
        f"(a) stretch-trained min fidelity on [-0.5, 0.5] {ple_score:.6f} "
        f">= 0.99: {clause_a_min}; wide mean {grape_ple_mean:.6f} > bb1 "
        f"{bb1_mean:.6f}: {clause_a_mean}. (b) detuning-trained min "
        f"fidelity on [-0.2, 0.2] {ore_score:.6f} >= 0.99: {clause_b_min}; "
        f"wide mean {grape_ore_mean:.6f} > sequential {seq_mean:.6f} and corpse "
        f"{cor_mean:.6f}: {clause_b_mean}. durations within composite "
        f"budget: {dur_ok}; training times {ple_secs:.0f}s/{ore_secs:.0f}s "
        f"(budget 600s each): {time_ok}",
    )
    assert ok


def test_criterion_08_cli_bit_determinism(capsys, tmp_path):
    runner = CliRunner()
    grape_args = [
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
    dirs = [tmp_path / "g1", tmp_path / "g2"]
    for d in dirs:
        result = runner.invoke(cli_main, grape_args + ["--out", str(d)])
        assert result.exit_code == 0, result.output
    pulse_same = (dirs[0] / "none_pulse.csv").read_bytes() == (
        dirs[1] / "none_pulse.csv"
    ).read_bytes()

    scan_args = ["scan", "--error", "ore", "--grid-points", "41"]
    for d in dirs:
        result = runner.invoke(cli_main, scan_args + ["--out", str(d)])
        assert result.exit_code == 0, result.output
    scan_same = (dirs[0] / "ore_scan.csv").read_bytes() == (
        dirs[1] / "ore_scan.csv"
    ).read_bytes()

    ok = pulse_same and scan_same
    report(
        capsys,
        8,
        ok,
        f"repeated pulse optimization byte-identical: {pulse_same}; "
        f"repeated scan byte-identical: {scan_same}",
    )
    assert ok


def test_criterion_09_propagator_property_sweep(capsys):
    rng = np.random.default_rng(2026)
    target = sequential_gate()
    kinds = (ErrorKind.NONE, ErrorKind.PLE, ErrorKind.ORE)
    worst_unitarity = 0.0
    fid_ok = True
    t0 = time.perf_counter()
    for i in range(1000):
        kind = kinds[int(rng.integers(3))]
        frac = 0.0 if kind is ErrorKind.NONE else float(rng.uniform(-1, 1))
        err = (kind, (frac,))
        if i % 2 == 0:
            n = int(rng.integers(1, 7))
            segments = [
                (
                    "MW" if rng.integers(2) else "RF",
                    float(rng.uniform(0, 3 * PI)),
                    float(rng.uniform(-2 * PI, 2 * PI)),
                )
                for _ in range(n)
            ]
            u = propagator(segment_schedule(segments), *err)[0]
        else:
            bins = int(rng.integers(1, 21))
            controls = rng.uniform(-1, 1, size=(bins, 4))
            u = propagator(
                ControlSchedule(controls, float(rng.uniform(0.01, 1.5))), *err
            )[0]
        worst_unitarity = max(
            worst_unitarity, float(np.max(np.abs(u @ u.conj().T - np.eye(3))))
        )
        f = gate_fidelity(u, target)
        fid_ok = fid_ok and 0.0 <= f <= 1.0
    elapsed = time.perf_counter() - t0
    ok = worst_unitarity <= 1e-10 and fid_ok and elapsed < 5.0
    report(
        capsys,
        9,
        ok,
        f"1000 random propagators: worst unitarity defect "
        f"{worst_unitarity:.2e} (tol 1e-10), fidelities within [0, 1]: "
        f"{fid_ok}, elapsed {elapsed:.2f}s (budget 5s)",
    )
    assert ok
