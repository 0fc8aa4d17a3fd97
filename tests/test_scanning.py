"""Error-fraction grids, fidelity scans, windows and CSV export."""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pulseforge import (
    ErrorGrid,
    ErrorKind,
    ScanError,
    ScanResult,
    composite,
    export_csv,
    gate_fidelity,
    good_fidelity_window,
    ple_series_fidelity,
    propagator,
    quadratic_loss_coefficient,
    scan,
    sequential_gate,
    write_plot_script,
)

PI = np.pi


SEQ = ("sequential", composite("sequential"))
BB1 = ("bb1", composite("bb1"))
CORPSE = ("corpse", composite("corpse"))


def grid81(kind):
    return ErrorGrid.uniform(kind, -1.0, 1.0, 81)


def test_grid_validation():
    with pytest.raises(ValueError):
        ErrorGrid(ErrorKind.NONE, (0.0,))
    with pytest.raises(ValueError):
        ErrorGrid(ErrorKind.PLE, ())
    with pytest.raises(ValueError):
        ErrorGrid(ErrorKind.PLE, (0.0, 1.5))
    with pytest.raises(ValueError):
        ErrorGrid(ErrorKind.PLE, (0.2, 0.1))
    with pytest.raises(ValueError):
        ErrorGrid(ErrorKind.ORE, (0.1, 0.1))


def test_uniform_grid_mirrors_symmetric_ranges():
    g = ErrorGrid.uniform(ErrorKind.PLE, -1.0, 1.0, 81)
    pts = np.asarray(g.points)
    assert pts.size == 81
    assert pts[40] == 0.0
    # Bitwise mirror symmetry so +/- pairs probe identical magnitudes.
    assert np.array_equal(pts[:40], -pts[:40:-1])
    assert pts[0] == -1.0 and pts[-1] == 1.0
    # Each point is the double nearest k/40, with no linspace dust.
    assert g.points == tuple((k - 40) / 40 for k in range(81))
    assert ErrorGrid.uniform(ErrorKind.ORE, -0.2, 0.2, 5).points == (
        -0.2, -0.1, 0.0, 0.1, 0.2,
    )


def test_uniform_grid_even_count_and_asymmetric_range():
    g = ErrorGrid.uniform(ErrorKind.ORE, -0.5, 0.5, 10)
    pts = np.asarray(g.points)
    assert pts.size == 10
    assert np.array_equal(pts[:5], -pts[:4:-1])
    h = ErrorGrid.uniform(ErrorKind.ORE, 0.1, 0.4, 4)
    assert np.allclose(h.points, [0.1, 0.2, 0.3, 0.4], atol=1e-15)


def test_uniform_grid_single_point():
    g = ErrorGrid.uniform(ErrorKind.PLE, 0.0, 1.0, 1)
    assert g.points == (0.0,)


def test_scan_at_zero_error_is_perfect():
    g = ErrorGrid(ErrorKind.PLE, (0.0,))
    res = scan([SEQ, BB1, CORPSE], g)
    for label in ("sequential", "bb1", "corpse"):
        assert res.series[label][0] == pytest.approx(1.0, abs=1e-12)


def test_scan_preserves_scheme_order():
    res = scan([BB1, SEQ], ErrorGrid(ErrorKind.PLE, (0.1,)))
    assert list(res.series) == ["bb1", "sequential"]


def test_scan_requires_schemes():
    with pytest.raises(ValueError):
        scan([], ErrorGrid(ErrorKind.PLE, (0.0,)))


def test_scan_wraps_factory_failure():
    class Broken:
        dt = 1.0

        @property
        def u(self):
            raise RuntimeError("boom")

    with pytest.raises(ScanError, match="bad.*0.25|0.25.*bad"):
        scan([("bad", Broken())], ErrorGrid(ErrorKind.PLE, (0.25,)))


def test_scan_result_validation():
    g = ErrorGrid(ErrorKind.PLE, (0.0, 0.1))
    with pytest.raises(ValueError):
        ScanResult(g, {"x": (1.0,)})
    with pytest.raises(ValueError):
        ScanResult(g, {"x": (1.0, 1.2)})


def test_stretch_windows_frozen():
    res = scan([SEQ, BB1], grid81(ErrorKind.PLE))
    assert good_fidelity_window(res, "sequential") == 0.425
    assert good_fidelity_window(res, "bb1") == 0.675


def test_detuning_windows_frozen():
    res = scan([SEQ, CORPSE], grid81(ErrorKind.ORE))
    assert good_fidelity_window(res, "sequential") == pytest.approx(0.45)
    assert good_fidelity_window(res, "corpse") == pytest.approx(0.2)


def test_corpse_loses_to_sequential_somewhere_below_half():
    res = scan([SEQ, CORPSE], grid81(ErrorKind.ORE))
    pts = np.asarray(res.grid.points)
    seq = np.asarray(res.series["sequential"])
    cor = np.asarray(res.series["corpse"])
    sel = (pts > 0) & (pts <= 0.5)
    assert np.any(cor[sel] < seq[sel])


def test_bb1_dominates_sequential_under_stretch():
    res = scan([SEQ, BB1], grid81(ErrorKind.PLE))
    pts = np.asarray(res.grid.points)
    seq = np.asarray(res.series["sequential"])
    bb1 = np.asarray(res.series["bb1"])
    sel = np.abs(pts) >= 0.05
    # At eps = +/-1 the curves coincide exactly (zero or full-turn
    # correction rotations), so allow machine noise in the comparison.
    assert np.all(bb1[sel] >= seq[sel] - 1e-12)


def test_window_none_when_origin_fails():
    g = ErrorGrid(ErrorKind.PLE, (-0.2, 0.0, 0.2))
    res = ScanResult(g, {"x": (0.5, 0.5, 0.5)})
    assert good_fidelity_window(res, "x") is None


def test_window_custom_threshold():
    g = ErrorGrid(ErrorKind.PLE, (-0.2, 0.0, 0.2))
    res = ScanResult(g, {"x": (0.85, 0.99, 0.85)})
    # Only the innermost shell clears 0.9, so the window collapses to 0.
    assert good_fidelity_window(res, "x") == 0.0
    assert good_fidelity_window(res, "x", threshold=0.8) == pytest.approx(0.2)


def window_by_shells(result, label, threshold):
    """The shell-by-shell loop `good_fidelity_window` replaced: one mask per |eps|."""
    pts = np.asarray(result.grid.points)
    fid = np.asarray(result.series[label])
    radii = np.abs(pts)
    best = None
    for r in np.unique(radii):
        if np.any(fid[radii == r] < threshold):
            break
        best = float(r)
    return best


@st.composite
def window_scans(draw):
    # Strictly increasing points in [-1, 1], mirrored (each radius twice) or
    # not, with fidelities drawn from a floor that often leaves all points good
    # or exactly at a threshold.
    right = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12, unique=True))
    left = [-x for x in right] if draw(st.booleans()) else draw(st.lists(st.floats(-1.0, 0.0), max_size=12))
    pts = sorted(set(right) | set(left))
    floor = draw(st.sampled_from([0.0, 0.85, 0.95]))
    values = st.one_of(st.floats(floor, 1.0), st.sampled_from([0.5, 0.9, 1.0]))  # or at a threshold
    fid = draw(st.lists(values, min_size=len(pts), max_size=len(pts)))
    return ScanResult(ErrorGrid(ErrorKind.PLE, tuple(pts)), {"x": tuple(fid)})


@settings(max_examples=300, deadline=None)
@given(window_scans(), st.sampled_from([0.5, 0.9, 1.0]))
@example(ScanResult(ErrorGrid(ErrorKind.PLE, (-0.5, 0.0, 0.5)), {"x": (1.0, 0.2, 1.0)}), 0.9)
@example(ScanResult(ErrorGrid(ErrorKind.ORE, (-0.3, 0.1, 0.2, 0.3)), {"x": (1.0,) * 4}), 0.9)
@example(ScanResult(ErrorGrid(ErrorKind.PLE, (-0.2, -0.1, 0.1, 0.2)), {"x": (0.95, 1.0, 0.5, 1.0)}), 0.9)
def test_window_equals_the_shell_by_shell_loop(result, threshold):
    # Symmetric and asymmetric grids, repeated radii, all points good, and a
    # bad innermost shell: the one-pass window is the loop's, None included.
    assert good_fidelity_window(result, "x", threshold) == window_by_shells(result, "x", threshold)


def test_series_fidelity_values():
    assert ple_series_fidelity(0.0) == 1.0
    assert ple_series_fidelity(0.2) == pytest.approx(0.9794721467654506, abs=1e-12)
    with pytest.raises(ValueError):
        ple_series_fidelity(1.2)


def test_series_matches_numerics_in_validity_range():
    target = sequential_gate()
    worst = 0.0
    for eps in np.linspace(-0.3, 0.3, 61):
        u = propagator(composite("sequential"), ErrorKind.PLE, (eps,))[0]
        worst = max(worst, abs(gate_fidelity(u, target) - ple_series_fidelity(eps)))
    assert worst <= 2e-3
    # The truncation error is far below the advertised envelope.
    assert worst <= 5e-5


def test_quadratic_loss_coefficient_sequential():
    grid = ErrorGrid.uniform(ErrorKind.PLE, -0.05, 0.05, 11)
    res = scan([SEQ], grid)
    c = quadratic_loss_coefficient(res)
    expected = 5 * PI**2 / 96
    assert c == pytest.approx(expected, rel=0.01)
    assert c == pytest.approx(0.5139891232450028, abs=1e-9)


def test_quadratic_loss_coefficient_bb1_is_tiny():
    grid = ErrorGrid.uniform(ErrorKind.PLE, -0.05, 0.05, 11)
    res = scan([BB1], grid)
    assert abs(quadratic_loss_coefficient(res, "bb1")) <= 0.005


def test_quadratic_loss_coefficient_flat_series_is_zero():
    grid = ErrorGrid.uniform(ErrorKind.PLE, -0.05, 0.05, 11)
    res = ScanResult(grid, {"flat": tuple([0.97] * 11)})
    assert quadratic_loss_coefficient(res, "flat") == pytest.approx(0.0, abs=1e-12)


def test_quadratic_loss_coefficient_needs_coverage():
    res = scan([SEQ], ErrorGrid.uniform(ErrorKind.PLE, -0.02, 0.02, 11))
    with pytest.raises(ValueError):
        quadratic_loss_coefficient(res)
    res = scan([SEQ], ErrorGrid(ErrorKind.PLE, (-0.05, 0.0, 0.05)))
    with pytest.raises(ValueError):
        quadratic_loss_coefficient(res)
    res = scan([SEQ, BB1], ErrorGrid.uniform(ErrorKind.PLE, -0.05, 0.05, 11))
    with pytest.raises(ValueError):
        quadratic_loss_coefficient(res)  # ambiguous label


def test_scan_is_even_in_stretch():
    res = scan([SEQ, BB1, CORPSE], grid81(ErrorKind.PLE))
    for label, vals in res.series.items():
        v = np.asarray(vals)
        assert np.max(np.abs(v - v[::-1])) <= 1e-9, label


def test_csv_round_trip(tmp_path):
    res = scan([SEQ, BB1], ErrorGrid.uniform(ErrorKind.PLE, -0.4, 0.4, 9))
    path = tmp_path / "scan.csv"
    text = export_csv(res, path)
    assert path.read_text() == text
    lines = text.strip().splitlines()
    assert lines[0] == "epsilon,sequential,bb1"
    assert len(lines) == 10
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 0] - np.asarray(res.grid.points))) <= 1e-9
    assert np.max(np.abs(data[:, 1] - np.asarray(res.series["sequential"]))) <= 1e-9
    assert np.max(np.abs(data[:, 2] - np.asarray(res.series["bb1"]))) <= 1e-9


def test_csv_deterministic():
    res1 = scan([SEQ, CORPSE], grid81(ErrorKind.ORE))
    res2 = scan([SEQ, CORPSE], grid81(ErrorKind.ORE))
    assert export_csv(res1, io.StringIO()) == export_csv(res2, io.StringIO())


def test_export_csv_stream():
    res = scan([SEQ], ErrorGrid(ErrorKind.PLE, (0.0, 0.1)))
    buf = io.StringIO()
    text = export_csv(res, buf)
    assert buf.getvalue() == text


def csv_by_fstrings(result):
    """The writer `export_csv` replaced: one f-string per value."""
    labels = list(result.series)
    lines = ["epsilon," + ",".join(labels)]
    for i, eps in enumerate(result.grid.points):
        row = [f"{eps:.9g}"] + [f"{result.series[lab][i]:.9g}" for lab in labels]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 401), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_export_csv_is_the_per_value_fstring_text(n, columns, uniform, seed):
    # Fidelities over 300 decades, with -0.0, 0.0, a subnormal, 1e-300 and 1.0
    # mixed in, on epsilon grids from `ErrorGrid.uniform` or random points:
    # the text is the per-value f-string text, byte for byte.
    rng = np.random.default_rng(seed)
    if uniform:
        grid = ErrorGrid.uniform(ErrorKind.ORE, -1.0, 1.0, n)
    else:
        grid = ErrorGrid(ErrorKind.PLE, tuple(np.unique(rng.uniform(-1.0, 1.0, n)).tolist()))
    series = {}
    for label in ("sequential", "bb1", "corpse", "pulse")[:columns]:
        values = rng.uniform(0.0, 1.0, len(grid.points)) * 10.0 ** -rng.uniform(0.0, 300.0, len(grid.points))
        special = rng.random(len(values)) < 0.3
        values[special] = rng.choice([-0.0, 0.0, 5e-324, 1e-300, 1.0], special.sum())
        series[label] = tuple(values.tolist())
    result = ScanResult(grid, series)
    assert export_csv(result, io.StringIO()) == csv_by_fstrings(result)


def test_export_csv_bad_path_mentions_destination():
    res = scan([SEQ], ErrorGrid(ErrorKind.PLE, (0.0,)))
    with pytest.raises(OSError, match="missing-dir"):
        export_csv(res, "/missing-dir/scan.csv")


def test_plot_script_references_csv(tmp_path):
    res = scan([SEQ, BB1], ErrorGrid(ErrorKind.PLE, (0.0, 0.1)))
    gp = tmp_path / "scan.gp"
    write_plot_script(res, "my_scan.csv", gp)
    body = gp.read_text()
    assert "my_scan.csv" in body
    assert "col=2:3" in body
