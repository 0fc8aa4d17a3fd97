"""Error-fraction grids, fidelity scans, windows and CSV export."""

import io
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from pulseforge import (
    ControlSchedule,
    ErrorGrid,
    ErrorKind,
    ScanError,
    ScanResult,
    composite,
    export_csv,
    gate_fidelity,
    good_fidelity_window,
    import_pulse_csv,
    ple_series_fidelity,
    propagator,
    quadratic_loss_coefficient,
    scan,
    sequential_gate,
    write_plot_script,
)
from pulseforge.scanning import _grid_gates, _node_count
from pulseforge.sequences import error_pairs

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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # as errors, they would fail first
def test_scan_wraps_a_scheme_that_cannot_be_scored():
    # Stretches up to 2 take the bin to t = 2e308, which overflows: the gates
    # are not finite, and `gate_fidelity`'s check fails inside the scan.
    pulse = ControlSchedule([[0.25, 0.0, 0.25, 0.0]], 1e308)
    with pytest.raises(ScanError, match=r"'grape' failed on the ple grid \[-1, 1\]"):
        scan([("grape", pulse)], ErrorGrid.uniform(ErrorKind.PLE, -1.0, 1.0, 41))


def test_scan_result_validation():
    g = ErrorGrid(ErrorKind.PLE, (0.0, 0.1))
    with pytest.raises(ValueError):
        ScanResult(g, {"x": (1.0,)})
    with pytest.raises(ValueError):
        ScanResult(g, {"x": (1.0, 1.2)})


@pytest.mark.parametrize("bad", [np.nan, -1e-300, 1.0 + 2.0**-52, np.inf, -np.inf])
def test_scan_result_rejects_nan_and_out_of_range_fidelities(bad):
    g = ErrorGrid(ErrorKind.PLE, (0.0, 0.1))
    with pytest.raises(ValueError, match="outside"):
        ScanResult(g, {"ok": (0.0, 1.0), "x": (0.5, bad)})
    assert ScanResult(g, {"x": (-0.0, 1.0)}).series["x"] == (-0.0, 1.0)


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


PULSES = pathlib.Path(__file__).parents[1] / "bench" / "pulses"
PULSE_SCHEMES = {
    **{name: composite(name) for name in ("sequential", "bb1", "corpse")},
    **{f"{k}_pulse": import_pulse_csv(PULSES / f"{k}_pulse.csv")[0] for k in ("ple", "ore")},
}
ACCURACY_GRIDS = [(-1.0, 1.0, n) for n in (81, 399, 401, 403)] + [
    (-0.5, 0.5, 201), (-0.2, 0.3, 101), (0.0, 1.0, 64)
]


@pytest.mark.parametrize("kind", [ErrorKind.PLE, ErrorKind.ORE])
@pytest.mark.parametrize("name", list(PULSE_SCHEMES))
def test_interpolated_scans_match_direct_gates(name, kind):
    # Every grid here has more points than nodes, so `scan` interpolates; its
    # gates and fidelities stay within 1e-13 of direct `propagator` gates.
    pulse = PULSE_SCHEMES[name]
    for lo, hi, n in ACCURACY_GRIDS:
        grid = ErrorGrid.uniform(kind, lo, hi, n)
        assert _node_count(pulse, error_pairs(kind, grid.points)) < n
        direct = propagator(pulse, kind, grid.points)
        assert np.max(np.abs(_grid_gates(pulse, grid) - direct)) <= 1e-13
        got = scan([(name, pulse)], grid).series[name]
        assert np.max(np.abs(np.subtract(got, gate_fidelity(direct, sequential_gate())))) <= 1e-13


def test_node_counts_of_the_committed_pulses():
    # The bound's counts on [-1, 1]: tau = sum_j t_j r_j along the stretch
    # axis and (2/3) sum_j t_j along the detuning axis, both 6 pi long.
    counts = {
        (name, kind.value): _node_count(PULSE_SCHEMES[name], error_pairs(kind, (-1.0, 1.0)))
        for name in ("ple_pulse", "ore_pulse", "sequential", "bb1")
        for kind in (ErrorKind.PLE, ErrorKind.ORE)
    }
    assert counts == {
        ("ple_pulse", "ple"): 33, ("ple_pulse", "ore"): 41,
        ("ore_pulse", "ple"): 29, ("ore_pulse", "ore"): 41,
        ("sequential", "ple"): 20, ("sequential", "ore"): 22,
        ("bb1", "ple"): 45, ("bb1", "ore"): 53,
    }
    # A narrower span needs fewer nodes; pairs on both axes, none.
    pulse = PULSE_SCHEMES["ore_pulse"]
    assert _node_count(pulse, error_pairs(ErrorKind.ORE, (-0.2, 0.2))) < 41
    assert _node_count(pulse, np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])) == 3


@pytest.mark.parametrize("kind", [ErrorKind.PLE, ErrorKind.ORE])
@pytest.mark.parametrize("name", ["sequential", "corpse", "ore_pulse"])
def test_grids_without_more_points_than_nodes_are_direct(name, kind):
    # One point, two, and up to the node count on [-1, 1]: bit for bit the
    # `propagator` gates, and `scan` scores them as `gate_fidelity` does.
    pulse = PULSE_SCHEMES[name]
    nodes = _node_count(pulse, error_pairs(kind, (-1.0, 1.0)))
    grids = [ErrorGrid(kind, (0.3,)), ErrorGrid(kind, (-1.0,))] + [
        ErrorGrid.uniform(kind, -1.0, 1.0, n) for n in (2, nodes - 1, nodes)
    ]
    for grid in grids:
        direct = propagator(pulse, kind, grid.points)
        assert np.array_equal(_grid_gates(pulse, grid), direct)
        fidelity = gate_fidelity(direct, sequential_gate())
        assert scan([(name, pulse)], grid).series[name] == tuple(np.atleast_1d(fidelity))


@pytest.mark.parametrize("kind", [ErrorKind.PLE, ErrorKind.ORE])
def test_grid_points_on_nodes_take_their_gates(kind):
    # A grid holding every Chebyshev node on [-1, 1] and the midpoints between
    # them: each node's row of the barycentric matrix is its unit row, written
    # without a division by zero, so the node points get the node gates.
    pulse = PULSE_SCHEMES["bb1"]
    n = _node_count(pulse, error_pairs(kind, (-1.0, 1.0)))
    nodes = np.polynomial.chebyshev.chebpts2(n)
    nodes[0], nodes[-1] = -1.0, 1.0
    points = np.sort(np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1])]))
    got = _grid_gates(pulse, ErrorGrid(kind, tuple(points.tolist())))
    assert np.array_equal(got[::2], propagator(pulse, kind, nodes))
    assert np.max(np.abs(got[1::2] - propagator(pulse, kind, points[1::2]))) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 60),
    st.sampled_from([ErrorKind.PLE, ErrorKind.ORE]),
    st.floats(-1.0, 0.999),
    st.floats(1e-3, 2.0),
    st.integers(2, 401),
    st.integers(0, 2**32 - 1),
)
@example(60, ErrorKind.ORE, -1.0, 2.0, 401, 0)
def test_interpolation_matches_random_schedules(bins, kind, lo, width, points, seed):
    # Per-bin durations up to 0.5 and drives inside the bound |(u1, u2)|,
    # |(u3, u4)| < 1/2, on any one-axis range at least 1e-3 wide: the gates,
    # interpolated or direct, are within 1e-13 of `propagator`'s.
    hi = min(lo + width, 1.0)
    rng = np.random.default_rng(seed)
    amplitude = 0.5 * np.sqrt(rng.uniform(0.0, 1.0, (bins, 2)))
    phase = rng.uniform(-np.pi, np.pi, (bins, 2))
    u = np.stack([amplitude * np.cos(phase), amplitude * np.sin(phase)], axis=-1)
    pulse = ControlSchedule(u.reshape(bins, 4), rng.uniform(0.01, 0.5, bins))
    grid = ErrorGrid.uniform(kind, lo, hi, points)
    direct = propagator(pulse, kind, grid.points)
    assert np.max(np.abs(_grid_gates(pulse, grid) - direct)) <= 1e-13


@pytest.mark.parametrize("kind", [ErrorKind.PLE, ErrorKind.ORE])
def test_scan_memory_stays_bounded_on_a_dense_grid(kind):
    # A warm 401-point scan of a 400-bin pulse: the gates at 33 (PLE) or 41
    # (ORE) nodes, a (401, n) barycentric matrix and the interpolated stack
    # peak at 0.36 and 0.44 MB, inside the 0.65 MB bound of one direct
    # dense `gates` call.
    pulse = PULSE_SCHEMES[f"{kind.value}_pulse"]
    grid = ErrorGrid.uniform(kind, -1.0, 1.0, 401)
    assert traced_peak(lambda: scan([("grape", pulse)], grid)) <= 0.65e6
