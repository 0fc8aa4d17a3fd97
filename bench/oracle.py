"""Independent reference for the benchmark's output checks.

Nothing here imports pulseforge.  The operators are written out by hand
on the (|0>, |2>, |3>) basis, every propagator is `scipy.linalg.expm`,
and the composites are rebuilt from their published constructions:

* BB1 (Wimperis 1994): theta_0 becomes theta/2_0  pi_p  2pi_3p  pi_p
  theta/2_0 with p = arccos(-theta / 4pi), the correction placed at the
  midpoint of the target rotation.
* CORPSE (Cummins and Jones 2000): (theta/2 - k)_0  (2pi - 2k)_pi
  (2pi + theta/2 - k)_0 with k = arcsin(sin(theta/2) / 2).

Phases are relative to the target rotation's axis; both drives of the
sequential gate act about y (phase pi/2).  GRAPE pulses are rebuilt from
the (u_m, theta_m, u_r, theta_r) rows of a checkpoint.

Each check raises CheckFailed with a message naming what was wrong.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

PI = math.pi
SQRT2 = math.sqrt(2.0)

# Target gate U_sq = (1/sqrt2) [[1, 1, 0], [0, 0, -sqrt2], [-1, 1, 0]].
TARGET = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, -SQRT2], [-1.0, 1.0, 0.0]],
                  dtype=complex) / SQRT2


def _op(row: int, col: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[row, col] = 1.0
    return m


# sigma_x^pq = |p><q| + |q><p|, sigma_y^pq = i(|p><q| - |q><p|); rows (|0>, |2>, |3>).
X20 = _op(1, 0) + _op(0, 1)
Y20 = 1j * (_op(1, 0) - _op(0, 1))
X23 = _op(1, 2) + _op(2, 1)
Y23 = 1j * (_op(1, 2) - _op(2, 1))
Z = np.diag([-1.0, 2.0, -1.0]).astype(complex)
MW, RF = (X20, Y20), (X23, Y23)

PULSE_HEADER = "bin,t_start,u_m,theta_m_over_pi,u_r,theta_r_over_pi"
AMPLITUDE_BOUND = 1.0  # u_m, u_r <= Lambda: each channel pair inside radius 1/2
AMPLITUDE_ATOL = 1e-9  # 12 significant digits in the checkpoint
SWEEP_ATOL = 1e-8  # 9 significant digits in a sweep CSV
SCORE_ATOL = 1e-6  # the CLI prints the trained-range score with 6 decimals
SERIES_RANGE, SERIES_ATOL = 0.1, 1e-7  # sixth-order remainder of the PLE series
CHUNK = 32  # error fractions per batched expm call: 32 x 400 bins x 3 x 3


class CheckFailed(AssertionError):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def drive(channel, amplitude, phase):
    """-(u/2)(cos(theta) sigma_x + sin(theta) sigma_y) on one channel, broadcast."""
    x, y = channel
    a = np.asarray(amplitude, dtype=float)[..., None, None]
    p = np.asarray(phase, dtype=float)[..., None, None]
    return -0.5 * a * (np.cos(p) * x + np.sin(p) * y)


def _bb1(channel, theta, axis):
    p = axis + math.acos(-theta / (4.0 * PI))
    return [(channel, theta / 2.0, axis), (channel, PI, p),
            (channel, 2.0 * PI, axis + 3.0 * (p - axis)), (channel, PI, p),
            (channel, theta / 2.0, axis)]


def _corpse(channel, theta, axis):
    k = math.asin(math.sin(theta / 2.0) / 2.0)
    return [(channel, theta / 2.0 - k, axis), (channel, 2.0 * PI - 2.0 * k, axis + PI),
            (channel, 2.0 * PI + theta / 2.0 - k, axis)]


# Segments (channel, area, phase) in time order, unit amplitude.
COMPOSITES = {
    "sequential": [(MW, PI / 2.0, PI / 2.0), (RF, PI, PI / 2.0)],
    "bb1": _bb1(MW, PI / 2.0, PI / 2.0) + _bb1(RF, PI, PI / 2.0),
    "corpse": _corpse(MW, PI / 2.0, PI / 2.0) + _corpse(RF, PI, PI / 2.0),
}


def fidelity(gates: np.ndarray) -> np.ndarray:
    """|Tr(U^dag U_sq) / 3|^(1/2) over a stack of gates."""
    overlap = np.abs(np.einsum("nab,ab->n", gates.conj(), TARGET)) / 3.0
    return np.sqrt(overlap)


def _evolve(generators: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Product over bins of expm(-i t H); generators (n, N, 3, 3), times (n, N)."""
    props = expm(-1j * times[..., None, None] * generators)
    out = np.broadcast_to(np.eye(3, dtype=complex), (generators.shape[0], 3, 3)).copy()
    for j in range(generators.shape[1]):
        out = props[:, j] @ out
    return out


def _error_terms(kind: str, eps: np.ndarray):
    """(time stretch, detuning drift) per error fraction: PLE T' = (1 + eps) T."""
    eps = np.asarray(eps, dtype=float)
    if kind == "ple":
        return 1.0 + eps, np.zeros_like(eps)
    if kind == "ore":
        return np.ones_like(eps), eps
    if kind == "none":
        return np.ones_like(eps), np.zeros_like(eps)
    raise ValueError(f"unknown error kind {kind!r}")


def composite_fidelities(name: str, kind: str, eps) -> np.ndarray:
    """Fidelity of a composite at each error fraction, paper convention T' = (1 + eps) T."""
    stretch, delta = _error_terms(kind, eps)
    segs = COMPOSITES[name]
    gens = np.stack([drive(ch, 1.0, phase) + (delta[:, None, None] / 3.0) * Z
                     for ch, _, phase in segs], axis=1)
    times = stretch[:, None] * np.array([area for _, area, _ in segs])
    return fidelity(_evolve(gens, times))


def pulse_fidelities(rows: np.ndarray, dt: float, kind: str, eps) -> np.ndarray:
    """Fidelity of a checkpointed pulse at each error fraction.

    rows are (u_m, theta_m, u_r, theta_r) per bin, theta in radians.
    """
    eps = np.asarray(eps, dtype=float)
    bins = drive(MW, rows[:, 0], rows[:, 1]) + drive(RF, rows[:, 2], rows[:, 3])
    out = np.empty(eps.size)
    for lo in range(0, eps.size, CHUNK):
        stretch, delta = _error_terms(kind, eps[lo:lo + CHUNK])
        gens = bins[None] + (delta[:, None, None, None] / 3.0) * Z
        times = np.broadcast_to(stretch[:, None] * dt, gens.shape[:2])
        out[lo:lo + CHUNK] = fidelity(_evolve(gens, times))
    return out


# -- checkpoints and traces --------------------------------------------------


def read_pulse(text: str) -> tuple[np.ndarray, float, dict[str, str]]:
    """Validate a pulse checkpoint; return (rows with theta in rad, dt, config)."""
    lines = text.splitlines()
    _require(lines and lines[0] == PULSE_HEADER, "pulse checkpoint: bad header")
    meta = {}
    rows = []
    for ln in lines[1:]:
        if ln.startswith("# "):
            key, _, value = ln[2:].partition("=")
            meta[key] = value
        else:
            rows.append([float(x) for x in ln.split(",")])
    _require("bins" in meta and "total_time" in meta, "pulse checkpoint: no config block")
    bins = int(meta["bins"])
    dt = float(meta["total_time"]) / bins
    table = np.array(rows, dtype=float)
    _require(table.shape == (bins, 6),
             f"pulse checkpoint: {table.shape[0]} rows of {table.shape[1:]} under bins={bins}")
    _require(np.array_equal(table[:, 0], np.arange(bins)), "pulse checkpoint: bin column")
    _require(np.allclose(table[:, 1], np.arange(bins) * dt, rtol=0, atol=1e-9),
             "pulse checkpoint: t_start is not bin * dt")
    amps = table[:, (2, 4)]
    _require(np.all(np.isfinite(table)), "pulse checkpoint: non-finite value")
    _require(np.all(amps >= 0.0) and np.all(amps <= AMPLITUDE_BOUND + AMPLITUDE_ATOL),
             f"pulse checkpoint: amplitude outside [0, {AMPLITUDE_BOUND}] "
             f"(max {amps.max():.12g}), a channel pair left the radial bound 1/2")
    pulse = np.column_stack([table[:, 2], table[:, 3] * PI, table[:, 4], table[:, 5] * PI])
    return pulse, dt, meta


def check_trace(text: str, iterations: int) -> np.ndarray:
    """The objective trace: one row per iteration plus the start, never decreasing."""
    lines = text.splitlines()
    _require(lines and lines[0] == "iteration,objective", "trace: bad header")
    table = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    _require(table.shape == (iterations + 1, 2), f"trace: {len(lines) - 1} rows, "
             f"want {iterations + 1}")
    _require(np.array_equal(table[:, 0], np.arange(iterations + 1)), "trace: iteration column")
    _require(np.all(np.diff(table[:, 1]) >= 0.0), "trace: objective decreased")
    return table[:, 1]


def check_training(pulse_text: str, trace_text: str, stdout: str, *, kind: str,
                   lo: float, hi: float, train_points: int, seed: int,
                   max_iterations: int) -> dict:
    """Check one `grape` run; return its oracle min fidelity and ascent counts."""
    pulse, dt, meta = read_pulse(pulse_text)
    _require(meta.get("error") == kind and meta.get("seed") == str(seed),
             "pulse checkpoint: config block does not match the command")
    if kind == "none":
        probes, label = np.zeros(1), "final fidelity"
    else:
        training = np.array([float(x) for x in meta["training"].split(",")])
        _require(np.allclose(training, np.linspace(lo, hi, train_points), atol=1e-12),
                 "pulse checkpoint: training set does not match the command")
        probes, label = np.linspace(lo, hi, 21), "trained-range min fidelity"
    _require(abs(float(meta["total_time"]) - 6.0 * PI) < 1e-9, "pulse checkpoint: total time")
    iterations = int(meta["iterations"])
    _require(1 <= iterations <= max_iterations, "pulse checkpoint: iteration count")
    trace = check_trace(trace_text, iterations)
    _require(abs(trace[-1] - float(meta["performance"])) <= 1e-9 * max(1.0, abs(trace[-1])),
             "trace: last objective is not the checkpoint's performance")

    # The 21 probes of trained_min_fidelity.  A symmetric probe set makes
    # T' = (1 + eps) T and (1 - eps) T give one minimum.
    score = float(np.min(pulse_fidelities(pulse, dt, kind, probes)))
    printed = [ln for ln in stdout.splitlines() if ln.startswith(label)]
    _require(len(printed) == 1, f"grape: no {label!r} line printed")
    reported = float(printed[0].rsplit(":", 1)[1])
    _require(abs(reported - score) <= SCORE_ATOL,
             f"grape: printed score {reported} but the oracle gives {score:.9f}")
    accepted = int(np.count_nonzero(np.diff(trace) > 0.0))
    return {"min_fidelity": score, "iterations": iterations, "accepted": accepted}


# -- sweeps ------------------------------------------------------------------


def read_sweep(text: str) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    lines = text.splitlines()
    _require(lines and lines[0].startswith("epsilon,"), "sweep: bad header")
    labels = lines[0].split(",")[1:]
    table = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    _require(table.ndim == 2 and table.shape[1] == len(labels) + 1, "sweep: ragged rows")
    return table[:, 0], {lab: table[:, i + 1] for i, lab in enumerate(labels)}


def _mismatch(values, reference) -> tuple[float, int]:
    err = np.abs(np.asarray(values) - reference)
    i = int(np.argmax(err))
    return float(err[i]), i


def check_sweep(text: str, *, kind: str, lo: float, hi: float, points: int,
                labels: list[str], pulse=None) -> dict[str, np.ndarray]:
    """Check every row of a `scan` or `compare` CSV against the oracle.

    Composites are evaluated under T' = (1 + eps) T.  A `grape` column
    (pulse = (rows, dt)) under PLE may follow either T' = (1 + eps) T or
    T' = (1 - eps) T, but one of them over the whole curve.
    """
    eps, cols = read_sweep(text)
    _require(list(cols) == labels, f"sweep: columns {list(cols)}, want {labels}")
    _require(eps.size == points and np.allclose(eps, np.linspace(lo, hi, points),
                                                rtol=0, atol=1e-9),
             "sweep: grid does not match the command")
    for name in labels:
        values = cols[name]
        _require(np.all((values >= 0.0) & (values <= 1.0)), f"sweep: {name} outside [0, 1]")
        if name == "grape":
            rows, dt = pulse
            # (1 - eps) at eps is (1 + eps) at -eps: one oracle pass serves both.
            both = np.union1d(eps, -eps) if kind == "ple" else eps
            ref = pulse_fidelities(rows, dt, kind, both)
            plus = np.interp(eps, both, ref)
            err, i = _mismatch(values, plus)
            if kind == "ple" and err > SWEEP_ATOL:
                err, i = _mismatch(values, np.interp(-eps, both, ref))
            _require(err <= SWEEP_ATOL, f"sweep: grape at eps={eps[i]:.9g} is off the "
                     f"oracle by {err:.3g}")
            continue
        ref = composite_fidelities(name, kind, eps)
        err, i = _mismatch(values, ref)
        _require(err <= SWEEP_ATOL, f"sweep: {name} at eps={eps[i]:.9g} is off the "
                 f"oracle by {err:.3g}")
        zero = np.flatnonzero(eps == 0.0)
        _require(zero.size == 0 or abs(values[zero[0]] - 1.0) <= SWEEP_ATOL,
                 f"sweep: {name} F(0) != 1")
        if name == "sequential" and kind == "ple":
            near = np.abs(eps) <= SERIES_RANGE
            e2 = eps[near] ** 2
            series = 1.0 - (5.0 * PI**2 / 96.0) * e2 + (PI**4 / 4608.0) * e2 * e2
            err, i = _mismatch(values[near], series)
            _require(err <= SERIES_ATOL, f"sweep: sequential leaves the small-error "
                     f"series by {err:.3g}")
    return cols
