"""Robustness-averaged GRAPE for the three-level entangling gate.

Controls are N time bins of four piecewise-constant amplitudes

    u1 = -(u_m/2) cos(theta_m),  u2 = -(u_m/2) sin(theta_m),
    u3 = -(u_r/2) cos(theta_r),  u4 = -(u_r/2) sin(theta_r),

multiplying the control Hamiltonians (sigma_x^20, sigma_y^20,
sigma_x^23, sigma_y^23).  The performance of a schedule against a
target U_T is P = |Tr(U_T^dag U(T))|^2, averaged over a training set of
systematic error fractions; ascent follows the first-order gradient
with backtracking on the step size and radial clipping that keeps the
reconstructed drive amplitudes at or below Lambda = 1.

Bins are evaluated by `sequences.bin_propagators`, the engine of the
composite pulses too, so every scheme shares one error convention: a
pulse-length fraction eps_f stretches every bin to (1 + eps_f) dt, i.e.
T' = (1 + eps_f) T, and an off-resonance fraction eps_g adds the drift
(eps_g/3) Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .linalg import IDENTITY, gate_fidelity
from .sequences import (
    ErrorKind,
    _write_text,
    bin_propagators,
    error_fractions,
    gates,
    sequential_gate,
)

__all__ = [
    "CONTROL_BOUND",
    "ControlSchedule",
    "GrapeConfig",
    "OptimizedPulse",
    "GrapeNumericsError",
    "schedule_propagator",
    "performance",
    "power_penalty",
    "penalized_performance",
    "gradient",
    "clip_controls",
    "ascend",
    "trained_min_fidelity",
    "ascend_with_restarts",
    "schedule_to_pulses",
    "pulses_to_schedule",
    "render_pulse_csv",
    "export_pulse_csv",
    "import_pulse_csv",
    "PULSE_CSV_HEADER",
]

PI = math.pi
TWO_PI = 2.0 * math.pi

# |u_k| <= Lambda/2 with Lambda = 1; enforced radially per channel pair so
# the reconstructed u_m, u_r never exceed Lambda either.
CONTROL_BOUND = 0.5

PULSE_CSV_HEADER = "bin,t_start,u_m,theta_m_over_pi,u_r,theta_r_over_pi"


class GrapeNumericsError(RuntimeError):
    """Non-finite objective during ascent; carries the iteration index."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


@dataclass(frozen=True)
class ControlSchedule:
    """N x 4 piecewise-constant control amplitudes with bin duration dt.

    Bin 0 acts first.  The optimizer keeps every channel pair inside the
    radial bound |(u1,u2)|, |(u3,u4)| <= 1/2; the constructor only
    checks shape and finiteness so that probe schedules for gradient
    tests are unrestricted.
    """

    u: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        u = np.array(self.u, dtype=float)
        if u.ndim != 2 or u.shape[1] != 4 or u.shape[0] < 1:
            raise ValueError(f"controls must be (N, 4) with N >= 1, got {u.shape}")
        if not np.all(np.isfinite(u)):
            raise ValueError("controls must be finite")
        if not (self.dt > 0):
            raise ValueError(f"bin duration must be positive, got {self.dt}")
        u.flags.writeable = False
        object.__setattr__(self, "u", u)

    @property
    def bins(self) -> int:
        return self.u.shape[0]

    @property
    def duration(self) -> float:
        return self.bins * self.dt


def _normalized_target(target: np.ndarray) -> np.ndarray:
    t = np.asarray(target, dtype=complex)
    if t.shape != (3, 3):
        raise ValueError(f"target must be 3x3, got {t.shape}")
    if np.max(np.abs(t.conj().T @ t - IDENTITY)) > 1e-8:
        raise ValueError("target is not unitary within tolerance")
    return t


@dataclass(frozen=True)
class GrapeConfig:
    """Optimization problem plus every knob that affects the result."""

    target: np.ndarray = field(default_factory=sequential_gate)
    error_kind: ErrorKind = ErrorKind.NONE
    training: tuple[float, ...] = ()
    total_time: float = 6.0 * PI
    bins: int = 400
    penalty: float = 0.01
    step_size: float = 0.1
    max_iterations: int = 5000
    tolerance: float = 1e-9
    patience: int = 20
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", _normalized_target(self.target))
        object.__setattr__(self, "training", tuple(float(e) for e in self.training))
        if self.bins < 1:
            raise ValueError("need at least one bin")
        if not (self.total_time > 0):
            raise ValueError("total time must be positive")
        if self.penalty < 0 or self.step_size <= 0 or self.init_scale < 0:
            raise ValueError("penalty >= 0, step size > 0, init scale >= 0 required")
        if self.max_iterations < 1 or self.patience < 1 or self.tolerance < 0:
            raise ValueError("bad stopping parameters")
        error_fractions(self.error_kind, self.training)

    @property
    def dt(self) -> float:
        return self.total_time / self.bins

    def effective_training(self) -> tuple[float, ...]:
        """The averaging set: {0} when no error model is trained."""
        return tuple(error_fractions(self.error_kind, self.training).tolist())


@dataclass(frozen=True)
class OptimizedPulse:
    """Ascent output: final schedule, objective, and the accepted-step trace."""

    schedule: ControlSchedule
    performance: float
    iterations: int
    trace: tuple[float, ...]
    config: GrapeConfig


def schedule_propagator(
    s: ControlSchedule, kind: ErrorKind, fractions=(0.0,)
) -> np.ndarray:
    """Total propagators of the schedule, one per error fraction, (E, 3, 3)."""
    return gates(s.u, s.dt, kind, error_fractions(kind, fractions))


def _mean_performance(
    u: np.ndarray,
    dt: float,
    kind: ErrorKind,
    fractions: Sequence[float],
    target: np.ndarray,
) -> float:
    full = gates(u, dt, kind, fractions)
    tr = np.einsum("ba,eba->e", target.conj(), full)  # Tr(U_T^dag U)
    return float(np.mean(np.abs(tr) ** 2))


def performance(
    s: ControlSchedule,
    target: np.ndarray,
    kind: ErrorKind = ErrorKind.NONE,
    fractions: Sequence[float] = (),
) -> float:
    """Mean of |Tr(U_T^dag U(T))|^2 over the training fractions.

    With kind NONE the averaging set is {0} (`sequences.error_fractions`).
    Perfect overlap gives 9 (the squared dimension).
    """
    target = _normalized_target(target)
    fractions = error_fractions(kind, fractions)
    return _mean_performance(s.u, s.dt, kind, fractions, target)


def power_penalty(s: ControlSchedule, penalty: float) -> float:
    """alpha_p * dt * sum(u^2), the amount subtracted from the objective."""
    return float(penalty * s.dt * np.sum(s.u * s.u))


def penalized_performance(
    s: ControlSchedule,
    target: np.ndarray,
    kind: ErrorKind = ErrorKind.NONE,
    fractions: Sequence[float] = (),
    penalty: float = 0.0,
) -> float:
    return performance(s, target, kind, fractions) - power_penalty(s, penalty)


def _gradient_u(
    u: np.ndarray,
    dt: float,
    kind: ErrorKind,
    fractions: Sequence[float],
    target: np.ndarray,
    penalty: float,
) -> np.ndarray:
    props = bin_propagators(u, dt, kind, fractions)
    n_e, n_bins = props.shape[:2]
    fwd = np.empty_like(props)  # fwd[j] = U_j ... U_1
    bwd = np.empty_like(props)  # bwd[j] = U_N ... U_{j+1}
    acc = np.broadcast_to(IDENTITY, (n_e, 3, 3)).copy()
    for j in range(n_bins):
        acc = props[:, j] @ acc
        fwd[:, j] = acc
    acc = np.broadcast_to(IDENTITY, (n_e, 3, 3)).copy()
    for j in range(n_bins - 1, -1, -1):
        bwd[:, j] = acc
        acc = acc @ props[:, j]
    # M_j = B_j U_T^dag S_j collects both traces of the gradient formula:
    # Tr(H_k M_j) = Tr(A_j^dag H_k B_j) and Tr(M_j) = conj(Tr(B_j^dag A_j)).
    m = np.einsum("ejab,bc,ejcd->ejad", fwd, target.conj().T, bwd)
    tr_m = np.einsum("ejaa->ej", m)
    hk_tr = np.empty((n_e, n_bins, 4), dtype=complex)
    hk_tr[..., 0] = m[..., 1, 0] + m[..., 0, 1]
    hk_tr[..., 1] = -1j * m[..., 1, 0] + 1j * m[..., 0, 1]
    hk_tr[..., 2] = m[..., 2, 1] + m[..., 1, 2]
    hk_tr[..., 3] = 1j * m[..., 2, 1] - 1j * m[..., 1, 2]
    if kind is ErrorKind.PLE:
        fac = (1.0 + np.asarray(fractions, dtype=float))[:, None, None]
    else:
        fac = 1.0
    g = -2.0 * np.real(1j * dt * fac * hk_tr * tr_m[..., None].conj())
    return g.mean(axis=0) - 2.0 * penalty * dt * u


def gradient(
    s: ControlSchedule,
    target: np.ndarray,
    kind: ErrorKind = ErrorKind.NONE,
    fractions: Sequence[float] = (),
    penalty: float = 0.0,
) -> np.ndarray:
    """First-order gradient of the penalized mean performance, shape (N, 4).

    Per bin j and control k the performance term is
    -2 Re( Tr(i dt A_j^dag H_k B_j) Tr(B_j^dag A_j) ), averaged over the
    training set, with H_k carrying the same (1 + eps_f) stretch as the
    PLE bin propagator; the penalty contributes -2 alpha_p u_k(j) dt.
    """
    target = _normalized_target(target)
    fractions = error_fractions(kind, fractions)
    return _gradient_u(s.u, s.dt, kind, fractions, target, penalty)


def clip_controls(u: np.ndarray) -> np.ndarray:
    """Scale each channel pair radially onto |(u1,u2)|, |(u3,u4)| <= 1/2.

    Radial (not per-component) clipping keeps the phase of each drive
    and guarantees the reconstructed amplitudes u_m, u_r stay <= 1.
    """
    out = np.array(u, dtype=float)
    for c in (0, 2):
        r = np.hypot(out[:, c], out[:, c + 1])
        f = np.where(r > CONTROL_BOUND, CONTROL_BOUND / np.maximum(r, 1e-300), 1.0)
        out[:, c] *= f
        out[:, c + 1] *= f
    return out


def ascend(cfg: GrapeConfig) -> OptimizedPulse:
    """Gradient ascent with backtracking step control.

    Controls start uniform in [-scale, scale] from the seeded generator
    (then clipped).  A step is accepted only if it improves the
    penalized objective; rejection halves the step size and reuses the
    cached gradient, acceptance restores the configured step size.
    Stops at max_iterations or when the objective improves by less than
    the tolerance over `patience` iterations.  Bit-reproducible for a
    fixed config.
    """
    dt = cfg.dt
    fractions = cfg.effective_training()
    rng = np.random.default_rng(cfg.seed)
    u = clip_controls(rng.uniform(-cfg.init_scale, cfg.init_scale, size=(cfg.bins, 4)))

    def objective(controls: np.ndarray) -> float:
        p = _mean_performance(controls, dt, cfg.error_kind, fractions, cfg.target)
        return p - cfg.penalty * dt * float(np.sum(controls * controls))

    best = objective(u)
    if not math.isfinite(best):
        raise GrapeNumericsError("non-finite objective", 0)
    trace = [best]
    eta = cfg.step_size
    grad = None
    iterations = 0
    for it in range(1, cfg.max_iterations + 1):
        iterations = it
        if grad is None:
            grad = _gradient_u(u, dt, cfg.error_kind, fractions, cfg.target, cfg.penalty)
        candidate = clip_controls(u + eta * grad)
        value = objective(candidate)
        if not math.isfinite(value):
            raise GrapeNumericsError("non-finite objective", it)
        if value > best:
            u, best, eta, grad = candidate, value, cfg.step_size, None
        else:
            eta *= 0.5
        trace.append(best)
        if it >= cfg.patience and trace[-1] - trace[-1 - cfg.patience] < cfg.tolerance:
            break
    return OptimizedPulse(
        schedule=ControlSchedule(u=u, dt=dt),
        performance=best,
        iterations=iterations,
        trace=tuple(trace),
        config=cfg,
    )


def trained_min_fidelity(pulse: OptimizedPulse, points: int = 21) -> float:
    """Minimum gate fidelity over the trained error range (dense probe)."""
    cfg = pulse.config
    fractions = cfg.effective_training()
    lo, hi = min(fractions), max(fractions)
    probes = np.linspace(lo, hi, points) if hi > lo else np.array([lo])
    stack = schedule_propagator(pulse.schedule, cfg.error_kind, probes)
    return float(np.min(gate_fidelity(stack, cfg.target)))


def ascend_with_restarts(
    cfg: GrapeConfig, restarts: int = 5, goal: float = 0.99
) -> tuple[OptimizedPulse, float]:
    """Up to `restarts` seeded runs (seed, seed+1, ...), best kept.

    Runs are ranked by the trained-range minimum fidelity; the loop
    stops early once a run reaches `goal`.  Returns the best pulse and
    its score.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    best: OptimizedPulse | None = None
    best_score = -math.inf
    for r in range(restarts):
        result = ascend(replace(cfg, seed=cfg.seed + r))
        score = trained_min_fidelity(result)
        if score > best_score:
            best, best_score = result, score
        if best_score >= goal:
            break
    assert best is not None
    return best, best_score


def schedule_to_pulses(s: ControlSchedule) -> np.ndarray:
    """Per-bin physical drives (u_m, theta_m, u_r, theta_r), theta in [0, 2pi)."""
    out = np.empty((s.bins, 4), dtype=float)
    for c in (0, 2):
        u_cos, u_sin = s.u[:, c], s.u[:, c + 1]
        theta = np.mod(np.arctan2(-u_sin, -u_cos), TWO_PI)
        theta[theta >= TWO_PI] = 0.0  # mod can round up to the period
        amp = 2.0 * np.hypot(u_cos, u_sin)
        theta[amp == 0.0] = 0.0  # silent bin, atan2 of signed zeros is noise
        out[:, c] = amp
        out[:, c + 1] = theta
    return out


def pulses_to_schedule(pulses: np.ndarray, dt: float) -> ControlSchedule:
    """Inverse of schedule_to_pulses: (u_m, theta_m, u_r, theta_r) -> u1..u4."""
    p = np.asarray(pulses, dtype=float)
    if p.ndim != 2 or p.shape[1] != 4:
        raise ValueError(f"pulses must be (N, 4), got {p.shape}")
    if np.any(p[:, (0, 2)] < 0.0) or not np.all(np.isfinite(p)):
        raise ValueError("pulse amplitudes must be finite and >= 0")
    u = np.empty_like(p)
    u[:, 0] = -0.5 * p[:, 0] * np.cos(p[:, 1])
    u[:, 1] = -0.5 * p[:, 0] * np.sin(p[:, 1])
    u[:, 2] = -0.5 * p[:, 2] * np.cos(p[:, 3])
    u[:, 3] = -0.5 * p[:, 2] * np.sin(p[:, 3])
    return ControlSchedule(u=u, dt=dt)


def _config_block(pulse: OptimizedPulse) -> list[str]:
    cfg = pulse.config
    training = ",".join(f"{e:.12g}" for e in cfg.training)
    items = [
        ("error", cfg.error_kind.value),
        ("training", training),
        ("total_time", f"{cfg.total_time:.12g}"),
        ("bins", str(cfg.bins)),
        ("penalty", f"{cfg.penalty:.12g}"),
        ("step_size", f"{cfg.step_size:.12g}"),
        ("max_iterations", str(cfg.max_iterations)),
        ("tolerance", f"{cfg.tolerance:.12g}"),
        ("patience", str(cfg.patience)),
        ("seed", str(cfg.seed)),
        ("init_scale", f"{cfg.init_scale:.12g}"),
        ("performance", f"{pulse.performance:.12g}"),
        ("iterations", str(pulse.iterations)),
    ]
    return [f"# {k}={v}" for k, v in items]


def render_pulse_csv(pulse: OptimizedPulse) -> str:
    """Checkpoint text: pulse rows plus a `# key=value` config block.

    Values carry 12 significant digits; 9 would leave phase quantization
    of order 5e-9 in the reconstructed controls, breaking the 1e-9
    import round-trip, so the checkpoint format is the wider one.
    """
    s = pulse.schedule
    rows = schedule_to_pulses(s)
    lines = [PULSE_CSV_HEADER]
    for j in range(s.bins):
        u_m, th_m, u_r, th_r = rows[j]
        lines.append(
            f"{j},{j * s.dt:.12g},{u_m:.12g},{th_m / PI:.12g},{u_r:.12g},{th_r / PI:.12g}"
        )
    lines.extend(_config_block(pulse))
    return "\n".join(lines) + "\n"


def export_pulse_csv(pulse: OptimizedPulse, destination) -> str:
    """Write the checkpoint CSV to a path or text stream; returns the text."""
    text = render_pulse_csv(pulse)
    _write_text(destination, text, "pulse CSV")
    return text


def import_pulse_csv(source) -> tuple[ControlSchedule, dict[str, str]]:
    """Read a checkpoint written by export_pulse_csv.

    Returns the reconstructed schedule and the config block as strings.
    Accepts a path or a text stream.  Rows must be bins 0..N-1 in order,
    N = bins when the config block gives it.  The bin duration comes from
    total_time/bins when the config block is present, otherwise from the
    t_start column; bin j must start at j dt and drive u_m, u_r <= 1, both
    to a relative 1e-9.  Any malformed input raises ValueError.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            with open(source, "r", encoding="ascii") as fh:
                text = fh.read()
        except OSError as exc:
            raise OSError(f"cannot read pulse CSV from {source}: {exc}") from exc
    meta: dict[str, str] = {}
    rows: list[tuple[float, ...]] = []
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != PULSE_CSV_HEADER:
        raise ValueError("not a pulse checkpoint: missing header")
    for ln in lines[1:]:
        if ln.startswith("#"):
            key, _, value = ln.lstrip("# ").partition("=")
            meta[key.strip()] = value.strip()
            continue
        parts = ln.split(",")
        if len(parts) != 6:
            raise ValueError(f"malformed pulse row: {ln!r}")
        rows.append(tuple(float(x) for x in parts))
    if not rows:
        raise ValueError("pulse checkpoint has no rows")
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ValueError("pulse checkpoint: bin column is not 0..N-1")
    if "bins" in meta and int(meta["bins"]) != len(rows):
        raise ValueError(f"pulse checkpoint: {len(rows)} rows under bins={meta['bins']}")
    if "total_time" in meta and "bins" in meta:
        dt = float(meta["total_time"]) / int(meta["bins"])
    elif len(rows) > 1:
        dt = rows[1][1] - rows[0][1]
    else:
        raise ValueError("cannot infer bin duration: no config block, single row")
    j = np.arange(len(rows))
    t_start = np.array([r[1] for r in rows])
    if not np.all(np.abs(t_start - j * dt) <= 1e-9 * np.maximum(j, 1) * dt):
        raise ValueError("pulse checkpoint: t_start is not bin * dt")
    pulses = np.array([(r[2], r[3] * PI, r[4], r[5] * PI) for r in rows])
    if not np.all(pulses[:, (0, 2)] <= 1.0 + 1e-9):
        raise ValueError("pulse checkpoint: drive amplitude above 1")
    return pulses_to_schedule(pulses, dt), meta
