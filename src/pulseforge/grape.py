"""Robustness-averaged GRAPE for the three-level entangling gate.

Controls are N time bins of four piecewise-constant amplitudes u1..u4
multiplying `linalg.CONTROL_HAMILTONIANS`, a `sequences.ControlSchedule`
with one bin duration dt.  A checkpoint stores them as drives (u_m,
theta_m, u_r, theta_r), which `pulses_to_schedule` maps back by
`sequences._drive_controls`, the drive map of the composites too.  The
performance of a schedule against a target U_T is
P = |Tr(U_T^dag U(T))|^2, averaged over a training set of systematic
error fractions.  The prefix products of the bin propagators, formed over
blocks of isqrt(N) bins in the product order of `sequences.gates`, give
the objective and, by unitarity (C = U_T^dag U stands in for the backward
products), its exact gradient: each bin exponential's divided difference
Psi times K_j = (V^dag A_j) C (V^dag A_j)^dag in the bin eigenbasis V,
which `sequences.bin_propagators` writes down in closed form as V = B R:
the controls' bright and dark states B and a real mixing R.  Four entries
of sum_e R (K o Psi) R^T, the pairs summed before B, give the gradient.
All stacks are matrix-first (3, 3, slots, E): bin b isqrt(N) + j sits in
slot j blocks + b, and identity bins pad the last block.  L-BFGS with
Armijo backtracking (de Fouquieres et al., J. Magn. Reson. 212, 412 (2011))
ascends the objective over free parameters that map smoothly onto drives below
Lambda = 1.  Each ascent owns one workspace of six such stacks, which every
evaluation writes into in place of allocating its own.

Bin propagators and a schedule's gates come from `sequences`, the engine
of the composite pulses too, so every scheme shares one error convention:
the (stretch, detuning) pairs of `sequences.error_pairs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .linalg import IDENTITY, _check_unitary, gate_fidelity
from .sequences import (
    ControlSchedule,
    ErrorKind,
    _bin_propagators,
    _drive_controls,
    _error_terms,
    _matmul3,
    _write_text,
    error_pairs,
    propagator,
    sequential_gate,
)

__all__ = [
    "CONTROL_BOUND",
    "GrapeConfig",
    "OptimizedPulse",
    "GrapeNumericsError",
    "performance",
    "gradient",
    "ascend",
    "trained_min_fidelity",
    "ascend_with_restarts",
    "schedule_to_pulses",
    "pulses_to_schedule",
    "export_pulse_csv",
    "import_pulse_csv",
    "PULSE_CSV_HEADER",
]

PI = math.pi
TWO_PI = 2.0 * math.pi

# |u_k| <= Lambda/2 with Lambda = 1; `ascend` keeps each channel pair
# radially below it, so the reconstructed u_m, u_r stay below Lambda too.
CONTROL_BOUND = 0.5

# L-BFGS pairs kept, Armijo constant, step halvings before `ascend` stops.
LBFGS_MEMORY = 10
ARMIJO = 1e-4
MAX_BACKTRACKS = 20

PULSE_CSV_HEADER = "bin,t_start,u_m,theta_m_over_pi,u_r,theta_r_over_pi"

# The gate every pulse is trained for.
TARGET = sequential_gate()

# Trained-range min fidelity at which `ascend_with_restarts` stops, and the
# number of evenly spaced fractions `trained_min_fidelity` probes.
GOAL = 0.99
PROBES = 21


class GrapeNumericsError(RuntimeError):
    """Non-finite objective during ascent; carries the iteration index."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


@dataclass(frozen=True)
class GrapeConfig:
    """Training problem for TARGET plus every knob that affects the result."""

    error_kind: ErrorKind = ErrorKind.NONE
    training: tuple[float, ...] = ()
    total_time: float = 6.0 * PI
    bins: int = 400
    penalty: float = 0.01
    max_iterations: int = 500
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "training", tuple(float(e) for e in self.training))
        if self.bins < 1:
            raise ValueError("need at least one bin")
        if not all(map(math.isfinite, (self.total_time, self.penalty, self.init_scale))):
            raise ValueError("total time, penalty and init scale must be finite")
        if self.total_time <= 0 or self.penalty < 0 or self.init_scale < 0:
            raise ValueError("total time > 0, penalty >= 0, init scale >= 0 required")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        error_pairs(self.error_kind, self.training)

    @property
    def dt(self) -> float:
        return self.total_time / self.bins


@dataclass(frozen=True)
class OptimizedPulse:
    """Ascent output: final schedule, objective, and the per-iteration trace."""

    schedule: ControlSchedule
    performance: float
    iterations: int
    trace: tuple[float, ...]
    config: GrapeConfig


def _require_one_dt(s: ControlSchedule) -> None:
    """GRAPE's power penalty and checkpoint rows take one bin duration;
    a schedule with per-bin durations raises ValueError."""
    if np.ndim(s.dt):
        raise ValueError(f"GRAPE needs one bin duration, got {s.bins} per-bin durations")


def performance(
    s: ControlSchedule,
    target: np.ndarray,
    kind: ErrorKind = ErrorKind.NONE,
    fractions: Sequence[float] = (),
    penalty: float = 0.0,
) -> float:
    """Mean of |Tr(U_T^dag U(T))|^2 over the training fractions, minus the
    power penalty alpha_p * dt * sum(u^2) with alpha_p = `penalty`.

    The fractions become (stretch, detuning) pairs by `sequences.error_pairs`;
    with kind NONE the averaging set is the one pair (0, 0).  Perfect overlap
    gives 9 (the squared dimension).  Per-bin durations raise ValueError.
    """
    _require_one_dt(s)
    target = _check_unitary(target, "target")
    full = propagator(s, kind, fractions)
    tr = np.einsum("ba,eba->e", target.conj(), full)  # Tr(U_T^dag U)
    return float(np.mean(np.abs(tr) ** 2)) - penalty * s.dt * float(np.sum(s.u * s.u))


def _stacks(bins: int, errors) -> list[tuple[int, ...]]:
    """Shapes of `_objective`'s props, V, V^dag, prefix, product and scratch stacks
    over size * blocks bin slots, size = isqrt(N); V's last axis is E or 1, and
    prefix holds size + 1 rows of blocks."""
    e, ev = len(errors), len(_error_terms(1.0, 1, errors)[1])
    size = math.isqrt(bins)
    blocks = -(-bins // size)
    widths = [(size * blocks, w) for w in (e, ev, e, e, e, e)]
    widths[3] = ((size + 1) * blocks, e)
    return [(3, 3) + w for w in widths]


def _workspace(bins: int, errors) -> tuple[np.ndarray, ...]:
    """Flat buffers for `_stacks`, fit for any `_objective` call at no more N, E
    (and, unless `errors` detune, none that detunes: V then has one column)."""
    return tuple(np.empty(math.prod(s), dtype=complex) for s in _stacks(bins, errors))


def _view(stack: np.ndarray, shape: tuple) -> np.ndarray:
    """The first prod(shape) entries of a workspace stack, as that shape."""
    return stack.reshape(-1)[: math.prod(shape)].reshape(shape)


def _objective(u, dt, errors, target, penalty, work=None) -> tuple[float, np.ndarray]:
    """Penalized mean performance over the (E, 2) error pairs and its exact
    gradient (N, 4), one sweep.

    One forward pass over the bin propagators U_j = V diag(e^{-i t w}) V^dag,
    written out entry by entry (`sequences.bin_propagators`, (3, 3, N, E)),
    gives A_j = U_{j-1} ... U_1 and U = U_N A_N in the order of `sequences.gates`,
    so the value is that of `performance` bit for bit: over blocks of
    size = isqrt(N) bins, one bin step at a time for all blocks at once, then
    the block products chained into each block's start, then every A_j in one
    batched multiply.  Slot j blocks + b holds bin b size + j, so each step is
    one contiguous (3, 3, blocks, E) slab; slots past N pad the last block with
    u = 0 and t = 0, whose propagator is exactly the identity, and the gradient
    is taken per slot and mapped back to the bins.  With C = U_T^dag U, unitarity gives
    U_T^dag U_N ... U_{j+1} = C A_j^dag U_j^dag, so
    d Tr(U_T^dag U) / du_jk = Tr(Y_j H_k), where Y_j = V M_j V^dag,
    M_j = K_j o Psi, K_j = (V^dag A_j) C (V^dag A_j)^dag and
    Psi_ab = -i t e^{-i t (w_a - w_b)/2} sinc(t (w_a - w_b) / 2), the
    divided difference of the bin exponential times e^{i t w_b}.  Psi / (-i t)
    is 1 on the diagonal and conjugate across it, so only the three gaps
    a < b, (3, N, E), are exponentiated.  C carries each pair's weight
    (2/E) conj(Tr(U_T^dag U)), so the gradient is Re Tr(sum_e Y_je H_k).

    Y is never formed: V = B R with B = [(bx, 0, by) | (by*, 0, -bx*) | |2>]
    and the real R = [[-c, 0, s], [0, 1, 0], [s, 0, c]].  B's middle row is
    (0, 0, 1) and the H_k couple |2> to |0> and |3> only, so four entries of
    S = sum_e R M_e R^T serve (M is summed over the pairs first when no pair
    detunes): Y_01 = bx S_02 + by* S_12, Y_10 = bx* S_20 + by S_21,
    Y_12 = by* S_20 - bx S_21, Y_21 = by S_02 - bx* S_12, and the gradient is
    (Re(Y_01 + Y_10), Im(Y_10 - Y_01), Re(Y_12 + Y_21), Im(Y_12 - Y_21)).

    Every stack is a view of `work` (`_workspace`), built once per ascent by
    `ascend` and fresh for any other caller, and no product operand is strided
    or broadcast along the slots or pairs.  The product stack holds the
    within-block prefixes row by row, then X C, then Psi; props the block
    products (then copied into prefix), X, then M; prefix the block starts and
    A_j, then K; V^dag, once X is formed, C tiled over the slots.  Each entry is
    written before it is read in a call.
    """
    n, e = len(u), len(errors)
    size = math.isqrt(n)
    blocks = -(-n // size)
    slots = size * blocks
    slot = np.arange(slots).reshape(size, blocks).T.ravel()[:n]  # each bin's slot
    work = work or _workspace(n, errors)
    props, v, vh, prefix, prod, tmp = map(_view, work, _stacks(n, errors))
    us, ts = np.zeros((slots, 4)), np.zeros(slots)  # pads: u = t = 0, so U = 1
    us[slot], ts[slot] = u, dt
    t, tw, v, props = _bin_propagators(us, ts, errors, props, v)
    vh = np.conjugate(np.swapaxes(v, 0, 1), out=vh)
    bins = props.reshape((3, 3, size, blocks, e))
    within = prod.reshape((size, 3, 3, blocks, e))  # U_j ... U_f, f a block's first bin
    within[0] = bins[:, :, 0]
    scratch = _view(tmp, (3, 3, blocks, e))
    for j in range(1, size):
        _matmul3(bins[:, :, j], within[j - 1], within[j], scratch)
    pre = prefix.reshape((3, 3, size + 1, blocks, e))  # row 0 holds each block's start
    ends, starts = within[-1], pre[:, :, 0]
    starts[:, :, 0], starts[:, :, 1:2] = IDENTITY[..., None], ends[:, :, :1]
    for b in range(2, blocks):  # block b's start: block b - 1's product times its start
        starts[:, :, b : b + 1] = _matmul3(ends[:, :, b - 1 : b], starts[:, :, b - 1 : b])
    within = np.moveaxis(within, 0, 2)
    pre[:, :, 1:, 0] = within[:, :, :, 0]
    rest = (3, 3, size, blocks - 1, e)  # whole in props, then copied: gapped adds are slow
    pre[:, :, 1:, 1:] = _matmul3(
        within[:, :, :, 1:], pre[:, :, :1, 1:], _view(props, rest), _view(tmp, rest)
    )
    full = np.moveaxis(pre[:, :, n - size * (blocks - 1), -1], 2, 0).copy()  # U, (E, 3, 3)
    tr = np.einsum("ba,eba->e", target.conj(), full)  # Tr(U_T^dag U), as `performance`
    x = _matmul3(vh, pre[:, :, :size].reshape(props.shape), props, tmp)  # X_j = V^dag A_j
    weighted = (2.0 / e) * tr.conj()[:, None, None] * (target.conj().T @ full)
    vh[...] = np.moveaxis(weighted, 0, 2)[:, :, None]  # C, tiled over the slots
    xc = _matmul3(x, vh, prod, tmp)
    k = _view(prefix, x.shape)
    _matmul3(xc, np.swapaxes(np.conjugate(x, out=x), 0, 1), k, tmp)  # X C X^dag
    gap = tw[[0, 0, 1]] - tw[[2, 1, 2]]  # t (w_a - w_b), ab = 02, 01, 12
    psi = _view(prod, (6, slots, e))  # Psi_ab / (-i t) at ab = 20, 02, 10, 01, 21, 12
    np.exp(np.multiply(gap, -0.5j, out=psi[1::2]), out=psi[1::2])
    psi[1::2] *= np.sinc(gap / TWO_PI)
    np.conjugate(psi[1::2], out=psi[::2])
    m = _view(props, (7, slots, e))  # M = K o Psi at the same ab, then M_00 - M_22
    for i, ab in enumerate(((2, 0), (0, 2), (1, 0), (0, 1), (2, 1), (1, 2))):
        np.multiply(k[ab], psi[i], out=m[i])
    np.subtract(k[0, 0], k[2, 2], out=m[6])
    m *= -1j * t
    c, s = v[1, 2].real, v[1, 0].real  # R's mixing angle, V_12 and V_10, (N, E or 1)
    if c.shape[1] == 1:  # one R serves every pair: sum M over the pairs first
        m = np.einsum("ine->in", m)[..., None]
    s02, s20 = np.einsum("ine->in", s * s * m[:2] - c * c * m[1::-1] - c * s * m[6])
    s12, s21 = np.einsum("ine->in", s * m[2:4] + c * m[5:3:-1])  # S = sum_e R M R^T
    bx, by = -np.conj(v[2, 1, :, 0]), np.conj(v[0, 1, :, 0])  # from V's dark column
    y01, y21 = bx * s02 + by.conj() * s12, by * s02 - bx.conj() * s12
    y10, y12 = bx.conj() * s20 + by * s21, by.conj() * s20 - bx * s21
    grad = np.stack((y01 + y10, 1j * (y01 - y10), y12 + y21, 1j * (y21 - y12)), 1)
    value = float(np.mean(np.abs(tr) ** 2)) - penalty * dt * float(np.sum(u * u))
    return value, grad.real[slot] - 2.0 * penalty * dt * u


def gradient(
    s: ControlSchedule,
    target: np.ndarray,
    kind: ErrorKind = ErrorKind.NONE,
    fractions: Sequence[float] = (),
    penalty: float = 0.0,
) -> np.ndarray:
    """Exact gradient of `performance` in the controls, shape (N, 4).

    Each bin exponential is differentiated exactly, error included (`_objective`).
    Per-bin durations raise ValueError.
    """
    _require_one_dt(s)
    target = _check_unitary(target, "target")
    return _objective(s.u, s.dt, error_pairs(kind, fractions), target, penalty)[1]


def _drives(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = p / sqrt(1 + |p|^2 / CONTROL_BOUND^2) per channel pair, and the factors."""
    pairs = p.reshape(-1, 2, 2)
    sq = pairs * pairs
    radial = (sq[..., :1] + sq[..., 1:]) / CONTROL_BOUND**2
    scale = 1.0 / np.sqrt(1.0 + radial)
    return (pairs * scale).reshape(p.shape), scale


def _lbfgs_direction(grad: np.ndarray, history: list) -> np.ndarray:
    """H g by the two-loop recursion over stored flat (s, y, 1 / s^T y), oldest first."""
    q, coefs = grad.ravel().copy(), []
    for s, y, rho in reversed(history):
        coefs.append(rho * (s @ q))
        q -= coefs[-1] * y
    if history:
        s, y, rho = history[-1]
        q /= rho * (y @ y)
    for (s, y, rho), a in zip(history, reversed(coefs)):
        q += (a - rho * (y @ q)) * s
    return q.reshape(grad.shape)


def ascend(cfg: GrapeConfig) -> OptimizedPulse:
    """L-BFGS ascent of the penalized objective with Armijo backtracking.

    Free parameters p start uniform in [-init_scale, init_scale] from the
    seeded generator and map onto drives below Lambda by `_drives`.  Each
    iteration takes the first step 1, 1/2, ... along the quasi-Newton
    direction that gains ARMIJO times its first-order gain; the ascent
    stops at max_iterations or when MAX_BACKTRACKS halvings find none.
    The trace (start, then one value per iteration) never decreases.
    """
    dt = cfg.dt
    errors = error_pairs(cfg.error_kind, cfg.training)
    rng = np.random.default_rng(cfg.seed)
    p = rng.uniform(-cfg.init_scale, cfg.init_scale, size=(cfg.bins, 4))
    work = _workspace(cfg.bins, errors)  # every evaluation's stacks

    def evaluate(params: np.ndarray, iteration: int):
        u, scale = _drives(params)
        value, g = _objective(u, dt, errors, TARGET, cfg.penalty, work)
        if not math.isfinite(value):
            raise GrapeNumericsError("non-finite objective", iteration)
        pairs, g = params.reshape(-1, 2, 2), g.reshape(-1, 2, 2)
        dot = pairs * g
        inward = (dot[..., :1] + dot[..., 1:]) / CONTROL_BOUND**2
        return u, value, (scale * g - scale**3 * inward * pairs).reshape(params.shape)

    u, best, grad = evaluate(p, 0)
    trace = [best]
    history: list = []  # (s, y, 1 / s^T y), s = p_{i+1} - p_i and y = g_i - g_{i+1}
    for it in range(1, cfg.max_iterations + 1):
        direction = _lbfgs_direction(grad, history)
        slope = float(grad.ravel() @ direction.ravel())
        alpha = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = p + alpha * direction
            u_trial, value, grad_trial = evaluate(trial, it)
            if value - best > ARMIJO * alpha * slope > 0.0:
                break
            alpha *= 0.5
        else:
            trace.append(best)
            break
        step, change = (trial - p).ravel(), (grad - grad_trial).ravel()
        if (curvature := step @ change) > 0.0:
            history = (history + [(step, change, 1.0 / curvature)])[-LBFGS_MEMORY:]
        p, u, best, grad = trial, u_trial, value, grad_trial
        trace.append(best)
    return OptimizedPulse(
        schedule=ControlSchedule(u=u, dt=dt),
        performance=best,
        iterations=it,
        trace=tuple(trace),
        config=cfg,
    )


def trained_min_fidelity(pulse: OptimizedPulse) -> float:
    """Minimum gate fidelity over the trained error range, at PROBES fractions."""
    cfg = pulse.config
    fractions = cfg.training or (0.0,)
    lo, hi = min(fractions), max(fractions)
    probes = np.linspace(lo, hi, PROBES) if hi > lo else np.array([lo])
    stack = propagator(pulse.schedule, cfg.error_kind, probes)
    return float(np.min(gate_fidelity(stack, TARGET)))


def ascend_with_restarts(
    cfg: GrapeConfig, restarts: int = 5
) -> tuple[OptimizedPulse, float]:
    """Up to `restarts` seeded runs (seed, seed+1, ...), best kept.

    Runs are ranked by the trained-range minimum fidelity; the loop
    stops early once a run reaches GOAL.  Returns the best pulse and
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
        if best_score >= GOAL:
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
    return ControlSchedule(u=_drive_controls(p), dt=dt)


def _config_block(pulse: OptimizedPulse) -> list[str]:
    cfg = pulse.config
    training = ",".join(f"{e:.12g}" for e in cfg.training)
    items = [
        ("error", cfg.error_kind.value),
        ("training", training),
        ("total_time", f"{cfg.total_time:.12g}"),
        ("bins", str(cfg.bins)),
        ("penalty", f"{cfg.penalty:.12g}"),
        ("max_iterations", str(cfg.max_iterations)),
        ("seed", str(cfg.seed)),
        ("init_scale", f"{cfg.init_scale:.12g}"),
        ("performance", f"{pulse.performance:.12g}"),
        ("iterations", str(pulse.iterations)),
    ]
    return [f"# {k}={v}" for k, v in items]


def export_pulse_csv(pulse: OptimizedPulse, destination) -> str:
    """Write the checkpoint CSV to a path or text stream; returns the text.

    The text is the pulse rows plus a `# key=value` config block.  Values
    carry 12 significant digits; 9 would leave phase quantization of
    order 5e-9 in the reconstructed controls, breaking the 1e-9 import
    round-trip, so the checkpoint format is the wider one.  A schedule with
    per-bin durations raises ValueError.
    """
    s = pulse.schedule
    _require_one_dt(s)
    rows = schedule_to_pulses(s)
    lines = [PULSE_CSV_HEADER]
    for j in range(s.bins):
        u_m, th_m, u_r, th_r = rows[j]
        lines.append(
            f"{j},{j * s.dt:.12g},{u_m:.12g},{th_m / PI:.12g},{u_r:.12g},{th_r / PI:.12g}"
        )
    lines.extend(_config_block(pulse))
    text = "\n".join(lines) + "\n"
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
