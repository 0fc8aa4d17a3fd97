"""Robustness-averaged GRAPE for the three-level entangling gate.

Controls are N time bins of four piecewise-constant amplitudes u1..u4
multiplying `linalg.CONTROL_HAMILTONIANS`, a `sequences.ControlSchedule`
with one bin duration dt, stored in a checkpoint as the drives of
`sequences.schedule_to_pulses`.  The performance of a schedule against a
target U_T is P = |Tr(U_T^dag U(T))|^2, averaged over a training set of
systematic error fractions, less a power penalty (`_score`).  `_objective`
gives it and its exact gradient in one sweep over the bin propagators, in
the product order of `sequences.gates`.  L-BFGS with Armijo backtracking
(de Fouquieres et al., J. Magn. Reson. 212, 412 (2011)) ascends it over free
parameters that `_drives` maps smoothly onto drives below Lambda = 1, its
pullback taking the gradient back; each ascent runs through one `_workspace`.

Bin propagators and a schedule's gates come from `sequences`, the engine
of the composite pulses too, so every scheme shares one error convention:
the (stretch, detuning) pairs of `sequences.error_pairs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import sequences
from .linalg import IDENTITY, _check_unitary, gate_fidelity
from .sequences import (
    ControlSchedule,
    ErrorKind,
    _error_terms,
    _matmul3,
    _write_text,
    error_pairs,
    propagator,
    pulses_to_schedule,
    schedule_to_pulses,
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
    "export_pulse_csv",
    "import_pulse_csv",
    "PULSE_CSV_HEADER",
]

PI = math.pi

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
        for name in ("bins", "max_iterations", "seed"):
            if not isinstance(value := getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    return _score(propagator(s, kind, fractions), target, s.u, s.dt, penalty)[1]


def _score(full, target, u, dt, penalty) -> tuple[np.ndarray, float]:
    """Tr(U_T^dag U) of each pair's gate in `full` (E, 3, 3), and the mean of
    |Tr|^2 over the pairs minus the power penalty alpha_p * dt * sum(u^2)."""
    tr = np.einsum("ba,eba->e", target.conj(), full)
    return tr, float(np.mean(np.abs(tr) ** 2)) - penalty * dt * float(np.sum(u * u))


def _workspace(bins: int, errors) -> tuple[np.ndarray, ...]:
    """One training problem's layout for `_objective`: each bin's slot, the padded
    controls and durations, (p, q, p') (3, slots, E), the Y, X, weight, product
    and scratch stacks (3, 3, slots, E), Psi (6, slots, E) and a flat scratch of
    27 blocks E for one step's products.  With size = isqrt(N), bin b size + j
    sits in slot j blocks + b; the pads keep u = t = 0."""
    e, slots = len(errors), (size := math.isqrt(bins)) * (blocks := -(-bins // size))
    slot = np.arange(slots).reshape(size, -1).T.ravel()[:bins]
    stacks = [np.empty((3, 3, slots, e), complex) for _ in range(3)]
    stacks.extend(np.empty((2, 3, 3, slots, e), complex))  # one buffer, for 2x2 products too
    return (slot, np.zeros((slots, 4)), np.zeros(slots), np.empty((3, slots, e), complex),
            *stacks, np.empty((6, slots, e), complex), np.empty(27 * blocks * e, complex))


def _view(stack: np.ndarray, shape: tuple) -> np.ndarray:
    """The first prod(shape) entries of a workspace stack, as that shape."""
    return stack.reshape(-1)[: math.prod(shape)].reshape(shape)


def _objective(u, dt, errors, target, penalty, work=None) -> tuple[float, np.ndarray]:
    """Penalized mean performance over the (E, 2) error pairs and its exact
    gradient (N, 4), one sweep.

    The forward pass is the arithmetic of `sequences.gates`, one step for all
    blocks at once, so the value is that of `performance` bit for bit:
    Y_j = B_j^dag W_j with the within-block prefix W_j = U_{j-1} ... U_f, and
    the block products chain into the block starts S_b and U.  In
    `_workspace`'s slots a step is one contiguous (3, 3, blocks, E) slab, one
    `_matmul3` by the step matrices, built for every bin at once into X's
    stack.  The pads (u = t = 0) are silent bins, whose basis is the lab's, so
    the last real bin turns into the lab as in `gates` and each pad step is 1.
    With A_j = W_j S_b and C = U_T^dag U, unitarity gives
    U_T^dag U_N ... U_{j+1} = C A_j^dag U_j^dag, so d Tr(U_T^dag U) / du_jk =
    Tr(Y'_j H_k), where Y'_j = V M_j V^dag, M_j = K_j o Psi and K_j =
    (V^dag A_j) C (V^dag A_j)^dag = X_j C_b X_j^dag, with C_b = S_b C S_b^dag
    and X_j = V^dag W_j, two rows of Y_j turned by the mixing angle: no A_j is
    formed.  Psi, the divided difference of the bin exponential times
    e^{i t w_b}, comes from `sequences._bin_exponentials`.  C carries each
    pair's weight (2/E) conj(Tr(U_T^dag U)), so the gradient is
    Re Tr(sum_e Y'_je H_k).

    Y' is never formed: V = B' R with B' = [(bx, 0, by) | (by*, 0, -bx*) | |2>]
    and the real R = [[-c, 0, s], [0, 1, 0], [s, 0, c]].  B's middle row is
    (0, 0, 1) and the H_k couple |2> to |0> and |3> only, so four entries of
    S = sum_e R M_e R^T serve (M is summed over the pairs first when no pair
    detunes): Y'_01 = bx S_02 + by* S_12, Y'_10 = bx* S_20 + by S_21,
    Y'_12 = by* S_20 - bx S_21, Y'_21 = by S_02 - bx* S_12, and the gradient is
    (Re(Y'_01 + Y'_10), Im(Y'_10 - Y'_01), Re(Y'_12 + Y'_21), Im(Y'_12 - Y'_21)).

    `work` is `_workspace(N, errors)`, built once per ascent by `ascend` and
    fresh for any other caller; one built for another N or E raises ValueError.
    No `_matmul3` operand is strided or broadcast along the slots or pairs.  Y
    holds the Y_j, then the block starts and C_b tiled; X the step matrices,
    then the X_j; the weight stack the block products, C, C_b and K; the
    product stack (the scratch after it) the last step, 2x2 products, the
    chain, S_b C, X C and M; the scratch's last two thirds R^T, complex and
    tiled over the pairs, which numpy multiplies without casting buffers; the
    flat scratch one step's or chain product's terms.  Written before read.
    """
    n, e = len(u), len(errors)
    slot, us, ts, ub, y, x, cw, xc, tmp, psi, terms = work or _workspace(n, errors)
    if (built := (len(slot), y.shape[-1])) != (n, e):
        raise ValueError(f"workspace built for (N, E) = {built}, got {(n, e)}")
    grid = (size := math.isqrt(n), blocks := len(ts) // size)  # bin steps, blocks
    us[slot], ts[slot] = u, dt  # the pads keep u = t = 0, so U^B = 1
    bright = sequences._bright_states(us)
    scale, drift = _error_terms(errors)
    times = scale * ts
    c, s, phases, ub = sequences._bin_exponentials(bright, times, drift, ub, psi)
    bxs, bys = (b.reshape(grid + (1,)) for b in bright[1:])
    turns = sequences._turns(bxs, bys, (np.arange(size) == size - 1)[:, None, None])
    ys, ubs, e1 = (a.reshape(a.shape[:-2] + grid + (e,)) for a in (y, ub, phases[1]))
    slab, products = (3, 3, blocks, e), _view(cw, (blocks, 3, 3, e))
    steps = sequences._step_matrices(ubs, e1, turns, x.reshape(ys.shape))  # M_j = T_j S_j
    scratch = _view(terms, (3,) + slab)
    sequences._basis_start(bxs[0], bys[0], ys[:, :, 0])
    for j in range(size):  # the last step writes each block's product, in the lab
        out = ys[:, :, j + 1] if j + 1 < size else _view(xc, slab)
        _matmul3(steps[:, :, j], ys[:, :, j], out, scratch)
    np.moveaxis(products, 0, 2)[...] = out  # as the chain reads them
    rotation = _view(tmp[1:], (2, 2) + y.shape[2:])  # R^T on the (bright, |2>) rows
    rotation[0, 0], rotation[0, 1], rotation[1, 0], rotation[1, 1] = -c, s, s, c
    sequences._matmul2(rotation[:, :, None], y[:2], x[::2], _view(xc.base, (2, 2) + y.shape[1:]))
    np.negative(y[2], out=x[1])  # X_j = R^T Y_j, V's dark column being -B's
    chain, scratch = _view(xc, (blocks, 3, 3, e)), _view(terms, (3, 3, 3, e))  # S_1, ..., then U
    chain[0] = products[0]
    for b in range(1, blocks):
        _matmul3(products[b], chain[b - 1], chain[b], scratch)
    full = np.moveaxis(chain[-1], 2, 0).copy()  # U, (E, 3, 3)
    tr, value = _score(full, target, u, dt, penalty)  # as `performance`
    weighted = (2.0 / e) * tr.conj()[:, None, None] * (target.conj().T @ full)
    starts, cb = _view(y, slab), _view(cw, slab)
    starts[:, :, 0], starts[:, :, 1:] = IDENTITY[..., None], np.moveaxis(chain[:-1], 0, 2)
    cb[...] = np.moveaxis(weighted, 0, 2)[:, :, None]  # C over the blocks
    sc = _matmul3(starts, cb, _view(xc, slab), _view(tmp, slab))
    _matmul3(sc, np.swapaxes(np.conjugate(starts, out=starts), 0, 1), cb, _view(tmp, slab))
    ys[...] = cb[:, :, None]  # C_b, tiled over each block's slots
    xcb = _matmul3(x, y, xc, tmp)
    k = _matmul3(xcb, np.swapaxes(np.conjugate(x, out=x), 0, 1), cw, tmp)
    m = xc.reshape(9, -1, e)[:7]  # M = K o Psi at ab = 20, 10, 21, 02, 01, 12, then M_00 - M_22
    for i, ab in enumerate(((2, 0), (1, 0), (2, 1), (0, 2), (0, 1), (1, 2))):
        np.multiply(k[ab], psi[i], out=m[i])
    np.subtract(k[0, 0], k[2, 2], out=m[6])
    m[6] *= -1j * times.T
    if c.shape[1] == 1:  # one R serves every pair: sum M over the pairs first
        m = np.einsum("ine->in", m)[..., None]
    s02, s20 = np.einsum("ine->in", s * s * m[0:4:3] - c * c * m[3::-3] - c * s * m[6])
    s12, s21 = np.einsum("ine->in", s * m[1:5:3] + c * m[5:1:-3])  # S = sum_e R M R^T
    bx, by = bright[1][:, 0], bright[2][:, 0]
    y01, y21 = bx * s02 + by.conj() * s12, by * s02 - bx.conj() * s12
    y10, y12 = bx.conj() * s20 + by * s21, by.conj() * s20 - bx * s21
    grad = np.stack((y01 + y10, 1j * (y01 - y10), y12 + y21, 1j * (y21 - y12)), 1)
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


def _drives(p: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """u = scale * p, scale = 1 / sqrt(1 + |p|^2 / CONTROL_BOUND^2) per channel
    pair, and the pullback that takes a u-gradient g to the p-gradient
    scale * g - scale^3 (p . g / CONTROL_BOUND^2) p, the chain rule of the map.

    Past |p| ~ 1e7 that factor rounds |u| up to the bound, so u is scaled by
    at most (1 - 1e-12) CONTROL_BOUND / |p| instead; the pullback stays the
    smooth map's."""
    pairs = p.reshape(-1, 2, 2)
    sq = pairs * pairs
    radial = (sq[..., :1] + sq[..., 1:]) / CONTROL_BOUND**2
    scale = 1.0 / np.sqrt(1.0 + radial)
    limit = (1.0 - 1e-12) / np.sqrt(np.maximum(radial, 1e-300))  # floored: p = 0 is no 1/0

    def pullback(g: np.ndarray) -> np.ndarray:
        dot = pairs * (g := g.reshape(pairs.shape))
        inward = (dot[..., :1] + dot[..., 1:]) / CONTROL_BOUND**2
        return (scale * g - scale**3 * inward * pairs).reshape(p.shape)

    return (pairs * np.minimum(scale, limit)).reshape(p.shape), pullback


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
        u, pullback = _drives(params)
        value, g = _objective(u, dt, errors, TARGET, cfg.penalty, work)
        if not math.isfinite(value):
            raise GrapeNumericsError("non-finite objective", iteration)
        return u, value, pullback(g)

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


def export_pulse_csv(pulse: OptimizedPulse, destination) -> str:
    """Write the checkpoint CSV to a path or text stream; returns the text.

    The text is the pulse rows, phases over pi, plus a `# key=value` config
    block.  Values carry 12 significant digits; 9 would leave phase
    quantization of order 5e-9 in the reconstructed controls, breaking the
    1e-9 import round-trip, so the checkpoint format is the wider one.  A
    schedule with per-bin durations raises ValueError.
    """
    s, cfg = pulse.schedule, pulse.config
    _require_one_dt(s)
    drives = schedule_to_pulses(s) / (1.0, PI, 1.0, PI)
    table = np.column_stack((j := np.arange(s.bins), j * s.dt, drives)).tolist()
    row = "%d," + ",".join(["%.12g"] * 5)  # one format per row, as `scanning.export_csv`
    block = (
        "# error=%s\n# training=%s\n# total_time=%.12g\n# bins=%d\n# penalty=%.12g\n"
        "# max_iterations=%d\n# seed=%d\n# init_scale=%.12g\n"
        "# performance=%.12g\n# iterations=%d\n"
    ) % (cfg.error_kind.value, ",".join(f"{e:.12g}" for e in cfg.training), cfg.total_time,
         cfg.bins, cfg.penalty, cfg.max_iterations, cfg.seed, cfg.init_scale,
         pulse.performance, pulse.iterations)
    text = "\n".join([PULSE_CSV_HEADER] + [row % tuple(v) for v in table]) + "\n" + block
    _write_text(destination, text, "pulse CSV")
    return text


def import_pulse_csv(source) -> tuple[ControlSchedule, dict[str, str]]:
    """Read a checkpoint written by export_pulse_csv.

    Returns the reconstructed schedule and the config block as strings.
    Accepts a path or a text stream.  Rows must be bins 0..N-1 in order,
    N = bins when the config block gives it.  The bin duration comes from
    total_time/bins when the config block is present, otherwise from the
    t_start column; dt must be positive, (N - 1) dt and every drive value
    finite, and bin j must start at j dt and drive u_m, u_r <= 1, both to a
    relative 1e-9.  Any malformed input raises ValueError.
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
    rows: list[str] = []
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != PULSE_CSV_HEADER:
        raise ValueError("not a pulse checkpoint: missing header")
    for ln in lines[1:]:
        if ln.startswith("#"):
            key, _, value = ln.lstrip("# ").partition("=")
            meta[key.strip()] = value.strip()
        elif ln.count(",") != 5:
            raise ValueError(f"malformed pulse row: {ln!r}")
        else:
            rows.append(ln)
    if not rows:
        raise ValueError("pulse checkpoint has no rows")
    table = np.array(",".join(rows).split(","), dtype=float).reshape(-1, 6)  # one conversion
    if not np.array_equal(table[:, 0], j := np.arange(n := len(table))):
        raise ValueError("pulse checkpoint: bin column is not 0..N-1")
    if "bins" in meta and int(meta["bins"]) != n:
        raise ValueError(f"pulse checkpoint: {n} rows under bins={meta['bins']}")
    if "total_time" in meta and "bins" in meta:
        dt = float(meta["total_time"]) / int(meta["bins"])
    elif n > 1:
        dt = float(table[1, 1]) - float(table[0, 1])
    else:
        raise ValueError("cannot infer bin duration: no config block, single row")
    if not (math.isfinite(last := (n - 1) * dt) and dt > 0.0):
        raise ValueError(f"pulse checkpoint: dt = {dt:g}, last bin start (N - 1) dt = {last:g}")
    half = table[:, 1] / 2.0 - j * (dt / 2.0)  # halved, so finite
    if not np.all(np.abs(half) <= 1e-9 * np.maximum(j, 1) * (dt / 2.0)):
        raise ValueError("pulse checkpoint: t_start is not bin * dt")
    with np.errstate(over="ignore"):  # a phase past the float range is caught below
        pulses = table[:, 2:] * (1.0, PI, 1.0, PI)
    if not np.all(np.isfinite(pulses)):
        raise ValueError("pulse checkpoint: non-finite drive amplitude or phase")
    if not np.all(pulses[:, (0, 2)] <= 1.0 + 1e-9):
        raise ValueError("pulse checkpoint: drive amplitude above 1")
    return pulses_to_schedule(pulses, dt), meta
