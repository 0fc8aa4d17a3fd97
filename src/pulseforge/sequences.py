"""Sequential, BB1 and CORPSE pulse constructions with exact propagators.

Every pulse is a `ControlSchedule`: N piecewise-constant control bins,
controls `u` (N, 4) and durations `dt`, one for every bin or one per bin.
Bin index 0 acts first.  The built-in schemes are `COMPOSITES` rows of
rectangular segments, each driving one transition (MW on |0>-|2>, RF on
|2>-|3>) at unit amplitude u = Lambda for a dimensionless area tau with a
fixed drive phase; `composite` makes each row one bin lasting its area.
`_drive_controls` is the one drive map, for segments and pulse
checkpoints alike.

Systematic errors distort every bin identically.  The engine takes them as
E (stretch s, detuning d) pairs, shape (E, 2): a pair stretches every bin
to (1 + s) t and adds the drift (d/3) Z_TOTAL.  `error_pairs` maps an
`ErrorKind` and its fractions to pairs: a pulse-length error (PLE)
eps_f = (T' - T)/T is (eps_f, 0), an off-resonance error (ORE), the
detuning eps_g Lambda, is (0, eps_g), and NONE is (0, 0).  Only
`_error_terms` applies the pairs and only `_bin_exponentials` exponentiates
bins, by real cos and sin, into matrix-first (3, 3, N, E) stacks; `gates`
multiplies them by `_matmul3`, the GRAPE objective differentiates them by
the Psi stack `bin_propagators` writes on request, and `propagator`
returns a pulse's (E, 3, 3) gates at an `ErrorKind` and E fractions.

Every bin generator is a Lambda system: |2> couples to |0> (MW) and |3>
(RF), and the detuning drift gives |0> and |3> the same energy.  So the
dark state, the superposition of |0> and |3> that the drives cancel on,
is an exact eigenvector, and what remains is a 2x2 block of the bright
state and |2>.  So each bin's exponential is written out entry by entry
from its bright state and one mixing angle; no eigensolver runs per bin.

The composite constructions store the exact closed-form correction
phases/angles rather than their two-decimal roundings.  The rounded
values fail the zero-error identity by 1e-2 and spoil the BB1 error
cancellation order, while the exact ones round to the published numbers;
see the tests for the consistency checks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import CONTROL_HAMILTONIANS, Z_TOTAL

__all__ = [
    "ErrorKind",
    "error_pairs",
    "ControlSchedule",
    "bin_generators",
    "bin_propagators",
    "gates",
    "propagator",
    "sequential_gate",
    "COMPOSITES",
    "composite",
    "sequence_table",
]

PI = math.pi
SQRT2 = math.sqrt(2.0)


class ErrorKind(enum.Enum):
    NONE = "none"
    PLE = "ple"
    ORE = "ore"


def error_pairs(kind: ErrorKind, fractions) -> np.ndarray:
    """The checked (stretch, detuning) pairs a gate stack is evaluated at, (E, 2).

    Fractions must be finite with |eps| <= 1.  PLE and ORE need at least
    one and put it in column 0 (stretch) or 1 (detuning); kind NONE takes
    none or zeros and gives the single pair (0, 0).
    """
    eps = np.array(fractions, dtype=float).reshape(-1)
    if not np.all(np.abs(eps) <= 1.0):
        worst = np.max(np.abs(eps))
        raise ValueError(f"error fractions need |eps| <= 1, got |eps| = {worst:g}")
    if kind is ErrorKind.NONE:
        if np.any(eps != 0.0):
            raise ValueError("ideal error model carries no fraction")
        return np.zeros((1, 2))
    if eps.size == 0:
        raise ValueError(f"{kind.value} error needs at least one fraction")
    pairs = np.zeros((eps.size, 2))
    pairs[:, 0 if kind is ErrorKind.PLE else 1] = eps
    return pairs


def _drive_controls(drives: np.ndarray) -> np.ndarray:
    """Controls (N, 4) from float drives (u_m, theta_m, u_r, theta_r) (N, 4): a
    channel at amplitude A and phase theta gets -(A/2)(cos theta, sin theta)."""
    u = np.empty_like(drives)
    u[:, 0::2] = -0.5 * drives[:, 0::2] * np.cos(drives[:, 1::2])
    u[:, 1::2] = -0.5 * drives[:, 0::2] * np.sin(drives[:, 1::2])
    return u


@dataclass(frozen=True)
class ControlSchedule:
    """N x 4 piecewise-constant control amplitudes with bin durations dt.

    Bin 0 acts first.  `dt` is one duration for every bin or a read-only
    (N,) array of them, each finite and positive.  The optimizer keeps
    every channel pair inside the radial bound |(u1,u2)|, |(u3,u4)| < 1/2;
    the constructor only checks shapes, finiteness and positive durations
    so that probe schedules for gradient tests are unrestricted.
    """

    u: np.ndarray
    dt: float | np.ndarray

    def __post_init__(self) -> None:
        u = np.array(self.u, dtype=float)
        if u.ndim != 2 or u.shape[1] != 4 or u.shape[0] < 1:
            raise ValueError(f"controls must be (N, 4) with N >= 1, got {u.shape}")
        if not np.all(np.isfinite(u)):
            raise ValueError("controls must be finite")
        dt = np.array(self.dt, dtype=float)
        if dt.shape not in ((), u.shape[:1]):
            raise ValueError(f"bin durations must be one or ({len(u)},), got {dt.shape}")
        if not np.all(np.isfinite(dt) & (dt > 0)):
            raise ValueError(f"bin duration must be finite and positive, got {self.dt}")
        u.flags.writeable = dt.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "dt", dt if dt.ndim else float(dt))

    @property
    def bins(self) -> int:
        return self.u.shape[0]

    @property
    def duration(self) -> float:
        """bins * dt, or the left-to-right sum of per-bin durations."""
        return sum(self.dt.tolist()) if np.ndim(self.dt) else self.bins * self.dt


def _error_terms(durations, bins: int, errors):
    """Bin durations (E, N) under the (E, 2) error pairs, and the drift.

    A pair (s, d) stretches every duration, t -> (1 + s) t, and adds the
    drift (d/3) Z_TOTAL, whose coefficients d/3 come back with shape (E,),
    or (1,) when no pair detunes, so one eigenbasis serves every pair.
    """
    times = np.broadcast_to(np.asarray(durations, dtype=float), (bins,))
    stretch, detuning = np.asarray(errors, dtype=float).T
    drift = detuning / 3.0 if detuning.any() else np.zeros(1)
    return (1.0 + stretch)[:, None] * times, drift


def bin_generators(controls, durations, errors):
    """Generators H_j and durations t_j of every bin under the error, unchecked.

    `controls` is (N, 4) and gives H_j = sum_k u_jk H_k; `durations` is a
    scalar or (N,); `errors` is (E, 2) as from `error_pairs`.  The pairs
    enter as in `_error_terms`: H is (E or 1, N, 3, 3), t is (E, N), and
    exp(-i t H) broadcasts to (E, N, 3, 3).  A bin driven at amplitudes
    u_m, u_r and phases theta_m, theta_r (`_drive_controls`) under the
    detuning d thus has the effective Hamiltonian

        (d/3) Z_TOTAL
        - (u_m/2)(cos(theta_m) sigma_x^20 + sin(theta_m) sigma_y^20)
        - (u_r/2)(cos(theta_r) sigma_x^23 + sin(theta_r) sigma_y^23).
    """
    gen = np.einsum("jk,kab->jab", controls, CONTROL_HAMILTONIANS)
    times, drift = _error_terms(durations, len(gen), errors)
    return gen + drift[:, None, None, None] * Z_TOTAL, times


def _matmul3(a: np.ndarray, b: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """a @ b over broadcast matrix-first (3, 3, ...) stacks, k summed in order,
    into `out` (no input), terms 2 and 3 via `tmp`, each allocated if not given.
    Given both, 0.09 ms at (3, 3, 400, 5), 0.15 ms with a (3, 3, 400, 1) a; `@`
    on (400, 5, 3, 3) takes 0.6 ms (best of 5 x 50, one numpy thread, 2-core Xeon)."""
    out = np.multiply(a[:, :1], b[:1], out=out)
    tmp = np.empty_like(out) if tmp is None else tmp
    for k in (1, 2):
        out += np.multiply(a[:, k : k + 1], b[k : k + 1], out=tmp)
    return out


def _bright_states(controls):
    """Per-bin control-only terms, each (N, 1): r, bx, by, |bx|^2, |by|^2, bx by*."""
    u = np.asarray(controls, dtype=float)
    x = u[:, 0] - 1j * u[:, 1]
    y = u[:, 2] + 1j * u[:, 3]
    r = np.hypot(np.abs(x), np.abs(y))
    silent = r == 0.0
    r_safe = np.where(silent, 1.0, r)
    bx = np.where(silent, 1.0, x / r_safe)
    by = y.conj() / r_safe
    terms = r, bx, by, bx.real**2 + bx.imag**2, by.real**2 + by.imag**2, bx * by.conj()
    return tuple(term[:, None] for term in terms)


def _bin_exponentials(bright, times, drift, props=None, psi=None):
    """The mixing angle's cos and sin, t w and e^{-i t w} (3, N, E) and the bin
    propagators (3, 3, N, E), written entry by entry into `props` or a new
    stack, from the durations (E, N) and drift of `_error_terms`; with `psi`
    (6, N, E), also Psi there, its reals held in its own planes."""
    r, bx, by, bx2, by2, bxy = bright
    a, b = -drift, 2.0 * drift  # the diagonal of drift * Z_TOTAL
    phi = 0.5 * np.arctan2(2.0 * r, b - a)
    c, s = np.cos(phi), np.sin(phi)
    m, h = 0.5 * (a + b), np.hypot(0.5 * (b - a), r)
    tw = np.empty((3,) + times.T.shape)  # t w, w = (m - h, a, m + h)
    tw[0], tw[1], tw[2] = times.T * (m - h), times.T * a, times.T * (m + h)
    e0, e1, e2 = phases = np.empty(tw.shape, dtype=complex)  # as np.exp(-1j * tw)
    np.cos(tw, out=phases.real)
    np.negative(np.sin(tw, out=phases.imag), out=phases.imag)
    cc, ss = c * c, s * s
    p, q = cc * e0 + ss * e2, c * s * (e2 - e0)
    props = np.empty((3, 3) + tw.shape[1:], dtype=complex) if props is None else props
    props[0, 0], props[2, 2] = bx2 * p + by2 * e1, by2 * p + bx2 * e1
    props[1, 1] = ss * e0 + cc * e2
    p -= e1
    props[0, 2], props[2, 0] = bxy * p, bxy.conj() * p
    props[0, 1], props[2, 1] = bx * q, by * q
    props[1, 0], props[1, 2] = bx.conj() * q, by.conj() * q
    if psi is not None:  # Psi_ab = -i t e^{-i theta} sinc theta at the half gaps theta
        theta, sinc, sin, cos = psi[:3].real, psi[:3].imag, psi[3:].real, psi[3:].imag
        np.multiply(tw[[0, 0, 1]] - tw[[2, 1, 2]], 0.5, out=theta)  # ab = 02, 01, 12
        np.sin(theta, out=sin)
        np.cos(theta, out=cos)
        sinc.fill(1.0)  # its limit at theta = 0
        np.divide(sin, theta, out=sinc, where=theta != 0.0)
        sinc *= -times.T
        sin *= sinc
        cos *= sinc
        np.negative(np.conjugate(psi[3:], out=psi[:3]), out=psi[:3])  # Psi_ba = -Psi_ab*
    return c, s, tw, phases, props


def bin_propagators(controls, durations, errors, props=None, v=None, psi=None):
    """Every bin's exponential under the error pairs, matrix-first, unchecked.

    Arguments as for `bin_generators`.  Returns t (N, E), t w (3, N, E),
    V (3, 3, N, E or 1) and U_j = V diag(e^{-i t w}) V^dag (3, 3, N, E).
    The eigensystem w, V is closed-form, so long products stay unitary to
    machine precision.  Every generator is the Lambda system

        [[a, x, 0], [x*, b, y], [0, y*, a]],  x = u1 - i u2,  y = u3 + i u4,

    with a = -d/3 and b = 2 d/3 at the detuning d.  With r = |(x, y)|, the
    dark state (y, 0, -x*)/r has eigenvalue a, and the bright state
    (bx, 0, by) = (x, 0, y*)/r spans with |2> the block [[a, r], [r, b]],
    whose eigenvalues (a + b)/2 -+ hypot((b - a)/2, r) and eigenvectors
    -c bright + s |2>, s bright + c |2>, (c, s) = (cos, sin) of
    phi = atan2(2 r, b - a) / 2, fill V's columns 0 and 2.  A silent bin
    (r = 0) takes |0> as its bright state and so -|3> as its dark state.
    Dark and bright states depend on the controls only, so when no pair
    detunes one V serves every pair.  U is written out: with
    e_k = e^{-i t w_k}, p = c^2 e_0 + s^2 e_2 and q = c s (e_2 - e_0),
    U_00 = |bx|^2 p + |by|^2 e_1, U_22 = |by|^2 p + |bx|^2 e_1,
    U_11 = s^2 e_0 + c^2 e_2, (U_02, U_20) = (bx by*, by bx*) (p - e_1),
    (U_01, U_21, U_10, U_12) = (bx, by, bx*, by*) q, each e_k by one real cos
    and sin.  U and V are written into `props` and `v` when given, and
    returned; a (6, N, E) `psi` gets Psi_ab = -i t e^{-i theta} sinc theta,
    theta = t (w_a - w_b)/2, at ab = 20, 10, 21, 02, 01, 12 from one cos and
    sin of theta, sinc theta = sin theta / theta (1 at 0), Psi_ba = -Psi_ab*.
    """
    bright = _bright_states(controls)
    times, drift = _error_terms(durations, len(bright[0]), errors)
    c, s, tw, _, props = _bin_exponentials(bright, times, drift, props, psi)
    bx, by = bright[1:3]
    v = np.empty((3, 3) + c.shape, dtype=complex) if v is None else v
    v[0, 0], v[1, 0], v[2, 0] = -c * bx, s, -c * by
    v[0, 1], v[1, 1], v[2, 1] = by.conj(), 0.0, -bx.conj()
    v[0, 2], v[1, 2], v[2, 2] = s * bx, c, s * by
    t = np.broadcast_to(times.T, tw.shape[1:])
    return t, tw, v, props


# Fraction x bin propagators `gates` writes out at once, within one bin block.
BLOCK_PROPAGATORS = 512


def gates(controls, durations, errors) -> np.ndarray:
    """U_N ... U_2 U_1 for every error pair, shape (E, 3, 3), unchecked.

    Arguments as for `bin_generators`.  Over blocks of isqrt(N) bins, the
    last one ragged, each block's (3, 3, E) bin propagators are multiplied
    in bin order and the block product into the running gate, the GRAPE
    objective's order.  The bright states are found once per pulse; a
    block's bins are written out entry by entry, with no V, in chunks of
    max(1, BLOCK_PROPAGATORS // E), so memory stays bounded on dense grids.
    """
    n = len(controls)
    times = np.broadcast_to(np.asarray(durations, dtype=float), (n,))
    scale, drift = _error_terms(1.0, 1, errors)  # stretches 1 + s, (E, 1)
    bright = _bright_states(controls)
    size, step = math.isqrt(n), max(1, BLOCK_PROPAGATORS // len(errors))
    tmp = np.empty((3, 3, len(errors)), dtype=complex)
    out = None
    for first in range(0, n, size):
        block = None
        for start in range(first, min(first + size, n), step):
            chunk = slice(start, min(start + step, first + size))
            bins = [t[chunk] for t in bright]
            props = _bin_exponentials(bins, scale * times[chunk], drift)[-1]
            for prop in np.moveaxis(props, 2, 0):
                block = prop if block is None else _matmul3(prop, block, tmp=tmp)
        out = block if out is None else _matmul3(block, out, tmp=tmp)
    return np.moveaxis(out, 2, 0).copy()


def propagator(pulse, kind: ErrorKind, fractions=(0.0,)) -> np.ndarray:
    """Gates of a pulse, one per error fraction, shape (E, 3, 3).

    The pulse is a `ControlSchedule`, or anything with controls `u` (N, 4)
    and bin durations `dt`, a scalar or (N,).
    """
    return gates(pulse.u, pulse.dt, error_pairs(kind, fractions))


def sequential_gate() -> np.ndarray:
    """The target entangling gate U_sq = U_r U_m.

    U_m = exp(i (pi/4) sigma_y^20), U_r = exp(i (pi/2) sigma_y^23), giving

        (1/sqrt2) [[1, 1, 0], [0, 0, -sqrt2], [-1, 1, 0]]

    which maps |0> to the Bell-like state (|0> - |3>)/sqrt2.  The matrix
    is written out; `composite("sequential")` propagates to it.
    """
    return np.array(
        [[1.0, 1.0, 0.0], [0.0, 0.0, -SQRT2], [-1.0, 1.0, 0.0]], dtype=complex
    ) / SQRT2


def _bb1_block(channel: str, tau: float, base: float) -> tuple:
    # Wimperis correction, inserted at the target rotation's midpoint:
    # phi = base + arccos(-tau/(4 pi)), companion 2pi pulse at base + 3(phi - base).
    phi = base + math.acos(-tau / (4.0 * PI))
    psi = base + 3.0 * (phi - base)
    return (
        (channel, tau / 2.0, base),
        (channel, PI, phi),
        (channel, 2.0 * PI, psi),
        (channel, PI, phi),
        (channel, tau / 2.0, base),
    )


def _corpse_block(channel: str, theta: float, base: float) -> tuple:
    # kappa = arcsin(sin(theta/2)/2); areas (theta/2 - kappa, 2pi - 2 kappa,
    # 2pi + theta/2 - kappa) about (+, -, +) the base axis, smallest first.
    kappa = math.asin(math.sin(theta / 2.0) / 2.0)
    return (
        (channel, theta / 2.0 - kappa, base),
        (channel, 2.0 * PI - 2.0 * kappa, base - PI),
        (channel, 2.0 * PI + theta / 2.0 - kappa, base),
    )


# The built-in schemes as (channel, area tau, phase theta) rows, index 0
# first, each at unit amplitude on channel "MW" or "RF".  Sequential: MW
# pi/2 area then RF pi area, both y-phase, 1.5 pi in all.  BB1, ten rows:
# the MW block corrects the pi/2 rotation (phases 1.0399 pi and 2.1197 pi,
# printed as 1.04 pi / 2.12 pi), the RF block the pi rotation (1.0804 pi
# and 2.2413 pi, printed as 1.08 pi / 2.24 pi); 9.5 pi in all, 4.5 pi MW
# plus 5 pi RF.  CORPSE, six rows: MW areas 0.13497 pi / 1.76995 pi /
# 2.13497 pi (printed 0.14 / 1.77 / 2.14), RF areas exactly pi/3, 5 pi/3,
# 7 pi/3; 8.3732 pi in all, 5.582 times the sequential gate.
COMPOSITES = {
    "sequential": (("MW", PI / 2.0, PI / 2.0), ("RF", PI, PI / 2.0)),
    "bb1": _bb1_block("MW", PI / 2.0, PI / 2.0) + _bb1_block("RF", PI, PI / 2.0),
    "corpse": _corpse_block("MW", PI / 2.0, PI / 2.0) + _corpse_block("RF", PI, PI / 2.0),
}


def composite(name: str) -> ControlSchedule:
    """A `COMPOSITES` scheme as a schedule: one bin per row, driving the row's
    channel at unit amplitude and its phase for a duration of its area."""
    rows = COMPOSITES[name]
    drives = np.zeros((len(rows), 4))
    for j, (channel, _, theta) in enumerate(rows):
        c = 0 if channel == "MW" else 2
        drives[j, c : c + 2] = 1.0, theta
    return ControlSchedule(_drive_controls(drives), np.array([tau for _, tau, _ in rows]))


def sequence_table(name: str) -> str:
    """A scheme's stored rows as CSV text: idx,channel,tau_over_pi,theta_over_pi."""
    lines = ["idx,channel,tau_over_pi,theta_over_pi"]
    for i, (channel, tau, theta) in enumerate(COMPOSITES[name]):
        lines.append(f"{i},{channel},{tau / PI:.9g},{theta / PI:.9g}")
    return "\n".join(lines) + "\n"


def _write_text(destination, text: str, what: str) -> None:
    """Write text to a path or a text stream; a failed path write names both."""
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        with open(destination, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {destination}: {exc}") from exc

