"""Sequential, BB1 and CORPSE pulse constructions with exact propagators.

Every pulse is a `ControlSchedule`: N piecewise-constant control bins,
controls `u` (N, 4) and durations `dt`, one for every bin or one per bin.
Bin index 0 acts first.  The built-in schemes are `COMPOSITES` rows of
rectangular segments, each driving one transition (MW on |0>-|2>, RF on
|2>-|3>) at unit amplitude u = Lambda for a dimensionless area tau with a
fixed drive phase; `composite` makes each row one bin lasting its area.
`_drive_controls` is the one drive map, for segments and pulse checkpoints
alike; `pulses_to_schedule` checks drives (u_m, theta_m, u_r, theta_r) per
bin and maps them, and `schedule_to_pulses` is its inverse.

Systematic errors distort every bin identically.  The engine takes them as
E (stretch s, detuning d) pairs, shape (E, 2): a pair stretches every bin
to (1 + s) t and adds the drift (d/3) Z_TOTAL.  `error_pairs` maps an
`ErrorKind` and its fractions to pairs: a pulse-length error (PLE)
eps_f = (T' - T)/T is (eps_f, 0), an off-resonance error (ORE), the
detuning eps_g Lambda, is (0, eps_g), and NONE is (0, 0).  Only
`_error_terms` reads the pairs and only `_bin_exponentials` exponentiates
bins, by real cos and sin; `propagator` returns a pulse's (E, 3, 3) gates at
an `ErrorKind` and E fractions, all E stepped in one bin loop.

Every bin generator is a Lambda system: |2> couples to |0> (MW) and |3>
(RF), and the detuning drift gives |0> and |3> the same energy.  So the
dark state, the superposition of |0> and |3> that the drives cancel on,
is an exact eigenvector, and what remains is a 2x2 block of the bright
state and |2> with one mixing angle; no eigensolver runs per bin.  In the
basis B = [bright | |2> | dark] a bin acts by one 2x2 block and a phase, and
consecutive bases differ by a 2x2 unitary of the controls.  `gates` and the
GRAPE objective step each bin by one 3x3 product with that turn folded into
the bin's step matrix (`_step_matrices`).

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

__all__ = [
    "ErrorKind",
    "error_pairs",
    "ControlSchedule",
    "schedule_to_pulses",
    "pulses_to_schedule",
    "gates",
    "propagator",
    "sequential_gate",
    "COMPOSITES",
    "composite",
    "sequence_table",
]

PI = math.pi
TWO_PI = 2.0 * PI
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


def schedule_to_pulses(s: ControlSchedule) -> np.ndarray:
    """Per-bin drives (u_m, theta_m, u_r, theta_r), theta in [0, 2pi): the inverse
    of `_drive_controls` on both channels' (cos, sin) slices at once."""
    u_cos, u_sin = s.u[:, 0::2], s.u[:, 1::2]
    amp, theta = 2.0 * np.hypot(u_cos, u_sin), np.mod(np.arctan2(-u_sin, -u_cos), TWO_PI)
    # mod can round up to the period; a silent channel's atan2 of signed zeros is noise
    theta[(theta >= TWO_PI) | (amp == 0.0)] = 0.0
    out = np.empty((s.bins, 4))
    out[:, 0::2], out[:, 1::2] = amp, theta
    return out


def pulses_to_schedule(pulses: np.ndarray, dt: float) -> ControlSchedule:
    """Inverse of schedule_to_pulses: (u_m, theta_m, u_r, theta_r) -> u1..u4."""
    p = np.asarray(pulses, dtype=float)
    if p.ndim != 2 or p.shape[1] != 4:
        raise ValueError(f"pulses must be (N, 4), got {p.shape}")
    if np.any(p[:, (0, 2)] < 0.0) or not np.all(np.isfinite(p)):
        raise ValueError("pulse amplitudes must be finite and >= 0")
    return ControlSchedule(u=_drive_controls(p), dt=dt)


def _error_terms(errors):
    """The stretches 1 + s (E, 1) of the (E, 2) error pairs, and the drift.

    A pair (s, d) stretches every bin duration, t -> (1 + s) t, and adds the
    drift (d/3) Z_TOTAL, whose coefficients d/3 come back with shape (E,),
    or (1,) when no pair detunes, so one eigenbasis serves every pair.
    """
    stretch, detuning = np.asarray(errors, dtype=float).T
    drift = detuning / 3.0 if detuning.any() else np.zeros(1)
    return (1.0 + stretch)[:, None], drift


def _matmul3(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """a @ b over broadcast matrix-first (3, 3, ...) stacks, k summed in order,
    into `out` (no input).  A `tmp` of out's shape takes terms 2 and 3; a
    (3, 3, 3, ...) one takes every a_ik b_kj at once, summed over k by one
    ordered reduce from -0, which adds exactly: the same bytes, signed zeros
    included, in 2 numpy calls, not 5, which pays on small stacks.  0.10 ms at
    (3, 3, 400, 5), 0.15 ms with a (3, 3, 400, 1) a; `@` on (400, 5, 3, 3)
    takes 0.52 ms (best of 5 x 50, one numpy thread, 2-core Xeon)."""
    if tmp.ndim > out.ndim:  # -0j is complex(-0.0, -0.0), a constant
        terms = np.multiply(a[:, :, None], b[None], out=tmp)
        return np.add.reduce(terms, axis=1, out=out, initial=-0j)
    out = np.multiply(a[:, :1], b[:1], out=out)
    for k in (1, 2):
        out += np.multiply(a[:, k : k + 1], b[k : k + 1], out=tmp)
    return out


def _matmul2(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """a @ b for a matrix-first (2, 2, ...) a on two rows b (2, ...), as the GRAPE
    objective's R^T: each a_ik broadcast along row k, out_i = a_i0 b_0 + a_i1 b_1
    summed in order as in `_matmul3`.  The products go to `tmp` first, so out may be b."""
    tmp = np.multiply(a, b, out=tmp)
    return np.add(tmp[:, 0], tmp[:, 1], out=out)


def _bright_states(controls):
    """Per-bin control-only terms r, bx, by, each (N, 1)."""
    u = np.asarray(controls, dtype=float)
    x = u[:, 0] - 1j * u[:, 1]
    y = u[:, 2] + 1j * u[:, 3]
    r = np.hypot(np.abs(x), np.abs(y))
    silent = r == 0.0
    r_safe = np.where(silent, 1.0, r)
    bx = np.where(silent, 1.0, x / r_safe)
    return r[:, None], bx[:, None], (y.conj() / r_safe)[:, None]


def _bin_exponentials(bright, times, drift, blocks, psi=None):
    """Every bin's exponential in its bright/dark basis, closed-form, unchecked.

    From `_bright_states`' (r, bx, by) and `_error_terms`' durations t (E, N)
    and drift d/3.  Every generator is [[a, x, 0], [x*, b, y], [0, y*, a]],
    x = u1 - i u2, y = u3 + i u4, a = -d/3, b = 2 d/3.  With r = |(x, y)|, the
    dark state (y, 0, -x*)/r has eigenvalue a, and the bright state (bx, 0, by)
    = (x, 0, y*)/r spans with |2> the block [[a, r], [r, b]]: eigenvalues
    (a + b)/2 -+ hypot((b - a)/2, r), eigenvectors -c bright + s |2> and
    s bright + c |2>, (c, s) = (cos, sin) of phi = atan2(2 r, b - a) / 2.  A
    silent bin (r = 0) takes |0> as its bright state and -|3> as its dark one.
    Returns c and s (N, E), or (N, 1) when no pair detunes and one angle serves
    every pair; the phases e_k = e^{-i t w_k} (3, N, E), w = (w_0, a, w_2), by
    real cos and sin; and into `blocks` (3, N, E) the bright/|2> block
    [[p, q], [q, p']], p = c^2 e_0 + s^2 e_2, q = c s (e_2 - e_0),
    p' = s^2 e_0 + c^2 e_2, with e_1 on the dark state.  A given (6, N, E)
    `psi` gets Psi_ab = -i t e^{-i theta} sinc theta, theta = t (w_a - w_b)/2,
    at ab = 20, 10, 21, 02, 01, 12 (sinc 1 at 0), Psi_ba = -Psi_ab*.

    With no detuning, a = -0, w_2 = h and w_0 = -h, or +0 where h = 0.  Then
    one cos and one sin of t h give e_2, e_0 = e_2* up to the sign of w_0, and
    e_1 = 1; Psi_02's gap t w_0 reuses e_0 and the sin of t h, and Psi_01 and
    Psi_12, whose gaps are -t h/2 up to the sign of a zero, share one cos, sin
    and sinc: 4 trig arrays and 2 divides, not 12 and 3, for the same bytes.
    """
    a, b = -drift, 2.0 * drift  # the diagonal of drift * Z_TOTAL
    phi = 0.5 * np.arctan2(2.0 * bright[0], b - a)
    c, s = np.cos(phi), np.sin(phi, out=phi)
    m, h = 0.5 * (a + b), np.hypot(0.5 * (b - a), bright[0])
    tw = np.empty((3,) + times.T.shape)  # t w, w = (m - h, a, m + h)
    if detuned := drift.any():
        tw[0], tw[1] = times.T * (m - h), times.T * a
    tw[2] = times.T * (m + h)
    e0, e1, e2 = phases = np.empty(tw.shape, dtype=complex)  # as np.exp(-1j * tw)
    k = 0 if detuned else 2  # the phases taken by cos and sin
    np.cos(tw[k:], out=phases.real[k:])
    np.negative(np.sin(tw[k:], out=phases.imag[k:]), out=phases.imag[k:])
    if not detuned:  # t w_0 = sgn(w_0) t w_2, sin odd and cos even
        e0.real, e0.imag, e1[...] = e2.real, np.copysign(1.0, m - h) * e2.imag, 1.0
    p, q, p_ = blocks  # p = e_0 + s^2 (e_2 - e_0), q = c s (e_2 - e_0), p' = e_2 - s^2 (e_2 - e_0)
    np.multiply(s * s, np.subtract(e2, e0, out=q), out=p_)
    np.add(e0, p_, out=p)
    np.subtract(e2, p_, out=p_)
    q *= c * s
    if psi is not None:  # Psi_ab = -i t e^{-i theta} sinc theta at the half gaps theta
        g = 3 if detuned else 2  # ab = 02, 01, 12, or 02, 01 and Psi_12 from Psi_01
        theta, sinc, sin, cos = psi[:g].real, psi[:g].imag, psi[3 : 3 + g].real, psi[3 : 3 + g].imag
        if detuned:
            np.multiply(tw[[0, 0, 1]] - tw[[2, 1, 2]], 0.5, out=theta)
        else:  # theta_02 = t w_0, whose e^{-i theta} is e_0, and theta_01 = (0 - t h)/2
            theta[0], sin[0], cos[0] = times.T * (m - h), -e0.imag, e0.real
            np.multiply(np.subtract(0.0, tw[2], out=theta[1]), 0.5, out=theta[1])
        np.sin(theta[3 - g :], out=sin[3 - g :])  # every gap, or 01 alone
        np.cos(theta[3 - g :], out=cos[3 - g :])
        sinc.fill(1.0)  # its limit at theta = 0
        np.divide(sin, theta, out=sinc, where=theta != 0.0)
        sinc *= -times.T
        sin *= sinc
        cos *= sinc
        if not detuned:  # theta_12 is theta_01 but -0 for +0 at t h = 0: Psi_12's real 0 is +0
            psi[5].real, psi[5].imag = psi[4].real + 0.0, psi[4].imag
        psi[:3].real, psi[:3].imag = -psi[3:].real, psi[3:].imag  # Psi_ba = -Psi_ab*
    return c, s, phases, blocks


def _turns(bx, by, ends) -> np.ndarray:
    """Each bin's turn B'^dag B, [[a, b], [-b*, a*]] on (bright (bx, 0, by), dark
    (-by*, 0, bx*)), into the next bin's basis along axis 0 or, where `ends`
    holds, into the lab, the basis of a silent bin (bright |0>, dark |3>).
    The next bin's (bx, by) is a shifted slice; `ends` must hold on the last."""
    to_bx, to_by = np.empty_like(bx), np.empty_like(by)
    to_bx[:-1], to_by[:-1] = bx[1:], by[1:]
    np.copyto(to_bx, 1.0, where=ends)
    np.copyto(to_by, 0.0, where=ends)
    a = to_bx.conj() * bx + to_by.conj() * by
    b = to_by.conj() * bx.conj() - to_bx.conj() * by.conj()
    return np.array([[a, b], [-b.conj(), a.conj()]])


def _basis_start(bx, by, out) -> np.ndarray:
    """B^dag, a block's first Y, into out (3, 3, ...)."""
    out.fill(0.0)
    out[0, 0], out[0, 2], out[1, 1], out[2, 0], out[2, 2] = bx.conj(), by.conj(), 1.0, -by, bx
    return out


def _step_matrices(blocks, e1, turns, out) -> np.ndarray:
    """Each bin's step M = T S into out (3, 3, ...), its turn T = [[a, b], [-b*, a*]]
    (`_turns`, on bright and dark) folded into S = [[p, q, 0], [q, p', 0],
    [0, 0, e_1]]: rows (a p, a q, b e_1), (q, p', 0), (-b* p, -b* q, a* e_1),
    every entry written out of place by its own product, the turn entry
    broadcast along the pairs only.  Then Y -> M Y is one `_matmul3`."""
    for i, (t0, t1) in zip((0, 2), turns):
        np.multiply(t0, blocks[0], out=out[i, 0])
        np.multiply(t0, blocks[1], out=out[i, 1])
        np.multiply(t1, e1, out=out[i, 2])
    out[1, :2], out[1, 2] = blocks[1:], 0.0
    return out


# The most error pairs `gates` steps through a (3, 3, 3, E) terms stack, enough
# for ORE BB1's 53 scan nodes; more take the (3, 3, E) one, and a warm call at
# 401 fractions on 400 bins then peaks at 0.63 MB traced.
PAIRS = 54
# Fraction x bin propagators `gates` exponentiates at once, in chunks of
# consecutive bins that may cross bin blocks: 1080 = 20 x PAIRS, 20 bins per
# chunk at 54 pairs, 2 at 401.
BLOCK_PROPAGATORS = 1080


def gates(controls, durations, errors) -> np.ndarray:
    """U_N ... U_2 U_1 for every error pair, shape (E, 3, 3), unchecked.

    Bin j runs for (1 + s) t_j under sum_k u_jk `linalg.CONTROL_HAMILTONIANS`[k]
    + (d/3) Z_TOTAL at each pair (s, d) of `errors` (E, 2), as from `error_pairs`,
    from controls u (N, 4) and a scalar or (N,) `durations` t, so a one-bin call
    is that bin's exponential.  Over blocks of isqrt(N) bins, the last
    ragged, each block starts from B_f^dag of its first bin f, and each bin
    steps Y_{j+1} = B_{j+1}^dag U_j B_j Y_j, the last bin turning into the lab,
    by its step matrix (`_step_matrices`) and one `_matmul3`.  The block
    products chain by `_matmul3`: the GRAPE objective's order.  (p, q, p') and
    the step matrices come in chunks of max(1, BLOCK_PROPAGATORS // E)
    consecutive bins, which may cross blocks: a block's first bin resets Y to
    its B^dag, and its last chains Y.  Up to PAIRS pairs `_matmul3` takes a
    (3, 3, 3, E) terms stack, above them a (3, 3, E) one; both give the same bytes.
    """
    n, e = len(controls), len(errors)
    if not e:
        return np.empty((0, 3, 3), complex)
    times = np.broadcast_to(np.asarray(durations, dtype=float), (n,))
    _, bx, by = bright = _bright_states(controls)
    size = math.isqrt(n)
    ends = (np.arange(n) % size == size - 1) | (np.arange(n) == n - 1)  # each block's last bin
    turns = _turns(bx, by, ends[:, None])  # (2, 2, N, 1)
    scale, drift = _error_terms(errors)
    step = min(n, max(1, BLOCK_PROPAGATORS // e))
    stack, matrices = np.empty((3, step, e), complex), np.empty((3, 3, step, e), complex)
    y, y_, out = (np.empty((3, 3, e), complex) for _ in range(3))
    terms = np.empty((3, 3, 3, e) if e <= PAIRS else (3, 3, e), complex)  # _matmul3's tmp
    for start in range(0, n, step):
        stop = min(start + step, n)
        part, blocks = [t[start:stop] for t in bright], stack[:, : stop - start]
        e1 = _bin_exponentials(part, scale * times[start:stop], drift, blocks)[2][1]
        m = _step_matrices(blocks, e1, turns[:, :, start:stop], matrices[:, :, : len(e1)])
        for j in range(start, stop):
            if j % size == 0:
                _basis_start(bx[j], by[j], y)
            y, y_ = _matmul3(m[:, :, j - start], y, y_, terms), y
            if j % size < size - 1 and j < n - 1:  # not a block's last bin
                continue
            if j >= size:  # chain the block product y into the running gate, through y_
                out, y_ = _matmul3(y, out, y_, terms), out
            else:
                out, y = y, out
        del e1  # the chunk's phases, before the next chunk's are made
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

