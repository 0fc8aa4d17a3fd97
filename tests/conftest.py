"""Shared oracle constants and random-matrix helpers for the test suite."""

import tracemalloc

import numpy as np
import pytest

SQRT2 = np.sqrt(2.0)

# The target entangling gate written out by hand, as `sequential_gate`
# writes it; tests that propagate the segments tie it to the physics.
USQ = (
    np.array(
        [[1.0, 1.0, 0.0], [0.0, 0.0, -SQRT2], [-1.0, 1.0, 0.0]],
        dtype=complex,
    )
    / SQRT2
)

# Bare transition operators, built from scratch so operator tests do not
# lean on the module under test.  Basis row order (|0>, |2>, |3>).
def op(row: int, col: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[row, col] = 1.0
    return m


Y20 = 1j * (op(1, 0) - op(0, 1))
Y23 = 1j * (op(1, 2) - op(2, 1))
X20 = op(1, 0) + op(0, 1)
X23 = op(1, 2) + op(2, 1)
ZHAT = np.diag([-1.0, 2.0, -1.0]).astype(complex)


def bin_hamiltonian(u, detuning=0.0) -> np.ndarray:
    """One bin's Hamiltonian at controls u = (u1, u2, u3, u4) and detuning d,
    u1 X20 + u2 Y20 + u3 X23 + u4 Y23 + (d/3) ZHAT, from the operators above."""
    u1, u2, u3, u4 = u
    return u1 * X20 + u2 * Y20 + u3 * X23 + u4 * Y23 + detuning / 3 * ZHAT


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def segment_schedule(rows):
    """A schedule of (channel, area, phase) rows, one bin per row driving
    "MW" or "RF" at unit amplitude for its area, through `_drive_controls`."""
    from pulseforge import ControlSchedule
    from pulseforge.sequences import _drive_controls

    drives = np.zeros((len(rows), 4))
    for j, (channel, _, theta) in enumerate(rows):
        c = 0 if channel == "MW" else 2
        drives[j, c : c + 2] = 1.0, theta
    return ControlSchedule(_drive_controls(drives), [tau for _, tau, _ in rows])


def traced_peak(fn) -> int:
    """Peak traced bytes of one call of fn, after one warm call, so that
    first-call allocations (caches, lazy imports) stay out of the count."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def usq() -> np.ndarray:
    return USQ.copy()


def probe_gradient_fd(schedule, target, kind, fractions, penalty, n_probes, rng, h=1e-6):
    """Analytic gradient entries paired with central finite differences.

    Probes random (bin, control) coordinates of the penalized objective.
    Returns an (n_probes, 2) array of (analytic, finite-difference) pairs.
    """
    from pulseforge import ControlSchedule, gradient, performance

    g = gradient(schedule, target, kind, fractions, penalty)
    pairs = []
    for _ in range(n_probes):
        j = int(rng.integers(schedule.bins))
        k = int(rng.integers(4))
        up = schedule.u.copy()
        up[j, k] += h
        um = schedule.u.copy()
        um[j, k] -= h
        jp = performance(
            ControlSchedule(up, schedule.dt), target, kind, fractions, penalty
        )
        jm = performance(
            ControlSchedule(um, schedule.dt), target, kind, fractions, penalty
        )
        pairs.append((g[j, k], (jp - jm) / (2 * h)))
    return np.asarray(pairs)
