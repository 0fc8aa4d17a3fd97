"""Exact linear algebra for the three-level NV / 13C subspace.

Everything in this package lives on the effective three-level manifold
spanned by (|0>, |2>, |3>), in that fixed row/column order.  |0> and |2>
are connected by the microwave (MW) transition, |2> and |3> by the
radio-frequency (RF) transition; level |1> is decoupled and never
represented.

All quantities are dimensionless: amplitudes in units of the maximum
Rabi amplitude Lambda, times in units of 1/Lambda.  Only the product
amplitude*time enters any propagator, so physical units are applied at
the presentation layer (CLI) and nowhere else.  There is no matrix
exponential here: `sequences.bin_propagators` writes every propagator
down in closed form.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LEVELS",
    "sigma",
    "sigma_x",
    "sigma_y",
    "SIGMA_X_20",
    "SIGMA_Y_20",
    "SIGMA_X_23",
    "SIGMA_Y_23",
    "Z_TOTAL",
    "IDENTITY",
    "gate_fidelity",
]

# Physical level labels and their row/column positions.
LEVELS = (0, 2, 3)
_ROW = {0: 0, 2: 1, 3: 2}


def sigma(p: int, q: int) -> np.ndarray:
    """Transition operator |p><q| on the (|0>,|2>,|3>) basis."""
    if p not in _ROW or q not in _ROW:
        raise ValueError(f"level indices must be in {LEVELS}, got ({p!r}, {q!r})")
    m = np.zeros((3, 3), dtype=complex)
    m[_ROW[p], _ROW[q]] = 1.0
    return m


def sigma_x(p: int, q: int) -> np.ndarray:
    """sigma_x^pq = |p><q| + |q><p|."""
    return sigma(p, q) + sigma(q, p)


def sigma_y(p: int, q: int) -> np.ndarray:
    """sigma_y^pq = i(|p><q| - |q><p|).

    With the fixed basis order this equals the standard Pauli y on the
    (0,2) block but minus the standard Pauli y on the (2,3) block; the
    sign asymmetry is what puts the printed signs into the sequential
    gate, so do not "fix" it.
    """
    return 1j * (sigma(p, q) - sigma(q, p))


SIGMA_X_20 = sigma_x(2, 0)
SIGMA_Y_20 = sigma_y(2, 0)
SIGMA_X_23 = sigma_x(2, 3)
SIGMA_Y_23 = sigma_y(2, 3)

# sigma_z^20 + sigma_z^23, with sigma_z^pq = |p><p| - |q><q|; the detuning
# drift acts through Z_TOTAL/3.
Z_TOTAL = np.diag([-1.0, 2.0, -1.0]).astype(complex)

IDENTITY = np.eye(3, dtype=complex)


def _check_unitary(u: np.ndarray, name: str, atol: float = 1e-8) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (3, 3):
        raise ValueError(f"{name} must be 3x3 or a stack of 3x3, got shape {u.shape}")
    defect = np.abs(np.swapaxes(u.conj(), -1, -2) @ u - IDENTITY).max(axis=(-2, -1))
    if np.any(defect > atol):
        raise ValueError(f"{name} is not unitary within tolerance {atol}")
    return u


def gate_fidelity(u_actual: np.ndarray, u_ideal: np.ndarray):
    """Gate overlap fidelity F = |Tr(U_a^dag U_i) / 3|^(1/2).

    Either argument may be a stack (..., 3, 3); the result is a float for
    two single gates and an array of the broadcast stack shape otherwise.
    The outer square root is deliberate: it is the convention under
    which the sequential gate's quadratic loss coefficient comes out as
    5 pi^2 / 96, and all robustness curves in this package use it.
    """
    ua = _check_unitary(u_actual, "u_actual")
    ui = _check_unitary(u_ideal, "u_ideal")
    tr = np.trace(np.swapaxes(ua.conj(), -1, -2) @ ui, axis1=-2, axis2=-1)
    # hypot, not np.abs: numpy's vectorised complex abs rounds differently
    # from the scalar one, and a stack must score as its gates do one by one.
    overlap = np.hypot(tr.real, tr.imag) / 3.0
    # |Tr| <= 3 for unitaries; tiny float overshoot is clipped.
    return np.minimum(np.sqrt(overlap), 1.0)[()]
