"""Exact linear algebra for the three-level NV / 13C subspace.

Everything in this package lives on the effective three-level manifold
spanned by (|0>, |2>, |3>), in that fixed row/column order.  |0> and |2>
are connected by the microwave (MW) transition, |2> and |3> by the
radio-frequency (RF) transition; level |1> is decoupled and never
represented.

All quantities are dimensionless: amplitudes in units of the maximum
Rabi amplitude Lambda, times in units of 1/Lambda.  Only the product
amplitude*time enters any propagator, so physical units are applied at
the presentation layer (CLI) and nowhere else.  Every operator is written
out, and there is no matrix exponential here: `sequences._bin_exponentials`
writes every propagator down in closed form.  Nor is there a matrix
product: `gate_fidelity` checks every gate unitary by one broadcast
multiply and one ordered sum for U^dag U, and sums its trace from
elementwise products, over rows k and then columns i, in that order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CONTROL_HAMILTONIANS", "Z_TOTAL", "IDENTITY", "gate_fidelity"]

# H_1..H_4 in control order, sigma_x^20, sigma_y^20, sigma_x^23, sigma_y^23,
# with sigma_x^pq = |p><q| + |q><p| and sigma_y^pq = i(|p><q| - |q><p|):
# bin j evolves under sum_k u_jk H_k.  sigma_y^20 is the standard Pauli y
# on the (|0>, |2>) block but sigma_y^23 is minus the standard Pauli y on
# the (|2>, |3>) block; the sign asymmetry is what puts the printed signs
# into the sequential gate, so do not "fix" it.
CONTROL_HAMILTONIANS = np.array(
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, 1j], [0, -1j, 0]],
    ],
    dtype=complex,
)

# sigma_z^20 + sigma_z^23, with sigma_z^pq = |p><p| - |q><q|; the detuning
# drift acts through Z_TOTAL/3.
Z_TOTAL = np.diag([-1.0, 2.0, -1.0]).astype(complex)

IDENTITY = np.eye(3, dtype=complex)

# Largest entry of U^dag U - I that `gate_fidelity` accepts as unitary.
_UNITARY_ATOL = 1e-8


def _check_unitary(u: np.ndarray, name: str) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (3, 3):
        raise ValueError(f"{name} must be 3x3 or a stack of 3x3, got shape {u.shape}")
    if not np.all(np.isfinite(u)):  # NaN would pass the defect test below
        raise ValueError(f"{name} must be finite")
    m = np.ascontiguousarray(np.moveaxis(u, (-2, -1), (0, 1)))  # m[k, i] = U_ki
    defect = np.add.reduce(m.conj()[:, :, None] * m[:, None], axis=0)  # (U^dag U)_ij
    defect -= IDENTITY.reshape((3, 3) + (1,) * (u.ndim - 2))
    if np.any(np.abs(defect) > _UNITARY_ATOL):
        raise ValueError(f"{name} is not unitary within tolerance {_UNITARY_ATOL}")
    return u


def gate_fidelity(u_actual: np.ndarray, u_ideal: np.ndarray):
    """Gate overlap fidelity F = |Tr(U_a^dag U_i) / 3|^(1/2).

    Either argument may be a stack (..., 3, 3); the result is a float for
    two single gates and an array of the broadcast stack shape otherwise.
    Every gate of both is checked unitary.  The trace is summed from the
    elementwise products conj(U_a)_ki (U_i)_ki, over k and then over i, in
    that order, one expression for a gate and a stack, so no product stack
    is formed.  The outer square root is deliberate: it is the convention
    under which the sequential gate's quadratic loss coefficient comes out
    as 5 pi^2 / 96, and all robustness curves in this package use it.
    """
    ua = _check_unitary(u_actual, "u_actual")
    ui = _check_unitary(u_ideal, "u_ideal")
    d = ua.conj() * ui
    diag = d[..., 0, :] + d[..., 1, :] + d[..., 2, :]
    tr = diag[..., 0] + diag[..., 1] + diag[..., 2]
    # hypot, not np.abs: numpy's vectorised complex abs rounds differently
    # from the scalar one, and a stack must score as its gates do one by one.
    overlap = np.hypot(tr.real, tr.imag) / 3.0
    # |Tr| <= 3 for unitaries; tiny float overshoot is clipped.
    return np.minimum(np.sqrt(overlap), 1.0)[()]
