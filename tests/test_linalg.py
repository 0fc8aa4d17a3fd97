"""Written-out operators, bin Hamiltonians and exponentials, gate fidelity."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    USQ,
    X20,
    X23,
    Y20,
    Y23,
    ZHAT,
    bin_hamiltonian,
    random_unitary,
    segment_schedule,
)
from pulseforge import ErrorKind, propagator, pulses_to_schedule
from pulseforge import linalg as la
from pulseforge.sequences import error_pairs, gates

PI = np.pi


def effective_hamiltonian(delta, u_m, theta_m, u_r, theta_r):
    """The Hamiltonian of one bin driven at (u_m, theta_m, u_r, theta_r) under
    the detuning delta: the drive map's controls on the written-out operators."""
    s = pulses_to_schedule(np.array([[u_m, theta_m, u_r, theta_r]]), 1.0)
    return bin_hamiltonian(s.u[0], delta)


def test_control_hamiltonians_are_the_sigma_operators():
    # On the (|0>, |2>) block Y20 is the standard Pauli y; Y23 is minus
    # the standard Pauli y on the (|2>, |3>) block, the opposite sign
    # relative to its row order.
    assert la.CONTROL_HAMILTONIANS.dtype == complex
    assert np.array_equal(la.CONTROL_HAMILTONIANS, np.stack([X20, Y20, X23, Y23]))


def test_sigma_y_23_matrix():
    expected = np.array([[0, 0, 0], [0, 0, 1j], [0, -1j, 0]], dtype=complex)
    assert np.array_equal(la.CONTROL_HAMILTONIANS[3], expected)


def test_sigma_y_20_matrix():
    # On the (|0>, |2>) block this is the standard Pauli y; the (2, 3)
    # block above carries the opposite sign relative to its row order.
    expected = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
    assert np.array_equal(la.CONTROL_HAMILTONIANS[1], expected)


def test_sigma_z_total():
    assert np.array_equal(la.Z_TOTAL, np.diag([-1.0, 2.0, -1.0]).astype(complex))


def test_pauli_block_algebra():
    # Each two-level pair behaves like a qubit: x squared is the block
    # projector and [x, y] closes onto the diagonal generator.  The two
    # blocks close with opposite diagonal orientation because the y
    # operators carry opposite sign relative to basis row order.
    cases = (
        (X20, Y20, (0, 1), np.diag([1.0, -1.0, 0.0])),
        (X23, Y23, (1, 2), np.diag([0.0, -1.0, 1.0])),
    )
    for x, y, pair, diag in cases:
        proj = np.zeros((3, 3), dtype=complex)
        proj[pair[0], pair[0]] = 1.0
        proj[pair[1], pair[1]] = 1.0
        assert np.allclose(x @ x, proj, atol=1e-14)
        comm = x @ y - y @ x
        assert np.allclose(comm, 2j * diag.astype(complex), atol=1e-14)


def test_effective_hamiltonian_single_terms():
    h = effective_hamiltonian(0.0, 1.0, 0.0, 0.0, 0.0)
    assert np.allclose(h, -0.5 * X20, atol=1e-15)
    h = effective_hamiltonian(0.0, 0.0, 0.0, 2.0, PI / 2)
    assert np.allclose(h, -1.0 * Y23, atol=1e-15)
    h = effective_hamiltonian(3.0, 0.0, 0.0, 0.0, 0.0)
    assert np.allclose(h, ZHAT, atol=1e-15)


def test_effective_hamiltonian_matrix_form():
    # Cross-check the operator construction against the explicit matrix.
    rng = np.random.default_rng(11)
    for _ in range(100):
        delta = rng.uniform(-2, 2)
        um, ur = rng.uniform(0, 2, size=2)
        tm, tr = rng.uniform(-2 * PI, 2 * PI, size=2)
        expected = -0.5 * np.array(
            [
                [2 * delta / 3, um * np.exp(-1j * tm), 0],
                [um * np.exp(1j * tm), -4 * delta / 3, ur * np.exp(1j * tr)],
                [0, ur * np.exp(-1j * tr), 2 * delta / 3],
            ]
        )
        got = effective_hamiltonian(delta, um, tm, ur, tr)
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_effective_hamiltonian_is_hermitian():
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = effective_hamiltonian(
            rng.uniform(-1, 1),
            rng.uniform(0, 1),
            rng.uniform(-7, 7),
            rng.uniform(0, 1),
            rng.uniform(-7, 7),
        )
        assert np.max(np.abs(h - h.conj().T)) <= 1e-14


def test_mw_segment_rabi_block():
    # An MW pi/2 segment at phase pi/2 is exp(+i (pi/4) sigma_y) on the
    # (0, 2) block, |3> untouched.  The closed 2x2 form is
    # cos(pi/4) I + i sin(pi/4) sigma_y.
    seq = segment_schedule([("MW", PI / 2, PI / 2)])
    u = propagator(seq, ErrorKind.NONE)[0]
    s = 1 / np.sqrt(2)
    expected = np.array([[s, s, 0], [-s, s, 0], [0, 0, 1]], dtype=complex)
    assert np.max(np.abs(u - expected)) <= 1e-12


def test_one_bin_gates_broadcast_stretches_over_a_stack():
    # Under PLE one eigensystem per bin serves every fraction: gate e of a
    # one-bin `gates` call is exp(-i (1 + eps_e) t_j H_j).
    rng = np.random.default_rng(9)
    controls = rng.uniform(-0.5, 0.5, size=(4, 4))
    t = rng.uniform(0.1, 3.0, size=4)
    eps = np.array([-0.6, 0.0, 0.35])
    for j, u in enumerate(controls):
        props = gates(controls[j : j + 1], t[j], error_pairs(ErrorKind.PLE, eps))
        assert props.shape == (3, 3, 3)
        for e in range(3):
            expected = scipy.linalg.expm(-1j * (1 + eps[e]) * t[j] * bin_hamiltonian(u))
            assert np.max(np.abs(props[e] - expected)) <= 1e-12


def test_gate_fidelity_self_is_one():
    rng = np.random.default_rng(17)
    for _ in range(10):
        u = random_unitary(rng)
        assert la.gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)


def test_gate_fidelity_global_phase_invariant():
    rng = np.random.default_rng(23)
    u = random_unitary(rng)
    v = random_unitary(rng)
    f0 = la.gate_fidelity(u, v)
    f1 = la.gate_fidelity(np.exp(1j * 1.234) * u, v)
    assert f0 == pytest.approx(f1, abs=1e-12)


def test_gate_fidelity_unitary_bimultiplication_invariant():
    rng = np.random.default_rng(29)
    u = random_unitary(rng)
    v = random_unitary(rng)
    w = random_unitary(rng)
    assert la.gate_fidelity(w @ u, w @ v) == pytest.approx(
        la.gate_fidelity(u, v), abs=1e-12
    )
    assert la.gate_fidelity(u @ w, v @ w) == pytest.approx(
        la.gate_fidelity(u, v), abs=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gate_fidelity_bounds(seed):
    rng = np.random.default_rng(seed)
    f = la.gate_fidelity(random_unitary(rng), random_unitary(rng))
    assert 0.0 <= f <= 1.0


def overlap_of(u, target):
    # The documented order: elementwise conj(U)_ki T_ki, summed over k,
    # then over i, each left to right, and Python's complex abs.
    d = u.conj() * target
    diag = d[0] + d[1] + d[2]
    tr = diag[0] + diag[1] + diag[2]
    return min(np.sqrt(abs(tr) / 3.0), 1.0)


def test_gate_fidelity_scores_a_stack_gate_by_gate():
    # A stack scores bit for bit as the one-gate formula, and every gate in
    # it must be a unitary 3x3.  The sum differs from a matrix product's trace
    # in at most its last bits.
    rng = np.random.default_rng(31)
    stack = np.stack([random_unitary(rng) for _ in range(200)])
    target = random_unitary(rng)
    expected = [overlap_of(u, target) for u in stack]
    got = la.gate_fidelity(stack, target)
    assert got.shape == (200,)
    assert np.array_equal(got, expected)
    traced = [min(np.sqrt(abs(np.trace(u.conj().T @ target)) / 3.0), 1.0) for u in stack]
    assert np.max(np.abs(got - traced)) <= 1e-15
    assert la.gate_fidelity(stack[7], target) == expected[7]
    assert isinstance(la.gate_fidelity(stack[7], target), float)
    square = np.stack([random_unitary(rng) for _ in range(200)]).reshape(2, 100, 3, 3)
    got = la.gate_fidelity(square, target)
    assert got.shape == (2, 100)
    assert np.array_equal(got, [[overlap_of(u, target) for u in row] for row in square])
    bad = stack.copy()
    bad[117] *= 1.001
    with pytest.raises(ValueError, match="unitary"):
        la.gate_fidelity(bad, target)
    square[1, 63] *= 1.001
    with pytest.raises(ValueError, match="unitary"):
        la.gate_fidelity(square, target)
    with pytest.raises(ValueError, match="3x3"):
        la.gate_fidelity(stack[:, :, :2], target)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_gate_fidelity_rejects_non_finite_gates_and_targets(value):
    # A NaN compares False against the unitarity tolerance and an inf overflows
    # U^dag U; both must raise ValueError before that product.
    gate = np.full((3, 3), value, dtype=complex)
    stack = np.array([USQ, USQ, USQ])
    stack[1, 2, 0] = value
    for args, name in [
        ((gate, USQ), "u_actual"),
        ((USQ, gate), "u_ideal"),
        ((stack, USQ), "u_actual"),
        ((USQ, stack), "u_ideal"),
    ]:
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            la.gate_fidelity(*args)


def test_gate_fidelity_known_overlap():
    # Orthogonal-trace pair pins the lower end of the scale.  The outer
    # square root turns ~1e-16 of trace cancellation noise into ~1e-8,
    # so the tolerance sits at the square-root scale.
    u = np.diag([1.0, 1.0, 1.0]).astype(complex)
    v = np.diag([1.0, np.exp(2j * PI / 3), np.exp(-2j * PI / 3)])
    assert la.gate_fidelity(u, v) == pytest.approx(0.0, abs=1e-7)


def test_gate_fidelity_stretched_gate_point():
    # Both drive areas stretched by 20%; fidelity computed from scipy
    # exponentials only, then compared against the library's value.
    eps = 0.2
    distorted = scipy.linalg.expm(1j * (PI / 2) * (1 + eps) * Y23) @ scipy.linalg.expm(
        1j * (PI / 4) * (1 + eps) * Y20
    )
    f = la.gate_fidelity(distorted, USQ)
    assert f == pytest.approx(0.9794713351739027, abs=1e-12)
    assert f == pytest.approx(0.9795, abs=5e-4)
