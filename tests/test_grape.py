"""Gradient-ascent pulse search: propagators, objective, gradient, ascent."""

import dataclasses
import io
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import USQ, X20, X23, Y20, Y23, ZHAT, bin_hamiltonian, probe_gradient_fd, traced_peak
from pulseforge import (
    CONTROL_BOUND,
    PULSE_CSV_HEADER,
    ControlSchedule,
    ErrorKind,
    GrapeConfig,
    GrapeNumericsError,
    OptimizedPulse,
    ascend,
    ascend_with_restarts,
    export_pulse_csv,
    gate_fidelity,
    gradient,
    import_pulse_csv,
    performance,
    propagator,
    pulses_to_schedule,
    schedule_to_pulses,
    composite,
    sequential_gate,
    trained_min_fidelity,
)
from pulseforge import grape as grape_module
from pulseforge import sequences
from pulseforge.sequences import error_pairs, gates

PI = np.pi
NONE = ErrorKind.NONE


def make_schedule(seed, bins=40, total_time=6 * PI, scale=0.4):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-scale, scale, size=(bins, 4))
    return ControlSchedule(u, total_time / bins)


def test_control_bound_value():
    assert CONTROL_BOUND == 0.5


def test_schedule_validation():
    with pytest.raises(ValueError):
        ControlSchedule(np.zeros((4, 3)), 0.1)
    with pytest.raises(ValueError):
        ControlSchedule(np.zeros((4, 4)), 0.0)
    with pytest.raises(ValueError):
        ControlSchedule(np.full((4, 4), np.nan), 0.1)
    with pytest.raises(ValueError, match="finite"):
        ControlSchedule(np.zeros((4, 4)), float("inf"))


def test_schedule_properties_and_immutability():
    s = ControlSchedule(np.zeros((8, 4)), 0.25)
    assert s.bins == 8
    assert s.duration == pytest.approx(2.0)
    with pytest.raises(ValueError):
        s.u[0, 0] = 1.0


def test_config_defaults_and_validation():
    cfg = GrapeConfig()
    assert cfg.bins == 400
    assert cfg.total_time == pytest.approx(6 * PI)
    assert cfg.dt == pytest.approx(6 * PI / 400)
    assert cfg.penalty == 0.01
    assert cfg.max_iterations == 500
    assert np.max(np.abs(grape_module.TARGET - USQ)) <= 1e-12
    with pytest.raises(ValueError):
        GrapeConfig(bins=0)
    with pytest.raises(ValueError):
        GrapeConfig(total_time=-1.0)
    with pytest.raises(ValueError):
        GrapeConfig(error_kind=ErrorKind.PLE, training=(0.1, 1.5))
    with pytest.raises(ValueError):
        GrapeConfig(error_kind=ErrorKind.PLE, training=())
    with pytest.raises(ValueError):
        GrapeConfig(training=(0.2,))  # kind NONE trains on no fraction
    with pytest.raises(ValueError):
        GrapeConfig(penalty=-0.1)
    for field_name in ("total_time", "penalty", "init_scale"):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                GrapeConfig(**{field_name: bad})
    for field_name in ("bins", "max_iterations", "seed"):
        with pytest.raises(ValueError, match=f"{field_name} must be an integer"):
            GrapeConfig(**{field_name: 20.5})
    numpy_ints = GrapeConfig(bins=np.int64(20), max_iterations=np.int32(3), seed=np.uint8(1))
    assert ascend(numpy_ints).iterations <= 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        GrapeConfig().bins = 10


def test_step_propagator_zero_bin_is_identity():
    s = ControlSchedule(np.zeros((1, 4)), 0.7)
    assert np.allclose(propagator(s, NONE)[0], np.eye(3), atol=1e-14)


def test_step_propagator_detuned_zero_bin():
    # Drift only: exp(-i dt eps Zhat / 3), diagonal phases.
    s = ControlSchedule(np.zeros((1, 4)), 0.9)
    got = propagator(s, ErrorKind.ORE, (0.3,))[0]
    expected = scipy.linalg.expm(-1j * 0.9 * 0.3 * ZHAT / 3)
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_step_propagator_reproduces_mw_rotation():
    # One bin with u2 = -1/4 over dt = pi is the first half of the
    # sequential gate.
    u = np.zeros((1, 4))
    u[0, 1] = -0.25
    s = ControlSchedule(u, PI)
    expected = scipy.linalg.expm(
        1j * (PI / 4) * np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
    )
    got = propagator(s, NONE)[0]
    assert got.shape == (3, 3)
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_ple_step_scales_time():
    # T' = (1 + eps) T: the stretched schedule is the ideal one with
    # every bin lasting (1 + eps) dt.
    s = make_schedule(0, bins=6)
    eps = 0.27
    got = propagator(s, ErrorKind.PLE, (eps,))[0]
    stretched = ControlSchedule(s.u, s.dt * (1 + eps))
    expected = propagator(stretched, NONE)[0]
    assert np.max(np.abs(got - expected)) <= 1e-12


@pytest.mark.parametrize("kind", [ErrorKind.PLE, ErrorKind.ORE])
@pytest.mark.parametrize("eps", [-0.6, -0.25, 0.3, 0.8])
def test_schedule_and_sequence_share_error_convention(kind, eps):
    # The sequential gate as three bins of dt = pi/2: the MW pi/2 pulse,
    # then the RF pi pulse split in two, all at unit amplitude, y phase.
    u = np.zeros((3, 4))
    u[0, 1] = -0.5
    u[1:, 3] = -0.5
    got = propagator(ControlSchedule(u, PI / 2), kind, (eps,))
    expected = propagator(composite("sequential"), kind, (eps,))
    assert np.max(np.abs(got - expected)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([ErrorKind.NONE, ErrorKind.PLE, ErrorKind.ORE]),
)
def test_schedule_propagator_unitarity(seed, kind):
    rng = np.random.default_rng(seed)
    bins = int(rng.integers(1, 12))
    u = rng.uniform(-1, 1, size=(bins, 4))
    s = ControlSchedule(u, float(rng.uniform(0.01, 2.0)))
    frac = 0.0 if kind is ErrorKind.NONE else float(rng.uniform(-1, 1))
    prop = propagator(s, kind, (frac,))[0]
    assert np.max(np.abs(prop @ prop.conj().T - np.eye(3))) <= 1e-10


def test_schedule_propagator_composes_steps():
    s = make_schedule(7, bins=5)
    err = (ErrorKind.ORE, (-0.4,))
    manual = np.eye(3, dtype=complex)
    for j in range(s.bins):
        step = ControlSchedule(s.u[j : j + 1], s.dt)
        manual = propagator(step, *err)[0] @ manual
    assert np.max(np.abs(propagator(s, *err)[0] - manual)) <= 1e-12


def test_performance_perfect_schedule():
    # Two bins that reproduce the target exactly: mean overlap hits the
    # squared dimension.
    u = np.zeros((2, 4))
    u[0, 1] = -0.25
    u[1, 3] = -0.5
    s = ControlSchedule(u, PI)
    assert performance(s, USQ) == pytest.approx(9.0, abs=1e-12)


def test_performance_zero_controls():
    s = ControlSchedule(np.zeros((10, 4)), 0.1)
    assert performance(s, USQ) == pytest.approx(0.5, abs=1e-12)


def test_performance_averages_training_set():
    s = make_schedule(3)
    fr = (-0.15, 0.15)
    both = performance(s, USQ, ErrorKind.PLE, fr)
    lo = performance(s, USQ, ErrorKind.PLE, (fr[0],))
    hi = performance(s, USQ, ErrorKind.PLE, (fr[1],))
    assert both == pytest.approx(0.5 * (lo + hi), abs=1e-12)


def test_performance_requires_training_set():
    s = make_schedule(1)
    with pytest.raises(ValueError):
        performance(s, USQ, ErrorKind.ORE, ())


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_performance_rejects_a_non_finite_target(value):
    target = USQ.copy()
    target[0, 0] = value
    with pytest.raises(ValueError, match="target must be finite"):
        performance(make_schedule(1), target, ErrorKind.PLE, (0.0, 0.1))


def test_performance_rejects_per_bin_durations():
    # The power penalty alpha_p dt sum(u^2) takes one bin duration.
    with pytest.raises(ValueError, match="one bin duration, got 10 per-bin"):
        performance(composite("bb1"), sequential_gate(), penalty=0.01)


def test_power_penalty_formula():
    s = make_schedule(5, bins=12)
    expected = 0.01 * s.dt * np.sum(s.u**2)
    penalized = performance(s, USQ, penalty=0.01)
    assert performance(s, USQ) - penalized == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize(
    "kind,fractions",
    [
        (ErrorKind.NONE, ()),
        (ErrorKind.PLE, (-0.2, -0.1, 0.0, 0.1, 0.2)),
        (ErrorKind.ORE, (-0.2, -0.1, 0.0, 0.1, 0.2)),
    ],
)
def test_gradient_matches_finite_differences(kind, fractions):
    # Relative error metric: max |analytic - fd| over the probe set,
    # scaled by the RMS finite-difference magnitude so near-zero entries
    # do not blow up the ratio.  The dt-linear bound is the one a
    # first-order gradient meets; the exact gradient's own bound is in
    # test_exact_gradient_matches_central_differences.
    s = make_schedule(42, bins=400, total_time=6 * PI, scale=0.4)
    rng = np.random.default_rng(0)
    pairs = probe_gradient_fd(s, USQ, kind, fractions, 0.01, 25, rng)
    err = np.max(np.abs(pairs[:, 0] - pairs[:, 1]))
    rms = np.sqrt(np.mean(pairs[:, 1] ** 2))
    tol = max(1e-3, 2 * s.dt * np.max(np.abs(s.u)))
    assert err / rms <= tol


@pytest.mark.parametrize(
    "kind,fractions",
    [
        (ErrorKind.NONE, ()),
        (ErrorKind.PLE, (-0.5, -0.25, 0.0, 0.25, 0.5)),
        (ErrorKind.ORE, (-0.2, -0.1, 0.0, 0.1, 0.2)),
    ],
)
def test_exact_gradient_matches_central_differences(kind, fractions):
    # The divided-difference derivative of each bin exponential is exact,
    # so only the O(h^2) and rounding errors of the central differences
    # (h = 1e-6) remain: no dt-linear allowance.
    s = make_schedule(17, bins=400, total_time=6 * PI, scale=0.4)
    rng = np.random.default_rng(1)
    pairs = probe_gradient_fd(s, USQ, kind, fractions, 0.01, 25, rng)
    err = np.max(np.abs(pairs[:, 0] - pairs[:, 1]))
    rms = np.sqrt(np.mean(pairs[:, 1] ** 2))
    assert err / rms <= 1e-6


EDGE_ERRORS = [
    (ErrorKind.NONE, ()),
    (ErrorKind.PLE, (-0.5, 0.0, 0.5)),
    (ErrorKind.ORE, (-0.2, 0.1)),
]


def central_difference_gradient(s, kind, fractions, penalty, h=1e-6):
    """Every entry of the penalized objective's gradient by central differences."""
    out = np.empty_like(s.u)
    for j in range(s.bins):
        for k in range(4):
            up, um = s.u.copy(), s.u.copy()
            up[j, k] += h
            um[j, k] -= h
            jp = performance(ControlSchedule(up, s.dt), USQ, kind, fractions, penalty)
            jm = performance(ControlSchedule(um, s.dt), USQ, kind, fractions, penalty)
            out[j, k] = (jp - jm) / (2 * h)
    return out


def edge_schedule(shape):
    """1, 2 or 3 bins; or 40 bins whose odd bins carry no drive ("silent")."""
    if shape != "silent":
        return make_schedule(5 + shape, bins=shape, total_time=2 * PI, scale=0.4)
    u = make_schedule(23, bins=40, total_time=6 * PI, scale=0.4).u.copy()
    u[1::2] = 0.0
    return ControlSchedule(u, 6 * PI / 40)


@pytest.mark.parametrize("kind,fractions", EDGE_ERRORS)
@pytest.mark.parametrize("shape", [1, 2, 3, "silent"])
def test_exact_gradient_at_sweep_edges(kind, fractions, shape):
    # Short schedules: the forward sweep has no interior bin, and the first
    # and last bins are the same or adjacent.  Silent bins: H = 0 under
    # NONE and PLE (a triply degenerate spectrum), the drift
    # (eps/3) diag(-1, 2, -1) under ORE (the pair -eps/3, -eps/3); Psi
    # takes its sinc limit -i t there.
    s = edge_schedule(shape)
    g = gradient(s, USQ, kind, fractions, 0.01)
    fd = central_difference_gradient(s, kind, fractions, 0.01)
    assert np.max(np.abs(g - fd)) / np.sqrt(np.mean(fd**2)) <= 1e-6


def van_loan_gradient(s, pairs, penalty):
    """Gradient from Frechet derivatives and explicit prefix/suffix products.

    Independent of the unitarity shortcut: expm([[X, D], [0, X]]) is
    [[exp(X), L], [0, exp(X)]] with L the derivative of exp at X along D,
    here X = -i t H_j and D = -i t H_k; the overlap's derivative is then
    Tr(U_T^dag U_N ... U_{j+1} dU_j U_{j-1} ... U_1).  `pairs` are the
    (E, 2) (stretch, detuning) pairs: a pair runs each bin for (1 + s) dt
    under its Hamiltonian plus (d/3) ZHAT.
    """
    controls = (X20, Y20, X23, Y23)
    grad = np.zeros_like(s.u)
    for stretch, detuning in pairs:
        t = s.dt * (1 + stretch)
        gens = [bin_hamiltonian(row, detuning) for row in s.u]
        props = [scipy.linalg.expm(-1j * t * h) for h in gens]
        prefix = [np.eye(3, dtype=complex)]
        for p in props[:-1]:
            prefix.append(p @ prefix[-1])
        suffix = [USQ.conj().T]
        for p in props[:0:-1]:
            suffix.append(suffix[-1] @ p)
        suffix.reverse()  # suffix[j] = U_T^dag U_N ... U_{j+1}
        overlap = np.trace(suffix[0] @ props[0] @ prefix[0])
        for j, h in enumerate(gens):
            for k, hk in enumerate(controls):
                block = np.zeros((6, 6), dtype=complex)
                block[:3, :3] = block[3:, 3:] = -1j * t * h
                block[:3, 3:] = -1j * t * hk
                d_prop = scipy.linalg.expm(block)[:3, 3:]
                d_tr = np.trace(suffix[j] @ d_prop @ prefix[j])
                grad[j, k] += 2 * np.real(np.conj(overlap) * d_tr) / len(pairs)
    return grad - 2 * penalty * s.dt * s.u


@pytest.mark.parametrize("kind,fractions", EDGE_ERRORS[1:])
def test_exact_gradient_matches_van_loan_reference(kind, fractions):
    # Far tighter than central differences: the unitarity shortcut
    # C A_j^dag U_j^dag for the suffix products must hold to rounding.
    # 30 bins make six blocks of isqrt(30) = 5; 31 add a ragged seventh.
    for bins in (30, 31):
        s = make_schedule(31, bins=bins, total_time=3 * PI, scale=0.4)
        g = gradient(s, USQ, kind, fractions, 0.01)
        ref = van_loan_gradient(s, error_pairs(kind, fractions), 0.01)
        assert np.max(np.abs(g - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_objective_gradient_on_mixed_pairs_matches_van_loan_reference():
    # Pairs that stretch and detune at once, which no ErrorKind makes: the
    # mixing angle of each bin's eigenbasis then varies by pair while the
    # times stretch, so the pairs cannot be summed before the basis change.
    # Bin 7 is silent.
    pairs = np.array([(-0.3, 0.1), (0.2, -0.15), (0.0, 0.2)])
    for bins in (30, 31):
        u = make_schedule(31, bins=bins, total_time=3 * PI, scale=0.4).u.copy()
        u[7] = 0.0
        s = ControlSchedule(u, 3 * PI / bins)
        _, g = grape_module._objective(s.u, s.dt, pairs, USQ, 0.01)
        ref = van_loan_gradient(s, pairs, 0.01)
        assert np.max(np.abs(g - ref)) <= 1e-10 * np.max(np.abs(ref))


SMALL_PAIRS = {
    "none": error_pairs(NONE, ()),
    "ple": error_pairs(ErrorKind.PLE, (-0.5, 0.0, 0.5)),
    "ore": error_pairs(ErrorKind.ORE, (-0.2, 0.1)),
    "mixed": np.array([(-0.3, 0.1), (0.2, -0.15), (0.0, 0.2)]),
}


@pytest.mark.parametrize("pairs", SMALL_PAIRS.values(), ids=SMALL_PAIRS.keys())
@pytest.mark.parametrize("bins", [1, 2, 3, 4, 5, 8, 9])
def test_objective_gradient_at_small_sizes_matches_van_loan_reference(bins, pairs):
    # isqrt(N)-bin blocks: one block (1 bin), one-bin blocks (2, 3), a ragged
    # last block (5), and chains of 0 (1 bin) to 3 (8 bins) block-start
    # products.  Bin 1, when there is one, is silent.
    u = make_schedule(41 + bins, bins=bins, total_time=2 * PI, scale=0.4).u.copy()
    u[1:2] = 0.0
    s = ControlSchedule(u, 2 * PI / bins)
    _, g = grape_module._objective(s.u, s.dt, pairs, USQ, 0.01)
    ref = van_loan_gradient(s, pairs, 0.01)
    assert np.max(np.abs(g - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("bins", [1, 4, 5])
def test_objective_gradient_of_a_silent_schedule_matches_van_loan_reference(bins):
    # Under NONE every bin of a silent schedule has H = 0, so every gap is
    # zero and Psi is -i t (sinc's limit) throughout.
    s = ControlSchedule(np.zeros((bins, 4)), 2 * PI / bins)
    pairs = error_pairs(NONE, ())
    _, g = grape_module._objective(s.u, s.dt, pairs, USQ, 0.01)
    ref = van_loan_gradient(s, pairs, 0.01)
    assert np.max(np.abs(ref)) > 0.1
    assert np.max(np.abs(g - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_objective_value_is_penalized_performance():
    # The one sweep takes the objective from the same forward product as
    # the gate stack of `performance`, bit for bit, at every bin count
    # (61 and 401 end in a ragged block shorter than isqrt(N)), on a
    # training set that splits `gates`' blocks into chunks, and at 101
    # fractions, which the objective steps as one slab and `gates` in one bin
    # loop, above `sequences.PAIRS` through the (3, 3, E) form of `_matmul3`.
    errors = (
        (ErrorKind.PLE, (-0.3, 0.1)),
        (ErrorKind.ORE, (0.2,)),
        (ErrorKind.PLE, tuple(np.linspace(-0.5, 0.5, 21))),
        (ErrorKind.PLE, tuple(np.linspace(-0.5, 0.5, 101))),
    )
    assert [len(f) > sequences.PAIRS for _, f in errors] == [False, False, False, True]
    for bins in (1, 2, 3, 60, 61, 400, 401):
        s = make_schedule(4, bins=bins)
        for kind, fractions in errors:
            pairs = error_pairs(kind, fractions)
            value, _ = grape_module._objective(s.u, s.dt, pairs, USQ, 0.02)
            assert value == performance(s, USQ, kind, fractions, 0.02)


def test_reused_workspace_leaks_no_stale_entry():
    # Each problem's workspace, its complex stacks NaN-filled, serves two
    # calls with different controls: PLE (V of one column), ORE, 37 bins under
    # NONE (a ragged last block of isqrt(37) = 6), and 61 ORE bins (9 blocks of
    # 7 slots, 2 of them detuned pads).  An entry read before the call writes
    # it would raise here or differ from a fresh workspace's result.
    ore = tuple(np.linspace(-0.2, 0.2, 5))
    problems = (
        (ErrorKind.PLE, tuple(np.linspace(-0.5, 0.5, 5)), 400),
        (ErrorKind.ORE, ore, 400),
        (NONE, (), 37),
        (ErrorKind.ORE, ore, 61),
    )
    for kind, fractions, bins in problems:
        pairs = error_pairs(kind, fractions)
        work = grape_module._workspace(bins, pairs)
        for stack in work:
            if stack.dtype == complex:
                stack.fill(np.nan)
        for seed in (bins, bins + 1):
            s = make_schedule(seed, bins=bins)
            with np.errstate(all="raise"):
                value, grad = grape_module._objective(s.u, s.dt, pairs, USQ, 0.01, work)
            fresh_value, fresh_grad = grape_module._objective(s.u, s.dt, pairs, USQ, 0.01)
            assert value == fresh_value == performance(s, USQ, kind, fractions, 0.01)
            assert np.array_equal(grad, fresh_grad)


@pytest.mark.parametrize("bins", [37, 61, 401])
def test_objective_value_is_performance_bit_for_bit_on_a_ragged_last_block(bins):
    # isqrt(N) = 6, 7 and 20 leave a last block of 1, 5 and 1 bins, padded with
    # silent slots: the turns into them are exactly 1 and the block ends in
    # its last real bin's basis, so the value is the gate stack's bit for bit,
    # under PLE, ORE and mixed pairs (`performance`'s formula on `gates`),
    # from fresh and from reused NaN-filled workspaces.
    problems = (
        (ErrorKind.PLE, (-0.5, 0.1, 0.5)),
        (ErrorKind.ORE, (-0.2, 0.3)),
        (None, [[0.3, -0.2], [-0.5, 0.7], [1.0, -1.0]]),
    )
    for kind, eps in problems:
        pairs = np.array(eps) if kind is None else error_pairs(kind, eps)
        work = grape_module._workspace(bins, pairs)
        for stack in work:
            if stack.dtype == complex:
                stack.fill(np.nan)
        for seed in (bins, bins + 1):
            s = make_schedule(seed, bins=bins)
            if kind is None:
                tr = np.einsum("ba,eba->e", USQ.conj(), gates(s.u, s.dt, pairs))
                expected = float(np.mean(np.abs(tr) ** 2)) - 0.01 * s.dt * float(np.sum(s.u * s.u))
            else:
                expected = performance(s, USQ, kind, eps, 0.01)
            with np.errstate(all="raise"):
                reused, _ = grape_module._objective(s.u, s.dt, pairs, USQ, 0.01, work)
            fresh, _ = grape_module._objective(s.u, s.dt, pairs, USQ, 0.01)
            assert reused == fresh == expected


@pytest.mark.parametrize(
    "bins,kind,fractions", [(61, ErrorKind.ORE, (0.1, 0.2)), (60, NONE, ())]
)
def test_workspace_of_another_problem_raises(bins, kind, fractions):
    # Built for 60 bins and 2 ORE pairs: another N (61) or E (1) is refused.
    work = grape_module._workspace(60, error_pairs(ErrorKind.ORE, (-0.1, 0.1)))
    s = make_schedule(0, bins=bins)
    with pytest.raises(ValueError, match=r"workspace built for \(N, E\) = \(60, 2\)"):
        grape_module._objective(s.u, s.dt, error_pairs(kind, fractions), USQ, 0.01, work)


def _slab(x: np.ndarray) -> bool:
    """The last two axes are C-contiguous, with no stride 0 on an axis longer than 1."""
    (rows, cols), (down, across) = x.shape[-2:], x.strides[-2:]
    if any(st == 0 for st, n in ((down, rows), (across, cols)) if n > 1):
        return False
    return (cols == 1 or across == x.itemsize) and (rows == 1 or down == cols * x.itemsize)


@pytest.mark.parametrize(
    "kind,fractions",
    [(ErrorKind.PLE, np.linspace(-0.5, 0.5, 5)), (ErrorKind.ORE, np.linspace(-0.2, 0.2, 5))],
)
def test_objective_multiplies_contiguous_unbroadcast_slabs(monkeypatch, kind, fractions):
    # Every product of the objective runs numpy's inner loops over whole
    # (bin, pair) slabs: no operand is strided along the bins or broadcast
    # along the bins or pairs, so no loop is only E entries long.  Each bin's
    # turn is folded into its step matrix, so all 43 products of 400 bins
    # pass here: 20 steps and 19 block-chain products through a
    # (3, 3, 3, ...) terms stack, then S_b C, C_b, X C_b and K.
    calls = []
    real = grape_module._matmul3

    def recorded(a, b, out, tmp):
        out = real(a, b, out, tmp)
        calls.append((a, b, out, tmp.ndim > out.ndim))
        return out

    monkeypatch.setattr(grape_module, "_matmul3", recorded)
    s = make_schedule(6, bins=400)
    grape_module._objective(s.u, s.dt, error_pairs(kind, fractions), USQ, 0.01)
    assert [terms for *_, terms in calls] == [True] * 39 + [False] * 4
    for a, b, out, _ in calls:
        assert _slab(a) and _slab(b) and _slab(out)
        assert a.shape[-2:] == b.shape[-2:] == out.shape[-2:]


@pytest.mark.parametrize("kind, eps", [(ErrorKind.ORE, 0.2), (ErrorKind.PLE, 0.5)], ids=["ore", "ple"])
def test_warm_objective_allocates_no_stack(kind, eps):
    # Through a workspace, a warm call at 400 bins and 5 pairs allocates only
    # temporaries of (N, E) size and numpy's iterator buffers: its traced peak
    # is near 0.47 MB under ORE and 0.36 MB under PLE, whose pairs detune none,
    # where allocating each (3, 3, N, E) stack per call peaked at 2.0 MB.
    s = make_schedule(5, bins=400)
    pairs = error_pairs(kind, np.linspace(-eps, eps, 5))
    work = grape_module._workspace(400, pairs)
    peak = traced_peak(lambda: grape_module._objective(s.u, s.dt, pairs, USQ, 0.01, work))
    assert peak <= 0.8e6


def test_ascend_builds_one_workspace_and_releases_it(monkeypatch):
    built, stacks = [], []
    real = grape_module._workspace

    def recorded(bins, errors):
        work = real(bins, errors)  # slots, padded controls and durations, stacks
        stacks.append(sum(a.ndim > 2 and a.shape[:2] == (3, 3) for a in work))
        built.append([weakref.ref(a) for a in work])
        return work

    monkeypatch.setattr(grape_module, "_workspace", recorded)
    ascend(GrapeConfig(ErrorKind.ORE, (-0.1, 0.1), bins=20, max_iterations=5))
    assert len(built) == 1 and stacks[0] <= 6
    assert all(ref() is None for ref in built[0])


def test_gradient_penalty_term_exact():
    # Difference of gradients isolates the penalty contribution, which
    # is linear and must match -2 alpha dt u to machine precision.
    s = make_schedule(11, bins=20)
    g1 = gradient(s, USQ, penalty=0.037)
    g0 = gradient(s, USQ, penalty=0.0)
    assert np.max(np.abs((g1 - g0) + 2 * 0.037 * s.dt * s.u)) <= 1e-14


def test_gradient_rejects_per_bin_durations():
    with pytest.raises(ValueError, match="one bin duration, got 10 per-bin"):
        gradient(composite("bb1"), sequential_gate(), penalty=0.01)


def test_gradient_linear_in_training_mean():
    s = make_schedule(2, bins=15)
    fr = (-0.12, 0.3)
    g_both = gradient(s, USQ, ErrorKind.ORE, fr)
    g_lo = gradient(s, USQ, ErrorKind.ORE, (fr[0],))
    g_hi = gradient(s, USQ, ErrorKind.ORE, (fr[1],))
    assert np.max(np.abs(g_both - 0.5 * (g_lo + g_hi))) <= 1e-12


def test_gradient_stationary_at_identity_fixed_point():
    s = ControlSchedule(np.zeros((9, 4)), 0.3)
    g = gradient(s, np.eye(3, dtype=complex), penalty=0.02)
    assert np.max(np.abs(g)) == 0.0


def test_gradient_points_uphill():
    for seed in range(10):
        s = make_schedule(seed, bins=30, scale=0.2)
        g = gradient(s, USQ)
        eta = 1e-3
        j0 = performance(s, USQ)
        j1 = performance(ControlSchedule(s.u + eta * g, s.dt), USQ)
        assert j1 > j0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-1e12, 1e12), min_size=4, max_size=4), min_size=1, max_size=8
    )
)
@example([[7345674.4273256315, 30842141.053606045, -6386884.125355514, 9834651.525886493]])
@example([[0.0, 0.0, 0.0, 0.0]])
def test_drive_map_keeps_amplitudes_below_lambda(rows):
    # The ascent's parameters map onto drives strictly inside the bound,
    # keeping each channel pair's direction.  The smooth map alone rounds
    # the first example's MW amplitude up to exactly 1.
    p = np.array(rows)
    u, _ = grape_module._drives(p)
    pulses = schedule_to_pulses(ControlSchedule(u, 0.1))
    assert np.all(pulses[:, 0] < 1.0)
    assert np.all(pulses[:, 2] < 1.0)
    assert np.all(u * p >= 0.0)
    assert np.all(np.abs(u) <= np.abs(p))


@pytest.mark.parametrize(
    "kind,fractions",
    [(ErrorKind.PLE, (-0.4, 0.1, 0.3)), (ErrorKind.ORE, (-0.3, 0.2)), (NONE, ())],
    ids=["ple", "ore", "none"],
)
def test_drive_pullback_is_the_parameter_gradient(kind, fractions):
    # The ascent climbs p -> objective(u(p)); `_drives`' pullback of the exact
    # u-gradient must be that map's gradient, here against central differences
    # at channel pairs of |p| from 0.3 to 30, deep into the bound's saturation.
    rng = np.random.default_rng(11)
    bins, h = 8, 1e-6
    direction = rng.normal(size=(2 * bins, 2))
    radii = rng.permutation(np.geomspace(0.3, 30.0, 2 * bins))[:, None]
    p = (direction * radii / np.linalg.norm(direction, axis=1, keepdims=True)).reshape(bins, 4)
    errors, dt = error_pairs(kind, fractions), 6 * PI / bins

    def objective(params):
        return grape_module._objective(grape_module._drives(params)[0], dt, errors, USQ, 0.01)

    _, pullback = grape_module._drives(p)
    analytic = pullback(objective(p)[1])
    numeric = np.zeros_like(p)
    for index in np.ndindex(p.shape):
        step = np.zeros_like(p)
        step[index] = h
        numeric[index] = (objective(p + step)[0] - objective(p - step)[0]) / (2 * h)
    assert np.max(np.abs(analytic - numeric)) <= 1e-6 * np.max(np.abs(analytic))


@pytest.fixture(scope="module")
def small_run():
    cfg = GrapeConfig(bins=50, seed=3, max_iterations=800)
    return ascend(cfg)


def test_ascend_converges_small(small_run):
    f = gate_fidelity(
        propagator(small_run.schedule, NONE)[0], sequential_gate()
    )
    assert f >= 0.999
    assert small_run.iterations <= 800


def test_ascend_stops_when_no_step_raises_objective():
    # Converged before the cap: the last iteration found no Armijo step,
    # so the trace ends on two equal values, one row per iteration plus
    # the start.  The stop iteration moves with last-bit rounding (720 and
    # 758 for two rounding-equivalent forms of the bin propagators), so
    # this run's cap is more than twice either.
    run = ascend(GrapeConfig(bins=50, seed=3, max_iterations=2000))
    assert run.iterations < 2000
    assert len(run.trace) == run.iterations + 1
    assert run.trace[-1] == run.trace[-2]


@pytest.mark.parametrize("stored", [1, 3, grape_module.LBFGS_MEMORY])
def test_lbfgs_direction_matches_dense_inverse_hessian(stored):
    # The two-loop recursion against its dense form on 3 bins (12
    # parameters): H_0 = (s^T y / y^T y) I from the newest pair, then
    # H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T, oldest first.
    # The pairs are steps on a quadratic, y = B s, so s^T y > 0 as ascend keeps.
    rng = np.random.default_rng(stored)
    q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    hessian = q @ np.diag(np.linspace(1.0, 10.0, 12)) @ q.T
    history = []
    for _ in range(stored):
        s = rng.normal(size=12)
        y = hessian @ s
        history.append((s, y, 1.0 / (s @ y)))
    s, y, _ = history[-1]
    dense = (s @ y) / (y @ y) * np.eye(12)
    for s, y, rho in history:
        left = np.eye(12) - rho * np.outer(s, y)
        dense = left @ dense @ left.T + rho * np.outer(s, s)
    grad = rng.normal(size=(3, 4))
    expected = (dense @ grad.ravel()).reshape(3, 4)
    got = grape_module._lbfgs_direction(grad, history)
    assert got.shape == grad.shape
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_ascend_stops_at_the_first_iteration_without_an_armijo_step(monkeypatch):
    # A stub objective rises by one per evaluation up to evaluation 7 and
    # is flat after it.  Iterations 1..7 each take their first full step;
    # iteration 8 tries MAX_BACKTRACKS step lengths, gains nothing, stops.
    calls = []

    def rising_then_flat(u, dt, errors, target, penalty, work):
        calls.append(None)
        return float(min(len(calls) - 1, 7)), np.ones_like(u)

    monkeypatch.setattr(grape_module, "_objective", rising_then_flat)
    run = ascend(GrapeConfig(bins=5, max_iterations=50))
    assert run.iterations == 8 < 50
    assert run.trace == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 7.0)
    assert len(run.trace) == run.iterations + 1
    assert run.trace[-1] == run.trace[-2]
    assert len(calls) == 8 + grape_module.MAX_BACKTRACKS


def test_ascend_trace_monotone(small_run):
    trace = np.asarray(small_run.trace)
    assert np.all(np.diff(trace) >= 0.0)
    assert small_run.performance == pytest.approx(trace[-1])


@pytest.fixture(scope="module")
def full_power_run():
    # At 2 pi most channel pairs end at the bound, where |p| grows past 1e7.
    ore = tuple(np.linspace(-0.2, 0.2, 5))
    return ascend(GrapeConfig(ErrorKind.ORE, ore, 2 * PI, 60, max_iterations=300, seed=1))


def test_ascend_respects_bound(small_run, full_power_run):
    for run in (small_run, full_power_run):
        u = run.schedule.u
        assert np.all(np.hypot(u[:, 0], u[:, 1]) < 0.5)
        assert np.all(np.hypot(u[:, 2], u[:, 3]) < 0.5)


def test_ascend_deterministic(small_run):
    again = ascend(GrapeConfig(bins=50, seed=3, max_iterations=800))
    assert np.array_equal(again.schedule.u, small_run.schedule.u)
    assert again.performance == small_run.performance
    assert again.iterations == small_run.iterations


def test_ascend_flags_numerical_breakdown(monkeypatch):
    def poisoned(u, dt, errors, target, penalty, work):
        return float("nan"), np.zeros_like(u)

    monkeypatch.setattr(grape_module, "_objective", poisoned)
    with pytest.raises(GrapeNumericsError) as err:
        ascend(GrapeConfig(bins=5, max_iterations=3))
    assert err.value.iteration == 0


def test_trained_min_fidelity_ideal(small_run):
    assert trained_min_fidelity(small_run) >= 0.999


def test_ascend_with_restarts_returns_goal_run():
    cfg = GrapeConfig(bins=50, seed=3, max_iterations=800)
    pulse, score = ascend_with_restarts(cfg, restarts=3)
    assert pulse.config.seed == 3  # first seed already clears the goal
    assert score >= 0.99
    pulse2, score2 = ascend_with_restarts(cfg, restarts=3)
    assert np.array_equal(pulse.schedule.u, pulse2.schedule.u)
    assert score == score2


def test_schedule_to_pulses_examples():
    u = np.array(
        [
            [-0.25, 0.0, 0.0, 0.0],
            [0.0, -0.25, 0.0, -0.5],
            [0.25, 0.0, -0.1, 0.0],
        ]
    )
    p = schedule_to_pulses(ControlSchedule(u, 0.2))
    assert p[0] == pytest.approx([0.5, 0.0, 0.0, 0.0], abs=1e-14)
    assert p[1] == pytest.approx([0.5, PI / 2, 1.0, PI / 2], abs=1e-14)
    assert p[2, 0] == pytest.approx(0.5, abs=1e-14)
    assert p[2, 1] == pytest.approx(PI, abs=1e-14)
    assert p[2, 2] == pytest.approx(0.2, abs=1e-14)
    assert p[2, 3] == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pulse_representation_round_trip(seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-0.5, 0.5, size=(int(rng.integers(1, 20)), 4))
    s = ControlSchedule(u, float(rng.uniform(0.01, 1.0)))
    p = schedule_to_pulses(s)
    assert np.all(p[:, [1, 3]] >= 0.0)
    assert np.all(p[:, [1, 3]] < 2 * PI)
    back = pulses_to_schedule(p, s.dt)
    assert np.max(np.abs(back.u - s.u)) <= 1e-12
    assert back.dt == s.dt


def test_pulses_to_schedule_validation():
    with pytest.raises(ValueError):
        pulses_to_schedule(np.zeros((3, 3)), 0.1)
    bad = np.zeros((2, 4))
    bad[0, 0] = -0.2
    with pytest.raises(ValueError):
        pulses_to_schedule(bad, 0.1)
    bad[0, 0], bad[1, 2] = 0.2, -1.0
    with pytest.raises(ValueError):
        pulses_to_schedule(bad, 0.1)


def test_pulse_csv_round_trip(small_run, tmp_path):
    path = tmp_path / "pulse.csv"
    text = export_pulse_csv(small_run, path)
    assert path.read_text() == text
    lines = text.strip().splitlines()
    assert lines[0] == "bin,t_start,u_m,theta_m_over_pi,u_r,theta_r_over_pi"
    schedule, meta = import_pulse_csv(path)
    assert schedule.bins == small_run.schedule.bins
    assert np.max(np.abs(schedule.u - small_run.schedule.u)) <= 1e-9
    assert abs(schedule.dt - small_run.schedule.dt) <= 1e-9
    assert meta["error"] == "none"
    assert meta["seed"] == "3"
    assert float(meta["performance"]) == pytest.approx(
        small_run.performance, rel=1e-10
    )


def test_pulse_csv_deterministic(small_run):
    first = export_pulse_csv(small_run, io.StringIO())
    assert export_pulse_csv(small_run, io.StringIO()) == first


def test_export_pulse_csv_rejects_per_bin_durations(tmp_path):
    # Checkpoint rows start at j dt, so a schedule needs one bin duration.
    pulse = OptimizedPulse(composite("corpse"), 0.0, 0, (), GrapeConfig())
    path = tmp_path / "pulse.csv"
    with pytest.raises(ValueError, match="one bin duration, got 6 per-bin"):
        export_pulse_csv(pulse, path)
    assert not path.exists()


def test_import_pulse_csv_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n1,2,3\n")
    with pytest.raises(ValueError):
        import_pulse_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("bin,t_start,u_m,theta_m_over_pi,u_r,theta_r_over_pi\n")
    with pytest.raises(ValueError):
        import_pulse_csv(empty)


def test_import_pulse_csv_rejects_row_count_off_bins(small_run):
    # The last row deleted: 49 rows under `# bins=50`.
    lines = export_pulse_csv(small_run, io.StringIO()).splitlines()
    del lines[small_run.schedule.bins]
    with pytest.raises(ValueError, match="49 rows under bins=50"):
        import_pulse_csv(io.StringIO("\n".join(lines) + "\n"))


def test_import_pulse_csv_rejects_duplicate_bin(small_run):
    lines = export_pulse_csv(small_run, io.StringIO()).splitlines()
    lines[2] = lines[1]
    with pytest.raises(ValueError, match="bin column"):
        import_pulse_csv(io.StringIO("\n".join(lines) + "\n"))


def test_import_pulse_csv_rejects_t_start_off_bin_grid(small_run):
    # Bin 3 starting half a bin late: t_start must be 3 dt.
    lines = export_pulse_csv(small_run, io.StringIO()).splitlines()
    fields = lines[4].split(",")
    fields[1] = repr(3.5 * small_run.schedule.dt)
    lines[4] = ",".join(fields)
    with pytest.raises(ValueError, match="t_start"):
        import_pulse_csv(io.StringIO("\n".join(lines) + "\n"))


@pytest.mark.parametrize("column", [2, 4])
def test_import_pulse_csv_rejects_amplitude_over_one(small_run, column):
    lines = export_pulse_csv(small_run, io.StringIO()).splitlines()
    fields = lines[5].split(",")
    fields[column] = "1.000001"
    lines[5] = ",".join(fields)
    with pytest.raises(ValueError, match="amplitude"):
        import_pulse_csv(io.StringIO("\n".join(lines) + "\n"))


_CHECKPOINT_LINES = [
    PULSE_CSV_HEADER,
    "0,0,0.5,1,0.25,0.5",
    "1,0.1,1,0,0,0",
    "1,0.1,1.5,0,0,0",
    "1,0.2,0.3,1.5,1,1",
    "2,inf,0.1,0,0.1,0",
    "0,0,nan,0,0,0",
    "0,0,-0.5,0,2,0",
    "1,1e308,0,0,0,0",
    "# bins=2",
    "# bins=0",
    "# bins=x",
    "# total_time=0.2",
    "# total_time=-1",
    "# total_time=inf",
    "# total_time=nan",
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(),
        st.lists(
            st.one_of(st.sampled_from(_CHECKPOINT_LINES), st.text(max_size=24)),
            max_size=8,
        ).map(lambda rows: "\n".join([PULSE_CSV_HEADER, *rows])),
    )
)
@example(f"{PULSE_CSV_HEADER}\n0,0,0.5,1,0.25,0.5\n1,1e308,0,0,0,0\n2,inf,0.1,0,0.1,0")
def test_import_pulse_csv_fails_only_with_value_error(text):
    # Whatever the text, the parser returns a schedule or raises
    # ValueError, the error the CLI reports as an I/O failure (exit 3),
    # with no numpy warning on the way.  The example infers dt = 1e308, so
    # bin 2 would start at 2e308.
    try:
        schedule, _ = import_pulse_csv(io.StringIO(text))
    except ValueError:
        return
    pulses = schedule_to_pulses(schedule)
    assert np.all(pulses[:, (0, 2)] <= 1.0 + 1e-9)


@pytest.mark.parametrize(
    "rows,message",
    [
        (["0,0,nan,0,0,0", "1,0.1,0.5,0,0,0"], "non-finite drive"),
        (["0,0,0.5,inf,0,0", "1,0.1,0.5,0,0,0"], "non-finite drive"),
        (["0,0,0.5,0,0,0", "# bins=1", "# total_time=inf"], "last bin start"),
        (["0,0,0.5,0,0,0", "1,inf,0.5,0,0,0"], "last bin start"),
    ],
)
def test_import_pulse_csv_names_non_finite_values(rows, message):
    with pytest.raises(ValueError, match=message):
        import_pulse_csv(io.StringIO("\n".join([PULSE_CSV_HEADER, *rows])))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "rows,message",
    [
        # dt = -1e307 from the t_start column; bin 2 would be 1.9e308 off.
        (["0,0,0,0,0,0", "1,-1e307,0,0,0,0", "2,1.7e308,0,0,0,0"], "dt = -1e\\+307"),
        # dt = 1e307 > 0, but bin 2 starts 1.9e308 before 2 dt.
        (["0,0,0,0,0,0", "1,1e307,0,0,0,0", "2,-1.7e308,0,0,0,0"], "t_start is not"),
        (["0,0,0,0,0,0", "1,0,0,0,0,0"], "dt = 0,"),
        (["0,0,0.5,0,0,0", "1,0.1,0.5,0,0,0", "# bins=2", "# total_time=-1"], "dt = -0.5"),
    ],
)
def test_import_pulse_csv_rejects_steps_and_starts_near_the_float_limit(rows, message):
    # Every step must be positive and every t_start is compared with j dt
    # without overflowing, so each of these is a ValueError and no warning.
    with pytest.raises(ValueError, match=message):
        import_pulse_csv(io.StringIO("\n".join([PULSE_CSV_HEADER, *rows])))


def test_import_pulse_csv_reads_retired_ascent_keys(small_run):
    # Checkpoints written by the fixed-step ascent carry step_size,
    # tolerance and patience rows; they still import, keys kept as text.
    lines = export_pulse_csv(small_run, io.StringIO()).splitlines()
    lines += ["# step_size=0.1", "# tolerance=1e-09", "# patience=20"]
    schedule, meta = import_pulse_csv(io.StringIO("\n".join(lines) + "\n"))
    assert np.max(np.abs(schedule.u - small_run.schedule.u)) <= 1e-9
    assert meta["step_size"] == "0.1" and meta["patience"] == "20"


def test_import_pulse_csv_from_stream(small_run):
    text = export_pulse_csv(small_run, io.StringIO())
    schedule, _ = import_pulse_csv(io.StringIO(text))
    assert np.max(np.abs(schedule.u - small_run.schedule.u)) <= 1e-9


def test_optimized_pulse_is_frozen(small_run):
    with pytest.raises(dataclasses.FrozenInstanceError):
        small_run.performance = 0.0
    assert isinstance(small_run, OptimizedPulse)
