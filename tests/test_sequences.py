"""Pulse schedules: the bare gate, its error response, and the composites."""

import math
import pathlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import USQ, Y20, Y23, ZHAT, bin_hamiltonian, segment_schedule, traced_peak
from pulseforge import (
    COMPOSITES,
    ControlSchedule,
    ErrorKind,
    composite,
    gate_fidelity,
    import_pulse_csv,
    propagator,
    sequence_table,
    sequential_gate,
)
from pulseforge import sequences
from pulseforge.sequences import (
    _basis_start,
    _bin_exponentials,
    _bright_states,
    _error_terms,
    _matmul2,
    _matmul3,
    _step_matrices,
    _turns,
    error_pairs,
    gates,
)

PI = np.pi
NONE = ErrorKind.NONE

# Pairs that stretch and detune at once, which no one-axis kind reaches.
MIXED_PAIRS = [[0.3, -0.2], [-0.5, 0.7], [1.0, -1.0]]


def exponentials(controls, durations, errors, psi=None):
    """t (N, E), `_bin_exponentials`' c and s, t w (3, N, E) for the closed-form
    eigenvalues w = (m - h, a, m + h), a = -d/3, b = 2 d/3, m = (a + b)/2 and
    h = hypot((b - a)/2, r), then the phases and (p, q, p') of every bin under
    the error pairs, (p, q, p') written into a fresh stack."""
    scale, drift = _error_terms(errors)
    times = scale * np.broadcast_to(np.asarray(durations, dtype=float), (len(controls),))
    bright = _bright_states(controls)
    a, b = -drift, 2.0 * drift
    m, h = 0.5 * (a + b), np.hypot(0.5 * (b - a), bright[0])
    tw = np.stack([times.T * (m - h), times.T * a, times.T * (m + h)])
    blocks = np.empty((3,) + times.T.shape, dtype=complex)
    c, s, phases, blocks = _bin_exponentials(bright, times, drift, blocks, psi)
    return times.T, c, s, tw, phases, blocks


def test_sequential_gate_matrix():
    u = sequential_gate()
    assert np.max(np.abs(u - USQ)) <= 1e-12
    assert np.max(np.abs(u @ u.conj().T - np.eye(3))) <= 1e-12


def test_sequential_gate_maps_zero_to_superposition():
    out = sequential_gate() @ np.array([1, 0, 0], dtype=complex)
    expected = np.array([1, 0, -1], dtype=complex) / np.sqrt(2)
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_sequential_segments_layout():
    rows = COMPOSITES["sequential"]
    assert len(rows) == 2
    (mw, mw_tau, mw_theta), (rf, rf_tau, rf_theta) = rows
    assert mw == "MW"
    assert mw_tau == pytest.approx(PI / 2)
    assert mw_theta == pytest.approx(PI / 2)
    assert rf == "RF"
    assert rf_tau == pytest.approx(PI)
    assert rf_theta == pytest.approx(PI / 2)
    assert composite("sequential").duration == pytest.approx(1.5 * PI, abs=1e-15)


def test_sequential_segments_reproduce_gate():
    u = propagator(composite("sequential"), NONE)[0]
    assert np.max(np.abs(u - sequential_gate())) <= 1e-10


def test_segment_order_matters():
    flipped = segment_schedule(COMPOSITES["sequential"][::-1])
    u = propagator(flipped, NONE)[0]
    assert np.max(np.abs(u - sequential_gate())) > 0.1


def test_propagator_of_an_ideal_mw_segment():
    seq = segment_schedule([("MW", PI / 2, PI / 2)])
    expected = scipy.linalg.expm(1j * (PI / 4) * Y20)
    assert np.max(np.abs(propagator(seq, NONE)[0] - expected)) <= 1e-12


def test_propagator_of_an_ideal_rf_segment_at_phase_zero():
    # A phase-0 area-pi RF segment is a bare x rotation on the (2, 3) block.
    seq = segment_schedule([("RF", PI, 0.0)])
    x23 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    expected = scipy.linalg.expm(1j * (PI / 2) * x23)
    assert np.max(np.abs(propagator(seq, NONE)[0] - expected)) <= 1e-12


@pytest.mark.parametrize("eps", [-0.5, -0.2, 0.1, 0.3])
def test_sequential_ple_closed_form(eps):
    # Amplitude miscalibration stretches both areas by the same factor.
    u = propagator(composite("sequential"), ErrorKind.PLE, (eps,))[0]
    expected = scipy.linalg.expm(1j * (PI / 2) * (1 + eps) * Y23) @ scipy.linalg.expm(
        1j * (PI / 4) * (1 + eps) * Y20
    )
    assert np.max(np.abs(u - expected)) <= 1e-10


@pytest.mark.parametrize("eps", [-0.4, 0.25])
def test_sequential_ore_closed_form(eps):
    # Detuning adds the diagonal generator inside each segment exponent.
    u = propagator(composite("sequential"), ErrorKind.ORE, (eps,))[0]
    um = scipy.linalg.expm(-1j * (PI / 6) * eps * ZHAT + 1j * (PI / 4) * Y20)
    ur = scipy.linalg.expm(-1j * (PI / 3) * eps * ZHAT + 1j * (PI / 2) * Y23)
    assert np.max(np.abs(u - ur @ um)) <= 1e-10


def test_error_pairs_put_each_kind_in_its_column():
    eps = (-0.5, 0.0, 0.25, 1.0)
    ple = error_pairs(ErrorKind.PLE, eps)
    ore = error_pairs(ErrorKind.ORE, eps)
    assert ple.shape == ore.shape == (4, 2)
    assert np.array_equal(ple[:, 0], eps) and not np.any(ple[:, 1])
    assert np.array_equal(ore[:, 1], eps) and not np.any(ore[:, 0])
    for fractions in ((), (0.0,), (0.0, 0.0)):
        assert np.array_equal(error_pairs(NONE, fractions), [[0.0, 0.0]])
    bad = [
        (ErrorKind.PLE, (0.1, -1.01), r"\|eps\| <= 1, got \|eps\| = 1.01"),
        (ErrorKind.ORE, (float("nan"),), r"\|eps\| <= 1"),
        (NONE, (0.3,), "ideal error model carries no fraction"),
        (ErrorKind.PLE, (), "ple error needs at least one fraction"),
        (ErrorKind.ORE, (), "ore error needs at least one fraction"),
    ]
    for kind, fractions, message in bad:
        with pytest.raises(ValueError, match=message):
            error_pairs(kind, fractions)


def test_propagators_reject_bad_fractions():
    schedule = ControlSchedule(np.zeros((2, 4)), 0.5)
    bad = [
        (ErrorKind.PLE, (1.5,)),
        (ErrorKind.PLE, (0.1, -1.01)),
        (ErrorKind.NONE, (0.3,)),
        (ErrorKind.ORE, (float("nan"),)),
        (ErrorKind.ORE, (float("inf"),)),
        (ErrorKind.PLE, ()),
        (ErrorKind.ORE, ()),
    ]
    for kind, fractions in bad:
        with pytest.raises(ValueError):
            propagator(composite("sequential"), kind, fractions)
        with pytest.raises(ValueError):
            propagator(schedule, kind, fractions)


def test_propagator_stacks_one_gate_per_fraction():
    seq = composite("bb1")
    fractions = (-0.4, 0.0, 0.25)
    stack = propagator(seq, ErrorKind.ORE, fractions)
    assert stack.shape == (3, 3, 3)
    for gate, eps in zip(stack, fractions):
        assert np.array_equal(gate, propagator(seq, ErrorKind.ORE, (eps,))[0])
    # Kind NONE is one ideal gate, for no fraction or zeros.
    assert propagator(seq, NONE, ()).shape == (1, 3, 3)
    assert np.array_equal(propagator(seq, NONE, (0.0, 0.0)), propagator(seq, NONE))


@pytest.mark.parametrize("kind", [ErrorKind.PLE, ErrorKind.ORE])
@pytest.mark.parametrize("n_bins", [1, 10, 400])
@pytest.mark.parametrize("n_fractions", [1, 5, 21, 403])
def test_gates_equal_bin_by_bin_product(kind, n_bins, n_fractions):
    # Chunks over bins bound memory but change no arithmetic: the gates
    # equal the documented blocked product, built here from the engine's
    # pieces over one full stack of bins.  Blocks of isqrt(N) bins, the last
    # one ragged, each start from their first bin's B^dag; every bin acts in
    # its own bright/dark basis and turns into the next bin's, the block's
    # last into the lab, and the block products chain into the running gate.
    # Every bin steps by its folded step matrix and one 3x3 product through
    # its terms, over all the pairs at once; `gates` too steps all 403 in
    # one bin loop, through the (3, 3, E) form of `_matmul3` above PAIRS.
    rng = np.random.default_rng(1000 * n_bins + n_fractions)
    controls = rng.uniform(-0.5, 0.5, size=(n_bins, 4))
    durations = rng.uniform(0.01, 0.2, size=n_bins)
    errors = error_pairs(kind, np.linspace(-1.0, 1.0, n_fractions))
    _, bx, by = _bright_states(controls)
    *_, phases, blocks = exponentials(controls, durations, errors)
    size, expected = math.isqrt(n_bins), None
    for first in range(0, n_bins, size):
        stop = min(first + size, n_bins)
        ends = np.arange(first, stop) == stop - 1
        turns = _turns(bx[first:stop], by[first:stop], ends[:, None])
        steps = np.empty((3, 3, stop - first, n_fractions), dtype=complex)
        _step_matrices(blocks[:, first:stop], phases[1, first:stop], turns, steps)
        y = _basis_start(bx[first], by[first], np.empty((3, 3, n_fractions), dtype=complex))
        for j in range(first, stop):
            terms = np.empty((3, 3, 3, n_fractions), dtype=complex)
            y = _matmul3(steps[:, :, j - first], y, np.empty_like(y), terms)
        expected = y if expected is None else _matmul3(y, expected, np.empty_like(y), np.empty_like(y))
    assert np.array_equal(gates(controls, durations, errors), np.moveaxis(expected, 2, 0))


@pytest.mark.parametrize("kind", [ErrorKind.PLE, ErrorKind.ORE])
def test_gates_match_sequential_running_product(kind):
    # The blocked order moves only rounding: against the plain running
    # product U_N (... (U_2 U_1)), on a dense grid of 403 fractions.
    rng = np.random.default_rng(7)
    controls = rng.uniform(-0.5, 0.5, size=(400, 4))
    errors = error_pairs(kind, np.linspace(-1.0, 1.0, 403))
    props = [gates(controls[j : j + 1], 0.05, errors) for j in range(400)]  # each U_j
    expected = props[0]
    for prop in props[1:]:
        expected = prop @ expected
    got = gates(controls, 0.05, errors)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def matrix_first_stacks():
    # Full (3, 3, 400, 5) stacks, a (3, 3, N, 1) operand broadcast over the
    # pairs, a small (3, 3, E) stack as in `gates`' bin loop, and the
    # every-20th-bin views (isqrt(401) = 20, ragged last block) the objective
    # steps through.
    rng = np.random.default_rng(3)

    def stack(*shape):
        return rng.normal(size=(3, 3) + shape) + 1j * rng.normal(size=(3, 3) + shape)

    props, prefix = stack(401, 5), stack(421, 5)
    return {
        "full": (stack(400, 5), stack(400, 5)),
        "broadcast-v": (stack(400, 1), stack(400, 5)),
        "small": (stack(5), stack(5)),
        "strided": (props[:, :, 7::20], prefix[:, :, 7:401:20]),
        "block-major": (stack(20, 20, 5)[:, :, 7], stack(20, 20, 5)[:, :, 7]),
        # every a_ik b_kj = 0 (-1) has real part -0, and so has their sum
        "signed-zeros": (np.zeros((3, 3, 5), dtype=complex), np.full((3, 3, 5), -1.0 + 0j)),
    }


@pytest.mark.parametrize("shape", [(), (401,), (20, 5)])
def test_matmul2_is_the_two_term_sum_over_broadcast_rows(shape):
    # out_i = a_i0 b_0 + a_i1 b_1 for 2x2 coefficients broadcast along the
    # three columns of each row, as the objective's R^T rotation takes them;
    # out may be b.
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2, 1) + shape) + 1j * rng.normal(size=(2, 2, 1) + shape)
    b = rng.normal(size=(2, 3) + shape) + 1j * rng.normal(size=(2, 3) + shape)
    tmp = np.empty((2, 2, 3) + shape, dtype=complex)
    got = _matmul2(a, b, np.empty_like(b), tmp)
    expected = np.stack([a[i, 0] * b[0] + a[i, 1] * b[1] for i in range(2)])
    assert np.array_equal(got, expected)
    in_place = b.copy()
    assert _matmul2(a, in_place, in_place, tmp) is in_place
    assert np.array_equal(in_place, expected)


@pytest.mark.parametrize("case", ["full", "broadcast-v", "small", "strided"])
def test_matmul3_is_the_three_term_sum_on_matrix_first_stacks(case):
    # Entry (i, j) is (a_i0 b_0j + a_i1 b_1j) + a_i2 b_2j, summed in that
    # order, so every product in the engine rounds the same at any size.
    a, b = matrix_first_stacks()[case]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    got = _matmul3(a, b, out, np.empty_like(out))
    assert got is out
    expected = np.empty(got.shape, dtype=complex)
    for i in range(3):
        for j in range(3):
            expected[i, j] = a[i, 0] * b[0, j] + a[i, 1] * b[1, j] + a[i, 2] * b[2, j]
    assert np.array_equal(got, expected)
    reference = np.einsum("ik...,kj...->ij...", a, b)
    assert np.max(np.abs(got - reference)) <= 1e-15 * np.max(np.abs(reference))


@pytest.mark.parametrize(
    "case", ["full", "broadcast-v", "small", "strided", "block-major", "signed-zeros"]
)
@pytest.mark.parametrize("into", ["contiguous", "strided"])
def test_matmul3_through_its_terms_is_the_three_term_sum_byte_for_byte(case, into):
    # Given a (3, 3, 3, ...) terms stack, `_matmul3` takes every a_ik b_kj in
    # one multiply and sums over k by one reduce; the sum runs in order from
    # -0, so the bytes, signed zeros included, are those of the three
    # accumulated products on every layout the engine passes: its slabs and
    # one step's block-major views, (..., 1) operands broadcast over the
    # pairs, and out strided as the objective's block products or contiguous.
    # `gates` steps up to PAIRS pairs this way and more pairs by the three
    # accumulated products, and the objective chains its block products so:
    # all must agree bit for bit.
    a, b = matrix_first_stacks()[case]
    shape = np.broadcast_shapes(a.shape, b.shape)
    expected = _matmul3(a, b, np.empty(shape, dtype=complex), np.empty(shape, dtype=complex))
    if into == "contiguous":
        out = np.empty(shape, dtype=complex)
    else:  # matrix-first views of a (n, 3, 3, ...) stack, as the block products
        out = np.moveaxis(np.empty(shape[2:3] + shape[:2] + shape[3:], dtype=complex), 0, 2)
    terms = np.full((3,) + shape, np.nan, dtype=complex)
    assert _matmul3(a, b, out, terms) is out
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("pairs", [1, 5])
@pytest.mark.parametrize("kind", [ErrorKind.PLE, ErrorKind.ORE, None], ids=["ple", "ore", "mixed"])
def test_step_matrices_are_the_same_bytes_from_a_chunk_and_a_slab(kind, pairs):
    # `gates` folds a (k, E) chunk of bins, the objective one (size, blocks, E)
    # slab of them all, with bin b size + j at (j, b); each bin's step must be
    # the same bytes either way, and each entry the out-of-place product of a
    # turn entry and one of p, q, e_1: numpy rounds an in-place product with
    # one-entry operands, as a one-bin chunk at one pair has, differently.
    size, n = 20, 400
    rng = np.random.default_rng(26)
    controls = rng.uniform(-0.5, 0.5, size=(n, 4))
    controls[[0, 57, 399]] = 0.0  # silent bins, whose basis is the lab's
    eps = np.linspace(-1.0, 1.0, pairs) if pairs > 1 else [0.3]
    errors = rng.uniform(-1.0, 1.0, size=(pairs, 2)) if kind is None else error_pairs(kind, eps)
    e = len(errors)
    *_, phases, blocks = exponentials(controls, rng.uniform(0.01, 0.2, size=n), errors)
    _, bx, by = _bright_states(controls)
    turns = _turns(bx, by, (np.arange(n) % size == size - 1)[:, None])  # gates' (2, 2, N, 1)
    slot = np.arange(n).reshape(-1, size).T  # bin b size + j at (j, b)
    slab = _step_matrices(
        blocks[:, slot],
        phases[1][slot],
        _turns(bx[slot], by[slot], (np.arange(size) == size - 1)[:, None, None]),
        np.full((3, 3, size, n // size, e), np.nan, dtype=complex),
    )
    (a, b), (p, q, p_), e1 = turns[0], blocks, phases[1]
    rows = np.array([
        [a * p, a * q, b * e1],
        [q, p_, np.zeros_like(q)],
        [-b.conj() * p, -b.conj() * q, a.conj() * e1],
    ])
    for start, stop in [(0, 20), (13, 20), (20, 27)] + [(j, j + 1) for j in range(n)]:
        chunk = _step_matrices(
            blocks[:, start:stop],
            e1[start:stop],
            turns[:, :, start:stop],
            np.full((3, 3, stop - start, e), np.nan, dtype=complex),
        )
        bins = np.arange(start, stop)
        assert chunk.tobytes() == np.ascontiguousarray(slab[:, :, bins % size, bins // size]).tobytes()
        assert chunk.tobytes() == rows[:, :, start:stop].tobytes()


def test_silent_bin_of_zero_duration_is_exactly_the_identity():
    # The GRAPE objective pads its last block of bins with u = 0, t = 0 and
    # relies on each pad multiplying as the exact identity under any pair:
    # stretched or not, detuned either way (mixing angle 0 or pi/2).
    pairs = np.array([(s, d) for s in (-0.5, 0.5) for d in (-0.2, 0.0, 0.2)])
    pad = gates(np.zeros((1, 4)), 0.0, pairs)
    assert np.array_equal(pad, np.broadcast_to(np.eye(3), pad.shape))


def sinc_reference_psi(t, tw):
    """Psi at ab = 20, 10, 21, 02, 01, 12 by np.exp and np.sinc, (6, N, E)."""
    theta = 0.5 * (tw[[0, 0, 1]] - tw[[2, 1, 2]])
    ab = -1j * t * np.exp(-1j * theta) * np.sinc(theta / np.pi)
    return np.concatenate((-ab.conj(), ab))


def assert_psi_matches_sinc_reference(controls, durations, errors):
    psi = np.full((6, len(controls), len(errors)), np.nan, dtype=complex)
    t, _, _, tw, _, _ = exponentials(controls, durations, errors, psi)
    ref = sinc_reference_psi(t, tw)
    assert np.all(np.abs(psi - ref) <= 1e-15 * np.abs(ref))


@pytest.mark.parametrize("theta", [0.0, 1e-300, 1e-170, 1e-8, 1e-3, 1.0])
def test_psi_matches_the_sinc_reference_from_zero_to_unit_gaps(theta):
    # One bin driven at u1 = theta for t = 1 under NONE has w = (-theta, 0,
    # theta), so its half gaps are -theta (ab = 02) and -theta / 2 twice;
    # theta = 0 is a silent bin, where sinc takes its limit 1.
    assert_psi_matches_sinc_reference([[theta, 0.0, 0.0, 0.0]], 1.0, error_pairs(NONE, ()))


PULSES = pathlib.Path(__file__).parents[1] / "bench" / "pulses"


@pytest.mark.parametrize("name", ["ple", "ore"])
@pytest.mark.parametrize(
    "kind, eps", [(ErrorKind.PLE, (-0.5, 0.0, 0.5)), (ErrorKind.ORE, (-0.2, 0.0, 0.2))]
)
def test_psi_and_phases_on_the_committed_pulses(name, kind, eps):
    # Psi of every bin of a trained pulse meets the np.exp / np.sinc
    # reference, and the phases written from real cos and sin are those of
    # np.exp(-1j * t w), bit for bit, so `gates` is unchanged by the rewrite.
    s, _ = import_pulse_csv(PULSES / f"{name}_pulse.csv")
    errors = error_pairs(kind, eps)
    assert_psi_matches_sinc_reference(s.u, s.dt, errors)
    _, _, _, tw, phases, _ = exponentials(s.u, s.dt, errors)
    assert phases.tobytes() == np.exp(-1j * tw).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "kind, eps",
    [
        (NONE, [0.0]),
        (ErrorKind.PLE, [0.0, -1.0, 0.4, 1.0]),
        (ErrorKind.ORE, [-1.0, -0.3, 0.0, 1e-9, 0.7, 1.0]),
        pytest.param(None, MIXED_PAIRS, id="mixed-pairs"),
    ],
)
def test_closed_form_eigensystem_rebuilds_the_generators(seed, kind, eps):
    # Random drives plus silent, MW-only, RF-only and 1e-170 bins.  Kind
    # None takes eps as (stretch, detuning) pairs.
    errors = np.array(eps) if kind is None else error_pairs(kind, eps)
    rng = np.random.default_rng(seed)
    controls = rng.uniform(-0.5, 0.5, size=(40, 4))
    controls[0] = 0.0
    controls[1, 2:] = 0.0
    controls[2, :2] = 0.0
    controls[3] = 1e-170
    controls[4] = (0.0, 0.0, 0.0, -1e-170)
    durations = rng.uniform(0.01, 0.3, size=40)
    t, c, s, tw, _, _ = exponentials(controls, durations, errors)
    # When no pair detunes, one angle per bin serves every pair, as the
    # objective's pair-summed gradient contraction relies on.
    if not np.any(errors[:, 1]):
        assert c.shape == (len(controls), 1)
    # V's columns: -c bright + s |2>, the dark state and s bright + c |2>, with
    # bright (bx, 0, by) and dark (by*, 0, -bx*) from the controls alone.
    _, bx, by = _bright_states(controls)
    bright, dark = np.stack([bx, 0 * bx, by], -1), np.stack([by.conj(), 0 * bx, -bx.conj()], -1)
    c, s, two = c[..., None], s[..., None], np.eye(3)[1]
    v = np.stack(np.broadcast_arrays(-c * bright + s * two, dark, s * bright + c * two), -1)
    # V and w serve every pair when none detunes (w is read off the first,
    # since PLE's fraction -1 has t = 0); otherwise each pair has its own.
    e = v.shape[1]
    tw = np.moveaxis(tw, 0, 2)
    w = tw[:, :e] / t[:, :e, None]
    gen = np.array([[bin_hamiltonian(u, d) for d in errors[:e, 1]] for u in controls])
    vh = np.swapaxes(v.conj(), -1, -2)
    assert np.max(np.abs((v * w[..., None, :]) @ vh - gen)) <= 1e-14
    assert np.max(np.abs(vh @ v - np.eye(3))) <= 1e-14
    assert np.max(np.abs(np.sort(w, axis=-1) - np.linalg.eigvalsh(gen))) <= 1e-14
    assert t.shape == tw.shape[:2] == (len(controls), len(eps))
    # A one-bin `gates` call is each bin's exponential.
    for j in range(len(controls)):
        for p, u in enumerate(gates(controls[j : j + 1], durations[j], errors)):
            expected = scipy.linalg.expm(-1j * t[j, p] * gen[j, p % e])
            assert np.max(np.abs(u - expected)) <= 1e-14


@pytest.mark.parametrize("kind", [ErrorKind.PLE, ErrorKind.ORE])
def test_gates_stay_unitary_on_a_dense_grid(kind):
    # 400 bins at 401 fractions: stepping each bin in its own basis keeps the
    # long product unitary to rounding.
    rng = np.random.default_rng(21)
    controls = rng.uniform(-0.5, 0.5, size=(400, 4))
    got = gates(controls, 6 * PI / 400, error_pairs(kind, np.linspace(-1.0, 1.0, 401)))
    defect = np.swapaxes(got.conj(), 1, 2) @ got - np.eye(3)
    assert np.max(np.abs(defect)) <= 1e-13


def dense_grid_peak(kind):
    # One warm `gates` call's traced peak at 401 fractions on 400 bins.
    rng = np.random.default_rng(22)
    controls = rng.uniform(-0.5, 0.5, size=(400, 4))
    errors = error_pairs(kind, np.linspace(-1.0, 1.0, 401))
    return traced_peak(lambda: gates(controls, 6 * PI / 400, errors))


def test_gates_memory_stays_bounded_on_a_dense_grid():
    # All 401 fractions are stepped at once, BLOCK_PROPAGATORS // 401 = 2
    # consecutive bins exponentiated per call, their (p, q, p') and step
    # matrices written into reused (3, 2, 401) and (3, 3, 2, 401) stacks, and
    # each 3x3 product takes its terms through a (3, 3, 401) stack, not a
    # (3, 3, 3, 401) one: one call at 401 ORE fractions on 400 bins peaks at
    # 0.631 MB of traced allocations, where a full (3, 3, N, E) stack alone
    # would take 23 MB.
    assert dense_grid_peak(ErrorKind.ORE) <= 0.65e6


def test_gates_memory_stays_bounded_on_a_dense_ple_grid():
    # As above under PLE, where one mixing angle serves every fraction:
    # 0.628 MB.
    assert dense_grid_peak(ErrorKind.PLE) <= 0.65e6


@pytest.mark.parametrize("budget", [1, 2, 7, 10**6])
@pytest.mark.parametrize("kind", [ErrorKind.PLE, ErrorKind.ORE, None], ids=["ple", "ore", "mixed"])
def test_gates_do_not_depend_on_the_chunk_size(monkeypatch, budget, kind):
    # The chunk stack is reused, so a block's first bin, a one-bin block, or
    # a ragged last chunk or block left reading the stack would change a gate.
    # The budget is also PAIRS, the most pairs `_matmul3` takes through a
    # (3, 3, 3, E) terms stack; more take a (3, 3, E) one, which must give the
    # same bytes, so the sweep compares both forms.  The PLE grids detune no
    # pair and take one shared mixing angle.
    rng = np.random.default_rng(23)
    pulses = [(s.u, s.dt) for s in map(composite, COMPOSITES)] + [
        (rng.uniform(-0.5, 0.5, size=(400, 4)), rng.uniform(0.01, 0.1, size=400)),
        (rng.uniform(-0.5, 0.5, size=(401, 4)), 6 * PI / 401),
    ]
    grids = []
    for size in (1, 5, 257, 401):
        eps = np.linspace(-1.0, 1.0, size) if size > 1 else [0.3]
        mixed = rng.uniform(-1.0, 1.0, size=(size, 2))  # stretch and detune at once
        mixed[: size // 2, 1] = 0.0  # but the first half only stretch
        grids.append(mixed if kind is None else error_pairs(kind, eps))
    forms, real = set(), sequences._matmul3

    def recorded(a, b, out, tmp):
        forms.add(tmp.shape[:-1])  # the terms stack, without its pairs axis
        return real(a, b, out, tmp)

    monkeypatch.setattr(sequences, "_matmul3", recorded)
    expected = [gates(u, dt, errors) for u, dt in pulses for errors in grids]
    monkeypatch.setattr(sequences, "BLOCK_PROPAGATORS", budget)
    monkeypatch.setattr(sequences, "PAIRS", budget)
    got = [gates(u, dt, errors) for u, dt in pulses for errors in grids]
    assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
    assert forms == {(3, 3, 3), (3, 3)}


@pytest.mark.parametrize(
    "fractions, calls",
    [
        (401, [(401, 2)] * 200),
        (21, [(21, 51)] * 7 + [(21, 43)]),
        (5, [(5, 216), (5, 184)]),
    ],
)
def test_gates_exponentiate_several_bins_per_call(monkeypatch, fractions, calls):
    # 400 bins make 20 blocks of 20, but a call takes BLOCK_PROPAGATORS // E
    # consecutive bins across them, the last call ragged: 216, 51 or 2 bins
    # at 5, 21 or 401 fractions, every fraction in every call.
    made = []
    real = sequences._bin_exponentials

    def counted(*args):
        made.append(args[1].shape)  # the (pairs, bins) of this call
        return real(*args)

    monkeypatch.setattr(sequences, "_bin_exponentials", counted)
    controls = np.random.default_rng(24).uniform(-0.5, 0.5, size=(400, 4))
    gates(controls, 0.05, error_pairs(ErrorKind.ORE, np.linspace(-1.0, 1.0, fractions)))
    assert made == calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gates_at_mixed_pairs_match_scipy(seed):
    # A pair (s, d) runs every bin for (1 + s) t under H_j + (d/3) Z.
    rng = np.random.default_rng(seed)
    controls = rng.uniform(-0.5, 0.5, size=(30, 4))
    durations = rng.uniform(0.01, 0.3, size=30)
    got = gates(controls, durations, np.array(MIXED_PAIRS))
    assert got.shape == (3, 3, 3)
    for gate, (s, d) in zip(got, MIXED_PAIRS):
        expected = np.eye(3)
        for u, t in zip(controls, durations):
            expected = scipy.linalg.expm(-1j * (1 + s) * t * bin_hamiltonian(u, d)) @ expected
        assert np.max(np.abs(gate - expected)) <= 1e-12


def test_segment_validation():
    # Per-bin durations: one finite positive entry per bin.
    u = np.zeros((3, 4))
    bad = [
        ([0.5, 0.5], r"bin durations must be one or \(3,\), got \(2,\)"),
        ([0.5, 0.5, 0.5, 0.5], r"\(3,\), got \(4,\)"),
        ([[0.5, 0.5, 0.5]], r"got \(1, 3\)"),
        ([0.5, 0.0, 0.5], "finite and positive"),
        ([0.5, -0.1, 0.5], "finite and positive"),
        ([0.5, float("inf"), 0.5], "finite and positive"),
        ([float("nan"), 0.5, 0.5], "finite and positive"),
    ]
    for dt, message in bad:
        with pytest.raises(ValueError, match=message):
            ControlSchedule(u, dt)


def test_propagator_empty_sequence_rejected():
    with pytest.raises(ValueError, match="N >= 1"):
        ControlSchedule(np.zeros((0, 4)), np.zeros(0))


def test_per_bin_durations_are_read_only_and_sum_to_the_duration():
    dt = [0.1, 0.2, 0.3]
    s = ControlSchedule(np.zeros((3, 4)), dt)
    assert s.dt.shape == (3,) and np.array_equal(s.dt, dt)
    with pytest.raises(ValueError):
        s.dt[0] = 1.0
    assert s.duration == 0.1 + 0.2 + 0.3  # left to right, as sum(dt)
    assert ControlSchedule(np.zeros((7, 4)), 0.1).duration == 7 * 0.1


def test_bb1_structure():
    rows = COMPOSITES["bb1"]
    assert len(rows) == 10
    channels = [channel for channel, _, _ in rows]
    assert channels == ["MW"] * 5 + ["RF"] * 5
    areas = np.array([tau for _, tau, _ in rows]) / PI
    assert np.allclose(areas, [0.25, 1, 2, 1, 0.25, 0.5, 1, 2, 1, 0.5], atol=1e-12)
    # Palindromic phase pattern per channel: base, phi, psi, phi, base.
    for block in (rows[:5], rows[5:]):
        thetas = [theta for _, _, theta in block]
        assert thetas[0] == pytest.approx(PI / 2)
        assert thetas[4] == pytest.approx(PI / 2)
        assert thetas[1] == pytest.approx(thetas[3])
    # One bin per row, lasting its area.
    assert np.array_equal(composite("bb1").dt, [tau for _, tau, _ in rows])


def test_bb1_phase_values():
    # phi = base + arccos(-tau / 4pi), psi = base + 3 (phi - base); the
    # exact values round to the conventional two-decimal multiples of pi.
    thetas = [theta for _, _, theta in COMPOSITES["bb1"]]
    mw_phi = thetas[1] / PI
    mw_psi = thetas[2] / PI
    rf_phi = thetas[6] / PI
    rf_psi = thetas[7] / PI
    assert mw_phi == pytest.approx(0.5 + np.arccos(-1 / 8) / PI, abs=1e-12)
    assert mw_psi == pytest.approx(0.5 + 3 * np.arccos(-1 / 8) / PI, abs=1e-12)
    assert rf_phi == pytest.approx(0.5 + np.arccos(-1 / 4) / PI, abs=1e-12)
    assert rf_psi == pytest.approx(0.5 + 3 * np.arccos(-1 / 4) / PI, abs=1e-12)
    assert (round(mw_phi, 2), round(mw_psi, 2)) == (1.04, 2.12)
    assert (round(rf_phi, 2), round(rf_psi, 2)) == (1.08, 2.24)


def test_bb1_duration():
    assert composite("bb1").duration == pytest.approx(9.5 * PI, abs=1e-12)


def test_bb1_ideal_collapses_to_gate():
    u = propagator(composite("bb1"), NONE)[0]
    assert np.max(np.abs(u - sequential_gate())) <= 1e-10


def test_bb1_beats_sequential_under_stretch():
    err = (ErrorKind.PLE, (0.3,))
    f_seq = gate_fidelity(propagator(composite("sequential"), *err)[0], sequential_gate())
    f_bb1 = gate_fidelity(propagator(composite("bb1"), *err)[0], sequential_gate())
    assert f_bb1 > f_seq
    assert f_bb1 > 0.99


def test_bb1_tolerates_half_scale_error():
    u = propagator(composite("bb1"), ErrorKind.PLE, (-0.5,))[0]
    f = gate_fidelity(u, sequential_gate())
    assert f >= 0.9


def test_corpse_structure():
    rows = COMPOSITES["corpse"]
    assert len(rows) == 6
    channels = [channel for channel, _, _ in rows]
    assert channels == ["MW"] * 3 + ["RF"] * 3
    # kappa = arcsin(sin(theta/2) / 2); areas theta/2 - kappa,
    # 2pi - 2 kappa, 2pi + theta/2 - kappa.
    for block, theta in ((rows[:3], PI / 2), (rows[3:], PI)):
        kappa = np.arcsin(np.sin(theta / 2) / 2)
        expected = (theta / 2 - kappa, 2 * PI - 2 * kappa, 2 * PI + theta / 2 - kappa)
        got = tuple(tau for _, tau, _ in block)
        assert np.allclose(got, expected, atol=1e-12)
        assert [th for _, _, th in block] == pytest.approx([PI / 2, -PI / 2, PI / 2])


def test_corpse_area_values():
    areas = np.array([tau for _, tau, _ in COMPOSITES["corpse"]]) / PI
    mw, rf = areas[:3], areas[3:]
    # The RF block closes in exact thirds; the MW block does not.
    assert np.allclose(rf, [1 / 3, 5 / 3, 7 / 3], atol=1e-12)
    assert np.allclose(
        mw,
        [0.13497327191869207, 1.7699465438373843, 2.134973271918692],
        atol=1e-12,
    )
    # Within half a unit in the second decimal of the commonly quoted
    # two-decimal table entries.
    assert np.allclose(mw, [0.14, 1.77, 2.14], atol=0.0051)
    assert np.allclose(rf, [0.33, 1.67, 2.33], atol=0.0051)


def test_corpse_ideal_collapses_to_gate():
    u = propagator(composite("corpse"), NONE)[0]
    assert np.max(np.abs(u - sequential_gate())) <= 1e-10


def test_corpse_duration_ratio():
    ratio = composite("corpse").duration / composite("sequential").duration
    assert ratio == pytest.approx(5.582150947338734, abs=1e-12)
    assert 5.58 <= ratio <= 5.60


def test_corpse_detuning_tradeoff():
    # The composite trades detuning robustness away near eps = 0.3.
    err = (ErrorKind.ORE, (0.3,))
    f_seq = gate_fidelity(propagator(composite("sequential"), *err)[0], sequential_gate())
    f_cor = gate_fidelity(propagator(composite("corpse"), *err)[0], sequential_gate())
    assert f_cor < f_seq


def test_bb1_quadratic_suppression_slope():
    # log-log slope of infidelity vs eps in the small-error regime: a
    # composite that cancels the first two orders shows slope >= 5.5
    # against the bare gate's 2.
    eps = np.array([0.01, 0.02, 0.04])
    target = sequential_gate()
    inf = np.array(
        [
            1.0
            - gate_fidelity(
                propagator(composite("bb1"), ErrorKind.PLE, (e,))[0], target
            )
            for e in eps
        ]
    )
    slope = np.polyfit(np.log(eps), np.log(inf), 1)[0]
    # The exact slope of these three points: the same fit to the fidelities
    # of the product of the ten segment exponentials, each computed with
    # mpmath.expm at 50 digits from the segments' double-precision areas and
    # phases.  In double precision the infidelity at eps = 0.01 (1.8e-12) is
    # about 8,000 ulps of 1, so one ulp of F is a relative error d of 1.2e-4
    # in it, and d moves the slope by d / (2 ln 2) ~ 0.72 d.  A few ulps
    # make 1e-3 the double-precision floor.
    assert slope == pytest.approx(5.998624433492261, abs=1e-3)
    assert 5.5 < slope < 6.5


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([ErrorKind.NONE, ErrorKind.PLE, ErrorKind.ORE]),
)
def test_propagator_unitarity(seed, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    segments = [
        (
            "MW" if rng.integers(2) else "RF",
            float(rng.uniform(0, 3 * PI)),
            float(rng.uniform(-2 * PI, 2 * PI)),
        )
        for _ in range(n)
    ]
    frac = 0.0 if kind is ErrorKind.NONE else float(rng.uniform(-1, 1))
    u = propagator(segment_schedule(segments), kind, (frac,))[0]
    assert np.max(np.abs(u @ u.conj().T - np.eye(3))) <= 1e-10


@pytest.mark.parametrize("name", list(COMPOSITES))
def test_stretch_response_is_even(name):
    target = sequential_gate()
    for eps in (0.1, 0.35, 0.6):
        fp = gate_fidelity(
            propagator(composite(name), ErrorKind.PLE, (eps,))[0], target
        )
        fm = gate_fidelity(
            propagator(composite(name), ErrorKind.PLE, (-eps,))[0], target
        )
        assert fp == pytest.approx(fm, abs=1e-9)


def test_sequence_table_round_trip():
    rows = COMPOSITES["bb1"]
    text = sequence_table("bb1")
    lines = text.strip().splitlines()
    assert lines[0] == "idx,channel,tau_over_pi,theta_over_pi"
    assert len(lines) == 1 + len(rows)
    row = lines[3].split(",")
    assert row[0] == "2"
    assert row[1] == "MW"
    assert float(row[2]) == pytest.approx(2.0, abs=1e-9)
    assert float(row[3]) == pytest.approx(rows[2][2] / PI, rel=1e-8)


def test_bb1_as_quarter_turn_bins_matches_its_segments():
    # BB1's areas are whole quarter turns, so 38 bins of dt = pi/4, each
    # repeating its segment's controls, give the per-bin-dt schedule's gates.
    quarters = [1, 4, 8, 4, 1, 2, 4, 8, 4, 2]
    bb1 = composite("bb1")
    assert np.allclose(bb1.dt, np.multiply(quarters, PI / 4), rtol=0, atol=1e-15)
    binned = ControlSchedule(np.repeat(bb1.u, quarters, axis=0), PI / 4)
    assert binned.bins == 38 and binned.duration == pytest.approx(bb1.duration)
    eps = np.linspace(-1, 1, 41)
    for kind in (ErrorKind.PLE, ErrorKind.ORE):
        diff = propagator(binned, kind, eps) - propagator(bb1, kind, eps)
        assert np.max(np.abs(diff)) <= 1e-13

