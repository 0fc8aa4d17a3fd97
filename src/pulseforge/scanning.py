"""Fidelity-versus-error sweeps, analytic series checks, and CSV export.

A scheme is a labelled pulse, a `sequences.ControlSchedule`.  A scan
scores every pulse's gates over the whole grid against the sequential
target with the overlap fidelity.  Every gate entry is an entire function
of the error fraction, of an exponential type read off the pulse, so the
scan runs `sequences.propagator` only at the Chebyshev nodes that a
rigorous bound (`_node_count`) says interpolate every entry to 1e-15 on
the grid's range, and interpolates to the grid points (`_grid_gates`).  A
grid with no more points than nodes, such as one point or a short grid,
is evaluated directly, as are pairs that use both error axes.  Grids are
built with exact +/- mirroring so evenness checks see true sign pairs
instead of linspace rounding dust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import gate_fidelity
from .sequences import (
    ErrorKind,
    _bright_states,
    _write_text,
    error_pairs,
    propagator,
    sequential_gate,
)

__all__ = [
    "ErrorGrid",
    "ScanResult",
    "ScanError",
    "scan",
    "ple_series_fidelity",
    "quadratic_loss_coefficient",
    "good_fidelity_window",
    "export_csv",
    "write_plot_script",
    "GOOD_FIDELITY_THRESHOLD",
]

# Fidelity floor defining a "good" operating window.
GOOD_FIDELITY_THRESHOLD = 0.9

@dataclass(frozen=True)
class ErrorGrid:
    """Ordered error fractions of one kind (PLE or ORE)."""

    kind: ErrorKind
    points: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind is ErrorKind.NONE:
            raise ValueError("grid kind must be PLE or ORE")
        error_pairs(self.kind, self.points)
        pts = self.points
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly increasing")

    @classmethod
    def uniform(cls, kind: ErrorKind, lo: float, hi: float, n: int) -> "ErrorGrid":
        """n evenly spaced points on [lo, hi].

        Symmetric ranges (lo == -hi) are mirrored exactly, so every point
        has its sign partner bit-for-bit and odd n contains an exact 0.
        Their points are hi * ((2k - m) / m) with m = n - 1, the ratio
        rounded once: hi and 0 are exact, and for a power-of-two hi every
        point is the double nearest its exact value.
        """
        if n < 1:
            raise ValueError("need at least one grid point")
        if n == 1:
            return cls(kind, (float(lo),))
        if lo == -hi and hi > 0:
            pts = hi * ((2 * np.arange(n) - (n - 1)) / (n - 1))
        else:
            pts = np.linspace(lo, hi, n)
        return cls(kind, tuple(float(p) for p in pts))


@dataclass(frozen=True)
class ScanResult:
    """Fidelity series per scheme label, aligned with the grid points."""

    grid: ErrorGrid
    series: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.grid.points)
        for label, vals in self.series.items():
            if len(vals) != n:
                raise ValueError(f"series {label!r} length {len(vals)} != grid {n}")
            v = np.asarray(vals, dtype=float)
            if not np.all((v >= 0.0) & (v <= 1.0)):  # NaN fails both
                raise ValueError(f"series {label!r} has fidelity outside [0, 1]")


class ScanError(RuntimeError):
    """A scheme failed; message carries the label and the grid range."""


def scan(schemes: Sequence[tuple[str, object]], grid: ErrorGrid) -> ScanResult:
    """Score every (label, pulse) scheme over the grid against the sequential gate."""
    if not schemes:
        raise ValueError("need at least one scheme")
    target = sequential_gate()
    pts = grid.points
    series: dict[str, tuple[float, ...]] = {}
    for label, pulse in schemes:
        try:  # gates that cannot be scored, such as non-finite ones, fail here too
            series[label] = tuple(gate_fidelity(_grid_gates(pulse, grid), target).tolist())
        except Exception as exc:
            raise ScanError(
                f"scheme {label!r} failed on the {grid.kind.value} grid "
                f"[{pts[0]:.6g}, {pts[-1]:.6g}] ({len(pts)} points): {exc}"
            ) from exc
    return ScanResult(grid=grid, series=series)


# `_node_count`'s Bernstein ellipse parameters rho and their terms, log(4e15 /
# (rho - 1)), rho - 1/rho and log(rho).
_RHO = np.geomspace(1.001, 1e4, 400)
_LOG_BOUND, _RHO_GAP, _LOG_RHO = np.log(4e15 / (_RHO - 1.0)), _RHO - 1.0 / _RHO, np.log(_RHO)


def _node_count(pulse, pairs: np.ndarray) -> int:
    """Chebyshev nodes whose interpolant errs by at most 1e-15 in every gate
    entry over the span of the (E, 2) `pairs`, or E if they use both axes.

    With x in [-1, 1] across the span and w its half-width, bin j's exponent
    gains -i w x t_j G_j: G_j is its control generator, of norm r_j
    (`_bright_states`), along the stretch axis, or Z_TOTAL / 3, of norm 2/3,
    along the detuning axis.  So the gates are entire in x with ||U(x)|| <=
    e^{tau |Im x|}, tau = w sum_j t_j ||G_j||, and at most M = e^{tau (rho -
    1/rho) / 2} on the Bernstein ellipse of parameter rho, where the degree-n
    interpolant errs by at most 4 M rho^-n / (rho - 1) (Trefethen,
    Approximation Theory and Approximation Practice, Thm 8.2).  n is the
    least over 400 log-spaced rho in [1.001, 1e4], and takes n + 1 nodes.
    """
    columns = pairs.T  # reduced one by one: numpy is slow along axis 0 of (E, 2)
    if all(c.any() for c in columns):
        return len(pairs)
    times = np.broadcast_to(np.asarray(pulse.dt, dtype=float), (len(pulse.u),))
    norms = times @ _bright_states(pulse.u)[0][:, 0], 2.0 / 3.0 * times.sum()
    tau = np.array([c.max() - c.min() for c in columns]) @ norms / 2.0
    degree = (_LOG_BOUND + tau * _RHO_GAP / 2.0) / _LOG_RHO
    return math.ceil(degree.min()) + 1


def _grid_gates(pulse, grid: ErrorGrid) -> np.ndarray:
    """The pulse's gates at every grid point, (E, 3, 3).

    With fewer `_node_count` nodes than points, `propagator` runs at the
    Chebyshev points of the second kind on [lo, hi], the grid's ends exactly,
    and one real barycentric matrix (Berrut and Trefethen, SIAM Rev. 46, 501
    (2004)) maps the float view of their gates to the grid.  It is one
    division of the weights by the point-node gaps, whose rows for points on
    a node, infinite there, are overwritten with that node's unit row, so
    such a point takes the node's gate.  Otherwise `propagator` runs on the
    grid.
    """
    pts = np.array(grid.points)
    n = _node_count(pulse, error_pairs(grid.kind, pts))
    if n >= len(pts):
        return propagator(pulse, grid.kind, pts)
    lo, hi = pts[0], pts[-1]
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.polynomial.chebyshev.chebpts2(n)
    nodes[0], nodes[-1] = lo, hi
    values = propagator(pulse, grid.kind, nodes).reshape(n, 9).view(float)
    weights = np.resize([1.0, -1.0], n)
    weights[[0, -1]] *= 0.5
    gap = np.subtract.outer(pts, nodes)
    rows, cols = np.nonzero(gap == 0.0)
    with np.errstate(divide="ignore"):  # the rows on a node, overwritten below
        basis = np.divide(weights, gap, out=gap)
    basis[rows] = 0.0
    basis[rows, cols] = 1.0
    basis /= basis.sum(axis=1, keepdims=True)
    return (basis @ values).view(complex).reshape(-1, 3, 3)


def ple_series_fidelity(eps_f: float) -> float:
    """Truncated analytic PLE fidelity of the sequential gate.

    F = 1 - (5 pi^2 / 96) eps^2 + (pi^4 / 4608) eps^4, valid to O(eps^6).
    """
    if abs(eps_f) > 1.0:
        raise ValueError(f"|eps_f| must be <= 1, got {eps_f}")
    e2 = eps_f * eps_f
    return 1.0 - (5.0 * math.pi**2 / 96.0) * e2 + (math.pi**4 / 4608.0) * e2 * e2


def quadratic_loss_coefficient(result: ScanResult, label: str | None = None) -> float:
    """Coefficient c of 1 - F = c eps^2 + ... near eps = 0.

    Affine least squares of (1 - F) against eps^2 restricted to
    |eps| <= 0.05; the intercept absorbs any constant offset so a flat
    series fits to exactly zero.  Needs >= 5 points covering +/-0.05.
    """
    if label is None:
        if len(result.series) != 1:
            raise ValueError("label required when the scan holds several series")
        label = next(iter(result.series))
    pts = np.asarray(result.grid.points)
    fid = np.asarray(result.series[label])
    mask = np.abs(pts) <= 0.05 + 1e-12
    if mask.sum() < 5 or pts[mask].min() > -0.05 + 1e-9 or pts[mask].max() < 0.05 - 1e-9:
        raise ValueError("fit needs >= 5 points spanning [-0.05, 0.05]")
    coeff = np.polyfit(pts[mask] ** 2, 1.0 - fid[mask], 1)
    return float(coeff[0])


def good_fidelity_window(
    result: ScanResult, label: str, threshold: float = GOOD_FIDELITY_THRESHOLD
) -> float | None:
    """Half-width of the largest symmetric interval of good fidelity.

    Returns the largest sampled |eps| such that every grid point with
    smaller or equal |eps| has F >= threshold, or None if even the
    innermost shell fails.
    """
    radii, shell = np.unique(np.abs(result.grid.points), return_inverse=True)
    bad = shell[np.asarray(result.series[label]) < threshold]  # the shells of points below
    first = int(bad.min(initial=len(radii)))  # the innermost bad shell, or past the last
    return float(radii[first - 1]) if first else None


def export_csv(result: ScanResult, destination) -> str:
    """Write the scan CSV to a path or text stream; returns the text.

    Header `epsilon,<labels...>`, values to 9 significant digits.
    """
    labels = list(result.series)
    row = ",".join(["%.9g"] * (1 + len(labels)))  # one format per row
    columns = zip(result.grid.points, *(result.series[lab] for lab in labels))
    text = "\n".join(["epsilon," + ",".join(labels)] + [row % values for values in columns]) + "\n"
    _write_text(destination, text, "scan CSV")
    return text


def write_plot_script(result: ScanResult, csv_path: str, destination) -> None:
    """Companion gnuplot script plotting every series in the exported CSV."""
    ncols = 1 + len(result.series)
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set xlabel '{result.grid.kind.value} error fraction'",
        "set ylabel 'gate fidelity'",
        "set yrange [0:1.02]",
        "set grid",
        f"plot for [col=2:{ncols}] '{csv_path}' using 1:col with lines lw 2",
    ]
    _write_text(destination, "\n".join(lines) + "\n", "plot script")
