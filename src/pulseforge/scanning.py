"""Fidelity-versus-error sweeps, analytic series checks, and CSV export.

A scheme is a labelled pulse, a `sequences.ControlSchedule`.  A scan
evaluates each pulse once over the whole grid through
`sequences.propagator` and scores every gate against the sequential
target with the overlap fidelity.  Grids are built with exact
+/- mirroring so evenness checks see true sign pairs instead of linspace
rounding dust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import gate_fidelity
from .sequences import ErrorKind, _write_text, error_pairs, propagator, sequential_gate

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
            if any(v < 0.0 or v > 1.0 for v in vals):
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
        try:
            stack = propagator(pulse, grid.kind, pts)
        except Exception as exc:
            raise ScanError(
                f"scheme {label!r} failed on the {grid.kind.value} grid "
                f"[{pts[0]:.6g}, {pts[-1]:.6g}] ({len(pts)} points): {exc}"
            ) from exc
        series[label] = tuple(gate_fidelity(stack, target).tolist())
    return ScanResult(grid=grid, series=series)


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
    pts = np.asarray(result.grid.points)
    fid = np.asarray(result.series[label])
    radii = np.abs(pts)
    best = None
    for r in np.unique(radii):
        if np.any(fid[radii == r] < threshold):
            break
        best = float(r)
    return best


def export_csv(result: ScanResult, destination) -> str:
    """Write the scan CSV to a path or text stream; returns the text.

    Header `epsilon,<labels...>`, values to 9 significant digits.
    """
    labels = list(result.series)
    lines = ["epsilon," + ",".join(labels)]
    for i, eps in enumerate(result.grid.points):
        row = [f"{eps:.9g}"] + [f"{result.series[lab][i]:.9g}" for lab in labels]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
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
