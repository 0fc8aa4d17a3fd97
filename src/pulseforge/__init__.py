"""Robust pulse engineering for the NV / 13C three-level effective model.

Sequential, BB1 and CORPSE constructions of the entangling gate,
fidelity-versus-error scans, and a robustness-averaged GRAPE optimizer,
all on the (|0>, |2>, |3>) subspace with dimensionless units.
"""

from .linalg import CONTROL_HAMILTONIANS, Z_TOTAL, gate_fidelity
from .sequences import (
    COMPOSITES,
    ControlSchedule,
    ErrorKind,
    composite,
    propagator,
    sequence_table,
    sequential_gate,
)
from .scanning import (
    GOOD_FIDELITY_THRESHOLD,
    ErrorGrid,
    ScanError,
    ScanResult,
    export_csv,
    good_fidelity_window,
    ple_series_fidelity,
    quadratic_loss_coefficient,
    scan,
    write_plot_script,
)
from .grape import (
    CONTROL_BOUND,
    PULSE_CSV_HEADER,
    GrapeConfig,
    GrapeNumericsError,
    OptimizedPulse,
    ascend,
    ascend_with_restarts,
    export_pulse_csv,
    gradient,
    import_pulse_csv,
    performance,
    pulses_to_schedule,
    schedule_to_pulses,
    trained_min_fidelity,
)

__version__ = "0.1.0"
