"""In-memory spans around the public calls of each pulseforge module.

The benchmark installs a Tracer only for its traced run.  Each wrapped
function records one span (name, tag, start, end, parent span, operation)
per call; spans stay in a list until the run ends.  A name is wrapped in
every pulseforge module that holds it, so `pulseforge.cli.scan` and
`pulseforge.scanning.scan` are the same span.  Names that a module no
longer has are skipped and listed in `Tracer.missing`.
"""

from __future__ import annotations

import contextlib
import sys
import time

# Public names wrapped per layer.  `sequences.propagator` spans carry the
# sequence label as their tag, `scanning.scan` spans the gate count
# (schemes x grid points) of the call.
TARGETS = {
    "grape": (
        "ascend_with_restarts", "ascend", "trained_min_fidelity",
        "schedule_propagator", "step_propagator", "gradient", "performance",
        "clip_controls", "import_pulse_csv", "export_pulse_csv",
    ),
    "scanning": ("scan", "export_csv", "write_plot_script", "good_fidelity_window"),
    "sequences": ("propagator", "segment_propagator", "sequential_gate"),
    "linalg": ("expm_unitary", "gate_fidelity", "compose", "effective_hamiltonian"),
}


def _sequence_label(args, result):
    return getattr(args[0], "label", None) if args else None


def _gate_count(args, result):
    return len(result.grid.points) * len(result.series)


TAGGERS = {"sequences.propagator": _sequence_label, "scanning.scan": _gate_count}

# Span fields, stored as lists for speed.
NAME, TAG, START, END, PARENT, OP = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own code, such as one CLI command."""
        span = [name, None, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, func, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tagger = TAGGERS.get(name)

        def traced(*args, **kwargs):
            span = [name, None, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if tagger is not None:
                span[TAG] = tagger(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "pulseforge" or k.startswith("pulseforge."))]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"pulseforge.{layer}")
            for fname in names:
                func = getattr(home, fname, None)
                if not callable(func):
                    self.missing.append(f"{layer}.{fname}")
                    continue
                traced = self._wrap(func, f"{layer}.{fname}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is func:
                            setattr(module, attr, traced)
                            self._undo.append((module, attr, func))

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._undo):
            setattr(module, attr, func)
        self._undo.clear()
