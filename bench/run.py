"""Benchmark of the pulseforge command line: GRAPE training and robustness sweeps.

    python3 bench/run.py --workload train-ple --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports pulseforge from ./src.  Every
operation calls `pulseforge.cli.main` in this process, the way the
`pulseforge` console script does, with click's standalone mode off and
numpy's thread pools held to one thread.  A run repeats whole rounds of the
workload's operations until --seconds have passed (two rounds at least, so
that every operation is run twice and its files can be compared byte for
byte), then checks every output file against the independent oracle in
bench/oracle.py.  Operation and set-up times are rescaled by a reference
kernel timed right before them, which takes out most of a shared machine's
drift in speed.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, op_s,
min_fidelity, peak_rss_mb).  With --trace 1 the first half of the run is
untraced, the second half runs with spans around the public calls of every
module (bench/tracer.py), and the metrics are the per-layer ones.
See bench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# One worker thread: set before numpy is first imported, here and in children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
PULSES = BENCH / "pulses"
OUT = BENCH / ".out"

SETUP_STARTS = 3  # fresh interpreters before the first round and after each
MIN_ROUNDS = 2
SEEDS_PER_ROUND = 2  # GRAPE seeds per training round
BINS, TRAIN_POINTS, PENALTY = 400, 5, 0.01
SCAN_POINTS = (399, 401, 403)  # the seed picks one; grids are [-1, 1]
DIRECT_CALLS = 15  # timed calls of grape.gradient / grape.performance
# Median wall time of ReferenceKernel on the 2-core machine the bounds were
# set on; op_s is expressed at that machine speed (bench/README.md).
REFERENCE_S = 0.25


@dataclass(frozen=True)
class Training:
    kind: str
    lo: float
    hi: float
    max_iterations: int


# The acceptance problems, capped so that every seed tried clears the CLI's
# 0.9 floor with room to spare (bench/README.md).
TRAININGS = {
    "train-ple": Training("ple", -0.5, 0.5, 300),
    "train-ore": Training("ore", -0.2, 0.2, 150),
}
PROBE_TRAINING = Training("none", 0.0, 0.0, 20)


@dataclass(frozen=True)
class Op:
    """One timed operation: CLI commands run back to back into one directory."""

    key: str  # operations with equal keys must write byte-identical files
    commands: tuple[tuple[str, ...], ...]
    out: Path
    check: Callable[[dict[str, str]], dict]


@dataclass
class Result:
    op: Op
    seconds: float
    files: dict[str, str]
    error: str | None
    reference: float = REFERENCE_S  # ReferenceKernel time just before the operation

    @property
    def calibrated(self) -> float:
        """Wall time rescaled to the machine speed at which the kernel takes REFERENCE_S."""
        return self.seconds * REFERENCE_S / self.reference


# -- workloads -----------------------------------------------------------------


def training_op(spec: Training, seed: int, out: Path) -> Op:
    argv = ["grape", "--error", spec.kind, "--bins", str(BINS), "--seed", str(seed),
            "--restarts", "1", "--penalty", str(PENALTY),
            "--max-iterations", str(spec.max_iterations), "--out", str(out),
            "--prefix", spec.kind]
    if spec.kind != "none":
        argv[3:3] = ["--train-min", f"{spec.lo:g}", "--train-max", f"{spec.hi:g}",
                     "--train-points", str(TRAIN_POINTS)]

    def check(files):
        import oracle

        return oracle.check_training(
            files[f"{spec.kind}_pulse.csv"], files[f"{spec.kind}_trace.csv"],
            files["stdout"], kind=spec.kind, lo=spec.lo, hi=spec.hi,
            train_points=TRAIN_POINTS, seed=seed, max_iterations=spec.max_iterations)

    return Op(f"grape-{spec.kind}-{seed}", (tuple(argv),), out, check)


def sweep_op(kinds: tuple[str, ...], points: int, out: Path) -> Op:
    """A sweep session: per error kind, scan the composites, compare a trained pulse."""
    grid = ("--grid-min", "-1", "--grid-max", "1", "--grid-points", str(points))
    commands = []
    for kind in kinds:
        common = ("--error", kind) + grid + ("--out", str(out), "--prefix", kind)
        commands.append(("scan", "--schemes", "sequential,bb1,corpse") + common)
        pulse = str(PULSES / f"{kind}_pulse.csv")
        commands.append(("compare", "--grape-pulse", pulse) + common)

    def check(files):
        import oracle

        lowest = 1.0
        for kind in kinds:
            rows, dt, meta = oracle.read_pulse((PULSES / f"{kind}_pulse.csv").read_text())
            composites = ["sequential", "bb1", "corpse"]
            sweep = dict(kind=kind, lo=-1.0, hi=1.0, points=points)
            oracle.check_sweep(files[f"{kind}_scan.csv"], labels=composites, **sweep)
            cols = oracle.check_sweep(files[f"{kind}_compare.csv"],
                                      labels=composites + ["grape"], pulse=(rows, dt), **sweep)
            eps, _ = oracle.read_sweep(files[f"{kind}_compare.csv"])
            reach = max(abs(float(e)) for e in meta["training"].split(","))
            lowest = min(lowest, float(cols["grape"][abs(eps) <= reach + 1e-12].min()))
        return {"min_fidelity": lowest}

    return Op(f"sweep-{'-'.join(kinds)}-{points}", tuple(commands), out, check)


def workload_ops(name: str, seed: int, out: Path) -> tuple[list[Op], list[Op]]:
    """(one round of timed operations, the traced run's probe operations).

    The probe reaches, once, the layers that the workload's own operations
    never call, so that every per-layer time is measured on every workload.
    """
    rng = random.Random(f"{name}:{seed}")
    if name in TRAININGS:
        spec = TRAININGS[name]
        seeds = [rng.randrange(1, 1_000_000) for _ in range(SEEDS_PER_ROUND)]
        ops = [training_op(spec, s, out / f"grape-{s}") for s in seeds]
        return ops, [sweep_op((spec.kind,), 81, out / "probe")]
    points = rng.choice(SCAN_POINTS)
    probe = training_op(PROBE_TRAINING, rng.randrange(1, 1_000_000), out / "probe")
    return [sweep_op(("ple", "ore"), points, out / "sweep")], [probe]


WORKLOADS = ("train-ple", "train-ore", "scan")


# -- running -------------------------------------------------------------------


class ReferenceKernel:
    """A fixed numpy kernel shaped like the program's hot loops.

    One eigendecomposition of a 400-bin stack of 3x3 Hermitian matrices and
    400 chained (5, 3, 3) products, 100 times over: about 0.25 s.  Its time
    just before an operation reads how fast the shared machine runs then.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        h = rng.normal(size=(400, 3, 3)) + 1j * rng.normal(size=(400, 3, 3))
        self.h = h + np.conj(np.swapaxes(h, -1, -2))
        self.u = np.broadcast_to(np.eye(3, dtype=complex), (5, 400, 3, 3)).copy()
        self.eigh = np.linalg.eigh

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(100):
            self.eigh(self.h)
            acc = self.u[:, 0]
            for j in range(400):
                acc = self.u[:, j] @ acc
        return time.perf_counter() - t0


class SetupClock:
    """Times of fresh interpreters that import pulseforge.cli.

    The starts are spread over the run, a few between rounds, and each batch
    is rescaled by the reference kernel timed right before it, as op_s is.
    setup_s is their median.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.cmd = [sys.executable, "-c", "import pulseforge.cli"]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        self.times: list[float] = []
        subprocess.run(self.cmd, cwd=ROOT, env=self.env, check=True)  # bytecode cache

    def start(self, n: int = SETUP_STARTS) -> None:
        scale = REFERENCE_S / self.kernel()
        for _ in range(n):
            t0 = time.perf_counter()
            subprocess.run(self.cmd, cwd=ROOT, env=self.env, check=True)
            self.times.append((time.perf_counter() - t0) * scale)


def run_op(op: Op, cli_main, tracer=None, op_id=None) -> Result:
    shutil.rmtree(op.out, ignore_errors=True)
    op.out.mkdir(parents=True)
    buf = io.StringIO()
    error = None
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            for argv in op.commands:
                span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
                with span:
                    cli_main(list(argv), standalone_mode=False)
    except Exception:  # a failed operation is counted, and the run goes on
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = None
    files = {p.name: p.read_text(encoding="ascii") for p in sorted(op.out.iterdir())}
    files["stdout"] = buf.getvalue()
    if error:
        print(f"operation {op.key} failed:\n{error}", file=sys.stderr)
    return Result(op, seconds, files, error)


def run_rounds(ops, cli_main, kernel, seconds: float, min_rounds: int, tracer=None,
               between=None) -> list[Result]:
    """Whole rounds of `ops` until `seconds` have passed; `between()` after each.

    The reference kernel runs right before every operation.
    """
    results: list[Result] = []
    t0 = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - t0 < seconds:
        for op in ops:
            reference = kernel()
            results.append(run_op(op, cli_main, tracer, len(results)))
            results[-1].reference = reference
        rounds += 1
        if between is not None:
            between()
    return results


def check_results(results: list[Result]) -> tuple[bool, dict[str, dict]]:
    """Byte-identical reruns, then the oracle on one output per key."""
    import oracle

    correct = True
    first: dict[str, Result] = {}
    for r in results:
        if r.error:
            continue
        ref = first.setdefault(r.op.key, r)
        if r.files != ref.files:
            print(f"{r.op.key}: rerun wrote different files", file=sys.stderr)
            correct = False
    facts = {}
    for key, r in first.items():
        try:
            facts[key] = r.op.check(r.files)
        except (oracle.CheckFailed, KeyError, ValueError) as exc:
            print(f"{key}: check failed: {exc!r}", file=sys.stderr)
            correct = False
    return correct, facts


# -- per-layer metrics ---------------------------------------------------------


def direct_timings(grape, sequences, cases) -> dict[str, float]:
    """ms per public gradient / performance call: the mean over cases
    (schedule, kind, fractions) of each case's median."""
    out = {}
    target = sequences.sequential_gate()
    for name in ("gradient", "performance"):
        func = getattr(grape, name, None)
        medians = []
        for schedule, kind, fractions in cases if func else ():
            args = (schedule, target, sequences.ErrorKind(kind), fractions)
            times = []
            for _ in range(DIRECT_CALLS):
                t0 = time.perf_counter()
                func(*args, PENALTY) if name == "gradient" else func(*args)
                times.append(time.perf_counter() - t0)
            medians.append(statistics.median(times))
        out[name] = statistics.fmean(medians) * 1e3 if medians else 0.0
    return out


def layer_metrics(tracer, traced, probe_ids, facts, untraced, direct) -> dict:
    from tracer import END, NAME, OP, PARENT, START, TAG

    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    op_ids = set(range(len(traced)))

    def pick(name, tag=None):
        """Spans of `name` from the workload's operations, else from the probe."""
        rows = [(s[END] - s[START], child[i], s[TAG], s[OP]) for i, s in enumerate(spans)
                if s[NAME] == name and (tag is None or s[TAG] == tag)]
        own = [r for r in rows if r[3] in op_ids]
        return own or [r for r in rows if r[3] in probe_ids]

    def mean(name, scale, tag=None):
        rows = pick(name, tag)
        return sum(r[0] for r in rows) / len(rows) * scale if rows else 0.0

    def self_mean(prefix, scale):
        rows = [r for s in {s[NAME] for s in spans if s[NAME].startswith(prefix)}
                for r in pick(s)]
        return sum(r[0] - r[1] for r in rows) / len(rows) * scale if rows else 0.0

    def calls(name):
        return sum(1 for s in spans if s[NAME] == name and s[OP] in op_ids) / len(traced)

    ascents = [facts[r.op.key] for r in traced if "iterations" in facts.get(r.op.key, {})]
    ascents = ascents or [f for k, f in facts.items() if "iterations" in f]
    iterations = sum(f["iterations"] for f in ascents)
    scans = pick("scanning.scan")
    scan_time = sum(r[0] for r in scans)
    op_s = statistics.median(r.calibrated for r in traced)
    m = {
        "cli.grape_s": (mean("cli.grape", 1.0), "s"),
        "cli.scan_s": (mean("cli.scan", 1.0), "s"),
        "cli.compare_s": (mean("cli.compare", 1.0), "s"),
        "cli.self_ms": (self_mean("cli.", 1e3), "ms"),
        "grape.ascend_s": (mean("grape.ascend", 1.0), "s"),
        "grape.iter_ms": (mean("grape.ascend", 1e3) * len(ascents) / iterations
                          if iterations else 0.0, "ms"),
        "grape.gradient_ms": (direct["gradient"], "ms"),
        "grape.performance_ms": (direct["performance"], "ms"),
        "grape.iterations": (iterations / len(ascents) if ascents else 0.0, "count"),
        "grape.accept_ratio": (sum(f["accepted"] for f in ascents) / iterations
                               if iterations else 0.0, "1"),
        "grape.schedule_propagator_ms": (mean("grape.schedule_propagator", 1e3), "ms"),
        "grape.schedule_propagator_calls": (calls("grape.schedule_propagator"), "count"),
        "grape.trained_min_fidelity_ms": (mean("grape.trained_min_fidelity", 1e3), "ms"),
        "grape.import_pulse_csv_ms": (mean("grape.import_pulse_csv", 1e3), "ms"),
        "grape.export_pulse_csv_ms": (mean("grape.export_pulse_csv", 1e3), "ms"),
        "scanning.scan_s": (mean("scanning.scan", 1.0), "s"),
        "scanning.scan_self_ms": (sum(r[0] - r[1] for r in scans) / len(scans) * 1e3
                                  if scans else 0.0, "ms"),
        "scanning.gates_per_s": (sum(r[2] for r in scans) / scan_time
                                 if scan_time else 0.0, "1/s"),
        "scanning.export_csv_ms": (mean("scanning.export_csv", 1e3), "ms"),
        "sequences.propagator_sequential_us": (
            mean("sequences.propagator", 1e6, "sequential"), "us"),
        "sequences.propagator_bb1_us": (mean("sequences.propagator", 1e6, "bb1"), "us"),
        "sequences.propagator_corpse_us": (mean("sequences.propagator", 1e6, "corpse"), "us"),
        "sequences.segment_propagator_calls": (calls("sequences.segment_propagator"), "count"),
        "linalg.expm_unitary_us": (mean("linalg.expm_unitary", 1e6), "us"),
        "linalg.expm_unitary_calls": (calls("linalg.expm_unitary"), "count"),
        "linalg.gate_fidelity_us": (mean("linalg.gate_fidelity", 1e6), "us"),
        "linalg.gate_fidelity_calls": (calls("linalg.gate_fidelity"), "count"),
        "trace.overhead_s": (op_s - statistics.median(r.calibrated for r in untraced), "s"),
        "run.op_wall_s": (statistics.median(r.seconds for r in untraced), "s"),
        "run.reference_s": (statistics.median(r.reference for r in untraced + traced), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def gradient_cases(grape, name: str, traced: list[Result]) -> list:
    """The workload's own schedules and training sets for the direct timings."""
    if name in TRAININGS:
        spec = TRAININGS[name]
        texts = [r.files[f"{spec.kind}_pulse.csv"] for r in traced if not r.error][:1]
    else:
        texts = [(PULSES / f"{k}_pulse.csv").read_text() for k in ("ple", "ore")]
    cases = []
    for text in texts:
        schedule, meta = grape.import_pulse_csv(io.StringIO(text))
        fractions = tuple(float(e) for e in meta["training"].split(","))
        cases.append((schedule, meta["error"], fractions))
    return cases


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pulseforge" / "cli.py").is_file():
        print(f"no pulseforge sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    out = OUT / f"{args.workload}-{os.getpid()}"
    ops, probe_ops = workload_ops(args.workload, args.seed, out)
    try:
        kernel = ReferenceKernel()
        setup = None if args.trace else SetupClock(kernel)
        sys.path.insert(0, str(SRC))
        from pulseforge import cli, grape, sequences

        if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"pulseforge imported from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2

        if not args.trace:
            setup.start()
            results = run_rounds(ops, cli.main, kernel, args.seconds, MIN_ROUNDS,
                                 between=setup.start)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            correct, facts = check_results(results)
            scores = [facts[op.key]["min_fidelity"] for op in ops if op.key in facts]
            metrics = {
                "setup_s": {"value": statistics.median(setup.times), "unit": "s"},
                "op_s": {"value": statistics.median(r.calibrated for r in results),
                         "unit": "s"},
                "min_fidelity": {"value": statistics.median(scores) if scores else 0.0,
                                 "unit": "1"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        else:
            from tracer import Tracer

            untraced = run_rounds(ops, cli.main, kernel, args.seconds / 2, 1)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_rounds(ops, cli.main, kernel, args.seconds / 2, 1, tracer)
                probes = [run_op(op, cli.main, tracer, f"probe-{i}")
                          for i, op in enumerate(probe_ops)]
            finally:
                tracer.uninstall()
            if tracer.missing:
                print(f"not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
            results = untraced + traced + probes
            correct, facts = check_results(results)
            direct = direct_timings(grape, sequences,
                                    gradient_cases(grape, args.workload, traced))
            probe_ids = {f"probe-{i}" for i in range(len(probes))}
            metrics = layer_metrics(tracer, traced, probe_ids, facts, untraced, direct)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()

    failed = sum(1 for r in results if r.error)
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
