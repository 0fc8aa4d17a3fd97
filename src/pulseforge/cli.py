"""Command-line front end: scans, GRAPE runs, scheme comparison, model info.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 optimization
failure.  The `main` group is the one place where library failures become
exit codes: `OSError` 3, `ScanError` and `GrapeNumericsError` 4, each with
its own message.  Only the config, output-directory and pulse-file handlers
word their own, naming the file.  All commands are deterministic for fixed
flags and seeds, so repeated runs produce byte-identical output files.
"""

from __future__ import annotations

import math
from pathlib import Path

import click
import numpy as np

from .grape import (
    GrapeConfig,
    GrapeNumericsError,
    ascend_with_restarts,
    export_pulse_csv,
    import_pulse_csv,
)
from .scanning import (
    GOOD_FIDELITY_THRESHOLD,
    ErrorGrid,
    ScanError,
    export_csv,
    good_fidelity_window,
    scan,
    write_plot_script,
)
from .sequences import (
    COMPOSITES,
    ErrorKind,
    _write_text,
    composite,
    sequence_table,
    sequential_gate,
)

PI = math.pi


class IOFailure(click.ClickException):
    exit_code = 3


class OptimizationFailure(click.ClickException):
    exit_code = 4


def _read_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make a key=value config file the command's defaults; flags and env win."""
    if not path:
        return
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise IOFailure(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise click.UsageError(f"config file {path} is not ASCII text: {exc}") from exc
    entries: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"bad config line (want key=value): {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip().lower().replace("-", "_")] = value.strip()
    names = {}  # parameter name or long flag -> parameter, so total_time or time
    for p in ctx.command.params:
        if p is not param:
            for key in [p.name] + [o[2:] for o in p.opts if o.startswith("--")]:
                names[key.replace("-", "_")] = p.name
    for key in entries:
        if key not in names:
            click.echo(f"note: config key {key!r} not used by this command", err=True)
    ctx.default_map = {names[k]: v for k, v in entries.items() if k in names}


def _output_options(command):
    """--out, --prefix and --config, shared by the commands that write files."""
    options = (
        click.option("--out", envvar="PULSEFORGE_OUT", default=".", show_default=True,
                     help="output directory (env PULSEFORGE_OUT)"),
        click.option("--prefix", default=None,
                     help="output file prefix [default: error kind]"),
        click.option("--config", "config_path", callback=_read_config, is_eager=True,
                     expose_value=False,
                     help="key=value file supplying defaults; explicit flags win"),
    )
    for option in reversed(options):  # the last one applied is listed first
        command = option(command)
    return command


def _ensure_out_dir(out: str) -> Path:
    p = Path(out)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOFailure(f"cannot create output directory {out}: {exc}") from exc
    return p


def _load_pulse(path: str):
    try:
        return import_pulse_csv(path)[0]
    except (OSError, ValueError) as exc:
        raise IOFailure(f"cannot load pulse file {path}: {exc}") from exc


def _output_paths(params: dict, *names: str) -> list[Path]:
    """`<out>/<prefix>_<name>` for each name; the prefix defaults to the error kind."""
    out = _ensure_out_dir(params["out"])
    return [out / f"{params['prefix'] or params['error']}_{name}" for name in names]


def _scheme_factories(schemes: str):
    """(label, pulse) pairs from a comma list; schemes as in `scanning`."""
    pairs = []
    seen: dict[str, int] = {}
    for token in schemes.split(","):
        token = token.strip()
        if not token:
            continue
        if token in COMPOSITES:
            label, pulse = token, composite(token)
        elif token.startswith("grape:"):
            label, pulse = "grape", _load_pulse(token[len("grape:") :])
        else:
            raise click.UsageError(f"unknown scheme {token!r}")
        seen[label] = seen.get(label, 0) + 1
        if seen[label] > 1:
            label = f"{label}_{seen[label]}"
        pairs.append((label, pulse))
    if not pairs:
        raise click.UsageError("no schemes given")
    return pairs


def _lambda_mhz(params: dict) -> float:
    if not (math.isfinite(lam := params["lambda_mhz"]) and lam > 0):
        raise click.UsageError(f"--lambda-mhz must be finite and positive, got {lam:g}")
    return lam


def _duration(dur: float, lam: float) -> str:
    return f"{dur / PI:.6g} pi = {dur / lam:.4g} us at Lambda = {lam:g} MHz"


def _grid(kind: ErrorKind, lo: float, hi: float, n: int) -> ErrorGrid:
    try:
        return ErrorGrid.uniform(kind, lo, hi, n)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _scan_to_csv(params: dict, pulses, name: str):
    """Scan the schemes over the command's grid; write `<prefix>_<name>.csv`."""
    kind = ErrorKind(params["error"])
    grid = _grid(kind, params["grid_min"], params["grid_max"], params["grid_points"])
    result = scan(pulses, grid)
    [csv_path] = _output_paths(params, f"{name}.csv")
    export_csv(result, csv_path)
    return result, csv_path


def _print_windows(result) -> None:
    for label in result.series:
        w = good_fidelity_window(result, label)
        if w is None:
            click.echo(f"  {label}: no F >= {GOOD_FIDELITY_THRESHOLD} window")
        else:
            click.echo(f"  {label}: F >= {GOOD_FIDELITY_THRESHOLD} for |eps| <= {w:g}")


def _print_corpse_note(result) -> None:
    series = result.series
    if "corpse" not in series or "sequential" not in series:
        return
    pts = result.grid.points
    worse = [
        eps
        for eps, c, s in zip(pts, series["corpse"], series["sequential"])
        if c < s - 1e-12
    ]
    if worse:
        example = min((e for e in worse if e > 0), default=worse[0])
        click.echo(
            f"  note: corpse fidelity drops below sequential at "
            f"{len(worse)} grid points (e.g. eps = {example:g})"
        )


class _Main(click.Group):
    """The command group: library failures become exit codes 3 and 4 here."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # a closed stdout: click's own exit
        except OSError as exc:
            raise IOFailure(str(exc)) from exc
        except (ScanError, GrapeNumericsError) as exc:
            raise OptimizationFailure(str(exc)) from exc


@click.group(cls=_Main, context_settings={"help_option_names": ["-h", "--help"]})
def main():
    """Robust pulse engineering for the three-level NV / 13C spin model."""


@main.command(name="scan")
@click.option("--error", type=click.Choice(["ple", "ore"]), default="ple",
              show_default=True, help="systematic error model to sweep")
@click.option("--schemes", default="sequential,bb1,corpse", show_default=True,
              help="comma list of sequential,bb1,corpse,grape:<pulsefile>")
@click.option("--grid-min", type=float, default=-1.0, show_default=True)
@click.option("--grid-max", type=float, default=1.0, show_default=True)
@click.option("--grid-points", type=int, default=81, show_default=True)
@_output_options
def cmd_scan(**params):
    """Sweep an error fraction and tabulate fidelity per scheme."""
    result, csv_path = _scan_to_csv(params, _scheme_factories(params["schemes"]), "scan")
    write_plot_script(result, csv_path.name, csv_path.with_suffix(".gp"))
    click.echo(f"wrote {csv_path} ({len(result.grid.points)} points, {params['error']})")
    click.echo("good-fidelity windows:")
    _print_windows(result)
    _print_corpse_note(result)


@main.command(name="grape")
@click.option("--error", type=click.Choice(["ple", "ore", "none"]), default="ple",
              show_default=True, help="error model averaged during training")
@click.option("--train-min", type=float, default=-0.2, show_default=True)
@click.option("--train-max", type=float, default=0.2, show_default=True)
@click.option("--train-points", type=int, default=5, show_default=True)
@click.option("--bins", type=int, default=GrapeConfig.bins, show_default=True)
@click.option("--time", "total_time", type=float, default=GrapeConfig.total_time,
              help=f"total pulse time in 1/Lambda [default: {GrapeConfig.total_time / PI:g}*pi]")
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--restarts", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--penalty", type=float, default=GrapeConfig.penalty, show_default=True,
              help="power penalty weight alpha_p")
@click.option("--init-scale", type=float, default=GrapeConfig.init_scale, show_default=True)
@click.option("--max-iterations", type=int, default=GrapeConfig.max_iterations,
              show_default=True)
@click.option("--lambda-mhz", type=float, default=1.0, show_default=True,
              help="physical max Rabi amplitude, for printed unit annotations only")
@_output_options
def cmd_grape(**params):
    """Train a robust pulse by L-BFGS ascent and checkpoint it."""
    lam = _lambda_mhz(params)
    kind = ErrorKind(params["error"])
    if kind is ErrorKind.NONE:
        training: tuple[float, ...] = ()
    else:
        training = _grid(
            kind, params["train_min"], params["train_max"], params["train_points"]
        ).points
    fields = GrapeConfig.__dataclass_fields__  # every option of that name sets it
    try:
        cfg = GrapeConfig(kind, training, **{k: v for k, v in params.items() if k in fields})
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    pulse, score = ascend_with_restarts(cfg, restarts=params["restarts"])

    pulse_path, trace_path = _output_paths(params, "pulse.csv", "trace.csv")
    export_pulse_csv(pulse, pulse_path)
    rows = "".join(f"{i},{val:.12g}\n" for i, val in enumerate(pulse.trace))
    _write_text(trace_path, "iteration,objective\n" + rows, "trace CSV")

    click.echo(f"wrote {pulse_path} and {trace_path}")
    click.echo(
        f"best restart seed {pulse.config.seed}: objective {pulse.performance:.6f} "
        f"after {pulse.iterations} iterations"
    )
    if kind is ErrorKind.NONE:
        click.echo(f"final fidelity (no error model): {score:.6f}")
    else:
        click.echo(
            f"trained-range min fidelity ({params['error']} in "
            f"[{params['train_min']:g}, {params['train_max']:g}]): {score:.6f}"
        )
    click.echo(f"pulse duration {_duration(cfg.total_time, lam)}")
    if score < GOOD_FIDELITY_THRESHOLD:
        raise OptimizationFailure(
            f"trained-range min fidelity {score:.6f} < {GOOD_FIDELITY_THRESHOLD} "
            f"after {params['restarts']} restart(s); try more time, bins, or restarts"
        )


@main.command(name="compare")
@click.option("--error", type=click.Choice(["ple", "ore"]), default="ple",
              show_default=True)
@click.option("--grape-pulse", required=True,
              help="pulse checkpoint CSV from the grape command")
@click.option("--grid-min", type=float, default=-0.5, show_default=True)
@click.option("--grid-max", type=float, default=0.5, show_default=True)
@click.option("--grid-points", type=int, default=41, show_default=True)
@click.option("--lambda-mhz", type=float, default=1.0, show_default=True)
@_output_options
def cmd_compare(**params):
    """Run all schemes on one grid; report mean fidelities and durations."""
    lam = _lambda_mhz(params)
    grape_sched = _load_pulse(params["grape_pulse"])
    pulses = [(name, composite(name)) for name in COMPOSITES] + [("grape", grape_sched)]
    result, csv_path = _scan_to_csv(params, pulses, "compare")

    durations = {label: pulse.duration for label, pulse in pulses}
    click.echo(f"wrote {csv_path}")
    pts = result.grid.points
    click.echo(
        f"mean fidelity over [{pts[0]:g}, {pts[-1]:g}] "
        f"({len(pts)} points, {params['error']}):"
    )
    for label, vals in result.series.items():
        click.echo(f"  {label:<12} {np.mean(vals):.6f}")
    click.echo("durations (units of 1/Lambda):")
    for label, dur in durations.items():
        click.echo(f"  {label:<12} {_duration(dur, lam)}")
    ratio = durations["corpse"] / durations["sequential"]
    click.echo(f"  corpse/sequential duration ratio: {ratio:.4f}")
    _print_corpse_note(result)


@main.command(name="info")
def cmd_info():
    """Print the model summary: basis, target gate, composites, constants, units."""
    u_sq = sequential_gate()
    click.echo("three-level effective model, basis order (|0>, |2>, |3>)")
    click.echo("MW drives the |0>-|2> transition, RF drives |2>-|3>")
    click.echo("")
    click.echo("target gate U_sq = U_r U_m (rows/cols in basis order):")
    for row in u_sq.real:
        cleaned = [0.0 if abs(v) < 5e-13 else v for v in row]
        click.echo("  [ " + "  ".join(f"{v:+9.6f}" for v in cleaned) + " ]")
    click.echo("U_sq |0> = (|0> - |3>)/sqrt(2), the entangled target state")
    for name in ("bb1", "corpse"):
        duration = composite(name).duration
        click.echo("")
        click.echo(f"{name} segments ({duration / PI:.6g} pi), index 0 first:")
        click.echo(sequence_table(name), nl=False)
    click.echo("")
    click.echo("transition frequencies (documentation only; model is frequency-free):")
    click.echo("  |0>-|2> (MW)        2.88 GHz")
    click.echo("  |2>-|3> (RF)        130 MHz")
    click.echo("  hyperfine splitting 2 MHz")
    click.echo("")
    click.echo("units: amplitudes in Lambda, times in 1/Lambda; at Lambda = 1 MHz")
    duration = composite("sequential").duration
    click.echo(f"the sequential gate (duration {duration / PI:.6g} pi) lasts {duration:.4g} us")


if __name__ == "__main__":
    main()
