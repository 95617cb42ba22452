"""Command-line driver.

Subcommands: solve, verify, norm, series. `verify` prints the one list of
identity checks, `verify.run_checks`.
Global flags, which describe the invocation (the config file describes the
problem): --config PATH, --out DIR (default: the working directory) and
--threads 1, the only count it accepts: the transforms run on the caller's
thread.
Exit codes: 0 on success, 1 on malformed input (a malformed command line
and a file that cannot be read or written included), 2 when a solve does not
converge or a check fails.
The driver restates no rule or default of the library: parse_config and
solve_nse refuse bad input, naming the key and line or the argument f or u0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import abel_coefficients, series_residuals
from .holder import anisotropic_norm, spatial_norm
from .io import RunConfig, parse_config, read_field, write_csv, write_field
from .nse import ReducedSolveError, solve_nse
from .verify import run_checks

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NOT_CONVERGED = 2


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as bad input (exit 1), not with
    argparse's exit 2, which here means a failed solve or check."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="layerflow")
    parser.add_argument("--config", type=Path, default=None, help="flat key = value config file")
    parser.add_argument("--out", type=Path, default=Path(), help="output directory")
    parser.add_argument("--threads", type=int, choices=(1,),
                        help="accepts only 1: the transforms run on the caller's thread")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the reduced-equation solver on field files")
    p_solve.add_argument("forcing", type=Path, help="time-dependent 1-form file (LFF1)")
    p_solve.add_argument("initial", type=Path, help="static 1-form file (LFF1)")
    p_solve.set_defaults(run=cmd_solve)

    sub.add_parser("verify", help="run the identity/property suite").set_defaults(run=cmd_verify)

    p_norm = sub.add_parser("norm", help="weighted norm report of a field file")
    p_norm.add_argument("field", type=Path)
    p_norm.set_defaults(run=cmd_norm)

    p_series = sub.add_parser("series", help="series coefficients and residual table")
    p_series.add_argument("--n", type=int, default=3)
    p_series.add_argument("--delta", type=float, default=1.5)
    p_series.add_argument("--K", type=int, default=60)
    p_series.set_defaults(run=cmd_series)
    return parser


def _out_dir(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def _print_checks(results) -> int:
    """One line per check; the exit code is nonzero iff a check failed."""
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        rel = {"<=": "<=", "range": "in 2.0+-"}[r.comparator]
        print(f"{r.name:<{width}}  value={r.value:.6e}  threshold {rel} {r.threshold:.3e}  {status}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_NOT_CONVERGED


def cmd_solve(args, cfg: RunConfig) -> int:
    forcing = read_field(args.forcing, cfg.grid)
    initial = read_field(args.initial, cfg.grid)
    exit_code = EXIT_OK
    try:
        state = solve_nse(forcing, initial, cfg.solver)
    except ReducedSolveError as err:
        print(f"solver did not converge: {err}", file=sys.stderr)
        state = err.state
        exit_code = EXIT_NOT_CONVERGED
    out = _out_dir(args)  # only now: a refused solve leaves no directory
    write_field(out / "u.lff", state.u)
    write_field(out / "p.lff", state.p)
    write_field(out / "g.lff", state.g)
    res = state.diagnostics["residuals"]
    times = cfg.grid.times()
    rows = []
    for j, t in enumerate(times):
        rows.append(("momentum", j, t, res["momentum_sup"][j], res["momentum_l2"][j]))
        rows.append(("divergence", j, t, res["divergence_sup"][j], res["divergence_l2"][j]))
    rows.append(("initial", 0, 0.0, res["initial_sup"], res["initial_l2"]))
    write_csv(out / "residuals.csv", ("check", "slice", "t", "sup", "l2"), rows)
    energy = state.diagnostics["energy"]
    write_csv(out / "energy.csv", ("slice", "t", "energy", "dissipation", "power", "defect"),
              [(j, energy["t"][j], energy["energy"][j], energy["dissipation"][j],
                energy["power"][j], energy["defect"][j]) for j in range(len(times))])
    write_csv(out / "iterations.csv", ("iteration", "residual", "damping"),
              [(h["iteration"], h["residual"], h["damping"])
               for h in state.diagnostics["iterations"]])
    return exit_code


def cmd_verify(args, cfg: RunConfig) -> int:
    return _print_checks(run_checks(cfg))


def cmd_norm(args, cfg: RunConfig) -> int:
    field = read_field(args.field)
    report = anisotropic_norm(field, cfg.norms) if field.time_dependent \
        else spatial_norm(field, cfg.norms)
    rows = [(label, value) for label, value in sorted(report.breakdown.items())]
    rows.append(("total", report.total))
    rows.append(("pairs_sampled", report.pairs_sampled))
    write_csv(_out_dir(args) / "norm.csv", ("term", "value"), rows)
    for label, value in rows:
        print(f"{label},{value}")
    return EXIT_OK


def cmd_series(args, cfg: RunConfig) -> int:
    series = abel_coefficients(args.n, args.delta, args.K)
    rows = [("a", k, c) for k, c in enumerate(series.coeffs)]
    rows += [("residual", r, res) for r, res in series_residuals(series)]
    write_csv(_out_dir(args) / "series.csv", ("kind", "index", "value"), rows)
    for kind, idx, val in rows:
        print(f"{kind},{idx},{val}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # every command reads the config, so a malformed one is refused
        # whatever the command
        return args.run(args, parse_config(args.config))
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
