"""Command-line entry point: run a scenario and export its trajectory."""

from __future__ import annotations

import argparse
import sys

from .control import NoRootInInterval
from .runner import PRESETS, ConfigError, export_csv, load_config, run_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_ROOT = 2
# exit code of an aborted run, by the class of the exception that aborted it
ABORT_EXIT_CODES = {NoRootInInterval: EXIT_NO_ROOT}


def _parse_initial(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "expected 4 comma-separated reals: c1re,c1im,c2re,c2im"
        )
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bangbang",
        description="Single-qubit decoherence simulator with cyclic restoring pulse control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its trajectory CSV")
    run_p.add_argument("--preset", choices=sorted(PRESETS), help="built-in scenario")
    run_p.add_argument("--config", help="JSON config file (flat key/value)")
    run_p.add_argument("--regime", choices=["adiabatic", "thermal"])
    run_p.add_argument("--gamma", type=float)
    run_p.add_argument("--step-T", dest="step_T", type=float)
    run_p.add_argument("--num-steps", dest="num_steps", type=int)
    run_p.add_argument("--noise-delta", dest="delta_I", type=float)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--omega-c", dest="omega_c", type=float)
    run_p.add_argument("--beta0", type=float)
    run_p.add_argument("--omega12", type=float)
    run_p.add_argument("--dim-n", dest="n", type=int)
    run_p.add_argument("--initial", type=_parse_initial, metavar="c1re,c1im,c2re,c2im")
    run_p.add_argument("--out", help="CSV output path")
    run_p.add_argument("--hermitize", action="store_true", default=None)
    run_p.add_argument("--thermal-offdiag", dest="thermal_offdiag",
                       choices=["consistent", "folded"])

    sub.add_parser("presets", help="list built-in scenarios")
    return parser


def _run(args: argparse.Namespace) -> int:
    # every other flag's dest is its configuration key
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "preset", "config")}
    try:
        cfg = load_config(path=args.config, preset=args.preset, **overrides)
        result = run_scenario(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if cfg.out:
        try:
            export_csv(result.trajectory, cfg.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        print(f"wrote {len(result.trajectory.rows)} rows to {cfg.out}")
    else:
        print(f"computed {len(result.trajectory.rows)} trajectory rows (no --out given)")
    print(f"stabilization: {result.stabilization_note}")

    if not result.run.completed:
        print(f"aborted at step {result.run.aborted_at}: {result.run.error}", file=sys.stderr)
        return ABORT_EXIT_CODES.get(result.run.error_type, EXIT_ERROR)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "presets":
        for name, cfg in sorted(PRESETS.items()):
            print(
                f"{name}: {cfg.regime.value}, gamma={cfg.gamma}, T={cfg.step_T}, "
                f"delta_I={cfg.noise.delta_I}, steps={cfg.num_steps}"
            )
        return EXIT_OK
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
