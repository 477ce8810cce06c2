"""Command line interface: simulate, sweep, verify.

Every config key doubles as a CLI flag so a file can be overridden per
key. Unknown keys fail closed. Exit codes: 0 success, 1 config error or
a report that cannot be written, 2 verification failure, 3 leakage or
numeric-instability error, or arrays that do not fit in memory.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    ConfigError,
    CosmofluxError,
    EntropyUndefinedError,
    LeakageError,
    NumericError,
    VerificationError,
)
from .report import (
    CONFIG_KEYS,
    SWEEP_ONLY_KEYS,
    RunConfig,
    SweepConfig,
    canonical_config,
    render_csv,
    render_json,
    run_simulation,
    run_sweep,
    verify_invariants,
)

def _add_common(parser: argparse.ArgumentParser, sweep: bool = False) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat JSON config file")
    parser.add_argument("--outfile", metavar="PATH", help="write the report here instead of stdout")
    for key in CONFIG_KEYS:
        parser.add_argument(f"--{key}", dest=key, default=None, metavar="V")
    if sweep:
        for key in SWEEP_ONLY_KEYS:
            parser.add_argument(f"--{key}", dest=key, default=None, metavar="V")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosmoflux",
        description="squeezing-channel work and entropy statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("simulate", help="run one configuration"))
    sweep = sub.add_parser("sweep", help="run a one-axis grid")
    verify = sub.add_parser("verify", help="run the invariant battery")
    _add_common(sweep, sweep=True)
    _add_common(verify)
    for quietable in (sweep, verify):
        quietable.add_argument("--quiet", action="store_true", help="suppress non-essential output")
    return parser


def _load_mapping(args: argparse.Namespace, sweep: bool = False) -> dict:
    mapping: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                mapping = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8 text: {exc}") from exc
        except RecursionError as exc:  # json nests by recursion
            raise ConfigError(f"config file nests too deeply: {exc}") from exc
        if not isinstance(mapping, dict):
            raise ConfigError("config file must hold a single JSON object")
    keys = CONFIG_KEYS + (SWEEP_ONLY_KEYS if sweep else ())
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            if key == "grid":
                try:
                    mapping[key] = [float(v) for v in str(value).split(",") if v != ""]
                except ValueError as exc:
                    raise ConfigError(f"--grid expects comma-separated numbers: {exc}") from exc
            else:
                mapping[key] = value
    return mapping


def _emit(text: str, outfile: str | None) -> None:
    if outfile:
        try:
            with open(outfile, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise CosmofluxError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_mapping(_load_mapping(args))
    row = run_simulation(cfg)
    if cfg.output == "csv":
        text = render_csv(row, cfg.precision)
    else:
        text = render_json(row, cfg.precision)
    _emit(text, args.outfile)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep = SweepConfig.from_mapping(_load_mapping(args, sweep=True))
    rows = run_sweep(sweep)
    if sweep.base.output == "csv":
        text = render_csv(rows, sweep.base.precision)
    else:
        text = render_json(rows, sweep.base.precision)
    _emit(text, args.outfile)
    n_failed = sum(1 for r in rows if r.get("error"))
    if n_failed and not args.quiet:
        print(f"{n_failed} of {len(rows)} grid points failed", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    mapping = _load_mapping(args)
    # output and precision only render a report: alone, they leave the
    # canonical point to check
    if set(mapping) <= {"output", "precision"}:
        mapping = {**canonical_config().to_mapping(), **mapping}
    lines, failures = verify_invariants(RunConfig.from_mapping(mapping))
    text = ("\n".join(lines[-1:] if args.quiet else lines)) + "\n"
    _emit(text, args.outfile)
    if failures:
        raise VerificationError(f"{failures} invariant check(s) failed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # bad command line is a config error, not a crash
        return 0 if exc.code in (0, None) else 1
    handlers = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (VerificationError, EntropyUndefinedError) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 2
    except (LeakageError, NumericError) as exc:
        print(f"numerical budget error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a cutoff whose arrays do not fit in memory
        detail = str(exc) or "MemoryError"
        print(f"numerical budget error: out of memory: {detail}", file=sys.stderr)
        return 3
    except CosmofluxError as exc:  # any future subtype: fail closed, not a crash
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
