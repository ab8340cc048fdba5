"""Command-line front end.

The first argument names the experiment kind; every kind takes the same
flags and requires a config file whose experiment.kind matches it.
Exit codes: 0 success, 2 validation failure, 3 numerical failure
(NumericalFailure or LinAlgError), 4 a checked inequality or assertion
did not hold.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
import yaml

from .config import ConfigError, EXPERIMENT_KINDS, load_config, validate_config
from .hamiltonian import NumericalFailure
from .runner import run

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_CHECK = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randschrod",
        description="Numerical experiments on random Schroedinger operators",
    )
    parser.add_argument("kind", choices=EXPERIMENT_KINDS, metavar="EXPERIMENT",
                        help="experiment kind: " + ", ".join(EXPERIMENT_KINDS))
    parser.add_argument("--config", required=True, help="YAML config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override execution.master_seed")
    parser.add_argument("--out", default=None,
                        help="override the output root directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="override execution.threads")
    parser.add_argument("--validate-only", action="store_true",
                        help="check the config and exit without computing")
    return parser


def _apply_overrides(config, args) -> None:
    if not isinstance(config, dict):
        return
    execution = config.get("execution")
    if not isinstance(execution, dict):
        execution = {}
        config["execution"] = execution
    if args.seed is not None:
        execution["master_seed"] = args.seed
    if args.threads is not None:
        execution["threads"] = args.threads


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        config = load_config(args.config)
    except (OSError, yaml.YAMLError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    _apply_overrides(config, args)

    declared = None
    if isinstance(config, dict) and isinstance(config.get("experiment"), dict):
        declared = config["experiment"].get("kind")
    if declared is not None and declared != args.kind:
        print(
            f"config error: experiment.kind: config declares {declared!r} "
            f"but the command line names {args.kind!r}",
            file=sys.stderr,
        )
        return EXIT_VALIDATION

    errors = validate_config(config)
    if errors:
        for message in errors:
            print(f"config error: {message}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.validate_only:
        print(f"[{args.kind}] config OK")
        return EXIT_OK

    try:
        envelope = run(config, out_root=args.out)
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    print(f"[{args.kind}] {envelope.summary} -> {envelope.directory}")
    if envelope.check_passed is False:
        print(f"check failed: {envelope.check.get('what', '')}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
