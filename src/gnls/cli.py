"""Command line entry point: gnls <subcommand> --config FILE [options].

Exit codes: 0 pass, 1 error (bad config, runtime failure), 2 statistical-test
failure.  GNLS_THREADS overrides --threads.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import ConfigError, ExperimentConfig, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gnls")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=False, help="JSON experiment config")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--threads", type=int, default=None)
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--dry-run", action="store_true")

    for kind in ("sample", "invariance", "moments", "truncation"):
        sub.add_parser(kind, parents=[common])

    va = sub.add_parser("variational", parents=[common])
    va.add_argument("--gamma", type=float, default=None, help="interaction sign/strength")
    va.add_argument("--K", type=float, default=None, dest="k_mass", help="mass cutoff")
    va.add_argument("--eta", type=float, default=None, help="bump amplitude")
    va.add_argument("--N-ladder", default=None, dest="n_ladder",
                    help="comma-separated cutoffs for the drifted-objective scan")
    va.add_argument("--L-ladder", default=None, dest="l_ladder",
                    help="comma-separated potential clips")
    va.add_argument("--ensemble", type=int, default=None)
    va.add_argument("--dt-sde", type=float, default=None, dest="dt_sde")

    ev = sub.add_parser("evolve", parents=[common])
    ev.add_argument("--mode", choices=["galerkin", "collocation"], default=None)
    ev.add_argument("--symbol", choices=["bracket", "pure"], default=None)
    ev.add_argument("--dt", type=float, default=None)
    ev.add_argument("--t-final", type=float, default=None)
    ev.add_argument("--oversample", type=float, default=None)

    gc = sub.add_parser("gauge-check", parents=[common])
    gc.add_argument("--k", type=int, default=None)
    gc.add_argument("--modes", type=int, default=None)
    gc.add_argument("--trials", type=int, default=None)
    gc.add_argument("--tolerance", type=float, default=None)
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, not {type(raw).__name__}")
    else:
        if args.command != "gauge-check":
            raise ConfigError("--config is required for this subcommand")
        raw = {
            "experiment": "gauge-check",
            "params": {"alpha": 2.0, "beta": 0.5, "gamma": 1.0, "n_cut": 4},
        }
    raw.setdefault("experiment", args.command)
    if raw["experiment"] != args.command:
        raise ConfigError(
            f"config experiment {raw['experiment']!r} does not match "
            f"subcommand {args.command!r}"
        )
    # flag overrides
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.threads is not None:
        raw["threads"] = args.threads
    if args.out is not None:
        raw["out"] = args.out
    if args.command == "evolve":
        flow = raw.setdefault("flow", {})
        if args.dt is not None:
            flow["dt"] = args.dt
        if args.t_final is not None:
            flow["t_final"] = args.t_final
        if args.symbol is not None:
            flow["dispersion_symbol"] = args.symbol
        if args.mode is not None:
            raw["mode"] = args.mode
        if args.oversample is not None:
            raw.setdefault("params", {})["oversampling"] = args.oversample
    if args.command == "gauge-check":
        gauge = raw.setdefault("gauge", {})
        for key in ("k", "modes", "trials", "tolerance"):
            value = getattr(args, key)
            if value is not None:
                gauge[key] = value
    if args.command == "variational":
        var = raw.setdefault("variational", {})
        if args.gamma is not None:
            var["gamma_sign"] = args.gamma
        if args.k_mass is not None:
            var["k_mass"] = args.k_mass
        if args.eta is not None:
            var["eta"] = args.eta
        if args.dt_sde is not None:
            var["dt_sde"] = args.dt_sde
        if args.n_ladder is not None:
            var["n_ladder"] = [int(x) for x in args.n_ladder.split(",")]
        if args.l_ladder is not None:
            var["l_ladder"] = [float(x) for x in args.l_ladder.split(",")]
        if args.ensemble is not None:
            raw["ensemble"] = args.ensemble
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (OSError, ValueError) as exc:  # ConfigError, bad JSON, bad encoding
        print(f"gnls: config error: {exc}", file=sys.stderr)
        return 1
    try:
        result = run(config, dry_run=args.dry_run)
    except Exception as exc:  # runtime failure -> exit 1 with diagnostic
        print(f"gnls: error: {exc}", file=sys.stderr)
        return 1
    if args.dry_run:
        print(json.dumps(result.payload["resolved"], indent=2, sort_keys=True))
        return 0
    print(json.dumps(result.payload, indent=2, sort_keys=True, default=float))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
