"""Command line entry point: gnls <subcommand> --config FILE [options].

Exit codes: 0 pass, 1 error (bad config, runtime failure, a NaN or infinity
in a JSON result), 2 statistical-test failure.  GNLS_THREADS overrides --threads.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dynamics import MODES, SYMBOLS
from .harness import ConfigError, ExperimentConfig, _json_text, run


def int_list(text: str) -> list:
    return [int(x) for x in text.split(",")]


def float_list(text: str) -> list:
    return [float(x) for x in text.split(",")]


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
    va.add_argument("--N-ladder", type=int_list, default=None, dest="n_ladder",
                    help="comma-separated cutoffs for the drifted-objective scan")
    va.add_argument("--L-ladder", type=float_list, default=None, dest="l_ladder",
                    help="comma-separated potential clips")
    va.add_argument("--ensemble", type=int, default=None)
    va.add_argument("--dt-sde", type=float, default=None, dest="dt_sde")

    ev = sub.add_parser("evolve", parents=[common])
    ev.add_argument("--mode", choices=MODES, default=None)
    ev.add_argument("--symbol", choices=SYMBOLS, default=None)
    ev.add_argument("--dt", type=float, default=None)
    ev.add_argument("--t-final", type=float, default=None)
    ev.add_argument("--oversample", type=float, default=None)

    gc = sub.add_parser("gauge-check", parents=[common])
    gc.add_argument("--k", type=int, default=None)
    gc.add_argument("--modes", type=int, default=None)
    gc.add_argument("--trials", type=int, default=None)
    gc.add_argument("--tolerance", type=float, default=None)
    return parser


# argparse dest -> (block, key) of the config value the flag overrides; block
# None is the top level
OVERRIDES = {
    **{dest: (None, dest) for dest in ("seed", "threads", "out", "ensemble", "mode")},
    "dt": ("flow", "dt"),
    "t_final": ("flow", "t_final"),
    "symbol": ("flow", "dispersion_symbol"),
    "oversample": ("params", "oversampling"),
    **{dest: ("gauge", dest) for dest in ("k", "modes", "trials", "tolerance")},
    "gamma": ("variational", "gamma_sign"),
    **{dest: ("variational", dest) for dest in ("k_mass", "eta", "dt_sde", "n_ladder", "l_ladder")},
}


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
    for dest, (block, key) in OVERRIDES.items():
        value = getattr(args, dest, None)
        if value is not None:
            target = raw if block is None else raw.setdefault(block, {})
            if isinstance(target, dict):  # else the parser rejects the block
                target[key] = value
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
        payload = result.payload["resolved"] if args.dry_run else result.payload
        text = _json_text(payload)
    except Exception as exc:  # runtime failure or a non-finite result -> exit 1
        print(f"gnls: error: {exc}", file=sys.stderr)
        return 1
    print(text)
    if args.dry_run:  # the grid the run would use, which no config key states
        geo = config.params.geometry
        print(
            f"gnls: grid d = {geo.d}, n_max = {geo.n_max}, m_grid = {geo.m_grid}, "
            f"oversampling = {geo.oversampling:.6g}, "
            f"galerkin = {'fft' if geo.plane_basis is None else 'planes'}",
            file=sys.stderr,
        )
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
