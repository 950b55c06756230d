"""Command-line entry point.

Subcommands: train-dsrm, train, eval, sweep-steps, motivate, ablation.
Exit codes: 0 success, 1 validation error, 2 runtime fault.
Progress goes to stderr; data artifacts only to files.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import VARIANTS, ConfigError, RunConfig, load_config
from .pipeline import (log, log_config, policy_paths, run_ablation, run_eval,
                       run_motivate, run_sweep_steps, run_train_dsrm,
                       run_train_policy)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _load(args) -> RunConfig:
    """The config with the flag overrides applied, validated once, logged."""
    cfg = load_config(args.config) if args.config else RunConfig()
    # --seed, --epochs and --variant set the config key of the same name.
    for section, key in (("env", "seed"), ("dsrm", "epochs"), ("hrl", "variant")):
        if getattr(args, key, None) is not None:
            setattr(getattr(cfg, section), key, getattr(args, key))
    cfg.validate()
    log_config(cfg)
    return cfg


def _int_list(flag: str, text: str) -> list[int]:
    """A comma-separated flag value: at least one integer."""
    values = [int(s) for s in text.split(",") if s.strip()]
    if not values:
        raise ConfigError(f"{flag} must list at least one integer, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--config", help="run-config file path")
    base.add_argument("--out", default=".", help="output directory")
    common = argparse.ArgumentParser(add_help=False, parents=[base])
    common.add_argument("--seed", type=int, default=None,
                        help="override env.seed from the config")
    parser = argparse.ArgumentParser(
        prog="dsrm-hrl",
        description="Two-stage fairness-aware recommendation lab: diffusion "
                    "state purification plus hierarchical PPO in a synthetic "
                    "interactive environment.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-dsrm", parents=[common],
                       help="stage I: denoiser pre-training")
    p.add_argument("--epochs", type=int, default=None, help="override dsrm.epochs")

    p = sub.add_parser("train", parents=[common], help="stage II: policy training (denoiser frozen)")
    p.add_argument("--variant", choices=VARIANTS, default=None,
                   help="override hrl.variant")
    p.add_argument("--dsrm-ckpt", default=None,
                   help="denoiser checkpoint (required for DSRM-HRL and FLAT)")

    p = sub.add_parser("eval", parents=[common], help="greedy evaluation on held-out session seeds")
    p.add_argument("--ckpt", required=True, help="policy checkpoint")
    p.add_argument("--episodes", type=int, default=None, help="override eval.episodes")

    p = sub.add_parser("sweep-steps", parents=[common], help="diffusion-step sensitivity sweep")
    p.add_argument("--steps", default="5,20,200",
                   help="comma-separated diffusion step counts")

    p = sub.add_parser("motivate", parents=[common], help="popularity-bias analyses and state dumps")
    p.add_argument("--dsrm-ckpt", default=None,
                   help="denoiser checkpoint for the purification analyses")

    p = sub.add_parser("ablation", parents=[base],
                       help="train and evaluate every variant across seeds")
    p.add_argument("--seeds", default="11,15,19", help="comma-separated env seeds")
    return parser


def main(argv=None) -> int:
    """Runs one subcommand; a fault is logged and returned as its exit code."""
    args = build_parser().parse_args(argv)
    try:
        # eval runs on, and logs, the config snapshot in its checkpoint instead.
        cfg = None if args.command == "eval" else _load(args)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "train-dsrm":
            run_train_dsrm(cfg,
                           os.path.join(args.out, "dsrm.ckpt"),
                           os.path.join(args.out, "dsrm_loss.csv"))
        elif args.command == "train":
            run_train_policy(cfg, args.dsrm_ckpt,
                             *policy_paths(cfg.hrl.variant, f"s{cfg.env.seed}", args.out))
        elif args.command == "eval":
            run_eval(args.ckpt, episodes=args.episodes,
                     results_path=os.path.join(args.out, "results.csv"))
        elif args.command == "sweep-steps":
            run_sweep_steps(cfg, _int_list("--steps", args.steps), args.out)
        elif args.command == "motivate":
            run_motivate(cfg, args.out, dsrm_ckpt=args.dsrm_ckpt)
        elif args.command == "ablation":
            run_ablation(cfg, _int_list("--seeds", args.seeds), args.out)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        log(f"error: {exc}")
        return EXIT_VALIDATION
    except Exception as exc:  # runtime fault
        log(f"runtime fault: {exc}")
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
