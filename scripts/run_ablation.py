#!/usr/bin/env python3
"""Full ablation: train and evaluate DSRM-HRL, HRL-RAW and FLAT across
seeds, appending one row per (variant, seed) to results.csv.

Usage: python scripts/run_ablation.py --out runs/ablation [--seeds 11,15,19]
Exit codes as for dsrm-hrl: 0 success, 1 invalid input, 2 runtime fault.
"""

import argparse
import os
import sys

from dsrm_hrl.cli import exit_code
from dsrm_hrl.config import EvalConfig, RunConfig, VARIANTS, load_config
from dsrm_hrl.pipeline import log, run_eval, run_train_dsrm, run_train_policy


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None, help="run-config file")
    ap.add_argument("--seeds", default="11,15,19")
    ap.add_argument("--episodes", type=int, default=200)
    ap.add_argument("--out", default="runs/ablation")
    args = ap.parse_args()

    seeds = [int(s) for s in args.seeds.split(",")]
    configs = [load_config(args.config) if args.config else RunConfig() for _ in seeds]
    for seed, cfg in zip(seeds, configs):  # every config valid before any training
        cfg.env.seed = seed
        cfg.validate()
    EvalConfig(episodes=args.episodes).validate()
    os.makedirs(args.out, exist_ok=True)
    results_csv = os.path.join(args.out, "results.csv")

    for seed, cfg in zip(seeds, configs):
        dsrm_ckpt = os.path.join(args.out, f"dsrm_s{seed}.ckpt")
        run_train_dsrm(cfg, dsrm_ckpt, os.path.join(args.out, f"dsrm_loss_s{seed}.csv"))
        for variant in VARIANTS:
            cfg.hrl.variant = variant
            tag = variant.lower().replace("-", "_")
            ckpt = os.path.join(args.out, f"policy_{tag}_s{seed}.ckpt")
            run_train_policy(cfg, dsrm_ckpt, ckpt,  # HRL-RAW loads no denoiser
                             os.path.join(args.out, f"train_{tag}_s{seed}.csv"))
            run_eval(ckpt, episodes=args.episodes, results_path=results_csv)
    log(f"ablation complete: {results_csv}")
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
