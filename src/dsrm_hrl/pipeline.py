"""Experiment orchestration: the two-stage training paradigm (denoiser
pre-training, then policy learning with the denoiser frozen), evaluation
on a held-out session-seed range, the diffusion-step sweep, the variant
ablation and the motivation analyses. The CLI is a thin wrapper over them."""

from __future__ import annotations

import contextlib
import copy
import os
import sys
from dataclasses import replace

import numpy as np

from .agent import TRAIN_LOG, Agent, evaluate, train
from .config import EVAL_SEED_OFFSET, VARIANTS, RunConfig, render_config
from .diffusion import Denoiser, ReverseChain, purify, train_dsrm
from .env import RecEnv, collect_pairs, random_rollout
from .metrics import MetricsReport, session_stats
from .nn import ShapeError, check_layout
from .persistence import (CheckpointError, checkpoint_param_hash,
                          load_checkpoint, save_checkpoint, write_csv,
                          write_embedding_dump, write_results)
from . import config as config_mod


def log(msg: str):
    print(msg, file=sys.stderr)


def log_config(cfg: RunConfig):
    log("resolved config:")
    for line in render_config(cfg).splitlines():
        log(f"  {line}")


# The run seed is cfg.env.seed. Keys [seed, seed, tag] repeat it to keep every
# artifact byte-identical until the seed streams are derived from one key.

# -- stage I ----------------------------------------------------------------

def run_train_dsrm(cfg: RunConfig, ckpt_path, loss_csv_path=None):
    """Collect paired data from uniform-random rollouts and fit the
    denoiser. Saves a checkpoint and optionally the loss curve."""
    env = RecEnv(cfg.env)
    pair_rng = np.random.default_rng([cfg.env.seed, cfg.env.seed, 10])
    clean, noisy = collect_pairs(env, cfg.dsrm.n_pairs, pair_rng)
    denoiser, curve = train_dsrm(clean, noisy, cfg.dsrm, seed=cfg.env.seed)
    save_checkpoint(ckpt_path, _tensors({"denoiser": denoiser.net}), render_config(cfg))
    if loss_csv_path is not None:
        write_csv(loss_csv_path, ["epoch", "loss"],
                  [[i + 1, l] for i, l in enumerate(curve)])
    if curve:
        log(f"stage I: {len(curve)} epochs, loss {curve[0]:.4f} -> {curve[-1]:.4f}")


def _tensors(modules: dict) -> dict:
    """The parameters of modules ({prefix: module}) by checkpoint name, "<prefix>.<name>"."""
    return {f"{prefix}.{k}": v for prefix, module in modules.items()
            for k, v in module.parameters().items()}


def _fill(ckpt_path, tensors: dict, modules: dict):
    """Copies a checkpoint's tensors into modules ({prefix: module}) if they
    are exactly _tensors(modules) by name and shape, else raises
    CheckpointError naming the first tensor missing, unexpected or mis-shaped."""
    try:
        check_layout(_tensors(modules), tensors)
    except ShapeError as exc:
        raise CheckpointError(f"{ckpt_path}: {exc}") from exc
    for prefix, module in modules.items():
        params = module.parameters()
        params.assign({k: tensors[f"{prefix}.{k}"] for k in params})


def _denoiser(ckpt_path, tensors: dict, cfg: RunConfig) -> Denoiser:
    """The denoiser rebuilt from a checkpoint's "denoiser." tensors, which
    it takes out of tensors."""
    params = {k: tensors.pop(k) for k in list(tensors) if k.startswith("denoiser.")}
    if not params:
        raise CheckpointError(f"{ckpt_path}: no denoiser tensors")
    denoiser = Denoiser(cfg.dsrm, cfg.env.d)
    _fill(ckpt_path, params, {"denoiser": denoiser.net})
    return denoiser


def load_denoiser(ckpt_path, d: int):
    """Rebuild a denoiser from a checkpoint, reading only its "denoiser."
    tensors, and refuse it (ValueError) unless its snapshot's env.d is d."""
    tensors, cfg_text = load_checkpoint(ckpt_path)
    cfg = config_mod.parse_config(cfg_text)
    denoiser = _denoiser(ckpt_path, tensors, cfg)
    if cfg.env.d != d:
        raise ValueError(f"{ckpt_path}: denoiser env.d {cfg.env.d}, config's {d}")
    return denoiser, cfg


def denoiser_hash(denoiser: Denoiser) -> str:
    return checkpoint_param_hash(_tensors({"denoiser": denoiser.net}))


# -- stage II ---------------------------------------------------------------

def run_train_policy(cfg: RunConfig, dsrm_ckpt, ckpt_path, train_csv_path=None):
    """PPO training for the configured variant. The denoiser is loaded from
    its checkpoint and never updated; its parameter hash is checked before
    and after training, and the policy checkpoint's snapshot takes its
    [dsrm] section from the denoiser's. HRL-RAW gets no denoiser."""
    variant = cfg.hrl.variant
    denoiser, snapshot = None, cfg
    if variant in ("DSRM-HRL", "FLAT"):
        if dsrm_ckpt is None:
            raise ValueError(f"variant {variant} requires a denoiser checkpoint")
        denoiser, dsrm_cfg = load_denoiser(dsrm_ckpt, cfg.env.d)
        snapshot = replace(cfg, dsrm=dsrm_cfg.dsrm)
        differ = [k for k, v in vars(cfg.dsrm).items() if getattr(dsrm_cfg.dsrm, k) != v]
        if differ:
            log(f"policy snapshot: [dsrm] {', '.join(differ)} from {dsrm_ckpt}, not the config")
        hash_before = denoiser_hash(denoiser)
    env = RecEnv(cfg.env)
    agent = Agent(cfg.hrl, cfg.env.d, denoiser=denoiser, seed=cfg.env.seed)
    rows = train(env, agent)
    modules = {"policy": agent.policy, "value": agent.value_net.net}
    if denoiser is not None:
        if denoiser_hash(denoiser) != hash_before:
            raise RuntimeError("denoiser parameters changed during stage II")
        log(f"denoiser frozen: hash {hash_before[:16]} unchanged")
        modules["denoiser"] = denoiser.net
    save_checkpoint(ckpt_path, _tensors(modules), render_config(snapshot))
    if train_csv_path is not None:
        write_csv(train_csv_path, TRAIN_LOG, [[r[c] for c in TRAIN_LOG] for r in rows])


def policy_paths(variant: str, tag: str, out_dir):
    """A run's policy_<variant>_<tag>.ckpt and train_<variant>_<tag>.csv in out_dir."""
    name = f"{variant.lower().replace('-', '_')}_{tag}"
    return (os.path.join(out_dir, f"policy_{name}.ckpt"),
            os.path.join(out_dir, f"train_{name}.csv"))


def load_agent(ckpt_path):
    """Rebuild an agent from a policy checkpoint, which holds exactly the
    tensors of its policy, value net and, unless HRL-RAW, denoiser."""
    tensors, cfg_text = load_checkpoint(ckpt_path)
    cfg = config_mod.parse_config(cfg_text)
    denoiser = None if cfg.hrl.variant == "HRL-RAW" else _denoiser(ckpt_path, tensors, cfg)
    agent = Agent(cfg.hrl, cfg.env.d, denoiser=denoiser)
    _fill(ckpt_path, tensors, {"policy": agent.policy, "value": agent.value_net.net})
    return agent, cfg


def _report(cfg: RunConfig, agent: Agent, episodes: int, variant: str) -> MetricsReport:
    """The report, labelled variant, of agent's greedy evaluation over
    episodes held-out sessions on a fresh env of cfg."""
    env = RecEnv(cfg.env)
    return session_stats(evaluate(env, agent, episodes), env.catalog, variant=variant,
                         seed=cfg.env.seed, max_len=cfg.env.max_len)


def run_eval(ckpt_path, episodes: int | None = None,
             results_path=None) -> MetricsReport:
    """Greedy evaluation of a policy checkpoint on held-out session seeds
    (train seed range shifted by a fixed offset). The config is the
    checkpoint's snapshot, with episodes applied; it is logged."""
    agent, cfg = load_agent(ckpt_path)
    if episodes is not None:  # checked like the config key it replaces
        cfg.eval = replace(cfg.eval, episodes=episodes).validate()
    log_config(cfg)
    report = _report(cfg, agent, cfg.eval.episodes, cfg.hrl.variant)
    if results_path is not None:
        write_results(results_path, [report])
    log(f"eval[{cfg.hrl.variant} seed={cfg.env.seed}]: "
        f"Len={report.len_mean:.3f} AD={report.ad_mean:.3f} "
        f"(eval seeds offset by {EVAL_SEED_OFFSET}, disjoint from training)")
    return report


# -- sweeps and analyses ------------------------------------------------------

def _copies(cfg: RunConfig, section: str, key: str, values) -> list[RunConfig]:
    """One copy of cfg per value of section.key, each validated before any
    is returned, so a bad or repeated value fails before anything trains."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise config_mod.ConfigError(f"{section}.{key}: value {repeated[0]} is repeated")
    copies = []
    for value in values:
        c = copy.deepcopy(cfg)
        setattr(getattr(c, section), key, value)
        copies.append(c.validate())
    return copies


def _train_and_evaluate(tagged: dict, variants, out_dir) -> list[MetricsReport]:
    """Per tagged config ({tag: RunConfig}), stage I once, then each of
    variants trained against that denoiser (HRL-RAW loads none) and
    evaluated: one results.csv row and one returned report each, in order.
    A results.csv already in out_dir is replaced, as the checkpoints are."""
    results_path = os.path.join(out_dir, "results.csv")
    with contextlib.suppress(FileNotFoundError):
        os.remove(results_path)
    reports = []
    for tag, cfg in tagged.items():
        dsrm_ckpt = os.path.join(out_dir, f"dsrm_{tag}.ckpt")
        run_train_dsrm(cfg, dsrm_ckpt, os.path.join(out_dir, f"dsrm_loss_{tag}.csv"))
        for vcfg in _copies(cfg, "hrl", "variant", variants):
            policy_ckpt, train_csv = policy_paths(vcfg.hrl.variant, tag, out_dir)
            run_train_policy(vcfg, dsrm_ckpt, policy_ckpt, train_csv)
            reports.append(run_eval(policy_ckpt, results_path=results_path))
    log(f"{len(reports)} runs trained and evaluated: {results_path}")
    return reports


def run_sweep_steps(cfg: RunConfig, steps: list[int], out_dir):
    """The config's variant trained and evaluated per diffusion-step count
    (increasing), each against its own denoiser: one eval row per K in
    sweep_steps.csv plus a middle-vs-endpoints summary."""
    tagged = {f"k{c.dsrm.k_steps}": c for c in _copies(cfg, "dsrm", "k_steps", steps)}
    if steps != sorted(steps):
        raise config_mod.ConfigError(f"dsrm.k_steps: sweep values must increase, got {steps}")
    reports = list(zip(steps, _train_and_evaluate(tagged, [cfg.hrl.variant], out_dir)))
    write_csv(os.path.join(out_dir, "sweep_steps.csv"),
              ["k_steps", "len_mean", "r_each_mean", "r_cum_mean", "ad_mean"],
              [[k, r.len_mean, r.r_each_mean, r.r_cum_mean, r.ad_mean] for k, r in reports])
    summary = None
    if len(reports) >= 3:
        lens = [r.len_mean for _, r in reports]
        mid = len(reports) // 2
        summary = bool(lens[mid] >= lens[0] and lens[mid] >= lens[-1])
        log(f"sweep: middle K={steps[mid]} {'wins' if summary else 'does not win'} on Len")
    return reports, summary


def run_ablation(cfg: RunConfig, seeds: list[int], out_dir) -> list[MetricsReport]:
    """Every one of VARIANTS trained and evaluated per seed, against one denoiser per seed."""
    tagged = {f"s{c.env.seed}": c for c in _copies(cfg, "env", "seed", seeds)}
    return _train_and_evaluate(tagged, VARIANTS, out_dir)


def popularity_reward_regression(cfg: RunConfig, n_steps: int = 10_000):
    """Random-policy rollouts; least-squares fit of per-item mean observed
    reward against log(1+exposure). Returns (r_squared, per-item rows)."""
    env = RecEnv(cfg.env)
    rng = np.random.default_rng([cfg.env.seed, cfg.env.seed, 20])
    rollout = random_rollout(env, rng, n_steps)
    # Sums in step order. The exposure is the one at serve time, the bias
    # the impression actually saw.
    items, n = rollout.slates.ravel(), cfg.env.n_items
    logexp_sum = np.bincount(items, np.log1p(rollout.exposure).ravel(), minlength=n)
    reward_sum = np.bincount(items, rollout.rewards.ravel(), minlength=n)
    reward_cnt = np.bincount(items, minlength=n)
    seen = reward_cnt > 0
    mean_r = reward_sum[seen] / reward_cnt[seen]
    log_exp = logexp_sum[seen] / reward_cnt[seen]
    a = np.vstack([log_exp, np.ones_like(log_exp)]).T
    coef, *_ = np.linalg.lstsq(a, mean_r, rcond=None)
    resid = mean_r - a @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((mean_r - mean_r.mean())**2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    ids = np.flatnonzero(seen)
    rows = [[int(i), float(le), float(mr)]
            for i, le, mr in zip(ids, log_exp, mean_r)]
    return r2, rows


PURIFICATION_GAIN_EPISODES = 100


def purification_gain(cfg: RunConfig, denoiser: Denoiser):
    """The state-purification comparison: the same FLAT scoring policy
    evaluated on raw states (no denoiser) and on states purified by the
    denoiser, over PURIFICATION_GAIN_EPISODES sessions each; returns the two
    reports."""
    flat = replace(cfg.hrl, variant="FLAT")
    return tuple(_report(cfg, Agent(flat, cfg.env.d, denoiser=den),
                         PURIFICATION_GAIN_EPISODES, name)
                 for name, den in (("RAW-STATE", None), ("PURIFIED-STATE", denoiser)))


def state_dumps(cfg: RunConfig, denoiser: Denoiser, n_states: int = 500):
    """Raw and the denoiser's purified state embeddings with label columns
    (popularity decile and group of the nearest catalog item) for external
    plotting."""
    chain = ReverseChain(denoiser)
    env = RecEnv(cfg.env)
    rng = np.random.default_rng([cfg.env.seed, cfg.env.seed, 30])
    raw_states = random_rollout(env, rng, n_states).observed
    pur_states = np.array([purify(v, chain) for v in raw_states])
    # Label each state by its nearest catalog item.
    pop_rank = np.argsort(np.argsort(-env.catalog.initial_popularity))
    deciles = (10 * pop_rank / env.catalog.n_items).astype(int)

    def labels(states):
        nearest = np.argmax(states @ env.catalog.embeddings.T, axis=1)
        return deciles[nearest], [int(env.catalog.group[i]) for i in nearest]

    return (raw_states, *labels(raw_states)), (pur_states, *labels(pur_states))


def run_motivate(cfg: RunConfig, out_dir, dsrm_ckpt=None):
    """The three motivation analyses: (a) popularity-vs-reward regression
    under a random policy; (b) fixed-policy comparison on raw vs purified
    states; (c) state embedding dumps. (b) and (c) need a denoiser and are
    skipped with a notice when none is given. Returns (r_squared, the
    raw and purified reports of (b), or None when skipped)."""
    # The denoiser is read once, and first: one that load_denoiser refuses
    # writes nothing.
    denoiser = None if dsrm_ckpt is None else load_denoiser(dsrm_ckpt, cfg.env.d)[0]
    gain = None if denoiser is None else purification_gain(cfg, denoiser)
    r2, rows = popularity_reward_regression(cfg)
    write_csv(os.path.join(out_dir, "popularity_reward.csv"),
              ["item_id", "log1p_exposure", "mean_reward"], rows)
    write_csv(os.path.join(out_dir, "popularity_reward_r2.csv"),
              ["r_squared"], [[r2]])
    log(f"motivate(a): popularity-reward R^2 = {r2:.4f}")
    if gain is None:
        log("motivate(b,c): skipped (no denoiser checkpoint given)")
        return r2, None
    raw, pur = gain
    write_results(os.path.join(out_dir, "purification_gain.csv"), [raw, pur])
    log(f"motivate(b): raw Len={raw.len_mean:.3f} AD={raw.ad_mean:.3f} | "
        f"purified Len={pur.len_mean:.3f} AD={pur.ad_mean:.3f}")
    (rs, rd, rg), (ps, pd_, pg) = state_dumps(cfg, denoiser)
    write_embedding_dump(os.path.join(out_dir, "states_raw.tsv"), rs, rd, rg)
    write_embedding_dump(os.path.join(out_dir, "states_purified.tsv"), ps, pd_, pg)
    log("motivate(c): embedding dumps written")
    return r2, (raw, pur)
