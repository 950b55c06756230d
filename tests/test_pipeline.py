"""Pipeline stages over the shared random-policy rollout and the checkpoint
loader: equality with the separate loops the rollout replaced, loading of
checkpoints whose config snapshot carries retired keys, and the inventory of
the random streams a run draws."""

import sys
from collections import defaultdict

import numpy as np
import pytest

from dsrm_hrl import pipeline
from dsrm_hrl.cli import EXIT_OK, main
from dsrm_hrl.config import VARIANTS, ConfigError, parse_config
from dsrm_hrl.diffusion import ReverseChain, purify
from dsrm_hrl.env import RecEnv, collect_pairs
from dsrm_hrl.persistence import (CheckpointError, load_checkpoint,
                                  save_checkpoint)
from dsrm_hrl.pipeline import (load_agent, load_denoiser,
                               popularity_reward_regression, run_eval,
                               run_train_dsrm, run_train_policy, state_dumps)

from conftest import FAST_CFG, clean_state, random_slate

CONFIGS = {"fast": FAST_CFG, "default": ""}


def load_fast_denoiser(path):
    """load_denoiser for a FAST_CFG run's env.d."""
    return load_denoiser(path, parse_config(FAST_CFG).env.d)


# -- the per-analysis random-policy loops that random_rollout replaced ------

def old_collect_pairs(env, n_pairs, rng):
    clean, noisy = [], []
    while len(clean) < n_pairs:
        env.reset(int(rng.integers(0, 2**31 - 1)))
        done = False
        while not done and len(clean) < n_pairs:
            _, nxt, done = env.step(random_slate(env))
            clean.append(clean_state(env))
            noisy.append(nxt.copy())
    return np.array(clean), np.array(noisy)


def old_regression(cfg, n_steps, seed):
    env = RecEnv(cfg.env)
    rng = np.random.default_rng([cfg.env.seed, seed, 20])
    reward_sum = np.zeros(cfg.env.n_items)
    logexp_sum = np.zeros(cfg.env.n_items)
    reward_cnt = np.zeros(cfg.env.n_items)
    steps = 0
    while steps < n_steps:
        env.reset(int(rng.integers(0, 2**31 - 1)))
        done = False
        while not done and steps < n_steps:
            slate = random_slate(env)
            logexp_sum[slate] += np.log1p(
                env.catalog.exposure[slate].astype(np.float64))
            rewards, _, done = env.step(slate)
            reward_sum[slate] += rewards
            reward_cnt[slate] += 1
            steps += 1
    seen = reward_cnt > 0
    mean_r = reward_sum[seen] / reward_cnt[seen]
    log_exp = logexp_sum[seen] / reward_cnt[seen]
    a = np.vstack([log_exp, np.ones_like(log_exp)]).T
    coef, *_ = np.linalg.lstsq(a, mean_r, rcond=None)
    resid = mean_r - a @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((mean_r - mean_r.mean())**2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    rows = [[int(i), float(le), float(mr)]
            for i, le, mr in zip(np.flatnonzero(seen), log_exp, mean_r)]
    return r2, rows, env.catalog.exposure


def old_dump_states(cfg, denoiser, n_states, seed):
    env = RecEnv(cfg.env)
    chain = ReverseChain(denoiser)
    rng = np.random.default_rng([cfg.env.seed, seed, 30])
    raw, pur = [], []
    while len(raw) < n_states:
        env.reset(int(rng.integers(0, 2**31 - 1)))
        done = False
        while not done and len(raw) < n_states:
            _, obs, done = env.step(random_slate(env))
            raw.append(obs.copy())
            pur.append(purify(obs, chain))
    return np.array(raw), np.array(pur), env.catalog.exposure


@pytest.fixture
def pipeline_envs(monkeypatch):
    """Every RecEnv the pipeline module builds, so a test can read the
    catalog exposure a stage left behind."""
    made = []

    class RecordingEnv(RecEnv):
        def __init__(self, config):
            super().__init__(config)
            made.append(self)

    monkeypatch.setattr(pipeline, "RecEnv", RecordingEnv)
    return made


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    """A FAST_CFG denoiser and one policy checkpoint per variant."""
    out = tmp_path_factory.mktemp("fast_run")
    cfg = parse_config(FAST_CFG)
    cfg.env.seed = 3
    dsrm = str(out / "dsrm.ckpt")
    run_train_dsrm(cfg, dsrm, str(out / "dsrm_loss.csv"))
    policies = {}
    for variant in ("DSRM-HRL", "FLAT", "HRL-RAW"):
        cfg.hrl.variant = variant
        policies[variant] = str(out / f"policy_{variant}.ckpt")
        run_train_policy(cfg, dsrm if variant != "HRL-RAW" else None,
                         policies[variant], str(out / f"train_{variant}.csv"))
    return dsrm, policies


@pytest.mark.parametrize("name", CONFIGS)
def test_collect_pairs_matches_old_loop(name):
    cfg = parse_config(CONFIGS[name])
    env, ref_env = RecEnv(cfg.env), RecEnv(cfg.env)
    clean, noisy = collect_pairs(env, 250, np.random.default_rng(7))
    ref_clean, ref_noisy = old_collect_pairs(ref_env, 250,
                                             np.random.default_rng(7))
    assert np.array_equal(clean, ref_clean)
    assert np.array_equal(noisy, ref_noisy)
    assert np.array_equal(env.catalog.exposure, ref_env.catalog.exposure)


@pytest.mark.parametrize("name,n_steps", [("fast", 500), ("default", 2000)])
def test_popularity_regression_matches_old_loop(name, n_steps, pipeline_envs):
    cfg = parse_config(CONFIGS[name])
    cfg.env.seed = 4
    r2, rows = popularity_reward_regression(cfg, n_steps=n_steps)
    ref_r2, ref_rows, ref_exposure = old_regression(cfg, n_steps, seed=4)
    assert r2 == ref_r2
    assert rows == ref_rows
    assert np.array_equal(pipeline_envs[-1].catalog.exposure, ref_exposure)


def test_state_dumps_match_old_loop(fast_run, pipeline_envs):
    dsrm, _ = fast_run
    cfg = parse_config(FAST_CFG)
    cfg.env.seed = 5
    denoiser, _ = load_fast_denoiser(dsrm)
    (raw, *_), (pur, *_) = state_dumps(cfg, denoiser, n_states=100)
    ref_raw, ref_pur, ref_exposure = old_dump_states(cfg, denoiser, 100, seed=5)
    assert np.array_equal(raw, ref_raw)
    assert np.array_equal(pur, ref_pur)
    assert np.array_equal(pipeline_envs[-1].catalog.exposure, ref_exposure)


# -- checkpoints -------------------------------------------------------------

def with_retired_keys(path, out, ancestral_init="False", greedy="True"):
    """Copy of a checkpoint whose config snapshot carries the two retired
    keys where older versions rendered them."""
    tensors, text = load_checkpoint(path)
    lines = []
    for line in text.splitlines():
        lines.append(line)
        if line.startswith("min_pairs = "):
            lines.append(f"ancestral_init = {ancestral_init}")
        elif line.startswith("episodes = "):
            lines.append(f"greedy = {greedy}")
    save_checkpoint(out, tensors, "\n".join(lines) + "\n")
    return str(out)


@pytest.mark.parametrize("variant", ["DSRM-HRL", "FLAT", "HRL-RAW"])
def test_old_checkpoint_evaluates_the_same(fast_run, variant, tmp_path):
    _, policies = fast_run
    old = with_retired_keys(policies[variant], tmp_path / "old.ckpt")
    assert load_agent(old)[1] == load_agent(policies[variant])[1]
    assert run_eval(old, tmp_path / "old.csv") == run_eval(policies[variant],
                                                         tmp_path / "new.csv")


def test_old_denoiser_checkpoint_loads(fast_run, tmp_path):
    dsrm, _ = fast_run
    old = with_retired_keys(dsrm, tmp_path / "old.ckpt")
    denoiser, _ = load_fast_denoiser(old)
    ref, _ = load_fast_denoiser(dsrm)
    params, ref_params = denoiser.net.parameters(), ref.net.parameters()
    assert all(np.array_equal(params[k], ref_params[k]) for k in ref_params)


@pytest.mark.parametrize("kw", [dict(ancestral_init="True"),
                                dict(greedy="False")])
def test_old_checkpoint_with_unused_setting_rejected(fast_run, kw, tmp_path):
    dsrm, policies = fast_run
    with pytest.raises(ConfigError, match="never in effect"):
        load_agent(with_retired_keys(policies["FLAT"], tmp_path / "p.ckpt", **kw))
    with pytest.raises(ConfigError, match="never in effect"):
        load_fast_denoiser(with_retired_keys(dsrm, tmp_path / "d.ckpt", **kw))


def test_flat_eval_does_not_depend_on_stage_two(fast_run, tmp_path):
    """FLAT scores with fixed weights and eval never reads the value net, so
    its report is the same after any stage II budget: a sweep over K under
    FLAT isolates the denoiser. Stage II still fits a value net."""
    dsrm, _ = fast_run
    cfg = parse_config(FAST_CFG)
    cfg.env.seed = 3
    cfg.hrl.variant = "FLAT"
    reports, values = [], []
    for total_steps in (0, 120, 600):
        cfg.hrl.total_steps = total_steps
        ckpt = str(tmp_path / f"flat_{total_steps}.ckpt")
        run_train_policy(cfg, dsrm, ckpt, str(tmp_path / f"train_{total_steps}.csv"))
        reports.append(vars(run_eval(ckpt, tmp_path / f"results_{total_steps}.csv")))
        values.append(load_checkpoint(ckpt)[0]["value.W0"])
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert not np.array_equal(values[0], values[2])


def test_load_denoiser_needs_denoiser_tensors(fast_run):
    _, policies = fast_run
    with pytest.raises(CheckpointError, match="no denoiser tensors"):
        load_fast_denoiser(policies["HRL-RAW"])


def edited(path, out, changes):
    """Copy of a checkpoint with each tensor named in changes set to its
    value, or dropped where the value is None."""
    tensors, text = load_checkpoint(path)
    for name, value in changes.items():
        if value is None:
            del tensors[name]
        else:
            tensors[name] = value
    save_checkpoint(out, tensors, text)
    return str(out)


# Tensor changes to a FAST_CFG policy checkpoint, each with the tensor that
# the error must name.
POLICY_FAULTS = {
    "wrong shape": ({"policy.net.b0": np.zeros(3)}, "policy.net.b0"),
    "missing": ({"policy.log_std": None}, "policy.log_std"),
    "extra in the policy": ({"policy.net.W9": np.zeros((2, 2))}, "policy.net.W9"),
    "outside every prefix": ({"valu.W0": np.zeros((2, 2))}, "valu.W0"),
}


@pytest.mark.parametrize("variant", ["DSRM-HRL", "HRL-RAW"])
@pytest.mark.parametrize("fault", sorted(POLICY_FAULTS))
def test_load_agent_takes_exactly_the_agents_tensors(fast_run, variant, fault, tmp_path):
    _, policies = fast_run
    changes, name = POLICY_FAULTS[fault]
    bad = edited(policies[variant], tmp_path / "bad.ckpt", changes)
    with pytest.raises(CheckpointError, match=f"{bad}: .*{name}"):
        load_agent(bad)


@pytest.mark.parametrize("changes,name", [
    ({"denoiser.b0": np.zeros(3)}, "denoiser.b0"),
    ({"denoiser.b1": None}, "denoiser.b1"),
    ({"denoiser.W9": np.zeros(2)}, "denoiser.W9"),
], ids=["wrong shape", "missing", "extra"])
def test_load_denoiser_takes_exactly_the_denoisers_tensors(fast_run, changes, name,
                                                           tmp_path):
    """The denoiser's own checkpoint and a policy checkpoint that holds the
    denoiser alike."""
    dsrm, policies = fast_run
    for path, load in ((dsrm, load_fast_denoiser), (policies["DSRM-HRL"], load_agent)):
        bad = edited(path, tmp_path / "bad.ckpt", changes)
        for loader in {load_fast_denoiser, load}:
            with pytest.raises(CheckpointError, match=f"{bad}: .*{name}"):
                loader(bad)


def test_load_denoiser_reads_only_denoiser_tensors(fast_run, tmp_path):
    """A policy checkpoint holds the denoiser too; load_denoiser takes those
    tensors and leaves the rest, even a stray one, to load_agent."""
    dsrm, policies = fast_run
    stray = edited(policies["DSRM-HRL"], tmp_path / "stray.ckpt",
                   {"valu.W0": np.zeros((2, 2))})
    denoiser, _ = load_fast_denoiser(stray)
    ref, _ = load_fast_denoiser(dsrm)
    assert np.array_equal(denoiser.net.parameters().vector, ref.net.parameters().vector)
    with pytest.raises(CheckpointError, match="valu.W0"):
        load_agent(stray)


def test_load_agent_takes_the_denoiser_its_variant_has(fast_run, tmp_path):
    """HRL-RAW runs on raw states and the other variants on purified ones,
    so an HRL-RAW checkpoint with denoiser tensors, or another without
    them, disagrees with its own config snapshot."""
    dsrm, policies = fast_run
    den, _ = load_checkpoint(dsrm)
    raw = edited(policies["HRL-RAW"], tmp_path / "raw.ckpt", den)
    with pytest.raises(CheckpointError, match=f"{raw}: unexpected tensor denoiser."):
        load_agent(raw)
    for variant in ("DSRM-HRL", "FLAT"):
        bare = edited(policies[variant], tmp_path / "bare.ckpt", dict.fromkeys(den))
        with pytest.raises(CheckpointError, match=f"{bare}: no denoiser tensors"):
            load_agent(bare)


# The random streams that more than one call site draws, as (run seed, the
# co_qualname of default_rng's caller) sets. The FOUND groups are seed-stream
# collisions that ROADMAP item 6 removes; the others are harmless.
SHARED_STREAMS = {
    frozenset({(7, "RecEnv.__init__"), (7, "train_dsrm")}):
        "FOUND: ItemCatalog.build and the denoiser's initialisation both draw default_rng(7)",
    frozenset({(0, "RecEnv.__init__"), (0, "train_dsrm"),
               (0, "Mlp.__init__"), (7, "Mlp.__init__")}):
        "FOUND, as at seed 7; _denoiser's Mlp fallback default_rng(0) too, which _fill overwrites",
    frozenset({(0, "_start_session"), (0, "Agent.__init__"), (7, "Agent.__init__")}):
        "FOUND: at seed 0 the agent's nets draw training session 1's stream; the seed-0 "
        "Agents of load_agent (overwritten by _fill) and of FLAT's purification_gain "
        "(nets unread) draw it at any seed",
    frozenset({(0, "_start_session"), (0, "train")}):
        "FOUND: at seed 0 PPO's sampling draws training session 2's stream",
}


def test_random_stream_inventory(tmp_path, monkeypatch):
    """Every default_rng of train-dsrm, train of each variant, eval and
    motivate at FAST_CFG, at seeds 0 and 7, grouped by the stream its key
    seeds ([s] and [s, 0] are one stream): the call sites that share one are
    exactly SHARED_STREAMS, so a new collision fails here."""
    made = []
    default_rng = np.random.default_rng

    def recording(seed=None):
        made.append((sys._getframe(1).f_code.co_qualname, seed))
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    cfg_file = tmp_path / "fast.cfg"
    cfg_file.write_text(FAST_CFG)
    sites = defaultdict(set)
    for seed in (0, 7):
        out = tmp_path / f"s{seed}"
        flags = ["--config", str(cfg_file), "--seed", str(seed), "--out", str(out)]
        dsrm = ["--dsrm-ckpt", str(out / "dsrm.ckpt")]
        runs = [["train-dsrm", *flags], ["motivate", *flags, *dsrm]]
        for variant in VARIANTS:
            tag = variant.lower().replace("-", "_")
            ckpt = str(out / f"policy_{tag}_s{seed}.ckpt")
            runs += [["train", *flags, "--variant", variant, *dsrm],
                     ["eval", "--out", str(out), "--ckpt", ckpt]]
        made.clear()
        for argv in runs:
            assert main(argv) == EXIT_OK, argv
        for qualname, key in made:
            stream = tuple(np.random.SeedSequence(key).generate_state(4))
            sites[stream].add((seed, qualname))
    shared = {frozenset(s) for s in sites.values() if len(s) > 1}
    assert shared == SHARED_STREAMS.keys()
