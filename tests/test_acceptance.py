"""Acceptance suite: the ten primary criteria, one printed line each.

Heavy artifacts (stage-one checkpoints, trained policies) are built once in
module-scoped fixtures and shared across criteria.
"""

import time

import numpy as np
import pytest

from dsrm_hrl.agent import ManagerPolicy, ValueNet
from dsrm_hrl.cli import EXIT_OK, main as cli_main
from dsrm_hrl.config import RunConfig
from dsrm_hrl.diffusion import (Denoiser, ReverseChain, forward_diffuse,
                                make_schedule, purify, reverse_step)
from dsrm_hrl.env import RecEnv
from dsrm_hrl.metrics import absolute_difference, gini, group_coverage
from dsrm_hrl.nn import Mlp, gradient_check
from dsrm_hrl.pipeline import (load_denoiser, popularity_reward_regression,
                               purification_gain, run_ablation, run_eval,
                               run_sweep_steps, run_train_dsrm, run_train_policy)

from conftest import random_slate

SEEDS = (11, 15, 19)


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def cos(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def ablation_reports(workdir):
    """The shipped ablation (dsrm-hrl ablation) over SEEDS, default config:
    its eval reports by (variant, seed)."""
    return {(r.variant, r.seed): r
            for r in run_ablation(RunConfig(), list(SEEDS), str(workdir))}


@pytest.fixture(scope="module")
def dsrm_ckpts(workdir, ablation_reports):
    """The ablation's stage-one checkpoints per seed."""
    return {seed: str(workdir / f"dsrm_s{seed}.ckpt") for seed in SEEDS}


def test_criterion_01_gradient_check(capsys):
    """Analytic gradients of every architecture match finite differences."""
    cfg = RunConfig()
    d = cfg.env.d
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        nets = [
            Denoiser(cfg.dsrm, d, rng=rng).net,
            ManagerPolicy(d, hidden=tuple(cfg.hrl.hidden), rng=rng).net,
            ValueNet(d, hidden=tuple(cfg.hrl.hidden), rng=rng).net,
        ]
        for net in nets:
            x = rng.standard_normal(net.layer_sizes[0]) * 0.5
            target = rng.standard_normal(net.layer_sizes[-1])

            def loss_fn(y, target=target):
                resid = y - target
                return float(np.sum(resid ** 2)), 2.0 * resid

            worst = max(worst, gradient_check(net, loss_fn, x, h=1e-4))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 30
    report(capsys, 1, ok,
           f"worst relative gradient error {worst:.2e} (< 1e-4), "
           f"3 architectures x 10 seeds in {elapsed:.1f}s (< 30s)")


def test_criterion_02_diffusion_identities(capsys):
    t0 = time.monotonic()
    s = make_schedule(20, 1e-4, 0.02)
    prev = np.concatenate(([1.0], s.alpha_bar[:-1]))
    sig = np.sqrt(s.beta * (1.0 - prev) / (1.0 - s.alpha_bar))
    sig[0] = 0.0
    invariants = (np.array_equal(s.alpha, 1.0 - s.beta)
                  and np.array_equal(s.alpha_bar, np.cumprod(s.alpha))
                  and np.array_equal(s.sigma, sig))

    # closed-form marginal vs iterated single-step kernel, 10k chains
    rng = np.random.default_rng(0)
    s0 = np.array([1.0, -0.5])
    n = 10_000
    chains = np.tile(s0, (n, 1))
    for j in range(1, 21):
        chains = (np.sqrt(s.alpha[j - 1]) * chains
                  + np.sqrt(s.beta[j - 1]) * rng.standard_normal(chains.shape))
    ab = s.alpha_bar[-1]
    mean_err = np.abs(chains.mean(axis=0) - np.sqrt(ab) * s0)
    var_err = np.abs(chains.var(axis=0) - (1.0 - ab))
    moments = (np.all(mean_err < 4 * np.sqrt((1 - ab) / n))
               and np.all(var_err < 4 * (1 - ab) * np.sqrt(2 / (n - 1))))

    # one-step inversion with the true noise
    s1step = make_schedule(1, 0.2, 0.2)
    x0 = rng.standard_normal(6)
    eps = rng.standard_normal(6)

    class Oracle:
        def predict(self, s_k, k, cond):
            return eps

    rec = reverse_step(forward_diffuse(x0, 1, eps, s1step), 1, x0,
                       Oracle(), s1step, np.zeros(6))
    inv_err = float(np.max(np.abs(rec - x0)))
    elapsed = time.monotonic() - t0
    ok = invariants and moments and inv_err < 1e-10 and elapsed < 60
    report(capsys, 2, ok,
           f"schedule invariants exact={invariants}, marginal moments within "
           f"4 SE={moments}, one-step inversion error {inv_err:.1e} (< 1e-10), "
           f"{elapsed:.1f}s (< 60s)")


def test_criterion_03_metric_oracles(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        x = rng.exponential(scale=5.0, size=n)
        total = x.sum()
        brute = float(np.abs(x[:, None] - x[None, :]).sum()
                      / (2 * n * total)) if total > 0 else 0.0
        worst = max(worst, abs(gini(x) - brute))
    from conftest import tiny_catalog
    cat = tiny_catalog()
    hand = (absolute_difference(*group_coverage([[0, 2], [0, 3]], cat)) == pytest.approx(0.5)
            and absolute_difference(*group_coverage([[0, 1]], cat)) == pytest.approx(1.0)
            and gini([0.0, 0.0, 0.0, 4.0]) == pytest.approx(0.75)
            and gini([1.0, 3.0]) == pytest.approx(0.25))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-12 and hand and elapsed < 10
    report(capsys, 3, ok,
           f"gini vs brute force worst |diff| {worst:.1e} (< 1e-12) on 1000 "
           f"vectors, AD/gini hand cases pass={hand}, {elapsed:.1f}s (< 10s)")


def test_criterion_04_feedback_loop_regression(capsys):
    t0 = time.monotonic()
    r2, _ = popularity_reward_regression(RunConfig(), n_steps=10_000)
    ctrl_cfg = RunConfig()
    ctrl_cfg.env.bias_strength = 0.0
    r2_ctrl, _ = popularity_reward_regression(ctrl_cfg, n_steps=10_000)
    elapsed = time.monotonic() - t0
    ok = r2 > 0.5 and r2_ctrl < 0.1 and elapsed < 60
    report(capsys, 4, ok,
           f"popularity-reward R^2 {r2:.3f} (> 0.5) biased, {r2_ctrl:.3f} "
           f"(< 0.1) unbiased control, {elapsed:.1f}s (< 60s)")


@pytest.mark.slow
def test_criterion_05_denoising_efficacy(capsys, dsrm_ckpts):
    t0 = time.monotonic()
    gains = {}
    for seed in SEEDS:
        cfg = RunConfig()
        cfg.env.seed = seed
        chain = ReverseChain(load_denoiser(dsrm_ckpts[seed], cfg.env.d)[0])
        env = RecEnv(cfg.env)
        noisy_cos, pure_cos = [], []
        for i in range(200):
            obs = env.reset(50_000 + i)  # held out from training sessions
            done, step = False, 0
            while not done and step < 10:
                _, obs, done = env.step(random_slate(env))
                step += 1
            truth = env.ground_truth_state()
            noisy_cos.append(cos(obs, truth))
            pure_cos.append(cos(purify(obs, chain), truth))
        gains[seed] = float(np.mean(pure_cos) - np.mean(noisy_cos))
    elapsed = time.monotonic() - t0
    ok = all(g >= 0.05 for g in gains.values()) and elapsed < 300
    detail = ", ".join(f"seed {s}: +{g:.3f}" for s, g in gains.items())
    report(capsys, 5, ok,
           f"cosine-to-truth gain {detail} (each >= 0.05, 200 held-out "
           f"sessions), {elapsed:.0f}s (< 300s)")


@pytest.mark.slow
def test_criterion_06_purification_gain(capsys, dsrm_ckpts):
    t0 = time.monotonic()
    wins = 0
    details = []
    for seed in SEEDS:
        cfg = RunConfig()
        cfg.env.seed = seed
        denoiser = load_denoiser(dsrm_ckpts[seed], cfg.env.d)[0]
        raw, pur = purification_gain(cfg, denoiser)
        win = pur.len_mean > raw.len_mean and pur.ad_mean < raw.ad_mean
        wins += win
        details.append(f"seed {seed}: Len {raw.len_mean:.1f}->{pur.len_mean:.1f}"
                       f" AD {raw.ad_mean:.3f}->{pur.ad_mean:.3f}")
    elapsed = time.monotonic() - t0
    ok = wins >= 2 and elapsed < 300
    report(capsys, 6, ok,
           f"fixed policy on raw vs purified states, {wins}/3 seeds improve "
           f"both Len and AD ({'; '.join(details)}), {elapsed:.0f}s (< 300s)")


@pytest.mark.slow
def test_criterion_07_ablation_ordering(capsys, ablation_reports):
    t0 = time.monotonic()
    mean_len = {v: np.mean([ablation_reports[(v, s)].len_mean for s in SEEDS])
                for v in ("DSRM-HRL", "HRL-RAW", "FLAT")}
    mean_ad = {v: np.mean([ablation_reports[(v, s)].ad_mean for s in SEEDS])
               for v in ("DSRM-HRL", "HRL-RAW", "FLAT")}
    ok = (mean_len["DSRM-HRL"] >= mean_len["HRL-RAW"]
          and mean_len["DSRM-HRL"] >= mean_len["FLAT"]
          and mean_ad["DSRM-HRL"] <= mean_ad["HRL-RAW"])
    elapsed = time.monotonic() - t0
    report(capsys, 7, ok,
           f"Len DSRM-HRL {mean_len['DSRM-HRL']:.2f} >= HRL-RAW "
           f"{mean_len['HRL-RAW']:.2f} and >= FLAT {mean_len['FLAT']:.2f}; "
           f"AD DSRM-HRL {mean_ad['DSRM-HRL']:.4f} <= HRL-RAW "
           f"{mean_ad['HRL-RAW']:.4f} (3 seeds, 200 episodes each)")


@pytest.mark.slow
def test_criterion_08_step_sweep_inverted_u(capsys, workdir):
    t0 = time.monotonic()
    cfg = RunConfig()
    cfg.env.seed = 11
    cfg.hrl.variant = "FLAT"  # fixed weights isolate the purifier's effect
    out = workdir / "sweep"
    out.mkdir(exist_ok=True)
    reports, middle_wins = run_sweep_steps(cfg, [5, 20, 200], str(out))
    lens = {k: r.len_mean for k, r in reports}
    elapsed = time.monotonic() - t0
    ok = bool(middle_wins) and elapsed < 1200
    report(capsys, 8, ok,
           f"Len K=5: {lens[5]:.2f}, K=20: {lens[20]:.2f}, K=200: "
           f"{lens[200]:.2f}; middle >= both endpoints={bool(middle_wins)}, "
           f"{elapsed:.0f}s (< 1200s)")


def test_criterion_09_determinism(capsys, tmp_path):
    from conftest import FAST_CFG
    cfg_file = tmp_path / "fast.cfg"
    cfg_file.write_text(FAST_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["train-dsrm", "--config", str(cfg_file), "--seed",
                         "3", "--out", str(out)]) == EXIT_OK
        assert cli_main(["train", "--config", str(cfg_file), "--seed", "3",
                         "--out", str(out), "--variant", "FLAT",
                         "--dsrm-ckpt", str(out / "dsrm.ckpt")]) == EXIT_OK
        assert cli_main(["eval", "--config", str(cfg_file), "--seed", "3",
                         "--out", str(out),
                         "--ckpt", str(out / "policy_flat_s3.ckpt")]) == EXIT_OK
        outs.append(out)
    files = ("dsrm.ckpt", "dsrm_loss.csv", "policy_flat_s3.ckpt",
             "train_flat_s3.csv", "results.csv")
    identical = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
                    for f in files)
    report(capsys, 9, identical,
           f"repeated train-dsrm/train/eval runs byte-identical across "
           f"{len(files)} artifacts={identical}")


def test_criterion_10_runtime_budget(capsys, tmp_path):
    t0 = time.monotonic()
    cfg = RunConfig()  # defaults: 20k env steps, n_items=500, one variant
    dsrm = str(tmp_path / "dsrm.ckpt")
    pol = str(tmp_path / "policy.ckpt")
    run_train_dsrm(cfg, dsrm, str(tmp_path / "dsrm_loss.csv"))
    run_train_policy(cfg, dsrm, pol, str(tmp_path / "train.csv"))
    run_eval(pol, str(tmp_path / "results.csv"))
    elapsed = time.monotonic() - t0
    ok = elapsed < 600
    report(capsys, 10, ok,
           f"default pipeline (stage I + stage II + eval, one seed) in "
           f"{elapsed:.0f}s (< 600s)")
