"""Stage-I training against the loop it replaced.

train_dsrm now draws its minibatches and their (k, eps) targets once and
assembles each minibatch's network input once; the earlier loop rebuilt the
same Generator at the start of every epoch and redrew, rediffused and
reconcatenated every minibatch. The earlier train_dsrm and dsrm_loss are
kept here verbatim, except that Mlp.backward now returns the gradients
alone, and every loss-curve value and parameter must match bit for bit."""

import numpy as np
import pytest

from dsrm_hrl.config import DsrmConfig
from dsrm_hrl.diffusion import Denoiser, train_dsrm
from dsrm_hrl.nn import Adam


# -- the earlier stage I, verbatim -------------------------------------------

def old_dsrm_loss(denoiser, s0_batch, cond_batch, rng, eps=None, ks=None):
    s0_batch = np.atleast_2d(np.asarray(s0_batch, dtype=np.float64))
    cond_batch = np.atleast_2d(np.asarray(cond_batch, dtype=np.float64))
    b, d = s0_batch.shape
    if b == 0:
        raise ValueError("empty batch")
    schedule = denoiser.schedule
    if ks is None:
        ks = rng.integers(1, schedule.k_steps + 1, size=b)
    if eps is None:
        eps = rng.standard_normal((b, d))
    ks = np.asarray(ks)
    if ks.min() < 1 or ks.max() > schedule.k_steps:
        raise IndexError(f"diffusion steps out of range [1, {schedule.k_steps}]")

    ab = schedule.alpha_bar[ks - 1][:, None]
    s_k = np.sqrt(ab) * s0_batch + np.sqrt(1.0 - ab) * eps
    x = np.concatenate([s_k, denoiser.temb_table[ks], cond_batch], axis=1)
    pred, cache = denoiser.net.forward(x)
    resid = pred - eps
    loss = float(np.sum(resid * resid)) / b
    # d(mean over batch of ||resid||^2)/dpred = 2 resid / b
    grads = denoiser.net.backward(cache, 2.0 * resid / b)
    return loss, grads


def old_train_dsrm(clean, noisy, cfg, seed=0):
    clean = np.asarray(clean, dtype=np.float64)
    noisy = np.asarray(noisy, dtype=np.float64)
    if clean.shape != noisy.shape:
        raise ValueError("clean/noisy shape mismatch")
    if clean.shape[0] < cfg.min_pairs:
        raise ValueError(
            f"need at least {cfg.min_pairs} training pairs, got {clean.shape[0]}"
        )
    d = clean.shape[1]
    rng = np.random.default_rng(seed)
    denoiser = Denoiser(cfg, d, rng=rng)
    if denoiser.schedule is None:
        return denoiser, []
    opt = Adam(denoiser.net.parameters(), lr=cfg.lr)
    n = clean.shape[0]
    curve = []
    for _ in range(cfg.epochs):
        # Same draws every epoch: each sample keeps a fixed (k, eps) target,
        # which makes the loss curve a pure function of the parameters.
        epoch_rng = np.random.default_rng([seed, 0x5eed])
        order = epoch_rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch):
            idx = order[start:start + cfg.batch]
            loss, grads = old_dsrm_loss(denoiser, clean[idx], noisy[idx], epoch_rng)
            opt.step(grads)
            epoch_loss += loss
            n_batches += 1
        curve.append(epoch_loss / n_batches)
    return denoiser, curve


# -- parity ---------------------------------------------------------------------

def pairs(n, d, seed):
    rng = np.random.default_rng([seed, 99])
    clean = rng.standard_normal((n, d))
    return clean, clean + 0.3 * rng.standard_normal((n, d))


# 300 pairs in minibatches of 64: four full minibatches and a short one.
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("epochs", [0, 1, 3])
@pytest.mark.parametrize("k_steps", [1, 4, 20, 200])
def test_train_dsrm_matches_old_loop(k_steps, epochs, seed):
    cfg = DsrmConfig(k_steps=k_steps, hidden=(16, 16), time_dim=4, epochs=epochs,
                     batch=64, n_pairs=300, min_pairs=64, lr=3e-3)
    clean, noisy = pairs(300, 8, seed)
    den, curve = train_dsrm(clean, noisy, cfg, seed=seed)
    ref_den, ref_curve = old_train_dsrm(clean, noisy, cfg, seed=seed)
    assert len(curve) == len(ref_curve) == epochs
    assert all(np.array_equal(a, b) for a, b in zip(curve, ref_curve))
    params, ref_params = den.net.parameters(), ref_den.net.parameters()
    assert params.keys() == ref_params.keys()
    for key in params:
        assert np.array_equal(params[key], ref_params[key]), key
