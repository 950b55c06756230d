"""Diffusion-based state purification: variance schedule, closed-form
forward corruption, conditional noise-prediction training, and the
iterative reverse projection that maps a corrupted user state back toward
the clean preference representation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DsrmConfig
from .nn import Adam, Mlp


@dataclass(frozen=True, eq=False)
class DiffusionSchedule:
    """beta/alpha/alpha_bar/sigma sequences, 1-indexed by diffusion step k
    (arrays are 0-indexed internally; index k-1 holds step k).

    The reverse update at step k is
    s_{k-1} = inv_sqrt_alpha * (s_k - eps_coef * eps_hat) + sigma * z, with
    inv_sqrt_alpha = 1/sqrt(alpha) and eps_coef = (1-alpha)/sqrt(1-alpha_bar).
    """

    k_steps: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray
    inv_sqrt_alpha: np.ndarray
    eps_coef: np.ndarray


def make_schedule(k_steps: int, beta_min: float, beta_max: float) -> DiffusionSchedule:
    """The linear beta schedule; DsrmConfig.validate() holds the rule on
    k_steps and the betas."""
    beta = np.linspace(beta_min, beta_max, k_steps)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    # Posterior std of the reverse kernel; zero at the first step so the
    # final reverse draw is deterministic.
    prev_bar = np.concatenate(([1.0], alpha_bar[:-1]))
    sigma = np.sqrt(beta * (1.0 - prev_bar) / (1.0 - alpha_bar))
    sigma[0] = 0.0
    return DiffusionSchedule(k_steps, beta, alpha, alpha_bar, sigma,
                             inv_sqrt_alpha=1.0 / np.sqrt(alpha),
                             eps_coef=(1.0 - alpha) / np.sqrt(1.0 - alpha_bar))


def forward_diffuse(s0: np.ndarray, k, eps: np.ndarray,
                    schedule: DiffusionSchedule) -> np.ndarray:
    """Closed-form marginal sample at step k, sqrt(abar_k) s0 + sqrt(1-abar_k)
    eps, for one step k or for an array of steps, one per row of s0."""
    k = np.asarray(k)
    if k.min() < 1 or k.max() > schedule.k_steps:
        raise IndexError(f"diffusion steps out of range [1, {schedule.k_steps}]")
    ab = schedule.alpha_bar[k - 1][..., None]
    return np.sqrt(ab) * s0 + np.sqrt(1.0 - ab) * eps


def time_embedding(ks, k_steps: int, dim: int) -> np.ndarray:
    """Sinusoidal embedding of the (normalized) diffusion step; one row per
    step for an array of steps."""
    half = dim // 2
    t = np.asarray(ks) / k_steps
    freqs = np.exp(np.linspace(0.0, np.log(1000.0), half))
    ang = t[..., None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


class Denoiser:
    """Conditional noise predictor, concat(noisy state, time embedding,
    corrupted observation) -> predicted noise, with the noise schedule it
    is trained and run on."""

    def __init__(self, cfg: DsrmConfig, d: int, rng=None):
        cfg.validate()
        self.d = d
        self.time_dim = cfg.time_dim
        self.net = Mlp([2 * d + cfg.time_dim, *cfg.hidden, d], rng=rng)
        self.schedule = make_schedule(cfg.k_steps, cfg.beta_min, cfg.beta_max)
        # Row k holds the embedding of step k (row 0 is unused by the chain).
        self.temb_table = time_embedding(np.arange(cfg.k_steps + 1), cfg.k_steps,
                                         cfg.time_dim)

    def predict(self, s_k, k: int, cond):
        """Predicted noise for one state at step k, a one-row forward."""
        x = np.concatenate([np.asarray(s_k, dtype=np.float64), self.temb_table[k],
                            np.asarray(cond, dtype=np.float64)])
        return self.net.forward(x[None])[0][0]


def reverse_step(s_k: np.ndarray, k: int, cond: np.ndarray, denoiser: Denoiser,
                 schedule: DiffusionSchedule, z: np.ndarray) -> np.ndarray:
    """One reverse-projection step: remove the predicted noise at step k and
    add the posterior-scaled perturbation z."""
    if not 1 <= k <= schedule.k_steps:
        raise IndexError(f"diffusion step {k} out of range [1, {schedule.k_steps}]")
    eps_hat = denoiser.predict(s_k, k, cond)
    mean = schedule.inv_sqrt_alpha[k - 1] * (s_k - schedule.eps_coef[k - 1] * eps_hat)
    return mean + schedule.sigma[k - 1] * z


class ReverseChain:
    """purify's constants for one frozen denoiser, from a copy of its weights,
    so an in-place update (stage I's Adam) can leave it neither half stale
    nor changed: the start scale sqrt(abar_K), and per step k the first
    pre-activation W0_s @ s_k + time_part[K-k] + (W0_c @ cond + b0) and the
    update's coefficients. Coefficients are 0-d arrays, which ufuncs take
    faster than Python floats."""

    def __init__(self, denoiser: Denoiser):
        d, t, schedule = denoiser.d, denoiser.time_dim, denoiser.schedule
        weights, biases = ([p.copy() for p in ps]
                           for ps in (denoiser.net.weights, denoiser.net.biases))
        w0 = weights[0]
        self.time_part = np.ascontiguousarray(
            (denoiser.temb_table @ w0[:, d:d + t].T)[:0:-1])
        self.w0_c, self.b0 = w0[:, d + t:], biases[0]
        self.sqrt_ab = np.array(np.sqrt(schedule.alpha_bar[-1]))
        self.coefs = [(np.array(a), np.array(c)) for a, c in
                      zip(schedule.inv_sqrt_alpha[::-1], schedule.eps_coef[::-1])]
        # Bound ndarray.dot skips np.dot's Python-level dispatch. Its out must
        # not alias its inputs, so each layer has its own scratch buffer.
        self.h0 = np.empty(w0.shape[0])
        self.dot0 = np.ascontiguousarray(w0[:, :d]).dot
        self.later = [(w.dot, b, np.empty(w.shape[0]))
                      for w, b in zip(weights[1:], biases[1:])]


def purify(observed_vec: np.ndarray, chain: ReverseChain) -> np.ndarray:
    """Run the full reverse chain of a frozen denoiser, conditioned on the
    observation: a deterministic map of (observation, weights) that draws
    nothing. It starts from the noise-free mean of the observation diffused
    to step K, sqrt(abar_K) * obs (the DDIM start), and adds no noise on the
    way back (z=0). Each step is reverse_step as ~11 NumPy calls writing into
    buffers, in the op order of s = inv_sqrt_alpha * (s - eps_coef * net(s))."""
    vec = np.asarray(observed_vec, dtype=np.float64)
    s = chain.sqrt_ab * vec  # a fresh array, updated in place
    table = chain.time_part + (chain.w0_c @ vec + chain.b0)
    h0, dot0, later = chain.h0, chain.dot0, chain.later
    # Looked up once: K steps make about 11 calls each.
    add, multiply, subtract, tanh = np.add, np.multiply, np.subtract, np.tanh
    for b0, (inv_sqrt_alpha, eps_coef) in zip(table, chain.coefs):
        dot0(s, h0)
        add(h0, b0, h0)
        h = h0
        for dot, b, out in later:
            tanh(h, h)
            dot(h, out)
            add(out, b, out)
            h = out
        multiply(h, eps_coef, h)
        subtract(s, h, s)
        multiply(s, inv_sqrt_alpha, s)
    if not np.isfinite(s).all():
        raise FloatingPointError("purification produced non-finite values")
    return s


def dsrm_input(denoiser: Denoiser, s0_batch: np.ndarray, cond_batch: np.ndarray,
               ks: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """The denoiser's input for a batch, concat(s_k, time embedding of k,
    cond), where row i is s0_batch[i] diffused to its own step ks[i] with
    noise eps[i]."""
    s_k = forward_diffuse(s0_batch, ks, eps, denoiser.schedule)
    return np.concatenate([s_k, denoiser.temb_table[ks], cond_batch], axis=1)


def dsrm_loss(denoiser: Denoiser, x: np.ndarray, eps: np.ndarray):
    """Noise-reconstruction loss E||eps - predicted||^2 over a batch of
    dsrm_input rows, with gradients for the denoiser net: one forward and
    one backward pass."""
    b = eps.shape[0]
    pred, acts = denoiser.net.forward(x)
    resid = pred - eps
    loss = float(np.sum(resid * resid)) / b
    # d(mean over batch of ||resid||^2)/dpred = 2 resid / b
    return loss, denoiser.net.backward(acts, 2.0 * resid / b)


def train_dsrm(clean: np.ndarray, noisy: np.ndarray, cfg: DsrmConfig,
               seed: int = 0):
    """Stage-one training: fit the conditional denoiser on paired data with
    Adam to a fixed epoch budget. Returns (denoiser, loss_curve)."""
    clean = np.asarray(clean, dtype=np.float64)
    noisy = np.asarray(noisy, dtype=np.float64)
    if clean.shape != noisy.shape:
        raise ValueError("clean/noisy shape mismatch")
    if clean.shape[0] < cfg.min_pairs:
        raise ValueError(
            f"need at least {cfg.min_pairs} training pairs, got {clean.shape[0]}"
        )
    n, d = clean.shape
    denoiser = Denoiser(cfg, d, rng=np.random.default_rng(seed))
    # The minibatches and their (k, eps) targets are drawn once and reused
    # every epoch, which makes the loss curve a pure function of the
    # parameters.
    rng = np.random.default_rng([seed, 0x5eed])
    order = rng.permutation(n)
    batches = []
    for start in range(0, n, cfg.batch):
        idx = order[start:start + cfg.batch]
        ks = rng.integers(1, cfg.k_steps + 1, size=len(idx))
        eps = rng.standard_normal((len(idx), d))
        batches.append((dsrm_input(denoiser, clean[idx], noisy[idx], ks, eps), eps))
    opt = Adam(denoiser.net.parameters(), lr=cfg.lr)
    curve = []
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        for x, eps in batches:
            loss, grads = dsrm_loss(denoiser, x, eps)
            opt.step(grads)
            epoch_loss += loss
        curve.append(epoch_loss / len(batches))
    return denoiser, curve
