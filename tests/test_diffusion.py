"""Diffusion schedule identities, forward/reverse kernels, purification."""

import tracemalloc

import numpy as np
import pytest

from dsrm_hrl.config import ConfigError, DsrmConfig, EnvConfig
from dsrm_hrl.diffusion import (Denoiser, ReverseChain, dsrm_input, dsrm_loss,
                                forward_diffuse, make_schedule, purify,
                                reverse_step, time_embedding, train_dsrm)
from dsrm_hrl.env import RecEnv, collect_pairs
from dsrm_hrl.nn import gradient_check


def test_schedule_identities_exact():
    s = make_schedule(20, 1e-4, 0.02)
    assert np.array_equal(s.alpha, 1.0 - s.beta)
    assert np.array_equal(s.alpha_bar, np.cumprod(s.alpha))
    prev = np.concatenate(([1.0], s.alpha_bar[:-1]))
    expected = np.sqrt(s.beta * (1.0 - prev) / (1.0 - s.alpha_bar))
    expected[0] = 0.0
    assert np.array_equal(s.sigma, expected)
    assert s.sigma[0] == 0.0
    assert np.all(np.diff(s.alpha_bar) < 0)


def test_schedule_constant_beta_hand_case():
    # beta = 0.1 for 3 steps: alpha_bar = [0.9, 0.81, 0.729] exactly
    s = make_schedule(3, 0.1, 0.1)
    assert np.allclose(s.alpha_bar, [0.9, 0.81, 0.729], atol=1e-15)


def test_forward_marginal_matches_iterated_kernel_moments():
    """The closed-form marginal at step k must agree with composing k
    single-step kernels s_j = sqrt(alpha_j) s_{j-1} + sqrt(beta_j) eps_j,
    in mean and variance, within 4 standard errors over 10k chains."""
    sched = make_schedule(8, 0.05, 0.3)
    rng = np.random.default_rng(0)
    s0 = np.array([1.0, -0.5, 0.25])
    n = 10_000
    s = np.tile(s0, (n, 1))
    for j in range(1, sched.k_steps + 1):
        s = (np.sqrt(sched.alpha[j - 1]) * s
             + np.sqrt(sched.beta[j - 1]) * rng.standard_normal(s.shape))
    ab = sched.alpha_bar[-1]
    true_mean = np.sqrt(ab) * s0
    true_var = 1.0 - ab
    se_mean = np.sqrt(true_var / n)
    assert np.all(np.abs(s.mean(axis=0) - true_mean) < 4 * se_mean)
    se_var = true_var * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(s.var(axis=0) - true_var) < 4 * se_var)


def test_forward_diffuse_range_check():
    sched = make_schedule(5, 0.01, 0.1)
    with pytest.raises(IndexError):
        forward_diffuse(np.zeros(2), 0, np.zeros(2), sched)
    with pytest.raises(IndexError):
        forward_diffuse(np.zeros(2), 6, np.zeros(2), sched)


class _OracleDenoiser:
    """Stub that predicts the exact noise used in the forward pass."""

    def __init__(self, eps):
        self.eps = eps

    def predict(self, s_k, k, cond):
        return self.eps


def test_one_step_reverse_inverts_forward_exactly():
    """With the true noise known, one reverse step at k=1 recovers s0 to
    machine precision (sigma_1 = 0)."""
    sched = make_schedule(1, 0.2, 0.2)
    rng = np.random.default_rng(1)
    s0 = rng.standard_normal(6)
    eps = rng.standard_normal(6)
    s1 = forward_diffuse(s0, 1, eps, sched)
    rec = reverse_step(s1, 1, s0, _OracleDenoiser(eps), sched, np.zeros(6))
    assert np.max(np.abs(rec - s0)) < 1e-10


def test_time_embedding_shape_and_bounds():
    e = time_embedding(3, 20, 8)
    assert e.shape == (8,)
    assert np.all(np.abs(e) <= 1.0)
    assert not np.array_equal(time_embedding(3, 20, 8), time_embedding(4, 20, 8))


def old_time_embedding(k, k_steps, dim):
    """The earlier scalar-only embedding, verbatim."""
    half = dim // 2
    t = k / max(k_steps, 1)
    freqs = np.exp(np.linspace(0.0, np.log(1000.0), half))
    ang = t * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)])


@pytest.mark.parametrize("k_steps", [1, 2, 4, 5, 20, 50, 100, 200, 1000])
@pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
def test_time_embedding_table_matches_scalar_loop(k_steps, dim):
    """One array call gives the table the per-step loop built, bit for bit
    (elementwise sin/cos over a 2-d array against one row at a time), and
    a denoiser's table is that table."""
    loop = np.stack([old_time_embedding(k, k_steps, dim) for k in range(k_steps + 1)])
    table = time_embedding(np.arange(k_steps + 1), k_steps, dim)
    assert table.shape == loop.shape == (k_steps + 1, dim)
    assert np.array_equal(table, loop)
    for k in {0, k_steps // 2, k_steps}:
        assert np.array_equal(time_embedding(k, k_steps, dim),
                              old_time_embedding(k, k_steps, dim))
    den = Denoiser(DsrmConfig(k_steps=k_steps, hidden=(4,), time_dim=dim), 3,
                   rng=np.random.default_rng(0))
    assert np.array_equal(den.temb_table, loop)


def test_purify_deterministic_repeatable():
    rng = np.random.default_rng(2)
    den = Denoiser(DsrmConfig(k_steps=5, beta_min=0.01, beta_max=0.1, hidden=(8,),
                              time_dim=4), 4, rng=rng)
    x = rng.standard_normal(4)
    chain = ReverseChain(den)
    a = purify(x, chain)
    b = purify(x, chain)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


@pytest.mark.parametrize("k_steps", [1, 5, 20, 200])
def test_purify_draws_nothing_and_is_the_zero_noise_reverse_chain(k_steps, monkeypatch):
    """purify builds no Generator, and equals reverse_step's chain with z = 0
    started from the observation diffused to step K with zero noise."""
    den = _random_denoiser(5, k_steps, (16, 12), seed=k_steps)
    sched = den.schedule
    chain = ReverseChain(den)
    x = np.random.default_rng(7).standard_normal(5)

    def no_rng(*args, **kwargs):
        raise AssertionError("purify built a Generator")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    got = purify(x, chain)
    s = forward_diffuse(x, k_steps, 0.0, sched)
    for k in range(k_steps, 0, -1):
        s = reverse_step(s, k, x, den, sched, np.zeros(5))
    assert np.max(np.abs(got - s)) <= 1e-12


def test_dsrm_loss_zero_network_equals_noise_energy():
    """A denoiser with all-zero weights predicts 0, so the loss is exactly
    the mean squared norm of the injected noise."""
    den = Denoiser(DsrmConfig(k_steps=5, beta_min=0.01, beta_max=0.1, hidden=(8,),
                              time_dim=4), 4, rng=np.random.default_rng(4))
    den.net.parameters().assign({k: np.zeros_like(v)
                                 for k, v in den.net.parameters().items()})
    rng = np.random.default_rng(5)
    s0 = rng.standard_normal((6, 4))
    cond = rng.standard_normal((6, 4))
    eps = rng.standard_normal((6, 4))
    ks = np.array([1, 2, 3, 4, 5, 3])
    loss, _ = dsrm_loss(den, dsrm_input(den, s0, cond, ks, eps), eps)
    assert loss == pytest.approx(np.mean(np.sum(eps ** 2, axis=1)), rel=1e-12)


def test_dsrm_loss_gradients_match_finite_differences():
    den = Denoiser(DsrmConfig(k_steps=4, beta_min=0.05, beta_max=0.2, hidden=(6,),
                              time_dim=4), 3, rng=np.random.default_rng(6))
    rng = np.random.default_rng(7)
    s0 = rng.standard_normal((4, 3))
    cond = rng.standard_normal((4, 3))
    eps = rng.standard_normal((4, 3))
    x = dsrm_input(den, s0, cond, np.array([1, 2, 3, 4]), eps)
    params = den.net.parameters()
    _, grads = dsrm_loss(den, x, eps)
    h = 1e-6
    worst = 0.0
    for key, p in params.items():
        flat = p.reshape(-1)
        gflat = grads[key].reshape(-1)
        for idx in range(0, flat.size, 7):  # probe a subset
            orig = flat[idx]
            flat[idx] = orig + h
            lp, _ = dsrm_loss(den, x, eps)
            flat[idx] = orig - h
            lm, _ = dsrm_loss(den, x, eps)
            flat[idx] = orig
            num = (lp - lm) / (2 * h)
            denom = max(abs(num), abs(gflat[idx]), 1e-8)
            worst = max(worst, abs(num - gflat[idx]) / denom)
    assert worst < 1e-4


def test_train_dsrm_reduces_loss_and_is_deterministic():
    rng = np.random.default_rng(8)
    clean = rng.standard_normal((300, 4))
    noisy = clean + 0.5 * rng.standard_normal((300, 4))
    cfg = DsrmConfig(k_steps=5, hidden=(16,), time_dim=4, epochs=5,
                     batch=64, n_pairs=300, min_pairs=64)
    den1, curve1 = train_dsrm(clean, noisy, cfg, seed=0)
    den2, curve2 = train_dsrm(clean, noisy, cfg, seed=0)
    assert curve1 == curve2
    assert curve1[-1] < curve1[0]
    p1, p2 = den1.net.parameters(), den2.net.parameters()
    assert all(np.array_equal(p1[k], p2[k]) for k in p1)


def test_train_dsrm_zero_lr_constant_curve():
    rng = np.random.default_rng(9)
    clean = rng.standard_normal((100, 4))
    noisy = clean.copy()
    cfg = DsrmConfig(k_steps=5, hidden=(16,), time_dim=4, epochs=3,
                     batch=64, n_pairs=100, min_pairs=64, lr=0.0)
    _, curve = train_dsrm(clean, noisy, cfg, seed=0)
    assert len(curve) == 3
    assert curve[0] == pytest.approx(curve[1]) == pytest.approx(curve[2])


def test_train_dsrm_k0_rejected():
    """K = 0 is no denoiser: the config rejects it, and a denoiser is not
    built on it, with the config's error. Running without purification is
    Agent(denoiser=None)."""
    with pytest.raises(ConfigError, match=r"^dsrm\.k_steps must be >= 1, got 0$"):
        DsrmConfig(k_steps=0).validate()
    clean = np.random.default_rng(10).standard_normal((100, 4))
    cfg = DsrmConfig(k_steps=0, n_pairs=100, min_pairs=64)
    with pytest.raises(ConfigError, match=r"^dsrm\.k_steps must be >= 1, got 0$"):
        train_dsrm(clean, clean.copy(), cfg, seed=0)


def test_train_dsrm_too_few_pairs_rejected():
    clean = np.zeros((10, 4))
    cfg = DsrmConfig(n_pairs=10, min_pairs=256)
    with pytest.raises(ValueError):
        train_dsrm(clean, clean.copy(), cfg, seed=0)


def test_collect_pairs_shapes():
    from dsrm_hrl.config import EnvConfig
    from dsrm_hrl.env import RecEnv
    env = RecEnv(EnvConfig(d=8, n_items=40, slate_k=3, max_len=6,
                           init_exposure=100, seed=0))
    clean, noisy = collect_pairs(env, 50, np.random.default_rng(0))
    assert clean.shape == (50, 8) and noisy.shape == (50, 8)
    assert np.all(np.isfinite(clean)) and np.all(np.isfinite(noisy))
    assert not np.allclose(clean, noisy)


@pytest.mark.parametrize("n_items", [500, 5000])
def test_collect_pairs_memory_stays_bounded(n_items):
    """Stage I's temporaries grow with neither the catalog nor the pair
    count: 1000 pairs peak at 1.5 MiB at most, and 1800 more pairs raise
    the peak by their output bytes plus at most 256 KiB."""
    def peak(n_pairs):
        env = RecEnv(EnvConfig(n_items=n_items))
        collect_pairs(env, 1, np.random.default_rng(1))  # lazy imports
        tracemalloc.start()
        try:
            clean, noisy = collect_pairs(env, n_pairs, np.random.default_rng(0))
            return tracemalloc.get_traced_memory()[1], clean.nbytes + noisy.nbytes
        finally:
            tracemalloc.stop()

    assert peak(1000)[0] <= 1.5 * 2**20
    (small, small_out), (large, large_out) = peak(200), peak(2000)
    assert large - small <= large_out - small_out + 256 * 2**10


# -- reference implementations ------------------------------------------
# The straightforward forms of the two denoiser hot paths: purify as a chain
# of single-vector forwards on concat(s_k, temb_k, cond), and the loss as
# one forward/backward per distinct diffusion step. The library versions
# reorder float sums, so they must agree to rounding, not bit for bit.

TOL = 1e-12


def _ref_predict(den, s_k, k, cond):
    x = np.concatenate([s_k, time_embedding(k, den.schedule.k_steps, den.time_dim), cond])
    y, _ = den.net.forward(x[None])
    return y[0]


def _ref_purify(vec, den, sched):
    k_steps = sched.k_steps
    s = np.sqrt(sched.alpha_bar[-1]) * vec
    for k in range(k_steps, 0, -1):
        a, ab = sched.alpha[k - 1], sched.alpha_bar[k - 1]
        eps_hat = _ref_predict(den, s, k, vec)
        s = (s - (1.0 - a) / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(a)
    return s


def _allocating_purify(vec, den, sched):
    """purify's split-first-layer chain in its allocating form: every step
    builds new arrays with @, +, tanh and the scalar
    update. Same ops in the same order as the buffered library chain, so
    the two must agree bit for bit."""
    k_steps = sched.k_steps
    s = np.sqrt(sched.alpha_bar[-1]) * vec
    net = den.net
    w0, d, t = net.weights[0], den.d, den.time_dim
    bias0 = den.temb_table @ w0[:, d:d + t].T + (w0[:, d + t:] @ vec + net.biases[0])
    w0_s = net.weights[0][:, :den.d]
    later = list(zip(net.weights[1:], net.biases[1:]))
    inv_sqrt_alpha = sched.inv_sqrt_alpha.tolist()
    eps_coef = sched.eps_coef.tolist()
    for k in range(k_steps, 0, -1):
        h = w0_s @ s + bias0[k]
        for w, b in later:
            h = w @ np.tanh(h) + b
        s = inv_sqrt_alpha[k - 1] * (s - eps_coef[k - 1] * h)
    return s


def _ref_dsrm_loss(den, s0, cond, sched, eps, ks):
    b = s0.shape[0]
    grads = {key: np.zeros_like(v) for key, v in den.net.parameters().items()}
    total = 0.0
    for k in np.unique(ks):
        sel = ks == k
        s_k = forward_diffuse(s0[sel], int(k), eps[sel], sched)
        temb = np.tile(time_embedding(int(k), den.schedule.k_steps, den.time_dim),
                       (int(sel.sum()), 1))
        pred, cache = den.net.forward(np.concatenate([s_k, temb, cond[sel]], axis=1))
        resid = pred - eps[sel]
        total += float(np.sum(resid * resid))
        gk = den.net.backward(cache, 2.0 * resid / b)
        for key in grads:
            grads[key] += gk[key]
    return total / b, grads


def _random_denoiser(d, k_steps, hidden, seed, betas=(1e-4, 0.02)):
    cfg = DsrmConfig(k_steps=k_steps, beta_min=betas[0], beta_max=betas[1],
                     hidden=hidden, time_dim=6)
    den = Denoiser(cfg, d, rng=np.random.default_rng(seed))
    # Non-zero biases, so the split first layer's bias term is exercised.
    for b in den.net.biases:
        b[:] = np.random.default_rng(seed + 1).standard_normal(b.shape) * 0.1
    return den


# "tanh" in the ids of these parametrizations names the denoiser's
# activation, the only one Mlp has.
@pytest.mark.parametrize("k_steps", [1, 5, 200], ids=lambda k: f"tanh-{k}")
@pytest.mark.parametrize("hidden", [(16,), (16, 12)])
def test_purify_matches_reference_chain(k_steps, hidden):
    den = _random_denoiser(5, k_steps, hidden, seed=k_steps)
    sched = make_schedule(k_steps, 1e-4, 0.02)
    x = np.random.default_rng(11).standard_normal(5)
    got = purify(x, ReverseChain(den))
    assert np.max(np.abs(got - _ref_purify(x, den, sched))) <= TOL


@pytest.mark.parametrize("k_steps", [1, 5, 20, 200], ids=lambda k: f"tanh-{k}")
@pytest.mark.parametrize("hidden", [(16,), (16, 12)])
def test_purify_bit_identical_to_allocating_chain(k_steps, hidden):
    den = _random_denoiser(5, k_steps, hidden, seed=k_steps)
    sched = make_schedule(k_steps, 1e-4, 0.02)
    chain = ReverseChain(den)
    for seed in (11, 12):
        x = np.random.default_rng(seed).standard_normal(5)
        assert np.array_equal(purify(x, chain), _allocating_purify(x, den, sched))


def _old_purify(observed_vec, denoiser):
    """purify as it was before ReverseChain, verbatim but for its first-layer
    table, which was the method Denoiser.first_layer_bias, and its start,
    which added noise seeded by a hash of the observation."""
    vec = np.asarray(observed_vec, dtype=np.float64)
    schedule = denoiser.schedule
    s = np.sqrt(schedule.alpha_bar[-1]) * vec
    net = denoiser.net
    w0, d, t = net.weights[0], denoiser.d, denoiser.time_dim
    bias0 = denoiser.temb_table @ w0[:, d:d + t].T + (w0[:, d + t:] @ vec + net.biases[0])
    bufs = [np.empty(w.shape[0]) for w in net.weights]
    h0 = bufs[0]
    dot0 = np.ascontiguousarray(net.weights[0][:, :denoiser.d]).dot
    later = [(w.dot, b, out)
             for w, b, out in zip(net.weights[1:], net.biases[1:], bufs[1:])]
    add, multiply, subtract, tanh = np.add, np.multiply, np.subtract, np.tanh
    for b0, inv_sqrt_alpha, eps_coef in zip(bias0[:0:-1],
                                            schedule.inv_sqrt_alpha[::-1].tolist(),
                                            schedule.eps_coef[::-1].tolist()):
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
    if not np.all(np.isfinite(s)):
        raise FloatingPointError("purification produced non-finite values")
    return s


@pytest.mark.parametrize("k_steps", [1, 5, 20, 200])
@pytest.mark.parametrize("hidden", [(16,), (16, 12), (64, 64)])
def test_reverse_chain_is_a_frozen_snapshot(k_steps, hidden):
    """purify with a ReverseChain equals the earlier purify bit for bit, and
    keeps doing so after an in-place update of every weight and bias, which
    the earlier purify on the updated denoiser does see."""
    den = _random_denoiser(5, k_steps, hidden, seed=k_steps)
    states = np.random.default_rng(13).standard_normal((6, 5)) * np.logspace(-2, 2, 6)[:, None]
    chain = ReverseChain(den)
    frozen = [_old_purify(x, den) for x in states]
    for x, ref in zip(states, frozen):
        assert np.array_equal(purify(x, chain), ref)
    for p in den.net.parameters().values():
        p += 0.05
    for x, ref in zip(states, frozen):
        assert np.array_equal(purify(x, chain), ref)
        assert not np.array_equal(_old_purify(x, den), ref)


def test_purify_result_is_a_fresh_array():
    """The PPO record keeps each purified state, so a later call must not
    write into an earlier result, and the input must not be touched."""
    den = _random_denoiser(4, 5, (8, 8), seed=5, betas=(0.01, 0.1))
    x = np.arange(4.0)
    chain = ReverseChain(den)
    first = purify(x, chain)
    kept = first.copy()
    second = purify(x, chain)
    purify(x + 1.0, chain)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept) and np.array_equal(second, kept)
    assert np.array_equal(x, np.arange(4.0))


def test_new_chain_sees_updated_weights():
    """A chain built after an in-place weight update (as Adam makes in stage
    I) runs on the new weights."""
    den = _random_denoiser(4, 5, (8,), seed=3, betas=(0.01, 0.1))
    sched = make_schedule(5, 0.01, 0.1)
    x = np.arange(4.0)
    before = purify(x, ReverseChain(den))
    den.net.weights[0] += 0.5
    den.net.biases[0] -= 0.25
    after = purify(x, ReverseChain(den))
    assert not np.allclose(before, after)
    assert np.max(np.abs(after - _ref_purify(x, den, sched))) <= TOL


def test_purify_rejects_non_finite_weights():
    den = _random_denoiser(4, 5, (8,), seed=4, betas=(0.01, 0.1))
    den.net.weights[-1][0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        purify(np.ones(4), ReverseChain(den))


@pytest.mark.parametrize("ks", [
    np.array([1, 5, 2, 5, 5, 3, 1, 4]),   # repeated steps
    np.array([3]),                         # batch of one
    np.array([2, 2, 2, 2]),                # a single distinct step
    np.arange(1, 201),                     # every step of a deep schedule
], ids=[f"tanh-ks{i}" for i in range(4)])
def test_dsrm_loss_matches_per_step_reference(ks):
    k_steps = int(ks.max())
    den = _random_denoiser(4, k_steps, (16, 12), seed=5)
    sched = make_schedule(k_steps, 1e-4, 0.02)
    rng = np.random.default_rng(12)
    b = len(ks)
    s0 = rng.standard_normal((b, 4))
    cond = rng.standard_normal((b, 4))
    eps = rng.standard_normal((b, 4))
    loss, grads = dsrm_loss(den, dsrm_input(den, s0, cond, ks, eps), eps)
    ref_loss, ref_grads = _ref_dsrm_loss(den, s0, cond, sched, eps, ks)
    assert abs(loss - ref_loss) <= TOL
    assert grads.keys() == ref_grads.keys()
    for key in grads:
        assert grads[key].shape == ref_grads[key].shape
        assert np.max(np.abs(grads[key] - ref_grads[key])) <= TOL, key


def test_dsrm_loss_rejects_out_of_range_steps():
    den = _random_denoiser(3, 4, (6,), seed=6, betas=(0.05, 0.2))
    z = np.zeros((2, 3))
    for ks in (np.array([0, 1]), np.array([1, 5])):
        with pytest.raises(IndexError):
            dsrm_input(den, z, z, ks, z)


def test_dsrm_loss_draw_order_unchanged():
    """train_dsrm draws from default_rng([seed, 0x5eed]) the permutation,
    then for each minibatch its ks before its eps. With lr = 0 the weights
    stay put, so the one epoch's loss is the mean per-step reference loss
    over minibatches drawn in that order."""
    n, d, batch, seed = 130, 3, 64, 13
    rng = np.random.default_rng(seed)
    clean = rng.standard_normal((n, d))
    noisy = clean + 0.3 * rng.standard_normal((n, d))
    cfg = DsrmConfig(k_steps=6, beta_min=0.05, beta_max=0.2, hidden=(6,), time_dim=4,
                     epochs=1, batch=batch, lr=0.0, n_pairs=n, min_pairs=64)
    den, curve = train_dsrm(clean, noisy, cfg, seed=seed)
    sched = make_schedule(6, 0.05, 0.2)
    draws = np.random.default_rng([seed, 0x5eed])
    order = draws.permutation(n)
    ref = []
    for start in range(0, n, batch):
        idx = order[start:start + batch]
        ks = draws.integers(1, 7, size=len(idx))
        eps = draws.standard_normal((len(idx), d))
        ref.append(_ref_dsrm_loss(den, clean[idx], noisy[idx], sched, eps, ks)[0])
    assert len(ref) == 3  # the last minibatch is short
    assert abs(curve[0] - np.mean(ref)) <= TOL
