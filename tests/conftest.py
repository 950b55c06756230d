"""Shared test helpers."""

import struct

import numpy as np

from dsrm_hrl.env import (GROUP_LONGTAIL, GROUP_POPULAR, ItemCatalog, SessionOutcome,
                          encode_observed)

FAST_CFG = """\
[env]
d = 8
n_items = 40
slate_k = 3
max_len = 6
init_exposure = 100

[dsrm]
k_steps = 4
hidden = 16
time_dim = 4
epochs = 2
batch = 64
n_pairs = 300
min_pairs = 64

[hrl]
hidden = 16
batch_steps = 60
total_steps = 120
ppo_epochs = 2

[eval]
episodes = 5
"""


def non_utf8_copy(path, field):
    """The checkpoint's bytes with the first byte of its config snapshot,
    or of its first tensor name, set to 0xff (never valid UTF-8)."""
    data = bytearray(path.read_bytes())
    cfg_at = len(b"DSRM1") + 4 + 4
    cfg_len = int.from_bytes(data[cfg_at - 4:cfg_at], "little")
    data[cfg_at if field == "config snapshot" else cfg_at + cfg_len + 8] = 0xFF
    return bytes(data)


# Tensor shapes whose element count is 2**64, which int64 arithmetic wraps to 0.
OVERFLOWING_SHAPES = [(2**16,) * 4, (2**31, 2**31, 4)]


def checkpoint_declaring(shape):
    """Checkpoint bytes with one tensor that declares the given shape and
    carries no data."""
    name = b"denoiser.W0"
    return b"".join([b"DSRM1", struct.pack("<II", 1, 0), struct.pack("<I", 1),
                     struct.pack("<I", len(name)), name,
                     struct.pack(f"<I{len(shape)}I", len(shape), *shape)])


def tiny_catalog():
    """4 items: ids 0,1 popular; 2,3 long-tail."""
    rng = np.random.default_rng(0)
    emb = rng.standard_normal((4, 8))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    group = np.array([GROUP_POPULAR, GROUP_POPULAR,
                      GROUP_LONGTAIL, GROUP_LONGTAIL], dtype=np.int64)
    prior = emb.mean(axis=0)
    return ItemCatalog(4, emb, np.zeros(4, dtype=np.int64),
                       np.ones(4), group, prior / np.linalg.norm(prior))


def random_slate(env):
    """The uniform-random policy's next slate for env's session, drawn from
    the session's generator as the package's random rollouts draw it."""
    return env._rng.choice(env.catalog.n_items, size=env.config.slate_k,
                           replace=False)


def clean_state(env):
    """The noise-free encoding of the history of env's session, the clean
    state that its last observation corrupts."""
    return encode_observed(env._items, env._rewards, env.catalog, 0.0, None)


def same_outcome(a, b):
    """Two session outcomes with equal abandonment and equal arrays, element
    for element."""
    return (isinstance(a, SessionOutcome) and isinstance(b, SessionOutcome)
            and a.abandoned == b.abandoned
            and np.array_equal(a.rewards, b.rewards)
            and np.array_equal(a.slates, b.slates))
