"""Run configuration: dataclass sections, validation, and the key=value
config-file format ([section] headers). Unknown keys are rejected."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

VARIANTS = ("DSRM-HRL", "FLAT", "HRL-RAW")

# Eval environments draw session seeds from a range disjoint from training.
EVAL_SEED_OFFSET = 10_000


class ConfigError(ValueError):
    """Invalid, unknown, or out-of-range configuration entry."""


@dataclass
class EnvConfig:
    d: int = 16
    n_items: int = 500
    slate_k: int = 5
    max_len: int = 30
    history_window: int = 10
    kappa: float = 4.0
    bias_strength: float = 0.4
    noise_scale: float = 0.3
    obs_noise: float = 0.05
    zipf_s: float = 1.2
    init_exposure: int = 100_000
    window_a: int = 3
    threshold_a: float = 0.6
    decay_a: float = 0.25
    abandon_prob: float = 0.0
    seed: int = 0

    def validate(self):
        if self.d < 2:
            raise ConfigError(f"env.d must be >= 2, got {self.d}")
        if self.n_items < 10:
            raise ConfigError(f"env.n_items must be >= 10, got {self.n_items}")
        if not 1 <= self.slate_k <= self.n_items:
            raise ConfigError(f"env.slate_k must be in [1, n_items], got {self.slate_k}")
        if self.max_len < 1:
            raise ConfigError(f"env.max_len must be >= 1, got {self.max_len}")
        if self.history_window < 1:
            raise ConfigError(f"env.history_window must be >= 1, got {self.history_window}")
        if self.noise_scale < 0:
            raise ConfigError(f"env.noise_scale must be >= 0, got {self.noise_scale}")
        if self.bias_strength < 0:
            raise ConfigError(f"env.bias_strength must be >= 0, got {self.bias_strength}")
        if self.obs_noise < 0:
            raise ConfigError(f"env.obs_noise must be >= 0, got {self.obs_noise}")
        if self.zipf_s <= 0:
            raise ConfigError(f"env.zipf_s must be > 0, got {self.zipf_s}")
        if self.init_exposure < 0:
            raise ConfigError(f"env.init_exposure must be >= 0, got {self.init_exposure}")
        if self.window_a < 1:
            raise ConfigError(f"env.window_a must be >= 1, got {self.window_a}")
        if not 0 <= self.threshold_a <= 1:
            raise ConfigError(f"env.threshold_a must be in [0,1], got {self.threshold_a}")
        if not 0 <= self.decay_a <= 1:
            raise ConfigError(f"env.decay_a must be in [0,1], got {self.decay_a}")
        if not 0 <= self.abandon_prob <= 1:
            raise ConfigError(f"env.abandon_prob must be in [0,1], got {self.abandon_prob}")


@dataclass
class DsrmConfig:
    k_steps: int = 20
    beta_min: float = 1e-4
    beta_max: float = 0.02
    hidden: tuple[int, ...] = (64, 64)
    time_dim: int = 8
    lr: float = 1e-3
    epochs: int = 30
    batch: int = 128
    n_pairs: int = 5000
    min_pairs: int = 256

    def validate(self):
        if self.k_steps < 0:
            raise ConfigError(f"dsrm.k_steps must be >= 0, got {self.k_steps}")
        if self.k_steps > 0 and not 0 < self.beta_min <= self.beta_max < 1:
            raise ConfigError(
                f"dsrm requires 0 < beta_min <= beta_max < 1, got [{self.beta_min}, {self.beta_max}]"
            )
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"dsrm.hidden sizes must be positive, got {self.hidden}")
        if self.time_dim < 2 or self.time_dim % 2 != 0:
            raise ConfigError(f"dsrm.time_dim must be a positive even integer, got {self.time_dim}")
        if self.lr < 0:
            raise ConfigError(f"dsrm.lr must be >= 0, got {self.lr}")
        if self.epochs < 0:
            raise ConfigError(f"dsrm.epochs must be >= 0, got {self.epochs}")
        if self.batch < 1:
            raise ConfigError(f"dsrm.batch must be >= 1, got {self.batch}")
        if self.n_pairs < 1:
            raise ConfigError(f"dsrm.n_pairs must be >= 1, got {self.n_pairs}")
        if self.min_pairs < 1:
            raise ConfigError(f"dsrm.min_pairs must be >= 1, got {self.min_pairs}")


@dataclass
class HrlConfig:
    gamma: float = 0.99
    lam_gae: float = 0.95
    clip_eps: float = 0.2
    lambda_fair: float = 0.5
    lr_policy: float = 3e-4
    lr_value: float = 1e-3
    entropy_coef: float = 0.01
    ppo_epochs: int = 4
    batch_steps: int = 2048
    manager_interval: int = 1
    total_steps: int = 20000
    hidden: tuple[int, ...] = (64, 64)
    variant: str = "DSRM-HRL"
    flat_omega_acc: float = 1.0
    flat_omega_fair: float = 0.05

    def validate(self):
        if not 0 <= self.gamma <= 1:
            raise ConfigError(f"hrl.gamma must be in [0,1], got {self.gamma}")
        if not 0 <= self.lam_gae <= 1:
            raise ConfigError(f"hrl.lam_gae must be in [0,1], got {self.lam_gae}")
        if not 0 < self.clip_eps < 1:
            raise ConfigError(f"hrl.clip_eps must be in (0,1), got {self.clip_eps}")
        if self.lambda_fair < 0:
            raise ConfigError(f"hrl.lambda_fair must be >= 0, got {self.lambda_fair}")
        if self.lr_policy < 0 or self.lr_value < 0:
            raise ConfigError("hrl learning rates must be >= 0")
        if self.entropy_coef < 0:
            raise ConfigError(f"hrl.entropy_coef must be >= 0, got {self.entropy_coef}")
        if self.ppo_epochs < 1:
            raise ConfigError(f"hrl.ppo_epochs must be >= 1, got {self.ppo_epochs}")
        if self.batch_steps < 1:
            raise ConfigError(f"hrl.batch_steps must be >= 1, got {self.batch_steps}")
        if self.manager_interval < 1:
            raise ConfigError(f"hrl.manager_interval must be >= 1, got {self.manager_interval}")
        if self.total_steps < 0:
            raise ConfigError(f"hrl.total_steps must be >= 0, got {self.total_steps}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"hrl.variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.flat_omega_acc < 0 or self.flat_omega_fair < 0:
            raise ConfigError("hrl.flat_omega_* must be >= 0")


@dataclass
class EvalConfig:
    episodes: int = 200

    def validate(self):
        if self.episodes < 1:
            raise ConfigError(f"eval.episodes must be >= 1, got {self.episodes}")


@dataclass
class RunConfig:
    env: EnvConfig = field(default_factory=EnvConfig)
    dsrm: DsrmConfig = field(default_factory=DsrmConfig)
    hrl: HrlConfig = field(default_factory=HrlConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def validate(self):
        self.env.validate()
        self.dsrm.validate()
        self.hrl.validate()
        self.eval.validate()
        return self


_SECTIONS = {"env": EnvConfig, "dsrm": DsrmConfig, "hrl": HrlConfig, "eval": EvalConfig}

# Removed keys that older checkpoint snapshots still carry, each with the one
# value the program always behaved as. That value is accepted and dropped;
# any other is rejected, because that setting never took effect.
_RETIRED = {("dsrm", "ancestral_init"): False, ("eval", "greedy"): True}


def _parse_value(raw: str, pytype, section: str, key: str):
    raw = raw.strip()
    try:
        if pytype is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if pytype is int:
            return int(raw)
        if pytype is float:
            return float(raw)
        if pytype is str:
            return raw
        if pytype is tuple:
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc
    raise ConfigError(f"{section}.{key}: unsupported field type {pytype}")


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc

    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        target = getattr(cfg, section)
        hints = {f.name: type(getattr(target, f.name)) for f in fields(target)}
        for key, raw in parser.items(section):
            if (section, key) in _RETIRED:
                value = _RETIRED[section, key]
                if _parse_value(raw, bool, section, key) != value:
                    raise ConfigError(
                        f"retired key {section}.{key} = {raw.strip()}: this setting "
                        f"was never in effect (the program always ran as {value})")
                continue
            if key not in hints:
                raise ConfigError(f"unknown key {section}.{key}")
            setattr(target, key, _parse_value(raw, hints[key], section, key))
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def render_config(cfg: RunConfig) -> str:
    """Fully-resolved config as config-file text (used for run logs and
    checkpoint snapshots, so every artifact is self-describing)."""
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        obj = getattr(cfg, section)
        for f in fields(obj):
            val = getattr(obj, f.name)
            if isinstance(val, tuple):
                val = ",".join(str(v) for v in val)
            lines.append(f"{f.name} = {val}")
        lines.append("")
    return "\n".join(lines)
