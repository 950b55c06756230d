"""Run configuration: dataclass sections, validation, and the key=value
config-file format ([section] headers). Unknown keys are rejected."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

VARIANTS = ("DSRM-HRL", "FLAT", "HRL-RAW")

# Eval environments draw session seeds from a range disjoint from training.
EVAL_SEED_OFFSET = 10_000


class ConfigError(ValueError):
    """Invalid, unknown, or out-of-range configuration entry."""


def _ranged(default, low=-math.inf, high=math.inf):
    """A numeric field: its default and closed range [low, high], which a
    tuple's elements each keep. Other rules are in the section's _rules."""
    return field(default=default, metadata={"range": (low, high)})


class _Section:
    """The one validator of every section: each float finite, each number
    in its field's range, then the section's own cross-field rules."""

    def _rules(self):  # (holds, message) pairs
        return ()

    def validate(self):
        section = next(n for n, cls in _SECTIONS.items() if isinstance(self, cls))
        for f in fields(self):
            if "range" not in f.metadata:
                continue
            value = getattr(self, f.name)
            low, high = f.metadata["range"]
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{section}.{f.name} must be finite, got {value}")
                if not low <= v <= high:
                    bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
                    raise ConfigError(f"{section}.{f.name} must be {bound}, got {value}")
        for holds, message in self._rules():
            if not holds:
                raise ConfigError(f"{section}.{message}")
        return self


@dataclass
class EnvConfig(_Section):
    d: int = _ranged(16, low=2)
    n_items: int = _ranged(500, low=10)
    slate_k: int = _ranged(5, low=1)
    max_len: int = _ranged(30, low=1)
    history_window: int = _ranged(10, low=1)
    kappa: float = _ranged(4.0)  # unbounded: any finite value
    bias_strength: float = _ranged(0.4, low=0)
    noise_scale: float = _ranged(0.3, low=0)
    obs_noise: float = _ranged(0.05, low=0)
    zipf_s: float = _ranged(1.2)  # > 0: see _rules
    init_exposure: int = _ranged(100_000, low=0)
    window_a: int = _ranged(3, low=1)
    threshold_a: float = _ranged(0.6, 0, 1)
    decay_a: float = _ranged(0.25, 0, 1)
    abandon_prob: float = _ranged(0.0, 0, 1)
    seed: int = _ranged(0, low=0)

    def _rules(self):
        return ((self.slate_k <= self.n_items,
                 f"slate_k must be <= n_items ({self.n_items}), got {self.slate_k}"),
                (self.zipf_s > 0, f"zipf_s must be > 0, got {self.zipf_s}"))


@dataclass
class DsrmConfig(_Section):
    k_steps: int = _ranged(20, low=1)
    beta_min: float = _ranged(1e-4)  # with beta_max: see _rules
    beta_max: float = _ranged(0.02)
    hidden: tuple[int, ...] = _ranged((64, 64), low=1)
    time_dim: int = _ranged(8, low=2)  # and even: see _rules
    lr: float = _ranged(1e-3, low=0)
    epochs: int = _ranged(30, low=0)
    batch: int = _ranged(128, low=1)
    n_pairs: int = _ranged(5000, low=1)
    min_pairs: int = _ranged(256, low=1)

    def _rules(self):
        return ((0 < self.beta_min <= self.beta_max < 1,
                 f"beta_min/beta_max must satisfy 0 < beta_min <= beta_max < 1, "
                 f"got [{self.beta_min}, {self.beta_max}]"),
                (self.time_dim % 2 == 0, f"time_dim must be even, got {self.time_dim}"))


@dataclass
class HrlConfig(_Section):
    gamma: float = _ranged(0.99, 0, 1)
    lam_gae: float = _ranged(0.95, 0, 1)
    clip_eps: float = _ranged(0.2)  # in (0, 1): see _rules
    lambda_fair: float = _ranged(0.5, low=0)
    lr_policy: float = _ranged(3e-4, low=0)
    lr_value: float = _ranged(1e-3, low=0)
    entropy_coef: float = _ranged(0.01, low=0)
    ppo_epochs: int = _ranged(4, low=1)
    batch_steps: int = _ranged(2048, low=1)
    manager_interval: int = _ranged(1, low=1)
    total_steps: int = _ranged(20000, low=0)
    hidden: tuple[int, ...] = _ranged((64, 64), low=1)
    variant: str = "DSRM-HRL"
    flat_omega_acc: float = _ranged(1.0, low=0)
    flat_omega_fair: float = _ranged(0.05, low=0)

    def _rules(self):
        return ((0 < self.clip_eps < 1, f"clip_eps must be in (0, 1), got {self.clip_eps}"),
                (self.variant in VARIANTS,
                 f"variant must be one of {VARIANTS}, got {self.variant!r}"))


@dataclass
class EvalConfig(_Section):
    episodes: int = _ranged(200, low=1)


@dataclass
class RunConfig:
    env: EnvConfig = field(default_factory=EnvConfig)
    dsrm: DsrmConfig = field(default_factory=DsrmConfig)
    hrl: HrlConfig = field(default_factory=HrlConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def validate(self):
        for section in _SECTIONS:
            getattr(self, section).validate()
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise  # as is; any other read fault (a directory, no permission) is a ConfigError
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


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
