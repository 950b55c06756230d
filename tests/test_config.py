"""Config dataclasses, validation, and file parsing."""

import ast
import math
import pathlib
from dataclasses import fields

import numpy as np
import pytest

import dsrm_hrl
from dsrm_hrl.config import (ConfigError, DsrmConfig, EnvConfig, EvalConfig,
                             HrlConfig, RunConfig, VARIANTS, _SECTIONS,
                             load_config, parse_config, render_config)


def test_defaults_validate():
    RunConfig().validate()


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_floats_rejected(raw):
    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            if isinstance(f.default, float):
                with pytest.raises(ConfigError, match=rf"^{section}\.{f.name} must be finite"):
                    parse_config(f"[{section}]\n{f.name} = {raw}\n")


def test_every_numeric_field_declares_a_range():
    """A number without a declared range would go unchecked; an unbounded
    one declares so explicitly (its range is (None, None))."""
    undeclared = [f"{section}.{f.name}" for section, cls in _SECTIONS.items()
                  for f in fields(cls)
                  if isinstance(f.default, (int, float, tuple)) and "range" not in f.metadata]
    assert undeclared == []


@pytest.mark.parametrize("field,value", [
    ("d", 0), ("n_items", 0), ("slate_k", 0), ("max_len", 0),
    ("history_window", 0), ("noise_scale", -0.1), ("obs_noise", -1.0),
    ("zipf_s", 0.0), ("init_exposure", -1), ("window_a", 0),
    ("threshold_a", 1.5), ("decay_a", -0.1), ("abandon_prob", 2.0),
])
def test_env_validation_errors(field, value):
    cfg = EnvConfig(**{field: value})
    with pytest.raises(ConfigError, match=field):
        cfg.validate()


def test_slate_larger_than_catalog_rejected():
    with pytest.raises(ConfigError):
        EnvConfig(n_items=3, slate_k=5).validate()


@pytest.mark.parametrize("field,value", [
    ("k_steps", -1), ("k_steps", 0), ("beta_min", 0.0), ("beta_max", 1.0),
    ("lr", -1.0), ("epochs", -1), ("batch", 0), ("n_pairs", 0),
])
def test_dsrm_validation_errors(field, value):
    cfg = DsrmConfig(**{field: value})
    with pytest.raises(ConfigError, match=field):
        cfg.validate()


def test_beta_ordering_rejected():
    with pytest.raises(ConfigError):
        DsrmConfig(beta_min=0.5, beta_max=0.1).validate()


@pytest.mark.parametrize("field,value", [
    ("gamma", 1.5), ("lam_gae", -0.1), ("clip_eps", 0.0),
    ("lambda_fair", -1.0), ("ppo_epochs", 0), ("batch_steps", 0),
    ("total_steps", -1), ("variant", "BOGUS"),
])
def test_hrl_validation_errors(field, value):
    cfg = HrlConfig(**{field: value})
    with pytest.raises(ConfigError):
        cfg.validate()


def test_eval_validation():
    with pytest.raises(ConfigError):
        EvalConfig(episodes=0).validate()


def test_variants_frozen():
    assert set(VARIANTS) == {"DSRM-HRL", "FLAT", "HRL-RAW"}


def test_render_parse_round_trip():
    cfg = RunConfig()
    cfg.env.seed = 17
    cfg.env.noise_scale = 0.123
    cfg.dsrm.hidden = (32, 16)
    cfg.hrl.variant = "FLAT"
    parsed = parse_config(render_config(cfg))
    assert parsed == cfg


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[env]\nseed = 3\nn_items = 50\nslate_k = 4\n")
    cfg = load_config(path)
    assert cfg.env.seed == 3
    assert cfg.env.n_items == 50
    assert cfg.dsrm == DsrmConfig()  # untouched sections keep defaults


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[nope]\nx = 1\n")
    with pytest.raises(ConfigError, match="nope"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[env]\nbogus_key = 1\n")
    with pytest.raises(ConfigError, match="bogus_key"):
        load_config(path)


def test_bad_value_type_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[env]\nseed = banana\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_config("/nonexistent/run.cfg")


def test_retired_keys_accepted_with_the_value_always_used():
    text = "[dsrm]\nancestral_init = False\n[eval]\ngreedy = true\n"
    assert parse_config(text) == RunConfig()


@pytest.mark.parametrize("text", [
    "[dsrm]\nancestral_init = true\n",
    "[eval]\ngreedy = False\n",
    "[eval]\ngreedy = banana\n",
])
def test_retired_keys_other_values_rejected(text):
    with pytest.raises(ConfigError, match="ancestral_init|greedy"):
        parse_config(text)


def test_every_config_key_is_read():
    """Each field of each config section is read as an attribute somewhere
    in the package outside config.py; a key nothing reads is a dead knob."""
    pkg = pathlib.Path(dsrm_hrl.__file__).parent
    attrs = set()
    for path in pkg.glob("*.py"):
        if path.name != "config.py":
            attrs.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                         if isinstance(node, ast.Attribute))
    unread = [f"{section}.{f.name}" for section, cls in _SECTIONS.items()
              for f in fields(cls) if f.name not in attrs]
    assert unread == []


# Library functions that no code in src/ calls, kept on purpose.
KEPT_FOR_CHECKS = {
    "diffusion.reverse_step",       # criterion 2 and test_diffusion's oracle-denoiser checks
    "diffusion.Denoiser.predict",   # reverse_step's network call; perfbench SPANS
    "nn.gradient_check",            # the finite-difference oracle (criterion 1)
    "env.RecEnv.ground_truth_state",  # criterion 5
}


def test_every_library_function_is_referenced():
    """Each top-level function and method in the package is referenced
    somewhere in src/ (dunder methods excepted): a method by an attribute
    access (x.name), a function by loading its name or importing it. A
    local variable of the same name does not count. One that only tests
    reach is dead library code unless it is listed above."""
    pkg = pathlib.Path(dsrm_hrl.__file__).parent
    names, attrs, defined = set(), set(), {}
    for path in pkg.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        for node in tree.body:
            is_class = isinstance(node, ast.ClassDef)
            members = node.body if is_class else [node]
            prefix = f"{node.name}." if is_class else ""
            for fn in members:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__"):
                    defined[f"{path.stem}.{prefix}{fn.name}"] = (
                        fn.name, attrs if is_class else names)
    assert KEPT_FOR_CHECKS <= defined.keys()
    unreferenced = sorted(qual for qual, (name, refs) in defined.items()
                          if name not in refs and qual not in KEPT_FOR_CHECKS)
    assert unreferenced == []


def _numpy_ufunc(func):
    """The NumPy ufunc a call's func names as np.<name>, else None."""
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")):
        ufunc = getattr(np, func.attr, None)
        return ufunc if isinstance(ufunc, np.ufunc) else None
    return None


def _exposure_writes(tree):
    """Writes in tree to x.exposure or to an element or slice of it, as
    (inside ItemCatalog, line): assignment targets; the first argument of a
    ufunc.at call (np.add.at(x.exposure, ...)); an out= keyword; and the
    positional outputs of an np.<ufunc> call, the arguments past its nin."""
    def targets(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                yield from targets(elt)
        elif isinstance(node, ast.Starred):
            yield from targets(node.value)
        else:
            yield node

    catalog = {id(n) for c in ast.walk(tree)
               if isinstance(c, ast.ClassDef) and c.name == "ItemCatalog"
               for n in ast.walk(c)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            tops = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            tops = [node.target]
        elif isinstance(node, ast.Call):
            tops = [k.value for k in node.keywords if k.arg == "out"]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "at":
                tops += node.args[:1]
            ufunc = _numpy_ufunc(node.func)
            if ufunc is not None:
                tops += node.args[ufunc.nin:]
        else:
            continue
        for target in (t for top in tops for t in targets(top)):
            while isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute) and target.attr == "exposure":
                yield id(node) in catalog, node.lineno


def test_exposure_writes_seen_through_numpy_calls():
    """The write finder sees NumPy calls that write to .exposure, and not
    those that only read it."""
    writes = """
np.add.at(env.catalog.exposure, ids, 1)
np.multiply.at(cat.exposure[:5], 0, 2)
np.add(a, b, out=cat.exposure)
np.add(a, b, out=(cat.exposure,))
np.negative(a, cat.exposure[ids])
np.add(a, b, cat.exposure)
cat.exposure[ids] += 1
"""
    reads = """
np.add.at(counts, ids, cat.exposure[ids])
np.log1p(cat.exposure, out=logs)
np.add(cat.exposure, b, logs)
np.negative(cat.exposure)
total = cat.exposure.sum()
"""
    assert sorted(line for _, line in _exposure_writes(ast.parse(writes))) == list(range(2, 9))
    assert list(_exposure_writes(ast.parse(reads))) == []


def test_only_the_catalog_writes_exposure():
    """ItemCatalog.serve keeps the catalog's exposure statistics in step
    with exposure, so no code in src/ outside ItemCatalog may write to
    .exposure or to its elements, by assignment or through a NumPy call."""
    pkg = pathlib.Path(dsrm_hrl.__file__).parent
    inside, outside = 0, []
    for path in pkg.glob("*.py"):
        for in_catalog, line in _exposure_writes(ast.parse(path.read_text())):
            inside += in_catalog
            if not in_catalog:
                outside.append(f"{path.name}:{line}")
    assert inside >= 1  # serve's own write is seen
    assert outside == []


def _foreign_private_reads(tree):
    """Lines of the reads x._name in tree (dunder names aside) where x is
    not self or cls and no class around the read defines _name: as a
    method, as a class attribute, or by assigning y._name in its body."""
    owners = {}
    for cls in (c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)):
        defined = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
        defined |= {t.id for n in cls.body if isinstance(n, (ast.Assign, ast.AnnAssign))
                    for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
                    if isinstance(t, ast.Name)}
        defined |= {n.attr for n in ast.walk(cls)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)}
        for node in ast.walk(cls):
            owners.setdefault(id(node), set()).update(defined)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr.startswith("_") and not node.attr.endswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
                and node.attr not in owners.get(id(node), ())):
            yield node.lineno


def test_foreign_private_read_finder():
    """The finder sees a private member read off another object, also
    through self.x, and not one read off self or cls, a dunder, or a read
    inside the class that defines the member."""
    source = """
policy._clamped_log_std()
lps = self.policy._log_density(means, us)
class Flat:
    _cache = None
    def over(cls, other):
        flat._views = {}
        return flat._views, other._cache, other._own(), cls._x, self._y, flat.__class__
    def _own(self):
        pass
class Other:
    def f(self, flat):
        return flat._views
"""
    assert sorted(_foreign_private_reads(ast.parse(source))) == [2, 3, 13]


def test_private_members_are_read_only_by_their_own_class():
    """No code in src/ reads a _-prefixed member of another object, except
    inside the class that defines it: each class owns its private state."""
    pkg = pathlib.Path(dsrm_hrl.__file__).parent
    foreign = [f"{path.name}:{line}" for path in sorted(pkg.glob("*.py"))
               for line in _foreign_private_reads(ast.parse(path.read_text()))]
    assert foreign == []


# Defaulted parameters that no call in src/ sets, or that every
# call fills with the same literal, kept on purpose.
KEPT_DEFAULTS = {
    "cli.main:argv",             # tests and perfbench drive the CLI in-process
    "nn.gradient_check:h",       # criterion 1 passes a larger step
    "pipeline.state_dumps:n_states",  # tests shrink the dump
    "pipeline.popularity_reward_regression:n_steps",  # tests shrink the rollout
}

_UNKNOWN = object()  # a value only a run knows


def _literal(node, otherwise=_UNKNOWN):
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return otherwise
    return type(value), repr(value)


def test_every_defaulted_parameter_is_set():
    """Each parameter with a default, of a package function, method or
    constructor, is filled with more than one value by the calls in src/
    to a callable of that name: the argument passed by position or keyword,
    else the default. One that every call fills with
    the same literal, or with its default, or that no call reaches, is an
    option no run can set, unless it is listed above."""
    pkg = pathlib.Path(dsrm_hrl.__file__).parent
    calls, defaulted = [], {}
    for path in pkg.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                opaque = (any(isinstance(a, ast.Starred) for a in node.args)
                          or any(k.arg is None for k in node.keywords))
                calls.append((name, opaque, node.args,
                              {k.arg: k.value for k in node.keywords}))
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in members:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if isinstance(node, ast.ClassDef):
                    if fn.name.startswith("__") and fn.name != "__init__":
                        continue
                    called_as = node.name if fn.name == "__init__" else fn.name
                    skip = 0 if any(getattr(d, "id", "") == "staticmethod"
                                    for d in fn.decorator_list) else 1
                    qual = f"{path.stem}.{node.name}.{fn.name}"
                else:
                    called_as, skip, qual = fn.name, 0, f"{path.stem}.{fn.name}"
                positional = [*fn.args.posonlyargs, *fn.args.args]
                first = len(positional) - len(fn.args.defaults)
                for i, (arg, default) in enumerate(zip(positional[first:], fn.args.defaults),
                                                   start=first - skip):
                    defaulted[f"{qual}:{arg.arg}"] = (called_as, i, arg.arg, default)
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        defaulted[f"{qual}:{arg.arg}"] = (called_as, math.inf, arg.arg,
                                                          default)

    def filled(call, index, param, default):
        _, opaque, args, kws = call
        if opaque:
            return _UNKNOWN
        if index < len(args):
            return _literal(args[index])
        if param in kws:
            return _literal(kws[param])
        return _literal(default, otherwise=ast.dump(default))

    assert KEPT_DEFAULTS <= defaulted.keys()
    single = []
    for key, (called_as, index, param, default) in sorted(defaulted.items()):
        values = {filled(call, index, param, default)
                  for call in calls if call[0] == called_as}
        if key not in KEPT_DEFAULTS and _UNKNOWN not in values and len(values) <= 1:
            single.append(key)
    assert single == []


# The four section validators as they were before the per-field ranges, kept
# here as the reference the shared validator is checked against.
def _old_env(c):
    if c.d < 2:
        raise ConfigError(f"env.d must be >= 2, got {c.d}")
    if c.n_items < 10:
        raise ConfigError(f"env.n_items must be >= 10, got {c.n_items}")
    if not 1 <= c.slate_k <= c.n_items:
        raise ConfigError(f"env.slate_k must be in [1, n_items], got {c.slate_k}")
    if c.max_len < 1:
        raise ConfigError(f"env.max_len must be >= 1, got {c.max_len}")
    if c.history_window < 1:
        raise ConfigError(f"env.history_window must be >= 1, got {c.history_window}")
    if c.noise_scale < 0:
        raise ConfigError(f"env.noise_scale must be >= 0, got {c.noise_scale}")
    if c.bias_strength < 0:
        raise ConfigError(f"env.bias_strength must be >= 0, got {c.bias_strength}")
    if c.obs_noise < 0:
        raise ConfigError(f"env.obs_noise must be >= 0, got {c.obs_noise}")
    if c.zipf_s <= 0:
        raise ConfigError(f"env.zipf_s must be > 0, got {c.zipf_s}")
    if c.init_exposure < 0:
        raise ConfigError(f"env.init_exposure must be >= 0, got {c.init_exposure}")
    if c.window_a < 1:
        raise ConfigError(f"env.window_a must be >= 1, got {c.window_a}")
    if not 0 <= c.threshold_a <= 1:
        raise ConfigError(f"env.threshold_a must be in [0,1], got {c.threshold_a}")
    if not 0 <= c.decay_a <= 1:
        raise ConfigError(f"env.decay_a must be in [0,1], got {c.decay_a}")
    if not 0 <= c.abandon_prob <= 1:
        raise ConfigError(f"env.abandon_prob must be in [0,1], got {c.abandon_prob}")


def _old_dsrm(c):
    if c.k_steps < 0:
        raise ConfigError(f"dsrm.k_steps must be >= 0, got {c.k_steps}")
    if c.k_steps > 0 and not 0 < c.beta_min <= c.beta_max < 1:
        raise ConfigError(
            f"dsrm requires 0 < beta_min <= beta_max < 1, got [{c.beta_min}, {c.beta_max}]"
        )
    if any(h < 1 for h in c.hidden):
        raise ConfigError(f"dsrm.hidden sizes must be positive, got {c.hidden}")
    if c.time_dim < 2 or c.time_dim % 2 != 0:
        raise ConfigError(f"dsrm.time_dim must be a positive even integer, got {c.time_dim}")
    if c.lr < 0:
        raise ConfigError(f"dsrm.lr must be >= 0, got {c.lr}")
    if c.epochs < 0:
        raise ConfigError(f"dsrm.epochs must be >= 0, got {c.epochs}")
    if c.batch < 1:
        raise ConfigError(f"dsrm.batch must be >= 1, got {c.batch}")
    if c.n_pairs < 1:
        raise ConfigError(f"dsrm.n_pairs must be >= 1, got {c.n_pairs}")
    if c.min_pairs < 1:
        raise ConfigError(f"dsrm.min_pairs must be >= 1, got {c.min_pairs}")


def _old_hrl(c):
    if not 0 <= c.gamma <= 1:
        raise ConfigError(f"hrl.gamma must be in [0,1], got {c.gamma}")
    if not 0 <= c.lam_gae <= 1:
        raise ConfigError(f"hrl.lam_gae must be in [0,1], got {c.lam_gae}")
    if not 0 < c.clip_eps < 1:
        raise ConfigError(f"hrl.clip_eps must be in (0,1), got {c.clip_eps}")
    if c.lambda_fair < 0:
        raise ConfigError(f"hrl.lambda_fair must be >= 0, got {c.lambda_fair}")
    if c.lr_policy < 0 or c.lr_value < 0:
        raise ConfigError("hrl learning rates must be >= 0")
    if c.entropy_coef < 0:
        raise ConfigError(f"hrl.entropy_coef must be >= 0, got {c.entropy_coef}")
    if c.ppo_epochs < 1:
        raise ConfigError(f"hrl.ppo_epochs must be >= 1, got {c.ppo_epochs}")
    if c.batch_steps < 1:
        raise ConfigError(f"hrl.batch_steps must be >= 1, got {c.batch_steps}")
    if c.manager_interval < 1:
        raise ConfigError(f"hrl.manager_interval must be >= 1, got {c.manager_interval}")
    if c.total_steps < 0:
        raise ConfigError(f"hrl.total_steps must be >= 0, got {c.total_steps}")
    if c.variant not in VARIANTS:
        raise ConfigError(f"hrl.variant must be one of {VARIANTS}, got {c.variant!r}")
    if c.flat_omega_acc < 0 or c.flat_omega_fair < 0:
        raise ConfigError("hrl.flat_omega_* must be >= 0")


def _old_eval(c):
    if c.episodes < 1:
        raise ConfigError(f"eval.episodes must be >= 1, got {c.episodes}")


_OLD_VALIDATORS = {"env": _old_env, "dsrm": _old_dsrm, "hrl": _old_hrl, "eval": _old_eval}

# Each bound the old validators drew (0, 1, 2, 10), the value just past it on
# either side, and values well inside and outside.
_INT_PROBES = (-1, 0, 1, 2, 3, 9, 10, 11, 200)
_FLOAT_PROBES = (-1.0, float(np.nextafter(0.0, -1.0)), 0.0, float(np.nextafter(0.0, 1.0)),
                 0.5, float(np.nextafter(1.0, 0.0)), 1.0, float(np.nextafter(1.0, 2.0)),
                 2.0, math.nan, math.inf, -math.inf)
_TUPLE_PROBES = ((), (1,), (0,), (-1, 8), (64, 0), (64, 64))


def _probes():
    """(section, key, section config) for every field at each probe value
    and at its default, then the cross-field cases."""
    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            if isinstance(f.default, str):
                values = ("BOGUS", "dsrm-hrl", *VARIANTS)
            elif isinstance(f.default, tuple):
                values = _TUPLE_PROBES
            elif isinstance(f.default, float):
                values = _FLOAT_PROBES
            else:
                values = _INT_PROBES
            for value in (*values, f.default):
                yield section, f.name, cls(**{f.name: value})
    for slate_k in (9, 10, 11):
        yield "env", "slate_k", EnvConfig(n_items=10, slate_k=slate_k)
    for key in ("beta_min", "beta_max"):
        for value in _FLOAT_PROBES:
            yield "dsrm", key, DsrmConfig(k_steps=1, **{key: value})
    for low, high in ((0.5, 0.1), (0.1, 0.1), (0.1, 0.5)):
        yield "dsrm", "beta_min", DsrmConfig(k_steps=1, beta_min=low, beta_max=high)


def _deliberately_rejected(section, key, cfg):
    """Values the old validators let through and the shared one rejects on
    purpose: non-finite floats (a NaN lr trained NaN weights), a negative
    env.seed (it failed inside NumPy), a non-positive hrl.hidden size (it
    failed when the networks were built) and dsrm.k_steps = 0 (no denoiser:
    a run without purification is HRL-RAW)."""
    value = getattr(cfg, key)
    return ((isinstance(value, float) and not math.isfinite(value))
            or ((section, key) == ("env", "seed") and value < 0)
            or ((section, key) == ("dsrm", "k_steps") and value == 0)
            or ((section, key) == ("hrl", "hidden") and any(h < 1 for h in value)))


def test_validator_matches_old_validators():
    checked = 0
    for section, key, cfg in _probes():
        try:
            _OLD_VALIDATORS[section](cfg)
            old_ok = True
        except ConfigError:
            old_ok = False
        try:
            cfg.validate()
            new_ok = True
        except ConfigError as exc:
            new_ok = False
            assert str(exc).startswith(f"{section}.") and key in str(exc), (key, exc)
        if _deliberately_rejected(section, key, cfg):
            assert not new_ok, (section, key, getattr(cfg, key))
        else:
            assert new_ok == old_ok, (section, key, getattr(cfg, key))
            checked += 1
    assert checked > 400
