"""The names the benchmark harness wraps still exist in the package.

perfbench/tracing.py replaces functions at the names their callers look up,
and raises KeyError on a name that is gone, which only shows when the
harness runs. Loading it here turns a rename in src/ into a failing test."""

import importlib.util
import pathlib

import numpy as np
import pytest

from dsrm_hrl.agent import Agent
from dsrm_hrl.config import EnvConfig, HrlConfig
from dsrm_hrl.env import RecEnv

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(tracing):
    missing = [f"{target}.{attr}" for target, attr, *_ in tracing.SPANS
               if attr not in vars(tracing.resolve(target))]
    assert missing == []


def test_probe_hooks_resolve_and_are_removed(tracing):
    """Installing the untraced run's Probe fails on a hook that is gone."""
    probe = tracing.Probe()
    probe.install()
    try:
        wrapped = tracing.leftover_wrappers()
    finally:
        probe.uninstall()
    assert sorted(wrapped) == ["dsrm_hrl.agent.Adam", "dsrm_hrl.agent.Agent.run_episode",
                               "dsrm_hrl.agent.ppo_update", "dsrm_hrl.diffusion.Adam"]
    assert tracing.leftover_wrappers() == []


def test_probe_counts_the_env_steps_of_each_episode(tracing):
    """The untraced run's stage-II and eval step counts come from each
    episode's outcome.length: one training and one eval episode must add
    exactly the env steps they took, and length is a Python int that agrees
    with the record's arrays."""
    env = RecEnv(EnvConfig(d=8, n_items=60, slate_k=4, max_len=7, init_exposure=100))
    agent = Agent(HrlConfig(variant="HRL-RAW", hidden=(8,)), 8)
    taken = []
    step = env.step
    env.step = lambda slate: (taken.append(1), step(slate))[1]
    probe = tracing.Probe(time_episodes=False)
    probe.install()
    try:
        for stage, train in (("train", True), ("eval", False)):
            probe.stage = stage
            taken.clear()
            outcome, _ = agent.run_episode(env, 5, np.random.default_rng(0), train=train)
            assert probe.steps[stage] == len(taken) > 0
            assert type(outcome.length) is int
            assert outcome.length == len(outcome.rewards) == outcome.slates.shape[0]
            assert outcome.slates.shape == (outcome.length, env.config.slate_k)
            assert outcome.slates.dtype == np.int64
    finally:
        probe.uninstall()
    assert probe.steps["stage1"] == 0


def test_stage2_and_eval_steps_pass_through_the_env_spans(tracing):
    """One training and one eval episode call each env function the tracer
    wraps at least once per env step, wrapped by module name as the tracer
    wraps it. A refactor that routes stage II or eval around one of them
    would leave its env.* span metrics empty."""
    env = RecEnv(EnvConfig(d=8, n_items=60, slate_k=4, max_len=7, init_exposure=100))
    agent = Agent(HrlConfig(variant="HRL-RAW", hidden=(8,)), 8)
    spans = [(target, attr) for target, attr, name, *_ in tracing.SPANS
             if name.startswith("env.")]
    assert sorted(attr for _, attr in spans) == ["encode_observed",
                                                 "popularity_drift_direction", "step"]
    calls = dict.fromkeys((attr for _, attr in spans), 0)

    def counting(attr):
        def make(original):
            def counted(*args, **kwargs):
                calls[attr] += 1
                return original(*args, **kwargs)
            return counted
        return make

    patches = tracing.Patches()
    try:
        for target, attr in spans:
            patches.replace(target, attr, counting(attr))
        for train in (True, False):
            calls.update(dict.fromkeys(calls, 0))
            outcome, _ = agent.run_episode(env, 5, np.random.default_rng(0), train=train)
            assert outcome.length > 0
            assert min(calls.values()) >= outcome.length, calls
    finally:
        patches.restore()
    assert tracing.leftover_wrappers() == []


def test_training_episode_calls_the_wrapped_gini_once(tracing):
    """perfbench's metrics.gini span wraps dsrm_hrl.agent.gini: a training
    episode calls it exactly once, for all its steps, and an eval episode
    never does."""
    [(target, attr)] = [(target, attr) for target, attr, name, *_ in tracing.SPANS
                        if name == "metrics.gini"]
    assert (target, attr) == ("dsrm_hrl.agent", "gini")
    env = RecEnv(EnvConfig(d=8, n_items=60, slate_k=4, max_len=7, init_exposure=100))
    agent = Agent(HrlConfig(variant="HRL-RAW", hidden=(8,)), 8)
    calls = []

    def counting(original):
        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        return counted

    patches = tracing.Patches()
    try:
        patches.replace(target, attr, counting)
        for train, expected in ((True, 1), (False, 0)):
            calls.clear()
            outcome, _ = agent.run_episode(env, 5, np.random.default_rng(0), train=train)
            assert outcome.length > 1
            assert len(calls) == expected
    finally:
        patches.restore()
    assert tracing.leftover_wrappers() == []
