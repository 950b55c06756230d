"""The names the benchmark harness wraps still exist in the package.

perfbench/tracing.py replaces functions at the names their callers look up,
and raises KeyError on a name that is gone, which only shows when the
harness runs. Loading it here turns a rename in src/ into a failing test."""

import importlib.util
import pathlib

import pytest

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
