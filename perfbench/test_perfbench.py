"""Fast self-test of the benchmark harness at a tiny config.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import run
import tracing

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))

# The tiny config of tests/conftest.py (FAST_CFG), with enough eval
# episodes that two pipeline seeds reach the harness's p95 minimum.
TINY = """\
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
episodes = 100
"""


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "WORK", tmp_path)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_and_no_wrapper_is_left(tiny, capsys, trace, key):
    rc = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "1",
                   "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 0
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert tracing.leftover_wrappers() == []


def test_refuses_to_run_without_the_program(tiny, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    rc = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "1", "--trace", "0"])
    assert rc != 0
    assert capsys.readouterr().out == ""
