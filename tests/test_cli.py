"""CLI subcommands (train-dsrm, train, eval, sweep-steps, motivate,
ablation), exit codes, and output determinism."""

import copy
import csv
import os
import pathlib

import pytest

from dsrm_hrl import agent as agent_mod
from dsrm_hrl import pipeline
from dsrm_hrl.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, build_parser, main
from dsrm_hrl.config import VARIANTS, ConfigError, load_config
from dsrm_hrl.persistence import load_checkpoint, save_checkpoint, write_csv, write_results
from dsrm_hrl.pipeline import (run_eval, run_sweep_steps, run_train_dsrm,
                               run_train_policy)

from artifact_manifest import build
from conftest import FAST_CFG, OVERFLOWING_SHAPES, checkpoint_declaring, non_utf8_copy


RECORDED_FAST_MANIFEST = pathlib.Path(__file__).with_name("artifact_manifest_fast.txt")


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG)
    return str(path)


def test_train_dsrm_exit_ok_and_outputs(cfg_file, tmp_path):
    out = tmp_path / "run"
    rc = main(["train-dsrm", "--config", cfg_file, "--seed", "3",
               "--out", str(out)])
    assert rc == EXIT_OK
    assert (out / "dsrm.ckpt").exists()
    assert (out / "dsrm_loss.csv").exists()


def test_full_pipeline_and_determinism(cfg_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train-dsrm", "--config", cfg_file, "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        assert main(["train", "--config", cfg_file, "--seed", "3",
                     "--out", str(out), "--variant", "FLAT",
                     "--dsrm-ckpt", str(out / "dsrm.ckpt")]) == EXIT_OK
        assert main(["eval", "--config", cfg_file, "--seed", "3",
                     "--out", str(out),
                     "--ckpt", str(out / "policy_flat_s3.ckpt")]) == EXIT_OK
        outs.append(out)
    a, b = outs
    for fname in ("dsrm.ckpt", "dsrm_loss.csv", "policy_flat_s3.ckpt",
                  "train_flat_s3.csv", "results.csv"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()


def test_artifact_set_is_byte_identical_across_builds(cfg_file, tmp_path):
    """Every subcommand's artifacts, 37 files from six commands, keep their
    names and bytes across two builds, and across versions of the program:
    the first build equals the manifest recorded in artifact_manifest_fast.txt,
    which only a deliberate change of values edits."""
    manifest = build(cfg_file, 7, tmp_path / "a")
    recorded = {}
    for line in RECORDED_FAST_MANIFEST.read_text(encoding="utf-8").splitlines():
        digest, path = line.split("  ", 1)
        recorded[path] = digest
    differ = sorted(p for p in manifest.keys() | recorded.keys()
                    if manifest.get(p) != recorded.get(p))
    assert not differ, f"artifacts differ from the recorded FAST manifest: {differ}"
    assert len(manifest) == 37
    assert build(cfg_file, 7, tmp_path / "b") == manifest


def test_epochs_zero_allowed(cfg_file, tmp_path):
    out = tmp_path / "run"
    rc = main(["train-dsrm", "--config", cfg_file, "--out", str(out),
               "--epochs", "0"])
    assert rc == EXIT_OK


def test_negative_epochs_validation_error(cfg_file, tmp_path):
    rc = main(["train-dsrm", "--config", cfg_file, "--out", str(tmp_path),
               "--epochs", "-2"])
    assert rc == EXIT_VALIDATION


def test_bad_config_validation_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[env]\nbogus = 1\n")
    rc = main(["train-dsrm", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION


def test_missing_config_validation_error(tmp_path, capsys):
    """A config path that is missing, or that names a directory, is a bad
    argument (exit 1), and the error names the path."""
    for path in ("/nonexistent.cfg", str(tmp_path)):
        rc = main(["train-dsrm", "--config", path, "--out", str(tmp_path / "run")])
        assert rc == EXIT_VALIDATION
        assert path in capsys.readouterr().err


def test_missing_checkpoint_validation_error(cfg_file, tmp_path):
    rc = main(["eval", "--config", cfg_file, "--out", str(tmp_path),
               "--ckpt", str(tmp_path / "nope.ckpt")])
    assert rc == EXIT_VALIDATION


def test_corrupt_checkpoint_runtime_error(cfg_file, tmp_path):
    bad = tmp_path / "corrupt.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    rc = main(["eval", "--config", cfg_file, "--out", str(tmp_path),
               "--ckpt", str(bad)])
    assert rc == EXIT_RUNTIME


def test_overflowing_shape_checkpoint_runtime_error(tmp_path, capsys):
    """A tensor shape whose element count overflows int64 is a corrupt
    checkpoint (exit 2), not a bad argument (exit 1)."""
    bad = tmp_path / "overflow.ckpt"
    bad.write_bytes(checkpoint_declaring(OVERFLOWING_SHAPES[0]))
    assert main(["eval", "--out", str(tmp_path), "--ckpt", str(bad)]) == EXIT_RUNTIME
    assert "runtime fault: truncated checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["config snapshot", "tensor name"])
def test_non_utf8_checkpoint_runtime_error(cfg_file, tmp_path, capsys, field):
    """A corrupt checkpoint exits 2 however it is corrupt, including text
    that does not decode."""
    out = tmp_path / "run"
    assert main(["train-dsrm", "--config", cfg_file, "--seed", "3",
                 "--out", str(out)]) == EXIT_OK
    assert main(["train", "--config", cfg_file, "--seed", "3", "--out", str(out),
                 "--variant", "HRL-RAW"]) == EXIT_OK
    dsrm_ckpt, policy_ckpt = out / "dsrm.ckpt", out / "policy_hrl_raw_s3.ckpt"
    for ckpt in (dsrm_ckpt, policy_ckpt):
        ckpt.write_bytes(non_utf8_copy(ckpt, field))
    capsys.readouterr()
    assert main(["train", "--config", cfg_file, "--seed", "3", "--out", str(out),
                 "--variant", "FLAT", "--dsrm-ckpt", str(dsrm_ckpt)]) == EXIT_RUNTIME
    assert main(["eval", "--out", str(out), "--ckpt", str(policy_ckpt)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.count("runtime fault: ") == 2 and err.count(f"{field} is not UTF-8") == 2


@pytest.mark.parametrize("changes,name", [
    ({"policy.net.b0": [0.0, 0.0, 0.0]}, "policy.net.b0"),
    ({"policy.log_std": None}, "policy.log_std"),
    ({"policy.net.W9": [[0.0]], "valu.W0": [[0.0]]}, "policy.net.W9"),
], ids=["wrong shape", "missing", "extra"])
def test_checkpoint_with_other_tensors_runtime_error(cfg_file, tmp_path, capsys,
                                                     changes, name):
    """A policy checkpoint whose tensors are not the agent's own is corrupt:
    eval exits 2 and names the file and the tensor."""
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_file, "--seed", "3", "--out", str(out),
                 "--variant", "HRL-RAW"]) == EXIT_OK
    ckpt = str(out / "policy_hrl_raw_s3.ckpt")
    tensors, text = load_checkpoint(ckpt)
    for key, value in changes.items():
        if value is None:
            del tensors[key]
        else:
            tensors[key] = value
    save_checkpoint(ckpt, tensors, text)
    capsys.readouterr()
    assert main(["eval", "--out", str(out), "--ckpt", ckpt]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"runtime fault: {ckpt}: " in err and name in err


def test_k0_config_and_snapshot_validation_error(cfg_file, tmp_path, capsys):
    """dsrm.k_steps = 0 is rejected in a config file and in a checkpoint's
    config snapshot; a run without purification is HRL-RAW."""
    k0 = tmp_path / "k0.cfg"
    k0.write_text(FAST_CFG.replace("k_steps = 4", "k_steps = 0"))
    out = tmp_path / "run"
    assert main(["train-dsrm", "--config", str(k0), "--out", str(out)]) == EXIT_VALIDATION
    assert not (out / "dsrm.ckpt").exists()
    assert main(["train", "--config", cfg_file, "--seed", "3", "--out", str(out),
                 "--variant", "HRL-RAW"]) == EXIT_OK
    ckpt = out / "policy_hrl_raw_s3.ckpt"
    tensors, cfg_text = load_checkpoint(ckpt)
    assert "k_steps = 4" in cfg_text
    save_checkpoint(ckpt, tensors, cfg_text.replace("k_steps = 4", "k_steps = 0"))
    capsys.readouterr()
    assert main(["eval", "--out", str(out), "--ckpt", str(ckpt)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.count("error: dsrm.k_steps must be >= 1, got 0") == 1


def test_train_without_denoiser_validation_error(cfg_file, tmp_path):
    rc = main(["train", "--config", cfg_file, "--out", str(tmp_path),
               "--variant", "DSRM-HRL"])
    assert rc == EXIT_VALIDATION


def test_sweep_steps_flag_validation(cfg_file, tmp_path):
    rc = main(["sweep-steps", "--config", cfg_file, "--out", str(tmp_path),
               "--steps", "0,-3"])
    assert rc == EXIT_VALIDATION


def test_sweep_validates_every_k_before_training(cfg_file, tmp_path):
    out = tmp_path / "sweep"
    out.mkdir()
    with pytest.raises(ConfigError, match="dsrm.k_steps"):
        run_sweep_steps(load_config(cfg_file), [2, 0], str(out))
    assert list(out.iterdir()) == []


def test_sweep_rejects_a_repeated_k_before_training(cfg_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep-steps", "--config", cfg_file, "--out", str(out), "--steps", "2,4,2"])
    assert rc == EXIT_VALIDATION
    assert "dsrm.k_steps: value 2 is repeated" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("steps", ["200,5,20", "4,2"])
def test_sweep_refuses_ks_that_do_not_increase(cfg_file, tmp_path, capsys, steps):
    """The summary compares the middle K with both ends, so a sweep whose
    Ks do not increase fails before anything is written."""
    out = tmp_path / "sweep"
    rc = main(["sweep-steps", "--config", cfg_file, "--out", str(out), "--steps", steps])
    assert rc == EXIT_VALIDATION
    assert "dsrm.k_steps: sweep values must increase" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def reference_sweep(cfg, steps, out_dir, log_dir):
    """The sweep's own loop before it shared the ablation's: each K's
    denoiser and policy, the policy named policy_k<K>.ckpt, with its loss
    curve, training curve and results.csv in log_dir instead."""
    reports = []
    for k in steps:
        kcfg = copy.deepcopy(cfg)
        kcfg.dsrm.k_steps = k
        dsrm_ckpt = os.path.join(out_dir, f"dsrm_k{k}.ckpt")
        pol_ckpt = os.path.join(out_dir, f"policy_k{k}.ckpt")
        run_train_dsrm(kcfg, dsrm_ckpt, os.path.join(log_dir, f"dsrm_loss_k{k}.csv"))
        run_train_policy(kcfg, dsrm_ckpt, pol_ckpt, os.path.join(log_dir, f"train_k{k}.csv"))
        reports.append((k, run_eval(pol_ckpt, os.path.join(log_dir, "results.csv"))))
    write_csv(f"{out_dir}/sweep_steps.csv",
              ["k_steps", "len_mean", "r_each_mean", "r_cum_mean", "ad_mean"],
              [[k, r.len_mean, r.r_each_mean, r.r_cum_mean, r.ad_mean] for k, r in reports])
    return reports


@pytest.mark.parametrize("variant", VARIANTS)
def test_sweep_matches_the_reference_loop(cfg_file, tmp_path, variant):
    """The sweep writes the reference loop's files byte for byte, its
    policies renamed policy_<variant>_k<K>.ckpt, and adds each K's loss and
    training curves and one results.csv row per K; nothing else."""
    cfg = load_config(cfg_file)
    cfg.hrl.variant = variant
    ref, out, logs = tmp_path / "ref", tmp_path / "sweep", tmp_path / "logs"
    for d in (ref, out, logs):
        d.mkdir()
    expected = reference_sweep(cfg, [2, 4, 8], str(ref), str(logs))
    reports, _ = run_sweep_steps(cfg, [2, 4, 8], str(out))
    assert [(k, vars(r)) for k, r in reports] == [(k, vars(r)) for k, r in expected]
    tag = variant.lower().replace("-", "_")
    renamed = {f"policy_k{k}.ckpt": f"policy_{tag}_k{k}.ckpt" for k in (2, 4, 8)}
    old_names = sorted(p.name for p in ref.iterdir())
    assert len(old_names) == 7
    added = ["results.csv", *(f"dsrm_loss_k{k}.csv" for k in (2, 4, 8)),
             *(f"train_{tag}_k{k}.csv" for k in (2, 4, 8))]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [renamed.get(n, n) for n in old_names] + added)
    for name in old_names:
        assert (out / renamed.get(name, name)).read_bytes() == (ref / name).read_bytes(), name
    write_results(str(ref / "results.csv"), [r for _, r in expected])
    assert (out / "results.csv").read_bytes() == (ref / "results.csv").read_bytes()


def test_motivate_runs_without_denoiser(cfg_file, tmp_path):
    out = tmp_path / "mot"
    rc = main(["motivate", "--config", cfg_file, "--seed", "1",
               "--out", str(out)])
    assert rc == EXIT_OK
    assert (out / "popularity_reward.csv").exists()
    assert not (out / "purification_gain.csv").exists()  # parts b/c skipped


def test_motivate_with_denoiser(cfg_file, tmp_path):
    out = tmp_path / "mot"
    assert main(["train-dsrm", "--config", cfg_file, "--seed", "1",
                 "--out", str(out)]) == EXIT_OK
    rc = main(["motivate", "--config", cfg_file, "--seed", "1",
               "--out", str(out), "--dsrm-ckpt", str(out / "dsrm.ckpt")])
    assert rc == EXIT_OK
    assert (out / "purification_gain.csv").exists()
    assert (out / "states_raw.tsv").exists()
    assert (out / "states_purified.tsv").exists()


def test_motivate_reads_its_denoiser_once(cfg_file, tmp_path, monkeypatch):
    """Parts (b) and (c) share one load of the --dsrm-ckpt checkpoint."""
    out = tmp_path / "mot"
    assert main(["train-dsrm", "--config", cfg_file, "--seed", "1",
                 "--out", str(out)]) == EXIT_OK
    loads = []

    def counted(path):
        loads.append(path)
        return load_checkpoint(path)

    monkeypatch.setattr(pipeline, "load_checkpoint", counted)
    rc = main(["motivate", "--config", cfg_file, "--seed", "1",
               "--out", str(out), "--dsrm-ckpt", str(out / "dsrm.ckpt")])
    assert rc == EXIT_OK
    assert loads == [str(out / "dsrm.ckpt")]


def test_denoiser_from_checkpoint_without_one_runtime_error(cfg_file, tmp_path,
                                                            capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_file, "--seed", "3", "--out", str(out),
                 "--variant", "HRL-RAW"]) == EXIT_OK
    raw_ckpt = str(out / "policy_hrl_raw_s3.ckpt")
    capsys.readouterr()
    rc = main(["train", "--config", cfg_file, "--seed", "3", "--out", str(out),
               "--variant", "FLAT", "--dsrm-ckpt", raw_ckpt])
    assert rc == EXIT_RUNTIME
    assert f"runtime fault: {raw_ckpt}: no denoiser tensors" in capsys.readouterr().err


def test_policy_snapshot_records_the_denoiser_that_trained_it(cfg_file, tmp_path, capsys):
    """Stage II under a config whose [dsrm] differs from the denoiser's runs
    the denoiser's chain and records the denoiser's [dsrm], so its policy
    checkpoint equals the one trained under the denoiser's own config."""
    k2 = tmp_path / "k2.cfg"
    k2.write_text(FAST_CFG.replace("k_steps = 4", "k_steps = 2"))
    out, ref = tmp_path / "run", tmp_path / "ref"
    assert main(["train-dsrm", "--config", cfg_file, "--seed", "3",
                 "--out", str(out)]) == EXIT_OK
    dsrm_ckpt = str(out / "dsrm.ckpt")
    for config, dest in ((cfg_file, ref), (str(k2), out)):
        capsys.readouterr()
        assert main(["train", "--config", config, "--seed", "3", "--out", str(dest),
                     "--variant", "FLAT", "--dsrm-ckpt", dsrm_ckpt]) == EXIT_OK
    assert f"policy snapshot: [dsrm] k_steps from {dsrm_ckpt}" in capsys.readouterr().err
    policy = out / "policy_flat_s3.ckpt"
    assert "k_steps = 4" in load_checkpoint(policy)[1]
    assert policy.read_bytes() == (ref / "policy_flat_s3.ckpt").read_bytes()
    assert main(["eval", "--out", str(out), "--ckpt", str(policy)]) == EXIT_OK
    assert "k_steps = 4" in capsys.readouterr().err


def test_denoiser_of_another_d_validation_error(cfg_file, tmp_path, capsys):
    d6 = tmp_path / "d6.cfg"
    d6.write_text(FAST_CFG.replace("d = 8", "d = 6"))
    out = tmp_path / "run"
    assert main(["train-dsrm", "--config", cfg_file, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["train", "--config", str(d6), "--out", str(out), "--variant", "FLAT",
                 "--dsrm-ckpt", str(out / "dsrm.ckpt")]) == EXIT_VALIDATION
    assert "denoiser env.d 8, config's 6" in capsys.readouterr().err
    assert not (out / "policy_flat_s0.ckpt").exists()


def test_motivate_refuses_a_denoiser_of_another_d(cfg_file, tmp_path, capsys):
    """The denoiser check runs before part (a), so nothing is written."""
    d6 = tmp_path / "d6.cfg"
    d6.write_text(FAST_CFG.replace("d = 8", "d = 6"))
    run, out = tmp_path / "run", tmp_path / "mot"
    assert main(["train-dsrm", "--config", cfg_file, "--out", str(run)]) == EXIT_OK
    capsys.readouterr()
    assert main(["motivate", "--config", str(d6), "--out", str(out),
                 "--dsrm-ckpt", str(run / "dsrm.ckpt")]) == EXIT_VALIDATION
    assert "denoiser env.d 8, config's 6" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_training_stops_before_the_eval_sessions(cfg_file, tmp_path, monkeypatch, capsys):
    """Training session n and eval session n - EVAL_SEED_OFFSET share a seed,
    so a run that would reach session EVAL_SEED_OFFSET fails and writes no
    checkpoint."""
    monkeypatch.setattr(agent_mod, "EVAL_SEED_OFFSET", 4)  # FAST_CFG runs >= 20 sessions
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--config", cfg_file, "--out", str(out),
                 "--variant", "HRL-RAW"]) == EXIT_VALIDATION
    assert "training session 4 would reuse eval session 0's seed" in capsys.readouterr().err
    assert not (out / "policy_hrl_raw_s0.ckpt").exists()


def test_hrl_raw_never_purifies(cfg_file, tmp_path, monkeypatch):
    """HRL-RAW's train and eval call no denoiser, even when given one."""
    out = tmp_path / "run"
    assert main(["train-dsrm", "--config", cfg_file, "--out", str(out)]) == EXIT_OK

    def fail(*args, **kwargs):
        raise AssertionError("HRL-RAW reached the denoiser")

    monkeypatch.setattr(agent_mod, "purify", fail)
    monkeypatch.setattr(agent_mod, "ReverseChain", fail)
    assert main(["train", "--config", cfg_file, "--out", str(out), "--variant", "HRL-RAW",
                 "--dsrm-ckpt", str(out / "dsrm.ckpt")]) == EXIT_OK
    assert main(["eval", "--out", str(out),
                 "--ckpt", str(out / "policy_hrl_raw_s0.ckpt")]) == EXIT_OK


def test_retired_key_with_unused_value_validation_error(tmp_path):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(FAST_CFG + "greedy = false\n")  # inside [eval]
    rc = main(["train-dsrm", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION


def test_non_finite_config_value_validation_error(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(FAST_CFG.replace("[dsrm]\n", "[dsrm]\nlr = nan\n"))
    out = tmp_path / "run"
    rc = main(["train-dsrm", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert "error: dsrm.lr must be finite, got nan" in capsys.readouterr().err
    assert not (out / "dsrm.ckpt").exists()


@pytest.mark.parametrize("episodes", ["0", "-3"])
def test_eval_episodes_validated_like_the_config_key(cfg_file, tmp_path, capsys,
                                                     episodes):
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_file, "--seed", "3", "--out", str(out),
                 "--variant", "HRL-RAW"]) == EXIT_OK
    capsys.readouterr()
    rc = main(["eval", "--config", cfg_file, "--out", str(out), "--episodes", episodes,
               "--ckpt", str(out / "policy_hrl_raw_s3.ckpt")])
    assert rc == EXIT_VALIDATION
    assert f"error: eval.episodes must be >= 1, got {episodes}" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_resolved_config_log_shows_flag_overrides(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train-dsrm", "--config", cfg_file, "--seed", "4", "--out", str(out),
                 "--epochs", "1"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "  seed = 4" in err and "  epochs = 1" in err
    assert main(["train", "--config", cfg_file, "--seed", "4", "--out", str(out),
                 "--variant", "FLAT", "--dsrm-ckpt", str(out / "dsrm.ckpt")]) == EXIT_OK
    assert "  variant = FLAT" in capsys.readouterr().err


def test_eval_runs_and_logs_the_checkpoint_config(cfg_file, tmp_path, capsys):
    """eval takes its config from the checkpoint snapshot, with --episodes
    applied; --config and --seed are accepted and not read."""
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_file, "--seed", "7", "--out", str(out),
                 "--variant", "HRL-RAW"]) == EXIT_OK
    ckpt = str(out / "policy_hrl_raw_s7.ckpt")
    capsys.readouterr()
    assert main(["eval", "--config", cfg_file, "--seed", "9", "--out", str(out),
                 "--episodes", "2", "--ckpt", ckpt]) == EXIT_OK
    err = capsys.readouterr().err
    assert "  seed = 7" in err and "  episodes = 2" in err
    assert "  seed = 9" not in err
    assert main(["eval", "--config", str(tmp_path / "missing.cfg"), "--out", str(out),
                 "--ckpt", ckpt]) == EXIT_OK


def ablation(cfg_file, out, *flags):
    return main(["ablation", "--config", cfg_file, "--out", str(out), *flags])


def test_ablation_validates_every_seed_before_training(cfg_file, tmp_path, capsys):
    out = tmp_path / "abl"
    assert ablation(cfg_file, out, "--seeds", "3,-1") == EXIT_VALIDATION
    assert "env.seed" in capsys.readouterr().err
    assert not (out / "dsrm_s3.ckpt").exists()


def test_ablation_rejects_a_repeated_seed_before_training(cfg_file, tmp_path, capsys):
    """A repeated seed would train again over its own files and count its
    rows twice in results.csv."""
    out = tmp_path / "abl"
    assert ablation(cfg_file, out, "--seeds", "3,3") == EXIT_VALIDATION
    assert "env.seed: value 3 is repeated" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_ablation_exits_like_the_cli(cfg_file, tmp_path, capsys):
    """Invalid input ends in `error: ...` and exit 1, as for every
    subcommand: a bad seed, an empty or unparsable --seeds, a missing
    config file."""
    out = tmp_path / "abl"
    for seeds in ("3,-1", "", " , ", "3,x"):
        assert ablation(cfg_file, out, "--seeds", seeds) == EXIT_VALIDATION
        assert "error: " in capsys.readouterr().err
    assert ablation(str(tmp_path / "missing.cfg"), out) == EXIT_VALIDATION
    assert "error: " in capsys.readouterr().err
    assert not list(out.glob("*.ckpt"))


def test_ablation_takes_no_seed_or_episodes_flag():
    """Seeds come from --seeds and episodes from eval.episodes, so neither
    --seed nor --episodes is parsed."""
    args = build_parser().parse_args(["ablation"])
    assert sorted(vars(args)) == ["command", "config", "out", "seeds"]


def test_ablation_writes_one_row_per_variant(cfg_file, tmp_path):
    """One results.csv row per variant, each on FAST_CFG's eval.episodes."""
    out = tmp_path / "abl"
    assert ablation(cfg_file, out, "--seeds", "3") == EXIT_OK
    rows = list(csv.DictReader((out / "results.csv").read_text().splitlines()))
    assert sorted((r["variant"], r["seed"], r["n_episodes"]) for r in rows) == [
        ("DSRM-HRL", "3", "5"), ("FLAT", "3", "5"), ("HRL-RAW", "3", "5")]


def test_ablation_matches_the_reference_loop(cfg_file, tmp_path):
    """The subcommand writes the files, byte for byte, of the loop it
    replaced, with the episodes taken from the config."""
    out = tmp_path / "ref"
    out.mkdir()
    for seed in (3, 4):
        cfg = load_config(cfg_file)
        cfg.env.seed = seed
        dsrm_ckpt = str(out / f"dsrm_s{seed}.ckpt")
        run_train_dsrm(cfg, dsrm_ckpt, str(out / f"dsrm_loss_s{seed}.csv"))
        for variant in VARIANTS:
            cfg.hrl.variant = variant
            tag = variant.lower().replace("-", "_")
            ckpt = str(out / f"policy_{tag}_s{seed}.ckpt")
            run_train_policy(cfg, dsrm_ckpt, ckpt, str(out / f"train_{tag}_s{seed}.csv"))
            run_eval(ckpt, episodes=cfg.eval.episodes, results_path=str(out / "results.csv"))
    assert ablation(cfg_file, tmp_path / "abl", "--seeds", "3,4") == EXIT_OK
    names = sorted(p.name for p in out.iterdir())
    assert len(names) == 1 + 2 * (2 + 2 * len(VARIANTS))
    assert sorted(p.name for p in (tmp_path / "abl").iterdir()) == names
    for name in names:
        assert (tmp_path / "abl" / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("command,flags", [("sweep-steps", ("--steps", "2,4")),
                                           ("ablation", ("--seeds", "3"))])
def test_a_second_run_replaces_results(cfg_file, tmp_path, command, flags):
    """A second run into the same directory replaces results.csv, as it
    replaces the checkpoints and curves: its rows are its own runs', once."""
    out = tmp_path / "out"
    argv = [command, "--config", cfg_file, "--out", str(out), *flags]
    assert main(argv) == EXIT_OK
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(argv) == EXIT_OK
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
    rows = list(csv.DictReader((out / "results.csv").read_text().splitlines()))
    assert len(rows) == (2 if command == "sweep-steps" else len(VARIANTS))


def test_eval_appends_to_results(cfg_file, tmp_path):
    """eval adds its row to a results.csv already in --out."""
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_file, "--seed", "3", "--out", str(out),
                 "--variant", "HRL-RAW"]) == EXIT_OK
    argv = ["eval", "--out", str(out), "--ckpt", str(out / "policy_hrl_raw_s3.ckpt")]
    assert main(argv) == EXIT_OK
    one = (out / "results.csv").read_text().splitlines()
    assert main(argv) == EXIT_OK
    assert (out / "results.csv").read_text().splitlines() == [*one, one[-1]]


def test_init_exposure_is_bounded_where_counts_stay_exact(tmp_path, capsys):
    """env.init_exposure = 2**52 is accepted; one past it exits 1 (at
    10**19 the int64 warm start wrapped to a negative count)."""
    top = 2**52
    for value, rc in ((top, EXIT_OK), (top + 1, EXIT_VALIDATION)):
        cfg = tmp_path / f"{value}.cfg"
        cfg.write_text(FAST_CFG.replace("init_exposure = 100", f"init_exposure = {value}"))
        assert main(["train-dsrm", "--config", str(cfg), "--out", str(tmp_path / "run"),
                     "--epochs", "0"]) == rc
    err = capsys.readouterr().err
    assert f"error: env.init_exposure must be in [0, {top}], got {top + 1}" in err
