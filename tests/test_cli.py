"""CLI subcommands (train-dsrm, train, eval, sweep-steps, motivate,
ablation), exit codes, and output determinism."""

import csv

import pytest

from dsrm_hrl.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, build_parser, main
from dsrm_hrl.config import VARIANTS, ConfigError, load_config
from dsrm_hrl.persistence import load_checkpoint, save_checkpoint
from dsrm_hrl.pipeline import (run_eval, run_sweep_steps, run_train_dsrm,
                               run_train_policy)

from artifact_manifest import build
from conftest import FAST_CFG, OVERFLOWING_SHAPES, checkpoint_declaring, non_utf8_copy


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
    """Every subcommand's artifacts, 30 files from six commands, keep their
    names and bytes across two builds."""
    manifest = build(cfg_file, 7, tmp_path / "a")
    assert len(manifest) == 30
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


def test_missing_config_validation_error(tmp_path):
    rc = main(["train-dsrm", "--config", "/nonexistent.cfg",
               "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION


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
