"""Checkpoint binary format, CSV and TSV writers."""

import os

import numpy as np
import pytest

from dsrm_hrl.metrics import MetricsReport
from dsrm_hrl.persistence import (CheckpointError, checkpoint_param_hash,
                                  load_checkpoint, save_checkpoint, write_csv,
                                  write_embedding_dump, write_results)

from conftest import OVERFLOWING_SHAPES, checkpoint_declaring, non_utf8_copy


def sample_tensors():
    rng = np.random.default_rng(0)
    return {"policy.W0": rng.standard_normal((3, 4)),
            "policy.b0": rng.standard_normal(3),
            "value.W0": rng.standard_normal((2, 3))}


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = sample_tensors()
    save_checkpoint(path, tensors, "[env]\nseed = 3\n")
    loaded, cfg_text = load_checkpoint(path)
    assert cfg_text == "[env]\nseed = 3\n"
    assert set(loaded) == set(tensors)
    for k in tensors:
        assert loaded[k].dtype == np.float64
        # storage is float32, so round-trip at float32 precision
        assert np.allclose(loaded[k], tensors[k], atol=1e-6)


def test_checkpoint_deterministic_bytes(tmp_path):
    tensors = sample_tensors()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, tensors, "cfg")
    save_checkpoint(p2, dict(reversed(list(tensors.items()))), "cfg")
    assert p1.read_bytes() == p2.read_bytes()  # name order canonicalized


def test_checkpoint_truncation_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, sample_tensors(), "cfg")
    data = path.read_bytes()
    for cut in (3, 10, len(data) // 2, len(data) - 1):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)


@pytest.mark.parametrize("shape", OVERFLOWING_SHAPES, ids=str)
def test_checkpoint_overflowing_shape_is_truncation(tmp_path, shape):
    """A shape whose element count wraps to 0 in int64 is sized exactly, so
    the missing data reads as truncation, not as an empty tensor."""
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(checkpoint_declaring(shape))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(bad)


def test_checkpoint_trailing_garbage_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, sample_tensors(), "cfg")
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, sample_tensors(), "cfg")
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("field", ["config snapshot", "tensor name"])
def test_checkpoint_non_utf8_text_rejected(tmp_path, field):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, sample_tensors(), "[env]\nseed = 3\n")
    path.write_bytes(non_utf8_copy(path, field))
    with pytest.raises(CheckpointError, match=f"{field} is not UTF-8"):
        load_checkpoint(path)


def test_missing_checkpoint_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, sample_tensors(), "cfg")
    assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]


def test_param_hash_sensitivity():
    tensors = sample_tensors()
    h1 = checkpoint_param_hash(tensors)
    assert h1 == checkpoint_param_hash({k: v.copy() for k, v in tensors.items()})
    tensors["policy.W0"][0, 0] += 1.0
    assert checkpoint_param_hash(tensors) != h1


def sample_report(**kw):
    base = dict(variant="X", seed=1, max_len=30, len_mean=12.345678,
                len_std=1.0, r_each_mean=0.5, r_each_std=0.1,
                r_cum_mean=6.0, r_cum_std=0.5, ad_mean=0.25, ad_std=0.01,
                f_pop=0.5, f_tail=0.25, n_episodes=10)
    base.update(kw)
    return MetricsReport(**base)


def test_write_results_appends_with_single_header(tmp_path):
    path = tmp_path / "results.csv"
    write_results(path, [sample_report()])
    write_results(path, [sample_report(seed=2)])
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[0] == "variant" and "len_mean" in header
    assert lines[1].split(",")[1] == "1"
    assert lines[2].split(",")[1] == "2"
    # six significant digits
    assert "12.3457" in lines[1]


def test_write_results_appends_after_a_missing_final_newline(tmp_path):
    """A file whose last line lost its newline (say, edited by hand) gets
    one before the new rows, so no two rows share a line."""
    path = tmp_path / "results.csv"
    write_results(path, [sample_report()])
    one_row = path.read_bytes()
    path.write_bytes(one_row[:-1])
    write_results(path, [sample_report(seed=2)])
    write_results(tmp_path / "whole.csv", [sample_report(), sample_report(seed=2)])
    assert path.read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert path.read_bytes().startswith(one_row)


def test_write_results_failed_replace_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "results.csv"
    write_results(path, [sample_report()])
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_results(path, [sample_report(seed=2)])
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["results.csv"]


def test_write_csv_atomic_overwrite(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b"], [[1, 2.5], [3, 4.0]])
    write_csv(path, ["a", "b"], [[9, 9.0]])
    lines = path.read_text().strip().split("\n")
    assert lines == ["a,b", "9,9"]


def test_embedding_dump_row_width(tmp_path):
    rng = np.random.default_rng(2)
    states = rng.standard_normal((4, 6))
    path = tmp_path / "states.tsv"
    write_embedding_dump(path, states, [0, 3, 5, 9], ["pop", "tail", "pop", "tail"])
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 4
    for row in lines:
        assert len(row.split("\t")) == 6 + 2


def test_checkpoint_with_a_repeated_name_is_corrupt(tmp_path):
    """save_checkpoint never writes one name twice; a file that does is
    refused rather than read as its last tensor of that name."""
    path = tmp_path / "model.ckpt"
    tensors = sample_tensors()
    tensors["policy.W1"] = tensors["policy.W0"] + 1.0  # same length and shape
    save_checkpoint(path, tensors, "cfg")
    data = path.read_bytes()
    assert data.count(b"policy.W1") == 1
    path.write_bytes(data.replace(b"policy.W1", b"policy.W0"))
    with pytest.raises(CheckpointError, match="policy.W0 is repeated"):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [b"variant,seed\n", b"",
                                    b"variant,seed,max_len,len_mean\n"])
def test_write_results_refuses_another_header(tmp_path, header):
    """Rows are appended only under MetricsReport's own header; a file that
    starts with any other line is refused and left as it was."""
    path = tmp_path / "results.csv"
    write_results(path, [sample_report()])
    good = path.read_bytes()
    path.write_bytes(header + good.split(b"\n", 1)[1])
    before = path.read_bytes()
    with pytest.raises(ValueError, match="header"):
        write_results(path, [sample_report(seed=2)])
    assert path.read_bytes() == before
