"""Checkpoints, results CSVs, and embedding dumps. All writes are atomic
(temp file + rename); checkpoints are magic-tagged binary with 32-bit
tensors on disk and 64-bit in memory."""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from dataclasses import fields

import numpy as np

from .metrics import MetricsReport

MAGIC = b"DSRM1"
VERSION = 1


class CheckpointError(RuntimeError):
    pass


def _atomic_write(path, data: bytes):
    path = os.fspath(path)
    dirname = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".tmp-ckpt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path, tensors: dict[str, np.ndarray], config_text: str):
    """Write named tensors (downcast to float32 little-endian) plus a config
    snapshot. Deterministic byte layout: tensors ordered by name."""
    out = [MAGIC, struct.pack("<I", VERSION)]
    cfg_bytes = config_text.encode("utf-8")
    out.append(struct.pack("<I", len(cfg_bytes)))
    out.append(cfg_bytes)
    names = sorted(tensors)
    out.append(struct.pack("<I", len(names)))
    for name in names:
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        nb = name.encode("utf-8")
        out.append(struct.pack("<I", len(nb)))
        out.append(nb)
        out.append(struct.pack("<I", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(arr.tobytes())
    _atomic_write(path, b"".join(out))


def load_checkpoint(path):
    """Returns (tensors as float64, config_text). Raises CheckpointError on
    unknown magic, truncation, text that is not UTF-8 or a repeated name."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise  # a missing file is not a CheckpointError: the CLI exits 1, not 2
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    off = 0

    def take(n, what):
        nonlocal off
        if off + n > len(data):
            raise CheckpointError(f"truncated checkpoint {path}: while reading {what}")
        chunk = data[off:off + n]
        off += n
        return chunk

    def text(n, what):
        try:
            return take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: {what} is not UTF-8 ({exc})") from exc

    if take(len(MAGIC), "magic") != MAGIC:
        raise CheckpointError(f"{path}: unknown checkpoint magic")
    version, = struct.unpack("<I", take(4, "version"))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    cfg_len, = struct.unpack("<I", take(4, "config length"))
    config_text = text(cfg_len, "config snapshot")
    n_tensors, = struct.unpack("<I", take(4, "tensor count"))
    tensors = {}
    for _ in range(n_tensors):
        name_len, = struct.unpack("<I", take(4, "tensor name length"))
        name = text(name_len, "tensor name")
        if name in tensors:
            raise CheckpointError(f"{path}: tensor {name} is repeated")
        ndim, = struct.unpack("<I", take(4, "tensor rank"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "tensor shape"))
        count = math.prod(shape)  # exact, where np.prod's int64 would wrap
        raw = take(4 * count, f"tensor data for {name}")
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)
    if off != len(data):
        raise CheckpointError(f"{path}: trailing bytes after checkpoint payload")
    return tensors, config_text


def checkpoint_param_hash(tensors: dict[str, np.ndarray]) -> str:
    """Stable hash of parameter values at on-disk (float32) precision."""
    h = hashlib.sha256()
    for name in sorted(tensors):
        h.update(name.encode())
        h.update(np.ascontiguousarray(tensors[name], dtype="<f4").tobytes())
    return h.hexdigest()


def _fmt(val) -> str:
    if isinstance(val, (int, np.integer)):
        return str(int(val))
    if isinstance(val, float):
        return f"{val:.6g}"
    return str(val)


def write_results(path, rows: list[MetricsReport]):
    """Append metric rows to a CSV, one column per MetricsReport field in
    declaration order; the header is written once when the file is created
    (or is empty). Under another header, ValueError and the file is kept.
    Floats use 6 significant digits; stds are population standard
    deviations."""
    columns = [f.name for f in fields(MetricsReport)]
    try:
        with open(path, "rb") as fh:
            existing = fh.read()
    except FileNotFoundError:
        existing = b""
    if existing and not existing.endswith(b"\n"):
        existing += b"\n"  # say, edited by hand: the rows must not join its last line
    header = ",".join(columns)
    if existing and existing.split(b"\n", 1)[0] != header.encode("utf-8"):
        raise ValueError(f"{path}: header is not {header}")
    lines = [] if existing else [header]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in columns))
    # The old bytes plus the new rows, written whole: a failed write leaves
    # the previous file as it was.
    _atomic_write(path, existing + ("\n".join(lines) + "\n").encode("utf-8"))


def write_csv(path, header: list[str], rows: list[list]):
    """Write a small generic CSV atomically (used for loss curves, training
    logs, and analysis outputs)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_embedding_dump(path, states: np.ndarray, pop_deciles, group_labels):
    """Tab-separated dump: d state values + popularity-decile and
    nearest-item-group label columns, for external projection/plotting."""
    states = np.asarray(states, dtype=np.float64)
    lines = []
    for vec, dec, grp in zip(states, pop_deciles, group_labels):
        cols = [f"{v:.6g}" for v in vec] + [str(int(dec)), str(grp)]
        lines.append("\t".join(cols))
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
