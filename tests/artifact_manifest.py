"""The artifact set and its sha256 manifest: every file written by
train-dsrm, train and eval of each variant, motivate, sweep-steps and
ablation, run in-process through the CLI, one directory per command group;
37 files. sweep-steps and ablation write the same kinds of files, tagged
k<K> and s<seed>: a denoiser and loss curve per tag, a policy and training
curve per variant and tag, and one results.csv row per policy.

    PYTHONPATH=src python tests/artifact_manifest.py CONFIG SEED OUT

prints sorted `sha256  path` lines (paths relative to OUT), so a
byte-identity check between two versions of the program is a diff of their
manifests. An empty CONFIG file runs the default config.
"""

import hashlib
import pathlib
import sys

from dsrm_hrl.cli import EXIT_OK, main
from dsrm_hrl.config import VARIANTS


def _run(*argv):
    rc = main(list(argv))
    if rc != EXIT_OK:
        raise RuntimeError(f"dsrm-hrl {' '.join(argv)}: exit {rc}")


def build(config_path, seed: int, out) -> dict[str, str]:
    """Writes the artifact set into out for the config file and seed;
    returns {path relative to out: sha256 hex digest}."""
    out = pathlib.Path(out)
    flags = ("--config", str(config_path), "--seed", str(seed))
    pipeline = out / "pipeline"
    dsrm_ckpt = str(pipeline / "dsrm.ckpt")
    _run("train-dsrm", *flags, "--out", str(pipeline))
    for variant in VARIANTS:
        tag = variant.lower().replace("-", "_")
        _run("train", *flags, "--out", str(pipeline), "--variant", variant,
             "--dsrm-ckpt", dsrm_ckpt)
        _run("eval", "--out", str(pipeline),
             "--ckpt", str(pipeline / f"policy_{tag}_s{seed}.ckpt"))
    _run("motivate", *flags, "--out", str(out / "motivate"), "--dsrm-ckpt", dsrm_ckpt)
    _run("sweep-steps", *flags, "--out", str(out / "sweep"), "--steps", "2,4,8")
    _run("ablation", "--config", str(config_path), "--out", str(out / "ablation"),
         "--seeds", str(seed))
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.rglob("*") if path.is_file()}


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    config_path, seed, out = sys.argv[1:]
    for path, digest in sorted(build(config_path, int(seed), out).items()):
        print(f"{digest}  {path}")
