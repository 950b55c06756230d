#!/usr/bin/env python3
"""Benchmark harness for dsrm-hrl.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pipeline run drives one workload
through the public CLI entry point ``dsrm_hrl.cli.main``, called in this
process: ``train-dsrm``, then ``train``, then ``eval``, each starting when
the previous one returns (a closed loop with one client). Pipeline runs
repeat until ``--seconds`` is spent. Every reported time is a median over
them, scaled to a reference speed (``tracing.calibrate``). ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` alternates untraced and traced
pipeline runs and prints the per-layer metrics. The last line of stdout is
the JSON result; the line before it is the machine and workload record.
See README.md in this directory.
"""

import os
import sys
import time

T_START = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

T_NUMPY = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from tracing import CALIBRATION_REF_S, Probe, Tracer, calibrate, leftover_wrappers  # noqa: E402


# Why each workload: BENCHMARK.json and README.md. Every workload keeps the
# default RunConfig except for the keys shown. The data and step budgets and
# the episode counts are sized so that one pipeline run takes 1-4 s on one
# core, and so that the pipeline seeds of a benchmark run pool at least
# MIN_EPISODES eval episodes.
WORKLOADS = {
    "default-dsrm-hrl": """\
[dsrm]
n_pairs = 1000
epochs = 10

[hrl]
variant = DSRM-HRL
total_steps = 256

[eval]
episodes = 25
""",
    "deep-purify-flat-k200": """\
[dsrm]
k_steps = 200
n_pairs = 600
epochs = 2

[hrl]
variant = FLAT
total_steps = 64

[eval]
episodes = 25
""",
    "raw-large-catalog": """\
[env]
n_items = 5000

[dsrm]
n_pairs = 1000
epochs = 5

[hrl]
variant = HRL-RAW
total_steps = 256

[eval]
episodes = 25
""",
}

SETUPS_PER_RUN = 3   # program set-ups before each pipeline run
MIN_EPISODES = 200   # p95 needs ten episodes beyond it

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "stage1_samples_per_s": "1/s",
    "stage2_steps_per_s": "1/s",
    "eval_episode_ms_p50": "ms",
    "eval_episode_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "eval_len_mean": "steps",
    "eval_ad_mean": "ratio",
    "stage1_final_loss": "loss",
}


class CheckFailed(RuntimeError):
    """An output check of one pipeline run failed."""


@dataclass
class PipelineRun:
    seed: int
    traced: bool
    calibration_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    stage_s: list = field(default_factory=list)
    exits: list = field(default_factory=list)
    episode_s: list = field(default_factory=list)
    episode_calibration_s: list = field(default_factory=list)
    eval_calibrating_s: float = 0.0
    train_steps: int = 0
    eval_steps: int = 0
    minibatches: int = 0
    pairs: int = 0
    epochs: int = 0
    ppo_updates: int = 0
    ppo_dropped: int = 0
    adam_skipped: int = 0
    fingerprint: tuple = ()
    len_mean: float = math.nan
    ad_mean: float = math.nan
    loss_curve: list = field(default_factory=list)
    error: str = ""

    @property
    def wall_s(self):
        return sum(self.stage_s)

    def scale(self, before: int) -> float:
        """Factor to reference speed for the span between calibrations
        ``before`` and ``before + 1`` (0: set-ups, 1-2: stages I and II)."""
        return CALIBRATION_REF_S * 2 / sum(self.calibration_s[before:before + 2])

    def episodes_ref_s(self) -> list[float]:
        return [s * CALIBRATION_REF_S / c
                for s, c in zip(self.episode_s, self.episode_calibration_s)]

    def stages_ref_s(self) -> list[float]:
        """Stage times at reference speed. Eval is scaled episode by episode,
        less the time its calibrations took."""
        eval_s = self.stage_s[2] - self.eval_calibrating_s
        return [self.stage_s[0] * self.scale(1), self.stage_s[1] * self.scale(2),
                eval_s * sum(self.episodes_ref_s()) / sum(self.episode_s)]

    @property
    def attempted(self):
        return (self.pairs + self.train_steps + self.eval_steps + self.minibatches
                + self.ppo_updates)

    @property
    def failed(self):
        return sum(rc != 0 for rc in self.exits) + self.ppo_dropped + self.adam_skipped


def set_up(config_path: Path, seed: int):
    """One program set-up: import the package afresh, build the CLI parser,
    parse the arguments and the workload config. Returns (seconds, cli)."""
    t0 = time.perf_counter()
    for name in [m for m in sys.modules if m == "dsrm_hrl" or m.startswith("dsrm_hrl.")]:
        del sys.modules[name]
    cli = importlib.import_module("dsrm_hrl.cli")
    args = cli.build_parser().parse_args(
        ["train-dsrm", "--config", str(config_path), "--seed", str(seed)])
    importlib.import_module("dsrm_hrl.config").load_config(args.config)
    return time.perf_counter() - t0, cli


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckFailed(f"{path.name}: no rows")
    return rows


def numeric(rows: list[dict], path: Path, skip=()) -> list[dict]:
    out = []
    for row in rows:
        vals = {}
        for key, raw in row.items():
            if key in skip:
                continue
            try:
                vals[key] = float(raw)
            except (TypeError, ValueError):
                raise CheckFailed(f"{path.name}: {key}={raw!r} is not a number") from None
            if not math.isfinite(vals[key]):
                raise CheckFailed(f"{path.name}: {key}={raw} is not finite")
        out.append(vals)
    return out


def check_outputs(run: PipelineRun, out: Path, seed: int, cfg):
    """Output checks; fills the quality figures and the fingerprint."""
    persistence = importlib.import_module("dsrm_hrl.persistence")
    tag = cfg.hrl.variant.lower().replace("-", "_")
    curve = [r["loss"] for r in numeric(read_csv(out / "dsrm_loss.csv"), out / "dsrm_loss.csv")]
    if not curve[-1] < curve[0]:
        raise CheckFailed(f"stage-I loss did not fall: {curve[0]} -> {curve[-1]}")
    train_csv = out / f"train_{tag}_s{seed}.csv"
    run.ppo_updates = len(numeric(read_csv(train_csv), train_csv))
    results = read_csv(out / "results.csv")
    if len(results) != 1:
        raise CheckFailed(f"results.csv: expected one row, got {len(results)}")
    res = numeric(results, out / "results.csv", skip=("variant",))[0]
    if not 1 <= res["len_mean"] <= cfg.env.max_len:
        raise CheckFailed(f"eval Len {res['len_mean']} outside [1, {cfg.env.max_len}]")
    if not 0 <= res["ad_mean"] <= 1:
        raise CheckFailed(f"eval AD {res['ad_mean']} outside [0, 1]")
    run.loss_curve = curve
    run.len_mean, run.ad_mean = res["len_mean"], res["ad_mean"]
    hashes = [persistence.checkpoint_param_hash(persistence.load_checkpoint(p)[0])
              for p in (out / "dsrm.ckpt", out / f"policy_{tag}_s{seed}.ckpt")]
    run.fingerprint = (*hashes, results[0]["len_mean"], results[0]["ad_mean"])


def pipeline_run(out: Path, config_path: Path, seed: int, cfg,
                 tracer: Tracer | None) -> PipelineRun:
    """Program set-ups, then stage I, stage II and eval through ``cli.main``;
    times each set-up and each stage."""
    run = PipelineRun(seed=seed, traced=tracer is not None,
                      pairs=cfg.dsrm.n_pairs, epochs=cfg.dsrm.epochs,
                      minibatches=cfg.dsrm.epochs * math.ceil(cfg.dsrm.n_pairs / cfg.dsrm.batch))
    run.calibration_s.append(calibrate())
    for _ in range(SETUPS_PER_RUN):
        seconds, cli = set_up(config_path, seed)
        run.setup_s.append(seconds)
    run.calibration_s.append(calibrate())
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tag = cfg.hrl.variant.lower().replace("-", "_")
    common = ["--config", str(config_path), "--seed", str(seed), "--out", str(out)]
    stages = [
        ("stage1", ["train-dsrm", *common]),
        ("train", ["train", *common]
         + ([] if cfg.hrl.variant == "HRL-RAW" else ["--dsrm-ckpt", str(out / "dsrm.ckpt")])),
        ("eval", ["eval", *common, "--ckpt", str(out / f"policy_{tag}_s{seed}.ckpt")]),
    ]
    probe = Probe(time_episodes=tracer is None)
    probe.install()
    if tracer is not None:
        tracer.install()
    log = io.StringIO()
    try:
        for stage, argv in stages:
            probe.stage = stage
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(log):
                    rc = cli.main(argv)
            except Exception as exc:  # a crash counts as a failed stage
                rc, run.error = -1, f"{stage}: {exc!r}"
            run.stage_s.append(time.perf_counter() - t0)
            if stage != "eval":
                run.calibration_s.append(calibrate())
            run.exits.append(rc)
            if rc != 0:
                run.error = run.error or f"{stage}: exit {rc}: {log.getvalue()[-500:]}"
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        probe.uninstall()
    run.episode_s, run.episode_calibration_s = probe.episode_s, probe.episode_calibration_s
    run.eval_calibrating_s = probe.calibrating_s
    run.train_steps, run.eval_steps = probe.steps["train"], probe.steps["eval"]
    run.ppo_dropped, run.adam_skipped = probe.ppo_dropped, probe.adam_skipped()
    if not run.error:
        try:
            check_outputs(run, out, seed, cfg)
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            run.error = f"output check: {exc}"
    return run


def machine_record(args, cfg_text: str, cold_setup_s: float) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), "")
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "numpy_import_s": T_NUMPY - T_START, "cold_setup_s": cold_setup_s,
        "resolved_config": cfg_text,
    }


def end_to_end(runs: list[PipelineRun], n_seeds: int) -> dict:
    """Times are medians over the pipeline runs, each scaled to reference
    speed by the calibrations around it; latency percentiles pool the eval
    episodes of all runs. Quality figures are means over the first run of
    each pipeline seed, so they depend on the workload seed alone."""
    lat_ms = [s * 1e3 for r in runs for s in r.episodes_ref_s()]
    distinct = runs[:n_seeds]
    values = {
        "setup_s": statistics.median(s * r.scale(0) for r in runs for s in r.setup_s),
        "wall_s": statistics.median(sum(r.stages_ref_s()) for r in runs),
        "stage1_samples_per_s": statistics.median(
            r.pairs * r.epochs / r.stages_ref_s()[0] for r in runs),
        "stage2_steps_per_s": statistics.median(
            r.train_steps / r.stages_ref_s()[1] for r in runs),
        "eval_episode_ms_p50": statistics.median(lat_ms),
        "eval_episode_ms_p95": statistics.quantiles(lat_ms, n=20, method="inclusive")[18],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eval_len_mean": statistics.fmean(r.len_mean for r in distinct),
        "eval_ad_mean": statistics.fmean(r.ad_mean for r in distinct),
        "stage1_final_loss": statistics.fmean(r.loss_curve[-1] for r in distinct),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dsrm_hrl" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC / 'dsrm_hrl'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "workload.cfg"
    config_path.write_text(WORKLOADS[args.workload], encoding="utf-8")

    cold_setup_s, cli = set_up(config_path, args.seed)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported {cli.__file__}, not the checkout's program",
              file=sys.stderr)
        return 2
    config = importlib.import_module("dsrm_hrl.config")
    cfg = config.load_config(config_path)
    # Pipeline seeds: enough distinct ones to pool MIN_EPISODES eval
    # episodes, repeated while time remains. A repeat must reproduce its
    # seed's fingerprint.
    n_seeds = math.ceil(MIN_EPISODES / cfg.eval.episodes)
    seeds = [args.seed * 1000 + i for i in range(n_seeds)]
    record = machine_record(args, config.render_config(cfg), cold_setup_s)

    tracer = Tracer() if args.trace else None
    untraced, traced = [], []
    t0 = time.perf_counter()
    while True:
        seed = seeds[len(untraced) % n_seeds]
        untraced.append(pipeline_run(work / "run", config_path, seed, cfg, None))
        if tracer is not None and not untraced[-1].error:
            traced.append(pipeline_run(work / "run", config_path, seed, cfg, tracer))
        runs = untraced + traced
        if any(r.error for r in runs):
            break
        elapsed = time.perf_counter() - t0
        cycle = statistics.median(r.wall_s for r in untraced) \
            + (statistics.median(r.wall_s for r in traced) if traced else 0.0)
        if (tracer is not None or len(untraced) >= n_seeds) \
                and elapsed + cycle > args.seconds:
            break

    errors = [r.error for r in runs if r.error]
    fingerprints = {}
    for r in runs:
        if not r.error and fingerprints.setdefault(r.seed, r.fingerprint) != r.fingerprint:
            errors.append(f"seed {r.seed}: fingerprint {r.fingerprint} != "
                          f"{fingerprints[r.seed]} of an earlier run")
    leftovers = leftover_wrappers()
    if leftovers:
        errors.append(f"wrappers left installed: {leftovers}")
    if not errors:
        if tracer is None:
            metrics = end_to_end(untraced, n_seeds)
        else:
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in tracer.layer_metrics(len(traced)).items()}
            metrics["trace.overhead_s"] = {
                "value": statistics.median(r.wall_s for r in traced)
                - statistics.median(r.wall_s for r in untraced), "unit": "s"}
            tracer.save(WORK / f"{args.workload}.spans.npz")
        if not all(math.isfinite(m["value"]) for m in metrics.values()):
            errors.append(f"non-finite metric: {metrics}")
    correct = not errors
    if correct:
        shutil.rmtree(work / "run")
    result = {"correct": correct,
              "attempted": sum(r.attempted for r in runs),
              "failed": sum(r.failed for r in runs),
              "metrics": metrics if correct else {}}
    record.update(pipeline_seeds=seeds, pipeline_runs=len(untraced), traced_runs=len(traced),
                  eval_episodes=sum(len(r.episode_s) for r in untraced),
                  fingerprints=fingerprints, errors=errors,
                  runs=[{"seed": r.seed, "traced": r.traced,
                         "calibration_s": r.calibration_s, "setup_s": r.setup_s,
                         "stage_s": r.stage_s, "train_steps": r.train_steps,
                         "episode_s": r.episode_s,
                         "episode_calibration_s": r.episode_calibration_s} for r in runs])
    (work / "result.json").write_text(json.dumps({"record": record, "result": result},
                                                 indent=1), encoding="utf-8")
    for err in errors:
        print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
