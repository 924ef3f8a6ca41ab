#!/usr/bin/env python3
"""aistrack pipeline benchmark.

    python3 aisbench/run.py --workload paper_fleet --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark imports aistrack from ./src,
generates the workload's fleet from --seed with `aistrack synth` (the
set-up), then runs `train`, `associate` and `evaluate` through
`aistrack.cli.main` in this process, one stage after the other, repeating
the whole pipeline for --seconds. It checks every
repetition's outputs and prints the metrics, one per line, then one JSON
object as the last line.

A shared host's speed for this process flips between two levels a factor
of two apart, about once a second. So while a stage runs, an interval
timer samples that speed every PROBE_INTERVAL_S with a short probe loop
that calls no aistrack code, and the stage's wall time is scaled to the
reference speed at which the probe takes PROBE_REF_S. The scaled times
follow the program, not the host; the raw wall times are kept in
result.json.

With --trace 0 it reports the end-to-end metrics (medians over
repetitions, nothing wrapped). With --trace 1 it alternates untraced and
traced repetitions and reports the per-layer metrics from the traced ones;
spans go to spans.jsonl in the run directory under aisbench/.runs/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = HERE / ".runs"

# Cleared before numpy is imported, so every commit runs with the BLAS
# library's own default threading whatever the caller's shell exported.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Set-up is timed MIN_SETUPS times at the start and once more after each
# pipeline run, so that its median spans the whole run on a machine whose
# speed drifts. `associate` is re-run on each pipeline run's models until
# ASSOCIATE_SECONDS are spent on it, so its median rests on enough samples.
MIN_SETUPS = 5
ASSOCIATE_SECONDS = 1.5
MIN_REPS = 2  # two runs of the same code must give the same bytes
MIN_MACRO_F1 = 0.95  # the acceptance gate of the test suite
MIN_VESSEL_F1 = 0.90
# The speed probe mixes interpreter work with small numpy ops, as the
# program's hot loops do. PROBE_REF_S is about its median on a 2-core
# shared Xeon VM (Python 3.11, numpy 2.4, OpenBLAS 0.3.31), where the
# 10th and 90th percentiles of single probes are 0.6x and 1.4x that as
# the host's load changes.
# Probing costs about 0.5 % of a stage and is taken out of its wall time.
PROBE_INTERVAL_S = 0.05
PROBE_ITERS = 20
PROBE_REF_S = 0.0002


@dataclasses.dataclass(frozen=True)
class Workload:
    vessels: int
    points: int
    test_len: int
    batch: int
    lr: float
    epochs: int
    min_points: int = 500
    jitter: float = 0.2
    noise: float = 1e-4
    window: int = 10
    hidden: int = 32


WORKLOADS = {
    # The paper's experiment at batch 10: per-batch interpreter overhead in
    # the LSTM time loop dominates training, which is ~90 % of the run.
    "paper_fleet": Workload(vessels=5, points=648, test_len=108, batch=10, lr=1e-4, epochs=3),
    # 24 vessels x 250-step horizon: batch-1 rollouts, per-observation loops
    # over the fleet and model JSON persistence dominate. 24, not 32: synth
    # puts vessel i at latitude 37 + 2i, so 32 vessels emit LAT > 90 and
    # `aistrack train` exits 2.
    "wide_horizon": Workload(
        vessels=24, points=400, test_len=250, batch=10, lr=1e-4, epochs=1, min_points=400
    ),
    # Same fleet and code as paper_fleet at batch 128: few large numpy
    # calls, so elementwise/GEMM memory traffic and BLAS threading matter.
    "large_batch": Workload(vessels=5, points=648, test_len=108, batch=128, lr=1e-3, epochs=6),
}

END_TO_END = {  # name -> (unit, better)
    "setup_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "train_windows_per_s": ("windows/s", "higher"),
    "associate_obs_per_s": ("obs/s", "higher"),
    "macro_f1": ("ratio", "higher"),
    "min_vessel_f1": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def load_program():
    """Import aistrack from this checkout's src/, after clearing the thread
    variables. Exits non-zero if the source tree is not there."""
    for var in THREAD_VARS:
        os.environ.pop(var, None)
    src = ROOT / "src"
    if not (src / "aistrack" / "__init__.py").is_file():
        sys.exit(f"aisbench: no aistrack source under {src}")
    sys.path.insert(0, str(src))
    import aistrack.cli  # noqa: F401  (imports every module the pipeline uses)

    if Path(aistrack.__file__).resolve().parent != (src / "aistrack").resolve():
        sys.exit(f"aisbench: imported aistrack from {aistrack.__file__}, not {src}")
    return aistrack


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


class StageFailed(Exception):
    pass


class SpeedProbe:
    """Samples the host's speed for this process while a stage runs, from
    the main thread: an interval timer interrupts the stage every
    PROBE_INTERVAL_S and the handler times PROBE_ITERS turns of a fixed
    loop. `spent` is the total time taken by the handler."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.standard_normal((4, 16))
        self.w = rng.standard_normal((16, 48)) * 0.1
        self.samples: list[float] = []
        self.spent = 0.0

    def _turns(self, n: int) -> None:
        np, x, w = self.np, self.x, self.w
        acc = 0.0
        for i in range(n):
            g = x @ w
            h = np.tanh(g[:, :16]) * (1.0 / (1.0 + np.exp(-g[:, 16:32])))
            acc += float(h[i % 4, 0]) + math.sin(i * 1e-3)
        assert math.isfinite(acc)

    def sample(self, *_signal_args) -> None:
        begin = time.perf_counter()
        self._turns(1)  # warm the probe's data after the program ran
        start = time.perf_counter()
        self._turns(PROBE_ITERS)
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - begin

    @contextlib.contextmanager
    def sampling(self):
        """Probe once, then every PROBE_INTERVAL_S until exit, then once
        more; `samples` holds the probe times."""
        self.samples = []
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def speed(self) -> float:
        """The mean speed over the samples, relative to the reference; the
        timer spaces them evenly in time."""
        return statistics.fmean(PROBE_REF_S / t for t in self.samples)


class Stages:
    """Invokes CLI stages and counts attempts and failures. While `tracer`
    is set, each stage runs inside a `cli.<stage>` span. `log` keeps each
    stage's wall time, probe samples and scaled time."""

    def __init__(self, aistrack):
        self.main = aistrack.cli.main
        self.probe = SpeedProbe()
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.log: list[dict] = []

    def __call__(self, *argv) -> float:
        """Run one stage; returns its wall time scaled to the reference
        machine speed, raises StageFailed on a non-zero exit."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        probe = self.probe
        with probe.sampling(), contextlib.redirect_stdout(sys.stderr):
            spent, start = probe.spent, time.perf_counter()
            if self.tracer is None:
                rc = self.main(argv)
            else:
                with self.tracer.span(f"cli.{argv[0]}"):
                    rc = self.main(argv)
            elapsed = time.perf_counter() - start - (probe.spent - spent)
        speed = probe.speed()
        scaled = elapsed * speed
        self.log.append({"stage": argv[0], "wall_s": elapsed, "speed": speed,
                         "probe_s": probe.samples, "scaled_s": scaled})
        if rc != 0:
            self.failed += 1
            raise StageFailed(f"aistrack {' '.join(argv)} exited {rc}")
        return scaled


def synth(stages: Stages, wl: Workload, seed: int, out: Path) -> float:
    return stages(
        "synth", "--out", out, "--vessels", wl.vessels, "--points", wl.points,
        "--jitter", wl.jitter, "--noise", wl.noise, "--seed", seed,
    )


def train_windows(aistrack, fleet_csv: Path, wl: Workload) -> int:
    """Training windows per epoch summed over vessels, computed with the
    program's own ingest and resample (outside any timed region)."""
    from aistrack.ingest import group_tracks, parse_csv
    from aistrack.preprocess import resample

    tracks = group_tracks(parse_csv(fleet_csv.read_text()))
    return sum(len(resample(t)) - wl.test_len - wl.window for t in tracks)


def run_pipeline(stages: Stages, wl: Workload, seed: int, data: Path, out: Path) -> tuple[dict, dict]:
    """train -> associate -> evaluate into `out`; returns the stage times
    scaled to the reference speed, and their wall times."""
    models, decisions, report = out / "models", out / "decisions.csv", out / "report.json"
    scaled, wall = {}, {}
    for stage, *args in (
        ("train", "--data", data / "fleet.csv", "--out", models, "--epochs", wl.epochs,
         "--test-len", wl.test_len, "--batch", wl.batch, "--lr", wl.lr, "--window", wl.window,
         "--hidden", wl.hidden, "--min-points", wl.min_points, "--seed", seed),
        ("associate", "--models", models, "--obs", models / "holdout.csv", "--out", decisions),
        ("evaluate", "--decisions", decisions, "--truth", models / "holdout_truth.csv", "--out", report),
    ):
        scaled[stage] = stages(stage, *args)
        wall[stage] = stages.log[-1]["wall_s"]
    for times in (scaled, wall):
        times["pipeline"] = sum(times.values())
    return scaled, wall


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(out: Path, data: Path, wl: Workload) -> list[str]:
    """Problems with one pipeline run's outputs; empty when correct.

    The truth is taken from the VID column of the held-out CSV and checked
    against the truth file `evaluate` read; the report's confusion matrix is
    recomputed from the decisions and compared cell by cell."""
    problems = []
    models = out / "models"
    holdout = {int(r["OBJECT_ID"]): r["VID"] for r in _csv_rows(models / "holdout.csv")}
    truth_file = {int(r["OBJECT_ID"]): r["VID"] for r in _csv_rows(models / "holdout_truth.csv")}
    if truth_file != holdout:
        bad = sum(truth_file.get(oid) != vid for oid, vid in holdout.items())
        problems.append(f"holdout_truth.csv disagrees with holdout.csv VIDs on {bad} objects")
    fleet_vids = {r["VID"] for r in _csv_rows(data / "truth.csv")}
    per_vessel = Counter(holdout.values())
    if set(per_vessel) != fleet_vids or set(per_vessel.values()) != {wl.test_len}:
        problems.append(f"held-out set is not {wl.test_len} observations for each of {len(fleet_vids)} vessels")
    decided = {int(r["OBJECT_ID"]): r["ASSIGNED_VID"] for r in _csv_rows(out / "decisions.csv")}
    if set(decided) != set(holdout):
        problems.append("decisions.csv does not decide each held-out observation exactly once")
    report = json.loads((out / "report.json").read_text())
    labels = report["labels"]
    cm = report["confusion_matrix"]
    if sum(map(sum, cm)) != len(holdout):
        problems.append(f"confusion total {sum(map(sum, cm))} != {len(holdout)} held-out observations")
    reported = Counter({(labels[i], labels[j]): n for i, row in enumerate(cm) for j, n in enumerate(row) if n})
    expected = Counter((holdout[oid], decided.get(oid)) for oid in holdout)
    if reported != expected:
        problems.append("report.json confusion matrix does not match decisions against the held-out VIDs")
    macro = report["macro"]["f1"]
    worst = min(v["f1"] for v in report["per_vessel"])
    if macro < MIN_MACRO_F1 or worst < MIN_VESSEL_F1:
        problems.append(f"macro F1 {macro:.4f} / min vessel F1 {worst:.4f} below {MIN_MACRO_F1} / {MIN_VESSEL_F1}")
    return problems


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run in directory `work`. Returns the result document:
    correctness, stage counts, metrics as {name: (value, unit)} and the
    diagnostics written to result.json."""
    aistrack = load_program()
    from tracing import Tracer, installed, layer_metrics, stage_breakdown

    tracer = Tracer()
    stages = Stages(aistrack)
    doc = {"environment": environment(seed), "workload": dataclasses.asdict(wl), "trace": trace}
    problems: list[str] = []
    metrics: dict[str, tuple[float, str]] = {}

    def finish():
        return {**doc, "correct": not problems, "attempted": stages.attempted,
                "failed": stages.failed, "problems": problems, "metrics": metrics}

    def maybe_traced(run_id, traced, fn, *args):
        if not traced:
            return fn(*args)
        tracer.run_id, stages.tracer = run_id, tracer
        try:
            with installed(tracer, aistrack):
                return fn(*args)
        finally:
            stages.tracer = None

    data = work / "data"
    setup_times = []

    def set_up_again():
        out = work / f"setup{len(setup_times)}"
        setup_times.append(maybe_traced(out.name, trace, synth, stages, wl, seed, out))
        shutil.rmtree(out)

    try:
        setup_times.append(maybe_traced("setup0", trace, synth, stages, wl, seed, data))
        while len(setup_times) < MIN_SETUPS:
            set_up_again()
    except StageFailed as exc:
        problems.append(str(exc))
        return finish()
    windows_per_epoch = train_windows(aistrack, data / "fleet.csv", wl)

    reps = []  # (traced, scaled stage times, stage wall times)
    rep_walls = []
    hashes = []
    associate_times = []
    start = time.perf_counter()
    # Start another repetition only if one should end within --seconds.
    while len(reps) < MIN_REPS or time.perf_counter() - start + statistics.median(rep_walls) <= seconds:
        rep_start = time.perf_counter()
        traced = trace and len(reps) % 2 == 1
        out = work / f"rep{len(reps)}"
        try:
            times, walls = maybe_traced(f"rep{len(reps)}", traced, run_pipeline, stages, wl, seed, data, out)
            if not reps:
                # Read before the harness parses any output: the program's
                # peak through set-up and one pipeline run.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            problems += [f"rep{len(reps)}: {p}" for p in check_outputs(out, data, wl)]
            hashes.append({name: sha256(out / name) for name in ("decisions.csv", "report.json")})
            spent = [times["associate"]]
            models = out / "models"
            while not trace and sum(spent) < ASSOCIATE_SECONDS:
                again = out / f"decisions{len(spent)}.csv"
                spent.append(stages("associate", "--models", models, "--obs", models / "holdout.csv", "--out", again))
                if sha256(again) != hashes[-1]["decisions.csv"]:
                    problems.append(f"rep{len(reps)}: {again.name} differs from decisions.csv")
            associate_times += spent
            if not trace:
                set_up_again()
        except StageFailed as exc:
            problems.append(str(exc))
            return finish()
        if not reps:
            report = json.loads((out / "report.json").read_text())
            f1 = (report["macro"]["f1"], min(v["f1"] for v in report["per_vessel"]))
        reps.append((traced, times, walls))
        shutil.rmtree(out)
        rep_walls.append(time.perf_counter() - rep_start)
    doc["sha256"] = hashes[0]
    if any(h != hashes[0] for h in hashes):
        problems.append(f"outputs differ between runs of the same code: {hashes}")
    doc["stage_s"] = {k: [t[k] for _, t, _ in reps] for k in reps[0][1]}
    doc["stage_wall_s"] = {k: [w[k] for _, _, w in reps] for k in reps[0][2]}
    doc["traced"] = [traced for traced, _, _ in reps]
    doc["associate_s"] = associate_times
    doc["setup_s"] = setup_times
    doc["stage_log"] = stages.log

    median = {k: statistics.median(t[k] for traced, t, _ in reps if not traced) for k in reps[0][1]}
    doc["median_wall_s"] = {k: statistics.median(w[k] for traced, _, w in reps if not traced) for k in reps[0][2]}
    doc["median_probe_s"] = statistics.median(t for e in stages.log for t in e["probe_s"])
    if trace:
        traced_reps = [(t, w) for traced, t, w in reps if traced]
        metrics = layer_metrics(tracer, len(traced_reps))
        overhead = statistics.median(t["pipeline"] for t, _ in traced_reps) - median["pipeline"]
        metrics["trace.overhead_s"] = (overhead, "s")
        doc["stage_layers_self_s"] = stage_breakdown(tracer, len(traced_reps))
        doc["traced_stage_wall_s"] = {k: statistics.mean(w[k] for _, w in traced_reps) for k in traced_reps[0][1]}
        tracer.write(work / "spans.jsonl")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pipeline_s": (median["pipeline"], "s"),
            "train_windows_per_s": (windows_per_epoch * wl.epochs / median["train"], "windows/s"),
            "associate_obs_per_s": (wl.vessels * wl.test_len / statistics.median(associate_times), "obs/s"),
            "macro_f1": (f1[0], "ratio"),
            "min_vessel_f1": (f1[1], "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return finish()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sys.path.insert(0, str(HERE))
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    shutil.rmtree(work / "data", ignore_errors=True)
    (work / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True, default=str))

    print(f"workload {args.workload}  trace {args.trace}  run dir {work.relative_to(ROOT)}")
    for key, value in result["environment"].items():
        print(f"  env {key}: {value}")
    for name, (value, unit) in result["metrics"].items():
        direction = f"  ({END_TO_END[name][1]} is better)" if name in END_TO_END else ""
        print(f"  {name:<40} {value:>14.6g} {unit}{direction}")
    for stage, layers in result.get("stage_layers_self_s", {}).items():
        wall = result["traced_stage_wall_s"][stage.removeprefix("cli.")]
        parts = "  ".join(f"{k} {v:.4g}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
        print(f"  {stage}: wall {wall:.4g} s = self time by layer {sum(layers.values()):.4g} s: {parts}")
    if "median_wall_s" in result:
        walls = "  ".join(f"{k} {v:.4g}" for k, v in result["median_wall_s"].items())
        print(f"  median stage wall s (unscaled): {walls}; median probe {result['median_probe_s'] * 1e6:.4g} us"
              f" (reference {PROBE_REF_S * 1e6:g} us)")
    print(f"  error_rate: {result['failed']}/{result['attempted']} stage invocations failed")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
