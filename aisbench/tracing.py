"""Span tracing for the benchmark's traced pass.

The benchmark wraps the public functions of each aistrack module where they
are looked up (``cli``, ``fleet``, ``associate`` and ``lstm`` import their
callees by name), records one span per call and a few counters at the same
boundaries, and turns them into the per-layer metrics. Nothing here runs
unless the traced pass installs it, so the untimed end-to-end pass sees the
unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

PIPELINE_LAYERS = ("ingest", "preprocess", "lstm", "fleet", "associate", "evaluate", "cli")


class Tracer:
    """Spans (name, start, end, parent, run id) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, run id]
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.run_id]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, count=None):
        """Return fn recording a span per call. `name` is a string or a
        function of the call's arguments; `count(args, kwargs, result)`
        updates counters after the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name if isinstance(name, str) else name(args, kwargs)):
                result = fn(*args, **kwargs)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "run": run}) + "\n")


def _model_bytes(directory: Path) -> int:
    """Size of manifest.json and the model files it lists."""
    manifest = directory / "manifest.json"
    files = [manifest] + [directory / e["file"] for e in json.loads(manifest.read_text())["models"]]
    return sum(p.stat().st_size for p in files)


@contextlib.contextmanager
def installed(tracer: Tracer, aistrack):
    """Wrap every traced function at its lookup site; restore on exit."""
    cli, fleet, assoc, lstm = aistrack.cli, aistrack.fleet, aistrack.associate, aistrack.lstm
    counts = tracer.counts

    def parse_counts(args, kwargs, result):
        counts["ingest.parse_csv.rows"] += len(result)
        stats = kwargs.get("stats")
        counts["ingest.parse_csv.skipped"] += stats.skipped if stats is not None else 0

    def window_counts(args, kwargs, result):
        counts["preprocess.windows"] += len(result)

    def forward_name(args, kwargs):
        train = kwargs.get("train", args[2] if len(args) > 2 else False)
        return "lstm.forward_batch.train" if train else "lstm.forward_batch.infer"

    def forward_counts(args, kwargs, result):
        counts["lstm.forward_batch.windows"] += len(result[0])

    def clamp_counts(args, kwargs, result):
        pred = result[0]
        counts["associate.roll_step.clamped"] += bool(
            ((pred < lstm.FEEDBACK_MIN) | (pred > lstm.FEEDBACK_MAX)).any()
        )

    def save_counts(args, kwargs, result):
        counts["fleet.save_fleet.bytes"] += _model_bytes(Path(result).parent)

    def load_counts(args, kwargs, result):
        counts["fleet.load_fleet.bytes"] += _model_bytes(Path(args[0]))

    targets = [
        (cli, "generate", "synth.generate", None),
        (cli, "parse_csv", "ingest.parse_csv", parse_counts),
        (cli, "group_tracks", "ingest.group_tracks", None),
        (cli, "resample", "preprocess.resample", None),
        (fleet, "make_windows", "preprocess.make_windows", window_counts),
        (cli, "train_fleet", "fleet.train_fleet", None),
        (fleet, "train_epoch", "lstm.train_epoch", None),
        (lstm, "forward_batch", forward_name, forward_counts),
        (lstm, "backward", "lstm.backward", None),
        (lstm.AdamState, "step", "lstm.adam_step", None),
        (cli, "save_fleet", "fleet.save_fleet", save_counts),
        (cli, "load_fleet", "fleet.load_fleet", load_counts),
        (cli, "associate_batch", "associate.associate_batch", None),
        (assoc, "predict_positions", "associate.predict_positions", None),
        (assoc, "roll_step", "associate.roll_step", clamp_counts),
        (assoc, "associate", "associate.associate", None),
        (cli, "confusion", "evaluate.confusion", None),
        (cli, "metrics", "evaluate.metrics", None),
        (cli, "write_report", "evaluate.write_report", None),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, count in targets:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct children, per span.
    Children of one span run one after another, so their coverage is the
    sum of their durations."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def stage_breakdown(tracer: Tracer, reps: int) -> dict[str, dict[str, float]]:
    """Self time per layer within each CLI stage, per traced pipeline run.
    A stage's layers add up to its span's duration."""
    stage_of: list[str] = []
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (name, _, _, parent, run), own in zip(tracer.spans, self_times(tracer.spans)):
        stage_of.append(name if parent is None else stage_of[parent])
        if run.startswith("rep"):
            out[stage_of[-1]][name.split(".")[0]] += own / reps
    return {stage: dict(layers) for stage, layers in out.items()}


def tail_percentile(values: list[float]) -> tuple[float, float, float]:
    """(p50, the highest nearest-rank percentile with at least ten samples
    above it, that percentile's level in %). Up to 21 samples the tail
    is p50."""
    ordered = sorted(values)
    n = len(ordered)
    mid = (n - 1) // 2
    k = max(n - 11, mid)
    return ordered[mid], ordered[k], 100.0 * (k + 1) / n


def layer_metrics(tracer: Tracer, reps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of `reps` traced pipeline runs
    (run ids starting with "rep"). Totals and counts are per run;
    percentiles pool every call; synth.generate.s is per set-up call."""
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    layer_self = defaultdict(float)
    for (name, start, end, _, run), own in zip(tracer.spans, self_times(tracer.spans)):
        durations[name].append(end - start)
        if run.startswith("rep"):
            total[name] += end - start
            self_total[name] += own
            calls[name] += 1
            layer_self[name.split(".")[0]] += own
    c = tracer.counts
    per = 1.0 / reps
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    put("synth.generate.s", statistics.median(durations["synth.generate"]), "s")
    put("ingest.parse_csv.s", total["ingest.parse_csv"] * per, "s")
    put("ingest.parse_csv.rows", c["ingest.parse_csv.rows"] * per, "count")
    put("ingest.parse_csv.skipped", c["ingest.parse_csv.skipped"] * per, "count")
    put("ingest.group_tracks.s", total["ingest.group_tracks"] * per, "s")
    put("preprocess.resample.s", total["preprocess.resample"] * per, "s")
    put("preprocess.make_windows.s", total["preprocess.make_windows"] * per, "s")
    put("preprocess.windows", c["preprocess.windows"] * per, "count")
    p50, tail, level = tail_percentile(durations["lstm.train_epoch"])
    put("lstm.train_epoch.s", total["lstm.train_epoch"] * per, "s")
    put("lstm.train_epoch.calls", calls["lstm.train_epoch"] * per, "count")
    put("lstm.train_epoch.p50_ms", p50 * 1e3, "ms")
    put("lstm.train_epoch.ptail_ms", tail * 1e3, "ms")
    put("lstm.train_epoch.ptail_level", level, "%")
    put("lstm.forward_batch.train.s", total["lstm.forward_batch.train"] * per, "s")
    put("lstm.backward.s", total["lstm.backward"] * per, "s")
    put("lstm.backward.calls", calls["lstm.backward"] * per, "count")
    put("lstm.adam_step.s", total["lstm.adam_step"] * per, "s")
    put("lstm.adam_step.calls", calls["lstm.adam_step"] * per, "count")
    put("lstm.forward_batch.infer.s", total["lstm.forward_batch.infer"] * per, "s")
    forward_calls = calls["lstm.forward_batch.train"] + calls["lstm.forward_batch.infer"]
    put("lstm.forward_batch.calls", forward_calls * per, "count")
    put("lstm.forward_batch.windows_per_call", c["lstm.forward_batch.windows"] / max(1, forward_calls), "windows")
    p50, tail, level = tail_percentile(durations["associate.roll_step"])
    put("associate.roll_step.s", total["associate.roll_step"] * per, "s")
    put("associate.roll_step.calls", calls["associate.roll_step"] * per, "count")
    put("associate.roll_step.p50_us", p50 * 1e6, "us")
    put("associate.roll_step.ptail_us", tail * 1e6, "us")
    put("associate.roll_step.ptail_level", level, "%")
    put("associate.roll_step.clamped", c["associate.roll_step.clamped"] * per, "count")
    put("associate.predict_positions.self_s", self_total["associate.predict_positions"] * per, "s")
    put("associate.associate.s", total["associate.associate"] * per, "s")
    put("associate.associate.calls", calls["associate.associate"] * per, "count")
    put(
        "associate.rollouts_per_obs",
        calls["associate.roll_step"] / max(1, calls["associate.associate"]),
        "ratio",
    )
    put("associate.associate_batch.s", total["associate.associate_batch"] * per, "s")
    put("fleet.train_fleet.self_s", self_total["fleet.train_fleet"] * per, "s")
    put("fleet.save_fleet.s", total["fleet.save_fleet"] * per, "s")
    put("fleet.save_fleet.bytes", c["fleet.save_fleet.bytes"] * per, "bytes")
    put("fleet.load_fleet.s", total["fleet.load_fleet"] * per, "s")
    put("fleet.load_fleet.bytes", c["fleet.load_fleet.bytes"] * per, "bytes")
    put(
        "evaluate.s",
        sum(total[n] for n in ("evaluate.confusion", "evaluate.metrics", "evaluate.write_report")) * per,
        "s",
    )
    put("cli.train.s", total["cli.train"] * per, "s")
    put("cli.train.self_s", self_total["cli.train"] * per, "s")
    put("cli.associate.s", total["cli.associate"] * per, "s")
    put("cli.associate.self_s", self_total["cli.associate"] * per, "s")
    for layer in PIPELINE_LAYERS:
        put(f"{layer}.self_s", layer_self[layer] * per, "s")
    return out
