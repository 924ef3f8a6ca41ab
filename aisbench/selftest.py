#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark harness (a few seconds).

    python3 aisbench/selftest.py

Runs a 3-vessel fleet through the harness untraced and traced and checks
that every metric BENCHMARK.json names is emitted with its unit (and, end
to end, its direction). Then flips one label in the truth file `evaluate`
reads and checks that the correctness check fails. Exits 0 on success.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

TINY = bench.Workload(vessels=3, points=160, test_len=20, batch=10, lr=1e-3, epochs=1, min_points=100)
SEED = 3


def expect(ok: bool, what: str, failures: list[str]) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_metrics(result: dict, spec: list[dict], kind: str, failures: list[str]) -> None:
    emitted = result["metrics"]
    for m in spec:
        got = emitted.get(m["name"])
        expect(got is not None and got[1] == m["unit"], f"{kind} metric {m['name']} emitted in {m['unit']}", failures)
        if kind == "end_to_end" and m["name"] in bench.END_TO_END:
            expect(bench.END_TO_END[m["name"]][1] == m["better"], f"{m['name']} is {m['better']}-is-better", failures)
    extra = sorted(set(emitted) - {m["name"] for m in spec})
    expect(not extra, f"no {kind} metric missing from BENCHMARK.json (extra: {extra})", failures)


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    work = bench.RUNS_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    failures: list[str] = []

    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        (work / kind).mkdir(parents=True)
        result = bench.run(TINY, SEED, 0, trace, work / kind)
        expect(result["correct"] and result["failed"] == 0, f"{kind} run correct: {result['problems']}", failures)
        check_metrics(result, spec[kind], kind, failures)

    aistrack = bench.load_program()
    stages = bench.Stages(aistrack)
    data, out = work / "flip" / "data", work / "flip" / "out"
    bench.synth(stages, TINY, SEED, data)
    bench.run_pipeline(stages, TINY, SEED, data, out)
    expect(bench.check_outputs(out, data, TINY) == [], "unaltered outputs pass the check", failures)
    truth = out / "models" / "holdout_truth.csv"
    header, first, *rest = truth.read_text().splitlines()
    oid, vid = first.split(",")
    other = next(r.split(",")[1] for r in rest if r.split(",")[1] != vid)
    truth.write_text("\n".join([header, f"{oid},{other}", *rest]) + "\n")
    stages("evaluate", "--decisions", out / "decisions.csv", "--truth", truth, "--out", out / "report.json")
    problems = bench.check_outputs(out, data, TINY)
    expect(bool(problems), f"one flipped truth label fails the check: {problems}", failures)

    if not failures:
        shutil.rmtree(work)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
