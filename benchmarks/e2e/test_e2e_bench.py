"""Tests of the end-to-end benchmark itself, at smoke scale.

Run with ``python -m pytest benchmarks/e2e -q`` from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

import compare
import run
import workloads
from metrics import END_TO_END, LAYERS, applies
from tracer import layer_table, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = list(workloads.WORKLOADS)


def invoke(workload: str, seed: int = 0, trace: int = 0, out=None):
    """One smoke-scale run of ``run.py`` in a fresh process."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "1",
        "--trace", str(trace),
        "--scale", "smoke",
    ]
    if out is not None:
        command += ["--out", str(out)]
    return subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every workload, untraced and traced, at seed 0."""
    out = tmp_path_factory.mktemp("e2e") / "records.jsonl"
    procs = {
        (name, trace): invoke(name, trace=trace, out=out)
        for name in NAMES
        for trace in (0, 1)
    }
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return procs, {(r["workload"], int(r["trace"])): r for r in records}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_benchmark_metric_is_printed_with_its_unit(runs, name, trace):
    procs, _ = runs
    proc = procs[(name, trace)]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        for metric in listed:
            assert last["metrics"][metric["name"]]["value"] > 0, metric
    workload = workloads.WORKLOADS[name]
    for metric in LAYERS if trace else END_TO_END:
        if applies(metric, workload):
            assert any(
                line.split()[1:2] == [metric.name]
                and line.split()[-1] == metric.unit
                for line in proc.stdout.splitlines()
            ), metric.name


def test_benchmark_json_matches_the_catalogue():
    catalogue = {m.name: m for m in END_TO_END + LAYERS}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        known = catalogue[metric["name"]]
        assert metric["unit"] == known.unit
        assert metric["better"] == known.better
        assert metric.get("bound", known.bound) == known.bound
    assert [w["name"] for w in BENCH["workloads"]] == NAMES


@pytest.mark.parametrize("name", ["ingest-kitti-scalar-2w", "stream-kitti"])
def test_deterministic_metrics_repeat_and_follow_the_seed(
    runs, name, tmp_path
):
    _, records = runs
    out = tmp_path / "records.jsonl"
    for seed in (0, 1):
        assert invoke(name, seed=seed, out=out).returncode == 0
    again, other = [json.loads(line) for line in out.read_text().splitlines()]
    first = records[(name, 0)]
    for key in ("rec", "sim_fps", "query_recall"):
        assert again["metrics"][key] == first["metrics"][key]
    assert again["digest"] == first["digest"]
    assert records[(name, 1)]["digest"] == first["digest"]
    assert other["digest"] != first["digest"]


def _run_in_process(capsys, workload: str) -> tuple[int, str]:
    status = run.main(
        ["--workload", workload, "--seconds", "1", "--scale", "smoke"]
    )
    return status, capsys.readouterr().out


def test_an_over_budget_window_fails_the_run(monkeypatch, capsys):
    from repro.core.pipeline import IngestionPipeline

    original = IngestionPipeline.run

    def over_budget(self, world):
        result = original(self, world)
        window = next(r for r in result.window_results if r.n_pairs > 1)
        spare = next(
            p
            for pairs in result.window_pairs
            for p in pairs
            if p.key not in window.candidate_keys
        )
        window.candidates.append(spare)
        return result

    monkeypatch.setattr(IngestionPipeline, "run", over_budget)
    status, out = _run_in_process(capsys, "ingest-mot17")
    assert status == 1
    assert "CHECK FAILED" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_a_skipped_stream_window_fails_the_run(monkeypatch, capsys):
    from repro.streaming import StreamingIngestionService

    original = StreamingIngestionService.run

    def skip_one(self, source, stop_after_windows=None):
        result = original(self, source, stop_after_windows)
        if not stop_after_windows:
            del result.emissions[0]
        return result

    monkeypatch.setattr(StreamingIngestionService, "run", skip_one)
    status, out = _run_in_process(capsys, "stream-kitti")
    assert status == 1
    assert "stream emitted windows" in out


def test_stream_checks_catch_gaps_and_lost_frames():
    workload = workloads.scaled(workloads.WORKLOADS["stream-kitti"], "smoke")
    stride = workload.window // 2
    tracks = [SimpleNamespace(first_frame=c * stride) for c in range(3)]
    emissions = [
        SimpleNamespace(index=c, n_tracks=1, pairs=[], result=None)
        for c in range(3)
    ]
    log = [None] * 10
    healthy = {"stream.frames_in": 10.0}

    shed = {"stream.frames_in": 10.0, "stream.frames_shed_late": 1.0}
    too_many = workload.max_open_windows + 1
    cases = [
        (emissions, healthy, 2, 0),
        (emissions[:1] + emissions[2:], healthy, 2, 1),
        (emissions, shed, 2, len(log)),
        (emissions, healthy, too_many, 1),
    ]
    for given, counters, peak_open, failed in cases:
        checks = workloads.Checks()
        workloads.check_stream(
            checks, workload, log, given, counters, peak_open, tracks
        )
        assert checks.failed == failed


@pytest.mark.parametrize("name", NAMES)
def test_traced_self_times_fit_their_units(runs, name):
    procs, _ = runs
    assert procs[(name, 1)].returncode == 0
    lines = (HERE / "results" / f"trace_{name}.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    spans = [s for s in spans if s["type"] == "span" and s["unit"] is not None]
    assert spans
    own = self_times(spans)
    walls = {
        s["unit"]: s["end"] - s["start"]
        for s in spans
        if s["name"] == "bench.unit"
    }
    per_unit = defaultdict(float)
    for span in spans:
        assert own[span["id"]] >= -1e-9, span["name"]
        per_unit[(span["unit"], span["pid"])] += own[span["id"]] + sum(
            seconds for _, seconds in span["leaves"].values()
        )
    for (unit, _), seconds in per_unit.items():
        assert seconds <= walls[unit] + 1e-6, unit
    for row in layer_table(spans).values():
        assert row["self_s"] >= -1e-9


def _record(workload: str, value: float, digest: str = "d") -> dict:
    return {
        "workload": workload,
        "seed": 0,
        "seconds": 1.0,
        "scale": "smoke",
        "digest": digest,
        "metrics": {"wall_fps": value},
    }


def test_compare_verdicts_and_digest_mismatch():
    catalogue = {"wall_fps": ("frames/s", "higher")}
    bounds = {"wall_fps": 0.1}
    base = [_record("w", v) for v in (100.0, 101.0, 99.0, 100.5, 99.5)]
    same = [_record("w", v) for v in (100.2, 100.8, 99.1, 100.4, 99.6)]
    slower = [_record("w", v) for v in (80.0, 81.0, 79.0, 80.5, 79.5)]
    faster = [_record("w", v) for v in (120.0, 121.0, 119.0, 120.5, 119.5)]

    lines, ok = compare.compare(base, same, bounds, catalogue)
    assert ok and lines[-1].split("(")[0].rstrip().endswith("no worse")
    lines, ok = compare.compare(base, slower, bounds, catalogue)
    assert not ok and " worse " in lines[-1]
    lines, ok = compare.compare(base, faster, bounds, catalogue)
    assert ok and "improved" in lines[-1]
    mixed = same[:-1] + [_record("w", 100.0, digest="other")]
    lines, ok = compare.compare(base, mixed, bounds, catalogue)
    assert not ok and lines[0].startswith("DIGEST MISMATCH (head)")
