"""The benchmark's own tests.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest -q perfbench

Every workload runs here shrunk to a twentieth of its size for zero
measured seconds (the minimum iteration count), so the whole file takes
seconds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.05
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _small(name: str):
    return workloads.make_workload(name, workloads.DEFAULT_SEED, SCALE)


def _run(workload, trace: int) -> dict:
    return run.execute(workload, 0, trace, "test")


def test_metric_names_are_well_formed():
    bench = _benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_declared_metrics_match_the_code():
    bench = _benchmark()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == list(layers.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] \
        == list(workloads.WORKLOADS)


def test_predictions_name_declared_metrics_and_workloads():
    bench = _benchmark()
    with open(os.path.join(HERE, "predictions.json")) as fh:
        predictions = json.load(fh)
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = set(workloads.WORKLOADS)
    assert predictions["default_seed"] == workloads.DEFAULT_SEED
    assert set(predictions["workloads"]) == names
    for row in predictions["layers"]:
        assert set(row["layer_metrics"]) <= metrics, row
        assert set(row["moves"]) <= metrics, row
        assert set(row["mostly_on"]) | set(row["no_change_on"]) <= names
    assert set(predictions["baseline"]) == names
    for baseline in predictions["baseline"].values():
        assert set(baseline) == metrics


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_emits_every_declared_metric(name):
    bench = _benchmark()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = json.loads(json.dumps(_run(_small(name), trace)))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in bench[kind]}
        for metric in bench[kind]:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert np.isfinite(emitted["value"])
            if kind == "end_to_end":
                assert emitted["value"] > 0
        if trace == 1:
            assert result["metrics"]["trace.coverage"]["value"] >= 0.95


class _Corrupting:
    """A workload whose measured iterations corrupt their own output
    after the program produced it; the untimed first iteration, which
    the references are built from, stays clean."""

    def __init__(self, inner, corrupt):
        self.inner, self.corrupt = inner, corrupt
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def main(self, state, rec):
        self.inner.main(state, rec)
        if self.calls:
            self.corrupt(state)
        self.calls += 1


def _nudge_leaf(state):
    tree = state.result.ensemble.trees[0]
    leaf = next(n for n in tree.nodes.values() if n.is_leaf)
    leaf.weight[0] = np.nextafter(leaf.weight[0], np.inf)


def _nudge_score(state):
    scores = state.runner.serving_report.scores
    scores[0, 0] = np.nextafter(scores[0, 0], np.inf)


@pytest.mark.parametrize("name, corrupt", [
    ("train-vero-epsilon", _nudge_leaf),
    ("train-qd1-higgs", _nudge_leaf),
    ("serve-heavy-tail", _nudge_score),
    ("serve-diurnal", _nudge_score),
])
def test_corrupted_output_counts_as_failed(name, corrupt):
    result = _run(_Corrupting(_small(name), corrupt), 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def _patched_objects():
    return [(owner, attr, vars(owner)[attr])
            for owner, attr, _, _ in workloads.trace_targets()]


def test_wrappers_are_removed_after_runs():
    before = _patched_objects()
    assert len(before) > 20
    for trace in (1, 0):
        assert _run(_small("serve-diurnal"), trace)["correct"]
        for owner, attr, original in before:
            assert vars(owner)[attr] is original, (owner, attr)


def test_tracing_leaves_scenario_report_bytes_unchanged():
    workload = _small("serve-heavy-tail")
    run.warm_up(workload, tracer.NullRecorder())
    written = []
    report = workload.report

    def keep(state, rec):
        report(state, rec)
        written.append(state.report_bytes)

    workload.report = keep
    untraced = run.run_iteration(workload, tracer.NullRecorder())
    recorder = tracer.Recorder()
    with tracer.Patches(recorder, workloads.trace_targets()):
        traced = run.run_iteration(workload, recorder)
    assert recorder.spans, "the traced iteration recorded no spans"
    assert not untraced.problems and not traced.problems
    assert written[0] == written[1]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "serve-diurnal", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_command_line_prints_the_result_last(capsys, monkeypatch):
    make = workloads.WORKLOADS["serve-diurnal"]
    monkeypatch.setitem(workloads.WORKLOADS, "serve-diurnal",
                        lambda seed, scale: make(seed, SCALE))
    assert run.main(["--workload", "serve-diurnal", "--seconds", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is True
