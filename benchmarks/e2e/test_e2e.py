"""Self-tests of the end-to-end benchmark, on tiny graphs and sub-second runs."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

import run
import tracing
import workloads
from repro.analysis import montecarlo

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMOKE = ["--scale", "0.02", "--seconds", "0.2"]


def invoke(*arguments: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), *arguments],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec() -> dict:
    return run.load_spec()


def test_smoke_of_every_workload(spec):
    result = invoke(*SMOKE)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.WORKLOADS)
    for metrics in result["metrics"].values():
        assert set(metrics) == {entry["name"] for entry in spec["end_to_end"]}
        assert all(metric["value"] > 0 for metric in metrics.values())


def test_names_match_benchmark_json(spec):
    assert [entry["name"] for entry in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [entry["name"] for entry in spec["per_layer"]] == list(tracing.LAYERS)
    assert spec["paths"] == ["benchmarks/e2e"]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_wrong_result_is_counted_as_failed(monkeypatch):
    plan = workloads.e1_batch(seed=1, scale=0.02)
    correct = montecarlo.run_trials

    def wrong_when_serial(*args, **kwargs):
        sample = correct(*args, **kwargs)
        if kwargs.get("batch") is False:
            sample = montecarlo.SpreadingTimeSample(
                protocol=sample.protocol, graph_name=sample.graph_name,
                num_vertices=sample.num_vertices, source=sample.source,
                times=(sample.times[0] + 1.0,) + sample.times[1:],
            )
        return sample

    monkeypatch.setattr(montecarlo, "run_trials", wrong_when_serial)
    timed = run.run_passes(plan, seconds=0.0)
    assert timed["failures"] == []
    failures = plan.check(timed["first"])
    assert len(failures) == len(workloads.E1_PROTOCOLS)
    assert all("batch=False" in line for line in failures)


def test_traced_run_reports_every_layer(spec):
    result = invoke("--workload", "e1-batch", "--trace", "1", *SMOKE)
    metrics = result["metrics"]
    assert result["correct"]
    assert list(metrics) == [entry["name"] for entry in spec["per_layer"]]
    assert metrics["core.kernels.calls"]["value"] > 0
    cells_per_pass = len(workloads.E1_FAMILIES) * len(workloads.E1_SIZES) * len(workloads.E1_PROTOCOLS)
    assert metrics["core.batch_engine.calls"]["value"] == cells_per_pass
    assert 0.0 <= metrics["trace.unattributed_frac"]["value"] < 1.0


def test_compare_verdicts(tmp_path, capsys):
    def report(path, trials_per_s, spread):
        summary = {"trials_per_s": {"median": trials_per_s, "q1": 0, "q3": 0, "spread": spread}}
        path.write_text(json.dumps({"workloads": {"e1-batch": {"summary": summary}}}))
        return str(path)

    parent = report(tmp_path / "a.json", 1000.0, 0.01)
    assert run.compare(parent, report(tmp_path / "b.json", 1010.0, 0.01)) == 0
    assert run.compare(parent, report(tmp_path / "c.json", 500.0, 0.01)) == 1
    assert run.compare(parent, report(tmp_path / "d.json", 500.0, 0.9)) == 0
    verdicts = [line.split()[-1] for line in capsys.readouterr().out.splitlines() if "e1-batch" in line]
    assert verdicts == ["no-worse", "worse", "unresolved"]
