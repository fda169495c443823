"""Tests for the benchmark itself, at tiny sizes.

They check that each workload runs and that its output checks can fail,
that the warm and fresh suites agree on a shared index prefix, that tracing
is passive and accounts for the whole traced wall time, and that
``BENCHMARK.json`` names exactly what the benchmark prints.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import bench, layers
from repro.http.network import Network
from repro.scenarios.oracle import DifferentialOracle

TINY = bench.Sizes(
    warm_scenarios=3,
    fresh_warmup=1,
    warmup_rounds=1,
    setup_repeats=1,
    parity_prefix=3,
    pass_ops={"suite-warm": 3, "suite-fresh": 2, "fig4-pages": 1},
    min_passes=1,
    probe_iterations=1_000,
)

ROOT = bench.ROOT


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    """Keep reports, records and spans out of the checkout."""
    monkeypatch.setattr(bench, "OUT_DIR", str(tmp_path))
    return tmp_path


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_each_workload_runs_checked_and_reports_every_metric(name):
    result = bench.measure(name, 7, 0.0, TINY)
    assert result.correct, result.report["problems"]
    assert result.attempted >= 1 and result.failed == 0
    assert [key for key, _ in bench.E2E_METRICS] == list(result.metrics)
    assert all(metric["value"] > 0 for metric in result.metrics.values())
    assert result.report["cpu_count"] == os.cpu_count()


def test_corrupted_parity_record_fails_the_run(out_dir):
    assert bench.measure("suite-warm", 3, 0.0, TINY).correct
    record_path = out_dir / "record.json"
    record = json.loads(record_path.read_text())
    for value in record.values():
        value["parity"] = "0" * 64
    record_path.write_text(json.dumps(record))
    result = bench.measure("suite-warm", 3, 0.0, TINY)
    assert not result.correct
    assert any("parity differs" in problem for problem in result.report["problems"])


def test_wrong_ac_tag_count_fails_the_run(monkeypatch):
    real = bench.all_workloads

    def with_wrong_spec(*, nonce_seed):
        pages = real(nonce_seed=nonce_seed)
        first = pages[0]
        first.spec = dataclasses.replace(first.spec, sections=first.spec.sections + 1)
        return pages

    monkeypatch.setattr(bench, "all_workloads", with_wrong_spec)
    result = bench.measure("fig4-pages", 1, 0.0, TINY)
    assert not result.correct
    assert result.failed >= 1
    assert result.metrics["ok_share"]["value"] < 1.0
    assert any("AC tags" in problem for problem in result.report["problems"])


def test_a_failed_verdict_fails_the_run(monkeypatch):
    real = DifferentialOracle.classify

    def rejecting(self, scenario, runs):
        verdict = real(self, scenario, runs)
        verdict.ok = False
        return verdict

    monkeypatch.setattr(DifferentialOracle, "classify", rejecting)
    result = bench.measure("suite-fresh", 1, 0.0, TINY)
    assert not result.correct
    assert result.failed == result.attempted


def test_cross_check_catches_a_digest_mismatch():
    workload = bench.make_workload("suite-warm", 5, TINY)
    workload.build()
    result = workload.op(4)
    index, verdict, columns = result.parity
    tampered = dataclasses.replace(
        result, parity=(index, verdict, (("escudo", "0" * 64) + columns[0][2:],) + columns[1:])
    )
    assert workload.cross_check([result]) == []
    assert workload.cross_check([tampered])


def test_warm_and_fresh_suites_agree_on_a_shared_prefix():
    warm = bench.make_workload("suite-warm", 11, TINY)
    fresh = bench.make_workload("suite-fresh", 11, TINY)
    warm.setup()
    fresh.build()
    for index in range(TINY.warm_scenarios, TINY.warm_scenarios + 4):
        assert warm.op(index).parity == fresh.op(index).parity


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_traced_run_is_passive_and_accounts_for_its_wall_time(name):
    result = bench.measure_traced(name, 2, 0.0, TINY)
    assert result.correct, result.report["problems"]
    assert len(result.report["parity_sha256"]) == 1  # traced == untraced
    values = {key: metric["value"] for key, metric in result.metrics.items()}
    self_keys = [metric[0] for metric in layers.LAYER_METRICS if metric[3][0] == "self"]
    accounted = sum(values[key] for key in self_keys) + values["other.self_ms"]
    assert accounted == pytest.approx(values["trace.wall_ms"], rel=1e-9)
    assert 0 <= values["other.self_ms"] < values["trace.wall_ms"]


def test_every_span_is_counted_by_exactly_one_self_metric():
    covered = [key for metric in layers.LAYER_METRICS if metric[3][0] == "self"
               for key in metric[3][1:]]
    assert sorted(covered) == sorted(layers.span_names())


def test_tracing_restores_every_wrapped_function():
    before = Network.__dict__["dispatch"]
    with layers.installed(layers.Tracer()):
        assert Network.__dict__["dispatch"] is not before
    assert Network.__dict__["dispatch"] is before


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.E2E_METRICS)
    expected_layers = [metric[:3] for metric in layers.LAYER_METRICS] + list(bench.TRACE_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == expected_layers


def test_run_fails_without_the_program_source(tmp_path):
    spec = _benchmark_json()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [*spec["command"], "--workload", "fig4-pages", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
