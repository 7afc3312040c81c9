"""Tests of the benchmark itself: span arithmetic, clean instrumentation and
output checks. Run with ``python -m pytest bench``."""

import json
import os
from dataclasses import replace

import pytest

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny_bench(tmp_path, seed=1) -> workloads.Bench:
    """Desk workload at toy sizes, so without golden digests."""
    wl = workloads.make_workload("desk_cold", seed)
    wl = replace(wl, cfg=workloads.warmup_config(wl.cfg))
    return workloads.Bench(wl, str(tmp_path), golden=None)


def test_self_times_of_a_synthetic_span_tree():
    spans = [
        ["harness.runner.game", 0.0, 10.0, -1],
        ["poisoner.adapt", 1.0, 5.0, 0],
        ["harness.runner.many", 2.0, 4.5, 1],
        ["nncore.train", 2.5, 4.0, 2],
        ["attack.score", 6.0, 9.0, 0],
        ["attack.query", 6.5, 8.0, 4],
        ["metrics.report", 9.0, 9.8, 0],
        ["metrics.report", 9.2, 9.6, 6],
    ]
    assert tracer.self_times(spans) == pytest.approx(
        [2.2, 1.5, 1.0, 1.5, 1.5, 1.5, 0.4, 0.4])
    summary = tracer.summarize(spans)
    assert summary["layers"] == pytest.approx({
        "harness.runner": 3.2, "poisoner": 1.5, "nncore": 1.5,
        "attack": 3.0, "metrics": 0.8})
    assert sum(summary["layers"].values()) == pytest.approx(10.0)
    report = summary["names"]["metrics.report"]
    # The nested call is counted, but its time only once.
    assert (report["calls"], report["s"]) == (2, pytest.approx(0.8))
    assert summary["names"]["attack.score"]["s"] == pytest.approx(3.0)


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = {(owner, attr): vars(owner)[attr]
              for owner, attr in tracer.wrapped_attributes()}
    with pytest.raises(RuntimeError):
        with tracer.instrument(tracer.Tracer()):
            assert all(vars(owner)[attr] is not fn for (owner, attr), fn in before.items())
            raise RuntimeError("a game that fails mid-way")
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in before.items())

    bench = tiny_bench(tmp_path)
    values, report = bench.trace()
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in before.items())
    assert (bench.attempted, bench.failed) == (2, 0)
    assert all(report["checks"].values()), report["checks"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        declared = {m["name"] for m in json.load(f)["per_layer"]}
    assert set(values) == declared
    assert values["nncore.train_calls"] > 0 and values["nncore.logit_calls"] > 0
    assert values["attack.label_queries"] == 2 * 4 * (4 + 1 + 1)


def test_tampered_scores_csv_counts_as_a_failed_game(tmp_path, monkeypatch):
    bench = tiny_bench(tmp_path)
    assert bench.game()[0] is not None and bench.failed == 0

    play = workloads.run_privacy_game

    def play_then_tamper(cfg, out_dir, cache_dir):
        result = play(cfg, out_dir, cache_dir)
        path = os.path.join(out_dir, "scores.csv")
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
        attack, index, model, truth, score = lines[1].split(",")
        lines[1] = ",".join([attack, index, model, truth, repr(1.0 - float(score))])
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        return result

    monkeypatch.setattr(workloads, "run_privacy_game", play_then_tamper)
    assert bench.game()[0] is not None
    assert (bench.attempted, bench.failed) == (2, 1)


def test_golden_digests_cover_every_workload_and_seed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        names = {w["name"] for w in json.load(f)["workloads"]}
    for name in names:
        for seed in range(workloads.GOLDEN_SEEDS):
            golden = workloads.load_golden(name, seed)
            assert set(golden) == set(workloads.CHECKED_FILES), (name, seed)
    assert workloads.load_golden("desk_cold", workloads.GOLDEN_SEEDS) is None
