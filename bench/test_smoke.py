"""Smoke test of the benchmark itself on a tiny synthesised input.

    python3 -m pytest -q bench/test_smoke.py

It is not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

import json
import time
from pathlib import Path

import pytest

import run
from synth import Shape, canonical_tsv, rating_csv

TINY = run.Workload("tiny", Shape(n0=500, m=1500, gamma=2.5, d_max=60), True, 2, 1, "smoke test")
DETERMINISTIC = ("generate.steps", "generate.vertex_draws", "generate.parks",
                 "learn.em_responsibility_calls", "metrics.census_calls")
SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def untraced():
    return run.run_workload(TINY, seed=3, seconds=0, trace=False, started=time.monotonic())


@pytest.fixture(scope="module")
def traced_pair():
    return [run.run_workload(TINY, seed=3, seconds=0, trace=True, started=time.monotonic())
            for _ in range(2)]


def test_synthesiser_reproduces_bytes_per_seed():
    for synth in (canonical_tsv, rating_csv):
        assert synth(TINY.shape, 5) == synth(TINY.shape, 5)
        assert synth(TINY.shape, 5) != synth(TINY.shape, 6)


def test_every_end_to_end_metric_emitted_with_unit(untraced):
    assert untraced["correct"], untraced["invariant_failures"]
    assert untraced["attempted"] == 1 + TINY.balance + TINY.iid
    emitted = untraced["metrics"]
    for m in SPEC["end_to_end"]:
        value, unit = emitted[m["name"]]
        assert unit == m["unit"]
        assert value is not None and value > 0, m["name"]
    assert set(emitted) == {m["name"] for m in SPEC["end_to_end"]}


def test_every_per_layer_metric_emitted_with_unit(traced_pair):
    emitted = traced_pair[0]["metrics"]
    for m in SPEC["per_layer"]:
        value, unit = emitted[m["name"]]
        assert unit == m["unit"], m["name"]
        assert isinstance(value, (int, float)), m["name"]
    assert set(emitted) == {m["name"] for m in SPEC["per_layer"]}


def test_deterministic_counts_repeat_exactly(traced_pair):
    first, second = (r["metrics"] for r in traced_pair)
    for name in DETERMINISTIC:
        assert first[name][0] == second[name][0] > 0, name


def test_self_times_cover_traced_wall_within_overhead(traced_pair):
    for result in traced_pair:
        t = result["traced"]
        uncovered = t["traced_window_s"] - t["traced_self_s"]
        overhead = result["metrics"]["trace.overhead_s"][0]
        assert uncovered >= 0.0
        assert uncovered <= max(overhead, 0.0) + 0.01 * t["traced_window_s"]
