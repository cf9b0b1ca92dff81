import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signet import evaluate as evaluate_module
from signet.baseline import stcl_generate
from signet.evaluate import EvaluationReport, evaluate, ks_statistic, triangle_l1
from signet.generate import generate
from signet.io import write_canonical
from signet.learn import LearnConfig, ModelParams, learn_parameters
from signet.metrics import stats_report
from tests.conftest import power_law_signed_graph


def test_ks_identical_distributions():
    assert ks_statistic([1, 2, 2, 3], [1, 2, 2, 3]) == 0.0


def test_ks_disjoint_supports():
    assert ks_statistic([1, 1, 1], [5, 5, 5]) == 1.0


def test_ks_known_value():
    # ECDFs: a jumps to 1 at 1; b jumps 0.5 at 1 and 1.0 at 2.
    assert ks_statistic([1, 1], [1, 2]) == pytest.approx(0.5)


def ks_union_grid(degrees_a, degrees_b):
    """The KS statistic read on the union of both samples' values, each
    CDF found by a binary search in its sorted sample."""
    a = np.sort(np.asarray(degrees_a, dtype=np.float64))
    b = np.sort(np.asarray(degrees_b, dtype=np.float64))
    grid = np.union1d(a, b)
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


degree_lists = st.lists(st.integers(0, 60) | st.integers(0, 5000), min_size=1, max_size=80)


@given(degree_lists, degree_lists)
@example([0], [0])
@example([0], [7])
@example([3], [0, 0, 0, 3, 3, 9])
@settings(max_examples=300, deadline=None)
def test_ks_equals_the_union_grid_form(a, b):
    assert ks_statistic(a, b) == ks_union_grid(a, b)
    assert ks_statistic(tuple(a), np.array(b)) == ks_union_grid(a, b)


@pytest.mark.parametrize("bad", [
    [], [1.0, 2.0], [-1, 2], [True], [2**64], np.array([1], np.uint64), ["1"], [[1, 2]],
])
def test_ks_refuses_anything_but_non_negative_integers(bad):
    with pytest.raises(ValueError):
        ks_statistic(bad, [1, 2])
    with pytest.raises(ValueError):
        ks_statistic([1, 2], bad)


def test_triangle_l1_symmetry_and_zero():
    a = {"+++": 0.7, "++-": 0.2, "+--": 0.08, "---": 0.02}
    b = {"+++": 0.6, "++-": 0.3, "+--": 0.06, "---": 0.04}
    assert triangle_l1(a, a) == 0.0
    assert triangle_l1(a, b) == pytest.approx(triangle_l1(b, a))
    assert triangle_l1(a, b) == pytest.approx(0.1 + 0.1 + 0.02 + 0.02)


def test_evaluate_mean_block_is_arithmetic_mean():
    g = power_law_signed_graph(300, 1200, seed=1, eta=0.85)
    params = ModelParams(rho=0.3, alpha=0.85, beta=0.9, eta=0.85, delta_b=0.8)
    runs = [generate(g, params, seed=10 + r) for r in range(4)]
    report = evaluate(g, runs)
    assert len(report.runs) == 4
    for key in ("abs_eta_diff", "abs_delta_b_diff", "triangle_l1", "degree_ks"):
        expected = float(np.mean([r["deltas"][key] for r in report.runs]))
        assert report.mean[key] == pytest.approx(expected)


def test_evaluate_fields_all_finite():
    g = power_law_signed_graph(300, 1200, seed=2, eta=0.85)
    params = ModelParams(rho=0.3, alpha=0.85, beta=0.9, eta=0.85, delta_b=0.8)
    report = evaluate(g, [generate(g, params, seed=3)])
    for r in report.runs:
        for v in r["deltas"].values():
            assert np.isfinite(v)
    for v in report.mean.values():
        assert np.isfinite(v)


def test_pipeline_lists_the_input_once(listings):
    # For its stats; learn reads that listing and evaluate the stats.
    g = power_law_signed_graph(300, 1200, seed=4, eta=0.85)
    stats = stats_report(g)
    params = learn_parameters(g, LearnConfig(seed=1))
    nets = [generate(g, params, seed=s) for s in (1, 2)]
    report = evaluate(g, nets)
    assert listings == [g, *nets]
    assert report.input_stats["triangles_total"] == stats.census.total


def test_evaluate_reads_the_input_degrees_as_one_array(monkeypatch):
    g = power_law_signed_graph(300, 1200, seed=6, eta=0.85)
    params = ModelParams(rho=0.5, alpha=0.85, beta=0.9, eta=0.85, delta_b=0.8)
    nets = [generate(g, params, seed=s) for s in (1, 2, 3)]
    seen = []

    def spy(a, b):
        seen.append(a)
        return ks_statistic(a, b)

    monkeypatch.setattr(evaluate_module, "ks_statistic", spy)
    report = evaluate(g, nets)
    assert isinstance(seen[0], np.ndarray) and all(a is seen[0] for a in seen)
    expected = [ks_statistic(stats_report(g).degrees, stats_report(h).degrees) for h in nets]
    got = [r["deltas"]["degree_ks"] for r in report.runs]
    assert list(map(float.hex, got)) == list(map(float.hex, expected))


def test_evaluate_leaves_no_listing_on_a_network():
    g = power_law_signed_graph(300, 1200, seed=6, eta=0.85)
    params = ModelParams(rho=0.5, alpha=0.85, beta=0.9, eta=0.85, delta_b=0.8)
    net = generate(g, params, seed=1)
    evaluate(g, [net])
    assert net._stats is not None and net._triangles is None
    assert g._triangles is not None  # kept for learn


def test_a_batch_and_its_stcl_twins_list_each_topology_once(listings):
    g = power_law_signed_graph(300, 1200, seed=5, eta=0.85)
    params = ModelParams(rho=0.5, alpha=0.85, beta=0.9, eta=0.85, delta_b=0.8)
    nets = [generate(g, params, seed=s) for s in (1, 2)]
    twins = [stcl_generate(g, params.rho, s) for s in (1, 2)]
    assert listings == nets  # each twin was measured from its network
    evaluate(g, nets)
    report = evaluate(g, twins)
    assert listings == [*nets, g]
    alone = evaluate(g, [dataclasses.replace(t) for t in twins])
    assert report.to_dict() == alone.to_dict()


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    write_canonical(power_law_signed_graph(150, 500, seed=2, eta=0.85), tmp_path / "input.tsv")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(snippet, scope)
    report = scope["report"]
    assert isinstance(report, EvaluationReport)
    assert len(report.runs) == len(scope["runs"]) > 0
