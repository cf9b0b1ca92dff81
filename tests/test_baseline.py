import math

import pytest

from signet.baseline import analytic_triangle_distribution, stcl_generate
from signet.errors import EmptyGraphError
from signet.graph import build_graph
from signet.metrics import stats_report
from tests.conftest import power_law_signed_graph


def test_analytic_distribution_eta_half():
    d = analytic_triangle_distribution(0.5)
    assert d.as_dict() == pytest.approx(
        {"+++": 0.125, "++-": 0.375, "+--": 0.375, "---": 0.125}
    )


def test_analytic_distribution_eta_one():
    d = analytic_triangle_distribution(1.0)
    assert (d.p_ppp, d.p_ppm, d.p_pmm, d.p_mmm) == (1.0, 0.0, 0.0, 0.0)


def test_analytic_distribution_bitcoin_otc_eta():
    d = analytic_triangle_distribution(0.867)
    assert round(d.p_ppp, 3) == 0.652
    assert round(d.p_ppm, 3) == 0.300
    assert round(d.p_pmm, 3) == 0.046
    assert round(d.p_mmm, 3) == 0.002


@pytest.mark.parametrize("eta", [0.0, 0.1, 0.33, 0.5, 0.867, 0.99, 1.0])
def test_analytic_distribution_sums_to_one(eta):
    d = analytic_triangle_distribution(eta)
    assert sum(d.as_dict().values()) == pytest.approx(1.0, abs=1e-12)


def test_stcl_eta_one_all_positive():
    g = power_law_signed_graph(200, 800, seed=1, eta=1.0)
    # Force all-positive input so eta = 1.
    out = stcl_generate(g, rho=0.3, seed=0)
    assert out.m_positive == out.m


def test_stcl_empty_graph_is_empty_graph_error():
    # As for generate: eta is undefined without edges.
    with pytest.raises(EmptyGraphError):
        stcl_generate(build_graph([], n=3), rho=0.3, seed=0)


def test_stcl_sign_fraction_matches_eta():
    g = power_law_signed_graph(500, 2500, seed=2, eta=0.8)
    eta = g.m_positive / g.m
    out = stcl_generate(g, rho=0.3, seed=3)
    frac = out.m_positive / out.m
    assert abs(frac - eta) < 3.5 * math.sqrt(eta * (1 - eta) / out.m)


def test_stcl_balanced_fraction_matches_analytic():
    g = power_law_signed_graph(1500, 7000, seed=4, eta=0.85, gamma=3.0)
    eta = g.m_positive / g.m
    expected = analytic_triangle_distribution(eta).balanced
    fracs = []
    for r in range(5):
        s = stats_report(stcl_generate(g, rho=0.4, seed=50 + r))
        if s.census.total > 0:
            fracs.append(s.delta_b)
    assert fracs
    mean = sum(fracs) / len(fracs)
    assert abs(mean - expected) < 0.05
