import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signet.errors import DegenerateDegreesError
from signet.estimators import (
    delta_random_balanced,
    delta_random_fast,
    delta_triangle_fast,
    suffix_degree_sums,
)
from signet.graph import Sign, build_graph
from tests.conftest import (
    delta_random_exact,
    delta_random_nested,
    delta_triangle_exact,
)


def test_suffix_sums_recursion():
    d = [3, 1, 4, 1, 5]
    s = suffix_degree_sums(d)
    assert s[-1] == 0
    for i in range(1, len(d)):
        assert s[i - 1] - s[i] == d[i]


def test_delta_random_fast_regular_cycle():
    d = [2] * 10
    m = 10
    assert delta_random_fast(d, m) == pytest.approx(delta_random_nested(d, m), rel=1e-12)


def test_delta_random_fast_star():
    d = [3, 1, 1, 1]
    assert delta_random_fast(d, 3) == pytest.approx(
        delta_random_nested(d, 3), rel=1e-12
    )


def test_delta_random_fast_two_vertices():
    # Smallest legal input: single edge, sum has exactly one term.
    val = delta_random_fast([1, 1], 1)
    assert np.isfinite(val)
    assert val == pytest.approx(0.0)  # avg(d^2) == avg(d) for all-ones


def test_delta_random_all_zero_degrees():
    with pytest.raises(DegenerateDegreesError):
        delta_random_fast([0, 0, 0], 1)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_fast_equals_nested_on_random_sequences(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 60)
    d = [rng.randint(0, 12) for _ in range(n)]
    if sum(d) == 0:
        d[0] = 1
    m = max(1, sum(d) // 2)
    assert delta_random_fast(d, m) == pytest.approx(
        delta_random_nested(d, m), rel=1e-12, abs=1e-15
    )


def test_exact_zero_when_no_common_neighbor_possible():
    # All degrees <= 1: d_l (d_l - 1) = 0 everywhere.
    assert delta_random_exact([1, 1, 1, 1], 2) == 0.0


def test_exact_cycle_triple_loop():
    # Literal triple-loop value on a 6-cycle, computed independently here.
    d = [2] * 6
    m = 6
    two_m = 2 * m
    total = 0.0
    pairs = 0
    for i in range(5):
        for j in range(i + 1, 6):
            inner = sum(
                d[l] * (d[l] - 1) / two_m for l in range(6) if l not in (i, j)
            )
            total += (d[i] * d[j] / two_m) * inner
            pairs += 1
    assert delta_random_exact(d, m) == pytest.approx(total / pairs, rel=1e-12)


def test_fast_vs_exact_dropped_term_bound():
    # The fast path treats the inner sum as including i and j; the gap is
    # bounded by the largest two dropped d_l (d_l - 1) terms.
    rng = random.Random(1)
    n = 100
    g_edges = set()
    while len(g_edges) < int(0.1 * n * (n - 1) / 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g_edges.add((min(u, v), max(u, v)))
    deg = [0] * n
    for u, v in g_edges:
        deg[u] += 1
        deg[v] += 1
    m = len(g_edges)
    exact = delta_random_exact(deg, m)
    fast = delta_random_fast(deg, m)
    terms = sorted(d * (d - 1) for d in deg)
    avg_pair_weight = float(
        np.mean([deg[i] for i in range(n)]) ** 2
    )  # loose but sufficient scale bound
    bound = (terms[-1] + terms[-2]) / (2 * m) * avg_pair_weight / (2 * m)
    assert abs(fast - exact) <= bound + 1e-9


@pytest.mark.parametrize(
    "eta,alpha,expected_coeff",
    [(1.0, 1.0, 1.0), (1.0, 0.0, 0.0), (0.5, 0.3, 0.5), (0.5, 0.9, 0.5)],
)
def test_delta_random_balanced_coefficients(eta, alpha, expected_coeff):
    assert delta_random_balanced(2.0, eta, alpha) == pytest.approx(
        expected_coeff * 2.0
    )


def test_delta_random_balanced_monotone_in_alpha():
    # Monotone increasing in alpha when eta != 0.5 favors same-sign wedges.
    for eta in (0.2, 0.8):
        vals = [delta_random_balanced(1.0, eta, a) for a in np.linspace(0, 1, 11)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    # At eta = 0.5 the value is flat in alpha.
    flat = [delta_random_balanced(1.0, 0.5, a) for a in np.linspace(0, 1, 11)]
    assert max(flat) - min(flat) < 1e-12


def test_delta_triangle_matching_exactly_one():
    # Perfect matching: every d_i = 1, the implicit term vanishes.
    assert delta_triangle_fast([1] * 6, 3) == pytest.approx(1.0)


def test_delta_triangle_at_least_one_for_positive_degrees():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(3, 80)
        d = [rng.randint(1, 10) for _ in range(n)]
        m = max(2, sum(d) // 2)
        assert delta_triangle_fast(d, m) >= 1.0


def test_delta_triangle_fast_matches_exact_form():
    # Fast form equals the pair-averaged discounted-degree form with the
    # inner sum approximated; compare against the literal oracle within the
    # dropped-term scale.
    d = [2] * 10
    m = 10
    fast = delta_triangle_fast(d, m)
    exact = delta_triangle_exact(d, m)
    # Regular graph: dropped terms are 3 copies of d(d-1)/2M = 2/20 each,
    # weighted by (d_i-1)(d_j-1)/2M = 1/20.
    assert abs(fast - exact) <= 3 * (2 / 20) * (1 / 20) + 1e-12


def test_k3_fast_estimates(k3_positive):
    d = k3_positive.degrees()
    arr = np.asarray(d, dtype=np.float64)
    assert arr.mean() == pytest.approx(2.0)
    assert (arr * arr).mean() == pytest.approx(4.0)
    # (avg_d2 - avg_d) / (avg_d M N (N-1)) = 1/18 against sum d_i s_i = 12
    # and sum (d_i - 1)(s_i - N + i) = 3.
    dr = delta_random_fast(d, 3)
    assert dr == pytest.approx(2 / 3)
    assert delta_triangle_fast(d, 3) == pytest.approx(7 / 6)
    drb = delta_random_balanced(dr, eta=1.0, alpha=1.0)
    assert drb == pytest.approx(dr)
    assert 0 <= drb <= dr + 1e-15


def test_duplicated_graph_keeps_degree_moments():
    g = build_graph(
        [(0, 1, Sign.POSITIVE), (1, 2, Sign.NEGATIVE), (0, 2, Sign.POSITIVE)]
    )
    doubled = build_graph(
        [(u, v, s) for u, v, s in g.edges]
        + [(u + 3, v + 3, s) for u, v, s in g.edges],
        n=6,
    )
    d1 = np.asarray(g.degrees(), dtype=np.float64)
    d2 = np.asarray(doubled.degrees(), dtype=np.float64)
    assert d1.mean() == pytest.approx(d2.mean())
    assert (d1 * d1).mean() == pytest.approx((d2 * d2).mean())


def fsum_estimates(degrees, m):
    """delta_random_fast and delta_triangle_fast with their suffix dots
    summed by math.fsum over float products, the compensated branch the
    exact int64 dots replaced."""
    d = np.asarray(degrees, dtype=np.float64)
    n = len(d)
    s = np.zeros_like(d)
    s[:-1] = np.cumsum(d[::-1])[::-1][1:]
    avg_d = d.mean()
    avg_d2 = float((d * d).mean())
    scale = (avg_d2 - avg_d) / (avg_d * m * n * (n - 1))
    total = math.fsum(float(w) * float(v) for w, v in zip(d, s))
    idx = np.arange(1, n + 1, dtype=np.float64)
    extra = math.fsum(float(w) * float(v) for w, v in zip(d - 1.0, s - n + idx))
    return float(scale * total), float(1.0 + scale * extra)


@pytest.mark.parametrize("n", [2_000, 99_999, 100_001, 160_000])
def test_suffix_dots_equal_fsum_oracle(n):
    # Power-law degrees with isolated vertices (d - 1 = -1) and large hubs.
    rng = np.random.default_rng(n)
    d = np.minimum(np.floor(rng.pareto(1.1, n)), 50_000).astype(np.int64)
    d[0] += int(d.sum() % 2)
    m = int(d.sum()) // 2
    assert (delta_random_fast(d, m), delta_triangle_fast(d, m)) == fsum_estimates(d, m)
