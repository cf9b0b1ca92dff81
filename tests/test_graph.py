import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signet.errors import DuplicateEdgeError, EmptyGraphError, SelfLoopError
from signet.graph import Sign, build_graph, build_sampling_vector


def test_sign_product_rule():
    assert Sign.POSITIVE * Sign.POSITIVE > 0
    assert Sign.NEGATIVE * Sign.NEGATIVE > 0
    assert Sign.POSITIVE * Sign.NEGATIVE < 0


def test_build_graph_basic():
    g = build_graph([(0, 1, Sign.POSITIVE), (1, 2, Sign.NEGATIVE)])
    assert g.n == 3
    assert g.m == 2
    assert g.m_positive == 1
    assert g.sign(1, 0) is Sign.POSITIVE
    assert g.sign(2, 1) is Sign.NEGATIVE


def test_build_graph_duplicate_after_canonicalization():
    with pytest.raises(DuplicateEdgeError):
        build_graph([(0, 1, Sign.POSITIVE), (1, 0, Sign.NEGATIVE)])


def test_build_graph_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph([(2, 2, Sign.POSITIVE)])


@pytest.mark.parametrize("bad", [0, 2, "x", None, [1]])
def test_build_graph_rejects_bad_sign(bad):
    with pytest.raises(ValueError):
        build_graph([(0, 1, bad)])


@pytest.mark.parametrize("value, sign", [
    (True, Sign.POSITIVE), (1.0, Sign.POSITIVE), (-1.0, Sign.NEGATIVE),
    (1, Sign.POSITIVE), (-1, Sign.NEGATIVE), (Sign.NEGATIVE, Sign.NEGATIVE),
])
def test_build_graph_accepts_what_sign_accepts(value, sign):
    (edge,) = build_graph([(0, 1, value)]).edges
    assert edge[2] is sign


@given(st.one_of(
    st.integers(-3, 3), st.floats(allow_nan=True), st.booleans(), st.none(),
    st.text(max_size=3), st.lists(st.integers(-2, 2), max_size=2),
))
@settings(max_examples=300, deadline=None)
def test_build_graph_sign_validation_equals_sign_constructor(value):
    try:
        expected = Sign(value)
    except ValueError:
        with pytest.raises(ValueError):
            build_graph([(0, 1, value)])
        return
    (edge,) = build_graph([(0, 1, value)]).edges
    assert edge[2] is expected


def test_build_graph_n_override_keeps_isolated_vertices():
    g = build_graph([(0, 1, Sign.POSITIVE)], n=5)
    assert g.n == 5
    assert g.degree(4) == 0


def test_sampling_vector_path():
    g = build_graph([(0, 1, Sign.POSITIVE), (1, 2, Sign.POSITIVE)])
    assert sorted(build_sampling_vector(g)) == [0, 1, 1, 2]


def test_sampling_vector_triangle(k3_mixed):
    assert Counter(build_sampling_vector(k3_mixed)) == {0: 2, 1: 2, 2: 2}


def test_sampling_vector_star():
    # K_{1,3}: center appears 3 times, each leaf once.
    g = build_graph([(0, i, Sign.POSITIVE) for i in (1, 2, 3)])
    assert Counter(build_sampling_vector(g)) == {0: 3, 1: 1, 2: 1, 3: 1}


def test_sampling_vector_empty_graph():
    g = build_graph([], n=3)
    with pytest.raises(EmptyGraphError):
        build_sampling_vector(g)


@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)),
        min_size=1,
        max_size=120,
    )
)
def test_degree_sum_and_multiplicities(pairs):
    seen = set()
    triples = []
    for u, v in pairs:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        triples.append((u, v, Sign.POSITIVE))
    if not triples:
        return
    g = build_graph(triples)
    degrees = g.degrees()
    assert sum(degrees) == 2 * g.m
    pi = build_sampling_vector(g)
    assert len(pi) == 2 * g.m
    counts = Counter(pi)
    for v, d in enumerate(degrees):
        assert counts.get(v, 0) == d


def test_uniform_endpoint_draw_frequencies():
    # Seeded statistical check: observed vertex frequency within
    # 4 sqrt(p(1-p)/T) of p = d_i / 2M.
    g = build_graph(
        [(0, 1, Sign.POSITIVE), (0, 2, Sign.POSITIVE), (0, 3, Sign.NEGATIVE),
         (1, 2, Sign.POSITIVE)]
    )
    pi = build_sampling_vector(g)
    rng = random.Random(7)
    trials = 100_000
    counts = Counter(pi[rng.randrange(len(pi))] for _ in range(trials))
    for v in range(g.n):
        p = g.degree(v) / (2 * g.m)
        tol = 4 * math.sqrt(p * (1 - p) / trials)
        assert abs(counts.get(v, 0) / trials - p) <= tol
