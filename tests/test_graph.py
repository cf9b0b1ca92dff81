import gc
import itertools
import math
import operator
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signet.errors import DuplicateEdgeError, EmptyGraphError, SelfLoopError
from signet.graph import (
    MAX_VERTEX_ID,
    Sign,
    build_graph,
    build_sampling_vector,
    canonical_pair,
)
from signet.io import read_graph, write_canonical
from tests.conftest import neighbor_rows, power_law_signed_graph


def tuple_dict_build_graph(edge_triples, n=None, labels=None):
    """The per-edge build that the column build replaced, kept as the
    oracle of its contract: returns (n, edges, adjacency rows, labels).
    Like the column build, it takes integer values only and rejects any
    other value before it checks an edge."""
    for value in itertools.chain.from_iterable(edge_triples):
        operator.index(value)
    edges = []
    seen = set()
    max_id = -1
    for u, v, s in edge_triples:
        if u < 0 or v < 0:
            raise ValueError(f"negative vertex id in edge ({u}, {v})")
        if u == v:
            raise SelfLoopError(u)
        pair = canonical_pair(u, v)
        if pair in seen:
            raise DuplicateEdgeError(*pair)
        seen.add(pair)
        try:
            sign = {1: Sign.POSITIVE, -1: Sign.NEGATIVE}[s]
        except (KeyError, TypeError):
            sign = Sign(s)
        edges.append((pair[0], pair[1], sign))
        max_id = max(max_id, pair[1])
    count = (max_id + 1) if n is None else n
    if count < max_id + 1:
        raise ValueError(f"n={count} too small for max vertex id {max_id}")
    adj = [dict() for _ in range(count)]
    for u, v, s in edges:
        adj[u][v] = s
        adj[v][u] = s
    rows = [list(a) for a in adj]
    return count, tuple(edges), rows, tuple(labels) if labels is not None else None


def outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except Exception as exc:  # the error is the outcome being compared
        return type(exc), str(exc)


def test_sign_product_rule():
    assert Sign.POSITIVE * Sign.POSITIVE > 0
    assert Sign.NEGATIVE * Sign.NEGATIVE > 0
    assert Sign.POSITIVE * Sign.NEGATIVE < 0


def test_build_graph_basic():
    g = build_graph([(0, 1, Sign.POSITIVE), (1, 2, Sign.NEGATIVE)])
    assert g.n == 3
    assert g.m == 2
    assert g.m_positive == 1
    assert g.edges == ((0, 1, Sign.POSITIVE), (1, 2, Sign.NEGATIVE))
    assert g.u.dtype == g.v.dtype == np.int64 and g.sign.dtype == np.int8
    assert g.sign.tolist() == [1, -1]


def test_build_graph_duplicate_after_canonicalization():
    with pytest.raises(DuplicateEdgeError):
        build_graph([(0, 1, Sign.POSITIVE), (1, 0, Sign.NEGATIVE)])


def test_build_graph_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph([(2, 2, Sign.POSITIVE)])


@pytest.mark.parametrize("bad", [0, 2, "x", None, [1], 1.0, 0.5])
def test_build_graph_rejects_bad_sign(bad):
    # An int that Sign rejects, or a list (no row of three), is a
    # ValueError; a sign that is not an integer is a TypeError.
    error = ValueError if isinstance(bad, (int, list)) else TypeError
    with pytest.raises(error):
        build_graph([(0, 1, bad)])


@pytest.mark.parametrize("value, sign", [
    (True, Sign.POSITIVE), (1.0, Sign.POSITIVE), (-1.0, Sign.NEGATIVE),
    (1, Sign.POSITIVE), (-1, Sign.NEGATIVE), (Sign.NEGATIVE, Sign.NEGATIVE),
])
def test_build_graph_accepts_what_sign_accepts(value, sign):
    # Integer signs only: a float is refused even where Sign(value) works.
    if isinstance(value, float):
        with pytest.raises(TypeError):
            build_graph([(0, 1, value)])
        return
    (edge,) = build_graph([(0, 1, value)]).edges
    assert edge[2] is sign


@given(st.one_of(
    st.integers(-3, 3), st.floats(allow_nan=True), st.booleans(), st.none(),
    st.text(max_size=3), st.lists(st.integers(-2, 2), max_size=2),
))
@settings(max_examples=300, deadline=None)
def test_build_graph_sign_validation_equals_sign_constructor(value):
    # An integer sign is valid iff Sign accepts it; any other scalar is a
    # TypeError, and a list is no row of three, a ValueError.
    if not isinstance(value, (int, list)):
        with pytest.raises(TypeError):
            build_graph([(0, 1, value)])
        return
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
    assert g.degrees().tolist() == [1, 1, 0, 0, 0]


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
    for v, d in enumerate(g.degrees()):
        p = d / (2 * g.m)
        tol = 4 * math.sqrt(p * (1 - p) / trials)
        assert abs(counts.get(v, 0) / trials - p) <= tol


# Integer, bool and Sign signs, plus scalars that are not integers; both
# builds refuse the latter with a TypeError before any edge is checked.
SIGN_VALUES = st.one_of(
    st.sampled_from([1, -1, Sign.POSITIVE, Sign.NEGATIVE, True]),
    st.integers(-2, 2),
    st.sampled_from([1.0, -1.0]), st.floats(allow_nan=True), st.none(), st.text(max_size=2),
)


@given(
    st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7), SIGN_VALUES), max_size=12),
    st.one_of(st.none(), st.integers(0, 10)),
    st.booleans(),
)
@settings(max_examples=500, deadline=None)
def test_build_graph_equals_tuple_dict_oracle(triples, n, labelled):
    labels = [f"x{i}" for i in range(20)] if labelled else None
    expected = outcome(tuple_dict_build_graph, triples, n=n, labels=labels)
    got = outcome(build_graph, triples, n=n, labels=labels)
    if expected[0] is TypeError:
        assert type(got) is tuple and got[0] is TypeError  # worded differently
        return
    if isinstance(expected[0], type):
        assert got == expected
        return
    count, edges, rows, kept = expected
    assert (got.n, got.edges, got.labels) == (count, edges, kept)
    assert neighbor_rows(got) == rows
    assert got.degrees().tolist() == [len(r) for r in rows]


@pytest.mark.parametrize("triples, n", [
    ([(0, 1, 1), (3, 3, 1), (1, 0, 1)], None),  # self-loop before duplicate
    ([(0, 1, 1), (1, 0, 1), (3, 3, 1)], None),  # duplicate before self-loop
    ([(0, 1, 2), (-1, 2, 1)], None),  # bad sign on an earlier edge
    ([(-1, -1, 0)], None),  # negative id checked before the self-loop
    ([(2, 2, 0)], None),  # self-loop checked before the sign
    ([(0, 1, 1), (1, 0, 0)], None),  # duplicate checked before the sign
    ([(4, 1, 1.5)], None),  # a float sign is refused, not truncated
    ([(0, 9, 1)], 5),
    ([(0, 1, 2), (4, 1, 1.5)], None),  # ... before any edge is checked
])
def test_build_graph_reports_first_offence_like_oracle(triples, n):
    expected = outcome(tuple_dict_build_graph, triples, n=n)
    assert isinstance(expected[0], type)
    got = outcome(build_graph, triples, n=n)
    if expected[0] is TypeError:
        assert type(got) is tuple and got[0] is TypeError  # worded differently
    else:
        assert got == expected


def test_build_graph_accepts_any_triple_sequence():
    g = build_graph([[0, 1, 1], (1, 2, -1)])
    assert g.edges == ((0, 1, Sign.POSITIVE), (1, 2, Sign.NEGATIVE))
    for dtype in (np.int64, np.int8):
        assert build_graph(np.array([[0, 1, 1], [2, 1, -1]], dtype)).edges == g.edges
    with pytest.raises(ValueError):
        build_graph([(0, 1)])
    with pytest.raises(TypeError):
        build_graph([(0, 1.0, 1)])
    with pytest.raises(TypeError):
        build_graph(iter([(0, 1, 1)]))


def test_build_graph_vertex_id_bound():
    g = build_graph([(0, MAX_VERTEX_ID, 1)])
    assert g.n == MAX_VERTEX_ID + 1
    with pytest.raises(ValueError, match="too large"):
        build_graph([(0, MAX_VERTEX_ID + 1, 1)])


def test_rows_keep_edge_order():
    g = build_graph([(3, 1, 1), (0, 3, -1), (2, 3, 1), (1, 0, 1)])
    assert neighbor_rows(g) == [[3, 1], [3, 0], [3], [1, 0, 2]]


@pytest.fixture(scope="module")
def written_20k(tmp_path_factory):
    g = power_law_signed_graph(6000, 20000, seed=21, gamma=2.5)
    path = tmp_path_factory.mktemp("mem") / "g.tsv"
    write_canonical(g, path)
    return g, path


def test_read_graph_retains_at_most_64_bytes_per_edge(written_20k):
    g, path = written_20k
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        read = read_graph(path)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert read.m == g.m > 19_000
    assert retained <= 64 * read.m


def test_build_graph_adds_no_tracked_object_per_edge(written_20k):
    g, _ = written_20k
    triples = list(g.edges)
    gc.collect()
    before = len(gc.get_objects())
    built = build_graph(triples, n=g.n)
    added = len(gc.get_objects()) - before
    assert built.m == g.m
    assert added <= 10
