import dataclasses
import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signet import metrics
from signet.errors import EmptyGraphError
from signet.graph import Sign, SignedGraph, build_graph
from signet.metrics import (
    TriangleCensus,
    compute_eta,
    list_triangles,
    stats_report,
    triangle_census,
)
from tests.conftest import (
    brute_force_census,
    listing_of,
    neighbor_rows,
    power_law_signed_graph,
    random_signed_graph,
    same_measurement,
    sign_lookup,
)


def census_of(g):
    return triangle_census(g, list_triangles(g))


def test_eta_all_positive(k3_positive):
    assert compute_eta(k3_positive) == 1.0


def test_eta_arithmetic():
    g = build_graph(
        [(0, 1, Sign.POSITIVE), (1, 2, Sign.POSITIVE), (2, 3, Sign.POSITIVE),
         (3, 0, Sign.NEGATIVE)]
    )
    assert compute_eta(g) == 0.75


def test_eta_empty_graph():
    with pytest.raises(EmptyGraphError):
        compute_eta(build_graph([], n=2))


def test_census_k3_mixed(k3_mixed):
    census = census_of(k3_mixed)
    assert census.as_counts() == {"+++": 0, "++-": 1, "+--": 0, "---": 0}


def test_census_k4_all_positive():
    g = build_graph(
        [(u, v, Sign.POSITIVE) for u, v in itertools.combinations(range(4), 2)]
    )
    census = census_of(g)
    assert census.ppp == 4
    assert census.total == 4


@pytest.mark.parametrize("seed", range(6))
def test_census_matches_brute_force(seed):
    g = random_signed_graph(60, 0.2, seed=seed)
    assert_census_matches_oracle(g)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_census_matches_brute_force_property(seed):
    g = random_signed_graph(25, 0.25, seed=seed, eta=0.6)
    assert census_of(g).as_counts() == brute_force_census(g)


def test_balanced_iff_sign_product_positive():
    g = random_signed_graph(40, 0.25, seed=3)
    census = census_of(g)
    expected = 0
    sign = sign_lookup(g)
    for a, b, c in itertools.combinations(range(g.n), 3):
        if (a, b) in sign and (b, c) in sign and (a, c) in sign:
            if int(sign[a, b]) * int(sign[b, c]) * int(sign[a, c]) > 0:
                expected += 1
    assert census.balanced == expected


def test_balanced_fraction_values(k3_positive, k3_mixed):
    assert census_of(k3_positive).delta_b == 1.0
    assert census_of(k3_mixed).delta_b == 0.0


def test_balanced_fraction_no_triangles(path3):
    assert census_of(path3).delta_b == 0.0
    assert stats_report(path3).delta_b == 0.0


def test_balanced_fraction_relabeling_invariant():
    g = random_signed_graph(30, 0.3, seed=5)
    perm = list(reversed(range(g.n)))
    relabeled = build_graph(
        [(perm[u], perm[v], s) for u, v, s in g.edges], n=g.n
    )
    assert census_of(relabeled).delta_b == pytest.approx(
        census_of(g).delta_b
    )


def test_sign_flip_swaps_census_counts():
    # Flipping every sign recounts explicitly: +++ <-> ---, ++- <-> +--.
    g = random_signed_graph(40, 0.25, seed=9)
    flipped = build_graph([(u, v, Sign(-int(s))) for u, v, s in g.edges], n=g.n)
    a = census_of(g)
    b = census_of(flipped)
    assert b.as_counts() == {
        "+++": a.mmm, "++-": a.pmm, "+--": a.ppm, "---": a.ppp,
    }
    assert b.balanced == b.ppp + b.pmm


def test_clustering_k3(k3_mixed):
    assert stats_report(k3_mixed).clustering.tolist() == [1.0, 1.0, 1.0]


def test_clustering_path(path3):
    assert stats_report(path3).clustering.tolist() == [0.0, 0.0, 0.0]


def test_clustering_matches_common_neighbor_count():
    g = random_signed_graph(35, 0.25, seed=4)
    coeffs = stats_report(g).clustering
    sign = sign_lookup(g)
    for nbrs, coeff in zip(neighbor_rows(g), coeffs, strict=True):
        d = len(nbrs)
        links = 0
        for a, b in itertools.combinations(nbrs, 2):
            if (a, b) in sign:
                links += 1
        expected = 2.0 * links / (d * (d - 1)) if d >= 2 else 0.0
        assert coeff == pytest.approx(expected)


def test_clustering_is_read_only():
    stats = stats_report(build_graph([(0, 1, 1), (1, 2, 1), (0, 2, -1), (2, 3, 1)]))
    assert stats.clustering.dtype == np.float64
    with pytest.raises(ValueError):
        stats.clustering[0] = 0.5
    assert stats.clustering.tolist() == [1.0, 1.0, 1 / 3, 0.0]


def test_stats_report_measures_a_graph_once(listings):
    g = random_signed_graph(40, 0.25, seed=7)
    first = stats_report(g)
    assert stats_report(g) is first
    assert listings == [g]
    equal = build_graph(np.column_stack((g.u, g.v, g.sign)), n=g.n)
    assert stats_report(equal) is not first
    assert same_measurement(stats_report(equal), first)


def test_a_graph_is_its_columns():
    assert [f.name for f in dataclasses.fields(SignedGraph)] == ["n", "u", "v", "sign", "labels"]


def test_a_freed_graph_leaves_no_measurement():
    # metrics keeps each measurement and listing weakly keyed by its graph,
    # so neither outlives the graph.
    g = random_signed_graph(40, 0.25, seed=7)
    kept = [weakref.ref(stats_report(g)), weakref.ref(metrics._triangles[g].xa)]
    del g
    gc.collect()
    assert [entry() for entry in kept] == [None, None]


def test_distribution_empty():
    assert TriangleCensus().distribution() == {
        "+++": 0.0, "++-": 0.0, "+--": 0.0, "---": 0.0,
    }


def brute_force_per_vertex(g) -> list[int]:
    """Triangles through each vertex, by checking every vertex triple."""
    through = [0] * g.n
    sign = sign_lookup(g)
    for a, b, c in itertools.combinations(range(g.n), 3):
        if (a, b) in sign and (b, c) in sign and (a, c) in sign:
            for x in (a, b, c):
                through[x] += 1
    return through


@st.composite
def signed_graphs(draw):
    """Any signed graph on up to 9 vertices, edges in arbitrary order; the
    vertex count may exceed the largest endpoint (isolated vertices)."""
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    signs = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    triples = [
        (u, v, Sign.POSITIVE if pos else Sign.NEGATIVE)
        for (u, v), pos in zip(chosen, signs)
    ]
    return build_graph(triples, n=n + draw(st.integers(0, 2)))


def assert_census_matches_oracle(g):
    """The census and, through the clustering coefficients, the triangles
    through each vertex agree with brute force. A fresh copy of ``g`` is
    measured, so that no earlier stats_report answers for it."""
    assert census_of(g).as_counts() == brute_force_census(g)
    if g.m == 0:
        return
    fresh = build_graph(np.column_stack((g.u, g.v, g.sign)), n=g.n)
    expected = [
        2.0 * t / (d * (d - 1)) if d >= 2 else 0.0
        for t, d in zip(brute_force_per_vertex(g), g.degrees().tolist())
    ]
    assert stats_report(fresh).clustering.tolist() == expected


@given(signed_graphs(), st.integers(1, 7))
@settings(max_examples=150, deadline=None)
def test_census_and_per_vertex_match_oracle_any_block(g, block):
    # Tiny wedge blocks give nearly every forward run a block of its own.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "WEDGE_BLOCK", block)
        assert_census_matches_oracle(g)


@pytest.mark.parametrize("block", [1, 2, 3, 7])
@pytest.mark.parametrize(
    "g",
    [
        build_graph([], n=0),
        build_graph([], n=5),
        build_graph([(0, i, Sign.NEGATIVE) for i in range(1, 9)]),
        build_graph([
            (u, v, Sign.NEGATIVE if (u + v) % 3 == 0 else Sign.POSITIVE)
            for u, v in itertools.combinations(range(7), 2)
        ]),
        build_graph([(1, 2, Sign.POSITIVE), (2, 4, Sign.NEGATIVE),
                     (1, 4, Sign.NEGATIVE)], n=7),
    ],
    ids=["no-vertices", "empty", "star", "complete", "isolated-vertices"],
)
def test_census_degenerate_shapes_match_oracle(g, block, monkeypatch):
    monkeypatch.setattr(metrics, "WEDGE_BLOCK", block)
    assert_census_matches_oracle(g)


@given(signed_graphs(), st.integers(1, 7))
@settings(max_examples=150, deadline=None)
def test_edge_indices_recover_the_listing(g, block):
    # The vertices recovered from the edge indices are every triangle of g
    # once, as brute force finds them; x is the lowest of each triangle's
    # vertices by (degree, id), edges xa and xb join it to a and b, and ab
    # closes the wedge. The measurement keeps those same int32 columns.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "WEDGE_BLOCK", block)
        edges = list_triangles(g)
        measured = dataclasses.replace(g)
        if g.m:  # an empty graph has no eta to measure
            stats_report(measured)
        kept = metrics._triangles.get(measured)
    sign = sign_lookup(g)
    expected = [
        t for t in itertools.combinations(range(g.n), 3)
        if all(pair in sign for pair in itertools.combinations(t, 2))
    ]
    tri = listing_of(g, edges)
    rows = list(zip(*(c.tolist() for c in tri)))
    assert sorted(tuple(sorted(row[:3])) for row in rows) == expected
    rank = list(zip(g.degrees().tolist(), range(g.n)))
    for x, a, b, xa, xb, ab in rows:
        assert rank[x] < min(rank[a], rank[b])
        for e, ends in ((xa, {x, a}), (xb, {x, b}), (ab, {a, b})):
            assert {int(g.u[e]), int(g.v[e])} == ends
    assert [c.dtype for c in edges] == [np.int32] * 3
    if g.m:
        assert [c.tolist() for c in kept] == [c.tolist() for c in edges]


def closed_wedges_oracle(n, fwd, flo, fhi):
    """The listing ``metrics._closed_wedges`` gives, in its order, with
    each wedge's forward edge p found by a binary search over the running
    wedge counts and all wedges in one block."""
    m = len(flo)
    fkey = flo * n + fhi
    row_end = np.cumsum(np.bincount(flo, minlength=n))
    row_len = row_end[flo] - 1 - np.arange(m)
    wedge_end = np.cumsum(row_len)
    w = np.arange(int(wedge_end[-1]) if m else 0)
    p = np.searchsorted(wedge_end, w, side="right")
    q = p + 1 + w - (wedge_end[p] - row_len[p])
    key = fhi[p] * n + fhi[q]
    pos = np.minimum(np.searchsorted(fkey, key), m - 1)
    hit = fkey[pos] == key
    return metrics.TriangleEdges(fwd[p[hit]], fwd[q[hit]], fwd[pos[hit]])


def assert_listing_matches_order_oracle(g):
    edges = list_triangles(g)
    expected = closed_wedges_oracle(g.n, *metrics._forward_edges(g))
    assert [c.dtype for c in edges] == [np.int32] * 3
    assert [c.tolist() for c in edges] == [c.tolist() for c in expected]


@given(signed_graphs(), st.integers(1, 7))
@settings(max_examples=150, deadline=None)
def test_listing_matches_the_per_wedge_search_in_order(g, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "WEDGE_BLOCK", block)
        assert_listing_matches_order_oracle(g)


def test_a_run_longer_than_the_block_is_listed_in_order(monkeypatch):
    # Hubs give this graph forward runs of up to 18 wedges, so a block of 8
    # holds a single run that is longer than the block.
    g = power_law_signed_graph(3000, 9000, seed=3, gamma=2.1)
    longest = int(np.bincount(metrics._forward_edges(g)[1]).max()) - 1
    monkeypatch.setattr(metrics, "WEDGE_BLOCK", 8)
    assert longest > metrics.WEDGE_BLOCK
    assert_listing_matches_order_oracle(g)


def crowding_slot(key, bits):
    """Slot 0 or 1 for every key, so nearly every forward key loses its
    slot and is found in the spill."""
    return key & 1


@given(signed_graphs(), st.integers(1, 7))
@settings(max_examples=150, deadline=None)
def test_spilled_keys_are_listed_in_order(g, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "WEDGE_BLOCK", block)
        mp.setattr(metrics, "_slot", crowding_slot)
        assert_listing_matches_order_oracle(g)


def test_hub_graph_spills_with_the_default_table_and_when_crowded(monkeypatch):
    g = power_law_signed_graph(3000, 9000, seed=3, gamma=2.1)
    built = []  # the first hash is the table's, over the M forward keys

    def recording_slot(key, bits, slot=metrics._slot):
        built.append(slot(key, bits))
        return built[-1]

    monkeypatch.setattr(metrics, "_slot", recording_slot)
    assert_listing_matches_order_oracle(g)
    assert len(built[0]) == g.m
    assert len(np.unique(built[0])) < g.m  # some key lost its slot
    monkeypatch.setattr(metrics, "_slot", crowding_slot)
    assert_listing_matches_order_oracle(g)


def test_stats_report_transient_memory_per_triangle(monkeypatch):
    # The tracemalloc peak of measuring a graph, per triangle, with blocks
    # small enough that the whole-listing arrays dominate. It is 48.4 B per
    # triangle on this input: each block keeps only its triangles' three
    # int32 edge indices, and the closing-edge slot table (2^16 int32 slots
    # for M = 20,000) is freed before the blocks' columns are joined (53.2
    # with a binary search over the forward keys, 57.3 with the table kept
    # through the join). A listing that also gathered each triangle's
    # vertices x, a and b peaked at 88, and one that held its ranks and
    # wedge blocks until it returned at 149. The edge indices kept for the
    # graph (12 B per triangle) sit in their own memory map, which
    # tracemalloc does not see.
    monkeypatch.setattr(metrics, "WEDGE_BLOCK", 1024)
    g = power_law_signed_graph(6000, 20000, seed=21, gamma=2.1)
    tracemalloc.start()
    try:
        total = stats_report(g).census.total
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / total <= 60
