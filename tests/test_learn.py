import dataclasses
import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signet import learn, metrics
from signet.baseline import stcl_generate
from signet.errors import EmptyGraphError, RhoAtOneError, SignetError
from signet.generate import generate
from signet.graph import Sign, build_graph
from signet.metrics import list_triangles, stats_report, take_triangles
from signet.learn import (
    AB_MAX_ITERS,
    AB_TOL,
    CLAMP_EPS,
    RHO_EPS,
    RHO_INIT,
    LearnConfig,
    ModelParams,
    em_edge_responsibility,
    em_learn_rho,
    eta_triangle,
    learn_parameters,
    update_alpha,
    update_beta,
)
from tests.conftest import (
    listing_of,
    neighbor_rows,
    power_law_signed_graph,
    random_signed_graph,
)


def em(g, cfg):
    """em_learn_rho on g's own wedge likelihoods."""
    return em_learn_rho(g, cfg, learn.wedge_likelihoods(g, metrics.list_triangles(g)))


def test_responsibility_no_common_neighbor(path3):
    assert em_edge_responsibility(path3, 0, 1, 0.5) == 0.0


def test_responsibility_approaches_one(k3_positive):
    assert em_edge_responsibility(k3_positive, 0, 1, 1 - 1e-12) == pytest.approx(
        1.0, abs=1e-9
    )


def test_responsibility_k3_hand_value(k3_positive):
    # W = 0.5 / (2 * 2) = 0.125, R = 0.5 * 2/6, W / (W + R) = 3/7.
    assert em_edge_responsibility(k3_positive, 0, 1, 0.5) == pytest.approx(3 / 7)


def test_responsibility_in_unit_interval():
    g = build_graph(
        [(0, 1, Sign.POSITIVE), (1, 2, Sign.NEGATIVE), (0, 2, Sign.POSITIVE),
         (2, 3, Sign.POSITIVE), (3, 4, Sign.NEGATIVE), (2, 4, Sign.POSITIVE)]
    )
    for u, v, _ in g.edges:
        for rho in (0.1, 0.5, 0.9):
            r = em_edge_responsibility(g, u, v, rho)
            assert 0.0 <= r <= 1.0


def test_em_triangle_free_graph_drives_rho_to_floor():
    # Star graph: no edge has a common neighbor.
    g = build_graph([(0, i, Sign.POSITIVE) for i in range(1, 30)])
    rho, trace = em(g, LearnConfig(seed=1))
    assert rho == pytest.approx(RHO_EPS)
    assert trace[-1]["delta"] < 1e-4


def test_em_empty_graph():
    with pytest.raises(EmptyGraphError):
        em(build_graph([], n=2), LearnConfig())


def test_em_converges_within_budget():
    rng = random.Random(3)
    triples = set()
    while len(triples) < 300:
        u, v = rng.randrange(80), rng.randrange(80)
        if u != v:
            triples.add((min(u, v), max(u, v)))
    g = build_graph([(u, v, Sign.POSITIVE) for u, v in triples])
    cfg = LearnConfig(seed=5)
    rho, trace = em(g, cfg)
    assert trace[-1]["delta"] < cfg.em_tol
    assert len(trace) <= cfg.em_max_iters


def test_update_beta_identity_cases():
    # delta_b = 1 with all random triangles balanced -> beta = 1.
    assert update_beta(1.0, 0.5, 0.5, 1.5) == pytest.approx(1.0)
    # delta_b = 0 with no balanced random triangles -> beta = 0.
    assert update_beta(0.0, 0.5, 0.0, 1.5) == pytest.approx(0.0)


def test_update_beta_clamps_and_warns(k3_mixed):
    # update_beta returns its raw closed form; learn_parameters clamps it
    # and warns once, naming the raw value.
    raw = update_beta(0.2, 0.5, 0.45, 1.5)
    assert raw == pytest.approx(-1 / 30)
    with mock.patch.object(learn, "update_beta", lambda *args: raw):
        params = learn_parameters(k3_mixed)
    assert params.beta == 0.0
    assert [w for w in params.warnings if w.startswith("beta")] == [
        "beta=-0.0333 clamped to [0, 1]"
    ]


def test_eta_triangle_values():
    assert eta_triangle(0.5, 0.2) == pytest.approx(0.5)
    assert eta_triangle(0.5, 0.9) == pytest.approx(0.5)
    assert eta_triangle(1.0, 1.0) == pytest.approx(1.0)
    assert eta_triangle(0.9, 0.0) == pytest.approx(0.18)


def test_update_alpha_rho_zero_returns_eta():
    assert update_alpha(0.7, 0.0, 0.3) == pytest.approx(0.7)


def test_update_alpha_symmetric_eta():
    for rho in (0.2, 0.5, 0.8):
        for beta in (0.0, 0.5, 1.0):
            assert update_alpha(0.5, rho, beta) == pytest.approx(0.5)


def test_update_alpha_clamps_and_warns(k3_mixed):
    # update_alpha returns its raw closed form; learn_parameters clamps it
    # and warns once, naming the raw value.
    raw = update_alpha(0.915, 0.4, 0.9)
    assert raw == pytest.approx(1.00796)
    with mock.patch.object(learn, "update_alpha", lambda *args: raw):
        params = learn_parameters(k3_mixed)
    assert params.alpha == 1.0
    assert [w for w in params.warnings if w.startswith("alpha")] == [
        "alpha=1.0080 clamped to [0, 1]"
    ]


def clamp_warnings(params):
    return [w for w in params.warnings if "clamped" in w]


def test_float_noise_clamps_without_warning():
    # A 5-star's alpha lands just above 1 (rho sits on its floor) and K5's
    # beta lands within float noise of 1: both clamp silently.
    star = build_graph([(0, i, Sign.POSITIVE) for i in range(1, 6)])
    star_params = learn_parameters(star)
    assert star_params.alpha == 1.0
    assert not [w for w in clamp_warnings(star_params) if w.startswith("alpha")]
    k5 = build_graph(
        [(u, v, Sign.POSITIVE) for u in range(5) for v in range(u + 1, 5)]
    )
    k5_params = learn_parameters(k5)
    assert k5_params.beta == 1.0
    assert clamp_warnings(k5_params) == []


def test_real_clamp_still_warns(k3_mixed):
    params = learn_parameters(k3_mixed)
    assert params.beta == 0.0
    assert "beta=-0.2963 clamped to [0, 1]" in clamp_warnings(params)


def test_update_alpha_rho_at_one():
    with pytest.raises(RhoAtOneError):
        update_alpha(0.5, 1.0, 0.5)


def test_mixture_identity_unclamped():
    # rho * eta_triangle + (1 - rho) * alpha_raw == eta, exactly.
    for eta in (0.3, 0.55, 0.7):
        for rho in (0.1, 0.4, 0.7):
            for beta in (0.2, 0.6, 0.95):
                et = eta_triangle(eta, beta)
                alpha_raw = (eta - rho * et) / (1.0 - rho)
                assert rho * et + (1.0 - rho) * alpha_raw == pytest.approx(
                    eta, abs=1e-12
                )


def test_learn_parameters_all_positive_triangle_rich():
    rng = random.Random(7)
    triples = set()
    n = 40
    # Dense-ish graph: plenty of triangles, all positive.
    while len(triples) < 200:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            triples.add((min(u, v), max(u, v)))
    g = build_graph([(u, v, Sign.POSITIVE) for u, v in triples])
    params = learn_parameters(g, LearnConfig(seed=2))
    assert params.eta == 1.0
    assert params.delta_b == 1.0
    assert params.beta == pytest.approx(1.0)
    assert params.alpha == pytest.approx(1.0)


def test_learn_parameters_triangle_free_warns():
    g = build_graph([(0, i, Sign.POSITIVE) for i in range(1, 20)])
    params = learn_parameters(g, LearnConfig(seed=2))
    assert params.delta_b == 0.0
    assert any("no triangles" in w for w in params.warnings)


def test_alternating_loop_converges():
    rng = random.Random(11)
    triples = set()
    while len(triples) < 150:
        u, v = rng.randrange(50), rng.randrange(50)
        if u != v:
            triples.add((min(u, v), max(u, v)))
    g = build_graph(
        [
            (u, v, Sign.POSITIVE if rng.random() < 0.8 else Sign.NEGATIVE)
            for u, v in triples
        ]
    )
    params = learn_parameters(g, LearnConfig(seed=3))
    ab = params.learn_log[0]["alternating"]
    assert len(ab) <= AB_MAX_ITERS
    assert ab[-1]["delta"] < AB_TOL


def test_model_params_round_trip():
    p = ModelParams(rho=0.4, alpha=0.8, beta=0.9, eta=0.85, delta_b=0.8)
    q = ModelParams.from_dict(p.to_dict())
    assert (q.rho, q.alpha, q.beta, q.eta, q.delta_b) == (
        p.rho, p.alpha, p.beta, p.eta, p.delta_b,
    )


def em_learn_rho_oracle(g, cfg, scored):
    """The EM loop that em_learn_rho vectorises: every slot 2e + o scored
    by the scalar definition, then the nonzero responsibilities summed in
    slot order as em_learn_rho sums them. Each iteration's array of
    responsibilities, one per slot, is appended to ``scored``."""
    rho = RHO_INIT
    trace = []
    for it in range(cfg.em_max_iters):
        resp = np.array([
            em_edge_responsibility(g, *((v, u) if o else (u, v)), rho)
            for u, v, _ in g.edges for o in (0, 1)
        ])
        scored.append(resp)
        new_rho = float(resp[resp != 0.0].sum()) / (2 * g.m)
        delta = abs(new_rho - rho)
        trace.append({"iteration": it, "rho": new_rho, "delta": delta})
        rho = new_rho
        if delta < cfg.em_tol:
            break
    return min(max(rho, RHO_EPS), 1.0 - RHO_EPS), trace


def shuffled(g, seed):
    """The same graph with its edges in another order, so that adjacency
    order no longer follows vertex ids."""
    triples = list(g.edges)
    random.Random(seed).shuffle(triples)
    return build_graph(triples, n=g.n)


EM_GRAPHS = {
    "power-law": lambda: power_law_signed_graph(120, 500, seed=4, gamma=2.1),
    "dense": lambda: shuffled(random_signed_graph(30, 0.4, seed=8), seed=1),
    "star": lambda: build_graph([(0, i, Sign.POSITIVE) for i in range(1, 12)]),
    "bipartite": lambda: shuffled(
        build_graph([(u, v, Sign.NEGATIVE) for u in range(5) for v in range(5, 11)]),
        seed=2,
    ),
    "k3": lambda: build_graph(
        [(0, 1, Sign.POSITIVE), (1, 2, Sign.POSITIVE), (0, 2, Sign.NEGATIVE)]
    ),
}


@pytest.mark.parametrize("name", sorted(EM_GRAPHS))
@pytest.mark.parametrize("block", [None, 3, "M"])
@pytest.mark.parametrize("seed", [0, 1, 42])
def test_em_equals_per_edge_oracle_bit_for_bit(name, block, seed, monkeypatch):
    # Blocks of 3 give nearly every forward run a listing block of its own
    # and force many slot-aligned term blocks, blocks of M fewer; None
    # keeps the module's defaults.
    g = EM_GRAPHS[name]()
    if block is not None:
        size = g.m if block == "M" else block
        monkeypatch.setattr(metrics, "WEDGE_BLOCK", size)
        monkeypatch.setattr(learn, "TERM_BLOCK", size)
    wedge = learn.wedge_likelihoods(g, metrics.list_triangles(g))
    score = learn.em_responsibilities
    scored = []

    def spy(rho, w, r):  # records every slot's responsibility, 0 if unscored
        resp = score(rho, w, r)
        scored.append(np.zeros(2 * g.m))
        scored[-1][np.flatnonzero(wedge)] = resp
        return resp

    monkeypatch.setattr(learn, "em_responsibilities", spy)
    for cfg in (
        LearnConfig(seed=seed),
        LearnConfig(seed=seed, em_tol=0.0, em_max_iters=12),
    ):
        scored.clear()
        expected = []
        assert em_learn_rho(g, cfg, wedge) == em_learn_rho_oracle(g, cfg, expected)
        assert [a.tobytes() for a in scored] == [a.tobytes() for a in expected]


def test_wedge_likelihoods_equal_scalar_walk():
    g = power_law_signed_graph(150, 700, seed=9, gamma=2.1)
    wedge = learn.wedge_likelihoods(g, metrics.list_triangles(g))
    rows = neighbor_rows(g)
    for e, (u, v, _) in enumerate(g.edges):
        for slot, (i, j) in ((2 * e, (u, v)), (2 * e + 1, (v, u))):
            walk = 0.0
            for k in rows[i]:
                if k in rows[j]:
                    walk += 1.0 / (len(rows[i]) * len(rows[k]))
            assert wedge[slot] == walk


def test_learn_lists_the_triangles_once(listings):
    g = power_law_signed_graph(200, 900, seed=3, eta=0.8)
    learn_parameters(g, LearnConfig(seed=1))
    assert listings == [g]


def test_learn_leaves_the_input_without_a_listing():
    g = power_law_signed_graph(200, 900, seed=3, eta=0.8)
    total = stats_report(g).census.total
    assert total > 0
    assert sum(column.nbytes for column in g._triangles) == 12 * total
    learn_parameters(g, LearnConfig(seed=1))
    assert g._triangles is None
    unmeasured = dataclasses.replace(g)
    learn_parameters(unmeasured, LearnConfig(seed=1))
    assert unmeasured._stats is not None and unmeasured._triangles is None


def test_learn_transient_memory_per_triangle(monkeypatch):
    # The tracemalloc peak of learn after the input was measured, per
    # triangle, with blocks small enough that the whole-listing arrays
    # dominate. Reading only the kept edge indices, learn peaks at 74 B per
    # triangle on this input, 48 B of it the sorted wedge terms. Recovering
    # each triangle's vertices from them would peak at 86, which the bound
    # fails, and listing the triangles again at 148.
    monkeypatch.setattr(metrics, "WEDGE_BLOCK", 1024)
    monkeypatch.setattr(learn, "TERM_BLOCK", 1024)
    g = power_law_signed_graph(6000, 20000, seed=21, gamma=2.1)
    total = stats_report(g).census.total
    tracemalloc.start()
    try:
        learn_parameters(g, LearnConfig(seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / total <= 84


def test_learn_again_transient_memory_per_triangle(monkeypatch):
    # A second learn on one graph lists its triangles again, since the
    # first took the kept listing. The listing is the three int32 edge
    # indices that learn reads, so the peak is 86 B per triangle on this
    # input; a listing that also gathered each triangle's vertices x, a and
    # b, all as int64, peaked at 122.
    monkeypatch.setattr(metrics, "WEDGE_BLOCK", 1024)
    monkeypatch.setattr(learn, "TERM_BLOCK", 1024)
    g = power_law_signed_graph(6000, 20000, seed=21, gamma=2.1)
    total = stats_report(g).census.total
    learn_parameters(g)
    tracemalloc.start()
    try:
        learn_parameters(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / total <= 96


def test_learned_parameters_do_not_depend_on_the_seed():
    g = power_law_signed_graph(200, 900, seed=3, eta=0.8)
    one, two = (learn_parameters(g, LearnConfig(seed=seed)) for seed in (1, 2))
    assert [float.hex(x) for x in (one.rho, one.alpha, one.beta)] == [
        float.hex(x) for x in (two.rho, two.alpha, two.beta)
    ]


def test_learned_parameters_are_python_floats():
    g = power_law_signed_graph(200, 900, seed=3, eta=0.8)
    params = learn_parameters(g, LearnConfig(seed=1))
    for value in (params.rho, params.alpha, params.beta, params.eta, params.delta_b):
        assert type(value) is float


@st.composite
def small_signed_graphs(draw):
    """Any signed graph on 3-10 vertices with at least two edges, often
    complete: dense graphs with a lopsided sign split are the ones whose
    raw alpha leaves [0, 1]."""
    n = draw(st.integers(3, 10))
    every = list(itertools.combinations(range(n), 2))
    if draw(st.booleans()):
        pairs = every
    else:
        pairs = draw(st.lists(st.sampled_from(every), min_size=2, unique=True))
    majority = draw(st.sampled_from([1, -1]))
    minority = draw(st.sets(st.integers(0, len(pairs) - 1), max_size=len(pairs) // 2))
    return build_graph(
        [(u, v, -majority if e in minority else majority) for e, (u, v) in enumerate(pairs)],
        n=n,
    )


@given(small_signed_graphs(), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_learned_parameters_in_unit_interval_and_every_clamp_warned(g, seed):
    # Each closed-form update's last raw value, recomputed by its formula:
    # beta's, then alpha's, each outside [-CLAMP_EPS, 1 + CLAMP_EPS] must
    # leave exactly one warning naming it, and nothing else may warn. When
    # rho ends at its cap, alpha's warning names the cap instead.
    last = {}

    def beta_spy(delta_b, dr, drb, dt):
        last["beta"] = (delta_b * (dt + dr) - drb) / dt
        return update_beta(delta_b, dr, drb, dt)

    def alpha_spy(eta, rho, beta):
        last["alpha"] = (eta - rho * eta_triangle(eta, beta)) / (1.0 - rho)
        return update_alpha(eta, rho, beta)

    with mock.patch.object(learn, "update_beta", beta_spy), \
            mock.patch.object(learn, "update_alpha", alpha_spy):
        params = learn_parameters(g, LearnConfig(seed=seed))
    for value in (params.rho, params.alpha, params.beta):
        assert 0.0 <= value <= 1.0
    expected = [
        f"{name}={raw:.4f} clamped to [0, 1]"
        for name, raw in last.items()
        if not -CLAMP_EPS <= raw <= 1.0 + CLAMP_EPS
    ]
    if params.rho == 1.0 - RHO_EPS:
        expected = [w for w in expected if not w.startswith("alpha")] + [
            f"rho clamped to its cap 1 - 1e-06, so alpha is not identified "
            f"(set to {params.alpha:g})"
        ]
    assert [w for w in params.warnings if "clamped" in w] == expected


def ring_lattice(n=300):
    """Each vertex joined to its two nearest neighbours on each side, every
    fifth edge negative: every edge closes wedges."""
    pairs = sorted({tuple(sorted((i, (i + k) % n))) for i in range(n) for k in (1, 2)})
    return build_graph(
        [(u, v, -1 if e % 5 == 0 else 1) for e, (u, v) in enumerate(pairs)], n=n
    )


def test_rho_at_its_cap_warns_without_a_raw_alpha():
    # EM on the ring drives rho to its cap within 5 iterations. Raw alpha
    # divides by 1 - rho, so it reads 5336 after 3 iterations and 339944 at
    # the cap, where RHO_EPS rather than the data sets its size.
    runs = [
        learn_parameters(ring_lattice(), LearnConfig(em_tol=0.0, em_max_iters=iters))
        for iters in (5, 20)
    ]
    for params in runs:
        assert params.rho == 1.0 - RHO_EPS
        assert params.warnings == [
            "rho clamped to its cap 1 - 1e-06, so alpha is not identified (set to 1)"
        ]
    assert [(p.alpha, p.beta) for p in runs] == [(1.0, runs[0].beta)] * 2
    few = learn_parameters(ring_lattice(), LearnConfig(em_tol=0.0, em_max_iters=3))
    assert few.rho < 1.0 - RHO_EPS
    assert [w.split("=")[0] for w in few.warnings] == ["alpha"]


@st.composite
def triangle_free_graphs(draw):
    """A signed bipartite graph on 3-10 vertices with at least two edges."""
    left, right = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    every = [(i, left + j) for i in range(left) for j in range(right)]
    pairs = draw(st.lists(st.sampled_from(every), min_size=2, unique=True))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(pairs), max_size=len(pairs)))
    return build_graph([(u, v, s) for (u, v), s in zip(pairs, signs)], n=left + right)


def learned(g, cfg):
    params = learn_parameters(g, cfg)
    values = (params.rho, params.alpha, params.beta, params.eta, params.delta_b)
    return [float.hex(v) for v in values], params.warnings


@given(small_signed_graphs() | triangle_free_graphs(), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_learned_parameters_do_not_depend_on_when_the_input_is_measured(g, iters):
    cfg = LearnConfig(em_tol=0.0, em_max_iters=iters)
    alone = learned(dataclasses.replace(g), cfg)
    before = dataclasses.replace(g)
    stats_report(before)
    assert learned(before, cfg) == alone
    after = dataclasses.replace(g)
    assert learned(after, cfg) == alone
    assert stats_report(after) == stats_report(dataclasses.replace(g))
    assert learned(after, cfg) == alone  # its listing was taken: listed again
    rho, _ = em_learn_rho(g, cfg, learn.wedge_likelihoods(g, list_triangles(g)))
    assert alone[0][0] == float.hex(rho)


def wedge_likelihoods_oracle(g, tri):
    """``learn.wedge_likelihoods`` as it read a listing's vertices: each
    term is the composite ``slot * M + key``, its orientation bit compares
    the listing's x, a and b, and d_i and d_k are read per vertex."""
    tri = listing_of(g, tri)
    m = g.m
    deg = g.degrees()
    t = len(tri.x)
    terms = np.empty(6 * t, dtype=np.int64)
    for part, (e, i, j, key) in enumerate([
        (tri.xa, tri.x, tri.a, tri.xb),
        (tri.xa, tri.a, tri.x, tri.ab),
        (tri.xb, tri.x, tri.b, tri.xa),
        (tri.xb, tri.b, tri.x, tri.ab),
        (tri.ab, tri.a, tri.b, tri.xa),
        (tri.ab, tri.b, tri.a, tri.xb),
    ]):
        out = terms[part * t:(part + 1) * t]
        np.multiply(e, 2, out=out, dtype=np.int64)
        out += i > j
        out *= m
        out += key
    terms.sort()
    wedge = np.zeros(2 * m)
    start = 0
    while start < len(terms):
        stop = min(start + learn.TERM_BLOCK, len(terms))
        if stop < len(terms):
            stop = int(np.searchsorted(terms, (terms[stop - 1] // m + 1) * m))
        slot, key = np.divmod(terms[start:stop], m)
        e = slot >> 1
        i = np.where(slot & 1, g.v[e], g.u[e])
        k = g.u[key] + g.v[key] - i
        wedge[slot[0]:slot[-1] + 1] = np.bincount(
            slot - slot[0], weights=1.0 / (deg[i] * deg[k])
        )
        start = stop
    return wedge


@st.composite
def graphs_of_size(draw):
    """A signed graph with m in {1, 2, 2^k, 2^k + 1}, the shift's edge cases,
    on as few vertices as hold m edges, or up to three more."""
    m = draw(st.sampled_from([1, 2, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65]))
    least = next(n for n in itertools.count(2) if n * (n - 1) // 2 >= m)
    n = draw(st.integers(least, least + 3))
    every = list(itertools.combinations(range(n), 2))
    pairs = draw(st.lists(st.sampled_from(every), min_size=m, max_size=m, unique=True))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=m, max_size=m))
    return build_graph([(u, v, s) for (u, v), s in zip(pairs, signs)], n=n)


@given(
    small_signed_graphs() | triangle_free_graphs() | graphs_of_size(),
    st.sampled_from(["kept", "fresh", "twin"]),
    st.sampled_from([1, 3, None]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_wedge_likelihoods_equal_the_listing_oracle(g, columns, block, seed):
    # The kept columns are stats_report's read-only int32 memory maps, the
    # fresh ones list_triangles' own, and a twin's those its held network
    # kept; block None keeps TERM_BLOCK's default.
    if columns == "kept":
        stats_report(g)
        tri = take_triangles(g)
        assert tri.xa.dtype == np.int32
        assert len(tri.xa) == 0 or not tri.xa.flags.writeable
    elif columns == "fresh":
        tri = list_triangles(g)
    else:
        try:
            net = generate(g, ModelParams(0.5, 0.8, 0.9, 0.7, 0.8), seed)
        except SignetError:
            return
        stats_report(net)
        tri = net._triangles
        g = stcl_generate(g, 0.5, seed)  # net is held: measured over tri
        assert net._triangles is None
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(learn, "TERM_BLOCK", block)
        got = learn.wedge_likelihoods(g, tri)
        expected = wedge_likelihoods_oracle(g, tri)
    assert got.tobytes() == expected.tobytes()
