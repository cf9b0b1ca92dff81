import dataclasses
import gc
import hashlib
import importlib
import itertools
import math
import os
import random
import subprocess
import sys
import tempfile
import weakref
from collections import Counter, OrderedDict, deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signet.baseline import stcl_generate
from signet.errors import (
    NoCommonNeighborError,
    RetryExhaustedError,
    SignetError,
    StallError,
)
from signet.generate import (
    GenerationState,
    _walk,
    choose_wedge_sign,
    fcl_initialize,
    generate,
    generation_step,
)
from signet.graph import Sign, build_graph, build_sampling_vector
from signet.io import read_graph, write_canonical
from signet.learn import LearnConfig, ModelParams, learn_parameters
from signet.metrics import compute_eta, stats_report
from tests.conftest import power_law_signed_graph, sign_lookup

G = importlib.import_module("signet.generate")

# The two sign models: BSCL's balance-aware signs (``generate``) and the
# STCL baseline's i.i.d. signs (``stcl_generate``).
BALANCE, IID = "balance", "iid"
POLICIES = [BALANCE, IID]


def make_params(rho=0.3, alpha=0.8, beta=0.9, eta=0.85):
    return ModelParams(rho=rho, alpha=alpha, beta=beta, eta=eta, delta_b=0.8)


def run_policy(g, params, seed, policy):
    """``generate`` for BALANCE; ``stcl_generate`` at params.rho for IID."""
    if policy == BALANCE:
        return generate(g, params, seed=seed)
    return stcl_generate(g, params.rho, seed)


def ring(state):
    """The ring's live edges as (u, v, sign), oldest first: the slots from
    head on, then the slots before it."""
    slots = list(zip(state.eu, state.ev, state.es))
    return slots[state.head:] + slots[:state.head]


def live(state):
    """The ring's live edges as {canonical pair: sign}, oldest first."""
    return {(min(u, v), max(u, v)): s for u, v, s in ring(state)}


def audit(state):
    """Shadow consistency check between the ring of live edges and
    adjacency: eu/ev/es agree with adj, every row lists its vertex's live
    edges oldest first, and every vertex id held is the shared ids object."""
    m = state.target_m
    assert len(state.eu) == len(state.ev) == len(state.es) == m
    assert 0 <= state.head < m
    for u, v, s in zip(state.eu, state.ev, state.es):
        assert u != v
        assert u is state.ids[u] and v is state.ids[v]
        assert type(s) is int and s in (1, -1)
        assert state.adj[u][v] == s
        assert state.adj[v][u] == s
    for held in (*state.nbrs, *(a.keys() for a in state.adj), state.pending):
        assert all(x is state.ids[x] for x in held)
    assert len(live(state)) == m
    edge_count = sum(len(a) for a in state.adj) // 2
    assert edge_count == m
    rows = [[] for _ in range(state.n)]
    for u, v, _ in ring(state):
        rows[u].append(v)
        rows[v].append(u)
    for u in range(state.n):
        assert state.nbrs[u] == list(state.adj[u]) == rows[u]


def fcl_state(pi, m, n, eta, seed, rho=0.0, alpha=0.5, beta=0.5):
    """A state over sampling vector ``pi`` whose ring FCL filled."""
    state = GenerationState(
        n=n, pi=np.asarray(pi, dtype=np.int64), target_m=m, rho=rho,
        alpha=alpha, beta=beta, seed=seed,
    )
    fcl_initialize(state, eta)
    return state


def graph_state(g, eta, seed, rho=0.0, alpha=0.5, beta=0.5):
    """fcl_state over g's sampling vector, size and vertex count."""
    return fcl_state(build_sampling_vector(g), g.m, g.n, eta, seed, rho, alpha, beta)


def test_fcl_forced_k3():
    # pi over K3's vertices with M = 3: only three legal pairs exist.
    state = fcl_state([0, 0, 1, 1, 2, 2], 3, n=3, eta=1.0, seed=0)
    assert set(live(state)) == {(0, 1), (0, 2), (1, 2)}


def test_fcl_eta_one_all_positive():
    g = power_law_signed_graph(200, 600, seed=1)
    state = graph_state(g, eta=1.0, seed=0)
    assert all(s == 1 for s in state.es)
    assert all(s == 1 for a in state.adj for s in a.values())


def test_fcl_positive_count_is_rounded_eta_m():
    g = power_law_signed_graph(200, 600, seed=2)
    state = graph_state(g, eta=0.73, seed=0)
    positives = sum(1 for s in state.es if s == 1)
    assert positives == round(0.73 * g.m)
    audit(state)


def test_fcl_stall_on_impossible_target():
    # Only one legal pair exists but two edges requested: FCL gives up after
    # its 200 draws, which the first block of the topology stream holds.
    state = GenerationState(
        n=2, pi=np.array([0, 1]), target_m=2, rho=0.0, alpha=0.5, beta=0.5, seed=0,
    )
    with pytest.raises(
        StallError,
        match=r"^generate's FCL could not place 2 distinct edges \(input N=2, M=2\)$",
    ):
        fcl_initialize(state, 0.5)
    one_block = random.Random("0:topology")
    one_block.getrandbits(64 * G.BLOCK)
    assert state.topology.getstate() == one_block.getstate()


def test_fcl_endpoint_counts_match_expectation():
    # Mean per-vertex endpoint count over seeded runs within 4 sigma of d_i,
    # allowing the first-order rejection bias ~ d^2 / 2M that self-loop and
    # duplicate rejection takes from high-degree vertices.
    n, m = 2000, 4000
    g = power_law_signed_graph(n, m, seed=3, gamma=3.0)
    pi = build_sampling_vector(g)
    runs = 20
    totals = Counter()
    for r in range(runs):
        state = fcl_state(pi, m, g.n, eta=0.5, seed=100 + r)
        for u, v in zip(state.eu, state.ev):
            totals[u] += 1
            totals[v] += 1
    two_m = len(pi)
    for v, d in enumerate(g.degrees()):
        if d == 0:
            assert totals[v] == 0
            continue
        p = d / two_m
        mean = totals[v] / runs
        sigma = math.sqrt(two_m * p * (1 - p) / runs)
        bias = d * d / two_m
        assert abs(mean - d) <= 4 * sigma + bias + 1.0


def wedge_state(edges, n, rho=0.0, alpha=0.5, beta=1.0, seed=0):
    """A state whose ring holds ``edges``, with an empty sampling vector."""
    state = GenerationState(
        n=n, pi=np.empty(0, np.int64), target_m=len(edges), rho=rho,
        alpha=alpha, beta=beta, seed=seed,
    )
    for u, v, s in edges:
        state.eu.append(u)
        state.ev.append(v)
        state.es.append(int(s))
        state.adj[u][v] = state.adj[v][u] = int(s)
    state.nbrs = [list(a) for a in state.adj]
    return state


def test_walk_forced_path():
    # Path 0-1-2: every walk from 0 passes through 1.
    state = wedge_state([(0, 1, Sign.POSITIVE), (1, 2, Sign.POSITIVE)], 3)
    seen = set()
    for _ in range(200):
        v_k, v_j = _walk(state, 0)
        assert v_k == 1
        assert v_j in (0, 2)
        seen.add(v_j)
    assert seen == {0, 2}


def test_walk_isolated_vertex():
    state = wedge_state([(0, 1, Sign.POSITIVE)], 3)
    assert _walk(state, 2) is None


def exact_two_hop_distribution(state, v_i):
    """Enumerated landing kernel sum_{k in N_i, j in N_k} 1/(d_i d_k)."""
    dist = Counter()
    d_i = len(state.adj[v_i])
    for v_k in state.adj[v_i]:
        d_k = len(state.adj[v_k])
        for v_j in state.adj[v_k]:
            dist[v_j] += 1.0 / (d_i * d_k)
    return dist


def test_walk_matches_enumerated_kernel():
    # Wheel graph: hub 0 connected to a 6-cycle on 1..6.
    triples = [(0, i, Sign.POSITIVE) for i in range(1, 7)]
    cycle = [1, 2, 3, 4, 5, 6, 1]
    triples += [
        (cycle[i], cycle[i + 1], Sign.NEGATIVE) for i in range(6)
    ]
    state = wedge_state(triples, 7, seed=11)
    start = 1
    expected = exact_two_hop_distribution(state, start)
    trials = 100_000
    observed = Counter()
    for _ in range(trials):
        _, v_j = _walk(state, start)
        observed[v_j] += 1
    for v, p in expected.items():
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(observed[v] / trials - p) <= 3.5 * sigma + 1e-9


def test_choose_wedge_sign_single_balanced_wedge():
    state = wedge_state([(0, 2, Sign.POSITIVE), (1, 2, Sign.POSITIVE)], 3)
    assert choose_wedge_sign(state, 0, 1, True, alpha=0.5) == 1


def test_choose_wedge_sign_single_mixed_wedge():
    state = wedge_state([(0, 2, Sign.POSITIVE), (1, 2, Sign.NEGATIVE)], 3)
    assert choose_wedge_sign(state, 0, 1, True, alpha=0.5) == -1


def test_choose_wedge_sign_majority_and_unbalanced_branch():
    # Common neighbors 2, 3, 4 with wedge products +, +, -.
    edges = [
        (0, 2, Sign.POSITIVE), (1, 2, Sign.POSITIVE),
        (0, 3, Sign.NEGATIVE), (1, 3, Sign.NEGATIVE),
        (0, 4, Sign.POSITIVE), (1, 4, Sign.NEGATIVE),
    ]
    state = wedge_state(edges, 5)
    assert choose_wedge_sign(state, 0, 1, True, alpha=0.5) == 1
    assert choose_wedge_sign(state, 0, 1, False, alpha=0.5) == -1


def test_choose_wedge_sign_tie_uses_alpha():
    edges = [
        (0, 2, Sign.POSITIVE), (1, 2, Sign.POSITIVE),
        (0, 3, Sign.POSITIVE), (1, 3, Sign.NEGATIVE),
    ]
    state = wedge_state(edges, 4)
    draws = Counter(
        choose_wedge_sign(state, 0, 1, True, alpha=0.8) for _ in range(2000)
    )
    assert set(draws) <= {1, -1}
    frac_pos = draws[1] / 2000
    assert abs(frac_pos - 0.8) < 3 * math.sqrt(0.8 * 0.2 / 2000)


def test_choose_wedge_sign_no_common_neighbor():
    state = wedge_state([(0, 2, Sign.POSITIVE), (1, 3, Sign.POSITIVE)], 4)
    with pytest.raises(NoCommonNeighborError):
        choose_wedge_sign(state, 0, 1, True, alpha=0.5)


def test_rho_zero_sign_frequency_matches_alpha():
    g = power_law_signed_graph(300, 1200, seed=4)
    alpha = 0.7
    state = graph_state(g, eta=0.5, seed=9, rho=0.0, alpha=alpha, beta=0.5)
    pos = 0
    steps = 5000
    for _ in range(steps):
        # The step writes its new edge into the oldest slot, named by head.
        slot = state.head
        generation_step(state)
        if state.es[slot] == 1:
            pos += 1
    frac = pos / steps
    assert abs(frac - alpha) < 3.5 * math.sqrt(alpha * (1 - alpha) / steps)


def test_rho_one_every_insertion_closes_a_triangle():
    g = power_law_signed_graph(100, 800, seed=5)
    state = graph_state(g, eta=0.8, seed=2, rho=1.0, alpha=0.8, beta=0.9)
    for _ in range(300):
        # The step's eviction may remove the wedge's own edge, so the
        # common neighbour is looked for in the rows before the step.
        rows = [set(a) for a in state.adj]
        slot = state.head
        generation_step(state)
        u, v = state.eu[slot], state.ev[slot]
        assert rows[u] & rows[v], f"step {state.steps_done}: ({u}, {v}) closes no wedge"


def test_collision_pushes_vertices_to_queue_and_consumes_them_first():
    # Two vertices, one possible edge which already exists: the random
    # branch must collide, enqueue both endpoints, and consume the queue
    # before any new pi draw.
    state = fcl_state([0, 1, 0, 1], 1, n=3, eta=1.0, seed=0, rho=0.0, alpha=1.0)
    # Seed the adjacency with edge (0,1); inserting (0,1) again collides.
    assert (0, 1) in live(state)
    state.pending.append(0)
    state.pending.append(1)
    assert state.next_vertex() == (0, True)
    assert state.next_vertex() == (1, True)


def test_step_count_invariant_and_audit():
    g = power_law_signed_graph(200, 800, seed=6)
    state = graph_state(g, eta=0.8, seed=3, rho=0.4, alpha=0.8, beta=0.9)
    for i in range(400):
        generation_step(state)
        if i % 50 == 0:
            audit(state)
    audit(state)


def test_eviction_is_fifo():
    state = fcl_state(list(range(10)) * 4, 8, n=10, eta=0.5, seed=4)
    first_key = next(iter(live(state)))
    generation_step(state)
    assert first_key not in live(state)
    second_key = next(iter(live(state)))
    generation_step(state)
    assert second_key not in live(state)


def test_generate_preserves_edge_count_and_n():
    g = power_law_signed_graph(300, 1000, seed=7)
    out = generate(g, make_params(), seed=0)
    assert out.m == g.m
    assert out.n == g.n


def test_generate_deterministic():
    g = power_law_signed_graph(200, 700, seed=8)
    a = generate(g, make_params(), seed=123)
    b = generate(g, make_params(), seed=123)
    assert a.edges == b.edges
    c = generate(g, make_params(), seed=124)
    assert a.edges != c.edges


def test_generate_degree_preservation():
    n, m = 2000, 8000
    g = power_law_signed_graph(n, m, seed=9)
    params = make_params(rho=0.3, alpha=0.8, beta=0.9, eta=0.8)
    runs = 20
    mean_deg = [0.0] * n
    for r in range(runs):
        out = generate(g, params, seed=1000 + r)
        for v, d in enumerate(out.degrees()):
            mean_deg[v] += d / runs
    input_deg = g.degrees()
    l1 = sum(abs(a - b) for a, b in zip(mean_deg, input_deg))
    rel_l1 = l1 / sum(input_deg)
    assert rel_l1 < 0.1


def test_generate_iid_policy_sign_rate():
    g = power_law_signed_graph(300, 1200, seed=10, eta=0.9)
    eta = compute_eta(g)
    out = stcl_generate(g, 0.3, seed=5)
    frac = out.m_positive / out.m
    assert abs(frac - eta) < 4 * math.sqrt(eta * (1 - eta) / out.m)


def walk_oracle(state, v_i):
    """The list-copy walk that _walk replaces: the same hops, indexing a
    fresh copy of adj's keys."""
    nbrs = state.adj[v_i]
    if not nbrs:
        return None
    keys = list(nbrs.keys())
    v_k = keys[int(next(state.hops) * len(keys))]
    keys_k = list(state.adj[v_k].keys())
    return v_k, keys_k[int(next(state.hops) * len(keys_k))]


def wedge_sign_oracle(state, v_i, v_j, balanced_branch, alpha):
    """The per-neighbour balance loop that choose_wedge_sign replaces."""
    adj_i, adj_j = state.adj[v_i], state.adj[v_j]
    small, large = (adj_i, adj_j) if len(adj_i) <= len(adj_j) else (adj_j, adj_i)
    b_plus = 0
    total = 0
    for c, s1 in small.items():
        s2 = large.get(c)
        if s2 is not None:
            total += 1
            if int(s1) * int(s2) > 0:
                b_plus += 1
    if total == 0:
        raise NoCommonNeighborError(f"vertices {v_i}, {v_j} share no neighbor")
    b_minus = total - b_plus
    if b_plus == b_minus:
        return Sign.POSITIVE if next(state.coins) < alpha else Sign.NEGATIVE
    majority_positive = b_plus > b_minus
    if not balanced_branch:
        majority_positive = not majority_positive
    return Sign.POSITIVE if majority_positive else Sign.NEGATIVE


ORACLE_GRAPHS = {
    "power-law": lambda: power_law_signed_graph(300, 1200, seed=11),
    "hub-heavy": lambda: power_law_signed_graph(400, 1600, seed=12, gamma=2.1),
    "star": lambda: build_graph([(0, i, Sign.POSITIVE) for i in range(1, 12)]),
    # Complete: no legal insertion exists, so generate refuses it.
    "k3": lambda: build_graph(
        [(0, 1, Sign.POSITIVE), (1, 2, Sign.POSITIVE), (0, 2, Sign.NEGATIVE)]
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generate_equals_list_copy_oracles(name, policy, seed, monkeypatch):
    g = ORACLE_GRAPHS[name]()
    params = make_params(rho=0.6)

    def outcome():
        try:
            return run_policy(g, params, seed, policy).edges
        except SignetError as exc:
            return repr(exc)

    rows = outcome()
    monkeypatch.setattr(G, "_walk", walk_oracle)
    monkeypatch.setattr(G, "choose_wedge_sign", wedge_sign_oracle)
    assert rows == outcome()
    assert isinstance(rows, str) == (name == "k3")


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_choose_wedge_sign_equals_balance_loop(data):
    n = data.draw(st.integers(3, 9))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    signs = data.draw(st.lists(
        st.sampled_from([Sign.POSITIVE, Sign.NEGATIVE]),
        min_size=len(chosen), max_size=len(chosen),
    ))
    edges = [(u, v, s) for (u, v), s in zip(chosen, signs)]
    v_i, v_j = data.draw(st.sampled_from(list(itertools.permutations(range(n), 2))))
    balanced = data.draw(st.booleans())
    alpha = data.draw(st.floats(0.0, 1.0))
    seed = data.draw(st.integers(0, 2**32 - 1))

    def sign_and_stream(choose):
        """The sign, the next unread sign coin and the sign stream's state."""
        state = wedge_state(edges, n, seed=seed)
        try:
            sign = choose(state, v_i, v_j, balanced, alpha)
        except NoCommonNeighborError:
            sign = None
        return sign, next(state.coins), state.signs.getstate()

    assert sign_and_stream(choose_wedge_sign) == sign_and_stream(wedge_sign_oracle)


def test_rows_released_before_output_build(monkeypatch):
    g = power_law_signed_graph(100, 300, seed=13)
    state = graph_state(g, eta=0.8, seed=5, rho=0.5, alpha=0.8, beta=0.9)
    build = G.build_graph

    def build_after_release(triples, n):
        assert state.adj is None and state.nbrs is None
        return build(triples, n=n)

    monkeypatch.setattr(G, "build_graph", build_after_release)
    assert G._run(state).m == g.m


class WordStream:
    """One reader of a generator stream, word by word: whenever its buffer
    runs dry it takes the next block of BLOCK words from ``rng``, each one
    ``getrandbits(64)``. Iterating it gives 53-bit uniforms in [0, 1)."""

    def __init__(self, rng):
        self.rng, self.buf = rng, deque()

    def word(self):
        if not self.buf:
            self.buf.extend(self.rng.getrandbits(64) for _ in range(G.BLOCK))
        return self.buf.popleft()

    def __iter__(self):
        return self

    def __next__(self):
        return (self.word() >> 11) / 2**53

    def index(self, d):
        return int(next(self) * d)


class TupleKeyState:
    """The generator state that the ring replaces, kept as an oracle: an
    OrderedDict of live edges keyed by canonical (u, v) tuples, Sign values,
    FIFO rows appended on every insert, FCL included, and the two streams
    read word by word."""

    def __init__(self, n, pi, target_m, rho, alpha, beta, eta, seed, sign_policy):
        # sign_policy IID draws every inserted edge's sign positive with
        # probability eta; BALANCE follows the wedge-closure balance rules.
        self.n, self.pi, self.target_m = n, pi, target_m
        self.rho, self.alpha, self.beta, self.eta = rho, alpha, beta, eta
        self.sign_policy = sign_policy
        self.topology = random.Random(f"{seed}:topology")
        self.signs = random.Random(f"{seed}:signs")
        # FCL reads the topology stream by itself first; the rounds' readers
        # start where it stopped.
        self.picks = WordStream(self.topology)
        self.hops = WordStream(self.topology)
        self.coins = WordStream(self.signs)
        self.live = OrderedDict()
        self.adj = [dict() for _ in range(n)]
        self.nbrs = [[] for _ in range(n)]
        self.pending = deque()
        self.steps_done = 0

    def insert(self, u, v, sign):
        self.live[(u, v) if u < v else (v, u)] = sign
        self.adj[u][v] = sign
        self.adj[v][u] = sign
        self.nbrs[u].append(v)
        self.nbrs[v].append(u)

    def evict_oldest(self):
        (u, v), _ = self.live.popitem(last=False)
        del self.adj[u][v]
        del self.adj[v][u]
        del self.nbrs[u][0]
        del self.nbrs[v][0]

    def next_vertex(self):
        if self.pending:
            return self.pending.popleft(), True
        return self.pi[self.picks.index(len(self.pi))], False

    def park(self, v, from_queue):
        if not from_queue:
            self.pending.append(v)


def oracle_fcl(state):
    """One pair at a time: keep each new non-loop pair until M are live,
    within 100 * M draws; then the round(eta * M) slots whose sign words
    rank lowest (ties by slot) turn positive."""
    pi, m = state.pi, state.target_m
    words = WordStream(state.topology)
    drawn = 0
    while len(state.live) < m:
        if drawn == 100 * m:
            raise StallError(
                f"generate's FCL could not place {m} distinct edges "
                f"(input N={state.n}, M={m})"
            )
        drawn += 1
        u = pi[words.index(len(pi))]
        v = pi[words.index(len(pi))]
        if u == v or v in state.adj[u]:
            continue
        state.insert(u, v, Sign.NEGATIVE)
    # fcl_initialize reads whole chunks of ceil(2 (M + M // 8) / BLOCK)
    # blocks, so the rounds start after the rest of the last chunk.
    chunk = G.BLOCK * -(-2 * (m + m // 8) // G.BLOCK)
    for _ in range(-2 * drawn % chunk):
        words.word()
    rank = [state.signs.getrandbits(64) for _ in range(G.BLOCK * -(-m // G.BLOCK))][:m]
    keys = list(state.live.keys())
    for idx in sorted(range(m), key=lambda i: (rank[i], i))[:round(state.eta * m)]:
        u, v = keys[idx]
        state.live[(u, v)] = Sign.POSITIVE
        state.adj[u][v] = Sign.POSITIVE
        state.adj[v][u] = Sign.POSITIVE


def oracle_step(state):
    hops, coins = state.hops, state.coins

    def sign_of_new_edge(wedge, v_i, v_j):
        if state.sign_policy == IID:
            return Sign.POSITIVE if next(coins) < state.eta else Sign.NEGATIVE
        if wedge:
            balanced = next(coins) < state.beta
            return wedge_sign_oracle(state, v_i, v_j, balanced, state.alpha)
        return Sign.POSITIVE if next(coins) < state.alpha else Sign.NEGATIVE

    wedge_branch = next(hops) < state.rho
    walk_failures = 0
    for _ in range(100):
        v_i, i_queued = state.next_vertex()
        if wedge_branch:
            row = state.nbrs[v_i]
            if not row:
                state.park(v_i, i_queued)
                wedge_branch = False
                continue
            v_k = row[hops.index(len(row))]
            v_j = state.nbrs[v_k][hops.index(len(state.nbrs[v_k]))]
            if v_j == v_i:
                state.park(v_i, i_queued)
                walk_failures += 1
            elif v_j in state.adj[v_i]:
                state.park(v_i, i_queued)
                state.park(v_j, False)
                walk_failures += 1
            else:
                state.insert(v_i, v_j, sign_of_new_edge(True, v_i, v_j))
                state.evict_oldest()
                state.steps_done += 1
                return
            if walk_failures >= 10:
                wedge_branch = False
            continue
        v_j, j_queued = state.next_vertex()
        if v_j == v_i:
            state.park(v_i, i_queued and j_queued)
            continue
        if v_j in state.adj[v_i]:
            state.park(v_i, i_queued)
            state.park(v_j, j_queued)
            continue
        state.insert(v_i, v_j, sign_of_new_edge(False, v_i, v_j))
        state.evict_oldest()
        state.steps_done += 1
        return
    raise RetryExhaustedError(
        f"generate's step {state.steps_done} found no legal edge after 100 "
        f"tries (input N={state.n}, M={state.target_m})"
    )


def oracle_state_run(g, params, seed, policy):
    """FCL plus M rounds on the tuple-key state; returns the output rows.
    IID is STCL, which keeps only rho and takes eta from the input."""
    if policy == IID:
        params = ModelParams(
            rho=params.rho, alpha=0.0, beta=0.0, eta=compute_eta(g), delta_b=0.0
        )
    state = TupleKeyState(
        g.n, build_sampling_vector(g).tolist(), g.m, params.rho, params.alpha,
        params.beta, params.eta, seed, policy,
    )
    oracle_fcl(state)
    for _ in range(g.m):
        oracle_step(state)
    return build_graph([(u, v, s) for (u, v), s in state.live.items()], n=g.n).edges


def oracle_generate(g, params, seed, policy):
    """What ``generate`` must do: refuse an input whose non-isolated
    vertices are pairwise adjacent (checked here by brute force), else run
    the tuple-key state."""
    used = [v for v, d in enumerate(g.degrees()) if d]
    sign = sign_lookup(g)
    if all((u, v) in sign for u, v in itertools.combinations(used, 2)):
        raise StallError("no room")
    return oracle_state_run(g, params, seed, policy)


STATE_ORACLE_GRAPHS = {
    "power-law-2.1": lambda: power_law_signed_graph(400, 1600, seed=14, gamma=2.1),
    "power-law-3.0": lambda: power_law_signed_graph(400, 1600, seed=15, gamma=3.0),
    "star": ORACLE_GRAPHS["star"],
    "k3": ORACLE_GRAPHS["k3"],
}


def outcome(run):
    """Output rows, or the type of the SignetError raised."""
    try:
        return run()
    except SignetError as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(STATE_ORACLE_GRAPHS))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generate_equals_tuple_key_state_oracle(name, policy, seed):
    g = STATE_ORACLE_GRAPHS[name]()
    params = make_params(rho=0.6)
    rows = outcome(lambda: run_policy(g, params, seed, policy).edges)
    assert rows == outcome(lambda: oracle_generate(g, params, seed, policy))
    assert (rows is StallError) == (name == "k3")


def test_ring_runs_out_of_retries_like_tuple_key_state(monkeypatch):
    # Past the room check, a complete input exhausts a step's retries in
    # both states, at the same step and with the same message.
    monkeypatch.setattr(G, "_require_room", lambda g_input: None)
    g = ORACLE_GRAPHS["k3"]()
    params = make_params(rho=0.6)
    for seed in (0, 1, 7):
        for policy in POLICIES:
            with pytest.raises(RetryExhaustedError) as ring:
                run_policy(g, params, seed, policy)
            with pytest.raises(RetryExhaustedError) as tuple_key:
                oracle_state_run(g, params, seed, policy)
            assert str(ring.value) == str(tuple_key.value)


def complete_graph(k, n=None):
    return build_graph(
        [(u, v, Sign.POSITIVE) for u, v in itertools.combinations(range(k), 2)], n=n
    )


@pytest.mark.parametrize("g, k, m", [
    (complete_graph(5), 5, 10),
    (complete_graph(3), 3, 3),
    (complete_graph(2, n=3), 2, 1),
    (complete_graph(4, n=9), 4, 6),
])
def test_generate_refuses_input_without_room(g, k, m):
    with pytest.raises(StallError) as err:
        generate(g, make_params(), seed=0)
    assert f"k={k}" in str(err.value)
    assert f"M={m}" in str(err.value)


def test_room_check_passes_an_input_with_a_free_pair():
    # K4 plus a pendant edge and an isolated vertex: 6 non-isolated
    # vertices, 7 edges, 15 pairs.
    g = build_graph(
        [(u, v, Sign.POSITIVE) for u, v in itertools.combinations(range(4), 2)]
        + [(3, 5, Sign.NEGATIVE), (4, 5, Sign.NEGATIVE)], n=7,
    )
    G._require_room(g)
    assert generate(g, make_params(), seed=0).m == g.m


@st.composite
def small_graphs(draw):
    n = draw(st.integers(3, 12))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=2))
    signs = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    extra = draw(st.integers(0, 3))
    return build_graph(
        [(u, v, Sign.POSITIVE if s else Sign.NEGATIVE)
         for (u, v), s in zip(chosen, signs)],
        n=n + extra,
    )


unit = st.floats(0.0, 1.0)


@given(
    small_graphs(), unit, unit, unit, unit, st.integers(0, 2**32 - 1),
    st.sampled_from(POLICIES),
)
@settings(max_examples=150, deadline=None)
def test_generated_graph_invariants(g, rho, alpha, beta, eta, seed, policy):
    params = ModelParams(rho=rho, alpha=alpha, beta=beta, eta=eta, delta_b=0.5)
    try:
        out = run_policy(g, params, seed, policy)
    except SignetError:
        return  # dense inputs may leave no room; the error is typed
    assert out.n == g.n
    assert out.m == g.m
    pairs = [(u, v) for u, v, _ in out.edges]
    assert all(u < v for u, v in pairs)  # canonical, so no self-loops
    assert len(set(pairs)) == len(pairs)
    assert all(s is Sign.POSITIVE or s is Sign.NEGATIVE for _, _, s in out.edges)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.tsv")
        write_canonical(out, path)
        back = read_graph(path)
    assert sorted(back.edges) == sorted(out.edges)


@given(small_graphs(), unit, st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_fcl_leaves_rounded_eta_m_positive_slots(g, eta, seed):
    try:
        state = graph_state(g, eta, seed)
    except StallError:
        return
    assert state.es.count(1) == round(eta * g.m)
    assert state.es.count(-1) == g.m - round(eta * g.m)
    audit(state)


def test_state_holds_shared_vertex_ints():
    # Ids above 256 are not interned by Python, so a fresh int per endpoint
    # would fail audit's identity checks here.
    g = power_law_signed_graph(2000, 6000, seed=16)
    state = graph_state(g, eta=0.8, seed=6, rho=0.5, alpha=0.8, beta=0.9)
    audit(state)
    for _ in range(3000):
        generation_step(state)
    audit(state)


SIGN_PARAMS = [(0.8, 0.9, 0.85), (0.1, 0.2, 0.3), (1.0, 0.0, 1.0), (0.0, 1.0, 0.0)]


@pytest.mark.parametrize("name", ["power-law", "hub-heavy", "star"])
@pytest.mark.parametrize("seed", [0, 3])
def test_topology_depends_only_on_input_rho_and_seed(name, seed):
    g = ORACLE_GRAPHS[name]()
    runs = [generate(g, make_params(rho=0.6, alpha=a, beta=b, eta=e), seed)
            for a, b, e in SIGN_PARAMS]
    # On g itself STCL would take the held networks' columns; a fresh copy
    # has none, so it runs the rounds.
    runs.append(stcl_generate(fresh(g), 0.6, seed))
    signs = set()
    for out in runs:
        assert np.array_equal(out.u, runs[0].u) and np.array_equal(out.v, runs[0].v)
        signs.add(out.sign.tobytes())
    assert len(signs) > 1
    assert not np.array_equal(generate(g, make_params(rho=0.2), seed).u, runs[0].u)


@given(small_graphs(), unit, unit, unit, unit, unit, unit, unit,
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_sign_parameters_never_change_topology(g, rho, a1, b1, e1, a2, b2, e2, seed):
    def topology(run):
        try:
            out = run()
        except SignetError as exc:
            return type(exc)
        return out.u.tolist(), out.v.tolist()

    first = topology(lambda: generate(g, make_params(rho, a1, b1, e1), seed))
    assert first == topology(lambda: generate(g, make_params(rho, a2, b2, e2), seed))
    assert first == topology(lambda: stcl_generate(g, rho, seed))


def fresh(g):
    """A copy of ``g`` that holds no generated network (``replace`` leaves
    the fields outside ``__init__`` at their defaults)."""
    return dataclasses.replace(g)


def columns(g):
    return g.u.tobytes(), g.v.tobytes(), g.sign.tobytes(), g.n


@given(small_graphs(), unit, unit, unit, unit, st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_stcl_is_the_same_with_and_without_a_held_network(g, rho, alpha, beta, eta, seed):
    cold = outcome(lambda: columns(stcl_generate(fresh(g), rho, seed)))
    try:
        held = generate(g, make_params(rho, alpha, beta, eta), seed)
    except SignetError as exc:
        assert cold is type(exc)
        return
    assert g._generated[rho, str(seed)] is held
    assert columns(stcl_generate(g, rho, seed)) == cold


def count_steps(monkeypatch):
    """The number of generation steps taken so far, as a one-item list."""
    steps = [0]
    step = G.generation_step

    def counted(state):
        steps[0] += 1
        step(state)

    monkeypatch.setattr(G, "generation_step", counted)
    return steps


def test_generated_networks_are_held_weakly(monkeypatch):
    g = ORACLE_GRAPHS["power-law"]()
    steps = count_steps(monkeypatch)
    net = generate(g, make_params(rho=0.6), seed=3)
    assert steps[0] == g.m
    assert stcl_generate(g, 0.6, seed=3).u is net.u  # no rounds: the held columns
    assert steps[0] == g.m
    assert stcl_generate(g, 0.5, seed=3).m == g.m  # another rho: the rounds run
    assert stcl_generate(g, 0.6, seed=4).m == g.m  # another seed: the rounds run
    assert steps[0] == 3 * g.m
    del net
    gc.collect()
    assert len(g._generated) == 0
    stcl_generate(g, 0.6, seed=3)
    assert steps[0] == 4 * g.m


@given(small_graphs(), unit, unit, unit, unit, st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=100, deadline=None)
def test_a_network_and_its_stcl_twin_share_one_measurement(
    g, rho, alpha, beta, eta, seed, twin_first
):
    try:
        net = generate(g, make_params(rho, alpha, beta, eta), seed)
    except SignetError:
        return
    twin = stcl_generate(g, rho, seed)
    pair = (twin, net) if twin_first else (net, twin)
    first, second = map(stats_report, pair)
    for h, stats in zip(pair, (first, second)):
        assert stats == stats_report(fresh(h))  # census, eta, delta_b and the rest
    assert second.degrees is first.degrees
    assert second.clustering is first.clustering
    assert second.degree_histogram is first.degree_histogram


def test_a_network_and_its_twin_keep_no_listing():
    # A graph measured alone keeps its listing in ``_triangles`` until learn
    # takes it or evaluate drops it; an STCL twin made from a held network
    # is measured at once over that network's listing, which it takes.
    g = ORACLE_GRAPHS["power-law"]()
    cold = stcl_generate(g, 0.6, seed=3)  # no held network: the rounds run
    assert cold._stats is None
    alone = generate(g, make_params(rho=0.6), seed=4)
    for h in (g, cold, alone):
        stats_report(h)
        assert h._triangles.xa.dtype == np.int32
    net = generate(g, make_params(rho=0.6), seed=3)
    twin = stcl_generate(g, 0.6, seed=3)
    assert net._stats is not None and twin._stats is not None
    assert net._triangles is None and twin._triangles is None
    held = weakref.ref(net)
    del net
    gc.collect()
    assert held() is None  # the twin holds no graph


@pytest.mark.parametrize("before", ["measured", "learned"])
def test_a_twin_made_after_its_network_was_measured_is_measured_from_it(
    listings, before
):
    g = ORACLE_GRAPHS["power-law"]()
    net = generate(g, make_params(rho=0.6), seed=3)
    if before == "measured":
        stats_report(net)  # net keeps its listing for the twin
    else:
        learn_parameters(net, LearnConfig(em_tol=0.0, em_max_iters=5))
    twin = stcl_generate(g, 0.6, seed=3)
    # Learn took net's listing, so the twin lists net again.
    assert listings == ([net] if before == "measured" else [net, net])
    assert twin._stats is not None and net._triangles is None
    assert twin._stats == stats_report(fresh(twin))
    assert twin._stats.degrees is net._stats.degrees


def test_learn_on_a_network_with_a_twin_lists_it_again(listings):
    g = ORACLE_GRAPHS["power-law"]()
    net = generate(g, make_params(rho=0.6), seed=3)
    twin = stcl_generate(g, 0.6, seed=3)  # takes net's listing
    twin_stats = twin._stats
    learned = learn_parameters(net, LearnConfig(em_tol=0.0, em_max_iters=5))
    assert listings == [net, net]
    assert twin._stats is twin_stats and twin_stats == stats_report(fresh(twin))
    assert net._triangles is None
    alone = learn_parameters(fresh(net), LearnConfig(em_tol=0.0, em_max_iters=5))
    assert learned.to_dict() == alone.to_dict()


def test_seed_keys_the_memo_by_its_stream_name():
    # 1 == 1.0, but the streams are seeded from "1" and "1.0".
    g = ORACLE_GRAPHS["power-law"]()
    held = generate(g, make_params(rho=0.6), seed=1)
    assert g._generated[0.6, "1"] is held
    assert columns(stcl_generate(g, 0.6, 1.0)) == columns(stcl_generate(fresh(g), 0.6, 1.0))


def sign_stream_oracle(seed, m, eta):
    """STCL's signs read word by word: skip the ceil(M / BLOCK) blocks that
    FCL's sign ranking reads, then sign t is positive iff uniform t < eta."""
    rng = random.Random(f"{seed}:signs")
    for _ in range(G.BLOCK * -(-m // G.BLOCK)):
        rng.getrandbits(64)
    return [1 if (rng.getrandbits(64) >> 11) / 2**53 < eta else -1 for _ in range(m)]


@pytest.mark.parametrize("name", ["power-law", "hub-heavy", "star"])
@pytest.mark.parametrize("seed", [0, 5])
def test_stcl_signs_equal_the_sign_stream_oracle(name, seed):
    g = ORACLE_GRAPHS[name]()
    expected = sign_stream_oracle(seed, g.m, compute_eta(g))
    assert stcl_generate(fresh(g), 0.4, seed).sign.tolist() == expected
    held = generate(g, make_params(rho=0.4), seed)
    out = stcl_generate(g, 0.4, seed)
    assert out.u is held.u and out.v is held.v
    assert out.sign.tolist() == expected
    assert not out.sign.flags.writeable


def pinned_input(seed, n, m):
    """A skewed random graph drawn with ``random.Random`` alone, whose draws
    are fixed across Python and numpy releases."""
    rng = random.Random(f"pinned:{seed}")
    edges = {}
    while len(edges) < m:
        u = int(rng.random() * rng.random() * n)
        v = int(rng.random() * n)
        s = 1 if rng.random() < 0.75 else -1
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), s)
    return build_graph([(u, v, s) for (u, v), s in edges.items()], n=n)


def digest(g):
    return hashlib.sha256(np.stack((g.u, g.v, g.sign)).astype("<i8").tobytes()).hexdigest()


# sha256 of the (u, v, sign) columns in edge order, as int64 rows, of
# generate and stcl_generate on two pinned inputs and two seeds. A change to
# them is a change to every seed's output and must be made on purpose.
PINNED_OUTPUTS = {
    (1, 120, 400, 1): (
        "602f3ef974d1dad424733e8eebb6dd0669fc430bbe2da3c1d6177fdc6ef48475",
        "fd716d9d5ececb0cbccfdead1019a9cb729e8d9055ac2bc3acd5d78cc8bc20bb",
    ),
    (1, 120, 400, 2): (
        "9451d0c9a9e6992a34c205acaa95edfdaff50f45e214bcc3bad0570a5f357b03",
        "ef2789941a934f83d9df28633ec0c5f2bfe5ef389aa6ebeee7e46a6869b08d88",
    ),
    (2, 300, 900, 1): (
        "7dd6d064d02e197553b70a408edb91bb08b1ae35aecb5463948a7c1b8550071f",
        "b6ab0b4297e1729af71d8e9a5671077c54c0ac8446a527b8c0a3270d8b1ff593",
    ),
    (2, 300, 900, 2): (
        "6ff395aa70dd8558ca43610dd6a6a342cfebc6c40f098ba10d236fb1e0cb8ec2",
        "64d6ac3aabd7a7564bf90b78cde32be975c2c4514f46612bff19f8b80c7a9817",
    ),
}


@pytest.mark.parametrize("input_seed, n, m, seed", sorted(PINNED_OUTPUTS))
def test_outputs_equal_their_pinned_digests(input_seed, n, m, seed):
    balance, iid = PINNED_OUTPUTS[input_seed, n, m, seed]
    params = make_params(rho=0.5, alpha=0.7, beta=0.8, eta=0.75)
    g = pinned_input(input_seed, n, m)
    assert digest(stcl_generate(g, 0.5, seed)) == iid  # the rounds run
    held = generate(g, params, seed)
    assert digest(held) == balance
    assert digest(stcl_generate(g, 0.5, seed)) == iid  # held columns


@pytest.mark.parametrize(
    "d", [1, 2] + [2**k + e for k in range(1, 34) for e in (-1, 0, 1)]
)
def test_float_to_index_stays_below_d(d):
    # The largest uniform, from an all-ones word, is 1 - 2**-53; its index
    # must be d - 1, for the step loop's int(x * d) and for numpy's draws.
    top = np.array([2**64 - 1], dtype="<u8")
    x = 1 - 2**-53
    assert G._uniforms(top)[0] == x
    assert int(x * d) == d - 1
    assert G._indices(top, d)[0] == d - 1


@given(
    st.lists(st.integers(0, 7), min_size=1, max_size=30),
    st.integers(0, 12), unit, st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_fcl_yields_distinct_pairs_and_rounded_eta_m_positives(pi, m, eta, seed):
    # A sampling vector with fewer than M legal pairs must stall.
    legal = {(u, v) for u in set(pi) for v in set(pi) if u < v}
    try:
        state = fcl_state(pi, m, n=8, eta=eta, seed=seed)
    except StallError:
        return
    assert len(legal) >= m
    pairs = [(min(u, v), max(u, v)) for u, v in zip(state.eu, state.ev)]
    assert len(pairs) == len(set(pairs)) == m
    assert set(pairs) <= legal
    assert state.es.count(1) == round(eta * m)
    assert state.es.count(-1) == m - round(eta * m)


def test_generator_leaves_numpy_random_unimported():
    # numpy imports numpy.random lazily, and loading it costs about 6 MB of
    # resident memory; the generator draws from random.Random only.
    code = (
        "import sys\n"
        "from signet.baseline import stcl_generate\n"
        "from signet.generate import generate\n"
        "from signet.graph import build_graph\n"
        "from signet.learn import ModelParams\n"
        "edges = [(v, (v * 7 + k) % 300, 1 - 2 * (k % 2)) for v in range(300)\n"
        "         for k in (1, 2, 3) if v < (v * 7 + k) % 300]\n"
        "g = build_graph(edges)\n"
        "generate(g, ModelParams(rho=0.5, alpha=0.8, beta=0.9, eta=0.8, delta_b=0.8), 1)\n"
        "stcl_generate(g, 0.5, 1)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(importlib.import_module("signet").__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def near_complete_graph(k):
    """K_k minus the edge (0, 1): exactly one free pair."""
    return build_graph(
        [(u, v, Sign.POSITIVE) for u, v in itertools.combinations(range(k), 2)
         if (u, v) != (0, 1)]
    )


@pytest.mark.parametrize("k", range(4, 9))
@pytest.mark.parametrize("policy", POLICIES)
def test_near_complete_input_gives_graph_or_typed_error(k, policy):
    g = near_complete_graph(k)
    params = make_params(rho=0.5, alpha=0.5, beta=0.5, eta=1.0)
    for seed in range(10):
        try:
            out = run_policy(g, params, seed, policy)
        except SignetError:
            continue
        assert out.m == g.m and out.n == g.n
        assert len({(u, v) for u, v, _ in out.edges}) == g.m
