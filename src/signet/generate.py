"""Synthetic network generation.

Starts from a fast Chung-Lu edge set over the input's sampling vector,
splits it by the target sign fraction, then replaces every edge through M
insert/evict rounds that mix two-hop wedge closures (balance-driven signs)
with random insertions (positive with probability alpha). Collisions park
their vertices on a FIFO queue that is drained before new sampling-vector
draws. The STCL baseline (``baseline.stcl_generate``) runs the same rounds
with ``balance`` off: a wedge closure's sign is then drawn like a random
insertion's, and that is the only place the two models differ.

The state holds plain ints only: a sign is +1 or -1, as in the output
graph's sign column. The M live edges sit in a fixed ring of slots, edge
(``eu[i]``, ``ev[i]``) with sign ``es[i]``, and ``head`` is the slot of the
oldest one. A round overwrites that slot with the new edge: an insertion
and a FIFO eviction in one write, since the new edge is never live, hence
never the one evicted. Reading the ring from ``head`` on lists the live
edges oldest first.

Besides the sign map ``adj[u]``, the state keeps each vertex's neighbours in
a plain list ``nbrs[u]`` in the same order, so a two-hop walk indexes a row
in O(1) instead of copying the map's keys. The rows stay in ``adj``'s order
because eviction is global FIFO: the edge it removes is the oldest live
edge, hence also the oldest entry in both endpoints' rows, and new edges
are appended at the end of both. FCL never walks, so it fills only ``adj``
and the ring, and builds the rows once at its end.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NoCommonNeighborError, RetryExhaustedError, StallError
from .graph import SignedGraph, build_graph, build_sampling_vector
from .learn import ModelParams

STEP_RETRY_BUDGET = 100
WEDGE_WALK_RETRIES = 10


@dataclass
class GenerationState:
    n: int
    pi: list[int]
    target_m: int
    rho: float
    alpha: float
    beta: float
    rng: random.Random
    # Off for STCL: wedge closures ignore balance (see the module docstring).
    balance: bool = True
    # The ring of live edges (see the module docstring).
    eu: list[int] = field(init=False, default_factory=list)
    ev: list[int] = field(init=False, default_factory=list)
    es: list[int] = field(init=False, default_factory=list)
    head: int = field(init=False, default=0)
    adj: list[dict[int, int]] = field(init=False)
    # nbrs[u] lists adj[u]'s keys in adj[u]'s order; fcl_initialize builds it.
    nbrs: list[list[int]] = field(init=False, default_factory=list)
    pending: deque = field(init=False, default_factory=deque)
    steps_done: int = field(init=False, default=0)

    def __post_init__(self):
        self.adj = [dict() for _ in range(self.n)]

    def replace_oldest(self, u: int, v: int, sign: int) -> None:
        """Insert (u, v) with ``sign`` and evict the oldest live edge."""
        adj, nbrs, h = self.adj, self.nbrs, self.head
        old_u, old_v = self.eu[h], self.ev[h]
        del adj[old_u][old_v]
        del adj[old_v][old_u]
        del nbrs[old_u][0]
        del nbrs[old_v][0]
        self.eu[h] = u
        self.ev[h] = v
        self.es[h] = sign
        adj[u][v] = sign
        adj[v][u] = sign
        nbrs[u].append(v)
        nbrs[v].append(u)
        h += 1
        self.head = 0 if h == len(self.eu) else h

    def next_vertex(self) -> tuple[int, bool]:
        """Returns (vertex, from_queue). The queue drains before pi draws."""
        if self.pending:
            return self.pending.popleft(), True
        return self.rng.choice(self.pi), False

    def park(self, v: int, from_queue: bool) -> None:
        # A vertex gets one deferred retry; re-enqueueing queue-sourced
        # vertices on a repeat collision would livelock the step.
        if not from_queue:
            self.pending.append(v)


def fcl_initialize(
    pi: list[int],
    m: int,
    eta: float,
    rng: random.Random,
    n: Optional[int] = None,
    rho: float = 0.0,
    alpha: float = 0.0,
    beta: float = 0.0,
) -> GenerationState:
    """Sample M distinct edges by independent endpoint pairs from pi, then
    make exactly round(eta * M) of them positive (uniform placement).
    """
    if not pi:
        raise StallError("empty sampling vector")
    count = n if n is not None else (max(pi) + 1)
    state = GenerationState(
        n=count, pi=pi, target_m=m, rho=rho, alpha=alpha, beta=beta, rng=rng,
    )
    adj, eu, ev = state.adj, state.eu, state.ev
    budget = 100 * m
    while len(eu) < m:
        if budget <= 0:
            raise StallError(f"FCL could not place {m} distinct edges")
        budget -= 1
        u = rng.choice(pi)
        v = rng.choice(pi)
        if u == v or v in adj[u]:
            continue
        adj[u][v] = adj[v][u] = -1
        eu.append(u)
        ev.append(v)
    es = state.es = [-1] * m
    for idx in rng.sample(range(m), round(eta * m)):
        u, v = eu[idx], ev[idx]
        es[idx] = adj[u][v] = adj[v][u] = 1
    state.nbrs = [list(a) for a in adj]
    return state


def choose_wedge_sign(
    state: GenerationState, v_i: int, v_j: int, balanced_branch: bool, alpha: float
) -> int:
    """Sign (+1 or -1) for a wedge-closure edge by balance majority over all
    common neighbors. The balanced branch picks the sign that makes more of
    the created triangles balanced; the other branch picks the opposite.
    Ties fall back to a positive draw with probability alpha.
    """
    adj_i, adj_j = state.adj[v_i], state.adj[v_j]
    # The intersection walks the smaller row; the count does not depend on
    # its order. A wedge is balanced iff its two signs are equal.
    common = adj_i.keys() & adj_j.keys()
    total = len(common)
    b_plus = sum(1 for c in common if adj_i[c] == adj_j[c])
    if total == 0:
        raise NoCommonNeighborError(f"vertices {v_i}, {v_j} share no neighbor")
    b_minus = total - b_plus
    if b_plus == b_minus:
        return 1 if state.rng.random() < alpha else -1
    majority_positive = b_plus > b_minus
    if not balanced_branch:
        majority_positive = not majority_positive
    return 1 if majority_positive else -1


def _walk(state: GenerationState, v_i: int) -> Optional[tuple[int, int]]:
    """Uniform two-hop walk from v_i: neighbour v_k, then neighbour v_j of
    v_k. Returns (v_k, v_j), or None when v_i has no neighbours. Landing
    back on v_i is possible; the caller treats that as a collision.
    """
    row = state.nbrs[v_i]
    if not row:
        return None
    v_k = state.rng.choice(row)
    return v_k, state.rng.choice(state.nbrs[v_k])


def generation_step(state: GenerationState) -> None:
    """One insert/evict round; eviction happens only after a successful
    insertion so the live edge count stays exactly M.
    """
    rng, adj = state.rng, state.adj
    wedge_branch = rng.random() < state.rho
    walk_failures = 0
    for _ in range(STEP_RETRY_BUDGET):
        v_i, i_queued = state.next_vertex()
        if wedge_branch:
            hop = _walk(state, v_i)
            if hop is None:
                # Isolated v_i: park it and fall back to random insertion.
                state.park(v_i, i_queued)
                wedge_branch = False
                continue
            _, v_j = hop
            if v_j == v_i:
                state.park(v_i, i_queued)
                walk_failures += 1
            elif v_j in adj[v_i]:
                state.park(v_i, i_queued)
                state.park(v_j, False)
                walk_failures += 1
            else:
                if state.balance:
                    balanced = rng.random() < state.beta
                    sign = choose_wedge_sign(state, v_i, v_j, balanced, state.alpha)
                else:
                    sign = 1 if rng.random() < state.alpha else -1
                state.replace_oldest(v_i, v_j, sign)
                state.steps_done += 1
                return
            if walk_failures >= WEDGE_WALK_RETRIES:
                wedge_branch = False
            continue
        v_j, j_queued = state.next_vertex()
        if v_j == v_i:
            state.park(v_i, i_queued and j_queued)
            continue
        if v_j in adj[v_i]:
            state.park(v_i, i_queued)
            state.park(v_j, j_queued)
            continue
        sign = 1 if rng.random() < state.alpha else -1
        state.replace_oldest(v_i, v_j, sign)
        state.steps_done += 1
        return
    raise RetryExhaustedError(
        f"step {state.steps_done}: no legal edge after {STEP_RETRY_BUDGET} tries"
    )


def _run(state: GenerationState) -> SignedGraph:
    for _ in range(state.target_m):
        generation_step(state)
    # The output build is the run's memory peak: release the rows first.
    state.adj = state.nbrs = None
    ring = np.array((state.eu, state.ev, state.es), dtype=np.int64).T
    # Rotated to start at head, the ring lists the live edges oldest first.
    return build_graph(np.roll(ring, -state.head, axis=0), n=state.n)


def _require_room(g_input: SignedGraph) -> None:
    """Refuse an input whose non-isolated vertices are pairwise adjacent:
    every pair the generator can draw is then live, so no step can insert.
    """
    k = int(np.count_nonzero(g_input.degrees()))
    if k * (k - 1) // 2 == g_input.m:
        raise StallError(
            f"no room to generate: the input's k={k} non-isolated vertices "
            f"are pairwise adjacent (M={g_input.m} = k(k-1)/2), so no new "
            f"edge can be inserted"
        )


def generate(g_input: SignedGraph, params: ModelParams, seed: int) -> SignedGraph:
    """Generate a synthetic signed network with the input's size and
    sampling vector. Deterministic for a fixed (input, params, seed).
    """
    return _generate(g_input, params, seed, balance=True)


def _generate(
    g_input: SignedGraph, params: ModelParams, seed: int, balance: bool
) -> SignedGraph:
    """The body of ``generate`` and ``baseline.stcl_generate``."""
    rng = random.Random(seed)
    pi = build_sampling_vector(g_input)
    _require_room(g_input)
    state = fcl_initialize(
        pi, g_input.m, params.eta, rng, n=g_input.n,
        rho=params.rho, alpha=params.alpha, beta=params.beta,
    )
    state.balance = balance
    return _run(state)
