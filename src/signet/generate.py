"""Synthetic network generation.

Starts from a fast Chung-Lu edge set over the input's sampling vector,
splits it by the target sign fraction, then replaces every edge through M
insert/evict rounds that mix two-hop wedge closures (balance-driven signs)
with random insertions (sign-corrected by alpha). Collisions park their
vertices on a FIFO queue that is drained before new sampling-vector draws.

Besides the sign map ``adj[u]``, the state keeps each vertex's neighbours in
a plain list ``nbrs[u]`` in the same order, so a two-hop walk indexes a row
in O(1) instead of copying the map's keys. The rows stay in ``adj``'s order
because eviction is global FIFO: the edge it removes is the oldest live
edge, hence also the oldest entry in both endpoints' rows, and new edges
are appended at the end of both.
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import NoCommonNeighborError, RetryExhaustedError, StallError
from .graph import Sign, SignedGraph, build_graph, build_sampling_vector
from .learn import ModelParams

STEP_RETRY_BUDGET = 100
WEDGE_WALK_RETRIES = 10

# Sign policies: "balance" follows the wedge-closure balance rules;
# "iid" assigns every inserted edge positive with probability eta
# (the STCL baseline behavior).
SIGN_POLICY_BALANCE = "balance"
SIGN_POLICY_IID = "iid"


@dataclass
class GenerationState:
    n: int
    pi: list[int]
    target_m: int
    rho: float
    alpha: float
    beta: float
    eta: float
    rng: random.Random
    sign_policy: str = SIGN_POLICY_BALANCE
    live: "OrderedDict[tuple[int, int], Sign]" = field(init=False, default_factory=OrderedDict)
    adj: list[dict[int, Sign]] = field(init=False)
    # nbrs[u] lists adj[u]'s keys in adj[u]'s order (see the module docstring).
    nbrs: list[list[int]] = field(init=False)
    pending: deque = field(init=False, default_factory=deque)
    steps_done: int = field(init=False, default=0)

    def __post_init__(self):
        self.adj = [dict() for _ in range(self.n)]
        self.nbrs = [[] for _ in range(self.n)]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def insert(self, u: int, v: int, sign: Sign) -> None:
        key = (u, v) if u < v else (v, u)
        self.live[key] = sign
        self.adj[u][v] = sign
        self.adj[v][u] = sign
        self.nbrs[u].append(v)
        self.nbrs[v].append(u)

    def evict_oldest(self) -> tuple[int, int]:
        (u, v), _ = self.live.popitem(last=False)
        del self.adj[u][v]
        del self.adj[v][u]
        del self.nbrs[u][0]
        del self.nbrs[v][0]
        return u, v

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
    sign_policy: str = SIGN_POLICY_BALANCE,
) -> GenerationState:
    """Sample M distinct edges by independent endpoint pairs from pi, then
    make exactly round(eta * M) of them positive (uniform placement).
    """
    if not pi:
        raise StallError("empty sampling vector")
    count = n if n is not None else (max(pi) + 1)
    state = GenerationState(
        n=count, pi=pi, target_m=m, rho=rho, alpha=alpha, beta=beta,
        eta=eta, rng=rng, sign_policy=sign_policy,
    )
    budget = 100 * m
    while len(state.live) < m:
        if budget <= 0:
            raise StallError(f"FCL could not place {m} distinct edges")
        budget -= 1
        u = rng.choice(pi)
        v = rng.choice(pi)
        if u == v or state.has_edge(u, v):
            continue
        state.insert(u, v, Sign.NEGATIVE)
    n_pos = round(eta * m)
    keys = list(state.live.keys())
    for idx in rng.sample(range(m), n_pos):
        u, v = keys[idx]
        state.live[(u, v)] = Sign.POSITIVE
        state.adj[u][v] = Sign.POSITIVE
        state.adj[v][u] = Sign.POSITIVE
    return state


def choose_wedge_sign(
    state: GenerationState, v_i: int, v_j: int, balanced_branch: bool, alpha: float
) -> Sign:
    """Sign for a wedge-closure edge by balance majority over all common
    neighbors. The balanced branch picks the sign that makes more of the
    created triangles balanced; the other branch picks the opposite. Ties
    fall back to a positive draw with probability alpha.
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
        return Sign.POSITIVE if state.rng.random() < alpha else Sign.NEGATIVE
    majority_positive = b_plus > b_minus
    if not balanced_branch:
        majority_positive = not majority_positive
    return Sign.POSITIVE if majority_positive else Sign.NEGATIVE


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


def _iid_sign(state: GenerationState) -> Sign:
    return Sign.POSITIVE if state.rng.random() < state.eta else Sign.NEGATIVE


def generation_step(state: GenerationState) -> None:
    """One insert/evict round; eviction happens only after a successful
    insertion so the live edge count stays exactly M.
    """
    wedge_branch = state.rng.random() < state.rho
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
            elif state.has_edge(v_i, v_j):
                state.park(v_i, i_queued)
                state.park(v_j, False)
                walk_failures += 1
            else:
                if state.sign_policy == SIGN_POLICY_IID:
                    sign = _iid_sign(state)
                else:
                    balanced = state.rng.random() < state.beta
                    sign = choose_wedge_sign(state, v_i, v_j, balanced, state.alpha)
                state.insert(v_i, v_j, sign)
                state.evict_oldest()
                state.steps_done += 1
                return
            if walk_failures >= WEDGE_WALK_RETRIES:
                wedge_branch = False
            continue
        v_j, j_queued = state.next_vertex()
        if v_j == v_i:
            state.park(v_i, i_queued and j_queued)
            continue
        if state.has_edge(v_i, v_j):
            state.park(v_i, i_queued)
            state.park(v_j, j_queued)
            continue
        if state.sign_policy == SIGN_POLICY_IID:
            sign = _iid_sign(state)
        else:
            sign = Sign.POSITIVE if state.rng.random() < state.alpha else Sign.NEGATIVE
        state.insert(v_i, v_j, sign)
        state.evict_oldest()
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
    return build_graph(
        ((u, v, s) for (u, v), s in state.live.items()), n=state.n
    )


def generate(
    g_input: SignedGraph,
    params: ModelParams,
    seed: int,
    sign_policy: str = SIGN_POLICY_BALANCE,
) -> SignedGraph:
    """Generate a synthetic signed network with the input's size and
    sampling vector. Deterministic for a fixed (input, params, seed).
    """
    rng = random.Random(seed)
    pi = build_sampling_vector(g_input)
    state = fcl_initialize(
        pi, g_input.m, params.eta, rng, n=g_input.n,
        rho=params.rho, alpha=params.alpha, beta=params.beta,
        sign_policy=sign_policy,
    )
    return _run(state)
