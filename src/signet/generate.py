"""Synthetic network generation.

Starts from a fast Chung-Lu (FCL) edge set over the input's sampling vector,
splits it by the target sign fraction, then replaces every edge through M
insert/evict rounds that mix two-hop wedge closures (balance-driven signs)
with random insertions (positive with probability alpha). Collisions park
their vertices on a FIFO queue that is drained before new sampling-vector
draws.

Randomness comes from two ``random.Random`` streams seeded from the run's
seed. The topology stream draws FCL's endpoint pairs, each round's branch
coin, the walk hops and the sampling-vector picks. The sign stream draws
FCL's sign placement, the balanced-branch and tie coins and the signs of
random insertions. No sign steers a walk or a collision, so the live edges,
and with them the output's (u, v) columns, depend only on (input, rho,
seed): alpha, beta and eta change signs only. A stream is read in whole
blocks of ``BLOCK`` 64-bit words from ``getrandbits``, which numpy turns
into 53-bit uniforms x in [0, 1) or into indices floor(x * d). The rounds
take them one at a time with ``next()``.

There is one path through the rounds. The STCL baseline
(``baseline.stcl_generate``, through ``_iid_generate``) keeps their
topology and draws each sign i.i.d., positive with probability alpha.
``generate`` remembers each network it returns on its input, weakly, under
(rho, str(seed)). STCL on the same input, rho and seed takes the (u, v)
columns of such a network while the caller still holds it, and is measured
from it at once (``metrics.measure_twin``). Otherwise it runs the rounds
itself, at its own parameters, and keeps only their columns: the
balance-aware signs they draw are discarded. Either way its signs are one
numpy comparison over a fresh sign stream. Step t writes ring slot t, and
after M steps ``head`` is back at 0, so output edge t is step t's edge. Its
sign is positive iff uniform t of the sign stream, counted after the blocks
FCL's sign ranking reads, is below alpha.

FCL draws its endpoint pairs in bulk, in chunks of whole blocks that hold
at least 9M/8 pairs: pair i is the two entries of pi that words 2i and
2i + 1 index. It keeps the first M pairs that are no self-loop and repeat
no earlier pair, out of at most 100 * M draws, and makes exactly
round(eta * M) of them positive: the slots whose sign-stream words rank
lowest. The rounds' topology draws start after the last chunk FCL read.

The state holds plain ints only: a sign is +1 or -1, as in the output
graph's sign column, and every vertex id in the ring, the rows, ``adj`` and
the queue is one of the n shared int objects of ``ids``. The M live edges
sit in a fixed ring of slots, edge (``eu[i]``, ``ev[i]``) with sign
``es[i]``, and ``head`` is the slot of the oldest one. A round overwrites
that slot with the new edge: an insertion and a FIFO eviction in one write,
since the new edge is never live, hence never the one evicted. Reading the
ring from ``head`` on lists the live edges oldest first.

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
import weakref
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import NoCommonNeighborError, RetryExhaustedError, StallError
from .graph import SignedGraph, build_graph, build_sampling_vector
from .learn import ModelParams
from .metrics import measure_twin

STEP_RETRY_BUDGET = 100
WEDGE_WALK_RETRIES = 10
BLOCK = 4096  # 64-bit words per read of a random stream


def _words(rng: random.Random, blocks: int) -> np.ndarray:
    """The next ``blocks`` blocks of ``rng``'s 64-bit words. Reading k
    blocks at once gives the same words as reading them one at a time."""
    nbytes = 8 * BLOCK * blocks
    return np.frombuffer(rng.getrandbits(8 * nbytes).to_bytes(nbytes, "little"), "<u8")


def _uniforms(words: np.ndarray) -> np.ndarray:
    """53-bit uniforms in [0, 1): each word's top 53 bits over 2**53."""
    return (words >> 11).astype(np.float64) * 2.0**-53


def _indices(words: np.ndarray, d: int) -> np.ndarray:
    """Uniform indices in [0, d): floor(x * d) of each word's uniform x."""
    return (_uniforms(words) * d).astype(np.int64)


def _stream(rng: random.Random, convert: Callable[[np.ndarray], Iterable]) -> Iterator:
    """Endless draws: ``convert`` of each block of ``rng``, read on demand."""
    return chain.from_iterable(map(convert, map(_words, repeat(rng), repeat(1))))


def _uniform_list(words: np.ndarray) -> list[float]:
    return _uniforms(words).tolist()


@dataclass
class GenerationState:
    n: int
    pi: np.ndarray  # the sampling vector, int64
    target_m: int
    rho: float
    alpha: float
    beta: float
    seed: int
    # ids[v] is v; every vertex id the state holds is one of these objects.
    ids: list[int] = field(init=False)
    # The two streams and the draws the rounds take from them.
    topology: random.Random = field(init=False)
    signs: random.Random = field(init=False)
    picks: Iterator[int] = field(init=False)  # sampling-vector entries
    hops: Iterator[float] = field(init=False)  # branch coins and walk hops
    coins: Iterator[float] = field(init=False)  # sign coins
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
        ids = self.ids = list(range(self.n))
        pi = self.pi
        self.adj = [dict() for _ in range(self.n)]
        self.topology = random.Random(f"{self.seed}:topology")
        self.signs = random.Random(f"{self.seed}:signs")
        self.picks = _stream(
            self.topology,
            lambda words: map(ids.__getitem__, pi[_indices(words, len(pi))].tolist()),
        )
        self.hops = _stream(self.topology, _uniform_list)
        self.coins = _stream(self.signs, _uniform_list)

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
        return next(self.picks), False

    def park(self, v: int, from_queue: bool) -> None:
        # A vertex gets one deferred retry; re-enqueueing queue-sourced
        # vertices on a repeat collision would livelock the step.
        if not from_queue:
            self.pending.append(v)


def fcl_initialize(state: GenerationState, eta: float) -> None:
    """Fill the ring with the first M distinct non-loop endpoint pairs drawn
    from pi, then make exactly round(eta * M) of them positive (see the
    module docstring)."""
    pi, m, n = state.pi, state.target_m, state.n
    budget = 100 * m
    chunk = -(-2 * (m + m // 8) // BLOCK)
    pairs = np.empty((0, 2), np.int64)
    while True:
        drawn = pi[_indices(_words(state.topology, chunk), len(pi))].reshape(-1, 2)
        pairs = np.concatenate((pairs, drawn))[:budget]
        u, v = pairs[:, 0], pairs[:, 1]
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        keys[u == v] = -1
        _, first = np.unique(keys, return_index=True)
        first.sort()
        first = first[keys[first] >= 0]
        if len(first) >= m:
            break
        if len(pairs) == budget:
            raise StallError(
                f"generate's FCL could not place {m} distinct edges "
                f"(input N={n}, M={m})"
            )
    ring = pairs[first[:m]]
    del pairs, keys, u, v, first  # the draws, before the rows are built
    signs = np.ones(m, np.int64)
    rank = np.argsort(_words(state.signs, -(-m // BLOCK))[:m], kind="stable")
    signs[rank[round(eta * m):]] = -1
    ids = state.ids
    eu = state.eu = list(map(ids.__getitem__, ring[:, 0].tolist()))
    ev = state.ev = list(map(ids.__getitem__, ring[:, 1].tolist()))
    es = state.es = signs.tolist()
    adj = state.adj
    for a, b, s in zip(eu, ev, es):
        adj[a][b] = adj[b][a] = s
    state.nbrs = [list(a) for a in adj]


def choose_wedge_sign(
    state: GenerationState, v_i: int, v_j: int, balanced_branch: bool, alpha: float
) -> int:
    """Sign (+1 or -1) for a wedge-closure edge by balance majority over all
    common neighbors. The balanced branch picks the sign that makes more of
    the created triangles balanced; the other branch picks the opposite.
    Ties fall back to a positive sign-stream coin with probability alpha.
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
        return 1 if next(state.coins) < alpha else -1
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
    hops = state.hops
    v_k = row[int(next(hops) * len(row))]
    row = state.nbrs[v_k]
    return v_k, row[int(next(hops) * len(row))]


def generation_step(state: GenerationState) -> None:
    """One insert/evict round; eviction happens only after a successful
    insertion so the live edge count stays exactly M.
    """
    adj, coins = state.adj, state.coins
    wedge_branch = next(state.hops) < state.rho
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
                balanced = next(coins) < state.beta
                sign = choose_wedge_sign(state, v_i, v_j, balanced, state.alpha)
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
        sign = 1 if next(coins) < state.alpha else -1
        state.replace_oldest(v_i, v_j, sign)
        state.steps_done += 1
        return
    raise RetryExhaustedError(
        f"generate's step {state.steps_done} found no legal edge after "
        f"{STEP_RETRY_BUDGET} tries (input N={state.n}, M={state.target_m})"
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
    sampling vector. Deterministic for a fixed (input, params, seed); the
    (u, v) columns depend only on (input, params.rho, seed). The network is
    remembered on ``g_input`` for as long as the caller holds it.
    """
    out = _generate(g_input, params, seed)
    if g_input._generated is None:
        object.__setattr__(g_input, "_generated", weakref.WeakValueDictionary())
    g_input._generated[params.rho, str(seed)] = out
    return out


def _iid_generate(g_input: SignedGraph, params: ModelParams, seed: int) -> SignedGraph:
    """``generate``'s topology at (params.rho, seed) with every sign drawn
    i.i.d. positive with probability params.alpha: the body of
    ``baseline.stcl_generate``. The (u, v) columns are those of a held
    network of ``generate``'s, or else of the same rounds run here, whose
    own signs are discarded (see the module docstring)."""
    memo = g_input._generated
    held = memo.get((params.rho, str(seed))) if memo is not None else None
    topology = held if held is not None else _generate(g_input, params, seed)
    m = topology.m
    fcl = -(-m // BLOCK)  # the blocks FCL's sign ranking reads
    words = _words(random.Random(f"{seed}:signs"), 2 * fcl)[fcl * BLOCK:][:m]
    sign = np.where(_uniforms(words) < params.alpha, 1, -1).astype(np.int8)
    sign.flags.writeable = False
    out = replace(topology, sign=sign)
    if held is not None:
        measure_twin(out, held)
    return out


def _generate(g_input: SignedGraph, params: ModelParams, seed: int) -> SignedGraph:
    """FCL and the M rounds: the body of ``generate``, and of
    ``_iid_generate`` when no network of ``generate``'s is held."""
    pi = build_sampling_vector(g_input)
    _require_room(g_input)
    state = GenerationState(
        n=g_input.n, pi=pi, target_m=g_input.m, rho=params.rho,
        alpha=params.alpha, beta=params.beta, seed=seed,
    )
    fcl_initialize(state, params.eta)
    return _run(state)
