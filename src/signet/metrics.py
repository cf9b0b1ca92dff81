"""Measured properties of signed networks.

Covers the sign ratio, the full signed triangle census, the
balanced-triangle fraction Δ_B and each vertex's local clustering (from its
triangle count). Sizes and degrees are the graph's own (``g.n``, ``g.m``,
``g.m_positive``, ``g.degrees()``).

Triangles come from one vectorised listing (``list_triangles``) over the
graph's edge columns, Latapy's forward algorithm in numpy: each forward
edge's run of wedges is laid out whole, in blocks of about
``WEDGE_BLOCK`` wedges, and each wedge's closing edge is looked up in a
slot table hashed once per listing from the sorted forward edge keys, with
the keys that lost their slot searched in a small sorted spill. A listing
is its three edge-index columns (``TriangleEdges``, int32 while
M < 2^31): the census, the per-vertex triangle counts behind clustering
and the EM wedge likelihoods in ``learn`` all read those columns alone.

This module keeps, weakly keyed by the graph (which hashes by identity),
each graph's measurement and the listing that measurement made. A graph is
measured once (``stats_report``), so analyze, learn, evaluate and sweep
share one measurement of the input. The listing is kept until
``take_triangles`` hands it to learn, ``drop_triangles`` drops it
(``evaluate`` does, once it has measured a generated network) or an STCL
twin takes it, so the input's triangles are listed once across analyze
and learn. An STCL network made from a held network of ``generate``'s
(same (u, v) columns, other signs) is measured when it is made, by
``measure_twin``: it shares that network's clustering array and counts its
census over that network's listing, which the held network then gives up.
Either map lets an entry go when its graph is freed.
"""

from __future__ import annotations

import mmap
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyGraphError
from .graph import SignedGraph

TRIANGLE_TYPES = ("+++", "++-", "+--", "---")

WEDGE_BLOCK = 1 << 16  # forward wedges per numpy block, plus one run


@dataclass(frozen=True)
class TriangleCensus:
    """Triangle counts keyed by the multiset of edge signs."""

    ppp: int = 0
    ppm: int = 0
    pmm: int = 0
    mmm: int = 0

    @property
    def total(self) -> int:
        return self.ppp + self.ppm + self.pmm + self.mmm

    @property
    def balanced(self) -> int:
        # Even number of negative edges.
        return self.ppp + self.pmm

    @property
    def delta_b(self) -> float:
        """Balanced fraction of the triangles; 0.0 when there are none."""
        return self.balanced / self.total if self.total > 0 else 0.0

    def as_counts(self) -> dict[str, int]:
        return dict(zip(TRIANGLE_TYPES, (self.ppp, self.ppm, self.pmm, self.mmm)))

    def distribution(self) -> dict[str, float]:
        """Fractions per type; all zero when the graph has no triangles."""
        t = self.total
        if t == 0:
            return {k: 0.0 for k in TRIANGLE_TYPES}
        return {k: c / t for k, c in self.as_counts().items()}


@dataclass(frozen=True, eq=False)
class GraphStats:
    """What a graph's triangle listing gives: its sign ratio, census and
    balanced fraction, and each vertex's clustering coefficient as one
    read-only float64 array."""

    eta: float
    delta_b: float
    census: TriangleCensus
    clustering: np.ndarray


def compute_eta(g: SignedGraph) -> float:
    """Fraction of edges that are positive, M+ / M."""
    if g.m == 0:
        raise EmptyGraphError("eta undefined on an empty graph")
    return g.m_positive / g.m


class TriangleEdges(NamedTuple):
    """A triangle listing: the indices of each triangle's three edges in
    the graph's columns. Edges xa and xb meet at the triangle's
    lowest-ranked vertex x and ab closes their wedge; every reader
    (census, clustering, learn) reads these columns alone.
    """

    xa: np.ndarray
    xb: np.ndarray
    ab: np.ndarray


# Each measured graph's measurement, and the listing it made until it is
# taken or dropped; an entry goes when its graph is freed.
_stats = weakref.WeakKeyDictionary()  # SignedGraph -> GraphStats
_triangles = weakref.WeakKeyDictionary()  # SignedGraph -> TriangleEdges


def list_triangles(g: SignedGraph) -> TriangleEdges:
    """Degree-ordered forward triangle listing over ``g``'s edge columns,
    as int32 edge indices while M < 2^31.

    Vertices are ranked by (degree, id) and each edge points from its
    lower-ranked to its higher-ranked endpoint, so every triangle has one
    vertex whose two forward edges make a wedge closed by the third. The
    forward wedges are enumerated in blocks of whole forward-edge runs, at
    most ``WEDGE_BLOCK`` wedges plus one run (no longer than the largest
    forward out-degree), and each closing pair is looked up in a slot table
    of 2M to 4M int32 positions hashed from the sorted forward edge keys,
    keeping memory bounded by M, the block size and the triangles found.
    """
    return _closed_wedges(g.n, *_forward_edges(g))


def _forward_edges(g: SignedGraph) -> tuple[np.ndarray, ...]:
    """The forward edges sorted by their endpoints' (degree, id) ranks
    (lo, hi): each edge's index in ``g`` (int32 while M < 2^31), its lo and
    its hi. Each lo's row lists its forward neighbours in rank order.
    """
    n = g.n
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(g.degrees(), kind="stable")] = np.arange(n)
    ru, rv = rank[g.u], rank[g.v]
    lo, hi = np.minimum(ru, rv), np.maximum(ru, rv)
    fwd = np.argsort(lo * n + hi)
    index = np.int32 if g.m <= np.iinfo(np.int32).max else np.int64
    return fwd.astype(index), lo[fwd], hi[fwd]


def _closed_wedges(
    n: int, fwd: np.ndarray, flo: np.ndarray, fhi: np.ndarray
) -> TriangleEdges:
    """The edge indices ``fwd`` of every forward wedge p, q (p < q in one
    row) and of the forward edge pos that closes it, for positions p, q and
    pos in the sorted forward edges, in wedge order.

    Forward edge p's run is its wedges with the later edges of its row. A
    block is a range of whole runs, cut before each run that reaches the
    next multiple of ``WEDGE_BLOCK`` wedges, so it holds at most
    ``WEDGE_BLOCK`` wedges plus one run (a run longer than the block is a
    block of its own).

    The closing pair's key is looked up in a table of 2^bits slots (2M to
    4M), built once from the M sorted forward keys: each slot holds the
    position of the one key ``_slot`` sends there that won it, or 0 when
    none did. The keys that lost their slot make the spill, ascending and
    so sorted; a slot that lost a key holds its winner complemented (~pos),
    and only a miss there searches the spill. A miss in an empty slot
    reads position 0, which is no false hit: the key of position 0 hashes
    to a slot that is not empty."""
    m = len(flo)
    fkey = flo * n + fhi
    row_end = np.cumsum(np.bincount(flo, minlength=n))
    # Forward edge p pairs with every later edge of its row: row_len[p] wedges.
    row_len = row_end[flo] - 1 - np.arange(m)
    wedge_end = np.cumsum(row_len)
    n_wedges = int(wedge_end[-1]) if m else 0
    cuts = np.searchsorted(wedge_end, np.arange(WEDGE_BLOCK, n_wedges, WEDGE_BLOCK))
    bounds = [0, *cuts.tolist(), m]
    del wedge_end, cuts
    bits = m.bit_length() + 1
    own = np.arange(m, dtype=fwd.dtype)
    slot = _slot(fkey, bits)
    table = np.zeros(1 << bits, dtype=fwd.dtype)
    table[slot] = own  # one position per slot survives
    spill = np.flatnonzero(table[slot] != own)
    table[slot[spill]] = ~table[slot[spill]]  # once, however many it lost
    spill_key = fkey[spill]
    del own, slot
    found = ([], [], [])  # xa, xb and ab, in blocks
    for p0, p1 in zip(bounds, bounds[1:]):
        rows, lens = np.arange(p0, p1), row_len[p0:p1]
        p = np.repeat(rows, lens)
        # Run p's wedges pair it with q = p + 1, p + 2, ... in order.
        q = np.arange(len(p)) + np.repeat(rows + 1 - (np.cumsum(lens) - lens), lens)
        key = fhi[p]
        key *= n
        key += fhi[q]
        pos = table[_slot(key, bits)]
        crowded = pos < 0
        np.maximum(pos, ~pos, out=pos)  # ~pos where pos < 0
        hit = fkey[pos] == key
        ask = np.flatnonzero(crowded > hit)  # the misses in crowded slots
        s = np.minimum(np.searchsorted(spill_key, key[ask]), len(spill) - 1)
        ok = spill_key[s] == key[ask]
        pos[ask[ok]] = spill[s[ok]]
        hit[ask[ok]] = True
        hit = np.flatnonzero(hit)
        for parts, at in zip(found, (p, q, pos)):
            parts.append(fwd[at[hit]])
    del table, spill, spill_key  # the join below is the listing's peak
    return TriangleEdges(*map(np.concatenate, found))


def _slot(key: np.ndarray, bits: int) -> np.ndarray:
    """Each int64 ``key``'s slot among 2^bits: the top ``bits`` bits of its
    Fibonacci hash, key * 2^64 / golden ratio mod 2^64 (Knuth, TAOCP 3,
    6.4). The uint64 operands keep numpy 1.24 and 2.x in agreement."""
    h = key.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    h >>= np.uint64(64 - bits)
    return h.view(np.intp)


def triangle_census(g: SignedGraph, tri: TriangleEdges) -> TriangleCensus:
    """Count each triangle of ``g``'s listing ``tri`` once, classified by
    its three edge signs: a bincount of each triangle's negative-edge count.
    """
    neg = g.sign < 0
    counts = np.bincount(
        neg[tri.xa].astype(np.int64) + neg[tri.xb] + neg[tri.ab], minlength=4
    ).tolist()
    return TriangleCensus(ppp=counts[0], ppm=counts[1], pmm=counts[2], mmm=counts[3])


def stats_report(g: SignedGraph) -> GraphStats:
    """All measured properties from one triangle listing, computed on the
    first call for ``g`` and returned again by every later one.
    ``clustering`` is each vertex's c_i = 2 T_i / (d_i (d_i - 1)), 0 when
    d_i < 2."""
    stats = _stats.get(g)
    if stats is None:
        stats = _stats[g] = _measure(g)
    return stats


def measure_twin(g: SignedGraph, twin: SignedGraph) -> None:
    """Measure ``g`` from ``twin``, a network with the same (u, v) columns
    and other signs: ``g`` shares ``stats_report(twin)``'s clustering and
    has its own eta, census and delta_b, the census counted over the
    listing that ``take_triangles(twin)`` hands over."""
    census = triangle_census(g, take_triangles(twin))
    _stats[g] = GraphStats(
        eta=compute_eta(g), delta_b=census.delta_b, census=census,
        clustering=stats_report(twin).clustering,
    )


def take_triangles(g: SignedGraph) -> TriangleEdges:
    """``g``'s measurement's listing (``stats_report``), after which none
    is kept for ``g``. If an earlier call took it, ``g`` is listed again."""
    stats_report(g)
    edges = _triangles.pop(g, None)
    return list_triangles(g) if edges is None else edges


def drop_triangles(g: SignedGraph) -> None:
    """Stop keeping the listing ``g``'s measurement made."""
    _triangles.pop(g, None)


def _kept(columns: list[np.ndarray]) -> np.ndarray:
    """The equal-length, equal-dtype ``columns`` as the rows of one array in
    its own anonymous memory map, each source column freed once copied.
    Allocated from the heap, after the transient arrays of a listing, a
    long-lived array would keep the heap from shrinking below it."""
    dtype, size = columns[0].dtype, len(columns) * columns[0].nbytes
    if size == 0:
        return np.empty((len(columns), 0), dtype=dtype)
    out = np.frombuffer(mmap.mmap(-1, size), dtype=dtype).reshape(len(columns), -1)
    for i in range(len(columns)):
        out[i] = columns[i]
        columns[i] = None
    out.flags.writeable = False
    return out


def _measure(g: SignedGraph) -> GraphStats:
    columns = list(list_triangles(g))
    census = triangle_census(g, TriangleEdges(*columns))
    # 2 T_v is the sum, over v's edges e, of the triangles through e.
    through_edge = sum(np.bincount(c, minlength=g.m) for c in columns)
    twice = np.bincount(g.u, through_edge, g.n) + np.bincount(g.v, through_edge, g.n)
    edges = TriangleEdges(*_kept(columns))
    d = g.degrees()
    clustering = np.zeros(g.n)
    np.divide(twice, d * (d - 1), out=clustering, where=d >= 2)
    clustering.flags.writeable = False
    stats = GraphStats(eta=compute_eta(g), delta_b=census.delta_b, census=census,
                       clustering=clustering)
    _triangles[g] = edges
    return stats
