"""Measured properties of signed networks.

Covers the sign ratio, the full signed triangle census (with per-vertex
triangle counts feeding local clustering), the balanced-triangle fraction
Δ_B and the degree histogram.

Triangles come from one vectorised listing (``list_triangles``) over the
graph's edge columns, Latapy's forward algorithm in numpy: each forward
edge's run of wedges is laid out whole, in blocks of about
``WEDGE_BLOCK`` wedges, and each wedge's closing edge is looked up in the
sorted forward edge keys. A listing is its three edge-index columns
(``TriangleEdges``, int32 while M < 2^31): the census, the per-vertex
triangle counts behind clustering and the EM wedge likelihoods in ``learn``
all read those columns alone. ``stats_report`` measures a graph once: its
result is kept on the graph, so analyze, learn, evaluate and sweep share
one measurement of the input. The measurement keeps its listing in the
graph's ``_triangles`` slot, so the input's triangles are listed once
across analyze and learn: ``take_triangles`` hands them to learn, which
leaves the graph without a listing, and ``evaluate`` drops a generated
network's as soon as it has measured it.
An STCL network made from a held network of ``generate``'s (same (u, v)
columns, other signs) is measured when it is made, by ``measure_twin``: it
reuses that network's degrees, clustering and histogram and counts its
census over that network's listing, which the held network then gives up.
"""

from __future__ import annotations

import mmap
from collections import Counter
from dataclasses import dataclass, replace
from types import MappingProxyType
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


@dataclass(frozen=True)
class GraphStats:
    eta: float
    delta_b: float
    degrees: tuple[int, ...]
    census: TriangleCensus
    clustering: tuple[float, ...]
    degree_histogram: MappingProxyType  # degree -> vertex count, read-only
    n: int
    m: int
    m_positive: int


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


def list_triangles(g: SignedGraph) -> TriangleEdges:
    """Degree-ordered forward triangle listing over ``g``'s edge columns,
    as int32 edge indices while M < 2^31.

    Vertices are ranked by (degree, id) and each edge points from its
    lower-ranked to its higher-ranked endpoint, so every triangle has one
    vertex whose two forward edges make a wedge closed by the third. The
    forward wedges are enumerated in blocks of whole forward-edge runs, at
    most ``WEDGE_BLOCK`` wedges plus one run (no longer than the largest
    forward out-degree), and each closing pair is looked up in the sorted
    forward edge keys, keeping memory bounded by the block size plus the
    triangles found.
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
    block of its own)."""
    m = len(flo)
    fkey = flo * n + fhi
    row_end = np.cumsum(np.bincount(flo, minlength=n))
    # Forward edge p pairs with every later edge of its row: row_len[p] wedges.
    row_len = row_end[flo] - 1 - np.arange(m)
    wedge_end = np.cumsum(row_len)
    n_wedges = int(wedge_end[-1]) if m else 0
    cuts = np.searchsorted(wedge_end, np.arange(WEDGE_BLOCK, n_wedges, WEDGE_BLOCK))
    bounds = [0, *cuts.tolist(), m]
    found = ([], [], [])  # xa, xb and ab, in blocks
    for p0, p1 in zip(bounds, bounds[1:]):
        rows, lens = np.arange(p0, p1), row_len[p0:p1]
        p = np.repeat(rows, lens)
        # Run p's wedges pair it with q = p + 1, p + 2, ... in order.
        q = np.arange(len(p)) + np.repeat(rows + 1 - (np.cumsum(lens) - lens), lens)
        key = fhi[p] * n + fhi[q]
        pos = np.minimum(np.searchsorted(fkey, key), m - 1)
        hit = np.flatnonzero(fkey[pos] == key)
        for parts, at in zip(found, (p, q, pos)):
            parts.append(fwd[at[hit]])
    return TriangleEdges(*map(np.concatenate, found))


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
    if g._stats is None:
        object.__setattr__(g, "_stats", _measure(g))
    return g._stats


def measure_twin(g: SignedGraph, twin: SignedGraph) -> None:
    """Measure ``g`` from ``twin``, a network with the same (u, v) columns
    and other signs: ``g``'s measurement is ``stats_report(twin)`` with
    ``g``'s own eta, m_positive, census and delta_b, the census counted over
    the listing that ``take_triangles(twin)`` hands over."""
    census = triangle_census(g, take_triangles(twin))
    object.__setattr__(g, "_stats", replace(
        stats_report(twin), eta=compute_eta(g), delta_b=census.delta_b,
        census=census, m_positive=g.m_positive,
    ))


def take_triangles(g: SignedGraph) -> TriangleEdges:
    """``g``'s measurement's listing (``stats_report``), after which ``g``
    holds none. If an earlier call took it, ``g`` is listed again."""
    stats_report(g)
    edges = g._triangles
    drop_triangles(g)
    return list_triangles(g) if edges is None else edges


def drop_triangles(g: SignedGraph) -> None:
    """Let ``g`` stop holding the listing its measurement kept."""
    object.__setattr__(g, "_triangles", None)


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
    degrees = d.tolist()
    stats = GraphStats(
        eta=compute_eta(g),
        delta_b=census.delta_b,
        degrees=tuple(degrees),
        census=census,
        clustering=tuple(clustering.tolist()),
        degree_histogram=MappingProxyType(dict(Counter(degrees))),
        n=g.n,
        m=g.m,
        m_positive=g.m_positive,
    )
    object.__setattr__(g, "_triangles", edges)
    return stats
