"""Measured properties of signed networks.

Covers the sign ratio, the full signed triangle census (with per-vertex
triangle counts feeding local clustering), the balanced-triangle fraction
Δ_B and the degree histogram.

Triangles come from one vectorised listing (``list_triangles``) over the
graph's edge columns; the census here and the EM wedge likelihoods in
``learn`` both read it. ``stats_report`` measures a graph once: its result
is kept on the graph, so analyze, learn, evaluate and sweep share one
measurement of the input. The measurement keeps its listing as each
triangle's three edge indices (``TriangleEdges``, int32 while M < 2^31) in
the graph's ``_triangles`` slot, so the input's triangles are listed once
across analyze and learn: ``take_triangles`` hands them to learn, which
reads its wedge likelihoods from those three columns alone and leaves the
graph without a listing, and ``evaluate`` drops a generated network's as
soon as it has measured it.
A network and its STCL twin (same (u, v) columns, other signs) share one
measurement instead: the first of them measured keeps its result and its
edge indices in the pair's ``_shared`` dict, and the other reuses the
degrees, clustering and histogram and counts its census over those indices.
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

WEDGE_BLOCK = 1 << 16  # forward wedges checked per numpy block


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


@dataclass(frozen=True)
class TriangleList:
    """Every triangle once, as found at its lowest-ranked vertex ``x`` with
    forward neighbours ``a`` and ``b``; ``xa``, ``xb`` and ``ab`` are the
    indices of its edges in ``g``'s columns.
    """

    x: np.ndarray
    a: np.ndarray
    b: np.ndarray
    xa: np.ndarray
    xb: np.ndarray
    ab: np.ndarray


class TriangleEdges(NamedTuple):
    """A listing's edge-index columns, all that a census or learn reads."""

    xa: np.ndarray
    xb: np.ndarray
    ab: np.ndarray


def list_triangles(g: SignedGraph) -> TriangleList:
    """Degree-ordered forward triangle listing over ``g``'s edge columns.

    Vertices are ranked by (degree, id) and each edge points from its
    lower-ranked to its higher-ranked endpoint, so every triangle has one
    vertex whose two forward edges make a wedge closed by the third. The
    forward wedges are enumerated in blocks of ``WEDGE_BLOCK`` (a block may
    cut inside a hub's row) and each closing pair is looked up in the
    sorted forward edge keys, keeping memory bounded by the block size plus
    the triangles found.
    """
    by_rank, fwd, flo, fhi = _forward_edges(g)
    p, q, pos = _closed_wedges(g.n, flo, fhi)
    return TriangleList(
        x=by_rank[flo[p]], a=by_rank[fhi[p]], b=by_rank[fhi[q]],
        xa=fwd[p], xb=fwd[q], ab=fwd[pos],
    )


def _forward_edges(g: SignedGraph) -> tuple[np.ndarray, ...]:
    """The vertices in (degree, id) rank order, and the forward edges sorted
    by their endpoints' ranks (lo, hi): each edge's index in ``g``, its lo
    and its hi. Each lo's row lists its forward neighbours in rank order.
    """
    n = g.n
    by_rank = np.argsort(g.degrees(), kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)
    ru, rv = rank[g.u], rank[g.v]
    lo, hi = np.minimum(ru, rv), np.maximum(ru, rv)
    fwd = np.argsort(lo * n + hi)
    return by_rank, fwd, lo[fwd], hi[fwd]


def _closed_wedges(n: int, flo: np.ndarray, fhi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Positions (p, q, pos) in the sorted forward edges of every forward
    wedge p, q (p < q in one row) that forward edge pos closes."""
    m = len(flo)
    fkey = flo * n + fhi
    row_end = np.cumsum(np.bincount(flo, minlength=n))
    # Forward edge p pairs with every later edge of its row: row_len[p] wedges.
    row_len = row_end[flo] - 1 - np.arange(m)
    wedge_end = np.cumsum(row_len)
    n_wedges = int(wedge_end[-1]) if m else 0
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for w0 in range(0, n_wedges, WEDGE_BLOCK):
        w = np.arange(w0, min(w0 + WEDGE_BLOCK, n_wedges))
        p = np.searchsorted(wedge_end, w, side="right")
        q = p + 1 + w - (wedge_end[p] - row_len[p])
        key = fhi[p] * n + fhi[q]
        pos = np.minimum(np.searchsorted(fkey, key), m - 1)
        hit = fkey[pos] == key
        found.append((p[hit], q[hit], pos[hit]))
    if not found:
        return (np.empty(0, dtype=np.int64),) * 3
    return tuple(np.concatenate(parts) for parts in zip(*found))


def triangle_census(g: SignedGraph, tri: TriangleList | TriangleEdges) -> TriangleCensus:
    """Count each triangle of ``g``'s listing ``tri``, or of its edge-index
    columns, once, classified by its three edge signs: a bincount of each
    triangle's negative-edge count.
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


def take_triangles(g: SignedGraph) -> TriangleList | TriangleEdges:
    """The edge indices of ``g``'s measurement's listing (``stats_report``),
    after which ``g`` holds none of its own; a listing that ``g`` shares
    with its STCL twin stays with the pair. If an earlier call took it,
    ``g`` is listed again."""
    stats_report(g)
    edges = g._triangles if g._shared is None else g._shared["edges"]
    drop_triangles(g)
    return list_triangles(g) if edges is None else edges


def drop_triangles(g: SignedGraph) -> None:
    """Let ``g`` stop holding the listing its measurement kept."""
    object.__setattr__(g, "_triangles", None)


def _kept(columns: list[np.ndarray], dtype) -> np.ndarray:
    """The equal-length ``columns`` as the rows of one ``dtype`` array in
    its own anonymous memory map, each source column freed once copied.
    Allocated from the heap, after the transient arrays of a listing, a
    long-lived array would keep the heap from shrinking below it."""
    size = len(columns) * len(columns[0]) * np.dtype(dtype).itemsize
    if size == 0:
        return np.empty((len(columns), 0), dtype=dtype)
    out = np.frombuffer(mmap.mmap(-1, size), dtype=dtype).reshape(len(columns), -1)
    for i in range(len(columns)):
        out[i] = columns[i]
        columns[i] = None
    out.flags.writeable = False
    return out


def _measure(g: SignedGraph) -> GraphStats:
    shared = g._shared
    if shared:  # a twin was measured first: only the signs differ
        census = triangle_census(g, shared["edges"])
        return replace(
            shared["stats"], eta=compute_eta(g), delta_b=census.delta_b,
            census=census, m_positive=g.m_positive,
        )
    tri = list_triangles(g)
    census = triangle_census(g, tri)
    through = np.bincount(np.concatenate([tri.x, tri.a, tri.b]), minlength=g.n)
    # Keep the edge indices alone, narrowed one column at a time once x, a
    # and b are gone, so that keeping them does not raise the peak.
    columns = [tri.xa, tri.xb, tri.ab]
    del tri
    dtype = np.int32 if g.m <= np.iinfo(np.int32).max else np.int64
    edges = TriangleEdges(*_kept(columns, dtype))
    d = g.degrees()
    clustering = np.zeros(g.n)
    np.divide(2.0 * through, d * (d - 1), out=clustering, where=d >= 2)
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
    if shared is None:
        object.__setattr__(g, "_triangles", edges)
    else:
        shared.update(stats=stats, edges=edges)
    return stats
