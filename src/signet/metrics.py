"""Measured properties of signed networks.

Covers the sign ratio, the full signed triangle census (with per-vertex
triangle counts feeding local clustering), the balanced-triangle fraction
Δ_B and the degree histogram.

Triangles come from one vectorised listing (``list_triangles``) over the
graph's edge columns; the census here and the EM wedge likelihoods in
``learn`` both read it. ``stats_report`` measures a graph once: its result
is kept on the graph, so analyze, evaluate and sweep share one measurement
of the input. A network and its STCL twin (same (u, v) columns, other
signs) share one measurement too: the first of them measured keeps its
result and each triangle's three edge indices in the pair's ``_shared``
dict, and the other reuses the degrees, clustering and histogram and
counts its census over those indices. Only such a pair keeps a listing.
"""

from __future__ import annotations

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
    """A listing's edge-index columns, all that a census reads."""

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
    n, m = g.n, g.m
    by_rank = np.argsort(g.degrees(), kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)
    ru, rv = rank[g.u], rank[g.v]
    lo, hi = np.minimum(ru, rv), np.maximum(ru, rv)
    # Forward edges sorted by (lo, hi): each lo's row lists its forward
    # neighbours in rank order.
    fwd = np.argsort(lo * n + hi)
    flo, fhi = lo[fwd], hi[fwd]
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
    if found:
        p, q, pos = (np.concatenate(parts) for parts in zip(*found))
    else:
        p = q = pos = np.empty(0, dtype=np.int64)
    return TriangleList(
        x=by_rank[flo[p]], a=by_rank[fhi[p]], b=by_rank[fhi[q]],
        xa=fwd[p], xb=fwd[q], ab=fwd[pos],
    )


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
    if shared is not None:
        dtype = np.int32 if g.m <= np.iinfo(np.int32).max else np.int64
        shared["edges"] = TriangleEdges(tri.xa.astype(dtype), tri.xb.astype(dtype),
                                        tri.ab.astype(dtype))
    del tri
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
    if shared is not None:
        shared["stats"] = stats
    return stats
