"""Signed-graph representation and degree-proportional sampling.

Vertices are dense integers in [0, n). Edges are undirected, unweighted and
carry a sign. A graph is three numpy columns in edge-index order, the
smaller endpoint ``u``, the larger endpoint ``v`` and the ``sign`` (+1 or
-1), so it holds no Python object per edge. ``build_graph`` takes the edges
as integer rows (u, v, sign): an (m, 3) integer array, or a list of int or
``Sign`` triples. ``edges`` rebuilds the (u, v, Sign) triples on demand;
an algorithm that walks neighbours builds the index it needs.

A graph is a plain value: its columns, ``n`` and ``labels``, and nothing
else. What is derived from it is kept by the module that derives it,
keyed by the graph, which hashes by identity: ``metrics`` keeps its
measurement and triangle listing, ``generate`` the networks made from it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .errors import DuplicateEdgeError, EmptyGraphError, SelfLoopError


class Sign(enum.IntEnum):
    """Edge sign. Product of two signs is POSITIVE iff they are equal."""

    POSITIVE = 1
    NEGATIVE = -1


def canonical_pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


# The largest vertex id whose pair keys (u * (max id + 1) + v) fit int64.
MAX_VERTEX_ID = math.isqrt(np.iinfo(np.int64).max) - 1


@dataclass(frozen=True, eq=False)
class SignedGraph:
    """Immutable undirected signed graph as read-only edge columns.

    Edge ``e`` joins ``u[e] < v[e]`` with sign ``sign[e]``. ``labels``, when
    present, maps dense vertex ids back to the original identifiers seen
    during ingestion.
    """

    n: int
    u: np.ndarray  # int64, smaller endpoint
    v: np.ndarray  # int64, larger endpoint
    sign: np.ndarray  # int8, +1 or -1
    labels: Optional[tuple] = None

    @property
    def m(self) -> int:
        return len(self.u)

    @property
    def m_positive(self) -> int:
        return int(np.count_nonzero(self.sign > 0))

    @property
    def edges(self) -> tuple[tuple[int, int, Sign], ...]:
        """The edges as (u, v, Sign) triples in edge-index order, built
        on each call."""
        signs = map({1: Sign.POSITIVE, -1: Sign.NEGATIVE}.__getitem__, self.sign.tolist())
        return tuple(zip(self.u.tolist(), self.v.tolist(), signs))

    def degrees(self) -> np.ndarray:
        """int64 degree of every vertex."""
        return np.bincount(self.u, minlength=self.n) + np.bincount(self.v, minlength=self.n)


def _first(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or len(mask) if there is none."""
    return int(np.argmax(mask)) if mask.any() else len(mask)


def _first_duplicate(keys: np.ndarray) -> int:
    """Index of the first key equal to an earlier one, or len(keys)."""
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return len(keys)
    order = np.argsort(keys, kind="stable")
    later = order[1:][keys[order[1:]] == keys[order[:-1]]]
    return int(later.min())


def build_graph(
    edges: ArrayLike,
    n: Optional[int] = None,
    labels: Optional[Sequence] = None,
) -> SignedGraph:
    """Construct a canonicalized SignedGraph from integer (u, v, sign) rows.

    ``edges`` is anything ``np.asarray`` reads as an (m, 3) integer array:
    such an array, or a list of int or ``Sign`` triples. Any other value
    (floats, ``None``, strings, an iterator) raises ``TypeError``, and rows
    that are not triples raise ``ValueError``. Vertex ids must not exceed
    ``MAX_VERTEX_ID`` (``ValueError``). Rejects, at the first offending edge
    in input order, negative ids (``ValueError``), self-loops and duplicate
    undirected pairs, then signs other than +1 and -1 (``Sign``'s
    ``ValueError``); each edge is checked in that order. The vertex count is
    1 + max id unless ``n`` overrides it (isolated vertices are retained).
    """
    rows = np.asarray(edges)
    if rows.shape == (0,):
        rows = rows.reshape(0, 3)
    elif not np.can_cast(rows.dtype, np.int64):
        raise TypeError(f"edges must be integer (u, v, sign) rows, not {rows.dtype}")
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"edges must be (u, v, sign) rows, got shape {rows.shape}")
    rows = rows.astype(np.int64, copy=False)
    u, v, s = rows[:, 0], rows[:, 1], rows[:, 2]
    m = len(rows)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    max_id = int(hi.max()) if m else -1
    if max_id > MAX_VERTEX_ID:
        raise ValueError(f"vertex id {max_id} too large")
    positive = s == 1
    # First offending edge of each kind; on one edge the kinds apply in
    # this order, so the smallest (index, kind) is the error to raise.
    firsts = [
        _first(lo < 0),
        _first(u == v),
        _first_duplicate(lo * (max_id + 1) + hi),
        _first(~(positive | (s == -1))),
    ]
    e = min(firsts)
    if e < m:
        a, b, bad = rows[e].tolist()
        kind = firsts.index(e)
        if kind == 0:
            raise ValueError(f"negative vertex id in edge ({a}, {b})")
        if kind == 1:
            raise SelfLoopError(a)
        if kind == 2:
            raise DuplicateEdgeError(*canonical_pair(a, b))
        Sign(bad)  # raises Sign's own ValueError
    count = (max_id + 1) if n is None else n
    if count < max_id + 1:
        raise ValueError(f"n={count} too small for max vertex id {max_id}")
    sign = np.where(positive, 1, -1).astype(np.int8)
    for col in (lo, hi, sign):
        col.flags.writeable = False
    return SignedGraph(
        n=count, u=lo, v=hi, sign=sign,
        labels=tuple(labels) if labels is not None else None,
    )


def build_sampling_vector(g: SignedGraph) -> np.ndarray:
    """Degree-proportional sampling vector: vertex i appears degree(i) times.

    A uniform draw picks vertex i with probability d_i / 2M. It is an int64
    column listing both endpoints of each edge in edge order, so its length
    is exactly 2M and isolated vertices never appear.
    """
    if g.m == 0:
        raise EmptyGraphError("cannot build sampling vector of an empty graph")
    return np.column_stack((g.u, g.v)).ravel()
