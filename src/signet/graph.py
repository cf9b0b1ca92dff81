"""Signed-graph representation and degree-proportional sampling.

Vertices are dense integers in [0, n). Edges are undirected, unweighted and
carry a sign; the adjacency index gives O(1) expected sign lookup and O(d)
neighbor iteration with deterministic order (insertion order of edges).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import DuplicateEdgeError, EmptyGraphError, SelfLoopError


class Sign(enum.IntEnum):
    """Edge sign. Product of two signs is POSITIVE iff they are equal."""

    POSITIVE = 1
    NEGATIVE = -1

    @property
    def symbol(self) -> str:
        return "+" if self is Sign.POSITIVE else "-"


# Sign lookup for build_graph; anything it lacks goes through Sign(s), which
# accepts or rejects exactly as before.
_SIGN_OF = {1: Sign.POSITIVE, -1: Sign.NEGATIVE}


def canonical_pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SignedGraph:
    """Immutable undirected signed graph.

    ``adj[u]`` maps each neighbor of ``u`` to the sign of the connecting
    edge. ``labels``, when present, maps dense vertex ids back to the
    original identifiers seen during ingestion.
    """

    n: int
    edges: tuple[tuple[int, int, Sign], ...]
    adj: tuple[dict[int, Sign], ...]
    labels: Optional[tuple] = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def m_positive(self) -> int:
        return sum(1 for _, _, s in self.edges if s is Sign.POSITIVE)

    @property
    def m_negative(self) -> int:
        return self.m - self.m_positive

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def sign(self, u: int, v: int) -> Sign:
        return self.adj[u][v]

    def neighbors(self, v: int) -> Sequence[int]:
        return list(self.adj[v].keys())


def build_graph(
    edge_triples: Iterable[tuple[int, int, Sign]],
    n: Optional[int] = None,
    labels: Optional[Sequence] = None,
) -> SignedGraph:
    """Construct a canonicalized SignedGraph from (u, v, sign) triples.

    Rejects self-loops and duplicate undirected pairs. The vertex count is
    1 + max id unless ``n`` overrides it (isolated vertices are retained).
    """
    edges: list[tuple[int, int, Sign]] = []
    seen: set[tuple[int, int]] = set()
    max_id = -1
    for u, v, s in edge_triples:
        if u < 0 or v < 0:
            raise ValueError(f"negative vertex id in edge ({u}, {v})")
        if u == v:
            raise SelfLoopError(u)
        pair = canonical_pair(u, v)
        if pair in seen:
            raise DuplicateEdgeError(*pair)
        seen.add(pair)
        try:
            sign = _SIGN_OF[s]
        except (KeyError, TypeError):
            sign = Sign(s)
        edges.append((pair[0], pair[1], sign))
        max_id = max(max_id, pair[1])
    count = (max_id + 1) if n is None else n
    if count < max_id + 1:
        raise ValueError(f"n={count} too small for max vertex id {max_id}")
    adj: list[dict[int, Sign]] = [dict() for _ in range(count)]
    for u, v, s in edges:
        adj[u][v] = s
        adj[v][u] = s
    return SignedGraph(
        n=count,
        edges=tuple(edges),
        adj=tuple(adj),
        labels=tuple(labels) if labels is not None else None,
    )


def build_sampling_vector(g: SignedGraph) -> list[int]:
    """Degree-proportional sampling vector: vertex i appears degree(i) times.

    A uniform draw picks vertex i with probability d_i / (2M). Length is
    exactly 2M; isolated vertices never appear.
    """
    if g.m == 0:
        raise EmptyGraphError("cannot build sampling vector of an empty graph")
    pi: list[int] = []
    for u, v, _ in g.edges:
        pi.append(u)
        pi.append(v)
    return pi

