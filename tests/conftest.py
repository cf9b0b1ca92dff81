import itertools
import random
from typing import NamedTuple, Sequence

import numpy as np
import pytest

from signet import metrics
from signet.graph import Sign, SignedGraph, build_graph
from signet.metrics import GraphStats, TriangleEdges


def sign_lookup(g: SignedGraph) -> dict[tuple[int, int], Sign]:
    """The sign of every edge under both orientations of its pair."""
    signs = {}
    for u, v, s in g.edges:
        signs[u, v] = signs[v, u] = s
    return signs


def same_measurement(a: GraphStats, b: GraphStats) -> bool:
    """Whether two measurements hold equal values, clustering bit for bit
    (GraphStats compares by identity, as its clustering is an array)."""
    return (a.eta, a.delta_b, a.census, a.clustering.tobytes()) == (
        b.eta, b.delta_b, b.census, b.clustering.tobytes()
    )


def neighbor_rows(g: SignedGraph) -> list[list[int]]:
    """Each vertex's neighbours, in the order of the edges that join them."""
    rows = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        rows[u].append(v)
        rows[v].append(u)
    return rows


def brute_force_census(g: SignedGraph) -> dict[str, int]:
    """O(N^3) triple-loop triangle census, the independent oracle."""
    counts = {"+++": 0, "++-": 0, "+--": 0, "---": 0}
    keys = ["---", "+--", "++-", "+++"]
    sign = sign_lookup(g)
    for a, b, c in itertools.combinations(range(g.n), 3):
        if (a, b) in sign and (b, c) in sign and (a, c) in sign:
            pos = sum(
                1
                for s in (sign[a, b], sign[b, c], sign[a, c])
                if s is Sign.POSITIVE
            )
            counts[keys[pos]] += 1
    return counts


# O(N^2) literal forms of the estimators' sums, the oracles of their O(N)
# fast paths in signet.estimators.


def delta_random_nested(degrees: Sequence[int], m: int) -> float:
    """Suffix-free nested double sum; must match delta_random_fast exactly."""
    d = np.asarray(degrees, dtype=np.float64)
    n = len(d)
    avg_d = d.mean()
    avg_d2 = float((d * d).mean())
    total = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            total += d[i] * d[j]
    return (avg_d2 - avg_d) / (avg_d * m * n * (n - 1)) * total


def delta_random_exact(degrees: Sequence[int], m: int) -> float:
    """Literal pre-approximation form, averaged over unordered pairs.

    Delta_ij = (d_i d_j / 2M) * sum_{l not in {i,j}} d_l (d_l - 1) / 2M,
    evaluated with the excluded terms kept.
    """
    d = np.asarray(degrees, dtype=np.float64)
    n = len(d)
    two_m = 2.0 * m
    full = float(np.sum(d * (d - 1.0)))
    total = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            inner = (full - d[i] * (d[i] - 1.0) - d[j] * (d[j] - 1.0)) / two_m
            total += (d[i] * d[j] / two_m) * inner
    return total / (n * (n - 1) / 2.0)


def delta_triangle_exact(degrees: Sequence[int], m: int) -> float:
    """Literal pre-approximation wedge-closure form."""
    d = np.asarray(degrees, dtype=np.float64)
    n = len(d)
    two_m = 2.0 * m
    full = float(np.sum(d * (d - 1.0)))
    total = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            inner = (full - d[i] * (d[i] - 1.0) - d[j] * (d[j] - 1.0)) / two_m
            total += ((d[i] - 1.0) * (d[j] - 1.0) / two_m) * inner
    return 1.0 + total / (n * (n - 1) / 2.0)


def random_signed_graph(n: int, p: float, seed: int, eta: float = 0.5) -> SignedGraph:
    """Erdos-Renyi topology with i.i.d. signs."""
    rng = random.Random(seed)
    triples = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                s = Sign.POSITIVE if rng.random() < eta else Sign.NEGATIVE
                triples.append((u, v, s))
    return build_graph(triples, n=n)


class Listing(NamedTuple):
    """A triangle listing with its vertices: x is where edges xa and xb
    meet, a and b are their other ends, and edge ab closes the wedge."""

    x: np.ndarray
    a: np.ndarray
    b: np.ndarray
    xa: np.ndarray
    xb: np.ndarray
    ab: np.ndarray


def listing_of(g: SignedGraph, edges: TriangleEdges) -> Listing:
    """The listing of ``g`` whose edge-index columns are ``edges``, its
    vertices recovered: x is the endpoint that edges xa and xb share, a and
    b the other ends of xa and xb."""
    ua, a = g.u[edges.xa], g.v[edges.xa]
    ub, b = g.u[edges.xb], g.v[edges.xb]
    x = np.where((ua == ub) | (ua == b), ua, a)
    a += ua - x  # the end of xa that is not x, in place
    b += ub - x
    return Listing(x=x, a=a, b=b, xa=edges.xa, xb=edges.xb, ab=edges.ab)


def power_law_signed_graph(
    n: int, m: int, seed: int, eta: float = 0.9, gamma: float = 2.5
) -> SignedGraph:
    """Chung-Lu style graph from a power-law weight sequence, i.i.d. signs.

    Used as a desk-scale stand-in for trust-network inputs.
    """
    rng = random.Random(seed)
    weights = [(i + 1) ** (-1.0 / (gamma - 1.0)) for i in range(n)]
    total = sum(weights)
    cum = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cum.append(acc)

    def draw() -> int:
        x = rng.random()
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cum[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        return lo

    edges: dict[tuple[int, int], Sign] = {}
    budget = 200 * m
    while len(edges) < m and budget > 0:
        budget -= 1
        u, v = draw(), draw()
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in edges:
            continue
        edges[key] = Sign.POSITIVE if rng.random() < eta else Sign.NEGATIVE
    triples = [(u, v, s) for (u, v), s in edges.items()]
    return build_graph(triples, n=n)


@pytest.fixture
def k3_mixed() -> SignedGraph:
    """Triangle with signs (+, +, -)."""
    return build_graph(
        [(0, 1, Sign.POSITIVE), (1, 2, Sign.POSITIVE), (0, 2, Sign.NEGATIVE)]
    )


@pytest.fixture
def k3_positive() -> SignedGraph:
    return build_graph(
        [(0, 1, Sign.POSITIVE), (1, 2, Sign.POSITIVE), (0, 2, Sign.POSITIVE)]
    )


@pytest.fixture
def path3() -> SignedGraph:
    """Path 0-1-2, both edges positive."""
    return build_graph([(0, 1, Sign.POSITIVE), (1, 2, Sign.POSITIVE)])


@pytest.fixture
def listings(monkeypatch) -> list[SignedGraph]:
    """Every graph whose triangles are listed, in call order: learn lists
    through metrics too."""
    listed = []
    list_triangles = metrics.list_triangles

    def counted(g):
        listed.append(g)
        return list_triangles(g)

    monkeypatch.setattr(metrics, "list_triangles", counted)
    return listed
