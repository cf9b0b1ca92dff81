"""Reading and writing signed networks.

Two on-disk formats are supported:

* canonical edge list: one edge per line, ``u<TAB>v<TAB>s`` with s in
  {+1, -1}; ``#`` starts a comment; whitespace-separated also accepted.
* raw rating files: ``source,target,rating[,time]`` rows (comma or
  whitespace separated) from trust networks with weighted, possibly
  directed edges.

Format is auto-detected by column count (3 = canonical, 4 = rating).
Files are UTF-8, and a leading byte-order mark is skipped. Each reader
parses the whole file with one ``np.loadtxt`` call and checks the rows as
columns. A file that parse refuses, or could not carry verbatim, is read
again one line at a time (``_data_lines``), which names its first invalid
line. Only that path reads the rare spellings: ids such as ``1_000`` or
non-ASCII digits, comma-separated canonical rows, mixed 3/4-column rating
rows and NUL characters.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import EmptyResultError, MalformedRowError, ParseError
from .graph import MAX_VERTEX_ID, SignedGraph, build_graph

WRITE_BLOCK = 1 << 16  # rows per write: bounds the row strings alive at once
READ_BLOCK = 1 << 16  # characters per read of the NUL scan


@dataclass(frozen=True)
class RawRating:
    source: object
    target: object
    weight: float


def ingest_ratings(rows: Iterable[RawRating]) -> SignedGraph:
    """Collapse weighted, possibly directed ratings into a signed graph.

    All weights on an unordered pair (both directions) are summed; the pair
    becomes a positive edge when the sum is > 0, negative when < 0, and is
    dropped entirely on a zero-sum tie. Self-ratings are dropped. Vertices
    are relabeled densely in order of first appearance; the original ids are
    kept on the graph as ``labels``.
    """
    rated = [row for row in rows if row.weight != 0]
    labels, ids = _dense_ids([x for row in rated for x in (row.source, row.target)])
    weight = np.fromiter((row.weight for row in rated), np.float64, len(rated))
    return _rating_graph(labels, ids, weight)


def _data_lines(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each data line: ``#`` starts a comment,
    blank lines are skipped, and fields are split on commas and whitespace.
    A file that is not UTF-8 is a ParseError (line 0: decoding runs ahead
    of the lines, so the line is not known)."""
    try:
        for no, line in enumerate(lines, start=1):
            text = line.split("#", 1)[0]
            if text.strip():
                yield no, text.replace(",", " ").split()
    except UnicodeDecodeError as exc:
        raise ParseError(0, f"not UTF-8 text ({exc.reason})") from exc


def parse_rating_lines(lines: Iterable[str]) -> list[RawRating]:
    rows = []
    for no, parts in _data_lines(lines):
        if len(parts) not in (3, 4):
            raise MalformedRowError(no, f"expected 3 or 4 columns, got {len(parts)}")
        try:
            weight = float(parts[2])
            if len(parts) == 4:
                float(parts[3])  # a time: it must be numeric, but is unused
        except ValueError as exc:
            raise MalformedRowError(no, str(exc)) from exc
        if not math.isfinite(weight):
            raise MalformedRowError(no, f"non-finite rating {parts[2]!r}")
        rows.append(RawRating(parts[0], parts[1], weight))
    return rows


_SIGN_TOKENS = {"+1": 1, "1": 1, "+": 1, "-1": -1, "-": -1}

_CANONICAL_ROWS = np.dtype([("u", np.int64), ("v", np.int64), ("token", "U3")])
_RATING_ROWS = np.dtype(
    [("source", object), ("target", object), ("weight", np.float64), ("time", np.float64)]
)


def _load_rows(fh, dtype: np.dtype, delimiter: Optional[str]) -> Optional[np.ndarray]:
    """Every data row of ``fh``, from its start, parsed by one ``np.loadtxt``
    call; None when the file holds a NUL (a text field drops a trailing
    one), the parse refuses the file, or it warns (an empty file does).
    A comma-separated parse that refuses the file is tried once more
    without its blank lines: it reads a whitespace-only line as a
    one-field row, where ``_data_lines`` skips it."""
    load = partial(np.loadtxt, dtype=dtype, comments="#", delimiter=delimiter, ndmin=1)
    try:
        fh.seek(0)
        if any("\0" in block for block in iter(partial(fh.read, READ_BLOCK), "")):
            return None
        fh.seek(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return load(fh)
            except ValueError:
                if delimiter is None:  # whitespace-only lines are skipped
                    raise
            fh.seek(0)
            return load(line for line in fh if line.split("#", 1)[0].strip())
    except (ValueError, Warning):  # a decoding error is a ValueError
        return None


def _canonical_rows(fh, top: int) -> Optional[np.ndarray]:
    """(m, 3) int64 rows of a canonical file parsed in bulk, or None when a
    row is invalid or the file needs the per-line reader."""
    rows = _load_rows(fh, _CANONICAL_ROWS, None)
    if rows is None:
        return None
    u, v = rows["u"], rows["v"]
    sign = np.zeros(len(rows), np.int64)
    for token, value in _SIGN_TOKENS.items():
        sign[rows["token"] == token] = value
    valid = (sign != 0) & (u != v) & (np.minimum(u, v) >= 0) & (np.maximum(u, v) <= top)
    return np.column_stack((u, v, sign)) if valid.all() else None


def _canonical_lines(lines: Iterable[str], top: int) -> np.ndarray:
    """(m, 3) int64 rows of canonical lines, read one line at a time;
    raises ParseError naming the first invalid line."""
    us: list[int] = []
    vs: list[int] = []
    signs: list[int] = []
    for no, parts in _data_lines(lines):
        if len(parts) != 3:
            raise ParseError(no, f"expected 3 columns, got {len(parts)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(no, str(exc)) from exc
        if parts[2] not in _SIGN_TOKENS:
            raise ParseError(no, f"bad sign token {parts[2]!r}")
        if u == v:
            raise ParseError(no, f"self-loop on vertex {u}")
        if u < 0 or v < 0:
            raise ParseError(no, "negative vertex id")
        if u > top or v > top:
            raise ParseError(no, f"vertex id {max(u, v)} above {top}")
        us.append(u)
        vs.append(v)
        signs.append(_SIGN_TOKENS[parts[2]])
    if not us:
        raise ParseError(0, "no edges in file")
    return np.array((us, vs, signs), dtype=np.int64).T


def read_canonical(path: str | os.PathLike, n: Optional[int] = None) -> SignedGraph:
    """Read a canonical edge list; raises ParseError on any invalid line.
    The graph has 1 + the largest id vertices, or ``n`` when given: an id of
    ``n`` or more is then a ParseError."""
    top = MAX_VERTEX_ID if n is None else min(n - 1, MAX_VERTEX_ID)
    with open(path, "r", encoding="utf-8-sig") as fh:
        rows = _canonical_rows(fh, top)
        if rows is None:
            fh.seek(0)
            rows = _canonical_lines(fh, top)
    return build_graph(rows, n=n)


def _rated_ids(fh) -> Optional[tuple[list, np.ndarray, np.ndarray]]:
    """Labels, (k, 2) dense (source, target) ids and weights of a rating
    file's rows of nonzero weight, parsed in bulk. None when the file needs
    the per-line reader: the parse refuses it, a rating is not finite, or a
    label is not a token that reader would split out (it is empty, or holds
    whitespace or a comma)."""
    for delimiter in (",", None):  # no file parses with both
        rows = _load_rows(fh, _RATING_ROWS, delimiter)
        if rows is not None:
            break
    else:
        return None
    weight = rows["weight"]
    if not np.isfinite(weight).all():
        return None
    pairs = np.column_stack((rows["source"], rows["target"]))
    distinct = list(dict.fromkeys(pairs.ravel().tolist()))
    if " ".join(distinct).replace(",", " ").split() != distinct:
        return None
    rated = weight != 0
    return (*_dense_ids(pairs[rated].ravel().tolist()), weight[rated])


def _dense_ids(tokens: list) -> tuple[list, np.ndarray]:
    """The distinct labels of ``tokens``, a flat list of (source, target)
    pairs, in order of first appearance, and the pairs as (k, 2) dense ids."""
    labels = list(dict.fromkeys(tokens))
    ids = np.fromiter(map(dict(zip(labels, range(len(labels)))).__getitem__, tokens),
                      np.int64, len(tokens))
    return labels, ids.reshape(-1, 2)


def _rating_graph(labels: list, ids: np.ndarray, weight: np.ndarray) -> SignedGraph:
    """The aggregation of ``ingest_ratings`` over dense (source, target)
    ids and nonzero weights, which both rating readers end in. The bulk
    reader calls it after ``_rated_ids`` returns, so the parsed rows and
    their label strings are freed before its temporaries are made."""
    n = len(labels)
    apart = ids[:, 0] != ids[:, 1]
    ids, weight = ids[apart], weight[apart]
    keys, first, pair = np.unique(ids.min(axis=1) * n + ids.max(axis=1),
                                  return_index=True, return_inverse=True)
    # bincount adds each pair's weights in row order, as the dict sums do.
    totals = np.bincount(pair, weights=weight, minlength=len(keys))
    order = np.argsort(first)  # pairs in order of first appearance
    order = order[totals[order] != 0]
    if not len(order):
        raise EmptyResultError("no signed edges left after aggregation")
    signs = np.where(totals[order] > 0, 1, -1)
    return build_graph(np.column_stack((keys[order] // n, keys[order] % n, signs)),
                       n=n, labels=labels)


def write_canonical(g: SignedGraph, path: str | os.PathLike) -> None:
    """Write a graph as a canonical edge list (sorted, diff-friendly)."""
    order = np.argsort(g.u * g.n + g.v)  # unique keys, as u < v < n
    names = list(map(str, range(g.n)))
    tail = {1: "\t+1\n", -1: "\t-1\n"}
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, g.m, WRITE_BLOCK):
            block = order[start:start + WRITE_BLOCK]
            edges = zip(g.u[block].tolist(), g.v[block].tolist(), g.sign[block].tolist())
            fh.write("".join([names[u] + "\t" + names[v] + tail[s] for u, v, s in edges]))


def read_graph(path: str | os.PathLike) -> SignedGraph:
    """Read a graph from either supported format (detected by column count
    of the first data line). Only that line is read before the format's own
    reader parses the file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        first = next(_data_lines(fh), None)
        if first is None:
            raise ParseError(0, "no data lines in file")
        if len(first[1]) == 4:
            bulk = _rated_ids(fh)
            if bulk is not None:
                return _rating_graph(*bulk)
            fh.seek(0)
            return ingest_ratings(parse_rating_lines(fh))
    return read_canonical(path)
