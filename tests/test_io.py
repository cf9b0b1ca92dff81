import math
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signet import io
from signet.errors import EmptyResultError, MalformedRowError, ParseError
from signet.graph import MAX_VERTEX_ID, Sign, build_graph
from signet.io import (
    RawRating,
    ingest_ratings,
    parse_rating_lines,
    read_canonical,
    read_graph,
    write_canonical,
)
from tests.conftest import neighbor_rows, power_law_signed_graph


def test_ingest_directed_pair_sums_to_positive():
    g = ingest_ratings([RawRating("a", "b", 3), RawRating("b", "a", -1)])
    assert g.m == 1
    assert g.m_positive == 1


def test_ingest_zero_sum_pair_dropped():
    with pytest.raises(EmptyResultError):
        ingest_ratings([RawRating("a", "b", 1), RawRating("b", "a", -1)])


def test_ingest_drops_self_ratings_and_zero_weights():
    g = ingest_ratings(
        [RawRating("a", "a", 5), RawRating("a", "b", 0), RawRating("a", "b", -2)]
    )
    assert g.m == 1
    assert g.m_positive == 0


def test_ingest_keeps_original_labels():
    g = ingest_ratings([RawRating("x", "y", 1), RawRating("y", "z", -1)])
    assert g.labels == ("x", "y", "z")


def test_ingest_idempotent_on_canonical_edges():
    g = ingest_ratings(
        [RawRating(1, 2, 1), RawRating(2, 3, -1), RawRating(1, 3, 1)]
    )
    again = ingest_ratings(
        RawRating(g.labels[u], g.labels[v], float(int(s))) for u, v, s in g.edges
    )
    assert again.edges == g.edges
    assert again.n == g.n


@given(
    st.lists(
        st.tuples(
            st.integers(0, 12),
            st.integers(0, 12),
            st.integers(-3, 3),
        ),
        min_size=1,
        max_size=80,
    )
)
def test_ingest_fuzz_never_violates_graph_invariants(rows):
    ratings = [RawRating(u, v, w) for u, v, w in rows]
    try:
        g = ingest_ratings(ratings)
    except EmptyResultError:
        return
    pairs = {(u, v) for u, v, _ in g.edges}
    assert len(pairs) == g.m
    rows = neighbor_rows(g)
    for u, v, s in g.edges:
        assert u < v
        assert s is Sign.POSITIVE or s is Sign.NEGATIVE
        assert u in rows[v] and v in rows[u]


def ingest_ratings_oracle(rows):
    """The per-row dict aggregation that ``ingest_ratings`` replaces, kept
    as an oracle: labels numbered on first sight, each unordered pair's
    weights summed in row order, pairs in order of first appearance."""
    totals, index, labels = {}, {}, []

    def vid(label):
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    for row in rows:
        if row.weight == 0:
            continue
        u, v = vid(row.source), vid(row.target)
        if u == v:
            continue
        pair = (u, v) if u < v else (v, u)
        totals[pair] = totals.get(pair, 0.0) + row.weight
    triples = [(u, v, 1 if w > 0 else -1) for (u, v), w in totals.items() if w != 0]
    if not triples:
        raise EmptyResultError("no signed edges left after aggregation")
    return build_graph(triples, n=len(labels), labels=labels)


# Labels that are not strings, some equal across types (1, 1.0, True), and
# NaNs: one shared object, and fresh ones that equal nothing, not even
# each other.
RATING_LABELS = st.one_of(
    st.sampled_from(["a", "b", "c", 1, 1.0, True, 2, -1, None, ("a", 1), b"a", math.nan]),
    st.builds(float, st.just("nan")),
)
RATING_WEIGHTS = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, -1, 3, 0.5, -2.5, math.nan, math.inf, -math.inf]),
    st.floats(),
)


@st.composite
def rating_rows(draw):
    """Rows over a small pool of labels, so that pairs, self-ratings and
    both directions of a pair recur; some rows are rated back with the
    negated weight, so that the pair sums to 0."""
    rows = draw(st.lists(st.tuples(RATING_LABELS, RATING_LABELS, RATING_WEIGHTS),
                         max_size=40))
    if rows:
        rows += [(v, u, -w) for u, v, w in draw(st.lists(st.sampled_from(rows), max_size=8))]
    return [RawRating(*row) for row in draw(st.permutations(rows))]


def ingested(ingest, rows):
    """``outcome`` of ``ingest`` over ``rows``, with the label types."""
    got = outcome(ingest, rows)
    return got, [type(x) for x in got[-1]] if isinstance(got[-1], tuple) else None


@given(rating_rows())
@example([RawRating("a", "b", 0), RawRating("b", "a", 0.0), RawRating("a", "c", -0.0)])
@example([RawRating("a", "a", 5), RawRating("b", "b", -1), RawRating("a", "b", 2)])
@example([RawRating("a", "b", 2.5), RawRating("b", "a", -2.5), RawRating("c", "a", 1)])
@example([RawRating("a", "b", math.nan), RawRating("b", "c", math.inf),
          RawRating("c", "a", -math.inf), RawRating("a", "c", math.inf)])
@example([RawRating(1, True, 1), RawRating(1.0, 2, -1), RawRating(None, (1,), 0.1)])
@example([RawRating(0.1, 0.2, 0.1), RawRating(0.2, 0.1, 0.2), RawRating(0.1, 0.2, -0.3)])
@settings(max_examples=300, deadline=None)
def test_ingest_ratings_equals_the_dict_aggregation(rows):
    assert ingested(ingest_ratings, rows) == ingested(ingest_ratings_oracle, rows)


def test_canonical_round_trip(tmp_path):
    g = ingest_ratings(
        [RawRating("a", "b", 2), RawRating("b", "c", -1), RawRating("a", "c", 1)]
    )
    path = tmp_path / "graph.tsv"
    write_canonical(g, path)
    g2 = read_canonical(path)
    assert sorted(g2.edges) == sorted(g.edges)
    assert g2.n == g.n


def write_canonical_fstring(g, path):
    """The f-string writer that write_canonical replaced, kept as its
    oracle: one formatted row per edge in ``np.lexsort((v, u))`` order."""
    order = np.lexsort((g.v, g.u))
    edges = zip(g.u[order].tolist(), g.v[order].tolist(), g.sign[order].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}\t{v}\t{s:+d}\n" for u, v, s in edges)


@st.composite
def graphs_with_both_signs(draw):
    """A signed graph on up to 40 vertices, edges in any order, at least one
    of each sign, perhaps with isolated vertices above the largest id."""
    n = draw(st.integers(3, 40))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda p: p[0] != p[1])
        .map(lambda p: (min(p), max(p))),
        min_size=2, max_size=150, unique=True,
    ))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(pairs) - 2,
                          max_size=len(pairs) - 2))
    flips = [draw(st.booleans()) for _ in pairs]
    rows = [(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, flips)]
    return build_graph(
        [(a, b, s) for (a, b), s in zip(rows, [1, -1] + signs)],
        n=n + draw(st.integers(0, 3)),
    )


@given(graphs_with_both_signs(), st.sampled_from([1, 7, io.WRITE_BLOCK]))
@settings(max_examples=100, deadline=None)
def test_write_canonical_bytes_equal_the_fstring_writer(tmp_path_factory, g, block):
    out = tmp_path_factory.mktemp("write")
    with mock.patch.object(io, "WRITE_BLOCK", block):
        write_canonical(g, out / "new.tsv")
    write_canonical_fstring(g, out / "old.tsv")
    assert (out / "new.tsv").read_bytes() == (out / "old.tsv").read_bytes()


def test_read_canonical_rejects_self_loop(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t0\t+1\n")
    with pytest.raises(ParseError):
        read_canonical(path)


def test_read_canonical_rejects_vertex_id_above_bound(tmp_path):
    path = tmp_path / "big.tsv"
    path.write_text(f"# ids\n\n0\t{MAX_VERTEX_ID}\t+1\n{MAX_VERTEX_ID + 1}\t1\t-1\n")
    with pytest.raises(ParseError) as err:
        read_canonical(path)
    assert err.value.line_no == 4
    assert str(MAX_VERTEX_ID + 1) in err.value.reason
    path.write_text(f"0\t{MAX_VERTEX_ID}\t+1\n")
    assert read_canonical(path).n == MAX_VERTEX_ID + 1


def test_read_canonical_over_n_vertices(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0\t1\t+1\n1\t2\t-1\n")
    g = read_canonical(path, n=5)
    assert g.n == 5
    assert g.degrees().tolist() == [1, 2, 1, 0, 0]
    assert read_canonical(path, n=3).n == 3
    with pytest.raises(ParseError) as err:
        read_canonical(path, n=2)
    assert err.value.line_no == 2
    assert err.value.reason == "vertex id 2 above 1"


@pytest.mark.parametrize("text, line_no", [
    ("# c\n\n0 1 +1\n0,2 , -1 # c\n1 2\n", 5),  # comments, blanks, commas
    ("0\t1\t+1\n \t\n,\n", 3),  # a line of commas has no fields
])
def test_read_canonical_error_line_numbers(tmp_path, text, line_no):
    path = tmp_path / "g.tsv"
    path.write_text(text)
    for read in (read_canonical, read_graph):
        with pytest.raises(ParseError) as err:
            read(path)
        assert err.value.line_no == line_no


@pytest.mark.parametrize("data", [
    b"\xff0\t1\t+1\n",
    b"".join(b"0\t%d\t+1\n" % v for v in range(1, 3000)) + b"1\t2\t\xe9\n",
    b"a,b,1,0\nb,\xff,1,1\n",
], ids=["first-byte", "past-first-chunk", "rating-file"])
def test_non_utf8_input_is_parse_error(tmp_path, data):
    path = tmp_path / "g.tsv"
    path.write_bytes(data)
    with pytest.raises(ParseError, match="not UTF-8"):
        read_graph(path)


def test_read_canonical_triangle_fixture(tmp_path):
    path = tmp_path / "tri.tsv"
    path.write_text("# a signed triangle\n0\t1\t+1\n1\t2\t-1\n0\t2\t-1\n")
    g = read_canonical(path)
    assert g.m == 3
    assert g.edges == (
        (0, 1, Sign.POSITIVE), (1, 2, Sign.NEGATIVE), (0, 2, Sign.NEGATIVE)
    )


def test_read_graph_autodetects_rating_csv(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("7,2,4,1289241911\n2,7,-1,1289241912\n7,3,-10,1289241913\n")
    g = read_graph(path)
    assert g.m == 2
    assert g.m_positive == 1
    assert g.labels == ("7", "2", "3")


def test_parse_rating_lines_malformed():
    with pytest.raises(MalformedRowError):
        parse_rating_lines(["1,2,3", "1 2 x"])


def test_parse_rating_lines_column_count():
    with pytest.raises(MalformedRowError):
        parse_rating_lines(["1 2 3 4 5"])


def test_parse_rating_lines_keeps_no_time():
    assert parse_rating_lines(["1,2,3,1289241911", "2 3 -1"]) == [
        RawRating("1", "2", 3.0), RawRating("2", "3", -1.0),
    ]


def test_parse_rating_lines_non_numeric_time():
    with pytest.raises(MalformedRowError) as err:
        parse_rating_lines(["1,2,3,100", "1,3,1,noon"])
    assert err.value.line_no == 2


@pytest.mark.parametrize("rating", ["nan", "inf", "-inf", "NaN", "-Infinity"])
def test_parse_rating_lines_rejects_non_finite_rating(rating):
    with pytest.raises(MalformedRowError) as err:
        parse_rating_lines(["a,b,1", f"a,c,{rating},5"])
    assert err.value.line_no == 2
    assert "non-finite" in err.value.reason


def test_read_graph_rating_rows_keep_line_numbers(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("# source,target,rating,time\n\n7,2,4,1\n2,7,x,2\n")
    with pytest.raises(MalformedRowError) as err:
        read_graph(path)
    assert err.value.line_no == 4


def test_read_graph_reads_a_canonical_file_once(tmp_path):
    # read_graph only probes the first data line before read_canonical
    # parses the file, so its peak stays that of read_canonical.
    g = power_law_signed_graph(6000, 20000, seed=21, gamma=2.5)
    path = tmp_path / "g.tsv"
    write_canonical(g, path)
    peaks = {}
    tracemalloc.start()
    try:
        for read in (read_canonical, read_graph):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert read(path).m == g.m
            peaks[read.__name__] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peaks["read_graph"] <= 1.1 * peaks["read_canonical"]


# Blank and whitespace-only lines, which a comma-separated parse refuses.
BLANK_LINES = "a,b,1,5\n\n  \nc,d,1,5\n"


@pytest.mark.parametrize("text", [BLANK_LINES, "a,b,1,5\n  # a note\nc,d,1,5\n"])
def test_read_graph_parses_a_rating_file_with_blank_lines_in_bulk(tmp_path, text):
    path = tmp_path / "ratings.csv"
    path.write_text(text)
    with mock.patch.object(io, "parse_rating_lines", side_effect=AssertionError):
        g = read_graph(path)
    assert g.edges == ((0, 1, Sign.POSITIVE), (2, 3, Sign.POSITIVE))
    assert g.labels == ("a", "b", "c", "d")


def test_read_graph_skips_a_byte_order_mark_in_a_rating_file(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("\ufeffa,b,1,5\nc,a,1,7\n", encoding="utf-8")
    g = read_graph(path)
    assert g.labels == ("a", "b", "c")
    assert g.n == 3 and g.m == 2


def test_read_canonical_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("\ufeff0\t1\t+1\n1\t2\t-1\n", encoding="utf-8")
    for read in (read_canonical, read_graph):
        g = read(path)
        assert g.edges == ((0, 1, Sign.POSITIVE), (1, 2, Sign.NEGATIVE))


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_read_canonical_empty_file_warns_nothing(tmp_path, text):
    path = tmp_path / "g.tsv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError) as err:
            read_canonical(path)
    assert (err.value.line_no, err.value.reason) == (0, "no edges in file")


# The per-line oracles: the readers' fallback path, forced for every file.
def read_canonical_per_line(path, n=None):
    top = MAX_VERTEX_ID if n is None else min(n - 1, MAX_VERTEX_ID)
    with open(path, encoding="utf-8-sig") as fh:
        return build_graph(io._canonical_lines(fh, top), n=n)


def read_graph_per_line(path):
    with open(path, encoding="utf-8-sig") as fh:
        first = next(io._data_lines(fh), None)
        if first is None:
            raise ParseError(0, "no data lines in file")
        if len(first[1]) == 4:
            fh.seek(0)
            return ingest_ratings(parse_rating_lines(fh))
    return read_canonical_per_line(path)


def outcome(read, *args):
    """What a read gives: the graph's columns, n and labels, or the error's
    type, line number and reason."""
    try:
        g = read(*args)
    except Exception as exc:  # any error must match too
        return type(exc), getattr(exc, "line_no", None), getattr(exc, "reason", str(exc))
    return g.u.tolist(), g.v.tolist(), g.sign.tolist(), g.n, g.labels


SEPARATORS = ["\t", " ", ",", "\x0c", ", ", " ,\t"]
NOISE_LINES = ["# comment", "", "  \t", ",", ",,,", "\x0c"]
IDS = ["0", "1", "2", "3", "4", "007", "+7", "1_000", "-1", str(2**63), "٣"]
SIGNS = ["+1", "1", "+", "-1", "-", "01", "+01", "1\x00"]
LABELS = ["a", "b", "c", "7", "007", "+7", "1_000", "-1", "a\x00", "é", ""]
RATINGS = ["1", "-1", "2.5", "-10", "0", "-0", "nan", "inf", "-inf", "1e400", "1_0"]
TIMES = ["5", "1289241911", "nan", "noon"]
# Per format: the common tokens of each column, then the rare ones.
FORMATS = {
    "canonical": ([list(map(str, range(31)))] * 2 + [["+1", "-1", "1"]], [IDS, IDS, SIGNS]),
    "rating": ([["a", "b", "c", "d"]] * 2 + [["1", "-1", "3", "0"], ["5", "17"]],
               [LABELS, LABELS, RATINGS, TIMES]),
}


@st.composite
def text_files(draw, fmt):
    """Rows of common tokens with one kind of separator, then up to three
    perturbations: a rare token, a rare separator, a dropped or an extra
    column, or a noise line. Lines may end in a comment or CRLF, and the
    file may start with a byte-order mark."""
    common, rare = FORMATS[fmt]
    kind = draw(st.sampled_from([["\t", " ", "\x0c"], [","]]))
    lines = []  # tokens at even places, separators at odd ones
    for _ in range(draw(st.integers(1, 12))):
        line = [draw(st.sampled_from(common[0]))]
        for column in common[1:]:
            line += [draw(st.sampled_from(kind)), draw(st.sampled_from(column))]
        lines.append(line)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        change = draw(st.integers(0, 7))
        if change == 7 or at == len(lines):
            lines.insert(at, [draw(st.sampled_from(NOISE_LINES))])
        elif change == 6:
            lines[at] += [draw(st.sampled_from(kind)), draw(st.sampled_from(rare[-1]))]
        elif change == 5:
            del lines[at][-2:]
        elif change == 4 and len(lines[at]) > 1:
            place = 2 * draw(st.integers(0, len(lines[at]) // 2 - 1)) + 1
            lines[at][place] = draw(st.sampled_from(SEPARATORS))
        elif lines[at]:
            column = draw(st.integers(0, (len(lines[at]) - 1) // 2))
            lines[at][2 * column] = draw(st.sampled_from(rare[min(column, len(rare) - 1)]))
    text = "".join(
        "".join(line) + draw(st.sampled_from(["", "", " # c", "#", "\t"]))
        + draw(st.sampled_from(["\n", "\n", "\r\n"]))
        for line in lines
    )
    return ("\ufeff" if draw(st.integers(0, 5)) == 0 else "") + text


@given(text_files("canonical"), st.one_of(st.none(), st.integers(0, 40)))
@example("0\t1\t1\x00\n2\t3\t-1\n", None)  # a NUL a text field would drop
@example("0 1 01\n", None)
@example("0 1 +\n1 2 -\n", 3)
@example("0\t1\t+1\t+1\n1\t2\t-1\n", None)  # a 4-column row after the first
@settings(max_examples=500, deadline=None)
def test_canonical_readers_equal_their_per_line_oracles(tmp_path_factory, text, n):
    path = tmp_path_factory.mktemp("diff") / "g.tsv"
    path.write_text(text, encoding="utf-8")
    assert outcome(read_graph, path) == outcome(read_graph_per_line, path)
    assert outcome(read_canonical, path, n) == outcome(read_canonical_per_line, path, n)


@given(text_files("rating"))
@example("a,b,1,5\na\x00,b,-2,6\n")
@example("a,b,1,5\nb c,a,1,6\n")
@example("a,b,1,5\nb,a,-1,6\nc,c,2,7\n")  # a zero-sum pair and a self-rating
@example(BLANK_LINES)
@settings(max_examples=500, deadline=None)
def test_rating_reader_equals_its_per_line_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("diff") / "r.csv"
    path.write_text(text, encoding="utf-8")
    assert outcome(read_graph, path) == outcome(read_graph_per_line, path)


def rating_csv(g, path):
    """A rating file of g's edges: each edge rated once in a seeded
    direction, a third of them rated back."""
    rng = np.random.default_rng(3)
    rows = []
    for u, v, s in zip(g.u.tolist(), g.v.tolist(), g.sign.tolist()):
        a, b = (u, v) if rng.random() < 0.5 else (v, u)
        rows.append(f"{a + 10},{b + 10},{s * int(rng.integers(1, 11))},{len(rows)}\n")
        if rng.random() < 1 / 3:
            rows.append(f"{b + 10},{a + 10},{s},{len(rows)}\n")
    path.write_text("".join(rows))


@pytest.mark.parametrize("fmt, bound", [("canonical", 90), ("rating", 400)])
def test_reader_transient_memory_per_edge(tmp_path, fmt, bound):
    # The tracemalloc peak of a whole read, per edge. On this input the bulk
    # readers peak at 63 (canonical) and 272 (rating) B/edge, and the
    # per-line readers at 123 and 561 B/edge.
    g = power_law_signed_graph(6000, 20000, seed=21, gamma=2.5)
    path = tmp_path / "g.txt"
    (write_canonical if fmt == "canonical" else rating_csv)(g, path)
    tracemalloc.start()
    try:
        m = read_graph(path).m
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m == g.m
    assert peak / m <= bound
