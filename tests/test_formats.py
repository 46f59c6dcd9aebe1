"""Text format parsing and rendering."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brutes import ref_load_coloring, ref_load_instance
from maxec import EdgeColoring, Graph
from maxec.formats import (
    FormatError,
    load_coloring,
    load_graph,
    load_instance,
    render_annotated,
    render_coloring,
    render_graph,
)
from maxec.generators import load_mcis


def test_graph_round_trip():
    g = Graph(4, [(0, 1), (2, 3), (0, 3)])
    text = render_graph(g, comments=["hand made"])
    assert text.splitlines()[0] == "c hand made"
    assert "p edge 4 3" in text
    assert load_graph(text) == g


def test_loader_accepts_flexible_input():
    text = "\n".join(
        [
            "c comment",
            "",
            "p edge 3 2",
            "e 2 1",
            "  e 2 3  ",
        ]
    )
    g = load_graph(text)
    assert g.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("e 1 2\np edge 2 1", 1),
        ("p edge 2 1\np edge 2 1\ne 1 2", 2),
        ("p edge x 1\ne 1 2", 1),
        ("p node 2 1", 1),
        ("p edge 2 1\ne 1 3", 2),
        ("p edge 2 1\ne 1 1", 2),
        ("p edge 2 1\ne 1", 2),
        ("p edge 2 2\ne 1 2\ne 2 1", 3),
        ("p edge -1 0", 1),
        ("p edge 2 1\nq 1 2", 2),
        ("p edge 2 1\ne 0 1", 2),
        ("p edge 2 1\ne 1 x", 2),
        ("p mcis 2 2 1\nv 1 1\nv 2 1\ne 1 2\ne 2 1", 5),
    ],
)
def test_loader_rejects_malformed_documents(text, lineno):
    load = load_mcis if text.startswith("p mcis") else load_graph
    with pytest.raises(FormatError) as err:
        load(text)
    assert err.value.lineno == lineno


def test_edge_faults_quote_their_line():
    with pytest.raises(FormatError) as err:
        load_graph("p edge 3 2\ne 1 2\n\te  2   1 ")
    assert str(err.value) == "line 3: duplicate edge in 'e  2   1'"


def test_comments_may_use_tabs():
    text = "c\tmade by hand\np edge 2 1\nc\ne 1 2\n"
    assert load_graph(text) == Graph(2, [(0, 1)])
    assert load_mcis("c\tnote\np mcis 1 0 1\nv 1 1\n").k == 1
    assert load_coloring("c\tnote\ns coloring 1\nl 1 2 1", Graph(2, [(0, 1)])).k == 1
    with pytest.raises(FormatError) as err:
        load_graph("cx\np edge 2 1\ne 1 2\n")
    assert err.value.lineno == 1


def test_loader_checks_totals():
    with pytest.raises(FormatError):
        load_graph("p edge 2 2\ne 1 2")
    with pytest.raises(FormatError):
        load_graph("e 1 2")
    with pytest.raises(FormatError):
        load_graph("")


def test_annotated_round_trip():
    g = Graph(3, [(0, 1), (1, 2)])
    text = render_annotated(g, (1, 2, 1))
    g2, f = load_instance(text)
    assert g2 == g
    assert f == (1, 2, 1)


def test_plain_graph_has_no_capacities():
    g, f = load_instance("p edge 2 1\ne 1 2")
    assert f is None
    with pytest.raises(FormatError):
        load_graph("p edge 2 1\ne 1 2\nf 1 1\nf 2 2")


def test_capacity_table_must_be_total_and_unique():
    base = "p edge 3 2\ne 1 2\ne 2 3\n"
    with pytest.raises(FormatError):
        load_instance(base + "f 1 1")
    with pytest.raises(FormatError):
        load_instance(base + "f 1 1\nf 1 2\nf 2 1\nf 3 1")
    with pytest.raises(FormatError):
        load_instance(base + "f 1 3\nf 2 1\nf 3 1")
    with pytest.raises(FormatError):
        load_instance(base + "f 4 1")
    g, f = load_instance(base + "f 3 1\nf 1 2\nf 2 2")
    assert f == (2, 2, 1)


def test_coloring_round_trip():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    col = EdgeColoring([0, 1, 0])
    text = render_coloring(g, col)
    assert text.splitlines()[0] == "s coloring 2"
    assert load_coloring(text, g) == col


def test_coloring_loader_accepts_either_endpoint_order():
    g = Graph(3, [(0, 1), (1, 2)])
    col = load_coloring("s coloring 2\nl 2 1 2\nl 3 2 1", g)
    assert col.colors == (1, 0)


COLORING_FAULTS = [
    ("l 1 2 1\ns coloring 1", 1),
    ("s coloring 1\ns coloring 1\nl 1 2 1\nl 2 3 1", 2),
    ("s coloring 1\nl 1 3 1\nl 2 3 1", 2),
    ("s coloring 1\nl 1 2 1\nl 1 2 1\nl 2 3 1", 3),
    ("s coloring 1\nl 1 2 2\nl 2 3 1", 2),
    ("s coloring 2\nl 1 2 1\nl 2 3 1", None),
    ("s coloring 1\nl 1 2 1", None),
    ("s coloring 1\nl 1 2 0\nl 2 3 1", 2),
    ("s coloring -1\nl 1 2 1\nl 2 3 1", 1),
    ("x nonsense", 1),
    ("", None),
]


@pytest.mark.parametrize(
    "text, lineno", COLORING_FAULTS, ids=[text for text, _ in COLORING_FAULTS]
)
def test_coloring_loader_rejects_malformed_documents(text, lineno):
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(FormatError) as err:
        load_coloring(text, g)
    assert err.value.lineno == lineno


def test_render_coloring_checks_edge_count():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        render_coloring(g, EdgeColoring([0]))


def test_render_annotated_checks_table_length():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="wrong length"):
        render_annotated(g, (1, 2))


def test_empty_coloring_document():
    g = Graph(3, [])
    assert load_coloring("s coloring 0", g) == EdgeColoring([])
    assert render_coloring(g, EdgeColoring([])) == "s coloring 0\n"


# Reference test: the one-pass loaders against the per-line ones they
# replaced (brutes.ref_load_instance, brutes.ref_load_coloring), on random
# documents and on single-fault mutations of them.

MUTATIONS = ("zero", "over", "other", "word", "dup", "drop", "hoist", "grow", "shrink")
NEEDS_EDGE_LINE = {"zero", "over", "other", "dup", "drop", "hoist"}
COMMENTS = ("c", "c note", "c  two words", "   c indented")
BLANKS = ("", "   ", "\t")
SEPARATORS = (" ", "  ", "\t", " \t ")


@st.composite
def bare_documents(draw):
    """A graph document (with or without ``f`` lines) and a coloring of it,
    as lists of field lists, with edge endpoints in random order."""
    n = draw(st.integers(1, 7))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept][:14]
    edges = [edges[i] for i in draw(st.permutations(range(len(edges))))]
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    ends = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
    graph = [["p", "edge", str(n), str(len(edges))]]
    graph += [["e", str(u + 1), str(v + 1)] for u, v in ends]
    caps = draw(st.none() | st.tuples(*[st.sampled_from((1, 2))] * n))
    if caps is not None:
        graph += [["f", str(v + 1), str(caps[v])] for v in draw(st.permutations(range(n)))]
    labels = draw(st.lists(st.integers(0, 3), min_size=len(edges), max_size=len(edges)))
    coloring = EdgeColoring.from_labels(labels)
    order = draw(st.permutations(range(len(edges))))
    colored = [["s", "coloring", str(coloring.k)]]
    colored += [
        ["l", str(ends[i][0] + 1), str(ends[i][1] + 1), str(coloring.colors[i] + 1)]
        for i in order
    ]
    return n, Graph(n, edges), caps, coloring, graph, colored


def mutate(draw, lines, n):
    """A copy of ``lines`` (a header, then ``e``/``f`` or ``l`` lines) with
    one fault in it."""
    lines = [list(fields) for fields in lines]
    edge_rows = [i for i, fields in enumerate(lines) if fields[0] in ("e", "l")]
    kinds = MUTATIONS if edge_rows else ("word", "grow", "shrink")
    kind = draw(st.sampled_from(kinds))
    if kind in NEEDS_EDGE_LINE:
        row = draw(st.sampled_from(edge_rows))
    if kind in ("zero", "over", "other"):
        end = draw(st.sampled_from((1, 2)))
        lines[row][end] = {"zero": "0", "over": str(n + 1), "other": lines[row][3 - end]}[kind]
    elif kind == "word":
        spots = [(i, j) for i, fields in enumerate(lines)
                 for j, tok in enumerate(fields) if tok.isdigit()]
        i, j = draw(st.sampled_from(spots))
        lines[i][j] = "x"
    elif kind == "dup":
        lines.insert(draw(st.integers(1, len(lines))), list(lines[row]))
    elif kind == "drop":
        del lines[row]
    elif kind == "hoist":
        lines.insert(0, lines.pop(row))
    else:
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "grow":
            lines[i].append("1")
        else:
            lines[i].pop()
    return lines


def dress(draw, lines):
    """Render field lists as text with comments, blank lines and uneven
    whitespace around and between the fields."""
    out = []
    for fields in lines:
        while draw(st.integers(0, 3)) == 3:
            out.append(draw(st.sampled_from(COMMENTS + BLANKS)))
        sep = draw(st.sampled_from(SEPARATORS))
        pad = draw(st.sampled_from(("", " ", "\t")))
        out.append(pad + sep.join(fields) + draw(st.sampled_from(("", " ", "\t"))))
    if draw(st.booleans()):
        out.append(draw(st.sampled_from(COMMENTS)))
    return "\n".join(out) + draw(st.sampled_from(("", "\n")))


@st.composite
def documents(draw):
    """``(n, g, caps, coloring, graph_text, coloring_text, faulty)``: the
    texts of ``bare_documents``, dressed, at most one of them with one
    fault; ``faulty`` names it ("graph", "coloring" or None)."""
    n, g, caps, coloring, graph, colored = draw(bare_documents())
    faulty = draw(st.sampled_from((None, "graph", "coloring")))
    if faulty == "graph":
        graph = mutate(draw, graph, n)
    elif faulty == "coloring":
        colored = mutate(draw, colored, n)
    return n, g, caps, coloring, dress(draw, graph), dress(draw, colored), faulty


def outcome(load, *args):
    try:
        return "ok", load(*args)
    except FormatError as exc:
        return "error", exc.lineno


@settings(max_examples=400, deadline=None)
@given(documents())
def test_loaders_agree_with_the_per_line_reference(doc):
    _, g, caps, coloring, graph_text, coloring_text, faulty = doc
    for got, want, reference, fault in (
        (outcome(load_instance, graph_text), (g, caps),
         outcome(ref_load_instance, graph_text), faulty == "graph"),
        (outcome(load_coloring, coloring_text, g), coloring,
         outcome(ref_load_coloring, coloring_text, g), faulty == "coloring"),
    ):
        assert got == reference
        assert got[0] == "error" if fault else got == ("ok", want)


@settings(max_examples=100, deadline=None)
@given(bare_documents(), st.data())
def test_tab_comments_are_the_one_change_from_the_reference(doc, data):
    _, g, caps, coloring, graph, colored = doc
    for lines, load, ref, args, want in (
        (graph, load_instance, ref_load_instance, (), (g, caps)),
        (colored, load_coloring, ref_load_coloring, (g,), coloring),
    ):
        spot = data.draw(st.integers(0, len(lines)))
        rows = [" ".join(fields) for fields in lines]
        rows.insert(spot, "c\tnote")
        text = "\n".join(rows)
        assert load(text, *args) == want
        assert outcome(ref, text, *args) == ("error", spot + 1)
