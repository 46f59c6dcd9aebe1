"""Text formats for graphs, colorings and annotated instances.

Graph documents::

    c optional comment lines
    p edge <n> <m>
    e <u> <v>          (m lines, 1-based, u < v)

Coloring documents::

    s coloring <k>
    l <u> <v> <color>  (one line per edge, colors 1..k, every class used)

Annotated instances append per-vertex capacity lines to a graph document::

    f <vertex> <1|2>   (one line per vertex)

A line whose first field is exactly ``c`` is a comment. Emitted documents
are canonical: vertices 1-based, edge lines in edge-id order with the
smaller endpoint first. Parsing is strict about structure but accepts edge
endpoints in either order.

All loaders read through one tokenizer, ``_lines``, and the two graph
loaders (``load_instance`` and ``generators.load_mcis``) through one pass,
``_read_graph``. ``Graph`` is the one edge validator: the pass collects
0-based pairs, and when ``Graph`` rejects one, it finds that pair's ``e``
line again and reports the ``GraphError`` there. Of several faults, the
first line wrong on its own is reported, else the first ``e`` line
``Graph`` rejects, else a whole-document fault (no line number).
"""

from __future__ import annotations

from .graphs import EdgeColoring, Graph, GraphError


class FormatError(ValueError):
    """A document does not match its format; carries a 1-based line number."""

    def __init__(self, lineno: int | None, message: str):
        self.lineno = lineno
        prefix = f"line {lineno}: " if lineno is not None else ""
        super().__init__(prefix + message)


def render_graph(g: Graph, comments=()) -> str:
    lines = [f"c {text}" for text in comments]
    lines.append(f"p edge {g.n} {g.m}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def load_graph(text: str) -> Graph:
    g, f = load_instance(text)
    if f is not None:
        raise FormatError(None, "unexpected capacity lines in plain graph document")
    return g


def load_instance(text: str) -> tuple[Graph, tuple[int, ...] | None]:
    """Parse a graph document, with or without trailing ``f`` capacity lines.

    Returns the graph and the per-vertex capacity table (or None when the
    document has no ``f`` lines). When present, the table must be total.
    """
    g, _, caps = _read_graph(text, "edge", 2, "f", "capacity", lambda counts: 2)
    if not caps:
        return g, None
    if len(caps) != g.n:
        missing = sorted(set(range(g.n)) - set(caps))[0]
        raise FormatError(None, f"missing capacity for vertex {missing + 1}")
    return g, tuple(caps[v] for v in range(g.n))


def render_annotated(g: Graph, f, comments=()) -> str:
    f = tuple(f)
    if len(f) != g.n:
        raise ValueError("capacity table has wrong length")
    body = render_graph(g, comments)
    lines = [f"f {v + 1} {cap}" for v, cap in enumerate(f)]
    return body + "\n".join(lines) + ("\n" if lines else "")


def render_coloring(g: Graph, coloring: EdgeColoring) -> str:
    if len(coloring.colors) != g.m:
        raise ValueError("coloring does not match graph edge count")
    lines = [f"s coloring {coloring.k}"]
    for eid, (u, v) in enumerate(g.edges):
        lines.append(f"l {u + 1} {v + 1} {coloring.colors[eid] + 1}")
    return "\n".join(lines) + "\n"


def load_coloring(text: str, g: Graph) -> EdgeColoring:
    k = None
    assigned: dict[int, int] = {}
    index = g._index
    for lineno, fields in _lines(text):
        head = fields[0]
        if head == "l":
            if k is None:
                raise FormatError(lineno, "label line before solution line")
            if len(fields) != 4:
                raise FormatError(lineno, f"malformed label line {_line(text, lineno)!r}")
            try:
                u, v, color = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                raise _not_int(fields[1:], lineno) from None
            eid = index.get((u - 1, v - 1) if u < v else (v - 1, u - 1))
            if eid is None:
                if not (1 <= u <= g.n and 1 <= v <= g.n):
                    raise FormatError(lineno, f"vertex id out of range in {_line(text, lineno)!r}")
                raise FormatError(lineno, f"no such edge ({u}, {v})")
            if not 1 <= color <= k:
                raise FormatError(lineno, f"color {color} outside 1..{k}")
            if eid in assigned:
                raise FormatError(lineno, f"edge ({u}, {v}) colored twice")
            assigned[eid] = color - 1
        elif head == "s":
            if k is not None:
                raise FormatError(lineno, "duplicate solution line")
            if len(fields) != 3 or fields[1] != "coloring":
                raise FormatError(lineno, f"malformed solution line {_line(text, lineno)!r}")
            try:
                k = int(fields[2])
            except ValueError:
                raise _not_int(fields[2:], lineno) from None
            if k < 0:
                raise FormatError(lineno, "negative color count")
        else:
            raise FormatError(lineno, f"unrecognized line {_line(text, lineno)!r}")
    if k is None:
        raise FormatError(None, "missing solution line")
    if len(assigned) != g.m:
        raise FormatError(None, f"{g.m - len(assigned)} edges left uncolored")
    colors = [assigned[eid] for eid in range(g.m)]
    used = set(colors)
    if len(used) != k:
        unused = sorted(set(range(k)) - used)[0]
        raise FormatError(None, f"color {unused + 1} is declared but never used")
    return EdgeColoring(colors)


def _lines(text: str):
    """Yield ``(lineno, fields)`` for every line that is neither blank nor a
    comment (first field exactly ``c``); ``lineno`` is 1-based."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields and fields[0] != "c":
            yield lineno, fields


def _line(text: str, lineno: int) -> str:
    """Line ``lineno`` of ``text`` as written, stripped; for error messages."""
    return text.splitlines()[lineno - 1].strip()


def _not_int(tokens, lineno: int) -> FormatError:
    """The error for a line whose ``tokens`` do not all convert: it names
    the first one that ``int`` rejects. The loaders convert a line's tokens
    in one ``try`` and ask for this error only when that fails."""
    for token in tokens:
        try:
            int(token)
        except ValueError:
            return FormatError(lineno, f"expected integer, got {token!r}")


def _read_graph(text: str, kind: str, width: int, tag: str, what: str, top):
    """One pass over a ``p <kind>`` document with ``width`` counts (n and m
    first), ``e`` lines, and at most one ``<tag> <vertex> <value>`` line per
    vertex with the value in ``1..top(counts)``; ``what`` names those lines
    in messages. Returns the graph, the counts and {vertex: value}."""
    counts = None
    pairs: list[tuple[int, int]] = []
    values: dict[int, int] = {}
    for lineno, fields in _lines(text):
        head = fields[0]
        if head == "e":
            if counts is None:
                raise FormatError(lineno, "edge line before problem line")
            if len(fields) != 3:
                raise FormatError(lineno, f"malformed edge line {_line(text, lineno)!r}")
            try:
                pairs.append((int(fields[1]) - 1, int(fields[2]) - 1))
            except ValueError:
                raise _not_int(fields[1:], lineno) from None
        elif head == "p":
            if counts is not None:
                raise FormatError(lineno, "duplicate problem line")
            if len(fields) != width + 2 or fields[1] != kind:
                raise FormatError(lineno, f"malformed problem line {_line(text, lineno)!r}")
            try:
                counts = [int(token) for token in fields[2:]]
            except ValueError:
                raise _not_int(fields[2:], lineno) from None
            if min(counts) < 0:
                raise FormatError(lineno, "negative counts in problem line")
        elif head == tag:
            if counts is None:
                raise FormatError(lineno, f"{what} line before problem line")
            if len(fields) != 3:
                raise FormatError(lineno, f"malformed {what} line {_line(text, lineno)!r}")
            try:
                v, value = int(fields[1]), int(fields[2])
            except ValueError:
                raise _not_int(fields[1:], lineno) from None
            if not 1 <= v <= counts[0]:
                raise FormatError(lineno, f"vertex id out of range in {_line(text, lineno)!r}")
            if not 1 <= value <= top(counts):
                raise FormatError(lineno, f"{what} out of range in {_line(text, lineno)!r}")
            if v - 1 in values:
                raise FormatError(lineno, f"duplicate {what} line for vertex {v}")
            values[v - 1] = value
        else:
            raise FormatError(lineno, f"unrecognized line {_line(text, lineno)!r}")
    if counts is None:
        raise FormatError(None, "missing problem line")
    try:
        g = Graph(counts[0], pairs)
    except GraphError as exc:  # counts are nonnegative, so a pair is at fault
        # every e line added one pair, so the faulty pair's line is the
        # pos-th e line
        lineno = [n for n, fields in _lines(text) if fields[0] == "e"][exc.pos]
        raise FormatError(lineno, f"{exc.reason} in {_line(text, lineno)!r}") from exc
    if g.m != counts[1]:
        raise FormatError(None, f"problem line declares {counts[1]} edges, found {g.m}")
    return g, counts, values
