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

Emitted documents are canonical: vertices 1-based, edge lines in edge-id
order with the smaller endpoint first. Parsing is strict about structure but
accepts edge endpoints in either order.
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
    n = m = None
    edges: list[tuple[int, int]] = []
    edge_lines: set[tuple[int, int]] = set()
    caps: dict[int, int] = {}
    for lineno, line, fields in _lines(text):
        if fields[0] == "p":
            if n is not None:
                raise FormatError(lineno, "duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise FormatError(lineno, f"malformed problem line {line!r}")
            n, m = _int(fields[2], lineno), _int(fields[3], lineno)
            if n < 0 or m < 0:
                raise FormatError(lineno, "negative counts in problem line")
        elif fields[0] == "e":
            edges.append(_edge(lineno, line, fields, n, edge_lines))
        elif fields[0] == "f":
            if n is None:
                raise FormatError(lineno, "capacity line before problem line")
            if len(fields) != 3:
                raise FormatError(lineno, f"malformed capacity line {line!r}")
            v, cap = _int(fields[1], lineno), _int(fields[2], lineno)
            if not 1 <= v <= n:
                raise FormatError(lineno, f"vertex id out of range in {line!r}")
            if cap not in (1, 2):
                raise FormatError(lineno, "capacity must be 1 or 2")
            if v - 1 in caps:
                raise FormatError(lineno, f"duplicate capacity for vertex {v}")
            caps[v - 1] = cap
        else:
            raise FormatError(lineno, f"unrecognized line {line!r}")
    if n is None:
        raise FormatError(None, "missing problem line")
    if len(edges) != m:
        raise FormatError(None, f"problem line declares {m} edges, found {len(edges)}")
    try:
        g = Graph(n, edges)
    except GraphError as exc:
        raise FormatError(None, str(exc)) from exc
    if not caps:
        return g, None
    if len(caps) != n:
        missing = sorted(set(range(n)) - set(caps))[0]
        raise FormatError(None, f"missing capacity for vertex {missing + 1}")
    return g, tuple(caps[v] for v in range(n))


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
    for lineno, line, fields in _lines(text):
        if fields[0] == "s":
            if k is not None:
                raise FormatError(lineno, "duplicate solution line")
            if len(fields) != 3 or fields[1] != "coloring":
                raise FormatError(lineno, f"malformed solution line {line!r}")
            k = _int(fields[2], lineno)
            if k < 0:
                raise FormatError(lineno, "negative color count")
        elif fields[0] == "l":
            if k is None:
                raise FormatError(lineno, "label line before solution line")
            if len(fields) != 4:
                raise FormatError(lineno, f"malformed label line {line!r}")
            u, v = _int(fields[1], lineno), _int(fields[2], lineno)
            color = _int(fields[3], lineno)
            if not (1 <= u <= g.n and 1 <= v <= g.n):
                raise FormatError(lineno, f"vertex id out of range in {line!r}")
            if not g.has_edge(u - 1, v - 1):
                raise FormatError(lineno, f"no such edge ({u}, {v})")
            if not 1 <= color <= k:
                raise FormatError(lineno, f"color {color} outside 1..{k}")
            eid = g.edge_id(u - 1, v - 1)
            if eid in assigned:
                raise FormatError(lineno, f"edge ({u}, {v}) colored twice")
            assigned[eid] = color - 1
        else:
            raise FormatError(lineno, f"unrecognized line {line!r}")
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
    """Yield ``(lineno, line, fields)`` for every line that is neither blank
    nor a comment; ``lineno`` is 1-based and ``line`` is stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        yield lineno, line, line.split()


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(lineno, f"expected integer, got {token!r}") from None


def _edge(lineno: int, line: str, fields, n: int | None,
          seen: set[tuple[int, int]]) -> tuple[int, int]:
    """Check an ``e <u> <v>`` line against the declared vertex count n
    (None before the problem line) and the edges in ``seen``, which it
    extends; returns the 0-based endpoints."""
    if n is None:
        raise FormatError(lineno, "edge line before problem line")
    if len(fields) != 3:
        raise FormatError(lineno, f"malformed edge line {line!r}")
    u, v = _int(fields[1], lineno), _int(fields[2], lineno)
    if not (1 <= u <= n and 1 <= v <= n):
        raise FormatError(lineno, f"vertex id out of range in {line!r}")
    if u == v:
        raise FormatError(lineno, f"self-loop at vertex {u}")
    key = (min(u, v), max(u, v))
    if key in seen:
        raise FormatError(lineno, f"duplicate edge ({key[0]}, {key[1]})")
    seen.add(key)
    return u - 1, v - 1
