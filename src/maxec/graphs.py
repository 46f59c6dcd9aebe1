"""Core graph and edge-coloring types.

Conventions used across the package:

* vertices are the integers ``0..n-1``; isolated vertices are allowed,
* an edge is an unordered pair stored as ``(u, v)`` with ``u < v``,
* the position of an edge in ``Graph.edges`` is its stable edge id,
* colors are 0-based ints; the text formats in :mod:`maxec.formats` are 1-based.

A coloring is *valid* for a capacity profile when every vertex is incident to
edges of at most ``capacity(v)`` distinct colors. The default profile gives
every vertex capacity 2.
"""

from __future__ import annotations

from dataclasses import dataclass


class GraphError(ValueError):
    """Structurally invalid graph data: self-loop, duplicate edge, bad id.

    For a bad input pair, ``pos`` is its position in the edge input and
    ``reason`` names the fault without the pair; otherwise ``pos`` is None.
    """

    def __init__(self, reason: str, pair=None, pos: int | None = None):
        super().__init__(reason if pair is None else f"{reason}: edge {pos} {tuple(pair)!r}")
        self.reason, self.pos = reason, pos


class Graph:
    """Immutable simple undirected graph with stable vertex and edge ids.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of pairs. Pairs may come in either orientation; they are
        stored normalized as ``(min, max)`` in input order, and the index of
        an edge in ``self.edges`` is its edge id.
    """

    __slots__ = ("n", "edges", "adj", "_index")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = n
        index: dict[tuple[int, int], int] = {}  # insertion order is id order
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for pair in edges:
            u, v = pair
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError("vertex id out of range", pair, len(index))
            if u == v:
                raise GraphError("self-loop", pair, len(index))
            if u > v:
                u, v = v, u
            eid = len(index)
            if index.setdefault((u, v), eid) != eid:
                raise GraphError("duplicate edge", pair, eid)
            adj[u].append((eid, v))
            adj[v].append((eid, u))
        self.edges = tuple(index)
        self.adj = tuple(map(tuple, adj))
        self._index = index

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(w for _, w in self.adj[v])

    def incident(self, v: int) -> tuple[tuple[int, int], ...]:
        """Pairs ``(edge id, other endpoint)`` in edge-id order."""
        return self.adj[v]

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self.edges[eid]

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._index

    def edge_id(self, u: int, v: int) -> int:
        try:
            return self._index[(min(u, v), max(u, v))]
        except KeyError:
            raise GraphError(f"no edge ({u}, {v})") from None

    def max_degree(self) -> int:
        return max((len(entries) for entries in self.adj), default=0)

    def connected_components(self) -> list[list[int]]:
        """Vertex lists of the connected components, each ascending."""
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for _, w in self.adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comp.sort()
            comps.append(comp)
        return comps

    def without_vertices(self, removed) -> tuple["Graph", tuple[int, ...]]:
        """Delete a vertex set; returns the new graph and a map new id -> old id.

        Edges touching a removed vertex disappear; surviving edges keep their
        relative order (so reduced edge ids stay predictable).
        """
        removed = set(removed)
        keep = [v for v in range(self.n) if v not in removed]
        old_to_new = {old: new for new, old in enumerate(keep)}
        edges = [
            (old_to_new[u], old_to_new[v])
            for u, v in self.edges
            if u not in removed and v not in removed
        ]
        return Graph(len(keep), edges), tuple(keep)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class EdgeColoring:
    """A total map edge id -> color, surjective onto ``0..k-1``."""

    __slots__ = ("colors", "k")

    def __init__(self, colors):
        colors = tuple(colors)
        used = set(colors)
        if colors:
            k = max(used) + 1
            if any(c < 0 for c in used):
                raise ValueError("colors must be nonnegative")
            if len(used) != k:
                missing = sorted(set(range(k)) - used)
                raise ValueError(f"coloring skips color classes {missing}")
        else:
            k = 0
        self.colors = colors
        self.k = k

    @classmethod
    def from_labels(cls, labels) -> "EdgeColoring":
        """Build a coloring from arbitrary hashable labels.

        Labels are compacted to ``0..k-1`` by order of first appearance.
        """
        mapping: dict = {}
        out = []
        for lab in labels:
            if lab not in mapping:
                mapping[lab] = len(mapping)
            out.append(mapping[lab])
        return cls(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeColoring) and self.colors == other.colors

    def __hash__(self) -> int:
        return hash(self.colors)

    def __len__(self) -> int:
        return len(self.colors)

    def __getitem__(self, eid: int) -> int:
        return self.colors[eid]

    def __repr__(self) -> str:
        return f"EdgeColoring(k={self.k}, colors={self.colors})"


@dataclass(frozen=True)
class ValidityProfile:
    """Per-vertex palette capacities.

    ``q`` is the uniform capacity (at least 2). ``f``, when present, overrides
    it with per-vertex capacities in {1, 2} (the annotated-instance variant).
    """

    q: int = 2
    f: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("uniform capacity q must be at least 2")
        if self.f is not None and any(x not in (1, 2) for x in self.f):
            raise ValueError("per-vertex capacities must be 1 or 2")

    def capacity(self, v: int) -> int:
        return self.f[v] if self.f is not None else self.q

    def capacities(self, n: int) -> tuple[int, ...]:
        if self.f is not None:
            if len(self.f) != n:
                raise ValueError("per-vertex capacity table has wrong length")
            return self.f
        return (self.q,) * n


DEFAULT_PROFILE = ValidityProfile()


@dataclass(frozen=True)
class VerifyResult:
    valid: bool
    colors_used: int
    violations: tuple[int, ...]  # vertices whose palette exceeds capacity


def palettes(g: Graph, coloring: EdgeColoring) -> tuple[frozenset[int], ...]:
    """Per-vertex sets of colors seen on incident edges."""
    _check_total(g, coloring)
    out = []
    for v in range(g.n):
        out.append(frozenset(coloring.colors[eid] for eid, _ in g.adj[v]))
    return tuple(out)


def verify_coloring(
    g: Graph, coloring: EdgeColoring, profile: ValidityProfile = DEFAULT_PROFILE
) -> VerifyResult:
    """Check a coloring against a capacity profile.

    Returns validity, the number of distinct colors used, and the ascending
    list of vertices whose palette exceeds its capacity.
    """
    _check_total(g, coloring)
    caps = profile.capacities(g.n)
    bad = []
    for v in range(g.n):
        seen = {coloring.colors[eid] for eid, _ in g.adj[v]}
        if len(seen) > caps[v]:
            bad.append(v)
    return VerifyResult(not bad, coloring.k, tuple(bad))


def character_subgraph(g: Graph, coloring: EdgeColoring) -> Graph:
    """Subgraph keeping one representative edge per color class.

    The representative of a class is its lowest edge id. For a 2-valid
    coloring the result has maximum degree at most 2 and exactly
    ``coloring.k`` edges.
    """
    res = verify_coloring(g, coloring)
    if not res.valid:
        raise ValueError(f"coloring is not 2-valid at vertices {res.violations}")
    rep: dict[int, int] = {}
    for eid, c in enumerate(coloring.colors):
        if c not in rep:
            rep[c] = eid
    keep = sorted(rep.values())
    return Graph(g.n, [g.edges[eid] for eid in keep])


def is_two_factor(g: Graph) -> bool:
    """True when every vertex has degree exactly 2."""
    return g.n > 0 and all(len(entries) == 2 for entries in g.adj)


def compress_colors(coloring: EdgeColoring, k: int) -> EdgeColoring:
    """Merge the top color classes so exactly ``k`` remain.

    Classes ``k-1..K-1`` (0-based) collapse into class ``k-1``; smaller
    classes are untouched. Merging classes never grows a palette, so validity
    under any capacity profile is preserved.
    """
    if k < 1:
        raise ValueError("target color count must be at least 1")
    if coloring.k < k:
        raise ValueError(f"coloring uses {coloring.k} colors, fewer than {k}")
    return EdgeColoring(min(c, k - 1) for c in coloring.colors)


def _check_total(g: Graph, coloring: EdgeColoring) -> None:
    if len(coloring.colors) != g.m:
        raise ValueError(
            f"coloring covers {len(coloring.colors)} edges, graph has {g.m}"
        )
