"""Instance shrinking that preserves the threshold question.

Three rule sets, each returning a verdict plus enough lifting
information to pull a valid coloring of the reduced graph back to the
original:

* standard: after matching preprocessing, vertices outside the cover with
  identical neighborhoods T are interchangeable twins, so each
  neighborhood class keeps only its max(2, |T|) lowest members, or none
  when T is empty (``_twin_deletions`` proves the bound);
* dual (threshold n - k for the deficit k): a graph with a vertex of degree
  above 3k + 6 is a No-instance, and an adjacent pair of degree-2 vertices
  can be contracted, shifting the optimum down by exactly one; the
  contractions run in one linear ascending pass;
* four-cycle-free: the standard rule, on graphs without a 4-cycle. There
  two outside vertices never share two neighbors, so only isolated
  vertices and private leaves beyond a cover vertex's two lowest go.

Every rule compacts its reduced graph with ``Graph.without_vertices``, so
reduced graphs are renumbered to contiguous ids; ``Lifting.vertex_map``
maps them back, ``lift_coloring`` replays deletions and contractions in
reverse, and ``Lifting.sidecar`` renders the lifting as a document.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import EdgeColoring, Graph, verify_coloring
from .matching import Continue, ForcedNo, ForcedYes, matching_preprocess


class FourCycleError(ValueError):
    """The four-cycle-free rules were asked to run on a graph with a C4."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"graph contains the 4-cycle {self.cycle}")


@dataclass(frozen=True)
class Reduced:
    """A shrunken instance; ``k`` keeps the caller's parameter semantics
    (color target for the standard and four-cycle-free rules, vertex
    deficit for the dual rules)."""

    graph: Graph
    k: int


@dataclass(frozen=True)
class Lifting:
    """How to pull a reduced-graph coloring back to the original.

    ``vertex_map[i]`` is the original id of reduced vertex i. ``actions``
    are in application order, over original ids: ``("del", v, twin)``
    removed v whose edges can copy the colors of the surviving twin with
    the same neighborhood (twin is None for isolated vertices), and
    ``("contract", v, u, vprime)`` removed the degree-2 vertex v and
    bridged (u, vprime).
    """

    vertex_map: tuple[int, ...]
    actions: tuple[tuple, ...] = ()

    def sidecar(self, n: int) -> str:
        """The lifting sidecar document for an original graph on ``n``
        vertices, 1-based like the graph format: a ``p lift`` header, one
        ``m`` line per reduced vertex, then one line per action."""
        lines = [f"p lift {n} {len(self.vertex_map)}"]
        lines.extend(f"m {i + 1} {orig + 1}" for i, orig in enumerate(self.vertex_map))
        for action in self.actions:
            if action[0] == "del":
                lines.append(f"del {action[1] + 1}")
            else:
                _, v, u, vp = action
                lines.append(f"contract {v + 1} into {u + 1} via {vp + 1}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class KernelResult:
    verdict: object
    lifting: Lifting | None


@dataclass(frozen=True)
class NeighborhoodClass:
    """Vertices outside the cover sharing the exact neighborhood ``T``."""

    T: tuple[int, ...]
    members: tuple[int, ...]


def neighborhood_classes(g: Graph, cover) -> tuple[NeighborhoodClass, ...]:
    """Partition of the non-cover vertices by neighborhood, sorted by T;
    members ascend.

    Requires ``cover`` to be a vertex cover so the neighborhoods are
    subsets of it; the grouping is ``_neighborhood_groups``, which
    ``_twin_deletions`` reads too.
    """
    return tuple(
        NeighborhoodClass(t, tuple(vs))
        for t, vs in sorted(_neighborhood_groups(g, cover).items())
    )


def _neighborhood_groups(g: Graph, cover) -> dict[tuple[int, ...], list[int]]:
    """The vertices outside ``cover``, ascending, grouped by their sorted
    neighborhood T in one pass; raises ``ValueError`` when some T leaves
    the cover, that is when ``cover`` is not a vertex cover."""
    inside = set(cover)
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, entries in enumerate(g.adj):
        if v in inside:
            continue
        t = tuple(sorted([w for _, w in entries]))
        groups.setdefault(t, []).append(v)
    if not all(map(inside.issuperset, groups)):
        raise ValueError("the given set is not a vertex cover")
    return groups


def kernelize_standard(g: Graph, k: int) -> KernelResult:
    """Bound every neighborhood class outside the cover.

    Matching preprocessing may settle the instance outright. Otherwise
    each class I_T keeps its max(2, |T|) lowest members, or none when T is
    empty; the survivors can show every color a deleted twin showed alone,
    so the threshold question is unchanged and the parameter stays k.
    """
    if k < 2:
        raise ValueError("color target must be at least 2")
    pre = matching_preprocess(g, k)
    if isinstance(pre, (ForcedNo, ForcedYes)):
        return KernelResult(pre, None)
    assert isinstance(pre, Continue)
    return _compact(g, k, _twin_deletions(g, pre.cover))


def _twin_deletions(g: Graph, cover) -> list[tuple]:
    """Deletions that keep the max(2, |T|) lowest members of each
    neighborhood class I_T, or none when T is empty, ascending by vertex.
    A deleted vertex copies the lowest member, or nothing when T is empty.
    The classes come from one pass of ``_neighborhood_groups``, unsorted;
    only a class larger than its bound adds deletions, and those are
    sorted by vertex at the end, so the class order does not matter. A
    set that is not a vertex cover raises ``ValueError``.

    The bound keeps the optimum. A deleted twin that copies a kept twin's
    colors changes no palette, so deleting never raises the optimum. An
    isolated vertex carries no color, so a class with T empty goes whole.
    Otherwise fix an optimal coloring and a class with s = |T| >= 1, and
    call a color private when only the class's edges carry it. Twins are
    independent and interchangeable: permuting their edge colors keeps
    every palette. So max(2, s) twins that together show every private
    color can move to the lowest members, and the others can go: every
    other color stays on an edge outside the class, and palettes only
    shrink. Each twin's palette Q has at most 2 colors and meets pal(t)
    for every t in T, and every color of a Q lies in the union of the
    pal(t).

    * Two of the pal(t) are disjoint. Each Q takes one color from each of
      them, so every Q lies inside the same 4 colors, and the Q form a
      bipartite graph on at most 2 + 2 colors. Restricted to the colors
      some twin shows, it has no isolated vertex, so 2 of its edges
      cover it (a perfect matching when both sides hold 2 colors), and 2
      twins are enough.
    * The pal(t) pairwise meet, but no color is in all of them. Then they
      are the 3 edges of a triangle, every Q is one of those edges, and 2
      twins are enough.
    * Some color a is in every pal(t). If some Q lacks a, every pal(t) is
      a plus a color of Q, so every color involved is a or in Q, and Q's
      twin with one twin showing a is enough. Otherwise every Q is a
      plus at most one other color, which fills some pal(t) next to a.
      There are at most s other colors, so s twins are enough.

    The bound is tight. The star K_{1,3}, cut at its center, needs 2
    leaves (s = 1). A triangle with three twins joined to all of it has
    sigma = 4, and sigma falls to 3 with two twins (s = 3).
    """
    actions = []
    for t, members in _neighborhood_groups(g, cover).items():
        keep = max(2, len(t)) if t else 0
        if len(members) > keep:
            twin = members[0] if t else None
            actions.extend(("del", v, twin) for v in members[keep:])
    actions.sort(key=lambda a: a[1])
    return actions


def _compact(g: Graph, k: int, actions: list[tuple]) -> KernelResult:
    """Reduced instance without the vertices the actions removed (each
    action names its removed vertex second), plus the lifting."""
    reduced, vmap = g.without_vertices(a[1] for a in actions)
    return KernelResult(Reduced(reduced, k), Lifting(vmap, tuple(actions)))


def has_c4(g: Graph):
    """Some 4-cycle ``(a, w1, b, w2)`` in cycle order, or None.

    Two vertices with two common neighbors close a 4-cycle, so the scan
    records, per nonadjacent-or-adjacent pair, the first middle vertex.
    Degree-1 vertices are skipped: a 4-cycle has none, and a pair with one
    has a single middle vertex, so it never repeats and the result is the
    one the unfiltered scan returns.
    """
    adj = g.adj
    seen: dict[tuple[int, int], int] = {}
    for w in range(g.n):
        nbrs = [a for _, a in adj[w] if len(adj[a]) > 1]
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                key = (a, b) if a < b else (b, a)
                if key in seen:
                    return (key[0], seen[key], key[1], w)
                seen[key] = w
    return None


def kernelize_c4free(g: Graph, k: int) -> KernelResult:
    """The standard rule, on graphs without a 4-cycle.

    Graphs with a 4-cycle are refused. Without one, two outside vertices
    sharing two neighbors would close a 4-cycle, so a class with |T| >= 2
    has one member and stays whole. Only isolated vertices and private
    leaves beyond a cover vertex's two lowest go, and the instance is
    capped at 2k(2k+2) vertices.
    """
    if k < 2:
        raise ValueError("color target must be at least 2")
    cycle = has_c4(g)
    if cycle is not None:
        raise FourCycleError(cycle)
    return kernelize_standard(g, k)


def _contractible(nbrs: list[set[int]], u: int):
    """``(v, vprime)`` for the smallest degree-2 neighbor v of the degree-2
    vertex u whose other neighbor vprime is not adjacent to u, else None."""
    if len(nbrs[u]) != 2:
        return None
    for v in sorted(nbrs[u]):
        if len(nbrs[v]) == 2:
            (vp,) = nbrs[v] - {u}
            if vp not in nbrs[u]:
                return v, vp
    return None


def kernelize_dual(g: Graph, k: int) -> KernelResult:
    """Shrink for the threshold n - k, keeping the deficit k fixed.

    A vertex of degree above 3k + 6 already forces No. Otherwise every
    adjacent degree-2 pair (u, v) with the bridge (u, v') absent is
    contracted: v is deleted and (u, v') bridged, so the optimum drops by
    exactly one while n drops by one and the question is unchanged. Pairs
    closing a triangle are skipped to stay simple.

    The contractions run in one ascending pass: at each vertex u, contract
    (u, v) with the smallest qualifying v for as long as one exists. This
    reaches the fixpoint that always contracts at the smallest vertex able
    to contract, with the same actions in the same order. A contraction
    changes no vertex's degree, and it only touches its own maximal chain
    of degree-2 vertices, so chains shrink independently of each other.
    The smallest vertex of a chain that can still shrink is the one the
    pass reaches first, and it survives every contraction it makes. Each
    contraction deletes a vertex, so the pass takes linear time.
    """
    if k < 0:
        raise ValueError("deficit must be nonnegative")
    if g.max_degree() > 3 * k + 6:
        return KernelResult(ForcedNo(), None)
    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    actions = []
    for u in range(g.n):
        while (hit := _contractible(nbrs, u)) is not None:
            v, vp = hit
            nbrs[u].remove(v)
            nbrs[u].add(vp)
            nbrs[vp].remove(v)
            nbrs[vp].add(u)
            nbrs[v].clear()
            actions.append(("contract", v, u, vp))
    bridged = Graph(
        g.n, sorted((u, w) for u in range(g.n) for w in nbrs[u] if u < w)
    )
    return _compact(bridged, k, actions)


def lift_coloring(original: Graph, reduced: Graph, lifting: Lifting,
                  coloring: EdgeColoring) -> EdgeColoring:
    """Valid coloring of ``original`` from one of ``reduced``.

    Deleted vertices copy their twin's edge colors, keeping every palette
    intact; each unwound contraction moves the bridge color onto the edge
    (v, v') and spends one fresh color on (u, v), which is fine because u
    has degree 2 there. The result keeps all reduced colors and gains one
    per contraction.
    """
    if len(coloring) != reduced.m:
        raise ValueError("coloring does not fit the reduced graph")
    col: dict[tuple[int, int], int] = {}
    for eid, (a, b) in enumerate(reduced.edges):
        pa, pb = lifting.vertex_map[a], lifting.vertex_map[b]
        col[(min(pa, pb), max(pa, pb))] = coloring[eid]
    fresh = coloring.k
    for action in reversed(lifting.actions):
        if action[0] == "del":
            _, v, twin = action
            for _, t in original.incident(v):
                key = (min(v, t), max(v, t))
                col[key] = col[(min(twin, t), max(twin, t))]
        else:
            _, v, u, vp = action
            bridge = (min(u, vp), max(u, vp))
            color = col.pop(bridge)
            col[(min(v, vp), max(v, vp))] = color
            col[(min(u, v), max(u, v))] = fresh
            fresh += 1
    if len(col) != original.m:
        raise ValueError("lifting does not reach the original edge set")
    lifted = EdgeColoring([col[e] for e in original.edges])
    check = verify_coloring(original, lifted)
    if not check.valid:
        raise AssertionError("lifted coloring failed verification")
    return lifted
