"""Exhaustive maximum-color computation for small graphs.

The search enumerates edge partitions as restricted-growth assignments over
the edges in id order. A branch dies the moment some vertex palette exceeds
its capacity, or when an upper bound on the classes still reachable cannot
beat the best coloring found.

Every call first folds pendant edges: it peels degree-1 vertices one at a
time, so the graph left to search has no vertex of degree 1. Folding a
pendant edge (p, v) gains exactly one class and lowers v's capacity by one
when v has capacity at least 2 or no other edge, and otherwise repeats v's
single color and gains nothing. Both directions of each rule follow from
adding, merging or splitting one class (``_fold_pendants``), so the optimum
is preserved exactly; the tests cross-check the oracle against a
pruning-free enumerator.

The search is one loop with an undo record per position, so its depth is
not bounded by the recursion limit. At edge (u, v), an endpoint has room
when its palette is below capacity. The new class fits iff both have room;
the old classes that fit are one bitmask, all classes at an endpoint with
room and its palette at a full one, intersected over u and v. The new class
is tried first, then the old ones ascending, which fixes the witness.

An edge that is the last at both endpoints takes its first candidate only.
If the new class fits, recoloring that edge to a fresh color in any
completed partition stays valid and gains a class. Otherwise no later edge
touches u or v, so all fitting old classes are future-equivalent.

A position is entered only while ``classes + min(m - pos, (room - owed)
// 2) > best``. ``room`` sums capacity minus palette size over the open
vertices, those with an edge at pos or later; each class still to come
enters the palettes of both ends of its first edge, so it spends two units
of room. An open vertex x with room is *owed* when a later edge (x, w) ends
at a full vertex w whose palette is disjoint from x's. That edge can only
take one of w's classes, which all exist already and are not in x's
palette, so one unit of x's room goes to an old class and x can start at
most its room minus one new classes; ``owed`` counts these vertices. The
same argument cuts a node at once when a later edge joins two full
vertices with disjoint palettes: no class fits it. The owed set is a
bitmask kept with the undo record. After an assignment only an endpoint
that gained the class can change: its own bit is recomputed, and when it
has just filled, each later neighbor with room and a disjoint palette
becomes owed, and a full one kills the node. An endpoint that gained
nothing shares the class with the other end, so its bit stands. Both
rules cut only subtrees whose colorings cannot beat ``best``, and ``best``
only moves on a strictly larger count. So the search meets the same
improving leaves in the same order as with the plain room bound, and the
witness is the same first optimum in edge-id order.

Backing up to position pos, its remaining old classes are skipped once
``classes + (m - pos - 1) <= best``: an old class keeps ``classes``, so the
next position would fail its entry bound at once. Without the skip a long
cycle tries every old class at every position after its first optimum,
which is quadratic.

Connected components are solved independently and summed; the number of
colors is additive because components can always use disjoint palettes.

The search is a generator with a node budget, one node per pass of its
loop, so a caller can run it in slices and resume it. It may also start
from a floor instead of 0 as its best count and stop at the first
coloring that beats it. ``sigma_exact`` runs it to the end from 0 without
a budget, so its witness and its cost are those of the plain search.
``decide`` answers sigma >= k under the default profile for the solver's
race (``solver._race``): it takes the exact sigma of every component but
the one with most edges, and asks that one, from the rest of k minus one
as the floor, for a first coloring that beats it. A NO is exact, since
the floor then bounds that component's optimum; a YES may show more than
k colors.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graphs import DEFAULT_PROFILE, EdgeColoring, Graph, ValidityProfile

DEFAULT_EDGE_LIMIT = 12


class OracleLimitError(RuntimeError):
    """Refusal: the instance exceeds the configured oracle edge limit."""


@dataclass(frozen=True)
class SigmaResult:
    sigma: int
    witness: EdgeColoring


def sigma_exact(
    g: Graph,
    profile: ValidityProfile = DEFAULT_PROFILE,
    edge_limit: int | None = DEFAULT_EDGE_LIMIT,
    fold_pendants: bool = True,
) -> SigmaResult:
    """Maximum number of colors over all valid colorings, with a witness.

    Pendant edges are always folded first (module docstring). The
    ``fold_pendants`` keyword remains for callers that name it, and only
    ``True`` is accepted; ``False`` raises ``ValueError``.
    """
    if not fold_pendants:
        raise ValueError("pendant folding is always on; fold_pendants=False is not supported")
    _check_limit(g, edge_limit)
    caps = list(profile.capacities(g.n))
    room = sum(caps)
    total, colors = _finish(_fold_and_search(g, caps))
    # each color class holds an edge, so it sits in at least two palettes
    if 2 * total > room:
        raise AssertionError("maximum color count exceeded half the capacity sum")
    if any(c is None for c in colors):
        raise AssertionError("some edge was left uncolored")
    return SigmaResult(total, EdgeColoring(colors))


def decide(g: Graph, k: int):
    """Whether sigma(g) >= k under the default profile (module docstring).

    A generator: prime it with ``next``, then send it node budgets. It
    yields when a budget is spent and, when it finishes, returns the colors
    per edge of a coloring of g with at least k colors, or None when
    sigma < k.
    """
    left = yield
    found = yield from _fold_and_search(g, list(DEFAULT_PROFILE.capacities(g.n)), k, left)
    return None if found is None else found[1]


def _finish(search):
    """The result of a search that has no node budget, so never pauses."""
    try:
        next(search)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("a search without a node budget paused")


def _fold_and_search(g: Graph, caps: list[int], k: int | None = None, left: int = -1):
    """Fold pendants, search each component of the core, unfold.

    A generator over ``_search``: ``left`` nodes may run before it yields
    for the next budget, which comes back as the value of the yield.
    With k None, every component is searched to its optimum, in component
    order, and the result is (sigma, colors). With k, the component with
    most edges goes last and needs only the colors the others and the
    folds leave to k; the result is then (count, colors) with count >= k,
    or None.
    """
    colors: list[int | None] = [None] * g.m
    core, caps, actions = _fold_pendants(g, caps)
    comps = [comp for comp in _components(core, caps) if comp[1]]
    if k is not None and comps:
        comps.append(comps.pop(max(range(len(comps)), key=lambda i: len(comps[i][1]))))
        rest = k - sum(kind == "fresh" for kind, _, _ in actions)
    total = 0
    for i, (comp, edge_ids, local_edges, local_caps) in enumerate(comps):
        deciding = k is not None and i == len(comps) - 1
        floor = rest - total - 1 if deciding else 0
        best, assign, left = yield from _search(
            len(comp), local_edges, local_caps, floor, deciding, left
        )
        if assign is None:
            if deciding:
                return None
            raise AssertionError("component search returned no coloring")
        for local_eid, c in enumerate(assign):
            colors[g.edge_id(*core.edges[edge_ids[local_eid]])] = total + c
        total += best
    total = _unfold(g, actions, colors, total)
    if k is not None and total < k:
        return None
    return total, colors


def _check_limit(g: Graph, edge_limit: int | None) -> None:
    if edge_limit is not None and g.m > edge_limit:
        raise OracleLimitError(
            f"instance has {g.m} edges, oracle limit is {edge_limit}"
        )


def _fold_pendants(g: Graph, caps: list[int]):
    """Peel degree-1 vertices; returns the core graph, its capacities (the
    list ``caps``, updated in place), and the fold actions in application
    order. The core has no vertex of degree 1.

    Folding pendant edge (p, v), with p of degree 1 and c(v) the capacity
    of v in the current graph G, where G - e keeps every other capacity:

    * "fresh", when c(v) >= 2 or v has no other edge:
      sigma(G) = sigma(G - e with c(v) - 1) + 1.
      For >=, add e to a coloring of G - e with a new color; v's palette
      grows by one, to at most c(v), and p's palette is that one color.
      For <=, drop e from an optimal coloring of G. If e's color sits on no
      other edge at v, v's palette loses it and keeps at most c(v) - 1
      colors, and at most e's own class is lost. Otherwise no class is lost
      and v's palette is unchanged; if it holds c(v) >= 2 colors, merging
      two of them into one class costs one class, shrinks it to c(v) - 1
      and grows no palette.
    * "reuse", when c(v) = 1 and v has another edge: sigma(G) = sigma(G - e).
      v's other edges carry its single color, e must repeat it, so dropping
      e loses no class, and adding e back with that color changes no palette.

    Each action is (kind, edge id, v); ``_unfold`` replays them in reverse.
    """
    alive = [True] * g.m
    deg = [g.degree(v) for v in range(g.n)]
    heap = [v for v in range(g.n) if deg[v] == 1]
    heapq.heapify(heap)
    actions: list[tuple[str, int, int]] = []
    while heap:
        p = heapq.heappop(heap)
        if deg[p] != 1:
            continue
        (eid, v) = next((e, w) for e, w in g.adj[p] if alive[e])
        alive[eid] = False
        deg[p] = 0
        deg[v] -= 1
        if deg[v] == 0 or caps[v] >= 2:
            actions.append(("fresh", eid, v))
            caps[v] -= 1
        else:
            actions.append(("reuse", eid, v))
        if deg[v] == 1:
            heapq.heappush(heap, v)
    core = Graph(g.n, [g.edges[eid] for eid in range(g.m) if alive[eid]])
    return core, caps, actions


def _unfold(g: Graph, actions, colors: list[int | None], total: int) -> int:
    """Replay fold actions in reverse, assigning the folded edges' colors.

    Caps only fall while folding, so every "reuse" fold at v comes after the
    last fold that found v with capacity 2 or more. At each "reuse" replay,
    v's colored edges are those of a graph where v has capacity 1, so they
    share one color that later replays never change: it is looked up once
    per vertex.
    """
    shared: dict[int, int] = {}
    for kind, eid, v in reversed(actions):
        if kind == "fresh":
            colors[eid] = total
            total += 1
        else:
            if v not in shared:
                shared[v] = min(
                    colors[e] for e, _ in g.adj[v] if colors[e] is not None
                )
            colors[eid] = shared[v]
    return total


def _components(g: Graph, caps):
    """Per component: vertices, global edge ids, local edge list, local caps."""
    comps = g.connected_components()
    comp_of = [0] * g.n
    local = [0] * g.n
    for c, comp in enumerate(comps):
        for i, v in enumerate(comp):
            comp_of[v] = c
            local[v] = i
    edge_ids: list[list[int]] = [[] for _ in comps]
    for eid, (u, _) in enumerate(g.edges):
        edge_ids[comp_of[u]].append(eid)
    for comp, ids in zip(comps, edge_ids):
        local_edges = [(local[g.edges[e][0]], local[g.edges[e][1]]) for e in ids]
        yield comp, ids, local_edges, [caps[v] for v in comp]


def _search(n: int, edges, caps, floor: int = 0, first: bool = False, left: int = -1):
    """Best class count and an assignment per edge id for one component.

    A generator that returns (best, assignment, budget left). The search
    starts with ``floor`` as the best count and keeps only assignments
    that beat it, so the assignment is None when none does; with
    ``first`` it returns at the first one. Each pass of the loop is one
    node: once ``left`` nodes have run it yields, and the value sent back
    is the next budget. A negative ``left`` never runs out.
    """
    m = len(edges)
    last = [-1] * n  # position of the last edge per vertex
    for pos, (u, v) in enumerate(edges):
        last[u] = last[v] = pos
    ahead: list[list[int]] = [[] for _ in range(n)]  # far ends of later edges
    # per position: each endpoint, its undo flag and the far ends of its
    # later edges
    ends: list[tuple] = [()] * m
    for pos in range(m - 1, -1, -1):
        u, v = edges[pos]
        ends[pos] = ((u, 1, tuple(ahead[u])), (v, 2, tuple(ahead[v])))
        ahead[u].append(v)
        ahead[v].append(u)
    pal = [0] * n  # palette bitmask per vertex
    size = [0] * n
    room = sum(caps[v] for v in range(n) if last[v] >= 0)
    owed = 0  # bitmask of the owed vertices (module docstring)
    dead = False  # some later edge joins two full vertices with disjoint palettes
    assign = [0] * m  # class per position
    gained = [0] * m  # undo flags per position: 1 u, 2 v, 4 new class
    owes = [0] * m  # owed bitmask at entry, per position
    rest = [0] * m  # old classes still to try per position
    classes = pos = 0
    best = floor
    best_assign: list[int] | None = None
    while True:
        left -= 1
        if not left:
            left = yield
        a = -1
        if pos == m:
            if classes > best:
                best, best_assign = classes, assign[:]
                if first:
                    return best, best_assign, left
        elif not dead and classes + min(m - pos, (room - owed.bit_count()) // 2) > best:
            u, v = edges[pos]
            ru, rv = size[u] < caps[u], size[v] < caps[v]
            every = (1 << classes) - 1
            old = (every if ru else pal[u]) & (every if rv else pal[v])
            if ru and rv:
                a = classes
            elif old:
                a = (old & -old).bit_length() - 1
                old &= old - 1
            rest[pos] = 0 if last[u] == pos == last[v] else old
        while a < 0:  # back up to the last position with a class to try
            if pos == 0:
                return best, best_assign, left
            pos -= 1
            u, v = edges[pos]
            bit, flags = 1 << assign[pos], gained[pos]
            if last[u] == pos:
                room += caps[u] - size[u]
            if last[v] == pos:
                room += caps[v] - size[v]
            if flags & 1:
                pal[u] ^= bit
                size[u] -= 1
                room += 1
            if flags & 2:
                pal[v] ^= bit
                size[v] -= 1
                room += 1
            if flags & 4:
                classes -= 1
            owed, dead = owes[pos], False
            old = rest[pos]
            if old and classes + m - pos - 1 > best:
                a = (old & -old).bit_length() - 1
                rest[pos] = old & (old - 1)
        bit, flags = 1 << a, 0
        owes[pos] = owed
        # an endpoint that gained nothing shares the class with the other
        # end, so no later edge made it owed through that end: its bit stands
        for x, flag, far in ends[pos]:
            px = pal[x]
            if px & bit:
                continue
            px |= bit
            pal[x] = px
            size[x] += 1
            room -= 1
            flags |= flag
            owed &= ~(1 << x)
            if size[x] < caps[x]:
                for w in far:
                    if size[w] == caps[w] and not pal[w] & px:
                        owed |= 1 << x
                        break
            else:  # x just filled
                for w in far:
                    if not pal[w] & px:
                        if size[w] < caps[w]:
                            owed |= 1 << w
                        else:
                            dead = True
        u, v = edges[pos]
        if last[u] == pos:
            room -= caps[u] - size[u]
        if last[v] == pos:
            room -= caps[v] - size[v]
        if a == classes:
            classes += 1
            flags |= 4
        assign[pos], gained[pos] = a, flags
        pos += 1
