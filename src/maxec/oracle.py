"""Exhaustive maximum-color computation for small graphs.

The search enumerates edge partitions as restricted-growth assignments over
the edges of the core (below) in its edge order. A branch dies the moment
some vertex palette exceeds its capacity, or when an upper bound on the
classes still reachable cannot beat the best coloring found.

Every call first folds pendant edges: it peels degree-1 vertices one at a
time, so the graph left to search has no vertex of degree 1. Folding a
pendant edge (p, v) gains exactly one class and lowers v's capacity by one
when v has capacity at least 2 or no other edge, and otherwise repeats v's
single color and gains nothing. Both directions of each rule follow from
adding, merging or splitting one class (``_fold_pendants``), so the optimum
is preserved exactly; the tests cross-check the oracle against a
pruning-free enumerator.

The same worklist deletes free edges. An edge e = (x, y) is free when
deg(x) <= c(x) and deg(y) <= c(y), with c the capacity; under the
default profile, both ends have degree at most 2. Then sigma(G) =
sigma(G - e) + 1, with every capacity unchanged. For >=, x shows at most
deg(x) - 1 <= c(x) - 1 colors in a coloring of G - e, and so does y, so
e can take a new color. For <=, dropping e from a coloring of G loses at
most e's own class. A deletion lowers two degrees; where one falls to 1,
pendant folds follow, so one deletion peels a whole path, and a cycle
goes entirely. This is the free-edge twin of the dual kernel's rule,
which contracts two adjacent degree-2 vertices
(``kernels.kernelize_dual``); the palette search of the solver deletes
free edges too.

The same worklist contracts series vertices: while some vertex x of
capacity 1 has exactly two neighbors a and b that are not adjacent, the
path a-x-b becomes the one edge (a, b). Since x has capacity 1, its two
edges share one color in every valid coloring, and giving (a, b) that
color leaves pal(a), pal(b) and the class count unchanged; in reverse,
both edges of x take the color of (a, b), and pal(x) is that one color.
So sigma is unchanged. A contraction changes no degree, so it cannot make
a new pendant, but it can make its new edge (a, b) free, when a and b both
have degree at most their capacity; that edge is then deleted like any
other free edge, and the pendant folds that follow come next. So the core
is a fixpoint of all three rules: no vertex of degree 1, no free edge, and
no capacity-1 vertex of degree 2 with non-adjacent neighbors. A
capacity-1 chain, such as an arm of a ``reduce_mcis`` gadget, collapses
to one edge. The core's edge order is the surviving edges in id order,
then each contracted edge in the order it was made; every core edge, and
every edge a fold removes, keeps the original edge ids it stands for, and
each of them takes its color.

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
witness is the same first optimum in the core's edge order.

A class is tried at pos only when the child it makes can pass that entry
bound; this child-bound check runs at entry and again, with the current
``best``, when the search backs up to pos. The child's room is ``room``,
minus one for each endpoint that gains the class, minus all the remaining
room of an endpoint whose last edge this is. Only an endpoint that gains
the class can leave the owed set, so the child owes at least the current
owed count minus the owed bits of those endpoints. Whether an endpoint
gains depends only on whether its palette holds the class, so the old
classes fall into four masks, each passing or failing as a whole. An old
class keeps ``classes``, so all of them are skipped once ``classes + (m -
pos - 1) <= best``; without that skip a long cycle tries every old class
at every position after its first optimum, which is quadratic. The check
uses no capacity value beyond the counts above, and it drops only
children that would fail their entry bound at once and hand the search
back to the next class at pos. So the search meets the same improving
leaves in the same order, and finds the same witness, in fewer nodes.

Connected components are solved independently and summed; the number of
colors is additive because components can always use disjoint palettes.
The fold hands over its core as a list of edge pairs, and the split
(``_components``) visits only the vertices those edges touch, so an empty
core costs nothing more. It takes the components by least vertex, each
with its vertices ascending, local ids by position in that list and its
edges in core order; that order fixes the witness.

The search is a generator with a node budget, one node per pass of its
loop. It follows the pause protocol of both engines of the solver's race
(``solver._race``): once its budget is spent it pauses with a bare
``yield``, takes its next budget from ``send``, and returns its answer.
Without a floor it searches for the optimum from 0; with a floor it takes
the floor as its best count and stops at the first coloring that beats
it. ``sigma_exact`` runs it without a floor or a budget, so its witness
and its cost are those of the plain search. ``decide`` answers
sigma >= k under the default profile as the race's first engine: it takes
the exact sigma of every component but the one with most edges, and asks
that one, with the rest of k minus one as its floor, for a first
coloring that beats it. A NO is exact, since
the floor then bounds that component's optimum; a YES may show more than
k colors.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress

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

    Pendant edges are always folded first, free edges deleted and series
    vertices contracted (module docstring). The ``fold_pendants`` keyword
    remains for callers that name it, and only ``True`` is accepted;
    ``False`` raises ``ValueError``.
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
    """Fold the graph to its core, search each component of the core,
    unfold.

    A generator over ``_search``: ``left`` nodes may run before it yields
    for the next budget, which comes back as the value of the yield. The
    components come from ``_components``, by least vertex, and an empty
    core has none. With k None, every component is searched to its
    optimum, in that order, and the result is (sigma, colors). With k,
    the component with most edges goes last and needs only the colors the
    others and the folds leave to k; the result is then (count, colors)
    with count >= k, or None.
    """
    colors: list[int | None] = [None] * g.m
    core, caps, actions, origin = _fold_pendants(g, caps)
    comps = list(_components(core, caps))
    if k is not None and comps:
        comps.append(comps.pop(max(range(len(comps)), key=lambda i: len(comps[i][1]))))
        rest = k - sum(kind == "fresh" for kind, _, _ in actions)
    total = 0
    for i, (comp, edge_ids, local_edges, local_caps) in enumerate(comps):
        floor = rest - total - 1 if k is not None and i == len(comps) - 1 else None
        best, assign, left = yield from _search(
            len(comp), local_edges, local_caps, floor, left
        )
        if assign is None:
            if floor is not None:
                return None
            raise AssertionError("component search returned no coloring")
        for local_eid, c in enumerate(assign):
            for eid in origin[edge_ids[local_eid]]:
                colors[eid] = total + c
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
    """Peel degree-1 vertices, delete free edges and contract series
    vertices until no rule fires (module docstring); returns the core as
    its list of surviving edge pairs (u, v) with u < v, in core order, its
    capacities (the list ``caps``, updated in place), the fold actions in
    application order, and per core edge the original edge ids it stands
    for. The core is no ``Graph``: every pair is an edge of g or one that
    a contraction made after finding its ends non-adjacent, so there is
    nothing to validate.

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

    Deleting a free edge e = (x, y) is a "fresh" action that changes no
    capacity: sigma(G) = sigma(G - e) + 1 (module docstring). A vertex is
    *loose* when 2 <= deg <= c, so its capacity is at least 2. A pendant
    fold lowers deg(v), and when it lowers c(v) too it lowers both by one;
    a deletion lowers the degrees of two loose vertices; a contraction
    changes no degree and no capacity. So no rule makes a vertex loose, and
    the one degree pass that finds the pendants finds every loose vertex
    too. Popped with degree 2 or more, a loose vertex x deletes its edge to
    each neighbor that is still loose, each one free since deg(x) only
    falls. x then has no loose neighbor, and only a contraction can give
    it one; an end that falls to degree 1 joins the worklist as a pendant.
    An edge to a pendant is left to the pendant fold.

    Series vertices wait in a second heap, which the same degree pass
    fills and a fold that leaves v with capacity 1 and degree 2 extends; it
    is popped only when no pendant or loose vertex is queued, so until a
    contraction makes a free edge the folds run in the order they would
    run without the series rule. A contraction gives the new edge a fresh
    index, appends it to the incidences of a and b (each turned into a
    list the first time), re-queues a and b as series vertices when they
    are ones, and re-queues a as a loose vertex when the new edge is free,
    which then deletes it. Whether a and b are adjacent is one lookup of
    the pair among the graph's edges and the contracted ones.

    Each action is (kind, original edge ids, v); ``_unfold`` replays them
    in reverse.
    """
    adj = list(g.adj)  # an entry turns into a list when a contraction extends it
    ends: list[tuple[int, int] | None] = list(g.edges)  # None once deleted
    origin = [[eid] for eid in range(g.m)]  # original edge ids per edge index
    pairs: dict[tuple[int, int], int] = {}  # contracted edges by their ends
    deg = [len(nbrs) for nbrs in adj]
    # both worklists start ascending, so they are heaps already
    work = [v for v, d in enumerate(deg) if d == 1 or 2 <= d <= caps[v]]
    series = [v for v, d in enumerate(deg) if d == 2 and caps[v] == 1]
    actions: list[tuple[str, list[int], int]] = []
    while work or series:
        x = heapq.heappop(work) if work else heapq.heappop(series)
        if deg[x] == 1:
            for i, v in adj[x]:
                if ends[i]:
                    break
            ends[i] = None
            deg[x] = 0
            deg[v] -= 1
            if deg[v] == 0 or caps[v] >= 2:
                actions.append(("fresh", origin[i], v))
                caps[v] -= 1
            else:
                actions.append(("reuse", origin[i], v))
            if deg[v] == 1:
                heapq.heappush(work, v)
            elif deg[v] == 2 and caps[v] == 1:
                heapq.heappush(series, v)
        elif deg[x] and caps[x] >= 2:  # loose: no other vertex is queued in work with degree >= 2
            for i, y in adj[x]:
                if ends[i] and 2 <= deg[y] <= caps[y]:
                    ends[i] = None
                    deg[x] -= 1
                    deg[y] -= 1
                    actions.append(("fresh", origin[i], x))
                    if deg[y] == 1:
                        heapq.heappush(work, y)
            if deg[x] == 1:
                heapq.heappush(work, x)
        elif deg[x]:  # series: capacity 1 and degree 2
            # stored back, since x may be popped again and its entries may grow
            adj[x] = live = [(i, y) for i, y in adj[x] if ends[i]]
            (ea, a), (eb, b) = live
            key = (a, b) if a < b else (b, a)
            e = pairs.get(key, g._index.get(key))
            if e is not None and ends[e]:
                continue
            ends[ea] = ends[eb] = None
            deg[x] = 0
            pairs[key] = i = len(ends)
            ends.append(key)
            more, ids = sorted((origin[ea], origin[eb]), key=len)
            ids += more  # both edges are gone: the shorter list joins the longer
            origin.append(ids)
            for y, z in ((a, b), (b, a)):
                if isinstance(adj[y], tuple):
                    adj[y] = list(adj[y])
                adj[y].append((i, z))
                if deg[y] == 2 and caps[y] == 1:
                    heapq.heappush(series, y)
            if deg[a] <= caps[a] and deg[b] <= caps[b]:  # (a, b) is free
                heapq.heappush(work, a)
    return list(filter(None, ends)), caps, actions, list(compress(origin, ends))


def _unfold(g: Graph, actions, colors: list[int | None], total: int) -> int:
    """Replay fold actions in reverse, giving each action's color to every
    original edge it names.

    Caps only fall while folding, so every "reuse" fold at v comes after the
    last fold that found v with capacity 2 or more; a free-edge deletion
    finds both its ends so. At each "reuse" replay, v's colored edges are
    those of a graph where v has capacity 1, so they share one color that
    later replays never change: it is looked up once per vertex. The
    original edges a contracted edge stands for all take its color, so v
    sees one color per edge of the folded graph, and an inner vertex of a
    contracted edge, of capacity 1, sees that edge's one color.
    """
    shared: dict[int, int] = {}
    for kind, ids, v in reversed(actions):
        if kind == "fresh":
            color = total
            total += 1
        elif (color := shared.get(v)) is None:
            color = shared[v] = min(
                colors[e] for e, _ in g.adj[v] if colors[e] is not None
            )
        for eid in ids:
            colors[eid] = color
    return total


def _components(core: list[tuple[int, int]], caps):
    """Per component of the core edge list ``core``, by least vertex: its
    vertices ascending, the indices in ``core`` of its edges in core
    order, those edges over local ids, which are positions in the vertex
    list, and the local caps.

    Only the vertices the edges touch are visited, so an isolated vertex
    costs nothing and an empty core yields nothing at once.
    """
    if not core:
        return
    nbrs: dict[int, list[int]] = {}
    for u, v in core:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    comp_of: dict[int, int] = {}
    comps: list[list[int]] = []
    for start in sorted(nbrs):
        if start in comp_of:
            continue
        c = comp_of[start] = len(comps)
        comp, stack = [], [start]
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in nbrs[x]:
                if y not in comp_of:
                    comp_of[y] = c
                    stack.append(y)
        comp.sort()
        comps.append(comp)
    local = {v: i for comp in comps for i, v in enumerate(comp)}
    edge_ids: list[list[int]] = [[] for _ in comps]
    for eid, (u, _) in enumerate(core):
        edge_ids[comp_of[u]].append(eid)
    for comp, ids in zip(comps, edge_ids):
        local_edges = [(local[core[e][0]], local[core[e][1]]) for e in ids]
        yield comp, ids, local_edges, [caps[v] for v in comp]


def _search(n: int, edges, caps, floor: int | None = None, left: int = -1):
    """Best class count and an assignment per edge id for one component.

    A generator that returns (best, assignment, budget left). With no
    ``floor`` it searches for the optimum from 0. With a floor it takes
    the floor as the best count and returns at the first assignment that
    beats it, or with assignment None when none does. Each pass of the
    loop is one node: once ``left`` nodes have run it pauses with a bare
    ``yield``, and the value sent back is the next budget. A negative
    ``left`` never runs out.
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
    rooms = [0] * m  # room at entry, per position
    rest = [0] * m  # old classes still to try per position
    classes = pos = 0
    best = 0 if floor is None else floor
    best_assign: list[int] | None = None
    while True:
        left -= 1
        if not left:
            left = yield
        fresh = entered = False
        if pos == m:
            if classes > best:
                best, best_assign = classes, assign[:]
                if floor is not None:
                    return best, best_assign, left
        # a position reached through the child-bound check already has
        # classes + m - pos > best, and at pos 0 a floor of m or more lets
        # that check pass no class, so the entry test keeps only its room half
        elif not dead and classes + (room - owed.bit_count()) // 2 > best:
            u, v = edges[pos]
            ru, rv = size[u] < caps[u], size[v] < caps[v]
            every = (1 << classes) - 1
            rest[pos] = (every if ru else pal[u]) & (every if rv else pal[v])
            fresh = ru and rv
            entered = True
        a = -1
        while a < 0:
            if not entered:  # back up one position
                if pos == 0:
                    return best, best_assign, left
                pos -= 1
                u, v = edges[pos]
                bit, flags = 1 << assign[pos], gained[pos]
                if flags & 1:
                    pal[u] ^= bit
                    size[u] -= 1
                if flags & 2:
                    pal[v] ^= bit
                    size[v] -= 1
                if flags & 4:
                    classes -= 1
                owed, room, dead = owes[pos], rooms[pos], False
            entered = False
            old = rest[pos]
            t = best - classes  # what the child must beat past its classes
            if not (fresh or old) or m - pos - 1 < t:
                continue
            # s: the child's room minus its owed count, less 2t, when no
            # endpoint gains; du, dv: what a gain at u or at v takes off it
            s = room - owed.bit_count() - 2 * t
            du = dv = 1
            if last[u] == pos:
                s -= caps[u] - size[u]
                du = 0
            if last[v] == pos:
                s -= caps[v] - size[v]
                dv = 0
            du -= owed >> u & 1
            dv -= owed >> v & 1
            if fresh and s >= du + dv:
                a = classes
                if last[u] == pos == last[v]:
                    rest[pos] = 0
            elif old and m - pos - 1 > t:
                s -= 2
                pu, pv = pal[u], pal[v]
                if s < 0:
                    old &= ~(pu & pv)
                if s < du:
                    old &= pu | ~pv
                if s < dv:
                    old &= pv | ~pu
                if s < du + dv:
                    old &= pu | pv
                if old:
                    a = (old & -old).bit_length() - 1
                    rest[pos] = 0 if last[u] == pos == last[v] else old & (old - 1)
            fresh = False
        bit, flags = 1 << a, 0
        owes[pos], rooms[pos] = owed, room
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
        if last[u] == pos:
            room -= caps[u] - size[u]
        if last[v] == pos:
            room -= caps[v] - size[v]
        if a == classes:
            classes += 1
            flags |= 4
        assign[pos], gained[pos] = a, flags
        pos += 1
