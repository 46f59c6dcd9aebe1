"""Fixed-parameter search for a 2-valid edge coloring with exactly k colors.

The route is preprocess, twin trim, search, lift. Matching preprocessing
settles easy instances. Otherwise the standard kernel's twin rule
(``kernels._twin_deletions``) deletes surplus twins outside the matched
cover, the rest is decided, and ``lift_coloring`` copies their colors back;
the trim keeps the greedy matching, so it fires once. The search runs
over a minimum vertex cover S, found by ``_min_cover`` with the 2r matched
endpoints as its first incumbent, so |S| <= 2r <= 2k - 4. No step needs S
to come from a matching: palettes sit on cover vertices, and every other
vertex has all its neighbors in S. The search guesses a palette
assignment tau giving each cover vertex its final color set (size 1 or 2).
For a fixed tau, a witness is one allowed color per cover edge (a color of
both end palettes) and one candidate color set per cut vertex that
together show all k colors. ``_settle`` finds one or proves there is none:
colors every choice shows come off first, flexible cut vertices are
settled by forcing and bounded branching, and a final bipartite matching
between the leftover colors and the other providers (cover edges and
shared-color cut vertices) decides the rest. The colors the cover edges
use come out of that matching, so they are never guessed.

Color sets are bitmasks throughout, bit c standing for color c.

Each solve does a piece of work once. What depends only on the graph and
the cover (cover edges, cut vertices, each cut vertex's neighbors, the
order constraints of the enumeration) is built once per solve in
``_Tables``; ``_settle`` then computes only what a palette changes: the
allowed colors per cover edge and the candidate lists. The choices at an
enumeration node depend only on (introduced colors, pending pairs, colors
still allowed in), so ``_options`` builds each list once per process.
Candidate lists come from one routine, ``_candidates``, whose results the
enumeration and ``_settle`` share through the memo ``_Tables.cands``,
which lives as long as the solve.

Key facts the implementation leans on (each argued where used):

* a cover edge shows exactly one color, and a cut vertex whose candidate
  sets share a color shows at most one color besides that one, so once no
  flexible cut vertex can meet the leftover colors, they all show iff a
  matching saturates them; an unmatched cover edge may take any allowed
  color;
* every color outside the leftover is already shown, so a candidate whose
  part of the leftover lies inside another candidate's never does better;
  forcing and branching keep only the candidates whose part is maximal,
  the smallest mask for each part;
* candidate families without a shared color have at most 4 members, so
  a branch is at most ``ACROSS_BRANCH_LIMIT`` = 4 wide. Every candidate
  meets every neighbor palette. A palette {a} puts a in every candidate,
  a shared color. Otherwise every candidate meets the first palette
  {a, b}. If every palette is {a, b}, the candidates lie among {a}, {b}
  and {a, b}. A palette {c, d} disjoint from it leaves exactly the 4
  cross pairs. Otherwise some palette {a, c} shares one color with it,
  and a candidate without a holds b and c. Since the family shares no
  color, {b, c} is then a candidate, so every palette meets {b, c}. If
  every palette holds a, each is {a, b} or {a, c}, and the candidates lie
  among {a}, {a, b}, {a, c} and {b, c}. If some palette Q lacks a, every
  candidate holding a is a plus a color of Q, so there are at most 3;
* candidate sets are kept only when they can be realized exactly (every
  listed color actually appears at the vertex), which is what makes the
  matching stage's accounting sound;
* a color can only appear on a cover edge whose two palettes hold it or
  in a candidate set of a cut vertex, so a palette whose cover edges and
  candidates miss a color has no witness; nothing offers that color, so
  it stays in ``_settle``'s leftover and the final matching rejects the
  palette;
* every enumerated palette gives every cut vertex a candidate: a prefix is
  dropped as soon as a cut vertex whose neighbors all lie in it has none,
  and every cut vertex is ready by the last position;
* in a witness, the palette of a cover vertex is exactly the set of colors
  on its edges, and a color on edge (v, u) lies in the palette of u, or in
  u's candidate when u is a cut vertex. So the enumeration drops a prefix
  once a cover vertex whose neighborhood, and the neighbors of its cut
  neighbors, are placed cannot put each of its colors on a distinct edge
  (the closing rule). Every cover vertex has an edge, since a minimum or
  matched cover holds no isolated vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .graphs import EdgeColoring, Graph, is_two_factor, verify_coloring
from .kernels import _compact, _twin_deletions, lift_coloring
from .matching import Continue, ForcedNo, ForcedYes, matching_preprocess
from .matching import BipartiteGraph, max_bipartite_matching

ACROSS_BRANCH_LIMIT = 4


@dataclass
class SolveStats:
    """Search counters, mainly to audit the branching discipline.

    ``palettes``: palette assignments enumerated, after the enumeration's
    closing rule has dropped those in which some cover vertex cannot show
    its whole palette. ``x_guesses``: final matchings run, one per
    leaf of the per-palette search; each fixes the colors of the cover
    edges in one step. ``top_branch_events``: always 0, since the cover
    edges join the matching instead of branching; the field stays so that
    records keep their shape. ``across_branch_events``:
    branches over flexible cut vertices. ``across_branch_max_width``: the
    widest of those, at most ``ACROSS_BRANCH_LIMIT``.
    """

    palettes: int = 0
    x_guesses: int = 0
    top_branch_events: int = 0
    across_branch_events: int = 0
    across_branch_max_width: int = 0


@dataclass(frozen=True)
class SolveResult:
    yes: bool
    witness: EdgeColoring | None
    stats: SolveStats


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _candidates(masks: tuple[int, ...]) -> tuple[int, ...]:
    """Exactly-realizable color sets for the edges at a cut vertex whose
    neighbor palettes are ``masks``, in ascending order.

    A singleton works when the color sits in every neighbor palette. A
    pair works when every neighbor palette meets it, both colors occur in
    some neighbor palette, and the vertex has at least two edges; then both
    colors can really be shown (every neighbor witnesses one of them, so
    two distinct witness edges exist)."""
    land = masks[0]
    lor = 0
    for m in masks:
        land &= m
        lor |= m
    cands = [1 << a for a in _bits(land)]
    if len(masks) >= 2:
        cols = list(_bits(lor))
        for i, a in enumerate(cols):
            for b in cols[i + 1:]:
                pair = 1 << a | 1 << b
                for m in masks:
                    if not m & pair:
                        break
                else:
                    cands.append(pair)
    cands.sort()
    return tuple(cands)


class _CandidateCache(dict):
    """``_candidates`` results keyed by the tuple of neighbor masks, each
    computed on first use."""

    def __missing__(self, masks: tuple[int, ...]) -> tuple[int, ...]:
        cands = self[masks] = _candidates(masks)
        return cands


class _Tables:
    """Structure of (g, cover) that no palette changes, built once per solve.

    Cover vertices are named by their position in ``order``: ``s_edges``
    holds the ids of the cover edges and ``s_pos`` their end positions,
    ``cut_nbrs`` the neighbor positions of each vertex in ``cut_vertices``,
    ``earlier[p]`` the neighbors of position p that come before it, and
    ``ready_at[p]`` the ``cut_nbrs`` entries whose last neighbor is at p.
    ``closes_at[p]`` lists the cover positions that close at p, each as
    (position, its cover neighbors, the ``cut_nbrs`` entries of its cut
    neighbors): p is the last of the position itself, its cover neighbors
    and every neighbor of its cut neighbors. ``cands`` is the solve's
    candidate memo, shared by the enumeration and ``_settle``; it lives and
    dies with the solve because its keys, tuples of neighbor palettes, grow
    with the instance: 2,126 distinct keys over the 91,441 questions of
    ``tests/differential.py``, 9,136 over just 32 questions on graphs with
    6-9-vertex minimum covers."""

    __slots__ = (
        "order", "s_edges", "s_pos", "cut_vertices", "cut_nbrs", "earlier",
        "ready_at", "closes_at", "cands",
    )

    def __init__(self, g: Graph, order: tuple[int, ...]):
        index = {v: i for i, v in enumerate(order)}
        self.order = order
        self.cands = _CandidateCache()
        self.s_edges = []
        self.s_pos = []
        for eid, (u, v) in enumerate(g.edges):
            if u in index and v in index:
                self.s_edges.append(eid)
                self.s_pos.append((index[u], index[v]))
        self.earlier = [
            tuple(index[w] for _, w in g.adj[v] if w in index and index[w] < i)
            for i, v in enumerate(order)
        ]
        self.cut_vertices = [
            u for u in range(g.n) if u not in index and g.degree(u) > 0
        ]
        self.cut_nbrs = [
            tuple(index[w] for _, w in g.adj[u]) for u in self.cut_vertices
        ]
        self.ready_at = [[] for _ in order]
        for nbrs in self.cut_nbrs:
            self.ready_at[max(nbrs)].append(nbrs)
        cut_index = {u: i for i, u in enumerate(self.cut_vertices)}
        self.closes_at = [[] for _ in order]
        for i, v in enumerate(order):
            mates = tuple(index[w] for _, w in g.adj[v] if w in index)
            cuts = tuple(
                self.cut_nbrs[cut_index[w]] for _, w in g.adj[v]
                if w not in index
            )
            last = max((i, *mates, *(q for nbrs in cuts for q in nbrs)))
            self.closes_at[last].append((i, mates, cuts))


@cache
def _options(t: int, pending: tuple, room: int) -> tuple:
    """The sets a cover position may take after colors 0..t-1 appeared,
    with ``pending`` the pairs introduced together whose order is still
    open and ``room`` = min(k - t, 2) the number of new colors allowed.
    Each item is (mask, introduced_after, pending_after), in a fixed
    order. Pure, so one table serves every solve."""
    out = []

    def admit(y: int, t2: int, adds_pair: bool):
        kept = []
        for pair in pending:
            i, j = pair
            has_i = y >> i & 1
            has_j = y >> j & 1
            if has_i != has_j:
                if has_j:
                    return
            else:
                kept.append(pair)
        if adds_pair:
            kept.append((t, t + 1))
        out.append((y, t2, tuple(kept)))

    for a in range(t):
        admit(1 << a, t, False)
    for a in range(t):
        for b in range(a + 1, t):
            admit(1 << a | 1 << b, t, False)
    if room >= 1:
        admit(1 << t, t + 1, False)
        for a in range(t):
            admit(1 << a | 1 << t, t + 1, False)
    if room >= 2:
        admit(1 << t | 1 << (t + 1), t + 2, True)
    return tuple(out)


def _enum_tau_masks(tables: _Tables, k: int):
    """All palette assignments on the cover, one per color-relabeling orbit,
    as tuples of color masks parallel to ``tables.order``.

    Canonical form: scanning cover vertices in the given order, a color
    index may appear only after all smaller indices have appeared, and when
    two colors are introduced together the first later set containing
    exactly one of them must contain the smaller. Assignments are filtered
    to those whose sets jointly cover all k colors and intersect on every
    cover edge. A prefix is dropped as soon as the later positions, each
    introducing at most two colors, can no longer bring in all k, or as
    soon as one of these fails:

    * a cut vertex whose neighbors all lie in the prefix has a candidate
      color set;
    * a cover vertex that has closed (``tables.closes_at``) can show its
      whole palette: every color of it is offered by some neighbor, a
      cover neighbor offering its palette and a cut neighbor the union of
      its candidates, and a two-color palette has two distinct neighbors
      offering something of it (Hall's condition for two colors, given
      that both colors are offered).

    Both hold for the exact palettes of every witness, and neither depends
    on how colors are labeled, so every witness keeps a yielded palette in
    its orbit.
    """
    size = len(tables.order)
    earlier = tables.earlier
    ready_at = tables.ready_at
    closes_at = tables.closes_at
    cands = tables.cands
    sets = [0] * size

    def shows(v: int, mates, cuts) -> bool:
        y = sets[v]
        seen = hits = 0
        for w in mates:
            o = sets[w] & y
            if o:
                seen |= o
                hits += 1
        for nbrs in cuts:
            o = 0
            for c in cands[tuple([sets[i] for i in nbrs])]:
                o |= c
            o &= y
            if o:
                seen |= o
                hits += 1
        return seen == y and hits >= y.bit_count()

    def rec(p: int, t: int, pending):
        if p == size:
            if t == k:
                yield tuple(sets)
            return
        opts = _options(t, pending, min(k - t, 2))
        before = [sets[q] for q in earlier[p]]
        ready = ready_at[p]
        closing = closes_at[p]
        # each later position introduces at most two colors
        need = k - 2 * (size - p - 1)
        for y, t2, pending2 in opts:
            if t2 < need:
                continue
            for m in before:
                if not m & y:
                    break
            else:
                sets[p] = y
                for nbrs in ready:
                    if not cands[tuple([sets[i] for i in nbrs])]:
                        break
                else:
                    for v, mates, cuts in closing:
                        if not shows(v, mates, cuts):
                            break
                    else:
                        yield from rec(p + 1, t2, pending2)

    yield from rec(0, 0, ())


def _best_hits(cands: tuple[int, ...], r: int) -> list[int]:
    """The candidates meeting r whose part of r no other candidate's part
    strictly contains, the smallest mask for each part, in ascending order.
    Every color outside r is already shown, so the others never do better."""
    hits = [y for y in cands if y & r]
    if len(hits) < 2:
        return hits
    best = {}
    for y in hits:
        best.setdefault(y & r, y)
    return [
        y for part, y in best.items()
        if not any(p != part and p & part == part for p in best)
    ]


def _settle(g: Graph, tables: _Tables, tau: tuple[int, ...], k: int,
            stats: SolveStats) -> list[int] | None:
    """Decide one palette: an allowed color per cover edge and a candidate
    per cut vertex that together show all k colors.

    ``tau`` holds the palette masks parallel to ``tables.order``, as yielded
    by ``_enum_tau_masks``, so every cut vertex has a candidate. Returns the
    per-edge colors of a witness, or None.

    The leftover r starts as the colors not shown by forced or shared-color
    vertices. Flexible vertices with a single best candidate meeting r
    (``_best_hits``) are forced; with several, the search branches over
    them (each branch shrinks r). Once no flexible vertex can meet r, each
    other provider shows at most one color of r: a cover edge exactly one
    of its allowed colors, a shared-color vertex at most one besides its
    shared one. So one bipartite matching that saturates r decides the
    rest, and a cover edge left unmatched takes its lowest allowed color.
    """
    allowed = [tau[i] & tau[j] for i, j in tables.s_pos]
    lists = {}
    shared = []
    flexible = []
    shown = 0
    for u, nbrs in zip(tables.cut_vertices, tables.cut_nbrs):
        cands = lists[u] = tables.cands[tuple([tau[i] for i in nbrs])]
        if len(cands) == 1:
            shown |= cands[0]
            continue
        common = cands[0]
        for y in cands[1:]:
            common &= y
        if common:
            shown |= common
            shared.append(u)
        else:
            flexible.append(u)

    def rec(r: int, commits: dict[int, int]):
        commits = dict(commits)
        while True:
            changed = False
            for u in flexible:
                if u in commits:
                    continue
                hits = _best_hits(lists[u], r)
                if len(hits) == 1:
                    commits[u] = hits[0]
                    r &= ~hits[0]
                    changed = True
            if not changed:
                break
        for u in flexible:
            if u in commits:
                continue
            hits = _best_hits(lists[u], r)
            if len(hits) >= 2:
                if len(hits) > ACROSS_BRANCH_LIMIT:
                    raise AssertionError(
                        f"crossing branch width {len(hits)} exceeds "
                        f"{ACROSS_BRANCH_LIMIT}"
                    )
                stats.across_branch_events += 1
                stats.across_branch_max_width = max(
                    stats.across_branch_max_width, len(hits)
                )
                for y in hits:
                    res = rec(r & ~y, {**commits, u: y})
                    if res is not None:
                        return res
                return None
        stats.x_guesses += 1
        colors = [_low_bit(a) for a in allowed]
        if not r:
            return colors, commits
        # cover edge i is provider ~i, a shared-color vertex is itself
        offers = [(~i, a) for i, a in enumerate(allowed)]
        for u in shared:
            offer = 0
            for y in lists[u]:
                offer |= y
            offers.append((u, offer))
        left = tuple(_bits(r))
        edges = tuple(
            (c, who) for c in left for who, offer in offers if offer >> c & 1
        )
        pairing = max_bipartite_matching(BipartiteGraph(
            left=left, right=tuple(who for who, _ in offers), edges=edges,
        ))
        if len(pairing) < len(left):
            return None
        for c, who in pairing.items():
            if who < 0:
                colors[~who] = c
            else:
                commits[who] = next(y for y in lists[who] if y >> c & 1)
        return colors, commits

    found = rec((1 << k) - 1 & ~shown, {})
    if found is None:
        return None
    assigned, commits = found
    colors = [-1] * g.m
    for eid, c in zip(tables.s_edges, assigned):
        colors[eid] = c
    pal = dict(zip(tables.order, tau))
    for u in tables.cut_vertices:
        y = commits.get(u, lists[u][0])
        members = list(_bits(y))
        if len(members) == 1:
            for eid, _ in g.adj[u]:
                colors[eid] = members[0]
            continue
        a, b = members
        awits = [v for _, v in g.adj[u] if pal[v] >> a & 1]
        bwits = [v for _, v in g.adj[u] if pal[v] >> b & 1]
        # two distinct witness edges exist: every neighbor witnesses a or b
        if awits[0] != bwits[0]:
            va, vb = awits[0], bwits[0]
        elif len(awits) > 1:
            vb = bwits[0]
            va = next(w for w in awits if w != vb)
        else:
            va = awits[0]
            vb = next(w for w in bwits if w != va)
        for eid, v in g.adj[u]:
            if v == va:
                colors[eid] = a
            elif v == vb:
                colors[eid] = b
            else:
                colors[eid] = _low_bit(y & pal[v])
    return colors


def solve_exact(g: Graph, k: int) -> SolveResult:
    """Decide whether some 2-valid coloring of g reaches k colors.

    Yes comes with a verified witness using exactly k colors (k >= 1; the
    k = 0 question is vacuous and answered with a plain valid coloring).
    After a twin trim, the counters are those of the trimmed graph.
    """
    if k < 0:
        raise ValueError("color count must be nonnegative")
    stats = SolveStats()
    if k == 0:
        return SolveResult(True, EdgeColoring([0] * g.m), stats)
    if k > g.n:
        # a subgraph keeping one edge per color has max degree 2, so the
        # color count never exceeds the vertex count
        return SolveResult(False, None, stats)
    if k == g.n:
        # reaching n colors forces the one-edge-per-color subgraph to be
        # 2-regular and spanning, and any extra edge would give some vertex
        # a third color, so sigma = n exactly for the 2-regular graphs
        if is_two_factor(g):
            witness = EdgeColoring(range(g.m))
            return SolveResult(True, _checked(g, witness, k), stats)
        return SolveResult(False, None, stats)
    pre = matching_preprocess(g, k)
    if isinstance(pre, ForcedNo):
        return SolveResult(False, None, stats)
    if isinstance(pre, ForcedYes):
        return SolveResult(True, pre.witness, stats)
    assert isinstance(pre, Continue)
    if actions := _twin_deletions(g, pre.cover):
        kern = _compact(g, k, actions)
        res = solve_exact(kern.verdict.graph, k)
        if not res.yes:
            return res
        # lift_coloring checks validity; the color count is checked here
        lifted = lift_coloring(g, kern.verdict.graph, kern.lifting, res.witness)
        if lifted.k != k:
            raise AssertionError("lifted witness failed verification")
        return SolveResult(True, lifted, res.stats)
    tables = _Tables(g, _min_cover(g, pre.cover))
    for tau in _enum_tau_masks(tables, k):
        stats.palettes += 1
        colors = _settle(g, tables, tau, k, stats)
        if colors is not None:
            return SolveResult(True, _checked(g, EdgeColoring(colors), k), stats)
    return SolveResult(False, None, stats)


def _min_cover(g: Graph, cover: tuple[int, ...]) -> tuple[int, ...]:
    """A minimum vertex cover of g, ascending, no larger than ``cover``.

    Depth-first over bitmasks, with ``cover`` (any vertex cover) as the
    first incumbent. A node holds the chosen vertices and the residual
    ones, those not chosen that may still have an uncovered edge. It
    branches on the residual vertex of largest residual degree, the
    smallest id on ties: any cover holds either v or all of its neighbors.
    Each edge of a greedy matching on the residual edges needs its own
    vertex, so a node dies once the chosen count plus that matching
    reaches the incumbent. Only a strictly smaller cover replaces the
    incumbent, so the answer is the first minimum one in this fixed order.
    """
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = tuple(sorted(cover))
    stack = [(0, (1 << g.n) - 1)]
    while stack:
        chosen, alive = stack.pop()
        bound = chosen.bit_count()
        free = alive
        top = top_deg = 0
        for u in _bits(alive):
            nbrs = adj[u] & alive
            if not nbrs:
                alive ^= 1 << u
                continue
            if nbrs.bit_count() > top_deg:
                top, top_deg = u, nbrs.bit_count()
            mates = nbrs & free
            if free >> u & 1 and mates:
                free ^= 1 << u | mates & -mates
                bound += 1
        if bound >= len(best):
            continue
        if not top_deg:
            best = tuple(_bits(chosen))
            continue
        nbrs = adj[top] & alive
        stack.append((chosen | nbrs, alive & ~nbrs & ~(1 << top)))
        stack.append((chosen | 1 << top, alive & ~(1 << top)))
    return best


def _checked(g: Graph, witness: EdgeColoring, k: int) -> EdgeColoring:
    res = verify_coloring(g, witness)
    if not res.valid or res.colors_used != k:
        raise AssertionError("witness failed verification")
    return witness
