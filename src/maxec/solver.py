"""Fixed-parameter search for a 2-valid edge coloring with exactly k colors.

The route is preprocess, twin trim, race, lift. Matching preprocessing
settles easy instances. Otherwise the standard kernel's twin rule
(``kernels._twin_deletions``) cuts each class of twins outside the matched
cover to max(2, |T|) members, keeping isolated vertices, the rest is
decided, and ``lift_coloring`` copies the deleted twins' colors back; the
trim keeps the greedy matching, so it fires once.

Two exact engines decide the trimmed graph, because neither beats the
other on every graph: the oracle's decider (``oracle.decide``) and the
palette search below. ``_race`` runs them as an algorithm portfolio
(Gomes and Selman 2001). Both engines follow one pause protocol: a
generator that pauses with a bare ``yield`` once its node budget is
spent, takes its next budget from ``send``, and returns its answer. The
two alternate on slices of ``_FIRST_SLICE`` nodes and then twice the
previous slice each time, the oracle first, and the first to finish
answers. A node is one search position of the oracle and one call of the
enumeration's ``rec``; the palette search builds its tables inside its
first slice, so a question that the oracle settles first never pays for
them. Slices count nodes, so the engine that answers depends only on
(g, k). A NO from either engine is exact; the oracle's YES may show
more than k colors and is merged down to k (``compress_colors``), and
every YES is verified.

The palette search runs over a minimum vertex cover S, found by
``_min_cover`` with the 2r matched endpoints as its first incumbent, so
|S| <= 2r <= 2k - 4. No step needs S to come from a matching: palettes
sit on cover vertices, and every other vertex has all its neighbors in S.
The search guesses a palette assignment tau giving each cover vertex its
final color set (size 1 or 2), placing the cover vertices breadth-first
(``_cover_order``) so that each neighborhood is complete early and the
closing rule below fires soon.
For a fixed tau, a witness is one allowed color per cover edge (a color of
both end palettes) and one candidate color set per cut vertex that
together show all k colors. ``_settle`` finds one or proves there is none:
colors every choice shows come off first, flexible cut vertices are
settled by forcing and bounded branching, and a final bipartite matching
between the leftover colors and the other providers (cover edges and
shared-color cut vertices) decides the rest. ``_saturate`` runs it on
bitmasks in a fixed order: leftover colors ascending, providers
ascending, cover edges before shared-color vertices. The colors the
cover edges use come out of that matching, so they are never guessed.

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
  matched cover holds no isolated vertex;
* a color that first appears at cover position p lies on an edge at p,
  and not on an edge to an earlier cover position, whose palette would
  already hold it. So p introduces at most min(2, its neighbors that are
  cut vertices or later cover positions) new colors;
* a position p with an earlier cover neighbor introduces at most one new
  color: its palette meets that neighbor's palette, which holds only
  colors introduced before p, so at most one of its (at most two) colors
  is new. With the bullet above, p introduces at most ``cap[p]`` =
  min(1 if it has an earlier cover neighbor else 2, its neighbors that are
  cut vertices or later cover positions) new colors, and the enumeration
  gives p no more room than that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .graphs import EdgeColoring, Graph, compress_colors, is_two_factor, verify_coloring
from .kernels import _compact, _twin_deletions, lift_coloring
from .matching import Continue, ForcedNo, ForcedYes, matching_preprocess
from .oracle import decide

ACROSS_BRANCH_LIMIT = 4
# nodes in the first slice of a race (``_race``)
_FIRST_SLICE = 1 << 10


@dataclass
class SolveStats:
    """Search counters, mainly to audit the branching discipline.

    The counters count the palette search's work, which in
    ``solve_exact`` stops when the oracle answers first.

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
    """``engine`` is the exact engine that answered, "oracle" or
    "palettes", or None when counting or preprocessing settled the
    question."""

    yes: bool
    witness: EdgeColoring | None
    stats: SolveStats
    engine: str | None = None


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
        "ready_at", "closes_at", "cap", "after", "cands",
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
        # a neighbor outside earlier[i] is a cut vertex or a later position,
        # and an earlier neighbor's palette holds only colors already in
        self.cap = [
            min(1 if self.earlier[i] else 2, g.degree(v) - len(self.earlier[i]))
            for i, v in enumerate(order)
        ]
        self.after = [0] * len(order)
        for i in range(len(order) - 1, 0, -1):
            self.after[i - 1] = self.after[i] + self.cap[i]
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
    open and ``room`` = min(k - t, cap[p]) the number of new colors the
    position may introduce (``_Tables.cap``).
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


def _enum_tau_masks(tables: _Tables, k: int, settle, left: int = -1):
    """Hand ``settle`` the palette assignments on the cover, one per
    color-relabeling orbit, as tuples of color masks parallel to
    ``tables.order``, and return the first result that is not None, or
    None once they run out.

    Canonical form: scanning cover vertices in the given order, a color
    index may appear only after all smaller indices have appeared, and when
    two colors are introduced together the first later set containing
    exactly one of them must contain the smaller. Assignments are filtered
    to those whose sets jointly cover all k colors and intersect on every
    cover edge. Position p introduces at most ``tables.cap[p]`` new colors,
    and a prefix is dropped as soon as the later positions, together
    introducing at most ``tables.after[p]``, can no longer bring in all k,
    or as soon as one of these fails:

    * a cut vertex whose neighbors all lie in the prefix has a candidate
      color set;
    * a cover vertex that has closed (``tables.closes_at``) can show its
      whole palette: every color of it is offered by some neighbor, a
      cover neighbor offering its palette and a cut neighbor the union of
      its candidates, and a two-color palette has two distinct neighbors
      offering something of it (Hall's condition for two colors, given
      that both colors are offered).

    The cap and both conditions hold for the exact palettes of every
    witness, and none depends on how colors are labeled, so every witness
    keeps a palette handed to ``settle`` in its orbit.

    A generator that pauses like ``oracle._search``: each call of ``rec``
    is one node, and once ``left`` nodes have run it pauses with a bare
    ``yield`` and takes its next budget from ``send``. A negative ``left``
    never runs out.
    """
    size = len(tables.order)
    earlier = tables.earlier
    ready_at = tables.ready_at
    closes_at = tables.closes_at
    cap = tables.cap
    after = tables.after
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
        nonlocal left
        left -= 1
        if not left:
            left = yield
        if p == size:
            return settle(tuple(sets)) if t == k else None
        opts = _options(t, pending, min(k - t, cap[p]))
        before = [sets[q] for q in earlier[p]]
        ready = ready_at[p]
        closing = closes_at[p]
        need = k - after[p]
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
                        found = yield from rec(p + 1, t2, pending2)
                        if found is not None:
                            return found
        return None

    return (yield from rec(0, 0, ()))


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


def _saturate(r: int, offers: list[int]) -> dict[int, int] | None:
    """Match each color c of r to its own provider p, one with c in
    ``offers[p]``: returns {provider: color}, or None when no such
    matching exists.

    Augmenting paths (Kuhn 1955): the colors of r in ascending order, each
    searching depth first for a free provider, providers in ascending
    order. Every provider tried joins ``seen``, so a frame's next provider
    is the lowest it offers outside ``seen``; frames sit on an explicit
    stack, so a long path needs no recursion. A color that finds no path
    never gets matched later, so the search stops there.
    """
    takers = dict.fromkeys(_bits(r), 0)
    for p, offer in enumerate(offers):
        for c in _bits(offer & r):
            takers[c] |= 1 << p
    owner = {}
    for root in takers:
        seen = 0
        # path[i] is a color of the alternating path, via[i] its provider
        path = [root]
        via = []
        while True:
            free = takers[path[-1]] & ~seen
            if not free:
                path.pop()
                if not path:
                    return None
                via.pop()
                continue
            low = free & -free
            seen |= low
            p = low.bit_length() - 1
            via.append(p)
            if p in owner:
                path.append(owner[p])
                continue
            for c, q in zip(path, via):
                owner[q] = c
            break
    return owner


def _settle(g: Graph, tables: _Tables, tau: tuple[int, ...], k: int,
            stats: SolveStats) -> list[int] | None:
    """Decide one palette: an allowed color per cover edge and a candidate
    per cut vertex that together show all k colors.

    ``tau`` holds the palette masks parallel to ``tables.order``, as
    ``_enum_tau_masks`` hands them out, so every cut vertex has a
    candidate. Returns the per-edge colors of a witness, or None.

    The leftover r starts as the colors not shown by forced or shared-color
    vertices. Flexible vertices with a single best candidate meeting r
    (``_best_hits``) are forced; with several, the search branches over
    them (each branch shrinks r). Once no flexible vertex can meet r, each
    other provider shows at most one color of r: a cover edge exactly one
    of its allowed colors, a shared-color vertex at most one besides its
    shared one. So one bipartite matching that saturates r decides the
    rest, and a cover edge left unmatched takes its lowest allowed color.
    ``_saturate`` finds it, numbering cover edge i as provider i and the
    j-th shared-color vertex as provider ``len(allowed) + j``, and takes
    colors and providers in ascending order.
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

    # no offer changes inside rec
    offers = list(allowed)
    for u in shared:
        offer = 0
        for y in lists[u]:
            offer |= y
        offers.append(offer)

    def rec(r: int, commits: dict[int, int]):
        # every caller passes a fresh dict, so rec may fill it in place
        # force single hits until a sweep forces nothing; that sweep's
        # first vertex with several hits is the one to branch on
        while True:
            forced = False
            branch = None
            for u in flexible:
                if u in commits:
                    continue
                hits = _best_hits(lists[u], r)
                if len(hits) == 1:
                    commits[u] = hits[0]
                    r &= ~hits[0]
                    forced = True
                elif len(hits) >= 2 and branch is None:
                    branch = u, hits
            if not forced:
                break
        if branch is not None:
            u, hits = branch
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
        pairing = _saturate(r, offers)
        if pairing is None:
            return None
        for p, c in pairing.items():
            if p < len(allowed):
                colors[p] = c
            else:
                u = shared[p - len(allowed)]
                commits[u] = next(y for y in lists[u] if y >> c & 1)
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
        # every neighbor witnesses a or b, and distinct neighbors witness
        # each. Every edge takes its lowest allowed color, a exactly at the
        # a-witnesses (a < b), except one b-witness vb, which takes b; an
        # a-witness other than vb is then left unless vb = bwits[0] is the
        # only one, and bwits[1] exists then
        vb = bwits[1] if awits == bwits[:1] else bwits[0]
        for eid, v in g.adj[u]:
            colors[eid] = b if v == vb else _low_bit(y & pal[v])
    return colors


def solve_exact(g: Graph, k: int) -> SolveResult:
    """Decide whether some 2-valid coloring of g reaches k colors.

    Yes comes with a verified witness using exactly k colors (k >= 1; the
    k = 0 question is vacuous and answered with a plain valid coloring).
    After a twin trim, the counters are those of the trimmed graph. A
    question that counting or the matching preprocessing leaves open goes
    to a race (``_race``) of the oracle's decider and the palette search
    on the trimmed graph; ``engine`` names the one that answered.
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
    # an isolated vertex is never a cut vertex, so deleting it saves the
    # search nothing: the trim keeps them
    if actions := [a for a in _twin_deletions(g, pre.cover) if a[2] is not None]:
        kern = _compact(g, k, actions)
        res = solve_exact(kern.verdict.graph, k)
        if not res.yes:
            return res
        # lift_coloring checks validity; the color count is checked here
        lifted = lift_coloring(g, kern.verdict.graph, kern.lifting, res.witness)
        if lifted.k != k:
            raise AssertionError("lifted witness failed verification")
        return SolveResult(True, lifted, res.stats, res.engine)
    engine, colors = _race({"oracle": decide(g, k),
                            "palettes": _palettes(g, pre.cover, k, stats)})
    if colors is None:
        return SolveResult(False, None, stats, engine)
    # the oracle's coloring may show more than k colors
    witness = compress_colors(EdgeColoring(colors), k)
    return SolveResult(True, _checked(g, witness, k), stats, engine)


def _palettes(g: Graph, cover: tuple[int, ...], k: int, stats: SolveStats):
    """The palette search as an engine of ``_race``. It builds its tables
    in its first slice, so a race that the oracle wins first never pays
    for them, then runs the budgeted enumeration, which pauses for it and
    settles each palette. Returns the colors per edge of a witness, or
    None."""
    left = yield
    tables = _Tables(g, _cover_order(g, _min_cover(g, cover)))

    def settle(tau: tuple[int, ...]) -> list[int] | None:
        stats.palettes += 1
        return _settle(g, tables, tau, k, stats)

    return (yield from _enum_tau_masks(tables, k, settle, left))


def _race(engines: dict) -> tuple:
    """Run the engines in turn, in the dict's order, on node-budgeted
    slices, and return (name, answer) of the first to finish.

    The first slice holds ``_FIRST_SLICE`` nodes and every later slice
    twice as many as the one before (a doubling schedule, after Luby,
    Sinclair and Zuckerman 1993). Both engines follow one pause protocol:
    an engine is a generator that, primed with ``next``, takes a node
    budget through ``send``, pauses with a bare ``yield`` once that budget
    is spent, and returns its answer when it finishes. Slices count nodes,
    not seconds, so the engine that answers, and its answer, depend only
    on the input.
    """
    for engine in engines.values():
        next(engine)
    size = _FIRST_SLICE
    while True:
        for name, engine in engines.items():
            try:
                engine.send(size)
            except StopIteration as stop:
                return name, stop.value
            size *= 2


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


def _cover_order(g: Graph, cover: tuple[int, ...]) -> tuple[int, ...]:
    """The cover vertices in the order the enumeration places them.

    Breadth-first over the cover, where two cover vertices are adjacent
    when they share an edge or a cut neighbor, so that each vertex's
    neighborhood is placed soon after it and the closing rule fires early.
    Each part starts at its vertex of largest degree, and a vertex's
    unvisited neighbors join the queue by degree, largest first; ties go
    to the smaller id.
    """
    inside = set(cover)
    near = {v: set() for v in cover}
    for v in cover:
        for _, w in g.adj[v]:
            if w in inside:
                near[v].add(w)
            else:
                near[v].update(x for _, x in g.adj[w] if x != v)

    def rank(v: int) -> tuple[int, int]:
        return -g.degree(v), v

    order = []
    seen = set()
    for root in sorted(cover, key=rank):
        if root in seen:
            continue
        seen.add(root)
        order.append(root)
        # order doubles as the queue: entries from here on are unexpanded
        head = len(order) - 1
        while head < len(order):
            fresh = sorted(near[order[head]] - seen, key=rank)
            seen.update(fresh)
            order.extend(fresh)
            head += 1
    return tuple(order)


def _checked(g: Graph, witness: EdgeColoring, k: int) -> EdgeColoring:
    res = verify_coloring(g, witness)
    if not res.valid or res.colors_used != k:
        raise AssertionError("witness failed verification")
    return witness
