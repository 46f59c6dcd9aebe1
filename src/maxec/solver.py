"""Fixed-parameter search for a 2-valid edge coloring with exactly k colors.

Matching preprocessing settles easy instances. Otherwise the matched
endpoints form a vertex cover S, and the search guesses a palette
assignment tau giving each cover vertex its final color set (size 1 or 2),
then a subset X of colors to be used on the edges inside the cover. Cover
edges are colored by forced propagation plus two-way branching in which
every branch consumes a color from X; colors outside X must then appear on
the edges crossing the cut, which is decided through per-vertex candidate
lists, forcing, bounded branching, and a final bipartite matching between
leftover colors and flexible cut vertices.

Color sets are bitmasks throughout, bit c standing for color c.

Key facts the implementation leans on (each argued where used):

* tau pins every vertex palette, so two legal colors for a cover edge are
  exchangeable unless consuming X distinguishes them; forcing rules follow;
* a crossing vertex whose candidate sets share a color always shows that
  color, letting a matching finish the search; candidate families without
  a shared color have at most 4 members, so branching stays narrow;
* candidate sets are kept only when they can be realized exactly (every
  listed color actually appears at the vertex), which is what makes the
  matching stage's accounting sound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import EdgeColoring, Graph, is_two_factor, verify_coloring
from .matching import Continue, ForcedNo, ForcedYes, matching_preprocess
from .matching import BipartiteGraph, max_bipartite_matching

ACROSS_BRANCH_LIMIT = 10


@dataclass
class SolveStats:
    """Search counters, mainly to audit the branching discipline."""

    palettes: int = 0
    x_guesses: int = 0
    top_branch_events: int = 0
    top_branch_max_width: int = 0
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


def _enum_tau_masks(g: Graph, order: tuple[int, ...], k: int):
    """All palette assignments on the cover, one per color-relabeling orbit,
    as tuples of color masks parallel to ``order``.

    Canonical form: scanning cover vertices in the given order, a color
    index may appear only after all smaller indices have appeared, and when
    two colors are introduced together the first later set containing
    exactly one of them must contain the smaller. Assignments are filtered
    to those whose sets jointly cover all k colors and intersect on every
    cover edge, and a prefix is dropped as soon as some cut vertex whose
    neighbors all lie in it has no candidate color set.
    """
    if k < 1:
        return
    index = {v: i for i, v in enumerate(order)}
    earlier = []
    for i, v in enumerate(order):
        earlier.append(
            tuple(index[w] for _, w in g.adj[v] if w in index and index[w] < i)
        )
    # cut vertices whose whole neighborhood lies in the assigned prefix can
    # be checked for candidate existence early; group them by that prefix
    in_cover = set(order)
    ready_at = [[] for _ in range(len(order))]
    for u in range(g.n):
        if u in in_cover or g.degree(u) == 0:
            continue
        last = max(index[w] for _, w in g.adj[u])
        ready_at[last].append(u)
    sets = [0] * len(order)

    def vertex_has_candidate(u: int) -> bool:
        masks = [sets[index[w]] for _, w in g.adj[u]]
        land = masks[0]
        lor = 0
        for m in masks:
            land &= m
            lor |= m
        if land:
            return True
        if len(masks) < 2:
            return False
        cols = list(_bits(lor))
        for i, a in enumerate(cols):
            for b in cols[i + 1:]:
                pair = 1 << a | 1 << b
                if all(m & pair for m in masks):
                    return True
        return False

    def options(t: int, pending):
        # sets over colors 0..t-1 plus controlled introductions; each item
        # is (mask, introduced_after, pending_after) in a fixed order
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
        if t < k:
            admit(1 << t, t + 1, False)
            for a in range(t):
                admit(1 << a | 1 << t, t + 1, False)
        if t + 1 < k:
            admit(1 << t | 1 << (t + 1), t + 2, True)
        return out

    def rec(p: int, t: int, pending):
        if p == len(order):
            if t == k:
                yield tuple(sets)
            return
        if t + 2 * (len(order) - p) < k:
            return
        for y, t2, pending2 in options(t, pending):
            if any(sets[q] & y == 0 for q in earlier[p]):
                continue
            sets[p] = y
            if all(vertex_has_candidate(u) for u in ready_at[p]):
                yield from rec(p + 1, t2, pending2)
            sets[p] = 0

    yield from rec(0, 0, ())


class _Cover:
    """Static tables for one palette assignment: cover edges with their
    allowed colors, and candidate lists for every cut vertex."""

    __slots__ = (
        "k", "full", "tau", "s_edges", "allowed_full", "union_allowed",
        "cut_vertices", "lists", "singles", "gee", "bee", "shown",
        "coverage", "dead",
    )

    def __init__(self, g: Graph, cover, tau_masks: dict[int, int], k: int):
        self.k = k
        self.full = (1 << k) - 1
        self.tau = tau_masks
        in_cover = set(cover)
        self.s_edges = []
        self.allowed_full = []
        self.union_allowed = 0
        for eid, (u, v) in enumerate(g.edges):
            if u in in_cover and v in in_cover:
                a = tau_masks[u] & tau_masks[v]
                self.s_edges.append((eid, u, v))
                self.allowed_full.append(a)
                self.union_allowed |= a
        self.cut_vertices = [
            u for u in range(g.n)
            if u not in in_cover and g.degree(u) > 0
        ]
        self.lists = {}
        self.singles = {}
        self.gee = []
        self.bee = []
        self.shown = 0
        self.coverage = 0
        self.dead = False
        for u in self.cut_vertices:
            cands = self._candidates(g, u)
            if not cands:
                self.dead = True
                return
            self.lists[u] = cands
            if len(cands) == 1:
                self.singles[u] = cands[0]
                self.shown |= cands[0]
                continue
            common = cands[0]
            for y in cands[1:]:
                common &= y
            if common:
                self.shown |= common
                self.gee.append(u)
            else:
                self.bee.append(u)
            for y in cands:
                self.coverage |= y

    def _candidates(self, g: Graph, u: int) -> list[int]:
        """Exactly-realizable color sets for the edges at cut vertex u.

        A singleton works when the color sits in every neighbor palette. A
        pair works when every neighbor palette meets it, both colors occur
        in some neighbor palette, and u has at least two edges; then both
        colors can really be shown (every neighbor witnesses one of them,
        so two distinct witness edges exist)."""
        masks = [self.tau[v] for _, v in g.adj[u]]
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
                    if all(m & pair for m in masks):
                        cands.append(pair)
        cands.sort()
        return cands


def _top_leaves(cov: _Cover, x_mask: int, stats: SolveStats):
    """All ways to color the cover edges consuming exactly the budget X.

    Yields (assignment, used) with assignment parallel to cov.s_edges.
    Forced moves: a single allowed color; a pair with one fresh and one
    spent color takes the fresh one (any completion spending the fresh
    color later can shift it here); a pair of spent colors takes the
    smaller (exchangeable). Only fresh-fresh pairs branch, so every branch
    shrinks X.
    """
    allowed = [a & x_mask for a in cov.allowed_full]
    if any(a == 0 for a in allowed):
        return

    def rec(assigned, used: int, xrem: int):
        assigned = assigned[:]
        while True:
            changed = False
            for i, opts in enumerate(allowed):
                if assigned[i] is not None:
                    continue
                fresh = opts & xrem
                if opts & (opts - 1) == 0:
                    c = _low_bit(opts)
                elif fresh == 0:
                    c = _low_bit(opts)
                elif fresh & (fresh - 1) == 0:
                    c = _low_bit(fresh)
                else:
                    continue
                assigned[i] = c
                bit = 1 << c
                xrem &= ~bit
                used |= bit
                changed = True
            if not changed:
                break
        try:
            branch_at = assigned.index(None)
        except ValueError:
            if xrem == 0:
                yield assigned, used
            return
        stats.top_branch_events += 1
        stats.top_branch_max_width = max(stats.top_branch_max_width, 2)
        for c in _bits(allowed[branch_at]):
            nxt = assigned[:]
            nxt[branch_at] = c
            yield from rec(nxt, used | 1 << c, xrem & ~(1 << c))

    yield from rec([None] * len(allowed), 0, x_mask)


def _across(cov: _Cover, r0: int, stats: SolveStats):
    """Commit cut vertices so every color in r0 shows on a cut edge.

    Returns {vertex: candidate mask} for the vertices that need a specific
    candidate, or None. Colors already shown by forced or shared-color
    vertices come off first. Flexible vertices with a unique candidate
    meeting the leftover are forced; with several, the search branches over
    them (each branch shrinks the leftover). Once no flexible vertex can
    meet the leftover, only shared-color vertices can help, and each can
    show at most one leftover color, so a bipartite matching that saturates
    the leftover colors decides the rest.
    """
    need = r0 & ~cov.shown
    if need & ~cov.coverage:
        return None

    def rec(r: int, commits: dict[int, int]):
        commits = dict(commits)
        while True:
            changed = False
            for u in cov.bee:
                if u in commits:
                    continue
                hits = [y for y in cov.lists[u] if y & r]
                if len(hits) == 1:
                    commits[u] = hits[0]
                    r &= ~hits[0]
                    changed = True
            if not changed:
                break
        if r == 0:
            return commits
        for u in cov.bee:
            if u in commits:
                continue
            hits = [y for y in cov.lists[u] if y & r]
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
        colors = tuple(_bits(r))
        rows = tuple(u for u in cov.gee if u not in commits)
        edges = tuple(
            (c, u)
            for c in colors
            for u in rows
            if any(y >> c & 1 for y in cov.lists[u])
        )
        pairing = max_bipartite_matching(
            BipartiteGraph(left=colors, right=rows, edges=edges)
        )
        if len(pairing) < len(colors):
            return None
        for c, u in pairing.items():
            commits[u] = next(y for y in cov.lists[u] if y >> c & 1)
        return commits

    return rec(need, {})


def _assemble(g: Graph, cov: _Cover, leaf, commits: dict[int, int]):
    """Full per-edge color list from a cover assignment and cut commitments."""
    colors = [-1] * g.m
    assigned, _ = leaf
    for i, (eid, _, _) in enumerate(cov.s_edges):
        colors[eid] = assigned[i]
    chosen = dict(cov.singles)
    chosen.update(commits)
    for u in cov.cut_vertices:
        y = chosen.get(u, cov.lists[u][0])
        members = list(_bits(y))
        if len(members) == 1:
            for eid, _ in g.adj[u]:
                colors[eid] = members[0]
            continue
        a, b = members
        awits = [v for _, v in g.adj[u] if cov.tau[v] >> a & 1]
        bwits = [v for _, v in g.adj[u] if cov.tau[v] >> b & 1]
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
                colors[eid] = _low_bit(y & cov.tau[v])
    return colors


def solve_exact(g: Graph, k: int) -> SolveResult:
    """Decide whether some 2-valid coloring of g reaches k colors.

    Yes comes with a verified witness using exactly k colors (k >= 1; the
    k = 0 question is vacuous and answered with a plain valid coloring).
    """
    if k < 0:
        raise ValueError("color count must be nonnegative")
    stats = SolveStats()
    if k == 0:
        return SolveResult(True, EdgeColoring([0] * g.m), stats)
    if g.m == 0:
        return SolveResult(False, None, stats)
    if k == 1:
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
        return SolveResult(True, _checked(g, pre.witness, k), stats)
    assert isinstance(pre, Continue)
    cover = tuple(sorted(pre.cover))
    for tau_masks in _enum_tau_masks(g, cover, k):
        stats.palettes += 1
        colors = _try_palette(g, k, cover, dict(zip(cover, tau_masks)), stats)
        if colors is not None:
            return SolveResult(True, _checked(g, EdgeColoring(colors), k), stats)
    return SolveResult(False, None, stats)


def _try_palette(g, k, cover, tau_masks, stats):
    """All X guesses for one palette assignment; first witness wins."""
    cov = _Cover(g, cover, tau_masks, k)
    if cov.dead:
        return None
    positions = list(_bits(cov.union_allowed))
    for sub in range(1 << len(positions)):
        x_mask = 0
        for i, pos in enumerate(positions):
            if sub >> i & 1:
                x_mask |= 1 << pos
        if any(a & x_mask == 0 for a in cov.allowed_full):
            continue
        stats.x_guesses += 1
        r0 = cov.full & ~x_mask
        commits = _across(cov, r0, stats)
        if commits is None:
            continue
        leaf = next(_top_leaves(cov, x_mask, stats), None)
        if leaf is None:
            continue
        return _assemble(g, cov, leaf, commits)
    return None


def _checked(g: Graph, witness: EdgeColoring, k: int) -> EdgeColoring:
    res = verify_coloring(g, witness)
    if not res.valid or res.colors_used != k:
        raise AssertionError("witness failed verification")
    return witness
