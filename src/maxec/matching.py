"""Matchings and the matching-based preprocessing step.

The preprocessing rests on two easy facts about 2-valid colorings:

* with fewer than k edges no coloring can use k colors, and
* a matching of size r plus a single shared "background" class yields a
  2-valid coloring with r+1 colors (r colors when the matching covers every
  edge), so a maximal matching of size at least k-1 settles instances with at
  least k edges immediately.

When neither rule fires, the endpoints of the maximal matching form a vertex
cover of at most 2k-4 vertices. The kernels use that cover as it is; the
exact solver shrinks it to a minimum cover before it branches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import EdgeColoring, Graph, compress_colors, verify_coloring


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edge ids."""

    edge_ids: tuple[int, ...]
    saturated: frozenset[int]

    def __len__(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class ForcedNo:
    """The instance is settled negatively."""


@dataclass(frozen=True)
class ForcedYes:
    """The instance is settled positively, with a verified witness."""

    witness: EdgeColoring


@dataclass(frozen=True)
class Continue:
    """Not settled; ``cover`` is the vertex cover of matched endpoints, in
    ascending order. The kernels use it as it is, and the exact solver
    shrinks it to a minimum cover before it branches."""

    cover: tuple[int, ...]


PreprocessResult = ForcedNo | ForcedYes | Continue


def maximal_matching(g: Graph) -> Matching:
    """Greedy maximal matching scanning edges in ascending id order."""
    used: set[int] = set()
    picked = []
    for eid, (u, v) in enumerate(g.edges):
        if u not in used and v not in used:
            picked.append(eid)
            used.add(u)
            used.add(v)
    return Matching(tuple(picked), frozenset(used))


def matching_coloring(g: Graph, matching: Matching | None = None) -> EdgeColoring:
    """2-valid coloring from a matching: one class per matched edge.

    Unmatched edges share one background class, so each vertex sees at most
    its own matched color plus the background. Uses r+1 colors, or r when the
    matching covers all edges (0 on an edgeless graph).
    """
    if matching is None:
        matching = maximal_matching(g)
    ranks = {eid: i for i, eid in enumerate(matching.edge_ids)}
    if len(matching) == g.m:
        colors = [ranks[eid] for eid in range(g.m)]
    else:
        colors = [ranks[eid] + 1 if eid in ranks else 0 for eid in range(g.m)]
    return EdgeColoring(colors)


def matching_preprocess(g: Graph, k: int) -> PreprocessResult:
    """Settle or shrink the question "is there a 2-valid coloring with k colors".

    Returns ForcedNo iff m < k. Otherwise, with a greedy maximal matching of
    size r: ForcedYes with a verified k-color witness when r >= k-1, else
    Continue with the cover formed by the matched endpoints (at most 2k-4
    vertices, since r <= k-2).
    """
    if k < 0:
        raise ValueError("color count must be nonnegative")
    if g.m < k:
        return ForcedNo()
    matching = maximal_matching(g)
    if len(matching) >= k - 1:
        if k == 0:
            return ForcedYes(EdgeColoring(()) if g.m == 0 else _checked(g, 1))
        return ForcedYes(_checked(g, k, matching))
    return Continue(tuple(sorted(matching.saturated)))


def _checked(g: Graph, k: int, matching: Matching | None = None) -> EdgeColoring:
    witness = compress_colors(matching_coloring(g, matching), k)
    res = verify_coloring(g, witness)
    if not res.valid or res.colors_used != k:
        raise AssertionError("matching witness failed verification")
    return witness

