"""Matching-based preprocessing and bipartite matching."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brutes import dumb_sigma, ref_max_bipartite_matching
from maxec import (
    BipartiteGraph,
    Continue,
    ForcedNo,
    ForcedYes,
    Graph,
    matching_coloring,
    matching_preprocess,
    maximal_matching,
    max_bipartite_matching,
    verify_coloring,
)


def test_greedy_matching_is_maximal():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    m = maximal_matching(g)
    assert m.edge_ids == (0, 2, 4)
    assert m.saturated == frozenset(range(6))
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert maximal_matching(star).edge_ids == (0,)


def test_matching_coloring_uses_background_class():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    col = matching_coloring(g)
    assert col.k == 4
    assert verify_coloring(g, col).valid
    assert col.colors == (1, 0, 2, 0, 3)


def test_matching_coloring_on_perfect_matching():
    g = Graph(4, [(0, 1), (2, 3)])
    col = matching_coloring(g)
    assert col.k == 2
    assert col.colors == (0, 1)
    assert matching_coloring(Graph(3, [])).colors == ()


def test_preprocess_settles_small_questions():
    path = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert isinstance(matching_preprocess(path, 5), ForcedNo)
    res = matching_preprocess(path, 3)
    assert isinstance(res, ForcedYes)
    check = verify_coloring(path, res.witness)
    assert check.valid and check.colors_used == 3
    assert isinstance(matching_preprocess(path, 0), ForcedYes)
    with pytest.raises(ValueError):
        matching_preprocess(path, -1)


def test_preprocess_handles_edgeless_graphs():
    empty = Graph(3, [])
    res = matching_preprocess(empty, 0)
    assert isinstance(res, ForcedYes)
    assert res.witness.k == 0
    assert isinstance(matching_preprocess(empty, 1), ForcedNo)


def test_preprocess_returns_cover_when_undecided():
    star = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
    res = matching_preprocess(star, 3)
    assert isinstance(res, Continue)
    assert res.cover == (0, 1)
    assert dumb_sigma(star) == 2


def test_forced_yes_matches_ground_truth_on_small_graphs():
    # whenever the matching rule fires, the instance really is positive
    gs = [
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        Graph(4, list(combinations(range(4), 2))),
        Graph(6, [(0, 1), (2, 3), (4, 5)]),
    ]
    for g in gs:
        s = dumb_sigma(g)
        for k in range(0, g.m + 2):
            res = matching_preprocess(g, k)
            if isinstance(res, ForcedYes):
                assert s >= k
            elif isinstance(res, ForcedNo):
                assert s < k


def test_bipartite_matching_on_known_graphs():
    bg = BipartiteGraph(
        left=("a", "b", "c"),
        right=(1, 2),
        edges=(("a", 1), ("b", 1), ("b", 2), ("c", 2)),
    )
    pairing = max_bipartite_matching(bg)
    assert len(pairing) == 2
    assert set(pairing) <= {"a", "b", "c"}
    full = BipartiteGraph(
        left=("a", "b"),
        right=(1, 2),
        edges=(("a", 1), ("a", 2), ("b", 1), ("b", 2)),
    )
    assert len(max_bipartite_matching(full)) == 2
    none = BipartiteGraph(left=("a",), right=(1,), edges=())
    assert max_bipartite_matching(none) == {}


def test_bipartite_matching_validates_labels():
    with pytest.raises(ValueError):
        BipartiteGraph(left=("a",), right=(1,), edges=(("a", 2),))
    with pytest.raises(ValueError):
        BipartiteGraph(left=("a", "a"), right=(1,), edges=())


@st.composite
def bipartite_instances(draw):
    nl = draw(st.integers(min_value=1, max_value=5))
    nr = draw(st.integers(min_value=1, max_value=5))
    pairs = [(a, b) for a in range(nl) for b in range(nr)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    return BipartiteGraph(
        left=tuple(range(nl)),
        right=tuple(f"r{b}" for b in range(nr)),
        edges=tuple((a, f"r{b}") for a, b in sorted(edges)),
    )


@settings(max_examples=80, deadline=None)
@given(bipartite_instances())
def test_bipartite_matching_is_maximum(bg):
    pairing = max_bipartite_matching(bg)
    # pairing is a matching over the instance's edges
    assert len(set(pairing.values())) == len(pairing)
    for a, b in pairing.items():
        assert (a, b) in bg.edges
    # maximum size checked against brute force over every matching: each
    # left vertex in turn takes a free neighbor or stays unmatched, at most
    # 6**5 leaves where the edge subsets number up to 2**25
    adj = {a: [b for x, b in bg.edges if x == a] for a in bg.left}

    def best(i, used):
        if i == len(bg.left):
            return 0
        top = best(i + 1, used)
        for b in adj[bg.left[i]]:
            if b not in used:
                top = max(top, 1 + best(i + 1, used | {b}))
        return top

    assert len(pairing) == best(0, frozenset())


def test_bipartite_matching_follows_a_long_augmenting_chain():
    # left 0 sees right 0 and left i sees right i-1, then right i: left i
    # first walks the alternating path down to left 0 before it takes
    # right i, a path of length about 2i
    n = 3000
    edges = [(0, 0)] + [(i, j) for i in range(1, n) for j in (i - 1, i)]
    bg = BipartiteGraph(left=tuple(range(n)), right=tuple(range(n)),
                        edges=tuple(edges))
    pairing = max_bipartite_matching(bg)
    assert len(pairing) == n
    assert len(set(pairing.values())) == n


def test_bipartite_matching_pairs_like_the_recursive_search():
    rng = random.Random(12)
    for _ in range(400):
        nl, nr = rng.randint(1, 7), rng.randint(1, 7)
        pairs = [(a, b) for a in range(nl) for b in range(nr)]
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        left = rng.sample(range(nl), nl)
        bg = BipartiteGraph(left=tuple(left), right=tuple(range(nr)),
                            edges=tuple(edges))
        got = max_bipartite_matching(bg)
        assert list(got.items()) == list(ref_max_bipartite_matching(bg).items())
